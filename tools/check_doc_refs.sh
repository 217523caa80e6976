#!/usr/bin/env bash
# Fails when a comment or string in src/, bench/, tests/ or examples/ names
# a Markdown file (*.md) that does not exist in the repository, so a pointer
# like "see DESIGN.md" cannot outlive (or precede) the document it names.
#
# Run from anywhere:  tools/check_doc_refs.sh
# A reference resolves against the repository root, by path ("docs/x.md")
# or by file name anywhere in the tree ("x.md"). Exit status: 0 when every
# reference resolves, 1 when one does not (each is listed).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# Every Markdown file in the tree, by path relative to the root.
mapfile -t docs < <(find . -name '*.md' -not -path './.git/*' \
  -not -path './build*' -not -path './.bench_build/*' | sed 's|^\./||')

exists() {
  local ref="$1" doc
  for doc in "${docs[@]}"; do
    if [[ "$doc" == "$ref" || "$(basename "$doc")" == "$ref" ]]; then
      return 0
    fi
  done
  return 1
}

missing=0
while IFS=: read -r file line ref; do
  if ! exists "$ref"; then
    echo "$file:$line: names $ref, which does not exist" >&2
    missing=1
  fi
done < <(grep -rnoE '[A-Za-z0-9_./-]+\.md\b' src bench tests examples \
           --include='*.h' --include='*.cc' --include='*.cpp' || true)

if [[ "$missing" -ne 0 ]]; then
  exit 1
fi
echo "doc references: every *.md named in src/, bench/, tests/ and examples/ exists"
