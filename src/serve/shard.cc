#include "serve/shard.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace seqfm {
namespace serve {

bool RankBefore(const RankEntry& a, const RankEntry& b) {
  const bool a_nan = std::isnan(a.score);
  const bool b_nan = std::isnan(b.score);
  if (a_nan != b_nan) return b_nan;  // NaN sorts last
  if (!a_nan && a.score != b.score) return a.score > b.score;
  if (a.item != b.item) return a.item < b.item;
  return a.pos < b.pos;
}

std::vector<size_t> ShardBounds(size_t total, size_t num_shards) {
  SEQFM_CHECK_GT(num_shards, 0u) << "ShardBounds: need at least one shard";
  std::vector<size_t> bounds(num_shards + 1);
  for (size_t s = 0; s <= num_shards; ++s) {
    bounds[s] = total * s / num_shards;  // near-equal, empty tails allowed
  }
  return bounds;
}

void TopKHeap::Push(const RankEntry& entry) {
  if (k_ == 0) return;
  if (heap_.size() < k_) {
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), RankBefore);
    return;
  }
  // Front is the worst retained entry; replace it only when the newcomer
  // ranks strictly before it.
  if (!RankBefore(entry, heap_.front())) return;
  std::pop_heap(heap_.begin(), heap_.end(), RankBefore);
  heap_.back() = entry;
  std::push_heap(heap_.begin(), heap_.end(), RankBefore);
}

std::vector<RankEntry> TopKHeap::SortedEntries() const {
  std::vector<RankEntry> sorted = heap_;
  std::sort(sorted.begin(), sorted.end(), RankBefore);
  return sorted;
}

std::vector<ScoredItem> MergeSortedRuns(
    const std::vector<std::vector<RankEntry>>& all_runs, size_t k) {
  // Classic k-way merge over the sorted runs with a cursor heap:
  // O(k log num_runs), no concatenated buffer.
  std::vector<const std::vector<RankEntry>*> runs;
  runs.reserve(all_runs.size());
  for (const std::vector<RankEntry>& run : all_runs) {
    if (!run.empty()) runs.push_back(&run);
  }
  struct Cursor {
    size_t run;
    size_t idx;
  };
  const auto cursor_after = [&runs](const Cursor& a, const Cursor& b) {
    // "a after b" so the std::*_heap max element is the best cursor.
    return RankBefore((*runs[b.run])[b.idx], (*runs[a.run])[a.idx]);
  };
  std::vector<Cursor> cursors;
  cursors.reserve(runs.size());
  for (size_t r = 0; r < runs.size(); ++r) cursors.push_back({r, 0});
  std::make_heap(cursors.begin(), cursors.end(), cursor_after);

  std::vector<ScoredItem> top;
  while (top.size() < k && !cursors.empty()) {
    std::pop_heap(cursors.begin(), cursors.end(), cursor_after);
    Cursor best = cursors.back();
    cursors.pop_back();
    const RankEntry& entry = (*runs[best.run])[best.idx];
    top.push_back({entry.item, entry.score});
    if (++best.idx < runs[best.run]->size()) {
      cursors.push_back(best);
      std::push_heap(cursors.begin(), cursors.end(), cursor_after);
    }
  }
  return top;
}

}  // namespace serve
}  // namespace seqfm
