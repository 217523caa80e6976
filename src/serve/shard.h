#ifndef SEQFM_SERVE_SHARD_H_
#define SEQFM_SERVE_SHARD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/predictor.h"

namespace seqfm {
namespace serve {

/// One scored candidate inside the top-K ranking machinery: the score, the
/// candidate id, and the candidate's position in the original candidates
/// vector (which makes the order below strictly total even with duplicate
/// ids).
struct RankEntry {
  float score = 0.0f;
  int32_t item = 0;
  size_t pos = 0;
};

/// The serving-wide ranking order: score descending, NaN scores last, ties
/// by candidate id ascending, duplicate ids by original position. Every
/// ranked result in src/serve/ — SelectTopK, per-job heaps, cross-replica
/// merges — sorts by this one comparator; because it is a strict total order
/// over (score, id, pos), the global top-K is a unique set and a ranking
/// merged from any partition of the candidates is bit-identical to the
/// unpartitioned one.
bool RankBefore(const RankEntry& a, const RankEntry& b);

/// Boundaries of the contiguous near-equal partition of [0, \p total) into
/// \p num_shards shards: shard s covers [bounds[s], bounds[s + 1]). Shards
/// differ in size by at most one and later shards are empty when num_shards
/// exceeds total. The partition depends on (total, num_shards) only, so
/// replicas configured alike agree on every boundary without coordination.
/// num_shards must be >= 1 (check-fails otherwise).
std::vector<size_t> ShardBounds(size_t total, size_t num_shards);

/// \brief Bounded top-k accumulator under RankBefore.
///
/// Holds at most k entries; Push replaces the current worst entry when the
/// new one ranks before it. The retained set is the top-k of everything ever
/// pushed, independent of push order, so concurrent chunk tasks feeding one
/// heap (under the caller's lock) stay deterministic. Memory is O(k)
/// regardless of how many candidates stream through, so no ranking ever
/// materializes its full score vector.
///
/// Not internally synchronized; callers serialise Push per heap.
class TopKHeap {
 public:
  explicit TopKHeap(size_t k) : k_(k) {}

  void Push(const RankEntry& entry);

  size_t size() const { return heap_.size(); }
  size_t capacity() const { return k_; }

  /// The retained entries, best first (RankBefore order).
  std::vector<RankEntry> SortedEntries() const;

  /// The retained entries in internal heap order (no sort) — for draining
  /// one heap into another without paying the O(k log k) ordering.
  const std::vector<RankEntry>& entries() const { return heap_; }

 private:
  size_t k_;
  /// Binary heap with the worst retained entry at the front.
  std::vector<RankEntry> heap_;
};

/// K-way merges already-sorted (best-first, RankBefore) RankEntry runs into
/// the global top-k. serve::Coordinator feeds it per-replica runs off the
/// wire; tests feed it the runs of several in-process ScoreJobs over one
/// request. Same comparator, same cursor merge, so a request's ranking is
/// identical no matter how its candidate space was partitioned or
/// transported. Empty runs are permitted; behavior is unspecified if a run
/// is not RankBefore-sorted.
std::vector<ScoredItem> MergeSortedRuns(
    const std::vector<std::vector<RankEntry>>& runs, size_t k);

}  // namespace serve
}  // namespace seqfm

#endif  // SEQFM_SERVE_SHARD_H_
