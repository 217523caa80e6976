#ifndef SEQFM_SERVE_SHARD_H_
#define SEQFM_SERVE_SHARD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "serve/predictor.h"

namespace seqfm {
namespace serve {

class ScoringBackend;  // serve/backend.h; kept out of this header's includes

/// One scored candidate inside the sharded ranking machinery: the score, the
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
/// ranked result in src/serve/ — SelectTopK, per-shard heaps, cross-shard
/// merges — sorts by this one comparator; because it is a strict total order
/// over (score, id, pos), the global top-K is a unique set and sharded
/// rankings are bit-identical to unsharded ones for any shard layout.
bool RankBefore(const RankEntry& a, const RankEntry& b);

/// \brief Contiguous partition of a candidate vector into near-equal shards.
///
/// Shard s covers positions [Bounds(total, n)[s], Bounds(total, n)[s+1]);
/// shards differ in size by at most one and later shards may be empty when
/// num_shards exceeds the catalog size. The partition is deterministic in
/// (total, num_shards) only, so two replicas configured alike agree on every
/// boundary.
class ShardedCatalog {
 public:
  /// Positions of the num_shards + 1 shard boundaries over [0, total).
  static std::vector<size_t> Bounds(size_t total, size_t num_shards);

  /// Takes ownership of \p candidates; num_shards must be >= 1
  /// (check-fails otherwise).
  ShardedCatalog(std::vector<int32_t> candidates, size_t num_shards);

  size_t num_shards() const { return bounds_.size() - 1; }
  size_t size() const { return candidates_.size(); }
  const std::vector<int32_t>& candidates() const { return candidates_; }
  size_t shard_begin(size_t shard) const { return bounds_[shard]; }
  size_t shard_end(size_t shard) const { return bounds_[shard + 1]; }
  size_t shard_size(size_t shard) const {
    return bounds_[shard + 1] - bounds_[shard];
  }
  /// All num_shards + 1 boundary offsets (MakeShardChunks input).
  const std::vector<size_t>& bounds() const { return bounds_; }

 private:
  std::vector<int32_t> candidates_;
  std::vector<size_t> bounds_;  // num_shards + 1 monotone offsets
};

/// \brief Bounded top-k accumulator under RankBefore.
///
/// Holds at most k entries; Push replaces the current worst entry when the
/// new one ranks before it. The retained set is the top-k of everything ever
/// pushed, independent of push order, so concurrent chunk tasks feeding one
/// heap (under the caller's lock) stay deterministic. Memory is O(k)
/// regardless of how many candidates stream through — the point of sharded
/// serving: no shard ever materializes its full score vector.
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

/// K-way merges per-shard top-K heaps into the global top-k (RankBefore
/// order). Equals SelectTopK over the union of all pushed entries as long as
/// every heap held at least k slots.
std::vector<ScoredItem> MergeTopK(const std::vector<TopKHeap>& shard_heaps,
                                  size_t k);

/// K-way merges already-sorted (best-first, RankBefore) RankEntry runs into
/// the global top-k. This is the reduction every fan-out layer shares:
/// MergeTopK feeds it per-shard heap runs in process, and the distributed
/// serve::Coordinator feeds it per-replica runs off the wire — same
/// comparator, same cursor merge, so a request's ranking is identical no
/// matter how its candidate space was partitioned or transported. Empty runs
/// are permitted; behavior is unspecified if a run is not RankBefore-sorted.
std::vector<ScoredItem> MergeSortedRuns(
    const std::vector<std::vector<RankEntry>>& runs, size_t k);

/// One (shard, candidate-range) scoring task of a sharded request; chunks
/// never straddle a shard boundary.
struct ShardChunk {
  size_t shard = 0;
  size_t begin = 0;
  size_t end = 0;
};

/// Enumerates the chunk tasks covering \p bounds (as produced by
/// ShardedCatalog::Bounds) with at most \p chunk_size candidates each, in
/// shard-then-position order.
std::vector<ShardChunk> MakeShardChunks(const std::vector<size_t>& bounds,
                                        size_t chunk_size);

/// Runs one ShardChunk task: scores candidates[chunk.begin, chunk.end) —
/// through the compiled body against \p ctx when non-null, through the
/// eager path for \p ex otherwise — into \p chunk_scores (resized), then
/// pushes every entry into \p heap under \p mu. This is the single
/// reduction step both ShardedPredictor::TopK and BatchServer waves execute
/// per task; sharing it keeps their rankings bit-identical by construction.
void ScoreChunkIntoHeap(const Predictor& predictor,
                        const core::SharedContext* ctx,
                        const data::SequenceExample& ex,
                        const std::vector<int32_t>& candidates,
                        const ShardChunk& chunk,
                        std::vector<float>* chunk_scores, std::mutex* mu,
                        TopKHeap* heap);

struct ShardedPredictorOptions {
  /// Contiguous shards the catalog is partitioned into. Each shard is scored
  /// as independent chunk tasks on the one global util::ThreadPool (never a
  /// nested pool) and reduced into its own bounded top-K heap.
  size_t num_shards = 1;
};

/// \brief Sharded catalog scoring over a serve::Predictor.
///
/// Partitions the candidate space into contiguous shards, scores every
/// shard's chunks through the Predictor's compiled/eager range kernels
/// (fanned out on the shared thread pool), keeps one bounded top-K heap per
/// shard, and k-way merges the heaps under RankBefore. Results are
/// bit-identical to Predictor::TopKAll / Predictor::TopK for every shard
/// count and boundary; peak memory per request is O(num_shards * k + chunk)
/// instead of O(catalog), which is what lets catalogs larger than one node's
/// score buffer serve at all.
///
/// Thread-safe for concurrent TopK calls after construction (same contract
/// as Predictor). The Predictor is borrowed and must outlive this object.
class ShardedPredictor {
 public:
  explicit ShardedPredictor(Predictor* predictor,
                            ShardedPredictorOptions options = {});
  ~ShardedPredictor();

  /// Top-k of the pre-partitioned \p catalog (descending score, RankBefore
  /// ties). k is clamped to catalog.size().
  std::vector<ScoredItem> TopK(const data::SequenceExample& ex,
                               const ShardedCatalog& catalog, size_t k) const;

  /// Convenience: partitions \p candidates into options().num_shards shards
  /// and ranks them in place (no copy is taken).
  std::vector<ScoredItem> TopK(const data::SequenceExample& ex,
                               const std::vector<int32_t>& candidates,
                               size_t k) const;

  /// Top-k over the full object catalog [0, num_objects), sharded. Ranks
  /// the Predictor's own identity catalog in place (no copy); only the
  /// shard boundaries are computed here, once at construction.
  /// Bit-identical to Predictor::TopKAll.
  std::vector<ScoredItem> TopKAll(const data::SequenceExample& ex,
                                  size_t k) const;

  const Predictor* predictor() const { return predictor_; }
  const ShardedPredictorOptions& options() const { return options_; }

 private:
  /// The shared core: ranks \p candidates partitioned at \p bounds.
  std::vector<ScoredItem> TopKImpl(const data::SequenceExample& ex,
                                   const std::vector<int32_t>& candidates,
                                   const std::vector<size_t>& bounds,
                                   size_t k) const;

  Predictor* predictor_;
  ShardedPredictorOptions options_;
  /// The scoring engine room: one ScoreJob per shard goes through this
  /// LocalShardBackend (serve/backend.h), the same seam BatchServer waves
  /// use — the fan-out/reduce plumbing lives there exactly once.
  std::unique_ptr<ScoringBackend> backend_;
  /// Shard boundaries over the Predictor's full catalog (offsets only —
  /// the candidates themselves stay in the Predictor).
  std::vector<size_t> full_catalog_bounds_;
};

}  // namespace serve
}  // namespace seqfm

#endif  // SEQFM_SERVE_SHARD_H_
