#include "serve/shard.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <utility>

#include "serve/backend.h"
#include "util/logging.h"
#include "util/thread_pool.h"

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

std::vector<size_t> ShardedCatalog::Bounds(size_t total, size_t num_shards) {
  SEQFM_CHECK_GT(num_shards, 0u) << "ShardedCatalog: need at least one shard";
  std::vector<size_t> bounds(num_shards + 1);
  for (size_t s = 0; s <= num_shards; ++s) {
    bounds[s] = total * s / num_shards;  // near-equal, empty tails allowed
  }
  return bounds;
}

ShardedCatalog::ShardedCatalog(std::vector<int32_t> candidates,
                               size_t num_shards)
    : candidates_(std::move(candidates)),
      bounds_(Bounds(candidates_.size(), num_shards)) {}

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

std::vector<ScoredItem> MergeTopK(const std::vector<TopKHeap>& shard_heaps,
                                  size_t k) {
  std::vector<std::vector<RankEntry>> runs;
  runs.reserve(shard_heaps.size());
  for (const TopKHeap& heap : shard_heaps) {
    if (heap.size() > 0) runs.push_back(heap.SortedEntries());
  }
  return MergeSortedRuns(runs, k);
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

std::vector<ShardChunk> MakeShardChunks(const std::vector<size_t>& bounds,
                                        size_t chunk_size) {
  SEQFM_CHECK_GT(chunk_size, 0u);
  std::vector<ShardChunk> chunks;
  for (size_t s = 0; s + 1 < bounds.size(); ++s) {
    // Chunks never straddle a shard boundary: each restarts at the shard.
    for (size_t begin = bounds[s]; begin < bounds[s + 1];
         begin += chunk_size) {
      chunks.push_back({s, begin, std::min(bounds[s + 1],
                                           begin + chunk_size)});
    }
  }
  return chunks;
}

void ScoreChunkIntoHeap(const Predictor& predictor,
                        const core::SharedContext* ctx,
                        const data::SequenceExample& ex,
                        const std::vector<int32_t>& candidates,
                        const ShardChunk& chunk,
                        std::vector<float>* chunk_scores, std::mutex* mu,
                        TopKHeap* heap) {
  chunk_scores->resize(chunk.end - chunk.begin);
  if (ctx != nullptr) {
    predictor.ScoreContextRange(*ctx, ex, candidates, chunk.begin, chunk.end,
                                chunk_scores->data());
  } else {
    predictor.ScoreGenericRange(ex, candidates, chunk.begin, chunk.end,
                                chunk_scores->data());
  }
  // Reduce lock-free into a chunk-local heap first, then merge only its
  // <= k survivors under the shared heap's mutex: the retained set is
  // push-order independent, so the bits are identical while the critical
  // section shrinks from O(chunk log k) to O(k log k) — concurrent chunks
  // of a hot shard would otherwise convoy on the mutex.
  TopKHeap local(heap->capacity());
  for (size_t i = 0; i < chunk_scores->size(); ++i) {
    local.Push({(*chunk_scores)[i], candidates[chunk.begin + i],
                chunk.begin + i});
  }
  std::lock_guard<std::mutex> lock(*mu);
  for (const RankEntry& entry : local.entries()) heap->Push(entry);
}

namespace {
std::vector<size_t> FullCatalogBounds(Predictor* predictor,
                                      size_t num_shards) {
  SEQFM_CHECK(predictor != nullptr) << "ShardedPredictor: null predictor";
  return ShardedCatalog::Bounds(predictor->full_catalog().size(), num_shards);
}
}  // namespace

ShardedPredictor::ShardedPredictor(Predictor* predictor,
                                   ShardedPredictorOptions options)
    : predictor_(predictor),
      options_(options),
      backend_(std::make_unique<LocalShardBackend>(predictor)),
      full_catalog_bounds_(FullCatalogBounds(predictor, options.num_shards)) {}

ShardedPredictor::~ShardedPredictor() = default;

std::vector<ScoredItem> ShardedPredictor::TopK(
    const data::SequenceExample& ex, const std::vector<int32_t>& candidates,
    size_t k) const {
  return TopKImpl(ex, candidates,
                  ShardedCatalog::Bounds(candidates.size(),
                                         options_.num_shards),
                  k);
}

std::vector<ScoredItem> ShardedPredictor::TopKAll(
    const data::SequenceExample& ex, size_t k) const {
  // The Predictor already materializes [0, num_objects); rank it in place.
  return TopKImpl(ex, predictor_->full_catalog(), full_catalog_bounds_, k);
}

std::vector<ScoredItem> ShardedPredictor::TopK(const data::SequenceExample& ex,
                                               const ShardedCatalog& catalog,
                                               size_t k) const {
  return TopKImpl(ex, catalog.candidates(), catalog.bounds(), k);
}

std::vector<ScoredItem> ShardedPredictor::TopKImpl(
    const data::SequenceExample& ex, const std::vector<int32_t>& candidates,
    const std::vector<size_t>& bounds, size_t k) const {
  const size_t num_shards = bounds.size() - 1;
  k = std::min(k, candidates.size());
  if (k == 0) return {};

  // One ScoreJob per shard through the shared backend seam: the backend
  // resolves the (user, history) context once (through the same
  // ContextCache), fans every (shard, chunk) task onto the pool, and hands
  // back one sorted top-k run per shard — exactly the plumbing this method
  // used to inline, now shared with BatchServer waves and the distributed
  // Coordinator.
  std::vector<ScoreJob> jobs;
  jobs.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    jobs.push_back({&ex, &candidates, bounds[s], bounds[s + 1], k});
  }
  std::vector<std::vector<RankEntry>> runs;
  const Status st = backend_->ScoreTopK(jobs, &runs);
  SEQFM_CHECK(st.ok()) << "ShardedPredictor: local backend failed: "
                       << st.ToString();
  return MergeSortedRuns(runs, k);
}

}  // namespace serve
}  // namespace seqfm
