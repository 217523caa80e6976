#ifndef SEQFM_SERVE_CONTEXT_CACHE_H_
#define SEQFM_SERVE_CONTEXT_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/seqfm.h"
#include "util/ordered_mutex.h"
#include "util/thread_annotations.h"

namespace seqfm {
namespace serve {

/// Counters and occupancy snapshot returned by ContextCache::stats().
struct ContextCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;      // entries dropped to stay under the budget
  uint64_t invalidations = 0;  // Invalidate() calls (checkpoint reloads)
  size_t entries = 0;
  size_t bytes = 0;
  size_t byte_budget = 0;

  double hit_rate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// \brief Byte-budgeted LRU cache of compiled-serving SharedContexts (the
/// prologue's slot tensors), keyed on (user_index, FNV-1a(history ids)).
///
/// The per-request candidate-invariant work of the compiled prologue — for
/// SeqFM the whole dynamic view plus the history-side cross projections —
/// depends only on who is asking and what they did, so repeated requests
/// from the same (user, history) can skip it entirely, the way an LLM server
/// reuses a session's KV cache. Keys hash with util::Fnv1a64 but lookups
/// compare the full (user, ids) key, so a hash collision can never serve the
/// wrong context and cached scores stay bit-for-bit identical to
/// Model::Score.
///
/// Thread-safe: lookups/inserts lock internally, and the context compute
/// runs outside the lock (two threads racing on the same cold key may both
/// compute it; the first insert wins and the loser's result is still
/// returned to its caller). Invalidate() must be called whenever the
/// underlying model parameters change (serve::Predictor::ReloadCheckpoint
/// and serve::BatchServer::ReloadCheckpoint do this), because contexts hold
/// tensors derived from the parameters at compute time.
class ContextCache {
 public:
  using ContextPtr = std::shared_ptr<const core::SharedContext>;

  /// \p byte_budget caps the resident bytes of cached contexts (ids + entry
  /// overhead included). A context larger than the whole budget is returned
  /// but never cached. Budget 0 caches nothing (every call is a miss).
  explicit ContextCache(size_t byte_budget);

  ContextCache(const ContextCache&) = delete;
  ContextCache& operator=(const ContextCache&) = delete;

  /// Returns the cached context for (user_index, dynamic_ids), or runs
  /// \p compute, caches the result (evicting LRU entries past the budget)
  /// and returns it.
  ContextPtr GetOrCompute(int32_t user_index,
                          const std::vector<int32_t>& dynamic_ids,
                          const std::function<ContextPtr()>& compute);

  /// Drops every entry. Call after any parameter mutation (checkpoint
  /// reload, training step) — cached contexts are stale from that point.
  void Invalidate();

  ContextCacheStats stats() const;

  /// The cache key hash: FNV-1a over the user index then the id payload.
  /// Exposed so tests can pin the key composition.
  static uint64_t KeyHash(int32_t user_index,
                          const std::vector<int32_t>& dynamic_ids);

 private:
  struct Entry {
    int32_t user_index;
    std::vector<int32_t> dynamic_ids;
    ContextPtr context;
    size_t bytes;
    uint64_t hash;
  };
  using LruList = std::list<Entry>;

  /// Returns the entry for the full key or lru_.end(). Caller holds mu_.
  LruList::iterator Find(uint64_t hash, int32_t user_index,
                         const std::vector<int32_t>& dynamic_ids)
      SEQFM_REQUIRES(mu_);
  /// Drops the least-recently-used entry. Caller holds mu_.
  void EvictBack() SEQFM_REQUIRES(mu_);

  const size_t byte_budget_;
  mutable util::OrderedMutex mu_{"ContextCache::mu_",
                                 util::lock_rank::kContextCache};
  LruList lru_ SEQFM_GUARDED_BY(mu_);  // front = most recently used
  std::unordered_multimap<uint64_t, LruList::iterator> index_
      SEQFM_GUARDED_BY(mu_);
  size_t bytes_ SEQFM_GUARDED_BY(mu_) = 0;
  uint64_t hits_ SEQFM_GUARDED_BY(mu_) = 0;
  uint64_t misses_ SEQFM_GUARDED_BY(mu_) = 0;
  uint64_t evictions_ SEQFM_GUARDED_BY(mu_) = 0;
  uint64_t invalidations_ SEQFM_GUARDED_BY(mu_) = 0;
};

}  // namespace serve
}  // namespace seqfm

#endif  // SEQFM_SERVE_CONTEXT_CACHE_H_
