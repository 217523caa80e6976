#ifndef SEQFM_CORE_SCRATCH_ARENA_H_
#define SEQFM_CORE_SCRATCH_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace seqfm {
namespace core {

/// Aggregate scratch-arena counters (process-wide across every thread's
/// arena, monotonic unless stated otherwise), read with GlobalScratchStats()
/// so operators can watch serving settle into the allocation-free steady
/// state: after warm-up, heap_refills stops moving while allocations keeps
/// counting.
struct ScratchStats {
  /// Bump allocations served (one per op output in a scratch scope).
  uint64_t allocations = 0;
  /// Heap blocks ever reserved by arenas. Constant in steady state — the
  /// allocation-free-serving tests assert its delta is zero.
  uint64_t heap_refills = 0;
  /// Bytes currently reserved by live arenas (their block capacities).
  size_t bytes_reserved = 0;
  /// Largest bytes-in-use ever observed in a single arena — the working-set
  /// high-water mark a request needs.
  size_t high_water = 0;
};

/// \brief Thread-local bump allocator backing tape-free op outputs.
///
/// A request-scoped scratch space: allocations are pointer bumps inside
/// 64-byte-aligned blocks, nothing is freed individually, and a ScratchScope
/// rewinds the arena wholesale when the request (or chunk) is done. Blocks
/// are kept across rewinds — the high-water-mark reuse that makes a serving
/// thread's steady state completely heap-allocation-free: after the first
/// request at a given shape, every later request bumps through the same
/// memory. Under AddressSanitizer the rewound region is poisoned, so a
/// tensor that outlives its scope trips ASan instead of silently reading
/// recycled scratch.
///
/// Not thread-safe (by design: one arena per thread; see
/// ThreadScratchArena). Grows geometrically when a request outgrows the
/// reserve, counting each growth in ScratchStats::heap_refills.
class ScratchArena {
 public:
  /// Matches tensor::internal::kTensorAlignment so wrapped tensors see the
  /// same alignment guarantee as owned ones.
  static constexpr size_t kAlignment = 64;

  ScratchArena() = default;
  ~ScratchArena();

  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// Bump-allocates \p bytes (rounded up to kAlignment), refilling from the
  /// heap only when no reserved block fits.
  void* Allocate(size_t bytes);
  /// Allocate() for n floats.
  float* AllocateFloats(size_t n) {
    return static_cast<float*>(Allocate(n * sizeof(float)));
  }
  /// Allocate() for n int32 ids (per-chunk candidate/static id vectors).
  int32_t* AllocateInts(size_t n) {
    return static_cast<int32_t*>(Allocate(n * sizeof(int32_t)));
  }

  /// A rewind point: which block was active and how much of it was used.
  struct Mark {
    size_t block = 0;
    size_t used = 0;
    size_t in_use = 0;
  };
  Mark mark() const { return {current_, CurrentUsed(), in_use_}; }
  /// Releases everything allocated after \p m (stack discipline; scopes
  /// nest). Block capacity is retained for reuse; the freed range is
  /// ASan-poisoned.
  void RewindTo(const Mark& m);

  /// Bytes currently allocated from this arena.
  size_t bytes_in_use() const { return in_use_; }
  /// Bytes of block capacity this arena holds.
  size_t bytes_reserved() const;

 private:
  struct Block {
    char* data = nullptr;
    size_t capacity = 0;
    size_t used = 0;
  };

  size_t CurrentUsed() const {
    return current_ < blocks_.size() ? blocks_[current_].used : 0;
  }

  std::vector<Block> blocks_;
  /// Index of the block Allocate bumps; blocks before it are (near-)full.
  size_t current_ = 0;
  size_t in_use_ = 0;
};

/// The calling thread's arena (created on first use, lives until thread
/// exit). Pool workers are long-lived, so their arenas amortize across the
/// process lifetime.
ScratchArena& ThreadScratchArena();

/// True when a ScratchScope is active on this thread — the signal
/// autograd::internal::OutputBuffer uses to draw op outputs from the arena.
bool ScratchScopeActive();

/// \brief RAII activation of arena-backed op outputs on the current thread.
///
/// \code
///   core::ScratchScope scratch;        // + NoGradGuard, see OutputBuffer
///   Variable scores = model->Score(batch, /*training=*/false);
///   CopyOut(scores.value());           // results must be copied out...
/// \endcode                             // ...before the scope closes
///
/// Everything allocated inside the scope is released at once by the
/// destructor's rewind. Scopes nest (inner scopes rewind to their own
/// entry). The contract mirrors Tensor::WrapExternal: no tensor allocated
/// inside may escape by move or reference — copies are fine, they own heap
/// memory. Only meaningful together with grad-mode-off; OutputBuffer
/// ignores the scope when a tape is being built.
class ScratchScope {
 public:
  ScratchScope();
  ~ScratchScope();

  ScratchScope(const ScratchScope&) = delete;
  ScratchScope& operator=(const ScratchScope&) = delete;

 private:
  ScratchArena::Mark mark_;
  bool prev_active_;
};

/// Process-wide aggregate over every arena (atomics, cheap).
ScratchStats GlobalScratchStats();

}  // namespace core
}  // namespace seqfm

#endif  // SEQFM_CORE_SCRATCH_ARENA_H_
