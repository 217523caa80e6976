#ifndef SEQFM_SERVE_PREDICTOR_H_
#define SEQFM_SERVE_PREDICTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/model_interface.h"
#include "core/seqfm.h"
#include "data/dataset.h"
#include "ir/exec.h"
#include "serve/context_cache.h"
#include "util/result.h"

namespace seqfm {
namespace serve {

struct PredictorOptions {
  /// Candidates scored per tape-free forward. Also the chunk the candidate
  /// loop hands to the shared util::ThreadPool, the chunk LocalShardBackend
  /// (and so BatchServer) scores, and the largest count the compiled body's
  /// frame is planned for.
  size_t micro_batch = 256;
  /// Compile the model into a static op program at construction (trace → IR
  /// passes → arena-planned VM; see src/ir/) and serve every request through
  /// it: the candidate-invariant prologue runs once per (user, history) and
  /// feeds the context cache, the per-candidate body replays per chunk with
  /// zero steady-state allocations. Applies to ANY traceable model, not just
  /// SeqFM. Scores stay bit-for-bit identical to Model::Score — the compiler
  /// self-checks both program halves against the traced and eager forwards,
  /// once, and a model that fails them serves eagerly. Set to false to force
  /// eager serving (the parity oracle; also bench_serving's compiled-off
  /// baseline).
  bool use_compiled_program = true;
  /// Byte budget for the (user, history) SharedContext LRU cache in front of
  /// the compiled program; 0 disables caching. An entry costs its
  /// SharedContext::ApproxBytes: the prologue's slot tensors. For SeqFM
  /// those are the history rows' cross-view Q/K/V plus a few d-vectors,
  /// roughly 4*(3*n*d + 7*d) bytes for seq-len n and dim d: ~17 KiB at
  /// n=20, d=64 (~39 KiB at n=50), so 64 MiB caches ~3.8k contexts at n=20.
  /// Ignored when the model serves eagerly (no compiled program).
  size_t context_cache_bytes = 0;
};

/// One ranked catalog entry returned by Predictor::TopK.
struct ScoredItem {
  int32_t item = 0;
  float score = 0.0f;
};

/// Top-k of \p candidates by \p scores under the serving-wide total order
/// (serve::RankBefore): descending score, NaN scores last, score ties by
/// candidate **id** ascending, duplicate ids by position. Ordering ties by
/// id rather than by position in the candidates vector is what keeps
/// partitioned and whole rankings identical — a replica slice or job
/// boundary changes positions but never ids. k is clamped to
/// candidates.size(). Used by Predictor::TopK; LocalShardBackend (behind
/// BatchServer) and the Coordinator produce the same rankings through
/// per-job TopKHeaps + MergeSortedRuns over the same order.
std::vector<ScoredItem> SelectTopK(const std::vector<int32_t>& candidates,
                                   const std::vector<float>& scores, size_t k);

/// \brief Forward-only scoring front end: the serving counterpart of
/// core::Trainer.
///
/// A Predictor wraps a trained model (any core::Model) and scores candidate
/// catalogs without constructing autograd state. By default every model,
/// SeqFM included, is served by the compiled op program (ir::Engine): its
/// candidate-invariant prologue runs once per (user, history), optionally
/// memoized by a serve::ContextCache, and its one body per micro-batch of
/// any size. If the model does not compile, it falls back to eager forwards
/// under autograd::NoGradGuard — the parity oracle;
/// use_compiled_program = false selects that path directly. Every eager op
/// output is drawn from the worker thread's core::ScratchArena, so warm
/// eager requests make no tensor heap allocations either. The arena retains
/// each worker's per-chunk high-water mark for reuse across requests.
/// Scoring is read-only on the model and safe to call concurrently after
/// construction; ReloadCheckpoint is the one mutating call and requires the
/// caller to quiesce scoring first (BatchServer::ReloadCheckpoint does).
class Predictor {
 public:
  using ContextPtr = ContextCache::ContextPtr;

  /// Wraps an already-trained in-process model. Both pointers are borrowed
  /// and must outlive the Predictor.
  Predictor(core::Model* model, const data::BatchBuilder* builder,
            PredictorOptions options = {});

  /// Restores \p model from \p checkpoint_path (the model must be an
  /// nn::Module, which SeqFM and every registry baseline is), then wraps it.
  /// Returns the checkpoint's Status error on any load failure.
  static Result<std::unique_ptr<Predictor>> FromCheckpoint(
      core::Model* model, const data::BatchBuilder* builder,
      const std::string& checkpoint_path, PredictorOptions options = {});

  /// Scores each candidate object for the example's (user, history) context.
  /// scores[i] corresponds to candidates[i]. Bit-for-bit identical to
  /// scoring the same candidate batch through Model::Score.
  ///
  /// Precondition (AcceptsIds): ex.user in [0, num_users) and every history
  /// and candidate id in [0, num_objects). Nothing here re-checks it: an
  /// id past the end aborts the process in a gather, and one that lands in
  /// a neighbouring range of the shared embedding table silently scores
  /// another entity's row. BatchServer::TrySubmit rejects such requests.
  std::vector<float> ScoreCandidates(
      const data::SequenceExample& ex,
      const std::vector<int32_t>& candidates) const;

  /// True when the request meets ScoreCandidates' precondition: every id
  /// lies in the feature space the model was built for.
  bool AcceptsIds(const data::SequenceExample& ex,
                  const std::vector<int32_t>& candidates) const;

  /// Top-k of \p candidates by score (descending; ties broken by candidate
  /// id — see SelectTopK). k is clamped to candidates.size().
  std::vector<ScoredItem> TopK(const data::SequenceExample& ex,
                               const std::vector<int32_t>& candidates,
                               size_t k) const;

  /// Top-k over the full object catalog [0, num_objects). The identity
  /// catalog is materialized once at construction, not per request.
  std::vector<ScoredItem> TopKAll(const data::SequenceExample& ex,
                                  size_t k) const;

  /// Reloads model parameters from \p path (hot-swap to a newer training
  /// snapshot) and invalidates the context cache so no request is served
  /// from tensors of the old parameters. No scoring call may be in flight;
  /// serve through BatchServer::ReloadCheckpoint for a quiesced reload.
  ///
  /// After the recompile, the engine's slot ABI is re-verified against its
  /// prologue (ir::Engine::ReverifySlotAbi): a body whose slot wiring no
  /// longer matches what the prologue parks in contexts would read the
  /// wrong floats and serve garbage rankings without crashing. On a
  /// mismatch the reload still succeeds — the parameters are the new ones
  /// — but the compiled path is latched off (one warning) and scoring
  /// falls back to the eager path, which has no slot ABI to violate.
  Status ReloadCheckpoint(const std::string& path);

  /// Test hook: runs on the freshly compiled engine inside every
  /// ReloadCheckpoint, before the slot-ABI re-verification. Lets reload
  /// tests corrupt the slot wiring at exactly the moment a real
  /// miscompilation would introduce it; never set outside tests.
  void SetReloadCorruptionHookForTest(std::function<void(ir::Engine*)> hook) {
    reload_corruption_hook_ = std::move(hook);
  }

  /// Drops all cached contexts. Call after mutating model parameters by any
  /// route other than ReloadCheckpoint. No-op when caching is off.
  void InvalidateContextCache();

  // --- Fused-scoring building blocks (used by serve::BatchServer) ---------

  /// The (cached) SharedContext for this example: the compiled prologue's
  /// slot tensors. Null when the compiled path is inactive — never compiled,
  /// or latched off by a reload's slot-ABI check: score a null context
  /// through ScoreGenericRange.
  ContextPtr AcquireContext(const data::SequenceExample& ex) const;

  /// Scores candidates[begin, end) against \p ctx through the compiled body
  /// program, writing the end - begin results to out[0, end - begin).
  /// Taking a chunk-local output buffer (rather than a catalog-sized one
  /// indexed by begin) is what lets LocalShardBackend bound its memory to
  /// one chunk per pool thread. Sets up its own NoGradGuard, so it can run
  /// directly on pool worker threads. A latched engine or a context from a
  /// replaced engine scores the chunk through ScoreGenericRange instead, so
  /// results are always produced.
  void ScoreContextRange(const core::SharedContext& ctx,
                         const data::SequenceExample& ex,
                         const std::vector<int32_t>& candidates,
                         size_t begin, size_t end, float* out) const;

  /// Eager equivalent of ScoreContextRange (any model): one tape-free
  /// Model::Score over the chunk inside a core::ScratchScope.
  void ScoreGenericRange(const data::SequenceExample& ex,
                         const std::vector<int32_t>& candidates,
                         size_t begin, size_t end, float* out) const;

  /// True when requests will execute the compiled op program.
  bool compiled_active() const {
    return engine_ != nullptr &&
           !engine_failed_.load(std::memory_order_relaxed);
  }

  /// The compiled engine, or null when the model did not compile (or
  /// use_compiled_program is off). Stats feed bench_serving --json.
  const ir::Engine* engine() const { return engine_.get(); }

  /// Non-null iff the model compiled and context_cache_bytes > 0.
  const ContextCache* context_cache() const { return cache_.get(); }

  const PredictorOptions& options() const { return options_; }

 private:
  /// (Re)compiles the serving program from the model's CURRENT parameters.
  /// Called at construction and again whenever parameters change: the
  /// candidate-invariant split is verified against live parameter values, so
  /// a checkpoint load can shift which values are invariant. Resets
  /// engine_failed_. Requires quiesced scoring (same contract as
  /// ReloadCheckpoint).
  void CompileEngine();

  core::Model* model_;
  const data::BatchBuilder* builder_;
  PredictorOptions options_;
  /// Non-null iff the model compiled into a (prologue, body) op program.
  std::unique_ptr<ir::Engine> engine_;
  /// Latched when a checkpoint reload's ReverifySlotAbi fails; from then on
  /// every request takes the eager path. Memory order audit: relaxed is
  /// sufficient — the flag publishes no data, and both stores (the latch
  /// and CompileEngine's reset) run with scoring quiesced
  /// (ReloadCheckpoint contract).
  std::atomic<bool> engine_failed_{false};
  /// Test-only (SetReloadCorruptionHookForTest); empty in production.
  std::function<void(ir::Engine*)> reload_corruption_hook_;
  std::unique_ptr<ContextCache> cache_;
  /// [0, num_objects) — built once so TopKAll does not re-materialize it.
  std::vector<int32_t> full_catalog_;
};

}  // namespace serve
}  // namespace seqfm

#endif  // SEQFM_SERVE_PREDICTOR_H_
