#include "serve/predictor.h"

#include <algorithm>
#include <numeric>

#include "autograd/variable.h"
#include "core/scratch_arena.h"
#include "nn/module.h"
#include "serve/checkpoint.h"
#include "serve/shard.h"  // RankBefore, the serving-wide ranking order
#include "util/logging.h"
#include "util/thread_pool.h"

namespace seqfm {
namespace serve {

using autograd::Variable;

Predictor::Predictor(core::Model* model, const data::BatchBuilder* builder,
                     PredictorOptions options)
    : model_(model), builder_(builder), options_(options) {
  SEQFM_CHECK(model_ != nullptr) << "Predictor: null model";
  SEQFM_CHECK(builder_ != nullptr) << "Predictor: null batch builder";
  SEQFM_CHECK_GT(options_.micro_batch, 0u);
  CompileEngine();
  if (engine_ != nullptr && options_.context_cache_bytes > 0) {
    cache_ = std::make_unique<ContextCache>(options_.context_cache_bytes);
  }
  full_catalog_.resize(builder_->space().num_objects());
  std::iota(full_catalog_.begin(), full_catalog_.end(), 0);
}

void Predictor::CompileEngine() {
  engine_.reset();
  engine_failed_.store(false, std::memory_order_relaxed);
  if (!options_.use_compiled_program ||
      builder_->space().num_objects() < 2 ||
      builder_->space().num_users() < 1) {
    return;
  }
  // Trace the model into a static op program (src/ir/). Compile failure is
  // expected for untraceable models and simply keeps the eager paths; the
  // compiler has already self-checked any engine it returns.
  std::string error;
  engine_ = ir::Engine::Compile(model_, builder_,
                                builder_->space().num_objects(),
                                options_.micro_batch, &error);
  if (engine_ == nullptr) {
    SEQFM_LOG(Info) << "serving compiler: '" << model_->name()
                    << "' stays on the eager path (" << error << ")";
  }
}

Result<std::unique_ptr<Predictor>> Predictor::FromCheckpoint(
    core::Model* model, const data::BatchBuilder* builder,
    const std::string& checkpoint_path, PredictorOptions options) {
  SEQFM_CHECK(model != nullptr) << "Predictor::FromCheckpoint: null model";
  auto* module = dynamic_cast<nn::Module*>(model);
  if (module == nullptr) {
    return Status::InvalidArgument(
        "model '" + model->name() + "' is not an nn::Module; cannot restore");
  }
  SEQFM_RETURN_NOT_OK(Checkpoint::Load(module, checkpoint_path));
  return std::make_unique<Predictor>(model, builder, options);
}

Status Predictor::ReloadCheckpoint(const std::string& path) {
  auto* module = dynamic_cast<nn::Module*>(model_);
  if (module == nullptr) {
    return Status::InvalidArgument(
        "model '" + model_->name() + "' is not an nn::Module; cannot restore");
  }
  SEQFM_RETURN_NOT_OK(Checkpoint::Load(module, path));
  // The load swapped parameter tensors in place: every cached context now
  // describes the old weights, and the compiled program's candidate-
  // invariant split was verified against the old values (an untrained
  // all-zero weight column is candidate-invariant; its trained replacement
  // is not), so both are rebuilt. The caller has quiesced scoring.
  InvalidateContextCache();
  // Re-verify the slot ABI of the fresh engine before any request scores
  // through it: a body slot miswired against the prologue reads the wrong
  // context floats and serves garbage rankings without crashing — the one
  // compiled-path failure the compile self-checks cannot catch, because
  // each half verifies in isolation. A mismatch does not fail the reload
  // (the parameters ARE the new checkpoint); it latches the compiled path
  // off and serving falls back to the eager path.
  if (engine_ != nullptr) {
    if (reload_corruption_hook_) reload_corruption_hook_(engine_.get());
    const Status abi = engine_->ReverifySlotAbi();
    if (!abi.ok()) {
      SEQFM_LOG(Warning) << "serving compiler: slot ABI re-verification "
                            "failed after checkpoint reload; serving falls "
                            "back to the eager path: "
                         << abi.ToString();
      engine_failed_.store(true, std::memory_order_relaxed);
    }
  }
  return Status::OK();
}

void Predictor::InvalidateContextCache() {
  if (cache_) cache_->Invalidate();
  // Mutated parameters invalidate the compiled factorization for the same
  // reason they invalidate cached contexts; recompile from the new values.
  CompileEngine();
}

std::vector<float> Predictor::ScoreCandidates(
    const data::SequenceExample& ex,
    const std::vector<int32_t>& candidates) const {
  if (candidates.empty()) return {};
  // Null when the model serves eagerly; every chunk then scores eagerly.
  const ContextPtr ctx = AcquireContext(ex);
  const size_t total = candidates.size();
  const size_t chunk_size = options_.micro_batch;
  const size_t num_chunks = (total + chunk_size - 1) / chunk_size;
  std::vector<float> scores(total);

  // Safe to fan out from the first chunk: eval-mode Score is read-only for
  // every model (SeqFM materializes its cross mask in its constructor, and
  // the baselines build masks as per-call locals).
  util::ParallelFor(num_chunks, 1, [&](size_t c0, size_t c1) {
    for (size_t c = c0; c < c1; ++c) {
      const size_t begin = c * chunk_size;
      const size_t end = std::min(total, begin + chunk_size);
      if (ctx != nullptr) {
        ScoreContextRange(*ctx, ex, candidates, begin, end,
                          scores.data() + begin);
      } else {
        ScoreGenericRange(ex, candidates, begin, end, scores.data() + begin);
      }
    }
  });
  return scores;
}

bool Predictor::AcceptsIds(const data::SequenceExample& ex,
                           const std::vector<int32_t>& candidates) const {
  const data::FeatureSpace& space = builder_->space();
  auto is_object = [&](int32_t id) {
    return id >= 0 && static_cast<size_t>(id) < space.num_objects();
  };
  return ex.user >= 0 && static_cast<size_t>(ex.user) < space.num_users() &&
         std::all_of(ex.history.begin(), ex.history.end(), is_object) &&
         std::all_of(candidates.begin(), candidates.end(), is_object);
}

void Predictor::ScoreGenericRange(const data::SequenceExample& ex,
                                  const std::vector<int32_t>& candidates,
                                  size_t begin, size_t end, float* out) const {
  // Grad mode is thread-scoped, so the guard must live here — this runs
  // directly on pool workers (ScoreCandidates) and on BatchServer wave tasks.
  // The scratch scope routes every op output of the forward into the
  // worker's arena; results are copied into `out` before it closes.
  autograd::NoGradGuard no_grad;
  core::ScratchScope scratch;
  std::vector<const data::SequenceExample*> repeated(end - begin, &ex);
  std::vector<int32_t> override_chunk(candidates.begin() + begin,
                                      candidates.begin() + end);
  data::Batch batch = builder_->Build(repeated, &override_chunk);
  Variable scored = model_->Score(batch, /*training=*/false);
  SEQFM_CHECK_EQ(scored.value().size(), end - begin);
  const float* src = scored.value().data();
  for (size_t i = 0; i < end - begin; ++i) out[i] = src[i];
}

Predictor::ContextPtr Predictor::AcquireContext(
    const data::SequenceExample& ex) const {
  // Null, never an abort, when the engine is off (never compiled, or
  // latched by a reload's ABI check). Callers score a null context through
  // ScoreGenericRange.
  if (!compiled_active()) return nullptr;
  // Reuse the BatchBuilder for the index layout so padding and index mapping
  // are byte-identical to the taped path.
  const std::vector<const data::SequenceExample*> one = {&ex};
  const data::Batch base = builder_->Build(one);
  const int32_t user_index = base.static_ids[0];
  const size_t n = builder_->max_seq_len();
  std::vector<int32_t> dynamic_ids(
      base.dynamic_ids.begin(),
      base.dynamic_ids.begin() + static_cast<ptrdiff_t>(n));
  auto compute = [&]() -> ContextPtr {
    auto ctx = std::make_shared<core::SharedContext>();
    engine_->MakeContext(user_index, dynamic_ids, ctx.get());
    return ctx;
  };
  if (cache_) return cache_->GetOrCompute(user_index, dynamic_ids, compute);
  return compute();
}

void Predictor::ScoreContextRange(const core::SharedContext& ctx,
                                  const data::SequenceExample& ex,
                                  const std::vector<int32_t>& candidates,
                                  size_t begin, size_t end, float* out) const {
  if (compiled_active() && ctx.engine_uid == engine_->uid()) {
    std::string error;
    SEQFM_CHECK(engine_->ScoreRange(ctx, candidates, begin, end, out, &error))
        << error;
    return;
  }
  ScoreGenericRange(ex, candidates, begin, end, out);
}

std::vector<ScoredItem> SelectTopK(const std::vector<int32_t>& candidates,
                                   const std::vector<float>& scores,
                                   size_t k) {
  SEQFM_CHECK_EQ(candidates.size(), scores.size());
  k = std::min(k, candidates.size());
  std::vector<size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), size_t{0});
  // RankBefore is the one serving-wide order (score desc, NaN last, ties by
  // candidate id then position): ranking here through the same comparator
  // the per-job heaps and the cross-replica merge use is what makes
  // partitioned results bit-identical to this function. Ties used to break
  // by position, which silently diverged from any partitioned merge — see
  // serve/shard.h.
  std::partial_sort(order.begin(), order.begin() + static_cast<ptrdiff_t>(k),
                    order.end(), [&](size_t a, size_t b) {
                      return RankBefore({scores[a], candidates[a], a},
                                        {scores[b], candidates[b], b});
                    });
  std::vector<ScoredItem> top(k);
  for (size_t i = 0; i < k; ++i) {
    top[i] = {candidates[order[i]], scores[order[i]]};
  }
  return top;
}

std::vector<ScoredItem> Predictor::TopK(const data::SequenceExample& ex,
                                        const std::vector<int32_t>& candidates,
                                        size_t k) const {
  return SelectTopK(candidates, ScoreCandidates(ex, candidates), k);
}

std::vector<ScoredItem> Predictor::TopKAll(const data::SequenceExample& ex,
                                           size_t k) const {
  return TopK(ex, full_catalog_, k);
}

}  // namespace serve
}  // namespace seqfm
