// Lockdown suite for the serving compiler (src/ir/):
//   - trace round-trip: the recorded program's output tensor is bit-equal to
//     a fresh tape-free forward, for SeqFM and every registry baseline;
//   - pass units on hand-built programs: constant folding, dead-code
//     elimination, elementwise fusion, and arena planning (buffer reuse);
//   - row-block factoring on small hand-built models: mixed gathers split,
//     projected invariant blocks become slots, refuted blocks are demoted;
//   - masked-attention fusion: fires on SeqFM's constant causal and cross
//     masks and its unmasked static view, declines padding masks, masks
//     with holes and shared intermediates, and matches the chain it fuses;
//   - compiled-vs-eager serving parity: bit-for-bit equal scores for every
//     model (and SeqFM's padding-mask and single-view configurations) at
//     1/2 threads, 1/3 shards, both SIMD levels, body counts 2/3/4/7/8/9,
//     and a 2-object catalog;
//   - compiled cost at SeqFM's serving shape: GEMM work per candidate and
//     the count-256 body frame;
//   - compiled serving: zero operator-new calls in warm chunks, and NaN
//     history embeddings giving NaN scores exactly where eager does;
//   - compiler lifecycle: recompile on checkpoint reload, frame-cache sweep
//     across reloads, graceful eager fallback when the catalog is too small
//     to disambiguate probes, and loss-curve invariance (tracing/compiling
//     never perturbs training).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "baselines/registry.h"
#include "core/seqfm.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "ir/exec.h"
#include "ir/passes.h"
#include "ir/program.h"
#include "ir/trace.h"
#include "ir/verify.h"
#include "nn/module.h"
#include "serve/checkpoint.h"
#include "serve/predictor.h"
#include "serve/shard.h"
#include "tensor/kernels.h"
#include "util/cpu.h"
#include "util/thread_pool.h"

// ---------------------------------------------------------------------------
// Global operator new, replaced by a counting version for the
// allocation-free serving test; counting is off except inside that test.
// Every form is replaced, so no block pairs a sanitizer runtime's operator
// new with the free() below.
// ---------------------------------------------------------------------------

namespace {
std::atomic<bool> g_count_news{false};
std::atomic<size_t> g_news{0};

void* CountedNew(size_t n, size_t align) {
  if (g_count_news.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n == 0 ? 1 : n);
  } else if (posix_memalign(&p, align, n == 0 ? align : n) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedNewNothrow(size_t n, size_t align) noexcept {
  try {
    return CountedNew(n, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
}  // namespace

using std::align_val_t;
using std::nothrow_t;
void* operator new(size_t n) { return CountedNew(n, 0); }
void* operator new[](size_t n) { return CountedNew(n, 0); }
void* operator new(size_t n, align_val_t a) {
  return CountedNew(n, static_cast<size_t>(a));
}
void* operator new[](size_t n, align_val_t a) {
  return CountedNew(n, static_cast<size_t>(a));
}
void* operator new(size_t n, const nothrow_t&) noexcept {
  return CountedNewNothrow(n, 0);
}
void* operator new[](size_t n, const nothrow_t&) noexcept {
  return CountedNewNothrow(n, 0);
}
void* operator new(size_t n, align_val_t a, const nothrow_t&) noexcept {
  return CountedNewNothrow(n, static_cast<size_t>(a));
}
void* operator new[](size_t n, align_val_t a, const nothrow_t&) noexcept {
  return CountedNewNothrow(n, static_cast<size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t, align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, align_val_t, const nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, align_val_t, const nothrow_t&) noexcept {
  std::free(p);
}

namespace seqfm {
namespace {

// ---------------------------------------------------------------------------
// Shared fixtures (mirrors tests/serve_test.cc so parity claims line up)
// ---------------------------------------------------------------------------

const std::vector<std::string>& AllBaselines() {
  static const std::vector<std::string> kNames = {
      "FM",  "HOFM",    "NFM", "AFM", "Wide&Deep", "DeepCross",
      "xDeepFM", "DIN", "SASRec",  "TFM", "RRN"};
  return kNames;
}

constexpr size_t kSeqLen = 6;

data::FeatureSpace SmallSpace() { return data::FeatureSpace(5, 9); }

baselines::BaselineConfig SmallBaselineConfig() {
  baselines::BaselineConfig cfg;
  cfg.embedding_dim = 8;
  cfg.max_seq_len = kSeqLen;
  cfg.mlp_hidden = 8;
  cfg.keep_prob = 1.0f;
  cfg.num_blocks = 2;
  cfg.seed = 123;
  return cfg;
}

core::SeqFmConfig SmallSeqFmConfig() {
  core::SeqFmConfig cfg;
  cfg.embedding_dim = 8;
  cfg.max_seq_len = kSeqLen;
  cfg.ffn_layers = 2;
  cfg.keep_prob = 1.0f;
  cfg.seed = 321;
  return cfg;
}

/// SeqFM variants beyond the default: padding-aware masks (which the
/// compiler must not fuse) and each view on its own.
const std::vector<std::string>& SeqFmVariants() {
  static const std::vector<std::string> kNames = {
      "SeqFM/mask_padding_keys", "SeqFM/static_view", "SeqFM/dynamic_view",
      "SeqFM/cross_view"};
  return kNames;
}

std::unique_ptr<core::Model> MakeModelByName(const std::string& name,
                                             const data::FeatureSpace& space,
                                             uint64_t seed = 0) {
  if (name.rfind("SeqFM", 0) == 0) {
    core::SeqFmConfig cfg = SmallSeqFmConfig();
    if (seed != 0) cfg.seed = seed;
    const std::string variant = name.substr(name.find('/') + 1);
    if (variant == "mask_padding_keys") cfg.mask_padding_keys = true;
    if (variant.size() > 5 && variant.substr(variant.size() - 5) == "_view") {
      cfg.use_static_view = variant == "static_view";
      cfg.use_dynamic_view = variant == "dynamic_view";
      cfg.use_cross_view = variant == "cross_view";
    }
    return std::make_unique<core::SeqFm>(space, cfg);
  }
  baselines::BaselineConfig cfg = SmallBaselineConfig();
  if (seed != 0) cfg.seed = seed;
  return baselines::CreateBaseline(name, space, cfg).ValueOrDie();
}

std::vector<std::string> AllModels() {
  std::vector<std::string> names = AllBaselines();
  names.insert(names.begin(), "SeqFM");
  return names;
}

/// Deterministic requests covering empty, short, and overflowing histories.
std::vector<data::SequenceExample> TestExamples() {
  std::vector<data::SequenceExample> examples(4);
  examples[0] = {/*user=*/0, /*target=*/4, /*rating=*/1.0f,
                 {1, 2, 3, 0, 5, 6, 7, 8}};  // longer than kSeqLen
  examples[1] = {2, 6, 0.5f, {5}};
  examples[2] = {3, 0, 2.0f, {}};  // cold start
  examples[3] = {4, 8, 4.0f, {8, 7, 6}};
  return examples;
}

/// A serving-style batch: every sample shares \p ex's (user, history) and
/// sample i scores candidate \p candidates[i] — the batch shape ir::Trace
/// requires.
data::Batch ServingBatch(const data::BatchBuilder& builder,
                         const data::SequenceExample& ex,
                         const std::vector<int32_t>& candidates) {
  std::vector<const data::SequenceExample*> ptrs(candidates.size(), &ex);
  return builder.Build(ptrs, &candidates);
}

void ExpectBitEqual(const float* a, const float* b, size_t n,
                    const std::string& context) {
  EXPECT_EQ(std::memcmp(a, b, n * sizeof(float)), 0) << context;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// Trace round-trip: recorded program output == tape-free forward, bit-for-bit
// ---------------------------------------------------------------------------

class TraceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TraceTest, TracedProgramRoundTripsTheForward) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  auto model = MakeModelByName(GetParam(), space);
  const std::vector<int32_t> candidates = {0, 3, 7, 8};
  const data::Batch batch =
      ServingBatch(builder, TestExamples()[0], candidates);

  const ir::TraceResult traced = ir::Trace(model.get(), batch);
  ASSERT_TRUE(traced.ok()) << GetParam() << ": " << traced.error;
  const ir::Program& prog = traced.program;
  ASSERT_FALSE(prog.instrs.empty());
  ASSERT_NE(prog.output, ir::kNoValue);
  ASSERT_EQ(prog.values.size(), traced.value_nodes.size());
  ASSERT_EQ(prog.count, candidates.size());

  // Well-formed SSA: every id in range, every instruction's output recorded.
  for (const ir::Instr& ins : prog.instrs) {
    EXPECT_LT(ins.out, prog.values.size());
    for (uint32_t u : ins.in) EXPECT_LT(u, prog.values.size());
  }

  // The traced output tensor is the forward's output, bit-for-bit.
  autograd::NoGradGuard guard;
  const autograd::Variable eager = model->Score(batch, /*training=*/false);
  const tensor::Tensor& recorded = traced.value_nodes[prog.output]->value;
  ASSERT_EQ(recorded.size(), eager.value().size());
  ExpectBitEqual(recorded.data(), eager.value().data(), recorded.size(),
                 GetParam() + " trace round-trip");
}

INSTANTIATE_TEST_SUITE_P(AllModels, TraceTest,
                         ::testing::ValuesIn(AllModels()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Pass units on hand-built programs
// ---------------------------------------------------------------------------

/// Appends a kLocal value of \p shape and returns its id.
uint32_t AddLocal(ir::Program* p, std::vector<size_t> shape) {
  ir::Value v;
  v.kind = ir::ValueKind::kLocal;
  v.shape = std::move(shape);
  p->values.push_back(std::move(v));
  return static_cast<uint32_t>(p->values.size() - 1);
}

/// Appends a kConstant value holding \p t and returns its id.
uint32_t AddConstant(ir::Program* p, tensor::Tensor t) {
  ir::Value v;
  v.kind = ir::ValueKind::kConstant;
  v.shape.assign(t.shape().begin(), t.shape().end());
  v.index = static_cast<uint32_t>(p->constants.size());
  p->constants.push_back(std::move(t));
  p->values.push_back(std::move(v));
  return static_cast<uint32_t>(p->values.size() - 1);
}

void AddInstr(ir::Program* p, ir::OpKind kind, std::vector<uint32_t> in,
              uint32_t out, float alpha = 0.0f) {
  ir::Instr ins;
  ins.kind = kind;
  ins.in = std::move(in);
  ins.out = out;
  ins.alpha = alpha;
  p->instrs.push_back(std::move(ins));
}

TEST(PassTest, FoldConstantsEvaluatesConstantSubgraphs) {
  ir::Program p;
  const uint32_t c0 = AddConstant(&p, tensor::Tensor::Ones({2, 2}));
  const uint32_t c1 = AddConstant(&p, tensor::Tensor::Ones({2, 2}));
  const uint32_t sum = AddLocal(&p, {2, 2});
  const uint32_t half = AddLocal(&p, {2, 2});
  const uint32_t mask = AddLocal(&p, {2, 2});
  const uint32_t out = AddLocal(&p, {2, 2});
  AddInstr(&p, ir::OpKind::kAdd, {c0, c1}, sum);
  AddInstr(&p, ir::OpKind::kScale, {sum}, half, /*alpha=*/0.5f);
  AddInstr(&p, ir::OpKind::kHistoryMask, {}, mask);
  AddInstr(&p, ir::OpKind::kMul, {half, mask}, out);
  p.output = out;

  // Single in-order sweep folds the whole constant chain: once `sum` is
  // re-kinded to a constant, the scale's input is constant too. The mask and
  // the request-dependent product stay.
  EXPECT_EQ(ir::FoldConstants(&p), 2u);
  ASSERT_EQ(p.instrs.size(), 2u);
  ASSERT_EQ(p.values[half].kind, ir::ValueKind::kConstant);
  const tensor::Tensor& folded = p.constants[p.values[half].index];
  ASSERT_EQ(folded.size(), 4u);
  for (size_t i = 0; i < folded.size(); ++i) {
    EXPECT_EQ(folded.data()[i], 1.0f) << i;  // (1 + 1) * 0.5
  }
}

TEST(PassTest, FoldConstantsNeverFoldsProgramOutputsOrSlots) {
  // The executor resolves program outputs and slot outputs through the
  // frame's locals, so folding one to a constant would hand its consumer an
  // empty tensor. A constant-valued slot is reachable in practice: a
  // constant subgraph consumed by a candidate-variant op gets selected as a
  // slot by Factor. Regression for the verifier-surfaced pinning rule.
  ir::Program p;
  const uint32_t c0 = AddConstant(&p, tensor::Tensor::Ones({2, 2}));
  const uint32_t slot = AddLocal(&p, {2, 2});
  AddInstr(&p, ir::OpKind::kRelu, {c0}, slot);
  p.output = ir::kNoValue;
  p.slot_outputs = {slot};
  EXPECT_EQ(ir::FoldConstants(&p), 0u);
  ASSERT_EQ(p.instrs.size(), 1u);
  EXPECT_EQ(p.values[slot].kind, ir::ValueKind::kLocal);

  ir::Program q;
  const uint32_t d0 = AddConstant(&q, tensor::Tensor::Ones({2, 2}));
  const uint32_t out = AddLocal(&q, {2, 2});
  AddInstr(&q, ir::OpKind::kScale, {d0}, out, /*alpha=*/2.0f);
  q.output = out;
  EXPECT_EQ(ir::FoldConstants(&q), 0u);
  ASSERT_EQ(q.instrs.size(), 1u);
  EXPECT_EQ(q.values[out].kind, ir::ValueKind::kLocal);
}

TEST(PassTest, FoldConstantsLeavesRequestDependentOpsAlone) {
  ir::Program p;
  const uint32_t c0 = AddConstant(&p, tensor::Tensor::Ones({2, 2}));
  const uint32_t mask = AddLocal(&p, {2, 2});
  const uint32_t out = AddLocal(&p, {2, 2});
  // Synthesized masks depend on the request history even with no tensor
  // inputs; they must never fold.
  AddInstr(&p, ir::OpKind::kHistoryMask, {}, mask);
  AddInstr(&p, ir::OpKind::kMul, {c0, mask}, out);
  p.output = out;
  EXPECT_EQ(ir::FoldConstants(&p), 0u);
  EXPECT_EQ(p.instrs.size(), 2u);
}

TEST(PassTest, DeadCodeElimDropsValuesUnreachableFromOutputs) {
  ir::Program p;
  const uint32_t c0 = AddConstant(&p, tensor::Tensor::Ones({2, 2}));
  const uint32_t dead = AddLocal(&p, {2, 2});
  const uint32_t dead2 = AddLocal(&p, {2, 2});
  const uint32_t live = AddLocal(&p, {2, 2});
  AddInstr(&p, ir::OpKind::kRelu, {c0}, dead);
  AddInstr(&p, ir::OpKind::kSigmoid, {dead}, dead2);  // dead chain
  AddInstr(&p, ir::OpKind::kTanh, {c0}, live);
  p.output = live;

  EXPECT_EQ(ir::DeadCodeElim(&p), 2u);
  ASSERT_EQ(p.instrs.size(), 1u);
  EXPECT_EQ(p.instrs[0].kind, ir::OpKind::kTanh);
  EXPECT_EQ(p.instrs[0].out, live);
}

TEST(PassTest, DeadCodeElimKeepsSlotOutputsAlive) {
  ir::Program p;
  const uint32_t c0 = AddConstant(&p, tensor::Tensor::Ones({2, 2}));
  const uint32_t slot = AddLocal(&p, {2, 2});
  AddInstr(&p, ir::OpKind::kRelu, {c0}, slot);
  p.output = ir::kNoValue;  // prologue shape: only slot outputs matter
  p.slot_outputs = {slot};
  EXPECT_EQ(ir::DeadCodeElim(&p), 0u);
  EXPECT_EQ(p.instrs.size(), 1u);
}

TEST(PassTest, FuseElementwiseAliasesSingleConsumerChains) {
  ir::Program p;
  const uint32_t c0 = AddConstant(&p, tensor::Tensor::Ones({2, 2}));
  const uint32_t base = AddLocal(&p, {2, 2});
  const uint32_t relued = AddLocal(&p, {2, 2});
  const uint32_t scaled = AddLocal(&p, {2, 2});
  AddInstr(&p, ir::OpKind::kAdd, {c0, c0}, base);
  AddInstr(&p, ir::OpKind::kRelu, {base}, relued);
  AddInstr(&p, ir::OpKind::kScale, {relued}, scaled, 2.0f);
  p.output = scaled;

  EXPECT_EQ(ir::FuseElementwise(&p), 2u);
  EXPECT_EQ(p.values[relued].alias_of, base);
  EXPECT_EQ(p.values[scaled].alias_of, relued);
  EXPECT_EQ(p.values[base].alias_of, ir::kNoValue);

  // The whole aliased chain shares one planned buffer.
  ir::PlanArena(&p);
  EXPECT_EQ(p.values[relued].offset, p.values[base].offset);
  EXPECT_EQ(p.values[scaled].offset, p.values[base].offset);
  EXPECT_EQ(p.frame_floats, 16u);  // one 64-byte-aligned 2x2 block
}

TEST(PassTest, FuseElementwiseSkipsMultiConsumerInputs) {
  ir::Program p;
  const uint32_t c0 = AddConstant(&p, tensor::Tensor::Ones({2, 2}));
  const uint32_t base = AddLocal(&p, {2, 2});
  const uint32_t relued = AddLocal(&p, {2, 2});
  const uint32_t both = AddLocal(&p, {2, 2});
  AddInstr(&p, ir::OpKind::kAdd, {c0, c0}, base);
  AddInstr(&p, ir::OpKind::kRelu, {base}, relued);
  AddInstr(&p, ir::OpKind::kMul, {base, relued}, both);  // base read again
  p.output = both;
  // Running relu in place would corrupt base before the mul reads it.
  EXPECT_EQ(ir::FuseElementwise(&p), 0u);
  EXPECT_EQ(p.values[relued].alias_of, ir::kNoValue);
}

TEST(PassTest, PlanArenaReusesBuffersAcrossDisjointLifetimes) {
  ir::Program p;
  const uint32_t c0 = AddConstant(&p, tensor::Tensor::Ones({2, 2}));
  const uint32_t temp = AddLocal(&p, {2, 2});
  const uint32_t kept = AddLocal(&p, {2, 2});
  const uint32_t late = AddLocal(&p, {2, 2});
  AddInstr(&p, ir::OpKind::kRelu, {c0}, temp);     // temp: instrs [0, 1]
  AddInstr(&p, ir::OpKind::kAdd, {temp, c0}, kept);  // kept: live to the end
  AddInstr(&p, ir::OpKind::kSigmoid, {c0}, late);  // late: defined after temp
  AddInstr(&p, ir::OpKind::kMul, {kept, late}, kept);
  p.output = kept;

  ir::PlanArena(&p);
  // temp is dead before late is defined, so late reuses its block; kept
  // overlaps both and needs its own.
  EXPECT_EQ(p.values[late].offset, p.values[temp].offset);
  EXPECT_NE(p.values[kept].offset, p.values[temp].offset);
  EXPECT_EQ(p.frame_floats, 32u);  // two aligned 2x2 blocks, not three
}

// ---------------------------------------------------------------------------
// Row-block factoring on small hand-built models: Factor splits mixed
// gathers and pushes row-local ops through ConcatAxis1 so invariant row
// blocks reach the prologue, and demotes a block the tensors refute.
// ---------------------------------------------------------------------------

/// A three-op model whose stacked rows mix candidate and invariant blocks:
///   kUserCandidate:      gather static [user, candidate] rows (one mixed
///                        gather);
///   kCandidateHistory:   ConcatAxis1(gather [candidate], gather history).
/// Either way the rows are projected by one shared weight (BmmShared),
/// mean-pooled, and scored by a [d, 1] matmul.
class RowBlockModel : public core::Model {
 public:
  enum class Rows { kUserCandidate, kCandidateHistory };

  RowBlockModel(const data::FeatureSpace& space, Rows rows)
      : rows_(rows),
        static_table_(Param({space.static_dim(), kDim}, 0.1f)),
        dynamic_table_(Param({space.dynamic_dim(), kDim}, 0.2f)),
        w_(Param({kDim, kDim}, 0.3f)),
        p_(Param({kDim, 1}, 0.4f)) {}

  autograd::Variable Score(const data::Batch& batch, bool) override {
    const size_t b = batch.batch_size;
    autograd::Variable x;
    if (rows_ == Rows::kUserCandidate) {
      x = autograd::EmbeddingGather(static_table_, batch.static_ids, b,
                                    batch.n_static);
    } else {
      std::vector<int32_t> cand(b);
      for (size_t i = 0; i < b; ++i) {
        cand[i] = batch.static_ids[i * batch.n_static + 1];
      }
      x = autograd::ConcatAxis1(
          autograd::EmbeddingGather(static_table_, cand, b, 1),
          autograd::EmbeddingGather(dynamic_table_, batch.dynamic_ids, b,
                                    batch.n_seq));
    }
    autograd::Variable y = autograd::BmmShared(x, w_);
    return autograd::MatMul(
        autograd::MeanAxis1(y, static_cast<float>(y.dim(1))), p_);
  }

  std::vector<autograd::Variable> TrainableParameters() override {
    return {static_table_, dynamic_table_, w_, p_};
  }
  std::string name() const override { return "RowBlock"; }

 private:
  static constexpr size_t kDim = 4;

  static autograd::Variable Param(std::vector<size_t> shape, float phase) {
    tensor::Tensor t(shape);
    for (size_t i = 0; i < t.size(); ++i) {
      t.data()[i] = std::sin(phase + 0.7f * static_cast<float>(i));
    }
    return autograd::Variable::Leaf(std::move(t), /*requires_grad=*/true);
  }

  Rows rows_;
  autograd::Variable static_table_, dynamic_table_, w_, p_;
};

/// Traces \p model at counts 1 and 3 for the first test request.
struct RowBlockTraces {
  data::Batch b1, bC;
  ir::TraceResult t1, tC;
};

RowBlockTraces TraceRowBlockModel(core::Model* model,
                                  const data::BatchBuilder& builder) {
  RowBlockTraces r;
  const data::SequenceExample ex = TestExamples()[0];
  r.b1 = ServingBatch(builder, ex, {0});
  r.bC = ServingBatch(builder, ex, {0, 3, 7});
  r.t1 = ir::Trace(model, r.b1);
  r.tC = ir::Trace(model, r.bC);
  return r;
}

std::vector<const ir::Instr*> InstrsOfKind(const ir::Program& p,
                                           ir::OpKind kind) {
  std::vector<const ir::Instr*> found;
  for (const ir::Instr& ins : p.instrs) {
    if (ins.kind == kind) found.push_back(&ins);
  }
  return found;
}

/// The instruction of \p p defining \p value, or null.
const ir::Instr* DefOf(const ir::Program& p, uint32_t value) {
  for (const ir::Instr& ins : p.instrs) {
    if (ins.out == value) return &ins;
  }
  return nullptr;
}

TEST(PassTest, FactorSplitsAMixedUserCandidateGather) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  RowBlockModel model(space, RowBlockModel::Rows::kUserCandidate);
  RowBlockTraces r = TraceRowBlockModel(&model, builder);
  ASSERT_TRUE(r.t1.ok() && r.tC.ok()) << r.t1.error << r.tC.error;
  const auto traced =
      InstrsOfKind(r.tC.program, ir::OpKind::kEmbeddingGather);
  ASSERT_EQ(traced.size(), 1u);
  ASSERT_EQ(traced[0]->binding.cols, (std::vector<uint32_t>{0, 1}));

  const ir::FactorResult f = ir::Factor(r.t1, r.tC, r.b1, r.bC);
  ASSERT_TRUE(f.ok()) << f.error;
  // One gather per class: the user row in the prologue, the candidate row
  // in the body.
  const auto pro = InstrsOfKind(f.prologue, ir::OpKind::kEmbeddingGather);
  const auto body = InstrsOfKind(f.body, ir::OpKind::kEmbeddingGather);
  ASSERT_EQ(pro.size(), 1u);
  ASSERT_EQ(body.size(), 1u);
  EXPECT_EQ(pro[0]->binding.source, ir::IndexSource::kStatic);
  EXPECT_EQ(pro[0]->binding.cols, (std::vector<uint32_t>{0}));
  EXPECT_EQ(body[0]->binding.source, ir::IndexSource::kStatic);
  EXPECT_EQ(body[0]->binding.cols, (std::vector<uint32_t>{1}));
  // The user row's projection is hoisted too; the body projects one row.
  ASSERT_EQ(InstrsOfKind(f.prologue, ir::OpKind::kBmmShared).size(), 1u);
  const auto body_bmm = InstrsOfKind(f.body, ir::OpKind::kBmmShared);
  ASSERT_EQ(body_bmm.size(), 1u);
  EXPECT_EQ(f.body.values[body_bmm[0]->in[0]].shape,
            (std::vector<size_t>{3, 1, 4}));
}

TEST(PassTest, FactorHoistsTheProjectedHistoryBlockIntoASlot) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  RowBlockModel model(space, RowBlockModel::Rows::kCandidateHistory);
  RowBlockTraces r = TraceRowBlockModel(&model, builder);
  ASSERT_TRUE(r.t1.ok() && r.tC.ok()) << r.t1.error << r.tC.error;
  const ir::FactorResult f = ir::Factor(r.t1, r.tC, r.b1, r.bC);
  ASSERT_TRUE(f.ok()) << f.error;

  // The prologue projects the history block: bmm_shared over the dynamic
  // gather, its output a slot.
  const auto pro_bmm = InstrsOfKind(f.prologue, ir::OpKind::kBmmShared);
  ASSERT_EQ(pro_bmm.size(), 1u);
  const ir::Instr* gather = DefOf(f.prologue, pro_bmm[0]->in[0]);
  ASSERT_NE(gather, nullptr);
  EXPECT_EQ(gather->binding.source, ir::IndexSource::kDynamic);
  const auto& slots = f.prologue.slot_outputs;
  const auto it = std::find(slots.begin(), slots.end(), pro_bmm[0]->out);
  ASSERT_NE(it, slots.end());

  // Its reference tensor is rows [1, 1 + n) of the traced projection.
  const ir::Instr* traced_bmm =
      InstrsOfKind(r.t1.program, ir::OpKind::kBmmShared)[0];
  const tensor::Tensor& whole = r.t1.value_nodes[traced_bmm->out]->value;
  const tensor::Tensor& ref = f.slot_refs[it - slots.begin()];
  ASSERT_EQ(ref.size(), kSeqLen * 4);
  ExpectBitEqual(ref.data(), whole.data() + 4, ref.size(), "history block");

  // The body projects only the candidate row and concatenates the slot
  // straight in (batch-1 operand, no tiled copy).
  const auto body_bmm = InstrsOfKind(f.body, ir::OpKind::kBmmShared);
  ASSERT_EQ(body_bmm.size(), 1u);
  EXPECT_EQ(f.body.values[body_bmm[0]->in[0]].shape,
            (std::vector<size_t>{3, 1, 4}));
  EXPECT_TRUE(InstrsOfKind(f.body, ir::OpKind::kTileRows).empty());
  ir::VerifyOptions body_opts;
  body_opts.allow_slots = true;
  body_opts.num_slots = slots.size();
  const Status st = ir::Verify(f.body, body_opts);
  EXPECT_TRUE(st.ok()) << st.message();
}

TEST(PassTest, FactorDemotesARowBlockTheTracedTensorsRefute) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  RowBlockModel model(space, RowBlockModel::Rows::kCandidateHistory);
  RowBlockTraces r = TraceRowBlockModel(&model, builder);
  ASSERT_TRUE(r.t1.ok() && r.tC.ok()) << r.t1.error << r.tC.error;

  // Perturb candidate 1's first history row of the count-C projection: that
  // block's count-C tensor is no longer its count-1 tensor tiled.
  const ir::Instr* traced_bmm =
      InstrsOfKind(r.tC.program, ir::OpKind::kBmmShared)[0];
  tensor::Tensor& y = r.tC.value_nodes[traced_bmm->out]->value;
  y.data()[(1 * (1 + kSeqLen) + 1) * 4] += 1.0f;

  const ir::FactorResult f = ir::Factor(r.t1, r.tC, r.b1, r.bC);
  ASSERT_TRUE(f.ok()) << f.error;
  // The history projection is back in the body, over the tiled history
  // gather; the prologue keeps only the gather itself.
  EXPECT_TRUE(InstrsOfKind(f.prologue, ir::OpKind::kBmmShared).empty());
  const auto body_bmm = InstrsOfKind(f.body, ir::OpKind::kBmmShared);
  ASSERT_EQ(body_bmm.size(), 2u);
  EXPECT_EQ(f.body.values[body_bmm[1]->in[0]].shape,
            (std::vector<size_t>{3, kSeqLen, 4}));
  ASSERT_EQ(f.prologue.slot_outputs.size(), 1u);
  const ir::Instr* slot_def =
      DefOf(f.prologue, f.prologue.slot_outputs[0]);
  ASSERT_NE(slot_def, nullptr);
  EXPECT_EQ(slot_def->kind, ir::OpKind::kEmbeddingGather);
}

// ---------------------------------------------------------------------------
// FuseMaskedAttention: which attention chains become one masked_attention
// ---------------------------------------------------------------------------

/// SeqFM at the small test shape, traced at counts 1 and 3 and factored,
/// with both halves through FoldConstants and DeadCodeElim: what
/// FuseMaskedAttention sees in the compile pipeline.
ir::FactorResult FactoredSeqFm(const core::SeqFmConfig& cfg) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, cfg.max_seq_len);
  core::SeqFm model(space, cfg);
  const data::SequenceExample ex = TestExamples()[0];
  const data::Batch b1 = ServingBatch(builder, ex, {0});
  const data::Batch bC = ServingBatch(builder, ex, {0, 3, 7});
  const ir::TraceResult t1 = ir::Trace(&model, b1);
  const ir::TraceResult tC = ir::Trace(&model, bC);
  EXPECT_TRUE(t1.ok() && tC.ok()) << t1.error << tC.error;
  ir::FactorResult f = ir::Factor(t1, tC, b1, bC);
  EXPECT_TRUE(f.ok()) << f.error;
  for (ir::Program* half : {&f.prologue, &f.body}) {
    ir::FoldConstants(half);
    ir::DeadCodeElim(half);
  }
  return f;
}

std::vector<uint32_t> RepeatRange(size_t rows, uint32_t begin, uint32_t end) {
  std::vector<uint32_t> r;
  for (size_t i = 0; i < rows; ++i) r.insert(r.end(), {begin, end});
  return r;
}

TEST(PassTest, FuseMaskedAttentionFiresOnSeqFmsConstantMasks) {
  ir::FactorResult f = FactoredSeqFm(SmallSeqFmConfig());
  ASSERT_TRUE(f.ok());
  ir::VerifyOptions body_opts;
  body_opts.allow_slots = true;
  body_opts.num_slots = f.prologue.slot_outputs.size();

  // Prologue: the dynamic view under the constant causal mask.
  EXPECT_EQ(ir::FuseMaskedAttention(&f.prologue), 1u);
  auto att = InstrsOfKind(f.prologue, ir::OpKind::kMaskedAttention);
  ASSERT_EQ(att.size(), 1u);
  std::vector<uint32_t> causal;
  for (uint32_t r = 0; r < kSeqLen; ++r) {
    causal.insert(causal.end(), {0, r + 1});
  }
  EXPECT_EQ(att[0]->ranges, causal);
  EXPECT_EQ(att[0]->parts, (std::array<uint32_t, 3>{1, 1, 1}));
  EXPECT_EQ(f.prologue.values[att[0]->in.back()].kind,
            ir::ValueKind::kConstant);
  Status st = ir::Verify(f.prologue);
  EXPECT_TRUE(st.ok()) << st.message();

  // Body: the unmasked static view over (user, candidate), and the cross
  // view, where static rows see only history columns and history rows only
  // static ones. Each Q/K/V is read as its (user slot, candidate block
  // [, history slot]) row blocks: no concat is left to copy them.
  EXPECT_EQ(ir::FuseMaskedAttention(&f.body), 2u);
  att = InstrsOfKind(f.body, ir::OpKind::kMaskedAttention);
  ASSERT_EQ(att.size(), 2u);
  const uint32_t n = kSeqLen + 2;
  EXPECT_EQ(att[0]->ranges, RepeatRange(2, 0, 2));
  EXPECT_EQ(att[0]->parts, (std::array<uint32_t, 3>{2, 2, 2}));
  EXPECT_EQ(att[0]->in.size(), 6u);  // no mask operand
  std::vector<uint32_t> cross = RepeatRange(2, 2, n);
  const std::vector<uint32_t> dyn_rows = RepeatRange(kSeqLen, 0, 2);
  cross.insert(cross.end(), dyn_rows.begin(), dyn_rows.end());
  EXPECT_EQ(att[1]->ranges, cross);
  EXPECT_EQ(att[1]->parts, (std::array<uint32_t, 3>{3, 3, 3}));
  for (ir::OpKind gone : {ir::OpKind::kBmm, ir::OpKind::kMaskedSoftmax,
                          ir::OpKind::kConcatAxis1}) {
    EXPECT_TRUE(InstrsOfKind(f.body, gone).empty()) << ir::OpKindName(gone);
  }
  st = ir::Verify(f.body, body_opts);
  EXPECT_TRUE(st.ok()) << st.message();
}

TEST(PassTest, FuseMaskedAttentionDeclinesRequestSynthesizedMasks) {
  core::SeqFmConfig cfg = SmallSeqFmConfig();
  cfg.mask_padding_keys = true;
  ir::FactorResult f = FactoredSeqFm(cfg);
  ASSERT_TRUE(f.ok());
  // The dynamic view's padding mask and the cross view's padding-aware mask
  // depend on the request's history; only the unmasked static view fuses.
  EXPECT_EQ(ir::FuseMaskedAttention(&f.prologue), 0u);
  EXPECT_EQ(InstrsOfKind(f.prologue, ir::OpKind::kMaskedSoftmax).size(), 1u);
  EXPECT_EQ(ir::FuseMaskedAttention(&f.body), 1u);
  const auto softmax = InstrsOfKind(f.body, ir::OpKind::kMaskedSoftmax);
  ASSERT_EQ(softmax.size(), 1u);
  // The cross view's mask: the prologue's padding-aware mask, tiled.
  const ir::Instr* tile = DefOf(f.body, softmax[0]->in[1]);
  ASSERT_NE(tile, nullptr);
  ASSERT_EQ(tile->kind, ir::OpKind::kTileRows);
  const ir::Value& slot = f.body.values[tile->in[0]];
  ASSERT_EQ(slot.kind, ir::ValueKind::kSlot);
  const ir::Instr* mask =
      DefOf(f.prologue, f.prologue.slot_outputs[slot.index]);
  ASSERT_NE(mask, nullptr);
  EXPECT_EQ(mask->kind, ir::OpKind::kCrossPaddingMask);
}

/// Q, K, V constants [2, n, 3] → bmm(Q, K^T) → scale(0.5) →
/// masked_softmax(·, mask) → bmm(·, V), the program output.
struct AttentionChain {
  ir::Program p;
  uint32_t scores = 0, probs = 0;
};

AttentionChain HandBuiltAttention(size_t n, const tensor::Tensor* mask) {
  AttentionChain c;
  ir::Program& p = c.p;
  uint32_t qkv[3];
  for (size_t j = 0; j < 3; ++j) {
    tensor::Tensor t({2, n, 3});
    for (size_t i = 0; i < t.size(); ++i) {
      t.data()[i] = std::sin(0.37f * static_cast<float>(i) + j);
    }
    qkv[j] = AddConstant(&p, std::move(t));
  }
  c.scores = AddLocal(&p, {2, n, n});
  AddInstr(&p, ir::OpKind::kBmm, {qkv[0], qkv[1]}, c.scores);
  p.instrs.back().trans_b = true;
  const uint32_t scaled = AddLocal(&p, {2, n, n});
  AddInstr(&p, ir::OpKind::kScale, {c.scores}, scaled, /*alpha=*/0.5f);
  std::vector<uint32_t> softmax_in = {scaled};
  if (mask != nullptr) softmax_in.push_back(AddConstant(&p, *mask));
  c.probs = AddLocal(&p, {2, n, n});
  AddInstr(&p, ir::OpKind::kMaskedSoftmax, softmax_in, c.probs);
  const uint32_t out = AddLocal(&p, {2, n, 3});
  AddInstr(&p, ir::OpKind::kBmm, {c.probs, qkv[2]}, out);
  p.output = out;
  return c;
}

/// [n, n] mask open on columns [begin[r], end[r]) of row r.
tensor::Tensor BandMask(const std::vector<std::pair<size_t, size_t>>& open) {
  const size_t n = open.size();
  tensor::Tensor m({n, n});
  for (size_t r = 0; r < n; ++r) {
    for (size_t j = 0; j < n; ++j) {
      const bool in = j >= open[r].first && j < open[r].second;
      m.at(r, j) = in ? 0.0f : -std::numeric_limits<float>::infinity();
    }
  }
  return m;
}

/// Evaluates \p p instruction by instruction through ir::EvalPure.
tensor::Tensor Interpret(const ir::Program& p) {
  std::vector<tensor::Tensor> vals(p.values.size());
  for (size_t v = 0; v < p.values.size(); ++v) {
    if (p.values[v].kind == ir::ValueKind::kConstant) {
      vals[v] = p.constants[p.values[v].index];
    }
  }
  for (const ir::Instr& ins : p.instrs) {
    std::vector<const tensor::Tensor*> in;
    for (uint32_t u : ins.in) in.push_back(&vals[u]);
    vals[ins.out] = tensor::Tensor::Uninitialized(p.values[ins.out].shape);
    EXPECT_TRUE(ir::EvalPure(ins, in, &vals[ins.out]));
  }
  return vals[p.output];
}

TEST(PassTest, FuseMaskedAttentionMatchesTheChainOnAHandBuiltBand) {
  const tensor::Tensor mask =
      BandMask({{0, 1}, {0, 0}, {1, 4}, {2, 5}, {4, 5}});
  AttentionChain c = HandBuiltAttention(5, &mask);
  const tensor::Tensor want = Interpret(c.p);
  ASSERT_EQ(ir::FuseMaskedAttention(&c.p), 1u);
  ASSERT_EQ(c.p.instrs.size(), 1u);
  EXPECT_EQ(c.p.instrs[0].ranges,
            (std::vector<uint32_t>{0, 1, 0, 0, 1, 4, 2, 5, 4, 5}));
  const Status st = ir::Verify(c.p);
  ASSERT_TRUE(st.ok()) << st.message();
  const tensor::Tensor got = Interpret(c.p);
  ExpectBitEqual(want.data(), got.data(), want.size(), "band attention");
}

TEST(PassTest, FuseMaskedAttentionDeclinesAMaskRowWithAHole) {
  tensor::Tensor mask = BandMask({{0, 4}, {0, 4}, {0, 4}, {0, 4}});
  mask.at(2, 1) = -std::numeric_limits<float>::infinity();  // 0 -inf 0 0
  AttentionChain c = HandBuiltAttention(4, &mask);
  EXPECT_EQ(ir::FuseMaskedAttention(&c.p), 0u);
  EXPECT_EQ(c.p.instrs.size(), 4u);
}

TEST(PassTest, FuseMaskedAttentionDeclinesAChainValueWithASecondReader) {
  for (bool second_reader_on_scores : {true, false}) {
    AttentionChain c = HandBuiltAttention(4, nullptr);
    const uint32_t tapped = second_reader_on_scores ? c.scores : c.probs;
    const uint32_t sum = AddLocal(&c.p, {2, 4, 1});
    AddInstr(&c.p, ir::OpKind::kSumLast, {tapped}, sum);
    c.p.slot_outputs.push_back(sum);  // keeps the second reader live
    EXPECT_EQ(ir::FuseMaskedAttention(&c.p), 0u)
        << (second_reader_on_scores ? "scores" : "probs");
    EXPECT_TRUE(InstrsOfKind(c.p, ir::OpKind::kMaskedAttention).empty());
  }
}

// ---------------------------------------------------------------------------
// Verifier: hand-corrupted programs are rejected with precise diagnostics.
// Each test takes a valid program, breaks exactly one invariant, and asserts
// ir::Verify names the broken rule — the lockdown that keeps a future pass
// bug from shipping a structurally-wrong program to the executor.
// ---------------------------------------------------------------------------

/// c0 -> relu -> a; (a, c0) -> add -> b; output b. Verifies clean.
ir::Program SmallValidProgram() {
  ir::Program p;
  const uint32_t c0 = AddConstant(&p, tensor::Tensor::Ones({2, 4}));
  const uint32_t a = AddLocal(&p, {2, 4});
  const uint32_t b = AddLocal(&p, {2, 4});
  AddInstr(&p, ir::OpKind::kRelu, {c0}, a);
  AddInstr(&p, ir::OpKind::kAdd, {a, c0}, b);
  p.output = b;
  return p;
}

void ExpectVerifyRejects(const ir::Program& p, const std::string& substr,
                         const ir::VerifyOptions& opts = {}) {
  const Status st = ir::Verify(p, opts);
  ASSERT_FALSE(st.ok()) << "verifier accepted a program that should fail: "
                        << substr;
  EXPECT_NE(st.message().find(substr), std::string::npos)
      << "diagnostic \"" << st.message() << "\" lacks \"" << substr << "\"";
}

TEST(VerifierTest, AcceptsAWellFormedProgram) {
  const ir::Program p = SmallValidProgram();
  const Status st = ir::Verify(p);
  EXPECT_TRUE(st.ok()) << st.message();
}

TEST(VerifierTest, RejectsUseBeforeDefinition) {
  ir::Program p = SmallValidProgram();
  // The add now runs first and reads %1 (relu's output) one instruction
  // before it exists.
  std::swap(p.instrs[0], p.instrs[1]);
  ExpectVerifyRejects(p, "before its definition");
}

TEST(VerifierTest, RejectsDoubleDefinition) {
  ir::Program p = SmallValidProgram();
  // Second write to the relu output: SSA violation.
  AddInstr(&p, ir::OpKind::kSigmoid, {0}, 1);
  ExpectVerifyRejects(p, "defined twice");
}

TEST(VerifierTest, RejectsConstantShapeDisagreement) {
  ir::Program p = SmallValidProgram();
  p.values[0].shape = {3, 3};  // tensor holds 8 floats, shape now claims 9
  ExpectVerifyRejects(p, "disagrees with declared shape");
}

TEST(VerifierTest, RejectsSlotValueWhereSlotsAreNotAllowed) {
  ir::Program p = SmallValidProgram();
  ir::Value slot;
  slot.kind = ir::ValueKind::kSlot;
  slot.shape = {2, 4};
  slot.index = 0;
  p.values.push_back(slot);
  const uint32_t sid = static_cast<uint32_t>(p.values.size() - 1);
  p.instrs[1].in[1] = sid;  // add now reads the slot instead of c0
  // Prologue-style verification (no slots) must reject...
  ExpectVerifyRejects(p, "takes no slots");
  // ...an in-range slot under body options is fine...
  ir::VerifyOptions body;
  body.allow_slots = true;
  body.num_slots = 1;
  const Status ok = ir::Verify(p, body);
  EXPECT_TRUE(ok.ok()) << ok.message();
  // ...and an out-of-range slot index is named precisely.
  p.values[sid].index = 7;
  ExpectVerifyRejects(p, "slot index 7 out of range", body);
}

TEST(VerifierTest, RejectsOutOfRangeBindingColumn) {
  ir::Program p;
  p.count = 2;
  p.n_static = 2;  // static index row has columns {0, 1}
  const uint32_t table = AddConstant(&p, tensor::Tensor::Ones({5, 3}));
  const uint32_t rows = AddLocal(&p, {2, 1, 3});
  AddInstr(&p, ir::OpKind::kEmbeddingGather, {table}, rows);
  p.instrs.back().binding.source = ir::IndexSource::kStatic;
  p.instrs.back().binding.cols = {0};
  p.instrs.back().binding.deltas = {0};
  p.output = rows;
  const Status ok = ir::Verify(p);
  ASSERT_TRUE(ok.ok()) << ok.message();

  p.instrs.back().binding.cols = {5};  // reads past the synthesized row
  ExpectVerifyRejects(p, "binding column 5 (position 0) exceeds source width 2");
}

TEST(VerifierTest, RejectsIllegalFusionAlias) {
  ir::Program p = SmallValidProgram();
  // kAdd is not a pointwise in-place op: writing its output over in[0]
  // while also reading in[1] would clobber mid-instruction.
  p.values[p.output].alias_of = 1;
  ExpectVerifyRejects(p, "illegal fusion alias");
}

TEST(VerifierTest, RejectsReadAfterInPlaceOverwrite) {
  ir::Program p;
  const uint32_t c0 = AddConstant(&p, tensor::Tensor::Ones({2, 4}));
  const uint32_t a = AddLocal(&p, {2, 4});
  const uint32_t scaled = AddLocal(&p, {2, 4});
  const uint32_t sum = AddLocal(&p, {2, 4});
  AddInstr(&p, ir::OpKind::kRelu, {c0}, a);
  AddInstr(&p, ir::OpKind::kScale, {a}, scaled, /*alpha=*/2.0f);
  p.values[scaled].alias_of = a;  // legal in-place scale...
  AddInstr(&p, ir::OpKind::kAdd, {a, c0}, sum);  // ...but %a's bits are gone
  p.output = sum;
  ExpectVerifyRejects(p, "overwritten in place");
}

TEST(VerifierTest, RejectsDanglingSlotOutput) {
  ir::Program p = SmallValidProgram();
  p.slot_outputs.push_back(AddLocal(&p, {2, 4}));  // never defined
  ExpectVerifyRejects(p, "dangling slot");
}

TEST(VerifierTest, RejectsOverlappingLiveArenaRanges) {
  ir::Program p;
  const uint32_t c0 = AddConstant(&p, tensor::Tensor::Ones({2, 4}));
  const uint32_t a = AddLocal(&p, {2, 4});
  const uint32_t b = AddLocal(&p, {2, 4});
  const uint32_t sum = AddLocal(&p, {2, 4});
  AddInstr(&p, ir::OpKind::kRelu, {c0}, a);
  AddInstr(&p, ir::OpKind::kSigmoid, {c0}, b);
  AddInstr(&p, ir::OpKind::kAdd, {a, b}, sum);  // a and b live together
  p.output = sum;
  ir::PlanArena(&p);
  ir::VerifyOptions arena;
  arena.check_arena = true;
  const Status ok = ir::Verify(p, arena);
  ASSERT_TRUE(ok.ok()) << ok.message();

  p.values[b].offset = p.values[a].offset;  // sabotage the plan
  ExpectVerifyRejects(p, "overlap", arena);
}

TEST(VerifierTest, RejectsAFusedAttentionRangeTheMaskDoesNotDerive) {
  const tensor::Tensor mask = BandMask({{0, 2}, {1, 3}, {0, 3}});
  AttentionChain c = HandBuiltAttention(3, &mask);
  ASSERT_EQ(ir::FuseMaskedAttention(&c.p), 1u);
  ASSERT_TRUE(ir::Verify(c.p).ok());

  ir::Program widened = c.p;
  widened.instrs[0].ranges[3] = 2;  // row 1: [1, 3) -> [1, 2)
  ExpectVerifyRejects(widened,
                      "row 1 key range [1, 2) is not the mask's open columns "
                      "[1, 3)");

  ir::Program hole = c.p;  // the mask no longer derives contiguous ranges
  hole.constants[hole.values[hole.instrs[0].in.back()].index].at(2, 1) =
      -std::numeric_limits<float>::infinity();
  ExpectVerifyRejects(hole, "not one contiguous range");

  ir::Program short_ranges = c.p;
  short_ranges.instrs[0].ranges.resize(4);
  ExpectVerifyRejects(short_ranges, "2 key ranges for 3 query rows");
}

// ---------------------------------------------------------------------------
// Verifier x pipeline: for every model, each pass of the default pipeline
// leaves both factored halves verifier-clean (the same sequence — and the
// same options — Engine::CompileCount checks after every stage).
// ---------------------------------------------------------------------------

class VerifierPipelineTest : public ::testing::TestWithParam<std::string> {};

TEST_P(VerifierPipelineTest, EveryPassLeavesTheProgramVerifierClean) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  auto model = MakeModelByName(GetParam(), space);
  const data::SequenceExample ex = TestExamples()[0];
  const data::Batch b1 = ServingBatch(builder, ex, {0});
  const data::Batch bC = ServingBatch(builder, ex, {0, 3, 7, 8});

  const ir::TraceResult t1 = ir::Trace(model.get(), b1);
  const ir::TraceResult tC = ir::Trace(model.get(), bC);
  ASSERT_TRUE(t1.ok()) << GetParam() << ": " << t1.error;
  ASSERT_TRUE(tC.ok()) << GetParam() << ": " << tC.error;
  Status st = ir::Verify(t1.program);
  EXPECT_TRUE(st.ok()) << GetParam() << " trace(1): " << st.message();
  st = ir::Verify(tC.program);
  EXPECT_TRUE(st.ok()) << GetParam() << " trace(C): " << st.message();

  ir::FactorResult f = ir::Factor(t1, tC, b1, bC);
  ASSERT_TRUE(f.ok()) << GetParam() << ": " << f.error;

  ir::VerifyOptions prologue_opts;
  ir::VerifyOptions body_opts;
  body_opts.allow_slots = true;
  body_opts.num_slots = f.prologue.slot_outputs.size();
  for (ir::Program* half : {&f.prologue, &f.body}) {
    const bool is_body = half == &f.body;
    ir::VerifyOptions opts = is_body ? body_opts : prologue_opts;
    const std::string who =
        GetParam() + (is_body ? " body " : " prologue ");
    st = ir::Verify(*half, opts);
    EXPECT_TRUE(st.ok()) << who << "after factor: " << st.message();
    ir::FoldConstants(half);
    st = ir::Verify(*half, opts);
    EXPECT_TRUE(st.ok()) << who << "after fold_constants: " << st.message();
    ir::DeadCodeElim(half);
    st = ir::Verify(*half, opts);
    EXPECT_TRUE(st.ok()) << who << "after dead_code_elim: " << st.message();
    ir::FuseMaskedAttention(half);
    st = ir::Verify(*half, opts);
    EXPECT_TRUE(st.ok()) << who << "after fuse_masked_attention: "
                         << st.message();
    ir::FuseElementwise(half);
    st = ir::Verify(*half, opts);
    EXPECT_TRUE(st.ok()) << who << "after fuse_elementwise: " << st.message();
    ir::PlanArena(half);
    opts.check_arena = true;
    st = ir::Verify(*half, opts);
    EXPECT_TRUE(st.ok()) << who << "after plan_arena: " << st.message();
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, VerifierPipelineTest,
                         ::testing::ValuesIn(AllModels()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Compiled-vs-eager serving parity: every model, threads x shards x SIMD
// ---------------------------------------------------------------------------

class CompiledParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CompiledParityTest, CompiledServingMatchesEagerBitForBit) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  auto model = MakeModelByName(GetParam(), space);

  serve::PredictorOptions compiled_opts;
  compiled_opts.micro_batch = 4;  // several chunks (and body counts) per scan
  compiled_opts.context_cache_bytes = 1 << 20;
  serve::Predictor compiled(model.get(), &builder, compiled_opts);
  ASSERT_TRUE(compiled.compiled_active())
      << GetParam() << " must compile into an op program";
  ASSERT_NE(compiled.engine(), nullptr);
  // Sequence models gather the history separately from the candidate, so
  // factoring must hoist a non-trivial candidate-invariant prologue. The
  // FM family embeds one unified (user, candidate, history) row through a
  // single candidate-dependent gather — zero slots is correct there.
  const bool sequence_model =
      GetParam().rfind("SeqFM", 0) == 0 || GetParam() == "DIN" ||
      GetParam() == "SASRec" ||
      GetParam() == "TFM" || GetParam() == "RRN";
  if (sequence_model) {
    EXPECT_GT(compiled.engine()->num_slots(), 0u) << GetParam();
  }
  // Every SeqFM configuration has an attention the compiler fuses: the
  // parity below covers tensor::MaskedAttention, not only the dense chain.
  if (GetParam().rfind("SeqFM", 0) == 0) {
    EXPECT_GT(compiled.engine()->stats().attention_fused, 0u) << GetParam();
  }

  serve::PredictorOptions eager_opts;
  eager_opts.micro_batch = 4;
  eager_opts.use_compiled_program = false;
  serve::Predictor eager(model.get(), &builder, eager_opts);
  EXPECT_FALSE(eager.compiled_active());

  std::vector<int32_t> catalog(space.num_objects());
  std::iota(catalog.begin(), catalog.end(), 0);

  std::vector<util::SimdLevel> levels = {util::SimdLevel::kScalar};
  if (tensor::kernels::Avx2KernelsAvailable()) {
    levels.push_back(util::SimdLevel::kAvx2);
  }
  const util::SimdLevel prev_level = util::ActiveSimdLevel();

  // More chunkings of the 9-object catalog: micro-batches 3, 7, 8 and 9
  // add body counts 3, 7, 8 and 9 (and 2 again, for a 1-candidate tail) to
  // the 4 and 2 of the main predictor.
  std::vector<std::unique_ptr<serve::Predictor>> chunked;
  for (size_t mb : {3u, 7u, 8u, 9u}) {
    serve::PredictorOptions o;
    o.micro_batch = mb;
    chunked.push_back(
        std::make_unique<serve::Predictor>(model.get(), &builder, o));
    ASSERT_TRUE(chunked.back()->compiled_active()) << GetParam();
  }
  // The smallest compilable catalog: two objects.
  const data::FeatureSpace pair_space(5, 2);
  data::BatchBuilder pair_builder(pair_space, kSeqLen);
  auto pair_model = MakeModelByName(GetParam(), pair_space);
  serve::Predictor pair_compiled(pair_model.get(), &pair_builder);
  ASSERT_TRUE(pair_compiled.compiled_active()) << GetParam();
  serve::PredictorOptions pair_eager_opts;
  pair_eager_opts.use_compiled_program = false;
  serve::Predictor pair_eager(pair_model.get(), &pair_builder,
                              pair_eager_opts);
  const std::vector<int32_t> pair_catalog = {0, 1};

  for (util::SimdLevel level : levels) {
    util::SetSimdLevel(level);
    for (size_t threads : {1u, 2u}) {
      util::SetGlobalThreads(threads);
      for (const auto& ex : TestExamples()) {
        const std::string where =
            GetParam() + " simd=" + util::SimdLevelName(level) +
            " threads=" + std::to_string(threads) +
            " user=" + std::to_string(ex.user);
        const std::vector<float> want = eager.ScoreCandidates(ex, catalog);
        const std::vector<float> got = compiled.ScoreCandidates(ex, catalog);
        ASSERT_EQ(want.size(), got.size());
        ExpectBitEqual(want.data(), got.data(), want.size(), where);
        for (const auto& p : chunked) {
          const std::vector<float> c = p->ScoreCandidates(ex, catalog);
          ASSERT_EQ(want.size(), c.size());
          ExpectBitEqual(want.data(), c.data(), want.size(),
                         where + " micro_batch=" +
                             std::to_string(p->options().micro_batch));
        }
        data::SequenceExample pair_ex = ex;
        pair_ex.target %= 2;
        for (int32_t& h : pair_ex.history) h %= 2;
        const std::vector<float> pair_want =
            pair_eager.ScoreCandidates(pair_ex, pair_catalog);
        const std::vector<float> pair_got =
            pair_compiled.ScoreCandidates(pair_ex, pair_catalog);
        ASSERT_EQ(pair_want.size(), pair_got.size());
        ExpectBitEqual(pair_want.data(), pair_got.data(), pair_want.size(),
                       where + " catalog=2");

        // Sharded serving over the compiled predictor reproduces the eager
        // unsharded ranking exactly (scores compared as bits).
        const std::vector<serve::ScoredItem> ref = eager.TopKAll(ex, 5);
        for (size_t shards : {1u, 3u}) {
          serve::ShardedPredictorOptions sopts;
          sopts.num_shards = shards;
          sopts.micro_batch = 4;
          serve::ShardedPredictor sharded(&compiled, sopts);
          const std::vector<serve::ScoredItem> top = sharded.TopKAll(ex, 5);
          ASSERT_EQ(top.size(), ref.size()) << where;
          for (size_t i = 0; i < top.size(); ++i) {
            EXPECT_EQ(top[i].item, ref[i].item)
                << where << " shards=" << shards << " rank=" << i;
            EXPECT_EQ(std::memcmp(&top[i].score, &ref[i].score,
                                  sizeof(float)),
                      0)
                << where << " shards=" << shards << " rank=" << i;
          }
        }
      }
    }
  }
  EXPECT_TRUE(compiled.compiled_active())
      << GetParam() << " fell back to eager mid-test";
  for (const auto& p : chunked) {
    EXPECT_TRUE(p->compiled_active())
        << GetParam() << " micro_batch=" << p->options().micro_batch
        << " fell back to eager mid-test";
  }
  EXPECT_TRUE(pair_compiled.compiled_active())
      << GetParam() << " (catalog=2) fell back to eager mid-test";
  util::SetGlobalThreads(1);
  util::SetSimdLevel(prev_level);
}

INSTANTIATE_TEST_SUITE_P(AllModels, CompiledParityTest,
                         ::testing::ValuesIn(AllModels()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });
INSTANTIATE_TEST_SUITE_P(SeqFmVariants, CompiledParityTest,
                         ::testing::ValuesIn(SeqFmVariants()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Compiled cost at the serving shape (d=64, n=20): row-block hoisting keeps
// only the candidate row's projections and the attention per candidate, and
// the broadcast concat keeps the count-256 body frame from growing.
// ---------------------------------------------------------------------------

TEST(CompiledCostTest, SeqFmBodyGemmWorkPerCandidateStaysHoisted) {
  const data::FeatureSpace space = SmallSpace();
  core::SeqFmConfig cfg;  // d=64, n=20, one FFN layer: the serving shape
  data::BatchBuilder builder(space, cfg.max_seq_len);
  core::SeqFm model(space, cfg);
  std::string error;
  auto engine =
      ir::Engine::Compile(&model, &builder, space.num_objects(), &error);
  ASSERT_NE(engine, nullptr) << error;
  // 365,760 before the cross-view history/user rows were hoisted, 95,424
  // before the cross view stopped computing the 404 of its 484 (query, key)
  // pairs the mask discards; 43,712 now.
  EXPECT_LE(engine->stats().body_macs_per_candidate, 45000u);
}

TEST(CompiledCostTest, SeqFmCount256BodyFrameDoesNotGrow) {
  const data::FeatureSpace space = SmallSpace();
  core::SeqFmConfig cfg;
  data::BatchBuilder builder(space, cfg.max_seq_len);
  core::SeqFm model(space, cfg);
  data::SequenceExample ex;
  ex.user = 1;
  for (int32_t j = 0; j < static_cast<int32_t>(cfg.max_seq_len); ++j) {
    ex.history.push_back(1 + j % 8);
  }
  std::vector<int32_t> cands(256);
  for (size_t i = 0; i < cands.size(); ++i) {
    cands[i] = static_cast<int32_t>(i % space.num_objects());
  }
  const data::Batch b1 = ServingBatch(builder, ex, {0});
  const data::Batch bC = ServingBatch(builder, ex, cands);
  const ir::TraceResult t1 = ir::Trace(&model, b1);
  const ir::TraceResult tC = ir::Trace(&model, bC);
  ASSERT_TRUE(t1.ok() && tC.ok()) << t1.error << tC.error;
  ir::FactorResult f = ir::Factor(t1, tC, b1, bC);
  ASSERT_TRUE(f.ok()) << f.error;
  ir::FoldConstants(&f.body);
  ir::DeadCodeElim(&f.body);
  ir::FuseMaskedAttention(&f.body);
  ir::FuseElementwise(&f.body);
  ir::PlanArena(&f.body);
  // 7,672,832 bytes before row-block hoisting and 5,411,840 before the
  // fused attention dropped the [256, 22, 22] scores and the stacked
  // [256, 22, 64] Q/K/V copies.
  EXPECT_LE(f.body.frame_floats * sizeof(float), 1950000u);  // 1,901,568
}

TEST(CompiledServingTest, WarmChunksMakeNoHeapAllocationsOfAnyKind) {
  const data::FeatureSpace space = SmallSpace();
  core::SeqFmConfig cfg;  // the serving shape: d=64, n=20
  data::BatchBuilder builder(space, cfg.max_seq_len);
  core::SeqFm model(space, cfg);
  util::SetGlobalThreads(1);
  serve::PredictorOptions opts;
  opts.micro_batch = 256;
  serve::Predictor predictor(&model, &builder, opts);
  ASSERT_TRUE(predictor.compiled_active());
  const data::SequenceExample ex = TestExamples()[0];
  std::vector<int32_t> cands(300);
  for (size_t i = 0; i < cands.size(); ++i) {
    cands[i] = static_cast<int32_t>(i % space.num_objects());
  }
  const auto ctx = predictor.AcquireContext(ex);
  std::vector<float> out(cands.size());
  for (size_t count : {256u, 44u}) {
    for (int warm = 0; warm < 2; ++warm) {  // compiles this count's body
      predictor.ScoreContextRange(*ctx, ex, cands, 0, count, out.data());
    }
    g_news.store(0);
    g_count_news.store(true);
    for (int r = 0; r < 10; ++r) {
      predictor.ScoreContextRange(*ctx, ex, cands, 0, count, out.data());
    }
    g_count_news.store(false);
    EXPECT_EQ(g_news.load(), 0u) << "operator new calls in 10 warm chunks of "
                                 << count;
  }
  EXPECT_TRUE(predictor.compiled_active());
}

TEST(CompiledServingTest, NaNHistoryEmbeddingYieldsTheEagerPathsNaNScores) {
  // The fused attention never reads a masked column, so a non-finite value
  // there need not reach the same bits as the dense chain's 0 * NaN. What
  // serving promises is the same scores wherever the input is finite and
  // NaN exactly where the eager path gives NaN.
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm model(space, SmallSeqFmConfig());
  serve::Predictor compiled(&model, &builder);
  ASSERT_TRUE(compiled.compiled_active());
  serve::PredictorOptions eager_opts;
  eager_opts.use_compiled_program = false;
  serve::Predictor eager(&model, &builder, eager_opts);

  tensor::Tensor& table =
      model.serving_view().dynamic_embedding->table().node()->value;
  const int32_t poisoned = 3;  // in TestExamples()[0]'s history only
  for (size_t c = 0; c < table.dim(1); ++c) {
    table.at(poisoned, c) = std::numeric_limits<float>::quiet_NaN();
  }
  std::vector<int32_t> catalog(space.num_objects());
  std::iota(catalog.begin(), catalog.end(), 0);
  size_t nan_scores = 0, finite_scores = 0;
  for (const auto& ex : TestExamples()) {
    const std::vector<float> want = eager.ScoreCandidates(ex, catalog);
    const std::vector<float> got = compiled.ScoreCandidates(ex, catalog);
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(std::isnan(got[i]), std::isnan(want[i]))
          << "user " << ex.user << " candidate " << i;
      if (std::isnan(want[i])) {
        ++nan_scores;
      } else {
        ++finite_scores;
        EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof(float)), 0)
            << "user " << ex.user << " candidate " << i;
      }
    }
  }
  EXPECT_GT(nan_scores, 0u);
  EXPECT_GT(finite_scores, 0u);
  EXPECT_TRUE(compiled.compiled_active());
}

// ---------------------------------------------------------------------------
// Compiler lifecycle
// ---------------------------------------------------------------------------

TEST(CompiledLifecycleTest, OptionOffDisablesTheEngine) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  auto model = MakeModelByName("SeqFM", space);
  serve::PredictorOptions opts;
  opts.use_compiled_program = false;
  serve::Predictor predictor(model.get(), &builder, opts);
  EXPECT_EQ(predictor.engine(), nullptr);
  EXPECT_FALSE(predictor.compiled_active());
  EXPECT_TRUE(predictor.fast_path_active());  // hand-factored path remains
}

TEST(CompiledLifecycleTest, SingleObjectCatalogFallsBackToEagerServing) {
  // One catalog object leaves no second probe candidate to disambiguate the
  // candidate column, so the compiler must decline — and serving must still
  // produce taped-parity scores through the generic path.
  const data::FeatureSpace space(2, 1);
  data::BatchBuilder builder(space, kSeqLen);
  auto model = MakeModelByName("FM", space);
  serve::Predictor predictor(model.get(), &builder);
  EXPECT_EQ(predictor.engine(), nullptr);
  EXPECT_FALSE(predictor.compiled_active());

  const data::SequenceExample ex{/*user=*/1, /*target=*/0, /*rating=*/1.0f,
                                 {0, 0}};
  const std::vector<int32_t> catalog = {0};
  const std::vector<float> scores = predictor.ScoreCandidates(ex, catalog);
  ASSERT_EQ(scores.size(), 1u);

  const data::Batch batch = ServingBatch(builder, ex, catalog);
  const autograd::Variable taped = model->Score(batch, /*training=*/false);
  ExpectBitEqual(scores.data(), taped.value().data(), 1, "tiny catalog");
}

TEST(CompiledLifecycleTest, CheckpointReloadRecompilesTheProgram) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  auto serving = MakeModelByName("SeqFM", space);
  auto trained = MakeModelByName("SeqFM", space, /*seed=*/777);

  const std::string path = TempPath("ir_reload_test.bin");
  ASSERT_TRUE(serve::Checkpoint::Save(
                  *dynamic_cast<nn::Module*>(trained.get()), path)
                  .ok());

  serve::PredictorOptions opts;
  opts.micro_batch = 4;
  serve::Predictor predictor(serving.get(), &builder, opts);
  ASSERT_TRUE(predictor.compiled_active());
  const uint64_t uid_before = predictor.engine()->uid();

  ASSERT_TRUE(predictor.ReloadCheckpoint(path).ok());
  ASSERT_TRUE(predictor.compiled_active());
  // A fresh engine: the candidate-invariant split is verified against live
  // parameter values, so stale programs must never survive a reload.
  EXPECT_NE(predictor.engine()->uid(), uid_before);

  // And the recompiled program scores the *new* parameters bit-exactly.
  std::vector<int32_t> catalog(space.num_objects());
  std::iota(catalog.begin(), catalog.end(), 0);
  const data::SequenceExample ex = TestExamples()[0];
  const std::vector<float> got = predictor.ScoreCandidates(ex, catalog);
  const data::Batch batch = ServingBatch(builder, ex, catalog);
  autograd::NoGradGuard guard;
  const autograd::Variable want = trained->Score(batch, /*training=*/false);
  ASSERT_EQ(got.size(), want.value().size());
  ExpectBitEqual(got.data(), want.value().data(), got.size(),
                 "post-reload parity");
  std::remove(path.c_str());
}

TEST(CompiledLifecycleTest, RepeatedReloadsReturnTheThreadFrameCountToBaseline) {
  // Every reload compiles a new engine; the frames of the engines it
  // replaces (and of discarded self-check programs) must not pile up in
  // the thread's frame cache.
  util::SetGlobalThreads(1);
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  auto serving = MakeModelByName("SeqFM", space);
  const std::string path = TempPath("ir_frame_sweep_test.bin");
  ASSERT_TRUE(serve::Checkpoint::Save(
                  *dynamic_cast<nn::Module*>(serving.get()), path)
                  .ok());

  serve::PredictorOptions opts;
  opts.micro_batch = 4;
  serve::Predictor predictor(serving.get(), &builder, opts);
  ASSERT_TRUE(predictor.compiled_active());
  std::vector<int32_t> catalog(space.num_objects());
  std::iota(catalog.begin(), catalog.end(), 0);
  const data::SequenceExample ex = TestExamples()[0];
  auto reload_and_score = [&]() {
    ASSERT_TRUE(predictor.ReloadCheckpoint(path).ok());
    ASSERT_TRUE(predictor.compiled_active());
    predictor.ScoreCandidates(ex, catalog);
  };
  reload_and_score();
  reload_and_score();
  const size_t baseline = ir::ThreadFrameCount();
  for (int i = 0; i < 6; ++i) reload_and_score();
  EXPECT_EQ(ir::ThreadFrameCount(), baseline);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Slot-ABI re-verification at reload: a body whose slot wiring no longer
// matches the prologue would read the wrong context floats and serve garbage
// rankings WITHOUT crashing — the reload path must catch it and fall back.
// ---------------------------------------------------------------------------

namespace {

// Saves a checkpoint, reloads it with the slot wiring corrupted via the
// test hook, and asserts the predictor detected the miswiring, latched the
// compiled path off, and still serves the new parameters bit-exactly
// through the eager fallback.
void RunCorruptedReload(bool corrupt_shape) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  auto serving = MakeModelByName("SeqFM", space);
  auto trained = MakeModelByName("SeqFM", space, /*seed=*/4242);

  const std::string path = TempPath(corrupt_shape
                                        ? "ir_abi_shape_test.bin"
                                        : "ir_abi_index_test.bin");
  ASSERT_TRUE(serve::Checkpoint::Save(
                  *dynamic_cast<nn::Module*>(trained.get()), path)
                  .ok());

  serve::PredictorOptions opts;
  opts.micro_batch = 4;
  serve::Predictor predictor(serving.get(), &builder, opts);
  ASSERT_TRUE(predictor.compiled_active());
  // The healthy engine's ABI verifies — the check itself is not trigger-
  // happy, or every clean reload would forfeit the compiled path.
  ASSERT_TRUE(predictor.engine()->ReverifySlotAbi().ok());

  predictor.SetReloadCorruptionHookForTest([corrupt_shape](ir::Engine* e) {
    e->CorruptSlotWiringForTest(corrupt_shape);
  });
  // The reload itself succeeds: the parameters ARE the new checkpoint.
  ASSERT_TRUE(predictor.ReloadCheckpoint(path).ok());
  // But the miswired program was caught and latched off.
  EXPECT_FALSE(predictor.compiled_active());

  // The fallback path serves the NEW parameters bit-exactly — degraded to
  // eager, never degraded to wrong.
  std::vector<int32_t> catalog(space.num_objects());
  std::iota(catalog.begin(), catalog.end(), 0);
  const data::SequenceExample ex = TestExamples()[0];
  const std::vector<float> got = predictor.ScoreCandidates(ex, catalog);
  const data::Batch batch = ServingBatch(builder, ex, catalog);
  autograd::NoGradGuard guard;
  const autograd::Variable want = trained->Score(batch, /*training=*/false);
  ASSERT_EQ(got.size(), want.value().size());
  ExpectBitEqual(got.data(), want.value().data(), got.size(),
                 "corrupted-reload eager parity");
  std::remove(path.c_str());
}

}  // namespace

TEST(SlotAbiReverifyTest, ReloadCatchesOutOfRangeSlotIndex) {
  RunCorruptedReload(/*corrupt_shape=*/false);
}

TEST(SlotAbiReverifyTest, ReloadCatchesSlotShapeMismatch) {
  RunCorruptedReload(/*corrupt_shape=*/true);
}

TEST(SlotAbiReverifyTest, CleanReloadKeepsCompiledPathAndVerifiesAbi) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  auto serving = MakeModelByName("SeqFM", space);

  const std::string path = TempPath("ir_abi_clean_test.bin");
  ASSERT_TRUE(serve::Checkpoint::Save(
                  *dynamic_cast<nn::Module*>(serving.get()), path)
                  .ok());

  serve::Predictor predictor(serving.get(), &builder);
  ASSERT_TRUE(predictor.compiled_active());

  // Hook installed but benign: prove the re-verification actually runs on
  // every reload (the hook observes the fresh engine) and passes clean.
  bool reverified = false;
  predictor.SetReloadCorruptionHookForTest([&reverified](ir::Engine* e) {
    reverified = e->ReverifySlotAbi().ok();
  });
  ASSERT_TRUE(predictor.ReloadCheckpoint(path).ok());
  EXPECT_TRUE(reverified);
  EXPECT_TRUE(predictor.compiled_active());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Loss-curve invariance: tracing/compiling a model never perturbs training
// ---------------------------------------------------------------------------

TEST(TraceInvarianceTest, TracingBetweenEpochsLeavesLossCurveUntouched) {
  const auto log = data::SyntheticDatasetGenerator(
                       data::SyntheticDatasetGenerator::Preset("gowalla", 0.1)
                           .ValueOrDie())
                       .Generate()
                       .ValueOrDie();
  const auto dataset = data::TemporalDataset::FromLog(log).ValueOrDie();
  const data::FeatureSpace space(log.num_users(), log.num_objects());
  data::BatchBuilder builder(space, kSeqLen);

  core::TrainConfig tcfg;
  tcfg.task = core::Task::kRanking;
  tcfg.epochs = 2;
  tcfg.batch_size = 64;
  tcfg.num_negatives = 1;

  core::SeqFmConfig mcfg = SmallSeqFmConfig();

  // Reference: two plain epochs.
  core::SeqFm plain(space, mcfg);
  core::Trainer plain_trainer(&plain, &builder, &dataset, tcfg);
  const core::EpochStats plain_e1 = plain_trainer.TrainEpoch();
  const core::EpochStats plain_e2 = plain_trainer.TrainEpoch();

  // Same seed, but the model is traced AND fully compiled before training
  // and again between the epochs — eval forwards that must not disturb
  // parameters, optimizer state, or the trainer's sampling stream.
  core::SeqFm probed(space, mcfg);
  const data::SequenceExample probe{0, 1, 1.0f, {1, 2}};
  const data::Batch probe_batch = ServingBatch(builder, probe, {0, 1});
  ASSERT_TRUE(ir::Trace(&probed, probe_batch).ok());
  core::Trainer probed_trainer(&probed, &builder, &dataset, tcfg);
  const core::EpochStats probed_e1 = probed_trainer.TrainEpoch();
  {
    serve::Predictor predictor(&probed, &builder);  // compiles + self-checks
    ASSERT_TRUE(predictor.compiled_active());
    std::vector<int32_t> catalog(space.num_objects());
    std::iota(catalog.begin(), catalog.end(), 0);
    predictor.ScoreCandidates(probe, catalog);
  }
  const core::EpochStats probed_e2 = probed_trainer.TrainEpoch();

  EXPECT_EQ(plain_e1.mean_loss, probed_e1.mean_loss);
  EXPECT_EQ(plain_e2.mean_loss, probed_e2.mean_loss);
  EXPECT_EQ(plain_e1.steps, probed_e1.steps);
  EXPECT_EQ(plain_e2.steps, probed_e2.steps);
}

}  // namespace
}  // namespace seqfm
