// Lockdown suite for the serving compiler (src/ir/):
//   - trace round-trip: the recorded program's output tensor is bit-equal to
//     a fresh tape-free forward, for SeqFM and every registry baseline;
//   - pass units on hand-built programs: constant folding, dead-code
//     elimination, elementwise fusion, and arena planning (buffer reuse);
//   - row-block factoring on small hand-built models: mixed gathers split,
//     projected invariant blocks become slots, refuted blocks are raised to
//     the body;
//   - binding times and the item split on small hand-built models: a
//     candidate-only chain moves into the catalog program and the item
//     table, a chain reading the user row stays in the body, so does a
//     projection by an in-graph function of a parameter (request time), a
//     bare candidate gather is not hoisted, and a value the table refutes
//     is raised to the body;
//   - masked-attention fusion: fires on SeqFM's constant causal and cross
//     masks and its unmasked static view, declines padding masks, masks
//     with holes and shared intermediates, and matches the chain it fuses;
//   - compiled-vs-eager serving parity: bit-for-bit equal scores for every
//     model (and SeqFM's padding-mask and single-view configurations) at
//     1/2 threads, 1/3 shards, both SIMD levels, body counts
//     1/2/3/4/7/8/9 of the one count-polymorphic body, and a 2-object
//     catalog;
//   - generated shapes: the same parity for every model configuration over
//     seeded draws of users, catalog size, history window, embedding dim,
//     micro_batch and history lengths;
//   - compiled cost at SeqFM's serving shape: GEMM work per candidate, the
//     item table's size, the body's frame at 256 candidates, and one body
//     serving every chunk size from one table (never captured as a
//     constant);
//   - verifier: item table reads only as a candidate-bound gather's table,
//     with the table's width; per-candidate values read row-locally along
//     the candidate axis;
//   - compiled serving: zero operator-new calls in warm chunks of any size,
//     and NaN history embeddings giving NaN scores exactly where eager
//     does;
//   - compiler lifecycle: recompile (and a rebuilt item table) on
//     checkpoint reload, slot and item ABI re-verification, frame-cache sweep
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
#include "serve/server.h"
#include "tensor/kernels.h"
#include "tests/score_tie.h"
#include "util/cpu.h"
#include "util/hash.h"
#include "util/rng.h"
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
                                             uint64_t seed = 0, size_t dim = 8,
                                             size_t seq_len = kSeqLen) {
  if (name.rfind("SeqFM", 0) == 0) {
    core::SeqFmConfig cfg = SmallSeqFmConfig();
    cfg.embedding_dim = dim;
    cfg.max_seq_len = seq_len;
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
  cfg.embedding_dim = dim;
  cfg.max_seq_len = seq_len;
  if (seed != 0) cfg.seed = seed;
  return baselines::CreateBaseline(name, space, cfg).ValueOrDie();
}

std::vector<std::string> AllModels() {
  std::vector<std::string> names = AllBaselines();
  names.insert(names.begin(), "SeqFM");
  return names;
}

/// A gtest-safe instance name for a model-name parameter ("Wide&Deep" ->
/// "Wide_Deep").
std::string ModelTestName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
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

/// Expects \p compiled to score \p catalog and rank the whole catalog (top
/// 5) for every request exactly as \p eager does, scores compared as bits.
void ExpectServesLikeEager(const serve::Predictor& compiled,
                           const serve::Predictor& eager,
                           const std::vector<data::SequenceExample>& requests,
                           const std::vector<int32_t>& catalog,
                           const std::string& where) {
  for (const data::SequenceExample& ex : requests) {
    const std::string at = where + " user=" + std::to_string(ex.user) +
                           " history=" + std::to_string(ex.history.size());
    const std::vector<float> want = eager.ScoreCandidates(ex, catalog);
    const std::vector<float> got = compiled.ScoreCandidates(ex, catalog);
    ASSERT_EQ(want.size(), got.size()) << at;
    ExpectBitEqual(want.data(), got.data(), want.size(), at);
    const std::vector<serve::ScoredItem> ref = eager.TopKAll(ex, 5);
    const std::vector<serve::ScoredItem> top = compiled.TopKAll(ex, 5);
    ASSERT_EQ(top.size(), ref.size()) << at;
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].item, ref[i].item) << at << " rank=" << i;
      EXPECT_EQ(std::memcmp(&top[i].score, &ref[i].score, sizeof(float)), 0)
          << at << " rank=" << i;
    }
  }
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
                         ModelTestName);

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

/// The three traces Factor takes: \p ex at count 1 (candidate 0) and at
/// \p candidates, and the cross-probe at that count for another user and
/// history (TestExamples()[3]), each sample scoring the next object after
/// its counterpart's candidate.
struct FactorTraces {
  data::Batch b1, bC, bB;
  ir::TraceResult t1, tC, tB;

  bool ok() const { return t1.ok() && tC.ok() && tB.ok(); }
  std::string error() const { return t1.error + tC.error + tB.error; }
};

FactorTraces TraceForFactor(core::Model* model,
                            const data::BatchBuilder& builder,
                            const data::SequenceExample& ex,
                            const std::vector<int32_t>& candidates) {
  FactorTraces r;
  const int32_t num_objects =
      static_cast<int32_t>(builder.space().num_objects());
  std::vector<int32_t> next(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    next[i] = (candidates[i] + 1) % num_objects;
  }
  r.b1 = ServingBatch(builder, ex, {0});
  r.bC = ServingBatch(builder, ex, candidates);
  r.bB = ServingBatch(builder, TestExamples()[3], next);
  r.t1 = ir::Trace(model, r.b1);
  r.tC = ir::Trace(model, r.bC);
  r.tB = ir::Trace(model, r.bB);
  return r;
}

/// Traces \p model for the first test request at candidates 0, 3 and 7.
FactorTraces TraceRowBlockModel(core::Model* model,
                                const data::BatchBuilder& builder) {
  return TraceForFactor(model, builder, TestExamples()[0], {0, 3, 7});
}

/// The options the engine factors \p r with: \p space's whole catalog and
/// r's cross-probe.
ir::FactorOptions ItemOptions(const data::FeatureSpace& space,
                              const FactorTraces& r) {
  ir::FactorOptions o;
  o.num_objects = space.num_objects();
  o.cand_base = space.CandidateIndex(0);
  o.unified_dyn_base = static_cast<int32_t>(space.static_dim());
  o.probe = &r.tB;
  o.probe_batch = &r.bB;
  return o;
}

ir::FactorResult FactorTraced(const data::FeatureSpace& space,
                              const FactorTraces& r) {
  return ir::Factor(r.t1, r.tC, r.b1, r.bC, ItemOptions(space, r));
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

/// Floats per object of each item table column.
std::vector<size_t> Widths(const ir::ItemTable& table) {
  std::vector<size_t> widths;
  for (const tensor::Tensor& col : table.columns) widths.push_back(col.dim(1));
  return widths;
}

/// Kinds of \p p's instructions, in order.
std::vector<ir::OpKind> Kinds(const ir::Program& p) {
  std::vector<ir::OpKind> kinds;
  for (const ir::Instr& ins : p.instrs) kinds.push_back(ins.kind);
  return kinds;
}

/// The body gathers reading the item table, each checked to bind the
/// candidate column alone.
std::vector<const ir::Instr*> TableGathers(const ir::Program& body) {
  std::vector<const ir::Instr*> found;
  for (const ir::Instr& ins : body.instrs) {
    if (ins.kind != ir::OpKind::kEmbeddingGather ||
        body.values[ins.in[0]].kind != ir::ValueKind::kItem) {
      continue;
    }
    EXPECT_EQ(ins.binding.cols, (std::vector<uint32_t>{1}));
    found.push_back(&ins);
  }
  return found;
}

TEST(PassTest, FactorSplitsAMixedUserCandidateGather) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  RowBlockModel model(space, RowBlockModel::Rows::kUserCandidate);
  FactorTraces r = TraceRowBlockModel(&model, builder);
  ASSERT_TRUE(r.ok()) << r.error();
  const auto traced =
      InstrsOfKind(r.tC.program, ir::OpKind::kEmbeddingGather);
  ASSERT_EQ(traced.size(), 1u);
  ASSERT_EQ(traced[0]->binding.cols, (std::vector<uint32_t>{0, 1}));

  const ir::FactorResult f = FactorTraced(space, r);
  ASSERT_TRUE(f.ok()) << f.error;
  // One gather per class: the user row in the prologue, the candidate row
  // in the catalog.
  const auto pro = InstrsOfKind(f.prologue, ir::OpKind::kEmbeddingGather);
  const auto cat = InstrsOfKind(f.catalog, ir::OpKind::kEmbeddingGather);
  ASSERT_EQ(pro.size(), 1u);
  ASSERT_EQ(cat.size(), 1u);
  EXPECT_EQ(pro[0]->binding.source, ir::IndexSource::kStatic);
  EXPECT_EQ(pro[0]->binding.cols, (std::vector<uint32_t>{0}));
  EXPECT_EQ(cat[0]->binding.source, ir::IndexSource::kStatic);
  EXPECT_EQ(cat[0]->binding.cols, (std::vector<uint32_t>{1}));
  // Each row's projection is hoisted with it: the user row's into the
  // prologue, the candidate row's into the item table. The body gathers
  // the projected candidate row and projects nothing.
  EXPECT_EQ(InstrsOfKind(f.prologue, ir::OpKind::kBmmShared).size(), 1u);
  EXPECT_EQ(Kinds(f.catalog),
            (std::vector<ir::OpKind>{ir::OpKind::kEmbeddingGather,
                                     ir::OpKind::kBmmShared}));
  EXPECT_TRUE(InstrsOfKind(f.body, ir::OpKind::kBmmShared).empty());
  const auto body = InstrsOfKind(f.body, ir::OpKind::kEmbeddingGather);
  ASSERT_EQ(body.size(), 1u);
  EXPECT_EQ(TableGathers(f.body).size(), 1u);
  // One candidate's row: the body runs at any count.
  EXPECT_EQ(f.body.values[body[0]->out].shape,
            (std::vector<size_t>{1, 1, 4}));
  EXPECT_TRUE(f.body.values[body[0]->out].per_candidate);
}

TEST(PassTest, FactorHoistsTheProjectedHistoryBlockIntoASlot) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  RowBlockModel model(space, RowBlockModel::Rows::kCandidateHistory);
  FactorTraces r = TraceRowBlockModel(&model, builder);
  ASSERT_TRUE(r.ok()) << r.error();
  const ir::FactorResult f = FactorTraced(space, r);
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

  // The body gathers the projected candidate row from the item table,
  // projects nothing, and concatenates the slot straight in (batch-1
  // operand, no tiled copy).
  EXPECT_TRUE(InstrsOfKind(f.body, ir::OpKind::kBmmShared).empty());
  const auto rows = TableGathers(f.body);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(f.body.values[rows[0]->out].shape,
            (std::vector<size_t>{1, 1, 4}));
  EXPECT_TRUE(f.body.values[rows[0]->out].per_candidate);
  EXPECT_TRUE(InstrsOfKind(f.body, ir::OpKind::kTileRows).empty());
  ir::VerifyOptions body_opts;
  body_opts.num_slots = slots.size();
  body_opts.item_table = &f.table;
  const Status st = ir::Verify(f.body, body_opts);
  EXPECT_TRUE(st.ok()) << st.message();
}

TEST(PassTest, FactorDemotesARowBlockTheTracedTensorsRefute) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  RowBlockModel model(space, RowBlockModel::Rows::kCandidateHistory);
  FactorTraces r = TraceRowBlockModel(&model, builder);
  ASSERT_TRUE(r.ok()) << r.error();

  // Perturb candidate 1's first history row of the count-C projection: that
  // block's count-C tensor is no longer its count-1 tensor tiled.
  const ir::Instr* traced_bmm =
      InstrsOfKind(r.tC.program, ir::OpKind::kBmmShared)[0];
  tensor::Tensor& y = r.tC.value_nodes[traced_bmm->out]->value;
  y.data()[(1 * (1 + kSeqLen) + 1) * 4] += 1.0f;

  const ir::FactorResult f = FactorTraced(space, r);
  ASSERT_TRUE(f.ok()) << f.error;
  // The history projection is back in the body, over the tiled history
  // gather; the prologue keeps only the gather itself. The candidate row's
  // projection still comes from the item table.
  EXPECT_TRUE(InstrsOfKind(f.prologue, ir::OpKind::kBmmShared).empty());
  const auto body_bmm = InstrsOfKind(f.body, ir::OpKind::kBmmShared);
  ASSERT_EQ(body_bmm.size(), 1u);
  EXPECT_EQ(f.body.values[body_bmm[0]->in[0]].shape,
            (std::vector<size_t>{1, kSeqLen, 4}));
  EXPECT_TRUE(f.body.values[body_bmm[0]->in[0]].per_candidate);
  EXPECT_EQ(TableGathers(f.body).size(), 1u);
  ASSERT_EQ(f.prologue.slot_outputs.size(), 1u);
  const ir::Instr* slot_def =
      DefOf(f.prologue, f.prologue.slot_outputs[0]);
  ASSERT_NE(slot_def, nullptr);
  EXPECT_EQ(slot_def->kind, ir::OpKind::kEmbeddingGather);
}

// ---------------------------------------------------------------------------
// Item split on small hand-built models: candidate-only chains move into the
// catalog program and the body gathers their rows from the item table.
// ---------------------------------------------------------------------------

/// A model whose candidate row goes through one of:
///   kCandidateOnly: tanh(e_c W), stacked under the user row, plus a
///                   candidate-only linear term mean(e_c) q added to the
///                   score (a rank-2 [B, 1] item value);
///   kReadsUser:     tanh(e_c W + e_u), stacked under the user row;
///   kBareGather:    e_c itself, stacked under the user row;
///   kParamFunction: e_c tanh(W), projected by an in-graph function of a
///                   parameter, stacked under the user row.
/// The stacked rows are mean-pooled and scored by a [d, 1] matmul.
class ItemChainModel : public core::Model {
 public:
  enum class Chain { kCandidateOnly, kReadsUser, kBareGather, kParamFunction };

  ItemChainModel(const data::FeatureSpace& space, Chain chain)
      : chain_(chain),
        table_(Param({space.static_dim(), kDim}, 0.1f)),
        w_(Param({kDim, kDim}, 0.3f)),
        p_(Param({kDim, 1}, 0.4f)),
        q_(Param({kDim, 1}, 0.5f)) {}

  autograd::Variable Score(const data::Batch& batch, bool) override {
    const size_t b = batch.batch_size;
    std::vector<int32_t> user(b), cand(b);
    for (size_t i = 0; i < b; ++i) {
      user[i] = batch.static_ids[i * batch.n_static];
      cand[i] = batch.static_ids[i * batch.n_static + 1];
    }
    const autograd::Variable e_u =
        autograd::EmbeddingGather(table_, user, b, 1);
    const autograd::Variable e_c =
        autograd::EmbeddingGather(table_, cand, b, 1);
    autograd::Variable c = e_c;
    if (chain_ == Chain::kCandidateOnly) {
      c = autograd::Tanh(autograd::BmmShared(e_c, w_));
    } else if (chain_ == Chain::kReadsUser) {
      c = autograd::Tanh(autograd::Add(autograd::BmmShared(e_c, w_), e_u));
    } else if (chain_ == Chain::kParamFunction) {
      c = autograd::BmmShared(e_c, autograd::Tanh(w_));
    }
    autograd::Variable score = autograd::MatMul(
        autograd::MeanAxis1(autograd::ConcatAxis1(e_u, c), 2.0f), p_);
    if (chain_ == Chain::kCandidateOnly) {
      score = autograd::Add(
          score, autograd::MatMul(autograd::MeanAxis1(e_c, 1.0f), q_));
    }
    return score;
  }

  std::vector<autograd::Variable> TrainableParameters() override {
    return {table_, w_, p_, q_};
  }
  std::string name() const override { return "ItemChain"; }

 private:
  static constexpr size_t kDim = 4;

  static autograd::Variable Param(std::vector<size_t> shape, float phase) {
    tensor::Tensor t(shape);
    for (size_t i = 0; i < t.size(); ++i) {
      t.data()[i] = std::sin(phase + 0.7f * static_cast<float>(i));
    }
    return autograd::Variable::Leaf(std::move(t), /*requires_grad=*/true);
  }

  Chain chain_;
  autograd::Variable table_, w_, p_, q_;
};

TEST(PassTest, FactorMovesACandidateOnlyChainIntoTheItemTable) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  ItemChainModel model(space, ItemChainModel::Chain::kCandidateOnly);
  FactorTraces r = TraceRowBlockModel(&model, builder);
  ASSERT_TRUE(r.ok()) << r.error();
  const ir::FactorResult f = FactorTraced(space, r);
  ASSERT_TRUE(f.ok()) << f.error;

  // The catalog computes both chains for all 9 objects: tanh(e_c W) and
  // mean(e_c) q, the table's two columns.
  EXPECT_EQ(Kinds(f.catalog),
            (std::vector<ir::OpKind>{
                ir::OpKind::kEmbeddingGather, ir::OpKind::kBmmShared,
                ir::OpKind::kTanh, ir::OpKind::kReduceAxis1,
                ir::OpKind::kMatMul}));
  EXPECT_EQ(f.catalog.count, space.num_objects());
  ASSERT_EQ(f.table.columns.size(), 2u);
  EXPECT_EQ(Widths(f.table), (std::vector<size_t>{4, 1}));
  EXPECT_EQ(f.table.bytes(), space.num_objects() * 5 * sizeof(float));

  // The body reads both through candidate-bound table gathers (the rank-2
  // term through a reshape) and projects nothing itself.
  EXPECT_TRUE(InstrsOfKind(f.body, ir::OpKind::kBmmShared).empty());
  EXPECT_TRUE(InstrsOfKind(f.body, ir::OpKind::kTanh).empty());
  EXPECT_EQ(TableGathers(f.body).size(), 2u);
  EXPECT_EQ(InstrsOfKind(f.body, ir::OpKind::kReshape).size(), 1u);
  ir::VerifyOptions body_opts;
  body_opts.num_slots = f.prologue.slot_outputs.size();
  body_opts.item_table = &f.table;
  const Status st = ir::Verify(f.body, body_opts);
  EXPECT_TRUE(st.ok()) << st.message();

  // End to end: the engine serves it from the table, bit-equal to eager.
  serve::Predictor compiled(&model, &builder);
  ASSERT_TRUE(compiled.compiled_active());
  EXPECT_EQ(compiled.engine()->stats().item_values, 2u);
  serve::PredictorOptions eager_opts;
  eager_opts.use_compiled_program = false;
  serve::Predictor eager(&model, &builder, eager_opts);
  std::vector<int32_t> catalog(space.num_objects());
  std::iota(catalog.begin(), catalog.end(), 0);
  for (const auto& ex : TestExamples()) {
    const std::vector<float> want = eager.ScoreCandidates(ex, catalog);
    const std::vector<float> got = compiled.ScoreCandidates(ex, catalog);
    ASSERT_EQ(want.size(), got.size());
    ExpectBitEqual(want.data(), got.data(), want.size(),
                   "user " + std::to_string(ex.user));
  }
}

TEST(PassTest, FactorKeepsAChainThatReadsTheUserColumnInTheBody) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  ItemChainModel model(space, ItemChainModel::Chain::kReadsUser);
  FactorTraces r = TraceRowBlockModel(&model, builder);
  ASSERT_TRUE(r.ok()) << r.error();
  const ir::FactorResult f = FactorTraced(space, r);
  ASSERT_TRUE(f.ok()) << f.error;
  // Only e_c W is an item value; adding the user row and the tanh after it
  // stay in the body.
  EXPECT_EQ(Kinds(f.catalog),
            (std::vector<ir::OpKind>{ir::OpKind::kEmbeddingGather,
                                     ir::OpKind::kBmmShared}));
  EXPECT_EQ(Widths(f.table), (std::vector<size_t>{4}));
  EXPECT_EQ(TableGathers(f.body).size(), 1u);
  EXPECT_EQ(InstrsOfKind(f.body, ir::OpKind::kAdd).size(), 1u);
  EXPECT_EQ(InstrsOfKind(f.body, ir::OpKind::kTanh).size(), 1u);
  EXPECT_TRUE(InstrsOfKind(f.body, ir::OpKind::kBmmShared).empty());
}

TEST(PassTest, FactorLeavesABareCandidateGatherInTheBody) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  ItemChainModel model(space, ItemChainModel::Chain::kBareGather);
  FactorTraces r = TraceRowBlockModel(&model, builder);
  ASSERT_TRUE(r.ok()) << r.error();
  const ir::FactorResult f = FactorTraced(space, r);
  ASSERT_TRUE(f.ok()) << f.error;
  // Gathering a parameter row by candidate is already a table lookup.
  EXPECT_TRUE(f.catalog.instrs.empty());
  EXPECT_TRUE(f.table.columns.empty());
  EXPECT_EQ(f.table.bytes(), 0u);
  EXPECT_TRUE(TableGathers(f.body).empty());
  const auto gathers = InstrsOfKind(f.body, ir::OpKind::kEmbeddingGather);
  ASSERT_EQ(gathers.size(), 1u);
  EXPECT_EQ(f.body.values[gathers[0]->in[0]].kind, ir::ValueKind::kParam);
}

TEST(PassTest, FactorKeepsAProjectionByAParameterFunctionInTheBody) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  ItemChainModel model(space, ItemChainModel::Chain::kParamFunction);
  FactorTraces r = TraceRowBlockModel(&model, builder);
  ASSERT_TRUE(r.ok()) << r.error();
  const ir::FactorResult f = FactorTraced(space, r);
  ASSERT_TRUE(f.ok()) << f.error;
  // tanh(W) reads only a parameter, but the prologue computes it once per
  // request, so it is request time: e_c tanh(W) joins item and request and
  // stays in the body, which is also the only program that can read it.
  EXPECT_EQ(InstrsOfKind(f.prologue, ir::OpKind::kTanh).size(), 1u);
  EXPECT_EQ(InstrsOfKind(f.body, ir::OpKind::kBmmShared).size(), 1u);
  EXPECT_TRUE(InstrsOfKind(f.body, ir::OpKind::kTanh).empty());
  EXPECT_TRUE(f.catalog.instrs.empty());
  EXPECT_TRUE(f.table.columns.empty());

  serve::Predictor compiled(&model, &builder);
  ASSERT_TRUE(compiled.compiled_active());
  EXPECT_EQ(compiled.engine()->stats().item_values, 0u);
  serve::PredictorOptions eager_opts;
  eager_opts.use_compiled_program = false;
  serve::Predictor eager(&model, &builder, eager_opts);
  std::vector<int32_t> catalog(space.num_objects());
  std::iota(catalog.begin(), catalog.end(), 0);
  ExpectServesLikeEager(compiled, eager, TestExamples(), catalog,
                        "param function");
}

TEST(PassTest, FactorDemotesAnItemClaimWhoseTracedRowsDisagreeWithTheTable) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  ItemChainModel model(space, ItemChainModel::Chain::kCandidateOnly);
  FactorTraces r = TraceRowBlockModel(&model, builder);
  ASSERT_TRUE(r.ok()) << r.error();

  // Perturb candidate 3's traced tanh row (row 1 of the count-C trace): no
  // other trace has candidate 3, so only the table can refute it.
  const ir::Instr* traced_tanh =
      InstrsOfKind(r.tC.program, ir::OpKind::kTanh)[0];
  r.tC.value_nodes[traced_tanh->out]->value.data()[1 * 4] += 1.0f;

  const ir::FactorResult f = FactorTraced(space, r);
  ASSERT_TRUE(f.ok()) << f.error;
  // The tanh is back in the body, over the gathered projection: the
  // projection and the linear term are the table's columns now.
  EXPECT_EQ(InstrsOfKind(f.body, ir::OpKind::kTanh).size(), 1u);
  EXPECT_EQ(Kinds(f.catalog),
            (std::vector<ir::OpKind>{
                ir::OpKind::kEmbeddingGather, ir::OpKind::kBmmShared,
                ir::OpKind::kReduceAxis1, ir::OpKind::kMatMul}));
  EXPECT_EQ(Widths(f.table), (std::vector<size_t>{4, 1}));
  const ir::Instr* tanh = InstrsOfKind(f.body, ir::OpKind::kTanh)[0];
  const ir::Instr* src = DefOf(f.body, tanh->in[0]);
  ASSERT_NE(src, nullptr);
  EXPECT_EQ(src->kind, ir::OpKind::kEmbeddingGather);
  EXPECT_EQ(f.body.values[src->in[0]].kind, ir::ValueKind::kItem);
}

TEST(PassTest, FactorRequiresTheCatalogAndTheCrossProbe) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  ItemChainModel model(space, ItemChainModel::Chain::kCandidateOnly);
  FactorTraces r = TraceRowBlockModel(&model, builder);
  ASSERT_TRUE(r.ok()) << r.error();
  ir::FactorOptions no_catalog = ItemOptions(space, r);
  no_catalog.num_objects = 0;
  ir::FactorOptions no_probe = ItemOptions(space, r);
  no_probe.probe = nullptr;
  for (const ir::FactorOptions& o : {no_catalog, no_probe}) {
    const ir::FactorResult f = ir::Factor(r.t1, r.tC, r.b1, r.bC, o);
    EXPECT_NE(f.error.find("needs the catalog size and the cross-probe"),
              std::string::npos)
        << f.error;
  }
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
  const FactorTraces r = TraceRowBlockModel(&model, builder);
  EXPECT_TRUE(r.ok()) << r.error();
  ir::FactorResult f = FactorTraced(space, r);
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
  body_opts.num_slots = f.prologue.slot_outputs.size();
  body_opts.item_table = &f.table;

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
  // Each view's mean pooling (Eq. 14) is absorbed: the op writes the
  // pooled [1, d] row.
  EXPECT_EQ(f.prologue.values[att[0]->out].shape.size(), 2u);
  EXPECT_EQ(att[0]->pool_scale, 1.0f / kSeqLen);
  EXPECT_TRUE(InstrsOfKind(f.prologue, ir::OpKind::kReduceAxis1).empty());
  Status st = ir::Verify(f.prologue);
  EXPECT_TRUE(st.ok()) << st.message();

  // Body: the unmasked static view over (user, candidate), and the cross
  // view, where static rows see only history columns and history rows only
  // static ones. Each Q/K/V is read as its (user slot, candidate block
  // [, history slot]) row blocks: no concat is left to copy them.
  size_t pooled = 0;
  EXPECT_EQ(ir::FuseMaskedAttention(&f.body, &pooled), 2u);
  EXPECT_EQ(pooled, 2u);
  att = InstrsOfKind(f.body, ir::OpKind::kMaskedAttention);
  ASSERT_EQ(att.size(), 2u);
  const uint32_t n = kSeqLen + 2;
  EXPECT_EQ(att[0]->pool_scale, 1.0f / 2);
  EXPECT_EQ(att[1]->pool_scale, 1.0f / n);
  for (const ir::Instr* a : att) {
    EXPECT_EQ(f.body.values[a->out].shape,
              (std::vector<size_t>{1, SmallSeqFmConfig().embedding_dim}));
    EXPECT_TRUE(f.body.values[a->out].per_candidate);
  }
  EXPECT_EQ(att[0]->ranges, RepeatRange(2, 0, 2));
  EXPECT_EQ(att[0]->parts, (std::array<uint32_t, 3>{2, 2, 2}));
  EXPECT_EQ(att[0]->in.size(), 6u);  // no mask operand
  std::vector<uint32_t> cross = RepeatRange(2, 2, n);
  const std::vector<uint32_t> dyn_rows = RepeatRange(kSeqLen, 0, 2);
  cross.insert(cross.end(), dyn_rows.begin(), dyn_rows.end());
  EXPECT_EQ(att[1]->ranges, cross);
  EXPECT_EQ(att[1]->parts, (std::array<uint32_t, 3>{3, 3, 3}));
  // Every candidate block arrives as a gather from the item table, read by
  // the fused attention straight away.
  const auto rows = TableGathers(f.body);
  EXPECT_EQ(rows.size(), 6u);
  for (const ir::Instr* g : rows) {
    size_t readers = 0;
    for (const ir::Instr* a : att) {
      readers += std::count(a->in.begin(), a->in.end(), g->out);
    }
    EXPECT_EQ(readers, 1u) << "%" << g->out;
  }
  for (ir::OpKind gone : {ir::OpKind::kBmm, ir::OpKind::kMaskedSoftmax,
                          ir::OpKind::kConcatAxis1,
                          ir::OpKind::kReduceAxis1}) {
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

/// HandBuiltAttention(n, mask) with its [2, n, 3] rows mean-pooled by a
/// reduce_axis1 (scale 1/n), the program output.
AttentionChain PooledAttention(size_t n, const tensor::Tensor* mask) {
  AttentionChain c = HandBuiltAttention(n, mask);
  const uint32_t pooled = AddLocal(&c.p, {2, 3});
  AddInstr(&c.p, ir::OpKind::kReduceAxis1, {c.p.output}, pooled,
           1.0f / static_cast<float>(n));
  c.p.output = pooled;
  return c;
}

TEST(PassTest, FuseMaskedAttentionPoolsASoleReduceReader) {
  const tensor::Tensor mask =
      BandMask({{0, 1}, {0, 0}, {1, 4}, {2, 5}, {4, 5}});
  AttentionChain c = PooledAttention(5, &mask);
  const uint32_t out = c.p.output;
  const tensor::Tensor want = Interpret(c.p);
  size_t pooled = 0;
  ASSERT_EQ(ir::FuseMaskedAttention(&c.p, &pooled), 1u);
  EXPECT_EQ(pooled, 1u);
  ASSERT_EQ(c.p.instrs.size(), 1u);
  EXPECT_EQ(c.p.instrs[0].kind, ir::OpKind::kMaskedAttention);
  EXPECT_EQ(c.p.instrs[0].out, out);
  EXPECT_EQ(c.p.instrs[0].pool_scale, 1.0f / 5);
  const Status st = ir::Verify(c.p);
  ASSERT_TRUE(st.ok()) << st.message();
  const tensor::Tensor got = Interpret(c.p);
  ASSERT_EQ(got.size(), 2u * 3u);
  ExpectBitEqual(want.data(), got.data(), want.size(), "pooled attention");
}

TEST(PassTest, FuseMaskedAttentionKeepsTheRowsAReduceSharesWithAnotherReader) {
  // The rows' first reader is a sum_last, their last the pooling reduce.
  AttentionChain c = HandBuiltAttention(4, nullptr);
  const uint32_t rows = c.p.output;
  const uint32_t sum = AddLocal(&c.p, {2, 4, 1});
  AddInstr(&c.p, ir::OpKind::kSumLast, {rows}, sum);
  c.p.slot_outputs.push_back(sum);  // keeps the second reader live
  c.p.output = AddLocal(&c.p, {2, 3});
  AddInstr(&c.p, ir::OpKind::kReduceAxis1, {rows}, c.p.output, 0.25f);
  size_t pooled = 0;
  ASSERT_EQ(ir::FuseMaskedAttention(&c.p, &pooled), 1u);
  EXPECT_EQ(pooled, 0u);
  const auto att = InstrsOfKind(c.p, ir::OpKind::kMaskedAttention);
  ASSERT_EQ(att.size(), 1u);
  EXPECT_EQ(att[0]->out, rows);
  EXPECT_EQ(InstrsOfKind(c.p, ir::OpKind::kReduceAxis1).size(), 1u);
  const Status st = ir::Verify(c.p);
  EXPECT_TRUE(st.ok()) << st.message();
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

TEST(VerifierTest, RejectsAPooledAttentionOfTheWrongShapeOrScale) {
  AttentionChain c = PooledAttention(3, nullptr);
  ASSERT_EQ(ir::FuseMaskedAttention(&c.p), 1u);
  ASSERT_TRUE(ir::Verify(c.p).ok());
  const uint32_t out = c.p.instrs[0].out;

  ir::Program wide = c.p;
  wide.values[out].shape = {2, 4};  // dv is 3
  ExpectVerifyRejects(wide, "pooled out is not [batch, dv]");

  ir::Program rank4 = c.p;
  rank4.values[out].shape = {2, 1, 3, 1};
  ExpectVerifyRejects(rank4,
                      "out must be [batch, nq, dv] or pooled [batch, dv]");

  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity()}) {
    ir::Program scale = c.p;
    scale.instrs[0].pool_scale = bad;
    ExpectVerifyRejects(scale, "is not finite");
  }
}

/// A body that gathers its rows from a one-column [5, 3] item table by
/// candidate, and the table layout it verifies against.
struct TableGatherProgram {
  ir::Program p;
  ir::ItemTable table;
};

TableGatherProgram SmallTableGatherProgram() {
  TableGatherProgram t;
  t.table.num_objects = 5;
  t.table.columns.push_back(tensor::Tensor::Zeros({5, 3}));
  ir::Program& p = t.p;
  p.count = 2;
  p.n_static = 2;
  ir::Value col;
  col.kind = ir::ValueKind::kItem;
  col.shape = {5, 3};
  col.index = 0;
  p.values.push_back(col);
  const uint32_t rows = AddLocal(&p, {2, 1, 3});
  AddInstr(&p, ir::OpKind::kEmbeddingGather, {0}, rows);
  p.instrs.back().binding.source = ir::IndexSource::kStatic;
  p.instrs.back().binding.cols = {1};
  p.instrs.back().binding.deltas = {-5};
  p.output = rows;
  return t;
}

TEST(VerifierTest, RejectsItemTableReadsOutsideACandidateGather) {
  TableGatherProgram t = SmallTableGatherProgram();
  ir::VerifyOptions opts;
  opts.item_table = &t.table;
  const Status ok = ir::Verify(t.p, opts);
  ASSERT_TRUE(ok.ok()) << ok.message();
  ExpectVerifyRejects(t.p, "reads no item table");  // a prologue's options

  ir::Program relu = t.p;  // the table read as a tensor operand
  const uint32_t out = AddLocal(&relu, {5, 3});
  AddInstr(&relu, ir::OpKind::kRelu, {0}, out);
  ExpectVerifyRejects(relu, "outside a gather's table", opts);

  ir::Program user = t.p;  // row fetched by the user id
  user.instrs[0].binding.cols = {0};
  ExpectVerifyRejects(user, "binds a column other than the candidate", opts);

  ir::Program history = t.p;  // or by a history id
  history.n_seq = 4;
  history.instrs[0].binding.source = ir::IndexSource::kDynamic;
  ExpectVerifyRejects(history, "binds a column other than the candidate",
                      opts);
}

TEST(VerifierTest, RejectsAnItemColumnOfTheWrongWidth) {
  TableGatherProgram t = SmallTableGatherProgram();
  ir::VerifyOptions opts;
  opts.item_table = &t.table;
  t.table.columns[0] = tensor::Tensor::Zeros({5, 4});
  ExpectVerifyRejects(t.p, "item column 0 is [5, 4] but the value declares "
                           "[5, 3]", opts);
  t.p.values[0].index = 1;
  ExpectVerifyRejects(t.p, "item column 1 out of range", opts);
}

/// A count-polymorphic body: each candidate's [1, 4] row, gathered by
/// candidate and reshaped from [1, 1, 4], times a shared [4, 2] weight.
/// Every local is per-candidate; verifies clean, arena plan included.
struct PerCandidateBody {
  ir::Program p;
  uint32_t row = 0;  // the [1, 4] row, per candidate
};

uint32_t AddPerCandidate(ir::Program* p, std::vector<size_t> shape) {
  const uint32_t id = AddLocal(p, std::move(shape));
  p->values[id].per_candidate = true;
  return id;
}

PerCandidateBody SmallPerCandidateBody() {
  PerCandidateBody b;
  ir::Program& p = b.p;
  p.count = 8;
  p.n_static = 2;
  const uint32_t table = AddConstant(&p, tensor::Tensor::Ones({5, 4}));
  const uint32_t w = AddConstant(&p, tensor::Tensor::Ones({4, 2}));
  const uint32_t gathered = AddPerCandidate(&p, {1, 1, 4});
  AddInstr(&p, ir::OpKind::kEmbeddingGather, {table}, gathered);
  p.instrs.back().binding.source = ir::IndexSource::kStatic;
  p.instrs.back().binding.cols = {1};
  p.instrs.back().binding.deltas = {-5};
  b.row = AddPerCandidate(&p, {1, 4});
  AddInstr(&p, ir::OpKind::kReshape, {gathered}, b.row);
  const uint32_t score = AddPerCandidate(&p, {1, 2});
  AddInstr(&p, ir::OpKind::kMatMul, {b.row, w}, score);
  p.output = score;
  return b;
}

TEST(VerifierTest, AcceptsARowLocalPerCandidateBody) {
  PerCandidateBody b = SmallPerCandidateBody();
  ir::PlanArena(&b.p);
  ir::VerifyOptions arena;
  arena.check_arena = true;
  const Status st = ir::Verify(b.p, arena);
  EXPECT_TRUE(st.ok()) << st.message();
  // Per-candidate values live in their own region, sized per candidate.
  EXPECT_EQ(b.p.frame_floats, 0u);
  // Values under one 64-byte lane pack unpadded: the row beside its
  // gathered copy, the score over the copy once it is dead.
  EXPECT_EQ(b.p.cand_floats, 8u);
  EXPECT_EQ(b.p.FrameFloats(5), 40u);
}

TEST(VerifierTest, RejectsAReshapeThatMovesTheCountOffAxis0) {
  PerCandidateBody b = SmallPerCandidateBody();
  // [count, 4] -> [4, count]: at one candidate the sizes agree, but row b of
  // the result is no longer candidate b's.
  const uint32_t moved = AddLocal(&b.p, {4, 1});
  AddInstr(&b.p, ir::OpKind::kReshape, {b.row}, moved);
  b.p.output = moved;
  ExpectVerifyRejects(b.p, "the candidate axis leaves axis 0");
}

TEST(VerifierTest, RejectsAMatMulThatContractsOverTheCandidateAxis) {
  PerCandidateBody b = SmallPerCandidateBody();
  // ones[3, 1] x rows[count, 4] sums the candidates' rows into one [3, 4]
  // at any count above 1.
  const uint32_t lhs = AddConstant(&b.p, tensor::Tensor::Ones({3, 1}));
  const uint32_t mixed = AddLocal(&b.p, {3, 4});
  AddInstr(&b.p, ir::OpKind::kMatMul, {lhs, b.row}, mixed);
  b.p.output = mixed;
  ExpectVerifyRejects(b.p, "reads per-candidate in[1] %" +
                               std::to_string(b.row) +
                               " whole, across the candidate axis");
}

TEST(VerifierTest, RejectsACountFreeRowOperandOfAPerCandidateOp) {
  PerCandidateBody b = SmallPerCandidateBody();
  // A [1, 4] constant added to every candidate's row: the shapes agree at
  // one candidate only.
  const uint32_t c = AddConstant(&b.p, tensor::Tensor::Ones({1, 4}));
  const uint32_t sum = AddPerCandidate(&b.p, {1, 4});
  AddInstr(&b.p, ir::OpKind::kAdd, {b.row, c}, sum);
  b.p.output = sum;
  ExpectVerifyRejects(b.p, "as a row operand of a per-candidate output");
  // A per-candidate flag on a non-local value is refused outright.
  b.p.values[c].per_candidate = true;
  ExpectVerifyRejects(b.p, "only a ranked local can be per-candidate");
}

// ---------------------------------------------------------------------------
// Verifier x pipeline: for every model, each pass of the default pipeline
// leaves both factored halves verifier-clean (the same sequence — and the
// same options — Engine::Compile checks after every stage).
// ---------------------------------------------------------------------------

class VerifierPipelineTest : public ::testing::TestWithParam<std::string> {};

TEST_P(VerifierPipelineTest, EveryPassLeavesTheProgramVerifierClean) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  auto model = MakeModelByName(GetParam(), space);
  const FactorTraces r =
      TraceForFactor(model.get(), builder, TestExamples()[0], {0, 3, 7, 8});
  ASSERT_TRUE(r.ok()) << GetParam() << ": " << r.error();
  Status st = ir::Verify(r.t1.program);
  EXPECT_TRUE(st.ok()) << GetParam() << " trace(1): " << st.message();
  st = ir::Verify(r.tC.program);
  EXPECT_TRUE(st.ok()) << GetParam() << " trace(C): " << st.message();

  ir::FactorResult f = FactorTraced(space, r);
  ASSERT_TRUE(f.ok()) << GetParam() << ": " << f.error;

  ir::VerifyOptions prologue_opts;
  ir::VerifyOptions body_opts;
  body_opts.num_slots = f.prologue.slot_outputs.size();
  body_opts.item_table = &f.table;
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
                         ModelTestName);

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
  // Each fused SeqFM attention also pools in place (Eq. 14).
  if (GetParam().rfind("SeqFM", 0) == 0) {
    const ir::EngineStats es = compiled.engine()->stats();
    EXPECT_GT(es.attention_fused, 0u) << GetParam();
    EXPECT_EQ(es.attention_pooled, es.attention_fused) << GetParam();
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
  // run the one body at counts 3, 7 (and a 2-candidate tail), 8 (and a
  // 1-candidate tail) and 9, besides the main predictor's 4 and 1.
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

        // The compiled predictor's ranking reproduces the eager one
        // exactly (scores compared as bits).
        const std::vector<serve::ScoredItem> ref = eager.TopKAll(ex, 5);
        const std::vector<serve::ScoredItem> top = compiled.TopKAll(ex, 5);
        ASSERT_EQ(top.size(), ref.size()) << where;
        for (size_t i = 0; i < top.size(); ++i) {
          EXPECT_EQ(top[i].item, ref[i].item) << where << " rank=" << i;
          EXPECT_EQ(
              std::memcmp(&top[i].score, &ref[i].score, sizeof(float)), 0)
              << where << " rank=" << i;
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
                         ModelTestName);
INSTANTIATE_TEST_SUITE_P(SeqFmVariants, CompiledParityTest,
                         ::testing::ValuesIn(SeqFmVariants()),
                         ModelTestName);

// ---------------------------------------------------------------------------
// Generated shapes: compiled-vs-eager parity over seeded draws of the
// feature space, catalog size, history length, embedding dim and chunking
// ---------------------------------------------------------------------------

class GeneratedShapeParityTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(GeneratedShapeParityTest, CompiledServingMatchesEagerOnSeededShapes) {
  const std::string& name = GetParam();
  const size_t kObjects[] = {2, 3, ir::kCatalogChunk - 1, ir::kCatalogChunk,
                             ir::kCatalogChunk + 1, 0};  // 0: uniform 2-40
  const size_t kDims[] = {4, 6, 8, 12, 16};
  const size_t kMicroBatches[] = {1, 3, 4, 256};
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(util::Fnv1a64(name.data(), name.size()) + seed);
    const size_t users = static_cast<size_t>(rng.UniformInt(1, 8));
    size_t objects = kObjects[rng.UniformInt(6)];
    if (objects == 0) objects = static_cast<size_t>(rng.UniformInt(2, 40));
    const size_t seq_len = static_cast<size_t>(rng.UniformInt(1, 9));
    const size_t dim = kDims[rng.UniformInt(5)];
    const size_t micro_batch = kMicroBatches[rng.UniformInt(4)];
    const std::string where =
        name + " seed=" + std::to_string(seed) +
        " users=" + std::to_string(users) +
        " objects=" + std::to_string(objects) +
        " seq_len=" + std::to_string(seq_len) + " dim=" + std::to_string(dim) +
        " micro_batch=" + std::to_string(micro_batch);

    const data::FeatureSpace space(users, objects);
    data::BatchBuilder builder(space, seq_len);
    auto model = MakeModelByName(name, space, /*seed=*/0, dim, seq_len);
    serve::PredictorOptions opts;
    opts.micro_batch = micro_batch;
    serve::Predictor compiled(model.get(), &builder, opts);
    ASSERT_TRUE(compiled.compiled_active()) << where;
    opts.use_compiled_program = false;
    serve::Predictor eager(model.get(), &builder, opts);

    // Histories that are empty, short, and longer than seq_len.
    std::vector<data::SequenceExample> requests;
    for (size_t len : {size_t{0}, std::max<size_t>(1, seq_len / 2),
                       seq_len + 1 + static_cast<size_t>(rng.UniformInt(3))}) {
      data::SequenceExample ex;
      ex.user = static_cast<int32_t>(rng.UniformInt(users));
      ex.target = static_cast<int32_t>(rng.UniformInt(objects));
      for (size_t j = 0; j < len; ++j) {
        ex.history.push_back(static_cast<int32_t>(rng.UniformInt(objects)));
      }
      requests.push_back(std::move(ex));
    }
    std::vector<int32_t> catalog(objects);
    std::iota(catalog.begin(), catalog.end(), 0);
    ExpectServesLikeEager(compiled, eager, requests, catalog, where);
    EXPECT_TRUE(compiled.compiled_active()) << where;
  }
}

std::vector<std::string> AllModelConfigs() {
  std::vector<std::string> names = AllModels();
  names.insert(names.end(), SeqFmVariants().begin(), SeqFmVariants().end());
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllModelConfigs, GeneratedShapeParityTest,
                         ::testing::ValuesIn(AllModelConfigs()),
                         ModelTestName);

// ---------------------------------------------------------------------------
// Compiled cost at the serving shape (d=64, n=20): row-block hoisting keeps
// only the candidate row's projections and the attention per candidate, and
// the broadcast concat keeps the body's frame at 256 candidates from
// growing.
// ---------------------------------------------------------------------------

TEST(CompiledCostTest, SeqFmBodyGemmWorkPerCandidateStaysHoisted) {
  const data::FeatureSpace space = SmallSpace();
  core::SeqFmConfig cfg;  // d=64, n=20, one FFN layer: the serving shape
  data::BatchBuilder builder(space, cfg.max_seq_len);
  core::SeqFm model(space, cfg);
  std::string error;
  auto engine = ir::Engine::Compile(&model, &builder, space.num_objects(),
                                    /*max_count=*/256, &error);
  ASSERT_NE(engine, nullptr) << error;
  // 365,760 before the cross-view history/user rows were hoisted, 95,424
  // before the cross view stopped computing the 404 of its 484 (query, key)
  // pairs the mask discards, 43,712 before the candidate row's six Q/K/V
  // projections moved into the item table, 19,136 before the attention
  // rows and scores every candidate shares were computed once per chunk;
  // 17,184 now (15,232 per candidate plus 3,904 once, over 2 candidates).
  EXPECT_LE(engine->stats().body_macs_per_candidate, 17200u);
  // Six [num_objects, 64] columns.
  EXPECT_EQ(engine->stats().item_values, 6u);
  EXPECT_EQ(engine->stats().item_table_bytes,
            space.num_objects() * 6 * 64 * sizeof(float));
}

TEST(CompiledCostTest, SeqFmCount256BodyFrameDoesNotGrow) {
  const data::FeatureSpace space = SmallSpace();
  core::SeqFmConfig cfg;
  data::BatchBuilder builder(space, cfg.max_seq_len);
  core::SeqFm model(space, cfg);
  std::string error;
  auto engine = ir::Engine::Compile(&model, &builder, space.num_objects(),
                                    /*max_count=*/256, &error);
  ASSERT_NE(engine, nullptr) << error;
  const ir::Program& body = engine->body();
  EXPECT_EQ(body.count, 256u);
  EXPECT_EQ(engine->stats().body_frame_floats, body.FrameFloats(256));
  // 7,672,832 bytes before row-block hoisting and 5,411,840 before the
  // fused attention dropped the [256, 22, 22] scores and the stacked
  // [256, 22, 64] Q/K/V copies, 1,901,568 before the table gathers
  // replaced the candidate gather and its six projections, and 1,836,032
  // before the cross attention pooled in place instead of writing its
  // [256, 22, 64] rows.
  EXPECT_LE(body.FrameFloats(256) * sizeof(float), 600000u)
      << body.FrameFloats(256) * sizeof(float);
}

TEST(CompiledCostTest, EveryBodyOfAnEngineReadsTheOneItemTable) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm model(space, SmallSeqFmConfig());
  std::string error;
  auto engine = ir::Engine::Compile(&model, &builder, space.num_objects(),
                                    /*max_count=*/256, &error);
  ASSERT_NE(engine, nullptr) << error;
  const ir::ItemTable& table = engine->item_table();
  ASSERT_EQ(table.columns.size(), 6u);
  const float* storage = table.data.data();
  const ir::Program* body = &engine->body();

  const data::Batch probe =
      ServingBatch(builder, TestExamples()[0], {0});
  const std::vector<int32_t> history(probe.dynamic_ids.begin(),
                                     probe.dynamic_ids.end());
  core::SharedContext ctx;
  engine->MakeContext(probe.static_ids[0], history, &ctx);
  std::vector<int32_t> cands(256);
  for (size_t i = 0; i < cands.size(); ++i) {
    cands[i] = static_cast<int32_t>(i % space.num_objects());
  }
  std::vector<float> out(cands.size());
  for (size_t count : {1u, 3u, 5u, 7u, 256u}) {
    ASSERT_TRUE(engine->ScoreRange(ctx, cands, 0, count, out.data(), &error))
        << error;
  }
  // Every chunk size ran the one body the engine compiled, over the table
  // it built: no new body, no new storage...
  EXPECT_EQ(engine->stats().compiled_counts, 1u);
  EXPECT_EQ(&engine->body(), body);
  EXPECT_EQ(table.data.data(), storage);
  // ...which reads each column once and captured none of them by value.
  std::vector<size_t> reads(table.columns.size(), 0);
  for (const ir::Value& v : body->values) {
    if (v.kind == ir::ValueKind::kItem) ++reads[v.index];
  }
  EXPECT_EQ(reads, std::vector<size_t>(table.columns.size(), 1u));
  for (const tensor::Tensor& c : body->constants) {
    EXPECT_LT(c.size(), table.data.size());
    for (const tensor::Tensor& col : table.columns) {
      EXPECT_FALSE(c.size() == col.size() &&
                   std::memcmp(c.data(), col.data(),
                               c.size() * sizeof(float)) == 0);
    }
  }
  EXPECT_TRUE(engine->ReverifySlotAbi().ok());
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
  for (size_t count : {256u, 44u, 1u}) {
    for (int warm = 0; warm < 2; ++warm) {  // views the frame at this count
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
  // Serving alternates chunk sizes (281 candidates run as 256 + 25): the
  // one body re-views its frame per count without allocating.
  g_news.store(0);
  g_count_news.store(true);
  for (int r = 0; r < 10; ++r) {
    for (size_t count : {256u, 44u, 1u}) {
      predictor.ScoreContextRange(*ctx, ex, cands, 0, count, out.data());
    }
  }
  g_count_news.store(false);
  EXPECT_EQ(g_news.load(), 0u) << "operator new calls in alternating chunks";
  EXPECT_TRUE(predictor.compiled_active());
}

TEST(CompiledServingTest, ItemTableSpansACatalogOfSeveralChunks) {
  // The catalog program runs kCatalogChunk objects at a time; a catalog of
  // two whole chunks and a short one must fill every table row.
  const data::FeatureSpace space(5, 2 * ir::kCatalogChunk + 6);
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm model(space, SmallSeqFmConfig());
  serve::PredictorOptions opts;
  opts.micro_batch = 16;
  serve::Predictor compiled(&model, &builder, opts);
  ASSERT_TRUE(compiled.compiled_active());
  EXPECT_EQ(compiled.engine()->item_table().num_objects, space.num_objects());
  opts.use_compiled_program = false;
  serve::Predictor eager(&model, &builder, opts);
  std::vector<int32_t> catalog(space.num_objects());
  std::iota(catalog.begin(), catalog.end(), 0);
  for (const auto& ex : TestExamples()) {
    const std::vector<float> want = eager.ScoreCandidates(ex, catalog);
    const std::vector<float> got = compiled.ScoreCandidates(ex, catalog);
    ASSERT_EQ(want.size(), got.size());
    ExpectBitEqual(want.data(), got.data(), want.size(),
                   "user " + std::to_string(ex.user));
  }
  EXPECT_TRUE(compiled.compiled_active());
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

  autograd::Variable dynamic_table =
      testing_util::NamedParameter(model, "dynamic_embedding.table");
  tensor::Tensor& table = dynamic_table.mutable_value();
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

TEST(CompiledLifecycleTest, CheckpointReloadRebuildsTheItemTable) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  auto serving = MakeModelByName("SeqFM", space);
  auto trained = MakeModelByName("SeqFM", space, /*seed=*/991);
  const std::string path = TempPath("ir_item_table_reload_test.bin");
  ASSERT_TRUE(serve::Checkpoint::Save(
                  *dynamic_cast<nn::Module*>(trained.get()), path)
                  .ok());

  serve::PredictorOptions opts;
  opts.micro_batch = 4;
  serve::Predictor predictor(serving.get(), &builder, opts);
  ASSERT_TRUE(predictor.compiled_active());
  const tensor::Tensor before = predictor.engine()->item_table().data;
  ASSERT_GT(before.size(), 0u);

  ASSERT_TRUE(predictor.ReloadCheckpoint(path).ok());
  ASSERT_TRUE(predictor.compiled_active());
  // The new engine's table holds the new weights' projections...
  const tensor::Tensor& after = predictor.engine()->item_table().data;
  ASSERT_EQ(after.size(), before.size());
  EXPECT_NE(std::memcmp(after.data(), before.data(),
                        after.size() * sizeof(float)),
            0);
  // ...and serving from it matches the reloaded model's eager scores.
  std::vector<int32_t> catalog(space.num_objects());
  std::iota(catalog.begin(), catalog.end(), 0);
  autograd::NoGradGuard guard;
  for (const auto& ex : TestExamples()) {
    const std::vector<float> got = predictor.ScoreCandidates(ex, catalog);
    const data::Batch batch = ServingBatch(builder, ex, catalog);
    const autograd::Variable want = trained->Score(batch, /*training=*/false);
    ASSERT_EQ(got.size(), want.value().size());
    ExpectBitEqual(got.data(), want.value().data(), got.size(),
                   "post-reload table, user " + std::to_string(ex.user));
  }
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

// Saves a checkpoint of model \p name, reloads it with the slot wiring
// corrupted via the test hook, and asserts the predictor detected the
// miswiring, latched the compiled path off, and still serves the new
// parameters bit-exactly through the eager fallback — ScoreCandidates and
// BatchServer::Submit alike. A latched engine's AcquireContext must answer
// null (the caller then scores eagerly), never abort.
void RunCorruptedReload(ir::Engine::AbiCorruption how,
                        const std::string& name = "SeqFM") {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  auto serving = MakeModelByName(name, space);
  auto trained = MakeModelByName(name, space, /*seed=*/4242);

  const std::string path = TempPath("ir_abi_test_" + name + "_" +
                                    std::to_string(static_cast<int>(how)) +
                                    ".bin");
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

  predictor.SetReloadCorruptionHookForTest(
      [how](ir::Engine* e) { e->CorruptAbiForTest(how); });
  // The reload itself succeeds: the parameters ARE the new checkpoint.
  ASSERT_TRUE(predictor.ReloadCheckpoint(path).ok());
  // But the miswired program was caught and latched off.
  EXPECT_FALSE(predictor.compiled_active());
  const data::SequenceExample ex = TestExamples()[0];
  EXPECT_EQ(predictor.AcquireContext(ex), nullptr);

  // The fallback path serves the NEW parameters bit-exactly — degraded to
  // eager, never degraded to wrong.
  std::vector<int32_t> catalog(space.num_objects());
  std::iota(catalog.begin(), catalog.end(), 0);
  const std::vector<float> got = predictor.ScoreCandidates(ex, catalog);
  std::vector<float> want;
  {
    const data::Batch batch = ServingBatch(builder, ex, catalog);
    autograd::NoGradGuard guard;
    const autograd::Variable taped = trained->Score(batch, /*training=*/false);
    want.assign(taped.value().data(),
                taped.value().data() + taped.value().size());
  }
  ASSERT_EQ(got.size(), want.size());
  ExpectBitEqual(got.data(), want.data(), got.size(),
                 "corrupted-reload eager parity");

  serve::BatchServer server(&predictor);
  const std::vector<serve::ScoredItem> top =
      server.Submit(ex, catalog, 5).get();
  const std::vector<serve::ScoredItem> top_want =
      serve::SelectTopK(catalog, want, 5);
  ASSERT_EQ(top.size(), top_want.size());
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].item, top_want[i].item) << "rank " << i;
    ExpectBitEqual(&top[i].score, &top_want[i].score, 1,
                   "batch-served rank " + std::to_string(i));
  }
  std::remove(path.c_str());
}

}  // namespace

TEST(SlotAbiReverifyTest, ReloadCatchesOutOfRangeSlotIndex) {
  RunCorruptedReload(ir::Engine::AbiCorruption::kSlotIndex);
}

TEST(SlotAbiReverifyTest, ReloadCatchesSlotShapeMismatch) {
  RunCorruptedReload(ir::Engine::AbiCorruption::kSlotShape);
}

TEST(SlotAbiReverifyTest, ReloadCatchesAnItemColumnWidthMismatch) {
  RunCorruptedReload(ir::Engine::AbiCorruption::kItemWidth);
}

TEST(SlotAbiReverifyTest, ReloadLatchesANonSeqFmEngineToo) {
  RunCorruptedReload(ir::Engine::AbiCorruption::kSlotIndex, "FM");
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
