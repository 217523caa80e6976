#include "ir/exec.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <utility>

#include "core/scratch_arena.h"
#include "ir/passes.h"
#include "ir/trace.h"
#include "ir/verify.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/ordered_mutex.h"
#include "util/thread_pool.h"

namespace seqfm {
namespace ir {

// ---------------------------------------------------------------------------
// EvalPure: one instruction through the same tensor:: forward the eager op
// it was traced from calls (src/autograd/ops_*.cc). Sharing the kernel —
// same kernel-table calls, same ParallelFor grains, same serial reductions —
// is what makes compiled scores bit-identical to the taped forward at every
// thread count and SIMD level.
// ---------------------------------------------------------------------------

bool EvalPure(const Instr& instr, const std::vector<const tensor::Tensor*>& in,
              tensor::Tensor* out) {
  switch (instr.kind) {
    case OpKind::kAdd:
      tensor::Add(*in[0], *in[1], out);
      return true;
    case OpKind::kSub:
      tensor::Sub(*in[0], *in[1], out);
      return true;
    case OpKind::kMul:
      tensor::Mul(*in[0], *in[1], out);
      return true;
    case OpKind::kScale:
      tensor::Scale(*in[0], instr.alpha, out);
      return true;
    case OpKind::kAddScalar:
      tensor::AddScalar(*in[0], instr.alpha, out);
      return true;
    case OpKind::kAddBias:
      tensor::AddBiasLastDim(*in[0], *in[1], out);
      return true;
    case OpKind::kAddBroadcastBatch:
      tensor::AddBroadcastBatch(*in[0], *in[1], out);
      return true;
    case OpKind::kRelu:
      tensor::Relu(*in[0], out);
      return true;
    case OpKind::kSigmoid:
      tensor::Sigmoid(*in[0], out);
      return true;
    case OpKind::kTanh:
      tensor::Tanh(*in[0], out);
      return true;
    case OpKind::kMatMul:
      tensor::MatMul(*in[0], *in[1], out);
      return true;
    case OpKind::kBmmShared:
      tensor::BatchedMatMulShared(*in[0], *in[1], out);
      return true;
    case OpKind::kBmm:
      tensor::BatchedMatMul(*in[0], *in[1], out, instr.trans_a, instr.trans_b);
      return true;
    case OpKind::kBmmLeftShared:
      tensor::BatchedMatMulLeftShared(*in[0], *in[1], out);
      return true;
    case OpKind::kRowDot:
      tensor::RowDot(*in[0], *in[1], out);
      return true;
    case OpKind::kMaskedSoftmax:
      tensor::SoftmaxLastDim(*in[0], in.size() > 1 ? in[1] : nullptr, out);
      return true;
    case OpKind::kLayerNorm:
      tensor::LayerNorm(*in[0], *in[1], *in[2], instr.eps, out);
      return true;
    case OpKind::kConcatLast:
      tensor::ConcatLastDim(in.data(), in.size(), out);
      return true;
    case OpKind::kConcatAxis1:
      tensor::ConcatAxis1(*in[0], *in[1], out);
      return true;
    case OpKind::kReduceAxis1:
      tensor::SumAxis1(*in[0], instr.alpha, out);
      return true;
    case OpKind::kSliceRow:
      tensor::SliceRow(*in[0], instr.row, out);
      return true;
    case OpKind::kSumLast:
      tensor::SumLastDim(*in[0], out);
      return true;
    case OpKind::kReshape:
      // A fused reshape aliases its input, and the copy is elided.
      if (out->data() != in[0]->data()) tensor::Copy(*in[0], out);
      return true;
    case OpKind::kExpandRows:
      tensor::ExpandRows(*in[0], out);
      return true;
    case OpKind::kPairwiseUpper:
      tensor::PairwiseProductUpper(*in[0], out);
      return true;
    case OpKind::kPairwiseCross:
      tensor::PairwiseProductCross(*in[0], *in[1], out);
      return true;
    case OpKind::kMaskedAttention: {
      const auto& [nq, nk, nv] = instr.parts;  // row blocks per operand
      const tensor::Tensor* const* blocks = in.data();
      tensor::MaskedAttention(
          {blocks, nq}, {blocks + nq, nk}, {blocks + nq + nk, nv},
          in.size() > size_t{nq} + nk + nv ? in.back() : nullptr,
          instr.ranges.data(), instr.alpha, instr.pool_scale, out);
      return true;
    }
    case OpKind::kEmbeddingGather:
    case OpKind::kEmbeddingSumGather:
    case OpKind::kPaddingMask:
    case OpKind::kHistoryMask:
    case OpKind::kCrossPaddingMask:
    case OpKind::kZeros:
    case OpKind::kTileRows:
      return false;
  }
  return false;
}

namespace {

// ---------------------------------------------------------------------------
// Execution frames: one per (thread, program). The block tensor backs every
// planned local at its PlanArena offset; the index arrays are the synthesized
// replacements for BatchBuilder's per-request vectors. Sized once, reused for
// every request — the steady-state scoring loop allocates nothing.
// ---------------------------------------------------------------------------

struct Frame {
  tensor::Tensor block;
  std::vector<tensor::Tensor> locals;  // WrapExternal views into block
  std::vector<const tensor::Tensor*> operands;  // reserved for the max arity
  std::vector<int32_t> sids, dids, uids;
  bool needs_static = false;
  bool needs_dynamic = false;
  bool needs_unified = false;
};

struct FrameEntry {
  std::weak_ptr<const int> program_alive;  // Program::liveness
  std::unique_ptr<Frame> frame;
};

std::unordered_map<uint64_t, FrameEntry>& ThreadFrames() {
  thread_local std::unordered_map<uint64_t, FrameEntry> frames;
  return frames;
}

/// A frame sized and wired for \p prog; FrameFor caches one per thread.
std::unique_ptr<Frame> MakeFrame(const Program& prog) {
  auto frame = std::make_unique<Frame>();
  frame->block =
      tensor::Tensor::Uninitialized({std::max<size_t>(prog.frame_floats, 1)});
  frame->locals.resize(prog.values.size());
  for (size_t i = 0; i < prog.values.size(); ++i) {
    const Value& v = prog.values[i];
    if (v.kind != ValueKind::kLocal || v.offset == kNoOffset) continue;
    frame->locals[i] = tensor::Tensor::WrapExternal(
        v.shape, frame->block.data() + v.offset, v.size());
  }
  size_t arity = 0;
  for (const Instr& ins : prog.instrs) {
    arity = std::max(arity, ins.in.size());
    switch (ins.binding.source) {
      case IndexSource::kStatic: frame->needs_static = true; break;
      case IndexSource::kDynamic: frame->needs_dynamic = true; break;
      case IndexSource::kUnified: frame->needs_unified = true; break;
      case IndexSource::kNone: break;
    }
  }
  frame->operands.reserve(arity);
  if (frame->needs_static) frame->sids.resize(prog.count * prog.n_static);
  if (frame->needs_dynamic) frame->dids.resize(prog.count * prog.n_seq);
  if (frame->needs_unified) frame->uids.resize(prog.count * prog.n_unified);
  return frame;
}

Frame* FrameFor(const Program& prog) {
  auto& frames = ThreadFrames();
  auto it = frames.find(prog.uid);
  if (it != frames.end()) return it->second.frame.get();

  // A miss is the only time the map grows, so it is when frames of programs
  // that no longer exist (reloaded engines, the losing body of a concurrent
  // compile, self-check copies) are dropped. Hits stay allocation-free.
  for (auto e = frames.begin(); e != frames.end();) {
    e = e->second.program_alive.expired() ? frames.erase(e) : std::next(e);
  }

  std::unique_ptr<Frame> frame = MakeFrame(prog);
  Frame* raw = frame.get();
  frames.emplace(prog.uid, FrameEntry{prog.liveness, std::move(frame)});
  return raw;
}

/// Synthesizes the BatchBuilder index layout for a serving chunk straight
/// into the frame arrays: every row shares (user, history) and differs only
/// in the candidate column. \p cands is one object id per row (null for
/// prologues, whose gathers provably never read the candidate column).
void FillIndexArrays(const Program& prog, Frame* f, int32_t user_index,
                     const int32_t* history, const int32_t* cands,
                     int32_t cand_base, int32_t unified_dyn_base) {
  const size_t count = prog.count;
  if (f->needs_static) {
    for (size_t b = 0; b < count; ++b) {
      int32_t* row = f->sids.data() + b * prog.n_static;
      row[0] = user_index;
      row[1] = cand_base + (cands != nullptr ? cands[b] : 0);
    }
  }
  if (f->needs_dynamic) {
    for (size_t b = 0; b < count; ++b) {
      std::memcpy(f->dids.data() + b * prog.n_seq, history,
                  prog.n_seq * sizeof(int32_t));
    }
  }
  if (f->needs_unified) {
    for (size_t b = 0; b < count; ++b) {
      int32_t* row = f->uids.data() + b * prog.n_unified;
      row[0] = user_index;
      row[1] = cand_base + (cands != nullptr ? cands[b] : 0);
      for (size_t j = 0; j < prog.n_seq; ++j) {
        const int32_t id = history[j];
        row[2 + j] = id < 0 ? -1 : unified_dyn_base + id;
      }
    }
  }
}

/// Runs one program against a frame. \p slots backs kSlot reads and
/// \p items kItem reads (bodies); \p cands is the per-row candidate array
/// (null for prologues). The whole run sits inside a ScratchScope so any
/// kernel-internal scratch (the GEMM trans-A pack buffer) comes from the
/// thread arena, not the heap.
void RunProgram(const Program& prog, Frame* f,
                const std::vector<tensor::Tensor>* slots,
                const std::vector<tensor::Tensor>* items, int32_t user_index,
                const int32_t* history, const int32_t* cands,
                int32_t cand_base, int32_t unified_dyn_base) {
  core::ScratchScope scratch_scope;
  FillIndexArrays(prog, f, user_index, history, cands, cand_base,
                  unified_dyn_base);

  auto resolve = [&](uint32_t id) -> const tensor::Tensor* {
    const Value& v = prog.values[id];
    switch (v.kind) {
      case ValueKind::kLocal: return &f->locals[id];
      case ValueKind::kParam: return &v.param->value;
      case ValueKind::kConstant: return &prog.constants[v.index];
      case ValueKind::kSlot: return &(*slots)[v.index];
      case ValueKind::kItem: return &(*items)[v.index];
    }
    return nullptr;
  };
  auto index_source = [&](const IndexBinding& b,
                          size_t* width) -> const int32_t* {
    switch (b.source) {
      case IndexSource::kStatic: *width = prog.n_static; return f->sids.data();
      case IndexSource::kDynamic: *width = prog.n_seq; return f->dids.data();
      case IndexSource::kUnified:
        *width = prog.n_unified;
        return f->uids.data();
      case IndexSource::kNone: break;
    }
    *width = 0;
    return static_cast<const int32_t*>(nullptr);
  };

  std::vector<const tensor::Tensor*>& in = f->operands;
  for (const Instr& ins : prog.instrs) {
    tensor::Tensor& out = f->locals[ins.out];
    switch (ins.kind) {
      case OpKind::kEmbeddingGather: {
        // Mirrors autograd::EmbeddingGather, with the index matrix computed
        // on the fly from the binding instead of a per-request vector.
        const tensor::Tensor& table = *resolve(ins.in[0]);
        const size_t vocab = table.dim(0), d = table.dim(1);
        const size_t batch = out.dim(0), n = out.dim(1);
        const float* tv = table.data();
        float* out_data = out.data();
        const uint32_t* cols = ins.binding.cols.data();
        const int32_t* deltas = ins.binding.deltas.data();
        size_t w = 0;
        const int32_t* src = index_source(ins.binding, &w);
        util::ParallelFor(batch * n, util::GrainForRows(d, util::kEwGrain),
                          [=](size_t i0, size_t i1) {
          for (size_t i = i0; i < i1; ++i) {
            const size_t b = i / n, j = i % n;
            const int32_t sv = src[b * w + cols[j]];
            const int32_t idx = sv < 0 ? sv : sv + deltas[j];
            float* dst = out_data + i * d;
            if (idx < 0) {  // padding -> zero row
              for (size_t c = 0; c < d; ++c) dst[c] = 0.0f;
              continue;
            }
            SEQFM_CHECK_LT(static_cast<size_t>(idx), vocab);
            const float* srow = tv + static_cast<size_t>(idx) * d;
            for (size_t c = 0; c < d; ++c) dst[c] = srow[c];
          }
        });
        break;
      }
      case OpKind::kEmbeddingSumGather: {
        const tensor::Tensor& weights = *resolve(ins.in[0]);
        const size_t vocab = weights.dim(0);
        const size_t batch = out.dim(0);
        const size_t n = ins.binding.cols.size();
        const float* wv = weights.data();
        float* out_data = out.data();
        const uint32_t* cols = ins.binding.cols.data();
        const int32_t* deltas = ins.binding.deltas.data();
        size_t w = 0;
        const int32_t* src = index_source(ins.binding, &w);
        util::ParallelFor(batch, util::GrainForRows(n, util::kEwGrain),
                          [=](size_t b0, size_t b1) {
          for (size_t b = b0; b < b1; ++b) {
            float acc = 0.0f;
            for (size_t i = 0; i < n; ++i) {
              const int32_t sv = src[b * w + cols[i]];
              const int32_t idx = sv < 0 ? sv : sv + deltas[i];
              if (idx < 0) continue;
              SEQFM_CHECK_LT(static_cast<size_t>(idx), vocab);
              acc += wv[idx];
            }
            out_data[b] = acc;
          }
        });
        break;
      }
      case OpKind::kPaddingMask: {
        const size_t n = prog.n_seq;
        MaterializeMask(ins.kind, ins.causal, 0, history,
                        out.size() / (n * n), n, out.size(), out.data());
        break;
      }
      case OpKind::kHistoryMask: {
        const size_t n = prog.n_seq;
        MaterializeMask(ins.kind, false, 0, history, out.size() / n, n,
                        out.size(), out.data());
        break;
      }
      case OpKind::kCrossPaddingMask: {
        const size_t n = prog.n_seq;
        const size_t ns = ins.row;
        const size_t block = (ns + n) * (ns + n);
        MaterializeMask(ins.kind, false, ns, history, out.size() / block, n,
                        out.size(), out.data());
        break;
      }
      case OpKind::kZeros:
        MaterializeMask(OpKind::kZeros, false, 0, history, 1, prog.n_seq,
                        out.size(), out.data());
        break;
      case OpKind::kTileRows: {
        const tensor::Tensor& src = *resolve(ins.in[0]);
        const size_t s = src.size();
        const size_t rep = out.size() / s;
        for (size_t r = 0; r < rep; ++r) {
          std::memcpy(out.data() + r * s, src.data(), s * sizeof(float));
        }
        break;
      }
      default: {
        in.clear();
        for (uint32_t u : ins.in) in.push_back(resolve(u));
        SEQFM_CHECK(EvalPure(ins, in, &out))
            << "unexecutable op " << OpKindName(ins.kind);
        break;
      }
    }
  }
}

/// Multiply-accumulates one execution of \p prog performs in its GEMM-kind
/// instructions: output size times contraction length, and for a fused
/// attention its unmasked (query, key) pairs times (d + dv) per item, except
/// the rows and score entries tensor::MaskedAttention computes once.
size_t GemmMacs(const Program& prog) {
  size_t macs = 0;
  for (const Instr& ins : prog.instrs) {
    size_t k = 0;
    switch (ins.kind) {
      case OpKind::kMatMul:     // [m, k] x [k, n]
      case OpKind::kBmmShared:  // [b, m, k] x [k, n]
        k = prog.values[ins.in[0]].shape.back();
        break;
      case OpKind::kBmm:
        k = prog.values[ins.in[0]].shape[ins.trans_a ? 1 : 2];
        break;
      case OpKind::kBmmLeftShared:  // [h2, h] x [b, h, d]
        k = prog.values[ins.in[0]].shape[1];
        break;
      case OpKind::kMaskedAttention: {
        // Per Q, K and V row: does it come from a batch-1 (broadcast) block?
        std::vector<char> bcast[3];
        for (size_t j = 0, t = 0; j < 3; ++j) {
          for (size_t end = t + ins.parts[j]; t < end; ++t) {
            const Value& blk = prog.values[ins.in[t]];
            bcast[j].insert(bcast[j].end(), blk.shape[1], blk.shape[0] == 1);
          }
        }
        const size_t batch = prog.values[ins.out].shape[0];
        const size_t d = prog.values[ins.in[0]].shape[2];
        const size_t dv =
            prog.values[ins.in[ins.parts[0] + ins.parts[1]]].shape[2];
        for (size_t r = 0; r < bcast[0].size(); ++r) {
          const size_t c0 = ins.ranges[2 * r], c1 = ins.ranges[2 * r + 1];
          size_t shared_keys = 0;  // broadcast K rows a broadcast Q row meets
          bool shared_values = true;
          for (size_t c = c0; c < c1; ++c) {
            shared_keys += bcast[0][r] && bcast[1][c];
            shared_values = shared_values && bcast[2][c];
          }
          const size_t width = c1 - c0;
          if (shared_keys == width && shared_values) {
            macs += width * (d + dv);  // the whole row, once
          } else {
            macs += shared_keys * d +
                    batch * ((width - shared_keys) * d + width * dv);
          }
        }
        continue;
      }
      default:
        continue;
    }
    macs += prog.values[ins.out].size() * k;
  }
  return macs;
}

bool BindingReadsCandidate(const IndexBinding& b) {
  if (b.source != IndexSource::kStatic && b.source != IndexSource::kUnified) {
    return false;
  }
  for (uint32_t c : b.cols) {
    if (c == 1) return true;
  }
  return false;
}

bool BitEqual(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Structural verification gate between passes: a rejected program aborts
/// the compile (the Predictor falls back to eager scoring) with a diagnostic
/// naming the pass that broke it.
bool VerifyStage(const Program& p, const char* stage, const char* half,
                 const VerifyOptions& options, std::string* error) {
  const Status st = Verify(p, options);
  if (st.ok()) return true;
  *error = std::string("verify after ") + stage + " (" + half +
           "): " + st.message();
  SEQFM_LOG(Warning) << "ir: " << *error;
  return false;
}

std::string CheckArrays(const Frame& f, const data::Batch& batch) {
  if (f.needs_static && f.sids != batch.static_ids) {
    return "synthesized static ids diverge from BatchBuilder layout";
  }
  if (f.needs_dynamic && f.dids != batch.dynamic_ids) {
    return "synthesized dynamic ids diverge from BatchBuilder layout";
  }
  if (f.needs_unified && f.uids != batch.unified_ids) {
    return "synthesized unified ids diverge from BatchBuilder layout";
  }
  return std::string();
}

}  // namespace

ItemTable BuildItemTable(const Program& catalog, size_t num_objects,
                         int32_t cand_base, int32_t unified_dyn_base) {
  ItemTable t;
  t.num_objects = num_objects;
  t.values = catalog.slot_outputs;
  if (catalog.slot_outputs.empty()) return t;
  const size_t chunk = catalog.count;
  std::vector<size_t> widths;
  size_t total = 0;
  for (uint32_t v : catalog.slot_outputs) {
    widths.push_back(catalog.values[v].size() / chunk);
    total += widths.back() * num_objects;
  }
  t.data = tensor::Tensor::Uninitialized({total});
  const std::vector<int32_t> history(catalog.n_seq, -1);  // never read
  std::vector<int32_t> cands(chunk);
  std::unique_ptr<Frame> f = MakeFrame(catalog);
  for (size_t first = 0; first < num_objects; first += chunk) {
    // A short last chunk repeats its last object; only real rows are kept.
    const size_t rows = std::min(chunk, num_objects - first);
    for (size_t i = 0; i < chunk; ++i) {
      cands[i] = static_cast<int32_t>(first + std::min(i, rows - 1));
    }
    RunProgram(catalog, f.get(), nullptr, nullptr, /*user_index=*/0,
               history.data(), cands.data(), cand_base, unified_dyn_base);
    float* column = t.data.data();
    for (size_t k = 0; k < widths.size(); ++k) {
      const size_t w = widths[k];
      std::memcpy(column + first * w,
                  f->locals[catalog.slot_outputs[k]].data(),
                  rows * w * sizeof(float));
      column += num_objects * w;
    }
  }
  float* column = t.data.data();
  for (size_t w : widths) {
    t.columns.push_back(tensor::Tensor::WrapExternal({num_objects, w}, column,
                                                     num_objects * w));
    column += num_objects * w;
  }
  return t;
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

std::unique_ptr<Engine> Engine::Compile(core::Model* model,
                                        const data::BatchBuilder* builder,
                                        size_t num_objects,
                                        std::string* error) {
  SEQFM_CHECK(model != nullptr && builder != nullptr && error != nullptr);
  if (num_objects < 2) {
    *error = "compile: need >= 2 catalog objects to disambiguate the "
             "candidate column";
    return nullptr;
  }
  std::unique_ptr<Engine> e(new Engine());
  e->model_ = model;
  e->builder_ = builder;
  e->num_objects_ = num_objects;
  // The probe history gather bindings are fitted against: full length (a
  // padded -1 column would fit ANY padding source column), nonzero ids (the
  // probe user is 0, and a history value equal to the user value makes the
  // user column ambiguous), and mutually distinct whenever the catalog has
  // enough objects, so every position is identifiable by value.
  {
    const size_t n = builder->max_seq_len();
    const size_t span = num_objects - 1;  // ids drawn from [1, num_objects)
    e->probe_history_.resize(n);
    for (size_t j = 0; j < n; ++j) {
      e->probe_history_[j] = static_cast<int32_t>(1 + (j % span));
    }
  }
  const data::FeatureSpace& space = builder->space();
  e->cand_base_ = space.CandidateIndex(0);
  e->unified_dyn_base_ = static_cast<int32_t>(space.static_dim());
  e->n_seq_ = builder->max_seq_len();
  e->uid_ = NextProgramUid();
  if (!e->CompileCount(2, /*adopt_prologue=*/true, error)) return nullptr;
  return e;
}

bool Engine::CompileCount(size_t count, bool adopt_prologue,
                          std::string* error) const {
  SEQFM_CHECK_GE(count, 2u);
  data::SequenceExample probe;
  probe.user = 0;
  probe.target = 0;
  probe.history = probe_history_;
  std::vector<const data::SequenceExample*> ex1(1, &probe);
  std::vector<const data::SequenceExample*> exC(count, &probe);
  std::vector<int32_t> ovr1 = {0};
  std::vector<int32_t> ovrC(count);
  for (size_t i = 0; i < count; ++i) {
    ovrC[i] = static_cast<int32_t>(i % num_objects_);
  }
  const data::Batch batch1 = builder_->Build(ex1, &ovr1);
  const data::Batch batchC = builder_->Build(exC, &ovrC);

  // Both counts are traced fresh on every compile (never against stored
  // tensors): parameters live in the model's nodes, so traces made before a
  // checkpoint reload would verify against stale values.
  TraceResult t1 = Trace(model_, batch1);
  if (!t1.ok()) {
    *error = t1.error;
    return false;
  }
  TraceResult tC = Trace(model_, batchC);
  if (!tC.ok()) {
    *error = tC.error;
    return false;
  }
  if (t1.program.n_static != 2 ||
      t1.program.n_unified != 2 + t1.program.n_seq) {
    *error = "compile: unexpected batch index geometry";
    return false;
  }
  const VerifyOptions trace_opts;  // no slots, no arena plan yet
  if (!VerifyStage(t1.program, "trace", "count 1", trace_opts, error) ||
      !VerifyStage(tC.program, "trace", "count C", trace_opts, error)) {
    return false;
  }

  // The cross-probe request — different user, different history, different
  // candidates. Its trace is a second witness for the item claims (Factor)
  // and, below, for the whole compiled program.
  data::SequenceExample probe_b;
  probe_b.user = builder_->space().num_users() > 1 ? 1 : 0;
  probe_b.target = 0;
  const size_t span = num_objects_ - 1;
  probe_b.history.resize(n_seq_);
  for (size_t j = 0; j < n_seq_; ++j) {
    probe_b.history[j] = static_cast<int32_t>(1 + ((5 * j + 3) % span));
  }
  std::vector<const data::SequenceExample*> exB(count, &probe_b);
  std::vector<int32_t> ovrB(count);
  for (size_t i = 0; i < count; ++i) {
    ovrB[i] = static_cast<int32_t>((i + 1) % num_objects_);
  }
  const data::Batch batchB = builder_->Build(exB, &ovrB);
  TraceResult tB = Trace(model_, batchB);
  if (!tB.ok()) {
    *error = "compile (cross-probe): " + tB.error;
    return false;
  }

  FactorOptions factor_opts;
  factor_opts.num_objects = num_objects_;
  factor_opts.cand_base = cand_base_;
  factor_opts.unified_dyn_base = unified_dyn_base_;
  factor_opts.probe = &tB;
  factor_opts.probe_batch = &batchB;
  // A later per-count compile shares the engine's table: its item claims
  // must reproduce the table's layout and hold against its rows.
  if (!adopt_prologue) factor_opts.table = &items_;
  FactorResult f = Factor(t1, tC, batch1, batchC, factor_opts);
  if (!f.ok()) {
    *error = f.error;
    return false;
  }
  // Factor is the traces' last full reader. Keep the two traced scores the
  // self-checks compare against and free the rest before the passes and
  // the frames allocate: a count-C trace is several times a body frame.
  const tensor::Tensor traced_c = tC.value_nodes[f.body.output]->value;
  const tensor::Tensor traced_b = tB.value_nodes[f.body.output]->value;
  t1 = TraceResult();
  tC = TraceResult();
  tB = TraceResult();
  const ItemTable& table = adopt_prologue ? f.table : items_;
  const VerifyOptions prologue_opts;
  VerifyOptions body_opts;
  body_opts.allow_slots = true;
  body_opts.num_slots = f.prologue.slot_outputs.size();
  body_opts.item_table = &table;
  if (!VerifyStage(f.prologue, "factor", "prologue", prologue_opts, error) ||
      !VerifyStage(f.body, "factor", "body", body_opts, error)) {
    return false;
  }
  // Belt and braces: an invariant (prologue) gather must never read the
  // candidate column — the prologue runs once per request with no candidate.
  for (const Instr& ins : f.prologue.instrs) {
    if (BindingReadsCandidate(ins.binding)) {
      *error = "compile: prologue gather reads the candidate column";
      return false;
    }
  }

  EngineStats delta;
  for (Program* p : {&f.prologue, &f.body}) {
    const bool is_body = p == &f.body;
    const char* half = is_body ? "body" : "prologue";
    VerifyOptions opts = is_body ? body_opts : prologue_opts;
    delta.folded += FoldConstants(p);
    if (!VerifyStage(*p, "fold_constants", half, opts, error)) return false;
    delta.dce_removed += DeadCodeElim(p);
    if (!VerifyStage(*p, "dead_code_elim", half, opts, error)) return false;
    delta.attention_fused += FuseMaskedAttention(p, &delta.attention_pooled);
    if (!VerifyStage(*p, "fuse_masked_attention", half, opts, error)) {
      return false;
    }
    delta.fused += FuseElementwise(p);
    if (!VerifyStage(*p, "fuse_elementwise", half, opts, error)) return false;
    PlanArena(p);
    opts.check_arena = true;
    if (!VerifyStage(*p, "plan_arena", half, opts, error)) return false;
  }

  if (!adopt_prologue) {
    // A later per-count compile must reproduce the factoring the engine was
    // built with: same slots, same prologue skeleton. Anything else means
    // cached contexts would feed the wrong tensors into this body.
    if (f.prologue.slot_outputs != prologue_.slot_outputs ||
        f.prologue.instrs.size() != prologue_.instrs.size()) {
      *error = "compile: factoring diverged across candidate counts";
      return false;
    }
    for (size_t i = 0; i < f.prologue.instrs.size(); ++i) {
      if (f.prologue.instrs[i].kind != prologue_.instrs[i].kind ||
          f.prologue.instrs[i].out != prologue_.instrs[i].out) {
        *error = "compile: factoring diverged across candidate counts";
        return false;
      }
    }
  }

  // Self-check, prologue half: replay it for the probe request and demand
  // bit-identical slot tensors and BatchBuilder-identical index arrays.
  const int32_t probe_user = batch1.static_ids[0];
  const int32_t* probe_hist = batch1.dynamic_ids.data();
  Frame* pf = FrameFor(f.prologue);
  RunProgram(f.prologue, pf, nullptr, nullptr, probe_user, probe_hist,
             nullptr, cand_base_, unified_dyn_base_);
  std::string arrays = CheckArrays(*pf, batch1);
  if (!arrays.empty()) {
    *error = "compile (prologue): " + arrays;
    return false;
  }
  std::vector<tensor::Tensor> slots;
  slots.reserve(f.prologue.slot_outputs.size());
  for (size_t pos = 0; pos < f.prologue.slot_outputs.size(); ++pos) {
    const tensor::Tensor& got = pf->locals[f.prologue.slot_outputs[pos]];
    if (!BitEqual(got, f.slot_refs[pos])) {
      *error = "compile: prologue slot diverges from traced forward";
      return false;
    }
    slots.push_back(got);  // deep copy
  }

  // Self-check, body half: replay it over the probe candidates against the
  // freshly computed slots and demand the traced scores, bit-for-bit.
  Frame* bf = FrameFor(f.body);
  RunProgram(f.body, bf, &slots, &table.columns, probe_user, probe_hist,
             ovrC.data(), cand_base_, unified_dyn_base_);
  arrays = CheckArrays(*bf, batchC);
  if (!arrays.empty()) {
    *error = "compile (body): " + arrays;
    return false;
  }
  if (!BitEqual(bf->locals[f.body.output], traced_c)) {
    *error = "compile: body output diverges from traced forward";
    return false;
  }

  // Cross-probe verification: the gather bindings, captured constants, and
  // the invariant/variant split were all inferred from probe A. Replay the
  // compiled halves end-to-end for the SECOND request and demand its traced
  // scores bit-for-bit. Any inference that held only coincidentally at
  // probe A dies here, so the Predictor falls back to the eager path
  // instead of silently serving wrong bits.
  {
    const int32_t user_b = batchB.static_ids[0];
    const int32_t* hist_b = batchB.dynamic_ids.data();
    RunProgram(f.prologue, pf, nullptr, nullptr, user_b, hist_b, nullptr,
               cand_base_, unified_dyn_base_);
    std::vector<tensor::Tensor> slots_b;
    slots_b.reserve(f.prologue.slot_outputs.size());
    for (uint32_t id : f.prologue.slot_outputs) {
      slots_b.push_back(pf->locals[id]);
    }
    RunProgram(f.body, bf, &slots_b, &table.columns, user_b, hist_b,
               ovrB.data(), cand_base_, unified_dyn_base_);
    arrays = CheckArrays(*bf, batchB);
    if (!arrays.empty()) {
      *error = "compile (cross-probe body): " + arrays;
      return false;
    }
    if (!BitEqual(bf->locals[f.body.output], traced_b)) {
      *error = "compile: compiled program does not generalize across "
               "requests (cross-probe output mismatch)";
      return false;
    }
  }

  // Publication is the only part of a compile that needs the engine lock.
  // Everything above (tracing, passes, self-checks) runs lock-free: tracing
  // takes the thread pool's region lock via ParallelFor, and ScoreRange is
  // itself called from inside pool regions, so holding mu_ across the heavy
  // work would invert the pool/engine lock order (see ordered_mutex.h).
  {
    util::OrderedMutexLock lock(mu_);
    if (adopt_prologue) {
      stats_.prologue_instrs = f.prologue.instrs.size();
      stats_.body_instrs = f.body.instrs.size();
      stats_.slots = f.prologue.slot_outputs.size();
      stats_.prologue_frame_floats = f.prologue.frame_floats;
      stats_.body_frame_floats = f.body.frame_floats;
      stats_.body_macs_per_candidate = GemmMacs(f.body) / count;
      prologue_ = std::move(f.prologue);
      items_ = std::move(f.table);
      stats_.item_values = items_.columns.size();
      stats_.item_table_bytes = items_.bytes();
    }
    if (bodies_.find(count) == bodies_.end()) {
      stats_.folded += delta.folded;
      stats_.dce_removed += delta.dce_removed;
      stats_.fused += delta.fused;
      stats_.attention_fused += delta.attention_fused;
      stats_.attention_pooled += delta.attention_pooled;
      stats_.compiled_counts += 1;
      bodies_[count] = std::make_unique<Program>(std::move(f.body));
    }
    // else: a concurrent ScoreRange compiled this count first. Both compiles
    // trace the same deterministic model, so the programs are equivalent;
    // keeping the first insertion keeps frame uids stable.
  }
  return true;
}

void Engine::MakeContext(int32_t user_index,
                         const std::vector<int32_t>& dynamic_ids,
                         core::SharedContext* ctx) const {
  SEQFM_CHECK_EQ(dynamic_ids.size(), n_seq_);
  Frame* pf = FrameFor(prologue_);
  RunProgram(prologue_, pf, nullptr, nullptr, user_index, dynamic_ids.data(),
             nullptr, cand_base_, unified_dyn_base_);
  ctx->slots.clear();
  ctx->slots.reserve(prologue_.slot_outputs.size());
  for (uint32_t id : prologue_.slot_outputs) {
    ctx->slots.push_back(pf->locals[id]);  // deep copy: outlives the frame
  }
  ctx->engine_uid = uid_;
  ctx->user_index = user_index;
  ctx->dynamic_ids = dynamic_ids;
}

bool Engine::ScoreRange(const core::SharedContext& ctx,
                        const std::vector<int32_t>& candidates, size_t begin,
                        size_t end, float* out, std::string* error) const {
  const size_t count = end - begin;
  if (count == 0) return true;
  if (ctx.engine_uid != uid_) {
    *error = "score: context was built by a different engine";
    return false;
  }
  // Bodies are specialized to >= 2 candidates (compile needs two distinct
  // probes); a single-candidate chunk rides the count-2 body with the
  // candidate doubled. Rows are independent in every op, so row 0's bits
  // match the single-row program exactly.
  const size_t body_count = std::max<size_t>(count, 2);
  int32_t padded[2];
  const int32_t* cands = candidates.data() + begin;
  if (count == 1) {
    padded[0] = padded[1] = candidates[begin];
    cands = padded;
  }

  // Look up the body under the lock, but never compile under it: a wave
  // chunk task calling in here already holds the pool's region lock, and a
  // fresh compile takes that same lock through tracing's ParallelFor — the
  // old hold-mu_-across-compile shape deadlocked against exactly that.
  // Losing a duplicate-compile race costs one discarded program, not bits.
  const Program* body = nullptr;
  {
    util::OrderedMutexLock lock(mu_);
    auto it = bodies_.find(body_count);
    if (it != bodies_.end()) body = it->second.get();
  }
  if (body == nullptr) {
    if (!CompileCount(body_count, /*adopt_prologue=*/false, error)) {
      return false;
    }
    util::OrderedMutexLock lock(mu_);
    auto it = bodies_.find(body_count);
    SEQFM_CHECK(it != bodies_.end());
    body = it->second.get();  // unique_ptr target: stable after unlock
  }

  Frame* bf = FrameFor(*body);
  RunProgram(*body, bf, &ctx.slots, &items_.columns, ctx.user_index,
             ctx.dynamic_ids.data(), cands, cand_base_, unified_dyn_base_);
  std::memcpy(out, bf->locals[body->output].data(), count * sizeof(float));
  return true;
}

size_t ThreadFrameCount() { return ThreadFrames().size(); }

const Program* Engine::body(size_t count) const {
  util::OrderedMutexLock lock(mu_);
  auto it = bodies_.find(count);
  return it == bodies_.end() ? nullptr : it->second.get();
}

EngineStats Engine::stats() const {
  util::OrderedMutexLock lock(mu_);
  return stats_;
}

Status Engine::ReverifySlotAbi() const {
  util::OrderedMutexLock lock(mu_);
  auto shape_str = [](const std::vector<size_t>& s) {
    std::string r = "[";
    for (size_t i = 0; i < s.size(); ++i) {
      if (i) r += ", ";
      r += std::to_string(s[i]);
    }
    return r + "]";
  };
  const size_t slots = prologue_.slot_outputs.size();
  const size_t columns = items_.columns.size();
  for (const auto& [count, body] : bodies_) {
    const std::string where = "body for count " + std::to_string(count);
    for (size_t v = 0; v < body->values.size(); ++v) {
      const Value& val = body->values[v];
      const std::string value = " value " + std::to_string(v);
      if (val.kind == ValueKind::kItem) {
        if (val.index >= columns) {
          return Status::Internal(
              "item ABI: " + where + value + " reads column " +
              std::to_string(val.index) + " but the item table has only " +
              std::to_string(columns) + " columns");
        }
        const std::vector<size_t>& want = items_.columns[val.index].shape();
        if (val.shape != want) {
          return Status::Internal(
              "item ABI: " + where + value + " expects column " +
              std::to_string(val.index) + " with shape " +
              shape_str(val.shape) + " but the item table holds " +
              shape_str(want));
        }
        continue;
      }
      if (val.kind != ValueKind::kSlot) continue;
      if (val.index >= slots) {
        return Status::Internal(
            "slot ABI: " + where + value + " reads slot " +
            std::to_string(val.index) + " but the prologue produces only " +
            std::to_string(slots) + " slots");
      }
      const Value& produced =
          prologue_.values[prologue_.slot_outputs[val.index]];
      if (val.shape != produced.shape) {
        return Status::Internal(
            "slot ABI: " + where + value + " expects slot " +
            std::to_string(val.index) + " with shape " +
            shape_str(val.shape) + " but the prologue produces " +
            shape_str(produced.shape));
      }
    }
  }
  return Status::OK();
}

void Engine::CorruptAbiForTest(AbiCorruption how) {
  util::OrderedMutexLock lock(mu_);
  const ValueKind kind =
      how == AbiCorruption::kItemWidth ? ValueKind::kItem : ValueKind::kSlot;
  for (auto& [count, body] : bodies_) {
    (void)count;
    for (Value& val : body->values) {
      if (val.kind != kind) continue;
      switch (how) {
        case AbiCorruption::kSlotIndex:
          val.index =
              static_cast<uint32_t>(prologue_.slot_outputs.size()) + 7;
          break;
        case AbiCorruption::kSlotShape:
          val.shape.push_back(3);
          break;
        case AbiCorruption::kItemWidth:
          val.shape.back() += 1;
          break;
      }
      return;
    }
  }
  SEQFM_CHECK(false) << "CorruptAbiForTest: no compiled body reads a "
                     << (kind == ValueKind::kItem ? "table column" : "slot");
}

}  // namespace ir
}  // namespace seqfm
