#include "ir/exec.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iterator>
#include <unordered_map>
#include <utility>

#include "autograd/variable.h"
#include "core/scratch_arena.h"
#include "ir/passes.h"
#include "ir/trace.h"
#include "ir/verify.h"
#include "tensor/ops.h"
#include "util/logging.h"
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
// Execution frames: one per (thread, program), sized for the program's
// largest count. The block tensor backs every planned local at its PlanArena
// offset; the index arrays are the synthesized replacements for
// BatchBuilder's per-request vectors. Sized once, reused for every request —
// a run at another count re-views the per-candidate locals in place, so the
// steady-state scoring loop allocates nothing.
// ---------------------------------------------------------------------------

struct Frame {
  tensor::Tensor block;
  std::vector<tensor::Tensor> locals;  // WrapExternal views into block
  std::vector<const tensor::Tensor*> operands;  // reserved for the max arity
  std::vector<int32_t> sids, dids, uids;
  bool needs_static = false;
  bool needs_dynamic = false;
  bool needs_unified = false;
  size_t count = 0;  // candidate count the locals are viewed at
};

struct FrameEntry {
  std::weak_ptr<const int> program_alive;  // Program::liveness
  std::unique_ptr<Frame> frame;
};

std::unordered_map<uint64_t, FrameEntry>& ThreadFrames() {
  thread_local std::unordered_map<uint64_t, FrameEntry> frames;
  return frames;
}

/// A frame sized and wired for \p prog at its largest count; FrameFor
/// caches one per thread.
std::unique_ptr<Frame> MakeFrame(const Program& prog) {
  auto frame = std::make_unique<Frame>();
  frame->block = tensor::Tensor::Uninitialized(
      {std::max<size_t>(prog.FrameFloats(prog.count), 1)});
  frame->locals.resize(prog.values.size());
  frame->count = 1;  // RunProgram re-views the per-candidate locals
  for (size_t i = 0; i < prog.values.size(); ++i) {
    const Value& v = prog.values[i];
    if (v.kind != ValueKind::kLocal || v.offset == kNoOffset) continue;
    frame->locals[i] = tensor::Tensor::WrapExternal(
        v.shape, frame->block.data() + prog.FrameOffset(v, 1), v.size());
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
  // that no longer exist (reloaded engines, failed compiles) are dropped.
  // Hits stay allocation-free.
  for (auto e = frames.begin(); e != frames.end();) {
    e = e->second.program_alive.expired() ? frames.erase(e) : std::next(e);
  }

  std::unique_ptr<Frame> frame = MakeFrame(prog);
  Frame* raw = frame.get();
  frames.emplace(prog.uid, FrameEntry{prog.liveness, std::move(frame)});
  return raw;
}

/// Views \p f's per-candidate locals at \p count candidates: axis 0 and the
/// offset scale with the count (Program::FrameOffset). Allocates nothing.
void ViewAtCount(const Program& prog, Frame* f, size_t count) {
  for (size_t i = 0; i < prog.values.size(); ++i) {
    const Value& v = prog.values[i];
    if (!v.per_candidate || v.offset == kNoOffset) continue;
    f->locals[i].RewrapExternal(
        f->block.data() + prog.FrameOffset(v, count), v.shape[0] * count);
  }
  f->count = count;
}

/// Synthesizes the BatchBuilder index layout for a serving chunk of
/// \p count rows straight into the frame arrays: every row shares (user,
/// history) and differs only in the candidate column. \p cands is one
/// object id per row (null for prologues, whose gathers provably never read
/// the candidate column).
void FillIndexArrays(const Program& prog, Frame* f, size_t count,
                     int32_t user_index, const int32_t* history,
                     const int32_t* cands, int32_t cand_base,
                     int32_t unified_dyn_base) {
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

/// Runs one program against a frame at \p count candidates (1 for
/// prologues; at most prog.count). \p slots backs kSlot reads and \p items
/// kItem reads (bodies); \p cands is the per-row candidate array (null for
/// prologues). The whole run sits inside a ScratchScope so any
/// kernel-internal scratch (the GEMM trans-A pack buffer) comes from the
/// thread arena, not the heap.
/// At count 1 a kernel that reuses batch-1 rows (MaskedAttention) treats
/// the one candidate's rows as broadcast: same bits, rows are independent.
/// A non-null \p instr_ns (one entry per instruction) accumulates each
/// instruction's wall time in nanoseconds; serving passes null.
void RunProgram(const Program& prog, Frame* f, size_t count,
                const std::vector<tensor::Tensor>* slots,
                const std::vector<tensor::Tensor>* items, int32_t user_index,
                const int32_t* history, const int32_t* cands,
                int32_t cand_base, int32_t unified_dyn_base,
                uint64_t* instr_ns = nullptr) {
  SEQFM_CHECK(count >= 1 && count <= prog.count);
  core::ScratchScope scratch_scope;
  if (f->count != count) ViewAtCount(prog, f, count);
  FillIndexArrays(prog, f, count, user_index, history, cands, cand_base,
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
  using Clock = std::chrono::steady_clock;
  for (size_t pc = 0; pc < prog.instrs.size(); ++pc) {
    const Instr& ins = prog.instrs[pc];
    const Clock::time_point start =
        instr_ns != nullptr ? Clock::now() : Clock::time_point();
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
              std::memset(dst, 0, d * sizeof(float));
              continue;
            }
            SEQFM_CHECK_LT(static_cast<size_t>(idx), vocab);
            std::memcpy(dst, tv + static_cast<size_t>(idx) * d,
                        d * sizeof(float));
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
    if (instr_ns != nullptr) {
      instr_ns[pc] += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               start)
              .count());
    }
  }
}

}  // namespace

size_t InstrMacs(const Program& prog, const Instr& ins, size_t count) {
  auto rows = [&](const Value& v) {
    return v.shape[0] * (v.per_candidate ? count : 1);
  };
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
      // Per Q, K and V row: does it come from a count-free (broadcast)
      // block?
      std::vector<char> bcast[3];
      for (size_t j = 0, t = 0; j < 3; ++j) {
        for (size_t end = t + ins.parts[j]; t < end; ++t) {
          const Value& blk = prog.values[ins.in[t]];
          bcast[j].insert(bcast[j].end(), blk.shape[1], !blk.per_candidate);
        }
      }
      const size_t batch = rows(prog.values[ins.out]);
      const size_t d = prog.values[ins.in[0]].shape[2];
      const size_t dv =
          prog.values[ins.in[ins.parts[0] + ins.parts[1]]].shape[2];
      size_t macs = 0;
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
      return macs;
    }
    default:
      return 0;
  }
  const Value& out = prog.values[ins.out];
  return out.size() / out.shape[0] * rows(out) * k;
}

namespace {

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

/// The rows a run synthesized, which start a frame's index arrays (sized
/// for the largest count), against BatchBuilder's layout for \p batch.
std::string CheckArrays(const Frame& f, const data::Batch& batch) {
  auto starts_with = [](const std::vector<int32_t>& got,
                        const std::vector<int32_t>& want) {
    return got.size() >= want.size() &&
           std::equal(want.begin(), want.end(), got.begin());
  };
  if (f.needs_static && !starts_with(f.sids, batch.static_ids)) {
    return "synthesized static ids diverge from BatchBuilder layout";
  }
  if (f.needs_dynamic && !starts_with(f.dids, batch.dynamic_ids)) {
    return "synthesized dynamic ids diverge from BatchBuilder layout";
  }
  if (f.needs_unified && !starts_with(f.uids, batch.unified_ids)) {
    return "synthesized unified ids diverge from BatchBuilder layout";
  }
  return std::string();
}

}  // namespace

ItemTable BuildItemTable(const Program& catalog, size_t num_objects,
                         int32_t cand_base, int32_t unified_dyn_base) {
  ItemTable t;
  t.num_objects = num_objects;
  if (catalog.slot_outputs.empty()) return t;
  std::vector<size_t> widths;  // per-candidate floats of each column
  size_t total = 0;
  for (uint32_t v : catalog.slot_outputs) {
    widths.push_back(catalog.values[v].size());
    total += widths.back() * num_objects;
  }
  t.data = tensor::Tensor::Uninitialized({total});
  const std::vector<int32_t> history(catalog.n_seq, -1);  // never read
  std::vector<int32_t> cands(catalog.count);
  std::unique_ptr<Frame> f = MakeFrame(catalog);
  for (size_t first = 0; first < num_objects; first += catalog.count) {
    const size_t rows = std::min(catalog.count, num_objects - first);
    for (size_t i = 0; i < rows; ++i) {
      cands[i] = static_cast<int32_t>(first + i);
    }
    RunProgram(catalog, f.get(), rows, nullptr, nullptr, /*user_index=*/0,
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
                                        size_t num_objects, size_t max_count,
                                        std::string* error) {
  SEQFM_CHECK(model != nullptr && builder != nullptr && error != nullptr);
  if (num_objects < 2) {
    *error = "compile: need >= 2 catalog objects to disambiguate the "
             "candidate column";
    return nullptr;
  }
  const data::FeatureSpace& space = builder->space();
  const size_t n = builder->max_seq_len();
  std::unique_ptr<Engine> e(new Engine());
  e->cand_base_ = space.CandidateIndex(0);
  e->unified_dyn_base_ = static_cast<int32_t>(space.static_dim());
  e->n_seq_ = n;
  e->uid_ = NextProgramUid();

  // Probe A is the request gather bindings are fitted against: user 0 and a
  // full-length history (a padded -1 column would fit ANY padding source
  // column) of nonzero ids (a history value equal to the user value makes
  // the user column ambiguous), mutually distinct whenever the catalog has
  // enough objects, so every position is identifiable by value. Probe B
  // differs in user, history and candidates: a second witness for the item
  // claims (Factor) and for the whole compiled program.
  const size_t span = num_objects - 1;  // history ids drawn from [1, objects)
  data::SequenceExample probe_a, probe_b;
  probe_b.user = space.num_users() > 1 ? 1 : 0;
  for (size_t j = 0; j < n; ++j) {
    probe_a.history.push_back(static_cast<int32_t>(1 + j % span));
    probe_b.history.push_back(static_cast<int32_t>(1 + (5 * j + 3) % span));
  }
  struct Probe {
    std::vector<int32_t> cands;
    data::Batch batch;
  };
  // \p count rows of \p ex, row i scoring object (i + shift) % num_objects.
  auto probe = [&](const data::SequenceExample& ex, size_t count,
                   size_t shift) {
    Probe p;
    for (size_t i = 0; i < count; ++i) {
      p.cands.push_back(static_cast<int32_t>((i + shift) % num_objects));
    }
    const std::vector<const data::SequenceExample*> rows(count, &ex);
    p.batch = builder->Build(rows, &p.cands);
    return p;
  };
  const Probe a1 = probe(probe_a, 1, 0);
  const Probe a2 = probe(probe_a, 2, 0);
  const Probe b2 = probe(probe_b, 2, 1);
  const Probe b3 = probe(probe_b, 3, 2);

  // Traced fresh on every compile (never against stored tensors):
  // parameters live in the model's nodes, so traces made before a
  // checkpoint reload would verify against stale values.
  TraceResult t1 = Trace(model, a1.batch);
  TraceResult t2 = Trace(model, a2.batch);
  TraceResult tb = Trace(model, b2.batch);
  for (const TraceResult* t : {&t1, &t2, &tb}) {
    if (!t->ok()) {
      *error = t->error;
      return nullptr;
    }
  }
  if (t1.program.n_static != 2 ||
      t1.program.n_unified != 2 + t1.program.n_seq) {
    *error = "compile: unexpected batch index geometry";
    return nullptr;
  }
  const VerifyOptions trace_opts;  // no slots, no arena plan yet
  if (!VerifyStage(t1.program, "trace", "count 1", trace_opts, error) ||
      !VerifyStage(t2.program, "trace", "count 2", trace_opts, error)) {
    return nullptr;
  }

  FactorOptions factor_opts;
  factor_opts.num_objects = num_objects;
  factor_opts.cand_base = e->cand_base_;
  factor_opts.unified_dyn_base = e->unified_dyn_base_;
  factor_opts.probe = &tb;
  factor_opts.probe_batch = &b2.batch;
  FactorResult f = Factor(t1, t2, a1.batch, a2.batch, factor_opts);
  if (!f.ok()) {
    *error = f.error;
    return nullptr;
  }
  // Factor is the traces' last full reader. Keep the traced scores the
  // self-checks compare against and free the rest before the passes and
  // the frames allocate.
  const tensor::Tensor traced_a1 = t1.value_nodes[f.body.output]->value;
  const tensor::Tensor traced_a2 = t2.value_nodes[f.body.output]->value;
  const tensor::Tensor traced_b2 = tb.value_nodes[f.body.output]->value;
  t1 = TraceResult();
  t2 = TraceResult();
  tb = TraceResult();
  // The body's frame holds the largest chunk, and the untraced self-check.
  f.body.count = std::max<size_t>(max_count, b3.cands.size());

  const VerifyOptions prologue_opts;
  VerifyOptions body_opts;
  body_opts.num_slots = f.prologue.slot_outputs.size();
  body_opts.item_table = &f.table;
  if (!VerifyStage(f.prologue, "factor", "prologue", prologue_opts, error) ||
      !VerifyStage(f.body, "factor", "body", body_opts, error)) {
    return nullptr;
  }
  // Belt and braces: an invariant (prologue) gather must never read the
  // candidate column — the prologue runs once per request with no candidate.
  for (const Instr& ins : f.prologue.instrs) {
    if (ins.binding.ReadsCandidate()) {
      *error = "compile: prologue gather reads the candidate column";
      return nullptr;
    }
  }

  EngineStats& st = e->stats_;
  for (Program* p : {&f.prologue, &f.body}) {
    const bool is_body = p == &f.body;
    const char* half = is_body ? "body" : "prologue";
    VerifyOptions opts = is_body ? body_opts : prologue_opts;
    st.folded += FoldConstants(p);
    if (!VerifyStage(*p, "fold_constants", half, opts, error)) return nullptr;
    st.dce_removed += DeadCodeElim(p);
    if (!VerifyStage(*p, "dead_code_elim", half, opts, error)) return nullptr;
    st.attention_fused += FuseMaskedAttention(p, &st.attention_pooled);
    if (!VerifyStage(*p, "fuse_masked_attention", half, opts, error)) {
      return nullptr;
    }
    st.fused += FuseElementwise(p);
    if (!VerifyStage(*p, "fuse_elementwise", half, opts, error)) {
      return nullptr;
    }
    PlanArena(p);
    opts.check_arena = true;
    if (!VerifyStage(*p, "plan_arena", half, opts, error)) return nullptr;
  }

  // Self-check, prologue half: replay it for both probe requests; probe A's
  // slot tensors must be the traced ones bit-for-bit, and its index arrays
  // BatchBuilder's.
  Frame* pf = FrameFor(f.prologue);
  auto run_prologue = [&](const Probe& p) {
    RunProgram(f.prologue, pf, 1, nullptr, nullptr, p.batch.static_ids[0],
               p.batch.dynamic_ids.data(), nullptr, e->cand_base_,
               e->unified_dyn_base_);
    std::vector<tensor::Tensor> slots;
    slots.reserve(f.prologue.slot_outputs.size());
    for (uint32_t id : f.prologue.slot_outputs) {
      slots.push_back(pf->locals[id]);  // deep copy
    }
    return slots;
  };
  const std::vector<tensor::Tensor> slots_a = run_prologue(a1);
  std::string arrays = CheckArrays(*pf, a1.batch);
  if (!arrays.empty()) {
    *error = "compile (prologue): " + arrays;
    return nullptr;
  }
  for (size_t pos = 0; pos < slots_a.size(); ++pos) {
    if (!BitEqual(slots_a[pos], f.slot_refs[pos])) {
      *error = "compile: prologue slot diverges from traced forward";
      return nullptr;
    }
  }
  const std::vector<tensor::Tensor> slots_b = run_prologue(b2);

  // Self-check, body half: the one body at counts 1 and 2 against the
  // traced scores, at the cross-probe request (any inference that held only
  // coincidentally at probe A dies here), and at count 3, which no trace
  // ran, against the tape-free eager forward. Bit-for-bit, with
  // BatchBuilder-identical index arrays; any mismatch keeps the model on
  // the eager path instead of silently serving wrong bits.
  tensor::Tensor eager_b3;
  {
    autograd::NoGradGuard no_grad;
    eager_b3 = model->Score(b3.batch, /*training=*/false).value();
  }
  struct BodyCheck {
    const char* what;
    const Probe& probe;
    const std::vector<tensor::Tensor>& slots;
    const tensor::Tensor& want;
  };
  const BodyCheck checks[] = {
      {"count 1", a1, slots_a, traced_a1},
      {"count 2", a2, slots_a, traced_a2},
      {"the cross-probe", b2, slots_b, traced_b2},
      {"untraced count 3", b3, slots_b, eager_b3},
  };
  Frame* bf = FrameFor(f.body);
  for (const BodyCheck& c : checks) {
    const Probe& p = c.probe;
    RunProgram(f.body, bf, p.cands.size(), &c.slots, &f.table.columns,
               p.batch.static_ids[0], p.batch.dynamic_ids.data(),
               p.cands.data(), e->cand_base_, e->unified_dyn_base_);
    arrays = CheckArrays(*bf, p.batch);
    if (!arrays.empty()) {
      *error = std::string("compile (body at ") + c.what + "): " + arrays;
      return nullptr;
    }
    if (!BitEqual(bf->locals[f.body.output], c.want)) {
      *error = std::string("compile: body output at ") + c.what +
               " diverges from the eager forward";
      return nullptr;
    }
  }

  st.prologue_instrs = f.prologue.instrs.size();
  st.body_instrs = f.body.instrs.size();
  st.slots = f.prologue.slot_outputs.size();
  st.prologue_frame_floats = f.prologue.FrameFloats(1);
  st.body_frame_floats = f.body.FrameFloats(f.body.count);
  size_t macs_at_2 = 0;
  for (const Instr& ins : f.body.instrs) macs_at_2 += InstrMacs(f.body, ins, 2);
  st.body_macs_per_candidate = macs_at_2 / 2;
  st.item_values = f.table.columns.size();
  st.item_table_bytes = f.table.bytes();
  e->prologue_ = std::move(f.prologue);
  e->body_ = std::move(f.body);
  e->items_ = std::move(f.table);
  return e;
}

void Engine::MakeContext(int32_t user_index,
                         const std::vector<int32_t>& dynamic_ids,
                         core::SharedContext* ctx) const {
  SEQFM_CHECK_EQ(dynamic_ids.size(), n_seq_);
  Frame* pf = FrameFor(prologue_);
  RunProgram(prologue_, pf, 1, nullptr, nullptr, user_index,
             dynamic_ids.data(), nullptr, cand_base_, unified_dyn_base_);
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
                        size_t end, float* out, std::string* error,
                        uint64_t* instr_ns) const {
  if (ctx.engine_uid != uid_) {
    *error = "score: context was built by a different engine";
    return false;
  }
  if (begin == end) return true;
  Frame* bf = FrameFor(body_);
  RunProgram(body_, bf, end - begin, &ctx.slots, &items_.columns,
             ctx.user_index, ctx.dynamic_ids.data(), candidates.data() + begin,
             cand_base_, unified_dyn_base_, instr_ns);
  std::memcpy(out, bf->locals[body_.output].data(),
              (end - begin) * sizeof(float));
  return true;
}

size_t ThreadFrameCount() { return ThreadFrames().size(); }

Status Engine::ReverifySlotAbi() const {
  // Verify pins every kItem value to its table column's shape and every
  // kSlot index below the slot count; what it cannot see is the shape the
  // prologue gives each slot.
  VerifyOptions opts;
  opts.num_slots = prologue_.slot_outputs.size();
  opts.item_table = &items_;
  const Status st = Verify(body_, opts);
  if (!st.ok()) return Status::Internal("slot/item ABI: " + st.message());
  for (size_t v = 0; v < body_.values.size(); ++v) {
    const Value& val = body_.values[v];
    if (val.kind == ValueKind::kSlot &&
        val.shape !=
            prologue_.values[prologue_.slot_outputs[val.index]].shape) {
      return Status::Internal("slot ABI: body value " + std::to_string(v) +
                              " expects slot " + std::to_string(val.index) +
                              " in another shape than the prologue's");
    }
  }
  return Status::OK();
}

void Engine::CorruptAbiForTest(AbiCorruption how) {
  const ValueKind kind =
      how == AbiCorruption::kItemWidth ? ValueKind::kItem : ValueKind::kSlot;
  for (Value& val : body_.values) {
    if (val.kind != kind) continue;
    switch (how) {
      case AbiCorruption::kSlotIndex:
        val.index = static_cast<uint32_t>(prologue_.slot_outputs.size()) + 7;
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
  SEQFM_CHECK(false) << "CorruptAbiForTest: the body reads no "
                     << (kind == ValueKind::kItem ? "table column" : "slot");
}

}  // namespace ir
}  // namespace seqfm
