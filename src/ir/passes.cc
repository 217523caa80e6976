#include "ir/passes.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "ir/exec.h"
#include "ir/verify.h"
#include "util/logging.h"

namespace seqfm {
namespace ir {
namespace {

bool IsSynthesized(OpKind k) {
  return k == OpKind::kPaddingMask || k == OpKind::kHistoryMask ||
         k == OpKind::kCrossPaddingMask || k == OpKind::kZeros;
}

/// A value's binding time: what it varies with, two bits joined by OR.
/// Bit 0 is the candidate, bit 1 the request (user, history, masks), so
/// kItem and kRequest are incomparable and their join is kCandidate.
using BindingTime = uint8_t;
constexpr BindingTime kConst = 0;      // parameters and captured constants
constexpr BindingTime kItem = 1;       // the candidate alone: item table
constexpr BindingTime kRequest = 2;    // the request alone: prologue
constexpr BindingTime kCandidate = 3;  // both: body

bool PerCandidate(BindingTime t) { return (t & kItem) != 0; }

/// The binding time \p ins gives its output under \p bt (the transfer
/// function of Factor's contract, passes.h). An output without the
/// candidate bit is kRequest even when it reads only parameters, so kConst
/// marks exactly the parameters and constants and an item value's inputs
/// are ones the catalog can read.
BindingTime TimeOf(const Instr& ins, const std::vector<BindingTime>& bt) {
  if (IsSynthesized(ins.kind)) return kRequest;
  BindingTime t = kConst;
  if (IsGather(ins.kind)) {
    for (size_t j = 0; j < ins.binding.cols.size(); ++j) {
      t |= ins.binding.ColumnIsCandidate(j) ? kItem : kRequest;
    }
  }
  for (uint32_t u : ins.in) t |= bt[u];
  return PerCandidate(t) ? t : kRequest;
}

/// Instruction-level alignment between the two traces: same op, same value
/// ids (the traces share a construction order, hence an id space), same
/// scalar attributes. traced_indices and bindings are reconciled separately.
bool InstrsAlign(const Instr& a, const Instr& b) {
  return a.kind == b.kind && a.in == b.in && a.out == b.out &&
         a.alpha == b.alpha && a.eps == b.eps && a.row == b.row &&
         a.trans_a == b.trans_a && a.trans_b == b.trans_b &&
         a.causal == b.causal;
}

bool ValuesAlign(const Value& a, const Value& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case ValueKind::kParam:
      return a.param == b.param;
    case ValueKind::kConstant:
      return a.index == b.index;
    default:
      return true;  // locals may differ in shape across counts
  }
}

/// Ops that compute each axis-1 row of their rank-3 output from the same row
/// of in[0] alone, with every other input shared by all rows. For these,
/// op(ConcatAxis1(a, b)) == ConcatAxis1(op(a), op(b)) bit-for-bit: the GEMM
/// accumulates each output element over k in one fixed order whatever the
/// row count, and the others are per-row or per-element maps
/// (tensor/kernels.h). MatMul reads rank-2 values, which a ConcatAxis1
/// never produces, so the projections this matters for are all BmmShared.
bool IsRowLocal(OpKind k) {
  switch (k) {
    case OpKind::kBmmShared:
    case OpKind::kLayerNorm:
    case OpKind::kAddBias:
    case OpKind::kRelu:
    case OpKind::kSigmoid:
    case OpKind::kTanh:
    case OpKind::kScale:
    case OpKind::kAddScalar:
      return true;
    default:
      return false;
  }
}

/// A value's reference floats in one trace, read in place: the traced
/// tensor, or for a value the row-block rewrite introduced, rows [r0, r1)
/// along axis 1 of the traced tensor it was split from.
struct TracedRef {
  const tensor::Tensor* t = nullptr;
  size_t r0 = 0, r1 = 0;  // r1 == 0: the whole tensor

  /// Number of contiguous runs: one per sample of a row block, one for a
  /// whole tensor.
  size_t Runs() const { return r1 == 0 ? 1 : t->dim(0); }
  const float* Run(size_t k, size_t* len) const {
    if (r1 == 0) {
      *len = t->size();
      return t->data();
    }
    *len = (r1 - r0) * t->dim(2);
    return t->data() + (k * t->dim(1) + r0) * t->dim(2);
  }
  size_t size() const {
    size_t len = 0;
    Run(0, &len);
    return Runs() * len;
  }
  /// Rows [a, b) of this value (rank 3).
  TracedRef Block(size_t a, size_t b) const { return {t, r0 + a, r0 + b}; }
  tensor::Tensor Materialize() const {
    if (r1 == 0) return *t;
    const size_t rows = r1 - r0;
    tensor::Tensor out =
        tensor::Tensor::Uninitialized({t->dim(0), rows, t->dim(2)});
    for (size_t k = 0; k < Runs(); ++k) {
      size_t len = 0;
      const float* src = Run(k, &len);
      std::memcpy(out.data() + k * len, src, len * sizeof(float));
    }
    return out;
  }
};

/// True iff \p big is exactly \p small repeated back-to-back, bit-for-bit
/// (the shape a candidate-invariant value must take across counts). False
/// too for layouts it cannot compare in place, which only demotes.
bool TilesTo(const TracedRef& small, const TracedRef& big) {
  const size_t s = small.size();
  if (s == 0 || big.size() % s != 0 || small.Runs() != 1) return false;
  size_t len = 0;
  const float* sv = small.Run(0, &len);
  for (size_t k = 0; k < big.Runs(); ++k) {
    const float* bv = big.Run(k, &len);
    if (len % s != 0) return false;
    for (size_t off = 0; off < len; off += s) {
      if (std::memcmp(bv + off, sv, s * sizeof(float)) != 0) return false;
    }
  }
  return true;
}

/// One trace under rewriting: its program plus the reference of every
/// value.
struct RefTrace {
  Program prog;
  std::vector<TracedRef> ref;
};

/// Rewrites two aligned traces (counts 1 and C) in lockstep so that
/// candidate-invariant row blocks become values of their own:
///   1. a gather whose binding mixes the candidate column with user or
///      history columns becomes one gather per run of same-class columns,
///      joined by ConcatAxis1 into the original value id;
///   2. a row-local op (IsRowLocal) whose row operand is a ConcatAxis1 with
///      an invariant block is applied to each block and the results joined
///      by ConcatAxis1 into the original value id, recursively.
/// Decisions are structural (TimeOf as it stands mid-rewrite) and identical
/// for both traces, so the two keep one value-id space.
/// Dead instructions left behind (a concat whose consumers all moved to
/// its blocks) are removed.
class RowBlockSplitter {
 public:
  /// \p probe is another count-C trace; it only gets the references of the
  /// new blocks.
  RowBlockSplitter(RefTrace* t1, RefTrace* tC, RefTrace* probe)
      : t_{t1, tC}, probe_(probe) {}

  void Run() {
    const size_t ninstr = t_[1]->prog.instrs.size();
    const size_t nvals = t_[1]->prog.values.size();
    bt_.assign(nvals, kConst);
    concat_.assign(nvals, {kNoValue, kNoValue});
    for (size_t i = 0; i < ninstr; ++i) {
      const Instr& i1 = t_[0]->prog.instrs[i];
      const Instr& iC = t_[1]->prog.instrs[i];
      if (IsGather(iC.kind)) {
        if (!SplitGather(i1, iC)) AppendPair(i1, iC);
      } else {
        Emit(iC);
      }
    }
    for (int k = 0; k < 2; ++k) {
      t_[k]->prog.instrs = std::move(out_[k]);
      DeadCodeElim(&t_[k]->prog);
    }
  }

 private:
  size_t Rows(uint32_t v) const { return t_[1]->prog.values[v].shape[1]; }

  /// Appends a local holding rows [r0, r1) of \p whole to both traces.
  uint32_t NewRowBlock(uint32_t whole, size_t r0, size_t r1) {
    uint32_t id = kNoValue;
    for (RefTrace* t : t_) {
      Value v = t->prog.values[whole];
      v.shape[1] = r1 - r0;
      t->prog.values.push_back(std::move(v));
      t->ref.push_back(t->ref[whole].Block(r0, r1));
      id = static_cast<uint32_t>(t->prog.values.size() - 1);
    }
    probe_->ref.push_back(probe_->ref[whole].Block(r0, r1));
    bt_.push_back(kConst);
    concat_.push_back({kNoValue, kNoValue});
    return id;
  }

  void AppendPair(Instr i1, Instr iC) {
    bt_[iC.out] = TimeOf(iC, bt_);
    if (iC.kind == OpKind::kConcatAxis1) {
      concat_[iC.out] = {iC.in[0], iC.in[1]};
    }
    out_[0].push_back(std::move(i1));
    out_[1].push_back(std::move(iC));
  }

  void Append(const Instr& ins) { AppendPair(ins, ins); }

  /// True when \p v, or some ConcatAxis1 block it is built from, is
  /// candidate-invariant.
  bool HasInvariantBlock(uint32_t v) const {
    if (!PerCandidate(bt_[v])) return true;
    const auto& [a, b] = concat_[v];
    return a != kNoValue && (HasInvariantBlock(a) || HasInvariantBlock(b));
  }

  bool Pushable(const Instr& ins) const {
    if (!IsRowLocal(ins.kind) || ins.in.empty()) return false;
    const uint32_t x = ins.in[0];
    if (concat_[x].first == kNoValue || !PerCandidate(bt_[x])) return false;
    if (t_[1]->prog.values[ins.out].shape.size() != 3) return false;
    for (size_t j = 1; j < ins.in.size(); ++j) {
      if (PerCandidate(bt_[ins.in[j]])) return false;
    }
    return HasInvariantBlock(x);
  }

  void Emit(const Instr& ins) {
    if (!Pushable(ins)) {
      Append(ins);
      return;
    }
    const auto [a, b] = concat_[ins.in[0]];
    const size_t na = Rows(a), nb = Rows(b);
    Instr ia = ins;
    ia.in[0] = a;
    ia.out = NewRowBlock(ins.out, 0, na);
    Instr ib = ins;
    ib.in[0] = b;
    ib.out = NewRowBlock(ins.out, na, na + nb);
    Emit(ia);
    Emit(ib);
    Instr cat;
    cat.kind = OpKind::kConcatAxis1;
    cat.in = {ia.out, ib.out};
    cat.out = ins.out;
    Append(cat);
  }

  /// Splits a mixed-binding EmbeddingGather into one gather per run of
  /// same-class (candidate / not candidate) columns. False when the binding
  /// is not mixed.
  bool SplitGather(const Instr& g1, const Instr& gC) {
    if (gC.kind != OpKind::kEmbeddingGather) return false;
    const IndexBinding& b = gC.binding;
    const size_t n = b.cols.size();
    std::vector<size_t> starts;
    for (size_t j = 0; j < n; ++j) {
      if (j == 0 || b.ColumnIsCandidate(j) != b.ColumnIsCandidate(j - 1)) {
        starts.push_back(j);
      }
    }
    if (starts.size() < 2) return false;
    starts.push_back(n);
    uint32_t joined = kNoValue;
    for (size_t r = 0; r + 1 < starts.size(); ++r) {
      const size_t r0 = starts[r], r1 = starts[r + 1];
      Instr part[2] = {g1, gC};
      const uint32_t block = NewRowBlock(gC.out, r0, r1);
      for (Instr& p : part) {
        p.out = block;
        p.binding.cols.assign(b.cols.begin() + r0, b.cols.begin() + r1);
        p.binding.deltas.assign(b.deltas.begin() + r0, b.deltas.begin() + r1);
        std::vector<int32_t> idx;
        const size_t batch = p.traced_indices.size() / n;
        for (size_t row = 0; row < batch; ++row) {
          idx.insert(idx.end(), p.traced_indices.begin() + row * n + r0,
                     p.traced_indices.begin() + row * n + r1);
        }
        p.traced_indices = std::move(idx);
      }
      AppendPair(std::move(part[0]), std::move(part[1]));
      if (joined == kNoValue) {
        joined = block;
        continue;
      }
      Instr cat;
      cat.kind = OpKind::kConcatAxis1;
      cat.in = {joined, block};
      cat.out = r1 == n ? gC.out : NewRowBlock(gC.out, 0, r1);
      Append(cat);
      joined = cat.out;
    }
    return true;
  }

  RefTrace* t_[2];
  RefTrace* probe_;
  std::vector<Instr> out_[2];
  std::vector<BindingTime> bt_;
  std::vector<std::pair<uint32_t, uint32_t>> concat_;  // ConcatAxis1 inputs
};

/// True when \p shapeC is \p shape1 with axis 0 scaled by \p count: the
/// layout in which sample b owns the b-th run of shape1's size in floats.
bool ScalesWithCount(const std::vector<size_t>& shape1,
                     const std::vector<size_t>& shapeC, size_t count) {
  return !shape1.empty() && shape1.size() == shapeC.size() &&
         shapeC[0] == shape1[0] * count &&
         std::equal(shape1.begin() + 1, shape1.end(), shapeC.begin() + 1);
}

/// True when each sample's row of \p ref (\p width floats, one row per
/// sample of \p batch) equals its candidate's row of \p column, bit-for-bit.
bool RowsMatchTable(const TracedRef& ref, const data::Batch& batch,
                    int32_t cand_base, const tensor::Tensor& column,
                    size_t width) {
  if (ref.size() != batch.batch_size * width) return false;
  for (size_t b = 0; b < batch.batch_size; ++b) {
    const int64_t obj =
        int64_t{batch.static_ids[b * batch.n_static + 1]} - cand_base;
    if (obj < 0 || static_cast<size_t>(obj) >= column.dim(0)) return false;
    size_t len = 0;
    const float* row = ref.Runs() == 1 ? ref.Run(0, &len) + b * width
                                       : ref.Run(b, &len);
    if (ref.Runs() != 1 && len != width) return false;
    if (std::memcmp(row,
                    column.data() + static_cast<size_t>(obj) * width,
                    width * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

/// The catalog's item-value set: the item values \p columns depend on, in
/// the count-C trace's instruction order.
std::vector<uint32_t> CatalogValues(const Program& pC,
                                    const std::vector<BindingTime>& bt,
                                    const std::vector<uint32_t>& columns) {
  std::vector<char> needed(pC.values.size(), 0);
  for (uint32_t v : columns) needed[v] = 1;
  for (size_t i = pC.instrs.size(); i-- > 0;) {
    const Instr& ins = pC.instrs[i];
    if (!needed[ins.out]) continue;
    for (uint32_t u : ins.in) needed[u] = needed[u] || bt[u] == kItem;
  }
  std::vector<uint32_t> out;
  for (const Instr& ins : pC.instrs) {
    if (needed[ins.out]) out.push_back(ins.out);
  }
  return out;
}

/// Records \p v as per-candidate at its count-1 shape \p one.
void MakePerCandidate(Value* v, const std::vector<size_t>& one) {
  v->shape = one;
  v->per_candidate = true;
}

/// The planned catalog program: the instructions defining \p defined, from
/// the count-C trace, every value they define per-candidate, runnable at up
/// to \p count objects; its slot_outputs are the columns.
Program BuildCatalog(const Program& p1, const Program& pC,
                     const std::vector<uint32_t>& defined,
                     const std::vector<uint32_t>& columns, size_t count) {
  std::vector<char> keep(pC.values.size(), 0);
  for (uint32_t v : defined) keep[v] = 1;
  Program cat = pC;
  cat.instrs.clear();
  for (const Instr& ins : pC.instrs) {
    if (!keep[ins.out]) continue;
    cat.instrs.push_back(ins);
    MakePerCandidate(&cat.values[ins.out], p1.values[ins.out].shape);
  }
  cat.output = kNoValue;
  cat.slot_outputs = columns;
  cat.count = count;
  RenewIdentity(&cat);
  PlanArena(&cat);
  return cat;
}

}  // namespace

FactorResult Factor(const TraceResult& trace1, const TraceResult& traceC,
                    const data::Batch& batch1, const data::Batch& batchC,
                    const FactorOptions& options) {
  FactorResult res;
  if (traceC.program.count < 2) {
    res.error = "factor: need >= 2 candidates to disambiguate bindings";
    return res;
  }
  if (trace1.program.instrs.size() != traceC.program.instrs.size() ||
      trace1.program.values.size() != traceC.program.values.size()) {
    res.error = "factor: traces diverge in length (count-dependent control "
                "flow)";
    return res;
  }
  for (size_t i = 0; i < trace1.program.values.size(); ++i) {
    if (!ValuesAlign(trace1.program.values[i], traceC.program.values[i])) {
      res.error = "factor: value " + std::to_string(i) + " diverges";
      return res;
    }
  }

  if (options.num_objects == 0 || options.probe == nullptr ||
      options.probe_batch == nullptr) {
    res.error = "factor: needs the catalog size and the cross-probe trace";
    return res;
  }
  const TraceResult& probe = *options.probe;
  {
    const Program& pb = probe.program;
    bool aligned = pb.instrs.size() == traceC.program.instrs.size() &&
                   pb.values.size() == traceC.program.values.size();
    for (size_t i = 0; aligned && i < pb.instrs.size(); ++i) {
      aligned = pb.instrs[i].kind == traceC.program.instrs[i].kind &&
                pb.instrs[i].out == traceC.program.instrs[i].out;
    }
    for (size_t i = 0; aligned && i < pb.values.size(); ++i) {
      aligned = pb.values[i].shape == traceC.program.values[i].shape;
    }
    if (!aligned) {
      res.error = "factor: probe trace diverges from the count-C trace";
      return res;
    }
  }

  RefTrace w1, wC, wB;
  w1.prog = trace1.program;
  wC.prog = traceC.program;
  for (const autograd::NodePtr& n : trace1.value_nodes) {
    w1.ref.push_back({&n->value});
  }
  for (const autograd::NodePtr& n : traceC.value_nodes) {
    wC.ref.push_back({&n->value});
  }
  for (const autograd::NodePtr& n : probe.value_nodes) {
    wB.ref.push_back({&n->value});
  }

  // Align instructions and reconcile gather bindings. A count-1 fit can be
  // ambiguous (one row cannot separate the user and candidate columns), so
  // the count-C binding wins whenever both explain the count-1 indices.
  for (size_t i = 0; i < w1.prog.instrs.size(); ++i) {
    Instr& a = w1.prog.instrs[i];
    const Instr& b = wC.prog.instrs[i];
    if (!InstrsAlign(a, b)) {
      res.error = "factor: instr " + std::to_string(i) + " (" +
                  OpKindName(a.kind) + " vs " + OpKindName(b.kind) +
                  ") diverges";
      return res;
    }
    if (!IsGather(a.kind)) continue;
    if (a.binding != b.binding) {
      const size_t n = b.binding.cols.size();
      if (a.traced_indices.size() != batch1.batch_size * n ||
          !VerifyIndexBinding(b.binding, a.traced_indices.data(),
                              batch1.batch_size, n, batch1)) {
        res.error = "factor: gather binding at instr " + std::to_string(i) +
                    " is not count-stable";
        return res;
      }
    }
    a.binding = b.binding;
  }

  RowBlockSplitter(&w1, &wC, &wB).Run();
  const Program& p1 = w1.prog;
  const Program& pC = wC.prog;

  // Binding times, to one fixpoint: each pass derives every value's time
  // from TimeOf and the refutations so far (floor), then checks the claims
  // bit-for-bit, request-time values against tiling and columns against
  // the table. A refuted value is raised to kCandidate and the pass rerun.
  const size_t nvals = pC.values.size();
  const size_t num_objects = options.num_objects;
  std::vector<BindingTime> bt(nvals, kConst), floor(nvals, kConst);
  std::vector<char> read(nvals);
  std::vector<uint32_t> columns;
  auto scales = [&](uint32_t v) {
    if (ScalesWithCount(p1.values[v].shape, pC.values[v].shape, pC.count)) {
      return true;
    }
    res.error = "factor: value " + std::to_string(v) +
                " does not scale with the candidate count";
    return false;
  };
  for (bool raised = true; raised;) {
    raised = false;
    for (const Instr& ins : pC.instrs) {
      bt[ins.out] = TimeOf(ins, bt) | floor[ins.out];
    }
    for (const Instr& ins : pC.instrs) {
      const uint32_t v = ins.out;
      if (PerCandidate(bt[v])) continue;
      SEQFM_CHECK(w1.ref[v].t != nullptr && wC.ref[v].t != nullptr);
      if (!TilesTo(w1.ref[v], wC.ref[v])) {
        floor[v] = kCandidate;
        raised = true;
      }
    }
    if (raised) continue;
    if (pC.output == kNoValue || !PerCandidate(bt[pC.output])) {
      res.error = "factor: score is candidate-invariant";
      return res;
    }
    for (const Instr& ins : pC.instrs) {
      if (PerCandidate(bt[ins.out]) && !scales(ins.out)) return res;
    }

    // The columns: item values a kCandidate instruction or the score reads,
    // but gathers of a parameter, which stay in the body (hoisting one
    // saves nothing). The catalog computes them and what they read.
    std::fill(read.begin(), read.end(), 0);
    read[pC.output] = 1;
    for (const Instr& ins : pC.instrs) {
      if (bt[ins.out] != kCandidate) continue;
      for (uint32_t u : ins.in) read[u] = 1;
    }
    columns.clear();
    for (const Instr& ins : pC.instrs) {
      if (bt[ins.out] == kItem && read[ins.out] && !IsGather(ins.kind)) {
        columns.push_back(ins.out);
      }
    }
    res.catalog = BuildCatalog(p1, pC, CatalogValues(pC, bt, columns),
                               columns, std::min(num_objects, kCatalogChunk));
    VerifyOptions catalog_opts;
    catalog_opts.check_arena = true;
    const Status st = Verify(res.catalog, catalog_opts);
    if (!st.ok()) {
      res.error = "factor: catalog program: " + st.message();
      return res;
    }
    res.table = BuildItemTable(res.catalog, num_objects, options.cand_base,
                               options.unified_dyn_base);
    for (size_t k = 0; k < columns.size(); ++k) {
      const uint32_t v = columns[k];
      const tensor::Tensor& col = res.table.columns[k];
      const size_t w = col.dim(1);
      const int32_t base = options.cand_base;
      if (!RowsMatchTable(w1.ref[v], batch1, base, col, w) ||
          !RowsMatchTable(wC.ref[v], batchC, base, col, w) ||
          !RowsMatchTable(wB.ref[v], *options.probe_batch, base, col, w)) {
        floor[v] = kCandidate;
        raised = true;
      }
    }
  }

  // Slots: request-time locals a per-candidate instruction reads.
  // A slot only ConcatAxis1 reads is fed to it as a batch-1 operand (the
  // concat broadcasts it); any other count-C reader needs a tiled copy.
  auto broadcasts = [&](const Instr& ins, uint32_t u) {
    return ins.kind == OpKind::kConcatAxis1 &&
           p1.values[u].shape.size() == 3 && p1.values[u].shape[0] == 1;
  };
  std::vector<char> is_slot(nvals, 0);
  std::vector<char> needs_tile(nvals, 0);
  for (const Instr& ins : pC.instrs) {
    if (!PerCandidate(bt[ins.out])) continue;
    for (uint32_t u : ins.in) {
      if (PerCandidate(bt[u]) || pC.values[u].kind != ValueKind::kLocal) {
        continue;
      }
      is_slot[u] = 1;
      if (!broadcasts(ins, u)) needs_tile[u] = 1;
    }
  }
  std::vector<uint32_t> slots;
  for (uint32_t v = 0; v < nvals; ++v) {
    if (is_slot[v]) slots.push_back(v);
  }

  // Prologue: the request-time sub-program at count 1, writing the slots.
  res.prologue = p1;
  res.prologue.instrs.clear();
  for (const Instr& ins : p1.instrs) {
    if (!PerCandidate(bt[ins.out])) res.prologue.instrs.push_back(ins);
  }
  res.prologue.output = kNoValue;
  res.prologue.slot_outputs = slots;
  RenewIdentity(&res.prologue);
  for (uint32_t s : slots) res.slot_refs.push_back(w1.ref[s].Materialize());

  // Body: the per-candidate sub-program, reading the slots,
  // count-polymorphic: every per-candidate value is recorded at its count-1
  // shape, which its count-C shape scales along axis 0. Slots whose
  // non-concat count-C consumers saw the block-tiled shape get an explicit
  // kTileRows from the count-1 slot tensor, one copy per candidate.
  res.body = pC;
  res.body.instrs.clear();
  res.body.slot_outputs.clear();
  for (const Instr& ins : pC.instrs) {
    if (!PerCandidate(bt[ins.out])) continue;
    MakePerCandidate(&res.body.values[ins.out], p1.values[ins.out].shape);
  }
  std::vector<uint32_t> tiled(nvals, kNoValue);
  for (size_t pos = 0; pos < slots.size(); ++pos) {
    const uint32_t s = slots[pos];
    Value& sv = res.body.values[s];
    sv.kind = ValueKind::kSlot;
    sv.index = static_cast<uint32_t>(pos);
    sv.shape = p1.values[s].shape;
    if (pC.values[s].size() == p1.values[s].size() || !needs_tile[s]) {
      continue;
    }
    if (!scales(s)) return res;
    Value tile_val;
    MakePerCandidate(&tile_val, p1.values[s].shape);
    tiled[s] = static_cast<uint32_t>(res.body.values.size());
    res.body.values.push_back(std::move(tile_val));
    Instr tile;
    tile.kind = OpKind::kTileRows;
    tile.in = {s};
    tile.out = tiled[s];
    res.body.instrs.push_back(std::move(tile));
  }
  // Each column is gathered from the table by candidate, right before its
  // first reader: one [1, width] row per candidate, reshaped when the
  // value's own shape differs.
  std::vector<uint32_t> column_of(nvals, kNoValue);
  for (size_t k = 0; k < columns.size(); ++k) {
    column_of[columns[k]] = static_cast<uint32_t>(k);
  }
  auto gather_column = [&](uint32_t v) {
    const uint32_t k = column_of[v];
    column_of[v] = kNoValue;  // gathered once
    const size_t width = p1.values[v].size();
    Value table_val;
    table_val.kind = ValueKind::kItem;
    table_val.shape = {num_objects, width};
    table_val.index = k;
    res.body.values.push_back(std::move(table_val));
    Instr g;
    g.kind = OpKind::kEmbeddingGather;
    g.in = {static_cast<uint32_t>(res.body.values.size() - 1)};
    g.out = v;
    g.binding.source = IndexSource::kStatic;
    g.binding.cols = {1};
    g.binding.deltas = {-options.cand_base};
    const std::vector<size_t> row = {1, 1, width};
    if (res.body.values[v].shape == row) {
      res.body.instrs.push_back(std::move(g));
      return;
    }
    Value gathered;
    MakePerCandidate(&gathered, row);
    res.body.values.push_back(std::move(gathered));
    g.out = static_cast<uint32_t>(res.body.values.size() - 1);
    Instr reshape;
    reshape.kind = OpKind::kReshape;
    reshape.in = {g.out};
    reshape.out = v;
    res.body.instrs.push_back(std::move(g));
    res.body.instrs.push_back(std::move(reshape));
  };
  for (const Instr& src : pC.instrs) {
    // The catalog computes every item value but the gathers the rest of
    // the body reads.
    if (!PerCandidate(bt[src.out])) continue;
    if (bt[src.out] == kItem && !(read[src.out] && IsGather(src.kind))) {
      continue;
    }
    Instr ins = src;
    for (uint32_t& u : ins.in) {
      if (column_of[u] != kNoValue) gather_column(u);
      if (tiled[u] != kNoValue && !broadcasts(src, u)) u = tiled[u];
    }
    res.body.instrs.push_back(std::move(ins));
  }
  if (column_of[pC.output] != kNoValue) gather_column(pC.output);
  RenewIdentity(&res.body);
  return res;
}

size_t FoldConstants(Program* program) {
  // Never fold a program output or a slot output: the executor resolves both
  // through the frame's locals, so re-kinding one to kConstant would hand its
  // consumers an empty tensor. (A constant-valued slot is possible — a
  // constant subgraph feeding a candidate-variant op is selected as a slot.)
  std::vector<char> pinned(program->values.size(), 0);
  if (program->output != kNoValue) pinned[program->output] = 1;
  for (uint32_t s : program->slot_outputs) pinned[s] = 1;

  size_t folded = 0;
  std::vector<Instr> kept;
  kept.reserve(program->instrs.size());
  for (Instr& ins : program->instrs) {
    bool foldable = !pinned[ins.out] && !ins.in.empty() && !IsGather(ins.kind) &&
                    !IsSynthesized(ins.kind) && ins.kind != OpKind::kTileRows;
    for (uint32_t u : ins.in) {
      foldable = foldable &&
                 program->values[u].kind == ValueKind::kConstant;
    }
    if (!foldable) {
      kept.push_back(std::move(ins));
      continue;
    }
    std::vector<const tensor::Tensor*> in;
    in.reserve(ins.in.size());
    for (uint32_t u : ins.in) {
      in.push_back(&program->constants[program->values[u].index]);
    }
    Value& out = program->values[ins.out];
    tensor::Tensor value = tensor::Tensor::Uninitialized(out.shape);
    SEQFM_CHECK(EvalPure(ins, in, &value))
        << "unfoldable pure op " << OpKindName(ins.kind);
    out.kind = ValueKind::kConstant;
    out.index = static_cast<uint32_t>(program->constants.size());
    program->constants.push_back(std::move(value));
    ++folded;
  }
  program->instrs = std::move(kept);
  return folded;
}

size_t DeadCodeElim(Program* program) {
  std::vector<char> live(program->values.size(), 0);
  if (program->output != kNoValue) live[program->output] = 1;
  for (uint32_t s : program->slot_outputs) live[s] = 1;
  std::vector<char> keep(program->instrs.size(), 0);
  size_t removed = 0;
  for (size_t i = program->instrs.size(); i-- > 0;) {
    const Instr& ins = program->instrs[i];
    if (!live[ins.out]) {
      ++removed;
      continue;
    }
    keep[i] = 1;
    for (uint32_t u : ins.in) live[u] = 1;
  }
  if (removed > 0) {
    std::vector<Instr> kept;
    kept.reserve(program->instrs.size() - removed);
    for (size_t i = 0; i < program->instrs.size(); ++i) {
      if (keep[i]) kept.push_back(std::move(program->instrs[i]));
    }
    program->instrs = std::move(kept);
  }
  return removed;
}

size_t FuseMaskedAttention(Program* program, size_t* pooled) {
  std::vector<Instr>& instrs = program->instrs;
  const size_t nvals = program->values.size();
  std::vector<uint32_t> readers(nvals, 0);
  std::vector<size_t> def(nvals, instrs.size());
  std::vector<size_t> last_reader(nvals, instrs.size());
  for (size_t i = 0; i < instrs.size(); ++i) {
    for (uint32_t u : instrs[i].in) {
      ++readers[u];
      last_reader[u] = i;
    }
    def[instrs[i].out] = i;
  }
  if (program->output != kNoValue) ++readers[program->output];
  for (uint32_t s : program->slot_outputs) ++readers[s];

  // The instruction defining \p v when it is of \p kind and \p v has no
  // other reader than the one being fused into the attention. The counts
  // stay valid across fusions: a fused op takes over exactly the reads its
  // chain and the concats it bypasses made of the values that stay live.
  auto sole = [&](uint32_t v, OpKind kind) -> const Instr* {
    if (def[v] == instrs.size() || readers[v] != 1) return nullptr;
    return instrs[def[v]].kind == kind ? &instrs[def[v]] : nullptr;
  };
  // An operand's row blocks: ConcatAxis1 chains read by nothing else are
  // read through their inputs instead of being materialized.
  std::vector<uint32_t> parts;
  auto flatten = [&](auto&& self, uint32_t v) -> void {
    if (const Instr* cat = sole(v, OpKind::kConcatAxis1)) {
      self(self, cat->in[0]);
      self(self, cat->in[1]);
    } else {
      parts.push_back(v);
    }
  };

  size_t fused = 0;
  std::vector<char> absorbed(instrs.size(), 0);
  for (Instr& pv : instrs) {
    if (pv.kind != OpKind::kBmm || pv.trans_a || pv.trans_b) continue;
    const Instr* sm = sole(pv.in[0], OpKind::kMaskedSoftmax);
    const Instr* sc = sm ? sole(sm->in[0], OpKind::kScale) : nullptr;
    const Instr* qk = sc ? sole(sc->in[0], OpKind::kBmm) : nullptr;
    if (qk == nullptr || qk->trans_a || !qk->trans_b) continue;
    const std::vector<size_t>& scores = program->values[qk->out].shape;
    const size_t nq = scores[1], nk = scores[2];
    // Only a captured constant mask has fixed ranges; request-synthesized
    // padding masks are left to the dense chain.
    const tensor::Tensor* mask = nullptr;
    if (sm->in.size() == 2) {
      const Value& m = program->values[sm->in[1]];
      if (m.kind != ValueKind::kConstant ||
          m.shape != std::vector<size_t>{nq, nk}) {
        continue;
      }
      mask = &program->constants[m.index];
    }
    Instr att;
    if (!OpenKeyRanges(mask, nq, nk, &att.ranges)) continue;
    att.kind = OpKind::kMaskedAttention;
    att.out = pv.out;
    att.alpha = sc->alpha;
    const uint32_t operands[3] = {qk->in[0], qk->in[1], pv.in[1]};
    for (size_t j = 0; j < 3; ++j) {
      parts.clear();
      flatten(flatten, operands[j]);
      att.parts[j] = static_cast<uint32_t>(parts.size());
      att.in.insert(att.in.end(), parts.begin(), parts.end());
    }
    if (mask != nullptr) att.in.push_back(sm->in[1]);
    // A sole reduce_axis1 reader is pooled inside the attention, so the
    // [batch, nq, dv] rows are never written out and read back.
    const size_t j = last_reader[pv.out];
    if (readers[pv.out] == 1 && j < instrs.size() &&
        instrs[j].kind == OpKind::kReduceAxis1) {
      att.out = instrs[j].out;
      att.pool_scale = instrs[j].alpha;
      absorbed[j] = 1;
      if (pooled != nullptr) ++*pooled;
    }
    pv = std::move(att);
    ++fused;
  }
  size_t kept = 0;
  for (size_t i = 0; i < instrs.size(); ++i) {
    if (absorbed[i]) continue;
    if (kept != i) instrs[kept] = std::move(instrs[i]);
    ++kept;
  }
  instrs.resize(kept);
  if (fused > 0) DeadCodeElim(program);
  return fused;
}

size_t FuseElementwise(Program* program) {
  std::vector<uint32_t> consumers(program->values.size(), 0);
  for (const Instr& ins : program->instrs) {
    for (uint32_t u : ins.in) ++consumers[u];
  }
  std::vector<char> pinned(program->values.size(), 0);
  if (program->output != kNoValue) pinned[program->output] = 1;
  for (uint32_t s : program->slot_outputs) pinned[s] = 1;

  size_t fused = 0;
  for (const Instr& ins : program->instrs) {
    switch (ins.kind) {
      case OpKind::kRelu:
      case OpKind::kSigmoid:
      case OpKind::kTanh:
      case OpKind::kScale:
      case OpKind::kAddScalar:
      case OpKind::kReshape:
        break;
      default:
        continue;
    }
    const uint32_t src = ins.in[0];
    if (program->values[src].kind != ValueKind::kLocal) continue;
    if (consumers[src] != 1 || pinned[src]) continue;
    program->values[ins.out].alias_of = src;
    ++fused;
  }
  return fused;
}

void PlanArena(Program* program) {
  const size_t nvals = program->values.size();
  const size_t ninstr = program->instrs.size();
  auto root_of = [&](uint32_t v) {
    while (program->values[v].alias_of != kNoValue) {
      v = program->values[v].alias_of;
    }
    return v;
  };

  // Lifetimes per alias root: from the root's defining instruction to the
  // last instruction that reads or redefines (in place) any alias of it;
  // externally visible values live past the end of the program.
  constexpr size_t kNoDef = static_cast<size_t>(-1);
  std::vector<size_t> def(nvals, kNoDef);
  std::vector<size_t> end(nvals, 0);
  for (size_t i = 0; i < ninstr; ++i) {
    const Instr& ins = program->instrs[i];
    const uint32_t r = root_of(ins.out);
    if (def[r] == kNoDef) def[r] = i;
    end[r] = std::max(end[r], i);
    for (uint32_t u : ins.in) {
      if (program->values[u].kind != ValueKind::kLocal) continue;
      end[root_of(u)] = std::max(end[root_of(u)], i);
    }
  }
  if (program->output != kNoValue &&
      program->values[program->output].kind == ValueKind::kLocal) {
    end[root_of(program->output)] = ninstr;
  }
  for (uint32_t s : program->slot_outputs) {
    if (program->values[s].kind == ValueKind::kLocal) {
      end[root_of(s)] = ninstr;
    }
  }

  // First-fit over a merged free list, sweeping roots in definition order,
  // in three regions: count-free roots; then, in per-candidate floats,
  // per-candidate roots of whole 64-byte lanes, followed by the smaller
  // ones, which pack unaligned (FrameAlign) without breaking the lanes'
  // alignment. Every count scales the per-candidate regions as a whole, so
  // ranges disjoint at one candidate stay disjoint at any count.
  std::vector<uint32_t> order;
  for (uint32_t v = 0; v < nvals; ++v) {
    if (program->values[v].kind == ValueKind::kLocal &&
        program->values[v].alias_of == kNoValue && def[v] != kNoDef) {
      order.push_back(v);
    }
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return def[a] < def[b];
  });
  auto region_of = [](const Value& val) {
    return !val.per_candidate ? 0 : FrameAlign(val) > 1 ? 1 : 2;
  };
  struct Block {
    size_t offset;
    size_t size;
  };
  struct LiveRoot {
    size_t end;
    size_t offset;
    size_t size;
  };
  // Plans one region's roots at offsets from \p base; returns its size.
  auto plan = [&](int region, size_t base) {
    std::vector<Block> free_list;
    size_t high_water = 0;
    auto release = [&](size_t offset, size_t size) {
      Block blk{offset, size};
      auto it = std::lower_bound(
          free_list.begin(), free_list.end(), blk,
          [](const Block& a, const Block& b) { return a.offset < b.offset; });
      it = free_list.insert(it, blk);
      if (it + 1 != free_list.end() &&
          it->offset + it->size == (it + 1)->offset) {
        it->size += (it + 1)->size;
        free_list.erase(it + 1);
      }
      if (it != free_list.begin() &&
          (it - 1)->offset + (it - 1)->size == it->offset) {
        (it - 1)->size += it->size;
        free_list.erase(it);
      }
    };
    auto acquire = [&](size_t size) {
      for (auto it = free_list.begin(); it != free_list.end(); ++it) {
        if (it->size < size) continue;
        const size_t offset = it->offset;
        it->offset += size;
        it->size -= size;
        if (it->size == 0) free_list.erase(it);
        return offset;
      }
      const size_t offset = high_water;
      high_water += size;
      return offset;
    };
    std::vector<LiveRoot> active;
    for (uint32_t v : order) {
      Value& val = program->values[v];
      if (region_of(val) != region) continue;
      for (size_t i = active.size(); i-- > 0;) {
        if (active[i].end < def[v]) {
          release(active[i].offset, active[i].size);
          active.erase(active.begin() + i);
        }
      }
      const size_t size = FrameExtent(val);
      const size_t offset = acquire(size);
      val.offset = base + offset;
      active.push_back({end[v], offset, size});
    }
    return high_water;
  };
  program->frame_floats = plan(0, 0);
  const size_t lanes = plan(1, 0);
  program->cand_floats = lanes + plan(2, lanes);

  for (uint32_t v = 0; v < nvals; ++v) {
    Value& val = program->values[v];
    if (val.kind != ValueKind::kLocal) continue;
    if (val.alias_of != kNoValue) {
      val.offset = program->values[root_of(v)].offset;
    } else if (def[v] == kNoDef) {
      val.offset = kNoOffset;  // dead local (DCE removed its def)
    }
  }
}

}  // namespace ir
}  // namespace seqfm
