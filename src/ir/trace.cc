#include "ir/trace.h"

#include <cstring>
#include <unordered_map>
#include <utility>

#include "autograd/trace.h"
#include "util/logging.h"

namespace seqfm {
namespace ir {

namespace {

/// Constant-annotation tags. TraceAnnotateConstant stores these in Node::op
/// (empty for ordinary leaves), so classification survives the gap between
/// model construction and the first trace.
constexpr const char kTagCapture[] = "const:capture";
constexpr const char kTagPaddingMask[] = "const:padding_mask";
constexpr const char kTagPaddingMaskCausal[] = "const:padding_mask_causal";
constexpr const char kTagHistoryMask[] = "const:history_mask";
constexpr const char kTagCrossPaddingMask[] = "const:cross_padding_mask";
constexpr const char kTagZeroState[] = "const:zero_state";

bool OpKindFromName(const std::string& name, OpKind* kind, float* alpha_sign) {
  struct Entry {
    const char* name;
    OpKind kind;
  };
  static const Entry kTable[] = {
      {"add", OpKind::kAdd},
      {"sub", OpKind::kSub},
      {"mul", OpKind::kMul},
      {"scale", OpKind::kScale},
      {"add_scalar", OpKind::kAddScalar},
      {"add_bias", OpKind::kAddBias},
      {"add_broadcast_batch", OpKind::kAddBroadcastBatch},
      {"relu", OpKind::kRelu},
      {"sigmoid", OpKind::kSigmoid},
      {"tanh", OpKind::kTanh},
      {"matmul", OpKind::kMatMul},
      {"bmm_shared", OpKind::kBmmShared},
      {"bmm", OpKind::kBmm},
      {"bmm_left_shared", OpKind::kBmmLeftShared},
      {"row_dot", OpKind::kRowDot},
      {"masked_softmax", OpKind::kMaskedSoftmax},
      {"layer_norm", OpKind::kLayerNorm},
      {"concat_last", OpKind::kConcatLast},
      {"concat_axis1", OpKind::kConcatAxis1},
      {"mean_axis1", OpKind::kReduceAxis1},
      {"sum_axis1", OpKind::kReduceAxis1},
      {"slice_row", OpKind::kSliceRow},
      {"sum_last", OpKind::kSumLast},
      {"reshape", OpKind::kReshape},
      {"expand_rows", OpKind::kExpandRows},
      {"pairwise_upper", OpKind::kPairwiseUpper},
      {"pairwise_cross", OpKind::kPairwiseCross},
      {"embedding_gather", OpKind::kEmbeddingGather},
      {"embedding_sum_gather", OpKind::kEmbeddingSumGather},
  };
  (void)alpha_sign;
  for (const Entry& e : kTable) {
    if (name == e.name) {
      *kind = e.kind;
      return true;
    }
  }
  return false;
}

/// Checks \p binding against an observed index matrix [batch, n] and the
/// request arrays it claims to derive from. Negative entries mean padding to
/// every gather, so they only need to agree in sign.
bool BindingMatches(const IndexBinding& binding, const int32_t* idx,
                    size_t batch, size_t n, const data::Batch& src_batch) {
  const std::vector<int32_t>* src = nullptr;
  size_t w = 0;
  switch (binding.source) {
    case IndexSource::kDynamic:
      src = &src_batch.dynamic_ids;
      w = src_batch.n_seq;
      break;
    case IndexSource::kStatic:
      src = &src_batch.static_ids;
      w = src_batch.n_static;
      break;
    case IndexSource::kUnified:
      src = &src_batch.unified_ids;
      w = src_batch.n_unified;
      break;
    case IndexSource::kNone:
      return false;
  }
  if (binding.cols.size() != n || binding.deltas.size() != n) return false;
  if (src->size() != batch * w) return false;
  for (size_t j = 0; j < n; ++j) {
    if (binding.cols[j] >= w) return false;
    for (size_t b = 0; b < batch; ++b) {
      const int32_t s = (*src)[b * w + binding.cols[j]];
      const int32_t v = idx[b * n + j];
      if (s < 0 ? v >= 0 : v != s + binding.deltas[j]) return false;
    }
  }
  return true;
}

/// The recording sink MakeNode reports into (one per tracing thread).
struct TraceSink {
  Program prog;
  std::vector<autograd::NodePtr> value_nodes;
  std::unordered_map<const autograd::Node*, uint32_t> ids;
  const data::Batch* batch = nullptr;
  std::string error;

  void Fail(const std::string& why) {
    if (error.empty()) error = why;
  }

  uint32_t NewValue(ValueKind kind, std::vector<size_t> shape,
                    autograd::NodePtr node) {
    Value v;
    v.kind = kind;
    v.shape = std::move(shape);
    v.offset = kNoOffset;
    prog.values.push_back(std::move(v));
    value_nodes.push_back(std::move(node));
    return static_cast<uint32_t>(prog.values.size() - 1);
  }

  /// Fits one gather's index matrix to a request array, trying sources in a
  /// fixed priority so repeated traces of one model pick the same binding.
  bool FitBinding(const int32_t* idx, size_t batch_rows, size_t n,
                  IndexBinding* out) const {
    if (batch_rows != batch->batch_size || n == 0) return false;
    const struct {
      IndexSource source;
      const std::vector<int32_t>* arr;
      size_t w;
    } kSources[] = {
        {IndexSource::kDynamic, &batch->dynamic_ids, batch->n_seq},
        {IndexSource::kStatic, &batch->static_ids, batch->n_static},
        {IndexSource::kUnified, &batch->unified_ids, batch->n_unified},
    };
    // Two fitting passes: a source whose every column fits with delta 0
    // (direct reads — the overwhelmingly common case) always beats one that
    // needs free deltas. Without the preference, CONSTANT index columns (the
    // user id, say) would fit any constant source column via an arbitrary
    // delta — a fit that holds at the probe request and reads garbage at
    // serving. Within a pass, columns are tried tail-aligned first (c = j +
    // w - n, the natural position when a gather reads a suffix of a wider
    // array), then identity (c = j), then left-to-right, so columns with
    // repeated probe values still bind positionally.
    for (const bool require_zero_delta : {true, false}) {
      for (const auto& s : kSources) {
        if (s.w == 0 || s.arr->size() != batch_rows * s.w) continue;
        IndexBinding binding;
        binding.source = s.source;
        binding.cols.assign(n, 0);
        binding.deltas.assign(n, 0);
        bool all_fit = true;
        for (size_t j = 0; j < n && all_fit; ++j) {
          bool col_found = false;
          auto try_col = [&](size_t c) {
            if (col_found || c >= s.w) return;
            // Delta from the first row where both sides are non-padding.
            int32_t delta = 0;
            bool have_delta = false;
            for (size_t b = 0; b < batch_rows; ++b) {
              const int32_t sv = (*s.arr)[b * s.w + c];
              const int32_t iv = idx[b * n + j];
              if (sv < 0 || iv < 0) {
                if ((sv < 0) != (iv < 0)) return;
                continue;
              }
              if (!have_delta) {
                delta = iv - sv;
                have_delta = true;
              } else if (iv != sv + delta) {
                return;
              }
            }
            if (require_zero_delta && delta != 0) return;
            binding.cols[j] = static_cast<uint32_t>(c);
            binding.deltas[j] = delta;
            col_found = true;
          };
          if (s.w >= n) try_col(j + (s.w - n));
          try_col(j);
          for (size_t c = 0; c < s.w; ++c) try_col(c);
          all_fit = col_found;
        }
        if (all_fit) {
          *out = std::move(binding);
          return true;
        }
      }
    }
    return false;
  }

  /// Classifies a leaf node (parameter or constant) into a value, emitting a
  /// synthesized mask/zeros instruction for request-derived constants.
  uint32_t LeafValue(const autograd::NodePtr& node) {
    if (node->requires_grad) {
      const uint32_t id =
          NewValue(ValueKind::kParam, node->value.shape(), node);
      prog.values[id].param = node.get();
      prog.param_nodes.push_back(node);
      ids[node.get()] = id;
      return id;
    }
    const std::string& tag = node->op;
    if (tag == kTagCapture) {
      const uint32_t id =
          NewValue(ValueKind::kConstant, node->value.shape(), node);
      prog.values[id].index = static_cast<uint32_t>(prog.constants.size());
      prog.constants.push_back(node->value);
      ids[node.get()] = id;
      return id;
    }
    OpKind kind;
    bool causal = false;
    std::vector<size_t> want_shape;
    const size_t B = batch->batch_size, n = batch->n_seq,
                 ns = batch->n_static;
    if (tag == kTagPaddingMask || tag == kTagPaddingMaskCausal) {
      kind = OpKind::kPaddingMask;
      causal = tag == kTagPaddingMaskCausal;
      want_shape = {B * n, n};
    } else if (tag == kTagHistoryMask) {
      kind = OpKind::kHistoryMask;
      want_shape = {B, n};
    } else if (tag == kTagCrossPaddingMask) {
      kind = OpKind::kCrossPaddingMask;
      want_shape = {B * (ns + n), ns + n};
    } else if (tag == kTagZeroState) {
      kind = OpKind::kZeros;
      want_shape = node->value.shape();
    } else {
      Fail("unannotated constant in traced forward (shape " +
           node->value.ToString(0) + ")");
      return kNoValue;
    }
    if (node->value.shape() != want_shape) {
      Fail(std::string("synthesized constant '") + OpKindName(kind) +
           "' has unexpected shape " + node->value.ToString(0));
      return kNoValue;
    }
    // Re-materialize from the request history and demand bit-equality with
    // what the model actually built; any drift would silently corrupt
    // compiled serving, so it poisons the trace instead.
    tensor::Tensor check = tensor::Tensor::Uninitialized(want_shape);
    MaterializeMask(kind, causal, ns, batch->dynamic_ids.data(), B, n,
                    check.size(), check.data());
    if (std::memcmp(check.data(), node->value.data(),
                    check.size() * sizeof(float)) != 0) {
      Fail(std::string("synthesized constant '") + OpKindName(kind) +
           "' does not re-materialize bit-exactly (non-uniform batch?)");
      return kNoValue;
    }
    Instr instr;
    instr.kind = kind;
    instr.causal = causal;
    if (kind == OpKind::kCrossPaddingMask) {
      instr.row = static_cast<uint32_t>(ns);
    }
    const uint32_t id = NewValue(ValueKind::kLocal, want_shape, node);
    instr.out = id;
    prog.instrs.push_back(std::move(instr));
    ids[node.get()] = id;
    return id;
  }

  uint32_t ValueFor(const autograd::NodePtr& node) {
    auto it = ids.find(node.get());
    if (it != ids.end()) return it->second;
    return LeafValue(node);
  }

  void Record(const autograd::NodePtr& node,
              const std::vector<autograd::NodePtr>& parents,
              const autograd::TraceAttrs* attrs) {
    if (!error.empty()) return;
    OpKind kind;
    if (!OpKindFromName(node->op, &kind, nullptr)) {
      Fail("untraceable op '" + node->op + "'");
      return;
    }
    Instr instr;
    instr.kind = kind;
    instr.in.reserve(parents.size());
    for (const autograd::NodePtr& p : parents) {
      const uint32_t id = ValueFor(p);
      if (id == kNoValue) return;
      instr.in.push_back(id);
    }
    if (attrs != nullptr) {
      instr.alpha = attrs->alpha;
      instr.eps = attrs->eps;
      instr.row = static_cast<uint32_t>(attrs->row);
      instr.trans_a = attrs->trans_a;
      instr.trans_b = attrs->trans_b;
    }
    if (kind == OpKind::kEmbeddingGather ||
        kind == OpKind::kEmbeddingSumGather) {
      SEQFM_CHECK(attrs != nullptr && attrs->indices != nullptr);
      instr.traced_indices.assign(
          attrs->indices, attrs->indices + attrs->idx_batch * attrs->idx_n);
      if (!FitBinding(attrs->indices, attrs->idx_batch, attrs->idx_n,
                      &instr.binding)) {
        Fail("gather indices do not derive from the request arrays");
        return;
      }
    }
    instr.out = NewValue(ValueKind::kLocal, node->value.shape(), node);
    ids[node.get()] = instr.out;
    prog.instrs.push_back(std::move(instr));
  }
};

thread_local TraceSink* g_sink = nullptr;

class ScopedSink {
 public:
  explicit ScopedSink(TraceSink* sink) : prev_(g_sink) { g_sink = sink; }
  ~ScopedSink() { g_sink = prev_; }

 private:
  TraceSink* prev_;
};

}  // namespace

bool VerifyIndexBinding(const IndexBinding& binding, const int32_t* idx,
                        size_t batch, size_t n,
                        const data::Batch& src_batch) {
  return BindingMatches(binding, idx, batch, n, src_batch);
}

TraceResult Trace(core::Model* model, const data::Batch& batch) {
  TraceResult res;
  SEQFM_CHECK(g_sink == nullptr) << "nested traces are not supported";
  TraceSink sink;
  sink.batch = &batch;
  sink.prog.count = batch.batch_size;
  sink.prog.n_static = batch.n_static;
  sink.prog.n_seq = batch.n_seq;
  sink.prog.n_unified = batch.n_unified;
  RenewIdentity(&sink.prog);

  autograd::Variable out;
  {
    autograd::NoGradGuard no_grad;
    ScopedSink scope(&sink);
    out = model->Score(batch, /*training=*/false);
  }
  if (!sink.error.empty()) {
    res.error = std::move(sink.error);
    return res;
  }
  if (!out.defined()) {
    res.error = "model returned an undefined score";
    return res;
  }
  auto it = sink.ids.find(out.node().get());
  if (it == sink.ids.end()) {
    res.error = "model output was not produced by a traced op";
    return res;
  }
  sink.prog.output = it->second;
  res.program = std::move(sink.prog);
  res.value_nodes = std::move(sink.value_nodes);
  return res;
}

}  // namespace ir

namespace autograd {

bool TracingActive() { return ir::g_sink != nullptr; }

void TraceRecord(const NodePtr& node, const std::vector<NodePtr>& parents,
                 const TraceAttrs* attrs) {
  if (ir::g_sink != nullptr) ir::g_sink->Record(node, parents, attrs);
}

void TraceAnnotateConstant(const Variable& v, ConstantKind kind, bool causal) {
  // Stamped on the node itself (the leaf op string is otherwise unused), so
  // constants built at model-construction time — long before any trace is
  // armed — are still classifiable when a later trace encounters them.
  const char* tag = ir::kTagCapture;
  switch (kind) {
    case ConstantKind::kCaptureValue:
      tag = ir::kTagCapture;
      break;
    case ConstantKind::kPaddingMask:
      tag = causal ? ir::kTagPaddingMaskCausal : ir::kTagPaddingMask;
      break;
    case ConstantKind::kHistoryMask:
      tag = ir::kTagHistoryMask;
      break;
    case ConstantKind::kCrossPaddingMask:
      tag = ir::kTagCrossPaddingMask;
      break;
    case ConstantKind::kZeroState:
      tag = ir::kTagZeroState;
      break;
  }
  v.node()->op = tag;
}

}  // namespace autograd
}  // namespace seqfm
