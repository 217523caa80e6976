#include "ir/program.h"

#include <atomic>
#include <limits>

#include "util/logging.h"

namespace seqfm {
namespace ir {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kAdd: return "add";
    case OpKind::kSub: return "sub";
    case OpKind::kMul: return "mul";
    case OpKind::kScale: return "scale";
    case OpKind::kAddScalar: return "add_scalar";
    case OpKind::kAddBias: return "add_bias";
    case OpKind::kAddBroadcastBatch: return "add_broadcast_batch";
    case OpKind::kRelu: return "relu";
    case OpKind::kSigmoid: return "sigmoid";
    case OpKind::kTanh: return "tanh";
    case OpKind::kMatMul: return "matmul";
    case OpKind::kBmmShared: return "bmm_shared";
    case OpKind::kBmm: return "bmm";
    case OpKind::kBmmLeftShared: return "bmm_left_shared";
    case OpKind::kRowDot: return "row_dot";
    case OpKind::kMaskedSoftmax: return "masked_softmax";
    case OpKind::kLayerNorm: return "layer_norm";
    case OpKind::kConcatLast: return "concat_last";
    case OpKind::kConcatAxis1: return "concat_axis1";
    case OpKind::kReduceAxis1: return "reduce_axis1";
    case OpKind::kSliceRow: return "slice_row";
    case OpKind::kSumLast: return "sum_last";
    case OpKind::kReshape: return "reshape";
    case OpKind::kExpandRows: return "expand_rows";
    case OpKind::kPairwiseUpper: return "pairwise_upper";
    case OpKind::kPairwiseCross: return "pairwise_cross";
    case OpKind::kEmbeddingGather: return "embedding_gather";
    case OpKind::kEmbeddingSumGather: return "embedding_sum_gather";
    case OpKind::kPaddingMask: return "padding_mask";
    case OpKind::kHistoryMask: return "history_mask";
    case OpKind::kCrossPaddingMask: return "cross_padding_mask";
    case OpKind::kZeros: return "zeros";
    case OpKind::kTileRows: return "tile_rows";
    case OpKind::kMaskedAttention: return "masked_attention";
  }
  return "?";
}

uint64_t NextProgramUid() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

void RenewIdentity(Program* program) {
  program->uid = NextProgramUid();
  program->liveness = std::make_shared<const int>(0);
}

bool OpenKeyRanges(const tensor::Tensor* mask, size_t nq, size_t nk,
                   std::vector<uint32_t>* ranges) {
  ranges->assign(2 * nq, 0);
  for (size_t r = 0; r < nq; ++r) {
    if (mask == nullptr) {
      (*ranges)[2 * r + 1] = static_cast<uint32_t>(nk);
      continue;
    }
    const float* row = mask->data() + r * nk;
    auto open = [&](size_t j) {
      return row[j] != -std::numeric_limits<float>::infinity();
    };
    size_t begin = 0;
    while (begin < nk && !open(begin)) ++begin;
    size_t end = begin;
    while (end < nk && open(end)) ++end;
    for (size_t j = end; j < nk; ++j) {
      if (open(j)) return false;
    }
    if (begin < end) {
      (*ranges)[2 * r] = static_cast<uint32_t>(begin);
      (*ranges)[2 * r + 1] = static_cast<uint32_t>(end);
    }
  }
  return true;
}

namespace {
constexpr float kNegInf = -std::numeric_limits<float>::infinity();

/// One-sample padding mask block [n, n] (nn::MakeBatchPaddingMask row b).
void PaddingMaskBlock(bool causal, const int32_t* dyn, size_t n, float* dst) {
  for (size_t i = 0; i < n; ++i) {
    float* row = dst + i * n;
    bool any_open = false;
    for (size_t j = 0; j < n; ++j) {
      const bool blocked_causal = causal && i < j;
      const bool blocked_pad = dyn[j] < 0;
      row[j] = (blocked_causal || blocked_pad) ? kNegInf : 0.0f;
      any_open = any_open || row[j] == 0.0f;
    }
    if (!any_open) row[i] = 0.0f;
  }
}

/// One-sample history mask row [n] (nn::MakeHistoryPaddingMask row b).
void HistoryMaskBlock(const int32_t* dyn, size_t n, float* dst) {
  bool any = false;
  for (size_t i = 0; i < n; ++i) {
    const bool pad = dyn[i] < 0;
    dst[i] = pad ? kNegInf : 0.0f;
    any = any || !pad;
  }
  if (!any) dst[n - 1] = 0.0f;
}

/// One-sample padding-aware cross mask block [(ns+n), (ns+n)]
/// (core::SeqFm's MakePaddingAwareCrossMask row b).
void CrossMaskBlock(size_t ns, const int32_t* dyn, size_t nd, float* dst) {
  const size_t n = ns + nd;
  for (size_t i = 0; i < n; ++i) {
    float* row = dst + i * n;
    const bool i_static = i < ns;
    bool any_open = false;
    for (size_t j = 0; j < n; ++j) {
      const bool j_static = j < ns;
      bool blocked = (i_static == j_static);
      if (!j_static && dyn[j - ns] < 0) blocked = true;
      row[j] = blocked ? kNegInf : 0.0f;
      any_open = any_open || !blocked;
    }
    if (!any_open) row[i] = 0.0f;
  }
}
}  // namespace

void MaterializeMask(OpKind kind, bool causal, size_t ns,
                     const int32_t* dynamic_ids, size_t batch, size_t n,
                     size_t total, float* dst) {
  size_t block = 0;
  switch (kind) {
    case OpKind::kZeros:
      for (size_t i = 0; i < total; ++i) dst[i] = 0.0f;
      return;
    case OpKind::kPaddingMask:
      block = n * n;
      SEQFM_CHECK_EQ(batch * block, total);
      PaddingMaskBlock(causal, dynamic_ids, n, dst);
      break;
    case OpKind::kHistoryMask:
      block = n;
      SEQFM_CHECK_EQ(batch * block, total);
      HistoryMaskBlock(dynamic_ids, n, dst);
      break;
    case OpKind::kCrossPaddingMask:
      block = (ns + n) * (ns + n);
      SEQFM_CHECK_EQ(batch * block, total);
      CrossMaskBlock(ns, dynamic_ids, n, dst);
      break;
    default:
      SEQFM_CHECK(false) << "not a synthesized constant: "
                         << OpKindName(kind);
  }
  // All samples of a serving chunk share one history, so the block repeats.
  for (size_t b = 1; b < batch; ++b) {
    float* out = dst + b * block;
    for (size_t i = 0; i < block; ++i) out[i] = dst[i];
  }
}

}  // namespace ir
}  // namespace seqfm
