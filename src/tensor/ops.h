#ifndef SEQFM_TENSOR_OPS_H_
#define SEQFM_TENSOR_OPS_H_

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "tensor/tensor.h"

namespace seqfm {
namespace tensor {

/// Forward compute kernels shared by the autograd layer. All kernels take an
/// \p accumulate flag: when true they add into the output (used for gradient
/// accumulation), otherwise they overwrite it.
///
/// Raw GEMM core: C[m,n] (+)= A op B with optional transposition.
///   trans_a == false: A is [m,k] row-major; true: A is [k,m] and used as A^T.
///   trans_b == false: B is [k,n] row-major; true: B is [n,k] and used as B^T.
///
/// The kernel is cache-blocked, register-tiled, and dispatches row chunks of
/// C across the global util::ThreadPool once the problem is large enough.
/// Each output element sums its k products in ascending order into a private
/// accumulator added to C exactly once, so results are bit-for-bit identical
/// to GemmReference for every thread count.
///
/// Degenerate sizes are handled explicitly: m == 0 or n == 0 is a no-op and
/// k == 0 is an empty sum (C is zeroed unless accumulating). Null pointers
/// with non-degenerate sizes abort.
void Gemm(const float* a, const float* b, float* c, size_t m, size_t k,
          size_t n, bool trans_a, bool trans_b, bool accumulate);

/// Naive single-threaded triple-loop GEMM with the same contract as Gemm.
/// The comparison oracle for tests and the baseline for bench_micro_ops.
void GemmReference(const float* a, const float* b, float* c, size_t m,
                   size_t k, size_t n, bool trans_a, bool trans_b,
                   bool accumulate);

/// C = A · B for rank-2 tensors; shape-checked wrappers over Gemm.
void MatMul(const Tensor& a, const Tensor& b, Tensor* out,
            bool trans_a = false, bool trans_b = false,
            bool accumulate = false);

/// Batched GEMM over rank-3 tensors: out[i] (+)= A[i] op B[i] per batch item.
void BatchedMatMul(const Tensor& a, const Tensor& b, Tensor* out,
                   bool trans_a = false, bool trans_b = false,
                   bool accumulate = false);

/// out[i] (+)= A[i] · W (rank-3 lhs, shared rank-2 rhs). Equivalent to
/// flattening A to [batch*rows, k], provided as a convenience.
void BatchedMatMulShared(const Tensor& a, const Tensor& w, Tensor* out,
                         bool trans_w = false, bool accumulate = false);

/// Row-wise softmax over the last dimension. If \p mask is non-null it must
/// point to a [rows_per_batch x cols] additive mask (0 or -inf style values)
/// that is broadcast over the leading batch dimension before normalizing.
/// Works for rank-2 ([rows, cols]) and rank-3 ([batch, rows, cols]) input.
void SoftmaxLastDim(const Tensor& in, const Tensor* mask, Tensor* out);

/// An attention operand stacked along axis 1 from row blocks, read in place:
/// blocks[i] is a rank-3 [batch or 1, rows_i, width] tensor, and a batch-1
/// block broadcasts over the batch.
struct RowStack {
  const Tensor* const* blocks = nullptr;
  size_t count = 0;
};

/// Batch items per tile of MaskedAttention.
constexpr size_t kAttentionTile = 32;

/// Scaled dot-product attention that computes only the unmasked pairs:
///   rows[b] = softmax(alpha * Q[b] K[b]^T + mask) V[b]
/// with Q [batch, nq, d], K [batch, nk, d], V [batch, nk, dv]. A rank-3
/// \p out [batch, nq, dv] receives rows[b]; a rank-2 \p out [batch, dv]
/// receives the pooled row sum_r pool_scale * rows[b][r] (Eq. 14's mean
/// pooling, SumAxis1's fold) and \p pool_scale is read only then. Query row
/// r attends to key columns [ranges[2r], ranges[2r+1]) only; \p mask (the
/// [nq, nk] additive mask, or null when every range is [0, nk)) must be
/// -inf outside them. An empty range yields a zero row, as SoftmaxLastDim
/// does for a fully masked row.
///
/// Work that does not depend on the batch item is done once per call (per
/// thread range): an output row whose Q row and whole K/V range come from
/// batch-1 blocks, and a score entry whose Q row and K row both do. The
/// rest runs tile-major, kAttentionTile items at a time, row group by row
/// group (consecutive query rows sharing a key range) in row order:
///   1. scores: per run of broadcast or per-item keys, written where step
///      2 reads them (an output stride, no copies): broadcast keys against
///      the tile's Q rows are one gemm_rows_b_trans with the keys as its
///      left operand (each key's scores side by side over the items),
///      broadcast Q rows against the tile's keys one the other way round,
///      entries computed once are read in place, and per-item Q rows
///      against per-item keys are one kernels dot per (item, row, key);
///   2. one kernels::attention_tile pass: per item and row the Scale op,
///      the softmax of the row's open slice and the row's P · V over V
///      rows read in place, stored, or, pooled, folded into the item's
///      output (zeroed first) as pool_scale * row in ascending row order,
///      exactly SumAxis1's axpy sequence, so the pooled bits equal the
///      unpooled op followed by SumAxis1.
/// Each score element is the same lane-blocked dot, each softmax row the
/// same softmax_rows row, and each output element the same 0 + sum_j
/// p_j * v_j in ascending j (gemm_rows_b_normal's per-element order)
/// whichever call, tile or thread computes it, so neither the tiling nor
/// the reuse of once-computed rows and entries changes a bit. Scratch
/// comes from the thread's scratch arena, sized by the tile, not the batch.
///
/// Bit-identical to BatchedMatMul(trans_b) -> Scale -> SoftmaxLastDim ->
/// BatchedMatMul (-> SumAxis1 when pooled) whenever V is finite
/// (kernels.h's contract):
///   - each open score is the same lane-blocked dot product;
///   - in the full row a masked entry never wins the max and its exp is
///     exactly +0, so its lane ends as if it were absent;
///   - the row slice [begin, end) puts column j in lane (j - begin) % 8
///     instead of j % 8: each lane keeps the same entries in the same order,
///     only the lanes rotate, and the combine tree (pairs 4 apart, then 2,
///     then 1) gives the same bits under any rotation because float + and
///     the max pick commute (lanes never hold NaN; a +-0 max subtracts
///     alike);
///   - masked probabilities are exact zeros and each ascending P·V
///     accumulator starts at +0 and never becomes -0, so skipping their
///     products changes no bit.
/// A non-finite V row in a masked column is the one difference: the dense
/// chain turns 0 * inf into NaN, this kernel never reads it.
void MaskedAttention(RowStack q, RowStack k, RowStack v, const Tensor* mask,
                     const uint32_t* ranges, float alpha, float pool_scale,
                     Tensor* out);

/// Elementwise kernels (same-shape in/out).
void Add(const Tensor& a, const Tensor& b, Tensor* out);
void Sub(const Tensor& a, const Tensor& b, Tensor* out);
void Mul(const Tensor& a, const Tensor& b, Tensor* out);
void Relu(const Tensor& in, Tensor* out);
void Sigmoid(const Tensor& in, Tensor* out);
void Tanh(const Tensor& in, Tensor* out);

/// Broadcast-add a rank-1 bias of size d over the last dimension.
void AddBiasLastDim(const Tensor& in, const Tensor& bias, Tensor* out);

// ---------------------------------------------------------------------------
// The one forward of each remaining op: autograd (src/autograd/ops_*.cc) and
// the compiled VM (ir::EvalPure) both call these, so compiled scores match
// the taped forward bit-for-bit by construction. Each kernel reads its dims
// from the operands the way the IR verifier (ir/verify.cc) constrains them:
// the VM may hand in an operand whose shape differs from the eager one as
// long as its element count agrees.
// ---------------------------------------------------------------------------

/// out = in, element by element (a reshape's copy; sizes must agree).
void Copy(const Tensor& in, Tensor* out);
/// out = alpha * in, elementwise.
void Scale(const Tensor& in, float alpha, Tensor* out);
/// out = in + alpha, elementwise.
void AddScalar(const Tensor& in, float alpha, Tensor* out);
/// out[b] = x[b] + table for rank-3 x [batch, rows, d] and a table of
/// rows * d elements.
void AddBroadcastBatch(const Tensor& x, const Tensor& table, Tensor* out);
/// out[b] = W · P[b] for rank-2 W [h2, h] and rank-3 P [batch, h, d].
void BatchedMatMulLeftShared(const Tensor& w, const Tensor& p, Tensor* out);
/// out[i] = <a[i], b[i]> for rank-2 a, b [batch, d]; one lane-blocked dot
/// per row.
void RowDot(const Tensor& a, const Tensor& b, Tensor* out);
/// Row-wise layer normalization over the last dimension with affine
/// gamma/beta. \p xhat (same size as \p x) and \p inv_std (one float per
/// row) receive the normalized activations and inverse stddevs the
/// backward pass needs; pass null for both when no tape records them.
void LayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
               float eps, Tensor* out, Tensor* xhat = nullptr,
               Tensor* inv_std = nullptr);
/// Concatenates \p count rank-2 [batch, d_i] parts along the last dimension
/// into out [batch, sum d_i].
void ConcatLastDim(const Tensor* const* parts, size_t count, Tensor* out);
/// Concatenates rank-3 a [batch, na, d] and b [batch, nb, d] along axis 1
/// into out [batch, na + nb, d]. A batch-1 operand broadcasts over the
/// output batch (compiled bodies read hoisted count-1 row blocks this way).
void ConcatAxis1(const Tensor& a, const Tensor& b, Tensor* out);
/// out[b] = in[b][row] for rank-3 in [batch, n, d].
void SliceRow(const Tensor& in, size_t row, Tensor* out);
/// Repeats each row of in ([batch, d] elements) n times:
/// out [batch, n, d] with out[b][i] = in[b].
void ExpandRows(const Tensor& in, Tensor* out);
/// All pairwise products x[b][i] ⊙ x[b][j], i < j, of rank-3 in [batch, n, d]
/// in row-major pair order: out [batch, n(n-1)/2, d].
void PairwiseProductUpper(const Tensor& in, Tensor* out);
/// All cross products a[t][i] ⊙ b[t][j] of rank-3 a [batch, h, d] and
/// b [batch, m, d]: out [batch, h*m, d], pair (i, j) at row i*m + j.
void PairwiseProductCross(const Tensor& a, const Tensor& b, Tensor* out);

/// Reductions.
/// Sums rank-3 [batch, rows, cols] over rows -> [batch, cols], scaled.
void SumAxis1(const Tensor& in, float scale, Tensor* out,
              bool accumulate = false);
/// Sums over the last dimension: [.., d] -> [.., 1] semantics, emitted as a
/// rank-2 [rows, 1] tensor for rank-2 input.
void SumLastDim(const Tensor& in, Tensor* out);
/// Sum of all elements.
float SumAll(const Tensor& in);

/// Numerically stable sigmoid for scalars.
inline float StableSigmoid(float x) {
  if (x >= 0.0f) {
    const float z = std::exp(-x);
    return 1.0f / (1.0f + z);
  }
  const float z = std::exp(x);
  return z / (1.0f + z);
}

/// log(sigmoid(x)) computed stably.
inline float LogSigmoid(float x) {
  // log sigmoid(x) = -log(1 + e^{-x}) = min(x,0) - log(1 + e^{-|x|})
  const float m = x < 0.0f ? x : 0.0f;
  return m - std::log1p(std::exp(-std::abs(x)));
}

}  // namespace tensor
}  // namespace seqfm

#endif  // SEQFM_TENSOR_OPS_H_
