#ifndef SEQFM_TENSOR_KERNELS_H_
#define SEQFM_TENSOR_KERNELS_H_

#include <cstddef>

#include "util/cpu.h"

namespace seqfm {
namespace tensor {
namespace kernels {

/// One row group of tensor::MaskedAttention over a tile of items: query
/// rows [0, rows) that share an open range of `width` keys. Key j's raw
/// score for row r of item t is s[j][r * s_row[j] + t * s_item[j]] (a
/// stride of 0 broadcasts), row r's mask entry for key j is
/// add[r * add_stride + j] (add may be null), key j's V row for item t is
/// v[j] + t * v_item[j], and item t's output starts at out + t * out_item.
/// `probs` is scratch of AttentionTileScratch(width, rows) floats.
struct AttentionTile {
  const float* const* s;
  const size_t* s_row;
  const size_t* s_item;
  const float* add;
  size_t add_stride;
  const float* const* v;
  const size_t* v_item;
  size_t width, rows, items, dv;
  float alpha;
  bool pooled;
  float pool_scale;
  float* out;
  size_t out_item;
  float* probs;
};

/// Rows of an AttentionTile whose probabilities one AVX2 pass holds.
constexpr size_t kAttentionRowChunk = 32;

/// Floats of AttentionTile::probs for \p width keys and \p rows rows: a
/// chunk of rows' probabilities, eight items each, and one row's scores.
inline size_t AttentionTileScratch(size_t width, size_t rows) {
  return width *
         (8 * (rows < kAttentionRowChunk ? rows : kAttentionRowChunk) + 1);
}

/// Rows in one register block of gemm_rows_b_normal (the AVX2 6 x 16
/// block). tensor::Gemm uses it as its minimum row grain, so every pool
/// chunk of a parallel GEMM holds at least one full block.
constexpr size_t kGemmRowBlock = 6;

/// \brief Dispatched inner loops behind the tensor/autograd compute kernels.
///
/// Every function pointer in this table has (at least) two implementations:
/// a portable scalar one (kernels.cc) and an AVX2 one (kernels_avx2.cc,
/// compiled with -mavx2 -mfma -ffp-contract=off and selected at startup via
/// util::ActiveSimdLevel()). The two are **bit-identical** on every output
/// that is not NaN, which is what keeps the repo's determinism contract
/// (results independent of thread count — and now of ISA) intact. A NaN
/// output is NaN under both, but its sign and payload may differ: which NaN
/// a sum of NaNs keeps depends on operand order. Two rules make that
/// possible:
///
/// 1. *Elementwise maps preserve per-element arithmetic.* add/sub/mul/axpy/
///    relu/... perform exactly the scalar expression per element; the vector
///    versions just do eight elements at once. Multiply-accumulate is always
///    emitted as a rounded multiply followed by a rounded add — never a fused
///    multiply-add — because the scalar path (built without -mfma) cannot
///    fuse, and contraction is globally disabled (-ffp-contract=off) so the
///    compiler cannot re-fuse behind our back. exp/sigmoid share one
///    polynomial (kernels_inl.h) evaluated with the same float ops on both
///    paths, replacing libm's exp whose vectorization would diverge.
///
/// 2. *Reductions follow one lane-blocked order.* A length-n reduction is
///    defined as eight partial accumulators — element i feeds lane i % 8
///    in ascending i, the tail (n % 8 elements) continuing lane-by-lane from
///    lane 0 — combined by the fixed tree
///        t0=l0+l4  t1=l1+l5  t2=l2+l6  t3=l3+l7
///        u0=t0+t2  u1=t1+t3  result=u0+u1
///    which is exactly the AVX2 128-bit-halves/movehl/shuffle horizontal
///    reduce. The scalar implementations follow the same order, and
///    tensor::GemmReference is generalized to it for transposed-B dot
///    products, so the oracle, the scalar kernels, and the AVX2 kernels all
///    agree to the last bit at any size, including 0/1 and non-multiple-of-8
///    tails. Max-reductions use the same lanes/tree with a `>`-then-keep
///    rule, so NaNs are ignored exactly like the historical scalar loops.
///
/// The GEMM microkernels keep the historical per-element accumulation order
/// for non-transposed B: each C element is 0 + sum_k a * b in ascending k,
/// one rounded multiply and one rounded add per step, then c + acc when
/// accumulating. The AVX2 version gives each lane whole elements, so no
/// chain is reordered: kGemmRowBlock x 16 register blocks vectorize across
/// output columns, and the last n % 16 columns (n = 1 included) vectorize
/// across rows from an in-register transpose of A. Transposed B uses the
/// lane-blocked dot order.
struct KernelTable {
  // --- reductions (lane-blocked order) ---------------------------------
  /// sum_i a[i] * b[i]
  float (*dot)(const float* a, const float* b, size_t n);
  /// sum_i x[i]
  float (*reduce_sum)(const float* x, size_t n);
  /// sum_i (x[i] - mean)^2
  float (*reduce_sum_sq_diff)(const float* x, float mean, size_t n);
  /// max_i (x[i] + (add ? add[i] : 0)); -inf when n == 0; NaNs never win.
  float (*reduce_max_add)(const float* x, const float* add, size_t n);

  // --- elementwise maps (per-element order preserving) -----------------
  void (*add)(const float* a, const float* b, float* y, size_t n);
  void (*sub)(const float* a, const float* b, float* y, size_t n);
  void (*mul)(const float* a, const float* b, float* y, size_t n);
  /// y[i] += a[i] * b[i]
  void (*madd)(const float* a, const float* b, float* y, size_t n);
  /// y[i] += alpha * x[i]
  void (*axpy)(float alpha, const float* x, float* y, size_t n);
  /// y[i] = alpha * x[i]
  void (*scale)(float alpha, const float* x, float* y, size_t n);
  void (*scale_inplace)(float alpha, float* y, size_t n);
  void (*relu)(const float* x, float* y, size_t n);
  /// y[i] = ExpApprox(x[i]): the shared polynomial exp. Exactly 0 below
  /// roughly -87.3 (so -inf and NaN map to 0), saturating near FLT_MAX at
  /// the top of the range; ~2 ulp inside it.
  void (*exp_map)(const float* x, float* y, size_t n);
  /// Numerically stable sigmoid built on ExpApprox (NaN maps to 0).
  void (*sigmoid)(const float* x, float* y, size_t n);
  /// tanh built on ExpApprox via (1 - e^{-2|x|}) / (1 + e^{-2|x|}) with the
  /// sign restored by a bit flip (NaN maps to -1).
  void (*tanh)(const float* x, float* y, size_t n);

  // --- fused rows ------------------------------------------------------
  /// y[i] = ExpApprox((x[i] + (add ? add[i] : 0)) - max_val); returns the
  /// lane-blocked sum of y. The softmax numerator + denominator in one pass.
  float (*softmax_exp_sum)(const float* x, const float* add, float max_val,
                           float* y, size_t n);
  /// Rows [0, rows) of a [rows, cols] block, each y = softmax(x + add):
  /// add row r starts at add + r * add_stride (add may be null), and x and y
  /// may alias. Each row is reduce_max_add, then softmax_exp_sum and
  /// scale_inplace(1 / total), or all zeros when the max is not finite (a
  /// fully masked row): the one definition of a softmax row, the same bits
  /// at every SIMD level. The AVX2 version runs rows narrower than a vector
  /// eight at a time, one row per lane, each lane reproducing its row's lane
  /// tree with the shared exp polynomial.
  void (*softmax_rows)(const float* x, const float* add, size_t add_stride,
                       float* y, size_t rows, size_t cols);
  /// y[j] = gamma[j] * ((x[j] - mean) * inv_std) + beta[j]; when xhat is
  /// non-null also stores the normalized activations (tape state).
  void (*layer_norm_row)(const float* x, const float* gamma,
                         const float* beta, float mean, float inv_std,
                         size_t d, float* y, float* xhat);

  // --- GEMM microkernels (see tensor/ops.cc for the blocking) ----------
  /// C rows [0, rows) (+)= A[rows,k] · B[k,n], A rows contiguous.
  void (*gemm_rows_b_normal)(const float* arows, const float* b, float* crows,
                             size_t rows, size_t k, size_t n, bool accumulate);
  /// C rows [0, rows) (+)= A[rows,k] · B^T with B stored [n,k] and C rows
  /// \p ldc floats apart: per-element lane-blocked dot products. The AVX2
  /// version computes eight outputs of a C row side by side (the last block
  /// of a row padded) and finishes them with one in-register 8 x 8
  /// transpose whose adds pair lanes as CombineLanesSum.
  void (*gemm_rows_b_trans)(const float* arows, const float* b, float* crows,
                            size_t rows, size_t k, size_t n, size_t ldc,
                            bool accumulate);

  /// An AttentionTile: per item t and row r, softmax_rows' row over the
  /// scaled scores alpha * s plus the mask entries (or none), then the row
  /// row[c] = 0 + sum_j p_j * v_j[c] in ascending j (gemm_rows_b_normal's
  /// per-element order), stored at out + t * out_item + r * dv or, pooled,
  /// folded as out[c] += pool_scale * row[c] in ascending r (SumAxis1's
  /// axpy order, continuing from the fold out holds). The same bits as the
  /// Scale op, softmax_rows and the P · V GEMM. The AVX2 kernel runs eight
  /// items' softmaxes per vector, one item per lane, each lane reproducing
  /// its row's lane trees (a lone item's rows run softmax_rows' row across
  /// the keys), then each item's rows in 32-column register blocks (the
  /// columns past the last block one at a time), with a compile-time
  /// instance for two keys. Pooled, out must not hold -0 (a fold that
  /// starts from +0 never makes one): the AVX2 kernel drops the row's
  /// leading 0 +, which only turns a -0 entry into +0, and pool_scale * +-0
  /// then adds to out alike.
  void (*attention_tile)(const AttentionTile& tile);

  /// "scalar" / "avx2" — for logs and bench labels.
  const char* name;
};

/// The table for util::ActiveSimdLevel(). One relaxed atomic read; safe to
/// call from pool workers and to interleave with util::SetSimdLevel.
const KernelTable& Active();

/// The table for an explicit level. Falls back to scalar (with a one-time
/// warning) when AVX2 kernels are unavailable — not compiled in, or the CPU
/// lacks avx2+fma.
const KernelTable& Table(util::SimdLevel level);

/// True when Table(kAvx2) really is the AVX2 table.
bool Avx2KernelsAvailable();

}  // namespace kernels
}  // namespace tensor
}  // namespace seqfm

#endif  // SEQFM_TENSOR_KERNELS_H_
