#ifndef SEQFM_TENSOR_KERNELS_H_
#define SEQFM_TENSOR_KERNELS_H_

#include <cstddef>

#include "util/cpu.h"

namespace seqfm {
namespace tensor {
namespace kernels {

/// One output row of a fused attention (tensor::MaskedAttention): the
/// probability-weighted sum of \p width V rows, each read in place, or a
/// row finished earlier.
struct AttentionRow {
  const float* p = nullptr;         // width probabilities
  const float* const* v = nullptr;  // width V rows, each dv floats
  size_t width = 0;
  const float* done = nullptr;  // when set, the finished row (p, v unused)
};

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
  /// C rows [0, rows) (+)= A[rows,k] · B^T with B stored [n,k]: per-element
  /// lane-blocked dot products.
  void (*gemm_rows_b_trans)(const float* arows, const float* b, float* crows,
                            size_t rows, size_t k, size_t n, bool accumulate);

  /// Rows [0, n) of one attention item, columns in register blocks: row
  /// r is rows[r].done, or row[c] = 0 + sum_j p[j] * v[j][c] in ascending
  /// j (gemm_rows_b_normal's per-element order). Unpooled, row r is stored
  /// at out + r * dv. Pooled, out[c] = 0 + sum_r pool_scale * row_r[c] in
  /// ascending r (SumAxis1's axpy order) and no row is stored.
  void (*attention_rows)(const AttentionRow* rows, size_t n, size_t dv,
                         bool pooled, float pool_scale, float* out);

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
