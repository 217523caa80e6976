// AVX2 implementations of the dispatched kernel table. Compiled with
// -mavx2 -mfma -ffp-contract=off (see CMakeLists.txt) and selected at
// runtime, so this TU must only ever execute when util::CpuHasAvx2().
//
// Bit-parity with the scalar table is the design constraint everything here
// serves (kernels.h documents the contract):
//   * multiply-accumulate is _mm256_mul_ps followed by _mm256_add_ps — NOT
//     _mm256_fmadd_ps, whose single rounding the scalar path (built without
//     -mfma) cannot reproduce; -ffp-contract=off stops the compiler from
//     re-fusing the pair;
//   * reductions keep eight partial accumulators (one per lane, element i
//     into lane i % 8), spill them, finish sub-8 tails with the shared
//     scalar code, and combine with the shared fixed tree — so vector and
//     scalar orders are identical by construction;
//   * exp/sigmoid evaluate the shared polynomial (kernels_inl.h) with the
//     vector twin of every scalar step.
#include <immintrin.h>

#include <algorithm>
#include <cstddef>

#include "tensor/kernels.h"
#include "tensor/kernels_inl.h"

namespace seqfm {
namespace tensor {
namespace kernels {

namespace {

// ---------------------------------------------------------------------------
// Shared vector exp polynomial (twin of ExpScalar, step for step)
// ---------------------------------------------------------------------------

inline __m256 ExpVec(__m256 x) {
  const __m256 lo = _mm256_set1_ps(kExpLo);
  const __m256 hi = _mm256_set1_ps(kExpHi);
  // Lanes below the domain (or NaN) must come out exactly 0, like the
  // scalar early return; compute the mask on the raw input.
  const __m256 ok = _mm256_cmp_ps(x, lo, _CMP_GE_OQ);
  x = _mm256_min_ps(x, hi);
  __m256 fx = _mm256_add_ps(
      _mm256_mul_ps(x, _mm256_set1_ps(1.44269504088896341f)),
      _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);
  x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(0.693359375f)));
  x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(-2.12194440e-4f)));
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_add_ps(_mm256_mul_ps(y, z), x);
  y = _mm256_add_ps(y, _mm256_set1_ps(1.0f));
  const __m256i n = _mm256_cvttps_epi32(fx);
  const __m256i bits =
      _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23);
  const __m256 pow2n = _mm256_castsi256_ps(bits);
  return _mm256_and_ps(_mm256_mul_ps(y, pow2n), ok);
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

// Spills a vector of partial sums and finishes tail + tree with the shared
// scalar code so the combine order is the contract's by construction.
inline float FinishSumLanes(__m256 vacc, const float* a, const float* b,
                            size_t i, size_t n) {
  alignas(32) float lanes[kLanes];
  _mm256_store_ps(lanes, vacc);
  for (size_t l = 0; i < n; ++i, ++l) lanes[l] += a[i] * b[i];
  return CombineLanesSum(lanes);
}

float DotAvx2(const float* a, const float* b, size_t n) {
  __m256 vacc = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    vacc = _mm256_add_ps(
        vacc, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  return FinishSumLanes(vacc, a, b, i, n);
}

float ReduceSumAvx2(const float* x, size_t n) {
  __m256 vacc = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    vacc = _mm256_add_ps(vacc, _mm256_loadu_ps(x + i));
  }
  alignas(32) float lanes[kLanes];
  _mm256_store_ps(lanes, vacc);
  for (size_t l = 0; i < n; ++i, ++l) lanes[l] += x[i];
  return CombineLanesSum(lanes);
}

float ReduceSumSqDiffAvx2(const float* x, float mean, size_t n) {
  const __m256 vmean = _mm256_set1_ps(mean);
  __m256 vacc = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256 c = _mm256_sub_ps(_mm256_loadu_ps(x + i), vmean);
    vacc = _mm256_add_ps(vacc, _mm256_mul_ps(c, c));
  }
  alignas(32) float lanes[kLanes];
  _mm256_store_ps(lanes, vacc);
  for (size_t l = 0; i < n; ++i, ++l) {
    const float c = x[i] - mean;
    lanes[l] += c * c;
  }
  return CombineLanesSum(lanes);
}

float ReduceMaxAddAvx2(const float* x, const float* add, size_t n) {
  __m256 vmax = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    __m256 v = _mm256_loadu_ps(x + i);
    if (add != nullptr) v = _mm256_add_ps(v, _mm256_loadu_ps(add + i));
    // `>`-then-keep: a NaN challenger compares false and never replaces the
    // incumbent, matching the scalar rule.
    const __m256 gt = _mm256_cmp_ps(v, vmax, _CMP_GT_OQ);
    vmax = _mm256_blendv_ps(vmax, v, gt);
  }
  alignas(32) float lanes[kLanes];
  _mm256_store_ps(lanes, vmax);
  for (size_t l = 0; i < n; ++i, ++l) {
    const float v = x[i] + (add != nullptr ? add[i] : 0.0f);
    if (v > lanes[l]) lanes[l] = v;
  }
  return CombineLanesMax(lanes);
}

// ---------------------------------------------------------------------------
// Elementwise maps
// ---------------------------------------------------------------------------

void AddAvx2(const float* a, const float* b, float* y, size_t n) {
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) y[i] = a[i] + b[i];
}

void SubAvx2(const float* a, const float* b, float* y, size_t n) {
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(
        y + i, _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) y[i] = a[i] - b[i];
}

void MulAvx2(const float* a, const float* b, float* y, size_t n) {
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(
        y + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) y[i] = a[i] * b[i];
}

void MaddAvx2(const float* a, const float* b, float* y, size_t n) {
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256 prod =
        _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) y[i] += a[i] * b[i];
}

void AxpyAvx2(float alpha, const float* x, float* y, size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void ScaleAvx2(float alpha, const float* x, float* y, size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(va, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] = alpha * x[i];
}

void ScaleInPlaceAvx2(float alpha, float* y, size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), va));
  }
  for (; i < n; ++i) y[i] *= alpha;
}

void ReluAvx2(const float* x, float* y, size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256 v = _mm256_loadu_ps(x + i);
    // x > 0 ? x : 0 — on NaN the comparison is false, so NaN maps to 0
    // exactly like the scalar ternary.
    const __m256 gt = _mm256_cmp_ps(v, zero, _CMP_GT_OQ);
    _mm256_storeu_ps(y + i, _mm256_and_ps(v, gt));
  }
  for (; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void ExpMapAvx2(const float* x, float* y, size_t n) {
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(y + i, ExpVec(_mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] = ExpScalar(x[i]);
}

void SigmoidAvx2(const float* x, float* y, size_t n) {
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  const __m256 ones = _mm256_set1_ps(1.0f);
  const __m256 zero = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 neg_abs =
        _mm256_or_ps(_mm256_andnot_ps(sign_mask, v), sign_mask);  // -|x|
    const __m256 e = ExpVec(neg_abs);
    const __m256 den = _mm256_add_ps(ones, e);
    const __m256 ge0 = _mm256_cmp_ps(v, zero, _CMP_GE_OQ);
    const __m256 num = _mm256_blendv_ps(e, ones, ge0);
    _mm256_storeu_ps(y + i, _mm256_div_ps(num, den));
  }
  for (; i < n; ++i) y[i] = SigmoidScalar(x[i]);
}

void TanhAvx2(const float* x, float* y, size_t n) {
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  const __m256 ones = _mm256_set1_ps(1.0f);
  const __m256 neg_two = _mm256_set1_ps(-2.0f);
  const __m256 zero = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 abs = _mm256_andnot_ps(sign_mask, v);
    const __m256 e = ExpVec(_mm256_mul_ps(neg_two, abs));
    const __m256 t = _mm256_div_ps(_mm256_sub_ps(ones, e),
                                   _mm256_add_ps(ones, e));
    // Restore the sign with a bit flip; on NaN the comparison is false and
    // the negated branch wins, matching TanhScalar's ternary.
    const __m256 ge0 = _mm256_cmp_ps(v, zero, _CMP_GE_OQ);
    _mm256_storeu_ps(y + i, _mm256_blendv_ps(_mm256_xor_ps(t, sign_mask), t,
                                             ge0));
  }
  for (; i < n; ++i) y[i] = TanhScalar(x[i]);
}

float SoftmaxExpSumAvx2(const float* x, const float* add, float max_val,
                        float* y, size_t n) {
  const __m256 vmax = _mm256_set1_ps(max_val);
  __m256 vacc = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    __m256 v = _mm256_loadu_ps(x + i);
    if (add != nullptr) v = _mm256_add_ps(v, _mm256_loadu_ps(add + i));
    const __m256 e = ExpVec(_mm256_sub_ps(v, vmax));
    _mm256_storeu_ps(y + i, e);
    vacc = _mm256_add_ps(vacc, e);
  }
  alignas(32) float lanes[kLanes];
  _mm256_store_ps(lanes, vacc);
  for (size_t l = 0; i < n; ++i, ++l) {
    const float v = (x[i] + (add != nullptr ? add[i] : 0.0f)) - max_val;
    const float e = ExpScalar(v);
    y[i] = e;
    lanes[l] += e;
  }
  return CombineLanesSum(lanes);
}

// Up to eight rows narrower than a vector, one row per lane: vector j holds
// column j of every row, which is lane j of each row's lane-blocked
// reduction, and columns past the row's end hold the lane's initial value.
// The max and sum trees then run lane-wise exactly as each row's scalar
// tree would, with ExpVec in place of the ExpScalar the row's sub-8 tail
// uses (the two agree bit for bit). Rows past `rows` are zero padding.
void SoftmaxNarrowRows(const float* x, const float* add, size_t add_stride,
                       float* y, size_t rows, size_t cols) {
  alignas(32) float t[kLanes * kLanes];  // t[j * 8 + r]: column j, row r
  for (size_t j = 0; j < cols; ++j) {
    for (size_t r = 0; r < kLanes; ++r) {
      t[j * kLanes + r] =
          r < rows ? x[r * cols + j] +
                         (add != nullptr ? add[r * add_stride + j] : 0.0f)
                   : 0.0f;
    }
  }
  const __m256 neg_inf =
      _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  const __m256 zero = _mm256_setzero_ps();
  auto pick = [](__m256 a, __m256 b) {  // b > a ? b : a, lane-wise
    return _mm256_blendv_ps(a, b, _mm256_cmp_ps(b, a, _CMP_GT_OQ));
  };
  // Column j of the block (lane j of every row's tree), or the lane's
  // initial value past the row's end. Named vectors, not an array, so the
  // trees stay in registers.
  auto col = [&](size_t j) {
    return j < cols ? pick(neg_inf, _mm256_load_ps(t + j * kLanes)) : neg_inf;
  };
  const __m256 vmax = pick(pick(pick(col(0), col(4)), pick(col(2), col(6))),
                           pick(pick(col(1), col(5)), pick(col(3), col(7))));
  // Stores column j's exponentials and returns its sum lane.
  auto ex = [&](size_t j) {
    if (j >= cols) return zero;
    const __m256 e =
        ExpVec(_mm256_sub_ps(_mm256_load_ps(t + j * kLanes), vmax));
    _mm256_store_ps(t + j * kLanes, e);
    return _mm256_add_ps(zero, e);
  };
  const __m256 total = _mm256_add_ps(
      _mm256_add_ps(_mm256_add_ps(ex(0), ex(4)), _mm256_add_ps(ex(2), ex(6))),
      _mm256_add_ps(_mm256_add_ps(ex(1), ex(5)), _mm256_add_ps(ex(3), ex(7))));
  const __m256 inv = _mm256_div_ps(_mm256_set1_ps(1.0f), total);
  // A row whose max is not finite (fully masked) is zeros.
  const __m256 finite = _mm256_cmp_ps(
      _mm256_andnot_ps(_mm256_set1_ps(-0.0f), vmax),
      _mm256_set1_ps(std::numeric_limits<float>::infinity()), _CMP_LT_OQ);
  for (size_t j = 0; j < cols; ++j) {
    const __m256 p = _mm256_mul_ps(_mm256_load_ps(t + j * kLanes), inv);
    _mm256_store_ps(t + j * kLanes, _mm256_and_ps(p, finite));
  }
  for (size_t r = 0; r < rows; ++r) {
    for (size_t j = 0; j < cols; ++j) y[r * cols + j] = t[j * kLanes + r];
  }
}

void SoftmaxRowsAvx2(const float* x, const float* add, size_t add_stride,
                     float* y, size_t rows, size_t cols) {
  if (cols < kLanes) {
    for (size_t r = 0; r < rows && cols > 0; r += kLanes) {
      SoftmaxNarrowRows(x + r * cols,
                        add != nullptr ? add + r * add_stride : nullptr,
                        add_stride, y + r * cols,
                        rows - r < kLanes ? rows - r : kLanes, cols);
    }
    return;
  }
  for (size_t r = 0; r < rows; ++r) {
    SoftmaxRowWith<ReduceMaxAddAvx2, SoftmaxExpSumAvx2, ScaleInPlaceAvx2>(
        x + r * cols, add != nullptr ? add + r * add_stride : nullptr,
        y + r * cols, cols);
  }
}

void LayerNormRowAvx2(const float* x, const float* gamma, const float* beta,
                      float mean, float inv_std, size_t d, float* y,
                      float* xhat) {
  const __m256 vmean = _mm256_set1_ps(mean);
  const __m256 vis = _mm256_set1_ps(inv_std);
  size_t j = 0;
  for (; j + kLanes <= d; j += kLanes) {
    const __m256 h =
        _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(x + j), vmean), vis);
    if (xhat != nullptr) _mm256_storeu_ps(xhat + j, h);
    const __m256 out = _mm256_add_ps(
        _mm256_mul_ps(_mm256_loadu_ps(gamma + j), h), _mm256_loadu_ps(beta + j));
    _mm256_storeu_ps(y + j, out);
  }
  for (; j < d; ++j) {
    const float h = (x[j] - mean) * inv_std;
    if (xhat != nullptr) xhat[j] = h;
    y[j] = gamma[j] * h + beta[j];
  }
}

// ---------------------------------------------------------------------------
// GEMM microkernels
// ---------------------------------------------------------------------------

// Non-transposed B: every C element is 0 + sum_p a[i][p] * b[p][j] in
// ascending p, each step a rounded multiply then a rounded add (never an
// FMA), then c + acc when accumulating: GemmRowsBNormalScalar's and
// GemmReference's bits. Vectorizing never reorders that per-element chain,
// because each lane owns whole elements:
//   * columns [0, n - n % 16) run in register blocks of kGemmRowBlock rows
//     x 16 columns (Goto & van de Geijn's microkernel): twelve accumulators,
//     two B vectors, one A broadcast and one product fill the sixteen ymm
//     registers. The accumulators are named locals, not an array, because
//     GCC -O2 keeps an `__m256 acc[rows]` array on the stack and loads and
//     stores it on every k step. Rows past the last full block run 1 x 16.
//   * the last n % 16 columns (n = 1 is SeqFM's output projection)
//     vectorize across rows instead, one column at a time: lane r is row
//     i + r. Eight A rows x four k are loaded and transposed in registers,
//     and each transposed column p feeds acc += col_p * b[p][j] in
//     ascending p; two groups of eight rows keep two named chains per
//     column. The k % 4 steps gather their column lane by lane; the rows
//     past a multiple of eight run the scalar expression.

inline __m256 MulAdd(__m256 acc, __m256 a, __m256 b) {
  return _mm256_add_ps(acc, _mm256_mul_ps(a, b));
}

inline void StoreGemm(float* c, __m256 acc, bool accumulate) {
  if (accumulate) acc = _mm256_add_ps(_mm256_loadu_ps(c), acc);
  _mm256_storeu_ps(c, acc);
}

static_assert(kGemmRowBlock == 6, "GemmBlock6x16 holds six rows");

// C[0..6)[j, j + 16) (+)= A[0..6) · B[:, j, j + 16).
void GemmBlock6x16(const float* a, const float* b, float* c, size_t k,
                   size_t n, size_t j, bool accumulate) {
  const float* a0 = a;
  const float* a1 = a0 + k;
  const float* a2 = a1 + k;
  const float* a3 = a2 + k;
  const float* a4 = a3 + k;
  const float* a5 = a4 + k;
  __m256 c00 = _mm256_setzero_ps(), c01 = c00, c10 = c00, c11 = c00,
         c20 = c00, c21 = c00, c30 = c00, c31 = c00, c40 = c00, c41 = c00,
         c50 = c00, c51 = c00;
  const float* bp = b + j;
  for (size_t p = 0; p < k; ++p, bp += n) {
    const __m256 b0 = _mm256_loadu_ps(bp);
    const __m256 b1 = _mm256_loadu_ps(bp + kLanes);
    __m256 va = _mm256_broadcast_ss(a0 + p);
    c00 = MulAdd(c00, va, b0);
    c01 = MulAdd(c01, va, b1);
    va = _mm256_broadcast_ss(a1 + p);
    c10 = MulAdd(c10, va, b0);
    c11 = MulAdd(c11, va, b1);
    va = _mm256_broadcast_ss(a2 + p);
    c20 = MulAdd(c20, va, b0);
    c21 = MulAdd(c21, va, b1);
    va = _mm256_broadcast_ss(a3 + p);
    c30 = MulAdd(c30, va, b0);
    c31 = MulAdd(c31, va, b1);
    va = _mm256_broadcast_ss(a4 + p);
    c40 = MulAdd(c40, va, b0);
    c41 = MulAdd(c41, va, b1);
    va = _mm256_broadcast_ss(a5 + p);
    c50 = MulAdd(c50, va, b0);
    c51 = MulAdd(c51, va, b1);
  }
  float* cr = c + j;
  StoreGemm(cr, c00, accumulate);
  StoreGemm(cr + kLanes, c01, accumulate);
  cr += n;
  StoreGemm(cr, c10, accumulate);
  StoreGemm(cr + kLanes, c11, accumulate);
  cr += n;
  StoreGemm(cr, c20, accumulate);
  StoreGemm(cr + kLanes, c21, accumulate);
  cr += n;
  StoreGemm(cr, c30, accumulate);
  StoreGemm(cr + kLanes, c31, accumulate);
  cr += n;
  StoreGemm(cr, c40, accumulate);
  StoreGemm(cr + kLanes, c41, accumulate);
  cr += n;
  StoreGemm(cr, c50, accumulate);
  StoreGemm(cr + kLanes, c51, accumulate);
}

// One row's columns [j, j + 16).
void GemmRow1x16(const float* a, const float* b, float* c, size_t k, size_t n,
                 size_t j, bool accumulate) {
  __m256 c0 = _mm256_setzero_ps(), c1 = c0;
  const float* bp = b + j;
  for (size_t p = 0; p < k; ++p, bp += n) {
    const __m256 va = _mm256_broadcast_ss(a + p);
    c0 = MulAdd(c0, va, _mm256_loadu_ps(bp));
    c1 = MulAdd(c1, va, _mm256_loadu_ps(bp + kLanes));
  }
  StoreGemm(c + j, c0, accumulate);
  StoreGemm(c + j + kLanes, c1, accumulate);
}

// Columns [0, 4) of the eight A rows a, a + k, ..., a + 7k, transposed:
// lane r of q<j> is a[r * k + j]. Rows r and r + 4 share one register (low
// and high 128 bits), so the transpose is two in-lane shuffle steps.
struct Columns4 {
  __m256 q0, q1, q2, q3;
};

inline Columns4 LoadColumns4(const float* a, size_t k) {
  auto rows = [&](size_t r) {
    const __m256 lo = _mm256_castps128_ps256(_mm_loadu_ps(a + r * k));
    return _mm256_insertf128_ps(lo, _mm_loadu_ps(a + (r + 4) * k), 1);
  };
  const __m256 r0 = rows(0), r1 = rows(1), r2 = rows(2), r3 = rows(3);
  const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
  const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
  const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
  const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
  return {_mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0)),
          _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2)),
          _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0)),
          _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2))};
}

// acc + q0 * b[0] + q1 * b[n] + q2 * b[2n] + q3 * b[3n], left to right.
inline __m256 MulAddColumns4(__m256 acc, const Columns4& q, const float* b,
                             size_t n) {
  acc = MulAdd(acc, q.q0, _mm256_broadcast_ss(b));
  acc = MulAdd(acc, q.q1, _mm256_broadcast_ss(b + n));
  acc = MulAdd(acc, q.q2, _mm256_broadcast_ss(b + 2 * n));
  return MulAdd(acc, q.q3, _mm256_broadcast_ss(b + 3 * n));
}

// Column j of A's rows a, a + k, ..., one row per lane, as kGroups groups of
// eight rows whose chains x0 (and x1) run side by side: two groups give the
// column two independent chains. `b` and `c` point at column j.
template <size_t kGroups>
void GemmTailColumn(const float* a, const float* b, float* c, size_t k,
                    size_t n, bool accumulate) {
  static_assert(kGroups == 1 || kGroups == 2, "one or two chains");
  const float* a1 = a + kLanes * k;
  __m256 x0 = _mm256_setzero_ps(), x1 = x0;
  size_t p = 0;
  for (; p + 4 <= k; p += 4) {
    x0 = MulAddColumns4(x0, LoadColumns4(a + p, k), b + p * n, n);
    if (kGroups == 2) {
      x1 = MulAddColumns4(x1, LoadColumns4(a1 + p, k), b + p * n, n);
    }
  }
  // The k % 4 steps gather their column lane by lane.
  auto column = [k](const float* ap) {
    return _mm256_setr_ps(ap[0], ap[k], ap[2 * k], ap[3 * k], ap[4 * k],
                          ap[5 * k], ap[6 * k], ap[7 * k]);
  };
  for (; p < k; ++p) {
    const __m256 bp = _mm256_broadcast_ss(b + p * n);
    x0 = MulAdd(x0, column(a + p), bp);
    if (kGroups == 2) x1 = MulAdd(x1, column(a1 + p), bp);
  }
  auto store = [n, accumulate](__m256 x, float* cc) {
    alignas(32) float lane[kLanes];
    _mm256_store_ps(lane, x);
    for (size_t r = 0; r < kLanes; ++r, cc += n) {
      *cc = accumulate ? *cc + lane[r] : lane[r];
    }
  };
  store(x0, c);
  if (kGroups == 2) store(x1, c + kLanes * n);
}

// Columns [j0, n) (fewer than 16) of rows [0, rows), one column at a time.
void GemmTailColumns(const float* arows, const float* b, float* crows,
                     size_t rows, size_t k, size_t n, size_t j0,
                     bool accumulate) {
  for (size_t j = j0; j < n; ++j) {
    size_t i = 0;
    for (; i + 2 * kLanes <= rows; i += 2 * kLanes) {
      GemmTailColumn<2>(arows + i * k, b + j, crows + i * n + j, k, n,
                        accumulate);
    }
    if (i + kLanes <= rows) {
      GemmTailColumn<1>(arows + i * k, b + j, crows + i * n + j, k, n,
                        accumulate);
      i += kLanes;
    }
    for (; i < rows; ++i) {
      const float* a = arows + i * k;
      float acc = 0.0f;
      for (size_t p = 0; p < k; ++p) acc += a[p] * b[p * n + j];
      float* cc = crows + i * n + j;
      *cc = accumulate ? *cc + acc : acc;
    }
  }
}

void GemmRowsBNormalAvx2(const float* arows, const float* b, float* crows,
                         size_t rows, size_t k, size_t n, bool accumulate) {
  const size_t nb = n - n % (2 * kLanes);
  size_t i = 0;
  for (; i + kGemmRowBlock <= rows && nb > 0; i += kGemmRowBlock) {
    for (size_t j = 0; j < nb; j += 2 * kLanes) {
      GemmBlock6x16(arows + i * k, b, crows + i * n, k, n, j, accumulate);
    }
  }
  for (; i < rows && nb > 0; ++i) {
    for (size_t j = 0; j < nb; j += 2 * kLanes) {
      GemmRow1x16(arows + i * k, b, crows + i * n, k, n, j, accumulate);
    }
  }
  if (nb < n) GemmTailColumns(arows, b, crows, rows, k, n, nb, accumulate);
}

// Transposed B: one lane-blocked dot product per element — vector partial
// sums, shared scalar tail and combine tree, exactly GemmRowsBTransScalar's
// order.
void GemmRowsBTransAvx2(const float* arows, const float* b, float* crows,
                        size_t rows, size_t k, size_t n, bool accumulate) {
  size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    const float* a0 = arows + i * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    float* crow = crows + i * n;
    for (size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      __m256 v0 = _mm256_setzero_ps();
      __m256 v1 = _mm256_setzero_ps();
      __m256 v2 = _mm256_setzero_ps();
      __m256 v3 = _mm256_setzero_ps();
      size_t p = 0;
      for (; p + kLanes <= k; p += kLanes) {
        const __m256 vb = _mm256_loadu_ps(brow + p);
        v0 = _mm256_add_ps(v0, _mm256_mul_ps(_mm256_loadu_ps(a0 + p), vb));
        v1 = _mm256_add_ps(v1, _mm256_mul_ps(_mm256_loadu_ps(a1 + p), vb));
        v2 = _mm256_add_ps(v2, _mm256_mul_ps(_mm256_loadu_ps(a2 + p), vb));
        v3 = _mm256_add_ps(v3, _mm256_mul_ps(_mm256_loadu_ps(a3 + p), vb));
      }
      const float s0 = FinishSumLanes(v0, a0, brow, p, k);
      const float s1 = FinishSumLanes(v1, a1, brow, p, k);
      const float s2 = FinishSumLanes(v2, a2, brow, p, k);
      const float s3 = FinishSumLanes(v3, a3, brow, p, k);
      if (accumulate) {
        crow[j] += s0;
        crow[n + j] += s1;
        crow[2 * n + j] += s2;
        crow[3 * n + j] += s3;
      } else {
        crow[j] = s0;
        crow[n + j] = s1;
        crow[2 * n + j] = s2;
        crow[3 * n + j] = s3;
      }
    }
  }
  for (; i < rows; ++i) {
    const float* ar = arows + i * k;
    float* crow = crows + i * n;
    for (size_t j = 0; j < n; ++j) {
      const float s = DotAvx2(ar, b + j * k, k);
      if (accumulate) {
        crow[j] += s;
      } else {
        crow[j] = s;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fused attention rows
// ---------------------------------------------------------------------------

// Columns [c, c + 32) of every row of one attention item: the row's four
// accumulators and the four pooled sums stay in registers across its V
// rows (named, not an array, so -O2 keeps them there), and each element
// keeps ScalarAttentionColumns' order (a zero accumulator plus
// p[j] * v[j][c] in ascending j; a zero pool plus pool_scale * row in
// ascending r).
void AttentionColumns32Avx2(const AttentionRow* rows, size_t n, size_t dv,
                            bool pooled, __m256 vscale, size_t c,
                            float* out) {
  __m256 s0 = _mm256_setzero_ps(), s1 = s0, s2 = s0, s3 = s0;
  for (size_t r = 0; r < n; ++r) {
    const AttentionRow& row = rows[r];
    __m256 a0, a1, a2, a3;
    if (row.done != nullptr) {
      const float* src = row.done + c;
      a0 = _mm256_loadu_ps(src);
      a1 = _mm256_loadu_ps(src + kLanes);
      a2 = _mm256_loadu_ps(src + 2 * kLanes);
      a3 = _mm256_loadu_ps(src + 3 * kLanes);
    } else {
      a0 = a1 = a2 = a3 = _mm256_setzero_ps();
      for (size_t j = 0; j < row.width; ++j) {
        const __m256 pj = _mm256_set1_ps(row.p[j]);
        const float* vr = row.v[j] + c;
        a0 = _mm256_add_ps(a0, _mm256_mul_ps(pj, _mm256_loadu_ps(vr)));
        a1 = _mm256_add_ps(a1,
                           _mm256_mul_ps(pj, _mm256_loadu_ps(vr + kLanes)));
        a2 = _mm256_add_ps(
            a2, _mm256_mul_ps(pj, _mm256_loadu_ps(vr + 2 * kLanes)));
        a3 = _mm256_add_ps(
            a3, _mm256_mul_ps(pj, _mm256_loadu_ps(vr + 3 * kLanes)));
      }
    }
    if (pooled) {
      s0 = _mm256_add_ps(s0, _mm256_mul_ps(vscale, a0));
      s1 = _mm256_add_ps(s1, _mm256_mul_ps(vscale, a1));
      s2 = _mm256_add_ps(s2, _mm256_mul_ps(vscale, a2));
      s3 = _mm256_add_ps(s3, _mm256_mul_ps(vscale, a3));
    } else {
      float* dst = out + r * dv + c;
      _mm256_storeu_ps(dst, a0);
      _mm256_storeu_ps(dst + kLanes, a1);
      _mm256_storeu_ps(dst + 2 * kLanes, a2);
      _mm256_storeu_ps(dst + 3 * kLanes, a3);
    }
  }
  if (pooled) {
    _mm256_storeu_ps(out + c, s0);
    _mm256_storeu_ps(out + c + kLanes, s1);
    _mm256_storeu_ps(out + c + 2 * kLanes, s2);
    _mm256_storeu_ps(out + c + 3 * kLanes, s3);
  }
}

void AttentionRowsAvx2(const AttentionRow* rows, size_t n, size_t dv,
                       bool pooled, float pool_scale, float* out) {
  const __m256 vscale = _mm256_set1_ps(pool_scale);
  size_t c = 0;
  for (; c + 4 * kLanes <= dv; c += 4 * kLanes) {
    AttentionColumns32Avx2(rows, n, dv, pooled, vscale, c, out);
  }
  for (; c < dv; c += kLanes) {
    ScalarAttentionColumns(rows, n, dv, pooled, pool_scale, c,
                           std::min(kLanes, dv - c), out);
  }
}

const KernelTable kAvx2Table = {
    /*dot=*/DotAvx2,
    /*reduce_sum=*/ReduceSumAvx2,
    /*reduce_sum_sq_diff=*/ReduceSumSqDiffAvx2,
    /*reduce_max_add=*/ReduceMaxAddAvx2,
    /*add=*/AddAvx2,
    /*sub=*/SubAvx2,
    /*mul=*/MulAvx2,
    /*madd=*/MaddAvx2,
    /*axpy=*/AxpyAvx2,
    /*scale=*/ScaleAvx2,
    /*scale_inplace=*/ScaleInPlaceAvx2,
    /*relu=*/ReluAvx2,
    /*exp_map=*/ExpMapAvx2,
    /*sigmoid=*/SigmoidAvx2,
    /*tanh=*/TanhAvx2,
    /*softmax_exp_sum=*/SoftmaxExpSumAvx2,
    /*softmax_rows=*/SoftmaxRowsAvx2,
    /*layer_norm_row=*/LayerNormRowAvx2,
    /*gemm_rows_b_normal=*/GemmRowsBNormalAvx2,
    /*gemm_rows_b_trans=*/GemmRowsBTransAvx2,
    /*attention_rows=*/AttentionRowsAvx2,
    /*name=*/"avx2",
};

}  // namespace

// Looked up by kernels.cc (declared there, only when SEQFM_HAVE_AVX2).
const KernelTable* Avx2TableOrNull() { return &kAvx2Table; }

}  // namespace kernels
}  // namespace tensor
}  // namespace seqfm
