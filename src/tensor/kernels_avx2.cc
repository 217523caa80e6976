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
//     into lane i % 8), take sub-8 tails through masked loads (or spill
//     and finish them with the shared scalar code), and combine with the
//     shared fixed tree, in registers or on the stack — so vector and
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

// CombineLanesSum in registers: the two 128-bit halves (lanes 4 apart),
// then movehl (2 apart), then one shuffle (1 apart).
inline float SumLanes(__m256 v) {
  const __m128 t =
      _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  const __m128 u = _mm_add_ps(t, _mm_movehl_ps(t, t));
  return _mm_cvtss_f32(_mm_add_ss(u, _mm_shuffle_ps(u, u, 1)));
}

// Lanes [0, n) set (n <= 8): the mask of a k % 8 tail's masked loads.
inline __m256i TailMask(size_t n) {
  alignas(32) static const int32_t kBits[2 * kLanes] = {-1, -1, -1, -1,
                                                        -1, -1, -1, -1};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kBits + kLanes - n));
}

// The lane-blocked dot's tail: elements [p, n) (fewer than eight) feed
// lanes 0, 1, ... through masked loads. The empty lanes add 0 * 0, an
// exact +0, to a partial sum that is never -0 (it starts at +0, and a
// rounded sum is -0 only when both operands are), so no lane changes.
inline __m256 MulAddTail(__m256 acc, const float* a, const float* b,
                         size_t p, size_t n) {
  const __m256i m = TailMask(n - p);
  return _mm256_add_ps(acc, _mm256_mul_ps(_mm256_maskload_ps(a + p, m),
                                          _mm256_maskload_ps(b + p, m)));
}

float DotAvx2(const float* a, const float* b, size_t n) {
  __m256 vacc = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    vacc = _mm256_add_ps(
        vacc, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  if (i < n) vacc = MulAddTail(vacc, a, b, i, n);
  return SumLanes(vacc);
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

// b > a ? b : a, lane-wise: `>`-then-keep, so a NaN challenger compares
// false and never replaces the incumbent, matching the scalar rule.
inline __m256 PickGreater(__m256 a, __m256 b) {
  return _mm256_blendv_ps(a, b, _mm256_cmp_ps(b, a, _CMP_GT_OQ));
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
  // Column j of the block (lane j of every row's tree), or the lane's
  // initial value past the row's end. Named vectors, not an array, so the
  // trees stay in registers.
  auto col = [&](size_t j) {
    return j < cols ? PickGreater(neg_inf, _mm256_load_ps(t + j * kLanes))
                    : neg_inf;
  };
  const __m256 vmax =
      PickGreater(PickGreater(PickGreater(col(0), col(4)),
                              PickGreater(col(2), col(6))),
                  PickGreater(PickGreater(col(1), col(5)),
                              PickGreater(col(3), col(7))));
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

// Transposed B: lane-blocked dot products, eight side by side. The lanes
// of output o are finished by one in-register 8 x 8 transpose whose adds
// pair lanes 4 apart, then 2, then 1 — CombineLanesSum's tree — leaving
// output o in lane o, so no output round-trips through the stack.

// [CombineLanesSum(v0), ..., CombineLanesSum(v7)].
inline __m256 FinishSums8(__m256 v0, __m256 v1, __m256 v2, __m256 v3,
                          __m256 v4, __m256 v5, __m256 v6, __m256 v7) {
  // Lanes 4 apart: output o's halves added, o and o + 4 in one vector.
  auto halves = [](__m256 a, __m256 b) {
    return _mm256_add_ps(_mm256_permute2f128_ps(a, b, 0x20),
                         _mm256_permute2f128_ps(a, b, 0x31));
  };
  const __m256 w0 = halves(v0, v4), w1 = halves(v1, v5);
  const __m256 w2 = halves(v2, v6), w3 = halves(v3, v7);
  // Lanes 2 apart: per half, [u0 of a, u0 of b, u1 of a, u1 of b].
  const __m256 x01 =
      _mm256_add_ps(_mm256_unpacklo_ps(w0, w1), _mm256_unpackhi_ps(w0, w1));
  const __m256 x23 =
      _mm256_add_ps(_mm256_unpacklo_ps(w2, w3), _mm256_unpackhi_ps(w2, w3));
  // Lanes 1 apart: u0 + u1 of outputs 0..3 (low half) and 4..7 (high).
  return _mm256_add_ps(_mm256_shuffle_ps(x01, x23, _MM_SHUFFLE(1, 0, 1, 0)),
                       _mm256_shuffle_ps(x01, x23, _MM_SHUFFLE(3, 2, 3, 2)));
}

// The eight dot products x · y_o of length k, y_o = y + o * k for
// o < count and y_{count-1} past it (the padding outputs are discarded).
__attribute__((always_inline)) inline __m256 Dots8(const float* x,
                                                   const float* y,
                                                   size_t count, size_t k) {
  auto row = [&](size_t o) { return y + std::min(o, count - 1) * k; };
  const float *y0 = y, *y1 = row(1), *y2 = row(2), *y3 = row(3),
              *y4 = row(4), *y5 = row(5), *y6 = row(6), *y7 = row(7);
  __m256 a0 = _mm256_setzero_ps(), a1 = a0, a2 = a0, a3 = a0, a4 = a0,
         a5 = a0, a6 = a0, a7 = a0;
  size_t p = 0;
  for (; p + kLanes <= k; p += kLanes) {
    const __m256 vx = _mm256_loadu_ps(x + p);
    a0 = MulAdd(a0, vx, _mm256_loadu_ps(y0 + p));
    a1 = MulAdd(a1, vx, _mm256_loadu_ps(y1 + p));
    a2 = MulAdd(a2, vx, _mm256_loadu_ps(y2 + p));
    a3 = MulAdd(a3, vx, _mm256_loadu_ps(y3 + p));
    a4 = MulAdd(a4, vx, _mm256_loadu_ps(y4 + p));
    a5 = MulAdd(a5, vx, _mm256_loadu_ps(y5 + p));
    a6 = MulAdd(a6, vx, _mm256_loadu_ps(y6 + p));
    a7 = MulAdd(a7, vx, _mm256_loadu_ps(y7 + p));
  }
  if (p < k) {
    a0 = MulAddTail(a0, x, y0, p, k);
    a1 = MulAddTail(a1, x, y1, p, k);
    a2 = MulAddTail(a2, x, y2, p, k);
    a3 = MulAddTail(a3, x, y3, p, k);
    a4 = MulAddTail(a4, x, y4, p, k);
    a5 = MulAddTail(a5, x, y5, p, k);
    a6 = MulAddTail(a6, x, y6, p, k);
    a7 = MulAddTail(a7, x, y7, p, k);
  }
  return FinishSums8(a0, a1, a2, a3, a4, a5, a6, a7);
}

// Writes (or adds) lanes [0, count) of \p s to c[0, count).
inline void StoreLanes(__m256 s, size_t count, float* c, bool accumulate) {
  if (count == kLanes) {
    StoreGemm(c, s, accumulate);
    return;
  }
  alignas(32) float lane[kLanes];
  _mm256_store_ps(lane, s);
  for (size_t o = 0; o < count; ++o) {
    c[o] = accumulate ? c[o] + lane[o] : lane[o];
  }
}

// Blocks of eight outputs along C's rows: one A row against eight B rows.
void GemmRowsBTransAvx2(const float* arows, const float* b, float* crows,
                        size_t rows, size_t k, size_t n, size_t ldc,
                        bool accumulate) {
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < n; j += kLanes) {
      const size_t count = std::min(kLanes, n - j);
      StoreLanes(Dots8(arows + i * k, b + j * k, count, k), count,
                 crows + i * ldc + j, accumulate);
    }
  }
}

// ---------------------------------------------------------------------------
// Attention tiles
// ---------------------------------------------------------------------------

// One row's scores of items [0, nt) (nt <= 8) \p stride apart, one item
// per lane; a stride of 0 broadcasts, lanes past nt are 0.
inline __m256 LoadItems(const float* s, size_t stride, size_t nt) {
  if (stride == 0) return _mm256_broadcast_ss(s);
  if (stride == 1 && nt == kLanes) return _mm256_loadu_ps(s);
  alignas(32) float lane[kLanes] = {0.0f};
  for (size_t t = 0; t < nt; ++t) lane[t] = s[t * stride];
  return _mm256_load_ps(lane);
}

// The tile kernel is instantiated for two keys (SeqFM's history rows and
// static rows), so their loops unroll and their trees shrink at compile
// time, and for any width (kW == 0: g.width at run time).
template <size_t kW>
inline size_t TileWidth(const AttentionTile& g) {
  return kW != 0 ? kW : g.width;
}

// A lane tree over lane[0, 8) whose lanes from w on hold the reduction's
// identity: pairs 4 apart, then 2, then 1, as CombineLanesSum and
// CombineLanesMax pair them, skipping each pair whose second lane is an
// identity (op(x, identity) == x: -inf never wins a pick, and + 0 keeps a
// sum that is never -0).
template <typename Op>
inline __m256 LaneTree(const __m256* lane, size_t w, Op op) {
  auto pair = [&](__m256 a, __m256 b, size_t b_lane) {
    return b_lane < w ? op(a, b) : a;
  };
  const __m256 t0 = pair(lane[0], lane[4], 4), t1 = pair(lane[1], lane[5], 5);
  const __m256 t2 = pair(lane[2], lane[6], 6), t3 = pair(lane[3], lane[7], 7);
  return pair(pair(t0, t2, 2), pair(t1, t3, 3), 1);
}

// Row r's probabilities for items [t0, t0 + nt) into p (key j's eight
// lanes at p + j * 8): softmax_rows' row for each item, one item per lane.
// Lane l of a row's max and sum trees takes keys l, l + 8, ... in
// ascending order. Rows without a mask add 0, which changes no
// exponential: it only turns a -0 score into +0, and exp(+-0 - max) is the
// same.
template <size_t kW>
void TileSoftmax(const AttentionTile& g, size_t r, size_t t0, size_t nt,
                 float* p) {
  const size_t w = TileWidth<kW>(g);
  const __m256 alpha = _mm256_set1_ps(g.alpha);
  const float* add = g.add != nullptr ? g.add + r * g.add_stride : nullptr;
  for (size_t j = 0; j < w; ++j) {
    const __m256 s = LoadItems(g.s[j] + r * g.s_row[j] + t0 * g.s_item[j],
                               g.s_item[j], nt);
    _mm256_storeu_ps(p + j * kLanes,
                     _mm256_add_ps(_mm256_mul_ps(alpha, s),
                                   _mm256_set1_ps(add != nullptr ? add[j]
                                                                 : 0.0f)));
  }
  const __m256 neg_inf =
      _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  __m256 lane[kLanes];
  for (size_t l = 0; l < kLanes; ++l) {
    __m256 m = neg_inf;
    for (size_t j = l; j < w; j += kLanes) {
      m = PickGreater(m, _mm256_loadu_ps(p + j * kLanes));
    }
    lane[l] = m;
  }
  const __m256 vmax = LaneTree(lane, w, [](__m256 a, __m256 b) {
    return PickGreater(a, b);
  });
  for (size_t l = 0; l < kLanes; ++l) {
    __m256 sum = _mm256_setzero_ps();
    for (size_t j = l; j < w; j += kLanes) {
      const __m256 e =
          ExpVec(_mm256_sub_ps(_mm256_loadu_ps(p + j * kLanes), vmax));
      _mm256_storeu_ps(p + j * kLanes, e);
      sum = _mm256_add_ps(sum, e);
    }
    lane[l] = sum;
  }
  const __m256 total = LaneTree(lane, w, [](__m256 a, __m256 b) {
    return _mm256_add_ps(a, b);
  });
  const __m256 inv = _mm256_div_ps(_mm256_set1_ps(1.0f), total);
  // A row whose max is not finite (fully masked) is zeros.
  const __m256 finite = _mm256_cmp_ps(
      _mm256_andnot_ps(_mm256_set1_ps(-0.0f), vmax),
      _mm256_set1_ps(std::numeric_limits<float>::infinity()), _CMP_LT_OQ);
  for (size_t j = 0; j < w; ++j) {
    const __m256 e = _mm256_loadu_ps(p + j * kLanes);
    _mm256_storeu_ps(p + j * kLanes,
                     _mm256_and_ps(_mm256_mul_ps(e, inv), finite));
  }
}

// Key j's V row of item `item` at column c.
inline const float* TileV(const AttentionTile& g, size_t j, size_t item,
                          size_t c) {
  return g.v[j] + item * g.v_item[j] + c;
}

// One item's V rows at column c: for a fixed width, looked up once before
// the row loop (the compiler cannot hoist them past the output stores);
// for any width, per use.
template <size_t kW>
struct ItemV {
  ItemV(const AttentionTile& g, size_t item, size_t c) {
    for (size_t j = 0; j < kW; ++j) row[j] = TileV(g, j, item, c);
  }
  const float* operator()(size_t j) const { return row[j]; }
  const float* row[kW];
};

template <>
struct ItemV<0> {
  ItemV(const AttentionTile& g, size_t item, size_t c)
      : g(g), item(item), c(c) {}
  const float* operator()(size_t j) const { return TileV(g, j, item, c); }
  const AttentionTile& g;
  size_t item, c;
};

// Rows [0, n) of item `item` over columns [c, c + 32), their
// probabilities at p + r * width * 8 (the item's lane): each row's four
// accumulators 0 + sum_j p_j * v_j (ascending j) and, pooled, the four
// sums stay in registers (named, not an array, so -O2 keeps them there).
// Pooled, a row's leading 0 + is dropped (kernels.h: it only changes the
// sign of a zero, which the fold into a pool that is not -0 absorbs).
template <bool kPooled, size_t kW>
void TileColumns32(const AttentionTile& g, const float* p, size_t n,
                   size_t item, size_t c, float* out) {
  const size_t w = TileWidth<kW>(g);
  const ItemV<kW> vrow(g, item, c);
  const __m256 vscale = _mm256_set1_ps(g.pool_scale);
  __m256 s0 = _mm256_setzero_ps(), s1 = s0, s2 = s0, s3 = s0;
  if (kPooled) {
    s0 = _mm256_loadu_ps(out + c);
    s1 = _mm256_loadu_ps(out + c + kLanes);
    s2 = _mm256_loadu_ps(out + c + 2 * kLanes);
    s3 = _mm256_loadu_ps(out + c + 3 * kLanes);
  }
  for (size_t r = 0; r < n; ++r, p += w * kLanes) {
    __m256 a0 = _mm256_setzero_ps(), a1 = a0, a2 = a0, a3 = a0;
    size_t j = 0;
    if (kPooled && w > 0) {
      const __m256 pj = _mm256_broadcast_ss(p);
      const float* vr = vrow(0);
      a0 = _mm256_mul_ps(pj, _mm256_loadu_ps(vr));
      a1 = _mm256_mul_ps(pj, _mm256_loadu_ps(vr + kLanes));
      a2 = _mm256_mul_ps(pj, _mm256_loadu_ps(vr + 2 * kLanes));
      a3 = _mm256_mul_ps(pj, _mm256_loadu_ps(vr + 3 * kLanes));
      j = 1;
    }
    for (; j < w; ++j) {
      const __m256 pj = _mm256_broadcast_ss(p + j * kLanes);
      const float* vr = vrow(j);
      a0 = _mm256_add_ps(a0, _mm256_mul_ps(pj, _mm256_loadu_ps(vr)));
      a1 = _mm256_add_ps(a1, _mm256_mul_ps(pj, _mm256_loadu_ps(vr + kLanes)));
      a2 = _mm256_add_ps(a2,
                         _mm256_mul_ps(pj, _mm256_loadu_ps(vr + 2 * kLanes)));
      a3 = _mm256_add_ps(a3,
                         _mm256_mul_ps(pj, _mm256_loadu_ps(vr + 3 * kLanes)));
    }
    if (kPooled) {
      s0 = _mm256_add_ps(s0, _mm256_mul_ps(vscale, a0));
      s1 = _mm256_add_ps(s1, _mm256_mul_ps(vscale, a1));
      s2 = _mm256_add_ps(s2, _mm256_mul_ps(vscale, a2));
      s3 = _mm256_add_ps(s3, _mm256_mul_ps(vscale, a3));
    } else {
      float* dst = out + r * g.dv + c;
      _mm256_storeu_ps(dst, a0);
      _mm256_storeu_ps(dst + kLanes, a1);
      _mm256_storeu_ps(dst + 2 * kLanes, a2);
      _mm256_storeu_ps(dst + 3 * kLanes, a3);
    }
  }
  if (kPooled) {
    _mm256_storeu_ps(out + c, s0);
    _mm256_storeu_ps(out + c + kLanes, s1);
    _mm256_storeu_ps(out + c + 2 * kLanes, s2);
    _mm256_storeu_ps(out + c + 3 * kLanes, s3);
  }
}

// Every column of rows [0, n) of one item: 32-wide blocks, then
// TileRowColumns.
template <bool kPooled, size_t kW>
void TileItem(const AttentionTile& g, const float* p, size_t n, size_t item,
              float* out) {
  size_t c = 0;
  for (; c + 4 * kLanes <= g.dv; c += 4 * kLanes) {
    TileColumns32<kPooled, kW>(g, p, n, item, c, out);
  }
  for (size_t r = 0; r < n && c < g.dv; ++r) {
    TileRowColumns(g, p + r * g.width * kLanes, kLanes, item, c,
                   kPooled ? out : out + r * g.dv);
  }
}

// Row r of a lone item (items == 1, as the rows computed once per call)
// into p, key j at p + j * 8: its scaled scores run through softmax_rows'
// row across the keys, one vector per eight keys, instead of one lane of
// eight per key.
void TileSoftmaxAlone(const AttentionTile& g, size_t r, float* p) {
  const size_t w = g.width;
  float* x = g.probs + w * kLanes * std::min(kAttentionRowChunk, g.rows);
  for (size_t j = 0; j < w; ++j) x[j] = g.alpha * g.s[j][r * g.s_row[j]];
  SoftmaxRowWith<ReduceMaxAddAvx2, SoftmaxExpSumAvx2, ScaleInPlaceAvx2>(
      x, g.add != nullptr ? g.add + r * g.add_stride : nullptr, x, w);
  for (size_t j = 0; j < w; ++j) p[j * kLanes] = x[j];
}

// Eight items at a time, kAttentionRowChunk rows at a time: each row's
// softmax runs one item per lane into the probability scratch, then each
// item's rows run column block by column block.
template <size_t kW>
void TileAvx2(const AttentionTile& g) {
  const size_t row_floats = TileWidth<kW>(g) * kLanes;
  for (size_t t0 = 0; t0 < g.items; t0 += kLanes) {
    const size_t nt = std::min(kLanes, g.items - t0);
    for (size_t r0 = 0; r0 < g.rows; r0 += kAttentionRowChunk) {
      const size_t n = std::min(kAttentionRowChunk, g.rows - r0);
      for (size_t r = 0; r < n; ++r) {
        if (g.items == 1) {
          TileSoftmaxAlone(g, r0 + r, g.probs + r * row_floats);
        } else {
          TileSoftmax<kW>(g, r0 + r, t0, nt, g.probs + r * row_floats);
        }
      }
      for (size_t t = 0; t < nt; ++t) {
        const size_t item = t0 + t;
        float* out = g.out + item * g.out_item;
        if (g.pooled) {
          TileItem<true, kW>(g, g.probs + t, n, item, out);
        } else {
          TileItem<false, kW>(g, g.probs + t, n, item, out + r0 * g.dv);
        }
      }
    }
  }
}

void AttentionTileAvx2(const AttentionTile& g) {
  if (g.width == 2) {
    TileAvx2<2>(g);
  } else {
    TileAvx2<0>(g);
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
    /*attention_tile=*/AttentionTileAvx2,
    /*name=*/"avx2",
};

}  // namespace

// Looked up by kernels.cc (declared there, only when SEQFM_HAVE_AVX2).
const KernelTable* Avx2TableOrNull() { return &kAvx2Table; }

}  // namespace kernels
}  // namespace tensor
}  // namespace seqfm
