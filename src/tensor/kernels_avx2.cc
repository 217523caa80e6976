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
  __m256 lanes[kLanes];
  for (size_t j = 0; j < kLanes; ++j) {
    lanes[j] = j < cols ? pick(neg_inf, _mm256_load_ps(t + j * kLanes))
                        : neg_inf;
  }
  const __m256 vmax =
      pick(pick(pick(lanes[0], lanes[4]), pick(lanes[2], lanes[6])),
           pick(pick(lanes[1], lanes[5]), pick(lanes[3], lanes[7])));
  for (size_t j = 0; j < kLanes; ++j) {
    if (j < cols) {
      const __m256 e =
          ExpVec(_mm256_sub_ps(_mm256_load_ps(t + j * kLanes), vmax));
      _mm256_store_ps(t + j * kLanes, e);
      lanes[j] = _mm256_add_ps(zero, e);
    } else {
      lanes[j] = zero;
    }
  }
  const __m256 total = _mm256_add_ps(
      _mm256_add_ps(_mm256_add_ps(lanes[0], lanes[4]),
                    _mm256_add_ps(lanes[2], lanes[6])),
      _mm256_add_ps(_mm256_add_ps(lanes[1], lanes[5]),
                    _mm256_add_ps(lanes[3], lanes[7])));
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

// Non-transposed B: vectorize across OUTPUT COLUMNS, so each C element keeps
// the historical ascending-k single-accumulator order and the result is
// bit-identical to the scalar microkernel. Four A rows x two column vectors
// live in registers across the whole k loop.
template <size_t kRows>
inline void GemmPanelBNormal(const float* const* a, const float* b,
                             float* const* c, size_t k, size_t n,
                             bool accumulate) {
  static_assert(kRows >= 1 && kRows <= 4, "register budget");
  size_t j = 0;
  for (; j + 2 * kLanes <= n; j += 2 * kLanes) {
    __m256 acc0[kRows], acc1[kRows];
    for (size_t r = 0; r < kRows; ++r) {
      acc0[r] = _mm256_setzero_ps();
      acc1[r] = _mm256_setzero_ps();
    }
    for (size_t p = 0; p < k; ++p) {
      const float* brow = b + p * n + j;
      const __m256 vb0 = _mm256_loadu_ps(brow);
      const __m256 vb1 = _mm256_loadu_ps(brow + kLanes);
      for (size_t r = 0; r < kRows; ++r) {
        const __m256 va = _mm256_set1_ps(a[r][p]);
        acc0[r] = _mm256_add_ps(acc0[r], _mm256_mul_ps(va, vb0));
        acc1[r] = _mm256_add_ps(acc1[r], _mm256_mul_ps(va, vb1));
      }
    }
    for (size_t r = 0; r < kRows; ++r) {
      float* crow = c[r] + j;
      if (accumulate) {
        acc0[r] = _mm256_add_ps(_mm256_loadu_ps(crow), acc0[r]);
        acc1[r] = _mm256_add_ps(_mm256_loadu_ps(crow + kLanes), acc1[r]);
      }
      _mm256_storeu_ps(crow, acc0[r]);
      _mm256_storeu_ps(crow + kLanes, acc1[r]);
    }
  }
  for (; j + kLanes <= n; j += kLanes) {
    __m256 acc[kRows];
    for (size_t r = 0; r < kRows; ++r) acc[r] = _mm256_setzero_ps();
    for (size_t p = 0; p < k; ++p) {
      const __m256 vb = _mm256_loadu_ps(b + p * n + j);
      for (size_t r = 0; r < kRows; ++r) {
        acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(_mm256_set1_ps(a[r][p]),
                                                     vb));
      }
    }
    for (size_t r = 0; r < kRows; ++r) {
      float* crow = c[r] + j;
      if (accumulate) acc[r] = _mm256_add_ps(_mm256_loadu_ps(crow), acc[r]);
      _mm256_storeu_ps(crow, acc[r]);
    }
  }
  // Column tail: the plain ascending-k scalar expression per element.
  for (; j < n; ++j) {
    for (size_t r = 0; r < kRows; ++r) {
      float acc = 0.0f;
      const float* ar = a[r];
      for (size_t p = 0; p < k; ++p) acc += ar[p] * b[p * n + j];
      if (accumulate) {
        c[r][j] += acc;
      } else {
        c[r][j] = acc;
      }
    }
  }
}

void GemmRowsBNormalAvx2(const float* arows, const float* b, float* crows,
                         size_t rows, size_t k, size_t n, bool accumulate) {
  size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    const float* a[4] = {arows + i * k, arows + (i + 1) * k,
                         arows + (i + 2) * k, arows + (i + 3) * k};
    float* c[4] = {crows + i * n, crows + (i + 1) * n, crows + (i + 2) * n,
                   crows + (i + 3) * n};
    GemmPanelBNormal<4>(a, b, c, k, n, accumulate);
  }
  for (; i < rows; ++i) {
    const float* a[1] = {arows + i * k};
    float* c[1] = {crows + i * n};
    GemmPanelBNormal<1>(a, b, c, k, n, accumulate);
  }
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
