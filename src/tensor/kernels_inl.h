#ifndef SEQFM_TENSOR_KERNELS_INL_H_
#define SEQFM_TENSOR_KERNELS_INL_H_

// Shared scalar bodies for the dispatched kernel layer. Included by BOTH
// kernels.cc (as the scalar table) and kernels_avx2.cc (for sub-8-element
// tails and the fixed combine tree), so the two translation units agree on
// every rounding step by construction.
//
// Everything here is `static inline` ON PURPOSE: kernels_avx2.cc is compiled
// with -mavx2, and an external-linkage inline function instantiated there
// could be the copy the linker keeps for the whole program — executing AVX2
// encodings on the scalar path of a non-AVX2 machine. Internal linkage gives
// each TU its own ISA-correct copy. The project compiles with
// -ffp-contract=off, so a*b+c below is a rounded multiply then a rounded add
// in every TU, matching the (non-FMA) vector instructions used by the AVX2
// kernels.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

#include "tensor/kernels.h"

namespace seqfm {
namespace tensor {
namespace kernels {

/// Lane count of the reduction contract (= floats per AVX2 register).
constexpr size_t kLanes = 8;

/// ExpApprox domain. Below kExpLo the result is exactly 0 (covers the
/// additive-mask -inf convention and keeps 2^n construction in the normal
/// range); above kExpHi the input saturates (result ~2.4e38, still finite).
constexpr float kExpLo = -87.33654f;
constexpr float kExpHi = 88.3762626647949f;

/// The fixed combine tree of the lane-blocked reduction order — identical to
/// the AVX2 horizontal reduce (low/high 128-bit halves, movehl, shuffle).
static inline float CombineLanesSum(const float* lanes) {
  const float t0 = lanes[0] + lanes[4];
  const float t1 = lanes[1] + lanes[5];
  const float t2 = lanes[2] + lanes[6];
  const float t3 = lanes[3] + lanes[7];
  const float u0 = t0 + t2;
  const float u1 = t1 + t3;
  return u0 + u1;
}

/// Max counterpart of CombineLanesSum. `>`-then-keep at every node: a NaN
/// challenger never replaces the incumbent, matching the elementwise rule.
static inline float CombineLanesMax(const float* lanes) {
  auto pick = [](float a, float b) { return b > a ? b : a; };
  const float t0 = pick(lanes[0], lanes[4]);
  const float t1 = pick(lanes[1], lanes[5]);
  const float t2 = pick(lanes[2], lanes[6]);
  const float t3 = pick(lanes[3], lanes[7]);
  return pick(pick(t0, t2), pick(t1, t3));
}

// ---------------------------------------------------------------------------
// Reductions (lane-blocked order; see kernels.h for the contract)
// ---------------------------------------------------------------------------

static inline float ScalarDot(const float* a, const float* b, size_t n) {
  float lanes[kLanes] = {0.0f};
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) lanes[l] += a[i + l] * b[i + l];
  }
  for (size_t l = 0; i < n; ++i, ++l) lanes[l] += a[i] * b[i];
  return CombineLanesSum(lanes);
}

static inline float ScalarReduceSum(const float* x, size_t n) {
  float lanes[kLanes] = {0.0f};
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) lanes[l] += x[i + l];
  }
  for (size_t l = 0; i < n; ++i, ++l) lanes[l] += x[i];
  return CombineLanesSum(lanes);
}

static inline float ScalarReduceSumSqDiff(const float* x, float mean,
                                          size_t n) {
  float lanes[kLanes] = {0.0f};
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) {
      const float c = x[i + l] - mean;
      lanes[l] += c * c;
    }
  }
  for (size_t l = 0; i < n; ++i, ++l) {
    const float c = x[i] - mean;
    lanes[l] += c * c;
  }
  return CombineLanesSum(lanes);
}

static inline float ScalarReduceMaxAdd(const float* x, const float* add,
                                       size_t n) {
  float lanes[kLanes];
  for (size_t l = 0; l < kLanes; ++l) {
    lanes[l] = -std::numeric_limits<float>::infinity();
  }
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) {
      const float v = x[i + l] + (add != nullptr ? add[i + l] : 0.0f);
      if (v > lanes[l]) lanes[l] = v;
    }
  }
  for (size_t l = 0; i < n; ++i, ++l) {
    const float v = x[i] + (add != nullptr ? add[i] : 0.0f);
    if (v > lanes[l]) lanes[l] = v;
  }
  return CombineLanesMax(lanes);
}

// ---------------------------------------------------------------------------
// Shared exp polynomial (Cephes expf reduction, the scheme every vector math
// library uses). Each step is a plain float mul/add/sub/floor, so the AVX2
// kernel reproduces it operation-for-operation with _mm256_* equivalents.
// ---------------------------------------------------------------------------

static inline float ExpScalar(float x) {
  if (!(x >= kExpLo)) return 0.0f;  // underflow; also catches NaN and -inf
  if (x > kExpHi) x = kExpHi;
  // n = round(x / ln 2) via floor(x * log2e + 0.5); exact for our range.
  float fx = x * 1.44269504088896341f + 0.5f;
  fx = std::floor(fx);
  // r = x - n*ln2 in two steps (hi/lo split of ln 2) for a tight remainder.
  x = x - fx * 0.693359375f;
  x = x - fx * -2.12194440e-4f;
  const float z = x * x;
  float y = 1.9875691500e-4f;
  y = y * x + 1.3981999507e-3f;
  y = y * x + 8.3334519073e-3f;
  y = y * x + 4.1665795894e-2f;
  y = y * x + 1.6666665459e-1f;
  y = y * x + 5.0000001201e-1f;
  y = y * z + x;
  y = y + 1.0f;
  // 2^n by direct exponent-field construction (n in [-126, 127] here).
  const int32_t n = static_cast<int32_t>(fx);
  const uint32_t bits = static_cast<uint32_t>(n + 127) << 23;
  float pow2n;
  std::memcpy(&pow2n, &bits, sizeof(pow2n));
  return y * pow2n;
}

/// Stable sigmoid on ExpApprox: the historical StableSigmoid structure with
/// the shared polynomial in place of libm exp. NaN maps to 0 (exp(NaN)=0).
static inline float SigmoidScalar(float x) {
  if (x >= 0.0f) {
    const float z = ExpScalar(-x);
    return 1.0f / (1.0f + z);
  }
  const float z = ExpScalar(x);
  return z / (1.0f + z);
}

/// tanh on ExpApprox: tanh(x) = sign(x) * (1 - e) / (1 + e) with
/// e = ExpApprox(-2|x|). |x| and the *-2 are exact, the division is a single
/// IEEE divide on both paths, and the sign restore is a bit flip, so the AVX2
/// twin matches operation-for-operation. Large |x| saturates to +-1 exactly
/// (ExpApprox underflows to 0); NaN maps to -1 (exp(NaN)=0 and NaN >= 0 is
/// false), mirroring SigmoidScalar's NaN-to-0 convention.
static inline float TanhScalar(float x) {
  const float a = x >= 0.0f ? x : -x;
  const float e = ExpScalar(-2.0f * a);
  const float t = (1.0f - e) / (1.0f + e);
  return x >= 0.0f ? t : -t;
}

// ---------------------------------------------------------------------------
// Elementwise maps
// ---------------------------------------------------------------------------

static inline void ScalarAdd(const float* a, const float* b, float* y,
                             size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] = a[i] + b[i];
}
static inline void ScalarSub(const float* a, const float* b, float* y,
                             size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] = a[i] - b[i];
}
static inline void ScalarMul(const float* a, const float* b, float* y,
                             size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] = a[i] * b[i];
}
static inline void ScalarMadd(const float* a, const float* b, float* y,
                              size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += a[i] * b[i];
}
static inline void ScalarAxpy(float alpha, const float* x, float* y,
                              size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}
static inline void ScalarScale(float alpha, const float* x, float* y,
                               size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] = alpha * x[i];
}
static inline void ScalarScaleInPlace(float alpha, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] *= alpha;
}
static inline void ScalarRelu(const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}
static inline void ScalarExpMap(const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] = ExpScalar(x[i]);
}
static inline void ScalarSigmoidMap(const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] = SigmoidScalar(x[i]);
}
static inline void ScalarTanhMap(const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] = TanhScalar(x[i]);
}

static inline float ScalarSoftmaxExpSum(const float* x, const float* add,
                                        float max_val, float* y, size_t n) {
  float lanes[kLanes] = {0.0f};
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) {
      const float v = (x[i + l] + (add != nullptr ? add[i + l] : 0.0f)) -
                      max_val;
      const float e = ExpScalar(v);
      y[i + l] = e;
      lanes[l] += e;
    }
  }
  for (size_t l = 0; i < n; ++i, ++l) {
    const float v = (x[i] + (add != nullptr ? add[i] : 0.0f)) - max_val;
    const float e = ExpScalar(v);
    y[i] = e;
    lanes[l] += e;
  }
  return CombineLanesSum(lanes);
}

/// One row of softmax_rows, over a table's row kernels: the scalar table
/// runs it for every row, the AVX2 one for rows at least a vector wide.
template <float (*MaxAdd)(const float*, const float*, size_t),
          float (*ExpSum)(const float*, const float*, float, float*, size_t),
          void (*ScaleInPlace)(float, float*, size_t)>
static inline void SoftmaxRowWith(const float* x, const float* add, float* y,
                                  size_t n) {
  const float max_val = MaxAdd(x, add, n);
  // A fully masked row would yield max == -inf; fall back to zeros.
  if (!std::isfinite(max_val)) {
    for (size_t i = 0; i < n; ++i) y[i] = 0.0f;
    return;
  }
  // Masked (-inf) and NaN entries come out of the shared exp as exact
  // zeros, reproducing the historical per-element isfinite fallback.
  const float total = ExpSum(x, add, max_val, y, n);
  ScaleInPlace(1.0f / total, y, n);
}

static inline void ScalarLayerNormRow(const float* x, const float* gamma,
                                      const float* beta, float mean,
                                      float inv_std, size_t d, float* y,
                                      float* xhat) {
  for (size_t j = 0; j < d; ++j) {
    const float h = (x[j] - mean) * inv_std;
    if (xhat != nullptr) xhat[j] = h;
    y[j] = gamma[j] * h + beta[j];
  }
}

// ---------------------------------------------------------------------------
// Attention tiles (KernelTable::attention_tile)
// ---------------------------------------------------------------------------

/// Columns [c0, dv) of one row of item \p item of an attention tile, with
/// key j's probability at p[j * p_step]: 0 + sum_j p_j * v_j[c] in
/// ascending j, stored at out[c] or, pooled, folded as
/// out[c] += pool_scale * row[c]. The scalar kernel runs every row through
/// it; the AVX2 kernel the columns past its last 32-wide block.
static inline void TileRowColumns(const AttentionTile& g, const float* p,
                                  size_t p_step, size_t item, size_t c0,
                                  float* out) {
  for (size_t c = c0; c < g.dv; ++c) {
    float acc = 0.0f;
    for (size_t j = 0; j < g.width; ++j) {
      acc += p[j * p_step] * g.v[j][item * g.v_item[j] + c];
    }
    if (g.pooled) {
      out[c] += g.pool_scale * acc;
    } else {
      out[c] = acc;
    }
  }
}

}  // namespace kernels
}  // namespace tensor
}  // namespace seqfm

#endif  // SEQFM_TENSOR_KERNELS_INL_H_
