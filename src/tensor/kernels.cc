#include "tensor/kernels.h"

#include <algorithm>

#include "tensor/kernels_inl.h"
#include "util/logging.h"

namespace seqfm {
namespace tensor {
namespace kernels {

namespace {

// Register-tile height and cache-block width of the scalar GEMM microkernel.
// These only shape the traversal; every C element still accumulates its k
// products in ascending order into one private accumulator, so the blocking
// is invisible in the result bits (see tensor/ops.cc).
constexpr size_t kMr = 4;
constexpr size_t kNc = 512;

inline void StoreRow(const float* acc, float* crow, size_t jn,
                     bool accumulate) {
  if (accumulate) {
    for (size_t j = 0; j < jn; ++j) crow[j] += acc[j];
  } else {
    for (size_t j = 0; j < jn; ++j) crow[j] = acc[j];
  }
}

// Rows [0, rows) of `arows` ([rows, k] contiguous) times non-transposed B
// ([k, n]), written to the matching rows of C. Streams a kNc-wide block of B
// per pass; four C rows share each B row load. Historical kernel from
// tensor/ops.cc, unchanged — the order-preserving scalar reference that the
// AVX2 kernel (6x16 register blocks plus a row-vectorized column tail) must
// match bit-for-bit.
void GemmRowsBNormalScalar(const float* arows, const float* b, float* crows,
                           size_t rows, size_t k, size_t n, bool accumulate) {
  float acc[kMr * kNc];
  for (size_t j0 = 0; j0 < n; j0 += kNc) {
    const size_t jn = std::min(n - j0, kNc);
    size_t i = 0;
    for (; i + kMr <= rows; i += kMr) {
      std::fill(acc, acc + kMr * jn, 0.0f);
      const float* a0 = arows + i * k;
      const float* a1 = a0 + k;
      const float* a2 = a1 + k;
      const float* a3 = a2 + k;
      for (size_t p = 0; p < k; ++p) {
        const float* brow = b + p * n + j0;
        const float v0 = a0[p], v1 = a1[p], v2 = a2[p], v3 = a3[p];
        float* r0 = acc;
        float* r1 = acc + jn;
        float* r2 = acc + 2 * jn;
        float* r3 = acc + 3 * jn;
        for (size_t j = 0; j < jn; ++j) {
          r0[j] += v0 * brow[j];
          r1[j] += v1 * brow[j];
          r2[j] += v2 * brow[j];
          r3[j] += v3 * brow[j];
        }
      }
      for (size_t r = 0; r < kMr; ++r) {
        StoreRow(acc + r * jn, crows + (i + r) * n + j0, jn, accumulate);
      }
    }
    for (; i < rows; ++i) {
      std::fill(acc, acc + jn, 0.0f);
      const float* ar = arows + i * k;
      for (size_t p = 0; p < k; ++p) {
        const float av = ar[p];
        const float* brow = b + p * n + j0;
        for (size_t j = 0; j < jn; ++j) acc[j] += av * brow[j];
      }
      StoreRow(acc, crows + i * n + j0, jn, accumulate);
    }
  }
}

// Rows of A times transposed B (stored [n, k]): one lane-blocked dot product
// per output element (the kernel-layer reduction order), register-tiled so
// four A rows share each B row pass.
void GemmRowsBTransScalar(const float* arows, const float* b, float* crows,
                          size_t rows, size_t k, size_t n, size_t ldc,
                          bool accumulate) {
  size_t i = 0;
  for (; i + kMr <= rows; i += kMr) {
    const float* a0 = arows + i * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    float* crow = crows + i * ldc;
    for (size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float l0[kLanes] = {0.0f}, l1[kLanes] = {0.0f}, l2[kLanes] = {0.0f},
            l3[kLanes] = {0.0f};
      size_t p = 0;
      for (; p + kLanes <= k; p += kLanes) {
        for (size_t l = 0; l < kLanes; ++l) {
          const float bv = brow[p + l];
          l0[l] += a0[p + l] * bv;
          l1[l] += a1[p + l] * bv;
          l2[l] += a2[p + l] * bv;
          l3[l] += a3[p + l] * bv;
        }
      }
      for (size_t l = 0; p < k; ++p, ++l) {
        const float bv = brow[p];
        l0[l] += a0[p] * bv;
        l1[l] += a1[p] * bv;
        l2[l] += a2[p] * bv;
        l3[l] += a3[p] * bv;
      }
      const float s0 = CombineLanesSum(l0);
      const float s1 = CombineLanesSum(l1);
      const float s2 = CombineLanesSum(l2);
      const float s3 = CombineLanesSum(l3);
      if (accumulate) {
        crow[j] += s0;
        crow[ldc + j] += s1;
        crow[2 * ldc + j] += s2;
        crow[3 * ldc + j] += s3;
      } else {
        crow[j] = s0;
        crow[ldc + j] = s1;
        crow[2 * ldc + j] = s2;
        crow[3 * ldc + j] = s3;
      }
    }
  }
  for (; i < rows; ++i) {
    const float* ar = arows + i * k;
    float* crow = crows + i * ldc;
    for (size_t j = 0; j < n; ++j) {
      const float s = ScalarDot(ar, b + j * k, k);
      if (accumulate) {
        crow[j] += s;
      } else {
        crow[j] = s;
      }
    }
  }
}

void SoftmaxRowsScalar(const float* x, const float* add, size_t add_stride,
                       float* y, size_t rows, size_t cols) {
  for (size_t r = 0; r < rows; ++r) {
    SoftmaxRowWith<ScalarReduceMaxAdd, ScalarSoftmaxExpSum, ScalarScaleInPlace>(
        x + r * cols, add != nullptr ? add + r * add_stride : nullptr,
        y + r * cols, cols);
  }
}

void AttentionTileScalar(const AttentionTile& g) {
  float* p = g.probs;  // one row's probabilities
  for (size_t t = 0; t < g.items; ++t) {
    float* out = g.out + t * g.out_item;
    for (size_t r = 0; r < g.rows; ++r) {
      for (size_t j = 0; j < g.width; ++j) {
        p[j] = g.alpha * g.s[j][r * g.s_row[j] + t * g.s_item[j]];
      }
      SoftmaxRowWith<ScalarReduceMaxAdd, ScalarSoftmaxExpSum,
                     ScalarScaleInPlace>(
          p, g.add != nullptr ? g.add + r * g.add_stride : nullptr, p,
          g.width);
      TileRowColumns(g, p, 1, t, 0, g.pooled ? out : out + r * g.dv);
    }
  }
}

const KernelTable kScalarTable = {
    /*dot=*/ScalarDot,
    /*reduce_sum=*/ScalarReduceSum,
    /*reduce_sum_sq_diff=*/ScalarReduceSumSqDiff,
    /*reduce_max_add=*/ScalarReduceMaxAdd,
    /*add=*/ScalarAdd,
    /*sub=*/ScalarSub,
    /*mul=*/ScalarMul,
    /*madd=*/ScalarMadd,
    /*axpy=*/ScalarAxpy,
    /*scale=*/ScalarScale,
    /*scale_inplace=*/ScalarScaleInPlace,
    /*relu=*/ScalarRelu,
    /*exp_map=*/ScalarExpMap,
    /*sigmoid=*/ScalarSigmoidMap,
    /*tanh=*/ScalarTanhMap,
    /*softmax_exp_sum=*/ScalarSoftmaxExpSum,
    /*softmax_rows=*/SoftmaxRowsScalar,
    /*layer_norm_row=*/ScalarLayerNormRow,
    /*gemm_rows_b_normal=*/GemmRowsBNormalScalar,
    /*gemm_rows_b_trans=*/GemmRowsBTransScalar,
    /*attention_tile=*/AttentionTileScalar,
    /*name=*/"scalar",
};

}  // namespace

#if defined(SEQFM_HAVE_AVX2)
// Defined in kernels_avx2.cc (compiled with -mavx2 -mfma -ffp-contract=off).
const KernelTable* Avx2TableOrNull();
#else
static const KernelTable* Avx2TableOrNull() { return nullptr; }
#endif

bool Avx2KernelsAvailable() {
  return util::CpuHasAvx2() && Avx2TableOrNull() != nullptr;
}

const KernelTable& Table(util::SimdLevel level) {
  if (level == util::SimdLevel::kAvx2) {
    if (Avx2KernelsAvailable()) return *Avx2TableOrNull();
    static const bool warned_once = [] {
      SEQFM_LOG(Warning)
          << "AVX2 kernels requested but unavailable "
          << "(not compiled in or CPU lacks avx2+fma); using scalar";
      return true;
    }();
    (void)warned_once;
  }
  return kScalarTable;
}

const KernelTable& Active() { return Table(util::ActiveSimdLevel()); }

}  // namespace kernels
}  // namespace tensor
}  // namespace seqfm
