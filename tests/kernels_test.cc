// The SIMD kernel layer's contract suite: scalar and AVX2 kernels must be
// bit-identical on every output that is not NaN (including empty, size-1,
// and non-multiple-of-8 tails), the fused masked attention must match the
// dense chain it replaces, tensors must hand kernels 64-byte-aligned
// storage, and the scratch arena must make steady-state serving free of
// tensor heap allocations. AVX2 halves of the parity tests skip themselves
// on hardware without avx2+fma (the contract is then vacuously true).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "autograd/ops_common.h"
#include "autograd/variable.h"
#include "core/scratch_arena.h"
#include "core/seqfm.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "serve/predictor.h"
#include "serve/server.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/cpu.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace seqfm {
namespace {

using tensor::Tensor;
using tensor::kernels::KernelTable;
using util::SimdLevel;

// Sizes chosen to hit every tail case of the 8-lane blocking.
const std::vector<size_t> kOddSizes = {0,  1,  2,  3,  7,   8,   9,
                                       15, 16, 17, 31, 33,  64,  100,
                                       257};

std::vector<float> RandomVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.Uniform(-3.0, 3.0));
  return v;
}

bool BitEqual(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

/// The kernels.h contract: the same bits, or NaN on both sides.
bool SameFloat(float a, float b) {
  return BitEqual(a, b) || (std::isnan(a) && std::isnan(b));
}

/// Restores the SIMD level a test flipped, even on assertion failure.
class SimdLevelRestorer {
 public:
  SimdLevelRestorer() : prev_(util::ActiveSimdLevel()) {}
  ~SimdLevelRestorer() { util::SetSimdLevel(prev_); }

 private:
  SimdLevel prev_;
};

bool Avx2Usable() { return tensor::kernels::Avx2KernelsAvailable(); }

// ---------------------------------------------------------------------------
// util::cpu — detection and SEQFM_SIMD resolution
// ---------------------------------------------------------------------------

TEST(CpuTest, ResolveSimdChoiceCoversTheMatrix) {
  bool warn = false;
  EXPECT_EQ(util::ResolveSimdChoice(nullptr, true, &warn), SimdLevel::kAvx2);
  EXPECT_FALSE(warn);
  EXPECT_EQ(util::ResolveSimdChoice(nullptr, false, &warn),
            SimdLevel::kScalar);
  EXPECT_FALSE(warn);
  EXPECT_EQ(util::ResolveSimdChoice("auto", true, &warn), SimdLevel::kAvx2);
  EXPECT_FALSE(warn);
  EXPECT_EQ(util::ResolveSimdChoice("scalar", true, &warn),
            SimdLevel::kScalar);
  EXPECT_FALSE(warn);
  EXPECT_EQ(util::ResolveSimdChoice("avx2", true, &warn), SimdLevel::kAvx2);
  EXPECT_FALSE(warn);
  // avx2 requested on hardware without it: honored downward, with warning.
  EXPECT_EQ(util::ResolveSimdChoice("avx2", false, &warn),
            SimdLevel::kScalar);
  EXPECT_TRUE(warn);
  // Typos behave like auto, with warning.
  EXPECT_EQ(util::ResolveSimdChoice("axv2", true, &warn), SimdLevel::kAvx2);
  EXPECT_TRUE(warn);
}

TEST(CpuTest, SimdLevelNames) {
  EXPECT_STREQ(util::SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(util::SimdLevelName(SimdLevel::kAvx2), "avx2");
}

TEST(CpuTest, SetSimdLevelRoundTrips) {
  SimdLevelRestorer restore;
  const SimdLevel prev = util::SetSimdLevel(SimdLevel::kScalar);
  EXPECT_EQ(util::ActiveSimdLevel(), SimdLevel::kScalar);
  EXPECT_STREQ(tensor::kernels::Active().name, "scalar");
  util::SetSimdLevel(prev);
  EXPECT_EQ(util::ActiveSimdLevel(), prev);
}

TEST(CpuTest, TableFallsBackToScalarWhenAvx2Unavailable) {
  if (Avx2Usable()) {
    EXPECT_STREQ(tensor::kernels::Table(SimdLevel::kAvx2).name, "avx2");
  } else {
    EXPECT_STREQ(tensor::kernels::Table(SimdLevel::kAvx2).name, "scalar");
  }
  EXPECT_STREQ(tensor::kernels::Table(SimdLevel::kScalar).name, "scalar");
}

// ---------------------------------------------------------------------------
// Kernel-by-kernel scalar/AVX2 bit-parity at odd sizes
// ---------------------------------------------------------------------------

class KernelParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!Avx2Usable()) {
      GTEST_SKIP() << "no AVX2 kernels on this machine";
    }
    scalar_ = &tensor::kernels::Table(SimdLevel::kScalar);
    avx2_ = &tensor::kernels::Table(SimdLevel::kAvx2);
  }

  const KernelTable* scalar_ = nullptr;
  const KernelTable* avx2_ = nullptr;
};

TEST_F(KernelParityTest, Reductions) {
  for (size_t n : kOddSizes) {
    const auto a = RandomVec(n, 1000 + n);
    const auto b = RandomVec(n, 2000 + n);
    EXPECT_TRUE(BitEqual(scalar_->dot(a.data(), b.data(), n),
                         avx2_->dot(a.data(), b.data(), n)))
        << "dot n=" << n;
    EXPECT_TRUE(BitEqual(scalar_->reduce_sum(a.data(), n),
                         avx2_->reduce_sum(a.data(), n)))
        << "reduce_sum n=" << n;
    EXPECT_TRUE(BitEqual(scalar_->reduce_sum_sq_diff(a.data(), 0.25f, n),
                         avx2_->reduce_sum_sq_diff(a.data(), 0.25f, n)))
        << "reduce_sum_sq_diff n=" << n;
    EXPECT_TRUE(BitEqual(scalar_->reduce_max_add(a.data(), nullptr, n),
                         avx2_->reduce_max_add(a.data(), nullptr, n)))
        << "reduce_max n=" << n;
    EXPECT_TRUE(BitEqual(scalar_->reduce_max_add(a.data(), b.data(), n),
                         avx2_->reduce_max_add(a.data(), b.data(), n)))
        << "reduce_max_add n=" << n;
  }
}

TEST_F(KernelParityTest, ElementwiseMaps) {
  for (size_t n : kOddSizes) {
    const auto a = RandomVec(n, 3000 + n);
    const auto b = RandomVec(n, 4000 + n);
    auto ys = RandomVec(n, 5000 + n);
    auto yv = ys;  // identical starting contents for the accumulating ops
    auto check = [&](const char* what) {
      for (size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(BitEqual(ys[i], yv[i]))
            << what << " n=" << n << " i=" << i;
      }
    };
    scalar_->add(a.data(), b.data(), ys.data(), n);
    avx2_->add(a.data(), b.data(), yv.data(), n);
    check("add");
    scalar_->sub(a.data(), b.data(), ys.data(), n);
    avx2_->sub(a.data(), b.data(), yv.data(), n);
    check("sub");
    scalar_->mul(a.data(), b.data(), ys.data(), n);
    avx2_->mul(a.data(), b.data(), yv.data(), n);
    check("mul");
    scalar_->madd(a.data(), b.data(), ys.data(), n);
    avx2_->madd(a.data(), b.data(), yv.data(), n);
    check("madd");
    scalar_->axpy(0.37f, a.data(), ys.data(), n);
    avx2_->axpy(0.37f, a.data(), yv.data(), n);
    check("axpy");
    scalar_->scale(-1.7f, a.data(), ys.data(), n);
    avx2_->scale(-1.7f, a.data(), yv.data(), n);
    check("scale");
    scalar_->scale_inplace(0.81f, ys.data(), n);
    avx2_->scale_inplace(0.81f, yv.data(), n);
    check("scale_inplace");
    scalar_->relu(a.data(), ys.data(), n);
    avx2_->relu(a.data(), yv.data(), n);
    check("relu");
    scalar_->exp_map(a.data(), ys.data(), n);
    avx2_->exp_map(a.data(), yv.data(), n);
    check("exp_map");
    scalar_->sigmoid(a.data(), ys.data(), n);
    avx2_->sigmoid(a.data(), yv.data(), n);
    check("sigmoid");
    scalar_->tanh(a.data(), ys.data(), n);
    avx2_->tanh(a.data(), yv.data(), n);
    check("tanh");
  }
}

TEST_F(KernelParityTest, FusedRowsAndSpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (size_t n : kOddSizes) {
    auto x = RandomVec(n, 6000 + n);
    auto m = RandomVec(n, 7000 + n);
    if (n >= 3) {
      m[0] = -inf;  // masked entry
      x[n / 2] = nan;
      x[n - 1] = -200.0f;  // deep underflow
    }
    const float max_s = scalar_->reduce_max_add(x.data(), m.data(), n);
    const float max_v = avx2_->reduce_max_add(x.data(), m.data(), n);
    ASSERT_TRUE(BitEqual(max_s, max_v)) << "max n=" << n;
    std::vector<float> ys(n), yv(n);
    const float ts =
        scalar_->softmax_exp_sum(x.data(), m.data(), max_s, ys.data(), n);
    const float tv =
        avx2_->softmax_exp_sum(x.data(), m.data(), max_v, yv.data(), n);
    EXPECT_TRUE(BitEqual(ts, tv)) << "softmax total n=" << n;
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(BitEqual(ys[i], yv[i])) << "softmax n=" << n << " i=" << i;
    }
    if (n >= 3) {
      EXPECT_EQ(ys[0], 0.0f);      // -inf mask -> exact zero
      EXPECT_EQ(ys[n / 2], 0.0f);  // NaN input -> exact zero
    }

    const auto gamma = RandomVec(n, 8000 + n);
    const auto beta = RandomVec(n, 9000 + n);
    std::vector<float> hs(n), hv(n), xs(n), xv2(n);
    const auto clean = RandomVec(n, 10000 + n);
    scalar_->layer_norm_row(clean.data(), gamma.data(), beta.data(), 0.1f,
                            1.3f, n, hs.data(), xs.data());
    avx2_->layer_norm_row(clean.data(), gamma.data(), beta.data(), 0.1f, 1.3f,
                          n, hv.data(), xv2.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(BitEqual(hs[i], hv[i])) << "layer_norm y i=" << i;
      ASSERT_TRUE(BitEqual(xs[i], xv2[i])) << "layer_norm xhat i=" << i;
    }
  }
}

/// The per-row softmax softmax_rows replaced, on one table's row kernels.
void SoftmaxRowOracle(const KernelTable& kt, const float* x, const float* add,
                      float* y, size_t n) {
  const float max_val = kt.reduce_max_add(x, add, n);
  if (!std::isfinite(max_val)) {
    std::fill(y, y + n, 0.0f);
    return;
  }
  const float total = kt.softmax_exp_sum(x, add, max_val, y, n);
  kt.scale_inplace(1.0f / total, y, n);
}

TEST_F(KernelParityTest, SoftmaxRowsMatchesThePerRowSoftmax) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {nan, inf, -inf, 0.0f, -0.0f, -200.0f};
  for (size_t cols : {1u, 2u, 3u, 7u, 8u, 9u, 20u}) {
    for (size_t rows = 1; rows <= 17; ++rows) {
      const size_t stride = cols + 3;  // add rows are strided
      std::vector<float> x = RandomVec(rows * cols, 100 * rows + cols);
      std::vector<float> add = RandomVec(rows * stride, 50 * rows + cols);
      for (size_t r = 0; r < rows; ++r) {
        // Special values in x, -inf (masked) entries in the additive mask,
        // and every fifth row fully masked.
        x[r * cols + r % cols] = specials[r % 6];
        for (size_t j = 0; j < cols; ++j) {
          if ((r + j) % 3 == 0 || r % 5 == 4) add[r * stride + j] = -inf;
        }
      }
      for (const bool masked : {false, true}) {
        const float* a = masked ? add.data() : nullptr;
        std::vector<float> want(rows * cols), want_v(rows * cols);
        for (size_t r = 0; r < rows; ++r) {
          const float* ar = a != nullptr ? a + r * stride : nullptr;
          SoftmaxRowOracle(*scalar_, x.data() + r * cols, ar,
                           want.data() + r * cols, cols);
          SoftmaxRowOracle(*avx2_, x.data() + r * cols, ar,
                           want_v.data() + r * cols, cols);
        }
        std::vector<float> ys(rows * cols), yv(rows * cols), inplace = x;
        scalar_->softmax_rows(x.data(), a, stride, ys.data(), rows, cols);
        avx2_->softmax_rows(x.data(), a, stride, yv.data(), rows, cols);
        avx2_->softmax_rows(inplace.data(), a, stride, inplace.data(), rows,
                            cols);
        for (size_t i = 0; i < rows * cols; ++i) {
          ASSERT_TRUE(BitEqual(want[i], want_v[i]) &&
                      BitEqual(ys[i], want[i]) && BitEqual(yv[i], want[i]) &&
                      BitEqual(inplace[i], want[i]))
              << "rows=" << rows << " cols=" << cols << " masked=" << masked
              << " i=" << i;
        }
      }
    }
  }
}

/// One attention tile through the chain attention_tile replaces, on
/// \p kt: per item and row the raw scores, the Scale op, softmax_rows,
/// GemmReference's P · V (0 + sum_j p_j * v_j in ascending j) and, pooled,
/// SumAxis1's fold onto what out holds.
void AttentionTileOracle(const KernelTable& kt,
                         const tensor::kernels::AttentionTile& g,
                         std::vector<float>* out) {
  const size_t w = g.width;
  std::vector<float> p(w), v(w * g.dv), row(g.dv);
  for (size_t t = 0; t < g.items; ++t) {
    for (size_t j = 0; j < w; ++j) {
      std::copy(g.v[j] + t * g.v_item[j], g.v[j] + t * g.v_item[j] + g.dv,
                v.begin() + j * g.dv);
    }
    float* dst = out->data() + t * g.out_item;
    for (size_t r = 0; r < g.rows; ++r) {
      for (size_t j = 0; j < w; ++j) {
        p[j] = g.s[j][r * g.s_row[j] + t * g.s_item[j]];
      }
      kt.scale(g.alpha, p.data(), p.data(), w);
      kt.softmax_rows(p.data(),
                      g.add != nullptr ? g.add + r * g.add_stride : nullptr,
                      0, p.data(), 1, w);
      tensor::GemmReference(p.data(), v.data(), row.data(), 1, w, g.dv,
                            false, false, false);
      for (size_t c = 0; c < g.dv; ++c) {
        if (g.pooled) {
          dst[c] += g.pool_scale * row[c];
        } else {
          dst[r * g.dv + c] = row[c];
        }
      }
    }
  }
}

TEST_F(KernelParityTest, AttentionTileMatchesTheDenseChain) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {0.0f, -0.0f, inf, -inf, -200.0f, nan};
  // Scores as MaskedAttention lays them out: key 0 computed once (stride
  // 0 over the items) and the other keys side by side over the items
  // (SeqFM's cross-view history rows), item-major (per-item Q rows
  // against per-item keys, the static view's candidate row), or key-major
  // (per-item Q rows against broadcast keys, the cross view's candidate
  // row). Key j's V row is broadcast when j % 3 == 0.
  enum Layout { kCross, kItemMajor, kKeyMajor };
  struct Case {
    Layout layout;
    size_t width, rows;
    std::vector<size_t> items, dvs;
  };
  const std::vector<size_t> all_items = {1, 7, 8, 9, 31, 32, 33, 256};
  const std::vector<size_t> all_dvs = {1, 8, 37, 64, 75};
  const std::vector<Case> cases = {
      {kCross, 2, 20, all_items, all_dvs},
      {kCross, 2, 37, {9, 33}, all_dvs},
      {kItemMajor, 2, 1, all_items, all_dvs},
      {kItemMajor, 2, 20, {1, 9, 33}, {8, 75}},
      {kKeyMajor, 20, 1, all_items, all_dvs},
      {kKeyMajor, 2, 3, {1, 9, 33}, {37, 64}},
      {kCross, 0, 5, {1, 9}, {8, 37}},
      {kItemMajor, 1, 4, {1, 9, 33}, {10, 64}},
      {kKeyMajor, 3, 7, {1, 9, 33}, {10, 64}},
      {kCross, 5, 6, {1, 9, 33}, {1, 37}},
      {kItemMajor, 8, 3, {1, 9, 33}, {8, 37}},
      {kCross, 9, 2, {1, 9, 33}, {64, 75}},
      {kKeyMajor, 33, 2, {9, 33}, {37}},
  };
  for (const Case& cs : cases) {
    for (size_t items : cs.items) {
      for (size_t dv : cs.dvs) {
        const size_t w = cs.width, rows = cs.rows;
        const std::string where =
            "layout=" + std::to_string(cs.layout) + " width=" +
            std::to_string(w) + " rows=" + std::to_string(rows) +
            " items=" + std::to_string(items) + " dv=" + std::to_string(dv);
        auto once = RandomVec(rows * (w + 1), items + dv + w);
        auto scores = RandomVec(rows * items * w + 1, 3 * items + dv + w);
        // Specials on any key of a row, alone or beside finite scores (a
        // NaN must lose the max); with a 0.3 alpha -200 still underflows.
        for (size_t r = 0; r < rows && w > 0; ++r) {
          once[r * (w + 1)] = specials[(r / 2) % 6];
        }
        for (size_t i = 3; i < scores.size(); i += 7) {
          scores[i] = specials[i % 6];
        }
        const auto vals = RandomVec(w * items * dv + 1, 11 + dv + w);
        // Mask rows: open (0), biased, some keys masked, or all masked.
        std::vector<float> add(rows * (w + 2));
        for (size_t r = 0; r < rows; ++r) {
          for (size_t j = 0; j < w; ++j) {
            const float m[] = {0.0f, 0.25f * static_cast<float>(j) - 0.5f,
                               (r + j) % 3 == 0 ? -inf : 0.0f, -inf};
            add[r * (w + 2) + j] = m[r % 4];
          }
        }
        std::vector<const float*> s(w), v(w);
        std::vector<size_t> s_row(w), s_item(w), v_item(w);
        for (size_t j = 0; j < w; ++j) {
          if (cs.layout == kCross && j == 0) {
            s[j] = once.data();
            s_row[j] = w + 1;
            s_item[j] = 0;
          } else if (cs.layout == kCross) {
            s[j] = scores.data() + (j - 1);
            s_row[j] = items * (w - 1);
            s_item[j] = w - 1;
          } else if (cs.layout == kItemMajor) {
            s[j] = scores.data() + j;
            s_row[j] = w;
            s_item[j] = rows * w;
          } else {
            s[j] = scores.data() + j * items * rows;
            s_row[j] = 1;
            s_item[j] = rows;
          }
          v[j] = vals.data() + j * items * dv;
          v_item[j] = j % 3 == 0 ? 0 : dv;
        }
        std::vector<float> probs(std::max<size_t>(
            1, tensor::kernels::AttentionTileScratch(w, rows)));
        tensor::kernels::AttentionTile g;
        g.s = s.data();
        g.s_row = s_row.data();
        g.s_item = s_item.data();
        g.add_stride = w + 2;
        g.v = v.data();
        g.v_item = v_item.data();
        g.width = w;
        g.rows = rows;
        g.items = items;
        g.dv = dv;
        g.alpha = 0.3f;
        g.pool_scale = 0.125f;
        g.probs = probs.data();
        for (const bool masked : {false, true}) {
          g.add = masked ? add.data() : nullptr;
          for (const bool pooled : {false, true}) {
            g.pooled = pooled;
            g.out_item = pooled ? dv : rows * dv;
            const auto init = RandomVec(items * g.out_item, 17 + dv);
            std::vector<float> want = init, ys = init, yv = init;
            AttentionTileOracle(*scalar_, g, &want);
            g.out = ys.data();
            scalar_->attention_tile(g);
            g.out = yv.data();
            avx2_->attention_tile(g);
            for (size_t i = 0; i < want.size(); ++i) {
              ASSERT_TRUE(BitEqual(ys[i], want[i]) && BitEqual(yv[i], want[i]))
                  << where << " masked=" << masked << " pooled=" << pooled
                  << " i=" << i << ": scalar " << ys[i] << " avx2 " << yv[i]
                  << " chain " << want[i];
            }
          }
        }
      }
    }
  }
}

TEST_F(KernelParityTest, ExpAccuracyAgainstLibm) {
  // The shared polynomial replaces libm exp on the dispatched paths; it must
  // stay within a few ulp across the useful range (gradcheck depends on it).
  const auto& kt = *scalar_;
  for (float x = -80.0f; x <= 80.0f; x += 0.37f) {
    float y;
    kt.exp_map(&x, &y, 1);
    const double want = std::exp(static_cast<double>(x));
    EXPECT_NEAR(y / want, 1.0, 3e-7) << "x=" << x;
  }
  float zero = 0.0f, one;
  kt.exp_map(&zero, &one, 1);
  EXPECT_EQ(one, 1.0f);
  float s;
  kt.sigmoid(&zero, &s, 1);
  EXPECT_EQ(s, 0.5f);
}

TEST_F(KernelParityTest, TanhAccuracyAndSpecialValues) {
  // The dispatched tanh replaces libm on the serving paths (compiled and
  // eager run the same kernel). Accuracy first: |tanh| <= 1, so a few-ulp
  // absolute bound over the useful range is the right contract.
  const auto& kt = *scalar_;
  for (float x = -12.0f; x <= 12.0f; x += 0.173f) {
    float y;
    kt.tanh(&x, &y, 1);
    EXPECT_NEAR(y, std::tanh(static_cast<double>(x)), 2e-6) << "x=" << x;
  }

  // Exactness at the pinned points, on BOTH levels: tanh(0) == +0, large
  // |x| saturates to exactly +-1 (ExpApprox underflows to 0), the sign
  // restore is a bit flip (odd symmetry is bit-exact), and NaN maps to -1
  // (the twin of sigmoid's NaN-to-0 convention).
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const KernelTable* kt_level : {scalar_, avx2_}) {
    const float xs[] = {0.0f, 50.0f, -50.0f, 0.7f, -0.7f, nan};
    float ys[6];
    kt_level->tanh(xs, ys, 6);
    EXPECT_TRUE(BitEqual(ys[0], 0.0f));
    EXPECT_EQ(ys[1], 1.0f);
    EXPECT_EQ(ys[2], -1.0f);
    EXPECT_TRUE(BitEqual(ys[4], -ys[3])) << "odd symmetry";
    EXPECT_EQ(ys[5], -1.0f) << "NaN convention";
  }
}

// ---------------------------------------------------------------------------
// GEMM parity: whole-op, both levels, against the generalized oracle
// ---------------------------------------------------------------------------

TEST(GemmSimdTest, BitIdenticalAcrossLevelsAndAgainstReference) {
  if (!Avx2Usable()) GTEST_SKIP() << "no AVX2 kernels on this machine";
  SimdLevelRestorer restore;
  const std::vector<size_t> dims = {1, 3, 8, 17, 33};
  for (size_t m : dims) {
    for (size_t k : dims) {
      for (size_t n : dims) {
        for (bool trans_a : {false, true}) {
          for (bool trans_b : {false, true}) {
            for (bool accumulate : {false, true}) {
              const auto a = RandomVec(m * k, m * 131 + k);
              const auto b = RandomVec(k * n, k * 137 + n);
              const auto c0 = RandomVec(m * n, m * 139 + n);
              auto cs = c0;
              auto cv = c0;
              auto cr = c0;
              util::SetSimdLevel(SimdLevel::kScalar);
              tensor::Gemm(a.data(), b.data(), cs.data(), m, k, n, trans_a,
                           trans_b, accumulate);
              util::SetSimdLevel(SimdLevel::kAvx2);
              tensor::Gemm(a.data(), b.data(), cv.data(), m, k, n, trans_a,
                           trans_b, accumulate);
              tensor::GemmReference(a.data(), b.data(), cr.data(), m, k, n,
                                    trans_a, trans_b, accumulate);
              for (size_t i = 0; i < m * n; ++i) {
                ASSERT_TRUE(BitEqual(cs[i], cv[i]) && BitEqual(cs[i], cr[i]))
                    << "m=" << m << " k=" << k << " n=" << n
                    << " ta=" << trans_a << " tb=" << trans_b
                    << " acc=" << accumulate << " i=" << i;
              }
            }
          }
        }
      }
    }
  }
}

/// Random A [m,k], B [k,n] and C [m,n] with the special values planted
/// that the B-normal order must get right: A's row 0 is all -0 (so its
/// outputs are 0 + sum = +0, not the first product's -0), every seventh
/// entry is a signed zero, and every fourth row of A and sixth column of B
/// carries one +-inf, so some outputs are +-inf, some NaN and the rest
/// finite. C gets signed zeros and infinities too, for accumulate.
struct GemmCase {
  std::vector<float> a, b, c;
  GemmCase(size_t m, size_t k, size_t n, uint64_t seed)
      : a(RandomVec(m * k, seed)),
        b(RandomVec(k * n, seed + 1)),
        c(RandomVec(m * n, seed + 2)) {
    const float inf = std::numeric_limits<float>::infinity();
    for (std::vector<float>* v : {&a, &b, &c}) {
      for (size_t i = 0; i < v->size(); i += 7) {
        (*v)[i] = i % 2 == 0 ? 0.0f : -0.0f;
      }
    }
    for (size_t p = 0; p < k; ++p) a[p] = -0.0f;
    for (size_t i = 1; i < m; i += 4) a[i * k + i % k] = i % 8 ? inf : -inf;
    for (size_t j = 2; j < n; j += 6) b[(j % k) * n + j] = j % 4 ? -inf : inf;
    for (size_t i = 3; i < m * n; i += 11) c[i] = i % 2 ? inf : -inf;
  }
};

// The AVX2 B-normal kernel's block shapes against the scalar kernel and
// GemmReference, called directly (no pool split): rows across the 6-row
// register block and the 8-row lane groups of the column tail, tail widths
// n % 16 from 1 to 15, k across the 4-step transpose, and the compiled
// SeqFM body's two serving shapes.
TEST(GemmSimdTest, BNormalBlockShapesMatchScalarAndReference) {
  if (!Avx2Usable()) GTEST_SKIP() << "no AVX2 kernels on this machine";
  const KernelTable& scalar = tensor::kernels::Table(SimdLevel::kScalar);
  const KernelTable& avx2 = tensor::kernels::Table(SimdLevel::kAvx2);
  struct Shape {
    size_t m, k, n;
  };
  std::vector<Shape> shapes = {{256, 64, 64}, {281, 192, 1}};
  for (size_t m : {5, 6, 7, 12, 13}) {
    for (size_t n : {1, 2, 7, 8, 15, 16, 17, 24, 64}) {
      for (size_t k : {7, 8, 9, 192}) shapes.push_back({m, k, n});
    }
  }
  for (const Shape& sh : shapes) {
    const GemmCase in(sh.m, sh.k, sh.n, sh.m * 1009 + sh.k * 31 + sh.n);
    for (bool accumulate : {false, true}) {
      auto cs = in.c;
      auto cv = in.c;
      auto cr = in.c;
      scalar.gemm_rows_b_normal(in.a.data(), in.b.data(), cs.data(), sh.m,
                                sh.k, sh.n, accumulate);
      avx2.gemm_rows_b_normal(in.a.data(), in.b.data(), cv.data(), sh.m,
                              sh.k, sh.n, accumulate);
      tensor::GemmReference(in.a.data(), in.b.data(), cr.data(), sh.m, sh.k,
                            sh.n, false, false, accumulate);
      size_t finite = 0;
      for (size_t i = 0; i < cs.size(); ++i) {
        ASSERT_TRUE(SameFloat(cs[i], cr[i]) && SameFloat(cv[i], cr[i]))
            << "m=" << sh.m << " k=" << sh.k << " n=" << sh.n
            << " acc=" << accumulate << " i=" << i << ": scalar " << cs[i]
            << " avx2 " << cv[i] << " reference " << cr[i];
        finite += std::isfinite(cr[i]) ? 1 : 0;
      }
      ASSERT_GE(3 * finite, cs.size()) << "the specials drown the case";
      if (!accumulate) {
        for (size_t j = 0; j < sh.n; ++j) {  // NaN where B has an inf
          ASSERT_TRUE(std::isnan(cv[j]) || BitEqual(cv[j], 0.0f))
              << "row 0 must be 0 + sum = +0, n=" << sh.n << " j=" << j;
        }
      }
    }
  }
}

// The AVX2 transposed-B kernel's eight-output blocks (full, and padded for
// n % 8) and its in-register finish against the scalar kernel and
// GemmReference, called directly, with C rows ldc = n + 3 floats apart:
// the padding between rows must stay untouched.
TEST(GemmSimdTest, BTransBlockShapesMatchScalarAndReference) {
  if (!Avx2Usable()) GTEST_SKIP() << "no AVX2 kernels on this machine";
  const KernelTable& scalar = tensor::kernels::Table(SimdLevel::kScalar);
  const KernelTable& avx2 = tensor::kernels::Table(SimdLevel::kAvx2);
  for (size_t m : {1, 5, 8, 9, 20, 256}) {
    for (size_t n : {1, 2, 7, 8, 9, 20}) {
      for (size_t k : {7, 8, 9, 64}) {
        // B is read as [n, k]; GemmCase's specials land on its entries all
        // the same.
        const GemmCase in(m, k, n, m * 1013 + k * 37 + n);
        const size_t ldc = n + 3;
        const auto pad = RandomVec(m * ldc, m + k + n);
        for (bool accumulate : {false, true}) {
          auto cr = in.c;
          tensor::GemmReference(in.a.data(), in.b.data(), cr.data(), m, k, n,
                                false, true, accumulate);
          std::vector<float> cs = pad, cv = pad;
          for (size_t i = 0; i < m; ++i) {
            for (size_t j = 0; j < n; ++j) {
              cs[i * ldc + j] = cv[i * ldc + j] = in.c[i * n + j];
            }
          }
          scalar.gemm_rows_b_trans(in.a.data(), in.b.data(), cs.data(), m, k,
                                   n, ldc, accumulate);
          avx2.gemm_rows_b_trans(in.a.data(), in.b.data(), cv.data(), m, k,
                                 n, ldc, accumulate);
          for (size_t i = 0; i < m; ++i) {
            for (size_t j = 0; j < ldc; ++j) {
              const size_t at = i * ldc + j;
              const float want = j < n ? cr[i * n + j] : pad[at];
              ASSERT_TRUE(SameFloat(cs[at], want) && SameFloat(cv[at], want))
                  << "m=" << m << " k=" << k << " n=" << n
                  << " acc=" << accumulate << " i=" << i << " j=" << j
                  << ": scalar " << cs[at] << " avx2 " << cv[at]
                  << " reference " << want;
            }
          }
        }
      }
    }
  }
}

TEST(GemmSimdTest, Avx2ThreadCountInvariance) {
  if (!Avx2Usable()) GTEST_SKIP() << "no AVX2 kernels on this machine";
  SimdLevelRestorer restore;
  util::SetSimdLevel(SimdLevel::kAvx2);
  const size_t m = 97, k = 61, n = 45;  // big enough to cross the pool cutoff
  const auto a = RandomVec(m * k, 11);
  const auto b = RandomVec(k * n, 13);
  std::vector<float> c1(m * n), c4(m * n);
  util::SetGlobalThreads(1);
  tensor::Gemm(a.data(), b.data(), c1.data(), m, k, n, false, true, false);
  util::SetGlobalThreads(4);
  tensor::Gemm(a.data(), b.data(), c4.data(), m, k, n, false, true, false);
  util::SetGlobalThreads(1);
  for (size_t i = 0; i < m * n; ++i) {
    ASSERT_TRUE(BitEqual(c1[i], c4[i])) << "i=" << i;
  }
}

TEST(GemmSimdTest, SoftmaxOpParityIncludingMasks) {
  if (!Avx2Usable()) GTEST_SKIP() << "no AVX2 kernels on this machine";
  SimdLevelRestorer restore;
  Rng rng(99);
  Tensor x({4, 5, 7});
  for (size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(rng.Uniform(-4.0, 4.0));
  }
  Tensor mask({5, 7});
  const float inf = std::numeric_limits<float>::infinity();
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 7; ++j) {
      mask.at(i, j) = (j > i + 2) ? -inf : 0.0f;
    }
  }
  mask.at(4, 0) = -inf;  // plus one fully-masked-ish row pattern
  Tensor ys({4, 5, 7}), yv({4, 5, 7});
  util::SetSimdLevel(SimdLevel::kScalar);
  tensor::SoftmaxLastDim(x, &mask, &ys);
  util::SetSimdLevel(SimdLevel::kAvx2);
  tensor::SoftmaxLastDim(x, &mask, &yv);
  for (size_t i = 0; i < ys.size(); ++i) {
    ASSERT_TRUE(BitEqual(ys.data()[i], yv.data()[i])) << "i=" << i;
  }
  // Masked entries are exact zeros and open rows still normalize.
  EXPECT_EQ(yv.at(0, 0, 5), 0.0f);
  float total = 0.0f;
  for (size_t j = 0; j < 7; ++j) total += yv.at(0, 0, j);
  EXPECT_NEAR(total, 1.0f, 1e-5f);
}

// ---------------------------------------------------------------------------
// Fused masked attention against the dense four-op chain it replaces
// ---------------------------------------------------------------------------

/// softmax(alpha * Q K^T + mask) V through BatchedMatMul(trans_b), the Scale
/// op's kernel, SoftmaxLastDim and BatchedMatMul.
Tensor DenseAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                      const Tensor* mask, float alpha) {
  const size_t batch = q.dim(0), nq = q.dim(1), nk = k.dim(1);
  Tensor scores({batch, nq, nk}), probs({batch, nq, nk});
  Tensor out({batch, nq, v.dim(2)});
  tensor::BatchedMatMul(q, k, &scores, false, true);
  tensor::kernels::Active().scale(alpha, scores.data(), scores.data(),
                                  scores.size());
  tensor::SoftmaxLastDim(scores, mask, &probs);
  tensor::BatchedMatMul(probs, v, &out);
  return out;
}

/// An operand as random row blocks ({rows, broadcast} each; a broadcast
/// block is batch 1) plus the dense tensor they stack to.
struct BlockOperand {
  std::vector<Tensor> blocks;
  std::vector<const Tensor*> ptrs;
  Tensor whole;

  BlockOperand(size_t batch, size_t width,
               const std::vector<std::pair<size_t, bool>>& spec,
               uint64_t seed) {
    size_t rows = 0;
    for (const auto& [r, bcast] : spec) {
      Tensor t({bcast ? 1 : batch, r, width});
      const auto vals = RandomVec(t.size(), seed++);
      std::copy(vals.begin(), vals.end(), t.data());
      blocks.push_back(std::move(t));
      rows += r;
    }
    whole = Tensor({batch, rows, width});
    Restack();
    for (const Tensor& t : blocks) ptrs.push_back(&t);
  }

  /// Stacks the blocks into whole again (after a block was edited).
  void Restack() {
    const size_t width = whole.dim(2);
    for (size_t b = 0; b < whole.dim(0); ++b) {
      float* dst = whole.BatchData(b);
      for (const Tensor& t : blocks) {
        const float* src =
            t.data() + (t.dim(0) == 1 ? 0 : b * t.dim(1) * width);
        dst = std::copy(src, src + t.dim(1) * width, dst);
      }
    }
  }

  tensor::RowStack stack() const { return {ptrs.data(), ptrs.size()}; }
};

TEST(MaskedAttentionTest, MatchesTheDenseChainBitForBit) {
  SimdLevelRestorer restore;
  const float inf = std::numeric_limits<float>::infinity();
  const size_t batch = 16, n = 21, d = 13, dv = 10;  // > 1 grain of items
  // One key range per query row: fully masked, width 1, starts off a
  // multiple of 8, longer than 8, the whole row, and a run of rows sharing
  // one range (a multi-row block).
  const std::vector<std::pair<uint32_t, uint32_t>> open = {
      {0, 0},  {5, 6},  {0, 1},  {20, 21}, {3, 7},   {9, 20}, {13, 14},
      {2, 19}, {0, 21}, {8, 17}, {4, 16},  {4, 16},  {4, 16}, {1, 12},
      {0, 0},  {7, 8},  {15, 21}, {0, 9},  {10, 11}, {6, 20}, {0, 21}};
  ASSERT_EQ(open.size(), n);
  // SeqFM's cross view: the user and candidate rows see the history
  // columns, the history rows see the user and candidate columns.
  std::vector<std::pair<uint32_t, uint32_t>> cross(n, {0, 2});
  cross[0] = cross[1] = {2, n};
  Rng rng(7);
  auto mask_of = [&](const std::vector<std::pair<uint32_t, uint32_t>>& o) {
    Tensor mask({n, n});
    for (size_t r = 0; r < n; ++r) {
      for (size_t j = 0; j < n; ++j) {
        const bool in = j >= o[r].first && j < o[r].second;
        // Open entries carry an additive bias on odd rows, 0 on even ones.
        mask.at(r, j) = !in ? -inf
                            : (r % 2 ? static_cast<float>(rng.Uniform(-1, 1))
                                     : 0.0f);
      }
    }
    return mask;
  };
  auto ranges_of = [](const std::vector<std::pair<uint32_t, uint32_t>>& o) {
    std::vector<uint32_t> r;
    for (const auto& [begin, end] : o) r.insert(r.end(), {begin, end});
    return r;
  };
  std::vector<uint32_t> full;
  for (size_t r = 0; r < n; ++r) full.insert(full.end(), {0u, uint32_t{n}});

  // Q, K, V as the compiled body reads them: per-candidate blocks and
  // broadcast (hoisted) blocks, with ranges inside one block and across two,
  // all of one kind, and SeqFM's (user, candidate, history) cross layout.
  using Spec = std::vector<std::pair<size_t, bool>>;
  struct Layout {
    const char* name;
    Spec q, k, v;
    std::vector<std::pair<uint32_t, uint32_t>> open;
  };
  const std::vector<Layout> layouts = {
      {"mixed", {{1, true}, {10, false}, {10, true}},
       {{2, false}, {19, true}}, {{8, true}, {13, false}}, open},
      {"all-broadcast", {{n, true}}, {{n, true}}, {{n, true}}, open},
      {"no-broadcast", {{n, false}}, {{n, false}}, {{n, false}}, open},
      {"seqfm-cross", {{1, true}, {1, false}, {n - 2, true}},
       {{1, true}, {1, false}, {n - 2, true}},
       {{1, true}, {1, false}, {n - 2, true}}, cross},
  };
  const float pool_scale = 1.0f / static_cast<float>(n);
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (Avx2Usable()) levels.push_back(SimdLevel::kAvx2);
  uint64_t seed = 100;
  for (const Layout& lay : layouts) {
    const BlockOperand q(batch, d, lay.q, seed += 100);
    const BlockOperand k(batch, d, lay.k, seed += 100);
    const BlockOperand v(batch, dv, lay.v, seed += 100);
    const Tensor mask = mask_of(lay.open);
    const std::vector<uint32_t> ranges = ranges_of(lay.open);
    for (const bool masked : {true, false}) {
      const Tensor* m = masked ? &mask : nullptr;
      const uint32_t* rg = masked ? ranges.data() : full.data();
      util::SetSimdLevel(SimdLevel::kScalar);
      const Tensor want = DenseAttention(q.whole, k.whole, v.whole, m, 0.3f);
      Tensor want_pooled({batch, dv});
      tensor::SumAxis1(want, pool_scale, &want_pooled);
      for (SimdLevel level : levels) {
        util::SetSimdLevel(level);
        for (size_t threads : {1u, 2u}) {
          util::SetGlobalThreads(threads);
          const std::string where =
              std::string(lay.name) + " " + util::SimdLevelName(level) +
              " threads=" + std::to_string(threads) +
              " masked=" + std::to_string(masked);
          const Tensor dense =
              DenseAttention(q.whole, k.whole, v.whole, m, 0.3f);
          Tensor got({batch, n, dv}), pooled({batch, dv});
          tensor::MaskedAttention(q.stack(), k.stack(), v.stack(), m, rg,
                                  0.3f, 0.0f, &got);
          tensor::MaskedAttention(q.stack(), k.stack(), v.stack(), m, rg,
                                  0.3f, pool_scale, &pooled);
          for (size_t i = 0; i < want.size(); ++i) {
            ASSERT_TRUE(BitEqual(dense.data()[i], want.data()[i]) &&
                        BitEqual(got.data()[i], want.data()[i]))
                << where << " row=" << (i / dv) % n << " i=" << i;
          }
          for (size_t i = 0; i < want_pooled.size(); ++i) {
            ASSERT_TRUE(BitEqual(pooled.data()[i], want_pooled.data()[i]))
                << where << " pooled i=" << i;
          }
        }
      }
    }
  }
  util::SetGlobalThreads(1);
  // A fully masked row is zeros, as SoftmaxLastDim makes it.
  const BlockOperand q(batch, d, {{n, false}}, 1);
  const Tensor mask = mask_of(open);
  const std::vector<uint32_t> ranges = ranges_of(open);
  Tensor got({batch, n, dv});
  tensor::MaskedAttention(q.stack(), q.stack(),
                          BlockOperand(batch, dv, {{n, true}}, 2).stack(),
                          &mask, ranges.data(), 0.3f, 0.0f, &got);
  for (size_t c = 0; c < dv; ++c) EXPECT_EQ(got.at(1, 0, c), 0.0f);
}

/// Writes NaN, +inf and -inf into every block of \p op at a few spots.
void PoisonBlocks(BlockOperand* op) {
  const float inf = std::numeric_limits<float>::infinity();
  const float bad[] = {std::numeric_limits<float>::quiet_NaN(), inf, -inf};
  size_t i = 0;
  for (Tensor& t : op->blocks) {
    for (size_t at = i % 5; at < t.size(); at += 37) {
      t.data()[at] = bad[i++ % 3];
    }
  }
  op->Restack();
}

/// Zeroes every third item's rows of each block of \p op (its scores are
/// +0, or -0 under a negative alpha) and scales the next item's by 100
/// (its scores run to the hundreds, so the exponentials of the losers
/// underflow); a broadcast block counts as item 0.
void ZeroAndScaleBlocks(BlockOperand* op) {
  for (Tensor& t : op->blocks) {
    const size_t per = t.size() / t.dim(0);
    for (size_t b = 0; b < t.dim(0); ++b) {
      float* x = t.data() + b * per;
      for (size_t i = 0; i < per; ++i) {
        x[i] = b % 3 == 0 ? 0.0f : b % 3 == 1 ? 100.0f * x[i] : x[i];
      }
    }
  }
  op->Restack();
}

/// The same bits, or both NaN. Which NaN a sum of NaNs of both signs
/// keeps depends on operand order, and the dense chain's own scalar and
/// AVX2 GEMMs already disagree there, so a NaN's sign and payload are no
/// part of the contract.
TEST(MaskedAttentionTest, EveryTileShapeMatchesTheDenseChainBitForBit) {
  SimdLevelRestorer restore;
  const float inf = std::numeric_limits<float>::infinity();
  constexpr size_t kTile = tensor::kAttentionTile;
  const std::vector<size_t> counts = {1,         7,         8,
                                      9,         kTile - 1, kTile,
                                      kTile + 1, 2 * kTile + 3, 256};
  using Spec = std::vector<std::pair<size_t, bool>>;
  using Open = std::vector<std::pair<uint32_t, uint32_t>>;
  struct Layout {
    std::string name;
    Spec q, k, v;
    Open open;         // empty: no mask, every row sees every key
    bool vary_mask;    // open entries carry per-row biases
    bool poison_v;     // V non-finite too (only where no key is masked)
    size_t d, dv;
  };
  // SeqFM's cross view: the user and candidate rows see the history
  // columns, the history rows see the user and candidate columns (two
  // keys wide, one group through attention_tile's two-key instance).
  const size_t nh = 20;
  Open cross(2 + nh, {0, 2});
  cross[0] = cross[1] = {2, 2 + nh};
  // Per-item Q and K blocks of several rows, groups inside and across
  // blocks, and a range mixing broadcast and per-item keys.
  const Open multi = {{0, 9}, {0, 9}, {2, 7}, {2, 7}, {2, 7},
                      {4, 9}, {0, 3}, {0, 3}, {5, 6}};
  // Two-key groups over every mix of broadcast and per-item Q rows and
  // keys (rows 0-1 computed once), with a masked key inside one of them.
  const Open pairs = {{0, 2}, {0, 2}, {1, 3}, {1, 3}, {3, 5}, {2, 4}, {4, 6}};
  std::vector<Layout> layouts;
  for (size_t dv : {1, 8, 37, 64, 75}) {
    const std::string at = " dv=" + std::to_string(dv);
    layouts.push_back({"seqfm-cross" + at,
                       {{1, true}, {1, false}, {nh, true}},
                       {{1, true}, {1, false}, {nh, true}},
                       {{1, true}, {1, false}, {nh, true}}, cross, false,
                       false, 64, dv});
    layouts.push_back({"seqfm-static" + at, {{1, true}, {1, false}},
                       {{1, true}, {1, false}}, {{1, true}, {1, false}}, {},
                       false, true, 64, dv});
  }
  layouts.push_back({"multi-row", {{2, true}, {3, false}, {4, false}},
                     {{1, false}, {3, true}, {2, false}, {3, false}},
                     {{4, false}, {5, true}}, multi, false, false, 13, 37});
  layouts.push_back({"multi-row-biased", {{2, true}, {3, false}, {4, false}},
                     {{1, false}, {3, true}, {2, false}, {3, false}},
                     {{4, false}, {5, true}}, multi, true, false, 13, 37});
  layouts.push_back({"multi-row-unmasked", {{3, false}, {2, true}, {2, false}},
                     {{2, false}, {2, true}, {3, false}},
                     {{3, true}, {4, false}}, {}, false, true, 9, 10});
  layouts.push_back({"two-key-pairs", {{2, true}, {3, false}, {2, true}},
                     {{2, true}, {2, false}, {1, true}, {1, false}},
                     {{2, true}, {4, false}}, pairs, true, false, 11, 9});
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (Avx2Usable()) levels.push_back(SimdLevel::kAvx2);
  Rng rng(31);
  uint64_t seed = 5000;
  for (const Layout& lay : layouts) {
    size_t nq = 0, nk = 0;
    for (const auto& b : lay.q) nq += b.first;
    for (const auto& b : lay.k) nk += b.first;
    std::vector<uint32_t> ranges;
    Tensor mask({nq, nk});
    for (size_t r = 0; r < nq; ++r) {
      const auto [c0, c1] =
          lay.open.empty() ? std::make_pair(0u, uint32_t(nk)) : lay.open[r];
      ranges.insert(ranges.end(), {c0, c1});
      for (size_t j = 0; j < nk; ++j) {
        mask.at(r, j) = j < c0 || j >= c1 ? -inf
                        : lay.vary_mask   ? static_cast<float>(
                                              rng.Uniform(-1, 1))
                                          : 0.0f;
      }
    }
    // A masked key inside an open range (its row still has one open key).
    if (lay.vary_mask && nq > 3) mask.at(3, ranges[7] - 1) = -inf;
    const Tensor* m = lay.open.empty() ? nullptr : &mask;
    const float pool_scale = 1.0f / static_cast<float>(nq);
    for (size_t count : counts) {
      // Scores as drawn; NaN and +-inf; then +-0 and hundreds.
      for (const int poison : {0, 1, 2}) {
        BlockOperand q(count, lay.d, lay.q, seed += 10);
        const BlockOperand k(count, lay.d, lay.k, seed += 10);
        BlockOperand v(count, lay.dv, lay.v, seed += 10);
        if (poison == 1) {
          PoisonBlocks(&q);
          if (lay.poison_v) PoisonBlocks(&v);
        } else if (poison == 2) {
          ZeroAndScaleBlocks(&q);
        }
        const float alpha = poison == 2 ? -0.125f : 0.125f;
        util::SetSimdLevel(SimdLevel::kScalar);
        util::SetGlobalThreads(1);
        const Tensor want =
            DenseAttention(q.whole, k.whole, v.whole, m, alpha);
        Tensor want_pooled({count, lay.dv});
        tensor::SumAxis1(want, pool_scale, &want_pooled);
        for (SimdLevel level : levels) {
          util::SetSimdLevel(level);
          for (size_t threads : {1u, 2u}) {
            util::SetGlobalThreads(threads);
            const std::string where =
                lay.name + " count=" + std::to_string(count) + " " +
                util::SimdLevelName(level) +
                " threads=" + std::to_string(threads) +
                " poison=" + std::to_string(poison);
            Tensor got({count, nq, lay.dv}), pooled({count, lay.dv});
            tensor::MaskedAttention(q.stack(), k.stack(), v.stack(), m,
                                    ranges.data(), alpha, 0.0f, &got);
            tensor::MaskedAttention(q.stack(), k.stack(), v.stack(), m,
                                    ranges.data(), alpha, pool_scale,
                                    &pooled);
            for (size_t i = 0; i < want.size(); ++i) {
              ASSERT_TRUE(SameFloat(got.data()[i], want.data()[i]))
                  << where << " item=" << i / (nq * lay.dv)
                  << " row=" << (i / lay.dv) % nq << " col=" << i % lay.dv;
            }
            for (size_t i = 0; i < want_pooled.size(); ++i) {
              ASSERT_TRUE(
                  SameFloat(pooled.data()[i], want_pooled.data()[i]))
                  << where << " pooled item=" << i / lay.dv
                  << " col=" << i % lay.dv;
            }
          }
        }
      }
    }
  }
  util::SetGlobalThreads(1);
}

// ---------------------------------------------------------------------------
// Aligned tensor storage
// ---------------------------------------------------------------------------

TEST(TensorStorageTest, OwnedBuffersAre64ByteAligned) {
  auto aligned = [](const float* p) {
    return reinterpret_cast<uintptr_t>(p) %
               tensor::internal::kTensorAlignment ==
           0;
  };
  EXPECT_TRUE(aligned(Tensor({5}).data()));
  EXPECT_TRUE(aligned(Tensor({3, 7}).data()));
  EXPECT_TRUE(aligned(Tensor::Uninitialized({2, 3, 5}).data()));
  EXPECT_TRUE(aligned(Tensor::Full({17}, 2.0f).data()));
  EXPECT_TRUE(aligned(
      Tensor::FromVector({4}, {1.0f, 2.0f, 3.0f, 4.0f}).ValueOrDie().data()));
  // Copies of wrapped storage own aligned heap memory again.
  alignas(64) float external[8] = {0};
  Tensor wrapped = Tensor::WrapExternal({8}, external, 8);
  EXPECT_FALSE(wrapped.owns_storage());
  EXPECT_EQ(wrapped.data(), external);
  Tensor copy = wrapped;
  EXPECT_TRUE(copy.owns_storage());
  EXPECT_TRUE(aligned(copy.data()));
  EXPECT_NE(copy.data(), external);
}

TEST(TensorStorageTest, HeapAllocCountTracksDataAllocations) {
  const uint64_t before = tensor::internal::HeapAllocCount();
  Tensor t({64});
  EXPECT_EQ(tensor::internal::HeapAllocCount(), before + 1);
  Tensor copy = t;  // copies allocate
  EXPECT_EQ(tensor::internal::HeapAllocCount(), before + 2);
  Tensor moved = std::move(copy);  // moves do not
  EXPECT_EQ(tensor::internal::HeapAllocCount(), before + 2);
  alignas(64) float external[4];
  Tensor wrapped = Tensor::WrapExternal({4}, external, 4);  // wraps do not
  EXPECT_EQ(tensor::internal::HeapAllocCount(), before + 2);
}

// ---------------------------------------------------------------------------
// Scratch arena
// ---------------------------------------------------------------------------

TEST(ScratchArenaTest, BumpsAlignedAndReusesCapacityAfterRewind) {
  core::ScratchArena arena;
  const auto mark = arena.mark();
  const uint64_t refills_before = core::GlobalScratchStats().heap_refills;
  float* a = arena.AllocateFloats(100);
  float* b = arena.AllocateFloats(3);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % core::ScratchArena::kAlignment,
            0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % core::ScratchArena::kAlignment,
            0u);
  EXPECT_GE(arena.bytes_in_use(), 103 * sizeof(float));
  EXPECT_EQ(core::GlobalScratchStats().heap_refills, refills_before + 1);

  arena.RewindTo(mark);
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_GT(arena.bytes_reserved(), 0u);
  // Same shapes again: served from the retained block, no refill.
  float* a2 = arena.AllocateFloats(100);
  EXPECT_EQ(a2, a);
  EXPECT_EQ(core::GlobalScratchStats().heap_refills, refills_before + 1);
}

TEST(ScratchArenaTest, OversizeRequestGetsOwnBlockAndMarksNest) {
  core::ScratchArena arena;
  const auto outer = arena.mark();
  (void)arena.AllocateFloats(10);
  const auto inner = arena.mark();
  const size_t in_use_at_inner = arena.bytes_in_use();
  // Far beyond the initial block: must refill, not crash.
  (void)arena.AllocateFloats((1 << 20) + 123);
  (void)arena.AllocateFloats(50);
  arena.RewindTo(inner);
  EXPECT_EQ(arena.bytes_in_use(), in_use_at_inner);
  (void)arena.AllocateFloats(7);
  arena.RewindTo(outer);
  EXPECT_EQ(arena.bytes_in_use(), 0u);
}

TEST(ScratchArenaTest, OutputBufferDrawsFromArenaOnlyInScopedNoGradMode) {
  // Taped mode: heap, zero-filled.
  {
    Tensor t = autograd::internal::OutputBuffer({2, 3});
    EXPECT_TRUE(t.owns_storage());
    for (size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t.data()[i], 0.0f);
  }
  // No-grad without a scope: heap (uninitialized).
  {
    autograd::NoGradGuard no_grad;
    Tensor t = autograd::internal::OutputBuffer({2, 3});
    EXPECT_TRUE(t.owns_storage());
  }
  // No-grad inside a scope: arena.
  {
    autograd::NoGradGuard no_grad;
    core::ScratchScope scratch;
    const uint64_t allocs_before = core::GlobalScratchStats().allocations;
    Tensor t = autograd::internal::OutputBuffer({2, 3});
    EXPECT_FALSE(t.owns_storage());
    EXPECT_EQ(reinterpret_cast<uintptr_t>(t.data()) %
                  core::ScratchArena::kAlignment,
              0u);
    EXPECT_GT(core::GlobalScratchStats().allocations, allocs_before);
  }
  // A grad-mode op inside a scope still tapes onto the heap.
  {
    core::ScratchScope scratch;
    Tensor t = autograd::internal::OutputBuffer({4});
    EXPECT_TRUE(t.owns_storage());
  }
}

// ---------------------------------------------------------------------------
// End-to-end: serving parity across levels, allocation-free steady state,
// and loss-curve invariance across SEQFM_SIMD values
// ---------------------------------------------------------------------------

struct ServeFixture {
  ServeFixture()
      : log(data::SyntheticDatasetGenerator(
                data::SyntheticDatasetGenerator::Preset("gowalla", 0.15)
                    .ValueOrDie())
                .Generate()
                .ValueOrDie()),
        dataset(data::TemporalDataset::FromLog(log).ValueOrDie()),
        space(log.num_users(), log.num_objects()),
        builder(space, /*max_seq_len=*/8) {}

  core::SeqFmConfig ModelConfig() const {
    core::SeqFmConfig cfg;
    cfg.embedding_dim = 8;
    cfg.max_seq_len = 8;
    cfg.keep_prob = 1.0f;
    return cfg;
  }

  data::InteractionLog log;
  data::TemporalDataset dataset;
  data::FeatureSpace space;
  data::BatchBuilder builder;
};

TEST(SimdServingTest, ScoresBitIdenticalAcrossLevels) {
  if (!Avx2Usable()) GTEST_SKIP() << "no AVX2 kernels on this machine";
  SimdLevelRestorer restore;
  ServeFixture fx;
  core::SeqFm model(fx.space, fx.ModelConfig());
  const auto& ex = fx.dataset.train().front();
  std::vector<int32_t> candidates;
  for (int32_t i = 0; i < 40; ++i) candidates.push_back(i % 20);

  for (const bool compiled : {true, false}) {
    serve::PredictorOptions opts;
    opts.use_compiled_program = compiled;
    serve::Predictor predictor(&model, &fx.builder, opts);
    ASSERT_EQ(predictor.compiled_active(), compiled);
    util::SetSimdLevel(SimdLevel::kScalar);
    const auto scalar_scores = predictor.ScoreCandidates(ex, candidates);
    util::SetSimdLevel(SimdLevel::kAvx2);
    const auto avx2_scores = predictor.ScoreCandidates(ex, candidates);
    ASSERT_EQ(scalar_scores.size(), avx2_scores.size());
    for (size_t i = 0; i < scalar_scores.size(); ++i) {
      ASSERT_TRUE(BitEqual(scalar_scores[i], avx2_scores[i]))
          << "compiled=" << compiled << " i=" << i;
    }
  }
}

TEST(SimdServingTest, SteadyStateServingPerformsZeroTensorHeapAllocations) {
  // The allocation-free-serving acceptance gate, for BOTH serving engines:
  // once the context cache is warm, a Predictor request must not touch the
  // heap for tensor data at all. The compiled op program executes inside
  // preallocated thread-local frames (only its fused attention borrows a
  // little scratch from the thread's warm arena); the eager path draws every
  // op output from the thread's warm arena instead.
  ServeFixture fx;
  core::SeqFm model(fx.space, fx.ModelConfig());
  // Single-threaded so every chunk runs on this (warmed) thread's arena.
  util::SetGlobalThreads(1);
  const auto& ex = fx.dataset.train().front();
  std::vector<int32_t> candidates;
  for (int32_t i = 0; i < 40; ++i) candidates.push_back(i % 20);

  for (const bool compiled : {true, false}) {
    serve::PredictorOptions opts;
    opts.micro_batch = 16;
    opts.context_cache_bytes = 1 << 20;
    opts.use_compiled_program = compiled;
    serve::Predictor predictor(&model, &fx.builder, opts);
    ASSERT_EQ(predictor.compiled_active(), compiled);
    // The context cache fronts the compiled prologue only.
    if (compiled) {
      ASSERT_NE(predictor.context_cache(), nullptr);
    }

    for (int warm = 0; warm < 3; ++warm) {
      (void)predictor.TopK(ex, candidates, 5);
    }
    const uint64_t tensor_allocs = tensor::internal::HeapAllocCount();
    const auto scratch_before = core::GlobalScratchStats();
    std::vector<serve::ScoredItem> last;
    for (int r = 0; r < 10; ++r) {
      last = predictor.TopK(ex, candidates, 5);
    }
    const auto scratch_after = core::GlobalScratchStats();
    EXPECT_EQ(tensor::internal::HeapAllocCount(), tensor_allocs)
        << "steady-state requests allocated tensor heap memory (compiled="
        << compiled << ")";
    EXPECT_EQ(scratch_after.heap_refills, scratch_before.heap_refills)
        << "steady-state requests grew the scratch arena (compiled="
        << compiled << ")";
    if (!compiled) {
      EXPECT_GT(scratch_after.allocations, scratch_before.allocations)
          << "eager requests should bump the arena";
      EXPECT_GT(scratch_after.high_water, 0u);
    }
    ASSERT_EQ(last.size(), 5u);
  }
}

TEST(SimdServingTest, BatchServedWaveBumpsTheScratchArenas) {
  // One thread, so the wave runs on the server's dispatcher thread, whose
  // arena starts empty: the wave must bump it and reserve its first block.
  util::SetGlobalThreads(1);
  ServeFixture fx;
  core::SeqFm model(fx.space, fx.ModelConfig());
  serve::Predictor predictor(&model, &fx.builder);
  std::vector<int32_t> candidates = {0, 1, 2, 3, 4, 5, 6, 7};
  const auto& ex = fx.dataset.train().front();
  // Warm the predictor (and this thread's arena) outside the wave.
  ASSERT_EQ(predictor.TopK(ex, candidates, 3).size(), 3u);
  const auto before = core::GlobalScratchStats();
  serve::BatchServer server(&predictor);
  auto fut = server.Submit(ex, candidates, 3);
  ASSERT_EQ(fut.get().size(), 3u);
  const auto after = core::GlobalScratchStats();
  EXPECT_GT(after.allocations, before.allocations);
  EXPECT_GT(after.heap_refills, before.heap_refills);
  EXPECT_GT(after.high_water, 0u);
}

TEST(SimdTrainingTest, LossCurveIdenticalAcrossSimdLevels) {
  // The end-to-end statement of the kernel contract: an entire training run
  // — forward, backward, optimizer — produces the same loss curve bit for
  // bit whether SEQFM_SIMD picked scalar or avx2.
  if (!Avx2Usable()) GTEST_SKIP() << "no AVX2 kernels on this machine";
  SimdLevelRestorer restore;
  ServeFixture fx;
  auto run = [&fx](SimdLevel level) {
    util::SetSimdLevel(level);
    core::SeqFm model(fx.space, fx.ModelConfig());
    core::TrainConfig cfg;
    cfg.task = core::Task::kRanking;
    cfg.epochs = 2;
    cfg.batch_size = 64;
    cfg.learning_rate = 5e-3f;
    cfg.num_negatives = 1;
    core::Trainer trainer(&model, &fx.builder, &fx.dataset, cfg);
    auto result = trainer.Train();
    std::vector<double> curve;
    for (const auto& epoch : result.epochs) curve.push_back(epoch.mean_loss);
    return curve;
  };
  const auto scalar_curve = run(SimdLevel::kScalar);
  const auto avx2_curve = run(SimdLevel::kAvx2);
  ASSERT_EQ(scalar_curve.size(), avx2_curve.size());
  for (size_t i = 0; i < scalar_curve.size(); ++i) {
    EXPECT_EQ(scalar_curve[i], avx2_curve[i]) << "epoch " << i;
  }
}

}  // namespace
}  // namespace seqfm
