#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/scratch_arena.h"
#include "tensor/kernels.h"
#include "util/thread_pool.h"

namespace seqfm {
namespace tensor {

namespace {

// ---------------------------------------------------------------------------
// GEMM
//
// C[m,n] (+)= A op B, row-major. The inner microkernels live in the
// dispatched kernel layer (tensor/kernels.h: scalar or AVX2, selected at
// startup); this file keeps the blocking and the thread-pool fan-out. The
// outer M loop is dispatched in row chunks across the global pool. Each
// output element is owned by exactly one chunk and accumulates its k
// products in a fixed order — ascending k for non-transposed B, the
// lane-blocked dot order for transposed B — into a private accumulator
// added to C once at the end, so the result is bit-for-bit identical to
// GemmReference for every blocking, grain, thread count, and SIMD level.
// ---------------------------------------------------------------------------

// Grain cutoffs are shared with the autograd layer; see util/thread_pool.h.
using util::GrainForRows;
using util::kEwGrain;
using util::kMathGrain;
// GEMMs below this many multiply-adds run serially on the caller.
constexpr size_t kGemmParallelMinWork = util::kMinParallelWork;

// Computes C rows [i0, i1). When A is transposed (stored [k, m]) its rows are
// first packed contiguously so both inner kernels see a [rows, k] panel.
void GemmRowRange(const kernels::KernelTable& kt, const float* a,
                  const float* b, float* c, size_t m, size_t k, size_t n,
                  bool trans_a, bool trans_b, bool accumulate, size_t i0,
                  size_t i1) {
  const size_t rows = i1 - i0;
  const float* arows;
  // The trans-A pack buffer comes from the thread's scratch arena whenever a
  // scratch scope is active (serving paths), so steady-state serving stays
  // heap-allocation-free; training and bare calls keep the heap vector.
  core::ScratchArena* arena = nullptr;
  core::ScratchArena::Mark arena_mark;
  std::vector<float> packed_heap;
  if (trans_a) {
    float* packed;
    if (core::ScratchScopeActive()) {
      arena = &core::ThreadScratchArena();
      arena_mark = arena->mark();
      packed = arena->AllocateFloats(rows * k);
    } else {
      packed_heap.resize(rows * k);
      packed = packed_heap.data();
    }
    for (size_t p = 0; p < k; ++p) {
      const float* src = a + p * m + i0;
      for (size_t i = 0; i < rows; ++i) packed[i * k + p] = src[i];
    }
    arows = packed;
  } else {
    arows = a + i0 * k;
  }
  float* crows = c + i0 * n;
  if (trans_b) {
    kt.gemm_rows_b_trans(arows, b, crows, rows, k, n, n, accumulate);
  } else {
    kt.gemm_rows_b_normal(arows, b, crows, rows, k, n, accumulate);
  }
  if (arena != nullptr) arena->RewindTo(arena_mark);
}

void CheckSameShape(const Tensor& a, const Tensor& b) {
  SEQFM_CHECK(a.SameShape(b))
      << "shape mismatch: " << a.ToString(0) << " vs " << b.ToString(0);
}

/// The lane-blocked reduction order's independent restatement for the
/// oracle: eight partial sums, element p into lane p % 8, combined by the
/// fixed tree. Mirrors kernels.h so GemmReference stays a genuinely separate
/// implementation of the same contract.
float ReferenceLaneBlockedDot(const float* a, const float* b, size_t m,
                              size_t k, size_t i, size_t j, bool trans_a) {
  float lanes[8] = {0.0f};
  for (size_t p = 0; p < k; ++p) {
    const float av = trans_a ? a[p * m + i] : a[i * k + p];
    lanes[p % 8] += av * b[j * k + p];
  }
  const float t0 = lanes[0] + lanes[4];
  const float t1 = lanes[1] + lanes[5];
  const float t2 = lanes[2] + lanes[6];
  const float t3 = lanes[3] + lanes[7];
  return (t0 + t2) + (t1 + t3);
}

}  // namespace

void GemmReference(const float* a, const float* b, float* c, size_t m,
                   size_t k, size_t n, bool trans_a, bool trans_b,
                   bool accumulate) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) std::fill(c, c + m * n, 0.0f);
    return;
  }
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      float acc;
      if (trans_b) {
        // Transposed-B products are dot products; the kernel layer computes
        // them in the lane-blocked order, so the oracle defines that order.
        acc = ReferenceLaneBlockedDot(a, b, m, k, i, j, trans_a);
      } else {
        acc = 0.0f;
        for (size_t p = 0; p < k; ++p) {
          const float av = trans_a ? a[p * m + i] : a[i * k + p];
          acc += av * b[p * n + j];
        }
      }
      float* dst = c + i * n + j;
      if (accumulate) {
        *dst += acc;
      } else {
        *dst = acc;
      }
    }
  }
}

void Gemm(const float* a, const float* b, float* c, size_t m, size_t k,
          size_t n, bool trans_a, bool trans_b, bool accumulate) {
  // Degenerate sizes are legal and handled explicitly: an empty output is a
  // no-op, and k == 0 is an empty sum (zero unless accumulating).
  if (m == 0 || n == 0) return;
  SEQFM_CHECK(c != nullptr) << "Gemm: null C with " << m << "x" << n
                            << " output";
  if (k == 0) {
    if (!accumulate) std::fill(c, c + m * n, 0.0f);
    return;
  }
  SEQFM_CHECK(a != nullptr) << "Gemm: null A with k=" << k;
  SEQFM_CHECK(b != nullptr) << "Gemm: null B with k=" << k;
  const kernels::KernelTable& kt = kernels::Active();
  const size_t work = m * n * k;
  if (work < kGemmParallelMinWork) {
    GemmRowRange(kt, a, b, c, m, k, n, trans_a, trans_b, accumulate, 0, m);
    return;
  }
  const size_t grain = std::max(kernels::kGemmRowBlock,
                                GrainForRows(n * k, kGemmParallelMinWork));
  util::ParallelFor(m, grain, [=, &kt](size_t i0, size_t i1) {
    GemmRowRange(kt, a, b, c, m, k, n, trans_a, trans_b, accumulate, i0, i1);
  });
}

void MatMul(const Tensor& a, const Tensor& b, Tensor* out, bool trans_a,
            bool trans_b, bool accumulate) {
  SEQFM_CHECK_EQ(a.rank(), 2u);
  SEQFM_CHECK_EQ(b.rank(), 2u);
  const size_t m = trans_a ? a.dim(1) : a.dim(0);
  const size_t ka = trans_a ? a.dim(0) : a.dim(1);
  const size_t kb = trans_b ? b.dim(1) : b.dim(0);
  const size_t n = trans_b ? b.dim(0) : b.dim(1);
  SEQFM_CHECK_EQ(ka, kb);
  SEQFM_CHECK_EQ(out->rank(), 2u);
  SEQFM_CHECK_EQ(out->dim(0), m);
  SEQFM_CHECK_EQ(out->dim(1), n);
  Gemm(a.data(), b.data(), out->data(), m, ka, n, trans_a, trans_b, accumulate);
}

void BatchedMatMul(const Tensor& a, const Tensor& b, Tensor* out, bool trans_a,
                   bool trans_b, bool accumulate) {
  SEQFM_CHECK_EQ(a.rank(), 3u);
  SEQFM_CHECK_EQ(b.rank(), 3u);
  SEQFM_CHECK_EQ(a.dim(0), b.dim(0));
  const size_t batch = a.dim(0);
  const size_t m = trans_a ? a.dim(2) : a.dim(1);
  const size_t ka = trans_a ? a.dim(1) : a.dim(2);
  const size_t kb = trans_b ? b.dim(2) : b.dim(1);
  const size_t n = trans_b ? b.dim(1) : b.dim(2);
  SEQFM_CHECK_EQ(ka, kb);
  SEQFM_CHECK_EQ(out->rank(), 3u);
  SEQFM_CHECK_EQ(out->dim(0), batch);
  SEQFM_CHECK_EQ(out->dim(1), m);
  SEQFM_CHECK_EQ(out->dim(2), n);
  // Parallelize over the batch; the per-item Gemm then runs inline on the
  // worker (nested ParallelFor calls are serial), which is the right split
  // for the many-small-matrices shape attention produces.
  const size_t per_item = m * n * ka;
  const size_t grain = GrainForRows(per_item, kGemmParallelMinWork);
  util::ParallelFor(batch, grain, [&, trans_a, trans_b,
                                   accumulate](size_t b0, size_t b1) {
    for (size_t i = b0; i < b1; ++i) {
      Gemm(a.BatchData(i), b.BatchData(i), out->BatchData(i), m, ka, n,
           trans_a, trans_b, accumulate);
    }
  });
}

void BatchedMatMulShared(const Tensor& a, const Tensor& w, Tensor* out,
                         bool trans_w, bool accumulate) {
  SEQFM_CHECK_EQ(a.rank(), 3u);
  SEQFM_CHECK_EQ(w.rank(), 2u);
  const size_t rows = a.dim(0) * a.dim(1);
  const size_t k = a.dim(2);
  const size_t kw = trans_w ? w.dim(1) : w.dim(0);
  const size_t n = trans_w ? w.dim(0) : w.dim(1);
  SEQFM_CHECK_EQ(k, kw);
  SEQFM_CHECK_EQ(out->rank(), 3u);
  SEQFM_CHECK_EQ(out->dim(0), a.dim(0));
  SEQFM_CHECK_EQ(out->dim(1), a.dim(1));
  SEQFM_CHECK_EQ(out->dim(2), n);
  Gemm(a.data(), w.data(), out->data(), rows, k, n, /*trans_a=*/false, trans_w,
       accumulate);
}

namespace {

size_t StackRows(RowStack s) {
  size_t rows = 0;
  for (size_t i = 0; i < s.count; ++i) rows += s.blocks[i]->dim(1);
  return rows;
}

/// Row \p row of batch item \p b of one block (a batch-1 block broadcasts).
const float* BlockRow(const Tensor& t, size_t b, size_t row) {
  const size_t width = t.dim(2);
  return t.data() + (t.dim(0) == 1 ? 0 : b * t.dim(1) * width) + row * width;
}

/// Copies rows [r0, r1) of batch item \p b into \p dst.
void CopyStackRows(RowStack s, size_t b, size_t r0, size_t r1, float* dst) {
  const size_t width = s.blocks[0]->dim(2);
  size_t base = 0;
  for (size_t i = 0; i < s.count && base < r1; ++i) {
    const Tensor& t = *s.blocks[i];
    const size_t end = base + t.dim(1);
    const size_t lo = std::max(r0, base), hi = std::min(r1, end);
    if (lo < hi) {
      std::memcpy(dst + (lo - r0) * width, BlockRow(t, b, lo - base),
                  (hi - lo) * width * sizeof(float));
    }
    base = end;
  }
}

/// The block holding all of rows [r0, r1), and (in \p base) its first
/// row; null when they span blocks.
const Tensor* BlockHolding(RowStack s, size_t r0, size_t r1, size_t* base) {
  *base = 0;
  for (size_t i = 0; i < s.count; ++i) {
    const size_t end = *base + s.blocks[i]->dim(1);
    if (r0 >= *base && r1 <= end) return s.blocks[i];
    if (r0 < end) return nullptr;
    *base = end;
  }
  return nullptr;
}

/// Rows [r0, r1) of batch items [b0, b0 + nb), item-major: an
/// [nb * (r1 - r0), width] matrix. In place when one block holds those
/// rows and, for several items, is a per-item block of exactly those rows
/// (consecutive items are then adjacent); else copied into \p scratch.
const float* StackRowsAt(RowStack s, size_t b0, size_t nb, size_t r0,
                         size_t r1, float* scratch) {
  size_t base = 0;
  const Tensor* t = BlockHolding(s, r0, r1, &base);
  if (t != nullptr && (nb == 1 || (t->dim(0) != 1 && t->dim(1) == r1 - r0))) {
    return BlockRow(*t, b0, r0 - base);
  }
  const size_t stride = (r1 - r0) * s.blocks[0]->dim(2);
  for (size_t i = 0; i < nb; ++i) {
    CopyStackRows(s, b0 + i, r0, r1, scratch + i * stride);
  }
  return scratch;
}

/// Whether row \p r of the stack comes from a batch-1 (broadcast) block,
/// and (in \p run_end) where the run of rows sharing that answer ends.
bool BroadcastRun(RowStack s, size_t r, size_t* run_end) {
  size_t base = 0, i = 0;
  while (base + s.blocks[i]->dim(1) <= r) base += s.blocks[i++]->dim(1);
  const bool bcast = s.blocks[i]->dim(0) == 1;
  for (; i < s.count && (s.blocks[i]->dim(0) == 1) == bcast; ++i) {
    base += s.blocks[i]->dim(1);
  }
  *run_end = base;
  return bcast;
}

/// Consecutive query rows [r0, r1) that share one key range [c0, c1) and
/// whether their Q rows come from broadcast blocks. `once`: the rows are
/// the same for every batch item (zero width, or broadcast Q rows over a
/// broadcast K/V range), so they are computed once per call.
struct RowGroup {
  uint32_t r0, r1, c0, c1;
  bool q_bcast, once;
};

}  // namespace

void SoftmaxLastDim(const Tensor& in, const Tensor* mask, Tensor* out) {
  SEQFM_CHECK(in.SameShape(*out));
  const size_t cols = in.shape().back();
  const size_t rows = in.size() / cols;
  size_t mask_rows = 0;
  const float* mask_data = nullptr;
  if (mask != nullptr) {
    SEQFM_CHECK_EQ(mask->rank(), 2u);
    SEQFM_CHECK_EQ(mask->dim(1), cols);
    mask_rows = mask->dim(0);
    mask_data = mask->data();
    // The mask is broadcast over the leading batch dimension; the number of
    // attention rows per batch item must equal the mask's row count.
    SEQFM_CHECK_EQ(rows % mask_rows, 0u);
  }
  const float* src = in.data();
  float* dst = out->data();
  const kernels::KernelTable& kt = kernels::Active();
  util::ParallelFor(rows, GrainForRows(cols, kMathGrain), [=, &kt](size_t r0,
                                                                   size_t r1) {
    if (mask_data == nullptr) {
      kt.softmax_rows(src + r0 * cols, nullptr, 0, dst + r0 * cols, r1 - r0,
                      cols);
      return;
    }
    // One call per stretch of rows that reads the mask without wrapping.
    for (size_t r = r0, next; r < r1; r = next) {
      next = std::min(r1, (r / mask_rows + 1) * mask_rows);
      kt.softmax_rows(src + r * cols, mask_data + (r % mask_rows) * cols,
                      cols, dst + r * cols, next - r, cols);
    }
  });
}

void MaskedAttention(RowStack q, RowStack k, RowStack v, const Tensor* mask,
                     const uint32_t* ranges, float alpha, float pool_scale,
                     Tensor* out) {
  SEQFM_CHECK(q.count > 0 && k.count > 0 && v.count > 0);
  const bool pooled = out->rank() == 2;
  SEQFM_CHECK(pooled || out->rank() == 3);
  const size_t batch = out->dim(0), nq = StackRows(q);
  const size_t dv = out->shape().back();
  const size_t nk = StackRows(k), d = k.blocks[0]->dim(2);
  if (!pooled) SEQFM_CHECK_EQ(out->dim(1), nq);
  SEQFM_CHECK_EQ(StackRows(v), nk);
  SEQFM_CHECK_EQ(q.blocks[0]->dim(2), d);
  SEQFM_CHECK_EQ(v.blocks[0]->dim(2), dv);
  if (mask != nullptr) SEQFM_CHECK_EQ(mask->size(), nq * nk);
  size_t pairs = 0;
  for (size_t r = 0; r < nq; ++r) {
    SEQFM_CHECK(ranges[2 * r] <= ranges[2 * r + 1] && ranges[2 * r + 1] <= nk);
    SEQFM_CHECK(mask != nullptr || ranges[2 * r + 1] - ranges[2 * r] == nk);
    pairs += ranges[2 * r + 1] - ranges[2 * r];
  }
  const float* mask_data = mask != nullptr ? mask->data() : nullptr;
  const kernels::KernelTable& kt = kernels::Active();
  util::ParallelFor(
      batch, GrainForRows(pairs * (d + dv), kGemmParallelMinWork),
      [=, &kt](size_t b0, size_t b1) {
    // Per-thread scratch from the thread's arena (its blocks are kept
    // across rewinds, so a warm thread allocates nothing).
    core::ScratchArena& arena = core::ThreadScratchArena();
    const core::ScratchArena::Mark arena_mark = arena.mark();
    auto* groups =
        static_cast<RowGroup*>(arena.Allocate(nq * sizeof(RowGroup)));

    // Row groups split where the key range or the Q rows' broadcast-ness
    // changes.
    size_t ngroups = 0, cells = 0, probs_floats = 0;
    for (size_t r0 = 0, r1 = 0; r0 < nq; r0 = r1) {
      const uint32_t c0 = ranges[2 * r0], c1 = ranges[2 * r0 + 1];
      size_t q_end, k_end = c0, v_end = c0;
      const bool q_bcast = BroadcastRun(q, r0, &q_end);
      r1 = r0 + 1;
      while (r1 < std::min(nq, q_end) && ranges[2 * r1] == c0 &&
             ranges[2 * r1 + 1] == c1) {
        ++r1;
      }
      const bool once =
          c0 == c1 || (q_bcast && BroadcastRun(k, c0, &k_end) &&
                       k_end >= c1 && BroadcastRun(v, c0, &v_end) &&
                       v_end >= c1);
      groups[ngroups++] = {static_cast<uint32_t>(r0),
                           static_cast<uint32_t>(r1), c0, c1, q_bcast, once};
      cells = std::max(cells, (r1 - r0) * (c1 - c0));
      probs_floats = std::max(probs_floats,
                              kernels::AttentionTileScratch(c1 - c0, r1 - r0));
    }
    const size_t tile = std::min(kAttentionTile, b1 - b0);
    // One group's raw scores over a tile, the tile kernel's scratch, and
    // the stacked Q and K rows a GEMM reads when they are not in place.
    float* scores = arena.AllocateFloats(cells * tile);
    float* probs = arena.AllocateFloats(probs_floats);
    float* q_rows = arena.AllocateFloats(nq * d * tile);
    float* k_rows = arena.AllocateFloats(nk * d * tile);
    // Broadcast score entries (raw dots at [row, column]) and the rows
    // computed once.
    float* once_scores = arena.AllocateFloats(nq * nk);
    float* once_rows = arena.AllocateFloats(nq * dv);
    // Where V row j of item b starts: v_base[j] + b * v_step[j] (step 0 for
    // a broadcast row).
    auto** v_base =
        static_cast<const float**>(arena.Allocate(nk * sizeof(float*)));
    auto* v_step = static_cast<size_t*>(arena.Allocate(nk * sizeof(size_t)));
    for (size_t i = 0, j = 0; i < v.count; ++i) {
      const Tensor& t = *v.blocks[i];
      for (size_t r = 0; r < t.dim(1); ++r, ++j) {
        v_base[j] = BlockRow(t, 0, r);
        v_step[j] = t.dim(0) == 1 ? 0 : t.dim(1) * dv;
      }
    }
    // One group's keys as the tile kernel reads them.
    auto** key_s =
        static_cast<const float**>(arena.Allocate(nk * sizeof(float*)));
    auto* key_row = static_cast<size_t*>(arena.Allocate(nk * sizeof(size_t)));
    auto* key_item =
        static_cast<size_t*>(arena.Allocate(nk * sizeof(size_t)));
    auto** key_v =
        static_cast<const float**>(arena.Allocate(nk * sizeof(float*)));

    // Group \p g for items [t0, t0 + nb) into item t's output at
    // out + t * out_item: per key run, the raw scores written where the
    // tile kernel reads them (no copies), then one
    // attention_tile pass. A run of broadcast keys against the tile's Q
    // rows is one GEMM with the keys as its left operand, so key j's
    // scores sit side by side over the items; broadcast Q rows against the
    // tile's keys are one GEMM the other way round; both broadcast, the
    // entries computed once are read in place; both per item, one dot per
    // (item, row, key). (A dot product's bits do not depend on which
    // operand is left, nor on whether a GEMM or the dot kernel takes it.)
    auto attend = [&](const RowGroup& g, size_t t0, size_t nb, float* out,
                      size_t out_item, bool pool) {
      const size_t rows = g.r1 - g.r0;
      float* gp = scores;
      for (size_t j0 = g.c0, j1; j0 < g.c1; j0 = j1) {
        const bool k_bcast = BroadcastRun(k, j0, &j1);
        j1 = std::min<size_t>(j1, g.c1);
        const size_t n = j1 - j0;
        const float* qt =
            g.q_bcast ? StackRowsAt(q, 0, 1, g.r0, g.r1, q_rows)
                      : StackRowsAt(q, t0, nb, g.r0, g.r1, q_rows);
        // Key j's score of (row r, item t) at s + (j - j0) * step +
        // r * row + t * item.
        const float* s = gp;
        size_t step = 1, row, item;
        if (g.q_bcast && k_bcast) {
          s = once_scores + g.r0 * nk + j0;
          row = nk;
          item = 0;
        } else if (k_bcast) {
          step = nb * rows;
          row = 1;
          item = rows;
          kt.gemm_rows_b_trans(StackRowsAt(k, 0, 1, j0, j1, k_rows), qt, gp,
                               n, d, nb * rows, step, /*accumulate=*/false);
        } else if (g.q_bcast) {
          row = nb * n;
          item = n;
          kt.gemm_rows_b_trans(qt, StackRowsAt(k, t0, nb, j0, j1, k_rows), gp,
                               rows, d, nb * n, row, /*accumulate=*/false);
        } else {
          row = n;
          item = rows * n;
          const float* kk = StackRowsAt(k, t0, nb, j0, j1, k_rows);
          for (size_t t = 0; t < nb; ++t) {
            for (size_t r = 0; r < rows; ++r) {
              for (size_t j = 0; j < n; ++j) {
                gp[t * item + r * row + j] =
                    kt.dot(qt + (t * rows + r) * d, kk + (t * n + j) * d, d);
              }
            }
          }
        }
        if (s == gp) gp += nb * rows * n;
        for (size_t j = j0; j < j1; ++j) {
          key_s[j - g.c0] = s + (j - j0) * step;
          key_row[j - g.c0] = row;
          key_item[j - g.c0] = item;
        }
      }
      for (size_t j = g.c0; j < g.c1; ++j) {
        key_v[j - g.c0] = v_base[j] + t0 * v_step[j];
      }
      kernels::AttentionTile at;
      at.s = key_s;
      at.s_row = key_row;
      at.s_item = key_item;
      at.add = mask_data != nullptr ? mask_data + g.r0 * nk + g.c0 : nullptr;
      at.add_stride = nk;
      at.v = key_v;
      at.v_item = v_step + g.c0;
      at.width = g.c1 - g.c0;
      at.rows = rows;
      at.items = nb;
      at.dv = dv;
      at.alpha = alpha;
      at.pooled = pool;
      at.pool_scale = pool_scale;
      at.out = out;
      at.out_item = out_item;
      at.probs = probs;
      kt.attention_tile(at);
    };

    // Once per call: the broadcast score entries, then the rows every item
    // shares.
    for (size_t i = 0; i < ngroups; ++i) {
      const RowGroup& g = groups[i];
      if (!g.q_bcast) continue;
      for (size_t j0 = g.c0, j1; j0 < g.c1; j0 = j1) {
        const bool bcast = BroadcastRun(k, j0, &j1);
        j1 = std::min<size_t>(j1, g.c1);
        if (!bcast) continue;
        kt.gemm_rows_b_trans(StackRowsAt(q, 0, 1, g.r0, g.r1, q_rows),
                             StackRowsAt(k, 0, 1, j0, j1, k_rows),
                             once_scores + g.r0 * nk + j0, g.r1 - g.r0, d,
                             j1 - j0, nk, /*accumulate=*/false);
      }
    }
    for (size_t i = 0; i < ngroups; ++i) {
      const RowGroup& g = groups[i];
      if (g.once) attend(g, b0, 1, once_rows + g.r0 * dv, 0, false);
    }

    // Tile by tile, group by group in row order: pooled, each group's rows
    // fold into the items' outputs, zeroed first, where the previous
    // group's left off.
    const size_t out_item = pooled ? dv : nq * dv;
    for (size_t t0 = b0; t0 < b1; t0 += tile) {
      const size_t nb = std::min(tile, b1 - t0);
      float* out_tile = out->data() + t0 * out_item;
      if (pooled) std::fill(out_tile, out_tile + nb * dv, 0.0f);
      for (size_t i = 0; i < ngroups; ++i) {
        const RowGroup& g = groups[i];
        float* dst = out_tile + (pooled ? 0 : g.r0 * dv);
        if (!g.once) {
          attend(g, t0, nb, dst, out_item, pooled);
          continue;
        }
        for (size_t t = 0; t < nb; ++t, dst += out_item) {
          for (size_t r = g.r0; r < g.r1; ++r) {
            const float* row = once_rows + r * dv;
            if (pooled) {
              kt.axpy(pool_scale, row, dst, dv);
            } else {
              std::copy(row, row + dv, dst + (r - g.r0) * dv);
            }
          }
        }
      }
    }
    arena.RewindTo(arena_mark);
  });
}

void Add(const Tensor& a, const Tensor& b, Tensor* out) {
  CheckSameShape(a, b);
  CheckSameShape(a, *out);
  const float* av = a.data();
  const float* bv = b.data();
  float* y = out->data();
  const kernels::KernelTable& kt = kernels::Active();
  util::ParallelFor(a.size(), kEwGrain, [=, &kt](size_t i0, size_t i1) {
    kt.add(av + i0, bv + i0, y + i0, i1 - i0);
  });
}

void Sub(const Tensor& a, const Tensor& b, Tensor* out) {
  CheckSameShape(a, b);
  CheckSameShape(a, *out);
  const float* av = a.data();
  const float* bv = b.data();
  float* y = out->data();
  const kernels::KernelTable& kt = kernels::Active();
  util::ParallelFor(a.size(), kEwGrain, [=, &kt](size_t i0, size_t i1) {
    kt.sub(av + i0, bv + i0, y + i0, i1 - i0);
  });
}

void Mul(const Tensor& a, const Tensor& b, Tensor* out) {
  CheckSameShape(a, b);
  CheckSameShape(a, *out);
  const float* av = a.data();
  const float* bv = b.data();
  float* y = out->data();
  const kernels::KernelTable& kt = kernels::Active();
  util::ParallelFor(a.size(), kEwGrain, [=, &kt](size_t i0, size_t i1) {
    kt.mul(av + i0, bv + i0, y + i0, i1 - i0);
  });
}

void Relu(const Tensor& in, Tensor* out) {
  CheckSameShape(in, *out);
  const float* x = in.data();
  float* y = out->data();
  const kernels::KernelTable& kt = kernels::Active();
  util::ParallelFor(in.size(), kEwGrain, [=, &kt](size_t i0, size_t i1) {
    kt.relu(x + i0, y + i0, i1 - i0);
  });
}

void Sigmoid(const Tensor& in, Tensor* out) {
  CheckSameShape(in, *out);
  const float* x = in.data();
  float* y = out->data();
  const kernels::KernelTable& kt = kernels::Active();
  util::ParallelFor(in.size(), kMathGrain, [=, &kt](size_t i0, size_t i1) {
    kt.sigmoid(x + i0, y + i0, i1 - i0);
  });
}

void Tanh(const Tensor& in, Tensor* out) {
  CheckSameShape(in, *out);
  const float* x = in.data();
  float* y = out->data();
  const kernels::KernelTable& kt = kernels::Active();
  util::ParallelFor(in.size(), kMathGrain, [=, &kt](size_t i0, size_t i1) {
    kt.tanh(x + i0, y + i0, i1 - i0);
  });
}

void AddBiasLastDim(const Tensor& in, const Tensor& bias, Tensor* out) {
  CheckSameShape(in, *out);
  SEQFM_CHECK_EQ(bias.rank(), 1u);
  const size_t d = in.shape().back();
  SEQFM_CHECK_EQ(bias.dim(0), d);
  const size_t rows = in.size() / d;
  const float* x = in.data();
  const float* bv = bias.data();
  float* y = out->data();
  const kernels::KernelTable& kt = kernels::Active();
  util::ParallelFor(rows, GrainForRows(d, kEwGrain), [=, &kt](size_t r0,
                                                              size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      kt.add(x + r * d, bv, y + r * d, d);
    }
  });
}

void Copy(const Tensor& in, Tensor* out) {
  SEQFM_CHECK_EQ(in.size(), out->size());
  const float* x = in.data();
  float* y = out->data();
  for (size_t i = 0; i < out->size(); ++i) y[i] = x[i];
}

void Scale(const Tensor& in, float alpha, Tensor* out) {
  SEQFM_CHECK_EQ(in.size(), out->size());
  const float* x = in.data();
  float* y = out->data();
  const kernels::KernelTable& kt = kernels::Active();
  util::ParallelFor(out->size(), kEwGrain, [=, &kt](size_t i0, size_t i1) {
    kt.scale(alpha, x + i0, y + i0, i1 - i0);
  });
}

void AddScalar(const Tensor& in, float alpha, Tensor* out) {
  SEQFM_CHECK_EQ(in.size(), out->size());
  const float* x = in.data();
  float* y = out->data();
  for (size_t i = 0; i < out->size(); ++i) y[i] = x[i] + alpha;
}

void AddBroadcastBatch(const Tensor& x, const Tensor& table, Tensor* out) {
  const size_t batch = x.dim(0), rows = x.dim(1), d = x.dim(2);
  SEQFM_CHECK_EQ(table.size(), rows * d);
  SEQFM_CHECK_EQ(out->size(), x.size());
  const float* src = table.data();
  const float* xv = x.data();
  float* y = out->data();
  const size_t block = rows * d;
  util::ParallelFor(batch, GrainForRows(block, kEwGrain),
                    [=](size_t b0, size_t b1) {
    for (size_t b = b0; b < b1; ++b) {
      const float* xb = xv + b * block;
      float* dst = y + b * block;
      for (size_t i = 0; i < block; ++i) dst[i] = xb[i] + src[i];
    }
  });
}

void BatchedMatMulLeftShared(const Tensor& w, const Tensor& p, Tensor* out) {
  const size_t batch = p.dim(0);
  const size_t h2 = w.dim(0), h = w.dim(1), d = p.dim(2);
  SEQFM_CHECK_EQ(p.dim(1), h);
  SEQFM_CHECK_EQ(out->size(), batch * h2 * d);
  const float* wv = w.data();
  const float* pv = p.data();
  float* y = out->data();
  util::ParallelFor(batch, GrainForRows(h2 * h * d, util::kMinParallelWork),
                    [=](size_t b0, size_t b1) {
    for (size_t b = b0; b < b1; ++b) {
      Gemm(wv, pv + b * h * d, y + b * h2 * d, h2, h, d, false, false, false);
    }
  });
}

void RowDot(const Tensor& a, const Tensor& b, Tensor* out) {
  const size_t batch = a.dim(0), d = a.dim(1);
  SEQFM_CHECK_EQ(b.size(), a.size());
  SEQFM_CHECK_EQ(out->size(), batch);
  const float* av = a.data();
  const float* bv = b.data();
  float* y = out->data();
  const kernels::KernelTable& kt = kernels::Active();
  util::ParallelFor(batch, GrainForRows(d, kEwGrain),
                    [=, &kt](size_t i0, size_t i1) {
    for (size_t i = i0; i < i1; ++i) y[i] = kt.dot(av + i * d, bv + i * d, d);
  });
}

void LayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
               float eps, Tensor* out, Tensor* xhat, Tensor* inv_std) {
  const size_t d = x.shape().back();
  const size_t rows = x.size() / d;
  SEQFM_CHECK_EQ(gamma.size(), d);
  SEQFM_CHECK_EQ(beta.size(), d);
  SEQFM_CHECK_EQ(out->size(), x.size());
  if (xhat != nullptr) SEQFM_CHECK_EQ(xhat->size(), x.size());
  if (inv_std != nullptr) SEQFM_CHECK_EQ(inv_std->size(), rows);
  const float* xv = x.data();
  const float* gv = gamma.data();
  const float* bv = beta.data();
  float* y = out->data();
  float* xhat_data = xhat != nullptr ? xhat->data() : nullptr;
  float* inv_std_data = inv_std != nullptr ? inv_std->data() : nullptr;
  // Mean and variance use the dispatched lane-blocked reductions; the
  // normalize/affine pass is the dispatched row map. Identical bits at every
  // SIMD level and thread count.
  const kernels::KernelTable& kt = kernels::Active();
  util::ParallelFor(rows, GrainForRows(d, kMathGrain),
                    [=, &kt](size_t r0, size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      const float* xr = xv + r * d;
      const float mean = kt.reduce_sum(xr, d) / static_cast<float>(d);
      const float var =
          kt.reduce_sum_sq_diff(xr, mean, d) / static_cast<float>(d);
      const float is = 1.0f / std::sqrt(var + eps);
      if (inv_std_data != nullptr) inv_std_data[r] = is;
      kt.layer_norm_row(xr, gv, bv, mean, is, d, y + r * d,
                        xhat_data != nullptr ? xhat_data + r * d : nullptr);
    }
  });
}

void ConcatLastDim(const Tensor* const* parts, size_t count, Tensor* out) {
  const size_t batch = out->dim(0), total = out->dim(1);
  size_t offset = 0;
  for (size_t p = 0; p < count; ++p) {
    const size_t d = parts[p]->dim(1);
    SEQFM_CHECK_LE(offset + d, total);
    for (size_t b = 0; b < batch; ++b) {
      std::memcpy(out->data() + b * total + offset, parts[p]->data() + b * d,
                  d * sizeof(float));
    }
    offset += d;
  }
  SEQFM_CHECK_EQ(offset, total);
}

void ConcatAxis1(const Tensor& a, const Tensor& b, Tensor* out) {
  const size_t batch = out->dim(0), na = a.dim(1), nb = b.dim(1),
               d = a.dim(2);
  SEQFM_CHECK_EQ(out->size(), batch * (na + nb) * d);
  const size_t stride_a = a.dim(0) == 1 ? 0 : na * d;
  const size_t stride_b = b.dim(0) == 1 ? 0 : nb * d;
  for (size_t i = 0; i < batch; ++i) {
    float* dst = out->BatchData(i);
    std::memcpy(dst, a.data() + i * stride_a, na * d * sizeof(float));
    std::memcpy(dst + na * d, b.data() + i * stride_b, nb * d * sizeof(float));
  }
}

void SliceRow(const Tensor& in, size_t row, Tensor* out) {
  const size_t batch = in.dim(0), d = in.dim(2);
  SEQFM_CHECK_LT(row, in.dim(1));
  SEQFM_CHECK_EQ(out->size(), batch * d);
  for (size_t b = 0; b < batch; ++b) {
    std::memcpy(out->data() + b * d, in.BatchData(b) + row * d,
                d * sizeof(float));
  }
}

void ExpandRows(const Tensor& in, Tensor* out) {
  const size_t batch = out->dim(0), n = out->dim(1), d = out->dim(2);
  SEQFM_CHECK_EQ(in.size(), batch * d);
  for (size_t b = 0; b < batch; ++b) {
    const float* src = in.data() + b * d;
    float* dst = out->BatchData(b);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < d; ++j) dst[i * d + j] = src[j];
    }
  }
}

void PairwiseProductUpper(const Tensor& in, Tensor* out) {
  const size_t batch = in.dim(0), n = in.dim(1), d = in.dim(2);
  SEQFM_CHECK_EQ(out->size(), batch * (n * (n - 1) / 2) * d);
  for (size_t b = 0; b < batch; ++b) {
    const float* src = in.BatchData(b);
    float* dst = out->BatchData(b);
    size_t p = 0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j, ++p) {
        const float* xi = src + i * d;
        const float* xj = src + j * d;
        float* row = dst + p * d;
        for (size_t c = 0; c < d; ++c) row[c] = xi[c] * xj[c];
      }
    }
  }
}

void PairwiseProductCross(const Tensor& a, const Tensor& b, Tensor* out) {
  const size_t batch = a.dim(0), h = a.dim(1), m = b.dim(1), d = a.dim(2);
  SEQFM_CHECK_EQ(out->size(), batch * h * m * d);
  for (size_t t = 0; t < batch; ++t) {
    const float* sa = a.BatchData(t);
    const float* sb = b.BatchData(t);
    float* dst = out->BatchData(t);
    for (size_t i = 0; i < h; ++i) {
      for (size_t j = 0; j < m; ++j) {
        const float* xi = sa + i * d;
        const float* xj = sb + j * d;
        float* row = dst + (i * m + j) * d;
        for (size_t c = 0; c < d; ++c) row[c] = xi[c] * xj[c];
      }
    }
  }
}

void SumAxis1(const Tensor& in, float scale, Tensor* out, bool accumulate) {
  SEQFM_CHECK_EQ(in.rank(), 3u);
  SEQFM_CHECK_EQ(out->rank(), 2u);
  SEQFM_CHECK_EQ(out->dim(0), in.dim(0));
  SEQFM_CHECK_EQ(out->dim(1), in.dim(2));
  const size_t batch = in.dim(0), rows = in.dim(1), d = in.dim(2);
  if (!accumulate) out->Zero();
  // Each batch item owns a disjoint output row, so the batch loop is safe to
  // split across the pool.
  float* out_data = out->data();
  const kernels::KernelTable& kt = kernels::Active();
  util::ParallelFor(batch, GrainForRows(rows * d, kEwGrain),
                    [&in, &kt, out_data, scale, rows, d](size_t b0,
                                                         size_t b1) {
    for (size_t b = b0; b < b1; ++b) {
      const float* src = in.BatchData(b);
      float* dst = out_data + b * d;
      for (size_t i = 0; i < rows; ++i) {
        kt.axpy(scale, src + i * d, dst, d);
      }
    }
  });
}

void SumLastDim(const Tensor& in, Tensor* out) {
  const size_t d = in.shape().back();
  const size_t rows = in.size() / d;
  SEQFM_CHECK_EQ(out->size(), rows);
  const float* x = in.data();
  float* y = out->data();
  const kernels::KernelTable& kt = kernels::Active();
  util::ParallelFor(rows, GrainForRows(d, kEwGrain), [=, &kt](size_t r0,
                                                              size_t r1) {
    for (size_t r = r0; r < r1; ++r) {
      y[r] = kt.reduce_sum(x + r * d, d);
    }
  });
}

float SumAll(const Tensor& in) {
  // Deliberately serial and deliberately NOT lane-blocked: losses and
  // whole-tensor diagnostics keep their historical ascending order, which is
  // identical at every thread count and SIMD level by virtue of never being
  // vectorized.
  float acc = 0.0f;
  for (size_t i = 0; i < in.size(); ++i) acc += in.data()[i];
  return acc;
}

}  // namespace tensor
}  // namespace seqfm
