#include <algorithm>
#include <vector>

#include "autograd/ops.h"
#include "autograd/ops_common.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace seqfm {
namespace autograd {

using internal::MakeNode;
using tensor::Tensor;

Variable MaskedSoftmax(const Variable& x, const Variable& mask) {
  Tensor out = internal::OutputBuffer(x.value().shape());
  const Tensor* mask_tensor = mask.defined() ? &mask.value() : nullptr;
  tensor::SoftmaxLastDim(x.value(), mask_tensor, &out);
  std::vector<NodePtr> parents = {x.node()};
  if (mask.defined()) parents.push_back(mask.node());
  auto node = MakeNode("masked_softmax", std::move(parents), std::move(out));
  Node* self = node.get();
  if (node->requires_grad) node->backward_fn = [self]() {
    Node* px = self->parents[0].get();
    if (!px->requires_grad) return;
    px->EnsureGrad();
    const size_t cols = self->value.shape().back();
    const size_t rows = self->value.size() / cols;
    const float* p = self->value.data();
    const float* g = self->grad.data();
    float* dx = px->grad.data();
    // dx_j = p_j * (g_j - sum_k g_k p_k); masked entries have p_j = 0.
    // Rows are independent, so the row loop splits across the pool. The
    // g·p reduction goes through the dispatched lane-blocked dot.
    const tensor::kernels::KernelTable& kt = tensor::kernels::Active();
    util::ParallelFor(rows, internal::GrainForRows(cols, internal::kMathGrain),
                      [=, &kt](size_t r0, size_t r1) {
      for (size_t r = r0; r < r1; ++r) {
        const float* pr = p + r * cols;
        const float* gr = g + r * cols;
        float* dr = dx + r * cols;
        const float dot = kt.dot(gr, pr, cols);
        for (size_t j = 0; j < cols; ++j) dr[j] += pr[j] * (gr[j] - dot);
      }
    });
  };
  return Variable(node);
}

Variable LayerNorm(const Variable& x, const Variable& gamma,
                   const Variable& beta, float eps) {
  const size_t d = x.value().shape().back();
  SEQFM_CHECK_EQ(gamma.value().size(), d);
  SEQFM_CHECK_EQ(beta.value().size(), d);
  const size_t rows = x.value().size() / d;

  // The normalized activations and per-row inverse stddev are tape state:
  // only materialized when a backward pass can consume them. The tape-free
  // forward keeps the identical arithmetic in registers.
  const bool tape = internal::TapeActive({&x, &gamma, &beta});
  Tensor out = internal::OutputBuffer(x.value().shape());
  Tensor xhat = tape ? Tensor(x.value().shape()) : Tensor();
  Tensor inv_std = tape ? Tensor({rows}) : Tensor();
  tensor::LayerNorm(x.value(), gamma.value(), beta.value(), eps, &out,
                    tape ? &xhat : nullptr, tape ? &inv_std : nullptr);

  TraceAttrs attrs;
  attrs.eps = eps;
  auto node = MakeNode("layer_norm", {x.node(), gamma.node(), beta.node()},
                       std::move(out), &attrs);
  Node* self = node.get();
  if (node->requires_grad)
    node->backward_fn = [self, d, rows, xhat = std::move(xhat),
                         inv_std = std::move(inv_std)]() {
    Node* px = self->parents[0].get();
    Node* pg = self->parents[1].get();
    Node* pb = self->parents[2].get();
    const float* g = self->grad.data();
    const float* gv = pg->value.data();
    // dgamma/dbeta reduce over rows into shared [d] buffers; that pass stays
    // serial so the accumulation order is independent of thread count. The
    // per-row dx math carries the heavy arithmetic and parallelizes cleanly.
    if (pg->requires_grad || pb->requires_grad) {
      for (size_t r = 0; r < rows; ++r) {
        const float* gr = g + r * d;
        const float* hr = xhat.data() + r * d;
        if (pg->requires_grad) {
          pg->EnsureGrad();
          float* dg = pg->grad.data();
          for (size_t j = 0; j < d; ++j) dg[j] += gr[j] * hr[j];
        }
        if (pb->requires_grad) {
          pb->EnsureGrad();
          float* db = pb->grad.data();
          for (size_t j = 0; j < d; ++j) db[j] += gr[j];
        }
      }
    }
    if (px->requires_grad) {
      px->EnsureGrad();
      float* dx_base = px->grad.data();
      const float* hbase = xhat.data();
      const float* is_base = inv_std.data();
      util::ParallelFor(rows,
                        internal::GrainForRows(d, internal::kMathGrain),
                        [=](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
          const float* gr = g + r * d;
          const float* hr = hbase + r * d;
          // dxhat = g ⊙ gamma;
          // dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat ⊙ xhat)).
          float mean_dh = 0.0f, mean_dh_h = 0.0f;
          for (size_t j = 0; j < d; ++j) {
            const float dh = gr[j] * gv[j];
            mean_dh += dh;
            mean_dh_h += dh * hr[j];
          }
          mean_dh /= static_cast<float>(d);
          mean_dh_h /= static_cast<float>(d);
          float* dx = dx_base + r * d;
          const float is = is_base[r];
          for (size_t j = 0; j < d; ++j) {
            const float dh = gr[j] * gv[j];
            dx[j] += is * (dh - mean_dh - hr[j] * mean_dh_h);
          }
        }
      });
    }
  };
  return Variable(node);
}

Variable Dropout(const Variable& x, float keep_prob, bool training, Rng* rng) {
  if (!training || keep_prob >= 1.0f) {
    return x;  // Identity: evaluation uses all neurons (Sec. III-F).
  }
  SEQFM_CHECK_GT(keep_prob, 0.0f);
  const size_t n = x.value().size();
  // mask entries are 0 (dropped) or 1/keep_prob (inverted dropout scaling).
  Tensor mask(x.value().shape());
  const float scale = 1.0f / keep_prob;
  float* mask_data = mask.data();
  constexpr size_t kDropoutChunk = 4096;
  constexpr size_t kDropoutParallelMin = util::kMinParallelWork;
  if (n < kDropoutParallelMin) {
    // Small tensors stay serial and keep the caller's stream untouched.
    for (size_t i = 0; i < n; ++i) {
      mask_data[i] = rng->Bernoulli(keep_prob) ? scale : 0.0f;
    }
  } else {
    // Large masks are generated in fixed-size chunks, each drawing from its
    // own child stream derived serially with Rng::SplitN BEFORE dispatch.
    // Chunk boundaries depend only on n, so for a fixed seed the mask is
    // identical at every thread count while still filling in parallel.
    const size_t num_chunks = (n + kDropoutChunk - 1) / kDropoutChunk;
    std::vector<Rng> streams = rng->SplitN(num_chunks);
    util::ParallelFor(num_chunks, 1, [&streams, mask_data, n, scale,
                                      keep_prob](size_t c0, size_t c1) {
      for (size_t c = c0; c < c1; ++c) {
        Rng& stream = streams[c];
        const size_t begin = c * kDropoutChunk;
        const size_t end = std::min(n, begin + kDropoutChunk);
        for (size_t i = begin; i < end; ++i) {
          mask_data[i] = stream.Bernoulli(keep_prob) ? scale : 0.0f;
        }
      }
    });
  }
  Tensor out = internal::OutputBuffer(x.value().shape());
  tensor::Mul(x.value(), mask, &out);
  auto node = MakeNode("dropout", {x.node()}, std::move(out));
  Node* self = node.get();
  if (node->requires_grad)
    node->backward_fn = [self, mask = std::move(mask)]() {
    Node* p = self->parents[0].get();
    if (!p->requires_grad) return;
    p->EnsureGrad();
    const size_t n = self->grad.size();
    const float* g = self->grad.data();
    const float* m = mask.data();
    float* dx = p->grad.data();
    const tensor::kernels::KernelTable& kt = tensor::kernels::Active();
    util::ParallelFor(n, internal::kEwGrain, [=, &kt](size_t i0, size_t i1) {
      kt.madd(g + i0, m + i0, dx + i0, i1 - i0);
    });
  };
  return Variable(node);
}

}  // namespace autograd
}  // namespace seqfm
