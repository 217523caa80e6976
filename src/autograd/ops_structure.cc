#include "autograd/ops.h"
#include "autograd/ops_common.h"
#include "tensor/ops.h"

namespace seqfm {
namespace autograd {

using internal::MakeNode;
using tensor::Tensor;

Variable ConcatLastDim(const std::vector<Variable>& parts) {
  SEQFM_CHECK(!parts.empty());
  const size_t batch = parts[0].dim(0);
  size_t total = 0;
  std::vector<NodePtr> parents;
  std::vector<const Tensor*> values;
  parents.reserve(parts.size());
  values.reserve(parts.size());
  for (const auto& p : parts) {
    SEQFM_CHECK_EQ(p.rank(), 2u);
    SEQFM_CHECK_EQ(p.dim(0), batch);
    total += p.dim(1);
    parents.push_back(p.node());
    values.push_back(&p.value());
  }
  Tensor out = internal::OutputBuffer({batch, total});
  tensor::ConcatLastDim(values.data(), values.size(), &out);
  auto node = MakeNode("concat_last", std::move(parents), std::move(out));
  Node* self = node.get();
  if (node->requires_grad) node->backward_fn = [self, batch, total]() {
    size_t offset = 0;
    for (auto& parent : self->parents) {
      Node* p = parent.get();
      const size_t d = p->value.dim(1);
      if (p->requires_grad) {
        p->EnsureGrad();
        for (size_t b = 0; b < batch; ++b) {
          const float* g = self->grad.data() + b * total + offset;
          float* dst = p->grad.data() + b * d;
          for (size_t j = 0; j < d; ++j) dst[j] += g[j];
        }
      }
      offset += d;
    }
  };
  return Variable(node);
}

Variable ConcatAxis1(const Variable& a, const Variable& b) {
  SEQFM_CHECK_EQ(a.rank(), 3u);
  SEQFM_CHECK_EQ(b.rank(), 3u);
  SEQFM_CHECK_EQ(a.dim(0), b.dim(0));
  SEQFM_CHECK_EQ(a.dim(2), b.dim(2));
  const size_t batch = a.dim(0), na = a.dim(1), nb = b.dim(1), d = a.dim(2);
  Tensor out = internal::OutputBuffer({batch, na + nb, d});
  tensor::ConcatAxis1(a.value(), b.value(), &out);
  auto node = MakeNode("concat_axis1", {a.node(), b.node()}, std::move(out));
  Node* self = node.get();
  if (node->requires_grad) node->backward_fn = [self, batch, na, nb, d]() {
    Node* pa = self->parents[0].get();
    Node* pb = self->parents[1].get();
    for (size_t i = 0; i < batch; ++i) {
      const float* g = self->grad.BatchData(i);
      if (pa->requires_grad) {
        pa->EnsureGrad();
        float* da = pa->grad.BatchData(i);
        for (size_t j = 0; j < na * d; ++j) da[j] += g[j];
      }
      if (pb->requires_grad) {
        pb->EnsureGrad();
        float* db = pb->grad.BatchData(i);
        for (size_t j = 0; j < nb * d; ++j) db[j] += g[na * d + j];
      }
    }
  };
  return Variable(node);
}

namespace {
Variable ReduceAxis1(const Variable& x, float scale, const char* name) {
  SEQFM_CHECK_EQ(x.rank(), 3u);
  const size_t batch = x.dim(0), rows = x.dim(1), d = x.dim(2);
  Tensor out = internal::OutputBuffer({batch, d});
  tensor::SumAxis1(x.value(), scale, &out);
  TraceAttrs attrs;
  attrs.alpha = scale;
  auto node = MakeNode(name, {x.node()}, std::move(out), &attrs);
  Node* self = node.get();
  if (node->requires_grad) node->backward_fn = [self, batch, rows, d, scale]() {
    Node* p = self->parents[0].get();
    if (!p->requires_grad) return;
    p->EnsureGrad();
    for (size_t b = 0; b < batch; ++b) {
      const float* g = self->grad.data() + b * d;
      float* dx = p->grad.BatchData(b);
      for (size_t i = 0; i < rows; ++i) {
        float* row = dx + i * d;
        for (size_t j = 0; j < d; ++j) row[j] += scale * g[j];
      }
    }
  };
  return Variable(node);
}
}  // namespace

Variable MeanAxis1(const Variable& x, float divisor) {
  SEQFM_CHECK_GT(divisor, 0.0f);
  return ReduceAxis1(x, 1.0f / divisor, "mean_axis1");
}

Variable SumAxis1(const Variable& x) { return ReduceAxis1(x, 1.0f, "sum_axis1"); }

Variable SliceRow(const Variable& x, size_t row) {
  SEQFM_CHECK_EQ(x.rank(), 3u);
  SEQFM_CHECK_LT(row, x.dim(1));
  const size_t batch = x.dim(0), d = x.dim(2);
  Tensor out = internal::OutputBuffer({batch, d});
  tensor::SliceRow(x.value(), row, &out);
  TraceAttrs attrs;
  attrs.row = row;
  auto node = MakeNode("slice_row", {x.node()}, std::move(out), &attrs);
  Node* self = node.get();
  if (node->requires_grad) node->backward_fn = [self, batch, row, d]() {
    Node* p = self->parents[0].get();
    if (!p->requires_grad) return;
    p->EnsureGrad();
    for (size_t b = 0; b < batch; ++b) {
      const float* g = self->grad.data() + b * d;
      float* dst = p->grad.BatchData(b) + row * d;
      for (size_t j = 0; j < d; ++j) dst[j] += g[j];
    }
  };
  return Variable(node);
}

Variable SumLastDimKeep(const Variable& x) {
  const size_t d = x.value().shape().back();
  const size_t rows = x.value().size() / d;
  std::vector<size_t> out_shape = x.value().shape();
  out_shape.back() = 1;
  Tensor out = internal::OutputBuffer(out_shape);
  tensor::SumLastDim(x.value(), &out);
  auto node = MakeNode("sum_last", {x.node()}, std::move(out));
  Node* self = node.get();
  if (node->requires_grad) node->backward_fn = [self, rows, d]() {
    Node* p = self->parents[0].get();
    if (!p->requires_grad) return;
    p->EnsureGrad();
    for (size_t r = 0; r < rows; ++r) {
      const float g = self->grad.data()[r];
      float* dx = p->grad.data() + r * d;
      for (size_t j = 0; j < d; ++j) dx[j] += g;
    }
  };
  return Variable(node);
}

Variable Reshape(const Variable& x, std::vector<size_t> shape) {
  Tensor out;
  if (GradMode()) {
    // Taped path: the historical single-pass copy-construct.
    out = x.value();
    SEQFM_CHECK(out.ReshapeInPlace(std::move(shape)).ok())
        << "reshape must preserve element count";
  } else {
    // Tape-free path: copy through OutputBuffer so the buffer comes from
    // the scratch arena (several baselines reshape on every eager serving
    // forward) rather than the heap, and skips the zero-fill.
    size_t count = 1;
    for (size_t d : shape) count *= d;
    SEQFM_CHECK_EQ(count, x.value().size())
        << "reshape must preserve element count";
    out = internal::OutputBuffer(std::move(shape));
    tensor::Copy(x.value(), &out);
  }
  auto node = MakeNode("reshape", {x.node()}, std::move(out));
  Node* self = node.get();
  if (node->requires_grad) node->backward_fn = [self]() {
    Node* p = self->parents[0].get();
    if (!p->requires_grad) return;
    p->EnsureGrad();
    // Same layout: accumulate flat.
    const size_t n = self->grad.size();
    const float* g = self->grad.data();
    float* dx = p->grad.data();
    for (size_t i = 0; i < n; ++i) dx[i] += g[i];
  };
  return Variable(node);
}

Variable ExpandRows(const Variable& x, size_t n) {
  SEQFM_CHECK_EQ(x.rank(), 2u);
  SEQFM_CHECK_GT(n, 0u);
  const size_t batch = x.dim(0), d = x.dim(1);
  Tensor out = internal::OutputBuffer({batch, n, d});
  tensor::ExpandRows(x.value(), &out);
  auto node = MakeNode("expand_rows", {x.node()}, std::move(out));
  Node* self = node.get();
  if (node->requires_grad) node->backward_fn = [self, batch, n, d]() {
    Node* p = self->parents[0].get();
    if (!p->requires_grad) return;
    p->EnsureGrad();
    for (size_t b = 0; b < batch; ++b) {
      const float* g = self->grad.BatchData(b);
      float* dx = p->grad.data() + b * d;
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < d; ++j) dx[j] += g[i * d + j];
      }
    }
  };
  return Variable(node);
}

namespace {
Variable ReduceAll(const Variable& x, float scale, const char* name) {
  Tensor out = internal::OutputBuffer({1});
  out.at(0) = tensor::SumAll(x.value()) * scale;
  auto node = MakeNode(name, {x.node()}, std::move(out));
  Node* self = node.get();
  if (node->requires_grad) node->backward_fn = [self, scale]() {
    Node* p = self->parents[0].get();
    if (!p->requires_grad) return;
    p->EnsureGrad();
    const float g = self->grad.at(0) * scale;
    float* dx = p->grad.data();
    const size_t n = p->grad.size();
    for (size_t i = 0; i < n; ++i) dx[i] += g;
  };
  return Variable(node);
}
}  // namespace

Variable SumAll(const Variable& x) { return ReduceAll(x, 1.0f, "sum_all"); }

Variable MeanAll(const Variable& x) {
  return ReduceAll(x, 1.0f / static_cast<float>(x.value().size()), "mean_all");
}

Variable PairwiseProductUpper(const Variable& x) {
  SEQFM_CHECK_EQ(x.rank(), 3u);
  const size_t batch = x.dim(0), n = x.dim(1), d = x.dim(2);
  SEQFM_CHECK_GE(n, 2u);
  const size_t pairs = n * (n - 1) / 2;
  Tensor out = internal::OutputBuffer({batch, pairs, d});
  tensor::PairwiseProductUpper(x.value(), &out);
  auto node = MakeNode("pairwise_upper", {x.node()}, std::move(out));
  Node* self = node.get();
  if (node->requires_grad) node->backward_fn = [self, batch, n, d]() {
    Node* px = self->parents[0].get();
    if (!px->requires_grad) return;
    px->EnsureGrad();
    for (size_t b = 0; b < batch; ++b) {
      const float* src = px->value.BatchData(b);
      const float* g = self->grad.BatchData(b);
      float* dx = px->grad.BatchData(b);
      size_t p = 0;
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j, ++p) {
          const float* gr = g + p * d;
          const float* xi = src + i * d;
          const float* xj = src + j * d;
          float* di = dx + i * d;
          float* dj = dx + j * d;
          for (size_t c = 0; c < d; ++c) {
            di[c] += gr[c] * xj[c];
            dj[c] += gr[c] * xi[c];
          }
        }
      }
    }
  };
  return Variable(node);
}

Variable PairwiseProductCross(const Variable& a, const Variable& b) {
  SEQFM_CHECK_EQ(a.rank(), 3u);
  SEQFM_CHECK_EQ(b.rank(), 3u);
  SEQFM_CHECK_EQ(a.dim(0), b.dim(0));
  SEQFM_CHECK_EQ(a.dim(2), b.dim(2));
  const size_t batch = a.dim(0), h = a.dim(1), m = b.dim(1), d = a.dim(2);
  Tensor out = internal::OutputBuffer({batch, h * m, d});
  tensor::PairwiseProductCross(a.value(), b.value(), &out);
  auto node = MakeNode("pairwise_cross", {a.node(), b.node()}, std::move(out));
  Node* self = node.get();
  if (node->requires_grad) node->backward_fn = [self, batch, h, m, d]() {
    Node* pa = self->parents[0].get();
    Node* pb = self->parents[1].get();
    for (size_t bt = 0; bt < batch; ++bt) {
      const float* g = self->grad.BatchData(bt);
      const float* sa = pa->value.BatchData(bt);
      const float* sb = pb->value.BatchData(bt);
      for (size_t i = 0; i < h; ++i) {
        for (size_t j = 0; j < m; ++j) {
          const float* gr = g + (i * m + j) * d;
          if (pa->requires_grad) {
            pa->EnsureGrad();
            float* da = pa->grad.BatchData(bt) + i * d;
            const float* xj = sb + j * d;
            for (size_t c = 0; c < d; ++c) da[c] += gr[c] * xj[c];
          }
          if (pb->requires_grad) {
            pb->EnsureGrad();
            float* db = pb->grad.BatchData(bt) + j * d;
            const float* xi = sa + i * d;
            for (size_t c = 0; c < d; ++c) db[c] += gr[c] * xi[c];
          }
        }
      }
    }
  };
  return Variable(node);
}

}  // namespace autograd
}  // namespace seqfm
