#include "tensor/tensor.h"

#include <algorithm>
#include <atomic>
#include <new>
#include <sstream>

#include "tensor/kernels.h"

namespace seqfm {
namespace tensor {

namespace {
size_t NumElements(const std::vector<size_t>& shape) {
  size_t n = 1;
  for (size_t d : shape) n *= d;
  return n;
}
}  // namespace

namespace internal {

namespace {

std::atomic<uint64_t> g_heap_allocs{0};

float* AllocateAligned(size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return static_cast<float*>(::operator new(
      n * sizeof(float), std::align_val_t{kTensorAlignment}));
}

void DeallocateAligned(float* p) {
  ::operator delete(p, std::align_val_t{kTensorAlignment});
}

}  // namespace

uint64_t HeapAllocCount() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

void FloatStorage::Release() {
  if (owned_) DeallocateAligned(ptr_);
}

void FloatStorage::Reserve(size_t n) {
  if (owned_ && size_ == n) return;
  Release();
  if (n == 0) {
    Forget();
    return;
  }
  ptr_ = AllocateAligned(n);
  size_ = n;
  owned_ = true;
}

void FloatStorage::Assign(size_t n, float value) {
  Reserve(n);
  for (size_t i = 0; i < n; ++i) ptr_[i] = value;
}

void FloatStorage::AssignRange(const float* first, const float* last) {
  const size_t n = static_cast<size_t>(last - first);
  Reserve(n);
  for (size_t i = 0; i < n; ++i) ptr_[i] = first[i];
}

void FloatStorage::ResizeUninitialized(size_t n) { Reserve(n); }

void FloatStorage::WrapExternal(float* data, size_t n) {
  Release();
  ptr_ = data;
  size_ = n;
  owned_ = false;
}

}  // namespace internal

Tensor::Tensor(std::vector<size_t> shape) : shape_(std::move(shape)) {
  SEQFM_CHECK(!shape_.empty() && shape_.size() <= 3)
      << "rank must be 1..3, got " << shape_.size();
  for (size_t d : shape_) SEQFM_CHECK_GT(d, 0u);
  data_.Assign(NumElements(shape_), 0.0f);
}

Tensor Tensor::Uninitialized(std::vector<size_t> shape) {
  Tensor t;
  t.shape_ = std::move(shape);
  SEQFM_CHECK(!t.shape_.empty() && t.shape_.size() <= 3)
      << "rank must be 1..3, got " << t.shape_.size();
  for (size_t d : t.shape_) SEQFM_CHECK_GT(d, 0u);
  t.data_.ResizeUninitialized(NumElements(t.shape_));
  return t;
}

Tensor Tensor::WrapExternal(std::vector<size_t> shape, float* data,
                            size_t count) {
  Tensor t;
  t.shape_ = std::move(shape);
  SEQFM_CHECK(!t.shape_.empty() && t.shape_.size() <= 3)
      << "rank must be 1..3, got " << t.shape_.size();
  for (size_t d : t.shape_) SEQFM_CHECK_GT(d, 0u);
  SEQFM_CHECK_EQ(NumElements(t.shape_), count);
  SEQFM_CHECK(data != nullptr);
  t.data_.WrapExternal(data, count);
  return t;
}

void Tensor::RewrapExternal(float* data, size_t dim0) {
  SEQFM_CHECK(!data_.owned() && data != nullptr && dim0 > 0);
  const size_t n = size() / shape_[0] * dim0;
  shape_[0] = dim0;
  data_.WrapExternal(data, n);
}

Tensor Tensor::Ones(std::vector<size_t> shape) {
  return Full(std::move(shape), 1.0f);
}

Tensor Tensor::Full(std::vector<size_t> shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Result<Tensor> Tensor::FromVector(std::vector<size_t> shape,
                                  std::vector<float> data) {
  if (shape.empty() || shape.size() > 3) {
    return Status::InvalidArgument("tensor rank must be 1..3");
  }
  if (NumElements(shape) != data.size()) {
    return Status::InvalidArgument("shape does not match data size");
  }
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_.AssignRange(data.data(), data.data() + data.size());
  return t;
}

Status Tensor::ReshapeInPlace(std::vector<size_t> shape) {
  if (shape.empty() || shape.size() > 3) {
    return Status::InvalidArgument("tensor rank must be 1..3");
  }
  if (NumElements(shape) != data_.size()) {
    return Status::InvalidArgument("reshape must preserve element count");
  }
  shape_ = std::move(shape);
  return Status::OK();
}

void Tensor::Fill(float value) {
  float* p = data_.data();
  const size_t n = data_.size();
  for (size_t i = 0; i < n; ++i) p[i] = value;
}

void Tensor::AddScaled(const Tensor& other, float alpha) {
  SEQFM_CHECK(SameShape(other));
  kernels::Active().axpy(alpha, other.data(), data(), size());
}

void Tensor::Scale(float alpha) {
  kernels::Active().scale_inplace(alpha, data(), size());
}

std::string Tensor::ToString(size_t max_elems) const {
  std::ostringstream os;
  os << "Tensor[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << "x";
    os << shape_[i];
  }
  os << "](";
  const size_t n = std::min(max_elems, size());
  for (size_t i = 0; i < n; ++i) {
    if (i) os << ", ";
    os << data_[i];
  }
  if (n < size()) os << ", ...";
  os << ")";
  return os.str();
}

}  // namespace tensor
}  // namespace seqfm
