#ifndef SEQFM_TENSOR_TENSOR_H_
#define SEQFM_TENSOR_TENSOR_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/logging.h"
#include "util/result.h"
#include "util/status.h"

namespace seqfm {
namespace tensor {

namespace internal {

/// Every owned tensor data buffer starts on a 64-byte boundary: one full
/// cache line, and enough for aligned loads of any current or foreseeable
/// vector width (AVX2 needs 32, AVX-512 would need 64). core::ScratchArena
/// hands out the same alignment for wrapped buffers.
constexpr size_t kTensorAlignment = 64;
static_assert((kTensorAlignment & (kTensorAlignment - 1)) == 0 &&
                  kTensorAlignment >= 2 * sizeof(float) * 8,
              "tensor alignment must be a power of two covering one AVX2 "
              "register pair");

/// Process-wide count of heap allocations made for tensor data buffers.
/// The allocation-free-serving tests snapshot it around steady-state
/// requests: with the scratch arena active the delta must be zero.
uint64_t HeapAllocCount();

/// \brief The float buffer behind a Tensor.
///
/// Replaces std::vector<float>: owned buffers are 64-byte aligned and
/// default-initialized on request (no zero-fill for Tensor::Uninitialized),
/// and a buffer may instead *wrap* externally owned memory — the hook
/// core::ScratchArena uses to hand op outputs bump-allocated scratch space.
/// Wrapped storage is never freed here; copying any storage (wrapped or not)
/// always produces an owned aligned heap copy, so a tensor that escapes its
/// arena scope by copy is safe.
class FloatStorage {
 public:
  FloatStorage() = default;
  ~FloatStorage() { Release(); }

  FloatStorage(const FloatStorage& other) {
    AssignRange(other.ptr_, other.ptr_ + other.size_);
  }
  FloatStorage& operator=(const FloatStorage& other) {
    if (this != &other) AssignRange(other.ptr_, other.ptr_ + other.size_);
    return *this;
  }
  FloatStorage(FloatStorage&& other) noexcept
      : ptr_(other.ptr_), size_(other.size_), owned_(other.owned_) {
    other.Forget();
  }
  FloatStorage& operator=(FloatStorage&& other) noexcept {
    if (this != &other) {
      Release();
      ptr_ = other.ptr_;
      size_ = other.size_;
      owned_ = other.owned_;
      other.Forget();
    }
    return *this;
  }

  /// Owned buffer of n elements, every element set to value.
  void Assign(size_t n, float value);
  /// Owned buffer holding a copy of [first, last).
  void AssignRange(const float* first, const float* last);
  /// Owned buffer of n elements, contents indeterminate (no zero-fill).
  void ResizeUninitialized(size_t n);
  /// Points at caller-owned memory (not freed here); contents untouched.
  void WrapExternal(float* data, size_t n);

  float* data() { return ptr_; }
  const float* data() const { return ptr_; }
  size_t size() const { return size_; }
  /// False for wrapped (arena) storage and for the empty buffer.
  bool owned() const { return owned_; }

  float& operator[](size_t i) { return ptr_[i]; }
  const float& operator[](size_t i) const { return ptr_[i]; }

 private:
  /// Frees an owned buffer; leaves the fields stale (callers reset them).
  void Release();
  void Forget() {
    ptr_ = nullptr;
    size_ = 0;
    owned_ = false;
  }
  /// Owned uninitialized buffer of n elements, reusing the current owned
  /// allocation when it already has exactly n.
  void Reserve(size_t n);

  float* ptr_ = nullptr;
  size_t size_ = 0;
  bool owned_ = false;
};

}  // namespace internal

/// \brief Dense row-major float tensor of rank 1 to 3.
///
/// This is the numeric workhorse of the library. It is deliberately simple:
/// contiguous storage, no views, no broadcasting at the storage level —
/// broadcasting semantics live in the op kernels (see ops.h). Rank 3 tensors
/// are laid out as [batch][row][col]. Owned data buffers are 64-byte aligned
/// (internal::kTensorAlignment) so SIMD kernels may assume vector-friendly
/// bases; WrapExternal tensors borrow scratch-arena memory with the same
/// alignment.
class Tensor {
 public:
  /// An empty rank-1 tensor of size 0.
  Tensor() : shape_{0} {}

  /// Zero-initialized tensor of the given shape. Shape entries must be
  /// positive and rank must be 1..3; violations abort (programmer error).
  explicit Tensor(std::vector<size_t> shape);

  /// Named factories ----------------------------------------------------

  /// All-zero tensor.
  static Tensor Zeros(std::vector<size_t> shape) { return Tensor(std::move(shape)); }

  /// Tensor whose elements are NOT initialized. Only for op outputs whose
  /// kernel overwrites every element before the tensor escapes — reading an
  /// element before writing it is undefined. The serving fast path uses this
  /// to skip the zero-fill on intermediates that live for one kernel.
  static Tensor Uninitialized(std::vector<size_t> shape);

  /// Tensor borrowing externally owned storage of exactly the shape's
  /// element count (contents indeterminate, never freed by the tensor).
  /// This is how autograd::internal::OutputBuffer hands ops memory from the
  /// thread's core::ScratchArena: the buffer must outlive the tensor and
  /// every move of it — copies are safe (they own aligned heap memory).
  static Tensor WrapExternal(std::vector<size_t> shape, float* data,
                             size_t count);
  /// Re-points a WrapExternal tensor at \p data with axis 0 resized to
  /// \p dim0, keeping the other dims. Allocates nothing: the serving VM
  /// re-views its frame for each run's candidate count this way.
  void RewrapExternal(float* data, size_t dim0);

  /// All-one tensor.
  static Tensor Ones(std::vector<size_t> shape);

  /// Tensor filled with \p value.
  static Tensor Full(std::vector<size_t> shape, float value);

  /// Builds a tensor from explicit data; checks element count matches.
  static Result<Tensor> FromVector(std::vector<size_t> shape,
                                   std::vector<float> data);

  /// Shape access ---------------------------------------------------------

  size_t rank() const { return shape_.size(); }
  const std::vector<size_t>& shape() const { return shape_; }
  size_t dim(size_t i) const {
    SEQFM_DCHECK(i < shape_.size());
    return shape_[i];
  }
  /// Total number of elements.
  size_t size() const { return data_.size(); }

  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  /// True when the tensor owns (and will free) its data buffer; false for
  /// WrapExternal (scratch-arena) tensors and empty tensors.
  bool owns_storage() const { return data_.owned(); }

  /// Reinterprets the tensor with a new shape of identical element count.
  Status ReshapeInPlace(std::vector<size_t> shape);

  /// Element access --------------------------------------------------------

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& at(size_t i) {
    SEQFM_DCHECK(rank() == 1 && i < shape_[0]);
    return data_[i];
  }
  float at(size_t i) const {
    SEQFM_DCHECK(rank() == 1 && i < shape_[0]);
    return data_[i];
  }
  float& at(size_t i, size_t j) {
    SEQFM_DCHECK(rank() == 2 && i < shape_[0] && j < shape_[1]);
    return data_[i * shape_[1] + j];
  }
  float at(size_t i, size_t j) const {
    SEQFM_DCHECK(rank() == 2 && i < shape_[0] && j < shape_[1]);
    return data_[i * shape_[1] + j];
  }
  float& at(size_t b, size_t i, size_t j) {
    SEQFM_DCHECK(rank() == 3 && b < shape_[0] && i < shape_[1] && j < shape_[2]);
    return data_[(b * shape_[1] + i) * shape_[2] + j];
  }
  float at(size_t b, size_t i, size_t j) const {
    SEQFM_DCHECK(rank() == 3 && b < shape_[0] && i < shape_[1] && j < shape_[2]);
    return data_[(b * shape_[1] + i) * shape_[2] + j];
  }

  /// Pointer to the start of matrix \p b of a rank-3 tensor.
  float* BatchData(size_t b) {
    SEQFM_DCHECK(rank() == 3 && b < shape_[0]);
    return data_.data() + b * shape_[1] * shape_[2];
  }
  const float* BatchData(size_t b) const {
    SEQFM_DCHECK(rank() == 3 && b < shape_[0]);
    return data_.data() + b * shape_[1] * shape_[2];
  }

  /// Whole-tensor mutation --------------------------------------------------

  /// Sets every element to \p value.
  void Fill(float value);
  /// Sets every element to zero.
  void Zero() { Fill(0.0f); }

  /// In-place axpy: this += alpha * other. Shapes must match.
  void AddScaled(const Tensor& other, float alpha);
  /// In-place scale: this *= alpha.
  void Scale(float alpha);

  /// Scalar value of a single-element tensor.
  float Item() const {
    SEQFM_CHECK_EQ(size(), 1u);
    return data_[0];
  }

  /// Debug string "[shape] values..." truncated to a few elements.
  std::string ToString(size_t max_elems = 16) const;

 private:
  std::vector<size_t> shape_;
  internal::FloatStorage data_;
};

}  // namespace tensor
}  // namespace seqfm

#endif  // SEQFM_TENSOR_TENSOR_H_
