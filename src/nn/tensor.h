#ifndef LOS_NN_TENSOR_H_
#define LOS_NN_TENSOR_H_

#include <cassert>
#include <cstdint>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"

namespace los::nn {

/// Bytes of one cache line: the alignment of every tensor's storage.
inline constexpr size_t kCacheLine = 64;

/// \brief Allocator of cache-line-aligned storage. A model's weights then
/// start on a line boundary wherever the heap puts them: a row whose width
/// is a multiple of 16 floats never splits a line, and a forward's speed
/// does not depend on what was allocated before the model (with a
/// 16-byte-aligned `std::vector` it moved a single-row forward by up to
/// 30%).
template <typename T>
struct CacheLineAllocator {
  using value_type = T;

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kCacheLine}));
  }
  void deallocate(T* p, size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{kCacheLine});
  }
  template <typename U>
  bool operator==(const CacheLineAllocator<U>&) const noexcept {
    return true;
  }
};

/// A `std::vector` whose data() is cache-line aligned.
template <typename T>
using AlignedVector = std::vector<T, CacheLineAllocator<T>>;

/// \brief Dense row-major 2-D float32 matrix.
///
/// The whole NN stack works on rank-2 tensors: a batch of vectors is
/// `(batch, dim)`; a single vector is `(1, dim)`. This deliberately simple
/// representation keeps the hand-written backward passes auditable. The
/// values are cache-line aligned (`data() % kCacheLine == 0`), however the
/// tensor was made, resized, copied, moved or loaded.
class Tensor {
 public:
  /// Empty 0x0 tensor.
  Tensor() : rows_(0), cols_(0) {}

  /// Zero-initialized tensor of the given shape.
  Tensor(int64_t rows, int64_t cols) : rows_(rows), cols_(cols) {
    assert(rows >= 0 && cols >= 0);
    assert(cols == 0 || rows <= std::numeric_limits<int64_t>::max() / cols);
    data_.assign(static_cast<size_t>(rows) * static_cast<size_t>(cols), 0.0f);
  }

  /// Builds a tensor from explicit row-major values.
  static Tensor FromValues(int64_t rows, int64_t cols,
                           std::vector<float> values);

  /// All-zero tensor.
  static Tensor Zeros(int64_t rows, int64_t cols) {
    return Tensor(rows, cols);
  }

  /// Constant-filled tensor.
  static Tensor Full(int64_t rows, int64_t cols, float value);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Pointer to the beginning of row `i`.
  float* row(int64_t i) { return data_.data() + i * cols_; }
  const float* row(int64_t i) const { return data_.data() + i * cols_; }

  float& operator()(int64_t i, int64_t j) {
    assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<size_t>(i * cols_ + j)];
  }
  float operator()(int64_t i, int64_t j) const {
    assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<size_t>(i * cols_ + j)];
  }

  /// Reshapes without reallocation; total size must match.
  void Reshape(int64_t rows, int64_t cols);

  /// Resizes to the given shape; contents are zeroed.
  void ResizeAndZero(int64_t rows, int64_t cols);

  /// Resizes to the given shape without clearing: the values are whatever
  /// the storage held (zeros where it grew). For outputs that are then
  /// written in full.
  void Resize(int64_t rows, int64_t cols);

  /// Sets every entry to zero (shape unchanged).
  void SetZero();

  /// Sets every entry to `value`.
  void Fill(float value);

  /// Sum of all entries.
  double Sum() const;

  /// Mean of all entries (0 for empty tensors).
  double Mean() const;

  /// Largest absolute entry (0 for empty tensors).
  float AbsMax() const;

  /// Elementwise in-place scale.
  void Scale(float s);

  /// Elementwise in-place add of a same-shaped tensor.
  void Add(const Tensor& other);

  /// this += s * other (axpy), shapes must match.
  void Axpy(float s, const Tensor& other);

  bool SameShape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// "Tensor(3x4)" plus first few values; for debugging/logging.
  std::string ToString(int64_t max_values = 8) const;

  /// Serialized byte footprint of the payload (what memory benches count).
  size_t ByteSize() const { return data_.size() * sizeof(float); }

  void Save(BinaryWriter* w) const;
  static Result<Tensor> Load(BinaryReader* r);

 private:
  int64_t rows_;
  int64_t cols_;
  AlignedVector<float> data_;
};

}  // namespace los::nn

#endif  // LOS_NN_TENSOR_H_
