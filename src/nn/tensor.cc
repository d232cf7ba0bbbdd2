#include "nn/tensor.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace los::nn {

Tensor Tensor::FromValues(int64_t rows, int64_t cols,
                          std::vector<float> values) {
  assert(static_cast<int64_t>(values.size()) == rows * cols);
  Tensor t;
  t.rows_ = rows;
  t.cols_ = cols;
  t.data_.assign(values.begin(), values.end());
  return t;
}

Tensor Tensor::Full(int64_t rows, int64_t cols, float value) {
  Tensor t(rows, cols);
  t.Fill(value);
  return t;
}

void Tensor::Reshape(int64_t rows, int64_t cols) {
  assert(rows * cols == rows_ * cols_);
  rows_ = rows;
  cols_ = cols;
}

void Tensor::ResizeAndZero(int64_t rows, int64_t cols) {
  assert(rows >= 0 && cols >= 0);
  assert(cols == 0 || rows <= std::numeric_limits<int64_t>::max() / cols);
  rows_ = rows;
  cols_ = cols;
  data_.assign(static_cast<size_t>(rows) * static_cast<size_t>(cols), 0.0f);
}

void Tensor::Resize(int64_t rows, int64_t cols) {
  assert(rows >= 0 && cols >= 0);
  assert(cols == 0 || rows <= std::numeric_limits<int64_t>::max() / cols);
  rows_ = rows;
  cols_ = cols;
  data_.resize(static_cast<size_t>(rows) * static_cast<size_t>(cols));
}

void Tensor::SetZero() { std::fill(data_.begin(), data_.end(), 0.0f); }

void Tensor::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

double Tensor::Sum() const {
  double s = 0.0;
  for (float v : data_) s += v;
  return s;
}

double Tensor::Mean() const {
  if (data_.empty()) return 0.0;
  return Sum() / static_cast<double>(data_.size());
}

float Tensor::AbsMax() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::abs(v));
  return m;
}

void Tensor::Scale(float s) {
  for (float& v : data_) v *= s;
}

void Tensor::Add(const Tensor& other) {
  assert(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Tensor::Axpy(float s, const Tensor& other) {
  assert(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += s * other.data_[i];
}

std::string Tensor::ToString(int64_t max_values) const {
  std::ostringstream os;
  os << "Tensor(" << rows_ << "x" << cols_ << ")[";
  int64_t n = std::min<int64_t>(max_values, size());
  for (int64_t i = 0; i < n; ++i) {
    if (i > 0) os << ", ";
    os << data_[static_cast<size_t>(i)];
  }
  if (n < size()) os << ", ...";
  os << "]";
  return os.str();
}

void Tensor::Save(BinaryWriter* w) const {
  w->WriteI64(rows_);
  w->WriteI64(cols_);
  w->WriteVector(data_);
}

Result<Tensor> Tensor::Load(BinaryReader* r) {
  auto rows = r->ReadI64();
  if (!rows.ok()) return rows.status();
  auto cols = r->ReadI64();
  if (!cols.ok()) return cols.status();
  auto data = r->ReadVector<float, CacheLineAllocator<float>>();
  if (!data.ok()) return data.status();
  // The dimensions are untrusted bytes: reject negative ones and match the
  // payload length by division, so a huge rows * cols cannot overflow.
  if (*rows < 0 || *cols < 0) {
    return Status::DataLoss("negative tensor dimension");
  }
  const auto n = static_cast<int64_t>(data->size());
  const bool fits = *rows == 0 ? n == 0 : n % *rows == 0 && n / *rows == *cols;
  if (!fits) return Status::DataLoss("tensor payload size mismatch");
  Tensor t;
  t.rows_ = *rows;
  t.cols_ = *cols;
  t.data_ = std::move(*data);
  return t;
}

}  // namespace los::nn
