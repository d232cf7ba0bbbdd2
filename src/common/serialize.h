#ifndef LOS_COMMON_SERIALIZE_H_
#define LOS_COMMON_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace los {

/// \brief Append-only binary buffer for model/structure persistence.
///
/// Every persistent structure in the library implements
/// `Save(BinaryWriter*)` / `Load(BinaryReader*)`. The byte count of the
/// serialized form is also what the memory-consumption benches report, which
/// mirrors the paper's "pickle the weights and measure the file" methodology.
class BinaryWriter {
 public:
  void WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteF32(float v) { WriteRaw(&v, sizeof(v)); }
  void WriteF64(double v) { WriteRaw(&v, sizeof(v)); }

  void WriteString(const std::string& s) {
    WriteU64(s.size());
    WriteRaw(s.data(), s.size());
  }

  template <typename T, typename Alloc>
  void WriteVector(const std::vector<T, Alloc>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteU64(v.size());
    WriteRaw(v.data(), v.size() * sizeof(T));
  }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  size_t size() const { return bytes_.size(); }

  /// Writes the accumulated buffer to a file, atomically: bytes go to
  /// `path + ".tmp"` first and are renamed over `path` only after a clean
  /// flush+close. A crash or full disk mid-write leaves any existing file at
  /// `path` untouched; the stale `.tmp` is removed on failure when possible.
  Status WriteToFile(const std::string& path) const;

 private:
  void WriteRaw(const void* data, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
  }

  std::vector<uint8_t> bytes_;
};

/// \brief Sequential reader over a byte buffer produced by BinaryWriter.
class BinaryReader {
 public:
  explicit BinaryReader(std::vector<uint8_t> bytes)
      : bytes_(std::move(bytes)) {}

  static Result<BinaryReader> FromFile(const std::string& path);

  Result<uint32_t> ReadU32() { return ReadPod<uint32_t>(); }
  Result<uint64_t> ReadU64() { return ReadPod<uint64_t>(); }
  Result<int64_t> ReadI64() { return ReadPod<int64_t>(); }
  Result<float> ReadF32() { return ReadPod<float>(); }
  Result<double> ReadF64() { return ReadPod<double>(); }

  Result<std::string> ReadString();

  /// `Alloc` picks the returned vector's allocator (the bytes read are the
  /// same for every allocator).
  template <typename T, typename Alloc = std::allocator<T>>
  Result<std::vector<T, Alloc>> ReadVector() {
    static_assert(std::is_trivially_copyable_v<T>);
    auto n = ReadU64();
    if (!n.ok()) return n.status();
    // Divide, don't multiply: *n * sizeof(T) can overflow size_t.
    if (*n > (bytes_.size() - pos_) / sizeof(T)) {
      return Status::OutOfRange("truncated vector in binary buffer");
    }
    size_t bytes_needed = static_cast<size_t>(*n) * sizeof(T);
    std::vector<T, Alloc> out(static_cast<size_t>(*n));
    // An empty vector's data() may be null, which memcpy must not get.
    if (bytes_needed > 0) {
      std::memcpy(out.data(), bytes_.data() + pos_, bytes_needed);
    }
    pos_ += bytes_needed;
    return out;
  }

  bool AtEnd() const { return pos_ == bytes_.size(); }

  /// Bytes left to read — loaders validate length fields against this
  /// before allocating (corrupted counts must fail cleanly, not OOM).
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  template <typename T>
  Result<T> ReadPod() {
    if (pos_ + sizeof(T) > bytes_.size()) {
      return Status::OutOfRange("truncated value in binary buffer");
    }
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::vector<uint8_t> bytes_;
  size_t pos_ = 0;
};

}  // namespace los

#endif  // LOS_COMMON_SERIALIZE_H_
