#ifndef MRX_STORAGE_BINARY_IO_H_
#define MRX_STORAGE_BINARY_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/result.h"
#include "util/status.h"

namespace mrx::storage {

/// \brief Append-only binary encoder: LEB128 varints, zigzag for signed,
/// length-prefixed strings. Accumulates into an owned buffer so callers
/// can compute offsets and checksums before committing bytes to a file.
class BinaryWriter {
 public:
  void PutVarint(uint64_t value) {
    while (value >= 0x80) {
      buffer_.push_back(static_cast<char>((value & 0x7F) | 0x80));
      value >>= 7;
    }
    buffer_.push_back(static_cast<char>(value));
  }

  void PutSignedVarint(int64_t value) {
    PutVarint((static_cast<uint64_t>(value) << 1) ^
              static_cast<uint64_t>(value >> 63));
  }

  void PutString(std::string_view s) {
    PutVarint(s.size());
    buffer_.append(s);
  }

  void PutFixed32(uint32_t value) {
    for (int i = 0; i < 4; ++i) {
      buffer_.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
    }
  }

  void PutFixed64(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      buffer_.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
    }
  }

  void PutRaw(std::string_view bytes) { buffer_.append(bytes); }

  const std::string& buffer() const { return buffer_; }
  std::string TakeBuffer() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

/// \brief Bounds-checked binary decoder over a byte range; every getter
/// reports truncation/corruption through Status instead of crashing.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  Result<uint64_t> GetVarint() {
    uint64_t value = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= data_.size()) {
        return Status::ParseError("binary data truncated (varint)");
      }
      uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
      if (shift >= 63 && byte > 1) {
        return Status::ParseError("varint overflow");
      }
      value |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return value;
      shift += 7;
    }
  }

  Result<int64_t> GetSignedVarint() {
    MRX_ASSIGN_OR_RETURN(uint64_t raw, GetVarint());
    return static_cast<int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
  }

  Result<std::string> GetString() {
    MRX_ASSIGN_OR_RETURN(uint64_t size, GetVarint());
    if (size > Remaining()) {
      return Status::ParseError("binary data truncated (string)");
    }
    std::string out(data_.substr(pos_, size));
    pos_ += size;
    return out;
  }

  Result<uint32_t> GetFixed32() {
    if (Remaining() < 4) {
      return Status::ParseError("binary data truncated (fixed32)");
    }
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_++]))
               << (8 * i);
    }
    return value;
  }

  Result<uint64_t> GetFixed64() {
    if (Remaining() < 8) {
      return Status::ParseError("binary data truncated (fixed64)");
    }
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_++]))
               << (8 * i);
    }
    return value;
  }

  size_t Remaining() const { return data_.size() - pos_; }
  size_t pos() const { return pos_; }
  bool AtEnd() const { return pos_ >= data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// 64-bit FNV-1a checksum of a byte range (stored with every blob so
/// corrupted files fail loudly at load time). Standard offset basis and
/// prime, so any FNV-1a tool reproduces it.
inline uint64_t Checksum(std::string_view bytes) {
  uint64_t h = 14695981039346656037ULL;
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace mrx::storage

#endif  // MRX_STORAGE_BINARY_IO_H_
