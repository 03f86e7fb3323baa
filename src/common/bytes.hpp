// Big-endian (network order) byte buffer reader/writer used by the OpenFlow
// codec and the AppVisor RPC protocol.
//
// The writer owns a growable buffer; the reader is a non-owning cursor over a
// span of bytes. All read operations are bounds-checked and report failure via
// an error flag rather than throwing, so a truncated or malicious packet can
// never crash the parser (see the decoder fuzz sweeps in tests/wire_test.cpp).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace legosdn {

class ByteWriter {
public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }

  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }

  void mac(const MacAddress& m) {
    buf_.insert(buf_.end(), m.octets.begin(), m.octets.end());
  }

  void bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  void zeros(std::size_t n) { buf_.insert(buf_.end(), n, 0); }

  /// Length-prefixed (u32) byte string; used by the RPC layer.
  void blob(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    bytes(data);
  }

  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Overwrite a previously written u16 at `offset` (for length fields that
  /// are only known once the body is serialized).
  void patch_u16(std::size_t offset, std::uint16_t v) {
    buf_[offset] = static_cast<std::uint8_t>(v >> 8);
    buf_[offset + 1] = static_cast<std::uint8_t>(v);
  }

  std::size_t size() const noexcept { return buf_.size(); }
  std::span<const std::uint8_t> span() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() && { return std::move(buf_); }
  const std::vector<std::uint8_t>& data() const noexcept { return buf_; }

private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept : data_(data) {}

  std::uint8_t u8() noexcept {
    if (!require(1)) return 0;
    return data_[pos_++];
  }

  std::uint16_t u16() noexcept {
    if (!require(2)) return 0;
    std::uint16_t v = static_cast<std::uint16_t>(
        (std::uint16_t{data_[pos_]} << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }

  std::uint32_t u32() noexcept {
    std::uint32_t hi = u16();
    std::uint32_t lo = u16();
    return error_ ? 0 : (hi << 16) | lo;
  }

  std::uint64_t u64() noexcept {
    std::uint64_t hi = u32();
    std::uint64_t lo = u32();
    return error_ ? 0 : (hi << 32) | lo;
  }

  MacAddress mac() noexcept {
    MacAddress m;
    if (!require(6)) return m;
    std::memcpy(m.octets.data(), data_.data() + pos_, 6);
    pos_ += 6;
    return m;
  }

  std::vector<std::uint8_t> bytes(std::size_t n) {
    if (!require(n)) return {};
    std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                  data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  std::vector<std::uint8_t> blob() {
    std::uint32_t n = u32();
    if (error_ || n > remaining()) {
      error_ = true;
      return {};
    }
    return bytes(n);
  }

  std::string str() {
    auto b = blob();
    return {b.begin(), b.end()};
  }

  void skip(std::size_t n) noexcept {
    if (require(n)) pos_ += n;
  }

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  std::size_t position() const noexcept { return pos_; }
  bool ok() const noexcept { return !error_; }
  bool error() const noexcept { return error_; }

private:
  bool require(std::size_t n) noexcept {
    if (error_ || data_.size() - pos_ < n) {
      error_ = true;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool error_ = false;
};

} // namespace legosdn
