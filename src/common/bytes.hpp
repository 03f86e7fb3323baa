// Big-endian (network order) byte buffer reader/writer used by the OpenFlow
// codec and the AppVisor RPC protocol.
//
// The writer owns a growable buffer; the reader is a non-owning cursor over a
// span of bytes. All read operations are bounds-checked and report failure via
// an error flag rather than throwing, so a truncated or malicious packet can
// never crash the parser (see the decoder fuzz sweeps in tests/wire_test.cpp).
//
// Cost model: every written field (u8/u16/u32/u64/mac/byte span) costs one
// capacity check and one cursor move, and an integer is one byte-swapped
// store through the be:: helpers below; the buffer grows geometrically, only
// when its slack runs out. An encoder whose layout is fixed and whose size is
// known up front claims the whole run at once (ByteWriter::claim) and fills
// it through a local cursor with the be:: stores, so a table of records costs
// one check in total. Reads likewise cost one bounds check per field.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace legosdn {

/// Unchecked big-endian loads and stores at a raw cursor; the caller owns
/// the bounds. ByteWriter/ByteReader and fixed-layout encoders share them.
namespace be {

template <typename T> constexpr T to_big(T v) noexcept {
  if constexpr (std::endian::native == std::endian::big || sizeof(T) == 1) return v;
  else if constexpr (sizeof(T) == 2) return __builtin_bswap16(v);
  else if constexpr (sizeof(T) == 4) return __builtin_bswap32(v);
  else return __builtin_bswap64(v);
}

inline void store_u16(std::uint8_t* p, std::uint16_t v) noexcept {
  v = to_big(v);
  std::memcpy(p, &v, sizeof v);
}
inline void store_u32(std::uint8_t* p, std::uint32_t v) noexcept {
  v = to_big(v);
  std::memcpy(p, &v, sizeof v);
}
inline void store_u64(std::uint8_t* p, std::uint64_t v) noexcept {
  v = to_big(v);
  std::memcpy(p, &v, sizeof v);
}

inline std::uint16_t load_u16(const std::uint8_t* p) noexcept {
  std::uint16_t v;
  std::memcpy(&v, p, sizeof v);
  return to_big(v);
}
inline std::uint32_t load_u32(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return to_big(v);
}
inline std::uint64_t load_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return to_big(v);
}

} // namespace be

class ByteWriter {
public:
  ByteWriter() = default;
  /// `reserve` is a capacity hint: no byte is written or zero-filled yet.
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { *claim(1) = v; }
  void u16(std::uint16_t v) { be::store_u16(claim(2), v); }
  void u32(std::uint32_t v) { be::store_u32(claim(4), v); }
  void u64(std::uint64_t v) { be::store_u64(claim(8), v); }
  void mac(const MacAddress& m) { std::memcpy(claim(6), m.octets.data(), 6); }

  void bytes(std::span<const std::uint8_t> data) {
    if (data.empty()) return;
    if (buf_.size() - len_ >= data.size()) {
      std::memcpy(claim(data.size()), data.data(), data.size());
      return;
    }
    // Too big for the slack: append straight into the capacity, so a large
    // blob is copied once instead of zero-filled and then copied.
    buf_.resize(len_);
    buf_.insert(buf_.end(), data.begin(), data.end());
    len_ = buf_.size();
  }

  void zeros(std::size_t n) {
    if (n) std::memset(claim(n), 0, n);
  }

  /// Length-prefixed (u32) byte string; used by the RPC layer.
  void blob(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    bytes(data);
  }

  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

  /// Overwrite a previously written u16 at `offset` (for length fields that
  /// are only known once the body is serialized).
  void patch_u16(std::size_t offset, std::uint16_t v) {
    be::store_u16(buf_.data() + offset, v);
  }

  /// Append `n` bytes and return where they start, for a fixed layout the
  /// caller fills through a local cursor with the be:: stores: one capacity
  /// check for the whole run. The bytes read as zero until written, and the
  /// pointer is valid until the next write to this writer.
  std::uint8_t* claim(std::size_t n) {
    if (buf_.size() - len_ < n) [[unlikely]] grow(n);
    std::uint8_t* p = buf_.data() + len_;
    len_ += n;
    return p;
  }

  std::size_t size() const noexcept { return len_; }
  std::span<const std::uint8_t> span() const noexcept { return {buf_.data(), len_}; }
  /// Same bytes as span().
  std::span<const std::uint8_t> data() const noexcept { return span(); }
  /// Exactly the size() bytes written.
  std::vector<std::uint8_t> take() && {
    buf_.resize(len_);
    len_ = 0;
    return std::move(buf_);
  }

private:
  /// Zero-filled slack past len_ for at least `n` more bytes: twice the
  /// written size, so a run of small fields grows amortized O(1), but no
  /// more than the capacity already reserved when that suffices.
  void grow(std::size_t n) {
    std::size_t size = std::max(len_ + n, 2 * len_ + 64);
    if (len_ + n <= buf_.capacity()) size = std::min(size, buf_.capacity());
    buf_.resize(size);
  }

  std::vector<std::uint8_t> buf_; ///< [0, len_) written, the rest zero slack
  std::size_t len_ = 0;
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
    const std::uint16_t v = be::load_u16(data_.data() + pos_);
    pos_ += 2;
    return v;
  }

  std::uint32_t u32() noexcept {
    if (!require(4)) return 0;
    const std::uint32_t v = be::load_u32(data_.data() + pos_);
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() noexcept {
    if (!require(8)) return 0;
    const std::uint64_t v = be::load_u64(data_.data() + pos_);
    pos_ += 8;
    return v;
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
