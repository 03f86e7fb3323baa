#include "checkpoint/delta_codec.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace legosdn::checkpoint {

namespace {

std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t w = 0;
  std::memcpy(&w, p, sizeof w);
  if constexpr (std::endian::native == std::endian::big) w = __builtin_bswap64(w);
  return w;
}

} // namespace

std::uint64_t chunk_hash(std::span<const std::uint8_t> bytes) noexcept {
  // Odd multipliers, so each multiply is a bijection.
  constexpr std::uint64_t kWordMul = 0x9E3779B97F4A7C15ull;
  constexpr std::uint64_t kStateMul = 0xbf58476d1ce4e5b9ull;
  std::uint64_t h = 0xcbf29ce484222325ull ^ (bytes.size() * kWordMul);
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; n -= 8, p += 8) {
    // A multiply carries a difference only upwards, so a flip of bit 63
    // passes it unchanged; in FNV over words two such flips cancel. The
    // xor-shift brings the high half down for the next multiply to mix, and
    // multiplying the word first keeps the trace a top-bit flip leaves in
    // `h` from being undone by a fixed flip of the next word.
    h = (h ^ (load_le64(p) * kWordMul)) * kStateMul;
    h ^= h >> 29;
  }
  for (; n > 0; --n, ++p) h = (h ^ *p) * 0x100000001b3ull;
  // murmur3's fmix64: every input bit reaches every output bit.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

std::vector<std::uint64_t> chunk_hashes(std::span<const std::uint8_t> state,
                                        std::size_t chunk_size) {
  std::vector<std::uint64_t> out;
  if (chunk_size == 0) chunk_size = 1;
  out.reserve((state.size() + chunk_size - 1) / chunk_size);
  for (std::size_t off = 0; off < state.size(); off += chunk_size) {
    const std::size_t n = std::min(chunk_size, state.size() - off);
    out.push_back(chunk_hash(state.subspan(off, n)));
  }
  return out;
}

namespace {

// RLE token byte: 0x00..0x7F = literal run of (t+1) bytes following;
// 0x80..0xFF = the next byte repeated (t - 0x80 + 3) times.
constexpr std::size_t kMaxLiteral = 128;
constexpr std::size_t kMinRun = 3;
constexpr std::size_t kMaxRun = 130;

} // namespace

Bytes rle_compress(std::span<const std::uint8_t> in) {
  Bytes out;
  out.reserve(in.size() / 2 + 8);
  std::size_t lit_start = 0; // start of the pending literal run
  std::size_t i = 0;

  auto flush_literals = [&](std::size_t end) {
    while (lit_start < end) {
      const std::size_t n = std::min(kMaxLiteral, end - lit_start);
      out.push_back(static_cast<std::uint8_t>(n - 1));
      out.insert(out.end(), in.begin() + static_cast<std::ptrdiff_t>(lit_start),
                 in.begin() + static_cast<std::ptrdiff_t>(lit_start + n));
      lit_start += n;
    }
  };

  while (i < in.size()) {
    std::size_t run = 1;
    while (i + run < in.size() && in[i + run] == in[i] && run < kMaxRun) ++run;
    if (run >= kMinRun) {
      flush_literals(i);
      out.push_back(static_cast<std::uint8_t>(0x80 + (run - kMinRun)));
      out.push_back(in[i]);
      i += run;
      lit_start = i;
    } else {
      i += run;
    }
  }
  flush_literals(in.size());
  return out;
}

Result<Bytes> rle_decompress(std::span<const std::uint8_t> in,
                             std::size_t expected_size) {
  Bytes out;
  out.reserve(expected_size);
  std::size_t i = 0;
  while (i < in.size()) {
    const std::uint8_t t = in[i++];
    if (t < 0x80) {
      const std::size_t n = std::size_t{t} + 1;
      if (i + n > in.size())
        return Error{Error::Code::kTruncated, "rle literal run past input end"};
      out.insert(out.end(), in.begin() + static_cast<std::ptrdiff_t>(i),
                 in.begin() + static_cast<std::ptrdiff_t>(i + n));
      i += n;
    } else {
      if (i >= in.size())
        return Error{Error::Code::kTruncated, "rle run missing repeat byte"};
      out.insert(out.end(), std::size_t{t} - 0x80 + kMinRun, in[i++]);
    }
    if (out.size() > expected_size)
      return Error{Error::Code::kParse, "rle output exceeds expected size"};
  }
  if (out.size() != expected_size)
    return Error{Error::Code::kParse, "rle output shorter than expected size"};
  return out;
}

std::size_t EncodedSnapshot::stored_bytes() const noexcept {
  std::size_t n = full.size() + hashes.size() * sizeof(std::uint64_t);
  for (const auto& c : dirty) n += c.data.size() + sizeof(DirtyChunk);
  return n;
}

EncodedSnapshot encode_full(std::uint64_t event_seq, SimTime taken_at,
                            Bytes state, const CodecConfig& cfg) {
  EncodedSnapshot snap;
  snap.event_seq = event_seq;
  snap.taken_at = taken_at;
  snap.is_full = true;
  snap.state_size = state.size();
  snap.hashes = chunk_hashes(state, cfg.chunk_size);
  if (cfg.compress) {
    Bytes packed = rle_compress(state);
    if (packed.size() < state.size()) {
      snap.compressed = true;
      snap.full = std::move(packed);
      return snap;
    }
  }
  snap.full = std::move(state);
  return snap;
}

EncodedSnapshot encode_delta(std::uint64_t event_seq, SimTime taken_at,
                             Bytes state,
                             const std::vector<std::uint64_t>& base_hashes,
                             std::size_t base_size, const CodecConfig& cfg) {
  EncodedSnapshot snap;
  snap.event_seq = event_seq;
  snap.taken_at = taken_at;
  snap.is_full = false;
  snap.state_size = state.size();
  snap.hashes = chunk_hashes(state, cfg.chunk_size);

  const std::size_t chunk = cfg.chunk_size == 0 ? 1 : cfg.chunk_size;
  for (std::size_t idx = 0; idx < snap.hashes.size(); ++idx) {
    const std::size_t off = idx * chunk;
    const std::size_t n = std::min(chunk, state.size() - off);
    // A base chunk is reusable only when it covered the same byte range:
    // the base's tail chunk may be shorter (or longer) than ours, and a
    // hash over a different length must not be trusted even if it matches.
    const std::size_t base_n =
        off < base_size ? std::min(chunk, base_size - off) : 0;
    const bool clean = idx < base_hashes.size() && n == base_n &&
                       base_hashes[idx] == snap.hashes[idx];
    if (clean) continue;
    DirtyChunk dc;
    dc.index = static_cast<std::uint32_t>(idx);
    dc.raw_size = static_cast<std::uint32_t>(n);
    std::span<const std::uint8_t> payload(state.data() + off, n);
    if (cfg.compress) {
      Bytes packed = rle_compress(payload);
      if (packed.size() < n) {
        dc.compressed = true;
        dc.data = std::move(packed);
        snap.dirty.push_back(std::move(dc));
        continue;
      }
    }
    dc.data.assign(payload.begin(), payload.end());
    snap.dirty.push_back(std::move(dc));
  }
  return snap;
}

Result<Bytes> decode_full(const EncodedSnapshot& snap) {
  if (!snap.is_full)
    return Error{Error::Code::kConflict, "decode_full on a delta snapshot"};
  if (!snap.compressed) return snap.full;
  return rle_decompress(snap.full, snap.state_size);
}

Status apply_delta(Bytes& state, const EncodedSnapshot& delta,
                   std::size_t chunk_size) {
  if (delta.is_full)
    return Error{Error::Code::kConflict, "apply_delta on a full snapshot"};
  return apply_chunks(state, delta.state_size, delta.dirty, chunk_size);
}

std::vector<DirtyChunk> diff_chunks(std::span<const std::uint8_t> base,
                                    std::span<const std::uint8_t> state,
                                    std::size_t chunk_size) {
  const std::size_t chunk = chunk_size == 0 ? 1 : chunk_size;
  std::vector<DirtyChunk> out;
  for (std::size_t off = 0; off < state.size(); off += chunk) {
    const std::size_t n = std::min(chunk, state.size() - off);
    if (off + n <= base.size() &&
        std::memcmp(base.data() + off, state.data() + off, n) == 0)
      continue;
    DirtyChunk dc;
    dc.index = static_cast<std::uint32_t>(off / chunk);
    dc.raw_size = static_cast<std::uint32_t>(n);
    dc.data.assign(state.begin() + static_cast<std::ptrdiff_t>(off),
                   state.begin() + static_cast<std::ptrdiff_t>(off + n));
    out.push_back(std::move(dc));
  }
  return out;
}

Status check_chunks(std::span<const DirtyChunk> dirty, std::size_t base_size,
                    std::size_t size, std::size_t chunk_size) {
  const std::size_t chunk = chunk_size == 0 ? 1 : chunk_size;
  std::size_t covered = base_size; // every byte below this is accounted for
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    const DirtyChunk& dc = dirty[i];
    if (i > 0 && dc.index <= dirty[i - 1].index)
      return Error{Error::Code::kParse, "delta chunks out of order"};
    // index < size / chunk + 1 keeps index * chunk from overflowing.
    if (dc.index > size / chunk)
      return Error{Error::Code::kParse, "delta chunk past state end"};
    const std::size_t off = std::size_t{dc.index} * chunk;
    if (dc.raw_size > size - off)
      return Error{Error::Code::kParse, "delta chunk past state end"};
    if (!dc.compressed && dc.data.size() != dc.raw_size)
      return Error{Error::Code::kParse, "delta chunk size mismatch"};
    if (off <= covered) covered = std::max(covered, off + dc.raw_size);
  }
  if (covered < size)
    return Error{Error::Code::kParse, "delta leaves bytes past its base uncovered"};
  return Status::success();
}

Status apply_chunks(Bytes& state, std::size_t size,
                    std::span<const DirtyChunk> dirty, std::size_t chunk_size) {
  if (Status st = check_chunks(dirty, state.size(), size, chunk_size); !st)
    return st;
  const std::size_t chunk = chunk_size == 0 ? 1 : chunk_size;
  state.resize(size, 0);
  for (const auto& dc : dirty) {
    if (dc.raw_size == 0) continue;
    std::uint8_t* dst = state.data() + std::size_t{dc.index} * chunk;
    if (dc.compressed) {
      auto raw = rle_decompress(dc.data, dc.raw_size);
      if (!raw) return raw.error();
      std::memcpy(dst, raw.value().data(), dc.raw_size);
    } else {
      std::memcpy(dst, dc.data.data(), dc.raw_size);
    }
  }
  return Status::success();
}

} // namespace legosdn::checkpoint
