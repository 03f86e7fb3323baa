// Incremental snapshot codec (§5 "Minimizing checkpointing overheads").
//
// Full-copy snapshots put a state-size-proportional cost on the event hot
// path. The codec splits a serialized app state into fixed-size chunks,
// hashes each chunk, and encodes a snapshot either as:
//
//   - full:  the whole state (the base of a delta chain), or
//   - delta: only the chunks whose hash differs from the *previous* snapshot
//            in the chain, plus the new chunk map.
//
// Deltas chain: each delta is diffed against the snapshot immediately before
// it, and a periodic full base (CodecConfig::full_every) bounds how many
// deltas a restore must compose. Payloads can optionally be run-length
// compressed (packbits-style); a compressed form is kept only when it is
// actually smaller, so incompressible state never pays an expansion penalty.
//
// The codec is pure data-in/data-out — where it runs (inline on the event
// path, or on the CheckpointWorker's background thread) is the pipeline's
// decision, not the codec's.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/clock.hpp"
#include "common/result.hpp"

namespace legosdn::checkpoint {

using Bytes = std::vector<std::uint8_t>;

struct CodecConfig {
  /// Chunk granularity for hashing/diffing. Smaller chunks find smaller
  /// dirty regions but cost more hash/map overhead per snapshot.
  std::size_t chunk_size = 4096;

  /// Every Nth snapshot in a chain is a full base (1 = every snapshot is
  /// full, i.e. delta encoding disabled). Bounds restore composition cost.
  std::uint64_t full_every = 8;

  /// Run-length compress payloads (kept only when smaller than raw).
  bool compress = false;
};

/// 64-bit hash of a byte span, 8 bytes per step: each little-endian word is
/// multiplied and xored into the running hash, which is multiplied and
/// xor-shifted; the tail bytes go in one at a time, then a final avalanche.
/// Every step is a bijection of the running hash, so two inputs of one
/// length that differ in a single word never collide, and the xor-shift
/// keeps two flips of the same top bit from cancelling, as they do in FNV
/// over words. Stable across platforms; a colliding chunk only degrades one
/// snapshot, never the store's chain invariants.
std::uint64_t chunk_hash(std::span<const std::uint8_t> bytes) noexcept;

/// Chunk map of `state`: one hash per chunk_size-sized chunk (last partial).
std::vector<std::uint64_t> chunk_hashes(std::span<const std::uint8_t> state,
                                        std::size_t chunk_size);

/// Packbits-style RLE: runs of >= 3 identical bytes become (marker, len,
/// byte); literals are length-prefixed. Worst case ~+1 byte per 127 input
/// bytes — callers keep the raw form when compression does not win.
Bytes rle_compress(std::span<const std::uint8_t> in);

/// Inverse of rle_compress. Fails (kParse) on malformed input or when the
/// output does not match `expected_size`.
Result<Bytes> rle_decompress(std::span<const std::uint8_t> in,
                             std::size_t expected_size);

/// One chunk whose content changed relative to the predecessor snapshot.
struct DirtyChunk {
  std::uint32_t index = 0;   ///< chunk position within the state
  std::uint32_t raw_size = 0; ///< uncompressed chunk payload size
  bool compressed = false;
  Bytes data;

  bool operator==(const DirtyChunk&) const = default;
};

/// A snapshot in store form: either a self-contained full state or a delta
/// against the snapshot taken immediately before it.
struct EncodedSnapshot {
  std::uint64_t event_seq = 0; ///< snapshot was taken *before* this event
  SimTime taken_at{};
  bool is_full = true;
  bool compressed = false;    ///< full payload is RLE-compressed
  std::size_t state_size = 0; ///< uncompressed serialized state size
  std::vector<std::uint64_t> hashes; ///< chunk map of the encoded state
  Bytes full;                    ///< is_full: the (maybe compressed) state
  std::vector<DirtyChunk> dirty; ///< !is_full: changed chunks only

  /// Bytes this snapshot occupies in the store (payloads + chunk map).
  std::size_t stored_bytes() const noexcept;
};

/// Encode `state` as a self-contained full snapshot.
EncodedSnapshot encode_full(std::uint64_t event_seq, SimTime taken_at,
                            Bytes state, const CodecConfig& cfg);

/// Encode `state` as a delta against the predecessor snapshot described by
/// (base_hashes, base_size). Chunks past the base's end, and chunks whose
/// hash differs, are emitted; everything else is carried implicitly.
EncodedSnapshot encode_delta(std::uint64_t event_seq, SimTime taken_at,
                             Bytes state,
                             const std::vector<std::uint64_t>& base_hashes,
                             std::size_t base_size, const CodecConfig& cfg);

/// Decode a full snapshot back to raw state bytes.
Result<Bytes> decode_full(const EncodedSnapshot& snap);

/// Apply a delta snapshot on top of `state` (the materialized predecessor),
/// in place, through apply_chunks: both growth and truncation round-trip.
Status apply_delta(Bytes& state, const EncodedSnapshot& delta,
                   std::size_t chunk_size);

/// The chunks of `state` whose bytes differ from `base` at the same offset
/// (memcmp, no hashing), uncompressed. A chunk that does not lie wholly
/// inside `base` is dirty, so an empty `base` yields every chunk.
std::vector<DirtyChunk> diff_chunks(std::span<const std::uint8_t> base,
                                    std::span<const std::uint8_t> state,
                                    std::size_t chunk_size);

/// Whether `dirty` can rebuild a state of `size` bytes from a predecessor of
/// `base_size` bytes: chunks ascend by index, each lies inside `size` (an
/// uncompressed one carries exactly raw_size bytes), and together they cover
/// every byte in [base_size, size). Touches nothing.
Status check_chunks(std::span<const DirtyChunk> dirty, std::size_t base_size,
                    std::size_t size, std::size_t chunk_size);

/// Rebuild, in place, a state of `size` bytes from `state` (its predecessor)
/// and the chunks that changed. Runs check_chunks first, so a malformed delta
/// is rejected before `state` is resized or written.
Status apply_chunks(Bytes& state, std::size_t size,
                    std::span<const DirtyChunk> dirty, std::size_t chunk_size);

} // namespace legosdn::checkpoint
