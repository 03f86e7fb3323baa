// Chunk diff codec for serialized app state (§5 "Minimizing checkpointing
// overheads").
//
// A state is split into kChunkSize-byte chunks (the last one may be short).
// diff_chunks returns the chunks of a state whose bytes differ (memcmp, no
// hashing) from a predecessor's at the same offset, so the diff is exact;
// apply_chunks rebuilds the state from the predecessor and those chunks,
// growth and truncation included. There is no compression.
//
// Two users share the one chunk size:
//   - the SnapshotStore keeps each app's newest snapshot whole and every
//     older one as the chunks that rebuild it from the next newer one;
//   - the AppVisor stub ships its post-event state on kEventDone as the
//     chunks that changed since the copy it last shipped.
//
// The codec is pure data-in/data-out.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.hpp"

namespace legosdn::checkpoint {

using Bytes = std::vector<std::uint8_t>;

/// Chunk granularity of every state diff.
inline constexpr std::size_t kChunkSize = 1024;

/// One chunk whose content differs from the predecessor state.
struct DirtyChunk {
  std::uint32_t index = 0; ///< chunk position within the state
  Bytes data;              ///< the chunk's bytes; only the tail chunk is short

  bool operator==(const DirtyChunk&) const = default;
};

/// The chunks of `state` whose bytes differ from `base` at the same offset.
/// A chunk that does not lie wholly inside `base` is dirty, so an empty
/// `base` yields every chunk.
std::vector<DirtyChunk> diff_chunks(std::span<const std::uint8_t> base,
                                    std::span<const std::uint8_t> state);

/// Whether `dirty` can rebuild a state of `size` bytes from a predecessor of
/// `base_size` bytes: chunks ascend by index, each carries exactly the bytes
/// of its chunk of a `size`-byte state, and together they cover every byte
/// in [base_size, size). Touches nothing.
Status check_chunks(std::span<const DirtyChunk> dirty, std::size_t base_size,
                    std::size_t size);

/// Rebuild, in place, a state of `size` bytes from `state` (its predecessor)
/// and the chunks that differ. Runs check_chunks first, so a malformed diff
/// is rejected before `state` is resized or written.
Status apply_chunks(Bytes& state, std::size_t size,
                    std::span<const DirtyChunk> dirty);

} // namespace legosdn::checkpoint
