#include "checkpoint/delta_codec.hpp"

#include <algorithm>
#include <cstring>

namespace legosdn::checkpoint {

std::vector<DirtyChunk> diff_chunks(std::span<const std::uint8_t> base,
                                    std::span<const std::uint8_t> state) {
  std::vector<DirtyChunk> out;
  for (std::size_t off = 0; off < state.size(); off += kChunkSize) {
    const std::size_t n = std::min(kChunkSize, state.size() - off);
    if (off + n <= base.size() &&
        std::memcmp(base.data() + off, state.data() + off, n) == 0)
      continue;
    DirtyChunk dc;
    dc.index = static_cast<std::uint32_t>(off / kChunkSize);
    dc.data.assign(state.begin() + static_cast<std::ptrdiff_t>(off),
                   state.begin() + static_cast<std::ptrdiff_t>(off + n));
    out.push_back(std::move(dc));
  }
  return out;
}

Status check_chunks(std::span<const DirtyChunk> dirty, std::size_t base_size,
                    std::size_t size) {
  const std::size_t chunks = (size + kChunkSize - 1) / kChunkSize;
  std::size_t covered = base_size; // every byte below this is accounted for
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    const DirtyChunk& dc = dirty[i];
    if (i > 0 && dc.index <= dirty[i - 1].index)
      return Error{Error::Code::kParse, "delta chunks out of order"};
    if (dc.index >= chunks)
      return Error{Error::Code::kParse, "delta chunk past state end"};
    const std::size_t off = std::size_t{dc.index} * kChunkSize;
    const std::size_t n = std::min(kChunkSize, size - off);
    if (dc.data.size() != n)
      return Error{Error::Code::kParse, "delta chunk size mismatch"};
    if (off <= covered) covered = std::max(covered, off + n);
  }
  if (covered < size)
    return Error{Error::Code::kParse, "delta leaves bytes past its base uncovered"};
  return Status::success();
}

Status apply_chunks(Bytes& state, std::size_t size,
                    std::span<const DirtyChunk> dirty) {
  if (Status st = check_chunks(dirty, state.size(), size); !st) return st;
  state.resize(size, 0);
  for (const auto& dc : dirty)
    std::memcpy(state.data() + std::size_t{dc.index} * kChunkSize,
                dc.data.data(), dc.data.size());
  return Status::success();
}

} // namespace legosdn::checkpoint
