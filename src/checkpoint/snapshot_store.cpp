#include "checkpoint/snapshot_store.hpp"

namespace legosdn::checkpoint {

namespace {

std::size_t stored_bytes(const std::vector<DirtyChunk>& chunks) {
  std::size_t n = 0;
  for (const auto& c : chunks) n += sizeof(DirtyChunk) + c.data.size();
  return n;
}

} // namespace

SnapshotStore::Put SnapshotStore::put(AppId app, std::uint64_t event_seq,
                                      SimTime taken_at, Bytes state) {
  std::lock_guard lock(mu_);
  auto [it, first] = by_app_.try_emplace(app);
  History& h = it->second;
  Put out{first, state.size()};
  if (!first) {
    // The previous newest becomes the chunks that rebuild it from `state`.
    const Snapshot& prev = h.newest;
    Diff d{prev.event_seq, prev.taken_at, prev.state.size(),
           diff_chunks(state, prev.state)};
    out.stored_bytes = stored_bytes(d.chunks);
    total_bytes_ = total_bytes_ - prev.state.size() + out.stored_bytes;
    h.older.push_back(std::move(d));
  }
  total_bytes_ += state.size();
  stats_.logical_bytes += state.size();
  h.newest = Snapshot{event_seq, taken_at, std::move(state)};
  while (h.older.size() >= keep_) {
    drop(h.older.front());
    h.older.pop_front();
  }
  out.oldest_seq = h.older.empty() ? event_seq : h.older.front().event_seq;
  return out;
}

void SnapshotStore::drop(const Diff& d) {
  total_bytes_ -= stored_bytes(d.chunks);
  stats_.logical_bytes -= d.size;
}

std::optional<Snapshot> SnapshotStore::rebuild(const History& h,
                                               std::size_t back) const {
  Snapshot out = h.newest;
  for (std::size_t i = 1; i <= back; ++i) {
    const Diff& d = h.older[h.older.size() - i];
    if (Status st = apply_chunks(out.state, d.size, d.chunks); !st) {
      stats_.compose_failures += 1;
      return std::nullopt;
    }
    out.event_seq = d.event_seq;
    out.taken_at = d.taken_at;
  }
  return out;
}

std::optional<Snapshot> SnapshotStore::latest(AppId app) const {
  std::lock_guard lock(mu_);
  auto it = by_app_.find(app);
  if (it == by_app_.end()) return std::nullopt;
  return it->second.newest;
}

std::optional<Snapshot> SnapshotStore::at_or_before(AppId app,
                                                    std::uint64_t seq) const {
  std::lock_guard lock(mu_);
  auto it = by_app_.find(app);
  if (it == by_app_.end()) return std::nullopt;
  const History& h = it->second;
  // Seqs ascend from older.front() to the newest; walk back from the newest.
  const std::size_t n = h.older.size();
  std::size_t back = 0;
  if (h.newest.event_seq > seq) {
    back = 1;
    while (back <= n && h.older[n - back].event_seq > seq) ++back;
    if (back > n) return std::nullopt;
  }
  return rebuild(h, back);
}

std::optional<Snapshot> SnapshotStore::oldest(AppId app) const {
  std::lock_guard lock(mu_);
  auto it = by_app_.find(app);
  if (it == by_app_.end()) return std::nullopt;
  return rebuild(it->second, it->second.older.size());
}

std::optional<std::uint64_t> SnapshotStore::latest_seq(AppId app) const {
  std::lock_guard lock(mu_);
  auto it = by_app_.find(app);
  if (it == by_app_.end()) return std::nullopt;
  return it->second.newest.event_seq;
}

std::optional<std::uint64_t> SnapshotStore::oldest_seq(AppId app) const {
  std::lock_guard lock(mu_);
  auto it = by_app_.find(app);
  if (it == by_app_.end()) return std::nullopt;
  const History& h = it->second;
  return h.older.empty() ? h.newest.event_seq : h.older.front().event_seq;
}

std::vector<std::uint64_t> SnapshotStore::seqs(AppId app) const {
  std::lock_guard lock(mu_);
  std::vector<std::uint64_t> out;
  auto it = by_app_.find(app);
  if (it == by_app_.end()) return out;
  for (const auto& d : it->second.older) out.push_back(d.event_seq);
  out.push_back(it->second.newest.event_seq);
  return out;
}

std::size_t SnapshotStore::count(AppId app) const {
  std::lock_guard lock(mu_);
  auto it = by_app_.find(app);
  return it == by_app_.end() ? 0 : it->second.older.size() + 1;
}

std::size_t SnapshotStore::total_bytes() const {
  std::lock_guard lock(mu_);
  return total_bytes_;
}

void SnapshotStore::clear(AppId app) {
  std::lock_guard lock(mu_);
  auto it = by_app_.find(app);
  if (it == by_app_.end()) return;
  for (const auto& d : it->second.older) drop(d);
  total_bytes_ -= it->second.newest.state.size();
  stats_.logical_bytes -= it->second.newest.state.size();
  by_app_.erase(it);
}

SnapshotStore::StoreStats SnapshotStore::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

} // namespace legosdn::checkpoint
