// Exact loop detection for packet walks, and the per-thread scratch that
// lets a walk run without allocating.
//
// Both walks over the network, the dataplane's Network::forward and the
// invariant checker's symbolic trace, call a copy looping when the same
// header enters the same switch port twice. HopSet remembers the
// (switch, ingress port, header) triples one walk has seen. Keys are
// compared field by field, so two distinct headers are never the same hop;
// the hash only picks a bucket.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "openflow/packet.hpp"

namespace legosdn::netsim {

/// (switch, ingress port, full header), packed without loss into five words.
struct HopKey {
  std::uint64_t dpid = 0;
  std::uint64_t port_eth_src = 0; ///< in_port << 48 | eth_src
  std::uint64_t type_eth_dst = 0; ///< eth_type << 48 | eth_dst
  std::uint64_t ips = 0;          ///< ip_src << 32 | ip_dst
  std::uint64_t l4 = 0;           ///< ip_proto << 32 | tp_src << 16 | tp_dst

  HopKey() = default;
  HopKey(DatapathId d, PortNo in_port, const of::PacketHeader& h) noexcept
      : dpid(raw(d)),
        port_eth_src(std::uint64_t{raw(in_port)} << 48 | h.eth_src.to_uint64()),
        type_eth_dst(std::uint64_t{h.eth_type} << 48 | h.eth_dst.to_uint64()),
        ips(std::uint64_t{h.ip_src.addr} << 32 | h.ip_dst.addr),
        l4(std::uint64_t{h.ip_proto} << 32 | std::uint64_t{h.tp_src} << 16 | h.tp_dst) {}

  bool operator==(const HopKey&) const = default;
};

/// Open-addressing set of the hops one walk has visited. clear() is O(1):
/// a slot is live only while it carries the current epoch, so the slots are
/// reused from walk to walk and only grow.
class HopSet {
public:
  /// Forget every key before the next walk.
  void clear() noexcept {
    size_ = 0;
    if (++epoch_ == 0) { // wrapped: old slots could pass for live ones
      for (Slot& s : slots_) s.epoch = 0;
      epoch_ = 1;
    }
  }

  /// Add `k`; false if this walk already holds it.
  bool insert(const HopKey& k) {
    if ((size_ + 1) * 2 > slots_.size()) grow();
    return place(k);
  }

private:
  struct Slot {
    HopKey key;
    std::uint32_t epoch = 0; ///< live iff equal to epoch_
  };

  static std::size_t bucket_hash(const HopKey& k) noexcept {
    std::uint64_t h = k.dpid * 0x9E3779B97F4A7C15ULL;
    h = (h ^ k.port_eth_src) * 0xBF58476D1CE4E5B9ULL;
    h = (h ^ k.type_eth_dst) * 0x94D049BB133111EBULL;
    h = (h ^ k.ips) * 0x9E3779B97F4A7C15ULL;
    h = (h ^ k.l4) * 0xBF58476D1CE4E5B9ULL;
    return static_cast<std::size_t>(h ^ (h >> 29));
  }

  bool place(const HopKey& k) noexcept {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = bucket_hash(k) & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.epoch != epoch_) {
        s.key = k;
        s.epoch = epoch_;
        ++size_;
        return true;
      }
      if (s.key == k) return false;
    }
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 64 : old.size() * 2, Slot{});
    size_ = 0;
    for (const Slot& s : old)
      if (s.epoch == epoch_) place(s.key);
  }

  std::vector<Slot> slots_; ///< power-of-two size, at most half full
  std::size_t size_ = 0;
  std::uint32_t epoch_ = 1;
};

/// Borrows this thread's scratch `T` for one walk. A walk that starts while
/// another runs on the same thread (a northbound callback that forwards
/// again) borrows a second instance, so no walk sees another's state. The
/// instances live as long as the thread, so a warm walk allocates nothing.
template <class T>
class Scratch {
public:
  Scratch() {
    Pool& p = pool();
    if (p.depth == p.items.size()) p.items.push_back(std::make_unique<T>());
    item_ = p.items[p.depth++].get();
  }
  ~Scratch() { --pool().depth; }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  T* operator->() const noexcept { return item_; }

private:
  struct Pool {
    std::vector<std::unique_ptr<T>> items;
    std::size_t depth = 0; ///< instances borrowed right now
  };
  static Pool& pool() {
    thread_local Pool p;
    return p;
  }

  T* item_ = nullptr;
};

} // namespace legosdn::netsim
