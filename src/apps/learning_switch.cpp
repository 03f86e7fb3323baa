#include "apps/learning_switch.hpp"

#include <algorithm>

#include "common/bytes.hpp"

namespace legosdn::apps {

ctl::Disposition LearningSwitch::handle_event(const ctl::Event& e,
                                              ctl::ServiceApi& api) {
  if (const auto* down = std::get_if<ctl::SwitchDown>(&e)) {
    // Forget everything learned at the dead switch.
    std::erase_if(table_,
                  [&](const Entry& entry) { return entry.key.dpid == down->dpid; });
    return ctl::Disposition::kContinue;
  }
  if (const auto* ps = std::get_if<of::PortStatus>(&e)) {
    if (!ps->desc.link_up) {
      // Hosts/peers behind a dead port must be relearned.
      std::erase_if(table_, [&](const Entry& entry) {
        return entry.key.dpid == ps->dpid && entry.port == ps->desc.port;
      });
    }
    return ctl::Disposition::kContinue;
  }
  const auto* pin = std::get_if<of::PacketIn>(&e);
  if (!pin) return ctl::Disposition::kContinue;

  const of::PacketHeader& hdr = pin->packet.hdr;
  // Learn the source unless it is a broadcast/multicast source (bogus).
  if (!hdr.eth_src.is_multicast()) {
    learn({pin->dpid, hdr.eth_src.to_uint64()}, pin->in_port);
  }

  const PortNo* out = lookup(pin->dpid, hdr.eth_dst);
  if (out && *out == pin->in_port) {
    // The destination lies back out the very port this packet arrived on:
    // this copy is a flood echo from a neighbor that did not know the
    // destination. Sending it back out the ingress port would re-circulate
    // the copy and teach every switch it revisits a wrong location for
    // eth_src (the seed of post-churn forwarding loops) — drop it instead;
    // the original flood is still making its own way to the destination.
    return ctl::Disposition::kStop;
  }
  if (out && !hdr.eth_dst.is_multicast()) {
    // Install an exact-match rule for this flow (as FloodLight's
    // LearningSwitch does in OF 1.0), then release the buffered packet.
    of::FlowMod mod;
    mod.dpid = pin->dpid;
    mod.match = of::Match::exact(pin->in_port, hdr);
    mod.priority = priority_;
    mod.idle_timeout = idle_timeout_;
    mod.actions = of::output_to(*out);
    api.send({api.next_xid(), mod});

    of::PacketOut po;
    po.dpid = pin->dpid;
    po.buffer_id = pin->buffer_id;
    po.in_port = pin->in_port;
    po.actions = of::output_to(*out);
    po.packet = pin->packet;
    api.send({api.next_xid(), po});
  } else {
    of::PacketOut po;
    po.dpid = pin->dpid;
    po.buffer_id = pin->buffer_id;
    po.in_port = pin->in_port;
    po.actions = of::output_to(ports::kFlood);
    po.packet = pin->packet;
    api.send({api.next_xid(), po});
  }
  return ctl::Disposition::kStop;
}

namespace {

constexpr auto key_less = [](const auto& entry, const auto& key) {
  return entry.key < key;
};

} // namespace

void LearningSwitch::learn(const Key& key, PortNo port) {
  auto it = std::lower_bound(table_.begin(), table_.end(), key, key_less);
  if (it != table_.end() && it->key == key) {
    it->port = port;
  } else {
    table_.insert(it, {key, port});
  }
}

const PortNo* LearningSwitch::lookup(DatapathId dpid, const MacAddress& mac) const {
  const Key key{dpid, mac.to_uint64()};
  auto it = std::lower_bound(table_.begin(), table_.end(), key, key_less);
  return it != table_.end() && it->key == key ? &it->port : nullptr;
}

std::vector<std::uint8_t> LearningSwitch::snapshot_state() const {
  // u32 count, then one fixed 16-byte record per entry: dpid (8), mac (6),
  // port (2). The table is sorted already, so this is one pass of stores.
  constexpr std::size_t kRecordBytes = 16;
  ByteWriter w(4 + table_.size() * kRecordBytes);
  w.u32(static_cast<std::uint32_t>(table_.size()));
  std::uint8_t* p = w.claim(table_.size() * kRecordBytes);
  for (const Entry& e : table_) {
    be::store_u64(p, raw(e.key.dpid));
    // The 48-bit MAC and the port together fill the record's second word.
    be::store_u64(p + 8, (e.key.mac << 16) | raw(e.port));
    p += kRecordBytes;
  }
  return std::move(w).take();
}

void LearningSwitch::restore_state(std::span<const std::uint8_t> state) {
  table_.clear();
  ByteReader r(state);
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    const DatapathId dpid{r.u64()};
    const MacAddress mac = r.mac();
    const PortNo port{r.u16()};
    if (r.ok()) learn({dpid, mac.to_uint64()}, port); // sorted input appends
  }
}

} // namespace legosdn::apps
