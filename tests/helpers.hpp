// Shared test utilities: packet builders, a recording app, and random
// message generators for property-style tests.
#pragma once

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "controller/app.hpp"
#include "netsim/network.hpp"
#include "openflow/messages.hpp"

namespace legosdn::test {

inline MacAddress mac(std::uint64_t i) { return MacAddress::from_uint64(i); }

inline of::Packet packet_between(const MacAddress& src, const MacAddress& dst,
                                 std::uint16_t tp_dst = 80,
                                 std::uint64_t tag = 0) {
  of::Packet p;
  p.hdr.eth_src = src;
  p.hdr.eth_dst = dst;
  p.hdr.eth_type = of::kEthTypeIpv4;
  p.hdr.ip_src = IpV4{0x0A000001};
  p.hdr.ip_dst = IpV4{0x0A000002};
  p.hdr.ip_proto = of::kIpProtoTcp;
  p.hdr.tp_src = 12345;
  p.hdr.tp_dst = tp_dst;
  p.size_bytes = 100;
  p.trace_tag = tag;
  return p;
}

inline of::Packet host_packet(const netsim::Network& net, std::size_t src_idx,
                              std::size_t dst_idx, std::uint16_t tp_dst = 80) {
  const auto& hosts = net.hosts();
  of::Packet p = packet_between(hosts[src_idx].mac, hosts[dst_idx].mac, tp_dst);
  p.hdr.ip_src = hosts[src_idx].ip;
  p.hdr.ip_dst = hosts[dst_idx].ip;
  return p;
}

/// Records every event it sees; emits nothing. Useful for dispatch tests.
class RecorderApp : public ctl::App {
public:
  explicit RecorderApp(std::string name = "recorder",
                       std::vector<ctl::EventType> subs =
                           {ctl::EventType::kPacketIn, ctl::EventType::kSwitchUp,
                            ctl::EventType::kSwitchDown, ctl::EventType::kPortStatus,
                            ctl::EventType::kLinkDown})
      : name_(std::move(name)), subs_(std::move(subs)) {}

  std::string name() const override { return name_; }
  std::vector<ctl::EventType> subscriptions() const override { return subs_; }

  ctl::Disposition handle_event(const ctl::Event& e, ctl::ServiceApi&) override {
    events.push_back(e);
    return disposition;
  }

  std::vector<std::uint8_t> snapshot_state() const override {
    ByteWriter w;
    w.u64(events.size());
    return std::move(w).take();
  }
  void restore_state(std::span<const std::uint8_t> state) override {
    ByteReader r(state);
    restored_count = r.u64();
  }
  void reset() override {
    events.clear();
    restored_count = 0;
  }

  std::vector<ctl::Event> events;
  std::uint64_t restored_count = 0;
  ctl::Disposition disposition = ctl::Disposition::kContinue;

private:
  std::string name_;
  std::vector<ctl::EventType> subs_;
};

/// Deterministic random OpenFlow message generator for codec round-trips.
class MessageGen {
public:
  explicit MessageGen(std::uint64_t seed) : rng_(seed) {}

  of::Match random_match() {
    of::Match m;
    m.wildcards = static_cast<std::uint32_t>(rng_.below(of::kWcAll + 1));
    m.in_port = PortNo{static_cast<std::uint16_t>(rng_.below(48) + 1)};
    m.eth_src = MacAddress::from_uint64(rng_.below(1 << 20));
    m.eth_dst = MacAddress::from_uint64(rng_.below(1 << 20));
    m.eth_type = rng_.chance(0.8) ? of::kEthTypeIpv4 : of::kEthTypeArp;
    m.ip_src = IpV4{static_cast<std::uint32_t>(rng_.next())};
    m.ip_dst = IpV4{static_cast<std::uint32_t>(rng_.next())};
    m.ip_src_prefix = static_cast<std::uint8_t>(rng_.below(33));
    m.ip_dst_prefix = static_cast<std::uint8_t>(rng_.below(33));
    m.ip_proto = rng_.chance(0.5) ? of::kIpProtoTcp : of::kIpProtoUdp;
    m.tp_src = static_cast<std::uint16_t>(rng_.below(65536));
    m.tp_dst = static_cast<std::uint16_t>(rng_.below(65536));
    return m;
  }

  of::ActionList random_actions() {
    of::ActionList out;
    const std::size_t n = rng_.below(4);
    for (std::size_t i = 0; i < n; ++i) {
      switch (rng_.below(7)) {
        case 0: out.push_back(of::ActionOutput{PortNo{static_cast<std::uint16_t>(rng_.below(48) + 1)}}); break;
        case 1: out.push_back(of::ActionSetEthSrc{MacAddress::from_uint64(rng_.below(1 << 16))}); break;
        case 2: out.push_back(of::ActionSetEthDst{MacAddress::from_uint64(rng_.below(1 << 16))}); break;
        case 3: out.push_back(of::ActionSetIpSrc{IpV4{static_cast<std::uint32_t>(rng_.next())}}); break;
        case 4: out.push_back(of::ActionSetIpDst{IpV4{static_cast<std::uint32_t>(rng_.next())}}); break;
        case 5: out.push_back(of::ActionSetTpSrc{static_cast<std::uint16_t>(rng_.below(65536))}); break;
        default: out.push_back(of::ActionSetTpDst{static_cast<std::uint16_t>(rng_.below(65536))}); break;
      }
    }
    return out;
  }

  /// IPv4 (TCP, UDP or any other protocol), ARP or LLDP-type; every field
  /// random, including the L3/L4 fields of non-IPv4 frames.
  of::PacketHeader random_header() {
    static constexpr std::uint16_t kEthTypeLldp = 0x88CC;
    of::PacketHeader h;
    h.eth_src = MacAddress::from_uint64(rng_.below(1 << 16));
    h.eth_dst = MacAddress::from_uint64(rng_.below(1 << 16));
    h.eth_type = rng_.chance(0.8)   ? of::kEthTypeIpv4
                 : rng_.chance(0.5) ? of::kEthTypeArp
                                    : kEthTypeLldp;
    h.ip_src = IpV4{static_cast<std::uint32_t>(rng_.next())};
    h.ip_dst = IpV4{static_cast<std::uint32_t>(rng_.next())};
    const std::uint64_t proto = rng_.below(3);
    h.ip_proto = proto == 0   ? of::kIpProtoTcp
                 : proto == 1 ? of::kIpProtoUdp
                              : static_cast<std::uint8_t>(rng_.below(256));
    h.tp_src = static_cast<std::uint16_t>(rng_.below(65536));
    h.tp_dst = static_cast<std::uint16_t>(rng_.below(65536));
    return h;
  }

  of::FlowMod random_flow_mod(std::uint64_t max_dpid = 8) {
    of::FlowMod m;
    m.dpid = DatapathId{rng_.below(max_dpid) + 1};
    m.match = random_match();
    m.cookie = rng_.next();
    m.command = static_cast<of::FlowModCommand>(rng_.below(5));
    m.idle_timeout = static_cast<std::uint16_t>(rng_.below(300));
    m.hard_timeout = static_cast<std::uint16_t>(rng_.below(300));
    m.priority = static_cast<std::uint16_t>(rng_.below(0xFFFF));
    m.out_port = rng_.chance(0.8) ? ports::kNone
                                  : PortNo{static_cast<std::uint16_t>(rng_.below(8) + 1)};
    m.send_flow_removed = rng_.chance(0.3);
    m.check_overlap = rng_.chance(0.1);
    m.actions = random_actions();
    return m;
  }

  of::Message random_message();

  Rng& rng() noexcept { return rng_; }

private:
  Rng rng_;
};

inline of::Message MessageGen::random_message() {
  of::Message msg;
  msg.xid = static_cast<std::uint32_t>(rng_.next());
  switch (rng_.below(15)) {
    case 0: msg.body = of::Hello{}; break;
    case 1: msg.body = of::EchoRequest{rng_.next()}; break;
    case 2: msg.body = of::EchoReply{rng_.next()}; break;
    case 3: msg.body = of::FeaturesRequest{}; break;
    case 4: {
      of::FeaturesReply fr;
      fr.dpid = DatapathId{rng_.below(64) + 1};
      fr.n_buffers = static_cast<std::uint32_t>(rng_.below(1024));
      fr.n_tables = static_cast<std::uint8_t>(rng_.below(8) + 1);
      const std::size_t np = rng_.below(5);
      for (std::size_t i = 0; i < np; ++i) {
        of::PortDesc pd;
        pd.port = PortNo{static_cast<std::uint16_t>(i + 1)};
        pd.hw_addr = MacAddress::from_uint64(rng_.below(1 << 20));
        pd.name = "eth" + std::to_string(i);
        pd.link_up = rng_.chance(0.9);
        fr.ports.push_back(pd);
      }
      msg.body = std::move(fr);
      break;
    }
    case 5: {
      of::PacketIn pi;
      pi.dpid = DatapathId{rng_.below(64) + 1};
      pi.buffer_id = static_cast<std::uint32_t>(rng_.next());
      pi.in_port = PortNo{static_cast<std::uint16_t>(rng_.below(48) + 1)};
      pi.reason = rng_.chance(0.5) ? of::PacketInReason::kNoMatch
                                   : of::PacketInReason::kAction;
      pi.packet.hdr = random_header();
      pi.packet.size_bytes = static_cast<std::uint32_t>(rng_.below(1500) + 64);
      pi.packet.trace_tag = rng_.next();
      msg.body = pi;
      break;
    }
    case 6: {
      of::PacketOut po;
      po.dpid = DatapathId{rng_.below(64) + 1};
      po.buffer_id = static_cast<std::uint32_t>(rng_.next());
      po.in_port = PortNo{static_cast<std::uint16_t>(rng_.below(48) + 1)};
      po.actions = random_actions();
      po.packet.hdr = random_header();
      po.packet.size_bytes = static_cast<std::uint32_t>(rng_.below(1500) + 64);
      po.packet.trace_tag = rng_.next();
      msg.body = std::move(po);
      break;
    }
    case 7: msg.body = random_flow_mod(64); break;
    case 8: {
      of::FlowRemoved fr;
      fr.dpid = DatapathId{rng_.below(64) + 1};
      fr.match = random_match();
      fr.cookie = rng_.next();
      fr.priority = static_cast<std::uint16_t>(rng_.below(0xFFFF));
      fr.reason = static_cast<of::FlowRemovedReason>(rng_.below(3));
      fr.duration_sec = static_cast<std::uint32_t>(rng_.below(100000));
      fr.idle_timeout = static_cast<std::uint16_t>(rng_.below(300));
      fr.packet_count = rng_.next();
      fr.byte_count = rng_.next();
      msg.body = fr;
      break;
    }
    case 9: {
      of::PortStatus ps;
      ps.dpid = DatapathId{rng_.below(64) + 1};
      ps.reason = static_cast<of::PortReason>(rng_.below(3));
      ps.desc.port = PortNo{static_cast<std::uint16_t>(rng_.below(48) + 1)};
      ps.desc.hw_addr = MacAddress::from_uint64(rng_.below(1 << 20));
      ps.desc.name = "p";
      ps.desc.link_up = rng_.chance(0.5);
      msg.body = std::move(ps);
      break;
    }
    case 10: {
      of::StatsRequest sr;
      sr.dpid = DatapathId{rng_.below(64) + 1};
      sr.kind = static_cast<of::StatsKind>(rng_.below(3));
      sr.match = random_match();
      sr.port = PortNo{static_cast<std::uint16_t>(rng_.below(48) + 1)};
      msg.body = sr;
      break;
    }
    case 11: {
      of::StatsReply sr;
      sr.dpid = DatapathId{rng_.below(64) + 1};
      sr.kind = static_cast<of::StatsKind>(rng_.below(3));
      const std::size_t nf = rng_.below(4);
      for (std::size_t i = 0; i < nf; ++i) {
        of::FlowStatsEntry f;
        f.match = random_match();
        f.cookie = rng_.next();
        f.priority = static_cast<std::uint16_t>(rng_.below(0xFFFF));
        f.duration_sec = static_cast<std::uint32_t>(rng_.below(100000));
        f.packet_count = rng_.next();
        f.byte_count = rng_.next();
        f.actions = random_actions();
        sr.flows.push_back(std::move(f));
      }
      const std::size_t np = rng_.below(4);
      for (std::size_t i = 0; i < np; ++i) {
        sr.ports.push_back({PortNo{static_cast<std::uint16_t>(i + 1)}, rng_.next(),
                            rng_.next(), rng_.next(), rng_.next(), rng_.next()});
      }
      sr.aggregate = {rng_.next(), rng_.next(),
                      static_cast<std::uint32_t>(rng_.below(1000))};
      msg.body = std::move(sr);
      break;
    }
    case 12: msg.body = of::BarrierRequest{DatapathId{rng_.below(64) + 1}}; break;
    case 13: msg.body = of::BarrierReply{DatapathId{rng_.below(64) + 1}}; break;
    default: {
      of::OfError err;
      err.dpid = DatapathId{rng_.below(64) + 1};
      err.type = static_cast<of::OfErrorType>(rng_.below(4));
      err.code = static_cast<std::uint16_t>(rng_.below(16));
      err.detail = "synthetic error " + std::to_string(rng_.below(100));
      msg.body = std::move(err);
      break;
    }
  }
  return msg;
}

/// What of::wire10 decodes from `msg`: rewrites the three things OF 1.0
/// cannot carry and no producer emits. Everything else must round-trip.
inline of::Message canonicalize(of::Message msg) {
  // A wildcarded IP field carries no prefix on the wire, and /0 is a full
  // wildcard: normalize both to the form decode() produces.
  auto fix_match = [](of::Match& m) {
    if (m.wildcarded(of::kWcIpSrc) || m.ip_src_prefix == 0) {
      m.wildcards |= of::kWcIpSrc;
      m.ip_src_prefix = 32;
    }
    if (m.wildcarded(of::kWcIpDst) || m.ip_dst_prefix == 0) {
      m.wildcards |= of::kWcIpDst;
      m.ip_dst_prefix = 32;
    }
  };
  // ofp_phy_port.name is char[16], NUL-terminated.
  auto fix_port = [](of::PortDesc& p) {
    if (p.name.size() > 15) p.name.resize(15);
  };
  std::visit(
      [&](auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, of::FlowMod> ||
                      std::is_same_v<T, of::FlowRemoved>) {
          fix_match(m.match);
        } else if constexpr (std::is_same_v<T, of::StatsRequest>) {
          // The wire carries only the active section of the stats union.
          if (m.kind == of::StatsKind::kPort) {
            m.match = of::Match{};
          } else {
            fix_match(m.match);
          }
        } else if constexpr (std::is_same_v<T, of::StatsReply>) {
          if (m.kind != of::StatsKind::kFlow) m.flows.clear();
          if (m.kind != of::StatsKind::kPort) m.ports.clear();
          if (m.kind != of::StatsKind::kAggregate) m.aggregate = {};
          for (auto& f : m.flows) fix_match(f.match);
        } else if constexpr (std::is_same_v<T, of::FeaturesReply>) {
          for (auto& p : m.ports) fix_port(p);
        } else if constexpr (std::is_same_v<T, of::PortStatus>) {
          fix_port(m.desc);
        }
      },
      msg.body);
  return msg;
}

} // namespace legosdn::test
