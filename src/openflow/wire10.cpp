#include "openflow/wire10.hpp"

#include <algorithm>
#include <cstring>

namespace legosdn::of::wire10 {
namespace {

// ofp_flow_wildcards bits (OpenFlow 1.0 §5.2.3).
constexpr std::uint32_t kOfpfwInPort = 1u << 0;
constexpr std::uint32_t kOfpfwDlVlan = 1u << 1;
constexpr std::uint32_t kOfpfwDlSrc = 1u << 2;
constexpr std::uint32_t kOfpfwDlDst = 1u << 3;
constexpr std::uint32_t kOfpfwDlType = 1u << 4;
constexpr std::uint32_t kOfpfwNwProto = 1u << 5;
constexpr std::uint32_t kOfpfwTpSrc = 1u << 6;
constexpr std::uint32_t kOfpfwTpDst = 1u << 7;
constexpr int kOfpfwNwSrcShift = 8;
constexpr int kOfpfwNwDstShift = 14;
constexpr std::uint32_t kOfpfwDlVlanPcp = 1u << 20;
constexpr std::uint32_t kOfpfwNwTos = 1u << 21;

// ofp_action_type.
constexpr std::uint16_t kOfpatOutput = 0;
constexpr std::uint16_t kOfpatSetDlSrc = 4;
constexpr std::uint16_t kOfpatSetDlDst = 5;
constexpr std::uint16_t kOfpatSetNwSrc = 6;
constexpr std::uint16_t kOfpatSetNwDst = 7;
constexpr std::uint16_t kOfpatSetTpSrc = 9;
constexpr std::uint16_t kOfpatSetTpDst = 10;

// ofp_stats_types.
constexpr std::uint16_t kOfpstFlow = 1;
constexpr std::uint16_t kOfpstAggregate = 2;
constexpr std::uint16_t kOfpstPort = 4;

constexpr std::uint32_t kNoBufferWire = 0xFFFFFFFF;
constexpr std::uint32_t kOfppsLinkDown = 1u << 0;

void put_match(const Match& m, ByteWriter& w) {
  std::uint32_t wc = kOfpfwDlVlan | kOfpfwDlVlanPcp | kOfpfwNwTos; // no VLAN/TOS model
  if (m.wildcarded(kWcInPort)) wc |= kOfpfwInPort;
  if (m.wildcarded(kWcEthSrc)) wc |= kOfpfwDlSrc;
  if (m.wildcarded(kWcEthDst)) wc |= kOfpfwDlDst;
  if (m.wildcarded(kWcEthType)) wc |= kOfpfwDlType;
  if (m.wildcarded(kWcIpProto)) wc |= kOfpfwNwProto;
  if (m.wildcarded(kWcTpSrc)) wc |= kOfpfwTpSrc;
  if (m.wildcarded(kWcTpDst)) wc |= kOfpfwTpDst;
  const std::uint32_t src_bits =
      m.wildcarded(kWcIpSrc) ? 32u : 32u - m.ip_src_prefix;
  const std::uint32_t dst_bits =
      m.wildcarded(kWcIpDst) ? 32u : 32u - m.ip_dst_prefix;
  wc |= src_bits << kOfpfwNwSrcShift;
  wc |= dst_bits << kOfpfwNwDstShift;

  w.u32(wc);
  w.u16(raw(m.in_port));
  w.mac(m.eth_src);
  w.mac(m.eth_dst);
  w.u16(0); // dl_vlan
  w.u8(0);  // dl_vlan_pcp
  w.u8(0);  // pad
  w.u16(m.eth_type);
  w.u8(0); // nw_tos
  w.u8(m.ip_proto);
  w.zeros(2); // pad
  w.u32(m.ip_src.addr);
  w.u32(m.ip_dst.addr);
  w.u16(m.tp_src);
  w.u16(m.tp_dst);
}

Match get_match(ByteReader& r) {
  Match m;
  const std::uint32_t wc = r.u32();
  m.wildcards = 0;
  if (wc & kOfpfwInPort) m.wildcards |= kWcInPort;
  if (wc & kOfpfwDlSrc) m.wildcards |= kWcEthSrc;
  if (wc & kOfpfwDlDst) m.wildcards |= kWcEthDst;
  if (wc & kOfpfwDlType) m.wildcards |= kWcEthType;
  if (wc & kOfpfwNwProto) m.wildcards |= kWcIpProto;
  if (wc & kOfpfwTpSrc) m.wildcards |= kWcTpSrc;
  if (wc & kOfpfwTpDst) m.wildcards |= kWcTpDst;
  const std::uint32_t src_bits = (wc >> kOfpfwNwSrcShift) & 0x3F;
  const std::uint32_t dst_bits = (wc >> kOfpfwNwDstShift) & 0x3F;
  if (src_bits >= 32) m.wildcards |= kWcIpSrc;
  else m.ip_src_prefix = static_cast<std::uint8_t>(32 - src_bits);
  if (dst_bits >= 32) m.wildcards |= kWcIpDst;
  else m.ip_dst_prefix = static_cast<std::uint8_t>(32 - dst_bits);

  m.in_port = PortNo{r.u16()};
  m.eth_src = r.mac();
  m.eth_dst = r.mac();
  r.skip(2); // dl_vlan
  r.skip(2); // pcp + pad
  m.eth_type = r.u16();
  r.skip(1); // nw_tos
  m.ip_proto = r.u8();
  r.skip(2);
  m.ip_src.addr = r.u32();
  m.ip_dst.addr = r.u32();
  m.tp_src = r.u16();
  m.tp_dst = r.u16();
  return m;
}

void put_actions(const ActionList& list, ByteWriter& w) {
  for (const auto& a : list) {
    std::visit(
        [&](const auto& act) {
          using T = std::decay_t<decltype(act)>;
          if constexpr (std::is_same_v<T, ActionOutput>) {
            w.u16(kOfpatOutput);
            w.u16(8);
            w.u16(raw(act.port));
            w.u16(act.port == ports::kController ? 0xFFFF : 0); // max_len
          } else if constexpr (std::is_same_v<T, ActionSetEthSrc>) {
            w.u16(kOfpatSetDlSrc);
            w.u16(16);
            w.mac(act.mac);
            w.zeros(6);
          } else if constexpr (std::is_same_v<T, ActionSetEthDst>) {
            w.u16(kOfpatSetDlDst);
            w.u16(16);
            w.mac(act.mac);
            w.zeros(6);
          } else if constexpr (std::is_same_v<T, ActionSetIpSrc>) {
            w.u16(kOfpatSetNwSrc);
            w.u16(8);
            w.u32(act.ip.addr);
          } else if constexpr (std::is_same_v<T, ActionSetIpDst>) {
            w.u16(kOfpatSetNwDst);
            w.u16(8);
            w.u32(act.ip.addr);
          } else if constexpr (std::is_same_v<T, ActionSetTpSrc>) {
            w.u16(kOfpatSetTpSrc);
            w.u16(8);
            w.u16(act.port);
            w.zeros(2);
          } else if constexpr (std::is_same_v<T, ActionSetTpDst>) {
            w.u16(kOfpatSetTpDst);
            w.u16(8);
            w.u16(act.port);
            w.zeros(2);
          }
        },
        a);
  }
}

Result<ActionList> get_actions(ByteReader& r, std::size_t bytes) {
  ActionList out;
  std::size_t consumed = 0;
  while (consumed + 4 <= bytes) {
    const std::uint16_t type = r.u16();
    const std::uint16_t len = r.u16();
    if (len < 8 || consumed + len > bytes || r.error()) {
      return Error{Error::Code::kParse, "bad action length"};
    }
    switch (type) {
      case kOfpatOutput: {
        const PortNo port{r.u16()};
        r.skip(2); // max_len
        out.push_back(ActionOutput{port});
        break;
      }
      case kOfpatSetDlSrc: {
        out.push_back(ActionSetEthSrc{r.mac()});
        r.skip(6);
        break;
      }
      case kOfpatSetDlDst: {
        out.push_back(ActionSetEthDst{r.mac()});
        r.skip(6);
        break;
      }
      case kOfpatSetNwSrc: out.push_back(ActionSetIpSrc{IpV4{r.u32()}}); break;
      case kOfpatSetNwDst: out.push_back(ActionSetIpDst{IpV4{r.u32()}}); break;
      case kOfpatSetTpSrc: {
        out.push_back(ActionSetTpSrc{r.u16()});
        r.skip(2);
        break;
      }
      case kOfpatSetTpDst: {
        out.push_back(ActionSetTpDst{r.u16()});
        r.skip(2);
        break;
      }
      default:
        // Unknown action (vlan, enqueue, vendor): skip its body.
        r.skip(len - 4);
        break;
    }
    consumed += len;
  }
  if (consumed != bytes)
    return Error{Error::Code::kParse, "trailing bytes in action list"};
  return out;
}

void put_phy_port(const PortDesc& p, ByteWriter& w) {
  w.u16(raw(p.port));
  w.mac(p.hw_addr);
  char name[16] = {};
  std::strncpy(name, p.name.c_str(), sizeof(name) - 1);
  w.bytes(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(name),
                                        sizeof(name)));
  w.u32(0);                                 // config
  w.u32(p.link_up ? 0 : kOfppsLinkDown);    // state
  w.u32(0);                                 // curr
  w.u32(0);                                 // advertised
  w.u32(0);                                 // supported
  w.u32(0);                                 // peer
}

PortDesc get_phy_port(ByteReader& r) {
  PortDesc p;
  p.port = PortNo{r.u16()};
  p.hw_addr = r.mac();
  auto name = r.bytes(16);
  if (name.size() == 16) {
    p.name.assign(reinterpret_cast<const char*>(name.data()),
                  strnlen(reinterpret_cast<const char*>(name.data()), 16));
  }
  r.skip(4); // config
  p.link_up = (r.u32() & kOfppsLinkDown) == 0;
  r.skip(16); // curr/advertised/supported/peer
  return p;
}

/// Writes the ofp_header with a placeholder length (put_message patches it).
void put_header(ByteWriter& w, OfpType type, std::uint32_t xid) {
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(type));
  w.u16(0);
  w.u32(xid);
}

} // namespace

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i + 1 < data.size(); i += 2) {
    sum += (std::uint32_t{data[i]} << 8) | data[i + 1];
  }
  if (data.size() % 2) sum += std::uint32_t{data.back()} << 8;
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

std::vector<std::uint8_t> synthesize_frame(const Packet& pkt) {
  ByteWriter w(64);
  w.mac(pkt.hdr.eth_dst);
  w.mac(pkt.hdr.eth_src);
  w.u16(pkt.hdr.eth_type);
  if (pkt.hdr.eth_type != kEthTypeIpv4) {
    // Non-IP frame: the trace tag, then the L3/L4 fields a 1.0 match still
    // sees (LinkDiscovery probes carry their origin there), as the payload.
    w.u64(pkt.trace_tag);
    w.u32(pkt.hdr.ip_src.addr);
    w.u32(pkt.hdr.ip_dst.addr);
    w.u8(pkt.hdr.ip_proto);
    w.u16(pkt.hdr.tp_src);
    w.u16(pkt.hdr.tp_dst);
    return std::move(w).take();
  }
  // IPv4 header (20 bytes, no options).
  const bool tcp = pkt.hdr.ip_proto == kIpProtoTcp;
  const bool udp = pkt.hdr.ip_proto == kIpProtoUdp;
  // UDP: 8 hdr + 8 tag; other: 8 tag + tp_src + tp_dst.
  const std::uint16_t l4 = tcp ? 20 : udp ? 16 : 12;
  ByteWriter ip(20);
  ip.u8(0x45);
  ip.u8(0); // tos
  ip.u16(static_cast<std::uint16_t>(20 + l4));
  ip.u16(0);      // id
  ip.u16(0x4000); // DF
  ip.u8(64);      // ttl
  ip.u8(pkt.hdr.ip_proto);
  ip.u16(0); // checksum placeholder
  ip.u32(pkt.hdr.ip_src.addr);
  ip.u32(pkt.hdr.ip_dst.addr);
  auto ip_bytes = std::move(ip).take();
  const std::uint16_t csum = internet_checksum(ip_bytes);
  ip_bytes[10] = static_cast<std::uint8_t>(csum >> 8);
  ip_bytes[11] = static_cast<std::uint8_t>(csum);
  w.bytes(ip_bytes);

  if (tcp) {
    w.u16(pkt.hdr.tp_src);
    w.u16(pkt.hdr.tp_dst);
    w.u32(static_cast<std::uint32_t>(pkt.trace_tag >> 32));  // seq
    w.u32(static_cast<std::uint32_t>(pkt.trace_tag));        // ack
    w.u8(0x50); // data offset
    w.u8(0x02); // SYN
    w.u16(0xFFFF);
    w.u16(0); // checksum (not computed for synthetic frames)
    w.u16(0); // urgent
  } else if (udp) {
    w.u16(pkt.hdr.tp_src);
    w.u16(pkt.hdr.tp_dst);
    w.u16(16); // len: 8 header + 8 tag
    w.u16(0);  // checksum optional in IPv4
    w.u64(pkt.trace_tag);
  } else {
    // e.g. ICMP: the tag and the match's tp fields as body.
    w.u64(pkt.trace_tag);
    w.u16(pkt.hdr.tp_src);
    w.u16(pkt.hdr.tp_dst);
  }
  return std::move(w).take();
}

Result<Packet> parse_frame(std::span<const std::uint8_t> data) {
  if (data.size() < 14) return Error{Error::Code::kTruncated, "runt frame"};
  Packet pkt;
  ByteReader r(data);
  pkt.hdr.eth_dst = r.mac();
  pkt.hdr.eth_src = r.mac();
  pkt.hdr.eth_type = r.u16();
  pkt.size_bytes = static_cast<std::uint32_t>(data.size());
  if (pkt.hdr.eth_type != kEthTypeIpv4) {
    pkt.hdr.ip_proto = 0;
    if (r.remaining() >= 8) pkt.trace_tag = r.u64();
    if (r.remaining() >= 13) {
      pkt.hdr.ip_src.addr = r.u32();
      pkt.hdr.ip_dst.addr = r.u32();
      pkt.hdr.ip_proto = r.u8();
      pkt.hdr.tp_src = r.u16();
      pkt.hdr.tp_dst = r.u16();
    }
    return pkt;
  }
  if (r.remaining() < 20) return Error{Error::Code::kTruncated, "short IPv4 header"};
  const std::uint8_t ver_ihl = r.u8();
  const std::size_t ihl = (ver_ihl & 0x0F) * 4u;
  r.skip(1); // tos
  r.skip(2); // total length
  r.skip(4); // id + flags
  r.skip(1); // ttl
  pkt.hdr.ip_proto = r.u8();
  r.skip(2); // checksum
  pkt.hdr.ip_src.addr = r.u32();
  pkt.hdr.ip_dst.addr = r.u32();
  if (ihl > 20) r.skip(ihl - 20); // options
  if (pkt.hdr.ip_proto == kIpProtoTcp && r.remaining() >= 20) {
    pkt.hdr.tp_src = r.u16();
    pkt.hdr.tp_dst = r.u16();
    const std::uint64_t seq = r.u32();
    const std::uint64_t ack = r.u32();
    pkt.trace_tag = (seq << 32) | ack;
  } else if (pkt.hdr.ip_proto == kIpProtoUdp && r.remaining() >= 8) {
    pkt.hdr.tp_src = r.u16();
    pkt.hdr.tp_dst = r.u16();
    r.skip(4); // len + checksum
    if (r.remaining() >= 8) pkt.trace_tag = r.u64();
  } else if (r.remaining() >= 8) {
    pkt.trace_tag = r.u64();
    if (r.remaining() >= 4) {
      pkt.hdr.tp_src = r.u16();
      pkt.hdr.tp_dst = r.u16();
    }
  }
  if (r.error()) return Error{Error::Code::kTruncated, "truncated L4"};
  return pkt;
}

FrameStatus peek_frame(std::span<const std::uint8_t> buffer,
                       std::size_t* total_len, std::size_t max_frame) {
  if (buffer.size() < 4) return FrameStatus::kNeedMore;
  const std::size_t len = (std::size_t{buffer[2]} << 8) | buffer[3];
  // A length below sizeof(ofp_header) can never frame a valid message and,
  // worse, would make a naive reassembler spin without consuming bytes.
  if (len < kHeaderLen || len > max_frame) return FrameStatus::kBad;
  if (buffer.size() < len) return FrameStatus::kNeedMore;
  *total_len = len;
  return FrameStatus::kReady;
}

namespace {

template <typename T> constexpr bool kNoEncoding = false;

/// Appends one OF 1.0 frame for `msg` to `w`.
void put_message(const Message& msg, ByteWriter& w) {
  const std::size_t start = w.size();
  const std::uint32_t xid = msg.xid;
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, Hello>) {
          put_header(w, OfpType::kHello, xid);
        } else if constexpr (std::is_same_v<T, EchoRequest>) {
          put_header(w, OfpType::kEchoRequest, xid);
          w.u64(m.payload);
        } else if constexpr (std::is_same_v<T, EchoReply>) {
          put_header(w, OfpType::kEchoReply, xid);
          w.u64(m.payload);
        } else if constexpr (std::is_same_v<T, FeaturesRequest>) {
          put_header(w, OfpType::kFeaturesRequest, xid);
        } else if constexpr (std::is_same_v<T, FeaturesReply>) {
          put_header(w, OfpType::kFeaturesReply, xid);
          w.u64(raw(m.dpid));
          w.u32(m.n_buffers);
          w.u8(m.n_tables);
          w.zeros(3);
          w.u32(0);          // capabilities
          w.u32(0x00000FFF); // supported actions bitmap
          for (const auto& p : m.ports) put_phy_port(p, w);
        } else if constexpr (std::is_same_v<T, PacketIn>) {
          put_header(w, OfpType::kPacketIn, xid);
          w.u32(m.buffer_id);
          w.u16(static_cast<std::uint16_t>(m.packet.size_bytes));
          w.u16(raw(m.in_port));
          w.u8(static_cast<std::uint8_t>(m.reason));
          w.u8(0);
          w.bytes(synthesize_frame(m.packet));
        } else if constexpr (std::is_same_v<T, PacketOut>) {
          put_header(w, OfpType::kPacketOut, xid);
          w.u32(m.buffer_id);
          w.u16(raw(m.in_port));
          ByteWriter actions;
          put_actions(m.actions, actions);
          const auto abytes = std::move(actions).take();
          w.u16(static_cast<std::uint16_t>(abytes.size()));
          w.bytes(abytes);
          // The frame travels even next to a buffer_id (a switch ignores it
          // there), zero-padded to size_bytes up to the 16-bit frame length.
          const auto frame = synthesize_frame(m.packet);
          w.bytes(frame);
          const std::size_t pad =
              std::max<std::size_t>(m.packet.size_bytes, frame.size()) - frame.size();
          const std::size_t used = std::min(kMaxFrameLen, w.size() - start);
          w.zeros(std::min(pad, kMaxFrameLen - used));
        } else if constexpr (std::is_same_v<T, FlowMod>) {
          put_header(w, OfpType::kFlowMod, xid);
          put_match(m.match, w);
          w.u64(m.cookie);
          w.u16(static_cast<std::uint16_t>(m.command));
          w.u16(m.idle_timeout);
          w.u16(m.hard_timeout);
          w.u16(m.priority);
          w.u32(kNoBufferWire);
          w.u16(raw(m.out_port));
          w.u16(static_cast<std::uint16_t>((m.send_flow_removed ? 1 : 0) |
                                           (m.check_overlap ? 2 : 0)));
          put_actions(m.actions, w);
        } else if constexpr (std::is_same_v<T, FlowRemoved>) {
          put_header(w, OfpType::kFlowRemoved, xid);
          put_match(m.match, w);
          w.u64(m.cookie);
          w.u16(m.priority);
          w.u8(static_cast<std::uint8_t>(m.reason));
          w.u8(0);
          w.u32(m.duration_sec);
          w.u32(0); // duration_nsec
          w.u16(m.idle_timeout);
          w.zeros(2);
          w.u64(m.packet_count);
          w.u64(m.byte_count);
        } else if constexpr (std::is_same_v<T, PortStatus>) {
          put_header(w, OfpType::kPortStatus, xid);
          w.u8(static_cast<std::uint8_t>(m.reason));
          w.zeros(7);
          put_phy_port(m.desc, w);
        } else if constexpr (std::is_same_v<T, StatsRequest>) {
          put_header(w, OfpType::kStatsRequest, xid);
          switch (m.kind) {
            case StatsKind::kFlow:
            case StatsKind::kAggregate:
              w.u16(m.kind == StatsKind::kFlow ? kOfpstFlow : kOfpstAggregate);
              w.u16(0); // flags
              put_match(m.match, w);
              w.u8(0xFF); // table_id: all
              w.u8(0);
              w.u16(raw(m.port));
              break;
            case StatsKind::kPort:
              w.u16(kOfpstPort);
              w.u16(0);
              w.u16(raw(m.port));
              w.zeros(6);
              break;
          }
        } else if constexpr (std::is_same_v<T, StatsReply>) {
          put_header(w, OfpType::kStatsReply, xid);
          switch (m.kind) {
            case StatsKind::kFlow: {
              w.u16(kOfpstFlow);
              w.u16(0);
              for (const auto& f : m.flows) {
                ByteWriter actions;
                put_actions(f.actions, actions);
                const auto abytes = std::move(actions).take();
                w.u16(static_cast<std::uint16_t>(88 + abytes.size())); // length
                w.u8(0); // table_id
                w.u8(0);
                put_match(f.match, w);
                w.u32(f.duration_sec);
                w.u32(0); // duration_nsec
                w.u16(f.priority);
                w.u16(f.idle_timeout);
                w.u16(f.hard_timeout);
                w.zeros(6);
                w.u64(f.cookie);
                w.u64(f.packet_count);
                w.u64(f.byte_count);
                w.bytes(abytes);
              }
              break;
            }
            case StatsKind::kAggregate: {
              w.u16(kOfpstAggregate);
              w.u16(0);
              w.u64(m.aggregate.packet_count);
              w.u64(m.aggregate.byte_count);
              w.u32(m.aggregate.flow_count);
              w.zeros(4);
              break;
            }
            case StatsKind::kPort: {
              w.u16(kOfpstPort);
              w.u16(0);
              for (const auto& p : m.ports) {
                w.u16(raw(p.port));
                w.zeros(6);
                w.u64(p.rx_packets);
                w.u64(p.tx_packets);
                w.u64(p.rx_bytes);
                w.u64(p.tx_bytes);
                w.u64(p.drops); // rx_dropped
                w.u64(0);       // tx_dropped
                for (int i = 0; i < 6; ++i) w.u64(0); // error counters
              }
              break;
            }
          }
        } else if constexpr (std::is_same_v<T, BarrierRequest>) {
          put_header(w, OfpType::kBarrierRequest, xid);
        } else if constexpr (std::is_same_v<T, BarrierReply>) {
          put_header(w, OfpType::kBarrierReply, xid);
        } else if constexpr (std::is_same_v<T, OfError>) {
          put_header(w, OfpType::kError, xid);
          w.u16(static_cast<std::uint16_t>(m.type));
          w.u16(m.code);
          w.bytes(std::span<const std::uint8_t>(
              reinterpret_cast<const std::uint8_t*>(m.detail.data()),
              m.detail.size()));
        } else {
          static_assert(kNoEncoding<T>, "every alternative needs an OF 1.0 encoding");
        }
      },
      msg.body);
  w.patch_u16(start + 2, static_cast<std::uint16_t>(w.size() - start));
}

} // namespace

std::vector<std::uint8_t> encode(const Message& msg) {
  ByteWriter w(64);
  put_message(msg, w);
  return std::move(w).take();
}

std::vector<std::uint8_t> encode_framed(const Message& msg) {
  ByteWriter w(72);
  w.u64(raw(dpid_of(msg.body)));
  put_message(msg, w);
  return std::move(w).take();
}

Result<Message> decode_framed(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 8) return Error{Error::Code::kTruncated, "short dpid prefix"};
  ByteReader r(bytes);
  const DatapathId dpid{r.u64()};
  return decode(bytes.subspan(8), dpid);
}

std::size_t encoded_size(const FlowMod& mod) {
  // ofp_header + ofp_match + the fixed ofp_flow_mod fields (cookie through
  // flags), then 16 bytes per set_dl_* action and 8 per other action.
  std::size_t n = kHeaderLen + kMatchLen + 24;
  for (const auto& a : mod.actions) {
    const bool dl = std::holds_alternative<ActionSetEthSrc>(a) ||
                    std::holds_alternative<ActionSetEthDst>(a);
    n += dl ? 16 : 8;
  }
  return n;
}

Result<Message> decode(std::span<const std::uint8_t> frame, DatapathId conn_dpid) {
  if (frame.size() < kHeaderLen)
    return Error{Error::Code::kTruncated, "short ofp_header"};
  ByteReader r(frame);
  const std::uint8_t version = r.u8();
  if (version != kVersion)
    return Error{Error::Code::kUnsupported,
                 "OF version " + std::to_string(version)};
  const auto type = static_cast<OfpType>(r.u8());
  const std::uint16_t length = r.u16();
  if (length < kHeaderLen)
    return Error{Error::Code::kParse, "ofp_header length below header size"};
  if (length != frame.size())
    return Error{Error::Code::kParse, "ofp_header length mismatch"};
  Message msg;
  msg.xid = r.u32();

  auto finish_msg = [&](MessageBody body) -> Result<Message> {
    if (r.error()) return Error{Error::Code::kTruncated, "truncated body"};
    msg.body = std::move(body);
    return msg;
  };

  switch (type) {
    case OfpType::kHello:
      return finish_msg(Hello{});
    case OfpType::kEchoRequest: {
      EchoRequest m;
      if (r.remaining() >= 8) m.payload = r.u64();
      return finish_msg(m);
    }
    case OfpType::kEchoReply: {
      EchoReply m;
      if (r.remaining() >= 8) m.payload = r.u64();
      return finish_msg(m);
    }
    case OfpType::kFeaturesRequest:
      return finish_msg(FeaturesRequest{});
    case OfpType::kFeaturesReply: {
      FeaturesReply m;
      m.dpid = DatapathId{r.u64()};
      m.n_buffers = r.u32();
      m.n_tables = r.u8();
      r.skip(3);
      r.skip(8); // capabilities + actions
      while (r.ok() && r.remaining() >= kPhyPortLen) m.ports.push_back(get_phy_port(r));
      return finish_msg(std::move(m));
    }
    case OfpType::kPacketIn: {
      PacketIn m;
      m.dpid = conn_dpid;
      m.buffer_id = r.u32();
      const std::uint16_t total_len = r.u16();
      m.in_port = PortNo{r.u16()};
      m.reason = static_cast<PacketInReason>(r.u8() & 1);
      r.skip(1);
      auto pkt = parse_frame(frame.subspan(r.position()));
      if (!pkt) return pkt.error();
      m.packet = std::move(pkt).value();
      m.packet.size_bytes = total_len;
      return finish_msg(std::move(m));
    }
    case OfpType::kPacketOut: {
      PacketOut m;
      m.dpid = conn_dpid;
      m.buffer_id = r.u32();
      m.in_port = PortNo{r.u16()};
      const std::uint16_t actions_len = r.u16();
      if (actions_len > r.remaining())
        return Error{Error::Code::kTruncated, "packet-out actions truncated"};
      auto actions = get_actions(r, actions_len);
      if (!actions) return actions.error();
      m.actions = std::move(actions).value();
      if (r.remaining() > 0) {
        auto pkt = parse_frame(frame.subspan(r.position()));
        if (!pkt) return pkt.error();
        m.packet = std::move(pkt).value();
      }
      return finish_msg(std::move(m));
    }
    case OfpType::kFlowMod: {
      FlowMod m;
      m.dpid = conn_dpid;
      m.match = get_match(r);
      m.cookie = r.u64();
      m.command = static_cast<FlowModCommand>(r.u16() % 5);
      m.idle_timeout = r.u16();
      m.hard_timeout = r.u16();
      m.priority = r.u16();
      r.skip(4); // buffer_id
      m.out_port = PortNo{r.u16()};
      const std::uint16_t flags = r.u16();
      m.send_flow_removed = (flags & 1) != 0;
      m.check_overlap = (flags & 2) != 0;
      auto actions = get_actions(r, r.remaining());
      if (!actions) return actions.error();
      m.actions = std::move(actions).value();
      return finish_msg(std::move(m));
    }
    case OfpType::kFlowRemoved: {
      FlowRemoved m;
      m.dpid = conn_dpid;
      m.match = get_match(r);
      m.cookie = r.u64();
      m.priority = r.u16();
      m.reason = static_cast<FlowRemovedReason>(r.u8() % 3);
      r.skip(1);
      m.duration_sec = r.u32();
      r.skip(4); // duration_nsec
      m.idle_timeout = r.u16();
      r.skip(2);
      m.packet_count = r.u64();
      m.byte_count = r.u64();
      return finish_msg(m);
    }
    case OfpType::kPortStatus: {
      PortStatus m;
      m.dpid = conn_dpid;
      m.reason = static_cast<PortReason>(r.u8() % 3);
      r.skip(7);
      m.desc = get_phy_port(r);
      return finish_msg(std::move(m));
    }
    case OfpType::kStatsRequest: {
      StatsRequest m;
      m.dpid = conn_dpid;
      const std::uint16_t st = r.u16();
      r.skip(2); // flags
      if (st == kOfpstFlow || st == kOfpstAggregate) {
        m.kind = st == kOfpstFlow ? StatsKind::kFlow : StatsKind::kAggregate;
        m.match = get_match(r);
        r.skip(2); // table_id + pad
        m.port = PortNo{r.u16()};
      } else if (st == kOfpstPort) {
        m.kind = StatsKind::kPort;
        m.port = PortNo{r.u16()};
        r.skip(6);
      } else {
        return Error{Error::Code::kUnsupported,
                     "stats type " + std::to_string(st)};
      }
      return finish_msg(m);
    }
    case OfpType::kStatsReply: {
      StatsReply m;
      m.dpid = conn_dpid;
      const std::uint16_t st = r.u16();
      r.skip(2);
      if (st == kOfpstFlow) {
        m.kind = StatsKind::kFlow;
        while (r.ok() && r.remaining() >= 88) {
          const std::uint16_t entry_len = r.u16();
          if (entry_len < 88) return Error{Error::Code::kParse, "bad flow stats len"};
          FlowStatsEntry f;
          r.skip(2); // table_id + pad
          f.match = get_match(r);
          f.duration_sec = r.u32();
          r.skip(4);
          f.priority = r.u16();
          f.idle_timeout = r.u16();
          f.hard_timeout = r.u16();
          r.skip(6);
          f.cookie = r.u64();
          f.packet_count = r.u64();
          f.byte_count = r.u64();
          auto actions = get_actions(r, entry_len - 88);
          if (!actions) return actions.error();
          f.actions = std::move(actions).value();
          m.flows.push_back(std::move(f));
        }
      } else if (st == kOfpstAggregate) {
        m.kind = StatsKind::kAggregate;
        m.aggregate.packet_count = r.u64();
        m.aggregate.byte_count = r.u64();
        m.aggregate.flow_count = r.u32();
        r.skip(4);
      } else if (st == kOfpstPort) {
        m.kind = StatsKind::kPort;
        while (r.ok() && r.remaining() >= 104) {
          PortStatsEntry p;
          p.port = PortNo{r.u16()};
          r.skip(6);
          p.rx_packets = r.u64();
          p.tx_packets = r.u64();
          p.rx_bytes = r.u64();
          p.tx_bytes = r.u64();
          p.drops = r.u64(); // rx_dropped
          r.skip(8);         // tx_dropped
          r.skip(48);        // error counters
          m.ports.push_back(p);
        }
      } else {
        return Error{Error::Code::kUnsupported,
                     "stats type " + std::to_string(st)};
      }
      return finish_msg(std::move(m));
    }
    case OfpType::kBarrierRequest:
      return finish_msg(BarrierRequest{conn_dpid});
    case OfpType::kBarrierReply:
      return finish_msg(BarrierReply{conn_dpid});
    case OfpType::kError: {
      OfError m;
      m.dpid = conn_dpid;
      m.type = static_cast<OfErrorType>(r.u16() % 4);
      m.code = r.u16();
      auto detail = r.bytes(r.remaining());
      m.detail.assign(detail.begin(), detail.end());
      return finish_msg(std::move(m));
    }
    case OfpType::kVendor:
    case OfpType::kGetConfigRequest:
    case OfpType::kGetConfigReply:
    case OfpType::kSetConfig:
    case OfpType::kPortMod:
      return Error{Error::Code::kUnsupported,
                   "OF1.0 type " + std::to_string(static_cast<int>(type))};
  }
  return Error{Error::Code::kParse, "unknown ofp_type"};
}

} // namespace legosdn::of::wire10
