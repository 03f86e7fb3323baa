#include "openflow/match.hpp"

#include <sstream>

namespace legosdn::of {
namespace {

constexpr std::uint32_t prefix_mask(std::uint8_t prefix) noexcept {
  return prefix == 0 ? 0u : ~0u << (32 - prefix);
}

bool ip_covered(IpV4 value, IpV4 net, std::uint8_t prefix) noexcept {
  const std::uint32_t m = prefix_mask(prefix);
  return (value.addr & m) == (net.addr & m);
}

} // namespace

Match Match::exact(PortNo port, const PacketHeader& h) {
  Match m;
  m.wildcards = 0;
  m.in_port = port;
  m.eth_src = h.eth_src;
  m.eth_dst = h.eth_dst;
  m.eth_type = h.eth_type;
  m.ip_src = h.ip_src;
  m.ip_dst = h.ip_dst;
  m.ip_src_prefix = 32;
  m.ip_dst_prefix = 32;
  m.ip_proto = h.ip_proto;
  m.tp_src = h.tp_src;
  m.tp_dst = h.tp_dst;
  return m;
}

bool Match::matches(PortNo port, const PacketHeader& h) const noexcept {
  if (!wildcarded(kWcInPort) && in_port != port) return false;
  if (!wildcarded(kWcEthSrc) && eth_src != h.eth_src) return false;
  if (!wildcarded(kWcEthDst) && eth_dst != h.eth_dst) return false;
  if (!wildcarded(kWcEthType) && eth_type != h.eth_type) return false;
  if (!wildcarded(kWcIpSrc) && !ip_covered(h.ip_src, ip_src, ip_src_prefix))
    return false;
  if (!wildcarded(kWcIpDst) && !ip_covered(h.ip_dst, ip_dst, ip_dst_prefix))
    return false;
  if (!wildcarded(kWcIpProto) && ip_proto != h.ip_proto) return false;
  if (!wildcarded(kWcTpSrc) && tp_src != h.tp_src) return false;
  if (!wildcarded(kWcTpDst) && tp_dst != h.tp_dst) return false;
  return true;
}

bool Match::subsumes(const Match& o) const noexcept {
  // Field by field: we must be at least as general as `o`.
  if (!wildcarded(kWcInPort)) {
    if (o.wildcarded(kWcInPort) || o.in_port != in_port) return false;
  }
  if (!wildcarded(kWcEthSrc)) {
    if (o.wildcarded(kWcEthSrc) || o.eth_src != eth_src) return false;
  }
  if (!wildcarded(kWcEthDst)) {
    if (o.wildcarded(kWcEthDst) || o.eth_dst != eth_dst) return false;
  }
  if (!wildcarded(kWcEthType)) {
    if (o.wildcarded(kWcEthType) || o.eth_type != eth_type) return false;
  }
  if (!wildcarded(kWcIpSrc)) {
    if (o.wildcarded(kWcIpSrc) || o.ip_src_prefix < ip_src_prefix ||
        !ip_covered(o.ip_src, ip_src, ip_src_prefix))
      return false;
  }
  if (!wildcarded(kWcIpDst)) {
    if (o.wildcarded(kWcIpDst) || o.ip_dst_prefix < ip_dst_prefix ||
        !ip_covered(o.ip_dst, ip_dst, ip_dst_prefix))
      return false;
  }
  if (!wildcarded(kWcIpProto)) {
    if (o.wildcarded(kWcIpProto) || o.ip_proto != ip_proto) return false;
  }
  if (!wildcarded(kWcTpSrc)) {
    if (o.wildcarded(kWcTpSrc) || o.tp_src != tp_src) return false;
  }
  if (!wildcarded(kWcTpDst)) {
    if (o.wildcarded(kWcTpDst) || o.tp_dst != tp_dst) return false;
  }
  return true;
}

void Match::encode(ByteWriter& w) const {
  w.u32(wildcards);
  w.u16(raw(in_port));
  w.mac(eth_src);
  w.mac(eth_dst);
  w.u16(eth_type);
  w.u32(ip_src.addr);
  w.u32(ip_dst.addr);
  w.u8(ip_src_prefix);
  w.u8(ip_dst_prefix);
  w.u8(ip_proto);
  w.u16(tp_src);
  w.u16(tp_dst);
}

std::string Match::to_string() const {
  if (wildcards == kWcAll) return "match(*)";
  std::ostringstream os;
  os << "match(";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
  };
  if (!wildcarded(kWcInPort)) { sep(); os << "in_port=" << raw(in_port); }
  if (!wildcarded(kWcEthSrc)) { sep(); os << "eth_src=" << eth_src.to_string(); }
  if (!wildcarded(kWcEthDst)) { sep(); os << "eth_dst=" << eth_dst.to_string(); }
  if (!wildcarded(kWcEthType)) { sep(); os << "eth_type=0x" << std::hex << eth_type << std::dec; }
  if (!wildcarded(kWcIpSrc)) {
    sep();
    os << "ip_src=" << ip_src.to_string() << "/" << int(ip_src_prefix);
  }
  if (!wildcarded(kWcIpDst)) {
    sep();
    os << "ip_dst=" << ip_dst.to_string() << "/" << int(ip_dst_prefix);
  }
  if (!wildcarded(kWcIpProto)) { sep(); os << "proto=" << int(ip_proto); }
  if (!wildcarded(kWcTpSrc)) { sep(); os << "tp_src=" << tp_src; }
  if (!wildcarded(kWcTpDst)) { sep(); os << "tp_dst=" << tp_dst; }
  os << ")";
  return os.str();
}

} // namespace legosdn::of
