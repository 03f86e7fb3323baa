// OpenFlow 1.0-style match structure with per-field wildcards and IPv4
// prefix matching.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "openflow/packet.hpp"

namespace legosdn::of {

/// Bitmask of wildcarded fields. A set bit means "field ignored".
enum Wildcard : std::uint32_t {
  kWcInPort = 1u << 0,
  kWcEthSrc = 1u << 1,
  kWcEthDst = 1u << 2,
  kWcEthType = 1u << 3,
  kWcIpSrc = 1u << 4,
  kWcIpDst = 1u << 5,
  kWcIpProto = 1u << 6,
  kWcTpSrc = 1u << 7,
  kWcTpDst = 1u << 8,
  kWcAll = (1u << 9) - 1,
};

struct Match {
  std::uint32_t wildcards = kWcAll;
  PortNo in_port{0};
  MacAddress eth_src{};
  MacAddress eth_dst{};
  std::uint16_t eth_type = 0;
  IpV4 ip_src{};
  IpV4 ip_dst{};
  std::uint8_t ip_src_prefix = 32; ///< prefix length, used when kWcIpSrc clear
  std::uint8_t ip_dst_prefix = 32;
  std::uint8_t ip_proto = 0;
  std::uint16_t tp_src = 0;
  std::uint16_t tp_dst = 0;

  auto operator<=>(const Match&) const = default;

  /// The match-everything wildcard.
  static Match any() { return {}; }

  /// Exact match on every header field plus ingress port.
  static Match exact(PortNo in_port, const PacketHeader& h);

  bool wildcarded(Wildcard f) const noexcept { return (wildcards & f) != 0; }

  /// Does a packet arriving on `port` with header `h` match?
  bool matches(PortNo port, const PacketHeader& h) const noexcept;

  /// Does this match cover every packet that `other` covers? Used for
  /// non-strict flow-mod delete/modify semantics (OF 1.0 §4.6).
  bool subsumes(const Match& other) const noexcept;

  /// Appends every field (the FlowTable digest streams hash these bytes).
  void encode(ByteWriter& w) const;

  std::string to_string() const;

  // --- fluent builders used throughout apps and tests ---
  Match& with_in_port(PortNo p) {
    wildcards &= ~kWcInPort;
    in_port = p;
    return *this;
  }
  Match& with_eth_src(const MacAddress& m) {
    wildcards &= ~kWcEthSrc;
    eth_src = m;
    return *this;
  }
  Match& with_eth_dst(const MacAddress& m) {
    wildcards &= ~kWcEthDst;
    eth_dst = m;
    return *this;
  }
  Match& with_eth_type(std::uint16_t t) {
    wildcards &= ~kWcEthType;
    eth_type = t;
    return *this;
  }
  Match& with_ip_src(IpV4 ip, std::uint8_t prefix = 32) {
    wildcards &= ~kWcIpSrc;
    ip_src = ip;
    ip_src_prefix = prefix;
    return *this;
  }
  Match& with_ip_dst(IpV4 ip, std::uint8_t prefix = 32) {
    wildcards &= ~kWcIpDst;
    ip_dst = ip;
    ip_dst_prefix = prefix;
    return *this;
  }
  Match& with_ip_proto(std::uint8_t p) {
    wildcards &= ~kWcIpProto;
    ip_proto = p;
    return *this;
  }
  Match& with_tp_src(std::uint16_t p) {
    wildcards &= ~kWcTpSrc;
    tp_src = p;
    return *this;
  }
  Match& with_tp_dst(std::uint16_t p) {
    wildcards &= ~kWcTpDst;
    tp_dst = p;
    return *this;
  }
};

} // namespace legosdn::of
