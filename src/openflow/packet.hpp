// Packet model.
//
// The simulator forwards *headers*, not byte payloads: a Packet carries the
// parsed header fields an OpenFlow 1.0 match can see, the nominal wire size
// (for byte counters), and an opaque trace tag used by tests to follow a
// packet through the network.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace legosdn::of {

/// Well-known EtherTypes.
constexpr std::uint16_t kEthTypeIpv4 = 0x0800;
constexpr std::uint16_t kEthTypeArp = 0x0806;

/// Well-known IP protocol numbers.
constexpr std::uint8_t kIpProtoIcmp = 1;
constexpr std::uint8_t kIpProtoTcp = 6;
constexpr std::uint8_t kIpProtoUdp = 17;

/// Parsed header fields visible to an OpenFlow 1.0 match.
struct PacketHeader {
  MacAddress eth_src{};
  MacAddress eth_dst{};
  std::uint16_t eth_type = kEthTypeIpv4;
  IpV4 ip_src{};
  IpV4 ip_dst{};
  std::uint8_t ip_proto = kIpProtoTcp;
  std::uint16_t tp_src = 0;
  std::uint16_t tp_dst = 0;

  auto operator<=>(const PacketHeader&) const = default;

  std::string to_string() const;
};

struct Packet {
  PacketHeader hdr{};
  std::uint32_t size_bytes = 64;  ///< nominal wire size, for byte counters
  std::uint64_t trace_tag = 0;    ///< opaque id used by tests/benchmarks

  auto operator<=>(const Packet&) const = default;
};

} // namespace legosdn::of
