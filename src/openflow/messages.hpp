// OpenFlow 1.0-style control messages.
//
// Messages are modelled as a std::variant of plain structs wrapped with a
// transaction id (xid). The vocabulary matches OpenFlow 1.0: hello/echo,
// features, packet-in/out, flow-mod, flow-removed, port-status, stats,
// barrier, vendor-neutral error.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/types.hpp"
#include "openflow/actions.hpp"
#include "openflow/match.hpp"
#include "openflow/packet.hpp"

namespace legosdn::of {

// ---------------------------------------------------------------------------
// Session / liveness
// ---------------------------------------------------------------------------

struct Hello {
  auto operator<=>(const Hello&) const = default;
};

struct EchoRequest {
  std::uint64_t payload = 0;
  auto operator<=>(const EchoRequest&) const = default;
};

struct EchoReply {
  std::uint64_t payload = 0;
  auto operator<=>(const EchoReply&) const = default;
};

// ---------------------------------------------------------------------------
// Switch features
// ---------------------------------------------------------------------------

struct PortDesc {
  PortNo port{};
  MacAddress hw_addr{};
  std::string name;
  bool link_up = true;

  auto operator<=>(const PortDesc&) const = default;
};

struct FeaturesRequest {
  auto operator<=>(const FeaturesRequest&) const = default;
};

struct FeaturesReply {
  DatapathId dpid{};
  std::uint32_t n_buffers = 256;
  std::uint8_t n_tables = 1;
  std::vector<PortDesc> ports;

  auto operator<=>(const FeaturesReply&) const = default;
};

// ---------------------------------------------------------------------------
// Data path <-> controller
// ---------------------------------------------------------------------------

enum class PacketInReason : std::uint8_t { kNoMatch = 0, kAction = 1 };

struct PacketIn {
  DatapathId dpid{};
  std::uint32_t buffer_id = kNoBuffer;
  PortNo in_port{};
  PacketInReason reason = PacketInReason::kNoMatch;
  Packet packet{};

  static constexpr std::uint32_t kNoBuffer = 0xFFFFFFFF;

  auto operator<=>(const PacketIn&) const = default;
};

struct PacketOut {
  DatapathId dpid{};
  std::uint32_t buffer_id = PacketIn::kNoBuffer;
  PortNo in_port{ports::kNone};
  ActionList actions;
  Packet packet{}; ///< a switch sends its buffered packet instead when buffer_id is set

  bool operator==(const PacketOut&) const = default;
};

// ---------------------------------------------------------------------------
// Flow table modification
// ---------------------------------------------------------------------------

enum class FlowModCommand : std::uint8_t {
  kAdd = 0,
  kModify = 1,
  kModifyStrict = 2,
  kDelete = 3,
  kDeleteStrict = 4,
};

struct FlowMod {
  DatapathId dpid{};
  Match match{};
  std::uint64_t cookie = 0;
  FlowModCommand command = FlowModCommand::kAdd;
  std::uint16_t idle_timeout = 0; ///< seconds; 0 = never
  std::uint16_t hard_timeout = 0; ///< seconds; 0 = never
  std::uint16_t priority = 0x8000;
  PortNo out_port{ports::kNone}; ///< delete filter: entries with this output
  bool send_flow_removed = false;
  bool check_overlap = false;
  ActionList actions;

  bool operator==(const FlowMod&) const = default;

  std::string to_string() const;
};

enum class FlowRemovedReason : std::uint8_t {
  kIdleTimeout = 0,
  kHardTimeout = 1,
  kDelete = 2,
};

struct FlowRemoved {
  DatapathId dpid{};
  Match match{};
  std::uint64_t cookie = 0;
  std::uint16_t priority = 0;
  FlowRemovedReason reason = FlowRemovedReason::kIdleTimeout;
  std::uint32_t duration_sec = 0;
  std::uint16_t idle_timeout = 0;
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;

  auto operator<=>(const FlowRemoved&) const = default;
};

// ---------------------------------------------------------------------------
// Port status
// ---------------------------------------------------------------------------

enum class PortReason : std::uint8_t { kAdd = 0, kDelete = 1, kModify = 2 };

struct PortStatus {
  DatapathId dpid{};
  PortReason reason = PortReason::kModify;
  PortDesc desc{};

  auto operator<=>(const PortStatus&) const = default;
};

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

enum class StatsKind : std::uint8_t { kFlow = 0, kPort = 1, kAggregate = 2 };

struct StatsRequest {
  DatapathId dpid{};
  StatsKind kind = StatsKind::kFlow;
  Match match{};                 ///< flow/aggregate: filter
  PortNo port{ports::kNone};     ///< port stats: which port (kNone = all)

  auto operator<=>(const StatsRequest&) const = default;
};

struct FlowStatsEntry {
  Match match{};
  std::uint64_t cookie = 0;
  std::uint16_t priority = 0;
  std::uint32_t duration_sec = 0;
  std::uint16_t idle_timeout = 0;
  std::uint16_t hard_timeout = 0;
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
  ActionList actions;

  bool operator==(const FlowStatsEntry&) const = default;
};

struct PortStatsEntry {
  PortNo port{};
  std::uint64_t rx_packets = 0;
  std::uint64_t tx_packets = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t drops = 0;

  auto operator<=>(const PortStatsEntry&) const = default;
};

struct AggregateStats {
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
  std::uint32_t flow_count = 0;

  auto operator<=>(const AggregateStats&) const = default;
};

struct StatsReply {
  DatapathId dpid{};
  StatsKind kind = StatsKind::kFlow;
  std::vector<FlowStatsEntry> flows;
  std::vector<PortStatsEntry> ports;
  AggregateStats aggregate{};

  bool operator==(const StatsReply&) const = default;
};

// ---------------------------------------------------------------------------
// Barrier / error
// ---------------------------------------------------------------------------

struct BarrierRequest {
  DatapathId dpid{};
  auto operator<=>(const BarrierRequest&) const = default;
};

struct BarrierReply {
  DatapathId dpid{};
  auto operator<=>(const BarrierReply&) const = default;
};

enum class OfErrorType : std::uint8_t {
  kHelloFailed = 0,
  kBadRequest = 1,
  kBadAction = 2,
  kFlowModFailed = 3,
};

struct OfError {
  DatapathId dpid{};
  OfErrorType type = OfErrorType::kBadRequest;
  std::uint16_t code = 0;
  std::string detail;

  auto operator<=>(const OfError&) const = default;
};

// ---------------------------------------------------------------------------
// The message variant
// ---------------------------------------------------------------------------

using MessageBody =
    std::variant<Hello, EchoRequest, EchoReply, FeaturesRequest, FeaturesReply,
                 PacketIn, PacketOut, FlowMod, FlowRemoved, PortStatus,
                 StatsRequest, StatsReply, BarrierRequest, BarrierReply, OfError>;

struct Message {
  std::uint32_t xid = 0;
  MessageBody body;

  bool operator==(const Message&) const = default;

  template <typename T> bool is() const noexcept {
    return std::holds_alternative<T>(body);
  }
  template <typename T> const T* get_if() const noexcept {
    return std::get_if<T>(&body);
  }
  template <typename T> T* get_if() noexcept { return std::get_if<T>(&body); }
};

/// Human-readable message-type name ("flow-mod", "packet-in", ...).
std::string type_name(const MessageBody& body);

/// Which switch is this message addressed to / from? DatapathId{0} for
/// connection-scoped messages (hello, echo, features-request) that carry no
/// datapath. Used by socket southbounds to pick the owning connection.
DatapathId dpid_of(const MessageBody& body);

/// Does this message mutate switch/network state when sent by the controller?
/// (NetLog only logs/undoes state-changing messages.)
bool is_state_changing(const MessageBody& body);

} // namespace legosdn::of
