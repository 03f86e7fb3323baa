// The AppVisor proxy <-> stub RPC protocol (paper §4.1).
//
// "The stub is a light-weight wrapper around the actual SDN-App and converts
//  all calls from the SDN-App to the controller to messages which are then
//  delivered to the proxy. ... the stub and proxy implement a simple
//  RPC-like mechanism."
//
// Frames are length-delimited byte strings carried over the UdpChannel
// (which handles fragmentation for large snapshots).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "controller/app.hpp"
#include "controller/event_codec.hpp"
#include "openflow/messages.hpp"

namespace legosdn::appvisor {

enum class RpcType : std::uint8_t {
  // stub -> proxy
  kRegister = 0,      ///< app name + subscriptions
  kEventDone = 1,     ///< disposition + emitted message bundle
  kSnapshotReply = 2, ///< serialized app state
  kRestoreAck = 3,
  kHeartbeat = 4,     ///< periodic liveness beacon
  kCrashNotice = 5,   ///< last words before abort (diagnostics for the ticket)
  // proxy -> stub
  kRegisterAck = 8,
  kDeliverEvent = 9,   ///< event to process
  kSnapshotRequest = 10,
  kRestoreRequest = 11, ///< state to install
  kShutdown = 12,
};

struct RpcFrame {
  RpcType type{};
  std::uint64_t seq = 0; ///< request/response pairing
  std::vector<std::uint8_t> payload;
};

std::vector<std::uint8_t> encode_frame(const RpcFrame& f);
Result<RpcFrame> decode_frame(std::span<const std::uint8_t> bytes);

// --- payload helpers ---

struct RegisterPayload {
  std::string app_name;
  std::vector<ctl::EventType> subscriptions;
};
std::vector<std::uint8_t> encode_register(const RegisterPayload& p);
Result<RegisterPayload> decode_register(std::span<const std::uint8_t> bytes);

struct EventDonePayload {
  ctl::Disposition disposition = ctl::Disposition::kContinue;
  std::vector<of::Message> emitted;
};
std::vector<std::uint8_t> encode_event_done(const EventDonePayload& p);
Result<EventDonePayload> decode_event_done(std::span<const std::uint8_t> bytes);

struct DeliverEventPayload {
  std::int64_t now_ns = 0;
  ctl::Event event;
};
std::vector<std::uint8_t> encode_deliver(const DeliverEventPayload& p);
Result<DeliverEventPayload> decode_deliver(std::span<const std::uint8_t> bytes);

} // namespace legosdn::appvisor
