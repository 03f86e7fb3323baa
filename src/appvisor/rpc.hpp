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
#include <optional>
#include <string>
#include <vector>

#include "checkpoint/delta_codec.hpp"
#include "common/result.hpp"
#include "controller/app.hpp"
#include "controller/event_codec.hpp"
#include "openflow/messages.hpp"

namespace legosdn::appvisor {

enum class RpcType : std::uint8_t {
  // stub -> proxy
  kRegister = 0,      ///< app name + subscriptions
  kEventDone = 1,     ///< disposition + emitted bundle [+ post-event state delta]
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
/// The same bytes as encode_frame(RpcFrame{type, seq, payload}), without
/// copying the payload into a frame first.
std::vector<std::uint8_t> encode_frame(RpcType type, std::uint64_t seq,
                                       std::span<const std::uint8_t> payload);
Result<RpcFrame> decode_frame(std::span<const std::uint8_t> bytes);

// --- payload helpers ---

struct RegisterPayload {
  std::string app_name;
  std::vector<ctl::EventType> subscriptions;
};
std::vector<std::uint8_t> encode_register(const RegisterPayload& p);
Result<RegisterPayload> decode_register(std::span<const std::uint8_t> bytes);

/// The stub's post-event app state, as the checkpoint::kChunkSize chunks
/// that differ from the copy it last shipped. `base` is the seq of the RPC
/// that shipped that copy; 0 means none, and then the chunks cover all
/// `size` bytes.
struct StateDelta {
  std::uint64_t base = 0;
  std::uint32_t size = 0;
  std::vector<checkpoint::DirtyChunk> dirty; ///< ascending

  bool operator==(const StateDelta&) const = default;
};

struct EventDonePayload {
  ctl::Disposition disposition = ctl::Disposition::kContinue;
  std::vector<of::Message> emitted;
  std::optional<StateDelta> state; ///< set when the deliver asked for it
};
std::vector<std::uint8_t> encode_event_done(const EventDonePayload& p);
/// A truncated payload is an error. A delta with a chunk outside its `size`
/// or of the wrong length, or a base-0 delta that does not cover [0, size),
/// is dropped (`state` is left empty) without failing the rest of the
/// payload.
Result<EventDonePayload> decode_event_done(std::span<const std::uint8_t> bytes);

struct DeliverEventPayload {
  std::int64_t now_ns = 0;
  ctl::Event event;
  /// Ask the stub to return the post-event state delta in kEventDone.
  bool ship_state = false;
};
std::vector<std::uint8_t> encode_deliver(const DeliverEventPayload& p);
Result<DeliverEventPayload> decode_deliver(std::span<const std::uint8_t> bytes);

} // namespace legosdn::appvisor
