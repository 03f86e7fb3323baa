// OpenFlow 1.0 wire codec: the one byte encoding of of::Message.
//
// encode()/decode() speak the actual OpenFlow 1.0 binary format (openflow.h,
// wire version 0x01): ofp_header, the 40-byte ofp_match, ofp_flow_mod,
// ofp_packet_in/out with genuine Ethernet/IPv4/TCP(UDP) frames as payload,
// ofp_phy_port, flow/port/aggregate statistics, and so on — so captures
// produced here are readable by standard OpenFlow tooling and vice versa.
// The socket southbound sends these frames as they are.
//
// Every other path that turns a Message into bytes (the AppVisor RPC, the
// event codec, replication records, diversity fingerprints) uses the dpid
// framing of encode_framed()/decode_framed(): a big-endian u64 datapath id
// (of::dpid_of) followed by the OF 1.0 frame. A real connection knows its
// switch; the framing carries that one piece of connection state.
//
// Packet payloads are synthesized frames with real headers. The trace_tag
// rides in the TCP seq/ack fields (seq = high word, ack = low) or as the
// first 8 payload bytes of any other frame. A frame that is not IPv4 carries
// ip_src, ip_dst, ip_proto, tp_src and tp_dst after the tag; an IPv4 frame
// that is neither TCP nor UDP carries tp_src and tp_dst after it. A
// packet-in's size_bytes rides in ofp_packet_in.total_len; a packet-out
// always carries its frame (also next to a buffer_id, where switches ignore
// it), zero-padded to size_bytes.
//
// Representability limits — decode(encode(m)) differs from m only here, and
// no producer in src/ emits any of these:
//  - a Match IP prefix under a wildcard decodes as /32, and a /0 prefix
//    decodes as a wildcard (OF 1.0 encodes the prefix as wildcard bits);
//  - a stats request or reply carries only the section of its kind (the
//    match of a flow/aggregate request; the flows, ports or aggregate of a
//    reply);
//  - port names are truncated to 15 bytes (ofp_phy_port.name is char[16]);
//  - a packet-in's size_bytes above 0xFFFF is truncated to 16 bits;
//  - a packet-out's size_bytes below its synthesized frame length (35 to 54
//    bytes, by frame kind) decodes as that length;
//  - no frame exceeds 0xFFFF bytes: a packet-out's padding stops there, and
//    a longer features or stats reply (hundreds of ports or flows) does not
//    decode;
//  - VLAN fields, TOS and port config/state bits other than link-down have
//    no internal counterpart; they encode as wildcarded/zero.
#pragma once

#include <span>
#include <vector>

#include "common/result.hpp"
#include "openflow/messages.hpp"

namespace legosdn::of::wire10 {

constexpr std::uint8_t kVersion = 0x01;
constexpr std::size_t kHeaderLen = 8;
constexpr std::size_t kMatchLen = 40;
constexpr std::size_t kPhyPortLen = 48;
/// Largest frame a peer may send: ofp_header.length is 16 bits, so anything
/// on the wire fits; connection layers may impose a tighter cap.
constexpr std::size_t kMaxFrameLen = 0xFFFF;

/// ofp_type values (OpenFlow 1.0 §5.1).
enum class OfpType : std::uint8_t {
  kHello = 0,
  kError = 1,
  kEchoRequest = 2,
  kEchoReply = 3,
  kVendor = 4,
  kFeaturesRequest = 5,
  kFeaturesReply = 6,
  kGetConfigRequest = 7,
  kGetConfigReply = 8,
  kSetConfig = 9,
  kPacketIn = 10,
  kFlowRemoved = 11,
  kPortStatus = 12,
  kPacketOut = 13,
  kFlowMod = 14,
  kPortMod = 15,
  kStatsRequest = 16,
  kStatsReply = 17,
  kBarrierRequest = 18,
  kBarrierReply = 19,
};

/// Encode one message as OpenFlow 1.0 bytes. Every Message has an encoding.
///
/// Messages that carry a datapath id (flow-mod, packet-in, ...) lose it on
/// the wire — real OpenFlow scopes messages by connection. decode() therefore
/// takes the connection's dpid.
std::vector<std::uint8_t> encode(const Message& msg);

/// Decode one OpenFlow 1.0 message. `conn_dpid` identifies the switch this
/// connection belongs to (fills the dpid fields the wire cannot carry).
Result<Message> decode(std::span<const std::uint8_t> frame, DatapathId conn_dpid);

/// The internal framing: u64 dpid_of(msg.body) ‖ encode(msg).
std::vector<std::uint8_t> encode_framed(const Message& msg);

/// Reverse of encode_framed(): the leading dpid is the connection dpid.
Result<Message> decode_framed(std::span<const std::uint8_t> bytes);

/// encode({xid, mod}).size(), computed without building the frame. NetLog's
/// undo-byte accounting sizes every recorded inverse on the hot path.
std::size_t encoded_size(const FlowMod& mod);

/// Stream-reassembly verdict for the bytes at the head of a receive buffer.
enum class FrameStatus : std::uint8_t {
  kNeedMore, ///< length field (or body) not fully buffered yet
  kReady,    ///< *total_len bytes form one complete frame
  kBad,      ///< malformed: length < sizeof(ofp_header) or > max_frame
};

/// Validate the frame at the head of `buffer` without copying or decoding.
/// On kReady, *total_len is the byte count to hand to decode(). A kBad
/// verdict means the stream is unrecoverable (framing is length-prefixed;
/// a bogus length loses sync) — the connection must be dropped.
FrameStatus peek_frame(std::span<const std::uint8_t> buffer,
                       std::size_t* total_len,
                       std::size_t max_frame = kMaxFrameLen);

// --- exposed for tests ---

/// Synthesize a real Ethernet (+IPv4+TCP/UDP) frame for a packet.
std::vector<std::uint8_t> synthesize_frame(const Packet& pkt);
/// Parse a frame back (reverse of synthesize_frame; tolerates real-world
/// frames, filling defaults for anything beyond Ethernet/IPv4/TCP/UDP).
/// size_bytes is the frame length.
Result<Packet> parse_frame(std::span<const std::uint8_t> data);

/// RFC 1071 Internet checksum (used for the synthesized IPv4 header).
std::uint16_t internet_checksum(std::span<const std::uint8_t> data);

} // namespace legosdn::of::wire10
