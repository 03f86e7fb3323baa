#include "appvisor/rpc.hpp"

#include "openflow/wire10.hpp"

namespace legosdn::appvisor {

std::vector<std::uint8_t> encode_frame(RpcType type, std::uint64_t seq,
                                       std::span<const std::uint8_t> payload) {
  ByteWriter w(13 + payload.size());
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(seq);
  w.blob(payload);
  return std::move(w).take();
}

std::vector<std::uint8_t> encode_frame(const RpcFrame& f) {
  return encode_frame(f.type, f.seq, f.payload);
}

Result<RpcFrame> decode_frame(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  RpcFrame f;
  f.type = static_cast<RpcType>(r.u8());
  f.seq = r.u64();
  f.payload = r.blob();
  if (r.error()) return Error{Error::Code::kTruncated, "rpc frame truncated"};
  return f;
}

std::vector<std::uint8_t> encode_register(const RegisterPayload& p) {
  ByteWriter w;
  w.str(p.app_name);
  w.u16(static_cast<std::uint16_t>(p.subscriptions.size()));
  for (ctl::EventType t : p.subscriptions) w.u8(static_cast<std::uint8_t>(t));
  return std::move(w).take();
}

Result<RegisterPayload> decode_register(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  RegisterPayload p;
  p.app_name = r.str();
  const std::uint16_t n = r.u16();
  for (std::uint16_t i = 0; i < n && r.ok(); ++i) {
    const std::uint8_t t = r.u8();
    if (t < ctl::kEventTypeCount)
      p.subscriptions.push_back(static_cast<ctl::EventType>(t));
  }
  if (r.error()) return Error{Error::Code::kTruncated, "register truncated"};
  return p;
}

std::vector<std::uint8_t> encode_event_done(const EventDonePayload& p) {
  ByteWriter w;
  w.u8(p.disposition == ctl::Disposition::kStop ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(p.emitted.size()));
  for (const auto& m : p.emitted) w.blob(of::wire10::encode_framed(m));
  w.u8(p.state ? 1 : 0);
  if (p.state) {
    w.u64(p.state->base);
    w.u32(p.state->size);
    w.u32(static_cast<std::uint32_t>(p.state->dirty.size()));
    for (const auto& c : p.state->dirty) {
      w.u32(c.index);
      w.blob(c.data);
    }
  }
  return std::move(w).take();
}

Result<EventDonePayload> decode_event_done(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  EventDonePayload p;
  p.disposition = r.u8() ? ctl::Disposition::kStop : ctl::Disposition::kContinue;
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    auto frame = r.blob();
    if (r.error()) break;
    auto msg = of::wire10::decode_framed(frame);
    if (!msg) return msg.error();
    p.emitted.push_back(std::move(msg).value());
  }
  if (r.u8()) {
    StateDelta d;
    d.base = r.u64();
    d.size = r.u32();
    const std::uint32_t chunks = r.u32();
    for (std::uint32_t i = 0; i < chunks && r.ok(); ++i) {
      checkpoint::DirtyChunk c;
      c.index = r.u32();
      c.data = r.blob();
      d.dirty.push_back(std::move(c));
    }
    // Without a base, the chunks alone must rebuild the whole state.
    if (r.ok() &&
        checkpoint::check_chunks(d.dirty, d.base == 0 ? 0 : d.size, d.size))
      p.state = std::move(d);
  }
  if (r.error()) return Error{Error::Code::kTruncated, "event-done truncated"};
  return p;
}

std::vector<std::uint8_t> encode_deliver(const DeliverEventPayload& p) {
  ByteWriter w;
  w.u64(static_cast<std::uint64_t>(p.now_ns));
  w.u8(p.ship_state ? 1 : 0);
  ctl::encode_event(p.event, w);
  return std::move(w).take();
}

Result<DeliverEventPayload> decode_deliver(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  DeliverEventPayload p;
  p.now_ns = static_cast<std::int64_t>(r.u64());
  p.ship_state = r.u8() != 0;
  auto ev = ctl::decode_event(r);
  if (!ev) return ev.error();
  p.event = std::move(ev).value();
  return p;
}

} // namespace legosdn::appvisor
