#include "controller/event_codec.hpp"

#include "openflow/wire10.hpp"

namespace legosdn::ctl {
namespace {

// The OpenFlow alternatives ride as dpid-framed OF 1.0 frames (wire10);
// controller-synthesized events get their own tags.
enum class Tag : std::uint8_t {
  kOfMessage = 0,
  kSwitchUp = 1,
  kSwitchDown = 2,
  kLinkDown = 3,
};

} // namespace

void encode_event(const Event& e, ByteWriter& w) {
  if (const auto* up = std::get_if<SwitchUp>(&e)) {
    w.u8(static_cast<std::uint8_t>(Tag::kSwitchUp));
    w.u64(raw(up->dpid));
    w.blob(of::wire10::encode_framed({0, up->features}));
    return;
  }
  if (const auto* down = std::get_if<SwitchDown>(&e)) {
    w.u8(static_cast<std::uint8_t>(Tag::kSwitchDown));
    w.u64(raw(down->dpid));
    return;
  }
  if (const auto* ld = std::get_if<LinkDown>(&e)) {
    w.u8(static_cast<std::uint8_t>(Tag::kLinkDown));
    w.u64(raw(ld->a.dpid));
    w.u16(raw(ld->a.port));
    w.u64(raw(ld->b.dpid));
    w.u16(raw(ld->b.port));
    return;
  }
  // OpenFlow-message events.
  w.u8(static_cast<std::uint8_t>(Tag::kOfMessage));
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, of::PacketIn> ||
                      std::is_same_v<T, of::PortStatus> ||
                      std::is_same_v<T, of::FlowRemoved> ||
                      std::is_same_v<T, of::StatsReply> ||
                      std::is_same_v<T, of::BarrierReply> ||
                      std::is_same_v<T, of::OfError>) {
          w.blob(of::wire10::encode_framed({0, m}));
        }
      },
      e);
}

Result<Event> decode_event(ByteReader& r) {
  const auto tag = static_cast<Tag>(r.u8());
  switch (tag) {
    case Tag::kSwitchUp: {
      SwitchUp up;
      up.dpid = DatapathId{r.u64()};
      auto frame = r.blob();
      if (r.error()) return Error{Error::Code::kTruncated, "switch-up truncated"};
      auto msg = of::wire10::decode_framed(frame);
      if (!msg) return msg.error();
      const auto* feats = msg.value().get_if<of::FeaturesReply>();
      if (!feats) return Error{Error::Code::kParse, "switch-up without features"};
      up.features = *feats;
      return Event{std::move(up)};
    }
    case Tag::kSwitchDown: {
      const DatapathId d{r.u64()};
      if (r.error()) return Error{Error::Code::kTruncated, "switch-down truncated"};
      return Event{SwitchDown{d}};
    }
    case Tag::kLinkDown: {
      LinkDown ld;
      ld.a.dpid = DatapathId{r.u64()};
      ld.a.port = PortNo{r.u16()};
      ld.b.dpid = DatapathId{r.u64()};
      ld.b.port = PortNo{r.u16()};
      if (r.error()) return Error{Error::Code::kTruncated, "link-down truncated"};
      return Event{ld};
    }
    case Tag::kOfMessage: {
      auto frame = r.blob();
      if (r.error()) return Error{Error::Code::kTruncated, "event frame truncated"};
      auto msg = of::wire10::decode_framed(frame);
      if (!msg) return msg.error();
      Event out = SwitchDown{}; // placeholder; overwritten below
      bool matched = false;
      std::visit(
          [&](auto& m) {
            using T = std::decay_t<decltype(m)>;
            if constexpr (std::is_same_v<T, of::PacketIn> ||
                          std::is_same_v<T, of::PortStatus> ||
                          std::is_same_v<T, of::FlowRemoved> ||
                          std::is_same_v<T, of::StatsReply> ||
                          std::is_same_v<T, of::BarrierReply> ||
                          std::is_same_v<T, of::OfError>) {
              out = Event{std::move(m)};
              matched = true;
            }
          },
          msg.value().body);
      if (!matched)
        return Error{Error::Code::kParse,
                     "message type is not an event: " + of::type_name(msg.value().body)};
      return out;
    }
  }
  return Error{Error::Code::kParse, "unknown event tag"};
}

std::vector<std::uint8_t> encode_event(const Event& e) {
  ByteWriter w;
  encode_event(e, w);
  return std::move(w).take();
}

Result<Event> decode_event(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  auto res = decode_event(r);
  if (!res) return res;
  if (r.error()) return Error{Error::Code::kTruncated, "event truncated"};
  return res;
}

} // namespace legosdn::ctl
