// AppVisor tests: the in-process isolation backend, the RPC codec, and the
// registry/subscription table. (The real-process backend has its own file.)
#include <gtest/gtest.h>

#include "appvisor/appvisor.hpp"
#include "apps/fault_injection.hpp"
#include "apps/hub.hpp"
#include "apps/learning_switch.hpp"
#include "helpers.hpp"

namespace legosdn::appvisor {
namespace {

using legosdn::test::RecorderApp;

of::PacketIn sample_packet_in() {
  of::PacketIn pin;
  pin.dpid = DatapathId{1};
  pin.in_port = PortNo{1};
  pin.packet = legosdn::test::packet_between(MacAddress::from_uint64(1),
                                             MacAddress::from_uint64(2));
  return pin;
}

TEST(InProcessDomain, DeliversAndCollectsOutput) {
  InProcessDomain d(std::make_shared<apps::Hub>());
  ASSERT_TRUE(d.start());
  EXPECT_TRUE(d.alive());
  auto out = d.deliver(ctl::Event{sample_packet_in()}, kSimStart);
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.disposition, ctl::Disposition::kStop);
  ASSERT_EQ(out.emitted.size(), 1u); // the flood packet-out
  EXPECT_NE(out.emitted[0].get_if<of::PacketOut>(), nullptr);
}

TEST(InProcessDomain, CrashIsContainedAndOutputDiscarded) {
  apps::CrashTrigger t;
  t.on_type = ctl::EventType::kPacketIn;
  InProcessDomain d(std::make_shared<apps::CrashyApp>(std::make_shared<apps::Hub>(), t));
  d.start();
  auto out = d.deliver(ctl::Event{sample_packet_in()}, kSimStart);
  EXPECT_EQ(out.kind, EventOutcome::Kind::kCrashed);
  EXPECT_TRUE(out.emitted.empty());
  EXPECT_FALSE(d.alive());
  EXPECT_FALSE(out.crash_info.empty());
  // A dead domain refuses events until restored.
  out = d.deliver(ctl::Event{sample_packet_in()}, kSimStart);
  EXPECT_EQ(out.kind, EventOutcome::Kind::kCrashed);
}

TEST(InProcessDomain, SnapshotRestoreRevives) {
  auto rec = std::make_shared<RecorderApp>();
  InProcessDomain d(rec);
  d.start();
  d.deliver(ctl::Event{sample_packet_in()}, kSimStart);
  auto snap = d.snapshot();
  ASSERT_TRUE(snap.ok());
  d.shutdown();
  EXPECT_FALSE(d.alive());
  ASSERT_TRUE(d.restore(snap.value()));
  EXPECT_TRUE(d.alive());
  EXPECT_EQ(rec->restored_count, 1u); // state blob round-tripped
}

TEST(InProcessDomain, SnapshotOfDeadAppFails) {
  InProcessDomain d(std::make_shared<apps::Hub>());
  d.start();
  d.shutdown();
  EXPECT_FALSE(d.snapshot().ok());
}

TEST(InProcessDomain, RestartClearsState) {
  auto rec = std::make_shared<RecorderApp>();
  InProcessDomain d(rec);
  d.start();
  d.deliver(ctl::Event{sample_packet_in()}, kSimStart);
  EXPECT_EQ(rec->events.size(), 1u);
  d.restart();
  EXPECT_TRUE(rec->events.empty());
  EXPECT_TRUE(d.alive());
}

TEST(CollectingApi, BuffersInsteadOfSending) {
  std::uint32_t xid = 5;
  CollectingServiceApi api(from_ms(3), &xid);
  EXPECT_EQ(api.now(), from_ms(3));
  EXPECT_EQ(api.next_xid(), 5u);
  EXPECT_EQ(api.next_xid(), 6u);
  api.send({1, of::Hello{}});
  api.send({2, of::EchoRequest{9}});
  auto msgs = std::move(api).take();
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_TRUE(msgs[0].is<of::Hello>());
}

TEST(Rpc, FrameRoundTrip) {
  RpcFrame f{RpcType::kDeliverEvent, 42, {1, 2, 3, 4}};
  auto decoded = decode_frame(encode_frame(f));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().type, RpcType::kDeliverEvent);
  EXPECT_EQ(decoded.value().seq, 42u);
  EXPECT_EQ(decoded.value().payload, f.payload);
}

TEST(Rpc, RegisterPayloadRoundTrip) {
  RegisterPayload p{"my-app",
                    {ctl::EventType::kPacketIn, ctl::EventType::kSwitchDown}};
  auto decoded = decode_register(encode_register(p));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().app_name, "my-app");
  EXPECT_EQ(decoded.value().subscriptions, p.subscriptions);
}

TEST(Rpc, EventDoneRoundTripWithBundle) {
  EventDonePayload p;
  p.disposition = ctl::Disposition::kStop;
  of::FlowMod mod;
  mod.dpid = DatapathId{5};
  mod.priority = 77;
  p.emitted.push_back({1, mod});
  p.emitted.push_back({2, of::BarrierRequest{DatapathId{5}}});
  auto decoded = decode_event_done(encode_event_done(p));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().disposition, ctl::Disposition::kStop);
  ASSERT_EQ(decoded.value().emitted.size(), 2u);
  EXPECT_EQ(decoded.value().emitted[0].get_if<of::FlowMod>()->priority, 77);
  EXPECT_FALSE(decoded.value().state.has_value());

  // The same bundle with a post-event state delta: a full one (no base), an
  // empty one, growth and shrink. Each rebuilds the new state on its base.
  std::vector<std::uint8_t> before(3000);
  for (std::size_t i = 0; i < before.size(); ++i)
    before[i] = static_cast<std::uint8_t>(i * 13);
  std::vector<std::uint8_t> grown = before;
  grown.resize(5000, 0x42);
  const std::vector<std::uint8_t> shrunk(before.begin(), before.begin() + 1500);
  const struct {
    std::uint64_t base;
    std::vector<std::uint8_t> after;
  } kDeltas[] = {{0, before}, {7, before}, {7, grown}, {7, shrunk}};
  for (const auto& [base, after] : kDeltas) {
    const std::vector<std::uint8_t> from = base ? before : std::vector<std::uint8_t>{};
    p.state = StateDelta{base, static_cast<std::uint32_t>(after.size()),
                         checkpoint::diff_chunks(from, after)};
    decoded = decode_event_done(encode_event_done(p));
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded.value().emitted.size(), 2u);
    ASSERT_EQ(decoded.value().state, p.state)
        << "base " << base << " size " << after.size();
    std::vector<std::uint8_t> mirror = from;
    ASSERT_TRUE(checkpoint::apply_chunks(mirror, decoded.value().state->size,
                                         decoded.value().state->dirty));
    EXPECT_EQ(mirror, after);
  }
}

TEST(Rpc, EventDoneDropsMalformedDelta) {
  std::vector<std::uint8_t> state(2500, 0x11);
  EventDonePayload p;
  p.emitted.push_back({1, of::BarrierRequest{DatapathId{5}}});
  const auto full = checkpoint::diff_chunks({}, state); // chunks 0, 1, 2
  auto with = [&](std::uint64_t base, std::uint32_t size, auto dirty) {
    p.state = StateDelta{base, size, std::move(dirty)};
    auto decoded = decode_event_done(encode_event_done(p));
    // The rest of the payload survives; only the delta is dropped.
    EXPECT_TRUE(decoded.ok());
    if (!decoded.ok()) return false;
    EXPECT_EQ(decoded.value().emitted.size(), 1u);
    return decoded.value().state.has_value();
  };
  EXPECT_TRUE(with(0, 2500, full));
  EXPECT_TRUE(with(9, 2500, full));
  EXPECT_FALSE(with(9, 2400, full));  // last chunk ends past `size`
  auto far = full;
  far[2].index = 40;
  EXPECT_FALSE(with(9, 2500, far));   // chunk starts past `size`
  auto gap = full;
  gap.erase(gap.begin() + 1);
  EXPECT_TRUE(with(9, 2500, gap));    // a base supplies bytes 1024..2047
  EXPECT_FALSE(with(0, 2500, gap));   // without one, they are missing
  EXPECT_FALSE(with(0, 2500, std::vector<checkpoint::DirtyChunk>{}));
  EXPECT_TRUE(with(0, 0, std::vector<checkpoint::DirtyChunk>{}));
}

TEST(Rpc, DeliverPayloadRoundTrip) {
  for (bool ship : {false, true}) {
    DeliverEventPayload p{123456789, ctl::Event{sample_packet_in()}, ship};
    auto decoded = decode_deliver(encode_deliver(p));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().now_ns, 123456789);
    EXPECT_EQ(decoded.value().event, p.event);
    EXPECT_EQ(decoded.value().ship_state, ship);
  }
}

TEST(Rpc, MalformedFramesRejected) {
  EXPECT_FALSE(decode_frame(std::vector<std::uint8_t>{1, 2}).ok());
  EXPECT_FALSE(decode_register(std::vector<std::uint8_t>{0xFF}).ok());
  EXPECT_FALSE(decode_event_done(std::vector<std::uint8_t>{9}).ok());
}

TEST(Registry, SubscriptionTable) {
  AppVisor visor;
  visor.add_app(std::make_shared<apps::Hub>(), Backend::kInProcess);
  visor.add_app(std::make_shared<apps::LearningSwitch>(), Backend::kInProcess);
  ASSERT_TRUE(visor.start_all());
  EXPECT_EQ(visor.entries().size(), 2u);
  // Both subscribe to packet-in; only the learning switch to switch-down.
  EXPECT_EQ(visor.subscribers(ctl::EventType::kPacketIn).size(), 2u);
  auto subs = visor.subscribers(ctl::EventType::kSwitchDown);
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0]->domain->app_name(), "learning-switch");
  EXPECT_TRUE(visor.subscribers(ctl::EventType::kStatsReply).empty());
}

TEST(Registry, EntryLookupById) {
  AppVisor visor;
  const AppId a = visor.add_app(std::make_shared<apps::Hub>(), Backend::kInProcess);
  EXPECT_NE(visor.entry(a), nullptr);
  EXPECT_EQ(visor.entry(AppId{999}), nullptr);
}

} // namespace
} // namespace legosdn::appvisor
