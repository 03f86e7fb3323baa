// Internal-framing regression tests: byte-exact goldens of the dpid ‖ OF 1.0
// framing every internal path uses (so changes that break its layout fail
// loudly), random round-trips through the AppVisor RPC payloads, and fuzz
// sweeps over every decoder in the system.
#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>

#include "appvisor/rpc.hpp"
#include "controller/event_codec.hpp"
#include "helpers.hpp"
#include "legosdn/replication.hpp"
#include "openflow/wire10.hpp"

namespace legosdn {
namespace {

using of::wire10::decode_framed;
using of::wire10::encode_framed;
using test::canonicalize;

std::string hex(std::span<const std::uint8_t> bytes) {
  std::ostringstream os;
  for (auto b : bytes) os << std::hex << std::setw(2) << std::setfill('0') << int(b);
  return os.str();
}

TEST(Golden, HelloFrame) {
  // dpid 0 (connection-scoped) | version=1 type=0 len=0x0008 xid=0x00000001.
  EXPECT_EQ(hex(encode_framed({1, of::Hello{}})), "0000000000000000"
                                                  "0100000800000001");
}

TEST(Golden, EchoRequestFrame) {
  EXPECT_EQ(hex(encode_framed({0x42, of::EchoRequest{0x0102030405060708ULL}})),
            "0000000000000000"
            "0102001000000042"
            "0102030405060708");
}

TEST(Golden, BarrierRequestFrame) {
  // The dpid the OF 1.0 barrier cannot carry leads the frame.
  EXPECT_EQ(hex(encode_framed({7, of::BarrierRequest{DatapathId{0xAB}}})),
            "00000000000000ab"
            "0112000800000007");
}

TEST(Golden, FlowModAddFrame) {
  of::FlowMod mod;
  mod.dpid = DatapathId{2};
  mod.match = of::Match{}.with_tp_dst(80);
  mod.priority = 0x1234;
  mod.actions = of::output_to(PortNo{3});
  const auto bytes = encode_framed({0x10, mod});
  // Spot-check the envelope, then require decode-equality (the ofp_flow_mod
  // body itself is pinned by Wire10Golden.FlowModLayout).
  EXPECT_EQ(hex(std::span(bytes).subspan(0, 8)), "0000000000000002"); // dpid
  EXPECT_EQ(bytes[8], 0x01); // version
  EXPECT_EQ(bytes[9], 14);   // OFPT_FLOW_MOD
  const std::uint16_t len = static_cast<std::uint16_t>((bytes[10] << 8) | bytes[11]);
  EXPECT_EQ(len, bytes.size() - 8);
  EXPECT_EQ(hex(std::span(bytes).subspan(12, 4)), "00000010"); // xid
  auto decoded = decode_framed(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded.value().get_if<of::FlowMod>(), mod);
}

TEST(Golden, WireTagsAreStable) {
  // Byte 9, after the dpid and the version, is the OF 1.0 ofp_type.
  auto tag = [](of::MessageBody body) { return encode_framed({0, std::move(body)})[9]; };
  EXPECT_EQ(tag(of::Hello{}), 0);
  EXPECT_EQ(tag(of::OfError{}), 1);
  EXPECT_EQ(tag(of::EchoRequest{}), 2);
  EXPECT_EQ(tag(of::EchoReply{}), 3);
  EXPECT_EQ(tag(of::FeaturesRequest{}), 5);
  EXPECT_EQ(tag(of::FeaturesReply{}), 6);
  EXPECT_EQ(tag(of::PacketIn{}), 10);
  EXPECT_EQ(tag(of::FlowRemoved{}), 11);
  EXPECT_EQ(tag(of::PortStatus{}), 12);
  EXPECT_EQ(tag(of::PacketOut{}), 13);
  EXPECT_EQ(tag(of::FlowMod{}), 14);
  EXPECT_EQ(tag(of::StatsRequest{}), 16);
  EXPECT_EQ(tag(of::StatsReply{}), 17);
  EXPECT_EQ(tag(of::BarrierRequest{}), 18);
  EXPECT_EQ(tag(of::BarrierReply{}), 19);
}

// ---------------------------------------------------------------------------
// Random content for every payload the internal paths carry.
// ---------------------------------------------------------------------------

/// A random event: any OpenFlow event alternative, or a synthesized one.
ctl::Event random_event(test::MessageGen& gen) {
  const of::Message msg = gen.random_message();
  const DatapathId dpid{gen.rng().below(64) + 1};
  ctl::Event out = ctl::SwitchDown{dpid};
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_constructible_v<ctl::Event, T>) {
          out = m;
        } else if constexpr (std::is_same_v<T, of::FeaturesReply>) {
          out = ctl::SwitchUp{m.dpid, m};
        } else if constexpr (std::is_same_v<T, of::EchoRequest>) {
          out = ctl::LinkDown{{dpid, PortNo{1}}, {DatapathId{m.payload}, PortNo{2}}};
        }
      },
      msg.body);
  return out;
}

/// What an event decodes to: its OpenFlow content canonicalized.
ctl::Event canonical(ctl::Event e) {
  std::visit(
      [](auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, ctl::SwitchUp>) {
          m.features = std::get<of::FeaturesReply>(canonicalize({0, m.features}).body);
        } else if constexpr (std::is_constructible_v<of::MessageBody, T>) {
          m = std::get<T>(canonicalize({0, m}).body);
        }
      },
      e);
  return e;
}

/// A post-event state delta of one of four shapes: full (no base), empty,
/// growth or shrink, over states of up to ~3 chunks.
appvisor::StateDelta random_delta(Rng& rng) {
  std::vector<std::uint8_t> before(rng.below(2500));
  for (auto& b : before) b = static_cast<std::uint8_t>(rng.below(4));
  std::vector<std::uint8_t> after = before;
  for (std::size_t n = rng.below(4); n > 0 && !after.empty(); --n)
    after[rng.below(after.size())] ^= 0xFF;
  appvisor::StateDelta d;
  d.base = rng.below(1000) + 1;
  switch (rng.below(4)) {
    case 0: d.base = 0; before.clear(); break;          // full
    case 1: after = before; break;                      // empty
    case 2: after.resize(after.size() + rng.below(1500), 7); break; // growth
    case 3: after.resize(rng.below(after.size() + 1)); break;       // shrink
  }
  d.size = static_cast<std::uint32_t>(after.size());
  d.dirty = checkpoint::diff_chunks(before, after);
  return d;
}

appvisor::EventDonePayload random_bundle(test::MessageGen& gen) {
  appvisor::EventDonePayload p;
  p.disposition =
      gen.rng().chance(0.5) ? ctl::Disposition::kStop : ctl::Disposition::kContinue;
  for (std::size_t n = gen.rng().below(5); n > 0; --n)
    p.emitted.push_back(gen.random_message());
  if (gen.rng().chance(0.5)) p.state = random_delta(gen.rng());
  return p;
}

lego::ReplicaRecord random_record(test::MessageGen& gen) {
  lego::ReplicaRecord r;
  r.kind = static_cast<lego::ReplicaRecord::Kind>(gen.rng().below(4) + 1);
  r.app_index = gen.rng().below(8);
  switch (r.kind) {
    case lego::ReplicaRecord::Kind::kEvent: r.event = random_event(gen); break;
    case lego::ReplicaRecord::Kind::kTxn:
      r.txn.kind = static_cast<netlog::TxnRecord::Kind>(gen.rng().below(5));
      r.txn.txn = TxnId{gen.rng().next()};
      r.txn.app = AppId{static_cast<std::uint32_t>(gen.rng().below(16))};
      r.txn.msg = gen.random_message();
      break;
    case lego::ReplicaRecord::Kind::kAppState:
      r.state.resize(gen.rng().below(64));
      for (auto& b : r.state) b = static_cast<std::uint8_t>(gen.rng().below(256));
      break;
    case lego::ReplicaRecord::Kind::kAppDown: break;
  }
  return r;
}

// Parameterized property sweep: random message bundles (stub -> proxy) and
// random events (proxy -> stub) cross the AppVisor RPC payloads exactly as
// the wire can carry them.
class CodecRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecRoundTrip, RandomMessagesRoundTrip) {
  test::MessageGen gen(GetParam());
  for (int i = 0; i < 200; ++i) {
    const auto done = random_bundle(gen);
    auto got = appvisor::decode_event_done(appvisor::encode_event_done(done));
    ASSERT_TRUE(got.ok()) << got.error().to_string();
    EXPECT_EQ(got.value().disposition, done.disposition);
    ASSERT_EQ(got.value().emitted.size(), done.emitted.size());
    for (std::size_t k = 0; k < done.emitted.size(); ++k)
      EXPECT_EQ(got.value().emitted[k], canonicalize(done.emitted[k]))
          << "seed=" << GetParam() << " i=" << i << " k=" << k;
    EXPECT_TRUE(got.value().state == done.state) << "seed=" << GetParam() << " i=" << i;

    const appvisor::DeliverEventPayload deliver{static_cast<std::int64_t>(i),
                                                random_event(gen), gen.rng().chance(0.5)};
    auto ev = appvisor::decode_deliver(appvisor::encode_deliver(deliver));
    ASSERT_TRUE(ev.ok()) << ev.error().to_string();
    EXPECT_EQ(ev.value().now_ns, deliver.now_ns);
    EXPECT_EQ(ev.value().ship_state, deliver.ship_state);
    EXPECT_EQ(ev.value().event, canonical(deliver.event))
        << "seed=" << GetParam() << " i=" << i << " " << ctl::describe(deliver.event);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecRoundTrip,
                         ::testing::Values(1, 2, 3, 17, 1234, 99999));

// ---------------------------------------------------------------------------
// Decoder fuzzing: no input may crash, hang, or overrun.
// ---------------------------------------------------------------------------

/// One surviving decoder, with a generator of valid inputs for it.
struct DecoderCase {
  const char* name;
  std::vector<std::uint8_t> (*sample)(test::MessageGen&);
  bool (*decodes)(std::span<const std::uint8_t>);
};

const DecoderCase kDecoders[] = {
    {"wire10::decode_framed",
     [](test::MessageGen& g) { return encode_framed(g.random_message()); },
     [](std::span<const std::uint8_t> b) { return decode_framed(b).ok(); }},
    {"ctl::decode_event",
     [](test::MessageGen& g) { return ctl::encode_event(random_event(g)); },
     [](std::span<const std::uint8_t> b) { return ctl::decode_event(b).ok(); }},
    {"appvisor::decode_frame",
     [](test::MessageGen& g) {
       return appvisor::encode_frame({appvisor::RpcType::kDeliverEvent, g.rng().next(),
                                      ctl::encode_event(random_event(g))});
     },
     [](std::span<const std::uint8_t> b) { return appvisor::decode_frame(b).ok(); }},
    {"appvisor::decode_register",
     [](test::MessageGen& g) {
       appvisor::RegisterPayload p{"app-" + std::to_string(g.rng().below(100)), {}};
       for (std::size_t n = g.rng().below(5); n > 0; --n)
         p.subscriptions.push_back(
             static_cast<ctl::EventType>(g.rng().below(ctl::kEventTypeCount)));
       return appvisor::encode_register(p);
     },
     [](std::span<const std::uint8_t> b) { return appvisor::decode_register(b).ok(); }},
    {"appvisor::decode_event_done",
     [](test::MessageGen& g) { return appvisor::encode_event_done(random_bundle(g)); },
     [](std::span<const std::uint8_t> b) { return appvisor::decode_event_done(b).ok(); }},
    {"appvisor::decode_deliver",
     [](test::MessageGen& g) {
       return appvisor::encode_deliver({static_cast<std::int64_t>(g.rng().next()),
                                        random_event(g), g.rng().chance(0.5)});
     },
     [](std::span<const std::uint8_t> b) { return appvisor::decode_deliver(b).ok(); }},
    {"lego::decode_record",
     [](test::MessageGen& g) { return lego::encode_record(random_record(g)); },
     [](std::span<const std::uint8_t> b) { return lego::decode_record(b).ok(); }},
};

class DecoderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecoderFuzz, RandomBytesNeverCrashAnyDecoder) {
  Rng rng(GetParam());
  for (int i = 0; i < 3000; ++i) {
    std::vector<std::uint8_t> junk(rng.below(192));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    for (const auto& d : kDecoders) (void)d.decodes(junk);
  }
}

TEST_P(DecoderFuzz, BitFlippedValidFramesNeverCrash) {
  test::MessageGen gen(GetParam());
  Rng rng(GetParam() ^ 0xF00D);
  for (const auto& d : kDecoders) {
    for (int i = 0; i < 300; ++i) {
      auto bytes = d.sample(gen);
      ASSERT_TRUE(d.decodes(bytes)) << d.name;
      // Flip a few random bits/bytes.
      for (int k = 0; k < 3; ++k) {
        bytes[rng.below(bytes.size())] ^=
            static_cast<std::uint8_t>(1u << rng.below(8));
      }
      (void)d.decodes(bytes);
    }
  }
}

TEST_P(DecoderFuzz, TruncatedValidFramesAlwaysRejected) {
  test::MessageGen gen(GetParam());
  for (const auto& d : kDecoders) {
    for (int i = 0; i < 60; ++i) {
      const auto bytes = d.sample(gen);
      for (std::size_t cut = 0; cut < bytes.size(); cut += 3) {
        EXPECT_FALSE(d.decodes({bytes.data(), cut}))
            << d.name << ": prefix of " << cut << "/" << bytes.size() << " bytes decoded";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzz, ::testing::Values(101, 202, 303));

TEST(RpcFuzz, EventCodecSurvivesEmbeddedGarbage) {
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    // Valid tag byte followed by garbage payload.
    std::vector<std::uint8_t> frame{static_cast<std::uint8_t>(rng.below(5))};
    const std::size_t n = rng.below(64);
    for (std::size_t k = 0; k < n; ++k)
      frame.push_back(static_cast<std::uint8_t>(rng.below(256)));
    (void)ctl::decode_event(frame);
  }
}

} // namespace
} // namespace legosdn
