// OpenFlow 1.0 wire codec tests: spec-conformant golden bytes, round-trips
// through real OF1.0 frames and the internal dpid framing, frame
// synthesis/parsing, and fuzz.
#include <gtest/gtest.h>

#include <iomanip>
#include <set>
#include <sstream>

#include "apps/link_discovery.hpp"
#include "helpers.hpp"
#include "openflow/wire10.hpp"

namespace legosdn::of::wire10 {
namespace {

using legosdn::test::canonicalize;
using legosdn::test::MessageGen;

std::string hex(std::span<const std::uint8_t> bytes) {
  std::ostringstream os;
  for (auto b : bytes) os << std::hex << std::setw(2) << std::setfill('0') << int(b);
  return os.str();
}

TEST(Wire10Golden, HelloIsEightByteHeader) {
  EXPECT_EQ(hex(encode({0x01020304, Hello{}})), "0100000801020304");
}

TEST(Wire10Golden, BarrierRequestHeaderOnly) {
  // version=01 type=18(0x12) len=0008 xid=000000ab — dpid is connection state.
  EXPECT_EQ(hex(encode({0xAB, BarrierRequest{DatapathId{9}}})), "01120008000000ab");
}

TEST(Wire10Golden, EchoRequestCarriesPayload) {
  EXPECT_EQ(hex(encode({1, EchoRequest{0x1122334455667788ULL}})),
            "01020010000000011122334455667788");
}

TEST(Wire10Golden, FlowModLayout) {
  of::FlowMod mod;
  mod.dpid = DatapathId{1};
  mod.match = of::Match{}.with_tp_dst(80); // everything else wildcarded
  mod.priority = 0x8000;
  mod.actions = of::output_to(PortNo{2});
  const auto b = encode({0, mod});
  // header(8) + match(40) + body(24) + one output action(8) = 80 bytes.
  ASSERT_EQ(b.size(), 80u);
  EXPECT_EQ(b[1], 14); // OFPT_FLOW_MOD
  // wildcards: all except TP_DST, with VLAN/PCP/TOS forced wild and both
  // nw prefixes at 32 bits: 0x0030_1f7f & ~TP_DST(0x80) ... compute:
  // in_port|dl_vlan|dl_src|dl_dst|dl_type|nw_proto|tp_src = 0x7F minus
  // tp_dst(0x80 not set), nw bits 32<<8 | 32<<14 = 0x2000 + 0x80000 ->
  // 0x2000|0x80000 = 0x082000... plus pcp(1<<20)+tos(1<<21)=0x300000.
  const std::uint32_t wc = (std::uint32_t{b[8]} << 24) | (std::uint32_t{b[9]} << 16) |
                           (std::uint32_t{b[10]} << 8) | b[11];
  EXPECT_EQ(wc, 0x0038207Fu);
  // Action at offset 72: type=0, len=8, port=2, max_len=0.
  EXPECT_EQ(hex(std::span(b).subspan(72, 8)), "0000000800020000");
}

TEST(Wire10Golden, PacketInSynthesizesRealTcpFrame) {
  of::PacketIn pin;
  pin.dpid = DatapathId{3};
  pin.buffer_id = 7;
  pin.in_port = PortNo{2};
  pin.packet = legosdn::test::packet_between(MacAddress::from_uint64(0xA),
                                             MacAddress::from_uint64(0xB), 80, 42);
  pin.packet.hdr.ip_src = IpV4::from_octets(10, 0, 0, 1);
  pin.packet.hdr.ip_dst = IpV4::from_octets(10, 0, 0, 2);
  const auto b = encode({9, pin});
  EXPECT_EQ(b[1], 10); // OFPT_PACKET_IN
  // Frame starts at offset 18: Ethernet dst comes first on the wire.
  EXPECT_EQ(hex(std::span(b).subspan(18, 6)), "00000000000b"); // eth_dst
  EXPECT_EQ(hex(std::span(b).subspan(24, 6)), "00000000000a"); // eth_src
  EXPECT_EQ(hex(std::span(b).subspan(30, 2)), "0800");         // ethertype
  // IPv4 header checksum must validate (sum to zero over the header).
  std::span<const std::uint8_t> ip(b.data() + 32, 20);
  EXPECT_EQ(internet_checksum(ip), 0);
}

TEST(Wire10, FrameSynthesisRoundTrip) {
  // Every frame kind (IPv4 TCP/UDP/other, ARP, LLDP-type) carries the whole
  // header and the trace tag; size_bytes parses as the frame length.
  MessageGen gen(11);
  for (int i = 0; i < 300; ++i) {
    of::Packet pkt;
    pkt.hdr = gen.random_header();
    pkt.trace_tag = gen.rng().next();
    const auto frame = synthesize_frame(pkt);
    auto parsed = parse_frame(frame);
    ASSERT_TRUE(parsed.ok());
    pkt.size_bytes = static_cast<std::uint32_t>(frame.size());
    EXPECT_EQ(parsed.value(), pkt) << i << " " << pkt.hdr.to_string();
  }
}

TEST(Wire10, NonIpFrameRoundTrip) {
  // A LinkDiscovery probe is LLDP-typed and carries its origin switch and
  // port in ip_src/ip_dst/tp_src: those must cross the wire.
  of::Packet probe = apps::LinkDiscovery::make_probe(DatapathId{0x1122334455}, PortNo{7});
  probe.trace_tag = 0xCAFEBABE;
  ASSERT_NE(probe.hdr.eth_type, kEthTypeIpv4);
  ASSERT_NE(probe.hdr.ip_src, IpV4{});
  const auto frame = synthesize_frame(probe);
  auto parsed = parse_frame(frame);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().hdr, probe.hdr);
  EXPECT_EQ(parsed.value().trace_tag, probe.trace_tag);

  // Inside a packet-out (padded to size_bytes) the probe survives exactly.
  PacketOut po;
  po.dpid = DatapathId{0x1122334455};
  po.actions = output_to(PortNo{7});
  po.packet = probe;
  auto decoded = decode(encode({4, po}), po.dpid);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded.value(), (Message{4, po}));
}

class Wire10RoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Wire10RoundTrip, RandomMessagesSurviveRealOf10Encoding) {
  // Through the internal dpid framing, every field of every alternative
  // survives except what canonicalize() rewrites.
  MessageGen gen(GetParam());
  std::set<std::size_t> alternatives;
  std::set<std::uint16_t> eth_types;
  std::set<std::uint8_t> ip_protos;
  bool buffered_packet_out = false;
  for (int i = 0; i < 600; ++i) {
    const Message msg = gen.random_message();
    alternatives.insert(msg.body.index());
    auto note_packet = [&](const Packet& p) {
      eth_types.insert(p.hdr.eth_type);
      if (p.hdr.eth_type == kEthTypeIpv4) ip_protos.insert(p.hdr.ip_proto);
    };
    if (const auto* pin = msg.get_if<PacketIn>()) note_packet(pin->packet);
    if (const auto* po = msg.get_if<PacketOut>()) {
      note_packet(po->packet);
      buffered_packet_out |= po->buffer_id != PacketIn::kNoBuffer;
    }
    auto decoded = decode_framed(encode_framed(msg));
    ASSERT_TRUE(decoded.ok())
        << of::type_name(msg.body) << ": " << decoded.error().to_string();
    EXPECT_EQ(decoded.value(), canonicalize(msg))
        << "seed=" << GetParam() << " i=" << i << " type=" << of::type_name(msg.body);
  }
  EXPECT_EQ(alternatives.size(), std::variant_size_v<MessageBody>);
  EXPECT_EQ(eth_types.size(), 3u); // IPv4, ARP, LLDP-type
  EXPECT_TRUE(ip_protos.count(kIpProtoTcp) && ip_protos.count(kIpProtoUdp));
  EXPECT_GT(ip_protos.size(), 2u); // IPv4 that is neither TCP nor UDP
  EXPECT_TRUE(buffered_packet_out);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Wire10RoundTrip, ::testing::Values(7, 21, 63));

TEST(Wire10, RejectsWrongVersionAndBadLength) {
  auto frame = encode({1, Hello{}});
  frame[0] = 0x04; // OF 1.3
  EXPECT_FALSE(decode(frame, DatapathId{1}).ok());
  frame[0] = 0x01;
  frame.push_back(0);
  EXPECT_FALSE(decode(frame, DatapathId{1}).ok());
}

TEST(Wire10, FuzzNeverCrashes) {
  Rng rng(77);
  for (int i = 0; i < 4000; ++i) {
    std::vector<std::uint8_t> junk(rng.below(160));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    (void)decode(junk, DatapathId{1});
    (void)parse_frame(junk);
  }
}

TEST(Wire10, BitFlipFuzzOnValidFrames) {
  MessageGen gen(31337);
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    auto frame = encode(gen.random_message());
    for (int k = 0; k < 4; ++k)
      frame[rng.below(frame.size())] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    (void)decode(frame, DatapathId{1}); // must not crash/hang
  }
}

TEST(Wire10, PeekFrameContract) {
  const auto frame = encode({9, EchoRequest{0xDEAD}}); // 16 bytes
  std::size_t total = 0;

  // Too short to even read the length field.
  EXPECT_EQ(peek_frame({frame.data(), 0}, &total), FrameStatus::kNeedMore);
  EXPECT_EQ(peek_frame({frame.data(), 3}, &total), FrameStatus::kNeedMore);
  // Header present, body still in flight.
  EXPECT_EQ(peek_frame({frame.data(), kHeaderLen}, &total), FrameStatus::kNeedMore);
  EXPECT_EQ(peek_frame({frame.data(), frame.size() - 1}, &total),
            FrameStatus::kNeedMore);
  // Complete frame (with trailing bytes from the next one).
  auto two = frame;
  two.insert(two.end(), frame.begin(), frame.end());
  EXPECT_EQ(peek_frame(two, &total), FrameStatus::kReady);
  EXPECT_EQ(total, frame.size());

  // Hostile length fields: below the header size, or above the cap.
  auto evil = frame;
  evil[2] = 0;
  evil[3] = 4;
  EXPECT_EQ(peek_frame(evil, &total), FrameStatus::kBad);
  evil[3] = kHeaderLen - 1;
  EXPECT_EQ(peek_frame(evil, &total), FrameStatus::kBad);
  EXPECT_EQ(peek_frame(frame, &total, /*max_frame=*/frame.size() - 1),
            FrameStatus::kBad);
}

TEST(Wire10, LengthFieldFuzzClassifiesEveryMutation) {
  MessageGen gen(2024);
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    auto frame = encode(gen.random_message());
    const auto evil = static_cast<std::uint16_t>(rng.below(0x10000));
    frame[2] = static_cast<std::uint8_t>(evil >> 8);
    frame[3] = static_cast<std::uint8_t>(evil & 0xFF);
    std::size_t total = 0;
    const auto st = peek_frame(frame, &total);
    if (evil < kHeaderLen) {
      EXPECT_EQ(st, FrameStatus::kBad);
    } else if (evil > frame.size()) {
      // Claims more than buffered: reassembly keeps waiting, never over-reads.
      EXPECT_EQ(st, FrameStatus::kNeedMore);
    } else {
      EXPECT_EQ(st, FrameStatus::kReady);
      EXPECT_EQ(total, evil);
      // The framed slice decodes or errors — no crash, no out-of-slice read.
      (void)decode(std::span<const std::uint8_t>(frame.data(), evil),
                   DatapathId{1});
    }
  }
}

TEST(Wire10, TruncatedPrefixDecodeFails) {
  MessageGen gen(5150);
  for (int i = 0; i < 200; ++i) {
    const auto frame = encode(gen.random_message());
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
      EXPECT_FALSE(decode({frame.data(), cut}, DatapathId{1}).ok())
          << "prefix of " << cut << "/" << frame.size() << " bytes decoded";
    }
  }
}

TEST(Wire10, StreamReassemblyRandomChunks) {
  // A byte stream of whole frames, delivered in random-sized chunks, must
  // reassemble into exactly the original frames — the invariant the
  // southbound receive path is built on.
  MessageGen gen(808);
  Rng rng(606);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::vector<std::uint8_t>> frames;
    std::vector<std::uint8_t> stream;
    const std::size_t n = rng.below(8) + 2;
    for (std::size_t i = 0; i < n; ++i) {
      auto bytes = encode(gen.random_message());
      stream.insert(stream.end(), bytes.begin(), bytes.end());
      frames.push_back(std::move(bytes));
    }
    std::vector<std::uint8_t> acc;
    std::size_t recovered = 0;
    std::size_t off = 0;
    while (off < stream.size()) {
      const std::size_t chunk = std::min(rng.below(40) + 1, stream.size() - off);
      acc.insert(acc.end(), stream.begin() + static_cast<long>(off),
                 stream.begin() + static_cast<long>(off + chunk));
      off += chunk;
      for (;;) {
        std::size_t len = 0;
        const auto st = peek_frame(acc, &len);
        ASSERT_NE(st, FrameStatus::kBad);
        if (st != FrameStatus::kReady) break;
        ASSERT_LT(recovered, frames.size());
        EXPECT_EQ(std::vector<std::uint8_t>(acc.begin(),
                                            acc.begin() + static_cast<long>(len)),
                  frames[recovered]);
        acc.erase(acc.begin(), acc.begin() + static_cast<long>(len));
        recovered += 1;
      }
    }
    EXPECT_EQ(recovered, frames.size());
    EXPECT_TRUE(acc.empty());
  }
}

TEST(Wire10, InternetChecksumKnownVectors) {
  // RFC 1071 example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d.
  const std::vector<std::uint8_t> data{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0x220d);
  // Checksum over data + its checksum is zero.
  std::vector<std::uint8_t> with_sum = data;
  with_sum.push_back(0x22);
  with_sum.push_back(0x0d);
  EXPECT_EQ(internet_checksum(with_sum), 0);
}

// ---------------------------------------------------------------------------
// Actions and the internal dpid framing
// ---------------------------------------------------------------------------

TEST(Actions, RoundTripAllKinds) {
  FlowMod mod;
  mod.dpid = DatapathId{3};
  mod.actions = {
      ActionOutput{PortNo{7}},
      ActionSetEthSrc{MacAddress::from_uint64(0xAAA)},
      ActionSetEthDst{MacAddress::from_uint64(0xBBB)},
      ActionSetIpSrc{IpV4::from_octets(1, 2, 3, 4)},
      ActionSetIpDst{IpV4::from_octets(5, 6, 7, 8)},
      ActionSetTpSrc{1234},
      ActionSetTpDst{80},
  };
  auto decoded = decode_framed(encode_framed({1, mod}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), (Message{1, mod}));
  mod.actions.clear(); // the empty list (drop) survives too
  decoded = decode_framed(encode_framed({2, mod}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), (Message{2, mod}));
}

TEST(Codec, HeaderFields) {
  // The framing is a pure prefix: u64 dpid, then exactly encode()'s frame.
  // decode_framed() hands the dpid back to every dpid-bearing alternative.
  MessageGen gen(3);
  for (int i = 0; i < 200; ++i) {
    const Message msg = gen.random_message();
    const auto framed = encode_framed(msg);
    ByteReader r(framed);
    EXPECT_EQ(DatapathId{r.u64()}, dpid_of(msg.body));
    EXPECT_EQ(std::vector<std::uint8_t>(framed.begin() + 8, framed.end()), encode(msg));
    auto decoded = decode_framed(framed);
    ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
    EXPECT_EQ(decoded.value().xid, msg.xid);
    EXPECT_EQ(dpid_of(decoded.value().body), dpid_of(msg.body));
  }
}

TEST(Codec, EncodedSizeMatchesEncodeForFlowMods) {
  // encoded_size() is the arithmetic twin of encode() that NetLog's
  // undo-byte accounting uses on the hot path; any drift between the two
  // silently corrupts undo_bytes_peak. Sweep random mods plus one mod
  // carrying every action kind.
  MessageGen gen(77);
  for (int i = 0; i < 200; ++i) {
    const FlowMod mod = gen.random_flow_mod(64);
    EXPECT_EQ(encoded_size(mod), encode({std::uint32_t(i), mod}).size());
  }
  FlowMod all;
  all.dpid = DatapathId{3};
  all.match = gen.random_match();
  all.actions = {
      ActionOutput{PortNo{7}},
      ActionSetEthSrc{MacAddress::from_uint64(0xAAA)},
      ActionSetEthDst{MacAddress::from_uint64(0xBBB)},
      ActionSetIpSrc{IpV4::from_octets(1, 2, 3, 4)},
      ActionSetIpDst{IpV4::from_octets(5, 6, 7, 8)},
      ActionSetTpSrc{1234},
      ActionSetTpDst{80},
  };
  EXPECT_EQ(encoded_size(all), encode({9, all}).size());
  all.actions.clear();
  EXPECT_EQ(encoded_size(all), encode({9, all}).size());
}

TEST(Codec, RejectsBadVersion) {
  auto bytes = encode_framed({1, BarrierRequest{DatapathId{4}}});
  bytes[8] = 9; // the OF header's version byte
  EXPECT_FALSE(decode_framed(bytes).ok());
  // A dpid prefix cut short is no frame at all.
  EXPECT_FALSE(decode_framed(std::vector<std::uint8_t>(7, 0)).ok());
}

TEST(Codec, RejectsLengthMismatch) {
  auto bytes = encode_framed({1, EchoRequest{7}});
  bytes.push_back(0); // trailing garbage breaks the declared length
  EXPECT_FALSE(decode_framed(bytes).ok());
}

TEST(Codec, RejectsTruncatedBody) {
  // No actions: a cut between two actions would leave a valid, shorter list.
  const auto bytes = encode_framed({1, FlowMod{}});
  for (std::size_t cut = 8 + kHeaderLen; cut + 1 < bytes.size(); ++cut) {
    std::vector<std::uint8_t> shortened(bytes.begin(),
                                        bytes.begin() + static_cast<long>(cut));
    // fix up length so only the body truncation is at fault
    shortened[10] = static_cast<std::uint8_t>((cut - 8) >> 8);
    shortened[11] = static_cast<std::uint8_t>(cut - 8);
    EXPECT_FALSE(decode_framed(shortened).ok()) << "cut=" << cut;
  }
}

TEST(Codec, DecodeNeverCrashesOnRandomBytes) {
  // Random bodies behind a well-formed dpid and header reach every body
  // parser (pure junk mostly stops at the header checks).
  Rng rng(4242);
  for (int i = 0; i < 4000; ++i) {
    const std::size_t body = rng.below(256);
    ByteWriter w;
    w.u64(rng.next());
    w.u8(kVersion);
    w.u8(static_cast<std::uint8_t>(rng.below(20))); // every OF 1.0 type
    w.u16(static_cast<std::uint16_t>(kHeaderLen + body));
    w.u32(static_cast<std::uint32_t>(rng.next()));
    for (std::size_t k = 0; k < body; ++k)
      w.u8(static_cast<std::uint8_t>(rng.below(256)));
    (void)decode_framed(w.span()); // must not crash or hang
  }
}

TEST(Codec, StreamDecodingSplitsFrames) {
  // Frames fed in awkward chunk sizes split at peek_frame() and decode back
  // to the messages sent (up to canonicalize()).
  MessageGen gen(55);
  std::vector<Message> sent;
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 20; ++i) {
    sent.push_back(gen.random_message());
    const auto bytes = encode(sent.back());
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  std::vector<std::uint8_t> buffer;
  std::vector<Message> got;
  std::size_t pos = 0;
  Rng rng(66);
  while (pos < stream.size()) {
    const std::size_t n = std::min<std::size_t>(1 + rng.below(13), stream.size() - pos);
    buffer.insert(buffer.end(), stream.begin() + static_cast<long>(pos),
                  stream.begin() + static_cast<long>(pos + n));
    pos += n;
    std::size_t len = 0;
    while (peek_frame(buffer, &len) == FrameStatus::kReady) {
      const DatapathId dpid = dpid_of(sent[got.size()].body);
      auto msg = decode({buffer.data(), len}, dpid);
      ASSERT_TRUE(msg.ok()) << msg.error().to_string();
      got.push_back(std::move(msg).value());
      buffer.erase(buffer.begin(), buffer.begin() + static_cast<long>(len));
    }
  }
  EXPECT_TRUE(buffer.empty());
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) EXPECT_EQ(got[i], canonicalize(sent[i]));
}

} // namespace
} // namespace legosdn::of::wire10
