// Crash-Pad component tests: recovery policies + policy language, event
// transformations, and problem tickets.
#include <gtest/gtest.h>

#include "crashpad/policy.hpp"
#include "crashpad/ticket.hpp"
#include "crashpad/transform.hpp"
#include "helpers.hpp"

namespace legosdn::crashpad {
namespace {

TEST(Policy, DefaultIsAbsolute) {
  PolicyTable table;
  EXPECT_EQ(table.lookup("anything", ctl::EventType::kPacketIn),
            RecoveryPolicy::kAbsoluteCompromise);
}

TEST(Policy, FirstMatchingRuleWins) {
  PolicyTable table;
  table.add_rule({"firewall", std::nullopt, RecoveryPolicy::kNoCompromise});
  table.add_rule({"*", ctl::EventType::kSwitchDown,
                  RecoveryPolicy::kEquivalenceCompromise});
  EXPECT_EQ(table.lookup("firewall", ctl::EventType::kSwitchDown),
            RecoveryPolicy::kNoCompromise); // firewall rule first
  EXPECT_EQ(table.lookup("router", ctl::EventType::kSwitchDown),
            RecoveryPolicy::kEquivalenceCompromise);
  EXPECT_EQ(table.lookup("router", ctl::EventType::kPacketIn),
            RecoveryPolicy::kAbsoluteCompromise);
}

TEST(Policy, ParseValidProgram) {
  const char* text = R"(
# security apps may never compromise correctness
app=firewall event=* policy=no-compromise
app=* event=switch-down policy=equivalence

default=absolute
)";
  auto table = PolicyTable::parse(text);
  ASSERT_TRUE(table.ok()) << table.error().to_string();
  EXPECT_EQ(table.value().rules().size(), 2u);
  EXPECT_EQ(table.value().lookup("firewall", ctl::EventType::kPacketIn),
            RecoveryPolicy::kNoCompromise);
  EXPECT_EQ(table.value().lookup("router", ctl::EventType::kSwitchDown),
            RecoveryPolicy::kEquivalenceCompromise);
  EXPECT_EQ(table.value().lookup("router", ctl::EventType::kPacketIn),
            RecoveryPolicy::kAbsoluteCompromise);
}

TEST(Policy, ParseErrorsCarryLineNumbers) {
  auto bad = PolicyTable::parse("app=x event=* policy=bogus");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().message.find("line 1"), std::string::npos);
  EXPECT_NE(bad.error().message.find("bogus"), std::string::npos);

  bad = PolicyTable::parse("\napp=x event=no-such-event policy=absolute");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().message.find("line 2"), std::string::npos);

  bad = PolicyTable::parse("app=x event=*");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().message.find("missing policy"), std::string::npos);

  bad = PolicyTable::parse("frobnicate=yes policy=absolute");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().message.find("unknown key"), std::string::npos);
}

TEST(Policy, TextRoundTrip) {
  PolicyTable table(RecoveryPolicy::kNoCompromise);
  table.add_rule({"lb", ctl::EventType::kPacketIn, RecoveryPolicy::kAbsoluteCompromise});
  table.add_rule({"*", ctl::EventType::kLinkDown,
                  RecoveryPolicy::kEquivalenceCompromise});
  auto reparsed = PolicyTable::parse(table.to_text());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().default_policy(), RecoveryPolicy::kNoCompromise);
  ASSERT_EQ(reparsed.value().rules().size(), 2u);
  EXPECT_EQ(reparsed.value().lookup("lb", ctl::EventType::kPacketIn),
            RecoveryPolicy::kAbsoluteCompromise);
  EXPECT_EQ(reparsed.value().lookup("x", ctl::EventType::kLinkDown),
            RecoveryPolicy::kEquivalenceCompromise);
  EXPECT_EQ(reparsed.value().lookup("x", ctl::EventType::kPacketIn),
            RecoveryPolicy::kNoCompromise);
}

TEST(Policy, NameConversions) {
  for (auto p : {RecoveryPolicy::kAbsoluteCompromise, RecoveryPolicy::kNoCompromise,
                 RecoveryPolicy::kEquivalenceCompromise}) {
    auto back = policy_from_string(to_string(p));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
  }
  EXPECT_FALSE(policy_from_string("nonsense").has_value());
}

TEST(Transform, SwitchDownBecomesLinkDowns) {
  auto net = netsim::Network::star(3, 1); // core s1 with 3 leaves
  EventTransformer tr(*net);
  auto out = tr.equivalent(ctl::Event{ctl::SwitchDown{DatapathId{1}}});
  ASSERT_EQ(out.size(), 3u); // one per attached link
  for (const auto& e : out) {
    const auto* ld = std::get_if<ctl::LinkDown>(&e);
    ASSERT_NE(ld, nullptr);
    EXPECT_TRUE(ld->a.dpid == DatapathId{1} || ld->b.dpid == DatapathId{1});
  }
}

TEST(Transform, LinkDownBecomesSwitchDown) {
  auto net = netsim::Network::linear(2, 1);
  EventTransformer tr(*net);
  auto out = tr.equivalent(
      ctl::Event{ctl::LinkDown{{DatapathId{1}, PortNo{3}}, {DatapathId{2}, PortNo{2}}}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(std::get<ctl::SwitchDown>(out[0]).dpid, DatapathId{1});
}

TEST(Transform, PortDownBecomesSwitchDown) {
  auto net = netsim::Network::linear(2, 1);
  EventTransformer tr(*net);
  of::PortStatus ps;
  ps.dpid = DatapathId{2};
  ps.desc.link_up = false;
  auto out = tr.equivalent(ctl::Event{ps});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(std::get<ctl::SwitchDown>(out[0]).dpid, DatapathId{2});
  // Port *up* has no equivalent.
  ps.desc.link_up = true;
  EXPECT_TRUE(tr.equivalent(ctl::Event{ps}).empty());
}

TEST(Transform, PacketInHasNoEquivalent) {
  auto net = netsim::Network::linear(2, 1);
  EventTransformer tr(*net);
  EXPECT_TRUE(tr.equivalent(ctl::Event{of::PacketIn{}}).empty());
}

TEST(Transform, IsolatedSwitchYieldsNoEvents) {
  auto net = std::make_unique<netsim::Network>();
  net->add_switch(DatapathId{1}, 2);
  EventTransformer tr(*net);
  EXPECT_TRUE(tr.equivalent(ctl::Event{ctl::SwitchDown{DatapathId{1}}}).empty());
}

TEST(Tickets, FileAndQuery) {
  TicketLog log;
  ProblemTicket t;
  t.app = "router";
  t.offending_event = "switch-down s3";
  t.crash_info = "AppCrash: null topology entry";
  t.policy_applied = "equivalence";
  t.at = from_ms(100);
  const auto id1 = log.file(t);
  t.app = "firewall";
  const auto id2 = log.file(t);
  EXPECT_EQ(id1, 1u);
  EXPECT_EQ(id2, 2u);
  EXPECT_EQ(log.count(), 2u);
  EXPECT_EQ(log.for_app("router").size(), 1u);
  EXPECT_EQ(log.for_app("nobody").size(), 0u);
  const std::string rendered = log.all()[0].to_string();
  EXPECT_NE(rendered.find("router"), std::string::npos);
  EXPECT_NE(rendered.find("switch-down s3"), std::string::npos);
  EXPECT_NE(rendered.find("equivalence"), std::string::npos);
}

TEST(Tickets, LogKeepsTheNewestWindowAndCountsEveryFiling) {
  TicketLog log;
  constexpr std::size_t kExtra = 37;
  const std::size_t filed = TicketLog::kCapacity + kExtra;
  for (std::size_t i = 0; i < filed; ++i) {
    ProblemTicket t;
    t.app = i % 2 ? "odd" : "even";
    t.event_seq = i;
    EXPECT_EQ(log.file(std::move(t)), i + 1); // ids stay monotonic past eviction
  }
  EXPECT_EQ(log.count(), filed);
  ASSERT_EQ(log.all().size(), TicketLog::kCapacity);
  // The oldest kExtra tickets were evicted; the rest are in filing order.
  for (std::size_t k = 0; k < TicketLog::kCapacity; ++k) {
    EXPECT_EQ(log.all()[k].id, kExtra + k + 1);
    EXPECT_EQ(log.all()[k].event_seq, kExtra + k);
  }
  const auto odd = log.for_app("odd");
  ASSERT_EQ(odd.size(), TicketLog::kCapacity / 2);
  EXPECT_EQ(odd.front().event_seq, kExtra); // the oldest odd one kept
  EXPECT_EQ(odd.back().event_seq, filed - 2); // the newest odd one
}

} // namespace
} // namespace legosdn::crashpad
