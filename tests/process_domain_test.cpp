// Process-isolation backend tests: real fork()ed stubs over UDP loopback.
// These exercise the paper's actual architecture — a crashing app is a dying
// OS process, detected and recovered by the proxy.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>

#include <functional>

#include "appvisor/process_domain.hpp"
#include "appvisor/udp_channel.hpp"
#include "apps/fault_injection.hpp"
#include "apps/hub.hpp"
#include "apps/learning_switch.hpp"
#include "common/rng.hpp"
#include "helpers.hpp"

namespace legosdn::appvisor {
namespace {

of::PacketIn sample_packet_in(std::uint16_t tp_dst = 80) {
  of::PacketIn pin;
  pin.dpid = DatapathId{1};
  pin.in_port = PortNo{1};
  pin.packet = legosdn::test::packet_between(MacAddress::from_uint64(1),
                                             MacAddress::from_uint64(2), tp_dst);
  return pin;
}

TEST(UdpChannel, SmallFrameRoundTrip) {
  UdpChannel a, b;
  ASSERT_TRUE(a.open());
  ASSERT_TRUE(b.open());
  const std::vector<std::uint8_t> msg{1, 2, 3, 4, 5};
  ASSERT_TRUE(a.send_frame({0, b.local_port()}, msg));
  auto rcv = b.recv_frame(1000);
  ASSERT_TRUE(rcv.ok());
  EXPECT_EQ(rcv.value().frame, msg);
  EXPECT_EQ(rcv.value().from.port, a.local_port());
}

TEST(UdpChannel, LargeFrameIsFragmentedAndReassembled) {
  UdpChannel a, b;
  ASSERT_TRUE(a.open());
  ASSERT_TRUE(b.open());
  // 1 MiB frame: far beyond any UDP datagram.
  std::vector<std::uint8_t> big(1 << 20);
  Rng rng(5);
  for (auto& x : big) x = static_cast<std::uint8_t>(rng.below(256));
  ASSERT_TRUE(a.send_frame({0, b.local_port()}, big));
  auto rcv = b.recv_frame(5000);
  ASSERT_TRUE(rcv.ok());
  EXPECT_EQ(rcv.value().frame, big);
}

TEST(UdpChannel, RecvTimesOutCleanly) {
  UdpChannel a;
  ASSERT_TRUE(a.open());
  auto rcv = a.recv_frame(50);
  ASSERT_FALSE(rcv.ok());
  EXPECT_EQ(rcv.error().code, Error::Code::kTimeout);
}

TEST(UdpChannel, EmptyFrame) {
  UdpChannel a, b;
  ASSERT_TRUE(a.open());
  ASSERT_TRUE(b.open());
  ASSERT_TRUE(a.send_frame({0, b.local_port()}, {}));
  auto rcv = b.recv_frame(1000);
  ASSERT_TRUE(rcv.ok());
  EXPECT_TRUE(rcv.value().frame.empty());
}

TEST(ProcessDomain, StartDeliverShutdown) {
  ProcessDomain d(std::make_shared<apps::Hub>());
  ASSERT_TRUE(d.start());
  EXPECT_TRUE(d.alive());
  EXPECT_GT(d.child_pid(), 0);

  auto out = d.deliver(ctl::Event{sample_packet_in()}, from_ms(1));
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.disposition, ctl::Disposition::kStop);
  ASSERT_EQ(out.emitted.size(), 1u);
  EXPECT_NE(out.emitted[0].get_if<of::PacketOut>(), nullptr);

  d.shutdown();
  EXPECT_FALSE(d.alive());
}

TEST(ProcessDomain, RealCrashIsDetectedAndControllerSurvives) {
  apps::CrashTrigger t;
  t.on_tp_dst = 666;
  ProcessDomain d(
      std::make_shared<apps::CrashyApp>(std::make_shared<apps::Hub>(), t));
  ASSERT_TRUE(d.start());
  const pid_t pid_before = d.child_pid();

  // Benign event: fine.
  EXPECT_TRUE(d.deliver(ctl::Event{sample_packet_in(80)}, kSimStart).ok());

  // Poison event: the child process dies for real.
  auto out = d.deliver(ctl::Event{sample_packet_in(666)}, kSimStart);
  EXPECT_EQ(out.kind, EventOutcome::Kind::kCrashed);
  EXPECT_NE(out.crash_info.find("crashed on"), std::string::npos);
  EXPECT_FALSE(d.alive());
  // We (the proxy) are obviously still running — that's the whole point.

  // Restart respawns a fresh process.
  ASSERT_TRUE(d.restart());
  EXPECT_TRUE(d.alive());
  EXPECT_NE(d.child_pid(), pid_before);
  EXPECT_TRUE(d.deliver(ctl::Event{sample_packet_in(80)}, kSimStart).ok());
  d.shutdown();
}

TEST(ProcessDomain, SnapshotAndRestoreAcrossRespawn) {
  // Learning switch in a process: teach it a MAC, snapshot, crash it,
  // restore — the knowledge must survive the process boundary.
  apps::CrashTrigger t;
  t.on_tp_dst = 666;
  auto ls = std::make_shared<apps::LearningSwitch>();
  ProcessDomain d(std::make_shared<apps::CrashyApp>(ls, t));
  ASSERT_TRUE(d.start());

  // Teach: a packet from host A on port 1 (handled in the child).
  of::PacketIn teach = sample_packet_in(80);
  ASSERT_TRUE(d.deliver(ctl::Event{teach}, kSimStart).ok());

  auto snap = d.snapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_FALSE(snap.value().empty());

  // Kill it with the poison event, then restore the snapshot.
  auto out = d.deliver(ctl::Event{sample_packet_in(666)}, kSimStart);
  EXPECT_EQ(out.kind, EventOutcome::Kind::kCrashed);
  ASSERT_TRUE(d.restore(snap.value()));
  EXPECT_TRUE(d.alive());

  // The restored app must still know host A: a packet *to* A from elsewhere
  // gets a targeted packet-out (+flow-mod), not a flood.
  of::PacketIn reply = sample_packet_in(80);
  reply.in_port = PortNo{2};
  reply.packet.hdr.eth_src = MacAddress::from_uint64(2);
  reply.packet.hdr.eth_dst = MacAddress::from_uint64(1);
  auto out2 = d.deliver(ctl::Event{reply}, kSimStart);
  ASSERT_TRUE(out2.ok());
  bool installed_rule = false;
  for (const auto& m : out2.emitted)
    if (m.is<of::FlowMod>()) installed_rule = true;
  EXPECT_TRUE(installed_rule) << "restored state was lost across respawn";
  d.shutdown();
}

TEST(ProcessDomain, RestoreOfDeadDomainRespawns) {
  apps::CrashTrigger t;
  t.on_type = ctl::EventType::kPacketIn;
  ProcessDomain d(
      std::make_shared<apps::CrashyApp>(std::make_shared<apps::Hub>(), t));
  ASSERT_TRUE(d.start());
  auto out = d.deliver(ctl::Event{sample_packet_in()}, kSimStart);
  EXPECT_EQ(out.kind, EventOutcome::Kind::kCrashed);
  // restore with empty state = respawn fresh.
  ASSERT_TRUE(d.restore({}));
  EXPECT_TRUE(d.alive());
  d.shutdown();
}

TEST(ProcessDomain, SubscriptionsComeFromTemplate) {
  ProcessDomain d(std::make_shared<apps::LearningSwitch>());
  auto subs = d.subscriptions();
  EXPECT_NE(std::find(subs.begin(), subs.end(), ctl::EventType::kPacketIn),
            subs.end());
  EXPECT_EQ(d.app_name(), "learning-switch");
}

TEST(ProcessDomain, PollLivenessDetectsExternalKill) {
  ProcessDomain d(std::make_shared<apps::Hub>());
  ASSERT_TRUE(d.start());
  EXPECT_TRUE(d.poll_liveness());

  // The stub is murdered from outside (OOM-killer stand-in).
  ::kill(d.child_pid(), SIGKILL);
  for (int i = 0; i < 200 && d.poll_liveness(); ++i) ::usleep(1000);
  EXPECT_FALSE(d.poll_liveness());
  EXPECT_FALSE(d.alive());

  // Restart brings a fresh stub back.
  ASSERT_TRUE(d.restart());
  EXPECT_TRUE(d.poll_liveness());
  d.shutdown();
}

TEST(ProcessDomain, HeartbeatsArriveWhileIdle) {
  ProcessDomain::Config cfg;
  cfg.heartbeat_interval_ms = 20;
  ProcessDomain d(std::make_shared<apps::Hub>(), cfg);
  ASSERT_TRUE(d.start());
  // Idle for several heartbeat periods, then drain: a beat must have landed.
  ::usleep(120 * 1000);
  EXPECT_TRUE(d.poll_liveness());
  EXPECT_GE(d.ms_since_heartbeat(), 0);
  EXPECT_LT(d.ms_since_heartbeat(), 1000);
  d.shutdown();
}

TEST(ProcessDomain, ManySequentialEvents) {
  ProcessDomain d(std::make_shared<apps::Hub>());
  ASSERT_TRUE(d.start());
  for (int i = 0; i < 100; ++i) {
    auto out = d.deliver(ctl::Event{sample_packet_in()}, from_ms(i));
    ASSERT_TRUE(out.ok()) << "event " << i << ": " << out.crash_info;
  }
  d.shutdown();
}

// ---------------------------------------------------------------------------
// The proxy's state mirror: snapshot() must return exactly the stub's state.
// ---------------------------------------------------------------------------

/// Seeded packet-ins from 300 hosts over 4 switches (the LearningSwitch
/// table both grows and relearns), with an occasional switch-down.
ctl::Event mirror_event(Rng& rng) {
  const DatapathId dpid{rng.below(4) + 1};
  if (rng.chance(0.01)) return ctl::SwitchDown{dpid};
  of::PacketIn pin;
  pin.dpid = dpid;
  pin.in_port = PortNo{static_cast<std::uint16_t>(rng.below(4) + 1)};
  pin.packet = legosdn::test::packet_between(MacAddress::from_uint64(rng.below(300) + 1),
                                             MacAddress::from_uint64(rng.below(300) + 1));
  return pin;
}

enum class Pattern {
  kEveryEvent,    ///< capture-then-deliver pairs
  kEveryThird,    ///< a capture before every third event
  kCrashRecovery, ///< pairs, with the stub killed every 7th event
};

/// Drives a ProcessDomain and a local reference app with the same delivered
/// events, and checks every successful snapshot() against the reference.
/// Returns how many snapshots were checked.
int check_mirror(const std::function<ctl::AppPtr()>& make, Pattern pattern,
                 bool faulty, std::uint64_t seed) {
  ProcessDomain::Config cfg;
  cfg.retry_initial_timeout_ms = 20;
  cfg.retry_max = 10;
  if (faulty) {
    cfg.faults.drop = 0.08;
    cfg.faults.duplicate = 0.08;
    cfg.faults.reorder = 0.08;
    cfg.faults.seed = seed;
  }
  ProcessDomain d(make(), cfg);
  EXPECT_TRUE(d.start());
  ctl::AppPtr ref = make();
  std::vector<std::uint8_t> last_snap;
  Rng rng(seed);
  int checked = 0, recoveries = 0;
  std::uint32_t xid = 1;
  for (int i = 0; i < 150; ++i) {
    bool failed = false;
    if (pattern != Pattern::kEveryThird || i % 3 == 0) {
      auto snap = d.snapshot();
      if (snap.ok()) {
        const bool exact = snap.value() == ref->snapshot_state();
        EXPECT_TRUE(exact) << ref->name() << ": snapshot before event " << i
                           << " differs from the reference";
        if (!exact) return -1;
        last_snap = std::move(snap).value();
        checked += 1;
      } else {
        failed = true;
      }
    }
    const ctl::Event ev = mirror_event(rng);
    if (!failed) {
      if (pattern == Pattern::kCrashRecovery && i % 7 == 6 && d.child_pid() > 0)
        ::kill(d.child_pid(), SIGKILL);
      const auto out = d.deliver(ev, kSimStart);
      if (out.ok()) {
        CollectingServiceApi api(kSimStart, &xid);
        ref->handle_event(ev, api);
        continue;
      }
    }
    // Only an injected crash or a lossy channel may fail a call. Recover
    // by restoring the last snapshot or by a fresh restart, in turn; either
    // way the stub is a new process.
    EXPECT_TRUE(pattern == Pattern::kCrashRecovery || faulty) << "event " << i;
    ref = make();
    if (recoveries++ % 2 == 0 && !last_snap.empty() && d.restore(last_snap)) {
      ref->restore_state(last_snap);
    } else {
      EXPECT_TRUE(d.restart()) << "event " << i;
    }
  }
  if (pattern == Pattern::kCrashRecovery) {
    EXPECT_GE(recoveries, 20);
  }
  d.shutdown();
  return checked;
}

const std::function<ctl::AppPtr()> kMirrorApps[] = {
    [] { return std::make_shared<apps::LearningSwitch>(); },
    [] { return std::make_shared<apps::StatefulApp>(64 * 1024, 1); },
};

TEST(StateMirror, SnapshotsMatchReferenceOnCleanChannel) {
  for (const auto& make : kMirrorApps) {
    const std::string app = make()->name();
    EXPECT_EQ(check_mirror(make, Pattern::kEveryEvent, false, 1), 150) << app;
    EXPECT_EQ(check_mirror(make, Pattern::kEveryThird, false, 2), 50) << app;
    EXPECT_GT(check_mirror(make, Pattern::kCrashRecovery, false, 3), 100) << app;
  }
}

TEST(StateMirror, SnapshotsMatchReferenceOnLossyChannel) {
  for (const auto& make : kMirrorApps) {
    const std::string app = make()->name();
    EXPECT_GT(check_mirror(make, Pattern::kEveryEvent, true, 11), 100) << app;
    EXPECT_GT(check_mirror(make, Pattern::kEveryThird, true, 12), 30) << app;
    EXPECT_GT(check_mirror(make, Pattern::kCrashRecovery, true, 13), 80) << app;
  }
}

// A per-event checkpoint over a healthy stub costs one RPC: the deliver. The
// snapshot() before it copies the mirror the previous deliver's reply synced.
TEST(StateMirror, OneRpcPerCheckpointedEvent) {
  for (const auto& make : kMirrorApps) {
    ProcessDomain d(make());
    ASSERT_TRUE(d.start());
    Rng rng(5);
    for (int i = 0; i < 60; ++i) {
      const std::uint64_t before = d.transport_stats()->rpc_calls;
      ASSERT_TRUE(d.snapshot().ok());
      ASSERT_TRUE(d.deliver(mirror_event(rng), kSimStart).ok());
      // The first capture re-bases the mirror with a kSnapshotRequest.
      EXPECT_EQ(d.transport_stats()->rpc_calls - before, i == 0 ? 2u : 1u)
          << make()->name() << " pair " << i;
    }
    // A deliver without a capture before it leaves the mirror stale.
    ASSERT_TRUE(d.deliver(mirror_event(rng), kSimStart).ok());
    const std::uint64_t before = d.transport_stats()->rpc_calls;
    ASSERT_TRUE(d.snapshot().ok());
    EXPECT_EQ(d.transport_stats()->rpc_calls - before, 1u);
    d.shutdown();
  }
}

// restore() and restart() change the stub's state under a valid mirror;
// the next snapshot() must see the new state, not the mirror.
TEST(StateMirror, RestoreAndRestartInvalidateMirror) {
  ProcessDomain d(std::make_shared<apps::LearningSwitch>());
  ASSERT_TRUE(d.start());
  Rng rng(7);
  auto empty = d.snapshot();
  ASSERT_TRUE(empty.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(d.snapshot().ok());
    ASSERT_TRUE(d.deliver(mirror_event(rng), kSimStart).ok());
  }
  auto learned = d.snapshot();
  ASSERT_TRUE(learned.ok());
  ASSERT_NE(learned.value(), empty.value());

  ASSERT_TRUE(d.restore(empty.value()));
  auto after_restore = d.snapshot();
  ASSERT_TRUE(after_restore.ok());
  EXPECT_EQ(after_restore.value(), empty.value());

  ASSERT_TRUE(d.deliver(mirror_event(rng), kSimStart).ok()); // mirror valid again
  ASSERT_TRUE(d.restart());
  auto after_restart = d.snapshot();
  ASSERT_TRUE(after_restart.ok());
  EXPECT_EQ(after_restart.value(), empty.value());
  d.shutdown();
}

// A kSnapshotRequest's reply becomes the stub's shipped copy, so the next
// delta is diffed against it. Here the event after the request moves a host
// back to the port of an older ship: a delta against that older copy would
// be empty and leave the mirror on the request's state.
TEST(StateMirror, SnapshotRequestRebasesStubCopy) {
  ProcessDomain d(std::make_shared<apps::LearningSwitch>());
  ASSERT_TRUE(d.start());
  apps::LearningSwitch ref;
  std::uint32_t xid = 1;
  auto deliver_from_port = [&](std::uint16_t port) {
    of::PacketIn pin = sample_packet_in();
    pin.in_port = PortNo{port};
    const ctl::Event ev{pin};
    CollectingServiceApi api(kSimStart, &xid);
    ref.handle_event(ev, api);
    return d.deliver(ev, kSimStart).ok();
  };
  ASSERT_TRUE(d.snapshot().ok());
  ASSERT_TRUE(deliver_from_port(1)); // ships
  ASSERT_TRUE(deliver_from_port(2)); // not captured: the mirror goes stale
  auto moved = d.snapshot();         // kSnapshotRequest
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved.value(), ref.snapshot_state());
  ASSERT_TRUE(deliver_from_port(1)); // ships
  auto back = d.snapshot();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), ref.snapshot_state());
  d.shutdown();
}

TEST(StateMirror, SnapshotOfDeadStubFailsDespiteMirror) {
  ProcessDomain d(std::make_shared<apps::LearningSwitch>());
  ASSERT_TRUE(d.start());
  Rng rng(6);
  ASSERT_TRUE(d.snapshot().ok());
  ASSERT_TRUE(d.deliver(mirror_event(rng), kSimStart).ok()); // mirror now valid
  ASSERT_GT(d.child_pid(), 0);
  ::kill(d.child_pid(), SIGKILL);
  for (int i = 0; i < 200 && d.poll_liveness(); ++i) ::usleep(1000);
  ASSERT_FALSE(d.alive());
  auto snap = d.snapshot();
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.error().code, Error::Code::kCrashed);
  d.shutdown();
}

} // namespace
} // namespace legosdn::appvisor
