// Experiment C8 (§3.4 "Software and Data Diversity" + §5 clones).
//
// Measures (a) the fault-masking rate of N-version ensembles with one buggy
// replica, (b) the per-event voting overhead vs a single domain, and (c) the
// clone failover rate under transient (non-deterministic) bugs.
#include "appvisor/inprocess_domain.hpp"
#include "apps/fault_injection.hpp"
#include "apps/hub.hpp"
#include "apps/learning_switch.hpp"
#include "bench_util.hpp"
#include "legosdn/diversity.hpp"

namespace {

using namespace legosdn;

ctl::Event make_packet_in(std::uint64_t i, std::uint16_t tp_dst) {
  of::PacketIn pin;
  pin.dpid = DatapathId{1};
  pin.in_port = PortNo{1};
  pin.packet.hdr.eth_src = MacAddress::from_uint64(0x100 + i % 16);
  pin.packet.hdr.eth_dst = MacAddress::from_uint64(0x200 + i % 16);
  pin.packet.hdr.tp_dst = tp_dst;
  return pin;
}

appvisor::DomainPtr healthy() {
  return std::make_unique<appvisor::InProcessDomain>(
      std::make_shared<apps::LearningSwitch>());
}

appvisor::DomainPtr buggy(bool deterministic) {
  apps::CrashTrigger t;
  t.on_tp_dst = 666;
  t.deterministic = deterministic;
  return std::make_unique<appvisor::InProcessDomain>(std::make_shared<apps::CrashyApp>(
      std::make_shared<apps::LearningSwitch>(), t));
}

} // namespace

int main() {
  bench::section("C8a: N-version voting — masking a buggy replica (§3.4)");
  {
    bench::Table table({"ensemble", "events", "poison events", "masked", "no-majority",
                        "events serviced"});
    for (const std::size_t n : {3u, 5u}) {
      std::vector<appvisor::DomainPtr> replicas;
      replicas.push_back(buggy(true)); // one faulty version
      for (std::size_t i = 1; i < n; ++i) replicas.push_back(healthy());
      lego::DiversityDomain ens("lsw-" + std::to_string(n) + "v", std::move(replicas));
      ens.start();
      std::uint64_t serviced = 0, poison = 0;
      Rng rng(9);
      constexpr int kEvents = 2000;
      for (int i = 0; i < kEvents; ++i) {
        const bool is_poison = rng.chance(0.02);
        if (is_poison) poison += 1;
        auto out = ens.deliver(make_packet_in(i, is_poison ? 666 : 80), kSimStart);
        if (out.ok()) serviced += 1;
        // Heal the crashed replica between rounds, as Crash-Pad would.
        if (!out.ok() || is_poison) ens.restore({});
      }
      table.row({std::to_string(n) + "-version", std::to_string(kEvents),
                 std::to_string(poison),
                 std::to_string(ens.vote_stats().masked_crashes),
                 std::to_string(ens.vote_stats().no_majority),
                 bench::fmt_pct(double(serviced) / kEvents)});
    }
    table.print();
    std::printf("\n");
    bench::note("Shape: every poison event is masked by the healthy majority; the");
    bench::note("ensemble services ~100% of events despite a permanently buggy member.");
  }

  bench::section("C8b: voting overhead per event");
  {
    bench::Table table({"configuration", "per-event (us, p50)", "relative"});
    double base = 0;
    for (const std::size_t n : {1u, 3u, 5u, 7u}) {
      Histogram us;
      if (n == 1) {
        auto d = healthy();
        d->start();
        for (int i = 0; i < 3000; ++i) {
          bench::Stopwatch sw;
          sw.start();
          d->deliver(make_packet_in(i, 80), kSimStart);
          if (i > 200) us.add(sw.elapsed_us());
        }
      } else {
        std::vector<appvisor::DomainPtr> replicas;
        for (std::size_t i = 0; i < n; ++i) replicas.push_back(healthy());
        lego::DiversityDomain ens("x", std::move(replicas));
        ens.start();
        for (int i = 0; i < 3000; ++i) {
          bench::Stopwatch sw;
          sw.start();
          ens.deliver(make_packet_in(i, 80), kSimStart);
          if (i > 200) us.add(sw.elapsed_us());
        }
      }
      const double p50 = us.percentile(50);
      if (n == 1) base = p50;
      table.row({n == 1 ? "single domain" : std::to_string(n) + "-version ensemble",
                 bench::fmt(p50), bench::fmt(p50 / base, 1) + "x"});
    }
    table.print();
    std::printf("\n");
    bench::note("Shape: voting cost scales ~linearly with the replica count (every");
    bench::note("replica processes every event, plus fingerprint comparison).");
  }

  bench::section("C8c: clone failover under transient bugs (§5)");
  {
    bench::Table table({"poison rate", "events", "failovers", "events serviced"});
    for (const double rate : {0.01, 0.05, 0.20}) {
      lego::CloneDomain cd(buggy(false), healthy());
      cd.start();
      Rng rng(17);
      std::uint64_t serviced = 0;
      constexpr int kEvents = 1000;
      for (int i = 0; i < kEvents; ++i) {
        const bool p = rng.chance(rate);
        auto out = cd.deliver(make_packet_in(i, p ? 666 : 80), kSimStart);
        if (out.ok()) serviced += 1;
        if (!cd.alive()) cd.restart();
      }
      table.row({bench::fmt_pct(rate), std::to_string(kEvents),
                 std::to_string(cd.failovers()),
                 bench::fmt_pct(double(serviced) / kEvents)});
    }
    table.print();
    std::printf("\n");
    bench::note("Shape: the first transient crash triggers exactly one switch-over;");
    bench::note("the promoted clone (bug-free copy) services everything afterwards.");
  }
  return 0;
}
