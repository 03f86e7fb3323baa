// Experiment C4 (§3.3): crash-to-recovery behaviour per recovery policy.
//
// Measures, for each of the three Crash-Pad policies:
//   - wall-clock time from crash detection to the app serving events again,
//   - events the crashed app missed,
//   - correctness retained (fraction of the app's policy still implemented,
//     measured as benign flows the firewall/router combo still handles).
// Both isolation backends are exercised; the process backend shows the real
// respawn + state-restore cost.
#include "apps/fault_injection.hpp"
#include "apps/learning_switch.hpp"
#include "bench_util.hpp"
#include "legosdn/lego_controller.hpp"

namespace {

using namespace legosdn;

of::Packet mk_packet(const netsim::Network& net, std::size_t s, std::size_t d,
                     std::uint16_t tp_dst) {
  of::Packet p;
  p.hdr.eth_src = net.hosts()[s].mac;
  p.hdr.eth_dst = net.hosts()[d].mac;
  p.hdr.eth_type = of::kEthTypeIpv4;
  p.hdr.ip_src = net.hosts()[s].ip;
  p.hdr.ip_dst = net.hosts()[d].ip;
  p.hdr.ip_proto = of::kIpProtoTcp;
  p.hdr.tp_src = 40000;
  p.hdr.tp_dst = tp_dst;
  return p;
}

struct PolicyRun {
  double recovery_us_p50 = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t left_down = 0;
  double post_crash_delivery = 0;
};

PolicyRun run_policy(const std::string& policy, appvisor::Backend backend) {
  lego::LegoConfig cfg;
  cfg.backend = backend;
  auto parsed = crashpad::PolicyTable::parse("default=" + policy);
  cfg.policies = std::move(parsed).value();
  auto net = netsim::Network::linear(3, 1);
  lego::LegoController c(*net, cfg);
  apps::CrashTrigger t;
  t.on_tp_dst = 666;
  c.add_app(std::make_shared<apps::CrashyApp>(std::make_shared<apps::LearningSwitch>(), t));
  c.start_system();
  while (c.run() > 0) {
  }

  auto pump = [&](std::size_t s, std::size_t d, std::uint16_t port) {
    const auto before = net->hosts()[d].rx_packets;
    net->inject_from_host(net->hosts()[s].mac, mk_packet(*net, s, d, port));
    while (c.run() > 0) {
    }
    return net->host_by_mac(net->hosts()[d].mac)->rx_packets > before;
  };
  pump(0, 2, 80);
  pump(2, 0, 80);

  Histogram recovery;
  constexpr int kCrashes = 10;
  for (int i = 0; i < kCrashes; ++i) {
    bench::Stopwatch sw;
    sw.start();
    pump(0, 2, 666); // crash + (policy-dependent) recovery happen inside
    recovery.add(sw.elapsed_us());
    if (policy == "no-compromise") break; // app stays down; once is enough
  }
  std::uint64_t delivered = 0;
  constexpr int kProbes = 20;
  for (int i = 0; i < kProbes; ++i) {
    if (pump(i % 2, 2, 80)) delivered += 1;
  }
  PolicyRun out;
  out.recovery_us_p50 = recovery.percentile(50);
  out.recoveries = c.lego_stats().recoveries;
  out.left_down = c.lego_stats().apps_left_down;
  out.post_crash_delivery = double(delivered) / kProbes;
  c.appvisor().shutdown_all();
  return out;
}

} // namespace

int main() {
  bench::section("C4: crash-to-recovery per Crash-Pad policy (§3.3)");
  bench::Table table({"policy", "backend", "crash+recover (us, p50)", "recoveries",
                      "apps left down", "benign delivery after crashes"});
  for (const auto backend :
       {appvisor::Backend::kInProcess, appvisor::Backend::kProcess}) {
    const std::string bname =
        backend == appvisor::Backend::kInProcess ? "in-process" : "process+UDP";
    for (const std::string policy : {"absolute", "no-compromise", "equivalence"}) {
      const PolicyRun r = run_policy(policy, backend);
      table.row({policy, bname, bench::fmt(r.recovery_us_p50),
                 std::to_string(r.recoveries), std::to_string(r.left_down),
                 bench::fmt_pct(r.post_crash_delivery)});
    }
  }
  table.print();
  std::printf("\n");
  bench::note("Shape: absolute & equivalence recover the app every crash (delivery");
  bench::note("stays high); no-compromise leaves it down (delivery collapses — the");
  bench::note("availability cost of refusing to compromise). The process backend's");
  bench::note("recovery time includes a real fork+restore, so it is much larger.");
  bench::note("(packet-in has no equivalent form, so equivalence degrades to ignore.)");
  return 0;
}
