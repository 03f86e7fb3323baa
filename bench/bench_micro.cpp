// Micro-benchmarks (google-benchmark) for the hot paths underneath every
// experiment: wire codec, flow-table operations, event serialization, RPC
// framing, NetLog undo recording, app-state capture and byzantine
// verification. These are the component costs that compose into the
// C1/C2/C3 scenario numbers.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/learning_switch.hpp"
#include "apps/shortest_path_router.hpp"
#include "appvisor/rpc.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "controller/controller.hpp"
#include "controller/event_codec.hpp"
#include "invariant/invariant.hpp"
#include "netlog/netlog.hpp"
#include "netsim/flow_table.hpp"
#include "openflow/wire10.hpp"

namespace {

using namespace legosdn;

of::FlowMod sample_flow_mod(std::uint64_t i) {
  of::FlowMod mod;
  mod.dpid = DatapathId{1 + i % 4};
  mod.match = of::Match{}
                  .with_eth_dst(MacAddress::from_uint64(0x1000 + i % 256))
                  .with_tp_dst(static_cast<std::uint16_t>(i % 1024));
  mod.priority = static_cast<std::uint16_t>(100 + i % 100);
  mod.actions = of::output_to(PortNo{static_cast<std::uint16_t>(1 + i % 4)});
  return mod;
}

of::PacketIn sample_packet_in(std::uint64_t i) {
  of::PacketIn pin;
  pin.dpid = DatapathId{1};
  pin.in_port = PortNo{1};
  pin.packet.hdr.eth_src = MacAddress::from_uint64(0x100 + i % 64);
  pin.packet.hdr.eth_dst = MacAddress::from_uint64(0x200 + i % 64);
  pin.packet.hdr.tp_dst = 80;
  return pin;
}

void BM_Wire10EncodeFlowMod(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto bytes = of::wire10::encode({0, sample_flow_mod(i++)});
    benchmark::DoNotOptimize(bytes);
  }
}
BENCHMARK(BM_Wire10EncodeFlowMod);

void BM_Wire10RoundTripPacketIn(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto bytes = of::wire10::encode({0, sample_packet_in(i++)});
    auto msg = of::wire10::decode(bytes, DatapathId{1});
    benchmark::DoNotOptimize(msg);
  }
}
BENCHMARK(BM_Wire10RoundTripPacketIn);

void BM_EventCodecRoundTrip(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto ev = ctl::decode_event(ctl::encode_event(ctl::Event{sample_packet_in(i++)}));
    benchmark::DoNotOptimize(ev);
  }
}
BENCHMARK(BM_EventCodecRoundTrip);

void BM_RpcFrameRoundTrip(benchmark::State& state) {
  appvisor::RpcFrame frame{appvisor::RpcType::kDeliverEvent, 7,
                           ctl::encode_event(ctl::Event{sample_packet_in(3)})};
  for (auto _ : state) {
    auto f = appvisor::decode_frame(appvisor::encode_frame(frame));
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_RpcFrameRoundTrip);

void BM_FlowTableLookup(benchmark::State& state) {
  netsim::FlowTable table;
  const auto n = state.range(0);
  for (std::int64_t i = 0; i < n; ++i) table.apply(sample_flow_mod(i), kSimStart);
  of::PacketHeader hdr;
  hdr.eth_dst = MacAddress::from_uint64(0x1000 + 17);
  hdr.tp_dst = 17 % 1024;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.peek(PortNo{1}, hdr));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_FlowTableLookup)->Range(8, 4096)->Complexity(benchmark::oN);

void BM_FlowTableApplyAdd(benchmark::State& state) {
  netsim::FlowTable table;
  std::uint64_t i = 0;
  for (auto _ : state) {
    table.apply(sample_flow_mod(i++), kSimStart);
    if (table.size() > 4096) {
      state.PauseTiming();
      table.clear();
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_FlowTableApplyAdd);

void BM_NetLogUndoRecording(benchmark::State& state) {
  auto net = netsim::Network::linear(4, 1);
  netlog::NetLog log(*net, {netlog::Mode::kUndoLog, false});
  std::uint64_t i = 0;
  for (auto _ : state) {
    const TxnId txn = log.begin(AppId{1});
    for (int k = 0; k < 4; ++k)
      log.apply(txn, {0, sample_flow_mod(i++)});
    log.rollback(txn);
  }
}
BENCHMARK(BM_NetLogUndoRecording);

/// Per-field ByteWriter throughput on the learning-table record layout
/// (u64 dpid, mac, u16 port per record), with no size hint. The records are
/// built outside the timed loop, so only the writer is measured.
void BM_ByteWriterFields(benchmark::State& state) {
  struct Record {
    std::uint64_t dpid;
    MacAddress mac;
    std::uint16_t port;
  };
  std::vector<Record> records;
  for (std::int64_t i = 0; i < state.range(0); ++i)
    records.push_back({static_cast<std::uint64_t>(i),
                       MacAddress::from_uint64(static_cast<std::uint64_t>(i)),
                       static_cast<std::uint16_t>(i % 48)});
  for (auto _ : state) {
    ByteWriter w;
    for (const Record& r : records) {
      w.u64(r.dpid);
      w.mac(r.mac);
      w.u16(r.port);
    }
    auto out = std::move(w).take();
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size() * 16));
}
BENCHMARK(BM_ByteWriterFields)->Arg(64)->Arg(1280);

/// LearningSwitch::snapshot_state() at isolated-learning's table size: 1280
/// entries, 20,484 bytes, written as one pass of claimed 16-byte records.
void BM_LearningSwitchSnapshot(benchmark::State& state) {
  constexpr std::uint32_t kEntries = 1280;
  ByteWriter table;
  table.u32(kEntries);
  for (std::uint32_t i = 0; i < kEntries; ++i) { // sorted by (dpid, mac)
    table.u64(1 + i / 320);
    table.mac(MacAddress::from_uint64(0x020000000000ULL + i % 320 * 0x10001ULL));
    table.u16(static_cast<std::uint16_t>(1 + i % 64));
  }
  apps::LearningSwitch ls;
  ls.restore_state(table.span());
  if (ls.snapshot_state().size() != 20484) {
    state.SkipWithError("unexpected snapshot size");
    return;
  }
  for (auto _ : state) {
    auto snap = ls.snapshot_state();
    benchmark::DoNotOptimize(snap.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 20484);
}
BENCHMARK(BM_LearningSwitchSnapshot);

/// fat-tree(4) with a ShortestPathRouter path installed for every ordered
/// host pair: the tables perfbench's fabric-paths warm-up leaves behind.
std::unique_ptr<netsim::Network> routed_fat_tree() {
  auto net = netsim::Network::fat_tree(4);
  {
    ctl::Controller c(*net);
    std::vector<apps::ShortestPathRouter::LinkInfo> links;
    for (const auto& l : net->links()) links.push_back({l.a, l.b});
    c.register_app(std::make_shared<apps::ShortestPathRouter>(std::move(links)));
    c.start();
    const auto& hosts = net->hosts();
    auto send = [&](std::size_t s, std::size_t d) {
      of::Packet p;
      p.hdr.eth_src = hosts[s].mac;
      p.hdr.eth_dst = hosts[d].mac;
      p.hdr.ip_src = hosts[s].ip;
      p.hdr.ip_dst = hosts[d].ip;
      p.hdr.tp_dst = 80;
      net->inject_from_host(hosts[s].mac, p);
      while (c.run() > 0) {
      }
    };
    while (c.run() > 0) {
    }
    for (std::size_t s = 0; s < hosts.size(); ++s) send(s, hosts.size() - 1 - s);
    for (std::size_t s = 0; s < hosts.size(); ++s)
      for (std::size_t d = 0; d < hosts.size(); ++d)
        if (s != d) send(s, d);
  }
  net->set_northbound({}); // the controller is gone
  net->set_switch_state_callback({});
  return net;
}

/// The 8 must_reach pairs perfbench's fabric-paths configures.
invariant::InvariantConfig fabric_pairs(const netsim::Network& net) {
  invariant::InvariantConfig cfg;
  const auto& hosts = net.hosts();
  for (std::size_t i = 0; i < 8; ++i)
    cfg.must_reach.push_back({hosts[i].mac, hosts[hosts.size() - 1 - i].mac});
  return cfg;
}

/// check_flow_mods of one landed path bundle (host 0 -> host 15, one rule
/// per switch on the path), with every other pair's rules in the tables.
void BM_VerifyPathBundle(benchmark::State& state) {
  const auto net = routed_fat_tree();
  const auto& hosts = net->hosts();
  const of::Match m = of::Match{}.with_eth_src(hosts[0].mac).with_eth_dst(hosts.back().mac);
  std::vector<of::FlowMod> bundle;
  for (const DatapathId d : net->switch_ids()) {
    for (const auto& e : net->switch_at(d)->table().entries()) {
      if (e.match != m) continue;
      of::FlowMod mod;
      mod.dpid = d;
      mod.match = e.match;
      mod.priority = e.priority;
      mod.actions = e.actions;
      bundle.push_back(mod);
    }
  }
  const invariant::InvariantChecker checker(*net);
  const invariant::InvariantConfig cfg = fabric_pairs(*net);
  if (bundle.empty() || !checker.check_flow_mods(cfg, bundle, false).empty()) {
    state.SkipWithError("path bundle missing or not clean");
    return;
  }
  for (auto _ : state) {
    auto v = checker.check_flow_mods(cfg, bundle, false);
    benchmark::DoNotOptimize(v.data());
  }
  state.counters["rules"] = static_cast<double>(bundle.size());
}
BENCHMARK(BM_VerifyPathBundle);

/// One full-trace reachability pass over the 8 fabric-paths pairs.
void BM_ReachabilityPass(benchmark::State& state) {
  const auto net = routed_fat_tree();
  const invariant::InvariantChecker checker(*net);
  const invariant::InvariantConfig cfg = fabric_pairs(*net);
  if (!checker.check_reachability_only(cfg).empty()) {
    state.SkipWithError("fabric pairs not reachable");
    return;
  }
  for (auto _ : state) {
    auto v = checker.check_reachability_only(cfg);
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(BM_ReachabilityPass);

} // namespace

// Hand-rolled BENCHMARK_MAIN so this binary honours the same harness
// contract as the scenario benches: LEGOSDN_BENCH_SMOKE=1 shrinks the
// per-benchmark min time so CI exercises every registered benchmark in
// seconds, and LEGOSDN_BENCH_JSON routes google-benchmark's native JSON
// reporter to the trajectory file (console output stays on stdout).
// Explicit command-line flags win over the environment.
int main(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  auto has_flag = [&args](const char* prefix) {
    return std::any_of(args.begin(), args.end(), [prefix](const std::string& a) {
      return a.rfind(prefix, 0) == 0;
    });
  };
  if (legosdn::bench::smoke() && !has_flag("--benchmark_min_time"))
    args.emplace_back("--benchmark_min_time=0.01");
  if (const char* path = std::getenv("LEGOSDN_BENCH_JSON")) {
    if (!has_flag("--benchmark_out")) {
      args.emplace_back(std::string("--benchmark_out=") + path);
      args.emplace_back("--benchmark_out_format=json");
    }
  }
  // Initialize() rewrites argc/argv in place; the strings must outlive it.
  std::vector<char*> cargv;
  cargv.reserve(args.size());
  for (auto& a : args) cargv.push_back(a.data());
  int cargc = static_cast<int>(cargv.size());
  benchmark::Initialize(&cargc, cargv.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
