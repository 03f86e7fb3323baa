// Experiment C12: sharded dispatch throughput — events/sec and completion
// latency of the LegoSDN pipeline at 1, 2 and 4 shard lanes (DESIGN.md §4.5),
// with and without the batched hot path (DESIGN.md §4.7).
//
// Three workloads over a fat-tree(4), thousands of distinct L4 flows injected
// as packet-ins round-robin across every switch:
//
//   cpu-bound     — the handler does a fixed amount of in-core work (hash
//                   mixing) per event. On a multi-core host this is where
//                   sharding shows raw parallel speedup; on a single-core CI
//                   container the lanes time-slice one CPU and the row mostly
//                   measures dispatch overhead — which is exactly what
//                   batching attacks (one submit lock + one commit barrier
//                   per batch instead of per event).
//   blocking-50us — the handler blocks 50us per event, modeling the external
//                   calls a real SDN-App makes (policy DBs, REST backends,
//                   the paper's process-isolated stubs with their RPC round
//                   trips). Lanes overlap the stalls, so the speedup is real
//                   even on one CPU — this is the headline row, and the one
//                   scripts/check_bench.py gates.
//   blocking+barriers — same, with 1% cross-switch (global) events forcing
//                   the stop-the-world barrier protocol; measures what the
//                   ordering guarantee costs.
//
// Batching knobs: LEGOSDN_BATCH=0 turns the batched hot path off (per-event
// submit_batch-free injection, commit coalescing disabled) so an A/B run
// against the default batched mode isolates the batching win;
// LEGOSDN_BATCH_SIZE=N overrides the injection batch size (default 256).
// A batch-size sweep (cpu-bound, 4 shards) quantifies the same A/B inside a
// single run and feeds the "headline_batched" gate.
//
// Latency semantics: sharded rows report submit-to-completion from the
// dispatcher (includes lane queueing within an injection batch); the serial
// row times each dispatch individually (there is no queue wait to speak of —
// the same thread injects and dispatches). Events are injected in batches
// with a drain between batches so queueing stays bounded in both modes.
//
// JSON: per-row events/sec + p50/p95/p99 + batching counters
// (batches, events_per_batch p50/max, lock_acquisitions, NetLog
// coalesced_commits/spans) and a cpu_oversubscribed flag (shards >
// host_cpus: speedup floors do not apply, structure checks still do).
// Top-level "headline" (blocking-50us speedup at 4 shards vs 1) and
// "headline_batched" (cpu-bound batched vs unbatched at 4 shards) objects
// are what the CI regression gate compares against the committed
// BENCH_throughput.json baseline.
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/bytes.hpp"
#include "common/stats.hpp"
#include "controller/app.hpp"
#include "legosdn/lego_controller.hpp"
#include "netsim/network.hpp"

namespace {

using namespace legosdn;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2));
}

/// Dpid-partitionable bench app: per-switch event counters, a configurable
/// per-event cost (spin iterations and/or a blocking sleep), and one exact
/// flow-mod emitted per packet-in so every event drives a NetLog transaction.
class BenchApp : public ctl::App {
public:
  BenchApp(std::uint64_t spin_iters, std::uint64_t sleep_us)
      : spin_iters_(spin_iters), sleep_us_(sleep_us) {}

  std::string name() const override { return "bench-app"; }

  std::vector<ctl::EventType> subscriptions() const override {
    return {ctl::EventType::kPacketIn};
  }

  ctl::AppPtr clone() const override {
    return std::make_shared<BenchApp>(spin_iters_, sleep_us_);
  }

  ctl::Disposition handle_event(const ctl::Event& e, ctl::ServiceApi& api) override {
    const auto* pin = std::get_if<of::PacketIn>(&e);
    if (!pin) return ctl::Disposition::kContinue;

    std::uint64_t acc = pin->packet.trace_tag;
    for (std::uint64_t i = 0; i < spin_iters_; ++i) acc = mix(acc, i);
    sink_ = acc; // keep the spin loop observable
    if (sleep_us_ > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_us_));
    }
    counters_[raw(pin->dpid)] += 1;

    if (raw(pin->dpid) != 0) { // global markers carry dpid 0: no emission
      of::FlowMod mod;
      mod.dpid = pin->dpid;
      mod.match = of::Match::exact(pin->in_port, pin->packet.hdr);
      mod.actions = of::output_to(PortNo{1});
      api.send({api.next_xid(), mod});
    }
    return ctl::Disposition::kContinue;
  }

  std::vector<std::uint8_t> snapshot_state() const override {
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(counters_.size()));
    for (const auto& [d, n] : counters_) {
      w.u64(d);
      w.u64(n);
    }
    return std::move(w).take();
  }
  void restore_state(std::span<const std::uint8_t> state) override {
    counters_.clear();
    ByteReader r(state);
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
      const std::uint64_t d = r.u64();
      counters_[d] = r.u64();
    }
  }
  void reset() override { counters_.clear(); }

private:
  std::map<std::uint64_t, std::uint64_t> counters_;
  std::uint64_t spin_iters_;
  std::uint64_t sleep_us_;
  volatile std::uint64_t sink_ = 0;
};

struct Workload {
  const char* name;
  std::uint64_t spin_iters;
  std::uint64_t sleep_us;
  std::uint64_t global_every; ///< 0 = never; else 1 barrier per N events
};

struct Cell {
  double events_per_sec = 0;
  Histogram lat; ///< per-event completion latency (us)
  // Batching counters (sharded rows only; zero on the serial row).
  std::uint64_t batches = 0;
  double events_per_batch_p50 = 0;
  double events_per_batch_max = 0;
  std::uint64_t lock_acquisitions = 0;
  std::uint64_t coalesced_commits = 0;
  std::uint64_t coalesced_spans = 0;
};

of::PacketIn flow_event(const std::vector<DatapathId>& ids, std::uint64_t i,
                        std::uint64_t global_every) {
  of::PacketIn pin;
  const bool global = global_every && i % global_every == global_every - 1;
  pin.dpid = global ? DatapathId{0} : ids[i % ids.size()];
  pin.in_port = PortNo{static_cast<std::uint16_t>(1 + i % 4)};
  pin.packet.hdr.eth_src = MacAddress::from_uint64(0xA00000 + i);
  pin.packet.hdr.eth_dst = MacAddress::from_uint64(0xB00000 + i);
  pin.packet.hdr.eth_type = of::kEthTypeIpv4;
  pin.packet.hdr.ip_proto = of::kIpProtoTcp;
  pin.packet.hdr.tp_src = static_cast<std::uint16_t>(1024 + i % 40000);
  pin.packet.hdr.tp_dst = static_cast<std::uint16_t>(i % 40000);
  pin.packet.size_bytes = 100;
  pin.packet.trace_tag = i;
  return pin;
}

/// One measured configuration. `batch` is the injection span size handed to
/// inject_events() (1 = per-event inject_event, the pre-batching hot path);
/// `coalesce` toggles NetLog commit coalescing within drained lane batches.
Cell run_cell(const Workload& w, std::size_t shards, std::size_t events,
              std::size_t batch, bool coalesce) {
  auto net = netsim::Network::fat_tree(4);
  lego::LegoConfig cfg;
  cfg.dispatch.shards = shards;
  cfg.dispatch.coalesce_commits = coalesce;
  cfg.checkpoint_every = 16; // realistic cadence; per-event would swamp dispatch
  cfg.byzantine_detection = false;
  lego::LegoController c(*net, cfg);
  c.add_app(std::make_shared<BenchApp>(w.spin_iters, w.sleep_us));
  c.start_system();
  c.run();

  const auto ids = net->switch_ids();
  // Drain cadence: every kDrain injected events, matching the historical 256
  // so queueing stays bounded and rows are comparable across batch sizes.
  const std::size_t kDrain = std::max<std::size_t>(batch, 256);

  // Warm: one drain span outside the clock (page in lanes, stripes, clones).
  for (std::uint64_t i = 0; i < kDrain; ++i)
    c.inject_event(ctl::Event{flow_event(ids, 1'000'000 + i, w.global_every)});
  while (c.run() > 0) {
  }
  const auto warm_stats =
      c.dispatch_engine() ? c.dispatch_engine()->stats()
                          : ctl::ShardedDispatcher::Stats{};
  const auto warm_nl = c.netlog().stats();

  Histogram serial_lat;
  bench::Stopwatch total;
  total.start();
  if (shards <= 1) {
    for (std::uint64_t i = 0; i < events; ++i) {
      c.inject_event(ctl::Event{flow_event(ids, i, w.global_every)});
      if ((i + 1) % kDrain == 0 || i + 1 == events) {
        bench::Stopwatch sw;
        for (;;) {
          sw.start();
          if (!c.process_one()) break;
          serial_lat.add(sw.elapsed_us());
        }
      }
    }
  } else if (batch <= 1) {
    for (std::uint64_t i = 0; i < events; ++i) {
      c.inject_event(ctl::Event{flow_event(ids, i, w.global_every)});
      if ((i + 1) % kDrain == 0) c.run();
    }
    c.run();
  } else {
    std::vector<ctl::Event> span;
    span.reserve(batch);
    for (std::uint64_t i = 0; i < events; ++i) {
      span.emplace_back(flow_event(ids, i, w.global_every));
      if (span.size() == batch || i + 1 == events) {
        c.inject_events(std::move(span));
        span.clear();
        span.reserve(batch);
      }
      if ((i + 1) % kDrain == 0) c.run();
    }
    c.run();
  }
  const double elapsed_us = total.elapsed_us();

  Cell cell;
  cell.events_per_sec = 1e6 * static_cast<double>(events) / elapsed_us;
  if (shards <= 1) {
    cell.lat = serial_lat;
  } else {
    const auto st = c.dispatch_engine()->stats();
    cell.lat = st.latency_us;
    cell.batches = st.batches - warm_stats.batches;
    cell.events_per_batch_p50 = st.batch_events.percentile(50);
    cell.events_per_batch_max = st.batch_events.max();
    cell.lock_acquisitions = st.lock_acquisitions - warm_stats.lock_acquisitions;
  }
  const auto nl = c.netlog().stats();
  cell.coalesced_commits = nl.coalesced_commits - warm_nl.coalesced_commits;
  cell.coalesced_spans = nl.coalesced_spans - warm_nl.coalesced_spans;
  return cell;
}

void row_json(bench::Json& j, const Workload& w, std::size_t shards,
              std::size_t batch, bool batched, unsigned host_cpus,
              const Cell& cell, double speedup, const char* speedup_key) {
  j.begin_obj();
  j.kv("workload", std::string(w.name));
  j.kv("shards", static_cast<std::uint64_t>(shards));
  j.kv_bool("batched", batched);
  j.kv("batch_size", static_cast<std::uint64_t>(batch));
  j.kv_bool("cpu_oversubscribed", shards > host_cpus);
  j.kv("events_per_sec", cell.events_per_sec, 1);
  bench::latency_kv(j, cell.lat);
  j.kv(speedup_key, speedup);
  if (shards > 1) {
    j.kv("batches", cell.batches);
    j.kv("events_per_batch_p50", cell.events_per_batch_p50, 1);
    j.kv("events_per_batch_max", cell.events_per_batch_max, 0);
    j.kv("lock_acquisitions", cell.lock_acquisitions);
    j.kv("coalesced_commits", cell.coalesced_commits);
    j.kv("coalesced_spans", cell.coalesced_spans);
  }
  j.end_obj();
}

} // namespace

int main() {
  using namespace legosdn;

  // Long enough per cell (~1s at the cpu-bound rate) that scheduler noise on
  // small hosts stays inside a few percent; 20k-event cells measured ~0.2s
  // and swung +/-25% run to run.
  const std::size_t events = bench::smoke() ? 2'000 : 80'000;
  const bool batched = bench::batch_enabled();
  const std::size_t batch = batched ? bench::batch_size() : 1;
  const unsigned host_cpus = std::thread::hardware_concurrency();
  const std::vector<std::size_t> shard_counts = {1, 2, 4};
  const std::vector<Workload> workloads = {
      {"cpu-bound", 2'000, 0, 0},
      {"blocking-50us", 0, 50, 0},
      {"blocking+barriers", 0, 50, 100},
  };

  bench::section("sharded dispatch throughput (fat-tree(4), " +
                 std::to_string(events) + " events, " +
                 (batched ? "batch=" + std::to_string(batch) : "unbatched") +
                 ")");
  bench::note("host_cpus=" + std::to_string(host_cpus) +
              " — blocking rows overlap handler stalls and speed up even on "
              "one CPU; the cpu-bound row needs real cores to scale, but "
              "batching (one submit lock + coalesced commits per lane batch) "
              "cuts dispatch overhead on any host");

  std::vector<std::string> headers{"workload", "shards", "events/s"};
  for (auto& h : bench::latency_headers()) headers.push_back(std::move(h));
  headers.push_back("speedup");
  headers.push_back("epb p50");
  bench::Table table(std::move(headers));
  bench::Json j;
  j.begin_obj();
  j.kv("bench", std::string("throughput"));
  j.kv("topology", std::string("fat-tree(4)"));
  j.kv("events", static_cast<std::uint64_t>(events));
  j.kv("host_cpus", static_cast<std::uint64_t>(host_cpus));
  j.kv_bool("batched", batched);
  j.kv("batch_size", static_cast<std::uint64_t>(batch));
  j.begin_arr("rows");

  double headline_serial = 0, headline_4shard = 0;
  for (const auto& w : workloads) {
    double serial_eps = 0;
    for (std::size_t shards : shard_counts) {
      const Cell cell = run_cell(w, shards, events, batch, batched);
      if (shards == 1) serial_eps = cell.events_per_sec;
      const double speedup =
          serial_eps > 0 ? cell.events_per_sec / serial_eps : 0;
      if (std::string(w.name) == "blocking-50us") {
        if (shards == 1) headline_serial = cell.events_per_sec;
        if (shards == 4) headline_4shard = cell.events_per_sec;
      }
      std::vector<std::string> cells{w.name, std::to_string(shards),
                                     bench::fmt(cell.events_per_sec, 0)};
      for (auto& c : bench::latency_cells(cell.lat)) cells.push_back(std::move(c));
      cells.push_back(bench::fmt(speedup));
      cells.push_back(shards > 1 ? bench::fmt(cell.events_per_batch_p50, 1)
                                 : std::string("-"));
      table.row(std::move(cells));
      row_json(j, w, shards, batch, batched, host_cpus, cell, speedup,
               "speedup_vs_serial");
    }
  }
  j.end_arr();
  table.print();

  // Batch-size sweep: cpu-bound at 4 shards, from the unbatched hot path
  // (batch=1, coalescing off — the pre-§4.7 behavior) up through growing
  // spans. Isolates the batching win at fixed parallelism.
  const std::vector<std::size_t> sweep_sizes =
      bench::smoke() ? std::vector<std::size_t>{1, 64}
                     : std::vector<std::size_t>{1, 16, 64, 256};
  bench::section("batch-size sweep (cpu-bound, 4 shards)");
  std::vector<std::string> sweep_headers{"batch", "events/s", "speedup",
                                         "batches", "epb p50", "epb max",
                                         "lock acq", "coal commits"};
  bench::Table sweep_table(std::move(sweep_headers));
  j.begin_arr("batch_sweep");
  double unbatched_eps = 0, batched_eps = 0;
  for (const std::size_t b : sweep_sizes) {
    const Cell cell = run_cell(workloads[0], 4, events, b, /*coalesce=*/b > 1);
    if (b == 1) unbatched_eps = cell.events_per_sec;
    if (b == sweep_sizes.back()) batched_eps = cell.events_per_sec;
    const double speedup =
        unbatched_eps > 0 ? cell.events_per_sec / unbatched_eps : 0;
    sweep_table.row({std::to_string(b), bench::fmt(cell.events_per_sec, 0),
                     bench::fmt(speedup), std::to_string(cell.batches),
                     bench::fmt(cell.events_per_batch_p50, 1),
                     bench::fmt(cell.events_per_batch_max, 0),
                     std::to_string(cell.lock_acquisitions),
                     std::to_string(cell.coalesced_commits)});
    row_json(j, workloads[0], 4, b, b > 1, host_cpus, cell,
             speedup, "speedup_vs_unbatched");
  }
  j.end_arr();

  const double headline_speedup =
      headline_serial > 0 ? headline_4shard / headline_serial : 0;
  j.begin_obj("headline");
  j.kv("metric", std::string("blocking-50us events/sec, 4 shards vs 1"));
  j.kv("speedup", headline_speedup);
  j.kv("serial_events_per_sec", headline_serial, 1);
  j.kv("sharded_events_per_sec", headline_4shard, 1);
  j.end_obj();
  const double batched_speedup =
      unbatched_eps > 0 ? batched_eps / unbatched_eps : 0;
  j.begin_obj("headline_batched");
  j.kv("metric",
       std::string("cpu-bound events/sec, 4 shards, batched vs unbatched"));
  j.kv("speedup", batched_speedup);
  j.kv("unbatched_events_per_sec", unbatched_eps, 1);
  j.kv("batched_events_per_sec", batched_eps, 1);
  j.end_obj();
  j.end_obj();

  sweep_table.print();
  bench::note("headline: blocking-50us 4-shard speedup = " +
              bench::fmt(headline_speedup) + "x");
  bench::note("headline_batched: cpu-bound 4-shard batched/unbatched = " +
              bench::fmt(batched_speedup) + "x");
  bench::emit_json(j);
  return 0;
}
