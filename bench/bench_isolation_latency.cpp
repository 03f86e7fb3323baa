// Experiments F1 + C1 (Figure 1 / §3.1): the cost of isolation.
//
// "We note that serialization and de-serialization of messages, and the
//  communication protocol overhead introduce additional latency into the
//  control-loop. The additional latency, however, is acceptable as
//  introducing the controller into the critical-path already slows down the
//  network by a factor of four [DevoFlow]."
//
// This bench measures per-event control-loop latency (packet-in -> app ->
// flow-mod/packet-out) under the three dispatch paths of Figure 1:
//   direct      — app called as a function (monolithic FloodLight);
//   in-process  — AppVisor domain with a fault boundary, no serialization;
//   process+UDP — the paper's proxy/stub over real UDP RPC, with and
//                 without a per-event checkpoint (§4.1 takes one per event).
// Process rows also report RPCs per event: a per-event checkpoint rides on
// the deliver's reply, so it should cost one.

#include "appvisor/inprocess_domain.hpp"
#include "appvisor/process_domain.hpp"
#include "apps/learning_switch.hpp"
#include "bench_util.hpp"
#include "common/cpus.hpp"
#include "controller/controller.hpp"
#include "netsim/network.hpp"

namespace {

using namespace legosdn;

template <typename T> inline void benchmark_do_not_optimize(T& value) {
  asm volatile("" : "+m"(value) : : "memory");
}

ctl::Event make_packet_in(std::uint64_t i) {
  of::PacketIn pin;
  pin.dpid = DatapathId{1};
  pin.in_port = PortNo{static_cast<std::uint16_t>(1 + i % 4)};
  pin.packet.hdr.eth_src = MacAddress::from_uint64(0x100 + i % 64);
  pin.packet.hdr.eth_dst = MacAddress::from_uint64(0x200 + i % 64);
  pin.packet.hdr.eth_type = of::kEthTypeIpv4;
  pin.packet.hdr.tp_dst = 80;
  pin.packet.size_bytes = 200;
  return pin;
}

struct LatencyRow {
  std::string path;
  Histogram us;
  double rpc_calls_per_event = -1; ///< process rows only
};

/// RPCs per event over the measured iterations of a process row.
double rpcs_per_event(const appvisor::ProcessDomain& d, std::uint64_t calls_at_start,
                      int events) {
  return static_cast<double>(d.transport_stats()->rpc_calls - calls_at_start) / events;
}

} // namespace

int main() {
  bench::section("F1/C1: control-loop latency of the proxy/stub indirection (§3.1)");
  const int kWarmup = bench::iters(200, 10);
  const int kIters = bench::iters(3000, 60);
  const int kProcIters = bench::iters(1500, 40);

  std::vector<LatencyRow> rows;

  // --- direct function call (monolithic baseline) ---
  // The handler writes into the same message sink the domains use, so all
  // rows measure exactly the dispatch path and nothing else.
  {
    apps::LearningSwitch app;
    std::uint32_t xid = 1;
    bench::Stopwatch sw;
    LatencyRow row{"direct call (monolithic)", {}};
    for (int i = 0; i < kWarmup + kIters; ++i) {
      sw.start();
      appvisor::CollectingServiceApi api(kSimStart, &xid);
      app.handle_event(make_packet_in(i), api);
      auto emitted = std::move(api).take();
      benchmark_do_not_optimize(emitted);
      const double us = sw.elapsed_us();
      if (i >= kWarmup) row.us.add(us);
    }
    rows.push_back(std::move(row));
  }

  // --- in-process isolation domain ---
  {
    appvisor::InProcessDomain d(std::make_shared<apps::LearningSwitch>());
    d.start();
    bench::Stopwatch sw;
    LatencyRow row{"AppVisor in-process domain", {}};
    for (int i = 0; i < kWarmup + kIters; ++i) {
      sw.start();
      auto out = d.deliver(make_packet_in(i), kSimStart);
      const double us = sw.elapsed_us();
      if (i >= kWarmup) row.us.add(us);
    }
    rows.push_back(std::move(row));
  }

  // --- process + UDP RPC (the paper's architecture), no checkpoint ---
  {
    appvisor::ProcessDomain d(std::make_shared<apps::LearningSwitch>());
    if (!d.start()) {
      std::fprintf(stderr, "failed to start process domain\n");
      return 1;
    }
    bench::Stopwatch sw;
    LatencyRow row{"AppVisor process + UDP RPC", {}};
    std::uint64_t calls_at_start = 0;
    for (int i = 0; i < kWarmup + kProcIters; ++i) {
      if (i == kWarmup) calls_at_start = d.transport_stats()->rpc_calls;
      sw.start();
      auto out = d.deliver(make_packet_in(i), kSimStart);
      const double us = sw.elapsed_us();
      if (i >= kWarmup) row.us.add(us);
    }
    row.rpc_calls_per_event = rpcs_per_event(d, calls_at_start, kProcIters);
    d.shutdown();
    rows.push_back(std::move(row));
  }

  // --- process + UDP RPC with a per-event checkpoint (§4.1 prototype) ---
  {
    appvisor::ProcessDomain d(std::make_shared<apps::LearningSwitch>());
    if (!d.start()) {
      std::fprintf(stderr, "failed to start process domain\n");
      return 1;
    }
    bench::Stopwatch sw;
    LatencyRow row{"process + UDP + per-event checkpoint", {}};
    std::uint64_t calls_at_start = 0;
    for (int i = 0; i < kWarmup + kProcIters; ++i) {
      if (i == kWarmup) calls_at_start = d.transport_stats()->rpc_calls;
      sw.start();
      auto snap = d.snapshot(); // "a checkpoint prior to dispatching every message"
      auto out = d.deliver(make_packet_in(i), kSimStart);
      const double us = sw.elapsed_us();
      if (i >= kWarmup && snap.ok()) row.us.add(us);
    }
    row.rpc_calls_per_event = rpcs_per_event(d, calls_at_start, kProcIters);
    d.shutdown();
    rows.push_back(std::move(row));
  }

  const double base = rows[0].us.percentile(50);
  std::vector<std::string> headers{"dispatch path"};
  for (auto& h : bench::latency_headers(/*with_mean=*/true))
    headers.push_back(std::move(h));
  headers.push_back("slowdown vs direct");
  headers.push_back("RPCs/event");
  bench::Table table(std::move(headers));
  for (const auto& r : rows) {
    std::vector<std::string> cells{r.path};
    for (auto& c : bench::latency_cells(r.us, /*with_mean=*/true))
      cells.push_back(std::move(c));
    cells.push_back(bench::fmt(r.us.percentile(50) / base, 1) + "x");
    cells.push_back(r.rpc_calls_per_event < 0 ? "-" : bench::fmt(r.rpc_calls_per_event));
    table.row(std::move(cells));
  }
  table.print();
  std::printf("\n");
  bench::note("Shape check (paper §3.1): isolation adds microseconds-to-sub-ms per");
  bench::note("event — small against the ~4x cost DevoFlow attributes to putting the");
  bench::note("controller in the critical path at all.");

  // --- loss-rate sweep: RPC latency + retry cost under a lossy channel ---
  // Rama/MORPH-style robustness check: the retry/backoff layer should turn
  // datagram loss into bounded extra latency, never corruption or a
  // misclassified crash.
  bench::section("loss sweep: deliver RPC under drop+dup+reorder (seeded)");
  struct LossRow {
    double loss;
    Histogram us;
    std::uint64_t retransmits = 0;
    std::uint64_t flakes_recovered = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t dup_chunks = 0;   ///< duplicate of an in-flight chunk
    std::uint64_t stale_chunks = 0; ///< straggler of a completed frame
  };
  const int kLossIters = bench::iters(600, 30);
  std::vector<LossRow> loss_rows;
  for (double loss : {0.0, 0.05, 0.10, 0.20}) {
    appvisor::ProcessDomain::Config cfg;
    cfg.faults.drop = loss;
    cfg.faults.duplicate = loss / 2;
    cfg.faults.reorder = loss / 2;
    cfg.faults.seed = 0xB0B0 + static_cast<std::uint64_t>(loss * 1000);
    cfg.retry_initial_timeout_ms = 5;
    cfg.retry_max = 10;
    cfg.deliver_timeout_ms = 2000;
    appvisor::ProcessDomain d(std::make_shared<apps::LearningSwitch>(), cfg);
    if (!d.start()) {
      std::fprintf(stderr, "failed to start lossy process domain\n");
      return 1;
    }
    LossRow row{loss, {}, 0, 0, 0, 0, 0};
    bench::Stopwatch sw;
    for (int i = 0; i < kLossIters; ++i) {
      sw.start();
      auto out = d.deliver(make_packet_in(i), kSimStart);
      const double us = sw.elapsed_us();
      if (out.ok()) {
        row.us.add(us);
      } else {
        row.timeouts += 1;
        if (!d.restart()) break;
      }
    }
    if (const auto* ts = d.transport_stats()) {
      row.retransmits = ts->retransmits;
      row.flakes_recovered = ts->flakes_recovered;
      row.dup_chunks = ts->channel.dup_chunks_dropped;
      row.stale_chunks = ts->channel.stale_chunks_dropped;
    }
    d.shutdown();
    loss_rows.push_back(std::move(row));
  }

  std::vector<std::string> lh{"loss rate"};
  for (auto& h : bench::latency_headers()) lh.push_back(std::move(h));
  for (const char* h : {"retransmits", "flakes recovered", "timeouts",
                        "dup/stale chunks dropped"})
    lh.push_back(h);
  bench::Table lt(std::move(lh));
  for (const auto& r : loss_rows) {
    std::vector<std::string> cells{bench::fmt_pct(r.loss)};
    for (auto& c : bench::latency_cells(r.us)) cells.push_back(std::move(c));
    cells.push_back(std::to_string(r.retransmits));
    cells.push_back(std::to_string(r.flakes_recovered));
    cells.push_back(std::to_string(r.timeouts));
    cells.push_back(std::to_string(r.dup_chunks) + "/" +
                    std::to_string(r.stale_chunks));
    lt.row(std::move(cells));
  }
  lt.print();
  std::printf("\n");
  bench::note("Every exchange either completed byte-identical or timed out cleanly;");
  bench::note("loss shows up as retry latency in the tail, not as corruption.");

  // Machine-readable result line (one JSON object) for harnesses.
  bench::Json j;
  j.begin_obj()
      .kv("bench", std::string("isolation_latency"))
      .kv("host_cpus", static_cast<std::uint64_t>(usable_cpus()))
      .begin_arr("paths");
  for (const auto& r : rows) {
    j.begin_obj().kv("path", r.path);
    if (r.rpc_calls_per_event >= 0) j.kv("rpc_calls_per_event", r.rpc_calls_per_event, 3);
    bench::latency_kv(j, r.us, /*with_mean=*/true).end_obj();
  }
  j.end_arr().begin_arr("loss_sweep");
  for (const auto& r : loss_rows) {
    j.begin_obj()
        .kv("loss_rate", r.loss, 3)
        .kv("rpcs", static_cast<std::uint64_t>(r.us.count()));
    bench::latency_kv(j, r.us)
        .kv("retransmits", r.retransmits)
        .kv("flakes_recovered", r.flakes_recovered)
        .kv("timeouts", r.timeouts)
        .kv("dup_chunks_dropped", r.dup_chunks)
        .kv("stale_chunks_dropped", r.stale_chunks)
        .end_obj();
  }
  j.end_arr().end_obj();
  bench::emit_json(j);
  return 0;
}
