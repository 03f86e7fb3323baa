// Experiments C2 + C7 (§4.1, §5): checkpointing cost and its amortization.
//
// "The proxy creates a checkpoint of an SDN-App process prior to dispatching
//  every message." (§4.1)  "Crash-Pad creates a checkpoint after every event,
//  and this can be prohibitively expensive. Thus, we plan to explore a
//  combination of checkpointing and event replay." (§5)
//
// Part 1 sweeps app state size and reports per-snapshot cost: in-process
// serialization, and across the real process boundary the capture+deliver
// pair (the stub ships post-event state on the deliver's reply, so a bare
// snapshot() there is a local copy) beside a plain deliver.
// Part 2 sweeps the checkpoint period k and reports (a) amortized overhead
// per event and (b) crash-recovery cost (restore + replay of up to k-1
// events) — the trade-off the §5 extension navigates.
// Part 3 (C8) is the pipeline sweep: sync (the store's put runs inline on
// the event path) vs async (capture + handoff only; the put, which diffs the
// previous newest snapshot into a backward delta, runs on the background
// worker) across state sizes, over the one SnapshotStore. Each row checks
// that the store's newest and oldest retained snapshots equal the bench's
// own captures byte for byte (restore_ok); scripts/check_bench.py fails the
// bench-smoke job on a mismatch. The JSON line at the end carries the p50
// event-path latencies.
#include <thread>

#include "appvisor/inprocess_domain.hpp"
#include "appvisor/process_domain.hpp"
#include "apps/fault_injection.hpp"
#include "bench_util.hpp"
#include "checkpoint/checkpoint_worker.hpp"
#include "checkpoint/snapshot_store.hpp"
#include "controller/controller.hpp"
#include "netsim/network.hpp"

namespace {

using namespace legosdn;

ctl::Event make_packet_in(std::uint64_t i) {
  of::PacketIn pin;
  pin.dpid = DatapathId{1};
  pin.in_port = PortNo{1};
  pin.packet.hdr.eth_src = MacAddress::from_uint64(0x100 + i % 16);
  pin.packet.hdr.eth_dst = MacAddress::from_uint64(0x200 + i % 16);
  pin.packet.hdr.tp_dst = 80;
  return pin;
}

/// Snapshots the C8 store retains per app.
constexpr std::size_t kKeep = 16;

struct PipelineRow {
  std::size_t state_bytes = 0;
  Histogram sync_us;  ///< event-path cost, capture + inline put
  Histogram async_us; ///< event-path cost, capture + handoff
  double encode_lag_p50_us = 0;
  std::uint64_t fulls = 0;
  std::uint64_t deltas = 0;
  std::uint64_t raw_bytes = 0;
  std::uint64_t stored_bytes = 0;
  bool restore_ok = false;
};

/// Run `events` packet-ins through a StatefulApp, checkpointing before every
/// event through the given pipeline mode, and measure the event-path
/// checkpoint cost (capture + submit). Returns p50/… samples plus worker
/// stats and a byte-for-byte check of the newest and oldest stored snapshot.
///
/// Events are spaced by a state-size-proportional think time (the rest of
/// the control loop: app handlers, NetLog, invariant checks). Checkpoints
/// arriving back-to-back with zero gap would only measure allocator
/// contention against the worker's backlog — the encode-lag column is where
/// a worker that cannot keep up shows honestly.
PipelineRow run_pipeline(std::size_t state_bytes, bool async, int events,
                         int warmup) {
  PipelineRow row;
  row.state_bytes = state_bytes;

  checkpoint::SnapshotStore store(kKeep);
  checkpoint::CheckpointWorker::Config wcfg;
  wcfg.async = async;
  wcfg.max_queue = 1024; // queue must absorb the bench burst, not backpressure
  checkpoint::CheckpointWorker worker(store, wcfg);

  // ~6% of pages dirtied per event: a working set small relative to state,
  // which is what the backward diffs exploit (touch_pages=0 would dirty
  // every page and make each diff a whole state — worth knowing, not worth
  // timing).
  const std::size_t pages = std::max<std::size_t>(1, state_bytes / 4096);
  auto app = std::make_shared<apps::StatefulApp>(
      state_bytes, std::max<std::size_t>(1, pages / 16));
  appvisor::InProcessDomain d(app);
  d.start();

  const auto think = std::chrono::microseconds(state_bytes / 1024);
  Histogram& on_path = async ? row.async_us : row.sync_us;
  // With the final capture below, the store keeps seqs first_kept..events.
  const int first_kept = events + 1 - static_cast<int>(kKeep);
  std::vector<std::uint8_t> oldest_expect;
  for (int i = 0; i < events; ++i) {
    bench::Stopwatch sw;
    sw.start();
    auto snap = d.snapshot();
    if (snap.ok()) {
      if (i == first_kept) oldest_expect = snap.value();
      worker.submit(AppId{1}, static_cast<std::uint64_t>(i), kSimStart,
                    std::move(snap).value());
    }
    // The copy above is the bench's, not the pipeline's: leave it untimed.
    if (i >= warmup && i != first_kept) on_path.add(sw.elapsed_us());
    d.deliver(make_packet_in(static_cast<std::uint64_t>(i)), kSimStart);
    std::this_thread::sleep_for(think);
  }
  worker.flush();

  const auto ws = worker.stats();
  row.encode_lag_p50_us = ws.encode_lag_us.percentile(50);
  row.fulls = ws.full_snapshots;
  row.deltas = ws.delta_snapshots;
  row.raw_bytes = ws.raw_bytes;
  row.stored_bytes = ws.stored_bytes;

  // Correctness: submit one final capture; the newest stored snapshot must
  // be it, and the oldest (the newest with every backward diff applied) the
  // capture first_kept events ago, byte for byte.
  auto expect = d.snapshot();
  if (expect.ok()) {
    worker.submit(AppId{1}, static_cast<std::uint64_t>(events), kSimStart,
                  std::vector<std::uint8_t>(expect.value()));
    worker.flush();
    const auto latest = store.latest(AppId{1});
    const auto oldest = store.oldest(AppId{1});
    row.restore_ok = latest && latest->state == expect.value() && oldest &&
                     oldest->event_seq == static_cast<std::uint64_t>(first_kept) &&
                     oldest->state == oldest_expect;
  }
  return row;
}

} // namespace

int main() {
  const int kPart1Inproc = bench::iters(300, 30);
  const int kPart1Proc = bench::iters(120, 12);

  bench::section("C2: per-event checkpoint cost vs app state size (§4.1)");
  {
    bench::Table table({"state size", "in-process snap (us, p50)",
                        "process+UDP snap+deliver (us, p50)",
                        "process+UDP deliver (us, p50)", "snapshot bytes"});
    std::vector<std::size_t> sizes = {std::size_t{1} << 10, std::size_t{1} << 14,
                                      std::size_t{1} << 17, std::size_t{1} << 20,
                                      std::size_t{4} << 20};
    if (bench::smoke()) sizes = {std::size_t{1} << 10, std::size_t{1} << 17};
    for (const std::size_t size : sizes) {
      // In-process.
      Histogram inproc;
      {
        appvisor::InProcessDomain d(std::make_shared<apps::StatefulApp>(size));
        d.start();
        for (int i = 0; i < kPart1Inproc; ++i) {
          d.deliver(make_packet_in(i), kSimStart);
          bench::Stopwatch sw;
          sw.start();
          auto snap = d.snapshot();
          if (i >= kPart1Inproc / 6 && snap.ok()) inproc.add(sw.elapsed_us());
        }
      }
      // Across the process boundary: a per-event checkpoint, then the same
      // stub without one.
      Histogram proc_pair;
      Histogram proc_deliver;
      {
        appvisor::ProcessDomain d(std::make_shared<apps::StatefulApp>(size));
        if (!d.start()) return 1;
        for (int i = 0; i < kPart1Proc; ++i) {
          bench::Stopwatch sw;
          sw.start();
          auto snap = d.snapshot();
          auto out = d.deliver(make_packet_in(i), kSimStart);
          if (i >= kPart1Proc / 6 && snap.ok() && out.ok())
            proc_pair.add(sw.elapsed_us());
        }
        for (int i = 0; i < kPart1Proc; ++i) {
          bench::Stopwatch sw;
          sw.start();
          auto out = d.deliver(make_packet_in(i), kSimStart);
          if (i >= kPart1Proc / 6 && out.ok()) proc_deliver.add(sw.elapsed_us());
        }
        d.shutdown();
      }
      const std::string label =
          size >= (1 << 20) ? bench::fmt(double(size) / (1 << 20), 0) + " MiB"
                            : bench::fmt(double(size) / 1024, 0) + " KiB";
      table.row({label, bench::fmt(inproc.percentile(50)),
                 bench::fmt(proc_pair.percentile(50)),
                 bench::fmt(proc_deliver.percentile(50)), std::to_string(size)});
    }
    table.print();
    std::printf("\n");
    bench::note("Shape: cost grows roughly linearly with state size. Across the");
    bench::note("process boundary the checkpoint rides on the deliver's reply as the");
    bench::note("chunks the event dirtied (this app dirties every 4 KiB page), so");
    bench::note("snap+deliver minus deliver is its price (CRIU analogue).");
  }

  bench::section("C7: periodic checkpointing + replay, sweep over k (§5)");
  {
    bench::Table table({"checkpoint every k", "snapshots / 1000 events",
                        "amortized overhead (us/event)", "recovery cost (us, p50)",
                        "events replayed on crash"});
    constexpr std::size_t kState = 1 << 17; // 128 KiB of app state
    const int kEvents = bench::iters(1000, 100);
    for (const std::uint64_t k : {1u, 2u, 5u, 10u, 25u, 100u}) {
      appvisor::InProcessDomain d(std::make_shared<apps::StatefulApp>(kState));
      d.start();
      std::vector<std::uint8_t> last_snapshot;
      std::uint64_t snapshots = 0;
      double snap_cost_total_us = 0;
      std::vector<ctl::Event> since_checkpoint;
      Histogram recovery_us;
      std::uint64_t replayed = 0;
      std::uint64_t crashes = 0;
      for (int i = 0; i < kEvents; ++i) {
        if (static_cast<std::uint64_t>(i) % k == 0) {
          bench::Stopwatch sw;
          sw.start();
          auto snap = d.snapshot();
          snap_cost_total_us += sw.elapsed_us();
          if (snap.ok()) last_snapshot = std::move(snap).value();
          snapshots += 1;
          since_checkpoint.clear();
        }
        const ctl::Event e = make_packet_in(i);
        since_checkpoint.push_back(e);
        d.deliver(e, kSimStart);

        // Every 250 events (25 under smoke), simulate a crash and measure
        // recovery: restore the last snapshot + replay the events since it.
        const int crash_period = kEvents / 4;
        if (i % crash_period == crash_period - 1) {
          crashes += 1;
          bench::Stopwatch sw;
          sw.start();
          d.restore(last_snapshot);
          for (const auto& ev : since_checkpoint) {
            d.deliver(ev, kSimStart);
            replayed += 1;
          }
          recovery_us.add(sw.elapsed_us());
        }
      }
      table.row({std::to_string(k), std::to_string(snapshots),
                 bench::fmt(snap_cost_total_us / kEvents),
                 bench::fmt(recovery_us.percentile(50)),
                 std::to_string(replayed / (crashes ? crashes : 1))});
    }
    table.print();
    std::printf("\n");
    bench::note("Shape: amortized checkpoint overhead falls ~linearly in k, while");
    bench::note("recovery cost grows with k (restore + up to k-1 replayed events) —");
    bench::note("exactly the trade-off §5 proposes to navigate.");
  }

  bench::section("C8: sync vs async checkpoint pipeline (§5)");
  std::vector<PipelineRow> rows;
  {
    std::vector<std::size_t> sizes = {std::size_t{1} << 16, std::size_t{1} << 18,
                                      std::size_t{1} << 20, std::size_t{4} << 20};
    if (bench::smoke()) sizes = {std::size_t{1} << 14, std::size_t{1} << 17};
    const int events = bench::iters(160, 24);
    const int warmup = bench::iters(20, 4);

    bench::Table table({"state size", "sync on-path (us, p50)",
                        "async on-path (us, p50)", "speedup",
                        "encode lag (us, p50)", "diffs/first", "bytes saved",
                        "restore"});
    for (const std::size_t size : sizes) {
      PipelineRow sync = run_pipeline(size, /*async=*/false, events, warmup);
      PipelineRow async = run_pipeline(size, /*async=*/true, events, warmup);
      PipelineRow merged = async;
      merged.sync_us = sync.sync_us;
      if (!sync.restore_ok) merged.restore_ok = false;

      const double sync_p50 = merged.sync_us.percentile(50);
      const double async_p50 = merged.async_us.percentile(50);
      const double saved_pct =
          merged.raw_bytes
              ? 100.0 * (1.0 - double(merged.stored_bytes) / double(merged.raw_bytes))
              : 0.0;
      const std::string label =
          size >= (1 << 20) ? bench::fmt(double(size) / (1 << 20), 0) + " MiB"
                            : bench::fmt(double(size) / 1024, 0) + " KiB";
      table.row({label, bench::fmt(sync_p50), bench::fmt(async_p50),
                 bench::fmt(async_p50 > 0 ? sync_p50 / async_p50 : 0, 1) + "x",
                 bench::fmt(merged.encode_lag_p50_us),
                 std::to_string(merged.deltas) + "/" + std::to_string(merged.fulls),
                 bench::fmt(saved_pct, 1) + "%",
                 merged.restore_ok ? "ok" : "MISMATCH"});
      rows.push_back(std::move(merged));
    }
    table.print();
    std::printf("\n");
    bench::note("Shape: sync pays capture + the store's put (a memcmp diff of the");
    bench::note("previous newest snapshot) on the event path; async pays capture +");
    bench::note("handoff only. Both use the one store: the newest snapshot whole, older");
    bench::note("ones as backward diffs, so a sparse-write app's retained bytes stay");
    bench::note("small. restore compares the newest and oldest stored snapshots with");
    bench::note("the bench's own captures.");
  }

  // Machine-readable result line (one JSON object) for harnesses.
  bench::Json j;
  j.begin_obj().kv("bench", std::string("checkpoint")).begin_arr("pipeline");
  for (const auto& r : rows) {
    const double sync_p50 = r.sync_us.percentile(50);
    const double async_p50 = r.async_us.percentile(50);
    j.begin_obj()
        .kv("state_bytes", static_cast<std::uint64_t>(r.state_bytes))
        .kv("sync_p50_us", sync_p50)
        .kv("sync_p95_us", r.sync_us.percentile(95))
        .kv("async_p50_us", async_p50)
        .kv("async_p95_us", r.async_us.percentile(95))
        .kv("speedup_p50", async_p50 > 0 ? sync_p50 / async_p50 : 0.0)
        .kv("encode_lag_p50_us", r.encode_lag_p50_us)
        .kv("delta_snapshots", r.deltas)
        .kv("full_snapshots", r.fulls)
        .kv("raw_bytes", r.raw_bytes)
        .kv("stored_bytes", r.stored_bytes)
        .kv_bool("restore_ok", r.restore_ok)
        .end_obj();
  }
  j.end_arr().end_obj();
  bench::emit_json(j);
  return 0;
}
