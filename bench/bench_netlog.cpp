// Experiment C3 (§3.2): NetLog transaction throughput, rollback cost,
// undo-log size, and the counter-cache — undo-log mode vs the paper's
// delay-buffer prototype.
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "netlog/netlog.hpp"

namespace {

using namespace legosdn;

of::FlowMod random_add(Rng& rng, std::size_t n_switches) {
  of::FlowMod mod;
  mod.dpid = DatapathId{rng.below(n_switches) + 1};
  mod.match = of::Match{}
                  .with_eth_dst(MacAddress::from_uint64(rng.below(4096)))
                  .with_tp_dst(static_cast<std::uint16_t>(rng.below(1024)));
  mod.priority = static_cast<std::uint16_t>(100 + rng.below(100));
  mod.actions = of::output_to(PortNo{static_cast<std::uint16_t>(rng.below(3) + 1)});
  return mod;
}

} // namespace

int main() {
  bench::section("C3: NetLog transactions — commit/rollback cost (§3.2)");

  constexpr std::size_t kSwitches = 8;
  const int kTxns = bench::iters(2000, 100);

  bench::Table table({"mode", "ops/txn", "commit (us, p50)", "rollback (us, p50)",
                      "undo bytes peak", "txn/s (commit path)"});

  struct Row {
    std::string mode;
    std::size_t ops_per_txn = 0;
    double commit_p50_us = 0;
    double rollback_p50_us = 0;
    std::uint64_t undo_bytes_peak = 0;
    double txn_per_s = 0;
  };
  std::vector<Row> rows;

  for (const auto& [label, mode] :
       {std::pair{"undo-log (NetLog)", netlog::Mode::kUndoLog},
        std::pair{"delay-buffer (paper prototype)", netlog::Mode::kDelayBuffer}}) {
    for (const std::size_t ops_per_txn : {1u, 4u, 16u}) {
      auto net = netsim::Network::linear(kSwitches, 1);
      netlog::NetLog log(*net, {mode, /*barrier_on_commit=*/false});
      Rng rng(7);
      Histogram commit_us, rollback_us;
      bench::Stopwatch total;
      double committed_wall_us = 0;
      for (int t = 0; t < kTxns; ++t) {
        const bool roll = (t % 2) == 1; // alternate commit/rollback
        const TxnId txn = log.begin(AppId{1});
        for (std::size_t i = 0; i < ops_per_txn; ++i) {
          log.apply(txn, {static_cast<std::uint32_t>(t * 100 + i),
                          random_add(rng, kSwitches)});
        }
        bench::Stopwatch sw;
        sw.start();
        if (roll) {
          log.rollback(txn);
          rollback_us.add(sw.elapsed_us());
        } else {
          log.commit(txn);
          const double us = sw.elapsed_us();
          commit_us.add(us);
          committed_wall_us += us;
        }
      }
      Row r;
      r.mode = label;
      r.ops_per_txn = ops_per_txn;
      r.commit_p50_us = commit_us.percentile(50);
      r.rollback_p50_us = rollback_us.percentile(50);
      r.undo_bytes_peak = log.stats().undo_bytes_peak;
      r.txn_per_s = commit_us.count() / (committed_wall_us / 1e6);
      table.row({label, std::to_string(ops_per_txn), bench::fmt(r.commit_p50_us),
                 bench::fmt(r.rollback_p50_us), std::to_string(r.undo_bytes_peak),
                 bench::fmt(r.txn_per_s, 0)});
      rows.push_back(std::move(r));
    }
  }
  table.print();
  std::printf("\n");
  bench::note("Shape: delay-buffer defers all work to commit and rolls back for free;");
  bench::note("undo-log pays per-op undo recording but rollback stays cheap and the");
  bench::note("network sees rules immediately (no added rule-install latency).");

  bench::section("C3b: counter-cache correctness under delete/rollback churn (§3.2)");
  std::uint64_t cc_true = 0, cc_corrected = 0;
  {
    auto net = netsim::Network::linear(2, 1);
    netlog::NetLog log(*net, {netlog::Mode::kUndoLog, false});
    const of::Match m = of::Match{}.with_eth_dst(net->hosts()[1].mac);

    // Install a rule and push traffic through it.
    TxnId t0 = log.begin(AppId{1});
    of::FlowMod add;
    add.dpid = DatapathId{1};
    add.match = m;
    add.priority = 100;
    add.actions = of::output_to(PortNo{3});
    log.apply(t0, {1, add});
    log.commit(t0);

    of::Packet pkt;
    pkt.hdr.eth_src = net->hosts()[0].mac;
    pkt.hdr.eth_dst = net->hosts()[1].mac;
    std::uint64_t true_count = 0;
    Rng rng(3);
    const int kRounds = bench::iters(50, 8);
    for (int round = 0; round < kRounds; ++round) {
      const auto n = 1 + rng.below(5);
      for (std::uint64_t i = 0; i < n; ++i) {
        net->inject_from_host(net->hosts()[0].mac, pkt);
        true_count += 1;
      }
      // Delete + rollback: switch counters reset, cache must compensate.
      TxnId t = log.begin(AppId{1});
      of::FlowMod del;
      del.dpid = DatapathId{1};
      del.command = of::FlowModCommand::kDeleteStrict;
      del.match = m;
      del.priority = 100;
      log.apply(t, {2, del});
      log.rollback(t);
    }
    // Read stats through NetLog's correction.
    std::vector<of::Message> nb;
    net->set_northbound([&](const of::Message& msg) { nb.push_back(msg); });
    of::StatsRequest req;
    req.dpid = DatapathId{1};
    req.kind = of::StatsKind::kFlow;
    req.match = of::Match::any();
    net->send_to_switch({9, req});
    auto* reply = nb.at(0).get_if<of::StatsReply>();
    const std::uint64_t raw_count = reply->flows.at(0).packet_count;
    log.correct_stats(*reply);
    const std::uint64_t corrected = reply->flows.at(0).packet_count;

    bench::Table t({"metric", "value"});
    t.row({"true packets forwarded", std::to_string(true_count)});
    t.row({"switch-reported (after " + std::to_string(kRounds) +
               " delete/rollback cycles)",
           std::to_string(raw_count)});
    t.row({"NetLog counter-cache corrected", std::to_string(corrected)});
    t.row({"cache entries", std::to_string(log.counter_cache().size())});
    t.print();
    std::printf("\n");
    if (corrected == true_count) {
      bench::note("PASS: corrected counters exactly match ground truth.");
    } else {
      bench::note("MISMATCH: corrected counters diverge from ground truth!");
    }
    cc_true = true_count;
    cc_corrected = corrected;
  }

  // Machine-readable result line (one JSON object) for harnesses.
  bench::Json j;
  j.begin_obj().kv("bench", std::string("netlog"));
  j.kv("txns", static_cast<std::uint64_t>(kTxns));
  j.begin_arr("modes");
  for (const auto& r : rows) {
    j.begin_obj()
        .kv("mode", r.mode)
        .kv("ops_per_txn", static_cast<std::uint64_t>(r.ops_per_txn))
        .kv("commit_p50_us", r.commit_p50_us)
        .kv("rollback_p50_us", r.rollback_p50_us)
        .kv("undo_bytes_peak", r.undo_bytes_peak)
        .kv("txn_per_s", r.txn_per_s, 0)
        .end_obj();
  }
  j.end_arr();
  j.begin_obj("counter_cache")
      .kv("true_packets", cc_true)
      .kv("corrected", cc_corrected)
      .kv("ok", std::string(cc_true == cc_corrected ? "true" : "false"))
      .end_obj();
  j.end_obj();
  bench::emit_json(j);
  return 0;
}
