#include "legosdn/lego_controller.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>

#include "common/log.hpp"
#include "legosdn/delta_debug.hpp"
#include "legosdn/replication.hpp"

namespace legosdn::lego {

namespace {

/// Guards against recursive recovery (a transformed event crashing again).
/// Thread-local: each shard lane's recovery call stack is independent.
thread_local bool t_in_recovery = false;

/// The shard whose dispatch_core invocation is running on this thread
/// (kGlobal for serial dispatch and barrier events). apply_transaction reads
/// it to find the lane's coalesced-transaction slot without threading the
/// shard index through every deliver/recover signature.
thread_local std::size_t t_dispatch_shard = ctl::ShardRouter::kGlobal;

} // namespace

LegoController::LegoController(netsim::Network& net, LegoConfig cfg)
    : ctl::Controller(net),
      cfg_(std::move(cfg)),
      netlog_(net, cfg_.netlog),
      snapshots_(cfg_.snapshot_keep),
      transformer_(net),
      checker_(net),
      role_(cfg_.role) {
  if (role_ == LegoConfig::Role::kFollower) {
    // A follower's state machines run warm but nothing reaches the wire:
    // NetLog maintains shadows/undo logs without forwarding, and any direct
    // ServiceApi send from an app is swallowed (and counted).
    netlog_.set_shadow_only(true);
    set_send_suppressed(true);
  }
}

LegoController::~LegoController() { visor_.shutdown_all(); }

AppId LegoController::add_app(ctl::AppPtr app) {
  const std::size_t shards = cfg_.dispatch.shards;
  if (shards > 1 && app->clone() != nullptr) {
    // Dpid-partitionable state: one clone per shard, each a full citizen —
    // own AppId, isolation domain, checkpoint history, event log, recovery.
    // The clone on lane s only ever sees events whose dpid hashes to s, so
    // the union of clone states equals the serial app's state.
    AppId first{};
    for (std::size_t s = 0; s < shards; ++s) {
      ctl::AppPtr inst = (s + 1 == shards) ? std::move(app) : app->clone();
      const AppId id = visor_.add_app(std::move(inst), cfg_.backend, cfg_.process,
                                      static_cast<int>(s));
      per_app_[id] = PerApp{};
      if (s == 0) first = id;
    }
    return first;
  }
  const AppId id = visor_.add_app(std::move(app), cfg_.backend, cfg_.process);
  per_app_[id] = PerApp{};
  return id;
}

AppId LegoController::add_domain(appvisor::DomainPtr domain) {
  const AppId id = visor_.add_domain(std::move(domain));
  per_app_[id] = PerApp{};
  return id;
}

Status LegoController::start_system() {
  if (auto st = visor_.start_all(); !st) return st;
  if (cfg_.dispatch.shards > 1 && !dispatch_engine()) {
    coalesce_lanes_.clear();
    coalesce_lanes_.resize(cfg_.dispatch.shards);
    ctl::ShardedDispatcher::Config dcfg;
    dcfg.shards = cfg_.dispatch.shards;
    // Batch boundary: commit this lane's coalesced transactions before the
    // drained events count as complete (so drain() never observes an open
    // coalesced span) and before any barrier parks the lane.
    dcfg.on_batch_end = [this](std::size_t shard) { flush_coalesced(shard); };
    install_dispatch_engine(std::move(dcfg),
                            [this](ctl::Event e, std::size_t shard) {
                              dispatch_core(std::move(e), shard);
                            });
  }
  start();
  return Status::success();
}

void LegoController::upgrade_restart() {
  // The controller process bounces: queued events are lost and switches are
  // re-announced — but the isolated apps keep running with their state.
  if (dispatch_engine()) run(); // quiesce the lanes before the bounce
  stats_.events_dropped += queue_.size();
  queue_.clear();
  stats_.reboots += 1;
  start();
}

void LegoController::maybe_checkpoint(appvisor::AppEntry& entry, const ctl::Event& e) {
  PerApp& pa = per_app_[entry.id];
  const std::uint64_t every = cfg_.checkpoint_every ? cfg_.checkpoint_every : 1;
  const bool due = every <= 1 || pa.seen - pa.last_checkpoint >= every ||
                   pa.last_checkpoint == 0;
  if (due) {
    // Stored on this thread before the event is delivered, so a crash on
    // this event restores exactly this capture (DESIGN.md §4.2).
    auto snap = entry.domain->snapshot();
    if (snap) {
      store_checkpoint(entry.id, pa.seen, std::move(snap).value());
      pa.last_checkpoint = pa.seen;
    }
  }
  // The offender itself is appended before delivery so the log matches what
  // the app actually saw.
  event_log_.append(entry.id, pa.seen, e);
}

void LegoController::store_checkpoint(AppId app, std::uint64_t seq,
                                      std::vector<std::uint8_t> state) {
  const std::size_t raw = state.size();
  const auto t0 = std::chrono::steady_clock::now();
  const checkpoint::SnapshotStore::Put put =
      snapshots_.put(app, seq, net_.now(), std::move(state));
  const double put_us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  {
    std::lock_guard<std::mutex> lk(lego_mu_);
    lego_stats_.checkpoints += 1;
    lego_stats_.checkpoint_bytes += raw;
    (put.first ? lego_stats_.full_snapshots : lego_stats_.delta_snapshots) += 1;
    lego_stats_.checkpoint_stored_bytes += put.stored_bytes;
    lego_stats_.encode_lag_us.add(put_us);
  }
  // The event log holds everything since the oldest stored snapshot:
  // restore replays from the newest, and localize_fault probes from the
  // oldest. Only a put moves the oldest, so only a put truncates.
  event_log_.truncate(app, put.oldest_seq);
}

bool LegoController::apply_transaction(appvisor::AppEntry& entry,
                                       std::vector<of::Message> emitted,
                                       std::string* violation) {
  if (emitted.empty()) return true;
  const bool has_state_change =
      std::any_of(emitted.begin(), emitted.end(),
                  [](const of::Message& m) { return of::is_state_changing(m.body); });

  // Byzantine detection must only blame violations this transaction *adds*:
  // a dead switch leaves stale black-holes network-wide, and a transaction
  // that merely coexists with (or even repairs) them is innocent. Like
  // VeriFlow, verification is incremental: loops and black-holes are traced
  // from exactly the rules this transaction wrote (new by construction), and
  // only reachability, which old rules can lose through shadowing, is
  // diffed against a pre-transaction baseline. Both reachability passes go
  // through reach_memo_, which re-traces only the pairs whose tables or
  // topology changed since it last saw them (DESIGN.md §4.4).
  std::set<std::string> baseline;
  std::vector<of::FlowMod> written;
  const bool verify = cfg_.byzantine_detection && has_state_change;
  // Commit coalescing (§4.7): lane-local, non-verifying, undo-log
  // transactions of one app can share a begin/commit across a drained batch.
  // Verifying transactions never coalesce — they may roll back, and a
  // rollback must cover exactly one event's span.
  const std::size_t shard = t_dispatch_shard;
  const bool coalesce = !verify && cfg_.dispatch.coalesce_commits &&
                        cfg_.netlog.mode == netlog::Mode::kUndoLog &&
                        shard != ctl::ShardRouter::kGlobal &&
                        shard < coalesce_lanes_.size();
  // A verifier is about to stop the world of writers: this app's pending
  // spans must commit first (commit takes the shared side), and in order.
  if (verify) flush_coalesced_app(shard, entry.id);
  // Verification traces reachability across the whole network, so it cannot
  // tolerate concurrent commits from other lanes: verifying transactions
  // take the transaction lock exclusively (stopping the world of writers),
  // everything else runs shared. Uncontended in serial mode.
  std::shared_lock<std::shared_mutex> ro_lock;
  std::unique_lock<std::shared_mutex> rw_lock;
  if (verify) {
    rw_lock = std::unique_lock<std::shared_mutex>(txn_rw_);
  } else {
    ro_lock = std::shared_lock<std::shared_mutex>(txn_rw_);
  }
  if (verify) {
    for (const auto& msg : emitted) {
      if (const auto* mod = msg.get_if<of::FlowMod>()) written.push_back(*mod);
    }
    // Only reachability can regress through rules the transaction did not
    // write (shadowing), so only it needs a baseline. Unless something
    // changed since the previous verifying transaction's post-check, every
    // pair is answered from the memo without a trace.
    for (const auto& v : checker_.check_reachability_only(cfg_.invariants, reach_memo_))
      baseline.insert(v.to_string());
  }

  TxnId txn{};
  if (coalesce) {
    auto& open = coalesce_lanes_[shard].open;
    if (const auto it = open.find(entry.id); it != open.end()) {
      txn = it->second;
      netlog_.join(txn, entry.id); // one more logical span
    } else {
      txn = netlog_.begin(entry.id);
      open.emplace(entry.id, txn);
    }
  } else {
    txn = netlog_.begin(entry.id);
  }
  for (const auto& msg : emitted) netlog_.apply(txn, msg);

  if (verify) {
    std::string detail;
    // Undo-log applies usually reach the switches at once, so the live tables
    // already hold the would-be state. Otherwise (delay-buffer NetLog, wire
    // frames in flight, a drifted shadow) the checker overlays the pending
    // mods on copies of the touched tables.
    const bool pending = !netlog_.landed(txn);
    if (pending) {
      std::lock_guard<std::mutex> lk(lego_mu_);
      lego_stats_.verify_overlays += 1;
    }
    for (const auto& v : checker_.check_flow_mods(cfg_.invariants, written, pending)) {
      if (!detail.empty()) detail += "; ";
      detail += v.to_string();
    }
    for (const auto& v : checker_.check_reachability_only(cfg_.invariants, reach_memo_)) {
      const std::string s = v.to_string();
      if (baseline.contains(s)) continue;
      if (!detail.empty()) detail += "; ";
      detail += s;
    }
    if (!detail.empty()) {
      netlog_.rollback(txn);
      {
        std::lock_guard<std::mutex> lk(lego_mu_);
        lego_stats_.txns_rolled_back += 1;
      }
      if (violation) *violation = detail;
      return false;
    }
  }
  if (coalesce) {
    // The physical commit is deferred to the batch boundary (on_batch_end)
    // or an intervening crash/verify flush; it cannot roll back, so the
    // logical commit is already decided — count it now, matching per-event
    // mode's accounting.
    std::lock_guard<std::mutex> lk(lego_mu_);
    lego_stats_.txns_committed += 1;
    return true;
  }
  netlog_.commit(txn);
  {
    std::lock_guard<std::mutex> lk(lego_mu_);
    lego_stats_.txns_committed += 1;
  }
  return true;
}

void LegoController::flush_coalesced(std::size_t shard) {
  if (shard >= coalesce_lanes_.size()) return;
  auto& open = coalesce_lanes_[shard].open;
  if (open.empty()) return;
  // Commits mutate switch state (barrier sends): serialize against verifying
  // transactions the same way a non-coalesced commit does.
  std::shared_lock<std::shared_mutex> lk(txn_rw_);
  for (const auto& [app, txn] : open) netlog_.commit(txn);
  open.clear();
}

void LegoController::flush_coalesced_app(std::size_t shard, AppId app) {
  if (shard >= coalesce_lanes_.size()) return;
  auto& open = coalesce_lanes_[shard].open;
  const auto it = open.find(app);
  if (it == open.end()) return;
  const TxnId txn = it->second;
  open.erase(it);
  std::shared_lock<std::shared_mutex> lk(txn_rw_);
  netlog_.commit(txn);
}

ctl::Disposition LegoController::guarded_deliver(appvisor::AppEntry& entry,
                                                 const ctl::Event& e,
                                                 bool allow_recovery) {
  entry.events_delivered += 1;
  auto outcome = entry.domain->deliver(e, net_.now());
  if (!outcome.ok()) {
    // The transport layer already retried silent attempts, so what remains is
    // either a fail-stop crash (exception, process death) or a stub that
    // stayed unresponsive past the whole deliver deadline. Both recover the
    // same way, but they are counted apart: a timeout blames the channel or a
    // wedged handler, not a crashing app.
    entry.crashes += 1;
    // A crash ends the app's coalescible span stream: earlier spans already
    // succeeded (serial mode committed them per event), so commit them
    // before recovery touches the app.
    flush_coalesced_app(t_dispatch_shard, entry.id);
    {
      std::lock_guard<std::mutex> lk(lego_mu_);
      if (outcome.kind == appvisor::EventOutcome::Kind::kTimeout) {
        lego_stats_.stub_timeouts += 1;
      } else {
        lego_stats_.failstop_crashes += 1;
      }
    }
    LEGOSDN_LOG_INFO("crash-pad", "app '%s' %s on %s: %s",
                     entry.domain->app_name().c_str(),
                     outcome.kind == appvisor::EventOutcome::Kind::kTimeout
                         ? "timed out"
                         : "crashed",
                     ctl::describe(e).c_str(), outcome.crash_info.c_str());
    if (allow_recovery) recover(entry, e, outcome.crash_info, /*byzantine=*/false);
    return ctl::Disposition::kContinue;
  }
  // Per-app resource limit (§3.4): a handler emitting an absurd message
  // burst is misbehaving; its bundle is discarded and the app recovered.
  if (cfg_.limits.max_messages_per_event != 0 &&
      outcome.emitted.size() > cfg_.limits.max_messages_per_event) {
    entry.crashes += 1;
    flush_coalesced_app(t_dispatch_shard, entry.id);
    {
      std::lock_guard<std::mutex> lk(lego_mu_);
      lego_stats_.quota_violations += 1;
    }
    LEGOSDN_LOG_INFO("crash-pad", "app '%s' exceeded message quota (%zu > %zu)",
                     entry.domain->app_name().c_str(), outcome.emitted.size(),
                     cfg_.limits.max_messages_per_event);
    if (allow_recovery) {
      recover(entry, e,
              "message quota exceeded: " + std::to_string(outcome.emitted.size()) +
                  " > " + std::to_string(cfg_.limits.max_messages_per_event),
              /*byzantine=*/true);
    }
    return ctl::Disposition::kContinue;
  }

  std::string violation;
  if (!apply_transaction(entry, std::move(outcome.emitted), &violation)) {
    // Byzantine failure: output violated a network invariant. The rules are
    // already rolled back; now recover the app itself.
    entry.crashes += 1;
    {
      std::lock_guard<std::mutex> lk(lego_mu_);
      lego_stats_.byzantine_failures += 1;
    }
    LEGOSDN_LOG_INFO("crash-pad", "app '%s' byzantine on %s: %s",
                     entry.domain->app_name().c_str(), ctl::describe(e).c_str(),
                     violation.c_str());
    if (allow_recovery) recover(entry, e, violation, /*byzantine=*/true);
    return ctl::Disposition::kContinue;
  }
  return outcome.disposition;
}

void LegoController::dispatch(ctl::Event e) {
  // Serial dispatch behaves exactly like the barrier case of the sharded
  // pipeline: full shadow sweep, every entry eligible.
  dispatch_core(std::move(e), ctl::ShardRouter::kGlobal);
}

void LegoController::dispatch_core(ctl::Event e, std::size_t shard) {
  t_dispatch_shard = shard;
  // Contended once per event from every lane; atomic_ref keeps the plain
  // counter in Controller::Stats (readers only look after a drain) without
  // paying a mutex round-trip here.
  std::atomic_ref<std::uint64_t>(stats_.events_dispatched)
      .fetch_add(1, std::memory_order_relaxed);
  event_seq_.fetch_add(1, std::memory_order_relaxed);

  // Replication: followers must observe the event before any transaction
  // records it spawns (they interleave begin/apply/commit per app exactly as
  // the leader's dispatch produces them, so shipping here keeps the stream
  // totally ordered — ReplicaSet forces serial dispatch).
  ship_event(e);

  // Keep NetLog's shadow tables in sync and fix up stats replies from the
  // counter-cache before any app sees them (§3.2).
  if (const auto* fr = std::get_if<of::FlowRemoved>(&e)) {
    netlog_.observe_northbound({0, *fr});
  }
  if (auto* sr = std::get_if<of::StatsReply>(&e)) {
    netlog_.correct_stats(*sr);
  }
  if (shard == ctl::ShardRouter::kGlobal) {
    netlog_.expire_shadows(now());
  } else {
    // Lane-local events only ever consult their own switch's shadow; keeping
    // exactly that one fresh avoids a world-stop per event.
    const DatapathId d = ctl::event_dpid(e);
    if (raw(d) != 0) netlog_.expire_shadow(d, now());
  }

  const bool engine = dispatch_engine() != nullptr;
  const auto type_idx = static_cast<std::size_t>(ctl::event_type(e));
  for (auto& entry : visor_.entries()) {
    if (!entry.subscribed[type_idx]) continue;
    // Lane-local events skip clones pinned to other lanes. Barrier events
    // (shard == kGlobal) reach every entry — the world is stopped, and each
    // clone must see e.g. the SwitchDown for a dpid it may have state for.
    if (shard != ctl::ShardRouter::kGlobal &&
        entry.shard != appvisor::kAllShards &&
        entry.shard != static_cast<int>(shard)) {
      continue;
    }
    // Non-cloneable apps can be reached from any lane: serialize them.
    std::unique_lock<std::mutex> entry_lock;
    if (engine && shard != ctl::ShardRouter::kGlobal &&
        entry.shard == appvisor::kAllShards) {
      entry_lock = std::unique_lock<std::mutex>(*entry.mu);
    }
    PerApp& pa = per_app_[entry.id];
    pa.seen += 1;
    if (!entry.domain->alive()) {
      // App is down under No Compromise: it misses events but nobody else
      // does — no fate sharing.
      pa.missed += 1;
      continue;
    }
    maybe_checkpoint(entry, e);
    const ctl::Disposition d = guarded_deliver(entry, e, /*allow_recovery=*/true);
    if (d == ctl::Disposition::kStop) break;
  }
}

bool LegoController::restore_app(appvisor::AppEntry& entry) {
  // Restore the newest snapshot (kept whole). Under the default per-event
  // cadence it was taken just before the offender, so the replay below is
  // empty; it covers the gap when checkpoint_every > 1 or a capture failed.
  const std::optional<checkpoint::Snapshot> snap = snapshots_.latest(entry.id);
  Status st = snap ? entry.domain->restore(snap->state) : entry.domain->restart();
  if (!st) {
    LEGOSDN_LOG_ERROR("crash-pad", "restore of '%s' failed: %s",
                      entry.domain->app_name().c_str(),
                      st.error().to_string().c_str());
    return false;
  }
  entry.recoveries += 1;
  {
    std::lock_guard<std::mutex> lk(lego_mu_);
    lego_stats_.recoveries += 1;
  }

  // Periodic checkpointing (§5): replay events logged since the snapshot so
  // the app state catches up to just before the offender. Replay outputs are
  // discarded — the network already executed them when they first happened.
  // With no snapshot at all (every capture failed), the restart above reset
  // the app; replaying the log, which no put has truncated, rebuilds it.
  const PerApp& pa = per_app_[entry.id];
  // A snapshot is taken *before* the event numbered snap->event_seq is
  // delivered, so replay covers [snap->event_seq, offender) where the
  // offender is the event numbered pa.seen (excluded: replaying it would
  // just crash the app again).
  const std::uint64_t from = snap ? snap->event_seq : 0;
  const auto logged = event_log_.range(entry.id, from, pa.seen);
  // A replayed event can itself crash the app (an earlier offender that is
  // still in the log, or a multi-event bug). Mark it, rewind to the
  // snapshot, and recompose without it: the result is always
  //   snapshot + every non-crashing logged event, in order,
  // independent of *which* snapshot the restore landed on.
  std::vector<bool> skip(logged.size(), false);
  for (std::size_t attempt = 0; attempt <= logged.size(); ++attempt) {
    bool crashed = false;
    for (std::size_t i = 0; i < logged.size(); ++i) {
      if (skip[i]) continue;
      auto outcome = entry.domain->deliver(logged[i].event, net_.now());
      {
        std::lock_guard<std::mutex> lk(lego_mu_);
        lego_stats_.replayed_events += 1;
      }
      if (!outcome.ok()) {
        skip[i] = true;
        Status rewind = snap ? entry.domain->restore(snap->state)
                             : entry.domain->restart();
        if (!rewind) return false;
        crashed = true;
        break;
      }
    }
    if (!crashed) break;
  }
  return true;
}

LegoController::LocalizeResult LegoController::localize_fault(
    AppId app, const ctl::Event& offender) {
  LocalizeResult out;
  appvisor::AppEntry* entry = visor_.entry(app);
  if (!entry) return out;
  const PerApp& pa = per_app_[app];
  const auto logged = event_log_.range(app, 0, pa.seen + 1);
  std::optional<checkpoint::Snapshot> base = snapshots_.oldest(app);
  // The log is truncated to the oldest stored snapshot, but its per-app cap
  // can also drop events newer than that (checkpoint_every * snapshot_keep
  // beyond the cap): then probe from the oldest snapshot the log covers.
  if (base && !logged.empty() && logged.front().seq > base->event_seq) {
    base.reset();
    for (const std::uint64_t seq : snapshots_.seqs(app)) {
      if (seq < logged.front().seq) continue;
      base = snapshots_.at_or_before(app, seq);
      break;
    }
  }
  if (!base) return out;

  // Candidate history: everything logged since the base checkpoint, plus the
  // offender itself at the end.
  std::vector<ctl::Event> events;
  for (const auto& le : logged)
    if (le.seq >= base->event_seq) events.push_back(le.event);
  if (events.empty() || !(events.back() == offender)) events.push_back(offender);

  // Probe: rewind the live domain to the base checkpoint and replay the
  // candidate subsequence, discarding outputs.
  auto probe = [&](const std::vector<ctl::Event>& candidate) {
    if (!entry->domain->restore(base->state)) return false;
    for (const auto& ev : candidate) {
      auto outcome = entry->domain->deliver(ev, net_.now());
      if (!outcome.ok()) return true;
    }
    return false;
  };
  auto res = minimize_crash_sequence(probe, events);
  out.minimal = std::move(res.minimal);
  out.probes = res.probes;
  out.reproduced = res.reproduced;

  // Leave the app in its most recent consistent state.
  if (const auto latest = snapshots_.latest(app)) {
    entry->domain->restore(latest->state);
  } else {
    entry->domain->restart();
  }
  return out;
}

void LegoController::recover(appvisor::AppEntry& entry, const ctl::Event& offender,
                             const std::string& crash_info, bool byzantine) {
  recover_impl(entry, offender, crash_info, byzantine);
  // Replication: ship the recovery *outcome* — the app's post-recovery
  // snapshot (or the fact it was left down) — so followers mirror what
  // actually happened instead of re-running a recovery whose ingredients
  // (the leader's own checkpoint history, a failed capture) they need not
  // share.
  ship_app_state(entry);
}

void LegoController::recover_impl(appvisor::AppEntry& entry,
                                  const ctl::Event& offender,
                                  const std::string& crash_info, bool byzantine) {
  crashpad::RecoveryPolicy policy = cfg_.policies.lookup(
      entry.domain->app_name(), ctl::event_type(offender));

  // Crash-storm breaker (§3.4 resource limits): an app that keeps faulting
  // is disabled outright, whatever the per-event policy says.
  if (cfg_.limits.max_faults != 0 && entry.crashes >= cfg_.limits.max_faults) {
    policy = crashpad::RecoveryPolicy::kNoCompromise;
    {
      std::lock_guard<std::mutex> lk(lego_mu_);
      lego_stats_.breaker_disables += 1;
    }
    LEGOSDN_LOG_WARN("crash-pad", "app '%s' hit the fault breaker (%llu faults)",
                     entry.domain->app_name().c_str(),
                     static_cast<unsigned long long>(entry.crashes));
  }

  crashpad::ProblemTicket ticket;
  ticket.app = entry.domain->app_name();
  // The offender is the event most recently appended to this app's log,
  // numbered pa.seen (dispatch_core increments before logging). The global
  // event_seq_ counter ticks for *every* dispatched event across all apps
  // and lanes, so it races ahead of any one app's log and would point the
  // ticket at the wrong position in the recent_events excerpt below.
  ticket.event_seq = per_app_[entry.id].seen;
  ticket.offending_event = ctl::describe(offender);
  ticket.crash_info = (byzantine ? "[byzantine] " : "[fail-stop] ") + crash_info;
  ticket.policy_applied = crashpad::to_string(policy);
  ticket.at = net_.now();
  // Which checkpoint the restore will rewind to (the newest snapshot), and
  // how many logged events the replay must cover.
  if (auto stored = snapshots_.latest_seq(entry.id)) {
    ticket.restore_available = true;
    ticket.restore_seq = *stored;
    ticket.replay_span = per_app_[entry.id].seen > *stored
                             ? per_app_[entry.id].seen - *stored
                             : 0;
  }
  // Attach the controller-log excerpt: the last few events this app saw
  // ("the problem ticket can help developers to triage the SDN-App's bug"),
  // from the restore point on. The log reaches back to the oldest snapshot
  // for localize_fault, but every ticket is kept, so the excerpt stays at
  // the offender and the events the replay re-delivers.
  {
    const PerApp& pa = per_app_[entry.id];
    const std::uint64_t from =
        std::max(pa.seen > 5 ? pa.seen - 5 : 0, ticket.restore_seq);
    for (const auto& le : event_log_.range(entry.id, from, pa.seen + 1)) {
      ticket.recent_events.push_back("#" + std::to_string(le.seq) + " " +
                                     ctl::describe(le.event));
    }
  }
  // NetLog's view of every switch at crash time: a byzantine ticket's
  // digests can be diffed against the live tables (or another replica's
  // ticket) when triaging what the rolled-back transaction tried to do.
  ticket.shadow_digests = netlog_.shadow_digests();
  tickets_.file(std::move(ticket));

  if (policy == crashpad::RecoveryPolicy::kNoCompromise) {
    // Sacrifice availability of this app to preserve its correctness: it
    // stays down. For a byzantine failure the app is still technically
    // alive; take it down explicitly so it cannot do further damage.
    entry.domain->shutdown();
    std::lock_guard<std::mutex> lk(lego_mu_);
    lego_stats_.apps_left_down += 1;
    return;
  }

  // Revert to the pre-event snapshot. "Replay of the offending event will
  // most likely cause the SDN-App to fail", so we never replay it verbatim.
  if (!restore_app(entry)) {
    std::lock_guard<std::mutex> lk(lego_mu_);
    lego_stats_.apps_left_down += 1;
    return;
  }

  if (policy == crashpad::RecoveryPolicy::kEquivalenceCompromise && !t_in_recovery) {
    auto equivalents = transformer_.equivalent(offender);
    if (!equivalents.empty()) {
      {
        std::lock_guard<std::mutex> lk(lego_mu_);
        lego_stats_.events_transformed += 1;
      }
      t_in_recovery = true; // a crash on a transformed event falls back to ignore
      for (const auto& ev : equivalents) {
        const auto type_idx = static_cast<std::size_t>(ctl::event_type(ev));
        if (!entry.subscribed[type_idx]) continue;
        if (!entry.domain->alive()) break;
        maybe_checkpoint(entry, ev);
        per_app_[entry.id].seen += 1;
        guarded_deliver(entry, ev, /*allow_recovery=*/true);
      }
      t_in_recovery = false;
      return;
    }
    // No equivalent form exists: degrade to Absolute Compromise.
  }

  std::lock_guard<std::mutex> lk(lego_mu_);
  lego_stats_.events_ignored += 1;
}

// --- replication (DESIGN.md §4.8) ---

void LegoController::set_replication_sink(ReplicationSink sink) {
  repl_sink_ = std::move(sink);
  if (repl_sink_) {
    netlog_.set_txn_observer([this](const netlog::TxnRecord& tr) {
      ReplicaRecord rec;
      rec.kind = ReplicaRecord::Kind::kTxn;
      rec.txn = tr;
      repl_sink_(rec);
    });
  } else {
    netlog_.set_txn_observer(nullptr);
  }
}

void LegoController::ship_event(const ctl::Event& e) {
  if (!repl_sink_) return;
  ReplicaRecord rec;
  rec.kind = ReplicaRecord::Kind::kEvent;
  rec.event = e;
  repl_sink_(rec);
}

void LegoController::ship_app_state(appvisor::AppEntry& entry) {
  if (!repl_sink_) return;
  ReplicaRecord rec;
  // Entries are registration-frozen before start, so the index is a stable
  // cross-replica name for the app (every replica registered the same apps
  // in the same order).
  rec.app_index = static_cast<std::size_t>(&entry - visor_.entries().data());
  if (!entry.domain->alive()) {
    rec.kind = ReplicaRecord::Kind::kAppDown;
    repl_sink_(rec);
    return;
  }
  auto snap = entry.domain->snapshot();
  if (!snap) return; // nothing to ship; the follower keeps its own state
  rec.kind = ReplicaRecord::Kind::kAppState;
  rec.state = std::move(snap).value();
  repl_sink_(rec);
}

Status LegoController::start_follower() {
  if (role_ != LegoConfig::Role::kFollower)
    return Error{Error::Code::kConflict, "start_follower on a non-follower"};
  // The apps come up warm from the record stream; announcing switches here
  // would both duplicate the leader's announcements and (post-promotion)
  // make start() re-deliver SwitchUp to apps that already hold the resulting
  // state. A wire deployment overrides this with the bridge's announcer
  // before promotion.
  if (!announcer_) set_switch_announcer([] {});
  return visor_.start_all();
}

void LegoController::follower_ingest(const ReplicaRecord& r) {
  switch (r.kind) {
    case ReplicaRecord::Kind::kEvent:
      follower_ingest_event(r.event);
      return;
    case ReplicaRecord::Kind::kTxn:
      follower_ingest_txn(r.txn);
      return;
    case ReplicaRecord::Kind::kAppState: {
      auto& entries = visor_.entries();
      if (r.app_index >= entries.size()) return;
      appvisor::AppEntry& entry = entries[r.app_index];
      if (!entry.domain->restore(r.state)) return;
      entry.recoveries += 1;
      {
        std::lock_guard<std::mutex> lk(lego_mu_);
        lego_stats_.recoveries += 1;
      }
      // Re-base the checkpoint history at the synced state: a later restore on
      // this replica must rewind here, not to a pre-sync snapshot plus a
      // replay suffix that would re-run events the leader's recovery chose
      // to skip or transform.
      PerApp& pa = per_app_[entry.id];
      store_checkpoint(entry.id, pa.seen, r.state);
      pa.last_checkpoint = pa.seen;
      return;
    }
    case ReplicaRecord::Kind::kAppDown: {
      auto& entries = visor_.entries();
      if (r.app_index >= entries.size()) return;
      entries[r.app_index].domain->shutdown();
      std::lock_guard<std::mutex> lk(lego_mu_);
      lego_stats_.apps_left_down += 1;
      return;
    }
  }
}

void LegoController::follower_ingest_event(const ctl::Event& e) {
  // Mirror dispatch_core's bookkeeping so a promoted follower's counters
  // line up with a controller that dispatched the stream itself.
  std::atomic_ref<std::uint64_t>(stats_.events_dispatched)
      .fetch_add(1, std::memory_order_relaxed);
  event_seq_.fetch_add(1, std::memory_order_relaxed);

  ctl::Event ev = e; // local copy: stats correction patches in place
  if (const auto* fr = std::get_if<of::FlowRemoved>(&ev)) {
    netlog_.observe_northbound({0, *fr});
  }
  if (auto* sr = std::get_if<of::StatsReply>(&ev)) {
    netlog_.correct_stats(*sr);
  }
  netlog_.expire_shadows(now());

  const auto type_idx = static_cast<std::size_t>(ctl::event_type(ev));
  for (auto& entry : visor_.entries()) {
    if (!entry.subscribed[type_idx]) continue;
    PerApp& pa = per_app_[entry.id];
    pa.seen += 1;
    if (!entry.domain->alive()) {
      pa.missed += 1;
      continue;
    }
    maybe_checkpoint(entry, ev);
    entry.events_delivered += 1;
    auto outcome = entry.domain->deliver(ev, net_.now());
    if (!outcome.ok()) {
      // The replica's own instance crashed on the same event (deterministic
      // apps usually do). No local recovery: the leader's authoritative
      // outcome arrives as a kAppState / kAppDown record.
      entry.crashes += 1;
      continue;
    }
    // Emitted messages are discarded — the leader's kTxn records are the
    // authoritative mutation stream. The dispatch-chain disposition is the
    // app's own deterministic decision, so honoring kStop here reproduces
    // exactly which downstream apps the leader delivered to.
    if (outcome.disposition == ctl::Disposition::kStop) break;
  }
}

void LegoController::follower_ingest_txn(const netlog::TxnRecord& r) {
  using Kind = netlog::TxnRecord::Kind;
  switch (r.kind) {
    case Kind::kBegin:
      txn_map_[r.txn] = netlog_.begin(r.app);
      return;
    case Kind::kJoin:
      if (const auto it = txn_map_.find(r.txn); it != txn_map_.end())
        netlog_.join(it->second, r.app);
      return;
    case Kind::kApply:
      if (const auto it = txn_map_.find(r.txn); it != txn_map_.end())
        netlog_.apply(it->second, r.msg);
      return;
    case Kind::kCommit:
      if (const auto it = txn_map_.find(r.txn); it != txn_map_.end()) {
        const std::uint64_t spans = netlog_.spans(it->second);
        netlog_.commit(it->second);
        txn_map_.erase(it);
        std::lock_guard<std::mutex> lk(lego_mu_);
        lego_stats_.txns_committed += spans;
      }
      return;
    case Kind::kRollback:
      if (const auto it = txn_map_.find(r.txn); it != txn_map_.end()) {
        const std::uint64_t spans = netlog_.spans(it->second);
        netlog_.rollback(it->second);
        txn_map_.erase(it);
        std::lock_guard<std::mutex> lk(lego_mu_);
        lego_stats_.txns_rolled_back += spans;
      }
      return;
  }
}

LegoController::PromotionReport LegoController::promote_to_leader() {
  PromotionReport rep;
  if (role_ != LegoConfig::Role::kFollower) return rep; // double-promotion guard
  // Reconcile while still shadow-only: adopt/discard decisions must not put
  // a single message on the wire, whichever way each transaction goes.
  rep.reconcile = netlog_.reconcile_in_flight();
  {
    std::lock_guard<std::mutex> lk(lego_mu_);
    lego_stats_.txns_committed += rep.reconcile.spans_adopted;
    lego_stats_.txns_rolled_back += rep.reconcile.spans_discarded;
  }
  txn_map_.clear();
  netlog_.set_shadow_only(false);
  set_send_suppressed(false);
  role_ = LegoConfig::Role::kLeader;
  attach_network_callbacks();
  // Deferred-announcement start() (the upgrade_restart path): with a real
  // announcer (a wire bridge retargeted before promotion) surviving
  // connections re-announce; the in-process harness's no-op announcer keeps
  // warm apps from seeing a second SwitchUp storm.
  start();
  rep.promoted = true;
  return rep;
}

LegoController::LegoStats LegoController::lego_stats() const {
  LegoStats s;
  {
    std::lock_guard<std::mutex> lk(lego_mu_);
    s = lego_stats_;
  }
  s.checkpoint_bytes_saved = s.checkpoint_bytes > s.checkpoint_stored_bytes
                                 ? s.checkpoint_bytes - s.checkpoint_stored_bytes
                                 : 0;
  return s;
}

} // namespace legosdn::lego
