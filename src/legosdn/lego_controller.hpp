// LegoSDN: the re-designed controller (paper §3, Figure 1 right side).
//
// LegoController replaces the monolithic dispatch pipeline with, per app:
//
//   1. checkpoint  — snapshot the app's state before the event (every event
//                    by default; every k events with replay as the §5
//                    optimization);
//   2. deliver     — hand the event to the app's isolation domain (AppVisor);
//   3. transact    — route the app's emitted messages through a NetLog
//                    transaction;
//   4. verify      — run the invariant checker; a violation is a byzantine
//                    failure: roll the transaction back and recover;
//   5. recover     — on fail-stop crash or byzantine failure: restore the
//                    pre-event snapshot and apply the operator's recovery
//                    policy (ignore / transform / leave down), filing a
//                    problem ticket either way.
//
// The controller itself never goes down because of an app: the fate-sharing
// relationships of the monolithic design are gone.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <shared_mutex>

#include "appvisor/appvisor.hpp"
#include "checkpoint/checkpoint_worker.hpp"
#include "checkpoint/event_log.hpp"
#include "checkpoint/snapshot_store.hpp"
#include "common/stats.hpp"
#include "controller/controller.hpp"
#include "crashpad/policy.hpp"
#include "crashpad/ticket.hpp"
#include "crashpad/transform.hpp"
#include "invariant/invariant.hpp"
#include "netlog/netlog.hpp"

namespace legosdn::lego {

struct ReplicaRecord; // replication.hpp

struct LegoConfig {
  /// Replication role (DESIGN.md §4.8). kSingle is a standalone controller
  /// (everything before this section). A kFollower starts with its NetLog in
  /// shadow-only mode and all sends suppressed, stays warm by ingesting the
  /// leader's record stream, and only touches the wire after
  /// promote_to_leader(). Roles are normally assigned by ReplicaSet.
  enum class Role { kSingle, kLeader, kFollower };
  Role role = Role::kSingle;

  appvisor::Backend backend = appvisor::Backend::kInProcess;
  appvisor::ProcessDomain::Config process{};

  netlog::NetLogConfig netlog{};

  /// Sharded parallel event dispatch (DESIGN.md §4.5). shards = 1 keeps the
  /// serial pipeline exactly as before; shards > 1 installs a
  /// ShardedDispatcher in start_system(): events are dpid-hash-partitioned
  /// onto lanes, cross-switch events run under a stop-the-world barrier, and
  /// NetLog commits serialize per switch through its stripe locks. Apps whose
  /// state partitions by dpid (App::clone() != nullptr) run one clone per
  /// shard; the others run one instance serialized by a per-entry lock.
  struct DispatchConfig {
    std::size_t shards = 1;
    /// Commit coalescing (DESIGN.md §4.7): within one drained lane batch,
    /// consecutive transactions of the same app share a single NetLog
    /// begin/commit (logical spans keep begun/committed stats identical to
    /// per-event mode). Flushed at every batch boundary, before any
    /// verifying transaction, and when a crash/quota fault intervenes.
    /// Only effective with shards > 1 in kUndoLog mode; false keeps the
    /// per-event transaction mode that the differential oracles use as
    /// their serial baseline.
    bool coalesce_commits = true;
  };
  DispatchConfig dispatch{};

  crashpad::PolicyTable policies{}; ///< default: Absolute Compromise

  /// Snapshot cadence: 1 = before every event (the paper's prototype);
  /// k > 1 = every k events, with the logged events since the snapshot
  /// replayed on restore (§5).
  std::uint64_t checkpoint_every = 1;
  std::size_t snapshot_keep = 8;

  /// §5 "Minimizing checkpointing overheads": the off-hot-path checkpoint
  /// pipeline (checkpoint_worker.hpp, snapshot_store.hpp).
  struct CheckpointConfig {
    /// Store snapshots on the background worker; the event path pays only
    /// the state capture plus a queue handoff. false = store inline.
    bool async = true;
    /// Worker queue bound; beyond it submits store inline (backpressure).
    std::size_t max_queue = 64;
    /// Test-only artificial encode delay (keeps a snapshot observably
    /// in flight so crash-during-encode paths can be exercised).
    std::chrono::microseconds encode_delay{0};
  };
  CheckpointConfig checkpoint{};

  /// Byzantine failure detection via the policy checker.
  bool byzantine_detection = true;
  invariant::InvariantConfig invariants{};

  /// Per-application resource limits (§3.4): "an operator can define
  /// resource limits for each SDN-App, thus limiting the impact of
  /// misbehaving applications."
  struct ResourceLimits {
    /// Max control messages one event handler may emit (0 = unlimited).
    /// Exceeding it discards the bundle and recovers the app like a
    /// byzantine failure.
    std::size_t max_messages_per_event = 0;
    /// Crash-storm breaker: after this many faults the app is disabled
    /// (forced No Compromise) regardless of policy (0 = never).
    std::uint64_t max_faults = 0;
  };
  ResourceLimits limits{};
};

class LegoController : public ctl::Controller {
public:
  LegoController(netsim::Network& net, LegoConfig cfg = LegoConfig{});
  ~LegoController() override;

  /// Register an app under the configured isolation backend.
  AppId add_app(ctl::AppPtr app);

  /// Register a pre-built isolation domain (diversity/clone wrappers).
  AppId add_domain(appvisor::DomainPtr domain);

  /// Start all isolation domains, then announce switches.
  Status start_system();

  /// Controller upgrade (§3.4): the controller process restarts but the
  /// isolated apps keep their state — unlike Controller::reboot(), no app
  /// state is lost.
  void upgrade_restart();

  /// §5 "Handling failures that span multiple transactions": find the
  /// minimal sub-sequence of the app's logged event history (ending with
  /// `offender`) that reproduces the crash. Probes the app's live isolation
  /// domain: each probe restores the oldest retained checkpoint whose events
  /// the log still holds and replays a candidate sequence. On return the app
  /// is restored to its latest checkpoint. Requires a deterministic bug
  /// (reproduced=false otherwise).
  struct LocalizeResult {
    std::vector<ctl::Event> minimal;
    std::size_t probes = 0;
    bool reproduced = false;
  };
  LocalizeResult localize_fault(AppId app, const ctl::Event& offender);

  // --- replication (DESIGN.md §4.8) ---
  /// Leader side: when set, every dispatched event, NetLog transaction
  /// record, and post-recovery app snapshot is handed to the sink (which
  /// fans them out to followers). Installing a sink also installs the
  /// NetLog's transaction observer.
  using ReplicationSink = std::function<void(const ReplicaRecord&)>;
  void set_replication_sink(ReplicationSink sink);

  /// Follower side: start the isolation domains warm without announcing
  /// switches or touching the network. Requires cfg.role == kFollower (the
  /// constructor already put the NetLog in shadow-only mode and suppressed
  /// sends). No dispatch engine is installed — a follower replays a totally
  /// ordered record stream.
  Status start_follower();

  /// Follower side: ingest one leader record. kEvent re-delivers the event
  /// to this replica's own app instances (outputs discarded; crash/quota
  /// faults are noted but never recovered locally — the leader's
  /// authoritative recovery outcome arrives as kAppState/kAppDown). kTxn
  /// drives this replica's shadow-only NetLog through the same lifecycle
  /// step. kAppState restores the app and re-bases its checkpoint history;
  /// kAppDown shuts the app down.
  void follower_ingest(const ReplicaRecord& r);

  struct PromotionReport {
    bool promoted = false; ///< false: not a follower (double-promotion guard)
    netlog::NetLog::ReconcileOutcome reconcile{};
  };
  /// Unplanned-failover promotion: reconcile in-flight transactions against
  /// actual switch state (exactly-once: adopt what the switches already
  /// executed, discard what they never saw — zero duplicate sends either
  /// way), then leave shadow-only mode, unsuppress sends, take over the
  /// network callbacks, and run the deferred-announcement start() path.
  /// Idempotent: a second call (or a call on a non-follower) is a no-op
  /// with promoted == false.
  PromotionReport promote_to_leader();

  LegoConfig::Role role() const noexcept { return role_; }

  // --- introspection ---
  /// Serialize an out-of-band network write against verifying transactions.
  /// A verifier reads switch tables network-wide under the exclusive side of
  /// the transaction lock; anything else that mutates switch state from
  /// outside a transaction (the wire southbound's pump thread applying a
  /// controller->switch message) must run under the shared side, like a
  /// non-verifying commit does. Acquire before any NetLog stripe.
  void with_txn_write_gate(const std::function<void()>& fn) {
    std::shared_lock<std::shared_mutex> lk(txn_rw_);
    fn();
  }

  netlog::NetLog& netlog() noexcept { return netlog_; }
  crashpad::TicketLog& tickets() noexcept { return tickets_; }
  appvisor::AppVisor& appvisor() noexcept { return visor_; }
  checkpoint::SnapshotStore& snapshots() noexcept { return snapshots_; }
  checkpoint::CheckpointWorker& checkpoint_worker() noexcept { return ckpt_worker_; }
  const LegoConfig& config() const noexcept { return cfg_; }

  /// Block until every captured snapshot has been encoded and stored.
  /// Tests and orderly shutdown use this; the event path never does.
  void flush_checkpoints() { ckpt_worker_.flush(); }

  struct LegoStats {
    std::uint64_t failstop_crashes = 0;
    std::uint64_t byzantine_failures = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t events_ignored = 0;      ///< Absolute Compromise applied
    std::uint64_t events_transformed = 0;  ///< Equivalence Compromise applied
    std::uint64_t apps_left_down = 0;      ///< No Compromise applied
    std::uint64_t checkpoints = 0;
    std::uint64_t checkpoint_bytes = 0;
    std::uint64_t replayed_events = 0;
    std::uint64_t txns_committed = 0;
    std::uint64_t txns_rolled_back = 0;
    std::uint64_t verify_overlays = 0;    ///< verifying txns whose mods had
                                          ///< not landed, checked against a
                                          ///< pending-rule overlay
    std::uint64_t quota_violations = 0;   ///< message-quota breaches
    std::uint64_t breaker_disables = 0;   ///< apps shut down by the fault breaker
    std::uint64_t stub_timeouts = 0;      ///< deliver deadline exhausted after
                                          ///< transport retries (wedged stub or
                                          ///< loss beyond the retry budget) —
                                          ///< distinct from fail-stop crashes

    // Checkpoint pipeline (merged from the worker at lego_stats() time).
    std::uint64_t full_snapshots = 0;     ///< puts into an empty history
    std::uint64_t delta_snapshots = 0;    ///< puts that made a backward diff
    std::uint64_t checkpoint_stored_bytes = 0; ///< bytes the puts added: first
                                               ///< states whole, then diffs
    std::uint64_t checkpoint_bytes_saved = 0;  ///< raw captures minus stored
    std::uint64_t inline_encodes = 0;     ///< backpressure fell back inline
    Histogram encode_lag_us;              ///< capture-to-stored latency
  };
  /// Controller counters plus the checkpoint worker's, merged. Returns a
  /// value (not a reference): the worker half mutates on another thread.
  LegoStats lego_stats() const;

  /// Aggregated proxy<->stub transport counters (retransmits, duplicate
  /// chunks dropped, reassembly aborts, RPC round-trip histogram) across all
  /// process-backed domains. Empty when only in-process domains exist.
  appvisor::TransportStats transport_stats() const { return visor_.transport_stats(); }

protected:
  void dispatch(ctl::Event e) override;

private:
  struct PerApp {
    std::uint64_t seen = 0;          ///< events offered to this app
    std::uint64_t missed = 0;        ///< offered while the app was down
    std::uint64_t last_checkpoint = 0;
  };

  /// Deliver one event to one app with full transaction + verification.
  /// Returns the dispatch-chain disposition (kContinue on failure paths).
  ctl::Disposition guarded_deliver(appvisor::AppEntry& entry, const ctl::Event& e,
                                   bool allow_recovery);

  /// The dispatch pipeline shared by both paths. Serial dispatch() calls it
  /// with shard = ShardRouter::kGlobal (deliver to every entry, full shadow
  /// sweep); shard lanes call it with their index (deliver to this lane's
  /// clones plus lock-serialized kAllShards entries, per-dpid shadow expiry).
  void dispatch_core(ctl::Event e, std::size_t shard);

  void maybe_checkpoint(appvisor::AppEntry& entry, const ctl::Event& e);
  bool apply_transaction(appvisor::AppEntry& entry,
                         std::vector<of::Message> emitted, std::string* violation);
  /// Commit every open coalesced transaction on `shard` (the dispatcher's
  /// on_batch_end hook; runs on the lane thread).
  void flush_coalesced(std::size_t shard);
  /// Commit one app's open coalesced transaction, if any — called before a
  /// verifying transaction and when a crash/quota fault interrupts the
  /// app's span stream.
  void flush_coalesced_app(std::size_t shard, AppId app);
  void recover(appvisor::AppEntry& entry, const ctl::Event& offender,
               const std::string& crash_info, bool byzantine);
  void recover_impl(appvisor::AppEntry& entry, const ctl::Event& offender,
                    const std::string& crash_info, bool byzantine);
  bool restore_app(appvisor::AppEntry& entry);

  // replication internals (replication.cpp side is ReplicaSet; these run on
  // the controllers themselves)
  void ship_event(const ctl::Event& e);
  void ship_app_state(appvisor::AppEntry& entry);
  void follower_ingest_event(const ctl::Event& e);
  void follower_ingest_txn(const netlog::TxnRecord& r);

  LegoConfig cfg_;
  appvisor::AppVisor visor_;
  netlog::NetLog netlog_;
  checkpoint::SnapshotStore snapshots_;
  checkpoint::CheckpointWorker ckpt_worker_;
  checkpoint::EventLog event_log_;
  crashpad::EventTransformer transformer_;
  crashpad::TicketLog tickets_;
  invariant::InvariantChecker checker_;
  /// Guards lego_stats_, the Controller::Stats counters this class touches,
  /// and per_app_ *values* are entry-pinned so need no lock of their own
  /// (the map structure is frozen after registration).
  mutable std::mutex lego_mu_;
  LegoStats lego_stats_;
  /// Invariant verification reads the whole network (reachability traces
  /// across every switch), so a verifying transaction takes this unique —
  /// stopping concurrent commits — while non-verifying transactions run
  /// shared. Acquired before any NetLog stripe, never after.
  std::shared_mutex txn_rw_;
  std::unordered_map<AppId, PerApp> per_app_;
  std::atomic<std::uint64_t> event_seq_{0};

  LegoConfig::Role role_ = LegoConfig::Role::kSingle;
  ReplicationSink repl_sink_;
  /// Follower: leader TxnId -> this replica's own TxnId for open txns (the
  /// follower's NetLog allocates its own ids). std::map — TxnId has ordering
  /// but no std::hash, and the map holds only in-flight transactions.
  std::map<TxnId, TxnId> txn_map_;

  /// Per-lane open coalesced transactions, keyed by app. Sized once when the
  /// engine is installed; each slot is touched only by its owning lane
  /// thread (applies during dispatch, flushes via on_batch_end), so the
  /// slots need no locks.
  struct LaneCoalesce {
    std::unordered_map<AppId, TxnId> open;
  };
  std::vector<LaneCoalesce> coalesce_lanes_;
};

} // namespace legosdn::lego
