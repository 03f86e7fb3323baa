// Leader/follower controller replication with exactly-once failover
// (DESIGN.md §4.8).
//
// The paper's recovery story keeps one controller alive across *app*
// failures; this module covers the controller process itself. A leader
// LegoController ships its authoritative decision stream — dispatched
// events, NetLog transaction records, and post-recovery app snapshots — to
// follower controllers whose state machines stay warm by replaying the
// stream against shadow state only (no wire side effects while following).
// On an unplanned leader crash a follower promotes: it reconciles
// begun-but-uncommitted transactions against actual switch state via
// per-switch logical digests (committing exactly-once what the switches
// already saw, rolling back what they didn't — all without sending a single
// duplicate FlowMod), then re-announces through the deferred-announcement
// path and takes over dispatch.
//
// Why decision shipping rather than fully independent followers: replaying
// raw events through an independent pipeline diverges the moment recovery
// has a nondeterministic ingredient (process-backend timing), and byzantine
// verification on a follower would need the follower's own view of the
// network mid-flight. Shipping the leader's
// *outcomes* (txn records, recovery snapshots) makes the follower a replica
// of what actually happened.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "legosdn/lego_controller.hpp"

namespace legosdn::lego {

/// One unit of the leader's replication stream.
struct ReplicaRecord {
  enum class Kind : std::uint8_t {
    kEvent = 1,    ///< a dispatched controller event (followers re-deliver)
    kTxn = 2,      ///< a NetLog transaction lifecycle step
    kAppState = 3, ///< post-recovery snapshot of one app (follower restores)
    kAppDown = 4,  ///< leader left the app down (No Compromise / breaker)
  };
  Kind kind = Kind::kEvent;

  ctl::Event event;        ///< kEvent
  netlog::TxnRecord txn;   ///< kTxn
  std::size_t app_index{}; ///< kAppState / kAppDown: index into visor entries
  std::vector<std::uint8_t> state; ///< kAppState: snapshot bytes
};

/// Wire codec for ReplicaRecord (big-endian, length-prefixed blobs) — what a
/// socket-shipping deployment would put on the replication channel. The
/// in-process ReplicaSet optionally round-trips every record through it
/// (ReplicaConfig::encode_records) so the format stays honest.
void encode_record(const ReplicaRecord& r, ByteWriter& w);
Result<ReplicaRecord> decode_record(ByteReader& r);

std::vector<std::uint8_t> encode_record(const ReplicaRecord& r);
Result<ReplicaRecord> decode_record(std::span<const std::uint8_t> bytes);

struct ReplicaConfig {
  std::size_t followers = 1;
  /// Round-trip every shipped record through encode_record/decode_record
  /// before follower ingestion (exercises the wire codec on the live path).
  bool encode_records = false;
};

/// Owns one leader plus N follower LegoControllers over the same network and
/// wires the replication stream between them. App instances are built per
/// replica from factories (each replica needs its own, since domains own
/// their apps).
class ReplicaSet {
public:
  ReplicaSet(netsim::Network& net, LegoConfig cfg, ReplicaConfig rcfg = {});
  ~ReplicaSet();

  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  using AppFactory = std::function<ctl::AppPtr()>;
  /// Register an app on every replica (call before start()).
  void add_app(AppFactory make);

  /// Construct all replicas, start followers warm (shadow-only, sends
  /// suppressed), install the leader's shipping hooks, start the leader.
  Status start();

  /// Runs after the replicas are constructed (and the leader holds the
  /// network callbacks) but before any of them starts — the wire southbound
  /// attaches its bridge to the leader here so the leader's announcement
  /// runs as OF handshakes. A returned error aborts start().
  using PreStartHook = std::function<Status(LegoController&)>;
  void set_pre_start_hook(PreStartHook h) { pre_start_ = std::move(h); }

  struct FailoverReport {
    bool promoted = false;
    netlog::NetLog::ReconcileOutcome reconcile{};
  };
  /// Simulate an unplanned leader crash: the leader is detached (it ships
  /// nothing further and is never consulted again) and the senior follower
  /// promotes via LegoController::promote_to_leader(). Surviving followers
  /// are re-homed to the new leader's stream. Returns promoted=false when no
  /// follower remains.
  FailoverReport fail_over();

  /// Hooks around promotion, for the wire southbound: `pre` runs after the
  /// old leader is detached but before promote_to_leader() (retarget the
  /// bridge so promotion's start() announces over surviving connections);
  /// `post` runs after promotion (re-register the bridge's network callbacks,
  /// which promote_to_leader()'s attach_network_callbacks() stole).
  using PromoteHook = std::function<void(LegoController&)>;
  void set_failover_hooks(PromoteHook pre, PromoteHook post) {
    pre_promote_ = std::move(pre);
    post_promote_ = std::move(post);
  }

  /// The currently active (leading) controller.
  LegoController& leader() noexcept { return *active_; }
  const LegoController& leader() const noexcept { return *active_; }

  std::size_t follower_count() const noexcept { return followers_.size(); }
  LegoController& follower(std::size_t i) { return *followers_.at(i); }

  std::uint64_t records_shipped() const noexcept { return records_shipped_; }
  std::uint64_t codec_failures() const noexcept { return codec_failures_; }
  std::uint64_t failovers() const noexcept { return failovers_; }

private:
  void install_leader_hooks(LegoController& leader);
  void ship(const ReplicaRecord& r);

  netsim::Network& net_;
  LegoConfig cfg_;
  ReplicaConfig rcfg_;
  std::vector<AppFactory> factories_;
  /// All replicas ever built, in construction order; [0] is the initial
  /// leader. Crashed ex-leaders stay alive here (their domains hold state a
  /// post-mortem may want) but are detached from everything.
  std::vector<std::unique_ptr<LegoController>> replicas_;
  LegoController* active_ = nullptr;
  std::vector<LegoController*> followers_;
  PreStartHook pre_start_;
  PromoteHook pre_promote_;
  PromoteHook post_promote_;
  bool started_ = false;
  std::uint64_t records_shipped_ = 0;
  std::uint64_t codec_failures_ = 0;
  std::uint64_t failovers_ = 0;
};

} // namespace legosdn::lego
