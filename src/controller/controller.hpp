// The monolithic SDN controller — the FloodLight-style baseline.
//
// All apps run inside the controller's address space (here: the same object
// graph) and are dispatched in registration order. An AppCrash escaping any
// app takes the entire controller down: no further events are processed until
// reboot(), and reboot() resets every app's state. This deliberately
// reproduces the fate-sharing relationships of Table 1 / Figure 1 of the
// paper; LegoSDN (src/legosdn) removes them.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "controller/app.hpp"
#include "controller/sharded_dispatch.hpp"
#include "netsim/network.hpp"

namespace legosdn::ctl {

/// Per-app dispatch bookkeeping.
struct AppRecord {
  AppId id{};
  AppPtr app;
  bool subscribed[kEventTypeCount] = {};
  std::uint64_t events_handled = 0;
  std::uint64_t crashes = 0;
};

class Controller : public ServiceApi {
public:
  explicit Controller(netsim::Network& net);
  ~Controller() override = default;

  // Non-copyable: owns callbacks registered with the network.
  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// Register an app; dispatch order is registration order.
  AppId register_app(AppPtr app);

  /// Announce every existing switch to the apps (SwitchUp events).
  void start();

  /// Queue an event as if it arrived from the network. With a dispatch
  /// engine installed the event is submitted to its shard lane instead
  /// (and may start executing immediately on a lane thread), but never on
  /// the calling thread: the network's northbound callbacks call this from
  /// inside packet forwarding.
  void inject_event(Event e);

  /// Queue a span of events, preserving their order. Engine mode uses
  /// ShardedDispatcher::submit_batch (one lane-lock acquisition per run
  /// instead of per event); serial mode appends to the queue. The wire
  /// southbound feeds every decoded frame of one socket read pass through
  /// here.
  ///
  /// In engine mode on one CPU, the events may run to completion on the
  /// calling thread before this returns. The caller must therefore hold no
  /// lock of the dispatch path (NetLog stripes, the transaction gate, an
  /// app entry's lock) and must not be inside a Network callback.
  void inject_events(std::vector<Event> events);

  /// Process one queued event through the dispatch chain.
  /// Returns false when the queue is empty or the controller is down.
  /// Engine mode has no serial queue; this always returns false there.
  bool process_one();

  /// Drain the queue (bounded by max_events). Returns events processed.
  /// Engine mode ignores max_events: it waits for the shard lanes to
  /// quiesce and returns how many events they completed since the last run().
  std::size_t run(std::size_t max_events = SIZE_MAX);

  // --- parallel dispatch engine (sharded_dispatch.hpp) ---
  /// Route subsequent events through a sharded dispatcher. `sink` executes on
  /// lane threads (on one CPU, also on the thread calling inject_events())
  /// and must be thread-safe; events for the same dpid stay on
  /// one lane, cross-switch events arrive with shard == ShardRouter::kGlobal
  /// under a stop-the-world barrier. Call before start().
  void install_dispatch_engine(ShardedDispatcher::Config cfg,
                               ShardedDispatcher::Sink sink);

  /// Drain and tear down the engine; events queue serially again.
  void remove_dispatch_engine();

  ShardedDispatcher* dispatch_engine() noexcept { return engine_.get(); }

  // --- fate-sharing semantics of the monolithic architecture ---
  bool crashed() const noexcept { return crashed_; }
  const std::string& crash_reason() const noexcept { return crash_reason_; }

  /// Restart the controller: clears the crash flag, resets every app's state
  /// (they live in the same process, so they all went down), drops queued
  /// events (the OF connections were severed) and re-announces switches.
  void reboot();

  // --- southbound override (socket layer) ---
  /// When set, send() hands messages to this instead of the in-process
  /// network adapter. May be called from dispatcher lane threads; the
  /// callback must be thread-safe.
  using SouthboundFn = std::function<void(const of::Message&)>;
  void set_southbound(SouthboundFn fn) { southbound_ = std::move(fn); }

  /// When set, start() (and reboot()) defer switch announcement to the
  /// southbound layer: SwitchUp events come from real handshakes instead of
  /// a network scan.
  void set_switch_announcer(std::function<void()> fn) {
    announcer_ = std::move(fn);
  }

  // --- replication support ---
  /// Follower role: send() drops messages (counted in
  /// stats().messages_suppressed) instead of reaching the network or
  /// southbound. A follower controller's apps run warm on the leader's event
  /// stream; the leader already performed every wire side effect, so a
  /// follower emitting one would duplicate it. Promotion flips this off.
  void set_send_suppressed(bool on) noexcept { send_suppressed_ = on; }
  bool send_suppressed() const noexcept { return send_suppressed_; }

  /// Re-register this controller's northbound + switch-state callbacks with
  /// the network. The network holds exactly one callback pair (grabbed in
  /// the constructor), so building a second controller against the same
  /// network steals them — a replica set re-attaches the leader's after
  /// constructing followers, and a promoted follower attaches its own.
  void attach_network_callbacks();

  // --- ServiceApi ---
  void send(const of::Message& msg) override;
  std::uint32_t next_xid() override { return next_xid_++; }
  SimTime now() const override { return net_.now(); }

  // --- introspection ---
  std::size_t queued() const noexcept { return queue_.size(); }
  const std::vector<AppRecord>& apps() const noexcept { return apps_; }
  AppRecord* app_record(AppId id);
  netsim::Network& network() noexcept { return net_; }

  struct Stats {
    std::uint64_t events_dispatched = 0;
    std::uint64_t events_dropped = 0;   ///< queued while down, then discarded
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_suppressed = 0; ///< dropped while following
    std::uint64_t controller_crashes = 0;
    std::uint64_t reboots = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

protected:
  /// Dispatch an event to one app. The monolithic controller lets AppCrash
  /// propagate to dispatch(); subclasses (LegoSDN) override the boundary.
  virtual void dispatch(Event e);

  netsim::Network& net_;
  std::vector<AppRecord> apps_;
  std::deque<Event> queue_;
  std::unique_ptr<ShardedDispatcher> engine_;
  std::uint64_t engine_run_mark_ = 0; ///< dispatched count at last run()
  bool crashed_ = false;
  bool send_suppressed_ = false;
  std::string crash_reason_;
  std::uint32_t next_xid_ = 1;
  Stats stats_;

  SouthboundFn southbound_;
  std::function<void()> announcer_;

private:
  void on_northbound(const of::Message& msg);
  void on_switch_state(DatapathId dpid, bool up);
};

} // namespace legosdn::ctl
