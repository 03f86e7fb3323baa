// Process isolation backend — the paper's actual architecture (§4.1).
//
// The proxy side (this class) fork()s a child process that runs the stub
// event loop around the SDN-App. Proxy and stub speak the RPC protocol over
// UDP on loopback. A fail-stop bug in the app aborts the *child process*;
// the proxy detects it via the crash notice, RPC timeout, or waitpid, and the
// controller keeps running — the fate-sharing relationship is severed by a
// real OS process boundary.
//
// The RPC exchange survives a lossy channel: a request that draws no reply
// within the per-attempt timeout is retransmitted with the *same* sequence
// number under exponential backoff; the stub deduplicates by sequence number
// and replays its cached reply, so a handler is never executed twice for one
// request. Only when retries are exhausted does the proxy classify the stub
// as crashed (child exited) or wedged (killed) — a transport flake is not a
// fail-stop crash.
//
// Checkpoint/restore: instead of CRIU (unavailable here; see DESIGN.md §5)
// the stub serializes the app's logical state through snapshot_state() and a
// re-spawned stub installs it through restore_state().
//
// One round trip per checkpointed event: a deliver() that follows a
// snapshot() asks the stub to append its post-event state to kEventDone, as
// the chunks that changed since the copy it last shipped. The proxy applies
// them to a mirror of that copy, so the next snapshot() is a local copy. A
// stale mirror falls back to a kSnapshotRequest, which re-bases both sides.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <memory>

#include "appvisor/faulty_channel.hpp"
#include "appvisor/isolation.hpp"
#include "appvisor/rpc.hpp"
#include "appvisor/transport_stats.hpp"
#include "appvisor/udp_channel.hpp"

namespace legosdn::appvisor {

class ProcessDomain : public IsolationDomain {
public:
  struct Config {
    int deliver_timeout_ms = 5000; ///< event-handling deadline
    int rpc_timeout_ms = 5000;     ///< snapshot/restore/handshake deadline
    int heartbeat_interval_ms = 50;

    // Retry policy for one RPC call: the first retransmit fires after
    // retry_initial_timeout_ms of silence, then backs off geometrically,
    // all bounded by the overall deliver/rpc deadline above.
    int retry_initial_timeout_ms = 250;
    int retry_max = 6;
    double retry_backoff = 2.0;

    /// Fault injection applied to *both* directions (proxy->stub and
    /// stub->proxy) when enabled; all-zero (default) uses plain channels.
    FaultSpec faults{};
  };

  explicit ProcessDomain(ctl::AppPtr app) : ProcessDomain(std::move(app), Config{}) {}
  ProcessDomain(ctl::AppPtr app, Config cfg);
  ~ProcessDomain() override;

  std::string app_name() const override { return app_->name(); }
  std::vector<ctl::EventType> subscriptions() const override {
    return app_->subscriptions();
  }

  Status start() override;
  bool alive() const override { return alive_; }

  EventOutcome deliver(const ctl::Event& event, SimTime now) override;
  Result<std::vector<std::uint8_t>> snapshot() override;
  Status restore(std::span<const std::uint8_t> state) override;
  Status restart() override;
  void shutdown() override;

  const TransportStats* transport_stats() const override { return &tstats_; }

  pid_t child_pid() const noexcept { return child_pid_; }

  /// Non-blocking liveness check between deliveries: drains pending
  /// heartbeats/crash notices and reaps a dead child. "To further help the
  /// proxy in detecting crashes quickly, the stub also sends periodic heart
  /// beat messages" (§4.1). Returns the (possibly updated) alive state.
  bool poll_liveness();

  /// Milliseconds since the last frame (heartbeat or reply) from the stub;
  /// -1 when nothing has ever been received.
  long ms_since_heartbeat() const;

private:
  Status spawn();
  void kill_child();
  bool child_exited();

  /// Send a request and wait for a frame of `expect` type (heartbeats and
  /// stale frames are skipped; a lost RegisterAck is re-sent). Silent
  /// attempts are retransmitted with backoff before the overall deadline
  /// declares the stub crashed (child exited) or wedged (killed).
  Result<RpcFrame> call(RpcType req, std::span<const std::uint8_t> payload,
                        RpcType expect, int timeout_ms);

  ctl::AppPtr app_; ///< pristine template; mutated only inside children
  Config cfg_;
  std::unique_ptr<UdpChannel> chan_; ///< FaultyChannel when cfg_.faults enabled
  PeerAddr stub_addr_{};
  pid_t child_pid_ = -1;
  bool alive_ = false;
  std::uint64_t next_seq_ = 1;

  // Mirror of the stub's app state. Valid while mirror_seq_ != 0: then it is
  // byte-identical to what the stub's app.snapshot_state() would return, and
  // mirror_seq_ is the seq of the RPC that shipped the stub's matching copy.
  std::vector<std::uint8_t> mirror_;
  std::uint64_t mirror_seq_ = 0;
  bool ship_state_ = false; ///< snapshot() was called since the last deliver()

  std::string last_crash_info_;
  std::chrono::steady_clock::time_point last_heartbeat_{};
  TransportStats tstats_;
};

/// The stub main loop; runs in the child and never returns.
[[noreturn]] void run_stub(ctl::App& app, std::uint16_t proxy_port,
                           const ProcessDomain::Config& cfg);

} // namespace legosdn::appvisor
