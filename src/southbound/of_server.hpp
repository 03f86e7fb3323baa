// Epoll-based OpenFlow 1.0 southbound server.
//
// One EventLoop multiplexes the listening socket plus every switch
// connection. Per connection: an OF handshake state machine
// (HELLO -> FEATURES_REQUEST/REPLY -> steady state), frame reassembly via
// OFConnection, ECHO keepalive with idle-timeout disconnect, and high/low
// watermark backpressure (reads pause while a peer's send ring is
// saturated, resume once it drains below the low mark).
//
// Threading: poll() runs on exactly one thread. send() is callable from any
// thread (dispatcher lanes emit flow-mods from NetLog commits): it encodes
// onto the owning connection's send ring and marks the connection dirty;
// each poll() ends its socket dispatch with one sweep that flushes dirty
// connections with coalesced writev calls. A send() from another thread
// also wakes the loop with an eventfd poke. A send() from the polling
// thread while it dispatches socket events (an event callback, or on one
// CPU a dispatcher lane's batch run inline from the batch callback) does
// not: the same poll()'s sweep writes it. Decoded steady-state frames
// surface as ctl::Event through the event callback — dpid routing onto
// dispatcher lanes preserves per-switch ordering end-to-end from the wire.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"
#include "controller/event.hpp"
#include "southbound/event_loop.hpp"
#include "southbound/of_connection.hpp"

namespace legosdn::southbound {

struct OFServerConfig {
  std::string bind_addr = "127.0.0.1";
  std::uint16_t port = 0; ///< 0 = ephemeral (bound port via OFServer::port())
  int backlog = 1024;
  std::size_t max_connections = 64 << 10;
  /// Keepalive: probe an idle peer after echo_interval_ms of silence and
  /// disconnect after idle_timeout_ms without any bytes. 0 disables each.
  std::uint64_t echo_interval_ms = 5'000;
  std::uint64_t idle_timeout_ms = 15'000;
  /// Timer sweeps walk every connection; amortize at connection scale.
  std::uint64_t timer_sweep_ms = 100;
  OFConnection::Limits limits{};
  int sndbuf = 0; ///< per-conn SO_SNDBUF (0 = kernel default; tests shrink it)
  /// Injectable clock (ms, monotonic). Tests drive timeouts manually;
  /// defaults to steady_clock.
  std::function<std::uint64_t()> now_ms{};
};

class OFServer {
public:
  using EventFn = std::function<void(ctl::Event)>;
  using BatchFn = std::function<void(std::vector<ctl::Event>)>;

  OFServer();
  ~OFServer();

  OFServer(const OFServer&) = delete;
  OFServer& operator=(const OFServer&) = delete;

  /// Bind + listen. The event callback receives SwitchUp (handshake
  /// complete, features decoded from the wire), SwitchDown (EOF, error,
  /// protocol violation, idle timeout), and every steady-state event-type
  /// message (packet-in, flow-removed, ...).
  Status listen(OFServerConfig cfg, EventFn on_event);

  /// Wire batching (DESIGN.md §4.7): when set, events are delivered as
  /// ordered spans instead of one callback per event — every complete frame
  /// decoded during one socket read pass forms one batch, submitted once per
  /// readable socket (SwitchUp/SwitchDown raised mid-pass ride along in
  /// order). Events raised outside a read pass (idle-timeout SwitchDown)
  /// arrive as single-element batches. Replaces the per-event callback for
  /// event delivery; call before listen().
  void set_event_batch(BatchFn fn) { on_batch_ = std::move(fn); }

  /// The bound port (after listen; ephemeral binds resolve here).
  std::uint16_t port() const noexcept { return port_; }

  /// One reactor pass: accept/read/flush/timers. timeout_ms as epoll_wait.
  /// Returns a work count (0 = nothing happened; idle).
  int poll(int timeout_ms);

  /// Any thread: encode and enqueue `msg` for the switch owning `dpid`.
  /// False when no ready connection exists (message dropped — matching a
  /// severed OF channel) or encoding fails. Called from inside this
  /// server's poll() event callbacks, the frame goes out in that poll().
  bool send(DatapathId dpid, const of::Message& msg);

  /// Thread-safe: interrupt a blocking poll().
  void wakeup();

  /// Close the listener and every connection (no SwitchDown events).
  void close();

  std::size_t connections() const noexcept { return conns_.size(); }
  std::size_t ready_connections() const noexcept { return by_dpid_size_; }

  /// Thread-safe: does a handshake-complete connection own this dpid?
  bool knows(DatapathId dpid) const {
    std::lock_guard<std::mutex> lk(route_mu_);
    return by_dpid_.find(dpid) != by_dpid_.end();
  }

  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t accept_overflow = 0; ///< refused: max_connections
    std::uint64_t handshakes = 0;
    std::uint64_t disconnects = 0;
    std::uint64_t protocol_errors = 0;
    std::uint64_t decode_errors = 0;
    std::uint64_t echo_probes = 0;
    std::uint64_t echo_timeouts = 0;
    std::uint64_t events_out = 0;
    std::uint64_t event_batches = 0; ///< batch deliveries (set_event_batch)
    std::uint64_t sends = 0;
    std::uint64_t sends_dropped = 0;
    std::uint64_t wakeups = 0; ///< eventfd pokes issued by send() from outside poll()
    std::uint64_t reads_paused = 0;
    std::uint64_t reads_resumed = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t frames_in = 0;
  };
  Stats stats() const;

private:
  enum class HandshakeState : std::uint8_t { kAwaitHello, kAwaitFeatures, kSteady };

  struct Conn {
    std::unique_ptr<OFConnection> io;
    HandshakeState state = HandshakeState::kAwaitHello;
    DatapathId dpid{};
    std::uint64_t last_rx_ms = 0;
    bool echo_outstanding = false;
    std::uint64_t echo_sent_ms = 0;
    bool reads_paused = false;
    bool want_writable = false; ///< EPOLLOUT armed (partial flush pending)
    bool in_dirty = false; ///< on the dirty list already (guarded by route_mu_)
    std::uint32_t next_xid = 1;
  };

  std::uint64_t now_ms() const;
  void on_listen_ready();
  void on_conn_io(int fd, std::uint32_t events);
  void handle_frame(const std::shared_ptr<Conn>& c,
                    std::span<const std::uint8_t> frame);
  /// Deliver one event: appended to the open read-pass batch, sent as a
  /// single-element batch, or handed to the per-event callback.
  void emit_event(ctl::Event e);
  /// Mark a conn for the next flush sweep; one eventfd wake per
  /// empty->non-empty dirty transition per poll cycle (wake_pending_).
  void mark_dirty(const std::shared_ptr<Conn>& c, bool from_loop_thread);
  void enqueue_msg(const std::shared_ptr<Conn>& c, const of::Message& msg);
  /// Flush + rebalance epoll interest (EPOLLOUT arming, watermark
  /// pause/resume). Returns false when the conn died.
  bool service_out(const std::shared_ptr<Conn>& c);
  void update_read_interest(const std::shared_ptr<Conn>& c);
  std::uint32_t interest_of(const Conn& c) const;
  void disconnect(const std::shared_ptr<Conn>& c, bool emit_switch_down);
  void sweep_timers();

  OFServerConfig cfg_;
  EventFn on_event_;
  BatchFn on_batch_;
  EventLoop loop_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;

  // Loop-thread owned.
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;
  std::uint64_t last_sweep_ms_ = 0;
  int work_ = 0; ///< accumulated work count for the current poll() pass
  bool batch_open_ = false; ///< a read pass is accumulating pending_batch_
  std::vector<ctl::Event> pending_batch_;

  // Cross-thread: dpid -> ready conn (send()), dirty list (pending flushes).
  mutable std::mutex route_mu_;
  std::unordered_map<DatapathId, std::shared_ptr<Conn>> by_dpid_;
  std::size_t by_dpid_size_ = 0; ///< mirrors by_dpid_ for lock-free reads
  std::vector<std::shared_ptr<Conn>> dirty_; ///< unique (Conn::in_dirty)
  /// True once a send() has poked the eventfd this poll cycle; cleared when
  /// the loop wakes. Coalesces N cross-thread sends into one wake even when
  /// the dirty list empties and refills repeatedly within a cycle.
  std::atomic<bool> wake_pending_{false};

  mutable std::mutex stats_mu_;
  Stats stats_;
};

} // namespace legosdn::southbound
