// Experiment C13: southbound socket-layer scale — one epoll server
// multiplexing thousands of real loopback switch connections into the
// sharded dispatcher (DESIGN.md §4.6).
//
// Two measurements per connection count, sweeping 100 -> 10k connections
// (clamped to the process fd budget; each connection costs two fds on
// loopback):
//
//   handshake storm — N switches connect at once and complete the full
//                     HELLO -> FEATURES_REQUEST/REPLY exchange; reported as
//                     wall time and handshakes/sec. This is the controller
//                     restart case: every switch in the network reconnects
//                     within one RTO window.
//   steady state    — the fleet blasts unique-flow PACKET_INs; decoded
//                     frames are routed by dpid onto ShardedDispatcher lanes
//                     (1, 2, 4 shards) whose sink models the ~20us stall a
//                     real SDN-App adds per event (policy lookup, the
//                     paper's process-isolated stubs). events/sec plus
//                     p50/p95/p99 submit-to-completion latency per cell.
//
// Everything is pumped from one thread (connect batches interleave with
// server polls so the accept backlog never overflows); only the dispatcher
// lanes are real threads, so the 4-vs-1-shard headline isolates what lane
// overlap buys once events arrive from genuine kernel TCP instead of an
// in-process queue. Submission is windowed (bounded in-flight) so latency
// percentiles measure the pipeline, not an unbounded backlog.
//
// JSON: "handshake" rows (connections, ms, per_sec), "rows" (connections x
// shards with events/sec + latency triple), "max_connections" (the largest
// fleet actually driven — the gate requires >= 5000 outside smoke), and a
// "headline" object (4-shard vs 1-shard speedup at the largest sweep size)
// for the scripts/check_bench.py regression gate.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "controller/sharded_dispatch.hpp"
#include "openflow/wire10.hpp"
#include "southbound/of_server.hpp"

namespace {

using namespace legosdn;

constexpr std::uint64_t kAppStallUs = 20; ///< modeled per-event app cost

of::FeaturesReply bench_features(std::uint64_t dpid) {
  of::FeaturesReply fr;
  fr.dpid = DatapathId{dpid};
  fr.n_buffers = 256;
  fr.n_tables = 1;
  fr.ports.push_back({PortNo{1}, MacAddress::from_uint64(0x10000 + dpid), "eth1", true});
  return fr;
}

of::PacketIn bench_packet_in(std::uint64_t dpid, std::uint64_t flow) {
  of::PacketIn pin;
  pin.dpid = DatapathId{dpid}; // informational: the wire carries no dpid
  pin.buffer_id = of::PacketIn::kNoBuffer;
  pin.in_port = PortNo{1};
  pin.reason = of::PacketInReason::kNoMatch;
  pin.packet.hdr.eth_src = MacAddress::from_uint64(0xA00000 + flow);
  pin.packet.hdr.eth_dst = MacAddress::from_uint64(0xB00000 + flow);
  pin.packet.hdr.eth_type = of::kEthTypeIpv4;
  pin.packet.hdr.ip_proto = of::kIpProtoTcp;
  pin.packet.hdr.tp_src = static_cast<std::uint16_t>(1024 + flow % 40000);
  pin.packet.hdr.tp_dst = static_cast<std::uint16_t>(flow % 40000);
  pin.packet.size_bytes = 100;
  pin.packet.trace_tag = flow;
  return pin;
}

/// One simulated switch endpoint: a nonblocking loopback socket plus just
/// enough OF 1.0 to handshake (send HELLO, answer FEATURES_REQUEST) and
/// blast pre-encoded PACKET_IN frames. All I/O is explicit-pump, so a
/// 10k-peer fleet runs happily on the bench's single thread.
class BenchPeer {
public:
  BenchPeer(std::uint16_t port, std::uint64_t dpid) : dpid_(dpid) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<::sockaddr*>(&sa), sizeof(sa)) < 0 &&
        errno != EINPROGRESS) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    out_ = of::wire10::encode({1, of::Hello{}});
    pin_frame_ = of::wire10::encode({2, bench_packet_in(dpid_, dpid_)});
  }
  ~BenchPeer() {
    if (fd_ >= 0) ::close(fd_);
  }
  BenchPeer(const BenchPeer&) = delete;
  BenchPeer& operator=(const BenchPeer&) = delete;

  bool alive() const { return fd_ >= 0; }
  std::uint64_t dpid() const { return dpid_; }

  /// Queue one pre-encoded PACKET_IN for transmission.
  void queue_packet_in() { out_.insert(out_.end(), pin_frame_.begin(), pin_frame_.end()); }

  std::size_t backlog() const { return out_.size() - out_off_; }

  /// One nonblocking pass: flush pending bytes, read + answer the server.
  /// Returns true if any byte moved (work happened).
  bool pump() {
    if (fd_ < 0) return false;
    bool work = false;
    while (out_off_ < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + out_off_, out_.size() - out_off_,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n <= 0) {
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOTCONN))
          break; // ENOTCONN: nonblocking connect still in flight
        ::close(fd_);
        fd_ = -1;
        return work;
      }
      out_off_ += static_cast<std::size_t>(n);
      work = true;
    }
    if (out_off_ == out_.size() && out_off_ > 0) {
      out_.clear();
      out_off_ = 0;
    }
    std::uint8_t buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n == 0) {
        ::close(fd_);
        fd_ = -1;
        return work;
      }
      if (n < 0) break; // EAGAIN / not yet connected
      in_.insert(in_.end(), buf, buf + n);
      work = true;
    }
    consume_frames();
    return work;
  }

private:
  void consume_frames() {
    std::size_t off = 0;
    for (;;) {
      std::size_t total = 0;
      const auto st = of::wire10::peek_frame(
          std::span<const std::uint8_t>(in_).subspan(off), &total);
      if (st != of::wire10::FrameStatus::kReady) break;
      // The only server message needing an answer is FEATURES_REQUEST;
      // everything else (HELLO, flow-mods, echo with keepalive disabled)
      // is drained and dropped.
      if (in_[off + 1] == 5) {
        const auto reply = of::wire10::encode({3, bench_features(dpid_)});
        out_.insert(out_.end(), reply.begin(), reply.end());
      }
      off += total;
    }
    in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(off));
  }

  int fd_ = -1;
  std::uint64_t dpid_;
  std::vector<std::uint8_t> out_;
  std::size_t out_off_ = 0;
  std::vector<std::uint8_t> in_;
  std::vector<std::uint8_t> pin_frame_;
};

/// Connections affordable within the fd soft limit: two fds per connection
/// (client + accepted server end) plus headroom for epolls, listeners, and
/// whatever the runtime already holds open.
std::size_t fd_budget_connections() {
  ::rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return 512;
  constexpr std::size_t kHeadroom = 256;
  const auto soft = static_cast<std::size_t>(rl.rlim_cur);
  return soft > kHeadroom ? (soft - kHeadroom) / 2 : 64;
}

struct HandshakeResult {
  double ms = 0;
  std::size_t completed = 0;
};

/// Connect + handshake `n` peers against `srv`, pumping both sides from this
/// thread. Connects go out in batches so the accept backlog never overflows.
HandshakeResult handshake_storm(southbound::OFServer& srv, std::uint16_t port,
                                std::vector<std::unique_ptr<BenchPeer>>& fleet,
                                std::size_t n) {
  constexpr std::size_t kConnectBatch = 512;
  bench::Stopwatch sw;
  sw.start();
  std::size_t created = 0;
  while (srv.stats().handshakes < n) {
    while (created < n && created < fleet.size() + kConnectBatch) {
      fleet.push_back(std::make_unique<BenchPeer>(port, fleet.size() + 1));
      ++created;
    }
    int work = srv.poll(0);
    for (auto& p : fleet) work += p->pump() ? 1 : 0;
    if (work == 0) srv.poll(1); // idle tick: let in-flight connects land
    if (sw.elapsed_us() > 60e6) break; // safety valve, never hit in practice
  }
  return {sw.elapsed_us() / 1e3, srv.stats().handshakes};
}

struct Cell {
  double events_per_sec = 0;
  Histogram lat;
  std::uint64_t batches = 0;
  double events_per_batch_p50 = 0;
  double events_per_batch_max = 0;
  std::uint64_t lock_acquisitions = 0;
  std::uint64_t srv_event_batches = 0; ///< wire batches delivered by OFServer
  std::uint64_t srv_wakeups = 0;       ///< eventfd pokes during the cell
};

/// Steady state: blast `total_events` PACKET_INs round-robin across the
/// fleet into a fresh dispatcher with `shards` lanes. In-flight submissions
/// are windowed so percentiles measure pipeline latency, not queue depth.
Cell steady_state(southbound::OFServer& srv,
                  std::vector<std::unique_ptr<BenchPeer>>& fleet,
                  std::atomic<ctl::ShardedDispatcher*>& sink_target,
                  std::size_t shards, std::uint64_t total_events) {
  std::atomic<std::uint64_t> completed{0};
  ctl::ShardedDispatcher dispatcher(
      {.shards = shards}, [&completed](ctl::Event, std::size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(kAppStallUs));
        completed.fetch_add(1, std::memory_order_relaxed);
      });
  sink_target.store(&dispatcher, std::memory_order_release);
  const auto srv_before = srv.stats();

  const std::uint64_t window = 1024;
  std::uint64_t queued = 0;
  bench::Stopwatch sw;
  sw.start();
  std::size_t cursor = 0;
  while (completed.load(std::memory_order_relaxed) < total_events) {
    // Refill: keep at most `window` events somewhere between a peer's send
    // buffer and a lane queue, spread round-robin across the fleet.
    const std::uint64_t done = completed.load(std::memory_order_relaxed);
    std::size_t attempts = fleet.size();
    while (queued < total_events && queued - done < window && attempts-- > 0) {
      auto& p = fleet[cursor];
      cursor = (cursor + 1) % fleet.size();
      if (!p->alive()) continue;
      p->queue_packet_in();
      ++queued;
    }
    srv.poll(0);
    for (auto& p : fleet)
      if (p->backlog() > 0) p->pump();
    if (sw.elapsed_us() > 120e6) break; // safety valve
  }
  dispatcher.drain();
  const double elapsed_us = sw.elapsed_us();
  sink_target.store(nullptr, std::memory_order_release);

  Cell cell;
  cell.events_per_sec =
      1e6 * static_cast<double>(completed.load()) / elapsed_us;
  const auto ds = dispatcher.stats();
  cell.lat = ds.latency_us;
  cell.batches = ds.batches;
  cell.events_per_batch_p50 = ds.batch_events.percentile(50);
  cell.events_per_batch_max = ds.batch_events.max();
  cell.lock_acquisitions = ds.lock_acquisitions;
  const auto srv_after = srv.stats();
  cell.srv_event_batches = srv_after.event_batches - srv_before.event_batches;
  cell.srv_wakeups = srv_after.wakeups - srv_before.wakeups;
  return cell;
}

} // namespace

int main() {
  using namespace legosdn;

  const std::size_t budget = fd_budget_connections();
  std::vector<std::size_t> sweep =
      bench::smoke() ? std::vector<std::size_t>{16, 64}
                     : std::vector<std::size_t>{100, 1'000, 5'000, 10'000};
  for (auto& n : sweep) {
    if (n > budget) {
      bench::note("fd budget: clamping " + std::to_string(n) +
                  " connections to " + std::to_string(budget) +
                  " (RLIMIT_NOFILE; 2 fds per loopback connection)");
      n = budget;
    }
  }
  sweep.erase(std::unique(sweep.begin(), sweep.end()), sweep.end());

  const std::uint64_t total_events = bench::smoke() ? 2'000 : 20'000;
  const std::vector<std::size_t> shard_counts = {1, 2, 4};
  const bool batched = bench::batch_enabled();
  const std::size_t host_cpus = std::thread::hardware_concurrency();

  bench::section("southbound socket scale (epoll server, " +
                 std::to_string(total_events) + " packet-ins/cell, " +
                 std::to_string(kAppStallUs) + "us modeled app stall)");
  bench::note("host_cpus=" + std::to_string(std::thread::hardware_concurrency()) +
              " — the pump thread multiplexes every socket; lanes overlap "
              "the modeled app stalls, so sharded speedup is real even on "
              "one CPU");

  bench::Json j;
  j.begin_obj();
  j.kv("bench", std::string("southbound"));
  j.kv("smoke", static_cast<std::uint64_t>(bench::smoke() ? 1 : 0));
  j.kv("events_per_cell", total_events);
  j.kv("app_stall_us", kAppStallUs);
  j.kv("fd_budget_connections", static_cast<std::uint64_t>(budget));
  j.kv("host_cpus", static_cast<std::uint64_t>(host_cpus));
  j.kv_bool("batched", batched);

  bench::Table hs_table({"connections", "handshake storm (ms)", "handshakes/s"});
  std::vector<std::string> th{"connections", "shards", "events/s"};
  for (auto& h : bench::latency_headers()) th.push_back(std::move(h));
  th.push_back("speedup");
  th.push_back("wire batches");
  th.push_back("epb p50");
  th.push_back("lock acq");
  th.push_back("wakeups");
  bench::Table tp_table(std::move(th));

  j.begin_arr("handshake");
  struct RowOut {
    std::size_t conns, shards;
    Cell cell;
    double speedup;
  };
  std::vector<RowOut> rows_out;
  std::size_t max_connections = 0;
  double headline_serial = 0, headline_sharded = 0;

  for (const std::size_t n : sweep) {
    southbound::OFServer srv;
    std::atomic<ctl::ShardedDispatcher*> sink_target{nullptr};
    southbound::OFServerConfig cfg;
    cfg.echo_interval_ms = 0; // virtual-time bench: no wall-clock keepalive
    cfg.idle_timeout_ms = 0;
    if (batched) {
      // Wire batching: every complete frame decoded in one read pass forms
      // one span, routed onto the lanes with one lock acquisition per
      // contiguous per-lane run (DESIGN.md §4.7).
      srv.set_event_batch([&sink_target](std::vector<ctl::Event> events) {
        auto* d = sink_target.load(std::memory_order_acquire);
        if (!d) return; // handshake phase: SwitchUp batches, no sink yet
        std::erase_if(events, [](const ctl::Event& e) {
          return !std::holds_alternative<of::PacketIn>(e);
        });
        if (!events.empty()) d->submit_batch(std::move(events));
      });
    }
    const auto st = srv.listen(cfg, [&sink_target](ctl::Event e) {
      if (!std::holds_alternative<of::PacketIn>(e)) return; // SwitchUp/Down
      if (auto* d = sink_target.load(std::memory_order_acquire))
        d->submit(std::move(e));
    });
    if (!st) {
      std::fprintf(stderr, "listen failed: %s\n", st.error().to_string().c_str());
      return 1;
    }

    std::vector<std::unique_ptr<BenchPeer>> fleet;
    fleet.reserve(n);
    const auto hs = handshake_storm(srv, srv.port(), fleet, n);
    if (hs.completed < n) {
      std::fprintf(stderr, "handshake storm incomplete: %zu/%zu\n",
                   hs.completed, n);
      return 1;
    }
    max_connections = std::max(max_connections, hs.completed);
    hs_table.row({std::to_string(n), bench::fmt(hs.ms),
                  bench::fmt(1e3 * static_cast<double>(n) / hs.ms, 0)});
    j.begin_obj();
    j.kv("connections", static_cast<std::uint64_t>(n));
    j.kv("ms", hs.ms);
    j.kv("per_sec", 1e3 * static_cast<double>(n) / hs.ms, 1);
    j.end_obj();

    double serial_eps = 0;
    for (const std::size_t shards : shard_counts) {
      const Cell cell = steady_state(srv, fleet, sink_target, shards, total_events);
      if (shards == 1) serial_eps = cell.events_per_sec;
      const double speedup =
          serial_eps > 0 ? cell.events_per_sec / serial_eps : 0;
      if (n == sweep.back()) {
        if (shards == 1) headline_serial = cell.events_per_sec;
        if (shards == 4) headline_sharded = cell.events_per_sec;
      }
      rows_out.push_back({n, shards, cell, speedup});
    }
  }
  j.end_arr();

  j.begin_arr("rows");
  for (const auto& r : rows_out) {
    std::vector<std::string> cells{std::to_string(r.conns),
                                   std::to_string(r.shards),
                                   bench::fmt(r.cell.events_per_sec, 0)};
    for (auto& c : bench::latency_cells(r.cell.lat)) cells.push_back(std::move(c));
    cells.push_back(bench::fmt(r.speedup));
    cells.push_back(std::to_string(r.cell.srv_event_batches));
    cells.push_back(bench::fmt(r.cell.events_per_batch_p50, 1));
    cells.push_back(std::to_string(r.cell.lock_acquisitions));
    cells.push_back(std::to_string(r.cell.srv_wakeups));
    tp_table.row(std::move(cells));
    j.begin_obj();
    j.kv("connections", static_cast<std::uint64_t>(r.conns));
    j.kv("shards", static_cast<std::uint64_t>(r.shards));
    j.kv_bool("batched", batched);
    j.kv_bool("cpu_oversubscribed", host_cpus > 0 && r.shards > host_cpus);
    j.kv("events_per_sec", r.cell.events_per_sec, 1);
    bench::latency_kv(j, r.cell.lat);
    j.kv("speedup_vs_serial", r.speedup);
    j.kv("batches", r.cell.batches);
    j.kv("events_per_batch_p50", r.cell.events_per_batch_p50, 1);
    j.kv("events_per_batch_max", r.cell.events_per_batch_max, 0);
    j.kv("lock_acquisitions", r.cell.lock_acquisitions);
    j.kv("wire_batches", r.cell.srv_event_batches);
    j.kv("wakeups", r.cell.srv_wakeups);
    j.end_obj();
  }
  j.end_arr();

  j.kv("max_connections", static_cast<std::uint64_t>(max_connections));
  const double headline_speedup =
      headline_serial > 0 ? headline_sharded / headline_serial : 0;
  j.begin_obj("headline");
  j.kv("metric",
       std::string("wire packet-in events/sec, 4 shards vs 1, largest fleet"));
  j.kv("speedup", headline_speedup);
  j.kv("serial_events_per_sec", headline_serial, 1);
  j.kv("sharded_events_per_sec", headline_sharded, 1);
  j.end_obj();
  j.end_obj();

  hs_table.print();
  std::printf("\n");
  tp_table.print();
  bench::note("max fleet driven: " + std::to_string(max_connections) +
              " concurrent connections");
  bench::note("headline: 4-shard wire speedup = " + bench::fmt(headline_speedup) + "x");
  bench::emit_json(j);
  return 0;
}
