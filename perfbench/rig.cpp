#include "rig.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "apps/learning_switch.hpp"
#include "apps/shortest_path_router.hpp"
#include "appvisor/inprocess_domain.hpp"
#include "appvisor/process_domain.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "legosdn/lego_controller.hpp"
#include "southbound/event_loop.hpp"
#include "southbound/of_server.hpp"
#include "southbound/wire_switch_client.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace legosdn;
using trace::Mark;

// --- workloads ---------------------------------------------------------------

// Poisoned packet-ins carry their trigger in the TCP destination port.
constexpr std::uint16_t kCrashPort = 6661;
constexpr std::uint16_t kBlackHolePort = 6662;
constexpr PortNo kDeadPort{0xEE00};

enum class Kind : std::uint8_t { kBroadcast, kUnicast, kCrash, kBlackHole };

struct Desc {
  std::uint16_t src = 0;
  std::uint16_t dst = 0;
  Kind kind = Kind::kBroadcast;
};

enum class Topo { kFatTree4, kStar4x64, kLinear4x8 };
enum class Poison { kBlackHole, kCrash, kBoth };

/// Each workload runs LegoConfig defaults (the paper's configuration: a
/// checkpoint before every event, byzantine verification, undo-log NetLog,
/// commit barriers); only topology, backend, dispatch lanes and invariants
/// differ. Flow identities are bounded, so app state and flow tables reach a
/// plateau during warm-up.
struct Spec {
  const char* name;
  Topo topo;
  bool router;             ///< ShortestPathRouter (else LearningSwitch)
  bool process;            ///< process isolation: fork()ed stub over UDP RPC
  bool wire;               ///< OF 1.0 over loopback TCP into 2 shard lanes
  double broadcast;        ///< share of packet-ins that flood
  std::size_t pairs;       ///< bounded unicast set (0 = every ordered host pair)
  double poison;           ///< share of packet-ins that trigger an app fault
  Poison poison_kind;
  std::size_t reach_pairs; ///< host pairs under the reachability invariant
  double rate;             ///< fixed offered rate of the open-loop phase (1/s)
  std::size_t window;      ///< in-flight bound of the closed-loop phases
  std::size_t cap_events;  ///< packet-ins per closed-loop window (about 0.6 s)
};

const Spec kSpecs[] = {
    // Multi-switch path bundles: verification does most of the work.
    {"fabric-paths", Topo::kFatTree4, true, false, false, 0.0, 0, 0.015,
     Poison::kBlackHole, 8, 300, 4, 1000},
    // The paper's stub prototype: checkpoint capture and delivery are RPCs.
    {"isolated-learning", Topo::kStar4x64, false, true, false, 0.9, 16, 0.03,
     Poison::kCrash, 0, 75, 4, 350},
    // Real sockets, shard lanes, crash and byzantine recovery.
    {"wire-faults", Topo::kLinear4x8, false, false, true, 0.85, 16, 0.02,
     Poison::kBoth, 0, 3000, 64, 36'000},
};

const Spec* find_spec(const std::string& name) {
  for (const Spec& s : kSpecs)
    if (name == s.name) return &s;
  return nullptr;
}

std::unique_ptr<netsim::Network> make_net(Topo t) {
  switch (t) {
    case Topo::kFatTree4: return netsim::Network::fat_tree(4);
    case Topo::kStar4x64: return netsim::Network::star(4, 64);
    case Topo::kLinear4x8: return netsim::Network::linear(4, 8);
  }
  return nullptr;
}

/// Length of the generated stream; later ids cycle through it again.
constexpr std::size_t kStreamCycle = std::size_t{1} << 16;

struct Inputs {
  std::vector<Desc> descs;    ///< id 0 unused, the warm-up, then one stream cycle
  std::uint32_t warm_end = 1; ///< ids [1, warm_end) are the warm-up

  /// Ids past the warm-up cycle through the stream, so no phase, however
  /// fast the program, runs out of packet-ins.
  const Desc& at(std::uint32_t id) const {
    if (id < warm_end) return descs[id];
    return descs[warm_end + (id - warm_end) % (descs.size() - warm_end)];
  }
};

bool is_poison(Kind k) { return k == Kind::kCrash || k == Kind::kBlackHole; }

/// Warm-up: every host floods once (apps learn every location), then every
/// unicast pair once (every rule the workload will ever install exists).
/// The stream after it draws from the same bounded identities.
Inputs generate(const Spec& s, const netsim::Network& net, std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + std::hash<std::string>{}(s.name));
  const auto& hosts = net.hosts();
  const auto n_hosts = static_cast<std::uint16_t>(hosts.size());
  std::vector<std::pair<std::uint16_t, std::uint16_t>> pairs;
  for (std::uint16_t a = 0; a < n_hosts; ++a) {
    for (std::uint16_t b = 0; b < n_hosts; ++b) {
      if (a == b) continue;
      const bool same = hosts[a].attach.dpid == hosts[b].attach.dpid;
      // Over the wire packet-outs are not forwarded, so a switch only ever
      // learns its own hosts: unicast stays on one switch. In the star the
      // bounded set crosses the core.
      if (s.pairs != 0 && same != s.wire) continue;
      pairs.emplace_back(a, b);
    }
  }
  if (s.pairs != 0) {
    for (std::size_t i = 0; i < s.pairs && i < pairs.size(); ++i)
      std::swap(pairs[i], pairs[i + rng.below(pairs.size() - i)]);
    pairs.resize(std::min(s.pairs, pairs.size()));
  }

  Inputs in;
  in.descs.emplace_back();
  for (std::uint16_t h = 0; h < n_hosts; ++h) in.descs.push_back({h, 0, Kind::kBroadcast});
  for (const auto& [a, b] : pairs) in.descs.push_back({a, b, Kind::kUnicast});
  in.warm_end = static_cast<std::uint32_t>(in.descs.size());
  for (std::size_t i = 0; i < kStreamCycle; ++i) {
    const double u = rng.uniform();
    Desc d;
    if (u < s.poison) {
      d.src = static_cast<std::uint16_t>(rng.below(n_hosts));
      d.dst = static_cast<std::uint16_t>((d.src + 1 + rng.below(n_hosts - 1u)) % n_hosts);
      const bool crash = s.poison_kind == Poison::kCrash ||
                         (s.poison_kind == Poison::kBoth && rng.chance(0.5));
      d.kind = crash ? Kind::kCrash : Kind::kBlackHole;
    } else if (u < s.poison + s.broadcast) {
      d.src = static_cast<std::uint16_t>(rng.below(n_hosts));
    } else {
      const auto& [a, b] = pairs[rng.below(pairs.size())];
      d = {a, b, Kind::kUnicast};
    }
    in.descs.push_back(d);
  }
  return in;
}

ctl::Event make_event(const netsim::Network& net, const Desc& d, std::uint32_t id) {
  const netsim::Host& src = net.hosts()[d.src];
  of::PacketIn pin;
  pin.dpid = src.attach.dpid;
  pin.in_port = src.attach.port;
  of::PacketHeader& h = pin.packet.hdr;
  h.eth_src = src.mac;
  h.ip_src = src.ip;
  h.ip_proto = of::kIpProtoTcp;
  h.tp_src = static_cast<std::uint16_t>(20000 + d.src);
  if (d.kind == Kind::kBroadcast) {
    h.eth_dst = MacAddress::from_uint64(0xFFFFFFFFFFFFULL);
    h.ip_dst = IpV4{0xFFFFFFFFu};
    h.tp_dst = 67;
  } else {
    const netsim::Host& dst = net.hosts()[d.dst];
    h.eth_dst = dst.mac;
    h.ip_dst = dst.ip;
    h.tp_dst = d.kind == Kind::kCrash       ? kCrashPort
               : d.kind == Kind::kBlackHole ? kBlackHolePort
                                            : 80;
  }
  pin.packet.trace_tag = id;
  return pin;
}

// --- apps --------------------------------------------------------------------

/// Deterministic event-triggered bugs (the paper's failure model), owned by
/// the benchmark so that it clones per shard lane: a crash throws, a
/// black-hole installs a rule into a port that does not exist.
class PoisonApp : public ctl::App {
public:
  explicit PoisonApp(ctl::AppPtr inner) : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  std::vector<ctl::EventType> subscriptions() const override {
    return inner_->subscriptions();
  }
  ctl::Disposition handle_event(const ctl::Event& e, ctl::ServiceApi& api) override {
    if (const auto* pin = std::get_if<of::PacketIn>(&e)) {
      const std::uint16_t port = pin->packet.hdr.tp_dst;
      if (port == kCrashPort)
        throw ctl::AppCrash("poisoned packet-in " + std::to_string(pin->packet.trace_tag));
      if (port == kBlackHolePort) {
        of::FlowMod mod;
        mod.dpid = pin->dpid;
        mod.match = of::Match{}.with_eth_dst(pin->packet.hdr.eth_dst);
        mod.priority = 0xE000;
        mod.actions = of::output_to(kDeadPort);
        api.send({api.next_xid(), mod});
        return ctl::Disposition::kStop;
      }
    }
    return inner_->handle_event(e, api);
  }
  std::vector<std::uint8_t> snapshot_state() const override {
    return inner_->snapshot_state();
  }
  void restore_state(std::span<const std::uint8_t> state) override {
    inner_->restore_state(state);
  }
  void reset() override { inner_->reset(); }
  ctl::AppPtr clone() const override {
    auto c = inner_->clone();
    return c ? std::make_shared<PoisonApp>(std::move(c)) : nullptr;
  }

private:
  ctl::AppPtr inner_;
};

/// Over the wire a recovered event leaves no trace at the switch, so the
/// switch side could not tell when recovery finished. This app runs after
/// the faulty one and only sees events the chain gave up on (a successful
/// packet-in stops the chain); it answers each with an empty packet-out.
class ProbeApp : public ctl::App {
public:
  std::string name() const override { return "recovery-probe"; }
  std::vector<ctl::EventType> subscriptions() const override {
    return {ctl::EventType::kPacketIn};
  }
  ctl::Disposition handle_event(const ctl::Event& e, ctl::ServiceApi& api) override {
    if (const auto* pin = std::get_if<of::PacketIn>(&e)) {
      of::PacketOut po;
      po.dpid = pin->dpid;
      po.in_port = pin->in_port;
      po.packet = pin->packet;
      api.send({api.next_xid(), po});
    }
    return ctl::Disposition::kContinue;
  }
  ctl::AppPtr clone() const override { return std::make_shared<ProbeApp>(); }
};

ctl::AppPtr make_app(const Spec& s, const netsim::Network& net) {
  ctl::AppPtr inner;
  if (s.router) {
    std::vector<apps::ShortestPathRouter::LinkInfo> links;
    for (const auto& l : net.links()) links.push_back({l.a, l.b});
    inner = std::make_shared<apps::ShortestPathRouter>(std::move(links));
  } else {
    inner = std::make_shared<apps::LearningSwitch>();
  }
  return std::make_shared<PoisonApp>(std::move(inner));
}

lego::LegoConfig make_config(const Spec& s, const netsim::Network& net) {
  lego::LegoConfig cfg;
  if (s.process) cfg.backend = appvisor::Backend::kProcess;
  if (s.wire) cfg.dispatch.shards = 2;
  const auto& hosts = net.hosts();
  for (std::size_t i = 0; i < s.reach_pairs && i < hosts.size() / 2; ++i)
    cfg.invariants.must_reach.push_back({hosts[i].mac, hosts[hosts.size() - 1 - i].mac});
  return cfg;
}

void observe_transactions(lego::LegoController& c) {
  c.netlog().set_txn_observer([](const netlog::TxnRecord& r) {
    using K = netlog::TxnRecord::Kind;
    switch (r.kind) {
      case K::kBegin:
      case K::kJoin: trace::mark_here(Mark::kTxnBegin); break;
      case K::kApply:
        trace::mark_here(of::is_state_changing(r.msg.body) ? Mark::kApplyMod : Mark::kApply);
        break;
      case K::kCommit: trace::mark_here(Mark::kCommit); break;
      case K::kRollback: trace::mark_here(Mark::kRollback); break;
    }
  });
}

// --- rigs --------------------------------------------------------------------

/// One deployment under test. The calling (generator) thread sends
/// packet-ins; completions are stamped into the shared timing table.
class Rig {
public:
  Rig(const Spec& s, const Inputs& in, trace::Timings& timing)
      : in_(in), timing_(timing), net_(make_net(s.topo)) {}
  virtual ~Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  virtual void send(std::uint32_t id) = 0;
  /// Block until `t_ns`, handling completions meanwhile.
  virtual void wait_until(std::int64_t t_ns) = 0;
  /// Block until more than `seen` events completed or `deadline_ns` passed.
  virtual void wait_progress(std::uint64_t seen, std::int64_t deadline_ns) = 0;
  /// Record the controller side's cumulative CPU time into `slot` (stubs
  /// included, the generator thread's own work excluded); cpu_at() returns it.
  virtual void sample_cpu(int slot) = 0;
  virtual double cpu_at(int slot) = 0;
  /// Stop the rig's threads and deliver every message still in flight.
  virtual void finish() = 0;
  virtual std::uint64_t drops() const { return 0; }
  virtual std::size_t queue_peak() const { return 0; }

  std::uint64_t completed() const { return completed_.load(std::memory_order_acquire); }
  /// When the latest completion happened (read after completed()).
  std::int64_t last_done() const { return last_done_.load(std::memory_order_relaxed); }
  lego::LegoController& ctl() { return *ctl_; }
  netsim::Network& net() { return *net_; }
  /// Ids go out in order, so this deployment was sent ids [1, sent()].
  std::uint32_t sent() const { return sent_; }
  std::uint64_t sb_msgs() const { return sb_msgs_.load(std::memory_order_relaxed); }

protected:
  ctl::Event event(std::uint32_t id) const { return make_event(*net_, in_.at(id), id); }

  /// Stamp `id` complete; completed() publishes the stamps.
  void complete(std::uint32_t id) {
    const std::int64_t t = now_ns();
    timing_[id].done = t;
    last_done_.store(t, std::memory_order_relaxed);
    completed_.fetch_add(1, std::memory_order_release);
  }

  const Inputs& in_;
  trace::Timings& timing_;
  std::unique_ptr<netsim::Network> net_;
  std::unique_ptr<lego::LegoController> ctl_;
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::int64_t> last_done_{0};
  std::atomic<std::uint64_t> sb_msgs_{0};
  std::uint32_t sent_ = 0;
};

/// Serial dispatch in-process or over the process backend: one controller
/// thread drains a FIFO the generator fills (the controller's input queue).
class SerialRig final : public Rig {
public:
  SerialRig(const Spec& s, const Inputs& in, trace::Timings& timing, bool traced)
      : Rig(s, in, timing) {
    ctl_ = std::make_unique<lego::LegoController>(*net_, make_config(s, *net_));
    ctl::AppPtr app = make_app(s, *net_);
    if (traced) {
      appvisor::DomainPtr inner;
      if (s.process) {
        inner = std::make_unique<appvisor::ProcessDomain>(app, ctl_->config().process);
      } else {
        inner = std::make_unique<appvisor::InProcessDomain>(app);
      }
      ctl_->add_domain(std::make_unique<trace::TracingDomain>(std::move(inner)));
      observe_transactions(*ctl_);
      // The stock in-process adapter, bracketed: netsim applies the message.
      auto south = [this](const of::Message& msg) {
        sb_msgs_.fetch_add(1, std::memory_order_relaxed);
        trace::mark_here(Mark::kSbBegin);
        net_->send_to_switch(msg);
        trace::mark_here(Mark::kSbEnd);
      };
      ctl_->set_southbound(south);
      ctl_->netlog().set_southbound(south);
    } else {
      ctl_->add_app(std::move(app));
    }
    if (auto st = ctl_->start_system(); !st)
      throw std::runtime_error("start_system: " + st.error().to_string());
    ctl_->run();
    thread_ = std::thread([this] { loop(); });
  }

  ~SerialRig() override {
    finish();
    ctl_.reset();
  }

  void send(std::uint32_t id) override {
    ctl::Event ev = event(id);
    sent_ = id;
    {
      std::lock_guard<std::mutex> lk(mu_);
      timing_[id].send = now_ns();
      q_.push_back({id, std::move(ev), -1});
      peak_ = std::max(peak_, q_.size());
    }
    cv_.notify_all();
  }

  void wait_until(std::int64_t t_ns) override { wait_until_ns(t_ns); }

  void wait_progress(std::uint64_t seen, std::int64_t deadline_ns) override {
    std::unique_lock<std::mutex> lk(mu_);
    const auto dl = Clock::time_point(std::chrono::nanoseconds(deadline_ns));
    done_cv_.wait_until(lk, dl, [&] { return completed() > seen; });
  }

  void sample_cpu(int slot) override {
    gen_cpu_[static_cast<std::size_t>(slot)] = thread_cpu_us();
    {
      std::lock_guard<std::mutex> lk(mu_);
      cpu_[static_cast<std::size_t>(slot)] = -1;
      q_.push_back({0, ctl::Event{}, slot});
    }
    cv_.notify_all();
  }

  double cpu_at(int slot) override {
    const auto s = static_cast<std::size_t>(slot);
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] { return cpu_[s] >= 0; });
    return cpu_[s] - gen_cpu_[s];
  }

  void finish() override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  std::size_t queue_peak() const override { return peak_; }

private:
  struct Item {
    std::uint32_t id = 0;
    ctl::Event event;
    int cpu_slot = -1; ///< >= 0: a CPU sample request, not an event
  };

  double stub_cpu_us() {
    double us = 0;
    for (auto& entry : ctl_->appvisor().entries()) {
      appvisor::IsolationDomain* d = entry.domain.get();
      if (auto* t = dynamic_cast<trace::TracingDomain*>(d)) d = &t->inner();
      if (auto* p = dynamic_cast<appvisor::ProcessDomain*>(d)) us += child_cpu_us(p->child_pid());
    }
    return us;
  }

  void loop() {
    for (;;) {
      Item it;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return stop_ || !q_.empty(); });
        if (q_.empty()) return;
        it = std::move(q_.front());
        q_.pop_front();
      }
      if (it.cpu_slot >= 0) {
        const double v = process_cpu_us() + stub_cpu_us();
        {
          std::lock_guard<std::mutex> lk(mu_);
          cpu_[static_cast<std::size_t>(it.cpu_slot)] = v;
        }
        done_cv_.notify_all();
        continue;
      }
      trace::set_current(it.id);
      trace::mark(it.id, Mark::kDispatchBegin);
      ctl_->inject_event(std::move(it.event));
      ctl_->run();
      trace::mark(it.id, Mark::kDispatchEnd);
      {
        std::lock_guard<std::mutex> lk(mu_);
        complete(it.id);
      }
      done_cv_.notify_all();
    }
  }

  std::mutex mu_; ///< guards q_, stop_, peak_, cpu_ and completion stamps
  std::condition_variable cv_;      ///< work for the controller thread
  std::condition_variable done_cv_; ///< completions and CPU samples
  std::deque<Item> q_;
  bool stop_ = false;
  std::size_t peak_ = 0;
  std::array<double, 2> cpu_{};
  std::array<double, 2> gen_cpu_{}; ///< generator thread CPU at each sample
  std::thread thread_; ///< last: uses everything above
};

/// OF 1.0 over loopback TCP into two shard lanes. The generator thread is
/// also the pump thread: it polls the controller's OFServer and the switch
/// side (one WireSwitchClient per switch), so a packet-in crosses threads
/// only into a lane and back. Switches apply flow-mods and barriers to the
/// simulated tables; packet-outs are recorded, not forwarded, so every
/// packet-in is exactly one dispatched event and recovery shows up as the
/// probe's packet-out.
class WireRig final : public Rig {
public:
  WireRig(const Spec& s, const Inputs& in, trace::Timings& timing, bool traced)
      : Rig(s, in, timing) {
    ctl_ = std::make_unique<lego::LegoController>(*net_, make_config(s, *net_));
    ctl::AppPtr app = make_app(s, *net_);
    if (traced) {
      app = std::make_shared<trace::TracingApp>(std::move(app));
      observe_transactions(*ctl_);
    }
    ctl_->add_app(std::move(app));
    ctl_->add_app(std::make_shared<ProbeApp>());

    server_.set_event_batch([this](std::vector<ctl::Event> events) {
      if (trace::enabled()) {
        for (const auto& e : events) {
          if (const auto* pin = std::get_if<of::PacketIn>(&e))
            trace::mark(static_cast<std::uint32_t>(pin->packet.trace_tag), Mark::kInject);
        }
      }
      ctl_->inject_events(std::move(events));
    });
    southbound::OFServerConfig sc;
    sc.echo_interval_ms = 0; // wall-clock keepalive has no place in a timed run
    sc.idle_timeout_ms = 0;
    if (auto st = server_.listen(sc, [this](ctl::Event e) { ctl_->inject_event(std::move(e)); });
        !st)
      throw std::runtime_error("listen: " + st.error().to_string());
    auto south = [this](const of::Message& msg) {
      sb_msgs_.fetch_add(1, std::memory_order_relaxed);
      trace::mark_here(Mark::kSbBegin);
      if (!server_.send(of::dpid_of(msg.body), msg)) drops_.fetch_add(1);
      trace::mark_here(Mark::kSbEnd);
    };
    ctl_->set_southbound(south);
    ctl_->netlog().set_southbound(south);
    ctl_->set_switch_announcer([this] { announce(); });
    // Switch-originated replies (barrier replies) go up the switch's socket.
    net_->set_northbound([this](const of::Message& msg) {
      auto it = clients_.find(of::dpid_of(msg.body));
      if (it == clients_.end() || !it->second->send(msg)) drops_.fetch_add(1);
    });
    net_->set_switch_state_callback([](DatapathId, bool) {});

    if (auto st = ctl_->start_system(); !st)
      throw std::runtime_error("start_system: " + st.error().to_string());
    settle();
  }

  ~WireRig() override {
    finish();
    ctl_->remove_dispatch_engine();
    clients_.clear();
    server_.close();
    ctl_.reset();
  }

  void send(std::uint32_t id) override {
    const ctl::Event ev = event(id);
    const auto& pin = std::get<of::PacketIn>(ev);
    sent_ = id;
    timing_[id].send = now_ns();
    auto it = clients_.find(pin.dpid);
    if (it == clients_.end() || !it->second->send({0, pin})) drops_.fetch_add(1);
  }

  void wait_until(std::int64_t t_ns) override {
    while (now_ns() < t_ns) pump();
  }

  /// Blocks in the server's epoll_wait after a pass that found nothing.
  /// Nothing is lost meanwhile: the switch side receives only what this
  /// thread's server passes flush, and a lane's send wakes the server.
  void wait_progress(std::uint64_t seen, std::int64_t deadline_ns) override {
    while (completed() <= seen && now_ns() < deadline_ns) {
      if (pump() == 0) pump(1);
    }
  }

  void sample_cpu(int slot) override {
    const auto s = static_cast<std::size_t>(slot);
    cpu_[s] = process_cpu_us() - thread_cpu_us() + server_cpu_us_;
  }
  double cpu_at(int slot) override { return cpu_[static_cast<std::size_t>(slot)]; }

  void finish() override { settle(); }

  std::uint64_t drops() const override {
    return drops_.load() + server_.stats().sends_dropped;
  }
  std::size_t queue_peak() const override {
    return ctl_->dispatch_engine() ? ctl_->dispatch_engine()->stats().queue_peak : 0;
  }
  southbound::OFServer& server() { return server_; }
  const std::vector<double>& switch_apply_us() const { return switch_apply_us_; }

private:
  /// One pass over both socket sides. The server side is controller work,
  /// so the CPU time of each server pass that did something counts toward
  /// the controller; idle passes, which a reactor thread would spend
  /// blocked in epoll_wait, do not.
  int pump(int server_timeout_ms = 0) {
    const double c0 = thread_cpu_us();
    const int w = server_.poll(server_timeout_ms);
    if (w > 0) server_cpu_us_ += thread_cpu_us() - c0;
    return w + loop_.poll(0);
  }

  /// Pump both socket sides and drain the lanes until nothing moves.
  void settle() {
    int calm = 0;
    for (std::size_t guard = 0; calm < 3 && guard < 2'000'000; ++guard) {
      const int w = pump() + static_cast<int>(ctl_->run());
      calm = w == 0 ? calm + 1 : 0;
    }
  }

  /// The controller's switch announcer: connect every switch's client and
  /// complete its handshake; SwitchUp arrives from the wire.
  void announce() {
    for (const DatapathId dpid : net_->switch_ids()) {
      southbound::WireSwitchClient::Config cc;
      cc.dpid = dpid;
      cc.features = net_->switch_at(dpid)->features();
      auto client = std::make_unique<southbound::WireSwitchClient>(
          loop_, std::move(cc),
          [this, dpid](const of::Message& msg) { on_switch_message(dpid, msg); });
      client->connect("127.0.0.1", server_.port());
      clients_[dpid] = std::move(client);
      for (int idle = 0; !server_.knows(dpid) && idle < 100'000;)
        idle = pump() == 0 ? idle + 1 : 0;
    }
  }

  /// Switch side of one controller->switch message (generator thread).
  void on_switch_message(DatapathId dpid, const of::Message& msg) {
    if (const auto* po = msg.get_if<of::PacketOut>()) {
      const auto id = static_cast<std::uint32_t>(po->packet.trace_tag);
      if (id == 0 || id > sent_ || timing_[id].done != 0) return;
      // A unicast's transaction is committed when its barrier arrives.
      if (in_.at(id).kind == Kind::kUnicast) {
        pending_barrier_[dpid] = id;
      } else {
        complete(id);
      }
      return;
    }
    const auto t0 = now_ns();
    // The same order of locks a lane takes: transaction gate, then stripes.
    ctl_->with_txn_write_gate(
        [&] { ctl_->netlog().with_world_lock([&] { net_->send_to_switch(msg); }); });
    if (trace::enabled() && msg.is<of::FlowMod>())
      switch_apply_us_.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    if (const auto it = pending_barrier_.find(dpid);
        msg.is<of::BarrierRequest>() && it != pending_barrier_.end()) {
      complete(it->second);
      pending_barrier_.erase(it);
    }
  }

  southbound::OFServer server_;
  southbound::EventLoop loop_; ///< switch side
  std::unordered_map<DatapathId, std::unique_ptr<southbound::WireSwitchClient>> clients_;
  /// Per switch: the unicast whose packet-out arrived and whose commit
  /// barrier has not.
  std::unordered_map<DatapathId, std::uint32_t> pending_barrier_;
  std::atomic<std::uint64_t> drops_{0}; ///< lane threads count too
  double server_cpu_us_ = 0;            ///< busy server passes on this thread
  std::array<double, 2> cpu_{};
  std::vector<double> switch_apply_us_; ///< flow-mod apply times, traced runs
};

std::unique_ptr<Rig> make_rig(const Spec& s, const Inputs& in, trace::Timings& timing,
                              bool traced) {
  if (s.wire) return std::make_unique<WireRig>(s, in, timing, traced);
  return std::make_unique<SerialRig>(s, in, timing, traced);
}

// --- phases ------------------------------------------------------------------

constexpr std::int64_t kDrainNs = 10'000'000'000; // give stragglers 10 s

/// A run alternates this many closed-loop and open-loop windows.
constexpr std::size_t kWindows = 9;

/// A closed-loop window sends a fixed number of packet-ins, so that how much
/// a run sends, and with it the program's memory, does not depend on the
/// program's speed. This is its time limit should the program be very slow.
constexpr std::int64_t kCapWindowMaxNs = 2'000'000'000;

/// CPU per packet-in may grow this much from the first third of a run's
/// open-loop windows to the last before the run counts as failed, so that
/// state that grows per event fails the gate. Host noise moves the ratio by
/// up to about 15% on the serial workloads; over the wire, where the work
/// is mostly short system calls, single windows of one run took from 24 to
/// 39 us per packet-in.
constexpr double kMaxCpuDrift = 2.0;

struct Phase {
  std::size_t sent = 0;
  std::vector<std::uint32_t> ids; ///< open loop only: the packet-ins sent
  std::int64_t t0 = 0;   ///< first send
  std::int64_t stop = 0; ///< closed loop: last completion
  double cpu_us = 0;     ///< open loop: controller CPU time, drain included
  std::vector<double> gen_lag_us;
  std::uint64_t incomplete = 0;
};

/// Hand out the next event id with its timing slot reset to `sched`.
std::uint32_t issue(const Inputs& in, trace::Timings& timing, std::uint32_t& next,
                    std::int64_t sched) {
  const std::uint32_t id = next++;
  timing[id] = {sched, 0, 0, is_poison(in.at(id).kind)};
  return id;
}

void drain(Rig& rig, std::uint64_t target, Phase& ph) {
  const std::int64_t deadline = now_ns() + kDrainNs;
  while (rig.completed() < target && now_ns() < deadline)
    rig.wait_progress(rig.completed(), deadline);
  ph.incomplete = target - std::min(target, rig.completed());
}

/// Keep `window` packet-ins in flight until `count` were sent or `stop_ns`
/// passed. The window ends at its last completion.
Phase closed_loop(Rig& rig, const Inputs& in, trace::Timings& timing, std::uint32_t& next,
                  std::size_t count, std::size_t window, std::int64_t stop_ns) {
  Phase ph;
  ph.t0 = now_ns();
  const std::uint64_t base = rig.completed();
  bool stuck = false;
  while (!stuck && ph.sent < count && now_ns() < stop_ns) {
    while (ph.sent - (rig.completed() - base) >= window) {
      const std::uint64_t seen = rig.completed();
      rig.wait_progress(seen, now_ns() + kDrainNs);
      if (rig.completed() == seen) {
        stuck = true;
        break;
      }
    }
    if (stuck) break;
    rig.send(issue(in, timing, next, now_ns()));
    ph.sent += 1;
  }
  drain(rig, base + ph.sent, ph);
  ph.stop = rig.last_done();
  return ph;
}

/// Send at a fixed rate for `seconds`, whatever the controller's backlog.
Phase open_loop(Rig& rig, const Inputs& in, trace::Timings& timing, std::uint32_t& next,
                double rate, double seconds) {
  Phase ph;
  const double period_ns = 1e9 / rate;
  ph.t0 = now_ns() + 1'000'000;
  const std::int64_t stop = ph.t0 + static_cast<std::int64_t>(seconds * 1e9);
  rig.sample_cpu(0);
  const std::uint64_t base = rig.completed();
  for (std::uint64_t i = 0;; ++i) {
    const std::int64_t sched = ph.t0 + std::llround(static_cast<double>(i) * period_ns);
    if (sched >= stop) break;
    rig.wait_until(sched);
    const std::uint32_t id = issue(in, timing, next, sched);
    rig.send(id);
    ph.gen_lag_us.push_back(static_cast<double>(timing[id].send - sched) / 1e3);
    ph.ids.push_back(id);
  }
  ph.sent = ph.ids.size();
  if (ph.sent > trace::Timings::kSlots) throw std::runtime_error("open-loop window too long");
  drain(rig, base + ph.sent, ph);
  rig.sample_cpu(1);
  ph.cpu_us = rig.cpu_at(1) - rig.cpu_at(0);
  return ph;
}

/// Build the deployment and run the warm-up to completion.
std::unique_ptr<Rig> set_up(const Spec& s, const Inputs& in, trace::Timings& timing,
                            bool traced) {
  auto rig = make_rig(s, in, timing, traced);
  std::uint32_t next = 1;
  const Phase warm = closed_loop(*rig, in, timing, next, in.warm_end - 1, s.window,
                                 std::numeric_limits<std::int64_t>::max());
  if (warm.incomplete != 0 || next != in.warm_end)
    throw std::runtime_error("warm-up: " + std::to_string(warm.incomplete) + " of " +
                             std::to_string(warm.sent) + " packet-ins incomplete, " +
                             std::to_string(rig->drops()) + " messages dropped");
  return rig;
}

// --- final state and the correctness oracle ------------------------------------

struct FinalState {
  std::map<std::uint64_t, std::uint64_t> digests; ///< dpid -> logical digest
  std::string app;                                ///< canonical app state
  std::size_t app_bytes = 0;
  std::size_t entries_total = 0;
  std::size_t entries_max = 0;
  std::size_t black_holes = 0; ///< surviving rules into the dead port
};

/// App state in an order-independent form: learning-switch snapshots are
/// sorted already but split across lane clones; the router serializes hash
/// maps in iteration order, which differs after a restore.
std::string canonical_state(bool router, const std::vector<std::vector<std::uint8_t>>& snaps) {
  std::vector<std::string> items;
  auto item = [&](char tag, std::uint64_t a, std::uint64_t b = 0, std::uint64_t c = 0) {
    items.push_back(tag + std::to_string(a) + ":" + std::to_string(b) + ":" +
                    std::to_string(c));
  };
  for (const auto& s : snaps) {
    ByteReader r(s);
    if (!router) {
      const std::uint32_t n = r.u32();
      for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
        const std::uint64_t d = r.u64();
        const std::uint64_t mac = r.mac().to_uint64();
        item('L', d, mac, r.u16());
      }
      continue;
    }
    const std::uint32_t nl = r.u32();
    for (std::uint32_t i = 0; i < nl && r.ok(); ++i) item('K', i, r.u8());
    const std::uint32_t ns = r.u32();
    for (std::uint32_t i = 0; i < ns && r.ok(); ++i) {
      const std::uint64_t d = r.u64();
      item('S', d, r.u8());
    }
    const std::uint32_t nh = r.u32();
    for (std::uint32_t i = 0; i < nh && r.ok(); ++i) {
      const std::uint64_t mac = r.mac().to_uint64();
      const std::uint64_t d = r.u64();
      item('H', mac, d, r.u16());
    }
    const std::uint32_t np = r.u32();
    for (std::uint32_t i = 0; i < np && r.ok(); ++i) {
      const std::uint64_t d = r.u64();
      const std::uint16_t count = r.u16();
      for (std::uint16_t j = 0; j < count && r.ok(); ++j) item('P', d, j, r.u16());
    }
    if (!r.ok()) items.push_back("malformed");
  }
  std::sort(items.begin(), items.end());
  std::string out;
  for (const auto& i : items) out += i + ";";
  return out;
}

FinalState final_state(bool router, lego::LegoController& c, netsim::Network& net,
                       const std::string& app_name) {
  FinalState fs;
  for (const DatapathId d : net.switch_ids()) {
    const netsim::SimSwitch* sw = net.switch_at(d);
    fs.digests[raw(d)] = sw->table().logical_digest();
    fs.entries_total += sw->table().size();
    fs.entries_max = std::max(fs.entries_max, sw->table().size());
    for (const auto& e : sw->table().entries()) {
      for (const auto& a : e.actions) {
        if (const auto* out = std::get_if<of::ActionOutput>(&a); out && out->port == kDeadPort)
          fs.black_holes += 1;
      }
    }
  }
  std::vector<std::vector<std::uint8_t>> snaps;
  for (auto& entry : c.appvisor().entries()) {
    if (entry.domain->app_name() != app_name) continue;
    auto snap = entry.domain->snapshot();
    if (!snap) {
      fs.app = "unavailable: " + snap.error().to_string();
      return fs;
    }
    fs.app_bytes += snap.value().size();
    snaps.push_back(std::move(snap).value());
  }
  fs.app = canonical_state(router, snaps);
  return fs;
}

/// Replay the run's non-poisoned packet-ins, in send order, through a
/// serial, fault-free, in-process LegoController (verification and periodic
/// checkpoints off: with no faults they change nothing). Over the wire the
/// reference gets the same switch semantics: packet-outs are not forwarded.
FinalState run_oracle(const Spec& s, const Inputs& in, std::uint32_t sent,
                      const std::string& app_name) {
  auto net = make_net(s.topo);
  lego::LegoConfig cfg = make_config(s, *net);
  cfg.backend = appvisor::Backend::kInProcess;
  cfg.dispatch.shards = 1;
  cfg.byzantine_detection = false;
  cfg.checkpoint_every = std::uint64_t{1} << 40;
  lego::LegoController c(*net, cfg);
  c.add_app(make_app(s, *net));
  if (s.wire) {
    c.add_app(std::make_shared<ProbeApp>());
    auto south = [n = net.get()](const of::Message& msg) {
      if (!msg.is<of::PacketOut>()) n->send_to_switch(msg);
    };
    c.set_southbound(south);
    c.netlog().set_southbound(south);
  }
  c.start_system();
  c.run();
  for (std::uint32_t id = 1; id <= sent; ++id) {
    if (is_poison(in.at(id).kind)) continue;
    c.inject_event(make_event(*net, in.at(id), id));
    c.run();
  }
  return final_state(s.router, c, *net, app_name);
}

struct Verdict {
  std::uint64_t mismatches = 0; ///< switches + app state + netlog digests
  std::uint64_t unexpected_faults = 0;
  std::uint64_t black_holes = 0;
  FinalState measured;
};

Verdict check(const Spec& s, const Inputs& in, Rig& rig) {
  const std::string app_name = s.router ? "shortest-path-router" : "learning-switch";
  Verdict v;
  v.measured = final_state(s.router, rig.ctl(), rig.net(), app_name);
  const FinalState ref = run_oracle(s, in, rig.sent(), app_name);
  for (const auto& [d, dig] : v.measured.digests) {
    auto it = ref.digests.find(d);
    if (it == ref.digests.end() || it->second != dig) v.mismatches += 1;
  }
  if (v.measured.app != ref.app) v.mismatches += 1;
  const auto nl = rig.ctl().netlog().stats();
  v.mismatches += nl.rollback_digest_mismatches;
  // In-process every commit audits shadow against switch; over the wire the
  // switch lags the commit, so compare once everything has landed.
  if (!s.wire) v.mismatches += nl.shadow_sync_mismatches;
  for (const auto& [d, dig] : rig.ctl().netlog().shadow_digests()) {
    auto it = v.measured.digests.find(d);
    if (it != v.measured.digests.end() && it->second != dig) v.mismatches += 1;
  }
  v.black_holes = v.measured.black_holes;

  std::uint64_t crashes = 0, blackholes = 0;
  for (std::uint32_t id = 1; id <= rig.sent(); ++id) {
    crashes += in.at(id).kind == Kind::kCrash;
    blackholes += in.at(id).kind == Kind::kBlackHole;
  }
  const auto ls = rig.ctl().lego_stats();
  auto diff = [](std::uint64_t a, std::uint64_t b) { return a > b ? a - b : b - a; };
  v.unexpected_faults = diff(ls.failstop_crashes, crashes) +
                        diff(ls.byzantine_failures, blackholes) + ls.stub_timeouts;
  return v;
}

double calibrate_us() {
  std::vector<double> t;
  std::uint64_t sink = 0;
  for (int r = 0; r < 5; ++r) {
    const std::int64_t t0 = now_ns();
    std::uint64_t x = 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(r);
    for (int i = 0; i < 2'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      x *= 0x2545F4914F6CDD1DULL;
    }
    sink += x;
    t.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  if (sink == 42) std::fprintf(stderr, "!\n"); // keeps the kernel from folding away
  return median(t);
}

struct Latencies {
  std::vector<double> normal, poison; ///< microseconds
};

void add_latencies(Latencies& l, const Phase& ph, const trace::Timings& timing) {
  for (const std::uint32_t id : ph.ids) {
    const auto& tm = timing[id];
    if (tm.done == 0) continue;
    (tm.poison ? l.poison : l.normal).push_back(static_cast<double>(tm.done - tm.sched) / 1e3);
  }
}

Latencies latencies(const Phase& ph, const trace::Timings& timing) {
  Latencies l;
  add_latencies(l, ph, timing);
  return l;
}

double cpu_per_event(const Phase& ph) {
  return ratio(ph.cpu_us, static_cast<double>(ph.sent));
}

struct Counters {
  netlog::NetLog::Stats nl;
  lego::LegoController::LegoStats ls;
  appvisor::TransportStats ts;
  std::uint64_t dispatched = 0;
  std::uint64_t sb_msgs = 0;
  std::size_t tickets = 0;
  ctl::ShardedDispatcher::Stats ds;
  southbound::OFServer::Stats ss;
};

Counters counters(Rig& rig) {
  Counters c;
  c.nl = rig.ctl().netlog().stats();
  c.ls = rig.ctl().lego_stats();
  c.ts = rig.ctl().transport_stats();
  c.dispatched = rig.ctl().stats().events_dispatched;
  c.sb_msgs = rig.sb_msgs();
  c.tickets = rig.ctl().tickets().count();
  if (auto* e = rig.ctl().dispatch_engine()) c.ds = e->stats();
  if (auto* w = dynamic_cast<WireRig*>(&rig)) c.ss = w->server().stats();
  return c;
}

/// Per-layer metrics of the traced phase.
void layer_metrics(Metrics& m, const Spec& s, const trace::Breakdown& b, const Counters& c0,
                   const Counters& c1, Rig& rig, const Phase& ph) {
  const double pins = static_cast<double>(ph.sent);
  const auto d = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a); };
  const auto share = [&](trace::Layer l) { return ratio(b.self_us[l], b.latency_us); };

  m.set("invariant.baseline_us_p50", percentile(b.baseline, 50), "us");
  m.set("invariant.verify_us_p50", percentile(b.verify, 50), "us");
  m.set("invariant.verify_us_p99", percentile(b.verify, 99), "us");
  m.set("invariant.verifying_txn_frac",
        ratio(static_cast<double>(b.verifying_txns), static_cast<double>(b.txns)), "ratio");
  m.set("invariant.violations_caught", d(c0.ls.byzantine_failures, c1.ls.byzantine_failures),
        "count");
  m.set("invariant.self_share", share(trace::kInvariant), "ratio");

  m.set("checkpoint.capture_us_p50", percentile(b.capture, 50), "us");
  m.set("checkpoint.capture_us_p99", percentile(b.capture, 99), "us");
  m.set("checkpoint.capture_bytes_mean",
        ratio(d(c0.ls.checkpoint_bytes, c1.ls.checkpoint_bytes),
              d(c0.ls.checkpoints, c1.ls.checkpoints)),
        "B");
  m.set("checkpoint.stored_over_raw",
        ratio(static_cast<double>(c1.ls.checkpoint_stored_bytes),
              static_cast<double>(c1.ls.checkpoint_stored_bytes + c1.ls.checkpoint_bytes_saved)),
        "ratio");
  m.set("checkpoint.encode_lag_us_p50", c1.ls.encode_lag_us.percentile(50), "us");
  m.set("checkpoint.inline_encodes", d(c0.ls.inline_encodes, c1.ls.inline_encodes), "count");
  m.set("checkpoint.self_share", share(trace::kCheckpoint), "ratio");

  appvisor::TransportStats dt = c1.ts;
  m.set("appvisor.deliver_us_p50", percentile(b.deliver, 50), "us");
  m.set("appvisor.deliver_us_p99", percentile(b.deliver, 99), "us");
  m.set("appvisor.rpc_rtt_us_p50", dt.rtt_us.percentile(50), "us");
  m.set("appvisor.rpc_calls_per_event", ratio(d(c0.ts.rpc_calls, c1.ts.rpc_calls), pins),
        "count");
  m.set("appvisor.retransmits", d(c0.ts.retransmits, c1.ts.retransmits), "count");
  m.set("appvisor.rpc_timeouts", d(c0.ts.rpc_timeouts, c1.ts.rpc_timeouts), "count");
  m.set("appvisor.self_share", share(trace::kAppvisor), "ratio");

  const double begun = d(c0.nl.begun, c1.nl.begun);
  m.set("netlog.txns_per_event", ratio(begun, pins), "count");
  m.set("netlog.msgs_per_txn", ratio(d(c0.nl.messages, c1.nl.messages), begun), "count");
  m.set("netlog.apply_us_p50", percentile(b.apply, 50), "us");
  m.set("netlog.commit_us_p50", percentile(b.commit, 50), "us");
  const double cc = d(c0.nl.coalesced_commits, c1.nl.coalesced_commits);
  m.set("netlog.coalesced_spans_per_commit",
        cc > 0 ? ratio(d(c0.nl.coalesced_spans, c1.nl.coalesced_spans), cc) : 1.0, "count");
  m.set("netlog.rollbacks", d(c0.nl.rolled_back, c1.nl.rolled_back), "count");
  m.set("netlog.digest_mismatches",
        d(c0.nl.rollback_digest_mismatches, c1.nl.rollback_digest_mismatches) +
            (s.wire ? 0 : d(c0.nl.shadow_sync_mismatches, c1.nl.shadow_sync_mismatches)),
        "count");
  m.set("netlog.self_share", share(trace::kNetlog), "ratio");

  const double dispatched = d(c0.dispatched, c1.dispatched);
  m.set("controller.queue_wait_us_p50", percentile(b.queue_wait, 50), "us");
  m.set("controller.queue_wait_us_p99", percentile(b.queue_wait, 99), "us");
  m.set("controller.events_per_packet_in", ratio(dispatched, pins), "count");
  m.set("controller.events_per_batch_mean",
        s.wire ? ratio(d(c0.ds.dispatched - c0.ds.barriers, c1.ds.dispatched - c1.ds.barriers),
                       d(c0.ds.batches, c1.ds.batches))
               : 1.0,
        "count");
  m.set("controller.lock_acquisitions_per_event",
        s.wire ? ratio(d(c0.ds.lock_acquisitions, c1.ds.lock_acquisitions), dispatched) : 0,
        "count");
  m.set("controller.queue_peak", static_cast<double>(rig.queue_peak()), "count");
  m.set("controller.self_share", share(trace::kController), "ratio");
  m.set("controller.queue_share", share(trace::kQueue), "ratio");

  m.set("southbound.ingress_us_p50", percentile(b.ingress, 50), "us");
  m.set("southbound.egress_us_p50", percentile(b.egress, 50), "us");
  m.set("southbound.events_per_read_pass",
        ratio(d(c0.ss.events_out, c1.ss.events_out), d(c0.ss.event_batches, c1.ss.event_batches)),
        "count");
  m.set("southbound.wakeups_per_event", ratio(d(c0.ss.wakeups, c1.ss.wakeups), pins), "count");
  m.set("southbound.bytes_out_per_event", ratio(d(c0.ss.bytes_out, c1.ss.bytes_out), pins), "B");
  m.set("southbound.sends_dropped", static_cast<double>(rig.drops()), "count");
  m.set("southbound.self_share", share(trace::kSouthbound), "ratio");

  const double recoveries = d(c0.ls.recoveries, c1.ls.recoveries);
  m.set("crashpad.recoveries", recoveries, "count");
  m.set("crashpad.restore_us_p50", percentile(b.restore, 50), "us");
  m.set("crashpad.replayed_per_recovery",
        ratio(d(c0.ls.replayed_events, c1.ls.replayed_events), recoveries), "count");
  m.set("crashpad.tickets", static_cast<double>(c1.tickets - c0.tickets), "count");

  auto* wire = dynamic_cast<WireRig*>(&rig);
  const std::vector<double>& apply = wire ? wire->switch_apply_us() : b.netsim;
  m.set("netsim.apply_us_p50", percentile(apply, 50), "us");
  m.set("netsim.msgs_per_event", ratio(d(c0.sb_msgs, c1.sb_msgs), pins), "count");
  m.set("netsim.self_share", share(trace::kNetsim), "ratio");
}

} // namespace

bool known_workload(const std::string& name) { return find_spec(name) != nullptr; }

RunResult run(const Options& opt) {
  const Spec& spec = *find_spec(opt.workload);
  RunResult res;
  Metrics& m = res.metrics;
  pin_to_one_cpu();
  const double calib = calibrate_us();

  // Inputs, generated before anything is timed.
  Inputs in;
  {
    const auto net = make_net(spec.topo);
    in = generate(spec, *net, opt.seed);
  }
  trace::Timings timing;
  std::uint64_t attempted = 0, incomplete = 0;
  std::uint64_t empty_windows = 0; ///< windows that measured nothing: failures

  std::unique_ptr<Rig> rig;
  // The run alternates closed-loop (capacity) and open-loop (fixed-rate)
  // windows spread through the run, and each figure is the median window's:
  // a burst of stolen CPU, or a lucky spell, moves a few windows and not
  // the median, while a regression that grows over the run moves the later
  // windows and so the median.
  std::vector<Phase> windows;
  if (!opt.trace) {
    // Set up several times, and more often when set-up is quick, so that
    // the median is steady; the last deployment is the one measured.
    std::vector<double> setups;
    for (double spent = 0; setups.size() < 7 || (spent < 0.5 && setups.size() < 201);
         spent += setups.back()) {
      rig.reset();
      const std::int64_t t0 = now_ns();
      rig = set_up(spec, in, timing, false);
      setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    m.set("setup_s", median(setups), "s");
    std::uint32_t next = in.warm_end;
    std::vector<double> capacity, p50, p90, p99, cpu;
    Latencies pooled;
    std::size_t cap_events = 0;
    double cap_seconds = 0;
    for (std::size_t k = 0; k < kWindows; ++k) {
      const Phase cap =
          closed_loop(*rig, in, timing, next, spec.cap_events, spec.window,
                      now_ns() + kCapWindowMaxNs);
      if (cap.sent == 0 || cap.stop <= cap.t0) empty_windows += 1;
      const double secs = std::max(static_cast<double>(cap.stop - cap.t0) / 1e9, 1e-9);
      capacity.push_back(static_cast<double>(cap.sent) / secs);
      cap_events += cap.sent;
      cap_seconds += secs;
      attempted += cap.sent;
      incomplete += cap.incomplete;
      const Phase w = open_loop(*rig, in, timing, next, spec.rate, opt.seconds / kWindows);
      attempted += w.ids.size();
      incomplete += w.incomplete;
      const Latencies lat = latencies(w, timing);
      if (lat.normal.empty()) empty_windows += 1;
      p50.push_back(percentile(lat.normal, 50));
      p90.push_back(percentile(lat.normal, 90));
      p99.push_back(percentile(lat.normal, 99));
      cpu.push_back(cpu_per_event(w));
      add_latencies(pooled, w, timing);
      windows.push_back(w);
    }
    rig->finish();
    if (pooled.poison.empty()) empty_windows += 1;
    // Pooled over the windows rather than their median: windows over the
    // wire (and some serial ones) fall into a slower or a faster mode, and
    // a median flips with the majority mode from run to run.
    m.set("capacity_eps", static_cast<double>(cap_events) / cap_seconds, "1/s");
    m.set("setup_latency_p50_us", median(p50), "us");
    m.set("recovery_p50_us", percentile(pooled.poison, 50), "us");
    m.set("cpu_us_per_event", median(cpu), "us");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    std::printf("# %s seed=%llu rate=%.0f/s: %zu normal, %zu poisoned samples; %zu "
                "capacity-phase packet-ins; median-window p90=%.1f p99=%.1f us; recovery "
                "p90=%.1f us\n",
                spec.name, static_cast<unsigned long long>(opt.seed), spec.rate,
                pooled.normal.size(), pooled.poison.size(), cap_events, median(p90),
                median(p99), percentile(pooled.poison, 90));
    std::printf("# windows: p50_us");
    for (double v : p50) std::printf(" %.1f", v);
    std::printf("; capacity_eps");
    for (double v : capacity) std::printf(" %.0f", v);
    std::printf("; cpu_us_per_event");
    for (double v : cpu) std::printf(" %.1f", v);
    std::printf("\n");
  } else {
    // Untraced reference phase on a stock deployment, for the overhead.
    // Each phase runs half the time so a traced run is as long as a plain one.
    double untraced_p50 = 0;
    {
      rig = set_up(spec, in, timing, false);
      std::uint32_t next = in.warm_end;
      const Phase plain = open_loop(*rig, in, timing, next, spec.rate, opt.seconds / 2);
      rig->finish();
      const Latencies lat = latencies(plain, timing);
      if (lat.normal.empty()) empty_windows += 1;
      untraced_p50 = percentile(lat.normal, 50);
      // Tails are too host-sensitive to gate (see README.md); they are
      // reported here, untraced, for reading alongside the layer figures.
      m.set("bench.setup_latency_p90_us", percentile(lat.normal, 90), "us");
      m.set("bench.setup_latency_p99_us", percentile(lat.normal, 99), "us");
      m.set("crashpad.recovery_p90_us", percentile(lat.poison, 90), "us");
      rig.reset();
    }
    rig = set_up(spec, in, timing, true);
    std::uint32_t next = in.warm_end;
    const Counters c0 = counters(*rig);
    trace::take_all();
    trace::set_enabled(true);
    Phase traced;
    for (std::size_t k = 0; k < kWindows; ++k) {
      windows.push_back(
          open_loop(*rig, in, timing, next, spec.rate, opt.seconds / 2 / kWindows));
      const Phase& w = windows.back();
      traced.ids.insert(traced.ids.end(), w.ids.begin(), w.ids.end());
      attempted += w.ids.size();
      incomplete += w.incomplete;
    }
    traced.sent = traced.ids.size();
    if (traced.sent > trace::Timings::kSlots) throw std::runtime_error("traced phase too long");
    trace::set_enabled(false);
    rig->finish();
    const Counters c1 = counters(*rig);
    const trace::Breakdown b =
        trace::analyze(trace::take_all(), timing, traced.ids, spec.wire);
    if (b.events == 0) empty_windows += 1;
    layer_metrics(m, spec, b, c0, c1, *rig, traced);
    const double traced_p50 = percentile(b.latency, 50);
    m.set("bench.traced_latency_p50_us", traced_p50, "us");
    m.set("bench.trace_overhead", ratio(traced_p50, untraced_p50), "ratio");
    double covered = 0;
    for (double v : b.self_us) covered += v;
    m.set("bench.span_coverage", ratio(covered, b.latency_us), "ratio");
    std::printf("# %s seed=%llu rate=%.0f/s traced: %llu events; self-time shares:",
                spec.name, static_cast<unsigned long long>(opt.seed), spec.rate,
                static_cast<unsigned long long>(b.events));
    for (std::size_t l = 0; l < trace::kLayerCount; ++l)
      std::printf(" %s=%.3f", trace::layer_name(static_cast<trace::Layer>(l)),
                  ratio(b.self_us[l], b.latency_us));
    std::printf(" uncovered=%.3f\n", ratio(b.uncovered_us, b.latency_us));
  }

  // Correctness, stationarity and generator validity.
  const Verdict v = check(spec, in, *rig);
  const std::uint64_t drops = rig->drops();
  // Stationarity: median CPU per packet-in of the last third of the
  // open-loop windows over that of the first third.
  const std::size_t third = windows.size() / 3;
  std::vector<double> first, last;
  for (std::size_t k = 0; k < third; ++k) {
    first.push_back(cpu_per_event(windows[k]));
    last.push_back(cpu_per_event(windows[windows.size() - 1 - k]));
  }
  const double drift = ratio(median(last), median(first));
  const bool drifted = drift > kMaxCpuDrift;
  res.attempted = std::max<std::uint64_t>(attempted, 1);
  res.failed = incomplete + v.mismatches + v.unexpected_faults + v.black_holes + drops +
               empty_windows + (drifted ? 1 : 0);
  res.correct = res.failed == 0;
  std::vector<double> gen_lag;
  for (const Phase& w : windows) gen_lag.insert(gen_lag.end(), w.gen_lag_us.begin(), w.gen_lag_us.end());
  if (opt.trace) {
    m.set("bench.gen_lag_us_p99", percentile(gen_lag, 99), "us");
    m.set("bench.calib_us", calib, "us");
    m.set("bench.cpu_drift", drift, "ratio");
    m.set("bench.app_state_bytes", static_cast<double>(v.measured.app_bytes), "B");
    m.set("netsim.flow_entries_max", static_cast<double>(v.measured.entries_max), "count");
    m.set("netsim.flow_entries_total", static_cast<double>(v.measured.entries_total), "count");
  }
  std::printf("# validity: gen_lag_p99=%.1fus calib=%.0fus cpu_drift=%.3f%s "
              "flow_entries=%zu app_state=%zuB\n",
              percentile(gen_lag, 99), calib, drift,
              drifted ? " (DRIFT: counted as a failure)" : "", v.measured.entries_total,
              v.measured.app_bytes);
  std::printf("# correctness: incomplete=%llu oracle_mismatches=%llu unexpected_faults=%llu "
              "surviving_black_holes=%llu drops=%llu empty_windows=%llu\n",
              static_cast<unsigned long long>(incomplete),
              static_cast<unsigned long long>(v.mismatches),
              static_cast<unsigned long long>(v.unexpected_faults),
              static_cast<unsigned long long>(v.black_holes),
              static_cast<unsigned long long>(drops),
              static_cast<unsigned long long>(empty_windows));
  rig.reset();
  return res;
}

} // namespace perfbench
