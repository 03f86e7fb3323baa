// The simulated network: switches, links, hosts, and the dataplane
// forwarding engine.
//
// Control-plane plumbing:
//  - the controller's southbound calls send_to_switch();
//  - switch-originated messages (packet-in, flow-removed, port-status,
//    stats/barrier/echo replies) are delivered through the northbound
//    callback;
//  - switch liveness transitions are delivered through the switch-state
//    callback (modelling the controller noticing a broken OF connection).
//
// Dataplane: inject() walks a packet through the network hop by hop,
// applying flow tables, header-rewriting actions, floods and controller
// punts, with loop detection via a hop cap and an exact visited set
// (hop_set.hpp).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "netsim/switch.hpp"
#include "openflow/messages.hpp"

namespace legosdn::netsim {

struct Host {
  MacAddress mac{};
  IpV4 ip{};
  PortLocator attach{};
  std::uint64_t rx_packets = 0;
  std::uint64_t rx_bytes = 0;
};

struct Link {
  PortLocator a{};
  PortLocator b{};
  /// Effective state: admin_up AND both endpoint switches up. This is what
  /// the dataplane consults.
  bool up = true;
  /// Operator intent, set only by set_link_state(). A switch bounce takes
  /// attached links down and back up, but never overrides an administrative
  /// down: the link resurfaces only if admin_up is still true.
  bool admin_up = true;
};

/// Result of injecting one packet (or resuming a buffered one).
struct DeliveryResult {
  enum class Outcome { kDelivered, kDropped, kPunted, kLooped };

  Outcome outcome = Outcome::kDropped;
  std::vector<MacAddress> delivered_to; ///< hosts that received a copy
  std::size_t hops = 0;                 ///< switch traversals
  std::size_t punts = 0;                ///< packet-ins raised
  std::size_t drops = 0;                ///< copies that died
  bool looped = false;
  std::vector<PortLocator> path;        ///< ingress locators, in visit order

  bool delivered() const noexcept { return !delivered_to.empty(); }
};

class Network {
public:
  using NorthboundFn = std::function<void(const of::Message&)>;
  using SwitchStateFn = std::function<void(DatapathId, bool up)>;

  Network() = default;

  // Non-copyable: switches are identity objects.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- topology construction ---
  SimSwitch& add_switch(DatapathId dpid, std::size_t n_ports = 0);
  void add_link(PortLocator x, PortLocator y);
  Host& add_host(MacAddress mac, IpV4 ip, PortLocator attach);

  // --- canned topologies (hosts attached one per edge switch port) ---
  static std::unique_ptr<Network> linear(std::size_t n_switches,
                                         std::size_t hosts_per_switch = 1);
  static std::unique_ptr<Network> ring(std::size_t n_switches,
                                       std::size_t hosts_per_switch = 1);
  static std::unique_ptr<Network> star(std::size_t n_leaves,
                                       std::size_t hosts_per_leaf = 1);
  /// k-ary fat-tree (k even): k pods, k^2/4 core switches, k^3/4 hosts.
  /// Returns nullptr for invalid k (k < 2 or odd) — callers building from
  /// untrusted input (scenario scripts, fuzzers) must check; an assert alone
  /// would compile away under NDEBUG and hand back a corrupt topology.
  static std::unique_ptr<Network> fat_tree(std::size_t k);
  /// Random connected topology: a random spanning tree plus `extra_links`
  /// additional edges, `hosts_per_switch` hosts everywhere. Deterministic
  /// for a given seed. Returns nullptr when n_switches < 2.
  static std::unique_ptr<Network> random(std::size_t n_switches,
                                         std::size_t extra_links,
                                         std::size_t hosts_per_switch,
                                         std::uint64_t seed);

  // --- accessors ---
  SimSwitch* switch_at(DatapathId dpid);
  const SimSwitch* switch_at(DatapathId dpid) const;
  std::vector<DatapathId> switch_ids() const;
  const std::vector<Link>& links() const noexcept { return links_; }
  const std::vector<Host>& hosts() const noexcept { return hosts_; }
  Host* host_by_mac(const MacAddress& mac);
  const Host* host_by_mac(const MacAddress& mac) const;
  /// Peer of a switch port, if an up link is attached there.
  const PortLocator* link_peer(const PortLocator& loc) const;
  /// Host attached at a switch port, if any.
  const Host* host_at(const PortLocator& loc) const;
  bool link_up(const PortLocator& loc) const;

  /// Changes whenever anything a walk reads besides the flow tables
  /// changes: which switches exist, their liveness and ports, port link
  /// state, links and host attachments. It is this network's own counter
  /// plus every switch's SimSwitch::generation(), so a change made directly
  /// on a switch counts too. Each counter only grows, so an equal value
  /// means none of them moved.
  std::uint64_t topology_generation() const noexcept;

  SimClock& clock() noexcept { return clock_; }
  SimTime now() const noexcept { return clock_.now(); }

  // --- control plane ---
  void set_northbound(NorthboundFn fn) { northbound_ = std::move(fn); }
  void set_switch_state_callback(SwitchStateFn fn) { switch_state_ = std::move(fn); }

  /// Deliver a controller message to its switch. PacketOut is executed by the
  /// forwarding engine; everything else goes to SimSwitch::handle_message.
  /// Returns the result of any dataplane forwarding triggered (for PacketOut).
  DeliveryResult send_to_switch(const of::Message& msg);

  // --- dataplane ---
  /// Inject a packet from the named host into the network.
  DeliveryResult inject_from_host(const MacAddress& src_host, const of::Packet& pkt);
  /// Inject a packet arriving at a specific switch port (for tests).
  DeliveryResult inject_at(const PortLocator& ingress, const of::Packet& pkt);

  // --- failure operations ---
  void set_link_state(const PortLocator& end, bool up);
  void set_switch_state(DatapathId dpid, bool up);

  /// Advance virtual time and run flow expiry on every switch with a due
  /// deadline. A network-level lazy min-heap over each switch's earliest
  /// armed deadline (FlowTable::earliest_deadline) makes the nothing-due
  /// tick O(1) for the whole network, not O(switches). Down switches never
  /// expire flows; their heap records are discarded and re-armed on revival.
  void advance_time(std::chrono::nanoseconds delta);

  // --- global statistics ---
  struct Totals {
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0; ///< injections whose first pass reached a host
    std::uint64_t dropped = 0;
    std::uint64_t punted = 0;
    std::uint64_t looped = 0;
    /// Packets a controller PacketOut delivered to at least one host —
    /// the reactive path: buffered punt resumes and synthetic sends. A punted
    /// injection that the controller then forwards counts once under `punted`
    /// and once here; `delivered + resumed_delivered` is the end-to-end count.
    std::uint64_t resumed_delivered = 0;
  };
  const Totals& totals() const noexcept { return totals_; }
  void reset_totals() { totals_ = {}; }

private:
  struct Segment {
    DatapathId dpid{};
    PortNo in_port{};
    of::Packet pkt{};
    std::size_t hops = 0;
  };

  /// Lazy min-heap record over switch expiry deadlines; validated against
  /// armed_expiry_ on pop, so stale records cost O(log n) once.
  struct ExpiryRec {
    std::int64_t deadline = 0;
    DatapathId dpid{};
  };

  DeliveryResult forward(Segment seed);
  void emit_out(const Segment& seg, PortNo out_port, const of::Packet& pkt,
                std::vector<Segment>& work, DeliveryResult& res);
  void deliver_northbound(const of::Message& msg);
  void emit_port_status(const PortLocator& loc, bool up);
  Link* find_link(const PortLocator& end);
  /// Effective link state implied by operator intent + switch liveness.
  bool link_should_be_up(const Link& l) const;
  /// Reconcile one link's effective state, updating port descriptors and
  /// emitting port-status on a transition. Returns true if the state changed.
  bool reconcile_link(Link& l);
  /// (Re)arm the expiry heap from a switch's current earliest deadline.
  /// Called wherever a switch's flow table can gain an earlier deadline:
  /// after southbound message handling and on switch revival. Dataplane
  /// traffic only ever *extends* idle deadlines, which the lazy records
  /// already over-approximate, so the forwarding path needs no hook.
  void arm_switch_expiry(DatapathId dpid);
  /// Heap/armed-map update with expiry_mu_ already held.
  void arm_switch_expiry_locked(DatapathId dpid);

  SimClock clock_;
  std::map<DatapathId, std::unique_ptr<SimSwitch>> switches_;
  std::vector<Link> links_;
  std::unordered_map<PortLocator, std::size_t> link_index_; ///< endpoint -> links_
  std::vector<Host> hosts_;
  std::unordered_map<PortLocator, std::size_t> host_index_; ///< attach -> hosts_
  std::unordered_map<MacAddress, std::size_t> mac_index_;

  NorthboundFn northbound_;
  SwitchStateFn switch_state_;
  Totals totals_;
  /// Bumped by add_switch/add_link/add_host and by every link or port
  /// link-state change (reconcile_link, emit_port_status).
  std::uint64_t generation_ = 0;

  /// Guards the expiry heap + armed map. Sharded dispatch commits flow-mods
  /// to *different* switches concurrently (each under its own NetLog stripe),
  /// but the expiry bookkeeping is one network-wide structure.
  std::mutex expiry_mu_;
  std::vector<ExpiryRec> expiry_heap_; ///< min-heap via std::push_heap/pop_heap
  std::unordered_map<DatapathId, std::int64_t> armed_expiry_; ///< per-switch armed deadline

  static constexpr std::size_t kHopLimit = 128;
  static constexpr std::size_t kCopyLimit = 4096; ///< flood explosion guard
};

} // namespace legosdn::netsim
