#include "netsim/network.hpp"

#include <algorithm>
#include <cassert>

#include "common/log.hpp"
#include "netsim/hop_set.hpp"

namespace legosdn::netsim {
namespace {

/// Apply a header-rewriting action to a packet copy.
void apply_set_field(const of::Action& a, of::Packet& pkt) {
  std::visit(
      [&](const auto& act) {
        using T = std::decay_t<decltype(act)>;
        if constexpr (std::is_same_v<T, of::ActionSetEthSrc>) {
          pkt.hdr.eth_src = act.mac;
        } else if constexpr (std::is_same_v<T, of::ActionSetEthDst>) {
          pkt.hdr.eth_dst = act.mac;
        } else if constexpr (std::is_same_v<T, of::ActionSetIpSrc>) {
          pkt.hdr.ip_src = act.ip;
        } else if constexpr (std::is_same_v<T, of::ActionSetIpDst>) {
          pkt.hdr.ip_dst = act.ip;
        } else if constexpr (std::is_same_v<T, of::ActionSetTpSrc>) {
          pkt.hdr.tp_src = act.port;
        } else if constexpr (std::is_same_v<T, of::ActionSetTpDst>) {
          pkt.hdr.tp_dst = act.port;
        }
      },
      a);
}

} // namespace

SimSwitch& Network::add_switch(DatapathId dpid, std::size_t n_ports) {
  auto [it, inserted] = switches_.try_emplace(dpid, std::make_unique<SimSwitch>(dpid));
  assert(inserted && "duplicate dpid");
  for (std::size_t i = 1; i <= n_ports; ++i) it->second->add_port(PortNo{static_cast<std::uint16_t>(i)});
  ++generation_;
  return *it->second;
}

void Network::add_link(PortLocator x, PortLocator y) {
  assert(switch_at(x.dpid) && switch_at(x.dpid)->has_port(x.port));
  assert(switch_at(y.dpid) && switch_at(y.dpid)->has_port(y.port));
  links_.push_back({x, y, true});
  link_index_[x] = links_.size() - 1;
  link_index_[y] = links_.size() - 1;
  ++generation_;
}

Host& Network::add_host(MacAddress mac, IpV4 ip, PortLocator attach) {
  assert(switch_at(attach.dpid) && switch_at(attach.dpid)->has_port(attach.port));
  hosts_.push_back({mac, ip, attach, 0, 0});
  host_index_[attach] = hosts_.size() - 1;
  mac_index_[mac] = hosts_.size() - 1;
  ++generation_;
  return hosts_.back();
}

SimSwitch* Network::switch_at(DatapathId dpid) {
  auto it = switches_.find(dpid);
  return it == switches_.end() ? nullptr : it->second.get();
}

const SimSwitch* Network::switch_at(DatapathId dpid) const {
  auto it = switches_.find(dpid);
  return it == switches_.end() ? nullptr : it->second.get();
}

std::vector<DatapathId> Network::switch_ids() const {
  std::vector<DatapathId> out;
  out.reserve(switches_.size());
  for (const auto& [id, _] : switches_) out.push_back(id);
  return out;
}

Host* Network::host_by_mac(const MacAddress& mac) {
  auto it = mac_index_.find(mac);
  return it == mac_index_.end() ? nullptr : &hosts_[it->second];
}

const Host* Network::host_by_mac(const MacAddress& mac) const {
  auto it = mac_index_.find(mac);
  return it == mac_index_.end() ? nullptr : &hosts_[it->second];
}

const PortLocator* Network::link_peer(const PortLocator& loc) const {
  auto it = link_index_.find(loc);
  if (it == link_index_.end()) return nullptr;
  const Link& l = links_[it->second];
  if (!l.up) return nullptr;
  return l.a == loc ? &l.b : &l.a;
}

const Host* Network::host_at(const PortLocator& loc) const {
  auto it = host_index_.find(loc);
  return it == host_index_.end() ? nullptr : &hosts_[it->second];
}

bool Network::link_up(const PortLocator& loc) const {
  auto it = link_index_.find(loc);
  return it != link_index_.end() && links_[it->second].up;
}

std::uint64_t Network::topology_generation() const noexcept {
  std::uint64_t g = generation_;
  for (const auto& [_, sw] : switches_) g += sw->generation();
  return g;
}

Link* Network::find_link(const PortLocator& end) {
  auto it = link_index_.find(end);
  return it == link_index_.end() ? nullptr : &links_[it->second];
}

void Network::deliver_northbound(const of::Message& msg) {
  if (northbound_) northbound_(msg);
}

DeliveryResult Network::send_to_switch(const of::Message& msg) {
  DeliveryResult res;
  // PacketOut drives the forwarding engine directly.
  if (const auto* po = msg.get_if<of::PacketOut>()) {
    SimSwitch* sw = switch_at(po->dpid);
    if (!sw || !sw->up()) {
      res.drops = 1;
      return res;
    }
    of::Packet pkt = po->packet;
    PortNo in_port = po->in_port;
    if (po->buffer_id != of::PacketIn::kNoBuffer) {
      auto buffered = sw->take_buffered(po->buffer_id);
      if (!buffered) {
        deliver_northbound({msg.xid, of::OfError{po->dpid, of::OfErrorType::kBadRequest,
                                                 1, "unknown buffer"}});
        res.drops = 1;
        return res;
      }
      in_port = buffered->first;
      pkt = buffered->second;
    }
    Segment seg{po->dpid, in_port, pkt, 0};
    // Apply the packet-out action list at the origin switch.
    std::vector<Segment> work;
    for (const auto& a : po->actions) {
      if (const auto* out = std::get_if<of::ActionOutput>(&a)) {
        emit_out(seg, out->port, seg.pkt, work, res);
      } else {
        apply_set_field(a, seg.pkt);
      }
    }
    // Continue forwarding any copies that entered neighbouring switches.
    for (auto& s : work) {
      DeliveryResult sub = forward(std::move(s));
      res.delivered_to.insert(res.delivered_to.end(), sub.delivered_to.begin(),
                              sub.delivered_to.end());
      res.hops += sub.hops;
      res.punts += sub.punts;
      res.drops += sub.drops;
      res.looped = res.looped || sub.looped;
      res.path.insert(res.path.end(), sub.path.begin(), sub.path.end());
    }
    res.outcome = res.delivered() ? DeliveryResult::Outcome::kDelivered
                  : res.looped    ? DeliveryResult::Outcome::kLooped
                  : res.punts     ? DeliveryResult::Outcome::kPunted
                                  : DeliveryResult::Outcome::kDropped;
    // Controller-driven deliveries (buffered punt resumes, synthetic sends)
    // are the reactive path; without this the punt-then-forward flow never
    // shows up in delivery totals.
    if (res.delivered()) totals_.resumed_delivered += 1;
    return res;
  }

  DatapathId target{};
  bool have_target = false;
  std::visit(
      [&](const auto& m) {
        if constexpr (requires { m.dpid; }) {
          target = m.dpid;
          have_target = true;
        }
      },
      msg.body);
  if (!have_target) return res;
  SimSwitch* sw = switch_at(target);
  if (!sw) return res;
  std::vector<of::Message> replies;
  sw->handle_message(msg, clock_.now(), replies);
  // A flow-mod may have armed a new (earlier) timeout deadline.
  arm_switch_expiry(target);
  for (const auto& r : replies) deliver_northbound(r);
  return res;
}

DeliveryResult Network::inject_from_host(const MacAddress& src_host,
                                         const of::Packet& pkt) {
  const Host* h = host_by_mac(src_host);
  assert(h && "unknown host");
  return inject_at(h->attach, pkt);
}

DeliveryResult Network::inject_at(const PortLocator& ingress, const of::Packet& pkt) {
  totals_.injected += 1;
  DeliveryResult res = forward({ingress.dpid, ingress.port, pkt, 0});
  res.outcome = res.delivered() ? DeliveryResult::Outcome::kDelivered
                : res.looped    ? DeliveryResult::Outcome::kLooped
                : res.punts     ? DeliveryResult::Outcome::kPunted
                                : DeliveryResult::Outcome::kDropped;
  switch (res.outcome) {
    case DeliveryResult::Outcome::kDelivered: totals_.delivered += 1; break;
    case DeliveryResult::Outcome::kDropped: totals_.dropped += 1; break;
    case DeliveryResult::Outcome::kPunted: totals_.punted += 1; break;
    case DeliveryResult::Outcome::kLooped: totals_.looped += 1; break;
  }
  return res;
}

void Network::emit_out(const Segment& seg, PortNo out_port, const of::Packet& pkt,
                       std::vector<Segment>& work, DeliveryResult& res) {
  SimSwitch* sw = switch_at(seg.dpid);
  if (!sw) return;
  auto transmit_one = [&](PortNo p) {
    SwitchPort* sp = sw->port(p);
    if (!sp || !sp->desc.link_up) {
      if (sp) sp->drops += 1;
      res.drops += 1;
      return;
    }
    sp->tx_packets += 1;
    sp->tx_bytes += pkt.size_bytes;
    const PortLocator loc{seg.dpid, p};
    if (const Host* h = host_at(loc)) {
      // Hosts accept frames addressed to them, broadcast, or multicast.
      if (pkt.hdr.eth_dst == h->mac || pkt.hdr.eth_dst.is_broadcast() ||
          pkt.hdr.eth_dst.is_multicast()) {
        auto& mut = hosts_[host_index_.at(loc)];
        mut.rx_packets += 1;
        mut.rx_bytes += pkt.size_bytes;
        res.delivered_to.push_back(h->mac);
      } else {
        res.drops += 1; // NIC filters a frame not addressed to it
      }
      return;
    }
    if (const PortLocator* peer = link_peer(loc)) {
      work.push_back({peer->dpid, peer->port, pkt, seg.hops + 1});
      return;
    }
    res.drops += 1; // nothing attached
  };

  if (out_port == ports::kFlood) {
    for (const auto& [no, _] : sw->ports()) {
      if (no != seg.in_port) transmit_one(no);
    }
  } else if (out_port == ports::kController) {
    const std::uint32_t buf = sw->buffer_packet(seg.in_port, pkt);
    of::PacketIn pin;
    pin.dpid = seg.dpid;
    pin.buffer_id = buf;
    pin.in_port = seg.in_port;
    pin.reason = of::PacketInReason::kAction;
    pin.packet = pkt;
    res.punts += 1;
    deliver_northbound({0, pin});
  } else if (out_port == ports::kLocal || out_port == ports::kNone) {
    res.drops += 1;
  } else {
    transmit_one(out_port);
  }
}

DeliveryResult Network::forward(Segment seed) {
  DeliveryResult res;
  std::vector<Segment> work;
  work.push_back(std::move(seed));
  Scratch<HopSet> visited;
  visited->clear();
  std::size_t copies = 0;

  while (!work.empty()) {
    Segment seg = std::move(work.back());
    work.pop_back();
    if (++copies > kCopyLimit || seg.hops > kHopLimit) {
      res.looped = true;
      break;
    }
    SimSwitch* sw = switch_at(seg.dpid);
    if (!sw || !sw->up()) {
      res.drops += 1;
      continue;
    }
    // Loop detection: the same header entering the same port twice means the
    // rules cycle (learning floods revisit switches but on different ports).
    if (!visited->insert(HopKey(seg.dpid, seg.in_port, seg.pkt.hdr))) {
      res.looped = true;
      res.drops += 1;
      continue;
    }
    res.path.push_back({seg.dpid, seg.in_port});
    res.hops += 1;
    if (SwitchPort* sp = sw->port(seg.in_port)) {
      sp->rx_packets += 1;
      sp->rx_bytes += seg.pkt.size_bytes;
    }
    const FlowEntry* entry = sw->table().match_packet(seg.in_port, seg.pkt.hdr,
                                                      seg.pkt.size_bytes, clock_.now());
    if (!entry) {
      // Table miss: buffer the packet and punt to the controller.
      const std::uint32_t buf = sw->buffer_packet(seg.in_port, seg.pkt);
      of::PacketIn pin;
      pin.dpid = seg.dpid;
      pin.buffer_id = buf;
      pin.in_port = seg.in_port;
      pin.reason = of::PacketInReason::kNoMatch;
      pin.packet = seg.pkt;
      res.punts += 1;
      deliver_northbound({0, pin});
      continue;
    }
    if (entry->actions.empty()) {
      res.drops += 1; // explicit drop rule
      continue;
    }
    of::Packet pkt = seg.pkt;
    for (const auto& a : entry->actions) {
      if (const auto* out = std::get_if<of::ActionOutput>(&a)) {
        emit_out(seg, out->port, pkt, work, res);
      } else {
        apply_set_field(a, pkt);
      }
    }
  }
  return res;
}

void Network::emit_port_status(const PortLocator& loc, bool up) {
  SimSwitch* sw = switch_at(loc.dpid);
  if (!sw || !sw->up()) return; // dead switches report nothing
  SwitchPort* sp = sw->port(loc.port);
  if (!sp) return;
  sp->desc.link_up = up;
  ++generation_;
  of::PortStatus ps;
  ps.dpid = loc.dpid;
  ps.reason = of::PortReason::kModify;
  ps.desc = sp->desc;
  deliver_northbound({0, ps});
}

bool Network::link_should_be_up(const Link& l) const {
  if (!l.admin_up) return false;
  const SimSwitch* sa = switch_at(l.a.dpid);
  const SimSwitch* sb = switch_at(l.b.dpid);
  return sa && sa->up() && sb && sb->up();
}

bool Network::reconcile_link(Link& l) {
  const bool eff = link_should_be_up(l);
  if (l.up == eff) return false;
  l.up = eff;
  ++generation_;
  for (const PortLocator& end : {l.a, l.b}) {
    SimSwitch* sw = switch_at(end.dpid);
    if (!sw) continue;
    if (sw->up()) {
      emit_port_status(end, eff);
    } else if (SwitchPort* sp = sw->port(end.port)) {
      sp->desc.link_up = eff; // dead switches update silently
    }
  }
  return true;
}

void Network::set_link_state(const PortLocator& end, bool up) {
  Link* l = find_link(end);
  if (!l) return;
  l->admin_up = up;
  reconcile_link(*l);
}

void Network::set_switch_state(DatapathId dpid, bool up) {
  SimSwitch* sw = switch_at(dpid);
  if (!sw || sw->up() == up) return;
  if (up) {
    sw->cold_restart();
    sw->set_up(true);
    // The cold restart cleared the table; retire any armed deadline so
    // stale heap records from the pre-crash life are skipped on pop.
    arm_switch_expiry(dpid);
  } else {
    sw->set_up(false);
  }
  // Attached links follow switch liveness, but administrative downs stick: a
  // bounce restores only links that were admin-up before (or during) the
  // outage, and only if the far endpoint is itself alive.
  for (auto& l : links_) {
    if (l.a.dpid != dpid && l.b.dpid != dpid) continue;
    reconcile_link(l);
  }
  if (switch_state_) switch_state_(dpid, up);
}

namespace {

/// Min-heap order for std::push_heap/pop_heap: earliest deadline first,
/// ties broken by dpid so multi-switch expiry waves stay deterministic.
bool expiry_rec_after(const std::int64_t da, const DatapathId a,
                      const std::int64_t db, const DatapathId b) noexcept {
  return da > db || (da == db && raw(a) > raw(b));
}

} // namespace

void Network::arm_switch_expiry(DatapathId dpid) {
  std::lock_guard<std::mutex> lk(expiry_mu_);
  arm_switch_expiry_locked(dpid);
}

void Network::arm_switch_expiry_locked(DatapathId dpid) {
  const SimSwitch* sw = switch_at(dpid);
  if (!sw) return;
  const std::int64_t dl = sw->table().earliest_deadline();
  if (dl == FlowTable::kNoDeadline) {
    // Nothing armed any more; any heap record left behind goes stale and is
    // skipped on pop (its armed_expiry_ entry no longer matches).
    armed_expiry_.erase(dpid);
    return;
  }
  const auto it = armed_expiry_.find(dpid);
  if (it != armed_expiry_.end() && it->second <= dl) return; // already due first
  armed_expiry_[dpid] = dl;
  expiry_heap_.push_back({dl, dpid});
  std::push_heap(expiry_heap_.begin(), expiry_heap_.end(),
                 [](const ExpiryRec& a, const ExpiryRec& b) {
                   return expiry_rec_after(a.deadline, a.dpid, b.deadline, b.dpid);
                 });
}

void Network::advance_time(std::chrono::nanoseconds delta) {
  clock_.advance_by(delta);
  const std::int64_t now_ns = raw(clock_.now());
  std::vector<of::Message> out;
  {
    std::lock_guard<std::mutex> lk(expiry_mu_);
    // The heap front is the earliest armed deadline network-wide (possibly an
    // over-approximation from a refreshed idle clock, never an under-one), so
    // the idle tick is a single comparison regardless of switch count.
    if (expiry_heap_.empty() || expiry_heap_.front().deadline > now_ns) return;
    const auto heap_cmp = [](const ExpiryRec& a, const ExpiryRec& b) {
      return expiry_rec_after(a.deadline, a.dpid, b.deadline, b.dpid);
    };
    while (!expiry_heap_.empty() && expiry_heap_.front().deadline <= now_ns) {
      std::pop_heap(expiry_heap_.begin(), expiry_heap_.end(), heap_cmp);
      const ExpiryRec rec = expiry_heap_.back();
      expiry_heap_.pop_back();
      const auto it = armed_expiry_.find(rec.dpid);
      if (it == armed_expiry_.end() || it->second != rec.deadline)
        continue; // stale: superseded by an earlier arm or a cold restart
      armed_expiry_.erase(it);
      SimSwitch* sw = switch_at(rec.dpid);
      if (!sw) continue;
      if (!sw->up()) continue; // down switches don't expire; re-armed on revival
      sw->expire_flows(clock_.now(), out);
      arm_switch_expiry_locked(rec.dpid); // next deadline, if any remain
    }
  }
  for (const auto& m : out) deliver_northbound(m);
}

// ---------------------------------------------------------------------------
// Canned topologies
// ---------------------------------------------------------------------------

namespace {

MacAddress host_mac(std::size_t i) {
  return MacAddress::from_uint64(0x0A0000000000ULL + i + 1);
}

IpV4 host_ip(std::size_t i) {
  return IpV4{IpV4::from_octets(10, 0, 0, 0).addr + static_cast<std::uint32_t>(i) + 1};
}

} // namespace

std::unique_ptr<Network> Network::linear(std::size_t n, std::size_t hosts_per_switch) {
  auto net = std::make_unique<Network>();
  // Ports: 1..hosts_per_switch for hosts, then left/right trunk ports.
  const auto left = PortNo{static_cast<std::uint16_t>(hosts_per_switch + 1)};
  const auto right = PortNo{static_cast<std::uint16_t>(hosts_per_switch + 2)};
  for (std::size_t i = 0; i < n; ++i)
    net->add_switch(DatapathId{i + 1}, hosts_per_switch + 2);
  for (std::size_t i = 0; i + 1 < n; ++i)
    net->add_link({DatapathId{i + 1}, right}, {DatapathId{i + 2}, left});
  std::size_t h = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < hosts_per_switch; ++j, ++h) {
      net->add_host(host_mac(h), host_ip(h),
                    {DatapathId{i + 1}, PortNo{static_cast<std::uint16_t>(j + 1)}});
    }
  }
  return net;
}

std::unique_ptr<Network> Network::ring(std::size_t n, std::size_t hosts_per_switch) {
  auto net = linear(n, hosts_per_switch);
  if (n >= 3) {
    const auto left = PortNo{static_cast<std::uint16_t>(hosts_per_switch + 1)};
    const auto right = PortNo{static_cast<std::uint16_t>(hosts_per_switch + 2)};
    net->add_link({DatapathId{n}, right}, {DatapathId{1}, left});
  }
  return net;
}

std::unique_ptr<Network> Network::star(std::size_t n_leaves, std::size_t hosts_per_leaf) {
  auto net = std::make_unique<Network>();
  const DatapathId core{1};
  net->add_switch(core, n_leaves);
  std::size_t h = 0;
  for (std::size_t i = 0; i < n_leaves; ++i) {
    const DatapathId leaf{i + 2};
    net->add_switch(leaf, hosts_per_leaf + 1);
    const auto up = PortNo{static_cast<std::uint16_t>(hosts_per_leaf + 1)};
    net->add_link({leaf, up}, {core, PortNo{static_cast<std::uint16_t>(i + 1)}});
    for (std::size_t j = 0; j < hosts_per_leaf; ++j, ++h) {
      net->add_host(host_mac(h), host_ip(h),
                    {leaf, PortNo{static_cast<std::uint16_t>(j + 1)}});
    }
  }
  return net;
}

std::unique_ptr<Network> Network::fat_tree(std::size_t k) {
  if (k < 2 || k % 2 != 0) return nullptr; // real error path: assert is a
                                           // no-op under NDEBUG and a corrupt
                                           // topology is worse than none
  auto net = std::make_unique<Network>();
  const std::size_t half = k / 2;
  const std::size_t n_core = half * half;
  // Dpid layout: cores 1..n_core, then per pod: aggs, then edges.
  auto core_id = [&](std::size_t i) { return DatapathId{1 + i}; };
  auto agg_id = [&](std::size_t pod, std::size_t i) {
    return DatapathId{1 + n_core + pod * k + i};
  };
  auto edge_id = [&](std::size_t pod, std::size_t i) {
    return DatapathId{1 + n_core + pod * k + half + i};
  };
  for (std::size_t i = 0; i < n_core; ++i) net->add_switch(core_id(i), k);
  for (std::size_t pod = 0; pod < k; ++pod) {
    for (std::size_t i = 0; i < half; ++i) {
      net->add_switch(agg_id(pod, i), k);
      net->add_switch(edge_id(pod, i), k);
    }
    // edge <-> agg full mesh inside the pod
    for (std::size_t e = 0; e < half; ++e) {
      for (std::size_t a = 0; a < half; ++a) {
        net->add_link({edge_id(pod, e), PortNo{static_cast<std::uint16_t>(half + a + 1)}},
                      {agg_id(pod, a), PortNo{static_cast<std::uint16_t>(e + 1)}});
      }
    }
    // agg <-> core
    for (std::size_t a = 0; a < half; ++a) {
      for (std::size_t c = 0; c < half; ++c) {
        const std::size_t core_idx = a * half + c;
        net->add_link({agg_id(pod, a), PortNo{static_cast<std::uint16_t>(half + c + 1)}},
                      {core_id(core_idx), PortNo{static_cast<std::uint16_t>(pod + 1)}});
      }
    }
  }
  // hosts on edge switches
  std::size_t h = 0;
  for (std::size_t pod = 0; pod < k; ++pod) {
    for (std::size_t e = 0; e < half; ++e) {
      for (std::size_t p = 0; p < half; ++p, ++h) {
        net->add_host(host_mac(h), host_ip(h),
                      {edge_id(pod, e), PortNo{static_cast<std::uint16_t>(p + 1)}});
      }
    }
  }
  return net;
}

std::unique_ptr<Network> Network::random(std::size_t n_switches,
                                         std::size_t extra_links,
                                         std::size_t hosts_per_switch,
                                         std::uint64_t seed) {
  if (n_switches < 2) return nullptr;
  auto net = std::make_unique<Network>();
  Rng rng(seed);
  // Ports 1..hosts_per_switch host hosts; trunk ports are allocated on
  // demand starting just above them.
  std::vector<std::uint16_t> next_trunk(n_switches,
                                        static_cast<std::uint16_t>(hosts_per_switch + 1));
  const std::size_t max_trunks = n_switches - 1 + extra_links;
  for (std::size_t i = 0; i < n_switches; ++i)
    net->add_switch(DatapathId{i + 1}, hosts_per_switch + max_trunks);

  auto connect = [&](std::size_t a, std::size_t b) {
    const PortLocator pa{DatapathId{a + 1}, PortNo{next_trunk[a]++}};
    const PortLocator pb{DatapathId{b + 1}, PortNo{next_trunk[b]++}};
    net->add_link(pa, pb);
  };
  // Random spanning tree: attach each new switch to a random earlier one.
  for (std::size_t i = 1; i < n_switches; ++i) connect(rng.below(i), i);
  // Extra edges between distinct pairs (duplicates allowed: parallel paths).
  for (std::size_t e = 0; e < extra_links; ++e) {
    const std::size_t a = rng.below(n_switches);
    std::size_t b = rng.below(n_switches);
    while (b == a) b = rng.below(n_switches);
    connect(a, b);
  }
  std::size_t h = 0;
  for (std::size_t i = 0; i < n_switches; ++i) {
    for (std::size_t j = 0; j < hosts_per_switch; ++j, ++h) {
      net->add_host(host_mac(h), host_ip(h),
                    {DatapathId{i + 1}, PortNo{static_cast<std::uint16_t>(j + 1)}});
    }
  }
  return net;
}

} // namespace legosdn::netsim
