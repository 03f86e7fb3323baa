#include "invariant/invariant.hpp"

#include <sstream>

#include "netsim/hop_set.hpp"

namespace legosdn::invariant {
namespace {

/// A copy of the probe at a switch ingress, waiting to be walked.
struct Item {
  PortLocator at;
  of::PacketHeader hdr;
  std::size_t hops;
};

/// One trace's working memory. Borrowed per thread (netsim::Scratch):
/// trace() is a public const method and shard lanes verify concurrently.
struct TraceScratch {
  std::vector<Item> work;
  netsim::HopSet visited;
};

/// Does the rule read its ingress port when it forwards? Only a flood does
/// (it skips that port); every other action ignores it.
bool reads_ingress(const netsim::FlowEntry& e) {
  for (const auto& a : e.actions)
    if (const auto* out = std::get_if<of::ActionOutput>(&a))
      if (out->port == ports::kFlood) return true;
  return false;
}

constexpr auto kNoHop = [](PortLocator, const netsim::FlowTable&) {};

} // namespace

const char* to_string(InvariantKind k) {
  switch (k) {
    case InvariantKind::kNoLoops: return "no-loops";
    case InvariantKind::kNoBlackHoles: return "no-black-holes";
    case InvariantKind::kReachability: return "reachability";
  }
  return "?";
}

std::string Violation::to_string() const {
  return std::string(invariant::to_string(kind)) + " @s" + std::to_string(raw(where)) +
         ": " + detail;
}

of::PacketHeader representative_header(const of::Match& m) {
  of::PacketHeader h;
  // Canonical filler for wildcarded fields; constrained fields copied over.
  h.eth_src = MacAddress::from_uint64(0x0A0000000001ULL);
  h.eth_dst = MacAddress::from_uint64(0x0A0000000002ULL);
  h.eth_type = of::kEthTypeIpv4;
  h.ip_src = IpV4::from_octets(10, 0, 0, 1);
  h.ip_dst = IpV4::from_octets(10, 0, 0, 2);
  h.ip_proto = of::kIpProtoTcp;
  h.tp_src = 12345;
  h.tp_dst = 80;
  if (!m.wildcarded(of::kWcEthSrc)) h.eth_src = m.eth_src;
  if (!m.wildcarded(of::kWcEthDst)) h.eth_dst = m.eth_dst;
  if (!m.wildcarded(of::kWcEthType)) h.eth_type = m.eth_type;
  if (!m.wildcarded(of::kWcIpSrc)) h.ip_src = m.ip_src; // network address works
  if (!m.wildcarded(of::kWcIpDst)) h.ip_dst = m.ip_dst;
  if (!m.wildcarded(of::kWcIpProto)) h.ip_proto = m.ip_proto;
  if (!m.wildcarded(of::kWcTpSrc)) h.tp_src = m.tp_src;
  if (!m.wildcarded(of::kWcTpDst)) h.tp_dst = m.tp_dst;
  return h;
}

TraceResult InvariantChecker::trace(PortLocator ingress,
                                    const of::PacketHeader& hdr) const {
  std::vector<PortLocator> path;
  TraceResult res =
      walk(ingress, hdr, nullptr,
           [&path](PortLocator at, const netsim::FlowTable&) { path.push_back(at); });
  res.path = std::move(path);
  return res;
}

template <class OnHop>
TraceResult InvariantChecker::walk(PortLocator ingress, const of::PacketHeader& hdr0,
                                   const Overlay* overlay, OnHop&& on_hop) const {
  TraceResult res;
  // Work items are copies of the packet at a switch ingress. Floods fan out;
  // the trace reports the *worst* outcome across all copies, where
  // loop > dead-end > drop-rule > miss > delivered.
  netsim::Scratch<TraceScratch> scratch;
  std::vector<Item>& work = scratch->work;
  netsim::HopSet& visited = scratch->visited;
  work.clear();
  visited.clear();
  work.push_back({ingress, hdr0, 0});
  auto worse = [](TraceOutcome a, TraceOutcome b) {
    auto rank = [](TraceOutcome o) {
      switch (o) {
        case TraceOutcome::kDelivered: return 0;
        case TraceOutcome::kMiss: return 1;
        case TraceOutcome::kDropRule: return 2;
        case TraceOutcome::kDeadEnd: return 3;
        case TraceOutcome::kLooped: return 4;
      }
      return 0;
    };
    return rank(a) >= rank(b) ? a : b;
  };
  bool any = false;
  TraceOutcome acc = TraceOutcome::kDelivered;

  while (!work.empty()) {
    const Item it = work.back();
    work.pop_back();
    if (it.hops > kHopLimit) {
      acc = worse(acc, TraceOutcome::kLooped);
      any = true;
      continue;
    }
    const netsim::SimSwitch* sw = net_.switch_at(it.at.dpid);
    if (!sw || !sw->up()) {
      acc = worse(acc, TraceOutcome::kDeadEnd);
      res.last_switch = it.at.dpid;
      any = true;
      continue;
    }
    if (!visited.insert(netsim::HopKey(it.at.dpid, it.at.port, it.hdr))) {
      acc = worse(acc, TraceOutcome::kLooped);
      res.last_switch = it.at.dpid;
      any = true;
      continue;
    }
    const netsim::FlowTable& table = table_of(overlay, it.at.dpid, *sw);
    on_hop(it.at, table);
    const netsim::FlowEntry* e = table.peek(it.at.port, it.hdr);
    if (!e) {
      acc = worse(acc, TraceOutcome::kMiss);
      res.last_switch = it.at.dpid;
      any = true;
      continue;
    }
    if (e->actions.empty()) {
      acc = worse(acc, TraceOutcome::kDropRule);
      res.last_switch = it.at.dpid;
      any = true;
      continue;
    }
    of::PacketHeader hdr = it.hdr;
    bool emitted = false;
    auto out_one = [&](PortNo p) {
      emitted = true;
      const PortLocator loc{it.at.dpid, p};
      const netsim::SwitchPort* sp = sw->port(p);
      if (!sp || !sp->desc.link_up) {
        acc = worse(acc, TraceOutcome::kDeadEnd);
        res.last_switch = it.at.dpid;
        any = true;
        return;
      }
      if (const netsim::Host* h = net_.host_at(loc)) {
        // Accepting host: genuine delivery. A NIC discard (frame not for
        // this host) is also a harmless end — flood copies do it constantly.
        if (hdr.eth_dst == h->mac || hdr.eth_dst.is_broadcast() ||
            hdr.eth_dst.is_multicast()) {
          res.delivered_any = true;
        }
        acc = worse(acc, TraceOutcome::kDelivered);
        any = true;
        return;
      }
      if (const PortLocator* peer = net_.link_peer(loc)) {
        work.push_back({*peer, hdr, it.hops + 1});
        return;
      }
      // An up port with nothing attached: the copy just falls off the wire.
      // That is a harmless drop (floods hit empty ports constantly), not a
      // black-hole — those are *down* or nonexistent ports, handled above.
      acc = worse(acc, TraceOutcome::kDropRule);
      res.last_switch = it.at.dpid;
      any = true;
    };
    for (const auto& a : e->actions) {
      if (const auto* out = std::get_if<of::ActionOutput>(&a)) {
        if (out->port == ports::kFlood) {
          for (const auto& [no, _] : sw->ports())
            if (no != it.at.port) out_one(no);
        } else if (out->port == ports::kController) {
          emitted = true;
          acc = worse(acc, TraceOutcome::kMiss); // punt: controller decides later
          any = true;
        } else if (out->port == ports::kLocal || out->port == ports::kNone) {
          emitted = true;
          acc = worse(acc, TraceOutcome::kDropRule);
          res.last_switch = it.at.dpid;
          any = true;
        } else {
          out_one(out->port);
        }
      } else {
        std::visit(
            [&](const auto& act) {
              using T = std::decay_t<decltype(act)>;
              if constexpr (std::is_same_v<T, of::ActionSetEthSrc>) hdr.eth_src = act.mac;
              else if constexpr (std::is_same_v<T, of::ActionSetEthDst>) hdr.eth_dst = act.mac;
              else if constexpr (std::is_same_v<T, of::ActionSetIpSrc>) hdr.ip_src = act.ip;
              else if constexpr (std::is_same_v<T, of::ActionSetIpDst>) hdr.ip_dst = act.ip;
              else if constexpr (std::is_same_v<T, of::ActionSetTpSrc>) hdr.tp_src = act.port;
              else if constexpr (std::is_same_v<T, of::ActionSetTpDst>) hdr.tp_dst = act.port;
            },
            a);
      }
    }
    if (!emitted) {
      acc = worse(acc, TraceOutcome::kDropRule);
      res.last_switch = it.at.dpid;
      any = true;
    }
  }
  res.outcome = any ? acc : TraceOutcome::kMiss;
  return res;
}

void InvariantChecker::check_entry(const InvariantConfig& cfg, DatapathId dpid,
                                   const netsim::SimSwitch& sw,
                                   const netsim::FlowEntry& e,
                                   const Overlay* overlay,
                                   std::vector<Violation>& out) const {
  const of::PacketHeader hdr = representative_header(e.match);
  const netsim::FlowTable& table = table_of(overlay, dpid, sw);
  // Past its first hop, a walk depends on the ingress only if the rule's
  // actions do, and only a flood's do. Any other rule sends the same copies
  // on from every ingress where it wins, and a copy that comes back to any
  // such ingress re-enters that same walk, so each of them gives the same
  // loop and dead-end verdict: the first is traced, the rest would repeat
  // it. Returns true once the rule needs no more traces.
  const bool per_ingress = reads_ingress(e);
  auto check_from = [&](PortNo in) {
    // Only trace if this entry is actually the winner for the header.
    if (table.peek(in, hdr) != &e) return false;
    const TraceResult tr = walk({dpid, in}, hdr, overlay, kNoHop);
    if (cfg.check_loops && tr.outcome == TraceOutcome::kLooped) {
      out.push_back({InvariantKind::kNoLoops, tr.last_switch,
                     "rule " + e.match.to_string() + " at s" +
                         std::to_string(raw(dpid)) + " forwards in a cycle"});
      return true; // one report per rule is enough
    }
    if (cfg.check_black_holes && tr.outcome == TraceOutcome::kDeadEnd) {
      out.push_back({InvariantKind::kNoBlackHoles, tr.last_switch,
                     "rule " + e.match.to_string() + " at s" +
                         std::to_string(raw(dpid)) + " forwards into a dead port"});
      return true;
    }
    return !per_ingress;
  };
  if (!e.match.wildcarded(of::kWcInPort)) {
    check_from(e.match.in_port);
    return;
  }
  for (const auto& [no, sp] : sw.ports())
    if (sp.desc.link_up && check_from(no)) return;
}

void InvariantChecker::check_rules(const InvariantConfig& cfg,
                                   std::vector<Violation>& out) const {
  for (const DatapathId dpid : net_.switch_ids()) {
    const netsim::SimSwitch* sw = net_.switch_at(dpid);
    if (!sw || !sw->up()) continue;
    for (const auto& e : sw->table().entries())
      check_entry(cfg, dpid, *sw, e, nullptr, out);
  }
}

const netsim::FlowTable& InvariantChecker::table_of(const Overlay* overlay,
                                                    DatapathId dpid,
                                                    const netsim::SimSwitch& sw) {
  if (overlay) {
    if (auto it = overlay->find(dpid); it != overlay->end()) return it->second;
  }
  return sw.table();
}

std::vector<Violation> InvariantChecker::check_flow_mods(
    const InvariantConfig& cfg, std::span<const of::FlowMod> mods,
    bool pending) const {
  std::vector<Violation> out;
  if (!cfg.check_loops && !cfg.check_black_holes) return out;

  // Pending mods have not reached the switches, so verify against the
  // *would-be* state: per touched switch, a copy of the live table with
  // every mod applied. Traces read the copies there and the live tables
  // elsewhere. Landed mods need no copy: the live tables are that state.
  Overlay overlay;
  if (pending) {
    for (const auto& mod : mods) {
      const netsim::SimSwitch* sw = net_.switch_at(mod.dpid);
      if (!sw || !sw->up()) continue;
      auto [it, inserted] = overlay.try_emplace(mod.dpid);
      if (inserted) {
        // FlowTable owns its classifier index and is move-only; rebuild the
        // live table entry-by-entry (restore preserves all runtime state).
        for (const auto& e : sw->table().entries()) it->second.restore(e);
      }
      it->second.apply(mod, net_.now());
    }
  }

  for (const auto& mod : mods) {
    if (mod.command == of::FlowModCommand::kDelete ||
        mod.command == of::FlowModCommand::kDeleteStrict)
      continue; // removals cannot add rule-level violations
    const netsim::SimSwitch* sw = net_.switch_at(mod.dpid);
    if (!sw || !sw->up()) continue;
    const netsim::FlowTable& table = table_of(&overlay, mod.dpid, *sw);
    // Non-strict modify touches every covered entry; re-check them all.
    if (mod.command == of::FlowModCommand::kModify) {
      for (const auto& e : table.entries()) {
        if (mod.match.subsumes(e.match))
          check_entry(cfg, mod.dpid, *sw, e, &overlay, out);
      }
      continue;
    }
    if (const netsim::FlowEntry* e = table.find_strict(mod.match, mod.priority)) {
      check_entry(cfg, mod.dpid, *sw, *e, &overlay, out);
    }
  }
  return out;
}

template <class OnHop>
std::optional<Violation> InvariantChecker::reach(const ReachabilitySpec& spec,
                                                 OnHop&& on_hop) const {
  const netsim::Host* src = net_.host_by_mac(spec.src);
  const netsim::Host* dst = net_.host_by_mac(spec.dst);
  if (!src || !dst) {
    return Violation{InvariantKind::kReachability, DatapathId{0},
                     "reachability spec references unknown host"};
  }
  of::PacketHeader hdr;
  hdr.eth_src = src->mac;
  hdr.eth_dst = dst->mac;
  hdr.eth_type = of::kEthTypeIpv4;
  hdr.ip_src = src->ip;
  hdr.ip_dst = dst->ip;
  hdr.ip_proto = of::kIpProtoTcp;
  hdr.tp_src = 10000;
  hdr.tp_dst = 80;
  const TraceResult tr = walk(src->attach, hdr, nullptr, on_hop);
  // A miss means the controller still gets a say, so it is not a violation.
  // Delivery by any copy satisfies the pair even if sibling flood copies
  // died on empty ports. Otherwise loops, black-holes and drops count.
  if (tr.delivered_any ||
      (tr.outcome != TraceOutcome::kLooped && tr.outcome != TraceOutcome::kDeadEnd &&
       tr.outcome != TraceOutcome::kDropRule))
    return std::nullopt;
  std::ostringstream os;
  os << spec.src.to_string() << " -> " << spec.dst.to_string()
     << " broken (outcome="
     << (tr.outcome == TraceOutcome::kLooped     ? "loop"
         : tr.outcome == TraceOutcome::kDeadEnd ? "black-hole"
                                                : "drop-rule")
     << ")";
  return Violation{InvariantKind::kReachability, tr.last_switch, os.str()};
}

std::vector<Violation> InvariantChecker::check_reachability_only(
    const InvariantConfig& cfg) const {
  std::vector<Violation> out;
  check_reachability(cfg, out);
  return out;
}

bool ReachabilityMemo::Pair::fresh(const ReachabilitySpec& s,
                                   std::uint64_t topo) const noexcept {
  if (!valid || s.src != spec.src || s.dst != spec.dst || topo != topology)
    return false;
  for (const auto& [table, gen] : tables)
    if (table->generation() != gen) return false;
  return true;
}

std::vector<Violation> InvariantChecker::check_reachability_only(
    const InvariantConfig& cfg, ReachabilityMemo& memo) const {
  std::vector<Violation> out;
  if (cfg.must_reach.empty()) return out;
  const std::uint64_t topology = net_.topology_generation();
  memo.pairs_.resize(cfg.must_reach.size());
  for (std::size_t i = 0; i < cfg.must_reach.size(); ++i) {
    const ReachabilitySpec& spec = cfg.must_reach[i];
    ReachabilityMemo::Pair& pair = memo.pairs_[i];
    if (pair.fresh(spec, topology)) {
      memo.stats_.hits += 1;
    } else {
      memo.stats_.retraces += 1;
      pair.valid = true;
      pair.spec = spec;
      pair.topology = topology;
      pair.tables.clear();
      pair.violation = reach(spec, [&pair](PortLocator, const netsim::FlowTable& t) {
        for (const auto& [seen, _] : pair.tables)
          if (seen == &t) return;
        pair.tables.emplace_back(&t, t.generation());
      });
    }
    if (pair.violation) out.push_back(*pair.violation);
  }
  return out;
}

void InvariantChecker::check_reachability(const InvariantConfig& cfg,
                                          std::vector<Violation>& out) const {
  for (const auto& spec : cfg.must_reach)
    if (auto v = reach(spec, kNoHop)) out.push_back(std::move(*v));
}

std::vector<Violation> InvariantChecker::check(const InvariantConfig& cfg) const {
  std::vector<Violation> out;
  if (cfg.check_loops || cfg.check_black_holes) check_rules(cfg, out);
  check_reachability(cfg, out);
  return out;
}

} // namespace legosdn::invariant
