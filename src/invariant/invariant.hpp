// VeriFlow-lite network invariant checker.
//
// The paper detects byzantine SDN-App failures ("the output of the SDN-App
// violates network invariants, which can be detected using policy checkers
// [VeriFlow]"). This module provides that policy checker: it symbolically
// traces representative packets through the *installed* flow rules (without
// touching counters) and reports forwarding loops, black-holes, and
// reachability violations.
#pragma once

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "netsim/network.hpp"

namespace legosdn::invariant {

enum class InvariantKind {
  kNoLoops,      ///< no forwarding cycle for any installed rule
  kNoBlackHoles, ///< no rule forwards into a down/dangling port
  kReachability, ///< configured host pairs must remain deliverable
};

const char* to_string(InvariantKind k);

struct Violation {
  InvariantKind kind{};
  DatapathId where{};   ///< switch where the problem manifests
  std::string detail;

  std::string to_string() const;
};

/// Why a symbolic trace terminated.
enum class TraceOutcome {
  kDelivered, ///< reached a host
  kMiss,      ///< table miss (would punt to controller — not a violation)
  kDropRule,  ///< matched an explicit drop rule
  kDeadEnd,   ///< forwarded into a down link / dangling port (black-hole)
  kLooped,    ///< revisited a (switch, port) with the same header
};

struct TraceResult {
  /// Worst fate among all copies (floods fan out): loop > dead-end >
  /// drop > miss > delivered.
  TraceOutcome outcome = TraceOutcome::kMiss;
  /// Did *any* copy reach a host that accepts it? (Reachability cares about
  /// this, not about sibling copies dying on empty ports.)
  bool delivered_any = false;
  std::vector<PortLocator> path;
  DatapathId last_switch{};
};

struct ReachabilitySpec {
  MacAddress src{};
  MacAddress dst{};
};

struct InvariantConfig {
  bool check_loops = true;
  bool check_black_holes = true;
  std::vector<ReachabilitySpec> must_reach;
};

class InvariantChecker {
public:
  explicit InvariantChecker(const netsim::Network& net) : net_(net) {}

  /// Symbolically forward a header from a switch port using peek() lookups.
  TraceResult trace(PortLocator ingress, const of::PacketHeader& hdr) const;

  /// Run all configured checks over the currently installed rules.
  std::vector<Violation> check(const InvariantConfig& cfg) const;

  /// Incremental check over exactly the rules a transaction wrote
  /// (adds/modifies), the VeriFlow idea. Sound for new violations: a loop
  /// introduced by the transaction must pass through one of its rules, so
  /// tracing from those rules finds it; a new black-hole can only be one of
  /// those rules; and reachability (which old rules can lose through
  /// shadowing) is covered by the caller's global reachability diff.
  /// Pre-existing violations are never attributed. Traces walk the whole
  /// network from each written rule.
  ///
  /// `pending` says whether the mods may still be missing from the live
  /// tables (delay-buffer NetLog holds the bundle until commit; wire frames
  /// can be in flight). If so, every touched switch's table is copied and
  /// the mods applied to the copy, and traces read the copies there. If
  /// not, the live tables already hold the would-be state, and traces read
  /// them directly with nothing copied (NetLog::landed() decides).
  std::vector<Violation> check_flow_mods(const InvariantConfig& cfg,
                                         std::span<const of::FlowMod> mods,
                                         bool pending) const;

  /// Reachability-only check (used as the cheap pre-transaction baseline).
  std::vector<Violation> check_reachability_only(const InvariantConfig& cfg) const;

  /// Convenience: loops + black-holes with no reachability specs.
  std::vector<Violation> check_basic() const { return check(InvariantConfig{}); }

private:
  /// Per-switch copies of live tables with a transaction's pending mods
  /// applied on top; switches absent from it are read live.
  using Overlay = std::unordered_map<DatapathId, netsim::FlowTable>;

  TraceResult trace(PortLocator ingress, const of::PacketHeader& hdr,
                    const Overlay* overlay) const;
  void check_rules(const InvariantConfig& cfg, std::vector<Violation>& out) const;
  void check_entry(const InvariantConfig& cfg, DatapathId dpid,
                   const netsim::SimSwitch& sw, const netsim::FlowEntry& e,
                   const Overlay* overlay, std::vector<Violation>& out) const;
  void check_reachability(const InvariantConfig& cfg,
                          std::vector<Violation>& out) const;

  /// Flow table to consult for a switch: its overlay copy when `overlay`
  /// has one, otherwise the switch's live table.
  static const netsim::FlowTable& table_of(const Overlay* overlay, DatapathId dpid,
                                           const netsim::SimSwitch& sw);

  const netsim::Network& net_;
  static constexpr std::size_t kHopLimit = 128;
};

/// Synthesize a concrete header that a match would accept (wildcarded fields
/// get canonical filler values). Exposed for tests.
of::PacketHeader representative_header(const of::Match& m);

} // namespace legosdn::invariant
