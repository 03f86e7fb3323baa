// Switch flow table with OpenFlow 1.0 semantics.
//
// This is the state machine whose invertibility NetLog depends on, so the
// semantics are implemented carefully:
//  - lookup returns the highest-priority matching entry (ties broken by
//    insertion order, deterministically);
//  - ADD replaces an entry with identical match+priority (resetting counters);
//  - MODIFY / DELETE apply to all entries *covered by* the given match,
//    the STRICT variants only to the entry with identical match+priority;
//  - DELETE honours the out_port filter;
//  - idle and hard timeouts expire entries and emit flow-removed records.
//
// Internally the table is a two-tier classifier (see DESIGN.md §4.3):
//  - the *exact tier* holds fully-specified entries (no wildcard bits, /32
//    prefixes) in a hash index, so the common learning-switch workload gets
//    O(1) lookups;
//  - the *wildcard tier* is a tuple-space search: entries are grouped by
//    their mask tuple (wildcard bits + effective IP prefix lengths) and
//    hashed on their masked field values within each group, so a lookup is
//    one hash probe per tuple group — scanned in descending max-priority
//    order with early exit — instead of a scan over every wildcard rule.
// A strict-identity hash index makes find_strict / restore / ADD-replace
// O(1), a lazy min-heap over expiry deadlines makes expire() O(1) when
// nothing is due, and the state digest is maintained incrementally (XOR-fold
// updated on add/remove/counter-touch) instead of re-encoding the table.
//
// Observable behavior is byte-identical to the pre-index flat-vector code,
// which survives as ReferenceFlowTable (reference_flow_table.hpp) — the
// oracle for the differential property test (tests/flow_table_diff_test.cpp).
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "openflow/messages.hpp"

namespace legosdn::netsim {

struct FlowEntry {
  of::Match match{};
  std::uint16_t priority = 0x8000;
  std::uint64_t cookie = 0;
  std::uint16_t idle_timeout = 0; ///< seconds; 0 = never
  std::uint16_t hard_timeout = 0; ///< seconds; 0 = never
  bool send_flow_removed = false;
  of::ActionList actions;

  // Mutable runtime state.
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
  SimTime install_time{kSimStart};
  SimTime last_used{kSimStart};
  std::uint64_t seq = 0; ///< insertion order, assigned by the table

  bool operator==(const FlowEntry&) const = default;

  /// Same identity in the flow table (strict match semantics).
  bool same_flow(const of::Match& m, std::uint16_t prio) const {
    return priority == prio && match == m;
  }

  bool outputs_to(PortNo port) const;
};

/// Outcome of applying a FlowMod; before-images feed NetLog's undo log.
struct FlowModResult {
  bool ok = true;
  std::string error;                 ///< set when !ok (e.g. overlap check)
  std::vector<FlowEntry> added;      ///< entries newly installed
  std::vector<FlowEntry> removed;    ///< full before-images of removed entries
  std::vector<FlowEntry> modified;   ///< before-images of modified entries
};

/// Do two matches overlap (can a single packet match both)? Shared by the
/// indexed table and the reference oracle so ADD+check_overlap agrees.
bool match_overlaps(const of::Match& a, const of::Match& b);

class FlowTable {
public:
  /// Apply a flow-mod at virtual time `now`.
  FlowModResult apply(const of::FlowMod& mod, SimTime now);

  /// Dataplane lookup. Updates counters of the hit entry.
  /// Returns nullptr on table miss.
  const FlowEntry* match_packet(PortNo in_port, const of::PacketHeader& hdr,
                                std::uint32_t bytes, SimTime now);

  /// Lookup without touching counters (used by the invariant checker).
  const FlowEntry* peek(PortNo in_port, const of::PacketHeader& hdr) const;

  /// Remove timed-out entries; returns their before-images together with the
  /// expiry reason so the switch can emit flow-removed messages.
  struct Expired {
    FlowEntry entry;
    of::FlowRemovedReason reason;
  };
  std::vector<Expired> expire(SimTime now);

  /// O(1) check whether expire(now) could remove anything; lets callers on
  /// the time-advance path skip the call entirely. May report true for
  /// entries whose idle clock was refreshed since their deadline was armed
  /// (expire() then just re-arms them), never false for a genuinely due one.
  bool has_pending_expiry(SimTime now) const noexcept {
    return !heap_.empty() && heap_.front().deadline <= raw(now);
  }

  /// Sentinel returned by earliest_deadline() when no entry has a timeout.
  static constexpr std::int64_t kNoDeadline =
      std::numeric_limits<std::int64_t>::max();

  /// Earliest armed expiry deadline (raw nanoseconds), or kNoDeadline.
  /// Conservative the same way has_pending_expiry is: it may report an
  /// already-refreshed idle deadline (expire() then just re-arms), never a
  /// deadline later than the genuine earliest one. Lets Network keep a
  /// cross-switch expiry heap so idle ticks are O(1) network-wide.
  std::int64_t earliest_deadline() const noexcept {
    return heap_.empty() ? kNoDeadline : heap_.front().deadline;
  }

  /// Reinstall an entry preserving all runtime state (counters, timestamps).
  /// Used by NetLog rollback; replaces any entry with the same match+priority.
  void restore(const FlowEntry& entry);

  /// Find the entry with identical match+priority.
  const FlowEntry* find_strict(const of::Match& m, std::uint16_t priority) const;

  const std::vector<FlowEntry>& entries() const noexcept { return entries_; }
  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }
  void clear() noexcept;

  /// Full-state snapshot/restore; equality of snapshots defines "identical
  /// network state" in the rollback property tests.
  std::vector<FlowEntry> snapshot() const { return entries_; }
  void restore_snapshot(std::vector<FlowEntry> snap);

  /// Deterministic state digest (order-insensitive) for fast comparison.
  /// Maintained incrementally; equals the reference full re-encode exactly.
  std::uint64_t digest() const noexcept { return digest_acc_; }

  /// Structure-only digest over (match, priority, cookie, actions) — the
  /// fields NetLog's inverses restore exactly. Unlike digest() it ignores
  /// counters, timestamps and timeouts, so it is stable across rollback
  /// (inverse ADDs carry *remaining* timeouts and fresh install times) and
  /// suits cheap pre/post-transaction comparison. Also O(1).
  std::uint64_t logical_digest() const noexcept { return logical_acc_; }

  /// Bumped by every structural change: add (an identical re-add too, since
  /// it takes a new insertion seq), modify, delete, expiry, restore,
  /// restore_snapshot and clear. Never by peek(), match_packet() or other
  /// counter updates. A walk that peeked this table may reuse its result
  /// for as long as this has not changed.
  std::uint64_t generation() const noexcept { return generation_; }

private:
  static constexpr std::int64_t kNeverExpires = kNoDeadline;
  static constexpr std::uint32_t kNpos = 0xFFFFFFFFu;

  /// Per-entry bookkeeping, parallel to entries_.
  struct Meta {
    std::uint64_t full_hash = 0;    ///< per-entry term of digest()
    std::uint64_t static_fnv = 0;   ///< FNV midstate after the static fields
    std::uint64_t logical_hash = 0; ///< per-entry term of logical_digest()
    std::int64_t armed_deadline = kNeverExpires; ///< deadline in the heap
    bool exact = false;             ///< exact tier (vs wildcard tier)
  };

  /// Lazy min-heap record; validated against Meta::armed_deadline on pop so
  /// stale records (entry removed, replaced or re-armed) cost O(log n) once.
  struct HeapRec {
    std::int64_t deadline = 0;
    std::uint64_t seq = 0;
  };

  struct StrictKey {
    of::Match match{};
    std::uint16_t priority = 0;
    bool operator==(const StrictKey&) const = default;
  };
  struct StrictKeyHash {
    std::size_t operator()(const StrictKey& k) const noexcept;
  };

  /// Fully-specified packet identity: key of the exact tier. Built from an
  /// exact Match or from a (port, header) pair; equality of keys is exactly
  /// Match::matches() for exact matches.
  struct ExactKey {
    std::uint16_t in_port = 0;
    std::uint64_t eth_src = 0;
    std::uint64_t eth_dst = 0;
    std::uint16_t eth_type = 0;
    std::uint32_t ip_src = 0;
    std::uint32_t ip_dst = 0;
    std::uint8_t ip_proto = 0;
    std::uint16_t tp_src = 0;
    std::uint16_t tp_dst = 0;
    bool operator==(const ExactKey&) const = default;
  };
  struct ExactKeyHash {
    std::size_t operator()(const ExactKey& k) const noexcept;
  };

  /// Mask tuple of a wildcard entry: which fields are constrained and how
  /// deep the IP prefixes reach. Prefix lengths are *effective* (forced to 0
  /// when the corresponding wildcard bit is set), so two matches that ignore
  /// a field identically always land in the same tuple group.
  struct TupleKey {
    std::uint32_t wildcards = 0;
    std::uint8_t src_prefix = 0;
    std::uint8_t dst_prefix = 0;
    bool operator==(const TupleKey&) const = default;
  };
  struct TupleKeyHash {
    std::size_t operator()(const TupleKey& k) const noexcept;
  };

  /// One tuple-space group: every member entry shares TupleKey, so masking a
  /// header by the tuple and hashing finds all matching members in one probe
  /// (masked-key equality is exactly Match::matches under this mask). The
  /// priority histogram keeps max_priority() exact across removals, which is
  /// what the cross-group early exit in lookup_pos relies on.
  struct TupleGroup {
    TupleKey key{};
    std::unordered_map<ExactKey, std::vector<std::uint32_t>, ExactKeyHash> buckets;
    std::map<std::uint16_t, std::uint32_t, std::greater<>> prio_counts;
    std::uint16_t max_priority() const noexcept { return prio_counts.begin()->first; }
  };

  static bool is_exact(const of::Match& m) noexcept;
  static TupleKey tuple_key_of(const of::Match& m) noexcept;
  static ExactKey masked_key_of(const of::Match& m, const TupleKey& t) noexcept;
  static ExactKey masked_key_of(PortNo in_port, const of::PacketHeader& h,
                                const TupleKey& t) noexcept;
  static ExactKey exact_key_of(const of::Match& m) noexcept;
  static ExactKey exact_key_of(PortNo in_port, const of::PacketHeader& h) noexcept;
  static std::int64_t entry_deadline(const FlowEntry& e) noexcept;
  static Meta compute_meta(const FlowEntry& e);

  /// True when entry at `a` wins a lookup tie against the one at `b`
  /// (higher priority, then earlier insertion).
  bool beats(std::uint32_t a, std::uint32_t b) const noexcept;

  std::uint32_t lookup_pos(PortNo in_port, const of::PacketHeader& hdr) const;

  void tuple_insert(std::uint32_t pos);
  void tuple_erase(std::uint32_t pos);
  /// Rebuild scan_order_ (tuple groups, descending max priority) if dirty.
  void ensure_scan_order() const;
  void arm(std::uint32_t pos);
  void digest_add(const Meta& m) noexcept;
  void digest_remove(const Meta& m) noexcept;
  /// Recompute hash terms after an in-place structural change (MODIFY).
  void refresh_hashes(std::uint32_t pos);
  /// Replace the entry at `pos` (ADD-replace / restore-replace) and fix
  /// every index; the strict identity is unchanged by construction.
  void replace_at(std::uint32_t pos, FlowEntry entry);
  /// Append a brand-new entry and index it.
  void append(FlowEntry entry);
  /// Remove the entries at `positions`, preserving the relative order of
  /// survivors, then reindex. PRECONDITION: `positions` sorted ascending
  /// (asserted in debug builds) — the compaction walk skips nothing
  /// otherwise.
  void remove_positions(const std::vector<std::uint32_t>& positions);
  /// Rebuild strict/exact/tuple/seq indexes from entries_ (metas kept).
  void reindex();
  /// Recompute everything from entries_ (metas, digests, indexes, heap).
  void rebuild_all();

  std::vector<FlowEntry> entries_;
  std::vector<Meta> meta_; ///< parallel to entries_
  std::uint64_t next_seq_ = 0;

  std::unordered_map<StrictKey, std::uint32_t, StrictKeyHash> strict_;
  std::unordered_map<ExactKey, std::vector<std::uint32_t>, ExactKeyHash> exact_;
  // Wildcard tier: tuple-space search. Groups live behind unique_ptr so the
  // raw pointers in scan_order_ survive swap-removal in groups_.
  std::vector<std::unique_ptr<TupleGroup>> groups_;
  std::unordered_map<TupleKey, std::uint32_t, TupleKeyHash> group_of_;
  mutable std::vector<TupleGroup*> scan_order_; ///< desc by max priority
  mutable bool scan_dirty_ = false;
  std::unordered_map<std::uint64_t, std::uint32_t> pos_by_seq_;
  std::vector<HeapRec> heap_; ///< min-heap via std::push_heap/pop_heap

  std::uint64_t digest_acc_ = 0x12345678ABCDEF01ULL; ///< seed of empty table
  std::uint64_t logical_acc_ = 0;
  std::uint64_t generation_ = 0;
};

} // namespace legosdn::netsim
