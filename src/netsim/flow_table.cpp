#include "netsim/flow_table.hpp"

#include <algorithm>
#include <cassert>

#include "common/bytes.hpp"

namespace legosdn::netsim {
namespace {

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

std::uint64_t fnv_bytes(std::uint64_t h, const std::uint8_t* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Continue an FNV stream with the big-endian bytes of `v`, byte-for-byte
/// equivalent to hashing ByteWriter::u64 output.
std::uint64_t fnv_u64be(std::uint64_t h, std::uint64_t v) {
  for (int s = 56; s >= 0; s -= 8) {
    h ^= (v >> s) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

/// Word-at-a-time mix for hash-table keys (not part of any digest).
std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  return (h ^ v) * kFnvPrime;
}

constexpr std::uint32_t prefix_mask32(std::uint8_t prefix) noexcept {
  return prefix == 0 ? 0u : ~0u << (32 - prefix);
}

std::int64_t seconds_between(SimTime later, SimTime earlier) {
  return (raw(later) - raw(earlier)) / 1'000'000'000;
}

/// FNV over the dynamic (counter/timestamp) suffix of the digest encoding,
/// resumed from the per-entry static midstate.
std::uint64_t dynamic_hash(std::uint64_t static_fnv, const FlowEntry& e) {
  std::uint64_t h = static_fnv;
  h = fnv_u64be(h, e.packet_count);
  h = fnv_u64be(h, e.byte_count);
  h = fnv_u64be(h, static_cast<std::uint64_t>(raw(e.install_time)));
  h = fnv_u64be(h, static_cast<std::uint64_t>(raw(e.last_used)));
  return h;
}

} // namespace

bool match_overlaps(const of::Match& a, const of::Match& b) {
  using of::Wildcard;
  auto fields_disjoint = [&](of::Wildcard f, auto get) {
    if (a.wildcarded(f) || b.wildcarded(f)) return false; // either ignores it
    return get(a) != get(b);
  };
  if (fields_disjoint(of::kWcInPort, [](const of::Match& m) { return m.in_port; }))
    return false;
  if (fields_disjoint(of::kWcEthSrc, [](const of::Match& m) { return m.eth_src; }))
    return false;
  if (fields_disjoint(of::kWcEthDst, [](const of::Match& m) { return m.eth_dst; }))
    return false;
  if (fields_disjoint(of::kWcEthType, [](const of::Match& m) { return m.eth_type; }))
    return false;
  if (fields_disjoint(of::kWcIpProto, [](const of::Match& m) { return m.ip_proto; }))
    return false;
  if (fields_disjoint(of::kWcTpSrc, [](const of::Match& m) { return m.tp_src; }))
    return false;
  if (fields_disjoint(of::kWcTpDst, [](const of::Match& m) { return m.tp_dst; }))
    return false;
  // IP prefixes overlap iff the shorter prefix covers the longer one's net.
  auto prefixes_disjoint = [](bool wa, std::uint32_t na, std::uint8_t pa, bool wb,
                              std::uint32_t nb, std::uint8_t pb) {
    if (wa || wb) return false;
    const std::uint8_t p = std::min(pa, pb);
    const std::uint32_t mask = p == 0 ? 0u : ~0u << (32 - p);
    return (na & mask) != (nb & mask);
  };
  if (prefixes_disjoint(a.wildcarded(of::kWcIpSrc), a.ip_src.addr, a.ip_src_prefix,
                        b.wildcarded(of::kWcIpSrc), b.ip_src.addr, b.ip_src_prefix))
    return false;
  if (prefixes_disjoint(a.wildcarded(of::kWcIpDst), a.ip_dst.addr, a.ip_dst_prefix,
                        b.wildcarded(of::kWcIpDst), b.ip_dst.addr, b.ip_dst_prefix))
    return false;
  return true;
}

bool FlowEntry::outputs_to(PortNo port) const {
  for (const auto& a : actions)
    if (const auto* out = std::get_if<of::ActionOutput>(&a))
      if (out->port == port) return true;
  return false;
}

// --- keys and hashing ------------------------------------------------------

std::size_t FlowTable::StrictKeyHash::operator()(const StrictKey& k) const noexcept {
  const of::Match& m = k.match;
  std::uint64_t h = kFnvOffset;
  h = mix(h, m.wildcards);
  h = mix(h, raw(m.in_port));
  h = mix(h, m.eth_src.to_uint64());
  h = mix(h, m.eth_dst.to_uint64());
  h = mix(h, m.eth_type);
  h = mix(h, m.ip_src.addr);
  h = mix(h, m.ip_dst.addr);
  h = mix(h, (std::uint64_t{m.ip_src_prefix} << 8) | m.ip_dst_prefix);
  h = mix(h, m.ip_proto);
  h = mix(h, (std::uint64_t{m.tp_src} << 16) | m.tp_dst);
  h = mix(h, k.priority);
  return static_cast<std::size_t>(h);
}

std::size_t FlowTable::ExactKeyHash::operator()(const ExactKey& k) const noexcept {
  std::uint64_t h = kFnvOffset;
  h = mix(h, k.in_port);
  h = mix(h, k.eth_src);
  h = mix(h, k.eth_dst);
  h = mix(h, k.eth_type);
  h = mix(h, k.ip_src);
  h = mix(h, k.ip_dst);
  h = mix(h, k.ip_proto);
  h = mix(h, (std::uint64_t{k.tp_src} << 16) | k.tp_dst);
  return static_cast<std::size_t>(h);
}

std::size_t FlowTable::TupleKeyHash::operator()(const TupleKey& k) const noexcept {
  std::uint64_t h = kFnvOffset;
  h = mix(h, k.wildcards);
  h = mix(h, (std::uint64_t{k.src_prefix} << 8) | k.dst_prefix);
  return static_cast<std::size_t>(h);
}

FlowTable::TupleKey FlowTable::tuple_key_of(const of::Match& m) noexcept {
  TupleKey t;
  t.wildcards = m.wildcards & of::kWcAll;
  t.src_prefix = m.wildcarded(of::kWcIpSrc) ? 0 : m.ip_src_prefix;
  t.dst_prefix = m.wildcarded(of::kWcIpDst) ? 0 : m.ip_dst_prefix;
  return t;
}

// Masked keys: zero out every field the tuple ignores and truncate IPs to the
// tuple's prefixes. For entries and headers masked the same way, key equality
// is exactly Match::matches restricted to this tuple — the property the
// per-group hash probe rests on.
FlowTable::ExactKey FlowTable::masked_key_of(const of::Match& m,
                                             const TupleKey& t) noexcept {
  ExactKey k;
  if (!(t.wildcards & of::kWcInPort)) k.in_port = raw(m.in_port);
  if (!(t.wildcards & of::kWcEthSrc)) k.eth_src = m.eth_src.to_uint64();
  if (!(t.wildcards & of::kWcEthDst)) k.eth_dst = m.eth_dst.to_uint64();
  if (!(t.wildcards & of::kWcEthType)) k.eth_type = m.eth_type;
  if (!(t.wildcards & of::kWcIpSrc)) k.ip_src = m.ip_src.addr & prefix_mask32(t.src_prefix);
  if (!(t.wildcards & of::kWcIpDst)) k.ip_dst = m.ip_dst.addr & prefix_mask32(t.dst_prefix);
  if (!(t.wildcards & of::kWcIpProto)) k.ip_proto = m.ip_proto;
  if (!(t.wildcards & of::kWcTpSrc)) k.tp_src = m.tp_src;
  if (!(t.wildcards & of::kWcTpDst)) k.tp_dst = m.tp_dst;
  return k;
}

FlowTable::ExactKey FlowTable::masked_key_of(PortNo in_port, const of::PacketHeader& h,
                                             const TupleKey& t) noexcept {
  ExactKey k;
  if (!(t.wildcards & of::kWcInPort)) k.in_port = raw(in_port);
  if (!(t.wildcards & of::kWcEthSrc)) k.eth_src = h.eth_src.to_uint64();
  if (!(t.wildcards & of::kWcEthDst)) k.eth_dst = h.eth_dst.to_uint64();
  if (!(t.wildcards & of::kWcEthType)) k.eth_type = h.eth_type;
  if (!(t.wildcards & of::kWcIpSrc)) k.ip_src = h.ip_src.addr & prefix_mask32(t.src_prefix);
  if (!(t.wildcards & of::kWcIpDst)) k.ip_dst = h.ip_dst.addr & prefix_mask32(t.dst_prefix);
  if (!(t.wildcards & of::kWcIpProto)) k.ip_proto = h.ip_proto;
  if (!(t.wildcards & of::kWcTpSrc)) k.tp_src = h.tp_src;
  if (!(t.wildcards & of::kWcTpDst)) k.tp_dst = h.tp_dst;
  return k;
}

bool FlowTable::is_exact(const of::Match& m) noexcept {
  // With no wildcard bits and /32 prefixes, Match::matches() degenerates to
  // equality on every field, which is precisely ExactKey equality.
  return m.wildcards == 0 && m.ip_src_prefix == 32 && m.ip_dst_prefix == 32;
}

FlowTable::ExactKey FlowTable::exact_key_of(const of::Match& m) noexcept {
  return {raw(m.in_port),  m.eth_src.to_uint64(), m.eth_dst.to_uint64(),
          m.eth_type,      m.ip_src.addr,         m.ip_dst.addr,
          m.ip_proto,      m.tp_src,              m.tp_dst};
}

FlowTable::ExactKey FlowTable::exact_key_of(PortNo in_port,
                                            const of::PacketHeader& h) noexcept {
  return {raw(in_port), h.eth_src.to_uint64(), h.eth_dst.to_uint64(),
          h.eth_type,   h.ip_src.addr,         h.ip_dst.addr,
          h.ip_proto,   h.tp_src,              h.tp_dst};
}

std::int64_t FlowTable::entry_deadline(const FlowEntry& e) noexcept {
  // Integer-exact restatement of the reference check: for timeout T > 0,
  // seconds_between(now, t) >= T  <=>  raw(now) >= raw(t) + T * 1e9.
  std::int64_t d = kNeverExpires;
  if (e.hard_timeout != 0)
    d = std::min(d, raw(e.install_time) + std::int64_t{e.hard_timeout} * 1'000'000'000);
  if (e.idle_timeout != 0)
    d = std::min(d, raw(e.last_used) + std::int64_t{e.idle_timeout} * 1'000'000'000);
  return d;
}

FlowTable::Meta FlowTable::compute_meta(const FlowEntry& e) {
  Meta m;
  m.exact = is_exact(e.match);
  // Single digest stream, ordered so the logical fields — the ones NetLog
  // inverses restore exactly — form a prefix. One reserved encode pass feeds
  // both hashes: logical_hash is the FNV of the prefix, and static_fnv
  // resumes that midstate over the timeout/flag suffix. Digest values are
  // internal-consistency-only (shadow and live tables run this same code),
  // so the stream layout is free to favour the hot path.
  ByteWriter w(96);
  e.match.encode(w);
  w.u16(e.priority);
  w.u64(e.cookie);
  of::encode_actions(e.actions, w);
  const std::size_t logical_len = w.size();
  m.logical_hash = fnv_bytes(kFnvOffset, w.data().data(), logical_len);
  w.u16(e.idle_timeout);
  w.u16(e.hard_timeout);
  w.u8(e.send_flow_removed ? 1 : 0);
  m.static_fnv =
      fnv_bytes(m.logical_hash, w.data().data() + logical_len, w.size() - logical_len);
  m.full_hash = dynamic_hash(m.static_fnv, e);
  return m;
}

// --- digest and index maintenance ------------------------------------------

// Every structural change adds or removes an entry's digest term, so these
// two (with clear and rebuild_all) are where the generation moves. Counter
// touches swap the term in place and leave it alone.
void FlowTable::digest_add(const Meta& m) noexcept {
  digest_acc_ ^= m.full_hash;
  logical_acc_ ^= m.logical_hash;
  ++generation_;
}

void FlowTable::digest_remove(const Meta& m) noexcept {
  digest_acc_ ^= m.full_hash;
  logical_acc_ ^= m.logical_hash;
  ++generation_;
}

bool FlowTable::beats(std::uint32_t a, std::uint32_t b) const noexcept {
  const FlowEntry& ea = entries_[a];
  const FlowEntry& eb = entries_[b];
  return ea.priority > eb.priority ||
         (ea.priority == eb.priority && ea.seq < eb.seq);
}

void FlowTable::tuple_insert(std::uint32_t pos) {
  const FlowEntry& e = entries_[pos];
  const TupleKey t = tuple_key_of(e.match);
  const auto [it, created] =
      group_of_.try_emplace(t, static_cast<std::uint32_t>(groups_.size()));
  if (created) {
    groups_.push_back(std::make_unique<TupleGroup>());
    groups_.back()->key = t;
    scan_dirty_ = true;
  }
  TupleGroup& g = *groups_[it->second];
  g.buckets[masked_key_of(e.match, t)].push_back(pos);
  if (!created && (g.prio_counts.empty() || e.priority > g.max_priority()))
    scan_dirty_ = true; // group ceiling rose; scan order may change
  g.prio_counts[e.priority] += 1;
}

void FlowTable::tuple_erase(std::uint32_t pos) {
  const FlowEntry& e = entries_[pos];
  const TupleKey t = tuple_key_of(e.match);
  const auto git = group_of_.find(t);
  assert(git != group_of_.end() && "tuple_erase: entry not indexed");
  TupleGroup& g = *groups_[git->second];
  const auto bit = g.buckets.find(masked_key_of(e.match, t));
  assert(bit != g.buckets.end());
  auto& bucket = bit->second;
  bucket.erase(std::find(bucket.begin(), bucket.end(), pos));
  if (bucket.empty()) g.buckets.erase(bit);
  const auto pit = g.prio_counts.find(e.priority);
  assert(pit != g.prio_counts.end());
  if (--pit->second == 0) {
    if (pit == g.prio_counts.begin()) scan_dirty_ = true; // ceiling dropped
    g.prio_counts.erase(pit);
  }
  if (g.prio_counts.empty()) {
    // Swap-remove the now-empty group; re-point the moved group's index.
    const std::uint32_t idx = git->second;
    group_of_.erase(git);
    if (idx + 1 != groups_.size()) {
      groups_[idx] = std::move(groups_.back());
      group_of_[groups_[idx]->key] = idx;
    }
    groups_.pop_back();
    scan_dirty_ = true;
  }
}

void FlowTable::ensure_scan_order() const {
  if (!scan_dirty_ && scan_order_.size() == groups_.size()) return;
  scan_order_.clear();
  scan_order_.reserve(groups_.size());
  for (const auto& g : groups_) scan_order_.push_back(g.get());
  std::sort(scan_order_.begin(), scan_order_.end(),
            [](const TupleGroup* a, const TupleGroup* b) {
              return a->max_priority() > b->max_priority();
            });
  scan_dirty_ = false;
}

void FlowTable::arm(std::uint32_t pos) {
  const std::int64_t d = entry_deadline(entries_[pos]);
  meta_[pos].armed_deadline = d;
  if (d == kNeverExpires) return;
  heap_.push_back({d, entries_[pos].seq});
  std::push_heap(heap_.begin(), heap_.end(),
                 [](const HeapRec& a, const HeapRec& b) { return a.deadline > b.deadline; });
}

void FlowTable::refresh_hashes(std::uint32_t pos) {
  digest_remove(meta_[pos]);
  const Meta fresh = compute_meta(entries_[pos]);
  meta_[pos].full_hash = fresh.full_hash;
  meta_[pos].static_fnv = fresh.static_fnv;
  meta_[pos].logical_hash = fresh.logical_hash;
  digest_add(meta_[pos]);
}

void FlowTable::append(FlowEntry entry) {
  const auto pos = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back(std::move(entry));
  meta_.push_back(compute_meta(entries_[pos]));
  digest_add(meta_[pos]);
  const FlowEntry& e = entries_[pos];
  strict_.emplace(StrictKey{e.match, e.priority}, pos);
  if (meta_[pos].exact)
    exact_[exact_key_of(e.match)].push_back(pos);
  else
    tuple_insert(pos);
  pos_by_seq_.emplace(e.seq, pos);
  arm(pos);
}

void FlowTable::replace_at(std::uint32_t pos, FlowEntry entry) {
  // Identity (match+priority) is unchanged, so strict_ and the exact bucket
  // keep pointing at `pos`; the tuple bucket does too, but erase/re-insert
  // anyway — it is O(1) and keeps the group priority histogram exact.
  digest_remove(meta_[pos]);
  pos_by_seq_.erase(entries_[pos].seq);
  const bool was_wild = !meta_[pos].exact;
  if (was_wild) tuple_erase(pos);
  entries_[pos] = std::move(entry);
  meta_[pos] = compute_meta(entries_[pos]);
  digest_add(meta_[pos]);
  pos_by_seq_.emplace(entries_[pos].seq, pos);
  if (!meta_[pos].exact) tuple_insert(pos);
  arm(pos);
}

void FlowTable::remove_positions(const std::vector<std::uint32_t>& positions) {
  // Precondition: sorted ascending. The compaction below advances `skip`
  // only while positions[skip] equals the read cursor, so an out-of-order
  // (or duplicated) list would silently skip nothing and corrupt the table.
#ifndef NDEBUG
  for (std::size_t i = 1; i < positions.size(); ++i)
    assert(positions[i - 1] < positions[i] &&
           "remove_positions: positions must be sorted ascending and unique");
#endif
  for (const std::uint32_t pos : positions) digest_remove(meta_[pos]);
  std::size_t w = 0, skip = 0;
  for (std::size_t r = 0; r < entries_.size(); ++r) {
    if (skip < positions.size() && positions[skip] == r) {
      ++skip;
      continue;
    }
    if (w != r) {
      entries_[w] = std::move(entries_[r]);
      meta_[w] = meta_[r];
    }
    ++w;
  }
  entries_.resize(w);
  meta_.resize(w);
  reindex();
  // Heap records for removed/relocated entries go stale; pops validate
  // against pos_by_seq_ + armed_deadline, so no eager cleanup is needed.
}

void FlowTable::reindex() {
  strict_.clear();
  exact_.clear();
  groups_.clear();
  group_of_.clear();
  scan_order_.clear();
  scan_dirty_ = true;
  pos_by_seq_.clear();
  for (std::uint32_t pos = 0; pos < entries_.size(); ++pos) {
    const FlowEntry& e = entries_[pos];
    strict_.emplace(StrictKey{e.match, e.priority}, pos);
    if (meta_[pos].exact)
      exact_[exact_key_of(e.match)].push_back(pos);
    else
      tuple_insert(pos);
    pos_by_seq_.emplace(e.seq, pos);
  }
}

void FlowTable::rebuild_all() {
  digest_acc_ = 0x12345678ABCDEF01ULL;
  logical_acc_ = 0;
  ++generation_; // even when the snapshot is empty
  heap_.clear();
  meta_.resize(entries_.size());
  for (std::uint32_t pos = 0; pos < entries_.size(); ++pos) {
    meta_[pos] = compute_meta(entries_[pos]);
    digest_add(meta_[pos]);
  }
  reindex();
  for (std::uint32_t pos = 0; pos < entries_.size(); ++pos) arm(pos);
}

void FlowTable::clear() noexcept {
  entries_.clear();
  meta_.clear();
  strict_.clear();
  exact_.clear();
  groups_.clear();
  group_of_.clear();
  scan_order_.clear();
  scan_dirty_ = false;
  pos_by_seq_.clear();
  heap_.clear();
  digest_acc_ = 0x12345678ABCDEF01ULL;
  logical_acc_ = 0;
  ++generation_;
}

void FlowTable::restore_snapshot(std::vector<FlowEntry> snap) {
  entries_ = std::move(snap);
  for (const FlowEntry& e : entries_)
    next_seq_ = std::max(next_seq_, e.seq + 1);
  rebuild_all();
}

// --- flow-mod application ---------------------------------------------------

FlowModResult FlowTable::apply(const of::FlowMod& mod, SimTime now) {
  FlowModResult res;
  switch (mod.command) {
    case of::FlowModCommand::kAdd: {
      if (mod.check_overlap) {
        for (const auto& e : entries_) {
          if (e.priority == mod.priority && match_overlaps(e.match, mod.match) &&
              !e.same_flow(mod.match, mod.priority)) {
            res.ok = false;
            res.error = "overlap";
            return res;
          }
        }
      }
      // Replace an identical flow if present (counters reset per OF 1.0).
      FlowEntry entry;
      entry.match = mod.match;
      entry.priority = mod.priority;
      entry.cookie = mod.cookie;
      entry.idle_timeout = mod.idle_timeout;
      entry.hard_timeout = mod.hard_timeout;
      entry.send_flow_removed = mod.send_flow_removed;
      entry.actions = mod.actions;
      entry.install_time = now;
      entry.last_used = now;
      entry.seq = next_seq_++;
      res.added.push_back(entry);
      auto sit = strict_.find(StrictKey{mod.match, mod.priority});
      if (sit != strict_.end()) {
        res.removed.push_back(entries_[sit->second]);
        replace_at(sit->second, std::move(entry));
      } else {
        append(std::move(entry));
      }
      return res;
    }
    case of::FlowModCommand::kModify:
    case of::FlowModCommand::kModifyStrict: {
      const bool strict = mod.command == of::FlowModCommand::kModifyStrict;
      bool any = false;
      if (strict) {
        auto sit = strict_.find(StrictKey{mod.match, mod.priority});
        if (sit != strict_.end()) {
          FlowEntry& e = entries_[sit->second];
          res.modified.push_back(e); // before-image
          e.actions = mod.actions;   // modify updates actions, preserves counters
          e.cookie = mod.cookie;
          refresh_hashes(sit->second);
          any = true;
        }
      } else {
        for (std::uint32_t pos = 0; pos < entries_.size(); ++pos) {
          FlowEntry& e = entries_[pos];
          if (!mod.match.subsumes(e.match)) continue;
          res.modified.push_back(e);
          e.actions = mod.actions;
          e.cookie = mod.cookie;
          refresh_hashes(pos);
          any = true;
        }
      }
      if (!any) {
        // OF 1.0: modify with no match behaves as an add.
        of::FlowMod add = mod;
        add.command = of::FlowModCommand::kAdd;
        return apply(add, now);
      }
      return res;
    }
    case of::FlowModCommand::kDelete:
    case of::FlowModCommand::kDeleteStrict: {
      const bool strict = mod.command == of::FlowModCommand::kDeleteStrict;
      std::vector<std::uint32_t> doomed;
      if (strict) {
        auto sit = strict_.find(StrictKey{mod.match, mod.priority});
        if (sit != strict_.end()) {
          const FlowEntry& e = entries_[sit->second];
          if (mod.out_port == ports::kNone || e.outputs_to(mod.out_port))
            doomed.push_back(sit->second);
        }
      } else {
        for (std::uint32_t pos = 0; pos < entries_.size(); ++pos) {
          const FlowEntry& e = entries_[pos];
          if (!mod.match.subsumes(e.match)) continue;
          if (mod.out_port != ports::kNone && !e.outputs_to(mod.out_port)) continue;
          doomed.push_back(pos);
        }
      }
      if (!doomed.empty()) {
        for (const std::uint32_t pos : doomed) res.removed.push_back(entries_[pos]);
        remove_positions(doomed);
      }
      return res;
    }
  }
  res.ok = false;
  res.error = "bad command";
  return res;
}

// --- lookup -----------------------------------------------------------------

std::uint32_t FlowTable::lookup_pos(PortNo in_port, const of::PacketHeader& hdr) const {
  std::uint32_t best = kNpos;
  if (!exact_.empty()) {
    auto it = exact_.find(exact_key_of(in_port, hdr));
    if (it != exact_.end()) {
      for (const std::uint32_t pos : it->second)
        if (best == kNpos || beats(pos, best)) best = pos;
    }
  }
  // Tuple-space search over the wildcard tier: one hash probe per tuple
  // group, groups visited in descending max-priority order. Once a group's
  // ceiling is strictly below the current best's priority, no later group
  // can win either (equal-priority ceilings must still be probed — a member
  // could break the tie on insertion order via beats()).
  if (!groups_.empty()) {
    ensure_scan_order();
    for (const TupleGroup* g : scan_order_) {
      if (best != kNpos && g->max_priority() < entries_[best].priority) break;
      const auto bit = g->buckets.find(masked_key_of(in_port, hdr, g->key));
      if (bit == g->buckets.end()) continue;
      for (const std::uint32_t pos : bit->second)
        if (best == kNpos || beats(pos, best)) best = pos;
    }
  }
  return best;
}

const FlowEntry* FlowTable::match_packet(PortNo in_port, const of::PacketHeader& hdr,
                                         std::uint32_t bytes, SimTime now) {
  const std::uint32_t pos = lookup_pos(in_port, hdr);
  if (pos == kNpos) return nullptr;
  FlowEntry& e = entries_[pos];
  Meta& m = meta_[pos];
  // Counter touch: swap this entry's digest term, resuming the FNV stream
  // from the cached static midstate so no re-encode happens.
  digest_acc_ ^= m.full_hash;
  e.packet_count += 1;
  e.byte_count += bytes;
  e.last_used = now; // extends any idle deadline; expire() re-arms lazily
  m.full_hash = dynamic_hash(m.static_fnv, e);
  digest_acc_ ^= m.full_hash;
  return &e;
}

const FlowEntry* FlowTable::peek(PortNo in_port, const of::PacketHeader& hdr) const {
  const std::uint32_t pos = lookup_pos(in_port, hdr);
  return pos == kNpos ? nullptr : &entries_[pos];
}

// --- expiry -----------------------------------------------------------------

std::vector<FlowTable::Expired> FlowTable::expire(SimTime now) {
  std::vector<Expired> out;
  auto heap_min = [](const HeapRec& a, const HeapRec& b) { return a.deadline > b.deadline; };
  std::vector<std::uint32_t> due;
  while (!heap_.empty() && heap_.front().deadline <= raw(now)) {
    const HeapRec rec = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), heap_min);
    heap_.pop_back();
    const auto it = pos_by_seq_.find(rec.seq);
    if (it == pos_by_seq_.end()) continue; // stale: entry is gone
    const std::uint32_t pos = it->second;
    if (meta_[pos].armed_deadline != rec.deadline) continue; // stale: re-armed
    const std::int64_t actual = entry_deadline(entries_[pos]);
    if (actual <= raw(now)) {
      meta_[pos].armed_deadline = kNeverExpires; // leaving the table
      due.push_back(pos);
    } else {
      // Idle clock was refreshed by traffic since arming; push the real
      // deadline back into the heap.
      meta_[pos].armed_deadline = actual;
      heap_.push_back({actual, entries_[pos].seq});
      std::push_heap(heap_.begin(), heap_.end(), heap_min);
    }
  }
  if (due.empty()) return out;
  // Report in table order, with the hard timeout taking precedence over the
  // idle one when both have lapsed — exactly like the reference scan.
  std::sort(due.begin(), due.end());
  for (const std::uint32_t pos : due) {
    const FlowEntry& e = entries_[pos];
    const bool hard =
        e.hard_timeout != 0 && seconds_between(now, e.install_time) >= e.hard_timeout;
    out.push_back({e, hard ? of::FlowRemovedReason::kHardTimeout
                           : of::FlowRemovedReason::kIdleTimeout});
  }
  remove_positions(due);
  return out;
}

// --- restore / strict lookup ------------------------------------------------

void FlowTable::restore(const FlowEntry& entry) {
  // Keep seq allocation ahead of anything restored from a snapshot so
  // insertion-order tie-breaks can never collide with a future add.
  next_seq_ = std::max(next_seq_, entry.seq + 1);
  auto sit = strict_.find(StrictKey{entry.match, entry.priority});
  if (sit != strict_.end()) {
    replace_at(sit->second, entry);
  } else {
    append(entry);
  }
}

const FlowEntry* FlowTable::find_strict(const of::Match& m,
                                        std::uint16_t priority) const {
  auto sit = strict_.find(StrictKey{m, priority});
  return sit == strict_.end() ? nullptr : &entries_[sit->second];
}

} // namespace legosdn::netsim
