#include "netlog/netlog.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "openflow/wire10.hpp"

namespace legosdn::netlog {
namespace {

/// Remaining lifetime of an entry when restored at `now`, per the paper:
/// "it adds it with the appropriate time-out information".
std::uint16_t remaining_timeout(std::uint16_t configured, SimTime since, SimTime now) {
  if (configured == 0) return 0;
  const std::int64_t elapsed_s = (raw(now) - raw(since)) / 1'000'000'000;
  if (elapsed_s >= configured) return 1; // about to expire; keep 1s grace
  return static_cast<std::uint16_t>(configured - elapsed_s);
}

constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  return (h ^ v) * kFnvPrime;
}

} // namespace

std::size_t NetLog::CounterKeyHash::operator()(const CounterKey& k) const noexcept {
  const of::Match& m = k.match;
  std::uint64_t h = 0xCBF29CE484222325ULL;
  h = mix(h, raw(k.dpid));
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

// --- StripeGuard -----------------------------------------------------------

NetLog::StripeGuard::StripeGuard(const NetLog& log, const std::vector<DatapathId>& dpids)
    : log_(log) {
  held_.reserve(dpids.size());
  for (const DatapathId d : dpids) held_.push_back(stripe_of(d));
  std::sort(held_.begin(), held_.end());
  held_.erase(std::unique(held_.begin(), held_.end()), held_.end());
  for (const std::size_t i : held_) log_.stripes_[i].lock();
}

NetLog::StripeGuard::StripeGuard(const NetLog& log, DatapathId dpid) : log_(log) {
  held_.push_back(stripe_of(dpid));
  log_.stripes_[held_.front()].lock();
}

NetLog::StripeGuard NetLog::StripeGuard::all(const NetLog& log) {
  StripeGuard g(log);
  g.held_.reserve(kStripes);
  for (std::size_t i = 0; i < kStripes; ++i) {
    g.held_.push_back(i);
    log.stripes_[i].lock();
  }
  return g;
}

NetLog::StripeGuard::~StripeGuard() {
  // Reverse order of acquisition (not required for correctness, just tidy).
  for (auto it = held_.rbegin(); it != held_.rend(); ++it)
    log_.stripes_[*it].unlock();
}

// ---------------------------------------------------------------------------

void NetLog::with_world_lock(const std::function<void()>& fn) {
  auto guard = StripeGuard::all(*this);
  fn();
}

NetLog::NetLog(netsim::Network& net, NetLogConfig cfg) : net_(net), cfg_(cfg) {}

TxnId NetLog::begin(AppId app) {
  const TxnId id{next_txn_.fetch_add(1, std::memory_order_relaxed)};
  auto txn = std::make_unique<Txn>();
  txn->app = app;
  {
    std::lock_guard<std::mutex> lk(open_mu_);
    open_[id] = std::move(txn);
  }
  stats_.begun.fetch_add(1, std::memory_order_relaxed);
  if (txn_observer_) txn_observer_({TxnRecord::Kind::kBegin, id, app, {}});
  return id;
}

bool NetLog::is_open(TxnId id) const {
  std::lock_guard<std::mutex> lk(open_mu_);
  return open_.contains(id);
}

Status NetLog::join(TxnId id, AppId app) {
  Txn* txn = find_open(id);
  if (!txn) return Error{Error::Code::kNotFound, "no open transaction"};
  if (txn->app != app)
    return Error{Error::Code::kConflict,
                 "coalesced transaction belongs to another app"};
  // A Txn's internals are single-threaded by construction (one app's
  // dispatch on one lane), so spans needs no lock of its own.
  txn->spans += 1;
  stats_.begun.fetch_add(1, std::memory_order_relaxed);
  stats_.coalesced_joins.fetch_add(1, std::memory_order_relaxed);
  if (txn_observer_) txn_observer_({TxnRecord::Kind::kJoin, id, app, {}});
  return Status::success();
}

std::uint64_t NetLog::spans(TxnId id) const {
  std::lock_guard<std::mutex> lk(open_mu_);
  const auto it = open_.find(id);
  return it == open_.end() ? 0 : it->second->spans;
}

NetLog::Txn* NetLog::find_open(TxnId id) const {
  std::lock_guard<std::mutex> lk(open_mu_);
  const auto it = open_.find(id);
  return it == open_.end() ? nullptr : it->second.get();
}

std::unique_ptr<NetLog::Txn> NetLog::take_open(TxnId id) {
  std::lock_guard<std::mutex> lk(open_mu_);
  const auto it = open_.find(id);
  if (it == open_.end()) return nullptr;
  std::unique_ptr<Txn> txn = std::move(it->second);
  open_.erase(it);
  return txn;
}

netsim::FlowTable& NetLog::shadow_mut(DatapathId dpid) {
  // The map mutex covers structure only; the returned table's *contents* are
  // guarded by dpid's stripe, which every caller already holds. Fast path:
  // the shadow already exists (everything after a switch's first flow-mod),
  // so a shared lock suffices and lanes don't serialize on lookups.
  {
    std::shared_lock<std::shared_mutex> lk(shadow_map_mu_);
    const auto it = shadow_.find(dpid);
    if (it != shadow_.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lk(shadow_map_mu_);
  return shadow_[dpid];
}

const netsim::FlowTable* NetLog::shadow(DatapathId dpid) const {
  std::shared_lock<std::shared_mutex> lk(shadow_map_mu_);
  auto it = shadow_.find(dpid);
  return it == shadow_.end() ? nullptr : &it->second;
}

void NetLog::touch(Txn& txn, DatapathId dpid) {
  if (std::find(txn.dpids.begin(), txn.dpids.end(), dpid) == txn.dpids.end()) {
    txn.dpids.push_back(dpid);
    // First touch: remember the shadow's pre-transaction structure digest
    // (O(1) with the incrementally-maintained digest) so rollback can verify
    // it restored this exact state.
    txn.pre_digest.emplace(dpid, shadow_mut(dpid).logical_digest());
  }
}

void NetLog::forward(const of::Message& msg) {
  // Follower mode: the leader already performed (or will perform) the wire
  // side effect; this NetLog only maintains shadow state. Dropping here —
  // below both the southbound override and the in-process adapter — is what
  // guarantees a follower can replay the full transaction stream without a
  // single duplicate message reaching a switch.
  if (shadow_only_.load(std::memory_order_relaxed)) return;
  if (southbound_) {
    southbound_(msg);
    return;
  }
  net_.send_to_switch(msg);
}

Status NetLog::apply(TxnId id, const of::Message& msg) {
  Txn* txn = find_open(id);
  if (!txn) return Error{Error::Code::kNotFound, "no open transaction"};
  stats_.messages.fetch_add(1, std::memory_order_relaxed);
  // Every successful apply is exported (outside the stripes) so followers
  // replay the identical stream through their own shadow-only NetLog.
  const auto applied = [&] {
    if (txn_observer_)
      txn_observer_({TxnRecord::Kind::kApply, id, txn->app, msg});
    return Status::success();
  };

  if (const auto* mod = msg.get_if<of::FlowMod>()) {
    {
      StripeGuard guard(*this, mod->dpid);
      touch(*txn, mod->dpid);
      if (cfg_.mode == Mode::kUndoLog) {
        record_undo(*txn, *mod);
        const std::size_t bytes = txn->undo_wire_bytes;
        std::size_t peak = stats_.undo_bytes_peak.load(std::memory_order_relaxed);
        while (bytes > peak && !stats_.undo_bytes_peak.compare_exchange_weak(
                                   peak, bytes, std::memory_order_relaxed)) {
        }
        forward(msg);
      } else {
        txn->buffered.push_back(msg);
      }
    }
    return applied();
  }

  // Non-state-changing messages (packet-out, stats/barrier requests): nothing
  // to invert. Undo-log mode forwards them immediately; delay-buffer mode
  // holds them with the rest of the bundle, as the paper's prototype did.
  if (cfg_.mode == Mode::kDelayBuffer) {
    txn->buffered.push_back(msg);
    return applied();
  }
  if (msg.get_if<of::PacketOut>()) {
    // The forwarding engine walks the packet across arbitrary switches
    // (and mutates network-wide totals): stop the world on all stripes.
    {
      StripeGuard guard = StripeGuard::all(*this);
      forward(msg);
    }
    return applied();
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
  if (have_target) {
    StripeGuard guard(*this, target);
    forward(msg);
  } else {
    StripeGuard guard = StripeGuard::all(*this);
    forward(msg);
  }
  return applied();
}

void NetLog::record_undo(Txn& txn, const of::FlowMod& mod) {
  const std::size_t ops_before = txn.undo.size();
  // Replay the mod through the shadow to learn exactly what it changes.
  netsim::FlowTable& shadow = shadow_mut(mod.dpid);
  const auto res = shadow.apply(mod, net_.now());
  if (!res.ok) return; // switch will reject it too; nothing to undo

  // Entries removed or overwritten: restore them (add with remaining
  // timeouts, counters preserved via the cache at rollback time).
  //
  // The shadow knows the *structure* of each entry but not its dataplane
  // counters/idle clock — only the switch does. The paper's NetLog "stores
  // and maintains the timeout and counter information of a flow table entry
  // before deleting it": we model that pre-delete query by reading the live
  // entry (record_undo runs before the delete is forwarded).
  auto live_entry = [&](const netsim::FlowEntry& e) -> const netsim::FlowEntry* {
    const netsim::SimSwitch* sw = net_.switch_at(mod.dpid);
    if (!sw || !sw->up()) return nullptr;
    return sw->table().find_strict(e.match, e.priority);
  };
  for (auto before : res.removed) {
    if (const netsim::FlowEntry* live = live_entry(before)) {
      before.packet_count = live->packet_count;
      before.byte_count = live->byte_count;
      before.install_time = live->install_time;
      before.last_used = live->last_used;
    }
    UndoOp op;
    op.inverse.dpid = mod.dpid;
    op.inverse.command = of::FlowModCommand::kAdd;
    op.inverse.match = before.match;
    op.inverse.priority = before.priority;
    op.inverse.cookie = before.cookie;
    op.inverse.idle_timeout =
        remaining_timeout(before.idle_timeout, before.last_used, net_.now());
    op.inverse.hard_timeout =
        remaining_timeout(before.hard_timeout, before.install_time, net_.now());
    op.inverse.send_flow_removed = before.send_flow_removed;
    op.inverse.actions = before.actions;
    op.cache_counters = true;
    op.packet_count = before.packet_count;
    op.byte_count = before.byte_count;
    // Exactly-once counter handoff: any ticks already cached for this flow
    // (lost to an earlier rollback) ride along with the undo op, and the
    // cache record is consumed *now*. If this transaction rolls back, the
    // merged total returns to the cache with the restored flow; if it
    // commits, the flow is genuinely gone — deleted or replaced with reset
    // counters — and the stale record must not leak onto a future flow with
    // the same (dpid, match, priority) identity.
    {
      std::lock_guard<std::mutex> lk(cache_mu_);
      if (const auto cit = counter_cache_.find(
              CounterKey{mod.dpid, op.inverse.match, op.inverse.priority});
          cit != counter_cache_.end()) {
        op.packet_count += cit->second.packet_count;
        op.byte_count += cit->second.byte_count;
        counter_cache_.erase(cit);
      }
    }
    txn.undo.push_back(std::move(op));
  }
  // Entries modified in place: put the old actions/cookie back.
  for (const auto& before : res.modified) {
    UndoOp op;
    op.inverse.dpid = mod.dpid;
    op.inverse.command = of::FlowModCommand::kModifyStrict;
    op.inverse.match = before.match;
    op.inverse.priority = before.priority;
    op.inverse.cookie = before.cookie;
    op.inverse.actions = before.actions;
    txn.undo.push_back(std::move(op));
  }
  // Entries newly added (and not replacements, which the removal-restore
  // above already reverts): delete them.
  for (const auto& added : res.added) {
    const bool replaced_existing = std::any_of(
        res.removed.begin(), res.removed.end(), [&](const netsim::FlowEntry& r) {
          return r.same_flow(added.match, added.priority);
        });
    if (replaced_existing) continue;
    UndoOp op;
    op.inverse.dpid = mod.dpid;
    op.inverse.command = of::FlowModCommand::kDeleteStrict;
    op.inverse.match = added.match;
    op.inverse.priority = added.priority;
    txn.undo.push_back(std::move(op));
  }
  for (std::size_t i = ops_before; i < txn.undo.size(); ++i)
    txn.undo_wire_bytes += of::wire10::encoded_size(txn.undo[i].inverse);
  stats_.undo_ops_recorded.fetch_add(txn.undo.size() - ops_before,
                                     std::memory_order_relaxed);
}

Status NetLog::commit(TxnId id) {
  std::unique_ptr<Txn> txn = take_open(id);
  if (!txn) return Error{Error::Code::kNotFound, "no open transaction"};

  {
    // Cross-shard commit barrier: hold every touched switch's stripe (sorted
    // — deadlock-free against any other multi-stripe holder) so the barrier
    // sends and the shadow-vs-switch audit see one atomic cut of the network.
    // Delay-buffer release may contain packet-outs: stop the whole world.
    StripeGuard guard =
        cfg_.mode == Mode::kDelayBuffer
            ? StripeGuard::all(*this)
            : StripeGuard(*this, txn->dpids);

    if (cfg_.mode == Mode::kDelayBuffer) {
      // Release the bundle; shadows learn about the flow-mods now.
      for (const auto& msg : txn->buffered) {
        if (const auto* mod = msg.get_if<of::FlowMod>())
          shadow_mut(mod->dpid).apply(*mod, net_.now());
        forward(msg);
      }
    }
    if (cfg_.barrier_on_commit) {
      for (const DatapathId d : txn->dpids)
        forward({next_xid_.fetch_add(1, std::memory_order_relaxed),
                 of::BarrierRequest{d}});
    }
    // Cheap commit-time audit: every touched shadow should agree with the
    // live switch table structure-for-structure (both digests are O(1) to
    // read). Divergence means the shadow drifted — e.g. the switch
    // idle-expired an entry the shadow kept alive, or dropped messages while
    // down.
    std::uint64_t checks = 0, mismatches = 0;
    for (const DatapathId d : txn->dpids) {
      const netsim::SimSwitch* sw = net_.switch_at(d);
      if (!sw || !sw->up()) continue;
      const netsim::FlowTable* sh = shadow(d);
      checks += 1;
      if (!sh || sh->logical_digest() != sw->table().logical_digest())
        mismatches += 1;
    }
    stats_.shadow_sync_checks.fetch_add(checks, std::memory_order_relaxed);
    stats_.shadow_sync_mismatches.fetch_add(mismatches,
                                            std::memory_order_relaxed);
  }
  // One committed transaction per logical span: coalesced and per-event
  // runs report identical commit stats (see Stats doc).
  stats_.committed.fetch_add(txn->spans, std::memory_order_relaxed);
  if (txn->spans > 1) {
    stats_.coalesced_commits.fetch_add(1, std::memory_order_relaxed);
    stats_.coalesced_spans.fetch_add(txn->spans, std::memory_order_relaxed);
  }
  if (txn_observer_)
    txn_observer_({TxnRecord::Kind::kCommit, id, txn->app, {}});
  return Status::success();
}

Status NetLog::rollback(TxnId id) {
  std::unique_ptr<Txn> txn = take_open(id);
  if (!txn) return Error{Error::Code::kNotFound, "no open transaction"};

  if (cfg_.mode == Mode::kUndoLog) {
    // Undo ops only name touched dpids, so the same sorted stripe set that
    // fences commit fences the whole inverse replay.
    StripeGuard guard(*this, txn->dpids);
    std::uint64_t applied = 0;
    for (auto op = txn->undo.rbegin(); op != txn->undo.rend(); ++op) {
      // Keep the shadow in lock-step with the switch.
      shadow_mut(op->inverse.dpid).apply(op->inverse, net_.now());
      forward({next_xid_.fetch_add(1, std::memory_order_relaxed), op->inverse});
      applied += 1;
      if (op->cache_counters && (op->packet_count || op->byte_count)) {
        std::lock_guard<std::mutex> lk(cache_mu_);
        CachedCounters& c = counter_cache_[CounterKey{
            op->inverse.dpid, op->inverse.match, op->inverse.priority}];
        c.packet_count += op->packet_count;
        c.byte_count += op->byte_count;
      }
    }
    if (cfg_.barrier_on_commit) {
      for (const DatapathId d : txn->dpids)
        forward({next_xid_.fetch_add(1, std::memory_order_relaxed),
                 of::BarrierRequest{d}});
    }
    // Verify the undo log actually inverted the transaction: each touched
    // shadow must be digest-identical to its pre-transaction state. This is
    // the paper's invertibility claim, checked in O(touched switches).
    std::uint64_t checks = 0, mismatches = 0;
    for (const DatapathId d : txn->dpids) {
      checks += 1;
      const auto pre = txn->pre_digest.find(d);
      const netsim::FlowTable* sh = shadow(d);
      if (pre == txn->pre_digest.end() || !sh ||
          sh->logical_digest() != pre->second)
        mismatches += 1;
    }
    stats_.undo_ops_applied.fetch_add(applied, std::memory_order_relaxed);
    stats_.rollback_digest_checks.fetch_add(checks, std::memory_order_relaxed);
    stats_.rollback_digest_mismatches.fetch_add(mismatches,
                                                std::memory_order_relaxed);
  }
  // Delay-buffer mode: held messages simply evaporate.
  stats_.rolled_back.fetch_add(txn->spans, std::memory_order_relaxed);
  if (txn_observer_)
    txn_observer_({TxnRecord::Kind::kRollback, id, txn->app, {}});
  return Status::success();
}

NetLog::ReconcileOutcome NetLog::reconcile_in_flight() {
  ReconcileOutcome out;
  // In-flight = begun but neither committed nor rolled back when the leader
  // died. TxnIds are allocated monotonically, so ascending id order is begin
  // order — the order the leader would have resolved them in.
  std::vector<TxnId> ids;
  {
    std::lock_guard<std::mutex> lk(open_mu_);
    ids.reserve(open_.size());
    for (const auto& [id, _] : open_) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end(),
            [](TxnId a, TxnId b) { return raw(a) < raw(b); });

  for (const TxnId id : ids) {
    std::unique_ptr<Txn> txn = take_open(id);
    if (!txn) continue;
    StripeGuard guard(*this, txn->dpids);

    // Did the leader's applies reach the switches? This follower's shadow
    // replayed the same records, so live table == shadow (in-flight applies
    // included) proves the switch executed every one of them. Delay-buffer
    // transactions never sent anything before commit, so they always
    // discard.
    if (applies_landed(*txn)) {
      // Adopt: commit is pure bookkeeping. The switches already executed
      // every apply, so nothing is (re)sent — that is the exactly-once
      // guarantee, asserted by tests as zero messages during reconcile.
      stats_.committed.fetch_add(txn->spans, std::memory_order_relaxed);
      if (txn->spans > 1) {
        stats_.coalesced_commits.fetch_add(1, std::memory_order_relaxed);
        stats_.coalesced_spans.fetch_add(txn->spans, std::memory_order_relaxed);
      }
      out.txns_adopted += 1;
      out.spans_adopted += txn->spans;
    } else {
      // Discard: the switches never saw the applies, so the inverses are
      // replayed against the *shadows only* — sending them would mutate live
      // tables that never changed. For the same reason the counter cache is
      // left untouched: no live entry was deleted, so there are no lost
      // ticks to preserve.
      if (cfg_.mode == Mode::kUndoLog) {
        std::uint64_t applied = 0;
        for (auto op = txn->undo.rbegin(); op != txn->undo.rend(); ++op) {
          shadow_mut(op->inverse.dpid).apply(op->inverse, net_.now());
          applied += 1;
        }
        stats_.undo_ops_applied.fetch_add(applied, std::memory_order_relaxed);
        // After the inverse replay every touched shadow should equal the live
        // table again; residue means a partially-landed transaction (possible
        // over a lossy wire, impossible with synchronous shipping).
        for (const DatapathId d : txn->dpids) {
          const netsim::SimSwitch* sw = net_.switch_at(d);
          if (!sw || !sw->up()) continue;
          const netsim::FlowTable* sh = shadow(d);
          if (!sh || sh->logical_digest() != sw->table().logical_digest())
            out.digest_mismatches += 1;
        }
      }
      stats_.rolled_back.fetch_add(txn->spans, std::memory_order_relaxed);
      out.txns_discarded += 1;
      out.spans_discarded += txn->spans;
    }
  }
  return out;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> NetLog::shadow_digests()
    const {
  // Stop the world so the digests form one consistent cut (forensics reads
  // these mid-recovery, possibly while other lanes commit).
  StripeGuard guard = StripeGuard::all(*this);
  std::shared_lock<std::shared_mutex> lk(shadow_map_mu_);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  out.reserve(shadow_.size());
  for (const auto& [dpid, table] : shadow_)
    out.emplace_back(raw(dpid), table.logical_digest());
  std::sort(out.begin(), out.end());
  return out;
}

bool NetLog::applies_landed(const Txn& txn) const {
  // Undo-log applies are forwarded as they happen; delay-buffer ones wait
  // for commit. A down switch is unknowable: the verdict rests on the others
  // (it is re-audited against the shadow when it comes up).
  if (cfg_.mode != Mode::kUndoLog) return false;
  for (const DatapathId d : txn.dpids) {
    const netsim::SimSwitch* sw = net_.switch_at(d);
    if (!sw || !sw->up()) continue;
    const netsim::FlowTable* sh = shadow(d);
    if (!sh || sh->logical_digest() != sw->table().logical_digest()) return false;
  }
  return true;
}

bool NetLog::landed(TxnId id) const {
  // The Txn belongs to the caller's lane (single-threaded by construction),
  // so its dpids are read without open_mu_, as apply() does.
  const Txn* txn = find_open(id);
  if (!txn) return false;
  StripeGuard guard(*this, txn->dpids);
  return applies_landed(*txn);
}

std::vector<DatapathId> NetLog::touched(TxnId id) const {
  std::lock_guard<std::mutex> lk(open_mu_);
  auto it = open_.find(id);
  return it == open_.end() ? std::vector<DatapathId>{} : it->second->dpids;
}

void NetLog::correct_stats(of::StatsReply& reply) const {
  std::lock_guard<std::mutex> lk(cache_mu_);
  if (reply.kind != of::StatsKind::kFlow || counter_cache_.empty()) return;
  for (auto& f : reply.flows) {
    const auto it =
        counter_cache_.find(CounterKey{reply.dpid, f.match, f.priority});
    if (it == counter_cache_.end()) continue;
    f.packet_count += it->second.packet_count;
    f.byte_count += it->second.byte_count;
  }
}

std::vector<CounterCacheEntry> NetLog::counter_cache() const {
  std::lock_guard<std::mutex> lk(cache_mu_);
  std::vector<CounterCacheEntry> out;
  out.reserve(counter_cache_.size());
  for (const auto& [k, v] : counter_cache_)
    out.push_back({k.dpid, k.match, k.priority, v.packet_count, v.byte_count});
  return out;
}

std::size_t NetLog::counter_cache_size() const {
  std::lock_guard<std::mutex> lk(cache_mu_);
  return counter_cache_.size();
}

void NetLog::expire_shadows(SimTime now) {
  StripeGuard guard = StripeGuard::all(*this);
  std::shared_lock<std::shared_mutex> lk(shadow_map_mu_);
  for (auto& [_, table] : shadow_) {
    if (table.has_pending_expiry(now)) table.expire(now);
  }
}

void NetLog::expire_shadow(DatapathId dpid, SimTime now) {
  StripeGuard guard(*this, dpid);
  netsim::FlowTable* table = nullptr;
  {
    std::shared_lock<std::shared_mutex> lk(shadow_map_mu_);
    const auto it = shadow_.find(dpid);
    if (it == shadow_.end()) return;
    table = &it->second;
  }
  if (table->has_pending_expiry(now)) table->expire(now);
}

void NetLog::observe_northbound(const of::Message& msg) {
  if (const auto* fr = msg.get_if<of::FlowRemoved>()) {
    StripeGuard guard(*this, fr->dpid);
    of::FlowMod del;
    del.dpid = fr->dpid;
    del.command = of::FlowModCommand::kDeleteStrict;
    del.match = fr->match;
    del.priority = fr->priority;
    shadow_mut(fr->dpid).apply(del, net_.now());
    // The flow is gone for good (expiry or delete-with-notify): its final
    // counters were reported in the flow-removed itself, so any cached
    // rollback ticks die with it — a later flow reusing this identity
    // starts from zero.
    std::lock_guard<std::mutex> lk(cache_mu_);
    counter_cache_.erase(CounterKey{fr->dpid, fr->match, fr->priority});
  }
}

NetLog::Stats NetLog::stats() const {
  const auto ld = [](const auto& a) { return a.load(std::memory_order_relaxed); };
  Stats s;
  s.begun = ld(stats_.begun);
  s.committed = ld(stats_.committed);
  s.rolled_back = ld(stats_.rolled_back);
  s.coalesced_joins = ld(stats_.coalesced_joins);
  s.coalesced_commits = ld(stats_.coalesced_commits);
  s.coalesced_spans = ld(stats_.coalesced_spans);
  s.messages = ld(stats_.messages);
  s.undo_ops_recorded = ld(stats_.undo_ops_recorded);
  s.undo_ops_applied = ld(stats_.undo_ops_applied);
  s.undo_bytes_peak = ld(stats_.undo_bytes_peak);
  s.rollback_digest_checks = ld(stats_.rollback_digest_checks);
  s.rollback_digest_mismatches = ld(stats_.rollback_digest_mismatches);
  s.shadow_sync_checks = ld(stats_.shadow_sync_checks);
  s.shadow_sync_mismatches = ld(stats_.shadow_sync_mismatches);
  return s;
}

} // namespace legosdn::netlog
