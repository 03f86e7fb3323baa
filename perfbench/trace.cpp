#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <mutex>

#include "util.hpp"

namespace perfbench::trace {

namespace lg = legosdn;

namespace {

std::atomic<bool> g_enabled{false};

struct Buffer {
  std::deque<Rec> recs; // grows in chunks: no reallocation stalls mid-run
};

std::mutex g_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers; // guarded by g_mu
std::atomic<std::uint64_t> g_generation{1};

thread_local Buffer* t_buffer = nullptr;
thread_local std::uint64_t t_generation = 0;
thread_local std::uint32_t t_current = 0;

Buffer& local_buffer() {
  const std::uint64_t gen = g_generation.load(std::memory_order_acquire);
  if (t_generation != gen) {
    auto b = std::make_unique<Buffer>();
    std::lock_guard<std::mutex> lk(g_mu);
    t_buffer = b.get();
    g_buffers.push_back(std::move(b));
    t_generation = gen;
  }
  return *t_buffer;
}

std::uint32_t tag_of(const lg::ctl::Event& e) {
  const auto* pin = std::get_if<lg::of::PacketIn>(&e);
  return pin ? static_cast<std::uint32_t>(pin->packet.trace_tag) : 0;
}

} // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_release); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_current(std::uint32_t event) { t_current = event; }
std::uint32_t current() { return t_current; }

void mark_at(std::uint32_t event, Mark kind, std::int64_t t) {
  if (!enabled() || event == 0) return;
  local_buffer().recs.push_back({event, kind, t});
}

void mark(std::uint32_t event, Mark kind) {
  if (!enabled() || event == 0) return;
  local_buffer().recs.push_back({event, kind, now_ns()});
}

std::vector<Rec> take_all() {
  std::lock_guard<std::mutex> lk(g_mu);
  std::vector<Rec> out;
  for (const auto& b : g_buffers) out.insert(out.end(), b->recs.begin(), b->recs.end());
  g_buffers.clear();
  g_generation.fetch_add(1, std::memory_order_acq_rel);
  return out;
}

// --- TracingDomain -----------------------------------------------------------

lg::appvisor::EventOutcome TracingDomain::deliver(const lg::ctl::Event& event,
                                                  lg::SimTime now) {
  if (replaying_) {
    mark_here(Mark::kReplayBegin);
    auto out = inner_->deliver(event, now);
    mark_here(Mark::kReplayEnd);
    return out;
  }
  mark_here(Mark::kDeliverBegin);
  auto out = inner_->deliver(event, now);
  mark_here(out.ok() ? Mark::kDeliverEnd : Mark::kDeliverFail);
  return out;
}

lg::Result<std::vector<std::uint8_t>> TracingDomain::snapshot() {
  replaying_ = false;
  mark_here(Mark::kCaptureBegin);
  auto snap = inner_->snapshot();
  mark_here(Mark::kCaptureEnd);
  return snap;
}

lg::Status TracingDomain::restore(std::span<const std::uint8_t> state) {
  mark_here(Mark::kRestoreBegin);
  auto st = inner_->restore(state);
  mark_here(Mark::kRestoreEnd);
  replaying_ = true;
  return st;
}

lg::Status TracingDomain::restart() {
  mark_here(Mark::kRestoreBegin);
  auto st = inner_->restart();
  mark_here(Mark::kRestoreEnd);
  replaying_ = true;
  return st;
}

// --- TracingApp --------------------------------------------------------------

lg::ctl::Disposition TracingApp::handle_event(const lg::ctl::Event& e,
                                              lg::ctl::ServiceApi& api) {
  if (replaying_) {
    mark_here(Mark::kReplayBegin);
    const auto d = inner_->handle_event(e, api);
    mark_here(Mark::kReplayEnd);
    return d;
  }
  const std::uint32_t id = tag_of(e);
  set_current(id);
  if (capture_pending_) {
    mark_at(id, Mark::kCaptureBegin, capture_begin_);
    mark_at(id, Mark::kCaptureEnd, capture_end_);
    capture_pending_ = false;
  }
  mark(id, Mark::kDeliverBegin);
  try {
    const auto d = inner_->handle_event(e, api);
    mark(id, Mark::kDeliverEnd);
    return d;
  } catch (...) {
    mark(id, Mark::kDeliverFail);
    throw;
  }
}

std::vector<std::uint8_t> TracingApp::snapshot_state() const {
  replaying_ = false;
  capture_begin_ = now_ns();
  auto s = inner_->snapshot_state();
  capture_end_ = now_ns();
  capture_pending_ = true;
  return s;
}

void TracingApp::reset() {
  // InProcessDomain::restore resets, then installs the state.
  mark_here(Mark::kRestoreBegin);
  inner_->reset();
  replaying_ = true;
}

void TracingApp::restore_state(std::span<const std::uint8_t> state) {
  inner_->restore_state(state);
  mark_here(Mark::kRestoreEnd);
}

lg::ctl::AppPtr TracingApp::clone() const {
  auto c = inner_->clone();
  return c ? std::make_shared<TracingApp>(std::move(c)) : nullptr;
}

// --- analysis ----------------------------------------------------------------

const char* layer_name(Layer l) {
  switch (l) {
    case kController: return "controller";
    case kCheckpoint: return "checkpoint";
    case kAppvisor: return "appvisor";
    case kInvariant: return "invariant";
    case kNetlog: return "netlog";
    case kNetsim: return "netsim";
    case kSouthbound: return "southbound";
    case kCrashpad: return "crashpad";
    case kQueue: return "queue";
    default: return "uncovered";
  }
}

namespace {

double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

bool is_apply(Mark k) { return k == Mark::kApply || k == Mark::kApplyMod; }

bool ends_txn(Mark k) {
  return k == Mark::kTxnBegin || k == Mark::kCommit || k == Mark::kRollback;
}

/// Walks one event's marks in time order and attributes every interval to
/// the layer whose span it lies in (a layer's self time: its spans minus
/// the child spans nested inside them).
class EventWalk {
public:
  EventWalk(Breakdown& out, bool wire, bool poison)
      : out_(out), wire_(wire), poison_(poison) {}

  void run(const std::vector<Rec>& m, const EventTiming& tm) {
    std::array<double, kLayerCount + 1> acc{};
    auto add = [&](Layer l, std::int64_t a, std::int64_t b) {
      if (b > a) acc[l] += us(b - a);
    };
    // Which apply closes a verifying transaction: verification runs between
    // it and the commit barrier (or the rollback).
    std::vector<bool> verify_after(m.size(), false);
    for (std::size_t i = 0; i < m.size(); ++i) {
      if (m[i].kind != Mark::kTxnBegin) continue;
      std::size_t last = SIZE_MAX;
      bool mod = false;
      for (std::size_t j = i + 1; j < m.size() && !ends_txn(m[j].kind); ++j) {
        if (!is_apply(m[j].kind)) continue;
        last = j;
        mod = mod || m[j].kind == Mark::kApplyMod;
      }
      out_.txns += poison_ ? 0 : 1;
      if (mod) {
        out_.verifying_txns += poison_ ? 0 : 1;
        if (last != SIZE_MAX) verify_after[last] = true;
      }
    }

    add(kUncovered, tm.sched, tm.send); // generator lag is not program time
    Layer state = wire_ ? kSouthbound : kQueue;
    std::vector<Layer> stack;
    std::int64_t prev = tm.send, inject = 0, cap_b = 0, del_b = 0, deliver_end = 0,
                 verify_b = 0, txn_b = 0, phase_b = 0, restore_b = 0, sb_b = 0,
                 last_sb = 0;
    double child = 0;
    bool lane_started = false;
    for (std::size_t i = 0; i < m.size(); ++i) {
      const Rec& r = m[i];
      add(state, prev, r.t);
      if (wire_ && !lane_started && r.kind != Mark::kInject && inject != 0) {
        lane_started = true;
        out_.queue_wait.push_back(us(r.t - inject));
      }
      switch (r.kind) {
        case Mark::kInject:
          inject = r.t;
          out_.ingress.push_back(us(r.t - tm.send));
          state = kQueue;
          break;
        case Mark::kDispatchBegin:
          out_.queue_wait.push_back(us(r.t - tm.send));
          state = kController;
          break;
        case Mark::kDispatchEnd:
          state = kUncovered;
          break;
        case Mark::kCaptureBegin:
          cap_b = r.t;
          state = kCheckpoint;
          break;
        case Mark::kCaptureEnd:
          out_.capture.push_back(us(r.t - cap_b));
          state = kCheckpoint; // the handoff to the checkpoint worker follows
          break;
        case Mark::kDeliverBegin:
          del_b = r.t;
          state = kAppvisor;
          break;
        case Mark::kDeliverEnd:
          out_.deliver.push_back(us(r.t - del_b));
          deliver_end = r.t;
          // The pre-transaction reachability baseline runs between delivery
          // and NetLog begin; an app that emitted nothing has no transaction.
          state = i + 1 < m.size() && m[i + 1].kind == Mark::kTxnBegin ? kInvariant
                                                                       : kController;
          break;
        case Mark::kDeliverFail:
          out_.deliver.push_back(us(r.t - del_b));
          state = kCrashpad;
          break;
        case Mark::kReplayBegin:
        case Mark::kReplayEnd:
          state = kCrashpad;
          break;
        case Mark::kRestoreBegin:
          restore_b = r.t;
          state = kCrashpad;
          break;
        case Mark::kRestoreEnd:
          if (restore_b) out_.restore.push_back(us(r.t - restore_b));
          restore_b = 0;
          state = kCrashpad;
          break;
        case Mark::kTxnBegin:
          if (deliver_end && i > 0 && m[i - 1].kind == Mark::kDeliverEnd)
            out_.baseline.push_back(us(r.t - deliver_end));
          txn_b = phase_b = r.t;
          child = 0;
          state = kNetlog;
          break;
        case Mark::kApply:
        case Mark::kApplyMod: {
          const bool last_of_verifying = verify_after[i];
          const bool last = last_of_verifying || i + 1 == m.size() ||
                            [&] {
                              for (std::size_t j = i + 1; j < m.size(); ++j) {
                                if (is_apply(m[j].kind)) return false;
                                if (ends_txn(m[j].kind)) return true;
                              }
                              return true;
                            }();
          if (last && txn_b) {
            out_.apply.push_back(us(r.t - txn_b) - child);
            child = 0;
            phase_b = r.t;
          }
          if (last_of_verifying) {
            verify_b = r.t;
            state = kInvariant;
          } else {
            state = kNetlog;
          }
          break;
        }
        case Mark::kSbBegin:
          if (verify_b) {
            out_.verify.push_back(us(r.t - verify_b));
            verify_b = 0;
            phase_b = r.t;
            child = 0;
            state = kNetlog;
          }
          stack.push_back(state);
          sb_b = last_sb = r.t;
          state = wire_ ? kSouthbound : kNetsim;
          break;
        case Mark::kSbEnd:
          if (!wire_) out_.netsim.push_back(us(r.t - sb_b));
          child += us(r.t - sb_b);
          state = stack.empty() ? kController : stack.back();
          if (!stack.empty()) stack.pop_back();
          break;
        case Mark::kCommit:
          if (verify_b) out_.verify.push_back(us(r.t - verify_b));
          else if (phase_b) out_.commit.push_back(us(r.t - phase_b) - child);
          verify_b = phase_b = txn_b = 0;
          child = 0;
          state = kController;
          break;
        case Mark::kRollback:
          if (verify_b) out_.verify.push_back(us(r.t - verify_b));
          verify_b = phase_b = txn_b = 0;
          child = 0;
          state = kCrashpad;
          break;
      }
      prev = r.t;
    }
    if (tm.done == 0) return;
    // Tail: over the wire, the last message still has to cross the socket to
    // the switch; in-process, the run() return bookkeeping is uncovered.
    add(wire_ ? kSouthbound : state, prev, tm.done);
    if (wire_ && last_sb) out_.egress.push_back(us(tm.done - last_sb));
    if (poison_) return;
    const double total = us(tm.done - tm.sched);
    out_.latency.push_back(total);
    out_.latency_us += total;
    out_.events += 1;
    for (std::size_t l = 0; l < kLayerCount; ++l) out_.self_us[l] += acc[l];
    out_.uncovered_us += acc[kUncovered];
  }

private:
  Breakdown& out_;
  bool wire_;
  bool poison_;
};

} // namespace

Breakdown analyze(std::vector<Rec> recs, const Timings& timing,
                  const std::vector<std::uint32_t>& ids, bool wire) {
  std::stable_sort(recs.begin(), recs.end(),
                   [](const Rec& a, const Rec& b) { return a.t < b.t; });
  const std::uint32_t max_id = ids.empty() ? 0 : *std::max_element(ids.begin(), ids.end());
  std::vector<std::vector<Rec>> by_event(std::size_t{max_id} + 1);
  for (const Rec& r : recs) {
    if (r.event < by_event.size()) by_event[r.event].push_back(r);
  }
  Breakdown out;
  for (const std::uint32_t id : ids) {
    EventWalk(out, wire, timing[id].poison).run(by_event[id], timing[id]);
  }
  return out;
}

} // namespace perfbench::trace
