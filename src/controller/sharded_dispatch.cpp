#include "controller/sharded_dispatch.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/cpus.hpp"

namespace legosdn::ctl {

namespace {

double us_since(std::chrono::steady_clock::time_point start) {
  const auto dt = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::micro>(dt).count();
}

/// True while this thread runs sinks: a lane thread for its whole life, a
/// submitter while it runs a batch inline. Such a thread never runs a lane
/// inline, so a sink's nested submits queue and no sink takes its own locks
/// twice.
thread_local bool t_in_sink = false;

/// The calling thread's voluntary context switches so far: each time it
/// slept, waited for I/O or blocked on a lock.
long voluntary_switches() {
  ::rusage ru{};
  ::getrusage(RUSAGE_THREAD, &ru);
  return ru.ru_nvcsw;
}

} // namespace

ShardedDispatcher::ShardedDispatcher(Config cfg, Sink sink)
    : cfg_(std::move(cfg)),
      sink_(std::move(sink)),
      router_(cfg_.shards),
      one_cpu_(usable_cpus() == 1) {
  lanes_.reserve(router_.shards());
  for (std::size_t i = 0; i < router_.shards(); ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    lanes_[i]->thread = std::thread([this, i] { run(*lanes_[i], i); });
  }
}

ShardedDispatcher::~ShardedDispatcher() {
  for (auto& lane : lanes_) {
    {
      std::lock_guard<std::mutex> lk(lane->mu);
      lane->stop = true;
    }
    lane->cv.notify_all();
  }
  for (auto& lane : lanes_) {
    if (lane->thread.joinable()) lane->thread.join();
  }
}

void ShardedDispatcher::submit(Event e) {
  const auto now = std::chrono::steady_clock::now();
  const std::size_t target = router_.route(e);

  std::lock_guard<std::mutex> submit_lk(submit_mu_);
  if (target != ShardRouter::kGlobal) {
    inflight_.fetch_add(1, std::memory_order_relaxed);
    Lane& lane = *lanes_[target];
    {
      std::lock_guard<std::mutex> lk(lane.mu);
      lane.queue.push_back(Item{std::move(e), nullptr, now});
      lane.peak = std::max(lane.peak, lane.queue.size());
      ++lane.lock_acquires;
    }
    lane.cv.notify_one();
    return;
  }
  post_barrier_locked(std::move(e), now);
}

void ShardedDispatcher::submit_batch(std::vector<Event> events) {
  if (events.empty()) return;
  if (one_cpu_ && !t_in_sink) {
    const std::size_t target = router_.route(events.front());
    const bool one_lane =
        target != ShardRouter::kGlobal &&
        std::all_of(events.begin() + 1, events.end(),
                    [&](const Event& e) { return router_.route(e) == target; });
    if (one_lane) {
      submit_to_lane(target, std::move(events));
      return;
    }
  }
  if (events.size() == 1) {
    submit(std::move(events.front()));
    return;
  }
  const auto now = std::chrono::steady_clock::now();

  // Per-lane runs accumulated between barrier flush points. Routing is a
  // pure hash, so the single pass under submit_mu_ costs no lane locks until
  // a run flushes.
  std::vector<std::vector<Item>> runs(lanes_.size());
  std::lock_guard<std::mutex> submit_lk(submit_mu_);
  auto flush_runs = [&] {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if (runs[i].empty()) continue;
      inflight_.fetch_add(runs[i].size(), std::memory_order_relaxed);
      Lane& lane = *lanes_[i];
      {
        std::lock_guard<std::mutex> lk(lane.mu);
        for (auto& item : runs[i]) lane.queue.push_back(std::move(item));
        lane.peak = std::max(lane.peak, lane.queue.size());
        ++lane.lock_acquires;
      }
      lane.cv.notify_one();
      runs[i].clear();
    }
  };
  for (auto& e : events) {
    const std::size_t target = router_.route(e);
    if (target == ShardRouter::kGlobal) {
      // Barrier tokens must land behind every earlier event of this batch.
      flush_runs();
      post_barrier_locked(std::move(e), now);
    } else {
      runs[target].push_back(Item{std::move(e), nullptr, now});
    }
  }
  flush_runs();
}

void ShardedDispatcher::submit_to_lane(std::size_t idx, std::vector<Event> events) {
  const auto now = std::chrono::steady_clock::now();
  const std::uint64_t n = events.size();
  Lane& lane = *lanes_[idx];
  bool claimed = false;
  {
    std::lock_guard<std::mutex> submit_lk(submit_mu_);
    inflight_.fetch_add(n, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(lane.mu);
    ++lane.lock_acquires;
    // Empty and unheld: every earlier event of this lane has completed, and
    // no barrier token waits in it, so running the batch now keeps FIFO.
    claimed = lane.queue.empty() && !lane.running && !lane.blocked;
    if (claimed) {
      lane.running = true;
    } else {
      for (auto& e : events) lane.queue.push_back(Item{std::move(e), nullptr, now});
      lane.peak = std::max(lane.peak, lane.queue.size());
    }
  }
  if (!claimed) {
    lane.cv.notify_one();
    return;
  }
  t_in_sink = true;
  const long switches = voluntary_switches();
  for (auto& e : events) {
    sink_(std::move(e), idx);
    lane.run_latency.push_back(us_since(now));
  }
  close_batch(lane, idx, n, switches, BatchEnd::kInline);
  t_in_sink = false;
}

void ShardedDispatcher::post_barrier_locked(
    Event e, std::chrono::steady_clock::time_point now) {
  // Global event: one barrier token per lane, landed atomically (the caller
  // holds submit_mu_, so no other submission can slip between two lanes'
  // tokens).
  inflight_.fetch_add(lanes_.size(), std::memory_order_relaxed);
  auto barrier = std::make_shared<BarrierState>();
  barrier->remaining = lanes_.size();
  barrier->event = std::move(e);
  barrier->submitted_at = now;
  for (auto& lane : lanes_) {
    {
      std::lock_guard<std::mutex> lk(lane->mu);
      lane->queue.push_back(Item{Event{}, barrier, now});
      lane->peak = std::max(lane->peak, lane->queue.size());
      ++lane->lock_acquires;
    }
    lane->cv.notify_one();
  }
}

void ShardedDispatcher::run(Lane& lane, std::size_t idx) {
  t_in_sink = true;
  std::deque<Item> local; // double buffer: swapped with lane.queue per wakeup
  bool held = false;      // this thread holds the lane's run
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(lane.mu);
      // A run whose last item was a barrier token still holds the lane.
      if (held) lane.running = held = false;
      // An inline run holds the lane: its queued successors wait for it.
      lane.cv.wait(lk, [&] {
        return !lane.running && (lane.stop || !lane.queue.empty());
      });
      if (lane.queue.empty()) return; // stop requested and fully drained
      local.swap(lane.queue);
      lane.running = held = true;
      ++lane.lock_acquires;
    }

    // Execute the drained items; `run_done` counts the current batch — the
    // maximal run of local events between swaps/barriers.
    std::uint64_t run_done = 0;
    long switches = 0;
    while (!local.empty()) {
      Item item = std::move(local.front());
      local.pop_front();
      if (item.barrier) {
        // Flush coalesced state before parking at the barrier.
        if (run_done > 0) close_batch(lane, idx, run_done, switches, BatchEnd::kMidRun);
        run_done = 0;
        arrive_barrier(item.barrier, idx);
        finish(1);
      } else {
        if (one_cpu_ && run_done == 0) switches = voluntary_switches();
        sink_(std::move(item.event), idx);
        ++run_done;
        lane.run_latency.push_back(us_since(item.submitted_at));
      }
    }
    if (run_done > 0) {
      close_batch(lane, idx, run_done, switches, BatchEnd::kEndOfRun);
      held = false;
    }
  }
}

void ShardedDispatcher::close_batch(Lane& lane, std::size_t idx, std::uint64_t n,
                                    long switches, BatchEnd end) {
  // Boundary hook first, completion accounting second: drain() must not
  // return between a batch's last event and its coalesced-txn flush.
  if (cfg_.on_batch_end) cfg_.on_batch_end(idx);
  // Only the sink's and the hook's own waits count: the dispatcher's locks
  // and wake-ups above and below are not the batch's.
  const bool blocked = one_cpu_ && voluntary_switches() != switches;
  bool queued = false;
  {
    std::lock_guard<std::mutex> lk(lane.mu);
    lane.blocked = blocked;
    lane.done += n;
    lane.batches += 1;
    lane.batch_events.add(static_cast<double>(n));
    for (const double us : lane.run_latency) lane.latency_us.add(us);
    lane.run_latency.clear(); // before the run lets the lane go
    ++lane.lock_acquires;
    // Let the lane go before finish(): once drain() sees these events done,
    // the lane is free for the next batch.
    if (end != BatchEnd::kMidRun) lane.running = false;
    if (end == BatchEnd::kInline) {
      lane.inline_batches += 1;
      queued = !lane.queue.empty();
    }
  }
  // Events queued behind the inline run are the lane thread's to run.
  if (queued) lane.cv.notify_one();
  finish(n);
}

void ShardedDispatcher::arrive_barrier(const std::shared_ptr<BarrierState>& b,
                                       std::size_t idx) {
  std::unique_lock<std::mutex> lk(b->mu);
  if (--b->remaining > 0) {
    // Not last: park until the last arriver has run the event. This lane's
    // queue keeps absorbing submissions meanwhile; it just doesn't serve them.
    b->cv.wait(lk, [&] { return b->done; });
    return;
  }
  // Last arriver: every lane has finished all pre-barrier work and started
  // none of the post-barrier work — run the global event solo.
  lk.unlock();
  sink_(std::move(b->event), ShardRouter::kGlobal);
  barriers_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> llk(lanes_[idx]->mu);
    ++lanes_[idx]->done;
    lanes_[idx]->latency_us.add(us_since(b->submitted_at));
    ++lanes_[idx]->lock_acquires;
  }
  lk.lock();
  b->done = true;
  lk.unlock();
  b->cv.notify_all();
}

void ShardedDispatcher::finish(std::uint64_t n) {
  if (inflight_.fetch_sub(n, std::memory_order_acq_rel) == n) {
    std::lock_guard<std::mutex> lk(drain_mu_);
    drain_cv_.notify_all();
  }
}

void ShardedDispatcher::drain() {
  std::unique_lock<std::mutex> lk(drain_mu_);
  drain_cv_.wait(lk, [&] { return inflight_.load(std::memory_order_acquire) == 0; });
}

std::uint64_t ShardedDispatcher::dispatched() const {
  std::uint64_t n = 0;
  for (const auto& lane : lanes_) {
    std::lock_guard<std::mutex> lk(lane->mu);
    n += lane->done;
  }
  return n;
}

ShardedDispatcher::Stats ShardedDispatcher::stats() const {
  Stats s;
  s.barriers = barriers_.load(std::memory_order_relaxed);
  s.per_shard.reserve(lanes_.size());
  for (const auto& lane : lanes_) {
    std::lock_guard<std::mutex> lk(lane->mu);
    s.per_shard.push_back(lane->done);
    s.dispatched += lane->done;
    s.batches += lane->batches;
    s.inline_batches += lane->inline_batches;
    s.lock_acquisitions += lane->lock_acquires;
    s.queue_peak = std::max(s.queue_peak, lane->peak);
    s.latency_us.merge(lane->latency_us);
    s.batch_events.merge(lane->batch_events);
  }
  return s;
}

} // namespace legosdn::ctl
