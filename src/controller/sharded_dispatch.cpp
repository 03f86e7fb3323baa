#include "controller/sharded_dispatch.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace legosdn::ctl {

namespace {

double us_since(std::chrono::steady_clock::time_point start) {
  const auto dt = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::micro>(dt).count();
}

} // namespace

ShardedDispatcher::ShardedDispatcher(Config cfg, Sink sink)
    : cfg_(std::move(cfg)), sink_(std::move(sink)), router_(cfg_.shards) {
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
  std::deque<Item> local; // double buffer: swapped with lane.queue per wakeup
  // The current batch's latencies, recorded into lane.latency_us under the
  // lock close_batch takes anyway; reused so a batch costs no allocation.
  std::vector<double> run_latency;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(lane.mu);
      lane.cv.wait(lk, [&] { return lane.stop || !lane.queue.empty(); });
      if (lane.queue.empty()) return; // stop requested and fully drained
      local.swap(lane.queue);
      ++lane.lock_acquires;
    }

    // Execute the drained items; `run_done` counts the current batch — the
    // maximal run of local events between swaps/barriers.
    std::uint64_t run_done = 0;
    auto close_batch = [&] {
      if (run_done == 0) return;
      // Boundary hook first, completion accounting second: drain() must not
      // return between a batch's last event and its coalesced-txn flush.
      if (cfg_.on_batch_end) cfg_.on_batch_end(idx);
      {
        std::lock_guard<std::mutex> lk(lane.mu);
        lane.done += run_done;
        lane.batches += 1;
        lane.batch_events.add(static_cast<double>(run_done));
        for (const double us : run_latency) lane.latency_us.add(us);
        ++lane.lock_acquires;
      }
      finish(run_done);
      run_done = 0;
      run_latency.clear();
    };

    while (!local.empty()) {
      Item item = std::move(local.front());
      local.pop_front();
      if (item.barrier) {
        close_batch(); // flush coalesced state before parking at the barrier
        arrive_barrier(item.barrier, idx);
        finish(1);
      } else {
        sink_(std::move(item.event), idx);
        ++run_done;
        run_latency.push_back(us_since(item.submitted_at));
      }
    }
    close_batch();
  }
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
    s.lock_acquisitions += lane->lock_acquires;
    s.queue_peak = std::max(s.queue_peak, lane->peak);
    s.latency_us.merge(lane->latency_us);
    s.batch_events.merge(lane->batch_events);
  }
  return s;
}

} // namespace legosdn::ctl
