#include "checkpoint/checkpoint_worker.hpp"

namespace legosdn::checkpoint {

CheckpointWorker::CheckpointWorker(SnapshotStore& store, Config cfg)
    : store_(store), cfg_(cfg) {
  if (cfg_.max_queue == 0) cfg_.max_queue = 1;
  if (cfg_.async) thread_ = std::thread([this] { run(); });
}

CheckpointWorker::~CheckpointWorker() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void CheckpointWorker::submit(AppId app, std::uint64_t event_seq,
                              SimTime taken_at, Bytes state) {
  Job job{app, event_seq, taken_at, std::move(state),
          std::chrono::steady_clock::now()};
  {
    std::lock_guard lock(stats_mu_);
    stats_.submitted += 1;
    stats_.raw_bytes += job.state.size();
  }
  if (!cfg_.async) {
    encode_and_store(std::move(job), /*via_queue=*/false);
    return;
  }
  bool backpressure = false;
  {
    std::lock_guard lock(mu_);
    if (queue_.size() < cfg_.max_queue) {
      queue_.push_back(std::move(job));
    } else {
      backpressure = true;
    }
  }
  if (!backpressure) {
    work_cv_.notify_one();
    return;
  }
  {
    std::lock_guard lock(stats_mu_);
    stats_.inline_encodes += 1;
  }
  // Queue full: storing inline would race the worker thread for this app's
  // newest snapshot, so drain the queue first — the hot path pays for the
  // backlog, which is exactly what backpressure means.
  flush();
  encode_and_store(std::move(job), /*via_queue=*/false);
}

void CheckpointWorker::run() {
  for (;;) {
    Job job;
    {
      std::unique_lock lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return; // stop && drained
      job = std::move(queue_.front());
      queue_.pop_front();
      active_ += 1;
    }
    encode_and_store(std::move(job), /*via_queue=*/true);
    {
      std::lock_guard lock(mu_);
      active_ -= 1;
    }
    drain_cv_.notify_all();
  }
}

void CheckpointWorker::encode_and_store(Job job, bool via_queue) {
  if (cfg_.encode_delay.count() > 0)
    std::this_thread::sleep_for(cfg_.encode_delay);

  const SnapshotStore::Put put =
      store_.put(job.app, job.event_seq, job.taken_at, std::move(job.state));

  const double lag_us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - job.submitted_at)
                            .count();
  std::lock_guard lock(stats_mu_);
  if (via_queue) {
    stats_.encoded_async += 1;
  } else {
    stats_.encoded_inline += 1;
  }
  if (put.first) {
    stats_.full_snapshots += 1;
  } else {
    stats_.delta_snapshots += 1;
  }
  stats_.stored_bytes += put.stored_bytes;
  stats_.encode_lag_us.add(lag_us);
}

void CheckpointWorker::flush() {
  std::unique_lock lock(mu_);
  drain_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

std::size_t CheckpointWorker::in_flight() const {
  std::lock_guard lock(mu_);
  return queue_.size() + active_;
}

CheckpointWorker::Stats CheckpointWorker::stats() const {
  std::lock_guard lock(stats_mu_);
  return stats_;
}

} // namespace legosdn::checkpoint
