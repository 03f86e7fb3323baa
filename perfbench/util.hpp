// Small helpers shared by the benchmark program: clocks, CPU accounting,
// thread placement, percentiles and the metric map printed as the result
// line.
#pragma once

#include <sched.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Sleep until `t_ns`, then spin the last stretch: open-loop sends must leave
/// on schedule, and a plain sleep overshoots by tens of microseconds.
inline void wait_until_ns(std::int64_t t_ns) {
  constexpr std::int64_t kSpinNs = 60'000;
  const std::int64_t left = t_ns - now_ns();
  if (left > kSpinNs)
    std::this_thread::sleep_for(std::chrono::nanoseconds(left - kSpinNs));
  while (now_ns() < t_ns) {
  }
}

inline double clock_us(clockid_t clk) {
  timespec ts{};
  if (clock_gettime(clk, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}

/// CPU time of the calling thread.
inline double thread_cpu_us() { return clock_us(CLOCK_THREAD_CPUTIME_ID); }

inline double rusage_cpu_us(int who) {
  rusage ru{};
  getrusage(who, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

/// This process plus every reaped child (crashed stubs end up here).
inline double process_cpu_us() {
  return rusage_cpu_us(RUSAGE_SELF) + rusage_cpu_us(RUSAGE_CHILDREN);
}

/// CPU time of a live child process (an isolation stub); 0 if it is gone.
inline double child_cpu_us(pid_t pid) {
  if (pid <= 0) return 0;
  clockid_t clk{};
  if (clock_getcpuclockid(pid, &clk) != 0) return 0;
  return clock_us(clk);
}

/// Run the whole benchmark on one CPU, the first it may use: every thread
/// and process created after this call inherits it. On a shared VM a
/// thread woken on an idle virtual CPU starts only once the hypervisor runs
/// that CPU again, after a delay set by the other guests; on one CPU a
/// hand-off between the generator, the controller, its lanes and its stubs
/// is a thread switch instead.
inline void pin_to_one_cpu() {
  cpu_set_t all;
  CPU_ZERO(&all);
  if (sched_getaffinity(0, sizeof(all), &all) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &all)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

/// Peak resident set of this process, in MiB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Nearest-rank percentile (p in [0, 100]) of unsorted samples; 0 if empty.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(p / 100.0 * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50); }

inline double ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// Named metrics with units, printed in insertion-independent (sorted) order.
class Metrics {
public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }

  /// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
  std::string result_json(bool correct, std::uint64_t attempted,
                          std::uint64_t failed) const {
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, vu] : values_) {
      if (!first) s += ", ";
      first = false;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.9g", vu.first);
      s += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + vu.second + "\"}";
    }
    s += "}}";
    return s;
  }

  /// Human-readable dump, one metric per line.
  void print(std::FILE* f) const {
    for (const auto& [name, vu] : values_)
      std::fprintf(f, "  %-40s %14.4f %s\n", name.c_str(), vu.first, vu.second.c_str());
  }

private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

} // namespace perfbench
