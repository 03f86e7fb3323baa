// How many CPUs this process may run on.
//
// std::thread::hardware_concurrency() counts the host's CPUs and ignores
// the affinity mask, so a process pinned with `taskset -c 0` on a 4-CPU host
// reads 4 there. The dispatcher decides whether a lane may run on the
// submitting thread from this count, and the benches record it as
// host_cpus, so both read the mask.
#pragma once

#include <sched.h>

#include <cstddef>
#include <thread>

namespace legosdn {

/// CPUs in the calling thread's affinity mask. Falls back to the host's CPU
/// count when the mask cannot be read (a host with more CPUs than a
/// cpu_set_t holds), and never returns 0.
inline std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned host = std::thread::hardware_concurrency();
  return host > 0 ? host : 1;
}

} // namespace legosdn
