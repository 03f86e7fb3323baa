// One benchmark run: build a workload's LegoSDN deployment, drive it with
// seeded open-loop packet-ins, check the outcome against a fault-free serial
// replay, and collect the end-to-end (or, traced, the per-layer) metrics.
#pragma once

#include <cstdint>
#include <string>

#include "util.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;   ///< length of the fixed-rate (open-loop) phase
  bool trace = false;
};

struct RunResult {
  Metrics metrics;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

bool known_workload(const std::string& name);
RunResult run(const Options& opt);

} // namespace perfbench
