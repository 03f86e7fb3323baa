// Flow-setup benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints human-readable lines, then one JSON result line (the last line of
// standard output). See README.md in this directory.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/log.hpp"
#include "rig.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <fabric-paths|isolated-learning|wire-faults> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") opt.workload = v;
    else if (k == "--seed") opt.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") opt.seconds = std::atof(v);
    else if (k == "--trace") opt.trace = std::atoi(v) != 0;
    else return usage();
  }
  if (argc % 2 == 0 || !perfbench::known_workload(opt.workload) || opt.seconds <= 0)
    return usage();
  legosdn::Log::set_level(legosdn::LogLevel::kError);
  try {
    const perfbench::RunResult r = perfbench::run(opt);
    r.metrics.print(stdout);
    std::printf("%s\n", r.metrics.result_json(r.correct, r.attempted, r.failed).c_str());
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
