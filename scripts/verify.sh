#!/usr/bin/env bash
# Single verification entry point — CI calls exactly this script, so a local
# `scripts/verify.sh <cmd>` reproduces any CI job bit-for-bit.
#
# Usage: scripts/verify.sh [command]
#
#   (none)       tier-1 flow: build + asan (the pre-commit gate)
#   build        configure + build + ctest. Honours BUILD_TYPE (default
#                RelWithDebInfo), CC/CXX, and CMAKE_CXX_COMPILER_LAUNCHER
#                (CI sets ccache); out-of-source in build-ci/ when any of
#                those is set, the plain `default` preset otherwise.
#   asan         the asan preset (ASan+UBSan) build + ctest.
#   tsan         the tsan preset (ThreadSanitizer) build, then the
#                concurrency-relevant test binaries run directly (controller,
#                legosdn, checkpoint, netlog, sharded dispatch) — the gate
#                for the sharded parallel event pipeline. Honours
#                LEGOSDN_SHARD_DIFF_SEEDS (default 10 here: TSan is ~15x
#                slower and the differential runs at 50 seeds in plain ctest).
#   socket-tests the loopback-socket suite (southbound epoll server), run
#                directly from a release build. It opens real TCP sockets;
#                the dedicated CI job keeps an EMFILE or firewalled runner
#                from reading as a logic regression in the main matrix.
#                (wire10_test opens no sockets; every ctest job runs it.)
#   bench-smoke  run the JSON-emitting benches (checkpoint, isolation
#                latency, flow table, netlog, micro, throughput, southbound,
#                failover, ablation) with tiny iteration counts
#                (LEGOSDN_BENCH_SMOKE=1), assert exit 0 and
#                that each emits parseable JSON into bench-out/, then gate
#                them with scripts/check_bench.py against the committed
#                BENCH_*.json baselines (order-of-magnitude floor on
#                headline speedups).
#   perfbench-build
#                configure and build perfbench/ (the flow-setup benchmark
#                BENCHMARK.json runs; it compiles ../src) into
#                build-perfbench/ without running it, so a src/ API change
#                that breaks the benchmark fails here. Honours
#                CMAKE_CXX_COMPILER_LAUNCHER like `build`.
#   fuzz-smoke   run the differential scenario fuzzer over a reduced seed
#                batch (LEGOSDN_FUZZ_SCRIPTS, default 20): every generated
#                churn script must converge identically under LegoSDN-with-
#                faults and the fault-free monolithic reference.
#   format       clang-format --dry-run -Werror over src/ tests/ bench/.
#                Skips (exit 0) when clang-format is not installed locally;
#                CI pins a version so the check is authoritative there.
set -euo pipefail
cd "$(dirname "$0")/.."

cmd_build() {
  if [ -n "${BUILD_TYPE:-}" ] || [ -n "${CC:-}" ] || [ -n "${CXX:-}" ] ||
     [ -n "${CMAKE_CXX_COMPILER_LAUNCHER:-}" ]; then
    local dir="build-ci"
    cmake -B "$dir" -S . \
      -DCMAKE_BUILD_TYPE="${BUILD_TYPE:-RelWithDebInfo}" \
      ${CMAKE_CXX_COMPILER_LAUNCHER:+-DCMAKE_CXX_COMPILER_LAUNCHER="$CMAKE_CXX_COMPILER_LAUNCHER"} \
      ${CMAKE_CXX_COMPILER_LAUNCHER:+-DCMAKE_C_COMPILER_LAUNCHER="$CMAKE_CXX_COMPILER_LAUNCHER"}
    cmake --build "$dir" -j "$(nproc)"
    ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
  else
    cmake --preset default
    cmake --build --preset default -j "$(nproc)"
    ctest --preset default
  fi
}

cmd_asan() {
  cmake --preset asan
  cmake --build --preset asan -j "$(nproc)"
  ctest --preset asan
}

cmd_tsan() {
  cmake --preset tsan
  cmake --build --preset tsan -j "$(nproc)"
  # GTest registers Suite.Test names with ctest, so running the binaries
  # directly is both faster and gives one TSan report per suite. These are
  # the suites that exercise the shard lanes, stripe locks and the
  # checkpoint worker — the code TSan exists to police.
  local t
  for t in controller_test sharded_dispatch_test legosdn_test \
           checkpoint_test checkpoint_pipeline_test netlog_test \
           southbound_test; do
    echo "== tsan: $t =="
    TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    LEGOSDN_SHARD_DIFF_SEEDS="${LEGOSDN_SHARD_DIFF_SEEDS:-10}" \
      "./build-tsan/tests/$t" --gtest_brief=1
  done
}

cmd_socket_tests() {
  local dir="build"
  [ -d build-ci ] && dir="build-ci"
  cmake --build "$dir" -j "$(nproc)" --target southbound_test
  echo "== socket: southbound_test =="
  "./$dir/tests/southbound_test" --gtest_brief=1
}

cmd_bench_smoke() {
  local dir="build"
  [ -d build-ci ] && dir="build-ci"
  local benches="bench_checkpoint bench_isolation_latency bench_flow_table bench_netlog bench_micro bench_throughput bench_southbound bench_failover bench_ablation"
  # shellcheck disable=SC2086
  cmake --build "$dir" -j "$(nproc)" --target $benches
  mkdir -p bench-out
  local bench
  for bench in $benches; do
    local json="bench-out/BENCH_${bench#bench_}.json"
    LEGOSDN_BENCH_SMOKE=1 LEGOSDN_BENCH_JSON="$json" "./$dir/bench/$bench"
  done
  python3 scripts/check_bench.py bench-out --baseline-dir .
}

cmd_perfbench_build() {
  cmake -B build-perfbench -S perfbench -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    ${CMAKE_CXX_COMPILER_LAUNCHER:+-DCMAKE_CXX_COMPILER_LAUNCHER="$CMAKE_CXX_COMPILER_LAUNCHER"}
  cmake --build build-perfbench -j "$(nproc)" --target perfbench
}

cmd_fuzz_smoke() {
  local dir="build"
  [ -d build-ci ] && dir="build-ci"
  cmake --build "$dir" -j "$(nproc)" --target scenario_fuzz_test
  LEGOSDN_FUZZ_SCRIPTS="${LEGOSDN_FUZZ_SCRIPTS:-20}" \
    "./$dir/tests/scenario_fuzz_test" --gtest_brief=1
}

cmd_format() {
  if ! command -v clang-format >/dev/null 2>&1; then
    echo "clang-format not installed; skipping format check (CI enforces it)"
    return 0
  fi
  clang-format --version
  find src tests bench -name '*.cpp' -o -name '*.hpp' | xargs \
    clang-format --dry-run -Werror
}

case "${1:-all}" in
  build)        cmd_build ;;
  asan)         cmd_asan ;;
  tsan)         cmd_tsan ;;
  socket-tests) cmd_socket_tests ;;
  bench-smoke)  cmd_bench_smoke ;;
  perfbench-build) cmd_perfbench_build ;;
  fuzz-smoke)   cmd_fuzz_smoke ;;
  format)       cmd_format ;;
  all)
    cmd_build
    if [ "${LEGOSDN_SKIP_ASAN:-0}" != "1" ]; then
      cmd_asan
    fi
    ;;
  *)
    echo "unknown command: $1 (expected build|asan|tsan|socket-tests|bench-smoke|perfbench-build|fuzz-smoke|format)" >&2
    exit 2
    ;;
esac
