// Shared benchmark-harness utilities: aligned table printing and scenario
// plumbing reused by every experiment binary (see DESIGN.md §3 for the
// experiment-id ↔ binary mapping).
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace legosdn::bench {

/// Prints an aligned text table, paper-style.
class Table {
public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  void row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print() const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
    for (const auto& r : rows_) {
      for (std::size_t i = 0; i < r.size() && i < widths.size(); ++i) {
        widths[i] = std::max(widths[i], r[i].size());
      }
    }
    auto line = [&](const std::vector<std::string>& cells) {
      std::string out;
      for (std::size_t i = 0; i < headers_.size(); ++i) {
        const std::string& c = i < cells.size() ? cells[i] : std::string{};
        out += c;
        out.append(widths[i] - c.size() + 2, ' ');
      }
      std::printf("  %s\n", out.c_str());
    };
    line(headers_);
    std::string rule;
    for (std::size_t i = 0; i < headers_.size(); ++i)
      rule.append(widths[i] + 2, '-');
    std::printf("  %s\n", rule.c_str());
    for (const auto& r : rows_) line(r);
  }

private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int decimals = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

inline std::string fmt_pct(double v, int decimals = 1) {
  return fmt(v * 100.0, decimals) + "%";
}

/// Tiny append-only JSON builder for machine-readable bench output (one
/// object per bench, printed as a single line so harnesses can grep it).
class Json {
public:
  Json& begin_obj(const char* key = nullptr) { return open(key, '{'); }
  Json& end_obj() { return close('}'); }
  Json& begin_arr(const char* key = nullptr) { return open(key, '['); }
  Json& end_arr() { return close(']'); }

  Json& kv(const char* key, double v, int decimals = 2) {
    prefix(key);
    s_ += fmt_num(v, decimals);
    return *this;
  }
  Json& kv(const char* key, std::uint64_t v) {
    prefix(key);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
    s_ += buf;
    return *this;
  }
  Json& kv(const char* key, const std::string& v) {
    prefix(key);
    s_ += '"';
    s_ += v; // bench strings carry no characters needing escapes
    s_ += '"';
    return *this;
  }
  /// Distinct name (not an overload): a kv(key, bool) overload would make
  /// integer-literal calls ambiguous against the uint64 overload.
  Json& kv_bool(const char* key, bool v) {
    prefix(key);
    s_ += v ? "true" : "false";
    return *this;
  }

  const std::string& str() const noexcept { return s_; }

private:
  Json& open(const char* key, char c) {
    prefix(key);
    s_ += c;
    need_comma_ = false;
    return *this;
  }
  Json& close(char c) {
    s_ += c;
    need_comma_ = true;
    return *this;
  }
  void prefix(const char* key) {
    if (need_comma_) s_ += ',';
    if (key) {
      s_ += '"';
      s_ += key;
      s_ += "\":";
    }
    need_comma_ = true; // the value that follows completes this element
  }
  static std::string fmt_num(double v, int decimals) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
  }

  std::string s_;
  bool need_comma_ = false;
};

/// Emit the standard latency triple (p50_us/p95_us/p99_us, optionally
/// mean_us) into the current JSON object. Every bench reports latency under
/// these exact keys; keeping them in one place stops per-bench key drift
/// that downstream parsers (scripts/check_bench.py, trajectory plots) would
/// otherwise have to chase.
inline Json& latency_kv(Json& j, const Histogram& s, bool with_mean = false) {
  j.kv("p50_us", s.percentile(50));
  j.kv("p95_us", s.percentile(95));
  j.kv("p99_us", s.percentile(99));
  if (with_mean) j.kv("mean_us", s.mean());
  return j;
}

/// The matching Table cells: {p50, p95, p99[, mean]} formatted like every
/// other latency column. Splice into a row next to the bench's own cells.
inline std::vector<std::string> latency_cells(const Histogram& s,
                                              bool with_mean = false) {
  std::vector<std::string> cells{fmt(s.percentile(50)), fmt(s.percentile(95)),
                                 fmt(s.percentile(99))};
  if (with_mean) cells.push_back(fmt(s.mean()));
  return cells;
}

/// The matching Table headers, so column titles stay in lockstep with
/// latency_cells().
inline std::vector<std::string> latency_headers(bool with_mean = false) {
  std::vector<std::string> h{"p50 (us)", "p95 (us)", "p99 (us)"};
  if (with_mean) h.push_back("mean (us)");
  return h;
}

/// True when the harness asked for a tiny run (the CI bench-smoke job sets
/// LEGOSDN_BENCH_SMOKE=1): benches shrink iteration counts and sweeps so the
/// binary exercises every code path in seconds, not minutes.
inline bool smoke() {
  const char* v = std::getenv("LEGOSDN_BENCH_SMOKE");
  return v && *v && *v != '0';
}

/// Pick an iteration count: `full` normally, `tiny` under smoke.
inline int iters(int full, int tiny) { return smoke() ? tiny : full; }

/// LEGOSDN_BATCH=0 forces the benches into unbatched mode (per-event
/// submission, commit coalescing off) for A/B runs against the default
/// batched hot path (DESIGN.md §4.7). Anything else (or unset) = batched.
inline bool batch_enabled() {
  const char* v = std::getenv("LEGOSDN_BATCH");
  return !(v && *v == '0' && v[1] == '\0');
}

/// LEGOSDN_BATCH_SIZE overrides the default injection batch size used by the
/// batched rows (default 256, the drain cadence the benches always used).
inline std::size_t batch_size(std::size_t def = 256) {
  if (const char* v = std::getenv("LEGOSDN_BATCH_SIZE")) {
    const long n = std::atol(v);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return def;
}

/// Print the machine-readable result line and, when LEGOSDN_BENCH_JSON names
/// a path, also write it there (the CI bench-smoke job uploads the file as a
/// workflow artifact — the BENCH_*.json trajectory).
inline void emit_json(const Json& j) {
  std::printf("%s\n", j.str().c_str());
  if (const char* path = std::getenv("LEGOSDN_BENCH_JSON")) {
    if (FILE* f = std::fopen(path, "w")) {
      std::fprintf(f, "%s\n", j.str().c_str());
      std::fclose(f);
    }
  }
}

inline void section(const std::string& title) {
  std::printf("\n== %s ==\n\n", title.c_str());
}

inline void note(const std::string& text) { std::printf("  %s\n", text.c_str()); }

/// Wall-clock stopwatch for the latency benches.
class Stopwatch {
public:
  void start() { t0_ = std::chrono::steady_clock::now(); }
  double elapsed_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

private:
  std::chrono::steady_clock::time_point t0_;
};

} // namespace legosdn::bench
