// Experiment C11: flow-table lookup scaling — the two-tier classifier vs the
// reference linear scan (DESIGN.md §4.3).
//
// Every dataplane hop, every NetLog shadow replay, and every invariant-check
// trace runs FlowTable::match_packet/peek, so its cost bounds how large a
// simulated ruleset stays interactive. This bench sweeps table size under an
// exact-heavy mix (learning-switch style: almost every rule is a fully
// specified microflow), a wildcard-heavy mix (aggregated prefixes and
// port matches), and a many-tuple mix (wildcard rules spread across ~40
// distinct mask tuples — the tuple-space-search stress case), timing the
// indexed FlowTable against ReferenceFlowTable — the retained linear
// oracle — on identical rulesets and query streams. It also times an idle
// expire() tick: the deadline heap answers "nothing due" in O(1) where the
// reference rescans the whole table.
//
// The JSON line carries per-row p50s plus the headlines the CI trajectory
// tracks: `speedup_4k_exact`, `speedup_4k_wild`, and `speedup_4k_many`
// (indexed vs reference at 4096 rules per workload).
#include <cstdint>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "netsim/flow_table.hpp"
#include "netsim/reference_flow_table.hpp"

namespace {

using namespace legosdn;
using netsim::FlowEntry;

constexpr SimTime kT0{0};

struct Query {
  PortNo in_port{};
  of::PacketHeader hdr{};
};

of::PacketHeader exact_header(std::uint64_t i) {
  of::PacketHeader h;
  h.eth_src = MacAddress::from_uint64(0xA0'0000 + i);
  h.eth_dst = MacAddress::from_uint64(0xB0'0000 + i);
  h.ip_src = IpV4{0x0A00'0000u + static_cast<std::uint32_t>(i)};
  h.ip_dst = IpV4{0x0B00'0000u + static_cast<std::uint32_t>(i)};
  h.tp_src = static_cast<std::uint16_t>(1024 + i % 40'000);
  h.tp_dst = static_cast<std::uint16_t>(2048 + i % 40'000);
  return h;
}

/// Wildcard rule spread over ~40 distinct mask tuples (tuple-space stress):
/// every rule pins eth_dst (so identities stay unique via `i`) plus a subset
/// of {ip_dst at varying prefix depth, tp_dst, eth_type, in_port}, and each
/// tuple gets its own priority so the descending group scan and its early
/// exit are both exercised. A miss probes every group once — the TSS worst
/// case — where the reference scans every wildcard rule.
of::FlowMod many_tuple_rule(std::size_t i) {
  const std::size_t t = i % 64;
  const auto fields = static_cast<std::uint32_t>(t % 16);
  const auto prefix = static_cast<std::uint8_t>(8 * (1 + t / 16)); // 8..32
  of::FlowMod mod;
  mod.match.with_eth_dst(MacAddress::from_uint64(0xB0'0000 + i));
  if (fields & 1)
    mod.match.with_ip_dst(IpV4{0x0B00'0000u + static_cast<std::uint32_t>(i)}, prefix);
  if (fields & 2)
    mod.match.with_tp_dst(static_cast<std::uint16_t>(2048 + i % 40'000));
  if (fields & 4) mod.match.with_eth_type(of::kEthTypeIpv4);
  if (fields & 8) mod.match.with_in_port(PortNo{1});
  mod.priority = static_cast<std::uint16_t>(100 + t);
  mod.actions = of::output_to(PortNo{3});
  return mod;
}

/// Build `size` ADD flow-mods: `exact_frac` fully specified microflows, the
/// rest aggregated wildcard rules — either the 4-mask mix (eth_dst, ip_dst/24,
/// tp_dst, catch-all) or, with `many_tuple`, rules spread across ~40 distinct
/// mask tuples. No timeouts: the expire-tick measurement below wants a
/// permanently "nothing due" table.
std::vector<of::FlowMod> build_ruleset(std::size_t size, double exact_frac,
                                       bool many_tuple = false) {
  std::vector<of::FlowMod> rules;
  rules.reserve(size);
  const auto n_exact = static_cast<std::size_t>(static_cast<double>(size) * exact_frac);
  for (std::size_t i = 0; i < n_exact; ++i) {
    of::FlowMod mod;
    mod.match = of::Match::exact(PortNo{1}, exact_header(i));
    mod.priority = 0x8000;
    mod.actions = of::output_to(PortNo{2});
    rules.push_back(std::move(mod));
  }
  if (many_tuple) {
    for (std::size_t i = n_exact; i < size; ++i)
      rules.push_back(many_tuple_rule(i));
    return rules;
  }
  for (std::size_t i = n_exact; i < size; ++i) {
    of::FlowMod mod;
    switch (i % 4) {
      case 0:
        mod.match = of::Match{}.with_eth_dst(MacAddress::from_uint64(0xB0'0000 + i));
        mod.priority = 300;
        break;
      case 1:
        mod.match = of::Match{}.with_ip_dst(
            IpV4{0x0B00'0000u + static_cast<std::uint32_t>(i & ~0xFFu)}, 24);
        mod.priority = 200;
        break;
      case 2:
        mod.match =
            of::Match{}.with_tp_dst(static_cast<std::uint16_t>(2048 + i % 40'000));
        mod.priority = 100;
        break;
      default:
        mod.match = of::Match{}.with_eth_type(of::kEthTypeIpv4);
        mod.priority = 1; // catch-all floor
        break;
    }
    mod.actions = of::output_to(PortNo{3});
    rules.push_back(std::move(mod));
  }
  return rules;
}

/// `hit_frac` of queries replay an installed microflow header (exact-tier
/// hit); the rest carry headers outside the exact population, falling
/// through to the wildcard tier / table miss — the scan-heavy worst case.
std::vector<Query> build_queries(std::size_t n_exact_rules, std::size_t n_queries,
                                 double hit_frac, Rng& rng) {
  std::vector<Query> qs;
  qs.reserve(n_queries);
  for (std::size_t q = 0; q < n_queries; ++q) {
    Query query;
    query.in_port = PortNo{1};
    if (n_exact_rules > 0 && rng.chance(hit_frac)) {
      query.hdr = exact_header(rng.below(n_exact_rules));
    } else {
      query.hdr = exact_header(0x10'0000 + rng.below(1 << 16)); // no exact rule
      query.hdr.eth_dst = MacAddress::from_uint64(0xB0'0000 + rng.below(1 << 18));
    }
    qs.push_back(query);
  }
  return qs;
}

template <class TableT>
void install(TableT& table, const std::vector<of::FlowMod>& rules) {
  for (const auto& mod : rules) {
    const auto res = table.apply(mod, kT0);
    if (!res.ok) {
      std::fprintf(stderr, "install failed: %s\n", res.error.c_str());
      std::abort();
    }
  }
}

/// p50/p95 ns per lookup, sampled per batch (one batch = the whole query
/// stream) so a sample amortizes clock overhead across thousands of calls.
template <class TableT>
Histogram time_lookups(TableT& table, const std::vector<Query>& queries, int samples,
                       std::uint64_t& hits) {
  Histogram ns_per_lookup;
  for (int s = 0; s < samples; ++s) {
    bench::Stopwatch sw;
    sw.start();
    std::uint64_t batch_hits = 0;
    for (const auto& q : queries) {
      if (table.match_packet(q.in_port, q.hdr, 64, kT0) != nullptr) batch_hits += 1;
    }
    ns_per_lookup.add(sw.elapsed_us() * 1000.0 /
                      static_cast<double>(queries.size()));
    hits = batch_hits; // identical every pass; kept as the optimizer sink
  }
  return ns_per_lookup;
}

/// ns per expire() call on a table where nothing is due.
template <class TableT>
double time_idle_expire(TableT& table, int calls) {
  bench::Stopwatch sw;
  sw.start();
  std::uint64_t removed = 0;
  for (int i = 0; i < calls; ++i) removed += table.expire(kT0).size();
  const double ns = sw.elapsed_us() * 1000.0 / static_cast<double>(calls);
  if (removed != 0) std::abort(); // ruleset has no timeouts
  return ns;
}

struct Row {
  std::string workload;
  std::size_t size = 0;
  double indexed_p50 = 0, indexed_p95 = 0;
  double reference_p50 = 0, reference_p95 = 0;
  double speedup = 0;
  double indexed_expire_ns = 0, reference_expire_ns = 0;
  double hit_rate = 0;
};

} // namespace

int main() {
  bench::section(
      "C11: flow-table lookup scaling — two-tier classifier vs linear scan");

  const std::vector<std::size_t> sizes = bench::smoke()
                                             ? std::vector<std::size_t>{64, 512}
                                             : std::vector<std::size_t>{64, 512, 4096,
                                                                        65536};
  struct Workload {
    const char* name;
    double exact_frac;
    double hit_frac;
    bool many_tuple;
  };
  const Workload workloads[] = {
      {"exact-heavy", 0.9375, 0.75, false}, // learning-switch microflow table
      {"wildcard-heavy", 0.5, 0.5, false},  // aggregated prefixes and port rules
      {"many-tuple", 0.5, 0.5, true},       // ~40 distinct wildcard mask tuples
  };
  const std::size_t n_queries = bench::smoke() ? 256 : 2048;
  const int samples = bench::iters(15, 3);
  const int expire_calls = bench::iters(2000, 50);

  std::vector<Row> rows;
  double speedup_4k_exact = 0, speedup_4k_wild = 0, speedup_4k_many = 0;

  bench::Table table({"workload", "rules", "indexed p50 (ns)", "reference p50 (ns)",
                      "speedup", "idle expire idx/ref (ns)", "hit rate"});
  for (const auto& w : workloads) {
    for (const std::size_t size : sizes) {
      const auto rules = build_ruleset(size, w.exact_frac, w.many_tuple);
      const auto n_exact =
          static_cast<std::size_t>(static_cast<double>(size) * w.exact_frac);
      Rng rng(0xC8 + size);
      const auto queries = build_queries(n_exact, n_queries, w.hit_frac, rng);

      netsim::FlowTable indexed;
      netsim::ReferenceFlowTable reference;
      install(indexed, rules);
      install(reference, rules);

      // Sanity: both classifiers agree on every query before any timing.
      for (const auto& q : queries) {
        const FlowEntry* a = indexed.peek(q.in_port, q.hdr);
        const FlowEntry* b = reference.peek(q.in_port, q.hdr);
        if ((a == nullptr) != (b == nullptr) || (a && a->seq != b->seq)) {
          std::fprintf(stderr, "classifier divergence at size %zu\n", size);
          return 1;
        }
      }

      Row r;
      r.workload = w.name;
      r.size = size;
      std::uint64_t hits = 0;
      auto idx = time_lookups(indexed, queries, samples, hits);
      r.indexed_p50 = idx.percentile(50);
      r.indexed_p95 = idx.percentile(95);
      r.hit_rate = static_cast<double>(hits) / static_cast<double>(queries.size());
      auto ref = time_lookups(reference, queries, samples, hits);
      r.reference_p50 = ref.percentile(50);
      r.reference_p95 = ref.percentile(95);
      r.speedup = r.indexed_p50 > 0 ? r.reference_p50 / r.indexed_p50 : 0;
      r.indexed_expire_ns = time_idle_expire(indexed, expire_calls);
      r.reference_expire_ns = time_idle_expire(reference, expire_calls);
      if (size == 4096) {
        if (r.workload == "exact-heavy") speedup_4k_exact = r.speedup;
        if (r.workload == "wildcard-heavy") speedup_4k_wild = r.speedup;
        if (r.workload == "many-tuple") speedup_4k_many = r.speedup;
      }

      table.row({r.workload, std::to_string(r.size), bench::fmt(r.indexed_p50, 1),
                 bench::fmt(r.reference_p50, 1), bench::fmt(r.speedup, 1) + "x",
                 bench::fmt(r.indexed_expire_ns, 1) + " / " +
                     bench::fmt(r.reference_expire_ns, 1),
                 bench::fmt_pct(r.hit_rate)});
      rows.push_back(std::move(r));
    }
  }
  table.print();
  std::printf("\n");
  bench::note("Shape: indexed p50 stays flat as rules grow (exact hash tier +");
  bench::note("tuple-space wildcard tier with priority early-exit); the");
  bench::note("reference scan grows linearly. Idle expire is O(1) against the");
  bench::note("deadline heap vs a full rescan.");

  bench::Json j;
  j.begin_obj().kv("bench", std::string("flow_table"));
  j.kv("queries", static_cast<std::uint64_t>(n_queries));
  j.begin_arr("rows");
  for (const auto& r : rows) {
    j.begin_obj()
        .kv("workload", r.workload)
        .kv("rules", static_cast<std::uint64_t>(r.size))
        .kv("indexed_p50_ns", r.indexed_p50)
        .kv("indexed_p95_ns", r.indexed_p95)
        .kv("reference_p50_ns", r.reference_p50)
        .kv("reference_p95_ns", r.reference_p95)
        .kv("speedup_p50", r.speedup)
        .kv("indexed_idle_expire_ns", r.indexed_expire_ns)
        .kv("reference_idle_expire_ns", r.reference_expire_ns)
        .kv("hit_rate", r.hit_rate)
        .end_obj();
  }
  j.end_arr();
  if (speedup_4k_exact > 0) j.kv("speedup_4k_exact", speedup_4k_exact, 1);
  if (speedup_4k_wild > 0) j.kv("speedup_4k_wild", speedup_4k_wild, 1);
  if (speedup_4k_many > 0) j.kv("speedup_4k_many", speedup_4k_many, 1);
  j.end_obj();
  bench::emit_json(j);
  return 0;
}
