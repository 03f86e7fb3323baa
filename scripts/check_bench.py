#!/usr/bin/env python3
"""Bench output gate: structural checks for every BENCH_*.json, plus a
regression gate for benches that declare a headline metric.

Usage: check_bench.py [--baseline-dir DIR] [--max-regression N] PATH...

PATH is a JSON file or a directory (scanned for BENCH_*.json). Every file
must be a non-empty JSON object; a "rows" key, when present, must be a
non-empty list of objects. Files carrying a top-level "headline" object (the
convention for benches whose trajectory CI tracks) must have a positive
numeric headline.speedup; when a committed baseline of the same filename
exists in --baseline-dir, the fresh speedup must not fall more than
--max-regression times below it. The floor is deliberately loose — CI runners
vary wildly — so only an order-of-magnitude collapse (a serialization bug, a
disabled shard pool) trips it, not runner noise.
"""

import argparse
import json
import sys
from pathlib import Path


def fail(msg: str) -> None:
    print(f"check_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_structure(path: Path, doc) -> None:
    if not isinstance(doc, dict) or not doc:
        fail(f"{path}: expected a non-empty JSON object")
    rows = doc.get("rows")
    if rows is not None:
        if not isinstance(rows, list) or not rows:
            fail(f"{path}: 'rows' must be a non-empty list")
        for i, row in enumerate(rows):
            if not isinstance(row, dict) or not row:
                fail(f"{path}: rows[{i}] must be a non-empty object")


BATCH_STAT_KEYS = (
    "batches",
    "events_per_batch_p50",
    "events_per_batch_max",
    "lock_acquisitions",
)


def check_throughput(path: Path, doc) -> None:
    """Schema for BENCH_throughput.json: per-(workload, shards) rows with the
    batching flags (batched, batch_size, cpu_oversubscribed), a batch-size
    sweep, and a batched-vs-unbatched headline. Speedup floors are skipped —
    but structure checks are not — for rows flagged cpu_oversubscribed
    (shards > host CPUs: lanes time-slice one core, so lock amortization
    cannot buy wall-clock there and a floor would only measure the runner)."""
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        fail(f"{path}: 'rows' must be a non-empty list")
    for i, row in enumerate(rows):
        for key in ("shards", "batch_size", "events_per_sec", "p50_us", "p99_us"):
            if not isinstance(row.get(key), (int, float)):
                fail(f"{path}: rows[{i}].{key} must be numeric")
        if not isinstance(row.get("workload"), str):
            fail(f"{path}: rows[{i}].workload must be a string")
        for key in ("batched", "cpu_oversubscribed"):
            if not isinstance(row.get(key), bool):
                fail(f"{path}: rows[{i}].{key} must be a boolean")
        if row["shards"] > 1:
            for key in BATCH_STAT_KEYS:
                if not isinstance(row.get(key), (int, float)):
                    fail(f"{path}: rows[{i}].{key} must be numeric (sharded row)")
            if row.get("batches", 0) <= 0 or row.get("lock_acquisitions", 0) <= 0:
                fail(f"{path}: rows[{i}]: sharded row reports no batch activity")

    sweep = doc.get("batch_sweep")
    if not isinstance(sweep, list) or len(sweep) < 2:
        fail(f"{path}: 'batch_sweep' must list at least an unbatched and a "
             "batched cell")
    sizes = [r.get("batch_size") for r in sweep]
    if sizes != sorted(sizes) or sizes[0] != 1:
        fail(f"{path}: batch_sweep sizes must ascend from 1, got {sizes}")

    hb = doc.get("headline_batched")
    if not isinstance(hb, dict):
        fail(f"{path}: 'headline_batched' must be an object")
    speedup = hb.get("speedup")
    if not isinstance(speedup, (int, float)) or speedup <= 0:
        fail(f"{path}: headline_batched.speedup must be positive, got {speedup!r}")
    oversubscribed = any(
        r.get("cpu_oversubscribed") for r in rows if r.get("shards", 0) > 1
    )
    if oversubscribed:
        # Sanity floor only: batching must never make the hot path *worse*
        # than noise allows (a quadratic in the coalescing path once showed
        # up here as 0.42x). The >=1.2x floor needs real cores to mean
        # anything, so it is skipped.
        if speedup < 0.75:
            fail(
                f"{path}: headline_batched.speedup {speedup:.2f}x collapsed "
                "below 0.75x — batching is pessimizing the hot path"
            )
    elif speedup < 1.2:
        fail(
            f"{path}: headline_batched.speedup {speedup:.2f}x below the 1.2x "
            "batched-vs-unbatched floor (host has spare CPUs; amortized "
            "locking and coalesced commits should show)"
        )


def check_southbound(path: Path, doc) -> None:
    """Schema for BENCH_southbound.json (experiment C13): the socket-scale
    bench must report a handshake-storm sweep, per-(connections, shards)
    throughput rows with the standard latency triple, and — outside smoke
    mode — an actually-driven fleet of at least 5000 concurrent connections
    (the acceptance floor for the epoll southbound)."""
    handshake = doc.get("handshake")
    if not isinstance(handshake, list) or not handshake:
        fail(f"{path}: 'handshake' must be a non-empty list")
    for i, row in enumerate(handshake):
        for key in ("connections", "ms", "per_sec"):
            if not isinstance(row.get(key), (int, float)):
                fail(f"{path}: handshake[{i}].{key} must be numeric")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        fail(f"{path}: 'rows' must be a non-empty list")
    for i, row in enumerate(rows):
        for key in ("connections", "shards", "events_per_sec", "p50_us", "p99_us"):
            if not isinstance(row.get(key), (int, float)):
                fail(f"{path}: rows[{i}].{key} must be numeric")
        for key in ("batched", "cpu_oversubscribed"):
            if not isinstance(row.get(key), bool):
                fail(f"{path}: rows[{i}].{key} must be a boolean")
        for key in ("wire_batches", "wakeups", *BATCH_STAT_KEYS):
            if not isinstance(row.get(key), (int, float)):
                fail(f"{path}: rows[{i}].{key} must be numeric")
    max_conns = doc.get("max_connections")
    if not isinstance(max_conns, int) or max_conns <= 0:
        fail(f"{path}: max_connections must be a positive integer")
    if not doc.get("smoke") and max_conns < 5000:
        fail(
            f"{path}: max_connections {max_conns} below the 5000-connection "
            "floor for a full (non-smoke) southbound run"
        )


FAILOVER_STORIES = (
    "monolithic_cold_reboot",
    "legosdn_restart",
    "replicated_failover",
)


def check_failover(path: Path, doc) -> None:
    """Schema for BENCH_failover.json (experiment C14): one row per recovery
    story, a replication-stream summary proving the follower was actually fed,
    and the monolithic-vs-replicated outage headline. The replicated row must
    beat the monolithic one outright — virtual time is deterministic, so this
    is a semantics check (warm failover must not relearn), not a perf floor."""
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        fail(f"{path}: 'rows' must be a non-empty list")
    by_story = {}
    for i, row in enumerate(rows):
        if not isinstance(row.get("story"), str):
            fail(f"{path}: rows[{i}].story must be a string")
        for key in ("punts_after", "warm_ms", "state_entries"):
            if not isinstance(row.get(key), (int, float)):
                fail(f"{path}: rows[{i}].{key} must be numeric")
        if not isinstance(row.get("cpu_oversubscribed"), bool):
            fail(f"{path}: rows[{i}].cpu_oversubscribed must be a boolean")
        by_story[row["story"]] = row
    for story in FAILOVER_STORIES:
        if story not in by_story:
            fail(f"{path}: missing row for recovery story {story!r}")
    repl = doc.get("replication")
    if not isinstance(repl, dict):
        fail(f"{path}: 'replication' must be an object")
    for key in ("records_shipped", "txns_adopted", "txns_discarded"):
        if not isinstance(repl.get(key), (int, float)):
            fail(f"{path}: replication.{key} must be numeric")
    if repl["records_shipped"] <= 0:
        fail(f"{path}: replication.records_shipped is 0 — the follower was "
             "never fed, so the failover row measured a cold controller")
    mono = by_story["monolithic_cold_reboot"]
    warm = by_story["replicated_failover"]
    if warm["warm_ms"] >= mono["warm_ms"]:
        fail(f"{path}: replicated failover outage ({warm['warm_ms']}ms) is no "
             f"better than a monolithic cold reboot ({mono['warm_ms']}ms)")
    if warm["punts_after"] > 0:
        fail(f"{path}: replicated failover punted {warm['punts_after']} flows "
             "— promotion relearned state it should have inherited warm")


def check_isolation_latency(path: Path, doc) -> None:
    """Schema for BENCH_isolation_latency.json (experiments F1/C1): the run
    records host_cpus, every process row reports rpc_calls_per_event, and a
    per-event checkpoint costs at most one RPC per event (the stub ships the
    post-event state on the deliver's reply). Counts, not timings, so they
    hold on any runner."""
    cpus = doc.get("host_cpus")
    if not isinstance(cpus, int) or isinstance(cpus, bool) or cpus < 1:
        fail(f"{path}: 'host_cpus' must be a positive integer")
    rows = doc.get("paths")
    if not isinstance(rows, list) or not rows:
        fail(f"{path}: 'paths' must be a non-empty list")
    process_rows = [r for r in rows if "UDP" in str(r.get("path", ""))]
    for r in process_rows:
        if not isinstance(r.get("rpc_calls_per_event"), (int, float)):
            fail(f"{path}: process row {r.get('path')!r} lacks rpc_calls_per_event")
    ckpt = [r for r in process_rows if "per-event checkpoint" in r["path"]]
    if len(ckpt) != 1:
        fail(f"{path}: expected one per-event-checkpoint process row, got {len(ckpt)}")
    rpcs = ckpt[0]["rpc_calls_per_event"]
    if rpcs > 1.0:
        fail(f"{path}: per-event checkpoint makes {rpcs:.3f} RPCs per event "
             "(> 1.0): the snapshot is not riding on the deliver's reply")


def check_ablation(path: Path, doc) -> None:
    """Schema for BENCH_ablation.json (experiment A1): one row per
    configuration with flows_per_ms, vs_full, txns_committed and
    verify_overlays. Undo-log applies reach the switches before verification,
    so the full row must commit verified transactions without building a
    single pending-rule overlay; delay-buffer NetLog holds its flow-mods
    until commit, so its row must build overlays. Counts, not timings, so
    they hold on any runner."""
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        fail(f"{path}: 'rows' must be a non-empty list")
    by_config = {}
    for i, row in enumerate(rows):
        if not isinstance(row.get("config"), str):
            fail(f"{path}: rows[{i}].config must be a string")
        for key in ("flows_per_ms", "vs_full", "txns_committed", "verify_overlays"):
            if not isinstance(row.get(key), (int, float)):
                fail(f"{path}: rows[{i}].{key} must be numeric")
        by_config[row["config"]] = row
    for config in ("full", "delay_buffer"):
        if config not in by_config:
            fail(f"{path}: missing row for configuration {config!r}")
    full = by_config["full"]
    if full["txns_committed"] <= 0:
        fail(f"{path}: the full row committed no transactions")
    if full["verify_overlays"] != 0:
        fail(f"{path}: the full (undo-log) row built {full['verify_overlays']} "
             "pending-rule overlays; its flow-mods had landed, so verification "
             "should read the live tables")
    if by_config["delay_buffer"]["verify_overlays"] <= 0:
        fail(f"{path}: the delay-buffer row built no pending-rule overlay; its "
             "flow-mods are held until commit, so verification must overlay them")


def check_checkpoint(path: Path, doc) -> None:
    """Schema for BENCH_checkpoint.json (experiment C2b): one pipeline row per
    state size, each with a boolean restore_ok that is true only when the
    store's newest and oldest retained snapshots equal the bench's own
    captures byte for byte. A correctness flag, not a timing, so it holds on
    any runner."""
    rows = doc.get("pipeline")
    if not isinstance(rows, list) or not rows:
        fail(f"{path}: 'pipeline' must be a non-empty list")
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or not isinstance(row.get("restore_ok"), bool):
            fail(f"{path}: pipeline[{i}].restore_ok must be a boolean")
        if not row["restore_ok"]:
            fail(f"{path}: pipeline[{i}] (state_bytes {row.get('state_bytes')}) "
                 "restored a snapshot that differs from its capture")


def headline_speedup(path: Path, doc) -> float | None:
    headline = doc.get("headline")
    if headline is None:
        return None
    if not isinstance(headline, dict):
        fail(f"{path}: 'headline' must be an object")
    speedup = headline.get("speedup")
    if not isinstance(speedup, (int, float)) or speedup <= 0:
        fail(f"{path}: headline.speedup must be a positive number, got {speedup!r}")
    return float(speedup)


def check_file(path: Path, baseline_dir: Path, max_regression: float) -> str:
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    check_structure(path, doc)
    if doc.get("bench") == "southbound":
        check_southbound(path, doc)
    if doc.get("bench") == "throughput":
        check_throughput(path, doc)
    if doc.get("bench") == "failover":
        check_failover(path, doc)
    if doc.get("bench") == "isolation_latency":
        check_isolation_latency(path, doc)
    if doc.get("bench") == "ablation":
        check_ablation(path, doc)
    if doc.get("bench") == "checkpoint":
        check_checkpoint(path, doc)

    speedup = headline_speedup(path, doc)
    if speedup is None:
        return f"{path}: structure ok (no headline)"

    base_path = baseline_dir / path.name
    if not base_path.is_file():
        return f"{path}: headline speedup {speedup:.2f}x (no baseline at {base_path})"
    base_doc = json.loads(base_path.read_text())
    base = headline_speedup(base_path, base_doc)
    if base is None:
        return f"{path}: headline speedup {speedup:.2f}x (baseline has no headline)"
    floor = base / max_regression
    if speedup < floor:
        fail(
            f"{path}: headline speedup {speedup:.2f}x regressed below "
            f"{floor:.2f}x (baseline {base:.2f}x / {max_regression:g})"
        )
    return f"{path}: headline speedup {speedup:.2f}x >= floor {floor:.2f}x (baseline {base:.2f}x)"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("paths", nargs="+", type=Path)
    ap.add_argument("--baseline-dir", type=Path, default=Path("."))
    ap.add_argument("--max-regression", type=float, default=5.0)
    args = ap.parse_args()

    files: list[Path] = []
    for p in args.paths:
        if p.is_dir():
            files.extend(sorted(p.glob("BENCH_*.json")))
        else:
            files.append(p)
    if not files:
        fail(f"no bench JSON files found under {[str(p) for p in args.paths]}")

    for f in files:
        print(check_file(f, args.baseline_dir, args.max_regression))
    print(f"check_bench: {len(files)} file(s) ok")


if __name__ == "__main__":
    main()
