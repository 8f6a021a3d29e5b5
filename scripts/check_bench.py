#!/usr/bin/env python3
"""Validate the repro harness's committed/regenerated benchmark reports.

Usage:
    python3 scripts/check_bench.py [--expect-scale SCALE] FILE [FILE ...]

Each FILE is one of the JSON reports the `repro` binary writes
(BENCH_cluster.json, BENCH_soak.json, BENCH_faults.json); the experiment
is inferred from the report's own "experiment" field, and any other
experiment name is rejected. The script asserts the structural invariants
each experiment guarantees, plus the design bars:

* faults — the chaos soak: faults actually injected, every injected
  merge panic counted exactly once as a merge failure, at least one degraded
  read-only episode with reads still answering, positive recovery time
  and under-fault throughput (zero means a hang), post-heal answers
  bit-identical to the unfaulted twin, and the journal written through
  the faults recovering to those same answers.
* soak — the long-haul sliding-window run: several window-lengths of
  stream through a windowed engine, RSS flat after warm-up (<= 1.25x —
  a per-doc leak over 8 window turnovers would read 2-3x), live points
  pinned at exactly the window size once filled, the watermark monotone
  and landing exactly at `docs_streamed - window`, the resident span
  never exceeding capacity, query throughput never collapsing, and zero
  leaks after the quiescing merge (no sealed generation, no retired row
  still resident).
* scaling — the 1/2/4/8-shard sweep: `answers_match` per shard count and
  multi-shard query qps >= 1.5x the 1-shard configuration. The speedup
  bar expresses cross-shard parallelism (quiesced) or merge-amplification
  relief (during ingest), so it is enforced only when the measuring host
  had >= 2 hardware threads; a 1-thread host serializes every shard task
  and the sweep degenerates to an overhead measurement (still checked for
  answer equivalence and merge activity).

Every report also records the measuring host's hardware-thread count and
how many pool workers actually pinned to a core (`host_threads`,
`pinned_workers`); the checker cross-checks them — pinning requires at
least two hardware threads, so a 1-thread host must report zero pinned
workers.

`--expect-scale quick` (used by CI) additionally asserts the reports came
from this run's quick corpus rather than a stale committed full-scale
artifact.
"""

import argparse
import json
import sys

SCALING_SPEEDUP_BAR = 1.5
# The soak's flat-memory bar: RSS at the last interval over RSS at the
# end of warm-up. The run streams ~8 window-lengths, so a genuine
# per-document leak reads as 2-3x here; 1.25 absorbs allocator high-water
# drift without masking growth.
SOAK_RSS_GROWTH_CEIL = 1.25
# Query throughput may wobble with merge phase, but must never collapse:
# the slowest post-warmup interval stays within 4x of the median.
SOAK_QPS_COLLAPSE_FLOOR = 0.25


def fail(path, msg):
    raise SystemExit(f"{path}: {msg}")


def check_common(path, d, expect_scale):
    for key in ("experiment", "scale", "threads"):
        if key not in d:
            fail(path, f"missing field {key!r}")
    if expect_scale is not None and d["scale"] != expect_scale:
        fail(path, f"scale is {d['scale']!r}, expected {expect_scale!r} "
                   "(stale committed report instead of this run's output?)")
    if not (isinstance(d["threads"], int) and d["threads"] >= 1):
        fail(path, f"threads must be a positive integer, got {d['threads']!r}")
    for key in ("host_threads", "pinned_workers"):
        if key not in d:
            fail(path, f"missing field {key!r} (reports must record the "
                       "measuring host's topology)")
    host, pinned = d["host_threads"], d["pinned_workers"]
    if not (isinstance(host, int) and host >= 1):
        fail(path, f"host_threads must be a positive integer, got {host!r}")
    if not (isinstance(pinned, int) and pinned >= 0):
        fail(path, f"pinned_workers must be a non-negative integer, got {pinned!r}")
    if host < 2 and pinned != 0:
        fail(path, f"pinning is gated on >= 2 hardware threads but a "
                   f"{host}-thread host reports {pinned} pinned worker(s)")


def check_scaling(path, d):
    configs = d["configs"]
    if [c["shards"] for c in configs] != [1, 2, 4, 8]:
        fail(path, f"expected the 1/2/4/8 shard sweep, got {[c['shards'] for c in configs]}")
    for c in configs:
        if c["answers_match"] is not True:
            fail(path, f"{c['shards']}-shard answers diverged from the single engine")
        if not (c["ingest_qps"] > 0 and c["query_qps_during_ingest"] > 0
                and c["query_qps_quiesced"] > 0):
            fail(path, f"non-positive throughput at {c['shards']} shards: {c}")
        for key in ("query_p99_ms_during_ingest", "query_p99_ms_quiesced"):
            if not c.get(key, 0) > 0:
                fail(path, f"{key} must be positive at {c['shards']} shards, "
                           f"got {c.get(key)!r}")
        if c["merges"] < 1:
            fail(path, f"no merges fired at {c['shards']} shards "
                       "(the sweep must exercise the merge path)")
    if d["answers_match"] is not True:
        fail(path, "aggregate answers_match must be true")
    if not (1 <= d["model_predicted_shards"] <= 64):
        fail(path, f"implausible model_predicted_shards {d['model_predicted_shards']}")
    speedup = d["multi_shard_speedup"]
    if d["threads"] >= 2:
        if speedup < SCALING_SPEEDUP_BAR:
            fail(path, f"multi-shard speedup {speedup} below the "
                       f"{SCALING_SPEEDUP_BAR}x bar on a {d['threads']}-thread host")
        print(f"{path} OK: multi-shard speedup {speedup}x (bar {SCALING_SPEEDUP_BAR}x)")
    else:
        # One hardware thread serializes the fan-out: every shard visit
        # adds Q1 + bucket-probe overhead with nothing to parallelize
        # against, so the speedup bar is meaningless — but the sweep must
        # still stay within sane overhead (a collapse would flag a
        # coordination bug, not just missing cores).
        if speedup <= 0:
            fail(path, f"non-positive multi-shard speedup {speedup}")
        print(f"{path} OK: answers match at every shard count "
              f"(speedup bar skipped: single-thread host, measured {speedup}x)")


def check_faults(path, d):
    if not (isinstance(d["docs"], int) and d["docs"] > 0):
        fail(path, f"docs must be positive, got {d['docs']!r}")
    if d["faults_injected"] < 1:
        fail(path, "the chaos soak must actually inject faults")
    if d["merge_failures"] != d["injected_panics"]:
        fail(path, f"{d['injected_panics']} injected merge panics but "
                   f"{d['merge_failures']} merge failures counted "
                   "(a panic escaped the merge thread, or was counted twice)")
    if d["degraded_episodes"] < 1:
        fail(path, "the persistent-failure phase must trip degraded "
                   "read-only mode at least once")
    if not d["time_to_recover_ms"] > 0:
        fail(path, f"time_to_recover_ms must be positive, got "
                   f"{d['time_to_recover_ms']!r}")
    for key in ("qps_under_fault", "qps_clean"):
        if not d[key] > 0:
            fail(path, f"{key} must be positive, got {d[key]!r} "
                       "(a zero rate means the soak hung or never ran)")
    if d["reads_survived_degraded"] is not True:
        fail(path, "queries stopped answering while the engine was degraded")
    if d["answers_match"] is not True:
        fail(path, "post-heal answers diverged from the unfaulted twin")
    if d["recovered_match"] is not True:
        fail(path, "the journal written through the faults did not recover "
                   "to the twin's answers")
    print(f"{path} OK: {d['faults_injected']} faults, "
          f"{d['merge_failures']} merge failure(s), "
          f"{d['degraded_episodes']} degraded episode(s), "
          f"recovered in {d['time_to_recover_ms']} ms")


def check_soak(path, d):
    window, capacity = d["window"], d["capacity"]
    if not (isinstance(window, int) and window > 0):
        fail(path, f"window must be a positive integer, got {window!r}")
    if capacity <= window:
        fail(path, f"capacity {capacity} must exceed the window {window} "
                   "(it bounds the resident span: live window + retired "
                   "rows awaiting compaction)")
    if d["docs_streamed"] < 4 * window:
        fail(path, f"a soak must stream >= 4 window-lengths, got "
                   f"{d['docs_streamed']} over window {window}")
    n = d["intervals"]
    if n < 8:
        fail(path, f"need >= 8 measurement intervals, got {n}")
    series = ("docs", "rss_mb", "table_mb", "live_points",
              "retired_pending_purge", "insert_qps", "query_qps")
    for key in series:
        if len(d[key]) != n:
            fail(path, f"series {key!r} has {len(d[key])} entries, "
                       f"expected {n}")
    if d["docs"] != sorted(d["docs"]) or len(set(d["docs"])) != n:
        fail(path, "docs series must be strictly increasing")
    warmup = d["warmup_intervals"]
    if not (0 < warmup < n):
        fail(path, f"warmup_intervals {warmup!r} must split the run")
    for i in range(n):
        if d["docs"][i] >= window and d["live_points"][i] != window:
            fail(path, f"interval {i}: window filled ({d['docs'][i]} docs) "
                       f"but live_points is {d['live_points'][i]}, "
                       f"expected exactly {window}")
        span = d["live_points"][i] + d["retired_pending_purge"][i]
        if span > capacity:
            fail(path, f"interval {i}: resident span {span} exceeds "
                       f"capacity {capacity}")
        for key in ("insert_qps", "query_qps"):
            if not d[key][i] > 0:
                fail(path, f"interval {i}: {key} must be positive, "
                           f"got {d[key][i]!r} (the soak stalled)")
    if d["watermark_monotone"] is not True:
        fail(path, "the retirement watermark moved backwards")
    if d["span_always_bounded"] is not True:
        fail(path, "the resident span exceeded capacity during the soak")
    # The flat-ceiling headline.
    if not d["rss_warmup_mb"] > 0:
        fail(path, f"rss_warmup_mb must be positive (is /proc/self/statm "
                   f"readable on the measuring host?), got {d['rss_warmup_mb']!r}")
    if d["rss_growth"] > SOAK_RSS_GROWTH_CEIL:
        fail(path, f"memory grew {d['rss_growth']}x after warm-up "
                   f"({d['rss_warmup_mb']} -> {d['rss_final_mb']} MB; "
                   f"ceiling {SOAK_RSS_GROWTH_CEIL}x) — the window is leaking")
    # Steady qps: no post-warmup collapse.
    tail = sorted(d["query_qps"][warmup:])
    median = tail[len(tail) // 2]
    if tail[0] < SOAK_QPS_COLLAPSE_FLOOR * median:
        fail(path, f"query qps collapsed: slowest post-warmup interval "
                   f"{tail[0]} vs median {median} "
                   f"(floor {SOAK_QPS_COLLAPSE_FLOOR}x)")
    # Zero-leak facts after the quiescing merge.
    if d["final_live"] != window:
        fail(path, f"final_live {d['final_live']} != window {window}")
    expected = d["docs_streamed"] - window
    if d["expected_retired"] != expected or d["final_retired"] != expected:
        fail(path, f"watermark must land exactly at docs - window = "
                   f"{expected}, got final_retired {d['final_retired']} "
                   f"(expected_retired {d['expected_retired']})")
    if d["final_sealed_generations"] != 0:
        fail(path, f"{d['final_sealed_generations']} sealed generation(s) "
                   "leaked past the quiescing merge")
    if d["final_retired_pending_purge"] != 0:
        fail(path, f"{d['final_retired_pending_purge']} retired row(s) "
                   "still resident after the quiescing merge "
                   "(compaction skipped the expired prefix)")
    if d["merges"] < 1:
        fail(path, "background merges must have fired during the soak")
    print(f"{path} OK: {d['docs_streamed']} docs through a {window}-doc "
          f"window, RSS growth {d['rss_growth']}x "
          f"(ceiling {SOAK_RSS_GROWTH_CEIL}x), zero leaks after quiesce")


CHECKS = {
    "scaling": check_scaling,
    "faults": check_faults,
    "soak": check_soak,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--expect-scale", choices=("quick", "full"), default=None)
    parser.add_argument("files", nargs="+")
    args = parser.parse_args()

    for path in args.files:
        with open(path) as fh:
            d = json.load(fh)
        check_common(path, d, args.expect_scale)
        check = CHECKS.get(d["experiment"])
        if check is None:
            fail(path, f"unknown experiment {d['experiment']!r}")
        check(path, d)
    print(f"all {len(args.files)} report(s) OK")


if __name__ == "__main__":
    sys.exit(main())
