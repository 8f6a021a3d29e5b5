#!/usr/bin/env python3
"""Validate the repro harness's committed/regenerated benchmark reports.

Usage:
    python3 scripts/check_bench.py [--expect-scale SCALE] FILE [FILE ...]

Each FILE is one of the JSON reports the `repro` binary writes
(BENCH_query.json, BENCH_streaming.json, BENCH_cluster.json,
BENCH_recovery.json, BENCH_soak.json, BENCH_server.json,
BENCH_faults.json); the experiment is inferred from the report's own
"experiment" field. The
script asserts the structural invariants each experiment guarantees, plus
the design bars:

* throughput — five Figure-5 ablation levels, positive qps/phase times,
  `answers_match` (the batched pipeline must not change answers), and the
  "+large pages" level not regressing against "+sw prefetch" (all levels
  share one best-of-REPS protocol, so a regression is real, not a
  measurement artifact).
* streaming — background merges fired, query throughput during ingest
  at least 0.85x quiesced (the cooperative stepped merge yields to
  queries, so ingest must no longer halve query throughput; 0.5x on a
  single-hardware-thread host where the ingest thread itself timeslices
  against the query thread), per-batch p99 latency recorded for both
  phases, probes found in every batch, epochs always consistent.
* recovery — the durability experiment: a generation-segmented layout
  with a live WAL tail at crash time, positive journaled-ingest and
  replay rates, recovered answers bit-identical to the in-memory twin,
  and every pre-crash tombstone surviving.
* faults — the chaos soak: faults actually injected, every injected
  worker panic matched by a supervisor restart, at least one degraded
  read-only episode with reads still answering, positive recovery time
  and under-fault throughput (zero means a hang), post-heal answers
  bit-identical to the unfaulted twin, and the journal written through
  the faults recovering to those same answers.
* serve — the HTTP wire surface under concurrent client load: positive
  served qps and client-observed p50/p99 in both phases (during live
  `/ingest` traffic and quiesced), shed_rate present in [0, 1] (shedding
  is legal under overload), error_rate exactly 0 (a failed well-formed
  request is a server bug at any scale), merges fired while serving, and
  wire answers bit-identical to in-process search.
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

SIMD_LEVELS = ("scalar", "sse2", "avx2")
SCALING_SPEEDUP_BAR = 1.5
# The cooperative stepped merge yields to in-flight queries, so ingest
# must cost queries at most ~15% of quiesced throughput (was 0.5 when the
# merge ran monolithically and could stall a whole rebuild's worth). On a
# single hardware thread the ingest thread itself timeslices against the
# query thread — interference the scheduler, not the merge, imposes — so
# the bar stays at the old monolithic-merge floor there.
STREAMING_DURING_FLOOR = 0.85
STREAMING_DURING_FLOOR_1CPU = 0.5
# "+large pages" vs "+sw prefetch": the level adds an madvise hint that is
# a no-op below the table-size threshold and a win above it, so it must
# never lose — beyond a 10% allowance for run-to-run noise on shared hosts.
ABLATION_REGRESSION_FLOOR = 0.9
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


def check_throughput(path, d):
    if d["simd_level"] not in SIMD_LEVELS:
        fail(path, f"unknown simd_level {d['simd_level']!r}")
    if len(d["levels"]) != 5:
        fail(path, f"expected five Figure-5 ablation levels, got {len(d['levels'])}")
    for lvl in d["levels"] + [d["batched_pipeline"]]:
        if not (lvl["qps"] > 0 and lvl["batch_ms"] > 0):
            fail(path, f"non-positive throughput entry: {lvl}")
    for phase in ("q2", "q3"):
        if not d["phase_ns_per_query"][phase] > 0:
            fail(path, f"phase_ns_per_query[{phase!r}] must be positive")
    if d["answers_match"] is not True:
        fail(path, "batched pipeline changed answers")
    prefetch, large = d["levels"][3], d["levels"][4]
    if large["qps"] < ABLATION_REGRESSION_FLOOR * prefetch["qps"]:
        fail(path, f"ablation regression: {large['name']!r} at {large['qps']} qps "
                   f"vs {prefetch['name']!r} at {prefetch['qps']} qps "
                   f"(floor {ABLATION_REGRESSION_FLOOR})")
    print(f"{path} OK: batched pipeline {json.dumps(d['batched_pipeline'])}")


def check_recovery(path, d):
    if not (isinstance(d["docs"], int) and d["docs"] > 0):
        fail(path, f"docs must be positive, got {d['docs']!r}")
    if d["generation_segments"] < 1:
        fail(path, "crash layout must include sealed generation segments")
    if d["wal_points"] < 1:
        fail(path, "crash layout must include a live WAL tail "
                   "(recovery must exercise the replay path)")
    if d["static_points"] + d["wal_points"] > d["docs"]:
        fail(path, f"layout does not add up: {d['static_points']} static + "
                   f"{d['wal_points']} WAL > {d['docs']} docs")
    for key in ("ingest_qps_journaled", "ingest_qps_memory",
                "recovery_ms", "replay_points_per_sec"):
        if not d[key] > 0:
            fail(path, f"{key} must be positive, got {d[key]!r}")
    if d["tombstones"] < 1:
        fail(path, "the schedule must issue tombstones before the crash")
    if d["answers_match"] is not True:
        fail(path, "recovered answers diverged from the in-memory twin")
    if d["tombstones_survived"] is not True:
        fail(path, "a pre-crash tombstone was lost in recovery")
    print(f"{path} OK: recovered {d['docs']} docs "
          f"({d['wal_points']} from the WAL) in {d['recovery_ms']} ms")


def check_streaming(path, d):
    if not (d["insert_qps"] > 0 and d["ingest_points"] > 0):
        fail(path, f"ingest must have run: {d['insert_qps']=} {d['ingest_points']=}")
    if d["merges"] < 1:
        fail(path, "background merges must have fired")
    if not (d["query_qps_during_ingest"] > 0 and d["query_qps_quiesced"] > 0):
        fail(path, "query throughput must be positive in both phases")
    floor = (STREAMING_DURING_FLOOR if d["host_threads"] >= 2
             else STREAMING_DURING_FLOOR_1CPU)
    if d["during_over_quiesced"] < floor:
        fail(path, f"during/quiesced {d['during_over_quiesced']} below the "
                   f"{floor} floor on a {d['host_threads']}-thread host")
    for key in ("query_p50_ms_during_ingest", "query_p99_ms_during_ingest",
                "query_p50_ms_quiesced", "query_p99_ms_quiesced"):
        if not d.get(key, 0) > 0:
            fail(path, f"{key} must be positive, got {d.get(key)!r}")
    for phase in ("during_ingest", "quiesced"):
        if d[f"query_p99_ms_{phase}"] < d[f"query_p50_ms_{phase}"]:
            fail(path, f"p99 below p50 in the {phase} phase")
    if d["probe_always_found"] is not True:
        fail(path, "a query batch missed a sealed point")
    if d["epoch_always_consistent"] is not True:
        fail(path, "half-merged epoch observed")
    print(f"{path} OK: during/quiesced = {d['during_over_quiesced']}, "
          f"p99 during/quiesced = {d['query_p99_ms_during_ingest']} / "
          f"{d['query_p99_ms_quiesced']} ms")


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
    if d["supervisor_restarts"] < d["injected_panics"]:
        fail(path, f"{d['injected_panics']} injected worker panics but only "
                   f"{d['supervisor_restarts']} supervisor restarts "
                   "(a panic escaped supervision)")
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
          f"{d['supervisor_restarts']} restart(s), "
          f"{d['degraded_episodes']} degraded episode(s), "
          f"recovered in {d['time_to_recover_ms']} ms")


def check_serve(path, d):
    if not (isinstance(d["clients"], int) and d["clients"] >= 1):
        fail(path, f"clients must be a positive integer, got {d['clients']!r}")
    if not (d["ingest_points"] > 0 and d["requests_during_ingest"] > 0):
        fail(path, "the served-ingest phase must have carried traffic: "
                   f"{d['ingest_points']=} {d['requests_during_ingest']=}")
    if d["merges_during_ingest"] < 1:
        fail(path, "background merges must have fired while serving")
    for phase in ("during_ingest", "quiesced"):
        if not d[f"qps_{phase}"] > 0:
            fail(path, f"qps_{phase} must be positive")
        p50, p99 = d[f"p50_ms_{phase}"], d[f"p99_ms_{phase}"]
        if not (p99 > 0 and p50 > 0):
            fail(path, f"latency percentiles must be positive in the "
                       f"{phase} phase, got p50={p50!r} p99={p99!r}")
        if p99 < p50:
            fail(path, f"p99 below p50 in the {phase} phase")
    for key in ("shed_rate", "error_rate"):
        if key not in d or not (0.0 <= d[key] <= 1.0):
            fail(path, f"{key} must be present in [0, 1], got {d.get(key)!r}")
    # Load shedding is legitimate under overload, but a *failed* request
    # is a server bug at any scale — the wire surface never errors on
    # well-formed traffic.
    if d["error_rate"] != 0:
        fail(path, f"error_rate must be 0, got {d['error_rate']!r}")
    if d["answers_match"] is not True:
        fail(path, "wire answers diverged from in-process search")
    print(f"{path} OK: {d['qps_during_ingest']} qps during ingest / "
          f"{d['qps_quiesced']} quiesced, p99 {d['p99_ms_during_ingest']} / "
          f"{d['p99_ms_quiesced']} ms, shed_rate {d['shed_rate']}")


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
    "throughput": check_throughput,
    "serve": check_serve,
    "streaming": check_streaming,
    "scaling": check_scaling,
    "recovery": check_recovery,
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
