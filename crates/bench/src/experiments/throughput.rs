//! Query throughput trajectory: the Figure 5 ablation plus the batched
//! SIMD pipeline, recorded to `BENCH_query.json`.
//!
//! This experiment seeds the repository's performance trajectory: it runs
//! the five cumulative `QueryStrategy` levels through the per-query
//! pipeline, then the batched pipeline (`Engine::query_batch`: whole-batch
//! Q1 via `sketch_batch`, lock-free per-worker scratch) on top, and writes
//! queries/sec, per-phase timings, and candidate counters to a JSON report
//! so later PRs can be held to these numbers.

use plsh_core::simd;
use plsh_core::{BatchStats, SearchHit, SearchRequest};

use crate::setup::{Fixture, Scale};

/// Measured passes per ablation level; the best is reported (the batch is
/// deterministic, so the minimum isolates scheduler/container noise).
const REPS: usize = 5;

/// Interleaved A/B passes for the optimized-vs-batched comparison: the two
/// pipelines alternate within the same time window, so environment drift
/// (CPU steal on a shared host, thermal throttling) hits both sides alike.
const AB_REPS: usize = 7;

/// Batch executions per A/B pass. A pass's time is the sum over its calls,
/// so short steal spikes average out within a pass instead of poisoning a
/// single-call measurement; the reported time is the best pass.
const AB_PASS_CALLS: usize = 3;

/// One measured query configuration.
#[derive(Debug, Clone)]
pub struct LevelResult {
    /// Configuration label (paper name, or "batched pipeline").
    pub name: &'static str,
    /// Queries per second over the batch (best of `REPS` passes).
    pub qps: f64,
    /// Batch wall time in milliseconds (best of `REPS` passes).
    pub batch_ms: f64,
    /// Mean bucket entries read per query.
    pub avg_collisions: f64,
    /// Mean unique candidates per query.
    pub avg_unique: f64,
    /// Mean reported neighbors per query.
    pub avg_matches: f64,
}

impl LevelResult {
    fn from_stats(name: &'static str, stats: &BatchStats) -> Self {
        Self {
            name,
            qps: stats.throughput_qps(),
            batch_ms: stats.elapsed.as_secs_f64() * 1e3,
            avg_collisions: stats.avg_collisions(),
            avg_unique: stats.avg_unique(),
            avg_matches: stats.avg_matches(),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"name\": \"{}\", \"qps\": {:.3}, \"batch_ms\": {:.3}, \
             \"avg_collisions\": {:.3}, \"avg_unique_candidates\": {:.3}, \
             \"avg_matches\": {:.3}}}",
            self.name,
            self.qps,
            self.batch_ms,
            self.avg_collisions,
            self.avg_unique,
            self.avg_matches
        )
    }
}

/// The full throughput report.
#[derive(Debug, Clone)]
pub struct Throughput {
    /// The five Figure 5 ablation levels (per-query pipeline), all
    /// measured best-of-`REPS`.
    pub levels: Vec<LevelResult>,
    /// The batched SIMD pipeline (fully optimized strategy), same
    /// best-of-`REPS` protocol as the levels.
    pub batched: LevelResult,
    /// Batched-over-optimized speedup from the interleaved A/B passes
    /// (drift-compensated; this is the comparison number, the table rows
    /// are the absolute ones).
    pub speedup: f64,
    /// Mean Step Q2 nanoseconds per query (sequential profile).
    pub q2_ns_per_query: f64,
    /// Mean Step Q3 nanoseconds per query (sequential profile).
    pub q3_ns_per_query: f64,
    /// SIMD level the kernels dispatched to.
    pub simd_level: &'static str,
    /// Corpus size.
    pub docs: usize,
    /// Queries in the batch.
    pub queries: usize,
    /// Worker threads.
    pub threads: usize,
    /// Scale preset name.
    pub scale: &'static str,
    /// Whether the batched pipeline returned exactly the same neighbor
    /// sets as the optimized per-query pipeline (it must).
    pub answers_match: bool,
}

/// `(id, distance-bits)` pairs sorted by id — the batched pipeline must
/// reproduce the per-query pipeline's answers *bit for bit*, distances
/// included.
fn sorted_hits(hits: &[SearchHit]) -> Vec<(u32, u32)> {
    let mut pairs: Vec<(u32, u32)> = hits
        .iter()
        .map(|h| (h.index, h.distance.to_bits()))
        .collect();
    pairs.sort_unstable();
    pairs
}

/// Runs the ablation plus the batched pipeline against a fully static
/// engine, entirely through the unified [`SearchRequest`] API (the
/// ablation levels are request fields, not dedicated methods).
pub fn run(f: &Fixture) -> Throughput {
    let engine = f.static_engine();
    let queries = f.query_vecs();
    let warm_queries = queries[..queries.len().min(32)].to_vec();

    // All five levels: identical best-of-REPS protocol. (An earlier
    // revision measured the final level inside the A/B interleave below —
    // a mean over the best pass's calls, not a best single call — which
    // manufactured a phantom regression for "+large pages" against the
    // best-of-REPS "+sw prefetch" row. The trajectory is only meaningful
    // if every row is measured the same way.) The Figure 5 protocol
    // measures the *per-query* pipeline, so the request opts out of
    // batched Q1.
    let mut levels = Vec::new();
    let all_levels = plsh_core::QueryStrategy::ablation_levels();
    let (_, last_strategy) = all_levels[all_levels.len() - 1];
    for &(name, strategy) in all_levels.iter() {
        // Warm-up pass (page in tables, fill scratch slots), then best-of.
        let warm = SearchRequest::batch(warm_queries.clone())
            .with_strategy(strategy)
            .per_query_pipeline();
        let _ = engine
            .search(&warm, &f.pool)
            .expect("valid warm-up request");
        let req = SearchRequest::batch(queries.to_vec())
            .with_strategy(strategy)
            .per_query_pipeline()
            .with_stats();
        let mut best: Option<BatchStats> = None;
        for _ in 0..REPS {
            let stats = engine
                .search(&req, &f.pool)
                .expect("valid ablation request")
                .stats
                .expect("stats requested");
            if best.is_none_or(|b| stats.elapsed < b.elapsed) {
                best = Some(stats);
            }
        }
        levels.push(LevelResult::from_stats(name, &best.expect("REPS >= 1")));
    }

    // The batched pipeline row: same best-of-REPS protocol as the levels
    // table, with every rep's answers checked bit-for-bit against the
    // optimized per-query pipeline's.
    let opt_req = SearchRequest::batch(queries.to_vec())
        .with_strategy(last_strategy)
        .per_query_pipeline()
        .with_stats();
    let batched_req = SearchRequest::batch(queries.to_vec())
        .with_strategy(last_strategy)
        .with_stats();
    let optimized_answers: Vec<Vec<(u32, u32)>> = engine
        .search(&opt_req, &f.pool)
        .expect("valid optimized request")
        .results
        .iter()
        .map(|h| sorted_hits(h))
        .collect();
    let warm = SearchRequest::batch(warm_queries).with_strategy(last_strategy);
    let _ = engine
        .search(&warm, &f.pool)
        .expect("valid warm-up request");
    let mut answers_match = true;
    let mut best: Option<BatchStats> = None;
    for _ in 0..REPS {
        let resp = engine
            .search(&batched_req, &f.pool)
            .expect("valid batched request");
        let stats = resp.stats.expect("stats requested");
        answers_match &= resp
            .results
            .iter()
            .zip(&optimized_answers)
            .all(|(got, expect)| &sorted_hits(got) == expect);
        if best.is_none_or(|b| stats.elapsed < b.elapsed) {
            best = Some(stats);
        }
    }
    let batched = LevelResult::from_stats("batched pipeline", &best.expect("REPS >= 1"));

    // Batched-vs-optimized speedup: interleaved A/B passes so environment
    // drift (CPU steal, thermal throttling) hits both sides alike; each
    // pass sums several batch executions so short steal spikes average
    // out, and the ratio is taken between the best pass of each side.
    // This ratio is the *only* number the interleave produces — the table
    // rows above all come from the uniform best-of-REPS protocol.
    let mut best_opt: Option<std::time::Duration> = None;
    let mut best_batched: Option<std::time::Duration> = None;
    for _ in 0..AB_REPS {
        let mut pass = std::time::Duration::ZERO;
        for _ in 0..AB_PASS_CALLS {
            let stats = engine
                .search(&opt_req, &f.pool)
                .expect("valid A/B request")
                .stats
                .expect("stats requested");
            pass += stats.elapsed;
        }
        if best_opt.is_none_or(|b| pass < b) {
            best_opt = Some(pass);
        }
        let mut pass = std::time::Duration::ZERO;
        for _ in 0..AB_PASS_CALLS {
            let stats = engine
                .search(&batched_req, &f.pool)
                .expect("valid A/B request")
                .stats
                .expect("stats requested");
            pass += stats.elapsed;
        }
        if best_batched.is_none_or(|b| pass < b) {
            best_batched = Some(pass);
        }
    }
    let opt_pass = best_opt.expect("AB_REPS >= 1").as_secs_f64();
    let batched_pass = best_batched.expect("AB_REPS >= 1").as_secs_f64();
    let speedup = if batched_pass == 0.0 {
        0.0
    } else {
        opt_pass / batched_pass
    };

    // Per-phase breakdown (sequential, fully optimized pipeline).
    let profile_req = SearchRequest::batch(queries.to_vec()).with_profiling();
    let timings = engine
        .search(&profile_req, &f.pool)
        .expect("valid profiling request")
        .phase_timings
        .expect("profiling requested");
    let nq = queries.len().max(1) as f64;

    Throughput {
        levels,
        batched,
        speedup,
        q2_ns_per_query: timings.step_q2.as_nanos() as f64 / nq,
        q3_ns_per_query: timings.step_q3.as_nanos() as f64 / nq,
        simd_level: simd::level().name(),
        docs: engine.len(),
        queries: queries.len(),
        threads: f.pool.num_threads(),
        scale: match f.scale {
            Scale::Quick => "quick",
            Scale::Full => "full",
        },
        answers_match,
    }
}

impl Throughput {
    /// Speedup of the batched pipeline over the fully optimized per-query
    /// pipeline, from the interleaved A/B measurement.
    pub fn batched_speedup(&self) -> f64 {
        self.speedup
    }

    /// Prints the report as a markdown table.
    pub fn print(&self) {
        println!(
            "## Query throughput — Figure 5 ablation + batched SIMD pipeline \
             ({} queries, {} docs, {} thread(s), simd: {})\n",
            self.queries, self.docs, self.threads, self.simd_level
        );
        println!("| Configuration | Queries/s | Batch time | Unique cand./query | Matches/query |");
        println!("|---|---:|---:|---:|---:|");
        for l in self.levels.iter().chain(std::iter::once(&self.batched)) {
            println!(
                "| {} | {:.0} | {:.1} ms | {:.1} | {:.2} |",
                l.name, l.qps, l.batch_ms, l.avg_unique, l.avg_matches
            );
        }
        println!(
            "\nBatched pipeline vs optimized: {:.2}x; Q2 {:.0} ns/query, Q3 {:.0} ns/query; \
             answers match: {}\n",
            self.batched_speedup(),
            self.q2_ns_per_query,
            self.q3_ns_per_query,
            self.answers_match
        );
    }

    /// Renders the report as the JSON document `scripts/check_bench.py`
    /// validates.
    pub fn to_json(&self) -> String {
        let levels: Vec<String> = self.levels.iter().map(LevelResult::json).collect();
        format!(
            "{{\n  \"experiment\": \"throughput\",\n  \"scale\": \"{}\",\n  \
             \"docs\": {},\n  \"queries\": {},\n  \"threads\": {},\n  \
             \"host_threads\": {},\n  \"pinned_workers\": {},\n  \
             \"simd_level\": \"{}\",\n  \"levels\": [\n    {}\n  ],\n  \
             \"batched_pipeline\": {},\n  \
             \"phase_ns_per_query\": {{\"q2\": {:.1}, \"q3\": {:.1}}},\n  \
             \"speedup_batched_vs_optimized\": {:.4},\n  \"answers_match\": {}\n}}\n",
            self.scale,
            self.docs,
            self.queries,
            self.threads,
            plsh_parallel::affinity::host_threads(),
            plsh_parallel::pinned_worker_count(),
            self.simd_level,
            levels.join(",\n    "),
            self.batched.json(),
            self.q2_ns_per_query,
            self.q3_ns_per_query,
            self.batched_speedup(),
            self.answers_match
        )
    }

    /// Writes the JSON report to `path` (fsync + atomic rename).
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        crate::setup::write_json_atomic(path, &self.to_json())
    }
}

/// Report location: `PLSH_BENCH_OUT`, defaulting to `BENCH_query.json` in
/// the working directory.
pub fn output_path() -> String {
    std::env::var("PLSH_BENCH_OUT").unwrap_or_else(|_| "BENCH_query.json".to_string())
}
