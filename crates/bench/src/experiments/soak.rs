//! Long-haul sliding-window soak: stream several window-lengths of
//! documents through a windowed [`StreamingEngine`] and prove the memory
//! ceiling stays flat, recorded to `BENCH_soak.json`.
//!
//! The tentpole claim of retire-by-age: with
//! `WindowSpec::Docs(W)` and `capacity ≈ 3 × W`, an infinite stream runs
//! in constant memory — the watermark retires one id per arriving doc,
//! the background merges compact the expired prefix, and nothing (rows,
//! generations, epochs, table bytes) accumulates with stream length. The
//! soak streams `INTERVALS × W/2` documents (several corpus passes), and
//! after every `W/2`-doc interval records
//!
//! * process RSS (`/proc/self/statm`) — the headline: after warm-up it
//!   must plateau, not grow with docs streamed,
//! * resident index bytes (static + delta + sketches),
//! * live / retired / retired-pending-purge points and the watermark,
//! * insert throughput for the interval and a sampled query qps.
//!
//! At the end the engine quiesces (final merge) and the report asserts
//! the zero-leak facts: `live == W` exactly, `retired == streamed − W`
//! exactly, no sealed generation and no retired row left resident.

use std::time::{Duration, Instant};

use plsh_core::engine::{EngineConfig, WindowSpec};
use plsh_core::streaming::StreamingEngine;

use crate::setup::{Fixture, Scale};

/// Sliding window size `W` per scale (capacity is `3 × W`; several
/// corpus passes stream through it).
fn window(scale: Scale) -> u32 {
    match scale {
        Scale::Quick => 6_000,
        Scale::Full => 30_000,
    }
}

/// Measurement intervals of `W/2` docs each: 8 window-lengths of stream,
/// i.e. the index turns over its whole contents eight times.
const INTERVALS: usize = 16;

/// Queries sampled per interval (cheap; the soak is ingest-bound).
const QUERY_SLICE: usize = 64;

/// One per-interval sample of the soak.
#[derive(Debug, Clone)]
pub struct SoakInterval {
    /// Docs streamed so far (cumulative).
    pub docs: usize,
    /// Process RSS in bytes (0 if `/proc/self/statm` is unreadable).
    pub rss_bytes: u64,
    /// Resident index bytes: static tables + the delta's sketch columns.
    pub table_bytes: usize,
    /// Points answerable right now.
    pub live_points: usize,
    /// Retired points still physically resident (awaiting compaction).
    pub retired_pending_purge: usize,
    /// Insert throughput inside `insert_batch` for this interval.
    pub insert_qps: f64,
    /// Sampled query throughput at the end of the interval.
    pub query_qps: f64,
}

/// The measured report.
#[derive(Debug, Clone)]
pub struct Soak {
    /// Window size `W`.
    pub window: u32,
    /// Engine capacity (bounds the resident span, not the stream).
    pub capacity: usize,
    /// Total docs streamed.
    pub docs_streamed: usize,
    /// Wall time of the whole soak.
    pub elapsed: Duration,
    /// Per-interval samples.
    pub intervals: Vec<SoakInterval>,
    /// Intervals ignored by the flatness check (index still filling and
    /// the allocator finding its high-water mark).
    pub warmup_intervals: usize,
    /// RSS at the end of warm-up, bytes.
    pub rss_warmup_bytes: u64,
    /// RSS at the last interval, bytes.
    pub rss_final_bytes: u64,
    /// `rss_final / rss_warmup` — the flat-ceiling headline (a per-doc
    /// leak over 8 window turnovers would push this toward 2–3×).
    pub rss_growth: f64,
    /// The watermark never moved backwards across intervals.
    pub watermark_monotone: bool,
    /// `live + retired-pending-purge ≤ capacity` held at every sample.
    pub span_always_bounded: bool,
    /// Live points after the final quiescing merge (must equal `W`).
    pub final_live: usize,
    /// Watermark at the end (must equal `docs_streamed − W`).
    pub final_retired: usize,
    /// Sealed generations left after quiescing (must be 0 — a leak here
    /// means merges stopped keeping up or an epoch was never retired).
    pub final_sealed_generations: usize,
    /// Retired rows still resident after quiescing (must be 0 — a leak
    /// here means compaction skipped the expired prefix).
    pub final_retired_pending_purge: usize,
    /// Background merges over the whole soak.
    pub merges: u64,
    /// Worker threads.
    pub threads: usize,
    /// Hardware threads on the host that produced the report.
    pub host_threads: usize,
    /// Pool workers that successfully pinned to a core (0 when pinning
    /// is disabled or the host is single-core).
    pub pinned_workers: usize,
    /// Scale preset name.
    pub scale: &'static str,
}

/// Process resident set size in bytes via `/proc/self/statm` (Linux);
/// 0 where unavailable.
pub fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .nth(1)
                .and_then(|pages| pages.parse::<u64>().ok())
        })
        .map(|pages| pages * 4096)
        .unwrap_or(0)
}

/// Runs the long-haul soak.
pub fn run(f: &Fixture) -> Soak {
    let w = window(f.scale) as usize;
    let capacity = 3 * w;
    let interval_docs = w / 2;
    let chunk = 500usize;

    let engine = StreamingEngine::new(
        EngineConfig::new(f.params.clone(), capacity)
            .with_eta(0.1)
            .with_window(WindowSpec::Docs(w as u32)),
        f.pool.clone(),
    )
    .expect("valid soak config");

    let corpus = f.corpus.vectors();
    let queries = &f.query_vecs()[..f.query_vecs().len().min(QUERY_SLICE)];
    let start = Instant::now();

    let mut intervals = Vec::with_capacity(INTERVALS);
    let mut streamed = 0usize;
    let mut last_watermark = 0usize;
    let mut watermark_monotone = true;
    let mut span_always_bounded = true;
    for _ in 0..INTERVALS {
        // Ingest one interval, cycling the corpus (ids keep growing —
        // the stream is infinite as far as the engine can tell).
        let mut insert_time = Duration::ZERO;
        let target = streamed + interval_docs;
        while streamed < target {
            let at = streamed % corpus.len();
            let take = chunk.min(target - streamed).min(corpus.len() - at);
            let t0 = Instant::now();
            engine
                .insert_batch(&corpus[at..at + take])
                .expect("windowed stream never exhausts capacity");
            insert_time += t0.elapsed();
            streamed += take;
        }

        // Sample the query path against whatever epoch is live.
        let t0 = Instant::now();
        let _ = engine.query_batch(queries);
        let query_elapsed = t0.elapsed();

        let stats = engine.stats();
        watermark_monotone &= stats.retired_points >= last_watermark;
        last_watermark = stats.retired_points;
        span_always_bounded &= stats.live_points + stats.retired_pending_purge <= capacity;
        intervals.push(SoakInterval {
            docs: streamed,
            rss_bytes: rss_bytes(),
            table_bytes: stats.static_table_bytes + stats.delta_table_bytes,
            live_points: stats.live_points,
            retired_pending_purge: stats.retired_pending_purge,
            insert_qps: if insert_time.is_zero() {
                0.0
            } else {
                interval_docs as f64 / insert_time.as_secs_f64()
            },
            query_qps: if query_elapsed.is_zero() {
                0.0
            } else {
                queries.len() as f64 / query_elapsed.as_secs_f64()
            },
        });
    }

    // Quiesce: drain any in-flight merge, then fold the sealed tail and
    // compact the remaining expired prefix.
    engine.wait_for_merge();
    engine.merge_now();
    let elapsed = start.elapsed();
    let stats = engine.stats();
    let info = engine.epoch_info();

    // Warm-up: first quarter of the run, and at least until the index
    // has filled one full window.
    let warmup_intervals = intervals
        .iter()
        .position(|s| s.docs >= 2 * w)
        .unwrap_or(INTERVALS / 4)
        .max(INTERVALS / 4);
    let rss_warmup_bytes = intervals[warmup_intervals.min(intervals.len() - 1)].rss_bytes;
    let rss_final_bytes = intervals.last().map(|s| s.rss_bytes).unwrap_or(0);
    let rss_growth = if rss_warmup_bytes == 0 {
        0.0
    } else {
        rss_final_bytes as f64 / rss_warmup_bytes as f64
    };

    Soak {
        window: w as u32,
        capacity,
        docs_streamed: streamed,
        elapsed,
        intervals,
        warmup_intervals,
        rss_warmup_bytes,
        rss_final_bytes,
        rss_growth,
        watermark_monotone,
        span_always_bounded,
        final_live: stats.live_points,
        final_retired: stats.retired_points,
        final_sealed_generations: info.sealed_generations,
        final_retired_pending_purge: stats.retired_pending_purge,
        merges: stats.merges,
        threads: f.pool.num_threads(),
        host_threads: plsh_parallel::affinity::host_threads(),
        pinned_workers: plsh_parallel::pinned_worker_count(),
        scale: match f.scale {
            Scale::Quick => "quick",
            Scale::Full => "full",
        },
    }
}

impl Soak {
    /// Prints the report.
    pub fn print(&self) {
        println!(
            "## Sliding-window soak — {} docs through a {}-doc window ({} threads)\n",
            self.docs_streamed, self.window, self.threads
        );
        println!("| Docs streamed | RSS (MB) | Index bytes (MB) | Live | Pending purge | Insert qps | Query qps |");
        println!("|---:|---:|---:|---:|---:|---:|---:|");
        for s in &self.intervals {
            println!(
                "| {} | {:.1} | {:.1} | {} | {} | {:.0} | {:.0} |",
                s.docs,
                s.rss_bytes as f64 / 1e6,
                s.table_bytes as f64 / 1e6,
                s.live_points,
                s.retired_pending_purge,
                s.insert_qps,
                s.query_qps
            );
        }
        println!();
        println!(
            "RSS growth after warm-up: {:.3}x ({:.1} MB -> {:.1} MB; bar: <= 1.25x)",
            self.rss_growth,
            self.rss_warmup_bytes as f64 / 1e6,
            self.rss_final_bytes as f64 / 1e6
        );
        println!(
            "quiesced: {} live (window {}), watermark {} (expected {}), {} sealed generations, {} retired rows resident, {} merges in {:.1} s",
            self.final_live,
            self.window,
            self.final_retired,
            self.docs_streamed - self.window as usize,
            self.final_sealed_generations,
            self.final_retired_pending_purge,
            self.merges,
            self.elapsed.as_secs_f64()
        );
        println!();
    }

    /// Renders the report as the JSON document `scripts/check_bench.py`
    /// validates.
    pub fn to_json(&self) -> String {
        let num_series = |f: &dyn Fn(&SoakInterval) -> String| -> String {
            let vals: Vec<String> = self.intervals.iter().map(f).collect();
            vals.join(", ")
        };
        format!(
            "{{\n  \"experiment\": \"soak\",\n  \"scale\": \"{}\",\n  \
             \"threads\": {},\n  \"host_threads\": {},\n  \
             \"pinned_workers\": {},\n  \"window\": {},\n  \"capacity\": {},\n  \
             \"docs_streamed\": {},\n  \"elapsed_s\": {:.3},\n  \
             \"intervals\": {},\n  \"warmup_intervals\": {},\n  \
             \"docs\": [{}],\n  \"rss_mb\": [{}],\n  \"table_mb\": [{}],\n  \
             \"live_points\": [{}],\n  \"retired_pending_purge\": [{}],\n  \
             \"insert_qps\": [{}],\n  \"query_qps\": [{}],\n  \
             \"rss_warmup_mb\": {:.3},\n  \"rss_final_mb\": {:.3},\n  \
             \"rss_growth\": {:.4},\n  \"watermark_monotone\": {},\n  \
             \"span_always_bounded\": {},\n  \"final_live\": {},\n  \
             \"final_retired\": {},\n  \"expected_retired\": {},\n  \
             \"final_sealed_generations\": {},\n  \
             \"final_retired_pending_purge\": {},\n  \"merges\": {}\n}}\n",
            self.scale,
            self.threads,
            self.host_threads,
            self.pinned_workers,
            self.window,
            self.capacity,
            self.docs_streamed,
            self.elapsed.as_secs_f64(),
            self.intervals.len(),
            self.warmup_intervals,
            num_series(&|s| s.docs.to_string()),
            num_series(&|s| format!("{:.3}", s.rss_bytes as f64 / 1e6)),
            num_series(&|s| format!("{:.3}", s.table_bytes as f64 / 1e6)),
            num_series(&|s| s.live_points.to_string()),
            num_series(&|s| s.retired_pending_purge.to_string()),
            num_series(&|s| format!("{:.1}", s.insert_qps)),
            num_series(&|s| format!("{:.1}", s.query_qps)),
            self.rss_warmup_bytes as f64 / 1e6,
            self.rss_final_bytes as f64 / 1e6,
            self.rss_growth,
            self.watermark_monotone,
            self.span_always_bounded,
            self.final_live,
            self.final_retired,
            self.docs_streamed - self.window as usize,
            self.final_sealed_generations,
            self.final_retired_pending_purge,
            self.merges
        )
    }
}

/// The report file, written to the working directory.
pub const REPORT: &str = "BENCH_soak.json";
