//! Live concurrent-ingest experiment: insert ‖ query ‖ merge overlap,
//! recorded to `BENCH_streaming.json`.
//!
//! The paper's headline scenario: a node pre-loaded to 50% static serves
//! query batches *while* a Twitter-paced ingest thread streams the other
//! 50% in, with background merges firing at `η·C`. The experiment measures
//!
//! * insert throughput on the ingest thread (hash + bucket + seal),
//! * merge cost split into off-to-the-side build time and the publish
//!   window (the only instant a merge can delay the write path — queries
//!   are epoch-pinned and never pause),
//! * query throughput during ingest vs after quiescing — the streaming
//!   design's acceptance bar is *within 2× of quiesced*,
//! * correctness while racing: every query batch must find the probe
//!   points and every pinned epoch must satisfy
//!   `visible = static + sealed`.

use std::time::{Duration, Instant};

use plsh_core::engine::EngineConfig;
use plsh_core::sparse::SparseVector;
use plsh_core::streaming::StreamingEngine;

use crate::setup::{percentile_ms, Fixture, Scale};

/// Target wall time for draining the ingest half of the corpus, per
/// scale; sets the ingest pacing so the arrival process resembles a
/// rate-limited stream (the paper's per-node Twitter arrival is ~1.2 K
/// tweets/s, a small fraction of insert capability) rather than a
/// CPU-saturating bulk load. The full corpus hashes ~3× more per point
/// (k = 14, m = 16), so it drains over a longer window.
fn ingest_target_secs(scale: Scale) -> f64 {
    match scale {
        Scale::Quick => 4.0,
        Scale::Full => 20.0,
    }
}

/// Queries per measured batch during ingest (small enough to sample the
/// changing epoch many times over the ingest window).
const QUERY_SLICE: usize = 64;

/// The measured report.
#[derive(Debug, Clone)]
pub struct StreamingLive {
    /// Corpus points pre-loaded (and merged) before the stream starts.
    pub preload_points: usize,
    /// Points streamed in during the measurement.
    pub ingest_points: usize,
    /// Points per ingest batch.
    pub batch_size: usize,
    /// Insert throughput over time spent inside `insert_batch`.
    pub insert_qps: f64,
    /// Wall time of the whole ingest (includes pacing waits).
    pub ingest_elapsed: Duration,
    /// Merges that fired during ingest.
    pub merges: u64,
    /// Build time of the last merge (runs concurrently with queries).
    pub merge_build: Duration,
    /// Publish window of the last merge (the epoch swap under the write
    /// lock — the closest thing to a "merge pause" this design has).
    pub merge_publish: Duration,
    /// Query batches completed while the ingest thread was live.
    pub query_batches_during_ingest: u64,
    /// Query throughput while ingesting.
    pub query_qps_during_ingest: f64,
    /// Query throughput after ingest + final merge quiesced.
    pub query_qps_quiesced: f64,
    /// p50 per-batch query latency while ingesting, milliseconds.
    pub query_p50_ms_during_ingest: f64,
    /// p99 per-batch query latency while ingesting, milliseconds — the
    /// interference headline: tail stalls from merge slices show up here
    /// long before they dent mean qps.
    pub query_p99_ms_during_ingest: f64,
    /// p50 per-batch query latency quiesced, milliseconds.
    pub query_p50_ms_quiesced: f64,
    /// p99 per-batch query latency quiesced, milliseconds.
    pub query_p99_ms_quiesced: f64,
    /// Every in-flight query batch found every pre-loaded probe point.
    pub probe_always_found: bool,
    /// Every epoch pinned during ingest satisfied
    /// `visible = static + sealed`.
    pub epoch_always_consistent: bool,
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

/// What the paced ingest thread did, measured on that thread.
#[derive(Default)]
struct IngestStats {
    /// Batches inserted.
    batches: u64,
    /// Points inserted.
    points: u64,
    /// Time spent inside `insert_batch` (hash + bucket + seal).
    insert_time: Duration,
    /// Wall time from the first batch to the last (includes pacing waits).
    elapsed: Duration,
    /// The insert error that stopped the stream early, if any.
    error: Option<String>,
}

/// Streams `docs` into `engine` in `batch_size` chunks, releasing each
/// chunk only once its arrival time at `points_per_sec` has passed.
fn paced_ingest(
    engine: &StreamingEngine,
    docs: &[SparseVector],
    batch_size: usize,
    points_per_sec: f64,
) -> IngestStats {
    let t0 = Instant::now();
    let mut stats = IngestStats::default();
    for batch in docs.chunks(batch_size) {
        let due = Duration::from_secs_f64(stats.points as f64 / points_per_sec);
        if let Some(wait) = due.checked_sub(t0.elapsed()) {
            std::thread::sleep(wait);
        }
        let t1 = Instant::now();
        if let Err(e) = engine.insert_batch(batch) {
            stats.error = Some(e.to_string());
            break;
        }
        stats.insert_time += t1.elapsed();
        stats.batches += 1;
        stats.points += batch.len() as u64;
    }
    stats.elapsed = t0.elapsed();
    stats
}

/// Runs the live overlap measurement.
pub fn run(f: &Fixture) -> StreamingLive {
    let capacity = f.corpus.len();
    let preload = capacity / 2;
    let batch_size = (capacity / 100).max(250);
    let rate = (capacity - preload) as f64 / ingest_target_secs(f.scale);

    let engine = StreamingEngine::new(
        EngineConfig::new(f.params.clone(), capacity).with_eta(0.1),
        f.pool.clone(),
    )
    .expect("valid config");
    engine
        .insert_batch(&f.corpus.vectors()[..preload])
        .expect("preload fits");
    engine.wait_for_merge();
    engine.merge_now();

    // Probe queries whose sources are pre-loaded: they must be found by
    // every batch regardless of which epoch it pins.
    let queries = f.query_vecs();
    let slice = &queries[..queries.len().min(QUERY_SLICE)];
    let probes: Vec<(usize, u32)> = (0..queries.len().min(QUERY_SLICE))
        .filter_map(|i| {
            f.queries
                .source_id(i)
                .filter(|&src| (src as usize) < preload)
                .map(|src| (i, src))
        })
        .collect();
    let check = |answers: &[Vec<plsh_core::Neighbor>]| {
        probes
            .iter()
            .all(|&(qi, src)| answers[qi].iter().any(|h| h.index == src))
    };

    // Warm up the query path before the race starts, and baseline the
    // merge counter so the report counts only merges fired by the ingest.
    let _ = engine.query_batch(slice);
    let merges_before = engine.stats().merges;

    // Ingest thread: the paced stream inserted into the engine.
    let ingest = {
        let engine = engine.clone();
        let docs = f.corpus.vectors()[preload..].to_vec();
        std::thread::spawn(move || paced_ingest(&engine, &docs, batch_size, rate))
    };

    // Query thread (this one): batches against whatever epoch is live.
    let mut during_time = Duration::ZERO;
    let mut during_lat: Vec<Duration> = Vec::new();
    let mut during_queries = 0u64;
    let mut during_batches = 0u64;
    let mut probe_always_found = true;
    let mut epoch_always_consistent = true;
    while !ingest.is_finished() {
        let info = engine.epoch_info();
        epoch_always_consistent &= info.visible_points == info.static_points + info.sealed_points;
        let t0 = Instant::now();
        let (answers, _) = engine.query_batch(slice);
        let lat = t0.elapsed();
        during_time += lat;
        during_lat.push(lat);
        during_queries += slice.len() as u64;
        during_batches += 1;
        probe_always_found &= check(&answers);
    }
    let ingest = ingest.join().expect("ingest thread panicked");
    if let Some(e) = &ingest.error {
        eprintln!(
            "ingest stopped after {} batches ({} points): {e}",
            ingest.batches, ingest.points
        );
    }
    engine.wait_for_merge();
    // Count (and time) only the merges the ingest itself triggered; the
    // quiescing merge below is bookkeeping, not part of the measurement.
    let merges = engine.stats().merges - merges_before;
    let merge_report = engine.last_merge();
    engine.merge_now(); // quiesce: fold any sealed tail

    // Quiesced reference over the same slice, same batch count (min 5).
    let reps = during_batches.max(5);
    let _ = engine.query_batch(slice);
    let mut quiesced_time = Duration::ZERO;
    let mut quiesced_lat: Vec<Duration> = Vec::new();
    let mut quiesced_queries = 0u64;
    for _ in 0..reps {
        let t0 = Instant::now();
        let (answers, _) = engine.query_batch(slice);
        let lat = t0.elapsed();
        quiesced_time += lat;
        quiesced_lat.push(lat);
        quiesced_queries += slice.len() as u64;
        probe_always_found &= check(&answers);
    }

    let qps = |n: u64, t: Duration| {
        if t.is_zero() {
            0.0
        } else {
            n as f64 / t.as_secs_f64()
        }
    };
    StreamingLive {
        preload_points: preload,
        ingest_points: ingest.points as usize,
        batch_size,
        insert_qps: qps(ingest.points, ingest.insert_time),
        ingest_elapsed: ingest.elapsed,
        merges,
        merge_build: merge_report.build,
        merge_publish: merge_report.publish,
        query_batches_during_ingest: during_batches,
        query_qps_during_ingest: qps(during_queries, during_time),
        query_qps_quiesced: qps(quiesced_queries, quiesced_time),
        query_p50_ms_during_ingest: percentile_ms(&mut during_lat, 50),
        query_p99_ms_during_ingest: percentile_ms(&mut during_lat, 99),
        query_p50_ms_quiesced: percentile_ms(&mut quiesced_lat, 50),
        query_p99_ms_quiesced: percentile_ms(&mut quiesced_lat, 99),
        probe_always_found,
        epoch_always_consistent,
        threads: f.pool.num_threads(),
        host_threads: plsh_parallel::affinity::host_threads(),
        pinned_workers: plsh_parallel::pinned_worker_count(),
        scale: match f.scale {
            Scale::Quick => "quick",
            Scale::Full => "full",
        },
    }
}

impl StreamingLive {
    /// Query throughput during ingest as a fraction of quiesced (the
    /// acceptance bar is ≥ 0.5, i.e. within 2×).
    pub fn during_over_quiesced(&self) -> f64 {
        if self.query_qps_quiesced == 0.0 {
            0.0
        } else {
            self.query_qps_during_ingest / self.query_qps_quiesced
        }
    }

    /// Prints the report.
    pub fn print(&self) {
        println!(
            "## Live streaming — insert ‖ query ‖ merge overlap ({} threads)\n",
            self.threads
        );
        println!("| Quantity | Measured |");
        println!("|---|---:|");
        println!(
            "| Ingest | {} points in {:.2} s ({} per batch) |",
            self.ingest_points,
            self.ingest_elapsed.as_secs_f64(),
            self.batch_size
        );
        println!(
            "| Insert throughput (ingest thread) | {:.0} points/s |",
            self.insert_qps
        );
        println!("| Background merges during ingest | {} |", self.merges);
        println!(
            "| Last merge: build / publish window | {:.1} ms / {:.3} ms |",
            self.merge_build.as_secs_f64() * 1e3,
            self.merge_publish.as_secs_f64() * 1e3
        );
        println!(
            "| Query qps during ingest | {:.0} ({} batches) |",
            self.query_qps_during_ingest, self.query_batches_during_ingest
        );
        println!("| Query qps quiesced | {:.0} |", self.query_qps_quiesced);
        println!(
            "| Query batch p50 / p99 during ingest | {:.2} ms / {:.2} ms |",
            self.query_p50_ms_during_ingest, self.query_p99_ms_during_ingest
        );
        println!(
            "| Query batch p50 / p99 quiesced | {:.2} ms / {:.2} ms |",
            self.query_p50_ms_quiesced, self.query_p99_ms_quiesced
        );
        println!(
            "| During / quiesced | {:.2} (bar: >= 0.85) |",
            self.during_over_quiesced()
        );
        println!(
            "| Host threads / pinned workers | {} / {} |",
            self.host_threads, self.pinned_workers
        );
        println!(
            "| Probes found in every batch | {} |",
            self.probe_always_found
        );
        println!(
            "| Epochs always consistent | {} |",
            self.epoch_always_consistent
        );
        println!();
    }

    /// Renders the report as the JSON document `scripts/check_bench.py`
    /// validates.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"experiment\": \"streaming\",\n  \"scale\": \"{}\",\n  \
             \"threads\": {},\n  \"host_threads\": {},\n  \
             \"pinned_workers\": {},\n  \"preload_points\": {},\n  \
             \"ingest_points\": {},\n  \"batch_size\": {},\n  \
             \"insert_qps\": {:.3},\n  \"ingest_elapsed_ms\": {:.3},\n  \
             \"merges\": {},\n  \"merge_build_ms\": {:.3},\n  \
             \"merge_publish_ms\": {:.4},\n  \
             \"query_batches_during_ingest\": {},\n  \
             \"query_qps_during_ingest\": {:.3},\n  \
             \"query_qps_quiesced\": {:.3},\n  \
             \"query_p50_ms_during_ingest\": {:.4},\n  \
             \"query_p99_ms_during_ingest\": {:.4},\n  \
             \"query_p50_ms_quiesced\": {:.4},\n  \
             \"query_p99_ms_quiesced\": {:.4},\n  \
             \"during_over_quiesced\": {:.4},\n  \
             \"probe_always_found\": {},\n  \
             \"epoch_always_consistent\": {}\n}}\n",
            self.scale,
            self.threads,
            self.host_threads,
            self.pinned_workers,
            self.preload_points,
            self.ingest_points,
            self.batch_size,
            self.insert_qps,
            self.ingest_elapsed.as_secs_f64() * 1e3,
            self.merges,
            self.merge_build.as_secs_f64() * 1e3,
            self.merge_publish.as_secs_f64() * 1e3,
            self.query_batches_during_ingest,
            self.query_qps_during_ingest,
            self.query_qps_quiesced,
            self.query_p50_ms_during_ingest,
            self.query_p99_ms_during_ingest,
            self.query_p50_ms_quiesced,
            self.query_p99_ms_quiesced,
            self.during_over_quiesced(),
            self.probe_always_found,
            self.epoch_always_consistent
        )
    }

    /// Writes the JSON report to `path` (fsync + atomic rename).
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        crate::setup::write_json_atomic(path, &self.to_json())
    }
}

/// Report location: `PLSH_BENCH_STREAMING_OUT`, defaulting to
/// `BENCH_streaming.json` in the working directory.
pub fn output_path() -> String {
    std::env::var("PLSH_BENCH_STREAMING_OUT").unwrap_or_else(|_| "BENCH_streaming.json".to_string())
}
