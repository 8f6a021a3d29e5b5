//! Shard-scaling experiment: the `ShardedIndex` at 1/2/4/8 shards vs one
//! engine, recorded to `BENCH_cluster.json`.
//!
//! The paper's headline claim is near-linear scaling of streaming LSH
//! across cores and nodes (Figures 9–10). This experiment drives the
//! shard-per-core successor of the broadcast cluster through the regime
//! where sharding pays:
//!
//! * **During ingest** a paced firehose streams half the corpus in while
//!   the main thread keeps answering query batches. The experiment runs
//!   at a merge-pressure operating point (`η` well below the paper's 0.1,
//!   so the quick corpus actually exercises the merge path): one shared
//!   engine rebuilds its whole static structure at every threshold
//!   crossing, while `S` shard-local tables rebuild `1/S`-sized
//!   structures `1/S`-th as often each — the shard-local-tables argument
//!   (PIMDAL / Polynesia) measured directly as query throughput *during*
//!   the stream.
//! * **Quiesced** the same query batches run after everything merged —
//!   on a multi-core host this exposes the fan-out parallelism across
//!   shards; on a single hardware thread it honestly shows the per-shard
//!   Q1 duplication cost instead.
//! * **`answers_match`** re-checks, per shard count, that radius answer
//!   sets and k-NN rankings are bit-identical to a single engine over the
//!   same corpus (the root `backend_equivalence` suite covers the
//!   mid-ingest case; here it is re-verified at bench scale).
//!
//! The shard counts swept are fixed (1/2/4/8) so reports are comparable
//! across machines; the model-predicted count for *this* machine is
//! reported alongside.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use plsh_cluster::ShardedIndex;
use plsh_core::engine::EngineConfig;
use plsh_core::model::{MachineProfile, PerformanceModel};
use plsh_core::params::estimate_candidates;
use plsh_core::search::{SearchRequest, SearchResponse};
use plsh_core::sparse::SparseVector;
use plsh_parallel::current_num_threads_hint;

use crate::setup::{percentile_ms, Fixture, Scale};

/// Shard counts swept (the 1-shard row is the baseline every ratio uses).
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Merge-pressure delta fraction: far below the paper's 0.1 so the scaled
/// corpora merge many times during the stream (at quick scale, η = 0.1
/// would merge a handful of times and the merge path would go unmeasured).
const ETA: f64 = 0.02;

/// Queries per measured batch (small enough to sample the changing epochs
/// many times over the ingest window).
const QUERY_SLICE: usize = 64;

/// Target wall time for streaming the second half, per scale: sets the
/// firehose pacing so arrival resembles a rate-limited stream.
fn ingest_target_secs(scale: Scale) -> f64 {
    match scale {
        Scale::Quick => 2.5,
        Scale::Full => 10.0,
    }
}

/// One shard-count configuration's measurements.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Shard count.
    pub shards: usize,
    /// Fan-out pool threads used for queries.
    pub threads: usize,
    /// Aggregate ingest throughput: streamed points over the wall time
    /// from the first insert to the last one sealed (includes pacing
    /// waits).
    pub ingest_qps: f64,
    /// Wall time of the streamed half.
    pub ingest_elapsed: Duration,
    /// Merges fired during the stream (across all shards).
    pub merges: u64,
    /// Query batches completed while the stream was live.
    pub query_batches_during_ingest: u64,
    /// Query throughput while ingesting.
    pub query_qps_during_ingest: f64,
    /// Query throughput after everything quiesced into static tables.
    pub query_qps_quiesced: f64,
    /// p99 per-batch query latency while ingesting, milliseconds — tail
    /// stalls from shard merges show up here before they dent mean qps.
    pub query_p99_ms_during_ingest: f64,
    /// p99 per-batch query latency quiesced, milliseconds.
    pub query_p99_ms_quiesced: f64,
    /// Radius answer sets and k-NN rankings identical to the single
    /// reference engine.
    pub answers_match: bool,
}

/// The whole report.
#[derive(Debug, Clone)]
pub struct ScalingReport {
    /// Per-shard-count measurements, ascending by shard count.
    pub points: Vec<ScalingPoint>,
    /// Shard count the calibrated performance model picks for this
    /// machine ([`PerformanceModel::pick_shard_count`]).
    pub model_predicted_shards: usize,
    /// Best multi-shard during-ingest qps over the 1-shard baseline.
    pub during_speedup_best: f64,
    /// Best multi-shard quiesced qps over the 1-shard baseline.
    pub quiesced_speedup_best: f64,
    /// Points pre-loaded (merged static) before the stream.
    pub preload_points: usize,
    /// Points streamed during the measurement.
    pub ingest_points: usize,
    /// Merge-pressure η used.
    pub eta: f64,
    /// Worker threads available to the harness.
    pub threads: usize,
    /// Hardware threads on the host that produced the report.
    pub host_threads: usize,
    /// Pool workers that successfully pinned to a core (0 when pinning
    /// is disabled or the host is single-core).
    pub pinned_workers: usize,
    /// Scale preset name.
    pub scale: &'static str,
}

impl ScalingReport {
    /// `answers_match` across every shard count.
    pub fn answers_match(&self) -> bool {
        self.points.iter().all(|p| p.answers_match)
    }

    /// The acceptance ratio: the better of the during-ingest and quiesced
    /// best multi-shard speedups. A multi-core host wins on quiesced
    /// fan-out; a single-core host wins on merge amplification during
    /// ingest; either way the multi-shard configuration must beat one
    /// shard.
    pub fn multi_shard_speedup(&self) -> f64 {
        self.during_speedup_best.max(self.quiesced_speedup_best)
    }
}

/// Canonical per-query answer forms for the match check: sorted
/// `(global id, distance bits)` sets for radius mode, ordered lists for
/// k-NN (rank order must match too).
fn radius_canon(resp: &SearchResponse) -> Vec<Vec<(u32, u32)>> {
    resp.results
        .iter()
        .map(|hits| {
            let mut set: Vec<(u32, u32)> = hits
                .iter()
                .map(|h| (h.index, h.distance.to_bits()))
                .collect();
            set.sort_unstable();
            set
        })
        .collect()
}

fn knn_canon(resp: &SearchResponse) -> Vec<Vec<(u32, u32)>> {
    resp.results
        .iter()
        .map(|hits| {
            hits.iter()
                .map(|h| (h.index, h.distance.to_bits()))
                .collect()
        })
        .collect()
}

/// Runs the sweep.
pub fn run(f: &Fixture) -> ScalingReport {
    let n = f.corpus.len();
    let preload = n / 2;
    let chunk = (n / 200).max(100);
    let rate = (n - preload) as f64 / ingest_target_secs(f.scale);
    let hint = current_num_threads_hint();

    // Reference: one engine over the whole corpus, fully static.
    let reference = f.static_engine();
    let queries = f.query_vecs();
    let slice = &queries[..queries.len().min(QUERY_SLICE)];
    let radius_req = SearchRequest::batch(slice.to_vec());
    let knn_req = SearchRequest::batch(slice.to_vec()).top_k(10);
    let ref_radius = radius_canon(
        &reference
            .search(&radius_req, &f.pool)
            .expect("valid request"),
    );
    let ref_knn = knn_canon(&reference.search(&knn_req, &f.pool).expect("valid request"));

    // Model prediction for this machine (reported, not swept). Distance
    // sample drawn as in Section 7.3 (query–point pairs from the corpus).
    let model_predicted_shards = {
        let mut rng = plsh_core::rng::SplitMix64::new(4242);
        let mut sample = Vec::with_capacity(2_000);
        for _ in 0..200 {
            let q = f.corpus.vector(rng.next_below(n as u64) as u32);
            for _ in 0..10 {
                let v = f.corpus.vector(rng.next_below(n as u64) as u32);
                sample.push(q.angular_distance(v));
            }
        }
        let profile = MachineProfile::calibrate(&f.pool, 2.6e9);
        let (e_coll, e_uniq) = estimate_candidates(&sample, n, f.params.k(), f.params.m());
        // Same cap as ShardedIndexBuilder's model path (and the checker's
        // plausibility bound): a many-core host must not predict an
        // unbounded fan-out.
        PerformanceModel::new(profile).pick_shard_count(
            QUERY_SLICE,
            f.corpus.avg_nnz(),
            e_coll,
            e_uniq,
            &f.params,
            hint.clamp(1, 64),
        )
    };

    let mut points = Vec::new();
    for &shards in &SHARD_COUNTS {
        eprintln!("#   scaling: {shards} shard(s)...");
        points.push(run_one(
            f,
            shards,
            hint,
            preload,
            chunk,
            rate,
            slice,
            &radius_req,
            &knn_req,
            &ref_radius,
            &ref_knn,
        ));
    }

    let base_during = points[0].query_qps_during_ingest;
    let base_quiesced = points[0].query_qps_quiesced;
    let ratio = |x: f64, base: f64| if base > 0.0 { x / base } else { 0.0 };
    let during_speedup_best = points[1..]
        .iter()
        .map(|p| ratio(p.query_qps_during_ingest, base_during))
        .fold(0.0, f64::max);
    let quiesced_speedup_best = points[1..]
        .iter()
        .map(|p| ratio(p.query_qps_quiesced, base_quiesced))
        .fold(0.0, f64::max);

    ScalingReport {
        points,
        model_predicted_shards,
        during_speedup_best,
        quiesced_speedup_best,
        preload_points: preload,
        ingest_points: n - preload,
        eta: ETA,
        threads: hint,
        host_threads: plsh_parallel::affinity::host_threads(),
        pinned_workers: plsh_parallel::pinned_worker_count(),
        scale: match f.scale {
            Scale::Quick => "quick",
            Scale::Full => "full",
        },
    }
}

#[allow(clippy::too_many_arguments)]
fn run_one(
    f: &Fixture,
    shards: usize,
    hint: usize,
    preload: usize,
    chunk: usize,
    rate: f64,
    slice: &[SparseVector],
    radius_req: &SearchRequest,
    knn_req: &SearchRequest,
    ref_radius: &[Vec<(u32, u32)>],
    ref_knn: &[Vec<(u32, u32)>],
) -> ScalingPoint {
    let n = f.corpus.len();
    let threads = shards.min(hint).max(1);
    // Per-shard capacity is the full corpus (each shard is a
    // full-capacity node, the paper's per-node C), so the merge threshold
    // η·C is the same absolute size for every shard count and the merge
    // amplification difference is purely structural. Seals coalesce so
    // generation counts stay comparable across shard counts.
    let node = EngineConfig::new(f.params.clone(), n)
        .with_eta(ETA)
        .with_seal_min_points((chunk / 2).max(1));
    let index = Arc::new(
        ShardedIndex::builder(node)
            .shards(shards)
            .threads(threads)
            .build()
            .expect("valid sharded config"),
    );

    // Preload the first half and quiesce it into static tables.
    index
        .insert_batch(&f.corpus.vectors()[..preload])
        .expect("preload fits");
    index.quiesce().expect("quiescing the preload");
    let merges_before = index.stats().merges;

    // Warm the query path.
    let _ = index.search(radius_req).expect("valid request");

    // Ingest thread: stream the second half, releasing each batch once
    // its arrival time has passed (the pacing belongs to the arrival
    // process, not to the index).
    let done = Arc::new(AtomicBool::new(false));
    let ingest = {
        let index = index.clone();
        let done = done.clone();
        let docs = f.corpus.vectors()[preload..].to_vec();
        std::thread::spawn(move || {
            let t0 = Instant::now();
            for (i, batch) in docs.chunks(chunk).enumerate() {
                let due = Duration::from_secs_f64((i * chunk) as f64 / rate);
                if let Some(wait) = due.checked_sub(t0.elapsed()) {
                    std::thread::sleep(wait);
                }
                index.insert_batch(batch).expect("stream fits capacity");
            }
            // Seal the coalesced tail so every streamed point is visible.
            index.flush().expect("sealing every shard");
            let elapsed = t0.elapsed();
            done.store(true, Ordering::Release);
            elapsed
        })
    };

    // Query thread (this one): batches against whatever epochs are live.
    let mut during_time = Duration::ZERO;
    let mut during_lat: Vec<Duration> = Vec::new();
    let mut during_queries = 0u64;
    let mut during_batches = 0u64;
    while !done.load(Ordering::Acquire) {
        let t0 = Instant::now();
        let resp = index.search(radius_req).expect("valid request");
        let lat = t0.elapsed();
        during_time += lat;
        during_lat.push(lat);
        during_queries += slice.len() as u64;
        during_batches += 1;
        std::hint::black_box(resp.total_hits());
    }
    let ingest_elapsed = ingest.join().expect("ingest thread");
    let merges = index.stats().merges - merges_before;
    index.quiesce().expect("quiescing the stream");

    // Quiesced reference over the same slice, same batch count (min 5).
    let reps = during_batches.max(5);
    let _ = index.search(radius_req).expect("valid request");
    let mut quiesced_time = Duration::ZERO;
    let mut quiesced_lat: Vec<Duration> = Vec::new();
    let mut quiesced_queries = 0u64;
    for _ in 0..reps {
        let t0 = Instant::now();
        let resp = index.search(radius_req).expect("valid request");
        let lat = t0.elapsed();
        quiesced_time += lat;
        quiesced_lat.push(lat);
        quiesced_queries += slice.len() as u64;
        std::hint::black_box(resp.total_hits());
    }

    // Answer equivalence vs the single reference engine.
    let radius_resp = index.search(radius_req).expect("valid request");
    let knn_resp = index.search(knn_req).expect("valid request");
    let answers_match = radius_canon(&radius_resp) == ref_radius && knn_canon(&knn_resp) == ref_knn;

    let qps = |q: u64, t: Duration| {
        if t.is_zero() {
            0.0
        } else {
            q as f64 / t.as_secs_f64()
        }
    };
    ScalingPoint {
        shards,
        threads,
        ingest_qps: qps((n - preload) as u64, ingest_elapsed),
        ingest_elapsed,
        merges,
        query_batches_during_ingest: during_batches,
        query_qps_during_ingest: qps(during_queries, during_time),
        query_qps_quiesced: qps(quiesced_queries, quiesced_time),
        query_p99_ms_during_ingest: percentile_ms(&mut during_lat, 99),
        query_p99_ms_quiesced: percentile_ms(&mut quiesced_lat, 99),
        answers_match,
    }
}

impl ScalingReport {
    /// Prints the report.
    pub fn print(&self) {
        println!(
            "## Shard scaling — {} preload + {} streamed, eta = {} ({} hardware threads, model picks {} shard(s))\n",
            self.preload_points, self.ingest_points, self.eta, self.threads,
            self.model_predicted_shards
        );
        println!("| Shards | Threads | Ingest qps | Merges | Query qps (during) | p99 ms (during) | Query qps (quiesced) | p99 ms (quiesced) | Answers match |");
        println!("|---:|---:|---:|---:|---:|---:|---:|---:|---|");
        for p in &self.points {
            println!(
                "| {} | {} | {:.0} | {} | {:.0} ({} batches) | {:.2} | {:.0} | {:.2} | {} |",
                p.shards,
                p.threads,
                p.ingest_qps,
                p.merges,
                p.query_qps_during_ingest,
                p.query_batches_during_ingest,
                p.query_p99_ms_during_ingest,
                p.query_qps_quiesced,
                p.query_p99_ms_quiesced,
                p.answers_match
            );
        }
        println!(
            "\nBest multi-shard speedup over 1 shard: {:.2}x during ingest, {:.2}x quiesced (bar: best >= 1.5).",
            self.during_speedup_best, self.quiesced_speedup_best
        );
        println!(
            "Host threads: {}; pinned workers: {}.\n",
            self.host_threads, self.pinned_workers
        );
    }

    /// Renders the report as the JSON document `scripts/check_bench.py`
    /// validates.
    pub fn to_json(&self) -> String {
        let configs: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                format!(
                    "    {{\"shards\": {}, \"threads\": {}, \"ingest_qps\": {:.3}, \
                     \"ingest_elapsed_ms\": {:.3}, \"merges\": {}, \
                     \"query_batches_during_ingest\": {}, \
                     \"query_qps_during_ingest\": {:.3}, \
                     \"query_qps_quiesced\": {:.3}, \
                     \"query_p99_ms_during_ingest\": {:.4}, \
                     \"query_p99_ms_quiesced\": {:.4}, \"answers_match\": {}}}",
                    p.shards,
                    p.threads,
                    p.ingest_qps,
                    p.ingest_elapsed.as_secs_f64() * 1e3,
                    p.merges,
                    p.query_batches_during_ingest,
                    p.query_qps_during_ingest,
                    p.query_qps_quiesced,
                    p.query_p99_ms_during_ingest,
                    p.query_p99_ms_quiesced,
                    p.answers_match
                )
            })
            .collect();
        format!(
            "{{\n  \"experiment\": \"scaling\",\n  \"scale\": \"{}\",\n  \
             \"threads\": {},\n  \"host_threads\": {},\n  \
             \"pinned_workers\": {},\n  \"preload_points\": {},\n  \
             \"ingest_points\": {},\n  \"eta\": {},\n  \
             \"model_predicted_shards\": {},\n  \"configs\": [\n{}\n  ],\n  \
             \"during_speedup_best\": {:.4},\n  \
             \"quiesced_speedup_best\": {:.4},\n  \
             \"multi_shard_speedup\": {:.4},\n  \"answers_match\": {}\n}}\n",
            self.scale,
            self.threads,
            self.host_threads,
            self.pinned_workers,
            self.preload_points,
            self.ingest_points,
            self.eta,
            self.model_predicted_shards,
            configs.join(",\n"),
            self.during_speedup_best,
            self.quiesced_speedup_best,
            self.multi_shard_speedup(),
            self.answers_match()
        )
    }
}

/// The report file, written to the working directory.
pub const REPORT: &str = "BENCH_cluster.json";
