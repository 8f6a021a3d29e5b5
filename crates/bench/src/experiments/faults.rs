//! Chaos-soak experiment: streaming ingest + queries under randomized
//! injected faults — recorded to `BENCH_faults.json`.
//!
//! The fault-tolerance subsystem (named failpoints, one-shot merge
//! threads, retry-with-backoff, degraded read-only mode) claims that
//! transient faults are invisible, a panicked merge is counted and run
//! again at the next trigger, and a persistent
//! disk failure degrades writes while reads keep answering — and that
//! after the fault heals the engine converges bit-identically to an
//! unfaulted twin. This experiment drives one scripted life through all
//! three regimes and prices them:
//!
//! * **transient storm** — probabilistic WAL/fsync EIOs and merge
//!   panics while streaming; measures ingest qps under fault vs clean,
//!   injected-fault and merge-failure counts,
//! * **persistent failure** — an unlimited WAL EIO trips degraded
//!   read-only mode; verifies queries still answer, then measures
//!   time-to-recover (heal + re-sync + re-apply the rejected batch),
//! * **convergence** — after healing, answers must be bit-identical to
//!   the unfaulted twin, and the journal written through all the retries
//!   must recover from disk to those same answers.

use std::time::Instant;

use plsh_core::engine::EngineConfig;
use plsh_core::error::PlshError;
use plsh_core::fault::{self, FaultKind, FaultSpec};
use plsh_core::sparse::SparseVector;
use plsh_core::streaming::StreamingEngine;
use plsh_parallel::ThreadPool;

use crate::setup::{Fixture, Scale};

/// Ingest batch size (one WAL record + fsync per batch).
const BATCH: usize = 256;

/// The measured report.
#[derive(Debug, Clone)]
pub struct Faults {
    /// Corpus points streamed.
    pub docs: usize,
    /// Fixture queries used for the equivalence checks.
    pub queries: usize,
    /// Total injections fired across all sites.
    pub faults_injected: u64,
    /// Merge panics injected (each must be counted exactly once).
    pub injected_panics: u64,
    /// Merge failures observed in the health report.
    pub merge_failures: u64,
    /// Times the engine tripped into degraded read-only mode.
    pub degraded_episodes: u64,
    /// Wall time from lifting the persistent fault to a healed,
    /// read-write engine with the rejected batch re-applied.
    pub time_to_recover_ms: f64,
    /// Ingest throughput during the transient-fault storm.
    pub qps_under_fault: f64,
    /// Ingest throughput of the identical unfaulted schedule.
    pub qps_clean: f64,
    /// While degraded, queries kept answering (no panic, no hang).
    pub reads_survived_degraded: bool,
    /// Post-heal answers are bit-identical to the unfaulted twin's.
    pub answers_match: bool,
    /// The journal written through the faults recovers from disk to the
    /// same answers.
    pub recovered_match: bool,
    /// Worker threads.
    pub threads: usize,
    /// Scale preset name.
    pub scale: &'static str,
}

fn sorted_answers(e: &StreamingEngine, qs: &[SparseVector]) -> Vec<Vec<(u32, u32)>> {
    qs.iter()
        .map(|q| {
            let mut hits: Vec<(u32, u32)> = e
                .query(q)
                .into_iter()
                .map(|n| (n.index, n.distance.to_bits()))
                .collect();
            hits.sort_unstable();
            hits
        })
        .collect()
}

/// The scripted life: stream the corpus in WAL-sized batches with a few
/// deletes sprinkled in, background-merging along the way. `faulted`
/// marks the engine that absorbs the injections (its phase-B rejected
/// batch is re-applied after healing, so both engines end on the same
/// accepted schedule).
struct Life {
    engine: StreamingEngine,
    stream_secs: f64,
}

/// Running tallies of the faulted life.
#[derive(Default)]
struct SoakState {
    degraded_episodes: u64,
    time_to_recover_ms: f64,
    read_failures: u64,
}

/// Probes queries while degraded: they must answer without panicking.
fn probe_reads(engine: &StreamingEngine, queries: &[SparseVector], soak: &mut SoakState) {
    let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sorted_answers(engine, &queries[..queries.len().min(8)]).len()
    }))
    .is_ok();
    if !ok {
        soak.read_failures += 1;
    }
}

/// Applies one scheduled step to the faulted engine, healing through any
/// degrade (a probabilistic storm can exhaust a retry budget; the storm
/// fault stays lifted afterwards so the schedule always completes).
fn apply_step(
    engine: &StreamingEngine,
    queries: &[SparseVector],
    i: usize,
    chunk: &[SparseVector],
    soak: &mut SoakState,
) {
    loop {
        match engine.insert_batch(chunk) {
            Ok(_) => break,
            Err(PlshError::Degraded(_)) => {
                soak.degraded_episodes += 1;
                probe_reads(engine, queries, soak);
                let t0 = Instant::now();
                fault::disarm(fault::WAL_APPEND);
                fault::disarm(fault::WAL_FSYNC);
                assert!(engine.heal(), "heal with the fault lifted");
                soak.time_to_recover_ms += t0.elapsed().as_secs_f64() * 1e3;
            }
            Err(other) => panic!("unexpected ingest error: {other}"),
        }
    }
    if i % 16 == 7 {
        let _ = engine.engine().try_delete((i * BATCH / 2) as u32);
    }
}

fn run_clean(f: &Fixture) -> Life {
    let engine = StreamingEngine::new(
        EngineConfig::new(f.params.clone(), f.corpus.len()),
        ThreadPool::new(f.pool.num_threads()),
    )
    .expect("valid config");
    let t0 = Instant::now();
    for (i, chunk) in f.corpus.vectors().chunks(BATCH).enumerate() {
        engine.insert_batch(chunk).expect("corpus fits");
        if i % 16 == 7 {
            let _ = engine.engine().try_delete((i * BATCH / 2) as u32);
        }
    }
    let stream_secs = t0.elapsed().as_secs_f64();
    engine.flush();
    Life {
        engine,
        stream_secs,
    }
}

/// Runs the chaos soak.
pub fn run(f: &Fixture) -> Faults {
    let dir = std::env::temp_dir().join(format!("plsh-bench-faults-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    fault::disarm_all();
    fault::reset_counters();

    // Untimed warm-up (first-touch page faults), then the clean twin —
    // it doubles as the correctness reference.
    drop(run_clean(f));
    let twin = run_clean(f);
    let queries = f.query_vecs();
    let reference = sorted_answers(&twin.engine, queries);

    // ---- Faulted life ----
    let engine = StreamingEngine::new(
        EngineConfig::new(f.params.clone(), f.corpus.len()),
        ThreadPool::new(f.pool.num_threads()),
    )
    .expect("valid config");
    engine.persist_to(&dir).expect("fresh directory");

    // Phase A: transient storm. Every EIO probability sits far inside
    // the 4-retry budget (P[5 consecutive] ≈ 3e-4 per record); each
    // merge panic is counted, and the next insert past η·C merges again.
    fault::arm(
        fault::WAL_APPEND,
        FaultSpec::new(FaultKind::Err).probability(0.15),
    );
    fault::arm(
        fault::WAL_FSYNC,
        FaultSpec::new(FaultKind::Err).probability(0.1),
    );
    fault::arm(
        fault::MERGE_BUILD,
        FaultSpec::new(FaultKind::Panic).times(2),
    );

    let chunks: Vec<&[SparseVector]> = f.corpus.vectors().chunks(BATCH).collect();
    let storm_end = chunks.len() * 3 / 5;
    let mut soak = SoakState::default();

    let t0 = Instant::now();
    for (i, chunk) in chunks[..storm_end].iter().enumerate() {
        apply_step(&engine, queries, i, chunk, &mut soak);
    }
    let storm_secs = t0.elapsed().as_secs_f64();
    let streamed_under_fault: usize = chunks[..storm_end].iter().map(|c| c.len()).sum();
    // Storm merges are in flight; let them land so every armed panic has
    // fired before the counters are read (disarming drops per-site
    // counts).
    engine.wait_for_merge();
    let injected_panics = fault::fired(fault::MERGE_BUILD);

    // Phase B: persistent failure. Unlimited EIOs exhaust the retry
    // budget; the engine must degrade (writes typed-rejected, reads
    // answering) until the fault lifts and heal() re-syncs.
    fault::disarm_all();
    fault::arm(fault::WAL_APPEND, FaultSpec::new(FaultKind::Err));
    let failed = chunks[storm_end];
    match engine.insert_batch(failed) {
        Err(PlshError::Degraded(_)) => soak.degraded_episodes += 1,
        other => panic!("persistent WAL failure must degrade, got {other:?}"),
    }
    assert!(engine.health().degraded, "health reports the degrade");
    probe_reads(&engine, queries, &mut soak);

    let t0 = Instant::now();
    fault::disarm_all();
    assert!(engine.heal(), "heal with the fault lifted");
    engine.insert_batch(failed).expect("re-apply after heal");
    if storm_end % 16 == 7 {
        let _ = engine.engine().try_delete((storm_end * BATCH / 2) as u32);
    }
    soak.time_to_recover_ms += t0.elapsed().as_secs_f64() * 1e3;

    // Phase C: finish the schedule clean and converge.
    for (i, chunk) in chunks.iter().enumerate().skip(storm_end + 1) {
        apply_step(&engine, queries, i, chunk, &mut soak);
    }
    engine.flush();

    let health = engine.health();
    let answers_match = sorted_answers(&engine, queries) == reference;
    let faults_injected = fault::fired_total();
    let merge_failures = health.merge_failures;
    drop(engine);

    let recovered = StreamingEngine::recover_from(&dir, ThreadPool::new(f.pool.num_threads()))
        .expect("journal recovers");
    let recovered_match = sorted_answers(&recovered, queries) == reference;
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
    fault::disarm_all();

    let qps = |n: usize, secs: f64| if secs > 0.0 { n as f64 / secs } else { 0.0 };
    Faults {
        docs: f.corpus.len(),
        queries: queries.len(),
        faults_injected,
        injected_panics,
        merge_failures,
        degraded_episodes: soak.degraded_episodes,
        time_to_recover_ms: soak.time_to_recover_ms,
        qps_under_fault: qps(streamed_under_fault, storm_secs),
        qps_clean: qps(f.corpus.len(), twin.stream_secs),
        reads_survived_degraded: soak.read_failures == 0,
        answers_match,
        recovered_match,
        threads: f.pool.num_threads(),
        scale: match f.scale {
            Scale::Quick => "quick",
            Scale::Full => "full",
        },
    }
}

impl Faults {
    /// Throughput under the transient storm as a fraction of clean.
    pub fn fault_overhead(&self) -> f64 {
        if self.qps_clean == 0.0 {
            0.0
        } else {
            self.qps_under_fault / self.qps_clean
        }
    }

    /// Prints the report.
    pub fn print(&self) {
        println!(
            "## Chaos soak — ingest + queries under injected faults ({} docs, {} threads)\n",
            self.docs, self.threads
        );
        println!("| Quantity | Measured |");
        println!("|---|---:|");
        println!("| Faults injected | {} |", self.faults_injected);
        println!(
            "| Merge panics / merge failures | {} / {} |",
            self.injected_panics, self.merge_failures
        );
        println!("| Degraded episodes | {} |", self.degraded_episodes);
        println!("| Time to recover | {:.1} ms |", self.time_to_recover_ms);
        println!(
            "| Ingest qps under fault / clean | {:.0} / {:.0} ({:.2}x) |",
            self.qps_under_fault,
            self.qps_clean,
            self.fault_overhead()
        );
        println!(
            "| Reads survived degraded mode | {} |",
            self.reads_survived_degraded
        );
        println!(
            "| Post-heal answers match twin ({} queries) | {} |",
            self.queries, self.answers_match
        );
        println!(
            "| Journal recovers to same answers | {} |",
            self.recovered_match
        );
        println!();
    }

    /// Renders the report as the JSON document `scripts/check_bench.py`
    /// validates.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"experiment\": \"faults\",\n  \"scale\": \"{}\",\n  \
             \"threads\": {},\n  \"host_threads\": {},\n  \
             \"pinned_workers\": {},\n  \"docs\": {},\n  \"queries\": {},\n  \
             \"faults_injected\": {},\n  \"injected_panics\": {},\n  \
             \"merge_failures\": {},\n  \"degraded_episodes\": {},\n  \
             \"time_to_recover_ms\": {:.3},\n  \
             \"qps_under_fault\": {:.3},\n  \"qps_clean\": {:.3},\n  \
             \"fault_overhead\": {:.4},\n  \
             \"reads_survived_degraded\": {},\n  \
             \"answers_match\": {},\n  \"recovered_match\": {}\n}}\n",
            self.scale,
            self.threads,
            plsh_parallel::affinity::host_threads(),
            plsh_parallel::pinned_worker_count(),
            self.docs,
            self.queries,
            self.faults_injected,
            self.injected_panics,
            self.merge_failures,
            self.degraded_episodes,
            self.time_to_recover_ms,
            self.qps_under_fault,
            self.qps_clean,
            self.fault_overhead(),
            self.reads_survived_degraded,
            self.answers_match,
            self.recovered_match
        )
    }
}

/// The report file, written to the working directory.
pub const REPORT: &str = "BENCH_faults.json";
