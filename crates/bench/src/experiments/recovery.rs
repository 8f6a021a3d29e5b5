//! Durability experiment: journaled ingest, crash, recovery — recorded to
//! `BENCH_recovery.json`.
//!
//! The paper's streaming node is in-memory; the persistence subsystem
//! bolts a WAL + segment-per-generation journal underneath it. This
//! experiment prices that journal and the restart it buys:
//!
//! * ingest throughput with journaling on vs off (the write-path tax:
//!   one buffered WAL record + fsync per batch, one segment write per
//!   seal, one manifest swap per merge),
//! * recovery wall time from a directory whose engine was dropped
//!   mid-stream — static segment + sealed generation segments + a live
//!   WAL tail that never made it into a segment,
//! * correctness: the recovered engine must answer every fixture query
//!   bit-identically to an in-memory twin that ran the same schedule
//!   (sealed, since recovery seals the replayed WAL tail), and every
//!   pre-crash tombstone must survive.

use std::time::Instant;

use plsh_core::engine::{Engine, EngineConfig};
use plsh_core::persist;

use crate::setup::{Fixture, Scale};

/// Ingest batch size for the journaled stream (one WAL record + fsync
/// per batch). Deliberately not a divisor of either scale's streamed
/// count: the crash must always catch a sub-threshold tail that exists
/// only in the WAL, so recovery exercises the replay path.
const BATCH: usize = 512;

/// Open-generation coalescing threshold: generations seal at 4 batches
/// (2048 points), which never divides the streamed count evenly.
const SEAL_MIN: usize = 2_000;

/// The measured report.
#[derive(Debug, Clone)]
pub struct Recovery {
    /// Corpus points journaled before the simulated crash.
    pub docs: usize,
    /// Fixture queries used for the equivalence check.
    pub queries: usize,
    /// Points in the durable static segment at crash time.
    pub static_points: usize,
    /// Sealed generation segments on disk at crash time.
    pub generation_segments: usize,
    /// Points recovered out of the live WAL tail (never sealed).
    pub wal_points: usize,
    /// Tombstones issued before the crash.
    pub tombstones: usize,
    /// Ingest throughput with the journal attached.
    pub ingest_qps_journaled: f64,
    /// Ingest throughput of the identical schedule without a journal.
    pub ingest_qps_memory: f64,
    /// Wall time of `Engine::recover_from`.
    pub recovery_ms: f64,
    /// Recovered points per second of recovery wall time.
    pub replay_points_per_sec: f64,
    /// Recovered answers are bit-identical to the in-memory twin's.
    pub answers_match: bool,
    /// Every pre-crash tombstone is still a tombstone after recovery.
    pub tombstones_survived: bool,
    /// Worker threads.
    pub threads: usize,
    /// Scale preset name.
    pub scale: &'static str,
}

fn sorted_answers(e: &Engine, qs: &[plsh_core::sparse::SparseVector]) -> Vec<Vec<(u32, u32)>> {
    qs.iter()
        .map(|q| {
            let mut hits: Vec<(u32, u32)> = e
                .query(q)
                .iter()
                .map(|h| (h.index, h.distance.to_bits()))
                .collect();
            hits.sort_unstable();
            hits
        })
        .collect()
}

/// The scripted pre-crash life, shared by the journaled and in-memory
/// runs: bulk-load 60% and merge it static, then stream the remaining
/// 40% in WAL-sized batches with a few deletes sprinkled in. Returns
/// (engine, tombstoned ids, ingest seconds spent inside the stream).
fn run_life(f: &Fixture, dir: Option<&std::path::Path>) -> (Engine, Vec<u32>, f64) {
    let capacity = f.corpus.len();
    let engine = Engine::new(
        EngineConfig::new(f.params.clone(), capacity)
            .manual_merge()
            .with_seal_min_points(SEAL_MIN),
        &f.pool,
    )
    .expect("valid config");
    if let Some(dir) = dir {
        engine.persist_to(dir).expect("fresh directory");
    }
    let static_cut = capacity * 3 / 5;
    engine
        .insert_batch(&f.corpus.vectors()[..static_cut], &f.pool)
        .expect("corpus fits");
    engine.delete(17);
    engine.merge_delta(&f.pool);

    let mut deleted = vec![17u32];
    let t0 = Instant::now();
    for (i, chunk) in f.corpus.vectors()[static_cut..].chunks(BATCH).enumerate() {
        engine.insert_batch(chunk, &f.pool).expect("corpus fits");
        if i % 16 == 7 {
            let id = (static_cut + i * BATCH / 2) as u32;
            if engine.delete(id) {
                deleted.push(id);
            }
        }
    }
    let ingest_secs = t0.elapsed().as_secs_f64();
    (engine, deleted, ingest_secs)
}

/// Runs the journaled-ingest / crash / recover measurement.
pub fn run(f: &Fixture) -> Recovery {
    let dir = std::env::temp_dir().join(format!("plsh-bench-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let streamed = f.corpus.len() - f.corpus.len() * 3 / 5;

    // Untimed warm-up life first: the very first run pays first-touch
    // page faults for every fresh table allocation (multiple-x on the
    // insert path), which would otherwise be billed to whichever
    // measured run goes first and drown the journal tax being measured.
    let (warm, _, _) = run_life(f, None);
    drop(warm);

    // In-memory baseline (it doubles as the correctness reference: same
    // insertion schedule, same deletes, same seed — a bit-identical
    // twin of the journaled engine). Recovery seals the WAL tail it
    // replays, while the pre-crash engine's open generation was not yet
    // visible to queries, so the reference is the sealed twin.
    let queries = f.query_vecs();
    let (memory, _, memory_secs) = run_life(f, None);
    memory.seal();
    let reference = sorted_answers(&memory, queries);
    drop(memory);

    let (engine, deleted, journaled_secs) = run_life(f, Some(&dir));
    // Crash: the engine vanishes with its open tail still WAL-only.
    drop(engine);

    let st = persist::load_state(&dir).expect("directory is recoverable");
    let static_points = st.static_len();
    let generation_segments = st.segments();
    let wal_points = st.wal_rows();

    let t0 = Instant::now();
    let recovered = Engine::recover_from(&dir, &f.pool).expect("recovery succeeds");
    let recovery_secs = t0.elapsed().as_secs_f64();

    let answers_match = sorted_answers(&recovered, queries) == reference;
    let tombstones_survived = deleted.iter().all(|&id| recovered.is_deleted(id));
    let docs = recovered.len();
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);

    let qps = |secs: f64| {
        if secs > 0.0 {
            streamed as f64 / secs
        } else {
            0.0
        }
    };
    Recovery {
        docs,
        queries: queries.len(),
        static_points,
        generation_segments,
        wal_points,
        tombstones: deleted.len(),
        ingest_qps_journaled: qps(journaled_secs),
        ingest_qps_memory: qps(memory_secs),
        recovery_ms: recovery_secs * 1e3,
        replay_points_per_sec: if recovery_secs > 0.0 {
            docs as f64 / recovery_secs
        } else {
            0.0
        },
        answers_match,
        tombstones_survived,
        threads: f.pool.num_threads(),
        scale: match f.scale {
            Scale::Quick => "quick",
            Scale::Full => "full",
        },
    }
}

impl Recovery {
    /// Journaled ingest throughput as a fraction of pure in-memory.
    pub fn journal_overhead(&self) -> f64 {
        if self.ingest_qps_memory == 0.0 {
            0.0
        } else {
            self.ingest_qps_journaled / self.ingest_qps_memory
        }
    }

    /// Prints the report.
    pub fn print(&self) {
        println!(
            "## Durability — journaled ingest, crash, recovery ({} docs, {} threads)\n",
            self.docs, self.threads
        );
        println!("| Quantity | Measured |");
        println!("|---|---:|");
        println!(
            "| Durable layout at crash | {} static + {} generation segment(s) + {} WAL point(s) |",
            self.static_points, self.generation_segments, self.wal_points
        );
        println!(
            "| Ingest qps journaled / in-memory | {:.0} / {:.0} ({:.2}x) |",
            self.ingest_qps_journaled,
            self.ingest_qps_memory,
            self.journal_overhead()
        );
        println!("| Recovery wall time | {:.1} ms |", self.recovery_ms);
        println!(
            "| Replay rate | {:.0} points/s |",
            self.replay_points_per_sec
        );
        println!(
            "| Answers match pre-crash ({} queries) | {} |",
            self.queries, self.answers_match
        );
        println!(
            "| Tombstones survived ({}) | {} |",
            self.tombstones, self.tombstones_survived
        );
        println!();
    }

    /// Renders the report as the JSON document `scripts/check_bench.py`
    /// validates.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"experiment\": \"recovery\",\n  \"scale\": \"{}\",\n  \
             \"threads\": {},\n  \"host_threads\": {},\n  \
             \"pinned_workers\": {},\n  \"docs\": {},\n  \"queries\": {},\n  \
             \"static_points\": {},\n  \"generation_segments\": {},\n  \
             \"wal_points\": {},\n  \"tombstones\": {},\n  \
             \"ingest_qps_journaled\": {:.3},\n  \
             \"ingest_qps_memory\": {:.3},\n  \
             \"journal_overhead\": {:.4},\n  \
             \"recovery_ms\": {:.3},\n  \
             \"replay_points_per_sec\": {:.3},\n  \
             \"answers_match\": {},\n  \"tombstones_survived\": {}\n}}\n",
            self.scale,
            self.threads,
            plsh_parallel::affinity::host_threads(),
            plsh_parallel::pinned_worker_count(),
            self.docs,
            self.queries,
            self.static_points,
            self.generation_segments,
            self.wal_points,
            self.tombstones,
            self.ingest_qps_journaled,
            self.ingest_qps_memory,
            self.journal_overhead(),
            self.recovery_ms,
            self.replay_points_per_sec,
            self.answers_match,
            self.tombstones_survived
        )
    }

    /// Writes the JSON report to `path` (fsync + atomic rename).
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        crate::setup::write_json_atomic(path, &self.to_json())
    }
}

/// Report location: `PLSH_BENCH_RECOVERY_OUT`, defaulting to
/// `BENCH_recovery.json` in the working directory.
pub fn output_path() -> String {
    std::env::var("PLSH_BENCH_RECOVERY_OUT").unwrap_or_else(|_| "BENCH_recovery.json".to_string())
}
