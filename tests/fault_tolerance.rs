//! Runtime fault-tolerance properties: the process *survives* injected
//! I/O errors, merge panics, and stalls — transient faults are absorbed
//! invisibly (a retried write, a panicked merge counted and run again at
//! the next trigger), persistent faults land in an
//! explicit degraded read-only mode with queries still answering, and
//! after the fault heals the answers are bit-identical to an unfaulted
//! twin fed the same accepted operations.
//!
//! Faults are injected through the named failpoints in
//! `plsh::core::fault`. The registry is process-global, so every test
//! here serializes on [`FAULT_GUARD`]; each test runs under a watchdog so
//! a regression that wedges a barrier fails fast instead of hanging CI.

use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

use proptest::prelude::*;

use plsh::core::engine::EngineConfig;
use plsh::core::fault::{self, FaultKind, FaultSpec};
use plsh::core::rng::SplitMix64;
use plsh::core::streaming::StreamingEngine;
use plsh::core::{PlshError, PlshParams, SparseVector};
use plsh::parallel::ThreadPool;
use plsh::{SearchRequest, ShardedIndex};

/// Serializes the tests that arm the process-global fault registry.
static FAULT_GUARD: Mutex<()> = Mutex::new(());

const DIM: u32 = 32;

fn params(seed: u64) -> PlshParams {
    PlshParams::builder(DIM)
        .k(6)
        .m(6)
        .radius(0.9)
        .seed(seed)
        .build()
        .unwrap()
}

fn vectors(n: usize, seed: u64) -> Vec<SparseVector> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let a = rng.next_below(DIM as u64) as u32;
            let b = (a + 1 + rng.next_below(DIM as u64 - 1) as u32) % DIM;
            SparseVector::unit(vec![(a, 1.0), (b, rng.next_f64() as f32 + 0.1)]).unwrap()
        })
        .collect()
}

fn tempdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("plsh-fault-{}-{}", tag, std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// Canonical answer form: per query, sorted `(id, distance-bits)` — the
/// bit-identical comparison used across all equivalence suites.
fn answers(engine: &StreamingEngine, qs: &[SparseVector]) -> Vec<Vec<(u32, u32)>> {
    qs.iter()
        .map(|q| {
            let mut hits: Vec<(u32, u32)> = engine
                .query(q)
                .into_iter()
                .map(|n| (n.index, n.distance.to_bits()))
                .collect();
            hits.sort_unstable();
            hits
        })
        .collect()
}

/// Runs `body` on a helper thread and panics if it has not finished
/// within `secs` — a wedged flush/merge barrier must fail the test, not
/// hang the suite.
fn with_watchdog<F>(secs: u64, body: F)
where
    F: FnOnce() + Send + 'static,
{
    use std::sync::mpsc::RecvTimeoutError;
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        // Ok: clean finish. Disconnected: the body panicked — join to
        // re-raise the real assertion failure.
        Ok(()) | Err(RecvTimeoutError::Disconnected) => {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("watchdog: fault-tolerance test hung for {secs}s")
        }
    }
}

#[test]
fn transient_wal_faults_are_absorbed_by_retry() {
    let _g = FAULT_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    fault::disarm_all();
    fault::reset_counters();
    with_watchdog(60, || {
        let dir = tempdir("transient");
        let engine =
            StreamingEngine::new(EngineConfig::new(params(11), 4_000), ThreadPool::new(1)).unwrap();
        engine.persist_to(&dir).unwrap();
        let twin =
            StreamingEngine::new(EngineConfig::new(params(11), 4_000), ThreadPool::new(1)).unwrap();

        // Two injected EIOs fit well inside the 4-retry budget: the
        // engine must absorb them without degrading or losing a row.
        fault::arm(fault::WAL_APPEND, FaultSpec::new(FaultKind::Err).times(2));
        fault::arm(fault::WAL_FSYNC, FaultSpec::new(FaultKind::Err).times(1));
        let vs = vectors(300, 7);
        for chunk in vs.chunks(32) {
            engine.insert_batch(chunk).unwrap();
            twin.insert_batch(chunk).unwrap();
        }
        assert!(fault::fired(fault::WAL_APPEND) >= 1, "the fault fired");
        assert!(!engine.engine().is_degraded(), "transient faults heal");
        assert!(engine.health().persist_retries >= 1, "retries are counted");
        fault::disarm_all();

        engine.flush();
        twin.flush();
        assert_eq!(answers(&engine, &vs), answers(&twin, &vs));

        // And the journal the retries wrote is replayable: a recovered
        // engine answers identically too.
        drop(engine);
        let recovered = StreamingEngine::recover_from(&dir, ThreadPool::new(1)).unwrap();
        assert_eq!(answers(&recovered, &vs), answers(&twin, &vs));
        let _ = fs::remove_dir_all(&dir);
    });
}

#[test]
fn a_retried_wal_append_leaves_no_hole_in_the_log() {
    let _g = FAULT_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    fault::disarm_all();
    with_watchdog(60, || {
        let dir = tempdir("retry-hole");
        let config = || {
            EngineConfig::new(params(17), 1_000)
                .manual_merge()
                .with_seal_min_points(64)
        };
        let engine = StreamingEngine::new(config(), ThreadPool::new(1)).unwrap();
        engine.persist_to(&dir).unwrap();
        // The first batch's fsync fails once: the retry truncates the
        // record it wrote and writes it again at the same offset.
        fault::arm(fault::WAL_FSYNC, FaultSpec::new(FaultKind::Err).times(1));
        let vs = vectors(30, 19);
        for chunk in vs.chunks(10) {
            engine.insert_batch(chunk).unwrap();
        }
        assert_eq!(fault::fired(fault::WAL_FSYNC), 1, "the fault fired");
        fault::disarm_all();
        // Nothing merged or sealed: the open generation's WAL is all the
        // directory holds of these rows.
        drop(engine);
        let recovered = StreamingEngine::recover_from(&dir, ThreadPool::new(1)).unwrap();
        assert_eq!(recovered.len(), vs.len(), "a retried record was lost");
        let twin = StreamingEngine::new(config(), ThreadPool::new(1)).unwrap();
        twin.insert_batch(&vs).unwrap();
        twin.flush();
        recovered.flush();
        assert_eq!(answers(&recovered, &vs), answers(&twin, &vs));
        let _ = fs::remove_dir_all(&dir);
    });
}

#[test]
fn persistent_wal_failure_degrades_read_only_then_heals() {
    let _g = FAULT_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    fault::disarm_all();
    with_watchdog(60, || {
        let dir = tempdir("degrade");
        let engine =
            StreamingEngine::new(EngineConfig::new(params(13), 4_000), ThreadPool::new(1)).unwrap();
        engine.persist_to(&dir).unwrap();
        let twin =
            StreamingEngine::new(EngineConfig::new(params(13), 4_000), ThreadPool::new(1)).unwrap();

        let vs = vectors(240, 9);
        let mut accepted: Vec<SparseVector> = Vec::new();
        for chunk in vs.chunks(24).take(5) {
            engine.insert_batch(chunk).unwrap();
            twin.insert_batch(chunk).unwrap();
            accepted.extend_from_slice(chunk);
        }

        // Unlimited EIOs exhaust the retry budget: the write must come
        // back as a typed Degraded error *before* mutating memory.
        fault::arm(fault::WAL_APPEND, FaultSpec::new(FaultKind::Err));
        let failed = &vs[120..144];
        match engine.insert_batch(failed) {
            Err(PlshError::Degraded(_)) => {}
            other => panic!("expected Degraded, got {other:?}"),
        }
        assert!(engine.engine().is_degraded());
        assert!(engine.health().degraded);
        assert_eq!(engine.len(), accepted.len(), "rejected batch not applied");

        // Reads keep answering off the pinned epoch while degraded.
        assert_eq!(
            answers(&engine, &accepted[..10]),
            answers(&twin, &accepted[..10])
        );
        // Writes stay rejected — degraded mode is sticky, not flapping.
        assert!(matches!(
            engine.insert_batch(failed),
            Err(PlshError::Degraded(_))
        ));
        assert!(matches!(
            engine.engine().try_delete(0),
            Err(PlshError::Degraded(_))
        ));

        // Exact-prefix durability: what the directory holds right now
        // recovers to exactly the accepted rows.
        let recovered = StreamingEngine::recover_from(&dir, ThreadPool::new(1)).unwrap();
        assert_eq!(recovered.len(), accepted.len());
        assert_eq!(
            answers(&recovered, &accepted),
            answers(&twin, &accepted),
            "recovered prefix answers like the twin over the same rows"
        );
        drop(recovered);

        // heal() re-syncs through a fresh baseline + manifest swap; while
        // *that* path still fails it must refuse to clear the flag.
        fault::arm(fault::MANIFEST_SWAP, FaultSpec::new(FaultKind::Err));
        assert!(!engine.heal(), "healing against a still-broken disk fails");
        assert!(engine.engine().is_degraded());

        // Disk comes back: heal, re-apply the failed batch, finish the
        // schedule on both engines — answers must converge bit-identically.
        fault::disarm_all();
        assert!(engine.heal());
        assert!(!engine.engine().is_degraded());
        assert!(!engine.health().degraded);
        engine.insert_batch(failed).unwrap();
        twin.insert_batch(failed).unwrap();
        for chunk in vs[144..].chunks(24) {
            engine.insert_batch(chunk).unwrap();
            twin.insert_batch(chunk).unwrap();
        }
        engine.flush();
        twin.flush();
        assert_eq!(answers(&engine, &vs), answers(&twin, &vs));

        // The resynced journal recovers the full corpus.
        drop(engine);
        let recovered = StreamingEngine::recover_from(&dir, ThreadPool::new(1)).unwrap();
        assert_eq!(answers(&recovered, &vs), answers(&twin, &vs));
        let _ = fs::remove_dir_all(&dir);
    });
}

#[test]
fn a_panicked_merge_is_counted_and_the_next_trigger_folds() {
    let _g = FAULT_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    fault::disarm_all();
    with_watchdog(60, || {
        let engine = StreamingEngine::new(
            EngineConfig::new(params(17), 4_000).manual_merge(),
            ThreadPool::new(2),
        )
        .unwrap();
        let vs = vectors(400, 21);
        for chunk in vs.chunks(50) {
            engine.insert_batch(chunk).unwrap();
        }
        engine.seal();

        // Two panics, then success: each trigger is one merge, and a
        // panicked one publishes nothing.
        fault::arm(
            fault::MERGE_BUILD,
            FaultSpec::new(FaultKind::Panic).times(2),
        );
        for _ in 0..3 {
            assert!(engine.merge_in_background());
            engine.wait_for_merge();
        }
        assert_eq!(fault::fired(fault::MERGE_BUILD), 2, "both panics fired");
        fault::disarm_all();

        let health = engine.health();
        assert!(health.healthy(), "a failed merge does not degrade");
        assert_eq!(health.merge_failures, 2, "both panics counted");
        assert!(
            health
                .last_merge_failure
                .as_deref()
                .unwrap_or("")
                .contains("merge.build"),
            "panic message captured: {:?}",
            health.last_merge_failure
        );
        assert_eq!(
            engine.engine().delta_len(),
            0,
            "the third trigger folded the deltas"
        );
        let twin =
            StreamingEngine::new(EngineConfig::new(params(17), 4_000), ThreadPool::new(1)).unwrap();
        twin.insert_batch(&vs).unwrap();
        twin.flush();
        assert_eq!(answers(&engine, &vs[..40]), answers(&twin, &vs[..40]));
    });
}

#[test]
fn shutdown_drains_and_joins_with_deadline() {
    let _g = FAULT_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    fault::disarm_all();
    with_watchdog(60, || {
        let engine =
            StreamingEngine::new(EngineConfig::new(params(19), 2_000), ThreadPool::new(2)).unwrap();
        engine.insert_batch(&vectors(300, 33)).unwrap();
        engine.merge_in_background();
        let report = engine.shutdown(Duration::from_secs(20));
        assert!(report.drained, "open generation sealed");
        assert!(!report.merge_abandoned, "merge joined within the deadline");
    });
}

#[test]
fn stalled_shard_yields_partial_flagged_response() {
    let _g = FAULT_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    fault::disarm_all();
    with_watchdog(60, || {
        let index = ShardedIndex::builder(EngineConfig::new(params(23), 2_000))
            .shards(3)
            .threads(2)
            .build()
            .unwrap();
        let vs = vectors(240, 41);
        index.insert_batch(&vs).unwrap();
        index.flush().unwrap();

        // One shard stalls well past the deadline; the fan-out must
        // return the other shards' answers and name the missing one.
        fault::arm(
            fault::QUERY_SHARD,
            FaultSpec::new(FaultKind::Delay(Duration::from_millis(500))).times(1),
        );
        let req =
            SearchRequest::batch(vs[..8].to_vec()).with_shard_deadline(Duration::from_millis(80));
        let resp = index.search(&req).unwrap();
        fault::disarm_all();
        assert_eq!(resp.timed_out_shards.len(), 1, "exactly one shard stalled");

        // Without a deadline the same request waits everything out and
        // reports a complete answer.
        let full = index
            .search(&SearchRequest::batch(vs[..8].to_vec()))
            .unwrap();
        assert!(full.timed_out_shards.is_empty());
        for (partial, complete) in resp.results.iter().zip(&full.results) {
            assert!(
                partial.len() <= complete.len(),
                "partial answers are a subset"
            );
        }
    });
}

#[test]
fn chaos_smoke_under_env_or_default_mix() {
    let _g = FAULT_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    // When CI arms PLSH_FAULTS the lazy env parse has already seeded the
    // registry on some earlier passage; re-arm a known transient mix on
    // top so this smoke exercises ingest + query + heal under fire
    // deterministically in either environment.
    fault::disarm_all();
    fault::reset_counters();
    with_watchdog(120, || {
        fault::arm(
            fault::WAL_APPEND,
            FaultSpec::new(FaultKind::Err).probability(0.2),
        );
        fault::arm(
            fault::MERGE_BUILD,
            FaultSpec::new(FaultKind::Panic).times(1),
        );
        let dir = tempdir("chaos-smoke");
        // η·C = 400 of the 600 docs: an insert triggers a background
        // merge, so the armed merge panic fires.
        let engine = StreamingEngine::new(
            EngineConfig::new(params(29), 8_000).with_eta(0.05),
            ThreadPool::new(2),
        )
        .unwrap();
        engine.persist_to(&dir).unwrap();
        let vs = vectors(600, 55);
        let mut accepted: Vec<SparseVector> = Vec::new();
        for chunk in vs.chunks(30) {
            match engine.insert_batch(chunk) {
                Ok(_) => accepted.extend_from_slice(chunk),
                Err(PlshError::Degraded(_)) => {
                    // Probabilistic EIOs exhausted a retry budget: queries
                    // must still answer (no panic, no hang), then healing
                    // needs calm disk.
                    let _ = engine.query(&chunk[0]);
                    fault::disarm(fault::WAL_APPEND);
                    assert!(engine.heal(), "heal with the fault lifted");
                    engine.insert_batch(chunk).unwrap();
                    accepted.extend_from_slice(chunk);
                    fault::arm(
                        fault::WAL_APPEND,
                        FaultSpec::new(FaultKind::Err).probability(0.2),
                    );
                }
                Err(other) => panic!("unexpected ingest error: {other:?}"),
            }
            let _ = engine.query(&chunk[0]);
        }
        engine.wait_for_merge();
        assert_eq!(fault::fired(fault::MERGE_BUILD), 1, "the merge panic fired");
        assert_eq!(engine.health().merge_failures, 1, "and was counted");
        fault::disarm_all();
        if engine.engine().is_degraded() {
            assert!(engine.heal());
        }
        engine.flush();
        assert_eq!(engine.len(), accepted.len());

        let twin =
            StreamingEngine::new(EngineConfig::new(params(29), 8_000), ThreadPool::new(1)).unwrap();
        twin.insert_batch(&accepted).unwrap();
        twin.flush();
        assert_eq!(
            answers(&engine, &vs[..40]),
            answers(&twin, &vs[..40]),
            "post-heal answers bit-identical to the unfaulted twin"
        );
        drop(engine);
        let recovered = StreamingEngine::recover_from(&dir, ThreadPool::new(1)).unwrap();
        assert_eq!(answers(&recovered, &vs[..40]), answers(&twin, &vs[..40]));
        let _ = fs::remove_dir_all(&dir);
    });
}

#[derive(Debug, Clone)]
enum Op {
    /// Insert a batch of 1..5 vectors.
    Insert(Vec<Vec<(u32, f32)>>),
    /// Tombstone the i-th accepted point (mod current count).
    Delete(usize),
    /// Force-seal the open generation.
    Seal,
    /// Fold sealed generations in a background merge, and wait for it.
    Merge,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let pair = (0..DIM, 1u32..100).prop_map(|(d, v)| (d, v as f32 / 10.0));
    let vec_strategy = proptest::collection::vec(pair, 1..4);
    let batch_strategy = proptest::collection::vec(vec_strategy, 1..5);
    prop_oneof![
        5 => batch_strategy.prop_map(Op::Insert),
        2 => any::<prop::sample::Index>().prop_map(|i| Op::Delete(i.index(1000))),
        1 => Just(Op::Seal),
        1 => Just(Op::Merge),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// Any interleaving of inserts / deletes / seals / merges under a
    /// bounded transient-fault storm (WAL EIOs, fsync EIOs, tombstone
    /// EIOs, static-segment and manifest EIOs, one merge panic, counted)
    /// must,
    /// after the storm lifts, answer bit-identically to an unfaulted twin
    /// fed the same accepted operations — and the journal written through
    /// all the retries must recover to those same answers. The storm ends
    /// with a merge that checkpoints (sixteen one-row generations: more
    /// held files than the live rows here are worth), so the
    /// static-segment EIO always fires.
    #[test]
    fn faulted_interleavings_converge_to_the_unfaulted_twin(
        ops in proptest::collection::vec(op_strategy(), 1..40)
    ) {
        let _g = FAULT_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        fault::disarm_all();
        let dir = tempdir("chaos-prop");
        let engine = StreamingEngine::new(
            EngineConfig::new(params(37), 4_000).manual_merge(),
            ThreadPool::new(1),
        )
        .unwrap();
        engine.persist_to(&dir).unwrap();
        let twin = StreamingEngine::new(
            EngineConfig::new(params(37), 4_000).manual_merge(),
            ThreadPool::new(1),
        )
        .unwrap();

        // Every I/O count is inside a retry budget and a panicked merge
        // only waits for the next: the storm is rough but survivable, so
        // no op may be refused.
        fault::arm(fault::WAL_APPEND, FaultSpec::new(FaultKind::Err).times(3));
        fault::arm(fault::WAL_FSYNC, FaultSpec::new(FaultKind::Err).after(2).times(2));
        fault::arm(fault::TOMB_APPEND, FaultSpec::new(FaultKind::Err).times(2));
        fault::arm(fault::STATIC_PREPARE, FaultSpec::new(FaultKind::Err).times(1));
        fault::arm(fault::MANIFEST_SWAP, FaultSpec::new(FaultKind::Err).times(1));
        fault::arm(fault::MERGE_BUILD, FaultSpec::new(FaultKind::Panic).times(1));

        let mut inserted: Vec<SparseVector> = Vec::new();
        for op in &ops {
            match op {
                Op::Insert(rows) => {
                    let vs: Vec<SparseVector> = rows
                        .iter()
                        .map(|pairs| SparseVector::unit(pairs.clone()).unwrap())
                        .collect();
                    engine.insert_batch(&vs).unwrap();
                    twin.insert_batch(&vs).unwrap();
                    inserted.extend(vs);
                }
                Op::Delete(i) => {
                    if !inserted.is_empty() {
                        let id = (*i % inserted.len()) as u32;
                        let a = engine.engine().try_delete(id).unwrap();
                        let b = twin.engine().try_delete(id).unwrap();
                        assert_eq!(a, b, "delete outcome diverged on id {id}");
                    }
                }
                Op::Seal => {
                    engine.seal();
                    twin.seal();
                }
                Op::Merge => {
                    engine.merge_in_background();
                    engine.wait_for_merge();
                    twin.merge_now();
                }
            }
        }
        for v in vectors(16, 41) {
            engine.insert_batch(std::slice::from_ref(&v)).unwrap();
            twin.insert_batch(std::slice::from_ref(&v)).unwrap();
            inserted.push(v);
        }
        engine.seal();
        twin.seal();
        // Two background triggers: the armed panic fires at the first
        // if no `Op::Merge` took it, and the second folds.
        for _ in 0..2 {
            engine.merge_in_background();
            engine.wait_for_merge();
        }
        twin.merge_now();
        prop_assert_eq!(fault::fired(fault::STATIC_PREPARE), 1, "no checkpoint ran");
        prop_assert_eq!(fault::fired(fault::MERGE_BUILD), 1, "the merge panic fired");
        prop_assert_eq!(engine.health().merge_failures, 1, "and was counted");
        fault::disarm_all();
        prop_assert!(!engine.engine().is_degraded(), "bounded storm never degrades");
        engine.flush();
        twin.flush();
        let qs: Vec<SparseVector> = inserted.iter().take(30).cloned().collect();
        prop_assert_eq!(answers(&engine, &qs), answers(&twin, &qs));

        drop(engine);
        let recovered = StreamingEngine::recover_from(&dir, ThreadPool::new(1)).unwrap();
        prop_assert_eq!(answers(&recovered, &qs), answers(&twin, &qs));
        let _ = fs::remove_dir_all(&dir);
    }
}
