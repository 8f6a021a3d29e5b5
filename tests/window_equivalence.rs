//! Sliding-window equivalence and crash properties.
//!
//! Two guarantees pin down retire-by-age semantics:
//!
//! 1. **Twin equivalence** — a windowed engine must answer bit-identically
//!    to a windowless twin that manually `delete`s every id the window
//!    retired, under *arbitrary* interleavings of inserts, merges, and
//!    explicit deletes (proptest-driven). Retirement is a range tombstone,
//!    not a different search path, so no interleaving may tell them apart.
//!
//! 2. **Window-edge recovery** — cut the power after *any* persistence
//!    operation of a windowed engine's life (mid-WAL append, between a
//!    retire-log record and its manifest swap, halfway through a window
//!    compaction) and recovery must land on a consistent window edge:
//!    `static_base ≤ retired_below ≤ id-space end`, resident rows an
//!    exact contiguous slice of the ingested order, and answers
//!    bit-identical to a from-scratch build over that slice.
//!
//! 3. **Help, don't refuse** — a windowed stream at capacity 3 × window,
//!    its background merges slowed, never refuses a batch: a writer short
//!    of room whose window has retired rows waits out or runs the merge
//!    that compacts them, and answers stay bit-identical to the twin after
//!    every batch. A windowless engine at capacity still refuses.
//!
//! Power cuts are injected through `plsh::core::persist::fail`, which is
//! process-global; the arming test serializes on [`FAIL_GUARD`]. The
//! fault registry is process-global too; its tests serialize on
//! [`FAULT_GUARD`].

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use proptest::prelude::*;

use plsh::core::engine::{Engine, EngineConfig, WindowSpec};
use plsh::core::fault::{self, FaultKind, FaultSpec};
use plsh::core::persist::{self, fail};
use plsh::core::rng::SplitMix64;
use plsh::core::streaming::StreamingEngine;
use plsh::core::{PlshError, PlshParams, SparseVector};
use plsh::parallel::ThreadPool;
use plsh::ShardedIndex;

/// Serializes tests that arm the process-global fail injector.
static FAIL_GUARD: Mutex<()> = Mutex::new(());

/// Serializes tests that arm the process-global fault registry.
static FAULT_GUARD: Mutex<()> = Mutex::new(());

const DIM: u32 = 32;
const CAPACITY: usize = 400;

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

/// Canonical answer form: per query, sorted `(id, distance-bits)`.
fn engine_answers(e: &Engine, qs: &[SparseVector]) -> Vec<Vec<(u32, u32)>> {
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

// ---------------------------------------------------------------------------
// 1. Twin equivalence under arbitrary interleavings.
// ---------------------------------------------------------------------------

/// One step of an interleaved engine life. `Insert` carries a batch size,
/// `Delete` an offset into the currently-live id range (applied to both
/// twins), `Merge` triggers window compaction on the windowed engine and
/// a plain tombstone purge on the twin.
#[derive(Debug, Clone)]
enum Op {
    Insert(usize),
    Merge,
    Delete(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (1usize..=12).prop_map(Op::Insert),
        2 => Just(Op::Merge),
        2 => (0usize..32).prop_map(Op::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the interleaving of inserts, merges, and explicit
    /// deletes, a windowed engine and a windowless twin that deletes
    /// exactly the retired ids answer every query bit-identically —
    /// after every single step, not just at the end.
    #[test]
    fn windowed_engine_is_answer_identical_to_manual_delete_twin(
        seed in 0u64..1_000,
        window in 8u32..64,
        ops in proptest::collection::vec(op_strategy(), 4..20),
    ) {
        let pool = ThreadPool::new(1);
        let total_docs: usize = ops
            .iter()
            .map(|op| if let Op::Insert(n) = op { *n } else { 0 })
            .sum();
        // Without merges the resident span equals the ingest total, which
        // the capacity must cover for both twins.
        prop_assume!(total_docs < CAPACITY);
        let vs = vectors(total_docs.max(1), seed ^ 0x9E37);
        let queries = vectors(12, seed.wrapping_add(7));

        let windowed = Engine::new(
            EngineConfig::new(params(11), CAPACITY)
                .manual_merge()
                .with_window(WindowSpec::Docs(window)),
            &pool,
        )
        .unwrap();
        let twin = Engine::new(
            EngineConfig::new(params(11), CAPACITY).manual_merge(),
            &pool,
        )
        .unwrap();

        let mut next = 0usize; // next vector to ingest
        let mut synced = 0u32; // twin deletions issued below this id
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Insert(n) => {
                    let batch = &vs[next..next + n];
                    windowed.insert_batch(batch, &pool).unwrap();
                    twin.insert_batch(batch, &pool).unwrap();
                    next += n;
                }
                Op::Merge => {
                    windowed.merge_delta(&pool);
                    twin.merge_delta(&pool);
                }
                Op::Delete(off) => {
                    let live_from = windowed.retired_below();
                    let live = next as u32 - live_from;
                    if live > 0 {
                        let id = live_from + (off as u32 % live);
                        windowed.delete(id);
                        twin.delete(id);
                    }
                }
            }
            // Mirror the window's automatic retirement onto the twin.
            let cut = windowed.retired_below();
            prop_assert!(cut >= synced, "watermark moved backwards");
            for id in synced..cut {
                twin.delete(id);
            }
            synced = cut;

            prop_assert_eq!(
                engine_answers(&windowed, &queries),
                engine_answers(&twin, &queries),
                "answers diverged after step {} ({:?})", step, op
            );
        }

        // Final invariants on the windowed side.
        let info = windowed.epoch_info();
        prop_assert!(info.static_base <= info.retired_below);
        prop_assert!(info.retired_below as usize <= info.static_base as usize + info.visible_points);
        if next as u32 > window {
            prop_assert_eq!(windowed.retired_below(), next as u32 - window);
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Kill-at-any-op window-edge recovery.
// ---------------------------------------------------------------------------

const WINDOW: u32 = 40;
const SCRIPT_DELETES: [u32; 3] = [45, 62, 71];

fn tempdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("plsh-{}-{}", tag, std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// Builds the windowed engine and writes its (empty) durable baseline
/// *before* the injector arms: the crash window under test is the life
/// of a windowed journaling index, not its very first `persist_to`.
fn setup_windowed(dir: &Path, pool: &ThreadPool) -> Engine {
    let engine = Engine::new(
        EngineConfig::new(params(3), CAPACITY)
            .manual_merge()
            .with_seal_min_points(8)
            .with_window(WindowSpec::Docs(WINDOW)),
        pool,
    )
    .unwrap();
    engine.persist_to(dir).unwrap();
    engine
}

/// Scripted windowed life whose every persistence-op boundary is a crash
/// point: WAL appends interleaved with retire-log advances, seals,
/// explicit deletes, and two merges — the second a window compaction
/// that rebases the static structure (manifest swap with a non-zero
/// `static_base`, physical reclamation of the expired prefix).
fn run_windowed_script(engine: &Engine, vs: &[SparseVector], pool: &ThreadPool) {
    engine.insert_batch(&vs[..12], pool).unwrap();
    engine.insert_batch(&vs[12..30], pool).unwrap();
    engine.seal();
    engine.insert_batch(&vs[30..48], pool).unwrap();
    engine.merge_delta(pool);
    engine.delete(SCRIPT_DELETES[0]);
    engine.insert_batch(&vs[48..66], pool).unwrap();
    engine.delete(SCRIPT_DELETES[1]);
    engine.seal();
    // Small chunks stay in the open generation: WAL + retire-log traffic
    // with the watermark advancing past already-durable rows.
    for chunk in vs[66..94].chunks(7) {
        engine.insert_batch(chunk, pool).unwrap();
    }
    engine.delete(SCRIPT_DELETES[2]);
    // Window compaction: everything below the watermark is reclaimed and
    // the static structure rebases to a non-zero `static_base`.
    engine.merge_delta(pool);
    engine.insert_batch(&vs[94..104], pool).unwrap();
}

/// Windowless from-scratch reference over a recovered resident slice:
/// bulk insert, merge, replay the watermark as an explicit range
/// tombstone, then the recovered per-id tombstones. Ids translate by
/// `base`.
fn scratch_answers(
    rows: &[SparseVector],
    base: u32,
    retired_below: u32,
    tombstones: &[u32],
    queries: &[SparseVector],
    pool: &ThreadPool,
) -> Vec<Vec<(u32, u32)>> {
    let engine = Engine::new(EngineConfig::new(params(3), CAPACITY).manual_merge(), pool).unwrap();
    if !rows.is_empty() {
        engine.insert_batch(rows, pool).unwrap();
    }
    engine.merge_delta(pool);
    let _ = engine.retire_to(retired_below - base);
    for &id in tombstones {
        engine.delete(id - base);
    }
    engine_answers(&engine, queries)
        .into_iter()
        .map(|hits| hits.into_iter().map(|(id, d)| (id + base, d)).collect())
        .collect()
}

#[test]
fn windowed_recovery_survives_a_power_cut_after_every_operation() {
    let _g = FAIL_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let pool = ThreadPool::new(1);
    let vs = vectors(104, 23);
    let queries = vectors(10, 97);

    // Dry run with an unlimited budget counts the script's op total.
    let dir = tempdir("window-crash-count");
    let engine = setup_windowed(&dir, &pool);
    fail::arm(i64::MAX);
    run_windowed_script(&engine, &vs, &pool);
    drop(engine);
    fail::disarm();
    let total_ops = fail::ops_used();
    let _ = fs::remove_dir_all(&dir);
    assert!(
        total_ops > 40,
        "script must span many persistence ops to be interesting, got {total_ops}"
    );

    for k in 0..=total_ops {
        let dir = tempdir("window-crash-k");
        let engine = setup_windowed(&dir, &pool);
        fail::arm(k as i64);
        run_windowed_script(&engine, &vs, &pool);
        drop(engine);
        fail::disarm();

        // Read-only inspection first: the durable state must sit on a
        // consistent window edge whatever op the cut landed on.
        let st = persist::load_state(&dir)
            .unwrap_or_else(|e| panic!("cut after op {k}: recovery refused: {e}"));
        let base = st.static_base();
        let rb = st.retired_below();
        let end = base as usize + st.total();
        assert!(
            base <= rb,
            "cut after op {k}: static_base {base} ran past the watermark {rb}"
        );
        assert!(
            rb as usize <= end,
            "cut after op {k}: watermark {rb} past the id space end {end}"
        );
        let rows = st.all_rows();
        assert_eq!(
            rows,
            &vs[base as usize..end],
            "cut after op {k}: resident rows are not the contiguous ingest slice [{base}, {end})"
        );
        let tombstones = st.tombstones();
        for id in &tombstones {
            assert!(
                SCRIPT_DELETES.contains(id),
                "cut after op {k}: phantom tombstone {id}"
            );
        }

        // Full recovery preserves the window spec and lands on the
        // effective edge: the durable watermark, or further if the
        // retire log lagged the recovered doc count (the live window
        // re-derives `end - WINDOW` during replay — never backwards).
        let expected_rb = rb.max((end as u32).saturating_sub(WINDOW));
        let back = Engine::recover_from(&dir, &pool)
            .unwrap_or_else(|e| panic!("cut after op {k}: recovery failed: {e}"));
        assert_eq!(
            back.retired_below(),
            expected_rb,
            "cut after op {k}: rebuilt engine lost the watermark"
        );
        let info = back.epoch_info();
        assert!(info.static_base <= info.retired_below);
        assert_eq!(
            engine_answers(&back, &queries),
            scratch_answers(&rows, base, expected_rb, &tombstones, &queries, &pool),
            "cut after op {k}: recovered answers diverge from a from-scratch build"
        );

        // The recovered engine keeps sliding: more inserts advance the
        // watermark monotonically from the recovered edge.
        let more = end + 20;
        back.insert_batch(&vectors(more, 23)[end..more], &pool)
            .unwrap();
        assert_eq!(
            back.retired_below(),
            (more as u32).saturating_sub(WINDOW).max(expected_rb)
        );
        drop(back);
        let _ = fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// 3. A full window helps its merge instead of refusing.
// ---------------------------------------------------------------------------

const STREAM_WINDOW: u32 = 60;
const STREAM_WINDOWS: usize = 20;
const STREAM_BATCH: usize = 15;

/// Streams `STREAM_WINDOWS` windows of documents through `insert`, every
/// background merge's start delayed so merges lag the writer, and after
/// every batch compares `answers` with a windowless twin that deletes
/// every id below `cut()`.
fn stream_against_the_twin(
    insert: impl Fn(&[SparseVector]),
    cut: impl Fn() -> u32,
    answers: impl Fn(&[SparseVector]) -> Vec<Vec<(u32, u32)>>,
) {
    let _g = FAULT_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let pool = ThreadPool::new(1);
    let total = STREAM_WINDOW as usize * STREAM_WINDOWS;
    let vs = vectors(total, 0x5EED);
    let queries = vectors(12, 0xC0DE);
    let twin = Engine::new(EngineConfig::new(params(11), total).manual_merge(), &pool).unwrap();
    fault::disarm_all();
    fault::arm(
        fault::MERGE_BUILD,
        FaultSpec::new(FaultKind::Delay(Duration::from_millis(20))),
    );
    let mut synced = 0u32;
    for (b, batch) in vs.chunks(STREAM_BATCH).enumerate() {
        insert(batch);
        twin.insert_batch(batch, &pool).unwrap();
        let cut = cut();
        for id in synced..cut {
            twin.delete(id);
        }
        synced = cut;
        assert_eq!(
            answers(&queries),
            engine_answers(&twin, &queries),
            "answers diverged after batch {b}"
        );
    }
    assert!(
        fault::fired(fault::MERGE_BUILD) > 0,
        "no background merge ran"
    );
    fault::disarm_all();
    assert_eq!(synced, (total as u32) - STREAM_WINDOW);
}

#[test]
fn a_windowed_stream_at_capacity_helps_instead_of_refusing() {
    let engine = StreamingEngine::new(
        EngineConfig::new(params(11), 3 * STREAM_WINDOW as usize)
            .with_window(WindowSpec::Docs(STREAM_WINDOW)),
        ThreadPool::new(2),
    )
    .unwrap();
    stream_against_the_twin(
        |batch| {
            engine.insert_batch(batch).unwrap();
        },
        || engine.engine().retired_below(),
        |qs| engine_answers(engine.engine(), qs),
    );
    engine.wait_for_merge();
    let stats = engine.stats();
    assert!(stats.helped_batches > 0, "the stream never helped a merge");
    assert!(stats.help_wait > Duration::ZERO);
}

#[test]
fn a_sharded_windowed_stream_at_capacity_helps_instead_of_refusing() {
    // Capacity is per shard: 2 × 1.5 windows is 3 windows in all.
    let index = ShardedIndex::builder(
        EngineConfig::new(params(11), 3 * STREAM_WINDOW as usize / 2)
            .with_window(WindowSpec::Docs(STREAM_WINDOW)),
    )
    .shards(2)
    .threads(2)
    .build()
    .unwrap();
    stream_against_the_twin(
        |batch| {
            index.insert_batch(batch).unwrap();
        },
        || index.retired_below(),
        |qs| {
            qs.iter()
                .map(|q| {
                    let mut hits: Vec<(u32, u32)> = index
                        .query(q)
                        .unwrap()
                        .iter()
                        .map(|h| (h.index, h.distance.to_bits()))
                        .collect();
                    hits.sort_unstable();
                    hits
                })
                .collect()
        },
    );
    index.wait_for_merges();
    assert!(
        index.stats().folded().helped_batches > 0,
        "no shard helped a merge"
    );
}

#[test]
fn a_windowless_engine_at_capacity_still_refuses() {
    let engine = StreamingEngine::new(
        EngineConfig::new(params(11), 3 * STREAM_WINDOW as usize),
        ThreadPool::new(1),
    )
    .unwrap();
    let vs = vectors(3 * STREAM_WINDOW as usize + 1, 0x5EED);
    let (full, over) = vs.split_at(3 * STREAM_WINDOW as usize);
    engine.insert_batch(full).unwrap();
    engine.wait_for_merge();
    assert!(matches!(
        engine.insert_batch(over),
        Err(PlshError::CapacityExceeded { capacity: 180 })
    ));
    assert_eq!(
        engine.len(),
        full.len(),
        "the refused batch was not applied"
    );
    assert_eq!(engine.stats().helped_batches, 0);
}
