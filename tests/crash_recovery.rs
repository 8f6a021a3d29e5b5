//! Crash-recovery property: cut the power after *any* persistence
//! operation — mid-WAL-append, halfway through a merge's manifest swap,
//! between a checkpoint segment's rename and the swap that names it, while
//! the files a swap superseded are unlinked — and recovery must come
//! back with an exact prefix of the ingested rows, a subset of the issued
//! tombstones, and answers bit-identical to a from-scratch build over
//! that prefix. Exercised exhaustively for a single engine (every cut
//! point `k` in the scripted run) and sampled for a sharded index, plus
//! hand-made corruption: torn WAL tails at arbitrary byte offsets, a
//! deleted generation file, and a trashed manifest.
//!
//! Power cuts are injected through `plsh::core::persist::fail`, which
//! tears the k-th low-level persistence op and freezes the directory
//! after it. The injector is process-global, so every arming test here
//! serializes on [`FAIL_GUARD`].

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use plsh::core::engine::{Engine, EngineConfig};
use plsh::core::persist::{self, fail};
use plsh::core::rng::SplitMix64;
use plsh::core::{PlshParams, SparseVector};
use plsh::parallel::ThreadPool;
use plsh::{Index, SearchRequest, ShardedIndex};

/// Serializes the tests that arm the process-global fail injector.
static FAIL_GUARD: Mutex<()> = Mutex::new(());

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

fn tempdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("plsh-{}-{}", tag, std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
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

/// From-scratch reference over a recovered prefix: bulk insert, merge,
/// then the recovered tombstones. Recovery promises bit-identical
/// answers to this build, whatever segment/WAL/manifest state the cut
/// left behind.
fn scratch_engine(rows: &[SparseVector], tombstones: &[u32], pool: &ThreadPool) -> Engine {
    let engine = Engine::new(EngineConfig::new(params(3), CAPACITY).manual_merge(), pool).unwrap();
    if !rows.is_empty() {
        engine.insert_batch(rows, pool).unwrap();
    }
    engine.merge_delta(pool);
    for &id in tombstones {
        engine.delete(id);
    }
    engine
}

/// Scripted engine life: a baseline, open-generation WAL traffic, seals,
/// deletes, folding merges (a manifest swap naming the folded WALs) and a
/// checkpoint. Every persistence-op boundary inside this script is a
/// crash point the k-loop below must survive.
const SCRIPT_DELETES: [u32; 3] = [3, 30, 55];

/// Builds the engine and writes its (empty) durable baseline. Runs
/// before the injector arms: the crash window under test is the life of
/// a journaling index, not its very first `persist_to` (a cut there
/// leaves no manifest, which is the clean refuse-to-recover case covered
/// by [`a_trashed_manifest_is_a_clean_error_not_a_panic`]).
fn setup_engine(dir: &Path, pool: &ThreadPool) -> Engine {
    let engine = Engine::new(
        EngineConfig::new(params(3), CAPACITY)
            .manual_merge()
            .with_seal_min_points(8),
        pool,
    )
    .unwrap();
    engine.persist_to(dir).unwrap();
    engine
}

/// Scripted mutations, every persistence-op boundary of which is a crash
/// point: open-generation WAL traffic, seals, deletes, merges that fold
/// their WALs, one whose many small files buy a checkpoint, and one that
/// folds on top of it.
fn run_script(engine: &Engine, vs: &[SparseVector], pool: &ThreadPool) {
    // Both batches land in one generation: a two-record WAL.
    engine.insert_batch(&vs[..5], pool).unwrap();
    engine.insert_batch(&vs[5..25], pool).unwrap();
    engine.delete(SCRIPT_DELETES[0]);
    engine.seal();
    engine.insert_batch(&vs[25..40], pool).unwrap();
    engine.merge_delta(pool);
    engine.delete(SCRIPT_DELETES[1]);
    engine.insert_batch(&vs[40..60], pool).unwrap();
    engine.seal();
    // Small chunks stay in the open generation: WAL-only at the cut.
    for chunk in vs[60..74].chunks(7) {
        engine.insert_batch(chunk, pool).unwrap();
    }
    engine.delete(SCRIPT_DELETES[2]);
    engine.merge_delta(pool);
    // Three two-row generations: seven held files outweigh 80 rows.
    for chunk in vs[74..80].chunks(2) {
        engine.insert_batch(chunk, pool).unwrap();
        engine.seal();
    }
    engine.merge_delta(pool);
    // Folded on top of the checkpoint.
    engine.insert_batch(&vs[80..90], pool).unwrap();
    engine.merge_delta(pool);
    engine.insert_batch(&vs[90..95], pool).unwrap();
}

#[test]
fn recovery_survives_a_power_cut_after_every_operation() {
    let _g = FAIL_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let pool = ThreadPool::new(1);
    let vs = vectors(95, 17);

    // Dry run with an unlimited budget counts the script's op total.
    let dir = tempdir("crash-count");
    let engine = setup_engine(&dir, &pool);
    fail::arm(i64::MAX);
    run_script(&engine, &vs, &pool);
    drop(engine);
    fail::disarm();
    let total = fail::ops_used();
    assert_eq!(
        (checkpoint_files(&dir), folded_wals(&dir)),
        (1, 1),
        "the script must end on a checkpoint with a WAL folded on top"
    );
    let _ = fs::remove_dir_all(&dir);
    assert!(
        total > 40,
        "script must span many persistence ops to be interesting, got {total}"
    );

    for k in 0..=total {
        let dir = tempdir("crash-k");
        let engine = setup_engine(&dir, &pool);
        fail::arm(k as i64);
        run_script(&engine, &vs, &pool);
        drop(engine);
        fail::disarm();

        // Inspect the frozen directory read-only first: the durable rows
        // must be an exact prefix of the ingested order, the durable
        // tombstones a subset of the issued ones.
        let st = persist::load_state(&dir)
            .unwrap_or_else(|e| panic!("cut after op {k}: recovery refused: {e}"));
        let rows = st.all_rows();
        assert_eq!(
            rows,
            &vs[..st.total()],
            "cut after op {k}: recovered rows are not an ingest prefix"
        );
        let tombstones = st.tombstones();
        for id in &tombstones {
            assert!(
                SCRIPT_DELETES.contains(id),
                "cut after op {k}: phantom tombstone {id}"
            );
        }

        // Full recovery answers like a from-scratch build over the prefix.
        let back = Engine::recover_from(&dir, &pool)
            .unwrap_or_else(|e| panic!("cut after op {k}: recovery failed: {e}"));
        assert_eq!(back.len(), rows.len());
        let scratch = scratch_engine(&rows, &tombstones, &pool);
        assert_eq!(
            engine_answers(&back, &vs),
            engine_answers(&scratch, &vs),
            "cut after op {k}: recovered answers diverge from a from-scratch build"
        );
        if k == total {
            // The uncut run: every issued tombstone survived the restart.
            assert_eq!(tombstones, SCRIPT_DELETES, "a pre-crash tombstone was lost");
            assert!(SCRIPT_DELETES.iter().all(|&id| back.is_deleted(id)));
        }
        drop(back);
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Names of the files in an engine directory's live data.
fn data_files(dir: &Path) -> Vec<String> {
    fs::read_dir(dir.join("data-0"))
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect()
}

/// Checkpoint segments (`static-<seq>.seg`) in an engine directory.
fn checkpoint_files(dir: &Path) -> usize {
    data_files(dir)
        .iter()
        .filter(|n| n.starts_with("static-"))
        .count()
}

/// WALs in an engine directory whose rows are static: folded by a merge.
fn folded_wals(dir: &Path) -> usize {
    let st = persist::load_state(dir).unwrap();
    let static_end = st.static_base() as usize + st.static_len();
    data_files(dir)
        .iter()
        .filter_map(|n| n.strip_prefix("wal-")?.strip_suffix(".log")?.parse().ok())
        .filter(|&base: &usize| base < static_end)
        .count()
}

/// Locates the single file under `dir/data-0` matching `prefix`/`suffix`.
fn find_data_file(dir: &Path, prefix: &str, suffix: &str) -> PathBuf {
    let mut hits: Vec<PathBuf> = fs::read_dir(dir.join("data-0"))
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            name.starts_with(prefix) && name.ends_with(suffix)
        })
        .collect();
    hits.sort();
    assert!(!hits.is_empty(), "no {prefix}*{suffix} under {dir:?}");
    hits.remove(0)
}

#[test]
fn a_wal_truncated_at_any_byte_recovers_the_whole_records() {
    let dir = tempdir("crash-trunc");
    let pool = ThreadPool::new(1);
    let vs = vectors(40, 5);
    let engine = Engine::new(
        EngineConfig::new(params(3), CAPACITY)
            .manual_merge()
            .with_seal_min_points(64),
        &pool,
    )
    .unwrap();
    engine.persist_to(&dir).unwrap();
    for chunk in vs.chunks(8) {
        engine.insert_batch(chunk, &pool).unwrap();
    }
    drop(engine);

    let wal = find_data_file(&dir, "wal-", ".log");
    let bytes = fs::read(&wal).unwrap();
    let mut lengths = Vec::new();
    for cut in (0..=bytes.len()).rev().step_by(13) {
        fs::write(&wal, &bytes[..cut]).unwrap();
        let st = persist::load_state(&dir).unwrap();
        // Whole 8-row records survive; the torn tail is dropped silently.
        assert_eq!(
            st.total() % 8,
            0,
            "cut at byte {cut} recovered a torn record"
        );
        assert!(st.total() <= vs.len());
        assert_eq!(st.all_rows(), &vs[..st.total()]);
        let back = persist::rebuild_engine(&st, None, &pool).unwrap();
        assert_eq!(back.len(), st.total());
        lengths.push(st.total());
    }
    assert_eq!(
        lengths.first(),
        Some(&vs.len()),
        "uncut WAL recovers everything"
    );
    assert_eq!(lengths.last(), Some(&0), "empty WAL recovers nothing");
    assert!(
        lengths.windows(2).all(|w| w[0] >= w[1]),
        "shorter WALs can only recover less: {lengths:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_missing_generation_segment_truncates_to_the_gap() {
    let dir = tempdir("crash-gap");
    let pool = ThreadPool::new(1);
    let vs = vectors(45, 7);
    let engine = Engine::new(
        EngineConfig::new(params(3), CAPACITY)
            .manual_merge()
            .with_seal_min_points(1),
        &pool,
    )
    .unwrap();
    engine.persist_to(&dir).unwrap();
    for chunk in vs[..30].chunks(10) {
        engine.insert_batch(chunk, &pool).unwrap();
        engine.seal();
    }
    drop(engine);

    // Externally destroy the middle generation's file (a sealed
    // generation's WAL is its segment): ids 10..20 are gone, so the
    // recoverable prefix ends at the gap — the intact wal-20 log behind
    // it is an orphan and must not resurrect out-of-order rows.
    fs::remove_file(dir.join("data-0").join("wal-10.log")).unwrap();
    let st = persist::load_state(&dir).unwrap();
    assert_eq!(st.total(), 10, "recovery must stop at the id-space gap");
    assert_eq!(st.all_rows(), &vs[..10]);

    // Recovery keeps journaling: the orphan is GC'd on attach, and new
    // rows take over the freed id range cleanly.
    let back = Engine::recover_from(&dir, &pool).unwrap();
    assert_eq!(back.len(), 10);
    back.insert_batch(&vs[30..45], &pool).unwrap();
    back.seal();
    drop(back);
    let again = Engine::recover_from(&dir, &pool).unwrap();
    assert_eq!(again.len(), 25);
    let expect: Vec<SparseVector> = vs[..10].iter().chain(&vs[30..45]).cloned().collect();
    let scratch = scratch_engine(&expect, &[], &pool);
    assert_eq!(
        engine_answers(&again, &vs),
        engine_answers(&scratch, &vs),
        "post-gap journaling diverged from a from-scratch build"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_trashed_manifest_is_a_clean_error_not_a_panic() {
    let dir = tempdir("crash-manifest");
    let pool = ThreadPool::new(1);
    let vs = vectors(20, 9);
    let engine = Engine::new(EngineConfig::new(params(3), CAPACITY).manual_merge(), &pool).unwrap();
    engine.persist_to(&dir).unwrap();
    engine.insert_batch(&vs, &pool).unwrap();
    drop(engine);

    let manifest = dir.join("MANIFEST");
    let good = fs::read(&manifest).unwrap();
    // Bit-flipped checksum, truncation, wrong magic, empty file: all must
    // refuse recovery with an error, never a panic or a silent zero-row
    // "success".
    let mut flipped = good.clone();
    *flipped.last_mut().unwrap() ^= 0xff;
    let cases: Vec<Vec<u8>> = vec![
        flipped,
        good[..good.len() / 2].to_vec(),
        b"JUNKJUNKJUNK".to_vec(),
        Vec::new(),
    ];
    for (i, bad) in cases.iter().enumerate() {
        fs::write(&manifest, bad).unwrap();
        assert!(
            persist::load_state(&dir).is_err(),
            "corrupt manifest case {i} was accepted"
        );
        assert!(Engine::recover_from(&dir, &pool).is_err());
    }
    // The pristine manifest still recovers everything.
    fs::write(&manifest, &good).unwrap();
    assert_eq!(Engine::recover_from(&dir, &pool).unwrap().len(), vs.len());
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Sharded: the cut hits every shard's engine at once, each at a different
// point in its own WAL/segment/manifest lifecycle. Recovery truncates to
// the longest globally contiguous id prefix, `min_s(n_s·S + s)`, whose
// shape depends on S — so the loop runs at 2, 3 and 5 shards. Sampled
// rather than exhaustive — shards apply their slices of a batch in
// parallel, so their persistence ops interleave nondeterministically and
// k indexes "some interleaving"; every sampled cut must still satisfy the
// prefix/tombstone/answer contract.
// ---------------------------------------------------------------------

const SHARD_COUNTS: [usize; 3] = [2, 3, 5];
const SHARDED_DELETES: [u32; 3] = [5, 40, 77];

/// Builds the sharded index and its durable baseline (cluster manifest +
/// one empty directory per shard) before the injector arms — same crash
/// model as the single-engine loop.
fn setup_sharded(dir: &Path, shards: usize) -> ShardedIndex {
    let index = ShardedIndex::builder(
        EngineConfig::new(params(3), CAPACITY)
            .manual_merge()
            .with_seal_min_points(8),
    )
    .shards(shards)
    .threads(2)
    .build()
    .unwrap();
    index.persist_to(dir).unwrap();
    index
}

fn run_sharded_script(index: &ShardedIndex, vs: &[SparseVector]) {
    let merge = || {
        index.flush().unwrap();
        index.merge_all_in_background();
        index.quiesce().unwrap();
    };
    // One batch: each shard's first merge folds a single WAL.
    index.insert_batch(&vs[..60]).unwrap();
    let _ = index.delete(SHARDED_DELETES[0]);
    merge();
    let _ = index.delete(SHARDED_DELETES[1]);
    // A generation per chunk on every shard: the next merge's many small
    // files outweigh the live rows, so it checkpoints.
    for chunk in vs[60..96].chunks(9) {
        index.insert_batch(chunk).unwrap();
        index.flush().unwrap();
    }
    let _ = index.delete(SHARDED_DELETES[2]);
    merge();
    // Folded on top of the checkpoints.
    index.insert_batch(&vs[96..136]).unwrap();
    merge();
    for chunk in vs[136..].chunks(7) {
        index.insert_batch(chunk).unwrap();
    }
    index.flush().unwrap();
}

fn sharded_answers(index: &ShardedIndex, qs: &[SparseVector]) -> Vec<Vec<(u32, u32)>> {
    qs.iter()
        .map(|q| {
            let resp = index.search(&SearchRequest::query(q.clone())).unwrap();
            let mut hits: Vec<(u32, u32)> = resp
                .hits()
                .iter()
                .map(|h| (h.index, h.distance.to_bits()))
                .collect();
            hits.sort_unstable();
            hits
        })
        .collect()
}

#[test]
fn sharded_recovery_survives_sampled_power_cuts() {
    let _g = FAIL_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let pool = ThreadPool::new(1);
    let vs = vectors(150, 23);

    for shards in SHARD_COUNTS {
        let dir = tempdir("crash-shard-count");
        let index = setup_sharded(&dir, shards);
        fail::arm(i64::MAX);
        run_sharded_script(&index, &vs);
        drop(index);
        fail::disarm();
        let total = fail::ops_used();
        for s in 0..shards {
            let shard = dir.join(format!("shard-{s}"));
            assert_eq!(
                (checkpoint_files(&shard), folded_wals(&shard)),
                (1, 1),
                "shard {s} must end on a checkpoint with a WAL folded on top"
            );
        }
        let _ = fs::remove_dir_all(&dir);
        assert!(total > 60, "{shards}-shard script too small: {total} ops");

        let step = (total / 12).max(1);
        for k in (0..=total).step_by(step as usize) {
            let at = format!("{shards} shards, cut after op {k}");
            let dir = tempdir("crash-shard-k");
            let index = setup_sharded(&dir, shards);
            fail::arm(k as i64);
            run_sharded_script(&index, &vs);
            drop(index);
            fail::disarm();

            let back = ShardedIndex::recover_from(&dir)
                .unwrap_or_else(|e| panic!("{at}: recovery failed: {e}"));
            let t = back.len();
            assert!(t <= vs.len());

            // The flattened snapshot exposes exactly what survived: rows
            // must be the global ingest prefix, tombstones a subset of the
            // issued deletes.
            let snap = back.snapshot();
            assert_eq!(
                snap.vectors,
                &vs[..t],
                "{at}: recovered rows are not a global prefix"
            );
            let mut tombstones: Vec<u32> =
                snap.deleted.iter().chain(&snap.purged).copied().collect();
            tombstones.sort_unstable();
            tombstones.dedup();
            for id in &tombstones {
                assert!(SHARDED_DELETES.contains(id), "{at}: phantom tombstone {id}");
            }

            // Sharded ≡ single engine over the same rows, recovered or not.
            let scratch = scratch_engine(&vs[..t], &tombstones, &pool);
            assert_eq!(
                sharded_answers(&back, &vs),
                engine_answers(&scratch, &vs),
                "{at}: answers diverge from a from-scratch build"
            );
            drop(back);
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

// ---------------------------------------------------------------------
// Recover-again: recovering a directory, dropping the recovered index and
// recovering the same directory a second time must give the same
// answers — for a single-backend and a sharded `Index`.
// ---------------------------------------------------------------------

fn index_answers(index: &Index, qs: &[SparseVector]) -> Vec<Vec<(u32, u32)>> {
    qs.iter()
        .map(|q| {
            let mut hits: Vec<(u32, u32)> = index
                .search(&SearchRequest::query(q.clone()))
                .unwrap()
                .hits()
                .iter()
                .map(|h| (h.index, h.distance.to_bits()))
                .collect();
            hits.sort_unstable();
            hits
        })
        .collect()
}

#[test]
fn index_recovers_again_after_a_dropped_recovery() {
    // Not armed, but an armed neighbour would tear this test's writes.
    let _g = FAIL_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let vs = vectors(150, 29);
    for shards in [1usize, 3] {
        let dir = tempdir(&format!("recover-again-{shards}"));
        let mut builder = Index::builder(params(5)).capacity(CAPACITY).threads(2);
        if shards > 1 {
            builder = builder.shards(shards);
        }
        let want = {
            let index = builder.build().unwrap();
            index.add_batch(&vs[..80]).unwrap();
            index.merge().unwrap();
            index.persist_to(&dir).unwrap();
            // Post-baseline traffic lives in the WALs.
            index.add_batch(&vs[80..]).unwrap();
            index.delete(7).unwrap();
            index.flush().unwrap();
            index_answers(&index, &vs)
        };
        let first = Index::recover_from(&dir)
            .unwrap_or_else(|e| panic!("{shards} shard(s): first recovery failed: {e}"));
        assert_eq!(first.len(), vs.len());
        assert_eq!(
            index_answers(&first, &vs),
            want,
            "{shards} shard(s): first recovery"
        );
        drop(first);
        let again = Index::recover_from(&dir)
            .unwrap_or_else(|e| panic!("{shards} shard(s): second recovery failed: {e}"));
        assert_eq!(again.len(), vs.len());
        assert_eq!(
            index_answers(&again, &vs),
            want,
            "{shards} shard(s): recover-again"
        );
        drop(again);
        let _ = fs::remove_dir_all(&dir);
    }
}
