//! Merge-equivalence property: any interleaving of insert / seal / merge /
//! delete must answer every query identically to a from-scratch build over
//! the same rows — the generation boundaries, merge timing, and purge
//! schedule are invisible in answers.
//!
//! Plus a threaded smoke test: queries racing a live ingest thread must
//! only ever observe consistent epochs (`visible = static + sealed`, no
//! half-merged state, no lost points behind the insert watermark).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use plsh::core::streaming::StreamingEngine;
use plsh::core::{Engine, EngineConfig, PlshParams, SparseVector};
use plsh::parallel::ThreadPool;

const DIM: u32 = 48;

fn params(seed: u64) -> PlshParams {
    PlshParams::builder(DIM)
        .k(6)
        .m(6)
        .radius(0.9)
        .seed(seed)
        .build()
        .unwrap()
}

#[derive(Debug, Clone)]
enum Op {
    /// Insert a batch of 1..6 vectors.
    InsertBatch(Vec<Vec<(u32, f32)>>),
    /// Force-seal the open generation.
    Seal,
    /// Merge all sealed generations (purging tombstones).
    Merge,
    /// Tombstone the i-th inserted point (mod current count).
    Delete(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let pair = (0..DIM, 1u32..100).prop_map(|(d, v)| (d, v as f32 / 10.0));
    let vec_strategy = proptest::collection::vec(pair, 1..5);
    let batch_strategy = proptest::collection::vec(vec_strategy, 1..6);
    prop_oneof![
        5 => batch_strategy.prop_map(Op::InsertBatch),
        1 => Just(Op::Seal),
        1 => Just(Op::Merge),
        2 => any::<prop::sample::Index>().prop_map(|i| Op::Delete(i.index(1000))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn interleavings_answer_like_a_from_scratch_build(
        ops in proptest::collection::vec(op_strategy(), 1..50)
    ) {
        let pool = ThreadPool::new(1);
        // seal_min_points > 1 exercises open-generation coalescing: some
        // batches stay buffered until a later batch (or explicit seal)
        // publishes them.
        let live = Engine::new(
            EngineConfig::new(params(31), 4096)
                .manual_merge()
                .with_seal_min_points(4),
            &pool,
        )
        .unwrap();

        let mut vectors: Vec<SparseVector> = Vec::new();
        let mut deleted: Vec<u32> = Vec::new();
        for op in &ops {
            match op {
                Op::InsertBatch(rows) => {
                    let vs: Vec<SparseVector> = rows
                        .iter()
                        .map(|pairs| SparseVector::unit(pairs.clone()).unwrap())
                        .collect();
                    live.insert_batch(&vs, &pool).unwrap();
                    vectors.extend(vs);
                }
                Op::Seal => {
                    live.seal();
                }
                Op::Merge => {
                    live.merge_delta(&pool);
                }
                Op::Delete(i) => {
                    if !vectors.is_empty() {
                        let id = (*i % vectors.len()) as u32;
                        let newly = live.delete(id);
                        prop_assert_eq!(newly, !deleted.contains(&id));
                        if newly {
                            deleted.push(id);
                        }
                    }
                }
            }
        }
        // Make the coalesced tail visible, then compare against a
        // from-scratch build: one bulk insert, one merge, same deletes.
        live.seal();
        let scratch = Engine::new(
            EngineConfig::new(params(31), 4096).manual_merge(),
            &pool,
        )
        .unwrap();
        if !vectors.is_empty() {
            scratch.insert_batch(&vectors, &pool).unwrap();
        }
        scratch.merge_delta(&pool);
        for &id in &deleted {
            scratch.delete(id);
        }

        prop_assert_eq!(live.len(), scratch.len());
        for (i, v) in vectors.iter().enumerate() {
            prop_assert_eq!(live.is_deleted(i as u32), scratch.is_deleted(i as u32));
            let mut a: Vec<u32> = live.query(v).iter().map(|h| h.index).collect();
            let mut b: Vec<u32> = scratch.query(v).iter().map(|h| h.index).collect();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b, "answers diverged for point {}", i);
        }
    }
}

#[test]
fn concurrent_queries_see_only_consistent_epochs() {
    let pool = ThreadPool::new(2);
    let n = 3000usize;
    let engine =
        StreamingEngine::new(EngineConfig::new(params(77), n).with_eta(0.04), pool).unwrap();

    // Deterministic corpus: every point is its own nearest neighbor.
    let vectors: Vec<SparseVector> = (0..n as u32)
        .map(|i| {
            SparseVector::unit(vec![
                (i % DIM, 1.0),
                ((i * 7 + 1) % DIM, 0.4 + (i % 5) as f32 * 0.1),
            ])
            .unwrap()
        })
        .collect();

    // The watermark only advances after insert_batch has returned, so
    // everything at or below it must be sealed and findable.
    let watermark = Arc::new(AtomicUsize::new(0));
    let writer = {
        let engine = engine.clone();
        let vectors = vectors.clone();
        let watermark = watermark.clone();
        std::thread::spawn(move || {
            for (c, chunk) in vectors.chunks(150).enumerate() {
                engine.insert_batch(chunk).unwrap();
                watermark.fetch_add(chunk.len(), Ordering::Release);
                // Sprinkle deletes behind the watermark.
                if c % 3 == 2 {
                    engine.delete((c * 31 % (c * 150)) as u32);
                }
            }
        })
    };

    let readers: Vec<_> = (0..2)
        .map(|t| {
            let engine = engine.clone();
            let vectors = vectors.clone();
            let watermark = watermark.clone();
            std::thread::spawn(move || {
                let mut checked = 0usize;
                let mut last_generation = 0u64;
                while checked < 300 {
                    // 1) epochs are never half-merged and never go back.
                    let info = engine.epoch_info();
                    assert_eq!(
                        info.visible_points,
                        info.static_points + info.sealed_points,
                        "half-merged epoch observed"
                    );
                    assert!(info.generation >= last_generation);
                    last_generation = info.generation;

                    // 2) sealed points are never lost, whatever merge or
                    //    seal races this query.
                    let visible = watermark.load(Ordering::Acquire);
                    if visible == 0 {
                        continue;
                    }
                    let probe = (t * 61 + checked * 17) % visible;
                    if engine.engine().is_deleted(probe as u32) {
                        checked += 1;
                        continue;
                    }
                    let hits = engine.query(&vectors[probe]);
                    if !hits.iter().any(|h| h.index == probe as u32) {
                        // The writer may have tombstoned the probe between
                        // our check and the query; anything else is a loss.
                        assert!(
                            engine.engine().is_deleted(probe as u32),
                            "sealed point {probe} lost mid-ingest"
                        );
                    }
                    // 3) answers only ever reference assigned ids.
                    assert!(hits.iter().all(|h| (h.index as usize) < engine.len()));
                    checked += 1;
                }
            })
        })
        .collect();

    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
    engine.wait_for_merge();
    engine.merge_now();
    assert_eq!(engine.len(), n);
    assert!(
        engine.stats().merges >= 1,
        "auto-merge must have fired in the background"
    );
    assert_eq!(engine.epoch_info().sealed_points, 0);
    // Post-quiesce: all live points findable, all deleted points absent.
    for probe in (0..n).step_by(123) {
        let hits = engine.query(&vectors[probe]);
        if engine.engine().is_deleted(probe as u32) {
            assert!(hits.iter().all(|h| h.index != probe as u32));
        } else {
            assert!(hits.iter().any(|h| h.index == probe as u32));
        }
    }
}

/// The paced (stepped) background merge — bounded slices, yielding to
/// live queries between them — publishes an epoch that answers
/// bit-identically to a from-scratch monolithic build over the same rows.
/// Arbitrary slice budgets are covered by `properties.rs`'s
/// `stepped_merge_is_bit_identical_to_monolithic`.
#[test]
fn paced_background_merge_answers_identically() {
    let n = 1200usize;
    let engine = StreamingEngine::new(
        EngineConfig::new(params(91), n).manual_merge(),
        ThreadPool::new(2),
    )
    .unwrap();

    let vectors: Vec<SparseVector> = (0..n as u32)
        .map(|i| {
            SparseVector::unit(vec![
                (i % DIM, 1.0),
                ((i * 11 + 3) % DIM, 0.3 + (i % 7) as f32 * 0.1),
            ])
            .unwrap()
        })
        .collect();
    for chunk in vectors.chunks(200) {
        engine.insert_batch(chunk).unwrap();
    }

    // Race queries against the stepped merge until it publishes.
    engine.merge_in_background();
    let mut probed = 0usize;
    while engine.merge_in_flight() {
        let probe = probed * 37 % n;
        assert!(
            engine
                .query(&vectors[probe])
                .iter()
                .any(|h| h.index == probe as u32),
            "point {probe} lost mid-merge"
        );
        probed += 1;
    }
    engine.wait_for_merge();
    assert_eq!(engine.engine().static_len(), n, "paced merge must publish");

    // Bit-identical to a monolithic from-scratch build.
    let pool = ThreadPool::new(1);
    let scratch = Engine::new(EngineConfig::new(params(91), n).manual_merge(), &pool).unwrap();
    scratch.insert_batch(&vectors, &pool).unwrap();
    scratch.merge_delta(&pool);
    for (i, v) in vectors.iter().enumerate() {
        let mut a: Vec<(u32, u32)> = engine
            .query(v)
            .iter()
            .map(|h| (h.index, h.distance.to_bits()))
            .collect();
        let mut b: Vec<(u32, u32)> = scratch
            .query(v)
            .iter()
            .map(|h| (h.index, h.distance.to_bits()))
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "answers diverged for point {i}");
    }
}
