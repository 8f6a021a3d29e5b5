//! Integration: the streaming path (delta tables, merges, deletions,
//! retirement) must never change query answers relative to a bulk build.

use plsh::core::{Engine, EngineConfig, PlshParams, SparseVector};
use plsh::parallel::ThreadPool;
use plsh::workload::{CorpusConfig, SyntheticCorpus};

fn params(dim: u32) -> PlshParams {
    PlshParams::builder(dim)
        .k(8)
        .m(10)
        .radius(0.9)
        .delta(0.1)
        .seed(17)
        .build()
        .unwrap()
}

fn corpus() -> SyntheticCorpus {
    SyntheticCorpus::generate(CorpusConfig {
        num_docs: 4_000,
        vocab_size: 5_000,
        mean_words: 7.2,
        zipf_exponent: 1.0,
        duplicate_fraction: 0.2,
        seed: 1,
    })
}

fn answers(engine: &Engine, queries: &[SparseVector]) -> Vec<Vec<u32>> {
    queries
        .iter()
        .map(|q| {
            let mut ids: Vec<u32> = engine.query(q).iter().map(|h| h.index).collect();
            ids.sort_unstable();
            ids
        })
        .collect()
}

#[test]
fn bulk_chunked_and_unmerged_builds_agree() {
    let c = corpus();
    let pool = ThreadPool::new(2);
    let queries: Vec<SparseVector> = (0..60u32).map(|i| c.vector(i * 37).clone()).collect();

    // Bulk: one insert + one merge.
    let bulk = Engine::new(
        EngineConfig::new(params(c.dim()), c.len()).manual_merge(),
        &pool,
    )
    .unwrap();
    bulk.insert_batch(c.vectors(), &pool).unwrap();
    bulk.merge_delta(&pool);

    // Chunked with auto-merge at eta = 5%.
    let chunked = Engine::new(
        EngineConfig::new(params(c.dim()), c.len()).with_eta(0.05),
        &pool,
    )
    .unwrap();
    for chunk in c.vectors().chunks(333) {
        chunked.insert_batch(chunk, &pool).unwrap();
    }
    assert!(chunked.stats().merges >= 2, "auto-merges must have fired");

    // Never merged: everything answered by scanning one delta generation.
    let unmerged = Engine::new(
        EngineConfig::new(params(c.dim()), c.len()).manual_merge(),
        &pool,
    )
    .unwrap();
    unmerged.insert_batch(c.vectors(), &pool).unwrap();
    assert_eq!(unmerged.static_len(), 0);

    // Never merged, many generations with partial last scan blocks.
    let fragmented = Engine::new(
        EngineConfig::new(params(c.dim()), c.len()).manual_merge(),
        &pool,
    )
    .unwrap();
    for chunk in c.vectors().chunks(37) {
        fragmented.insert_batch(chunk, &pool).unwrap();
    }
    assert_eq!(fragmented.static_len(), 0);

    let reference = answers(&bulk, &queries);
    assert_eq!(answers(&chunked, &queries), reference);
    assert_eq!(answers(&unmerged, &queries), reference);
    assert_eq!(answers(&fragmented, &queries), reference);
}

#[test]
fn deletions_survive_merges() {
    let c = corpus();
    let pool = ThreadPool::new(1);
    let engine = Engine::new(
        EngineConfig::new(params(c.dim()), c.len()).manual_merge(),
        &pool,
    )
    .unwrap();
    engine.insert_batch(&c.vectors()[..2000], &pool).unwrap();
    engine.merge_delta(&pool);

    // Delete a static point and a delta point.
    engine
        .insert_batch(&c.vectors()[2000..2100], &pool)
        .unwrap();
    let static_victim = 123u32;
    let delta_victim = 2050u32;
    assert!(engine.delete(static_victim));
    assert!(engine.delete(delta_victim));

    let q_static = c.vector(static_victim).clone();
    let q_delta = c.vector(delta_victim).clone();
    assert!(!engine
        .query(&q_static)
        .iter()
        .any(|h| h.index == static_victim));
    assert!(!engine
        .query(&q_delta)
        .iter()
        .any(|h| h.index == delta_victim));

    // A merge must not resurrect the tombstoned points.
    engine.merge_delta(&pool);
    assert!(!engine
        .query(&q_static)
        .iter()
        .any(|h| h.index == static_victim));
    assert!(!engine
        .query(&q_delta)
        .iter()
        .any(|h| h.index == delta_victim));
    assert_eq!(engine.stats().deleted_points, 2);
}

#[test]
fn query_during_partial_fill_sees_exactly_the_inserted_prefix() {
    let c = corpus();
    let pool = ThreadPool::new(1);
    let engine = Engine::new(
        EngineConfig::new(params(c.dim()), c.len()).manual_merge(),
        &pool,
    )
    .unwrap();
    let step = 500;
    for (chunk_idx, chunk) in c.vectors().chunks(step).enumerate().take(4) {
        engine.insert_batch(chunk, &pool).unwrap();
        let visible = (chunk_idx + 1) * step;
        // A point beyond the inserted prefix can never be reported.
        for probe in [0u32, (visible - 1) as u32] {
            let hits = engine.query(c.vector(probe));
            assert!(hits.iter().all(|h| (h.index as usize) < visible));
            assert!(
                hits.iter().any(|h| h.index == probe),
                "prefix point findable"
            );
        }
    }
}

#[test]
fn capacity_retirement_cycle_is_clean() {
    let c = corpus();
    let pool = ThreadPool::new(1);
    let cap = 1000usize;
    let engine = Engine::new(EngineConfig::new(params(c.dim()), cap).with_eta(0.2), &pool).unwrap();
    engine.insert_batch(&c.vectors()[..cap], &pool).unwrap();
    assert_eq!(engine.remaining_capacity(), 0);
    assert!(engine.insert(c.vector(0).clone(), &pool).is_err());

    // Node-level retirement (what the cluster window does) and refill.
    engine.clear();
    engine
        .insert_batch(&c.vectors()[cap..2 * cap], &pool)
        .unwrap();
    assert_eq!(engine.len(), cap);
    let probe = c.vector((cap + 5) as u32);
    assert!(engine.query(probe).iter().any(|h| h.index == 5));
    // Old points are gone even though their vectors resemble new ids.
    let old = c.vector(0);
    for h in engine.query(old) {
        let exact = old.angular_distance(c.vector(cap as u32 + h.index));
        assert!(exact <= 0.9 + 1e-5, "hits refer to the new generation only");
    }
}
