//! Backend equivalence: the whole point of the unified search API is that
//! [`Engine`], [`StreamingEngine`] (mid-ingest, merge in flight), and a
//! [`ShardedIndex`] at several shard counts answer the
//! *exact same* [`SearchRequest`] with the *exact same* answer set — same
//! ids, same distances, bit for bit — regardless of how their data is
//! segmented across static tables, sealed delta generations, shards, or
//! in-flight background merges.
//!
//! Budgeted requests ([`SearchRequest::with_max_candidates`]) compare
//! bit-identically across the single-node backends, a one-shard
//! [`ShardedIndex`] included (its one shard gets the whole budget); a
//! multi-shard backend divides the budget across its shards, so its
//! answers are checked to be budget-*honoring* instead — every hit a true
//! hit and the aggregate candidates examined within the global budget —
//! since each shard truncates its own ascending-id candidate prefix.
//!
//! Every answer a single-node backend gives is also checked against
//! `query::reference`, the unoptimized kernel, run over one flat static
//! epoch of the whole corpus.

use plsh::core::engine::{Engine, EngineConfig};
use plsh::core::hash::{Hyperplanes, SketchMatrix};
use plsh::core::query::{self, QueryContext};
use plsh::core::sparse::CrsMatrix;
use plsh::core::streaming::StreamingEngine;
use plsh::core::table::StaticTables;
use plsh::parallel::ThreadPool;
use plsh::workload::{CorpusConfig, QuerySet, SyntheticCorpus};
use plsh::{PlshParams, SearchBackend, SearchMode, SearchRequest, ShardedIndex};

const N: usize = 600;

fn corpus() -> SyntheticCorpus {
    SyntheticCorpus::generate(CorpusConfig {
        num_docs: N,
        vocab_size: 2_000,
        mean_words: 7.2,
        zipf_exponent: 1.0,
        duplicate_fraction: 0.25,
        seed: 424,
    })
}

fn params(dim: u32) -> PlshParams {
    PlshParams::builder(dim)
        .k(8)
        .m(8)
        .radius(0.9)
        .seed(17)
        .build()
        .unwrap()
}

/// Canonical answer form: per query, the sorted `(index, distance-bits)`
/// set. Node is asserted to be 0 everywhere (single node), so identical
/// answer sets really are identical.
fn answers<B: SearchBackend>(
    backend: &B,
    req: &SearchRequest,
    pool: &ThreadPool,
) -> Vec<Vec<(u32, u32)>> {
    let resp = backend.search(req, pool).expect("valid request");
    assert_eq!(resp.results.len(), req.queries().len());
    resp.results
        .iter()
        .map(|hits| {
            let mut set: Vec<(u32, u32)> = hits
                .iter()
                .map(|h| {
                    assert_eq!(h.node, 0, "every backend here is one node");
                    (h.index, h.distance.to_bits())
                })
                .collect();
            set.sort_unstable();
            set
        })
        .collect()
}

/// Canonical answer form for sharded backends: indexes are *global* ids
/// (bit-identical to the single engine's), while `node` carries the
/// owning-shard attribution and is therefore ignored here — after
/// checking it stays in range.
fn sharded_answers(
    backend: &ShardedIndex,
    req: &SearchRequest,
    pool: &ThreadPool,
) -> Vec<Vec<(u32, u32)>> {
    let resp = SearchBackend::search(backend, req, pool).expect("valid request");
    assert_eq!(resp.results.len(), req.queries().len());
    resp.results
        .iter()
        .map(|hits| {
            let mut set: Vec<(u32, u32)> = hits
                .iter()
                .map(|h| {
                    assert!(
                        (h.node as usize) < backend.num_shards(),
                        "hit attributed to nonexistent shard {}",
                        h.node
                    );
                    (h.index, h.distance.to_bits())
                })
                .collect();
            set.sort_unstable();
            set
        })
        .collect()
}

/// The whole corpus as one static epoch, built without an engine: the
/// rows, the engine's hyperplanes (same dimension, count and seed) and
/// [`StaticTables::reference`]'s tables over every row, which share no
/// code with the merge the engine builds its tables by.
fn flat_epoch(
    corpus: &SyntheticCorpus,
    params: &PlshParams,
    pool: &ThreadPool,
) -> (CrsMatrix, Hyperplanes, StaticTables) {
    let mut rows = CrsMatrix::new(corpus.dim());
    for v in corpus.vectors() {
        rows.push(v).unwrap();
    }
    let planes = Hyperplanes::new_dense(corpus.dim(), params.num_hashes(), params.seed(), pool);
    let mut sketches = SketchMatrix::new(params.m(), params.half_bits());
    sketches.append_from(&rows, &planes, 0, pool);
    let tables = StaticTables::reference(&sketches);
    (rows, planes, tables)
}

/// `query::reference`'s answers to `req` over `epoch` (a context at the
/// configured radius), in the canonical form of [`answers`]: the request
/// fields set the context as a backend sets its own.
fn reference_answers(epoch: &QueryContext<'_>, req: &SearchRequest) -> Vec<Vec<(u32, u32)>> {
    let mut ctx = QueryContext {
        radius: req.radius_override().unwrap_or(epoch.radius),
        max_candidates: req.max_candidates().unwrap_or(usize::MAX),
        ..*epoch
    };
    if let SearchMode::Knn(k) = req.mode() {
        ctx.radius = req.radius_override().unwrap_or(std::f32::consts::PI);
        ctx.top_k = Some(k);
    }
    req.queries()
        .iter()
        .map(|q| {
            let (hits, _) = query::reference(&ctx, q);
            let mut set: Vec<(u32, u32)> = hits
                .iter()
                .map(|h| (h.index, h.distance.to_bits()))
                .collect();
            set.sort_unstable();
            set
        })
        .collect()
}

#[test]
fn all_backends_answer_identically() {
    let corpus = corpus();
    let params = params(corpus.dim());
    let pool = ThreadPool::new(2);

    // Engine: mixed static + sealed-delta segmentation.
    let engine = Engine::new(EngineConfig::new(params.clone(), N).manual_merge(), &pool).unwrap();
    engine
        .insert_batch(&corpus.vectors()[..400], &pool)
        .unwrap();
    engine.merge_delta(&pool);
    engine
        .insert_batch(&corpus.vectors()[400..], &pool)
        .unwrap();

    // StreamingEngine: chunked ingest with a background merge kicked off
    // and *not* awaited — requests run while the merge may be anywhere
    // between building and published.
    let streaming = StreamingEngine::new(
        EngineConfig::new(params.clone(), N)
            .with_eta(0.95)
            .manual_merge(),
        ThreadPool::new(2),
    )
    .unwrap();
    for chunk in corpus.vectors().chunks(64) {
        streaming.insert_batch(chunk).unwrap();
    }
    streaming.merge_in_background();

    // A one-shard ShardedIndex — what every default `plsh::Index` is —
    // built and driven like the multi-shard ones below.
    let one_shard = ShardedIndex::builder(
        EngineConfig::new(params.clone(), N)
            .with_eta(0.95)
            .manual_merge(),
    )
    .shards(1)
    .threads(2)
    .build()
    .unwrap();
    for chunk in corpus.vectors().chunks(64) {
        one_shard.insert_batch(chunk).unwrap();
    }
    one_shard.flush().unwrap();
    assert_eq!(one_shard.merge_all_in_background(), 1);

    // ShardedIndexes at several shard counts, *mid-ingest*: everything
    // routed and visible, then background merges kicked off on every
    // shard and *not* awaited — requests run while merges are anywhere
    // between building and published on multiple shards at once.
    let sharded: Vec<ShardedIndex> = [2usize, 3, 5]
        .into_iter()
        .map(|shards| {
            let s = ShardedIndex::builder(
                EngineConfig::new(params.clone(), N)
                    .with_eta(0.95)
                    .manual_merge(),
            )
            .shards(shards)
            .threads(2)
            .build()
            .unwrap();
            for chunk in corpus.vectors().chunks(64) {
                s.insert_batch(chunk).unwrap();
            }
            s.flush().unwrap();
            assert_eq!(
                s.merge_all_in_background(),
                shards,
                "every shard must have sealed data to merge"
            );
            s
        })
        .collect();

    let (rows, planes, tables) = flat_epoch(&corpus, &params, &pool);
    let epoch = QueryContext {
        static_data: &rows,
        planes: &planes,
        static_tables: Some(&tables),
        deltas: &[],
        deleted: None,
        m: params.m(),
        half_bits: params.half_bits(),
        radius: params.radius() as f32,
        base: 0,
        retired_below: 0,
        max_candidates: usize::MAX,
        top_k: None,
    };

    let queries = QuerySet::sample_from_corpus(&corpus, 60, 9);
    let qs = queries.queries().to_vec();
    // (request, budgeted): budgeted requests divide the candidate budget
    // across shards, so sharded backends are held to budget-honoring
    // assertions instead of bit-identity.
    let requests = [
        // The default request.
        (SearchRequest::batch(qs.clone()), false),
        // Approximate k-NN with a global tie-break.
        (SearchRequest::batch(qs.clone()).top_k(7), false),
        // Per-request radius override.
        (SearchRequest::batch(qs.clone()).with_radius(1.2), false),
        // Bounded candidate budget: the visited prefix is the ascending-id
        // candidate order, so it is segmentation-independent across
        // single-node backends (and per-shard on sharded ones — hence the
        // flag).
        (
            SearchRequest::batch(qs.clone()).with_max_candidates(50),
            true,
        ),
        // Stats + profiling switches must not change answers.
        (SearchRequest::batch(qs.clone()).with_profiling(), false),
        (SearchRequest::query(qs[0].clone()).with_stats(), false),
    ];

    let compare_all = |label: &str| {
        // The unbudgeted radius answer set: the ground truth budgeted
        // sharded hits must be a subset of.
        let full = answers(&engine, &requests[0].0, &pool);
        for (ri, (req, budgeted)) in requests.iter().enumerate() {
            let a = answers(&engine, req, &pool);
            assert_eq!(
                a,
                reference_answers(&epoch, req),
                "{label}: Engine vs the reference kernel diverged on request {ri}"
            );
            let b = answers(&streaming, req, &pool);
            assert_eq!(
                a, b,
                "{label}: Engine vs StreamingEngine diverged on request {ri}"
            );
            assert_eq!(
                a,
                answers(&one_shard, req, &pool),
                "{label}: Engine vs 1-shard ShardedIndex diverged on request {ri}"
            );
            if *budgeted {
                // The budget is divided across shards (floored at one per
                // shard), so a sharded backend's *selection* differs from
                // a single engine's; what must hold is that the budget is
                // honored globally: every hit is a true radius hit, and
                // the aggregate candidates examined stay within the
                // global budget.
                let budget = req.max_candidates().expect("budgeted request") as u64;
                for s in &sharded {
                    let got = sharded_answers(s, req, &pool);
                    for (qi, hits) in got.iter().enumerate() {
                        for hit in hits {
                            assert!(
                                full[qi].contains(hit),
                                "{label}: {}-shard budgeted hit {hit:?} for query {qi} \
                                 is not a true radius hit (request {ri})",
                                s.num_shards()
                            );
                        }
                    }
                    let resp = SearchBackend::search(s, &req.clone().with_stats(), &pool).unwrap();
                    let totals = resp.stats.expect("asked for stats").totals;
                    let cap = budget * req.queries().len() as u64;
                    assert!(
                        totals.distance_computations <= cap,
                        "{label}: {}-shard backend examined {} candidates, \
                         budget allows {cap} (request {ri})",
                        s.num_shards(),
                        totals.distance_computations
                    );
                }
                continue;
            }
            for s in &sharded {
                assert_eq!(
                    a,
                    sharded_answers(s, req, &pool),
                    "{label}: Engine vs {}-shard ShardedIndex diverged on request {ri}",
                    s.num_shards()
                );
            }
        }
    };
    compare_all("mid-ingest");

    // Re-run after everything quiesces into static tables: answers are
    // again identical, and identical to their own pre-merge selves.
    let pre_merge = answers(&engine, &requests[0].0, &pool);
    streaming.wait_for_merge();
    streaming.merge_now();
    engine.merge_delta(&pool);
    one_shard.quiesce().unwrap();
    assert_eq!(one_shard.shard(0).engine().delta_len(), 0);
    for s in &sharded {
        s.quiesce().unwrap();
        assert_eq!(s.shard(0).engine().delta_len(), 0);
    }
    compare_all("post-merge");
    assert_eq!(
        pre_merge,
        answers(&engine, &requests[0].0, &pool),
        "merging must never change answers"
    );
}

#[test]
fn malformed_requests_error_on_every_backend() {
    let corpus = corpus();
    let params = params(corpus.dim());
    let pool = ThreadPool::new(1);
    let engine = Engine::new(EngineConfig::new(params.clone(), N), &pool).unwrap();
    let streaming =
        StreamingEngine::new(EngineConfig::new(params.clone(), N), ThreadPool::new(1)).unwrap();
    let sharded = ShardedIndex::builder(EngineConfig::new(params.clone(), N))
        .shards(2)
        .build()
        .unwrap();
    let one_shard = ShardedIndex::builder(EngineConfig::new(params, N))
        .shards(1)
        .build()
        .unwrap();

    let oob = plsh::SparseVector::unit(vec![(corpus.dim(), 1.0)]).unwrap();
    let req = SearchRequest::query(oob);
    assert!(SearchBackend::search(&engine, &req, &pool).is_err());
    assert!(SearchBackend::search(&streaming, &req, &pool).is_err());
    assert!(SearchBackend::search(&sharded, &req, &pool).is_err());
    assert!(SearchBackend::search(&one_shard, &req, &pool).is_err());
}
