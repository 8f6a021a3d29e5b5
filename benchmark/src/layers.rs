//! Per-layer measurements taken from outside, by timing calls into each
//! layer's public functions (traced runs only). Every call is wrapped in
//! a span; the numbers reported are the durations of those calls.

use crate::harness::{params, threads, Ctx, Outcome};
use crate::stats::{percentile_sorted, Latencies, P50};
use crate::trace::ROOT;
use plsh::core::hash::{Hyperplanes, SketchMatrix};
use plsh::core::model::{relative_error, MachineProfile, PerformanceModel};
use plsh::parallel::ThreadPool;
use plsh::{Index, PlshParams, SearchRequest, SparseVector};
use std::time::{Duration, Instant};

/// Point queries timed per in-process latency measurement.
const POINT_QUERIES: usize = 1000;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median time of one in-process batch-of-1 top-10 search through `f`.
fn point_p50_us(
    ctx: &Ctx,
    name: &'static str,
    queries: &[SparseVector],
    mut f: impl FnMut(&SearchRequest) -> bool,
) -> f64 {
    let mut lat = Latencies::default();
    for q in queries.iter().take(POINT_QUERIES) {
        let req = SearchRequest::query(q.clone()).top_k(10);
        let (ok, d) = ctx.tracer.timed(name, ROOT, 0, |_| f(&req));
        assert!(ok, "{name}: an in-process point search failed");
        lat.push(d);
    }
    percentile_sorted(&lat.sorted(), P50) * 1e3
}

/// `core.hash`: Q1 over the query set and sketching of an ingest batch,
/// with the index's own parameters and hyperplane seed.
pub fn hash_layer(
    ctx: &Ctx,
    out: &mut Outcome,
    p: &PlshParams,
    queries: &[SparseVector],
    docs: &[SparseVector],
) {
    let pool = ThreadPool::new(threads());
    let (planes, _) = ctx.tracer.timed("core.hash.new_dense", ROOT, 0, |_| {
        Hyperplanes::new_dense(p.dim(), p.num_hashes(), p.seed(), &pool)
    });
    let sketch = |name: &'static str, vs: &[SparseVector]| {
        let views: Vec<(&[u32], &[f32])> = vs.iter().map(|v| (v.indices(), v.values())).collect();
        let mut acc = Vec::new();
        let mut keys = vec![0u32; vs.len() * p.m() as usize];
        // Best of three: the first pass pulls the touched plane rows in.
        (0..3)
            .map(|_| {
                ctx.tracer
                    .timed(name, ROOT, 0, |_| {
                        SketchMatrix::sketch_batch(
                            &planes,
                            p.half_bits(),
                            &views,
                            &mut acc,
                            &mut keys,
                        );
                        std::hint::black_box(&keys);
                    })
                    .1
            })
            .min()
            .expect("three passes")
    };
    let q1 = sketch("core.hash.q1", queries);
    out.set("core.hash.q1_us_per_query", us(q1) / queries.len() as f64);
    let sk = sketch("core.hash.sketch", docs);
    out.set("core.hash.sketch_us_per_doc", us(sk) / docs.len() as f64);
}

/// `core.query`, `index` and `parallel.dispatch_us` on a quiesced index.
/// Returns the median wall time of the 1000-query batch.
pub fn query_layer(
    ctx: &Ctx,
    out: &mut Outcome,
    index: &Index,
    queries: &[SparseVector],
) -> Duration {
    let batch = SearchRequest::batch(queries.to_vec());

    // Exact counts and the sequential Q2/Q3 split.
    let (resp, _) = ctx.tracer.timed("core.query.profiled_batch", ROOT, 0, |_| {
        index.search(&batch.clone().with_profiling())
    });
    let resp = resp.expect("profiled batch search");
    let n = queries.len() as f64;
    if let (Some(stats), Some(phases)) = (resp.stats, resp.phase_timings) {
        let t = stats.totals;
        out.set("core.query.q2_us_per_query", us(phases.step_q2) / n);
        out.set("core.query.q3_us_per_query", us(phases.step_q3) / n);
        out.set("core.query.collisions_per_query", t.collisions as f64 / n);
        out.set(
            "core.query.unique_candidates_per_query",
            t.unique_candidates as f64 / n,
        );
        out.set(
            "core.query.distance_computations_per_query",
            t.distance_computations as f64 / n,
        );
        out.set("core.query.matches_per_query", t.matches as f64 / n);
        if t.distance_computations > 0 {
            out.set(
                "core.query.candidate_yield",
                t.matches as f64 / t.distance_computations as f64,
            );
        }
    }

    // Batch of 1000 vs 1000 batches of 1.
    let mut batch_lat = Latencies::default();
    for _ in 0..5 {
        let (r, d) = ctx
            .tracer
            .timed("core.query.batch", ROOT, 0, |_| index.search(&batch));
        r.expect("batch search");
        batch_lat.push(d);
    }
    let batch_ms = percentile_sorted(&batch_lat.sorted(), P50);
    let point_us = point_p50_us(ctx, "core.query.point", queries, |req| {
        index.search(req).is_ok()
    });
    out.set("core.query.point_search_us", point_us);
    out.set("core.query.batch_speedup", point_us / (batch_ms * 1e3 / n));

    // Facade dispatch: Index::search minus the backend's own search.
    if let Some(backend) = index.backend() {
        let direct_us = point_p50_us(ctx, "index.backend_point", queries, |req| {
            backend.search(req).is_ok()
        });
        out.set("index.facade_overhead_us", point_us - direct_us);
    }

    // An empty parallel_map on the pool: the cost of one dispatch.
    let pool = ThreadPool::new(threads());
    let mut lat = Latencies::default();
    for _ in 0..2000 {
        let (v, d) = ctx.tracer.timed("parallel.dispatch", ROOT, 0, |_| {
            pool.parallel_map(0..threads(), |i| i)
        });
        std::hint::black_box(v);
        lat.push(d);
    }
    out.set(
        "parallel.dispatch_us",
        percentile_sorted(&lat.sorted(), P50) * 1e3,
    );

    Duration::from_secs_f64(batch_ms / 1e3)
}

/// `core.table` / memory accounting from `Index::stats`.
pub fn table_bytes(out: &mut Outcome, index: &Index) {
    let s = index.stats();
    if s.static_points > 0 {
        out.set(
            "core.table.static_bytes_per_doc",
            s.static_table_bytes as f64 / s.static_points as f64,
        );
    }
    if s.delta_points > 0 {
        out.set(
            "core.table.delta_bytes_per_doc",
            s.delta_table_bytes as f64 / s.delta_points as f64,
        );
    }
}

/// `core.model`: how far the paper-style model is from this box.
pub fn model_layer(
    ctx: &Ctx,
    out: &mut Outcome,
    docs: usize,
    avg_nnz: f64,
    measured_batch: Duration,
    measured_creation: Duration,
    queries: usize,
) {
    let pool = ThreadPool::new(threads());
    let (machine, _) = ctx.tracer.timed("core.model.calibrate", ROOT, 0, |_| {
        MachineProfile::calibrate(&pool, 2.1e9)
    });
    let model = PerformanceModel::new(machine);
    let collisions = out
        .metrics
        .get("core.query.collisions_per_query")
        .copied()
        .unwrap_or(0.0);
    let unique = out
        .metrics
        .get("core.query.unique_candidates_per_query")
        .copied()
        .unwrap_or(0.0);
    let q = model.predict_query_batch(queries, docs, avg_nnz, collisions, unique);
    out.set(
        "core.model.query_rel_err",
        relative_error(q.total(), measured_batch),
    );
    let c = model.predict_creation(docs, avg_nnz, &params());
    out.set(
        "core.model.creation_rel_err",
        relative_error(c.total(), measured_creation),
    );
    out.note("model_freq_ghz", format!("{:.3}", machine.freq_hz / 1e9));
    out.note(
        "model_bytes_per_cycle",
        format!("{:.2}", machine.bytes_per_cycle),
    );
}

/// Closed-loop batch throughput of `index` over `batches` for `length`.
pub fn batch_qps(
    ctx: &Ctx,
    name: &'static str,
    index: &Index,
    batches: &[SearchRequest],
    length: Duration,
) -> f64 {
    let start = Instant::now();
    let mut queries = 0usize;
    for req in batches.iter().cycle() {
        if start.elapsed() >= length {
            break;
        }
        let (r, _) = ctx.tracer.timed(name, ROOT, 0, |_| index.search(req));
        r.expect("batch search");
        queries += req.queries().len();
    }
    queries as f64 / start.elapsed().as_secs_f64()
}

/// `parallel.speedup_2t` and `cluster.*`: the same batches through a
/// one-thread index and through a two-shard index. Ungated; they guard
/// pool and facade/sharding refactors.
pub fn scaling_layers(
    ctx: &Ctx,
    out: &mut Outcome,
    docs: &[SparseVector],
    batches: &[SearchRequest],
    single_qps: f64,
) {
    let length = Duration::from_secs_f64(1.5);
    let build = |shards: Option<usize>, threads: usize| {
        let mut b = Index::builder(params())
            .capacity(docs.len())
            .threads(threads);
        if let Some(s) = shards {
            b = b.shards(s);
        }
        let index = b.build().expect("fixture index configuration is valid");
        index.add_batch(docs).expect("bulk load fits");
        index
            .flush()
            .and_then(|()| index.merge())
            .expect("merging the bulk load");
        index
    };
    if threads() >= 2 {
        let one = build(None, 1);
        let qps_1t = batch_qps(ctx, "parallel.batch_1t", &one, batches, length);
        out.set("parallel.speedup_2t", single_qps / qps_1t);
    } else {
        out.note("parallel.speedup_2t", "n/a: one hardware thread");
    }
    let sharded = build(Some(2), threads());
    let cluster_qps = batch_qps(ctx, "cluster.batch", &sharded, batches, length);
    out.set("cluster.search_qps", cluster_qps);
    out.set("cluster.fanout_ratio", cluster_qps / single_qps);
    let queries = batches[0].queries();
    out.set(
        "cluster.point_search_us",
        point_p50_us(ctx, "cluster.point", queries, |req| {
            sharded.search(req).is_ok()
        }),
    );
}
