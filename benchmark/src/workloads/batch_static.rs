//! `batch_static` — the paper's Figure-5 regime. 100K documents bulk-loaded
//! and fully merged into a single-backend index; one caller issues
//! `Index::search(SearchRequest::batch(1000 queries))` in radius mode back
//! to back, cycling 8 distinct batches. `core.hash` Q1 and `core.query`
//! Q2/Q3 over `core.table` static tables do nearly all the work; `server`,
//! `core.persist` and merging do none during the timed phase.

use crate::fixture::{
    apply_verdict, baseline_restart, check_against_exact, StaticFixture, BATCH_QUERIES,
};
use crate::harness::{record_memory, unsound_queries, Ctx, Outcome, SetupTimes, RADIUS};
use crate::layers;
use crate::stats::Timeline;
use crate::trace::ROOT;
use crate::workloads::{record_search, record_setup, segments, ModeRates, SLICES};
use plsh::{SearchHit, SearchRequest, SparseVector};
use std::time::{Duration, Instant};

fn setup(ctx: &Ctx) -> (StaticFixture, Vec<SearchRequest>) {
    let fx = StaticFixture::build(ctx, 0);
    let batches: Vec<SearchRequest> = fx
        .queries()
        .chunks(BATCH_QUERIES)
        .map(|c| SearchRequest::batch(c.to_vec()))
        .collect();
    // One untimed batch: first-touch of the tables and the scratch pool.
    fx.index.search(&batches[0]).expect("warm-up batch");
    (fx, batches)
}

pub fn setup_only(ctx: &Ctx) -> SetupTimes {
    let (fx, _) = setup(ctx);
    fx.times.stamped(ctx)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new();
    let (fx, batches) = setup(ctx);
    let own = fx.times.stamped(ctx);
    let docs = ctx.scale.static_docs;

    // ---- Timed phase: closed loop, one caller.
    let mut timeline = Timeline::default();
    // The first cycle's answers, kept for the oracle.
    let mut first_answers: Vec<Vec<SearchHit>> = Vec::new();
    let mut rates = ModeRates::default();
    let mut calls = 0u64;
    let phase_start = Instant::now();
    for (length, traced) in segments(ctx, ctx.phase(1.0)) {
        ctx.tracer.set_enabled(traced);
        let start = Instant::now();
        let mut seg_correct = 0u64;
        while start.elapsed() < length {
            let req = &batches[calls as usize % batches.len()];
            calls += 1;
            let at = phase_start.elapsed();
            let (resp, d) = ctx
                .tracer
                .timed("index.search_batch", ROOT, calls, |_| fx.index.search(req));
            out.attempted += BATCH_QUERIES as u64;
            let correct = match resp {
                Ok(r) => {
                    let bad = unsound_queries(&r.results, RADIUS, 0..docs as u32);
                    if calls as usize <= batches.len() {
                        first_answers.extend(r.results);
                    }
                    BATCH_QUERIES as u64 - bad
                }
                Err(_) => 0,
            };
            out.failed += BATCH_QUERIES as u64 - correct;
            seg_correct += correct;
            timeline.push(at, d, correct as f64);
        }
        rates.add(traced, seg_correct as f64, start.elapsed());
    }
    ctx.tracer.set_enabled(ctx.trace);
    record_search(
        &mut out,
        &timeline,
        ctx.phase(1.0),
        SLICES,
        "one 1000-query radius batch call",
    );
    rates.record(&mut out);
    // Closed loop: the generator runs late by what it spends between calls.
    out.set("bench.generator_late_p99_ms", timeline.gap_p99_ms());

    // ---- Oracle: every answer of the first cycle against an exact scan
    // of the harness's copy of the corpus.
    let queries: Vec<SparseVector> = fx.queries();
    let checked = first_answers.len().min(queries.len());
    let ids: Vec<u32> = (0..docs as u32).collect();
    let verdict = check_against_exact(
        &fx.corpus.vectors[..docs],
        &ids,
        &queries[..checked],
        &first_answers[..checked],
    );
    apply_verdict(&mut out, &verdict);

    // ---- Per-layer measurements (traced runs only).
    if ctx.trace {
        let q = batches[0].queries();
        layers::hash_layer(
            ctx,
            &mut out,
            &crate::harness::params(),
            q,
            &fx.corpus.vectors[..BATCH_QUERIES],
        );
        let batch = layers::query_layer(ctx, &mut out, &fx.index, q);
        layers::table_bytes(&mut out, &fx.index);
        let creation = Duration::from_secs_f64(fx.times.bulk_insert_s + fx.times.bulk_build_s);
        let avg_nnz = fx.corpus.user_bytes(0..docs) as f64 / 8.0 / docs as f64;
        layers::model_layer(ctx, &mut out, docs, avg_nnz, batch, creation, BATCH_QUERIES);
        layers::scaling_layers(
            ctx,
            &mut out,
            &fx.corpus.vectors[..docs],
            &batches,
            rates.untraced(),
        );
    }

    // ---- Set-up (bulk creation rate is this workload's ingest metric).
    let setups = record_setup(ctx, &mut out, own);
    let rate = |s: &SetupTimes| s.bulk_docs as f64 / (s.bulk_insert_s + s.bulk_build_s);
    out.set(
        "ingest_docs_per_s",
        crate::stats::median(&setups.iter().map(rate).collect::<Vec<_>>()),
    );
    out.note("ingest_is", "bulk load + merge of the whole corpus");

    // ---- Restart from a persistence baseline.
    let survivors = fx.survivors(ctx.seed, docs);
    let user_bytes = fx.corpus.user_bytes(0..docs);
    record_memory(&mut out);
    baseline_restart(
        ctx,
        &mut out,
        fx.index,
        &queries[..20],
        &survivors,
        user_bytes,
    );

    out
}
