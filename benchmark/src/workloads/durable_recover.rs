//! `durable_recover` — the write path at saturation with `core.persist`
//! in the loop, then the cold path. A single-backend index with a sliding
//! window of 50 000 documents (capacity 150 000) and `persist_to`
//! attached (default flush policy: WAL append + fsync per batch, a
//! segment per sealed generation, manifest swap per merge); one caller
//! adds 1000 pre-vectorised documents at a time as fast as they are
//! acknowledged, cycling a 200 000-document corpus. Then a short
//! closed-loop search phase on the write-heavy index, the index is
//! dropped without `flush`/`shutdown`, and it is recovered from copies of
//! its directory.
//!
//! The page cache is warm and `fsync` is the sandbox's: latencies here
//! are the sandbox's, not a device's.

use crate::fixture::{
    apply_verdict, check_against_exact, measure_restarts, record_restarts, ORACLE_QUERIES,
};
use crate::gen::{sample_positions, Corpus, SplitMix64};
use crate::harness::{
    dir_stats, params, record_memory, threads, unsound_queries, Ctx, Outcome, SetupTimes, RADIUS,
};
use crate::layers;
use crate::stats::{Latencies, Timeline};
use crate::trace::ROOT;
use crate::workloads::{record_search, record_setup, segments, watch_engine, ModeRates, SLICES};
use plsh::{Index, SearchHit, SearchRequest, SparseVector, WindowSpec};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

const INGEST_BATCH: usize = 1000;
/// Queries per search call of the probe phase.
const PROBE_BATCH: usize = 200;
/// The probe phase is short (a few hundred calls): five slices keep
/// about fifty calls in each.
const SEARCH_SLICES: usize = 5;
/// Documents added, untimed, after the fold that ends the stream, as a
/// share of the window: a fifth of it, below the η·C = 30% of the window
/// at which a merge would start.
const TAIL_WINDOW_SHARE: usize = 5;
/// Shares of `--seconds`.
const INGEST_SHARE: f64 = 0.7;
const SEARCH_SHARE: f64 = 0.15;
/// Traced runs only: the memory-only twin that `journal_overhead` is
/// measured against.
const TWIN_SHARE: f64 = 0.15;

struct Durable {
    corpus: Corpus,
    index: Index,
    dir: PathBuf,
    window: usize,
    /// Documents added so far; ids are `0..added`, document `id` is corpus
    /// position `id % corpus.len()`.
    added: usize,
    times: SetupTimes,
}

fn windowed_index(window: usize) -> Index {
    Index::builder(params())
        .capacity(3 * window)
        .threads(threads())
        .with_window(WindowSpec::Docs(window as u32))
        .build()
        .expect("fixture index configuration is valid")
}

fn setup(ctx: &Ctx) -> Durable {
    let window = ctx.scale.durable_window;
    let (corpus, gen_t) = ctx.tracer.timed("bench.corpus_gen", ROOT, 0, |_| {
        Corpus::generate(ctx.seed, ctx.scale.durable_corpus)
    });
    let index = windowed_index(window);
    let dir = ctx.tmp.join("durable");
    index
        .persist_to(&dir)
        .expect("attaching persistence to an empty index");
    // One window through the same durable path, so the timed phase starts
    // at steady state.
    let ((), insert_t) = ctx.tracer.timed("core.engine.bulk_insert", ROOT, 0, |_| {
        for chunk in corpus.vectors[..window].chunks(INGEST_BATCH) {
            index.add_batch(chunk).expect("preload batch");
        }
    });
    let (res, build_t) = ctx
        .tracer
        .timed("core.table.bulk_build", ROOT, 0, |_| index.flush());
    res.expect("flushing the preload");
    Durable {
        corpus,
        index,
        dir,
        window,
        added: window,
        times: SetupTimes {
            setup_s: 0.0,
            corpus_gen_s: gen_t.as_secs_f64(),
            bulk_insert_s: insert_t.as_secs_f64(),
            bulk_build_s: build_t.as_secs_f64(),
            bulk_docs: window,
        },
    }
}

pub fn setup_only(ctx: &Ctx) -> SetupTimes {
    let d = setup(ctx);
    d.times.stamped(ctx)
}

/// Peak RSS of a child process that recovers a copy of `dir` and exits.
fn restarted_rss_mb(ctx: &Ctx, dir: &std::path::Path) -> f64 {
    let copy = ctx.tmp.join("restart-rss");
    crate::harness::copy_dir(dir, &copy).expect("copying the persist directory");
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    // `output` waits for the child to end.
    let output = std::process::Command::new(exe)
        .arg("--recover-rss")
        .arg(&copy)
        .output()
        .expect("starting the restart child");
    assert!(
        output.status.success(),
        "the restart child failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    std::fs::remove_dir_all(&copy).expect("removing a restart copy");
    String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .expect("the restart child prints its peak RSS")
}

/// Bytes this process has passed to `write` so far (`/proc/self/io`).
fn written_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("wchar:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// What the saturating writer observed.
#[derive(Default)]
struct Saturation {
    /// Per acknowledged batch: when its first attempt started, how long
    /// until it was acknowledged, documents acknowledged.
    timeline: Timeline,
    calls: Latencies,
    acked: usize,
    /// Batches the index refused with `CapacityExceeded` because merges
    /// had fallen behind the writer; the writer waited for the merge and
    /// sent the batch again (the wait is part of that batch's latency).
    capacity_waits: u64,
}

/// Adds the next batch of the cycled corpus, as a client would: a batch
/// refused for capacity is flow control — wait for the merge, send it
/// again. Any other refusal, or a third refusal in a row, is a failed
/// operation. Returns whether the batch was acknowledged.
fn add_next_batch(
    ctx: &Ctx,
    out: &mut Outcome,
    index: &Index,
    corpus: &Corpus,
    added: &mut usize,
    phase_start: Instant,
    sat: &mut Saturation,
) -> bool {
    let at = *added % corpus.len();
    let chunk = &corpus.vectors[at..at + INGEST_BATCH];
    let want = *added as u32..(*added + INGEST_BATCH) as u32;
    let first_attempt = Instant::now();
    out.attempted += 1;
    for _ in 0..3 {
        let (ids, d) = ctx
            .tracer
            .timed("index.add_batch", ROOT, 0, |_| index.add_batch(chunk));
        sat.calls.push(d);
        match ids {
            Ok(ids) if ids.iter().copied().eq(want.clone()) => {
                *added += INGEST_BATCH;
                sat.acked += INGEST_BATCH;
                sat.timeline.push(
                    first_attempt - phase_start,
                    first_attempt.elapsed(),
                    INGEST_BATCH as f64,
                );
                return true;
            }
            Err(plsh::Error::CapacityExceeded { .. }) => {
                sat.capacity_waits += 1;
                let (flushed, _) = ctx
                    .tracer
                    .timed("index.flush_for_capacity", ROOT, 0, |_| index.flush());
                if flushed.is_err() {
                    break;
                }
            }
            other => {
                eprintln!(
                    "add_batch after {} docs: {:?}",
                    *added,
                    other.map(|ids| ids.len())
                );
                break;
            }
        }
    }
    out.failed += 1;
    false
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new();
    let mut d = setup(ctx);
    let own = d.times.stamped(ctx);
    assert_eq!(d.corpus.len() % INGEST_BATCH, 0, "batches tile the corpus");
    let merges_before = d.index.stats().merges;

    // ---- Ingest at saturation, journaled.
    let stop = AtomicBool::new(false);
    let mut sat = Saturation::default();
    let mut rates = ModeRates::default();
    let mut dir_bytes_max = 0u64;
    let written_before = written_bytes();
    let ingest_len = ctx.phase(INGEST_SHARE);
    let phase_start = Instant::now();
    let watch = std::thread::scope(|scope| {
        let watch = ctx
            .trace
            .then(|| scope.spawn(|| watch_engine(&d.index, &stop)));
        let mut batches = 0u32;
        'phase: for (length, traced) in segments(ctx, ingest_len) {
            ctx.tracer.set_enabled(traced);
            let start = Instant::now();
            let before = sat.acked;
            while start.elapsed() < length {
                if !add_next_batch(
                    ctx,
                    &mut out,
                    &d.index,
                    &d.corpus,
                    &mut d.added,
                    phase_start,
                    &mut sat,
                ) {
                    break 'phase;
                }
                batches += 1;
                // The directory's high-water mark, sampled every 25 batches
                // (a directory listing, not a measurement of the program).
                if ctx.trace && batches.is_multiple_of(25) {
                    if let Ok(s) = dir_stats(&d.dir) {
                        dir_bytes_max = dir_bytes_max.max(s.bytes);
                    }
                }
            }
            rates.add(traced, (sat.acked - before) as f64, start.elapsed());
        }
        stop.store(true, Ordering::Relaxed);
        watch.map(|w| w.join().expect("the watch thread panicked"))
    });
    ctx.tracer.set_enabled(ctx.trace);
    let written = written_bytes() - written_before;
    let timed_docs = sat.acked;
    let sliced = sat.timeline.sliced(ingest_len, SLICES);
    let durable_rate = sliced.rate_per_s;
    out.set("ingest_docs_per_s", durable_rate);
    out.note(
        "ingest_is",
        format!(
            "add_batch of {INGEST_BATCH} pre-vectorised docs, journaled, {timed_docs} docs; {}",
            sliced.support(SLICES)
        ),
    );
    out.note(
        "flush_policy",
        "default: WAL fsync per batch, segment per sealed generation, manifest swap per merge",
    );
    out.note("capacity_waits", sat.capacity_waits);
    let (call50, call99) = sat.calls.p50_p99();
    out.note(
        "add_batch_ms",
        format!("p50={call50:.3} p99={call99:.3} n={}", sat.calls.len()),
    );
    out.set("core.engine.insert_stall_p99_ms", call99);
    out.set(
        "core.persist.written_bytes_per_doc",
        written as f64 / timed_docs.max(1) as f64,
    );
    out.set(
        "core.table.merge_count",
        (d.index.stats().merges - merges_before) as f64,
    );
    // Closed loop: the generator runs late by what it spends between calls.
    out.set("bench.generator_late_p99_ms", sat.timeline.gap_p99_ms());
    rates.record(&mut out);
    if let Some(w) = &watch {
        w.record(&mut out);
    }

    // ---- The stream ends at a fixed point of the merge cycle: wait for
    // the merge in flight, fold everything, then add a fifth of a window
    // more (ten batches; fewer than the η·C that would start a merge). What is searched,
    // dropped and recovered below is then the same kind of state on every
    // run — one static epoch, ten sealed generations with their segment
    // files — instead of wherever in the cycle the clock ran out, where
    // the number of un-merged generations (and with it search cost, disk
    // bytes and replay time) swings by 3x.
    d.index
        .flush()
        .and_then(|()| d.index.merge())
        .expect("folding the stream");
    for _ in 0..d.window / TAIL_WINDOW_SHARE / INGEST_BATCH {
        if !add_next_batch(
            ctx,
            &mut out,
            &d.index,
            &d.corpus,
            &mut d.added,
            phase_start,
            &mut Saturation::default(),
        ) {
            break;
        }
    }
    if let Some(backend) = d.index.backend() {
        backend.wait_for_merge();
    }

    // ---- Search on the write-heavy index: one caller, the probe set in
    // batches of 200 exact copies of live documents.
    let live = (d.added - d.window) as u32..d.added as u32;
    let doc_of = |id: u32| &d.corpus.vectors[id as usize % d.corpus.len()];
    let mut rng = SplitMix64::new(ctx.seed ^ 0x5EA2C4);
    let picks: Vec<u32> = sample_positions(&mut rng, 0..d.window, ORACLE_QUERIES.min(d.window))
        .into_iter()
        .map(|p| live.start + p as u32)
        .collect();
    let requests: Vec<SearchRequest> = picks
        .chunks(PROBE_BATCH)
        .map(|ids| SearchRequest::batch(ids.iter().map(|&id| doc_of(id).clone()).collect()))
        .collect();
    let mut timeline = Timeline::default();
    // The first cycle's answers, kept for the oracle.
    let mut first_answers: Vec<Vec<SearchHit>> = Vec::new();
    let start = Instant::now();
    let length = ctx.phase(SEARCH_SHARE);
    for (i, req) in requests.iter().cycle().enumerate() {
        let at = start.elapsed();
        if at >= length {
            break;
        }
        let asked = req.queries().len() as u64;
        let (resp, t) = ctx
            .tracer
            .timed("index.search_batch", ROOT, i as u64 + 1, |_| {
                d.index.search(req)
            });
        out.attempted += asked;
        let correct = match resp {
            Ok(r) => {
                let bad = unsound_queries(&r.results, RADIUS, live.clone());
                if i < requests.len() {
                    first_answers.extend(r.results);
                }
                asked - bad
            }
            Err(_) => 0,
        };
        out.failed += asked - correct;
        timeline.push(at, t, correct as f64);
    }
    record_search(
        &mut out,
        &timeline,
        length,
        SEARCH_SLICES,
        "one 200-query radius batch call",
    );

    // ---- Oracle over the live window.
    let n_oracle = ORACLE_QUERIES.min(first_answers.len());
    let queries: Vec<SparseVector> = picks[..n_oracle]
        .iter()
        .map(|&id| doc_of(id).clone())
        .collect();
    let live_vectors: Vec<SparseVector> = live.clone().map(|id| doc_of(id).clone()).collect();
    let ids: Vec<u32> = live.clone().collect();
    let verdict = check_against_exact(&live_vectors, &ids, &queries, &first_answers[..n_oracle]);
    apply_verdict(&mut out, &verdict);

    if ctx.trace {
        layers::hash_layer(
            ctx,
            &mut out,
            &params(),
            &queries,
            &d.corpus.vectors[..INGEST_BATCH],
        );
        layers::query_layer(ctx, &mut out, &d.index, &queries);
        layers::table_bytes(&mut out, &d.index);
    }

    // ---- Crash: drop without flush or shutdown (no merge is in flight,
    // so the copies below do not race a writer).
    let probes: Vec<SparseVector> = queries[..20.min(queries.len())].to_vec();
    let expected: Vec<Vec<SearchHit>> = probes
        .iter()
        .map(|q| {
            d.index
                .search(&SearchRequest::query(q.clone()))
                .expect("probe search")
                .into_hits()
        })
        .collect();
    let mut survivors: Vec<(u32, SparseVector)> =
        sample_positions(&mut rng, 0..d.window, 1000.min(d.window))
            .into_iter()
            .map(|p| live.start + p as u32)
            .chain([live.end - 1])
            .map(|id| (id, doc_of(id).clone()))
            .collect();
    survivors.dedup_by_key(|s| s.0);
    let user_bytes: u64 = live_vectors.iter().map(|v| 8 * v.nnz() as u64).sum();
    record_memory(&mut out);
    let Durable {
        corpus,
        index,
        dir,
        window,
        ..
    } = d;
    drop(index);
    let disk = dir_stats(&dir).expect("reading the persist directory");
    // This workload's memory number is the restart's: the peak RSS of a
    // fresh process recovering the directory. (The writer's own peak,
    // noted beside it, depends on whether merges happened to fall behind
    // far enough to fill the capacity in that run: 860-1310 MiB on the
    // same code.)
    let own_peak = out.metrics["rss_peak_mb"];
    out.note("writer_rss_peak_mb", format!("{own_peak:.0}"));
    out.set("rss_peak_mb", restarted_rss_mb(ctx, &dir));
    let restarts = measure_restarts(ctx, &mut out, &dir, &probes, &expected, &survivors);
    record_restarts(&mut out, &restarts, &disk, user_bytes);
    out.set(
        "core.persist.dir_bytes_max",
        (dir_bytes_max.max(disk.bytes)) as f64,
    );

    // ---- The memory-only twin: same batches, no journal (traced runs).
    if ctx.trace {
        let twin = windowed_index(window);
        let mut twin_added = 0usize;
        let mut twin_sat = Saturation::default();
        let mut scratch = Outcome::new();
        for chunk in corpus.vectors[..window].chunks(INGEST_BATCH) {
            twin.add_batch(chunk).expect("twin preload batch");
            twin_added += INGEST_BATCH;
        }
        twin.flush().expect("flushing the twin's preload");
        let twin_len = ctx.phase(TWIN_SHARE);
        let twin_start = Instant::now();
        while twin_start.elapsed() < twin_len {
            if !add_next_batch(
                ctx,
                &mut scratch,
                &twin,
                &corpus,
                &mut twin_added,
                twin_start,
                &mut twin_sat,
            ) {
                break;
            }
        }
        let memory_rate = twin_sat.timeline.sliced(twin_len, SLICES).rate_per_s;
        out.set("core.persist.journal_overhead", durable_rate / memory_rate);
        out.set("core.engine.insert_us_per_doc", 1e6 / memory_rate);
        out.note("ingest_docs_per_s_memory_only", format!("{memory_rate:.0}"));
        out.failed += scratch.failed;
        out.attempted += scratch.attempted;
    }

    record_setup(ctx, &mut out, own);
    out
}
