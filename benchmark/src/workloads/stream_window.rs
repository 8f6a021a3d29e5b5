//! `stream_window` — the paper's headline scenario: insert ‖ query ‖
//! merge under bounded memory. Text documents go through
//! `Index::add_texts` into a single-backend index with a sliding window of
//! 30 000 documents (capacity 90 000), open loop at 6000 docs/s in batches
//! of 500 on one thread, while a second thread asks closed-loop batches of
//! 100 near-duplicates of documents from the current window through the
//! text path (`Index::vectorize` + `Index::search`). Every ingest batch
//! ends with a freshness probe. A quiesced tail gives the
//! during-over-quiesced ratio and the recall check.

use crate::fixture::{apply_verdict, baseline_restart, check_against_exact, ORACLE_QUERIES};
use crate::gen::{words_to_text, Corpus, NearDuplicates, SplitMix64, TrainedIdf};
use crate::harness::{
    params_for, record_memory, threads, unsound_queries, Ctx, Outcome, SetupTimes, RADIUS,
};
use crate::layers;
use crate::load::run_open_loop;
use crate::stats::{percentile_sorted, Latencies, Timeline, P99};
use crate::trace::ROOT;
use crate::workloads::{record_search, record_setup, segments, ModeRates, SLICES};
use plsh::text::{CorpusBuilder, Tokenizer};
use plsh::{Index, SearchHit, SearchRequest, SparseVector, WindowSpec};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const INGEST_DOCS_PER_S: f64 = 6000.0;
const INGEST_BATCH: usize = 500;
const QUERY_BATCH: usize = 100;
/// Shares of `--seconds`: the stream, then the quiesced tail.
const STREAM_SHARE: f64 = 0.8;
const TAIL_SHARE: f64 = 0.2;

struct Stream {
    corpus: Corpus,
    /// Every document as text, built before anything is timed.
    texts: Vec<String>,
    idf: TrainedIdf,
    index: Index,
    window: usize,
    /// `(id, corpus position)` of every preloaded document the program kept.
    kept: Vec<(u32, u32)>,
    times: SetupTimes,
}

fn stream_batches(ctx: &Ctx) -> usize {
    let docs = INGEST_DOCS_PER_S * ctx.seconds * STREAM_SHARE;
    (docs / INGEST_BATCH as f64).ceil() as usize
}

/// Checks one `add_texts` answer against the harness's expectation
/// (dropped ⇔ fully out of vocabulary; ids consecutive from `next_id`)
/// and appends the kept documents. Returns whether it held.
fn account_ids(
    slots: &[Option<u32>],
    first_pos: usize,
    corpus: &Corpus,
    idf: &TrainedIdf,
    next_id: &mut u32,
    kept: &mut Vec<(u32, u32)>,
) -> bool {
    let mut ok = true;
    for (j, slot) in slots.iter().enumerate() {
        let pos = first_pos + j;
        let in_vocab = corpus.words[pos].iter().any(|&w| idf.in_vocabulary(w));
        match slot {
            Some(id) if in_vocab && *id == *next_id => {
                kept.push((*id, pos as u32));
                *next_id += 1;
            }
            None if !in_vocab => {}
            _ => ok = false,
        }
    }
    ok
}

fn setup(ctx: &Ctx) -> Stream {
    let window = ctx.scale.stream_window;
    let total = window + stream_batches(ctx) * INGEST_BATCH;
    let (corpus, gen_t) = ctx.tracer.timed("bench.corpus_gen", ROOT, 0, |_| {
        Corpus::generate(ctx.seed, total)
    });
    let texts: Vec<String> = (0..total).map(|i| corpus.text(i)).collect();
    // The text pipeline is trained on the first window of the stream.
    let (vectorizer, _) = ctx.tracer.timed("text.train", ROOT, 0, |_| {
        let mut b = CorpusBuilder::new(Tokenizer::default());
        for t in &texts[..window] {
            b.add_document(t);
        }
        b.finish()
    });
    let idf = TrainedIdf::from_prefix(&corpus, window);
    let index = Index::builder(params_for(vectorizer.dim()))
        .capacity(3 * window)
        .threads(threads())
        .with_window(WindowSpec::Docs(window as u32))
        .vectorizer(vectorizer)
        .build()
        .expect("fixture index configuration is valid");
    // Preload one window so the stream starts at steady state.
    let mut kept = Vec::with_capacity(total);
    let mut next_id = 0u32;
    let ((), insert_t) = ctx.tracer.timed("core.engine.bulk_insert", ROOT, 0, |_| {
        for (b, chunk) in texts[..window].chunks(INGEST_BATCH).enumerate() {
            let slots = index
                .add_texts(chunk.iter().map(String::as_str))
                .expect("preload batch");
            let held = account_ids(
                &slots,
                b * INGEST_BATCH,
                &corpus,
                &idf,
                &mut next_id,
                &mut kept,
            );
            assert!(
                held,
                "preload: add_texts ids differ from the harness's expectation"
            );
        }
    });
    let (res, build_t) = ctx.tracer.timed("core.table.bulk_build", ROOT, 0, |_| {
        index.flush().and_then(|()| index.merge())
    });
    res.expect("merging the preload");
    Stream {
        corpus,
        texts,
        idf,
        index,
        window,
        kept,
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
    let s = setup(ctx);
    s.times.stamped(ctx)
}

/// What the ingest thread brings back.
struct Ingested {
    samples: crate::load::OpenLoopSamples,
    add_calls: Latencies,
    kept: Vec<(u32, u32)>,
    docs_acked: usize,
    last_ack: Instant,
}

/// One closed-loop query batch, as the query thread saw it.
struct QuerySample {
    at: Instant,
    latency: Duration,
    correct: u64,
}

/// 100 near-duplicates of documents in the window that ends at corpus
/// position `end`, as text, and how many of them have a vector at all
/// (at least one in-vocabulary word) — the answers the program owes.
fn query_texts(
    s: &Stream,
    nd: &NearDuplicates,
    rng: &mut SplitMix64,
    end: usize,
) -> (Vec<String>, u64) {
    let mut asked = 0;
    let texts = (0..QUERY_BATCH)
        .map(|j| {
            let src = end - 1 - rng.below(s.window);
            let words = nd.of(&s.corpus.words[src], rng);
            asked += u64::from(words.iter().any(|&w| s.idf.in_vocabulary(w)));
            words_to_text(&words, j)
        })
        .collect();
    (texts, asked)
}

/// The text query path: vectorize each text, then one batch search. A
/// fully out-of-vocabulary query has no vector and is skipped, as
/// `search_text` would refuse it.
fn search_texts(
    ctx: &Ctx,
    index: &Index,
    texts: &[String],
    id: u64,
) -> (Option<Vec<Vec<SearchHit>>>, Duration) {
    ctx.tracer
        .timed("index.search_text_batch", ROOT, id, |span| {
            let (vectors, _) = ctx.tracer.timed("text.vectorize_queries", span, id, |_| {
                texts
                    .iter()
                    .filter_map(|t| index.vectorize(t).ok())
                    .collect::<Vec<SparseVector>>()
            });
            if vectors.is_empty() {
                return Some(Vec::new());
            }
            let (resp, _) = ctx.tracer.timed("index.search_batch", span, id, |_| {
                index.search(&SearchRequest::batch(vectors))
            });
            resp.ok().map(|r| r.results)
        })
}

fn ingest_thread(
    ctx: &Ctx,
    s: &Stream,
    start: Instant,
    acked_pos: &AtomicUsize,
    acked_ids: &AtomicU32,
) -> Ingested {
    let batches = stream_batches(ctx);
    let mut next_id = s.kept.len() as u32;
    let mut kept = Vec::with_capacity(batches * INGEST_BATCH);
    let mut add_calls = Latencies::default();
    let mut docs_acked = 0;
    let mut last_ack = start;
    let rate = INGEST_DOCS_PER_S / INGEST_BATCH as f64;
    let samples = run_open_loop(start, rate, ctx.phase(STREAM_SHARE), |b, _due| {
        let b = b as usize;
        if b >= batches {
            return true; // a rounding extra at the very end of the schedule
        }
        let first = s.window + b * INGEST_BATCH;
        let chunk = &s.texts[first..first + INGEST_BATCH];
        let id = b as u64 + 1;
        let (slots, d) = ctx.tracer.timed("index.add_texts", ROOT, id, |_| {
            s.index.add_texts(chunk.iter().map(String::as_str))
        });
        add_calls.push(d);
        let Ok(slots) = slots else { return false };
        let held = account_ids(&slots, first, &s.corpus, &s.idf, &mut next_id, &mut kept);
        // Release/Acquire: the query thread reads these to bound the ids
        // an answer may contain; they publish nothing else.
        acked_pos.store(first + INGEST_BATCH, Ordering::Release);
        acked_ids.store(next_id, Ordering::Release);
        docs_acked += INGEST_BATCH;
        last_ack = Instant::now();
        // Freshness: the batch's last kept document must be found by an
        // exact-duplicate search, through the text path.
        let probe = match kept.last() {
            Some(&(doc_id, pos)) if pos as usize >= first => {
                let (found, _) = ctx.tracer.timed("index.freshness_probe", ROOT, id, |_| {
                    s.index
                        .vectorize(&s.texts[pos as usize])
                        .is_ok_and(|v| crate::harness::finds_exact_duplicate(&s.index, &v, doc_id))
                });
                found
            }
            _ => true,
        };
        held && probe
    });
    Ingested {
        samples,
        add_calls,
        kept,
        docs_acked,
        last_ack,
    }
}

fn query_thread(
    ctx: &Ctx,
    s: &Stream,
    stop: &AtomicBool,
    acked_pos: &AtomicUsize,
    acked_ids: &AtomicU32,
) -> (Vec<QuerySample>, u64, u64) {
    let nd = NearDuplicates::new();
    let mut rng = SplitMix64::new(ctx.seed ^ 0x9E_A2_D0);
    let mut samples = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut id = 1_000_000u64;
    // Relaxed: a flag that publishes nothing.
    while !stop.load(Ordering::Relaxed) {
        id += 1;
        let end = acked_pos.load(Ordering::Acquire);
        let ids_before = acked_ids.load(Ordering::Acquire);
        let (texts, asked) = query_texts(s, &nd, &mut rng, end);
        let at = Instant::now();
        let (results, latency) = search_texts(ctx, &s.index, &texts, id);
        // A batch being inserted is visible before it is acknowledged.
        let ids_after = acked_ids.load(Ordering::Acquire) + INGEST_BATCH as u32;
        attempted += asked;
        let correct = match results {
            Some(r) if r.len() as u64 == asked => {
                let live = ids_before.saturating_sub(s.window as u32)..ids_after;
                asked - unsound_queries(&r, RADIUS, live)
            }
            _ => 0,
        };
        failed += asked - correct;
        samples.push(QuerySample {
            at,
            latency,
            correct,
        });
    }
    (samples, attempted, failed)
}

/// Correct queries of the batches that started in `[from, to)`.
fn correct_in(samples: &[QuerySample], from: Instant, to: Instant) -> f64 {
    samples
        .iter()
        .filter(|q| q.at >= from && q.at < to)
        .map(|q| q.correct as f64)
        .sum()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new();
    let s = setup(ctx);
    let own = s.times.stamped(ctx);
    let stream_len = ctx.phase(STREAM_SHARE);
    let merges_before = s.index.stats().merges;

    let acked_pos = AtomicUsize::new(s.window);
    let acked_ids = AtomicU32::new(s.kept.len() as u32);
    let stop = AtomicBool::new(false);
    let slices = segments(ctx, stream_len);
    ctx.tracer.set_enabled(false);
    let start = Instant::now() + Duration::from_millis(10);
    let (ingested, (samples, q_attempted, q_failed), watch, stream_end, tail) =
        std::thread::scope(|scope| {
            let ingest = scope.spawn(|| ingest_thread(ctx, &s, start, &acked_pos, &acked_ids));
            let query = scope.spawn(|| query_thread(ctx, &s, &stop, &acked_pos, &acked_ids));
            let watch = ctx
                .trace
                .then(|| scope.spawn(|| crate::workloads::watch_engine(&s.index, &stop)));
            // Traced runs alternate tracer-off / tracer-on slices over the
            // stream (bench.trace_overhead).
            let mut slice_end = start;
            for &(slice, traced) in &slices {
                ctx.tracer.set_enabled(traced);
                slice_end += slice;
                std::thread::sleep(slice_end.saturating_duration_since(Instant::now()));
            }
            let ingested = ingest.join().expect("the ingest thread panicked");
            let stream_end = Instant::now();
            // Quiesced tail: no ingest, no merge in flight, queries go on.
            s.index.flush().expect("flushing the stream");
            let tail_start = Instant::now();
            std::thread::sleep(ctx.phase(TAIL_SHARE));
            let tail_end = Instant::now();
            stop.store(true, Ordering::Relaxed);
            let queried = query.join().expect("the query thread panicked");
            let watch = watch.map(|w| w.join().expect("the watch thread panicked"));
            (ingested, queried, watch, stream_end, (tail_start, tail_end))
        });
    ctx.tracer.set_enabled(ctx.trace);

    // ---- Search, while ingest and merges run.
    let during_qps = correct_in(&samples, start, stream_end) / (stream_end - start).as_secs_f64();
    let mut timeline = Timeline::default();
    for q in samples
        .iter()
        .filter(|q| q.at >= start && q.at < start + stream_len)
    {
        timeline.push(q.at - start, q.latency, q.correct as f64);
    }
    record_search(
        &mut out,
        &timeline,
        stream_len,
        SLICES,
        "vectorize 100 texts + one batch search, during the stream",
    );
    let quiesced_qps = correct_in(&samples, tail.0, tail.1) / (tail.1 - tail.0).as_secs_f64();
    out.set(
        "core.engine.during_over_quiesced",
        during_qps / quiesced_qps,
    );
    out.note("search_qps_quiesced", format!("{quiesced_qps:.1}"));
    let mut rates = ModeRates::default();
    let mut from = start;
    for &(slice, traced) in &slices {
        rates.add(traced, correct_in(&samples, from, from + slice), slice);
        from += slice;
    }
    rates.record(&mut out);
    out.attempted += q_attempted;
    out.failed += q_failed;

    // ---- Ingest and freshness.
    let batches = ingested.samples.latency.len() as u64;
    out.attempted += batches;
    out.failed += ingested.samples.failed;
    out.set(
        "ingest_docs_per_s",
        ingested.docs_acked as f64 / (ingested.last_ack - start).as_secs_f64(),
    );
    out.note(
        "ingest_is",
        format!(
            "add_texts, open loop {INGEST_DOCS_PER_S} docs/s in batches of {INGEST_BATCH}, {} docs",
            ingested.docs_acked
        ),
    );
    let (vis50, vis99) = ingested.samples.latency.p50_p99();
    out.set("e2e.ingest_visible_p50_ms", vis50);
    out.set("e2e.ingest_visible_p99_ms", vis99);
    out.note("ingest_visible_samples", batches);
    out.set(
        "core.engine.insert_stall_p99_ms",
        percentile_sorted(&ingested.add_calls.sorted(), P99),
    );
    out.set(
        "bench.generator_late_p99_ms",
        percentile_sorted(&ingested.samples.late.sorted(), P99),
    );
    out.set(
        "core.table.merge_count",
        (s.index.stats().merges - merges_before) as f64,
    );
    if let Some(w) = &watch {
        w.record(&mut out);
    }
    let streamed = s.window..s.window + ingested.docs_acked;
    let (mut words, mut oov) = (0u64, 0u64);
    for doc in &s.corpus.words[streamed] {
        words += doc.len() as u64;
        oov += doc.iter().filter(|&&w| !s.idf.in_vocabulary(w)).count() as u64;
    }
    out.set("text.oov_drop_rate", oov as f64 / words.max(1) as f64);

    // ---- Oracle: the live window, as the harness itself models it.
    let mut kept = s.kept.clone();
    kept.extend_from_slice(&ingested.kept);
    let live_kept = &kept[kept.len() - s.window..];
    let ids: Vec<u32> = live_kept.iter().map(|&(id, _)| id).collect();
    let live: Vec<SparseVector> = live_kept
        .iter()
        .map(|&(_, pos)| {
            s.idf
                .vector(&s.corpus.words[pos as usize])
                .expect("kept documents have a vector")
        })
        .collect();
    // Recall is asked the paper's way — the queries are documents of the
    // live window — and through the text door itself.
    let mut rng = SplitMix64::new(ctx.seed ^ 0x0_5AC1E);
    let picks = crate::gen::sample_positions(
        &mut rng,
        0..live_kept.len(),
        ORACLE_QUERIES.min(live_kept.len()),
    );
    let queries: Vec<SparseVector> = picks.iter().map(|&i| live[i].clone()).collect();
    let answers: Vec<Vec<SearchHit>> = picks
        .iter()
        .map(
            |&i| match s.index.search_text(&s.texts[live_kept[i].1 as usize]) {
                Ok(resp) => resp.into_hits(),
                Err(_) => {
                    out.failed += 1;
                    Vec::new()
                }
            },
        )
        .collect();
    let verdict = check_against_exact(&live, &ids, &queries, &answers);
    apply_verdict(&mut out, &verdict);

    // ---- Per-layer measurements on the quiesced index (traced runs).
    // The program's own vectors of kept documents (its term ids are not
    // the generator's).
    let in_program_space = |kept: &[(u32, u32)]| -> Vec<(u32, SparseVector)> {
        kept.iter()
            .map(|&(id, pos)| {
                let v = s.index.vectorize(&s.texts[pos as usize]);
                (id, v.expect("kept documents vectorize"))
            })
            .collect()
    };
    let newest = |n: usize| &live_kept[live_kept.len() - n.min(live_kept.len())..];
    if ctx.trace {
        let batch = &s.texts[s.window..s.window + INGEST_BATCH];
        let (n, d) = ctx.tracer.timed("text.vectorize", ROOT, 0, |_| {
            batch
                .iter()
                .filter(|t| s.index.vectorize(t).is_ok())
                .count()
        });
        std::hint::black_box(n);
        out.set(
            "text.vectorize_us_per_doc",
            d.as_secs_f64() * 1e6 / INGEST_BATCH as f64,
        );
        let sample: Vec<SparseVector> = in_program_space(newest(1000))
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        layers::hash_layer(
            ctx,
            &mut out,
            s.index.params(),
            &sample,
            &sample[..INGEST_BATCH.min(sample.len())],
        );
        layers::query_layer(ctx, &mut out, &s.index, &sample);
        layers::table_bytes(&mut out, &s.index);
    }
    record_setup(ctx, &mut out, own);

    // ---- Restart from a persistence baseline of the windowed index.
    let probes: Vec<SparseVector> = in_program_space(newest(20))
        .into_iter()
        .map(|(_, v)| v)
        .collect();
    let picks: Vec<(u32, u32)> =
        crate::gen::sample_positions(&mut rng, 0..live_kept.len(), 200.min(live_kept.len()))
            .into_iter()
            .map(|i| live_kept[i])
            .collect();
    let survivors = in_program_space(&picks);
    let user_bytes: u64 = live.iter().map(|v| 8 * v.nnz() as u64).sum();
    let Stream { index, .. } = s;
    record_memory(&mut out);
    baseline_restart(ctx, &mut out, index, &probes, &survivors, user_bytes);

    out
}
