//! `served_point` — the static index of `batch_static` behind
//! `Index::serve_with` on loopback. Every request is one query, top-10,
//! JSON body, over two keep-alive connections: a closed-loop phase for
//! `search_qps` and the gated latencies, then an open-loop ladder of fixed
//! rates (`e2e.open_loop_p50/p99_ms` and the latency ledger from the
//! 2500 rps rung, `e2e.slo_rate_rps` from the whole ladder), then
//! `/ingest` of 500-document bodies on one connection. The query layer is
//! the same as in `batch_static` but used as batch-of-1 and buried under
//! `server` (http / json / wire / queue hand-off).

use crate::client::{
    decode_hits, decode_ids, hits_identical, ingest_request, search_request, Conn, Reply,
};
use crate::fixture::{baseline_restart, StaticFixture};
use crate::harness::{record_memory, threads, Ctx, Outcome, SetupTimes};
use crate::layers;
use crate::load::{run_open_loop, slo_rate, OpenLoopSamples, Rung};
use crate::stats::{percentile_sorted, Latencies, Timeline, P50, P99};
use crate::trace::{SpanId, ROOT};
use crate::workloads::{record_search, record_setup, segments, ModeRates, SLICES};
use plsh::server::{http, json, wire};
use plsh::{Index, SearchRequest, Server, ServerConfig, SparseVector};
use std::time::{Duration, Instant};

const TOP_K: usize = 10;
/// The served-latency limit: p99 from due time.
const SLO_MS: f64 = 5.0;
/// Shifted once from the issue's {1000, 2000, 4000, 8000}: on the
/// reference box the slice-median p99 crosses the limit near 7000 rps and
/// closed-loop capacity is ~9700 rps, so an 8000 rung sat within 15% of
/// the crossing and flapped. 5000 meets the limit with a 2x margin and
/// 10000 is above capacity, so both verdicts are robust.
const LADDER_RPS: [u32; 4] = [1250, 2500, 5000, 10000];
/// The rung the open-loop latencies and the latency ledger are read from.
const REPORT_RPS: u32 = 2500;
/// Every 16th answer is checked bit-for-bit against the in-process answer
/// (and, traced, replayed stage by stage).
const CHECK_EVERY: u64 = 16;
const INGEST_BATCH: usize = 500;
const INGEST_BATCHES: usize = 100;

/// Shares of `--seconds`.
const CLOSED_SHARE: f64 = 0.25;
const RUNG_SHARE: f64 = 0.15;
const INGEST_SHARE: f64 = 0.15;

struct Served {
    fx: StaticFixture,
    queries: Vec<SparseVector>,
    requests: Vec<Vec<u8>>,
    server: Server,
    conns: Vec<Conn>,
}

fn ingest_batches(ctx: &Ctx) -> usize {
    if ctx.scale.quick {
        INGEST_BATCHES / 5
    } else {
        INGEST_BATCHES
    }
}

fn setup(ctx: &Ctx) -> Served {
    let fx = StaticFixture::build(ctx, INGEST_BATCH * ingest_batches(ctx));
    let queries = fx.queries();
    // Encoding a request is the client's work, not the program's: done
    // once, before anything is timed.
    let requests: Vec<Vec<u8>> = queries.iter().map(|q| search_request(q, TOP_K)).collect();
    let config = ServerConfig {
        workers: threads(),
        // The harness pauses between HTTP phases; do not let the server
        // time the connections out meanwhile.
        idle_timeout: Duration::from_secs(120),
        ..ServerConfig::default()
    };
    let server = fx
        .index
        .serve_with("127.0.0.1:0", config)
        .expect("binding a loopback port");
    let mut conns: Vec<Conn> = (0..threads())
        .map(|_| Conn::connect(server.addr()).expect("connecting to the server just started"))
        .collect();
    for (c, conn) in conns.iter_mut().enumerate() {
        for raw in requests.iter().skip(c).step_by(97).take(40) {
            let reply = conn.round_trip(raw).expect("warm-up request");
            assert_eq!(reply.status, 200, "warm-up request: {}", reply.body);
        }
    }
    Served {
        fx,
        queries,
        requests,
        server,
        conns,
    }
}

pub fn setup_only(ctx: &Ctx) -> SetupTimes {
    let s = setup(ctx);
    let t = s.fx.times.stamped(ctx);
    drop(s.conns);
    s.server.shutdown();
    t
}

/// The stages of one request, replayed in process on its exact bytes.
#[derive(Default)]
struct Stages {
    http_parse: Latencies,
    json_parse: Latencies,
    wire_decode: Latencies,
    search: Latencies,
    wire_encode: Latencies,
    http_write: Latencies,
}

impl Stages {
    fn absorb(&mut self, other: &Stages) {
        self.http_parse.extend(&other.http_parse);
        self.json_parse.extend(&other.json_parse);
        self.wire_decode.extend(&other.wire_decode);
        self.search.extend(&other.search);
        self.wire_encode.extend(&other.wire_encode);
        self.http_write.extend(&other.http_write);
    }
}

/// One sender's view of a phase.
#[derive(Default)]
struct Sender {
    /// `(query index, response body)` of the answers picked for checking.
    sampled: Vec<(usize, String)>,
    stages: Stages,
    /// Answers whose replayed in-process encoding differed from the wire.
    replay_mismatches: u64,
    request_bytes: u64,
    response_bytes: u64,
    replies: u64,
    /// Every round trip: offset of its due time in the phase, latency
    /// from due, 1 if it succeeded.
    timeline: Timeline,
}

/// Replays a request's bytes through the server's stages as child spans
/// of the round trip. Returns whether the re-encoded in-process answer is
/// byte-identical to what came over the wire.
fn replay(
    ctx: &Ctx,
    index: &Index,
    raw: &[u8],
    reply: &Reply,
    parent: SpanId,
    id: u64,
    st: &mut Stages,
) -> bool {
    let t = &ctx.tracer;
    let (req, d) = t.timed("server.http_parse", parent, id, |_| {
        http::read_request(&mut std::io::BufReader::new(raw), 1 << 20)
    });
    st.http_parse.push(d);
    let Ok(req) = req else { return false };
    let (body, d) = t.timed("server.json_parse", parent, id, |_| {
        std::str::from_utf8(&req.body)
            .ok()
            .and_then(|s| json::parse(s).ok())
    });
    st.json_parse.push(d);
    let Some(body) = body else { return false };
    let (sreq, d) = t.timed("server.wire_decode", parent, id, |_| {
        wire::parse_search(&body)
    });
    st.wire_decode.push(d);
    let Ok(sreq) = sreq else { return false };
    let (resp, d) = t.timed("core.query.point_search", parent, id, |_| {
        index.search(&sreq)
    });
    st.search.push(d);
    let Ok(resp) = resp else { return false };
    let (encoded, d) = t.timed("server.wire_encode", parent, id, |_| {
        wire::encode_search_response(&resp).to_string()
    });
    st.wire_encode.push(d);
    let same = encoded == reply.body;
    let (written, d) = t.timed("server.http_write", parent, id, |_| {
        let mut sink = Vec::with_capacity(reply.wire_bytes);
        http::Response::json(200, encoded)
            .write_to(&mut sink, true)
            .map(|()| sink.len())
    });
    st.http_write.push(d);
    same && written.is_ok_and(|n| n == reply.wire_bytes)
}

/// One round trip of request `q` on `conn`, timed from `due`. Returns
/// whether it succeeded (status 200 with a body).
#[allow(clippy::too_many_arguments)]
fn round_trip(
    ctx: &Ctx,
    s: &Served,
    conn: &mut Conn,
    sender: &mut Sender,
    q: usize,
    id: u64,
    due: Instant,
    phase_start: Instant,
) -> bool {
    let raw = &s.requests[q];
    let reply = conn.round_trip(raw);
    let done = Instant::now();
    let span = ctx.tracer.record("client.round_trip", ROOT, id, due, done);
    let reply = reply.ok().filter(|r| r.status == 200);
    let at = due.saturating_duration_since(phase_start);
    sender
        .timeline
        .push(at, done - due, if reply.is_some() { 1.0 } else { 0.0 });
    let Some(reply) = reply else { return false };
    sender.replies += 1;
    sender.request_bytes += raw.len() as u64;
    sender.response_bytes += reply.wire_bytes as u64;
    if id.is_multiple_of(CHECK_EVERY) {
        if span != ROOT {
            if !replay(ctx, &s.fx.index, raw, &reply, span, id, &mut sender.stages) {
                sender.replay_mismatches += 1;
            }
        } else {
            sender.sampled.push((q, reply.body));
        }
    }
    true
}

/// Checks the sampled answers of an untraced phase bit-for-bit against
/// in-process `Index::search`; returns how many differ.
fn wire_mismatches(s: &Served, senders: &[Sender]) -> u64 {
    let mut bad = 0;
    for (q, body) in senders.iter().flat_map(|s| &s.sampled) {
        let want =
            s.fx.index
                .search(&SearchRequest::query(s.queries[*q].clone()).top_k(TOP_K))
                .expect("in-process search");
        if !decode_hits(body).is_some_and(|got| hits_identical(&got, want.hits())) {
            bad += 1;
        }
    }
    bad
}

/// What the senders of all phases saw of the wire: answers checked
/// against the in-process answer (sampled or replayed) and how many
/// differed, and the bytes that crossed it.
#[derive(Default)]
struct WireTally {
    checked: u64,
    mismatched: u64,
    request_bytes: u64,
    response_bytes: u64,
    replies: u64,
}

impl WireTally {
    fn add(&mut self, s: &Served, senders: &[Sender]) {
        for snd in senders {
            self.checked += (snd.sampled.len() + snd.stages.search.len()) as u64;
            self.mismatched += snd.replay_mismatches;
            self.request_bytes += snd.request_bytes;
            self.response_bytes += snd.response_bytes;
            self.replies += snd.replies;
        }
        self.mismatched += wire_mismatches(s, senders);
    }
}

/// Which query sender `c` sends as its `i`-th request: the senders walk
/// disjoint residues of the query set.
fn query_of(c: usize, i: u64, total: usize) -> usize {
    (c + threads() * i as usize) % total
}

fn request_id(c: usize, i: u64) -> u64 {
    1 + c as u64 + threads() as u64 * i
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new();
    let mut s = setup(ctx);
    let own = s.fx.times.stamped(ctx);
    let mut conns = std::mem::take(&mut s.conns);
    let nq = s.requests.len();
    let mut wire = WireTally::default();

    // ---- Closed loop: every connection sends its next request as soon
    // as the previous answer arrived.
    let mut rates = ModeRates::default();
    let mut closed = Timeline::default();
    let mut sent_before = 0u64;
    let phase_start = Instant::now();
    for (length, traced) in segments(ctx, ctx.phase(CLOSED_SHARE)) {
        ctx.tracer.set_enabled(traced);
        let start = Instant::now();
        let results: Vec<(Sender, u64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    let s = &s;
                    scope.spawn(move || {
                        let mut sender = Sender::default();
                        let (mut ok, mut sent) = (0u64, 0u64);
                        while start.elapsed() < length {
                            let i = sent_before + sent;
                            let q = query_of(c, i, nq);
                            if round_trip(
                                ctx,
                                s,
                                conn,
                                &mut sender,
                                q,
                                request_id(c, i),
                                Instant::now(),
                                phase_start,
                            ) {
                                ok += 1;
                            }
                            sent += 1;
                        }
                        (sender, ok, sent)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a load thread panicked"))
                .collect()
        });
        let elapsed = start.elapsed();
        let ok: u64 = results.iter().map(|r| r.1).sum();
        let sent: u64 = results.iter().map(|r| r.2).sum();
        sent_before += results.iter().map(|r| r.2).max().unwrap_or(0);
        out.attempted += sent;
        out.failed += sent - ok;
        rates.add(traced, ok as f64, elapsed);
        let senders: Vec<Sender> = results.into_iter().map(|r| r.0).collect();
        for snd in &senders {
            closed.extend(&snd.timeline);
        }
        wire.add(&s, &senders);
    }
    ctx.tracer.set_enabled(ctx.trace);
    record_search(
        &mut out,
        &closed,
        ctx.phase(CLOSED_SHARE),
        SLICES,
        "one top-10 round trip, closed loop over 2 keep-alive connections",
    );
    rates.record(&mut out);

    // ---- Open loop: the rate ladder.
    let rung_len = ctx.phase(RUNG_SHARE);
    let mut rungs = Vec::new();
    let mut report_stages = Stages::default();
    for rate in LADDER_RPS {
        let per_sender = rate as f64 / threads() as f64;
        let start = Instant::now() + Duration::from_millis(20);
        let results: Vec<(Sender, OpenLoopSamples)> = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    let s = &s;
                    // Senders interleave: sender c is offset by c/threads
                    // of an interval.
                    let offset = Duration::from_secs_f64(c as f64 / rate as f64);
                    scope.spawn(move || {
                        let mut sender = Sender::default();
                        let samples =
                            run_open_loop(start + offset, per_sender, rung_len, |i, due| {
                                let i = sent_before + i;
                                round_trip(
                                    ctx,
                                    s,
                                    conn,
                                    &mut sender,
                                    query_of(c, i, nq),
                                    request_id(c, i),
                                    due,
                                    start,
                                )
                            });
                        (sender, samples)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a load thread panicked"))
                .collect()
        });
        sent_before += results
            .iter()
            .map(|r| r.1.latency.len() as u64)
            .max()
            .unwrap_or(0);
        let (senders, samples): (Vec<Sender>, Vec<OpenLoopSamples>) = results.into_iter().unzip();
        let mut timeline = Timeline::default();
        for snd in &senders {
            timeline.extend(&snd.timeline);
        }
        let rung = Rung::from_samples(rate, rung_len, &samples, &timeline);
        out.attempted += rung.samples as u64;
        out.failed += rung.failed;
        if rate == REPORT_RPS {
            out.set("e2e.open_loop_p50_ms", rung.p50_ms);
            out.set("e2e.open_loop_p99_ms", rung.p99_ms);
            out.note(
                "open_loop_samples",
                format!(
                    "{} requests at {REPORT_RPS} rps, timed from due",
                    rung.samples
                ),
            );
            let mut late = Latencies::default();
            for smp in &samples {
                late.extend(&smp.late);
            }
            out.set(
                "bench.generator_late_p99_ms",
                percentile_sorted(&late.sorted(), P99),
            );
            out.set(
                "server.handler_p50_ms",
                s.server.metrics().percentile_ms(50.0),
            );
            out.set(
                "server.handler_p99_ms",
                s.server.metrics().percentile_ms(99.0),
            );
        }
        wire.add(&s, &senders);
        if rate == REPORT_RPS {
            for snd in &senders {
                report_stages.absorb(&snd.stages);
            }
        }
        rungs.push(rung);
    }
    out.set("e2e.slo_rate_rps", slo_rate(&rungs, SLO_MS) as f64);
    let ladder: Vec<String> = rungs
        .iter()
        .map(|r| {
            format!(
                "{}rps:p50={:.3}ms,p99={:.3}ms,whole-rung-p99={:.3}ms,n={},failed={}",
                r.rate_rps, r.p50_ms, r.p99_ms, r.whole_p99_ms, r.samples, r.failed
            )
        })
        .collect();
    out.note("ladder", ladder.join(" "));
    out.note(
        "slo",
        format!("p99 from due <= {SLO_MS} ms, zero failures, no growing backlog"),
    );

    // Wire answers that differ from the in-process answer are failures.
    out.attempted += wire.checked;
    out.failed += wire.mismatched;
    out.note("wire_answers_checked", wire.checked);
    if wire.replies > 0 {
        let per_reply = |bytes: u64| bytes as f64 / wire.replies as f64;
        out.set("server.request_bytes", per_reply(wire.request_bytes));
        out.set("server.response_bytes", per_reply(wire.response_bytes));
    }

    // ---- The latency ledger of the reporting rung (traced runs). The
    // query layers are measured here, while the index is still static.
    if ctx.trace {
        layers::hash_layer(
            ctx,
            &mut out,
            &crate::harness::params(),
            &s.queries[..1000],
            &s.fx.corpus.vectors[..1000],
        );
        layers::query_layer(ctx, &mut out, &s.fx.index, &s.queries[..1000]);
        layers::table_bytes(&mut out, &s.fx.index);
    }
    if ctx.trace && !report_stages.search.is_empty() {
        let client_us = out.metrics["e2e.open_loop_p50_ms"] * 1e3;
        let p50_us = |l: &Latencies| percentile_sorted(&l.sorted(), P50) * 1e3;
        let stages = [
            ("server.http_parse_us", p50_us(&report_stages.http_parse)),
            ("server.json_parse_us", p50_us(&report_stages.json_parse)),
            ("server.wire_decode_us", p50_us(&report_stages.wire_decode)),
            ("server.wire_encode_us", p50_us(&report_stages.wire_encode)),
            ("server.http_write_us", p50_us(&report_stages.http_write)),
        ];
        let search_us = p50_us(&report_stages.search);
        let mut attributed = search_us;
        for (name, v) in stages {
            out.set(name, v);
            attributed += v;
        }
        // By construction: stages + in-process search + residual = the
        // client-observed p50.
        out.set("server.residual_us", client_us - attributed);
        out.set("server.attributed_share", attributed / client_us);
        out.set(
            "server.queue_wait_us",
            client_us - out.metrics["server.handler_p50_ms"] * 1e3,
        );
        out.note("replayed_requests", report_stages.search.len());
        // On this workload the point search that counts is the replayed
        // one: the same requests, between the same round trips.
        out.set("core.query.point_search_us", search_us);
    }
    out.set("server.shed_total", s.server.metrics().shed_total() as f64);
    out.set(
        "server.responses_5xx",
        s.server.metrics().responses_5xx() as f64,
    );

    // ---- Served ingest: 500-document bodies on one connection.
    let docs = ctx.scale.static_docs;
    let bodies: Vec<Vec<u8>> = s.fx.corpus.vectors[docs..]
        .chunks(INGEST_BATCH)
        .map(ingest_request)
        .collect();
    let conn = &mut conns[0];
    let start = Instant::now();
    let limit = ctx.phase(INGEST_SHARE);
    let mut acked = 0usize;
    let mut batch_rates = Vec::new();
    for body in &bodies {
        if start.elapsed() >= limit {
            break;
        }
        out.attempted += 1;
        let (reply, took) = ctx.tracer.timed("client.ingest_round_trip", ROOT, 0, |_| {
            conn.round_trip(body)
        });
        batch_rates.push(INGEST_BATCH as f64 / took.as_secs_f64());
        let ids = reply
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| decode_ids(&r.body));
        let want = (docs + acked) as u32..(docs + acked + INGEST_BATCH) as u32;
        if ids.is_some_and(|ids| ids.iter().copied().eq(want)) {
            acked += INGEST_BATCH;
        } else {
            out.failed += 1;
        }
    }
    // One connection, one request in flight: the median request's rate is
    // the stream's rate without the odd request that waited on a merge.
    out.set("ingest_docs_per_s", crate::stats::median(&batch_rates));
    out.note(
        "ingest_is",
        format!("POST /ingest, {INGEST_BATCH}-doc JSON bodies, one connection, {acked} docs; median of {} requests", batch_rates.len()),
    );
    if ctx.trace {
        let raw = &bodies[0];
        let text = std::str::from_utf8(raw).expect("the harness encodes ASCII");
        let body = text.split_once("\r\n\r\n").expect("a header block").1;
        let (vs, d) = ctx.tracer.timed("server.ingest_decode", ROOT, 0, |_| {
            json::parse(body)
                .ok()
                .and_then(|j| wire::parse_ingest(&j).ok())
        });
        assert_eq!(
            vs.map(|v| v.len()),
            Some(INGEST_BATCH),
            "the ingest body decodes"
        );
        out.set(
            "server.ingest_decode_us_per_doc",
            d.as_secs_f64() * 1e6 / INGEST_BATCH as f64,
        );
    }

    // ---- Stop serving; the index stays usable in process.
    drop(conns);
    let Served {
        fx,
        queries,
        server,
        ..
    } = s;
    server.shutdown();

    record_setup(ctx, &mut out, own);

    // ---- Restart: documents acked over the wire must survive it.
    let live = docs + acked;
    let mut survivors = fx.survivors(ctx.seed, live);
    if acked > 0 {
        survivors.push(((live - 1) as u32, fx.corpus.vectors[live - 1].clone()));
    }
    let user_bytes = fx.corpus.user_bytes(0..live);
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
