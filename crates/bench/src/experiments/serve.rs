//! Served-traffic experiment: the HTTP wire surface under concurrent
//! client load, recorded to `BENCH_server.json`.
//!
//! The in-process engine benchmarks measure what the algorithm can do;
//! this one measures what a *service* built on it delivers. A
//! `StreamingEngine` pre-loaded to 50% static sits behind `plsh_server`
//! on a real ephemeral-port listener, and N client threads speak raw
//! HTTP/1.1 at it over loopback sockets with keep-alive:
//!
//! * **during-ingest phase** — search clients hammer `POST /search`
//!   while a separate client streams the other 50% of the corpus in via
//!   paced `POST /ingest` batches (so the wire carries the write path
//!   too, and background merges fire mid-measurement),
//! * **quiesced phase** — the same search load after ingest drains and
//!   the final merge folds the delta.
//!
//! Client-side per-request latency gives p50/p99 (the server's own
//! histogram can't see connect/queue/socket time); shed (429/503) and
//! error responses are counted separately — at any scale the expected
//! error rate is zero, and shedding only appears if the host is too
//! slow for the configured load. A final `answers_match` pass replays
//! queries through a fresh connection and requires the wire hit lists
//! to be *bit-identical* (node, index, f32 distance) to in-process
//! `SearchBackend::search` answers on the same engine.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use plsh_core::engine::EngineConfig;
use plsh_core::search::SearchRequest;
use plsh_core::sparse::SparseVector;
use plsh_core::streaming::StreamingEngine;
use plsh_server::{serve, Json, Server, ServerConfig};

use crate::setup::{percentile_ms, Fixture, Scale};

/// Search client threads (the ingest stream adds one more connection).
const CLIENTS: usize = 4;

/// Hits requested per wire search.
const TOP_K: usize = 10;

/// Queries replayed for the exactness check.
const MATCH_QUERIES: usize = 32;

/// Wall-time target for draining the ingest half over HTTP, per scale
/// (same pacing philosophy as the `streaming` experiment: an arrival
/// process, not a bulk load).
fn ingest_target_secs(scale: Scale) -> f64 {
    match scale {
        Scale::Quick => 4.0,
        Scale::Full => 20.0,
    }
}

/// Per-client request budget for the quiesced phase.
fn quiesced_requests_per_client(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 200,
        Scale::Full => 1_000,
    }
}

/// What one client thread observed.
#[derive(Default)]
struct ClientTally {
    ok: u64,
    shed: u64,
    errors: u64,
    latencies: Vec<Duration>,
}

/// One keep-alive HTTP/1.1 connection that transparently reconnects
/// when the server closes it (shed responses always close).
struct Conn {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
}

impl Conn {
    fn new(addr: SocketAddr) -> Conn {
        Conn { addr, stream: None }
    }

    /// One round-trip; returns the status code. Drops the connection on
    /// any transport error so the next call starts clean.
    fn request(&mut self, raw: &[u8]) -> std::io::Result<(u16, String)> {
        let result = self.try_request(raw);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn try_request(&mut self, raw: &[u8]) -> std::io::Result<(u16, String)> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_read_timeout(Some(Duration::from_secs(30)))?;
            s.set_nodelay(true)?;
            self.stream = Some(BufReader::new(s));
        }
        let reader = self.stream.as_mut().expect("just connected");
        reader.get_ref().write_all(raw)?;

        let mut status_line = String::new();
        if reader.read_line(&mut status_line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed before responding",
            ));
        }
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
            })?;
        let mut content_length = 0usize;
        let mut close = false;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line)?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line.strip_prefix("Content-Length: ") {
                content_length = v.trim().parse().unwrap_or(0);
            }
            if line.eq_ignore_ascii_case("connection: close") {
                close = true;
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;
        if close {
            self.stream = None;
        }
        Ok((status, String::from_utf8_lossy(&body).into_owned()))
    }
}

/// A vector as wire JSON pairs: `[[dim,weight],...]`.
fn vector_json(v: &SparseVector) -> String {
    let pairs: Vec<String> = v
        .indices()
        .iter()
        .zip(v.values())
        .map(|(d, w)| format!("[{d},{w}]"))
        .collect();
    format!("[{}]", pairs.join(","))
}

fn post_bytes(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn search_bytes(q: &SparseVector) -> Vec<u8> {
    post_bytes(
        "/search",
        &format!("{{\"queries\": [{}], \"top_k\": {TOP_K}}}", vector_json(q)),
    )
}

/// Classifies one response into the tally. 429/503 are load shedding by
/// contract (Retry-After); anything else non-2xx is an error.
fn tally(t: &mut ClientTally, status: u16, latency: Duration) {
    t.latencies.push(latency);
    match status {
        200 => t.ok += 1,
        429 | 503 => t.shed += 1,
        _ => t.errors += 1,
    }
}

/// The measured report.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Points pre-loaded (and merged) before the server starts.
    pub preload_points: usize,
    /// Points streamed in over `POST /ingest` during the load phase.
    pub ingest_points: usize,
    /// Vectors per ingest request.
    pub ingest_batch: usize,
    /// Search client threads.
    pub clients: usize,
    /// Completed search requests while ingest was live.
    pub requests_during_ingest: u64,
    /// Search throughput (requests/s) while ingesting.
    pub qps_during_ingest: f64,
    /// Search throughput (requests/s) quiesced.
    pub qps_quiesced: f64,
    /// Client-observed p50 request latency during ingest, ms.
    pub p50_ms_during_ingest: f64,
    /// Client-observed p99 request latency during ingest, ms.
    pub p99_ms_during_ingest: f64,
    /// Client-observed p50 request latency quiesced, ms.
    pub p50_ms_quiesced: f64,
    /// Client-observed p99 request latency quiesced, ms.
    pub p99_ms_quiesced: f64,
    /// Fraction of search requests answered 429/503 (load shedding).
    pub shed_rate: f64,
    /// Fraction of search requests that failed (non-2xx, non-shed).
    pub error_rate: f64,
    /// Sheds the server itself counted (accept-queue + stale-queue).
    pub server_shed_total: u64,
    /// Wire hit lists bit-identical to in-process search answers.
    pub answers_match: bool,
    /// Background merges observed during the served-ingest phase.
    pub merges_during_ingest: u64,
    /// Worker threads in the engine pool.
    pub threads: usize,
    /// Hardware threads on the host that produced the report.
    pub host_threads: usize,
    /// Pool workers that successfully pinned to a core.
    pub pinned_workers: usize,
    /// Scale preset name.
    pub scale: &'static str,
}

/// Runs the served-traffic measurement.
pub fn run(f: &Fixture) -> ServeReport {
    let capacity = f.corpus.len();
    let preload = capacity / 2;
    let ingest_batch = (capacity / 100).max(250);

    let engine = StreamingEngine::new(
        EngineConfig::new(f.params.clone(), capacity).with_eta(0.1),
        f.pool.clone(),
    )
    .expect("valid config");
    engine
        .insert_batch(&f.corpus.vectors()[..preload])
        .expect("preload fits");
    engine.wait_for_merge();
    engine.merge_now();
    let merges_before = engine.stats().merges;

    // Handler threads are connection-per-worker for a keep-alive session:
    // provision for every persistent connection this experiment opens
    // (search clients + the ingest stream) or one of them starves.
    let server: Server = serve(
        Arc::new(engine.clone()),
        "127.0.0.1:0",
        ServerConfig {
            workers: CLIENTS + 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback server");
    let addr = server.addr();

    // Pre-encode every search request once; clients just replay bytes.
    let search_reqs: Arc<Vec<Vec<u8>>> =
        Arc::new(f.query_vecs().iter().map(search_bytes).collect());

    // ---- Phase 1: search clients vs a live HTTP ingest stream ----
    let ingesting = Arc::new(AtomicBool::new(true));
    let ingest_stream = {
        let rows = f.corpus.vectors()[preload..].to_vec();
        let target = ingest_target_secs(f.scale);
        let flag = Arc::clone(&ingesting);
        std::thread::spawn(move || {
            let chunks: Vec<&[SparseVector]> = rows.chunks(ingest_batch).collect();
            let per_chunk = Duration::from_secs_f64(target / chunks.len() as f64);
            let mut conn = Conn::new(addr);
            let start = Instant::now();
            let mut sent = 0usize;
            for (i, chunk) in chunks.iter().enumerate() {
                let vecs: Vec<String> = chunk.iter().map(vector_json).collect();
                let body = format!("{{\"vectors\": [{}]}}", vecs.join(","));
                match conn.request(&post_bytes("/ingest", &body)) {
                    Ok((200, _)) => sent += chunk.len(),
                    Ok((status, body)) => panic!("ingest got {status}: {body}"),
                    Err(e) => panic!("ingest transport error: {e}"),
                }
                // Pace to the schedule: an arrival process, not a flood.
                let due = per_chunk * (i as u32 + 1);
                if let Some(wait) = due.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
            }
            flag.store(false, Ordering::SeqCst);
            sent
        })
    };

    let run_clients =
        |stop: Option<Arc<AtomicBool>>, budget: usize| -> (Vec<ClientTally>, Duration) {
            let t0 = Instant::now();
            let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..CLIENTS)
                    .map(|c| {
                        let reqs = Arc::clone(&search_reqs);
                        let stop = stop.clone();
                        scope.spawn(move || {
                            let mut conn = Conn::new(addr);
                            let mut t = ClientTally::default();
                            let mut qi = c;
                            let keep_going = |done: usize| match &stop {
                                Some(flag) => flag.load(Ordering::SeqCst),
                                None => done < budget,
                            };
                            let mut done = 0usize;
                            while keep_going(done) {
                                let raw = &reqs[qi % reqs.len()];
                                qi += CLIENTS;
                                done += 1;
                                let t0 = Instant::now();
                                match conn.request(raw) {
                                    Ok((status, _)) => tally(&mut t, status, t0.elapsed()),
                                    Err(_) => t.errors += 1,
                                }
                            }
                            t
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .collect()
            });
            (tallies, t0.elapsed())
        };

    let (during_tallies, during_elapsed) = run_clients(Some(Arc::clone(&ingesting)), 0);
    let ingested = ingest_stream.join().expect("ingest thread");
    engine.wait_for_merge();
    let merges_during = engine.stats().merges - merges_before;
    engine.merge_now(); // quiesce: fold the sealed tail

    // ---- Phase 2: the same load against the quiesced engine ----
    let (quiesced_tallies, quiesced_elapsed) =
        run_clients(None, quiesced_requests_per_client(f.scale));

    // ---- Exactness: wire answers vs in-process answers ----
    let answers_match = check_answers(&engine, addr, f);

    let fold = |tallies: &[ClientTally]| -> (u64, u64, u64, Vec<Duration>) {
        let mut ok = 0;
        let mut shed = 0;
        let mut errors = 0;
        let mut lat = Vec::new();
        for t in tallies {
            ok += t.ok;
            shed += t.shed;
            errors += t.errors;
            lat.extend_from_slice(&t.latencies);
        }
        (ok, shed, errors, lat)
    };
    let (d_ok, d_shed, d_err, mut d_lat) = fold(&during_tallies);
    let (q_ok, q_shed, q_err, mut q_lat) = fold(&quiesced_tallies);
    let total = (d_ok + d_shed + d_err + q_ok + q_shed + q_err).max(1);
    let during_total = d_ok + d_shed + d_err;
    let quiesced_total = q_ok + q_shed + q_err;

    let report = ServeReport {
        preload_points: preload,
        ingest_points: ingested,
        ingest_batch,
        clients: CLIENTS,
        requests_during_ingest: during_total,
        qps_during_ingest: during_total as f64 / during_elapsed.as_secs_f64().max(1e-9),
        qps_quiesced: quiesced_total as f64 / quiesced_elapsed.as_secs_f64().max(1e-9),
        p50_ms_during_ingest: percentile_ms(&mut d_lat, 50),
        p99_ms_during_ingest: percentile_ms(&mut d_lat, 99),
        p50_ms_quiesced: percentile_ms(&mut q_lat, 50),
        p99_ms_quiesced: percentile_ms(&mut q_lat, 99),
        shed_rate: (d_shed + q_shed) as f64 / total as f64,
        error_rate: (d_err + q_err) as f64 / total as f64,
        server_shed_total: server.metrics().shed_total(),
        answers_match,
        merges_during_ingest: merges_during,
        threads: f.pool.num_threads(),
        host_threads: plsh_parallel::affinity::host_threads(),
        pinned_workers: plsh_parallel::pinned_worker_count(),
        scale: match f.scale {
            Scale::Quick => "quick",
            Scale::Full => "full",
        },
    };
    server.shutdown();
    report
}

/// Replays [`MATCH_QUERIES`] queries over a fresh connection and
/// compares every wire hit against the in-process answer, field by
/// field. f32 distances must survive JSON encode → decode bit-exactly.
fn check_answers(engine: &StreamingEngine, addr: SocketAddr, f: &Fixture) -> bool {
    let mut conn = Conn::new(addr);
    for q in f.query_vecs().iter().take(MATCH_QUERIES) {
        let (status, body) = match conn.request(&search_bytes(q)) {
            Ok(r) => r,
            Err(_) => return false,
        };
        if status != 200 {
            return false;
        }
        let wire = match plsh_server::json::parse(&body) {
            Ok(j) => j,
            Err(_) => return false,
        };
        let expect = engine
            .search(&SearchRequest::query(q.clone()).top_k(TOP_K))
            .expect("in-process search");
        let hits = &expect.results[0];
        let wire_hits = match wire.get("results").and_then(Json::as_arr) {
            Some(rs) if rs.len() == 1 => match rs[0].as_arr() {
                Some(h) => h,
                None => return false,
            },
            _ => return false,
        };
        if wire_hits.len() != hits.len() {
            return false;
        }
        for (w, h) in wire_hits.iter().zip(hits) {
            let node = w.get("node").and_then(Json::as_u64);
            let index = w.get("index").and_then(Json::as_u64);
            let distance = w.get("distance").and_then(Json::as_f64);
            if node != Some(h.node as u64)
                || index != Some(h.index as u64)
                || distance != Some(h.distance as f64)
            {
                return false;
            }
        }
    }
    true
}

impl ServeReport {
    /// Served throughput during ingest as a fraction of quiesced.
    pub fn during_over_quiesced(&self) -> f64 {
        if self.qps_quiesced == 0.0 {
            0.0
        } else {
            self.qps_during_ingest / self.qps_quiesced
        }
    }

    /// Prints the report.
    pub fn print(&self) {
        println!(
            "## Served traffic — {} HTTP clients over loopback ({} engine threads)\n",
            self.clients, self.threads
        );
        println!("| Quantity | Measured |");
        println!("|---|---:|");
        println!(
            "| Corpus | {} preloaded + {} ingested over HTTP ({}/request) |",
            self.preload_points, self.ingest_points, self.ingest_batch
        );
        println!(
            "| Search qps during ingest | {:.0} ({} requests) |",
            self.qps_during_ingest, self.requests_during_ingest
        );
        println!("| Search qps quiesced | {:.0} |", self.qps_quiesced);
        println!(
            "| Request p50 / p99 during ingest | {:.2} ms / {:.2} ms |",
            self.p50_ms_during_ingest, self.p99_ms_during_ingest
        );
        println!(
            "| Request p50 / p99 quiesced | {:.2} ms / {:.2} ms |",
            self.p50_ms_quiesced, self.p99_ms_quiesced
        );
        println!("| During / quiesced | {:.2} |", self.during_over_quiesced());
        println!(
            "| Shed rate / error rate | {:.4} / {:.4} |",
            self.shed_rate, self.error_rate
        );
        println!("| Server-side sheds | {} |", self.server_shed_total);
        println!(
            "| Merges during served ingest | {} |",
            self.merges_during_ingest
        );
        println!("| Wire answers match in-process | {} |", self.answers_match);
        println!(
            "| Host threads / pinned workers | {} / {} |",
            self.host_threads, self.pinned_workers
        );
        println!();
    }

    /// Renders the report as the JSON document `scripts/check_bench.py`
    /// validates.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"experiment\": \"serve\",\n  \"scale\": \"{}\",\n  \
             \"threads\": {},\n  \"host_threads\": {},\n  \
             \"pinned_workers\": {},\n  \"clients\": {},\n  \
             \"preload_points\": {},\n  \"ingest_points\": {},\n  \
             \"ingest_batch\": {},\n  \
             \"requests_during_ingest\": {},\n  \
             \"qps_during_ingest\": {:.3},\n  \
             \"qps_quiesced\": {:.3},\n  \
             \"p50_ms_during_ingest\": {:.4},\n  \
             \"p99_ms_during_ingest\": {:.4},\n  \
             \"p50_ms_quiesced\": {:.4},\n  \
             \"p99_ms_quiesced\": {:.4},\n  \
             \"during_over_quiesced\": {:.4},\n  \
             \"shed_rate\": {:.6},\n  \"error_rate\": {:.6},\n  \
             \"server_shed_total\": {},\n  \
             \"merges_during_ingest\": {},\n  \
             \"answers_match\": {}\n}}\n",
            self.scale,
            self.threads,
            self.host_threads,
            self.pinned_workers,
            self.clients,
            self.preload_points,
            self.ingest_points,
            self.ingest_batch,
            self.requests_during_ingest,
            self.qps_during_ingest,
            self.qps_quiesced,
            self.p50_ms_during_ingest,
            self.p99_ms_during_ingest,
            self.p50_ms_quiesced,
            self.p99_ms_quiesced,
            self.during_over_quiesced(),
            self.shed_rate,
            self.error_rate,
            self.server_shed_total,
            self.merges_during_ingest,
            self.answers_match
        )
    }

    /// Writes the JSON report to `path` (fsync + atomic rename).
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        crate::setup::write_json_atomic(path, &self.to_json())
    }
}

/// Report location: `PLSH_BENCH_SERVER_OUT`, defaulting to
/// `BENCH_server.json` in the working directory.
pub fn output_path() -> String {
    std::env::var("PLSH_BENCH_SERVER_OUT").unwrap_or_else(|_| "BENCH_server.json".to_string())
}
