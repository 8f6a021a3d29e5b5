//! The server proper: accept loop, bounded request queue, handler
//! threads, endpoint dispatch, load shedding, and graceful drain.
//!
//! ## Threading model
//!
//! Accepted connections land in a **bounded** queue
//! (`ServerConfig::max_pending`); a fixed set of handler threads pulls
//! from it and speaks HTTP. The CPU-heavy part of every request — the
//! hash/probe/rank fan-out — still runs on the shared
//! [`plsh_parallel::ThreadPool`] at foreground priority, because that is
//! what `backend.search()` submits to internally; the handler thread
//! participates in its own batch exactly like any other pool submitter,
//! so query work competes fairly with background merges under the pool's
//! two-class scheduler. (Connections cannot *be* pool tasks: every pool
//! entry point blocks the submitter until batch completion by design, so
//! parking open sockets there would wedge the pool. The handler threads
//! are the blocking-I/O skin around the pool, not a second compute pool.)
//!
//! ## Load shedding
//!
//! Two layers, both answering with `Retry-After`:
//!
//! * Accept-side: when the queue is full, the accept loop answers `503`
//!   immediately and closes — the queue can never grow unboundedly.
//! * Queue-side: a connection that waited longer than
//!   `max_queue_delay` before a handler picked it up is answered `429`
//!   and closed — by the time it would be served, the client has likely
//!   timed out; doing the work anyway is goodput zero.
//!
//! Per-request CPU is additionally bounded by
//! `default_max_candidates`/`default_shard_deadline`, applied to search
//! requests that did not set their own budget. Past the queue, an
//! `/ingest` the backend refuses for capacity is answered `429` and a
//! degraded backend's refusal `503`, both with `Retry-After`.
//!
//! ## Drain
//!
//! `SIGTERM` (opt-in), `POST /ctl/shutdown`, or [`Server::shutdown`] stop
//! the accept loop; queued connections are still answered; keep-alive
//! connections are closed after their in-flight request (`Connection:
//! close`); then the backend drains via `ServeBackend::shutdown` within
//! what remains of `drain_deadline`.

use crate::http::{self, HttpError, Request, Response};
use crate::json::{self, Json};
use crate::metrics::Metrics;
use crate::wire;
use plsh_core::engine::EpochInfo;
use plsh_core::health::HealthReport;
use plsh_core::search::{SearchRequest, SearchResponse};
use plsh_core::sparse::SparseVector;
use plsh_core::streaming::{ShutdownReport, StreamingEngine};
use plsh_core::Result as CoreResult;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything a PLSH backend must answer to sit behind the wire surface.
/// Implemented here for [`StreamingEngine`]; the root `plsh::Index`
/// implements it over its `ShardedIndex`, one shard included.
pub trait ServeBackend: Send + Sync {
    fn search(&self, req: &SearchRequest) -> CoreResult<SearchResponse>;
    fn insert_batch(&self, vs: &[SparseVector]) -> CoreResult<Vec<u32>>;
    /// `Ok(false)` when the id is unknown or already deleted.
    fn delete(&self, id: u32) -> CoreResult<bool>;
    fn health(&self) -> HealthReport;
    fn epoch_info(&self) -> EpochInfo;
    /// Graceful drain; see `StreamingEngine::shutdown`.
    fn shutdown(&self, deadline: Duration) -> ShutdownReport;
}

impl ServeBackend for StreamingEngine {
    fn search(&self, req: &SearchRequest) -> CoreResult<SearchResponse> {
        StreamingEngine::search(self, req)
    }

    fn insert_batch(&self, vs: &[SparseVector]) -> CoreResult<Vec<u32>> {
        StreamingEngine::insert_batch(self, vs)
    }

    fn delete(&self, id: u32) -> CoreResult<bool> {
        Ok(StreamingEngine::delete(self, id))
    }

    fn health(&self) -> HealthReport {
        StreamingEngine::health(self)
    }

    fn epoch_info(&self) -> EpochInfo {
        StreamingEngine::epoch_info(self)
    }

    fn shutdown(&self, deadline: Duration) -> ShutdownReport {
        StreamingEngine::shutdown(self, deadline)
    }
}

/// Server knobs. `Default` is sized for the test/bench machines in this
/// repo: a handful of handler threads, a queue a few times deeper, 1 MiB
/// bodies.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Handler threads (blocking-I/O skin; compute stays on the pool).
    pub workers: usize,
    /// Bounded queue of accepted-but-unhandled connections; the accept
    /// loop sheds 503 beyond this.
    pub max_pending: usize,
    /// Request bodies larger than this are answered 413 without reading.
    pub max_body_bytes: usize,
    /// Queued longer than this → shed 429 instead of serving stale work.
    pub max_queue_delay: Duration,
    /// Keep-alive connections idle longer than this are closed.
    pub idle_timeout: Duration,
    /// Candidate budget injected into `/search` requests that set none —
    /// the request-level half of load shedding. `None` = unbounded.
    pub default_max_candidates: Option<usize>,
    /// Shard deadline injected into `/search` requests that set none
    /// (multi-shard indexes only; a one-shard index ignores it).
    pub default_shard_deadline: Option<Duration>,
    /// Budget for the backend drain performed by [`Server::shutdown`].
    pub drain_deadline: Duration,
    /// Install a process-wide SIGTERM handler that requests drain. Off by
    /// default: a process hosts many tests but only one signal handler.
    pub handle_sigterm: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_pending: 64,
            max_body_bytes: 1 << 20,
            max_queue_delay: Duration::from_millis(500),
            idle_timeout: Duration::from_secs(5),
            default_max_candidates: None,
            default_shard_deadline: None,
            drain_deadline: Duration::from_secs(5),
            handle_sigterm: false,
        }
    }
}

/// SIGTERM latch shared by every server in the process (signal handlers
/// are process-wide; each server polls, only one installs).
static SIGTERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_sig: i32) {
    SIGTERM.store(true, Ordering::SeqCst);
}

fn install_sigterm_handler() {
    // Same libc-less pattern as `util.rs` madvise / `affinity.rs`
    // sched_setaffinity: declare the one symbol we need.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM_NO: i32 = 15;
    unsafe {
        signal(SIGTERM_NO, on_sigterm as *const () as usize);
    }
}

struct Shared {
    backend: Arc<dyn ServeBackend>,
    metrics: Metrics,
    config: ServerConfig,
    /// Set by SIGTERM, `/ctl/shutdown`, or [`Server::shutdown`]; the
    /// accept loop and keep-alive loops poll it.
    stop: AtomicBool,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
            || (self.config.handle_sigterm && SIGTERM.load(Ordering::SeqCst))
    }
}

/// A running server. Dropping it without calling
/// [`shutdown`](Server::shutdown) aborts the accept thread without
/// draining the backend — call `shutdown` for the graceful path.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Start serving `backend` on `addr` (use port 0 for an ephemeral port;
/// the bound address is [`Server::addr`]).
pub fn serve(
    backend: Arc<dyn ServeBackend>,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> std::io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    if config.handle_sigterm {
        install_sigterm_handler();
    }
    let workers = config.workers.max(1);
    let shared = Arc::new(Shared {
        backend,
        metrics: Metrics::new(),
        config,
        stop: AtomicBool::new(false),
    });

    // The bounded connection queue: a failed `try_send` is the shed
    // decision.
    let (tx, rx) = std::sync::mpsc::sync_channel::<(TcpStream, Instant)>(shared.config.max_pending);
    let rx = Arc::new(Mutex::new(rx));

    let worker_handles: Vec<JoinHandle<()>> = (0..workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&rx);
            std::thread::Builder::new()
                .name(format!("plsh-http-{i}"))
                .spawn(move || worker_loop(&shared, &rx))
                .expect("spawn handler thread")
        })
        .collect();

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("plsh-http-accept".into())
            .spawn(move || accept_loop(&shared, &listener, &tx))
            .expect("spawn accept thread")
    };

    Ok(Server {
        addr,
        shared,
        accept: Some(accept),
        workers: worker_handles,
    })
}

impl Server {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Server-side request telemetry (live; also rendered by `/metrics`).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Ask the server to stop accepting; returns immediately. SIGTERM and
    /// `POST /ctl/shutdown` end up here too.
    pub fn request_stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// Whether a stop has been requested (by any path).
    pub fn stop_requested(&self) -> bool {
        self.shared.stopping()
    }

    /// Block until a stop is requested (SIGTERM or `/ctl/shutdown`);
    /// pair with [`shutdown`](Server::shutdown) to then drain.
    pub fn wait_for_stop(&self) {
        while !self.shared.stopping() {
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Graceful drain: stop accepting, answer everything already queued,
    /// close keep-alive connections after their in-flight request, join
    /// every thread, then drain the backend within `drain_deadline`.
    pub fn shutdown(mut self) -> ShutdownReport {
        let drain_start = Instant::now();
        self.request_stop();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // The accept thread dropped the sender; workers finish the queue
        // and exit on the disconnected channel.
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        let remaining = self
            .shared
            .config
            .drain_deadline
            .saturating_sub(drain_start.elapsed());
        self.shared.backend.shutdown(remaining)
    }
}

fn accept_loop(shared: &Shared, listener: &TcpListener, tx: &SyncSender<(TcpStream, Instant)>) {
    loop {
        if shared.stopping() {
            return; // drops tx; workers drain and exit
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.metrics.queue_entered();
                match tx.try_send((stream, Instant::now())) {
                    Ok(()) => {}
                    Err(
                        TrySendError::Full((stream, _)) | TrySendError::Disconnected((stream, _)),
                    ) => {
                        // Queue full: shed right here with Retry-After
                        // rather than queueing unboundedly.
                        shared.metrics.queue_left();
                        shared.metrics.record_shed();
                        shed_connection(shared, stream, 503, "request queue full");
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Best-effort one-shot shed response on a connection we will not serve.
///
/// The client usually wrote its whole request before we decided to shed;
/// closing with those bytes unread makes the kernel send RST, which can
/// discard the in-flight 429/503 before the client reads it. So: write
/// the response, half-close our side (FIN), then drain the unread input
/// for up to a short timeout before dropping — on a detached thread, so
/// a slow client's drain can never stall the accept loop.
fn shed_connection(shared: &Shared, mut stream: TcpStream, status: u16, msg: &'static str) {
    shared.metrics.record(status, Duration::ZERO);
    std::thread::spawn(move || {
        let mut resp = Response::error(status, msg).retry_after(1);
        resp.close = true;
        let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
        if resp.write_to(&mut stream, false).is_err() {
            return;
        }
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
        let mut sink = [0u8; 4096];
        while matches!(std::io::Read::read(&mut stream, &mut sink), Ok(n) if n > 0) {}
    });
}

fn worker_loop(shared: &Shared, rx: &Arc<Mutex<Receiver<(TcpStream, Instant)>>>) {
    loop {
        let next = {
            let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
            guard.recv()
        };
        let Ok((stream, enqueued)) = next else {
            return; // accept loop gone and queue drained
        };
        shared.metrics.queue_left();
        if enqueued.elapsed() > shared.config.max_queue_delay {
            // Stale: the client has likely given up; serving it now is
            // wasted compute. Shed with Retry-After.
            shared.metrics.record_shed();
            shed_connection(shared, stream, 429, "queued past max_queue_delay");
            continue;
        }
        handle_connection(shared, stream);
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.config.idle_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.idle_timeout));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let request = http::read_request(&mut reader, shared.config.max_body_bytes);
        let start = Instant::now();
        match request {
            Ok(req) => {
                // A panic anywhere in dispatch (a poisoned backend, a bug)
                // maps to 500 on this one request; the handler thread and
                // its connection loop survive.
                let mut resp = catch_unwind(AssertUnwindSafe(|| dispatch(shared, &req)))
                    .unwrap_or_else(|_| {
                        Response::error(500, "internal panic while serving request")
                    });
                // Close keep-alive connections once drain starts.
                let keep_alive = req.keep_alive && !shared.stopping();
                resp.close = resp.close || !keep_alive;
                let closing = resp.close;
                shared.metrics.record(resp.status, start.elapsed());
                if resp.write_to(&mut writer, !closing).is_err() {
                    return; // peer went away mid-response; nothing to do
                }
                if closing {
                    return;
                }
            }
            Err(HttpError::ConnectionClosed) => return,
            Err(HttpError::Protocol(mut resp)) => {
                // Protocol errors always close: the stream may be
                // desynced (e.g. an unread oversized body).
                resp.close = true;
                shared.metrics.record(resp.status, start.elapsed());
                let _ = resp.write_to(&mut writer, false);
                return;
            }
        }
        let _ = writer.flush();
    }
}

fn dispatch(shared: &Shared, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/search") => with_text(req, |text| search(shared, text)),
        ("POST", "/ingest") => with_text(req, |text| ingest(shared, text)),
        ("POST", "/delete") => with_text(req, |text| delete(shared, text)),
        ("GET", "/healthz") => healthz(shared),
        ("GET", "/metrics") => metrics_page(shared),
        ("POST", "/ctl/shutdown") => {
            shared.stop.store(true, Ordering::SeqCst);
            let mut resp = Response::json(
                200,
                Json::obj(vec![("draining", Json::Bool(true))]).to_string(),
            );
            resp.close = true;
            resp
        }
        (
            "POST" | "GET",
            "/search" | "/ingest" | "/delete" | "/healthz" | "/metrics" | "/ctl/shutdown",
        ) => Response::error(405, "method not allowed for this route"),
        _ => Response::error(404, "unknown route"),
    }
}

/// Hand the body's text to `f`; a body that is not UTF-8 is a 400 here,
/// before any endpoint logic runs. Invalid JSON is a 400 reading
/// `invalid JSON body: …` from each endpoint's decoder.
fn with_text(req: &Request, f: impl FnOnce(&str) -> Response) -> Response {
    match std::str::from_utf8(&req.body) {
        Ok(text) => f(text),
        Err(_) => Response::error(400, "body is not valid UTF-8"),
    }
}

fn wire_error(e: wire::WireError) -> Response {
    Response::error(e.status, &e.message)
}

fn search(shared: &Shared, text: &str) -> Response {
    let mut sreq = match wire::decode_search(text) {
        Ok(r) => r,
        Err(e) => return wire_error(e),
    };
    // Request-level shedding budget: cap candidates (and bound shard
    // fan-out) for clients that did not pick their own limits.
    if sreq.max_candidates().is_none() {
        if let Some(budget) = shared.config.default_max_candidates {
            sreq = sreq.with_max_candidates(budget);
        }
    }
    if sreq.shard_deadline().is_none() {
        if let Some(deadline) = shared.config.default_shard_deadline {
            sreq = sreq.with_shard_deadline(deadline);
        }
    }
    match shared.backend.search(&sreq) {
        Ok(resp) => Response::json(200, wire::encode_search_response(&resp)),
        Err(e) => backend_error(&e),
    }
}

fn ingest(shared: &Shared, text: &str) -> Response {
    let vectors = match wire::decode_ingest(text) {
        Ok(v) => v,
        Err(e) => return wire_error(e),
    };
    match shared.backend.insert_batch(&vectors) {
        Ok(ids) => Response::json(200, wire::encode_ingest_response(&ids)),
        Err(e) => backend_error(&e),
    }
}

fn delete(shared: &Shared, text: &str) -> Response {
    let body = match json::parse(text) {
        Ok(body) => body,
        Err(e) => return wire_error(wire::invalid_json(e)),
    };
    let id = match wire::parse_delete(&body) {
        Ok(id) => id,
        Err(e) => return wire_error(e),
    };
    match shared.backend.delete(id) {
        Ok(deleted) => Response::json(
            200,
            Json::obj(vec![("deleted", Json::Bool(deleted))]).to_string(),
        ),
        Err(e) => backend_error(&e),
    }
}

fn backend_error(e: &plsh_core::PlshError) -> Response {
    let status = wire::backend_error_status(e);
    let mut resp = Response::error(status, &e.to_string());
    if matches!(status, 429 | 503) {
        resp = resp.retry_after(1);
    }
    resp
}

fn healthz(shared: &Shared) -> Response {
    let report = shared.backend.health();
    let status = if report.healthy() { 200 } else { 503 };
    let mut resp = Response::json(status, wire::encode_health(&report).to_string());
    if status == 503 {
        resp = resp.retry_after(1);
    }
    resp
}

fn metrics_page(shared: &Shared) -> Response {
    let m = &shared.metrics;
    let health = shared.backend.health();
    let epoch = shared.backend.epoch_info();
    let body = Json::obj(vec![
        ("qps", Json::Num(m.qps())),
        ("p50_ms", Json::Num(m.percentile_ms(50.0))),
        ("p99_ms", Json::Num(m.percentile_ms(99.0))),
        ("requests_total", Json::Num(m.requests_total() as f64)),
        ("responses_4xx", Json::Num(m.responses_4xx() as f64)),
        ("responses_5xx", Json::Num(m.responses_5xx() as f64)),
        ("shed_total", Json::Num(m.shed_total() as f64)),
        ("queue_depth", Json::Num(m.queue_depth() as f64)),
        ("epoch_generation", Json::Num(epoch.generation as f64)),
        ("visible_points", Json::Num(epoch.visible_points as f64)),
        ("merge_backlog", Json::Num(health.merge_backlog as f64)),
        ("merge_failures", Json::Num(health.merge_failures as f64)),
    ]);
    Response::json(200, body.to_string())
}
