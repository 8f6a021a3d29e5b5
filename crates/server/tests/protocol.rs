//! Protocol-robustness suite: hostile and broken clients against a live
//! server over real sockets. Every scenario must end in a clean 4xx/5xx
//! or a clean close — never a wedged connection, never a dead handler
//! thread (the final sanity request in each test proves the server still
//! answers).

use plsh_core::engine::EngineConfig;
use plsh_core::streaming::StreamingEngine;
use plsh_core::{PlshParams, SparseVector};
use plsh_parallel::ThreadPool;
use plsh_server::{serve, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn params(dim: u32) -> PlshParams {
    PlshParams::builder(dim)
        .k(6)
        .m(6)
        .radius(0.9)
        .seed(3)
        .build()
        .unwrap()
}

fn vectors(n: usize, dim: u32) -> Vec<SparseVector> {
    (0..n)
        .map(|i| {
            SparseVector::unit(vec![
                (i as u32 % dim, 1.0),
                ((i as u32 + 1) % dim, 0.5),
                ((i as u32 + 3) % dim, 0.25),
            ])
            .unwrap()
        })
        .collect()
}

fn start_server(config: ServerConfig) -> Server {
    let engine =
        StreamingEngine::new(EngineConfig::new(params(16), 1_024), ThreadPool::new(2)).unwrap();
    engine.insert_batch(&vectors(64, 16)).unwrap();
    serve(Arc::new(engine), "127.0.0.1:0", config).expect("bind")
}

fn send_raw(server: &Server, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw).expect("send");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read");
    out
}

fn status_of(response: &str) -> u16 {
    response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable response: {response:?}"))
}

fn post(server: &Server, path: &str, body: &str) -> String {
    send_raw(
        server,
        format!(
            "POST {path} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

/// The server must still answer real traffic — the "no worker died"
/// probe run at the end of every scenario.
fn assert_alive(server: &Server) {
    let resp = post(
        server,
        "/search",
        r#"{"queries": [[[0, 1.0]]], "top_k": 1}"#,
    );
    assert_eq!(status_of(&resp), 200, "server no longer serves: {resp}");
}

#[test]
fn malformed_request_line_gets_400_and_close() {
    let server = start_server(ServerConfig::default());
    let resp = send_raw(&server, b"COMPLETE GARBAGE\r\n\r\n");
    assert_eq!(status_of(&resp), 400);
    assert!(resp.contains("Connection: close"));
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn oversized_body_gets_413_without_buffering() {
    let server = start_server(ServerConfig {
        max_body_bytes: 1_024,
        ..ServerConfig::default()
    });
    // Claim a huge body but never send it: the cap check runs off the
    // header alone, so the 413 must come back immediately.
    let resp = send_raw(
        &server,
        b"POST /ingest HTTP/1.1\r\nContent-Length: 10000000\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status_of(&resp), 413);
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn truncated_json_gets_400() {
    let server = start_server(ServerConfig::default());
    let resp = post(&server, "/search", r#"{"queries": [[[0, 1.0"#);
    assert_eq!(status_of(&resp), 400);
    assert!(resp.contains("invalid JSON"), "{resp}");
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn unknown_route_gets_404_and_wrong_method_gets_405() {
    let server = start_server(ServerConfig::default());
    let resp = send_raw(&server, b"GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(status_of(&resp), 404);
    let resp = send_raw(
        &server,
        b"GET /search HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status_of(&resp), 405);
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn premature_disconnect_leaves_server_healthy() {
    let server = start_server(ServerConfig::default());
    // Half a request, then hang up; repeat to hit multiple workers.
    for _ in 0..8 {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"POST /search HTTP/1.1\r\nContent-Length: 500\r\n\r\n{\"quer")
            .unwrap();
        drop(stream); // vanish mid-body
    }
    // Also vanish mid-*response*: ask for work, read one byte, hang up.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let body = r#"{"queries": [[[0, 1.0]]], "top_k": 5}"#;
    stream
        .write_all(
            format!(
                "POST /search HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let mut one = [0u8; 1];
    let _ = stream.read(&mut one);
    drop(stream);
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn keep_alive_carries_multiple_requests() {
    let server = start_server(ServerConfig::default());
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let body = r#"{"queries": [[[0, 1.0]]], "top_k": 1}"#;
    let req = format!(
        "POST /search HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    for round in 0..3 {
        stream.write_all(req.as_bytes()).unwrap();
        // Read one full response off the stream (headers + body by
        // Content-Length) without closing the connection.
        let mut buf = Vec::new();
        let mut byte = [0u8; 1];
        while !buf.ends_with(b"\r\n\r\n") {
            assert_eq!(stream.read(&mut byte).unwrap(), 1, "round {round}");
            buf.push(byte[0]);
        }
        let head = String::from_utf8_lossy(&buf);
        assert!(head.starts_with("HTTP/1.1 200"), "round {round}: {head}");
        assert!(head.contains("Connection: keep-alive"), "{head}");
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        let mut body_buf = vec![0u8; len];
        stream.read_exact(&mut body_buf).unwrap();
    }
    server.shutdown();
}

#[test]
fn queue_overflow_sheds_with_retry_after() {
    // One worker, a one-slot queue, and a request that holds the worker:
    // the surplus connections must shed 503 + Retry-After instead of
    // queueing unboundedly.
    let server = start_server(ServerConfig {
        workers: 1,
        max_pending: 1,
        ..ServerConfig::default()
    });
    // Park the lone worker on a connection that sends nothing (it idles
    // inside read_request until idle_timeout); the queue_depth gauge
    // makes the sequencing deterministic.
    let parked_worker = TcpStream::connect(server.addr()).unwrap();
    // Ample time for the 2ms-poll accept loop to enqueue it and for the
    // worker to claim it (it then blocks in read_request for idle_timeout).
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        server.metrics().queue_depth(),
        0,
        "worker should have claimed it"
    );
    let parked_queue = TcpStream::connect(server.addr()).unwrap();
    {
        // The second parked connection must come to rest *in* the queue:
        // the lone worker is busy, so depth rises to 1 and stays there.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.metrics().queue_depth() != 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "second connection never occupied the queue slot"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    for _ in 0..4 {
        let resp = post(
            &server,
            "/search",
            r#"{"queries": [[[0, 1.0]]], "top_k": 1}"#,
        );
        assert_eq!(status_of(&resp), 503, "{resp}");
        assert!(resp.contains("Retry-After:"), "{resp}");
    }
    assert!(server.metrics().shed_total() >= 4);
    // Free the worker (EOF) so shutdown doesn't wait out idle_timeout.
    drop(parked_worker);
    drop(parked_queue);
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_and_reports() {
    let server = start_server(ServerConfig::default());
    // A ctl-endpoint drain: request it over the wire like an operator.
    let resp = post(&server, "/ctl/shutdown", "");
    assert_eq!(status_of(&resp), 200);
    assert!(resp.contains("\"draining\":true"));
    assert!(server.stop_requested());
    server.wait_for_stop();
    let report = server.shutdown();
    assert!(report.drained, "engine should drain within the deadline");
}

/// A backend whose search panics on demand — the crate-level stand-in
/// for any bug or poisoned state below the wire. (The end-to-end fault
/// version, arming `query.shard` on a sharded index via the `fault`
/// framework, lives in the root crate's `tests/server_http.rs`.)
struct PanickyBackend {
    inner: StreamingEngine,
    panic_searches: std::sync::atomic::AtomicUsize,
}

impl plsh_server::ServeBackend for PanickyBackend {
    fn search(
        &self,
        req: &plsh_core::search::SearchRequest,
    ) -> plsh_core::Result<plsh_core::search::SearchResponse> {
        use std::sync::atomic::Ordering;
        let remaining = self.panic_searches.load(Ordering::SeqCst);
        if remaining > 0 {
            self.panic_searches.fetch_sub(1, Ordering::SeqCst);
            panic!("injected backend panic");
        }
        self.inner.search(req)
    }

    fn insert_batch(&self, vs: &[SparseVector]) -> plsh_core::Result<Vec<u32>> {
        self.inner.insert_batch(vs)
    }

    fn delete(&self, id: u32) -> plsh_core::Result<bool> {
        Ok(self.inner.delete(id))
    }

    fn health(&self) -> plsh_core::HealthReport {
        self.inner.health()
    }

    fn epoch_info(&self) -> plsh_core::engine::EpochInfo {
        self.inner.epoch_info()
    }

    fn shutdown(&self, deadline: Duration) -> plsh_core::ShutdownReport {
        self.inner.shutdown(deadline)
    }
}

#[test]
fn backend_panic_maps_to_500_and_server_survives() {
    let engine =
        StreamingEngine::new(EngineConfig::new(params(16), 1_024), ThreadPool::new(2)).unwrap();
    engine.insert_batch(&vectors(64, 16)).unwrap();
    let backend = Arc::new(PanickyBackend {
        inner: engine,
        panic_searches: std::sync::atomic::AtomicUsize::new(2),
    });
    let server = serve(backend, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    for _ in 0..2 {
        let resp = post(
            &server,
            "/search",
            r#"{"queries": [[[0, 1.0]]], "top_k": 1}"#,
        );
        assert_eq!(status_of(&resp), 500, "{resp}");
        assert!(resp.contains("internal panic"), "{resp}");
    }
    assert!(server.metrics().responses_5xx() >= 2);
    // The handler threads absorbed both panics; the server still serves.
    assert_alive(&server);
    server.shutdown();
}
