//! End-to-end HTTP surface tests against the `plsh` facade: a sharded
//! `Index` behind `Index::serve`, exercised over real sockets.
//!
//! Four guarantees pinned down here that the crate-level protocol suite
//! can't reach:
//!
//! 1. Answers over the wire are bit-identical to in-process
//!    `Index::search` — the JSON codec loses nothing — and no request
//!    fails while searches race a live `/ingest` stream.
//! 2. A fault armed at `query.shard` via `PLSH_FAULTS` (the operator
//!    surface, exercised in a child process so the env var goes through
//!    the real lazy-init path) maps to a clean HTTP 500, and the server
//!    keeps serving afterwards.
//! 3. A degraded engine (persistent WAL failure) turns `/healthz` into a
//!    503 with `"degraded": true` and rejects ingest with 503, while
//!    searches keep answering.
//! 4. A write refused for capacity is a 429 with `Retry-After`, and the
//!    backend stays healthy.

use plsh::core::fault::{self, FaultKind, FaultSpec};
use plsh::workload::{CorpusConfig, SyntheticCorpus};
use plsh::{Index, PlshParams, SearchRequest, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::Command;
use std::sync::Mutex;
use std::time::Duration;

/// Faults are process-global; every test that arms them holds this.
static FAULT_GUARD: Mutex<()> = Mutex::new(());

fn corpus() -> SyntheticCorpus {
    SyntheticCorpus::generate(CorpusConfig {
        num_docs: 400,
        vocab_size: 800,
        mean_words: 6.0,
        zipf_exponent: 1.0,
        duplicate_fraction: 0.2,
        seed: 23,
    })
}

fn params(dim: u32) -> PlshParams {
    PlshParams::builder(dim)
        .k(6)
        .m(8)
        .radius(0.9)
        .seed(9)
        .build()
        .unwrap()
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

fn get(server: &Server, path: &str) -> String {
    send_raw(
        server,
        format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

fn status_of(response: &str) -> u16 {
    response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable response: {response:?}"))
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or("")
}

/// Raw term-weight pairs of a corpus document, as wire JSON. The server
/// is asked to `normalize` so the query it builds is the same unit
/// vector `SparseVector::unit` produces in-process.
fn query_json(corpus: &SyntheticCorpus, i: usize) -> String {
    let doc = &corpus.vectors()[i];
    let pairs: Vec<String> = doc
        .indices()
        .iter()
        .zip(doc.values())
        .map(|(d, w)| format!("[{d},{w}]"))
        .collect();
    format!("[{}]", pairs.join(","))
}

#[test]
fn wire_answers_match_in_process_search() {
    let corpus = corpus();
    let index = Index::builder(params(corpus.dim()))
        .capacity(2_048)
        .shards(2)
        .build()
        .unwrap();
    index.add_batch(corpus.vectors()).unwrap();
    index.flush().unwrap();
    let server = index.serve("127.0.0.1:0").expect("bind");

    for i in [0usize, 7, 42, 199] {
        let body = format!(
            "{{\"queries\": [{}], \"top_k\": 5, \"normalize\": true}}",
            query_json(&corpus, i)
        );
        let resp = post(&server, "/search", &body);
        assert_eq!(status_of(&resp), 200, "{resp}");

        let expect = index
            .search(&SearchRequest::query(corpus.vectors()[i].clone()).top_k(5))
            .unwrap();
        // The wire hit list must reproduce node/index/distance exactly —
        // f32 distances round-trip bit-for-bit through the JSON codec.
        let wire_body = body_of(&resp);
        for hit in expect.hits() {
            let needle = format!(
                "{{\"distance\":{},\"index\":{},\"node\":{}}}",
                plsh::server::Json::Num(hit.distance as f64),
                hit.index,
                hit.node,
            );
            assert!(
                wire_body.contains(&needle),
                "hit {needle} missing from wire response {wire_body}"
            );
        }
    }

    // Concurrent searches while `/ingest` streams rows in: shedding
    // (429/503) is legal under load, any other non-200 is a server bug.
    let search = format!(
        "{{\"queries\": [{}], \"top_k\": 5, \"normalize\": true}}",
        query_json(&corpus, 42)
    );
    let (ingests, searches): (Vec<u16>, Vec<u16>) = std::thread::scope(|s| {
        let searchers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    (0..20)
                        .map(|_| status_of(&post(&server, "/search", &search)))
                        .collect::<Vec<u16>>()
                })
            })
            .collect();
        let ingests = (0..200)
            .step_by(50)
            .map(|start| {
                let rows: Vec<String> = (start..start + 50)
                    .map(|i| query_json(&corpus, i))
                    .collect();
                let body = format!("{{\"vectors\": [{}]}}", rows.join(","));
                status_of(&post(&server, "/ingest", &body))
            })
            .collect();
        let searches = searchers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        (ingests, searches)
    });
    for statuses in [&ingests, &searches] {
        assert!(
            statuses.iter().all(|s| matches!(s, 200 | 429 | 503)),
            "a request failed under concurrent load: {statuses:?}"
        );
        assert!(statuses.contains(&200), "nothing answered: {statuses:?}");
    }
    let accepted = ingests.iter().filter(|&&s| s == 200).count();
    index.flush().unwrap();
    assert_eq!(index.len(), corpus.len() + 50 * accepted);
    server.shutdown();
}

/// The child half of `plsh_faults_env_maps_shard_panic_to_500`: runs in
/// a subprocess with `PLSH_FAULTS=query.shard=panic:times=1` set, so the
/// fault arms through the same lazy env-init an operator would use.
#[test]
#[ignore = "child process of plsh_faults_env_maps_shard_panic_to_500"]
fn child_faulted_shard_search() {
    if std::env::var("PLSH_SERVER_HTTP_CHILD").is_err() {
        return; // ran directly (e.g. --include-ignored): nothing to prove
    }
    let corpus = corpus();
    let index = Index::builder(params(corpus.dim()))
        .capacity(2_048)
        .shards(2)
        .build()
        .unwrap();
    index.add_batch(corpus.vectors()).unwrap();
    index.flush().unwrap();
    let server = index.serve("127.0.0.1:0").expect("bind");

    let body = format!(
        "{{\"queries\": [{}], \"top_k\": 3, \"normalize\": true}}",
        query_json(&corpus, 0)
    );
    // First search trips the armed panic in a shard fan-out task; the
    // handler thread must contain it and answer 500.
    let resp = post(&server, "/search", &body);
    assert_eq!(status_of(&resp), 500, "{resp}");
    assert!(resp.contains("internal panic"), "{resp}");
    assert!(fault::fired(fault::QUERY_SHARD) >= 1, "fault never fired");

    // The fault was times=1: the server survives and answers again.
    let resp = post(&server, "/search", &body);
    assert_eq!(status_of(&resp), 200, "{resp}");
    // A query-path panic is not persistent damage: still healthy.
    let health = get(&server, "/healthz");
    assert_eq!(status_of(&health), 200, "{health}");
    server.shutdown();
}

#[test]
fn plsh_faults_env_maps_shard_panic_to_500() {
    let _g = FAULT_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let exe = std::env::current_exe().expect("own test binary");
    let output = Command::new(exe)
        .args(["child_faulted_shard_search", "--exact", "--ignored"])
        .env("PLSH_SERVER_HTTP_CHILD", "1")
        .env("PLSH_FAULTS", "query.shard=panic:times=1")
        .output()
        .expect("spawn child test process");
    assert!(
        output.status.success(),
        "child failed\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn degraded_backend_turns_healthz_503_and_rejects_ingest() {
    let _g = FAULT_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    fault::disarm_all();
    fault::reset_counters();
    let dir = std::env::temp_dir().join(format!("plsh_server_http_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let corpus = corpus();
    let index = Index::builder(params(corpus.dim()))
        .capacity(2_048)
        .build()
        .unwrap();
    index.persist_to(&dir).unwrap();
    index.add_batch(&corpus.vectors()[..200]).unwrap();
    let server = index.serve("127.0.0.1:0").expect("bind");
    assert_eq!(status_of(&get(&server, "/healthz")), 200);

    // Unbounded WAL write failures exhaust the retry budget: the next
    // ingest must degrade the engine instead of losing rows silently.
    fault::arm(fault::WAL_APPEND, FaultSpec::new(FaultKind::Err));
    let ingest = format!("{{\"vectors\": [{}]}}", query_json(&corpus, 300));
    let resp = post(&server, "/ingest", &ingest);
    assert_eq!(status_of(&resp), 503, "{resp}");
    fault::disarm_all();

    // Degraded is sticky: healthz flips to 503 and says why…
    let health = get(&server, "/healthz");
    assert_eq!(status_of(&health), 503, "{health}");
    assert!(health.contains("\"degraded\":true"), "{health}");
    // …further writes stay rejected…
    let resp = post(&server, "/ingest", &ingest);
    assert_eq!(status_of(&resp), 503, "{resp}");
    // …but reads keep answering off the pinned epoch.
    let body = format!(
        "{{\"queries\": [{}], \"top_k\": 3, \"normalize\": true}}",
        query_json(&corpus, 0)
    );
    assert_eq!(status_of(&post(&server, "/search", &body)), 200);

    // Heal (faults are gone) and the surface recovers end to end.
    assert!(index.heal(), "heal should succeed once faults are disarmed");
    assert_eq!(status_of(&get(&server, "/healthz")), 200);
    assert_eq!(status_of(&post(&server, "/ingest", &ingest)), 200);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ingest_past_capacity_is_429_with_retry_after() {
    let corpus = corpus();
    let index = Index::builder(params(corpus.dim()))
        .capacity(200)
        .build()
        .unwrap();
    index.add_batch(&corpus.vectors()[..200]).unwrap();
    let server = index.serve("127.0.0.1:0").expect("bind");

    let ingest = format!("{{\"vectors\": [{}]}}", query_json(&corpus, 300));
    let resp = post(&server, "/ingest", &ingest);
    assert_eq!(status_of(&resp), 429, "{resp}");
    assert!(resp.contains("Retry-After: 1\r\n"), "{resp}");
    assert!(body_of(&resp).contains("capacity"), "{resp}");
    // A full index is not a sick one.
    assert_eq!(status_of(&get(&server, "/healthz")), 200);
    assert_eq!(index.len(), 200);

    server.shutdown();
}
