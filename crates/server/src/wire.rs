//! JSON ⇄ PLSH wire types.
//!
//! The wire schema (documented per-endpoint in the README):
//!
//! * Sparse vectors are `[[dim, weight], ...]` pair lists. Weights pass
//!   through bit-exactly — Rust prints the shortest round-trippable float,
//!   so an already-unit vector survives HTTP unchanged and a served answer
//!   can be compared hit-for-hit against an in-process run. Clients with
//!   raw term weights set `"normalize": true` to have the server scale to
//!   unit length.
//! * `/search` bodies: `{"queries": [vec, ...]}` plus optional `top_k`
//!   (k-NN mode; absent = the paper's radius mode), `radius`,
//!   `max_candidates`, `shard_deadline_ms`, `normalize`.
//! * `/ingest` bodies: `{"vectors": [vec, ...]}` (+ `normalize`);
//!   `/delete` bodies: `{"id": n}`.
//!
//! Decoding errors are [`WireError`]s carrying the HTTP status they map
//! to — always a 4xx; 5xx mapping happens in the server from backend
//! errors.

use crate::json::Json;
use plsh_core::health::HealthReport;
use plsh_core::search::{SearchRequest, SearchResponse};
use plsh_core::sparse::SparseVector;
use plsh_core::PlshError;
use std::time::Duration;

/// A request body the wire layer refused, with the status to answer.
#[derive(Debug)]
pub struct WireError {
    pub status: u16,
    pub message: String,
}

impl WireError {
    fn bad(msg: impl Into<String>) -> WireError {
        WireError {
            status: 400,
            message: msg.into(),
        }
    }
}

/// Caps a `/search` body; a batch bigger than this sheds as a 400 rather
/// than monopolizing the handler thread.
pub const MAX_QUERIES_PER_REQUEST: usize = 1024;

/// Caps an `/ingest` body for the same reason.
pub const MAX_VECTORS_PER_INGEST: usize = 4096;

fn parse_vector(v: &Json, normalize: bool) -> Result<SparseVector, WireError> {
    let pairs = v
        .as_arr()
        .ok_or_else(|| WireError::bad("vector must be an array of [dim, weight] pairs"))?;
    let mut out = Vec::with_capacity(pairs.len());
    for pair in pairs {
        let p = pair
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| WireError::bad("vector entry must be a [dim, weight] pair"))?;
        let dim = p[0]
            .as_u64()
            .filter(|&d| d <= u32::MAX as u64)
            .ok_or_else(|| WireError::bad("vector dimension must be a u32"))?;
        let weight = p[1]
            .as_f64()
            .ok_or_else(|| WireError::bad("vector weight must be a number"))?;
        out.push((dim as u32, weight as f32));
    }
    let build = if normalize {
        SparseVector::unit(out)
    } else {
        SparseVector::new(out)
    };
    build.map_err(|e| WireError::bad(format!("invalid vector: {e}")))
}

fn parse_vector_list(body: &Json, key: &str, cap: usize) -> Result<Vec<SparseVector>, WireError> {
    let normalize = body
        .get("normalize")
        .map(|v| {
            v.as_bool()
                .ok_or_else(|| WireError::bad("normalize must be a bool"))
        })
        .transpose()?
        .unwrap_or(false);
    let list = body
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| WireError::bad(format!("missing '{key}' array")))?;
    if list.is_empty() {
        return Err(WireError::bad(format!("'{key}' must not be empty")));
    }
    if list.len() > cap {
        return Err(WireError::bad(format!(
            "'{key}' holds {} vectors; cap is {cap}",
            list.len()
        )));
    }
    list.iter().map(|v| parse_vector(v, normalize)).collect()
}

/// Decode a `/search` body into a [`SearchRequest`].
pub fn parse_search(body: &Json) -> Result<SearchRequest, WireError> {
    let queries = parse_vector_list(body, "queries", MAX_QUERIES_PER_REQUEST)?;
    let mut req = SearchRequest::batch(queries);
    if let Some(k) = body.get("top_k") {
        let k = k
            .as_u64()
            .filter(|&k| k >= 1)
            .ok_or_else(|| WireError::bad("top_k must be a positive integer"))?;
        req = req.top_k(k as usize);
    }
    if let Some(r) = body.get("radius") {
        let r = r
            .as_f64()
            .filter(|r| r.is_finite() && *r > 0.0)
            .ok_or_else(|| WireError::bad("radius must be a positive number"))?;
        req = req.with_radius(r as f32);
    }
    if let Some(b) = body.get("max_candidates") {
        let b = b
            .as_u64()
            .filter(|&b| b >= 1)
            .ok_or_else(|| WireError::bad("max_candidates must be a positive integer"))?;
        req = req.with_max_candidates(b as usize);
    }
    if let Some(d) = body.get("shard_deadline_ms") {
        let d = d
            .as_u64()
            .filter(|&d| d >= 1)
            .ok_or_else(|| WireError::bad("shard_deadline_ms must be a positive integer"))?;
        req = req.with_shard_deadline(Duration::from_millis(d));
    }
    Ok(req)
}

/// Decode an `/ingest` body into the batch to insert.
pub fn parse_ingest(body: &Json) -> Result<Vec<SparseVector>, WireError> {
    parse_vector_list(body, "vectors", MAX_VECTORS_PER_INGEST)
}

/// Decode a `/delete` body into the point id to tombstone.
pub fn parse_delete(body: &Json) -> Result<u32, WireError> {
    body.get("id")
        .and_then(Json::as_u64)
        .filter(|&id| id <= u32::MAX as u64)
        .ok_or_else(|| WireError::bad("missing or invalid 'id'"))
        .map(|id| id as u32)
}

/// Encode a [`SearchResponse`] as the `/search` body: per-query hit lists,
/// the timed-out shard set (empty = complete answer), and the pinned
/// epoch's generation.
///
/// Written straight into one `String`, with no [`Json`] tree: the bytes
/// are those of the tree encoding, keys in sorted order and every number
/// printed as the `f64` [`Json::Num`] would hold (a `u32` prints the same
/// digits either way).
pub fn encode_search_response(resp: &SearchResponse) -> String {
    use std::fmt::Write;
    let hits: usize = resp.results.iter().map(Vec::len).sum();
    let mut out = String::with_capacity(64 + 56 * hits);
    out.push_str("{\"epoch_generation\":");
    match &resp.epoch {
        Some(e) => push_num(&mut out, e.generation as f64),
        None => out.push_str("null"),
    }
    out.push_str(",\"results\":[");
    for (i, hits) in resp.results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, h) in hits.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"distance\":");
            push_num(&mut out, f64::from(h.distance));
            let _ = write!(out, ",\"index\":{},\"node\":{}}}", h.index, h.node);
        }
        out.push(']');
    }
    out.push_str("],\"timed_out_shards\":[");
    for (i, &s) in resp.timed_out_shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{s}");
    }
    out.push_str("]}");
    out
}

/// Appends `n` exactly as [`Json::Num`] displays it.
fn push_num(out: &mut String, n: f64) {
    use std::fmt::Write;
    if n.is_finite() {
        // Writing to a `String` cannot fail.
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
    }
}

/// Encode a [`HealthReport`] — `/healthz`'s body, 200 or 503.
pub fn encode_health(report: &HealthReport) -> Json {
    Json::obj(vec![
        ("healthy", Json::Bool(report.healthy())),
        ("degraded", Json::Bool(report.degraded)),
        (
            "degraded_reason",
            report
                .degraded_reason
                .as_ref()
                .map_or(Json::Null, |r| Json::Str(r.clone())),
        ),
        ("wal_lag_rows", Json::Num(report.wal_lag_rows as f64)),
        ("persist_retries", Json::Num(report.persist_retries as f64)),
        ("merge_backlog", Json::Num(report.merge_backlog as f64)),
        ("live_points", Json::Num(report.live_points as f64)),
        (
            "retired_pending_purge",
            Json::Num(report.retired_pending_purge as f64),
        ),
        ("window_lag", Json::Num(report.window_lag as f64)),
        ("merge_failures", Json::Num(report.merge_failures as f64)),
        (
            "last_merge_failure",
            report
                .last_merge_failure
                .as_ref()
                .map_or(Json::Null, |m| Json::Str(m.clone())),
        ),
    ])
}

/// Map a backend [`PlshError`] to the status a client should see: a
/// write refused for capacity is 429 (slow down and retry), a degraded
/// backend 503 (retry once it heals), an I/O failure 500, and everything
/// else the client sent 400.
pub fn backend_error_status(err: &PlshError) -> u16 {
    match err {
        PlshError::CapacityExceeded { .. } => 429,
        PlshError::Degraded(_) => 503,
        PlshError::Io(_) => 500,
        _ => 400,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn backend_errors_map_to_statuses() {
        let status = |e: PlshError| backend_error_status(&e);
        assert_eq!(status(PlshError::CapacityExceeded { capacity: 10 }), 429);
        assert_eq!(status(PlshError::Degraded("wal".into())), 503);
        assert_eq!(status(PlshError::Io("disk".into())), 500);
        assert_eq!(status(PlshError::InvalidParams("k".into())), 400);
    }

    #[test]
    fn search_round_trip_builds_request() {
        let body = json::parse(
            r#"{"queries": [[[0, 0.6], [7, 0.8]]], "top_k": 3, "max_candidates": 100, "shard_deadline_ms": 50}"#,
        )
        .unwrap();
        let req = parse_search(&body).unwrap();
        assert_eq!(req.queries().len(), 1);
        assert_eq!(req.queries()[0].indices(), &[0, 7]);
        assert_eq!(req.max_candidates(), Some(100));
        assert_eq!(req.shard_deadline(), Some(Duration::from_millis(50)));
    }

    #[test]
    fn normalize_flag_scales_to_unit() {
        let body =
            json::parse(r#"{"queries": [[[0, 3.0], [1, 4.0]]], "normalize": true}"#).unwrap();
        let req = parse_search(&body).unwrap();
        let norm = req.queries()[0].norm();
        assert!((norm - 1.0).abs() < 1e-6, "norm {norm}");
    }

    #[test]
    fn rejects_malformed_bodies() {
        for text in [
            r#"{}"#,
            r#"{"queries": []}"#,
            r#"{"queries": [[[0]]]}"#,
            r#"{"queries": [[[0, 1.0]]], "top_k": 0}"#,
            r#"{"queries": [[[0, 1.0]]], "radius": -1}"#,
            r#"{"queries": "nope"}"#,
        ] {
            let body = json::parse(text).unwrap();
            let err = parse_search(&body).unwrap_err();
            assert_eq!(err.status, 400, "{text}");
        }
    }

    #[test]
    fn delete_parses_id() {
        let body = json::parse(r#"{"id": 42}"#).unwrap();
        assert_eq!(parse_delete(&body).unwrap(), 42);
        let bad = json::parse(r#"{"id": -1}"#).unwrap();
        assert!(parse_delete(&bad).is_err());
    }

    /// The `Json`-tree encoding `encode_search_response` replaced, kept as
    /// the byte-for-byte reference.
    fn tree_encoding(resp: &SearchResponse) -> Json {
        let results = Json::Arr(
            resp.results
                .iter()
                .map(|hits| {
                    Json::Arr(
                        hits.iter()
                            .map(|h| {
                                Json::obj(vec![
                                    ("node", Json::Num(h.node as f64)),
                                    ("index", Json::Num(h.index as f64)),
                                    ("distance", Json::Num(h.distance as f64)),
                                ])
                            })
                            .collect(),
                    )
                })
                .collect(),
        );
        let timed_out = Json::Arr(
            resp.timed_out_shards
                .iter()
                .map(|&s| Json::Num(s as f64))
                .collect(),
        );
        Json::obj(vec![
            ("results", results),
            ("timed_out_shards", timed_out),
            (
                "epoch_generation",
                resp.epoch
                    .as_ref()
                    .map_or(Json::Null, |e| Json::Num(e.generation as f64)),
            ),
        ])
    }

    #[test]
    fn search_encoding_matches_the_tree_encoding_byte_for_byte() {
        use plsh_core::engine::EpochInfo;
        use plsh_core::search::SearchHit;

        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // A third of the hits take an edge distance: zero, π, the
        // smallest and largest subnormals, the smallest normal, or 1. The
        // rest take random bit patterns folded into [0, π), NaN (encoded
        // as `null`) included.
        let special = [
            0.0f32,
            std::f32::consts::PI,
            f32::from_bits(1),
            f32::from_bits(0x007F_FFFF),
            f32::MIN_POSITIVE,
            1.0,
        ];
        let epoch = |generation| EpochInfo {
            generation,
            static_points: 0,
            sealed_generations: 0,
            sealed_points: 0,
            visible_points: 0,
            static_base: 0,
            retired_below: 0,
        };
        let mut cases = vec![SearchResponse {
            results: Vec::new(),
            stats: None,
            phase_timings: None,
            epoch: None,
            timed_out_shards: Vec::new(),
        }];
        for case in 0..300u64 {
            let results = (0..next() % 4)
                .map(|_| {
                    (0..next() % 12)
                        .map(|_| {
                            let r = next();
                            let distance = if r % 3 == 0 {
                                special[(r >> 8) as usize % special.len()]
                            } else {
                                f32::from_bits((r >> 8) as u32) % std::f32::consts::PI
                            };
                            SearchHit {
                                node: (r >> 40) as u32 % 5,
                                index: if r % 7 == 0 {
                                    u32::MAX
                                } else {
                                    (r >> 16) as u32
                                },
                                distance: distance.abs(),
                            }
                        })
                        .collect()
                })
                .collect();
            cases.push(SearchResponse {
                results,
                stats: None,
                phase_timings: None,
                epoch: (case % 3 != 0).then(|| epoch(next() >> (next() % 64))),
                timed_out_shards: (0..next() % 3).map(|_| next() as u32 % 8).collect(),
            });
        }
        for resp in &cases {
            assert_eq!(
                encode_search_response(resp),
                tree_encoding(resp).to_string()
            );
        }
    }

    #[test]
    fn health_encoding_has_degraded_and_backlog() {
        let report = HealthReport {
            degraded: true,
            degraded_reason: Some("disk".into()),
            wal_lag_rows: 3,
            persist_retries: 1,
            merge_backlog: 2,
            live_points: 40,
            retired_pending_purge: 5,
            window_lag: 1,
            merge_failures: 2,
            last_merge_failure: Some("shard1.boom".into()),
        };
        let j = encode_health(&report);
        assert_eq!(j.get("degraded").and_then(Json::as_bool), Some(true));
        assert_eq!(j.get("merge_backlog").and_then(Json::as_u64), Some(2));
        assert_eq!(j.get("live_points").and_then(Json::as_u64), Some(40));
        assert_eq!(
            j.get("retired_pending_purge").and_then(Json::as_u64),
            Some(5)
        );
        assert_eq!(j.get("window_lag").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("merge_failures").and_then(Json::as_u64), Some(2));
        assert_eq!(
            j.get("last_merge_failure").and_then(Json::as_str),
            Some("shard1.boom")
        );
    }
}
