//! The harness's HTTP/1.1 client: one keep-alive connection per load
//! thread, blocking, one request in flight. Also the wire encoders for
//! the bodies the harness sends and the decoder for the hits it checks.

use plsh::server::Json;
use plsh::{SearchHit, SparseVector};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Conn {
    reader: BufReader<TcpStream>,
}

pub struct Reply {
    pub status: u16,
    pub body: String,
    /// Status line + headers + body, as received.
    pub wire_bytes: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_read_timeout(Some(Duration::from_secs(30)))?;
        s.set_write_timeout(Some(Duration::from_secs(30)))?;
        s.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(s),
        })
    }

    /// One round trip. Any transport error, a closed connection, or a
    /// response that asks to close is an `Err`: on the workloads here the
    /// server has no reason to do either, so the caller counts it failed.
    pub fn round_trip(&mut self, raw: &[u8]) -> std::io::Result<Reply> {
        self.reader.get_ref().write_all(raw)?;
        let mut line = String::new();
        let mut wire_bytes = self.reader.read_line(&mut line)?;
        if wire_bytes == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or(std::io::ErrorKind::InvalidData)?;
        let mut content_length = 0usize;
        loop {
            line.clear();
            wire_bytes += self.reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some(v) = header.strip_prefix("Content-Length: ") {
                content_length = v.parse().map_err(|_| std::io::ErrorKind::InvalidData)?;
            }
            if header.eq_ignore_ascii_case("connection: close") {
                return Err(std::io::ErrorKind::ConnectionAborted.into());
            }
        }
        // The server caps bodies it sends at a few hundred KiB on these
        // workloads; refuse anything absurd before allocating for it.
        if content_length > 64 << 20 {
            return Err(std::io::ErrorKind::InvalidData.into());
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok(Reply {
            status,
            body: String::from_utf8(body).map_err(|_| std::io::ErrorKind::InvalidData)?,
            wire_bytes: wire_bytes + content_length,
        })
    }
}

fn push_vector(out: &mut String, v: &SparseVector) {
    out.push('[');
    for (i, (d, w)) in v.indices().iter().zip(v.values()).enumerate() {
        if i > 0 {
            out.push(',');
        }
        // `{}` prints the shortest string that parses back to the same
        // f32, so unit vectors cross the wire bit-exactly.
        write!(out, "[{d},{w}]").expect("writing to a String");
    }
    out.push(']');
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// `POST /search` for one query in k-NN mode.
pub fn search_request(q: &SparseVector, top_k: usize) -> Vec<u8> {
    let mut body = String::from("{\"queries\":[");
    push_vector(&mut body, q);
    body.push_str(&format!("],\"top_k\":{top_k}}}"));
    post("/search", &body)
}

/// `POST /ingest` for a batch of vectors.
pub fn ingest_request(vs: &[SparseVector]) -> Vec<u8> {
    let mut body = String::from("{\"vectors\":[");
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        push_vector(&mut body, v);
    }
    body.push_str("]}");
    post("/ingest", &body)
}

/// The hit list of a single-query `/search` answer, or `None` when the
/// body is not one.
pub fn decode_hits(body: &str) -> Option<Vec<SearchHit>> {
    let json = plsh::server::json::parse(body).ok()?;
    let results = json.get("results")?.as_arr()?;
    let [hits] = results else { return None };
    hits.as_arr()?
        .iter()
        .map(|h| {
            Some(SearchHit {
                node: u32::try_from(h.get("node")?.as_u64()?).ok()?,
                index: u32::try_from(h.get("index")?.as_u64()?).ok()?,
                distance: h.get("distance")?.as_f64()? as f32,
            })
        })
        .collect()
}

/// The ids of an `/ingest` answer.
pub fn decode_ids(body: &str) -> Option<Vec<u32>> {
    let json = plsh::server::json::parse(body).ok()?;
    json.get("ids")?
        .as_arr()?
        .iter()
        .map(|id| u32::try_from(Json::as_u64(id)?).ok())
        .collect()
}

/// Bit-for-bit equality of two hit lists (distances compared by bits).
pub fn hits_identical(a: &[SearchHit], b: &[SearchHit]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.node == y.node && x.index == y.index && x.distance.to_bits() == y.distance.to_bits()
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_bodies_parse_back_through_the_programs_wire_codec() {
        let v = SparseVector::unit(vec![(3, 0.25), (70, 1.5), (4999, 0.1)]).unwrap();
        let raw = search_request(&v, 10);
        let text = std::str::from_utf8(&raw).unwrap();
        let body = text.split("\r\n\r\n").nth(1).unwrap();
        let req =
            plsh::server::wire::parse_search(&plsh::server::json::parse(body).unwrap()).unwrap();
        assert_eq!(
            req.queries(),
            std::slice::from_ref(&v),
            "weights survive bit-exactly"
        );
        assert_eq!(req.mode(), plsh::SearchMode::Knn(10));

        let raw = ingest_request(&[v.clone(), v.clone()]);
        let text = std::str::from_utf8(&raw).unwrap();
        let body = text.split("\r\n\r\n").nth(1).unwrap();
        let vs =
            plsh::server::wire::parse_ingest(&plsh::server::json::parse(body).unwrap()).unwrap();
        assert_eq!(vs, vec![v.clone(), v]);
    }

    #[test]
    fn hit_decoding_round_trips_the_servers_encoding() {
        let hits = vec![
            SearchHit {
                node: 0,
                index: 17,
                distance: 0.123_456_79,
            },
            SearchHit {
                node: 0,
                index: 4,
                distance: 0.9,
            },
        ];
        let resp = plsh::SearchResponse {
            results: vec![hits.clone()],
            stats: None,
            phase_timings: None,
            epoch: None,
            timed_out_shards: Vec::new(),
        };
        let body = plsh::server::wire::encode_search_response(&resp).to_string();
        assert!(hits_identical(&decode_hits(&body).unwrap(), &hits));
        assert!(decode_hits("{\"results\":[]}").is_none());
        assert_eq!(decode_ids("{\"ids\":[1,2,3]}"), Some(vec![1, 2, 3]));
    }
}
