//! The byte decoders `wire::decode_ingest` and `wire::decode_search`
//! against the reference decoders: `json::parse` (a syntax error answers
//! 400 `invalid JSON body: …`, as the server does) followed by
//! `wire::parse_ingest` / `wire::parse_search`. On every generated body
//! both sides must give the same vectors bit for bit, or the same status
//! and message, and neither may panic.
//!
//! Bodies are valid ones with random whitespace and member order,
//! duplicate and unknown members of any shape, `\u`-escaped keys, dims in
//! every spelling, `normalize` of any type, lists of 0, 1, cap and cap+1
//! vectors and malformed pairs; then every truncation of a valid body,
//! single-byte edits of one, and random bytes.

use plsh_core::search::SearchRequest;
use plsh_core::SparseVector;
use plsh_server::json;
use plsh_server::wire::{self, MAX_QUERIES_PER_REQUEST, MAX_VECTORS_PER_INGEST};
use proptest::prelude::*;
use proptest::TestRng;
use std::time::Instant;

type Outcome<T> = Result<T, (u16, String)>;

fn reference_ingest(text: &str) -> Outcome<Vec<SparseVector>> {
    let body = json::parse(text).map_err(|e| (400, format!("invalid JSON body: {e}")))?;
    wire::parse_ingest(&body).map_err(|e| (e.status, e.message))
}

fn reference_search(text: &str) -> Outcome<SearchRequest> {
    let body = json::parse(text).map_err(|e| (400, format!("invalid JSON body: {e}")))?;
    wire::parse_search(&body).map_err(|e| (e.status, e.message))
}

/// A vector as comparable bits.
fn bits(v: &SparseVector) -> (Vec<u32>, Vec<u32>) {
    (
        v.indices().to_vec(),
        v.values().iter().map(|x| x.to_bits()).collect(),
    )
}

/// Everything the wire sets on a search request, as comparable bits.
type RequestBits = (
    Vec<(Vec<u32>, Vec<u32>)>,
    String,
    Option<u32>,
    Option<usize>,
    Option<std::time::Duration>,
);

fn request_bits(req: &SearchRequest) -> RequestBits {
    (
        req.queries().iter().map(bits).collect(),
        format!("{:?}", req.mode()),
        req.radius_override().map(f32::to_bits),
        req.max_candidates(),
        req.shard_deadline(),
    )
}

fn same_ingest(text: &str) -> Result<(), TestCaseError> {
    let got = wire::decode_ingest(text).map_err(|e| (e.status, e.message));
    let want = reference_ingest(text);
    let got = got.map(|vs| vs.iter().map(bits).collect::<Vec<_>>());
    let want = want.map(|vs| vs.iter().map(bits).collect::<Vec<_>>());
    prop_assert_eq!(got, want, "ingest body {:?}", clip(text));
    Ok(())
}

fn same_search(text: &str) -> Result<(), TestCaseError> {
    let got = wire::decode_search(text).map_err(|e| (e.status, e.message));
    let want = reference_search(text);
    prop_assert_eq!(
        got.map(|r| request_bits(&r)),
        want.map(|r| request_bits(&r)),
        "search body {:?}",
        clip(text)
    );
    Ok(())
}

/// Failure messages quote at most the start of a (possibly huge) body.
fn clip(text: &str) -> &str {
    let mut end = text.len().min(600);
    while !text.is_char_boundary(end) {
        end -= 1;
    }
    &text[..end]
}

// ---------------------------------------------------------------------------
// Body generator
// ---------------------------------------------------------------------------

struct Gen<'a> {
    rng: &'a mut TestRng,
    /// Percent of tokens drawn malformed: 0 for half the bodies, so most
    /// bodies decode and their vectors are compared bit for bit.
    noise: u64,
}

impl<'a> Gen<'a> {
    fn new(rng: &'a mut TestRng) -> Self {
        let noise = if rng.next_below(2) == 0 { 0 } else { 4 };
        Gen { rng, noise }
    }

    fn below(&mut self, n: u64) -> u64 {
        self.rng.next_below(n)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// Whether the next token is malformed.
    fn noisy(&mut self) -> bool {
        let noise = self.noise;
        self.chance(noise)
    }

    fn pick<'s>(&mut self, items: &[&'s str]) -> &'s str {
        items[self.below(items.len() as u64) as usize]
    }

    /// Whitespace between tokens: mostly none or one space.
    fn ws(&mut self) -> &'static str {
        match self.below(10) {
            0..=4 => "",
            5..=7 => " ",
            8 => "\n  ",
            _ => "\t\r\n",
        }
    }

    /// A JSON string literal spelling `s`, some characters as `\u` escapes
    /// (hex case random) or `\/`.
    fn string(&mut self, s: &str) -> String {
        let escape = self.chance(20);
        let mut out = String::from("\"");
        for c in s.chars() {
            if escape && self.chance(40) && (c as u32) < 0x10000 {
                let hex = format!("{:04x}", c as u32);
                out.push_str("\\u");
                out.push_str(&if self.chance(50) {
                    hex.to_uppercase()
                } else {
                    hex
                });
            } else if c == '/' && self.chance(50) {
                out.push_str("\\/");
            } else if c == '"' || c == '\\' {
                out.push('\\');
                out.push(c);
            } else {
                out.push(c);
            }
        }
        out.push('"');
        out
    }

    /// A dim in one of its spellings: plain, padded, fractional or
    /// exponent forms of an integer, out of range, negative, non-finite
    /// (a syntax error) or not a number at all.
    fn dim(&mut self, d: u32) -> String {
        if !self.noisy() {
            return match self.below(20) {
                0 => format!("{d}.0"),
                1 => format!("{d}e0"),
                2 => format!("00{d}"),
                3 => "-0".to_string(),
                4 => "4.2e1".to_string(),
                5 => "1e+2".to_string(),
                _ => d.to_string(),
            };
        }
        match self.below(10) {
            0 => "1e999".to_string(),
            1 => format!("{d}.5"),
            2 => format!("-{}", d + 1),
            3 => u32::MAX.to_string(),
            4 => (u64::from(u32::MAX) + 1).to_string(),
            5 => "123456789012345".to_string(),
            6 => "1234567890123456789".to_string(),
            7 => self
                .pick(&["\"7\"", "null", "true", "[7]", "{}"])
                .to_string(),
            _ => self
                .pick(&["1.", ".5", "1e", "--1", "1.2.3", "0x10", "1-2"])
                .to_string(),
        }
    }

    fn weight(&mut self) -> String {
        if self.noisy() {
            return match self.below(4) {
                0 => "1e39".to_string(),
                1 => "1e999".to_string(),
                _ => self
                    .pick(&["\"0.5\"", "null", "false", "[]", "{\"w\":1}"])
                    .to_string(),
            };
        }
        match self.below(40) {
            0 => "0".to_string(),
            1 => "-0.0".to_string(),
            2 => "1e-50".to_string(),
            3 => format!("{}", self.below(1000)),
            4 => format!("{}e-3", self.below(1000)),
            5 => "1E+2".to_string(),
            6 => "3.4e38".to_string(),
            _ => {
                let w = (self.rng.next_f64() * 2.0 - 0.5) as f32;
                format!("{w}")
            }
        }
    }

    /// One `[dim, weight]` entry, now and then malformed.
    fn pair(&mut self, d: u32) -> String {
        let (a, b, c) = (self.ws(), self.ws(), self.ws());
        if !self.noisy() {
            return format!("[{a}{}{b},{c}{}]", self.dim(d), self.weight());
        }
        match self.below(4) {
            0 => "[]".to_string(),
            1 => format!("[{}]", self.dim(d)),
            2 => format!("[{a}{},{b}{},{c}1]", self.dim(d), self.weight()),
            _ => self.pick(&["7", "\"x\"", "null", "{}"]).to_string(),
        }
    }

    /// A vector; duplicate dims (and their cancellation) and unsorted
    /// dims are common, an empty or non-array vector is rare.
    fn vector(&mut self, dims: u32) -> String {
        if self.noisy() {
            return match self.below(3) {
                0 => "[]".to_string(),
                1 => self
                    .pick(&["7", "\"v\"", "null", "{\"a\":[]}", "[7]"])
                    .to_string(),
                _ => format!("[[{0},0.5],[{0},-0.5]]", self.below(dims as u64)),
            };
        }
        let n = 1 + self.below(8);
        let mut d = self.below(dims as u64) as u32;
        let mut pairs = Vec::new();
        for _ in 0..n {
            pairs.push(self.pair(d));
            d = match self.below(4) {
                0 => d,
                1 => self.below(dims as u64) as u32,
                _ => d + 1 + self.below(50) as u32,
            };
        }
        format!("[{}]", self.join(&pairs))
    }

    fn join(&mut self, items: &[String]) -> String {
        let mut out = String::new();
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                let (a, b) = (self.ws(), self.ws());
                out.push_str(a);
                out.push(',');
                out.push_str(b);
            }
            out.push_str(item);
        }
        out
    }

    /// A vector list: usually a few vectors, sometimes none, exactly the
    /// cap, or one past it (those with one-pair vectors, to stay small).
    fn vector_list(&mut self, cap: usize) -> String {
        let n = match self.below(50) {
            0 => 0,
            1 => cap,
            2 => cap + 1,
            3 => 1,
            _ => 1 + self.below(6) as usize,
        };
        let vectors: Vec<String> = if n >= cap {
            (0..n).map(|i| format!("[[{},1]]", i % 97)).collect()
        } else {
            (0..n).map(|_| self.vector(200)).collect()
        };
        format!("[{}{}]", self.ws(), self.join(&vectors))
    }

    /// Any JSON value, nested up to `depth` more levels; deep ones cross
    /// the parser's nesting limit.
    fn any_value(&mut self, depth: u32) -> String {
        let kind = if depth == 0 {
            self.below(5)
        } else {
            self.below(8)
        };
        match kind {
            0 => self.pick(&["null", "true", "false"]).to_string(),
            1 => self.weight(),
            2 => self.dim(5),
            3 => {
                let s = self
                    .pick(&["", "a", "é\u{1F600}", "q\"\\", "vectors"])
                    .to_string();
                self.string(&s)
            }
            4 => "[[[0,1]]]".to_string(),
            5 | 6 => {
                let items: Vec<String> = (0..self.below(4))
                    .map(|_| self.any_value(depth - 1))
                    .collect();
                format!("[{}]", self.join(&items))
            }
            _ => {
                let members: Vec<String> = (0..self.below(4))
                    .map(|_| {
                        let k = self
                            .pick(&["k", "vectors", "queries", "normalize", "top_k"])
                            .to_string();
                        let key = self.string(&k);
                        let ws = self.ws();
                        format!("{key}{ws}:{}", self.any_value(depth - 1))
                    })
                    .collect();
                format!("{{{}}}", self.join(&members))
            }
        }
    }

    /// An array nested `n` deep around a number: past 32 levels the
    /// parser refuses it.
    fn deep(&mut self, n: usize) -> String {
        format!("{}1{}", "[".repeat(n), "]".repeat(n))
    }

    fn option_value(&mut self) -> String {
        let noise = self.noise;
        if self.chance(5 * noise) {
            return match self.below(6) {
                0 => "0".to_string(),
                1 => "-1".to_string(),
                2 => "1.5".to_string(),
                3 => "18446744073709551616".to_string(),
                4 => "3.5e38".to_string(),
                _ => self.pick(&["\"5\"", "null", "true", "[5]"]).to_string(),
            };
        }
        match self.below(4) {
            0 => "1e1".to_string(),
            1 => "2.0".to_string(),
            _ => (1 + self.below(100)).to_string(),
        }
    }

    /// A body for `list_key`: its members in random order, some of them
    /// repeated, plus unknown members; now and then not an object at all.
    fn body(&mut self, list_key: &str, cap: usize, options: &[&str]) -> String {
        if self.chance(3) {
            return self.any_value(2);
        }
        let mut members = Vec::new();
        let lists = match self.below(20) {
            0 => 0,
            1 => 2,
            _ => 1,
        };
        for _ in 0..lists {
            let v = self.vector_list(cap);
            members.push((list_key.to_string(), v));
        }
        if self.chance(40) {
            let v = if self.noisy() {
                self.pick(&["null", "1", "\"true\""])
            } else {
                self.pick(&["true", "false"])
            }
            .to_string();
            members.push(("normalize".to_string(), v));
        }
        for &o in options {
            if self.chance(30) {
                let v = self.option_value();
                members.push((o.to_string(), v));
            }
        }
        for _ in 0..self.below(3) {
            let k = self
                .pick(&["extra", "Vectors", "queries", "vectors", "id", ""])
                .to_string();
            let v = if self.noisy() {
                let n = 28 + self.below(8) as usize;
                self.deep(n)
            } else {
                self.any_value(3)
            };
            members.push((k, v));
        }
        // Shuffle.
        for i in (1..members.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            members.swap(i, j);
        }
        let members: Vec<String> = members
            .into_iter()
            .map(|(k, v)| {
                let key = self.string(&k);
                let (a, b) = (self.ws(), self.ws());
                format!("{key}{a}:{b}{v}")
            })
            .collect();
        let (a, b) = (self.ws(), self.ws());
        format!("{a}{{{}{}}}{b}", self.ws(), self.join(&members))
    }

    /// `text` with one byte-level edit: a byte deleted, inserted or
    /// replaced by one of JSON's structural bytes (kept valid UTF-8).
    fn edit(&mut self, text: &str) -> String {
        let mut bytes = text.as_bytes().to_vec();
        let at = self.below(bytes.len() as u64 + 1) as usize;
        let b = self
            .pick(&[
                "[", "]", "{", "}", ",", ":", "\"", "\\", "-", "e", "0", " ", "x",
            ])
            .as_bytes()[0];
        match self.below(3) {
            0 if at < bytes.len() => {
                bytes.remove(at);
            }
            1 if at < bytes.len() => bytes[at] = b,
            _ => bytes.insert(at, b),
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    fn random_bytes(&mut self) -> String {
        let alphabet = b"[]{},:\"\\ 0123456789.eE+-truefalsnl\n\xff";
        let n = self.below(40) as usize;
        let bytes: Vec<u8> = (0..n)
            .map(|_| alphabet[self.below(alphabet.len() as u64) as usize])
            .collect();
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

const SEARCH_OPTIONS: [&str; 4] = ["top_k", "radius", "max_candidates", "shard_deadline_ms"];

fn ingest_body(rng: &mut TestRng) -> String {
    Gen::new(rng).body("vectors", MAX_VECTORS_PER_INGEST, &[])
}

fn search_body(rng: &mut TestRng) -> String {
    Gen::new(rng).body("queries", MAX_QUERIES_PER_REQUEST, &SEARCH_OPTIONS)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decode_ingest_equals_the_reference(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        same_ingest(&ingest_body(&mut rng))?;
    }

    #[test]
    fn decode_search_equals_the_reference(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        same_search(&search_body(&mut rng))?;
    }

    #[test]
    fn edited_bodies_decode_like_the_reference(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let ingest = ingest_body(&mut rng);
        let search = search_body(&mut rng);
        let mut g = Gen::new(&mut rng);
        for _ in 0..4 {
            same_ingest(&g.edit(&ingest))?;
            same_search(&g.edit(&search))?;
        }
        let noise = g.random_bytes();
        same_ingest(&noise)?;
        same_search(&noise)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_truncation_decodes_like_the_reference(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let (ingest, search) = (ingest_body(&mut rng), search_body(&mut rng));
        for (body, is_search) in [(&ingest, false), (&search, true)] {
            // Truncating a cap-sized list is the same test 40K times over.
            if body.len() > 4000 {
                continue;
            }
            for end in (0..body.len()).filter(|&e| body.is_char_boundary(e)) {
                if is_search {
                    same_search(&body[..end])?;
                } else {
                    same_ingest(&body[..end])?;
                }
            }
        }
    }
}

#[test]
fn pinned_bodies_decode_like_the_reference() {
    let ingest = [
        r#"{"vectors": [[[7, 0.5]]]}"#,
        r#"{"vectors": [[[7.0, 0.5]]], "normalize": true}"#,
        r#"{"vectors": [[[7e0, 0.5], [-0, 1]]]}"#,
        r#"{"vectors": [[[007, 0.5]]]}"#,
        r#"{"vectors": [[[1e999, 0.5]]]}"#,
        r#"{"vectors": [[[1, 1e39]]]}"#,
        r#"{"vectors": [[[1, 0.5], [1, -0.5]]]}"#,
        r#"{"vectors": [[[1, 0.5]]], "vectors": []}"#,
        r#"{"vectors": [], "vectors": [[[1, 0.5]]]}"#,
        r#"{"vectors": [[[1, 0.5]]], "normalize": 1}"#,
        r#"{"normalize": false, "vectors": [[[1, 0.5]], [[2]]], "x": [[[[]]]]}"#,
        r#"{"vectors": [[[4294967295, 1]]]}"#,
        r#"{"vectors": [[[4294967296, 1]]]}"#,
        r#"{"vectors": [[[1, 1]]]} x"#,
        r#"{"vectors": [[[1, "1"]]]"#,
        r#"[[[1, 1]]]"#,
        "",
        "   ",
        "\"\\",
    ];
    for text in ingest {
        same_ingest(text).unwrap();
    }
    let deep = format!(
        r#"{{"vectors": [[[1, 1]]], "x": {}}}"#,
        "[".repeat(40) + &"]".repeat(40)
    );
    same_ingest(&deep).unwrap();
    let over_cap = format!(
        r#"{{"vectors": [{}]}}"#,
        vec!["[[1, 1]]"; MAX_VECTORS_PER_INGEST + 1].join(",")
    );
    same_ingest(&over_cap).unwrap();
    let search = [
        r#"{"queries": [[[0, 0.6], [7, 0.8]]], "top_k": 3, "max_candidates": 100, "shard_deadline_ms": 50}"#,
        r#"{"queries": [[[0, 0.6]]], "radius": 0.5, "top_k": 1.0}"#,
        r#"{"top_k": 0, "queries": [[[0, 0.6]]], "radius": -1}"#,
        r#"{"queries": [[[0, 0.6]]], "radius": "wide", "top_k": 0}"#,
        r#"{"queries": [[[0, 0.6]]], "shard_deadline_ms": 1e3}"#,
        r#"{"queries": "nope"}"#,
        r#"{}"#,
    ];
    for text in search {
        same_search(text).unwrap();
    }
}

#[test]
fn ingest_response_matches_the_tree_encoding() {
    for ids in [
        vec![],
        vec![0],
        vec![7, 8, 9],
        vec![u32::MAX, 1 << 31, 12345],
    ] {
        let tree = json::Json::obj(vec![(
            "ids",
            json::Json::Arr(ids.iter().map(|&id| json::Json::Num(id as f64)).collect()),
        )]);
        assert_eq!(wire::encode_ingest_response(&ids), tree.to_string());
    }
}

/// A 500-document `/ingest` body shaped like the benchmark's: seven
/// `[dim, weight]` pairs per document, unit weights printed shortest.
fn ingest_body_of(docs: usize) -> String {
    let mut rng = TestRng::new(7);
    let vectors: Vec<String> = (0..docs)
        .map(|_| {
            let mut dims: Vec<u32> = (0..7).map(|_| rng.next_below(50_000) as u32).collect();
            dims.sort_unstable();
            dims.dedup();
            let pairs: Vec<(u32, f32)> = dims
                .iter()
                .map(|&d| (d, 0.1 + rng.next_f64() as f32))
                .collect();
            let v = SparseVector::unit(pairs).unwrap();
            let pairs: Vec<String> = v
                .indices()
                .iter()
                .zip(v.values())
                .map(|(d, w)| format!("[{d},{w}]"))
                .collect();
            format!("[{}]", pairs.join(","))
        })
        .collect();
    format!("{{\"vectors\":[{}]}}", vectors.join(","))
}

/// Prints µs per document for the byte decoder and the reference path on
/// a 500-document body (the benchmark's `server.ingest_decode_us_per_doc`
/// times the reference path). Run with
/// `cargo test --release -p plsh-server --test wire_decode -- --ignored --nocapture`.
#[test]
#[ignore]
fn decode_cost_per_document() {
    const DOCS: usize = 500;
    const ROUNDS: usize = 200;
    let body = ingest_body_of(DOCS);
    assert_eq!(wire::decode_ingest(&body).unwrap().len(), DOCS);
    let time = |f: &dyn Fn() -> usize| {
        let mut per_doc = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let t = Instant::now();
            assert_eq!(f(), DOCS);
            per_doc.push(t.elapsed().as_secs_f64() * 1e6 / DOCS as f64);
        }
        per_doc.sort_by(f64::total_cmp);
        per_doc[ROUNDS / 2]
    };
    let bytes = time(&|| wire::decode_ingest(&body).unwrap().len());
    let tree = time(&|| {
        wire::parse_ingest(&json::parse(&body).unwrap())
            .unwrap()
            .len()
    });
    println!(
        "{DOCS}-doc body ({} bytes), median of {ROUNDS}: decode_ingest {bytes:.3} us/doc, \
         json::parse + parse_ingest {tree:.3} us/doc ({:.2}x)",
        body.len(),
        tree / bytes
    );
}

/// The generator is only as good as what it reaches: most bodies must
/// decode, and every status message of both decoders must come up.
#[test]
fn generated_bodies_reach_every_outcome() {
    let mut seen = std::collections::BTreeMap::<String, usize>::new();
    let seeds = 2000u64;
    for seed in 0..seeds {
        let mut rng = TestRng::new(seed);
        let (ingest, search) = (ingest_body(&mut rng), search_body(&mut rng));
        for outcome in [
            reference_ingest(&ingest).map(drop),
            reference_search(&search).map(drop),
        ] {
            let class = match outcome {
                Ok(()) => "ok".to_string(),
                Err((_, m)) => m.split([':', ';']).next().unwrap_or_default().to_string(),
            };
            *seen.entry(class).or_default() += 1;
        }
    }
    assert!(
        seen["ok"] as u64 >= seeds / 2,
        "too few bodies decode: {seen:?}"
    );
    for class in [
        "invalid JSON body",
        "normalize must be a bool",
        "missing 'vectors' array",
        "missing 'queries' array",
        "'vectors' must not be empty",
        "'queries' must not be empty",
        "'vectors' holds 4097 vectors",
        "'queries' holds 1025 vectors",
        "vector must be an array of [dim, weight] pairs",
        "vector entry must be a [dim, weight] pair",
        "vector dimension must be a u32",
        "vector weight must be a number",
        "invalid vector",
        "top_k must be a positive integer",
        "radius must be a positive number",
        "max_candidates must be a positive integer",
        "shard_deadline_ms must be a positive integer",
    ] {
        assert!(
            seen.contains_key(class),
            "no body answered {class:?}: {seen:?}"
        );
    }
}
