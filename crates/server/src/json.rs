//! Minimal JSON encode/decode for the wire types.
//!
//! The workspace has no external runtime dependencies, so the server
//! carries its own recursive-descent parser and writer. It covers exactly
//! what the wire needs: the six JSON value kinds, `\uXXXX` escapes, and a
//! depth limit so a hostile body cannot blow the parser's stack. Numbers
//! are kept as `f64`, which is lossless for the `u32`/`f32` payloads PLSH
//! exchanges.
//!
//! The lexer is also a pull reader inside the crate: `/search` and
//! `/ingest` bodies are decoded through it token by token, with no [`Json`]
//! tree (`wire::decode_search`, `wire::decode_ingest`).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// Nesting depth at which [`parse`] gives up. Wire payloads are at most
/// three levels deep (`{"queries": [[[i, w], ...], ...]}`), so 32 leaves
/// headroom without letting `[[[[...` recurse to a stack overflow.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value. Objects use a `BTreeMap` so encoding is
/// deterministic — handy for tests that compare whole bodies.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All JSON numbers, integral or not.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup that is `None` for non-objects and missing keys alike.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Integral numbers only: rejects `1.5` rather than truncating it.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(as_u64)
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience constructor for object literals.
    pub fn obj(entries: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.is_finite() {
                    write!(f, "{n}")
                } else {
                    // JSON has no NaN/Inf; null is the conventional fallback.
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Parse `input` as a single JSON value; trailing non-whitespace is an
/// error. The message names the byte offset so protocol tests can assert
/// something meaningful.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser::new(input);
    let value = p.value_as::<true>(0)?;
    p.finish()?;
    Ok(value)
}

/// [`Json::as_u64`] on a bare number: integral values only.
pub(crate) fn as_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64).then_some(n as u64)
}

/// The one JSON lexer: [`parse`] builds its tree on it, and the wire
/// decoders pull a body through it token by token (`wire::decode_*`), so
/// both accept the same texts with the same error messages and offsets.
///
/// The cursor sits on the next token, whitespace already skipped, after
/// [`new`](Self::new) and after every method that reads a value or a
/// separator.
pub(crate) struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// A reader on the first value of `input`.
    pub(crate) fn new(input: &'a str) -> Parser<'a> {
        let mut p = Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        p
    }

    /// Ends the text after its one top-level value: only whitespace may
    /// follow.
    pub(crate) fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing bytes at offset {}", self.pos));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    pub(crate) fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Whether a number token starts under the cursor.
    pub(crate) fn at_number(&self) -> bool {
        matches!(self.peek(), Some(b'-' | b'0'..=b'9'))
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    /// Reads a `true` or `false` under the cursor; `None`, having read
    /// nothing, for anything else.
    pub(crate) fn bool(&mut self) -> Option<bool> {
        let b = if self.eat_literal("true") {
            true
        } else if self.eat_literal("false") {
            false
        } else {
            return None;
        };
        self.skip_ws();
        Some(b)
    }

    /// Reads the value under the cursor at nesting `depth`, with every
    /// check [`parse`] makes, and builds nothing.
    pub(crate) fn skip_value(&mut self, depth: usize) -> Result<(), String> {
        self.value_as::<false>(depth).map(drop)
    }

    /// The value grammar. Without `KEEP` it only checks: strings, arrays
    /// and objects come back empty and nothing is allocated.
    fn value_as<const KEEP: bool>(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        let value = match self.peek() {
            None => return Err("unexpected end of input".to_string()),
            Some(b'n') if self.eat_literal("null") => Json::Null,
            Some(b't') if self.eat_literal("true") => Json::Bool(true),
            Some(b'f') if self.eat_literal("false") => Json::Bool(false),
            Some(b'"') => Json::Str(self.string(KEEP)?.into_owned()),
            Some(b'[') => {
                let mut items = Vec::new();
                if self.open_array()? {
                    loop {
                        let item = self.value_as::<KEEP>(depth + 1)?;
                        if KEEP {
                            items.push(item);
                        }
                        if !self.next_element()? {
                            break;
                        }
                    }
                }
                Json::Arr(items)
            }
            Some(b'{') => {
                let mut map = BTreeMap::new();
                if self.open_object()? {
                    loop {
                        let key = self.key_as(KEEP)?;
                        let value = self.value_as::<KEEP>(depth + 1)?;
                        if KEEP {
                            map.insert(key.into_owned(), value);
                        }
                        if !self.next_member()? {
                            break;
                        }
                    }
                }
                Json::Obj(map)
            }
            Some(b'-' | b'0'..=b'9') => Json::Num(self.number()?),
            Some(b) => {
                return Err(format!(
                    "unexpected byte 0x{:02x} at offset {}",
                    b, self.pos
                ))
            }
        };
        self.skip_ws();
        Ok(value)
    }

    /// Opens the array under the cursor: `Ok(true)` with its first element
    /// under the cursor, `Ok(false)` past an empty array's `]`.
    pub(crate) fn open_array(&mut self) -> Result<bool, String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.skip_ws();
            return Ok(false);
        }
        Ok(true)
    }

    /// After an element: `Ok(true)` with the next element under the
    /// cursor, `Ok(false)` past the array's `]`.
    pub(crate) fn next_element(&mut self) -> Result<bool, String> {
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            Some(b']') => {
                self.pos += 1;
                self.skip_ws();
                Ok(false)
            }
            _ => Err(format!("expected ',' or ']' at offset {}", self.pos)),
        }
    }

    /// Opens the object under the cursor: `Ok(true)` with its first key
    /// under the cursor, `Ok(false)` past an empty object's `}`.
    pub(crate) fn open_object(&mut self) -> Result<bool, String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.skip_ws();
            return Ok(false);
        }
        Ok(true)
    }

    /// Reads a member's key and its `:`, leaving the value under the
    /// cursor. The key is borrowed from the input unless it holds an
    /// escape.
    pub(crate) fn key(&mut self) -> Result<Cow<'a, str>, String> {
        self.key_as(true)
    }

    fn key_as(&mut self, keep: bool) -> Result<Cow<'a, str>, String> {
        let key = self.string(keep)?;
        self.expect(b':')?;
        self.skip_ws();
        Ok(key)
    }

    /// After a member's value: `Ok(true)` with the next key under the
    /// cursor, `Ok(false)` past the object's `}`.
    pub(crate) fn next_member(&mut self) -> Result<bool, String> {
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            Some(b'}') => {
                self.pos += 1;
                self.skip_ws();
                Ok(false)
            }
            _ => Err(format!("expected ',' or '}}' at offset {}", self.pos)),
        }
    }

    /// Reads a string token. With `keep` it returns the text, borrowed
    /// unless it holds an escape; without, it only checks the escapes and
    /// returns `""`.
    fn string(&mut self, keep: bool) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut owned: Option<String> = None;
        loop {
            let run_start = self.pos;
            let Some(n) = self.bytes[run_start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                return Err("unterminated string".to_string());
            };
            // Both ends of the run are ASCII, so char boundaries of the
            // already-validated input.
            let run = &self.input[run_start..run_start + n];
            self.pos = run_start + n + 1;
            if self.bytes[run_start + n] == b'"' {
                self.skip_ws();
                return Ok(match owned {
                    Some(mut s) => {
                        s.push_str(run);
                        Cow::Owned(s)
                    }
                    None if keep => Cow::Borrowed(&self.input[start..run_start + n]),
                    None => Cow::Borrowed(""),
                });
            }
            let c = self.escape()?;
            if keep {
                let s = owned.get_or_insert_with(String::new);
                s.push_str(run);
                s.push(c);
            }
        }
    }

    /// Decodes one escape; the cursor is just past its backslash.
    fn escape(&mut self) -> Result<char, String> {
        let esc = self.peek();
        // Every arm leaves `pos` just past what it consumed.
        self.pos += 1;
        Ok(match esc {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let code = self.hex4()?;
                // Surrogate pairs: a high surrogate must be followed by
                // `\uDC00..DFFF`; lone or mismatched surrogates become
                // U+FFFD rather than an error.
                if (0xD800..0xDC00).contains(&code) {
                    if self.eat_literal("\\u") {
                        let low = self.hex4()?;
                        if (0xDC00..0xE000).contains(&low) {
                            let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(combined).unwrap_or('\u{FFFD}')
                        } else {
                            '\u{FFFD}'
                        }
                    } else {
                        '\u{FFFD}'
                    }
                } else {
                    char::from_u32(code).unwrap_or('\u{FFFD}')
                }
            }
            _ => return Err(format!("bad escape at offset {}", self.pos - 1)),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "bad \\u escape".to_string())?;
        let code =
            u32::from_str_radix(s, 16).map_err(|_| format!("bad \\u escape at {}", self.pos))?;
        self.pos = end;
        Ok(code)
    }

    /// A number token's text, unchecked: an optional `-`, then every byte
    /// that may continue a number.
    fn number_token(&mut self) -> &'a str {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        &self.input[start..self.pos]
    }

    /// Reads the number under the cursor (see [`at_number`](Self::at_number)).
    pub(crate) fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        let text = self.number_token();
        let n: f64 = text
            .parse()
            .map_err(|_| format!("bad number '{text}' at offset {start}"))?;
        if !n.is_finite() {
            return Err(format!("non-finite number '{text}'"));
        }
        self.skip_ws();
        Ok(n)
    }

    /// Reads the number under the cursor as [`Json::as_u64`] reads its
    /// value: `None` unless integral and non-negative. A token of at most
    /// 15 digits is exact in an `f64`, so it skips the float parse.
    pub(crate) fn integer(&mut self) -> Result<Option<u64>, String> {
        let start = self.pos;
        let text = self.number_token();
        if text.len() <= 15 && !text.is_empty() && text.bytes().all(|b| b.is_ascii_digit()) {
            self.skip_ws();
            return Ok(Some(
                text.bytes().fold(0u64, |n, b| n * 10 + u64::from(b - b'0')),
            ));
        }
        self.pos = start;
        Ok(as_u64(self.number()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "0", "-1.5", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(v.to_string(), text);
        }
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"queries": [[[0, 0.5], [3, 1.0]]], "top_k": 5}"#).unwrap();
        assert_eq!(v.get("top_k").and_then(Json::as_u64), Some(5));
        let q = v.get("queries").and_then(Json::as_arr).unwrap();
        assert_eq!(q[0].as_arr().unwrap().len(), 2);
    }

    #[test]
    fn escapes_survive_round_trip() {
        let v = parse(r#""a\"b\\c\nd\u0041e\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAe\u{e9}"));
        let re = parse(&Json::Str("a\"b\\c\nd".into()).to_string()).unwrap();
        assert_eq!(re.as_str(), Some("a\"b\\c\nd"));
    }

    #[test]
    fn surrogate_pair_decodes() {
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn rejects_garbage() {
        for text in [
            "", "{", "[1,", "{\"a\"}", "tru", "1.2.3", "[1] x", "\"\\q\"",
        ] {
            assert!(parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn depth_limit_blocks_deep_nesting() {
        let deep = "[".repeat(60) + &"]".repeat(60);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn f32_distances_round_trip_exactly() {
        // The bench harness relies on this: Rust's shortest-repr float
        // Display means f32 -> JSON -> f64 -> f32 is the identity.
        for x in [0.123_456_79_f32, 1.0, 0.999_999_9, 3.402_823_5e38] {
            let json = Json::Num(x as f64).to_string();
            let back = parse(&json).unwrap().as_f64().unwrap() as f32;
            assert_eq!(back, x);
        }
    }
}
