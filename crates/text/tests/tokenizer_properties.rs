//! Property-based tests of the text pipeline's invariants, and of its
//! bit-identity with the char-by-char tokenizer and per-term lookup that
//! the byte scanner and frozen term table replaced.

use std::collections::HashMap;

use proptest::prelude::*;

use plsh_core::sparse::SparseVector;
use plsh_text::{CorpusBuilder, IdfWeights, TextError, Tokenizer, Vectorizer, STOP_WORDS};

/// The char-by-char pipeline the scanner replaced, kept as the oracle: it
/// shares no code with the crate's scanner or term tables.
struct Oracle {
    stop_words: Vec<String>,
    min_len: usize,
}

impl Oracle {
    fn new(stop_words: &[&str], min_len: usize) -> Self {
        Self {
            stop_words: stop_words.iter().map(|s| s.to_string()).collect(),
            min_len,
        }
    }

    /// The crate's tokenizer with the same policy.
    fn tokenizer(&self) -> Tokenizer {
        Tokenizer::new(self.stop_words.iter().cloned(), self.min_len)
    }

    fn tokenize(&self, text: &str) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let mut current = String::new();
        let flush = |current: &mut String, out: &mut Vec<String>| {
            if current.len() >= self.min_len
                && !self.stop_words.iter().any(|s| s == current)
                && !out.iter().any(|t| t == current)
            {
                out.push(std::mem::take(current));
            } else {
                current.clear();
            }
        };
        for ch in text.chars() {
            if ch.is_alphabetic() {
                current.extend(ch.to_lowercase());
            } else if !current.is_empty() {
                flush(&mut current, &mut out);
            }
        }
        if !current.is_empty() {
            flush(&mut current, &mut out);
        }
        out
    }

    /// First-seen term ids and document frequencies over `docs`.
    fn train(&self, docs: &[String]) -> (HashMap<String, u32>, Vec<(String, u32)>) {
        let mut ids = HashMap::new();
        let mut terms: Vec<(String, u32)> = Vec::new();
        for d in docs {
            for t in self.tokenize(d) {
                let next = terms.len() as u32;
                let id = *ids.entry(t.clone()).or_insert(next);
                if id == next {
                    terms.push((t, 1));
                } else {
                    terms[id as usize].1 += 1;
                }
            }
        }
        (ids, terms)
    }

    fn to_vector(
        &self,
        ids: &HashMap<String, u32>,
        idf: &IdfWeights,
        text: &str,
    ) -> Result<SparseVector, TextError> {
        let pairs: Vec<(u32, f32)> = self
            .tokenize(text)
            .iter()
            .filter_map(|t| {
                let id = *ids.get(t)?;
                Some((id, idf.score(id)))
            })
            .collect();
        if pairs.is_empty() {
            return Err(TextError::OutOfVocabulary);
        }
        SparseVector::unit(pairs).map_err(TextError::Vector)
    }
}

/// Words a generated document draws on: stop words, 1-, 8- and 9-byte
/// tokens, the benchmark's `zq` shape, accents (precomposed and with a
/// combining mark), `ß` (upper case "SS"), `İ` (lower case two chars),
/// Greek, Cyrillic and CJK.
const WORDS: &[&str] = &[
    "the",
    "and",
    "of",
    "a",
    "i",
    "x",
    "fox",
    "quick",
    "brown",
    "abcdefgh",
    "abcdefghi",
    "abcdefgi",
    "zqab",
    "zqba",
    "zqabcdefg",
    "köln",
    "grüße",
    "straße",
    "İstanbul",
    "naïve",
    "cafe\u{301}",
    "σίσυφος",
    "жук",
    "日本語",
    "ǅemal",
];

/// Separators: spaces, punctuation and digit runs, an emoji, a lone
/// combining mark, a NUL byte and non-ASCII punctuation.
const SEPARATORS: &[&str] = &[
    " ", "  ", ", ", "!", "...", "\t", "\n", "42", "0", "_", "-", "@#$", "🦀", "\u{301}", "\0",
    "«", "\u{a0}", "1st",
];

/// Custom policy: its own stop words and a 3-byte minimum.
const CUSTOM_STOP_WORDS: &[&str] = &["fox", "köln", "zqab", "abcdefgh"];

/// A splitmix64 stream for the document generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One generated document: empty, whitespace-only, or up to 90 pieces
/// (pool words in random case, random letter runs, tokens of 64–100
/// bytes) joined by random separators.
fn document(rng: &mut Rng) -> String {
    match rng.below(16) {
        0 => return String::new(),
        1 => return " \t\n ".repeat(rng.below(3)),
        _ => {}
    }
    let mut doc = String::new();
    for _ in 0..1 + rng.below(90) {
        let word: String = match rng.below(10) {
            0 => (0..1 + rng.below(12))
                .map(|_| (b'a' + rng.below(26) as u8) as char)
                .collect(),
            1 => (0..64 + rng.below(37))
                .map(|_| (b'a' + rng.below(3) as u8) as char)
                .collect(),
            _ => WORDS[rng.below(WORDS.len())].to_string(),
        };
        for ch in word.chars() {
            if rng.below(3) == 0 {
                doc.extend(ch.to_uppercase());
            } else {
                doc.push(ch);
            }
        }
        doc.push_str(SEPARATORS[rng.below(SEPARATORS.len())]);
    }
    doc
}

/// The oracle's result and the crate's are the same bits: indices, every
/// value's f32 bit pattern, or the error variant.
fn same_bits(
    got: &Result<SparseVector, TextError>,
    want: &Result<SparseVector, TextError>,
) -> bool {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            g.indices() == w.indices()
                && g.values()
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(w.values().iter().map(|v| v.to_bits()))
        }
        (Err(g), Err(w)) => g == w,
        _ => false,
    }
}

/// Trains both pipelines on `train`, checks the vocabularies agree term
/// by term, and returns the crate's vectorizer with the oracle's ids.
fn train_both(oracle: &Oracle, train: &[String]) -> (Vectorizer, HashMap<String, u32>) {
    let mut b = CorpusBuilder::new(oracle.tokenizer());
    for d in train {
        assert_eq!(b.add_document(d), oracle.tokenize(d), "{d:?}");
    }
    let v = b.finish();
    let (ids, terms) = oracle.train(train);
    assert_eq!(v.vocabulary().num_docs(), train.len() as u32);
    let got: Vec<(String, u32)> = v
        .vocabulary()
        .iter()
        .map(|(t, id, df)| {
            assert_eq!(v.vocabulary().id(t), Some(id));
            (t.to_string(), df)
        })
        .collect();
    assert_eq!(got, terms);
    (v, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tokens_are_clean(text in ".{0,200}") {
        let t = Tokenizer::default();
        let tokens = t.tokenize(&text);
        for tok in &tokens {
            prop_assert!(!tok.is_empty());
            prop_assert!(tok.chars().all(char::is_alphabetic), "{tok:?}");
            prop_assert!(tok.chars().all(|c| c.to_lowercase().eq(std::iter::once(c))),
                "{tok:?} not lowercase");
            prop_assert!(!t.is_stop_word(tok));
        }
        // No duplicates.
        let mut sorted = tokens.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), tokens.len());
    }

    #[test]
    fn tokenization_is_stable_under_rejoining(text in "[a-zA-Z ,.!0-9]{0,200}") {
        // Tokenizing the space-joined tokens reproduces the tokens.
        let t = Tokenizer::default();
        let tokens = t.tokenize(&text);
        let rejoined = tokens.join(" ");
        prop_assert_eq!(t.tokenize(&rejoined), tokens);
    }

    #[test]
    fn vectorizer_is_total_and_unit(docs in proptest::collection::vec("[a-z ]{1,60}", 1..20)) {
        let mut b = CorpusBuilder::new(Tokenizer::default());
        for d in &docs {
            b.add_document(d);
        }
        let v = b.finish();
        for d in &docs {
            // Every observed document either vectorizes to a unit vector or
            // was entirely stop words / too short.
            match v.vectorize(d) {
                Some(sv) => {
                    prop_assert!((sv.norm() - 1.0).abs() < 1e-5);
                    prop_assert!(sv.indices().iter().all(|&i| i < v.dim()));
                }
                None => {
                    prop_assert!(Tokenizer::default().tokenize(d).is_empty());
                }
            }
        }
    }

    #[test]
    fn vocabulary_ids_are_dense_and_stable(docs in proptest::collection::vec("[a-z ]{1,40}", 1..15)) {
        let mut b1 = CorpusBuilder::new(Tokenizer::default());
        let mut b2 = CorpusBuilder::new(Tokenizer::default());
        for d in &docs {
            b1.add_document(d);
            b2.add_document(d);
        }
        let v1 = b1.finish();
        let v2 = b2.finish();
        prop_assert_eq!(v1.dim(), v2.dim());
        // Same corpus in the same order gives identical id assignments.
        for (term, id, df) in v1.vocabulary().iter() {
            prop_assert_eq!(v2.vocabulary().id(term), Some(id));
            prop_assert_eq!(v2.vocabulary().doc_freq(id), df);
            prop_assert!(df >= 1);
        }
    }

    #[test]
    fn tokenize_equals_the_char_by_char_oracle(seed in any::<u64>(), text in ".{0,200}") {
        let mut rng = Rng(seed);
        let generated = document(&mut rng);
        for oracle in [Oracle::new(STOP_WORDS, 1), Oracle::new(CUSTOM_STOP_WORDS, 3)] {
            let t = oracle.tokenizer();
            for text in [&text, &generated] {
                prop_assert_eq!(t.tokenize(text), oracle.tokenize(text), "{:?}", text);
            }
        }
    }

    #[test]
    fn to_vector_equals_the_char_by_char_oracle(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let oracle = if seed & 1 == 0 {
            Oracle::new(STOP_WORDS, 1)
        } else {
            Oracle::new(CUSTOM_STOP_WORDS, 3)
        };
        let train: Vec<String> = (0..rng.below(30)).map(|_| document(&mut rng)).collect();
        let (v, ids) = train_both(&oracle, &train);
        let idf = IdfWeights::from_vocabulary(v.vocabulary());
        let queries: Vec<String> = (0..30).map(|_| document(&mut rng)).collect();
        for text in train.iter().chain(&queries) {
            let got = v.to_vector(text);
            let want = oracle.to_vector(&ids, &idf, text);
            prop_assert!(same_bits(&got, &want), "{:?}: {:?} vs {:?}", text, got, want);
        }
    }
}
