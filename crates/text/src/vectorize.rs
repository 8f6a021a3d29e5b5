//! Document → sparse unit vector conversion, and the two-pass corpus
//! builder that wires tokenizer, vocabulary, and IDF together.
//!
//! [`CorpusBuilder::finish`] freezes the vocabulary into a second, compact
//! term table: 16-byte entries holding a term's first 8 bytes inline, its
//! id and its IDF weight, at most half full. [`Vectorizer::to_vector`]
//! reads it in two phases. Phase 1 runs the tokenizer's scanner over the
//! document into one reusable byte buffer, hashes every token and
//! prefetches its home slot, so the misses of all the tokens overlap.
//! Phase 2 probes the slots: a term of at most 8 bytes matches on the
//! inline key alone (one cache line, no separate weight load), a longer
//! one is compared against the vocabulary's arena. The hits are sorted by
//! id, deduplicated and scaled to unit length exactly as
//! [`SparseVector::unit`] does, so the vectors are bit-identical to
//! tokenizing, looking up and weighting each term in turn.

use std::cell::RefCell;

use plsh_core::sparse::SparseVector;

use crate::error::TextError;
use crate::idf::IdfWeights;
use crate::token::{scan, Tokenizer};
use crate::vocab::{prefix_key, term_hash, Vocabulary};

/// First pass over a corpus: feed every document through
/// [`add_document`](CorpusBuilder::add_document), then [`finish`](CorpusBuilder::finish)
/// to freeze the vocabulary and IDF table into a
/// [`Vectorizer`].
#[derive(Debug, Clone)]
pub struct CorpusBuilder {
    tokenizer: Tokenizer,
    vocab: Vocabulary,
    /// The scanned token bytes, reused across documents.
    buf: String,
}

impl CorpusBuilder {
    /// Starts a corpus scan with the given tokenizer.
    pub fn new(tokenizer: Tokenizer) -> Self {
        Self {
            tokenizer,
            vocab: Vocabulary::new(),
            buf: String::new(),
        }
    }

    /// Observes one raw document: scans its tokens and counts each kept
    /// one in the vocabulary once, as [`Tokenizer::tokenize`] would list
    /// it. Returns the number of distinct kept tokens.
    pub fn add_document(&mut self, text: &str) -> usize {
        let Self {
            tokenizer,
            vocab,
            buf,
        } = self;
        vocab.begin_document();
        buf.clear();
        let mut kept = 0;
        scan(text, buf, |buf, start| {
            if tokenizer.keeps(&buf[start..]) && vocab.observe(&buf[start..]) {
                kept += 1;
            }
            buf.truncate(start);
        });
        kept
    }

    /// Number of documents observed so far.
    pub fn num_docs(&self) -> u32 {
        self.vocab.num_docs()
    }

    /// Freezes the vocabulary and computes IDF weights.
    pub fn finish(self) -> Vectorizer {
        let idf = IdfWeights::from_vocabulary(&self.vocab);
        let mut table = vec![Entry::EMPTY; (2 * self.vocab.len()).next_power_of_two()];
        let mask = table.len() - 1;
        for (term, id, _) in self.vocab.iter() {
            // The lookup tests neither length nor stop words, and an empty
            // key marks an empty slot: both rest on every term being a
            // non-empty token this tokenizer keeps (letters hold no NUL).
            debug_assert!(
                !term.is_empty() && !term.contains('\0') && self.tokenizer.keeps(term),
                "{term:?} is not a token the tokenizer keeps"
            );
            assert!(id < LONG, "a vectorizer holds fewer than 2^31 terms");
            let mut i = term_hash(term.as_bytes()) as usize & mask;
            while table[i].key != 0 {
                i = (i + 1) & mask;
            }
            table[i] = Entry {
                key: prefix_key(term.as_bytes()),
                id: if term.len() > 8 { id | LONG } else { id },
                weight: idf.score(id),
            };
        }
        Vectorizer {
            vocab: self.vocab,
            table,
        }
    }
}

/// One slot of the frozen term table, a quarter of a cache line.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(16))]
struct Entry {
    /// The term's first 8 bytes ([`prefix_key`]); 0 marks an empty slot.
    key: u64,
    /// The term's id, with [`LONG`] set when it is over 8 bytes.
    id: u32,
    /// The term's IDF weight.
    weight: f32,
}

impl Entry {
    const EMPTY: Entry = Entry {
        key: 0,
        id: 0,
        weight: 0.0,
    };
}

/// Flag on [`Entry::id`]: the term is longer than its inline key.
const LONG: u32 = 1 << 31;

/// Per-thread buffers of [`Vectorizer::to_vector`]: the scanned token
/// bytes, each token's `(start, end, hash)`, and the `(id, weight)` hits.
/// They keep the capacity of the longest document the thread has seen.
#[derive(Default)]
struct Scratch {
    bytes: String,
    tokens: Vec<(usize, usize, u64)>,
    hits: Vec<(u32, f32)>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// A frozen text → [`SparseVector`] pipeline.
///
/// It only comes from [`CorpusBuilder::finish`], so every vocabulary term
/// is a token its tokenizer keeps: a token that is too short or a stop
/// word is never in the table, and the lookup needs no test for either.
#[derive(Debug, Clone)]
pub struct Vectorizer {
    vocab: Vocabulary,
    table: Vec<Entry>,
}

impl Vectorizer {
    /// The frozen vocabulary.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Vector-space dimensionality `D` to configure PLSH with.
    pub fn dim(&self) -> u32 {
        self.vocab.len() as u32
    }

    /// Converts raw text into an IDF-weighted sparse **unit** vector.
    ///
    /// Returns `None` when every token is out-of-vocabulary or a stop word
    /// (the paper's "0-length query"; such queries "will not find any
    /// meaningful matches" and are dropped).
    pub fn vectorize(&self, text: &str) -> Option<SparseVector> {
        self.to_vector(text).ok()
    }

    /// Like [`vectorize`](Self::vectorize), but reports *why* a document
    /// produced no vector — for callers (e.g. `plsh::Index`) that surface
    /// one error type end-to-end instead of silently dropping documents.
    pub fn to_vector(&self, text: &str) -> Result<SparseVector, TextError> {
        SCRATCH.with_borrow_mut(|scratch| self.to_vector_in(text, scratch))
    }

    /// [`to_vector`](Self::to_vector) in the calling thread's buffers.
    fn to_vector_in(&self, text: &str, scratch: &mut Scratch) -> Result<SparseVector, TextError> {
        let Scratch {
            bytes,
            tokens,
            hits,
        } = scratch;
        bytes.clear();
        tokens.clear();
        hits.clear();
        // Phase 1: scan, hash, and prefetch every token's home slot.
        let mask = self.table.len() - 1;
        scan(text, bytes, |bytes, start| {
            let hash = term_hash(&bytes.as_bytes()[start..]);
            prefetch(&self.table[hash as usize & mask]);
            tokens.push((start, bytes.len(), hash));
        });
        // Phase 2: probe the slots, now in cache or on their way.
        for &(start, end, hash) in tokens.iter() {
            if let Some(hit) = self.lookup(&bytes[start..end], hash) {
                hits.push(hit);
            }
        }
        if hits.is_empty() {
            return Err(TextError::OutOfVocabulary);
        }
        // A short slice: the standard sort is an insertion sort here.
        hits.sort_unstable_by_key(|&(id, _)| id);
        hits.dedup_by_key(|&mut (id, _)| id);
        let (indices, values) = hits.iter().copied().unzip();
        let mut v = SparseVector::from_sorted(indices, values).map_err(TextError::Vector)?;
        v.normalize().map_err(TextError::Vector)?;
        Ok(v)
    }

    /// The `(id, weight)` of `token`, whose [`term_hash`] is `hash`.
    fn lookup(&self, token: &str, hash: u64) -> Option<(u32, f32)> {
        let key = prefix_key(token.as_bytes());
        let long = token.len() > 8;
        let mask = self.table.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let e = self.table[i];
            if e.key == 0 {
                return None;
            }
            if e.key == key && (e.id & LONG != 0) == long {
                let id = e.id & !LONG;
                if !long || self.vocab.term(id) == Some(token) {
                    return Some((id, e.weight));
                }
            }
            i = (i + 1) & mask;
        }
    }
}

/// Hints the hardware to pull the cache line holding `entry` into L1.
#[inline(always)]
fn prefetch(entry: &Entry) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint on a live reference; it cannot fault or write.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch(entry as *const Entry as *const i8, _MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = entry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vectorizer() -> Vectorizer {
        let docs = [
            "the quick brown fox jumps",
            "a lazy brown dog sleeps",
            "quick dogs and quick cats",
            "brown bears eat honey",
        ];
        let mut b = CorpusBuilder::new(Tokenizer::default());
        for d in docs {
            b.add_document(d);
        }
        b.finish()
    }

    #[test]
    fn vectorize_produces_unit_vectors() {
        let v = vectorizer();
        let sv = v.vectorize("quick brown fox").unwrap();
        assert!((sv.norm() - 1.0).abs() < 1e-6);
        assert_eq!(sv.nnz(), 3);
    }

    #[test]
    fn oov_terms_are_skipped() {
        let v = vectorizer();
        let with_oov = v.vectorize("quick zebra").unwrap();
        let without = v.vectorize("quick").unwrap();
        assert_eq!(with_oov, without);
    }

    #[test]
    fn fully_oov_documents_yield_none() {
        let v = vectorizer();
        assert!(v.vectorize("zebra unicorn").is_none());
        assert!(v.vectorize("the and of").is_none()); // stop words only
        assert!(v.vectorize("").is_none());
        assert!(v.vectorize("123 !!!").is_none());
    }

    #[test]
    fn rare_terms_dominate_weighting() {
        let v = vectorizer();
        // "brown" appears in 3 docs, "fox" in 1: fox must carry more weight.
        let sv = v.vectorize("brown fox").unwrap();
        let brown_id = v.vocabulary().id("brown").unwrap();
        let fox_id = v.vocabulary().id("fox").unwrap();
        let wb = sv
            .indices()
            .iter()
            .position(|&d| d == brown_id)
            .map(|i| sv.values()[i])
            .unwrap();
        let wf = sv
            .indices()
            .iter()
            .position(|&d| d == fox_id)
            .map(|i| sv.values()[i])
            .unwrap();
        assert!(wf > wb, "fox {wf} vs brown {wb}");
    }

    #[test]
    fn similar_documents_are_angularly_close() {
        let v = vectorizer();
        let a = v.vectorize("quick brown fox").unwrap();
        let b = v.vectorize("quick brown fox jumps").unwrap();
        let c = v.vectorize("bears eat honey").unwrap();
        assert!(a.angular_distance(&b) < a.angular_distance(&c));
    }

    #[test]
    fn identical_text_round_trips_to_zero_distance() {
        let v = vectorizer();
        let a = v.vectorize("lazy dog sleeps").unwrap();
        let b = v.vectorize("LAZY dog... sleeps!!").unwrap();
        assert!(a.angular_distance(&b) < 1e-3);
    }

    /// The longest distance any term of `v`'s frozen table sits from its
    /// home slot.
    fn longest_probe(v: &Vectorizer) -> usize {
        let mask = v.table.len() - 1;
        (0..v.table.len())
            .filter(|&i| v.table[i].key != 0)
            .map(|i| {
                let term = v.vocab.term(v.table[i].id & !LONG).unwrap();
                i.wrapping_sub(term_hash(term.as_bytes()) as usize) & mask
            })
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn shared_prefix_terms_keep_probe_chains_short() {
        // The benchmark's token shape: "zq" + base-26 letters of the id.
        // A hash whose bucket bits skip some bytes puts every such term
        // into one chain.
        let term = |mut x: u32| {
            let mut s = String::from("zq");
            loop {
                s.push((b'a' + (x % 26) as u8) as char);
                x /= 26;
                if x == 0 {
                    break s;
                }
            }
        };
        let mut b = CorpusBuilder::new(Tokenizer::default());
        for doc in (0..50_000).collect::<Vec<u32>>().chunks(50) {
            let text: Vec<String> = doc.iter().map(|&x| term(x)).collect();
            b.add_document(&text.join(" "));
        }
        let v = b.finish();
        assert_eq!(v.dim(), 50_000);
        assert!(
            v.vocabulary().longest_probe() < 32,
            "{}",
            v.vocabulary().longest_probe()
        );
        assert!(longest_probe(&v) < 32, "{}", longest_probe(&v));
        assert_eq!(v.vectorize(&term(49_999)).unwrap().indices(), &[49_999]);
    }

    #[test]
    fn long_terms_and_eight_byte_prefixes_stay_apart() {
        let mut b = CorpusBuilder::new(Tokenizer::keep_all());
        b.add_document("abcdefgh abcdefghi abcdefghij");
        let v = b.finish();
        for (t, id) in [("abcdefgh", 0), ("abcdefghi", 1), ("abcdefghij", 2)] {
            assert_eq!(v.vectorize(t).unwrap().indices(), &[id], "{t}");
        }
        assert!(v.vectorize("abcdefg abcdefghk abcdefghijk").is_none());
    }

    #[test]
    fn dim_matches_vocabulary() {
        let v = vectorizer();
        assert_eq!(v.dim() as usize, v.vocabulary().len());
        // Every produced index lies below dim.
        let sv = v.vectorize("quick brown fox dog").unwrap();
        assert!(sv.indices().iter().all(|&d| d < v.dim()));
    }
}
