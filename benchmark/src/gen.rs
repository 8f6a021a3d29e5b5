//! The harness's own input generator. Everything the program under test
//! ever receives is produced here from `--seed`; the same seed gives the
//! same bytes (unit-tested below).
//!
//! Shape (shared with the BENCH_* history so numbers stay comparable): a
//! tweet-like stream over `D` terms — Zipf(1.0) word ranks, Poisson(7.2)
//! distinct words per document, 20% near-duplicates made by a one-word
//! edit of an earlier document — with smoothed-IDF weights, unit
//! normalised. Every document exists both as a sparse vector and as a
//! text string whose tokens survive the program's tokenizer unchanged.

use plsh::SparseVector;

pub const VOCAB: u32 = 50_000;
const MEAN_WORDS: f64 = 7.2;
const DUP_FRACTION: f64 = 0.2;
/// Near-duplicates copy a document at most this far back, so in a sliding
/// window most duplicates still have their source live.
const DUP_LOOKBACK: usize = 20_000;

/// SplitMix64 (Steele, Lea, Flood 2014): the harness's only randomness.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Inverse-CDF Zipf(1.0) over ranks `0..n`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: u32) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / rank as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut SplitMix64) -> u32 {
        let u = rng.next_f64();
        (self.cdf.partition_point(|&c| c < u) as u32).min(self.cdf.len() as u32 - 1)
    }
}

/// Poisson by Knuth's product method, clamped to at least one word.
fn poisson_at_least_one(rng: &mut SplitMix64, exp_neg_lambda: f64) -> usize {
    let mut k = 0usize;
    let mut p = rng.next_f64();
    while p > exp_neg_lambda {
        k += 1;
        p *= rng.next_f64();
    }
    k.max(1)
}

/// A generated stream of documents.
pub struct Corpus {
    /// Sorted distinct term ids per document.
    pub words: Vec<Vec<u32>>,
    /// IDF-weighted unit vectors, parallel to `words`.
    pub vectors: Vec<SparseVector>,
}

impl Corpus {
    pub fn generate(seed: u64, num_docs: usize) -> Corpus {
        let mut rng = SplitMix64::new(seed);
        let zipf = Zipf::new(VOCAB);
        let exp_neg_lambda = (-MEAN_WORDS).exp();
        let mut words: Vec<Vec<u32>> = Vec::with_capacity(num_docs);
        let mut doc_freq = vec![0u32; VOCAB as usize];
        for i in 0..num_docs {
            let doc = if i > 0 && rng.next_f64() < DUP_FRACTION {
                let back = 1 + rng.below(i.min(DUP_LOOKBACK));
                one_word_edit(&words[i - back], &zipf, &mut rng)
            } else {
                fresh(&zipf, exp_neg_lambda, &mut rng)
            };
            for &w in &doc {
                doc_freq[w as usize] += 1;
            }
            words.push(doc);
        }
        let n = num_docs as f64;
        let idf: Vec<f32> = doc_freq
            .iter()
            .map(|&df| (((1.0 + n) / (1.0 + df as f64)).ln() + 1.0) as f32)
            .collect();
        let vectors = words
            .iter()
            .map(|doc| {
                SparseVector::unit(doc.iter().map(|&w| (w, idf[w as usize])).collect())
                    .expect("documents hold at least one word with a positive weight")
            })
            .collect();
        Corpus { words, vectors }
    }

    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Document `i` as text: one alphabetic token per term, in an order
    /// that differs from the sorted term order (the program must not
    /// depend on it).
    pub fn text(&self, i: usize) -> String {
        words_to_text(&self.words[i], i)
    }

    /// Bytes of resident user data: 8 B (u32 index + f32 weight) per
    /// non-zero.
    pub fn user_bytes(&self, range: std::ops::Range<usize>) -> u64 {
        self.vectors[range].iter().map(|v| 8 * v.nnz() as u64).sum()
    }
}

/// The IDF table a text pipeline trained on the stream's first `train`
/// documents ends up with — the harness's own model of what
/// `stream_window` indexes, so its oracle does not lean on the program's
/// vectorizer. Terms absent from the training prefix are out of
/// vocabulary: the program drops them, and so does [`vector`](Self::vector).
pub struct TrainedIdf {
    /// Smoothed IDF per term id; 0 marks an out-of-vocabulary term.
    idf: Vec<f32>,
}

impl TrainedIdf {
    pub fn from_prefix(corpus: &Corpus, train: usize) -> TrainedIdf {
        let mut doc_freq = vec![0u32; VOCAB as usize];
        for doc in &corpus.words[..train] {
            for &w in doc {
                doc_freq[w as usize] += 1;
            }
        }
        let n = train as f64;
        let idf = doc_freq
            .iter()
            .map(|&df| match df {
                0 => 0.0,
                df => (((1.0 + n) / (1.0 + df as f64)).ln() + 1.0) as f32,
            })
            .collect();
        TrainedIdf { idf }
    }

    pub fn in_vocabulary(&self, word: u32) -> bool {
        self.idf[word as usize] > 0.0
    }

    /// The unit vector of a document, or `None` when every word is out of
    /// vocabulary (the program drops such a document).
    pub fn vector(&self, words: &[u32]) -> Option<SparseVector> {
        let pairs: Vec<(u32, f32)> = words
            .iter()
            .filter(|&&w| self.in_vocabulary(w))
            .map(|&w| (w, self.idf[w as usize]))
            .collect();
        if pairs.is_empty() {
            None
        } else {
            Some(SparseVector::unit(pairs).expect("positive weights normalise"))
        }
    }
}

/// A query for the streaming workload: a one-word edit of document `src`
/// of the corpus, as words.
pub struct NearDuplicates {
    zipf: Zipf,
}

impl NearDuplicates {
    pub fn new() -> NearDuplicates {
        NearDuplicates {
            zipf: Zipf::new(VOCAB),
        }
    }

    pub fn of(&self, src: &[u32], rng: &mut SplitMix64) -> Vec<u32> {
        one_word_edit(src, &self.zipf, rng)
    }
}

fn fresh(zipf: &Zipf, exp_neg_lambda: f64, rng: &mut SplitMix64) -> Vec<u32> {
    let target = poisson_at_least_one(rng, exp_neg_lambda);
    let mut doc: Vec<u32> = Vec::with_capacity(target);
    // Documents hold distinct words (the cleaning step dedups); bounded
    // retries keep generation total.
    let mut attempts = 0;
    while doc.len() < target && attempts < 64 * target {
        attempts += 1;
        let w = zipf.sample(rng);
        if !doc.contains(&w) {
            doc.push(w);
        }
    }
    doc.sort_unstable();
    doc
}

/// Replace one word — or, for documents under four words, where one word
/// can carry most of the IDF mass and push the copy outside R, add one.
fn one_word_edit(src: &[u32], zipf: &Zipf, rng: &mut SplitMix64) -> Vec<u32> {
    let mut doc = src.to_vec();
    let new_word = loop {
        let w = zipf.sample(rng);
        if !src.contains(&w) {
            break w;
        }
    };
    if doc.len() >= 4 {
        let victim = rng.below(doc.len());
        doc[victim] = new_word;
    } else {
        doc.push(new_word);
    }
    doc.sort_unstable();
    doc
}

/// Term id → a token the program's tokenizer keeps as is: lower-case
/// letters only, never a stop word (the `zq` prefix), one token per id.
pub fn term_token(id: u32) -> String {
    let mut s = String::from("zq");
    let mut x = id;
    loop {
        s.push((b'a' + (x % 26) as u8) as char);
        x /= 26;
        if x == 0 {
            break;
        }
    }
    s
}

pub fn words_to_text(doc: &[u32], salt: usize) -> String {
    let n = doc.len();
    let start = salt % n;
    let mut s = String::with_capacity(8 * n);
    for j in 0..n {
        if j > 0 {
            s.push(' ');
        }
        s.push_str(&term_token(doc[(start + j) % n]));
    }
    s
}

/// `count` document positions drawn without replacement from `range`
/// (the paper's protocol: queries are documents of the corpus).
pub fn sample_positions(
    rng: &mut SplitMix64,
    range: std::ops::Range<usize>,
    count: usize,
) -> Vec<usize> {
    let span = range.len();
    assert!(
        count <= span,
        "cannot draw {count} distinct positions from {span}"
    );
    let mut seen = std::collections::HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let p = range.start + rng.below(span);
        if seen.insert(p) {
            out.push(p);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(c: &Corpus) -> Vec<u8> {
        let mut out = Vec::new();
        for (i, v) in c.vectors.iter().enumerate() {
            for (d, w) in v.indices().iter().zip(v.values()) {
                out.extend_from_slice(&d.to_le_bytes());
                out.extend_from_slice(&w.to_bits().to_le_bytes());
            }
            out.extend_from_slice(c.text(i).as_bytes());
            out.push(b'\n');
        }
        out
    }

    #[test]
    fn equal_seeds_are_byte_identical_and_seeds_differ() {
        let a = Corpus::generate(7, 3000);
        let b = Corpus::generate(7, 3000);
        let c = Corpus::generate(8, 3000);
        assert_eq!(bytes(&a), bytes(&b));
        assert_ne!(bytes(&a), bytes(&c));
        let differing = (0..3000).filter(|&i| a.words[i] != c.words[i]).count();
        assert!(
            differing > 2500,
            "only {differing} documents differ across seeds"
        );
    }

    #[test]
    fn stream_has_the_stated_shape() {
        let c = Corpus::generate(1, 20_000);
        let mean = c.words.iter().map(Vec::len).sum::<usize>() as f64 / c.len() as f64;
        assert!((mean - MEAN_WORDS).abs() < 0.4, "mean words {mean}");
        for (doc, v) in c.words.iter().zip(&c.vectors) {
            assert!(doc.windows(2).all(|w| w[0] < w[1]), "distinct sorted terms");
            assert!(doc.iter().all(|&w| w < VOCAB));
            assert!((v.norm() - 1.0).abs() < 1e-5);
        }
        // Zipf: the top rank is far more common than the median term.
        let mut df = vec![0u32; VOCAB as usize];
        for doc in &c.words {
            for &w in doc {
                df[w as usize] += 1;
            }
        }
        assert!(
            df[0] > 1000 && df[25_000] < 20,
            "df0={} dfmid={}",
            df[0],
            df[25_000]
        );
    }

    #[test]
    fn text_round_trips_through_the_programs_tokenizer() {
        let c = Corpus::generate(3, 500);
        let tok = plsh::text::Tokenizer::default();
        for i in 0..c.len() {
            let mut got = tok.tokenize(&c.text(i));
            let mut want: Vec<String> = c.words[i].iter().map(|&w| term_token(w)).collect();
            got.sort();
            want.sort();
            assert_eq!(got, want, "doc {i}");
        }
        let distinct: std::collections::HashSet<String> = (0..VOCAB).map(term_token).collect();
        assert_eq!(distinct.len(), VOCAB as usize);
    }

    #[test]
    fn trained_idf_drops_unseen_terms_like_the_programs_vectorizer() {
        let c = Corpus::generate(11, 4000);
        let train = 1000;
        let idf = TrainedIdf::from_prefix(&c, train);
        let mut b = plsh::text::CorpusBuilder::new(plsh::text::Tokenizer::default());
        for i in 0..train {
            b.add_document(&c.text(i));
        }
        let vectorizer = b.finish();
        let mut dropped = 0;
        for i in train..c.len() {
            let mine = idf.vector(&c.words[i]);
            let theirs = vectorizer.vectorize(&c.text(i));
            match (&mine, &theirs) {
                (None, None) => dropped += 1,
                (Some(a), Some(b)) => {
                    // Same weights under different term ids: compare the
                    // sorted weight lists.
                    let mut x = a.values().to_vec();
                    let mut y = b.values().to_vec();
                    x.sort_by(f32::total_cmp);
                    y.sort_by(f32::total_cmp);
                    assert_eq!(x.len(), y.len(), "doc {i}");
                    assert!(
                        x.iter().zip(&y).all(|(p, q)| (p - q).abs() < 1e-6),
                        "doc {i}"
                    );
                }
                _ => panic!(
                    "doc {i}: harness {:?} vs program {:?}",
                    mine.is_some(),
                    theirs.is_some()
                ),
            }
        }
        assert!(dropped < 50, "{dropped} fully out-of-vocabulary documents");
        let nd = NearDuplicates::new();
        let mut rng = SplitMix64::new(1);
        let edited = nd.of(&c.words[5], &mut rng);
        let common = edited.iter().filter(|w| c.words[5].contains(w)).count();
        assert!(common + 1 >= c.words[5].len().min(edited.len()));
    }

    #[test]
    fn sampled_positions_are_distinct_and_in_range() {
        let mut rng = SplitMix64::new(5);
        let p = sample_positions(&mut rng, 100..400, 200);
        assert_eq!(p.len(), 200);
        assert!(p.iter().all(|x| (100..400).contains(x)));
        let set: std::collections::HashSet<_> = p.iter().collect();
        assert_eq!(set.len(), 200);
    }
}
