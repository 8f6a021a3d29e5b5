//! Tokenization and cleaning (paper Section 8: "tweets were cleaned by
//! removing non-alphabet characters, duplicates and stop words").

/// A compact English stop-word list.
///
/// The paper does not publish its list; this is the common core that any
/// reasonable list contains. The tokenizer accepts a custom list, so
/// experiments can reproduce other cleaning policies.
pub const STOP_WORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "from", "had", "has", "have",
    "he", "her", "his", "i", "if", "in", "is", "it", "its", "my", "no", "not", "of", "on", "or",
    "our", "she", "so", "that", "the", "their", "them", "they", "this", "to", "was", "we", "were",
    "what", "when", "which", "who", "will", "with", "you", "your",
];

/// Lowercasing, alphabetic-only tokenizer with stop-word removal and
/// within-document deduplication.
#[derive(Debug, Clone)]
pub struct Tokenizer {
    stop_words: Vec<String>,
    min_len: usize,
}

impl Default for Tokenizer {
    fn default() -> Self {
        Self::new(STOP_WORDS.iter().map(|s| s.to_string()), 1)
    }
}

impl Tokenizer {
    /// Creates a tokenizer with a custom stop-word list and a minimum token
    /// length (tokens shorter than `min_len` are dropped).
    pub fn new<I>(stop_words: I, min_len: usize) -> Self
    where
        I: IntoIterator<Item = String>,
    {
        let mut stop_words: Vec<String> = stop_words.into_iter().collect();
        stop_words.sort_unstable();
        stop_words.dedup();
        Self {
            stop_words,
            min_len: min_len.max(1),
        }
    }

    /// A tokenizer that keeps everything (no stop words, length 1).
    pub fn keep_all() -> Self {
        Self::new(std::iter::empty(), 1)
    }

    /// True iff `word` (already lowercase) is a stop word.
    pub fn is_stop_word(&self, word: &str) -> bool {
        self.stop_words
            .binary_search_by(|s| s.as_str().cmp(word))
            .is_ok()
    }

    /// True iff the tokenizer keeps the scanned `token`: long enough and
    /// not a stop word.
    pub(crate) fn keeps(&self, token: &str) -> bool {
        token.len() >= self.min_len && !self.is_stop_word(token)
    }

    /// Tokenizes a document: split on non-alphabetic characters, lowercase,
    /// drop stop words and short tokens, deduplicate preserving first
    /// occurrence.
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let mut token = String::new();
        scan(text, &mut token, |token, _| {
            if self.keeps(token) && !out.iter().any(|t| t == token) {
                out.push(token.clone());
            }
            token.clear();
        });
        out
    }
}

/// The one scanner behind [`Tokenizer::tokenize`], the corpus builder and
/// the vectorizer: appends each lowercase token of `text` to `out` and
/// calls `token_end(out, start)` where it ends, the token being
/// `out[start..]`. The callback may truncate `out` to reuse the space.
///
/// An ASCII letter is lowercased inline and any other ASCII byte ends a
/// token. Only a byte ≥ 0x80 decodes a char: an `is_alphabetic()` char
/// appends its `to_lowercase()`, anything else ends the token — the same
/// rule as splitting the text's chars on `!is_alphabetic()`.
pub(crate) fn scan(text: &str, out: &mut String, mut token_end: impl FnMut(&mut String, usize)) {
    let bytes = text.as_bytes();
    let mut start = out.len();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        let letter = if b < 0x80 {
            i += 1;
            let letter = b.is_ascii_alphabetic();
            if letter {
                out.push(b.to_ascii_lowercase() as char);
            }
            letter
        } else {
            let ch = text[i..].chars().next().expect("i is a char boundary");
            i += ch.len_utf8();
            let letter = ch.is_alphabetic();
            if letter {
                out.extend(ch.to_lowercase());
            }
            letter
        };
        if !letter && out.len() > start {
            token_end(out, start);
            start = out.len();
        }
    }
    if out.len() > start {
        token_end(out, start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_tokenization() {
        let t = Tokenizer::default();
        assert_eq!(
            t.tokenize("The quick brown fox"),
            vec!["quick", "brown", "fox"]
        );
    }

    #[test]
    fn strips_non_alphabetic() {
        let t = Tokenizer::keep_all();
        assert_eq!(
            t.tokenize("hello, world! 123 foo_bar"),
            vec!["hello", "world", "foo", "bar"]
        );
    }

    #[test]
    fn deduplicates_within_document() {
        let t = Tokenizer::keep_all();
        assert_eq!(t.tokenize("echo echo ECHO delta"), vec!["echo", "delta"]);
    }

    #[test]
    fn removes_stop_words() {
        let t = Tokenizer::default();
        assert_eq!(t.tokenize("the cat and the hat"), vec!["cat", "hat"]);
        assert!(t.is_stop_word("the"));
        assert!(!t.is_stop_word("cat"));
    }

    #[test]
    fn empty_and_symbol_only_documents() {
        let t = Tokenizer::default();
        assert!(t.tokenize("").is_empty());
        assert!(t.tokenize("!!! 42 @#$").is_empty());
        // A tweet of only stop words also empties out (the paper's
        // 0-length-query case).
        assert!(t.tokenize("the and of").is_empty());
    }

    #[test]
    fn min_len_filter() {
        let t = Tokenizer::new(std::iter::empty(), 3);
        assert_eq!(t.tokenize("a to the cat xy"), vec!["the", "cat"]);
    }

    #[test]
    fn unicode_lowercasing() {
        let t = Tokenizer::keep_all();
        assert_eq!(t.tokenize("Grüße AUS Köln"), vec!["grüße", "aus", "köln"]);
    }

    #[test]
    fn custom_stop_words() {
        let t = Tokenizer::new(vec!["cat".to_string()], 1);
        assert_eq!(t.tokenize("the cat sat"), vec!["the", "sat"]);
    }
}
