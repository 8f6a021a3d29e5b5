//! # plsh-text — document vectorization for PLSH
//!
//! The paper indexes tweets "cleaned by removing non-alphabet characters,
//! duplicates and stop words", encoded as sparse IDF-weighted unit vectors
//! in a 500 000-word vocabulary (Section 8). This crate is that pipeline:
//!
//! 1. [`Tokenizer`] — lowercases, strips non-alphabetic characters, drops
//!    stop words and deduplicates tokens within a document. One byte
//!    scanner does the splitting for the tokenizer, the corpus builder and
//!    the vectorizer: ASCII letters are lowercased inline, and only a byte
//!    ≥ 0x80 decodes a char.
//! 2. [`Vocabulary`] — assigns stable dimension ids to terms and counts
//!    document frequencies. Its terms sit in one byte arena, indexed by an
//!    open-addressing table kept at most half full.
//! 3. [`IdfWeights`] — inverse-document-frequency scores "to give more
//!    importance to less common words".
//! 4. [`Vectorizer`] — turns a document into a sparse unit vector,
//!    silently skipping out-of-vocabulary terms (a document that is
//!    entirely out-of-vocabulary yields `None`, the paper's "0-length
//!    query" case). It freezes the vocabulary and weights into one table
//!    of 16-byte entries (a term's first 8 bytes, its id, its weight) and
//!    looks a document up in two phases: scan, hash and prefetch every
//!    token's slot, then probe them all. A document costs one pass, about
//!    one cache line per word and no allocation per token.
//!
//! ```
//! use plsh_text::{CorpusBuilder, Tokenizer};
//!
//! let docs = ["the quick brown fox", "lazy brown dog", "quick dog!"];
//! let mut builder = CorpusBuilder::new(Tokenizer::default());
//! for d in &docs {
//!     builder.add_document(d);
//! }
//! let vectorizer = builder.finish();
//! let v = vectorizer.vectorize("a quick fox").unwrap();
//! assert!((v.norm() - 1.0).abs() < 1e-6);
//! assert!(vectorizer.vectorize("zebra unknown words").is_none());
//! ```

mod error;
mod idf;
mod token;
mod vectorize;
mod vocab;

pub use error::TextError;
pub use idf::IdfWeights;
pub use token::{Tokenizer, STOP_WORDS};
pub use vectorize::{CorpusBuilder, Vectorizer};
pub use vocab::Vocabulary;
