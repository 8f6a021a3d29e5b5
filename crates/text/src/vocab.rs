//! Vocabulary: stable term → dimension-id mapping with document frequencies.
//!
//! Every term's bytes sit back to back in one arena (`ends[id]` marks
//! where term `id` stops), indexed by an open-addressing table: a
//! power-of-two array of `(tag, id)` slots, probed linearly from the
//! term's [`term_hash`] and kept at most half full. A lookup reads its
//! home slot and then the arena bytes of only the terms whose 32-bit tag
//! matches, with no `String` per term.

/// Hash of a term's bytes, shared by this table and the
/// [`Vectorizer`](crate::Vectorizer)'s frozen one.
///
/// Each 8-byte word is folded in by a multiply, and murmur3's 64-bit
/// finalizer then spreads every input bit over every output bit, so the
/// bucket (the low bits) depends on every byte. Without the finalizer the
/// low bits of a product see only the low bytes of the words, and terms
/// that share a prefix (the benchmark's all start with `zq`) would pile
/// into one probe chain.
pub(crate) fn term_hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = (h ^ prefix_key(w)).wrapping_mul(K).rotate_left(31);
    }
    h = (h ^ prefix_key(words.remainder())).wrapping_mul(K);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The first 8 bytes of `bytes`, little-endian, zero-padded.
pub(crate) fn prefix_key(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    let n = bytes.len().min(8);
    w[..n].copy_from_slice(&bytes[..n]);
    u64::from_le_bytes(w)
}

/// An index slot: the high half of the term's hash and its id.
#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u32,
    id: u32,
}

/// The id of an empty slot.
const EMPTY: u32 = u32::MAX;

/// A growable vocabulary over cleaned terms.
///
/// Dimension ids are assigned in first-seen order, so a vocabulary built
/// from the same corpus in the same order is always identical — the
/// reproducibility anchor for every text experiment.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    arena: String,
    ends: Vec<usize>,
    slots: Vec<Slot>,
    doc_freq: Vec<u32>,
    /// Per term, the document (`num_docs` at the time) that last counted
    /// it: a term repeated within a document counts once.
    last_doc: Vec<u32>,
    num_docs: u32,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct terms (`D`, the vector dimensionality).
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no terms have been added.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Number of documents observed.
    pub fn num_docs(&self) -> u32 {
        self.num_docs
    }

    /// The id of `term`, if present.
    pub fn id(&self, term: &str) -> Option<u32> {
        self.find(term, term_hash(term.as_bytes()))
    }

    /// The term with dimension id `id`.
    pub fn term(&self, id: u32) -> Option<&str> {
        let id = id as usize;
        let end = *self.ends.get(id)?;
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        Some(&self.arena[start..end])
    }

    /// Document frequency of the term with id `id`.
    pub fn doc_freq(&self, id: u32) -> u32 {
        self.doc_freq.get(id as usize).copied().unwrap_or(0)
    }

    /// Records one document's tokens: unseen terms get fresh ids and
    /// every distinct token's document frequency increments.
    pub fn observe_document<S: AsRef<str>>(&mut self, tokens: &[S]) {
        self.begin_document();
        for tok in tokens {
            self.observe(tok.as_ref());
        }
    }

    /// Starts a document: the [`observe`](Self::observe) calls that follow
    /// count towards it.
    pub(crate) fn begin_document(&mut self) {
        self.num_docs += 1;
    }

    /// Counts `term` in the current document, once however often it
    /// repeats there. Returns whether this was its first time in the
    /// document.
    pub(crate) fn observe(&mut self, term: &str) -> bool {
        let hash = term_hash(term.as_bytes());
        match self.find(term, hash) {
            Some(id) => {
                let id = id as usize;
                if self.last_doc[id] == self.num_docs {
                    return false;
                }
                self.last_doc[id] = self.num_docs;
                self.doc_freq[id] += 1;
            }
            None => self.push(term, hash),
        }
        true
    }

    /// Iterates `(term, id, doc_freq)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u32, u32)> {
        (0..self.len() as u32).map(|id| {
            let term = self.term(id).expect("ids below len have terms");
            (term, id, self.doc_freq[id as usize])
        })
    }

    fn find(&self, term: &str, hash: u64) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let tag = (hash >> 32) as u32;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.id == EMPTY {
                return None;
            }
            if slot.tag == tag && self.term(slot.id) == Some(term) {
                return Some(slot.id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Appends an unseen term with document frequency 1.
    fn push(&mut self, term: &str, hash: u64) {
        let id = u32::try_from(self.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("a vocabulary holds fewer than 2^32 - 1 terms");
        if 2 * (self.len() + 1) > self.slots.len() {
            let mut slots = vec![Slot { tag: 0, id: EMPTY }; (2 * self.slots.len()).max(16)];
            for (term, id, _) in self.iter() {
                place(&mut slots, term_hash(term.as_bytes()), id);
            }
            self.slots = slots;
        }
        self.arena.push_str(term);
        self.ends.push(self.arena.len());
        self.doc_freq.push(1);
        self.last_doc.push(self.num_docs);
        place(&mut self.slots, hash, id);
    }

    /// The longest distance any term sits from its home slot.
    #[cfg(test)]
    pub(crate) fn longest_probe(&self) -> usize {
        let mask = self.slots.len().saturating_sub(1);
        (0..self.slots.len())
            .filter(|&i| self.slots[i].id != EMPTY)
            .map(|i| {
                let term = self.term(self.slots[i].id).unwrap();
                i.wrapping_sub(term_hash(term.as_bytes()) as usize) & mask
            })
            .max()
            .unwrap_or(0)
    }
}

/// Puts `id` into the first empty slot of its probe chain.
fn place(slots: &mut [Slot], hash: u64, id: u32) {
    let mask = slots.len() - 1;
    let mut i = hash as usize & mask;
    while slots[i].id != EMPTY {
        i = (i + 1) & mask;
    }
    slots[i] = Slot {
        tag: (hash >> 32) as u32,
        id,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_first_seen_order() {
        let mut v = Vocabulary::new();
        v.observe_document(&["b", "a"]);
        v.observe_document(&["a", "c"]);
        assert_eq!(v.id("b"), Some(0));
        assert_eq!(v.id("a"), Some(1));
        assert_eq!(v.id("c"), Some(2));
        assert_eq!(v.id("zzz"), None);
        assert_eq!(v.len(), 3);
        assert_eq!(v.num_docs(), 2);
    }

    #[test]
    fn doc_freq_counts_documents() {
        let mut v = Vocabulary::new();
        v.observe_document(&["x", "y"]);
        v.observe_document(&["x"]);
        v.observe_document(&["y"]);
        assert_eq!(v.doc_freq(v.id("x").unwrap()), 2);
        assert_eq!(v.doc_freq(v.id("y").unwrap()), 2);
        assert_eq!(v.doc_freq(99), 0);
    }

    #[test]
    fn a_term_repeated_in_a_document_counts_once() {
        let mut v = Vocabulary::new();
        v.begin_document();
        assert!(v.observe("x"));
        assert!(!v.observe("x"));
        assert!(v.observe("y"));
        v.begin_document();
        assert!(v.observe("x"));
        assert!(!v.observe("x"));
        assert_eq!(v.doc_freq(v.id("x").unwrap()), 2);
        assert_eq!(v.doc_freq(v.id("y").unwrap()), 1);
        assert_eq!(v.num_docs(), 2);
    }

    #[test]
    fn term_round_trip() {
        let mut v = Vocabulary::new();
        v.observe_document(&["alpha", "beta"]);
        for (term, id, _) in v.iter().collect::<Vec<_>>() {
            assert_eq!(v.term(id), Some(term));
            assert_eq!(v.id(term), Some(id));
        }
        assert_eq!(v.term(5), None);
    }

    #[test]
    fn empty_vocabulary() {
        let v = Vocabulary::new();
        assert!(v.is_empty());
        assert_eq!(v.num_docs(), 0);
        assert_eq!(v.iter().count(), 0);
    }
}
