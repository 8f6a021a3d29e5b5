//! Bitvector duplicate elimination (paper Section 5.2.1).
//!
//! Step Q2 of the query pipeline merges the buckets of all `L` tables; a
//! point colliding with the query in several tables appears several times,
//! and computing its distance repeatedly is wasted work. The paper compares
//! sorting, tree sets, and a histogram, and picks the histogram realized as
//! a **bitvector over the point-id space** `0..N` — `O(1)` per collision
//! with a tiny constant, and small enough (1.25 MB for N = 10 M) to stay in
//! cache.
//!
//! [`CandidateSet`] is that bitvector plus the discovered-candidate list
//! used to (a) clear only the touched words after a query, keeping the
//! per-query cost proportional to the candidates rather than to `N`, and
//! (b) hand Step Q3 its unique-candidate array. The paper extracts that
//! array **sorted** by scanning the bitvector, which makes the Q3 data
//! accesses predictable and prefetchable (Section 5.2.2). Here Q3 walks
//! the discovery-order list and prefetches ahead of itself, so no query
//! scans the `O(N)` bitvector; a request that needs ascending ids (a
//! candidate budget visits the ascending prefix) sorts the list in
//! `O(c log c)` for `c` candidates.
//!
//! The query kernel feeds each static bucket run through
//! [`CandidateSet::insert_run`], which tests no bit: every id sets its
//! bit and is written at the list's end, and the list grows only when the
//! bit was clear. Whether a collision is a duplicate follows no pattern
//! the CPU can predict (on the benchmark's `batch_static` about one
//! collision in five is: 962 per query for 768 unique candidates), so the
//! branch of [`CandidateSet::insert`] would mispredict on many of them.

/// A reusable bitvector over point ids with candidate tracking.
///
/// ```
/// use plsh_core::dedup::CandidateSet;
///
/// let mut set = CandidateSet::new(1000);
/// assert!(set.insert(42));
/// assert!(!set.insert(42), "duplicates are filtered in O(1)");
/// set.insert(7);
/// set.insert_run(&[7, 9, 42, 9]);
/// assert_eq!(set.candidates(), &[42, 7, 9], "discovery order");
/// set.sort_ascending();
/// assert_eq!(set.candidates(), &[7, 9, 42]);
/// set.clear(); // O(candidates), not O(capacity)
/// assert!(set.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct CandidateSet {
    words: Vec<u64>,
    /// `list[..len]` holds the unique ids in discovery order, or ascending
    /// after [`sort_ascending`](Self::sort_ascending) (also the clear
    /// list). Slots past `len` are room [`insert_run`](Self::insert_run)
    /// writes every id of a run into before it knows whether to keep it;
    /// the buffer only grows, so steady-state queries never resize it.
    list: Vec<u32>,
    len: usize,
    /// Smallest id the bitvector can represent: bit `i` covers id
    /// `base + i`. A sliding-window engine compacts its retired prefix
    /// away, so ids keep growing while the *live span* stays bounded —
    /// rebasing keeps the bitvector sized to the span, not the lifetime.
    base: u32,
}

impl CandidateSet {
    /// Creates a set able to hold ids `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        Self {
            words: vec![0u64; capacity.div_ceil(64)],
            list: Vec::new(),
            len: 0,
            base: 0,
        }
    }

    /// Re-anchors the bitvector at `base`: subsequent inserts cover ids
    /// `base..base + capacity`. Must be called on an empty (cleared) set.
    #[inline]
    pub fn rebase(&mut self, base: u32) {
        debug_assert!(self.is_empty(), "rebase of a non-empty set");
        self.base = base;
    }

    /// The id bit 0 covers.
    #[inline]
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Capacity in ids.
    pub fn capacity(&self) -> usize {
        self.words.len() * 64
    }

    /// Grows the set to hold ids `0..capacity` (never shrinks).
    pub fn ensure_capacity(&mut self, capacity: usize) {
        let need = capacity.div_ceil(64);
        if need > self.words.len() {
            self.words.resize(need, 0);
        }
    }

    /// The bitvector word and bit of `id`.
    #[inline]
    fn slot(&self, id: u32) -> (usize, u64) {
        debug_assert!(id >= self.base, "id {id} below base {}", self.base);
        let off = id - self.base;
        let word = (off >> 6) as usize;
        debug_assert!(word < self.words.len(), "id {id} beyond capacity");
        (word, 1u64 << (off & 63))
    }

    /// Appends `id` to the candidate list.
    #[inline]
    fn push(&mut self, id: u32) {
        if self.len == self.list.len() {
            self.list.push(id);
        } else {
            self.list[self.len] = id;
        }
        self.len += 1;
    }

    /// Inserts `id`; returns `true` iff it was not yet present.
    ///
    /// This is the paper's 11-operation kernel: locate the word, test the
    /// bit, set it and append the id if it was clear. The query kernel
    /// feeds whole bucket runs through [`insert_run`](Self::insert_run)
    /// instead, which does the same without the branch.
    #[inline]
    pub fn insert(&mut self, id: u32) -> bool {
        let (word, bit) = self.slot(id);
        let w = self.words[word];
        if w & bit != 0 {
            return false;
        }
        self.words[word] = w | bit;
        self.push(id);
        true
    }

    /// Inserts every id of `ids`, in order, with no data-dependent branch:
    /// each id sets its bit and is written at the end of the candidate
    /// list, and the list grows by one only if the bit was clear. The
    /// list, its order and membership end as `ids.len()` calls to
    /// [`insert`](Self::insert) leave them.
    #[inline]
    pub fn insert_run(&mut self, ids: &[u32]) {
        let need = self.len + ids.len();
        if self.list.len() < need {
            self.list.resize(need, 0);
        }
        for &id in ids {
            let (word, bit) = self.slot(id);
            let w = self.words[word];
            self.words[word] = w | bit;
            self.list[self.len] = id;
            self.len += usize::from(w & bit == 0);
        }
    }

    /// Inserts an id the caller knows is absent, with no test: a sealed
    /// generation's scan hits are disjoint from the static tables' ids
    /// and from each other.
    #[inline]
    pub(crate) fn insert_absent(&mut self, id: u32) {
        let (word, bit) = self.slot(id);
        debug_assert!(self.words[word] & bit == 0, "id {id} already present");
        self.words[word] |= bit;
        self.push(id);
    }

    /// True iff `id` has been inserted since the last clear.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        let off = id - self.base;
        let word = (off >> 6) as usize;
        self.words[word] & (1u64 << (off & 63)) != 0
    }

    /// Number of unique ids inserted.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no ids are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Unique ids in discovery order, or ascending after
    /// [`sort_ascending`](Self::sort_ascending).
    pub fn candidates(&self) -> &[u32] {
        &self.list[..self.len]
    }

    /// Sorts the candidate list by id: `O(c log c)` in the candidates,
    /// independent of the capacity. Membership and [`clear`](Self::clear)
    /// are unaffected.
    pub fn sort_ascending(&mut self) {
        self.list[..self.len].sort_unstable();
    }

    /// Clears the set in `O(candidates)` by zeroing only touched words.
    pub fn clear(&mut self) {
        for &id in &self.list[..self.len] {
            self.words[((id - self.base) >> 6) as usize] = 0;
        }
        self.len = 0;
    }

    /// Bytes held by the bitvector (the paper's 1.25 MB for N = 10 M).
    pub fn memory_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `insert_run` leaves the set as per-id `insert` does: the same
        /// candidate list in the same order, the same membership, and a
        /// `clear` that fully resets it, for runs whose ids share words and
        /// repeat within and across runs, over several queries on one set.
        #[test]
        fn insert_run_equals_per_id_insert(
            base in prop_oneof![Just(0u32), 1u32..1_000_000],
            capacity in 1usize..600,
            queries in proptest::collection::vec(
                proptest::collection::vec(proptest::collection::vec(0usize..600, 0..40), 0..12),
                1..4,
            ),
        ) {
            let mut runs = CandidateSet::new(capacity);
            let mut ids = CandidateSet::new(capacity);
            for query in &queries {
                runs.rebase(base);
                ids.rebase(base);
                for run in query {
                    let run: Vec<u32> = run.iter().map(|&i| base + (i % capacity) as u32).collect();
                    runs.insert_run(&run);
                    for &id in &run {
                        ids.insert(id);
                    }
                    prop_assert_eq!(runs.candidates(), ids.candidates());
                }
                for off in 0..runs.capacity() as u32 {
                    prop_assert_eq!(runs.contains(base + off), ids.contains(base + off));
                }
                runs.clear();
                prop_assert!(runs.is_empty());
                for off in 0..runs.capacity() as u32 {
                    prop_assert!(!runs.contains(base + off), "id {} survived clear", base + off);
                }
                ids.clear();
            }
        }
    }

    #[test]
    fn insert_absent_appends_and_clears() {
        let mut s = CandidateSet::new(256);
        s.insert_run(&[3, 70, 3]);
        for id in [128u32, 129, 200] {
            s.insert_absent(id);
        }
        assert_eq!(s.candidates(), &[3, 70, 128, 129, 200]);
        assert!(s.contains(129) && !s.insert(200));
        s.clear();
        assert!((0..256).all(|id| !s.contains(id)));
    }

    #[test]
    fn insert_dedups() {
        let mut s = CandidateSet::new(100);
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.insert(64));
        assert!(s.insert(63));
        assert_eq!(s.len(), 3);
        assert!(s.contains(5) && s.contains(63) && s.contains(64));
        assert!(!s.contains(6));
        assert_eq!(s.candidates(), &[5, 64, 63]);
    }

    #[test]
    fn sort_ascending_is_sorted_unique() {
        let mut s = CandidateSet::new(256);
        for id in [200u32, 3, 64, 3, 199, 0, 255] {
            s.insert(id);
        }
        assert_eq!(s.candidates(), &[200, 3, 64, 199, 0, 255]);
        s.sort_ascending();
        assert_eq!(s.len(), 6);
        assert_eq!(s.candidates(), &[0, 3, 64, 199, 200, 255]);
        assert!(!s.insert(64), "sorting keeps membership");
        s.clear();
        for id in [0u32, 3, 64, 199, 200, 255] {
            assert!(!s.contains(id), "id {id} survived clear after sort");
        }
    }

    #[test]
    fn clear_only_touches_candidates_but_fully_resets() {
        let mut s = CandidateSet::new(1024);
        for id in 0..100u32 {
            s.insert(id * 7 % 1024);
        }
        s.clear();
        assert!(s.is_empty());
        for id in 0..1024u32 {
            assert!(!s.contains(id), "id {id} survived clear");
        }
        // Reusable.
        assert!(s.insert(42));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn capacity_boundary_ids() {
        let mut s = CandidateSet::new(65); // rounds up to 128 bits
        assert!(s.capacity() >= 65);
        assert!(s.insert(64));
        assert!(s.contains(64));
        s.clear();
        assert!(!s.contains(64));
    }

    #[test]
    fn ensure_capacity_grows() {
        let mut s = CandidateSet::new(64);
        s.insert(10);
        s.ensure_capacity(1000);
        assert!(s.capacity() >= 1000);
        assert!(s.contains(10), "growth must preserve contents");
        s.insert(999);
        assert!(s.contains(999));
    }

    #[test]
    fn agrees_with_reference_set() {
        let mut s = CandidateSet::new(4096);
        let mut reference = BTreeSet::new();
        let mut x = 12345u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let id = (x >> 33) as u32 % 4096;
            assert_eq!(s.insert(id), reference.insert(id));
        }
        s.sort_ascending();
        let expect: Vec<u32> = reference.into_iter().collect();
        assert_eq!(s.candidates(), &expect[..]);
    }

    #[test]
    fn rebase_covers_a_sliding_span() {
        let mut s = CandidateSet::new(128);
        s.rebase(1_000_000);
        assert!(s.insert(1_000_000));
        assert!(s.insert(1_000_127));
        assert!(!s.insert(1_000_000));
        assert!(s.contains(1_000_127));
        assert!(s.insert(1_000_064));
        assert_eq!(s.candidates(), &[1_000_000, 1_000_127, 1_000_064]);
        s.sort_ascending();
        assert_eq!(s.candidates(), &[1_000_000, 1_000_064, 1_000_127]);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(1_000_000));
        s.rebase(2_000_000);
        assert!(s.insert(2_000_001));
        assert_eq!(s.candidates(), &[2_000_001]);
    }

    #[test]
    fn memory_matches_paper_scale() {
        // N = 10M -> about 1.25 MB of bitvector (paper Section 5.2.1).
        let s = CandidateSet::new(10_000_000);
        let mb = s.memory_bytes() as f64 / (1024.0 * 1024.0);
        assert!((1.1..1.3).contains(&mb), "{mb} MB");
    }
}
