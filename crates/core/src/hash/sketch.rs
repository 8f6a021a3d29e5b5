//! Packed half-key sketches for every indexed point.
//!
//! A point's sketch is its `m` half-keys `u_1(v)…u_m(v)`, each `k/2` sign
//! bits. The [`SketchMatrix`] packs them one lane per half-key — a byte
//! when `k/2 ≤ 8`, two otherwise — in the blocked column layout of
//! [`HalfKeyColumn`], and supports appending: streaming inserts hash
//! their points once here, queries against the un-merged delta *scan*
//! the column ([`simd::scan_half_keys`]), and every later merge reads the
//! stored half-keys, one block of lane runs at a time, instead of
//! re-hashing — which is what makes the paper's periodic merges
//! affordable.

use std::ops::Range;

use plsh_parallel::{SharedSliceMut, ThreadPool};

use crate::hash::allpairs;
use crate::hash::hyperplanes::Hyperplanes;
use crate::simd::{self, HalfKeyColumn, BLOCK_DOCS};
use crate::sparse::CrsMatrix;

/// Packed `k/2`-bit half-keys for `n` points × `m` functions.
#[derive(Debug, Clone)]
pub struct SketchMatrix {
    m: u32,
    half_bits: u32,
    n: usize,
    /// One little-endian lane per `(point, function)` at
    /// [`simd::lane_index`]; exactly `n · m` lanes, no padding.
    lanes: Vec<u8>,
}

impl SketchMatrix {
    /// Creates an empty sketch matrix for `m` functions of `half_bits` bits.
    pub fn new(m: u32, half_bits: u32) -> Self {
        assert!((1..=16).contains(&half_bits), "half-keys are u16-packed");
        assert!(m >= 2);
        Self {
            m,
            half_bits,
            n: 0,
            lanes: Vec::new(),
        }
    }

    /// Number of half-key functions `m`.
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Bits per half-key (`k/2`).
    pub fn half_bits(&self) -> u32 {
        self.half_bits
    }

    /// Number of sketched points.
    pub fn num_points(&self) -> usize {
        self.n
    }

    /// Bytes of sketch storage.
    pub fn memory_bytes(&self) -> usize {
        self.lanes.len()
    }

    #[inline]
    fn lane_bytes(&self) -> usize {
        if self.half_bits <= 8 {
            1
        } else {
            2
        }
    }

    /// The packed column, for [`simd::scan_half_keys`].
    pub fn column(&self) -> HalfKeyColumn<'_> {
        HalfKeyColumn::new(&self.lanes, self.lane_bytes(), self.m as usize, self.n)
    }

    /// Half-key `u_a` of point `i`.
    #[inline]
    pub fn half_key(&self, i: u32, a: u32) -> u32 {
        debug_assert!(a < self.m);
        let lane = simd::lane_index(i as usize, a as usize, self.m as usize, self.n);
        if self.lane_bytes() == 1 {
            u32::from(self.lanes[lane])
        } else {
            u32::from(u16::from_le_bytes([
                self.lanes[2 * lane],
                self.lanes[2 * lane + 1],
            ]))
        }
    }

    /// All `m` half-keys of point `i`.
    pub fn half_keys(&self, i: u32) -> impl Iterator<Item = u32> + '_ {
        (0..self.m).map(move |a| self.half_key(i, a))
    }

    /// Appends the table key of pair `(a, b)` —
    /// [`allpairs::compose_key`] of `u_a` and `u_b` — of every point in
    /// `points` to `out`, in point order. Each packed block is read as its
    /// two lane runs, in order, instead of locating every lane through
    /// [`half_key`](Self::half_key): this is how a merge keys a whole
    /// generation for one table.
    pub(crate) fn extend_pair_keys(
        &self,
        a: u32,
        b: u32,
        points: Range<usize>,
        out: &mut Vec<u32>,
    ) {
        assert!(a < self.m && b < self.m && points.end <= self.n);
        let (m, w, half_bits) = (self.m as usize, self.lane_bytes(), self.half_bits);
        out.reserve(points.len());
        let mut i = points.start;
        while i < points.end {
            let first = i / BLOCK_DOCS * BLOCK_DOCS;
            let docs = (self.n - first).min(BLOCK_DOCS);
            let stop = points.end.min(first + docs);
            // Lanes `i..stop` of run `f`, as `lane_index` lays them out.
            let run = |f: u32| {
                let at = (first * m + f as usize * docs + (i - first)) * w;
                &self.lanes[at..at + (stop - i) * w]
            };
            let (ra, rb) = (run(a), run(b));
            if w == 1 {
                out.extend(
                    ra.iter()
                        .zip(rb)
                        .map(|(&ua, &ub)| allpairs::compose_key(ua.into(), ub.into(), half_bits)),
                );
            } else {
                let lane = |x: &[u8]| u32::from(u16::from_le_bytes([x[0], x[1]]));
                out.extend(
                    ra.chunks_exact(2)
                        .zip(rb.chunks_exact(2))
                        .map(|(ua, ub)| allpairs::compose_key(lane(ua), lane(ub), half_bits)),
                );
            }
            i = stop;
        }
    }

    /// Makes room for `extra` more points: grows the lane buffer and
    /// re-strides the partial tail block (its stride is its point count)
    /// so the new points' lanes are the only ones left to write.
    fn grow(&mut self, extra: usize) {
        let (m, w) = (self.m as usize, self.lane_bytes());
        let new_n = self.n + extra;
        self.lanes.resize(new_n * m * w, 0);
        let first = self.n / BLOCK_DOCS * BLOCK_DOCS;
        let old_stride = self.n - first;
        let new_stride = (new_n - first).min(BLOCK_DOCS);
        if old_stride > 0 && new_stride > old_stride {
            let block = &mut self.lanes[first * m * w..];
            // Highest run first: each destination starts at or past the
            // end of every lower run's source, so nothing unmoved is hit.
            for a in (1..m).rev() {
                let src = a * old_stride * w;
                block.copy_within(src..src + old_stride * w, a * new_stride * w);
            }
        }
        self.n = new_n;
    }

    /// Appends one point from its already-computed half-keys (the kernel
    /// proofs and Figure 4's unvectorized hashing build columns this way;
    /// the engine hashes through [`append_from`](Self::append_from)).
    pub fn push(&mut self, half_keys: &[u32]) {
        assert_eq!(half_keys.len(), self.m as usize);
        assert!(half_keys.iter().all(|&key| key < 1 << self.half_bits));
        let (i, m, w) = (self.n, self.m as usize, self.lane_bytes());
        self.grow(1);
        for (a, &key) in half_keys.iter().enumerate() {
            let at = simd::lane_index(i, a, m, self.n) * w;
            self.lanes[at..at + w].copy_from_slice(&key.to_le_bytes()[..w]);
        }
    }

    /// Sketches rows `[from, corpus.num_rows())` of `corpus` and appends
    /// them, parallelized over points (Section 5.1.1).
    pub fn append_from(
        &mut self,
        corpus: &CrsMatrix,
        planes: &Hyperplanes,
        from: usize,
        pool: &ThreadPool,
    ) {
        let n = corpus.num_rows();
        assert!(from <= n);
        assert_eq!(
            self.num_points(),
            from,
            "append must continue at the next row"
        );
        let new_points = n - from;
        if new_points == 0 {
            return;
        }
        let (m, w) = (self.m as usize, self.lane_bytes());
        self.grow(new_points);
        let n_hashes = planes.n_hashes() as usize;
        debug_assert_eq!(n_hashes, m * self.half_bits as usize);

        let shared = SharedSliceMut::new(&mut self.lanes[..]);
        let shared = &shared;
        let half_bits = self.half_bits;
        pool.parallel_for(0, new_points, 64, |range| {
            let mut acc = vec![0.0f32; n_hashes];
            for local in range {
                let (idx, val) = corpus.row((from + local) as u32);
                acc.iter_mut().for_each(|a| *a = 0.0);
                planes.accumulate(idx, val, &mut acc);
                for a in 0..m {
                    let key = pack_half_key(&acc[a * half_bits as usize..], half_bits);
                    let at = simd::lane_index(from + local, a, m, n) * w;
                    for (k, &byte) in key.to_le_bytes()[..w].iter().enumerate() {
                        // SAFETY: each point's m lanes are owned by exactly
                        // one parallel_for chunk, and `grow` left no other
                        // lane unwritten.
                        unsafe { shared.write(at + k, byte) };
                    }
                }
            }
        });
    }

    /// Sketches one vector without storing it (query-side Step Q1).
    ///
    /// `acc` is caller-provided scratch of length `n_hashes`; `out` receives
    /// the `m` half-keys.
    pub fn sketch_one(
        planes: &Hyperplanes,
        half_bits: u32,
        indices: &[u32],
        values: &[f32],
        acc: &mut [f32],
        out: &mut [u32],
    ) {
        debug_assert_eq!(acc.len(), planes.n_hashes() as usize);
        acc.iter_mut().for_each(|a| *a = 0.0);
        planes.accumulate(indices, values, acc);
        for (a, slot) in out.iter_mut().enumerate() {
            *slot = pack_half_key(&acc[a * half_bits as usize..], half_bits);
        }
    }

    /// Sketches a whole batch of vectors without storing them — the batched
    /// query-side Step Q1.
    ///
    /// Hashing is delegated to [`Hyperplanes::accumulate_batch`], sized so
    /// the union of plane rows the batch touches stays cache-resident
    /// across its queries. `acc` is caller-provided scratch
    /// (resized/cleared here); `out` receives `m` half-keys per query,
    /// row-major, and must hold `queries.len() · m` entries.
    ///
    /// Bit-identical to calling [`sketch_one`](Self::sketch_one) per query.
    pub fn sketch_batch(
        planes: &Hyperplanes,
        half_bits: u32,
        queries: &[(&[u32], &[f32])],
        acc: &mut Vec<f32>,
        out: &mut [u32],
    ) {
        let nh = planes.n_hashes() as usize;
        let m = nh / half_bits as usize;
        debug_assert_eq!(out.len(), queries.len() * m);
        acc.clear();
        acc.resize(queries.len() * nh, 0.0);
        planes.accumulate_batch(queries, acc);
        for (q, keys) in out.chunks_mut(m).enumerate() {
            let qacc = &acc[q * nh..(q + 1) * nh];
            for (a, slot) in keys.iter_mut().enumerate() {
                *slot = pack_half_key(&qacc[a * half_bits as usize..], half_bits);
            }
        }
    }
}

/// Packs the first `half_bits` accumulator signs into a half-key:
/// bit `b` of the key is `1` iff `acc[b] >= 0` (`sign(a·v)`).
#[inline]
fn pack_half_key(acc: &[f32], half_bits: u32) -> u32 {
    let mut key = 0u32;
    for b in 0..half_bits {
        // Treat +0.0 as positive sign; the measure-zero event of an exact
        // zero dot product only needs a consistent tie-break.
        key |= u32::from(acc[b as usize] >= 0.0) << b;
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::SparseVector;

    fn tiny_corpus(dim: u32, rows: &[&[(u32, f32)]]) -> CrsMatrix {
        let mut m = CrsMatrix::new(dim);
        for r in rows {
            m.push(&SparseVector::unit(r.to_vec()).unwrap()).unwrap();
        }
        m
    }

    #[test]
    fn pack_half_key_signs() {
        assert_eq!(pack_half_key(&[1.0, -1.0, 0.5, -0.5], 4), 0b0101);
        assert_eq!(pack_half_key(&[-1.0, -1.0], 2), 0b00);
        assert_eq!(pack_half_key(&[0.0, 1.0], 2), 0b11); // +0 counts as set
    }

    #[test]
    fn append_then_query_sketches_agree() {
        let pool = ThreadPool::new(2);
        let corpus = tiny_corpus(
            32,
            &[&[(0, 1.0), (5, 2.0)], &[(1, 1.0), (31, -1.0)], &[(16, 3.0)]],
        );
        let m = 4u32;
        let half_bits = 3u32;
        let planes = Hyperplanes::new_dense(32, m * half_bits, 21, &pool);
        let mut sk = SketchMatrix::new(m, half_bits);
        sk.append_from(&corpus, &planes, 0, &pool);
        assert_eq!(sk.num_points(), 3);

        // sketch_one must reproduce the stored sketch for each row.
        let mut acc = vec![0.0f32; planes.n_hashes() as usize];
        let mut out = vec![0u32; m as usize];
        for i in 0..3u32 {
            let (idx, val) = corpus.row(i);
            SketchMatrix::sketch_one(&planes, half_bits, idx, val, &mut acc, &mut out);
            assert!(sk.half_keys(i).eq(out.iter().copied()), "row {i}");
        }
    }

    #[test]
    fn sketch_batch_matches_sketch_one() {
        let pool = ThreadPool::new(1);
        let rows: Vec<Vec<(u32, f32)>> = (0..17)
            .map(|i| vec![(i % 24, 1.0 + i as f32 * 0.3), ((i * 5 + 2) % 24, -0.7)])
            .collect();
        let row_refs: Vec<&[(u32, f32)]> = rows.iter().map(|r| r.as_slice()).collect();
        let corpus = tiny_corpus(24, &row_refs);
        let (m, half_bits) = (5u32, 3u32);
        let planes = Hyperplanes::new_dense(24, m * half_bits, 42, &pool);

        let views: Vec<(&[u32], &[f32])> = (0..corpus.num_rows() as u32)
            .map(|i| corpus.row(i))
            .collect();
        let mut acc = Vec::new();
        let mut batch = vec![0u32; views.len() * m as usize];
        SketchMatrix::sketch_batch(&planes, half_bits, &views, &mut acc, &mut batch);

        let mut one_acc = vec![0.0f32; planes.n_hashes() as usize];
        let mut one = vec![0u32; m as usize];
        for (q, &(idx, val)) in views.iter().enumerate() {
            SketchMatrix::sketch_one(&planes, half_bits, idx, val, &mut one_acc, &mut one);
            assert_eq!(
                &batch[q * m as usize..(q + 1) * m as usize],
                &one[..],
                "query {q}"
            );
        }
    }

    #[test]
    fn incremental_append_matches_bulk() {
        let pool = ThreadPool::new(1);
        let rows: Vec<Vec<(u32, f32)>> = (0..10)
            .map(|i| vec![(i as u32, 1.0), ((i + 3) as u32 % 20, 2.0)])
            .collect();
        let row_refs: Vec<&[(u32, f32)]> = rows.iter().map(|r| r.as_slice()).collect();
        let corpus = tiny_corpus(20, &row_refs);
        let planes = Hyperplanes::new_dense(20, 3 * 2, 8, &pool);

        let mut bulk = SketchMatrix::new(3, 2);
        bulk.append_from(&corpus, &planes, 0, &pool);

        // Rebuild the same corpus in two increments.
        let mut inc = SketchMatrix::new(3, 2);
        let mut partial = CrsMatrix::new(20);
        for r in &rows[..4] {
            partial
                .push(&SparseVector::unit(r.clone()).unwrap())
                .unwrap();
        }
        inc.append_from(&partial, &planes, 0, &pool);
        for r in &rows[4..] {
            partial
                .push(&SparseVector::unit(r.clone()).unwrap())
                .unwrap();
        }
        inc.append_from(&partial, &planes, 4, &pool);

        assert_eq!(bulk.num_points(), inc.num_points());
        for i in 0..10u32 {
            assert!(bulk.half_keys(i).eq(inc.half_keys(i)));
        }
    }

    #[test]
    fn half_keys_fit_in_half_bits() {
        let pool = ThreadPool::new(1);
        let rows: Vec<Vec<(u32, f32)>> = (0..25).map(|i| vec![(i as u32, 1.0)]).collect();
        let row_refs: Vec<&[(u32, f32)]> = rows.iter().map(|r| r.as_slice()).collect();
        let corpus = tiny_corpus(25, &row_refs);
        for half_bits in [1u32, 2, 5, 8] {
            let planes = Hyperplanes::new_dense(25, 2 * half_bits, 77, &pool);
            let mut sk = SketchMatrix::new(2, half_bits);
            sk.append_from(&corpus, &planes, 0, &pool);
            for i in 0..25u32 {
                for a in 0..2 {
                    assert!(sk.half_key(i, a) < (1 << half_bits));
                }
            }
        }
    }

    #[test]
    fn pair_keys_match_composed_half_keys_on_any_range() {
        // Ranges that start and end inside blocks, span several, and end
        // in the short tail block, in both lane widths.
        let mut rng = crate::rng::SplitMix64::new(11);
        for (m, half_bits) in [(4u32, 3u32), (5, 8), (3, 9), (6, 12)] {
            let mut sk = SketchMatrix::new(m, half_bits);
            for _ in 0..(3 * BLOCK_DOCS + 5) {
                let row: Vec<u32> = (0..m)
                    .map(|_| rng.next_below(1 << half_bits) as u32)
                    .collect();
                sk.push(&row);
            }
            let n = sk.num_points();
            for (from, to) in [
                (0, n),
                (0, 0),
                (3, 29),
                (31, 33),
                (17, 90),
                (64, n),
                (n - 1, n),
            ] {
                for (a, b) in allpairs::pairs(m) {
                    let mut got = vec![7u32]; // appended after what is there
                    sk.extend_pair_keys(a, b, from..to, &mut got);
                    let expect: Vec<u32> = std::iter::once(7)
                        .chain((from..to).map(|i| {
                            let i = i as u32;
                            allpairs::compose_key(sk.half_key(i, a), sk.half_key(i, b), half_bits)
                        }))
                        .collect();
                    assert_eq!(
                        got, expect,
                        "m={m} half_bits={half_bits} {from}..{to} ({a},{b})"
                    );
                }
            }
        }
    }

    #[test]
    fn pushes_keep_every_half_key_across_blocks_and_lane_widths() {
        // Growing re-strides the partial tail block; every half-key must
        // survive each step, in both lane widths, and nothing is padded.
        let mut rng = crate::rng::SplitMix64::new(5);
        for (m, half_bits) in [(2u32, 1u32), (5, 8), (3, 9), (16, 16)] {
            let mut sk = SketchMatrix::new(m, half_bits);
            let mut rows: Vec<Vec<u32>> = Vec::new();
            for _ in 0..(2 * BLOCK_DOCS + 7) {
                let row: Vec<u32> = (0..m)
                    .map(|_| rng.next_below(1 << half_bits) as u32)
                    .collect();
                sk.push(&row);
                rows.push(row);
                for (i, expect) in rows.iter().enumerate() {
                    assert!(sk.half_keys(i as u32).eq(expect.iter().copied()), "row {i}");
                }
            }
            let lane_bytes = if half_bits <= 8 { 1 } else { 2 };
            assert_eq!(sk.memory_bytes(), rows.len() * m as usize * lane_bytes);
        }
    }
}
