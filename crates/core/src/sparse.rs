//! Sparse vectors and CRS (Compressed Row Storage) matrices.
//!
//! PLSH represents each document as a sparse unit vector in the vocabulary
//! space (IDF-weighted term scores, paper Section 8) and stores the whole
//! corpus in CRS form (Section 5.1.1) so that hashing is a sparse-times-
//! dense matrix product with sequential access to the sparse side.
//!
//! Distances are angular: `t(p, q) = acos(p·q)` for unit vectors, with the
//! collision probability of the sign-random-projection family being
//! `p(t) = 1 − t/π` (Section 3).

use crate::error::{PlshError, Result};
use crate::util::HugeVec;

/// A sparse vector with strictly increasing dimension indices.
///
/// Invariants (enforced at construction):
/// * `indices` strictly increasing, one `f32` value per index;
/// * at least one non-zero component;
/// * all values finite.
///
/// Most callers want [`SparseVector::unit`], which also normalizes to unit
/// Euclidean length — the representation assumed by the angular-distance
/// kernels and by the LSH collision math.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseVector {
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl SparseVector {
    /// Builds a vector from `(dimension, value)` pairs in any order.
    ///
    /// Pairs with duplicate dimensions are combined by summation; pairs
    /// whose combined value is exactly zero are dropped.
    pub fn new(mut pairs: Vec<(u32, f32)>) -> Result<Self> {
        // The common case, pairs already strictly increasing, finite and
        // non-zero (as a client sends them over the wire), needs no sort:
        // one pass checks it and one splits it.
        let mut prev = None;
        let clean = pairs.iter().all(|&(d, v)| {
            let ok = v.is_finite() && v != 0.0 && prev < Some(d);
            prev = Some(d);
            ok
        });
        if !clean {
            if pairs.iter().any(|(_, v)| !v.is_finite()) {
                return Err(PlshError::NotNormalizable);
            }
            pairs.sort_unstable_by_key(|&(d, _)| d);
        }
        let mut indices = Vec::with_capacity(pairs.len());
        let mut values = Vec::with_capacity(pairs.len());
        let mut rest = pairs.as_slice();
        while let Some((&(d, first), tail)) = rest.split_first() {
            // Sum one dimension's run in sorted order; drop an exact zero
            // (cancellation) as the run closes.
            let run = tail.iter().take_while(|&&(e, _)| e == d).count();
            let sum = tail[..run].iter().fold(first, |acc, &(_, v)| acc + v);
            if sum != 0.0 {
                indices.push(d);
                values.push(sum);
            }
            rest = &tail[run..];
        }
        if indices.is_empty() {
            return Err(PlshError::EmptyVector);
        }
        Ok(Self { indices, values })
    }

    /// Builds a **unit** vector from `(dimension, value)` pairs.
    pub fn unit(pairs: Vec<(u32, f32)>) -> Result<Self> {
        let mut v = Self::new(pairs)?;
        v.normalize()?;
        Ok(v)
    }

    /// Builds a vector from parallel, already strictly-increasing arrays.
    ///
    /// This is the zero-copy path used by corpus loaders; it validates the
    /// ordering invariant instead of repairing it.
    pub fn from_sorted(indices: Vec<u32>, values: Vec<f32>) -> Result<Self> {
        if indices.is_empty() {
            return Err(PlshError::EmptyVector);
        }
        if indices.len() != values.len() {
            return Err(PlshError::InvalidParams(
                "indices and values must have equal length".into(),
            ));
        }
        if indices.windows(2).any(|w| w[0] >= w[1]) {
            return Err(PlshError::UnsortedIndices);
        }
        if values.iter().any(|v| !v.is_finite() || *v == 0.0) {
            return Err(PlshError::NotNormalizable);
        }
        Ok(Self { indices, values })
    }

    /// Scales the vector to unit Euclidean length in place.
    pub fn normalize(&mut self) -> Result<()> {
        let norm = self.norm();
        if !norm.is_finite() || norm <= 0.0 {
            return Err(PlshError::NotNormalizable);
        }
        let inv = 1.0 / norm;
        for v in &mut self.values {
            *v *= inv;
        }
        Ok(())
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f32 {
        self.values
            .iter()
            .map(|v| (*v as f64).powi(2))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Number of non-zero components (`NNZ` in the paper's cost model).
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Sorted dimension indices.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Values parallel to [`indices`](Self::indices).
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Largest dimension index used, or `None` for (impossible) empties.
    pub fn max_index(&self) -> Option<u32> {
        self.indices.last().copied()
    }

    /// Merge-join dot product with another sparse vector.
    ///
    /// This is the "naive" sparse dot product of Section 5.2.3 — iterate one
    /// index array while searching the other — which decides every
    /// reported distance, and Figure 5's unoptimized baseline.
    pub fn dot(&self, other: &SparseVector) -> f32 {
        dot_sorted(&self.indices, &self.values, &other.indices, &other.values)
    }

    /// Angular distance `acos(p·q) ∈ [0, π]`, assuming both are unit vectors.
    pub fn angular_distance(&self, other: &SparseVector) -> f32 {
        angular_from_dot(self.dot(other))
    }
}

/// Angular distance from a dot product of unit vectors, clamped against
/// floating-point drift outside `[-1, 1]`.
#[inline]
pub fn angular_from_dot(dot: f32) -> f32 {
    dot.clamp(-1.0, 1.0).acos()
}

/// Merge-join dot product over two sorted index/value pairs.
#[inline]
pub fn dot_sorted(ai: &[u32], av: &[f32], bi: &[u32], bv: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    let (mut x, mut y) = (0usize, 0usize);
    while x < ai.len() && y < bi.len() {
        let (da, db) = (ai[x], bi[y]);
        if da == db {
            acc += av[x] * bv[y];
            x += 1;
            y += 1;
        } else if da < db {
            x += 1;
        } else {
            y += 1;
        }
    }
    acc
}

/// The signature bit of vocabulary dimension `d`: a fixed multiplicative
/// (Fibonacci) hash onto `0..64`.
#[inline]
pub(crate) fn signature_bit(d: u32) -> u32 {
    d.wrapping_mul(0x9E37_79B9) >> 26
}

/// A row's 64-bit vocabulary signature: bit `h(d)` set for each term `d`,
/// where `h` is a fixed multiplicative hash onto `0..64`. Two rows whose
/// signatures share no bit share no term, and the query kernel bounds a
/// dot product by the query weight on the shared bits
/// (`query::SignatureBound`).
///
/// That bound assumes `‖row‖ ≤ 1`, so a row whose squared norm exceeds
/// `1 + 1e-4` (room to spare over the `f32` rounding of a normalized
/// row) gets the all-ones signature, which the bound never rejects.
pub fn signature(indices: &[u32], values: &[f32]) -> u64 {
    let norm2: f64 = values.iter().map(|&v| f64::from(v) * f64::from(v)).sum();
    if norm2 > 1.0 + 1e-4 {
        return FULL_SIGNATURE;
    }
    indices
        .iter()
        .fold(0u64, |sig, &d| sig | 1u64 << signature_bit(d))
}

/// The signature of a row the bound must not assume a unit norm for.
pub(crate) const FULL_SIGNATURE: u64 = u64::MAX;

/// A growable CRS (a.k.a. CSR) matrix of sparse rows.
///
/// Row data is stored in three flat arrays (`row_offsets`, `cols`, `vals`),
/// the layout of Duff et al. \[17\] used by the paper for both the corpus
/// and the hashing matrix product, plus one vocabulary [`signature`] per
/// row (`sigs`), derived from the row whenever it is stored, so no file
/// format carries it. Rows are immutable once pushed; the only mutation
/// is appending (streaming inserts) and truncation (retirement of a
/// node's data). Each array is a `util::HugeVec`, so a corpus's rows sit
/// on huge pages once an array reaches 2 MB: Q3 loads candidate rows at
/// random.
#[derive(Debug, Clone)]
pub struct CrsMatrix {
    dim: u32,
    row_offsets: HugeVec<usize>,
    cols: HugeVec<u32>,
    vals: HugeVec<f32>,
    sigs: HugeVec<u64>,
}

impl CrsMatrix {
    /// Creates an empty matrix whose rows live in `0..dim`.
    pub fn new(dim: u32) -> Self {
        Self {
            dim,
            row_offsets: HugeVec::from_slice(&[0]),
            cols: HugeVec::new(),
            vals: HugeVec::new(),
            sigs: HugeVec::new(),
        }
    }

    /// Creates an empty matrix with storage reserved for `rows` rows of
    /// about `nnz_per_row` non-zeros each.
    pub fn with_capacity(dim: u32, rows: usize, nnz_per_row: usize) -> Self {
        let mut m = Self::new(dim);
        m.row_offsets.reserve(rows);
        m.sigs.reserve(rows);
        m.cols.reserve(rows * nnz_per_row);
        m.vals.reserve(rows * nnz_per_row);
        m
    }

    /// Dimensionality `D` of the column space.
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Number of rows (`N`).
    pub fn num_rows(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Total number of stored non-zeros.
    pub fn total_nnz(&self) -> usize {
        self.cols.len()
    }

    /// Mean non-zeros per row (the `NNZ` constant of the cost model).
    pub fn avg_nnz(&self) -> f64 {
        if self.num_rows() == 0 {
            0.0
        } else {
            self.total_nnz() as f64 / self.num_rows() as f64
        }
    }

    /// Appends a row; returns its row index.
    pub fn push(&mut self, row: &SparseVector) -> Result<u32> {
        if let Some(max) = row.max_index() {
            if max >= self.dim {
                return Err(PlshError::DimensionOutOfRange {
                    index: max,
                    dim: self.dim,
                });
            }
        }
        let id = self.num_rows() as u32;
        self.cols.extend_from_slice(row.indices());
        self.vals.extend_from_slice(row.values());
        self.row_offsets.push(self.cols.len());
        self.sigs.push(signature(row.indices(), row.values()));
        Ok(id)
    }

    /// Borrowed view of row `i` as `(indices, values)`.
    #[inline]
    pub fn row(&self, i: u32) -> (&[u32], &[f32]) {
        let lo = self.row_offsets[i as usize];
        let hi = self.row_offsets[i as usize + 1];
        (&self.cols[lo..hi], &self.vals[lo..hi])
    }

    /// Hints the hardware to pull the offsets slot of row `i` into cache
    /// ahead of [`row`](Self::row) — the first of the two dependent loads
    /// a row access costs. A no-op for rows past the end.
    #[inline]
    pub fn prefetch_row_offsets(&self, i: u32) {
        if let Some(slot) = self.row_offsets.get(i as usize) {
            crate::util::prefetch_read(slot);
        }
    }

    /// Row `i`'s vocabulary [`signature`].
    #[inline]
    pub(crate) fn signature(&self, i: u32) -> u64 {
        self.sigs[i as usize]
    }

    /// Hints the hardware to pull row `i`'s signature into cache. A no-op
    /// for rows past the end.
    #[inline]
    pub(crate) fn prefetch_signature(&self, i: u32) {
        if let Some(sig) = self.sigs.get(i as usize) {
            crate::util::prefetch_read(sig);
        }
    }

    /// Owned copy of row `i`.
    pub fn row_vector(&self, i: u32) -> SparseVector {
        let (idx, val) = self.row(i);
        SparseVector {
            indices: idx.to_vec(),
            values: val.to_vec(),
        }
    }

    /// Appends every row of `other` (bulk flat-array copy — the corpus
    /// consolidation step of a streaming merge, bound by memory bandwidth
    /// like the table scatter it accompanies).
    pub fn extend_from(&mut self, other: &CrsMatrix) {
        assert_eq!(self.dim, other.dim, "row spaces must match");
        let base = self.cols.len();
        self.cols.extend_from_slice(&other.cols);
        self.vals.extend_from_slice(&other.vals);
        self.sigs.extend_from_slice(&other.sigs);
        self.row_offsets
            .extend(other.row_offsets[1..].iter().map(|o| o + base));
    }

    /// Appends the rows of `other` starting at row `from_row` (the
    /// window-compaction variant of [`extend_from`](Self::extend_from):
    /// a merge that retires an expired prefix copies only the surviving
    /// suffix, still one flat-array copy per buffer).
    pub fn extend_from_range(&mut self, other: &CrsMatrix, from_row: usize) {
        assert_eq!(self.dim, other.dim, "row spaces must match");
        let from_row = from_row.min(other.num_rows());
        let lo = other.row_offsets[from_row];
        let base = self.cols.len();
        self.cols.extend_from_slice(&other.cols[lo..]);
        self.vals.extend_from_slice(&other.vals[lo..]);
        self.sigs.extend_from_slice(&other.sigs[from_row..]);
        self.row_offsets.extend(
            other.row_offsets[from_row + 1..]
                .iter()
                .map(|o| o - lo + base),
        );
    }

    /// The rows of each `(matrix, from_row)` part from `from_row` on, in
    /// order, in storage sized once: a merge's new static corpus, built
    /// without regrowing a buffer of the whole corpus.
    pub(crate) fn from_suffixes(dim: u32, parts: &[(&CrsMatrix, usize)]) -> Self {
        let (mut rows, mut nnz) = (0, 0);
        for &(m, from) in parts {
            let from = from.min(m.num_rows());
            rows += m.num_rows() - from;
            nnz += m.total_nnz() - m.row_offsets[from];
        }
        let mut out = Self::new(dim);
        out.row_offsets.reserve(rows);
        out.sigs.reserve(rows);
        out.cols.reserve(nnz);
        out.vals.reserve(nnz);
        for &(m, from) in parts {
            out.extend_from_range(m, from);
        }
        out
    }

    /// Drops every row with index `>= keep`, retaining storage.
    pub fn truncate(&mut self, keep: usize) {
        if keep >= self.num_rows() {
            return;
        }
        let end = self.row_offsets[keep];
        self.cols.truncate(end);
        self.vals.truncate(end);
        self.sigs.truncate(keep);
        self.row_offsets.truncate(keep + 1);
    }

    /// Removes all rows, retaining storage (node retirement, Section 6).
    pub fn clear(&mut self) {
        self.truncate(0);
    }

    /// Dot product between row `i` and an external sparse vector.
    pub fn dot_row(&self, i: u32, q: &SparseVector) -> f32 {
        let (idx, val) = self.row(i);
        dot_sorted(idx, val, q.indices(), q.values())
    }
}

#[cfg(test)]
impl SparseVector {
    /// The zero vector, which no public constructor builds: lets tests
    /// cover an empty row.
    pub(crate) fn zero() -> Self {
        Self {
            indices: Vec::new(),
            values: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(pairs: &[(u32, f32)]) -> SparseVector {
        SparseVector::new(pairs.to_vec()).unwrap()
    }

    /// Every row's stored signature is the one its data derives.
    fn assert_signatures_in_step(m: &CrsMatrix) {
        assert_eq!(m.sigs.len(), m.num_rows());
        for i in 0..m.num_rows() as u32 {
            let (idx, val) = m.row(i);
            assert_eq!(m.signature(i), signature(idx, val), "row {i}");
        }
    }

    #[test]
    fn signature_sets_a_bit_per_term_and_guards_the_norm() {
        let v = SparseVector::unit(vec![(3, 1.0), (70, 2.0), (9000, 0.5)]).unwrap();
        let want = [3, 70, 9000]
            .iter()
            .fold(0u64, |s, &d| s | 1 << signature_bit(d));
        assert_eq!(signature(v.indices(), v.values()), want);
        assert!(want.count_ones() >= 1 && want.count_ones() <= 3);
        // Short of unit length is fine; past 1 + 1e-4 turns the bound off.
        let short = sv(&[(3, 0.5), (70, -0.5)]);
        assert_ne!(signature(short.indices(), short.values()), FULL_SIGNATURE);
        let long = sv(&[(3, 1.0), (70, 0.1)]);
        assert_eq!(signature(long.indices(), long.values()), FULL_SIGNATURE);
    }

    /// `new` before its one-pass rewrite, kept as the oracle.
    fn new_reference(mut pairs: Vec<(u32, f32)>) -> Result<SparseVector> {
        if pairs.iter().any(|(_, v)| !v.is_finite()) {
            return Err(PlshError::NotNormalizable);
        }
        pairs.sort_unstable_by_key(|&(d, _)| d);
        let mut indices = Vec::with_capacity(pairs.len());
        let mut values: Vec<f32> = Vec::with_capacity(pairs.len());
        for (d, v) in pairs {
            match indices.last() {
                Some(&last) if last == d => {
                    *values.last_mut().expect("values parallel to indices") += v;
                }
                _ => {
                    indices.push(d);
                    values.push(v);
                }
            }
        }
        let mut keep_idx = Vec::with_capacity(indices.len());
        let mut keep_val = Vec::with_capacity(values.len());
        for (d, v) in indices.into_iter().zip(values) {
            if v != 0.0 {
                keep_idx.push(d);
                keep_val.push(v);
            }
        }
        if keep_idx.is_empty() {
            return Err(PlshError::EmptyVector);
        }
        Ok(SparseVector {
            indices: keep_idx,
            values: keep_val,
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        /// Duplicates, cancellation to zero, unsorted and sorted input,
        /// non-finite values and empty input: `new` equals the oracle bit
        /// for bit, error included.
        #[test]
        fn new_equals_the_two_pass_oracle(
            raw in proptest::collection::vec((0u32..12, 0u8..24, -2.0f32..2.0), 0..12),
            sorted in 0u8..3,
        ) {
            let mut pairs: Vec<(u32, f32)> = raw
                .iter()
                .map(|&(d, kind, x)| {
                    let v = match kind {
                        0 => 0.0,
                        1 => -0.0,
                        2 => f32::NAN,
                        3 => f32::INFINITY,
                        4 => f32::NEG_INFINITY,
                        5 => 0.5,
                        6 => -0.5,
                        7 => f32::MAX,
                        8 => 1e-45,
                        _ => x,
                    };
                    (d, v)
                })
                .collect();
            if sorted > 0 {
                // Often strictly increasing, so the one-pass path runs.
                pairs.sort_by_key(|&(d, _)| d);
                if sorted > 1 {
                    pairs.dedup_by_key(|p| p.0);
                }
            }
            let bits = |r: Result<SparseVector>| {
                r.map(|v| (v.indices, v.values.iter().map(|x| x.to_bits()).collect::<Vec<_>>()))
            };
            proptest::prop_assert_eq!(
                bits(SparseVector::new(pairs.clone())),
                bits(new_reference(pairs))
            );
        }
    }

    #[test]
    fn new_sorts_and_merges_duplicates() {
        let v = sv(&[(5, 1.0), (2, 2.0), (5, 3.0)]);
        assert_eq!(v.indices(), &[2, 5]);
        assert_eq!(v.values(), &[2.0, 4.0]);
    }

    #[test]
    fn new_drops_cancelled_zeros() {
        let v = sv(&[(1, 1.0), (1, -1.0), (3, 2.0)]);
        assert_eq!(v.indices(), &[3]);
    }

    #[test]
    fn new_rejects_empty_and_nan() {
        assert_eq!(
            SparseVector::new(vec![]).unwrap_err(),
            PlshError::EmptyVector
        );
        assert_eq!(
            SparseVector::new(vec![(0, f32::NAN)]).unwrap_err(),
            PlshError::NotNormalizable
        );
    }

    #[test]
    fn from_sorted_validates() {
        assert!(SparseVector::from_sorted(vec![0, 1], vec![1.0, 2.0]).is_ok());
        assert_eq!(
            SparseVector::from_sorted(vec![1, 1], vec![1.0, 2.0]).unwrap_err(),
            PlshError::UnsortedIndices
        );
        assert_eq!(
            SparseVector::from_sorted(vec![2, 1], vec![1.0, 2.0]).unwrap_err(),
            PlshError::UnsortedIndices
        );
        assert_eq!(
            SparseVector::from_sorted(vec![0], vec![1.0, 2.0]).unwrap_err(),
            PlshError::InvalidParams("indices and values must have equal length".into())
        );
    }

    #[test]
    fn unit_normalizes() {
        let v = SparseVector::unit(vec![(0, 3.0), (1, 4.0)]).unwrap();
        assert!((v.norm() - 1.0).abs() < 1e-6);
        assert!((v.values()[0] - 0.6).abs() < 1e-6);
        assert!((v.values()[1] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn dot_merge_join() {
        let a = sv(&[(0, 1.0), (2, 2.0), (7, 3.0)]);
        let b = sv(&[(2, 5.0), (6, 1.0), (7, 1.0)]);
        assert_eq!(a.dot(&b), 2.0 * 5.0 + 3.0 * 1.0);
        // Disjoint supports dot to zero.
        let c = sv(&[(100, 1.0)]);
        assert_eq!(a.dot(&c), 0.0);
    }

    #[test]
    fn angular_distance_identity_and_orthogonal() {
        let a = SparseVector::unit(vec![(0, 1.0)]).unwrap();
        let b = SparseVector::unit(vec![(1, 1.0)]).unwrap();
        assert!(a.angular_distance(&a) < 1e-3);
        assert!((a.angular_distance(&b) - std::f32::consts::FRAC_PI_2).abs() < 1e-6);
    }

    #[test]
    fn angular_from_dot_clamps() {
        assert_eq!(angular_from_dot(1.0 + 1e-6), 0.0);
        assert!((angular_from_dot(-1.0 - 1e-6) - std::f32::consts::PI).abs() < 1e-6);
    }

    #[test]
    fn crs_push_and_row_roundtrip() {
        let mut m = CrsMatrix::new(10);
        let a = sv(&[(0, 1.0), (3, 2.0)]);
        let b = sv(&[(9, 5.0)]);
        assert_eq!(m.push(&a).unwrap(), 0);
        assert_eq!(m.push(&b).unwrap(), 1);
        assert_eq!(m.num_rows(), 2);
        assert_eq!(m.total_nnz(), 3);
        assert_eq!(m.row_vector(0), a);
        assert_eq!(m.row_vector(1), b);
        assert!((m.avg_nnz() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn crs_extend_from_range_copies_the_suffix() {
        let rows = [sv(&[(0, 1.0)]), sv(&[(1, 2.0), (3, 1.0)]), sv(&[(2, 4.0)])];
        let mut src = CrsMatrix::new(8);
        for r in &rows {
            src.push(r).unwrap();
        }
        let mut dst = CrsMatrix::new(8);
        dst.push(&rows[2]).unwrap();
        dst.extend_from_range(&src, 1);
        assert_eq!(dst.num_rows(), 3);
        assert_eq!(dst.row_vector(0), rows[2]);
        assert_eq!(dst.row_vector(1), rows[1]);
        assert_eq!(dst.row_vector(2), rows[2]);
        assert_signatures_in_step(&dst);
        // Degenerate ranges: whole matrix and empty suffix.
        let mut all = CrsMatrix::new(8);
        all.extend_from_range(&src, 0);
        assert_eq!(all.num_rows(), 3);
        assert_signatures_in_step(&all);
        let mut none = CrsMatrix::new(8);
        none.extend_from_range(&src, 3);
        assert_eq!(none.num_rows(), 0);
        assert_signatures_in_step(&none);
    }

    #[test]
    fn crs_rejects_out_of_range() {
        let mut m = CrsMatrix::new(4);
        let v = sv(&[(4, 1.0)]);
        assert_eq!(
            m.push(&v).unwrap_err(),
            PlshError::DimensionOutOfRange { index: 4, dim: 4 }
        );
        assert_eq!(m.num_rows(), 0, "failed push must not leave partial state");
        assert_eq!(m.total_nnz(), 0);
    }

    #[test]
    fn crs_truncate_and_clear() {
        let mut m = CrsMatrix::new(10);
        for i in 0..5u32 {
            m.push(&sv(&[(i, 1.0)])).unwrap();
        }
        m.truncate(3);
        assert_eq!(m.num_rows(), 3);
        assert_eq!(m.row_vector(2), sv(&[(2, 1.0)]));
        assert_signatures_in_step(&m);
        m.truncate(7); // no-op beyond current size
        assert_eq!(m.num_rows(), 3);
        m.clear();
        assert_eq!(m.num_rows(), 0);
        assert_eq!(m.total_nnz(), 0);
        assert_signatures_in_step(&m);
        // Matrix is reusable after clear.
        m.push(&sv(&[(1, 1.0)])).unwrap();
        assert_eq!(m.num_rows(), 1);
        assert_signatures_in_step(&m);
    }

    #[test]
    fn extend_from_concatenates_rows() {
        let mut a = CrsMatrix::new(10);
        a.push(&sv(&[(0, 1.0), (3, 2.0)])).unwrap();
        let mut b = CrsMatrix::new(10);
        b.push(&sv(&[(9, 5.0)])).unwrap();
        b.push(&sv(&[(1, 1.0), (2, 1.0), (4, 1.0)])).unwrap();
        a.extend_from(&b);
        assert_eq!(a.num_rows(), 3);
        assert_eq!(a.row_vector(0), sv(&[(0, 1.0), (3, 2.0)]));
        assert_eq!(a.row_vector(1), sv(&[(9, 5.0)]));
        assert_eq!(a.row_vector(2), sv(&[(1, 1.0), (2, 1.0), (4, 1.0)]));
        assert_eq!(a.total_nnz(), 6);
        assert_signatures_in_step(&a);
        // Appending an empty matrix is a no-op.
        a.extend_from(&CrsMatrix::new(10));
        assert_eq!(a.num_rows(), 3);
    }

    #[test]
    fn dot_row_matches_vector_dot() {
        let mut m = CrsMatrix::new(16);
        let a = sv(&[(0, 0.5), (7, 0.5)]);
        let q = sv(&[(7, 2.0), (9, 1.0)]);
        m.push(&a).unwrap();
        assert_eq!(m.dot_row(0, &q), a.dot(&q));
    }
}
