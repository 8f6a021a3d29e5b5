//! Random hyperplane storage and the hashing kernel.
//!
//! Evaluating all hash functions over the corpus is a sparse × dense matrix
//! product (paper Section 5.1.1): the sparse side is the CRS corpus, the
//! dense side is the `D × (m·k/2)` hyperplane matrix. We store the dense
//! matrix **dimension-major** (`planes[d * n_hashes + j]`) so that for each
//! non-zero `(d, value)` of a document the inner loop reads one contiguous
//! row of `n_hashes` floats — the access pattern the paper chooses so "at
//! least one row of the dense matrix is read consecutively", which LLVM
//! auto-vectorizes.
//!
//! The matrix is materialized once per engine from the counter-based
//! generator ([`gaussian_at`]), so the same seed gives the same planes on
//! every pool size.

use plsh_parallel::{SharedSliceMut, ThreadPool};

use crate::rng::gaussian_at;
use crate::simd;
use crate::util::HugeVec;

/// The `m·k/2` random Gaussian hyperplanes of the hash family.
#[derive(Debug, Clone)]
pub struct Hyperplanes {
    dim: u32,
    n_hashes: u32,
    /// Dimension-major dense storage: on huge pages once 2 MB or more, as
    /// Q1 and every insert read one plane row per non-zero at random.
    dense: HugeVec<f32>,
}

impl Hyperplanes {
    /// Materializes the dense hyperplane matrix in parallel.
    pub fn new_dense(dim: u32, n_hashes: u32, seed: u64, pool: &ThreadPool) -> Self {
        let mut data = HugeVec::zeroed(dim as usize * n_hashes as usize);
        {
            let shared = SharedSliceMut::new(&mut data);
            let shared = &shared;
            pool.parallel_for(0, dim as usize, 256, |range| {
                for d in range {
                    let base = d * n_hashes as usize;
                    for j in 0..n_hashes {
                        // SAFETY: every (d, j) slot is owned by exactly one
                        // chunk of the parallel_for.
                        unsafe {
                            shared.write(base + j as usize, gaussian_at(seed, d as u32, j));
                        }
                    }
                }
            });
        }
        Self {
            dim,
            n_hashes,
            dense: data,
        }
    }

    /// Dimensionality `D`.
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Number of individual hash functions (`m·k/2`).
    pub fn n_hashes(&self) -> u32 {
        self.n_hashes
    }

    /// Bytes held by the dense matrix.
    pub fn memory_bytes(&self) -> usize {
        self.dense.len() * 4
    }

    /// Component of hyperplane `j` along dimension `d`.
    #[inline]
    pub fn component(&self, d: u32, j: u32) -> f32 {
        debug_assert!(d < self.dim && j < self.n_hashes);
        self.dense[d as usize * self.n_hashes as usize + j as usize]
    }

    /// Accumulates `acc[j] += value · plane_j[d]` for all `j`, for each
    /// non-zero `(d, value)` of a sparse vector.
    ///
    /// Dispatches to the explicit SIMD kernel selected at runtime
    /// ([`crate::simd::accumulate_rows`]); every dispatch level accumulates
    /// each lane in ascending non-zero order without FMA, so the result is
    /// bit-identical to [`accumulate_scalar`](Self::accumulate_scalar).
    #[inline]
    pub fn accumulate(&self, indices: &[u32], values: &[f32], acc: &mut [f32]) {
        debug_assert_eq!(acc.len(), self.n_hashes as usize);
        simd::accumulate_rows(&self.dense, self.n_hashes as usize, indices, values, acc);
    }

    /// The reference contiguous-row kernel without explicit SIMD — what the
    /// explicit kernels are validated against (they must match bit for bit).
    pub fn accumulate_scalar(&self, indices: &[u32], values: &[f32], acc: &mut [f32]) {
        debug_assert_eq!(acc.len(), self.n_hashes as usize);
        simd::accumulate_rows_scalar(&self.dense, self.n_hashes as usize, indices, values, acc);
    }

    /// Accumulates a whole **batch** of sparse vectors at once:
    /// `accs[q·n_hashes + j] += v · plane_j[d]` for every non-zero `(d, v)`
    /// of query `q`.
    ///
    /// The batch is sized by the caller so the union of the plane rows its
    /// queries touch stays cache-resident: the first query to reference a
    /// dimension pulls that row in, and every later query in the batch
    /// hashes against it **while it is hot** — the Q1 analogue of the
    /// paper's corpus-side sparse × dense product. (A dimension-sorted
    /// gather/scatter variant was measured slower at realistic batch sizes:
    /// scattering into `B` accumulators re-reads and re-writes each
    /// accumulator per non-zero, while the per-query register-blocked
    /// kernel keeps its accumulator block in registers.) Each query runs
    /// the same runtime-dispatched kernel as [`accumulate`](Self::accumulate),
    /// so batched hashing is bit-identical to hashing queries one at a
    /// time.
    pub fn accumulate_batch(&self, queries: &[(&[u32], &[f32])], accs: &mut [f32]) {
        let nh = self.n_hashes as usize;
        debug_assert_eq!(accs.len(), queries.len() * nh);
        for (q, (idx, val)) in queries.iter().enumerate() {
            debug_assert_eq!(idx.len(), val.len());
            self.accumulate(idx, val, &mut accs[q * nh..(q + 1) * nh]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> ThreadPool {
        ThreadPool::new(2)
    }

    #[test]
    fn memory_is_the_dense_matrix() {
        let dense = Hyperplanes::new_dense(10, 4, 1, &pool());
        assert_eq!(dense.memory_bytes(), 10 * 4 * 4);
    }

    #[test]
    fn accumulate_matches_component_sum() {
        let planes = Hyperplanes::new_dense(20, 8, 7, &pool());
        let indices = vec![1u32, 5, 19];
        let values = vec![0.5f32, -1.0, 2.0];
        let mut acc = vec![0.0f32; 8];
        planes.accumulate(&indices, &values, &mut acc);
        for j in 0..8u32 {
            let expect: f32 = indices
                .iter()
                .zip(&values)
                .map(|(&d, &v)| v * planes.component(d, j))
                .sum();
            assert!((acc[j as usize] - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn accumulate_adds_into_existing_values() {
        let planes = Hyperplanes::new_dense(5, 2, 11, &pool());
        let mut acc = vec![10.0f32, -10.0];
        planes.accumulate(&[0], &[0.0], &mut acc);
        assert_eq!(acc, vec![10.0, -10.0]);
    }

    #[test]
    fn simd_and_scalar_accumulate_bit_identical() {
        // 19 hash lanes exercises the 16/8/4-lane blocks plus remainder.
        let planes = Hyperplanes::new_dense(64, 19, 13, &pool());
        let indices = vec![0u32, 3, 7, 13, 21, 40, 63];
        let values = vec![1.0f32, -0.25, 0.75, 2.0, -1.5, 0.125, 0.5];
        let mut fast = vec![0.0f32; 19];
        let mut slow = vec![0.0f32; 19];
        planes.accumulate(&indices, &values, &mut fast);
        planes.accumulate_scalar(&indices, &values, &mut slow);
        assert_eq!(fast, slow, "dispatched kernel must match scalar bitwise");
    }

    #[test]
    fn batch_accumulate_matches_per_query() {
        let planes = Hyperplanes::new_dense(40, 12, 17, &pool());
        let queries: Vec<(Vec<u32>, Vec<f32>)> = vec![
            (vec![0, 5, 39], vec![1.0, -2.0, 0.5]),
            (vec![5], vec![3.0]),
            (vec![1, 2, 3, 4, 5, 6], vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]),
            (vec![], vec![]),
        ];
        let views: Vec<(&[u32], &[f32])> = queries
            .iter()
            .map(|(i, v)| (i.as_slice(), v.as_slice()))
            .collect();
        let mut accs = vec![0.0f32; queries.len() * 12];
        planes.accumulate_batch(&views, &mut accs);
        for (q, (idx, val)) in queries.iter().enumerate() {
            let mut single = vec![0.0f32; 12];
            planes.accumulate(idx, val, &mut single);
            assert_eq!(
                &accs[q * 12..(q + 1) * 12],
                &single[..],
                "batched hashing must be bit-identical for query {q}"
            );
        }
    }

    #[test]
    fn dense_generation_is_seed_deterministic() {
        let a = Hyperplanes::new_dense(30, 6, 5, &pool());
        let b = Hyperplanes::new_dense(30, 6, 5, &ThreadPool::new(1));
        for d in 0..30 {
            for j in 0..6 {
                assert_eq!(a.component(d, j), b.component(d, j));
            }
        }
        let c = Hyperplanes::new_dense(30, 6, 6, &pool());
        let diffs = (0..30)
            .flat_map(|d| (0..6).map(move |j| (d, j)))
            .filter(|&(d, j)| a.component(d, j) != c.component(d, j))
            .count();
        assert!(diffs > 100, "different seeds must give different planes");
    }
}
