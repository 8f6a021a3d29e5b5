//! Append-only delta generations for the concurrent ingest path
//! (paper Section 6.1).
//!
//! The streaming write path buffers inserts in *generations*: each
//! generation owns its own slice of the corpus (a local [`CrsMatrix`]) and
//! the packed sketches of those rows — and no hash tables. A point shares
//! a bucket with a query in some table iff at least two of its `m`
//! half-keys equal the query's, so queries answer a generation by
//! scanning its sketch column ([`crate::simd::scan_half_keys`]) and an
//! insert is *store the rows and hash them*, nothing else. While open, a
//! generation accepts `append` calls from the (single, serialized)
//! writer; *sealing* wraps it in an `Arc` and publishes it in the engine's
//! epoch — a pointer move, no copying — after which it is immutable and
//! safely shared with concurrent readers.
//!
//! Queries see `global id = generation base + local id`; a background
//! merge later folds whole sealed generations into the next static epoch
//! (reading the same sketches, so points are hashed exactly once) and
//! drops them. The scan costs `O(points)` per query where tables cost
//! `O(L + collisions)`: it wins while the un-merged tail is small, which
//! the engine's auto-merge at `η·C` keeps it.

use plsh_parallel::ThreadPool;

use crate::error::Result;
use crate::hash::{Hyperplanes, SketchMatrix};
use crate::sparse::{CrsMatrix, SparseVector};

/// One delta generation: a contiguous run of inserted points with their
/// data and sketches, addressed by local ids `0..len`.
#[derive(Debug)]
pub struct DeltaGeneration {
    /// Global id of local point 0.
    base: u32,
    data: CrsMatrix,
    sketches: SketchMatrix,
}

impl DeltaGeneration {
    /// Creates an empty generation whose points start at global id `base`.
    pub fn new(base: u32, dim: u32, m: u32, half_bits: u32) -> Self {
        Self {
            base,
            data: CrsMatrix::new(dim),
            sketches: SketchMatrix::new(m, half_bits),
        }
    }

    /// Global id of the generation's first point.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Number of points in the generation.
    pub fn len(&self) -> usize {
        self.data.num_rows()
    }

    /// True when the generation holds no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One-past-the-end global id.
    pub fn end(&self) -> u32 {
        self.base + self.len() as u32
    }

    /// The generation's rows (local ids).
    pub fn data(&self) -> &CrsMatrix {
        &self.data
    }

    /// The generation's sketches (local rows): the column queries scan,
    /// and the half-keys the merge files into the next static tables.
    pub fn sketches(&self) -> &SketchMatrix {
        &self.sketches
    }

    /// Appends a batch: stores the rows and hashes them once. Dimensions
    /// must have been validated by the caller (the engine checks the
    /// whole batch before touching any state).
    pub fn append(
        &mut self,
        vs: &[SparseVector],
        planes: &Hyperplanes,
        pool: &ThreadPool,
    ) -> Result<()> {
        let from = self.data.num_rows();
        for v in vs {
            self.data.push(v)?;
        }
        self.sketches.append_from(&self.data, planes, from, pool);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn random_vec(rng: &mut SplitMix64, dim: u32) -> SparseVector {
        let a = rng.next_below(dim as u64) as u32;
        let b = (a + 1 + rng.next_below(dim as u64 - 1) as u32) % dim;
        SparseVector::unit(vec![(a, 1.0), (b, rng.next_f64() as f32 + 0.1)]).unwrap()
    }

    #[test]
    fn append_files_points_under_local_ids() {
        let pool = ThreadPool::new(2);
        let (dim, m, half_bits) = (64u32, 4u32, 3u32);
        let planes = Hyperplanes::new_dense(dim, m * half_bits, 9, &pool);
        let mut rng = SplitMix64::new(3);
        let vs: Vec<SparseVector> = (0..30).map(|_| random_vec(&mut rng, dim)).collect();

        let mut g = DeltaGeneration::new(100, dim, m, half_bits);
        g.append(&vs[..10], &planes, &pool).unwrap();
        g.append(&vs[10..], &planes, &pool).unwrap();
        assert_eq!(g.base(), 100);
        assert_eq!(g.len(), 30);
        assert_eq!(g.end(), 130);

        // Local row i carries the sketch of the i-th appended vector.
        let mut acc = vec![0.0f32; planes.n_hashes() as usize];
        let mut expect = vec![0u32; m as usize];
        for (i, v) in vs.iter().enumerate() {
            SketchMatrix::sketch_one(
                &planes,
                half_bits,
                v.indices(),
                v.values(),
                &mut acc,
                &mut expect,
            );
            assert!(g.sketches().half_keys(i as u32).eq(expect.iter().copied()));
        }
    }

    #[test]
    fn rows_round_trip() {
        let pool = ThreadPool::new(1);
        let planes = Hyperplanes::new_dense(16, 2 * 2, 1, &pool);
        let v = SparseVector::unit(vec![(1, 1.0), (5, 2.0)]).unwrap();
        let mut g = DeltaGeneration::new(0, 16, 2, 2);
        g.append(std::slice::from_ref(&v), &planes, &pool).unwrap();
        assert_eq!(g.data().row_vector(0), v);
    }
}
