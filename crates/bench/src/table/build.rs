//! The paper's table builders, which Figure 4 measures level by level and
//! Figure 6 times step by step; the engine builds every static epoch by
//! merge (`StaticTables::merge_generations`) and runs none of them.
//!
//! Each builds on the three-step partition of Kim et al. \[21\] (Section
//! 5.1.2): (1) histogram the bucket keys in per-thread private
//! histograms, (2) prefix-sum them across threads into scatter offsets,
//! (3) rescan and scatter each item to its unique, lock-free slot.
//!
//! * [`Level::OneLevel`] — one flat partition per table over all `2^k`
//!   buckets ("No optimizations"): TLB-hostile when `2^k` exceeds a few
//!   hundred partitions.
//! * [`Level::TwoLevel`] — per table, partition on the high `k/2` bits and
//!   then counting-sort each first-level bucket on the low `k/2` bits
//!   ("+2 level hashtable"): only `2^(k/2)` partitions live at a time.
//! * [`Level::TwoLevelShared`] — additionally share each first-level
//!   partition among all tables whose pair starts with the same function
//!   ("+shared tables"), reducing partition passes from `2L` to `L + m`
//!   (Steps I1–I3 of the paper).
//!
//! [`sketch_naive`] is the unvectorized hashing of the levels before
//! "+vectorization". The tests hold every level to the buckets of
//! `StaticTables::reference`, ids in order, and naive hashing to the
//! engine's sketches, bit for bit.

use std::time::{Duration, Instant};

use plsh_core::hash::{allpairs, Hyperplanes, SketchMatrix};
use plsh_core::sparse::CrsMatrix;
use plsh_parallel::{SharedSliceMut, ThreadPool};

/// A construction algorithm of Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Flat single-level partition per table (baseline).
    OneLevel,
    /// Two-level partition per table, no sharing.
    TwoLevel,
    /// Two-level partition with shared first-level partitions (the PLSH
    /// contribution).
    TwoLevelShared,
}

/// Items `0..n` grouped by bucket, stable within a bucket: bucket `b` is
/// `perm[offsets[b]..offsets[b + 1]]`. A table is one partition over its
/// `2^k` buckets.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Item ids in bucket order.
    pub perm: Vec<u32>,
    /// Exclusive prefix offsets per bucket, with a trailing total.
    pub offsets: Vec<u32>,
}

impl Partition {
    /// The items in bucket `key`.
    pub fn bucket(&self, key: u32) -> &[u32] {
        let key = key as usize;
        &self.perm[self.offsets[key] as usize..self.offsets[key + 1] as usize]
    }
}

/// Wall time of each construction step (Figure 6): I1 = first-level
/// partitions (the one-level builder's single flat partition), I2 =
/// second-level key permutation, I3 = second-level partitions.
#[derive(Debug, Clone, Copy, Default)]
pub struct Steps {
    /// Step I1 time.
    pub i1: Duration,
    /// Step I2 time.
    pub i2: Duration,
    /// Step I3 time.
    pub i3: Duration,
}

/// Builds all `L = m(m−1)/2` tables over every point of `sketches` with
/// `level`'s algorithm, table `l` at index `l`, and times its steps.
pub fn build(sketches: &SketchMatrix, level: Level, pool: &ThreadPool) -> (Vec<Partition>, Steps) {
    let (n, m, half_bits) = (sketches.num_points(), sketches.m(), sketches.half_bits());
    let key = |pos: usize, f: u32| sketches.half_key(pos as u32, f);
    let mut steps = Steps::default();
    let start = Instant::now();
    if level == Level::OneLevel {
        let tables = allpairs::pairs(m)
            .map(|(a, b)| {
                let composed = |pos| allpairs::compose_key(key(pos, a), key(pos, b), half_bits);
                partition_identity(n, 1 << (2 * half_bits), composed, pool)
            })
            .collect();
        steps.i1 = start.elapsed();
        return (tables, steps);
    }
    let first_level = |a: u32| partition_identity(n, 1 << half_bits, |pos| key(pos, a), pool);
    // Step I1, shared: one partition per first-level function (function
    // m-1 is never one). Unshared, each table repeats its own below.
    let shared: Vec<Partition> = match level {
        Level::TwoLevelShared => (0..m - 1).map(first_level).collect(),
        _ => Vec::new(),
    };
    steps.i1 = start.elapsed();
    let tables = allpairs::pairs(m)
        .map(|(a, b)| {
            let start = Instant::now();
            let fresh = shared.is_empty().then(|| first_level(a));
            steps.i1 += start.elapsed();
            let first = fresh.as_ref().unwrap_or_else(|| &shared[a as usize]);
            second_level(sketches, first, b, pool, &mut steps)
        })
        .collect();
    (tables, steps)
}

/// Sketches every row of `corpus` with the unvectorized kernel: hash
/// functions on the outer loop, the sparse row re-walked per function,
/// each component read through [`Hyperplanes::component`] — a column-wise
/// stride through the dense matrix that defeats both SIMD and the
/// hardware prefetcher. Rows are hashed in parallel. Each sum runs in
/// ascending non-zero order without FMA, as the shipped kernels do, so
/// the sketches equal `SketchMatrix::append_from`'s bit for bit.
pub fn sketch_naive(
    corpus: &CrsMatrix,
    planes: &Hyperplanes,
    (m, half_bits): (u32, u32),
    pool: &ThreadPool,
) -> SketchMatrix {
    let n = corpus.num_rows();
    let chunks = (0..n).step_by(256).map(|lo| lo..(lo + 256).min(n));
    let keys = pool.parallel_map(chunks, |rows| {
        let mut keys = Vec::with_capacity(rows.len() * m as usize);
        for i in rows {
            let (idx, val) = corpus.row(i as u32);
            keys.extend((0..m).map(|a| {
                (0..half_bits).fold(0u32, |key, bit| {
                    let j = a * half_bits + bit;
                    let mut sum = 0.0f32;
                    for (&d, &v) in idx.iter().zip(val) {
                        sum += v * planes.component(d, j);
                    }
                    key | u32::from(sum >= 0.0) << bit
                })
            }));
        }
        keys
    });
    let mut sketches = SketchMatrix::new(m, half_bits);
    for point in keys.concat().chunks(m as usize) {
        sketches.push(point);
    }
    sketches
}

/// Partitions the items `0..n` into `num_buckets` buckets by `key_of`,
/// one stripe of items per pool thread.
fn partition_identity<F>(n: usize, num_buckets: usize, key_of: F, pool: &ThreadPool) -> Partition
where
    F: Fn(usize) -> u32 + Sync,
{
    assert!(num_buckets >= 1);
    let t = pool.num_threads();
    let ranges = &pool.even_ranges(n);
    let key_of = &key_of;
    // hist[t * num_buckets + b]: thread-private counts.
    let mut hist = vec![0u32; t * num_buckets];
    {
        let shared_hist = &SharedSliceMut::new(&mut hist);
        pool.broadcast(|tid| {
            let mut local = vec![0u32; num_buckets];
            for pos in ranges[tid].clone() {
                local[key_of(pos) as usize] += 1;
            }
            for (b, &c) in local.iter().enumerate() {
                // SAFETY: each thread owns its private stripe of `hist`.
                unsafe { shared_hist.write(tid * num_buckets + b, c) };
            }
        });
    }

    // Cross-thread exclusive prefix in bucket-major order: the final slot
    // of (bucket b, thread t) starts after all earlier buckets and after
    // the same bucket's items from earlier threads (Step 2 of [21]).
    let mut p = Partition {
        perm: vec![0; n],
        offsets: vec![0; num_buckets + 1],
    };
    let mut running = 0u32;
    for (b, slot) in p.offsets[..num_buckets].iter_mut().enumerate() {
        *slot = running;
        for tid in 0..t {
            let c = std::mem::replace(&mut hist[tid * num_buckets + b], running);
            running += c;
        }
    }
    p.offsets[num_buckets] = running;

    let shared_perm = &SharedSliceMut::new(&mut p.perm);
    let hist = &hist;
    pool.broadcast(|tid| {
        // Private cursor copy: this thread's start offset per bucket.
        let mut cursors = hist[tid * num_buckets..(tid + 1) * num_buckets].to_vec();
        for pos in ranges[tid].clone() {
            let dst = &mut cursors[key_of(pos) as usize];
            // SAFETY: destination slots are globally unique by the
            // prefix-sum construction.
            unsafe { shared_perm.write(*dst as usize, pos as u32) };
            *dst += 1;
        }
    });
    p
}

/// Stable counting sort of one first-level bucket by its second-level keys
/// (Step I3): reads `src_items`/`src_keys`, writes sorted items into
/// `dst_items`, and records per-second-level-bucket counts in `counts`
/// (length `num_buckets`, zeroed by this function).
fn counting_sort_into(
    src_items: &[u32],
    src_keys: &[u32],
    num_buckets: usize,
    dst_items: &mut [u32],
    counts: &mut [u32],
) {
    debug_assert_eq!(src_items.len(), src_keys.len());
    debug_assert_eq!(counts.len(), num_buckets);
    counts.fill(0);
    for &k in src_keys {
        counts[k as usize] += 1;
    }
    let mut cursors = counts.to_vec();
    plsh_parallel::exclusive_prefix_sum_in_place(&mut cursors);
    for (&item, &k) in src_items.iter().zip(src_keys) {
        let cur = &mut cursors[k as usize];
        dst_items[*cur as usize] = item;
        *cur += 1;
    }
}

/// Steps I2 + I3 for one table: gather the second-level keys in
/// first-level order, then counting-sort every first-level bucket
/// independently (with work stealing across buckets).
fn second_level(
    sketches: &SketchMatrix,
    first: &Partition,
    b: u32,
    pool: &ThreadPool,
    steps: &mut Steps,
) -> Partition {
    let n = first.perm.len();
    let buckets = 1usize << sketches.half_bits();

    // Step I2: keys[pos] = u_b(point at first-level position pos).
    let start = Instant::now();
    let mut keys = vec![0u32; n];
    {
        let shared_keys = &SharedSliceMut::new(&mut keys);
        pool.parallel_for(0, n, 4096, |range| {
            for pos in range {
                // SAFETY: each position written by exactly one chunk.
                unsafe { shared_keys.write(pos, sketches.half_key(first.perm[pos], b)) };
            }
        });
    }
    steps.i2 += start.elapsed();

    // Step I3: per first-level bucket, counting-sort by the second key and
    // record second-level counts, which become the table's offsets.
    let start = Instant::now();
    let mut table = Partition {
        perm: vec![0; n],
        offsets: vec![0; buckets * buckets + 1],
    };
    let (counts, total) = table.offsets.split_at_mut(buckets * buckets);
    {
        let shared_entries = &SharedSliceMut::new(&mut table.perm);
        let shared_counts = &SharedSliceMut::new(counts);
        let keys = &keys;
        pool.parallel_tasks(0..buckets, |ha| {
            let run = first.offsets[ha] as usize..first.offsets[ha + 1] as usize;
            let mut local_counts = vec![0u32; buckets];
            let mut dst = vec![0u32; run.len()];
            let (items, keys) = (&first.perm[run.clone()], &keys[run.clone()]);
            counting_sort_into(items, keys, buckets, &mut dst, &mut local_counts);
            for (i, &item) in dst.iter().enumerate() {
                // SAFETY: bucket ranges are disjoint across tasks.
                unsafe { shared_entries.write(run.start + i, item) };
            }
            for (hb, &c) in local_counts.iter().enumerate() {
                // SAFETY: this task owns counts stripe `ha`.
                unsafe { shared_counts.write(ha * buckets + hb, c) };
            }
        });
    }
    total[0] = plsh_parallel::exclusive_prefix_sum_in_place(counts);
    steps.i3 += start.elapsed();
    table
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use plsh_core::table::{DeltaGeneration, StaticTables};
    use plsh_workload::{CorpusConfig, SyntheticCorpus};

    fn check_partition(p: &Partition, keys: &[u32], num_buckets: usize) {
        assert_eq!(p.offsets.len(), num_buckets + 1);
        assert_eq!(p.perm.len(), keys.len());
        assert_eq!(*p.offsets.last().unwrap() as usize, keys.len());
        // Offsets monotone.
        assert!(p.offsets.windows(2).all(|w| w[0] <= w[1]));
        // Every bucket slice contains exactly the items with that key, in
        // stable (input) order.
        let mut expected: Vec<Vec<u32>> = vec![Vec::new(); num_buckets];
        for (pos, &k) in keys.iter().enumerate() {
            expected[k as usize].push(pos as u32);
        }
        for (b, expect) in expected.iter().enumerate() {
            assert_eq!(p.bucket(b as u32), &expect[..], "bucket {b}");
        }
    }

    #[test]
    fn serial_partition_small() {
        let keys = vec![3u32, 1, 3, 0, 1, 1];
        let p = partition_identity(keys.len(), 4, |pos| keys[pos], &ThreadPool::new(1));
        check_partition(&p, &keys, 4);
        assert_eq!(p.perm, vec![3, 1, 4, 5, 0, 2]);
        assert_eq!(p.offsets, vec![0, 1, 4, 4, 6]);
    }

    #[test]
    fn parallel_partition_matches_serial() {
        // Several thousand items in each thread's stripe.
        let n = 20_000usize;
        let keys: Vec<u32> = (0..n)
            .map(|i| ((i * 2654435761) >> 7) as u32 % 64)
            .collect();
        let serial = partition_identity(n, 64, |pos| keys[pos], &ThreadPool::new(1));
        let parallel = partition_identity(n, 64, |pos| keys[pos], &ThreadPool::new(4));
        assert_eq!(serial.offsets, parallel.offsets);
        assert_eq!(
            serial.perm, parallel.perm,
            "parallel scatter must be stable"
        );
        check_partition(&parallel, &keys, 64);
    }

    #[test]
    fn single_bucket_is_identity() {
        let n = 100;
        let p = partition_identity(n, 1, |_| 0, &ThreadPool::new(1));
        assert_eq!(p.perm, (0..n as u32).collect::<Vec<_>>());
        assert_eq!(p.offsets, vec![0, n as u32]);
    }

    #[test]
    fn empty_input() {
        let p = partition_identity(0, 8, |_| 0, &ThreadPool::new(2));
        assert!(p.perm.is_empty());
        assert_eq!(p.offsets, vec![0u32; 9]);
    }

    #[test]
    fn counting_sort_sorts_and_counts() {
        let items = vec![10u32, 11, 12, 13, 14];
        let keys = vec![2u32, 0, 2, 1, 0];
        let mut dst = vec![0u32; 5];
        let mut counts = vec![99u32; 3];
        counting_sort_into(&items, &keys, 3, &mut dst, &mut counts);
        assert_eq!(dst, vec![11, 14, 13, 10, 12]);
        assert_eq!(counts, vec![2, 1, 2]);
    }

    #[test]
    fn counting_sort_empty_range() {
        let mut dst: Vec<u32> = vec![];
        let mut counts = vec![7u32; 4];
        counting_sort_into(&[], &[], 4, &mut dst, &mut counts);
        assert_eq!(counts, vec![0; 4]);
    }

    /// Every Figure 4 level — naive or shipped hashing, then each
    /// partition builder — gives the engine's sketches and the tables of
    /// `StaticTables::reference` and of a merge from nothing, bucket for
    /// bucket with ids in order, on one worker and on two. The corpus spans
    /// more than one of Step I2's 4096-point chunks.
    #[test]
    fn every_level_builds_the_reference_tables() {
        let docs = SyntheticCorpus::generate(CorpusConfig::tiny(5_000, 7));
        let (m, half_bits) = (5u32, 4u32);
        let mut corpus = CrsMatrix::new(docs.dim());
        for v in docs.vectors() {
            corpus.push(v).unwrap();
        }
        for threads in [1, 2] {
            let pool = ThreadPool::new(threads);
            let planes = Hyperplanes::new_dense(docs.dim(), m * half_bits, 11, &pool);
            let mut shipped = SketchMatrix::new(m, half_bits);
            shipped.append_from(&corpus, &planes, 0, &pool);
            let naive = sketch_naive(&corpus, &planes, (m, half_bits), &pool);
            assert_eq!(naive.num_points(), corpus.num_rows());
            for i in 0..corpus.num_rows() as u32 {
                assert!(
                    naive.half_keys(i).eq(shipped.half_keys(i)),
                    "{threads} threads: row {i}"
                );
            }

            let reference = StaticTables::reference(&shipped);
            let mut whole = DeltaGeneration::new(0, docs.dim(), m, half_bits);
            whole.append(docs.vectors(), &planes, &pool).unwrap();
            let merged = StaticTables::merge_generations(
                None,
                m,
                half_bits,
                corpus.num_rows(),
                &[Arc::new(whole)],
                &[],
                0,
                0,
                &pool,
            );
            for level in [Level::OneLevel, Level::TwoLevel, Level::TwoLevelShared] {
                for sketches in [&naive, &shipped] {
                    let (tables, _) = build(sketches, level, &pool);
                    assert_eq!(tables.len(), reference.num_tables());
                    for (l, table) in tables.iter().enumerate() {
                        for key in 0..1u32 << (2 * half_bits) {
                            let what = format!("{level:?}, {threads} threads, l={l} key={key}");
                            assert_eq!(table.bucket(key), reference.bucket(l, key), "{what}");
                            assert_eq!(table.bucket(key), merged.bucket(l, key), "{what}");
                        }
                    }
                }
            }
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn partition_is_a_stable_permutation(
                keys in proptest::collection::vec(0u32..32, 0..500),
                threads in 1usize..5,
            ) {
                let p = partition_identity(
                    keys.len(), 32, |pos| keys[pos], &ThreadPool::new(threads));
                check_partition(&p, &keys, 32);
                // perm is a permutation of 0..n.
                let mut sorted = p.perm.clone();
                sorted.sort_unstable();
                let identity: Vec<u32> = (0..keys.len() as u32).collect();
                prop_assert_eq!(sorted, identity);
            }

            #[test]
            fn counting_sort_agrees_with_stable_sort(
                pairs in proptest::collection::vec((0u32..1000, 0u32..16), 0..300),
            ) {
                let items: Vec<u32> = pairs.iter().map(|&(i, _)| i).collect();
                let keys: Vec<u32> = pairs.iter().map(|&(_, k)| k).collect();
                let mut dst = vec![0u32; items.len()];
                let mut counts = vec![0u32; 16];
                counting_sort_into(&items, &keys, 16, &mut dst, &mut counts);

                let mut reference: Vec<(u32, u32)> =
                    keys.iter().cloned().zip(items.iter().cloned()).collect();
                reference.sort_by_key(|&(k, _)| k); // stable
                let expect: Vec<u32> = reference.into_iter().map(|(_, i)| i).collect();
                prop_assert_eq!(dst, expect);
                prop_assert_eq!(counts.iter().sum::<u32>() as usize, items.len());
            }
        }
    }
}
