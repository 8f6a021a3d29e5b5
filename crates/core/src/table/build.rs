//! Parallel radix-partition kernels and construction strategies.
//!
//! The static tables are built by the three-step partition of Kim et
//! al. \[21\] (paper Section 5.1.2): (1) histogram the bucket keys, (2)
//! prefix-sum the histogram into scatter offsets, (3) rescan and scatter
//! each item to its final slot. The histogram and scatter passes are
//! parallelized with per-thread private histograms and a cross-thread
//! prefix sum, so every item has a unique destination and the scatter is
//! lock-free.
//!
//! Three strategies reproduce the Figure 4 creation ablation:
//!
//! * [`BuildStrategy::OneLevel`] — one flat partition per table over all
//!   `2^k` buckets ("No optimizations"): TLB-hostile when `2^k` exceeds a
//!   few hundred partitions.
//! * [`BuildStrategy::TwoLevel`] — per table, partition on the high `k/2`
//!   bits and then counting-sort each first-level bucket on the low `k/2`
//!   bits ("+2 level hashtable"): only `2^(k/2)` partitions live at a time.
//! * [`BuildStrategy::TwoLevelShared`] — additionally share each
//!   first-level partition among all tables whose pair starts with the
//!   same function ("+shared tables"), reducing partition passes from
//!   `2L` to `L + m` (Steps I1–I3 of the paper).

use plsh_parallel::ThreadPool;

use crate::util::SharedSliceMut;

/// Which construction algorithm [`crate::StaticTables::build`] uses.
///
/// All strategies produce identical tables (asserted by tests); they differ
/// only in speed, which is what Figure 4 measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BuildStrategy {
    /// Flat single-level partition per table (baseline).
    OneLevel,
    /// Two-level partition per table, no sharing.
    TwoLevel,
    /// Two-level partition with shared first-level partitions (the PLSH
    /// contribution; default).
    #[default]
    TwoLevelShared,
}

/// Output of a partition pass: the permuted items plus bucket offsets
/// (`offsets.len() == num_buckets + 1`, `offsets[b]..offsets[b+1]` is the
/// slice of `perm` holding bucket `b`).
#[derive(Debug, Clone)]
pub struct Partition {
    /// Item ids in bucket order (stable within a bucket).
    pub perm: Vec<u32>,
    /// Exclusive prefix offsets per bucket, with a trailing total.
    pub offsets: Vec<u32>,
}

/// Partitions the logical items `0..n` into `num_buckets` buckets.
///
/// `key_of(pos)` returns the bucket key of logical position `pos` (callers
/// close over the sketch matrix or a precomputed key array). The pass runs
/// the parallel three-step plan when the pool has more than one thread.
pub fn partition_identity<F>(
    n: usize,
    num_buckets: usize,
    key_of: F,
    pool: &ThreadPool,
) -> Partition
where
    F: Fn(usize) -> u32 + Sync,
{
    let (mut perm, mut offsets) = (vec![0; n], vec![0; num_buckets + 1]);
    partition_impl(n, num_buckets, &key_of, None, pool, &mut perm, &mut offsets);
    Partition { perm, offsets }
}

/// Like [`partition_identity`], writing the permuted items into `perm`
/// (length `n`) and the offsets into `offsets` (length `num_buckets + 1`)
/// in place.
pub(crate) fn partition_identity_into<F>(
    n: usize,
    num_buckets: usize,
    key_of: F,
    pool: &ThreadPool,
    perm: &mut [u32],
    offsets: &mut [u32],
) where
    F: Fn(usize) -> u32 + Sync,
{
    partition_impl(n, num_buckets, &key_of, None, pool, perm, offsets);
}

/// Like [`partition_identity`] but permutes the caller's `items` array:
/// `items[pos]` moves to the slot dictated by `key_of(pos)`.
pub fn partition_items<F>(
    items: &[u32],
    num_buckets: usize,
    key_of: F,
    pool: &ThreadPool,
) -> Partition
where
    F: Fn(usize) -> u32 + Sync,
{
    let n = items.len();
    let (mut perm, mut offsets) = (vec![0; n], vec![0; num_buckets + 1]);
    partition_impl(
        n,
        num_buckets,
        &key_of,
        Some(items),
        pool,
        &mut perm,
        &mut offsets,
    );
    Partition { perm, offsets }
}

fn partition_impl<F>(
    n: usize,
    num_buckets: usize,
    key_of: &F,
    items: Option<&[u32]>,
    pool: &ThreadPool,
    perm: &mut [u32],
    offsets: &mut [u32],
) where
    F: Fn(usize) -> u32 + Sync,
{
    assert!(num_buckets >= 1);
    assert_eq!((perm.len(), offsets.len()), (n, num_buckets + 1));
    let t = pool.num_threads();
    if t == 1 || n < 4096 {
        return partition_serial(n, num_buckets, key_of, items, perm, offsets);
    }

    let ranges = pool.even_ranges(n);
    // hist[t * num_buckets + b]: thread-private counts.
    let mut hist = vec![0u32; t * num_buckets];
    {
        let shared_hist = SharedSliceMut::new(&mut hist);
        let shared_hist = &shared_hist;
        let ranges_ref = &ranges;
        pool.broadcast(|tid| {
            let mut local = vec![0u32; num_buckets];
            for pos in ranges_ref[tid].clone() {
                local[key_of(pos) as usize] += 1;
            }
            let base = tid * num_buckets;
            for (b, &c) in local.iter().enumerate() {
                // SAFETY: each thread owns its private stripe of `hist`.
                unsafe { shared_hist.write(base + b, c) };
            }
        });
    }

    // Cross-thread exclusive prefix in bucket-major order: the final slot
    // of (bucket b, thread t) starts after all earlier buckets and after
    // the same bucket's items from earlier threads (Step 2 of [21]).
    let mut running = 0u32;
    for (b, slot) in offsets[..num_buckets].iter_mut().enumerate() {
        *slot = running;
        for tid in 0..t {
            let idx = tid * num_buckets + b;
            let c = hist[idx];
            hist[idx] = running;
            running += c;
        }
    }
    offsets[num_buckets] = running;
    debug_assert_eq!(running as usize, n);

    {
        let shared_perm = SharedSliceMut::new(perm);
        let shared_perm = &shared_perm;
        let hist_ref = &hist;
        let ranges_ref = &ranges;
        pool.broadcast(|tid| {
            // Private cursor copy: this thread's start offset per bucket.
            let base = tid * num_buckets;
            let mut cursors: Vec<u32> = hist_ref[base..base + num_buckets].to_vec();
            for pos in ranges_ref[tid].clone() {
                let b = key_of(pos) as usize;
                let dst = cursors[b];
                cursors[b] += 1;
                let value = items.map_or(pos as u32, |it| it[pos]);
                // SAFETY: destination slots are globally unique by the
                // prefix-sum construction.
                unsafe { shared_perm.write(dst as usize, value) };
            }
        });
    }
}

fn partition_serial<F>(
    n: usize,
    num_buckets: usize,
    key_of: &F,
    items: Option<&[u32]>,
    perm: &mut [u32],
    offsets: &mut [u32],
) where
    F: Fn(usize) -> u32 + Sync,
{
    let (counts, total) = offsets.split_at_mut(num_buckets);
    counts.fill(0);
    for pos in 0..n {
        counts[key_of(pos) as usize] += 1;
    }
    total[0] = plsh_parallel::exclusive_prefix_sum_in_place(counts);
    let mut cursors = counts.to_vec();
    for pos in 0..n {
        let b = key_of(pos) as usize;
        perm[cursors[b] as usize] = items.map_or(pos as u32, |it| it[pos]);
        cursors[b] += 1;
    }
}

/// Stable counting sort of one first-level bucket by its second-level keys
/// (Step I3): reads `src_items`/`src_keys`, writes sorted items into
/// `dst_items`, and records per-second-level-bucket counts in `counts`
/// (length `num_buckets`, pre-zeroed by this function).
pub fn counting_sort_into(
    src_items: &[u32],
    src_keys: &[u32],
    num_buckets: usize,
    dst_items: &mut [u32],
    counts: &mut [u32],
) {
    debug_assert_eq!(src_items.len(), src_keys.len());
    debug_assert_eq!(src_items.len(), dst_items.len());
    debug_assert_eq!(counts.len(), num_buckets);
    counts.iter_mut().for_each(|c| *c = 0);
    for &k in src_keys {
        counts[k as usize] += 1;
    }
    let mut cursors = vec![0u32; num_buckets];
    let mut running = 0u32;
    for (c, cur) in counts.iter().zip(cursors.iter_mut()) {
        *cur = running;
        running += c;
    }
    for (&item, &k) in src_items.iter().zip(src_keys) {
        let cur = &mut cursors[k as usize];
        dst_items[*cur as usize] = item;
        *cur += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_partition(p: &Partition, keys: &[u32], num_buckets: usize, items: Option<&[u32]>) {
        assert_eq!(p.offsets.len(), num_buckets + 1);
        assert_eq!(p.perm.len(), keys.len());
        assert_eq!(*p.offsets.last().unwrap() as usize, keys.len());
        // Offsets monotone.
        assert!(p.offsets.windows(2).all(|w| w[0] <= w[1]));
        // Every bucket slice contains exactly the items with that key, in
        // stable (input) order.
        let mut expected: Vec<Vec<u32>> = vec![Vec::new(); num_buckets];
        for (pos, &k) in keys.iter().enumerate() {
            let value = items.map_or(pos as u32, |it| it[pos]);
            expected[k as usize].push(value);
        }
        for (b, expect) in expected.iter().enumerate() {
            let lo = p.offsets[b] as usize;
            let hi = p.offsets[b + 1] as usize;
            assert_eq!(&p.perm[lo..hi], &expect[..], "bucket {b}");
        }
    }

    #[test]
    fn serial_partition_small() {
        let keys = vec![3u32, 1, 3, 0, 1, 1];
        let p = partition_identity(keys.len(), 4, |pos| keys[pos], &ThreadPool::new(1));
        check_partition(&p, &keys, 4, None);
        assert_eq!(p.perm, vec![3, 1, 4, 5, 0, 2]);
        assert_eq!(p.offsets, vec![0, 1, 4, 4, 6]);
    }

    #[test]
    fn parallel_partition_matches_serial() {
        // Big enough to trigger the parallel path (>= 4096 items).
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
        check_partition(&parallel, &keys, 64, None);
    }

    #[test]
    fn partition_items_permutes_values() {
        let keys = vec![1u32, 0, 1];
        let items = vec![100u32, 200, 300];
        let p = partition_items(&items, 2, |pos| keys[pos], &ThreadPool::new(1));
        check_partition(&p, &keys, 2, Some(&items));
        assert_eq!(p.perm, vec![200, 100, 300]);
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
                check_partition(&p, &keys, 32, None);
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
