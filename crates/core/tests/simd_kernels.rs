//! Property tests for the runtime-dispatched SIMD kernels: whatever level
//! the CPU dispatches to, the explicit kernels must agree with the scalar
//! references over random sparse vectors, dimensions, and lane counts —
//! including remainder lanes (`n_hashes % 8 != 0`).
//!
//! The hashing kernels carry the stronger contract (bit-identical, since
//! they preserve per-lane accumulation order and avoid FMA); the masked dot
//! product only promises agreement within floating-point reassociation
//! tolerance, which is what the query pipeline's radius filter tolerates.
//! The half-key scan is integer-only and carries the strongest one: the
//! dispatched kernel equals the scalar kernel, and the scalar kernel equals
//! the definition — the union of the query's buckets over all `L` tables.

use proptest::prelude::*;

use plsh_core::hash::{allpairs, Hyperplanes, SketchMatrix};
use plsh_core::rng::SplitMix64;
use plsh_core::simd;
use plsh_parallel::ThreadPool;

const DIM: u32 = 96;

/// Random sparse (index, value) pairs with strictly increasing indices.
fn sparse_pairs(max_len: usize) -> impl Strategy<Value = Vec<(u32, f32)>> {
    proptest::collection::btree_map(0..DIM, -50i32..50, 1..max_len)
        .prop_map(|m| m.into_iter().map(|(d, v)| (d, v as f32 / 8.0)).collect())
}

/// A random query sketch and `n` point sketches; each point half-key
/// copies the query's with probability ~1/3 so that matching two or more
/// is common at every `half_bits`.
fn scan_problem(m: u32, half_bits: u32, n: usize, seed: u64) -> (Vec<u32>, Vec<Vec<u32>>) {
    let mut rng = SplitMix64::new(seed);
    let half_key = |rng: &mut SplitMix64| rng.next_below(1 << half_bits) as u32;
    let query: Vec<u32> = (0..m).map(|_| half_key(&mut rng)).collect();
    let rows = (0..n)
        .map(|_| {
            query
                .iter()
                .map(|&q| {
                    if rng.next_below(3) == 0 {
                        q
                    } else {
                        half_key(&mut rng)
                    }
                })
                .collect()
        })
        .collect();
    (query, rows)
}

fn column_of(m: u32, half_bits: u32, rows: &[Vec<u32>]) -> SketchMatrix {
    let mut sk = SketchMatrix::new(m, half_bits);
    rows.iter().for_each(|row| sk.push(row));
    sk
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dispatched_half_key_scan_matches_scalar(
        m in 2u32..=20,
        half_bits in 1u32..=16,
        n in 0usize..300,
        seed in any::<u64>(),
    ) {
        let (query, rows) = scan_problem(m, half_bits, n, seed);
        let sk = column_of(m, half_bits, &rows);
        // Both kernels append: whatever `hits` already holds must survive.
        let (mut fast, mut slow) = (vec![7u32], vec![7u32]);
        let fast_collisions = simd::scan_half_keys(sk.column(), &query, &mut fast);
        let slow_collisions = simd::scan_half_keys_scalar(sk.column(), &query, &mut slow);
        prop_assert_eq!(&fast, &slow, "ids or their order diverged");
        prop_assert_eq!(fast_collisions, slow_collisions);
    }

    #[test]
    fn scalar_half_key_scan_is_the_union_of_the_table_buckets(
        m in 2u32..=20,
        half_bits in 1u32..=16,
        n in 0usize..300,
        seed in any::<u64>(),
    ) {
        let (query, rows) = scan_problem(m, half_bits, n, seed);
        let sk = column_of(m, half_bits, &rows);
        // The definition: probe all L tables; a point is a candidate once
        // however many tables hold it, a collision once per table.
        let mut tables_hit = vec![0u64; n];
        for (a, b) in allpairs::pairs(m) {
            let (a, b) = (a as usize, b as usize);
            let key = allpairs::compose_key(query[a], query[b], half_bits);
            for (i, row) in rows.iter().enumerate() {
                tables_hit[i] += u64::from(allpairs::compose_key(row[a], row[b], half_bits) == key);
            }
        }
        let expect: Vec<u32> = (0..n as u32).filter(|&i| tables_hit[i as usize] > 0).collect();
        let mut hits = Vec::new();
        let collisions = simd::scan_half_keys_scalar(sk.column(), &query, &mut hits);
        prop_assert_eq!(hits, expect);
        prop_assert_eq!(collisions, tables_hit.iter().sum::<u64>());
    }

    #[test]
    fn half_key_scan_reports_no_point_past_a_partial_last_block(
        m in 2u32..=20,
        half_bits in 1u32..=16,
        n in 1usize..100,
        fill in 0u32..=u16::MAX as u32,
    ) {
        // Every stored half-key and every query half-key take one value
        // (0 and the all-ones key included): all n points match in all L
        // tables, and nothing beyond them — the column has no padding
        // lane for any query value to match.
        let key = fill & ((1 << half_bits) - 1);
        let rows = vec![vec![key; m as usize]; n];
        let sk = column_of(m, half_bits, &rows);
        let mut hits = Vec::new();
        let collisions = simd::scan_half_keys(sk.column(), &rows[0], &mut hits);
        prop_assert_eq!(hits, (0..n as u32).collect::<Vec<_>>());
        prop_assert_eq!(collisions, n as u64 * u64::from(allpairs::num_tables(m)));
    }

    #[test]
    fn dispatched_accumulate_matches_scalar(
        pairs in sparse_pairs(12),
        n_hashes in 1u32..40,
        seed in 0u64..500,
    ) {
        let pool = ThreadPool::new(1);
        let planes = Hyperplanes::new_dense(DIM, n_hashes, seed, &pool);
        let (idx, val): (Vec<u32>, Vec<f32>) = pairs.into_iter().unzip();
        let mut fast = vec![0.25f32; n_hashes as usize];
        let mut slow = fast.clone();
        planes.accumulate(&idx, &val, &mut fast);
        planes.accumulate_scalar(&idx, &val, &mut slow);
        for (j, (f, s)) in fast.iter().zip(&slow).enumerate() {
            prop_assert!((f - s).abs() <= 1e-4, "lane {j}: {f} vs {s}");
            prop_assert_eq!(
                f.to_bits(), s.to_bits(),
                "hashing kernel must be bit-identical at lane {}", j
            );
        }
    }

    #[test]
    fn batched_accumulate_matches_scalar(
        queries in proptest::collection::vec(sparse_pairs(8), 1..6),
        n_hashes in 1u32..40,
        seed in 0u64..500,
    ) {
        let pool = ThreadPool::new(1);
        let planes = Hyperplanes::new_dense(DIM, n_hashes, seed, &pool);
        let nh = n_hashes as usize;
        let split: Vec<(Vec<u32>, Vec<f32>)> = queries
            .iter()
            .map(|q| q.iter().copied().unzip())
            .collect();
        let views: Vec<(&[u32], &[f32])> = split
            .iter()
            .map(|(i, v)| (i.as_slice(), v.as_slice()))
            .collect();
        let mut accs = vec![0.0f32; queries.len() * nh];
        planes.accumulate_batch(&views, &mut accs);
        for (q, (idx, val)) in split.iter().enumerate() {
            let mut single = vec![0.0f32; nh];
            planes.accumulate_scalar(idx, val, &mut single);
            for (j, (f, s)) in accs[q * nh..(q + 1) * nh].iter().zip(&single).enumerate() {
                prop_assert!((f - s).abs() <= 1e-4, "query {q} lane {j}: {f} vs {s}");
                prop_assert_eq!(
                    f.to_bits(), s.to_bits(),
                    "batched hashing must be bit-identical (query {}, lane {})", q, j
                );
            }
        }
    }

    #[test]
    fn dot_via_mask_matches_scalar(
        row in sparse_pairs(16),
        query in sparse_pairs(16),
    ) {
        let (idx, val): (Vec<u32>, Vec<f32>) = row.into_iter().unzip();
        let mut qmask = vec![0u64; (DIM as usize).div_ceil(64)];
        // Stale garbage outside the flagged positions must be masked off.
        let mut qvals = vec![f32::NAN; DIM as usize];
        for &(d, v) in &query {
            qmask[(d >> 6) as usize] |= 1u64 << (d & 63);
            qvals[d as usize] = v;
        }
        let fast = simd::dot_via_mask(&idx, &val, &qmask, &qvals);
        let slow = simd::dot_via_mask_scalar(&idx, &val, &qmask, &qvals);
        prop_assert!((fast - slow).abs() <= 1e-4, "{fast} vs {slow}");
    }
}
