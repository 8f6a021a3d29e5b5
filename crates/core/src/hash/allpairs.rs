//! Pair bookkeeping for the all-pairs LSH scheme (paper Section 3).
//!
//! The `L = m(m−1)/2` tables are the ordered pairs `(a, b)`, `a < b`, of
//! half-key functions, enumerated in the fixed order
//! `(0,1), (0,2), …, (0,m−1), (1,2), …, (m−2,m−1)`. Table `l`'s bucket key
//! for a point is `(u_a << k/2) | u_b`.
//!
//! The enumeration order groups tables by their *first-level* function
//! `a`, which is what lets the two-level builder share a first-level
//! partition among the `m−1−a` tables with the same `a` (Section 5.1.2,
//! Figure 2).

/// Number of tables for `m` half-key functions: `L = m(m−1)/2`.
#[inline]
pub fn num_tables(m: u32) -> u32 {
    m * (m - 1) / 2
}

/// The `(a, b)` pair of table `l` under the fixed enumeration order.
#[inline]
pub fn pair_of_table(l: u32, m: u32) -> (u32, u32) {
    debug_assert!(l < num_tables(m));
    // Walk groups: table indices [offset(a), offset(a) + (m-1-a)) share
    // first-level function a.
    let mut rem = l;
    for a in 0..m {
        let group = m - 1 - a;
        if rem < group {
            return (a, a + 1 + rem);
        }
        rem -= group;
    }
    unreachable!("l out of range");
}

/// The table index `l` of pair `(a, b)` (`a < b`).
#[inline]
pub fn table_of_pair(a: u32, b: u32, m: u32) -> u32 {
    debug_assert!(a < b && b < m);
    // Sum of group sizes for first-level functions < a, plus offset in group.
    a * m - a * (a + 1) / 2 + (b - a - 1)
}

/// Enumerates all pairs in table order.
pub fn pairs(m: u32) -> impl Iterator<Item = (u32, u32)> {
    (0..m).flat_map(move |a| (a + 1..m).map(move |b| (a, b)))
}

/// Composes a full `k`-bit bucket key from two half-keys.
#[inline]
pub fn compose_key(ua: u32, ub: u32, half_bits: u32) -> u32 {
    debug_assert!(ua < (1 << half_bits) && ub < (1 << half_bits));
    (ua << half_bits) | ub
}

/// Splits a `k`-bit bucket key back into its half-keys.
#[inline]
pub fn split_key(key: u32, half_bits: u32) -> (u32, u32) {
    (key >> half_bits, key & ((1 << half_bits) - 1))
}

/// Fills `out` (length `L`) with the table keys of a point whose half-keys
/// are `sketch` (length `m`).
#[inline]
pub fn table_keys(sketch: &[u32], half_bits: u32, out: &mut [u32]) {
    let m = sketch.len();
    debug_assert_eq!(out.len(), m * (m - 1) / 2);
    let mut l = 0;
    for a in 0..m {
        let ua = sketch[a] << half_bits;
        for &ub in &sketch[a + 1..] {
            out[l] = ua | ub;
            l += 1;
        }
    }
}

/// Inverse of [`table_keys`]: recovers the `m` half-keys (`out`) from a
/// point's `L` table keys — tables `(0, 1) … (0, m−1)` carry every one.
#[inline]
pub fn half_keys_of(keys: &[u32], half_bits: u32, out: &mut [u32]) {
    debug_assert_eq!(keys.len(), out.len() * (out.len() - 1) / 2);
    out[0] = split_key(keys[0], half_bits).0;
    for (slot, &key) in out[1..].iter_mut().zip(keys) {
        *slot = split_key(key, half_bits).1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn num_tables_matches_formula() {
        assert_eq!(num_tables(2), 1);
        assert_eq!(num_tables(4), 6);
        assert_eq!(num_tables(16), 120);
        assert_eq!(num_tables(40), 780); // the paper's configuration
    }

    #[test]
    fn pair_enumeration_round_trips() {
        for m in [2u32, 3, 4, 7, 16, 40] {
            let all: Vec<(u32, u32)> = pairs(m).collect();
            assert_eq!(all.len(), num_tables(m) as usize);
            for (l, &(a, b)) in all.iter().enumerate() {
                assert!(a < b && b < m);
                assert_eq!(pair_of_table(l as u32, m), (a, b));
                assert_eq!(table_of_pair(a, b, m), l as u32);
            }
        }
    }

    #[test]
    fn pairs_are_grouped_by_first_function() {
        // Consecutive runs share `a` — the property the shared-partition
        // builder relies on.
        let all: Vec<(u32, u32)> = pairs(5).collect();
        assert_eq!(
            all,
            vec![
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (1, 2),
                (1, 3),
                (1, 4),
                (2, 3),
                (2, 4),
                (3, 4)
            ]
        );
    }

    #[test]
    fn compose_split_round_trip() {
        for half_bits in [1u32, 2, 7, 8, 12] {
            let max = 1u32 << half_bits;
            for ua in [0, 1, max / 2, max - 1] {
                for ub in [0, 1, max / 2, max - 1] {
                    let key = compose_key(ua, ub, half_bits);
                    assert!(key < (1 << (2 * half_bits)));
                    assert_eq!(split_key(key, half_bits), (ua, ub));
                }
            }
        }
    }

    #[test]
    fn table_keys_match_compose() {
        let sketch = vec![3u32, 0, 7, 5];
        let half_bits = 3;
        let mut out = vec![0u32; 6];
        table_keys(&sketch, half_bits, &mut out);
        for (l, (a, b)) in pairs(4).enumerate() {
            assert_eq!(
                out[l],
                compose_key(sketch[a as usize], sketch[b as usize], half_bits)
            );
        }
        let mut back = vec![0u32; 4];
        half_keys_of(&out, half_bits, &mut back);
        assert_eq!(back, sketch);
    }

    proptest! {
        #[test]
        fn pair_table_bijection(m in 2u32..64) {
            let l_count = num_tables(m);
            let mut seen = vec![false; l_count as usize];
            for a in 0..m {
                for b in a + 1..m {
                    let l = table_of_pair(a, b, m);
                    prop_assert!(l < l_count);
                    prop_assert!(!seen[l as usize]);
                    seen[l as usize] = true;
                    prop_assert_eq!(pair_of_table(l, m), (a, b));
                }
            }
            prop_assert!(seen.iter().all(|&s| s));
        }
    }
}
