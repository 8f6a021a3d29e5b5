//! Prefix-sum helpers for the counting-sort passes that build LSH tables.
//!
//! The engine's one table builder, the merge's count/scatter
//! (`StaticTables::merge_generations` in `plsh-core`), turns per-bucket
//! counts into scatter offsets with an exclusive cumulative sum, as the
//! partitioning algorithm of Kim et al. \[21\] does (paper Section 5.1.2).
//! The inverted-index baseline and the bench crate's paper builders take
//! the same step. These are deliberately simple sequential kernels:
//! histograms have at most `T * 2^(k/2)` entries (a few thousand), so a
//! parallel scan would be pure overhead.

/// Replaces `counts` with its exclusive prefix sum and returns the total.
///
/// `counts[i]` becomes the sum of all original values at indices `< i`; the
/// returned value is the sum of every original element. This is the
/// "cumulative sum of the histogram to obtain starting offsets" step of the
/// partition pass (paper Section 5.1.2, step 2).
///
/// # Examples
///
/// ```
/// let mut h = vec![2u32, 0, 3, 1];
/// let total = plsh_parallel::exclusive_prefix_sum_in_place(&mut h);
/// assert_eq!(h, vec![0, 2, 2, 5]);
/// assert_eq!(total, 6);
/// ```
pub fn exclusive_prefix_sum_in_place(counts: &mut [u32]) -> u32 {
    let mut running = 0u32;
    for c in counts.iter_mut() {
        let v = *c;
        *c = running;
        running += v;
    }
    running
}

/// Returns the exclusive prefix sum of `counts` as a new vector with one
/// extra trailing element holding the grand total.
///
/// The result has `counts.len() + 1` entries, so `result[i]..result[i+1]`
/// is exactly the half-open range of output slots owned by bucket `i` —
/// the layout used for static LSH table offsets.
pub fn exclusive_prefix_sum(counts: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(counts.len() + 1);
    let mut running = 0u32;
    for &c in counts {
        out.push(running);
        running += c;
    }
    out.push(running);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exclusive_in_place_basic() {
        let mut h = vec![1u32, 2, 3];
        assert_eq!(exclusive_prefix_sum_in_place(&mut h), 6);
        assert_eq!(h, vec![0, 1, 3]);
    }

    #[test]
    fn exclusive_in_place_empty() {
        let mut h: Vec<u32> = vec![];
        assert_eq!(exclusive_prefix_sum_in_place(&mut h), 0);
    }

    #[test]
    fn exclusive_with_total_bucket_ranges() {
        let offs = exclusive_prefix_sum(&[2, 0, 3]);
        assert_eq!(offs, vec![0, 2, 2, 5]);
        // Bucket 1 is empty and bucket 2 owns slots 2..5.
        assert_eq!(offs[1]..offs[2], 2..2);
        assert_eq!(offs[2]..offs[3], 2..5);
    }

    proptest! {
        #[test]
        fn exclusive_matches_reference(counts in proptest::collection::vec(0u32..1000, 0..200)) {
            let offs = exclusive_prefix_sum(&counts);
            prop_assert_eq!(offs.len(), counts.len() + 1);
            let mut expect = 0u32;
            for (i, &c) in counts.iter().enumerate() {
                prop_assert_eq!(offs[i], expect);
                expect += c;
            }
            prop_assert_eq!(*offs.last().unwrap(), expect);

            let mut in_place = counts.clone();
            let total = exclusive_prefix_sum_in_place(&mut in_place);
            prop_assert_eq!(total, expect);
            prop_assert_eq!(&in_place[..], &offs[..counts.len()]);
        }
    }
}
