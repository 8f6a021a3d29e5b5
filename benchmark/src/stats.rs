//! The harness's one percentile routine and the quartile arithmetic the
//! acceptance rule uses (identical to Python's
//! `statistics.quantiles(values, n=4)`, so `--compare` and the driver
//! agree on what "spread" means).

use std::time::Duration;

/// Percentiles are named in per-mille so ranks are exact integers.
pub const P50: usize = 500;
pub const P95: usize = 950;
pub const P99: usize = 990;

fn nearest_rank(samples: usize, permille: usize) -> usize {
    (samples * permille).div_ceil(1000).clamp(1, samples)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], permille: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[nearest_rank(sorted.len(), permille) - 1]
}

/// The highest of p50/p90/p95/p99/p99.9 (per-mille) that still has at
/// least ten samples beyond it — the tail a sample of this size supports.
pub fn highest_supported_percentile(samples: usize) -> usize {
    let mut best = P50;
    for permille in [900, 950, P99, 999] {
        if samples >= 10 + nearest_rank(samples.max(1), permille) {
            best = permille;
        }
    }
    best
}

/// Latency samples of one phase, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    ms: Vec<f64>,
}

impl Latencies {
    pub fn push(&mut self, d: Duration) {
        self.ms.push(d.as_secs_f64() * 1e3);
    }

    pub fn extend(&mut self, other: &Latencies) {
        self.ms.extend_from_slice(&other.ms);
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ms.is_empty()
    }

    /// The samples in arrival order.
    pub fn raw(&self) -> &[f64] {
        &self.ms
    }

    pub fn sorted(&self) -> Vec<f64> {
        let mut v = self.ms.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// `(p50, p99)`; both are the single sample's value when there is one.
    pub fn p50_p99(&self) -> (f64, f64) {
        let s = self.sorted();
        (percentile_sorted(&s, P50), percentile_sorted(&s, P99))
    }
}

/// The operations of one timed phase, each stamped with when it started
/// (or, open loop, was due). The phase is reported as the **median over
/// equal time slices** of each slice's rate, p50 and p99: on a shared box
/// a burst from a neighbour lands in one or two slices and the median
/// ignores it, where a whole-phase mean or p99 would carry it.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// `(start offset s, latency ms, work done)`.
    ops: Vec<(f64, f64, f64)>,
}

/// Medians over a [`Timeline`]'s slices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sliced {
    pub rate_per_s: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    /// Operations in the median slice, for the sample-count note.
    pub ops_per_slice: usize,
}

impl Timeline {
    pub fn push(&mut self, at: Duration, latency: Duration, work: f64) {
        self.ops
            .push((at.as_secs_f64(), latency.as_secs_f64() * 1e3, work));
    }

    pub fn extend(&mut self, other: &Timeline) {
        self.ops.extend_from_slice(&other.ops);
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// For one caller's closed loop: the p99 of the gap between one
    /// operation's end and the next one's start, in ms — the time the
    /// harness itself took between calls, i.e. how late this generator ran.
    pub fn gap_p99_ms(&self) -> f64 {
        let mut gaps: Vec<f64> = self
            .ops
            .windows(2)
            .map(|w| ((w[1].0 - w[0].0) * 1e3 - w[0].1).max(0.0))
            .collect();
        if gaps.is_empty() {
            return 0.0;
        }
        gaps.sort_by(f64::total_cmp);
        percentile_sorted(&gaps, P99)
    }

    /// Cuts `[0, length)` into `slices` equal parts. An operation's
    /// latency belongs to the slice it started in. A slice no operation
    /// started in is left out of the latency medians.
    pub fn sliced(&self, length: Duration, slices: usize) -> Sliced {
        assert!(
            slices >= 1 && !self.ops.is_empty(),
            "slicing an empty phase"
        );
        let width = length.as_secs_f64() / slices as f64;
        let mut work = vec![0.0; slices];
        let mut lat: Vec<Vec<f64>> = vec![Vec::new(); slices];
        for &(at, ms, w) in &self.ops {
            let first = ((at / width) as usize).min(slices - 1);
            lat[first].push(ms);
            // Work is spread over the slices the operation ran in, by
            // overlap: a rate is then not quantised to whole operations
            // per slice. (Work done past the end of the phase is not the
            // phase's.)
            let end = at + ms / 1e3;
            if end <= at {
                work[first] += w;
                continue;
            }
            for (i, slot) in work.iter_mut().enumerate().skip(first) {
                let (lo, hi) = (i as f64 * width, (i + 1) as f64 * width);
                if lo >= end {
                    break;
                }
                *slot += w * (end.min(hi) - at.max(lo)).max(0.0) / (end - at);
            }
        }
        let rates: Vec<f64> = work.iter().map(|w| w / width).collect();
        let (mut p50s, mut p95s, mut p99s, mut counts) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for l in lat.iter_mut().filter(|l| !l.is_empty()) {
            l.sort_by(f64::total_cmp);
            p50s.push(percentile_sorted(l, P50));
            p95s.push(percentile_sorted(l, P95));
            p99s.push(percentile_sorted(l, P99));
            counts.push(l.len() as f64);
        }
        Sliced {
            rate_per_s: median(&rates),
            p50_ms: median(&p50s),
            p95_ms: median(&p95s),
            p99_ms: median(&p99s),
            ops_per_slice: median(&counts) as usize,
        }
    }
}

impl Sliced {
    /// The note that goes beside the reported numbers.
    pub fn support(&self, slices: usize) -> String {
        let permille = highest_supported_percentile(self.ops_per_slice);
        format!(
            "median of {slices} slices, ~{} ops per slice (a slice supports p{})",
            self.ops_per_slice,
            permille as f64 / 10.0
        )
    }
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `[q1, q2, q3]` by the exclusive method (Python's default); needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median — the acceptance
/// rule's "spread". With fewer than four values the full range is used
/// (a quartile of three points is an extrapolation).
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    if med == 0.0 || values.len() < 2 {
        return 0.0;
    }
    let width = if values.len() >= 4 {
        let q = quartiles(values);
        q[2] - q[0]
    } else {
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        hi - lo
    };
    (width / med).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_returns_the_median_and_nearest_rank_tail() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, P50), 500.0);
        assert_eq!(percentile_sorted(&v, P99), 990.0);
        assert_eq!(percentile_sorted(&v, 1000), 1000.0);
        assert_eq!(percentile_sorted(&[7.0], P99), 7.0);
        let mut l = Latencies::default();
        for ms in [3u64, 1, 2] {
            l.push(Duration::from_millis(ms));
        }
        assert_eq!(l.p50_p99(), (2.0, 3.0));
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(15), P50);
        assert_eq!(highest_supported_percentile(100), 900);
        assert_eq!(highest_supported_percentile(200), 950);
        assert_eq!(highest_supported_percentile(999), 950);
        assert_eq!(highest_supported_percentile(1000), P99);
        assert_eq!(highest_supported_percentile(10_000), 999);
        for n in [100usize, 1000, 4321, 10_000] {
            let permille = highest_supported_percentile(n);
            let beyond = n - nearest_rank(n, permille);
            assert!(beyond >= 10, "n={n} permille={permille} beyond={beyond}");
        }
    }

    #[test]
    fn sliced_medians_ignore_a_burst_confined_to_one_slice() {
        // 10 s at 100 ops/s, 1 ms each; during second 3 every op takes
        // 50 ms and only 20 complete.
        let mut t = Timeline::default();
        for i in 0..1000u64 {
            let at = Duration::from_millis(10 * i);
            let in_burst = (3000..4000).contains(&(10 * i));
            if in_burst && i % 5 != 0 {
                continue;
            }
            t.push(
                at,
                Duration::from_millis(if in_burst { 50 } else { 1 }),
                1.0,
            );
        }
        let s = t.sliced(Duration::from_secs(10), 10);
        assert_eq!(
            (s.rate_per_s, s.p50_ms, s.p99_ms, s.ops_per_slice),
            (100.0, 1.0, 1.0, 100)
        );
        // The whole-phase p99 would have carried the burst.
        let mut all = Latencies::default();
        for &(_, ms, _) in &t.ops {
            all.push(Duration::from_secs_f64(ms / 1e3));
        }
        assert_eq!(all.p50_p99().1, 50.0);
        // Work is attributed by overlap: 4 ops of 1.5 s back to back over
        // 6 s are 1 op per 1.5 s in every 2 s slice, not "1, 2, 1".
        let mut long = Timeline::default();
        for i in 0..4u64 {
            long.push(
                Duration::from_millis(1500 * i),
                Duration::from_millis(1500),
                3.0,
            );
        }
        let s3 = long.sliced(Duration::from_secs(6), 3);
        assert!((s3.rate_per_s - 2.0).abs() < 1e-9, "{}", s3.rate_per_s);
        // Back to back: no gap between one op's end and the next's start.
        assert!(long.gap_p99_ms().abs() < 1e-9);
        // A sustained slowdown is not a burst: it moves the medians.
        let mut slow = Timeline::default();
        for i in 0..1000u64 {
            let ms = if i < 600 { 4 } else { 1 };
            slow.push(
                Duration::from_millis(10 * i),
                Duration::from_millis(ms),
                1.0,
            );
        }
        assert_eq!(slow.sliced(Duration::from_secs(10), 10).p50_ms, 4.0);
        // 1 ms ops every 10 ms leave 9 ms of generator idle (6 ms after
        // the 4 ms ones).
        assert!((slow.gap_p99_ms() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }
}
