//! Query statistics and timing helpers.
//!
//! The performance model (Section 7) is driven by two per-query quantities:
//! `#collisions` — bucket entries read across all `L` tables including
//! duplicates — and `#unique` — distinct candidates whose distance is
//! actually computed. The query pipeline records both, plus the match
//! count, so experiments can report the same columns as Table 2 and
//! validate the model (Figure 6).

use std::time::{Duration, Instant};

/// Per-query counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Bucket entries read over all tables (with duplicates) — the
    /// `#collisions` of Eq. 7.1.
    pub collisions: u64,
    /// Unique candidates after duplicate elimination — the `#unique` of
    /// Eq. 7.2.
    pub unique_candidates: u64,
    /// Candidates whose distance Q3 decided, by the signature bound or by
    /// a dot product: `unique_candidates` minus the deleted and retired
    /// ids skipped (and minus those past a candidate budget).
    pub distance_computations: u64,
    /// Candidates whose data row Q3 loaded for a dot product: the
    /// `distance_computations` the signature bound could not rule out.
    pub rows_loaded: u64,
    /// Neighbors reported: every one within the radius, or in k-NN mode
    /// the (at most `k`) closest of those.
    pub matches: u64,
}

impl QueryStats {
    /// Accumulates another query's counters into this one.
    pub fn merge(&mut self, other: &QueryStats) {
        self.collisions += other.collisions;
        self.unique_candidates += other.unique_candidates;
        self.distance_computations += other.distance_computations;
        self.rows_loaded += other.rows_loaded;
        self.matches += other.matches;
    }
}

/// Aggregated counters and wall time for a query batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchStats {
    /// Number of queries in the batch.
    pub queries: u64,
    /// Summed per-query counters.
    pub totals: QueryStats,
    /// Wall-clock time for the whole batch.
    pub elapsed: Duration,
}

impl BatchStats {
    /// Mean collisions per query.
    pub fn avg_collisions(&self) -> f64 {
        ratio(self.totals.collisions, self.queries)
    }

    /// Mean unique candidates per query.
    pub fn avg_unique(&self) -> f64 {
        ratio(self.totals.unique_candidates, self.queries)
    }

    /// Mean distance computations per query (the Table 2 column).
    pub fn avg_distance_computations(&self) -> f64 {
        ratio(self.totals.distance_computations, self.queries)
    }

    /// Mean rows loaded per query.
    pub fn avg_rows_loaded(&self) -> f64 {
        ratio(self.totals.rows_loaded, self.queries)
    }

    /// Mean matches per query.
    pub fn avg_matches(&self) -> f64 {
        ratio(self.totals.matches, self.queries)
    }

    /// Mean latency per query.
    pub fn avg_latency(&self) -> Duration {
        if self.queries == 0 {
            Duration::ZERO
        } else {
            self.elapsed / self.queries as u32
        }
    }

    /// Queries per second over the batch.
    pub fn throughput_qps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.queries as f64 / secs
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A tiny stopwatch for experiment harnesses.
#[derive(Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed milliseconds as a float.
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }

    /// Restarts the stopwatch, returning the previous elapsed time.
    pub fn lap(&mut self) -> Duration {
        let e = self.start.elapsed();
        self.start = Instant::now();
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = QueryStats {
            collisions: 10,
            unique_candidates: 5,
            distance_computations: 5,
            rows_loaded: 2,
            matches: 1,
        };
        let b = QueryStats {
            collisions: 3,
            unique_candidates: 2,
            distance_computations: 2,
            rows_loaded: 1,
            matches: 0,
        };
        a.merge(&b);
        assert_eq!(a.collisions, 13);
        assert_eq!(a.unique_candidates, 7);
        assert_eq!(a.distance_computations, 7);
        assert_eq!(a.rows_loaded, 3);
        assert_eq!(a.matches, 1);
    }

    #[test]
    fn batch_averages() {
        let b = BatchStats {
            queries: 4,
            totals: QueryStats {
                collisions: 40,
                unique_candidates: 20,
                distance_computations: 18,
                rows_loaded: 2,
                matches: 8,
            },
            elapsed: Duration::from_millis(8),
        };
        assert_eq!(b.avg_collisions(), 10.0);
        assert_eq!(b.avg_unique(), 5.0);
        assert_eq!(b.avg_distance_computations(), 4.5);
        assert_eq!(b.avg_rows_loaded(), 0.5);
        assert_eq!(b.avg_matches(), 2.0);
        assert_eq!(b.avg_latency(), Duration::from_millis(2));
        assert!((b.throughput_qps() - 500.0).abs() < 1.0);
    }

    #[test]
    fn zero_queries_safe() {
        let b = BatchStats::default();
        assert_eq!(b.avg_collisions(), 0.0);
        assert_eq!(b.avg_latency(), Duration::ZERO);
        assert_eq!(b.throughput_qps(), 0.0);
    }

    #[test]
    fn stopwatch_runs_forward() {
        let mut sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        assert!(sw.elapsed_ms() >= 1.0);
        let lap = sw.lap();
        assert!(lap >= Duration::from_millis(1));
        assert!(sw.elapsed() <= lap + Duration::from_millis(50));
    }
}
