//! Figure 5: PLSH query performance breakdown (1000 queries).
//!
//! Paper ablation: "No optimizations" (STL-set dedup + naive sparse dot
//! product) → "+bitvector" → "+optimized sparse DP" → "+sw prefetch" →
//! "+large pages", for a cumulative 8.3× speedup.

use std::time::Duration;

use plsh_core::query::QueryStrategy;
use plsh_core::SearchRequest;

use crate::setup::{ms, Fixture};

/// One ablation level of Figure 5.
#[derive(Debug, Clone)]
pub struct Level {
    /// Paper label.
    pub name: &'static str,
    /// Batch time over the fixture's query set.
    pub batch_time: Duration,
    /// Mean candidates per query whose distance Q3 decided.
    pub distance_computations: f64,
    /// Mean candidates per query whose row Q3 loaded (the rest the
    /// signature bound ruled out).
    pub rows_loaded: f64,
}

/// The measured ablation.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Levels in cumulative order.
    pub levels: Vec<Level>,
    /// Queries per batch.
    pub queries: usize,
}

/// Runs the five query configurations against a fully static engine.
pub fn run(f: &Fixture) -> Fig5 {
    let engine = f.static_engine();
    let queries = f.query_vecs();
    let levels = QueryStrategy::ablation_levels()
        .into_iter()
        .map(|(name, strategy)| {
            // Warm-up pass, then the measured pass. The ablation level is a
            // request field; the batch runs the shipped pipeline.
            let warm = SearchRequest::batch(queries[..queries.len().min(32)].to_vec())
                .with_strategy(strategy);
            let _ = engine
                .search(&warm, &f.pool)
                .expect("valid warm-up request");
            let req = SearchRequest::batch(queries.to_vec())
                .with_strategy(strategy)
                .with_stats();
            let stats = engine
                .search(&req, &f.pool)
                .expect("valid ablation request")
                .stats
                .expect("stats requested");
            Level {
                name,
                batch_time: stats.elapsed,
                distance_computations: stats.avg_distance_computations(),
                rows_loaded: stats.avg_rows_loaded(),
            }
        })
        .collect();
    Fig5 {
        levels,
        queries: queries.len(),
    }
}

impl Fig5 {
    /// Cumulative speedup of the last level over the first.
    pub fn total_speedup(&self) -> f64 {
        self.levels[0].batch_time.as_secs_f64()
            / self.levels.last().unwrap().batch_time.as_secs_f64()
    }

    /// Prints the figure as a table.
    pub fn print(&self) {
        println!(
            "## Figure 5 — PLSH query performance breakdown ({} queries)\n",
            self.queries
        );
        println!(
            "| Configuration | Batch time | Per query | Speedup vs no-opt | Distances / query | Rows loaded / query |"
        );
        println!("|---|---:|---:|---:|---:|---:|");
        let base = self.levels[0].batch_time.as_secs_f64();
        for l in &self.levels {
            println!(
                "| {} | {:.0} ms | {:.3} ms | {:.2}x | {:.1} | {:.1} |",
                l.name,
                ms(l.batch_time),
                ms(l.batch_time) / self.queries as f64,
                base / l.batch_time.as_secs_f64().max(1e-12),
                l.distance_computations,
                l.rows_loaded,
            );
        }
        println!(
            "\nCumulative speedup: {:.2}x (paper: 8.3x)\n",
            self.total_speedup()
        );
    }
}
