//! Figure 11: streaming query performance as the un-merged delta fills.
//!
//! Paper: node capacity C = 10.5 M, delta capacity η·C = 1 M. With the
//! static structure 50% full, query time matches 100%-static performance;
//! at 90% static fill and a full delta, queries rise to ≤ 1.3× static —
//! always within the engineered 1.5× bound.

use std::time::Duration;

use plsh_core::engine::{Engine, EngineConfig};

use crate::setup::{ms, Fixture};

/// One point of a fill curve.
#[derive(Debug, Clone)]
pub struct Point {
    /// Fraction of the delta capacity in use (0–100%).
    pub delta_fill_pct: u32,
    /// Query batch time.
    pub batch_time: Duration,
}

/// One curve (fixed static fill, growing delta).
#[derive(Debug, Clone)]
pub struct Curve {
    /// Static fill as a fraction of capacity (0.5 or 0.9).
    pub static_fill: f64,
    /// Measurements as the delta fills.
    pub points: Vec<Point>,
}

/// The measured figure.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// The 100%-static reference batch time (dotted line in the paper).
    pub static_reference: Duration,
    /// Curves for 50% and 90% static fill.
    pub curves: Vec<Curve>,
    /// Delta capacity η·C in points.
    pub delta_capacity: usize,
}

/// Runs the two fill curves plus the static reference.
pub fn run(f: &Fixture) -> Fig11 {
    let capacity = f.corpus.len();
    let eta = 0.1f64;
    let delta_capacity = (capacity as f64 * eta) as usize;
    let queries = f.query_vecs();

    // 100% static reference.
    let reference = f.static_engine();
    let _ = reference.query_batch(&queries[..queries.len().min(32)], &f.pool);
    let (_, stats) = reference.query_batch(queries, &f.pool);
    let static_reference = stats.elapsed;

    let fills = [0.5f64, 0.9];
    let steps = [0u32, 20, 40, 60, 80, 100];
    let curves = fills
        .iter()
        .map(|&static_fill| {
            let static_points = (capacity as f64 * static_fill) as usize;
            let engine = Engine::new(
                EngineConfig::new(f.params.clone(), capacity)
                    .manual_merge()
                    .with_eta(eta),
                &f.pool,
            )
            .expect("valid config");
            engine
                .insert_batch(&f.corpus.vectors()[..static_points], &f.pool)
                .expect("fits");
            engine.merge_delta(&f.pool);

            let mut inserted = 0usize;
            let points = steps
                .iter()
                .map(|&pct| {
                    let target = delta_capacity * pct as usize / 100;
                    if target > inserted {
                        let lo = static_points + inserted;
                        let hi = static_points + target;
                        engine
                            .insert_batch(&f.corpus.vectors()[lo..hi], &f.pool)
                            .expect("fits");
                        inserted = target;
                    }
                    let _ = engine.query_batch(&queries[..queries.len().min(16)], &f.pool);
                    let (_, stats) = engine.query_batch(queries, &f.pool);
                    Point {
                        delta_fill_pct: pct,
                        batch_time: stats.elapsed,
                    }
                })
                .collect();
            Curve {
                static_fill,
                points,
            }
        })
        .collect();

    Fig11 {
        static_reference,
        curves,
        delta_capacity,
    }
}

impl Fig11 {
    /// Worst slowdown across all curve points relative to the static
    /// reference (the paper's 1.5× bound).
    pub fn worst_slowdown(&self) -> f64 {
        let reference = self.static_reference.as_secs_f64().max(1e-12);
        self.curves
            .iter()
            .flat_map(|c| c.points.iter())
            .map(|p| p.batch_time.as_secs_f64() / reference)
            .fold(0.0, f64::max)
    }

    /// Prints both curves.
    pub fn print(&self) {
        println!(
            "## Figure 11 — streaming query performance (delta capacity = {} points)\n",
            self.delta_capacity
        );
        println!(
            "100% static reference: {:.0} ms per batch\n",
            ms(self.static_reference)
        );
        println!("| Delta fill | 50% static | 90% static |");
        println!("|---:|---:|---:|");
        for (i, &pct) in [0u32, 20, 40, 60, 80, 100].iter().enumerate() {
            let a = self.curves[0].points[i].batch_time;
            let b = self.curves[1].points[i].batch_time;
            println!("| {pct}% | {:.0} ms | {:.0} ms |", ms(a), ms(b));
        }
        println!(
            "\nWorst slowdown vs 100% static: {:.2}x (paper: <= 1.3x observed, 1.5x engineered bound)\n",
            self.worst_slowdown()
        );
    }
}
