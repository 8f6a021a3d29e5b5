//! Figure 11: streaming query performance as the un-merged delta fills.
//!
//! Paper: node capacity C = 10.5 M, delta capacity η·C = 1 M. With the
//! static structure 50% full, query time matches 100%-static performance;
//! at 90% static fill and a full delta, queries rise to ≤ 1.3× static —
//! always within the engineered 1.5× bound.
//!
//! Each point compares the engine, its delta un-merged, with a twin engine
//! that takes the same inserts and merges after each: the same rows, all
//! static. Both answer [`BATCHES`] query batches, alternating, and each
//! reports its median batch, so a point's slowdown compares equal point
//! counts measured side by side.

use std::time::{Duration, Instant};

use plsh_core::engine::{Engine, EngineConfig};
use plsh_core::sparse::SparseVector;
use plsh_parallel::ThreadPool;

use crate::setup::Fixture;

/// Timed query batches per engine and point; a point reports the median.
pub const BATCHES: usize = 5;

/// Delta fills of each curve, in percent of the delta capacity.
const STEPS: [u32; 6] = [0, 20, 40, 60, 80, 100];

/// One point of a fill curve.
#[derive(Debug, Clone)]
pub struct Point {
    /// Fraction of the delta capacity in use (0–100%).
    pub delta_fill_pct: u32,
    /// Median query batch time, the delta un-merged.
    pub batch_time: Duration,
    /// Median query batch time over the same rows, fully merged.
    pub merged_time: Duration,
}

impl Point {
    /// Batch time relative to the same rows fully merged.
    pub fn slowdown(&self) -> f64 {
        self.batch_time.as_secs_f64() / self.merged_time.as_secs_f64().max(1e-12)
    }
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
    /// Curves for 50% and 90% static fill.
    pub curves: Vec<Curve>,
    /// Delta capacity η·C in points.
    pub delta_capacity: usize,
}

/// Runs the two fill curves, each against its fully merged twin.
pub fn run(f: &Fixture) -> Fig11 {
    let capacity = f.corpus.len();
    let eta = 0.1f64;
    let delta_capacity = (capacity as f64 * eta) as usize;
    let queries = f.query_vecs();
    let docs = f.corpus.vectors();
    let engine = || {
        let config = EngineConfig::new(f.params.clone(), capacity)
            .manual_merge()
            .with_eta(eta);
        Engine::new(config, &f.pool).expect("valid config")
    };

    let curves = [0.5f64, 0.9]
        .into_iter()
        .map(|static_fill| {
            let static_points = (capacity as f64 * static_fill) as usize;
            let (streaming, merged) = (engine(), engine());
            for e in [&streaming, &merged] {
                e.insert_batch(&docs[..static_points], &f.pool)
                    .expect("fits");
                e.merge_delta(&f.pool);
            }
            let mut inserted = 0usize;
            let points = STEPS
                .iter()
                .map(|&pct| {
                    let target = delta_capacity * pct as usize / 100;
                    if target > inserted {
                        let new = &docs[static_points + inserted..static_points + target];
                        for e in [&streaming, &merged] {
                            e.insert_batch(new, &f.pool).expect("fits");
                        }
                        merged.merge_delta(&f.pool);
                        inserted = target;
                    }
                    let (batch_time, merged_time) =
                        median_batches(&streaming, &merged, queries, &f.pool);
                    Point {
                        delta_fill_pct: pct,
                        batch_time,
                        merged_time,
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
        curves,
        delta_capacity,
    }
}

/// The median of [`BATCHES`] timed batches of `queries` on `a` and on `b`,
/// alternating, after one warm-up batch each.
fn median_batches(
    a: &Engine,
    b: &Engine,
    queries: &[SparseVector],
    pool: &ThreadPool,
) -> (Duration, Duration) {
    let batch = |e: &Engine| {
        let start = Instant::now();
        std::hint::black_box(e.query_batch(queries, pool));
        start.elapsed()
    };
    batch(a);
    batch(b);
    let (mut ta, mut tb): (Vec<Duration>, Vec<Duration>) =
        (0..BATCHES).map(|_| (batch(a), batch(b))).unzip();
    ta.sort_unstable();
    tb.sort_unstable();
    (ta[BATCHES / 2], tb[BATCHES / 2])
}

impl Fig11 {
    /// Worst slowdown across all curve points relative to the same rows
    /// fully merged (the paper's 1.5× bound).
    pub fn worst_slowdown(&self) -> f64 {
        self.curves
            .iter()
            .flat_map(|c| c.points.iter())
            .map(Point::slowdown)
            .fold(0.0, f64::max)
    }

    /// Prints both curves.
    pub fn print(&self) {
        println!(
            "## Figure 11 — streaming query performance (delta capacity = {} points, median of {BATCHES} batches)\n",
            self.delta_capacity
        );
        println!(
            "| Delta fill | 50% static | merged | slowdown | 90% static | merged | slowdown |"
        );
        println!("|---:|---:|---:|---:|---:|---:|---:|");
        for (i, &pct) in STEPS.iter().enumerate() {
            let [a, b] = [0, 1].map(|c| &self.curves[c].points[i]);
            println!(
                "| {pct}% | {} µs | {} µs | {:.2}x | {} µs | {} µs | {:.2}x |",
                a.batch_time.as_micros(),
                a.merged_time.as_micros(),
                a.slowdown(),
                b.batch_time.as_micros(),
                b.merged_time.as_micros(),
                b.slowdown()
            );
        }
        println!(
            "\nWorst slowdown vs the same rows fully merged: {:.2}x (paper: <= 1.3x observed, 1.5x engineered bound)\n",
            self.worst_slowdown()
        );
    }
}
