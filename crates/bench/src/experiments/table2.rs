//! Table 2: PLSH vs deterministic baselines (exhaustive scan, inverted
//! index) — distance computations and runtime per query batch.
//!
//! Paper numbers (10.5 M tweets, 1000 queries, one node): exhaustive
//! 10 579 994 distance computations / 115.35 ms per query; inverted index
//! 847 028 / > 21.81 ms; PLSH 120 346 / 1.42 ms. PLSH ≈ 15× faster than
//! the inverted index and ≈ 81× faster than exhaustive at 92% recall.

use std::time::Duration;

use plsh_baselines::{ExhaustiveSearch, InvertedIndex};

use crate::setup::{ms, Fixture};

/// One algorithm's row of Table 2.
#[derive(Debug, Clone)]
pub struct Row {
    /// Algorithm name.
    pub name: &'static str,
    /// Mean distance computations per query.
    pub distance_computations: f64,
    /// Mean data rows loaded per query: every distance computation for
    /// the baselines, the candidates the signature bound kept for PLSH.
    pub rows_loaded: f64,
    /// Mean runtime per query.
    pub per_query: Duration,
}

/// The measured table.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Rows in the paper's order: exhaustive, inverted, PLSH.
    pub rows: Vec<Row>,
    /// PLSH recall against the exhaustive (exact) answers.
    pub plsh_recall: f64,
}

/// Runs all three algorithms over the fixture's corpus and queries.
pub fn run(f: &Fixture) -> Table2 {
    let queries = f.query_vecs();
    let radius = f.params.radius() as f32;

    let exhaustive = ExhaustiveSearch::new(f.corpus.dim(), f.corpus.vectors(), radius);
    let t0 = std::time::Instant::now();
    let exh_answers = exhaustive.query_batch(queries, &f.pool);
    let exh_time = t0.elapsed();
    let exh_comp: u64 = exh_answers.iter().map(|a| a.distance_computations).sum();

    let inverted = InvertedIndex::new(f.corpus.dim(), f.corpus.vectors(), radius);
    let t0 = std::time::Instant::now();
    let inv_answers = inverted.query_batch(queries, &f.pool);
    let inv_time = t0.elapsed();
    let inv_comp: u64 = inv_answers.iter().map(|a| a.distance_computations).sum();

    let engine = f.static_engine();
    let (plsh_answers, stats) = engine.query_batch(queries, &f.pool);

    // Recall of PLSH against the exhaustive (exact) answers.
    let mut found = 0usize;
    let mut total = 0usize;
    for (exact, approx) in exh_answers.iter().zip(&plsh_answers) {
        total += exact.matches.len();
        for &(id, _) in &exact.matches {
            if approx.iter().any(|h| h.index == id) {
                found += 1;
            }
        }
    }

    let q = queries.len() as f64;
    Table2 {
        rows: vec![
            Row {
                name: "Exhaustive search",
                distance_computations: exh_comp as f64 / q,
                rows_loaded: exh_comp as f64 / q,
                per_query: exh_time / queries.len() as u32,
            },
            Row {
                name: "Inverted index",
                distance_computations: inv_comp as f64 / q,
                rows_loaded: inv_comp as f64 / q,
                per_query: inv_time / queries.len() as u32,
            },
            Row {
                name: "PLSH",
                distance_computations: stats.avg_distance_computations(),
                rows_loaded: stats.avg_rows_loaded(),
                per_query: stats.avg_latency(),
            },
        ],
        plsh_recall: plsh_workload::recall(found, total),
    }
}

impl Table2 {
    /// Prints the table in the paper's format.
    pub fn print(&self) {
        println!("## Table 2 — PLSH vs deterministic algorithms\n");
        println!(
            "| Algorithm | # distance computations / query | Rows loaded / query | Runtime / query |"
        );
        println!("|---|---:|---:|---:|");
        for r in &self.rows {
            println!(
                "| {} | {:.1} | {:.1} | {:.3} ms |",
                r.name,
                r.distance_computations,
                r.rows_loaded,
                ms(r.per_query)
            );
        }
        let exh = &self.rows[0];
        let inv = &self.rows[1];
        let plsh = &self.rows[2];
        println!();
        println!(
            "PLSH speedup: {:.1}x vs exhaustive (paper: 81x), {:.1}x vs inverted index (paper: >15x)",
            exh.per_query.as_secs_f64() / plsh.per_query.as_secs_f64().max(1e-12),
            inv.per_query.as_secs_f64() / plsh.per_query.as_secs_f64().max(1e-12),
        );
        println!(
            "PLSH recall vs exact: {:.1}% (paper: 92%)\n",
            self.plsh_recall * 100.0
        );
    }
}
