//! Figure 4: PLSH creation performance breakdown.
//!
//! Paper ablation (16 threads, 10.5 M tweets): "No optimizations"
//! (one-level partition, unvectorized hashing) → "+2 level hashtable" →
//! "+shared tables" → "+vectorization", for a cumulative 3.7× speedup.
//!
//! The engine runs none of these builders: it hashes on insert and builds
//! every static epoch by merge. So the paper's levels come from
//! [`crate::table::build`], and a last row, "engine (merge build)", times
//! what ships over the same rows ([`StaticIndex::build`]: one generation
//! appended, its rows stored and hashed as an insert does, then merged
//! into tables from nothing). Each row reports its median pass of
//! [`PASSES`].

use std::time::{Duration, Instant};

use plsh_core::hash::{Hyperplanes, SketchMatrix};
use plsh_core::params::PlshParams;
use plsh_core::sparse::{CrsMatrix, SparseVector};
use plsh_workload::{CorpusConfig, SyntheticCorpus};

use crate::setup::{ms, Fixture, Scale, StaticIndex};
use crate::table::build::{self, Level as Partitioner};

/// One ablation level of Figure 4.
#[derive(Debug, Clone)]
pub struct Level {
    /// Paper label.
    pub name: &'static str,
    /// Hashing (sketch) time.
    pub hashing: Duration,
    /// Table insertion time.
    pub insertion: Duration,
}

impl Level {
    /// Total creation time for the level.
    pub fn total(&self) -> Duration {
        self.hashing + self.insertion
    }
}

/// The measured ablation.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// The paper's four levels in cumulative order, then the engine's
    /// build.
    pub levels: Vec<Level>,
    /// Points the tables were built over.
    pub points: usize,
}

/// Timed passes per row; a row reports its median pass.
pub const PASSES: usize = 5;

/// The rows of the figure: the paper's four levels (naive hashing or not,
/// then a partition builder), then the engine's build (`None`).
const ROWS: [(&str, bool, Option<Partitioner>); 5] = [
    ("No optimizations", true, Some(Partitioner::OneLevel)),
    ("+2 level hashtable", true, Some(Partitioner::TwoLevel)),
    ("+shared tables", true, Some(Partitioner::TwoLevelShared)),
    ("+vectorization", false, Some(Partitioner::TwoLevelShared)),
    ("engine (merge build)", false, None),
];

/// Runs the four creation configurations and the engine's build.
///
/// The construction effects under test (TLB pressure from `2^k` flat
/// partitions, redundant first-level passes) only materialize once the
/// per-table arrays outgrow the caches, so at Full scale this experiment
/// uses a corpus 5× the fixture's (the paper builds over 10.5 M points).
pub fn run(f: &Fixture) -> Fig4 {
    let big;
    let docs: &[SparseVector] = match f.scale {
        Scale::Quick => f.corpus.vectors(),
        Scale::Full => {
            big = SyntheticCorpus::generate(CorpusConfig {
                num_docs: f.corpus.len() * 5,
                vocab_size: f.corpus.dim(),
                mean_words: 7.2,
                zipf_exponent: 1.0,
                duplicate_fraction: 0.2,
                seed: 0xF164,
            });
            big.vectors()
        }
    };
    // The construction ablation uses the paper's k = 16 at Full scale:
    // the one-level baseline's pain is 2^k live partitions, and with the
    // fixture's k = 14 the flat cursor array still fits in L2.
    let (k, m) = match f.scale {
        Scale::Quick => (f.params.k(), f.params.m()),
        Scale::Full => (16, f.params.m()),
    };
    let params = PlshParams::builder(f.corpus.dim())
        .k(k)
        .m(m)
        .radius(f.params.radius())
        .delta(f.params.delta())
        .seed(f.params.seed())
        .build()
        .expect("valid ablation parameters");
    let mut corpus = CrsMatrix::with_capacity(f.corpus.dim(), docs.len(), 8);
    for v in docs {
        corpus.push(v).expect("fixture corpus fits its dim");
    }
    let planes = Hyperplanes::new_dense(params.dim(), params.num_hashes(), params.seed(), &f.pool);

    let (m, half_bits) = (params.m(), params.half_bits());
    // One pass of a row: its hashing and its table insertion time.
    let pass = |naive: bool, tables: Option<Partitioner>| {
        let Some(tables) = tables else {
            let index = StaticIndex::build(docs, &params, &f.pool);
            return (index.hashing, index.merge);
        };
        let t0 = Instant::now();
        let sketches = if naive {
            build::sketch_naive(&corpus, &planes, (m, half_bits), &f.pool)
        } else {
            let mut sketches = SketchMatrix::new(m, half_bits);
            sketches.append_from(&corpus, &planes, 0, &f.pool);
            sketches
        };
        let hashing = t0.elapsed();
        let t1 = Instant::now();
        std::hint::black_box(build::build(&sketches, tables, &f.pool));
        (hashing, t1.elapsed())
    };
    let levels = ROWS
        .into_iter()
        .map(|(name, naive, tables)| {
            let mut passes: Vec<_> = (0..PASSES).map(|_| pass(naive, tables)).collect();
            passes.sort_by_key(|&(hashing, insertion)| hashing + insertion);
            let (hashing, insertion) = passes[PASSES / 2];
            Level {
                name,
                hashing,
                insertion,
            }
        })
        .collect();
    Fig4 {
        levels,
        points: corpus.num_rows(),
    }
}

impl Fig4 {
    /// Cumulative speedup of "+vectorization", the paper's last level,
    /// over "No optimizations".
    pub fn total_speedup(&self) -> f64 {
        self.levels[0].total().as_secs_f64() / self.levels[3].total().as_secs_f64()
    }

    /// Prints the figure as a table.
    pub fn print(&self) {
        println!(
            "## Figure 4 — PLSH creation performance breakdown (N = {}, median of {PASSES} passes)\n",
            self.points
        );
        println!("| Configuration | Hashing | Insertion | Total | Speedup vs no-opt |");
        println!("|---|---:|---:|---:|---:|");
        let base = self.levels[0].total().as_secs_f64();
        for l in &self.levels {
            println!(
                "| {} | {:.1} ms | {:.1} ms | {:.1} ms | {:.2}x |",
                l.name,
                ms(l.hashing),
                ms(l.insertion),
                ms(l.total()),
                base / l.total().as_secs_f64().max(1e-12),
            );
        }
        println!(
            "\nCumulative speedup of the paper's levels: {:.2}x (paper: 3.7x)\n",
            self.total_speedup()
        );
    }
}
