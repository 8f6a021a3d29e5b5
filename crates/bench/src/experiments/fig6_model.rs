//! Figure 6: estimated vs actual runtimes for PLSH creation and querying.
//!
//! The paper validates the Section 7 model on two text datasets — the
//! Twitter corpus (error < 15%) and 8 M Wikipedia abstracts (< 25%). Both
//! are reproduced here: the fixture's tweet-like corpus plus a scaled
//! Wikipedia-like corpus (longer documents, fewer duplicates). The model
//! is evaluated with a machine profile calibrated on this host (effective
//! clock from a dependent-add chain, bandwidth from a streaming scan) and
//! compared against instrumented step timings (hashing, I1–I3, Q2, Q3).
//!
//! The engine builds its tables by merge, which has no I1–I3; the creation
//! rows time the paper's two-level shared builder
//! ([`build::Level::TwoLevelShared`]) over the index's rows instead.

use std::time::{Duration, Instant};

use plsh_core::hash::SketchMatrix;
use plsh_core::model::{relative_error, MachineProfile, PerformanceModel};
use plsh_core::params::PlshParams;
use plsh_core::query::{self, Exec, QueryPhaseTimings, QueryScratch};
use plsh_core::sparse::SparseVector;
use plsh_parallel::ThreadPool;
use plsh_workload::{CorpusConfig, QuerySet, SyntheticCorpus};

use crate::setup::{ms, Fixture, Scale, StaticIndex};
use crate::table::build;

/// A (label, estimated, actual) comparison row.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Step label.
    pub name: &'static str,
    /// Model estimate.
    pub estimated: Duration,
    /// Measured wall time.
    pub actual: Duration,
}

impl Comparison {
    /// Relative error `|est − act| / act`.
    pub fn error(&self) -> f64 {
        relative_error(self.estimated, self.actual)
    }
}

/// Model-vs-measured for one dataset.
#[derive(Debug, Clone)]
pub struct DatasetComparison {
    /// Dataset label ("Twitter-like" / "Wikipedia-like").
    pub dataset: &'static str,
    /// Creation rows: hashing, I1, I2, I3.
    pub creation: Vec<Comparison>,
    /// Query rows: Q2 (bitvector), Q3 (search).
    pub query: Vec<Comparison>,
}

impl DatasetComparison {
    /// Relative error of the summed creation and query estimates.
    pub fn total_errors(&self) -> (f64, f64) {
        let sum = |rows: &[Comparison]| {
            rows.iter().fold((0.0f64, 0.0f64), |(e, a), c| {
                (e + c.estimated.as_secs_f64(), a + c.actual.as_secs_f64())
            })
        };
        let (ce, ca) = sum(&self.creation);
        let (qe, qa) = sum(&self.query);
        (
            (ce - ca).abs() / ca.max(1e-12),
            (qe - qa).abs() / qa.max(1e-12),
        )
    }
}

/// The measured comparison for both datasets.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// One comparison per dataset.
    pub datasets: Vec<DatasetComparison>,
    /// The calibrated machine profile.
    pub machine: MachineProfile,
}

/// Builds both datasets with instrumentation and compares to the model.
pub fn run(f: &Fixture) -> Fig6 {
    let machine = MachineProfile::calibrate(&f.pool, 2.6e9);

    // Each index is dropped before the next dataset is built.
    let twitter = run_dataset(
        "Twitter-like",
        &StaticIndex::build(f.corpus.vectors(), &f.params, &f.pool),
        f.query_vecs(),
        machine,
        &f.pool,
    );

    // Wikipedia-like corpus: longer docs, own queries, same (k, m).
    let mut wiki_config = CorpusConfig::wikipedia_like();
    if f.scale == Scale::Quick {
        wiki_config.num_docs = 10_000;
        wiki_config.vocab_size = f.corpus.dim();
    }
    let wiki = SyntheticCorpus::generate(wiki_config);
    let wiki_queries = QuerySet::sample_from_corpus(&wiki, f.query_vecs().len(), 0xA11CE);
    let wiki_params = PlshParams::builder(wiki.dim())
        .k(f.params.k())
        .m(f.params.m())
        .radius(f.params.radius())
        .delta(f.params.delta())
        .seed(f.params.seed())
        .build()
        .expect("valid parameters");
    let wikipedia = run_dataset(
        "Wikipedia-like",
        &StaticIndex::build(wiki.vectors(), &wiki_params, &f.pool),
        wiki_queries.queries(),
        machine,
        &f.pool,
    );

    Fig6 {
        datasets: vec![twitter, wikipedia],
        machine,
    }
}

/// Compares the model with a measured creation over `index`'s rows and
/// with `queries` run over it.
fn run_dataset(
    dataset: &'static str,
    index: &StaticIndex,
    queries: &[SparseVector],
    machine: MachineProfile,
    pool: &ThreadPool,
) -> DatasetComparison {
    let model = PerformanceModel::new(machine);
    let (corpus, params) = (index.corpus(), &index.params);
    let (m, half_bits) = (params.m(), params.half_bits());

    // ---- Creation: modeled, and measured by the paper's builder.
    let est = model.predict_creation(corpus.num_rows(), corpus.avg_nnz(), params);
    let t0 = Instant::now();
    let mut sketches = SketchMatrix::new(m, half_bits);
    sketches.append_from(corpus, &index.planes, 0, pool);
    let hashing = t0.elapsed();
    let (_, steps) = build::build(&sketches, build::Level::TwoLevelShared, pool);

    // ---- Query: measured (sequential, timers on).
    let ctx = index.context();
    let mut scratch = QueryScratch::new(m, half_bits, corpus.num_rows(), corpus.dim());
    let warm = queries.len().min(32);
    let _ = query::run_batch(&ctx, &queries[..warm], Exec::Inline(&mut scratch), None);
    let mut qt = QueryPhaseTimings::default();
    let exec = Exec::Inline(&mut scratch);
    let (_, qstats) = query::run_batch(&ctx, queries, exec, Some(&mut qt));

    // ---- Query: modeled, using the measured collision statistics (the
    // sampling path is exercised by Figure 7; here the per-operation costs
    // are under test). The sequential profile runs on one thread.
    let nq = queries.len();
    let e_coll = qstats.avg_collisions();
    let e_uniq = qstats.avg_unique();
    let mut seq_machine = machine;
    seq_machine.threads = 1;
    let seq_model = PerformanceModel::new(seq_machine);
    let qest =
        seq_model.predict_query_batch(nq, corpus.num_rows(), corpus.avg_nnz(), e_coll, e_uniq);

    let rows = |rows: &[(&'static str, Duration, Duration)]| -> Vec<Comparison> {
        let row = |&(name, estimated, actual)| Comparison {
            name,
            estimated,
            actual,
        };
        rows.iter().map(row).collect()
    };
    DatasetComparison {
        dataset,
        creation: rows(&[
            ("Hashing", est.hashing, hashing),
            ("Step I1", est.step_i1, steps.i1),
            ("Step I2", est.step_i2, steps.i2),
            ("Step I3", est.step_i3, steps.i3),
        ]),
        query: rows(&[
            ("Bitvector (Step Q2)", qest.step_q2, qt.step_q2),
            ("Search (Step Q3)", qest.step_q3, qt.step_q3),
        ]),
    }
}

impl Fig6 {
    /// Prints both datasets' panels.
    pub fn print(&self) {
        println!("## Figure 6 — estimated vs actual runtimes\n");
        println!(
            "Machine profile (calibrated): {:.2} GHz effective, {:.1} bytes/cycle, {} thread(s)\n",
            self.machine.freq_hz / 1e9,
            self.machine.bytes_per_cycle,
            self.machine.threads
        );
        for d in &self.datasets {
            for (title, rows) in [("LSH creation", &d.creation), ("LSH query", &d.query)] {
                println!("### {} — {title}\n", d.dataset);
                println!("| Step | Estimated | Actual | Relative error |");
                println!("|---|---:|---:|---:|");
                for c in rows {
                    println!(
                        "| {} | {:.1} ms | {:.1} ms | {:.0}% |",
                        c.name,
                        ms(c.estimated),
                        ms(c.actual),
                        c.error() * 100.0
                    );
                }
                println!();
            }
            let (ce, qe) = d.total_errors();
            println!(
                "{}: total-time error creation {:.0}%, query {:.0}% (paper: <15% Twitter, <25% Wikipedia)\n",
                d.dataset,
                ce * 100.0,
                qe * 100.0
            );
        }
    }
}
