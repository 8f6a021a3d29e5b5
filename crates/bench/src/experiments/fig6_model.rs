//! Figure 6: estimated vs actual runtimes for PLSH creation and querying.
//!
//! The paper validates the Section 7 model on two text datasets — the
//! Twitter corpus (error < 15%) and 8 M Wikipedia abstracts (< 25%). Both
//! are reproduced here: the fixture's tweet-like corpus plus a scaled
//! Wikipedia-like corpus (longer documents, fewer duplicates). The model
//! is evaluated with a machine profile calibrated on this host (effective
//! clock from a dependent-add chain, bandwidth from a streaming scan) and
//! compared against instrumented step timings (hashing, I1–I3, Q2, Q3).

use std::time::Duration;

use plsh_core::hash::{Hyperplanes, SketchMatrix};
use plsh_core::model::{relative_error, MachineProfile, PerformanceModel};
use plsh_core::params::PlshParams;
use plsh_core::query::{self, Exec, QueryContext, QueryPhaseTimings, QueryScratch, QueryStrategy};
use plsh_core::sparse::CrsMatrix;
use plsh_core::table::{BuildStrategy, StaticTables};
use plsh_workload::{CorpusConfig, QuerySet, SyntheticCorpus};

use crate::setup::{ms, Fixture, Scale};

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

    let twitter = run_dataset(
        "Twitter-like",
        f.corpus.vectors(),
        f.corpus.dim(),
        f.query_vecs(),
        &f.params,
        machine,
        f,
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
        wiki.vectors(),
        wiki.dim(),
        wiki_queries.queries(),
        &wiki_params,
        machine,
        f,
    );

    Fig6 {
        datasets: vec![twitter, wikipedia],
        machine,
    }
}

fn run_dataset(
    dataset: &'static str,
    docs: &[plsh_core::sparse::SparseVector],
    dim: u32,
    queries: &[plsh_core::sparse::SparseVector],
    params: &PlshParams,
    machine: MachineProfile,
    f: &Fixture,
) -> DatasetComparison {
    let model = PerformanceModel::new(machine);

    // ---- Creation: measured.
    let mut corpus = CrsMatrix::with_capacity(dim, docs.len(), 8);
    for v in docs {
        corpus.push(v).expect("corpus fits its dim");
    }
    let planes = Hyperplanes::new_dense(dim, params.num_hashes(), params.seed(), &f.pool);
    let t0 = std::time::Instant::now();
    let mut sk = SketchMatrix::new(params.m(), params.half_bits());
    sk.append_from(&corpus, &planes, 0, &f.pool, true);
    let hashing_actual = t0.elapsed();
    let (tables, timings) = StaticTables::build_instrumented(
        &sk,
        sk.num_points(),
        BuildStrategy::TwoLevelShared,
        &f.pool,
    );

    // ---- Creation: modeled.
    let est = model.predict_creation(corpus.num_rows(), corpus.avg_nnz(), params);

    // ---- Query: measured (sequential, timers on).
    let ctx = QueryContext {
        static_data: &corpus,
        planes: &planes,
        static_tables: Some(&tables),
        deltas: &[],
        deleted: None,
        base: 0,
        retired_below: 0,
        m: params.m(),
        half_bits: params.half_bits(),
        radius: params.radius() as f32,
        strategy: QueryStrategy::optimized(),
        max_candidates: usize::MAX,
        top_k: None,
    };
    let mut scratch = QueryScratch::new(params.m(), params.half_bits(), corpus.num_rows(), dim);
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

    DatasetComparison {
        dataset,
        creation: vec![
            Comparison {
                name: "Hashing",
                estimated: est.hashing,
                actual: hashing_actual,
            },
            Comparison {
                name: "Step I1",
                estimated: est.step_i1,
                actual: timings.step_i1,
            },
            Comparison {
                name: "Step I2",
                estimated: est.step_i2,
                actual: timings.step_i2,
            },
            Comparison {
                name: "Step I3",
                estimated: est.step_i3,
                actual: timings.step_i3,
            },
        ],
        query: vec![
            Comparison {
                name: "Bitvector (Step Q2)",
                estimated: qest.step_q2,
                actual: qt.step_q2,
            },
            Comparison {
                name: "Search (Step Q3)",
                estimated: qest.step_q3,
                actual: qt.step_q3,
            },
        ],
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
