//! The experiment driver: regenerates every table and figure of the
//! paper's evaluation.
//!
//! ```text
//! cargo run -p plsh-bench --release --bin repro -- all
//! cargo run -p plsh-bench --release --bin repro -- table2 fig5 recall
//! cargo run -p plsh-bench --release --bin repro -- --quick all
//! ```
//!
//! `scaling`, `soak` and `faults` also write a JSON report
//! (`BENCH_<name>.json`) to the working directory.

use plsh_bench::experiments::*;
use plsh_bench::setup::{write_json_atomic, Fixture, Scale};

const EXPERIMENTS: &[&str] = &[
    "table2",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "streaming",
    "recall",
    "scaling",
    "faults",
    "soak",
];

fn usage() {
    eprintln!("usage: repro [--quick] <experiment>... | all");
    eprintln!("experiments: {}", EXPERIMENTS.join(", "));
    eprintln!("env: PLSH_THREADS=<n>");
}

/// Durably writes an experiment's JSON report; a failed write exits 1.
fn write_report(path: &str, json: &str) {
    match write_json_atomic(path, json) {
        Ok(()) => eprintln!("# wrote {path}"),
        Err(e) => {
            eprintln!("# FAILED to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return;
    }

    let mut scale = Scale::Full;
    let mut selected: Vec<String> = Vec::new();
    for a in &args {
        match a.as_str() {
            "--quick" => scale = Scale::Quick,
            "all" => selected.extend(EXPERIMENTS.iter().map(|s| s.to_string())),
            other if EXPERIMENTS.contains(&other) => selected.push(other.to_string()),
            other => {
                eprintln!(
                    "unknown experiment '{other}'; known: {}",
                    EXPERIMENTS.join(", ")
                );
                std::process::exit(2);
            }
        }
    }
    if selected.is_empty() {
        usage();
        std::process::exit(2);
    }
    selected.dedup();

    let threads = std::env::var("PLSH_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(plsh_parallel::current_num_threads_hint);

    eprintln!(
        "# PLSH reproduction — scale: {:?} (N={}, D={}, {} queries, k={}, m={}), {} thread(s)",
        scale,
        scale.num_docs(),
        scale.vocab(),
        scale.num_queries(),
        scale.k_m().0,
        scale.k_m().1,
        threads
    );
    eprintln!("# building fixture (corpus + queries)...");
    let fixture = Fixture::build(scale, threads);
    eprintln!(
        "# corpus ready: {} docs, avg {:.2} words/doc, L = {} tables\n",
        fixture.corpus.len(),
        fixture.corpus.avg_nnz(),
        fixture.params.l()
    );

    for name in &selected {
        eprintln!("# running {name}...");
        match name.as_str() {
            "table2" => table2::run(&fixture).print(),
            "fig4" => fig4_creation::run(&fixture).print(),
            "fig5" => fig5_query::run(&fixture).print(),
            "fig6" => fig6_model::run(&fixture).print(),
            "fig7" => fig7_params::run(&fixture).print(),
            "fig8" => fig8_threads::run(&fixture).print(),
            "fig9" => fig9_nodes::run(&fixture).print(),
            "fig10" => fig10_latency::run(&fixture).print(),
            "fig11" => fig11_streaming::run(&fixture).print(),
            "streaming" => streaming_overhead::run(&fixture).print(),
            "recall" => recall::run(&fixture).print(),
            "scaling" => {
                let r = scaling::run(&fixture);
                r.print();
                write_report(scaling::REPORT, &r.to_json());
            }
            "faults" => {
                let r = faults::run(&fixture);
                r.print();
                write_report(faults::REPORT, &r.to_json());
            }
            "soak" => {
                let r = soak::run(&fixture);
                r.print();
                write_report(soak::REPORT, &r.to_json());
            }
            _ => unreachable!("validated above"),
        }
    }
}
