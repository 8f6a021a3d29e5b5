//! # plsh-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation (Section 8), plus
//! three robustness experiments (`scaling`, `soak`, `faults`) whose JSON
//! reports carry correctness bars; the `repro` binary drives them
//! (`cargo run -p plsh-bench --release --bin repro -- <experiment>|all`).
//! Performance numbers — query, ingest, merge interference, recovery and
//! served latency — come from the repo benchmark (`benchmark/run.sh`), not
//! from here.
//!
//! Every experiment prints the paper's reported numbers next to the
//! measured ones so EXPERIMENTS.md can be regenerated by redirecting the
//! output.

pub mod experiments;
pub mod setup;

/// Table construction the engine does not run: the paper's partition
/// builders and unvectorized hashing, the levels of Figure 4.
pub mod table {
    pub mod build;
}
