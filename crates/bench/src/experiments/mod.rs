//! One module per table/figure of the paper's evaluation (Section 8),
//! plus the robustness experiments (`scaling`, `soak`, `faults`).
//!
//! Each experiment exposes `run(...)` returning a plain result struct and a
//! `print(...)` that renders it as a markdown table with the paper's
//! reported values alongside. The robustness experiments also render a
//! JSON report (`to_json`, written to their `REPORT` file) that
//! `scripts/check_bench.py` validates.

pub mod faults;
pub mod fig10_latency;
pub mod fig11_streaming;
pub mod fig4_creation;
pub mod fig5_query;
pub mod fig6_model;
pub mod fig7_params;
pub mod fig8_threads;
pub mod fig9_nodes;
pub mod recall;
pub mod scaling;
pub mod soak;
pub mod streaming_overhead;
pub mod table2;
