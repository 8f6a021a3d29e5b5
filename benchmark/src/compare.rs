//! `--compare A.jsonl B.jsonl`: every end-to-end metric × workload pair
//! of B (the change) against A (the parent), by the bound the benchmark
//! fixed for it. A pair whose same-side spread exceeds its bound is
//! reported as *unresolved*, not as unchanged.

use crate::metrics::{Metric, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};
use plsh::server::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// One side: per workload, per metric, the values of its untraced runs,
/// plus what disqualifies the side outright.
#[derive(Default)]
struct Side {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    problems: Vec<String>,
}

fn load(path: &Path) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut side = Side::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = format!("{}:{}", path.display(), n + 1);
        let doc = plsh::server::json::parse(line).map_err(|e| format!("{at}: {e}"))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{at}: no workload"))?
            .to_string();
        if doc.get("correct").and_then(Json::as_bool) != Some(true) {
            side.problems
                .push(format!("{at}: {workload} failed its oracle"));
        }
        if doc.get("failed").and_then(Json::as_u64) != Some(0) {
            side.problems
                .push(format!("{at}: {workload} has error_rate > 0"));
        }
        let metrics = doc.get("metrics").ok_or(format!("{at}: no metrics"))?;
        let value = |name: &str| {
            metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        if value("e2e.recall").is_some_and(|r| r < 0.9) {
            side.problems
                .push(format!("{at}: {workload} recall is below 0.9"));
        }
        // End-to-end values come from untraced runs only.
        if doc.get("trace").and_then(Json::as_u64) != Some(0) {
            continue;
        }
        for m in END_TO_END {
            if let Some(v) = value(m.name) {
                side.values
                    .entry(workload.clone())
                    .or_default()
                    .entry(m.name.to_string())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(side)
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(m: &Metric, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if m.higher {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

fn judge(m: &Metric, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let worse = worsening(m, median(a), median(b));
    let verdict = if spread(a) > m.bound || spread(b) > m.bound {
        Verdict::Unresolved
    } else if worse > m.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, worse)
}

pub fn run(a_path: &Path, b_path: &Path) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut bad = false;
    for p in a.problems.iter().chain(&b.problems) {
        println!("FAILED  {p}");
        bad = true;
    }
    println!("change (B) against parent (A): worsening as a share of A's median, per bound");
    for workload in WORKLOADS {
        let (Some(av), Some(bv)) = (a.values.get(workload), b.values.get(workload)) else {
            println!("{workload:<16} not on both sides");
            continue;
        };
        let mut row = format!("{workload:<16}");
        for m in END_TO_END {
            let (Some(x), Some(y)) = (av.get(m.name), bv.get(m.name)) else {
                row.push_str(&format!(" {}=missing", m.name));
                bad = true;
                continue;
            };
            let (verdict, worse) = judge(m, x, y);
            let tag = match verdict {
                Verdict::Ok => "ok",
                Verdict::Unresolved => "UNRESOLVED",
                Verdict::Regressed => {
                    bad = true;
                    "REGRESSED"
                }
            };
            row.push_str(&format!(
                " {}={:+.1}%/{:.0}%[{}|n={},{} spread={:.1}%,{:.1}%]",
                m.name,
                100.0 * worse,
                100.0 * m.bound,
                tag,
                x.len(),
                y.len(),
                100.0 * spread(x),
                100.0 * spread(y)
            ));
        }
        println!("{row}");
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const QPS: Metric = Metric {
        name: "search_qps",
        unit: "1/s",
        higher: true,
        bound: 0.10,
    };
    const P50: Metric = Metric {
        name: "search_p50_ms",
        unit: "ms",
        higher: false,
        bound: 0.10,
    };

    #[test]
    fn worse_is_signed_by_the_metrics_direction() {
        assert!((worsening(&QPS, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!((worsening(&QPS, 100.0, 120.0) + 0.2).abs() < 1e-12);
        assert!((worsening(&P50, 10.0, 12.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn a_pair_is_ok_regressed_or_unresolved() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [85.0, 86.0, 84.0, 85.5, 84.5];
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(judge(&QPS, &steady, &steady).0, Verdict::Ok);
        assert_eq!(judge(&QPS, &steady, &slower).0, Verdict::Regressed);
        // For a lower-is-better metric the same move is an improvement.
        assert_eq!(judge(&P50, &steady, &slower).0, Verdict::Ok);
        // A side noisier than the bound cannot be called unchanged.
        assert_eq!(judge(&QPS, &noisy, &steady).0, Verdict::Unresolved);
        assert_eq!(judge(&QPS, &steady, &noisy).0, Verdict::Unresolved);
        // A single run per side has no spread to hold against it.
        assert_eq!(judge(&QPS, &[100.0], &[95.0]).0, Verdict::Ok);
        assert_eq!(judge(&QPS, &[100.0], &[80.0]).0, Verdict::Regressed);
    }
}
