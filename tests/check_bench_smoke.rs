//! Smoke test: `scripts/check_bench.py` must keep validating the three
//! committed benchmark reports.
//!
//! The script is the single source of truth for what CI asserts about
//! `BENCH_cluster.json`, `BENCH_soak.json` and `BENCH_faults.json` (it
//! used to live inline in `ci.yml`, where nothing exercised it before a
//! workflow ran). This test pins the contract down from `cargo test`: the
//! script exists, parses, accepts the committed full-scale reports it
//! ships with, and rejects malformed or retired ones.

use std::path::Path;
use std::process::Command;

const REPORTS: [&str; 3] = ["BENCH_cluster.json", "BENCH_soak.json", "BENCH_faults.json"];

#[test]
fn check_bench_script_accepts_committed_reports() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let script = root.join("scripts/check_bench.py");
    assert!(script.is_file(), "scripts/check_bench.py is missing");
    for report in REPORTS {
        assert!(
            root.join(report).is_file(),
            "committed report {report} is missing"
        );
    }

    let output = match Command::new("python3")
        .arg(&script)
        .args(REPORTS)
        .current_dir(root)
        .output()
    {
        Ok(out) => out,
        Err(e) => {
            // CI always has python3; a dev box without it skips rather
            // than failing the tier-1 suite on an unrelated toolchain.
            eprintln!("skipping: python3 not runnable here ({e})");
            return;
        }
    };
    assert!(
        output.status.success(),
        "check_bench.py rejected the committed reports:\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("all 3 report(s) OK"),
        "unexpected script output:\n{stdout}"
    );
}

#[test]
fn check_bench_script_rejects_malformed_reports() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = std::env::temp_dir().join("plsh_check_bench_smoke");
    std::fs::create_dir_all(&dir).unwrap();
    // A report missing required fields, and a well-formed report from a
    // retired experiment: neither may pass silently.
    let cases = [
        (
            "BENCH_bad.json",
            "{\"experiment\": \"scaling\", \"scale\": \"quick\"}",
            "missing field",
        ),
        (
            "BENCH_retired.json",
            "{\"experiment\": \"streaming\", \"scale\": \"quick\", \"threads\": 1, \
             \"host_threads\": 1, \"pinned_workers\": 0}",
            "unknown experiment 'streaming'",
        ),
    ];
    for (name, body, reason) in cases {
        let bad = dir.join(name);
        std::fs::write(&bad, body).unwrap();
        let output = match Command::new("python3")
            .arg(root.join("scripts/check_bench.py"))
            .arg(&bad)
            .output()
        {
            Ok(out) => out,
            Err(e) => {
                eprintln!("skipping: python3 not runnable here ({e})");
                return;
            }
        };
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            !output.status.success() && stderr.contains(reason),
            "{name} must be rejected with {reason:?}; stderr:\n{stderr}"
        );
    }
}
