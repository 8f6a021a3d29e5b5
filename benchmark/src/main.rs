//! The repo benchmark. See README.md for the metric glossary, the
//! workloads and what each layer metric is predicted to move.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--quick] [--out results.jsonl] [--repeat N]
//! benchmark --compare A.jsonl B.jsonl
//! ```
//!
//! The last line of standard output of a run is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics when `--trace 0`, the per-layer metrics when `--trace 1`.

mod client;
mod compare;
mod fixture;
mod gen;
mod harness;
mod layers;
mod load;
mod metrics;
mod report;
mod stats;
mod trace;
mod workloads;

use harness::{Ctx, Scale};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage:
  benchmark --workload <batch_static|served_point|stream_window|durable_recover>
            --seed <n> --seconds <s> --trace <0|1> [--quick] [--out FILE] [--repeat N]
  benchmark --compare A.jsonl B.jsonl";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    repeat: usize,
    setup_only: bool,
}

fn parse_run_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let (mut quick, mut setup_only, mut out, mut repeat) = (false, false, None, 1usize);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    *metrics::WORKLOADS
                        .iter()
                        .find(|w| *w == name)
                        .ok_or(format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 1.0) {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                })
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--repeat" => {
                repeat = value()?
                    .parse::<usize>()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--quick" => quick = true,
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        // `--quick` alone means the 3-second smoke phases.
        seconds: seconds
            .or(quick.then_some(3.0))
            .ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        quick,
        out,
        repeat,
        setup_only,
    })
}

/// `--repeat N`: the same run N times, each in a fresh process (so peak
/// RSS and set-up are per run), appending to `--out`.
fn repeat_runs(argv: &[String], n: usize) -> ExitCode {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let mut rest = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--repeat" {
            it.next();
        } else {
            rest.push(a.clone());
        }
    }
    let mut all_ok = true;
    for _ in 0..n {
        // `status` waits for the child to end.
        let status = std::process::Command::new(&exe)
            .args(&rest)
            .status()
            .expect("starting a repeat run");
        all_ok &= status.success();
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Internal (`durable_recover` starts it as a child): recover the index
/// in `dir`, as a restarted process would, and print this process's peak
/// RSS in MiB.
fn recover_rss(dir: &std::path::Path) -> ExitCode {
    match plsh::Index::recover_from(dir) {
        Ok(index) => {
            std::hint::black_box(index.stats());
            println!("{}", harness::rss_peak_mb());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("recovering {}: {e}", dir.display());
            ExitCode::FAILURE
        }
    }
}

struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        // Best effort: `Drop` must not panic, and a directory that is
        // already gone is what was wanted.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, a, b] = &argv[..] {
        if flag == "--compare" {
            return compare::run(a.as_ref(), b.as_ref());
        }
    }
    if let [flag, dir] = &argv[..] {
        if flag == "--recover-rss" {
            return recover_rss(dir.as_ref());
        }
    }
    let args = match parse_run_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if std::env::var_os("PLSH_FAULTS").is_some() {
        eprintln!("refusing to benchmark with PLSH_FAULTS set: injected faults are not a workload");
        return ExitCode::from(2);
    }
    if args.repeat > 1 {
        return repeat_runs(&argv, args.repeat);
    }

    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let tmp = out_dir.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    // Removed when `main` returns or unwinds, so a failed run leaves no
    // persist directories behind.
    let _cleanup = RemoveOnDrop(tmp.clone());
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: Scale::new(args.quick),
        tracer: trace::Tracer::new(args.trace),
        t0,
        tmp,
    };

    if args.setup_only {
        let times = workloads::setup_only(&ctx);
        workloads::print_setup(&times);
        return ExitCode::SUCCESS;
    }

    let mut outcome = workloads::run(&ctx);
    outcome.set("bench.reference_loop_ms", harness::reference_loop_ms());

    let spans = ctx.tracer.take_spans();
    if args.trace {
        let path = out_dir.join(format!("trace-{}.jsonl", args.workload));
        if let Err(e) = trace::write_jsonl(&path, &spans) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let run = report::Run::new(&ctx, &outcome, &spans, t0.elapsed().as_secs_f64());
    run.print_table();
    let latest = out_dir.join(format!(
        "result-{}-t{}.json",
        args.workload,
        u8::from(args.trace)
    ));
    let written = std::fs::write(&latest, run.document() + "\n").and_then(|()| match &args.out {
        Some(path) => report::append_line(path, &run.document()),
        None => Ok(()),
    });
    if let Err(e) = written {
        eprintln!("cannot write results: {e}");
        return ExitCode::FAILURE;
    }
    match run.driver_line() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(missing) => {
            eprintln!("the run produced no value for {missing}");
            ExitCode::FAILURE
        }
    }
}
