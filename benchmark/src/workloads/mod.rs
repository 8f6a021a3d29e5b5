//! The four workloads. Each runs in its own process (the driver, `run.sh`
//! and `--repeat` all start one process per run), so `rss_peak_mb` is
//! that workload's alone.

pub mod batch_static;
pub mod durable_recover;
pub mod served_point;
pub mod stream_window;

use crate::harness::{Ctx, Outcome, SetupTimes};
use crate::stats::median;

/// Further set-ups per untraced run, each in a fresh child process (so
/// the parent's peak RSS stays its own); `setup_s` is the median of the
/// parent's and the children's.
const EXTRA_SETUPS: usize = 4;

/// Equal time slices a timed phase is cut into; its rate, p50 and p99 are
/// the medians over them (see [`crate::stats::Timeline`]).
pub const SLICES: usize = 10;

/// A phase of `length`, cut for traced runs into an even number of
/// slices of about half a second that alternate tracer-off / tracer-on.
/// The ratio of the two modes' rates is `bench.trace_overhead`;
/// interleaving keeps drift over the phase (a growing window, a warming
/// cache) out of it.
pub fn segments(ctx: &Ctx, length: std::time::Duration) -> Vec<(std::time::Duration, bool)> {
    if !ctx.trace {
        return vec![(length, false)];
    }
    let pairs = ((length.as_secs_f64() / 1.0).round() as u32).max(1);
    let slice = length / (2 * pairs);
    (0..2 * pairs).map(|i| (slice, i % 2 == 1)).collect()
}

/// Reports a timed search phase: `search_qps`, `search_p50_ms`,
/// `search_p95_ms` and `e2e.search_p99_ms` as the medians over the phase's
/// time slices, with the sample counts beside them. `what` names one
/// operation of the timeline.
pub fn record_search(
    out: &mut Outcome,
    timeline: &crate::stats::Timeline,
    length: std::time::Duration,
    slices: usize,
    what: &str,
) {
    let sliced = timeline.sliced(length, slices);
    out.set("search_qps", sliced.rate_per_s);
    out.set("search_p50_ms", sliced.p50_ms);
    out.set("search_p95_ms", sliced.p95_ms);
    out.set("e2e.search_p99_ms", sliced.p99_ms);
    out.note(
        "search_samples",
        format!("{} x {what}; {}", timeline.len(), sliced.support(slices)),
    );
}

/// Accumulates `(work, time)` per tracer mode over a phase's slices.
#[derive(Default)]
pub struct ModeRates {
    off: (f64, f64),
    on: (f64, f64),
}

impl ModeRates {
    pub fn add(&mut self, traced: bool, work: f64, elapsed: std::time::Duration) {
        let slot = if traced { &mut self.on } else { &mut self.off };
        slot.0 += work;
        slot.1 += elapsed.as_secs_f64();
    }

    /// The untraced rate (the whole phase's rate on an untraced run).
    pub fn untraced(&self) -> f64 {
        self.off.0 / self.off.1
    }

    /// Sets `bench.trace_overhead` = 1 − traced rate ÷ untraced rate.
    pub fn record(&self, out: &mut Outcome) {
        if self.on.1 > 0.0 && self.off.0 > 0.0 {
            out.set(
                "bench.trace_overhead",
                1.0 - (self.on.0 / self.on.1) / self.untraced(),
            );
        }
    }
}

/// Runs the extra set-ups and records `setup_s` (and the set-up split).
/// `own` is this process's set-up.
pub fn record_setup(ctx: &Ctx, out: &mut Outcome, own: SetupTimes) -> Vec<SetupTimes> {
    let mut all = vec![own];
    if !ctx.trace {
        for _ in 0..EXTRA_SETUPS {
            all.push(child_setup(ctx));
        }
    }
    let med = |f: fn(&SetupTimes) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
    out.set("setup_s", med(|s| s.setup_s));
    out.set("bench.corpus_gen_s", med(|s| s.corpus_gen_s));
    out.set("core.engine.bulk_insert_s", med(|s| s.bulk_insert_s));
    out.set("core.table.bulk_build_s", med(|s| s.bulk_build_s));
    out.note("setup_samples", all.len());
    all
}

fn child_setup(ctx: &Ctx) -> SetupTimes {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "--setup-only",
        "--workload",
        ctx.workload,
        "--seed",
        &ctx.seed.to_string(),
    ]);
    // The stream's length, and with it the corpus to generate, follows
    // --seconds.
    cmd.args(["--seconds", &ctx.seconds.to_string()]);
    if ctx.scale.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let output = cmd.output().expect("starting a set-up child");
    assert!(
        output.status.success(),
        "a set-up child failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = String::from_utf8_lossy(&output.stdout);
    let nums: Vec<f64> = text
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    let [setup_s, corpus_gen_s, bulk_insert_s, bulk_build_s, bulk_docs] = nums[..] else {
        panic!("a set-up child printed {text:?}");
    };
    SetupTimes {
        setup_s,
        corpus_gen_s,
        bulk_insert_s,
        bulk_build_s,
        bulk_docs: bulk_docs as usize,
    }
}

/// What a `--setup-only` child prints.
pub fn print_setup(t: &SetupTimes) {
    println!(
        "{} {} {} {} {}",
        t.setup_s, t.corpus_gen_s, t.bulk_insert_s, t.bulk_build_s, t.bulk_docs
    );
}

/// What a watcher thread saw of a streaming engine (traced runs only):
/// `Index::stats` polled every 2 ms, `last_merge()` read whenever the
/// merge count moved.
#[derive(Default)]
pub struct EngineWatch {
    sealed_generations_max: usize,
    retired_pending_purge_max: usize,
    window_lag_max: usize,
    merges: Vec<plsh::core::MergeReport>,
}

pub fn watch_engine(index: &plsh::Index, stop: &std::sync::atomic::AtomicBool) -> EngineWatch {
    let mut w = EngineWatch::default();
    let mut merges = index.stats().merges;
    // Relaxed: a flag that publishes nothing.
    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
        let st = index.stats();
        w.sealed_generations_max = w.sealed_generations_max.max(st.sealed_generations);
        w.retired_pending_purge_max = w.retired_pending_purge_max.max(st.retired_pending_purge);
        w.window_lag_max = w.window_lag_max.max(st.window_lag);
        if st.merges != merges {
            merges = st.merges;
            w.merges.push(index.last_merge());
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    w
}

impl EngineWatch {
    pub fn record(&self, out: &mut Outcome) {
        out.set(
            "core.engine.sealed_generations_max",
            self.sealed_generations_max as f64,
        );
        out.set(
            "core.engine.retired_pending_purge_max",
            self.retired_pending_purge_max as f64,
        );
        out.set("core.engine.window_lag_max", self.window_lag_max as f64);
        out.note("merges_watched", self.merges.len());
        if self.merges.is_empty() {
            return;
        }
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        let build: Vec<f64> = self.merges.iter().map(|m| ms(m.build)).collect();
        out.set("core.table.merge_build_ms_p50", median(&build));
        out.set(
            "core.table.merge_publish_ms_max",
            self.merges
                .iter()
                .map(|m| ms(m.publish))
                .fold(0.0, f64::max),
        );
        out.set(
            "core.table.merge_yielded_ms_total",
            self.merges.iter().map(|m| ms(m.yielded)).sum(),
        );
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    match ctx.workload {
        "batch_static" => batch_static::run(ctx),
        "served_point" => served_point::run(ctx),
        "stream_window" => stream_window::run(ctx),
        "durable_recover" => durable_recover::run(ctx),
        other => unreachable!("workload {other} passed argument checking"),
    }
}

pub fn setup_only(ctx: &Ctx) -> SetupTimes {
    match ctx.workload {
        "batch_static" => batch_static::setup_only(ctx),
        "served_point" => served_point::setup_only(ctx),
        "stream_window" => stream_window::setup_only(ctx),
        "durable_recover" => durable_recover::setup_only(ctx),
        other => unreachable!("workload {other} passed argument checking"),
    }
}
