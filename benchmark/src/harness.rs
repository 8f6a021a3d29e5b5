//! What every workload shares: the fixed fixture constants, the run
//! context, the outcome a workload hands back, and the helpers that read
//! the process and the host from outside the program.

use crate::gen::VOCAB;
use crate::trace::Tracer;
use plsh::{Index, PlshParams, SearchHit, SearchRequest, SparseVector};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// PLSH operating point, shared with the BENCH_* history: k = 14,
/// m = 16 (L = 120 tables), R = 0.9, δ = 0.1. The hyperplane seed is
/// program configuration, not workload input, so it does not follow
/// `--seed`.
pub const RADIUS: f32 = 0.9;
pub const DELTA: f64 = 0.1;
const K: u32 = 14;
const M: u32 = 16;
const PLSH_SEED: u64 = 0x5EED;

pub fn params() -> PlshParams {
    params_for(VOCAB)
}

/// The same operating point over another dimensionality (the text
/// pipeline's vocabulary decides `stream_window`'s).
pub fn params_for(dim: u32) -> PlshParams {
    PlshParams::builder(dim)
        .k(K)
        .m(M)
        .radius(f64::from(RADIUS))
        .delta(DELTA)
        .seed(PLSH_SEED)
        .build()
        .expect("the fixture's PLSH parameters are valid")
}

/// Corpus and window sizes. `--quick` runs the same code paths on a fifth
/// of the data (for CI smoke wiring; its numbers are not comparable).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub quick: bool,
    /// Bulk-loaded documents of the two static workloads.
    pub static_docs: usize,
    /// `stream_window`: live window (capacity is three windows).
    pub stream_window: usize,
    /// `durable_recover`: live window (capacity is three windows) and
    /// the corpus that is cycled through it.
    pub durable_window: usize,
    pub durable_corpus: usize,
}

impl Scale {
    pub fn new(quick: bool) -> Scale {
        let div = if quick { 5 } else { 1 };
        Scale {
            quick,
            static_docs: 100_000 / div,
            stream_window: 30_000 / div,
            durable_window: 50_000 / div,
            durable_corpus: 200_000 / div,
        }
    }
}

/// Load threads / connections, index pool threads and server workers:
/// two on the reference box, never more than the host has.
pub fn threads() -> usize {
    plsh::parallel::affinity::host_threads().min(2)
}

pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub tracer: Tracer,
    /// Process start: `setup_s` runs from here to the first timed phase.
    pub t0: Instant,
    /// Scratch space for this process's persist directories; removed
    /// when the run ends.
    pub tmp: PathBuf,
}

impl Ctx {
    /// `share` of the run's `--seconds`.
    pub fn phase(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts and other facts a reader needs beside a metric.
    pub notes: BTreeMap<&'static str, String>,
    pub attempted: u64,
    pub failed: u64,
    /// Oracle verdicts beyond per-operation failures (recall floor,
    /// acked-doc survival); `correct` also requires `failed == 0`.
    pub oracle_ok: bool,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            oracle_ok: true,
            ..Outcome::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, name: &'static str, value: impl ToString) {
        self.notes.insert(name, value.to_string());
    }

    pub fn fail_oracle(&mut self, why: impl std::fmt::Display) {
        eprintln!("oracle: {why}");
        self.oracle_ok = false;
    }

    pub fn correct(&self) -> bool {
        self.oracle_ok && self.failed == 0
    }
}

/// What one set-up reports (the parent takes the median over its own and
/// its `--setup-only` children's).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub setup_s: f64,
    pub corpus_gen_s: f64,
    pub bulk_insert_s: f64,
    pub bulk_build_s: f64,
    pub bulk_docs: usize,
}

impl SetupTimes {
    /// Set-up ends now: stamps `setup_s` as the time since process start.
    pub fn stamped(self, ctx: &Ctx) -> SetupTimes {
        SetupTimes {
            setup_s: ctx.t0.elapsed().as_secs_f64(),
            ..self
        }
    }
}

/// Cheap per-answer soundness check usable inside a timed loop: every
/// hit's reported distance is within `limit` and its id is inside
/// `live` (the ids the index may report at that moment). Returns the
/// number of queries with at least one unsound hit.
pub fn unsound_queries(results: &[Vec<SearchHit>], limit: f32, live: std::ops::Range<u32>) -> u64 {
    results
        .iter()
        .filter(|hits| {
            hits.iter().any(|h| {
                h.distance.is_nan() || h.distance > limit || !live.contains(&h.index) || h.node != 0
            })
        })
        .count() as u64
}

/// `true` when a radius search for `doc` (an exact copy of an indexed
/// document) reports `id` — the freshness / survival probe.
pub fn finds_exact_duplicate(index: &Index, doc: &SparseVector, id: u32) -> bool {
    match index.search(&SearchRequest::query(doc.clone())) {
        Ok(resp) => resp.hits().iter().any(|h| h.index == id),
        Err(_) => false,
    }
}

/// Milliseconds this host takes, right now, for a fixed piece of CPU-bound
/// work (a dependent 64-bit multiply-add chain; best of three). The box
/// is shared and its speed wanders by tens of percent over minutes; a run
/// records this when its workload ends so a reader can tell a slow host
/// from a slow program. It corrects nothing.
pub fn reference_loop_ms() -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..10_000_000u64 {
                // The opaque multiplier keeps the chain a chain.
                x = x
                    .wrapping_mul(std::hint::black_box(0x2545_F491_4F6C_DD1D))
                    .wrapping_add(i);
            }
            std::hint::black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// A `<key> <n> kB` line of a `/proc/self` file, in MiB (0 when absent).
fn proc_self_mib(file: &str, key: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/self/{file}"))
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    proc_self_mib("status", "VmHWM:")
}

/// Records the memory of the workload proper; called when its own phases
/// end, before the restarts (which build further indexes in this same
/// process, as no real restart would).
///
/// `rss_peak_mb` is `VmHWM`. The note beside it is the anonymous memory
/// currently backed by transparent huge pages: the program `madvise`s its
/// tables, how much the kernel grants varies with fragmentation and moves
/// table-lookup speed, so every result states it.
pub fn record_memory(out: &mut Outcome) {
    out.set("rss_peak_mb", rss_peak_mb());
    let huge = proc_self_mib("smaps_rollup", "AnonHugePages:");
    out.note("anon_huge_mb", format!("{huge:.0}"));
}

pub fn dir_stats(dir: &Path) -> std::io::Result<DirStats> {
    let mut out = DirStats::default();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_dir() {
            let sub = dir_stats(&entry.path())?;
            out.bytes += sub.bytes;
            out.segment_files += sub.segment_files;
        } else {
            out.bytes += meta.len();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".seg") {
                out.segment_files += 1;
            }
        }
    }
    Ok(out)
}

#[derive(Debug, Clone, Copy, Default)]
pub struct DirStats {
    pub bytes: u64,
    pub segment_files: u64,
}

pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.metadata()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

/// The host stanza every result carries.
pub fn host_stanza(seed: u64, wall_s: f64) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("PLSH_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    vec![
        (
            "nproc",
            plsh::parallel::affinity::host_threads().to_string(),
        ),
        ("cpu_model", cpu),
        ("simd_level", plsh::core::simd::level().name().to_string()),
        (
            "pinned_workers",
            plsh::parallel::pinned_worker_count().to_string(),
        ),
        ("plsh_env", env.join(" ")),
        ("git_sha", git_sha()),
        ("seed", seed.to_string()),
        ("wall_s", format!("{wall_s:.3}")),
    ]
}

/// The checked-out commit, read straight from `.git` (the driver's
/// checkout is not a repository: "unknown" there).
fn git_sha() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(".git");
    let head = match std::fs::read_to_string(root.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(index: u32, distance: f32) -> SearchHit {
        SearchHit {
            node: 0,
            index,
            distance,
        }
    }

    #[test]
    fn unsound_hits_are_distance_over_r_or_id_outside_the_live_range() {
        let results = vec![
            vec![hit(5, 0.1), hit(9, 0.9)],
            vec![hit(5, 0.91)],
            vec![hit(10, 0.2)],
            vec![hit(4, 0.2)],
            vec![hit(6, f32::NAN)],
            vec![],
        ];
        assert_eq!(unsound_queries(&results, 0.9, 5..10), 4);
    }

    #[test]
    fn memory_reads_a_positive_peak() {
        let mut out = Outcome::new();
        record_memory(&mut out);
        assert!(out.metrics["rss_peak_mb"] > 1.0);
        assert!(out.notes.contains_key("anon_huge_mb"));
    }
}
