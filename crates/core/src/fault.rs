//! Named failpoints for runtime fault injection.
//!
//! The crash-recovery property tests simulate *power cuts* through
//! [`persist::fail`](crate::persist::fail) — the disk freezes and the
//! process dies. This module covers the other half of the failure space:
//! the process *survives* while an operation misbehaves — a WAL append
//! returns `EIO`, an fsync stalls, a merge worker panics. Each such site
//! has a name; tests (or the `PLSH_FAULTS` environment variable) arm an
//! injection per site, and the production code path asks the site on
//! every passage.
//!
//! Disarmed cost is one relaxed atomic load — the framework compiles into
//! release builds and stays resident in production binaries.
//!
//! ## Sites
//!
//! | site | layer | checked by |
//! |---|---|---|
//! | `wal.append` | WAL record write | [`io_check`] |
//! | `wal.fsync` | WAL batch-boundary fsync | [`io_check`] |
//! | `manifest.swap` | merge-publish and checkpoint manifest rename | [`io_check`] |
//! | `tomb.append` | tombstone log append | [`io_check`] |
//! | `static.prepare` | checkpoint segment write | [`io_check`] |
//! | `merge.build` | background merge thread, per merge | [`point`] |
//! | `ingest.batch` | sharded insert, per shard slice | [`point`] |
//! | `query.shard` | per-shard query fan-out task | [`point`] |
//!
//! ## Environment syntax
//!
//! `PLSH_FAULTS` holds `;`-separated entries, each `site=kind[:opts]`
//! where `kind` is `err`, `panic`, or `delay`, and `opts` is a
//! `,`-separated list of `p=<0..1>` (fire probability, default 1),
//! `after=<n>` (skip the first `n` passages), `times=<n>` (fire at most
//! `n` times; 0 = unlimited), and `ms=<n>` (delay duration). Example:
//!
//! ```text
//! PLSH_FAULTS="wal.append=err:times=2;merge.build=panic:after=1,times=1"
//! ```
//!
//! `PLSH_FAULT_SEED` seeds the probability rolls so probabilistic runs
//! reproduce. Programmatic [`arm`]/[`disarm_all`] override the
//! environment; the registry is process-global, so tests that arm it
//! must serialize among themselves.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use crate::rng::SplitMix64;

/// WAL record write for an insert batch.
pub const WAL_APPEND: &str = "wal.append";
/// WAL batch-boundary fsync.
pub const WAL_FSYNC: &str = "wal.fsync";
/// A merge-publish or checkpoint manifest rename-swap (the durability
/// commit point).
pub const MANIFEST_SWAP: &str = "manifest.swap";
/// Tombstone log append.
pub const TOMB_APPEND: &str = "tomb.append";
/// A checkpoint's static segment write, before the swap that names it.
pub const STATIC_PREPARE: &str = "static.prepare";
/// Background merge thread, once per merge it starts (outside every
/// engine lock).
pub const MERGE_BUILD: &str = "merge.build";
/// Sharded insert, once per shard as it applies its slice of a batch.
pub const INGEST_BATCH: &str = "ingest.batch";
/// Per-shard query fan-out task, once per shard visit.
pub const QUERY_SHARD: &str = "query.shard";

/// Every failpoint name, for diagnostics and doc tests.
pub const SITES: &[&str] = &[
    WAL_APPEND,
    WAL_FSYNC,
    MANIFEST_SWAP,
    TOMB_APPEND,
    STATIC_PREPARE,
    MERGE_BUILD,
    INGEST_BATCH,
    QUERY_SHARD,
];

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Return an injected `io::Error` (transient-or-persistent disk
    /// error, depending on `times`). At a [`point`] site — which has no
    /// error channel — this panics instead.
    Err,
    /// Panic with a recognizable message (exercises the merge thread's
    /// `catch_unwind`).
    Panic,
    /// Sleep for the given duration, then proceed normally (exercises
    /// deadlines and back-pressure).
    Delay(Duration),
}

/// A programmable injection: what to do, how often, for how long.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    kind: FaultKind,
    probability: f64,
    after: u64,
    times: u64,
}

impl FaultSpec {
    /// An injection that fires on every passage, forever.
    pub fn new(kind: FaultKind) -> Self {
        Self {
            kind,
            probability: 1.0,
            after: 0,
            times: 0,
        }
    }

    /// Fire with probability `p` per passage (seeded by
    /// `PLSH_FAULT_SEED`, so runs reproduce).
    pub fn probability(mut self, p: f64) -> Self {
        self.probability = p.clamp(0.0, 1.0);
        self
    }

    /// Let the first `n` passages through unharmed.
    pub fn after(mut self, n: u64) -> Self {
        self.after = n;
        self
    }

    /// Fire at most `n` times (0 = unlimited — a persistent fault).
    pub fn times(mut self, n: u64) -> Self {
        self.times = n;
        self
    }
}

struct Injection {
    spec: FaultSpec,
    hits: u64,
    fired: u64,
}

struct Registry {
    sites: HashMap<String, Injection>,
    rng: SplitMix64,
}

impl Registry {
    fn new() -> Self {
        let seed = std::env::var("PLSH_FAULT_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x9e37_79b9_7f4a_7c15);
        Self {
            sites: HashMap::new(),
            rng: SplitMix64::new(seed),
        }
    }
}

const UNINIT: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

/// Tri-state so the disarmed fast path is one relaxed load and the
/// environment is parsed at most once, lazily, on the first passage.
static ACTIVE: AtomicU8 = AtomicU8::new(UNINIT);
static FIRED_TOTAL: AtomicU64 = AtomicU64::new(0);
static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

fn lock() -> MutexGuard<'static, Option<Registry>> {
    // A panic injection fires *while holding no lock*, but a panicking
    // worker thread may still die between `fire` and its own cleanup —
    // never let that poison cascade into every later failpoint passage.
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

#[inline]
fn armed() -> bool {
    match ACTIVE.load(Ordering::Relaxed) {
        OFF => false,
        ON => true,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let mut guard = lock();
    match ACTIVE.load(Ordering::Relaxed) {
        OFF => return false,
        ON => return true,
        _ => {}
    }
    let reg = guard.get_or_insert_with(Registry::new);
    if let Ok(spec) = std::env::var("PLSH_FAULTS") {
        for entry in spec.split(';').map(str::trim).filter(|s| !s.is_empty()) {
            match parse_entry(entry) {
                Ok((site, spec)) => {
                    reg.sites.insert(
                        site,
                        Injection {
                            spec,
                            hits: 0,
                            fired: 0,
                        },
                    );
                }
                Err(msg) => {
                    eprintln!("plsh: ignoring malformed PLSH_FAULTS entry {entry:?}: {msg}")
                }
            }
        }
    }
    let on = !reg.sites.is_empty();
    ACTIVE.store(if on { ON } else { OFF }, Ordering::Relaxed);
    on
}

fn parse_entry(entry: &str) -> Result<(String, FaultSpec), String> {
    let (site, rest) = entry
        .split_once('=')
        .ok_or_else(|| "expected site=kind[:opts]".to_string())?;
    let (kind, opts) = match rest.split_once(':') {
        Some((k, o)) => (k.trim(), Some(o)),
        None => (rest.trim(), None),
    };
    let mut probability = 1.0f64;
    let mut after = 0u64;
    let mut times = 0u64;
    let mut ms = 10u64;
    if let Some(opts) = opts {
        for opt in opts.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (key, val) = opt
                .split_once('=')
                .ok_or_else(|| format!("option {opt:?} is not key=value"))?;
            match key.trim() {
                "p" => {
                    probability = val
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad probability {val:?}"))?
                }
                "after" => {
                    after = val
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad after {val:?}"))?
                }
                "times" => {
                    times = val
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad times {val:?}"))?
                }
                "ms" => ms = val.trim().parse().map_err(|_| format!("bad ms {val:?}"))?,
                other => return Err(format!("unknown option {other:?}")),
            }
        }
    }
    let kind = match kind {
        "err" | "error" => FaultKind::Err,
        "panic" => FaultKind::Panic,
        "delay" => FaultKind::Delay(Duration::from_millis(ms)),
        other => return Err(format!("unknown kind {other:?} (err|panic|delay)")),
    };
    let spec = FaultSpec::new(kind)
        .probability(probability)
        .after(after)
        .times(times);
    Ok((site.trim().to_string(), spec))
}

/// Arms `site` with `spec`, replacing any previous injection there.
/// Process-global; overrides whatever `PLSH_FAULTS` configured.
pub fn arm(site: &str, spec: FaultSpec) {
    let mut guard = lock();
    let reg = guard.get_or_insert_with(Registry::new);
    reg.sites.insert(
        site.to_string(),
        Injection {
            spec,
            hits: 0,
            fired: 0,
        },
    );
    ACTIVE.store(ON, Ordering::Relaxed);
}

/// Disarms one site, leaving the rest armed.
pub fn disarm(site: &str) {
    let mut guard = lock();
    if let Some(reg) = guard.as_mut() {
        reg.sites.remove(site);
        if reg.sites.is_empty() {
            ACTIVE.store(OFF, Ordering::Relaxed);
        }
    } else {
        ACTIVE.store(OFF, Ordering::Relaxed);
    }
}

/// Disarms every site. Also pins the registry to the OFF state, so a
/// later passage will *not* re-parse `PLSH_FAULTS`.
pub fn disarm_all() {
    let mut guard = lock();
    if let Some(reg) = guard.as_mut() {
        reg.sites.clear();
    } else {
        *guard = Some(Registry::new());
    }
    ACTIVE.store(OFF, Ordering::Relaxed);
}

/// How many times `site` has fired since it was last armed.
pub fn fired(site: &str) -> u64 {
    lock()
        .as_ref()
        .and_then(|r| r.sites.get(site))
        .map_or(0, |i| i.fired)
}

/// Total injections fired across all sites since process start (or the
/// last [`reset_counters`]).
pub fn fired_total() -> u64 {
    FIRED_TOTAL.load(Ordering::Relaxed)
}

/// Zeroes the global and per-site counters (armed specs stay armed).
pub fn reset_counters() {
    FIRED_TOTAL.store(0, Ordering::Relaxed);
    if let Some(reg) = lock().as_mut() {
        for inj in reg.sites.values_mut() {
            inj.hits = 0;
            inj.fired = 0;
        }
    }
}

fn fire(site: &str) -> Option<FaultKind> {
    let mut guard = lock();
    let reg = guard.as_mut()?;
    let Registry { sites, rng } = reg;
    let inj = sites.get_mut(site)?;
    inj.hits += 1;
    if inj.hits <= inj.spec.after {
        return None;
    }
    if inj.spec.times != 0 && inj.fired >= inj.spec.times {
        return None;
    }
    if inj.spec.probability < 1.0 && rng.next_f64() >= inj.spec.probability {
        return None;
    }
    inj.fired += 1;
    FIRED_TOTAL.fetch_add(1, Ordering::Relaxed);
    Some(inj.spec.kind)
}

/// The check an I/O-capable site performs on every passage: `Ok(())`
/// when disarmed or not firing, an injected error / panic / delay
/// otherwise. One relaxed atomic load when disarmed.
#[inline]
pub fn io_check(site: &str) -> io::Result<()> {
    if !armed() {
        return Ok(());
    }
    match fire(site) {
        None => Ok(()),
        Some(FaultKind::Err) => Err(io::Error::other(format!("injected fault at {site}"))),
        Some(FaultKind::Panic) => panic!("injected panic at failpoint {site}"),
        Some(FaultKind::Delay(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
    }
}

/// The check a non-I/O site (worker loop, query task) performs: panics
/// or delays when firing. An `Err` injection at a point site panics too
/// — there is no error channel to thread it through.
#[inline]
pub fn point(site: &str) {
    if !armed() {
        return;
    }
    match fire(site) {
        None => {}
        Some(FaultKind::Err | FaultKind::Panic) => {
            panic!("injected panic at failpoint {site}")
        }
        Some(FaultKind::Delay(d)) => std::thread::sleep(d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that touch the process-global registry.
    static GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn disarmed_sites_pass() {
        let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        disarm_all();
        assert!(io_check(WAL_APPEND).is_ok());
        point(MERGE_BUILD);
    }

    #[test]
    fn err_injection_counts_and_respects_times() {
        let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        disarm_all();
        reset_counters();
        arm(WAL_APPEND, FaultSpec::new(FaultKind::Err).after(1).times(2));
        assert!(io_check(WAL_APPEND).is_ok(), "after=1 spares the first");
        assert!(io_check(WAL_APPEND).is_err());
        assert!(io_check(WAL_APPEND).is_err());
        assert!(io_check(WAL_APPEND).is_ok(), "times=2 exhausted");
        assert_eq!(fired(WAL_APPEND), 2);
        assert_eq!(fired_total(), 2);
        disarm_all();
    }

    #[test]
    fn point_panics_on_injection() {
        let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        disarm_all();
        arm(MERGE_BUILD, FaultSpec::new(FaultKind::Panic).times(1));
        let r = std::panic::catch_unwind(|| point(MERGE_BUILD));
        assert!(r.is_err(), "armed point must panic");
        point(MERGE_BUILD); // exhausted: passes
        disarm_all();
    }

    #[test]
    fn delay_injection_sleeps() {
        let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        disarm_all();
        arm(
            QUERY_SHARD,
            FaultSpec::new(FaultKind::Delay(Duration::from_millis(30))).times(1),
        );
        let t0 = std::time::Instant::now();
        point(QUERY_SHARD);
        assert!(t0.elapsed() >= Duration::from_millis(25));
        disarm_all();
    }

    #[test]
    fn env_syntax_parses() {
        let (site, spec) = parse_entry("wal.append=err:p=0.5,after=3,times=7").unwrap();
        assert_eq!(site, WAL_APPEND);
        assert_eq!(spec.kind, FaultKind::Err);
        assert!((spec.probability - 0.5).abs() < 1e-12);
        assert_eq!((spec.after, spec.times), (3, 7));

        let (_, spec) = parse_entry("query.shard=delay:ms=50").unwrap();
        assert_eq!(spec.kind, FaultKind::Delay(Duration::from_millis(50)));

        assert!(parse_entry("nonsense").is_err());
        assert!(parse_entry("a=explode").is_err());
        assert!(parse_entry("a=err:p=x").is_err());
    }
}
