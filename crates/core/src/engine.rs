//! The single-node PLSH engine: epoch-swapped static tables + sealed delta
//! generations + deletions.
//!
//! This is the per-node composite of Section 4/6, rebuilt as a *concurrent
//! streaming* subsystem so queries run while the firehose streams in:
//!
//! * **Readers pin epochs.** Every query pins one immutable
//!   `EngineView` — the static tables, the consolidated static corpus,
//!   and the list of sealed [`DeltaGeneration`]s — through a lock-free
//!   [`EpochPtr`]. All query entry points take `&self`; a pinned view
//!   never changes, so a query can never observe a half-merged state.
//! * **Writers seal generations.** Inserts are hashed once and buffered in
//!   the *open* generation (serialized by a write mutex) — rows plus
//!   packed sketches, no hash tables: the write path is *append and
//!   hash*. Sealing wraps the generation in an `Arc` and publishes it
//!   with one epoch swap — a pointer move, no copying. By default every
//!   `insert_batch` seals, so points become visible the moment the call
//!   returns.
//! * **The delta is scanned, not probed.** A point shares a bucket with
//!   the query in some of the `L` all-pairs tables iff at least two of
//!   its `m` half-keys equal the query's, so a query answers each sealed
//!   generation with one pass over its sketch column
//!   ([`crate::simd::scan_half_keys`]) after the static table loop — same
//!   candidates, same collision count as `L` per-generation tables, at
//!   `m` bytes per point. The pass is `O(delta)`; the auto-merge at
//!   `η·C` is what keeps it cheap.
//! * **Merges happen off to the side.** [`merge_delta`](Engine::merge_delta)
//!   consolidates the sealed generations into the next static epoch —
//!   bucket-merging the previous epoch's entry runs with radix-partitioned
//!   generation entries ([`StaticTables::merge_generations`]) — while
//!   queries and inserts keep running against the current epoch, then
//!   publishes the result with a single swap. Deletion tombstones are
//!   *purged* during the rebuild: tombstoned ids are dropped from every
//!   bucket and their bitvector bits reclaimed.
//!
//! The paper's cost argument still holds (Section 6.2: any merge is at
//! most ~2.7× cheaper than a rebuild because both are bound by the memory
//! traffic of writing the combined tables) — the bucket merge sits on the
//! cheap side of that window and, unlike the rebuild, needs sketches only
//! for the generations it folds in, so sketch storage is dropped at merge
//! time.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

use plsh_parallel::{EpochPtr, ThreadPool};

use crate::error::{PlshError, Result};
use crate::hash::Hyperplanes;
use crate::health::HealthReport;
use crate::params::PlshParams;
use crate::query::{
    self, BatchStats, Exec, Neighbor, QueryContext, QueryPhaseTimings, ScratchPool,
};
use crate::search::{SearchBackend, SearchHit, SearchMode, SearchRequest, SearchResponse};
use crate::sparse::{CrsMatrix, SparseVector};
use crate::table::{DeltaGeneration, StaticTables};

/// Configuration of a single PLSH node engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Validated LSH parameters.
    pub params: PlshParams,
    /// Node capacity `C` in points; inserts beyond this fail (Section 6).
    pub capacity: usize,
    /// Delta fraction `η` of capacity that triggers an automatic merge
    /// (paper: 0.1, chosen so worst-case queries stay within 1.5× static).
    pub eta: f64,
    /// Whether inserts trigger merges automatically at `η·C`.
    pub auto_merge: bool,
    /// Minimum open-generation size before `insert_batch` auto-seals.
    ///
    /// The default of 1 seals after every batch, so freshly inserted
    /// points are query-visible as soon as the insert returns. Raising it
    /// lets several small batches coalesce into one generation (fewer
    /// partial scan blocks per query); the coalesced points stay
    /// invisible until the threshold is reached or [`Engine::seal`] is
    /// called.
    pub seal_min_points: usize,
    /// Sliding-window retirement: when set, every insert advances a
    /// retire-by-age watermark so only the newest window stays live (see
    /// [`WindowSpec`]). `None` (the default) keeps every point until it is
    /// explicitly deleted.
    pub window: Option<WindowSpec>,
}

/// A sliding-window policy: how much history stays live.
///
/// Retirement is a single **range tombstone** — a watermark global id
/// below which every point is dead — rather than per-id bitmap bits.
/// Queries filter the watermark for free alongside the deletion bitmap;
/// the next merge *compacts* the window by rebasing the static structure
/// at the watermark, reclaiming rows, bucket entries, and bitmap words in
/// the same radix-partition pass that already purges tombstones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowSpec {
    /// Keep the newest `n` documents live.
    Docs(u32),
    /// Keep documents inserted within the trailing duration live. Ages are
    /// measured from insert time on this node; after a restart the clock
    /// restarts at recovery (the recovered watermark is preserved, so the
    /// window never moves backwards).
    Duration(Duration),
}

impl EngineConfig {
    /// Default configuration: `η = 0.1`, auto-merge, seal every batch.
    pub fn new(params: PlshParams, capacity: usize) -> Self {
        Self {
            params,
            capacity,
            eta: 0.1,
            auto_merge: true,
            seal_min_points: 1,
            window: None,
        }
    }

    /// Enables sliding-window retirement (see [`WindowSpec`]).
    pub fn with_window(mut self, window: WindowSpec) -> Self {
        self.window = Some(window);
        self
    }

    /// Sets the delta fraction `η`.
    pub fn with_eta(mut self, eta: f64) -> Self {
        self.eta = eta;
        self
    }

    /// Disables automatic merging (callers merge explicitly).
    pub fn manual_merge(mut self) -> Self {
        self.auto_merge = false;
        self
    }

    /// Sets the minimum open-generation size before auto-sealing.
    pub fn with_seal_min_points(mut self, points: usize) -> Self {
        self.seal_min_points = points.max(1);
        self
    }

    /// Checks the capacity, `η` and window settings (the checks
    /// [`Engine::new`] applies).
    pub fn validate(&self) -> Result<()> {
        if self.capacity == 0 {
            return Err(PlshError::InvalidParams("capacity must be > 0".into()));
        }
        if !(self.eta > 0.0 && self.eta <= 1.0) {
            return Err(PlshError::InvalidParams(format!(
                "eta must lie in (0, 1], got {}",
                self.eta
            )));
        }
        match self.window {
            Some(WindowSpec::Docs(0)) => {
                return Err(PlshError::InvalidParams(
                    "window must keep at least one document".into(),
                ));
            }
            Some(WindowSpec::Docs(n)) if n as usize >= self.capacity => {
                // The resident span (window + un-merged delta + batch in
                // flight) must fit the capacity, so the window itself has
                // to leave headroom for the delta.
                return Err(PlshError::InvalidParams(format!(
                    "window of {n} docs must be smaller than the capacity ({}): the resident \
                     span also holds the un-merged delta",
                    self.capacity
                )));
            }
            Some(WindowSpec::Duration(d)) if d.is_zero() => {
                return Err(PlshError::InvalidParams(
                    "window duration must be positive".into(),
                ));
            }
            _ => {}
        }
        Ok(())
    }
}

/// Deletion tombstones: one bit per point id (Section 6.2), set atomically
/// so deletes land concurrently with lock-free queries.
///
/// The bitmap is shared by reference with every epoch published *until the
/// next merge*; a merge purges tombstoned ids from the rebuilt tables and
/// publishes a fresh bitmap with those bits reclaimed, while readers still
/// pinned on the old epoch keep the old bitmap (whose bits they still need
/// to filter the old buckets).
#[derive(Debug)]
struct DeletionBitmap {
    words: Vec<AtomicU64>,
    count: AtomicUsize,
    /// Global id bit 0 covers; always the epoch's `static_base`. A merge
    /// that compacts a retired window publishes a rebased copy, so the
    /// bitmap stays sized to the live span rather than the id lifetime.
    base: u32,
}

impl DeletionBitmap {
    fn new(base: u32, capacity: usize) -> Self {
        Self {
            words: (0..capacity.div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect(),
            count: AtomicUsize::new(0),
            base,
        }
    }

    /// Sets the bit for `id` (must be `>= base`); returns `false` if it
    /// was already set.
    fn set(&self, id: u32) -> bool {
        let off = id - self.base;
        let bit = 1u64 << (off & 63);
        let prev = self.words[(off >> 6) as usize].fetch_or(bit, Ordering::Relaxed);
        if prev & bit != 0 {
            return false;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// True iff the bit for `id` is set; ids below `base` (retired and
    /// compacted away) report `false` — the watermark, not the bitmap,
    /// accounts for them.
    fn is_set(&self, id: u32) -> bool {
        if id < self.base {
            return false;
        }
        let off = id - self.base;
        self.words[(off >> 6) as usize].load(Ordering::Relaxed) & (1u64 << (off & 63)) != 0
    }

    fn count(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// Set ids in `[lo, limit)`, ascending (snapshot capture, manifest
    /// writes, live-point accounting).
    fn set_ids_in(&self, lo: u32, limit: u32) -> Vec<u32> {
        let mut ids = Vec::new();
        for (wi, word) in self.words.iter().enumerate() {
            let mut bits = word.load(Ordering::Relaxed);
            while bits != 0 {
                let id = self.base + (wi * 64) as u32 + bits.trailing_zeros();
                bits &= bits - 1;
                if id >= lo && id < limit {
                    ids.push(id);
                }
            }
        }
        ids
    }

    /// Set ids below `limit`, ascending.
    fn set_ids(&self, limit: u32) -> Vec<u32> {
        self.set_ids_in(0, limit)
    }

    /// Plain-integer snapshot of the words, covering ids
    /// `base..base + capacity` (the merge's purge decision).
    fn snapshot(&self) -> Vec<u64> {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .collect()
    }

    /// A copy of this bitmap re-anchored at `new_base` (`>= base`) with
    /// the bits of `purged` ids reclaimed. Bits below `new_base` belong to
    /// compacted rows and are dropped wholesale.
    fn rebased_without(&self, purged: &[u32], new_base: u32) -> Self {
        debug_assert!(new_base >= self.base);
        let fresh = Self::new(new_base, self.words.len() * 64);
        for (wi, word) in self.words.iter().enumerate() {
            let mut bits = word.load(Ordering::Relaxed);
            while bits != 0 {
                let id = self.base + (wi * 64) as u32 + bits.trailing_zeros();
                bits &= bits - 1;
                if id >= new_base && purged.binary_search(&id).is_err() {
                    fresh.set(id);
                }
            }
        }
        fresh
    }
}

/// One published epoch: everything a query needs, immutable once stored.
struct EngineView {
    /// Rows of global ids `static_base..static_base + num_rows`,
    /// consolidated at the last merge.
    static_data: Arc<CrsMatrix>,
    /// Static tables over those rows (minus purged ids; entries are
    /// global ids).
    statics: Option<Arc<StaticTables>>,
    /// Sealed generations, ascending and contiguous from
    /// `static_base + static rows`.
    sealed: Vec<Arc<DeltaGeneration>>,
    /// Tombstone bits over `static_base..`; swapped for a purged (and,
    /// under a window, rebased) copy at each merge.
    deleted: Arc<DeletionBitmap>,
    /// One-past-the-end global id of the sealed prefix.
    visible_len: u32,
    /// Global id of `static_data` row 0 (0 unless a window compaction has
    /// retired a prefix).
    static_base: u32,
    /// Range tombstone: every id below this watermark is retired. Always
    /// `>= static_base`; rows in `static_base..retired_below` are dead but
    /// not yet compacted away (the next merge reclaims them).
    retired_below: u32,
}

impl EngineView {
    fn empty(dim: u32, capacity: usize, base: u32) -> Self {
        Self {
            static_data: Arc::new(CrsMatrix::new(dim)),
            statics: None,
            sealed: Vec::new(),
            deleted: Arc::new(DeletionBitmap::new(base, capacity)),
            visible_len: base,
            static_base: base,
            retired_below: base,
        }
    }

    fn with_sealed(prev: &EngineView, gen: Arc<DeltaGeneration>) -> Self {
        debug_assert_eq!(gen.base(), prev.visible_len);
        let visible_len = gen.end();
        let mut sealed = prev.sealed.clone();
        sealed.push(gen);
        Self {
            static_data: prev.static_data.clone(),
            statics: prev.statics.clone(),
            sealed,
            deleted: prev.deleted.clone(),
            visible_len,
            static_base: prev.static_base,
            retired_below: prev.retired_below,
        }
    }

    /// A structurally identical epoch with the retirement watermark
    /// advanced to `watermark` (a pointer-move publish, like sealing).
    fn with_watermark(prev: &EngineView, watermark: u32) -> Self {
        Self {
            static_data: prev.static_data.clone(),
            statics: prev.statics.clone(),
            sealed: prev.sealed.clone(),
            deleted: prev.deleted.clone(),
            visible_len: prev.visible_len,
            static_base: prev.static_base,
            retired_below: watermark,
        }
    }

    /// Rows resident in the static structure.
    fn static_len(&self) -> usize {
        self.static_data.num_rows()
    }

    /// One-past-the-end global id of the static structure.
    fn static_end(&self) -> u32 {
        self.static_base + self.static_data.num_rows() as u32
    }

    fn sealed_points(&self) -> usize {
        (self.visible_len - self.static_end()) as usize
    }

    /// Retired rows a merge of this epoch would compact away (retired
    /// rows still in the open generation wait for a later merge).
    fn retire_backlog(&self) -> usize {
        self.retired_below
            .min(self.visible_len)
            .saturating_sub(self.static_base) as usize
    }

    /// Points a query against this epoch can touch (the scratch and
    /// candidate-bitvector sizing): the resident visible span.
    fn visible_span(&self) -> usize {
        (self.visible_len - self.static_base) as usize
    }
}

/// Mutable write-side state, serialized by the engine's write mutex.
struct WriteState {
    /// The generation currently accepting inserts (invisible to queries
    /// until sealed). `None` between seals.
    open: Option<DeltaGeneration>,
    /// Total ids assigned over the engine's lifetime (retired + static +
    /// sealed + open); ids are never reused.
    total: u32,
    /// Sorted global ids purged from static epochs by past merges. Their
    /// bitvector bits are reclaimed, they sit in no bucket, but their row
    /// slots remain so ids stay stable. Pruned below the window watermark
    /// at each compacting merge (retired ids need no per-id record).
    purged: Vec<u32>,
    /// The write-side copy of the retirement watermark (the epoch carries
    /// the reader-visible one).
    retired_below: u32,
    /// Batch birth times for [`WindowSpec::Duration`]: `(inserted_at,
    /// one-past-the-end id)` per batch, popped once aged out. Empty for
    /// doc-count windows.
    births: std::collections::VecDeque<(Instant, u32)>,
}

/// Timing of the most recent merge (streaming observability).
#[derive(Debug, Clone, Copy, Default)]
pub struct MergeReport {
    /// Sealed points folded into the static epoch.
    pub merged_points: usize,
    /// Tombstoned ids purged from the tables by this merge.
    pub purged_points: usize,
    /// Window-retired rows compacted away by this merge (the static
    /// structure was rebased past them, reclaiming their memory).
    pub retired_rows_reclaimed: usize,
    /// Off-to-the-side build time (queries keep running throughout).
    pub build: Duration,
    /// Publication window: the write-lock hold for the epoch swap — the
    /// only interval in which a merge can delay an insert or delete (it
    /// never delays queries, which are lock-free). Wall time: on a
    /// saturated few-core host this includes scheduler latency while the
    /// *query* threads keep the CPU.
    pub publish: Duration,
    /// Time a paced merge spent sleeping for query pressure (excluded
    /// from `build`, which counts working time only; always zero for
    /// monolithic merges).
    pub yielded: Duration,
}

/// Point and memory accounting for one engine.
#[derive(Debug, Clone, Copy)]
pub struct EngineStats {
    /// Total live + deleted points stored.
    pub total_points: usize,
    /// Points in the static structure (including purged row slots).
    pub static_points: usize,
    /// Points buffered in sealed + open delta generations.
    pub delta_points: usize,
    /// Tombstoned points (active bits plus purged ids).
    pub deleted_points: usize,
    /// Tombstoned ids already purged from the static tables.
    pub purged_points: usize,
    /// Sealed generations awaiting merge.
    pub sealed_generations: usize,
    /// Merges performed so far.
    pub merges: u64,
    /// Bytes in static tables.
    pub static_table_bytes: usize,
    /// Bytes of the packed half-key columns queries scan in place of delta
    /// tables (sealed + open generations; static sketches are dropped at
    /// merge time).
    pub delta_table_bytes: usize,
    /// Bytes of the dense hyperplane matrix.
    pub hyperplane_bytes: usize,
    /// Hardware threads the OS reports for this process (the paper's `T`).
    pub host_threads: usize,
    /// Pool workers process-wide currently pinned to a core (0 when
    /// `PLSH_PIN=off`, on single-threaded hosts, or with no pinned pools).
    pub pinned_workers: usize,
    /// Points answerable right now: inside the window, not tombstoned.
    pub live_points: usize,
    /// Points retired by the sliding window over the engine's lifetime
    /// (the watermark itself; 0 without a window).
    pub retired_points: usize,
    /// Retired points still physically resident — dead rows the next
    /// compacting merge will reclaim.
    pub retired_pending_purge: usize,
    /// Points currently resident beyond what the window spec allows —
    /// how far retirement lags the configured window (0 without a window;
    /// transiently nonzero between a batch landing and its retirement).
    pub window_lag: usize,
}

/// Snapshot of the engine's published epoch (tests, benches, monitoring).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochInfo {
    /// Generation counter of the published epoch.
    pub generation: u64,
    /// Rows in the static structure.
    pub static_points: usize,
    /// Sealed generations in the epoch.
    pub sealed_generations: usize,
    /// Points across the sealed generations.
    pub sealed_points: usize,
    /// `static_points + sealed_points` — the resident span queries
    /// against this epoch can see (window-compacted prefixes excluded).
    pub visible_points: usize,
    /// Global id of the oldest resident point (0 unless a window
    /// compaction has rebased the static structure).
    pub static_base: u32,
    /// The retirement watermark: ids below it are dead (equals
    /// `static_base` without a window).
    pub retired_below: u32,
}

/// RAII increment of the engine's in-flight query gauge — the shared
/// query-pressure signal a paced merge polls between slices.
struct PressureGuard<'a>(&'a AtomicUsize);

impl<'a> PressureGuard<'a> {
    fn enter(gauge: &'a AtomicUsize) -> Self {
        gauge.fetch_add(1, Ordering::Relaxed);
        Self(gauge)
    }
}

impl Drop for PressureGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Slice budgets of the paced merge ([`Engine::merge_delta_paced`]):
/// ~16 KB of bucket cursor work, or about one generation chunk, per
/// slice — big enough to amortize the pressure check, small enough that
/// a query arriving mid-merge waits at most one slice (tens of
/// microseconds) for the CPU.
const MERGE_STEP_BUCKETS: usize = 4096;
const MERGE_STEP_ROWS: usize = 4096;
/// How long a paced merge sleeps after a slice while queries are active.
const MERGE_YIELD_SLEEP: Duration = Duration::from_micros(200);

/// A single-node PLSH engine.
///
/// All operations take `&self`: queries pin epochs lock-free, while
/// inserts, seals, merges, and deletes serialize on an internal write
/// mutex. Wrap the engine in an `Arc` (or use
/// [`StreamingEngine`](crate::streaming::StreamingEngine)) to drive ingest
/// and queries from different threads concurrently.
pub struct Engine {
    config: EngineConfig,
    planes: Arc<Hyperplanes>,
    epoch: EpochPtr<EngineView>,
    write: Mutex<WriteState>,
    /// Serializes merges (and `clear`) without blocking the write path for
    /// the duration of a merge build.
    merge_lock: Mutex<()>,
    /// Mirror of `WriteState::total` for lock-free `len()`.
    total: AtomicUsize,
    /// Queries currently executing — the shared query-pressure signal a
    /// paced merge reads between slices to decide whether to back off.
    active_queries: AtomicUsize,
    merges: AtomicU64,
    last_merge: Mutex<MergeReport>,
    scratches: ScratchPool,
    /// Incremental durability, when attached (see [`crate::persist`]).
    /// Hooks are called under the write mutex, so WAL order is id order.
    persister: RwLock<Option<Arc<crate::persist::EnginePersister>>>,
    /// Sticky read-only flag: set when a persistence operation keeps
    /// failing through its retry budget. Queries are unaffected; writes
    /// return [`PlshError::Degraded`] until [`Engine::heal`] succeeds.
    degraded: AtomicBool,
    degraded_reason: Mutex<Option<String>>,
}

impl Engine {
    /// Creates an empty engine; its hyperplanes are generated here, on
    /// `pool`.
    pub fn new(config: EngineConfig, pool: &ThreadPool) -> Result<Self> {
        config.validate()?;
        let planes = Hyperplanes::for_params(&config.params, pool);
        Self::with_planes(config, Arc::new(planes))
    }

    /// Creates an empty engine over hyperplanes generated elsewhere: the
    /// shards of a sharded index share one matrix. Planes whose
    /// dimensionality, hash count or seed differ from `config`'s
    /// parameters are refused with [`PlshError::InvalidParams`].
    pub fn with_planes(config: EngineConfig, planes: Arc<Hyperplanes>) -> Result<Self> {
        config.validate()?;
        let p = &config.params;
        let want = (p.dim(), p.num_hashes(), p.seed());
        let got = (planes.dim(), planes.n_hashes(), planes.seed());
        if got != want {
            return Err(PlshError::InvalidParams(format!(
                "hyperplanes (dim, hashes, seed) = {got:?} do not match the parameters' {want:?}"
            )));
        }
        let scratches = ScratchPool::new(p.m(), p.half_bits(), p.dim());
        Ok(Self {
            epoch: EpochPtr::new(Arc::new(EngineView::empty(p.dim(), config.capacity, 0))),
            write: Mutex::new(WriteState {
                open: None,
                total: 0,
                purged: Vec::new(),
                retired_below: 0,
                births: std::collections::VecDeque::new(),
            }),
            merge_lock: Mutex::new(()),
            total: AtomicUsize::new(0),
            active_queries: AtomicUsize::new(0),
            merges: AtomicU64::new(0),
            last_merge: Mutex::new(MergeReport::default()),
            scratches,
            planes,
            config,
            persister: RwLock::new(None),
            degraded: AtomicBool::new(false),
            degraded_reason: Mutex::new(None),
        })
    }

    /// The engine's parameters.
    pub fn params(&self) -> &PlshParams {
        &self.config.params
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The engine's hyperplanes (shared with the other shards of a
    /// sharded index).
    pub fn planes(&self) -> &Arc<Hyperplanes> {
        &self.planes
    }

    /// Total stored points (live + deleted, sealed + open).
    pub fn len(&self) -> usize {
        self.total.load(Ordering::Acquire)
    }

    /// True when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Points currently in the static structure.
    pub fn static_len(&self) -> usize {
        self.epoch.snapshot().static_len()
    }

    /// Points currently buffered in delta generations (sealed + open).
    pub fn delta_len(&self) -> usize {
        // Saturating: between the two loads a concurrent merge may publish
        // a static epoch that already covers points this `len()` read
        // predates.
        self.len()
            .saturating_sub(self.epoch.snapshot().static_end() as usize)
    }

    /// Points visible to queries right now (static + sealed; excludes an
    /// unsealed open generation). This is a **global id bound** — ids
    /// `0..visible_len` have been published — not a resident count: under
    /// a sliding window the compacted prefix no longer occupies memory.
    pub fn visible_len(&self) -> usize {
        self.epoch.snapshot().visible_len as usize
    }

    /// The retirement watermark: every id below it is retired (0 without
    /// a window and before any [`retire_to`](Self::retire_to)).
    pub fn retired_below(&self) -> u32 {
        self.epoch.snapshot().retired_below
    }

    /// The published epoch's shape; its invariant
    /// `visible = static + sealed` holds for *every* pin a reader can ever
    /// take — that is the "no half-merged epoch" guarantee.
    pub fn epoch_info(&self) -> EpochInfo {
        let (view, generation) = self.epoch.load();
        EpochInfo {
            generation,
            static_points: view.static_len(),
            sealed_generations: view.sealed.len(),
            sealed_points: view.sealed_points(),
            visible_points: view.visible_span(),
            static_base: view.static_base,
            retired_below: view.retired_below,
        }
    }

    /// Node capacity `C` — a bound on the *resident span* (window + delta
    /// + open generation), not on lifetime ids.
    pub fn capacity(&self) -> usize {
        self.config.capacity
    }

    /// Remaining insert headroom (resident span left under the capacity).
    pub fn remaining_capacity(&self) -> usize {
        // Saturating on both subtractions: a concurrent merge can advance
        // the base between the two loads.
        let resident = self
            .len()
            .saturating_sub(self.epoch.snapshot().static_base as usize);
        self.config.capacity.saturating_sub(resident)
    }

    /// The stored vector for point `id`, or `None` when the id is out of
    /// range, below the retirement watermark, or was purged from the
    /// tables by a past merge (purged row slots persist so ids stay
    /// stable, but their contents are no longer part of the index). A
    /// tombstoned-but-unpurged id still returns its row — the data is
    /// retained until the next merge.
    pub fn vector(&self, id: u32) -> Option<SparseVector> {
        let view = self.epoch.snapshot();
        if id < view.retired_below {
            return None;
        }
        if id < view.static_end() {
            // Static ids are the only ones a merge can have purged.
            if self
                .write
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .purged
                .binary_search(&id)
                .is_ok()
            {
                return None;
            }
            return Some(view.static_data.row_vector(id - view.static_base));
        }
        if let Some(v) = Self::view_vector(&view, id) {
            return Some(v);
        }
        // Not in that snapshot: the id is in the open generation, or a
        // concurrent insert sealed it after our pin. Re-check under the
        // write lock, where the epoch cannot advance.
        let w = self.write.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(open) = w.open.as_ref() {
            if id >= open.base() && id < open.end() {
                return Some(open.data().row_vector(id - open.base()));
            }
        }
        let view = self.epoch.snapshot();
        Self::view_vector(&view, id)
    }

    fn view_vector(view: &EngineView, id: u32) -> Option<SparseVector> {
        if id < view.static_base {
            return None;
        }
        if id < view.static_end() {
            return Some(view.static_data.row_vector(id - view.static_base));
        }
        view.sealed
            .iter()
            .find(|g| id >= g.base() && id < g.end())
            .map(|g| g.data().row_vector(id - g.base()))
    }

    /// Inserts one vector; returns its node-local id.
    pub fn insert(&self, v: SparseVector, pool: &ThreadPool) -> Result<u32> {
        Ok(self.insert_batch(std::slice::from_ref(&v), pool)?[0])
    }

    /// Inserts a batch of vectors (paper: streaming arrives in ~100 K-point
    /// chunks, Section 6.2); returns their ids.
    ///
    /// The batch is hashed once into the open generation under the write
    /// mutex, then (by default) sealed — one epoch swap making it visible
    /// to queries. The batch is all-or-nothing with respect to capacity
    /// (a windowed engine short of room merges first, see
    /// [`admit`](Self::admit)); dimension errors abort before any vector
    /// of the batch is applied.
    /// When the sealed delta reaches `η·C` and auto-merge is on, the merge
    /// runs inline on this thread; use
    /// [`StreamingEngine`](crate::streaming::StreamingEngine) to run it in
    /// the background instead.
    pub fn insert_batch(&self, vs: &[SparseVector], pool: &ThreadPool) -> Result<Vec<u32>> {
        let (ids, merge_due) = self.insert_batch_deferring_merge(vs, pool)?;
        if merge_due {
            self.merge_delta(pool);
        }
        Ok(ids)
    }

    /// The admission rule every insert passes: a batch of `n` points is
    /// refused while the engine is degraded, or when the resident span
    /// plus `n` would exceed the capacity. Capacity bounds the *resident
    /// span* (compacted prefixes cost nothing); without a window the base
    /// stays 0 and this is the classic total-vs-capacity check.
    ///
    /// A window's retired prefix is already dead, so when a merge would
    /// compact it the caller helps instead of being refused: it waits out
    /// the merge in flight and, if room is still short, runs one merge
    /// itself on `pool`, then checks once more. A windowless engine, or
    /// one with no retire backlog, refuses at once. The answer holds for
    /// as long as the caller keeps other inserts out — a concurrent merge
    /// only moves the base forward, freeing room. Never call it holding
    /// the write mutex: a merge publishes under it.
    pub fn admit(&self, n: usize, pool: &ThreadPool) -> Result<()> {
        let refused = self.check_room(n);
        let backlog = || self.epoch.snapshot().retire_backlog() > 0;
        if !matches!(refused, Err(PlshError::CapacityExceeded { .. })) || !backlog() {
            return refused;
        }
        // Wait out the merge in flight: it may free the room already.
        drop(self.merge_lock.lock().unwrap_or_else(|e| e.into_inner()));
        if self.check_room(n).is_err() && backlog() {
            self.merge_delta(pool);
        }
        self.check_room(n)
    }

    /// [`admit`](Self::admit)'s check alone, without helping.
    fn check_room(&self, n: usize) -> Result<()> {
        if self.is_degraded() {
            return Err(self.degraded_error());
        }
        if n > self.remaining_capacity() {
            return Err(PlshError::CapacityExceeded {
                capacity: self.config.capacity,
            });
        }
        Ok(())
    }

    /// The write path proper: insert + seal, returning whether the sealed
    /// delta crossed the auto-merge threshold (the caller decides whether
    /// to merge inline or in the background).
    pub(crate) fn insert_batch_deferring_merge(
        &self,
        vs: &[SparseVector],
        pool: &ThreadPool,
    ) -> Result<(Vec<u32>, bool)> {
        for v in vs {
            if let Some(max) = v.max_index() {
                if max >= self.config.params.dim() {
                    return Err(PlshError::DimensionOutOfRange {
                        index: max,
                        dim: self.config.params.dim(),
                    });
                }
            }
        }
        let mut w = self.write.lock().unwrap_or_else(|e| e.into_inner());
        if self.check_room(vs.len()).is_err() {
            drop(w);
            self.admit(vs.len(), pool)?;
            w = self.write.lock().unwrap_or_else(|e| e.into_inner());
            self.check_room(vs.len())?;
        }
        let from = w.total;
        if !vs.is_empty() {
            // Write-ahead: the batch reaches the WAL (and is fsynced)
            // before it is applied in memory. A persistent WAL failure
            // rejects the batch *before* any memory mutation, so the
            // in-memory prefix stays exactly the durable prefix.
            if let Some(p) = self.persister() {
                if let Err(e) = p.log_insert(from, vs) {
                    self.degrade("WAL append", &e);
                    return Err(self.degraded_error());
                }
            }
            let p = &self.config.params;
            if w.open.is_none() {
                w.open = Some(DeltaGeneration::new(from, p.dim(), p.m(), p.half_bits()));
            }
            let open = w.open.as_mut().expect("installed above");
            open.append(vs, &self.planes, pool)
                .expect("dimensions validated above");
            let seal_due = open.len() >= self.config.seal_min_points;
            w.total += vs.len() as u32;
            self.total.store(w.total as usize, Ordering::Release);
            if seal_due {
                self.seal_locked(&mut w);
            }
        }
        let ids: Vec<u32> = (from..from + vs.len() as u32).collect();
        // Advance the window watermark over whatever the batch aged out.
        // Retirement is a pointer-move epoch publish; the rows themselves
        // wait for the next merge. A doc-count window's watermark is a
        // function of the row count, which recovery replays through this
        // same path, so it writes no log record; a duration window's
        // follows the clock and is journaled (one fsynced record).
        if let Some(spec) = self.config.window {
            let (target, journal) = match spec {
                WindowSpec::Docs(n) => (w.total.saturating_sub(n), false),
                WindowSpec::Duration(d) => {
                    let now = Instant::now();
                    if !vs.is_empty() {
                        let end = w.total;
                        w.births.push_back((now, end));
                    }
                    let mut target = w.retired_below;
                    while let Some(&(at, end)) = w.births.front() {
                        if now.duration_since(at) < d {
                            break;
                        }
                        target = target.max(end);
                        w.births.pop_front();
                    }
                    (target, true)
                }
            };
            if target > w.retired_below {
                // The batch itself already landed (and is durable); a
                // failing retirement degrades the engine like a failing
                // delete would, surfaced on the *next* write.
                let _ = self.retire_locked(&mut w, target, journal);
            }
        }
        let view = self.epoch.snapshot();
        let sealed_points = (w.total - w.open.as_ref().map_or(0, DeltaGeneration::len) as u32)
            .saturating_sub(view.static_end()) as usize;
        // A merge is due when the un-merged delta crosses η·C — or, under
        // a window, when enough retired rows await compaction that a merge
        // would reclaim η·C worth of memory. Both ride the same background
        // merge, so the resident span stays ≈ window + η·C + batch.
        let retire_backlog = view.retire_backlog();
        let threshold = self.config.eta * self.config.capacity as f64;
        let merge_due = self.config.auto_merge
            && (sealed_points as f64 >= threshold || retire_backlog as f64 >= threshold);
        drop(w);
        Ok((ids, merge_due))
    }

    /// Seals the open generation: wraps it in an `Arc` and publishes a new
    /// epoch whose sealed list includes it (a pointer move — the points
    /// themselves are not touched). Returns `false` when there was nothing
    /// to seal. Only needed explicitly when
    /// [`seal_min_points`](EngineConfig::seal_min_points) is raised above 1.
    pub fn seal(&self) -> bool {
        let mut w = self.write.lock().unwrap_or_else(|e| e.into_inner());
        self.seal_locked(&mut w)
    }

    fn seal_locked(&self, w: &mut MutexGuard<'_, WriteState>) -> bool {
        let Some(open) = w.open.take() else {
            return false;
        };
        if open.is_empty() {
            return false;
        }
        // Every row is already durable: each batch reached the WAL, fsynced,
        // before it was applied. Sealing only closes that WAL — it stays on
        // disk as the generation's durable form — so the seal does no I/O
        // and cannot fail.
        if let Some(p) = self.persister() {
            p.on_seal(open.base());
        }
        let gen = Arc::new(open);
        self.epoch
            .rcu(|prev| Arc::new(EngineView::with_sealed(prev, gen.clone())));
        true
    }

    /// Inserts everything from an iterator.
    pub fn extend<I>(&self, vs: I, pool: &ThreadPool) -> Result<Vec<u32>>
    where
        I: IntoIterator<Item = SparseVector>,
    {
        let vs: Vec<SparseVector> = vs.into_iter().collect();
        self.insert_batch(&vs, pool)
    }

    /// Merges every sealed generation into the next static epoch.
    ///
    /// Safe to call from any thread, concurrently with inserts, deletes,
    /// and queries: the new corpus and tables are built *off to the side*
    /// from the pinned epoch (readers keep querying the current one), and
    /// published with a single swap. Tombstoned ids are purged during the
    /// rebuild — dropped from every bucket, their bitvector bits
    /// reclaimed — and generations sealed while the merge was building
    /// simply remain sealed in the new epoch.
    pub fn merge_delta(&self, pool: &ThreadPool) {
        self.merge_delta_inner(Some(pool));
    }

    /// The cooperative variant of [`merge_delta`](Self::merge_delta), run
    /// by the background merge: the table build runs on this thread as
    /// bounded [`crate::table::MergeStepper`] slices of
    /// [`MERGE_STEP_BUCKETS`] buckets or [`MERGE_STEP_ROWS`] rows,
    /// sleeping [`MERGE_YIELD_SLEEP`] after a slice while queries are in
    /// flight (the engine's query-pressure gauge), so a background merge
    /// yields the machine to the read path instead of racing it. Output
    /// and publish semantics are identical to the monolithic merge — the
    /// same state machine runs both, just with different slice budgets.
    pub(crate) fn merge_delta_paced(&self) {
        self.merge_delta_inner(None);
    }

    /// One merge: monolithic on `pool`, or paced on this thread when
    /// `pool` is `None`.
    fn merge_delta_inner(&self, pool: Option<&ThreadPool>) {
        let _m = self.merge_lock.lock().unwrap_or_else(|e| e.into_inner());
        if self.is_degraded() {
            return; // read-only: merging would commit nothing durably
        }
        let t0 = Instant::now();
        let p = &self.config.params;

        // Pin the epoch to merge. Seals may append while we build; those
        // generations are carried over untouched at publish time.
        let v0 = self.epoch.snapshot();
        let gens = v0.sealed.clone();
        let merge_end = v0.visible_len;
        let old_base = v0.static_base;
        // Window compaction target: everything below the new base leaves
        // the static structure wholesale — rows, bucket entries, bitmap
        // bits — in the same pass that purges per-id tombstones. Clamped
        // to the merge's coverage; a watermark beyond it (retired rows
        // still in the open generation) is caught by a later merge.
        let new_base = v0.retired_below.clamp(old_base, merge_end);

        // Purge decision: one bitvector snapshot, applied identically to
        // all L tables. Only surviving ids in `[new_base, merge_end)`
        // participate (retired ids are dropped by the watermark, later
        // ids are not part of this merge).
        let tombstones = v0.deleted.snapshot();
        let mut purged_now: Vec<u32> = Vec::new();
        for (wi, &word) in tombstones.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let id = old_base + (wi * 64) as u32 + bits.trailing_zeros();
                bits &= bits - 1;
                if id >= new_base && id < merge_end {
                    purged_now.push(id);
                }
            }
        }
        if gens.is_empty() && purged_now.is_empty() && new_base == old_base {
            return; // nothing to fold, purge, or compact: the epoch stands
        }

        // Build the next epoch off to the side: the static suffix
        // surviving the window, then every sealed row at or beyond the
        // new base (a straddled generation contributes its suffix).
        let parts: Vec<(&CrsMatrix, usize)> =
            std::iter::once((&*v0.static_data, (new_base - old_base) as usize))
                .chain(
                    gens.iter()
                        .map(|g| (g.data(), new_base.saturating_sub(g.base()) as usize)),
                )
                .collect();
        let static_data = CrsMatrix::from_suffixes(p.dim(), &parts);
        let mut yielded = Duration::ZERO;
        let statics = match pool {
            Some(pool) => StaticTables::merge_generations(
                v0.statics.as_deref(),
                p.m(),
                p.half_bits(),
                static_data.num_rows(),
                &gens,
                &tombstones,
                old_base,
                new_base,
                pool,
            ),
            None => {
                let mut stepper = crate::table::MergeStepper::new(
                    v0.statics.as_deref(),
                    p.m(),
                    p.half_bits(),
                    static_data.num_rows(),
                    &gens,
                    &tombstones,
                    old_base,
                    new_base,
                );
                while stepper.step(MERGE_STEP_BUCKETS, MERGE_STEP_ROWS) {
                    if self.active_queries.load(Ordering::Relaxed) > 0 {
                        let s0 = Instant::now();
                        std::thread::sleep(MERGE_YIELD_SLEEP);
                        yielded += s0.elapsed();
                    }
                }
                stepper.finish()
            }
        };
        // Build time is working time: pacing sleeps are reported
        // separately so merge cost stays comparable across both paths.
        let build = t0.elapsed().saturating_sub(yielded);
        // `persist_to` holds the merge lock, so the persister cannot
        // attach or detach while this merge runs.
        let persister = self.persister();
        if let Some(Err(e)) = persister.as_ref().map(|p| p.sync_generations()) {
            // Nothing published yet: abort the merge with memory and disk
            // both at the pre-merge state.
            self.degrade("data directory fsync", &e);
            return;
        }

        // Publish: one swap under the write lock. Everything sealed after
        // our pin survives verbatim; the purged ids' bits are reclaimed in
        // a fresh bitmap (readers pinned on the old epoch keep the old
        // bitmap, whose bits they still need for the old buckets). The
        // publish timer starts after lock acquisition: waiting behind an
        // in-flight insert is that insert's cost, not the merge's pause.
        let mut w = self.write.lock().unwrap_or_else(|e| e.into_inner());
        let t1 = Instant::now();
        let current = self.epoch.snapshot();
        debug_assert!(current
            .sealed
            .iter()
            .zip(&gens)
            .all(|(a, b)| Arc::ptr_eq(a, b)));
        let remaining = current.sealed[gens.len()..].to_vec();
        // The rebased bitmap drops the compacted prefix's bits wholesale
        // and reclaims the purged ids' bits; bits set after our snapshot
        // (concurrent deletes) survive because we rebase the *live* bitmap
        // under the write lock.
        let deleted = Arc::new(current.deleted.rebased_without(&purged_now, new_base));
        let static_data = Arc::new(static_data);
        let mut purged = w.purged.clone();
        purged.extend_from_slice(&purged_now);
        purged.sort_unstable();
        // Retired ids need no per-id record: the watermark accounts for
        // everything below the new base.
        purged.retain(|&id| id >= new_base);
        let mut superseded = Vec::new();
        if let Some(p) = &persister {
            // Commit the merge durably *before* it becomes visible: the
            // manifest swap is the atomic commit point (with every pending
            // tombstone snapshotted). It names the folded generations'
            // files as static rows, so the merge writes no segment. A
            // persistent failure aborts the merge — no epoch swap, no
            // bookkeeping mutation — so memory and disk both still hold
            // the pre-merge state.
            match p.publish_static(
                new_base,
                static_data.num_rows() as u32,
                gens.iter().map(|g| g.base()),
                &purged,
                deleted.set_ids(w.total),
                w.retired_below,
            ) {
                Ok(files) => superseded = files,
                Err(e) => {
                    self.degrade("manifest swap", &e);
                    return;
                }
            }
        }
        let view = EngineView {
            visible_len: current.visible_len,
            static_data: static_data.clone(),
            statics: Some(Arc::new(statics)),
            sealed: remaining,
            deleted: deleted.clone(),
            static_base: new_base,
            retired_below: current.retired_below,
        };
        w.purged = purged;
        self.epoch.store(Arc::new(view));
        drop(w);
        let publish = t1.elapsed();
        if let Some(p) = persister {
            // Off the write lock: inserts and deletes journal on while the
            // superseded files go and a due checkpoint encodes the static
            // rows. The merge is already committed, so a failure loses
            // nothing; it degrades like any persistent I/O failure.
            if let Err(e) = p.after_publish(superseded, &static_data) {
                self.degrade("checkpoint", &e);
            }
        }

        self.merges.fetch_add(1, Ordering::Relaxed);
        *self.last_merge.lock().unwrap_or_else(|e| e.into_inner()) = MergeReport {
            merged_points: (merge_end - v0.static_end()) as usize,
            purged_points: purged_now.len(),
            retired_rows_reclaimed: (new_base - old_base) as usize,
            build,
            publish,
            yielded,
        };
    }

    /// Timing and purge counts of the most recent merge.
    pub fn last_merge(&self) -> MergeReport {
        *self.last_merge.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Advances the retirement watermark: every id below `watermark`
    /// (clamped to the assigned id range) becomes dead, as one range
    /// tombstone instead of per-id bits. Returns `true` when the
    /// watermark moved. Monotonic — a lower watermark is a no-op.
    ///
    /// Engines with a [`WindowSpec`] advance the watermark automatically
    /// on insert; this entry point serves manual retirement and the
    /// sharded cluster's cross-shard window cut. The watermark is logged
    /// (fsynced) before it takes effect, like a delete; the dead rows are
    /// physically reclaimed by the next merge, which rebases the static
    /// structure at the watermark.
    pub fn retire_to(&self, watermark: u32) -> Result<bool> {
        let mut w = self.write.lock().unwrap_or_else(|e| e.into_inner());
        if self.is_degraded() {
            return Err(self.degraded_error());
        }
        let target = watermark.min(w.total);
        self.retire_locked(&mut w, target, true)
    }

    /// Moves the watermark to `target`, logging it first when `journal`
    /// is set (a watermark recovery cannot recompute from the rows).
    fn retire_locked(
        &self,
        w: &mut MutexGuard<'_, WriteState>,
        target: u32,
        journal: bool,
    ) -> Result<bool> {
        debug_assert!(target <= w.total);
        if target <= w.retired_below {
            return Ok(false);
        }
        if let Some(p) = self.persister().filter(|_| journal) {
            if let Err(e) = p.log_retire(target) {
                self.degrade("retire watermark append", &e);
                return Err(self.degraded_error());
            }
        }
        w.retired_below = target;
        self.epoch
            .rcu(|prev| Arc::new(EngineView::with_watermark(prev, target)));
        Ok(true)
    }

    /// Tombstones a point; returns `false` if it was already deleted or out
    /// of range. Takes effect immediately on all future queries; the point
    /// is physically purged from the tables at the next merge.
    ///
    /// Infallible convenience over [`try_delete`](Self::try_delete): a
    /// degraded engine reports `false` (nothing was deleted).
    pub fn delete(&self, id: u32) -> bool {
        self.try_delete(id).unwrap_or(false)
    }

    /// Tombstones a point, surfacing degraded-mode rejection as
    /// [`PlshError::Degraded`] instead of a silent `false`. The tombstone
    /// reaches the delete log (fsynced) before the bit is set, so a
    /// persistent log failure rejects the delete with no memory change.
    pub fn try_delete(&self, id: u32) -> Result<bool> {
        let w = self.write.lock().unwrap_or_else(|e| e.into_inner());
        if self.is_degraded() {
            return Err(self.degraded_error());
        }
        if (id as usize) >= w.total as usize {
            return Ok(false);
        }
        if id < w.retired_below {
            return Ok(false); // already dead under the range tombstone
        }
        if w.purged.binary_search(&id).is_ok() {
            return Ok(false);
        }
        let view = self.epoch.snapshot();
        if view.deleted.is_set(id) {
            return Ok(false);
        }
        if let Some(p) = self.persister() {
            if let Err(e) = p.log_delete(id) {
                self.degrade("tombstone append", &e);
                return Err(self.degraded_error());
            }
        }
        let newly = view.deleted.set(id);
        drop(w);
        Ok(newly)
    }

    /// True iff `id` is dead: tombstoned (pending or already purged) or
    /// retired by the sliding window.
    pub fn is_deleted(&self, id: u32) -> bool {
        let w = self.write.lock().unwrap_or_else(|e| e.into_inner());
        if (id as usize) >= w.total as usize {
            return false;
        }
        id < w.retired_below
            || w.purged.binary_search(&id).is_ok()
            || self.epoch.snapshot().deleted.is_set(id)
    }

    /// Ids purged from the static tables by past merges (still tombstoned;
    /// their row slots remain so ids stay stable). Sorted ascending.
    pub fn purged_ids(&self) -> Vec<u32> {
        self.write
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .purged
            .clone()
    }

    /// Runs `f` on one consistent [`Baseline`](crate::persist::Baseline)
    /// of the engine — one write-lock hold, one epoch pin, so a concurrent
    /// ingest or merge cannot publish mid-capture. The persistence
    /// baseline, the heal resync and [`Snapshot::capture`](crate::Snapshot)
    /// all read it.
    pub(crate) fn with_baseline<T>(&self, f: impl FnOnce(&crate::persist::Baseline<'_>) -> T) -> T {
        let w = self.write.lock().unwrap_or_else(|e| e.into_inner());
        let view = self.epoch.snapshot();
        f(&crate::persist::Baseline {
            params: &self.config.params,
            capacity: self.config.capacity as u64,
            eta: self.config.eta,
            seal_min_points: self.config.seal_min_points as u64,
            window: self.config.window,
            static_base: view.static_base,
            retired_below: w.retired_below,
            static_data: &view.static_data,
            static_len: view.static_len(),
            sealed: &view.sealed,
            open: w.open.as_ref(),
            purged: &w.purged,
            // Set bits are exactly the pending (unpurged) tombstones:
            // merges reclaim the bits of everything they purge or compact.
            pending: view.deleted.set_ids(w.total),
        })
    }

    /// Fast-forwards an **empty** engine's id space to `base`: the next
    /// insert receives id `base`, and everything below it is considered
    /// retired-and-compacted. Recovery of a window-compacted directory
    /// lands here so recovered ids line up with the ids on disk.
    pub(crate) fn fast_forward_empty(&self, base: u32) {
        let _m = self.merge_lock.lock().unwrap_or_else(|e| e.into_inner());
        let mut w = self.write.lock().unwrap_or_else(|e| e.into_inner());
        assert!(
            w.total == 0 && w.open.is_none(),
            "fast-forward of a non-empty engine"
        );
        if base == 0 {
            return;
        }
        w.total = base;
        w.retired_below = base;
        self.total.store(base as usize, Ordering::Release);
        self.epoch.store(Arc::new(EngineView::empty(
            self.config.params.dim(),
            self.config.capacity,
            base,
        )));
    }

    /// Retires the node's entire contents (Section 6: the rolling window
    /// erases the oldest `M` nodes wholesale).
    pub fn clear(&self) {
        let _m = self.merge_lock.lock().unwrap_or_else(|e| e.into_inner());
        let mut w = self.write.lock().unwrap_or_else(|e| e.into_inner());
        w.open = None;
        w.total = 0;
        w.purged.clear();
        w.retired_below = 0;
        w.births.clear();
        self.total.store(0, Ordering::Release);
        self.epoch.store(Arc::new(EngineView::empty(
            self.config.params.dim(),
            self.config.capacity,
            0,
        )));
        if !self.is_degraded() {
            if let Some(p) = self.persister() {
                if let Err(e) = p.on_clear() {
                    self.degrade("clear commit", &e);
                }
            }
        }
    }

    /// The attached persister, if durability is on.
    pub(crate) fn persister(&self) -> Option<Arc<crate::persist::EnginePersister>> {
        self.persister
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    pub(crate) fn set_persister(&self, p: crate::persist::EnginePersister) {
        *self.persister.write().unwrap_or_else(|e| e.into_inner()) = Some(Arc::new(p));
    }

    /// Baseline capture + attach for [`crate::persist`]: one hold of the
    /// merge and write locks, so the baseline is mutually consistent and
    /// no insert or merge can land between capture and attachment.
    pub(crate) fn attach_persister(&self, dir: &std::path::Path) -> Result<()> {
        let _m = self.merge_lock.lock().unwrap_or_else(|e| e.into_inner());
        self.with_baseline(|b| {
            self.set_persister(crate::persist::EnginePersister::create(dir, b)?);
            Ok(())
        })
    }

    /// True while the engine is in degraded read-only mode: a persistence
    /// operation kept failing through its retry budget, so writes are
    /// rejected with [`PlshError::Degraded`] while queries keep answering
    /// off the pinned epoch. [`heal`](Self::heal) exits the mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Why the engine degraded, when it did.
    pub fn degraded_reason(&self) -> Option<String> {
        self.degraded_reason
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    fn degrade(&self, ctx: &str, e: &std::io::Error) {
        let mut r = self
            .degraded_reason
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        if r.is_none() {
            *r = Some(format!("{ctx}: {e}"));
        }
        drop(r);
        self.degraded.store(true, Ordering::Release);
    }

    fn degraded_error(&self) -> PlshError {
        PlshError::Degraded(
            self.degraded_reason()
                .unwrap_or_else(|| "persistent I/O failure".to_string()),
        )
    }

    /// Attempts to leave degraded read-only mode. With a persister
    /// attached, the directory is rebuilt from a fresh baseline of the
    /// current in-memory contents (a new `data-<reset>` lifetime plus a
    /// manifest swap); memory is the source of truth, so nothing written
    /// while degraded is lost. Returns `true` when the engine is writable
    /// again — `false` means the underlying I/O is still failing and the
    /// call can simply be retried. Idempotent and safe to call anytime.
    pub fn heal(&self) -> bool {
        if !self.is_degraded() {
            return true;
        }
        let Some(p) = self.persister() else {
            self.clear_degraded();
            return true;
        };
        let _m = self.merge_lock.lock().unwrap_or_else(|e| e.into_inner());
        if self.with_baseline(|b| p.resync(b)).is_err() {
            return false;
        }
        self.clear_degraded();
        true
    }

    fn clear_degraded(&self) {
        *self
            .degraded_reason
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = None;
        self.degraded.store(false, Ordering::Release);
    }

    /// A point-in-time health snapshot: the degraded flag and reason, how
    /// many open-generation rows are durable only in the WAL (`wal_lag`),
    /// and how many transient I/O errors the persister absorbed. Wrappers
    /// ([`StreamingEngine`](crate::streaming::StreamingEngine), the
    /// cluster) extend this with their worker liveness.
    pub fn health(&self) -> HealthReport {
        let w = self.write.lock().unwrap_or_else(|e| e.into_inner());
        let view = self.epoch.snapshot();
        let wal_lag_rows = w.open.as_ref().map_or(0, DeltaGeneration::len);
        let (live_points, retired_pending_purge, window_lag) = self.window_accounting(&w, &view);
        drop(w);
        HealthReport {
            degraded: self.is_degraded(),
            degraded_reason: self.degraded_reason(),
            wal_lag_rows,
            persist_retries: self.persister().map_or(0, |p| p.io_retries()),
            merge_backlog: view.sealed.len(),
            live_points,
            retired_pending_purge,
            window_lag,
            ..HealthReport::default()
        }
    }

    /// Window accounting under the write lock: `(live_points,
    /// retired_pending_purge, window_lag)`.
    fn window_accounting(&self, w: &WriteState, view: &EngineView) -> (usize, usize, usize) {
        let tombstoned = view.deleted.set_ids_in(w.retired_below, w.total).len();
        let purged_live = w.purged.len() - w.purged.partition_point(|&id| id < w.retired_below);
        let live = (w.total - w.retired_below) as usize - tombstoned - purged_live;
        let pending_purge = w.retired_below.saturating_sub(view.static_base) as usize;
        let lag = match self.config.window {
            None => 0,
            Some(WindowSpec::Docs(n)) => ((w.total - w.retired_below).saturating_sub(n)) as usize,
            Some(WindowSpec::Duration(d)) => {
                let now = Instant::now();
                w.births
                    .iter()
                    .filter(|(at, _)| now.duration_since(*at) >= d)
                    .map(|&(_, end)| end)
                    .max()
                    .map_or(0, |end| end.saturating_sub(w.retired_below) as usize)
            }
        };
        (live, pending_purge, lag)
    }

    fn view_ctx<'a>(&'a self, view: &'a EngineView) -> QueryContext<'a> {
        QueryContext {
            static_data: &view.static_data,
            planes: &self.planes,
            static_tables: view.statics.as_deref(),
            deltas: &view.sealed,
            deleted: if view.deleted.count() == 0 {
                None
            } else {
                Some(&view.deleted.words)
            },
            m: self.config.params.m(),
            half_bits: self.config.params.half_bits(),
            radius: self.config.params.radius() as f32,
            base: view.static_base,
            retired_below: view.retired_below,
            max_candidates: usize::MAX,
            top_k: None,
        }
    }

    /// Answers one [`SearchRequest`] — radius or k-NN, one query or a
    /// batch, with an optional per-request radius override, candidate
    /// budget, counters, and phase profiling. This is the typed
    /// entry point every other query convenience delegates to; the whole
    /// request runs against one pinned epoch
    /// ([`SearchResponse::epoch`]).
    ///
    /// `pool` drives batch fan-out (single-query and profiled requests
    /// never touch it).
    pub fn search(&self, req: &SearchRequest, pool: &ThreadPool) -> Result<SearchResponse> {
        req.validate(self.config.params.dim())?;
        let _pressure = PressureGuard::enter(&self.active_queries);
        let (view, generation) = self.epoch.load();
        let epoch = EpochInfo {
            generation,
            static_points: view.static_len(),
            sealed_generations: view.sealed.len(),
            sealed_points: view.sealed_points(),
            visible_points: view.visible_span(),
            static_base: view.static_base,
            retired_below: view.retired_below,
        };
        let mut ctx = self.view_ctx(&view);
        if let Some(r) = req.radius_override() {
            ctx.radius = r;
        }
        // k-NN ranks everything the tables surface — radius π admits
        // every candidate and Q4 keeps the k closest — unless the request
        // set an explicit radius, which then acts as a distance cap ("the
        // k nearest within R").
        if let SearchMode::Knn(k) = req.mode() {
            ctx.radius = req.radius_override().unwrap_or(std::f32::consts::PI);
            ctx.top_k = Some(k);
        }
        if let Some(budget) = req.max_candidates() {
            ctx.max_candidates = budget;
        }

        let mut timings = req.profiles().then(QueryPhaseTimings::default);
        let exec = Exec::Pool(pool, &self.scratches);
        let (answers, stats) = query::run_batch(&ctx, req.queries(), exec, timings.as_mut());

        let results: Vec<Vec<SearchHit>> = answers
            .into_iter()
            .map(|hits| hits.into_iter().map(SearchHit::from).collect())
            .collect();
        Ok(SearchResponse {
            results,
            stats: req.collects_stats().then_some(stats),
            phase_timings: timings,
            epoch: Some(epoch),
            timed_out_shards: Vec::new(),
        })
    }

    /// Answers one radius query against the currently published epoch — a
    /// thin convenience over [`search`](Self::search) that skips request
    /// assembly on the hot single-query path.
    pub fn query(&self, q: &SparseVector) -> Vec<Neighbor> {
        let _pressure = PressureGuard::enter(&self.active_queries);
        let view = self.epoch.snapshot();
        let mut scratch = self.scratches.take(view.visible_span());
        let qs = std::slice::from_ref(q);
        let exec = Exec::Inline(&mut scratch);
        let (mut answers, _) = query::run_batch(&self.view_ctx(&view), qs, exec, None);
        self.scratches.put(scratch);
        answers.pop().unwrap_or_default()
    }

    /// Answers a batch of radius queries through [`query::run_batch`] — a
    /// thin convenience over [`search`](Self::search): Q1 is hashed for
    /// the whole batch first, then Q2–Q4 fan out on `pool`. The whole
    /// batch runs against one pinned epoch.
    pub fn query_batch(
        &self,
        qs: &[SparseVector],
        pool: &ThreadPool,
    ) -> (Vec<Vec<Neighbor>>, BatchStats) {
        let _pressure = PressureGuard::enter(&self.active_queries);
        let view = self.epoch.snapshot();
        let exec = Exec::Pool(pool, &self.scratches);
        query::run_batch(&self.view_ctx(&view), qs, exec, None)
    }

    /// Queries currently executing — the signal a paced merge backs off
    /// on. Exposed for tests and monitoring.
    pub fn active_queries(&self) -> usize {
        self.active_queries.load(Ordering::Relaxed)
    }

    /// Point/memory accounting.
    pub fn stats(&self) -> EngineStats {
        // Lock first, then pin: publishes happen under the write lock, so
        // the view and the write-side counters are mutually consistent
        // (pinning first could pair a pre-merge bitmap with a post-merge
        // purged list and double-count tombstones).
        let w = self.write.lock().unwrap_or_else(|e| e.into_inner());
        let view = self.epoch.snapshot();
        let open = w.open.as_ref();
        let delta_table_bytes = view
            .sealed
            .iter()
            .map(|g| g.sketches().memory_bytes())
            .chain(open.map(|g| g.sketches().memory_bytes()))
            .sum();
        let (live_points, retired_pending_purge, window_lag) = self.window_accounting(&w, &view);
        EngineStats {
            total_points: w.total as usize,
            static_points: view.static_len(),
            delta_points: (w.total - view.static_end()) as usize,
            deleted_points: view.deleted.count() + w.purged.len(),
            purged_points: w.purged.len(),
            sealed_generations: view.sealed.len(),
            merges: self.merges.load(Ordering::Relaxed),
            static_table_bytes: view.statics.as_ref().map_or(0, |s| s.memory_bytes()),
            delta_table_bytes,
            hyperplane_bytes: self.planes.memory_bytes(),
            host_threads: plsh_parallel::affinity::host_threads(),
            pinned_workers: plsh_parallel::pinned_worker_count(),
            live_points,
            retired_points: w.retired_below as usize,
            retired_pending_purge,
            window_lag,
        }
    }
}

impl SearchBackend for Engine {
    fn search(&self, req: &SearchRequest, pool: &ThreadPool) -> Result<SearchResponse> {
        Engine::search(self, req, pool)
    }
}

/// Derives the largest delta fraction `η` keeping worst-case query time
/// within `slowdown` × the static query time (Section 6.3).
///
/// With static time `t_s` (all data static) and streaming time `t_d` (all
/// data in the un-merged delta), the worst-case mixed time is
/// `(1−η)·t_s + η·t_d ≤ slowdown·t_s`, hence
/// `η ≤ (slowdown − 1)·t_s / (t_d − t_s)`. The paper plugs in 1.4 ms and
/// 6 ms with slowdown 1.5 to get η ≤ 0.15 and chooses 0.1.
pub fn eta_bound(static_time: f64, delta_time: f64, slowdown: f64) -> f64 {
    assert!(static_time > 0.0 && slowdown >= 1.0);
    if delta_time <= static_time {
        return 1.0; // delta is no slower; any fraction is fine
    }
    ((slowdown - 1.0) * static_time / (delta_time - static_time)).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn params(dim: u32) -> PlshParams {
        PlshParams::builder(dim)
            .k(6)
            .m(6)
            .radius(0.9)
            .delta(0.1)
            .seed(99)
            .build()
            .unwrap()
    }

    fn random_vec(rng: &mut SplitMix64, dim: u32) -> SparseVector {
        let a = rng.next_below(dim as u64) as u32;
        let b = (a + 1 + rng.next_below(dim as u64 - 1) as u32) % dim;
        SparseVector::unit(vec![(a, 1.0), (b, rng.next_f64() as f32 + 0.1)]).unwrap()
    }

    #[test]
    fn insert_query_roundtrip_without_merge() {
        let pool = ThreadPool::new(1);
        let e = Engine::new(EngineConfig::new(params(64), 100).manual_merge(), &pool).unwrap();
        let mut rng = SplitMix64::new(1);
        let vs: Vec<SparseVector> = (0..50).map(|_| random_vec(&mut rng, 64)).collect();
        let ids = e.insert_batch(&vs, &pool).unwrap();
        assert_eq!(ids, (0..50).collect::<Vec<u32>>());
        assert_eq!(e.static_len(), 0);
        assert_eq!(e.delta_len(), 50);
        // Every point must find itself purely through the delta scan.
        for (i, v) in vs.iter().enumerate() {
            let hits = e.query(v);
            assert!(
                hits.iter()
                    .any(|h| h.index == i as u32 && h.distance < 1e-3),
                "point {i} not found pre-merge"
            );
        }
    }

    #[test]
    fn merge_preserves_query_answers() {
        let pool = ThreadPool::new(2);
        let e = Engine::new(EngineConfig::new(params(64), 200).manual_merge(), &pool).unwrap();
        let mut rng = SplitMix64::new(2);
        let vs: Vec<SparseVector> = (0..120).map(|_| random_vec(&mut rng, 64)).collect();
        e.insert_batch(&vs, &pool).unwrap();

        let pre: Vec<Vec<u32>> = vs
            .iter()
            .map(|v| {
                let mut hits: Vec<u32> = e.query(v).iter().map(|h| h.index).collect();
                hits.sort_unstable();
                hits
            })
            .collect();
        e.merge_delta(&pool);
        assert_eq!(e.static_len(), 120);
        assert_eq!(e.delta_len(), 0);
        for (v, expect) in vs.iter().zip(&pre) {
            let mut hits: Vec<u32> = e.query(v).iter().map(|h| h.index).collect();
            hits.sort_unstable();
            assert_eq!(&hits, expect, "merge must not change answers");
        }
    }

    #[test]
    fn mixed_static_and_delta_queries() {
        let pool = ThreadPool::new(1);
        let e = Engine::new(EngineConfig::new(params(64), 300).manual_merge(), &pool).unwrap();
        let mut rng = SplitMix64::new(3);
        let first: Vec<SparseVector> = (0..80).map(|_| random_vec(&mut rng, 64)).collect();
        e.insert_batch(&first, &pool).unwrap();
        e.merge_delta(&pool);
        let second: Vec<SparseVector> = (0..40).map(|_| random_vec(&mut rng, 64)).collect();
        e.insert_batch(&second, &pool).unwrap();
        assert_eq!(e.static_len(), 80);
        assert_eq!(e.delta_len(), 40);
        // Old and new points are both findable.
        for (i, v) in first.iter().enumerate() {
            assert!(e.query(v).iter().any(|h| h.index == i as u32));
        }
        for (i, v) in second.iter().enumerate() {
            let id = 80 + i as u32;
            assert!(e.query(v).iter().any(|h| h.index == id));
        }
    }

    #[test]
    fn auto_merge_fires_at_eta() {
        let pool = ThreadPool::new(1);
        let config = EngineConfig::new(params(64), 100).with_eta(0.1);
        let e = Engine::new(config, &pool).unwrap();
        let mut rng = SplitMix64::new(4);
        for i in 0..10 {
            e.insert(random_vec(&mut rng, 64), &pool).unwrap();
            let _ = i;
        }
        // 10 points = eta * capacity, so a merge must have fired.
        assert!(e.stats().merges >= 1);
        assert_eq!(e.delta_len(), 0);
        assert_eq!(e.static_len(), 10);
    }

    #[test]
    fn capacity_is_enforced_atomically() {
        let pool = ThreadPool::new(1);
        let e = Engine::new(EngineConfig::new(params(64), 10), &pool).unwrap();
        let mut rng = SplitMix64::new(5);
        let vs: Vec<SparseVector> = (0..11).map(|_| random_vec(&mut rng, 64)).collect();
        assert_eq!(
            e.insert_batch(&vs, &pool).unwrap_err(),
            PlshError::CapacityExceeded { capacity: 10 }
        );
        assert_eq!(e.len(), 0, "failed batch must not be partially applied");
        e.insert_batch(&vs[..10], &pool).unwrap();
        assert_eq!(e.remaining_capacity(), 0);
        assert!(e.insert(vs[10].clone(), &pool).is_err());
    }

    #[test]
    fn dimension_errors_abort_batch() {
        let pool = ThreadPool::new(1);
        let e = Engine::new(EngineConfig::new(params(64), 10), &pool).unwrap();
        let good = SparseVector::unit(vec![(0, 1.0)]).unwrap();
        let bad = SparseVector::unit(vec![(64, 1.0)]).unwrap();
        let err = e.insert_batch(&[good, bad], &pool).unwrap_err();
        assert_eq!(err, PlshError::DimensionOutOfRange { index: 64, dim: 64 });
        assert_eq!(e.len(), 0);
    }

    #[test]
    fn delete_hides_points_from_queries() {
        let pool = ThreadPool::new(1);
        let e = Engine::new(EngineConfig::new(params(64), 100).manual_merge(), &pool).unwrap();
        let v = SparseVector::unit(vec![(3, 1.0), (9, 0.5)]).unwrap();
        let id = e.insert(v.clone(), &pool).unwrap();
        assert!(e.query(&v).iter().any(|h| h.index == id));
        assert!(e.delete(id));
        assert!(!e.delete(id), "double delete returns false");
        assert!(e.is_deleted(id));
        assert!(!e.query(&v).iter().any(|h| h.index == id));
        // Deletion also filters static-path answers after a merge.
        e.merge_delta(&pool);
        assert!(!e.query(&v).iter().any(|h| h.index == id));
        assert!(e.is_deleted(id), "purged points stay deleted");
        assert!(!e.delete(id), "purged points cannot be re-deleted");
        assert!(!e.delete(55), "out of range delete is rejected");
    }

    #[test]
    fn merge_purges_tombstones_and_reclaims_bits() {
        let pool = ThreadPool::new(1);
        let e = Engine::new(EngineConfig::new(params(64), 100).manual_merge(), &pool).unwrap();
        let mut rng = SplitMix64::new(14);
        let vs: Vec<SparseVector> = (0..40).map(|_| random_vec(&mut rng, 64)).collect();
        e.insert_batch(&vs, &pool).unwrap();
        for id in [3u32, 17, 39] {
            assert!(e.delete(id));
        }
        assert_eq!(e.stats().deleted_points, 3);
        assert_eq!(e.stats().purged_points, 0);
        e.merge_delta(&pool);
        let stats = e.stats();
        // Still reported deleted, but the bits have been reclaimed and the
        // ids no longer occupy any bucket.
        assert_eq!(stats.deleted_points, 3);
        assert_eq!(stats.purged_points, 3);
        assert_eq!(e.purged_ids(), vec![3, 17, 39]);
        assert_eq!(e.last_merge().purged_points, 3);
        for id in [3u32, 17, 39] {
            assert!(e.is_deleted(id));
            assert!(!e.query(&vs[id as usize]).iter().any(|h| h.index == id));
        }
        // Survivors unaffected.
        assert!(e.query(&vs[5]).iter().any(|h| h.index == 5));
        // A second merge keeps the purged set (nothing new to purge).
        e.merge_delta(&pool);
        assert_eq!(e.stats().purged_points, 3);
    }

    #[test]
    fn epoch_info_is_always_consistent() {
        let pool = ThreadPool::new(1);
        let e = Engine::new(EngineConfig::new(params(64), 200).manual_merge(), &pool).unwrap();
        let mut rng = SplitMix64::new(15);
        let mut last_gen = e.epoch_info().generation;
        for round in 0..6 {
            let vs: Vec<SparseVector> = (0..10).map(|_| random_vec(&mut rng, 64)).collect();
            e.insert_batch(&vs, &pool).unwrap();
            if round % 2 == 1 {
                e.merge_delta(&pool);
            }
            let info = e.epoch_info();
            assert_eq!(
                info.visible_points,
                info.static_points + info.sealed_points,
                "epoch must never be half-merged"
            );
            assert!(info.generation > last_gen);
            last_gen = info.generation;
        }
        assert_eq!(e.visible_len(), 60);
    }

    #[test]
    fn seal_min_points_coalesces_batches() {
        let pool = ThreadPool::new(1);
        let e = Engine::new(
            EngineConfig::new(params(64), 100)
                .manual_merge()
                .with_seal_min_points(25),
            &pool,
        )
        .unwrap();
        let mut rng = SplitMix64::new(16);
        let vs: Vec<SparseVector> = (0..30).map(|_| random_vec(&mut rng, 64)).collect();
        e.insert_batch(&vs[..10], &pool).unwrap();
        // Below the threshold: buffered but not yet visible.
        assert_eq!(e.len(), 10);
        assert_eq!(e.visible_len(), 0);
        assert_eq!(
            e.vector(3).expect("open-generation rows are reachable"),
            vs[3]
        );
        assert_eq!(e.vector(99), None, "out-of-range ids are None, not a panic");
        e.insert_batch(&vs[10..], &pool).unwrap();
        // Crossing the threshold seals one coalesced generation.
        assert_eq!(e.visible_len(), 30);
        assert_eq!(e.epoch_info().sealed_generations, 1);
        for (i, v) in vs.iter().enumerate() {
            assert!(e.query(v).iter().any(|h| h.index == i as u32));
        }
        // Explicit seal on an empty open generation is a no-op.
        assert!(!e.seal());
    }

    #[test]
    fn one_document_batches_cost_a_sketch_each() {
        // The worst case for per-generation structures: every insert seals
        // its own generation. The delta must still cost one packed sketch
        // (m = 16 one-byte lanes) per document, not a table set.
        let pool = ThreadPool::new(1);
        let p = PlshParams::builder(64)
            .k(14)
            .m(16)
            .radius(0.9)
            .delta(0.1)
            .seed(7)
            .build()
            .unwrap();
        let e = Engine::new(EngineConfig::new(p, 1000).manual_merge(), &pool).unwrap();
        let mut rng = SplitMix64::new(23);
        for _ in 0..1000 {
            e.insert_batch(&[random_vec(&mut rng, 64)], &pool).unwrap();
        }
        let stats = e.stats();
        assert_eq!(stats.delta_points, 1000);
        assert_eq!(stats.sealed_generations, 1000);
        assert!(
            stats.delta_table_bytes <= 64 * stats.delta_points,
            "{} B for {} delta points",
            stats.delta_table_bytes,
            stats.delta_points
        );
    }

    #[test]
    fn clear_retires_everything() {
        let pool = ThreadPool::new(1);
        let e = Engine::new(EngineConfig::new(params(64), 50), &pool).unwrap();
        let mut rng = SplitMix64::new(6);
        let vs: Vec<SparseVector> = (0..20).map(|_| random_vec(&mut rng, 64)).collect();
        e.insert_batch(&vs, &pool).unwrap();
        e.delete(3);
        e.clear();
        assert!(e.is_empty());
        assert_eq!(e.delta_len(), 0);
        assert_eq!(e.static_len(), 0);
        assert_eq!(e.stats().deleted_points, 0);
        assert!(e.query(&vs[0]).is_empty());
        // Node is reusable after retirement.
        let id = e.insert(vs[0].clone(), &pool).unwrap();
        assert_eq!(id, 0);
        assert!(e.query(&vs[0]).iter().any(|h| h.index == 0));
    }

    #[test]
    fn batch_query_agrees_with_singles() {
        let pool = ThreadPool::new(2);
        let e = Engine::new(EngineConfig::new(params(64), 200), &pool).unwrap();
        let mut rng = SplitMix64::new(7);
        let vs: Vec<SparseVector> = (0..100).map(|_| random_vec(&mut rng, 64)).collect();
        e.insert_batch(&vs, &pool).unwrap();
        let queries = &vs[..25];
        let (batch, stats) = e.query_batch(queries, &pool);
        assert_eq!(stats.queries, 25);
        for (q, got) in queries.iter().zip(&batch) {
            let mut got: Vec<u32> = got.iter().map(|h| h.index).collect();
            got.sort_unstable();
            let mut single: Vec<u32> = e.query(q).iter().map(|h| h.index).collect();
            single.sort_unstable();
            assert_eq!(got, single);
        }
    }

    #[test]
    fn eta_bound_matches_paper_example() {
        // Static 1.4 ms, streaming 6 ms, slowdown 1.5 → η ≤ ~0.152.
        let eta = eta_bound(1.4, 6.0, 1.5);
        assert!((0.14..0.17).contains(&eta), "{eta}");
        // Delta faster than static → unbounded (clamped to 1).
        assert_eq!(eta_bound(2.0, 1.0, 1.5), 1.0);
    }

    #[test]
    fn knn_returns_sorted_top_k() {
        let pool = ThreadPool::new(1);
        let e = Engine::new(EngineConfig::new(params(64), 200).manual_merge(), &pool).unwrap();
        let mut rng = SplitMix64::new(12);
        let vs: Vec<SparseVector> = (0..120).map(|_| random_vec(&mut rng, 64)).collect();
        e.insert_batch(&vs, &pool).unwrap();
        e.merge_delta(&pool);
        for qid in [0u32, 33, 119] {
            let q = vs[qid as usize].clone();
            let resp = e
                .search(
                    &SearchRequest::query(q.clone()).top_k(5).with_stats(),
                    &pool,
                )
                .unwrap();
            let hits = resp.hits();
            assert!(hits.len() <= 5);
            assert!(!hits.is_empty());
            // Ascending by distance; self first (distance ~0).
            assert!(hits.windows(2).all(|w| w[0].distance <= w[1].distance));
            assert_eq!(hits[0].index, qid);
            assert!(hits[0].distance < 1e-3);
            // The k-NN answer is a prefix of the full candidate ranking.
            let full = e
                .search(&SearchRequest::query(q).top_k(usize::MAX), &pool)
                .unwrap();
            assert_eq!(&full.hits()[..hits.len()], hits);
            let stats = resp.stats.expect("requested stats");
            assert!(stats.totals.unique_candidates >= hits.len() as u64);
        }
    }

    #[test]
    fn knn_radius_override_caps_distance() {
        let pool = ThreadPool::new(1);
        let e = Engine::new(EngineConfig::new(params(64), 200).manual_merge(), &pool).unwrap();
        let mut rng = SplitMix64::new(22);
        let vs: Vec<SparseVector> = (0..150).map(|_| random_vec(&mut rng, 64)).collect();
        e.insert_batch(&vs, &pool).unwrap();
        let q = vs[0].clone();
        let uncapped = e
            .search(&SearchRequest::query(q.clone()).top_k(usize::MAX), &pool)
            .unwrap();
        let capped = e
            .search(
                &SearchRequest::query(q).top_k(usize::MAX).with_radius(0.5),
                &pool,
            )
            .unwrap();
        assert!(capped.hits().iter().all(|h| h.distance <= 0.5));
        // The capped ranking is exactly the uncapped one truncated at R.
        let expect: Vec<_> = uncapped
            .hits()
            .iter()
            .copied()
            .filter(|h| h.distance <= 0.5)
            .collect();
        assert_eq!(capped.hits(), expect.as_slice());
        assert!(uncapped.hits().len() > capped.hits().len());
    }

    #[test]
    fn knn_skips_deleted_points() {
        let pool = ThreadPool::new(1);
        let e = Engine::new(EngineConfig::new(params(64), 50).manual_merge(), &pool).unwrap();
        let v = SparseVector::unit(vec![(1, 1.0), (2, 1.0)]).unwrap();
        let w = SparseVector::unit(vec![(1, 1.0), (2, 0.9)]).unwrap();
        let a = e.insert(v.clone(), &pool).unwrap();
        let b = e.insert(w, &pool).unwrap();
        e.delete(a);
        let resp = e.search(&SearchRequest::query(v).top_k(2), &pool).unwrap();
        assert!(resp.hits().iter().all(|h| h.index != a));
        assert!(resp.hits().iter().any(|h| h.index == b));
    }

    #[test]
    fn search_request_fields_drive_the_pipeline() {
        let pool = ThreadPool::new(2);
        let e = Engine::new(EngineConfig::new(params(64), 400).manual_merge(), &pool).unwrap();
        let mut rng = SplitMix64::new(21);
        let vs: Vec<SparseVector> = (0..200).map(|_| random_vec(&mut rng, 64)).collect();
        e.insert_batch(&vs[..150], &pool).unwrap();
        e.merge_delta(&pool);
        e.insert_batch(&vs[150..], &pool).unwrap();

        let queries: Vec<SparseVector> = vs.iter().step_by(9).cloned().collect();
        let sorted = |hits: &[SearchHit]| {
            let mut pairs: Vec<(u32, u32)> = hits
                .iter()
                .map(|h| (h.index, h.distance.to_bits()))
                .collect();
            pairs.sort_unstable();
            pairs
        };

        // The plain, profiled and budgeted requests answer identically
        // through one request type — bit for bit, distances included.
        let base = e
            .search(&SearchRequest::batch(queries.clone()).with_stats(), &pool)
            .unwrap();
        assert_eq!(base.stats.unwrap().queries, queries.len() as u64);
        let epoch = base.epoch.expect("single-node responses pin an epoch");
        assert_eq!(epoch.visible_points, 200);
        for req in [
            SearchRequest::batch(queries.clone()).with_profiling(),
            SearchRequest::batch(queries.clone()).with_max_candidates(usize::MAX - 1),
        ] {
            let resp = e.search(&req, &pool).unwrap();
            assert_eq!(resp.results.len(), base.results.len());
            for (a, b) in resp.results.iter().zip(&base.results) {
                assert_eq!(sorted(a), sorted(b));
            }
            assert_eq!(resp.phase_timings.is_some(), req.profiles());
        }

        // Profiling only adds timers: the same answers in the same order,
        // the same counters, and phase times within the batch's wall time.
        // Each answer, radius or k-NN, is the reference kernel's over the
        // same epoch, bit for bit.
        let bits = |hits: &[SearchHit]| -> Vec<(u32, u32)> {
            hits.iter()
                .map(|h| (h.index, h.distance.to_bits()))
                .collect()
        };
        let (view, _) = e.epoch.load();
        for (label, req, top_k) in [
            ("radius", SearchRequest::batch(queries.clone()), None),
            (
                "k-NN",
                SearchRequest::batch(queries.clone()).top_k(4),
                Some(4),
            ),
        ] {
            let plain = e.search(&req.clone().with_stats(), &pool).unwrap();
            let profiled = e.search(&req.with_profiling(), &pool).unwrap();
            for (a, b) in profiled.results.iter().zip(&plain.results) {
                assert_eq!(bits(a), bits(b), "{label}");
            }
            assert_eq!(profiled.results.len(), plain.results.len(), "{label}");
            let (stats, plain_stats) = (profiled.stats.unwrap(), plain.stats.unwrap());
            assert_eq!(stats.queries, plain_stats.queries, "{label}");
            assert_eq!(stats.totals, plain_stats.totals, "{label}");
            let timings = profiled.phase_timings.expect("profiled");
            assert!(timings.total() <= stats.elapsed, "{label}");
            let mut ctx = e.view_ctx(&view);
            if top_k.is_some() {
                ctx.radius = std::f32::consts::PI;
                ctx.top_k = top_k;
            }
            for (q, got) in queries.iter().zip(&plain.results) {
                let want: Vec<(u32, u32)> = query::reference(&ctx, q)
                    .0
                    .iter()
                    .map(|h| (h.index, h.distance.to_bits()))
                    .collect();
                assert_eq!(bits(got), want, "{label}");
            }
        }

        // Radius override: π reports every candidate, tiny radius only
        // near-exact ones; both remain subsets ordered consistently.
        let q = queries[0].clone();
        let wide = e
            .search(
                &SearchRequest::query(q.clone()).with_radius(std::f32::consts::PI),
                &pool,
            )
            .unwrap();
        let narrow = e
            .search(&SearchRequest::query(q.clone()).with_radius(1e-4), &pool)
            .unwrap();
        assert!(wide.hits().len() >= narrow.hits().len());
        assert!(narrow.hits().iter().all(|h| h.distance <= 1e-4));

        // Candidate budget caps Q3 work.
        let budgeted = e
            .search(
                &SearchRequest::query(q).with_max_candidates(1).with_stats(),
                &pool,
            )
            .unwrap();
        assert!(budgeted.stats.unwrap().totals.distance_computations <= 1);

        // Malformed requests error instead of panicking.
        let bad = SparseVector::unit(vec![(64, 1.0)]).unwrap();
        assert!(e.search(&SearchRequest::query(bad), &pool).is_err());
    }

    #[test]
    fn with_planes_refuses_planes_of_other_parameters() {
        let pool = ThreadPool::new(2);
        let p = params(64);
        let planes = |dim, hashes, seed| Arc::new(Hyperplanes::new_dense(dim, hashes, seed, &pool));
        let config = || EngineConfig::new(p.clone(), 100).manual_merge();
        let (dim, hashes, seed) = (p.dim(), p.num_hashes(), p.seed());
        for wrong in [
            planes(dim + 1, hashes, seed),
            planes(dim, hashes + 1, seed),
            planes(dim, hashes, seed ^ 1),
        ] {
            let err = Engine::with_planes(config(), wrong)
                .err()
                .expect("mismatch refused");
            assert!(matches!(err, PlshError::InvalidParams(_)), "{err}");
        }
        let shared = planes(dim, hashes, seed);
        let a = Engine::with_planes(config(), Arc::clone(&shared)).unwrap();
        let b = Engine::new(config(), &pool).unwrap();
        assert!(Arc::ptr_eq(a.planes(), &shared));
        let mut rng = SplitMix64::new(3);
        let vs: Vec<SparseVector> = (0..50).map(|_| random_vec(&mut rng, 64)).collect();
        a.insert_batch(&vs, &pool).unwrap();
        b.insert_batch(&vs, &pool).unwrap();
        for q in vs.iter().step_by(7) {
            let ids = |e: &Engine| e.query(q).iter().map(|h| h.index).collect::<Vec<_>>();
            assert_eq!(ids(&a), ids(&b));
        }
    }

    #[test]
    fn config_validation() {
        let pool = ThreadPool::new(1);
        assert!(Engine::new(EngineConfig::new(params(64), 0), &pool).is_err());
        assert!(Engine::new(EngineConfig::new(params(64), 10).with_eta(0.0), &pool).is_err());
        assert!(Engine::new(EngineConfig::new(params(64), 10).with_eta(1.5), &pool).is_err());
    }

    #[test]
    fn concurrent_insert_query_merge_smoke() {
        // Ingest, merges, deletes, and queries from four threads at once;
        // every pinned epoch must be internally consistent.
        let pool = ThreadPool::new(2);
        let e = Arc::new(
            Engine::new(EngineConfig::new(params(64), 4000).with_eta(0.05), &pool).unwrap(),
        );
        let mut rng = SplitMix64::new(13);
        let vs: Vec<SparseVector> = (0..2000).map(|_| random_vec(&mut rng, 64)).collect();
        let watermark = Arc::new(AtomicUsize::new(0));

        let writer = {
            let e = e.clone();
            let vs = vs.clone();
            let watermark = watermark.clone();
            std::thread::spawn(move || {
                let pool = ThreadPool::new(1);
                for chunk in vs.chunks(100) {
                    e.insert_batch(chunk, &pool).unwrap();
                    watermark.fetch_add(chunk.len(), Ordering::Release);
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|t| {
                let e = e.clone();
                let vs = vs.clone();
                let watermark = watermark.clone();
                std::thread::spawn(move || {
                    let mut checked = 0u32;
                    while checked < 200 {
                        let info = e.epoch_info();
                        assert_eq!(info.visible_points, info.static_points + info.sealed_points);
                        let visible = watermark.load(Ordering::Acquire);
                        if visible == 0 {
                            continue;
                        }
                        let probe = (t * 37 + checked as usize * 13) % visible;
                        let hits = e.query(&vs[probe]);
                        assert!(
                            hits.iter().any(|h| h.index == probe as u32),
                            "probe {probe} lost during concurrent ingest"
                        );
                        assert!(hits.iter().all(|h| (h.index as usize) < e.len()));
                        checked += 1;
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(e.len(), 2000);
        assert!(e.stats().merges >= 1, "auto-merges must have fired");
        for probe in [0usize, 999, 1999] {
            assert!(e.query(&vs[probe]).iter().any(|h| h.index == probe as u32));
        }
    }
    #[test]
    fn windowed_engine_retires_and_compacts() {
        let pool = ThreadPool::new(1);
        let e = Engine::new(
            EngineConfig::new(params(64), 200)
                .manual_merge()
                .with_window(WindowSpec::Docs(50)),
            &pool,
        )
        .unwrap();
        let mut rng = SplitMix64::new(21);
        let vs: Vec<SparseVector> = (0..120).map(|_| random_vec(&mut rng, 64)).collect();
        for chunk in vs.chunks(30) {
            e.insert_batch(chunk, &pool).unwrap();
        }
        // Inserts advanced the watermark automatically: only the newest 50
        // stay live, as one range tombstone (no bitmap bits).
        assert_eq!(e.retired_below(), 70);
        assert_eq!(e.stats().live_points, 50);
        assert_eq!(e.stats().deleted_points, 0);
        assert!(e.vector(10).is_none(), "retired row must not resolve");
        assert!(e.vector(100).is_some());
        for (i, v) in vs.iter().enumerate() {
            let hits = e.query(v);
            if i < 70 {
                assert!(
                    hits.iter().all(|h| h.index != i as u32),
                    "retired point {i} surfaced"
                );
            } else {
                assert!(hits.iter().any(|h| h.index == i as u32));
            }
        }
        // The merge compacts: the static structure rebases at the
        // watermark and the dead prefix stops occupying memory.
        e.merge_delta(&pool);
        let info = e.epoch_info();
        assert_eq!(info.static_base, 70);
        assert_eq!(info.retired_below, 70);
        assert_eq!(info.static_points, 50);
        assert_eq!(e.stats().retired_pending_purge, 0);
        for (i, v) in vs.iter().enumerate().skip(70) {
            assert!(
                e.query(v).iter().any(|h| h.index == i as u32),
                "live point {i} lost by compaction"
            );
        }
        // Ids keep growing past the compaction; capacity counts residents.
        let id = e.insert(vs[0].clone(), &pool).unwrap();
        assert_eq!(id, 120);
    }

    #[test]
    fn windowed_answers_match_manual_delete_twin() {
        let pool = ThreadPool::new(1);
        let windowed = Engine::new(
            EngineConfig::new(params(64), 300)
                .manual_merge()
                .with_window(WindowSpec::Docs(40)),
            &pool,
        )
        .unwrap();
        let twin = Engine::new(EngineConfig::new(params(64), 300).manual_merge(), &pool).unwrap();
        let mut rng = SplitMix64::new(22);
        let vs: Vec<SparseVector> = (0..150).map(|_| random_vec(&mut rng, 64)).collect();
        for (b, chunk) in vs.chunks(17).enumerate() {
            windowed.insert_batch(chunk, &pool).unwrap();
            twin.insert_batch(chunk, &pool).unwrap();
            for id in 0..windowed.retired_below() {
                twin.delete(id);
            }
            if b % 3 == 2 {
                windowed.merge_delta(&pool);
                twin.merge_delta(&pool);
            }
            for v in &vs[..((b + 1) * 17).min(vs.len())] {
                let key = |e: &Engine| {
                    let mut hits: Vec<(u32, u32)> = e
                        .query(v)
                        .iter()
                        .map(|h| (h.index, h.distance.to_bits()))
                        .collect();
                    hits.sort_unstable();
                    hits
                };
                assert_eq!(
                    key(&windowed),
                    key(&twin),
                    "windowed engine diverged from its delete twin at batch {b}"
                );
            }
        }
    }

    #[test]
    fn retire_to_is_monotone_and_clamped() {
        let pool = ThreadPool::new(1);
        let e = Engine::new(EngineConfig::new(params(64), 100).manual_merge(), &pool).unwrap();
        let mut rng = SplitMix64::new(23);
        let vs: Vec<SparseVector> = (0..30).map(|_| random_vec(&mut rng, 64)).collect();
        e.insert_batch(&vs, &pool).unwrap();
        assert!(e.retire_to(10).unwrap());
        assert_eq!(e.retired_below(), 10);
        // Monotone: a lower watermark is a no-op, not a rollback.
        assert!(!e.retire_to(5).unwrap());
        assert_eq!(e.retired_below(), 10);
        // Clamped to the assigned id range.
        assert!(e.retire_to(1_000).unwrap());
        assert_eq!(e.retired_below(), 30);
        assert!(!e.try_delete(3).unwrap(), "retired id is already dead");
        assert!(e.query(&vs[0]).is_empty());
    }
}
