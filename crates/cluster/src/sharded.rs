//! The shard-per-core streaming cluster: arithmetically routed ingest,
//! per-shard [`StreamingEngine`]s, and model-driven query fan-out.
//!
//! [`ShardedIndex`] reproduces the paper's headline claim — near-linear
//! scaling of streaming LSH across cores (Figures 9–10). Every shard is a
//! full streaming node that overlaps its own ingest, merge, and queries:
//!
//! * **Inserts route by arithmetic on the point id.** Every point gets a
//!   monotonically increasing *global* id `g`; it lands on shard
//!   `g % S` at shard-local id `g / S`, so shard `s` holds exactly the
//!   globals `s, s+S, s+2S, …` in order and a local hit `l` translates
//!   back as `l·S + s`. No id map is stored, and a paced per-shard
//!   ingest queue (a bounded channel drained by one ingest thread per
//!   shard) carries each point to its shard.
//! * **Each shard owns a [`StreamingEngine`].** Inserts hash and seal on
//!   the shard's ingest thread; merges run on the shard's own background
//!   thread at `η·C` — so merges on different shards overlap each other
//!   *and* every query. A shard's tables are ~`1/S` of the corpus, so its
//!   merges are ~`S×` cheaper than one shared structure's (the
//!   shard-local-tables argument of the PIMDAL/Polynesia line of work).
//! * **Queries fan out over shards.** One work-stealing task per shard
//!   pins that shard's epoch and runs the whole request against it with
//!   shard-local scratch; the coordinator concatenates radius answers
//!   (exact — hits are translated to global ids) and k-way re-ranks k-NN
//!   answers with the same `(distance, global id)` tie-break a single
//!   engine uses, so answer sets are bit-identical to one big
//!   [`Engine`](plsh_core::engine::Engine) over the same data.
//! * **The shard count is model-driven by default.** The builder
//!   calibrates a [`MachineProfile`] and picks the shard count whose
//!   Section-7 predicted per-batch query time is minimal
//!   ([`PerformanceModel::pick_shard_count`]); override it with
//!   [`ShardedIndexBuilder::shards`].
//! * **Candidate budgets are global.** A
//!   [`SearchRequest::with_max_candidates`] budget is divided across the
//!   shards (evenly, remainder to the lowest-numbered shards, floored at
//!   one candidate per shard), so a sharded index examines at most the
//!   same aggregate number of candidates as a single engine given the
//!   same budget — the root `backend_equivalence` suite pins this down.
//!   The per-shard *selection* still differs from a single engine's
//!   (each shard truncates its own ascending-id candidate prefix), so
//!   budgeted answer sets are budget-honoring rather than bit-identical;
//!   unbudgeted requests remain bit-identical.
//! * **Durability is per shard.** [`ShardedIndex::persist_to`] lays a
//!   [`plsh_core::persist`] WAL-plus-segments directory per shard under
//!   `shard-<i>/`, sealed by a checksummed top-level cluster manifest;
//!   [`ShardedIndex::recover_from`] recovers every shard, then truncates
//!   to the longest globally contiguous id prefix (a crash can land
//!   mid-batch with some shards ahead of others) so the recovered index
//!   is exactly a prefix of the routed stream. Shard `s` holding `n_s`
//!   ids first misses global `n_s·S + s`, so that prefix is
//!   `min_s(n_s·S + s)` — closed form, no walk over the id space. The
//!   manifest (format v3) records the shard count the arithmetic depends
//!   on. [`ShardedIndex::snapshot`] flattens the whole corpus into a
//!   single-engine [`Snapshot`] in global-id order.
//!
//! ```
//! use plsh_cluster::ShardedIndex;
//! use plsh_core::engine::EngineConfig;
//! use plsh_core::search::SearchRequest;
//! use plsh_core::{PlshParams, SparseVector};
//!
//! let params = PlshParams::builder(16).k(4).m(4).radius(0.9).seed(42).build().unwrap();
//! let index = ShardedIndex::builder(EngineConfig::new(params, 64))
//!     .shards(2)
//!     .build()
//!     .unwrap();
//! let v = SparseVector::unit(vec![(0, 1.0), (3, 2.0)]).unwrap();
//! let ids = index.insert_batch(std::slice::from_ref(&v)).unwrap();
//! index.flush().unwrap(); // barrier: every routed point is now query-visible
//! let resp = index.search(&SearchRequest::query(v)).unwrap();
//! assert!(resp.hits().iter().any(|h| h.index == ids[0]));
//! ```

use std::collections::VecDeque;
use std::fs;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use plsh_core::engine::{EngineConfig, EngineStats, MergeReport, WindowSpec};
use plsh_core::error::{PlshError, Result as CoreResult};
use plsh_core::fault;
use plsh_core::health::{HealthReport, WorkerHealth};
use plsh_core::model::{MachineProfile, PerformanceModel};
use plsh_core::params::estimate_candidates;
use plsh_core::persist;
use plsh_core::search::{
    merge_partial_responses, SearchBackend, SearchHit, SearchRequest, SearchResponse,
};
use plsh_core::snapshot::Snapshot;
use plsh_core::sparse::SparseVector;
use plsh_core::streaming::{ShutdownReport, StreamingEngine};
use plsh_parallel::{affinity, Backoff, ThreadPool, WorkerStatus};

use crate::error::{ClusterError, Result};

/// Upper bound on model-picked shard counts (a runaway prediction must not
/// spawn hundreds of ingest threads).
const MAX_MODEL_SHARDS: usize = 64;

/// Queries-per-batch assumption used when the model picks the shard count.
const MODEL_BATCH_QUERIES: usize = 64;

/// Builder for [`ShardedIndex`].
pub struct ShardedIndexBuilder {
    node: EngineConfig,
    shards: Option<usize>,
    threads: Option<usize>,
    queue_batches: usize,
    ingest_rate: Option<f64>,
    profile: Option<MachineProfile>,
}

impl ShardedIndexBuilder {
    /// Fixes the shard count instead of letting the performance model pick
    /// it. Must be ≥ 1.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Worker threads for the query fan-out pool (default: one per core).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Capacity of each shard's ingest queue in batches (default 4).
    /// Inserts apply back-pressure once a shard's queue is full.
    pub fn queue_batches(mut self, batches: usize) -> Self {
        self.queue_batches = batches.max(1);
        self
    }

    /// Paces each shard's ingest queue to at most `points_per_sec` (the
    /// paper's Twitter-rate arrival process). Default: unpaced.
    pub fn ingest_rate(mut self, points_per_sec: f64) -> Self {
        assert!(points_per_sec > 0.0, "ingest rate must be positive");
        self.ingest_rate = Some(points_per_sec);
        self
    }

    /// Machine profile for the model-driven shard count (default: measure
    /// this machine with [`MachineProfile::calibrate`]). Ignored when
    /// [`shards`](Self::shards) is set explicitly.
    pub fn machine_profile(mut self, profile: MachineProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Builds the index: resolves the shard count (model prediction unless
    /// fixed), constructs one [`StreamingEngine`] per shard, and spawns the
    /// per-shard ingest threads.
    pub fn build(self) -> Result<ShardedIndex> {
        let fanout = match self.threads {
            Some(t) => ThreadPool::new(t),
            None => ThreadPool::default(),
        };
        let shards = match self.shards {
            Some(0) => {
                return Err(ClusterError::Topology("shard count must be > 0".into()));
            }
            Some(s) => s,
            None => {
                let profile = self
                    .profile
                    .unwrap_or_else(|| MachineProfile::calibrate(&fanout, 2.6e9));
                predict_shard_count(&profile, &self.node)
            }
        };
        // The window is cluster-driven: the spec lives on the router and
        // every shard receives explicit `retire_to` cuts, so the shard
        // engines are built windowless (an engine-local window would
        // retire by *local* age and tear the cross-shard cut).
        let window = self.node.window;
        match window {
            Some(WindowSpec::Docs(0)) => {
                return Err(ClusterError::Topology(
                    "window must keep at least one document".into(),
                ));
            }
            Some(WindowSpec::Docs(n)) if n as usize >= self.node.capacity * shards => {
                return Err(ClusterError::Topology(format!(
                    "window of {n} docs must be smaller than the aggregate capacity ({}): \
                     the resident span also holds the un-merged deltas",
                    self.node.capacity * shards
                )));
            }
            Some(WindowSpec::Duration(d)) if d.is_zero() => {
                return Err(ClusterError::Topology(
                    "window duration must be positive".into(),
                ));
            }
            _ => {}
        }
        let mut node = self.node;
        node.window = None;
        // Shard-per-core layout: shard i's ingest + merge workers pin to
        // core i (mod host threads); the query fan-out workers spread over
        // whatever cores the shards left free. `PLSH_PIN=off` — or a
        // single-core host, or a kernel that refuses the syscall — turns
        // all of this into a logged no-op.
        let fanout = repin_fanout(fanout, shards);
        let sync = ProgressSync::new();
        let mut shard_handles = Vec::with_capacity(shards);
        for i in 0..shards {
            let pin_core = shard_core(i);
            // Each shard's engine gets a serial pool: cross-shard
            // parallelism comes from the fan-out pool and the per-shard
            // ingest/merge threads, so intra-shard fan-out would only
            // oversubscribe.
            let engine = StreamingEngine::new(node.clone(), ThreadPool::new(1))
                .map_err(ClusterError::Node)?;
            if let Some(core) = pin_core {
                engine.pin_merge_to(core);
            }
            let (tx, rx) = sync_channel::<ShardBatch>(self.queue_batches);
            let progress = IngestProgress::new(sync.clone());
            let status = Arc::new(WorkerStatus::new());
            let worker = spawn_ingest_worker(
                engine.clone(),
                rx,
                progress.clone(),
                status.clone(),
                self.ingest_rate,
                pin_core,
            );
            shard_handles.push(Shard {
                engine,
                tx: Some(tx),
                worker: Some(worker),
                progress,
                status,
            });
        }
        Ok(ShardedIndex {
            dim: node.params.dim(),
            per_shard_capacity: node.capacity,
            window,
            shards: shard_handles,
            fanout,
            router: Mutex::new(Router {
                next_global: 0,
                retire_cursor: 0,
                births: VecDeque::new(),
            }),
            total: AtomicU64::new(0),
            ingest_sync: sync,
        })
    }
}

/// One batch travelling down a shard's ingest queue (points already in
/// shard-local id order), plus the shard-local retirement watermark the
/// cluster's window cut implies after this batch — applied by the ingest
/// thread *after* the docs land, so the watermark can cover ids the batch
/// itself carries.
struct ShardBatch {
    docs: Vec<SparseVector>,
    retire_to: Option<u32>,
}

/// One shard: a streaming engine plus its ingest queue.
struct Shard {
    engine: StreamingEngine,
    tx: Option<SyncSender<ShardBatch>>,
    worker: Option<JoinHandle<()>>,
    /// Drain progress shared with the shard's ingest thread.
    progress: Arc<IngestProgress>,
    /// Supervision accounting for the ingest thread (restarts, last
    /// panic, liveness) — surfaced through [`ShardedIndex::health`].
    status: Arc<WorkerStatus>,
}

/// The one lock/condvar pair every shard's [`IngestProgress`] notifies
/// through. Sharing it across the index lets cluster-wide waiters
/// ([`ShardedIndex::wait_for_visible`]) sleep on a single condvar that
/// *any* shard's drain progress wakes — per-shard waiters simply re-check
/// their predicate on the (harmless) cross-shard wakeups.
struct ProgressSync {
    lock: Mutex<()>,
    advanced: Condvar,
}

impl ProgressSync {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            lock: Mutex::new(()),
            advanced: Condvar::new(),
        })
    }
}

/// Sentinel for "not pinned" in the atomic pinned-core slots.
const NOT_PINNED: usize = usize::MAX;

/// Ingest progress shared between a shard's router-side producers and its
/// ingest thread: the queued-point count plus a condvar, so waiters
/// ([`ShardedIndex::delete`], [`ShardedIndex::flush`]) sleep until the
/// worker actually advances — and wake promptly if it dies instead of
/// polling a counter that will never move again.
struct IngestProgress {
    /// Points routed but not yet inserted by the ingest thread
    /// (monitoring reads stay lock-free).
    pending: AtomicU64,
    /// Cleared when the ingest thread exits — normally at shutdown,
    /// abnormally on a panic that exhausted the restart budget.
    alive: AtomicBool,
    /// Set when the shard's engine entered degraded read-only mode: the
    /// worker keeps draining the queue (so producers never block on a
    /// full channel) but discards the batches, and waiters must not wait
    /// for discarded points to land.
    degraded: AtomicBool,
    /// The core the shard's ingest thread actually pinned itself to
    /// ([`NOT_PINNED`] when pinning is off or the kernel refused).
    pinned_core: AtomicUsize,
    /// Index-wide notification channel (shared by every shard).
    sync: Arc<ProgressSync>,
}

impl IngestProgress {
    fn new(sync: Arc<ProgressSync>) -> Arc<Self> {
        Arc::new(Self {
            pending: AtomicU64::new(0),
            alive: AtomicBool::new(true),
            degraded: AtomicBool::new(false),
            pinned_core: AtomicUsize::new(NOT_PINNED),
            sync,
        })
    }

    /// The core the ingest worker pinned to, if pinning took effect.
    fn pinned(&self) -> Option<usize> {
        match self.pinned_core.load(Ordering::SeqCst) {
            NOT_PINNED => None,
            core => Some(core),
        }
    }

    /// Worker-side: one batch has landed in (or been rejected by) the
    /// engine.
    fn batch_done(&self, points: u64) {
        self.pending.fetch_sub(points, Ordering::SeqCst);
        drop(self.sync.lock.lock().unwrap_or_else(|e| e.into_inner()));
        self.sync.advanced.notify_all();
    }

    /// Worker-side, on every exit path (panics included): the thread is
    /// gone, wake everyone still waiting on it.
    fn mark_dead(&self) {
        let _g = self.sync.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.alive.store(false, Ordering::SeqCst);
        self.sync.advanced.notify_all();
    }

    /// Worker-side: the shard's engine degraded to read-only; wake
    /// waiters so they observe the flag instead of sleeping forever on
    /// points that will never land.
    fn set_degraded(&self) {
        let _g = self.sync.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.degraded.store(true, Ordering::SeqCst);
        self.sync.advanced.notify_all();
    }

    fn clear_degraded(&self) {
        self.degraded.store(false, Ordering::SeqCst);
    }

    fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// Blocks until `done()` holds or the worker dies; `true` means the
    /// condition was reached. `done` must read state the worker updates
    /// *before* it notifies (the engine length, the pending counter).
    ///
    /// `bail_on_degraded` decides what a degraded shard means for this
    /// waiter: a degraded worker still *drains* (and discards) the queue,
    /// so drain-progress conditions (`pending == 0`) keep advancing and
    /// must keep waiting — but visibility conditions (`engine.len() >
    /// local`) can never come true for a discarded point, so those
    /// waiters bail and re-check once.
    fn wait_until(&self, done: impl Fn() -> bool, bail_on_degraded: bool) -> bool {
        let mut g = self.sync.lock.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if done() {
                return true;
            }
            if !self.alive.load(Ordering::SeqCst)
                || (bail_on_degraded && self.degraded.load(Ordering::SeqCst))
            {
                // The worker may have completed this very work on its way
                // out; one final check decides.
                return done();
            }
            g = self
                .sync
                .advanced
                .wait(g)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Routing state, serialized by the router mutex: the global id counter
/// and the sliding-window cut. Per-shard occupancy and retirement are
/// not stored — both are [`routed`] counts at these two positions.
///
/// The window is cluster-driven: per-shard engines are built *without* a
/// [`WindowSpec`] and receive explicit [`StreamingEngine::retire_to`]
/// cuts instead, so every shard retires at the same global stream
/// position even though global ids interleave across shards.
struct Router {
    next_global: u32,
    /// Global id below which the window has retired everything; ids in
    /// `retire_cursor..next_global` are live. Only moves forward.
    retire_cursor: u32,
    /// Batch birth times for a [`WindowSpec::Duration`] window:
    /// `(inserted_at, end_global)` per routed batch, popped once aged out.
    /// Lost across [`ShardedIndex::recover_from`] — the recovered
    /// watermark is preserved and the clock restarts, so the window never
    /// moves backwards.
    births: VecDeque<(Instant, u32)>,
}

/// Aggregate accounting for a sharded index.
#[derive(Debug, Clone)]
pub struct ShardedStats {
    /// Points per shard (routed, including queued ones).
    pub points_per_shard: Vec<usize>,
    /// Sum of per-shard merge counts.
    pub merges: u64,
    /// Per-shard engine accounting.
    pub engines: Vec<EngineStats>,
}

impl ShardedStats {
    /// Total routed points.
    pub fn total_points(&self) -> usize {
        self.points_per_shard.iter().sum()
    }

    /// Largest shard ÷ mean shard occupancy (1.0 = perfectly even).
    /// Arithmetic routing deals ids round-robin, so this is at most
    /// `⌈n/S⌉ ÷ (n/S)`.
    pub fn routing_imbalance(&self) -> f64 {
        let n = self.total_points();
        if n == 0 {
            return 1.0;
        }
        let mean = n as f64 / self.points_per_shard.len() as f64;
        let max = *self.points_per_shard.iter().max().unwrap() as f64;
        max / mean
    }
}

/// The shard-per-core streaming cluster (see the module docs).
///
/// All operations take `&self`; ingest, merges, and queries overlap freely
/// across threads. Routing and queueing serialize on an internal mutex;
/// queries never touch it.
pub struct ShardedIndex {
    dim: u32,
    per_shard_capacity: usize,
    /// The cluster-level sliding window (shard engines are windowless;
    /// the router ships them explicit cuts — see [`Router`]).
    window: Option<WindowSpec>,
    shards: Vec<Shard>,
    fanout: ThreadPool,
    router: Mutex<Router>,
    /// Mirror of `Router::next_global` for lock-free `len()` — the router
    /// mutex is held across back-pressured queue sends, so readers must
    /// not need it.
    total: AtomicU64,
    /// The condvar every shard's ingest thread notifies per drained batch
    /// — the cluster-wide sleep channel for
    /// [`wait_for_visible`](Self::wait_for_visible).
    ingest_sync: Arc<ProgressSync>,
}

impl ShardedIndex {
    /// Starts building a sharded index; `node` is the per-shard engine
    /// template (its `capacity` is the per-shard `C`, as in the paper's
    /// per-node capacity).
    pub fn builder(node: EngineConfig) -> ShardedIndexBuilder {
        ShardedIndexBuilder {
            node,
            shards: None,
            threads: None,
            queue_batches: 4,
            ingest_rate: None,
            profile: None,
        }
    }

    /// The routing function: which shard owns global id `id` — `id % S`.
    /// Its shard-local id is `id / S`; ids are assigned in order, so
    /// every shard's occupancy is within one of every other's.
    pub fn route(&self, id: u32) -> usize {
        id as usize % self.shards.len()
    }

    /// Shard-local id of global id `id` (on shard [`route`](Self::route)).
    fn local(&self, id: u32) -> u32 {
        id / self.shards.len() as u32
    }

    /// Global id of shard `shard`'s local id `local`.
    fn global(&self, shard: usize, local: u32) -> u32 {
        local * self.shards.len() as u32 + shard as u32
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The cluster-level sliding window, if one was configured.
    pub fn window(&self) -> Option<WindowSpec> {
        self.window
    }

    /// Global id below which the sliding window has retired everything
    /// (0 without a window). Monotone.
    pub fn retired_below(&self) -> u32 {
        self.router
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .retire_cursor
    }

    /// Borrow one shard's streaming engine (tests, experiments).
    pub fn shard(&self, i: usize) -> &StreamingEngine {
        &self.shards[i].engine
    }

    /// The query fan-out pool.
    pub fn pool(&self) -> &ThreadPool {
        &self.fanout
    }

    /// Total points routed into the index (some may still be in flight in
    /// shard queues; [`flush`](Self::flush) is the visibility barrier).
    /// Lock-free: never stalls behind a back-pressured `insert_batch`.
    pub fn len(&self) -> usize {
        self.total.load(Ordering::Acquire) as usize
    }

    /// True when nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Points currently visible to queries (static + sealed across all
    /// shards).
    pub fn visible_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.engine.engine().visible_len())
            .sum()
    }

    /// Routes a batch into the per-shard ingest queues; returns the global id
    /// of every point, in input order.
    ///
    /// The batch is all-or-nothing: dimensionality and per-shard capacity
    /// are validated before anything is enqueued. Points become
    /// query-visible when their shard's ingest thread has drained them —
    /// immediately under light load, or after back-pressure delay when a
    /// shard's queue is full ([`flush`](Self::flush) waits for all of it).
    /// Back-pressure also serializes concurrent `insert_batch` callers
    /// (routing order must match queue order); queries, `len`, and
    /// `stats` never wait on it.
    pub fn insert_batch(&self, vs: &[SparseVector]) -> Result<Vec<u32>> {
        for v in vs {
            if let Some(max) = v.max_index() {
                if max >= self.dim {
                    return Err(ClusterError::Node(PlshError::DimensionOutOfRange {
                        index: max,
                        dim: self.dim,
                    }));
                }
            }
        }
        let mut router = self.router.lock().unwrap_or_else(|e| e.into_inner());
        if router.next_global as usize + vs.len() > u32::MAX as usize {
            return Err(ClusterError::Node(PlshError::CapacityExceeded {
                capacity: u32::MAX as usize,
            }));
        }
        // Check capacity for the whole batch before applying any of it.
        let n = self.shards.len();
        let (from, to) = (router.next_global, router.next_global + vs.len() as u32);
        for shard in 0..n {
            if routed(to, shard, n) == routed(from, shard, n) {
                continue;
            }
            // Occupancy counts live rows only: a window's retired prefix
            // is reclaimed by each shard's merge compaction, so it does
            // not consume capacity (without a window the cursor stays at
            // zero and this is the classic check).
            let live = routed(to, shard, n) - routed(router.retire_cursor, shard, n);
            if live > self.per_shard_capacity {
                return Err(ClusterError::Node(PlshError::CapacityExceeded {
                    capacity: self.per_shard_capacity,
                }));
            }
            // Fail fast instead of queueing onto a worker that can never
            // land the points.
            let target = &self.shards[shard];
            if !target.progress.alive.load(Ordering::SeqCst) {
                return Err(ClusterError::IngestWorkerDied { shard });
            }
            if target.progress.is_degraded() {
                return Err(ClusterError::Node(PlshError::Degraded(
                    target
                        .engine
                        .engine()
                        .degraded_reason()
                        .unwrap_or_else(|| "shard ingest degraded to read-only".into()),
                )));
            }
        }
        // Apply: assign ids, then enqueue. The router lock is held across
        // the channel sends so that concurrent insert_batch calls cannot
        // interleave their per-shard queue order with id order — a shard's
        // local ids are its engine's arrival order.
        let ids: Vec<u32> = (from..to).collect();
        let mut per_shard: Vec<Vec<SparseVector>> = vec![Vec::new(); n];
        for (&gid, v) in ids.iter().zip(vs) {
            per_shard[self.route(gid)].push(v.clone());
        }
        router.next_global = to;
        self.total.store(to as u64, Ordering::Release);
        // Advance the sliding window to the new stream head; the global
        // cut maps to each shard's local watermark in closed form.
        let mut cuts: Vec<Option<u32>> = vec![None; n];
        if let Some(spec) = self.window {
            let cut = match spec {
                WindowSpec::Docs(size) => router.next_global.saturating_sub(size),
                WindowSpec::Duration(d) => {
                    let now = Instant::now();
                    if !vs.is_empty() {
                        let end = router.next_global;
                        router.births.push_back((now, end));
                    }
                    let mut cut = router.retire_cursor;
                    while let Some(&(at, end)) = router.births.front() {
                        if now.duration_since(at) < d {
                            break;
                        }
                        cut = cut.max(end);
                        router.births.pop_front();
                    }
                    cut
                }
            };
            if cut > router.retire_cursor {
                for (shard, slot) in cuts.iter_mut().enumerate() {
                    let retired = routed(cut, shard, n);
                    if retired > routed(router.retire_cursor, shard, n) {
                        *slot = Some(retired as u32);
                    }
                }
                router.retire_cursor = cut;
            }
        }
        // A dead shard's ids are lost, but the others still get theirs:
        // their local ids must stay `gid / S`.
        let mut died = None;
        for (shard, docs) in per_shard.into_iter().enumerate() {
            // Shards whose watermark advanced but got no docs still
            // receive an (empty) batch carrying the cut, so the window
            // edge stays consistent across shards.
            let retire_to = cuts[shard];
            if docs.is_empty() && retire_to.is_none() {
                continue;
            }
            let len = docs.len();
            self.shards[shard]
                .progress
                .pending
                .fetch_add(len as u64, Ordering::SeqCst);
            let sent = self.shards[shard]
                .tx
                .as_ref()
                .expect("ingest queues live as long as the index")
                .send(ShardBatch { docs, retire_to });
            if sent.is_err() {
                // The worker died between the pre-check and the send (the
                // channel is disconnected, so this returns immediately —
                // it can never block forever on a dead drain). The ids
                // routed to the dead shard are lost; surface that.
                self.shards[shard]
                    .progress
                    .pending
                    .fetch_sub(len as u64, Ordering::SeqCst);
                died.get_or_insert(shard);
            }
        }
        match died {
            Some(shard) => Err(ClusterError::IngestWorkerDied { shard }),
            None => Ok(ids),
        }
    }

    /// Inserts one vector; returns its global id.
    pub fn insert(&self, v: SparseVector) -> Result<u32> {
        Ok(self.insert_batch(std::slice::from_ref(&v))?[0])
    }

    /// Visibility barrier: blocks until every routed point has been
    /// drained from the shard queues and sealed (so all of them are
    /// query-visible) and, under a window, every shard's retirement
    /// watermark has reached the router's cut. Does *not* wait for
    /// background merges — answers are identical either way.
    ///
    /// Waits on each shard's ingest condvar (woken per drained batch, so
    /// a paced queue sleeps instead of spinning). Returns
    /// [`ClusterError::IngestWorkerDied`] if a shard's ingest worker died
    /// with routed points undrained — the barrier can never be reached —
    /// instead of blocking forever. A *degraded* shard still flushes
    /// `Ok`: its worker keeps draining (discarding) the queue, and the
    /// degradation itself is reported by [`health`](Self::health) and by
    /// every write.
    pub fn flush(&self) -> Result<()> {
        for (i, shard) in self.shards.iter().enumerate() {
            // A degraded worker keeps draining (discarding), so the
            // barrier is still reachable: wait through degradation.
            let drained = shard
                .progress
                .wait_until(|| shard.progress.pending.load(Ordering::SeqCst) == 0, false);
            if !drained {
                return Err(ClusterError::IngestWorkerDied { shard: i });
            }
            // Seal anything a seal_min_points > 1 config left buffered.
            shard.engine.seal();
        }
        if self.window.is_some() {
            // A batch carrying only a window cut holds no points, so the
            // drain above does not wait for it: re-apply the router's cuts
            // (watermarks are monotone, so this is idempotent) to leave the
            // window edge consistent across shards when the barrier returns.
            let cut = self.retired_below();
            for (i, shard) in self.shards.iter().enumerate() {
                // A degraded shard refuses; `health` reports that.
                let _ = shard
                    .engine
                    .retire_to(routed(cut, i, self.shards.len()) as u32);
            }
        }
        Ok(())
    }

    /// Query-visibility back-pressure: blocks until at least `min` points
    /// are visible to queries across the shards, then returns the visible
    /// count. Sleeps on the cluster-wide ingest condvar (woken once per
    /// drained batch by any shard) instead of polling
    /// [`visible_len`](Self::visible_len) in a spin loop.
    ///
    /// This is a *liveness* barrier for readers racing a live writer: it
    /// gives up — returning the current, possibly smaller, count — only
    /// when every shard's ingest worker has died, since visibility could
    /// then never advance. It does not time out; with no writer and no
    /// routed points it waits indefinitely. A degraded shard's worker
    /// keeps draining (and notifying), so degradation alone never wedges
    /// it, but discarded points do not count toward `min` — callers
    /// asserting exact totals should use [`flush`](Self::flush), which
    /// reports degradation explicitly.
    pub fn wait_for_visible(&self, min: usize) -> usize {
        let mut g = self
            .ingest_sync
            .lock
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        loop {
            let visible = self.visible_len();
            if visible >= min {
                return visible;
            }
            let all_dead = self
                .shards
                .iter()
                .all(|s| !s.progress.alive.load(Ordering::SeqCst));
            if all_dead {
                return visible;
            }
            g = self
                .ingest_sync
                .advanced
                .wait(g)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Full quiesce: [`flush`](Self::flush), then fold every shard's
    /// sealed generations into its static tables (waiting out in-flight
    /// background merges first).
    pub fn quiesce(&self) -> Result<()> {
        self.flush()?;
        for shard in &self.shards {
            shard.engine.flush();
        }
        Ok(())
    }

    /// Starts a background merge on every shard that has sealed data;
    /// returns how many shards started one. Merges on different shards
    /// build concurrently — with each other, with ingest, and with
    /// queries.
    pub fn merge_all_in_background(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| s.engine.merge_in_background())
            .count()
    }

    /// True while any shard has a background merge building.
    pub fn any_merge_in_flight(&self) -> bool {
        self.shards.iter().any(|s| s.engine.merge_in_flight())
    }

    /// Blocks until every shard's in-flight background merge (if any) has
    /// published. Does not force new merges — see
    /// [`quiesce`](Self::quiesce) for that.
    pub fn wait_for_merges(&self) {
        for shard in &self.shards {
            shard.engine.wait_for_merge();
        }
    }

    /// Deadline-bounded graceful drain, the sharded counterpart of
    /// [`StreamingEngine::shutdown`]: best-effort wait for the routed
    /// ingest backlog to drain (a dead worker's backlog can never drain —
    /// that shard is skipped rather than waited on), then shut each
    /// shard's engine down within what remains of the deadline. The
    /// folded report ANDs `drained` and ORs `merge_abandoned`, so
    /// `drained: false` means at least one shard kept undrained or
    /// unsealed rows.
    pub fn shutdown(&self, deadline: Duration) -> ShutdownReport {
        let end = Instant::now() + deadline;
        let mut drained = true;
        for shard in &self.shards {
            while shard.progress.pending.load(Ordering::SeqCst) > 0
                && shard.progress.alive.load(Ordering::SeqCst)
                && Instant::now() < end
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            drained &= shard.progress.pending.load(Ordering::SeqCst) == 0;
        }
        let mut merge_abandoned = false;
        for shard in &self.shards {
            let remaining = end.saturating_duration_since(Instant::now());
            let report = shard.engine.shutdown(remaining);
            drained &= report.drained;
            merge_abandoned |= report.merge_abandoned;
        }
        ShutdownReport {
            drained,
            merge_abandoned,
        }
    }

    /// Tombstones a point by global id; `Ok(false)` if unknown or already
    /// deleted. If the point is still in flight in its shard's ingest
    /// queue, this waits on the shard's ingest condvar (woken per drained
    /// batch — no polling) for it to land first; the id was assigned at
    /// routing time, so it arrives unless the shard's ingest worker has
    /// died, in which case this returns
    /// [`ClusterError::IngestWorkerDied`] instead of waiting forever.
    pub fn delete(&self, id: u32) -> Result<bool> {
        if id as usize >= self.len() {
            return Ok(false);
        }
        let local = self.local(id);
        let shard_id = self.route(id);
        let shard = &self.shards[shard_id];
        let landed = shard
            .progress
            .wait_until(|| shard.engine.len() > local as usize, true);
        if !landed {
            if shard.progress.is_degraded() {
                // The point was discarded by a degraded shard: it will
                // never land, and the write path is read-only anyway.
                return Err(ClusterError::Node(PlshError::Degraded(
                    shard
                        .engine
                        .engine()
                        .degraded_reason()
                        .unwrap_or_else(|| "shard ingest degraded to read-only".into()),
                )));
            }
            // The ingest worker exited while the point was still in
            // flight: it will never land.
            return Err(ClusterError::IngestWorkerDied { shard: shard_id });
        }
        shard
            .engine
            .engine()
            .try_delete(local)
            .map_err(ClusterError::Node)
    }

    /// The stored vector for global id `id`, or `None` when the id is
    /// unknown, still in flight, or purged by a past merge.
    pub fn vector(&self, id: u32) -> Option<SparseVector> {
        if id as usize >= self.len() {
            return None;
        }
        self.shards[self.route(id)]
            .engine
            .engine()
            .vector(self.local(id))
    }

    /// Aggregate accounting. Lock-free with respect to the router (so a
    /// monitoring thread never stalls behind a back-pressured
    /// `insert_batch`): per-shard occupancy is read as drained points
    /// plus queued points, an advisory snapshot that can momentarily lag
    /// an in-flight routing by a batch.
    pub fn stats(&self) -> ShardedStats {
        let engines: Vec<EngineStats> = self
            .shards
            .iter()
            .map(|s| {
                let mut e = s.engine.stats();
                e.pending_ingest = s.progress.pending.load(Ordering::SeqCst);
                e
            })
            .collect();
        let points_per_shard = self
            .shards
            .iter()
            .zip(&engines)
            .map(|(s, e)| e.total_points + s.progress.pending.load(Ordering::SeqCst) as usize)
            .collect();
        ShardedStats {
            points_per_shard,
            merges: engines.iter().map(|e| e.merges).sum(),
            engines,
        }
    }

    /// Most recent merge reports, one per shard.
    pub fn last_merges(&self) -> Vec<MergeReport> {
        self.shards.iter().map(|s| s.engine.last_merge()).collect()
    }

    /// Answers one [`SearchRequest`] with the index's own fan-out pool —
    /// see [`search_with`](Self::search_with).
    pub fn search(&self, req: &SearchRequest) -> CoreResult<SearchResponse> {
        self.search_with(req, &self.fanout)
    }

    /// Answers one [`SearchRequest`]: one work-stealing task per shard
    /// pins that shard's epoch and answers the whole request locally
    /// (shard-local scratch, serial per-shard pool), then the coordinator
    /// translates every hit to its global id (attributing the owning shard
    /// in [`SearchHit::node`]), concatenates radius answers exactly, and
    /// k-way re-ranks k-NN answers by `(distance, global id)` — the same
    /// tie-break a single engine applies, so answer sets are
    /// bit-identical.
    ///
    /// A [`SearchRequest::with_max_candidates`] budget is global: it is
    /// divided across the shards (evenly, remainder to the
    /// lowest-numbered shards, floored at one candidate per shard), so
    /// the aggregate candidates examined never exceed a single engine's
    /// under the same budget (up to the floor when the budget is smaller
    /// than the shard count).
    ///
    /// Counters aggregate across shards; [`SearchResponse::epoch`] is
    /// `None` (each shard pins its own).
    pub fn search_with(
        &self,
        req: &SearchRequest,
        pool: &ThreadPool,
    ) -> CoreResult<SearchResponse> {
        req.validate(self.dim)?;
        let start = Instant::now();
        if let Some(deadline) = req.shard_deadline() {
            return self.search_with_deadline(req, deadline, start);
        }
        let shard_reqs: Option<Vec<SearchRequest>> = req.max_candidates().map(|budget| {
            split_budget(budget, self.shards.len())
                .into_iter()
                .map(|b| req.clone().with_max_candidates(b))
                .collect()
        });
        let partials: Vec<CoreResult<SearchResponse>> = match &shard_reqs {
            Some(reqs) => pool.parallel_map(self.shards.iter().zip(reqs), |(shard, r)| {
                fault::point(fault::QUERY_SHARD);
                shard.engine.search(r)
            }),
            None => pool.parallel_map(self.shards.iter(), |shard| {
                fault::point(fault::QUERY_SHARD);
                shard.engine.search(req)
            }),
        };
        merge_partial_responses(
            req.queries().len(),
            req.mode(),
            start,
            partials,
            |shard_id, h| SearchHit {
                node: shard_id as u32,
                index: self.global(shard_id, h.index),
                distance: h.distance,
            },
        )
    }

    /// Deadline-bounded fan-out: one dedicated thread per shard (the
    /// work-stealing pool cannot abandon a stalled task), a condvar-timed
    /// wait on the coordinator. Shards that miss the deadline — or whose
    /// query thread panics — are dropped from the answer and listed in
    /// [`SearchResponse::timed_out_shards`]; their threads are detached
    /// and finish (or die) harmlessly against their pinned epoch.
    fn search_with_deadline(
        &self,
        req: &SearchRequest,
        deadline: Duration,
        start: Instant,
    ) -> CoreResult<SearchResponse> {
        let n = self.shards.len();
        let nq = req.queries().len();
        let shard_reqs: Vec<SearchRequest> = match req.max_candidates() {
            Some(budget) => split_budget(budget, n)
                .into_iter()
                .map(|b| req.clone().with_max_candidates(b))
                .collect(),
            None => (0..n).map(|_| req.clone()).collect(),
        };
        type Slots = (Mutex<Vec<Option<CoreResult<SearchResponse>>>>, Condvar);
        let slots: Arc<Slots> =
            Arc::new((Mutex::new((0..n).map(|_| None).collect()), Condvar::new()));
        for (i, (shard, r)) in self.shards.iter().zip(shard_reqs).enumerate() {
            let engine = shard.engine.clone();
            let slots = Arc::clone(&slots);
            std::thread::spawn(move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    fault::point(fault::QUERY_SHARD);
                    engine.search(&r)
                }));
                if let Ok(resp) = outcome {
                    let (lock, cv) = &*slots;
                    let mut filled = lock.lock().unwrap_or_else(|e| e.into_inner());
                    filled[i] = Some(resp);
                    cv.notify_all();
                }
                // A panicked shard leaves its slot None — same as a
                // timeout: flagged, not fatal.
            });
        }
        let deadline_at = start + deadline;
        let (lock, cv) = &*slots;
        let mut filled = lock.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if filled.iter().all(Option::is_some) {
                break;
            }
            let now = Instant::now();
            if now >= deadline_at {
                break;
            }
            let (guard, _timeout) = cv
                .wait_timeout(filled, deadline_at - now)
                .unwrap_or_else(|e| e.into_inner());
            filled = guard;
        }
        let mut timed_out = Vec::new();
        let partials: Vec<CoreResult<SearchResponse>> = filled
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| match slot.take() {
                Some(resp) => resp,
                None => {
                    timed_out.push(i as u32);
                    Ok(SearchResponse {
                        results: vec![Vec::new(); nq],
                        stats: None,
                        phase_timings: None,
                        epoch: None,
                        timed_out_shards: Vec::new(),
                    })
                }
            })
            .collect();
        drop(filled);
        let mut resp =
            merge_partial_responses(nq, req.mode(), start, partials, |shard_id, h| SearchHit {
                node: shard_id as u32,
                index: self.global(shard_id, h.index),
                distance: h.distance,
            })?;
        resp.timed_out_shards = timed_out;
        Ok(resp)
    }

    /// Aggregate health: every shard engine's report (names prefixed
    /// `shard<i>.`) plus one ingest-worker entry per shard. `degraded` is
    /// the OR across shards; `pending_ingest` sums the routed-not-drained
    /// backlog.
    pub fn health(&self) -> HealthReport {
        let mut report = HealthReport::default();
        for (i, shard) in self.shards.iter().enumerate() {
            let mut child = shard.engine.health();
            child.pending_ingest = shard.progress.pending.load(Ordering::SeqCst);
            report.absorb(&format!("shard{i}"), child);
            report.workers.push(WorkerHealth {
                name: format!("shard{i}.ingest"),
                alive: shard.status.alive() && shard.progress.alive.load(Ordering::SeqCst),
                restarts: shard.status.restarts(),
                last_panic: shard.status.last_panic(),
                pinned_core: shard.progress.pinned(),
            });
        }
        report
    }

    /// Attempts to lift every degraded shard back to read-write by
    /// re-syncing its persistence from memory (see
    /// [`Engine::heal`](plsh_core::engine::Engine::heal)). Returns `true`
    /// when no shard remains degraded. Ingest workers that exhausted
    /// their restart budget stay dead — they exit their thread, so only
    /// reconstruction ([`recover_from`](Self::recover_from)) revives
    /// them.
    pub fn heal(&self) -> bool {
        let mut ok = true;
        for shard in &self.shards {
            if shard.engine.heal() {
                shard.progress.clear_degraded();
            } else {
                ok = false;
            }
        }
        ok
    }

    /// Captures the whole sharded corpus as one flattened [`Snapshot`] in
    /// global-id order — the same format a single engine writes, so
    /// [`Snapshot::restore`] yields a single
    /// [`Engine`](plsh_core::engine::Engine) answering identically to
    /// this index over the captured rows.
    ///
    /// Everything lands in the snapshot's static prefix (`static_len` =
    /// total): the per-shard static/delta splits and generation
    /// boundaries are ingest-batching artifacts with no effect on
    /// answers. Purged and pending tombstones are translated to global
    /// ids; restore replays the purges through its own merge, so the
    /// purge accounting survives the round-trip.
    ///
    /// Calls [`flush`](Self::flush) first so every routed point is
    /// captured; inserts racing the capture are truncated to the longest
    /// dense global-id prefix.
    pub fn snapshot(&self) -> Snapshot {
        // Best-effort barrier: a dead or degraded shard cannot drain, so
        // capture whatever landed (the dense-prefix truncation below
        // keeps the snapshot consistent regardless).
        let _ = self.flush();
        // The flattened snapshot starts at the cluster's window cut:
        // globals below it are dead by range tombstone, and some of their
        // rows are already physically gone (a compacted shard cannot
        // produce them), so the dense range the snapshot format requires
        // begins at the cut. Dead-but-resident rows on shards whose merge
        // lags are simply not captured — the restored engine starts past
        // them with no purge backlog.
        let (total, cut) = {
            let router = self.router.lock().unwrap_or_else(|e| e.into_inner());
            (router.next_global as usize, router.retire_cursor as usize)
        };
        let caps: Vec<Snapshot> = self
            .shards
            .iter()
            .map(|s| Snapshot::capture(s.engine.engine()))
            .collect();
        let mut rows: Vec<Option<SparseVector>> = vec![None; total - cut];
        let mut deleted = Vec::new();
        let mut purged = Vec::new();
        for (shard, cap) in caps.iter().enumerate() {
            // `cap.vectors` holds resident rows only; `cap.base` is the
            // shard-local id of the first one (nonzero once a windowed
            // shard has compacted).
            for (local, v) in (cap.base as u32..).zip(&cap.vectors) {
                let g = self.global(shard, local) as usize;
                if g >= cut && g < total {
                    rows[g - cut] = Some(v.clone());
                }
            }
            deleted.extend(cap.deleted.iter().map(|&l| self.global(shard, l)));
            purged.extend(cap.purged.iter().map(|&l| self.global(shard, l)));
        }
        let keep = cut + rows.iter().position(Option::is_none).unwrap_or(total - cut);
        rows.truncate(keep - cut);
        deleted.retain(|&g| (g as usize) >= cut && (g as usize) < keep);
        purged.retain(|&g| (g as usize) >= cut && (g as usize) < keep);
        deleted.sort_unstable();
        deleted.dedup();
        purged.sort_unstable();
        Snapshot {
            params: caps[0].params.clone(),
            capacity: (self.per_shard_capacity * self.shards.len()) as u64,
            eta: caps[0].eta,
            static_len: (keep - cut) as u64,
            // Everything below the cut is compacted away; the restored
            // engine's id space starts there with no pending retirement.
            base: cut as u64,
            retired_below: cut as u64,
            vectors: rows.into_iter().map(|r| r.expect("dense prefix")).collect(),
            deleted,
            purged,
        }
    }

    /// Attaches incremental durability to every shard: writes a baseline
    /// of the current contents into `dir` — one [`plsh_core::persist`]
    /// engine directory per shard under `shard-<i>/` — then seals the
    /// cluster with a checksummed top-level manifest and keeps each shard
    /// directory in sync from every insert, seal, delete, and merge. The
    /// cluster manifest is written last (atomically, via rename), so a
    /// crash mid-`persist_to` leaves a directory
    /// [`recover_from`](Self::recover_from) cleanly rejects rather than a
    /// torn cluster.
    ///
    /// No id map is stored: routing is arithmetic on the global id
    /// ([`route`](Self::route)), so the shard count in the manifest is
    /// all recovery needs to place every row.
    pub fn persist_to(&self, dir: impl AsRef<Path>) -> Result<()> {
        let dir = dir.as_ref();
        self.flush()?;
        fs::create_dir_all(dir).map_err(io_cluster)?;
        if dir.join(CLUSTER_MANIFEST).exists() {
            return Err(io_cluster(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("{}: already holds a persisted index", dir.display()),
            )));
        }
        for (i, shard) in self.shards.iter().enumerate() {
            shard
                .engine
                .persist_to(shard_dir(dir, i))
                .map_err(ClusterError::Node)?;
        }
        let manifest = encode_cluster_manifest(
            self.shards.len() as u32,
            self.dim,
            self.per_shard_capacity as u64,
            self.window,
        );
        persist::write_atomic(&dir.join(CLUSTER_MANIFEST), &manifest).map_err(io_cluster)?;
        Ok(())
    }

    /// Recovers a sharded index from a directory written by
    /// [`persist_to`](Self::persist_to), re-attaching persistence so the
    /// recovered shards keep journaling.
    ///
    /// Every shard first recovers its own durable prefix (segments, then
    /// the WAL tail). A crash can land mid-batch with some shards ahead
    /// of others, so the cluster then truncates to the longest globally
    /// contiguous id prefix: shard `s` recovering `n_s` ids first misses
    /// global `n_s·S + s`, so the prefix is `min_s(n_s·S + s)`. Shards
    /// holding rows beyond it are rebuilt to the kept prefix and
    /// re-baselined on disk. Answers are identical to a from-scratch
    /// build over the recovered prefix (property-tested). Only cluster
    /// manifest v3 is read; older directories are refused.
    pub fn recover_from(dir: impl AsRef<Path>) -> Result<ShardedIndex> {
        let dir = dir.as_ref();
        let bytes = fs::read(dir.join(CLUSTER_MANIFEST)).map_err(|e| {
            io_cluster(io::Error::new(
                e.kind(),
                format!("{}: no recoverable sharded index ({e})", dir.display()),
            ))
        })?;
        let (num_shards, dim, per_shard_capacity, window) =
            decode_cluster_manifest(&bytes).map_err(io_cluster)?;
        let fanout = repin_fanout(ThreadPool::default(), num_shards as usize);
        let states = (0..num_shards as usize)
            .map(|i| persist::load_state(shard_dir(dir, i)))
            .collect::<io::Result<Vec<_>>>()
            .map_err(io_cluster)?;
        for st in &states {
            if st.params().dim() != dim {
                return Err(ClusterError::Topology(format!(
                    "shard dimensionality {} does not match the cluster manifest's {dim}",
                    st.params().dim()
                )));
            }
        }
        // Longest globally contiguous prefix. A shard's durable coverage
        // is its whole id *space* — the window-compacted prefix included:
        // those ids existed and are dead, not missing.
        let s = states.len();
        let covered = |st: &persist::RecoveredState| st.static_base() as usize + st.total();
        let total = states
            .iter()
            .enumerate()
            .map(|(i, st)| (covered(st) * s + i).min(u32::MAX as usize))
            .min()
            .expect("at least one shard") as u32;
        let sync = ProgressSync::new();
        let mut shard_handles = Vec::with_capacity(s);
        for (i, st) in states.iter().enumerate() {
            let sdir = shard_dir(dir, i);
            let keep = routed(total, i, s);
            let engine = if keep == covered(st) {
                persist::recover_engine_from_state(&sdir, st, &fanout)
                    .map_err(ClusterError::Node)?
            } else {
                // This shard ran ahead of the crashed batch: rebuild the
                // kept prefix and lay down a fresh baseline. `keep` counts
                // id-space positions; the rebuild wants *resident* rows
                // past the compaction cut (saturating: a truncation point
                // inside the compacted prefix keeps no rows).
                let resident = keep.saturating_sub(st.static_base() as usize);
                let engine = persist::rebuild_engine(st, Some(resident), &fanout)
                    .map_err(ClusterError::Node)?;
                fs::remove_dir_all(&sdir).map_err(io_cluster)?;
                engine.persist_to(&sdir).map_err(ClusterError::Node)?;
                engine
            };
            let streaming = StreamingEngine::from_engine(engine, ThreadPool::new(1));
            let pin_core = shard_core(i);
            if let Some(core) = pin_core {
                streaming.pin_merge_to(core);
            }
            let (tx, rx) = sync_channel::<ShardBatch>(4);
            let progress = IngestProgress::new(sync.clone());
            let status = Arc::new(WorkerStatus::new());
            let worker = spawn_ingest_worker(
                streaming.clone(),
                rx,
                progress.clone(),
                status.clone(),
                None,
                pin_core,
            );
            shard_handles.push(Shard {
                engine: streaming,
                tx: Some(tx),
                worker: Some(worker),
                progress,
                status,
            });
        }
        // Re-arm the cluster window cut. Each shard recovered its own
        // local watermark (manifest + retire log); a crash can land with
        // shards at different cuts, so pick the smallest global cursor
        // whose routing covers every recovered watermark — shard `s`'s
        // `r`-th id is `(r−1)·S + s` — and retire the lagging shards up to
        // it, so the recovered index sits on one consistent cross-shard
        // window edge (watermarks are monotone, so this only ever advances
        // a shard). A `Duration` window's birth clock restarts here: the
        // preserved watermark keeps the window from moving backwards, and
        // new inserts age out normally.
        let retire_cursor = shard_handles
            .iter()
            .enumerate()
            .map(|(i, h)| match h.engine.engine().retired_below() {
                0 => 0,
                r => ((r as usize - 1) * s + i + 1).min(total as usize) as u32,
            })
            .max()
            .unwrap_or(0);
        if retire_cursor > 0 {
            for (i, h) in shard_handles.iter().enumerate() {
                let _ = h.engine.retire_to(routed(retire_cursor, i, s) as u32);
            }
        }
        Ok(ShardedIndex {
            dim,
            per_shard_capacity: per_shard_capacity as usize,
            window,
            shards: shard_handles,
            fanout,
            router: Mutex::new(Router {
                next_global: total,
                retire_cursor,
                births: VecDeque::new(),
            }),
            total: AtomicU64::new(total as u64),
            ingest_sync: sync,
        })
    }
}

impl SearchBackend for ShardedIndex {
    fn search(&self, req: &SearchRequest, pool: &ThreadPool) -> CoreResult<SearchResponse> {
        ShardedIndex::search_with(self, req, pool)
    }
}

impl Drop for ShardedIndex {
    fn drop(&mut self) {
        for shard in &mut self.shards {
            drop(shard.tx.take()); // close the queue: the worker drains and exits
        }
        for shard in &mut self.shards {
            if let Some(handle) = shard.worker.take() {
                // Workers contain their own panics (supervised restarts)
                // and mark themselves dead on exhaustion; a join failure
                // here carries nothing worth re-raising.
                let _ = handle.join();
            }
        }
    }
}

impl std::fmt::Debug for ShardedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("shards", &self.shards.len())
            .field("points", &self.len())
            .field("per_shard_capacity", &self.per_shard_capacity)
            .finish_non_exhaustive()
    }
}

/// Divides a global candidate budget across `shards`: `b / S` each, the
/// first `b % S` shards one more, floored at one (a zero budget is not a
/// valid request, so shards keep a minimal probe when `b < S`).
fn split_budget(budget: usize, shards: usize) -> Vec<usize> {
    let per = budget / shards;
    let extra = budget % shards;
    (0..shards)
        .map(|i| (per + usize::from(i < extra)).max(1))
        .collect()
}

// ---------------------------------------------------------------------
// Persistence layout
// ---------------------------------------------------------------------

/// Top-level cluster manifest file name.
const CLUSTER_MANIFEST: &str = "MANIFEST";
/// Top-level manifest magic.
const CLUSTER_MAGIC: &[u8; 4] = b"PLSC";
/// Top-level manifest format version. Version 3 lays rows out by
/// arithmetic routing (global `g` on shard `g % S` at local `g / S`);
/// directories of earlier versions used a different placement and are
/// refused.
const CLUSTER_VERSION: u32 = 3;

/// `dir/shard-<i>`: the per-shard engine directory.
fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}"))
}

/// Encodes the cluster manifest with the engine manifest's window tags
/// and FNV-1a checksum; it is written by the same atomic write.
fn encode_cluster_manifest(
    shards: u32,
    dim: u32,
    per_shard_capacity: u64,
    window: Option<WindowSpec>,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(37);
    out.extend_from_slice(CLUSTER_MAGIC);
    out.extend_from_slice(&CLUSTER_VERSION.to_le_bytes());
    out.extend_from_slice(&shards.to_le_bytes());
    out.extend_from_slice(&dim.to_le_bytes());
    out.extend_from_slice(&per_shard_capacity.to_le_bytes());
    let (tag, value) = persist::encode_window(window);
    out.push(tag);
    out.extend_from_slice(&value.to_le_bytes());
    let crc = persist::checksum(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

#[allow(clippy::type_complexity)]
fn decode_cluster_manifest(bytes: &[u8]) -> io::Result<(u32, u32, u64, Option<WindowSpec>)> {
    let bad = |msg: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("cluster manifest: {msg}"),
        )
    };
    if bytes.len() < 12 {
        return Err(bad("wrong length"));
    }
    let (body, crc) = bytes.split_at(bytes.len() - 4);
    if u32::from_le_bytes(crc.try_into().expect("4 bytes")) != persist::checksum(body) {
        return Err(bad("checksum mismatch"));
    }
    if &body[..4] != CLUSTER_MAGIC {
        return Err(bad("bad magic"));
    }
    let word = |at: usize| u32::from_le_bytes(body[at..at + 4].try_into().expect("4 bytes"));
    let version = word(4);
    if version != CLUSTER_VERSION {
        return Err(bad(&format!(
            "unsupported version {version} (this build reads v{CLUSTER_VERSION})"
        )));
    }
    if body.len() != 33 {
        return Err(bad("wrong length"));
    }
    let shards = word(8);
    if shards == 0 {
        return Err(bad("zero shards"));
    }
    let dim = word(12);
    let per_shard_capacity = u64::from_le_bytes(body[16..24].try_into().expect("8 bytes"));
    let value = u64::from_le_bytes(body[25..33].try_into().expect("8 bytes"));
    let window = persist::decode_window(body[24], value).map_err(|e| bad(&e.to_string()))?;
    Ok((shards, dim, per_shard_capacity, window))
}

/// Maps a cluster-level persistence I/O error into the shared error type.
fn io_cluster(e: io::Error) -> ClusterError {
    ClusterError::Node(PlshError::from(e))
}

/// The core shard `i`'s ingest and merge workers pin to, or `None` when
/// pinning is disabled (`PLSH_PIN=off`, a single-core host). Shards wrap
/// modulo the hardware-thread count when there are more shards than cores.
fn shard_core(i: usize) -> Option<usize> {
    affinity::pinning_enabled().then(|| i % affinity::host_threads())
}

/// Re-creates the query fan-out pool pinned to the cores the shard layout
/// leaves free, so query workers never contend with pinned ingest/merge
/// workers for a core. When the shards already cover the machine (or
/// pinning is off) the pool is returned unchanged: the workers float.
fn repin_fanout(fanout: ThreadPool, shards: usize) -> ThreadPool {
    let host = affinity::host_threads();
    if affinity::pinning_enabled() && shards < host {
        let spare: Vec<usize> = (shards..host).collect();
        ThreadPool::with_affinity(fanout.num_threads(), &spare)
    } else {
        fanout
    }
}

/// How many of the global ids `0..n` route to `shard` of `shards`:
/// `⌈(n − shard)/S⌉`, zero when `n ≤ shard`. At the stream head this is
/// the shard's occupancy; at the window cut, its retirement watermark.
fn routed(n: u32, shard: usize, shards: usize) -> usize {
    (n as usize + shards - 1 - shard) / shards
}

/// The shard's ingest thread: drains the queue into the engine, optionally
/// pacing arrivals to `points_per_sec`.
///
/// Pacing is a deadline that advances by `batch / rate` per batch and
/// clamps to *now* whenever the stream has been idle — so the rate always
/// applies to the current burst: there is no catch-up surge after a lull
/// and no phantom delay carried over from earlier traffic (e.g. an
/// unpaced-feeling preload would otherwise push every later batch's due
/// time out by its size).
fn spawn_ingest_worker(
    engine: StreamingEngine,
    rx: Receiver<ShardBatch>,
    progress: Arc<IngestProgress>,
    status: Arc<WorkerStatus>,
    rate: Option<f64>,
    pin_core: Option<usize>,
) -> JoinHandle<()> {
    /// In-place restarts granted per batch before the worker gives up
    /// and dies (surfacing [`ClusterError::IngestWorkerDied`] to senders).
    const MAX_RESTARTS: u32 = 3;
    std::thread::spawn(move || {
        // Marks the shard dead on every exit path — the normal
        // queue-closed return *and* an unwinding panic — so waiters
        // blocked on the condvar fail fast instead of hanging.
        struct DeathNotice(Arc<IngestProgress>);
        impl Drop for DeathNotice {
            fn drop(&mut self) {
                self.0.mark_dead();
            }
        }
        let _notice = DeathNotice(progress.clone());
        // Pin before touching the engine; a refused pin degrades to a
        // floating worker and the health report says so (`pinned_core:
        // None`).
        if let Some(core) = pin_core {
            if affinity::pin_current_thread(core) {
                progress.pinned_core.store(core, Ordering::SeqCst);
            }
        }
        let mut backoff = Backoff::new(
            Duration::from_millis(1),
            Duration::from_millis(50),
            0x7368_6172_6421,
        );
        let mut next_due = Instant::now();
        while let Ok(batch) = rx.recv() {
            let len = batch.docs.len() as u64;
            if let Some(points_per_sec) = rate {
                let now = Instant::now();
                if next_due > now {
                    std::thread::sleep(next_due - now);
                }
                next_due = next_due.max(now)
                    + Duration::from_secs_f64(batch.docs.len() as f64 / points_per_sec);
            }
            // A degraded shard keeps draining (and discarding) routed
            // batches so producers blocked on the bounded channel and
            // flush barriers never hang; the degradation is surfaced by
            // health() and by every subsequent write.
            if progress.is_degraded() {
                progress.batch_done(len);
                continue;
            }
            let mut attempt = 0u32;
            loop {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    fault::point(fault::INGEST_BATCH);
                    engine.insert_batch(&batch.docs)
                }));
                match outcome {
                    Ok(Ok(_)) => {
                        if let Some(cut) = batch.retire_to {
                            // After the docs: the cut may reference ids
                            // this very batch carried, and `retire_to`
                            // clamps to the assigned id range. A failure
                            // here has already degraded the engine; the
                            // next write surfaces it.
                            let _ = engine.retire_to(cut);
                        }
                        backoff.reset();
                        break;
                    }
                    Ok(Err(_)) => {
                        // Typed failure — either the engine degraded to
                        // read-only or routing validation was bypassed.
                        // Flip the shard degraded and keep draining.
                        progress.set_degraded();
                        break;
                    }
                    Err(payload) => {
                        status.record_restart(payload.as_ref());
                        if attempt >= MAX_RESTARTS {
                            status.mark_dead();
                            progress.batch_done(len);
                            return;
                        }
                        attempt += 1;
                        std::thread::sleep(backoff.next_delay());
                    }
                }
            }
            progress.batch_done(len);
        }
    })
}

/// Resolves the model-driven shard count for `profile` and the per-shard
/// engine template: Section 7's query-cost model evaluated at every
/// candidate count, over a synthetic distance sample at the paper's
/// operating point (most of the corpus far from the query, a thin
/// near-duplicate band inside the radius).
///
/// `node.capacity` is taken as the *expected total corpus size* (strong
/// scaling: the prediction divides it across shards, matching
/// [`PerformanceModel::predict_sharded_query_batch`]'s `n` semantics).
/// Since every shard is built with that same capacity, each keeps
/// full-corpus headroom for routing skew; an index deliberately filled
/// toward the `S·C` aggregate should size the shard count explicitly
/// with [`ShardedIndexBuilder::shards`] instead.
fn predict_shard_count(profile: &MachineProfile, node: &EngineConfig) -> usize {
    let params = &node.params;
    let n = node.capacity.max(1);
    // Synthetic distance sample: 2% duplicates near 0, 8% at the radius
    // shoulder, the rest spread toward orthogonality — the shape of the
    // paper's tweet-distance histogram (Figure 3).
    let mut sample = Vec::with_capacity(100);
    for i in 0..100u32 {
        let t = match i {
            0..=1 => 0.05,
            2..=9 => params.radius() as f32,
            _ => 0.9 + 0.7 * (i as f32 - 10.0) / 90.0,
        };
        sample.push(t);
    }
    let (e_coll, e_uniq) = estimate_candidates(&sample, n, params.k(), params.m());
    let model = PerformanceModel::new(*profile);
    let max = profile.threads.clamp(1, MAX_MODEL_SHARDS);
    model.pick_shard_count(MODEL_BATCH_QUERIES, n, 7.2, e_coll, e_uniq, params, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use plsh_core::params::PlshParams;
    use plsh_core::rng::SplitMix64;

    fn params(dim: u32) -> PlshParams {
        PlshParams::builder(dim)
            .k(6)
            .m(6)
            .radius(0.9)
            .seed(11)
            .build()
            .unwrap()
    }

    fn random_vecs(n: usize, seed: u64) -> Vec<SparseVector> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                let a = rng.next_below(64) as u32;
                let b = (a + 1 + rng.next_below(63) as u32) % 64;
                SparseVector::unit(vec![(a, 1.0), (b, rng.next_f64() as f32 + 0.1)]).unwrap()
            })
            .collect()
    }

    fn sharded(shards: usize, capacity: usize) -> ShardedIndex {
        ShardedIndex::builder(EngineConfig::new(params(64), capacity))
            .shards(shards)
            .threads(2)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_rejects_zero_shards() {
        let err = ShardedIndex::builder(EngineConfig::new(params(64), 10))
            .shards(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, ClusterError::Topology(_)));
    }

    #[test]
    fn model_driven_default_picks_a_sane_count() {
        let index = ShardedIndex::builder(EngineConfig::new(params(64), 10_000))
            .machine_profile(MachineProfile::paper())
            .threads(2)
            .build()
            .unwrap();
        assert!(index.num_shards() >= 1);
        assert!(index.num_shards() <= MachineProfile::paper().threads);
    }

    #[test]
    fn routing_is_arithmetic_and_exactly_even() {
        let index = sharded(4, 10_000);
        for n in 0..50u32 {
            let mut counts = [0usize; 4];
            for id in 0..n {
                assert_eq!(index.route(id), id as usize % 4);
                assert_eq!(index.global(index.route(id), index.local(id)), id);
                counts[index.route(id)] += 1;
            }
            for (shard, &c) in counts.iter().enumerate() {
                assert_eq!(c, routed(n, shard, 4), "routed({n}, {shard})");
            }
        }
    }

    #[test]
    fn insert_flush_query_roundtrip() {
        let index = sharded(3, 1_000);
        let vs = random_vecs(120, 1);
        let ids = index.insert_batch(&vs).unwrap();
        assert_eq!(ids, (0..120).collect::<Vec<u32>>());
        index.flush().unwrap();
        assert_eq!(index.visible_len(), 120);
        for (v, &gid) in vs.iter().zip(&ids) {
            let resp = index.search(&SearchRequest::query(v.clone())).unwrap();
            assert!(
                resp.hits()
                    .iter()
                    .any(|h| h.index == gid && h.distance < 1e-3),
                "point {gid} not found"
            );
        }
        // Shards report the routed occupancy.
        let stats = index.stats();
        assert_eq!(stats.total_points(), 120);
        assert!(stats.routing_imbalance() < 1.8);
    }

    #[test]
    fn capacity_check_is_all_or_nothing() {
        let index = sharded(2, 30);
        let vs = random_vecs(100, 2);
        // 100 points over 2 shards of 30 must fail before anything lands.
        assert!(index.insert_batch(&vs).is_err());
        assert_eq!(index.len(), 0);
        index.flush().unwrap();
        assert_eq!(index.visible_len(), 0);
        // A batch that fits routes fine afterwards.
        index.insert_batch(&vs[..40]).unwrap();
        index.flush().unwrap();
        assert_eq!(index.visible_len(), 40);
    }

    #[test]
    fn dimension_errors_abort_before_routing() {
        let index = sharded(2, 100);
        let bad = SparseVector::unit(vec![(64, 1.0)]).unwrap();
        assert!(index.insert(bad).is_err());
        assert_eq!(index.len(), 0);
    }

    #[test]
    fn delete_by_global_id_waits_for_inflight_points() {
        let index = sharded(3, 1_000);
        let vs = random_vecs(60, 3);
        let ids = index.insert_batch(&vs).unwrap();
        // Delete immediately — the point may still be queued.
        assert!(index.delete(ids[7]).unwrap());
        assert!(
            !index.delete(ids[7]).unwrap(),
            "double delete reports false"
        );
        assert!(!index.delete(9_999).unwrap(), "unknown id reports false");
        index.flush().unwrap();
        let resp = index.search(&SearchRequest::query(vs[7].clone())).unwrap();
        assert!(resp.hits().iter().all(|h| h.index != ids[7]));
    }

    #[test]
    fn vector_roundtrips_by_global_id() {
        let index = sharded(4, 1_000);
        let vs = random_vecs(40, 4);
        let ids = index.insert_batch(&vs).unwrap();
        index.flush().unwrap();
        for (v, &gid) in vs.iter().zip(&ids) {
            assert_eq!(index.vector(gid).as_ref(), Some(v));
        }
        assert_eq!(index.vector(999), None);
    }

    #[test]
    fn knn_merge_matches_global_ranking() {
        let index = sharded(3, 1_000);
        let vs = random_vecs(150, 5);
        index.insert_batch(&vs).unwrap();
        index.flush().unwrap();
        let resp = index
            .search(&SearchRequest::query(vs[0].clone()).top_k(5))
            .unwrap();
        let hits = resp.hits();
        assert!(!hits.is_empty());
        assert!(hits.len() <= 5);
        assert!(hits.windows(2).all(|w| {
            w[0].distance < w[1].distance
                || (w[0].distance == w[1].distance && w[0].index < w[1].index)
        }));
        assert_eq!(hits[0].index, 0, "self is the nearest neighbor");
    }

    #[test]
    fn background_merges_overlap_on_multiple_shards() {
        let index = ShardedIndex::builder(EngineConfig::new(params(64), 4_000).manual_merge())
            .shards(3)
            .threads(2)
            .build()
            .unwrap();
        let vs = random_vecs(900, 6);
        for chunk in vs.chunks(90) {
            index.insert_batch(chunk).unwrap();
        }
        index.flush().unwrap();
        let started = index.merge_all_in_background();
        assert_eq!(started, 3, "every shard has sealed data to merge");
        // Queries stay correct whatever phase each shard's merge is in.
        for probe in (0..900).step_by(113) {
            let resp = index
                .search(&SearchRequest::query(vs[probe].clone()))
                .unwrap();
            assert!(resp.hits().iter().any(|h| h.index == probe as u32));
        }
        index.quiesce().unwrap();
        assert_eq!(index.stats().merges, 3);
        for shard in 0..3 {
            assert_eq!(index.shard(shard).engine().delta_len(), 0);
        }
    }

    #[test]
    fn concurrent_ingest_and_query_smoke() {
        let index = Arc::new(sharded(3, 10_000));
        let vs = random_vecs(3_000, 7);
        let writer = {
            let index = index.clone();
            let vs = vs.clone();
            std::thread::spawn(move || {
                for chunk in vs.chunks(100) {
                    index.insert_batch(chunk).unwrap();
                }
                index.flush().unwrap();
            })
        };
        let reader = {
            let index = index.clone();
            let vs = vs.clone();
            std::thread::spawn(move || {
                let mut checked = 0;
                while checked < 50 {
                    // Condvar back-pressure: sleep until the writer has
                    // landed something instead of spinning on yield_now.
                    let visible = index.wait_for_visible(1);
                    let probe = (checked * 37) % visible.min(vs.len());
                    let resp = index
                        .search(&SearchRequest::query(vs[probe].clone()))
                        .unwrap();
                    // The probe's own id may or may not be visible yet, but
                    // the search must never error or return stale ids.
                    for hit in resp.hits() {
                        assert!((hit.index as usize) < index.len());
                    }
                    checked += 1;
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        index.quiesce().unwrap();
        assert_eq!(index.visible_len(), 3_000);
        for probe in [0usize, 1_499, 2_999] {
            let resp = index
                .search(&SearchRequest::query(vs[probe].clone()))
                .unwrap();
            assert!(resp.hits().iter().any(|h| h.index == probe as u32));
        }
    }

    #[test]
    fn wait_for_visible_unblocks_and_health_reports_pinning() {
        let index = sharded(2, 1_000);
        let vs = random_vecs(30, 21);
        index.insert_batch(&vs).unwrap();
        // The barrier returns once the routed points are visible — woken
        // by the drain condvar, not by polling.
        assert!(index.wait_for_visible(30) >= 30);
        // Already-satisfied barriers return immediately.
        assert!(index.wait_for_visible(1) >= 30);
        let health = index.health();
        let ingest: Vec<_> = health
            .workers
            .iter()
            .filter(|w| w.name.ends_with(".ingest") && !w.name.contains("merge"))
            .collect();
        assert_eq!(ingest.len(), 2);
        // Pinning degrades to a no-op when disabled (PLSH_PIN=off or a
        // single-core host); the report must agree with the gate either
        // way: pinned cores only when pinning is possible, and always
        // inside the host's thread range.
        for w in &ingest {
            if let Some(core) = w.pinned_core {
                assert!(affinity::pinning_enabled());
                assert!(core < affinity::host_threads());
            }
        }
        if !affinity::pinning_enabled() {
            assert!(ingest.iter().all(|w| w.pinned_core.is_none()));
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("plsh-sharded-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Sorted `(global id, distance bits)` radius answers — the
    /// bit-identical comparison key used across the equivalence suites.
    fn answers(index: &ShardedIndex, q: &SparseVector) -> Vec<(u32, u32)> {
        let mut hits: Vec<(u32, u32)> = index
            .search(&SearchRequest::query(q.clone()))
            .unwrap()
            .hits()
            .iter()
            .map(|h| (h.index, h.distance.to_bits()))
            .collect();
        hits.sort_unstable();
        hits
    }

    #[test]
    fn budget_splits_evenly_with_floor() {
        assert_eq!(split_budget(50, 4), vec![13, 13, 12, 12]);
        assert_eq!(split_budget(3, 3), vec![1, 1, 1]);
        assert_eq!(split_budget(2, 5), vec![1, 1, 1, 1, 1]);
        assert_eq!(split_budget(7, 1), vec![7]);
    }

    #[test]
    fn budgeted_search_honors_the_global_budget() {
        let index = sharded(5, 1_000);
        let vs = random_vecs(400, 9);
        index.insert_batch(&vs).unwrap();
        index.flush().unwrap();
        let budget = 40;
        let resp = index
            .search(
                &SearchRequest::query(vs[0].clone())
                    .with_max_candidates(budget)
                    .with_stats(),
            )
            .unwrap();
        let totals = resp.stats.unwrap().totals;
        assert!(
            totals.distance_computations <= budget as u64,
            "aggregate candidates {} exceed the global budget {budget}",
            totals.distance_computations
        );
        // Budgeted hits are a subset of the unbudgeted answer set.
        let full: Vec<u32> = index
            .search(&SearchRequest::query(vs[0].clone()))
            .unwrap()
            .hits()
            .iter()
            .map(|h| h.index)
            .collect();
        for h in resp.hits() {
            assert!(
                full.contains(&h.index),
                "budgeted hit {} not in the full answer set",
                h.index
            );
        }
    }

    #[test]
    fn cluster_manifest_rejects_corruption() {
        let good = encode_cluster_manifest(3, 64, 1_000, None);
        assert_eq!(
            decode_cluster_manifest(&good).unwrap(),
            (3, 64, 1_000, None)
        );
        let mut bad_crc = good.clone();
        bad_crc[8] ^= 1;
        assert!(decode_cluster_manifest(&bad_crc).is_err());
        assert!(decode_cluster_manifest(&good[..20]).is_err());
        assert!(decode_cluster_manifest(&encode_cluster_manifest(0, 64, 10, None)).is_err());
        // A correctly checksummed manifest of an earlier version (laid out
        // by the old routing) is refused, not misread.
        for version in [1u32, 2] {
            let mut old = good[..good.len() - 4].to_vec();
            old[4..8].copy_from_slice(&version.to_le_bytes());
            let crc = persist::checksum(&old);
            old.extend_from_slice(&crc.to_le_bytes());
            let err = decode_cluster_manifest(&old).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(
                err.to_string().contains("unsupported version"),
                "v{version}: {err}"
            );
        }
    }

    #[test]
    fn cluster_manifest_v3_bytes_are_pinned() {
        // The bytes a v3 cluster manifest has always had: sharing the
        // engine manifest's checksum and window tags must not move them.
        let header = [
            80, 76, 83, 67, 3, 0, 0, 0, 3, 0, 0, 0, 64, 0, 0, 0, 232, 3, 0, 0, 0, 0, 0, 0,
        ];
        for (window, tail) in [
            (None, [0, 0, 0, 0, 0, 0, 0, 0, 0, 254, 192, 41, 70]),
            (
                Some(WindowSpec::Docs(500)),
                [1, 244, 1, 0, 0, 0, 0, 0, 0, 202, 58, 177, 117],
            ),
            (
                Some(WindowSpec::Duration(Duration::from_millis(1500))),
                [2, 0, 47, 104, 89, 0, 0, 0, 0, 74, 171, 77, 245],
            ),
        ] {
            let golden: Vec<u8> = header.iter().chain(&tail).copied().collect();
            assert_eq!(
                encode_cluster_manifest(3, 64, 1_000, window),
                golden,
                "{window:?}"
            );
        }
    }

    #[test]
    fn cluster_manifest_round_trips_window_specs() {
        for w in [
            Some(WindowSpec::Docs(500)),
            Some(WindowSpec::Duration(Duration::from_millis(1500))),
            None,
        ] {
            let bytes = encode_cluster_manifest(4, 128, 2_000, w);
            assert_eq!(decode_cluster_manifest(&bytes).unwrap(), (4, 128, 2_000, w));
        }
    }

    #[test]
    fn snapshot_flattens_with_purge_accounting() {
        let index = sharded(3, 1_000);
        let vs = random_vecs(150, 12);
        index.insert_batch(&vs).unwrap();
        index.flush().unwrap();
        index.delete(10).unwrap();
        index.quiesce().unwrap(); // fold every shard: id 10 gets purged
        index.delete(20).unwrap(); // stays pending
        let snap = index.snapshot();
        assert_eq!(snap.vectors.len(), 150);
        assert_eq!(snap.static_len, 150, "the flattened corpus is all static");
        assert!(snap.purged.contains(&10));
        assert!(snap.deleted.contains(&20));
        let pool = ThreadPool::new(2);
        let single = snap.restore(&pool).unwrap();
        for q in vs.iter().step_by(17) {
            let mut got: Vec<(u32, u32)> = single
                .query(q)
                .into_iter()
                .map(|n| (n.index, n.distance.to_bits()))
                .collect();
            got.sort_unstable();
            assert_eq!(got, answers(&index, q), "flattened snapshot diverged");
        }
    }

    #[test]
    fn persist_recover_round_trip() {
        let dir = tempdir("roundtrip");
        let vs = random_vecs(200, 10);
        let probes: Vec<SparseVector> = vs.iter().step_by(23).cloned().collect();
        let before: Vec<Vec<(u32, u32)>>;
        {
            let index = sharded(3, 1_000);
            index.insert_batch(&vs[..120]).unwrap();
            index.flush().unwrap();
            index.delete(17).unwrap();
            index.quiesce().unwrap(); // merge → purge 17 before the baseline
            index.persist_to(&dir).unwrap();
            // Post-baseline traffic flows through the per-shard WALs.
            index.insert_batch(&vs[120..]).unwrap();
            index.delete(150).unwrap();
            index.flush().unwrap();
            before = probes.iter().map(|q| answers(&index, q)).collect();
        }
        let recovered = ShardedIndex::recover_from(&dir).unwrap();
        assert_eq!(recovered.len(), 200);
        assert_eq!(recovered.num_shards(), 3);
        for (q, want) in probes.iter().zip(&before) {
            assert_eq!(&answers(&recovered, q), want, "recovery diverged");
        }
        // The recovered index keeps journaling: new inserts survive a
        // second recovery.
        let extra = random_vecs(30, 11);
        recovered.insert_batch(&extra).unwrap();
        recovered.flush().unwrap();
        let probe = extra[0].clone();
        let want = answers(&recovered, &probe);
        drop(recovered);
        let again = ShardedIndex::recover_from(&dir).unwrap();
        assert_eq!(again.len(), 230);
        assert_eq!(answers(&again, &probe), want);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_shard_io_failure_degrades_read_only() {
        let dir = tempdir("degraded-shard");
        let index = sharded(2, 1_000);
        let vs = random_vecs(40, 13);
        index.insert_batch(&vs).unwrap();
        index.persist_to(&dir).unwrap();
        // Fail-stop: yank shard 0's data directory out from under it so
        // every durable write on that shard fails (retries included) and
        // the shard engine trips into degraded read-only mode.
        fs::remove_dir_all(dir.join("shard-0").join("data-0")).unwrap();
        // Route points until two head for shard 0: the first one's WAL
        // append exhausts its retries and degrades the engine, the
        // second is discarded by the (still running) worker.
        let mut shard0 = Vec::new();
        let mut next = index.len() as u32;
        let filler = random_vecs(1, 14).pop().unwrap();
        while shard0.len() < 2 {
            if index.route(next) == 0 {
                shard0.push(next);
            }
            match index.insert(filler.clone()) {
                Ok(_) => next += 1,
                Err(ClusterError::Node(PlshError::Degraded(_))) => break,
                Err(other) => panic!("unexpected ingest error: {other:?}"),
            }
        }
        // The discarded in-flight point surfaces the degradation, not a
        // hang and not a dead worker.
        let err = index.delete(shard0[0]).unwrap_err();
        assert!(
            matches!(err, ClusterError::Node(PlshError::Degraded(_))),
            "expected a typed degraded error, got {err:?}"
        );
        // Further writes routed at shard 0 fail fast with the same error.
        let err = index.insert_batch(&random_vecs(8, 15)).unwrap_err();
        assert!(matches!(err, ClusterError::Node(PlshError::Degraded(_))));
        // The flush barrier still completes: the worker drains (and
        // discards) instead of wedging producers.
        index.flush().unwrap();
        // Queries keep answering off the pinned epoch.
        let resp = index.search(&SearchRequest::query(vs[0].clone())).unwrap();
        assert!(!resp.results[0].is_empty(), "reads must survive degrade");
        // Health reports the degradation with live workers.
        let health = index.health();
        assert!(health.degraded);
        assert!(health.workers.iter().all(|w| w.alive));
        // Dropping the index is clean — the worker contained the fault.
        drop(index);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn paced_ingest_throttles_arrivals() {
        let index = ShardedIndex::builder(EngineConfig::new(params(64), 1_000))
            .shards(2)
            .threads(1)
            .ingest_rate(400.0)
            .build()
            .unwrap();
        let t0 = Instant::now();
        let vs = random_vecs(80, 8);
        for chunk in vs.chunks(10) {
            index.insert_batch(chunk).unwrap();
        }
        index.flush().unwrap();
        // ~40 points per shard at 400/s ⇒ the drain takes a measurable
        // fraction of 100 ms (first batch releases immediately).
        assert!(
            t0.elapsed() >= Duration::from_millis(40),
            "pacing must throttle the per-shard ingest queue, took {:?}",
            t0.elapsed()
        );
    }
    #[test]
    fn windowed_cluster_retires_a_consistent_cross_shard_cut() {
        let window = 60u32;
        let index = ShardedIndex::builder(
            EngineConfig::new(params(64), 1_000).with_window(WindowSpec::Docs(window)),
        )
        .shards(3)
        .threads(2)
        .build()
        .unwrap();
        assert_eq!(index.window(), Some(WindowSpec::Docs(window)));
        let vs = random_vecs(200, 31);
        for chunk in vs.chunks(25) {
            index.insert_batch(chunk).unwrap();
        }
        index.flush().unwrap();
        let cut = index.retired_below();
        assert_eq!(
            cut,
            200 - window,
            "cut must trail the stream head by the window"
        );
        // The cut is one consistent global position: every shard's local
        // watermark equals the count of globals below the cut it owns.
        let mut per_shard = vec![0u32; index.num_shards()];
        for g in 0..cut {
            per_shard[index.route(g)] += 1;
        }
        for (i, &expect) in per_shard.iter().enumerate() {
            assert_eq!(
                index.shard(i).engine().retired_below(),
                expect,
                "shard {i} watermark off the global cut"
            );
        }
        // Retired points are gone from answers and lookups; live ones stay.
        for (i, v) in vs.iter().enumerate() {
            let hits = answers(&index, v);
            if (i as u32) < cut {
                assert!(index.vector(i as u32).is_none(), "retired {i} resolved");
                assert!(
                    hits.iter().all(|&(id, _)| id != i as u32),
                    "retired {i} surfaced"
                );
            } else {
                assert!(hits.iter().any(|&(id, _)| id == i as u32), "live {i} lost");
            }
        }
    }

    #[test]
    fn windowed_cluster_matches_manual_delete_twin() {
        let window = 50u32;
        let windowed = ShardedIndex::builder(
            EngineConfig::new(params(64), 1_000).with_window(WindowSpec::Docs(window)),
        )
        .shards(3)
        .threads(2)
        .build()
        .unwrap();
        let twin = sharded(3, 1_000);
        let vs = random_vecs(170, 32);
        for chunk in vs.chunks(23) {
            windowed.insert_batch(chunk).unwrap();
            twin.insert_batch(chunk).unwrap();
            windowed.flush().unwrap();
            twin.flush().unwrap();
            for id in 0..windowed.retired_below() {
                let _ = twin.delete(id);
            }
        }
        windowed.quiesce().unwrap();
        twin.quiesce().unwrap();
        for v in &vs {
            assert_eq!(
                answers(&windowed, v),
                answers(&twin, v),
                "windowed cluster diverged from its delete twin"
            );
        }
    }

    #[test]
    fn windowed_cluster_recovers_its_window_edge() {
        let dir = tempdir("window-recovery");
        let window = 40u32;
        let vs = random_vecs(150, 33);
        let cut_before;
        {
            let index = ShardedIndex::builder(
                EngineConfig::new(params(64), 1_000).with_window(WindowSpec::Docs(window)),
            )
            .shards(3)
            .threads(2)
            .build()
            .unwrap();
            index.persist_to(&dir).unwrap();
            for chunk in vs.chunks(19) {
                index.insert_batch(chunk).unwrap();
            }
            index.quiesce().unwrap();
            cut_before = index.retired_below();
            assert_eq!(cut_before, 150 - window);
        }
        let recovered = ShardedIndex::recover_from(&dir).unwrap();
        assert_eq!(recovered.window(), Some(WindowSpec::Docs(window)));
        assert_eq!(recovered.len(), 150);
        assert_eq!(
            recovered.retired_below(),
            cut_before,
            "recovery must land on the same window edge"
        );
        for (i, v) in vs.iter().enumerate() {
            let hits = answers(&recovered, v);
            if (i as u32) < cut_before {
                assert!(hits.iter().all(|&(id, _)| id != i as u32));
            } else {
                assert!(hits.iter().any(|&(id, _)| id == i as u32), "live {i} lost");
            }
        }
        // The recovered cluster keeps sliding: new inserts advance the cut.
        let more = random_vecs(60, 34);
        recovered.insert_batch(&more).unwrap();
        recovered.flush().unwrap();
        assert_eq!(recovered.retired_below(), 210 - window);
        let _ = fs::remove_dir_all(&dir);
    }
}
