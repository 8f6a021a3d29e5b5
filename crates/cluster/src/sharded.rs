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
//!   back as `l·S + s`. No id map is stored. [`ShardedIndex::insert_batch`]
//!   splits a batch by `g % S` under the router lock and hands every
//!   shard its slice directly, in parallel over shards; it returns once
//!   the points are query-visible, or with the first shard's typed error.
//! * **Each shard owns a [`StreamingEngine`].** Inserts hash and seal on
//!   the inserting thread (or a fan-out worker); merges run on the shard's
//!   own background thread at `η·C` — so merges on different shards
//!   overlap each other, every insert *and* every query. A shard's tables
//!   are ~`1/S` of the corpus, so its merges are ~`S×` cheaper than one
//!   shared structure's (the shard-local-tables argument of the
//!   PIMDAL/Polynesia line of work).
//! * **Queries fan out over shards.** One work-stealing task per shard
//!   pins that shard's epoch and runs the whole request against it with
//!   shard-local scratch; the coordinator concatenates radius answers
//!   (exact — hits are translated to global ids) and k-way re-ranks k-NN
//!   answers with the same `(distance, global id)` tie-break a single
//!   engine uses, so answer sets are bit-identical to one big
//!   [`Engine`] over the same data.
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
//! * **One shard is one streaming node.** At `S = 1` local ids are global
//!   ids, so the shard's engine keeps its own window and runs on the
//!   index's pool (no merge pin), inserts and searches go straight to it,
//!   and [`ShardedIndex::persist_to`] writes the plain engine directory.
//! * **Durability is per shard.** At `S > 1` [`ShardedIndex::persist_to`]
//!   lays a [`plsh_core::persist`] WAL-plus-segments directory per shard
//!   under `shard-<i>/`, sealed by a checksummed top-level cluster manifest;
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
//! // Applied on return: the point is already query-visible.
//! let ids = index.insert_batch(std::slice::from_ref(&v)).unwrap();
//! let resp = index.search(&SearchRequest::query(v)).unwrap();
//! assert!(resp.hits().iter().any(|h| h.index == ids[0]));
//! ```

use std::collections::VecDeque;
use std::fs;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use plsh_core::engine::{Engine, EngineConfig, EngineStats, EpochInfo, MergeReport, WindowSpec};
use plsh_core::error::{PlshError, Result as CoreResult};
use plsh_core::fault;
use plsh_core::hash::Hyperplanes;
use plsh_core::health::HealthReport;
use plsh_core::model::{MachineProfile, PerformanceModel};
use plsh_core::params::estimate_candidates;
use plsh_core::persist;
use plsh_core::search::{
    merge_partial_responses, SearchBackend, SearchHit, SearchRequest, SearchResponse,
};
use plsh_core::snapshot::Snapshot;
use plsh_core::sparse::SparseVector;
use plsh_core::streaming::{ShutdownReport, StreamingEngine};
use plsh_parallel::{affinity, ThreadPool};

use crate::error::{ClusterError, Result};

/// Upper bound on model-picked shard counts (a runaway prediction must not
/// spawn hundreds of shards, each with its own merge thread).
const MAX_MODEL_SHARDS: usize = 64;

/// Queries-per-batch assumption used when the model picks the shard count.
const MODEL_BATCH_QUERIES: usize = 64;

/// Builder for [`ShardedIndex`].
pub struct ShardedIndexBuilder {
    node: EngineConfig,
    shards: Option<usize>,
    threads: Option<usize>,
    profile: Option<MachineProfile>,
}

impl ShardedIndexBuilder {
    /// Fixes the shard count instead of letting the performance model pick
    /// it. Must be ≥ 1.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Worker threads for the fan-out pool that runs queries and applies
    /// inserts across shards (default: one per core).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
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
    /// fixed) and constructs one [`StreamingEngine`] per shard.
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
        if shards == 1 {
            return Ok(ShardedIndex::from_engine(StreamingEngine::new(
                self.node, fanout,
            )?));
        }
        // Across shards the window is cluster-driven: the spec lives on the
        // router and every shard receives explicit `retire_to` cuts, so the
        // shard engines are built windowless (an engine-local window would
        // retire by *local* age and tear the cross-shard cut). The window
        // must fit the aggregate capacity.
        let mut whole = self.node.clone();
        whole.capacity *= shards;
        whole.validate()?;
        let window = self.node.window;
        let mut node = self.node;
        node.window = None;
        // One plane matrix, generated on the fan-out pool, serves every
        // shard.
        let planes = Arc::new(Hyperplanes::for_params(&node.params, &fanout));
        let engines = (0..shards)
            .map(|i| {
                Engine::with_planes(node.clone(), Arc::clone(&planes))
                    .map(|e| shard_handle(e, i))
                    .map_err(ClusterError::Node)
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedIndex::assemble(
            engines,
            fanout,
            node.capacity,
            window,
            0,
            0,
        ))
    }
}

/// Routing state, serialized by the router mutex: the global id counter
/// and the sliding-window cut. Per-shard occupancy and retirement are
/// not stored — both are [`routed`] counts at these two positions.
///
/// Across shards the window is cluster-driven: per-shard engines are
/// built *without* a [`WindowSpec`] and receive explicit
/// [`StreamingEngine::retire_to`] cuts instead, so every shard retires at
/// the same global stream position even though global ids interleave
/// across shards. A one-shard index never advances it: its engine keeps
/// the window.
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

impl Router {
    /// Advances the window to the stream head after a batch of
    /// `batch_len` points: returns the new global cut when it moved.
    fn advance_window(&mut self, window: Option<WindowSpec>, batch_len: usize) -> Option<u32> {
        let cut = match window? {
            WindowSpec::Docs(size) => self.next_global.saturating_sub(size),
            WindowSpec::Duration(d) => {
                let now = Instant::now();
                if batch_len > 0 {
                    self.births.push_back((now, self.next_global));
                }
                let mut cut = self.retire_cursor;
                while let Some(&(at, end)) = self.births.front() {
                    if now.duration_since(at) < d {
                        break;
                    }
                    cut = cut.max(end);
                    self.births.pop_front();
                }
                cut
            }
        };
        if cut <= self.retire_cursor {
            return None;
        }
        self.retire_cursor = cut;
        Some(cut)
    }
}

/// Aggregate accounting for a sharded index.
#[derive(Debug, Clone)]
pub struct ShardedStats {
    /// Points each shard holds.
    pub points_per_shard: Vec<usize>,
    /// Sum of per-shard merge counts.
    pub merges: u64,
    /// Per-shard engine accounting.
    pub engines: Vec<EngineStats>,
}

impl ShardedStats {
    /// The per-shard accounting summed into one [`EngineStats`] (a
    /// one-shard index's is its engine's, unchanged).
    pub fn folded(&self) -> EngineStats {
        let (first, rest) = self.engines.split_first().expect("at least one shard");
        let mut agg = *first;
        for e in rest {
            agg.total_points += e.total_points;
            agg.static_points += e.static_points;
            agg.delta_points += e.delta_points;
            agg.deleted_points += e.deleted_points;
            agg.purged_points += e.purged_points;
            agg.live_points += e.live_points;
            agg.retired_points += e.retired_points;
            agg.retired_pending_purge += e.retired_pending_purge;
            agg.window_lag += e.window_lag;
            agg.sealed_generations += e.sealed_generations;
            agg.merges += e.merges;
            agg.static_table_bytes += e.static_table_bytes;
            agg.delta_table_bytes += e.delta_table_bytes;
            // The shards share one plane matrix: it counts once.
        }
        agg
    }

    /// Total points across the shards.
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
/// across threads. Inserts serialize on an internal router mutex; queries
/// never touch it.
pub struct ShardedIndex {
    dim: u32,
    per_shard_capacity: usize,
    /// The sliding window: the router's at `S > 1` (shard engines are
    /// windowless and get explicit cuts — see [`Router`]), the engine's own
    /// at `S = 1`.
    window: Option<WindowSpec>,
    shards: Vec<StreamingEngine>,
    fanout: ThreadPool,
    router: Mutex<Router>,
    /// Mirror of `Router::next_global` for lock-free `len()` — readers
    /// never wait behind an insert holding the router mutex.
    total: AtomicU64,
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
            profile: None,
        }
    }

    /// A one-shard index over `engine`: the engine keeps its own window,
    /// inserts and searches go straight to it, and the index shares its
    /// pool. [`ShardedIndexBuilder::build`] at one shard, snapshot restore
    /// and plain-directory recovery all end here.
    pub fn from_engine(engine: StreamingEngine) -> ShardedIndex {
        ShardedIndex {
            dim: engine.engine().params().dim(),
            per_shard_capacity: engine.engine().capacity(),
            window: engine.engine().config().window,
            fanout: engine.pool().clone(),
            total: AtomicU64::new(0),
            router: Mutex::new(Router {
                next_global: 0,
                retire_cursor: 0,
                births: VecDeque::new(),
            }),
            shards: vec![engine],
        }
    }

    /// The multi-shard constructor behind [`ShardedIndexBuilder::build`]
    /// and [`recover_from`](Self::recover_from): the router starts at
    /// stream position `next_global` with the window cut at
    /// `retire_cursor`. The query fan-out workers spread over whatever
    /// cores the shards' pinned merge workers left free.
    fn assemble(
        shards: Vec<StreamingEngine>,
        fanout: ThreadPool,
        per_shard_capacity: usize,
        window: Option<WindowSpec>,
        next_global: u32,
        retire_cursor: u32,
    ) -> ShardedIndex {
        ShardedIndex {
            dim: shards[0].engine().params().dim(),
            per_shard_capacity,
            window,
            fanout: repin_fanout(fanout, shards.len()),
            shards,
            total: AtomicU64::new(next_global as u64),
            router: Mutex::new(Router {
                next_global,
                retire_cursor,
                births: VecDeque::new(),
            }),
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

    /// The one shard's engine when the index has exactly one shard (its
    /// ids, window and directory are the index's own).
    pub fn single(&self) -> Option<&StreamingEngine> {
        match self.shards.as_slice() {
            [engine] => Some(engine),
            _ => None,
        }
    }

    /// Aggregate capacity: per-shard capacity × shard count (routing keeps
    /// every shard within one point of the others, so it is reachable).
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * self.shards.len()
    }

    /// The sliding window, if one was configured.
    pub fn window(&self) -> Option<WindowSpec> {
        self.window
    }

    /// Global id below which the sliding window has retired everything
    /// (0 without a window). Monotone.
    pub fn retired_below(&self) -> u32 {
        match self.single() {
            Some(engine) => engine.engine().retired_below(),
            None => self.lock_router().retire_cursor,
        }
    }

    fn lock_router(&self) -> std::sync::MutexGuard<'_, Router> {
        self.router.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Borrow one shard's streaming engine (tests, experiments).
    pub fn shard(&self, i: usize) -> &StreamingEngine {
        &self.shards[i]
    }

    /// The query fan-out pool.
    pub fn pool(&self) -> &ThreadPool {
        &self.fanout
    }

    /// Global ids assigned so far (a batch still being applied included).
    /// Lock-free: never stalls behind an insert in progress.
    pub fn len(&self) -> usize {
        match self.single() {
            Some(engine) => engine.len(),
            None => self.total.load(Ordering::Acquire) as usize,
        }
    }

    /// True when nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Points currently visible to queries (static + sealed across all
    /// shards).
    pub fn visible_len(&self) -> usize {
        self.shards.iter().map(|s| s.engine().visible_len()).sum()
    }

    /// Routes a batch across the shards and applies it; returns the global
    /// id of every point, in input order.
    ///
    /// Under the router lock the batch is validated, every shard is
    /// checked — it holds exactly its routed ids, and the engine's own
    /// [`admit`](Engine::admit) rule accepts its slice, merging first when
    /// only the shard's retired rows stand in the way — ids are assigned,
    /// and every shard inserts its slice and then advances its window
    /// watermark, in parallel over shards on the fan-out pool at
    /// background priority. On `Ok` every point is applied (and
    /// query-visible, unless `seal_min_points > 1` buffers it until
    /// [`flush`](Self::flush)).
    ///
    /// The checks are exact, so a refusal — a full or degraded shard — is
    /// whole and typed: nothing else inserts while the lock is held, and a
    /// concurrent merge can only free room. A failure past them (a disk
    /// error on one shard mid-apply) returns that shard's typed error; the
    /// shard is then short of its routed ids, and every later write is
    /// refused with [`PlshError::Degraded`] until
    /// [`recover_from`](Self::recover_from) truncates the persisted index
    /// to its contiguous prefix. Concurrent callers serialize on the
    /// router lock; queries, `len`, and `stats` never wait on it. A
    /// one-shard index hands the batch straight to its engine.
    pub fn insert_batch(&self, vs: &[SparseVector]) -> Result<Vec<u32>> {
        if let Some(engine) = self.single() {
            return Ok(engine.insert_batch(vs)?);
        }
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
        let mut router = self.lock_router();
        let from = router.next_global;
        if from as usize + vs.len() > u32::MAX as usize {
            return Err(ClusterError::Node(PlshError::CapacityExceeded {
                capacity: u32::MAX as usize,
            }));
        }
        let to = from + vs.len() as u32;
        let n = self.shards.len();
        self.check_routing(from)?;
        for (s, shard) in self.shards.iter().enumerate() {
            shard
                .engine()
                .admit(routed(to, s, n) - routed(from, s, n), shard.pool())?;
        }
        let mut per_shard: Vec<Vec<SparseVector>> = vec![Vec::new(); n];
        for (g, v) in (from..to).zip(vs) {
            per_shard[self.route(g)].push(v.clone());
        }
        router.next_global = to;
        self.total.store(to as u64, Ordering::Release);
        let cut = router.advance_window(self.window, vs.len());
        let applied = self.fanout.background().parallel_map(
            self.shards.iter().zip(per_shard).enumerate(),
            |(s, (shard, docs))| -> CoreResult<()> {
                fault::point(fault::INGEST_BATCH);
                if !docs.is_empty() {
                    shard.insert_batch(&docs)?;
                }
                // After the docs: the cut may cover ids this very batch
                // carried, and `retire_to` clamps to the assigned range.
                if let Some(cut) = cut {
                    shard.retire_to(routed(cut, s, n) as u32)?;
                }
                Ok(())
            },
        );
        applied.into_iter().collect::<CoreResult<()>>()?;
        Ok((from..to).collect())
    }

    /// Inserts one vector; returns its global id.
    pub fn insert(&self, v: SparseVector) -> Result<u32> {
        Ok(self.insert_batch(std::slice::from_ref(&v))?[0])
    }

    /// The routing invariant at stream position `next`: shard `s` holds
    /// exactly `routed(next, s, S)` ids. A shard that failed mid-apply is
    /// short of them; writing on would misroute every later id, so the
    /// index reports itself degraded until recovery truncates it.
    fn check_routing(&self, next: u32) -> CoreResult<()> {
        let n = self.shards.len();
        for (s, shard) in self.shards.iter().enumerate() {
            let want = routed(next, s, n);
            if shard.len() != want {
                return Err(PlshError::Degraded(format!(
                    "shard {s} holds {} ids but routing assigned it {want}; \
                     recover the persisted index to its contiguous prefix",
                    shard.len()
                )));
            }
        }
        Ok(())
    }

    /// Seals every shard's open generation, so points a
    /// `seal_min_points > 1` configuration left buffered become
    /// query-visible. Every acknowledged insert is already applied; this
    /// does *not* wait for background merges — answers are identical
    /// either way.
    pub fn flush(&self) -> Result<()> {
        for shard in &self.shards {
            shard.seal();
        }
        Ok(())
    }

    /// Full quiesce: [`flush`](Self::flush), then fold every shard's
    /// sealed generations into its static tables (waiting out in-flight
    /// background merges first).
    pub fn quiesce(&self) -> Result<()> {
        for shard in &self.shards {
            shard.flush();
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
            .filter(|s| s.merge_in_background())
            .count()
    }

    /// Blocks until every shard's in-flight background merge (if any) has
    /// published. Does not force new merges — see
    /// [`quiesce`](Self::quiesce) for that.
    pub fn wait_for_merges(&self) {
        for shard in &self.shards {
            shard.wait_for_merge();
        }
    }

    /// Deadline-bounded graceful drain, the sharded counterpart of
    /// [`StreamingEngine::shutdown`]: shuts each shard's engine down
    /// within what remains of the deadline. The folded report ANDs
    /// `drained` and ORs `merge_abandoned`, so `drained: false` means at
    /// least one shard kept unsealed rows.
    pub fn shutdown(&self, deadline: Duration) -> ShutdownReport {
        let end = Instant::now() + deadline;
        let mut folded = ShutdownReport {
            drained: true,
            merge_abandoned: false,
        };
        for shard in &self.shards {
            let report = shard.shutdown(end.saturating_duration_since(Instant::now()));
            folded.drained &= report.drained;
            folded.merge_abandoned |= report.merge_abandoned;
        }
        folded
    }

    /// Tombstones a point by global id; `Ok(false)` if unknown or already
    /// deleted.
    pub fn delete(&self, id: u32) -> Result<bool> {
        if id as usize >= self.len() {
            return Ok(false);
        }
        Ok(self.shards[self.route(id)]
            .engine()
            .try_delete(self.local(id))?)
    }

    /// The stored vector for global id `id`, or `None` when the id is
    /// unknown, retired, or purged by a past merge.
    pub fn vector(&self, id: u32) -> Option<SparseVector> {
        if id as usize >= self.len() {
            return None;
        }
        self.shards[self.route(id)].engine().vector(self.local(id))
    }

    /// Aggregate accounting, read shard by shard without the router lock
    /// (a monitoring thread never stalls behind an insert), so it can lag
    /// an insert in progress by a batch.
    pub fn stats(&self) -> ShardedStats {
        let engines: Vec<EngineStats> = self.shards.iter().map(|s| s.stats()).collect();
        ShardedStats {
            points_per_shard: engines.iter().map(|e| e.total_points).collect(),
            merges: engines.iter().map(|e| e.merges).sum(),
            engines,
        }
    }

    /// Shape of the published epochs: point counts sum across shards,
    /// and `generation` is the largest per-shard epoch counter. Per-shard
    /// id spaces are disjoint, so `static_base` and `retired_below` sum
    /// to the rows compacted / retired across the index.
    pub fn epoch_info(&self) -> EpochInfo {
        let mut infos = self.shards.iter().map(StreamingEngine::epoch_info);
        let mut agg = infos.next().expect("at least one shard");
        for info in infos {
            agg.generation = agg.generation.max(info.generation);
            agg.static_points += info.static_points;
            agg.sealed_generations += info.sealed_generations;
            agg.sealed_points += info.sealed_points;
            agg.visible_points += info.visible_points;
            agg.static_base += info.static_base;
            agg.retired_below += info.retired_below;
        }
        agg
    }

    /// Every shard's most recent merge, folded: counts sum, and the
    /// durations take the per-shard maximum (merges overlap, so the max is
    /// the wall cost).
    pub fn last_merge(&self) -> MergeReport {
        let mut reports = self.shards.iter().map(StreamingEngine::last_merge);
        let mut agg = reports.next().expect("at least one shard");
        for r in reports {
            agg.merged_points += r.merged_points;
            agg.purged_points += r.purged_points;
            agg.retired_rows_reclaimed += r.retired_rows_reclaimed;
            agg.build = agg.build.max(r.build);
            agg.publish = agg.publish.max(r.publish);
            agg.yielded = agg.yielded.max(r.yielded);
        }
        agg
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
    /// `None` (each shard pins its own). A one-shard index answers through
    /// its engine directly, with `pool`: its response is the engine's own,
    /// epoch included, and it has no shard deadline to honour.
    pub fn search_with(
        &self,
        req: &SearchRequest,
        pool: &ThreadPool,
    ) -> CoreResult<SearchResponse> {
        if let Some(engine) = self.single() {
            return engine.engine().search(req, pool);
        }
        req.validate(self.dim)?;
        let start = Instant::now();
        if let Some(deadline) = req.shard_deadline() {
            return self.search_with_deadline(req, deadline, start);
        }
        let budgeted = self.split_request(req);
        let partials = pool.parallel_map(0..self.shards.len(), |s| {
            fault::point(fault::QUERY_SHARD);
            self.shards[s].search(budgeted.as_ref().map_or(req, |reqs| &reqs[s]))
        });
        merge_partial_responses(req.queries().len(), req.mode(), start, partials, |s, h| {
            self.global_hit(s, h)
        })
    }

    /// One request per shard, each with its share of `req`'s candidate
    /// budget ([`split_budget`]); `None` when `req` sets no budget.
    fn split_request(&self, req: &SearchRequest) -> Option<Vec<SearchRequest>> {
        let budget = req.max_candidates()?;
        let shares = split_budget(budget, self.shards.len()).into_iter();
        Some(shares.map(|b| req.clone().with_max_candidates(b)).collect())
    }

    /// Shard `shard`'s hit `h`, translated to its global id and attributed
    /// to the shard.
    fn global_hit(&self, shard: usize, h: SearchHit) -> SearchHit {
        SearchHit {
            node: shard as u32,
            index: self.global(shard, h.index),
            distance: h.distance,
        }
    }

    /// Radius search for a single vector (same answers as
    /// `search(&SearchRequest::query(q))`); a one-shard index answers
    /// without cloning `q`.
    pub fn query(&self, q: &SparseVector) -> CoreResult<Vec<SearchHit>> {
        if let Some(max) = q.max_index().filter(|&max| max >= self.dim) {
            return Err(PlshError::DimensionOutOfRange {
                index: max,
                dim: self.dim,
            });
        }
        match self.single() {
            Some(engine) => Ok(engine.query(q).into_iter().map(SearchHit::from).collect()),
            None => Ok(self.search(&SearchRequest::query(q.clone()))?.into_hits()),
        }
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
        let shard_reqs = self
            .split_request(req)
            .unwrap_or_else(|| vec![req.clone(); n]);
        type Slots = (Mutex<Vec<Option<CoreResult<SearchResponse>>>>, Condvar);
        let slots: Arc<Slots> =
            Arc::new((Mutex::new((0..n).map(|_| None).collect()), Condvar::new()));
        for (i, (shard, r)) in self.shards.iter().zip(shard_reqs).enumerate() {
            let engine = shard.clone();
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
        let mut resp = merge_partial_responses(nq, req.mode(), start, partials, |s, h| {
            self.global_hit(s, h)
        })?;
        resp.timed_out_shards = timed_out;
        Ok(resp)
    }

    /// Aggregate health: every shard engine's report, worker names
    /// prefixed `shard<i>.`. `degraded` is the OR across shards, and is
    /// also set while a shard is short of its routed ids — exactly when
    /// [`insert_batch`](Self::insert_batch) refuses every write.
    pub fn health(&self) -> HealthReport {
        let mut report = HealthReport::default();
        for (i, shard) in self.shards.iter().enumerate() {
            report.absorb(&format!("shard{i}"), shard.health());
        }
        if !report.degraded {
            if let Err(PlshError::Degraded(reason)) = self.check_routing(self.next_global()) {
                report.degraded = true;
                report.degraded_reason = Some(reason);
            }
        }
        report
    }

    /// The next global id. Waits for an insert in progress, so every
    /// shard has settled on it.
    fn next_global(&self) -> u32 {
        let _settled = self.lock_router();
        self.len() as u32
    }

    /// Attempts to lift every degraded shard back to read-write by
    /// re-syncing its persistence from memory (see
    /// [`Engine::heal`](plsh_core::engine::Engine::heal)). Returns `true`
    /// when the index is writable again: no shard degraded, and none short
    /// of its routed ids (that takes [`recover_from`](Self::recover_from)).
    pub fn heal(&self) -> bool {
        let mut healed = true;
        for shard in &self.shards {
            healed &= shard.heal();
        }
        healed && self.check_routing(self.next_global()).is_ok()
    }

    /// Captures the whole sharded corpus as one flattened [`Snapshot`] in
    /// global-id order — the same format a single engine writes, so
    /// [`Snapshot::restore`] yields a single
    /// [`Engine`] answering identically to
    /// this index over the captured rows.
    ///
    /// Everything lands in the snapshot's static prefix (`static_len` =
    /// total): the per-shard static/delta splits and generation
    /// boundaries are ingest-batching artifacts with no effect on
    /// answers. Purged and pending tombstones are translated to global
    /// ids; restore replays the purges through its own merge, so the
    /// purge accounting survives the round-trip.
    ///
    /// Calls [`flush`](Self::flush) first so every applied point is
    /// captured; inserts racing the capture are truncated to the longest
    /// dense global-id prefix. A one-shard index captures its engine as
    /// is.
    pub fn snapshot(&self) -> Snapshot {
        if let Some(engine) = self.single() {
            return Snapshot::capture(engine.engine());
        }
        let _ = self.flush();
        // The flattened snapshot starts at the cluster's window cut:
        // globals below it are dead by range tombstone, and some of their
        // rows are already physically gone (a compacted shard cannot
        // produce them), so the dense range the snapshot format requires
        // begins at the cut. Dead-but-resident rows on shards whose merge
        // lags are simply not captured — the restored engine starts past
        // them with no purge backlog.
        let (total, cut) = {
            let router = self.lock_router();
            (router.next_global as usize, router.retire_cursor as usize)
        };
        let caps: Vec<Snapshot> = self
            .shards
            .iter()
            .map(|s| Snapshot::capture(s.engine()))
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

    /// Attaches incremental durability to every shard. A one-shard index
    /// writes its engine's [`plsh_core::persist`] directory into `dir`
    /// itself. Across shards it writes a baseline of the current contents
    /// into `dir` — one engine directory per shard under `shard-<i>/` —
    /// then seals the
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
        if let Some(engine) = self.single() {
            return Ok(engine.persist_to(dir)?);
        }
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
            shard.persist_to(shard_dir(dir, i))?;
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

    /// Recovers an index from a directory written by
    /// [`persist_to`](Self::persist_to), re-attaching persistence so the
    /// recovered shards keep journaling. The manifest magic tells the two
    /// layouts apart: a plain engine directory recovers as one shard, and
    /// so does a one-shard cluster directory (`shard-0/` under a cluster
    /// manifest), whose window then moves into the engine.
    ///
    /// Every shard first recovers its own durable prefix (its static's
    /// files, then its generation files). A crash can land mid-batch with some
    /// shards ahead of others, so the cluster then truncates to the
    /// longest globally contiguous id prefix: shard `s` recovering `n_s`
    /// ids first misses global `n_s·S + s`, so the prefix is
    /// `min_s(n_s·S + s)`. Shards
    /// holding rows beyond it are rebuilt to the kept prefix and
    /// re-baselined on disk. Answers are identical to a from-scratch
    /// build over the recovered prefix (property-tested). Only cluster
    /// manifest v3 is read; older directories are refused.
    pub fn recover_from(dir: impl AsRef<Path>) -> Result<ShardedIndex> {
        let dir = dir.as_ref();
        let bytes = fs::read(dir.join(CLUSTER_MANIFEST)).map_err(|e| {
            io_cluster(io::Error::new(
                e.kind(),
                format!("{}: no recoverable index ({e})", dir.display()),
            ))
        })?;
        let fanout = ThreadPool::default();
        if !bytes.starts_with(CLUSTER_MAGIC) {
            return Ok(Self::from_engine(StreamingEngine::recover_from(
                dir, fanout,
            )?));
        }
        let (num_shards, dim, per_shard_capacity, window) =
            decode_cluster_manifest(&bytes).map_err(io_cluster)?;
        let mut states = (0..num_shards as usize)
            .map(|i| persist::load_state(shard_dir(dir, i)))
            .collect::<io::Result<Vec<_>>>()
            .map_err(io_cluster)?;
        if let [st] = states.as_mut_slice() {
            st.set_window(window);
            let engine = persist::recover_engine_from_state(shard_dir(dir, 0), st, &fanout)?;
            return Ok(Self::from_engine(StreamingEngine::from_engine(
                engine, fanout,
            )));
        }
        for st in &states {
            if st.params().dim() != dim {
                return Err(ClusterError::Topology(format!(
                    "shard dimensionality {} does not match the cluster manifest's {dim}",
                    st.params().dim()
                )));
            }
        }
        // Every shard rebuilds over one plane matrix; a shard whose
        // parameters differ from the first's fails its rebuild.
        let planes = Arc::new(Hyperplanes::for_params(states[0].params(), &fanout));
        for st in &mut states {
            st.set_planes(Arc::clone(&planes));
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
        let mut shards = Vec::with_capacity(s);
        for (i, st) in states.iter().enumerate() {
            let sdir = shard_dir(dir, i);
            let keep = routed(total, i, s);
            let engine = if keep == covered(st) {
                persist::recover_engine_from_state(&sdir, st, &fanout)?
            } else {
                // This shard ran ahead of the crashed batch: rebuild the
                // kept prefix and lay down a fresh baseline. `keep` counts
                // id-space positions; the rebuild wants *resident* rows
                // past the compaction cut (saturating: a truncation point
                // inside the compacted prefix keeps no rows).
                let resident = keep.saturating_sub(st.static_base() as usize);
                let engine = persist::rebuild_engine(st, Some(resident), &fanout)?;
                fs::remove_dir_all(&sdir).map_err(io_cluster)?;
                engine.persist_to(&sdir)?;
                engine
            };
            shards.push(shard_handle(engine, i));
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
        let retire_cursor = shards
            .iter()
            .enumerate()
            .map(|(i, shard)| match shard.engine().retired_below() {
                0 => 0,
                r => ((r as usize - 1) * s + i + 1).min(total as usize) as u32,
            })
            .max()
            .unwrap_or(0);
        if retire_cursor > 0 {
            for (i, shard) in shards.iter().enumerate() {
                let _ = shard.retire_to(routed(retire_cursor, i, s) as u32);
            }
        }
        Ok(ShardedIndex::assemble(
            shards,
            fanout,
            per_shard_capacity as usize,
            window,
            total,
            retire_cursor,
        ))
    }
}

impl SearchBackend for ShardedIndex {
    fn search(&self, req: &SearchRequest, pool: &ThreadPool) -> CoreResult<SearchResponse> {
        ShardedIndex::search_with(self, req, pool)
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

/// Wraps shard `i`'s engine in its streaming handle. The handle's pool is
/// serial: cross-shard parallelism comes from the fan-out pool and the
/// per-shard merge threads, so intra-shard fan-out would only
/// oversubscribe. Shard-per-core layout: the shard's merge worker pins to
/// [`shard_core`]`(i)`.
fn shard_handle(engine: Engine, i: usize) -> StreamingEngine {
    let shard = StreamingEngine::from_engine(engine, ThreadPool::new(1));
    if let Some(core) = shard_core(i) {
        shard.pin_merge_to(core);
    }
    shard
}

/// The core shard `i`'s merge worker pins to, or `None` when pinning is
/// disabled (`PLSH_PIN=off`, a single-core host — or a kernel that refuses
/// the syscall, which turns the pin into a logged no-op). Shards wrap
/// modulo the hardware-thread count when there are more shards than cores.
fn shard_core(i: usize) -> Option<usize> {
    affinity::pinning_enabled().then(|| i % affinity::host_threads())
}

/// Re-creates the fan-out pool pinned to the cores the shard layout
/// leaves free, so fan-out workers never contend with pinned merge
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

/// Resolves the model-driven shard count for `profile` and the per-shard
/// engine template: Section 7's query-cost model evaluated at every
/// candidate count, over a synthetic distance sample at the paper's
/// operating point (most of the corpus far from the query, a thin
/// near-duplicate band inside the radius).
///
/// `node.capacity` is taken as the *expected total corpus size*: it sizes
/// the expected collision and candidate counts, which
/// [`PerformanceModel::predict_sharded_query_batch`] divides across shards
/// (strong scaling).
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
    model.pick_shard_count(MODEL_BATCH_QUERIES, 7.2, e_coll, e_uniq, params, max)
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
    fn delete_by_global_id_tombstones_once() {
        let index = sharded(3, 1_000);
        let vs = random_vecs(60, 3);
        let ids = index.insert_batch(&vs).unwrap();
        // The batch is applied on return, so the delete lands right away.
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

    /// Every `MergeReport` field survives the fold: counts sum, durations
    /// take the maximum. Queries run throughout, so the paced background
    /// merges yield to them between slices (one table per slice at most).
    #[test]
    fn last_merge_folds_every_field() {
        use std::sync::atomic::AtomicBool;
        let node = EngineConfig::new(params(64), 1_000)
            .manual_merge()
            .with_window(WindowSpec::Docs(100));
        let index = Arc::new(
            ShardedIndex::builder(node)
                .shards(2)
                .threads(2)
                .build()
                .unwrap(),
        );
        let vs = random_vecs(600, 41);
        index.insert_batch(&vs[..400]).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let (index, stop, q) = (index.clone(), stop.clone(), vs[0].clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    index.search(&SearchRequest::query(q.clone())).unwrap();
                }
            })
        };
        let mut batches = vs[400..].chunks(50);
        let folded = loop {
            assert_eq!(index.merge_all_in_background(), 2);
            index.wait_for_merges();
            let folded = index.last_merge();
            match batches.next() {
                Some(batch) if folded.yielded.is_zero() => index.insert_batch(batch).unwrap(),
                _ => break folded,
            };
        };
        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap();
        let shards: Vec<MergeReport> = (0..2).map(|s| index.shard(s).last_merge()).collect();
        let sum = |f: fn(&MergeReport) -> usize| shards.iter().map(f).sum::<usize>();
        let max = |f: fn(&MergeReport) -> Duration| shards.iter().map(f).max().unwrap();
        assert!(
            folded.retired_rows_reclaimed > 0,
            "the window compacted rows"
        );
        assert!(!folded.yielded.is_zero(), "the merges yielded to queries");
        assert_eq!(folded.merged_points, sum(|r| r.merged_points));
        assert_eq!(folded.purged_points, sum(|r| r.purged_points));
        assert_eq!(
            folded.retired_rows_reclaimed,
            sum(|r| r.retired_rows_reclaimed)
        );
        assert_eq!(folded.build, max(|r| r.build));
        assert_eq!(folded.publish, max(|r| r.publish));
        assert_eq!(folded.yielded, max(|r| r.yielded));
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
        // The first batch lands before the reader starts, so it always
        // has something visible to probe.
        index.insert_batch(&vs[..100]).unwrap();
        let writer = {
            let index = index.clone();
            let vs = vs.clone();
            std::thread::spawn(move || {
                for chunk in vs[100..].chunks(100) {
                    index.insert_batch(chunk).unwrap();
                }
            })
        };
        let reader = {
            let index = index.clone();
            let vs = vs.clone();
            std::thread::spawn(move || {
                let mut checked = 0;
                while checked < 50 {
                    let visible = index.visible_len();
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
    fn pinned_shard_merges_publish_and_stay_healthy() {
        let index = sharded(2, 1_000);
        index.insert_batch(&random_vecs(30, 21)).unwrap();
        assert_eq!(index.visible_len(), 30, "an acknowledged batch is visible");
        assert_eq!(index.merge_all_in_background(), 2);
        index.wait_for_merges();
        let folded: usize = (0..2).map(|s| index.shard(s).engine().static_len()).sum();
        assert_eq!(folded, 30, "both shards' merges published");
        let health = index.health();
        assert!(health.healthy());
        assert_eq!(health.merge_failures, 0);
        // Pinning degrades to a no-op when disabled (PLSH_PIN=off or a
        // single-core host); a requested core is always inside the
        // host's thread range.
        for i in 0..2 {
            match shard_core(i) {
                Some(core) => assert!(core < affinity::host_threads()),
                None => assert!(!affinity::pinning_enabled()),
            }
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
    fn shards_share_one_plane_matrix() {
        let share_one = |index: &ShardedIndex| {
            let first = index.shard(0).engine().planes();
            for i in 1..index.num_shards() {
                assert!(
                    Arc::ptr_eq(first, index.shard(i).engine().planes()),
                    "shard {i}"
                );
            }
            let folded = index.stats().folded();
            assert_eq!(folded.hyperplane_bytes, first.memory_bytes());
        };
        for shards in [2, 3] {
            let dir = tempdir(&format!("shared-planes-{shards}"));
            let vs = random_vecs(90, 12);
            {
                let index = sharded(shards, 200);
                share_one(&index);
                index.insert_batch(&vs).unwrap();
                index.flush().unwrap();
                index.persist_to(&dir).unwrap();
            }
            let recovered = ShardedIndex::recover_from(&dir).unwrap();
            assert_eq!(recovered.len(), 90);
            share_one(&recovered);
            let _ = fs::remove_dir_all(&dir);
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
        // Fail-stop mid-stream: yank shard 0's data directory out from
        // under it so every durable write on that shard fails (retries
        // included). The next batch reaches both shards: shard 0's WAL
        // append exhausts its retries and refuses its half before touching
        // memory, while shard 1 applies its own.
        fs::remove_dir_all(dir.join("shard-0").join("data-0")).unwrap();
        let failed = random_vecs(10, 14);
        let err = index.insert_batch(&failed).unwrap_err();
        assert!(
            matches!(err, ClusterError::Node(PlshError::Degraded(_))),
            "expected a typed degraded error, got {err:?}"
        );
        assert_eq!(
            index.shard(0).len(),
            20,
            "the failing shard applied nothing"
        );
        assert_eq!(
            index.shard(1).len(),
            25,
            "the healthy shard applied its half"
        );
        // Reads keep answering; every acknowledged id still resolves.
        let resp = index.search(&SearchRequest::query(vs[0].clone())).unwrap();
        assert!(!resp.results[0].is_empty(), "reads must survive degrade");
        for (g, v) in vs.iter().enumerate() {
            assert_eq!(index.vector(g as u32).as_ref(), Some(v), "acked id {g}");
        }
        // Health and writes agree, and a refused batch is refused whole.
        assert!(index.health().degraded);
        let err = index.insert_batch(&random_vecs(8, 15)).unwrap_err();
        assert!(matches!(err, ClusterError::Node(PlshError::Degraded(_))));
        assert_eq!(index.shard(1).len(), 25);

        // Lift the fault and heal: shard 0 re-syncs into a fresh data
        // directory, but it is still short of the ids routing assigned it,
        // so writing on would misroute every later id. The index stays
        // read-only — typed, and reported by health — until recovery.
        assert!(
            !index.heal(),
            "a shard short of its routed ids stays unwritable"
        );
        assert!(
            !index.shard(0).engine().is_degraded(),
            "the shard itself healed"
        );
        let health = index.health();
        assert!(health.degraded, "health must agree with refused writes");
        assert!(health.degraded_reason.unwrap().contains("routing"));
        let err = index.insert_batch(&random_vecs(8, 16)).unwrap_err();
        assert!(
            matches!(err, ClusterError::Node(PlshError::Degraded(_))),
            "expected a typed error, got {err:?}"
        );
        drop(index);

        // Recovery lands on the contiguous prefix — the 40 acknowledged
        // points — and answers exactly like a from-scratch build of it.
        let recovered = ShardedIndex::recover_from(&dir).unwrap();
        assert_eq!(recovered.len(), 40);
        let scratch = sharded(2, 1_000);
        scratch.insert_batch(&vs).unwrap();
        for q in vs.iter().chain(&failed) {
            assert_eq!(answers(&recovered, q), answers(&scratch, q));
        }
        assert!(recovered.health().healthy());
        assert_eq!(
            recovered.insert_batch(&failed).unwrap(),
            (40..50).collect::<Vec<u32>>()
        );
        let _ = fs::remove_dir_all(&dir);
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
