//! A shared-read streaming handle over the [`Engine`].
//!
//! [`StreamingEngine`] is a cheaply cloneable handle (`Arc<Engine>` plus a
//! worker pool) that lets ingest, merge, and query run from *different
//! threads at the same time* — the paper's headline scenario of answering
//! queries while the Twitter firehose streams in:
//!
//! * `insert_batch` hashes and seals under the engine's write mutex;
//! * queries pin an epoch lock-free and never block on the write path;
//! * when the sealed delta crosses `η·C`, the merge is handed to a
//!   **background thread** instead of running inline — ingest and queries
//!   continue against the current epoch until the merged epoch is
//!   published with a single swap.
//!
//! A background merge is a one-shot task: one spawned thread runs one
//! paced merge and exits. A panic inside it is caught at the thread's
//! boundary and counted in [`health`](StreamingEngine::health); the
//! merge published nothing, and the next trigger — the next insert past
//! `η·C`, a [`flush`](StreamingEngine::flush), or a writer short of room
//! (see [`Engine::admit`]) — runs it again.
//!
//! ```
//! use plsh_core::{EngineConfig, PlshParams, SparseVector};
//! use plsh_core::streaming::StreamingEngine;
//! use plsh_parallel::ThreadPool;
//!
//! let params = PlshParams::builder(16).k(4).m(4).radius(0.9).seed(42).build().unwrap();
//! let s = StreamingEngine::new(EngineConfig::new(params, 64), ThreadPool::new(2)).unwrap();
//! let ingest = s.clone();
//! let writer = std::thread::spawn(move || {
//!     let v = SparseVector::unit(vec![(0, 1.0), (3, 2.0)]).unwrap();
//!     ingest.insert_batch(&[v]).unwrap();
//! });
//! writer.join().unwrap();
//! let q = SparseVector::unit(vec![(0, 1.0), (3, 2.0)]).unwrap();
//! assert!(s.query(&q).iter().any(|h| h.index == 0));
//! s.wait_for_merge();
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use plsh_parallel::{affinity, ThreadPool};

use crate::engine::{Engine, EngineConfig, EngineStats, EpochInfo, MergeReport};
use crate::error::Result;
use crate::fault;
use crate::health::HealthReport;
use crate::query::{BatchStats, Neighbor};
use crate::search::{SearchBackend, SearchRequest, SearchResponse};
use crate::sparse::SparseVector;

/// What [`StreamingEngine::shutdown`] managed to wind down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Whether the open generation was fully sealed — `false` means rows
    /// remain buffered (and WAL-covered, if persistence is attached), e.g.
    /// because the engine is degraded and the seal was aborted.
    pub drained: bool,
    /// Whether a background merge was still running at the deadline and
    /// was detached rather than joined. An abandoned merge keeps running
    /// harmlessly (its publish is a single atomic swap) — the process just
    /// stops waiting for it.
    pub merge_abandoned: bool,
}

/// Sentinel for "no core" in the merge-pin request.
const NOT_PINNED: usize = usize::MAX;

/// Why joining a merge thread cannot fail: it catches its merge's panic.
const MERGE_THREAD_CATCHES: &str = "a merge thread catches its merge's panic";

/// A cloneable, thread-safe streaming handle (see the module docs).
#[derive(Clone)]
pub struct StreamingEngine {
    engine: Arc<Engine>,
    pool: ThreadPool,
    /// The in-flight background merge, if any (all clones share it).
    merger: Arc<Mutex<Option<JoinHandle<()>>>>,
    /// Background merges that panicked, and the last panic's message (all
    /// clones share it; surfaced through [`health`](Self::health)).
    merge_failures: Arc<Mutex<(u64, Option<String>)>>,
    /// The core merge threads pin themselves to, or [`NOT_PINNED`] (all
    /// clones share it).
    merge_pin: Arc<AtomicUsize>,
}

impl StreamingEngine {
    /// Creates a fresh engine wrapped in a streaming handle.
    pub fn new(config: EngineConfig, pool: ThreadPool) -> Result<Self> {
        let engine = Engine::new(config, &pool)?;
        Ok(Self::from_engine(engine, pool))
    }

    /// Wraps an existing engine (e.g. one pre-loaded from a snapshot).
    pub fn from_engine(engine: Engine, pool: ThreadPool) -> Self {
        Self {
            engine: Arc::new(engine),
            pool,
            merger: Arc::new(Mutex::new(None)),
            merge_failures: Arc::default(),
            merge_pin: Arc::new(AtomicUsize::new(NOT_PINNED)),
        }
    }

    /// Requests that every future background-merge worker thread pin
    /// itself to `core` (shard-per-core clusters pass the owning shard's
    /// core, so ingest and merge share it and stay off the query cores).
    /// A no-op when pinning is disabled (`PLSH_PIN=off`, single-core
    /// host) or the kernel refuses.
    pub fn pin_merge_to(&self, core: usize) {
        self.merge_pin.store(core, Ordering::SeqCst);
    }

    /// Attaches incremental durability (see [`crate::persist`]): writes a
    /// baseline of the current contents into `dir`, then keeps the
    /// directory in sync from every insert, seal, delete, merge, and
    /// clear this handle (or any clone) performs.
    pub fn persist_to(&self, dir: impl AsRef<std::path::Path>) -> Result<()> {
        self.engine.persist_to(dir)
    }

    /// Recovers an engine from a directory written by
    /// [`persist_to`](Self::persist_to) and wraps it in a streaming
    /// handle, with persistence re-attached. Answers are bit-identical to
    /// a from-scratch build over the recovered rows.
    pub fn recover_from(dir: impl AsRef<std::path::Path>, pool: ThreadPool) -> Result<Self> {
        let engine = Engine::recover_from(dir, &pool)?;
        Ok(Self::from_engine(engine, pool))
    }

    /// The underlying engine (all its `&self` operations are safe to call
    /// concurrently with this handle's).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The worker pool the handle drives hashing, merging, and batched
    /// queries with.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Inserts a batch and seals it (visible to queries on return). When
    /// the sealed delta crosses `η·C` (and auto-merge is on), a background
    /// merge is kicked off instead of blocking this call.
    pub fn insert_batch(&self, vs: &[SparseVector]) -> Result<Vec<u32>> {
        let (ids, merge_due) = self.engine.insert_batch_deferring_merge(vs, &self.pool)?;
        if merge_due {
            self.merge_in_background();
        }
        Ok(ids)
    }

    /// Inserts one vector; returns its id.
    pub fn insert(&self, v: SparseVector) -> Result<u32> {
        Ok(self.insert_batch(std::slice::from_ref(&v))?[0])
    }

    /// Seals the open generation, if the engine was configured to coalesce
    /// batches (`seal_min_points > 1`).
    pub fn seal(&self) -> bool {
        self.engine.seal()
    }

    /// Tombstones a point.
    pub fn delete(&self, id: u32) -> bool {
        self.engine.delete(id)
    }

    /// Advances the sliding-window retirement watermark: every id below
    /// `watermark` becomes dead as one range tombstone (see
    /// [`Engine::retire_to`]). Windowed engines advance it automatically
    /// on insert; this is the manual/cluster entry point.
    pub fn retire_to(&self, watermark: u32) -> Result<bool> {
        self.engine.retire_to(watermark)
    }

    /// Answers one [`SearchRequest`] against the current epoch, using the
    /// handle's own pool for batch fan-out. The one typed entry point —
    /// see [`Engine::search`].
    pub fn search(&self, req: &SearchRequest) -> Result<SearchResponse> {
        self.engine.search(req, &self.pool)
    }

    /// Answers one radius query against the current epoch (thin
    /// convenience over [`search`](Self::search)).
    pub fn query(&self, q: &SparseVector) -> Vec<Neighbor> {
        self.engine.query(q)
    }

    /// Answers a batch through the query driver, all against one
    /// pinned epoch (thin convenience over [`search`](Self::search)).
    pub fn query_batch(&self, qs: &[SparseVector]) -> (Vec<Vec<Neighbor>>, BatchStats) {
        self.engine.query_batch(qs, &self.pool)
    }

    /// Runs a merge on *this* thread (blocks until published).
    pub fn merge_now(&self) {
        self.engine.merge_delta(&self.pool);
    }

    /// Starts a background merge unless one is already in flight; returns
    /// whether a new merge was started.
    ///
    /// The merge is a one-shot thread running the paced merge. A panic
    /// (the merge build itself, or an armed [`fault::MERGE_BUILD`]
    /// injection, which fires outside every engine lock) is caught at the
    /// thread's boundary and counted in [`health`](Self::health); the next
    /// trigger runs the merge again.
    pub fn merge_in_background(&self) -> bool {
        let mut slot = self.merger.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(handle) = slot.take() {
            if !handle.is_finished() {
                *slot = Some(handle);
                return false; // one merge at a time; the next trigger re-checks
            }
            handle.join().expect(MERGE_THREAD_CATCHES);
        }
        let engine = self.engine.clone();
        let failures = self.merge_failures.clone();
        let core = self.merge_pin.load(Ordering::SeqCst);
        *slot = Some(std::thread::spawn(move || {
            if core != NOT_PINNED {
                affinity::pin_current_thread(core);
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                fault::point(fault::MERGE_BUILD);
                engine.merge_delta_paced();
            }));
            if let Err(payload) = outcome {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                let mut f = failures.lock().unwrap_or_else(|e| e.into_inner());
                *f = (f.0 + 1, Some(message));
            }
        }));
        true
    }

    /// Blocks until the in-flight background merge (if any) has finished.
    /// Merge panics never propagate here — they are caught in the merge
    /// thread and reported through [`health`](Self::health).
    pub fn wait_for_merge(&self) {
        let handle = self.merger.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(h) = handle {
            h.join().expect(MERGE_THREAD_CATCHES);
        }
    }

    /// Quiesces the write path: seals any buffered open generation, waits
    /// for an in-flight background merge, then folds every remaining sealed
    /// generation into the static epoch on this thread. On return the
    /// engine is fully static (and every insert made before the call is
    /// query-visible through the static tables).
    pub fn flush(&self) {
        self.seal();
        self.wait_for_merge();
        self.merge_now();
    }

    /// True while a background merge is building.
    pub fn merge_in_flight(&self) -> bool {
        self.merger
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .is_some_and(|h| !h.is_finished())
    }

    /// Winds the handle down for a clean exit: seals (drains) whatever the
    /// open generation still buffers, then waits up to `deadline` for an
    /// in-flight background merge, detaching it if it misses. Idempotent;
    /// the handle stays usable afterwards.
    pub fn shutdown(&self, deadline: Duration) -> ShutdownReport {
        let t0 = Instant::now();
        self.engine.seal();
        let drained = self.engine.health().wal_lag_rows == 0;
        let handle = self.merger.lock().unwrap_or_else(|e| e.into_inner()).take();
        let merge_abandoned = handle.is_some_and(|h| {
            while !h.is_finished() && t0.elapsed() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            if !h.is_finished() {
                return true; // detach: stop waiting, let it publish on its own
            }
            h.join().expect(MERGE_THREAD_CATCHES);
            false
        });
        ShutdownReport {
            drained,
            merge_abandoned,
        }
    }

    /// Engine health plus the background merges' failure count.
    pub fn health(&self) -> HealthReport {
        let mut report = self.engine.health();
        (report.merge_failures, report.last_merge_failure) = self
            .merge_failures
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        report
    }

    /// Attempts to leave degraded read-only mode (see [`Engine::heal`]).
    pub fn heal(&self) -> bool {
        self.engine.heal()
    }

    /// Stored points (sealed + open).
    pub fn len(&self) -> usize {
        self.engine.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.engine.is_empty()
    }

    /// Accounting passthrough.
    pub fn stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Published-epoch shape passthrough.
    pub fn epoch_info(&self) -> EpochInfo {
        self.engine.epoch_info()
    }

    /// Most recent merge timings.
    pub fn last_merge(&self) -> MergeReport {
        self.engine.last_merge()
    }
}

impl SearchBackend for StreamingEngine {
    /// Trait entry point for generic drivers; `pool` supplies the batch
    /// fan-out workers (the inherent [`search`](StreamingEngine::search)
    /// uses the handle's own pool instead).
    fn search(&self, req: &SearchRequest, pool: &ThreadPool) -> Result<SearchResponse> {
        self.engine.search(req, pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::PlshParams;
    use crate::rng::SplitMix64;

    fn params(dim: u32) -> PlshParams {
        PlshParams::builder(dim)
            .k(6)
            .m(6)
            .radius(0.9)
            .seed(7)
            .build()
            .unwrap()
    }

    fn random_vec(rng: &mut SplitMix64, dim: u32) -> SparseVector {
        let a = rng.next_below(dim as u64) as u32;
        let b = (a + 1 + rng.next_below(dim as u64 - 1) as u32) % dim;
        SparseVector::unit(vec![(a, 1.0), (b, rng.next_f64() as f32 + 0.1)]).unwrap()
    }

    #[test]
    fn background_merge_publishes_eventually() {
        let s = StreamingEngine::new(
            EngineConfig::new(params(64), 1000).with_eta(0.1),
            ThreadPool::new(2),
        )
        .unwrap();
        let mut rng = SplitMix64::new(1);
        let vs: Vec<SparseVector> = (0..400).map(|_| random_vec(&mut rng, 64)).collect();
        for chunk in vs.chunks(50) {
            s.insert_batch(chunk).unwrap();
        }
        s.wait_for_merge();
        assert!(s.stats().merges >= 1, "threshold crossings must merge");
        assert!(s.engine().static_len() > 0);
        for (i, v) in vs.iter().enumerate() {
            assert!(s.query(v).iter().any(|h| h.index == i as u32), "point {i}");
        }
    }

    #[test]
    fn clones_share_the_engine() {
        let s = StreamingEngine::new(
            EngineConfig::new(params(64), 100).manual_merge(),
            ThreadPool::new(1),
        )
        .unwrap();
        let t = s.clone();
        let v = SparseVector::unit(vec![(1, 1.0), (2, 0.5)]).unwrap();
        let id = s.insert(v.clone()).unwrap();
        assert!(t.query(&v).iter().any(|h| h.index == id));
        assert!(t.delete(id));
        assert!(s.query(&v).iter().all(|h| h.index != id));
        assert_eq!(s.len(), t.len());
    }

    #[test]
    fn flush_seals_and_folds_everything_static() {
        let s = StreamingEngine::new(
            EngineConfig::new(params(64), 100)
                .manual_merge()
                .with_seal_min_points(50),
            ThreadPool::new(1),
        )
        .unwrap();
        let mut rng = SplitMix64::new(3);
        let vs: Vec<SparseVector> = (0..20).map(|_| random_vec(&mut rng, 64)).collect();
        s.insert_batch(&vs).unwrap();
        // Below the seal threshold: buffered, invisible.
        assert_eq!(s.engine().visible_len(), 0);
        s.flush();
        assert_eq!(s.engine().static_len(), 20, "flush must seal + merge");
        for (i, v) in vs.iter().enumerate() {
            assert!(s.query(v).iter().any(|h| h.index == i as u32), "point {i}");
        }
    }

    #[test]
    fn queries_run_while_a_merge_is_in_flight() {
        let s = StreamingEngine::new(
            EngineConfig::new(params(64), 2000).manual_merge(),
            ThreadPool::new(2),
        )
        .unwrap();
        let mut rng = SplitMix64::new(2);
        let vs: Vec<SparseVector> = (0..800).map(|_| random_vec(&mut rng, 64)).collect();
        for chunk in vs.chunks(100) {
            s.insert_batch(chunk).unwrap();
        }
        s.merge_in_background();
        // Whatever phase the merge is in, answers stay correct.
        for probe in (0..800).step_by(97) {
            assert!(s.query(&vs[probe]).iter().any(|h| h.index == probe as u32));
        }
        s.wait_for_merge();
        assert_eq!(s.engine().static_len(), 800);
        for probe in (0..800).step_by(97) {
            assert!(s.query(&vs[probe]).iter().any(|h| h.index == probe as u32));
        }
    }
}
