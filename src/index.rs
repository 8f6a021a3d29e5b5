//! The one-stop PLSH client: a streaming similarity index behind a single
//! typed request/response API.
//!
//! [`Index`] bundles everything the paper's front-end needs — concurrent
//! [`StreamingEngine`]s (lock-free epoch-pinned queries, background merges
//! at `η·C`), an owned worker [`ThreadPool`], and an optional
//! [`Vectorizer`] for the tweet scenario — so applications never wire
//! pools or pick among query methods. Ingest with [`add`](Index::add) /
//! [`add_text`](Index::add_text), query with one
//! [`search`](Index::search) call taking a [`SearchRequest`], and get one
//! [`plsh::Error`](crate::Error) type end-to-end.
//!
//! Every index is a [`ShardedIndex`], one shard by default: the paper's
//! single node is the cluster of one node. Call
//! [`shards`](IndexBuilder::shards) (or
//! [`auto_shards`](IndexBuilder::auto_shards) for the model-driven count)
//! to run identical nodes side by side — round-robin ingest into
//! shard-local streaming engines, overlapping background merges, and
//! query fan-out — without changing a single call site.
//!
//! ```
//! use plsh::{Index, PlshParams, SearchRequest, SparseVector};
//!
//! let params = PlshParams::builder(16).k(4).m(4).radius(0.9).seed(42).build()?;
//! let index = Index::builder(params).capacity(1024).threads(2).build()?;
//!
//! index.add(SparseVector::unit(vec![(0, 1.0), (3, 2.0)])?)?;
//! index.add(SparseVector::unit(vec![(0, 1.0), (3, 1.9)])?)?;
//!
//! let q = SparseVector::unit(vec![(0, 1.0), (3, 2.0)])?;
//! let resp = index.search(&SearchRequest::query(q).top_k(2))?;
//! assert_eq!(resp.hits()[0].index, 0);
//! # Ok::<(), plsh::Error>(())
//! ```

use std::io::{Read, Write};
use std::sync::Arc;

use plsh_cluster::ShardedIndex;
use plsh_core::engine::{EngineConfig, EngineStats, EpochInfo, MergeReport, WindowSpec};
use plsh_core::error::{PlshError, Result};
use plsh_core::params::PlshParams;
use plsh_core::search::{SearchHit, SearchRequest, SearchResponse};
use plsh_core::snapshot::Snapshot;
use plsh_core::sparse::SparseVector;
use plsh_core::streaming::{ShutdownReport, StreamingEngine};
use plsh_parallel::ThreadPool;
use plsh_server::{ServeBackend, Server, ServerConfig};
use plsh_text::Vectorizer;

/// Default node capacity when the builder does not set one (the paper's
/// per-node `C` is 10.5 M; this default keeps small deployments cheap).
const DEFAULT_CAPACITY: usize = 1 << 20;

/// A cheaply cloneable handle to a PLSH index: streaming ingest, epoch
/// consistency, background merging, text vectorization, and the unified
/// [`SearchRequest`] query door — all behind one type that owns its
/// thread pool. Clones share the same underlying index.
#[derive(Clone)]
pub struct Index {
    inner: Arc<ShardedIndex>,
    vectorizer: Option<Arc<Vectorizer>>,
}

impl std::fmt::Debug for Index {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Index")
            .field("points", &self.len())
            .field("capacity", &self.capacity())
            .field("dim", &self.params().dim())
            .field("text", &self.vectorizer.is_some())
            .finish_non_exhaustive()
    }
}

/// Builder for [`Index`]: configuration beyond the LSH parameters is
/// optional and defaults to the paper's operating point (one node,
/// auto-merge at `η = 0.1`, one worker per core).
pub struct IndexBuilder {
    /// The per-shard engine template.
    config: EngineConfig,
    threads: Option<usize>,
    vectorizer: Option<Vectorizer>,
    /// Shard count; `None` lets the performance model pick it.
    shards: Option<usize>,
}

impl IndexBuilder {
    /// Node capacity `C` in points (default 1 M). Inserts beyond this
    /// fail; a multi-node deployment retires old nodes instead (see
    /// `plsh-cluster`).
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.config.capacity = capacity;
        self
    }

    /// Worker threads for hashing, merging, and batch fan-out (default:
    /// one per core).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Delta fraction `η` of capacity that triggers a background merge
    /// (default 0.1, the paper's choice).
    pub fn eta(mut self, eta: f64) -> Self {
        self.config = self.config.with_eta(eta);
        self
    }

    /// Disables automatic background merges; call [`Index::merge`]
    /// explicitly.
    pub fn manual_merge(mut self) -> Self {
        self.config = self.config.manual_merge();
        self
    }

    /// Minimum open-generation size before inserts auto-seal (default 1:
    /// every batch becomes query-visible as soon as the call returns).
    pub fn seal_min_points(mut self, points: usize) -> Self {
        self.config = self.config.with_seal_min_points(points);
        self
    }

    /// Attaches a frozen text pipeline so [`Index::add_text`] and
    /// [`Index::search_text`] work. Its dimensionality must match the
    /// parameters'.
    pub fn vectorizer(mut self, vectorizer: Vectorizer) -> Self {
        self.vectorizer = Some(vectorizer);
        self
    }

    /// Runs `shards` shard-local streaming engines side by side (default
    /// 1: round-robin ingest, overlapping background merges, query
    /// fan-out) behind the same call surface. `capacity` is the
    /// *per-shard* capacity, as in the paper's per-node `C`. See
    /// [`ShardedIndex`] for routing and merge semantics; snapshots
    /// flatten into the single-engine format, and a durable directory of
    /// more than one shard gets one subdirectory per shard.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Like [`shards`](Self::shards), but lets the Section-7 performance
    /// model pick the shard count for this machine
    /// ([`plsh_core::model::PerformanceModel::pick_shard_count`]).
    pub fn auto_shards(mut self) -> Self {
        self.shards = None;
        self
    }

    /// Enables sliding-window retirement: only the newest
    /// [`WindowSpec::Docs`]`(n)` documents — or those younger than
    /// [`WindowSpec::Duration`] — stay live; older points are retired by a
    /// single range-tombstone watermark and physically reclaimed by the
    /// next merge. Across shards the window is a consistent cross-shard
    /// cut at the global stream position. The window must leave capacity
    /// headroom for the un-merged delta (a good rule of thumb:
    /// `capacity ≈ 3 × window`).
    pub fn with_window(mut self, window: WindowSpec) -> Self {
        self.config = self.config.with_window(window);
        self
    }

    /// Builds the index (generates hyperplanes, spins up the pool).
    pub fn build(self) -> Result<Index> {
        let dim = self.config.params.dim();
        if let Some(v) = self.vectorizer.as_ref().filter(|v| v.dim() != dim) {
            return Err(PlshError::InvalidParams(format!(
                "vectorizer dimensionality {} does not match params dimensionality {dim}",
                v.dim(),
            )));
        }
        let mut builder = ShardedIndex::builder(self.config);
        if let Some(s) = self.shards {
            builder = builder.shards(s);
        }
        if let Some(t) = self.threads {
            builder = builder.threads(t);
        }
        Ok(Index {
            inner: Arc::new(builder.build()?),
            vectorizer: self.vectorizer.map(Arc::new),
        })
    }
}

impl Index {
    /// Starts building an index for the given LSH parameters.
    pub fn builder(params: PlshParams) -> IndexBuilder {
        IndexBuilder {
            config: EngineConfig::new(params, DEFAULT_CAPACITY),
            threads: None,
            vectorizer: None,
            shards: Some(1),
        }
    }

    fn wrap(inner: ShardedIndex) -> Index {
        Index {
            inner: Arc::new(inner),
            vectorizer: None,
        }
    }

    /// Restores an index from a snapshot stream previously written by
    /// [`save_to`](Index::save_to), with a default-sized pool. The
    /// restored engine answers every query identically to the saved one.
    /// Like `Engine::load_from`, the restored index merges manually —
    /// call [`merge`](Index::merge) after bulk loading. The vectorizer is
    /// not part of the snapshot; re-attach one with
    /// [`with_vectorizer`](Index::with_vectorizer).
    pub fn restore_from<R: Read>(r: &mut R) -> Result<Index> {
        Self::restore_with(r, ThreadPool::default())
    }

    /// [`restore_from`](Index::restore_from) with an explicit pool.
    pub fn restore_with<R: Read>(r: &mut R, pool: ThreadPool) -> Result<Index> {
        let engine = Snapshot::read_from(r)?.restore(&pool)?;
        Ok(Index::wrap(ShardedIndex::from_engine(
            StreamingEngine::from_engine(engine, pool),
        )))
    }

    /// Attaches a frozen text pipeline after construction (e.g. after a
    /// snapshot restore).
    pub fn with_vectorizer(mut self, vectorizer: Vectorizer) -> Self {
        self.vectorizer = Some(Arc::new(vectorizer));
        self
    }

    // ---- Ingest ----

    /// Inserts one vector; returns its id. The point is visible to
    /// queries on return. A background merge starts when a sealed delta
    /// crosses `η·C`.
    pub fn add(&self, v: SparseVector) -> Result<u32> {
        Ok(self.inner.insert(v)?)
    }

    /// Inserts a batch (the paper's firehose arrives in ~100 K-point
    /// chunks); all-or-nothing with respect to capacity. Under a window a
    /// batch that does not fit waits for (or runs) the merge that
    /// compacts the retired rows instead of being refused.
    pub fn add_batch(&self, vs: &[SparseVector]) -> Result<Vec<u32>> {
        Ok(self.inner.insert_batch(vs)?)
    }

    /// Vectorizes one document and inserts it. Fails with
    /// [`Error::EmptyVector`](PlshError::EmptyVector) when the document is
    /// entirely out-of-vocabulary (the paper's dropped "0-length" case).
    pub fn add_text(&self, text: &str) -> Result<u32> {
        self.add(self.vectorize(text)?)
    }

    /// Vectorizes and inserts many documents in one sealed batch. Fully
    /// out-of-vocabulary documents are *dropped* (paper semantics) and
    /// reported as `None` in the returned id list, which is parallel to
    /// the input.
    pub fn add_texts<'a, I>(&self, texts: I) -> Result<Vec<Option<u32>>>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let vectorizer = self.require_vectorizer()?;
        let mut slots: Vec<Option<u32>> = Vec::new();
        let mut batch: Vec<SparseVector> = Vec::new();
        for text in texts {
            match vectorizer.to_vector(text) {
                Ok(v) => {
                    batch.push(v);
                    slots.push(Some(0)); // patched below with the real id
                }
                // Only the documented drop case is silent; any other
                // vectorization failure is a real error.
                Err(plsh_text::TextError::OutOfVocabulary) => slots.push(None),
                Err(e) => return Err(e.into()),
            }
        }
        let ids = self.add_batch(&batch)?;
        let mut next = ids.into_iter();
        for slot in slots.iter_mut().flatten() {
            *slot = next.next().expect("one id per vectorized document");
        }
        Ok(slots)
    }

    /// Tombstones a point; `Ok(false)` if already deleted or out of
    /// range. The point disappears from all future queries immediately
    /// and is purged from the tables at the next merge.
    pub fn delete(&self, id: u32) -> Result<bool> {
        Ok(self.inner.delete(id)?)
    }

    // ---- Search ----

    /// Answers one [`SearchRequest`] — radius or k-NN, single query or
    /// batch, with an optional radius override, candidate budget,
    /// counters, and profiling. On one shard the whole request runs
    /// against one pinned epoch; across shards each shard pins its own and
    /// the answers merge globally. Ingest and merges never block it either
    /// way.
    pub fn search(&self, req: &SearchRequest) -> Result<SearchResponse> {
        self.inner.search(req)
    }

    /// Radius search for a single vector — the clone-free thin wrapper for
    /// hot per-point loops (same answers as
    /// `search(&SearchRequest::query(q))`).
    pub fn query(&self, q: &SparseVector) -> Result<Vec<SearchHit>> {
        self.inner.query(q)
    }

    /// Vectorizes free text and runs a radius search for it.
    pub fn search_text(&self, text: &str) -> Result<SearchResponse> {
        self.search(&SearchRequest::query(self.vectorize(text)?))
    }

    /// Converts text through the attached vectorizer — for composing
    /// custom [`SearchRequest`]s (k-NN over text, batches, overrides).
    pub fn vectorize(&self, text: &str) -> Result<SparseVector> {
        let v = self.require_vectorizer()?;
        Ok(v.to_vector(text)?)
    }

    // ---- Maintenance & observability ----

    /// Merges all sealed delta generations into the next static epoch(s)
    /// on this thread (queries keep running; publication is one swap per
    /// engine). Every shard folds its own.
    pub fn merge(&self) -> Result<()> {
        Ok(self.inner.quiesce()?)
    }

    /// Ingest barrier: seals any buffered open generation on every shard,
    /// so every prior `add` is query-visible on return, and blocks until
    /// in-flight background merges have published.
    pub fn flush(&self) -> Result<()> {
        self.inner.flush()?;
        self.inner.wait_for_merges();
        Ok(())
    }

    /// Liveness and degradation report across the whole index: panicked
    /// background merges (the last message prefixed `shard<i>.`), WAL
    /// lag, persistence retries, and whether any engine has degraded to
    /// read-only. Never blocks on merges (it waits out an insert in
    /// progress).
    pub fn health(&self) -> plsh_core::HealthReport {
        self.inner.health()
    }

    /// Attempts to lift every degraded shard back to read-write by
    /// re-syncing persistence from memory. Returns `true` when the index
    /// is writable again. No-op `true` on a healthy index.
    pub fn heal(&self) -> bool {
        self.inner.heal()
    }

    /// Deadline-bounded graceful drain: seal buffered rows, join (or
    /// abandon) background merges, and report what made it, folded across
    /// shards. See [`plsh_core::streaming::StreamingEngine::shutdown`].
    pub fn shutdown(&self, deadline: std::time::Duration) -> ShutdownReport {
        self.inner.shutdown(deadline)
    }

    /// Serves this index over HTTP with default [`ServerConfig`] — the
    /// one-call path onto the wire surface (`POST /search`, `/ingest`,
    /// `/delete`, `GET /healthz`, `/metrics`, `POST /ctl/shutdown`).
    /// Bind port 0 for an ephemeral port; the clone handed to the server
    /// shares this index's data. See [`plsh_server`] for protocol,
    /// shedding, and drain semantics.
    pub fn serve(&self, addr: impl std::net::ToSocketAddrs) -> std::io::Result<Server> {
        self.serve_with(addr, ServerConfig::default())
    }

    /// [`serve`](Index::serve) with explicit [`ServerConfig`] (handler
    /// threads, queue bound, body cap, shedding budgets, drain deadline).
    pub fn serve_with(
        &self,
        addr: impl std::net::ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        plsh_server::serve(Arc::new(self.clone()), addr, config)
    }

    /// Stored points: the ids assigned so far (live + deleted).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The index's LSH parameters.
    pub fn params(&self) -> &PlshParams {
        self.inner.shard(0).engine().params()
    }

    /// Total capacity `C`: per-shard capacity × shard count.
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// Number of shards (1 unless built with more).
    pub fn num_shards(&self) -> usize {
        self.inner.num_shards()
    }

    /// Point and memory accounting, summed across shards.
    pub fn stats(&self) -> EngineStats {
        self.inner.stats().folded()
    }

    /// Shape of the currently published epoch(s); see
    /// [`ShardedIndex::epoch_info`] for how shards fold.
    pub fn epoch_info(&self) -> EpochInfo {
        self.inner.epoch_info()
    }

    /// Timings of the most recent merge, folded across shards (see
    /// [`ShardedIndex::last_merge`]).
    pub fn last_merge(&self) -> MergeReport {
        self.inner.last_merge()
    }

    /// The stored vector for `id` (`None` when out of range or purged).
    pub fn vector(&self, id: u32) -> Option<SparseVector> {
        self.inner.vector(id)
    }

    /// The underlying streaming handle, for advanced drivers (firehose
    /// pumps, cluster experiments) that need the raw engine or pool.
    /// `None` across several shards — use
    /// [`sharded_backend`](Index::sharded_backend) there.
    pub fn backend(&self) -> Option<&StreamingEngine> {
        self.inner.single()
    }

    /// The underlying sharded index (one shard unless built with more).
    pub fn sharded_backend(&self) -> Option<&ShardedIndex> {
        Some(&self.inner)
    }

    // ---- Persistence ----

    /// Writes a snapshot of the index (parameters, rows, static/delta
    /// split, tombstones) to any byte sink. Safe to call while other
    /// threads keep inserting and merging. A multi-shard index flattens
    /// into the same single-engine format (restoring it yields a
    /// one-shard index with identical answers).
    pub fn save_to<W: Write>(&self, w: &mut W) -> Result<()> {
        Ok(self.snapshot()?.write_to(w)?)
    }

    /// Captures the index's state as an in-memory [`Snapshot`] (see
    /// [`ShardedIndex::snapshot`]).
    pub fn snapshot(&self) -> Result<Snapshot> {
        Ok(self.inner.snapshot())
    }

    /// Attaches incremental durability: writes a baseline of the current
    /// contents into `dir` (a WAL-plus-segments engine directory — see
    /// [`plsh_core::persist`]; one `shard-<i>/` subdirectory each across
    /// several shards), then keeps the directory in sync from every
    /// insert, seal, delete, and merge. Recover with
    /// [`recover_from`](Index::recover_from).
    pub fn persist_to(&self, dir: impl AsRef<std::path::Path>) -> Result<()> {
        Ok(self.inner.persist_to(dir)?)
    }

    /// Recovers an index from a directory written by
    /// [`persist_to`](Index::persist_to) (see
    /// [`ShardedIndex::recover_from`]), replaying the static (its
    /// checkpoint segment and folded files), then each later generation's
    /// file, then tombstones, and re-attaching
    /// persistence so the recovered index keeps journaling. The
    /// vectorizer is not part of the directory; re-attach one with
    /// [`with_vectorizer`](Index::with_vectorizer).
    pub fn recover_from(dir: impl AsRef<std::path::Path>) -> Result<Index> {
        Ok(Index::wrap(ShardedIndex::recover_from(dir)?))
    }

    fn require_vectorizer(&self) -> Result<&Vectorizer> {
        self.vectorizer.as_deref().ok_or_else(|| {
            PlshError::InvalidParams(
                "no vectorizer attached: build the index with .vectorizer(...) \
                 or call with_vectorizer(...) to use the text API"
                    .into(),
            )
        })
    }
}

/// What lets an [`Index`] sit behind the `plsh-server` wire surface —
/// every endpoint delegates to the matching inherent method, so HTTP
/// answers are byte-for-byte the in-process answers.
impl ServeBackend for Index {
    fn search(&self, req: &SearchRequest) -> Result<SearchResponse> {
        Index::search(self, req)
    }

    fn insert_batch(&self, vs: &[SparseVector]) -> Result<Vec<u32>> {
        Index::add_batch(self, vs)
    }

    fn delete(&self, id: u32) -> Result<bool> {
        Index::delete(self, id)
    }

    fn health(&self) -> plsh_core::HealthReport {
        Index::health(self)
    }

    fn epoch_info(&self) -> EpochInfo {
        Index::epoch_info(self)
    }

    fn shutdown(&self, deadline: std::time::Duration) -> ShutdownReport {
        Index::shutdown(self, deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plsh_text::{CorpusBuilder, Tokenizer};

    fn params(dim: u32) -> PlshParams {
        PlshParams::builder(dim)
            .k(6)
            .m(6)
            .radius(0.9)
            .seed(3)
            .build()
            .unwrap()
    }

    fn text_index() -> Index {
        let docs = [
            "storm hits the coast tonight",
            "storm hits coast tonight again",
            "sourdough bread rises slowly",
        ];
        let mut b = CorpusBuilder::new(Tokenizer::default());
        for d in docs {
            b.add_document(d);
        }
        let vectorizer = b.finish();
        let index = Index::builder(params(vectorizer.dim()))
            .capacity(64)
            .threads(1)
            .vectorizer(vectorizer)
            .build()
            .unwrap();
        for d in docs {
            index.add_text(d).unwrap();
        }
        index
    }

    #[test]
    fn add_and_search_vectors() {
        let index = Index::builder(params(32))
            .capacity(100)
            .threads(1)
            .build()
            .unwrap();
        let a = SparseVector::unit(vec![(0, 1.0), (5, 1.0)]).unwrap();
        let b = SparseVector::unit(vec![(0, 1.0), (5, 0.95)]).unwrap();
        let ids = index.add_batch(&[a.clone(), b]).unwrap();
        assert_eq!(ids, vec![0, 1]);
        let hits = index.query(&a).unwrap();
        assert!(hits.iter().any(|h| h.index == 1 && h.node == 0));
        assert_eq!(index.len(), 2);
        assert!(index.epoch_info().visible_points == 2);
    }

    #[test]
    fn text_round_trip_and_oov_error() {
        let index = text_index();
        let resp = index.search_text("storm on the coast tonight").unwrap();
        assert!(resp.hits().iter().any(|h| h.index == 0));
        assert_eq!(
            index.search_text("zzz qqq").unwrap_err(),
            PlshError::EmptyVector,
            "fully out-of-vocabulary text surfaces the core error type"
        );
        // Batch path drops OOV docs as None, parallel to the input.
        let slots = index.add_texts(["coast storm", "zzz qqq"]).unwrap();
        assert!(slots[0].is_some());
        assert!(slots[1].is_none());
    }

    #[test]
    fn text_api_without_vectorizer_errors() {
        let index = Index::builder(params(8))
            .capacity(8)
            .threads(1)
            .build()
            .unwrap();
        assert!(matches!(
            index.add_text("anything"),
            Err(PlshError::InvalidParams(_))
        ));
    }

    #[test]
    fn vectorizer_dimension_mismatch_is_rejected() {
        let mut b = CorpusBuilder::new(Tokenizer::default());
        b.add_document("one two three");
        let vectorizer = b.finish();
        let err = Index::builder(params(1000))
            .vectorizer(vectorizer)
            .build()
            .unwrap_err();
        assert!(matches!(err, PlshError::InvalidParams(_)));
    }

    #[test]
    fn snapshot_round_trip_preserves_answers() {
        let index = Index::builder(params(32))
            .capacity(100)
            .threads(1)
            .build()
            .unwrap();
        let vs: Vec<SparseVector> = (0..20)
            .map(|i| SparseVector::unit(vec![(i % 32, 1.0), ((i + 7) % 32, 0.5)]).unwrap())
            .collect();
        index.add_batch(&vs).unwrap();
        index.merge().unwrap();
        index.delete(3).unwrap();
        let mut bytes = Vec::new();
        index.save_to(&mut bytes).unwrap();
        let restored = Index::restore_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(restored.len(), index.len());
        for v in &vs {
            let mut a: Vec<u32> = index.query(v).unwrap().iter().map(|h| h.index).collect();
            let mut b: Vec<u32> = restored.query(v).unwrap().iter().map(|h| h.index).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
        // Truncated snapshots surface as one error type, not a panic.
        assert!(matches!(
            Index::restore_from(&mut bytes[..10].as_ref()),
            Err(PlshError::Io(_))
        ));
    }

    #[test]
    fn sharded_index_serves_the_same_api() {
        let index = Index::builder(params(32))
            .capacity(500)
            .threads(2)
            .shards(3)
            .build()
            .unwrap();
        assert_eq!(index.num_shards(), 3);
        let vs: Vec<SparseVector> = (0..90)
            .map(|i| SparseVector::unit(vec![(i % 32, 1.0), ((i + 9) % 32, 0.6)]).unwrap())
            .collect();
        let ids = index.add_batch(&vs).unwrap();
        assert_eq!(ids, (0..90).collect::<Vec<u32>>());
        index.flush().unwrap();
        assert_eq!(index.len(), 90);
        assert_eq!(index.epoch_info().visible_points, 90);
        assert_eq!(index.capacity(), 1500);
        // Global ids round-trip through query, vector, and delete.
        let hits = index.query(&vs[5]).unwrap();
        assert!(hits.iter().any(|h| h.index == 5));
        assert_eq!(index.vector(5).as_ref(), Some(&vs[5]));
        assert!(index.delete(5).unwrap());
        assert!(index.query(&vs[5]).unwrap().iter().all(|h| h.index != 5));
        // Maintenance aggregates across shards.
        index.merge().unwrap();
        let stats = index.stats();
        assert_eq!(stats.static_points, 90);
        assert!(stats.merges >= 3, "every shard merged");
        assert!(index.last_merge().merged_points > 0);
        // Snapshots flatten the sharded corpus and restore to a
        // single-node index with identical answers.
        let mut sink = Vec::new();
        index.save_to(&mut sink).unwrap();
        let restored = Index::restore_from(&mut sink.as_slice()).unwrap();
        assert_eq!(restored.len(), 90);
        for q in vs.iter().step_by(13) {
            let mut a: Vec<u32> = index.query(q).unwrap().iter().map(|h| h.index).collect();
            let mut b: Vec<u32> = restored.query(q).unwrap().iter().map(|h| h.index).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "flattened snapshot must answer identically");
        }
        assert!(
            restored.query(&vs[5]).unwrap().iter().all(|h| h.index != 5),
            "tombstones survive the flattened round-trip"
        );
        assert!(index.backend().is_none());
        assert!(index.sharded_backend().is_some());
    }

    #[test]
    fn sharded_and_single_agree_on_answers() {
        let vs: Vec<SparseVector> = (0..120)
            .map(|i| SparseVector::unit(vec![(i % 32, 1.0), ((i + 7) % 32, 0.4)]).unwrap())
            .collect();
        let single = Index::builder(params(32))
            .capacity(200)
            .threads(1)
            .build()
            .unwrap();
        single.add_batch(&vs).unwrap();
        let sharded = Index::builder(params(32))
            .capacity(200)
            .threads(2)
            .shards(4)
            .build()
            .unwrap();
        sharded.add_batch(&vs).unwrap();
        sharded.flush().unwrap();
        for q in vs.iter().step_by(11) {
            let mut a: Vec<u32> = single.query(q).unwrap().iter().map(|h| h.index).collect();
            let mut b: Vec<u32> = sharded.query(q).unwrap().iter().map(|h| h.index).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    fn random_vecs(n: usize, seed: u64) -> Vec<SparseVector> {
        let mut rng = plsh_core::rng::SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                let a = rng.next_below(64) as u32;
                let b = (a + 1 + rng.next_below(63) as u32) % 64;
                SparseVector::unit(vec![(a, 1.0), (b, rng.next_f64() as f32 + 0.1)]).unwrap()
            })
            .collect()
    }

    /// Sorted `(id, distance bits)` radius answers per query, through any
    /// search door.
    fn answers_of(
        search: impl Fn(&SearchRequest) -> Result<SearchResponse>,
        qs: &[SparseVector],
    ) -> Vec<Vec<(u32, u32)>> {
        qs.iter()
            .map(|q| {
                let resp = search(&SearchRequest::query(q.clone())).unwrap();
                let mut hits: Vec<(u32, u32)> = resp
                    .hits()
                    .iter()
                    .map(|h| (h.index, h.distance.to_bits()))
                    .collect();
                hits.sort_unstable();
                hits
            })
            .collect()
    }

    fn answers(index: &Index, qs: &[SparseVector]) -> Vec<Vec<(u32, u32)>> {
        answers_of(|r| index.search(r), qs)
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("plsh-index-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn default_index_is_one_shard_over_its_engine() {
        let index = Index::builder(params(64))
            .capacity(500)
            .threads(2)
            .build()
            .unwrap();
        assert_eq!(index.num_shards(), 1);
        let engine = index.backend().expect("one shard exposes its engine");
        let vs = random_vecs(100, 1);
        assert_eq!(
            index.add_batch(&vs).unwrap(),
            (0..100).collect::<Vec<u32>>()
        );
        assert_eq!(engine.len(), 100, "the index's ids are the engine's");
        let req = SearchRequest::query(vs[3].clone());
        let resp = index.search(&req).unwrap();
        assert!(resp.epoch.is_some(), "answered against the engine's epoch");
        assert_eq!(resp.hits(), engine.search(&req).unwrap().hits());
        assert_eq!(index.query(&vs[3]).unwrap(), resp.hits());
        let health = index.health();
        assert!(health.healthy());
        assert_eq!(health.merge_failures, 0);
    }

    #[test]
    fn one_shard_persists_the_plain_engine_layout() {
        let dir = tempdir("plain");
        let vs = random_vecs(120, 2);
        let want = {
            let index = Index::builder(params(64))
                .capacity(500)
                .threads(2)
                .build()
                .unwrap();
            index.add_batch(&vs[..80]).unwrap();
            index.merge().unwrap();
            index.persist_to(&dir).unwrap();
            index.add_batch(&vs[80..]).unwrap();
            index.delete(5).unwrap();
            index.flush().unwrap();
            answers(&index, &vs)
        };
        assert!(!dir.join("shard-0").exists(), "no per-shard subdirectory");
        let state = plsh_core::persist::load_state(&dir).expect("an engine directory");
        assert_eq!(state.static_base() as usize + state.total(), 120);
        let back = Index::recover_from(&dir).unwrap();
        assert_eq!(back.len(), 120);
        assert_eq!(answers(&back, &vs), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_directory_recovers_with_its_window() {
        let dir = tempdir("engine");
        let window = WindowSpec::Docs(60);
        let vs = random_vecs(200, 3);
        let want = {
            let config = EngineConfig::new(params(64), 500).with_window(window);
            let engine = StreamingEngine::new(config, ThreadPool::new(2)).unwrap();
            engine.persist_to(&dir).unwrap();
            for chunk in vs.chunks(25) {
                engine.insert_batch(chunk).unwrap();
            }
            engine.flush();
            answers_of(|r| engine.search(r), &vs)
        };
        let index = Index::recover_from(&dir).unwrap();
        assert_eq!(answers(&index, &vs), want);
        let sharded = index.sharded_backend().unwrap();
        assert_eq!(sharded.window(), Some(window));
        assert_eq!(sharded.retired_below(), 140);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A one-shard directory in the cluster layout: the windowless engine
    /// under `shard-0/`, retired by explicit cuts, and the window in a v3
    /// cluster manifest.
    #[test]
    fn one_shard_cluster_directory_recovers_with_its_window() {
        use plsh_core::persist;
        let dir = tempdir("cluster-one");
        let window = WindowSpec::Docs(60);
        let vs = random_vecs(240, 4);
        let want = {
            let engine =
                StreamingEngine::new(EngineConfig::new(params(64), 500), ThreadPool::new(2))
                    .unwrap();
            engine.persist_to(dir.join("shard-0")).unwrap();
            let mut manifest = b"PLSC".to_vec();
            for word in [3u32, 1, 64] {
                manifest.extend_from_slice(&word.to_le_bytes());
            }
            manifest.extend_from_slice(&500u64.to_le_bytes());
            let (tag, value) = persist::encode_window(Some(window));
            manifest.push(tag);
            manifest.extend_from_slice(&value.to_le_bytes());
            let crc = persist::checksum(&manifest);
            manifest.extend_from_slice(&crc.to_le_bytes());
            persist::write_atomic(&dir.join("MANIFEST"), &manifest).unwrap();
            for chunk in vs[..200].chunks(25) {
                engine.insert_batch(chunk).unwrap();
                engine
                    .retire_to((engine.len() as u32).saturating_sub(60))
                    .unwrap();
            }
            engine.flush();
            answers_of(|r| engine.search(r), &vs)
        };
        let index = Index::recover_from(&dir).unwrap();
        assert_eq!(index.num_shards(), 1);
        assert_eq!(answers(&index, &vs), want);
        let sharded = index.sharded_backend().unwrap();
        assert_eq!(sharded.window(), Some(window));
        assert_eq!(sharded.retired_below(), 140);
        // The window now slides inside the engine, and the directory keeps
        // journaling in its own layout.
        index.add_batch(&vs[200..]).unwrap();
        assert_eq!(index.sharded_backend().unwrap().retired_below(), 180);
        index.flush().unwrap();
        let want = answers(&index, &vs);
        drop(index);
        let again = Index::recover_from(&dir).unwrap();
        assert_eq!(again.len(), 240);
        assert_eq!(answers(&again, &vs), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Once the window has compacted a prefix away, both round trips
    /// answer as before: the snapshot, the cut and the window are the
    /// engine's, not a router's.
    #[test]
    fn windowed_index_round_trips_after_compaction() {
        let index = Index::builder(params(64))
            .capacity(1_000)
            .threads(2)
            .with_window(WindowSpec::Docs(80))
            .build()
            .unwrap();
        let vs = random_vecs(400, 5);
        for chunk in vs.chunks(40) {
            index.add_batch(chunk).unwrap();
        }
        index.merge().unwrap();
        assert!(index.epoch_info().static_base > 0, "a prefix was compacted");
        assert_eq!(index.sharded_backend().unwrap().retired_below(), 320);
        let want = answers(&index, &vs);

        let mut bytes = Vec::new();
        index.save_to(&mut bytes).unwrap();
        let restored = Index::restore_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(answers(&restored, &vs), want, "snapshot round trip");

        let dir = tempdir("window-roundtrip");
        index.persist_to(&dir).unwrap();
        drop(index);
        let recovered = Index::recover_from(&dir).unwrap();
        assert_eq!(answers(&recovered, &vs), want, "directory round trip");
        let sharded = recovered.sharded_backend().unwrap();
        assert_eq!(sharded.window(), Some(WindowSpec::Docs(80)));
        assert_eq!(sharded.retired_below(), 320);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clones_share_state_and_flush_waits() {
        let index = Index::builder(params(32))
            .capacity(1000)
            .threads(2)
            .eta(0.05)
            .build()
            .unwrap();
        let other = index.clone();
        let vs: Vec<SparseVector> = (0..200)
            .map(|i| SparseVector::unit(vec![(i % 32, 1.0), ((i + 5) % 32, 0.7)]).unwrap())
            .collect();
        index.add_batch(&vs).unwrap();
        other.flush().unwrap();
        assert_eq!(other.len(), 200);
        assert!(
            other.stats().merges >= 1,
            "background merge must have fired"
        );
        let hits = other.query(&vs[0]).unwrap();
        assert!(hits.iter().any(|h| h.index == 0));
    }
}
