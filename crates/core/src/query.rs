//! The PLSH query pipeline (paper Section 5.2).
//!
//! [`run_batch`] is its one driver: it runs Q1 for a whole batch, then
//! Q2–Q4 per query — in parallel chunks on a pool, or sequentially on
//! the caller's thread — optionally timing Q2 and Q3. Every query runs
//! four steps:
//!
//! * **Q1** — hash the query with all `m·k/2` functions and compose the
//!   `L` bucket keys (cheap). A batch is hashed `SKETCH_BATCH` queries at
//!   a time, reusing each plane row while it is in cache.
//! * **Q2** — read the matching bucket of every static table, scan the
//!   packed half-keys of every un-merged delta generation for the points
//!   those buckets would hold, and eliminate duplicate point ids. Each
//!   bucket run goes through the bitvector with no branch per id
//!   ([`CandidateSet::insert_run`]); a generation's scan hits are new by
//!   construction and skip the test. The bitvector's discovery-order
//!   candidate list is what Q3 walks; no path scans the bitvector itself,
//!   so Q2 costs `O(L + collisions)` whatever the resident span.
//! * **Q3** — decide each unique candidate's distance, in two passes.
//!   Every stored row carries a 64-bit vocabulary signature, and the
//!   query's weight on the signature bits it shares with a row bounds
//!   their dot product ([`SignatureBound`], exact, so answers do not
//!   change). The first pass drops retired, deleted and bounded-out
//!   candidates from one 8-byte load each. For a query on `q` signature
//!   bits it reads a `2^q`-bit survival table with `pext`, one bit test
//!   and no branch per candidate, where the CPU allows and the table is
//!   no larger than the candidate list; otherwise it sums the shared
//!   bits' weights per candidate. The second pass loads the survivors'
//!   rows, computes a masked dot product, and the exact distance only
//!   for candidates that dot cannot rule out.
//!   `QueryStats::distance_computations` counts every candidate decided
//!   either way, `QueryStats::rows_loaded` those that needed their row.
//! * **Q4** — emit candidates within the radius (cheap), or, for a k-NN
//!   query, keep the `k` closest in a bounded heap. Its root, the running
//!   k-th neighbour, raises Q3's prefilter floor, so most candidates of a
//!   k-NN query cost one masked dot and are never ranked.
//!
//! A radius query reports its hits in ascending id order, a k-NN query
//! ascending by `(distance, id)`.
//!
//! The shipped kernel has all four of the paper's query optimizations on,
//! with no switch to turn one off:
//!
//! | paper optimization | here |
//! |---|---|
//! | "+bitvector" (Section 5.2.1) | [`CandidateSet`] dedup in Q2 |
//! | "+optimized sparse DP" (Section 5.2.3) | query-side bitvector, masked dot, signature bound |
//! | "+sw prefetch" (Section 5.2.2) | bucket prefetch (this query's and the next's), signature and row prefetch in Q3 |
//! | "+large pages" (Section 5.2.2) | tables, rows and planes in 2 MB-aligned buffers advised for huge pages before first touch (`util::HugeVec`) |
//!
//! [`reference()`] is Figure 5's "No optimizations" level and the oracle
//! the kernel is tested against; `repro fig5` rebuilds the levels between.

use std::collections::{BTreeSet, BinaryHeap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use plsh_parallel::{current_num_threads_hint, ThreadPool, WorkerLocal};

use crate::dedup::CandidateSet;
use crate::hash::{allpairs, Hyperplanes, SketchMatrix};
use crate::simd;
use crate::sparse::{
    angular_from_dot, dot_sorted, signature_bit, CrsMatrix, SparseVector, FULL_SIGNATURE,
};
pub use crate::stats::{BatchStats, QueryStats};
use crate::table::{DeltaGeneration, StaticTables};

/// How far ahead of the distance computation the candidate loop prefetches
/// data rows (Section 5.2.2). Their row-offsets slots go twice as far
/// ahead, so a row's prefetch never waits on its offsets.
const PREFETCH_DISTANCE: usize = 8;

/// How far ahead of the signature bound Q3's first pass prefetches
/// candidates' signatures. A signature is one 8-byte load and the bound a
/// few instructions, so the pass runs further ahead than the row loop.
const SIGNATURE_PREFETCH_DISTANCE: usize = 16;

/// Queries hashed together per `SketchMatrix::sketch_batch` call in Q1:
/// large enough to reuse each plane row across many queries while the
/// per-chunk accumulator block (`B · m·k/2` floats) stays comfortably
/// inside L2.
const SKETCH_BATCH: usize = 32;

/// Queries per work-stealing task in the Q2–Q4 fan-out of [`run_batch`]:
/// small enough that stealing still balances candidate-count skew, large
/// enough to amortize scratch checkout across queries.
const FANOUT_CHUNK: usize = 8;

/// A reported near neighbor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Node-local point id.
    pub index: u32,
    /// Angular distance to the query, `<= R`.
    pub distance: f32,
}

/// Borrowed view of everything a query needs — one pinned epoch.
///
/// The corpus a query sees is *segmented*: rows `0..static_len` live in the
/// static epoch's consolidated matrix, and each sealed [`DeltaGeneration`]
/// holds a contiguous run of later rows under local ids. A context is built
/// once per query (or per batch) from an epoch snapshot, so every bucket
/// read and distance computation within it observes one consistent
/// `(static tables, sealed generations)` pair — never a half-merged state.
#[derive(Clone, Copy)]
pub struct QueryContext<'a> {
    /// Rows `0..static_len` (used for exact distances in Q3).
    pub static_data: &'a CrsMatrix,
    /// The hash family.
    pub planes: &'a Hyperplanes,
    /// Static tables, if any points have been merged.
    pub static_tables: Option<&'a StaticTables>,
    /// Sealed delta generations, ascending by base id and contiguous from
    /// `static_len` upward.
    pub deltas: &'a [Arc<DeltaGeneration>],
    /// Deletion bitvector words (bit set ⇒ point deleted), if any. Atomic
    /// because deletes land concurrently with queries; readers use relaxed
    /// loads (a delete is visible to queries that start after it).
    pub deleted: Option<&'a [AtomicU64]>,
    /// Number of half-key functions `m`.
    pub m: u32,
    /// Bits per half key (`k/2`).
    pub half_bits: u32,
    /// Angular query radius `R`.
    pub radius: f32,
    /// Global id of `static_data` row 0 — nonzero once a sliding-window
    /// compaction has rebased the static structure. Also the anchor of the
    /// `deleted` bitvector and the candidate bitvector.
    pub base: u32,
    /// Range tombstone: candidates below this watermark are retired
    /// (filtered like deletions, but by one comparison instead of a bit).
    pub retired_below: u32,
    /// Per-query candidate budget: at most this many unique candidates get
    /// an exact distance computation (Q3), in candidate order. `usize::MAX`
    /// means unbounded; a finite budget bounds worst-case latency at the
    /// cost of possibly missing matches beyond it (a request-level
    /// deadline knob, surfaced as
    /// [`SearchRequest::with_max_candidates`](crate::search::SearchRequest::with_max_candidates)).
    pub max_candidates: usize,
    /// k-NN mode: report only the `k` closest candidates within `radius`,
    /// ascending by `(distance, id)`. `None` is radius mode: every
    /// candidate within `radius`, in visit order.
    pub top_k: Option<usize>,
}

impl<'a> QueryContext<'a> {
    /// Resident points visible to this context (static + sealed
    /// generations) — the span `base..end`, which sizes the candidate
    /// bitvector and scratch.
    pub fn num_points(&self) -> usize {
        let end = self.deltas.last().map_or(self.static_end(), |g| g.end());
        (end - self.base) as usize
    }

    /// One-past-the-end global id of the static rows.
    #[inline]
    fn static_end(&self) -> u32 {
        self.base + self.static_data.num_rows() as u32
    }

    /// Resolves a global id to its row, whichever segment holds it.
    #[inline]
    pub fn row(&self, id: u32) -> (&'a [u32], &'a [f32]) {
        let (data, local) = self.segment(id);
        data.row(local)
    }

    /// Resolves a global id to its row's vocabulary signature.
    #[inline]
    pub fn signature(&self, id: u32) -> u64 {
        let (data, local) = self.segment(id);
        data.signature(local)
    }

    /// The matrix holding global id `id`, and its row there.
    #[inline]
    fn segment(&self, id: u32) -> (&'a CrsMatrix, u32) {
        if id < self.static_end() {
            return (self.static_data, id - self.base);
        }
        // Generations are contiguous and ascending; binary-search the one
        // covering `id` (there are few — merges keep the list short).
        let i = self.deltas.partition_point(|g| g.end() <= id);
        let g = &self.deltas[i];
        debug_assert!(id >= g.base() && id < g.end());
        (g.data(), id - g.base())
    }
}

/// Reusable per-thread scratch space: Q1's hash accumulators and key
/// buffers, the candidate bitvector over point ids, and the query-side
/// vocabulary bitvector.
#[derive(Debug)]
pub struct QueryScratch {
    /// Q1's hash accumulators for one `SKETCH_BATCH` chunk.
    acc: Vec<f32>,
    /// Q1's half-keys for one `SKETCH_BATCH` chunk, `m` per query.
    sketches: Vec<u32>,
    /// The batch's bucket keys, `L` per query.
    keys: Vec<u32>,
    /// One query's `m` half-keys, for Q2's scan of sealed generations.
    half_keys: Vec<u32>,
    cand: CandidateSet,
    /// Local ids one delta generation's scan reported.
    delta_hits: Vec<u32>,
    /// Query bitvector over the vocabulary space (Section 5.2.3).
    qmask: Vec<u64>,
    /// Dense query values; only positions flagged in `qmask` are valid.
    qvals: Vec<f32>,
    /// The query's signature bound (off between queries).
    bound: SignatureBound,
    /// Candidates the bound kept: the rows Q3's second pass loads.
    survivors: Vec<u32>,
    /// A k-NN query's running top-k, kept for its capacity.
    top: BinaryHeap<u64>,
}

impl QueryScratch {
    /// Allocates scratch for `m` functions of `half_bits` bits, `n` points,
    /// and dimensionality `dim`.
    pub fn new(m: u32, half_bits: u32, n: usize, dim: u32) -> Self {
        let l = allpairs::num_tables(m) as usize;
        Self {
            acc: vec![0.0; (m * half_bits) as usize],
            sketches: vec![0; m as usize],
            keys: vec![0; l],
            half_keys: vec![0; m as usize],
            cand: CandidateSet::new(n),
            delta_hits: Vec::new(),
            qmask: vec![0u64; (dim as usize).div_ceil(64)],
            qvals: vec![0.0; dim as usize],
            bound: SignatureBound::off(),
            survivors: Vec::new(),
            top: BinaryHeap::new(),
        }
    }
}

/// A **lock-free** pool of [`QueryScratch`] reused across batch queries, so
/// steady-state querying performs no allocation.
///
/// Built on [`WorkerLocal`]: each borrow is one compare-and-swap on a
/// cache-padded slot, so concurrent batch workers never serialize on a
/// mutex the way the previous `Mutex<Vec<_>>` pool did. When more workers
/// than slots race (transient oversubscription), `take` falls back to a
/// fresh allocation instead of blocking.
pub struct ScratchPool {
    m: u32,
    half_bits: u32,
    dim: u32,
    slots: WorkerLocal<QueryScratch>,
}

impl ScratchPool {
    /// Creates an empty pool for the given index shape, with two slots per
    /// hardware thread and a floor of 16 (headroom for scratches briefly
    /// checked out by external drivers, and for `PLSH_THREADS`-style
    /// oversubscription beyond the hardware hint — an empty slot costs one
    /// padded cache line until first use). If a pool is ever run with more
    /// workers than slots, the overflow falls back to allocation instead
    /// of blocking.
    pub fn new(m: u32, half_bits: u32, dim: u32) -> Self {
        Self {
            m,
            half_bits,
            dim,
            slots: WorkerLocal::new((2 * current_num_threads_hint()).max(16)),
        }
    }

    /// Takes a scratch sized for `n` points (allocating one if none free).
    pub fn take(&self, n: usize) -> QueryScratch {
        let mut s = self
            .slots
            .take()
            .unwrap_or_else(|| QueryScratch::new(self.m, self.half_bits, n, self.dim));
        s.cand.ensure_capacity(n);
        s
    }

    /// Returns a scratch for reuse (dropped if every slot is occupied).
    pub fn put(&self, scratch: QueryScratch) {
        let _ = self.slots.put(scratch);
    }
}

/// Where a batch's Q2–Q4 run.
pub enum Exec<'a> {
    /// On the pool, in `FANOUT_CHUNK`-query work-stealing tasks (Section
    /// 5.2, "Parallelism"), each on a scratch borrowed from the
    /// [`ScratchPool`].
    Pool(&'a ThreadPool, &'a ScratchPool),
    /// Sequentially on the caller's thread, on one caller-owned scratch.
    Inline(&'a mut QueryScratch),
}

/// Runs a batch of queries through Q1–Q4 and aggregates their counters
/// and wall time: the one query driver.
///
/// Step Q1 runs first for the whole batch (`hash_batch`). Q2–Q4 then
/// run per query over the composed keys, and while one query runs, the
/// next query's buckets are prefetched — possible only because its keys
/// already exist. On a pool, a batch of more than one chunk fans out;
/// one chunk (a point query among them) runs on the caller's thread with
/// no pool hop, and a steady-state point query allocates nothing beyond
/// its answer.
///
/// `timers`, when given, accumulate each query's Q2 and Q3 time, split
/// at its Q2→Q3 hand-off. A timed batch runs on the caller's thread
/// whatever `exec` says, so the timers sum one thread's time and Q2 + Q3
/// stays within the batch's wall time (Figure 6's model is checked
/// against that split).
///
/// Answers and counters do not depend on `exec` or `timers`.
pub fn run_batch(
    ctx: &QueryContext<'_>,
    queries: &[SparseVector],
    exec: Exec<'_>,
    timers: Option<&mut QueryPhaseTimings>,
) -> (Vec<Vec<Neighbor>>, BatchStats) {
    let start = Instant::now();
    let n = ctx.num_points();
    let l_count = allpairs::num_tables(ctx.m) as usize;
    let mut answers = vec![Vec::new(); queries.len()];
    let totals = match exec {
        Exec::Pool(pool, scratches) if timers.is_none() && queries.len() > FANOUT_CHUNK => {
            let mut scratch = scratches.take(n);
            let keys = hash_batch(ctx, queries, &mut scratch);
            scratches.put(scratch);
            let chunk_totals =
                pool.parallel_map(answers.chunks_mut(FANOUT_CHUNK).enumerate(), |(c, out)| {
                    let first = c * FANOUT_CHUNK;
                    let keys = &keys[first * l_count..][..out.len() * l_count];
                    let mut scratch = scratches.take(n);
                    let stats = run_queries(ctx, &queries[first..], keys, out, &mut scratch, None);
                    scratches.put(scratch);
                    stats
                });
            let mut totals = QueryStats::default();
            chunk_totals.iter().for_each(|s| totals.merge(s));
            totals
        }
        Exec::Pool(_, scratches) => {
            let mut scratch = scratches.take(n);
            let totals = run_inline(ctx, queries, &mut answers, &mut scratch, timers);
            scratches.put(scratch);
            totals
        }
        Exec::Inline(scratch) => run_inline(ctx, queries, &mut answers, scratch, timers),
    };
    let stats = BatchStats {
        queries: queries.len() as u64,
        totals,
        elapsed: start.elapsed(),
    };
    (answers, stats)
}

/// The whole batch on one thread and one scratch, which keeps the batch's
/// keys for the next call.
fn run_inline(
    ctx: &QueryContext<'_>,
    queries: &[SparseVector],
    out: &mut [Vec<Neighbor>],
    scratch: &mut QueryScratch,
    timers: Option<&mut QueryPhaseTimings>,
) -> QueryStats {
    scratch.cand.ensure_capacity(ctx.num_points());
    let keys = hash_batch(ctx, queries, scratch);
    let stats = run_queries(ctx, queries, &keys, out, scratch, timers);
    scratch.keys = keys;
    stats
}

/// Step Q1 for a batch: hashes the queries `SKETCH_BATCH` at a time
/// through [`SketchMatrix::sketch_batch`], so each dimension-major plane
/// row is reused across queries while hot in cache, and composes every
/// query's `L` bucket keys. Returns the keys, query-major, in the
/// scratch's key buffer (moved out: callers hand it back).
fn hash_batch(
    ctx: &QueryContext<'_>,
    queries: &[SparseVector],
    scratch: &mut QueryScratch,
) -> Vec<u32> {
    let m = ctx.m as usize;
    let l_count = allpairs::num_tables(ctx.m) as usize;
    let mut keys = std::mem::take(&mut scratch.keys);
    keys.resize(queries.len() * l_count, 0);
    scratch
        .sketches
        .resize(SKETCH_BATCH.min(queries.len()) * m, 0);
    let mut views: [(&[u32], &[f32]); SKETCH_BATCH] = [(&[], &[]); SKETCH_BATCH];
    for (chunk, keys) in queries
        .chunks(SKETCH_BATCH)
        .zip(keys.chunks_mut(SKETCH_BATCH * l_count))
    {
        for (view, q) in views.iter_mut().zip(chunk) {
            *view = (q.indices(), q.values());
        }
        let sketches = &mut scratch.sketches[..chunk.len() * m];
        let views = &views[..chunk.len()];
        SketchMatrix::sketch_batch(ctx.planes, ctx.half_bits, views, &mut scratch.acc, sketches);
        for (sketch, keys) in sketches.chunks(m).zip(keys.chunks_mut(l_count)) {
            allpairs::table_keys(sketch, ctx.half_bits, keys);
        }
    }
    keys
}

/// Steps Q2–Q4 for consecutive queries whose bucket `keys` (`L` each)
/// Q1 composed, appending query `i`'s neighbors to `out[i]`; returns
/// their summed counters.
fn run_queries(
    ctx: &QueryContext<'_>,
    queries: &[SparseVector],
    keys: &[u32],
    out: &mut [Vec<Neighbor>],
    scratch: &mut QueryScratch,
    mut timers: Option<&mut QueryPhaseTimings>,
) -> QueryStats {
    let l_count = allpairs::num_tables(ctx.m) as usize;
    let mut stats = QueryStats::default();
    for (i, (hits, query)) in out.iter_mut().zip(queries).enumerate() {
        // Cross-query software pipelining: stream the next query's
        // buckets in while this query's Q2–Q4 run.
        let next = keys.get((i + 1) * l_count..(i + 2) * l_count);
        if let (Some(st), Some(next)) = (ctx.static_tables, next) {
            prefetch_query_buckets(st, next);
        }
        let keys = &keys[i * l_count..][..l_count];
        let timers = timers.as_deref_mut();
        candidate_phase(ctx, query, keys, scratch, hits, &mut stats, timers);
    }
    stats
}

/// Steps Q2–Q4 for one query over its composed bucket `keys`, appending
/// its neighbors to `out`. `timers`, when given, take Q2's time and Q3's
/// (with Q4's) at the hand-off between them.
fn candidate_phase(
    ctx: &QueryContext<'_>,
    query: &SparseVector,
    keys: &[u32],
    scratch: &mut QueryScratch,
    out: &mut Vec<Neighbor>,
    stats: &mut QueryStats,
    timers: Option<&mut QueryPhaseTimings>,
) {
    debug_assert_eq!(keys.len(), allpairs::num_tables(ctx.m) as usize);
    let q2_start = timers.is_some().then(Instant::now);
    dedup_candidates(ctx, keys, scratch, stats);
    let q3_start = q2_start.map(|t| (t.elapsed(), Instant::now()));
    filter_candidates(ctx, query, scratch, out, stats);
    if let (Some(t), Some((q2, q3_start))) = (timers, q3_start) {
        t.step_q2 += q2;
        t.step_q3 += q3_start.elapsed();
    }
}

/// Step Q2 with the bitvector: gathers the query's buckets into the
/// scratch's [`CandidateSet`] and counts the unique candidates. Each
/// static bucket run goes through [`CandidateSet::insert_run`], with no
/// branch per collision; a sealed generation's scan hits are new ids by
/// construction, appended with no bitvector test. A finite
/// candidate budget then sorts the candidate list, because a budgeted
/// request visits the ascending-id prefix: that prefix is the same
/// whatever the corpus segmentation, so budgeted answers stay identical
/// across backends (bucket-discovery order differs between a merged and
/// an unmerged engine). Sorting costs `O(c log c)` in the candidates `c`,
/// not a scan of the span.
fn dedup_candidates(
    ctx: &QueryContext<'_>,
    keys: &[u32],
    scratch: &mut QueryScratch,
    stats: &mut QueryStats,
) {
    // All keys are known after Q1, so every bucket's reads can be in
    // flight together before the first one is scanned — the Q2
    // counterpart of the Q3 row prefetch (Section 5.2.2).
    if let Some(st) = ctx.static_tables {
        prefetch_query_buckets(st, keys);
    }
    // Anchor the (empty) bitvector at this epoch's base so it covers the
    // resident span, not the lifetime id range.
    scratch.cand.rebase(ctx.base);
    let QueryScratch {
        cand,
        half_keys,
        delta_hits,
        ..
    } = scratch;
    if let Some(st) = ctx.static_tables {
        for (l, &key) in keys.iter().enumerate() {
            let run = st.bucket(l, key);
            stats.collisions += run.len() as u64;
            cand.insert_run(run);
        }
    }
    if !ctx.deltas.is_empty() {
        allpairs::half_keys_of(keys, ctx.half_bits, half_keys);
        for g in ctx.deltas {
            delta_hits.clear();
            stats.collisions += simd::scan_half_keys(g.sketches().column(), half_keys, delta_hits);
            // A generation's ids lie above the static rows and every
            // earlier generation, and a scan reports each point once.
            for &local in delta_hits.iter() {
                cand.insert_absent(g.base() + local);
            }
        }
    }
    stats.unique_candidates += cand.len() as u64;
    if ctx.max_candidates != usize::MAX {
        cand.sort_ascending();
    }
}

/// Steps Q3 + Q4 over the candidate list [`dedup_candidates`] left in the
/// scratch (capped at the request's candidate budget), then clears the
/// set.
///
/// Around the candidate loop it prepares, and afterwards clears, the
/// query-side vocabulary bitvector, dense value array and
/// [`SignatureBound`]. The bound holds candidates to the radius's floor
/// only: a k-NN query's floor rises with the candidates visited so far,
/// and a bound against it would make which rows are loaded depend on the
/// visit order.
///
/// Q3 runs in two passes. The first walks the list, prefetching
/// signatures `SIGNATURE_PREFETCH_DISTANCE` ahead, and keeps the
/// candidates that are neither retired, deleted nor ruled out by the
/// bound (with the bound off, every resident candidate): by the bound's
/// survival table and without a branch (`keep_by_table`) when it has
/// one, else by [`needs_row`] per candidate. The second loads
/// only the rows kept, and software-prefetches ahead of itself at two
/// distances (Section 5.2.2): a row-offsets slot `2·PREFETCH_DISTANCE`
/// ahead, and a row `PREFETCH_DISTANCE` ahead, by which time the row's
/// offsets are in cache.
fn filter_candidates(
    ctx: &QueryContext<'_>,
    query: &SparseVector,
    scratch: &mut QueryScratch,
    out: &mut Vec<Neighbor>,
    stats: &mut QueryStats,
) {
    // Walk the candidate list in place by moving the set out of the
    // scratch for the duration of the loop (`CandidateSet::new(0)` does
    // not allocate), instead of copying the ids through a second buffer.
    let mut cand = std::mem::replace(&mut scratch.cand, CandidateSet::new(0));
    let ids = cand.candidates();
    let visited = &ids[..ids.len().min(ctx.max_candidates)];
    for (&d, &v) in query.indices().iter().zip(query.values()) {
        scratch.qmask[(d >> 6) as usize] |= 1u64 << (d & 63);
        scratch.qvals[d as usize] = v;
    }
    scratch
        .bound
        .prepare(query, dot_floor(ctx.radius), visited.len());

    let mut survivors = std::mem::take(&mut scratch.survivors);
    survivors.clear();
    if scratch.bound.has_table() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a bound builds its table only where `simd::has_fast_pext`
        // found BMI2.
        unsafe {
            keep_by_table(ctx, &scratch.bound, visited, &mut survivors, stats)
        };
    } else {
        for (i, &id) in visited.iter().enumerate() {
            if let Some(&next) = visited.get(i + SIGNATURE_PREFETCH_DISTANCE) {
                prefetch_signature(ctx, next);
            }
            if needs_row(ctx, &scratch.bound, id, stats) {
                survivors.push(id);
            }
        }
    }
    let mut hits = Hits::new(ctx, out, std::mem::take(&mut scratch.top));
    for (i, &id) in survivors.iter().enumerate() {
        if let Some(&far) = survivors.get(i + 2 * PREFETCH_DISTANCE) {
            prefetch_row_offsets(ctx, far);
        }
        if let Some(&next) = survivors.get(i + PREFETCH_DISTANCE) {
            prefetch_row(ctx, next);
        }
        score_candidate(ctx, query, scratch, id, &mut hits, stats);
    }
    scratch.top = hits.finish(stats);
    scratch.survivors = survivors;

    for &d in query.indices() {
        scratch.qmask[(d >> 6) as usize] = 0;
    }
    scratch.bound.clear();
    cand.clear();
    scratch.cand = cand;
}

/// Step Q2's gather for [`reference()`], one id at a time: feeds `sink`
/// each entry of the query's bucket in every static table, then — after
/// all static tables — each point of every sealed generation that shares
/// a bucket with the query in some table, found by scanning the
/// generation's packed half-keys. `stats.collisions` counts every
/// (table, entry) pair either way.
///
/// `half_keys` (length `m`) and `hits` are scratch, touched only when the
/// epoch has un-merged generations. The kernel's [`dedup_candidates`]
/// walks the same buckets and scans with its own run-at-a-time code, so
/// the oracle shares none of its dedup.
#[inline]
fn gather_candidates(
    ctx: &QueryContext<'_>,
    keys: &[u32],
    half_keys: &mut [u32],
    hits: &mut Vec<u32>,
    stats: &mut QueryStats,
    mut sink: impl FnMut(u32),
) {
    if let Some(st) = ctx.static_tables {
        for (l, &key) in keys.iter().enumerate() {
            for &id in st.bucket(l, key) {
                stats.collisions += 1;
                sink(id);
            }
        }
    }
    if ctx.deltas.is_empty() {
        return;
    }
    allpairs::half_keys_of(keys, ctx.half_bits, half_keys);
    for g in ctx.deltas {
        hits.clear();
        stats.collisions += simd::scan_half_keys(g.sketches().column(), half_keys, hits);
        let base = g.base();
        for &local in hits.iter() {
            sink(base + local);
        }
    }
}

/// One query through Q1–Q4 with none of Section 5.2's optimizations:
/// Figure 5's "No optimizations" level, and the oracle for the kernel.
/// Q2 gathers into a tree set ("STL set") and visits at most
/// `max_candidates` ids, ascending. Q3 skips retired and deleted ids and
/// computes every other candidate's merge-join dot and exact distance,
/// with no bound and no prefilter. A k-NN query sorts the hits within
/// the radius by `(distance, id)` and keeps the first `k`.
///
/// [`run_batch`] answers bit for bit the same, with the same
/// [`QueryStats`] but for `rows_loaded`, which here equals
/// `distance_computations`.
pub fn reference(ctx: &QueryContext<'_>, query: &SparseVector) -> (Vec<Neighbor>, QueryStats) {
    let (idx, val) = (query.indices(), query.values());
    let mut acc = vec![0.0; ctx.planes.n_hashes() as usize];
    let mut sketch = vec![0; ctx.m as usize];
    SketchMatrix::sketch_one(ctx.planes, ctx.half_bits, idx, val, &mut acc, &mut sketch);
    let mut keys = vec![0; allpairs::num_tables(ctx.m) as usize];
    allpairs::table_keys(&sketch, ctx.half_bits, &mut keys);

    let mut stats = QueryStats::default();
    let mut tree = BTreeSet::new();
    let (half_keys, delta_hits) = (&mut vec![0; ctx.m as usize], &mut Vec::new());
    gather_candidates(ctx, &keys, half_keys, delta_hits, &mut stats, |id| {
        tree.insert(id);
    });
    stats.unique_candidates = tree.len() as u64;

    let mut hits = Vec::new();
    for &id in tree.iter().take(ctx.max_candidates) {
        if is_dropped(ctx, id) {
            continue;
        }
        stats.distance_computations += 1;
        stats.rows_loaded += 1;
        let (row_idx, row_val) = ctx.row(id);
        let distance = angular_from_dot(dot_sorted(row_idx, row_val, idx, val));
        if distance <= ctx.radius {
            hits.push(Neighbor {
                index: id,
                distance,
            });
        }
    }
    if let Some(k) = ctx.top_k {
        hits.sort_by(|a, b| {
            a.distance
                .total_cmp(&b.distance)
                .then(a.index.cmp(&b.index))
        });
        hits.truncate(k);
    }
    stats.matches = hits.len() as u64;
    (hits, stats)
}

/// Q3's exact signature bound: rules out a candidate from its row's
/// 64-bit vocabulary [signature](crate::sparse::signature) alone, before
/// its row is loaded. It extends the query-side vocabulary bitvector of
/// Section 5.2.3 to the row side.
///
/// `w[b]` is the sum of `q_i²` over the query terms whose signature bit
/// is `b`. Every term a candidate `c` shares with the query sets a bit in
/// both signatures, so `UB² = Σ_{b ∈ sig(c) ∧ sig(q)} w[b]` is at least
/// `Σ_{i ∈ Q∩C} q_i²`, and Cauchy–Schwarz gives
/// `dot(q, c) ≤ UB · ‖c‖ ≤ UB` for a unit row. A candidate with
/// `UB < floor` is a certain miss.
///
/// The test is exact for the `f32` merge-join dot that decides every
/// survivor. Over `n ≤ nnz(q)` shared terms its rounding adds at most
/// `γ_n = n·u / (1 − n·u)` (`u = 2⁻²⁴`) of `Σ|q_i c_i| ≤ UB · ‖c‖`, and
/// a row's stored signature promises `‖c‖² ≤ 1 + 1e-4`. The weights are
/// summed in `f64`, whose rounding the last `1e-8` covers. So a candidate
/// is ruled out only when `UB² · (1 + γ_n)² · (1 + 1e-4) · (1 + 1e-8)`
/// is below `floor²`, and then its merge-join dot is below `floor`. A
/// floor `≤ 0` turns the bound off, as does the all-ones signature of a
/// row with a larger norm.
///
/// `UB²` depends only on which of the query's `q` signature bits a row
/// shares, so a bound can also decide a row from a **survival table**:
/// one bit per subset of the query's bits, set when that subset's shared
/// weight, summed in ascending bit order as [`rules_out`](Self::rules_out)
/// sums it, is not below the threshold. Building it costs one `f64` add
/// per subset (each subset's highest bit added to the sum of its lower
/// bits), and a row is then decided by `pext(sig, sig(q))` and one bit
/// test, with no loop over its bits and no branch. Q3 builds the table
/// when its `2^q` subsets are no more than the candidates it will visit
/// (and `q ≤ 16`), at the AVX2 level on a CPU with fast `pext`
/// ([`simd::has_fast_pext`]); otherwise, and as the oracle, the per-bit
/// loop decides.
#[derive(Debug)]
pub struct SignatureBound {
    /// Query weight per signature bit.
    w: [f64; 64],
    /// The query's own signature: the bits where `w` is non-zero.
    qsig: u64,
    /// Shared weight below which a candidate is a certain miss; `0` when
    /// the bound is off.
    min_ub2: f64,
    /// The survival table: bit `s` is set when the query bits that
    /// `pext(sig, qsig)` packs into `s` keep a row. Empty when not built.
    table: Vec<u64>,
    /// Every subset's shared weight, the table's build scratch.
    sums: Vec<f64>,
}

/// Query signature bits beyond which no survival table is built: `2^16`
/// subsets are an 8 KB table over 512 KB of sums.
const MAX_TABLE_BITS: u32 = 16;

impl SignatureBound {
    /// The bound for `query` against a dot-product `floor`, as Q3's first
    /// pass builds it for a walk over `candidates` candidates: with a
    /// survival table if the bound is on, the table pays for itself over
    /// that many candidates, and the CPU has fast `pext`.
    pub fn new(query: &SparseVector, floor: f32, candidates: usize) -> Self {
        let mut bound = Self::off();
        bound.prepare(query, floor, candidates);
        bound
    }

    /// A bound that rules out nothing.
    fn off() -> Self {
        Self {
            w: [0.0; 64],
            qsig: 0,
            min_ub2: 0.0,
            table: Vec::new(),
            sums: Vec::new(),
        }
    }

    /// Fills the weights of an [`off`](Self::off) bound for `query`, and
    /// its survival table for a pass over `candidates` candidates.
    fn prepare(&mut self, query: &SparseVector, floor: f32, candidates: usize) {
        debug_assert!(!self.is_on() && self.qsig == 0, "prepared twice");
        for (&d, &v) in query.indices().iter().zip(query.values()) {
            let b = signature_bit(d);
            self.w[b as usize] += f64::from(v) * f64::from(v);
            self.qsig |= 1 << b;
        }
        // n·u < 1/4 keeps γ_n finite, and the f64 sums' rounding within
        // the `1e-8` term (queries of up to ~4M terms).
        let nu = query.nnz() as f64 * (f64::from(f32::EPSILON) / 2.0);
        if floor > 0.0 && nu < 0.25 {
            let gamma = nu / (1.0 - nu);
            let floor = f64::from(floor);
            self.min_ub2 = floor * floor / ((1.0 + gamma).powi(2) * (1.0 + 1e-4) * (1.0 + 1e-8));
        }
        let q = self.qsig.count_ones();
        if self.is_on() && q <= MAX_TABLE_BITS && 1usize << q <= candidates && simd::has_fast_pext()
        {
            self.build_table();
        }
    }

    /// Builds the survival table: subset `s` of the query's bits (bit `j`
    /// of `s` standing for the `j`-th lowest bit of `qsig`) sums as
    /// subset `s` without its highest bit, plus that bit's weight — the
    /// ascending left fold [`rules_out`](Self::rules_out) computes, so
    /// the table decides every row as the loop does.
    fn build_table(&mut self) {
        let sums = &mut self.sums;
        sums.clear();
        sums.resize(1 << self.qsig.count_ones(), 0.0);
        let (mut bits, mut lower) = (self.qsig, 1);
        while bits != 0 {
            let w = self.w[bits.trailing_zeros() as usize];
            bits &= bits - 1;
            // The subsets whose highest bit is this one follow the
            // `lower` subsets of the bits below it, in the same order.
            let (below, with) = sums[..2 * lower].split_at_mut(lower);
            for (sum, &rest) in with.iter_mut().zip(below.iter()) {
                *sum = rest + w;
            }
            lower *= 2;
        }
        let min_ub2 = self.min_ub2;
        self.table.clear();
        self.table.extend(sums.chunks(64).map(|chunk| {
            chunk.iter().enumerate().fold(0u64, |word, (i, &ub2)| {
                // Sums of finite weights are never NaN, so this is the
                // loop's keep, `!(ub2 < min_ub2)`.
                word | u64::from(ub2 >= min_ub2) << i
            })
        }));
    }

    /// Returns the bound to [`off`](Self::off), touching only the
    /// query's bits.
    fn clear(&mut self) {
        let mut bits = self.qsig;
        while bits != 0 {
            self.w[bits.trailing_zeros() as usize] = 0.0;
            bits &= bits - 1;
        }
        self.qsig = 0;
        self.min_ub2 = 0.0;
        self.table.clear();
    }

    /// Whether the bound can rule anything out.
    #[inline]
    fn is_on(&self) -> bool {
        self.min_ub2 > 0.0
    }

    /// Whether the bound decides rows from its survival table.
    pub fn has_table(&self) -> bool {
        !self.table.is_empty()
    }

    /// Whether a row of signature `sig` is a certain miss: its exact
    /// merge-join dot with the query is below the floor. This is the
    /// per-bit loop, whether or not a table was built.
    #[inline]
    pub fn rules_out(&self, sig: u64) -> bool {
        if !self.is_on() || sig == FULL_SIGNATURE {
            return false;
        }
        let mut shared = sig & self.qsig;
        let mut ub2 = 0.0;
        while shared != 0 {
            ub2 += self.w[shared.trailing_zeros() as usize];
            shared &= shared - 1;
        }
        ub2 < self.min_ub2
    }

    /// What the survival table decides for a row of signature `sig`, or
    /// `None` when the bound has no table.
    pub fn table_rules_out(&self, sig: u64) -> Option<bool> {
        #[cfg(target_arch = "x86_64")]
        if self.has_table() {
            // SAFETY: a table is built only where `simd::has_fast_pext`
            // found BMI2.
            return Some(!unsafe { self.keeps(sig) });
        }
        let _ = sig;
        None
    }

    /// The survival table's decision: `pext` packs the query bits `sig`
    /// shares into a subset index, whose table bit says whether the row
    /// survives; a row of the all-ones signature always does.
    ///
    /// # Safety
    /// The CPU must support BMI2, and the table must be built.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "bmi2")]
    #[inline]
    unsafe fn keeps(&self, sig: u64) -> bool {
        let s = std::arch::x86_64::_pext_u64(sig, self.qsig) as usize;
        ((self.table[s >> 6] >> (s & 63)) & 1 != 0) | (sig == FULL_SIGNATURE)
    }
}

/// A dot-product floor for an angle: `acos` is monotone decreasing, so
/// `acos(dot) <= angle` implies `dot >= cos(angle)`. Candidates whose
/// *approximate* dot falls below `cos(angle)` minus the slack lie farther
/// than `angle` for certain, and the (much more expensive) exact-dot +
/// `acos` confirmation runs only for the few that might not — the
/// angle-space test on the exact dot stays the decider, so reported
/// answers are unchanged. Q3 holds every candidate to the floor of the
/// query radius and, in k-NN mode, of the running k-th neighbour's
/// distance, which Q4 tracks.
///
/// The slack must dominate the worst divergence between the SIMD masked
/// dot and the exact merge-join dot. The kernels' property tests tolerate
/// up to `1e-4` of reassociation drift, so the slack is set an order of
/// magnitude wider; the only cost of generosity is a few extra exact-dot
/// confirmations near the boundary. It also dwarfs the `f32` rounding of
/// a reported distance (`~2e-7` rad), so a candidate below the floor can
/// never tie the k-th neighbour either.
#[inline]
pub fn dot_floor(angle: f32) -> f32 {
    ((angle as f64).cos() - 1e-3) as f32
}

/// A k-NN candidate's rank key: `(distance, id)` packed into one `u64`.
/// Distances are angles in `[0, π]`, and non-negative floats order like
/// their bit patterns, so keys order exactly as `(distance, id)` does —
/// the order every backend reports neighbours in
/// ([`crate::search::rank_top_k_global`] merges shards by it). A max-heap
/// of keys holds the running k-th neighbour at its root.
#[inline]
fn rank_key(hit: Neighbor) -> u64 {
    debug_assert!(hit.distance >= 0.0, "angles are non-negative");
    (u64::from(hit.distance.to_bits()) << 32) | u64::from(hit.index)
}

#[inline]
fn ranked(key: u64) -> Neighbor {
    Neighbor {
        index: key as u32,
        distance: f32::from_bits((key >> 32) as u32),
    }
}

/// Step Q4: where the candidates Q3 confirms go.
///
/// Radius mode appends every match to `out` and sorts them by id when the
/// loop ends, the order the paper's sorted candidate array would have
/// produced. k-NN mode keeps the `k` closest in a max-heap on `(distance, id)` and appends
/// them to `out` ascending when the loop ends. Once the heap holds `k`,
/// its root is the running k-th neighbour and a candidate must beat it,
/// so [`floor`](Self::floor) rises from the radius's [`dot_floor`] to the
/// root's: most candidates of a k-NN query then cost one masked dot, with
/// no exact dot, `acos` or ranking. Which candidates are reported does
/// not depend on the order they are visited in.
struct Hits<'o> {
    out: &'o mut Vec<Neighbor>,
    /// `out.len()` before this query, to count its matches.
    start: usize,
    top: BinaryHeap<u64>,
    top_k: Option<usize>,
    radius: f32,
    /// Candidates whose approximate dot falls below this are certain
    /// misses: outside the radius, or farther than the k-th neighbour.
    floor: f32,
}

impl<'o> Hits<'o> {
    fn new(ctx: &QueryContext<'_>, out: &'o mut Vec<Neighbor>, top: BinaryHeap<u64>) -> Self {
        debug_assert!(top.is_empty(), "finish hands back an empty heap");
        Self {
            start: out.len(),
            out,
            top,
            top_k: ctx.top_k,
            radius: ctx.radius,
            floor: dot_floor(ctx.radius),
        }
    }

    /// Offers a candidate whose exact distance Q3 computed.
    #[inline]
    fn offer(&mut self, hit: Neighbor) {
        let within = hit.distance <= self.radius; // false for NaN
        if !within {
            return;
        }
        let Some(k) = self.top_k else {
            self.out.push(hit);
            return;
        };
        let key = rank_key(hit);
        if self.top.len() < k {
            self.top.push(key);
        } else {
            match self.top.peek_mut() {
                Some(mut root) if key < *root => *root = key,
                _ => return,
            }
        }
        if self.top.len() == k {
            if let Some(&kth) = self.top.peek() {
                self.floor = self.floor.max(dot_floor(ranked(kth).distance));
            }
        }
    }

    /// Sorts a radius query's hits by id, or appends a k-NN query's
    /// neighbours to `out` ascending; counts the query's matches, and
    /// hands back the (empty) heap for reuse.
    fn finish(self, stats: &mut QueryStats) -> BinaryHeap<u64> {
        if self.top_k.is_none() {
            self.out[self.start..].sort_unstable_by_key(|h| h.index);
        }
        let mut keys = self.top.into_sorted_vec();
        self.out.extend(keys.drain(..).map(ranked));
        stats.matches += (self.out.len() - self.start) as u64;
        BinaryHeap::from(keys)
    }
}

/// Q3's row-free half for one candidate: skips a retired or deleted id,
/// counts the rest as decided, and returns whether the signature `bound`
/// leaves its row to be loaded.
#[inline]
fn needs_row(
    ctx: &QueryContext<'_>,
    bound: &SignatureBound,
    id: u32,
    stats: &mut QueryStats,
) -> bool {
    if is_dropped(ctx, id) {
        return false;
    }
    stats.distance_computations += 1;
    // A certain miss is decided here, without the row; an off bound
    // (a plain k-NN query) tests no signature.
    !(bound.is_on() && bound.rules_out(ctx.signature(id)))
}

/// Q3's first pass with the bound's survival table, without a branch per
/// candidate: every candidate's signature is loaded and its id written at
/// the end of `survivors`, which grows by one only if the candidate is
/// neither retired, deleted nor ruled out. Keeps and counts what the
/// [`needs_row`] loop does, in the same order.
///
/// # Safety
/// The CPU must support BMI2, and `bound` must have its table.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2")]
unsafe fn keep_by_table(
    ctx: &QueryContext<'_>,
    bound: &SignatureBound,
    visited: &[u32],
    survivors: &mut Vec<u32>,
    stats: &mut QueryStats,
) {
    debug_assert!(bound.has_table() && survivors.is_empty());
    survivors.resize(visited.len(), 0);
    let (mut kept, mut live) = (0, 0);
    for (i, &id) in visited.iter().enumerate() {
        if let Some(&next) = visited.get(i + SIGNATURE_PREFETCH_DISTANCE) {
            prefetch_signature(ctx, next);
        }
        let resident = !is_dropped(ctx, id);
        let keep = resident & bound.keeps(ctx.signature(id));
        survivors[kept] = id;
        kept += usize::from(keep);
        live += u64::from(resident);
    }
    survivors.truncate(kept);
    stats.distance_computations += live;
}

/// Whether a candidate is retired or deleted, and so never reported.
#[inline]
fn is_dropped(ctx: &QueryContext<'_>, id: u32) -> bool {
    // Retired by the sliding window (range tombstone), or tombstoned
    // (Section 6.2, "Deleting Entries"; the bitvector is anchored at the
    // base). Both tests run, so the answer costs no branch.
    (id < ctx.retired_below)
        | ctx.deleted.is_some_and(|words| {
            let off = id - ctx.base;
            words[(off >> 6) as usize].load(Ordering::Relaxed) & (1u64 << (off & 63)) != 0
        })
}

/// Q3 + Q4 for a candidate that needs its row: prefilter on the masked
/// dot, confirm the exact distance of what survives, and offer it to
/// `hits`.
#[inline]
fn score_candidate(
    ctx: &QueryContext<'_>,
    query: &SparseVector,
    scratch: &QueryScratch,
    id: u32,
    hits: &mut Hits<'_>,
    stats: &mut QueryStats,
) {
    let (idx, val) = ctx.row(id);
    stats.rows_loaded += 1;
    let dot = simd::dot_via_mask(idx, val, &scratch.qmask, &scratch.qvals);
    if dot < hits.floor {
        return; // certain miss
    }
    // The SIMD masked product may reassociate the sum; near `dot = 1` the
    // `acos` derivative amplifies those last bits into visible distance
    // error. The handful of candidates surviving the prefilter get an
    // exact index-ordered merge-join dot, so every SIMD mode reports the
    // distance `reference` does and makes the identical radius and
    // ranking decisions.
    let exact_dot = dot_sorted(idx, val, query.indices(), query.values());
    hits.offer(Neighbor {
        index: id,
        distance: angular_from_dot(exact_dot),
    });
}

/// Issues prefetches for every bucket a query will read in Q2, in two
/// sweeps: first the offsets slots (non-blocking hints), then the entry
/// runs they point at — the offsets reads of the second sweep are
/// independent, so out-of-order execution overlaps whatever latency
/// remains. Q2 runs it for its own query before reading any bucket, and
/// [`run_batch`] also runs it for query `i+1` while query `i` computes:
/// either way Q2 becomes bandwidth-bound streaming instead of
/// latency-bound pointer chasing.
#[inline]
fn prefetch_query_buckets(st: &StaticTables, keys: &[u32]) {
    for (l, &key) in keys.iter().enumerate() {
        st.prefetch_offsets(l, key);
    }
    for (l, &key) in keys.iter().enumerate() {
        st.prefetch_bucket(l, key);
    }
}

/// Hints the row-offsets slot of a static candidate, so that the later
/// [`prefetch_row`] finds its offsets in cache. Delta ids are skipped:
/// locating their generation is a search, not one load.
#[inline]
fn prefetch_row_offsets(ctx: &QueryContext<'_>, id: u32) {
    if id < ctx.static_end() {
        ctx.static_data.prefetch_row_offsets(id - ctx.base);
    }
}

/// Hints the signature of a static candidate, for Q3's bound pass. Delta
/// ids are skipped, as in [`prefetch_row_offsets`].
#[inline]
fn prefetch_signature(ctx: &QueryContext<'_>, id: u32) {
    if id < ctx.static_end() {
        ctx.static_data.prefetch_signature(id - ctx.base);
    }
}

/// Hints a candidate's row: the first and last cache line of its ids and
/// of its values. A row of a few dozen bytes often straddles a line
/// boundary, and its second line would otherwise be a demand miss.
#[inline]
fn prefetch_row(ctx: &QueryContext<'_>, id: u32) {
    let (idx, val) = ctx.row(id);
    if let (Some(i0), Some(v0), Some(i1), Some(v1)) =
        (idx.first(), val.first(), idx.last(), val.last())
    {
        crate::util::prefetch_read(i0);
        crate::util::prefetch_read(v0);
        crate::util::prefetch_read(i1);
        crate::util::prefetch_read(v1);
    }
}

/// Per-phase wall time of a timed query batch (Figure 6's right panel),
/// summed over its queries by [`run_batch`].
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryPhaseTimings {
    /// Step Q2: bucket reads and bitvector dedup (plus the candidate sort
    /// of a budgeted request).
    pub step_q2: std::time::Duration,
    /// Step Q3: candidate loads + distance computations (+Q4 appends).
    pub step_q3: std::time::Duration,
}

impl QueryPhaseTimings {
    /// Total timed time. Q1 is not timed (the paper notes it "takes very
    /// little time"); Q4 is folded into Q3.
    pub fn total(&self) -> std::time::Duration {
        self.step_q2 + self.step_q3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use crate::table::BuildStrategy;

    struct Fixture {
        data: CrsMatrix,
        planes: Hyperplanes,
        statics: StaticTables,
        m: u32,
        half_bits: u32,
    }

    fn fixture(n: usize, seed: u64) -> Fixture {
        fixture_of((0..n).map(|_| None), seed)
    }

    /// A fixture whose row `i` is a copy of row `j` wherever `rows` yields
    /// `Some(j)`, and a fresh random vector wherever it yields `None`.
    fn fixture_of(rows: impl Iterator<Item = Option<u32>>, seed: u64) -> Fixture {
        let pool = ThreadPool::new(1);
        let dim = 64u32;
        let (m, half_bits) = (6u32, 3u32);
        let mut rng = SplitMix64::new(seed);
        let mut data = CrsMatrix::new(dim);
        for copy_of in rows {
            let v = match copy_of {
                Some(j) => data.row_vector(j),
                None => {
                    let a = rng.next_below(dim as u64) as u32;
                    let b = (a + 1 + rng.next_below(dim as u64 - 1) as u32) % dim;
                    SparseVector::unit(vec![(a, 1.0), (b, rng.next_f64() as f32 + 0.1)]).unwrap()
                }
            };
            data.push(&v).unwrap();
        }
        let planes = Hyperplanes::new_dense(dim, m * half_bits, 7, &pool);
        let mut sk = SketchMatrix::new(m, half_bits);
        sk.append_from(&data, &planes, 0, &pool, true);
        let statics = StaticTables::build(&sk, BuildStrategy::TwoLevelShared, &pool);
        Fixture {
            data,
            planes,
            statics,
            m,
            half_bits,
        }
    }

    fn ctx(f: &Fixture) -> QueryContext<'_> {
        QueryContext {
            static_data: &f.data,
            planes: &f.planes,
            static_tables: Some(&f.statics),
            deltas: &[],
            deleted: None,
            m: f.m,
            half_bits: f.half_bits,
            radius: 0.9,
            base: 0,
            retired_below: 0,
            max_candidates: usize::MAX,
            top_k: None,
        }
    }

    /// One query through the driver, on the caller's thread.
    fn run_one(
        ctx: &QueryContext<'_>,
        q: &SparseVector,
        scratch: &mut QueryScratch,
    ) -> (Vec<Neighbor>, QueryStats) {
        let qs = std::slice::from_ref(q);
        let (mut answers, stats) = run_batch(ctx, qs, Exec::Inline(scratch), None);
        (answers.pop().expect("one answer per query"), stats.totals)
    }

    /// `queries` through the driver three ways: fanned out on `pool`, on
    /// the caller's thread, and timed. Each path's answers and stats.
    fn every_exec(
        ctx: &QueryContext<'_>,
        queries: &[SparseVector],
        pool: &ThreadPool,
        scratches: &ScratchPool,
        scratch: &mut QueryScratch,
    ) -> [(&'static str, Vec<Vec<Neighbor>>, BatchStats); 3] {
        let (pooled, pooled_stats) = run_batch(ctx, queries, Exec::Pool(pool, scratches), None);
        let (inline, inline_stats) = run_batch(ctx, queries, Exec::Inline(scratch), None);
        let mut timings = QueryPhaseTimings::default();
        let exec = Exec::Pool(pool, scratches);
        let (timed, timed_stats) = run_batch(ctx, queries, exec, Some(&mut timings));
        assert!(timings.total() <= timed_stats.elapsed);
        [
            ("pooled", pooled, pooled_stats),
            ("inline", inline, inline_stats),
            ("timed", timed, timed_stats),
        ]
    }

    /// Ids and distance bits, in order: what "bit-identical" compares.
    fn bits(hits: &[Neighbor]) -> Vec<(u32, u32)> {
        hits.iter()
            .map(|h| (h.index, h.distance.to_bits()))
            .collect()
    }

    /// Asserts that the kernel's answer to `q` and its counters are the
    /// [`reference()`]'s: bit for bit, but for `rows_loaded`, which the
    /// signature bound may lower. Returns the reference's counters.
    fn assert_like_reference(
        ctx: &QueryContext<'_>,
        q: &SparseVector,
        got: &[Neighbor],
        got_stats: &QueryStats,
        at: &str,
    ) -> QueryStats {
        let (want, want_stats) = reference(ctx, q);
        assert_eq!(bits(got), bits(&want), "{at}");
        let rows_loaded = want_stats.rows_loaded;
        assert_eq!(
            QueryStats {
                rows_loaded,
                ..*got_stats
            },
            want_stats,
            "{at}"
        );
        assert!(got_stats.rows_loaded <= rows_loaded, "{at}");
        assert_eq!(want_stats.rows_loaded, want_stats.distance_computations);
        want_stats
    }

    #[test]
    fn knn_equals_ranking_every_candidate() {
        // Every fourth row repeats the row before it, so distances tie
        // exactly and the id tie-break decides who makes the cut.
        let n = 300;
        let f = fixture_of((0..n).map(|i| (i % 4 == 3).then(|| i - 1)), 13);
        let pool = ThreadPool::new(2);
        let scratches = ScratchPool::new(f.m, f.half_bits, f.data.dim());
        let mut scratch = QueryScratch::new(f.m, f.half_bits, n as usize, f.data.dim());
        let deleted: Vec<AtomicU64> = (0..n.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        for id in [5u32, 77, 151] {
            deleted[(id / 64) as usize].fetch_or(1 << (id % 64), Ordering::Relaxed);
        }
        let queries: Vec<SparseVector> = [2u32, 3, 150, 299]
            .iter()
            .map(|&i| f.data.row_vector(i))
            .collect();
        let mut ties = 0;
        for radius in [std::f32::consts::PI, 0.9] {
            for k in [0, 1, 3, 10, n as usize, usize::MAX] {
                // The reference ranks every candidate within the radius by
                // `(distance, id)` and cuts at `k`.
                let c = QueryContext {
                    radius,
                    deleted: Some(&deleted),
                    top_k: Some(k),
                    ..ctx(&f)
                };
                let at = format!("R = {radius}, k = {k}");
                let want: Vec<Vec<Neighbor>> = queries.iter().map(|q| reference(&c, q).0).collect();
                ties += want
                    .iter()
                    .flat_map(|w| w.windows(2))
                    .filter(|w| w[0].distance == w[1].distance)
                    .count();
                for (q, want) in queries.iter().zip(&want) {
                    let (got, stats) = run_one(&c, q, &mut scratch);
                    assert_eq!(bits(&got), bits(want), "{at}");
                    assert_eq!(stats.matches, got.len() as u64);
                }
                for (path, got, _) in every_exec(&c, &queries, &pool, &scratches, &mut scratch) {
                    assert_eq!(got, want, "{path}: {at}");
                }
            }
        }
        assert!(ties > 0, "the fixture must produce exact distance ties");
    }

    #[test]
    fn knn_floor_tracks_the_kth_neighbour() {
        let f = fixture(10, 14);
        let hit = |index, distance| Neighbor { index, distance };
        let mut out = Vec::new();
        let mut stats = QueryStats::default();

        // Radius mode: the floor is the radius's, whatever arrives.
        let radius_ctx = ctx(&f);
        let mut hits = Hits::new(&radius_ctx, &mut out, BinaryHeap::new());
        hits.offer(hit(1, 0.1));
        hits.offer(hit(2, 1.5)); // outside R = 0.9
        assert_eq!(hits.floor, dot_floor(0.9));
        hits.finish(&mut stats);
        assert_eq!(out, vec![hit(1, 0.1)]);

        // k = 2 within R = π: no floor beyond the radius's until two are
        // held, then the k-th neighbour's, rising as it is displaced.
        let c = QueryContext {
            radius: std::f32::consts::PI,
            top_k: Some(2),
            ..radius_ctx
        };
        out.clear();
        let mut hits = Hits::new(&c, &mut out, BinaryHeap::new());
        hits.offer(hit(7, 0.5));
        assert_eq!(hits.floor, dot_floor(std::f32::consts::PI));
        hits.offer(hit(3, 0.3));
        assert_eq!(hits.floor, dot_floor(0.5));
        hits.offer(hit(9, 0.1));
        assert_eq!(hits.floor, dot_floor(0.3));
        hits.offer(hit(4, 0.3)); // ties the k-th on distance, loses on id
        hits.offer(hit(2, 0.3)); // ties the k-th on distance, wins on id
        hits.offer(hit(8, 0.4));
        assert_eq!(hits.floor, dot_floor(0.3));
        hits.finish(&mut stats);
        assert_eq!(out, vec![hit(9, 0.1), hit(2, 0.3)]);

        // k = 0 reports nothing.
        let zero = QueryContext {
            top_k: Some(0),
            ..c
        };
        out.clear();
        let mut hits = Hits::new(&zero, &mut out, BinaryHeap::new());
        hits.offer(hit(1, 0.0));
        hits.finish(&mut stats);
        assert!(out.is_empty());
        assert_eq!(stats.matches, 3);
    }

    #[test]
    fn self_query_finds_self() {
        let f = fixture(200, 1);
        let mut scratch = QueryScratch::new(f.m, f.half_bits, 200, f.data.dim());
        let q = f.data.row_vector(17);
        let (hits, stats) = run_one(&ctx(&f), &q, &mut scratch);
        assert!(hits.iter().any(|h| h.index == 17 && h.distance < 1e-3));
        assert!(stats.matches as usize == hits.len());
        assert!(stats.unique_candidates <= stats.collisions);
        assert!(stats.distance_computations == stats.unique_candidates);
    }

    #[test]
    fn shipped_kernel_answers_like_the_reference() {
        let f = fixture(300, 2);
        let mut scratch = QueryScratch::new(f.m, f.half_bits, 300, f.data.dim());
        let pool = ThreadPool::new(1);
        let scratches = ScratchPool::new(f.m, f.half_bits, f.data.dim());
        let c = ctx(&f);
        for qid in [0u32, 5, 123, 299] {
            let q = f.data.row_vector(qid);
            let at = format!("query {qid}");
            let (hits, stats) = run_one(&c, &q, &mut scratch);
            assert_like_reference(&c, &q, &hits, &stats, &at);
            // The pooled driver is part of the invariant too.
            let qs = std::slice::from_ref(&q);
            let (batched, stats) = run_batch(&c, qs, Exec::Pool(&pool, &scratches), None);
            assert_like_reference(&c, &q, &batched[0], &stats.totals, &at);
        }
    }

    #[test]
    fn scratch_reuse_across_queries_is_clean() {
        let f = fixture(150, 3);
        let mut scratch = QueryScratch::new(f.m, f.half_bits, 150, f.data.dim());
        let c = ctx(&f);
        let q0 = f.data.row_vector(0);
        let (first, _) = run_one(&c, &q0, &mut scratch);
        // Run a different query in between.
        let q1 = f.data.row_vector(75);
        let _ = run_one(&c, &q1, &mut scratch);
        let (again, _) = run_one(&c, &q0, &mut scratch);
        assert_eq!(first, again);
    }

    #[test]
    fn deleted_points_are_not_reported() {
        let f = fixture(100, 4);
        let mut scratch = QueryScratch::new(f.m, f.half_bits, 100, f.data.dim());
        let q = f.data.row_vector(42);
        let deleted: Vec<AtomicU64> = (0..100usize.div_ceil(64))
            .map(|_| AtomicU64::new(0))
            .collect();
        deleted[42 / 64].fetch_or(1 << 42, Ordering::Relaxed);
        let mut c = ctx(&f);
        c.deleted = Some(&deleted);
        let (hits, stats) = run_one(&c, &q, &mut scratch);
        assert!(!hits.iter().any(|h| h.index == 42));
        // Deleted candidate skipped before the distance computation.
        assert!(stats.distance_computations < stats.unique_candidates);
    }

    #[test]
    fn batch_matches_individual_queries() {
        let f = fixture(250, 5);
        let pool = ThreadPool::new(2);
        let scratches = ScratchPool::new(f.m, f.half_bits, f.data.dim());
        let queries: Vec<SparseVector> = (0..20u32).map(|i| f.data.row_vector(i * 10)).collect();
        let c = ctx(&f);
        let (batch, stats) = run_batch(&c, &queries, Exec::Pool(&pool, &scratches), None);
        assert_eq!(batch.len(), 20);
        assert_eq!(stats.queries, 20);
        let mut scratch = QueryScratch::new(f.m, f.half_bits, 250, f.data.dim());
        let mut totals = QueryStats::default();
        for (q, got) in queries.iter().zip(&batch) {
            let (expect, expect_stats) = run_one(&c, q, &mut scratch);
            assert_eq!(got, &expect);
            totals.merge(&expect_stats);
        }
        assert_eq!(stats.totals, totals);
    }

    #[test]
    fn radius_zero_like_returns_only_near_exact() {
        let f = fixture(100, 6);
        let mut scratch = QueryScratch::new(f.m, f.half_bits, 100, f.data.dim());
        let mut c = ctx(&f);
        c.radius = 1e-4;
        let q = f.data.row_vector(10);
        let (hits, _) = run_one(&c, &q, &mut scratch);
        for h in hits {
            assert!(h.distance <= 1e-4);
        }
    }

    #[test]
    fn empty_index_yields_no_hits() {
        let pool = ThreadPool::new(1);
        let dim = 32u32;
        let data = CrsMatrix::new(dim);
        let planes = Hyperplanes::new_dense(dim, 12, 1, &pool);
        let sk = SketchMatrix::new(4, 3);
        let statics = StaticTables::build(&sk, BuildStrategy::TwoLevelShared, &pool);
        let c = QueryContext {
            static_data: &data,
            planes: &planes,
            static_tables: Some(&statics),
            deltas: &[],
            deleted: None,
            m: 4,
            half_bits: 3,
            radius: 0.9,
            base: 0,
            retired_below: 0,
            max_candidates: usize::MAX,
            top_k: None,
        };
        let mut scratch = QueryScratch::new(4, 3, 0, dim);
        let q = SparseVector::unit(vec![(0, 1.0)]).unwrap();
        let (hits, stats) = run_one(&c, &q, &mut scratch);
        assert!(hits.is_empty());
        assert_eq!(stats.collisions, 0);
    }

    #[test]
    fn dot_via_mask_matches_merge_join() {
        let mut rng = SplitMix64::new(8);
        for _ in 0..50 {
            let a = SparseVector::unit(
                (0..5)
                    .map(|_| (rng.next_below(64) as u32, rng.next_f64() as f32 + 0.01))
                    .collect(),
            )
            .unwrap();
            let b = SparseVector::unit(
                (0..5)
                    .map(|_| (rng.next_below(64) as u32, rng.next_f64() as f32 + 0.01))
                    .collect(),
            )
            .unwrap();
            let mut qmask = vec![0u64; 1];
            let mut qvals = vec![0.0f32; 64];
            for (&d, &v) in b.indices().iter().zip(b.values()) {
                qmask[(d >> 6) as usize] |= 1 << (d & 63);
                qvals[d as usize] = v;
            }
            let fast = simd::dot_via_mask(a.indices(), a.values(), &qmask, &qvals);
            let slow = a.dot(&b);
            assert!((fast - slow).abs() < 1e-5);
        }
    }

    #[test]
    fn pipelined_batch_matches_per_query_batch() {
        let f = fixture(250, 9);
        let pool = ThreadPool::new(2);
        let scratches = ScratchPool::new(f.m, f.half_bits, f.data.dim());
        let queries: Vec<SparseVector> = (0..40u32).map(|i| f.data.row_vector(i * 6)).collect();
        let mut scratch = QueryScratch::new(f.m, f.half_bits, 250, f.data.dim());
        let c = ctx(&f);
        let mut plain = Vec::new();
        let mut plain_stats = QueryStats::default();
        for q in &queries {
            let (hits, stats) = run_one(&c, q, &mut scratch);
            plain.push(hits);
            plain_stats.merge(&stats);
        }
        for (path, piped, piped_stats) in every_exec(&c, &queries, &pool, &scratches, &mut scratch)
        {
            // Bit-identical: same ids AND same distances.
            assert_eq!(
                piped, plain,
                "batched Q1 must not change any answer: {path}"
            );
            assert_eq!(piped_stats.totals, plain_stats, "{path}");
        }
    }

    #[test]
    fn pipelined_batch_handles_empty_and_single() {
        let f = fixture(50, 10);
        let pool = ThreadPool::new(1);
        let scratches = ScratchPool::new(f.m, f.half_bits, f.data.dim());
        let c = ctx(&f);
        let mut scratch = QueryScratch::new(f.m, f.half_bits, 50, f.data.dim());
        let q = vec![f.data.row_vector(7)];
        for (path, none, stats) in every_exec(&c, &[], &pool, &scratches, &mut scratch) {
            assert!(none.is_empty(), "{path}");
            assert_eq!(stats.queries, 0, "{path}");
            assert_eq!(stats.totals, QueryStats::default(), "{path}");
        }
        for (path, one, _) in every_exec(&c, &q, &pool, &scratches, &mut scratch) {
            assert!(one[0].iter().any(|h| h.index == 7), "{path}");
        }
    }

    #[test]
    fn sealed_generations_answer_like_static() {
        let f = fixture(200, 12);
        let pool = ThreadPool::new(1);
        // Same corpus, different segmentation: 150 static + one sealed
        // generation of 50. Answers must match the all-static fixture.
        let mut sk = SketchMatrix::new(f.m, f.half_bits);
        sk.append_from(&f.data, &f.planes, 0, &pool, true);
        let statics = StaticTables::build_prefix(&sk, 150, BuildStrategy::TwoLevelShared, &pool);
        let mut static_data = f.data.clone();
        static_data.truncate(150);
        let mut g = DeltaGeneration::new(150, f.data.dim(), f.m, f.half_bits);
        let vs: Vec<SparseVector> = (150..200).map(|i| f.data.row_vector(i as u32)).collect();
        g.append(&vs, &f.planes, true, &pool).unwrap();
        let gens = [Arc::new(g)];
        let segmented = QueryContext {
            static_data: &static_data,
            planes: &f.planes,
            static_tables: Some(&statics),
            deltas: &gens,
            deleted: None,
            m: f.m,
            half_bits: f.half_bits,
            radius: 0.9,
            base: 0,
            retired_below: 0,
            max_candidates: usize::MAX,
            top_k: None,
        };
        assert_eq!(segmented.num_points(), 200);
        let mut scratch = QueryScratch::new(f.m, f.half_bits, 200, f.data.dim());
        // The same hits, and — the scan standing in for the generation's
        // L tables — the same collision, candidate and distance counts,
        // in radius and k-NN mode; and the segmented answer is the
        // reference's.
        let full = ctx(&f);
        for qid in [0u32, 149, 150, 199] {
            let q = f.data.row_vector(qid);
            for top_k in [None, Some(1), Some(5)] {
                let radius = if top_k.is_some() {
                    std::f32::consts::PI
                } else {
                    0.9
                };
                let full = QueryContext {
                    radius,
                    top_k,
                    ..full
                };
                let segmented = QueryContext {
                    radius,
                    top_k,
                    ..segmented
                };
                let at = format!("query {qid}, {top_k:?}");
                let (a, a_stats) = run_one(&full, &q, &mut scratch);
                let (b, b_stats) = run_one(&segmented, &q, &mut scratch);
                assert_eq!(a, b, "{at}");
                assert_eq!(a_stats, b_stats, "{at}");
                assert_like_reference(&segmented, &q, &b, &b_stats, &at);
            }
        }
    }

    #[test]
    fn steady_state_queries_reuse_scratch_buffers() {
        let f = fixture(120, 11);
        let mut scratch = QueryScratch::new(f.m, f.half_bits, 120, f.data.dim());
        let c = ctx(&f);
        let q = f.data.row_vector(3);
        let (first, stats) = run_one(&c, &q, &mut scratch);
        assert_eq!(stats.matches as usize, first.len());
        let caps = |s: &QueryScratch| (s.acc.capacity(), s.sketches.capacity(), s.keys.capacity());
        let before = caps(&scratch);
        // Re-running the same query reuses Q1's buffers without growing them.
        let (again, _) = run_one(&c, &q, &mut scratch);
        assert_eq!(again, first);
        assert_eq!(caps(&scratch), before);
    }

    /// Rows `0..n` of `f` under global ids `base..base + n`: the first
    /// `static_rows` merged into static tables, the rest split at `split`
    /// into two sealed generations.
    fn rebased(
        f: &Fixture,
        base: u32,
        static_rows: usize,
        split: usize,
    ) -> (CrsMatrix, StaticTables, Vec<Arc<DeltaGeneration>>) {
        let pool = ThreadPool::new(1);
        let generation = |lo: usize, hi: usize| {
            let mut g = DeltaGeneration::new(base + lo as u32, f.data.dim(), f.m, f.half_bits);
            let vs: Vec<SparseVector> = (lo..hi).map(|i| f.data.row_vector(i as u32)).collect();
            g.append(&vs, &f.planes, true, &pool).unwrap();
            Arc::new(g)
        };
        let head = generation(0, static_rows);
        let statics = StaticTables::merge_generations(
            None,
            f.m,
            f.half_bits,
            static_rows,
            std::slice::from_ref(&head),
            &[],
            base,
            base,
            &pool,
        );
        let tail = vec![
            generation(static_rows, split),
            generation(split, f.data.num_rows()),
        ];
        (head.data().clone(), statics, tail)
    }

    #[test]
    fn candidate_list_kernel_matches_ascending_extract_reference() {
        // Every fifth row repeats the row before it: exact distance ties.
        let n = 240u32;
        let f = fixture_of((0..n).map(|i| (i % 5 == 4).then(|| i - 1)), 15);
        let base = 1000;
        let (static_data, statics, gens) = rebased(&f, base, 160, 200);
        let deleted: Vec<AtomicU64> = (0..n.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        for row in [3u32, 77, 170, 233] {
            deleted[(row / 64) as usize].fetch_or(1 << (row % 64), Ordering::Relaxed);
        }
        let flat = ctx(&f);
        let segmented = QueryContext {
            static_data: &static_data,
            static_tables: Some(&statics),
            deltas: &gens,
            deleted: Some(&deleted),
            base,
            retired_below: base + 20,
            ..flat
        };
        assert_eq!(segmented.num_points(), n as usize);
        let rows = [0u32, 3, 10, 42, 77, 159, 165, 170, 199, 233, 239];
        let queries: Vec<SparseVector> = rows.iter().map(|&r| f.data.row_vector(r)).collect();

        // Every row a copy of row 0, queried with its negation: each
        // half-key of the query is the complement of every row's, so no
        // bucket matches and the query has zero candidates.
        let same = fixture_of((0..64).map(|i| (i > 0).then_some(0)), 16);
        let (idx, val) = same.data.row(0);
        let antipode =
            SparseVector::new(idx.iter().zip(val).map(|(&i, &v)| (i, -v)).collect()).unwrap();
        let empty = ctx(&same);
        let cases = [
            (flat, &queries[..]),
            (segmented, &queries[..]),
            (empty, std::slice::from_ref(&antipode)),
        ];

        let pool = ThreadPool::new(2);
        let scratches = ScratchPool::new(f.m, f.half_bits, f.data.dim());
        let mut scratch = QueryScratch::new(f.m, f.half_bits, n as usize, f.data.dim());
        let mut filtered = 0;
        let mut bounded = 0;
        let mut zero = 0;
        for budget in [usize::MAX, 40, 7] {
            for (radius, top_k) in [
                (0.9, None),
                (std::f32::consts::PI, None),
                (std::f32::consts::PI, Some(1)),
                (std::f32::consts::PI, Some(5)),
                (0.9, Some(n as usize)),
            ] {
                for (ci, &(c, qs)) in cases.iter().enumerate() {
                    let c = &QueryContext {
                        max_candidates: budget,
                        radius,
                        top_k,
                        ..c
                    };
                    let at = format!("budget {budget}, R {radius}, k {top_k:?}, ctx {ci}");
                    let mut want = Vec::new();
                    let mut total = QueryStats::default();
                    for q in qs.iter() {
                        let (got, stats) = run_one(c, q, &mut scratch);
                        let ref_stats = assert_like_reference(c, q, &got, &stats, &at);
                        filtered += ref_stats.unique_candidates - ref_stats.distance_computations;
                        bounded += stats.distance_computations - stats.rows_loaded;
                        zero += usize::from(stats.unique_candidates == 0);
                        total.merge(&stats);
                        want.push(got);
                    }
                    for (path, got, stats) in every_exec(c, qs, &pool, &scratches, &mut scratch) {
                        assert_eq!(got, want, "{path}: {at}");
                        assert_eq!(stats.totals, total, "{path}: {at}");
                    }
                }
            }
        }
        assert!(
            filtered > 0,
            "deletions and retirement must skip candidates"
        );
        assert!(zero > 0, "the antipode must have zero candidates");
        assert!(bounded > 0, "the signature bound must rule candidates out");
    }
}
