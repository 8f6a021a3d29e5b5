//! Read-optimized static LSH tables (paper Section 5.1, Figure 3a).
//!
//! Each of the `L` tables is a contiguous `entries` array of all `N` point
//! ids partitioned by bucket, plus a `2^k + 1` offsets array: bucket `key`
//! owns `entries[offsets[key]..offsets[key+1]]`. No pointers, no chains —
//! a bucket lookup is two offset reads and one contiguous slice.
//!
//! An epoch keeps its `L` tables in two arenas, one of all offsets arrays
//! and one of all entries arrays, table `l` a fixed slice of each. The
//! merge — the one builder the engine runs, a bulk load included — writes
//! the slices in place, so an epoch is two allocations, and an epoch of
//! 2 MB or more sits on transparent huge pages advised before its first
//! byte is written (the paper's "large 2 MB pages", Section 5.2.2; see
//! `util::HugeVec`). Q2's bucket reads are random over the whole epoch,
//! so on 4 KB pages most of them also miss the TLB.
//!
//! The paper builds its tables with a two-level radix partition that
//! shares each first-level pass among tables (Section 5.1.2, Steps
//! I1–I3). The merge's single count/scatter per table over packed keys
//! builds the same buckets; Figure 4's partition builders live in the
//! experiment harness.

use std::ops::Range;
use std::sync::Arc;

use plsh_parallel::ThreadPool;

use crate::hash::{allpairs, SketchMatrix};
use crate::table::generation::DeltaGeneration;
use crate::util::HugeVec;

/// The full set of `L` static tables over points `0..n`.
#[derive(Debug, Clone)]
pub struct StaticTables {
    m: u32,
    half_bits: u32,
    n: u32,
    /// Entries per table: every id the epoch keeps, once. Purged and
    /// retired ids keep their row slot in `0..n` but appear in no table.
    live: u32,
    /// Table `l`'s `(a, b)` half-key function pair, `a < b`.
    pairs: Vec<(u32, u32)>,
    /// Table `l`'s `2^k + 1` bucket offsets are `offsets[l·(2^k+1)..]`,
    /// counted from the table's first entry.
    offsets: HugeVec<u32>,
    /// Table `l`'s ids, grouped by bucket, are `entries[l·live..]`.
    entries: HugeVec<u32>,
}

/// One table's storage inside the arenas, writable: what a build or merge
/// path fills in place.
struct TableMut<'a> {
    l: usize,
    pair: (u32, u32),
    offsets: &'a mut [u32],
    entries: &'a mut [u32],
}

impl StaticTables {
    /// Tables over every point of `sketches`, built serially: per table,
    /// one stable counting sort of `0..n` by composed key. This is the
    /// oracle the merge is tested against, as `query::reference` is for
    /// Q2–Q4; the engine never runs it.
    pub fn reference(sketches: &SketchMatrix) -> Self {
        let n = sketches.num_points();
        let half_bits = sketches.half_bits();
        let mut t = Self::with_arenas(sketches.m(), half_bits, n, n);
        for out in t.tables_mut() {
            let (a, b) = out.pair;
            let key = |i: usize| {
                let i = i as u32;
                allpairs::compose_key(sketches.half_key(i, a), sketches.half_key(i, b), half_bits)
                    as usize
            };
            let (counts, total) = out.offsets.split_at_mut(out.offsets.len() - 1);
            (0..n).for_each(|i| counts[key(i)] += 1);
            total[0] = plsh_parallel::exclusive_prefix_sum_in_place(counts);
            let mut next = counts.to_vec();
            for i in 0..n {
                let slot = &mut next[key(i)];
                out.entries[*slot as usize] = i as u32;
                *slot += 1;
            }
        }
        t
    }

    /// Zero-filled arenas for the `L` tables over `n` rows, `live` entries
    /// each.
    fn with_arenas(m: u32, half_bits: u32, n: usize, live: usize) -> Self {
        let pairs: Vec<(u32, u32)> = allpairs::pairs(m).collect();
        let stride = (1usize << (2 * half_bits)) + 1;
        Self {
            m,
            half_bits,
            n: n as u32,
            live: live as u32,
            offsets: HugeVec::zeroed(pairs.len() * stride),
            entries: HugeVec::zeroed(pairs.len() * live),
            pairs,
        }
    }

    /// Length of one table's offsets array, `2^k + 1`.
    #[inline]
    fn stride(&self) -> usize {
        (1usize << (2 * self.half_bits)) + 1
    }

    /// Table `l`'s offsets and entries.
    #[inline]
    fn table(&self, l: usize) -> (&[u32], &[u32]) {
        let (stride, live) = (self.stride(), self.live as usize);
        (
            &self.offsets[l * stride..(l + 1) * stride],
            &self.entries[l * live..(l + 1) * live],
        )
    }

    /// Table `l`'s storage, writable.
    fn table_mut(&mut self, l: usize) -> TableMut<'_> {
        let (stride, live) = (self.stride(), self.live as usize);
        TableMut {
            l,
            pair: self.pairs[l],
            offsets: &mut self.offsets[l * stride..(l + 1) * stride],
            entries: &mut self.entries[l * live..(l + 1) * live],
        }
    }

    /// Every table's storage, writable, in table order.
    fn tables_mut(&mut self) -> Vec<TableMut<'_>> {
        let (stride, live) = (self.stride(), self.live as usize);
        let mut offsets: &mut [u32] = &mut self.offsets;
        let mut entries: &mut [u32] = &mut self.entries;
        let mut tables = Vec::with_capacity(self.pairs.len());
        for (l, &pair) in self.pairs.iter().enumerate() {
            let (o, rest) = std::mem::take(&mut offsets).split_at_mut(stride);
            offsets = rest;
            let (e, rest) = std::mem::take(&mut entries).split_at_mut(live);
            entries = rest;
            tables.push(TableMut {
                l,
                pair,
                offsets: o,
                entries: e,
            });
        }
        tables
    }

    /// Number of tables `L`.
    pub fn num_tables(&self) -> usize {
        self.pairs.len()
    }

    /// Number of indexed points `N`.
    pub fn num_points(&self) -> usize {
        self.n as usize
    }

    /// Bits per half key (`k/2`).
    pub fn half_bits(&self) -> u32 {
        self.half_bits
    }

    /// Number of half-key functions `m`.
    pub fn m(&self) -> u32 {
        self.m
    }

    /// The half-key function pair of table `l`.
    pub fn pair(&self, l: usize) -> (u32, u32) {
        self.pairs[l]
    }

    /// The point ids in bucket `key` of table `l`.
    #[inline]
    pub fn bucket(&self, l: usize, key: u32) -> &[u32] {
        let slot = l * self.stride() + key as usize;
        let base = l * self.live as usize;
        let lo = self.offsets[slot] as usize;
        let hi = self.offsets[slot + 1] as usize;
        &self.entries[base + lo..base + hi]
    }

    /// Hints the hardware to pull bucket `key` of table `l` into cache
    /// ahead of [`bucket`](Self::bucket) — the Step Q2 analogue of the
    /// candidate-loop row prefetch (Section 5.2.2): all `L` keys are known
    /// after Q1, so the next table's bucket can stream in while the current
    /// one is scanned. Both the first and the last cache line of the
    /// bucket are hinted: a run of a few entries often straddles a line
    /// boundary.
    #[inline]
    pub fn prefetch_bucket(&self, l: usize, key: u32) {
        let run = self.bucket(l, key);
        if let (Some(first), Some(last)) = (run.first(), run.last()) {
            crate::util::prefetch_read(first);
            crate::util::prefetch_read(last);
        }
    }

    /// Hints the hardware to pull the **offsets slot** of bucket `key` of
    /// table `l` into cache. Paired with [`prefetch_bucket`](Self::prefetch_bucket)
    /// in the query driver's cross-query sweep: the offsets lines are
    /// requested first (non-blocking), then the second sweep reads them —
    /// by then largely in flight, with independent iterations overlapping
    /// the remaining latency — and prefetches the entry lines they point
    /// at.
    #[inline]
    pub fn prefetch_offsets(&self, l: usize, key: u32) {
        crate::util::prefetch_read(&self.offsets[l * self.stride() + key as usize]);
    }

    /// Total bytes held by offsets and entries: `(L·N + (2^k+1)·L)·4`,
    /// matching Eq. 7.4 up to the `+1` sentinel per table.
    pub fn memory_bytes(&self) -> usize {
        (self.offsets.len() + self.entries.len()) * 4
    }

    /// Bytes of the tables' two arenas the kernel backs with transparent
    /// huge pages right now, as `/proc/self/smaps` reports them (see
    /// `util::anon_huge_bytes`); 0 where that file cannot be read.
    pub fn anon_huge_bytes(&self) -> u64 {
        [self.offsets.as_ptr_range(), self.entries.as_ptr_range()]
            .into_iter()
            .map(|r| crate::util::anon_huge_bytes(r.start as usize..r.end as usize).unwrap_or(0))
            .sum()
    }

    /// Builds the next static epoch by **merging** a previous epoch's
    /// tables with sealed delta generations, instead of re-sorting every
    /// point from its sketches.
    ///
    /// Per table (one work-stealing task each; the `L` tables are
    /// independent):
    ///
    /// 1. count surviving entries per bucket. A previous epoch whose ids
    ///    all lie below the retire cut is skipped outright — none of its
    ///    buckets is read. Otherwise its entries are already grouped by
    ///    bucket, and each bucket run is sorted by id, so the run's
    ///    survivors of a cut inside the epoch are one suffix: one
    ///    sequential, branch-free `id >= cut` count over the runs measures
    ///    each suffix's length, which the table keeps for step 3. Only
    ///    when a purge bit is set is that suffix filtered id by id. Each
    ///    sealed generation's rows from the cut on (a generation straddling
    ///    it starts at row `cut - base`; rows below are never keyed) are
    ///    keyed once for this table — `SketchMatrix::extend_pair_keys`
    ///    reads the two half-key lane runs of each packed block in order —
    ///    and radix-counted; the table keeps the keys (4 B per kept
    ///    generation row) for step 3;
    /// 2. turn the histogram into bucket offsets with
    ///    [`plsh_parallel::exclusive_prefix_sum`];
    /// 3. scatter: previous-epoch survivors first (each run's last
    ///    kept-length entries, copied as one block unless a purge bit is
    ///    set), then each generation's kept rows in sealed order through
    ///    the keys step 1 stored — every bucket stays sorted by global id,
    ///    exactly as a from-scratch rebuild would order it (generation ids
    ///    are strictly larger than static ids).
    ///
    /// `n` is the row count of the new static corpus (previous static rows
    /// plus every generation's rows — purged ids keep their row slot so
    /// ids stay stable; they are simply absent from all buckets).
    ///
    /// `purge` is a snapshot of the deletion bitvector anchored at
    /// `purge_base` (bit `i` covers global id `purge_base + i`): set ⇒ the
    /// id is dropped from every bucket. Taking it as an explicit snapshot
    /// keeps the decision consistent across all `L` tables even while
    /// concurrent `delete` calls keep landing.
    ///
    /// `retire_below` is the sliding-window compaction cut: every id below
    /// it (however it reached a bucket) is dropped in the same pass, and
    /// the merge pays only for the rows it keeps.
    /// Pass `retire_below == purge_base` for a merge without compaction.
    #[allow(clippy::too_many_arguments)]
    pub fn merge_generations(
        prev: Option<&StaticTables>,
        m: u32,
        half_bits: u32,
        n: usize,
        gens: &[Arc<DeltaGeneration>],
        purge: &[u64],
        purge_base: u32,
        retire_below: u32,
        pool: &ThreadPool,
    ) -> Self {
        if let Some(p) = prev {
            debug_assert_eq!((p.m, p.half_bits), (m, half_bits));
        }
        let ctx = MergeCtx::new(prev, gens, purge, half_bits, purge_base, retire_below);
        let ctx = &ctx;
        let mut merged = Self::with_arenas(m, half_bits, n, ctx.live);
        pool.parallel_map(merged.tables_mut(), |mut out| {
            let mut table = TableMerge::new(out.l, out.pair);
            let mut scratch = MergeScratch::default();
            // Unbounded budgets: each phase completes in a single advance,
            // so this runs the exact same code as the stepped merge — the
            // two are bit-identical by construction.
            while table.advance(ctx, &mut scratch, &mut out, usize::MAX, usize::MAX) {}
        });
        merged
    }
}

/// Shared, read-only inputs of one merge: the previous epoch, the sealed
/// generations, and the purge snapshot.
struct MergeCtx<'a> {
    /// The previous epoch, or `None` when there is none or the retire cut
    /// lies at or past its last id: a wholly retired epoch is never read.
    prev: Option<&'a StaticTables>,
    gens: &'a [Arc<DeltaGeneration>],
    /// `gen_starts[g]` is the position of generation `g`'s first kept row
    /// (see [`gen_rows`](Self::gen_rows)) in the generations' concatenated
    /// kept-row order (one more entry at the end holds the total), which
    /// is how a table's stored keys are indexed.
    gen_starts: Vec<usize>,
    purge: &'a [u64],
    /// Whether the retire cut lies inside the previous epoch's ids. Each
    /// bucket run, sorted by id, then keeps only its suffix at or above
    /// the cut: the count pass measures each suffix's length in one
    /// branch-free pass and the scatter copies exactly that many entries
    /// from the run's end.
    retiring: bool,
    /// Whether any purge bit is set. Only then is an id tested against the
    /// bitmap; otherwise counting collapses to run lengths and the
    /// previous epoch's scatter to one block copy per bucket, not a bitmap
    /// test per entry.
    purging: bool,
    /// Global id bit 0 of `purge` covers (the epoch's static base).
    purge_base: u32,
    /// Window compaction cut: ids below this are dropped from every bucket.
    retire_below: u32,
    buckets: usize,
    /// Entries each merged table holds: the previous epoch's ids and the
    /// generations' rows that neither the cut nor the purge drops. Known
    /// before any table is merged, so the arenas are allocated once.
    live: usize,
}

impl<'a> MergeCtx<'a> {
    fn new(
        prev: Option<&'a StaticTables>,
        gens: &'a [Arc<DeltaGeneration>],
        purge: &'a [u64],
        half_bits: u32,
        purge_base: u32,
        retire_below: u32,
    ) -> Self {
        debug_assert!(retire_below >= purge_base);
        // The previous epoch holds ids `purge_base..purge_base + n`.
        let prev =
            prev.filter(|p| u64::from(retire_below) < u64::from(purge_base) + u64::from(p.n));
        let mut ctx = Self {
            prev,
            gens,
            gen_starts: Vec::new(),
            purge,
            retiring: prev.is_some() && retire_below > purge_base,
            purging: purge.iter().any(|&w| w != 0),
            purge_base,
            retire_below,
            buckets: 1usize << (2 * half_bits),
            live: 0,
        };
        ctx.gen_starts = std::iter::once(0)
            .chain((0..gens.len()).scan(0, |end, g| {
                *end += ctx.gen_rows(g).len();
                Some(*end)
            }))
            .collect();
        // Every table holds the same ids, so the previous epoch's table 0
        // counts its survivors; a scan is needed only when the cut or a
        // purge drops some.
        let kept_prev = match ctx.prev {
            Some(p) if (ctx.retiring || ctx.purging) && p.num_tables() > 0 => p
                .table(0)
                .1
                .iter()
                .filter(|&&id| id >= retire_below && !ctx.purged(id))
                .count(),
            Some(p) => p.live as usize,
            None => 0,
        };
        let kept_gens: usize = (0..gens.len())
            .map(|g| {
                let base = gens[g].base();
                let rows = ctx.gen_rows(g);
                if ctx.purging {
                    rows.filter(|&row| !ctx.purged(base + row as u32)).count()
                } else {
                    rows.len()
                }
            })
            .sum();
        ctx.live = kept_prev + kept_gens;
        ctx
    }

    /// The rows of generation `gen` the merge keeps: those at or above the
    /// retire cut. Rows below it are never keyed, counted or scattered.
    #[inline]
    fn gen_rows(&self, gen: usize) -> Range<usize> {
        let g = &self.gens[gen];
        (self.retire_below.saturating_sub(g.base()) as usize).min(g.len())..g.len()
    }

    /// Whether `id`'s purge bit is set (`id >= purge_base`).
    #[inline]
    fn purged(&self, id: u32) -> bool {
        let off = id - self.purge_base;
        self.purge
            .get((off >> 6) as usize)
            .is_some_and(|w| w & (1u64 << (off & 63)) != 0)
    }
}

/// Where one table's resumable merge currently stands. Phases run in
/// declaration order; the bucket/row cursors persist across `advance`
/// calls so work can stop after any bounded slice.
enum MergePhase {
    /// Step 1a: measure each previous-epoch bucket's kept suffix, and
    /// count its survivors.
    CountPrev { next_bucket: usize },
    /// Step 1b: key each generation's kept rows once, and radix-count them.
    CountGens { gen: usize, row: usize },
    /// Step 2: prefix-sum the histogram into the table's offsets, seed
    /// cursors.
    Offsets,
    /// Step 3a: scatter previous-epoch survivors bucket by bucket.
    ScatterPrev { next_bucket: usize },
    /// Step 3b: scatter each generation's survivors in sealed order, by
    /// the keys step 1b stored.
    ScatterGens { gen: usize, row: usize },
    /// All entries written; `into_table` may consume the state.
    Done,
}

/// The resumable merge of a single static table — the `MergeStep` state
/// machine behind both [`StaticTables::merge_generations`] (unbounded
/// budgets inside a parallel map) and [`MergeStepper`] (bounded budgets
/// interleaved with pacing checks). Each `advance` writes the table's
/// slices of the new epoch's arenas in place.
struct TableMerge {
    l: usize,
    pair: (u32, u32),
    phase: MergePhase,
}

/// The working buffers of one table's merge. A merge that runs its tables
/// one after another hands them on from each table to the next; the
/// output is the epoch's two arenas, allocated once per merge.
#[derive(Default)]
struct MergeScratch {
    /// The table's key of every kept generation row, in the generations'
    /// concatenated kept-row order (see `MergeCtx::gen_starts`): written
    /// by the count pass, read back by the scatter.
    keys: Vec<u32>,
    /// While the retire cut lies inside the previous epoch: the length of
    /// each bucket run's suffix at or above the cut, measured by step 1a
    /// and reused by step 3a.
    kept: Vec<u32>,
    /// Step 1a's running count of kept entries at each position of a
    /// slice.
    kept_before: Vec<u32>,
    /// Step 1's per-bucket histogram; from step 2 on, each bucket's next
    /// write position in `entries`.
    counts: Vec<u32>,
}

impl TableMerge {
    fn new(l: usize, pair: (u32, u32)) -> Self {
        Self {
            l,
            pair,
            phase: MergePhase::CountPrev { next_bucket: 0 },
        }
    }

    /// Where the previous-epoch entries of bucket `key` that the retire
    /// cut keeps (purged ids still among them) sit in the epoch's
    /// `entries`: the run's last `kept[key]` entries while retiring, else
    /// the whole run.
    #[inline]
    fn kept_range(
        &self,
        ctx: &MergeCtx<'_>,
        p: &StaticTables,
        kept: &[u32],
        key: usize,
    ) -> Range<usize> {
        let offsets = p.table(self.l).0;
        let hi = offsets[key + 1] as usize;
        if ctx.retiring {
            hi - kept[key] as usize..hi
        } else {
            offsets[key] as usize..hi
        }
    }

    /// Step 1a over the previous-epoch buckets `keys`: while retiring,
    /// each run's kept length; then each run's survivor count.
    fn count_prev(
        &self,
        ctx: &MergeCtx<'_>,
        p: &StaticTables,
        s: &mut MergeScratch,
        keys: Range<usize>,
    ) {
        let (offsets, entries) = p.table(self.l);
        let offsets = &offsets[keys.start..=keys.end];
        if ctx.retiring {
            s.kept.resize(ctx.buckets, 0);
            // Runs are sorted by id, so the ids at or above the cut are
            // each run's suffix. One running count over the slice's
            // entries, in order and branch-free, gives every suffix's
            // length as the difference of the count at its run's two ends.
            let lo = offsets[0] as usize;
            let hi = offsets[offsets.len() - 1] as usize;
            let cut = ctx.retire_below;
            let mut acc = 0u32;
            s.kept_before.clear();
            s.kept_before.push(0);
            s.kept_before.extend(entries[lo..hi].iter().map(|&id| {
                acc += u32::from(id >= cut);
                acc
            }));
            for (kept, run) in s.kept[keys.clone()].iter_mut().zip(offsets.windows(2)) {
                *kept = s.kept_before[run[1] as usize - lo] - s.kept_before[run[0] as usize - lo];
            }
        }
        if ctx.purging {
            for key in keys {
                let run = self.kept_range(ctx, p, &s.kept, key);
                s.counts[key] = entries[run].iter().filter(|&&id| !ctx.purged(id)).count() as u32;
            }
        } else if ctx.retiring {
            s.counts[keys.clone()].copy_from_slice(&s.kept[keys]);
        } else {
            for (count, run) in s.counts[keys].iter_mut().zip(offsets.windows(2)) {
                *count = run[1] - run[0];
            }
        }
    }

    /// Runs one bounded slice of work into `out`, this table's storage:
    /// at most `max_buckets` buckets of a bucket-addressed phase or
    /// `max_rows` generation rows of a row-addressed phase (the Offsets
    /// phase is a single indivisible slice). Returns `true` while the
    /// table still has work left.
    fn advance(
        &mut self,
        ctx: &MergeCtx<'_>,
        s: &mut MergeScratch,
        out: &mut TableMut<'_>,
        max_buckets: usize,
        max_rows: usize,
    ) -> bool {
        debug_assert_eq!(out.l, self.l);
        let max_buckets = max_buckets.max(1);
        let max_rows = max_rows.max(1);
        match self.phase {
            MergePhase::CountPrev { next_bucket } => {
                if next_bucket == 0 {
                    s.counts.clear();
                    s.counts.resize(ctx.buckets, 0);
                    s.keys.clear();
                }
                match ctx.prev {
                    None => self.phase = MergePhase::CountGens { gen: 0, row: 0 },
                    Some(p) => {
                        let end = next_bucket.saturating_add(max_buckets).min(ctx.buckets);
                        self.count_prev(ctx, p, s, next_bucket..end);
                        self.phase = if end == ctx.buckets {
                            MergePhase::CountGens { gen: 0, row: 0 }
                        } else {
                            MergePhase::CountPrev { next_bucket: end }
                        };
                    }
                }
            }
            MergePhase::CountGens { mut gen, mut row } => {
                let (a, b) = self.pair;
                s.keys
                    .reserve(ctx.gen_starts[ctx.gens.len()] - s.keys.len());
                let mut budget = max_rows;
                while budget > 0 && gen < ctx.gens.len() {
                    let g = &ctx.gens[gen];
                    let rows = ctx.gen_rows(gen);
                    row = row.max(rows.start);
                    if row >= rows.end {
                        gen += 1;
                        row = 0;
                        continue;
                    }
                    let end = row.saturating_add(budget).min(rows.end);
                    let from = s.keys.len();
                    debug_assert_eq!(from, ctx.gen_starts[gen] + row - rows.start);
                    g.sketches().extend_pair_keys(a, b, row..end, &mut s.keys);
                    let keys = &s.keys[from..];
                    if ctx.purging {
                        for (id, &key) in (g.base() + row as u32..).zip(keys) {
                            if !ctx.purged(id) {
                                s.counts[key as usize] += 1;
                            }
                        }
                    } else {
                        for &key in keys {
                            s.counts[key as usize] += 1;
                        }
                    }
                    budget -= end - row;
                    row = end;
                }
                self.phase = if gen == ctx.gens.len() {
                    MergePhase::Offsets
                } else {
                    MergePhase::CountGens { gen, row }
                };
            }
            MergePhase::Offsets => {
                let (counts, total) = out.offsets.split_at_mut(ctx.buckets);
                counts.copy_from_slice(&s.counts);
                total[0] = plsh_parallel::exclusive_prefix_sum_in_place(counts);
                assert_eq!(total[0] as usize, out.entries.len(), "table {}", self.l);
                s.counts.copy_from_slice(counts);
                self.phase = MergePhase::ScatterPrev { next_bucket: 0 };
            }
            MergePhase::ScatterPrev { next_bucket } => match ctx.prev {
                None => self.phase = MergePhase::ScatterGens { gen: 0, row: 0 },
                Some(p) => {
                    let end = next_bucket.saturating_add(max_buckets).min(ctx.buckets);
                    let src = p.table(self.l).1;
                    for key in next_bucket..end {
                        let run = self.kept_range(ctx, p, &s.kept, key);
                        let at = s.counts[key] as usize;
                        if ctx.purging {
                            let mut to = at;
                            for &id in src[run].iter().filter(|&&id| !ctx.purged(id)) {
                                out.entries[to] = id;
                                to += 1;
                            }
                            s.counts[key] = to as u32;
                        } else {
                            // Nothing purged: the kept suffix copies as one
                            // block.
                            s.counts[key] += run.len() as u32;
                            copy_run(out.entries, at, src, run);
                        }
                    }
                    self.phase = if end == ctx.buckets {
                        MergePhase::ScatterGens { gen: 0, row: 0 }
                    } else {
                        MergePhase::ScatterPrev { next_bucket: end }
                    };
                }
            },
            MergePhase::ScatterGens { mut gen, mut row } => {
                let mut budget = max_rows;
                while budget > 0 && gen < ctx.gens.len() {
                    let g = &ctx.gens[gen];
                    let rows = ctx.gen_rows(gen);
                    row = row.max(rows.start);
                    if row >= rows.end {
                        gen += 1;
                        row = 0;
                        continue;
                    }
                    let end = row.saturating_add(budget).min(rows.end);
                    let at = ctx.gen_starts[gen] + row - rows.start;
                    let keys = &s.keys[at..at + (end - row)];
                    for (id, &key) in (g.base() + row as u32..).zip(keys) {
                        if ctx.purging && ctx.purged(id) {
                            continue;
                        }
                        let slot = &mut s.counts[key as usize];
                        out.entries[*slot as usize] = id;
                        *slot += 1;
                    }
                    budget -= end - row;
                    row = end;
                }
                if gen == ctx.gens.len() {
                    debug_assert!(s.counts.iter().zip(&out.offsets[1..]).all(|(c, o)| c == o));
                    self.phase = MergePhase::Done;
                } else {
                    self.phase = MergePhase::ScatterGens { gen, row };
                }
            }
            MergePhase::Done => {}
        }
        !matches!(self.phase, MergePhase::Done)
    }
}

/// Copies `src[run]` to `dst[at..]`. A run of at most [`RUN_COPY`] ids
/// (the common case: a bucket run holds `N / 2^k` ids on average) is one
/// fixed-width copy instead of a `memcpy` call, and may overwrite up to
/// `RUN_COPY - run.len()` slots past its end. The previous-epoch scatter
/// fills buckets in ascending order and the generations' scatter runs
/// after it, so each of those slots is written again, with its final
/// value, later in the same merge.
#[inline]
fn copy_run(dst: &mut [u32], at: usize, src: &[u32], run: Range<usize>) {
    if run.len() <= RUN_COPY && at + RUN_COPY <= dst.len() && run.start + RUN_COPY <= src.len() {
        dst[at..at + RUN_COPY].copy_from_slice(&src[run.start..run.start + RUN_COPY]);
    } else {
        dst[at..at + run.len()].copy_from_slice(&src[run]);
    }
}

/// Width of [`copy_run`]'s fixed copy: 32 bytes.
const RUN_COPY: usize = 8;

/// A whole-epoch merge broken into resumable, bounded steps — the
/// cooperative counterpart of [`StaticTables::merge_generations`].
///
/// The stepper holds the per-table `MergePhase` state machines and
/// drives them one bounded slice per [`step`](Self::step) call, so the
/// caller (the engine's paced merge) can check a query-pressure signal
/// and yield the CPU between slices. Both drivers execute the identical
/// `advance` code, so a stepped merge produces tables bit-identical to
/// the monolithic call — a property the merge-equivalence proptest pins
/// down.
pub struct MergeStepper<'a> {
    ctx: MergeCtx<'a>,
    /// The new epoch, its arenas filled one table at a time.
    out: StaticTables,
    tables: Vec<TableMerge>,
    current: usize,
    /// Handed on from table to table: the tables merge one at a time.
    scratch: MergeScratch,
}

impl<'a> MergeStepper<'a> {
    /// Prepares a stepped merge with the same inputs (and the same
    /// snapshot semantics) as [`StaticTables::merge_generations`].
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        prev: Option<&'a StaticTables>,
        m: u32,
        half_bits: u32,
        n: usize,
        gens: &'a [Arc<DeltaGeneration>],
        purge: &'a [u64],
        purge_base: u32,
        retire_below: u32,
    ) -> Self {
        if let Some(p) = prev {
            debug_assert_eq!((p.m, p.half_bits), (m, half_bits));
        }
        let ctx = MergeCtx::new(prev, gens, purge, half_bits, purge_base, retire_below);
        let out = StaticTables::with_arenas(m, half_bits, n, ctx.live);
        let tables = allpairs::pairs(m)
            .enumerate()
            .map(|(l, pair)| TableMerge::new(l, pair))
            .collect();
        Self {
            ctx,
            out,
            tables,
            current: 0,
            scratch: MergeScratch::default(),
        }
    }

    /// Runs one bounded slice of work (at most `max_buckets` buckets or
    /// `max_rows` generation rows, see `TableMerge::advance`) and
    /// returns `true` while the merge as a whole still has work left.
    pub fn step(&mut self, max_buckets: usize, max_rows: usize) -> bool {
        if self.current >= self.tables.len() {
            return false;
        }
        let l = self.current;
        let mut out = self.out.table_mut(l);
        if !self.tables[l].advance(
            &self.ctx,
            &mut self.scratch,
            &mut out,
            max_buckets,
            max_rows,
        ) {
            self.current += 1;
        }
        self.current < self.tables.len()
    }

    /// Whether every table has fully merged.
    pub fn is_done(&self) -> bool {
        self.current >= self.tables.len()
    }

    /// Consumes the stepper into the merged tables.
    ///
    /// # Panics
    /// Panics unless [`is_done`](Self::is_done) — callers must drain
    /// [`step`](Self::step) first.
    pub fn finish(self) -> StaticTables {
        assert!(self.is_done(), "MergeStepper finished with work remaining");
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::Hyperplanes;
    use crate::rng::SplitMix64;
    use crate::sparse::{CrsMatrix, SparseVector};

    /// Random sparse corpus for construction tests.
    fn corpus(n: usize, dim: u32, seed: u64) -> CrsMatrix {
        let mut rng = SplitMix64::new(seed);
        let mut m = CrsMatrix::new(dim);
        for _ in 0..n {
            let nnz = 2 + (rng.next_below(6) as usize);
            let mut pairs = Vec::new();
            for _ in 0..nnz {
                pairs.push((
                    rng.next_below(dim as u64) as u32,
                    rng.next_f64() as f32 + 0.1,
                ));
            }
            m.push(&SparseVector::unit(pairs).unwrap()).unwrap();
        }
        m
    }

    fn sketches(c: &CrsMatrix, m: u32, half_bits: u32, pool: &ThreadPool) -> SketchMatrix {
        let planes = Hyperplanes::new_dense(c.dim(), m * half_bits, 13, pool);
        let mut sk = SketchMatrix::new(m, half_bits);
        sk.append_from(c, &planes, 0, pool);
        sk
    }

    /// The reference tables over rows `0..n` of `c`.
    fn reference_prefix(
        c: &CrsMatrix,
        n: usize,
        planes: &Hyperplanes,
        (m, half_bits): (u32, u32),
        pool: &ThreadPool,
    ) -> StaticTables {
        let mut head = c.clone();
        head.truncate(n);
        let mut sk = SketchMatrix::new(m, half_bits);
        sk.append_from(&head, planes, 0, pool);
        StaticTables::reference(&sk)
    }

    #[test]
    fn empty_build_is_fine() {
        let pool = ThreadPool::new(2);
        let sk = SketchMatrix::new(3, 2);
        let reference = StaticTables::reference(&sk);
        let merged = StaticTables::merge_generations(None, 3, 2, 0, &[], &[], 0, 0, &pool);
        for t in [reference, merged] {
            assert_eq!(t.num_points(), 0);
            assert_eq!(t.num_tables(), 3);
            for l in 0..3 {
                for key in 0..16 {
                    assert!(t.bucket(l, key).is_empty());
                }
            }
        }
    }

    #[test]
    fn merge_generations_matches_rebuild() {
        let pool = ThreadPool::new(2);
        let c = corpus(300, 64, 21);
        let (m, half_bits) = (4u32, 3u32);
        let planes = Hyperplanes::new_dense(64, m * half_bits, 13, &pool);
        let mut sk_all = SketchMatrix::new(m, half_bits);
        sk_all.append_from(&c, &planes, 0, &pool);

        // Static prefix of 200 points; two sealed generations over the rest.
        let prev = reference_prefix(&c, 200, &planes, (m, half_bits), &pool);
        let mk_gen = |base: usize, end: usize| {
            let mut g = DeltaGeneration::new(base as u32, 64, m, half_bits);
            let vs: Vec<_> = (base..end).map(|i| c.row_vector(i as u32)).collect();
            g.append(&vs, &planes, &pool).unwrap();
            Arc::new(g)
        };
        let gens = vec![mk_gen(200, 260), mk_gen(260, 300)];
        let rebuilt = StaticTables::reference(&sk_all);
        let buckets = 1u32 << (2 * half_bits);
        let victims = [5u32, 210, 299];
        let mut purge = vec![0u64; 300usize.div_ceil(64)];
        for id in victims {
            purge[(id >> 6) as usize] |= 1 << (id & 63);
        }

        // Each merge must reproduce the reference bucket for bucket, less
        // exactly the ids its purge snapshot or retire cut drops (and, with
        // no previous epoch, the previous epoch's ids).
        for (prev, purged, cut) in [
            (Some(&prev), false, 0u32),
            (Some(&prev), true, 0),
            (Some(&prev), true, 50),
            (Some(&prev), false, 230),
            (None, true, 0),
        ] {
            let bits = if purged { &purge[..] } else { &[] };
            let merged = StaticTables::merge_generations(
                prev, m, half_bits, 300, &gens, bits, 0, cut, &pool,
            );
            assert_eq!(merged.num_points(), 300);
            let first = if prev.is_some() { cut } else { 200 };
            for l in 0..rebuilt.num_tables() {
                for key in 0..buckets {
                    let expect: Vec<u32> = rebuilt
                        .bucket(l, key)
                        .iter()
                        .copied()
                        .filter(|id| *id >= first && !(purged && victims.contains(id)))
                        .collect();
                    assert_eq!(
                        merged.bucket(l, key),
                        &expect[..],
                        "purged={purged} cut={cut} prev={} l={l} key={key}",
                        prev.is_some()
                    );
                }
            }
        }
    }

    /// The merge as a plain per-id filter: every previous-epoch entry and
    /// every generation row (keyed through `half_key`) is tested on its
    /// own, and survivors are appended bucket by bucket in id order.
    fn reference_merge(
        prev: Option<&StaticTables>,
        m: u32,
        half_bits: u32,
        gens: &[Arc<DeltaGeneration>],
        purge: &[u64],
        purge_base: u32,
        retire_below: u32,
    ) -> Vec<Vec<Vec<u32>>> {
        let dropped = |id: u32| {
            id < retire_below || {
                let off = id - purge_base;
                purge
                    .get((off >> 6) as usize)
                    .is_some_and(|w| w & (1u64 << (off & 63)) != 0)
            }
        };
        let buckets = 1u32 << (2 * half_bits);
        allpairs::pairs(m)
            .enumerate()
            .map(|(l, (a, b))| {
                let mut table: Vec<Vec<u32>> = (0..buckets)
                    .map(|key| match prev {
                        Some(p) => p
                            .bucket(l, key)
                            .iter()
                            .copied()
                            .filter(|&id| !dropped(id))
                            .collect(),
                        None => Vec::new(),
                    })
                    .collect();
                for g in gens {
                    let sk = g.sketches();
                    for local in 0..g.len() as u32 {
                        let id = g.base() + local;
                        if !dropped(id) {
                            let key = allpairs::compose_key(
                                sk.half_key(local, a),
                                sk.half_key(local, b),
                                half_bits,
                            );
                            table[key as usize].push(id);
                        }
                    }
                }
                table
            })
            .collect()
    }

    fn assert_matches_reference(got: &StaticTables, want: &[Vec<Vec<u32>>], what: &str) {
        assert_eq!(got.num_tables(), want.len());
        for (l, table) in want.iter().enumerate() {
            for (key, run) in table.iter().enumerate() {
                assert_eq!(
                    got.bucket(l, key as u32),
                    &run[..],
                    "{what}: l={l} key={key}"
                );
            }
        }
    }

    /// A previous epoch over `0..prev_end` and sealed generations cut at
    /// `cuts`, all sketched with the same planes.
    struct MergeFixture {
        m: u32,
        half_bits: u32,
        prev: StaticTables,
        gens: Vec<Arc<DeltaGeneration>>,
        n: usize,
    }

    impl MergeFixture {
        fn new(n: usize, prev_end: usize, cuts: &[usize], pool: &ThreadPool) -> Self {
            let (m, half_bits, dim) = (4u32, 3u32, 64u32);
            let c = corpus(n, dim, 29);
            let planes = Hyperplanes::new_dense(dim, m * half_bits, 13, pool);
            let prev = reference_prefix(&c, prev_end, &planes, (m, half_bits), pool);
            let bounds: Vec<usize> = std::iter::once(prev_end)
                .chain(cuts.iter().copied())
                .chain(std::iter::once(n))
                .collect();
            let gens = bounds
                .windows(2)
                .map(|w| {
                    let mut g = DeltaGeneration::new(w[0] as u32, dim, m, half_bits);
                    let vs: Vec<_> = (w[0]..w[1]).map(|i| c.row_vector(i as u32)).collect();
                    g.append(&vs, &planes, pool).unwrap();
                    Arc::new(g)
                })
                .collect();
            Self {
                m,
                half_bits,
                prev,
                gens,
                n,
            }
        }

        fn purge(&self, ids: &[u32]) -> Vec<u64> {
            let mut bits = vec![0u64; self.n.div_ceil(64)];
            for &id in ids {
                bits[(id >> 6) as usize] |= 1 << (id & 63);
            }
            bits
        }

        /// Merged monolithically and stepped at several slice budgets,
        /// each checked against the reference.
        fn check(&self, purge: &[u64], retire_below: u32, pool: &ThreadPool, what: &str) {
            let want = reference_merge(
                Some(&self.prev),
                self.m,
                self.half_bits,
                &self.gens,
                purge,
                0,
                retire_below,
            );
            let got = StaticTables::merge_generations(
                Some(&self.prev),
                self.m,
                self.half_bits,
                self.n,
                &self.gens,
                purge,
                0,
                retire_below,
                pool,
            );
            assert_matches_reference(&got, &want, &format!("{what}, monolithic"));
            for budget in [1usize, 7, 4096] {
                let mut stepper = MergeStepper::new(
                    Some(&self.prev),
                    self.m,
                    self.half_bits,
                    self.n,
                    &self.gens,
                    purge,
                    0,
                    retire_below,
                );
                while stepper.step(budget, budget) {}
                let got = stepper.finish();
                assert_matches_reference(&got, &want, &format!("{what}, budget {budget}"));
            }
        }
    }

    #[test]
    fn merge_matrix_of_cut_classes_matches_the_reference() {
        let pool = ThreadPool::new(2);
        // Previous epoch over 0..200; generations 200..260, 260..400 and
        // 400..600.
        let f = MergeFixture::new(600, 200, &[260, 400], &pool);
        let classes = [
            (0u32, "no cut"),
            (77, "cut inside previous-epoch runs"),
            (199, "cut at the previous epoch's last id"),
            (200, "cut at the previous epoch's end"),
            (230, "cut inside a generation"),
            (260, "cut on a generation boundary"),
            (550, "cut inside the last generation"),
        ];
        let purge = f.purge(&[10, 76, 77, 80, 150, 199, 200, 231, 259, 260, 401, 550, 599]);
        for (cut, what) in classes {
            f.check(&f.purge(&[]), cut, &pool, what);
            f.check(&purge, cut, &pool, &format!("{what}, with purges"));
        }
    }

    #[test]
    fn merge_keeps_the_run_suffix_above_a_retire_cut() {
        let pool = ThreadPool::new(2);
        let f = MergeFixture::new(300, 200, &[260], &pool);
        let cut = 77u32;
        // The cut must land inside bucket runs, not only between them.
        let straddled = (0..f.prev.num_tables()).any(|l| {
            (0..1u32 << (2 * f.half_bits)).any(|key| {
                let run = f.prev.bucket(l, key);
                run.first().is_some_and(|&id| id < cut) && run.last().is_some_and(|&id| id >= cut)
            })
        });
        assert!(straddled, "no bucket run straddles the cut");
        f.check(&f.purge(&[]), cut, &pool, "retire cut inside runs");
    }

    #[test]
    fn merge_filters_purged_ids_inside_the_kept_suffix() {
        let pool = ThreadPool::new(2);
        let f = MergeFixture::new(300, 200, &[260], &pool);
        // Purged ids below the cut, inside the kept static suffix, and in
        // both generations.
        let purge = f.purge(&[10, 76, 77, 80, 150, 199, 200, 231, 299]);
        f.check(&purge, 77, &pool, "purge inside the kept suffix");
        f.check(&purge, 0, &pool, "purge without a cut");
    }

    #[test]
    fn merge_drops_the_retired_prefix_of_a_straddling_generation() {
        let pool = ThreadPool::new(2);
        let f = MergeFixture::new(300, 200, &[260], &pool);
        f.check(&f.purge(&[]), 230, &pool, "cut inside a generation");
        f.check(
            &f.purge(&[240, 270]),
            230,
            &pool,
            "cut inside a generation, purges after it",
        );
        f.check(&f.purge(&[]), 260, &pool, "cut on a generation boundary");
    }

    #[test]
    fn stepped_merge_of_a_generation_larger_than_the_row_budget() {
        let pool = ThreadPool::new(1);
        // One 5000-row generation: larger than every row budget below, so
        // each one stops and resumes inside it.
        let f = MergeFixture::new(5_300, 200, &[5_200], &pool);
        let purge = f.purge(&[150, 1_000, 4_097, 5_250]);
        let cut = 120u32;
        let want = reference_merge(Some(&f.prev), f.m, f.half_bits, &f.gens, &purge, 0, cut);
        for budget in [1usize, 7, 4096] {
            let mut stepper = MergeStepper::new(
                Some(&f.prev),
                f.m,
                f.half_bits,
                f.n,
                &f.gens,
                &purge,
                0,
                cut,
            );
            while stepper.step(budget, budget) {}
            let got = stepper.finish();
            assert_matches_reference(&got, &want, &format!("budget {budget}"));
        }
        f.check(&purge, cut, &pool, "monolithic");

        // A second merge on top of the compacted one: its purge bitmap is
        // anchored at the first merge's cut.
        let first = StaticTables::merge_generations(
            Some(&f.prev),
            f.m,
            f.half_bits,
            f.n,
            &f.gens,
            &purge,
            0,
            cut,
            &pool,
        );
        let mut rebased = vec![0u64; (f.n - cut as usize).div_ceil(64)];
        for id in [3_000u32, 3_001] {
            let off = id - cut;
            rebased[(off >> 6) as usize] |= 1 << (off & 63);
        }
        let want = reference_merge(Some(&first), f.m, f.half_bits, &[], &rebased, cut, 2_500);
        let got = StaticTables::merge_generations(
            Some(&first),
            f.m,
            f.half_bits,
            f.n,
            &[],
            &rebased,
            cut,
            2_500,
            &pool,
        );
        assert_matches_reference(&got, &want, "second merge");
    }

    /// The reference and every merge path — a bulk load from nothing, a
    /// merge onto a previous epoch, stepped or not — write, into their two
    /// arenas, the buckets a plain scan over the ids gives (the
    /// `bucket(l, key)` slices of one array pair per table), on both sides
    /// of the 2 MB huge-page threshold.
    #[test]
    fn every_build_path_gives_the_scanned_buckets() {
        let pool = ThreadPool::new(2);
        let (m, half_bits, dim) = (4u32, 3u32, 64u32);
        for (n, budgets) in [
            (600usize, &[1usize, 7, 4096][..]),
            (90_000, &[4096, 1 << 20]),
        ] {
            let c = corpus(n, dim, 31);
            let planes = Hyperplanes::new_dense(dim, m * half_bits, 13, &pool);
            let mut sk = SketchMatrix::new(m, half_bits);
            sk.append_from(&c, &planes, 0, &pool);
            let want: Vec<Vec<Vec<u32>>> = allpairs::pairs(m)
                .map(|(a, b)| {
                    let mut table = vec![Vec::new(); 1 << (2 * half_bits)];
                    for id in 0..n as u32 {
                        let key = allpairs::compose_key(
                            sk.half_key(id, a),
                            sk.half_key(id, b),
                            half_bits,
                        );
                        table[key as usize].push(id);
                    }
                    table
                })
                .collect();
            let got = StaticTables::reference(&sk);
            assert_matches_reference(&got, &want, &format!("reference, n={n}"));
            let generation = |lo: usize, hi: usize| {
                let mut g = DeltaGeneration::new(lo as u32, dim, m, half_bits);
                let vs: Vec<_> = (lo..hi).map(|i| c.row_vector(i as u32)).collect();
                g.append(&vs, &planes, &pool).unwrap();
                Arc::new(g)
            };
            let loaded = StaticTables::merge_generations(
                None,
                m,
                half_bits,
                n,
                &[generation(0, n)],
                &[],
                0,
                0,
                &pool,
            );
            assert_matches_reference(&loaded, &want, &format!("bulk load, n={n}"));
            // A prefix epoch and two sealed generations over the rest.
            let prev_end = n / 3;
            let prev = reference_prefix(&c, prev_end, &planes, (m, half_bits), &pool);
            let gens = [generation(prev_end, n / 2), generation(n / 2, n)];
            let merged = StaticTables::merge_generations(
                Some(&prev),
                m,
                half_bits,
                n,
                &gens,
                &[],
                0,
                0,
                &pool,
            );
            assert_matches_reference(&merged, &want, &format!("merge_generations, n={n}"));
            for &budget in budgets {
                let mut stepper = MergeStepper::new(Some(&prev), m, half_bits, n, &gens, &[], 0, 0);
                while stepper.step(budget, budget) {}
                let got = stepper.finish();
                assert_matches_reference(&got, &want, &format!("budget {budget}, n={n}"));
            }
            assert_eq!(merged.memory_bytes() >= 2 << 20, n > 50_000, "n={n}");
        }
    }

    #[test]
    fn memory_accounting_matches_layout() {
        let pool = ThreadPool::new(1);
        let c = corpus(200, 32, 9);
        let sk = sketches(&c, 4, 3, &pool);
        let t = StaticTables::reference(&sk);
        let l = t.num_tables();
        let expect = l * (200 + (1 << 6) + 1) * 4;
        assert_eq!(t.memory_bytes(), expect);
    }
}
