//! Figure 5: PLSH query performance breakdown (1000 queries).
//!
//! Paper ablation: "No optimizations" (STL-set dedup + naive sparse dot
//! product) → "+bitvector" → "+optimized sparse DP" → "+sw prefetch" →
//! "+large pages", for a cumulative 8.3× speedup.
//!
//! The engine ships only the last level, so the others are rebuilt here
//! over flat static indexes: [`query::reference`], `bitvector_query`
//! twice, then the shipped kernel. Each answers every query as the
//! reference does, bit for bit.
//!
//! The shipped index puts every array of 2 MB or more on transparent huge
//! pages, advised before first touch. So the first four levels run on an
//! index built while huge pages are off for this process
//! (`prctl(PR_SET_THP_DISABLE)`, which touches no system setting), and
//! "+large pages" runs the shipped kernel again on a fresh build with them
//! back on. Each row prints how much of its tables the kernel backs with
//! huge pages, from `/proc/self/smaps`.

use std::time::Instant;

use plsh_core::dedup::CandidateSet;
use plsh_core::hash::{allpairs, SketchMatrix};
use plsh_core::query::{self, Exec, Neighbor, QueryContext, ScratchPool, SignatureBound};
use plsh_core::simd;
use plsh_core::sparse::{angular_from_dot, dot_sorted, SparseVector};
use plsh_core::stats::{BatchStats, QueryStats};
use plsh_parallel::ThreadPool;

use crate::setup::{ms, Fixture, StaticIndex};

/// The measured ablation.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Each level in cumulative order: its paper label, its median pass,
    /// and the bytes of its index's tables on transparent huge pages.
    pub levels: Vec<(&'static str, BatchStats, u64)>,
    /// The host's transparent-huge-page mode, as
    /// `/sys/kernel/mm/transparent_hugepage/enabled` selects it.
    pub thp_mode: String,
}

/// Timed passes per level; a level reports its median pass.
const PASSES: usize = 5;

/// How a level runs Q1–Q4: [`query::reference`], `bitvector_query` or
/// the shipped [`query::run_batch`].
#[derive(Debug, Clone, Copy)]
enum Kernel {
    Reference,
    Bitvector { masked_dot: bool },
    Shipped,
}

/// The levels before "+large pages", which reruns `Kernel::Shipped`.
const LEVELS: [(&str, Kernel); 4] = [
    ("No optimizations", Kernel::Reference),
    ("+bitvector", Kernel::Bitvector { masked_dot: false }),
    (
        "+optimized sparse DP",
        Kernel::Bitvector { masked_dot: true },
    ),
    ("+sw prefetch", Kernel::Shipped),
];

/// Runs the five query configurations: four on an index on 4 KB pages,
/// the last on one on huge pages where the host allows them.
pub fn run(f: &Fixture) -> Fig5 {
    let queries = f.query_vecs();
    let measure = |index: &StaticIndex, name, kernel| {
        // Warm-up pass, then the timed passes.
        let ctx = index.context();
        let warm = &queries[..queries.len().min(32)];
        let _ = run_kernel(kernel, &ctx, warm, &f.pool);
        let mut passes: Vec<BatchStats> = (0..PASSES)
            .map(|_| run_kernel(kernel, &ctx, queries, &f.pool).1)
            .collect();
        passes.sort_by_key(|b| b.elapsed);
        (
            name,
            passes.swap_remove(PASSES / 2),
            index.tables.anon_huge_bytes(),
        )
    };
    set_thp_disabled(true);
    let plain = StaticIndex::build(f.corpus.vectors(), &f.params, &f.pool);
    let mut levels: Vec<_> = LEVELS.iter().map(|&(n, k)| measure(&plain, n, k)).collect();
    drop(plain);
    set_thp_disabled(false);
    let huge = StaticIndex::build(f.corpus.vectors(), &f.params, &f.pool);
    levels.push(measure(&huge, "+large pages", Kernel::Shipped));
    let thp_mode = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    Fig5 { levels, thp_mode }
}

/// Turns transparent huge pages off (`true`) or on again for this process
/// alone, through `prctl(PR_SET_THP_DISABLE)`; memory already on huge
/// pages stays there. Where the call fails, the rows' huge-page column
/// shows it.
fn set_thp_disabled(off: bool) {
    #[cfg(target_os = "linux")]
    {
        const PR_SET_THP_DISABLE: i32 = 41;
        extern "C" {
            fn prctl(option: i32, ...) -> i32;
        }
        // SAFETY: PR_SET_THP_DISABLE reads one integer argument and only
        // sets a flag on this process's address space.
        unsafe { prctl(PR_SET_THP_DISABLE, u64::from(off), 0u64, 0u64, 0u64) };
    }
    #[cfg(not(target_os = "linux"))]
    let _ = off;
}

/// Runs `queries` through `kernel` on `pool`, 8 queries per task: each
/// query's answer, and the batch's counters and wall time.
fn run_kernel(
    kernel: Kernel,
    ctx: &QueryContext<'_>,
    queries: &[SparseVector],
    pool: &ThreadPool,
) -> (Vec<Vec<Neighbor>>, BatchStats) {
    let start = Instant::now();
    if let Kernel::Shipped = kernel {
        let scratches = ScratchPool::new(ctx.m, ctx.half_bits, ctx.static_data.dim());
        return query::run_batch(ctx, queries, Exec::Pool(pool, &scratches), None);
    }
    let chunks = pool.parallel_map(queries.chunks(8), |chunk| {
        let mut scratch = None;
        let run = |q| match kernel {
            Kernel::Bitvector { masked_dot } => {
                let s = scratch.get_or_insert_with(|| BitvectorScratch::new(ctx));
                bitvector_query(ctx, q, masked_dot, s)
            }
            _ => query::reference(ctx, q),
        };
        chunk.iter().map(run).collect::<Vec<_>>()
    });
    let (answers, per_query): (_, Vec<_>) = chunks.into_iter().flatten().unzip();
    let mut stats = BatchStats {
        queries: queries.len() as u64,
        ..BatchStats::default()
    };
    per_query.iter().for_each(|q| stats.totals.merge(q));
    stats.elapsed = start.elapsed();
    (answers, stats)
}

/// One worker's buffers for [`bitvector_query`].
struct BitvectorScratch {
    cand: CandidateSet,
    /// Query bitvector over the vocabulary (Section 5.2.3), and the
    /// query's values at the positions it flags.
    qmask: Vec<u64>,
    qvals: Vec<f32>,
}

impl BitvectorScratch {
    fn new(ctx: &QueryContext<'_>) -> Self {
        let dim = ctx.static_data.dim() as usize;
        Self {
            cand: CandidateSet::new(ctx.num_points()),
            qmask: vec![0; dim.div_ceil(64)],
            qvals: vec![0.0; dim],
        }
    }
}

/// One radius query at "+bitvector" (a [`CandidateSet`] for the tree
/// set, fed a bucket run at a time as the kernel feeds it) or, with
/// `masked_dot`, "+optimized sparse DP" (each candidate held to the
/// radius's dot floor by its [`SignatureBound`], then its masked dot,
/// before the exact dot), over an all-static `ctx` with nothing deleted
/// or retired. No prefetch; hits sorted by id.
fn bitvector_query(
    ctx: &QueryContext<'_>,
    q: &SparseVector,
    masked_dot: bool,
    s: &mut BitvectorScratch,
) -> (Vec<Neighbor>, QueryStats) {
    debug_assert!(ctx.deltas.is_empty() && ctx.deleted.is_none() && ctx.retired_below == 0);
    let (idx, val) = (q.indices(), q.values());
    let mut acc = vec![0.0; ctx.planes.n_hashes() as usize];
    let mut sketch = vec![0; ctx.m as usize];
    SketchMatrix::sketch_one(ctx.planes, ctx.half_bits, idx, val, &mut acc, &mut sketch);
    let mut keys = vec![0; allpairs::num_tables(ctx.m) as usize];
    allpairs::table_keys(&sketch, ctx.half_bits, &mut keys);
    let tables = ctx.static_tables.expect("a static index");
    let mut stats = QueryStats::default();
    for (l, &key) in keys.iter().enumerate() {
        let bucket = tables.bucket(l, key);
        stats.collisions += bucket.len() as u64;
        s.cand.insert_run(bucket);
    }
    stats.unique_candidates = s.cand.len() as u64;
    stats.distance_computations = stats.unique_candidates;

    let floor = query::dot_floor(ctx.radius);
    // The bound the shipped kernel would use, with its survival table
    // where the rule and the CPU allow; the loop decides otherwise.
    let bound = SignatureBound::new(q, floor, s.cand.len());
    let rules_out = |sig| {
        bound
            .table_rules_out(sig)
            .unwrap_or_else(|| bound.rules_out(sig))
    };
    if masked_dot {
        for (&d, &v) in idx.iter().zip(val) {
            s.qmask[(d >> 6) as usize] |= 1 << (d & 63);
            s.qvals[d as usize] = v;
        }
    }
    let mut hits = Vec::new();
    for &id in s.cand.candidates() {
        if masked_dot && rules_out(ctx.signature(id)) {
            continue;
        }
        stats.rows_loaded += 1;
        let (row_idx, row_val) = ctx.row(id);
        if masked_dot && simd::dot_via_mask(row_idx, row_val, &s.qmask, &s.qvals) < floor {
            continue;
        }
        let distance = angular_from_dot(dot_sorted(row_idx, row_val, idx, val));
        if distance <= ctx.radius {
            hits.push(Neighbor {
                index: id,
                distance,
            });
        }
    }
    idx.iter().for_each(|&d| s.qmask[(d >> 6) as usize] = 0);
    s.cand.clear();
    hits.sort_unstable_by_key(|h| h.index);
    stats.matches = hits.len() as u64;
    (hits, stats)
}

impl Fig5 {
    /// Cumulative speedup of the last level over the first.
    pub fn total_speedup(&self) -> f64 {
        self.levels[0].1.elapsed.as_secs_f64() / self.levels[4].1.elapsed.as_secs_f64()
    }

    /// The speedup of "+large pages" over "+sw prefetch", the same kernel
    /// on 2 MB pages against 4 KB pages.
    pub fn large_page_speedup(&self) -> f64 {
        self.levels[3].1.elapsed.as_secs_f64() / self.levels[4].1.elapsed.as_secs_f64()
    }

    /// Prints the figure as a table.
    pub fn print(&self) {
        println!(
            "## Figure 5 — PLSH query performance breakdown ({} queries, median of {PASSES} passes)\n",
            self.levels[0].1.queries
        );
        println!(
            "| Configuration | Batch time | Per query | Speedup vs no-opt | Distances / query | Rows loaded / query | Tables on huge pages |"
        );
        println!("|---|---:|---:|---:|---:|---:|---:|");
        let base = self.levels[0].1.elapsed.as_secs_f64();
        for (name, l, huge) in &self.levels {
            println!(
                "| {} | {:.1} ms | {:.3} ms | {:.2}x | {:.1} | {:.1} | {:.1} MB |",
                name,
                ms(l.elapsed),
                ms(l.avg_latency()),
                base / l.elapsed.as_secs_f64().max(1e-12),
                l.avg_distance_computations(),
                l.avg_rows_loaded(),
                *huge as f64 / (1 << 20) as f64,
            );
        }
        println!(
            "\nTransparent huge pages: `{}`; off for this process during the first four rows.",
            self.thp_mode
        );
        println!(
            "\"+large pages\" over \"+sw prefetch\": {:.2}x. Cumulative speedup: {:.2}x (paper: 8.3x)\n",
            self.large_page_speedup(),
            self.total_speedup()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::Scale;
    use plsh_core::params::PlshParams;
    use plsh_workload::{CorpusConfig, QuerySet, SyntheticCorpus};

    #[test]
    fn every_level_answers_like_the_reference() {
        let corpus = SyntheticCorpus::generate(CorpusConfig::tiny(600, 4));
        let f = Fixture {
            queries: QuerySet::sample_from_corpus(&corpus, 40, 5),
            params: PlshParams::builder(corpus.dim())
                .k(8)
                .m(8)
                .radius(0.9)
                .seed(6)
                .build()
                .unwrap(),
            pool: ThreadPool::new(2),
            scale: Scale::Quick,
            corpus,
        };
        let index = StaticIndex::build(f.corpus.vectors(), &f.params, &f.pool);
        let queries = f.query_vecs();
        let ctx = index.context();
        let bits = |answers: &[Vec<Neighbor>]| -> Vec<Vec<(u32, u32)>> {
            answers
                .iter()
                .map(|hits| {
                    hits.iter()
                        .map(|h| (h.index, h.distance.to_bits()))
                        .collect()
                })
                .collect()
        };
        let (want, want_stats) = run_kernel(Kernel::Reference, &ctx, queries, &f.pool);
        assert!(
            want_stats.totals.matches >= queries.len() as u64,
            "each query finds itself"
        );
        let mut runs: Vec<(&str, Vec<Vec<Neighbor>>, BatchStats)> = LEVELS
            .iter()
            .map(|&(name, kernel)| {
                let (answers, stats) = run_kernel(kernel, &ctx, queries, &f.pool);
                (name, answers, stats)
            })
            .collect();
        let fresh = StaticIndex::build(f.corpus.vectors(), &f.params, &f.pool);
        let (answers, stats) = run_kernel(Kernel::Shipped, &fresh.context(), queries, &f.pool);
        runs.push(("+large pages", answers, stats));
        for (name, answers, stats) in runs {
            assert_eq!(bits(&answers), bits(&want), "{name}");
            let (got, expect) = (stats.totals, want_stats.totals);
            assert_eq!(stats.queries, want_stats.queries, "{name}");
            assert_eq!(got.collisions, expect.collisions, "{name}");
            assert_eq!(got.unique_candidates, expect.unique_candidates, "{name}");
            assert_eq!(
                got.distance_computations, expect.distance_computations,
                "{name}"
            );
            assert_eq!(got.matches, expect.matches, "{name}");
            assert!(got.rows_loaded <= expect.rows_loaded, "{name}");
        }
    }
}
