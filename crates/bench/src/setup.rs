//! Shared experiment fixtures: corpus, queries, engines, and scale presets.

use std::sync::Arc;
use std::time::{Duration, Instant};

use plsh_core::engine::{Engine, EngineConfig};
use plsh_core::hash::Hyperplanes;
use plsh_core::params::PlshParams;
use plsh_core::query::QueryContext;
use plsh_core::sparse::{CrsMatrix, SparseVector};
use plsh_core::table::{DeltaGeneration, StaticTables};
use plsh_parallel::ThreadPool;
use plsh_workload::{CorpusConfig, QuerySet, SyntheticCorpus};

/// Experiment scale. The paper's single-node workload is 10.5 M tweets
/// over a 500 K vocabulary with 1000 queries; these presets scale it to
/// what one container core can turn around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast preset for CI (N = 20 K, D = 20 K).
    Quick,
    /// The default experiment scale (N = 100 K, D = 50 K, 1000 queries).
    Full,
}

impl Scale {
    /// Number of documents `N`.
    pub fn num_docs(self) -> usize {
        match self {
            Scale::Quick => 20_000,
            Scale::Full => 100_000,
        }
    }

    /// Vocabulary size `D`.
    pub fn vocab(self) -> u32 {
        match self {
            Scale::Quick => 20_000,
            Scale::Full => 50_000,
        }
    }

    /// Query count (paper: 1000).
    pub fn num_queries(self) -> usize {
        match self {
            Scale::Quick => 200,
            Scale::Full => 1000,
        }
    }

    /// Scaled `(k, m)` (the paper's 10.5 M-point node uses k=16, m=40;
    /// these keep expected bucket occupancy `N/2^k` in the same regime).
    pub fn k_m(self) -> (u32, u32) {
        match self {
            Scale::Quick => (12, 16),
            Scale::Full => (14, 16),
        }
    }
}

/// A ready-to-run experiment fixture.
pub struct Fixture {
    /// The synthetic corpus.
    pub corpus: SyntheticCorpus,
    /// The query set (random database subset, paper protocol).
    pub queries: QuerySet,
    /// The LSH parameters.
    pub params: PlshParams,
    /// The worker pool.
    pub pool: ThreadPool,
    /// The scale preset used.
    pub scale: Scale,
}

impl Fixture {
    /// Builds the standard fixture for `scale` with `threads` workers.
    pub fn build(scale: Scale, threads: usize) -> Self {
        let corpus = SyntheticCorpus::generate(CorpusConfig {
            num_docs: scale.num_docs(),
            vocab_size: scale.vocab(),
            mean_words: 7.2,
            zipf_exponent: 1.0,
            duplicate_fraction: 0.2,
            seed: 0xC0FFEE,
        });
        let queries = QuerySet::sample_from_corpus(&corpus, scale.num_queries(), 0xBEEF);
        let (k, m) = scale.k_m();
        let params = PlshParams::builder(corpus.dim())
            .k(k)
            .m(m)
            .radius(0.9)
            .delta(0.1)
            .seed(0x5EED)
            .build()
            .expect("preset parameters are valid");
        Self {
            corpus,
            queries,
            params,
            pool: ThreadPool::new(threads),
            scale,
        }
    }

    /// Query vectors as a slice.
    pub fn query_vecs(&self) -> &[SparseVector] {
        self.queries.queries()
    }

    /// Builds a fully-merged (all-static) engine over the whole corpus.
    pub fn static_engine(&self) -> Engine {
        self.engine_with(EngineConfig::new(self.params.clone(), self.corpus.len()).manual_merge())
    }

    /// Builds an engine with a custom config, loading the whole corpus and
    /// merging once.
    pub fn engine_with(&self, config: EngineConfig) -> Engine {
        let e = Engine::new(config, &self.pool).expect("fixture config is valid");
        e.insert_batch(self.corpus.vectors(), &self.pool)
            .expect("corpus fits engine capacity");
        e.merge_delta(&self.pool);
        e
    }
}

/// A flat all-static index built with no engine, but as the engine
/// builds an epoch — one generation over every row, merged from nothing —
/// and stored as the engine stores one (arrays of 2 MB or more on huge
/// pages where the host allows them); Figures 5 and 6 query it through
/// [`context`](Self::context).
pub struct StaticIndex {
    /// The documents, one row each, and their sketches.
    pub rows: Arc<DeltaGeneration>,
    /// The hash family.
    pub planes: Hyperplanes,
    /// The tables over every row.
    pub tables: StaticTables,
    /// Wall time of storing and hashing the rows, as an insert does.
    pub hashing: Duration,
    /// Wall time of merging the tables.
    pub merge: Duration,
    /// The parameters it was built under.
    pub params: PlshParams,
}

impl StaticIndex {
    /// Hashes `docs` under `params` and merges their tables on `pool`.
    pub fn build(docs: &[SparseVector], params: &PlshParams, pool: &ThreadPool) -> Self {
        let (m, half_bits) = (params.m(), params.half_bits());
        let planes = Hyperplanes::new_dense(params.dim(), params.num_hashes(), params.seed(), pool);
        let t0 = Instant::now();
        let mut rows = DeltaGeneration::new(0, params.dim(), m, half_bits);
        rows.append(docs, &planes, pool)
            .expect("corpus fits its dim");
        let rows = Arc::new(rows);
        let hashing = t0.elapsed();
        let t1 = Instant::now();
        let tables = StaticTables::merge_generations(
            None,
            m,
            half_bits,
            docs.len(),
            std::slice::from_ref(&rows),
            &[],
            0,
            0,
            pool,
        );
        Self {
            rows,
            planes,
            tables,
            hashing,
            merge: t1.elapsed(),
            params: params.clone(),
        }
    }

    /// The documents, one row each.
    pub fn corpus(&self) -> &CrsMatrix {
        self.rows.data()
    }

    /// One epoch of every row: radius `R`, nothing deleted, no budget.
    pub fn context(&self) -> QueryContext<'_> {
        QueryContext {
            static_data: self.corpus(),
            planes: &self.planes,
            static_tables: Some(&self.tables),
            deltas: &[],
            deleted: None,
            m: self.params.m(),
            half_bits: self.params.half_bits(),
            radius: self.params.radius() as f32,
            base: 0,
            retired_below: 0,
            max_candidates: usize::MAX,
            top_k: None,
        }
    }
}

/// Formats a `Duration` as fractional milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Durably writes a BENCH report: contents go to a `.tmp` sibling, are
/// fsynced, renamed over `path`, and the parent directory is fsynced so
/// the rename itself survives a crash. CI tails and the check scripts
/// therefore never observe a half-written report.
pub fn write_json_atomic(path: &str, json: &str) -> std::io::Result<()> {
    use std::io::Write;
    let target = std::path::Path::new(path);
    let tmp = target.with_extension("json.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(json.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, target)?;
    if let Some(dir) = target.parent() {
        let dir = if dir.as_os_str().is_empty() {
            std::path::Path::new(".")
        } else {
            dir
        };
        // Directory fsync is advisory on some filesystems; a failure to
        // open the dir must not fail the write that already landed.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Nearest-rank percentile of a set of batch latencies, in fractional
/// milliseconds (0.0 for an empty sample). Sorts in place.
pub fn percentile_ms(latencies: &mut [Duration], pct: u32) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    latencies.sort_unstable();
    let rank = (latencies.len() * pct as usize).div_ceil(100);
    ms(latencies[rank.saturating_sub(1).min(latencies.len() - 1)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_fixture_builds_and_answers() {
        let mut f = Fixture::build(Scale::Quick, 1);
        // Shrink further for a unit test.
        f.corpus = SyntheticCorpus::generate(CorpusConfig::tiny(500, 1));
        f.queries = QuerySet::sample_from_corpus(&f.corpus, 10, 2);
        f.params = PlshParams::builder(f.corpus.dim())
            .k(8)
            .m(8)
            .radius(0.9)
            .seed(3)
            .build()
            .unwrap();
        let e = f.static_engine();
        assert_eq!(e.static_len(), 500);
        for (i, q) in f.query_vecs().iter().enumerate() {
            let src = f.queries.source_id(i).unwrap();
            let hits = e.query(q);
            assert!(hits.iter().any(|h| h.index == src), "query {i}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        use std::time::Duration;
        let mut lat: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile_ms(&mut lat, 99), 99.0);
        assert_eq!(percentile_ms(&mut lat, 50), 50.0);
        assert_eq!(percentile_ms(&mut lat, 100), 100.0);
        let mut one = vec![Duration::from_millis(7)];
        assert_eq!(percentile_ms(&mut one, 99), 7.0);
        assert_eq!(percentile_ms(&mut [], 99), 0.0);
    }

    #[test]
    fn scale_presets_are_consistent() {
        assert!(Scale::Quick.num_docs() < Scale::Full.num_docs());
        let (k, m) = Scale::Full.k_m();
        assert!(k % 2 == 0 && m >= 2);
    }
}
