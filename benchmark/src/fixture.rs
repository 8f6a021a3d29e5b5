//! Fixture pieces more than one workload uses: the bulk-loaded static
//! index, the query batches drawn from it, the answer oracle, and the
//! restart measurement every workload ends with.

use crate::gen::{sample_positions, Corpus, SplitMix64};
use crate::harness::{copy_dir, dir_stats, params, threads, Ctx, Outcome, SetupTimes, RADIUS};
use crate::stats::median;
use crate::trace::ROOT;
use plsh::parallel::ThreadPool;
use plsh::{Index, SearchHit, SearchRequest, SparseVector};
use std::path::Path;

pub const BATCHES: usize = 8;
pub const BATCH_QUERIES: usize = 1000;
/// Queries per run whose answers are checked against the exact scan, on
/// the workloads that do not check every answer they time.
pub const ORACLE_QUERIES: usize = 2000;
/// Restarts per run; `recover_s` is their median.
const RECOVERIES: usize = 5;

/// The two static workloads' fixture: `docs` documents bulk-loaded and
/// fully merged into a single-backend index, plus 8 × 1000 queries that
/// are documents of the corpus (the paper's protocol).
pub struct StaticFixture {
    pub corpus: Corpus,
    pub index: Index,
    /// Corpus positions of the queries, batch by batch.
    pub query_positions: Vec<usize>,
    pub times: SetupTimes,
}

impl StaticFixture {
    /// `extra_docs` are generated after the bulk-loaded ones and left out
    /// of the index (served_point ingests them over the wire);
    /// `spare_capacity` leaves room for them.
    pub fn build(ctx: &Ctx, extra_docs: usize) -> StaticFixture {
        let docs = ctx.scale.static_docs;
        let (corpus, gen_t) = ctx.tracer.timed("bench.corpus_gen", ROOT, 0, |_| {
            Corpus::generate(ctx.seed, docs + extra_docs)
        });
        // Merges are the harness's to ask for: the bulk load is folded once
        // below, and what served_point ingests later stays delta, so its
        // ingest rate measures decode + sketch + insert and not when a
        // background merge happened to run (stream_window and
        // durable_recover are where merges run beside traffic).
        let index = Index::builder(params())
            .capacity(docs + 2 * extra_docs)
            .threads(threads())
            .manual_merge()
            .build()
            .expect("fixture index configuration is valid");
        let (res, insert_t) = ctx.tracer.timed("core.engine.bulk_insert", ROOT, 0, |_| {
            index.add_batch(&corpus.vectors[..docs])
        });
        res.expect("bulk load fits the configured capacity");
        let (res, build_t) = ctx.tracer.timed("core.table.bulk_build", ROOT, 0, |_| {
            index.flush().and_then(|()| index.merge())
        });
        res.expect("merging the bulk load");
        let mut rng = SplitMix64::new(ctx.seed ^ 0x51_7E_57);
        let query_positions = sample_positions(&mut rng, 0..docs, BATCHES * BATCH_QUERIES);
        StaticFixture {
            corpus,
            index,
            query_positions,
            times: SetupTimes {
                setup_s: 0.0, // stamped by the caller at its first timed phase
                corpus_gen_s: gen_t.as_secs_f64(),
                bulk_insert_s: insert_t.as_secs_f64(),
                bulk_build_s: build_t.as_secs_f64(),
                bulk_docs: docs,
            },
        }
    }

    /// 200 of the first `live` documents with their ids (id = corpus
    /// position): the acked documents a restart must still find.
    pub fn survivors(&self, seed: u64, live: usize) -> Vec<(u32, SparseVector)> {
        let mut rng = SplitMix64::new(seed ^ 0xD0C5);
        sample_positions(&mut rng, 0..live, 200.min(live))
            .into_iter()
            .map(|p| (p as u32, self.corpus.vectors[p].clone()))
            .collect()
    }

    pub fn queries(&self) -> Vec<SparseVector> {
        self.query_positions
            .iter()
            .map(|&p| self.corpus.vectors[p].clone())
            .collect()
    }
}

/// Recall and exact soundness of radius answers against an exact scan of
/// the harness's own copy of the live set.
#[derive(Debug, Default, Clone, Copy)]
pub struct OracleVerdict {
    pub true_neighbours: u64,
    pub reported_true: u64,
    /// Reported hits whose recomputed distance exceeds R, or whose id is
    /// not in the live set, or whose reported distance is off.
    pub unsound_hits: u64,
    pub queries: u64,
}

impl OracleVerdict {
    pub fn recall(&self) -> f64 {
        if self.true_neighbours == 0 {
            1.0
        } else {
            self.reported_true as f64 / self.true_neighbours as f64
        }
    }
}

/// The harness's exact reference: every live document's cosine to a
/// query, by term-at-a-time accumulation over its own postings. Shares no
/// code with the program (a unit test holds it to `plsh_baselines`'
/// exhaustive scan); exact because a document with a positive dot product
/// shares at least one term with the query.
pub struct ExactScan {
    /// Per term: `(live position, weight)` of the documents holding it.
    postings: Vec<Vec<(u32, f32)>>,
    acc: Vec<f32>,
    touched: Vec<u32>,
}

impl ExactScan {
    pub fn new(live: &[SparseVector]) -> ExactScan {
        let dim = live
            .iter()
            .filter_map(SparseVector::max_index)
            .max()
            .map_or(0, |m| m as usize + 1);
        let mut postings = vec![Vec::new(); dim];
        for (pos, v) in live.iter().enumerate() {
            for (&t, &w) in v.indices().iter().zip(v.values()) {
                postings[t as usize].push((pos as u32, w));
            }
        }
        ExactScan {
            postings,
            acc: vec![0.0; live.len()],
            touched: Vec::new(),
        }
    }

    /// Calls `f` with the cosine of every live document (indexable by live
    /// position; 0 for documents sharing no term) and the positions that
    /// share a term with `q`.
    pub fn with_cosines<T>(&mut self, q: &SparseVector, f: impl FnOnce(&[f32], &[u32]) -> T) -> T {
        for (&t, &wq) in q.indices().iter().zip(q.values()) {
            for &(pos, wd) in self.postings.get(t as usize).map_or(&[][..], Vec::as_slice) {
                if self.acc[pos as usize] == 0.0 {
                    self.touched.push(pos);
                }
                self.acc[pos as usize] += wq * wd;
            }
        }
        let out = f(&self.acc, &self.touched);
        for &pos in &self.touched {
            self.acc[pos as usize] = 0.0;
        }
        self.touched.clear();
        out
    }
}

/// Slack, in cosine, for summation order: the program's kernels and this
/// reference add the same products in different orders.
const COS_EPS: f32 = 1e-5;

/// Checks radius answers against the exact scan. `live[i]` is the vector
/// stored under id `ids[i]` (ascending ids).
pub fn check_against_exact(
    live: &[SparseVector],
    ids: &[u32],
    queries: &[SparseVector],
    answers: &[Vec<SearchHit>],
) -> OracleVerdict {
    assert_eq!(live.len(), ids.len());
    assert_eq!(queries.len(), answers.len());
    let mut scan = ExactScan::new(live);
    let cos_r = RADIUS.cos();
    let mut v = OracleVerdict {
        queries: queries.len() as u64,
        ..OracleVerdict::default()
    };
    for (q, hits) in queries.iter().zip(answers) {
        scan.with_cosines(q, |cos, touched| {
            // A neighbour the program must report: inside R by more than
            // rounding.
            for &pos in touched {
                if cos[pos as usize] >= cos_r + COS_EPS {
                    v.true_neighbours += 1;
                    if hits.iter().any(|h| h.index == ids[pos as usize]) {
                        v.reported_true += 1;
                    }
                }
            }
            // A hit the program may report: a live id, inside R up to
            // rounding, with the distance it really has (compared as
            // cosines: acos is ill-conditioned near 0).
            for h in hits {
                let sound = ids.binary_search(&h.index).is_ok_and(|pos| {
                    let c = cos[pos].clamp(-1.0, 1.0);
                    c >= cos_r - COS_EPS && (c - h.distance.cos()).abs() <= COS_EPS
                });
                if !sound {
                    v.unsound_hits += 1;
                }
            }
        });
    }
    v
}

/// Records an oracle verdict in the outcome: unsound hits count as
/// failed operations, recall below 1 − δ fails the run.
pub fn apply_verdict(out: &mut Outcome, v: &OracleVerdict) {
    out.attempted += v.queries;
    out.failed += v.unsound_hits;
    out.set("e2e.recall", v.recall());
    out.note("oracle_queries", v.queries);
    out.note("oracle_true_neighbours", v.true_neighbours);
    if v.recall() < 1.0 - crate::harness::DELTA {
        out.fail_oracle(format!("recall {:.4} is below 1 - delta", v.recall()));
    }
}

/// What a set of restarts measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct Restarts {
    pub recover_s: f64,
    pub load_state_s: f64,
    pub rebuild_s: f64,
    pub recovered_docs: usize,
}

/// Restarts from copies of `dir`: `Index::recover_from` → first correct
/// answer, `RECOVERIES` times (median). The first answer must be
/// bit-identical to `expected[0]`; afterwards every probe is re-asked and
/// `survivors` (acked documents with their ids) must be found again. Each
/// mismatch is a failed operation.
///
/// Restarts run on copies because a recovered index journals onward in
/// its directory; the copy is what a crash would have left behind.
pub fn measure_restarts(
    ctx: &Ctx,
    out: &mut Outcome,
    dir: &Path,
    probes: &[SparseVector],
    expected: &[Vec<SearchHit>],
    survivors: &[(u32, SparseVector)],
) -> Restarts {
    let reps = if ctx.trace { 1 } else { RECOVERIES };
    let mut times = Vec::new();
    let mut recovered_docs = 0;
    for rep in 0..reps {
        let copy = ctx.tmp.join(format!("restart-{rep}"));
        copy_dir(dir, &copy).expect("copying the persist directory");
        // Timed: restart → first correct answer.
        let ((index, first_ok), took) = ctx.tracer.timed("recover", ROOT, 0, |span| {
            let (index, _) = ctx.tracer.timed("core.persist.recover_from", span, 0, |_| {
                Index::recover_from(&copy)
            });
            let index = index.expect("a directory the program wrote recovers");
            let (first, _) = ctx.tracer.timed("core.query.first_answer", span, 0, |_| {
                index.search(&SearchRequest::query(probes[0].clone()))
            });
            let first_ok =
                first.is_ok_and(|r| crate::client::hits_identical(r.hits(), &expected[0]));
            (index, first_ok)
        });
        times.push(took.as_secs_f64());
        out.attempted += 1;
        if !first_ok {
            out.failed += 1;
        }
        // Untimed: every probe answers as before the restart, and every
        // acked document is still found.
        for (q, want) in probes.iter().zip(expected).skip(1) {
            out.attempted += 1;
            let same = index
                .search(&SearchRequest::query(q.clone()))
                .is_ok_and(|r| crate::client::hits_identical(r.hits(), want));
            if !same {
                out.failed += 1;
            }
        }
        for (id, doc) in survivors {
            out.attempted += 1;
            if !crate::harness::finds_exact_duplicate(&index, doc, *id) {
                out.failed += 1;
                out.fail_oracle(format!("acked doc {id} is missing after recovery"));
            }
        }
        recovered_docs = index.stats().live_points;
        drop(index);
        std::fs::remove_dir_all(&copy).expect("removing a restart copy");
    }
    let mut r = Restarts {
        recover_s: median(&times),
        recovered_docs,
        ..Restarts::default()
    };
    if ctx.trace {
        // The split of recover_s, by calling the two halves directly.
        let copy = ctx.tmp.join("restart-split");
        copy_dir(dir, &copy).expect("copying the persist directory");
        let pool = ThreadPool::new(threads());
        let (state, load_t) = ctx.tracer.timed("core.persist.load_state", ROOT, 0, |_| {
            plsh::core::persist::load_state(&copy)
        });
        let state = state.expect("a directory the program wrote loads");
        let (engine, rebuild_t) = ctx.tracer.timed("core.persist.rebuild", ROOT, 0, |_| {
            plsh::core::persist::recover_engine_from_state(&copy, &state, &pool)
        });
        drop(engine.expect("a loaded state rebuilds"));
        r.load_state_s = load_t.as_secs_f64();
        r.rebuild_s = rebuild_t.as_secs_f64();
        std::fs::remove_dir_all(&copy).expect("removing a restart copy");
    }
    r
}

/// The restart every non-durable workload ends with: fold the index, write
/// a baseline of it with `persist_to`, record what the probes answer, drop the
/// index, and restart from the directory. Sets `recover_s` and
/// `disk_bytes_per_doc_byte` (and the per-layer split when traced).
pub fn baseline_restart(
    ctx: &Ctx,
    out: &mut Outcome,
    index: Index,
    probes: &[SparseVector],
    survivors: &[(u32, SparseVector)],
    user_bytes: u64,
) {
    // Fold first: the baseline is then one static epoch on every run, not
    // whatever mix of generations the workload happened to end on.
    index
        .flush()
        .and_then(|()| index.merge())
        .expect("folding before the baseline");
    let dir = ctx.tmp.join("baseline");
    let (res, _) = ctx.tracer.timed("core.persist.persist_to", ROOT, 0, |_| {
        index.persist_to(&dir)
    });
    res.expect("writing a persistence baseline");
    let expected: Vec<Vec<SearchHit>> = probes
        .iter()
        .map(|q| {
            index
                .search(&SearchRequest::query(q.clone()))
                .expect("probe search")
                .into_hits()
        })
        .collect();
    drop(index);
    let disk = dir_stats(&dir).expect("reading the persist directory");
    let restarts = measure_restarts(ctx, out, &dir, probes, &expected, survivors);
    record_restarts(out, &restarts, &disk, user_bytes);
}

pub fn record_restarts(
    out: &mut Outcome,
    r: &Restarts,
    disk: &crate::harness::DirStats,
    user_bytes: u64,
) {
    out.set("recover_s", r.recover_s);
    out.set(
        "disk_bytes_per_doc_byte",
        disk.bytes as f64 / user_bytes as f64,
    );
    out.set("core.persist.segment_files", disk.segment_files as f64);
    out.set("core.persist.load_state_s", r.load_state_s);
    out.set("core.persist.rebuild_s", r.rebuild_s);
    if r.recover_s > 0.0 {
        out.set(
            "core.persist.replay_docs_per_s",
            r.recovered_docs as f64 / r.recover_s,
        );
    }
    out.note("recovered_docs", r.recovered_docs);
    out.note("disk_bytes", disk.bytes);
    out.note("user_bytes", user_bytes);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(index: u32, distance: f32) -> SearchHit {
        SearchHit {
            node: 0,
            index,
            distance,
        }
    }

    #[test]
    fn oracle_counts_missed_neighbours_and_unsound_hits() {
        let unit = |pairs: Vec<(u32, f32)>| SparseVector::unit(pairs).unwrap();
        let live = vec![
            unit(vec![(0, 1.0), (1, 1.0)]),
            unit(vec![(0, 1.0), (1, 0.9)]),
            unit(vec![(5, 1.0), (6, 1.0)]),
        ];
        let ids = [10u32, 11, 12];
        let q = live[0].clone();
        let d01 = q.angular_distance(&live[1]);
        // Both true neighbours reported, correctly.
        let v = check_against_exact(
            &live,
            &ids,
            std::slice::from_ref(&q),
            &[vec![hit(10, 0.0), hit(11, d01)]],
        );
        assert_eq!(
            (v.true_neighbours, v.reported_true, v.unsound_hits),
            (2, 2, 0)
        );
        assert_eq!(v.recall(), 1.0);
        // One neighbour missed; one far point reported; one id not live.
        let v = check_against_exact(
            &live,
            &ids,
            std::slice::from_ref(&q),
            &[vec![hit(10, 0.0), hit(12, 0.5), hit(99, 0.1)]],
        );
        assert_eq!(
            (v.true_neighbours, v.reported_true, v.unsound_hits),
            (2, 1, 2)
        );
        assert_eq!(v.recall(), 0.5);
        // A true neighbour with a wrong distance is unsound.
        let v = check_against_exact(&live, &ids, &[q], &[vec![hit(11, d01 + 0.01)]]);
        assert_eq!(v.unsound_hits, 1);
        // A self-match reported as a small non-zero angle is rounding.
        let v = check_against_exact(&live, &ids, &[live[2].clone()], &[vec![hit(12, 3e-4)]]);
        assert_eq!(v.unsound_hits, 0);
        let v = check_against_exact(&live, &ids, &[live[2].clone()], &[vec![hit(12, 0.05)]]);
        assert_eq!(v.unsound_hits, 1);
    }

    #[test]
    fn exact_scan_agrees_with_the_baselines_exhaustive_search() {
        let corpus = crate::gen::Corpus::generate(21, 3000);
        let live = &corpus.vectors[500..2500];
        let exhaustive = plsh::baselines::ExhaustiveSearch::new(crate::gen::VOCAB, live, RADIUS);
        let mut scan = ExactScan::new(live);
        let mut neighbours = 0;
        for q in corpus.vectors.iter().step_by(7) {
            let want: Vec<u32> = exhaustive.query(q).matches.iter().map(|m| m.0).collect();
            let mut got: Vec<u32> = scan.with_cosines(q, |cos, touched| {
                touched
                    .iter()
                    .copied()
                    .filter(|&p| cos[p as usize].clamp(-1.0, 1.0).acos() <= RADIUS)
                    .collect()
            });
            got.sort_unstable();
            assert_eq!(got, want);
            neighbours += want.len();
        }
        assert!(
            neighbours > 300,
            "the comparison saw only {neighbours} neighbours"
        );
    }
}
