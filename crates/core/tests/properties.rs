//! Property-based tests on plsh-core invariants that span modules.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use plsh_core::hash::{allpairs, Hyperplanes, SketchMatrix};
use plsh_core::params::{self, PlshParams};
use plsh_core::query::{
    self, dot_floor, Exec, Neighbor, QueryContext, QueryScratch, ScratchPool, SignatureBound,
};
use plsh_core::rng::SplitMix64;
use plsh_core::simd::{self, SimdLevel};
use plsh_core::sparse::{angular_from_dot, dot_sorted, signature, CrsMatrix, SparseVector};
use plsh_core::table::{DeltaGeneration, MergeStepper, StaticTables};
use plsh_core::{Engine, EngineConfig, SearchRequest, SearchResponse};
use plsh_parallel::ThreadPool;

const DIM: u32 = 48;

fn sparse_vec_strategy() -> impl Strategy<Value = SparseVector> {
    proptest::collection::btree_map(0..DIM, 1u32..100, 1..6).prop_map(|m| {
        let pairs: Vec<(u32, f32)> = m.into_iter().map(|(d, v)| (d, v as f32 / 7.0)).collect();
        SparseVector::unit(pairs).expect("non-empty positive pairs")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dot_product_is_symmetric_and_cauchy_schwarz(
        a in sparse_vec_strategy(),
        b in sparse_vec_strategy(),
    ) {
        let ab = a.dot(&b);
        let ba = b.dot(&a);
        prop_assert!((ab - ba).abs() < 1e-6);
        // Unit vectors: |a.b| <= 1 (+ fp slack).
        prop_assert!(ab.abs() <= 1.0 + 1e-5);
        // Distance axioms (identity, symmetry).
        prop_assert!(a.angular_distance(&a) < 1e-3);
        let d1 = a.angular_distance(&b);
        let d2 = b.angular_distance(&a);
        prop_assert!((d1 - d2).abs() < 1e-5);
        prop_assert!((0.0..=std::f32::consts::PI + 1e-5).contains(&d1));
    }

    #[test]
    fn triangle_inequality_holds(
        a in sparse_vec_strategy(),
        b in sparse_vec_strategy(),
        c in sparse_vec_strategy(),
    ) {
        // Angular distance on the sphere is a metric.
        let ab = a.angular_distance(&b) as f64;
        let bc = b.angular_distance(&c) as f64;
        let ac = a.angular_distance(&c) as f64;
        prop_assert!(ac <= ab + bc + 1e-4, "{ac} > {ab} + {bc}");
    }

    #[test]
    fn identical_vectors_share_every_half_key(
        v in sparse_vec_strategy(),
        seed in 0u64..1000,
    ) {
        let pool = ThreadPool::new(1);
        let planes = Hyperplanes::new_dense(DIM, 4 * 3, seed, &pool);
        let mut corpus = CrsMatrix::new(DIM);
        corpus.push(&v).unwrap();
        corpus.push(&v).unwrap();
        let mut sk = SketchMatrix::new(4, 3);
        sk.append_from(&corpus, &planes, 0, &pool);
        prop_assert!(sk.half_keys(0).eq(sk.half_keys(1)));
    }

    #[test]
    fn collision_rate_decreases_with_angle(
        seed in 0u64..100,
    ) {
        // Empirical check of p(t) = 1 - t/pi monotonicity through the
        // actual hash pipeline: closer pairs collide on more half-keys.
        let pool = ThreadPool::new(1);
        let planes = Hyperplanes::new_dense(DIM, 64, seed, &pool);
        let base = SparseVector::unit(vec![(0, 1.0), (1, 1.0), (2, 1.0)]).unwrap();
        let near = SparseVector::unit(vec![(0, 1.0), (1, 1.0), (3, 1.0)]).unwrap();
        let far = SparseVector::unit(vec![(10, 1.0), (11, 1.0), (12, 1.0)]).unwrap();
        let mut corpus = CrsMatrix::new(DIM);
        corpus.push(&base).unwrap();
        corpus.push(&near).unwrap();
        corpus.push(&far).unwrap();
        let mut sk = SketchMatrix::new(64, 1);
        sk.append_from(&corpus, &planes, 0, &pool);
        let agree = |x: u32, y: u32| {
            (0..64u32).filter(|&a| sk.half_key(x, a) == sk.half_key(y, a)).count()
        };
        // near shares 2/3 words with base; far shares none. With 64
        // independent sign bits the ordering is overwhelming.
        prop_assert!(agree(0, 1) > agree(0, 2),
            "near {} vs far {}", agree(0, 1), agree(0, 2));
    }

    #[test]
    fn recall_formula_bounds_table_collision(t in 0.01f64..3.1, k in 1u32..16, m in 2u32..30) {
        let k = k * 2;
        let p = PlshParams::collision_probability(t);
        let full = p.powi(k as i32);
        let r = params::recall(t, k, m);
        // Recall through L tables is at least the single-table collision
        // probability whenever at least one table exists... specifically
        // P'(t) >= p^k * (something); weak sanity: both in [0,1] and
        // P' >= p^k - epsilon is NOT generally true for m=2; instead check
        // P' <= 1 and P' >= 0 and monotone bound: P'(t) <= sum of table
        // collisions L * p^k (union bound).
        let l = (m * (m - 1) / 2) as f64;
        prop_assert!((0.0..=1.0).contains(&r));
        prop_assert!(r <= (l * full).min(1.0) + 1e-9, "union bound violated");
    }

    #[test]
    fn engine_roundtrip_any_vectors(
        vs in proptest::collection::vec(sparse_vec_strategy(), 1..40),
        merge in any::<bool>(),
    ) {
        let pool = ThreadPool::new(1);
        let params = PlshParams::builder(DIM).k(4).m(5).radius(0.9).seed(3).build().unwrap();
        let e = Engine::new(EngineConfig::new(params, 256).manual_merge(), &pool).unwrap();
        let ids = e.insert_batch(&vs, &pool).unwrap();
        if merge {
            e.merge_delta(&pool);
        }
        // Every vector finds itself (identical hash in every table).
        for (v, &id) in vs.iter().zip(&ids) {
            let hits = e.query(v);
            prop_assert!(hits.iter().any(|h| h.index == id && h.distance < 1e-3));
        }
    }

    /// Every way left to run a search — as single-query requests or one
    /// batch, with or without counters, with or without stage timers, on
    /// one worker or two — answers alike: one driver serves them all.
    #[test]
    fn every_strategy_combination_agrees(
        vs in proptest::collection::vec(sparse_vec_strategy(), 8..40),
        one_by_one in any::<bool>(),
        stats in any::<bool>(),
        profiling in any::<bool>(),
        two_workers in any::<bool>(),
    ) {
        let pool = ThreadPool::new(1);
        let params = PlshParams::builder(DIM).k(4).m(5).radius(0.9).seed(9).build().unwrap();
        let e = Engine::new(EngineConfig::new(params, 256).manual_merge(), &pool).unwrap();
        e.insert_batch(&vs, &pool).unwrap();
        e.merge_delta(&pool);
        let queries: Vec<SparseVector> = vs.iter().step_by(4).cloned().collect();
        let answers = |resp: SearchResponse| -> Vec<Vec<(u32, u32)>> {
            resp.results
                .iter()
                .map(|hits| hits.iter().map(|h| (h.index, h.distance.to_bits())).collect())
                .collect()
        };
        let expect = answers(e.search(&SearchRequest::batch(queries.clone()), &pool).unwrap());
        let run_pool = ThreadPool::new(if two_workers { 2 } else { 1 });
        let options = |mut req: SearchRequest| {
            if stats {
                req = req.with_stats();
            }
            if profiling {
                req = req.with_profiling();
            }
            req
        };
        let got: Vec<Vec<(u32, u32)>> = if one_by_one {
            queries
                .iter()
                .flat_map(|q| {
                    let req = options(SearchRequest::query(q.clone()));
                    answers(e.search(&req, &run_pool).unwrap())
                })
                .collect()
        } else {
            answers(e.search(&options(SearchRequest::batch(queries)), &run_pool).unwrap())
        };
        prop_assert_eq!(got, expect);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The incremental merge is bit-identical to the monolithic one for
    /// *every* slice budget, and the published epoch plus live ingest are
    /// untouched while the stepper is mid-flight — the correctness core
    /// of cooperative merge pacing.
    #[test]
    fn stepped_merge_is_bit_identical_to_monolithic(
        n_static in 0usize..120,
        n_gen1 in 1usize..60,
        n_gen2 in 0usize..60,
        victims in proptest::collection::vec(0usize..240, 0..8),
        max_buckets in 1usize..80,
        max_rows in 1usize..50,
        seed in 0u64..500,
    ) {
        let pool = ThreadPool::new(1);
        let (m, half_bits) = (4u32, 3u32);
        let total = n_static + n_gen1 + n_gen2;

        // Deterministic corpus from the seed.
        let mut corpus = CrsMatrix::new(DIM);
        for i in 0..total as u64 {
            let a = ((i * 7 + seed) % DIM as u64) as u32;
            let b = ((i * 13 + seed / 3 + 1) % DIM as u64) as u32;
            let v = if a == b {
                SparseVector::unit(vec![(a, 1.0)]).unwrap()
            } else {
                SparseVector::unit(vec![(a, 1.0), (b, 0.25 + (i % 9) as f32 * 0.1)])
                    .unwrap()
            };
            corpus.push(&v).unwrap();
        }
        let planes = Hyperplanes::new_dense(DIM, m * half_bits, seed ^ 0x5eed, &pool);
        let mk_gen = |base: usize, end: usize| {
            let mut g = DeltaGeneration::new(base as u32, DIM, m, half_bits);
            let vs: Vec<SparseVector> =
                (base..end).map(|i| corpus.row_vector(i as u32)).collect();
            g.append(&vs, &planes, &pool).unwrap();
            std::sync::Arc::new(g)
        };

        // Static prefix, merged from its own generation as the engine
        // loads one, + one or two sealed generations over the rest.
        let prev = StaticTables::merge_generations(
            None, m, half_bits, n_static, &[mk_gen(0, n_static)], &[], 0, 0, &pool,
        );
        let mut gens = vec![mk_gen(n_static, n_static + n_gen1)];
        if n_gen2 > 0 {
            gens.push(mk_gen(n_static + n_gen1, total));
        }

        // Arbitrary tombstone snapshot (ids folded into range).
        let mut purge = vec![0u64; total.div_ceil(64)];
        for v in &victims {
            let id = v % total;
            purge[id >> 6] |= 1 << (id & 63);
        }

        let prev_opt = (n_static > 0).then_some(&prev);
        let mono = StaticTables::merge_generations(
            prev_opt, m, half_bits, total, &gens, &purge, 0, 0, &pool,
        );

        // Stepped run with the drawn slice budgets, interleaving the two
        // things a paced merge overlaps with: reads of the published
        // epoch and appends to a *new* (uninvolved) generation.
        let witness_key = (seed % 64) as u32;
        let witness: Vec<u32> = prev.bucket(0, witness_key).to_vec();
        let mut side = DeltaGeneration::new(total as u32, DIM, m, half_bits);
        let mut stepper = MergeStepper::new(prev_opt, m, half_bits, total, &gens, &purge, 0, 0);
        let mut steps = 0usize;
        while stepper.step(max_buckets, max_rows) {
            steps += 1;
            if steps.is_multiple_of(3) {
                // A "query" between slices: the published epoch is
                // untouched mid-merge.
                prop_assert_eq!(prev.bucket(0, witness_key), &witness[..]);
            }
            if steps == 5 {
                // An "insert" between slices: live ingest keeps filing
                // into a fresh generation while the merge is mid-flight.
                side.append(&[corpus.row_vector(0)], &planes, &pool).unwrap();
            }
        }
        prop_assert!(stepper.is_done());
        let stepped = stepper.finish();

        prop_assert_eq!(stepped.num_points(), mono.num_points());
        let buckets = 1u32 << (2 * half_bits);
        for l in 0..mono.num_tables() {
            for key in 0..buckets {
                prop_assert_eq!(
                    stepped.bucket(l, key),
                    mono.bucket(l, key),
                    "diverged at table {} key {} (budgets {}/{})",
                    l, key, max_buckets, max_rows
                );
            }
        }
    }
}

/// Vocabulary of the signature-bound properties: wide enough for queries
/// of over 2,000 terms.
const WIDE_DIM: u32 = 4096;

/// `count` distinct dimensions below `WIDE_DIM`, ascending.
fn distinct_dims(rng: &mut SplitMix64, count: usize) -> Vec<u32> {
    let mut dims = std::collections::BTreeSet::new();
    while dims.len() < count {
        dims.insert(rng.next_below(u64::from(WIDE_DIM)) as u32);
    }
    dims.into_iter().collect()
}

/// A non-zero value in `±[0.05, 1)`.
fn signed_value(rng: &mut SplitMix64) -> f32 {
    let v = 0.05 + 0.95 * rng.next_f64() as f32;
    if rng.next_below(4) == 0 {
        -v
    } else {
        v
    }
}

/// `pairs` scaled to squared norm `norm2`.
fn with_norm2(pairs: Vec<(u32, f32)>, norm2: f64) -> SparseVector {
    let unit = SparseVector::unit(pairs).expect("non-zero values");
    let scale = norm2.sqrt() as f32;
    let (idx, val) = (unit.indices().to_vec(), unit.values());
    SparseVector::from_sorted(idx, val.iter().map(|v| v * scale).collect()).expect("finite")
}

/// Rows for the bound to judge: some drawn at random, some built from a
/// subset of the query's own terms (aligned with it, the case where the
/// Cauchy–Schwarz bound is tight), at unit norm, below it, just under the
/// `1 + 1e-4` guard, and above it, some with flipped signs.
fn bound_rows(rng: &mut SplitMix64, q: &SparseVector) -> Vec<SparseVector> {
    let norms = [1.0, 0.3, 0.81, 1.0 + 9e-5, 1.0 + 2e-4, 2.25];
    let mut rows = Vec::new();
    for i in 0..120 {
        let norm2 = norms[i % norms.len()];
        let pairs: Vec<(u32, f32)> = if i % 2 == 0 {
            let n = 1 + rng.next_below(12) as usize;
            let dims = distinct_dims(rng, n);
            dims.into_iter().map(|d| (d, signed_value(rng))).collect()
        } else {
            let take = 1 + rng.next_below(q.nnz().min(40) as u64) as usize;
            let from = rng.next_below((q.nnz() - take + 1) as u64) as usize;
            let flip = i % 6 == 1;
            q.indices()[from..from + take]
                .iter()
                .zip(&q.values()[from..from + take])
                .map(|(&d, &v)| (d, if flip { -v } else { v }))
                .collect()
        };
        rows.push(with_norm2(pairs, norm2));
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The signature bound is exact: every row it rules out has a
    /// merge-join dot below the floor, so a distance beyond the floor's
    /// angle. Floors come from radii across `(0, π]` (at `≥ π/2` the floor
    /// is `≤ 0` and nothing may be ruled out), from the k-th best row's
    /// distance (a k-NN query's floor), and from rows' own exact dots
    /// (the tightest a floor can sit).
    #[test]
    fn signature_bound_rules_out_only_certain_misses(
        seed in any::<u64>(),
        qlen in prop_oneof![1usize..8, 8usize..300, 2000usize..2400],
        query_norm2 in prop_oneof![Just(1.0f64), 0.2f64..4.0],
        radius in 0.001f32..std::f32::consts::PI,
        k in 1usize..12,
    ) {
        let mut rng = SplitMix64::new(seed);
        let dims = distinct_dims(&mut rng, qlen);
        let pairs = dims.into_iter().map(|d| (d, signed_value(&mut rng))).collect();
        let q = with_norm2(pairs, query_norm2);
        // The query's bits: a unit copy's signature, never the all-ones
        // one a longer vector gets.
        let q_pairs = q.indices().iter().copied().zip(q.values().to_vec()).collect();
        let unit_q = with_norm2(q_pairs, 1.0);
        let qsig = signature(unit_q.indices(), unit_q.values());
        let rows = bound_rows(&mut rng, &q);
        let dots: Vec<f32> = rows
            .iter()
            .map(|r| dot_sorted(r.indices(), r.values(), q.indices(), q.values()))
            .collect();
        let mut ranked = dots.clone();
        ranked.sort_by(|a, b| b.total_cmp(a));
        let mut floors = vec![
            dot_floor(radius),
            dot_floor(std::f32::consts::FRAC_PI_2),
            dot_floor(std::f32::consts::PI),
            dot_floor(angular_from_dot(ranked[k - 1])),
        ];
        floors.extend(dots.iter().step_by(3));
        for &floor in &floors {
            let bound = SignatureBound::new(&q, floor, 0);
            for (row, &dot) in rows.iter().zip(&dots) {
                let sig = signature(row.indices(), row.values());
                if !bound.rules_out(sig) {
                    // A unit row sharing no signature bit with the query
                    // cannot reach a positive floor.
                    prop_assert!(
                        floor <= 0.0 || sig & qsig != 0 || sig == u64::MAX,
                        "floor {} kept a disjoint row", floor
                    );
                    continue;
                }
                prop_assert!(floor > 0.0, "ruled out at floor {}", floor);
                prop_assert!(
                    dot < floor,
                    "ruled out a row with dot {} >= floor {} (norm {}, query nnz {})",
                    dot, floor, row.norm(), q.nnz()
                );
            }
        }
    }
}

/// Dimensions below `WIDE_DIM` grouped by the signature bit they set, so
/// a query can be built on chosen bits.
fn dims_by_bit() -> Vec<Vec<u32>> {
    let mut by_bit = vec![Vec::new(); 64];
    for d in 0..WIDE_DIM {
        by_bit[signature(&[d], &[1.0]).trailing_zeros() as usize].push(d);
    }
    by_bit
}

/// A query on `q` distinct signature bits: one to three terms per bit,
/// with magnitudes spread over three decades.
fn query_on_bits(rng: &mut SplitMix64, by_bit: &[Vec<u32>], q: usize) -> SparseVector {
    let mut bits: Vec<usize> = (0..64).filter(|&b| !by_bit[b].is_empty()).collect();
    for i in 0..q {
        let j = i + rng.next_below((bits.len() - i) as u64) as usize;
        bits.swap(i, j);
    }
    let mut pairs = Vec::new();
    for &b in &bits[..q] {
        let terms = 1 + rng.next_below(by_bit[b].len().min(3) as u64) as usize;
        let first = rng.next_below((by_bit[b].len() - terms + 1) as u64) as usize;
        for &d in &by_bit[b][first..first + terms] {
            let scale = [1.0, 0.1, 0.01][rng.next_below(3) as usize];
            pairs.push((d, signed_value(rng) * scale));
        }
    }
    SparseVector::new(pairs).expect("distinct non-zero terms")
}

/// The subset of `qsig`'s bits that bit `s` of a survival-table index
/// stands for, as a row signature.
fn subset_signature(qsig: u64, s: u64) -> u64 {
    let (mut bits, mut sig) = (qsig, 0);
    for j in 0..qsig.count_ones() {
        let low = bits & bits.wrapping_neg();
        bits &= bits - 1;
        sig |= if s >> j & 1 != 0 { low } else { 0 };
    }
    sig
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Q3's survival table decides every row as the per-bit loop does.
    /// Queries sit on 1 to 16 signature bits (a query has at least one
    /// term; the empty subset is every row sharing no bit with it), up to
    /// and past the rule that builds a table, with floors at `≤ 0` (bound
    /// off), at random, and a hair either side of a subset's shared
    /// weight; rows share random subsets of the query's bits, random
    /// bits, none (`0`), or carry the all-ones signature. Where the CPU has
    /// fast `pext`, a table is built exactly when the rule says so.
    #[test]
    fn survival_table_decides_like_the_loop(
        seed in any::<u64>(),
        q in 1usize..17,
        candidates in prop_oneof![Just(0usize), 1usize..1000, Just(usize::MAX)],
    ) {
        let by_bit = dims_by_bit();
        let mut rng = SplitMix64::new(seed);
        let query = query_on_bits(&mut rng, &by_bit, q);
        let qsig = query.indices().iter().fold(0u64, |sig, &d| sig | signature(&[d], &[1.0]));
        prop_assert_eq!(qsig.count_ones() as usize, q);
        let weight = |b: u64| -> f64 {
            query
                .indices()
                .iter()
                .zip(query.values())
                .filter(|(&d, _)| signature(&[d], &[1.0]) == b)
                .map(|(_, &v)| f64::from(v) * f64::from(v))
                .sum()
        };
        let mut rows = vec![0, u64::MAX, qsig, !qsig];
        for _ in 0..200 {
            let subset = subset_signature(qsig, rng.next_u64());
            rows.push(match rng.next_below(3) {
                0 => subset,
                1 => subset | (rng.next_u64() & !qsig),
                _ => rng.next_u64(),
            });
        }
        // The floor whose threshold `min_ub2` (floor² over the bound's
        // rounding margins) lands on a subset's shared weight.
        let nu = query.nnz() as f64 * (f64::from(f32::EPSILON) / 2.0);
        let margins = (1.0 + nu / (1.0 - nu)).powi(2) * (1.0 + 1e-4) * (1.0 + 1e-8);
        let mut floors = vec![0.0, -0.3, 0.05 + 0.9 * rng.next_f64() as f32];
        for _ in 0..6 {
            let sig = subset_signature(qsig, rng.next_u64());
            let shared: f64 = (0..64).filter(|b| sig >> b & 1 != 0).map(|b| weight(1 << b)).sum();
            let floor = (shared * margins).sqrt() as f32;
            floors.extend([floor, floor * (1.0 - 1e-6), floor * (1.0 + 1e-6)]);
        }
        for &floor in &floors {
            let bound = SignatureBound::new(&query, floor, candidates);
            let rule = floor > 0.0 && q <= 16 && 1usize << q <= candidates;
            prop_assert_eq!(bound.has_table(), rule && simd::has_fast_pext(), "floor {}", floor);
            for &sig in &rows {
                let table = bound.table_rules_out(sig);
                prop_assert_eq!(table.is_some(), bound.has_table());
                if let Some(table) = table {
                    prop_assert_eq!(
                        table, bound.rules_out(sig),
                        "floor {}, row {:#x}, query bits {:#x}", floor, sig, qsig
                    );
                }
            }
        }
    }
}

/// The shipped kernel reads a tweet-sized query's bound from its survival
/// table wherever the CPU can, so it cannot fall back to the per-bit loop
/// unnoticed. Skips, saying why, below the AVX2 level or on a CPU without
/// fast `pext`.
#[test]
fn seven_term_query_takes_the_table_path() {
    if simd::level() != SimdLevel::Avx2 {
        eprintln!(
            "skipped: kernels dispatch to {}; the table path rides avx2",
            simd::level().name()
        );
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if !is_x86_feature_detected!("bmi2") {
        eprintln!("skipped: this CPU has no BMI2, so no pext");
        return;
    }
    if simd::pext_is_microcoded() {
        eprintln!("skipped: pext is microcoded on this CPU (AMD family 17h)");
        return;
    }
    let by_bit = dims_by_bit();
    let mut rng = SplitMix64::new(7);
    let query = query_on_bits(&mut rng, &by_bit, 7);
    let query = SparseVector::unit(
        query
            .indices()
            .iter()
            .copied()
            .zip(query.values().to_vec())
            .collect(),
    )
    .expect("non-zero");
    // `batch_static`'s radius, and its ~770 candidates per query.
    let bound = SignatureBound::new(&query, dot_floor(0.9), 770);
    assert!(bound.has_table(), "a 7-term query must take the table path");
    let qsig = query
        .indices()
        .iter()
        .fold(0u64, |sig, &d| sig | signature(&[d], &[1.0]));
    for s in 0..128 {
        let sig = subset_signature(qsig, s);
        assert_eq!(
            bound.table_rules_out(sig),
            Some(bound.rules_out(sig)),
            "subset {s}"
        );
    }
}

/// One fixed random epoch — a merged prefix, two sealed generations,
/// deletes and a retire cut — queried in radius mode at two radii (the
/// bound on, deciding with a table where the CPU allows) and as a top-5
/// k-NN query (the bound off). One line per query: its answer's ids and
/// distance bits, and every counter, `rows_loaded` included. The last
/// line counts the radius queries whose bound had a table.
fn kernel_probe_lines() -> Vec<String> {
    let pool = ThreadPool::new(1);
    let shape = (6u32, 2u32);
    let planes = Hyperplanes::new_dense(DIM, shape.0 * shape.1, 5, &pool);
    let mut rng = SplitMix64::new(44);
    let vs: Vec<SparseVector> = (0..3000)
        .map(|_| {
            let terms = 2 + rng.next_below(7) as usize;
            let pairs = (0..terms)
                .map(|_| {
                    (
                        rng.next_below(u64::from(DIM)) as u32,
                        signed_value(&mut rng),
                    )
                })
                .collect();
            SparseVector::unit(pairs).expect("non-zero")
        })
        .collect();
    let (n, base) = (vs.len(), 7u32);
    let (static_data, tables, gens) = segments(&vs, base, 2000, &[2600], &planes, shape, &pool);
    let deleted: Vec<AtomicU64> = (0..n.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
    for off in (0..n).step_by(37) {
        deleted[off / 64].fetch_or(1 << (off % 64), Ordering::Relaxed);
    }
    let epoch = QueryContext {
        static_data: &static_data,
        planes: &planes,
        static_tables: tables.as_ref(),
        deltas: &gens,
        deleted: Some(&deleted),
        m: shape.0,
        half_bits: shape.1,
        radius: 0.9,
        base,
        retired_below: base + 40,
        max_candidates: usize::MAX,
        top_k: None,
    };
    let queries: Vec<SparseVector> = vs.iter().step_by(50).cloned().collect();
    let mut scratch = QueryScratch::new(shape.0, shape.1, n, DIM);
    let mut lines = Vec::new();
    let mut tables_built = 0;
    for (radius, top_k) in [(0.9, None), (1.2, None), (std::f32::consts::PI, Some(5))] {
        let ctx = QueryContext {
            radius,
            top_k,
            ..epoch
        };
        for q in &queries {
            let qs = std::slice::from_ref(q);
            let (got, stats) = query::run_batch(&ctx, qs, Exec::Inline(&mut scratch), None);
            let visits = stats.totals.unique_candidates as usize;
            tables_built += usize::from(
                top_k.is_none() && SignatureBound::new(q, dot_floor(radius), visits).has_table(),
            );
            lines.push(format!("{:?} {:?}", bits(&got[0]), stats.totals));
        }
    }
    lines.push(format!("tables {tables_built}"));
    lines
}

/// What [`kernel_counters_do_not_depend_on_the_simd_level`] runs in a
/// child process at a forced `PLSH_SIMD` level.
#[test]
#[ignore = "run in child processes by kernel_counters_do_not_depend_on_the_simd_level"]
fn kernel_probe_at_this_simd_level() {
    // On a line of its own: the harness ends the test's name line with
    // no newline under `--nocapture`.
    println!(
        "\nsimd {} pext {}",
        simd::level().name(),
        simd::has_fast_pext()
    );
    for line in kernel_probe_lines() {
        println!("probe {line}");
    }
}

/// The kernel answers and counts alike at the scalar level (signature
/// bound by its per-bit loop) and at the dispatched one (by its survival
/// table where the CPU has fast `pext`): answers, distance bits and every
/// `QueryStats` counter, `rows_loaded` included. The level is read once
/// per process, so each side runs this test binary again with
/// `PLSH_SIMD` set for it.
#[test]
fn kernel_counters_do_not_depend_on_the_simd_level() {
    let exe = std::env::current_exe().expect("test binary path");
    let run = |level: Option<&str>| -> (String, Vec<String>) {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args([
            "--ignored",
            "--exact",
            "kernel_probe_at_this_simd_level",
            "--nocapture",
            "--test-threads=1",
        ]);
        match level {
            Some(level) => cmd.env("PLSH_SIMD", level),
            None => cmd.env_remove("PLSH_SIMD"),
        };
        let out = cmd.output().expect("run the probe");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(out.status.success(), "probe at {level:?} failed:\n{stdout}");
        let header = stdout
            .lines()
            .find(|l| l.starts_with("simd "))
            .expect("level line");
        let probe = stdout
            .lines()
            .filter_map(|l| l.strip_prefix("probe "))
            .map(str::to_owned)
            .collect();
        (header.to_owned(), probe)
    };
    let (scalar_level, scalar) = run(Some("scalar"));
    let (level, dispatched) = run(None);
    assert_eq!(scalar_level, "simd scalar pext false");
    assert!(scalar.len() > 1, "the probe printed no queries");
    assert_eq!(scalar.last().map(String::as_str), Some("tables 0"));
    if level.ends_with("pext true") {
        let last = dispatched.last().expect("tables line");
        assert_ne!(
            last, "tables 0",
            "the dispatched probe never took the table path"
        );
    }
    let (scalar, dispatched) = (
        &scalar[..scalar.len() - 1],
        &dispatched[..dispatched.len() - 1],
    );
    assert_eq!(scalar, dispatched, "scalar vs {level}");
}

/// `vs` as one epoch's segments under global ids `base..`: the first
/// `merged` rows in static tables, the rest in sealed generations cut at
/// each of `cuts` (clamped and sorted).
fn segments(
    vs: &[SparseVector],
    base: u32,
    merged: usize,
    cuts: &[usize],
    planes: &Hyperplanes,
    (m, half_bits): (u32, u32),
    pool: &ThreadPool,
) -> (CrsMatrix, Option<StaticTables>, Vec<Arc<DeltaGeneration>>) {
    let generation = |lo: usize, hi: usize| {
        let mut g = DeltaGeneration::new(base + lo as u32, DIM, m, half_bits);
        g.append(&vs[lo..hi], planes, pool).unwrap();
        Arc::new(g)
    };
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.clamp(merged, vs.len())).collect();
    bounds.extend([merged, vs.len()]);
    bounds.sort_unstable();
    bounds.dedup();
    let gens = bounds.windows(2).map(|w| generation(w[0], w[1])).collect();
    if merged == 0 {
        return (CrsMatrix::new(DIM), None, gens);
    }
    let head = generation(0, merged);
    let tables = StaticTables::merge_generations(
        None,
        m,
        half_bits,
        merged,
        std::slice::from_ref(&head),
        &[],
        base,
        base,
        pool,
    );
    (head.data().clone(), Some(tables), gens)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The shipped kernel answers every query exactly like
    /// `query::reference` — ids, distance bits and k-NN tie order — over a
    /// merged prefix, sealed generations, deletes and a retire cut, in
    /// radius, k-NN and k-NN-within-R mode, with and without a candidate
    /// budget, and it decides the same candidates. The reference loads
    /// the row of every candidate it decides; the kernel's signature bound
    /// may skip some, except in a plain k-NN query, which has no positive
    /// floor and so no bound, as the cost model assumes.
    #[test]
    fn optimized_answers_equal_the_bound_free_level(
        vs in proptest::collection::vec(sparse_vec_strategy(), 8..70),
        merged_pct in 0usize..101,
        cuts in proptest::collection::vec(0usize..70, 0..4),
        victims in proptest::collection::vec(0usize..70, 0..6),
        retired in 0usize..12,
        base in prop_oneof![Just(0u32), 1u32..5000],
        radius in 0.05f32..std::f32::consts::PI,
        k in 1usize..8,
        budget in 1usize..40,
    ) {
        let pool = ThreadPool::new(2);
        let (m, half_bits) = (5u32, 2u32);
        let planes = Hyperplanes::new_dense(DIM, m * half_bits, 21, &pool);
        let n = vs.len();
        let merged = n * merged_pct / 100;
        let (static_data, tables, gens) =
            segments(&vs, base, merged, &cuts, &planes, (m, half_bits), &pool);
        let deleted: Vec<AtomicU64> = (0..n.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        for v in &victims {
            let off = v % n;
            deleted[off / 64].fetch_or(1 << (off % 64), Ordering::Relaxed);
        }
        let epoch = QueryContext {
            static_data: &static_data,
            planes: &planes,
            static_tables: tables.as_ref(),
            deltas: &gens,
            deleted: Some(&deleted),
            m,
            half_bits,
            radius,
            base,
            retired_below: base + retired.min(n) as u32,
            max_candidates: usize::MAX,
            top_k: None,
        };
        prop_assert_eq!(epoch.num_points(), n);
        let queries: Vec<SparseVector> = vs.iter().step_by(3).cloned().collect();
        let pi = std::f32::consts::PI;
        let scratches = ScratchPool::new(m, half_bits, DIM);
        let mut scratch = QueryScratch::new(m, half_bits, n, DIM);
        for (radius, top_k) in [(radius, None), (pi, Some(k)), (radius, Some(k))] {
            for max_candidates in [usize::MAX, budget] {
                let ctx = QueryContext { radius, top_k, max_candidates, ..epoch };
                let exec = Exec::Pool(&pool, &scratches);
                let (batch, _) = query::run_batch(&ctx, &queries, exec, None);
                for (q, pooled) in queries.iter().zip(&batch) {
                    let (want, want_stats) = query::reference(&ctx, q);
                    let qs = std::slice::from_ref(q);
                    let (got, stats) = query::run_batch(&ctx, qs, Exec::Inline(&mut scratch), None);
                    let stats = stats.totals;
                    prop_assert_eq!(bits(&got[0]), bits(&want));
                    prop_assert_eq!(bits(pooled), bits(&want));
                    prop_assert_eq!(stats.collisions, want_stats.collisions);
                    prop_assert_eq!(stats.unique_candidates, want_stats.unique_candidates);
                    prop_assert_eq!(stats.distance_computations, want_stats.distance_computations);
                    prop_assert_eq!(stats.matches, want_stats.matches);
                    prop_assert_eq!(want_stats.rows_loaded, want_stats.distance_computations);
                    prop_assert!(stats.rows_loaded <= stats.distance_computations);
                    if radius == pi {
                        prop_assert_eq!(stats.rows_loaded, stats.distance_computations);
                    }
                }
            }
        }
    }
}

/// What a brute-force pass decides for one query: its answer as ids and
/// distance bits, and the counters the kernel reports.
#[derive(Debug, PartialEq)]
struct OracleAnswer {
    hits: Vec<(u32, u32)>,
    collisions: u64,
    unique_candidates: u64,
    distance_computations: u64,
    matches: u64,
}

/// A brute-force oracle over the rows themselves, sharing no code with the
/// query kernel's gather, dedup or drop test. Row `i` of `rows` is global
/// id `base + i`; `row_keys[i]` are its `L` table keys, from hashing the
/// row again with the index's planes; `dropped[i]` says whether the op
/// sequence retired or deleted it. A row is a candidate when it shares a
/// key with the query in some table. Candidates are visited in ascending
/// id order, the first `max_candidates` of them, and every one not dropped
/// gets an exact merge-join distance.
#[allow(clippy::too_many_arguments)]
fn oracle(
    rows: &[SparseVector],
    row_keys: &[Vec<u32>],
    dropped: &[bool],
    base: u32,
    query_keys: &[u32],
    query: &SparseVector,
    (radius, top_k, max_candidates): (f32, Option<usize>, usize),
) -> OracleAnswer {
    let shared = |keys: &Vec<u32>| keys.iter().zip(query_keys).filter(|(a, b)| a == b).count();
    let collisions = row_keys.iter().map(|k| shared(k) as u64).sum();
    let candidates: Vec<usize> = (0..rows.len())
        .filter(|&i| shared(&row_keys[i]) > 0)
        .collect();
    let mut decided = 0;
    let mut hits = Vec::new();
    for &i in candidates.iter().take(max_candidates) {
        if dropped[i] {
            continue;
        }
        decided += 1;
        let (a, b) = (rows[i].indices(), query.indices());
        let (av, bv) = (rows[i].values(), query.values());
        let (mut x, mut y, mut dot) = (0, 0, 0.0f32);
        while x < a.len() && y < b.len() {
            match a[x].cmp(&b[y]) {
                std::cmp::Ordering::Less => x += 1,
                std::cmp::Ordering::Greater => y += 1,
                std::cmp::Ordering::Equal => {
                    dot += av[x] * bv[y];
                    x += 1;
                    y += 1;
                }
            }
        }
        let distance = dot.clamp(-1.0, 1.0).acos();
        if distance <= radius {
            hits.push((base + i as u32, distance));
        }
    }
    if let Some(k) = top_k {
        hits.sort_by(|p, q| p.1.total_cmp(&q.1).then(p.0.cmp(&q.0)));
        hits.truncate(k);
    }
    OracleAnswer {
        matches: hits.len() as u64,
        hits: hits.into_iter().map(|(id, d)| (id, d.to_bits())).collect(),
        collisions,
        unique_candidates: candidates.len() as u64,
        distance_computations: decided,
    }
}

/// Row or query `v`'s `L` table keys under `planes`.
fn table_keys_of(v: &SparseVector, planes: &Hyperplanes, (m, half_bits): (u32, u32)) -> Vec<u32> {
    let mut acc = vec![0.0; planes.n_hashes() as usize];
    let mut sketch = vec![0; m as usize];
    SketchMatrix::sketch_one(
        planes,
        half_bits,
        v.indices(),
        v.values(),
        &mut acc,
        &mut sketch,
    );
    let mut keys = vec![0; allpairs::num_tables(m) as usize];
    allpairs::table_keys(&sketch, half_bits, &mut keys);
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The shipped kernel answers every query exactly like the
    /// brute-force [`oracle`] — ids, distance bits, k-NN tie order and
    /// every counter but `rows_loaded` — over a merged prefix, sealed
    /// generations, deletes and a retire cut, in radius, k-NN and
    /// k-NN-within-R mode, with and without a candidate budget. Unlike
    /// `query::reference`, the oracle takes which ids are retired or
    /// deleted from the generated ops, not from the engine's filter.
    #[test]
    fn kernel_equals_a_brute_force_oracle(
        vs in proptest::collection::vec(sparse_vec_strategy(), 8..70),
        merged_pct in 0usize..101,
        cuts in proptest::collection::vec(0usize..70, 0..4),
        victims in proptest::collection::vec(0usize..70, 0..6),
        retired in 0usize..12,
        base in prop_oneof![Just(0u32), 1u32..5000],
        radius in 0.05f32..std::f32::consts::PI,
        k in 1usize..8,
        budget in 1usize..40,
    ) {
        let pool = ThreadPool::new(2);
        let shape = (5u32, 2u32);
        let planes = Hyperplanes::new_dense(DIM, shape.0 * shape.1, 21, &pool);
        let n = vs.len();
        let (static_data, tables, gens) =
            segments(&vs, base, n * merged_pct / 100, &cuts, &planes, shape, &pool);
        let mut dropped: Vec<bool> = (0..n).map(|i| i < retired).collect();
        let deleted: Vec<AtomicU64> = (0..n.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        for v in &victims {
            dropped[v % n] = true;
            deleted[v % n / 64].fetch_or(1 << (v % n % 64), Ordering::Relaxed);
        }
        let row_keys: Vec<Vec<u32>> = vs.iter().map(|v| table_keys_of(v, &planes, shape)).collect();
        let epoch = QueryContext {
            static_data: &static_data,
            planes: &planes,
            static_tables: tables.as_ref(),
            deltas: &gens,
            deleted: Some(&deleted),
            m: shape.0,
            half_bits: shape.1,
            radius,
            base,
            retired_below: base + retired.min(n) as u32,
            max_candidates: usize::MAX,
            top_k: None,
        };
        let queries: Vec<SparseVector> = vs.iter().step_by(3).cloned().collect();
        let pi = std::f32::consts::PI;
        let scratches = ScratchPool::new(shape.0, shape.1, DIM);
        let mut scratch = QueryScratch::new(shape.0, shape.1, n, DIM);
        for (radius, top_k) in [(radius, None), (pi, Some(k)), (radius, Some(k))] {
            for max_candidates in [usize::MAX, budget] {
                let ctx = QueryContext { radius, top_k, max_candidates, ..epoch };
                let exec = Exec::Pool(&pool, &scratches);
                let (batch, _) = query::run_batch(&ctx, &queries, exec, None);
                for (q, pooled) in queries.iter().zip(&batch) {
                    let qkeys = table_keys_of(q, &planes, shape);
                    let mode = (radius, top_k, max_candidates);
                    let want = oracle(&vs, &row_keys, &dropped, base, &qkeys, q, mode);
                    let qs = std::slice::from_ref(q);
                    let (got, stats) = query::run_batch(&ctx, qs, Exec::Inline(&mut scratch), None);
                    let got = OracleAnswer {
                        hits: bits(&got[0]),
                        collisions: stats.totals.collisions,
                        unique_candidates: stats.totals.unique_candidates,
                        distance_computations: stats.totals.distance_computations,
                        matches: stats.totals.matches,
                    };
                    prop_assert_eq!(&got, &want);
                    prop_assert_eq!(bits(pooled), want.hits);
                }
            }
        }
    }
}

/// Ids and distance bits, in order: what "bit-identical" compares.
fn bits(hits: &[Neighbor]) -> Vec<(u32, u32)> {
    hits.iter()
        .map(|h| (h.index, h.distance.to_bits()))
        .collect()
}
