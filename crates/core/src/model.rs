//! The hardware-centric analytic performance model (paper Section 7.1).
//!
//! The model prices the two dominant query steps and the four construction
//! steps in CPU cycles, from first principles:
//!
//! * **Q2** (dedup) is compute-bound: ~14 ops per duplicated index
//!   (the paper's 11 — word address, load, test, set, loop — plus an
//!   unconditional append and a conditional length bump, with no branch)
//!   spread over `T` threads. The paper adds a bitvector scan of ~14 ops
//!   per 32 bits of `N` to extract the sorted candidate array; Q3 here
//!   walks the dedup set's candidate list instead, so Q2 has no `N` term.
//! * **Q3** (filtering) is bandwidth-bound: each candidate's signature
//!   probe is charged one cache line, and each loaded CRS row ~4 (two
//!   ~30-byte unaligned arrays ⇒ 1.5 lines each, plus one offsets line)
//!   = 256 bytes of traffic. A radius query below π/2 loads only the rows
//!   its signature bound keeps (`query::SignatureBound`); a plain k-NN
//!   query loads every row, as the paper's kernel does.
//! * **Hashing** is compute-bound: ~11 ops per (non-zero × hash function),
//!   over `T` threads and SIMD width `S`.
//! * **Insertion** (I1–I3) is bandwidth-bound: 24 bytes per point per
//!   first-level partition and 16 bytes per point per table for each of
//!   steps I2 and I3.
//!
//! On the paper's Xeon E5-2670 (2.6 GHz, 32 GB/s ⇒ 12.3 bytes/cycle,
//! T = 16, S = 8) these constants reproduce the numbers quoted in
//! Section 7.1 (e.g. `T_Q3` ≈ 21 cycles/candidate, construction ≈ 2 520
//! cycles/tweet); the same formulas evaluated with a calibrated
//! [`MachineProfile`] predict this implementation on this machine, which
//! is what Figures 6 and 7 compare.

use std::time::{Duration, Instant};

use plsh_parallel::ThreadPool;

use crate::params::{CostWeights, PlshParams};
use crate::query;

/// Description of the executing machine.
#[derive(Debug, Clone, Copy)]
pub struct MachineProfile {
    /// Core clock in Hz (used to convert modeled cycles to seconds).
    pub freq_hz: f64,
    /// Achieved memory bandwidth in bytes per cycle (paper: 12.3).
    pub bytes_per_cycle: f64,
    /// Hardware threads used (`T`).
    pub threads: usize,
    /// SIMD lanes for f32 (`S`; AVX = 8).
    pub simd_width: usize,
}

impl MachineProfile {
    /// The paper's evaluation machine: Intel Xeon E5-2670, 2.6 GHz,
    /// 32 GB/s, 8 cores × 2 SMT, AVX.
    pub fn paper() -> Self {
        Self {
            freq_hz: 2.6e9,
            bytes_per_cycle: 12.3,
            threads: 16,
            simd_width: 8,
        }
    }

    /// Measures this machine: times a dependent integer-add chain to
    /// estimate the *effective* clock (1 add retires per cycle on every
    /// relevant microarchitecture, and the dependency chain defeats
    /// superscalar overlap), then streams over a large buffer to estimate
    /// achieved bandwidth in bytes per effective cycle.
    ///
    /// Hardware cycle counters are not portably readable from user space,
    /// and on shared/throttled vCPUs the nameplate clock (`fallback_hz`,
    /// used only if the measurement is implausible) can be far from what a
    /// cycle of work actually costs — which is what the model needs.
    pub fn calibrate(pool: &ThreadPool, fallback_hz: f64) -> Self {
        let freq_hz = {
            let f = measure_effective_frequency();
            if (5e8..1e10).contains(&f) {
                f
            } else {
                fallback_hz
            }
        };
        let bytes_per_sec = measure_bandwidth();
        Self {
            freq_hz,
            bytes_per_cycle: (bytes_per_sec / freq_hz).max(0.5),
            threads: pool.num_threads(),
            simd_width: 8,
        }
    }

    /// Converts modeled cycles to wall time.
    pub fn cycles_to_duration(&self, cycles: f64) -> Duration {
        Duration::from_secs_f64((cycles / self.freq_hz).max(0.0))
    }
}

/// Times a dependency chain of integer adds; the add throughput in ops/s
/// approximates the effective core clock in Hz (1 cycle per dependent add).
fn measure_effective_frequency() -> f64 {
    const CHAIN: u64 = 200_000_000;
    let mut best = 0.0f64;
    for trial in 0..3u64 {
        let start = Instant::now();
        let mut x = 0x9E3779B97F4A7C15u64.wrapping_add(trial);
        let mut i = 0u64;
        while i < CHAIN {
            // Eight dependent adds per iteration amortize the loop branch.
            x = x.wrapping_add(1);
            x = x.wrapping_add(3);
            x = x.wrapping_add(5);
            x = x.wrapping_add(7);
            x = x.wrapping_add(11);
            x = x.wrapping_add(13);
            x = x.wrapping_add(17);
            x = x.wrapping_add(19);
            i += 8;
        }
        std::hint::black_box(x);
        let secs = start.elapsed().as_secs_f64();
        best = best.max(CHAIN as f64 / secs);
    }
    best
}

/// Streams a 64 MB buffer and returns achieved read bandwidth in bytes/s.
fn measure_bandwidth() -> f64 {
    const WORDS: usize = 8 << 20; // 64 MB of u64
    let buf: Vec<u64> = (0..WORDS as u64).collect();
    let mut best = 0.0f64;
    for _ in 0..3 {
        let start = Instant::now();
        let mut acc = 0u64;
        for &w in &buf {
            acc = acc.wrapping_add(w);
        }
        std::hint::black_box(acc);
        let secs = start.elapsed().as_secs_f64();
        best = best.max((WORDS * 8) as f64 / secs);
    }
    best
}

/// Modeled creation-time breakdown (the left panel of Figure 6).
#[derive(Debug, Clone, Copy)]
pub struct CreationEstimate {
    /// Hashing all points (Section 5.1.1).
    pub hashing: Duration,
    /// Step I1: first-level partitions (m passes).
    pub step_i1: Duration,
    /// Step I2: second-level key permutation (L passes).
    pub step_i2: Duration,
    /// Step I3: second-level partitions (L passes).
    pub step_i3: Duration,
}

impl CreationEstimate {
    /// Total modeled creation time.
    pub fn total(&self) -> Duration {
        self.hashing + self.step_i1 + self.step_i2 + self.step_i3
    }
}

/// Modeled query-time breakdown for a batch (the right panel of Figure 6).
#[derive(Debug, Clone, Copy)]
pub struct QueryEstimate {
    /// Step Q2: bucket reads + bitvector dedup.
    pub step_q2: Duration,
    /// Step Q3: candidate loads + sparse dot products.
    pub step_q3: Duration,
}

impl QueryEstimate {
    /// Total modeled query time.
    pub fn total(&self) -> Duration {
        self.step_q2 + self.step_q3
    }
}

/// The analytic model: machine profile + the paper's per-operation costs.
#[derive(Debug, Clone, Copy)]
pub struct PerformanceModel {
    /// Machine constants used by every formula.
    pub machine: MachineProfile,
}

/// Instruction budgets of this implementation's kernels, counted from the
/// inner loops (the analogue of the paper's "11 ops per index" audits).
///
/// Each step is charged `max(bandwidth term, compute term)`: at the paper's
/// 10 M-point scale the table arrays spill far beyond cache and the
/// bandwidth terms dominate (reproducing the paper's constants exactly, see
/// the tests); at the scaled-down sizes used in this repo the structures
/// are cache-resident and the op-count terms take over.
mod ops {
    /// Step Q2, per duplicated index, in `CandidateSet::insert_run`'s
    /// branch-free loop: id load and loop step (~3 ops), word address and
    /// bit (~4), word load, OR and store (~3), unconditional list store
    /// (~1), and the length bump by the old bit's test (~3). It takes no
    /// data-dependent branch, so no mispredict is priced; traced
    /// `batch_static` (seeds 41–43, 2-vCPU Xeon) measures ~15 cycles per
    /// collision on one thread.
    pub const Q2_PER_COLLISION: f64 = 14.0;
    /// Step Q3, per candidate, the signature probe in the first pass's
    /// survival-table loop: id load, loop step and signature prefetch
    /// (~6 ops), retirement and deletion tests (~7), segment compare and
    /// signature load (~3), `pext`, table-word load and bit test (~5),
    /// the all-ones guard (~2), and the unconditional survivor store with
    /// its two counter bumps (~3). No branch depends on the candidate.
    pub const Q3_PER_PROBE: f64 = 26.0;
    /// Step Q3, traffic charged per signature probe: one cache line. A
    /// probe is one random 8-byte load, whose line no other candidate
    /// shares. (The per-bit loop's mispredicts once made the pass cost
    /// about two lines' worth, and this was calibrated to that; the
    /// survival table took them out.)
    pub const Q3_PROBE_BYTES: f64 = 64.0;
    /// Step Q3, the share of probed candidates whose row the signature
    /// bound cannot rule out, when it is on (a positive dot floor).
    /// Measured on the benchmark's `batch_static` corpus (seeds 5 and 6:
    /// 61 rows loaded of 768 candidates per query).
    pub const Q3_SURVIVOR_SHARE: f64 = 0.08;
    /// Step Q3, per loaded row, beyond the per-non-zero work: offsets
    /// lookup, prefilter compare, loop overhead. The exact dot and `acos`
    /// run only for the few candidates the prefilter keeps (radius hits,
    /// or contenders for a k-NN query's running top-k), so radius and
    /// k-NN queries cost the same per row.
    pub const Q3_PER_CANDIDATE: f64 = 30.0;
    /// Step Q3, per non-zero of the candidate row: mask word load, bit
    /// test, multiply-add on a hit.
    pub const Q3_PER_NONZERO: f64 = 6.0;
    /// Hashing, per (non-zero × hash function), before SIMD (paper's 11).
    pub const HASH_PER_ELEM: f64 = 11.0;
    /// Step I1, per point per first-level function: histogram pass + key
    /// recomputation + scatter pass.
    pub const I1_PER_POINT_FN: f64 = 8.0;
    /// Step I2, per point per table: permuted gather + store.
    pub const I2_PER_POINT_TABLE: f64 = 6.0;
    /// Step I3, per point per table: counting-sort histogram + scatter.
    pub const I3_PER_POINT_TABLE: f64 = 8.0;
}

impl PerformanceModel {
    /// Builds a model for the given machine.
    pub fn new(machine: MachineProfile) -> Self {
        Self { machine }
    }

    /// `T_Q2` — cycles per duplicated index (compute-bound, threaded).
    pub fn t_q2_cycles(&self) -> f64 {
        ops::Q2_PER_COLLISION / self.machine.threads as f64
    }

    /// Cycles one query spends scanning an un-merged delta of `points`
    /// points: the scan streams the packed half-key column once (`m` lanes
    /// per point, one byte each when `half_bits ≤ 8`, else two) and is
    /// bandwidth-bound, so it costs column bytes ÷ `bytes_per_cycle`.
    /// Linear in `points` where static tables cost `O(L + collisions)` —
    /// the crossover between the two is what sizes a folded delta tier.
    pub fn delta_scan_cycles(&self, points: usize, m: u32, half_bits: u32) -> f64 {
        let lane_bytes = if half_bits <= 8 { 1.0 } else { 2.0 };
        points as f64 * m as f64 * lane_bytes / self.machine.bytes_per_cycle
    }

    /// `T_Q3` — cycles per unique candidate of a query of angular radius
    /// `radius`: one signature probe, plus a loaded row
    /// ([`t_q3_row_cycles`](Self::t_q3_row_cycles)) for the share of
    /// candidates the signature bound keeps. The bound needs a positive
    /// dot floor, so from a radius of about π/2 up, and for a plain k-NN
    /// query (radius π), every candidate loads its row.
    pub fn t_q3_cycles(&self, nnz: f64, radius: f64) -> f64 {
        let share = if query::dot_floor(radius as f32) > 0.0 {
            ops::Q3_SURVIVOR_SHARE
        } else {
            1.0
        };
        self.q3_cycles(nnz, share)
    }

    /// Cycles per unique candidate when a `share` of them load their row.
    fn q3_cycles(&self, nnz: f64, share: f64) -> f64 {
        let bandwidth = ops::Q3_PROBE_BYTES / self.machine.bytes_per_cycle;
        let compute = ops::Q3_PER_PROBE / self.machine.threads as f64;
        bandwidth.max(compute) + share * self.t_q3_row_cycles(nnz)
    }

    /// Cycles per loaded row: the larger of the bandwidth cost (~4 cache
    /// lines = 256 bytes, the paper's 21.8 cycles per unique candidate at
    /// 12.3 bytes/cycle, its kernel loading every row) and the sparse-dot
    /// compute cost for a row of `nnz` non-zeros.
    pub fn t_q3_row_cycles(&self, nnz: f64) -> f64 {
        let bandwidth = 256.0 / self.machine.bytes_per_cycle + 1.0;
        let compute =
            (ops::Q3_PER_CANDIDATE + ops::Q3_PER_NONZERO * nnz) / self.machine.threads as f64;
        bandwidth.max(compute)
    }

    /// Cost weights for parameter selection (Section 7.3), for data of mean
    /// sparsity `nnz` queried at angular `radius`.
    pub fn cost_weights(&self, nnz: f64, radius: f64) -> CostWeights {
        CostWeights {
            cycles_per_collision: self.t_q2_cycles(),
            cycles_per_unique: self.t_q3_cycles(nnz, radius),
        }
    }

    /// `T_H` — hashing cycles per point: 11 ops per non-zero per hash
    /// function, over threads and SIMD lanes.
    pub fn hashing_cycles_per_point(&self, nnz: f64, params: &PlshParams) -> f64 {
        let hashes = params.num_hashes() as f64;
        ops::HASH_PER_ELEM * nnz * hashes
            / (self.machine.threads as f64 * self.machine.simd_width as f64)
    }

    /// `T_I1` — first-level partition cycles per point: 24 bytes of
    /// traffic per point per first-level hash function, floored by the
    /// per-item op count when the partitions are cache-resident.
    pub fn i1_cycles_per_point(&self, params: &PlshParams) -> f64 {
        let m = params.m() as f64;
        let bandwidth = 24.0 * m / self.machine.bytes_per_cycle;
        let compute = ops::I1_PER_POINT_FN * m / self.machine.threads as f64;
        bandwidth.max(compute)
    }

    /// `T_I2` — second-level key permutation: 16 bytes per point per
    /// table, floored by the gather/store op count.
    pub fn i2_cycles_per_point(&self, params: &PlshParams) -> f64 {
        let l = params.l() as f64;
        let bandwidth = 16.0 * l / self.machine.bytes_per_cycle;
        let compute = ops::I2_PER_POINT_TABLE * l / self.machine.threads as f64;
        bandwidth.max(compute)
    }

    /// `T_I3` — second-level partition: 16 bytes per point per table,
    /// floored by the counting-sort op count.
    pub fn i3_cycles_per_point(&self, params: &PlshParams) -> f64 {
        let l = params.l() as f64;
        let bandwidth = 16.0 * l / self.machine.bytes_per_cycle;
        let compute = ops::I3_PER_POINT_TABLE * l / self.machine.threads as f64;
        bandwidth.max(compute)
    }

    /// Models full static construction over `n` points of mean sparsity
    /// `nnz`.
    pub fn predict_creation(&self, n: usize, nnz: f64, params: &PlshParams) -> CreationEstimate {
        let nf = n as f64;
        let c = &self.machine;
        CreationEstimate {
            hashing: c.cycles_to_duration(self.hashing_cycles_per_point(nnz, params) * nf),
            step_i1: c.cycles_to_duration(self.i1_cycles_per_point(params) * nf),
            step_i2: c.cycles_to_duration(self.i2_cycles_per_point(params) * nf),
            step_i3: c.cycles_to_duration(self.i3_cycles_per_point(params) * nf),
        }
    }

    /// Models a batch of `queries` over points of mean sparsity `nnz`,
    /// given the expected per-query `#collisions` and `#unique` (from
    /// [`crate::params::estimate_candidates`] or measured counters).
    ///
    /// The batch is priced as radius queries below π/2, where Q3's
    /// signature bound is on: the Figure 6 and 7 batches. A k-NN batch
    /// loads every row; price its candidates with
    /// [`t_q3_cycles`](Self::t_q3_cycles) at radius π.
    ///
    /// The corpus size `_n` is accepted but unused: no step costs anything
    /// per resident point, so the size acts only through the expected
    /// counts.
    pub fn predict_query_batch(
        &self,
        queries: usize,
        _n: usize,
        nnz: f64,
        e_collisions: f64,
        e_unique: f64,
    ) -> QueryEstimate {
        let qf = queries as f64;
        let q2 = self.t_q2_cycles() * e_collisions * qf;
        let q3 = self.q3_cycles(nnz, ops::Q3_SURVIVOR_SHARE) * e_unique * qf;
        QueryEstimate {
            step_q2: self.machine.cycles_to_duration(q2),
            step_q3: self.machine.cycles_to_duration(q3),
        }
    }

    /// Models one query batch fanned out over `shards` shard-local engines
    /// (the `ShardedIndex` execution shape): each shard task runs
    /// single-threaded, the `shards` tasks are scheduled in waves of
    /// `machine.threads`, and every shard re-hashes the query batch (Q1 is
    /// per node in the paper's broadcast too, Section 4) before probing its
    /// slice of the corpus. No step costs anything per resident point, so
    /// the corpus size enters only through the expected counts.
    ///
    /// Collisions and unique candidates split evenly across shards (hash
    /// routing is uniform), so the Q2/Q3 *work* is constant in `shards` and
    /// the prediction trades Q1 duplication plus per-shard fan-out overhead
    /// against wave parallelism — exactly the tension
    /// [`pick_shard_count`](Self::pick_shard_count) minimizes.
    pub fn predict_sharded_query_batch(
        &self,
        queries: usize,
        nnz: f64,
        e_collisions: f64,
        e_unique: f64,
        params: &PlshParams,
        shards: usize,
    ) -> Duration {
        let shards = shards.max(1);
        let qf = queries as f64;
        let sf = shards as f64;
        // Per-shard, single-threaded model: the fan-out pool parallelizes
        // across shards, not within one.
        let mut one = self.machine;
        one.threads = 1;
        let per = PerformanceModel::new(one);
        // Q1 duplicated per shard; hashing_cycles_per_point already divides
        // by SIMD width.
        let q1 = per.hashing_cycles_per_point(nnz, params) * qf;
        let q2 = per.t_q2_cycles() * e_collisions / sf * qf;
        let q3 = per.t_q3_cycles(nnz, params.radius()) * e_unique / sf * qf;
        let per_shard = q1 + q2 + q3 + SHARD_FANOUT_OVERHEAD_CYCLES;
        let waves = shards.div_ceil(self.machine.threads.max(1)) as f64;
        self.machine.cycles_to_duration(per_shard * waves)
    }

    /// Section-7-style shard-count selection: the shard count in
    /// `1..=max_shards` whose [`predict_sharded_query_batch`](Self::predict_sharded_query_batch)
    /// time is minimal for this machine profile. Ties resolve to the
    /// smallest count (fewer shards means less Q1 duplication and less
    /// merge bookkeeping for the same predicted latency).
    pub fn pick_shard_count(
        &self,
        queries: usize,
        nnz: f64,
        e_collisions: f64,
        e_unique: f64,
        params: &PlshParams,
        max_shards: usize,
    ) -> usize {
        let mut best = (1usize, Duration::MAX);
        for s in 1..=max_shards.max(1) {
            let t =
                self.predict_sharded_query_batch(queries, nnz, e_collisions, e_unique, params, s);
            if t < best.1 {
                best = (s, t);
            }
        }
        best.0
    }
}

/// Fixed per-shard fan-out cost per batch (task dispatch, scratch checkout,
/// response translation), in cycles. Small against any real batch, but it
/// keeps the predicted optimum finite when Q2/Q3 vanish.
const SHARD_FANOUT_OVERHEAD_CYCLES: f64 = 20_000.0;

/// Relative error `|actual − estimate| / actual`, the Figure 6 metric.
pub fn relative_error(estimate: Duration, actual: Duration) -> f64 {
    let a = actual.as_secs_f64();
    if a == 0.0 {
        return 0.0;
    }
    (estimate.as_secs_f64() - a).abs() / a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_params() -> PlshParams {
        PlshParams::builder(500_000)
            .k(16)
            .m(40)
            .radius(0.9)
            .delta(0.1)
            .build()
            .unwrap()
    }

    #[test]
    fn paper_machine_reproduces_paper_constants() {
        let model = PerformanceModel::new(MachineProfile::paper());
        // The paper audits its C++ kernel at 11 ops per duplicated index
        // (1.4 cycles on 8 cores); our Rust kernel also appends to the
        // candidate list, branch-free, auditing at ~14 ops.
        let mut eight = MachineProfile::paper();
        eight.threads = 8;
        let m8 = PerformanceModel::new(eight);
        assert!((m8.t_q2_cycles() - 14.0 / 8.0).abs() < 0.01);
        // A row costs 256/12.3 + 1 ≈ 21.8 cycles (paper: "21.8
        // cycles/unique", its kernel loading every row) — bandwidth-
        // dominated at paper scale, so the compute floor for NNZ = 7.2
        // must not kick in.
        let row = model.t_q3_row_cycles(7.2);
        assert!((row - 21.8).abs() < 0.3);
        // With the signature bound off (a k-NN query, a radius from π/2
        // up) a candidate costs its probe and its whole row; at the
        // paper's radius only the survivors' share of a row.
        let probe = 64.0 / 12.3;
        let knn = model.t_q3_cycles(7.2, std::f64::consts::PI);
        assert!((knn - (probe + row)).abs() < 1e-9);
        assert_eq!(model.t_q3_cycles(7.2, std::f64::consts::FRAC_PI_2), knn);
        let bounded = model.t_q3_cycles(7.2, 0.9);
        assert!(bounded < knn / 2.0 && bounded > probe);
    }

    #[test]
    fn delta_scan_is_column_bytes_over_bandwidth() {
        let model = PerformanceModel::new(MachineProfile::paper());
        // The paper's delta cap (η·C ≈ 1M points) at k = 16, m = 40: a
        // 40 MB column per query at 12.3 B/cycle — the scale at which the
        // scan tier must hand over to a static-layout tier.
        let cycles = model.delta_scan_cycles(1_000_000, 40, 8);
        assert!((cycles - 40e6 / 12.3).abs() < 1.0);
        // Two-byte lanes past k/2 = 8; linear in points and in m.
        assert_eq!(model.delta_scan_cycles(1_000_000, 40, 9), 2.0 * cycles);
        assert_eq!(model.delta_scan_cycles(500_000, 20, 8), cycles / 4.0);
        assert_eq!(model.delta_scan_cycles(0, 40, 8), 0.0);
    }

    #[test]
    fn paper_creation_cycle_budget() {
        // Section 7.1.2: hashing ≈ 412 cycles/tweet, I1 ≈ 78, I2 = I3 ≈
        // 1015, total ≈ 2520 cycles/tweet for k=16, m=40, NNZ=7.2.
        let mut machine = MachineProfile::paper();
        machine.threads = 8; // the paper's arithmetic uses 8 cores
        let model = PerformanceModel::new(machine);
        let p = paper_params();
        let th = model.hashing_cycles_per_point(7.2, &p);
        assert!((th - 412.0).abs() / 412.0 < 0.05, "hashing {th}");
        let i1 = model.i1_cycles_per_point(&p);
        assert!((i1 - 78.0).abs() / 78.0 < 0.05, "I1 {i1}");
        let i2 = model.i2_cycles_per_point(&p);
        assert!((i2 - 1015.0).abs() / 1015.0 < 0.05, "I2 {i2}");
        let total = th + i1 + i2 + model.i3_cycles_per_point(&p);
        assert!((total - 2520.0).abs() / 2520.0 < 0.05, "total {total}");
    }

    #[test]
    fn estimates_scale_linearly_in_n() {
        let model = PerformanceModel::new(MachineProfile::paper());
        let p = paper_params();
        let one = model.predict_creation(100_000, 7.2, &p);
        let two = model.predict_creation(200_000, 7.2, &p);
        let r = two.total().as_secs_f64() / one.total().as_secs_f64();
        assert!((r - 2.0).abs() < 1e-6);
    }

    #[test]
    fn query_estimate_components() {
        let model = PerformanceModel::new(MachineProfile::paper());
        let est = model.predict_query_batch(1000, 10_000_000, 7.2, 120_000.0, 60_000.0);
        assert!(est.step_q2 > Duration::ZERO);
        assert!(est.step_q3 > Duration::ZERO);
        assert_eq!(est.total(), est.step_q2 + est.step_q3);
        // Doubling unique candidates only moves Q3.
        let est2 = model.predict_query_batch(1000, 10_000_000, 7.2, 120_000.0, 120_000.0);
        assert_eq!(est.step_q2, est2.step_q2);
        assert!(est2.step_q3 > est.step_q3);
        // No step scans the resident span: a larger corpus with the same
        // per-query counts predicts the same batch.
        let big = model.predict_query_batch(1000, 1_000_000_000, 7.2, 120_000.0, 60_000.0);
        assert_eq!(big.total(), est.total());
    }

    #[test]
    fn more_threads_speed_up_compute_terms_only() {
        let mut m1 = MachineProfile::paper();
        m1.threads = 1;
        let mut m8 = MachineProfile::paper();
        m8.threads = 8;
        let one = PerformanceModel::new(m1);
        let eight = PerformanceModel::new(m8);
        assert!(one.t_q2_cycles() > eight.t_q2_cycles());
        // With many threads Q3 is bandwidth-bound and thread-invariant
        // (a probe's 26 ops over 8 threads stay under its 64-byte line
        // at 12.3 B/cycle)…
        let sixteen = PerformanceModel::new(MachineProfile::paper());
        assert_eq!(sixteen.t_q3_cycles(7.2, 0.9), eight.t_q3_cycles(7.2, 0.9));
        // …but on fewer threads the compute floor can dominate.
        assert!(one.t_q3_cycles(7.2, 0.9) >= eight.t_q3_cycles(7.2, 0.9));
    }

    #[test]
    fn sharded_prediction_prefers_parallel_fanout_on_many_threads() {
        let model = PerformanceModel::new(MachineProfile::paper()); // 16 threads
        let p = paper_params();
        let one = model.predict_sharded_query_batch(1000, 7.2, 120_000.0, 60_000.0, &p, 1);
        let eight = model.predict_sharded_query_batch(1000, 7.2, 120_000.0, 60_000.0, &p, 8);
        assert!(eight < one, "8 shards on 16 threads must beat 1 shard");
        let picked = model.pick_shard_count(1000, 7.2, 120_000.0, 60_000.0, &p, 16);
        assert!(
            picked > 1,
            "a 16-thread machine wants fan-out, got {picked}"
        );
        assert!(picked <= 16);
    }

    #[test]
    fn sharded_prediction_on_one_thread_avoids_wide_fanout() {
        let mut machine = MachineProfile::paper();
        machine.threads = 1;
        let model = PerformanceModel::new(machine);
        let p = paper_params();
        // One thread: every extra shard re-runs Q1 serially, so the picked
        // count must stay small.
        let picked = model.pick_shard_count(1000, 7.2, 12_000.0, 6_000.0, &p, 16);
        assert_eq!(picked, 1, "serial machine must not fan out");
    }

    #[test]
    fn sharded_prediction_waves_penalize_oversubscription() {
        let mut machine = MachineProfile::paper();
        machine.threads = 4;
        let model = PerformanceModel::new(machine);
        let p = paper_params();
        let four = model.predict_sharded_query_batch(100, 7.2, 12_000.0, 6_000.0, &p, 4);
        let five = model.predict_sharded_query_batch(100, 7.2, 12_000.0, 6_000.0, &p, 5);
        // A fifth shard forces a second wave on four threads.
        assert!(five > four);
    }

    #[test]
    fn relative_error_basics() {
        let e = Duration::from_millis(80);
        let a = Duration::from_millis(100);
        assert!((relative_error(e, a) - 0.2).abs() < 1e-9);
        assert_eq!(relative_error(e, Duration::ZERO), 0.0);
    }

    #[test]
    fn calibration_produces_sane_profile() {
        let pool = ThreadPool::new(1);
        let m = MachineProfile::calibrate(&pool, 2.6e9);
        assert!(m.bytes_per_cycle >= 0.5, "{}", m.bytes_per_cycle);
        assert!(m.bytes_per_cycle < 200.0);
        assert_eq!(m.threads, 1);
    }

    #[test]
    fn cycles_to_duration_roundtrip() {
        let m = MachineProfile::paper();
        let d = m.cycles_to_duration(2.6e9);
        assert!((d.as_secs_f64() - 1.0).abs() < 1e-9);
    }
}
