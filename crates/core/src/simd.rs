//! Runtime-dispatched SIMD kernels for the query-side hot loops.
//!
//! The paper's throughput numbers (Sections 5.1.1 and 5.2) assume the
//! hashing kernel is an explicitly vectorized sparse × dense product and the
//! candidate filter is memory-bound rather than compute-bound. This module
//! provides those kernels with **runtime** CPU dispatch — no `RUSTFLAGS` or
//! `target-cpu` required: [`level`] probes the CPU once (via
//! `is_x86_feature_detected!`) and every kernel picks the widest available
//! implementation.
//!
//! The third kernel, [`scan_half_keys`], answers the un-merged delta: one
//! streaming compare over a generation's packed half-key column decides
//! which of its points share a bucket with the query in *some* table. It
//! is integer-only, so every level returns exactly the scalar result.
//!
//! All hashing kernels preserve a strict contract: **for every hash lane
//! `j`, partial products are accumulated in ascending non-zero order with a
//! separate multiply and add (no FMA)**. IEEE-754 multiplication and
//! addition are deterministic, so the AVX2, SSE2, register-blocked, and
//! plain scalar kernels return *bit-identical* accumulators, and sketches
//! hashed by any path (bulk append, single query, batched query) agree
//! exactly. The dot-product kernel keeps independent per-lane partial sums
//! and reduces them in a fixed tree order, so it is deterministic but may
//! differ from the scalar sum by normal floating-point reassociation (the
//! property tests bound the difference).
//!
//! Dispatch can be forced with `PLSH_SIMD=scalar|sse2|avx2` (useful for the
//! kernel ablation and for exercising the portable path on x86 hardware);
//! requesting a level the CPU cannot run falls back to the widest safe one.
//!
//! The AVX2 level also gates BMI2's `pext` ([`has_fast_pext`]): Q3's
//! first pass reads a query's signature survival table with it
//! (`query::SignatureBound`). Below AVX2, or on a CPU whose `pext` is slow
//! or missing, that pass runs its per-bit loop, which decides the same.

use std::sync::OnceLock;

/// Instruction-set level selected for the kernels of this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable register-blocked Rust (8 hash lanes × 4 non-zeros).
    Scalar,
    /// 128-bit SSE2 (baseline of every `x86_64`).
    Sse2,
    /// 256-bit AVX2 (+ gathers for the masked dot product).
    Avx2,
}

impl SimdLevel {
    /// Stable lowercase name (reported in the repo benchmark's host stanza).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// The level every kernel in this module dispatches to (probed once).
pub fn level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(detect)
}

fn detect() -> SimdLevel {
    let hw = hardware_level();
    match std::env::var("PLSH_SIMD").as_deref() {
        Ok("scalar") => SimdLevel::Scalar,
        // A forced level is honored only up to what the CPU supports.
        Ok("sse2") if hw != SimdLevel::Scalar => SimdLevel::Sse2,
        Ok("avx2") | Err(_) => hw,
        Ok(other) => {
            eprintln!(
                "PLSH_SIMD={other:?} not recognized (or unsupported here); \
                 expected scalar|sse2|avx2 — using detected level {}",
                hw.name()
            );
            hw
        }
    }
}

fn hardware_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            // SSE2 is part of the x86_64 baseline.
            SimdLevel::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdLevel::Scalar
    }
}

/// Whether Q3's first pass reads the signature survival table with BMI2's
/// `pext`: only at the AVX2 level, on a CPU with BMI2 whose `pext` is not
/// microcoded (see [`pext_is_microcoded`]). Probed once.
pub fn has_fast_pext() -> bool {
    static FAST: OnceLock<bool> = OnceLock::new();
    *FAST.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            level() == SimdLevel::Avx2 && is_x86_feature_detected!("bmi2") && !pext_is_microcoded()
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Whether this CPU runs `pext` in microcode: AMD family 17h (Zen 1 and
/// Zen 2) does, taking tens to hundreds of cycles per instruction,
/// growing with the mask's set bits, where Intel since Haswell and AMD
/// since Zen 3 take three. Such a CPU counts as having no BMI2 for
/// [`has_fast_pext`].
pub fn pext_is_microcoded() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        let vendor = __cpuid(0);
        // "AuthenticAMD", as EBX, EDX, ECX.
        let amd = (vendor.ebx, vendor.edx, vendor.ecx) == (0x6874_7541, 0x6974_6e65, 0x444d_4163);
        let eax = __cpuid(1).eax;
        let base = (eax >> 8) & 0xF;
        let family = if base == 0xF {
            base + ((eax >> 20) & 0xFF)
        } else {
            base
        };
        amd && family == 0x17
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

// ---------------------------------------------------------------------------
// Hashing kernel: acc[j] += v · planes[d·nh + j] over all non-zeros (d, v).
// ---------------------------------------------------------------------------

/// Reference kernel: the plain contiguous-row loop (what LLVM used to
/// auto-vectorize). Kept as the ground truth the explicit kernels are
/// tested against — all of them must match it bit for bit.
pub fn accumulate_rows_scalar(
    data: &[f32],
    nh: usize,
    indices: &[u32],
    values: &[f32],
    acc: &mut [f32],
) {
    debug_assert_eq!(acc.len(), nh);
    for (&d, &v) in indices.iter().zip(values) {
        let row = &data[d as usize * nh..d as usize * nh + nh];
        for (a, &p) in acc.iter_mut().zip(row) {
            *a += v * p;
        }
    }
}

/// Register-blocked portable kernel: 8 hash lanes × 4 non-zeros per
/// iteration. The 8-lane accumulator block lives in registers across the
/// whole non-zero loop, so the store/load chain of the naive loop
/// disappears while every lane still sums in ascending non-zero order.
pub fn accumulate_rows_blocked(
    data: &[f32],
    nh: usize,
    indices: &[u32],
    values: &[f32],
    acc: &mut [f32],
) {
    debug_assert_eq!(acc.len(), nh);
    let n = indices.len();
    let mut j = 0usize;
    while j + 8 <= nh {
        let mut a = [0.0f32; 8];
        a.copy_from_slice(&acc[j..j + 8]);
        let mut i = 0usize;
        while i + 4 <= n {
            let r0 = &data[indices[i] as usize * nh + j..][..8];
            let r1 = &data[indices[i + 1] as usize * nh + j..][..8];
            let r2 = &data[indices[i + 2] as usize * nh + j..][..8];
            let r3 = &data[indices[i + 3] as usize * nh + j..][..8];
            let (v0, v1, v2, v3) = (values[i], values[i + 1], values[i + 2], values[i + 3]);
            for l in 0..8 {
                let mut x = a[l];
                x += v0 * r0[l];
                x += v1 * r1[l];
                x += v2 * r2[l];
                x += v3 * r3[l];
                a[l] = x;
            }
            i += 4;
        }
        while i < n {
            let row = &data[indices[i] as usize * nh + j..][..8];
            let v = values[i];
            for l in 0..8 {
                a[l] += v * row[l];
            }
            i += 1;
        }
        acc[j..j + 8].copy_from_slice(&a);
        j += 8;
    }
    // Remainder lanes (nh % 8 != 0): scalar, same per-lane order.
    for jj in j..nh {
        let mut x = acc[jj];
        for (&d, &v) in indices.iter().zip(values) {
            x += v * data[d as usize * nh + jj];
        }
        acc[jj] = x;
    }
}

/// SSE2 kernel: 16-lane blocks (4 × 128-bit accumulators) held in registers
/// across the non-zero loop.
///
/// # Safety
/// Caller must ensure the CPU supports SSE2 (always true on `x86_64`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
pub unsafe fn accumulate_rows_sse2(
    data: &[f32],
    nh: usize,
    indices: &[u32],
    values: &[f32],
    acc: &mut [f32],
) {
    use std::arch::x86_64::*;
    debug_assert_eq!(acc.len(), nh);
    let mut j = 0usize;
    while j + 16 <= nh {
        let ap = acc.as_mut_ptr().add(j);
        let mut a0 = _mm_loadu_ps(ap);
        let mut a1 = _mm_loadu_ps(ap.add(4));
        let mut a2 = _mm_loadu_ps(ap.add(8));
        let mut a3 = _mm_loadu_ps(ap.add(12));
        for (&d, &v) in indices.iter().zip(values) {
            let row = data.as_ptr().add(d as usize * nh + j);
            let vv = _mm_set1_ps(v);
            a0 = _mm_add_ps(a0, _mm_mul_ps(vv, _mm_loadu_ps(row)));
            a1 = _mm_add_ps(a1, _mm_mul_ps(vv, _mm_loadu_ps(row.add(4))));
            a2 = _mm_add_ps(a2, _mm_mul_ps(vv, _mm_loadu_ps(row.add(8))));
            a3 = _mm_add_ps(a3, _mm_mul_ps(vv, _mm_loadu_ps(row.add(12))));
        }
        _mm_storeu_ps(ap, a0);
        _mm_storeu_ps(ap.add(4), a1);
        _mm_storeu_ps(ap.add(8), a2);
        _mm_storeu_ps(ap.add(12), a3);
        j += 16;
    }
    while j + 4 <= nh {
        let ap = acc.as_mut_ptr().add(j);
        let mut a0 = _mm_loadu_ps(ap);
        for (&d, &v) in indices.iter().zip(values) {
            let row = data.as_ptr().add(d as usize * nh + j);
            a0 = _mm_add_ps(a0, _mm_mul_ps(_mm_set1_ps(v), _mm_loadu_ps(row)));
        }
        _mm_storeu_ps(ap, a0);
        j += 4;
    }
    for jj in j..nh {
        let mut x = acc[jj];
        for (&d, &v) in indices.iter().zip(values) {
            x += v * data[d as usize * nh + jj];
        }
        acc[jj] = x;
    }
}

/// AVX2 kernel: 32-lane blocks (4 × 256-bit accumulators) held in registers
/// across the non-zero loop. Multiply and add are kept separate so each
/// lane's rounding matches the scalar kernel exactly (no FMA).
///
/// # Safety
/// Caller must ensure the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub unsafe fn accumulate_rows_avx2(
    data: &[f32],
    nh: usize,
    indices: &[u32],
    values: &[f32],
    acc: &mut [f32],
) {
    use std::arch::x86_64::*;
    debug_assert_eq!(acc.len(), nh);
    let mut j = 0usize;
    while j + 32 <= nh {
        let ap = acc.as_mut_ptr().add(j);
        let mut a0 = _mm256_loadu_ps(ap);
        let mut a1 = _mm256_loadu_ps(ap.add(8));
        let mut a2 = _mm256_loadu_ps(ap.add(16));
        let mut a3 = _mm256_loadu_ps(ap.add(24));
        for (&d, &v) in indices.iter().zip(values) {
            let row = data.as_ptr().add(d as usize * nh + j);
            let vv = _mm256_set1_ps(v);
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(vv, _mm256_loadu_ps(row)));
            a1 = _mm256_add_ps(a1, _mm256_mul_ps(vv, _mm256_loadu_ps(row.add(8))));
            a2 = _mm256_add_ps(a2, _mm256_mul_ps(vv, _mm256_loadu_ps(row.add(16))));
            a3 = _mm256_add_ps(a3, _mm256_mul_ps(vv, _mm256_loadu_ps(row.add(24))));
        }
        _mm256_storeu_ps(ap, a0);
        _mm256_storeu_ps(ap.add(8), a1);
        _mm256_storeu_ps(ap.add(16), a2);
        _mm256_storeu_ps(ap.add(24), a3);
        j += 32;
    }
    while j + 8 <= nh {
        let ap = acc.as_mut_ptr().add(j);
        let mut a0 = _mm256_loadu_ps(ap);
        for (&d, &v) in indices.iter().zip(values) {
            let row = data.as_ptr().add(d as usize * nh + j);
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(_mm256_set1_ps(v), _mm256_loadu_ps(row)));
        }
        _mm256_storeu_ps(ap, a0);
        j += 8;
    }
    for jj in j..nh {
        let mut x = acc[jj];
        for (&d, &v) in indices.iter().zip(values) {
            x += v * data[d as usize * nh + jj];
        }
        acc[jj] = x;
    }
}

/// Runtime-dispatched hashing kernel over a dimension-major dense matrix:
/// `acc[j] += v · data[d·nh + j]` for every non-zero `(d, v)` and lane `j`.
///
/// Bit-identical to [`accumulate_rows_scalar`] at every dispatch level.
#[inline]
pub fn accumulate_rows(data: &[f32], nh: usize, indices: &[u32], values: &[f32], acc: &mut [f32]) {
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level()` only reports what `is_x86_feature_detected!`
        // confirmed on this CPU.
        SimdLevel::Avx2 => unsafe { accumulate_rows_avx2(data, nh, indices, values, acc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86_64 baseline.
        SimdLevel::Sse2 => unsafe { accumulate_rows_sse2(data, nh, indices, values, acc) },
        _ => accumulate_rows_blocked(data, nh, indices, values, acc),
    }
}

// ---------------------------------------------------------------------------
// Masked sparse dot product (query Step Q3, Section 5.2.3).
// ---------------------------------------------------------------------------

/// Scalar masked dot product: walk the data row's index array, test
/// membership in the query's vocabulary bitvector, and multiply hits
/// against the dense query-value array.
#[inline]
pub fn dot_via_mask_scalar(idx: &[u32], val: &[f32], qmask: &[u64], qvals: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (&d, &v) in idx.iter().zip(val) {
        if qmask[(d >> 6) as usize] & (1u64 << (d & 63)) != 0 {
            acc += v * qvals[d as usize];
        }
    }
    acc
}

/// AVX2 masked dot product: 8 non-zeros per iteration — gather the mask
/// words and query values, zero out lanes whose vocabulary bit is clear,
/// and accumulate 8 independent partial sums reduced in a fixed tree order.
///
/// Deterministic, but the partial-sum reassociation means results can
/// differ from [`dot_via_mask_scalar`] in the last bits.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2. `qvals` must cover every index
/// in `idx` and `qmask` every index `>> 6` (the same contract as the scalar
/// kernel).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub unsafe fn dot_via_mask_avx2(idx: &[u32], val: &[f32], qmask: &[u64], qvals: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = idx.len();
    let mut acc = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 8 <= n {
        let d = _mm256_loadu_si256(idx.as_ptr().add(i) as *const __m256i);
        // Gather the 8 bitvector words qmask[d >> 6] (two 4-wide gathers).
        let w = _mm256_srli_epi32::<6>(d);
        let words_lo =
            _mm256_i32gather_epi64::<8>(qmask.as_ptr() as *const i64, _mm256_castsi256_si128(w));
        let words_hi = _mm256_i32gather_epi64::<8>(
            qmask.as_ptr() as *const i64,
            _mm256_extracti128_si256::<1>(w),
        );
        // Shift each word right by d & 63 and isolate the membership bit.
        let bit = _mm256_and_si256(d, _mm256_set1_epi32(63));
        let sh_lo = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(bit));
        let sh_hi = _mm256_cvtepu32_epi64(_mm256_extracti128_si256::<1>(bit));
        let one = _mm256_set1_epi64x(1);
        let hit_lo = _mm256_and_si256(_mm256_srlv_epi64(words_lo, sh_lo), one);
        let hit_hi = _mm256_and_si256(_mm256_srlv_epi64(words_hi, sh_hi), one);
        // 64-bit {0,1} lanes → a 32-bit all-ones/all-zeros lane mask in the
        // original non-zero order.
        let zero = _mm256_setzero_si256();
        let miss_lo = _mm256_cmpeq_epi64(hit_lo, zero);
        let miss_hi = _mm256_cmpeq_epi64(hit_hi, zero);
        let take_even = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
        let miss_lo32 = _mm256_permutevar8x32_epi32(miss_lo, take_even);
        let miss_hi32 = _mm256_permutevar8x32_epi32(miss_hi, take_even);
        let miss = _mm256_inserti128_si256::<1>(miss_lo32, _mm256_castsi256_si128(miss_hi32));
        let keep = _mm256_andnot_si256(miss, _mm256_set1_epi32(-1));
        // Gather query values and zero the misses (stale entries of the
        // dense value array are masked off, exactly like the scalar test).
        let qv = _mm256_i32gather_ps::<4>(qvals.as_ptr(), d);
        let qv = _mm256_and_ps(qv, _mm256_castsi256_ps(keep));
        let vv = _mm256_loadu_ps(val.as_ptr().add(i));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(vv, qv));
        i += 8;
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    // Fixed reduction tree keeps the result deterministic across runs.
    let mut total = ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5]))
        + ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]));
    while i < n {
        let d = idx[i];
        if qmask[(d >> 6) as usize] & (1u64 << (d & 63)) != 0 {
            total += val[i] * qvals[d as usize];
        }
        i += 1;
    }
    total
}

/// Runtime-dispatched masked sparse dot product.
///
/// Uses the AVX2 gather kernel when available and the row has at least
/// 8 non-zeros; SSE2 has no gathers, so everything below AVX2 runs the
/// scalar loop. A shorter row never enters the vector loop, and the
/// scalar loop computes the AVX2 kernel's tail in the same order without
/// its lane store and reduction, so it returns the same bits faster
/// (tweet-sized rows average about 7 non-zeros).
#[inline]
pub fn dot_via_mask(idx: &[u32], val: &[f32], qmask: &[u64], qvals: &[f32]) -> f32 {
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 confirmed by runtime detection; slice contracts are
        // the same as the scalar kernel's.
        SimdLevel::Avx2 if idx.len() >= 8 => unsafe { dot_via_mask_avx2(idx, val, qmask, qvals) },
        _ => dot_via_mask_scalar(idx, val, qmask, qvals),
    }
}

// ---------------------------------------------------------------------------
// Half-key scan (query Step Q2 over the un-merged delta).
// ---------------------------------------------------------------------------

/// Points per block of a packed half-key column.
pub const BLOCK_DOCS: usize = 32;

/// Lane of half-key `a` of point `i` in a packed column of `n` points ×
/// `m` half-keys.
///
/// Points are grouped in blocks of [`BLOCK_DOCS`]; a block stores `m` runs
/// of consecutive lanes, run `a` holding half-key `a` of each of its
/// points, so one vector compare tests a whole run against the query's
/// `u_a` whatever `m` is. The last block holds `n mod 32` points and its
/// runs are that long — the column has no padding lanes.
#[inline]
pub fn lane_index(i: usize, a: usize, m: usize, n: usize) -> usize {
    debug_assert!(i < n && a < m);
    let first = i / BLOCK_DOCS * BLOCK_DOCS;
    let docs = (n - first).min(BLOCK_DOCS);
    first * m + a * docs + (i - first)
}

/// Borrowed packed half-key column: `n · m` little-endian lanes of one or
/// two bytes at [`lane_index`].
#[derive(Debug, Clone, Copy)]
pub struct HalfKeyColumn<'a> {
    lanes: &'a [u8],
    lane_bytes: usize,
    m: usize,
    n: usize,
}

impl<'a> HalfKeyColumn<'a> {
    /// Wraps `lanes` as `n` points × `m` half-keys of `lane_bytes` (1 or
    /// 2) bytes each. Panics unless `lanes` is exactly that long — the
    /// vector kernels read whole blocks on the strength of this check.
    pub fn new(lanes: &'a [u8], lane_bytes: usize, m: usize, n: usize) -> Self {
        assert!(lane_bytes == 1 || lane_bytes == 2);
        assert_eq!(lanes.len(), n * m * lane_bytes);
        Self {
            lanes,
            lane_bytes,
            m,
            n,
        }
    }
}

/// Appends the in-block positions set in `mask` to `hits` as point ids
/// and returns `Σ C(counts[j], 2)` over them.
#[inline]
fn emit_block<T: Copy + Into<u64>>(
    mut mask: u32,
    counts: &[T; BLOCK_DOCS],
    first: usize,
    hits: &mut Vec<u32>,
) -> u64 {
    let mut collisions = 0u64;
    while mask != 0 {
        let j = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        let c: u64 = counts[j].into();
        collisions += c * (c - 1) / 2;
        hits.push((first + j) as u32);
    }
    collisions
}

/// Scalar scan of the blocks starting at point `first` (a multiple of
/// [`BLOCK_DOCS`]) — the whole kernel at the scalar level, and the partial
/// last block at every level.
fn scan_blocks_scalar(
    col: HalfKeyColumn<'_>,
    query: &[u32],
    mut first: usize,
    hits: &mut Vec<u32>,
) -> u64 {
    let mut collisions = 0u64;
    while first < col.n {
        let docs = (col.n - first).min(BLOCK_DOCS);
        let mut counts = [0u16; BLOCK_DOCS];
        for (a, &q) in query.iter().enumerate() {
            let run = first * col.m + a * docs;
            if col.lane_bytes == 2 {
                let lanes = col.lanes[2 * run..2 * (run + docs)].chunks_exact(2);
                for (c, l) in counts.iter_mut().zip(lanes) {
                    *c += u16::from(u32::from(u16::from_le_bytes([l[0], l[1]])) == q);
                }
            } else {
                for (c, &l) in counts.iter_mut().zip(&col.lanes[run..run + docs]) {
                    *c += u16::from(u32::from(l) == q);
                }
            }
        }
        let mut mask = 0u32;
        for (j, &c) in counts.iter().enumerate() {
            mask |= u32::from(c >= 2) << j;
        }
        collisions += emit_block(mask, &counts, first, hits);
        first += docs;
    }
    collisions
}

/// Reference kernel for [`scan_half_keys`]: the ground truth the vector
/// kernels are tested against.
pub fn scan_half_keys_scalar(col: HalfKeyColumn<'_>, query: &[u32], hits: &mut Vec<u32>) -> u64 {
    assert_eq!(query.len(), col.m);
    scan_blocks_scalar(col, query, 0, hits)
}

/// SSE2 scan of the column's full blocks: per block and half-key, one
/// compare + subtract per 16 bytes of lanes.
///
/// # Safety
/// Caller must ensure the CPU supports SSE2 (always true on `x86_64`),
/// `query.len() == col.m`, and `col.m` is at most `i8::MAX` for one-byte
/// lanes (`i16::MAX` for two) so the per-lane counters compare signed.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn scan_full_blocks_sse2(col: HalfKeyColumn<'_>, query: &[u32], hits: &mut Vec<u32>) -> u64 {
    use std::arch::x86_64::*;
    let block_bytes = BLOCK_DOCS * col.m * col.lane_bytes;
    let mut collisions = 0u64;
    for b in 0..col.n / BLOCK_DOCS {
        // In bounds: `HalfKeyColumn::new` checked the buffer covers every
        // full block, and run `a < m` ends inside its block.
        let block = col.lanes.as_ptr().add(b * block_bytes);
        if col.lane_bytes == 2 {
            let mut cnt = [_mm_setzero_si128(); 4];
            for (a, &q) in query.iter().enumerate() {
                let qv = _mm_set1_epi16(q as u16 as i16);
                let run = block.add(a * 2 * BLOCK_DOCS) as *const __m128i;
                for (r, c) in cnt.iter_mut().enumerate() {
                    *c = _mm_sub_epi16(*c, _mm_cmpeq_epi16(_mm_loadu_si128(run.add(r)), qv));
                }
            }
            let one = _mm_set1_epi16(1);
            let gt = cnt.map(|c| _mm_cmpgt_epi16(c, one));
            let mask = _mm_movemask_epi8(_mm_packs_epi16(gt[0], gt[1])) as u32
                | (_mm_movemask_epi8(_mm_packs_epi16(gt[2], gt[3])) as u32) << 16;
            if mask != 0 {
                let mut counts = [0u16; BLOCK_DOCS];
                for (r, &c) in cnt.iter().enumerate() {
                    _mm_storeu_si128((counts.as_mut_ptr() as *mut __m128i).add(r), c);
                }
                collisions += emit_block(mask, &counts, b * BLOCK_DOCS, hits);
            }
        } else {
            let mut cnt = [_mm_setzero_si128(); 2];
            for (a, &q) in query.iter().enumerate() {
                let qv = _mm_set1_epi8(q as u8 as i8);
                let run = block.add(a * BLOCK_DOCS) as *const __m128i;
                for (r, c) in cnt.iter_mut().enumerate() {
                    *c = _mm_sub_epi8(*c, _mm_cmpeq_epi8(_mm_loadu_si128(run.add(r)), qv));
                }
            }
            let one = _mm_set1_epi8(1);
            let mask = _mm_movemask_epi8(_mm_cmpgt_epi8(cnt[0], one)) as u32
                | (_mm_movemask_epi8(_mm_cmpgt_epi8(cnt[1], one)) as u32) << 16;
            if mask != 0 {
                let mut counts = [0u8; BLOCK_DOCS];
                for (r, &c) in cnt.iter().enumerate() {
                    _mm_storeu_si128((counts.as_mut_ptr() as *mut __m128i).add(r), c);
                }
                collisions += emit_block(mask, &counts, b * BLOCK_DOCS, hits);
            }
        }
    }
    collisions
}

/// AVX2 scan of the column's full blocks: one compare + subtract per
/// half-key covers a whole block of one-byte lanes (two for two-byte).
///
/// # Safety
/// Caller must ensure the CPU supports AVX2; otherwise as
/// [`scan_full_blocks_sse2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scan_full_blocks_avx2(col: HalfKeyColumn<'_>, query: &[u32], hits: &mut Vec<u32>) -> u64 {
    use std::arch::x86_64::*;
    let block_bytes = BLOCK_DOCS * col.m * col.lane_bytes;
    let mut collisions = 0u64;
    for b in 0..col.n / BLOCK_DOCS {
        // In bounds: as in the SSE2 kernel.
        let block = col.lanes.as_ptr().add(b * block_bytes);
        if col.lane_bytes == 2 {
            let (mut lo, mut hi) = (_mm256_setzero_si256(), _mm256_setzero_si256());
            for (a, &q) in query.iter().enumerate() {
                let qv = _mm256_set1_epi16(q as u16 as i16);
                let run = block.add(a * 2 * BLOCK_DOCS) as *const __m256i;
                lo = _mm256_sub_epi16(lo, _mm256_cmpeq_epi16(_mm256_loadu_si256(run), qv));
                hi = _mm256_sub_epi16(hi, _mm256_cmpeq_epi16(_mm256_loadu_si256(run.add(1)), qv));
            }
            let one = _mm256_set1_epi16(1);
            // `packs` interleaves the two sources per 128-bit half; the
            // quad permute restores point order before the movemask.
            let gt = _mm256_permute4x64_epi64::<0xD8>(_mm256_packs_epi16(
                _mm256_cmpgt_epi16(lo, one),
                _mm256_cmpgt_epi16(hi, one),
            ));
            let mask = _mm256_movemask_epi8(gt) as u32;
            if mask != 0 {
                let mut counts = [0u16; BLOCK_DOCS];
                _mm256_storeu_si256(counts.as_mut_ptr() as *mut __m256i, lo);
                _mm256_storeu_si256((counts.as_mut_ptr() as *mut __m256i).add(1), hi);
                collisions += emit_block(mask, &counts, b * BLOCK_DOCS, hits);
            }
        } else {
            let mut cnt = _mm256_setzero_si256();
            for (a, &q) in query.iter().enumerate() {
                let qv = _mm256_set1_epi8(q as u8 as i8);
                let run = block.add(a * BLOCK_DOCS) as *const __m256i;
                cnt = _mm256_sub_epi8(cnt, _mm256_cmpeq_epi8(_mm256_loadu_si256(run), qv));
            }
            let mask = _mm256_movemask_epi8(_mm256_cmpgt_epi8(cnt, _mm256_set1_epi8(1))) as u32;
            if mask != 0 {
                let mut counts = [0u8; BLOCK_DOCS];
                _mm256_storeu_si256(counts.as_mut_ptr() as *mut __m256i, cnt);
                collisions += emit_block(mask, &counts, b * BLOCK_DOCS, hits);
            }
        }
    }
    collisions
}

/// Runtime-dispatched half-key scan: appends to `hits`, in ascending
/// order, every point of `col` at least two of whose `m` half-keys equal
/// the query's, and returns `Σ C(c, 2)` over those points' match counts
/// `c`.
///
/// Under the all-pairs scheme table `(a, b)` keys on `u_a‖u_b`, so a point
/// with `c` matching half-keys sits in the query's bucket in exactly
/// `C(c, 2)` of the `L` tables: `hits` is the deduplicated union of those
/// `L` buckets and the return value their total length — what probing
/// per-generation hash tables would have gathered, from one pass over
/// `n · m` lanes instead.
///
/// Identical to [`scan_half_keys_scalar`] at every dispatch level.
pub fn scan_half_keys(col: HalfKeyColumn<'_>, query: &[u32], hits: &mut Vec<u32>) -> u64 {
    assert_eq!(query.len(), col.m);
    debug_assert!(query
        .iter()
        .all(|&q| q <= if col.lane_bytes == 2 { 0xFFFF } else { 0xFF }));
    #[cfg(target_arch = "x86_64")]
    {
        // Per-lane match counters are as wide as a lane and compare signed.
        let max_m = if col.lane_bytes == 2 {
            i16::MAX as usize
        } else {
            i8::MAX as usize
        };
        let full = col.n / BLOCK_DOCS * BLOCK_DOCS;
        let collisions = match level() {
            // SAFETY: `level()` only reports what the CPU supports; the
            // query length and the counter bound were checked just above.
            SimdLevel::Avx2 if col.m <= max_m => unsafe { scan_full_blocks_avx2(col, query, hits) },
            // SAFETY: SSE2 is part of the x86_64 baseline; as above.
            SimdLevel::Sse2 if col.m <= max_m => unsafe { scan_full_blocks_sse2(col, query, hits) },
            _ => return scan_blocks_scalar(col, query, 0, hits),
        };
        collisions + scan_blocks_scalar(col, query, full, hits)
    }
    #[cfg(not(target_arch = "x86_64"))]
    scan_blocks_scalar(col, query, 0, hits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn random_problem(
        seed: u64,
        dim: usize,
        nh: usize,
        nnz: usize,
    ) -> (Vec<f32>, Vec<u32>, Vec<f32>) {
        let mut rng = SplitMix64::new(seed);
        let data: Vec<f32> = (0..dim * nh)
            .map(|_| rng.next_f64() as f32 * 2.0 - 1.0)
            .collect();
        let mut indices: Vec<u32> = Vec::new();
        let mut d = 0u32;
        for _ in 0..nnz {
            d += 1 + rng.next_below((dim / nnz).max(1) as u64) as u32;
            if (d as usize) < dim {
                indices.push(d);
            }
        }
        let values: Vec<f32> = indices
            .iter()
            .map(|_| rng.next_f64() as f32 * 2.0 - 1.0)
            .collect();
        (data, indices, values)
    }

    #[test]
    fn every_kernel_is_bit_identical_to_scalar() {
        for (seed, nh) in [(1u64, 64usize), (2, 36), (3, 7), (4, 40), (5, 1), (6, 8)] {
            let (data, indices, values) = random_problem(seed, 50, nh, 9);
            let mut reference = vec![0.1f32; nh];
            let mut got = reference.clone();
            accumulate_rows_scalar(&data, nh, &indices, &values, &mut reference);

            let mut blocked = got.clone();
            accumulate_rows_blocked(&data, nh, &indices, &values, &mut blocked);
            assert_eq!(reference, blocked, "blocked kernel diverged (nh={nh})");

            accumulate_rows(&data, nh, &indices, &values, &mut got);
            assert_eq!(reference, got, "dispatched kernel diverged (nh={nh})");

            #[cfg(target_arch = "x86_64")]
            {
                let mut sse = vec![0.1f32; nh];
                // SAFETY: SSE2 is part of the x86_64 baseline.
                unsafe { accumulate_rows_sse2(&data, nh, &indices, &values, &mut sse) };
                assert_eq!(reference, sse, "sse2 kernel diverged (nh={nh})");
                if is_x86_feature_detected!("avx2") {
                    let mut avx = vec![0.1f32; nh];
                    // SAFETY: AVX2 detected above.
                    unsafe { accumulate_rows_avx2(&data, nh, &indices, &values, &mut avx) };
                    assert_eq!(reference, avx, "avx2 kernel diverged (nh={nh})");
                }
            }
        }
    }

    #[test]
    fn dot_via_mask_kernels_agree() {
        let mut rng = SplitMix64::new(11);
        let dim = 300usize;
        for case in 0..30 {
            let n = 1 + (case % 20);
            let mut idx: Vec<u32> = (0..n).map(|_| rng.next_below(dim as u64) as u32).collect();
            idx.sort_unstable();
            idx.dedup();
            let val: Vec<f32> = idx.iter().map(|_| rng.next_f64() as f32 - 0.5).collect();
            let mut qmask = vec![0u64; dim.div_ceil(64)];
            let mut qvals = vec![f32::NAN; dim]; // stale entries must be masked off
            for _ in 0..10 {
                let d = rng.next_below(dim as u64) as u32;
                qmask[(d >> 6) as usize] |= 1 << (d & 63);
                qvals[d as usize] = rng.next_f64() as f32 - 0.5;
            }
            let expect = dot_via_mask_scalar(&idx, &val, &qmask, &qvals);
            let got = dot_via_mask(&idx, &val, &qmask, &qvals);
            assert!(
                (expect - got).abs() < 1e-5,
                "case {case}: {expect} vs {got}"
            );
        }
    }

    /// Below 8 non-zeros the AVX2 kernel is its scalar tail, so routing
    /// such a row to the scalar loop changes no bit of the result.
    #[test]
    fn short_rows_give_the_avx2_masked_dot_bit_for_bit() {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            let mut rng = SplitMix64::new(5);
            let dim = 200usize;
            let mut qmask = vec![0u64; dim.div_ceil(64)];
            let mut qvals = vec![f32::NAN; dim];
            for _ in 0..40 {
                let d = rng.next_below(dim as u64) as u32;
                qmask[(d >> 6) as usize] |= 1 << (d & 63);
                qvals[d as usize] = rng.next_f64() as f32 - 0.5;
            }
            for n in 0..8 {
                let mut idx: Vec<u32> = (0..n).map(|_| rng.next_below(dim as u64) as u32).collect();
                idx.sort_unstable();
                idx.dedup();
                let val: Vec<f32> = idx.iter().map(|_| rng.next_f64() as f32 - 0.5).collect();
                let scalar = dot_via_mask_scalar(&idx, &val, &qmask, &qvals);
                // SAFETY: AVX2 detected above.
                let avx = unsafe { dot_via_mask_avx2(&idx, &val, &qmask, &qvals) };
                assert_eq!(scalar.to_bits(), avx.to_bits(), "{n} non-zeros");
                assert_eq!(
                    dot_via_mask(&idx, &val, &qmask, &qvals).to_bits(),
                    avx.to_bits()
                );
            }
        }
    }

    #[test]
    fn level_is_stable_and_named() {
        let l = level();
        assert_eq!(l, level(), "level must be cached");
        assert!(["scalar", "sse2", "avx2"].contains(&l.name()));
        #[cfg(target_arch = "x86_64")]
        if std::env::var("PLSH_SIMD").as_deref() != Ok("scalar") {
            assert_ne!(l, SimdLevel::Scalar, "x86_64 always has at least SSE2");
        }
    }
}
