//! Deterministic random number generation for hyperplane construction.
//!
//! The LSH hash family needs Gaussian-distributed hyperplane components
//! `a ~ N(0, 1)^D` (Charikar's sign-random-projection family).
//! `Hyperplanes::new_dense` fills its matrix in parallel chunks, so each
//! component must come out the same whichever worker computes it, with
//! no shared state: [`gaussian_at`] provides that counter-based access —
//! it seeds a tiny SplitMix64 from `(seed, d, j)` and applies one
//! Box–Muller step through libm's `ln` and `cos`. The sequential
//! [`SplitMix64`] stream serves every other draw.
//!
//! [`gaussian_row`] fills a whole plane row with exactly the values
//! [`gaussian_at`] gives, at SIMD speed: it runs the same SplitMix64
//! arithmetic over blocks of lanes, takes `ln` and `cos` from ports of
//! fdlibm's branch-free kernels, and keeps its own result only where that
//! result cannot round to a different `f32` than libm's would; every
//! other element is [`gaussian_at`]'s.
//!
//! Everything here is deterministic given the seed, which makes every index
//! build and every experiment in the repository reproducible bit-for-bit.

use crate::simd;

/// SplitMix64: tiny, fast, high-quality 64-bit PRNG (Steele et al.).
///
/// Used both as a sequential stream and, re-seeded per coordinate, as a
/// counter-based generator.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Different seeds give independent
    /// streams for all practical purposes.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        mix(self.state)
    }

    /// Uniform `f64` in the half-open interval `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` (Lemire's multiply-shift reduction;
    /// the modulo bias is < 2^-32 for the bounds used here).
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Standard normal variate via the Box–Muller transform.
    ///
    /// Consumes two uniforms and returns one normal; the second Box–Muller
    /// output is intentionally discarded so the generator remains a pure
    /// function of how many draws preceded it (simpler reasoning about
    /// reproducibility than caching the spare value).
    #[inline]
    pub fn next_gaussian(&mut self) -> f64 {
        // Avoid u1 == 0 which would send ln(u1) to -inf.
        let u1 = loop {
            let u = self.next_f64();
            if u > 1e-300 {
                break u;
            }
        };
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Stateless Gaussian component for hyperplane `j`, dimension `d`.
///
/// `gaussian_at(seed, d, j)` is a pure function of its arguments: the
/// oracle [`gaussian_row`] is held to bit for bit, and the value it falls
/// back to where its own result might round differently.
#[inline]
pub fn gaussian_at(seed: u64, d: u32, j: u32) -> f32 {
    // Combine (seed, d, j) injectively into one 64-bit stream seed.
    let coord = ((d as u64) << 32) | j as u64;
    let mut rng = SplitMix64::new(seed ^ mix(coord));
    rng.next_gaussian() as f32
}

/// The SplitMix64 increment ([`SplitMix64::next_u64`]).
const GOLDEN: u64 = 0x9E3779B97F4A7C15;

/// Lanes per block of [`gaussian_row`].
const ROW_BLOCK: usize = 64;

/// Sets `out[j] = gaussian_at(seed, d, j)` for every `j`, bit for bit,
/// and returns how many elements were taken from [`gaussian_at`] itself.
///
/// Works in blocks of 64 lanes, in three loops: the two SplitMix64 draws
/// of every lane, the Box–Muller transform in [`gaussian_at`]'s operation
/// order with fdlibm's `ln` and `cos` kernels, and the guard, which keeps
/// a lane's result only where it cannot round to a different `f32` than
/// libm's would. At the AVX2 level ([`simd::level`]) the same code is
/// compiled for AVX2; every other level runs it for baseline `x86_64`.
/// `out.len()` must not exceed `2^32` (`j` is a `u32`).
pub fn gaussian_row(seed: u64, d: u32, out: &mut [f32]) -> usize {
    #[cfg(target_arch = "x86_64")]
    if simd::level() == simd::SimdLevel::Avx2 {
        // SAFETY: the AVX2 level is only selected on a CPU that has AVX2.
        return unsafe { gaussian_row_avx2(seed, d, out) };
    }
    gaussian_row_in(seed, d, out)
}

/// [`gaussian_row`]'s loops compiled for AVX2.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gaussian_row_avx2(seed: u64, d: u32, out: &mut [f32]) -> usize {
    gaussian_row_in(seed, d, out)
}

#[inline(always)]
fn gaussian_row_in(seed: u64, d: u32, out: &mut [f32]) -> usize {
    debug_assert!(out.len() as u64 <= 1 << 32);
    let mut fallbacks = 0;
    for (b, block) in out.chunks_mut(ROW_BLOCK).enumerate() {
        let j0 = (b * ROW_BLOCK) as u64;
        let coord = ((d as u64) << 32) | j0;
        let mut first = [0u64; ROW_BLOCK];
        let mut second = [0u64; ROW_BLOCK];
        for l in 0..ROW_BLOCK {
            let state = (seed ^ mix(coord + l as u64)).wrapping_add(GOLDEN);
            first[l] = mix(state) >> 11;
            second[l] = mix(state.wrapping_add(GOLDEN)) >> 11;
        }
        let mut r = [0f64; ROW_BLOCK];
        for l in 0..ROW_BLOCK {
            let (u1, u2) = (unit(first[l]), unit(second[l]));
            r[l] = (-2.0 * ln(u1)).sqrt() * cos(std::f64::consts::TAU * u2);
        }
        for (l, out) in block.iter_mut().enumerate() {
            *out = if rounds_like_libm(first[l], r[l]) {
                r[l] as f32
            } else {
                fallbacks += 1;
                gaussian_at(seed, d, (j0 + l as u64) as u32)
            };
        }
    }
    fallbacks
}

/// Whether the kernel's `r` for a lane whose first draw is `draw1` rounds
/// to the same `f32` as libm's would.
///
/// A zero draw makes [`SplitMix64::next_gaussian`] draw again, which the
/// kernel does not. Otherwise the kernels sit within a few `f64` ulp of
/// libm (the tests bound them at 8), so `r` and libm's value round alike
/// unless `r`'s 29 bits below the `f32` mantissa lie within `2^10` ulp of
/// the rounding midpoint `2^28`.
#[inline(always)]
fn rounds_like_libm(draw1: u64, r: f64) -> bool {
    const MIDPOINT: u64 = 1 << 28;
    let low = r.to_bits() & ((1 << 29) - 1);
    draw1 != 0 && low.abs_diff(MIDPOINT) > 1 << 10
}

/// A 53-bit draw as an `f64` in `[0, 1)`, exactly `(v as f64) · 2^-53`.
///
/// Each half goes through the `2^52` bit trick (AVX2 has no `u64 → f64`
/// convert): `from_bits(0x4330… | h) − 2^52` is `h` exactly for `h < 2^52`.
#[inline(always)]
fn unit(v: u64) -> f64 {
    const EXP52: u64 = 0x4330_0000_0000_0000;
    const TWO52: f64 = 4503599627370496.0;
    let hi = f64::from_bits(EXP52 | (v >> 32)) - TWO52;
    let lo = f64::from_bits(EXP52 | (v & 0xFFFF_FFFF)) - TWO52;
    (hi * 4294967296.0 + lo) * (1.0 / (1u64 << 53) as f64)
}

// The constants and the three kernels below are ported from fdlibm
// (`e_log.c`, `e_rem_pio2.c`, `k_cos.c`, `k_sin.c`):
//
// ====================================================
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================
//
// Each constant is fdlibm's bit pattern, with its decimal form beside it.

const LN2_HI: f64 = f64::from_bits(0x3FE62E42_FEE00000); // 6.93147180369123816490e-01
const LN2_LO: f64 = f64::from_bits(0x3DEA39EF_35793C76); // 1.90821492927058770002e-10
const LG1: f64 = f64::from_bits(0x3FE55555_55555593); // 6.666666666666735130e-01
const LG2: f64 = f64::from_bits(0x3FD99999_9997FA04); // 3.999999999940941908e-01
const LG3: f64 = f64::from_bits(0x3FD24924_94229359); // 2.857142874366239149e-01
const LG4: f64 = f64::from_bits(0x3FCC71C5_1D8E78AF); // 2.222219843214978396e-01
const LG5: f64 = f64::from_bits(0x3FC74664_96CB03DE); // 1.818357216161805012e-01
const LG6: f64 = f64::from_bits(0x3FC39A09_D078C69F); // 1.531383769920937332e-01
const LG7: f64 = f64::from_bits(0x3FC2F112_DF3E5244); // 1.479819860511658591e-01

const INVPIO2: f64 = f64::from_bits(0x3FE45F30_6DC9C883); // 6.36619772367581382433e-01
const PIO2_1: f64 = f64::from_bits(0x3FF921FB_54400000); // 1.57079632673412561417e+00
const PIO2_2: f64 = f64::from_bits(0x3DD0B461_1A600000); // 6.07710050630396597660e-11
const PIO2_2T: f64 = f64::from_bits(0x3BA3198A_2E037073); // 2.02226624879595063154e-21

const C1: f64 = f64::from_bits(0x3FA55555_5555554C); // 4.16666666666666019037e-02
const C2: f64 = f64::from_bits(0xBF56C16C_16C15177); // -1.38888888888741095749e-03
const C3: f64 = f64::from_bits(0x3EFA01A0_19CB1590); // 2.48015872894767294178e-05
const C4: f64 = f64::from_bits(0xBE927E4F_809C52AD); // -2.75573143513906633035e-07
const C5: f64 = f64::from_bits(0x3E21EE9E_BDB4B1C4); // 2.08757232129817482790e-09
const C6: f64 = f64::from_bits(0xBDA8FAE9_BE8838D4); // -1.13596475577881948265e-11

const S1: f64 = f64::from_bits(0xBFC55555_55555549); // -1.66666666666666324348e-01
const S2: f64 = f64::from_bits(0x3F811111_1110F8A6); // 8.33333333332248946124e-03
const S3: f64 = f64::from_bits(0xBF2A01A0_19C161D5); // -1.98412698298579493134e-04
const S4: f64 = f64::from_bits(0x3EC71DE3_57B1FE7D); // 2.75573137070700676789e-06
const S5: f64 = f64::from_bits(0xBE5AE5E6_8A2B9CEB); // -2.50507602534068634195e-08
const S6: f64 = f64::from_bits(0x3DE5D93A_5ACFD57C); // 1.58969099521155010221e-10

/// `ln(x)` for a positive normal `x`: fdlibm's `__ieee754_log` without
/// its special cases or branches. `x = 2^k · (1 + f)` with `1 + f` in
/// `[√2/2, √2)`; both of fdlibm's final forms are computed and one is
/// selected, and its `k = 0` form is the general one at `k = 0`.
#[inline(always)]
fn ln(x: f64) -> f64 {
    let bits = x.to_bits();
    let hx = (bits >> 32) as i64 & 0x000f_ffff;
    let i = (hx + 0x95f64) & 0x10_0000;
    let k = ((bits >> 52) as i64 - 1023) + (i >> 20);
    // Normalize x or x/2 into [√2/2, √2).
    let high = (hx | (i ^ 0x3ff0_0000)) as u64;
    let f = f64::from_bits((high << 32) | (bits & 0xffff_ffff)) - 1.0;
    // k as f64 by the 1.5·2^52 bit trick (|k| < 2^51; no i64 → f64 convert
    // below AVX-512).
    const TOINT: f64 = 6755399441055744.0;
    let dk = f64::from_bits(TOINT.to_bits().wrapping_add(k as u64)) - TOINT;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    let hfsq = 0.5 * f * f;
    let wide = dk * LN2_HI - ((hfsq - (s * (hfsq + r) + dk * LN2_LO)) - f);
    let narrow = dk * LN2_HI - ((s * (f - r) - dk * LN2_LO) - f);
    if ((hx - 0x6147a) | (0x6b851 - hx)) > 0 {
        wide
    } else {
        narrow
    }
}

/// `cos(x)` for `0 ≤ x < 2π` (plus rounding): a two-step Cody–Waite
/// reduction by π/2 to `y0 + y1` (`n ≤ 4`, so `n·PIO2_1` and `n·PIO2_2`
/// are exact), then `__kernel_cos` or `__kernel_sin`, chosen and signed by
/// `n & 3`, both computed and one selected.
#[inline(always)]
fn cos(x: f64) -> f64 {
    // Round to nearest by the 1.5·2^52 bit trick: n sits in the low bits.
    const TOINT: f64 = 6755399441055744.0;
    let t = x * INVPIO2 + TOINT;
    let n = t.to_bits();
    let fnv = t - TOINT;
    let r0 = x - fnv * PIO2_1;
    let w0 = fnv * PIO2_2;
    let r = r0 - w0;
    let w = fnv * PIO2_2T - ((r0 - r) - w0);
    let y0 = r - w;
    let y1 = (r - y0) - w;
    // n & 3 = 0, 1, 2, 3 → cos y, −sin y, −cos y, sin y.
    let (c, s) = (kernel_cos(y0, y1), kernel_sin(y0, y1));
    let v = if n & 1 == 0 { c } else { s };
    f64::from_bits(v.to_bits() ^ ((n.wrapping_add(1) & 2) << 62))
}

/// fdlibm's `__kernel_cos(x, y)` on `[-π/4, π/4]`, `y` the tail of `x`.
#[inline(always)]
fn kernel_cos(x: f64, y: f64) -> f64 {
    let z = x * x;
    let w = z * z;
    let r = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    w + (((1.0 - w) - hz) + (z * r - x * y))
}

/// fdlibm's `__kernel_sin(x, y, 1)` on `[-π/4, π/4]`, `y` the tail of `x`.
#[inline(always)]
fn kernel_sin(x: f64, y: f64) -> f64 {
    let z = x * x;
    let w = z * z;
    let r = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let v = z * x;
    x - ((z * (0.5 * y - v * r) - y) - v * S1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..10_000 {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SplitMix64::new(9);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..1000 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let mut rng = SplitMix64::new(123);
        let n = 200_000;
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        for _ in 0..n {
            let g = rng.next_gaussian();
            sum += g;
            sum_sq += g * g;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn gaussian_at_is_pure() {
        for d in [0u32, 1, 77, 49_999] {
            for j in [0u32, 1, 319] {
                assert_eq!(gaussian_at(5, d, j), gaussian_at(5, d, j));
            }
        }
        // Distinct coordinates give distinct values (w.h.p.).
        assert_ne!(gaussian_at(5, 0, 0), gaussian_at(5, 0, 1));
        assert_ne!(gaussian_at(5, 0, 0), gaussian_at(5, 1, 0));
        assert_ne!(gaussian_at(5, 0, 0), gaussian_at(6, 0, 0));
    }

    /// Distance in `f64` ulp, across zero too.
    fn ulps(a: f64, b: f64) -> u64 {
        let ordered = |x: f64| {
            let bits = x.to_bits() as i64;
            if bits < 0 {
                i64::MIN - bits
            } else {
                bits
            }
        };
        ordered(a).abs_diff(ordered(b))
    }

    /// Draws at the edges of the transform's domain: the extremes, powers
    /// of two, both sides of `1/√2` (`ln`'s normalization switch) and of
    /// `¼`, `½`, `¾` (`cos`'s quadrant switches).
    fn edge_draws() -> Vec<u64> {
        const ONE: u64 = 1 << 53;
        let mut draws = vec![0, 1, 2, 3, ONE - 1, ONE - 2];
        draws.extend((0..53).map(|k| 1u64 << k));
        let centres = [
            (ONE as f64 / std::f64::consts::SQRT_2) as u64,
            ONE / 4,
            ONE / 2,
            3 * (ONE / 4),
            ONE - 64,
        ];
        for c in centres {
            draws.extend((0..=64).map(|k| c + k - 32));
        }
        draws.extend((1..=16).map(|k| (1u64 << (53 - k)) - 1));
        draws
    }

    #[test]
    fn fast_ln_and_cos_stay_within_8_ulp_of_libm() {
        let mut rng = SplitMix64::new(0x1F);
        let random = (0..1_000_000).map(|_| rng.next_u64() >> 11);
        let mut worst = (0u64, 0u64);
        for v in edge_draws().into_iter().chain(random) {
            let u = unit(v);
            assert_eq!(u, v as f64 * (1.0 / (1u64 << 53) as f64), "draw {v}");
            if v != 0 {
                let d = ulps(ln(u), u.ln());
                assert!(d <= 8, "ln({u:e}) is {d} ulp from libm");
                worst.0 = worst.0.max(d);
            }
            let x = std::f64::consts::TAU * u;
            let d = ulps(cos(x), x.cos());
            assert!(d <= 8, "cos({x:e}) is {d} ulp from libm");
            worst.1 = worst.1.max(d);
        }
        eprintln!("worst ulp: ln {}, cos {}", worst.0, worst.1);
    }

    #[test]
    fn guard_keeps_only_lanes_clear_of_the_f32_midpoint() {
        // Any value with a chosen 29-bit tail below the f32 mantissa.
        let with_tail = |tail: u64| f64::from_bits(1.5f64.to_bits() & !((1 << 29) - 1) | tail);
        let mid = 1u64 << 28;
        for tail in [mid, mid - (1 << 10), mid + (1 << 10)] {
            assert!(!rounds_like_libm(1, with_tail(tail)), "tail {tail:#x}");
        }
        for tail in [mid - (1 << 10) - 1, mid + (1 << 10) + 1, 0, (1 << 29) - 1] {
            assert!(rounds_like_libm(1, with_tail(tail)), "tail {tail:#x}");
        }
        assert!(!rounds_like_libm(0, with_tail(0)));
    }

    #[test]
    fn a_zero_first_draw_takes_the_oracle() {
        // mix(0) = 0, so at (d, j) = (0, 0) the stream state is the seed
        // itself, and this seed makes the first draw mix(0) >> 11 = 0:
        // `next_gaussian` then draws again, which only the oracle does.
        let seed = 0u64.wrapping_sub(GOLDEN);
        let state = (seed ^ mix(0)).wrapping_add(GOLDEN);
        assert_eq!(mix(state) >> 11, 0);
        let mut row = vec![0.0f32; 130];
        let fallbacks = gaussian_row(seed, 0, &mut row);
        assert!(fallbacks >= 1);
        assert!(row[0].is_finite());
        for (j, &g) in row.iter().enumerate() {
            assert_eq!(
                g.to_bits(),
                gaussian_at(seed, 0, j as u32).to_bits(),
                "j {j}"
            );
        }
    }

    #[test]
    fn gaussian_row_equals_gaussian_at() {
        for (seed, d, n) in [
            (5u64, 0u32, 1usize),
            (7, 3, 63),
            (9, 49_999, 64),
            (11, 1, 200),
        ] {
            let mut row = vec![0.0f32; n];
            gaussian_row(seed, d, &mut row);
            for (j, &g) in row.iter().enumerate() {
                assert_eq!(g.to_bits(), gaussian_at(seed, d, j as u32).to_bits());
            }
        }
    }

    #[test]
    fn gaussian_at_distribution_is_standard_normal() {
        // Pool many coordinates; mean ~0, var ~1, and the sign is a fair coin
        // (the property the hash family actually relies on).
        let mut pos = 0usize;
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        let n = 50_000u32;
        for i in 0..n {
            let g = gaussian_at(99, i % 500, i / 500) as f64;
            if g > 0.0 {
                pos += 1;
            }
            sum += g;
            sum_sq += g * g;
        }
        let frac_pos = pos as f64 / n as f64;
        assert!((frac_pos - 0.5).abs() < 0.01, "sign bias {frac_pos}");
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02);
        assert!((var - 1.0).abs() < 0.05);
    }
}
