//! Deterministic random number generation for hyperplane construction.
//!
//! The LSH hash family needs Gaussian-distributed hyperplane components
//! `a ~ N(0, 1)^D` (Charikar's sign-random-projection family).
//! `Hyperplanes::new_dense` fills its matrix in parallel chunks, so each
//! component must come out the same whichever worker computes it, with
//! no shared state: [`gaussian_at`] provides that counter-based access —
//! it seeds a tiny SplitMix64 from `(seed, d, j)` and applies one
//! Box–Muller step. The sequential [`SplitMix64`] stream serves every
//! other draw.
//!
//! Everything here is deterministic given the seed, which makes every index
//! build and every experiment in the repository reproducible bit-for-bit.

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
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
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
/// `gaussian_at(seed, d, j)` is a pure function: the on-the-fly hyperplane
/// store calls it at query time and gets exactly the value the materialized
/// store would have been filled with had it used the same per-coordinate
/// seeding.
#[inline]
pub fn gaussian_at(seed: u64, d: u32, j: u32) -> f32 {
    // Combine (seed, d, j) injectively into one 64-bit stream seed.
    let coord = ((d as u64) << 32) | j as u64;
    let mut rng = SplitMix64::new(seed ^ mix(coord));
    rng.next_gaussian() as f32
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
