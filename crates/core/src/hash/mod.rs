//! The LSH hash family and all-pairs sketch machinery (paper Section 3).
//!
//! PLSH uses Charikar's sign-random-projection family for angular distance:
//! `h_a(v) = sign(a · v)` for a Gaussian random hyperplane `a`. A point's
//! *sketch* is the matrix of `m` half-keys of `k/2` bits each
//! (`u_1(v), …, u_m(v)`), and the `L = m(m−1)/2` table keys are all ordered
//! pairs `g_{a,b}(v) = (u_a(v), u_b(v))`.
//!
//! * [`Hyperplanes`] stores the `m·k/2` random hyperplanes as a dense
//!   dimension-major matrix and exposes the sparse-times-dense
//!   accumulation kernel of Section 5.1.1, SIMD-dispatched at runtime.
//! * [`SketchMatrix`] holds the packed half-keys of every indexed point and
//!   is the sole input the merge needs to build tables.
//! * [`allpairs`] maps between pair `(a, b)` and table index `l`, and
//!   composes half-keys into `k`-bit bucket keys.

pub mod allpairs;
mod hyperplanes;
mod sketch;

pub use hyperplanes::Hyperplanes;
pub use sketch::SketchMatrix;
