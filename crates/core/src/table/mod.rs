//! Hash-table storage: static partitioned tables, and the table-free
//! streaming delta.
//!
//! * [`build`] — the parallel histogram → prefix-sum → scatter radix
//!   partition and the three construction strategies of the Figure 4
//!   ablation (one-level, two-level, two-level with shared first-level
//!   partitions).
//! * [`StaticTables`] — the read-optimized contiguous-array layout of
//!   Section 5.1 (Figure 3a).
//! * [`DeltaGeneration`] — a sealed, immutable run of streamed points
//!   (rows + packed sketches) published to readers via epoch swap. It
//!   stands in for the insert-optimized bins of Section 6.1 (Figure 3b)
//!   without storing any: queries scan its sketch column instead.

pub mod build;
mod generation;
mod static_tables;

pub use build::BuildStrategy;
pub use generation::DeltaGeneration;
pub use static_tables::{BuildTimings, MergeStepper, StaticTables};
