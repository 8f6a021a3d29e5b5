//! Hash-table storage: static partitioned tables, and the table-free
//! streaming delta.
//!
//! * [`StaticTables`] — the read-optimized contiguous-array layout of
//!   Section 5.1 (Figure 3a). Every static epoch, a bulk load included,
//!   is built by [`StaticTables::merge_generations`] or its stepped twin
//!   [`MergeStepper`]: one count/scatter pass per table over the
//!   previous epoch and the sealed generations' packed keys.
//!   [`StaticTables::reference`] is the serial oracle they are tested
//!   against.
//! * [`DeltaGeneration`] — a sealed, immutable run of streamed points
//!   (rows + packed sketches) published to readers via epoch swap. It
//!   stands in for the insert-optimized bins of Section 6.1 (Figure 3b)
//!   without storing any: queries scan its sketch column instead.

mod generation;
mod static_tables;

pub use generation::DeltaGeneration;
pub use static_tables::{MergeStepper, StaticTables};
