//! # plsh-cluster — the shard-per-core streaming index
//!
//! The paper runs PLSH on 100 nodes (Section 4, Figure 1): every node holds
//! a disjoint slice of the data, queries go to all nodes and a coordinator
//! concatenates the partial answers, and the oldest data is expired
//! wholesale as the stream advances.
//!
//! The real system used MPI over Infiniband; the paper measures
//! communication at well under 1% of query time (Section 8.4), so the
//! interesting behaviour is per-node. This crate therefore runs the nodes
//! **in-process** as shards of one [`ShardedIndex`] (see [`sharded`]): it
//! routes global id `g` to shard `g % S` of the per-shard
//! [`plsh_core::streaming::StreamingEngine`]s (each applying its slice of
//! every batch directly and merging on its own background thread), fans
//! queries out
//! over the shards through a work-stealing pool, and defaults its shard
//! count to a Section-7 performance-model prediction. Every operation
//! takes `&self` and overlaps freely across threads.
//!
//! The paper's rolling-window expiration is reproduced by
//! [`WindowSpec`](plsh_core::engine::WindowSpec): a windowed index keeps
//! the newest `n` documents (or the last `d` of wall-clock time), advances
//! one global watermark ([`ShardedIndex::retired_below`]) as the stream
//! head moves, and ships every shard the matching cut so the window edge
//! is consistent across shards — exact expiration without per-point
//! timestamps, reclaimed by each shard's merge compaction.

mod error;
pub mod sharded;

pub use error::{ClusterError, Result};
pub use sharded::{ShardedIndex, ShardedIndexBuilder, ShardedStats};
