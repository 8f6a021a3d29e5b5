//! # plsh-core — Parallel Locality-Sensitive Hashing
//!
//! The core algorithm of *"Streaming Similarity Search over one Billion
//! Tweets using Parallel Locality-Sensitive Hashing"* (Sundaram et al.,
//! VLDB 2013): an in-memory LSH index for angular distance over sparse
//! high-dimensional unit vectors, engineered for multi-core construction
//! and high-throughput querying, with streaming inserts via a scanned delta.
//!
//! ## Layout of the crate
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`sparse`] | 5.1.1, 5.2.3 | sparse vectors, CRS matrices, angular distance kernels |
//! | [`hash`] | 3, 5.1.1 | random-hyperplane family, all-pairs sketches |
//! | [`table`] | 5.1.2, 6.1 | static bucket-partitioned tables built by merge, table-free delta generations |
//! | [`simd`] | 5.1.1, 5.2.3 | runtime-dispatched SIMD kernels for hashing and dot products |
//! | [`dedup`] | 5.2.1 | bitvector duplicate elimination |
//! | [`query`] | 5.2 | the Q1–Q4 query pipeline, and its unoptimized reference |
//! | [`engine`] | 4, 6 | single-node engine: epoch-swapped static tables + sealed delta generations + deletions + merge |
//! | [`streaming`] | 4, 6 | shared-read streaming handle: concurrent ingest ‖ query ‖ background merge |
//! | [`persist`] | — | durable WAL + segment-per-generation persistence and startup recovery |
//! | [`params`] | 3, 7.2–7.3 | collision math and parameter selection |
//! | [`model`] | 7.1 | the analytic performance model |
//!
//! ## A minimal end-to-end run
//!
//! ```
//! use plsh_core::{Engine, EngineConfig, PlshParams, SparseVector};
//! use plsh_parallel::ThreadPool;
//!
//! let params = PlshParams::builder(16).k(4).m(4).radius(0.9).seed(42).build().unwrap();
//! let pool = ThreadPool::new(1);
//! let engine = Engine::new(EngineConfig::new(params, 64), &pool).unwrap();
//!
//! let a = SparseVector::unit(vec![(0, 1.0), (3, 2.0)]).unwrap();
//! let b = SparseVector::unit(vec![(0, 1.0), (3, 1.9)]).unwrap(); // near-duplicate of `a`
//! let c = SparseVector::unit(vec![(9, 1.0), (14, 1.0)]).unwrap(); // unrelated
//! engine.insert(a.clone(), &pool).unwrap();
//! engine.insert(b, &pool).unwrap();
//! engine.insert(c, &pool).unwrap();
//!
//! let hits = engine.query(&a);
//! assert!(hits.iter().any(|h| h.index == 1));
//! ```

pub mod dedup;
pub mod engine;
pub mod error;
pub mod fault;
pub mod hash;
pub mod health;
pub mod model;
pub mod params;
pub mod persist;
pub mod query;
pub mod rng;
pub mod search;
pub mod simd;
pub mod snapshot;
pub mod sparse;
pub mod stats;
pub mod streaming;
pub mod table;
pub(crate) mod util;

pub use engine::{Engine, EngineConfig, EngineStats, EpochInfo, MergeReport, WindowSpec};
pub use error::{PlshError, Result};
pub use hash::{Hyperplanes, SketchMatrix};
pub use health::HealthReport;
pub use params::{ParamCandidate, ParamSelection, PlshParams, PlshParamsBuilder};
pub use persist::RecoveredState;
pub use query::{BatchStats, Neighbor, QueryPhaseTimings, QueryStats};
pub use search::{SearchBackend, SearchHit, SearchMode, SearchRequest, SearchResponse};
pub use snapshot::Snapshot;
pub use sparse::{CrsMatrix, SparseVector};
pub use streaming::{ShutdownReport, StreamingEngine};
pub use table::{DeltaGeneration, MergeStepper, StaticTables};
