//! `plsh-server` — the network wire surface over a PLSH index.
//!
//! The paper's workload is a live service: millions of users querying a
//! streaming tweet index while ingest runs. This crate is the serving
//! skin for that shape — a hand-rolled HTTP/1.1 server over
//! `std::net::TcpListener` (the container has no crates.io access, so no
//! hyper/axum/tokio) with its own minimal JSON codec:
//!
//! | Endpoint | Maps onto |
//! |---|---|
//! | `POST /search` | [`SearchRequest`](plsh_core::search::SearchRequest) ⇄ [`SearchResponse`](plsh_core::search::SearchResponse) |
//! | `POST /ingest` | `insert_batch` into the streaming write path |
//! | `POST /delete` | tombstone by id |
//! | `GET /healthz` | [`HealthReport`](plsh_core::health::HealthReport), merge failures included — 503 when degraded |
//! | `GET /metrics` | qps, p50/p99, epoch generation, merge backlog, queue depth, shed count, merge failures |
//! | `POST /ctl/shutdown` | request graceful drain |
//!
//! Load shedding is layered (bounded accept queue → stale-queue 429 →
//! per-request candidate budgets) and graceful drain hands what remains
//! to `StreamingEngine::shutdown` — the threading and shedding design is
//! documented on [`server`].
//!
//! Any backend implementing [`ServeBackend`] can sit behind the wire;
//! [`StreamingEngine`](plsh_core::streaming::StreamingEngine) does here,
//! and the root `plsh::Index` does in the facade crate (so
//! `Index::serve(addr)` is one call).

pub mod http;
pub mod json;
pub mod metrics;
pub mod server;
pub mod wire;

pub use json::Json;
pub use metrics::Metrics;
pub use server::{serve, ServeBackend, Server, ServerConfig};
pub use wire::WireError;
