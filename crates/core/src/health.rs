//! Liveness, degradation, and supervision reporting.
//!
//! Every backend — [`Engine`](crate::engine::Engine),
//! [`StreamingEngine`](crate::streaming::StreamingEngine), the sharded
//! cluster, and the root `plsh::Index` — answers `health()` with the
//! same [`HealthReport`]: is the write path degraded to read-only, how
//! many rows are durable only in the WAL (replay lag on restart), how
//! hard has the persistence layer been retrying, how deep is the ingest
//! backlog, and what state is every supervised background worker in.
//! A server front-end's `/healthz` is a straight serialization of this
//! struct; the chaos suite asserts on it.

/// One supervised background worker (a merge thread), as seen at the
/// instant of the report.
#[derive(Debug, Clone)]
pub struct WorkerHealth {
    /// Stable worker name, e.g. `merge` or `shard3.merge`.
    pub name: String,
    /// Whether the worker (or its supervisor) is still able to make
    /// progress. `false` means the supervisor exhausted its restart
    /// budget and gave the worker up.
    pub alive: bool,
    /// Panics the supervisor absorbed and restarted from.
    pub restarts: u64,
    /// Message of the most recent absorbed panic, if any.
    pub last_panic: Option<String>,
    /// The core this worker pinned itself to, when core/shard pinning is
    /// active (`None`: pinning disabled, refused by the kernel, or not
    /// applicable to this worker).
    pub pinned_core: Option<usize>,
}

/// A point-in-time health summary of one backend.
///
/// Aggregating backends (the sharded index, the root `Index`) fold their
/// children's reports with [`absorb`](Self::absorb): flags OR, counters
/// add, worker lists concatenate.
#[derive(Debug, Clone, Default)]
pub struct HealthReport {
    /// The engine has entered degraded read-only mode: queries keep
    /// answering off the pinned epoch, writes return
    /// [`PlshError::Degraded`](crate::error::PlshError::Degraded).
    pub degraded: bool,
    /// Why the engine degraded (the persistent I/O error), if it did.
    pub degraded_reason: Option<String>,
    /// Rows of the open generation: durable in its WAL, not yet sealed,
    /// so not yet visible to queries.
    pub wal_lag_rows: usize,
    /// Transient persistence I/O errors absorbed by retry-with-backoff
    /// since the persister attached.
    pub persist_retries: u64,
    /// Sealed delta generations waiting for a background merge — the
    /// merge backlog a `/metrics` scrape wants to watch. Grows while
    /// ingest outruns the merger; a large value means query-side delta
    /// probing is doing extra work.
    pub merge_backlog: usize,
    /// Points answerable right now: inside the sliding window (when one
    /// is configured) and not tombstoned.
    pub live_points: usize,
    /// Window-retired rows still physically resident, awaiting the next
    /// compacting merge. Persistently large means retirement is outrunning
    /// merges.
    pub retired_pending_purge: usize,
    /// Resident points beyond what the window spec allows — how far
    /// retirement lags the configured window (0 without a window).
    pub window_lag: usize,
    /// Every supervised background worker.
    pub workers: Vec<WorkerHealth>,
}

impl HealthReport {
    /// `true` when nothing is wrong: not degraded and every worker alive.
    pub fn healthy(&self) -> bool {
        !self.degraded && self.workers.iter().all(|w| w.alive)
    }

    /// Total supervisor restarts across all workers.
    pub fn total_restarts(&self) -> u64 {
        self.workers.iter().map(|w| w.restarts).sum()
    }

    /// Folds a child backend's report into this one, prefixing its
    /// worker names with `prefix` (e.g. `shard3`) so they stay unique.
    pub fn absorb(&mut self, prefix: &str, child: HealthReport) {
        if child.degraded && !self.degraded {
            self.degraded = true;
            self.degraded_reason = child
                .degraded_reason
                .map(|r| format!("{prefix}: {r}"))
                .or(Some(format!("{prefix} degraded")));
        }
        self.wal_lag_rows += child.wal_lag_rows;
        self.persist_retries += child.persist_retries;
        self.merge_backlog += child.merge_backlog;
        self.live_points += child.live_points;
        self.retired_pending_purge += child.retired_pending_purge;
        self.window_lag += child.window_lag;
        self.workers.extend(child.workers.into_iter().map(|mut w| {
            w.name = format!("{prefix}.{}", w.name);
            w
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_aggregates_and_prefixes() {
        let mut agg = HealthReport::default();
        agg.absorb(
            "shard0",
            HealthReport {
                degraded: false,
                degraded_reason: None,
                wal_lag_rows: 10,
                persist_retries: 2,
                merge_backlog: 1,
                live_points: 100,
                retired_pending_purge: 7,
                window_lag: 1,
                workers: vec![WorkerHealth {
                    name: "ingest".into(),
                    alive: true,
                    restarts: 1,
                    last_panic: None,
                    pinned_core: Some(0),
                }],
            },
        );
        agg.absorb(
            "shard1",
            HealthReport {
                degraded: true,
                degraded_reason: Some("disk gone".into()),
                wal_lag_rows: 3,
                persist_retries: 0,
                merge_backlog: 2,
                live_points: 50,
                retired_pending_purge: 0,
                window_lag: 0,
                workers: vec![WorkerHealth {
                    name: "ingest".into(),
                    alive: false,
                    restarts: 4,
                    last_panic: Some("boom".into()),
                    pinned_core: None,
                }],
            },
        );
        assert!(agg.degraded);
        assert_eq!(agg.degraded_reason.as_deref(), Some("shard1: disk gone"));
        assert_eq!(agg.wal_lag_rows, 13);
        assert_eq!(agg.persist_retries, 2);
        assert_eq!(agg.merge_backlog, 3);
        assert_eq!(agg.live_points, 150);
        assert_eq!(agg.retired_pending_purge, 7);
        assert_eq!(agg.window_lag, 1);
        assert_eq!(agg.total_restarts(), 5);
        assert!(!agg.healthy());
        assert_eq!(agg.workers[1].name, "shard1.ingest");
    }

    #[test]
    fn empty_report_is_healthy() {
        assert!(HealthReport::default().healthy());
    }
}
