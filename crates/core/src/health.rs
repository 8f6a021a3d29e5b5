//! Liveness, degradation, and merge-failure reporting.
//!
//! Every backend — [`Engine`](crate::engine::Engine),
//! [`StreamingEngine`](crate::streaming::StreamingEngine), the sharded
//! cluster, and the root `plsh::Index` — answers `health()` with the
//! same [`HealthReport`]: is the write path degraded to read-only, how
//! many rows are durable only in the WAL (replay lag on restart), how
//! hard has the persistence layer been retrying, how deep is the ingest
//! backlog, and how many background merges have panicked.
//! A server front-end's `/healthz` is a straight serialization of this
//! struct; the chaos suite asserts on it.

/// A point-in-time health summary of one backend.
///
/// Aggregating backends (the sharded index, the root `Index`) fold their
/// children's reports with [`absorb`](Self::absorb): flags OR, counters
/// add, the last child's merge-failure message wins.
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
    /// Background merges that panicked. A panicked merge publishes
    /// nothing; the next trigger (an insert past `η·C`, a flush, or a
    /// writer short of room) runs it again.
    pub merge_failures: u64,
    /// The most recent merge panic's message, if any.
    pub last_merge_failure: Option<String>,
}

impl HealthReport {
    /// `true` when the write path is not degraded. A merge failure is not
    /// unhealthy: the next trigger retries it.
    pub fn healthy(&self) -> bool {
        !self.degraded
    }

    /// Folds a child backend's report into this one, prefixing its
    /// degrade reason and merge-failure message with `prefix` (e.g.
    /// `shard3`).
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
        self.merge_failures += child.merge_failures;
        if let Some(msg) = child.last_merge_failure {
            self.last_merge_failure = Some(format!("{prefix}.{msg}"));
        }
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
                merge_failures: 1,
                last_merge_failure: Some("first".into()),
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
                merge_failures: 4,
                last_merge_failure: Some("boom".into()),
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
        assert_eq!(agg.merge_failures, 5);
        assert_eq!(agg.last_merge_failure.as_deref(), Some("shard1.boom"));
        assert!(!agg.healthy());
    }

    #[test]
    fn empty_report_is_healthy() {
        assert!(HealthReport::default().healthy());
    }
}
