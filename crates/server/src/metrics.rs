//! Server-side request telemetry behind `GET /metrics`.
//!
//! Everything is lock-free atomics so the hot path costs a handful of
//! relaxed increments: per-status counters, a shed counter, a live queue
//! depth gauge, a log2-bucketed latency histogram for p50/p99, and a
//! 16-slot per-second ring for a trailing-10s qps estimate. Backend-side
//! gauges (epoch generation, merge backlog, merge failures) are *not*
//! stored here — the `/metrics` handler reads them live off the index so
//! they can never go stale.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// log2(µs) buckets; bucket 40 covers ~18 minutes, far past any deadline.
const HIST_BUCKETS: usize = 40;

/// Ring slots for the qps window. Only the trailing [`QPS_WINDOW_SECS`]
/// complete seconds are summed; extra slots absorb scrape/record races.
const RING_SLOTS: usize = 16;
const QPS_WINDOW_SECS: u64 = 10;

/// Shared, append-only request telemetry. One instance per server.
pub struct Metrics {
    start: Instant,
    requests_total: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    shed_total: AtomicU64,
    queue_depth: AtomicU64,
    hist: [AtomicU64; HIST_BUCKETS],
    ring_second: [AtomicU64; RING_SLOTS],
    ring_count: [AtomicU64; RING_SLOTS],
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics {
            start: Instant::now(),
            requests_total: AtomicU64::new(0),
            responses_4xx: AtomicU64::new(0),
            responses_5xx: AtomicU64::new(0),
            shed_total: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            hist: std::array::from_fn(|_| AtomicU64::new(0)),
            ring_second: std::array::from_fn(|_| AtomicU64::new(0)),
            ring_count: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one answered request (any status) and its wall latency.
    pub fn record(&self, status: u16, latency: Duration) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        match status {
            400..=499 => {
                self.responses_4xx.fetch_add(1, Ordering::Relaxed);
            }
            500..=599 => {
                self.responses_5xx.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        self.hist[Self::bucket(latency)].fetch_add(1, Ordering::Relaxed);

        // Per-second ring: claim the slot for the current second, resetting
        // it if it still holds an older second's count. The CAS race on
        // rollover can drop a handful of counts; qps is an estimate.
        let sec = self.start.elapsed().as_secs();
        let slot = (sec % RING_SLOTS as u64) as usize;
        let stored = self.ring_second[slot].load(Ordering::Relaxed);
        if stored != sec
            && self.ring_second[slot]
                .compare_exchange(stored, sec, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            self.ring_count[slot].store(0, Ordering::Relaxed);
        }
        self.ring_count[slot].fetch_add(1, Ordering::Relaxed);
    }

    /// Count a request rejected by load shedding (429/503 + Retry-After).
    /// The shed response itself is also `record`ed by the caller.
    pub fn record_shed(&self) {
        self.shed_total.fetch_add(1, Ordering::Relaxed);
    }

    pub fn queue_entered(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    pub fn queue_left(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    fn bucket(latency: Duration) -> usize {
        let us = latency.as_micros().max(1) as u64;
        ((63 - us.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }

    /// Upper bound (ms) of the histogram bucket holding the `pct`-th
    /// percentile request, or 0 when nothing has been recorded.
    pub fn percentile_ms(&self, pct: f64) -> f64 {
        let counts: Vec<u64> = self
            .hist
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((pct / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0;
        for (i, c) in counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return 2f64.powi(i as i32 + 1) / 1000.0;
            }
        }
        2f64.powi(HIST_BUCKETS as i32) / 1000.0
    }

    /// Requests per second over the trailing complete window.
    pub fn qps(&self) -> f64 {
        let now = self.start.elapsed().as_secs();
        // Skip the in-progress second; average over up to the previous 10.
        let window_end = now; // exclusive
        let window_start = window_end.saturating_sub(QPS_WINDOW_SECS);
        let mut sum = 0u64;
        for slot in 0..RING_SLOTS {
            let sec = self.ring_second[slot].load(Ordering::Relaxed);
            if sec >= window_start && sec < window_end {
                sum += self.ring_count[slot].load(Ordering::Relaxed);
            }
        }
        let elapsed = window_end.clamp(1, QPS_WINDOW_SECS);
        sum as f64 / elapsed as f64
    }

    pub fn requests_total(&self) -> u64 {
        self.requests_total.load(Ordering::Relaxed)
    }

    pub fn responses_4xx(&self) -> u64 {
        self.responses_4xx.load(Ordering::Relaxed)
    }

    pub fn responses_5xx(&self) -> u64 {
        self.responses_5xx.load(Ordering::Relaxed)
    }

    pub fn shed_total(&self) -> u64 {
        self.shed_total.load(Ordering::Relaxed)
    }

    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_track_recorded_latencies() {
        let m = Metrics::new();
        for _ in 0..99 {
            m.record(200, Duration::from_micros(100)); // bucket ~128µs
        }
        m.record(200, Duration::from_millis(50)); // far tail
        let p50 = m.percentile_ms(50.0);
        let p99 = m.percentile_ms(99.0);
        assert!(p50 <= 0.256, "p50 {p50}");
        assert!(
            p99 <= 0.256,
            "p99 {p99} should still sit in the fast bucket"
        );
        let p100 = m.percentile_ms(100.0);
        assert!(p100 >= 50.0, "p100 {p100} must reach the tail bucket");
    }

    #[test]
    fn status_classes_are_counted() {
        let m = Metrics::new();
        m.record(200, Duration::from_micros(10));
        m.record(404, Duration::from_micros(10));
        m.record(500, Duration::from_micros(10));
        m.record_shed();
        assert_eq!(m.requests_total(), 3);
        assert_eq!(m.responses_4xx(), 1);
        assert_eq!(m.responses_5xx(), 1);
        assert_eq!(m.shed_total(), 1);
    }

    #[test]
    fn queue_depth_gauges() {
        let m = Metrics::new();
        m.queue_entered();
        m.queue_entered();
        m.queue_left();
        assert_eq!(m.queue_depth(), 1);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let m = Metrics::new();
        assert_eq!(m.percentile_ms(99.0), 0.0);
        assert_eq!(m.qps(), 0.0);
    }
}
