//! Load generation: the open-loop scheduler (requests leave on a fixed
//! schedule and are timed from when they were *due*, so a stall shows up
//! in the latency of every request it delayed) and the rate-ladder / SLO
//! decision.

use crate::stats::{percentile_sorted, Latencies, Timeline, P50};
use std::time::{Duration, Instant};

/// What one open-loop sender observed.
#[derive(Debug, Clone, Default)]
pub struct OpenLoopSamples {
    /// Completion time minus due time, one per operation.
    pub latency: Latencies,
    /// Send time minus due time: how late the generator itself ran.
    pub late: Latencies,
    /// When each operation was due, as an offset from the phase start.
    pub due_offsets: Vec<Duration>,
    pub failed: u64,
}

/// Issues `op(i, due)` at `start + i / rate` for every due time before
/// `start + length`, one at a time. `op` returns whether it succeeded. A
/// sender that falls behind sends back-to-back until it has caught up —
/// it never skips, so the backlog is visible as latency.
pub fn run_open_loop(
    start: Instant,
    rate_per_s: f64,
    length: Duration,
    mut op: impl FnMut(u64, Instant) -> bool,
) -> OpenLoopSamples {
    let interval = Duration::from_secs_f64(1.0 / rate_per_s);
    let mut out = OpenLoopSamples::default();
    for i in 0.. {
        let offset = interval.mul_f64(i as f64);
        if offset >= length {
            break;
        }
        let due = start + offset;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let ok = op(i, due);
        let done = Instant::now();
        out.latency.push(done - due);
        out.late.push(sent.saturating_duration_since(due));
        out.due_offsets.push(offset);
        if !ok {
            out.failed += 1;
        }
    }
    out
}

/// One rung of the rate ladder, merged over its senders. Latencies are
/// medians over the rung's time slices, like every reported timing (a
/// single burst from a noisy neighbour must not decide the SLO); the
/// whole-rung p99 is kept beside them for the record.
#[derive(Debug, Clone)]
pub struct Rung {
    pub rate_rps: u32,
    pub samples: usize,
    pub failed: u64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub whole_p99_ms: f64,
    /// Median latency-from-due of the rung's first and second half: a
    /// rate the system cannot sustain shows as a backlog that grows.
    pub first_half_p50_ms: f64,
    pub second_half_p50_ms: f64,
}

impl Rung {
    pub fn from_samples(
        rate_rps: u32,
        length: Duration,
        senders: &[OpenLoopSamples],
        timeline: &Timeline,
    ) -> Rung {
        let mut all = Latencies::default();
        let (mut first, mut second) = (Vec::new(), Vec::new());
        let mut failed = 0;
        for s in senders {
            all.extend(&s.latency);
            failed += s.failed;
            for (&ms, &off) in s.latency.raw().iter().zip(&s.due_offsets) {
                if off < length / 2 {
                    first.push(ms);
                } else {
                    second.push(ms);
                }
            }
        }
        let sliced = timeline.sliced(length, crate::workloads::SLICES);
        let half_p50 = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            if v.is_empty() {
                0.0
            } else {
                percentile_sorted(v, P50)
            }
        };
        Rung {
            rate_rps,
            samples: all.len(),
            failed,
            p50_ms: sliced.p50_ms,
            p99_ms: sliced.p99_ms,
            whole_p99_ms: all.p50_p99().1,
            first_half_p50_ms: half_p50(&mut first),
            second_half_p50_ms: half_p50(&mut second),
        }
    }

    /// Backlog growth: the second half's median latency exceeds the first
    /// half's by more than the SLO itself allows for noise.
    fn backlog_grows(&self, limit_ms: f64) -> bool {
        self.second_half_p50_ms > self.first_half_p50_ms + limit_ms / 2.0
    }

    pub fn meets(&self, limit_ms: f64) -> bool {
        self.failed == 0
            && self.samples > 0
            && self.p99_ms <= limit_ms
            && !self.backlog_grows(limit_ms)
    }
}

/// The highest rung that meets the limit with every lower rung meeting it
/// too (0 when the lowest rung already misses).
pub fn slo_rate(rungs: &[Rung], limit_ms: f64) -> u32 {
    let mut best = 0;
    for r in rungs {
        if !r.meets(limit_ms) {
            break;
        }
        best = r.rate_rps;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_times_from_due_so_a_stall_inflates_later_requests() {
        // 200 ops/s = one every 5 ms; op 3 stalls for 50 ms. Ops 4..=12
        // were due during the stall: timed from their due time they must
        // show the wait (45, 40, 35 ... ms), not a sub-millisecond call.
        let start = Instant::now();
        let s = run_open_loop(start, 200.0, Duration::from_millis(150), |i, _due| {
            if i == 3 {
                std::thread::sleep(Duration::from_millis(50));
            }
            true
        });
        assert_eq!(s.latency.len(), 30);
        let ms = s.latency.raw();
        assert!(ms[3] >= 50.0, "the stalled op itself: {}", ms[3]);
        assert!(ms[4] >= 40.0, "op due 5 ms into the stall: {}", ms[4]);
        assert!(ms[8] >= 20.0, "op due 25 ms into the stall: {}", ms[8]);
        assert!(
            ms[4] > ms[8] && ms[8] > ms[12],
            "the backlog drains: {} {} {}",
            ms[4],
            ms[8],
            ms[12]
        );
        // Before the stall, and once the backlog has drained, latency is
        // the op itself.
        assert!(ms[1] < 5.0 && ms[25] < 5.0, "{} {}", ms[1], ms[25]);
        // The generator reports its own lateness for the delayed sends.
        assert!(s.late.raw()[4] >= 40.0);
        assert_eq!(s.failed, 0);
    }

    fn rung(rate: u32, p99: f64, failed: u64, first: f64, second: f64) -> Rung {
        Rung {
            rate_rps: rate,
            samples: 1000,
            failed,
            p50_ms: first,
            p99_ms: p99,
            whole_p99_ms: p99,
            first_half_p50_ms: first,
            second_half_p50_ms: second,
        }
    }

    #[test]
    fn slo_rate_is_the_highest_rung_that_meets_the_limit() {
        let limit = 5.0;
        let ok = |rate| rung(rate, 2.0, 0, 0.5, 0.6);
        assert_eq!(
            slo_rate(&[ok(1000), ok(2000), ok(4000), ok(8000)], limit),
            8000
        );
        // p99 over the limit.
        assert_eq!(
            slo_rate(
                &[ok(1000), ok(2000), rung(4000, 5.1, 0, 0.5, 0.6), ok(8000)],
                limit
            ),
            2000,
            "a rung above a failed rung does not count"
        );
        // One failed (shed / errored / wrong) request misses the limit.
        assert_eq!(
            slo_rate(&[ok(1000), rung(2000, 2.0, 1, 0.5, 0.6)], limit),
            1000
        );
        // p99 still inside the limit but the backlog is growing.
        assert_eq!(
            slo_rate(&[ok(1000), rung(2000, 4.9, 0, 0.5, 3.2)], limit),
            1000
        );
        assert_eq!(slo_rate(&[rung(1000, 9.0, 0, 0.5, 0.6)], limit), 0);
    }

    #[test]
    fn rung_splits_halves_by_due_time() {
        let mut s = OpenLoopSamples::default();
        let mut timeline = Timeline::default();
        for i in 0..100u64 {
            let late = Duration::from_millis(if i < 50 { 1 } else { 9 });
            let due = Duration::from_millis(10 * i);
            s.latency.push(late);
            s.late.push(Duration::ZERO);
            s.due_offsets.push(due);
            timeline.push(due, late, 1.0);
        }
        let r = Rung::from_samples(100, Duration::from_secs(1), &[s], &timeline);
        assert_eq!((r.first_half_p50_ms, r.second_half_p50_ms), (1.0, 9.0));
        assert_eq!((r.samples, r.whole_p99_ms), (100, 9.0));
        assert!(!r.meets(5.0));
    }
}
