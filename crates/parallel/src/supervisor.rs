//! Supervision primitives for background workers: bounded exponential
//! backoff with jitter, and shared worker-status cells.
//!
//! The streaming stack's long-lived workers are its background merge
//! threads, one per engine (so one per shard). Each runs its work under
//! `catch_unwind` and, on a panic, consults a [`Backoff`] for how long to
//! wait before restarting and a [`WorkerStatus`] to record what happened
//! so `health()` callers can see it. The restart budget is bounded: a
//! worker that keeps panicking is marked dead rather than spun forever.

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Bounded exponential backoff with deterministic jitter.
///
/// Delays start at `base`, double per consultation, and cap at `cap`;
/// each delay gets up to +50% jitter from a seeded SplitMix64 stream so
/// restarting workers don't stampede in lockstep, while runs with the
/// same seed reproduce exactly.
#[derive(Debug)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    next: Duration,
    rng: u64,
}

impl Backoff {
    /// A backoff starting at `base`, capped at `cap`, jittered by `seed`.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        Self {
            base,
            cap,
            next: base,
            rng: seed,
        }
    }

    fn next_u64(&mut self) -> u64 {
        // SplitMix64 (Steele et al.) — tiny, seedable, good enough for
        // jitter; inlined to keep this crate dependency-free.
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The delay to sleep before the next restart attempt (and advances
    /// the schedule).
    pub fn next_delay(&mut self) -> Duration {
        let current = self.next;
        self.next = (self.next * 2).min(self.cap);
        let jitter_ns = if current.is_zero() {
            0
        } else {
            self.next_u64() % (current.as_nanos() as u64 / 2).max(1)
        };
        current + Duration::from_nanos(jitter_ns)
    }

    /// Resets the schedule to `base` (call after a healthy stretch).
    pub fn reset(&mut self) {
        self.next = self.base;
    }
}

/// Shared status cell for one supervised worker. The worker (or its
/// supervisor loop) writes; `health()` readers snapshot.
#[derive(Debug, Default)]
pub struct WorkerStatus {
    dead: AtomicBool,
    restarts: AtomicU64,
    last_panic: Mutex<Option<String>>,
}

impl WorkerStatus {
    /// A fresh, alive status.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the worker can still make progress (`false` once the
    /// supervisor exhausted its restart budget).
    pub fn alive(&self) -> bool {
        !self.dead.load(Ordering::Relaxed)
    }

    /// The supervisor gave this worker up.
    pub fn mark_dead(&self) {
        self.dead.store(true, Ordering::Relaxed);
    }

    /// Revive after an external recovery (e.g. a heal + fresh spawn).
    pub fn mark_alive(&self) {
        self.dead.store(false, Ordering::Relaxed);
    }

    /// Panics absorbed and restarted from.
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Record one absorbed panic (call before the backoff sleep).
    pub fn record_restart(&self, payload: &(dyn Any + Send)) {
        self.restarts.fetch_add(1, Ordering::Relaxed);
        *self.last_panic.lock().unwrap_or_else(|e| e.into_inner()) = Some(panic_message(payload));
    }

    /// Message of the most recent absorbed panic.
    pub fn last_panic(&self) -> Option<String> {
        self.last_panic
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// Extracts a human-readable message from a `catch_unwind` payload.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_caps_and_jitters_bounded() {
        let base = Duration::from_millis(4);
        let cap = Duration::from_millis(20);
        let mut b = Backoff::new(base, cap, 7);
        let d1 = b.next_delay();
        assert!(d1 >= base && d1 < base + base / 2 + Duration::from_nanos(1));
        let d2 = b.next_delay();
        assert!(d2 >= base * 2 && d2 < base * 3);
        let _ = b.next_delay();
        let d4 = b.next_delay();
        assert!(
            d4 >= cap && d4 < cap + cap / 2 + Duration::from_nanos(1),
            "capped at {cap:?}, got {d4:?}"
        );
        b.reset();
        assert!(b.next_delay() < base * 2);
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let mk = || {
            let mut b = Backoff::new(Duration::from_millis(1), Duration::from_millis(8), 42);
            (0..5).map(|_| b.next_delay()).collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn worker_status_lifecycle() {
        let s = WorkerStatus::new();
        assert!(s.alive());
        assert_eq!(s.restarts(), 0);
        let payload = std::panic::catch_unwind(|| panic!("kaboom {}", 1)).unwrap_err();
        s.record_restart(payload.as_ref());
        assert_eq!(s.restarts(), 1);
        assert_eq!(s.last_panic().as_deref(), Some("kaboom 1"));
        s.mark_dead();
        assert!(!s.alive());
        s.mark_alive();
        assert!(s.alive());
    }

    #[test]
    fn panic_message_handles_str_and_string() {
        let p = std::panic::catch_unwind(|| panic!("static str")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "static str");
        let p = std::panic::catch_unwind(|| std::panic::panic_any(3u32)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "non-string panic payload");
    }
}
