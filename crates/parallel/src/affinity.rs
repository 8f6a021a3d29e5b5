//! Optional CPU affinity for long-lived workers.
//!
//! Shard-per-core deployments pin each shard's merge worker to the
//! shard's core so background work never migrates onto the cores
//! serving queries (the paper's "one thread per core" discipline from the
//! Section 5 experimental setup, applied to the streaming stack). Pinning
//! is strictly an optimization and must never be a correctness dependency:
//!
//! * the `PLSH_PIN=off` (or `0` / `false`) environment variable disables
//!   every pin request process-wide;
//! * a host with a single hardware thread has nothing to pin across, so
//!   requests are skipped;
//! * a failing `sched_setaffinity` (restricted cgroup cpusets, exotic
//!   kernels, non-Linux targets) degrades to a logged no-op — the first
//!   failure prints one diagnostic to stderr, later ones stay silent.
//!
//! The syscall is declared inline (the same pattern as the `madvise` hint
//! in `plsh-core`'s util module) so the crate stays free of FFI
//! dependencies.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};

/// Hardware threads the OS reports for this process (the paper's `T`).
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Tri-state cache of the `PLSH_PIN` decision: 0 = unresolved, 1 = on,
/// 2 = off.
static PIN_STATE: AtomicU8 = AtomicU8::new(0);

/// One-shot latch for the "pinning failed" diagnostic.
static PIN_WARNED: AtomicBool = AtomicBool::new(false);

/// Decides whether an explicit `PLSH_PIN` setting disables pinning.
/// Anything other than `off` / `0` / `false` (case-insensitive) leaves
/// pinning enabled; unset means enabled.
fn pin_allowed_from(env: Option<&str>) -> bool {
    match env {
        Some(v) => {
            let v = v.trim().to_ascii_lowercase();
            !(v == "off" || v == "0" || v == "false")
        }
        None => true,
    }
}

/// Whether pin requests are currently honored: `PLSH_PIN` not set to
/// off, and the host actually has more than one hardware thread. The env
/// decision is cached on first call.
pub fn pinning_enabled() -> bool {
    let allowed = match PIN_STATE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let allowed = pin_allowed_from(std::env::var("PLSH_PIN").ok().as_deref());
            PIN_STATE.store(if allowed { 1 } else { 2 }, Ordering::Relaxed);
            allowed
        }
    };
    allowed && host_threads() >= 2
}

/// Pins the calling thread to `core`. Returns `true` only when the
/// affinity mask was actually installed; every failure mode (pinning
/// disabled, single-threaded host, out-of-range core, denied syscall)
/// returns `false` and the caller proceeds unpinned.
pub fn pin_current_thread(core: usize) -> bool {
    if !pinning_enabled() {
        return false;
    }
    let ok = pin_syscall(core);
    if !ok && !PIN_WARNED.swap(true, Ordering::Relaxed) {
        eprintln!(
            "plsh: pinning thread to core {core} failed (restricted cpuset?); \
             continuing unpinned"
        );
    }
    ok
}

#[cfg(target_os = "linux")]
fn pin_syscall(core: usize) -> bool {
    // Inline declaration instead of a libc dependency; glibc and musl both
    // export this symbol with the kernel's cpu_set_t ABI (a plain bitmask).
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    const MASK_WORDS: usize = 16; // 1024 CPUs, glibc's CPU_SETSIZE
    if core >= MASK_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[core / 64] |= 1u64 << (core % 64);
    // SAFETY: the mask outlives the call and the size matches the buffer.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn pin_syscall(_core: usize) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_off_values_disable_pinning() {
        for v in ["off", "OFF", "0", "false", " False "] {
            assert!(!pin_allowed_from(Some(v)), "{v:?} must disable pinning");
        }
        for v in ["on", "1", "true", ""] {
            assert!(pin_allowed_from(Some(v)), "{v:?} must keep pinning on");
        }
        assert!(pin_allowed_from(None));
    }

    #[test]
    fn out_of_range_core_degrades_to_noop() {
        // Whatever the host and env, a preposterous core id must come back
        // as a plain `false` — never a panic or an error.
        assert!(!pin_current_thread(usize::MAX));
    }

    #[test]
    fn pin_current_thread_never_panics_on_core_zero() {
        // On a pinnable host this succeeds; on a 1-thread host or under
        // PLSH_PIN=off it is a no-op. Both are fine — the contract is
        // "bool, no panic".
        let _ = pin_current_thread(0);
    }

    #[test]
    fn host_threads_is_positive() {
        assert!(host_threads() >= 1);
    }
}
