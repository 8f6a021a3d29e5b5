//! Work-stealing task pool and data-parallel primitives used throughout PLSH.
//!
//! The PLSH paper parallelizes table construction and query batches with the
//! "task queueing model" of Mohr et al. \[26\]: each unit of work (a
//! first-level partition during construction, a query during search) becomes
//! a task, and idle threads steal tasks from busy ones to keep load balanced.
//! This crate provides exactly that substrate:
//!
//! * [`ThreadPool`] — a fixed-size pool of *persistent* workers with a
//!   shared claim counter per batch and a two-class [`Priority`] scheduler:
//!   foreground batches (query fan-out) always dispatch ahead of background
//!   batches (merge steps), and workers abandon background work between
//!   items when foreground work arrives.
//! * [`ThreadPool::parallel_for`] — dynamic-chunked index-space parallelism
//!   used for the histogram/scatter passes of table construction.
//! * [`ThreadPool::parallel_tasks`] — one-task-per-item parallelism with
//!   dynamic claiming, used for per-query and per-partition work.
//! * [`affinity`] — best-effort `sched_setaffinity` core pinning for
//!   shard-per-core layouts, gated by `PLSH_PIN` and degrading to a logged
//!   no-op when the host or cgroup refuses.
//! * [`exclusive_prefix_sum`] and its in-place twin — the cumulative-sum
//!   step of the tables' counting sort.
//! * [`SharedSliceMut`] — the slice a parallel scatter writes into at
//!   disjoint slots.
//! * [`WorkerLocal`] — lock-free cache-padded per-worker state slots, the
//!   zero-contention substrate for reusable query scratch.
//! * [`EpochPtr`] — an atomically swappable `Arc` with a generation
//!   counter and lock-free readers, the publication primitive behind the
//!   streaming engine's epoch-swapped tables.
//!
//! The pool is deliberately small and synchronous: every entry point
//! blocks until all submitted work completes (the submitting thread
//! participates in execution), so callers never deal with futures or
//! detached lifetimes and closures may borrow the caller's stack. Panics
//! are caught per-task and re-thrown on the caller thread after the batch
//! drains, so a panicking task cannot deadlock the pool.

pub mod affinity;
mod epoch;
mod pool;
mod prefix;
mod scatter;
mod worker_local;

pub use epoch::EpochPtr;
pub use pool::{current_num_threads_hint, pinned_worker_count, Priority, ThreadPool};
pub use prefix::{exclusive_prefix_sum, exclusive_prefix_sum_in_place};
pub use scatter::SharedSliceMut;
pub use worker_local::WorkerLocal;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_simple_tasks() {
        let pool = ThreadPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.parallel_tasks(0..100usize, |_i| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn parallel_for_covers_every_index_exactly_once() {
        let pool = ThreadPool::new(3);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(0, hits.len(), 7, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_empty_range_is_noop() {
        let pool = ThreadPool::new(2);
        let counter = AtomicUsize::new(0);
        pool.parallel_for(5, 5, 16, |_range| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn single_threaded_pool_works() {
        let pool = ThreadPool::new(1);
        let counter = AtomicUsize::new(0);
        pool.parallel_tasks(0..17usize, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 17);
    }
}
