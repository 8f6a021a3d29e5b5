//! The disjoint-write slice behind every parallel scatter.

use std::cell::UnsafeCell;

/// A slice that multiple worker threads scatter into at provably disjoint
/// positions (the global offsets computed by the partition prefix sums).
///
/// The partitioning algorithm of Kim et al. \[21\] assigns every element a
/// unique destination slot before the scatter pass, so concurrent writes
/// never alias; this wrapper just lets us express that to the compiler.
pub struct SharedSliceMut<'a, T> {
    data: &'a [UnsafeCell<T>],
}

// SAFETY: `data`, the one field, is reached only through `write`, whose
// contract forbids two threads touching one slot; the values written move
// to the slice's owner across threads, hence `T: Send`.
unsafe impl<T: Send> Send for SharedSliceMut<'_, T> {}
unsafe impl<T: Send> Sync for SharedSliceMut<'_, T> {}

impl<'a, T> SharedSliceMut<'a, T> {
    /// Wraps a mutable slice for disjoint concurrent writes.
    pub fn new(slice: &'a mut [T]) -> Self {
        // SAFETY: `&mut [T]` guarantees exclusive access; `UnsafeCell<T>`
        // has the same layout as `T`.
        let data = unsafe { &*(slice as *mut [T] as *const [UnsafeCell<T>]) };
        Self { data }
    }

    /// Writes `value` into slot `idx`.
    ///
    /// # Safety
    /// Each slot must be written by at most one thread during the lifetime
    /// of this wrapper, and no reads may occur until all writers finish.
    #[inline]
    pub unsafe fn write(&self, idx: usize, value: T) {
        debug_assert!(idx < self.data.len());
        *self.data[idx].get() = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadPool;

    #[test]
    fn shared_slice_disjoint_writes() {
        let mut v = vec![0u32; 64];
        {
            let shared = SharedSliceMut::new(&mut v);
            // Two "threads" writing disjoint halves (sequential here; the
            // aliasing rules are what is under test).
            for i in 0..32 {
                unsafe { shared.write(i, i as u32) };
            }
            for i in 32..64 {
                unsafe { shared.write(i, (i * 2) as u32) };
            }
        }
        for (i, &x) in v.iter().enumerate() {
            let expect = if i < 32 { i as u32 } else { (i * 2) as u32 };
            assert_eq!(x, expect);
        }
    }

    #[test]
    fn shared_slice_parallel_scatter() {
        let pool = ThreadPool::new(4);
        let n = 10_000;
        let mut v = vec![0u64; n];
        {
            let shared = SharedSliceMut::new(&mut v);
            let shared = &shared;
            pool.parallel_for(0, n, 128, |range| {
                for i in range {
                    // Unique destination per index: reverse permutation.
                    unsafe { shared.write(n - 1 - i, i as u64) };
                }
            });
        }
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, (n - 1 - i) as u64);
        }
    }
}
