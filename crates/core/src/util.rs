//! Internal utilities: the huge-page buffer that holds every hot array,
//! and the software-prefetch primitive.

use std::alloc::{handle_alloc_error, Layout};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Hints the hardware to pull the cache line holding `ptr` into L1.
///
/// A no-op on architectures without an exposed prefetch intrinsic. Safe to
/// call with any address derived from a live borrow — prefetch never
/// faults and never changes observable behavior, only timing.
#[inline(always)]
pub(crate) fn prefetch_read<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; it cannot fault or write.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch(ptr as *const i8, _MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = ptr;
    }
}

/// Size and alignment of a transparent huge page on x86-64 and arm64.
pub(crate) const HUGE_PAGE: usize = 2 << 20;

/// Element types a [`HugeVec`] stores: plain data with no drop glue, for
/// which all-zero bytes are a valid value, and whose size divides
/// [`HUGE_PAGE`].
///
/// # Safety
/// Implementors must satisfy all three conditions.
pub(crate) unsafe trait Pod: Copy + Send + Sync + 'static {}

// SAFETY: primitive integers and floats of 4 or 8 bytes meet every
// condition.
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for usize {}
unsafe impl Pod for f32 {}

/// A growable array, like `Vec<T>`, whose storage of [`HUGE_PAGE`] bytes
/// or more is its own 2 MB-aligned mapping, advised for transparent huge
/// pages (`madvise(MADV_HUGEPAGE)`) before any byte of it is written.
/// Below that size it allocates as `Vec` does.
///
/// This is the paper's "large 2 MB pages" optimization (Section 5.2.2).
/// The static tables, the corpus rows and the hyperplanes are read at
/// random by every query, so on 4 KB pages most of Q2's and Q3's misses
/// also miss the TLB. Advice given after the pages are written comes too
/// late — they were faulted in as 4 KB pages, which at best a background
/// scan collapses later — and a region that spans no whole aligned 2 MB
/// page cannot get one, so both the alignment and the timing live here,
/// in the allocator. A huge buffer wastes at most the untouched part of
/// its last 2 MB page.
pub(crate) struct HugeVec<T: Pod> {
    ptr: NonNull<T>,
    len: usize,
    cap: usize,
}

// SAFETY: a `HugeVec` owns its storage, as `Vec` does, and `T: Send + Sync`.
unsafe impl<T: Pod> Send for HugeVec<T> {}
unsafe impl<T: Pod> Sync for HugeVec<T> {}

impl<T: Pod> HugeVec<T> {
    /// An empty buffer; allocates nothing.
    pub(crate) const fn new() -> Self {
        Self {
            ptr: NonNull::dangling(),
            len: 0,
            cap: 0,
        }
    }

    /// An empty buffer with room for at least `cap` elements.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        let mut v = Self::new();
        v.reserve(cap);
        v
    }

    /// `len` zero elements. A huge buffer's pages stay untouched until
    /// first written: a fresh mapping reads as zeros.
    pub(crate) fn zeroed(len: usize) -> Self {
        let mut v = Self::new();
        if len > 0 {
            (v.ptr, v.cap) = alloc::<T>(len, true);
            v.len = len;
        }
        v
    }

    /// A copy of `data`.
    pub(crate) fn from_slice(data: &[T]) -> Self {
        let mut v = Self::with_capacity(data.len());
        v.extend_from_slice(data);
        v
    }

    /// Elements the storage holds.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.cap
    }

    /// Makes room for `additional` more elements, at least doubling the
    /// capacity when it grows, as `Vec` does.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let need = self.len.checked_add(additional).expect("capacity overflow");
        if need > self.cap {
            self.grow_to(need.max(self.cap * 2).max(4));
        }
    }

    /// Appends `value`.
    #[inline]
    pub(crate) fn push(&mut self, value: T) {
        if self.len == self.cap {
            self.reserve(1);
        }
        // SAFETY: `len < cap` after the reserve.
        unsafe { self.ptr.as_ptr().add(self.len).write(value) };
        self.len += 1;
    }

    /// Appends every element of `data`.
    pub(crate) fn extend_from_slice(&mut self, data: &[T]) {
        self.reserve(data.len());
        // SAFETY: the reserve made room for `data.len()` more elements,
        // and `data` cannot alias storage this `&mut self` owns.
        unsafe {
            std::ptr::copy_nonoverlapping(
                data.as_ptr(),
                self.ptr.as_ptr().add(self.len),
                data.len(),
            );
        }
        self.len += data.len();
    }

    /// Keeps the first `len` elements; the capacity stays.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
    }

    /// Moves the elements into storage for exactly `cap` of them, which
    /// then takes the path [`alloc`] picks for that size.
    fn grow_to(&mut self, cap: usize) {
        debug_assert!(cap >= self.len);
        let (ptr, cap) = alloc::<T>(cap, false);
        if self.cap > 0 {
            // SAFETY: both regions are live and distinct, and the old one
            // holds `len` initialized elements.
            unsafe {
                std::ptr::copy_nonoverlapping(self.ptr.as_ptr(), ptr.as_ptr(), self.len);
                dealloc(self.ptr, self.cap);
            }
        }
        self.ptr = ptr;
        self.cap = cap;
    }
}

impl<T: Pod> Drop for HugeVec<T> {
    fn drop(&mut self) {
        if self.cap > 0 {
            // SAFETY: `ptr`/`cap` came from `alloc`.
            unsafe { dealloc(self.ptr, self.cap) };
        }
    }
}

impl<T: Pod> Clone for HugeVec<T> {
    fn clone(&self) -> Self {
        Self::from_slice(self)
    }
}

impl<T: Pod + fmt::Debug> fmt::Debug for HugeVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Pod> Deref for HugeVec<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: the first `len` elements are initialized.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Pod> DerefMut for HugeVec<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as for `deref`, and `&mut self` is exclusive.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<T: Pod> Extend<T> for HugeVec<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        let iter = iter.into_iter();
        self.reserve(iter.size_hint().0);
        iter.for_each(|x| self.push(x));
    }
}

/// Whether storage for `cap` elements is a huge mapping.
#[inline]
fn is_huge<T>(cap: usize) -> bool {
    cap.saturating_mul(std::mem::size_of::<T>()) >= HUGE_PAGE
}

/// Storage for at least `cap > 0` elements, and the capacity it holds: a
/// huge mapping, rounded up to whole huge pages and always zero-filled,
/// or a `Vec`-style allocation of exactly `cap`, zero-filled if `zero`.
fn alloc<T: Pod>(cap: usize, zero: bool) -> (NonNull<T>, usize) {
    let size = std::mem::size_of::<T>();
    if is_huge::<T>(cap) {
        let bytes = cap
            .checked_mul(size)
            .and_then(|b| b.checked_next_multiple_of(HUGE_PAGE))
            .expect("capacity overflow");
        (sys::map(bytes).cast(), bytes / size)
    } else {
        let layout = Layout::array::<T>(cap).expect("capacity overflow");
        // SAFETY: `layout` has a non-zero size.
        let ptr = unsafe {
            if zero {
                std::alloc::alloc_zeroed(layout)
            } else {
                std::alloc::alloc(layout)
            }
        };
        let ptr = NonNull::new(ptr.cast()).unwrap_or_else(|| handle_alloc_error(layout));
        (ptr, cap)
    }
}

/// Frees what `alloc` returned for `cap` elements.
///
/// # Safety
/// `ptr` and `cap` must be a live pair from `alloc`.
unsafe fn dealloc<T: Pod>(ptr: NonNull<T>, cap: usize) {
    if is_huge::<T>(cap) {
        sys::unmap(ptr.cast(), cap * std::mem::size_of::<T>());
    } else {
        std::alloc::dealloc(
            ptr.as_ptr().cast(),
            Layout::array::<T>(cap).expect("the layout `alloc` made"),
        );
    }
}

/// Huge mappings. On Linux the syscalls are declared inline, so the crate
/// needs no `libc` dependency; elsewhere a huge buffer is a 2 MB-aligned
/// heap allocation and nothing is advised.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use std::ffi::c_void;
    use std::ptr::NonNull;

    use super::HUGE_PAGE;

    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_PRIVATE: i32 = 2;
    const MAP_ANONYMOUS: i32 = 0x20;
    const MADV_HUGEPAGE: i32 = 14;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            off: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
        fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
    }

    /// A fresh, zero-filled, 2 MB-aligned mapping of `bytes` (a multiple
    /// of `HUGE_PAGE`), advised for huge pages before it is touched.
    pub(super) fn map(bytes: usize) -> NonNull<u8> {
        // Over-map by one huge page, then unmap the unaligned head and the
        // rest of the tail.
        let span = bytes.checked_add(HUGE_PAGE).expect("capacity overflow");
        // SAFETY: an anonymous private mapping at an address of the
        // kernel's choosing touches no existing memory.
        let raw = unsafe {
            mmap(
                std::ptr::null_mut(),
                span,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if raw as isize == -1 {
            std::alloc::handle_alloc_error(
                std::alloc::Layout::from_size_align(bytes, HUGE_PAGE).expect("a valid layout"),
            );
        }
        let start = raw as usize;
        let aligned = start.next_multiple_of(HUGE_PAGE);
        // SAFETY: both trimmed ranges lie inside the mapping just made and
        // outside the aligned range kept. MADV_HUGEPAGE is advisory: a
        // kernel that refuses it leaves 4 KB pages, with the same contents.
        unsafe {
            if aligned > start {
                munmap(raw, aligned - start);
            }
            let tail = start + span - (aligned + bytes);
            if tail > 0 {
                munmap((aligned + bytes) as *mut c_void, tail);
            }
            madvise(aligned as *mut c_void, bytes, MADV_HUGEPAGE);
        }
        NonNull::new(aligned as *mut u8).expect("mmap never returns address 0 here")
    }

    /// Unmaps what `map(bytes)` returned.
    ///
    /// # Safety
    /// `ptr` must come from `map(bytes)` and not be used afterwards.
    pub(super) unsafe fn unmap(ptr: NonNull<u8>, bytes: usize) {
        munmap(ptr.as_ptr().cast(), bytes);
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    use std::alloc::Layout;
    use std::ptr::NonNull;

    use super::HUGE_PAGE;

    pub(super) fn map(bytes: usize) -> NonNull<u8> {
        let layout = Layout::from_size_align(bytes, HUGE_PAGE).expect("a valid layout");
        // SAFETY: `layout` has a non-zero size.
        let ptr = unsafe { std::alloc::alloc_zeroed(layout) };
        NonNull::new(ptr).unwrap_or_else(|| std::alloc::handle_alloc_error(layout))
    }

    pub(super) unsafe fn unmap(ptr: NonNull<u8>, bytes: usize) {
        std::alloc::dealloc(
            ptr.as_ptr(),
            Layout::from_size_align(bytes, HUGE_PAGE).expect("the layout `map` made"),
        );
    }
}

/// Bytes of `range` (an address range of this process) that the kernel
/// currently backs with transparent huge pages, as `/proc/self/smaps`
/// reports `AnonHugePages` for the mappings overlapping it, each capped at
/// its overlap with the range. Adjacent mappings with equal flags are
/// merged into one entry by the kernel, so this can count a neighbour's
/// huge pages, never more than the range holds. `None` where the file
/// cannot be read.
pub(crate) fn anon_huge_bytes(range: std::ops::Range<usize>) -> Option<u64> {
    let smaps = std::fs::read_to_string("/proc/self/smaps").ok()?;
    let mut total = 0u64;
    let mut overlap = 0u64;
    for line in smaps.lines() {
        let head = line.split_whitespace().next().unwrap_or("");
        if let Some((lo, hi)) = head.split_once('-') {
            if let (Ok(lo), Ok(hi)) = (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
            {
                overlap = hi.min(range.end).saturating_sub(lo.max(range.start)) as u64;
                continue;
            }
        }
        if let Some(kb) = line.strip_prefix("AnonHugePages:") {
            let kb: u64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
            total += (kb * 1024).min(overlap);
        }
    }
    Some(total)
}
#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Whether the kernel may back advised memory with huge pages: the
    /// THP mode is `always` or `madvise`. `Err` says why not.
    fn thp_enabled() -> Result<(), String> {
        let path = "/sys/kernel/mm/transparent_hugepage/enabled";
        match std::fs::read_to_string(path) {
            Ok(mode) if mode.contains("[never]") => Err(format!("{path} selects [never]")),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("cannot read {path}: {e}")),
        }
    }

    /// A `u32` buffer of this many elements is exactly one huge page.
    const HUGE_U32: usize = HUGE_PAGE / 4;

    #[derive(Debug, Clone)]
    enum Op {
        Push(u32),
        Extend(usize),
        Truncate(usize),
        Clone,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            any::<u32>().prop_map(Op::Push),
            (0usize..700).prop_map(Op::Extend),
            (0usize..700).prop_map(Op::Truncate),
            Just(Op::Clone),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// From a start just below, at or just above one huge page, every
        /// edit leaves a `HugeVec` equal to a `Vec` given the same edits,
        /// and a huge one 2 MB-aligned.
        #[test]
        fn huge_vec_matches_vec_across_the_huge_page_threshold(
            start in prop_oneof![Just(0usize), HUGE_U32 - 600..HUGE_U32 + 600],
            ops in proptest::collection::vec(op(), 1..40),
        ) {
            let fill: Vec<u32> = (0..start as u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
            let mut want = fill.clone();
            let mut got = HugeVec::from_slice(&fill);
            let mut next = start as u32;
            for op in ops {
                match op {
                    Op::Push(x) => {
                        want.push(x);
                        got.push(x);
                    }
                    Op::Extend(k) => {
                        let run: Vec<u32> = (next..next + k as u32).collect();
                        next += k as u32;
                        want.extend_from_slice(&run);
                        if k % 2 == 0 {
                            got.extend_from_slice(&run);
                        } else {
                            got.extend(run.iter().copied());
                        }
                    }
                    Op::Truncate(d) => {
                        let keep = want.len().saturating_sub(d);
                        want.truncate(keep);
                        got.truncate(keep);
                    }
                    Op::Clone => got = got.clone(),
                }
                prop_assert_eq!(&got[..], &want[..]);
                prop_assert!(got.capacity() >= got.len());
                if got.capacity() >= HUGE_U32 {
                    prop_assert_eq!(got.as_ptr() as usize % HUGE_PAGE, 0);
                }
            }
        }
    }

    /// A buffer below one huge page allocates as `Vec` does: exactly its
    /// capacity, no mapping of its own and so no hint.
    #[test]
    fn huge_page_hint_small_region_is_noop() {
        let small = HugeVec::<u32>::zeroed(1000);
        assert_eq!(small.capacity(), 1000);
        assert!(small.iter().all(|&x| x == 0));
        let edge = HugeVec::<u32>::with_capacity(HUGE_U32 - 1);
        assert_eq!(edge.capacity(), HUGE_U32 - 1);
    }

    /// A buffer of 4 MB or more is its own 2 MB-aligned mapping, rounded
    /// up to whole huge pages, and reads as zeros until written.
    #[test]
    fn huge_page_hint_large_region() {
        for bytes in [4 << 20, (4 << 20) + 4, 9 << 20] {
            let v = HugeVec::<u32>::zeroed(bytes / 4);
            assert_eq!(v.as_ptr() as usize % HUGE_PAGE, 0, "{bytes} bytes");
            assert_eq!(v.capacity() * 4, bytes.next_multiple_of(HUGE_PAGE));
            assert!(v.iter().all(|&x| x == 0), "advice must not alter contents");
            let w = HugeVec::<u64>::with_capacity(bytes / 8);
            assert_eq!(w.as_ptr() as usize % HUGE_PAGE, 0, "{bytes} bytes");
        }
    }

    #[test]
    fn touched_huge_vec_is_backed_by_huge_pages() {
        if let Err(why) = thp_enabled() {
            eprintln!("skipped: {why}");
            return;
        }
        let mut v = HugeVec::<u64>::zeroed((8 << 20) / 8);
        // One write per 4 KB page.
        for (i, x) in v.iter_mut().enumerate().step_by(512) {
            *x = i as u64;
        }
        let range = v.as_ptr_range();
        let huge = anon_huge_bytes(range.start as usize..range.end as usize)
            .expect("/proc/self/smaps is readable");
        assert!(huge > 0, "no huge page backs an advised 8 MB buffer");
    }
}
