//! A counting `GlobalAlloc` wrapper: live heap bytes and their peak.
//!
//! `peak_heap_mb` replaces peak RSS, which depends on page size, THP and
//! the allocator's retention policy; live bytes depend only on what the
//! program asked for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAlloc {
    pub const fn new() -> Self {
        CountingAlloc { live: AtomicUsize::new(0), peak: AtomicUsize::new(0) }
    }

    // The counters are statistics: they publish no other data, so
    // `Relaxed` is enough on every access.
    fn add(&self, size: usize) {
        let live = self.live.fetch_add(size, Ordering::Relaxed) + size;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn sub(&self, size: usize) {
        self.live.fetch_sub(size, Ordering::Relaxed);
    }

    /// Bytes currently allocated.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Highest `live` since the last [`CountingAlloc::reset_peak`].
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Start a new measurement window at the current live size.
    pub fn reset_peak(&self) {
        self.peak.store(self.live(), Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the wrapper only counts sizes alongside.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc` is passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.add(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            self.add(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`, i.e. from
        // `System` with the same layout.
        unsafe { System.dealloc(ptr, layout) };
        self.sub(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract for `realloc` is passed through.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                self.add(new_size - layout.size());
            } else {
                self.sub(layout.size() - new_size);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Exercised through the `GlobalAlloc` methods directly (not installed
    // as the global allocator), so parallel tests cannot disturb the counts.
    fn hold(a: &CountingAlloc, size: usize) -> (*mut u8, Layout) {
        let layout = Layout::from_size_align(size, 8).expect("layout");
        // SAFETY: non-zero size, valid alignment.
        let p = unsafe { a.alloc(layout) };
        assert!(!p.is_null());
        (p, layout)
    }

    #[test]
    fn peak_tracks_the_high_water_mark_and_resets() {
        let a = CountingAlloc::new();
        let (p1, l1) = hold(&a, 1000);
        let (p2, l2) = hold(&a, 500);
        assert_eq!((a.live(), a.peak()), (1500, 1500));
        // SAFETY: allocated above with the same layout.
        unsafe { a.dealloc(p2, l2) };
        assert_eq!((a.live(), a.peak()), (1000, 1500));
        a.reset_peak();
        assert_eq!(a.peak(), 1000);
        // SAFETY: `p1` is live with layout `l1`; 4000 is a valid new size.
        let p1 = unsafe { a.realloc(p1, l1, 4000) };
        assert_eq!((a.live(), a.peak()), (4000, 4000));
        let l1 = Layout::from_size_align(4000, 8).expect("layout");
        // SAFETY: `p1` now has size 4000.
        unsafe { a.dealloc(p1, l1) };
        assert_eq!((a.live(), a.peak()), (0, 4000));
    }

    #[test]
    fn peak_counts_allocations_held_on_several_threads_at_once() {
        let a = CountingAlloc::new();
        let threads = 4;
        let barrier = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    let (p, l) = hold(&a, 1 << 20);
                    // Every thread holds its block before any frees it.
                    barrier.wait();
                    // SAFETY: allocated above with the same layout.
                    unsafe { a.dealloc(p, l) };
                });
            }
        });
        assert_eq!(a.live(), 0);
        assert_eq!(a.peak(), threads << 20);
    }
}
