//! The one test allocator: it counts the live heap of every thread and its
//! high-water mark, and it can cap any single allocation made on one
//! thread.
//!
//! A test binary installs it as its global allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static HEAP: pmr_conformance::heap::TestAlloc = pmr_conformance::heap::TestAlloc::new();
//! ```
//!
//! The counters serve heap measurements (`compress_heap`); [`capped`]
//! serves the hostile-input oracle ([`crate::hostile`]), which arms the cap
//! around one decode on the calling thread only, so a test running beside
//! it on another thread is never refused anything.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A [`System`]-backed allocator that counts bytes and honours the cap of
/// [`capped`].
pub struct TestAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
}

/// Set by the first allocation [`TestAlloc`] serves: [`capped`] refuses to
/// run in a binary that has not installed it, where a cap would be silent.
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// The cap armed on this thread, and the request it refused.
#[derive(Clone, Copy)]
struct Armed {
    cap: usize,
    label: &'static str,
    refused: Option<usize>,
}

thread_local! {
    static ARMED: Cell<Option<Armed>> = const { Cell::new(None) };
}

// The counters are statistics: they publish no other data, so `Relaxed`
// is enough on every access.
impl TestAlloc {
    pub const fn new() -> Self {
        TestAlloc { live: AtomicUsize::new(0), peak: AtomicUsize::new(0) }
    }

    /// Live heap bytes, on every thread.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// The most live heap bytes since the last [`TestAlloc::reset_peak`].
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Start a new measurement window at the current live size.
    pub fn reset_peak(&self) {
        self.peak.store(self.live(), Ordering::Relaxed);
    }

    fn add(&self, size: usize) {
        let live = self.live.fetch_add(size, Ordering::Relaxed) + size;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn sub(&self, size: usize) {
        self.live.fetch_sub(size, Ordering::Relaxed);
    }
}

impl Default for TestAlloc {
    fn default() -> Self {
        Self::new()
    }
}

/// May this thread allocate `size` bytes in one block? A refusal is
/// recorded and named on stderr, and lifts the cap: the caller usually
/// aborts on it (`handle_alloc_error`), and the line says why. What a
/// panicking thread allocates is the panic machinery's (its message, the
/// test harness's output capture), never capped: refusing it would stop
/// the panic report under the lock it holds.
fn admit(size: usize) -> bool {
    INSTALLED.store(true, Ordering::Relaxed);
    if std::thread::panicking() {
        return true;
    }
    ARMED
        .try_with(|armed| match armed.get() {
            Some(a) if size > a.cap => {
                armed.set(Some(Armed { cap: usize::MAX, refused: Some(size), ..a }));
                let _ = writeln!(
                    std::io::stderr(),
                    "hostile: {}: one allocation of {size} B is over the cap of {} B",
                    a.label,
                    a.cap
                );
                false
            }
            _ => true,
        })
        .unwrap_or(true)
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract, or refused with a null pointer, which the
// contract allows; the wrapper only counts sizes alongside.
unsafe impl GlobalAlloc for TestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !admit(layout.size()) {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller's contract for `alloc` is passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.add(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if !admit(layout.size()) {
            return std::ptr::null_mut();
        }
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
        if !admit(new_size) {
            return std::ptr::null_mut();
        }
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

/// Run `f` with every single allocation on this thread capped at `cap`
/// bytes. Returns `f`'s result and the largest request refused, if any; an
/// allocation that cannot be refused gracefully aborts the process after
/// `label` and the size are printed, which fails the test binary too.
///
/// Panics unless the binary installed [`TestAlloc`], and if called with a
/// cap already armed.
pub fn capped<R>(cap: usize, label: &'static str, f: impl FnOnce() -> R) -> (R, Option<usize>) {
    drop(std::hint::black_box(Box::new(0u8)));
    assert!(INSTALLED.load(Ordering::Relaxed), "capped: the binary must install TestAlloc");
    assert!(ARMED.get().is_none(), "capped: a cap is already armed on this thread");
    ARMED.set(Some(Armed { cap, label, refused: None }));
    // Disarm even when `f` unwinds, so the panic machinery and the rest of
    // the thread allocate freely.
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            ARMED.set(None);
        }
    }
    let disarm = Disarm;
    let out = f();
    let refused = ARMED.get().and_then(|a| a.refused);
    drop(disarm);
    (out, refused)
}
