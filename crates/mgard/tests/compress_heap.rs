//! The heap `Compressed::compress` holds while it runs.
//!
//! The write path runs in situ beside the simulation, so every byte it
//! holds is a byte the simulation loses. Compress decomposes one copy of
//! the field and encodes every level straight from it; the only other
//! large buffer is the level being encoded, packed as `B` planes of
//! `⌈count/8⌉` bytes before the lossless pass. A second grid-sized copy —
//! the per-level arrays `Decomposer::interleave` gathers — must not come
//! back.
//!
//! This is its own test binary because it installs a counting global
//! allocator, and it holds one test so that nothing else allocates while it
//! measures. CI's Miri step runs `--lib` only, so this binary stays out of
//! Miri.

use pmr_field::Field;
use pmr_mgard::exec::PARALLEL_MIN_COEFFS;
use pmr_mgard::{CompressConfig, Compressed, Decomposer, ExecPolicy};
use pmr_sim::warpx::{warpx_field, WarpXConfig, WarpXField};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live heap bytes and their high-water mark, counted on every thread.
struct Counting {
    live: AtomicUsize,
    peak: AtomicUsize,
}

// The counters are statistics: they publish no other data, so `Relaxed`
// is enough on every access.
impl Counting {
    fn add(&self, size: usize) {
        let live = self.live.fetch_add(size, Ordering::Relaxed) + size;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn sub(&self, size: usize) {
        self.live.fetch_sub(size, Ordering::Relaxed);
    }

    fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Start a new measurement window at the current live size.
    fn reset_peak(&self) {
        self.peak.store(self.live(), Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the wrapper only counts sizes alongside.
unsafe impl GlobalAlloc for Counting {
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

#[global_allocator]
static HEAP: Counting = Counting { live: AtomicUsize::new(0), peak: AtomicUsize::new(0) };

const MIB: f64 = (1 << 20) as f64;

/// The transient peak of compressing `field` under `exec` and the heap the
/// returned artifact keeps, both in bytes.
fn measure(field: &Field, cfg: &CompressConfig, exec: &ExecPolicy) -> (usize, usize) {
    let before = HEAP.live();
    HEAP.reset_peak();
    let c = Compressed::compress_with(field, cfg, exec);
    let transient = HEAP.peak() - before;
    let kept = HEAP.live() - before;
    drop(c);
    (transient, kept)
}

#[test]
fn compress_holds_one_grid_and_one_level_of_packed_planes() {
    let wx = WarpXConfig { size: 65, snapshots: 4, ..WarpXConfig::default() };
    let field = warpx_field(&wx, WarpXField::Jx, 2);
    let cfg = CompressConfig::default();
    let dec = Decomposer::new(field.shape(), cfg.levels, cfg.mode);
    let finest = dec.level_counts().into_iter().max().expect("at least one level");
    assert!(finest > PARALLEL_MIN_COEFFS, "the finest level must be split among workers");
    let grid = field.len() * std::mem::size_of::<f64>();
    let packed = cfg.num_planes as usize * finest.div_ceil(8);

    for exec in [ExecPolicy::serial(), ExecPolicy::default()] {
        // The first parallel compress starts the worker pool; measure the
        // steady state.
        drop(Compressed::compress_with(&field, &cfg, &exec));
        let (transient, kept) = measure(&field, &cfg, &exec);
        let bound = (grid + packed + kept) * 105 / 100;
        eprintln!(
            "{exec:?}: transient {:.2} MiB, bound {:.2} MiB (grid {:.2}, packed planes {:.2}, \
             artifact {:.2})",
            transient as f64 / MIB,
            bound as f64 / MIB,
            grid as f64 / MIB,
            packed as f64 / MIB,
            kept as f64 / MIB,
        );
        assert!(transient <= bound, "{exec:?}: transient {transient} B over {bound} B");
    }
}
