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
//! This is its own test binary because it installs the counting global
//! allocator (`pmr_conformance::heap`), and it holds one test so that
//! nothing else allocates while it measures.

use pmr_conformance::heap::TestAlloc;
use pmr_field::Field;
use pmr_mgard::exec::PARALLEL_MIN_COEFFS;
use pmr_mgard::{CompressConfig, Compressed, Decomposer};
use pmr_sim::warpx::{warpx_field, WarpXConfig, WarpXField};

#[global_allocator]
static HEAP: TestAlloc = TestAlloc::new();

const MIB: f64 = (1 << 20) as f64;

/// The transient peak of compressing `field` under `cfg` and the heap the
/// returned artifact keeps, both in bytes.
fn measure(field: &Field, cfg: &CompressConfig) -> (usize, usize) {
    let before = HEAP.live();
    HEAP.reset_peak();
    let c = Compressed::compress(field, cfg);
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

    for cfg in [CompressConfig { threads: 1, ..cfg }, cfg] {
        // The first parallel compress starts the worker pool; measure the
        // steady state.
        drop(Compressed::compress(&field, &cfg));
        let (transient, kept) = measure(&field, &cfg);
        let exec = cfg.exec();
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
