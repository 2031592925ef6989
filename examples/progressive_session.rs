//! Artifact persistence + progressive sessions: write a compressed field to
//! disk, reopen it elsewhere, and refine a reconstruction step by step —
//! each refinement fetching only the planes not yet held.
//!
//! ```sh
//! cargo run --release --example progressive_session
//! ```

use pmr::field::error::max_abs_error;
use pmr::mgard::{persist, CompressConfig, Compressed, ProgressiveSession};
use pmr::sim::{warpx_field, WarpXConfig, WarpXField};

fn main() {
    let wcfg = WarpXConfig { size: 33, snapshots: 8, ..Default::default() };
    let field = warpx_field(&wcfg, WarpXField::Jx, 4);

    // Producer side: compress and persist.
    let compressed = Compressed::compress(&field, &CompressConfig::default());
    let path = std::env::temp_dir().join("pmr_example_artifact.pmrc");
    persist::save(&compressed, &path).expect("write artifact");
    println!(
        "wrote {} ({} bytes payload, {} levels)",
        path.display(),
        compressed.total_bytes(),
        compressed.num_levels()
    );

    // Consumer side: reopen and refine progressively.
    let reopened = persist::load(&path).expect("read artifact");
    let mut session = ProgressiveSession::new(&reopened);
    println!(
        "\n{:>10}  {:>12}  {:>12}  {:>12}",
        "rel_bound", "delta_bytes", "total_bytes", "max_error"
    );
    for rel in [1e-1, 1e-2, 1e-3, 1e-4, 1e-5] {
        let delta = session.refine_theory(reopened.absolute_bound(rel));
        let approx = session.current_field();
        let err = max_abs_error(field.data(), approx.data());
        println!("{rel:>10.0e}  {delta:>12}  {:>12}  {err:>12.3e}", session.fetched_bytes());
    }

    std::fs::remove_file(&path).ok();
}
