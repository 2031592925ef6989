//! Quickstart: compress a field once, retrieve it progressively at several
//! error bounds, and watch bytes scale with accuracy.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pmr::core::{retrieve, Backend, Dataset, RetrievalRequest, Theory};
use pmr::field::{Field, Shape};
use pmr::mgard::{CompressConfig, Compressed};

fn main() {
    // A synthetic smooth-but-structured 3-D field.
    let field = Field::from_fn("demo", 0, Shape::cube(33), |x, y, z| {
        let (x, y, z) = (x as f64 / 33.0, y as f64 / 33.0, z as f64 / 33.0);
        (6.0 * x).sin() * (4.0 * y).cos() + (10.0 * (x + y + z)).sin() * 0.1
    });
    let raw_bytes = (field.len() * 8) as u64;
    println!("field: {} points, {} raw bytes", field.len(), raw_bytes);

    // Decompose into 5 coefficient levels x 32 negabinary bit-planes.
    // `validate` checks the knobs; `threads` drives the parallel data path
    // (results are bit-identical to a serial run).
    let cfg = CompressConfig { levels: 5, num_planes: 32, ..Default::default() };
    cfg.validate().expect("valid compression parameters");
    let compressed = Compressed::compress(&field, &cfg);
    println!(
        "compressed payload: {} bytes across {} levels x {} planes\n",
        compressed.total_bytes(),
        compressed.num_levels(),
        compressed.num_planes()
    );

    println!(
        "{:>10}  {:>12}  {:>12}  {:>9}  {:>8}",
        "rel_bound", "requested", "achieved", "bytes", "% of raw"
    );
    // One dataset handle serves every request; attaching the original
    // field lets `measured()` report the achieved error alongside the bound.
    let dataset = Dataset::new(&compressed).with_original(&field);
    for rel in [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6] {
        let abs = compressed.absolute_bound(rel);
        // Plan with the built-in (theory-based) error control and fetch.
        let request = RetrievalRequest::rel(rel).measured();
        let out =
            retrieve(&dataset, &Theory, &request, &Backend::Direct).expect("in-memory retrieval");
        let err = out.achieved_error.expect("measured() fills the achieved error");
        println!(
            "{rel:>10.0e}  {abs:>12.3e}  {err:>12.3e}  {:>9}  {:>7.1}%",
            out.bytes,
            out.bytes as f64 / raw_bytes as f64 * 100.0
        );
        assert!(err <= abs, "error bound must hold");
    }
    println!(
        "\nNote the gap between requested and achieved error — the pessimism the\n\
         D-MGARD / E-MGARD retrievers in `pmr::core` are trained to remove\n\
         (see examples/warpx_io_savings.rs)."
    );
}
