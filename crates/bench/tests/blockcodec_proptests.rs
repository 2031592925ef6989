//! Property tests for the block codec, on the seeded case driver
//! `pmr_rng::cases`: a failure names the test and the case index.

use pmr_bench::blockcodec::{BlockCompressed, BlockConfig};
use pmr_field::{error::max_abs_error, Field, Shape};
use pmr_rng::{cases, Rng};

fn arb_field(g: &mut Rng) -> Field {
    let shape = Shape::d3(g.range(2..14), g.range(2..14), g.range(1..10));
    let data = (0..shape.len()).map(|_| g.range(-50.0..50.0)).collect();
    Field::new("p", 0, shape, data)
}

#[test]
fn full_roundtrip_any_shape() {
    cases("full_roundtrip_any_shape", 48, |g| {
        let field = arb_field(g);
        let c = BlockCompressed::compress(&field, &BlockConfig::default());
        let rec = c.retrieve(c.num_planes());
        assert_eq!(rec.shape(), field.shape());
        let scale = field.max_abs().max(1.0);
        assert!(max_abs_error(field.data(), rec.data()) < 1e-5 * scale);
    });
}

#[test]
fn collected_error_row_bounds_actual() {
    cases("collected_error_row_bounds_actual", 48, |g| {
        let field = arb_field(g);
        let b = g.range(0u32..33);
        let c = BlockCompressed::compress(&field, &BlockConfig::default());
        let rec = c.retrieve(b);
        let err = max_abs_error(field.data(), rec.data());
        // err <= row_sum_bound * coefficient error; the codec's plan()
        // relies on this, asserted via the public plan contract instead:
        let abs = err.max(1e-300);
        let planned = c.plan(abs * 64.0);
        let rec2 = c.retrieve(planned);
        assert!(max_abs_error(field.data(), rec2.data()) <= abs * 64.0 * (1.0 + 1e-9));
    });
}

#[test]
fn plan_is_monotone_in_bound() {
    cases("plan_is_monotone_in_bound", 48, |g| {
        let c = BlockCompressed::compress(&arb_field(g), &BlockConfig::default());
        let mut prev = 0u32;
        for rel in [1.0, 1e-2, 1e-4, 1e-6] {
            let b = c.plan(rel * c.value_range().max(1e-12));
            assert!(b >= prev, "planes must grow as bounds tighten");
            prev = b;
        }
    });
}

#[test]
fn truncation_never_explodes() {
    cases("truncation_never_explodes", 48, |g| {
        let field = arb_field(g);
        let b = g.range(0u32..33);
        let c = BlockCompressed::compress(&field, &BlockConfig::default());
        let rec = c.retrieve(b);
        assert!(rec.data().iter().all(|v| v.is_finite()));
        // Reconstruction magnitude stays within the transform's gain of
        // the data magnitude.
        let bound = 64.0 * field.max_abs() + 1e-9;
        assert!(rec.max_abs() <= bound);
    });
}
