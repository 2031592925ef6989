//! Property-based tests for the field substrate, on the seeded case driver
//! `pmr_rng::cases`: a failure names the test and the case index.

use pmr_field::{error, io, Field, FieldStats, Shape};
use pmr_rng::{cases, Rng};

fn arb_field(g: &mut Rng) -> Field {
    let shape = Shape::d3(g.range(1..6), g.range(1..6), g.range(1..6));
    let data = (0..shape.len()).map(|_| g.range(-1e6..1e6)).collect();
    Field::new("p", 0, shape, data)
}

/// The one failure the randomized suite ever recorded (it was kept in
/// `proptests.proptest-regressions`): exact zeros between large negatives.
fn recorded_4x1x1() -> Field {
    let data = vec![0.0, -585877.874250908, 0.0, -343292.53568394];
    Field::new("p", 0, Shape::d3(4, 1, 1), data)
}

/// Run `body` on [`recorded_4x1x1`], then on 256 drawn fields.
fn for_fields(name: &str, mut body: impl FnMut(&Field, &mut Rng)) {
    body(&recorded_4x1x1(), &mut Rng::seed_from_u64(0));
    cases(name, 256, |g| body(&arb_field(g), g));
}

#[test]
fn io_roundtrip() {
    for_fields("io_roundtrip", |f, _| {
        let rt = io::from_bytes(&io::to_bytes(f)).unwrap();
        assert_eq!(*f, rt);
    });
}

#[test]
fn stats_are_finite_and_bounded() {
    for_fields("stats_are_finite_and_bounded", |f, _| {
        let s = FieldStats::compute(f);
        assert!(s.to_features().iter().all(|v| v.is_finite()));
        assert!(s.min <= s.mean + 1e-9);
        assert!(s.mean <= s.max + 1e-9);
        assert!(s.std >= 0.0);
        assert!(s.autocorr >= -1.0 - 1e-6 && s.autocorr <= 1.0 + 1e-6);
    });
}

#[test]
fn max_error_bounds_rmse() {
    for_fields("max_error_bounds_rmse", |f, g| {
        let noise: f64 = g.range(-1.0..1.0);
        let perturbed: Vec<f64> = f.data().iter().map(|v| v + noise).collect();
        let max = error::max_abs_error(f.data(), &perturbed);
        let rmse = error::rmse(f.data(), &perturbed);
        assert!(rmse <= max + 1e-12);
        assert!((max - noise.abs()).abs() < 1e-9);
    });
}

#[test]
fn shape_index_bijective() {
    let check = |nx: usize, ny, nz| {
        let s = Shape::d3(nx, ny, nz);
        let mut seen = vec![false; s.len()];
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let i = s.index(x, y, z);
                    assert!(!seen[i]);
                    seen[i] = true;
                    assert_eq!(s.coords(i), (x, y, z));
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    };
    check(4, 1, 1); // the shape of `recorded_4x1x1`
    cases("shape_index_bijective", 256, |g| check(g.range(1..8), g.range(1..8), g.range(1..8)));
}
