//! Property tests for the DNN retrieval layer, on the seeded case driver
//! `pmr_rng::cases`: a failure names the test and the case index.

use pmr_core::emgard::{level_signature, SIG_DIM};
use pmr_core::features;
use pmr_core::{collect_records, DMgard, EMgard};
use pmr_field::{Field, Shape};
use pmr_mgard::{CompressConfig, Compressed};
use pmr_rng::{cases, Rng};

fn arb_field(g: &mut Rng) -> Field {
    let shape = Shape::cube(g.range(4..9));
    let data = (0..shape.len()).map(|_| g.range(-4.0..4.0)).collect();
    Field::new("p", g.range(0..8), shape, data)
}

#[test]
fn signature_always_well_formed() {
    cases("signature_always_well_formed", 24, |g| {
        let sig = level_signature(&g.vec(0..300, |g| g.range(-1e12..1e12)));
        assert_eq!(sig.len(), SIG_DIM);
        assert!(sig.iter().all(|v| v.is_finite()));
    });
}

#[test]
fn retrieval_features_are_finite() {
    cases("retrieval_features_are_finite", 24, |g| {
        let field = arb_field(g);
        let c = Compressed::compress(&field, &CompressConfig::default());
        let f = features::retrieval_features(&field, &c);
        assert_eq!(f.len(), features::NUM_BASE_FEATURES + c.num_levels());
        assert!(f.iter().all(|v| v.is_finite()));
    });
}

#[test]
fn records_always_respect_bounds() {
    cases("records_always_respect_bounds", 24, |g| {
        let field = arb_field(g);
        let c = Compressed::compress(&field, &CompressConfig::default());
        let recs = collect_records(&field, &c, &[1e-5, 1e-3, 1e-1]);
        for r in &recs {
            assert!(
                r.achieved_err <= r.abs_bound * (1.0 + 1e-12) ||
                // unreachable bounds (below quantization floor) fetch everything
                r.planes.iter().zip(c.levels()).all(|(&b, l)| b == l.num_planes())
            );
            assert!(r.retrieved_bytes <= c.total_bytes());
        }
    });
}

#[test]
fn dmgard_from_bytes_never_panics() {
    cases("dmgard_from_bytes_never_panics", 24, |g| {
        let _ = DMgard::from_bytes(&g.vec(0..400, Rng::u8));
    });
}

#[test]
fn emgard_from_bytes_never_panics() {
    cases("emgard_from_bytes_never_panics", 24, |g| {
        let _ = EMgard::from_bytes(&g.vec(0..400, Rng::u8));
    });
}

#[test]
fn chain_input_is_total() {
    cases("chain_input_is_total", 24, |g| {
        let err = g.range(0.0..1e9);
        let scale = g.range(-30f32..30.0);
        let prev = g.vec(0..6, |g| g.range(0f32..32.0));
        let x = features::chain_input(&[], err, scale, &prev);
        assert_eq!(x.len(), 2 + prev.len());
        assert!(x.iter().all(|v| v.is_finite()));
    });
}
