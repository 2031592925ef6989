//! Property tests for the DNN retrieval layer, on the seeded case driver
//! `pmr_rng::cases`: a failure names the test and the case index.

use pmr_core::emgard::{build_samples, level_signature, SIG_DIM};
use pmr_core::features;
use pmr_core::{collect_records, DMgard, DMgardConfig, EMgard, EMgardConfig};
use pmr_field::{Field, Shape};
use pmr_mgard::{CompressConfig, Compressed};
use pmr_nn::TrainConfig;
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

/// The bytes of a small trained D-MGARD and E-MGARD: random bytes stop at
/// the magic, so the hostile-input tests below start from these.
fn trained_model_bytes() -> (Vec<u8>, Vec<u8>) {
    let field = Field::from_fn("m", 0, Shape::cube(9), |x, y, z| {
        ((x as f64) * 0.3).sin() + ((y + z) as f64 * 0.2).cos()
    });
    let c = Compressed::compress(&field, &CompressConfig { levels: 3, ..Default::default() });
    let records = collect_records(&field, &c, &[1e-3, 1e-1]);
    let dcfg = DMgardConfig {
        hidden: vec![4],
        train: TrainConfig { epochs: 1, ..Default::default() },
        ..Default::default()
    };
    let (d, _) = DMgard::train(&records, c.num_levels(), c.num_planes(), &dcfg);
    let ecfg =
        EMgardConfig { hidden: vec![4], epochs: 1, samples_per_artifact: 4, ..Default::default() };
    let (e, _) = EMgard::train(&build_samples(&field, &c, &ecfg, 0), &ecfg);
    (d.to_bytes(), e.to_bytes())
}

/// A D-MGARD/E-MGARD parser against hostile variants of `valid`, whose
/// first model length sits at `first`: a `u64::MAX` model or standardizer
/// length, every strict prefix and a trailing byte are rejected; random
/// bytes, hostile lengths and flipped bytes never panic.
fn rejects_hostile_model_bytes(name: &str, valid: &[u8], first: usize, parses: fn(&[u8]) -> bool) {
    let model_len = u64::from_le_bytes(valid[first..first + 8].try_into().expect("8 bytes"));
    let lengths = [first, first + 8 + usize::try_from(model_len).expect("model length")];
    let with_length = |at: usize, len: u64| {
        let mut bytes = valid.to_vec();
        bytes[at..at + 8].copy_from_slice(&len.to_le_bytes());
        bytes
    };
    assert!(parses(valid) && !parses(&[valid, &[0]].concat()), "{name}: exact length only");
    assert!((0..valid.len()).all(|cut| !parses(&valid[..cut])), "{name}: a prefix parsed");
    assert!(lengths.iter().all(|&at| !parses(&with_length(at, u64::MAX))), "{name}: u64::MAX");
    cases(name, 24, |g| {
        let _ = parses(&g.vec(0..400, Rng::u8));
        let hostile = [u64::MAX - g.range(0u64..64), g.next_u64(), g.range(0u64..1 << 16)];
        let _ = parses(&with_length(lengths[g.range(0..2usize)], hostile[g.range(0..3usize)]));
        let mut flipped = valid.to_vec();
        flipped[g.range(0..valid.len())] ^= g.range(1..=u8::MAX);
        let _ = parses(&flipped);
    });
}

#[test]
fn dmgard_from_bytes_never_panics() {
    let (valid, _) = trained_model_bytes();
    let parses = |b: &[u8]| DMgard::from_bytes(b).is_some();
    rejects_hostile_model_bytes("dmgard_from_bytes_never_panics", &valid, 16, parses);
}

#[test]
fn emgard_from_bytes_never_panics() {
    let (_, valid) = trained_model_bytes();
    let parses = |b: &[u8]| EMgard::from_bytes(b).is_some();
    rejects_hostile_model_bytes("emgard_from_bytes_never_panics", &valid, 10, parses);
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
