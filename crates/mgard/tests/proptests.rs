//! Property tests for the MGARD-style substrate: transform invertibility,
//! error-matrix correctness and the soundness of the theory bound — on the
//! seeded case driver `pmr_rng::cases`: a failure names the test and the
//! case index.

use pmr_field::{error::max_abs_error, Field, Shape};
use pmr_mgard::{
    decompose::{Decomposer, TransformMode},
    estimate::{estimate_error, theory_constants},
    CompressConfig, Compressed, ExecPolicy, LevelEncoding, PlaneKernel,
};
use pmr_rng::{cases, Rng};
use std::ops::Range;

const CASES: u32 = 64;

fn arb_shape(g: &mut Rng) -> Shape {
    match g.range(0..3) {
        0 => Shape::d1(g.range(2..40)),
        1 => Shape::d2(g.range(2..14), g.range(2..14)),
        _ => Shape::d3(g.range(2..8), g.range(2..8), g.range(2..8)),
    }
}

fn arb_mode(g: &mut Rng) -> TransformMode {
    g.one_of(&[TransformMode::Interpolation, TransformMode::L2Projection])
}

/// `n` uniform draws from `range`.
fn noise(g: &mut Rng, n: usize, range: Range<f64>) -> Vec<f64> {
    (0..n).map(|_| g.range(range.clone())).collect()
}

/// Uniform noise in `[0, 1)` over `shape`.
fn noise_field(g: &mut Rng, shape: Shape) -> Field {
    Field::new("p", 0, shape, noise(g, shape.len(), 0.0..1.0))
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max)
}

#[test]
fn decompose_recompose_identity() {
    cases("decompose_recompose_identity", CASES, |g| {
        let shape = arb_shape(g);
        let dec = Decomposer::new(shape, g.range(1..6), arb_mode(g));
        let orig = noise(g, shape.len(), -100.0..100.0);
        let mut data = orig.clone();
        dec.decompose(&mut data);
        dec.recompose(&mut data);
        let err = max_abs_diff(&orig, &data);
        assert!(err < 1e-8, "err={err}");
    });
}

#[test]
fn interleave_partition() {
    cases("interleave_partition", CASES, |g| {
        let shape = arb_shape(g);
        let dec = Decomposer::new(shape, g.range(1..6), TransformMode::Interpolation);
        let groups = dec.level_indices();
        assert_eq!(groups.len(), dec.levels());
        let mut seen = vec![false; shape.len()];
        for group in &groups {
            for &i in group {
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    });
}

#[test]
fn error_row_is_exact() {
    cases("error_row_is_exact", CASES, |g| {
        let coeffs = g.vec(1..200, |g| g.range(-1e3..1e3));
        let planes = g.range(4u32..34);
        let enc = LevelEncoding::encode(&coeffs, planes);
        for b in [0, planes / 2, planes] {
            let actual = max_abs_diff(&coeffs, &enc.decode(b));
            assert!((actual - enc.error_at(b)).abs() <= 1e-9 * (1.0 + actual));
        }
    });
}

#[test]
fn theory_bound_is_sound() {
    cases("theory_bound_is_sound", CASES, |g| {
        let shape = Shape::cube(g.range(3..10));
        let dec = Decomposer::new(shape, 4, arb_mode(g));
        let planes_used = g.range(0u32..16);
        let orig: Vec<f64> =
            noise(g, shape.len(), 0.0..1.0).iter().map(|u| u.sin() * 50.0).collect();
        let mut data = orig.clone();
        dec.decompose(&mut data);
        let levels: Vec<LevelEncoding> =
            dec.interleave(&data).iter().map(|c| LevelEncoding::encode(c, 16)).collect();
        let constants = theory_constants(&dec);
        let b = vec![planes_used; levels.len()];
        let est = estimate_error(&levels, &constants, &b);

        let truncated: Vec<Vec<f64>> = levels.iter().map(|l| l.decode(planes_used)).collect();
        let mut rec = dec.deinterleave(&truncated);
        dec.recompose(&mut rec);
        let actual = max_abs_diff(&orig, &rec);
        assert!(actual <= est * (1.0 + 1e-9) + 1e-12, "actual={actual} est={est}");
    });
}

#[test]
fn chunked_transform_matches_unchunked() {
    cases("chunked_transform_matches_unchunked", CASES, |g| {
        let shape = arb_shape(g);
        let dec = Decomposer::new(shape, g.range(1..6), arb_mode(g));
        let threads = g.one_of(&[1usize, 2, 3, 4, 5, 7]);
        let orig = noise(g, shape.len(), -100.0..100.0);
        check_batched_matches_oracle(&dec, &orig, &[threads]);
    });
}

#[test]
fn chunked_encode_matches_unchunked() {
    cases("chunked_encode_matches_unchunked", CASES, |g| {
        let coeffs = g.vec(1..400, |g| g.range(-1e3..1e3));
        let planes = g.range(4u32..34);
        let threads = g.range(2usize..6);
        let serial = LevelEncoding::encode(&coeffs, planes);
        let par = LevelEncoding::encode_with(&coeffs, planes, &ExecPolicy::with_threads(threads));
        assert_eq!(par.to_bytes().unwrap(), serial.to_bytes().unwrap());
        assert_eq!(bits(par.error_row()), bits(serial.error_row()));
    });
}

// --- SIMD/SWAR tile kernels vs the legacy scalar oracle: encode bytes,
// error rows and every decode prefix must be bit-identical. ---

const TILED_KERNELS: [PlaneKernel; 2] = [PlaneKernel::Auto, PlaneKernel::Swar];

fn check_tiled_kernels_match_scalar_oracle(coeffs: &[f64], planes: u32, b: u32) {
    let scalar = ExecPolicy::serial().with_kernel(PlaneKernel::Scalar);
    let oracle = LevelEncoding::encode_with(coeffs, planes, &scalar);
    let want = bits(&oracle.decode_with(b, &scalar));
    for kernel in TILED_KERNELS {
        let exec = ExecPolicy::serial().with_kernel(kernel);
        let enc = LevelEncoding::encode_with(coeffs, planes, &exec);
        assert_eq!(enc.to_bytes().unwrap(), oracle.to_bytes().unwrap());
        assert_eq!(bits(enc.error_row()), bits(oracle.error_row()));
        assert_eq!(bits(&enc.decode_with(b, &exec)), want, "kernel {kernel:?} decode({b})");
    }
}

/// The one tiled encoder at every worker count: counts that straddle tile
/// (64) *and* worker-chunk (a multiple of 64 per worker) boundaries, with
/// arbitrary bit patterns planted among ordinary coefficients — NaN sites,
/// an infinity that collapses the level, magnitudes that move the step.
#[test]
fn chunked_tiled_encode_matches_scalar_oracle() {
    cases("chunked_tiled_encode_matches_scalar_oracle", CASES, |g| {
        let planted = [g.any_f64(), g.any_f64()];
        let threads = g.one_of(&[1usize, 2, 3, 7]);
        let planes = g.one_of(&[3u32, 17, 32, 50]);
        let kernel = g.one_of(&TILED_KERNELS);
        // Within 65 of a count that fills every worker's chunk exactly.
        let count = (g.range(1..4usize) * 64 * threads + g.range(0..131usize)).saturating_sub(65);
        let mut coeffs = noise(g, count.max(1), -1e3..1e3);
        for v in planted.into_iter().take(g.range(0..3usize)) {
            let at = g.range(0..coeffs.len());
            coeffs[at] = v;
        }
        let oracle = LevelEncoding::encode_with(
            &coeffs,
            planes,
            &ExecPolicy::serial().with_kernel(PlaneKernel::Scalar),
        );
        let exec = ExecPolicy::with_threads(threads).with_kernel(kernel);
        let enc = LevelEncoding::encode_with(&coeffs, planes, &exec);
        assert_eq!(enc.to_bytes().unwrap(), oracle.to_bytes().unwrap(), "{exec:?} n={count}");
        assert_eq!(bits(enc.error_row()), bits(oracle.error_row()), "{exec:?} n={count}");
    });
}

/// The first `keep` plane payloads of `enc`.
fn payload_prefix(enc: &LevelEncoding, keep: usize) -> Vec<Vec<u8>> {
    (0..keep as u32).map(|k| enc.plane_payload(k).to_vec()).collect()
}

/// Truncated, over-long, or bit-flipped plane payloads must come back as Ok
/// or a clean Err through every kernel — never a panic. The bounded
/// decompressor is what makes this total.
fn check_payload_decode_never_panics(enc: &LevelEncoding, keep: usize, cut: usize, corrupt: u8) {
    let mut payloads = payload_prefix(enc, keep);
    if let Some(last) = payloads.last_mut() {
        last.truncate(cut.min(last.len()));
        if let Some(byte) = last.first_mut() {
            *byte ^= corrupt;
        }
    }
    for kernel in [PlaneKernel::Scalar, PlaneKernel::Auto, PlaneKernel::Swar] {
        let _ = enc.decode_from_payloads_with(&payloads, &ExecPolicy::serial().with_kernel(kernel));
    }
}

/// A valid strict prefix of plane payloads decodes identically through the
/// scalar assembly and the transposed kernels.
fn check_payload_prefix_decode_is_kernel_invariant(enc: &LevelEncoding, keep: usize) {
    let payloads = payload_prefix(enc, keep);
    let decode = |kernel| {
        bits(
            &enc.decode_from_payloads_with(&payloads, &ExecPolicy::serial().with_kernel(kernel))
                .expect("prefix of a valid artifact decodes"),
        )
    };
    let want = decode(PlaneKernel::Scalar);
    for kernel in TILED_KERNELS {
        assert_eq!(decode(kernel), want, "payload decode {kernel:?} diverged at keep={keep}");
    }
}

#[test]
fn tiled_kernels_match_scalar_oracle() {
    cases("tiled_kernels_match_scalar_oracle", CASES, |g| {
        let coeffs = g.vec(1..500, |g| g.range(-1e6..1e6));
        let planes = g.range(4u32..34);
        check_tiled_kernels_match_scalar_oracle(&coeffs, planes, g.range(0..=planes));
    });
}

#[test]
fn payload_decode_never_panics_on_truncation() {
    cases("payload_decode_never_panics_on_truncation", CASES, |g| {
        let coeffs = g.vec(1..300, |g| g.range(-1e3..1e3));
        let planes = g.range(4u32..34);
        let keep = g.range(0usize..40).min(planes as usize);
        let enc = LevelEncoding::encode(&coeffs, planes);
        check_payload_decode_never_panics(&enc, keep, g.range(0..4096), g.u8());
    });
}

#[test]
fn payload_prefix_decode_is_kernel_invariant() {
    cases("payload_prefix_decode_is_kernel_invariant", CASES, |g| {
        let coeffs = g.vec(1..300, |g| g.range(-1e4..1e4));
        let planes = g.range(4u32..34);
        let enc = LevelEncoding::encode(&coeffs, planes);
        check_payload_prefix_decode_is_kernel_invariant(&enc, g.range(0..=planes as usize));
    });
}

// --- float edge cases through the negabinary bit-plane path. The NaN
// policy (documented in `bitplane::LevelEncoding::encode`): any level
// containing a non-finite value collapses to a zero level. ---

#[test]
fn bitplane_roundtrips_signed_zero_and_subnormals() {
    cases("bitplane_roundtrips_signed_zero_and_subnormals", CASES, |g| {
        let mut coeffs = g.vec(1..64, |g| g.range(-1e3..1e3));
        let planes = g.range(4u32..34);
        let at = g.range(0..coeffs.len());
        coeffs[at] = g.one_of(&[0.0, -0.0, f64::MIN_POSITIVE, -f64::MIN_POSITIVE, 5e-324, -5e-324]);
        let enc = LevelEncoding::encode(&coeffs, planes);
        let dec = enc.decode(planes);
        let actual = max_abs_diff(&coeffs, &dec);
        assert!((actual - enc.error_at(planes)).abs() <= 1e-9 * (1.0 + actual));
        assert!(dec.iter().all(|v| v.is_finite()));
    });
}

#[test]
fn bitplane_inf_policy_zeroes_the_level() {
    cases("bitplane_inf_policy_zeroes_the_level", CASES, |g| {
        let mut coeffs = g.vec(1..64, |g| g.range(-1e3..1e3));
        let planes = g.range(4u32..34);
        let at = g.range(0..coeffs.len());
        coeffs[at] = g.one_of(&[f64::NEG_INFINITY, f64::INFINITY]);
        let enc = LevelEncoding::encode(&coeffs, planes);
        // Infinite max magnitude -> degenerate level: decodes to zeros at
        // every plane count, with a zero error row.
        for b in [0, planes / 2, planes] {
            assert!(enc.decode(b).iter().all(|&v| v == 0.0));
            assert_eq!(enc.error_at(b), 0.0);
        }
        let bytes = enc.to_bytes().unwrap();
        let (back, used) = LevelEncoding::from_bytes(&bytes).expect("degenerate level persists");
        assert_eq!(used, bytes.len());
        assert!(back.decode(planes).iter().all(|&v| v == 0.0));
    });
}

#[test]
fn bitplane_nan_site_decodes_to_zero() {
    cases("bitplane_nan_site_decodes_to_zero", CASES, |g| {
        // NaN among finite values: that site quantizes to 0, decodes to
        // exactly 0.0, and never poisons the error row.
        let mut coeffs = g.vec(2..64, |g| g.range(1.0..1e3));
        let planes = g.range(4u32..34);
        let idx = g.range(0..coeffs.len());
        coeffs[idx] = f64::NAN;
        let enc = LevelEncoding::encode(&coeffs, planes);
        let dec = enc.decode(planes);
        assert_eq!(dec[idx], 0.0);
        assert!(dec.iter().all(|v| v.is_finite()));
        assert!(enc.error_row().iter().all(|e| e.is_finite()));
        // The artifact persists and round-trips despite the NaN input.
        let bytes = enc.to_bytes().unwrap();
        let (back, used) = LevelEncoding::from_bytes(&bytes).expect("NaN-laced level persists");
        assert_eq!(used, bytes.len());
        assert_eq!(back.to_bytes().unwrap(), bytes);
    });
}

#[test]
fn bitplane_handles_huge_magnitudes() {
    cases("bitplane_handles_huge_magnitudes", CASES, |g| {
        // f64::MAX-adjacent magnitudes must not overflow the fixed-point
        // quantizer into non-finite reconstructions.
        let scale = 10f64.powi(g.range(200i32..308));
        let planes = g.range(4u32..34);
        let coeffs: Vec<f64> = noise(g, 48, -1.0..1.0).iter().map(|u| u * scale).collect();
        let enc = LevelEncoding::encode(&coeffs, planes);
        let dec = enc.decode(planes);
        assert!(dec.iter().all(|v| v.is_finite()));
        let max_abs = coeffs.iter().fold(0.0f64, |m, &c| m.max(c.abs()));
        let quant = max_abs / (1u64 << (planes - 2)) as f64;
        let actual = max_abs_diff(&coeffs, &dec);
        assert!(actual <= quant * 1.5, "actual={actual} quant={quant}");
    });
}

#[test]
fn greedy_plan_monotone_in_bound() {
    cases("greedy_plan_monotone_in_bound", CASES, |g| {
        let field = noise_field(g, Shape::cube(7));
        let c = Compressed::compress(&field, &CompressConfig::default());
        let mut prev_size = u64::MAX;
        for bound in [1.0, 1e-1, 1e-2, 1e-3, 1e-4] {
            let plan = c.plan_theory(bound);
            let size = c.retrieved_bytes(&plan);
            assert!(size <= c.total_bytes());
            if prev_size != u64::MAX {
                assert!(size >= prev_size, "size must grow as bound tightens");
            }
            prev_size = size;
            // Bound respected by the actual reconstruction whenever the
            // estimator claims success.
            if plan.estimated_error <= bound {
                let rec = c.retrieve(&plan);
                assert!(max_abs_error(field.data(), rec.data()) <= bound);
            }
        }
    });
}

/// First element whose bits differ. Two NaNs count as equal: with both
/// operands NaN the hardware returns the first one, and which operand the
/// compiler puts first differs between the scalar and the vector loop — a
/// planted `inf - inf` (x86's negative default NaN) next to a planted
/// `f64::NAN` shows it. Which *sites* are NaN is still compared, and
/// nothing downstream looks past `is_finite`.
fn first_difference(got: &[f64], want: &[f64]) -> Option<usize> {
    assert_eq!(got.len(), want.len());
    got.iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits() && !(g.is_nan() && w.is_nan()))
}

/// The batched kernels behind `decompose_with` / `recompose_with` /
/// `recompose_to_level_with` must reproduce the per-line oracle
/// (`decompose` / `recompose` / `recompose_to_level`) bit for bit, at each
/// of `thread_counts`, in both builds of the kernels: `Swar` selects the
/// baseline one, `Auto` the AVX2 one where the CPU has AVX2.
fn check_batched_matches_oracle(dec: &Decomposer, orig: &[f64], thread_counts: &[usize]) {
    let mut coeffs = orig.to_vec();
    dec.decompose(&mut coeffs);
    let mut back = coeffs.clone();
    dec.recompose(&mut back);
    // The input read as coefficients too: a decomposed grid's coarse values
    // are rarely `-0.0`, so only this shows the inverse's signed zeros.
    let mut raw_back = orig.to_vec();
    dec.recompose(&mut raw_back);
    let to_level: Vec<(Vec<f64>, Vec<f64>)> = (0..dec.levels())
        .map(|level| {
            let mut buffer = coeffs.clone();
            let coarse = dec.recompose_to_level(&mut buffer, level);
            (coarse, buffer)
        })
        .collect();

    let runs = [PlaneKernel::Swar, PlaneKernel::Auto]
        .into_iter()
        .flat_map(|kernel| thread_counts.iter().map(move |&threads| (kernel, threads)));
    for (kernel, threads) in runs {
        let exec = ExecPolicy::with_threads(threads).with_kernel(kernel);
        let same = |what: &str, got: &[f64], want: &[f64]| {
            let diverged = first_difference(got, want);
            assert!(
                diverged.is_none(),
                "{what} diverged at {diverged:?}: shape={} levels={} mode={:?} threads={threads} \
                 {kernel:?}",
                dec.shape(),
                dec.levels(),
                dec.mode()
            );
        };
        let mut got = orig.to_vec();
        dec.decompose_with(&mut got, &exec);
        same("decompose_with", &got, &coeffs);
        let mut got = coeffs.clone();
        dec.recompose_with(&mut got, &exec);
        same("recompose_with", &got, &back);
        let mut got = orig.to_vec();
        dec.recompose_with(&mut got, &exec);
        same("recompose_with of the input", &got, &raw_back);
        for (level, (coarse, buffer)) in to_level.iter().enumerate() {
            let mut got = coeffs.clone();
            let got_coarse = dec.recompose_to_level_with(&mut got, level, &exec);
            same(&format!("recompose_to_level_with({level})"), &got_coarse, coarse);
            same(&format!("recompose_to_level_with({level}) buffer"), &got, buffer);
        }
    }
}

/// 1-/2-/3-D, odd/even/anisotropic/collapsing, above and below the
/// parallel gate.
fn twin_shapes() -> [Shape; 11] {
    [
        Shape::d1(2),
        Shape::d1(3),
        Shape::d1(100),
        Shape::d1(40_000),
        Shape::d2(33, 17),
        Shape::d2(210, 190),
        Shape::d3(17, 9, 13),
        Shape::d3(8, 12, 20),
        Shape::d3(33, 5, 2),
        Shape::cube(33),
        Shape::cube(97),
    ]
}

/// `interleave`/`deinterleave` walk each level's strided runs; the contract
/// they implement is the gather/scatter through `level_indices`.
#[test]
fn interleave_is_the_level_indices_gather() {
    for shape in twin_shapes() {
        let data: Vec<f64> = (0..shape.len()).map(|i| i as f64 + 0.25).collect();
        for levels in 1..=9 {
            let dec = Decomposer::new(shape, levels, TransformMode::L2Projection);
            let indices = dec.level_indices();
            let want: Vec<Vec<f64>> =
                indices.iter().map(|group| group.iter().map(|&i| data[i]).collect()).collect();
            let got = dec.interleave(&data);
            assert_eq!(got, want, "interleave: shape={shape} levels={levels}");

            let mut scattered = vec![f64::NAN; shape.len()];
            for (group, values) in indices.iter().zip(&want) {
                for (&i, &v) in group.iter().zip(values) {
                    scattered[i] = v;
                }
            }
            assert_eq!(
                dec.deinterleave(&got),
                scattered,
                "deinterleave: shape={shape} levels={levels}"
            );
        }
    }
}

/// The exhaustive form of `chunked_transform_matches_unchunked`: every twin
/// shape, every level count, both modes, serial to oversubscribed, laced
/// inputs.
#[test]
fn batched_transform_matches_the_per_line_oracle() {
    let mut rng = Rng::seed_from_u64(1);
    let mut random = |shape: Shape, edges: &[f64]| -> Vec<f64> {
        let mut data = noise(&mut rng, shape.len(), -500.0..500.0);
        for (k, i) in (0..shape.len()).step_by(shape.len().div_ceil(41)).enumerate() {
            data[i] = edges[k % edges.len()];
        }
        data
    };
    let mut signs = Rng::seed_from_u64(2);
    for shape in twin_shapes() {
        // Three inputs, each where a reordered or dropped operation would
        // show. A grid of randomly signed zeros: the sign of a zero is the
        // only trace `0.0 + 0.5·d` leaves, and any non-zero neighbour
        // erases it. Subnormals among ordinary values. And the non-finite
        // values, apart, because under L2 projection one NaN floods every
        // line it touches and a flooded grid compares equal whatever the
        // kernels do.
        let inputs = [
            (0..shape.len()).map(|_| if signs.bool() { -0.0 } else { 0.0 }).collect(),
            random(shape, &[f64::MIN_POSITIVE / 8.0, -f64::MIN_POSITIVE / 1024.0, 5e-324, -0.0]),
            random(shape, &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]),
        ];
        for data in &inputs {
            for mode in [TransformMode::Interpolation, TransformMode::L2Projection] {
                for levels in 1..=9 {
                    let dec = Decomposer::new(shape, levels, mode);
                    check_batched_matches_oracle(&dec, data, &[1, 2, 3, 4, 7]);
                }
            }
        }
    }
    // Every x-line length from 2 to 40, odd and even, through all of its
    // strided steps, on 1-, 2- and 3-D grids.
    for n in 2..=40 {
        for shape in [Shape::d1(n), Shape::d2(n, 3), Shape::d3(n, 2, 3)] {
            let data = random(shape, &[-0.0, 5e-324]);
            for mode in [TransformMode::Interpolation, TransformMode::L2Projection] {
                let dec = Decomposer::new(shape, Decomposer::max_levels(shape), mode);
                check_batched_matches_oracle(&dec, &data, &[1, 2]);
            }
        }
    }
}

/// The three kernel properties above on one fixed input, every plane count
/// and prefix named rather than drawn.
#[test]
fn kernel_identity_and_payload_totality_on_fixed_corpus() {
    let coeffs: Vec<f64> = (0..333).map(|i| ((i as f64) * 0.73).sin() * 1e4 - (i as f64)).collect();
    for planes in [4u32, 13, 33] {
        for b in [0, planes / 2, planes] {
            check_tiled_kernels_match_scalar_oracle(&coeffs, planes, b);
        }
        let enc = LevelEncoding::encode(&coeffs, planes);
        for keep in [0usize, 1, planes as usize / 2, planes as usize] {
            check_payload_prefix_decode_is_kernel_invariant(&enc, keep);
            let cut = enc.plane_payload(keep.saturating_sub(1) as u32).len() / 2;
            check_payload_decode_never_panics(&enc, keep, cut, 0x5a);
        }
    }
}
