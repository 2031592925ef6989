//! Property tests for the MGARD-style substrate: transform invertibility,
//! error-matrix correctness and the soundness of the theory bound.

use pmr_field::{error::max_abs_error, Field, Shape};
use pmr_mgard::{
    decompose::{Decomposer, TransformMode},
    estimate::{estimate_error, theory_constants},
    CompressConfig, Compressed, ExecPolicy, LevelEncoding, PlaneKernel,
};
use proptest::prelude::*;

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (2usize..40).prop_map(Shape::d1),
        (2usize..14, 2usize..14).prop_map(|(a, b)| Shape::d2(a, b)),
        (2usize..8, 2usize..8, 2usize..8).prop_map(|(a, b, c)| Shape::d3(a, b, c)),
    ]
}

fn arb_mode() -> impl Strategy<Value = TransformMode> {
    prop_oneof![Just(TransformMode::Interpolation), Just(TransformMode::L2Projection)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn decompose_recompose_identity(
        shape in arb_shape(),
        mode in arb_mode(),
        levels in 1usize..6,
        seed in any::<u64>(),
    ) {
        let orig: Vec<f64> = (0..shape.len())
            .map(|i| {
                let h = (i as u64).wrapping_mul(seed | 1).wrapping_mul(0x9E3779B97F4A7C15);
                (h >> 11) as f64 / (1u64 << 53) as f64 * 200.0 - 100.0
            })
            .collect();
        let dec = Decomposer::new(shape, levels, mode);
        let mut data = orig.clone();
        dec.decompose(&mut data);
        dec.recompose(&mut data);
        let err = orig.iter().zip(&data).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
        prop_assert!(err < 1e-8, "err={err}");
    }

    #[test]
    fn interleave_partition(shape in arb_shape(), levels in 1usize..6) {
        let dec = Decomposer::new(shape, levels, TransformMode::Interpolation);
        let groups = dec.level_indices();
        prop_assert_eq!(groups.len(), dec.levels());
        let mut seen = vec![false; shape.len()];
        for g in &groups {
            for &i in g {
                prop_assert!(!seen[i]);
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn error_row_is_exact(
        coeffs in proptest::collection::vec(-1e3f64..1e3, 1..200),
        planes in 4u32..34,
    ) {
        let enc = LevelEncoding::encode(&coeffs, planes);
        for b in [0, planes / 2, planes] {
            let dec = enc.decode(b);
            let actual = coeffs.iter().zip(&dec).map(|(a, d)| (a - d).abs()).fold(0.0f64, f64::max);
            prop_assert!((actual - enc.error_at(b)).abs() <= 1e-9 * (1.0 + actual));
        }
    }

    #[test]
    fn theory_bound_is_sound(
        side in 3usize..10,
        mode in arb_mode(),
        planes_used in 0u32..16,
        seed in any::<u64>(),
    ) {
        let shape = Shape::cube(side);
        let dec = Decomposer::new(shape, 4, mode);
        let orig: Vec<f64> = (0..shape.len())
            .map(|i| {
                let h = (i as u64).wrapping_mul(seed | 1).wrapping_mul(0x2545F4914F6CDD1D);
                ((h >> 12) as f64 / (1u64 << 52) as f64).sin() * 50.0
            })
            .collect();
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
        let actual = orig.iter().zip(&rec).map(|(a, r)| (a - r).abs()).fold(0.0f64, f64::max);
        prop_assert!(actual <= est * (1.0 + 1e-9) + 1e-12, "actual={actual} est={est}");
    }

    #[test]
    fn chunked_transform_matches_unchunked(
        shape in arb_shape(),
        mode in arb_mode(),
        levels in 1usize..6,
        threads in prop_oneof![Just(1usize), 2usize..6, Just(7usize)],
        seed in any::<u64>(),
    ) {
        let orig: Vec<f64> = (0..shape.len())
            .map(|i| {
                let h = (i as u64).wrapping_mul(seed | 1).wrapping_mul(0x9E3779B97F4A7C15);
                (h >> 11) as f64 / (1u64 << 53) as f64 * 200.0 - 100.0
            })
            .collect();
        let dec = Decomposer::new(shape, levels, mode);
        let outcome = batched_matches_oracle(&dec, &orig, &[threads]);
        prop_assert!(outcome.is_ok(), "{outcome:?}");
    }

    #[test]
    fn chunked_encode_matches_unchunked(
        coeffs in proptest::collection::vec(-1e3f64..1e3, 1..400),
        planes in 4u32..34,
        threads in 2usize..6,
    ) {
        let serial = LevelEncoding::encode(&coeffs, planes);
        let par = LevelEncoding::encode_with(&coeffs, planes, &ExecPolicy::with_threads(threads));
        prop_assert_eq!(par.to_bytes().unwrap(), serial.to_bytes().unwrap());
        let serial_row: Vec<u64> = serial.error_row().iter().map(|v| v.to_bits()).collect();
        let par_row: Vec<u64> = par.error_row().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(par_row, serial_row);
    }

    // --- SIMD/SWAR tile kernels vs the legacy scalar oracle: encode bytes,
    // error rows and every decode prefix must be bit-identical. ---

    #[test]
    fn tiled_kernels_match_scalar_oracle(
        coeffs in proptest::collection::vec(-1e6f64..1e6, 1..500),
        planes in 4u32..34,
        prefix_frac in 0.0f64..=1.0,
    ) {
        let scalar = ExecPolicy::serial().with_kernel(PlaneKernel::Scalar);
        let oracle = LevelEncoding::encode_with(&coeffs, planes, &scalar);
        let b = (f64::from(planes) * prefix_frac) as u32;
        let want: Vec<u64> =
            oracle.decode_with(b, &scalar).iter().map(|v| v.to_bits()).collect();
        for kernel in [PlaneKernel::Auto, PlaneKernel::Simd, PlaneKernel::Swar] {
            let exec = ExecPolicy::serial().with_kernel(kernel);
            let enc = LevelEncoding::encode_with(&coeffs, planes, &exec);
            prop_assert_eq!(enc.to_bytes().unwrap(), oracle.to_bytes().unwrap());
            let row: Vec<u64> = enc.error_row().iter().map(|v| v.to_bits()).collect();
            let oracle_row: Vec<u64> = oracle.error_row().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(row, oracle_row);
            let got: Vec<u64> =
                enc.decode_with(b, &exec).iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&got, &want);
        }
    }

    #[test]
    fn payload_decode_never_panics_on_truncation(
        coeffs in proptest::collection::vec(-1e3f64..1e3, 1..300),
        planes in 4u32..34,
        take in 0usize..40,
        cut in 0usize..4096,
        corrupt in any::<u8>(),
    ) {
        // Truncated, over-long, or bit-flipped plane payloads must come back
        // as Ok or a clean Err through every kernel — never a panic. The
        // bounded decompressor is what makes this total.
        let enc = LevelEncoding::encode(&coeffs, planes);
        let mut payloads: Vec<Vec<u8>> =
            (0..take.min(planes as usize) as u32).map(|k| enc.plane_payload(k).to_vec()).collect();
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

    #[test]
    fn payload_prefix_decode_is_kernel_invariant(
        coeffs in proptest::collection::vec(-1e4f64..1e4, 1..300),
        planes in 4u32..34,
        keep_frac in 0.0f64..=1.0,
    ) {
        // A valid strict prefix of plane payloads decodes identically
        // through the scalar assembly and the transposed kernels.
        let enc = LevelEncoding::encode(&coeffs, planes);
        let keep = (f64::from(planes) * keep_frac) as usize;
        let payloads: Vec<Vec<u8>> =
            (0..keep as u32).map(|k| enc.plane_payload(k).to_vec()).collect();
        let want: Vec<u64> = enc
            .decode_from_payloads_with(&payloads, &ExecPolicy::serial().with_kernel(PlaneKernel::Scalar))
            .expect("prefix of a valid artifact decodes")
            .iter().map(|v| v.to_bits()).collect();
        for kernel in [PlaneKernel::Auto, PlaneKernel::Simd, PlaneKernel::Swar] {
            let got: Vec<u64> = enc
                .decode_from_payloads_with(&payloads, &ExecPolicy::serial().with_kernel(kernel))
                .expect("prefix of a valid artifact decodes")
                .iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&got, &want);
        }
    }

    // --- float edge cases through the negabinary bit-plane path. The NaN
    // (deterministic twins of the kernel properties live at the bottom of
    // this file: the offline proptest stub elides `proptest!` bodies, so
    // local runs still need compiled coverage of the same invariants.)
    // policy (documented in `bitplane::LevelEncoding::encode`): any level
    // containing a non-finite value collapses to a zero level. ---

    #[test]
    fn bitplane_roundtrips_signed_zero_and_subnormals(
        base in proptest::collection::vec(-1e3f64..1e3, 1..64),
        planes in 4u32..34,
        edge_idx in 0usize..64,
    ) {
        let mut coeffs = base;
        let n = coeffs.len();
        let edges = [0.0, -0.0, f64::MIN_POSITIVE, -f64::MIN_POSITIVE, 5e-324, -5e-324];
        coeffs[edge_idx % n] = edges[edge_idx % edges.len()];
        let enc = LevelEncoding::encode(&coeffs, planes);
        let dec = enc.decode(planes);
        let actual = coeffs.iter().zip(&dec).map(|(a, d)| (a - d).abs()).fold(0.0f64, f64::max);
        prop_assert!((actual - enc.error_at(planes)).abs() <= 1e-9 * (1.0 + actual));
        prop_assert!(dec.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn bitplane_inf_policy_zeroes_the_level(
        base in proptest::collection::vec(-1e3f64..1e3, 1..64),
        planes in 4u32..34,
        edge_idx in 0usize..64,
        negative in any::<bool>(),
    ) {
        let mut coeffs = base;
        let n = coeffs.len();
        coeffs[edge_idx % n] = if negative { f64::NEG_INFINITY } else { f64::INFINITY };
        let enc = LevelEncoding::encode(&coeffs, planes);
        // Infinite max magnitude -> degenerate level: decodes to zeros at
        // every plane count, with a zero error row.
        for b in [0, planes / 2, planes] {
            prop_assert!(enc.decode(b).iter().all(|&v| v == 0.0));
            prop_assert_eq!(enc.error_at(b), 0.0);
        }
        let bytes = enc.to_bytes().unwrap();
        let (back, used) = LevelEncoding::from_bytes(&bytes).expect("degenerate level persists");
        prop_assert_eq!(used, bytes.len());
        prop_assert!(back.decode(planes).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn bitplane_nan_site_decodes_to_zero(
        base in proptest::collection::vec(1.0f64..1e3, 2..64),
        planes in 4u32..34,
        edge_idx in 0usize..64,
    ) {
        // NaN among finite values: that site quantizes to 0, decodes to
        // exactly 0.0, and never poisons the error row.
        let mut coeffs = base;
        let n = coeffs.len();
        let idx = edge_idx % n;
        coeffs[idx] = f64::NAN;
        let enc = LevelEncoding::encode(&coeffs, planes);
        let dec = enc.decode(planes);
        prop_assert_eq!(dec[idx], 0.0);
        prop_assert!(dec.iter().all(|v| v.is_finite()));
        prop_assert!(enc.error_row().iter().all(|e| e.is_finite()));
        // The artifact persists and round-trips despite the NaN input.
        let bytes = enc.to_bytes().unwrap();
        let (back, used) = LevelEncoding::from_bytes(&bytes).expect("NaN-laced level persists");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(back.to_bytes().unwrap(), bytes);
    }

    #[test]
    fn bitplane_handles_huge_magnitudes(
        scale_exp in 200i32..308,
        planes in 4u32..34,
        seed in any::<u64>(),
    ) {
        // f64::MAX-adjacent magnitudes must not overflow the fixed-point
        // quantizer into non-finite reconstructions.
        let scale = 10f64.powi(scale_exp);
        let coeffs: Vec<f64> = (0..48)
            .map(|i| {
                let h = (i as u64).wrapping_mul(seed | 1).wrapping_mul(0x9E3779B97F4A7C15);
                ((h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) * scale
            })
            .collect();
        let enc = LevelEncoding::encode(&coeffs, planes);
        let dec = enc.decode(planes);
        prop_assert!(dec.iter().all(|v| v.is_finite()));
        let max_abs = coeffs.iter().fold(0.0f64, |m, &c| m.max(c.abs()));
        let quant = max_abs / (1u64 << (planes - 2)) as f64;
        let actual = coeffs.iter().zip(&dec).map(|(a, d)| (a - d).abs()).fold(0.0f64, f64::max);
        prop_assert!(actual <= quant * 1.5, "actual={actual} quant={quant}");
    }

    // --- deserializers never panic: arbitrary and corrupted bytes must be
    // rejected with an error, not unwind or over-allocate. ---

    #[test]
    fn persist_from_bytes_never_panics_on_garbage(
        data in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = pmr_mgard::persist::from_bytes(&data);
        let _ = LevelEncoding::from_bytes(&data);
    }

    #[test]
    fn persist_from_bytes_never_panics_on_mutations(
        seed in any::<u64>(),
        flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..16),
    ) {
        // Mutate a genuine artifact: every result is either a clean parse
        // (payload bytes are not checksummed) or a structured error.
        let field = Field::from_fn("m", 0, Shape::cube(5), |x, y, z| {
            let h = ((x + 31 * y + 997 * z) as u64)
                .wrapping_mul(seed | 1)
                .wrapping_mul(0x9E3779B97F4A7C15);
            (h >> 11) as f64 / (1u64 << 53) as f64
        });
        let c = Compressed::compress(&field, &CompressConfig { levels: 3, ..Default::default() });
        let mut bytes = pmr_mgard::persist::to_bytes(&c).unwrap();
        for (pos, val) in flips {
            let n = bytes.len();
            bytes[pos % n] ^= val;
        }
        if let Ok(back) = pmr_mgard::persist::from_bytes(&bytes) {
            // Whatever parsed must still be structurally usable.
            let plan = back.plan_full();
            let rec = back.retrieve(&plan);
            prop_assert_eq!(rec.data().len(), back.shape().len());
        }
    }

    #[test]
    fn greedy_plan_monotone_in_bound(seed in any::<u64>()) {
        let shape = Shape::cube(7);
        let field = Field::from_fn("p", 0, shape, |x, y, z| {
            let h = ((x + 31 * y + 997 * z) as u64)
                .wrapping_mul(seed | 1)
                .wrapping_mul(0x9E3779B97F4A7C15);
            (h >> 11) as f64 / (1u64 << 53) as f64
        });
        let c = Compressed::compress(&field, &CompressConfig::default());
        let mut prev_size = u64::MAX;
        for bound in [1.0, 1e-1, 1e-2, 1e-3, 1e-4] {
            let plan = c.plan_theory(bound);
            let size = c.retrieved_bytes(&plan);
            prop_assert!(size <= c.total_bytes());
            if prev_size != u64::MAX {
                prop_assert!(size >= prev_size, "size must grow as bound tightens");
            }
            prev_size = size;
            // Bound respected by the actual reconstruction whenever the
            // estimator claims success.
            if plan.estimated_error <= bound {
                let rec = c.retrieve(&plan);
                prop_assert!(max_abs_error(field.data(), rec.data()) <= bound);
            }
        }
    }
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
/// of `thread_counts`.
fn batched_matches_oracle(
    dec: &Decomposer,
    orig: &[f64],
    thread_counts: &[usize],
) -> Result<(), String> {
    let mut coeffs = orig.to_vec();
    dec.decompose(&mut coeffs);
    let mut back = coeffs.clone();
    dec.recompose(&mut back);
    let to_level: Vec<(Vec<f64>, Vec<f64>)> = (0..dec.levels())
        .map(|level| {
            let mut buffer = coeffs.clone();
            let coarse = dec.recompose_to_level(&mut buffer, level);
            (coarse, buffer)
        })
        .collect();

    for &threads in thread_counts {
        let exec = ExecPolicy::with_threads(threads);
        let diverged = |what: &str, i: usize| {
            Err(format!(
                "{what} diverged at {i}: shape={} levels={} mode={:?} threads={threads}",
                dec.shape(),
                dec.levels(),
                dec.mode()
            ))
        };
        let mut got = orig.to_vec();
        dec.decompose_with(&mut got, &exec);
        if let Some(i) = first_difference(&got, &coeffs) {
            return diverged("decompose_with", i);
        }
        let mut got = coeffs.clone();
        dec.recompose_with(&mut got, &exec);
        if let Some(i) = first_difference(&got, &back) {
            return diverged("recompose_with", i);
        }
        for (level, (coarse, buffer)) in to_level.iter().enumerate() {
            let mut got = coeffs.clone();
            let got_coarse = dec.recompose_to_level_with(&mut got, level, &exec);
            if let Some(i) = first_difference(&got_coarse, coarse) {
                return diverged(&format!("recompose_to_level_with({level})"), i);
            }
            if let Some(i) = first_difference(&got, buffer) {
                return diverged(&format!("recompose_to_level_with({level}) buffer"), i);
            }
        }
    }
    Ok(())
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

/// `interleave`/`deinterleave` walk the rows with a cursor per level; the
/// contract they implement is the gather/scatter through `level_indices`.
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

/// Deterministic twin of `chunked_transform_matches_unchunked`: every twin
/// shape, every level count, both modes, serial to oversubscribed, laced
/// inputs.
#[test]
fn batched_transform_matches_the_per_line_oracle() {
    let noise = |i: usize| (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
    let random = |shape: Shape, edges: &[f64]| -> Vec<f64> {
        let mut data: Vec<f64> = (0..shape.len())
            .map(|i| ((noise(i) >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1e3)
            .collect();
        for (k, i) in (0..shape.len()).step_by(shape.len().div_ceil(41)).enumerate() {
            data[i] = edges[k % edges.len()];
        }
        data
    };
    for shape in twin_shapes() {
        // Three inputs, each where a reordered or dropped operation would
        // show. A grid of randomly signed zeros: the sign of a zero is the
        // only trace `0.0 + 0.5·d` leaves, and any non-zero neighbour
        // erases it. Subnormals among ordinary values. And the non-finite
        // values, apart, because under L2 projection one NaN floods every
        // line it touches and a flooded grid compares equal whatever the
        // kernels do.
        let inputs = [
            (0..shape.len()).map(|i| if noise(i) >> 63 == 1 { -0.0 } else { 0.0 }).collect(),
            random(shape, &[f64::MIN_POSITIVE / 8.0, -f64::MIN_POSITIVE / 1024.0, 5e-324, -0.0]),
            random(shape, &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]),
        ];
        for data in &inputs {
            for mode in [TransformMode::Interpolation, TransformMode::L2Projection] {
                for levels in 1..=9 {
                    let dec = Decomposer::new(shape, levels, mode);
                    batched_matches_oracle(&dec, data, &[1, 2, 3, 4, 7])
                        .unwrap_or_else(|why| panic!("{why}"));
                }
            }
        }
    }
}

// Deterministic twins of the kernel-differential properties above (the
// offline proptest stub elides `proptest!` bodies; CI runs the randomized
// form with the real crate).
#[test]
fn kernel_identity_and_payload_totality_on_fixed_corpus() {
    let scalar = ExecPolicy::serial().with_kernel(PlaneKernel::Scalar);
    let kernels = [PlaneKernel::Auto, PlaneKernel::Simd, PlaneKernel::Swar];
    let coeffs: Vec<f64> = (0..333).map(|i| ((i as f64) * 0.73).sin() * 1e4 - (i as f64)).collect();
    for planes in [4u32, 13, 33] {
        let oracle = LevelEncoding::encode_with(&coeffs, planes, &scalar);
        for kernel in kernels {
            let exec = ExecPolicy::serial().with_kernel(kernel);
            let enc = LevelEncoding::encode_with(&coeffs, planes, &exec);
            assert_eq!(enc.to_bytes().unwrap(), oracle.to_bytes().unwrap());
            let row: Vec<u64> = enc.error_row().iter().map(|v| v.to_bits()).collect();
            let oracle_row: Vec<u64> = oracle.error_row().iter().map(|v| v.to_bits()).collect();
            assert_eq!(row, oracle_row);
            for b in [0, planes / 2, planes] {
                let got: Vec<u64> = enc.decode_with(b, &exec).iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> =
                    oracle.decode_with(b, &scalar).iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "kernel {kernel:?} decode({b}) diverged");
            }
        }

        // Valid prefixes decode identically through every kernel; truncated
        // and bit-flipped payloads return cleanly instead of panicking.
        let enc = LevelEncoding::encode(&coeffs, planes);
        for keep in [0usize, 1, planes as usize / 2, planes as usize] {
            let payloads: Vec<Vec<u8>> =
                (0..keep as u32).map(|k| enc.plane_payload(k).to_vec()).collect();
            let want: Vec<u64> = enc
                .decode_from_payloads_with(
                    &payloads,
                    &ExecPolicy::serial().with_kernel(PlaneKernel::Scalar),
                )
                .expect("prefix of a valid artifact decodes")
                .iter()
                .map(|v| v.to_bits())
                .collect();
            for kernel in kernels {
                let got: Vec<u64> = enc
                    .decode_from_payloads_with(&payloads, &ExecPolicy::serial().with_kernel(kernel))
                    .expect("prefix of a valid artifact decodes")
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(got, want, "payload decode {kernel:?} diverged at keep={keep}");
            }
            if keep == 0 {
                continue;
            }
            let mut mangled = payloads;
            if let Some(last) = mangled.last_mut() {
                let cut = last.len() / 2;
                last.truncate(cut);
                if let Some(byte) = last.first_mut() {
                    *byte ^= 0x5a;
                }
            }
            for kernel in [PlaneKernel::Scalar, PlaneKernel::Auto, PlaneKernel::Swar] {
                let _ = enc
                    .decode_from_payloads_with(&mangled, &ExecPolicy::serial().with_kernel(kernel));
            }
        }
    }
}
