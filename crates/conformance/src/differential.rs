//! Differential checks: two paths that must agree, and invariants that
//! must hold as a knob turns.
//!
//! * **Serial vs parallel bit-identity** — compressing and retrieving with
//!   one thread must produce byte-identical artifacts and bit-identical
//!   reconstructions to the multi-threaded path. The parallel data path is
//!   pure work-partitioning; any divergence is a race or a
//!   nondeterministic reduction.
//! * **Batch vs per-item equivalence** — `compress_many` must match
//!   looping `compress`.
//! * **SIMD vs scalar bit-identity** — every bit-plane kernel
//!   ([`PlaneKernel`]) must produce byte-identical artifacts and
//!   bit-identical reconstructions; the legacy scalar path is the oracle.
//!   Checked end-to-end over the full field catalogue (including the
//!   NaN-laced class) and at the codec layer over adversarial coefficient
//!   arrays (all-zero planes, alternating sign, inf/NaN-laced, subnormal,
//!   ragged counts that are not a multiple of the 64-lane tile).
//! * **Batched vs per-line transform bit-identity** — the plane-batched
//!   kernels behind `decompose_with`/`recompose_with` must reproduce the
//!   per-line oracle (`decompose`/`recompose`) at every worker count, over
//!   the full catalogue in both transform modes.
//! * **Placed vs staged decode bit-identity** — retrieval decodes every
//!   level straight into one grid; it must equal decoding each level alone
//!   (scalar oracle), `deinterleave` and recompose, and a mangled payload
//!   must fail with the same error.
//! * **Placed vs staged encode byte-identity** — compression encodes every
//!   level straight from the decomposed grid; the artifact must equal
//!   `interleave` followed by encoding each level alone (scalar oracle), at
//!   every worker count and kernel.
//! * **Monotonicity** — under the theory planner, a tighter bound never
//!   fetches fewer bytes (exact: the greedy pick sequence is
//!   bound-independent, the bound only moves the stopping point), and more
//!   bit-planes never increase the reconstruction error *in stride-4
//!   aggregate* (per-plane max error can wiggle locally: negabinary
//!   truncation error is not pointwise monotone — value 6 = `11010₂̄`
//!   has err 6 after 0 planes but 10 after 1).

use crate::fields::{catalogue, synthetic, FieldClass};
use crate::sweep::{SWEEP_LEVELS, SWEEP_PLANES};
use pmr_error::PmrError;
use pmr_field::{Field, Shape};
use pmr_mgard::{
    persist, CompressConfig, Compressed, DecodeOptions, Decomposer, ExecPolicy, LevelEncoding,
    PlaneKernel, RetrievalPlan, TransformMode,
};

fn compress_cfg(threads: usize) -> CompressConfig {
    CompressConfig {
        levels: SWEEP_LEVELS,
        num_planes: SWEEP_PLANES,
        threads,
        ..CompressConfig::default()
    }
}

fn bits(field: &Field) -> Vec<u64> {
    field.data().iter().map(|v| v.to_bits()).collect()
}

/// The differential corpus: every finite synthetic class (the NaN-laced
/// class is covered by the robustness checks in [`crate::sweep`]).
fn finite_corpus(seed: u64) -> Vec<Field> {
    catalogue(seed)
        .into_iter()
        .filter(|(class, _)| class.is_finite() && *class != FieldClass::Constant)
        .map(|(_, f)| f)
        .collect()
}

/// Serial and parallel execution must be bit-identical end to end.
pub fn check_serial_parallel_identity(seed: u64, failures: &mut Vec<String>) {
    for field in finite_corpus(seed) {
        let serial = Compressed::compress(&field, &compress_cfg(1));
        let parallel = Compressed::compress(&field, &compress_cfg(4));
        // Compare as `Result<_, String>` so a serialization failure on one
        // side also reads as a divergence instead of aborting the sweep.
        let serial_bytes = persist::to_bytes(&serial).map_err(|e| e.to_string());
        let parallel_bytes = persist::to_bytes(&parallel).map_err(|e| e.to_string());
        if serial_bytes != parallel_bytes {
            failures.push(format!(
                "differential: {} serial vs parallel compression artifacts differ",
                field.name()
            ));
            continue;
        }
        for rel in [1e-2, 1e-4] {
            let plan = serial.plan_theory(serial.absolute_bound(rel));
            let a = serial
                .decode_plan(&plan, &DecodeOptions::with_exec(ExecPolicy::serial()))
                .expect("theory plan matches its artifact");
            let b = parallel
                .decode_plan(&plan, &DecodeOptions::with_exec(ExecPolicy::with_threads(4)))
                .expect("theory plan matches its artifact");
            if bits(&a) != bits(&b) {
                failures.push(format!(
                    "differential: {} serial vs parallel retrieval differs at rel {rel}",
                    field.name()
                ));
            }
        }
    }
}

/// `compress_many` must equal a per-item loop.
pub fn check_batch_equivalence(seed: u64, failures: &mut Vec<String>) {
    let fields = finite_corpus(seed);
    let cfg = compress_cfg(0);
    let batch = Compressed::compress_many(&fields, &cfg);
    for (f, b) in fields.iter().zip(&batch) {
        let one = Compressed::compress(f, &cfg);
        if persist::to_bytes(b).map_err(|e| e.to_string())
            != persist::to_bytes(&one).map_err(|e| e.to_string())
        {
            failures.push(format!(
                "differential: {} compress_many differs from per-item compress",
                f.name()
            ));
        }
    }
}

/// Every bit-plane kernel must be bit-identical to the legacy scalar path.
///
/// End-to-end: compressing the full catalogue (NaN-laced included) under
/// each explicit kernel must yield byte-identical artifacts and
/// bit-identical retrievals. Codec-level: `LevelEncoding` over adversarial
/// coefficient arrays must match the scalar oracle exactly — serialized
/// bytes, error rows, and every decode prefix.
pub fn check_kernel_identity(seed: u64, failures: &mut Vec<String>) {
    let kernels = [PlaneKernel::Auto, PlaneKernel::Swar];
    let scalar_exec = ExecPolicy::serial().with_kernel(PlaneKernel::Scalar);

    // End-to-end over the catalogue — kernel invariance must hold on
    // non-finite inputs too, so no `is_finite` filter here.
    for (_, field) in catalogue(seed) {
        let cfg = CompressConfig { kernel: PlaneKernel::Scalar, ..compress_cfg(1) };
        let oracle = Compressed::compress(&field, &cfg);
        let oracle_bytes = persist::to_bytes(&oracle).map_err(|e| e.to_string());
        let plan = oracle.plan_theory(oracle.absolute_bound(1e-4));
        let oracle_out = oracle
            .decode_plan(&plan, &DecodeOptions::with_exec(scalar_exec))
            .expect("theory plan matches its artifact");
        for kernel in kernels {
            let exec = ExecPolicy::serial().with_kernel(kernel);
            let tiled = Compressed::compress(&field, &CompressConfig { kernel, ..cfg });
            if persist::to_bytes(&tiled).map_err(|e| e.to_string()) != oracle_bytes {
                failures.push(format!(
                    "differential: {} {} kernel artifact differs from scalar oracle",
                    field.name(),
                    kernel.name()
                ));
                continue;
            }
            let out = tiled
                .decode_plan(&plan, &DecodeOptions::with_exec(exec))
                .expect("theory plan matches its artifact");
            if bits(&out) != bits(&oracle_out) {
                failures.push(format!(
                    "differential: {} {} kernel retrieval differs from scalar oracle",
                    field.name(),
                    kernel.name()
                ));
            }
        }
    }

    // Codec-level adversarial corpus. 200 is deliberately not a multiple of
    // the 64-lane tile so every case also exercises the ragged tail.
    let adversarial: Vec<(&str, Vec<f64>)> = vec![
        ("all-zero", vec![0.0; 200]),
        ("alternating-sign", (0..200).map(|i| if i % 2 == 0 { 1.5 } else { -1.5 }).collect()),
        ("tiny-uniform", vec![f64::MIN_POSITIVE; 200]),
        ("subnormal", (0..200).map(|i| f64::from_bits(1 + (i as u64 % 7))).collect()),
        (
            "nan-laced",
            (0..200).map(|i| if i % 37 == 0 { f64::NAN } else { (i as f64).sin() }).collect(),
        ),
        (
            "inf-laced",
            (0..200)
                .map(|i| if i % 53 == 0 { f64::INFINITY } else { (i as f64).cos() * 8.0 })
                .collect(),
        ),
        ("single", vec![3.75]),
        ("tile-aligned", (0..128).map(|i| (i as f64) * 0.375 - 20.0).collect()),
    ];
    for (name, coeffs) in &adversarial {
        for planes in [3, 17, SWEEP_PLANES] {
            let oracle = LevelEncoding::encode_with(coeffs, planes, &scalar_exec);
            let obytes = oracle.to_bytes().map_err(|e| e.to_string());
            for kernel in kernels {
                let exec = ExecPolicy::serial().with_kernel(kernel);
                let enc = LevelEncoding::encode_with(coeffs, planes, &exec);
                if enc.to_bytes().map_err(|e| e.to_string()) != obytes {
                    failures.push(format!(
                        "differential: adversarial {name}/{planes} {} encode differs from scalar",
                        kernel.name()
                    ));
                    continue;
                }
                for b in [0, 1, planes / 2, planes] {
                    let got: Vec<u64> =
                        enc.decode_with(b, &exec).iter().map(|v| v.to_bits()).collect();
                    let want: Vec<u64> =
                        oracle.decode_with(b, &scalar_exec).iter().map(|v| v.to_bits()).collect();
                    if got != want {
                        failures.push(format!(
                            "differential: adversarial {name}/{planes} {} decode({b}) differs",
                            kernel.name()
                        ));
                    }
                }
            }
        }
    }
}

/// Fields whose x-lines are 2 to 40 points long, odd and even, on 1-, 2-
/// and 3-D grids: every length the x-line sweeps end differently on (with
/// or without a last detail), at each of the strided steps the shape has.
fn x_line_fields(seed: u64) -> Vec<Field> {
    let mut rng = pmr_rng::Rng::seed_from_u64(seed);
    (2..=40)
        .flat_map(|n| [Shape::d1(n), Shape::d2(n, 3), Shape::d3(n, 2, 3)])
        .map(|shape| {
            let data = (0..shape.len()).map(|_| rng.range(-500.0..500.0)).collect();
            Field::new(format!("x-lines {shape}"), 0, shape, data)
        })
        .collect()
}

/// The plane-batched transform kernels must be bit-identical to the
/// per-line oracle. Serial-vs-parallel checks compare the kernels with
/// themselves; this one pins them to `forward_line`/`inverse_line`, on
/// every catalogue field (non-finite classes included) and every
/// `x_line_fields` field (all its levels), in both modes, in both builds
/// of the kernels — `Swar` selects the baseline one, `Auto` the AVX2 one
/// where the CPU has AVX2 — at 1, 2 and 4 workers.
///
/// Two NaNs compare equal whatever their sign and payload: which operand's
/// NaN an operation on two NaNs returns follows the compiler's operand
/// order, which differs between a scalar and a vector loop, and the
/// encoder only asks `is_finite`. Which sites are NaN is compared.
pub fn check_transform_identity(seed: u64, failures: &mut Vec<String>) {
    let same = |got: &[f64], want: &[f64]| {
        got.iter().zip(want).all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
    };
    let fields = catalogue(seed)
        .into_iter()
        .map(|(_, field)| (field, SWEEP_LEVELS))
        .chain(x_line_fields(seed).into_iter().map(|field| (field, usize::MAX)));
    for (field, levels) in fields {
        for mode in [TransformMode::Interpolation, TransformMode::L2Projection] {
            let dec = Decomposer::new(field.shape(), levels, mode);
            let mut coeffs = field.data().to_vec();
            dec.decompose(&mut coeffs);
            let mut back = coeffs.clone();
            dec.recompose(&mut back);
            for kernel in [PlaneKernel::Swar, PlaneKernel::Auto] {
                for threads in [1, 2, 4] {
                    let exec = ExecPolicy::with_threads(threads).with_kernel(kernel);
                    let mut got = field.data().to_vec();
                    dec.decompose_with(&mut got, &exec);
                    if !same(&got, &coeffs) {
                        failures.push(format!(
                            "differential: {} {mode:?} decompose_with({threads} threads, {kernel:?}) differs from the per-line oracle",
                            field.name()
                        ));
                    }
                    let mut got = coeffs.clone();
                    dec.recompose_with(&mut got, &exec);
                    if !same(&got, &back) {
                        failures.push(format!(
                            "differential: {} {mode:?} recompose_with({threads} threads, {kernel:?}) differs from the per-line oracle",
                            field.name()
                        ));
                    }
                }
            }
        }
    }
}

/// The staged form of retrieval, the oracle of the placed decoder: each
/// level decoded on its own into an array by the scalar kernel, serially,
/// scattered by `deinterleave`, then recomposed — in full, or up to the grid
/// of `coarse_level`. The first level that fails to decode is the error.
fn staged(
    c: &Compressed,
    levels: Result<Vec<Vec<f64>>, PmrError>,
    coarse_level: Option<usize>,
) -> Result<Field, PmrError> {
    let dec = c.decomposer();
    let mut data = dec.deinterleave(&levels?);
    let (shape, data) = match coarse_level {
        None => {
            dec.recompose_with(&mut data, &ExecPolicy::serial());
            (dec.shape(), data)
        }
        Some(level) => (
            dec.grid_shape_at_level(level),
            dec.recompose_to_level_with(&mut data, level, &ExecPolicy::serial()),
        ),
    };
    Ok(Field::new(c.name(), c.timestep(), shape, data))
}

/// How two retrievals of the same thing differ, if they do: the error
/// text, or the shape, or the first coefficient whose bits differ.
fn divergence(got: Result<Field, PmrError>, want: Result<Field, PmrError>) -> Option<String> {
    match (got, want) {
        (Ok(got), Ok(want)) if got.shape() != want.shape() => {
            Some(format!("shape {} vs {}", got.shape(), want.shape()))
        }
        (Ok(got), Ok(want)) => {
            let at = bits(&got).iter().zip(bits(&want)).position(|(g, w)| *g != w)?;
            Some(format!("value {at}: {:e} vs {:e}", got.data()[at], want.data()[at]))
        }
        (Err(got), Err(want)) if got.to_string() == want.to_string() => None,
        (got, want) => Some(format!("{:?} vs {:?}", got.err(), want.err())),
    }
}

/// [`Compressed::decode_plan`] of `planes` under `exec` against the staged
/// oracle; `None` when they agree bit for bit.
fn plan_divergence(
    c: &Compressed,
    planes: &[u32],
    coarse_level: Option<usize>,
    exec: ExecPolicy,
) -> Option<String> {
    let plan = RetrievalPlan::from_planes(planes.to_vec());
    let got = c.decode_plan(&plan, &DecodeOptions { exec: Some(exec), coarse_level });
    let scalar = ExecPolicy::serial().with_kernel(PlaneKernel::Scalar);
    let levels = c.levels().iter().zip(planes).enumerate();
    let levels = levels.map(|(l, (lvl, &b))| {
        lvl.decode_with(if coarse_level.is_some_and(|c| l > c) { 0 } else { b }, &scalar)
    });
    divergence(got, staged(c, Ok(levels.collect()), coarse_level))
        .map(|why| format!("planes {planes:?} coarse {coarse_level:?} {exec:?}: {why}"))
}

/// [`Compressed::retrieve_from_payloads`] of `payloads` (one prefix of
/// plane payloads per level, mangled or not) under `exec` against the
/// staged oracle: the same field bit for bit, or the same error.
fn payload_divergence(
    c: &Compressed,
    payloads: &[Vec<Vec<u8>>],
    exec: ExecPolicy,
) -> Option<String> {
    let got = c.retrieve_from_payloads(payloads, Some(exec));
    let scalar = ExecPolicy::serial().with_kernel(PlaneKernel::Scalar);
    let levels = c.levels().iter().zip(payloads);
    let levels = levels.map(|(lvl, p)| lvl.decode_from_payloads_with(p, &scalar)).collect();
    divergence(got, staged(c, levels, None)).map(|why| {
        let kept: Vec<usize> = payloads.iter().map(Vec::len).collect();
        format!("payload prefixes {kept:?} {exec:?}: {why}")
    })
}

/// The first `planes[l]` own plane payloads of every level.
fn payload_prefixes(c: &Compressed, planes: &[u32]) -> Vec<Vec<Vec<u8>>> {
    let levels = c.levels().iter().zip(planes);
    levels.map(|(lvl, &b)| (0..b).map(|k| lvl.plane_payload(k).to_vec()).collect()).collect()
}

/// Shapes whose finest level is decoded by several workers under a parallel
/// policy (it holds more than `PARALLEL_MIN_COEFFS` coefficients), in 1-,
/// 2- and 3-D: a worker range may start inside a strided run.
fn above_parallel_gate() -> [Shape; 3] {
    [Shape::d1(40_000), Shape::d2(210, 190), Shape::cube(33)]
}

/// The one decode tail — one grid, each level decoded straight into its
/// positions, then recomposed — must reproduce the staged oracle bit for
/// bit: over the catalogue (non-finite classes included) and a field on
/// each shape of `above_parallel_gate`; with no planes, every plane, a
/// theory plan and a mixed plan; at 1 to 7 workers; in full and to a
/// coarse grid; through `decode_plan` and through `retrieve_from_payloads`,
/// where a mangled payload must fail with the staged path's error.
pub fn check_reconstruct_identity(seed: u64, failures: &mut Vec<String>) {
    let parallel = above_parallel_gate().map(|s| synthetic(FieldClass::Turbulent, s, seed, 0));
    for field in catalogue(seed).into_iter().map(|(_, f)| f).chain(parallel) {
        let c = Compressed::compress(&field, &compress_cfg(1));
        let full = c.plan_full().planes;
        let nl = full.len();
        let mixed: Vec<u32> =
            full.iter().enumerate().map(|(l, &b)| b * (l as u32 % 2) / 2).collect();
        let plans = [vec![0; nl], full, c.plan_theory(c.absolute_bound(1e-3)).planes, mixed];
        for planes in &plans {
            for exec in [1, 2, 3, 4, 7].map(ExecPolicy::with_threads) {
                let mut payloads = payload_prefixes(&c, planes);
                let mut why = plan_divergence(&c, planes, None, exec)
                    .or_else(|| plan_divergence(&c, planes, Some(nl / 2), exec))
                    .or_else(|| payload_divergence(&c, &payloads, exec));
                if let Some(last) = payloads.iter_mut().rev().find_map(|p| p.last_mut()) {
                    last.truncate(last.len() / 2);
                    why = why.or_else(|| payload_divergence(&c, &payloads, exec));
                }
                if let Some(why) = why {
                    failures.push(format!("differential: {} placed decode {why}", field.name()));
                }
            }
        }
    }
}

/// The staged form of compression, the oracle of the placed encoder:
/// decompose, gather every level into an array of its own (`interleave`),
/// then encode each alone by the scalar kernel, serially.
fn staged_levels(field: &Field, cfg: &CompressConfig) -> Vec<LevelEncoding> {
    let dec = Decomposer::new(field.shape(), cfg.levels, cfg.mode);
    let mut data = field.data().to_vec();
    dec.decompose_with(&mut data, &ExecPolicy::serial());
    let scalar = ExecPolicy::serial().with_kernel(PlaneKernel::Scalar);
    let levels = dec.interleave(&data);
    levels
        .iter()
        .map(|coeffs| LevelEncoding::encode_with(coeffs, cfg.num_planes, &scalar))
        .collect()
}

/// `compress` encodes every level straight from the decomposed grid;
/// it must reproduce the staged oracle byte for byte: over the catalogue
/// (non-finite classes included) and a field on each shape of
/// `above_parallel_gate`, at 1 to 7 workers, under every kernel. Each
/// artifact's `persist::to_bytes` must equal the serial scalar one's, and
/// that artifact's levels — the only part of it the encoder writes — must
/// serialize exactly as the staged levels do.
pub fn check_compress_identity(seed: u64, failures: &mut Vec<String>) {
    let kernels = [PlaneKernel::Auto, PlaneKernel::Swar, PlaneKernel::Scalar];
    let cfg = compress_cfg(1);
    let as_bytes = |c: &Compressed| persist::to_bytes(c).map_err(|e| e.to_string());
    let level_bytes = |levels: &[LevelEncoding]| -> Vec<_> {
        levels.iter().map(|l| l.to_bytes().map_err(|e| e.to_string())).collect()
    };
    let parallel = above_parallel_gate().map(|s| synthetic(FieldClass::Turbulent, s, seed, 0));
    for field in catalogue(seed).into_iter().map(|(_, f)| f).chain(parallel) {
        let oracle =
            Compressed::compress(&field, &CompressConfig { kernel: PlaneKernel::Scalar, ..cfg });
        if level_bytes(oracle.levels()) != level_bytes(&staged_levels(&field, &cfg)) {
            failures.push(format!(
                "differential: {} placed encode differs from interleave + encode_with",
                field.name()
            ));
            continue;
        }
        let want = as_bytes(&oracle);
        for kernel in kernels {
            for threads in [1, 2, 3, 4, 7] {
                let cfg = CompressConfig { threads, kernel, ..cfg };
                if as_bytes(&Compressed::compress(&field, &cfg)) != want {
                    failures.push(format!(
                        "differential: {} compress {:?} differs from the staged oracle",
                        field.name(),
                        cfg.exec()
                    ));
                }
            }
        }
    }
}

/// Monotonicity invariants under the theory planner.
pub fn check_monotonicity(seed: u64, failures: &mut Vec<String>) {
    for field in finite_corpus(seed) {
        let c = Compressed::compress(&field, &compress_cfg(0));

        // Bytes are non-decreasing as the bound tightens — exact.
        let rels = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6];
        let mut last_bytes = 0u64;
        for rel in rels {
            let plan = c.plan_theory(c.absolute_bound(rel));
            let bytes = c.retrieved_bytes(&plan);
            if bytes < last_bytes {
                failures.push(format!(
                    "differential: {} bytes decreased when tightening to rel {rel}",
                    field.name()
                ));
            }
            last_bytes = bytes;
        }

        // More planes → error non-increasing, checked at stride 4 with a
        // small slack for the local negabinary wiggle.
        let mut last_err = f64::INFINITY;
        for planes in (0..=SWEEP_PLANES).step_by(4) {
            let plan = RetrievalPlan::from_planes(vec![planes; c.num_levels()]);
            let out = c.decode_plan(&plan, &DecodeOptions::default()).expect("uniform plan");
            let achieved = pmr_field::error::max_abs_error(field.data(), out.data());
            if achieved > last_err * 1.05 + 1e-12 {
                failures.push(format!(
                    "differential: {} error rose from {last_err:.3e} to {:.3e} at {planes} planes",
                    field.name(),
                    achieved
                ));
            }
            last_err = achieved;
        }
    }
}

/// Run every differential check over the seeded corpus; returns the list
/// of failures (empty = pass).
pub fn run_differential(seed: u64) -> Vec<String> {
    let mut failures = Vec::new();
    check_serial_parallel_identity(seed, &mut failures);
    check_kernel_identity(seed, &mut failures);
    check_transform_identity(seed, &mut failures);
    check_batch_equivalence(seed, &mut failures);
    check_reconstruct_identity(seed, &mut failures);
    check_compress_identity(seed, &mut failures);
    check_monotonicity(seed, &mut failures);
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn differential_checks_pass_on_seeded_corpus() {
        let failures = run_differential(11);
        assert!(failures.is_empty(), "{failures:?}");
    }

    /// The catalogue's classes on its shapes, and half the time on a 1-,
    /// 2- or 3-D shape whose finest level is above the parallel gate, so
    /// worker ranges cut strided runs; random plans (none, every plane,
    /// mixed) and coarse grids, every kernel and worker count, truncated
    /// and mangled payload prefixes.
    #[test]
    fn placed_decode_matches_the_staged_oracle() {
        use crate::fields::corpus_shapes;
        pmr_rng::cases("placed_decode_matches_the_staged_oracle", 64, |g| {
            let shape = if g.bool() {
                g.one_of(&corpus_shapes())
            } else {
                g.one_of(&above_parallel_gate())
            };
            let field = synthetic(g.one_of(&FieldClass::all()), shape, g.range(0..1000u64), 0);
            let cfg = CompressConfig {
                levels: g.range(1..6usize),
                num_planes: g.one_of(&[5u32, 17, 32]),
                ..compress_cfg(1)
            };
            let c = Compressed::compress(&field, &cfg);
            let nl = c.num_levels();
            let b = c.num_planes();
            let planes: Vec<u32> = match g.range(0..4u32) {
                0 => vec![0; nl],
                1 => vec![b; nl],
                _ => (0..nl)
                    .map(|_| {
                        let some = g.range(1..b);
                        g.one_of(&[0, some, b])
                    })
                    .collect(),
            };
            let coarse_level = g.bool().then(|| g.range(0..nl));
            let kernel = g.one_of(&[PlaneKernel::Auto, PlaneKernel::Swar, PlaneKernel::Scalar]);
            let exec = ExecPolicy::with_threads(g.one_of(&[1, 2, 3, 4, 7])).with_kernel(kernel);
            if let Some(why) = plan_divergence(&c, &planes, coarse_level, exec) {
                panic!("{}: {why}", field.name());
            }

            let kept: Vec<u32> = planes.iter().map(|&p| g.range(0..=p)).collect();
            let mut payloads = payload_prefixes(&c, &kept);
            if g.bool() {
                let level = g.range(0..nl);
                if let Some(last) = payloads[level].last_mut() {
                    if g.bool() {
                        last.truncate(g.range(0..last.len()));
                    } else {
                        last[0] ^= g.range(1..=255u8);
                    }
                }
            }
            if let Some(why) = payload_divergence(&c, &payloads, exec) {
                panic!("{}: {why}", field.name());
            }
        });
    }
}
