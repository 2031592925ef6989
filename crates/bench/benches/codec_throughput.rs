//! codec_throughput — committed perf trajectory for the bit-plane codec.
//!
//! Measures single-thread `LevelEncoding::encode_with` / `decode_with`
//! throughput under every [`PlaneKernel`] (the legacy scalar oracle, the
//! portable SWAR tile kernel, and the SIMD tile kernel when the host ISA
//! supports one) on a synthetic 512³-scale coefficient array, and writes the
//! results as `BENCH_codec.json`.  The committed copy of that file at the
//! repo root is the perf trajectory: CI re-runs this bench at a reduced size
//! and fails the PR if the tiled-kernel speedup over the scalar baseline
//! regresses by more than 10 % against the committed value.
//!
//! Environment knobs (all optional):
//!
//! - `PMR_CODEC_BENCH_SIZE`  — `512cube`, `64cube`, or `both` (default `both`;
//!   CI uses `64cube` so the job stays fast).
//! - `PMR_CODEC_BENCH_OUT`   — output path (default `BENCH_codec.json` in the
//!   current directory; pass `-` to print to stdout only).
//! - `PMR_CODEC_BENCH_BASELINE` — path to a committed `BENCH_codec.json`;
//!   when set, the run compares its kernel-vs-scalar speedups against the
//!   baseline entry with the same size label and exits non-zero on a >10 %
//!   regression, or when the baseline lacks that entry or one of its
//!   speedups.  Speedup ratios — not absolute GB/s — are compared so the
//!   gate is portable across runner hardware.
//!
//! Run with `cargo bench --bench codec_throughput`.

use pmr_codec::transpose;
use pmr_json::Json;
use pmr_mgard::{ExecPolicy, LevelEncoding, PlaneKernel};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Cargo runs benches with the package dir as cwd; anchor relative paths at
/// the workspace root so `BENCH_codec.json` means the same thing everywhere.
fn from_repo_root(path: &str) -> PathBuf {
    let p = Path::new(path);
    if p.is_absolute() {
        return p.to_path_buf();
    }
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .join(p)
}

const NUM_PLANES: u32 = 32;
/// Decode prefixes reported in the per-run breakdown (planes retrieved).
const PREFIXES: [u32; 3] = [8, 16, NUM_PLANES];

/// Deterministic synthetic coefficient field: a smooth multiscale signal with
/// seeded noise, so every bit plane carries structure (all-zero planes would
/// flatter RLE and overstate throughput).
fn synth_coeffs(n: usize) -> Vec<f64> {
    let mut rng = pmr_rng::Rng::seed_from_u64(0x243f_6a88_85a3_08d3);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let noise = rng.range(-0.5..0.5);
        let x = i as f64;
        let smooth = (x * 0.000_31).sin() * 40.0 + (x * 0.017).cos() * 4.0;
        out.push(smooth + noise);
    }
    out
}

struct KernelRun {
    kernel: &'static str,
    encode_s: f64,
    decode_s: f64,
    encode_gbps: f64,
    decode_gbps: f64,
    /// GB/s of reconstructed field per decode prefix, aligned with `PREFIXES`.
    prefix_gbps: [f64; PREFIXES.len()],
    /// Compressed bytes per plane (the per-plane breakdown of the payload).
    plane_bytes: Vec<u64>,
}

/// Minimum wall clock each timed section must accumulate.  The fast kernels
/// finish a 64cube decode in ~1 ms, and on a busy runner a handful of such
/// iterations is far too noisy for the 10 % regression gate — keep batching
/// until the section is long enough to time reliably.
const MIN_TIMED_SECS: f64 = 0.75;

/// Run `f` in batches of `reps` (at least two batches, and until
/// [`MIN_TIMED_SECS`] has elapsed) and return the *fastest* batch's seconds
/// per iteration.  Min-of-batches rather than the mean: the 512³ sections
/// allocate and free ~1 GB per call, and a sporadic kernel-side stall
/// (page-fault storms, THP compaction) in one batch would otherwise swing
/// the reported throughput by multiples.
fn time_section(reps: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    let mut batches = 0u32;
    let start = Instant::now();
    loop {
        let batch = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(batch.elapsed().as_secs_f64() / f64::from(reps));
        batches += 1;
        if batches >= 2 && start.elapsed().as_secs_f64() >= MIN_TIMED_SECS {
            return best;
        }
    }
}

fn bench_kernel(
    kernel: PlaneKernel,
    name: &'static str,
    coeffs: &[f64],
    reps: u32,
) -> (KernelRun, u64) {
    let policy = ExecPolicy::serial().with_kernel(kernel);
    let field_gb = (coeffs.len() * 8) as f64 / 1e9;

    // Warm-up + reference artifact (also used for decode timing below).
    let enc = LevelEncoding::encode_with(coeffs, NUM_PLANES, &policy);
    let encode_s = time_section(reps, || {
        std::hint::black_box(LevelEncoding::encode_with(coeffs, NUM_PLANES, &policy));
    });

    let mut prefix_gbps = [0.0; PREFIXES.len()];
    let mut decode_s = 0.0;
    let mut checksum = 0u64;
    for (slot, &b) in prefix_gbps.iter_mut().zip(&PREFIXES) {
        let out = enc.decode_with(b, &policy);
        let secs = time_section(reps, || {
            std::hint::black_box(enc.decode_with(b, &policy));
        });
        *slot = field_gb / secs;
        if b == NUM_PLANES {
            decode_s = secs;
            checksum = out.iter().fold(0u64, |acc, v| acc.wrapping_add(v.to_bits()).rotate_left(1));
        }
    }

    let plane_bytes = (0..NUM_PLANES).map(|k| enc.plane_size(k)).collect();
    (
        KernelRun {
            kernel: name,
            encode_s,
            decode_s,
            encode_gbps: field_gb / encode_s,
            decode_gbps: field_gb / decode_s,
            prefix_gbps,
            plane_bytes,
        },
        checksum,
    )
}

struct SizeResult {
    label: &'static str,
    n: usize,
    runs: Vec<KernelRun>,
    encode_speedup: f64,
    decode_speedup: f64,
}

fn bench_size(label: &'static str, n: usize, reps: u32) -> SizeResult {
    eprintln!("codec_throughput: {label} (n = {n}, reps = {reps})");
    let coeffs = synth_coeffs(n);

    let mut kernels: Vec<(PlaneKernel, &'static str)> =
        vec![(PlaneKernel::Scalar, "scalar"), (PlaneKernel::Swar, "swar")];
    if transpose::detected_isa().is_some() {
        // `Auto` takes the SIMD path exactly when an ISA is detected.
        kernels.push((PlaneKernel::Auto, "simd"));
    }

    let mut runs = Vec::new();
    let mut checksums = Vec::new();
    for (kernel, name) in kernels {
        let (run, checksum) = bench_kernel(kernel, name, &coeffs, reps);
        eprintln!(
            "  {:<6}  encode {:>7.3} GB/s   decode {:>7.3} GB/s",
            name, run.encode_gbps, run.decode_gbps
        );
        runs.push(run);
        checksums.push((name, checksum));
    }
    // The kernels are supposed to be bit-identical; a checksum mismatch here
    // means the numbers above compare different computations.
    for (name, checksum) in &checksums[1..] {
        assert_eq!(*checksum, checksums[0].1, "{name} decode diverged from the scalar oracle");
    }

    // Speedup of the best tiled kernel (what `Auto` resolves to) vs scalar.
    let scalar = &runs[0];
    let best = runs.last().expect("at least the scalar run exists");
    let (best_name, encode_speedup, decode_speedup) =
        (best.kernel, scalar.encode_s / best.encode_s, scalar.decode_s / best.decode_s);
    eprintln!(
        "  speedup vs scalar ({best_name}): encode {encode_speedup:.2}x  decode {decode_speedup:.2}x"
    );
    SizeResult { label, n, encode_speedup, decode_speedup, runs }
}

/// `v` rounded to `decimals` places, the precision the committed file carries.
fn rounded(v: f64, decimals: i32) -> Json {
    let scale = 10f64.powi(decimals);
    Json::Num((v * scale).round() / scale)
}

fn to_json(results: &[SizeResult]) -> Json {
    let runs = results.iter().flat_map(|r| {
        r.runs.iter().map(|run| {
            Json::obj(vec![
                ("size", Json::str(r.label)),
                ("n", Json::Num(r.n as f64)),
                ("kernel", Json::str(run.kernel)),
                ("encode_gbps", rounded(run.encode_gbps, 3)),
                ("decode_gbps", rounded(run.decode_gbps, 3)),
                ("encode_s", rounded(run.encode_s, 4)),
                ("decode_s", rounded(run.decode_s, 4)),
                ("prefix_planes", Json::Arr(PREFIXES.map(|p| Json::Num(f64::from(p))).into())),
                ("prefix_gbps", Json::Arr(run.prefix_gbps.map(|g| rounded(g, 3)).into())),
                (
                    "plane_bytes",
                    Json::Arr(run.plane_bytes.iter().map(|&b| Json::Num(b as f64)).collect()),
                ),
            ])
        })
    });
    let summary = results.iter().map(|r| {
        Json::obj(vec![
            ("size", Json::str(r.label)),
            ("kernel", Json::str(r.runs.last().map_or("scalar", |run| run.kernel))),
            ("encode_speedup", rounded(r.encode_speedup, 3)),
            ("decode_speedup", rounded(r.decode_speedup, 3)),
        ])
    });
    Json::obj(vec![
        ("bench", Json::str("codec-throughput")),
        ("isa", Json::str(transpose::detected_isa().unwrap_or("swar-fallback"))),
        ("num_planes", Json::Num(f64::from(NUM_PLANES))),
        ("runs", Json::Arr(runs.collect())),
        ("summary", Json::Arr(summary.collect())),
    ])
}

/// Compare each result's kernel-vs-scalar speedups against the baseline's
/// summary entry with the same size label. A baseline that does not parse,
/// lacks that entry or lacks one of its speedups is an error, not a pass.
fn check_regression(results: &[SizeResult], baseline_path: &str) -> Result<(), String> {
    let path = from_repo_root(baseline_path);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let baseline = pmr_json::parse(&text)
        .map_err(|e| format!("baseline {} is not JSON: {e}", path.display()))?;
    let summary = baseline.get("summary").and_then(Json::as_arr).unwrap_or_default();
    for r in results {
        let entry = summary
            .iter()
            .find(|e| e.get("size").and_then(Json::as_str) == Some(r.label))
            .ok_or_else(|| {
                format!("baseline {} has no summary entry for {}", path.display(), r.label)
            })?;
        for (key, current) in
            [("encode_speedup", r.encode_speedup), ("decode_speedup", r.decode_speedup)]
        {
            let committed = entry.get(key).and_then(Json::as_f64).ok_or_else(|| {
                format!("baseline {} summary entry for {} has no {key}", path.display(), r.label)
            })?;
            let floor = committed * 0.9;
            if current < floor {
                return Err(format!(
                    "{} {key} regressed: {current:.3}x vs committed {committed:.3}x \
                     (floor {floor:.3}x)",
                    r.label
                ));
            }
            eprintln!(
                "codec_throughput: {} {key} {current:.3}x >= floor {floor:.3}x (ok)",
                r.label
            );
        }
    }
    Ok(())
}

fn main() {
    // `cargo bench` forwards harness flags like `--bench`; ignore them.
    let size = std::env::var("PMR_CODEC_BENCH_SIZE").unwrap_or_else(|_| "both".into());
    let mut results = Vec::new();
    // Small size first: the 512³ leg drags a ~1 GB working set through the
    // cache hierarchy and depresses a subsequent 64cube leg by ~2x.
    if size == "64cube" || size == "both" {
        results.push(bench_size("64cube", 64 * 64 * 64, 8));
    }
    if size == "512cube" || size == "both" {
        results.push(bench_size("512cube", 512 * 512 * 512, 1));
    }
    assert!(
        !results.is_empty(),
        "PMR_CODEC_BENCH_SIZE must be 512cube, 64cube, or both (got {size})"
    );

    let json = to_json(&results).to_pretty();
    let out = std::env::var("PMR_CODEC_BENCH_OUT").unwrap_or_else(|_| "BENCH_codec.json".into());
    if out == "-" {
        print!("{json}");
    } else {
        let out = from_repo_root(&out);
        if let Err(e) = std::fs::write(&out, &json) {
            eprintln!("codec_throughput: failed to write {}: {e}", out.display());
            std::process::exit(1);
        }
        eprintln!("codec_throughput: wrote {}", out.display());
    }

    if let Ok(baseline) = std::env::var("PMR_CODEC_BENCH_BASELINE") {
        if let Err(msg) = check_regression(&results, &baseline) {
            eprintln!("codec_throughput: gate failed: {msg}");
            std::process::exit(1);
        }
    }
}
