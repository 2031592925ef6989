//! codec_throughput — committed perf trajectory for the bit-plane codec
//! and the multilevel transform.
//!
//! Measures single-thread `LevelEncoding::encode_with` / `decode_with`
//! throughput under every [`PlaneKernel`] (the legacy scalar oracle, the
//! portable SWAR tile kernel, and the SIMD tile kernel when the host ISA
//! supports one) on a synthetic 512³-scale coefficient array; single-thread
//! `Decomposer::decompose` / `recompose` (the per-line oracle) and
//! `decompose_with` / `recompose_with` (the batched kernels: their baseline
//! build under `swar`, their AVX2 build under `simd`) on the same values as
//! a cube; and, as the ceiling, a
//! memcpy of a buffer larger than the last-level cache. It writes the
//! results as `BENCH_codec.json`.  The committed copy of that file at the
//! repo root is the perf trajectory: CI re-runs this bench at a reduced size
//! and fails the PR if a speedup over its oracle (tiled codec over the
//! scalar codec, batched transform over the per-line one) regresses by more
//! than 10 % against the committed value. Each speedup is the median ratio
//! of oracle and kernel batches timed back to back (see
//! [`paired_speedups`]).
//!
//! Environment knobs (all optional):
//!
//! - `PMR_CODEC_BENCH_SIZE`  — `512cube`, `64cube`, or `both` (default `both`;
//!   CI uses `64cube` so the job stays fast).
//! - `PMR_CODEC_BENCH_OUT`   — output path (default `BENCH_codec.json` in the
//!   current directory; pass `-` to print to stdout only).
//! - `PMR_CODEC_BENCH_BASELINE` — path to a committed `BENCH_codec.json`;
//!   when set, the run compares its four speedups against the baseline
//!   entry with the same size label and exits non-zero on a >10 %
//!   regression, or when the baseline lacks that entry or one of its
//!   speedups.  Speedup ratios — not absolute GB/s — are compared so the
//!   gate is portable across runner hardware.
//!
//! Run with `cargo bench --bench codec_throughput`.

use pmr_codec::transpose;
use pmr_field::Shape;
use pmr_json::Json;
use pmr_mgard::{Decomposer, ExecPolicy, LevelEncoding, PlaneKernel, TransformMode};
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

/// Wall clock of one batch in [`paired_speedups`]: long enough that a
/// fast kernel's batch is not a handful of microsecond-scale calls, short
/// enough that an oracle batch and the kernel batch after it see the same
/// host.
const BATCH_SECS: f64 = 0.1;

/// Pairs behind each gated 64³ speedup; odd, so the median is one pair's.
const PAIRS_64: usize = 15;

/// Pairs behind each 512³ speedup, where one oracle encode is a minute.
const PAIRS_512: usize = 3;

/// Calls of about `per_call` seconds each that fill [`BATCH_SECS`]; one
/// call when a single call is longer.
fn batch_reps(per_call: f64) -> u32 {
    (BATCH_SECS / per_call).ceil().clamp(1.0, 10_000.0) as u32
}

/// Median speedups of a kernel over its oracle, one per timed quantity
/// (encode and decode, or decompose and recompose). Each of `pairs` pairs
/// runs an oracle batch and then a kernel batch, each about
/// [`BATCH_SECS`] long; a batch returns its seconds per call of every
/// quantity. A slowdown of the whole host that spans a pair lands on both
/// of its halves, and one that splits a pair skews one ratio, which the
/// median drops.
fn paired_speedups<const N: usize>(
    pairs: usize,
    mut oracle: impl FnMut() -> [f64; N],
    mut kernel: impl FnMut() -> [f64; N],
) -> [f64; N] {
    let mut ratios = [(); N].map(|()| Vec::with_capacity(pairs));
    for _ in 0..pairs {
        let (o, k) = (oracle(), kernel());
        for (r, (o, k)) in ratios.iter_mut().zip(o.iter().zip(&k)) {
            r.push(o / k);
        }
    }
    ratios.map(|mut r| {
        r.sort_by(f64::total_cmp);
        r[r.len() / 2]
    })
}

/// Seconds per call of `reps` encodes of `coeffs` and of `reps_d` decodes
/// of `enc`, under `policy`.
fn codec_batch(
    coeffs: &[f64],
    enc: &LevelEncoding,
    policy: &ExecPolicy,
    [reps_e, reps_d]: [u32; 2],
) -> [f64; 2] {
    let t = Instant::now();
    for _ in 0..reps_e {
        std::hint::black_box(LevelEncoding::encode_with(coeffs, NUM_PLANES, policy));
    }
    let encode = t.elapsed().as_secs_f64() / f64::from(reps_e);
    let t = Instant::now();
    for _ in 0..reps_d {
        std::hint::black_box(enc.decode_with(NUM_PLANES, policy));
    }
    [encode, t.elapsed().as_secs_f64() / f64::from(reps_d)]
}

/// Seconds per call of `reps` decomposes, each of a fresh copy of `data`
/// in `buf`, and of the `reps` recomposes that undo them.
fn transform_batch(
    reps: u32,
    data: &[f64],
    buf: &mut [f64],
    mut decompose: impl FnMut(&mut [f64]),
    mut recompose: impl FnMut(&mut [f64]),
) -> [f64; 2] {
    let (mut d, mut r) = (0.0, 0.0);
    for _ in 0..reps {
        buf.copy_from_slice(data);
        let t = Instant::now();
        decompose(buf);
        d += t.elapsed().as_secs_f64();
        let t = Instant::now();
        recompose(buf);
        r += t.elapsed().as_secs_f64();
    }
    [d / f64::from(reps), r / f64::from(reps)]
}

/// Single-thread seconds of one decompose and of one recompose of a grid.
struct TransformRun {
    kernel: &'static str,
    decompose_s: f64,
    recompose_s: f64,
}

/// Time `decompose` and `recompose` of `data`, the one undoing the other
/// on a copy of it, at least `reps` times each and until [`MIN_TIMED_SECS`]
/// has elapsed; returns the fastest call's seconds of each (one call is
/// milliseconds even at 64³, long enough to time alone, and the fastest is
/// what a busy host disturbs least) and the recomposed buffer's bits.
fn time_transform(
    reps: u32,
    data: &[f64],
    mut decompose: impl FnMut(&mut [f64]),
    mut recompose: impl FnMut(&mut [f64]),
) -> (f64, f64, u64) {
    let mut buf = data.to_vec();
    let (mut best_d, mut best_r) = (f64::INFINITY, f64::INFINITY);
    let mut calls = 0u32;
    let start = Instant::now();
    while calls < reps.max(2) || start.elapsed().as_secs_f64() < MIN_TIMED_SECS {
        buf.copy_from_slice(data);
        let t = Instant::now();
        decompose(&mut buf);
        best_d = best_d.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        recompose(&mut buf);
        best_r = best_r.min(t.elapsed().as_secs_f64());
        calls += 1;
    }
    let digest = buf.iter().fold(0u64, |acc, v| acc.wrapping_add(v.to_bits()).rotate_left(1));
    (best_d, best_r, digest)
}

/// The per-line oracle, then the batched kernels under each selection in
/// `kernels`, on `coeffs` laid out as a `side`³ grid; and the last
/// kernel's decompose and recompose speedups over the oracle from `pairs`
/// pairs.
fn bench_transform(
    side: usize,
    coeffs: &[f64],
    kernels: &[(PlaneKernel, &'static str)],
    reps: u32,
    pairs: usize,
) -> (Vec<TransformRun>, [f64; 2]) {
    let dec = Decomposer::new(Shape::cube(side), 5, TransformMode::L2Projection);
    let (decompose_s, recompose_s, want) =
        time_transform(reps, coeffs, |b| dec.decompose(b), |b| dec.recompose(b));
    let mut runs = vec![TransformRun { kernel: "oracle", decompose_s, recompose_s }];
    for &(kernel, name) in kernels {
        let policy = ExecPolicy::serial().with_kernel(kernel);
        let (decompose_s, recompose_s, got) = time_transform(
            reps,
            coeffs,
            |b| dec.decompose_with(b, &policy),
            |b| dec.recompose_with(b, &policy),
        );
        assert_eq!(got, want, "{name} transform diverged from the per-line oracle");
        runs.push(TransformRun { kernel: name, decompose_s, recompose_s });
    }

    let (oracle, best) = (&runs[0], &runs[runs.len() - 1]);
    let oracle_reps = batch_reps(oracle.decompose_s + oracle.recompose_s);
    let kernel_reps = batch_reps(best.decompose_s + best.recompose_s);
    let policy = ExecPolicy::serial().with_kernel(kernels[kernels.len() - 1].0);
    // One scratch grid for both sides: the 513³ one is a GiB.
    let buf = std::cell::RefCell::new(coeffs.to_vec());
    let speedups = paired_speedups(
        pairs,
        || {
            let mut buf = buf.borrow_mut();
            transform_batch(
                oracle_reps,
                coeffs,
                &mut buf,
                |g| dec.decompose(g),
                |g| dec.recompose(g),
            )
        },
        || {
            let mut buf = buf.borrow_mut();
            transform_batch(
                kernel_reps,
                coeffs,
                &mut buf,
                |g| dec.decompose_with(g, &policy),
                |g| dec.recompose_with(g, &policy),
            )
        },
    );

    (runs, speedups)
}

/// Bytes of the last-level cache, from sysfs; 32 MiB where it cannot be
/// read.
fn llc_bytes() -> usize {
    let read = |index: usize, file: &str| {
        std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{index}/{file}"))
            .ok()
            .map(|s| s.trim().to_string())
    };
    let mut llc = None;
    for index in 0..8 {
        let (Some(level), Some(size)) = (read(index, "level"), read(index, "size")) else {
            continue;
        };
        let (digits, unit) = size.split_at(size.trim_end_matches(['K', 'M', 'G']).len());
        let scale = match unit {
            "K" => 1 << 10,
            "M" => 1 << 20,
            "G" => 1 << 30,
            _ => 1,
        };
        if let Ok(n) = digits.parse::<usize>() {
            llc = llc.max(Some((level, n * scale)));
        }
    }
    llc.map_or(32 << 20, |(_, bytes)| bytes)
}

/// The ceiling the transform is read against: GB/s of copying a buffer a
/// quarter larger than the last-level cache (bytes copied once, half the
/// memory traffic, as e2e-bench's `env.memcpy_gbps`), fastest of five.
fn memcpy_gbps(bytes: usize) -> f64 {
    let src: Vec<f64> = (0..bytes / 8).map(|i| i as f64).collect();
    let mut dst = vec![0.0f64; src.len()];
    let best = (0..5)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(std::hint::black_box(&src));
            std::hint::black_box(&mut dst);
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    (src.len() * 8) as f64 / 1e9 / best
}

struct SizeResult {
    label: &'static str,
    n: usize,
    runs: Vec<KernelRun>,
    encode_speedup: f64,
    decode_speedup: f64,
    /// Grid side of the transform rows.
    grid: usize,
    transform: Vec<TransformRun>,
    decompose_speedup: f64,
    recompose_speedup: f64,
}

fn bench_size(label: &'static str, side: usize, reps: u32, pairs: usize) -> SizeResult {
    let n = side * side * side;
    eprintln!("codec_throughput: {label} (n = {n}, reps = {reps}, pairs = {pairs})");
    let coeffs = synth_coeffs(n);

    let mut kernels: Vec<(PlaneKernel, &'static str)> =
        vec![(PlaneKernel::Scalar, "scalar"), (PlaneKernel::Swar, "swar")];
    if transpose::detected_isa().is_some() {
        // `Auto` takes the SIMD path exactly when an ISA is detected.
        kernels.push((PlaneKernel::Auto, "simd"));
    }

    let mut runs = Vec::new();
    let mut checksums = Vec::new();
    for &(kernel, name) in &kernels {
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
    let (scalar, best) = (&runs[0], &runs[runs.len() - 1]);
    let (oracle_reps, kernel_reps) = (
        [batch_reps(scalar.encode_s), batch_reps(scalar.decode_s)],
        [batch_reps(best.encode_s), batch_reps(best.decode_s)],
    );
    let (oracle, kernel) = (
        ExecPolicy::serial().with_kernel(PlaneKernel::Scalar),
        ExecPolicy::serial().with_kernel(kernels[kernels.len() - 1].0),
    );
    let enc = LevelEncoding::encode_with(&coeffs, NUM_PLANES, &kernel);
    let [encode_speedup, decode_speedup] = paired_speedups(
        pairs,
        || codec_batch(&coeffs, &enc, &oracle, oracle_reps),
        || codec_batch(&coeffs, &enc, &kernel, kernel_reps),
    );
    eprintln!(
        "  speedup vs scalar ({}): encode {encode_speedup:.2}x  decode {decode_speedup:.2}x",
        best.kernel
    );

    // The transform runs on the MGARD-native `2^k + 1` grid one larger than
    // the array, the shape of the repository's own fields; the array goes
    // first, so the 512³ leg holds two grids, not three. `Scalar` runs the
    // same baseline build of the transform as `Swar`, so it gets no row.
    drop((coeffs, enc));
    let grid = side + 1;
    kernels.retain(|&(k, _)| k != PlaneKernel::Scalar);
    let (transform, [decompose_speedup, recompose_speedup]) =
        bench_transform(grid, &synth_coeffs(grid * grid * grid), &kernels, reps, pairs);
    let grid_gb = (grid * grid * grid * 8) as f64 / 1e9;
    for run in &transform {
        eprintln!(
            "  {:<6}  decompose {:>7.3} GB/s   recompose {:>7.3} GB/s",
            run.kernel,
            grid_gb / run.decompose_s,
            grid_gb / run.recompose_s
        );
    }
    // The batched kernels as `Auto` runs them against the per-line oracle.
    eprintln!(
        "  speedup vs oracle ({}): decompose {decompose_speedup:.2}x  recompose \
         {recompose_speedup:.2}x",
        transform[transform.len() - 1].kernel
    );
    SizeResult {
        label,
        n,
        encode_speedup,
        decode_speedup,
        runs,
        grid,
        transform,
        decompose_speedup,
        recompose_speedup,
    }
}

/// `v` rounded to `decimals` places, the precision the committed file carries.
fn rounded(v: f64, decimals: i32) -> Json {
    let scale = 10f64.powi(decimals);
    Json::Num((v * scale).round() / scale)
}

fn to_json(results: &[SizeResult], env: &Json) -> Json {
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
    let transform = results.iter().flat_map(|r| {
        let grid_gb = (r.grid.pow(3) * 8) as f64 / 1e9;
        r.transform.iter().map(move |run| {
            Json::obj(vec![
                ("size", Json::str(r.label)),
                ("grid", Json::Arr(vec![Json::Num(r.grid as f64); 3])),
                ("kernel", Json::str(run.kernel)),
                ("decompose_gbps", rounded(grid_gb / run.decompose_s, 3)),
                ("recompose_gbps", rounded(grid_gb / run.recompose_s, 3)),
                ("decompose_s", rounded(run.decompose_s, 4)),
                ("recompose_s", rounded(run.recompose_s, 4)),
            ])
        })
    });
    let summary = results.iter().map(|r| {
        Json::obj(vec![
            ("size", Json::str(r.label)),
            ("kernel", Json::str(r.runs.last().map_or("scalar", |run| run.kernel))),
            ("encode_speedup", rounded(r.encode_speedup, 3)),
            ("decode_speedup", rounded(r.decode_speedup, 3)),
            ("decompose_speedup", rounded(r.decompose_speedup, 3)),
            ("recompose_speedup", rounded(r.recompose_speedup, 3)),
        ])
    });
    Json::obj(vec![
        ("bench", Json::str("codec-throughput")),
        ("isa", Json::str(transpose::detected_isa().unwrap_or("swar-fallback"))),
        ("num_planes", Json::Num(f64::from(NUM_PLANES))),
        ("env", env.clone()),
        ("runs", Json::Arr(runs.collect())),
        ("transform", Json::Arr(transform.collect())),
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
        for (key, current) in [
            ("encode_speedup", r.encode_speedup),
            ("decode_speedup", r.decode_speedup),
            ("decompose_speedup", r.decompose_speedup),
            ("recompose_speedup", r.recompose_speedup),
        ] {
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
        results.push(bench_size("64cube", 64, 8, PAIRS_64));
    }
    if size == "512cube" || size == "both" {
        results.push(bench_size("512cube", 512, 1, PAIRS_512));
    }
    assert!(
        !results.is_empty(),
        "PMR_CODEC_BENCH_SIZE must be 512cube, 64cube, or both (got {size})"
    );
    let llc = llc_bytes();
    let copied = llc + llc / 4;
    let memcpy = memcpy_gbps(copied);
    eprintln!("codec_throughput: memcpy {memcpy:.3} GB/s over {copied} bytes (LLC {llc} bytes)");
    let env = Json::obj(vec![
        ("memcpy_gbps", rounded(memcpy, 3)),
        ("memcpy_bytes", Json::Num(copied as f64)),
        ("llc_bytes", Json::Num(llc as f64)),
    ]);

    let json = to_json(&results, &env).to_pretty();
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
