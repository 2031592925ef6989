//! `pmr-e2e-bench`: drive the pmr system from outside, through its public
//! functions, on four workloads; print seven end-to-end metrics, or — in
//! a separate traced run — the per-layer metrics. See README.md.

mod alloc;
mod clock;
mod env_probe;
mod harness;
mod inputs;
mod layers;
mod report;
mod stats;
mod trace;
mod workdir;
mod workloads;

use harness::{Ctx, Mode, Recorder, Rng};
use layers::LayerTable;
use report::{Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workloads::refactor_write::RefactorWrite;
use workloads::retrieve_ladder::RetrieveLadder;
use workloads::serve::{ServeCold, ServeHot};
use workloads::Workload;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc::new();

/// Set-ups per run; `setup_s` is their median and the last one is used.
const SETUPS: usize = 3;
/// Rounds a run measures at least, whatever `--seconds` says: a median
/// over fewer is not worth reporting.
const MIN_ROUNDS: usize = 10;
const SMOKE_ROUNDS: usize = 2;
/// Grid side of the array `env.memcpy_gbps` copies.
const MEMCPY_SIDE: usize = 129;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    dir: PathBuf,
}

const USAGE: &str =
    "usage: pmr-e2e-bench --workload <refactor-write|retrieve-ladder|serve-hot|serve-cold> \
--seed <u64> [--seconds <n>] [--trace <0|1>] [--smoke] [--dir <output dir>]";

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 15.0,
        trace: false,
        smoke: false,
        dir: PathBuf::from("e2e-bench/target"),
    };
    let mut argv = argv;
    let mut seed = None;
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                seed = Some(value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                args.seconds =
                    value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--dir" => args.dir = PathBuf::from(value("--dir")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    args.seed = seed.ok_or("--seed is required")?;
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// Last-level cache size as the kernel reports it.
fn llc() -> String {
    (1..=4)
        .rev()
        .find_map(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size"))
                .ok()
        })
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Filesystem type of the mount holding `dir`.
fn fs_type(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount).then(|| (mount.len(), fstype.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// Write the spans recorded so far to the trace file and turn them into
/// the per-layer metrics of a traced run.
fn layer_metrics<W: Workload>(
    args: &Args,
    w: &mut W,
    plain: &Recorder,
    traced: &Recorder,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (spans, op_class) = trace::snapshot();
    let path = args.dir.join("traces").join(format!("{}.jsonl", args.workload));
    trace::write_jsonl(&path, &spans, &op_class, &plain.class_names)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# {} spans written to {}", spans.len(), path.display());
    let ops = trace::breakdown(&spans, &op_class);
    drop(spans);
    let raw = traced.class_raw_bytes();
    // Library workloads trace the op decomposed into stage calls
    // ("replay"). Serve workloads trace the socket op itself ("op", the
    // client's side) and replay the server's side in process.
    let replay = LayerTable::new(&ops, "replay", raw);
    let socket = LayerTable::new(&ops, "op", raw);
    let served = args.workload.starts_with("serve");

    for (span, metric) in [
        ("mgard.decompose", "mgard.decompose.ms"),
        ("mgard.interleave", "mgard.interleave.ms"),
        ("mgard.bitplane.encode", "mgard.bitplane.encode_ms"),
        ("mgard.persist", "mgard.persist.ms"),
        ("storage.shard.place", "storage.shard.place_ms"),
        ("core.plan.theory", "core.plan.theory_ms"),
        ("core.plan.combined", "core.plan.combined_ms"),
        ("mgard.bitplane.decode", "mgard.bitplane.decode_ms"),
        ("mgard.deinterleave", "mgard.deinterleave.ms"),
        ("mgard.recompose", "mgard.recompose.ms"),
        ("storage.fetch", "storage.fetch.ms"),
        ("pmrd.handle", "pmrd.handle.ms"),
        ("pmrd.protocol.encode", "pmrd.protocol.encode_ms"),
    ] {
        values.insert(metric, replay.ms(span));
    }
    for (span, metric) in [
        ("mgard.decompose", "mgard.decompose.gbps"),
        ("mgard.bitplane.encode", "mgard.bitplane.encode_gbps"),
        ("mgard.bitplane.decode", "mgard.bitplane.decode_gbps"),
        ("mgard.recompose", "mgard.recompose.gbps"),
    ] {
        values.insert(metric, replay.gbps(span));
    }
    values.insert("pmrd.protocol.decode_ms", socket.ms("pmrd.protocol.decode"));
    values.insert("driver.client_verify_ms", socket.ms("driver.client_verify"));
    // The client waits in `read` while the server handles and encodes;
    // what is left of send + read after the replayed server side is
    // transport: syscalls, copies and the hand-over between threads.
    let wire = (socket.per_op_ms("pmrd.wire.send") + socket.per_op_ms("pmrd.wire.read")
        - replay.op_ms())
    .max(0.0);
    values.insert("pmrd.wire.ms", wire);
    // The crash-safe on-disk write runs under a root span of its own.
    values.insert("storage.shard.write_ms", LayerTable::new(&ops, "write", raw).op_ms());
    values.extend(w.layer_counts()?);

    // A statistic over no samples is NaN, which fails the run in `run`.
    let or_nan = |v: Option<f64>| v.unwrap_or(f64::NAN);
    values.insert(
        "driver.trace_overhead",
        or_nan(traced.op_ms_p50()) / or_nan(plain.op_ms_p50()) - 1.0,
    );
    values.insert("driver.op_ms_p90", or_nan(plain.op_ms_percentile(90.0)));
    values.insert("driver.op_ms_p99", or_nan(plain.op_ms_percentile(99.0)));

    // Where the time goes: self time per op by layer, over all classes.
    let (op_ms, root) = if served { (socket.op_ms(), "op") } else { (replay.op_ms(), "replay") };
    let mut rows: Vec<(&str, f64)> = if served {
        let mut rows = replay.per_op();
        rows.retain(|&(name, _)| name != "replay");
        rows.extend(
            socket.per_op().into_iter().filter(|(name, _)| !name.starts_with("pmrd.wire.")),
        );
        rows.push(("pmrd.wire", wire));
        rows
    } else {
        replay.per_op()
    };
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let unattributed = rows.iter().find(|r| r.0 == root).map_or(0.0, |r| r.1);
    values.insert("driver.stage_cover", if op_ms > 0.0 { 1.0 - unattributed / op_ms } else { 0.0 });
    println!("# where the time goes (self time per traced op of {op_ms:.3} ms, all classes):");
    for (layer, ms) in rows {
        let layer = if layer == root { "(no layer span)" } else { layer };
        println!("#   {layer:<24} {ms:9.3} ms {:5.1} %", 100.0 * ms / op_ms.max(f64::MIN_POSITIVE));
    }

    let side = if args.smoke { 33 } else { MEMCPY_SIDE };
    values.insert("env.memcpy_gbps", env_probe::memcpy_gbps(side * side * side));
    let written = w.written_dir();
    let io = |e: std::io::Error| format!("{}: {e}", written.display());
    values.insert("env.file_read_gbps", env_probe::file_read_gbps(&written).map_err(io)?);
    values.insert("env.fsync_ms", env_probe::fsync_ms(&written).map_err(io)?);

    Ok(values)
}

fn run<W: Workload>(args: &Args) -> Result<Outcome, String> {
    let ctx = Ctx { seed: args.seed, smoke: args.smoke, root: args.dir.clone() };

    // Set up several times; keep the last. Each is a full set-up,
    // warm-up round included, and the ones not kept are torn down.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..if args.smoke { 1 } else { SETUPS } {
        drop(kept.take());
        let t0 = Instant::now();
        let w = W::set_up(&ctx)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some(w);
    }
    let mut w = kept.ok_or("no set-up ran")?;
    let names = w.class_names();
    println!("# {}", w.describe());
    println!(
        "# classes={} reps_per_round={} setups_s={:?}",
        names.len(),
        w.reps_per_round(),
        setup_s.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>()
    );

    // Steady phase: whole rounds of fixed work until the time is up. In a
    // traced run plain and traced rounds alternate, so both see the same
    // machine.
    let mut plain = Recorder::new(names.clone());
    let mut traced = Recorder::new(names.clone());
    let mut rng = Rng::new(inputs::derive(args.seed, 3));
    let budget = Duration::from_secs_f64(args.seconds);
    ALLOC.reset_peak();
    let start = Instant::now();
    let mut round = 0;
    loop {
        let done = if args.smoke {
            round >= SMOKE_ROUNDS
        } else {
            round >= MIN_ROUNDS && start.elapsed() >= budget
        };
        if done {
            break;
        }
        // A traced round repeats each class a sixteenth as often: spans are
        // per frame and kept in memory, but a round of a dozen socket ops
        // would time the clients' start-up, not the ops.
        let traced_round = args.trace && round % 2 == 1;
        let reps = if traced_round { w.reps_per_round().div_ceil(16) } else { w.reps_per_round() };
        let mut order = Vec::with_capacity(names.len() * reps);
        for _ in 0..reps {
            let mut once: Vec<usize> = (0..names.len()).collect();
            rng.shuffle(&mut once);
            order.extend(once);
        }
        let (mode, rec) =
            if traced_round { (Mode::Traced, &mut traced) } else { (Mode::Plain, &mut plain) };
        let measured = w.run_round(&order, mode, rec)?;
        rec.end_round(measured);
        round += 1;
    }
    let peak_heap_mb = ALLOC.peak() as f64 / (1u64 << 20) as f64;
    println!(
        "# steady phase: {} plain + {} traced rounds in {:.1} s, {} ops attempted",
        plain.rounds(),
        traced.rounds(),
        start.elapsed().as_secs_f64(),
        plain.attempted + traced.attempted
    );

    for line in plain.class_lines() {
        println!("# class {line}");
    }

    // The expensive checks, once per class, outside the timed region.
    w.verify(&mut plain)?;
    for why in plain.failures.iter().chain(&traced.failures) {
        println!("# FAILED {why}");
    }

    let or_nan = |v: Option<f64>| v.unwrap_or(f64::NAN);
    let values = if args.trace {
        layer_metrics(args, &mut w, &plain, &traced)?
    } else {
        BTreeMap::from([
            ("setup_s", or_nan(stats::median(&setup_s))),
            ("ops_per_s", or_nan(plain.ops_per_s())),
            ("op_ms_p50", or_nan(plain.op_ms_p50())),
            ("first_ms_p50", or_nan(plain.first_ms_p50())),
            ("cpu_ms_per_op", or_nan(plain.cpu_ms_per_op())),
            ("bytes_per_field_byte", or_nan(plain.bytes_per_field_byte())),
            ("peak_heap_mb", peak_heap_mb),
        ])
    };
    // A layer that does no work on this workload reports nothing and
    // reads 0; an end-to-end metric without a value fails the run.
    let (table, absent) = if args.trace { (PER_LAYER, 0.0) } else { (END_TO_END, f64::NAN) };
    let metrics = table
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(absent), unit))
        .collect();
    Ok(Outcome::new(plain.attempted + traced.attempted, plain.failed + traced.failed, metrics))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("error: {why}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.dir) {
        eprintln!("error: {}: {e}", args.dir.display());
        std::process::exit(1);
    }
    println!(
        "# pmr-e2e-bench workload={} seed={} seconds={} trace={} smoke={}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.smoke as u8
    );
    println!(
        "# dependencies={} nproc={} llc={} dir={} fs={}",
        std::env::var("PMR_E2E_DEPS").unwrap_or_else(|_| "unknown".into()),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        llc(),
        args.dir.display(),
        fs_type(&args.dir),
    );
    for name in workdir::sweep_stale(&args.dir) {
        println!("# removed stale work directory {name}");
    }
    let outcome = match args.workload.as_str() {
        "refactor-write" => run::<RefactorWrite>(&args),
        "retrieve-ladder" => run::<RetrieveLadder>(&args),
        "serve-hot" => run::<ServeHot>(&args),
        _ => run::<ServeCold>(&args),
    };
    match outcome {
        Ok(outcome) => outcome.print(),
        Err(why) => {
            eprintln!("error: {why}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse("--workload serve-cold --seed 18446744073709551615 --seconds 15 --trace 1")
            .expect("parse");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace, a.smoke),
            ("serve-cold", u64::MAX, 15.0, true, false)
        );
        assert!(parse("--workload serve-warm --seed 1").is_err());
        assert!(parse("--workload serve-hot").is_err());
        assert!(parse("--workload serve-hot --seed 1 --trace yes").is_err());
        assert!(parse("--workload serve-hot --seed 1 --seconds 0").is_err());
    }
}
