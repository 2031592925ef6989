//! `pmrtool` — command-line front end for the progressive compressor.
//!
//! ```text
//! pmrtool gen warpx <dir> [--size N] [--snapshots T] [--field Bx|Ex|Jx]
//! pmrtool gen grayscott <dir> [--size N] [--snapshots T] [--species u|v]
//! pmrtool compress <in.pmrf> <out.pmrc> [--levels L] [--planes B] [--mode interp|l2]
//!                  [--threads N]
//! pmrtool retrieve <in.pmrc> <out.pmrf> (--rel <x> | --abs <x> | --budget <bytes>)
//! pmrtool info <in.pmrc>
//! pmrtool conformance [--grid quick|full] [--seed N] [--golden <dir>]
//!                     [--regen-golden] [--golden-only] [--report <path>]
//! pmrtool faultsim [--grid quick|full] [--seed N] [--report <path>]
//! pmrtool shard <in.pmrc> <out-dir> [--shards N] [--replication R] [--hot-planes H]
//! pmrtool scrub <dir> --manifest <in.pmrc> [--repair] [--report <path>]
//! ```
//!
//! Field files use the `pmr-field` binary format (`.pmrf`); artifacts the
//! `pmr-mgard` persistence format (`.pmrc`).

use pmr::conformance::{self, FaultGridConfig, SweepConfig};
use pmr::core::{Backend, Dataset, RetrievalRequest, Theory};
use pmr::field::io as field_io;
use pmr::mgard::{persist, CompressConfig, Compressed, TransformMode};
use pmr::sim::{warpx_field, GrayScott, GrayScottConfig, GsSpecies, WarpXConfig, WarpXField};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  pmrtool gen warpx <dir> [--size N] [--snapshots T] [--field Bx|Ex|Jx]
  pmrtool gen grayscott <dir> [--size N] [--snapshots T] [--species u|v]
  pmrtool compress <in.pmrf> <out.pmrc> [--levels L] [--planes B] [--mode interp|l2]
                   [--threads N]
  pmrtool retrieve <in.pmrc> <out.pmrf> (--rel <x> | --abs <x> | --budget <bytes>)
  pmrtool info <in.pmrc>
  pmrtool conformance [--grid quick|full] [--seed N] [--golden <dir>]
                      [--regen-golden] [--golden-only] [--report <path>]
  pmrtool faultsim [--grid quick|full] [--seed N] [--report <path>]
  pmrtool shard <in.pmrc> <out-dir> [--shards N] [--replication R] [--hot-planes H]
  pmrtool scrub <dir> --manifest <in.pmrc> [--repair] [--report <path>]";

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("gen") => gen(&args[1..]),
        Some("compress") => compress(&args[1..]),
        Some("retrieve") => retrieve(&args[1..]),
        Some("info") => info(&args[1..]),
        Some("conformance") => run_conformance(&args[1..]),
        Some("faultsim") => run_faultsim(&args[1..]),
        Some("shard") => run_shard(&args[1..]),
        Some("scrub") => run_scrub(&args[1..]),
        _ => Err("missing or unknown subcommand".into()),
    }
}

/// Fetch the value following `--flag`, if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|s| Some(s.as_str()))
            .ok_or_else(|| format!("{flag} requires a value")),
    }
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what}: {s}"))
}

fn positional<'a>(args: &'a [String], idx: usize, what: &str) -> Result<&'a str, String> {
    let mut found = 0usize;
    let mut i = 0usize;
    while i < args.len() {
        if args[i].starts_with("--") {
            i += if BARE_FLAGS.contains(&args[i].as_str()) { 1 } else { 2 };
            continue;
        }
        if found == idx {
            return Ok(&args[i]);
        }
        found += 1;
        i += 1;
    }
    Err(format!("missing {what}"))
}

fn gen(args: &[String]) -> Result<(), String> {
    let app = positional(args, 0, "application (warpx|grayscott)")?;
    let dir = PathBuf::from(positional(args, 1, "output directory")?);
    let size: usize = match flag_value(args, "--size")? {
        Some(v) => parse(v, "--size")?,
        None => 33,
    };
    let snapshots: usize = match flag_value(args, "--snapshots")? {
        Some(v) => parse(v, "--snapshots")?,
        None => 8,
    };
    match app {
        "warpx" => {
            let field = match flag_value(args, "--field")?.unwrap_or("Jx") {
                "Bx" => WarpXField::Bx,
                "Ex" => WarpXField::Ex,
                "Jx" => WarpXField::Jx,
                other => return Err(format!("unknown field {other}")),
            };
            let cfg = WarpXConfig { size, snapshots, ..Default::default() };
            for t in 0..snapshots {
                let f = warpx_field(&cfg, field, t);
                let path = dir.join(format!("{}_t{t:04}.pmrf", field.field_name()));
                field_io::save(&f, &path).map_err(|e| e.to_string())?;
                println!("wrote {}", path.display());
            }
            Ok(())
        }
        "grayscott" => {
            let species = match flag_value(args, "--species")?.unwrap_or("u") {
                "u" | "U" => GsSpecies::U,
                "v" | "V" => GsSpecies::V,
                other => return Err(format!("unknown species {other}")),
            };
            let cfg = GrayScottConfig { size, snapshots, ..Default::default() };
            let mut result: Result<(), String> = Ok(());
            GrayScott::new(cfg).run(|t, u, v| {
                if result.is_err() {
                    return;
                }
                let f = if species == GsSpecies::U { &u } else { &v };
                let path = dir.join(format!("{}_t{t:04}.pmrf", species.field_name()));
                match field_io::save(f, &path) {
                    Ok(()) => println!("wrote {}", path.display()),
                    Err(e) => result = Err(e.to_string()),
                }
            });
            result
        }
        other => Err(format!("unknown application {other}")),
    }
}

fn compress(args: &[String]) -> Result<(), String> {
    let input = positional(args, 0, "input .pmrf")?;
    let output = positional(args, 1, "output .pmrc")?;
    let mut cfg = CompressConfig::default();
    if let Some(v) = flag_value(args, "--levels")? {
        cfg.levels = parse(v, "--levels")?;
    }
    if let Some(v) = flag_value(args, "--planes")? {
        cfg.num_planes = parse(v, "--planes")?;
    }
    if let Some(v) = flag_value(args, "--mode")? {
        cfg.mode = match v {
            "interp" => TransformMode::Interpolation,
            "l2" => TransformMode::L2Projection,
            other => return Err(format!("unknown mode {other} (interp|l2)")),
        };
    }
    if let Some(v) = flag_value(args, "--threads")? {
        cfg.threads = parse(v, "--threads")?;
        // The config's `0` means one per core; omitting the flag asks for that.
        if cfg.threads == 0 {
            return Err("--threads must be >= 1 (omit it for one per core)".into());
        }
    }
    cfg.validate().map_err(|e| e.to_string())?;
    let field = field_io::load(Path::new(input)).map_err(|e| e.to_string())?;
    let compressed = Compressed::compress(&field, &cfg);
    persist::save(&compressed, Path::new(output)).map_err(|e| e.to_string())?;
    let raw = (field.len() * 8) as f64;
    println!(
        "{input} ({} points) -> {output}: {} bytes ({:.1}% of raw), {} levels x {} planes",
        field.len(),
        compressed.total_bytes(),
        compressed.total_bytes() as f64 / raw * 100.0,
        compressed.num_levels(),
        compressed.num_planes()
    );
    Ok(())
}

fn retrieve(args: &[String]) -> Result<(), String> {
    let input = positional(args, 0, "input .pmrc")?;
    let output = positional(args, 1, "output .pmrf")?;
    let compressed = persist::load(Path::new(input)).map_err(|e| e.to_string())?;
    let request = match (
        flag_value(args, "--rel")?,
        flag_value(args, "--abs")?,
        flag_value(args, "--budget")?,
    ) {
        (Some(rel), None, None) => RetrievalRequest::rel(parse(rel, "--rel")?),
        (None, Some(abs), None) => RetrievalRequest::abs(parse(abs, "--abs")?),
        (None, None, Some(bytes)) => RetrievalRequest::byte_budget(parse(bytes, "--budget")?),
        _ => return Err("exactly one of --rel, --abs, or --budget is required".into()),
    };
    let dataset = Dataset::new(&compressed);
    let out = pmr::core::retrieve(&dataset, &Theory, &request, &Backend::Direct)
        .map_err(|e| e.to_string())?;
    field_io::save(&out.field, Path::new(output)).map_err(|e| e.to_string())?;
    println!(
        "retrieved {} of {} bytes ({:.1}%), estimated bound {:.3e} -> {output}",
        out.bytes,
        compressed.total_bytes(),
        out.bytes as f64 / compressed.total_bytes() as f64 * 100.0,
        out.estimated_error
    );
    Ok(())
}

/// The flags that take no value; every other flag takes one.
const BARE_FLAGS: [&str; 3] = ["--repair", "--regen-golden", "--golden-only"];

/// Is the bare flag (one of [`BARE_FLAGS`]) present?
fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// A flag `cmd` does not know must fail, not be ignored: a gate invoked
/// with an option it silently drops looks like a passing gate.
fn only_flags(args: &[String], cmd: &str, known: &[&str]) -> Result<(), String> {
    match args.iter().find(|a| a.starts_with("--") && !known.contains(&a.as_str())) {
        Some(unknown) => Err(format!("{cmd} takes {}, not {unknown}", known.join(", "))),
        None => Ok(()),
    }
}

fn run_conformance(args: &[String]) -> Result<(), String> {
    let mut cfg = match flag_value(args, "--grid")?.unwrap_or("quick") {
        "quick" => SweepConfig::quick(),
        "full" => SweepConfig::full(),
        other => return Err(format!("unknown grid {other} (quick|full)")),
    };
    if let Some(v) = flag_value(args, "--seed")? {
        cfg.seed = parse(v, "--seed")?;
    }
    let golden_dir = flag_value(args, "--golden")?.map(PathBuf::from);

    if has_flag(args, "--regen-golden") {
        let dir = golden_dir.ok_or("--regen-golden requires --golden <dir>")?;
        conformance::regenerate_golden(&dir)?;
        println!("regenerated golden artifacts in {}", dir.display());
        return Ok(());
    }

    let mut failures = Vec::new();
    if let Some(dir) = &golden_dir {
        let golden_failures = conformance::verify_golden(dir);
        if golden_failures.is_empty() {
            println!("golden artifacts in {} verified", dir.display());
        }
        failures.extend(golden_failures);
    }

    if has_flag(args, "--golden-only") {
        if golden_dir.is_none() {
            return Err("--golden-only requires --golden <dir>".into());
        }
    } else {
        let mut report = conformance::run_all(&cfg);
        report.failures.extend(std::mem::take(&mut failures));
        print!("{}", report.summary());
        if let Some(path) = flag_value(args, "--report")? {
            let grid_name = flag_value(args, "--grid")?.unwrap_or("quick");
            std::fs::write(path, conformance::report_json(&report, grid_name))
                .map_err(|e| format!("write {path}: {e}"))?;
            println!("wrote report to {path}");
        }
        failures = report.failures;
    }

    if failures.is_empty() {
        Ok(())
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        Err(format!("{} conformance check(s) failed", failures.len()))
    }
}

fn run_faultsim(args: &[String]) -> Result<(), String> {
    only_flags(args, "faultsim", &["--grid", "--seed", "--report"])?;
    let grid_name = flag_value(args, "--grid")?.unwrap_or("quick");
    let seed: u64 = match flag_value(args, "--seed")? {
        Some(v) => parse(v, "--seed")?,
        None => 0xFA_017,
    };
    let cfg = match grid_name {
        "quick" => FaultGridConfig::quick(seed),
        "full" => FaultGridConfig::full(seed),
        other => return Err(format!("unknown grid {other} (quick|full)")),
    };
    let report = conformance::run_fault_grid(&cfg);
    println!("{}", report.summary());
    if let Some(path) = flag_value(args, "--report")? {
        std::fs::write(path, conformance::fault_report_json(&report, grid_name, seed))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote report to {path}");
    }
    if report.passed() {
        Ok(())
    } else {
        for f in &report.failures {
            eprintln!("FAIL: {f}");
        }
        Err(format!("{} fault-injection check(s) failed", report.failures.len()))
    }
}

/// Lay an artifact out as a sharded, replicated on-disk corpus.
fn run_shard(args: &[String]) -> Result<(), String> {
    use pmr::storage::{SegmentStore, ShardConfig, ShardedStore};
    let input = positional(args, 0, "input .pmrc")?;
    let out_dir = PathBuf::from(positional(args, 1, "output directory")?);
    let shards: usize = match flag_value(args, "--shards")? {
        Some(v) => parse(v, "--shards")?,
        None => 4,
    };
    let replication: usize = match flag_value(args, "--replication")? {
        Some(v) => parse(v, "--replication")?,
        None => 2,
    };
    let hot_planes: u32 = match flag_value(args, "--hot-planes")? {
        Some(v) => parse(v, "--hot-planes")?,
        None => 0,
    };
    let compressed = persist::load(Path::new(input)).map_err(|e| e.to_string())?;
    let cfg = ShardConfig::try_new(shards, replication)
        .map_err(|e| e.to_string())?
        .with_hot_planes(hot_planes);
    let store = ShardedStore::write_files(&compressed, &out_dir, cfg).map_err(|e| e.to_string())?;
    println!(
        "{input} -> {}: {} segments across {shards} shard(s), replication {replication}, \
         hot planes {hot_planes}",
        out_dir.display(),
        store.keys().len()
    );
    Ok(())
}

/// Walk a sharded corpus verifying every replica against the manifest;
/// with `--repair`, re-replicate damaged or missing copies in place.
fn run_scrub(args: &[String]) -> Result<(), String> {
    use pmr::json::Json;
    use pmr::storage::ShardedStore;
    let dir = PathBuf::from(positional(args, 0, "sharded corpus directory")?);
    let manifest_path =
        flag_value(args, "--manifest")?.ok_or("scrub requires --manifest <in.pmrc>")?;
    let compressed = persist::load(Path::new(manifest_path)).map_err(|e| e.to_string())?;
    let mut store = ShardedStore::open_dir(&dir).map_err(|e| e.to_string())?;
    store.attach_manifest(&compressed);
    let (summary, json, failed) = if has_flag(args, "--repair") {
        let report = pmr::storage::repair(&store).map_err(|e| e.to_string())?;
        let json = Json::obj(vec![
            ("segments", Json::Num(report.scrub.segments as f64)),
            ("replicas_checked", Json::Num(report.scrub.replicas_checked as f64)),
            ("corrupt", Json::Num(report.scrub.corrupt as f64)),
            ("missing", Json::Num(report.scrub.missing as f64)),
            ("repaired", Json::Num(report.repaired as f64)),
            ("skipped_dead", Json::Num(report.skipped_dead as f64)),
            ("unrepairable", Json::Num(report.unrepairable.len() as f64)),
            ("complete", Json::Bool(report.complete())),
        ])
        .to_pretty();
        (report.summary(), json, !report.complete())
    } else {
        let report = pmr::storage::scrub(&store).map_err(|e| e.to_string())?;
        let json = Json::obj(vec![
            ("segments", Json::Num(report.segments as f64)),
            ("replicas_checked", Json::Num(report.replicas_checked as f64)),
            ("ok", Json::Num(report.ok as f64)),
            ("corrupt", Json::Num(report.corrupt as f64)),
            ("missing", Json::Num(report.missing as f64)),
            ("clean", Json::Bool(report.clean())),
        ])
        .to_pretty();
        (report.summary(), json, !report.clean())
    };
    println!("{summary}");
    if let Some(path) = flag_value(args, "--report")? {
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote report to {path}");
    }
    if failed {
        // Dirty corpora exit non-zero so cron jobs can alert, but the
        // findings above are the real output — no usage banner.
        std::process::exit(1);
    }
    Ok(())
}

fn info(args: &[String]) -> Result<(), String> {
    let input = positional(args, 0, "input .pmrc")?;
    let c = persist::load(Path::new(input)).map_err(|e| e.to_string())?;
    println!("artifact: {input}");
    println!("  field:       {} (timestep {})", c.name(), c.timestep());
    println!("  shape:       {}", c.shape());
    println!("  mode:        {:?}", c.decomposer().mode());
    println!("  levels:      {} x {} planes", c.num_levels(), c.num_planes());
    println!("  payload:     {} bytes", c.total_bytes());
    println!("  value range: {:.6e}", c.value_range());
    println!("  theory C_l:  {:?}", c.theory_constants());
    println!("  per level:   count / total bytes / Err[l][0]");
    for (l, lvl) in c.levels().iter().enumerate() {
        println!(
            "    level_{l}:  {:>8} / {:>9} / {:.3e}",
            lvl.count(),
            lvl.total_size(),
            lvl.error_at(0)
        );
    }
    Ok(())
}
