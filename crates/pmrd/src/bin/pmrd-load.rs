//! Open-loop load generator for a running pmrd daemon.
//!
//! ```text
//! pmrd-load --connect tcp:127.0.0.1:7070 --dataset jet \
//!           [--requests 200] [--rates 50,200] [--connections 8] \
//!           [--report-only] [--out BENCH_pmrd.json]
//! ```
//!
//! Issues `--requests` retrievals at each offered rate (requests per
//! second, open loop: the schedule never slows down for a lagging
//! daemon), cycling a mixed set of tolerance targets, and reports
//! latency percentiles per rate. Exits non-zero if any run saw a
//! protocol or transport error.

// Lossy casts, nondeterminism sources and discarded `Result`s, as
// scoped to this crate (DESIGN.md §8); test code is exempt.
#![cfg_attr(
    not(test),
    deny(unused_must_use, clippy::let_underscore_must_use, clippy::unused_result_ok)
)]

use pmrd::load::reports_to_json;
use pmrd::{run_load, ConnectAddr, LoadSpec, Target};
use std::path::PathBuf;

struct Args {
    connect: String,
    datasets: Vec<String>,
    requests: usize,
    rates: Vec<f64>,
    connections: usize,
    report_only: bool,
    out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: pmrd-load --connect tcp:HOST:PORT|unix:PATH --dataset NAME [--dataset NAME ...] \
         [--requests N] [--rates R1,R2,...] [--connections N] [--report-only] [--out FILE.json]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        connect: String::new(),
        datasets: Vec::new(),
        requests: 200,
        rates: vec![50.0, 200.0],
        connections: 8,
        report_only: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--connect" => args.connect = value("--connect"),
            "--dataset" => args.datasets.push(value("--dataset")),
            "--requests" => args.requests = value("--requests").parse().unwrap_or_else(|_| usage()),
            "--rates" => {
                args.rates = value("--rates")
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect()
            }
            "--connections" => {
                args.connections = value("--connections").parse().unwrap_or_else(|_| usage())
            }
            "--report-only" => args.report_only = true,
            "--out" => args.out = Some(PathBuf::from(value("--out"))),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    if args.connect.is_empty() || args.datasets.is_empty() || args.rates.is_empty() {
        usage()
    }
    args
}

fn main() {
    let args = parse_args();
    let addr = match ConnectAddr::parse(&args.connect) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    let mut runs = Vec::new();
    let mut any_errors = false;
    for &rate in &args.rates {
        let spec = LoadSpec {
            datasets: args.datasets.clone(),
            tenants: vec!["load-a".into(), "load-b".into()],
            targets: vec![
                Target::Rel(1e-2),
                Target::Rel(1e-3),
                Target::Rel(1e-4),
                Target::Bytes(64 << 10),
            ],
            requests: args.requests,
            rate_rps: rate,
            connections: args.connections,
            report_only: args.report_only,
        };
        match run_load(&addr, &spec) {
            Ok(report) => {
                eprintln!(
                    "rate {:>7.1} rps: ok {} busy {} degraded {} errors {} | \
                     p50 {:.2} ms p90 {:.2} ms p99 {:.2} ms (achieved {:.1} rps)",
                    report.offered_rps,
                    report.ok,
                    report.busy,
                    report.degraded,
                    report.errors,
                    report.p50_ms,
                    report.p90_ms,
                    report.p99_ms,
                    report.achieved_rps,
                );
                any_errors |= report.errors > 0;
                runs.push(report);
            }
            Err(e) => {
                eprintln!("load run at {rate} rps failed: {e}");
                std::process::exit(1);
            }
        }
    }

    let json = reports_to_json(&runs, &args.connect).to_pretty();
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("wrote {}", path.display());
        }
        None => print!("{json}"),
    }
    if any_errors {
        eprintln!("pmrd-load: protocol/transport errors observed");
        std::process::exit(1);
    }
}
