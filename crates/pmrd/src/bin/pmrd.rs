//! The pmrd daemon binary.
//!
//! ```text
//! pmrd --listen tcp:127.0.0.1:7070 --corpus ./artifacts \
//!      [--workers 8] [--cache-mb 64] [--max-inflight 32] [--per-tenant 8] \
//!      [--shards N --replication R [--hot-planes H]] \
//!      [--kill-shard IDX --kill-shard-after-ms MS]
//! pmrd --listen unix:/tmp/pmrd.sock --corpus ./artifacts
//! ```
//!
//! The corpus directory is scanned for `*.pmrc` artifacts (written by
//! `pmrtool compress`); each is served under its file stem. With
//! `--shards`, every dataset is served from an in-memory sharded store
//! with the given replication; `--kill-shard` + `--kill-shard-after-ms`
//! kill one shard of every dataset after a delay (degraded-mode chaos
//! benchmarking). The daemon runs until SIGINT/SIGTERM kills the process.

// Lossy casts, nondeterminism sources and discarded `Result`s, as
// scoped to this crate (DESIGN.md §8); test code is exempt.
#![cfg_attr(
    not(test),
    deny(unused_must_use, clippy::let_underscore_must_use, clippy::unused_result_ok)
)]

use pmr_storage::ShardConfig;
use pmrd::{AdmissionConfig, Corpus, Daemon, DaemonConfig, Endpoint};
use std::path::PathBuf;

struct Args {
    listen: String,
    corpus: PathBuf,
    workers: usize,
    cache_mb: u64,
    max_inflight: usize,
    per_tenant: usize,
    shards: usize,
    replication: usize,
    hot_planes: u32,
    kill_shard: Option<usize>,
    kill_shard_after_ms: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: pmrd --listen tcp:HOST:PORT|unix:PATH --corpus DIR \
         [--workers N] [--cache-mb MB] [--max-inflight N] [--per-tenant N] \
         [--shards N --replication R [--hot-planes H]] \
         [--kill-shard IDX --kill-shard-after-ms MS]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        listen: String::new(),
        corpus: PathBuf::new(),
        workers: 8,
        cache_mb: 64,
        max_inflight: 32,
        per_tenant: 8,
        shards: 0,
        replication: 2,
        hot_planes: 0,
        kill_shard: None,
        kill_shard_after_ms: 0,
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
            "--listen" => args.listen = value("--listen"),
            "--corpus" => args.corpus = PathBuf::from(value("--corpus")),
            "--workers" => args.workers = parse_num(&value("--workers"), "--workers"),
            "--cache-mb" => args.cache_mb = parse_num(&value("--cache-mb"), "--cache-mb"),
            "--max-inflight" => {
                args.max_inflight = parse_num(&value("--max-inflight"), "--max-inflight")
            }
            "--per-tenant" => args.per_tenant = parse_num(&value("--per-tenant"), "--per-tenant"),
            "--shards" => args.shards = parse_num(&value("--shards"), "--shards"),
            "--replication" => {
                args.replication = parse_num(&value("--replication"), "--replication")
            }
            "--hot-planes" => args.hot_planes = parse_num(&value("--hot-planes"), "--hot-planes"),
            "--kill-shard" => {
                args.kill_shard = Some(parse_num(&value("--kill-shard"), "--kill-shard"))
            }
            "--kill-shard-after-ms" => {
                args.kill_shard_after_ms =
                    parse_num(&value("--kill-shard-after-ms"), "--kill-shard-after-ms")
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    if args.listen.is_empty() || args.corpus.as_os_str().is_empty() {
        usage()
    }
    args
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{flag} wants a number, got {s:?}");
        usage()
    })
}

fn main() {
    let args = parse_args();
    let loaded = if args.shards > 0 {
        let shard_cfg = match ShardConfig::try_new(args.shards, args.replication) {
            Ok(c) => c.with_hot_planes(args.hot_planes),
            Err(e) => {
                eprintln!("bad shard topology: {e}");
                std::process::exit(2);
            }
        };
        eprintln!(
            "pmrd: sharded serving ({} shards, replication {}, hot planes {})",
            args.shards, args.replication, args.hot_planes
        );
        Corpus::load_dir_sharded(&args.corpus, shard_cfg)
    } else {
        Corpus::load_dir(&args.corpus)
    };
    let corpus = match loaded {
        Ok(c) if !c.is_empty() => c,
        Ok(_) => {
            eprintln!("corpus {:?} holds no *.pmrc artifacts", args.corpus);
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("failed to load corpus {:?}: {e}", args.corpus);
            std::process::exit(1);
        }
    };
    eprintln!("pmrd: serving {} dataset(s): {}", corpus.len(), corpus.names().join(", "));

    let cfg = DaemonConfig {
        workers: args.workers.max(1),
        cache_bytes: args.cache_mb.saturating_mul(1 << 20),
        admission: AdmissionConfig {
            max_inflight: args.max_inflight.max(1),
            max_inflight_per_tenant: args.per_tenant.max(1),
        },
        ..DaemonConfig::default()
    };
    let daemon = Daemon::new(corpus, cfg);

    let handle = if let Some(addr) = args.listen.strip_prefix("tcp:") {
        daemon.spawn_tcp(addr)
    } else if let Some(path) = args.listen.strip_prefix("unix:") {
        spawn_unix(&daemon, path)
    } else {
        eprintln!("--listen must be tcp:HOST:PORT or unix:PATH, got {:?}", args.listen);
        std::process::exit(2);
    };
    let handle = match handle {
        Ok(h) => h,
        Err(e) => {
            eprintln!("pmrd: failed to bind {:?}: {e}", args.listen);
            std::process::exit(1);
        }
    };
    match handle.endpoint() {
        Endpoint::Tcp(a) => eprintln!("pmrd: listening on tcp:{a}"),
        Endpoint::Unix(p) => eprintln!("pmrd: listening on unix:{}", p.display()),
    }

    if let Some(idx) = args.kill_shard {
        let delay = std::time::Duration::from_millis(args.kill_shard_after_ms);
        let chaos = std::sync::Arc::clone(&daemon);
        std::thread::spawn(move || {
            std::thread::sleep(delay);
            let mut killed = 0usize;
            for (name, entry) in chaos.corpus().entries() {
                if let Some(sharded) = &entry.sharded {
                    sharded.kill_shard(idx);
                    eprintln!("pmrd: chaos killed shard {idx} of dataset {name}");
                    killed += 1;
                }
            }
            if killed == 0 {
                eprintln!("pmrd: --kill-shard set but no dataset is sharded; nothing killed");
            }
        });
    }

    // Serve until the process is killed: the acceptor and workers own the
    // runtime; this thread just parks.
    loop {
        std::thread::park();
    }
}

#[cfg(unix)]
fn spawn_unix(daemon: &std::sync::Arc<Daemon>, path: &str) -> std::io::Result<pmrd::DaemonHandle> {
    // A stale socket file from a crashed daemon would fail the bind.
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    daemon.spawn_unix(path)
}

#[cfg(not(unix))]
fn spawn_unix(_: &std::sync::Arc<Daemon>, path: &str) -> std::io::Result<pmrd::DaemonHandle> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        format!("unix sockets unavailable on this platform: {path}"),
    ))
}
