//! Shared harness for the figure/table regeneration benches.
//!
//! Every `benches/figNN_*.rs` target is a standalone binary (`harness = false`)
//! that regenerates one table or figure of the paper:
//! it prints the same series the paper plots and writes a CSV under
//! `results/`. This crate carries the common plumbing: scaled dataset
//! configurations and their on-disk snapshot cache, experiment setup, and
//! table/CSV output; and the two pieces of experiment apparatus no product
//! path runs: the ZFP-like [`blockcodec`] baseline and the post-hoc
//! [`analysis`] kernels.
//!
//! Scaling knobs (environment variables):
//!
//! * `PMR_BENCH_SIZE` — cube side of the generated grids (default 33;
//!   paper: 512),
//! * `PMR_BENCH_TIMESTEPS` — snapshots per field (default 32; paper: 512),
//! * `PMR_RESULTS_DIR` — where CSVs are written (default `./results`).

#![forbid(unsafe_code)]

pub mod analysis;
pub mod blockcodec;
pub mod datasets;
pub mod output;
pub mod setup;

/// Cube side used by the benches (env `PMR_BENCH_SIZE`, default 33).
pub fn bench_size() -> usize {
    std::env::var("PMR_BENCH_SIZE").ok().and_then(|v| v.parse().ok()).unwrap_or(33)
}

/// Snapshot count used by the benches (env `PMR_BENCH_TIMESTEPS`,
/// default 32).
pub fn bench_timesteps() -> usize {
    std::env::var("PMR_BENCH_TIMESTEPS").ok().and_then(|v| v.parse().ok()).unwrap_or(32)
}

/// Format a float in compact scientific notation.
pub fn sci(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else {
        format!("{v:.3e}")
    }
}

/// Format a byte count with a binary-unit suffix.
pub fn human_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b} B")
    } else {
        format!("{v:.2} {}", UNITS[u])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.00 KiB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.00 MiB");
    }

    #[test]
    fn sci_format() {
        assert_eq!(sci(0.0), "0");
        assert_eq!(sci(1e-3), "1.000e-3");
    }

    #[test]
    fn env_defaults() {
        assert!(bench_size() >= 4);
        assert!(bench_timesteps() >= 1);
    }
}
