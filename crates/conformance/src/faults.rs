//! Fault-injection conformance: the degraded-retrieval contract under a
//! seeded fault grid.
//!
//! The fault-tolerant reader in `pmr-storage` promises exactly one thing:
//! whatever a seeded schedule throws at it — transients, timeouts,
//! truncated reads, bit flips, permanently lost segments — the retrieval
//! finishes without panicking and the reconstruction satisfies the bound
//! the reader *reports* (the requested bound when clean, the honest
//! re-estimated achievable bound when degraded). This module sweeps that
//! promise over the synthetic corpus × named fault schedules × seeds ×
//! tolerances, measuring every reconstruction against ground truth, and
//! re-runs one cell per schedule twice to pin seed-determinism.

use crate::fields::{catalogue, FieldClass};
use crate::json::Json;
use crate::sweep::{SWEEP_LEVELS, SWEEP_PLANES};
use pmr_field::{error::max_abs_error, Field};
use pmr_mgard::{CompressConfig, Compressed};
use pmr_storage::{
    fetch_plan_tolerant, FaultConfig, FaultInjector, MemStore, RetryPolicy, TolerantConfig,
};

/// A named fault schedule of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSchedule {
    /// No faults: the tolerant path must match direct retrieval exactly.
    Clean,
    /// Retryable noise only (transients, timeouts, latency spikes).
    Flaky,
    /// Corrupting reads (truncations, bit flips) that checksums must catch.
    Corrupting,
    /// Permanent segment loss: degradation is expected and must be honest.
    Lossy,
    /// Everything at once.
    Chaos,
}

impl FaultSchedule {
    pub fn all() -> [FaultSchedule; 5] {
        [
            FaultSchedule::Clean,
            FaultSchedule::Flaky,
            FaultSchedule::Corrupting,
            FaultSchedule::Lossy,
            FaultSchedule::Chaos,
        ]
    }

    pub fn label(self) -> &'static str {
        match self {
            FaultSchedule::Clean => "clean",
            FaultSchedule::Flaky => "flaky",
            FaultSchedule::Corrupting => "corrupting",
            FaultSchedule::Lossy => "lossy",
            FaultSchedule::Chaos => "chaos",
        }
    }

    /// The injector configuration of this schedule for one fault seed.
    pub fn config(self, seed: u64) -> FaultConfig {
        let quiet = FaultConfig::quiet(seed);
        match self {
            FaultSchedule::Clean => quiet,
            FaultSchedule::Flaky => FaultConfig {
                transient: 0.25,
                timeout: 0.08,
                latency_spike: 0.15,
                spike_s: 0.02,
                ..quiet
            },
            FaultSchedule::Corrupting => FaultConfig { truncate: 0.15, bit_flip: 0.2, ..quiet },
            FaultSchedule::Lossy => FaultConfig { permanent: 0.12, transient: 0.1, ..quiet },
            FaultSchedule::Chaos => FaultConfig {
                permanent: 0.08,
                transient: 0.2,
                timeout: 0.05,
                truncate: 0.1,
                bit_flip: 0.1,
                latency_spike: 0.1,
                spike_s: 0.02,
                ..quiet
            },
        }
    }
}

/// Grid dimensions of a fault-conformance run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultGridConfig {
    /// Master seed: corpus fields and fault seeds derive from it.
    pub seed: u64,
    /// Fault seeds tried per (field, schedule).
    pub seeds_per_schedule: usize,
    /// Relative error bounds requested per cell.
    pub rel_bounds: Vec<f64>,
    /// Synthetic fields taken from the corpus.
    pub max_fields: usize,
}

impl FaultGridConfig {
    /// The per-PR CI grid: small but covering every schedule.
    pub fn quick(seed: u64) -> Self {
        FaultGridConfig { seed, seeds_per_schedule: 2, rel_bounds: vec![1e-2, 1e-4], max_fields: 3 }
    }

    /// The exhaustive grid for scheduled runs.
    pub fn full(seed: u64) -> Self {
        FaultGridConfig {
            seed,
            seeds_per_schedule: 6,
            rel_bounds: vec![1e-1, 1e-2, 1e-3, 1e-4, 1e-5],
            max_fields: 9,
        }
    }
}

/// Aggregate result of a fault-grid run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultReport {
    /// `(field, schedule, fault seed, bound)` cells executed.
    pub cells: usize,
    /// Cells that returned a degraded retrieval.
    pub degraded: usize,
    /// Degraded cells whose achievable bound still met the request
    /// (re-planning compensated fully).
    pub recovered: usize,
    /// Segments abandoned across the grid.
    pub lost_segments: u64,
    /// Retries performed across the grid.
    pub retries: u64,
    /// Verified-corrupt reads caught by checksums across the grid.
    pub corruptions_caught: u64,
    /// Every violated invariant; empty = pass.
    pub failures: Vec<String>,
}

impl FaultReport {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn summary(&self) -> String {
        format!(
            "fault grid: {} cells, {} degraded ({} recovered), {} lost segments, \
             {} retries, {} corruptions caught, {} failures",
            self.cells,
            self.degraded,
            self.recovered,
            self.lost_segments,
            self.retries,
            self.corruptions_caught,
            self.failures.len()
        )
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cells", Json::Num(self.cells as f64)),
            ("degraded", Json::Num(self.degraded as f64)),
            ("recovered", Json::Num(self.recovered as f64)),
            ("lost_segments", Json::Num(self.lost_segments as f64)),
            ("retries", Json::Num(self.retries as f64)),
            ("corruptions_caught", Json::Num(self.corruptions_caught as f64)),
            ("passed", Json::Bool(self.passed())),
            ("failures", Json::Arr(self.failures.iter().map(|f| Json::str(f.clone())).collect())),
        ])
    }
}

fn grid_corpus(cfg: &FaultGridConfig) -> Vec<Field> {
    catalogue(cfg.seed)
        .into_iter()
        .filter(|(class, _)| class.is_finite() && *class != FieldClass::Constant)
        .map(|(_, f)| f)
        .take(cfg.max_fields)
        .collect()
}

fn compress(field: &Field) -> Compressed {
    let cfg =
        CompressConfig { levels: SWEEP_LEVELS, num_planes: SWEEP_PLANES, ..Default::default() };
    Compressed::compress(field, &cfg)
}

/// Run the grid. Every cell checks the reported-bound contract against the
/// measured reconstruction error; per (field, schedule) one cell is re-run
/// with a fresh injector to assert the seed fully determines the outcome.
pub fn run_fault_grid(cfg: &FaultGridConfig) -> FaultReport {
    let mut report = FaultReport::default();
    let tolerant = TolerantConfig {
        policy: RetryPolicy { max_attempts: 6, ..RetryPolicy::default() },
        ..TolerantConfig::default()
    };
    for (fi, field) in grid_corpus(cfg).iter().enumerate() {
        let c = compress(field);
        for schedule in FaultSchedule::all() {
            for si in 0..cfg.seeds_per_schedule {
                let fault_seed = cfg
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((fi as u64) << 24)
                    .wrapping_add(si as u64);
                for (bi, &rel) in cfg.rel_bounds.iter().enumerate() {
                    let bound = c.absolute_bound(rel);
                    let cell = format!(
                        "field {} schedule {} seed {fault_seed:#x} rel {rel}",
                        field.name(),
                        schedule.label()
                    );
                    report.cells += 1;
                    let run = || {
                        let inj = FaultInjector::new(
                            MemStore::from_compressed(&c),
                            schedule.config(fault_seed),
                        )
                        .expect("schedule configs are valid");
                        let out = fetch_plan_tolerant(
                            &c,
                            &inj,
                            &c.plan_theory(bound),
                            bound,
                            &tolerant,
                            None,
                            None,
                        );
                        (out, inj.log())
                    };
                    let (outcome, log) = run();
                    let out = match outcome {
                        Ok(out) => out,
                        Err(e) => {
                            report.failures.push(format!("{cell}: hard failure: {e}"));
                            continue;
                        }
                    };
                    report.lost_segments += out.stats.lost_segments;
                    report.retries += out.stats.retries;
                    report.corruptions_caught += out.stats.corruptions;
                    let measured = max_abs_error(field.data(), out.field.data());
                    match &out.degraded {
                        None => {
                            if measured > bound {
                                report.failures.push(format!(
                                    "{cell}: clean retrieval violated requested bound: \
                                     {measured:e} > {bound:e}"
                                ));
                            }
                            if schedule == FaultSchedule::Clean && out.stats.retries > 0 {
                                report
                                    .failures
                                    .push(format!("{cell}: retries on a fault-free store"));
                            }
                        }
                        Some(deg) => {
                            report.degraded += 1;
                            if deg.bound_recovered() {
                                report.recovered += 1;
                            }
                            if measured > deg.achievable_bound {
                                report.failures.push(format!(
                                    "{cell}: degraded retrieval violated its reported bound: \
                                     {measured:e} > {:e}",
                                    deg.achievable_bound
                                ));
                            }
                            // Flaky/Corrupting can degrade legitimately: a
                            // bounded RetryPolicy exhausts on a long-enough
                            // run of transient faults or repeated corrupt
                            // reads. Only a fault-free store must never
                            // degrade.
                            if schedule == FaultSchedule::Clean {
                                report.failures.push(format!(
                                    "{cell}: fault-free store degraded (lost {:?})",
                                    deg.lost_segments
                                ));
                            }
                        }
                    }
                    // Determinism: re-run the first bound of each (field,
                    // schedule, seed) cell from scratch and require the
                    // identical outcome, fault log included.
                    if bi == 0 {
                        let (outcome2, log2) = run();
                        match outcome2 {
                            Ok(out2) => {
                                if out2.planes != out.planes
                                    || out2.degraded != out.degraded
                                    || out2.stats != out.stats
                                    || log2 != log
                                {
                                    report.failures.push(format!(
                                        "{cell}: same seed produced a different outcome"
                                    ));
                                }
                            }
                            Err(e) => report
                                .failures
                                .push(format!("{cell}: determinism re-run failed hard: {e}")),
                        }
                    }
                }
            }
        }
    }
    report
}

/// Machine-readable report for `pmrtool faultsim` and the CI job.
pub fn fault_report_json(report: &FaultReport, grid_name: &str, seed: u64) -> String {
    Json::obj(vec![
        ("grid", Json::str(grid_name)),
        ("seed", Json::Num(seed as f64)),
        ("report", report.to_json()),
    ])
    .to_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_passes() {
        let report = run_fault_grid(&FaultGridConfig::quick(0xFA_017));
        assert!(report.passed(), "failures: {:#?}", report.failures);
        assert!(report.cells > 0);
        // The grid genuinely exercises the fault machinery.
        assert!(report.retries > 0, "flaky schedules must force retries");
        assert!(report.corruptions_caught > 0, "corrupting schedules must be caught");
        assert!(report.degraded > 0, "lossy schedules must degrade");
        assert!(report.lost_segments > 0);
    }

    #[test]
    fn report_json_shape() {
        let report = run_fault_grid(&FaultGridConfig {
            seed: 7,
            seeds_per_schedule: 1,
            rel_bounds: vec![1e-2],
            max_fields: 1,
        });
        let json = fault_report_json(&report, "quick", 7);
        let parsed = crate::json::parse(&json).expect("valid JSON");
        assert_eq!(parsed.get("grid").and_then(Json::as_str), Some("quick"));
        let inner = parsed.get("report").expect("report key");
        assert!(inner.get("cells").and_then(Json::as_f64).unwrap_or(0.0) > 0.0);
        assert!(inner.get("failures").and_then(Json::as_arr).is_some());
    }
}
