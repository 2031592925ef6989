//! Open-loop load generation against a running daemon.
//!
//! Request start times are scheduled on a fixed grid (`i / rate`) before
//! any request is sent — the generator does not slow down when the
//! daemon does, which is what makes the measured latencies honest under
//! overload (closed-loop generators coordinate with the server and hide
//! queueing delay).
//!
//! Each worker thread owns one persistent connection and pulls the next
//! scheduled request index from a shared atomic counter, sleeping until
//! that request's start time. Latency is measured from the *scheduled*
//! start (so schedule slip counts against the daemon, not the client).

use crate::client::{Client, ConnectAddr};
use crate::protocol::{Status, Target, FLAG_NO_PLANES};
use pmr_error::sync::{rank, Mutex};
use pmr_error::PmrError;
use pmr_json::Json;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One load run's shape.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Datasets cycled round-robin across requests.
    pub datasets: Vec<String>,
    /// Tenant names cycled across requests.
    pub tenants: Vec<String>,
    /// Targets cycled across requests (mixed tolerances exercise both
    /// cache-friendly coarse planes and deep fetches).
    pub targets: Vec<Target>,
    /// Total requests to issue.
    pub requests: usize,
    /// Offered load in requests per second (open loop).
    pub rate_rps: f64,
    /// Client connections / worker threads.
    pub connections: usize,
    /// Ask the daemon to skip plane frames (report-only probes measure
    /// the fetch path without download bandwidth).
    pub report_only: bool,
}

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec {
            datasets: Vec::new(),
            tenants: vec!["load".to_string()],
            targets: vec![Target::Rel(1e-3)],
            requests: 100,
            rate_rps: 50.0,
            connections: 8,
            report_only: false,
        }
    }
}

/// Aggregated result of one load run at one offered rate.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    pub offered_rps: f64,
    pub requests: usize,
    pub ok: usize,
    pub busy: usize,
    pub degraded: usize,
    /// Transport or protocol failures — must be zero on a healthy daemon.
    pub errors: usize,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
    pub mean_ms: f64,
    /// Wall-clock completion rate actually achieved.
    pub achieved_rps: f64,
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    // 0.0, not NaN: the report is serialized as JSON, which has no NaN.
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted_ms.len() as f64).ceil() as usize;
    let idx = rank.saturating_sub(1).min(sorted_ms.len() - 1);
    sorted_ms.get(idx).copied().unwrap_or(0.0)
}

#[derive(Default)]
struct Tally {
    latencies_ms: Vec<f64>,
    ok: usize,
    busy: usize,
    degraded: usize,
    errors: usize,
}

/// Run one open-loop burst against `addr`.
pub fn run_load(addr: &ConnectAddr, spec: &LoadSpec) -> Result<LoadReport, PmrError> {
    if spec.datasets.is_empty() || spec.tenants.is_empty() || spec.targets.is_empty() {
        return Err(PmrError::invalid_config(
            "load spec needs at least one dataset, tenant, and target".to_string(),
        ));
    }
    if !(spec.rate_rps.is_finite() && spec.rate_rps > 0.0) {
        return Err(PmrError::invalid_config(format!(
            "offered rate must be finite and positive, got {}",
            spec.rate_rps
        )));
    }
    let connections = spec.connections.clamp(1, spec.requests.max(1));
    let next = Arc::new(AtomicUsize::new(0));
    let tally = Arc::new(Mutex::new(rank::LOAD_TALLY, Tally::default()));
    let flags = if spec.report_only { FLAG_NO_PLANES } else { 0 };
    let epoch = Instant::now();
    let started = Instant::now();

    std::thread::scope(|scope| {
        for _ in 0..connections {
            let next = Arc::clone(&next);
            let tally = Arc::clone(&tally);
            scope.spawn(move || {
                let mut client = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(_) => {
                        let mut t = tally.lock();
                        // Count every request this connection would have
                        // served as an error — a refused connect must not
                        // silently shrink the run.
                        t.errors += 1;
                        return;
                    }
                };
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= spec.requests {
                        return;
                    }
                    let scheduled = epoch + Duration::from_secs_f64(i as f64 / spec.rate_rps);
                    let now = Instant::now();
                    if scheduled > now {
                        std::thread::sleep(scheduled - now);
                    }
                    let dataset = &spec.datasets[i % spec.datasets.len()];
                    let tenant = &spec.tenants[i % spec.tenants.len()];
                    let target = spec.targets[i % spec.targets.len()].clone();
                    let outcome = client.retrieve_with(tenant, dataset, target, 0, flags);
                    // From the *scheduled* start: schedule slip counts.
                    let latency_ms = scheduled.elapsed().as_secs_f64() * 1e3;
                    let mut t = tally.lock();
                    match outcome {
                        Ok(served) => match served.report.status {
                            Status::Ok => {
                                t.ok += 1;
                                if served.report.is_degraded() {
                                    t.degraded += 1;
                                }
                                t.latencies_ms.push(latency_ms);
                            }
                            Status::Busy => t.busy += 1,
                            _ => t.errors += 1,
                        },
                        Err(_) => {
                            t.errors += 1;
                            return; // the connection is unusable now
                        }
                    }
                }
            });
        }
    });

    let elapsed_s = started.elapsed().as_secs_f64().max(1e-9);
    let mut t = Arc::try_unwrap(tally)
        .map_err(|_| PmrError::invalid_config("load worker leaked its tally handle".to_string()))?
        .into_inner();
    // total_cmp: a NaN latency (from a clock glitch) must sort to a defined
    // position, not (as `partial_cmp(..).unwrap_or(Equal)` would) compare
    // Equal to everything and silently scramble the percentile order.
    t.latencies_ms.sort_by(f64::total_cmp);
    // 0.0, not NaN, on an all-error run: the value lands in JSON output.
    let mean_ms = if t.latencies_ms.is_empty() {
        0.0
    } else {
        t.latencies_ms.iter().sum::<f64>() / t.latencies_ms.len() as f64
    };
    Ok(LoadReport {
        offered_rps: spec.rate_rps,
        requests: spec.requests,
        ok: t.ok,
        busy: t.busy,
        degraded: t.degraded,
        errors: t.errors,
        p50_ms: percentile(&t.latencies_ms, 50.0),
        p90_ms: percentile(&t.latencies_ms, 90.0),
        p99_ms: percentile(&t.latencies_ms, 99.0),
        mean_ms,
        achieved_rps: t.ok as f64 / elapsed_s,
    })
}

/// `v` rounded to `decimals` places, the precision the committed file carries.
fn rounded(v: f64, decimals: i32) -> Json {
    let scale = 10f64.powi(decimals);
    Json::Num((v * scale).round() / scale)
}

/// Render load reports as a benchmark document: one object per offered
/// rate in `runs`, under the run's `label`.
pub fn reports_to_json(runs: &[LoadReport], label: &str) -> Json {
    let count = |n: usize| Json::Num(n as f64);
    let runs = runs.iter().map(|r| {
        Json::obj(vec![
            ("offered_rps", rounded(r.offered_rps, 1)),
            ("requests", count(r.requests)),
            ("ok", count(r.ok)),
            ("busy", count(r.busy)),
            ("degraded", count(r.degraded)),
            ("errors", count(r.errors)),
            ("p50_ms", rounded(r.p50_ms, 3)),
            ("p90_ms", rounded(r.p90_ms, 3)),
            ("p99_ms", rounded(r.p99_ms, 3)),
            ("mean_ms", rounded(r.mean_ms, 3)),
            ("achieved_rps", rounded(r.achieved_rps, 1)),
        ])
    });
    Json::obj(vec![
        ("bench", Json::str("pmrd-load")),
        ("label", Json::str(label)),
        ("runs", Json::Arr(runs.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_pick_ceiling_rank() {
        let ms: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&ms, 50.0), 50.0);
        assert_eq!(percentile(&ms, 99.0), 99.0);
        assert_eq!(percentile(&ms, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        // Empty input yields 0.0, never NaN: the value lands in JSON output.
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn json_is_shaped_like_a_bench_artifact() {
        let runs = vec![LoadReport {
            offered_rps: 50.0,
            requests: 10,
            ok: 10,
            busy: 0,
            degraded: 0,
            errors: 0,
            p50_ms: 1.0,
            p90_ms: 2.0,
            p99_ms: 3.0,
            mean_ms: 1.5,
            achieved_rps: 49.0,
        }];
        let json = pmr_json::parse(&reports_to_json(&runs, "smoke").to_pretty()).expect("parses");
        assert_eq!(json.get("bench").and_then(Json::as_str), Some("pmrd-load"));
        let run = &json.get("runs").and_then(Json::as_arr).expect("runs")[0];
        assert_eq!(run.get("p99_ms").and_then(Json::as_f64), Some(3.0));
        assert_eq!(run.get("requests").and_then(Json::as_usize), Some(10));
    }

    #[test]
    fn a_label_with_control_characters_stays_parsable_json() {
        let label = "tcp \u{1b}[31mred\u{1b}[0m \"quoted\"\n";
        let json = pmr_json::parse(&reports_to_json(&[], label).to_pretty()).expect("parses");
        assert_eq!(json.get("label").and_then(Json::as_str), Some(label));
    }
}
