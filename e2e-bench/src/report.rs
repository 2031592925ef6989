//! The metric names this benchmark prints — the same lists, in the same
//! order, as `BENCHMARK.json` — and the result line.

/// `(name, unit)` of every end-to-end metric, printed by an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("first_ms_p50", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("bytes_per_field_byte", "ratio"),
    ("peak_heap_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric, printed by a traced run. A
/// layer that does no work on a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mgard.decompose.ms", "ms"),
    ("mgard.decompose.gbps", "GB/s"),
    ("mgard.interleave.ms", "ms"),
    ("mgard.bitplane.encode_ms", "ms"),
    ("mgard.bitplane.encode_gbps", "GB/s"),
    ("mgard.persist.ms", "ms"),
    ("storage.shard.place_ms", "ms"),
    ("storage.shard.write_ms", "ms"),
    ("storage.shard.write_bytes", "B"),
    ("storage.shard.files", "count"),
    ("core.plan.theory_ms", "ms"),
    ("core.plan.combined_ms", "ms"),
    ("core.plan.bytes_vs_theory", "ratio"),
    ("core.plan.err_slack_gm", "ratio"),
    ("core.plan.miss_share", "ratio"),
    ("mgard.bitplane.decode_ms", "ms"),
    ("mgard.bitplane.decode_gbps", "GB/s"),
    ("mgard.deinterleave.ms", "ms"),
    ("mgard.recompose.ms", "ms"),
    ("mgard.recompose.gbps", "GB/s"),
    ("storage.fetch.ms", "ms"),
    ("storage.fetch.segments", "count"),
    ("storage.fetch.bytes", "B"),
    ("storage.fetch.retries", "count"),
    ("pmrd.handle.ms", "ms"),
    ("pmrd.wire.ms", "ms"),
    ("pmrd.protocol.encode_ms", "ms"),
    ("pmrd.protocol.decode_ms", "ms"),
    ("pmrd.cache.hit_ratio", "ratio"),
    ("pmrd.cache.evictions", "count"),
    ("pmrd.cache.coalesced", "count"),
    ("pmrd.cache.resident_mb", "MiB"),
    ("pmrd.admission.rejected", "count"),
    ("storage.shard.fetches", "count"),
    ("storage.shard.fallbacks", "count"),
    ("env.memcpy_gbps", "GB/s"),
    ("env.file_read_gbps", "GB/s"),
    ("env.fsync_ms", "ms"),
    ("driver.client_verify_ms", "ms"),
    ("driver.op_ms_p90", "ms"),
    ("driver.op_ms_p99", "ms"),
    ("driver.trace_overhead", "ratio"),
    ("driver.stage_cover", "ratio"),
];

pub const WORKLOADS: &[&str] = &["refactor-write", "retrieve-ladder", "serve-hot", "serve-cold"];

/// What a run hands back to `main`.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// False when an op failed, a check failed, or a metric has no value.
    pub correct: bool,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// A run is correct when no op failed and every metric has a value: a
    /// statistic over no samples (NaN) prints as 0 and fails the run.
    pub fn new(
        attempted: u64,
        failed: u64,
        metrics: Vec<(&'static str, f64, &'static str)>,
    ) -> Self {
        let mut correct = failed == 0;
        let metrics = metrics
            .into_iter()
            .map(|(name, value, unit)| {
                if value.is_finite() {
                    (name, value, unit)
                } else {
                    println!("# FAILED no value for {name}");
                    correct = false;
                    (name, 0.0, unit)
                }
            })
            .collect();
        Outcome { attempted, failed, correct, metrics }
    }

    /// One `metric <name> <value> <unit>` line per metric, then the JSON
    /// object the driver reads off the last line.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("metric {name} {value} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root is written by hand, one
    /// entry per line (which is what this reads, there being no JSON parser
    /// to link); this keeps its metric and workload lists equal to what the
    /// binary prints.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str, next: &str| {
            let from = json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key}"));
            let to = if next.is_empty() {
                json.len()
            } else {
                json.find(&format!("\"{next}\"")).expect(next)
            };
            &json[from..to]
        };
        let names = |text: &str| -> Vec<(String, String)> {
            text.lines()
                .filter(|l| l.contains("\"name\""))
                .map(|l| {
                    let field = |k: &str| {
                        let at = l.find(&format!("\"{k}\": \"")).map(|i| i + k.len() + 5);
                        at.map_or(String::new(), |i| {
                            l[i..].split('"').next().unwrap_or("").to_string()
                        })
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let want = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names(section("end_to_end", "per_layer")), want(END_TO_END));
        assert_eq!(names(section("per_layer", "")), want(PER_LAYER));
        let workloads: Vec<String> =
            names(section("workloads", "end_to_end")).into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            s.len() <= 16 && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{unit}");
            assert!(seen.insert(name), "{name} is listed twice");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
