//! What the workloads share: the run context, the per-op sample, and the
//! recorder that turns samples into the end-to-end metrics.

use crate::stats::{class_balanced_median, median, percentile};
use std::path::PathBuf;

/// Per-run inputs every workload sees.
pub struct Ctx {
    pub seed: u64,
    /// 33³ fields and two rounds: a functional check, not a measurement.
    pub smoke: bool,
    /// The benchmark's output directory (`work/` and `traces/` live here).
    pub root: PathBuf,
}

/// How a round is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Ops as a caller runs them, tracing off.
    Plain,
    /// Ops recorded as spans (library workloads: decomposed into public
    /// stage calls; serve workloads: socket ops plus one in-process replay
    /// per class).
    Traced,
}

/// One attempted op.
pub struct OpSample {
    pub class: usize,
    /// Call to verified result.
    pub latency_ns: u64,
    /// Call to first usable output, for classes that define one.
    pub first_ns: Option<u64>,
    /// Process CPU spent inside the op (library workloads; serve rounds
    /// measure CPU per round instead).
    pub cpu_ns: u64,
    /// Bytes stored, fetched or sent by the op.
    pub bytes: u64,
    /// Raw `f64` bytes of the field the op is about.
    pub raw_bytes: u64,
    /// Digest of the op's plane or file counts; must repeat per class.
    pub fingerprint: u64,
    /// Why the op failed, if it did.
    pub error: Option<String>,
}

#[derive(Debug, Clone, Copy, Default)]
struct RoundTotals {
    ok_ops: u64,
    wall_ns: u64,
    cpu_ns: u64,
}

/// The latency of one good op.
struct Latency {
    class: usize,
    ms: f64,
    first_ms: Option<f64>,
}

pub struct Recorder {
    pub class_names: Vec<String>,
    latencies: Vec<Latency>,
    class_raw: Vec<u64>,
    rounds: Vec<RoundTotals>,
    cur: RoundTotals,
    pub attempted: u64,
    pub failed: u64,
    bytes: u64,
    raw_bytes: u64,
    /// `(bytes, fingerprint)` of each class's first good op.
    expect: Vec<Option<(u64, u64)>>,
    /// The first few failure messages, for the log.
    pub failures: Vec<String>,
}

const MAX_FAILURE_MESSAGES: usize = 8;

impl Recorder {
    pub fn new(class_names: Vec<String>) -> Self {
        let n = class_names.len();
        Recorder {
            class_names,
            latencies: Vec::new(),
            class_raw: vec![0; n],
            rounds: Vec::new(),
            cur: RoundTotals::default(),
            attempted: 0,
            failed: 0,
            bytes: 0,
            raw_bytes: 0,
            expect: vec![None; n],
            failures: Vec::new(),
        }
    }

    /// Count one failed op (also used by the untimed verification).
    pub fn fail(&mut self, class: usize, why: impl std::fmt::Display) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURE_MESSAGES {
            self.failures.push(format!("{}: {why}", self.class_names[class]));
        }
    }

    /// Record an attempted op. A failed op counts against attempts and is
    /// left out of latency, bytes and the round's op count; an op whose
    /// byte or plane counts differ from its class's first op has failed.
    pub fn record(&mut self, s: OpSample) {
        self.attempted += 1;
        if let Some(why) = &s.error {
            self.fail(s.class, why);
            return;
        }
        match self.expect[s.class] {
            None => self.expect[s.class] = Some((s.bytes, s.fingerprint)),
            Some(first) if first != (s.bytes, s.fingerprint) => {
                self.fail(
                    s.class,
                    format!(
                        "bytes/counts {:?} differ from the class's first op {first:?}",
                        (s.bytes, s.fingerprint)
                    ),
                );
                return;
            }
            Some(_) => {}
        }
        self.latencies.push(Latency {
            class: s.class,
            ms: s.latency_ns as f64 / 1e6,
            first_ms: s.first_ns.map(|ns| ns as f64 / 1e6),
        });
        self.class_raw[s.class] = s.raw_bytes;
        self.bytes += s.bytes;
        self.raw_bytes += s.raw_bytes;
        self.cur.ok_ops += 1;
        self.cur.wall_ns += s.latency_ns;
        self.cur.cpu_ns += s.cpu_ns;
    }

    /// Close a round. A single-driver round's wall and CPU time are the
    /// sums over its ops, so untimed checks between ops stay out; a round
    /// whose clients ran concurrently passes the `(wall_ns, cpu_ns)` it
    /// `measured` around the whole round.
    pub fn end_round(&mut self, measured: Option<(u64, u64)>) {
        if let Some((wall_ns, cpu_ns)) = measured {
            self.cur.wall_ns = wall_ns;
            self.cur.cpu_ns = cpu_ns;
        }
        self.rounds.push(std::mem::take(&mut self.cur));
    }

    pub fn rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Raw field bytes behind one op of each class.
    pub fn class_raw_bytes(&self) -> &[u64] {
        &self.class_raw
    }

    fn over_rounds(&self, f: impl Fn(&RoundTotals) -> f64) -> Option<f64> {
        let per_round: Vec<f64> =
            self.rounds.iter().filter(|r| r.ok_ops > 0 && r.wall_ns > 0).map(f).collect();
        median(&per_round)
    }

    /// Median over rounds of ops completed per second of round wall time.
    pub fn ops_per_s(&self) -> Option<f64> {
        self.over_rounds(|r| r.ok_ops as f64 / (r.wall_ns as f64 / 1e9))
    }

    /// Median over rounds of process CPU milliseconds per completed op.
    pub fn cpu_ms_per_op(&self) -> Option<f64> {
        self.over_rounds(|r| r.cpu_ns as f64 / 1e6 / r.ok_ops as f64)
    }

    fn by_class(&self, ms: impl Fn(&Latency) -> Option<f64>) -> Vec<Vec<f64>> {
        let mut classes = vec![Vec::new(); self.class_names.len()];
        for l in &self.latencies {
            if let Some(ms) = ms(l) {
                classes[l.class].push(ms);
            }
        }
        classes
    }

    pub fn op_ms_p50(&self) -> Option<f64> {
        class_balanced_median(&self.by_class(|l| Some(l.ms)))
    }

    pub fn first_ms_p50(&self) -> Option<f64> {
        class_balanced_median(&self.by_class(|l| l.first_ms))
    }

    /// A tail percentile over all ops of all classes.
    pub fn op_ms_percentile(&self, p: f64) -> Option<f64> {
        let all: Vec<f64> = self.latencies.iter().map(|l| l.ms).collect();
        percentile(&all, p)
    }

    /// One line per class for the log: samples, median latency, and the
    /// bytes every op of the class moved.
    pub fn class_lines(&self) -> Vec<String> {
        let by_class = self.by_class(|l| Some(l.ms));
        (0..self.class_names.len())
            .map(|c| {
                format!(
                    "{}: n={} op_ms_p50={:.3} bytes={} raw_bytes={}",
                    self.class_names[c],
                    by_class[c].len(),
                    median(&by_class[c]).unwrap_or(f64::NAN),
                    self.expect[c].map_or(0, |(bytes, _)| bytes),
                    self.class_raw[c],
                )
            })
            .collect()
    }

    /// Bytes stored, fetched or sent per raw field byte, over all good ops.
    pub fn bytes_per_field_byte(&self) -> Option<f64> {
        (self.raw_bytes > 0).then(|| self.bytes as f64 / self.raw_bytes as f64)
    }
}

/// splitmix64: the benchmark's own generator for seeds and shuffles, so
/// the op order does not depend on which `rand` the workspace links.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

/// The library's FNV-1a over a sequence of integers: the digest of an
/// op's counts.
pub fn digest(values: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = values.into_iter().flat_map(u64::to_le_bytes).collect();
    pmr_mgard::checksum::fnv1a64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(class: usize, ms: u64, bytes: u64) -> OpSample {
        OpSample {
            class,
            latency_ns: ms * 1_000_000,
            first_ns: Some(ms * 500_000),
            cpu_ns: ms * 2_000_000,
            bytes,
            raw_bytes: 1000,
            fingerprint: 1,
            error: None,
        }
    }

    #[test]
    fn rates_are_medians_over_rounds() {
        let mut r = Recorder::new(vec!["a".into(), "b".into()]);
        // Nine rounds of two 10 ms ops, then one round stalled 100x.
        for round in 0..10 {
            let ms = if round == 9 { 1000 } else { 10 };
            r.record(ok(0, ms, 400));
            r.record(ok(1, ms, 400));
            r.end_round(None);
        }
        assert_eq!(r.rounds(), 10);
        assert_eq!(r.ops_per_s(), Some(100.0));
        assert_eq!(r.cpu_ms_per_op(), Some(20.0));
        assert_eq!(r.op_ms_p50(), Some(10.0));
        assert_eq!(r.first_ms_p50(), Some(5.0));
        assert_eq!(r.bytes_per_field_byte(), Some(0.4));
        assert_eq!((r.attempted, r.failed), (20, 0));
    }

    #[test]
    fn failed_ops_count_against_attempts_and_stay_out_of_latency() {
        let mut r = Recorder::new(vec!["a".into()]);
        r.record(ok(0, 10, 400));
        r.record(OpSample { error: Some("Busy".into()), ..ok(0, 1, 0) });
        // Same class, different byte count than its first op: a failure.
        r.record(ok(0, 10, 401));
        r.end_round(None);
        assert_eq!((r.attempted, r.failed), (3, 2));
        assert_eq!(r.op_ms_p50(), Some(10.0));
        assert_eq!(r.ops_per_s(), Some(100.0));
        assert!(r.failures[0].contains("Busy") && r.failures[1].contains("differ"));
    }

    #[test]
    fn measured_rounds_use_the_round_clock() {
        let mut r = Recorder::new(vec!["a".into()]);
        r.record(ok(0, 10, 400));
        r.record(ok(0, 10, 400));
        // Two clients overlapped: 2 ops in 10 ms of wall, 30 ms of CPU.
        r.end_round(Some((10_000_000, 30_000_000)));
        assert_eq!(r.ops_per_s(), Some(200.0));
        assert_eq!(r.cpu_ms_per_op(), Some(15.0));
    }

    #[test]
    fn shuffles_repeat_per_seed_and_differ_across_seeds() {
        let order = |seed| {
            let mut xs: Vec<usize> = (0..18).collect();
            Rng::new(seed).shuffle(&mut xs);
            xs
        };
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
        let mut sorted = order(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..18).collect::<Vec<_>>());
    }
}
