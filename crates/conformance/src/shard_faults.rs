//! Shard-level chaos conformance: the replicated-store contract under
//! whole-shard fault domains.
//!
//! Where [`crate::faults`] injects per-read faults into a single flat
//! store, this grid attacks entire *shards* of a [`ShardedStore`]: a shard
//! dies outright, crawls, flaps, or silently rots one replica. The
//! promises under test are sharper than the flat-store ones:
//!
//! * **R ≥ 2 + any single dead shard** → the retrieval is bit-identical
//!   to a healthy run and reports no degradation at all. Replication must
//!   make the loss invisible, not merely survivable.
//! * **R = 1 + a dead shard** → the tolerant path returns an honest
//!   [`DegradedRetrieval`](pmr_storage::DegradedRetrieval): the measured
//!   error satisfies `achievable_bound`, and re-executing the achieved
//!   plane counts against healthy payloads reproduces the degraded
//!   reconstruction bit-for-bit.
//! * **Slow / flapping shards** never change bytes, only time: every such
//!   cell must stay bit-identical and undegraded at any R.
//! * **Bit rot on one replica** is caught by read-time checksums (R ≥ 2
//!   serves the good copy), detected by [`scrub`], and fixed by
//!   [`repair`] — bit-identically, with a clean re-scrub afterwards. At
//!   R = 1 rot above the hot tier is honestly `unrepairable`.
//!
//! Every cell derives from the grid seed; one cell per (field, topology,
//! kind) is re-run from scratch to pin determinism.

use crate::fields::{catalogue, FieldClass};
use crate::json::Json;
use crate::sweep::{SWEEP_LEVELS, SWEEP_PLANES};
use pmr_core::{retrieve, Backend, Dataset, RetrievalRequest, Theory};
use pmr_field::{error::max_abs_error, Field};
use pmr_mgard::{CompressConfig, Compressed};
use pmr_storage::{
    fetch_plan_tolerant, repair, scrub, MemStore, MutableSegmentStore, RetryPolicy, SegmentKey,
    ShardConfig, ShardFault, ShardFaultMode, ShardedStore, TolerantConfig, TolerantRetrieval,
};

/// A shard-scoped fault domain of the chaos grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFaultKind {
    /// One shard is permanently lost (kill switch).
    DeadShard,
    /// One shard serves correctly but slowly.
    SlowShard,
    /// One shard alternates between failing and serving.
    FlappingShard,
    /// One replica of several segments is silently corrupted in place.
    BitRot,
}

impl ShardFaultKind {
    pub fn all() -> [ShardFaultKind; 4] {
        [
            ShardFaultKind::DeadShard,
            ShardFaultKind::SlowShard,
            ShardFaultKind::FlappingShard,
            ShardFaultKind::BitRot,
        ]
    }

    pub fn label(self) -> &'static str {
        match self {
            ShardFaultKind::DeadShard => "dead-shard",
            ShardFaultKind::SlowShard => "slow-shard",
            ShardFaultKind::FlappingShard => "flapping-shard",
            ShardFaultKind::BitRot => "bit-rot",
        }
    }
}

/// Grid dimensions of a shard-chaos run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardGridConfig {
    /// Master seed: corpus fields, victim shards and rot positions derive
    /// from it.
    pub seed: u64,
    /// Shard counts tried.
    pub shard_counts: Vec<usize>,
    /// Replication factors tried (cells with R > N are skipped).
    pub replications: Vec<usize>,
    /// Relative error bounds requested per cell.
    pub rel_bounds: Vec<f64>,
    /// Synthetic fields taken from the corpus.
    pub max_fields: usize,
    /// Hot-tier pinning depth used for every topology.
    pub hot_planes: u32,
}

impl ShardGridConfig {
    /// The per-PR CI grid: every fault kind at R ∈ {1, 2}.
    pub fn quick(seed: u64) -> Self {
        ShardGridConfig {
            seed,
            shard_counts: vec![3],
            replications: vec![1, 2],
            rel_bounds: vec![1e-3],
            max_fields: 2,
            hot_planes: 1,
        }
    }

    /// The exhaustive weekly grid: all kinds × shard counts × R ∈ {1, 2}.
    pub fn full(seed: u64) -> Self {
        ShardGridConfig {
            seed,
            shard_counts: vec![2, 4, 8],
            replications: vec![1, 2],
            rel_bounds: vec![1e-2, 1e-4],
            max_fields: 6,
            hot_planes: 2,
        }
    }
}

/// Aggregate result of a shard-chaos run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardFaultReport {
    /// `(field, shards, R, kind, bound)` cells executed.
    pub cells: usize,
    /// Cells whose reconstruction matched the healthy golden bit-for-bit.
    pub bit_identical: usize,
    /// Cells that returned a degraded retrieval (only legal at R = 1).
    pub degraded: usize,
    /// Degraded cells whose honest bound was re-verified by decoding the
    /// achieved plane counts from healthy payloads.
    pub honest_verified: usize,
    /// Rotted replica copies detected by scrub across the grid.
    pub rot_detected: usize,
    /// Replica copies rewritten by repair across the grid.
    pub repaired: usize,
    /// Segments honestly reported unrepairable (R = 1 rot).
    pub unrepairable: usize,
    /// Every violated invariant; empty = pass.
    pub failures: Vec<String>,
}

impl ShardFaultReport {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn summary(&self) -> String {
        format!(
            "shard chaos grid: {} cells, {} bit-identical, {} degraded \
             ({} honest-verified), {} rotted copies detected, {} repaired, \
             {} unrepairable, {} failures",
            self.cells,
            self.bit_identical,
            self.degraded,
            self.honest_verified,
            self.rot_detected,
            self.repaired,
            self.unrepairable,
            self.failures.len()
        )
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cells", Json::Num(self.cells as f64)),
            ("bit_identical", Json::Num(self.bit_identical as f64)),
            ("degraded", Json::Num(self.degraded as f64)),
            ("honest_verified", Json::Num(self.honest_verified as f64)),
            ("rot_detected", Json::Num(self.rot_detected as f64)),
            ("repaired", Json::Num(self.repaired as f64)),
            ("unrepairable", Json::Num(self.unrepairable as f64)),
            ("passed", Json::Bool(self.passed())),
            ("failures", Json::Arr(self.failures.iter().map(|f| Json::str(f.clone())).collect())),
        ])
    }
}

/// Machine-readable report for `pmrtool faultsim --shards` and CI.
pub fn shard_report_json(report: &ShardFaultReport, grid_name: &str, seed: u64) -> String {
    Json::obj(vec![
        ("grid", Json::str(grid_name)),
        ("seed", Json::Num(seed as f64)),
        ("report", report.to_json()),
    ])
    .to_pretty()
}

fn grid_corpus(cfg: &ShardGridConfig) -> Vec<Field> {
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

fn tolerant_cfg() -> TolerantConfig {
    TolerantConfig {
        policy: RetryPolicy { max_attempts: 6, ..RetryPolicy::default() },
        ..TolerantConfig::default()
    }
}

/// Build the store for one cell, applying the cell's fault domain. Returns
/// the store plus the segment keys whose replica copies were rotted (empty
/// for non-rot kinds).
fn build_cell_store(
    c: &Compressed,
    shard_cfg: ShardConfig,
    kind: ShardFaultKind,
    victim: usize,
    rot_salt: u64,
) -> Result<(ShardedStore, Vec<SegmentKey>), String> {
    let wrapped = |mode: ShardFaultMode| -> Result<ShardedStore, String> {
        let mut children: Vec<Box<dyn MutableSegmentStore>> = Vec::new();
        for s in 0..shard_cfg.shards {
            if s == victim {
                let faulty = ShardFault::new(MemStore::new(), mode)
                    .map_err(|e| format!("bad fault mode: {e}"))?;
                children.push(Box::new(faulty));
            } else {
                children.push(Box::new(MemStore::new()));
            }
        }
        let hot: Option<Box<dyn MutableSegmentStore>> =
            (shard_cfg.hot_planes > 0).then(|| Box::new(MemStore::new()) as _);
        let mut store = ShardedStore::try_new(children, hot, shard_cfg.clone())
            .map_err(|e| format!("topology rejected: {e}"))?;
        store.attach_manifest(c);
        store.populate(c).map_err(|e| format!("populate failed: {e}"))?;
        Ok(store)
    };
    match kind {
        ShardFaultKind::DeadShard => {
            let store =
                ShardedStore::mem(c, shard_cfg).map_err(|e| format!("mem store failed: {e}"))?;
            store.kill_shard(victim);
            Ok((store, Vec::new()))
        }
        ShardFaultKind::SlowShard => {
            Ok((wrapped(ShardFaultMode::Slow { extra_latency_s: 0.005 })?, Vec::new()))
        }
        ShardFaultKind::FlappingShard => {
            Ok((wrapped(ShardFaultMode::Flapping { period: 2 })?, Vec::new()))
        }
        ShardFaultKind::BitRot => {
            let store =
                ShardedStore::mem(c, shard_cfg).map_err(|e| format!("mem store failed: {e}"))?;
            let rotted = rot_replicas(c, &store, rot_salt)?;
            Ok((store, rotted))
        }
    }
}

/// Corrupt the primary replica of up to three cold-tier segments, flipping
/// one seed-derived bit in each. Returns the rotted keys.
fn rot_replicas(
    c: &Compressed,
    store: &ShardedStore,
    salt: u64,
) -> Result<Vec<SegmentKey>, String> {
    let hot_planes = store.config().hot_planes;
    let candidates: Vec<SegmentKey> = c
        .levels()
        .iter()
        .enumerate()
        .flat_map(|(l, lvl)| (0..lvl.num_planes()).map(move |k| (l, k)))
        .filter(|&(l, k)| k >= hot_planes && !c.levels()[l].plane_payload(k).is_empty())
        .collect();
    if candidates.is_empty() {
        return Err("no cold-tier payload to rot".to_string());
    }
    let mut rotted = Vec::new();
    for i in 0..3usize.min(candidates.len()) {
        let idx = (salt as usize).wrapping_add(i * 7919) % candidates.len();
        let Some(&key) = candidates.get(idx) else { continue };
        if rotted.contains(&key) {
            continue;
        }
        let clean = c.levels()[key.0].plane_payload(key.1);
        let mut bad = clean.to_vec();
        let pos = (salt as usize).wrapping_add(i) % bad.len();
        bad[pos] ^= 1 << (salt.wrapping_add(i as u64) % 8);
        let Some(&primary) = store.replicas(key).first() else {
            return Err(format!("segment {key:?} has no replicas"));
        };
        let child = store.child(primary).ok_or_else(|| format!("no child {primary}"))?;
        child.put(key, &bad).map_err(|e| format!("rot write failed: {e}"))?;
        rotted.push(key);
    }
    Ok(rotted)
}

struct CellOutcome {
    planes: Vec<u32>,
    degraded: bool,
}

#[allow(clippy::too_many_arguments)]
fn check_cell(
    report: &mut ShardFaultReport,
    cell: &str,
    field: &Field,
    c: &Compressed,
    out: &TolerantRetrieval,
    golden: &TolerantRetrieval,
    kind: ShardFaultKind,
    replication: usize,
) {
    let must_be_clean = replication >= 2
        || matches!(kind, ShardFaultKind::SlowShard | ShardFaultKind::FlappingShard);
    match &out.degraded {
        None => {
            if out.field.data() == golden.field.data() {
                report.bit_identical += 1;
            } else {
                report
                    .failures
                    .push(format!("{cell}: undegraded output differs from the healthy golden"));
            }
        }
        Some(deg) => {
            report.degraded += 1;
            if must_be_clean {
                report.failures.push(format!(
                    "{cell}: degraded (lost {:?}) where the fault must be invisible",
                    deg.lost_segments
                ));
                return;
            }
            let measured = max_abs_error(field.data(), out.field.data());
            if measured > deg.achievable_bound {
                report.failures.push(format!(
                    "{cell}: degraded retrieval violated its reported bound: \
                     {measured:e} > {:e}",
                    deg.achievable_bound
                ));
                return;
            }
            // The honest bound must survive independent re-execution: the
            // achieved plane counts, decoded from *healthy* payloads via a
            // measured retrieval, must reproduce the degraded
            // reconstruction bit-for-bit and stay within the reported
            // achievable bound.
            let ds = Dataset::new(c).with_original(field);
            let req = RetrievalRequest::plane_set(deg.achieved_planes.clone()).measured();
            match retrieve(&ds, &Theory, &req, &Backend::Direct) {
                Ok(m) => {
                    let achieved = m.achieved_error.unwrap_or(f64::INFINITY);
                    if m.field.data() != out.field.data() {
                        report.failures.push(format!(
                            "{cell}: achieved planes decode differently on healthy payloads"
                        ));
                    } else if achieved > deg.achievable_bound {
                        report.failures.push(format!(
                            "{cell}: measured retrieval contradicts the honest bound: \
                             {achieved:e} > {:e}",
                            deg.achievable_bound
                        ));
                    } else {
                        report.honest_verified += 1;
                    }
                }
                Err(e) => report
                    .failures
                    .push(format!("{cell}: achieved planes rejected by measured retrieval: {e}")),
            }
        }
    }
}

fn check_rot_repair(
    report: &mut ShardFaultReport,
    cell: &str,
    c: &Compressed,
    store: &ShardedStore,
    rotted: &[SegmentKey],
    replication: usize,
) {
    let pre = match scrub(store) {
        Ok(r) => r,
        Err(e) => {
            report.failures.push(format!("{cell}: scrub failed hard: {e}"));
            return;
        }
    };
    if pre.corrupt < rotted.len() {
        report.failures.push(format!(
            "{cell}: scrub found {} corrupt copies, expected at least {}",
            pre.corrupt,
            rotted.len()
        ));
        return;
    }
    report.rot_detected += pre.corrupt;
    let rep = match repair(store) {
        Ok(r) => r,
        Err(e) => {
            report.failures.push(format!("{cell}: repair failed hard: {e}"));
            return;
        }
    };
    report.repaired += rep.repaired;
    report.unrepairable += rep.unrepairable.len();
    if replication >= 2 {
        if !rep.unrepairable.is_empty() {
            report.failures.push(format!(
                "{cell}: R={replication} rot must be repairable, but {:?} were not",
                rep.unrepairable
            ));
            return;
        }
        match scrub(store) {
            Ok(post) if post.clean() => {}
            Ok(post) => {
                report.failures.push(format!(
                    "{cell}: post-repair scrub still dirty: {} corrupt, {} missing",
                    post.corrupt, post.missing
                ));
                return;
            }
            Err(e) => {
                report.failures.push(format!("{cell}: post-repair scrub failed hard: {e}"));
                return;
            }
        }
        // The rewritten replica must be bit-identical to the manifest.
        for &key in rotted {
            let clean = c.levels()[key.0].plane_payload(key.1);
            for s in store.replicas(key) {
                let bytes =
                    store.child(s).and_then(|ch| ch.fetch(key).ok()).map(|r| r.into_bytes());
                if bytes.as_deref() != Some(clean) {
                    report.failures.push(format!(
                        "{cell}: replica {s} of {key:?} not restored bit-identically"
                    ));
                }
            }
        }
    } else {
        // R = 1: the rotted copies are the only copies above the hot tier;
        // repair must say so rather than fabricate data.
        for &key in rotted {
            if !rep.unrepairable.contains(&key) {
                report
                    .failures
                    .push(format!("{cell}: R=1 rot on {key:?} must be honestly unrepairable"));
            }
        }
    }
}

/// Run the chaos grid. Every cell retrieves through the faulted sharded
/// store, compares against a healthy golden run, and checks the contract
/// of its fault kind; bit-rot cells additionally exercise scrub + repair.
pub fn run_shard_grid(cfg: &ShardGridConfig) -> ShardFaultReport {
    let mut report = ShardFaultReport::default();
    let tolerant = tolerant_cfg();
    for (fi, field) in grid_corpus(cfg).iter().enumerate() {
        let c = compress(field);
        for &shards in &cfg.shard_counts {
            for &replication in &cfg.replications {
                if replication > shards {
                    continue;
                }
                let shard_cfg = match ShardConfig::try_new(shards, replication) {
                    Ok(sc) => sc.with_hot_planes(cfg.hot_planes),
                    Err(e) => {
                        report.failures.push(format!("topology {shards}/{replication}: {e}"));
                        continue;
                    }
                };
                for kind in ShardFaultKind::all() {
                    let salt = cfg
                        .seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add((fi as u64) << 32)
                        .wrapping_add((shards as u64) << 16)
                        .wrapping_add((replication as u64) << 8)
                        .wrapping_add(kind.label().len() as u64);
                    let victim = (salt as usize) % shards;
                    let cell_base = format!(
                        "field {} shards {shards} R{replication} {} victim {victim}",
                        field.name(),
                        kind.label()
                    );
                    let built = build_cell_store(&c, shard_cfg.clone(), kind, victim, salt);
                    let (store, rotted) = match built {
                        Ok(pair) => pair,
                        Err(e) => {
                            report.failures.push(format!("{cell_base}: {e}"));
                            continue;
                        }
                    };
                    let mut first_outcome: Option<CellOutcome> = None;
                    for (bi, &rel) in cfg.rel_bounds.iter().enumerate() {
                        let bound = c.absolute_bound(rel);
                        let plan = c.plan_theory(bound);
                        let cell = format!("{cell_base} rel {rel}");
                        report.cells += 1;
                        let golden = match fetch_plan_tolerant(
                            &c,
                            &MemStore::from_compressed(&c),
                            &plan,
                            bound,
                            &tolerant,
                            None,
                            None,
                        ) {
                            Ok(g) => g,
                            Err(e) => {
                                report.failures.push(format!("{cell}: golden run failed: {e}"));
                                continue;
                            }
                        };
                        let out = match fetch_plan_tolerant(
                            &c, &store, &plan, bound, &tolerant, None, None,
                        ) {
                            Ok(out) => out,
                            Err(e) => {
                                report.failures.push(format!("{cell}: hard failure: {e}"));
                                continue;
                            }
                        };
                        check_cell(&mut report, &cell, field, &c, &out, &golden, kind, replication);
                        if bi == 0 {
                            first_outcome = Some(CellOutcome {
                                planes: out.planes.clone(),
                                degraded: out.degraded.is_some(),
                            });
                        }
                    }
                    if kind == ShardFaultKind::BitRot {
                        check_rot_repair(&mut report, &cell_base, &c, &store, &rotted, replication);
                    }
                    // Determinism: rebuild the cell from scratch and require
                    // the identical first-bound outcome.
                    if let (Some(first), Some(&rel)) = (first_outcome, cfg.rel_bounds.first()) {
                        let bound = c.absolute_bound(rel);
                        let plan = c.plan_theory(bound);
                        let rerun = build_cell_store(&c, shard_cfg.clone(), kind, victim, salt)
                            .map_err(|e| format!("{cell_base}: determinism rebuild failed: {e}"))
                            .and_then(|(store2, _)| {
                                fetch_plan_tolerant(
                                    &c, &store2, &plan, bound, &tolerant, None, None,
                                )
                                .map_err(|e| format!("{cell_base}: determinism re-run failed: {e}"))
                            });
                        match rerun {
                            Ok(out2) => {
                                if out2.planes != first.planes
                                    || out2.degraded.is_some() != first.degraded
                                {
                                    report.failures.push(format!(
                                        "{cell_base}: same seed produced a different outcome"
                                    ));
                                }
                            }
                            Err(e) => report.failures.push(e),
                        }
                    }
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_shard_grid_passes() {
        let report = run_shard_grid(&ShardGridConfig::quick(0x5AD_017));
        assert!(report.passed(), "failures: {:#?}", report.failures);
        assert!(report.cells > 0);
        // The grid genuinely exercises every contract.
        assert!(report.bit_identical > 0, "R=2 and slow/flapping cells must stay clean");
        assert!(report.degraded > 0, "R=1 dead-shard cells must degrade");
        assert_eq!(
            report.degraded, report.honest_verified,
            "every degraded cell must survive honest-bound re-verification"
        );
        assert!(report.rot_detected > 0, "scrub must catch injected rot");
        assert!(report.repaired > 0, "R=2 rot must be repaired");
        assert!(report.unrepairable > 0, "R=1 rot must be honestly unrepairable");
    }

    #[test]
    fn shard_report_json_shape() {
        let report = run_shard_grid(&ShardGridConfig {
            seed: 11,
            shard_counts: vec![2],
            replications: vec![2],
            rel_bounds: vec![1e-2],
            max_fields: 1,
            hot_planes: 0,
        });
        assert!(report.passed(), "failures: {:#?}", report.failures);
        let json = shard_report_json(&report, "quick", 11);
        let parsed = crate::json::parse(&json).expect("valid JSON");
        assert_eq!(parsed.get("grid").and_then(Json::as_str), Some("quick"));
        let inner = parsed.get("report").expect("report key");
        assert!(inner.get("cells").and_then(Json::as_f64).unwrap_or(0.0) > 0.0);
        assert!(inner.get("failures").and_then(Json::as_arr).is_some());
    }
}
