//! Fault conformance: the reported-bound contract under one seeded fault
//! grid, through a flat store and through a sharded, replicated one.
//!
//! The fault-tolerant reader in `pmr-storage` promises one thing: whatever
//! a seeded schedule throws at it — transients, truncated reads,
//! bit flips, lost segments, a dead or flapping shard, a rotted replica —
//! the retrieval finishes without panicking and the reconstruction
//! satisfies the bound the reader *reports*. This module sweeps that
//! promise over the synthetic corpus × {flat `MemStore`, sharded N × R} ×
//! fault schedules × tolerances, and judges every cell with one oracle,
//! [`check_outcome`]. A schedule's faults come from one `FaultInjector`:
//! around the whole flat store, or around one victim shard.
//!
//! On top of the oracle, a cell checks what its schedule may cost: a
//! fault-free store, flat or sharded, neither retries nor degrades, and
//! neither R ≥ 2 nor a flapping shard may degrade. Bit-rot cells also run
//! scrub and repair. The first bound of every (field, store, schedule,
//! seed) group is re-run from a fresh store to pin seed-determinism.

use crate::fields::{catalogue, FieldClass};
use crate::sweep::{SWEEP_LEVELS, SWEEP_PLANES};
use pmr_core::{retrieve, Backend, Dataset, RetrievalRequest, Theory};
use pmr_field::{error::max_abs_error, Field};
use pmr_json::Json;
use pmr_mgard::{CompressConfig, Compressed};
use pmr_storage::{
    fetch_plan_tolerant, repair, scrub, DegradedRetrieval, FaultConfig, FaultEvent, FaultInjector,
    MemStore, MutableSegmentStore, RetryPolicy, SegmentKey, SegmentStore, ShardConfig,
    ShardedStore, TolerantConfig, TolerantRetrieval,
};

/// A named fault schedule of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSchedule {
    /// No faults: the tolerant path must match a healthy decode exactly.
    Clean,
    /// Retryable noise only (transients).
    Flaky,
    /// Corrupting reads (truncations, bit flips) that checksums must catch.
    Corrupting,
    /// Permanent segment loss: degradation is expected and must be honest.
    Lossy,
    /// Everything at once.
    Chaos,
    /// One shard is permanently lost (kill switch).
    DeadShard,
    /// One shard alternates between failing and serving.
    FlappingShard,
    /// One replica of several segments is silently corrupted in place.
    BitRot,
}

impl FaultSchedule {
    /// The schedules of the flat store.
    pub const FLAT: [FaultSchedule; 5] = [
        FaultSchedule::Clean,
        FaultSchedule::Flaky,
        FaultSchedule::Corrupting,
        FaultSchedule::Lossy,
        FaultSchedule::Chaos,
    ];

    /// The schedules of a sharded store, each against one victim shard
    /// (`Clean`: the fault-free control).
    pub const SHARDED: [FaultSchedule; 4] = [
        FaultSchedule::DeadShard,
        FaultSchedule::Clean,
        FaultSchedule::FlappingShard,
        FaultSchedule::BitRot,
    ];

    pub fn label(self) -> &'static str {
        match self {
            FaultSchedule::Clean => "clean",
            FaultSchedule::Flaky => "flaky",
            FaultSchedule::Corrupting => "corrupting",
            FaultSchedule::Lossy => "lossy",
            FaultSchedule::Chaos => "chaos",
            FaultSchedule::DeadShard => "dead-shard",
            FaultSchedule::FlappingShard => "flapping-shard",
            FaultSchedule::BitRot => "bit-rot",
        }
    }

    /// The injector of this schedule for one fault seed: around the flat
    /// store, or around the victim shard. A dead shard (the kill switch)
    /// and bit rot (rewritten replica bytes) inject no reads.
    pub fn config(self, seed: u64) -> FaultConfig {
        let quiet = FaultConfig::quiet(seed);
        match self {
            FaultSchedule::Clean | FaultSchedule::DeadShard | FaultSchedule::BitRot => quiet,
            // 1 − (1 − 0.25)(1 − 0.08): transients at 0.25 and time-outs at
            // 0.08, one retryable failure class.
            FaultSchedule::Flaky => FaultConfig { transient: 0.31, ..quiet },
            FaultSchedule::Corrupting => FaultConfig { truncate: 0.15, bit_flip: 0.2, ..quiet },
            FaultSchedule::Lossy => FaultConfig { permanent: 0.12, transient: 0.1, ..quiet },
            FaultSchedule::Chaos => FaultConfig {
                permanent: 0.08,
                // 1 − (1 − 0.2)(1 − 0.05), as for `Flaky`.
                transient: 0.24,
                truncate: 0.1,
                bit_flip: 0.1,
                ..quiet
            },
            FaultSchedule::FlappingShard => FaultConfig { flap_period: 2, ..quiet },
        }
    }
}

/// The store a cell reads through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StorePath {
    /// One `MemStore` behind the schedule's injector.
    Flat,
    /// A replicated `ShardedStore` whose victim shard carries the schedule.
    Sharded { shards: usize, replication: usize },
}

/// Grid dimensions of a fault-conformance run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultGridConfig {
    /// Master seed: corpus fields, fault seeds, victim shards and rot
    /// positions derive from it.
    pub seed: u64,
    /// Flat cells: fault seeds tried per (field, schedule).
    pub seeds_per_schedule: usize,
    /// Flat cells: relative error bounds requested.
    pub rel_bounds: Vec<f64>,
    /// Flat cells: synthetic fields taken from the corpus.
    pub max_fields: usize,
    /// Sharded cells: `(shards, replication)` topologies tried.
    pub topologies: Vec<(usize, usize)>,
    /// Sharded cells: hot-tier pinning depth of every topology.
    pub hot_planes: u32,
    /// Sharded cells: relative error bounds requested.
    pub shard_rel_bounds: Vec<f64>,
    /// Sharded cells: synthetic fields taken from the corpus.
    pub shard_fields: usize,
}

impl FaultGridConfig {
    /// The per-PR CI grid: small but covering every schedule, R ∈ {1, 2}.
    pub fn quick(seed: u64) -> Self {
        FaultGridConfig {
            seed,
            seeds_per_schedule: 2,
            rel_bounds: vec![1e-2, 1e-4],
            max_fields: 3,
            topologies: vec![(3, 1), (3, 2)],
            hot_planes: 1,
            shard_rel_bounds: vec![1e-3],
            shard_fields: 2,
        }
    }

    /// The exhaustive grid for scheduled runs.
    pub fn full(seed: u64) -> Self {
        FaultGridConfig {
            seed,
            seeds_per_schedule: 6,
            rel_bounds: vec![1e-1, 1e-2, 1e-3, 1e-4, 1e-5],
            max_fields: 9,
            topologies: vec![(2, 1), (2, 2), (4, 1), (4, 2), (8, 1), (8, 2)],
            hot_planes: 2,
            shard_rel_bounds: vec![1e-2, 1e-4],
            shard_fields: 6,
        }
    }
}

/// Aggregate result of a fault-grid run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultReport {
    /// `(field, store, schedule, fault seed, bound)` cells executed.
    pub cells: usize,
    /// Undegraded cells bit-identical to a healthy decode.
    pub bit_identical: usize,
    /// Cells that returned a degraded retrieval.
    pub degraded: usize,
    /// Degraded cells reproduced bit for bit by their achieved planes
    /// decoded from healthy payloads.
    pub honest_verified: usize,
    /// Flat cells that degraded yet still met the request (re-planning
    /// compensated fully).
    pub recovered: usize,
    /// Undegraded cells whose request lies below the artifact's precision
    /// floor (see [`check_outcome`]): every plane decoded, the floor
    /// reported.
    pub below_floor: usize,
    /// Flat cells: segments abandoned. The fetch accounting (this,
    /// `retries`, `corruptions_caught`, `recovered`) measures the reader's
    /// retry loop against a faulty store; a sharded cell's account is
    /// replication's (`rot_detected`, `repaired`, `unrepairable`).
    pub lost_segments: u64,
    /// Flat cells: retries performed.
    pub retries: u64,
    /// Flat cells: verified-corrupt reads caught by checksums.
    pub corruptions_caught: u64,
    /// Rotted replica copies detected by scrub.
    pub rot_detected: usize,
    /// Replica copies rewritten by repair.
    pub repaired: usize,
    /// Segments honestly reported unrepairable (R = 1 rot).
    pub unrepairable: usize,
    /// Every violated invariant; empty = pass.
    pub failures: Vec<String>,
}

impl FaultReport {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn summary(&self) -> String {
        format!(
            "fault grid: {} cells, {} bit-identical, {} degraded ({} honest-verified, \
             {} recovered), {} below the precision floor, {} lost segments, {} retries, \
             {} corruptions caught, {} rotted copies detected, {} repaired, {} unrepairable, \
             {} failures",
            self.cells,
            self.bit_identical,
            self.degraded,
            self.honest_verified,
            self.recovered,
            self.below_floor,
            self.lost_segments,
            self.retries,
            self.corruptions_caught,
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
            ("recovered", Json::Num(self.recovered as f64)),
            ("below_floor", Json::Num(self.below_floor as f64)),
            ("lost_segments", Json::Num(self.lost_segments as f64)),
            ("retries", Json::Num(self.retries as f64)),
            ("corruptions_caught", Json::Num(self.corruptions_caught as f64)),
            ("rot_detected", Json::Num(self.rot_detected as f64)),
            ("repaired", Json::Num(self.repaired as f64)),
            ("unrepairable", Json::Num(self.unrepairable as f64)),
            ("passed", Json::Bool(self.passed())),
            ("failures", Json::Arr(self.failures.iter().map(|f| Json::str(f.clone())).collect())),
        ])
    }
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

/// What [`check_outcome`] proved of a retrieval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Undegraded, and bit-identical to the healthy decode.
    BitIdentical,
    /// Degraded, and reproduced bit for bit by its achieved planes decoded
    /// from healthy payloads.
    HonestVerified,
}

/// The bound check of every oracle: `out` has `original`'s shape, and its
/// measured `L∞` error against `original` is within `reported`.
pub fn within_reported_bound(original: &Field, out: &Field, reported: f64) -> Result<(), String> {
    if out.shape() != original.shape() {
        return Err(format!("{} reconstructed as {}", original.shape(), out.shape()));
    }
    let measured = max_abs_error(original.data(), out.data());
    if measured > reported {
        return Err(format!("measured error {measured:e} exceeds the reported bound {reported:e}"));
    }
    Ok(())
}

/// The reported-bound oracle, for every path that retrieves under faults.
///
/// `out` is what a reader returned for `requested_bound` with its
/// degradation report `degraded`; `healthy` is the same plan decoded from
/// healthy payloads. `c`'s *precision floor* is the theory estimate with
/// every plane decoded: a request below it is one no reader can promise,
/// and the best one can do is decode every plane and report the floor.
/// In order:
/// 1. the error of `out` against `original` is within the bound the reader
///    reports: `achievable_bound` when degraded; when undegraded,
///    `requested_bound`, or the floor when the request lies below it;
/// 2. an undegraded `out` is bit-identical to `healthy`, and below the
///    floor also to the decode of every plane;
/// 3. a degraded `out` is reproduced bit for bit by decoding its achieved
///    planes from `c`'s own payloads through `Backend::Direct`.
pub fn check_outcome(
    original: &Field,
    c: &Compressed,
    requested_bound: f64,
    out: &Field,
    degraded: Option<&DegradedRetrieval>,
    healthy: &Field,
) -> Result<Verdict, String> {
    let full = c.plan_full();
    let reported =
        degraded.map_or(requested_bound.max(full.estimated_error), |d| d.achievable_bound);
    within_reported_bound(original, out, reported)?;
    let Some(deg) = degraded else {
        if out.data() != healthy.data() {
            return Err("undegraded output differs from the healthy decode".to_string());
        }
        if requested_bound < full.estimated_error && out.data() != c.retrieve(&full).data() {
            return Err(format!(
                "request below the precision floor {:e}, yet not every plane was decoded",
                full.estimated_error
            ));
        }
        return Ok(Verdict::BitIdentical);
    };
    let req = RetrievalRequest::plane_set(deg.achieved_planes.clone());
    let redecoded = retrieve(&Dataset::new(c), &Theory, &req, &Backend::Direct)
        .map_err(|e| format!("achieved planes {:?} rejected: {e}", deg.achieved_planes))?;
    if redecoded.field.data() == out.data() {
        Ok(Verdict::HonestVerified)
    } else {
        Err(format!(
            "achieved planes {:?} decode differently from healthy payloads",
            deg.achieved_planes
        ))
    }
}

fn grid_corpus(seed: u64, max_fields: usize) -> Vec<Field> {
    catalogue(seed)
        .into_iter()
        .filter(|(class, _)| class.is_finite() && *class != FieldClass::Constant)
        .map(|(_, f)| f)
        .take(max_fields)
        .collect()
}

fn compress(field: &Field) -> Compressed {
    let cfg =
        CompressConfig { levels: SWEEP_LEVELS, num_planes: SWEEP_PLANES, ..Default::default() };
    Compressed::compress(field, &cfg)
}

/// One group of cells: a field on one store under one schedule and fault
/// seed, retrieved at each bound of its store.
struct Cell<'a> {
    field: &'a Field,
    c: &'a Compressed,
    path: StorePath,
    schedule: FaultSchedule,
    fault_seed: u64,
    hot_planes: u32,
}

impl Cell<'_> {
    fn victim(&self) -> usize {
        match self.path {
            StorePath::Flat => 0,
            StorePath::Sharded { shards, .. } => (self.fault_seed as usize) % shards,
        }
    }

    fn name(&self) -> String {
        let path = match self.path {
            StorePath::Flat => "flat".to_string(),
            StorePath::Sharded { shards, replication } => {
                format!("shards {shards} R{replication} victim {}", self.victim())
            }
        };
        let (field, schedule) = (self.field.name(), self.schedule.label());
        format!("field {field} {path} {schedule} seed {:#x}", self.fault_seed)
    }

    /// May the schedule cost data on this store?
    fn may_degrade(&self) -> bool {
        match (self.path, self.schedule) {
            (_, FaultSchedule::Clean | FaultSchedule::FlappingShard) => false,
            (StorePath::Sharded { replication, .. }, _) => replication < 2,
            (StorePath::Flat, _) => true,
        }
    }

    /// The sharded store with the schedule's injector on the victim shard,
    /// and the keys whose replica was rotted (bit rot only).
    fn sharded(
        &self,
        shards: usize,
        replication: usize,
    ) -> Result<(ShardedStore, Vec<SegmentKey>), String> {
        let cfg = ShardConfig::try_new(shards, replication)
            .map_err(|e| format!("topology rejected: {e}"))?
            .with_hot_planes(self.hot_planes);
        let victim = self.victim();
        let mut children: Vec<Box<dyn MutableSegmentStore>> = Vec::with_capacity(shards);
        for s in 0..shards {
            if s == victim {
                let inj =
                    FaultInjector::new(MemStore::new(), self.schedule.config(self.fault_seed))
                        .map_err(|e| format!("bad schedule: {e}"))?;
                children.push(Box::new(inj));
            } else {
                children.push(Box::new(MemStore::new()));
            }
        }
        let hot: Option<Box<dyn MutableSegmentStore>> =
            (self.hot_planes > 0).then(|| Box::new(MemStore::new()) as _);
        let mut store = ShardedStore::try_new(children, hot, cfg)
            .map_err(|e| format!("topology rejected: {e}"))?;
        store.attach_manifest(self.c);
        store.populate(self.c).map_err(|e| format!("populate failed: {e}"))?;
        let rotted = match self.schedule {
            FaultSchedule::DeadShard => {
                store.kill_shard(victim);
                Vec::new()
            }
            FaultSchedule::BitRot => rot_replicas(self.c, &store, self.fault_seed)?,
            _ => Vec::new(),
        };
        Ok((store, rotted))
    }

    /// The retrieval from a fresh store, and the injector's fault log of a
    /// flat cell. Attempt counters start at zero, so the fault seed alone
    /// fixes what the store does.
    fn retrieve(
        &self,
        bound: f64,
        tolerant: &TolerantConfig,
    ) -> Result<(TolerantRetrieval, Vec<FaultEvent>), String> {
        let plan = self.c.plan_theory(bound);
        let fetch = |store: &dyn SegmentStore| {
            fetch_plan_tolerant(self.c, store, &plan, bound, tolerant)
                .map_err(|e| format!("hard failure: {e}"))
        };
        match self.path {
            StorePath::Flat => {
                let store = MemStore::from_compressed(self.c);
                let inj = FaultInjector::new(store, self.schedule.config(self.fault_seed))
                    .map_err(|e| format!("bad schedule: {e}"))?;
                let out = fetch(&inj)?;
                Ok((out, inj.log()))
            }
            StorePath::Sharded { shards, replication } => {
                Ok((fetch(&self.sharded(shards, replication)?.0)?, Vec::new()))
            }
        }
    }

    /// Every bound of the cell through the oracle and the schedule's own
    /// promise; the first bound again for determinism; scrub and repair for
    /// bit rot.
    fn run(&self, rel_bounds: &[f64], tolerant: &TolerantConfig, report: &mut FaultReport) {
        let name = self.name();
        for (bi, &rel) in rel_bounds.iter().enumerate() {
            let cell = format!("{name} rel {rel}");
            report.cells += 1;
            let bound = self.c.absolute_bound(rel);
            let (out, log) = match self.retrieve(bound, tolerant) {
                Ok(run) => run,
                Err(e) => {
                    report.failures.push(format!("{cell}: {e}"));
                    continue;
                }
            };
            if self.path == StorePath::Flat {
                report.lost_segments += out.stats.lost_segments;
                report.retries += out.stats.retries;
                report.corruptions_caught += out.stats.corruptions;
                report.recovered +=
                    usize::from(out.degraded.as_ref().is_some_and(|d| d.bound_recovered()));
            }
            let healthy = self.c.retrieve(&self.c.plan_theory(bound));
            let deg = out.degraded.as_ref();
            report.below_floor +=
                usize::from(deg.is_none() && bound < self.c.plan_full().estimated_error);
            match check_outcome(self.field, self.c, bound, &out.field, deg, &healthy) {
                Ok(Verdict::BitIdentical) => report.bit_identical += 1,
                Ok(Verdict::HonestVerified) => report.honest_verified += 1,
                Err(e) => report.failures.push(format!("{cell}: {e}")),
            }
            if let Some(deg) = deg {
                report.degraded += 1;
                if !self.may_degrade() {
                    report.failures.push(format!(
                        "{cell}: degraded (lost {:?}) where the fault must be invisible",
                        deg.lost_segments
                    ));
                }
            }
            if self.schedule == FaultSchedule::Clean && out.stats.retries > 0 {
                report.failures.push(format!("{cell}: retries on a fault-free store"));
            }
            if bi == 0 {
                match self.retrieve(bound, tolerant) {
                    Ok((again, log2))
                        if again.planes == out.planes
                            && again.degraded == out.degraded
                            && again.stats == out.stats
                            && log2 == log => {}
                    Ok(_) => report
                        .failures
                        .push(format!("{cell}: same seed produced a different outcome")),
                    Err(e) => report.failures.push(format!("{cell}: determinism re-run: {e}")),
                }
            }
        }
        if let (FaultSchedule::BitRot, StorePath::Sharded { shards, replication }) =
            (self.schedule, self.path)
        {
            let rot = self.sharded(shards, replication).and_then(|(store, rotted)| {
                check_rot_repair(report, self.c, &store, &rotted, replication)
            });
            if let Err(e) = rot {
                report.failures.push(format!("{name}: {e}"));
            }
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

/// Scrub must find the rot and repair must undo it: bit-identically at
/// R ≥ 2, and at R = 1 — where the rotted copies are the only ones above
/// the hot tier — by saying so rather than fabricating data.
fn check_rot_repair(
    report: &mut FaultReport,
    c: &Compressed,
    store: &ShardedStore,
    rotted: &[SegmentKey],
    replication: usize,
) -> Result<(), String> {
    let pre = scrub(store).map_err(|e| format!("scrub failed hard: {e}"))?;
    if pre.corrupt < rotted.len() {
        let n = rotted.len();
        return Err(format!("scrub found {} corrupt copies, expected at least {n}", pre.corrupt));
    }
    report.rot_detected += pre.corrupt;
    let rep = repair(store).map_err(|e| format!("repair failed hard: {e}"))?;
    report.repaired += rep.repaired;
    report.unrepairable += rep.unrepairable.len();
    if replication < 2 {
        return match rotted.iter().find(|key| !rep.unrepairable.contains(key)) {
            Some(key) => Err(format!("R=1 rot on {key:?} must be honestly unrepairable")),
            None => Ok(()),
        };
    }
    if !rep.unrepairable.is_empty() {
        return Err(format!("R={replication} rot left {:?} unrepaired", rep.unrepairable));
    }
    let post = scrub(store).map_err(|e| format!("post-repair scrub failed hard: {e}"))?;
    if !post.clean() {
        let (bad, gone) = (post.corrupt, post.missing);
        return Err(format!("post-repair scrub still dirty: {bad} corrupt, {gone} missing"));
    }
    for &key in rotted {
        let clean = c.levels()[key.0].plane_payload(key.1);
        for s in store.replicas(key) {
            let bytes = store.child(s).and_then(|ch| ch.fetch(key).ok()).map(|r| r.into_bytes());
            if bytes.as_deref() != Some(clean) {
                return Err(format!("replica {s} of {key:?} not restored bit-identically"));
            }
        }
    }
    Ok(())
}

/// The fault seed of sharded cell (field `fi`, `shards` × `replication`,
/// schedule `si` of [`FaultSchedule::SHARDED`]), which picks the victim
/// shard and the rotted positions: every schedule of a cell draws its own.
fn sharded_fault_seed(mixed: u64, fi: usize, shards: usize, replication: usize, si: usize) -> u64 {
    mixed
        .wrapping_add((fi as u64) << 32)
        .wrapping_add((shards as u64) << 16)
        .wrapping_add((replication as u64) << 8)
        .wrapping_add(si as u64)
}

/// Run the grid: the flat cells, then the sharded ones, every cell through
/// [`check_outcome`].
pub fn run_fault_grid(cfg: &FaultGridConfig) -> FaultReport {
    let mut report = FaultReport::default();
    let tolerant = TolerantConfig { policy: RetryPolicy { max_attempts: 6 } };
    let fields = grid_corpus(cfg.seed, cfg.max_fields.max(cfg.shard_fields));
    for (fi, field) in fields.iter().enumerate() {
        let c = compress(field);
        let cell = |path, schedule, fault_seed| Cell {
            field,
            c: &c,
            path,
            schedule,
            fault_seed,
            hot_planes: cfg.hot_planes,
        };
        let mixed = cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        if fi < cfg.max_fields {
            for schedule in FaultSchedule::FLAT {
                for si in 0..cfg.seeds_per_schedule {
                    let fault_seed = mixed.wrapping_add((fi as u64) << 24).wrapping_add(si as u64);
                    cell(StorePath::Flat, schedule, fault_seed).run(
                        &cfg.rel_bounds,
                        &tolerant,
                        &mut report,
                    );
                }
            }
        }
        if fi < cfg.shard_fields {
            for &(shards, replication) in &cfg.topologies {
                for (si, schedule) in FaultSchedule::SHARDED.into_iter().enumerate() {
                    let fault_seed = sharded_fault_seed(mixed, fi, shards, replication, si);
                    let path = StorePath::Sharded { shards, replication };
                    cell(path, schedule, fault_seed).run(
                        &cfg.shard_rel_bounds,
                        &tolerant,
                        &mut report,
                    );
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `out` with the value farthest from `original` moved halfway back:
    /// still within every bound `out` met, but not what any plane set
    /// decodes to.
    fn nudged(original: &Field, out: &Field) -> Field {
        let mut nudged = out.clone();
        let far = (0..out.len())
            .max_by(|&a, &b| {
                let err = |i: usize| (original.data()[i] - out.data()[i]).abs();
                err(a).total_cmp(&err(b))
            })
            .expect("a non-empty field");
        let data = nudged.data_mut();
        data[far] += (original.data()[far] - data[far]) * 0.5;
        nudged
    }

    #[test]
    fn every_sharded_schedule_of_a_cell_draws_its_own_seed() {
        for cfg in [FaultGridConfig::quick(0xFA_017), FaultGridConfig::full(3)] {
            let mixed = cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for fi in 0..cfg.shard_fields {
                for &(shards, replication) in &cfg.topologies {
                    let seeds: std::collections::BTreeSet<u64> = (0..FaultSchedule::SHARDED.len())
                        .map(|si| sharded_fault_seed(mixed, fi, shards, replication, si))
                        .collect();
                    assert_eq!(seeds.len(), FaultSchedule::SHARDED.len(), "{shards}x{replication}");
                }
            }
        }
    }

    #[test]
    fn a_request_below_the_precision_floor_is_held_to_the_floor() {
        let field = &grid_corpus(0xFA_017, 1)[0];
        let c = compress(field);
        let full = c.plan_full();
        let below = full.estimated_error / 8.0;
        assert_eq!(c.plan_theory(below).planes, full.planes, "no plan meets the request");
        let out = c.retrieve(&full);
        assert!(max_abs_error(field.data(), out.data()) > below, "the full decode misses it");
        assert_eq!(check_outcome(field, &c, below, &out, None, &out), Ok(Verdict::BitIdentical));

        // One plane short of everything: within the floor, but not the best
        // decode the artifact holds.
        let mut planes = full.planes.clone();
        *planes.last_mut().expect("levels") -= 1;
        let short = c.retrieve(&c.plan_from_planes(planes).expect("a valid plan"));
        assert!(max_abs_error(field.data(), short.data()) <= full.estimated_error);
        assert!(check_outcome(field, &c, below, &short, None, &short).is_err());
    }

    #[test]
    fn quick_grid_passes() {
        let report = run_fault_grid(&FaultGridConfig::quick(0xFA_017));
        assert!(report.passed(), "failures: {:#?}", report.failures);
        assert!(report.cells > 0);
        assert_eq!(
            report.bit_identical + report.honest_verified,
            report.cells,
            "the oracle proves every cell"
        );
        // The grid genuinely exercises every contract.
        assert!(report.retries > 0, "flaky schedules must force retries");
        assert!(report.corruptions_caught > 0, "corrupting schedules must be caught");
        assert!(report.lost_segments > 0);
        assert!(report.degraded > 0, "lossy schedules and R=1 dead shards must degrade");
        assert!(report.rot_detected > 0, "scrub must catch injected rot");
        assert!(report.repaired > 0, "R=2 rot must be repaired");
        assert!(report.unrepairable > 0, "R=1 rot must be honestly unrepairable");

        // The oracle refuses an output it did not decode, degraded or not.
        let field = &grid_corpus(0xFA_017, 1)[0];
        let c = compress(field);
        let bound = c.absolute_bound(1e-3);
        let healthy = c.retrieve(&c.plan_theory(bound));
        assert_eq!(
            check_outcome(field, &c, bound, &healthy, None, &healthy),
            Ok(Verdict::BitIdentical)
        );
        let off = nudged(field, &healthy);
        assert!(check_outcome(field, &c, bound, &off, None, &healthy).is_err());
        let lossy = FaultConfig { permanent: 0.3, ..FaultConfig::quiet(5) };
        let store = FaultInjector::new(MemStore::from_compressed(&c), lossy).unwrap();
        let tolerant = TolerantConfig::default();
        let out = fetch_plan_tolerant(&c, &store, &c.plan_theory(bound), bound, &tolerant).unwrap();
        let deg = out.degraded.as_ref().expect("p=0.3 loses planes the plan needs");
        assert_eq!(
            check_outcome(field, &c, bound, &out.field, Some(deg), &healthy),
            Ok(Verdict::HonestVerified)
        );
        let off = nudged(field, &out.field);
        assert!(check_outcome(field, &c, bound, &off, Some(deg), &healthy).is_err());

        let json = pmr_json::parse(&fault_report_json(&report, "quick", 7)).expect("JSON");
        assert_eq!(json.get("grid").and_then(Json::as_str), Some("quick"));
        let inner = json.get("report").expect("report key");
        assert_eq!(
            inner.get("honest_verified").and_then(Json::as_usize),
            Some(report.honest_verified)
        );
        assert!(inner.get("failures").and_then(Json::as_arr).is_some());

        // A sharded store without a hot tier goes through the same oracle.
        let cold = run_fault_grid(&FaultGridConfig {
            max_fields: 0,
            topologies: vec![(2, 2)],
            hot_planes: 0,
            shard_fields: 1,
            ..FaultGridConfig::quick(0xFA_017)
        });
        assert!(cold.passed(), "failures: {:#?}", cold.failures);
        assert_eq!(cold.cells, FaultSchedule::SHARDED.len());
        assert_eq!(cold.bit_identical + cold.honest_verified, cold.cells);
        assert!(cold.repaired > 0, "R=2 rot without a hot tier must be repaired");
    }
}
