//! Parametric HPC storage-hierarchy model.
//!
//! The paper's framework places coefficient levels across the storage
//! hierarchy — the frequently accessed coarse levels on fast tiers (NVMe),
//! the rarely touched fine levels on slow ones (HDD, tape) — and reports
//! "I/O cost" as the data read through that hierarchy. This crate models
//! tiers with latency + bandwidth, maps levels to tiers, and accounts for
//! the retrieval time of a [`RetrievalPlan`].
//!
//! Beyond the analytical model, the crate provides the *fault-tolerant
//! segment I/O* subsystem: [`segment`] (the `(level, plane)`-keyed
//! [`SegmentStore`] trait with in-memory and file-backed backends),
//! [`fault`] (a deterministic seed-driven [`FaultInjector`]), [`fetch`]
//! (retry/backoff under a virtual clock with checksum verification),
//! [`tolerant`] (graceful degradation with honest re-estimated bounds),
//! [`shard`] (consistent-hash sharding with replication and hot/cold
//! tiering), and [`scrub`] (manifest-driven verification and repair).

use pmr_error::PmrError;
use pmr_mgard::{Compressed, RetrievalPlan};

pub mod fault;
pub mod fetch;
pub mod scrub;
pub mod segment;
pub mod shard;
pub mod tolerant;

pub use fault::{FaultConfig, FaultEvent, FaultInjector, FaultKind};
pub use fetch::{ExpectedSegment, FetchExecutor, FetchStats, RetryPolicy};
pub use scrub::{repair, scrub, RepairReport, ScrubReport};
pub use segment::{
    FetchError, FileStore, MemStore, MutableSegmentStore, SegmentKey, SegmentRead, SegmentStore,
    QUARANTINE_SUFFIX,
};
pub use shard::{ShardConfig, ShardState, ShardStatus, ShardedStore, SHARD_DEAD_AFTER};
pub use tolerant::{
    fetch_plan_tolerant, fetch_planes_tolerant, DegradedRetrieval, FetchedPlanes, Stopped,
    TolerantConfig, TolerantRetrieval,
};

/// One storage tier.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageTier {
    pub name: String,
    /// Per-access latency in seconds.
    pub latency_s: f64,
    /// Sustained read bandwidth in bytes per second.
    pub bandwidth_bps: f64,
}

impl StorageTier {
    /// A validated tier: parameters deserialized from untrusted
    /// configuration come back as [`PmrError::InvalidConfig`], not a panic.
    pub fn try_new(
        name: impl Into<String>,
        latency_s: f64,
        bandwidth_bps: f64,
    ) -> Result<Self, PmrError> {
        let name = name.into();
        if !latency_s.is_finite() || latency_s < 0.0 {
            return Err(PmrError::invalid_config(format!(
                "tier {name:?}: latency must be finite and >= 0, got {latency_s}"
            )));
        }
        if !bandwidth_bps.is_finite() || bandwidth_bps <= 0.0 {
            return Err(PmrError::invalid_config(format!(
                "tier {name:?}: bandwidth must be finite and > 0, got {bandwidth_bps}"
            )));
        }
        Ok(StorageTier { name, latency_s, bandwidth_bps })
    }
}

/// An ordered set of tiers, fastest first.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageHierarchy {
    tiers: Vec<StorageTier>,
}

impl StorageHierarchy {
    /// A hierarchy of at least one tier.
    pub fn try_new(tiers: Vec<StorageTier>) -> Result<Self, PmrError> {
        if tiers.is_empty() {
            return Err(PmrError::invalid_config("hierarchy needs at least one tier"));
        }
        Ok(StorageHierarchy { tiers })
    }

    /// A Summit-inspired four-tier hierarchy: node-local NVMe burst buffer,
    /// parallel file system, capacity HDD, and archival tape.
    pub fn summit_like() -> Self {
        let tier = |name: &str, latency_s, bandwidth_bps| StorageTier {
            name: name.to_string(),
            latency_s,
            bandwidth_bps,
        };
        StorageHierarchy {
            tiers: vec![
                tier("nvme", 100e-6, 6e9),
                tier("pfs", 1e-3, 2e9),
                tier("hdd", 10e-3, 250e6),
                tier("tape", 30.0, 100e6),
            ],
        }
    }

    pub fn tiers(&self) -> &[StorageTier] {
        &self.tiers
    }

    pub fn len(&self) -> usize {
        self.tiers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tiers.is_empty()
    }
}

/// Assignment of coefficient levels to tiers.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// `level_to_tier[l]` is the tier index of level `l`.
    level_to_tier: Vec<usize>,
}

impl Placement {
    /// Explicit placement; every tier index must exist in `hierarchy`, so
    /// placements read from untrusted bytes are validated, not trusted.
    pub fn try_new(
        level_to_tier: Vec<usize>,
        hierarchy: &StorageHierarchy,
    ) -> Result<Self, PmrError> {
        if let Some(&bad) = level_to_tier.iter().find(|&&t| t >= hierarchy.len()) {
            return Err(PmrError::invalid_config(format!(
                "tier index out of range: level maps to tier {bad} but the hierarchy has {}",
                hierarchy.len()
            )));
        }
        Ok(Placement { level_to_tier })
    }

    /// The canonical placement of the paper: coarse (small, hot) levels on
    /// the fastest tiers, fine (large, cold) levels on the slowest, spread
    /// as evenly as the tier count allows.
    pub fn coarse_fast(num_levels: usize, hierarchy: &StorageHierarchy) -> Self {
        assert!(num_levels > 0);
        let nt = hierarchy.len();
        let level_to_tier = (0..num_levels)
            .map(|l| if num_levels == 1 { 0 } else { l * (nt - 1) / (num_levels - 1) })
            .collect();
        Placement { level_to_tier }
    }

    pub fn tier_of(&self, level: usize) -> usize {
        self.level_to_tier[level]
    }

    pub fn num_levels(&self) -> usize {
        self.level_to_tier.len()
    }
}

/// A weighted set of retrieval plans describing how an artifact is
/// expected to be accessed (e.g. harvested from historical bounds).
#[derive(Debug, Clone, PartialEq)]
pub struct AccessProfile {
    /// `(plan, weight)` pairs; weights need not be normalised.
    pub plans: Vec<(RetrievalPlan, f64)>,
}

impl AccessProfile {
    /// Build from the theory plans of a bound sweep, uniformly weighted.
    pub fn from_bounds(compressed: &Compressed, abs_bounds: &[f64]) -> Self {
        AccessProfile {
            plans: abs_bounds.iter().map(|&b| (compressed.plan_theory(b), 1.0)).collect(),
        }
    }

    /// Expected bytes fetched from each level under this profile.
    pub fn expected_level_bytes(&self, compressed: &Compressed) -> Vec<f64> {
        let nl = compressed.num_levels();
        let total_w: f64 = self.plans.iter().map(|(_, w)| w).sum();
        let mut out = vec![0.0; nl];
        if total_w <= 0.0 {
            return out;
        }
        for (plan, w) in &self.plans {
            for (l, (lvl, &b)) in compressed.levels().iter().zip(&plan.planes).enumerate() {
                out[l] += w / total_w * lvl.size_of_first(b) as f64;
            }
        }
        out
    }
}

/// Choose a placement minimising the expected retrieval time of `profile`,
/// subject to per-tier capacity limits (bytes; one entry per tier).
///
/// Greedy by heat: levels are sorted by expected fetched bytes and assigned
/// to the fastest tier that still has capacity for the level's *total*
/// stored size. An infeasible capacity vector (or one of the wrong length)
/// is a [`PmrError::InvalidConfig`].
pub fn try_optimize_placement(
    compressed: &Compressed,
    profile: &AccessProfile,
    hierarchy: &StorageHierarchy,
    capacities: &[u64],
) -> Result<Placement, PmrError> {
    if capacities.len() != hierarchy.len() {
        return Err(PmrError::invalid_config(format!(
            "one capacity per tier: got {} capacities for {} tiers",
            capacities.len(),
            hierarchy.len()
        )));
    }
    let heat = profile.expected_level_bytes(compressed);
    let sizes: Vec<u64> = compressed.levels().iter().map(|l| l.total_size()).collect();
    let mut order: Vec<usize> = (0..heat.len()).collect();
    order.sort_by(|&a, &b| heat[b].total_cmp(&heat[a]));

    let mut remaining = capacities.to_vec();
    let mut level_to_tier = vec![usize::MAX; heat.len()];
    for l in order {
        let tier = (0..hierarchy.len()).find(|&t| remaining[t] >= sizes[l]).ok_or_else(|| {
            PmrError::invalid_config(format!(
                "no tier has capacity for level {l} ({} bytes)",
                sizes[l]
            ))
        })?;
        remaining[tier] -= sizes[l];
        level_to_tier[l] = tier;
    }
    Placement::try_new(level_to_tier, hierarchy)
}

/// Accounted cost of one retrieval.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrievalCost {
    /// Total bytes fetched.
    pub bytes: u64,
    /// Modelled wall time in seconds (progressive readers drain tiers
    /// sequentially; no cross-tier parallelism is assumed).
    pub seconds: f64,
    /// Per-tier `(bytes, seconds)`, indexed by tier.
    pub per_tier: Vec<(u64, f64)>,
}

/// Account the cost of fetching `plan` from `compressed` across the
/// hierarchy. A tier pays its latency once iff any of its levels
/// contributes bytes.
pub fn retrieval_cost(
    compressed: &Compressed,
    plan: &RetrievalPlan,
    hierarchy: &StorageHierarchy,
    placement: &Placement,
) -> RetrievalCost {
    assert_eq!(placement.num_levels(), compressed.num_levels(), "placement/levels mismatch");
    let mut per_tier_bytes = vec![0u64; hierarchy.len()];
    for (l, (lvl, &b)) in compressed.levels().iter().zip(&plan.planes).enumerate() {
        per_tier_bytes[placement.tier_of(l)] += lvl.size_of_first(b);
    }
    let mut per_tier = Vec::with_capacity(hierarchy.len());
    let mut total_bytes = 0u64;
    let mut total_secs = 0.0;
    for (tier, &bytes) in hierarchy.tiers().iter().zip(&per_tier_bytes) {
        let secs = if bytes > 0 { tier.latency_s + bytes as f64 / tier.bandwidth_bps } else { 0.0 };
        per_tier.push((bytes, secs));
        total_bytes += bytes;
        total_secs += secs;
    }
    RetrievalCost { bytes: total_bytes, seconds: total_secs, per_tier }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmr_field::{Field, Shape};
    use pmr_mgard::CompressConfig;

    fn sample_compressed() -> Compressed {
        let field = Field::from_fn("t", 0, Shape::cube(9), |x, y, z| {
            ((x as f64) * 0.4).sin() + ((y + z) as f64) * 0.01
        });
        Compressed::compress(&field, &CompressConfig::default())
    }

    #[test]
    fn coarse_fast_spreads_levels() {
        let h = StorageHierarchy::summit_like();
        let p = Placement::coarse_fast(5, &h);
        assert_eq!(p.tier_of(0), 0); // coarsest on fastest
        assert_eq!(p.tier_of(4), 3); // finest on slowest
        assert!(p.tier_of(2) >= p.tier_of(1));
    }

    #[test]
    fn single_level_goes_to_fastest() {
        let h = StorageHierarchy::summit_like();
        let p = Placement::coarse_fast(1, &h);
        assert_eq!(p.tier_of(0), 0);
    }

    #[test]
    fn cost_matches_plan_bytes() {
        let c = sample_compressed();
        let h = StorageHierarchy::summit_like();
        let p = Placement::coarse_fast(c.num_levels(), &h);
        let plan = c.plan_theory(1e-3);
        let cost = retrieval_cost(&c, &plan, &h, &p);
        assert_eq!(cost.bytes, c.retrieved_bytes(&plan));
        assert!(cost.seconds > 0.0);
        let sum: u64 = cost.per_tier.iter().map(|(b, _)| b).sum();
        assert_eq!(sum, cost.bytes);
    }

    #[test]
    fn empty_plan_costs_nothing() {
        let c = sample_compressed();
        let h = StorageHierarchy::summit_like();
        let p = Placement::coarse_fast(c.num_levels(), &h);
        let plan = pmr_mgard::RetrievalPlan::from_planes(vec![0; c.num_levels()]);
        let cost = retrieval_cost(&c, &plan, &h, &p);
        assert_eq!(cost.bytes, 0);
        assert_eq!(cost.seconds, 0.0);
    }

    #[test]
    fn slow_tiers_dominate_time() {
        let c = sample_compressed();
        let h = StorageHierarchy::summit_like();
        let p = Placement::coarse_fast(c.num_levels(), &h);
        let full = c.plan_full();
        let cost = retrieval_cost(&c, &full, &h, &p);
        // Tape latency alone (30 s) dwarfs everything else.
        let tape_secs = cost.per_tier[3].1;
        assert!(tape_secs > cost.per_tier[0].1);
    }

    #[test]
    fn untouched_tier_pays_no_latency() {
        let c = sample_compressed();
        let h = StorageHierarchy::summit_like();
        let p = Placement::coarse_fast(c.num_levels(), &h);
        // Only coarsest level fetched -> only tier 0 active.
        let mut planes = vec![0u32; c.num_levels()];
        planes[0] = 4;
        let plan = pmr_mgard::RetrievalPlan::from_planes(planes);
        let cost = retrieval_cost(&c, &plan, &h, &p);
        for (t, (bytes, secs)) in cost.per_tier.iter().enumerate() {
            if t == 0 {
                assert!(*bytes > 0);
            } else {
                assert_eq!((*bytes, *secs), (0, 0.0));
            }
        }
    }

    #[test]
    fn try_constructors_reject_bad_parameters() {
        assert!(StorageTier::try_new("t", -1.0, 1e9).is_err());
        assert!(StorageTier::try_new("t", f64::NAN, 1e9).is_err());
        assert!(StorageTier::try_new("t", 0.0, 0.0).is_err());
        assert!(StorageTier::try_new("t", 0.0, f64::INFINITY).is_err());
        assert!(StorageTier::try_new("t", 1e-3, 1e9).is_ok());
        assert!(StorageHierarchy::try_new(vec![]).is_err());
        let h = StorageHierarchy::summit_like();
        assert!(Placement::try_new(vec![0, 3], &h).is_ok());
        assert!(Placement::try_new(vec![4], &h).is_err());
    }

    #[test]
    fn try_optimize_reports_infeasibility() {
        let c = sample_compressed();
        let h = StorageHierarchy::summit_like();
        let profile = AccessProfile::from_bounds(&c, &[c.absolute_bound(1e-4)]);
        let err = try_optimize_placement(&c, &profile, &h, &[0u64; 4]).unwrap_err();
        assert!(err.to_string().contains("no tier has capacity"), "{err}");
        let err = try_optimize_placement(&c, &profile, &h, &[u64::MAX]).unwrap_err();
        assert!(err.to_string().contains("capacity per tier"), "{err}");
    }

    #[test]
    fn access_profile_expected_bytes() {
        let c = sample_compressed();
        let bounds = [c.absolute_bound(1e-2), c.absolute_bound(1e-5)];
        let profile = AccessProfile::from_bounds(&c, &bounds);
        let heat = profile.expected_level_bytes(&c);
        assert_eq!(heat.len(), c.num_levels());
        // Expected bytes per level are the mean of the two plans'.
        let p1 = c.plan_theory(bounds[0]);
        let p2 = c.plan_theory(bounds[1]);
        for (l, &h) in heat.iter().enumerate() {
            let exp = (c.levels()[l].size_of_first(p1.planes[l]) as f64
                + c.levels()[l].size_of_first(p2.planes[l]) as f64)
                / 2.0;
            assert!((h - exp).abs() < 1e-9);
        }
    }

    #[test]
    fn optimizer_puts_hot_levels_on_fast_tiers() {
        let c = sample_compressed();
        let h = StorageHierarchy::summit_like();
        let profile =
            AccessProfile::from_bounds(&c, &[c.absolute_bound(1e-3), c.absolute_bound(1e-6)]);
        let caps = vec![u64::MAX; h.len()];
        let p = try_optimize_placement(&c, &profile, &h, &caps).unwrap();
        // With unlimited capacity everything lands on the fastest tier.
        for l in 0..c.num_levels() {
            assert_eq!(p.tier_of(l), 0);
        }
    }

    #[test]
    fn optimizer_respects_capacity() {
        let c = sample_compressed();
        let h = StorageHierarchy::summit_like();
        let profile = AccessProfile::from_bounds(&c, &[c.absolute_bound(1e-5)]);
        let sizes: Vec<u64> = c.levels().iter().map(|l| l.total_size()).collect();
        // Fastest tier can hold everything except the largest level.
        let largest = *sizes.iter().max().unwrap();
        let caps = vec![sizes.iter().sum::<u64>() - largest, u64::MAX, u64::MAX, u64::MAX];
        let p = try_optimize_placement(&c, &profile, &h, &caps).unwrap();
        let biggest_level = sizes.iter().position(|&s| s == largest).unwrap();
        assert_eq!(p.tier_of(biggest_level), 1, "over-capacity level must spill");
        // The placement must be feasible: per-tier sums within caps.
        let mut used = vec![0u64; h.len()];
        for l in 0..c.num_levels() {
            used[p.tier_of(l)] += sizes[l];
        }
        assert!(used[0] <= caps[0]);
    }

    #[test]
    fn optimized_placement_beats_naive_on_expected_cost() {
        let c = sample_compressed();
        let h = StorageHierarchy::summit_like();
        // Profile dominated by loose bounds: the fine levels are cold.
        let profile =
            AccessProfile::from_bounds(&c, &[c.absolute_bound(1e-1), c.absolute_bound(1e-2)]);
        // Fast tier only fits a subset.
        let sizes: Vec<u64> = c.levels().iter().map(|l| l.total_size()).collect();
        let caps = vec![sizes.iter().sum::<u64>() / 2, u64::MAX, u64::MAX, u64::MAX];
        let optimized = try_optimize_placement(&c, &profile, &h, &caps).unwrap();
        let naive = Placement::coarse_fast(c.num_levels(), &h);
        let expected_cost = |pl: &Placement| -> f64 {
            profile.plans.iter().map(|(plan, w)| w * retrieval_cost(&c, plan, &h, pl).seconds).sum()
        };
        assert!(
            expected_cost(&optimized) <= expected_cost(&naive) + 1e-12,
            "optimizer should not be worse than the static heuristic"
        );
    }
}
