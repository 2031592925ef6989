//! Property tests for the storage-hierarchy model: the fallible
//! constructors must reject every invalid input with an error (never a
//! panic), and cost accounting must stay internally consistent for any
//! valid placement. On the seeded case driver `pmr_rng::cases`.

use pmr_field::{Field, Shape};
use pmr_mgard::{CompressConfig, Compressed, RetrievalPlan};
use pmr_rng::{cases, Rng};
use pmr_storage::{
    retrieval_cost, try_optimize_placement, AccessProfile, Placement, StorageHierarchy, StorageTier,
};

const CASES: u32 = 64;

fn sample_compressed(g: &mut Rng) -> Compressed {
    let shape = Shape::cube(7);
    let data = (0..shape.len()).map(|_| g.range(0.0..1.0)).collect();
    let field = Field::new("p", 0, shape, data);
    Compressed::compress(&field, &CompressConfig { levels: 4, ..Default::default() })
}

#[test]
fn tier_try_new_never_panics() {
    cases("tier_try_new_never_panics", CASES, |g| {
        let (lat, bw) = (g.any_f64(), g.any_f64());
        match StorageTier::try_new("t", lat, bw) {
            Ok(_) => {
                assert!(lat.is_finite() && lat >= 0.0);
                assert!(bw.is_finite() && bw > 0.0);
            }
            Err(e) => assert!(e.to_string().contains("invalid configuration")),
        }
    });
}

#[test]
fn placement_try_new_validates_indices() {
    cases("placement_try_new_validates_indices", CASES, |g| {
        let tiers = g.range(1usize..6);
        // Arbitrary indices are almost never valid, so half the cases draw
        // near the tier count, where both outcomes occur.
        let top = if g.bool() { usize::MAX } else { tiers };
        let indices = g.vec(0..12, |g| g.range(0..=top));
        let h = StorageHierarchy::try_new(
            (0..tiers)
                .map(|i| StorageTier::try_new(format!("t{i}"), 1e-3, 1e9).expect("valid tier"))
                .collect(),
        )
        .expect("non-empty");
        let ok = indices.iter().all(|&t| t < tiers);
        assert_eq!(Placement::try_new(indices, &h).is_ok(), ok);
    });
}

#[test]
fn retrieval_cost_is_internally_consistent() {
    cases("retrieval_cost_is_internally_consistent", CASES, |g| {
        let c = sample_compressed(g);
        let tier_choices = (0..4).map(|_| g.range(0usize..4)).collect();
        let planes = (0..4).map(|_| g.range(0u32..33)).collect();
        let h = StorageHierarchy::summit_like();
        let placement = Placement::try_new(tier_choices, &h).expect("indices in range");
        let plan = RetrievalPlan::from_planes(planes);
        let cost = retrieval_cost(&c, &plan, &h, &placement);
        assert_eq!(cost.bytes, c.retrieved_bytes(&plan));
        let sum: u64 = cost.per_tier.iter().map(|(b, _)| b).sum();
        assert_eq!(sum, cost.bytes);
        let secs: f64 = cost.per_tier.iter().map(|(_, s)| s).sum();
        assert!((secs - cost.seconds).abs() <= 1e-12 * (1.0 + secs));
        // A tier with no bytes pays no latency.
        for (bytes, s) in &cost.per_tier {
            assert_eq!(*bytes == 0, *s == 0.0);
        }
    });
}

#[test]
fn optimizer_output_is_always_feasible() {
    cases("optimizer_output_is_always_feasible", CASES, |g| {
        let c = sample_compressed(g);
        let cap_scale = g.range(1u64..20);
        let h = StorageHierarchy::summit_like();
        let profile = AccessProfile::from_bounds(&c, &[c.absolute_bound(1e-3)]);
        let total: u64 = c.total_bytes();
        // Fast tier holds a sliding fraction of the artifact; slow tiers
        // always fit the rest, so the instance is feasible by construction.
        let caps = [total * cap_scale / 20, total, total, total];
        let p = try_optimize_placement(&c, &profile, &h, &caps).expect("feasible instance");
        let mut used = vec![0u64; h.len()];
        for (l, lvl) in c.levels().iter().enumerate() {
            used[p.tier_of(l)] += lvl.total_size();
        }
        for (u, cap) in used.iter().zip(&caps) {
            assert!(u <= cap, "tier over capacity: {u} > {cap}");
        }
    });
}
