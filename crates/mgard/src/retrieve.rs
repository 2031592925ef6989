//! The greedy bit-plane retriever and size interpreter.
//!
//! Given per-level encoded planes, an error-estimation rule (theory
//! constants or E-MGARD's learned constants) and a target bound `e`, the
//! retriever fetches planes in order of **accuracy efficiency** — estimated
//! error reduction per compressed byte (paper §III-C) — until the estimate
//! satisfies the bound. Planes within a level are inherently sequential
//! (plane `k+1` refines plane `k`), so the plan is fully described by one
//! count `b_l` per level.

use crate::bitplane::LevelEncoding;

/// A retrieval decision: how many planes to fetch from each level.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrievalPlan {
    /// `b_l` per coefficient level.
    pub planes: Vec<u32>,
    /// The estimator's error value at this plan (`f64::INFINITY` when no
    /// estimator was involved, e.g. for externally predicted plans).
    pub estimated_error: f64,
}

impl RetrievalPlan {
    /// A plan with explicit plane counts and no error estimate attached
    /// (used by D-MGARD, which predicts the counts directly).
    pub fn from_planes(planes: Vec<u32>) -> Self {
        RetrievalPlan { planes, estimated_error: f64::INFINITY }
    }
}

/// Greedy plan: fetch planes by accuracy efficiency until
/// `Σ_l constants[l] · Err[l][b_l] <= err_bound`.
///
/// If the bound is unreachable even with every plane (possible only for
/// bounds below the quantization floor), the plan holds all planes.
pub fn greedy_plan(levels: &[LevelEncoding], constants: &[f64], err_bound: f64) -> RetrievalPlan {
    assert_eq!(levels.len(), constants.len(), "constants/levels mismatch");
    assert!(err_bound >= 0.0, "error bound must be non-negative");
    grow(levels, constants, vec![0; levels.len()], None, Stop::Bound(err_bound))
}

/// Refine an externally predicted plan against an error estimate:
/// greedily *add* planes while `Σ constants[l]·Err[l][b_l] > err_bound`,
/// then greedily *remove* planes whose absence keeps the estimate within
/// the bound, dropping the cheapest error contribution per byte first.
///
/// This is the primitive behind the combined D-MGARD + E-MGARD retriever
/// (the paper's §IV closing future-work item): D-MGARD supplies the
/// starting counts, E-MGARD the constants.
pub fn refine_plan(
    levels: &[LevelEncoding],
    constants: &[f64],
    err_bound: f64,
    initial: &[u32],
) -> RetrievalPlan {
    assert_eq!(levels.len(), constants.len(), "constants/levels mismatch");
    assert_eq!(levels.len(), initial.len(), "initial plan/levels mismatch");
    let start = initial.iter().zip(levels).map(|(&p, lvl)| p.min(lvl.num_planes())).collect();
    // Grow: identical policy to `greedy_plan`.
    let RetrievalPlan { planes: mut b, estimated_error: mut est } =
        grow(levels, constants, start, None, Stop::Bound(err_bound));

    // Shrink: drop the plane that frees the most bytes per unit of added
    // estimated error, as long as the bound still holds.
    loop {
        let mut best: Option<(usize, f64, f64)> = None; // (level, new_est, score)
        for (l, lvl) in levels.iter().enumerate() {
            if b[l] == 0 {
                continue;
            }
            let added = constants[l] * (lvl.error_at(b[l] - 1) - lvl.error_at(b[l]));
            let new_est = est + added;
            if new_est > err_bound {
                continue;
            }
            let freed = lvl.plane_size(b[l] - 1).max(1) as f64;
            let score = freed / (added + f64::MIN_POSITIVE);
            if best.is_none_or(|(_, _, bs)| score > bs) {
                best = Some((l, new_est, score));
            }
        }
        let Some((l, new_est, _)) = best else { break };
        b[l] -= 1;
        est = new_est;
    }

    RetrievalPlan { planes: b, estimated_error: est }
}

/// Greedy plan under per-level availability caps: starting from the planes
/// already held (`floor`), fetch additional planes by accuracy efficiency —
/// but never past `caps[l]` at level `l`.
///
/// This is the degraded-retrieval re-planner: when a segment of level `l`
/// is unrecoverable after retries, the level's usable prefix is capped at
/// the last intact plane, and the remaining error budget is spent on the
/// *surviving* levels instead. The returned plan's `estimated_error` is the
/// honest theory estimate at the capped plan — it may exceed `err_bound`
/// when the caps make the bound unreachable, and callers must report that
/// rather than the requested bound.
pub fn greedy_plan_capped(
    levels: &[LevelEncoding],
    constants: &[f64],
    err_bound: f64,
    floor: &[u32],
    caps: &[u32],
) -> RetrievalPlan {
    assert_eq!(levels.len(), constants.len(), "constants/levels mismatch");
    assert_eq!(levels.len(), floor.len(), "floor/levels mismatch");
    assert_eq!(levels.len(), caps.len(), "caps/levels mismatch");
    assert!(err_bound >= 0.0, "error bound must be non-negative");
    let caps: Vec<u32> = caps.iter().zip(levels).map(|(&c, l)| c.min(l.num_planes())).collect();
    let start = floor.iter().zip(&caps).map(|(&f, &c)| f.min(c)).collect();
    grow(levels, constants, start, Some(&caps), Stop::Bound(err_bound))
}

/// Greedy plan under a byte budget: fetch planes by accuracy efficiency —
/// the same ordering as [`greedy_plan`] — but stop when no remaining plane
/// fits within `byte_budget` of cumulative compressed size.
///
/// This is the planner behind `RetrievalTarget::ByteBudget`: instead of
/// "spend whatever it takes to reach error `e`", the caller says "spend at
/// most `n` bytes and give me the best error those bytes can buy". The
/// returned plan's `estimated_error` is the honest theory estimate at the
/// selected planes.
pub fn greedy_plan_budget(
    levels: &[LevelEncoding],
    constants: &[f64],
    byte_budget: u64,
) -> RetrievalPlan {
    assert_eq!(levels.len(), constants.len(), "constants/levels mismatch");
    grow(levels, constants, vec![0; levels.len()], None, Stop::Budget(byte_budget))
}

/// When [`grow`] stops.
#[derive(Clone, Copy)]
enum Stop {
    /// Once the estimate is within this error bound.
    Bound(f64),
    /// Once no admissible plane fits in this many cumulative bytes.
    Budget(u64),
}

impl Stop {
    fn wants_more(self, est: f64) -> bool {
        match self {
            Stop::Bound(e) => est > e,
            Stop::Budget(_) => true,
        }
    }
}

/// The accuracy-efficiency loop (paper §III-C) behind every planner:
/// starting from the counts `b`, fetch the plane with the best estimated
/// error reduction per byte, never past `caps[l]` at level `l` (past the
/// level's last plane when `caps` is `None`), until `stop` holds or no
/// admissible plane is left. Zero-gain planes are still admissible
/// (efficiency 0), so the loop always progresses toward exhaustion; ties
/// keep the lowest level. The returned `estimated_error` is
/// `Σ_l constants[l] · Err[l][b_l]`, kept up to date one plane at a time.
///
/// Inlined into each planner, so that its `stop` rule and `caps` fold to
/// constants: an out-of-line copy measured 10–25 % slower per plan than
/// the four loops it replaced.
#[inline(always)]
fn grow(
    levels: &[LevelEncoding],
    constants: &[f64],
    mut b: Vec<u32>,
    caps: Option<&[u32]>,
    stop: Stop,
) -> RetrievalPlan {
    let mut est: f64 =
        levels.iter().zip(constants).zip(&b).map(|((l, &c), &bl)| c * l.error_at(bl)).sum();
    let mut spent: u64 = 0;
    while stop.wants_more(est) {
        let mut best: Option<(usize, f64)> = None;
        for (l, lvl) in levels.iter().enumerate() {
            if b[l] >= caps.map_or(lvl.num_planes(), |c| c[l]) {
                continue;
            }
            let size = lvl.plane_size(b[l]);
            if matches!(stop, Stop::Budget(n) if spent.saturating_add(size) > n) {
                continue;
            }
            let gain = constants[l] * (lvl.error_at(b[l]) - lvl.error_at(b[l] + 1)).max(0.0);
            let eff = gain / size.max(1) as f64;
            if best.is_none_or(|(_, be)| eff > be) {
                best = Some((l, eff));
            }
        }
        let Some((l, _)) = best else {
            break; // every admissible plane fetched
        };
        let old = constants[l] * levels[l].error_at(b[l]);
        spent = spent.saturating_add(levels[l].plane_size(b[l]));
        b[l] += 1;
        est += constants[l] * levels[l].error_at(b[l]) - old;
    }
    RetrievalPlan { planes: b, estimated_error: est }
}

/// The size interpreter: compressed bytes fetched under `plan`
/// (Equation 1 of the paper).
pub fn plan_size(levels: &[LevelEncoding], plan: &RetrievalPlan) -> u64 {
    assert_eq!(levels.len(), plan.planes.len(), "plan/levels mismatch");
    levels.iter().zip(&plan.planes).map(|(l, &b)| l.size_of_first(b)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_levels() -> Vec<LevelEncoding> {
        // Three levels with different magnitudes and counts.
        let l0: Vec<f64> = (0..8).map(|i| (i as f64 - 3.5) * 2.0).collect();
        let l1: Vec<f64> = (0..32).map(|i| ((i as f64) * 0.71).sin()).collect();
        let l2: Vec<f64> = (0..128).map(|i| ((i as f64) * 0.37).cos() * 0.1).collect();
        vec![
            LevelEncoding::encode(&l0, 16),
            LevelEncoding::encode(&l1, 16),
            LevelEncoding::encode(&l2, 16),
        ]
    }

    #[test]
    fn zero_bound_fetches_everything_available() {
        let levels = toy_levels();
        let constants = vec![1.0; 3];
        let plan = greedy_plan(&levels, &constants, 0.0);
        // Quantization floor is positive, so the bound is unreachable and
        // every plane is fetched.
        for (l, lvl) in levels.iter().enumerate() {
            assert_eq!(plan.planes[l], lvl.num_planes());
        }
    }

    #[test]
    fn huge_bound_fetches_nothing() {
        let levels = toy_levels();
        let constants = vec![1.0; 3];
        let plan = greedy_plan(&levels, &constants, 1e9);
        assert_eq!(plan.planes, vec![0, 0, 0]);
        assert_eq!(plan_size(&levels, &plan), 0);
    }

    #[test]
    fn estimate_respects_bound_when_reachable() {
        let levels = toy_levels();
        let constants = vec![1.0; 3];
        for bound in [1.0, 0.1, 1e-2, 1e-3] {
            let plan = greedy_plan(&levels, &constants, bound);
            assert!(plan.estimated_error <= bound, "bound={bound} est={}", plan.estimated_error);
        }
    }

    #[test]
    fn tighter_bounds_fetch_more_bytes() {
        let levels = toy_levels();
        let constants = vec![1.0; 3];
        let mut prev = 0;
        for bound in [10.0, 1.0, 0.1, 1e-2, 1e-3, 1e-4] {
            let plan = greedy_plan(&levels, &constants, bound);
            let size = plan_size(&levels, &plan);
            assert!(size >= prev, "bound={bound} size={size} prev={prev}");
            prev = size;
        }
    }

    #[test]
    fn larger_constants_fetch_more() {
        let levels = toy_levels();
        let small = greedy_plan(&levels, &[1.0, 1.0, 1.0], 0.05);
        let large = greedy_plan(&levels, &[8.0, 8.0, 8.0], 0.05);
        assert!(plan_size(&levels, &large) >= plan_size(&levels, &small));
    }

    #[test]
    fn plan_size_accumulates_per_level_prefixes() {
        let levels = toy_levels();
        let plan = RetrievalPlan::from_planes(vec![3, 1, 0]);
        let expected =
            levels[0].size_of_first(3) + levels[1].size_of_first(1) + levels[2].size_of_first(0);
        assert_eq!(plan_size(&levels, &plan), expected);
    }

    #[test]
    fn from_planes_has_no_estimate() {
        let p = RetrievalPlan::from_planes(vec![1, 2]);
        assert!(p.estimated_error.is_infinite());
    }

    #[test]
    fn refine_grows_underestimating_plans() {
        let levels = toy_levels();
        let constants = vec![1.0; 3];
        let bound = 1e-3;
        let refined = refine_plan(&levels, &constants, bound, &[0, 0, 0]);
        assert!(refined.estimated_error <= bound);
        // The grow phase matches greedy; the shrink phase may then drop
        // planes greedy over-fetched, so refine is never larger.
        let greedy = greedy_plan(&levels, &constants, bound);
        assert!(plan_size(&levels, &refined) <= plan_size(&levels, &greedy));
    }

    #[test]
    fn refine_shrinks_overestimating_plans() {
        let levels = toy_levels();
        let constants = vec![1.0; 3];
        let bound = 0.5;
        let all: Vec<u32> = levels.iter().map(|l| l.num_planes()).collect();
        let refined = refine_plan(&levels, &constants, bound, &all);
        assert!(refined.estimated_error <= bound);
        assert!(
            plan_size(&levels, &refined) < levels.iter().map(|l| l.total_size()).sum::<u64>(),
            "shrink pass should drop planes"
        );
    }

    #[test]
    fn refine_keeps_feasible_plans_feasible() {
        let levels = toy_levels();
        let constants = vec![2.0, 1.0, 0.5];
        for bound in [1.0, 1e-2, 1e-4] {
            for start in [vec![0u32, 5, 10], vec![16, 16, 16], vec![3, 3, 3]] {
                let plan = refine_plan(&levels, &constants, bound, &start);
                let full_est: f64 = levels
                    .iter()
                    .zip(&constants)
                    .map(|(l, &c)| c * l.error_at(l.num_planes()))
                    .sum();
                if full_est <= bound {
                    assert!(plan.estimated_error <= bound, "bound={bound} start={start:?}");
                }
            }
        }
    }

    #[test]
    fn capped_greedy_matches_greedy_when_unconstrained() {
        let levels = toy_levels();
        let constants = vec![1.0; 3];
        let caps: Vec<u32> = levels.iter().map(|l| l.num_planes()).collect();
        for bound in [1.0, 0.1, 1e-3] {
            let free = greedy_plan(&levels, &constants, bound);
            let capped = greedy_plan_capped(&levels, &constants, bound, &[0, 0, 0], &caps);
            assert_eq!(free, capped, "bound={bound}");
        }
    }

    #[test]
    fn capped_greedy_respects_caps_and_floor() {
        let levels = toy_levels();
        let constants = vec![1.0; 3];
        let floor = [2u32, 0, 1];
        let caps = [4u32, 0, 16];
        let plan = greedy_plan_capped(&levels, &constants, 1e-6, &floor, &caps);
        for l in 0..3 {
            assert!(plan.planes[l] >= floor[l].min(caps[l]), "level {l} below floor");
            assert!(plan.planes[l] <= caps[l], "level {l} above cap");
        }
        // The capped estimate is honest: recomputing from the rows agrees.
        let expect: f64 = levels
            .iter()
            .zip(&constants)
            .zip(&plan.planes)
            .map(|((lvl, &c), &b)| c * lvl.error_at(b))
            .sum();
        assert!((plan.estimated_error - expect).abs() <= 1e-12 * (1.0 + expect));
    }

    #[test]
    fn capped_greedy_compensates_on_surviving_levels() {
        let levels = toy_levels();
        let constants = vec![1.0; 3];
        let bound = 1e-3;
        let free = greedy_plan(&levels, &constants, bound);
        // Cap level 1 below what the free plan wanted: the planner must
        // spend more planes on levels 0/2 to chase the bound.
        assert!(free.planes[1] > 1);
        let caps = [16u32, 1, 16];
        let capped = greedy_plan_capped(&levels, &constants, bound, &[0, 0, 0], &caps);
        assert_eq!(capped.planes[1], 1);
        assert!(
            capped.planes[0] >= free.planes[0] && capped.planes[2] >= free.planes[2],
            "capped={:?} free={:?}",
            capped.planes,
            free.planes
        );
    }

    #[test]
    fn budget_plan_never_exceeds_budget() {
        let levels = toy_levels();
        let constants = vec![1.0; 3];
        let total: u64 = levels.iter().map(|l| l.total_size()).sum();
        for budget in [0, 16, 64, 256, 1024, total, total + 100] {
            let plan = greedy_plan_budget(&levels, &constants, budget);
            assert!(plan_size(&levels, &plan) <= budget, "budget={budget}");
        }
    }

    #[test]
    fn budget_plan_error_is_monotone_in_budget() {
        let levels = toy_levels();
        let constants = vec![1.0; 3];
        let mut prev_err = f64::INFINITY;
        let mut prev_size = 0;
        for budget in [0u64, 32, 128, 512, 2048, 1 << 20] {
            let plan = greedy_plan_budget(&levels, &constants, budget);
            let size = plan_size(&levels, &plan);
            assert!(plan.estimated_error <= prev_err, "budget={budget}");
            assert!(size >= prev_size, "budget={budget}");
            prev_err = plan.estimated_error;
            prev_size = size;
        }
    }

    #[test]
    fn huge_budget_fetches_everything() {
        let levels = toy_levels();
        let constants = vec![1.0; 3];
        let plan = greedy_plan_budget(&levels, &constants, u64::MAX);
        for (l, lvl) in levels.iter().enumerate() {
            assert_eq!(plan.planes[l], lvl.num_planes());
        }
    }

    #[test]
    fn budget_estimate_is_honest() {
        let levels = toy_levels();
        let constants = vec![2.0, 1.0, 0.5];
        let plan = greedy_plan_budget(&levels, &constants, 300);
        let expect: f64 = levels
            .iter()
            .zip(&constants)
            .zip(&plan.planes)
            .map(|((lvl, &c), &b)| c * lvl.error_at(b))
            .sum();
        assert!((plan.estimated_error - expect).abs() <= 1e-12 * (1.0 + expect));
    }

    #[test]
    fn refine_clamps_out_of_range_initial_counts() {
        let levels = toy_levels();
        let constants = vec![1.0; 3];
        let plan = refine_plan(&levels, &constants, 1e9, &[99, 99, 99]);
        assert!(plan.planes.iter().zip(&levels).all(|(&b, l)| b <= l.num_planes()));
    }
}
