//! Fault-tolerant retrieval with honest error accounting.
//!
//! Progressive encoding is what makes graceful degradation possible: plane
//! `k + 1` of a level only refines planes `0..k`, so when a segment is
//! unrecoverable the level's already-fetched *prefix* is still a valid
//! decode — the reader truncates there rather than failing the retrieval.
//! The error contract is then re-established honestly: the theory
//! estimator (a sound upper bound) is re-run on the planes actually held,
//! and the result is reported as the *achievable* bound of a
//! [`DegradedRetrieval`]. The reader then re-plans, spending extra planes
//! at surviving levels to claw back accuracy the lost segment took away
//! (the capped greedy planner never asks past a dead level's prefix).

use crate::fetch::{ExpectedSegment, FetchExecutor, FetchStats, RetryPolicy};
use crate::segment::{FetchError, SegmentKey, SegmentStore};
use pmr_error::PmrError;
use pmr_field::Field;
use pmr_mgard::{greedy_plan_capped, Compressed, RetrievalPlan};
use std::convert::Infallible;

/// How many compensating re-plan rounds follow the plan's own round.
const MAX_REPLAN_ROUNDS: u32 = 2;

/// Settings of the tolerant reader.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TolerantConfig {
    /// Retry schedule for each segment.
    pub policy: RetryPolicy,
}

/// The loss report attached to a retrieval that could not fetch its full
/// plan. `achievable_bound` is the theory estimate over the planes actually
/// decoded — sound, so the reconstruction is guaranteed to satisfy it.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedRetrieval {
    /// The error bound the caller asked for.
    pub requested_bound: f64,
    /// Sound bound over what was actually decoded (may still be within
    /// `requested_bound` when re-planning compensated fully).
    pub achievable_bound: f64,
    /// Plane counts of the original plan.
    pub requested_planes: Vec<u32>,
    /// Plane counts actually fetched and decoded.
    pub achieved_planes: Vec<u32>,
    /// Segments abandoned as unrecoverable, in the order they were given up.
    pub lost_segments: Vec<SegmentKey>,
    /// Whether a compensating re-plan ran.
    pub replanned: bool,
}

impl DegradedRetrieval {
    /// Did compensation keep the retrieval within its original request?
    pub fn bound_recovered(&self) -> bool {
        self.achievable_bound <= self.requested_bound
    }
}

/// A reconstruction from a fault-prone store, with full accounting.
#[derive(Debug, Clone)]
pub struct TolerantRetrieval {
    pub field: Field,
    /// Plane counts decoded per level.
    pub planes: Vec<u32>,
    /// Sound theory estimate for the decoded planes. This is the bound the
    /// reconstruction is guaranteed to satisfy — degraded or not.
    pub estimated_error: f64,
    /// Fetch accounting (attempts, retries, wasted bytes).
    pub stats: FetchStats,
    /// Present iff at least one segment was unrecoverable.
    pub degraded: Option<DegradedRetrieval>,
}

impl TolerantRetrieval {
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }
}

/// What the degradation loop settled on. The planes themselves went to the
/// caller's sink as they landed; this is the account of them.
#[derive(Debug)]
pub struct FetchedPlanes {
    /// Planes delivered per level: the sink holds the prefix `0..planes[l]`
    /// of level `l`.
    pub planes: Vec<u32>,
    /// Segments abandoned as unrecoverable, in the order they were given up.
    pub lost: Vec<SegmentKey>,
    /// Whether a compensating re-plan ran.
    pub replanned: bool,
}

/// Why the degradation loop stopped before settling.
#[derive(Debug)]
pub enum Stopped<E> {
    /// The plan or the bound was unusable; nothing was fetched.
    Invalid(PmrError),
    /// The sink refused a plane (a socket died, say). Not a storage loss:
    /// nothing is re-planned around it, the retrieval is simply over.
    Sink(E),
}

impl<E> From<PmrError> for Stopped<E> {
    fn from(e: PmrError) -> Self {
        Stopped::Invalid(e)
    }
}

/// The degradation loop — the one place a plan becomes plane prefixes.
///
/// Drains every level of `plan` through `source`, which returns the
/// *verified* plane or the error that made it unrecoverable (retries are
/// the source's business: [`fetch_plan_tolerant`] plugs in a
/// [`FetchExecutor`], `pmrd` the same behind its plane cache), and hands
/// each plane to `sink` the moment it lands — level by level, planes
/// ascending within a level, the planes of a re-plan round after those of
/// the round before. A plane handed over is never taken back. A level that
/// loses a segment is truncated there; up to two capped-greedy rounds then
/// spend extra planes at surviving levels chasing `requested_bound` — what
/// the caller originally asked for. Collecting
/// the prefixes for a decode, or writing them to a socket, is the sink.
pub fn fetch_planes_tolerant<P, E>(
    manifest: &Compressed,
    plan: &RetrievalPlan,
    requested_bound: f64,
    mut source: impl FnMut(SegmentKey) -> Result<P, FetchError>,
    mut sink: impl FnMut(SegmentKey, P) -> Result<(), E>,
) -> Result<FetchedPlanes, Stopped<E>> {
    manifest.validate_plan(plan)?;
    if !requested_bound.is_finite() || requested_bound < 0.0 {
        return Err(Stopped::Invalid(PmrError::invalid_config(format!(
            "requested bound must be finite and >= 0, got {requested_bound}"
        ))));
    }
    let levels = manifest.levels();
    let mut got =
        FetchedPlanes { planes: vec![0; levels.len()], lost: Vec::new(), replanned: false };
    // `caps[l]` shrinks to the achieved prefix length when level `l` loses
    // a segment — no later round may ask past it.
    let mut caps: Vec<u32> = levels.iter().map(|l| l.num_planes()).collect();
    let mut target = plan.planes.clone();

    for round in 0..=MAX_REPLAN_ROUNDS {
        for (l, held) in got.planes.iter_mut().enumerate() {
            for k in *held..target[l].min(caps[l]) {
                match source((l, k)) {
                    Ok(payload) => {
                        sink((l, k), payload).map_err(Stopped::Sink)?;
                        *held = k + 1;
                    }
                    Err(_) => {
                        // Unrecoverable: truncate this level's prefix here.
                        got.lost.push((l, k));
                        caps[l] = k;
                        break;
                    }
                }
            }
        }
        let any_capped_below_target = target.iter().zip(&caps).any(|(&t, &c)| c < t);
        if !any_capped_below_target || round == MAX_REPLAN_ROUNDS {
            break;
        }
        // Compensate: keep what we hold, never ask past a dead prefix, and
        // spend extra planes at surviving levels to chase the bound.
        let next = greedy_plan_capped(
            levels,
            manifest.theory_constants(),
            requested_bound,
            &got.planes,
            &caps,
        );
        if next.planes == got.planes {
            break; // nothing more the greedy can add
        }
        target = next.planes;
        got.replanned = true;
    }
    Ok(got)
}

/// Execute `plan` against `store` with retries, checksum verification, and
/// graceful degradation, then decode what was held into a field under the
/// artifact's own execution policy.
pub fn fetch_plan_tolerant(
    manifest: &Compressed,
    store: &dyn SegmentStore,
    plan: &RetrievalPlan,
    requested_bound: f64,
    cfg: &TolerantConfig,
) -> Result<TolerantRetrieval, PmrError> {
    let mut fetcher = FetchExecutor::new(store, cfg.policy.clone());
    // Sink: each level's prefix, kept for the one decode below.
    let mut payloads: Vec<Vec<Vec<u8>>> = vec![Vec::new(); manifest.num_levels()];
    let got = fetch_planes_tolerant(
        manifest,
        plan,
        requested_bound,
        |(l, k)| {
            fetcher.fetch_verified((l, k), ExpectedSegment::of_plane(&manifest.levels()[l], k))
        },
        |(l, _), payload| {
            payloads[l].push(payload);
            Ok::<(), Infallible>(())
        },
    )
    .map_err(|stopped| match stopped {
        Stopped::Invalid(e) => e,
        Stopped::Sink(never) => match never {},
    })?;

    let achieved = got.planes;
    let field = manifest.retrieve_from_payloads(&payloads, None)?;
    let estimated_error = manifest.estimate_for(&achieved);
    let degraded = if got.lost.is_empty() {
        None
    } else {
        Some(DegradedRetrieval {
            requested_bound,
            achievable_bound: estimated_error,
            requested_planes: plan.planes.clone(),
            achieved_planes: achieved.clone(),
            lost_segments: got.lost,
            replanned: got.replanned,
        })
    };
    Ok(TolerantRetrieval {
        field,
        planes: achieved,
        estimated_error,
        stats: fetcher.stats().clone(),
        degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultInjector};
    use crate::segment::MemStore;
    use pmr_field::{error::max_abs_error, Shape};
    use pmr_mgard::CompressConfig;

    /// Plan with the theory estimator at `abs_bound`, then execute tolerantly.
    fn rt(
        c: &Compressed,
        store: &dyn SegmentStore,
        abs_bound: f64,
        cfg: &TolerantConfig,
    ) -> Result<TolerantRetrieval, PmrError> {
        fetch_plan_tolerant(c, store, &c.plan_theory(abs_bound), abs_bound, cfg)
    }

    fn artifact() -> (Field, Compressed) {
        let field = Field::from_fn("t", 0, Shape::cube(9), |x, y, z| {
            ((x as f64) * 0.6).sin() + ((y as f64) * 0.4).cos() * 0.5 + (z as f64) * 0.02
        });
        let c = Compressed::compress(&field, &CompressConfig::default());
        (field, c)
    }

    #[test]
    fn clean_store_matches_direct_retrieval() {
        let (field, c) = artifact();
        let store = MemStore::from_compressed(&c);
        let bound = c.absolute_bound(1e-4);
        let out = rt(&c, &store, bound, &TolerantConfig::default()).unwrap();
        assert!(!out.is_degraded());
        let direct = c.retrieve(&c.plan_theory(bound));
        assert_eq!(out.field.data(), direct.data());
        assert!(max_abs_error(field.data(), out.field.data()) <= bound);
        assert_eq!(out.stats.retries, 0);
    }

    #[test]
    fn flaky_but_recoverable_store_still_meets_bound() {
        let (field, c) = artifact();
        let cfg = FaultConfig { transient: 0.3, bit_flip: 0.2, ..FaultConfig::quiet(17) };
        let inj = FaultInjector::new(MemStore::from_compressed(&c), cfg).unwrap();
        let bound = c.absolute_bound(1e-4);
        let tc = TolerantConfig { policy: RetryPolicy { max_attempts: 64 } };
        let out = rt(&c, &inj, bound, &tc).unwrap();
        assert!(!out.is_degraded(), "retryable faults must not degrade the result");
        assert!(out.stats.retries > 0, "the schedule should have forced retries");
        assert!(max_abs_error(field.data(), out.field.data()) <= bound);
    }

    #[test]
    fn lost_segment_truncates_and_reports_honest_bound() {
        let (field, c) = artifact();
        // The tightest bound the artifact meets: its plan is every plane, so
        // no surviving level has a plane left to compensate with.
        let full: Vec<u32> = c.levels().iter().map(|l| l.num_planes()).collect();
        let bound = c.estimate_for(&full);
        let plan = c.plan_theory(bound);
        // Kill a mid-prefix plane of the last level: everything at and past
        // it is unreachable there.
        let l = c.num_levels() - 1;
        let dead = (l, plan.planes[l].saturating_sub(2).max(1));
        let store = MemStore::from_compressed(&c).without(&[dead]);
        let out = rt(&c, &store, bound, &TolerantConfig::default()).unwrap();
        let report = out.degraded.as_ref().expect("loss must produce a degraded report");
        assert_eq!(report.lost_segments, vec![dead]);
        assert_eq!(report.achieved_planes[l], dead.1, "prefix truncated at the loss");
        // The honest achievable bound holds on the actual reconstruction.
        let measured = max_abs_error(field.data(), out.field.data());
        assert!(
            measured <= report.achievable_bound,
            "measured {measured} must be within reported {}",
            report.achievable_bound
        );
        assert!(report.achievable_bound > bound, "no re-plan can make up the lost planes");
        assert!(!report.bound_recovered());
    }

    #[test]
    fn replanning_stops_after_two_rounds_though_a_third_would_lose_more() {
        let field = Field::from_fn("r", 0, Shape::cube(17), |x, y, z| {
            ((x as f64) * 2.1).sin() * ((y as f64) * 1.7).cos() + ((z as f64) * 2.9).sin()
        });
        let c = Compressed::compress(&field, &CompressConfig { levels: 5, ..Default::default() });
        let bound = c.absolute_bound(1e-1);
        let plan = RetrievalPlan::from_planes(vec![2; 5]);
        // The plan's round loses (0, 1), the first re-plan round (2, 8) and
        // (3, 12), the second (4, 12); a third would go deeper at level 1
        // and lose (1, 8).
        let gone = [(0, 1), (1, 8), (2, 8), (3, 12), (4, 12)];
        let store = MemStore::from_compressed(&c).without(&gone);
        let out =
            fetch_plan_tolerant(&c, &store, &plan, bound, &TolerantConfig::default()).unwrap();
        let report = out.degraded.as_ref().expect("loss must be reported");
        assert!(report.replanned);
        assert_eq!(report.lost_segments, [gone[0], gone[2], gone[3], gone[4]]);
        // The round limit ended it, not the planner: level 1 has room left.
        let mut caps: Vec<u32> = c.levels().iter().map(|l| l.num_planes()).collect();
        for &(l, k) in &report.lost_segments {
            caps[l] = k;
        }
        let held = &report.achieved_planes;
        let next = greedy_plan_capped(c.levels(), c.theory_constants(), bound, held, &caps);
        assert!(next.planes[1] > held[1], "a third round would ask level 1 for more");
        assert_eq!(report.achievable_bound, c.estimate_for(held));
        let measured = max_abs_error(field.data(), out.field.data());
        assert!(measured <= report.achievable_bound);
    }

    #[test]
    fn replanning_compensates_at_surviving_levels() {
        let (field, c) = artifact();
        let bound = c.absolute_bound(1e-3);
        let plan = c.plan_theory(bound);
        // Kill plane 1 of level 0: the level is truncated to a single plane,
        // deep enough below the plan that the bound is genuinely missed and
        // compensation must kick in. Other levels survive untouched.
        assert!(plan.planes[0] > 2, "plan must lean on level 0 for this bound");
        let dead = (0usize, 1u32);
        let store = MemStore::from_compressed(&c).without(&[dead]);
        let out = rt(&c, &store, bound, &TolerantConfig::default()).unwrap();
        let report = out.degraded.as_ref().expect("loss must be reported");
        assert!(report.replanned, "default config should re-plan");
        // Compensation fetched deeper planes at some surviving level.
        let deeper = report
            .achieved_planes
            .iter()
            .zip(&report.requested_planes)
            .enumerate()
            .any(|(l, (&a, &r))| l != 0 && a > r);
        assert!(deeper, "re-plan should spend planes at surviving levels: {report:?}");
        let measured = max_abs_error(field.data(), out.field.data());
        assert!(measured <= report.achievable_bound);
    }

    #[test]
    fn planes_reach_the_sink_as_they_land_with_replan_rounds_appended() {
        let (_, c) = artifact();
        let bound = c.absolute_bound(1e-3);
        let plan = c.plan_theory(bound);
        let store = MemStore::from_compressed(&c).without(&[(0, 1)]);
        let fetched = std::cell::Cell::new(None);
        let mut delivered = Vec::new();
        let got = fetch_planes_tolerant(
            &c,
            &plan,
            bound,
            |key| {
                fetched.set(Some(key));
                store.fetch(key)
            },
            |key, _read| {
                // Handed over before the next plane is asked for.
                assert_eq!(fetched.get(), Some(key));
                delivered.push(key);
                Ok::<(), Infallible>(())
            },
        )
        .unwrap();
        assert!(got.replanned && got.lost == vec![(0, 1)]);
        // The first round is the plan, level-major, cut short at the loss...
        let first_round: Vec<SegmentKey> = (0..c.num_levels())
            .flat_map(|l| (0..if l == 0 { 1 } else { plan.planes[l] }).map(move |k| (l, k)))
            .collect();
        assert_eq!(delivered[..first_round.len()], first_round[..]);
        // ...and what the re-plan bought comes after it, each level still
        // a gapless ascending prefix when regrouped.
        assert!(delivered.len() > first_round.len(), "the re-plan must have added planes");
        let mut held = vec![0u32; c.num_levels()];
        for (l, k) in delivered {
            assert_eq!(k, held[l], "level {l} out of order");
            held[l] += 1;
        }
        assert_eq!(held, got.planes);
    }

    #[test]
    fn a_refusing_sink_ends_the_retrieval_and_is_not_a_lost_segment() {
        let (_, c) = artifact();
        let bound = c.absolute_bound(1e-4);
        let store = MemStore::from_compressed(&c);
        let mut fetches = 0;
        let stopped = fetch_planes_tolerant(
            &c,
            &c.plan_theory(bound),
            bound,
            |key| {
                fetches += 1;
                store.fetch(key)
            },
            |key, _read| if key == (1, 0) { Err("peer gone") } else { Ok(()) },
        )
        .unwrap_err();
        assert!(matches!(stopped, Stopped::Sink("peer gone")), "{stopped:?}");
        // Nothing was fetched after the refusal, let alone re-planned.
        let through_refusal = c.plan_theory(bound).planes[0] + 1;
        assert_eq!(fetches, through_refusal);
    }

    #[test]
    fn total_loss_of_a_level_still_decodes() {
        let (field, c) = artifact();
        let bound = c.absolute_bound(1e-4);
        // Plane 0 of the finest level missing: that level contributes nothing.
        let l = c.num_levels() - 1;
        let store = MemStore::from_compressed(&c).without(&[(l, 0)]);
        let out = rt(&c, &store, bound, &TolerantConfig::default()).unwrap();
        let report = out.degraded.as_ref().unwrap();
        assert_eq!(report.achieved_planes[l], 0);
        let measured = max_abs_error(field.data(), out.field.data());
        assert!(measured <= report.achievable_bound);
    }

    #[test]
    fn mismatched_plan_is_invalid_config() {
        let (_, c) = artifact();
        let store = MemStore::from_compressed(&c);
        let bad = RetrievalPlan::from_planes(vec![1; c.num_levels() + 1]);
        let err =
            fetch_plan_tolerant(&c, &store, &bad, 0.1, &TolerantConfig::default()).unwrap_err();
        assert!(matches!(err, PmrError::InvalidConfig { .. }));
    }

    #[test]
    fn same_seed_gives_identical_degraded_report() {
        let (_, c) = artifact();
        let bound = c.absolute_bound(1e-5);
        let run = |seed: u64| {
            let cfg = FaultConfig {
                permanent: 0.08,
                transient: 0.2,
                bit_flip: 0.1,
                ..FaultConfig::quiet(seed)
            };
            let inj = FaultInjector::new(MemStore::from_compressed(&c), cfg).unwrap();
            let out = rt(&c, &inj, bound, &TolerantConfig::default()).unwrap();
            (out.planes.clone(), out.degraded.clone(), out.stats.clone(), inj.log())
        };
        let a = run(1234);
        let b = run(1234);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1, "degraded reports must be bit-identical for one seed");
        assert_eq!(a.2, b.2, "fetch stats must be bit-identical for one seed");
        assert_eq!(a.3, b.3, "fault logs must be bit-identical for one seed");
    }
}
