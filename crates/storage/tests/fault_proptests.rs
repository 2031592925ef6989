//! Property tests for the fault-injection subsystem: no seeded fault
//! schedule — whatever mix of transients, timeouts, truncations, bit flips,
//! spikes, and permanent losses — may make tolerant retrieval panic, and
//! the reconstruction must always satisfy the bound the retrieval *reports*
//! (the requested bound when clean, the honest achievable bound when
//! degraded). Determinism rides along: one seed, one outcome.

use pmr_error::PmrError;
use pmr_field::{error::max_abs_error, Field, Shape};
use pmr_mgard::{CompressConfig, Compressed};
use pmr_storage::{
    fetch_plan_tolerant, FaultConfig, FaultInjector, MemStore, Placement, RetryPolicy,
    SegmentStore, StorageHierarchy, TolerantConfig, TolerantRetrieval,
};
use proptest::prelude::*;

/// Plan with the theory estimator at `abs_bound`, then execute tolerantly.
fn retrieve_theory_tolerant(
    c: &Compressed,
    store: &dyn SegmentStore,
    abs_bound: f64,
    cfg: &TolerantConfig,
    model: Option<(&StorageHierarchy, &Placement)>,
) -> Result<TolerantRetrieval, PmrError> {
    fetch_plan_tolerant(c, store, &c.plan_theory(abs_bound), abs_bound, cfg, model, None)
}

fn sample(seed: u64) -> (Field, Compressed) {
    let field = Field::from_fn("fp", 0, Shape::cube(9), move |x, y, z| {
        let h =
            ((x + 31 * y + 997 * z) as u64).wrapping_mul(seed | 1).wrapping_mul(0x9E3779B97F4A7C15);
        ((h >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    });
    let c = Compressed::compress(&field, &CompressConfig { levels: 3, ..Default::default() });
    (field, c)
}

fn fault_config(
    seed: u64,
    permanent: f64,
    transient: f64,
    timeout: f64,
    truncate: f64,
    bit_flip: f64,
    latency_spike: f64,
) -> FaultConfig {
    FaultConfig {
        seed,
        permanent,
        transient,
        timeout,
        truncate,
        bit_flip,
        latency_spike,
        spike_s: 0.01,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline guarantee of the subsystem: under *any* fault schedule,
    /// retrieval completes without panicking and the field it returns
    /// satisfies the bound it reports.
    #[test]
    fn no_fault_schedule_breaks_the_reported_bound(
        field_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        permanent in 0.0f64..0.3,
        transient in 0.0f64..0.8,
        timeout in 0.0f64..0.4,
        truncate in 0.0f64..0.6,
        bit_flip in 0.0f64..0.6,
        spike in 0.0f64..1.0,
        bound_ix in 0usize..3,
        replan in any::<bool>(),
    ) {
        let rel_bound = [1e-2, 1e-3, 1e-5][bound_ix];
        let (field, c) = sample(field_seed);
        let cfg = fault_config(fault_seed, permanent, transient, timeout, truncate, bit_flip, spike);
        let inj = FaultInjector::new(MemStore::from_compressed(&c), cfg).expect("valid config");
        let tc = TolerantConfig { replan, ..TolerantConfig::default() };
        let bound = c.absolute_bound(rel_bound);
        let out = retrieve_theory_tolerant(&c, &inj, bound, &tc, None).expect("must not fail hard");

        let measured = max_abs_error(field.data(), out.field.data());
        match &out.degraded {
            None => prop_assert!(
                measured <= bound,
                "clean retrieval missed its bound: {measured} > {bound}"
            ),
            Some(report) => {
                prop_assert!(
                    measured <= report.achievable_bound,
                    "degraded retrieval violated its reported bound: \
                     {measured} > {}", report.achievable_bound
                );
                prop_assert!(!report.lost_segments.is_empty());
                prop_assert_eq!(&out.planes, &report.achieved_planes);
                // Truncation keeps a valid prefix: never more than requested
                // at a dead level's plane, never past the level's capacity.
                for (l, (&a, lvl)) in out.planes.iter().zip(c.levels()).enumerate() {
                    prop_assert!(a <= lvl.num_planes(), "level {l} over-decoded");
                }
            }
        }
        // The estimator the report quotes is exactly the theory estimate of
        // what was decoded — honest by construction.
        prop_assert_eq!(out.estimated_error, c.estimate_for(&out.planes));
    }

    /// Same seed, same artifact, same knobs: bit-identical planes, report,
    /// stats, and fault log — across independent stores and injectors.
    #[test]
    fn fault_schedules_are_deterministic(
        field_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        transient in 0.0f64..0.6,
        bit_flip in 0.0f64..0.4,
        permanent in 0.0f64..0.2,
    ) {
        let (_, c) = sample(field_seed);
        let bound = c.absolute_bound(1e-4);
        let run = || {
            let cfg = fault_config(fault_seed, permanent, transient, 0.0, 0.0, bit_flip, 0.0);
            let inj = FaultInjector::new(MemStore::from_compressed(&c), cfg).unwrap();
            let out = retrieve_theory_tolerant(&c, &inj, bound, &TolerantConfig::default(), None).unwrap();
            (out.planes.clone(), out.degraded.clone(), out.stats.clone(), inj.log())
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.2, b.2);
        prop_assert_eq!(a.3, b.3);
    }

    /// With a tier model attached, the virtual clock moves forward and
    /// stats stay consistent — still no panics under faults.
    #[test]
    fn modelled_runs_account_time_consistently(
        field_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        transient in 0.0f64..0.5,
        max_attempts in 1u32..6,
    ) {
        let (_, c) = sample(field_seed);
        let h = StorageHierarchy::summit_like();
        let p = Placement::coarse_fast(c.num_levels(), &h);
        let cfg = fault_config(fault_seed, 0.0, transient, 0.0, 0.0, 0.0, 0.0);
        let inj = FaultInjector::new(MemStore::from_compressed(&c), cfg).unwrap();
        let tc = TolerantConfig {
            policy: RetryPolicy { max_attempts, ..RetryPolicy::default() },
            ..TolerantConfig::default()
        };
        let out = retrieve_theory_tolerant(&c, &inj, c.absolute_bound(1e-3), &tc, Some((&h, &p)))
            .expect("modelled run must not fail hard");
        prop_assert!(out.stats.virtual_time_s.is_finite());
        prop_assert!(out.stats.virtual_time_s >= 0.0);
        prop_assert!(out.stats.attempts >= out.stats.retries);
        if out.stats.bytes > 0 {
            prop_assert!(out.stats.virtual_time_s > 0.0, "fetched bytes must cost time");
        }
    }
}
