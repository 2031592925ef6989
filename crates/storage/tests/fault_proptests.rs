//! Property tests for the fault-injection subsystem: no seeded fault
//! schedule — whatever mix of transients, truncations, bit flips,
//! flapping, and permanent losses — may make tolerant retrieval panic, and
//! the reconstruction must always satisfy the bound the retrieval *reports*
//! (the requested bound when clean, the honest achievable bound when
//! degraded). Determinism rides along: one seed, one outcome. On the seeded
//! case driver `pmr_rng::cases`.

use pmr_error::PmrError;
use pmr_field::{error::max_abs_error, Field, Shape};
use pmr_mgard::{CompressConfig, Compressed};
use pmr_rng::{cases, Rng};
use pmr_storage::{
    fetch_plan_tolerant, FaultConfig, FaultInjector, MemStore, RetryPolicy, SegmentStore,
    TolerantConfig, TolerantRetrieval,
};

const CASES: u32 = 48;

/// Plan with the theory estimator at `abs_bound`, then execute tolerantly.
fn retrieve_theory_tolerant(
    c: &Compressed,
    store: &dyn SegmentStore,
    abs_bound: f64,
    cfg: &TolerantConfig,
) -> Result<TolerantRetrieval, PmrError> {
    fetch_plan_tolerant(c, store, &c.plan_theory(abs_bound), abs_bound, cfg)
}

fn sample(g: &mut Rng) -> (Field, Compressed) {
    let shape = Shape::cube(9);
    let data = (0..shape.len()).map(|_| g.range(-1.0..1.0)).collect();
    let field = Field::new("fp", 0, shape, data);
    let c = Compressed::compress(&field, &CompressConfig { levels: 3, ..Default::default() });
    (field, c)
}

/// The headline guarantee of the subsystem: under *any* fault schedule,
/// retrieval completes without panicking and the field it returns
/// satisfies the bound it reports.
#[test]
fn no_fault_schedule_breaks_the_reported_bound() {
    cases("no_fault_schedule_breaks_the_reported_bound", CASES, |g| {
        let (field, c) = sample(g);
        let cfg = FaultConfig {
            seed: g.next_u64(),
            permanent: g.range(0.0..0.3),
            transient: g.range(0.0..0.9),
            truncate: g.range(0.0..0.6),
            bit_flip: g.range(0.0..0.6),
            flap_period: g.range(0..4u32),
        };
        let rel_bound = g.one_of(&[1e-2, 1e-3, 1e-5]);
        let inj = FaultInjector::new(MemStore::from_compressed(&c), cfg).expect("valid config");
        let bound = c.absolute_bound(rel_bound);
        let out = retrieve_theory_tolerant(&c, &inj, bound, &TolerantConfig::default())
            .expect("must not fail hard");

        let measured = max_abs_error(field.data(), out.field.data());
        match &out.degraded {
            None => {
                assert!(measured <= bound, "clean retrieval missed its bound: {measured} > {bound}")
            }
            Some(report) => {
                assert!(
                    measured <= report.achievable_bound,
                    "degraded retrieval violated its reported bound: {measured} > {}",
                    report.achievable_bound
                );
                assert!(!report.lost_segments.is_empty());
                assert_eq!(&out.planes, &report.achieved_planes);
                // Truncation keeps a valid prefix: never more than requested
                // at a dead level's plane, never past the level's capacity.
                for (l, (&a, lvl)) in out.planes.iter().zip(c.levels()).enumerate() {
                    assert!(a <= lvl.num_planes(), "level {l} over-decoded");
                }
            }
        }
        // The estimator the report quotes is exactly the theory estimate of
        // what was decoded — honest by construction.
        assert_eq!(out.estimated_error, c.estimate_for(&out.planes));
    });
}

/// Same seed, same artifact, same knobs: bit-identical planes, report,
/// stats, and fault log — across independent stores and injectors.
#[test]
fn fault_schedules_are_deterministic() {
    cases("fault_schedules_are_deterministic", CASES, |g| {
        let (_, c) = sample(g);
        let fault_seed = g.next_u64();
        let (transient, bit_flip, permanent) =
            (g.range(0.0..0.6), g.range(0.0..0.4), g.range(0.0..0.2));
        let bound = c.absolute_bound(1e-4);
        let run = || {
            let cfg =
                FaultConfig { permanent, transient, bit_flip, ..FaultConfig::quiet(fault_seed) };
            let inj = FaultInjector::new(MemStore::from_compressed(&c), cfg).unwrap();
            let out =
                retrieve_theory_tolerant(&c, &inj, bound, &TolerantConfig::default()).unwrap();
            (out.planes.clone(), out.degraded.clone(), out.stats.clone(), inj.log())
        };
        assert_eq!(run(), run());
    });
}

/// Every retry answers a counted failure and every attempt is counted —
/// still no panics under faults.
#[test]
fn retries_are_accounted_to_counted_failures() {
    cases("retries_are_accounted_to_counted_failures", CASES, |g| {
        let (_, c) = sample(g);
        let cfg = FaultConfig { transient: g.range(0.0..0.65), ..FaultConfig::quiet(g.next_u64()) };
        let inj = FaultInjector::new(MemStore::from_compressed(&c), cfg).unwrap();
        let tc = TolerantConfig { policy: RetryPolicy { max_attempts: g.range(1u32..6) } };
        let out = retrieve_theory_tolerant(&c, &inj, c.absolute_bound(1e-3), &tc)
            .expect("faulty run must not fail hard");
        let stats = &out.stats;
        assert!(stats.attempts >= stats.retries);
        assert!(stats.transients + stats.corruptions >= stats.retries);
    });
}
