//! Property tests for progressive sessions, plan refinement and artifact
//! persistence, on the seeded case driver `pmr_rng::cases`.

use pmr_field::{Field, Shape};
use pmr_mgard::{
    persist, refine_plan, CompressConfig, Compressed, ProgressiveSession, RetrievalPlan,
    TransformMode,
};
use pmr_rng::{cases, Rng};

const CASES: u32 = 32;

fn arb_field(g: &mut Rng) -> Field {
    let shape = Shape::d3(g.range(3..8), g.range(3..8), g.range(1..6));
    let data = (0..shape.len()).map(|_| g.range(-5.0..5.0)).collect();
    Field::new("p", 0, shape, data)
}

fn arb_config(g: &mut Rng) -> CompressConfig {
    CompressConfig {
        levels: g.range(2..6),
        num_planes: g.range(6..24),
        mode: g.one_of(&[TransformMode::Interpolation, TransformMode::L2Projection]),
        ..Default::default()
    }
}

#[test]
fn persistence_roundtrip_any_artifact() {
    cases("persistence_roundtrip_any_artifact", CASES, |g| {
        let c = Compressed::compress(&arb_field(g), &arb_config(g));
        let rt = persist::from_bytes(&persist::to_bytes(&c).expect("encode")).expect("roundtrip");
        assert_eq!(rt.num_levels(), c.num_levels());
        let plan = c.plan_theory(c.absolute_bound(1e-3));
        let plan_rt = rt.plan_theory(rt.absolute_bound(1e-3));
        assert_eq!(&plan, &plan_rt);
        let r1 = c.retrieve(&plan);
        let r2 = rt.retrieve(&plan_rt);
        assert_eq!(r1.data(), r2.data());
    });
}

#[test]
fn session_monotone_and_consistent() {
    cases("session_monotone_and_consistent", CASES, |g| {
        let c = Compressed::compress(&arb_field(g), &CompressConfig::default());
        let bounds = g.vec(1..6, |g| g.range(1e-7..1.0));
        let mut session = ProgressiveSession::new(&c);
        let mut prev_planes = vec![0u32; c.num_levels()];
        let mut total = 0u64;
        for &rel in &bounds {
            let delta = session.refine_theory(c.absolute_bound(rel));
            total += delta;
            // Monotone: plane counts never decrease.
            assert!(session.planes().iter().zip(&prev_planes).all(|(&now, &before)| now >= before));
            prev_planes = session.planes().to_vec();
        }
        assert_eq!(session.fetched_bytes(), total);
        // Fetched bytes equal a direct fetch of the final plane counts.
        let direct = c.retrieved_bytes(&RetrievalPlan::from_planes(prev_planes));
        assert_eq!(total, direct);
    });
}

#[test]
fn refine_plan_estimate_is_self_consistent() {
    cases("refine_plan_estimate_is_self_consistent", CASES, |g| {
        let field = arb_field(g);
        let c = Compressed::compress(&field, &CompressConfig::default());
        let bound = c.absolute_bound(10f64.powf(g.range(-8.0..0.0)));
        let start = vec![g.range(0u32..20); c.num_levels()];
        let plan = refine_plan(c.levels(), c.theory_constants(), bound, &start);
        // The reported estimate matches an independent recomputation.
        let est = c.estimate_for(&plan.planes);
        assert!((plan.estimated_error - est).abs() <= 1e-9 * (1.0 + est));
        // And the plan is achievable: bound respected whenever claimed.
        if plan.estimated_error <= bound {
            let rec = c.retrieve(&plan);
            let err = pmr_field::error::max_abs_error(field.data(), rec.data());
            assert!(err <= bound * (1.0 + 1e-12));
        }
    });
}
