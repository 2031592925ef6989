//! Integration: progressive sessions and coarse-resolution retrieval
//! through the facade crate, judged by the post-hoc analysis kernels and
//! the block-codec baseline of `pmr-bench`.

use pmr::mgard::{CompressConfig, Compressed, DecodeOptions, ProgressiveSession, RetrievalPlan};
use pmr::sim::{warpx_field, WarpXConfig, WarpXField};
use pmr_bench::analysis::{self, downsample};
use pmr_bench::blockcodec::{BlockCompressed, BlockConfig};

fn snapshot() -> pmr::field::Field {
    let cfg = WarpXConfig { size: 17, snapshots: 4, ..Default::default() };
    warpx_field(&cfg, WarpXField::Ex, 2)
}

#[test]
fn session_analysis_converges_with_refinement() {
    let field = snapshot();
    let c = Compressed::compress(&field, &CompressConfig::default());
    let mut session = ProgressiveSession::new(&c);

    let mut prev_hist = f64::INFINITY;
    for rel in [1e-1, 1e-3, 1e-5] {
        session.refine_theory(c.absolute_bound(rel));
        let approx = session.current_field();
        let report = analysis::fidelity(&field, &approx);
        assert!(
            report.histogram_l1 <= prev_hist + 1e-9,
            "analysis fidelity regressed at rel {rel}"
        );
        prev_hist = report.histogram_l1;
    }
    assert!(prev_hist < 0.05, "final histogram distance {prev_hist}");
}

#[test]
fn coarse_retrieval_supports_cheap_analysis() {
    let field = snapshot();
    let c = Compressed::compress(&field, &CompressConfig::default());
    // Fetch only the two coarsest levels.
    let mut planes = vec![0u32; c.num_levels()];
    planes[0] = c.num_planes();
    planes[1] = c.num_planes();
    let plan = RetrievalPlan::from_planes(planes);
    let target = 1usize;
    let coarse = c.decode_plan(&plan, &DecodeOptions::at_level(target)).expect("coarse plan");
    let stride = 1usize << (c.num_levels() - 1 - target);
    let reference = downsample(&field, stride);
    assert_eq!(coarse.shape(), reference.shape());
    // Quantile analysis on the coarse view is close to the reference's.
    let q1 = analysis::quantiles(&reference, &[0.5])[0];
    let q2 = analysis::quantiles(&coarse, &[0.5])[0];
    assert!((q1 - q2).abs() <= 0.25 * field.value_range(), "median drifted: {q1} vs {q2}");
    // And it cost a tiny fraction of the payload.
    assert!(c.retrieved_bytes(&plan) < c.total_bytes() / 20);
}

#[test]
fn block_and_multilevel_agree_at_high_precision() {
    let field = snapshot();
    let ml = Compressed::compress(&field, &CompressConfig::default());
    let bc = BlockCompressed::compress(&field, &BlockConfig::default());
    let a = ml.retrieve(&ml.plan_full());
    let b = bc.retrieve(bc.num_planes());
    // Both codecs reconstruct the same field to within quantization noise.
    let d = pmr::field::error::max_abs_error(a.data(), b.data());
    assert!(d < 1e-4 * field.max_abs().max(1.0), "codecs disagree by {d}");
}
