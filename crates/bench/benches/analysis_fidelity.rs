//! Extension bench: analysis fidelity per byte.
//!
//! The paper's motivation (§I) is that post-hoc analytics is I/O-bound;
//! progressive retrieval lets an analysis pay only for the accuracy it
//! needs. This bench quantifies that in *analysis* terms: how do
//! histograms, isosurface activity, quantiles and total variation of the
//! retrieved data converge toward the originals as the error bound
//! tightens — and what does a coarse-resolution retrieval (reduced degrees
//! of freedom) buy for nearly free?

use pmr_bench::analysis::{self, downsample};
use pmr_bench::{bench_size, bench_timesteps, datasets, human_bytes, output, sci};
use pmr_mgard::{CompressConfig, Compressed, DecodeOptions, RetrievalPlan};
use pmr_sim::WarpXField;

fn main() {
    let size = bench_size();
    let ts = bench_timesteps();
    let t = ts / 2;
    let field = datasets::warpx(&datasets::warpx_cfg(size, ts), WarpXField::Ex, t);
    let c = Compressed::compress(&field, &CompressConfig::default());

    let mut rows = Vec::new();
    let mut prev_hist = f64::INFINITY;
    for k in (-7i32..=-1).rev() {
        let rel = 10f64.powi(k);
        let plan = c.plan_theory(c.absolute_bound(rel));
        let approx = c.retrieve(&plan);
        let r = analysis::fidelity(&field, &approx);
        rows.push(vec![
            sci(rel),
            human_bytes(c.retrieved_bytes(&plan)),
            format!("{:.4}", r.histogram_l1),
            format!("{:.4}", r.isosurface_rel_err),
            format!("{:.5}", r.total_variation_rel_err),
            format!("{:.2e}", r.quantile_rel_err),
        ]);
        if rel <= 1e-3 {
            assert!(
                r.histogram_l1 <= prev_hist + 0.05,
                "histogram fidelity should improve with tighter bounds"
            );
            prev_hist = r.histogram_l1;
        }
    }
    output::print_table(
        &format!("Analysis fidelity vs error bound (E_x, t={t}, {size}^3)"),
        &["rel_bound", "bytes", "hist_L1", "iso_rel_err", "tv_rel_err", "quantile_err"],
        &rows,
    );
    output::write_csv(
        "analysis_fidelity.csv",
        &["rel_bound", "bytes", "hist_l1", "iso_rel_err", "tv_rel_err", "quantile_err"],
        &rows,
    );

    // Coarse-resolution analysis: a histogram/quantile pass often does not
    // need the full grid at all. Compare the analysis of a level-k coarse
    // retrieval against the analysis of the downsampled original.
    let mut rows2 = Vec::new();
    for target in 0..c.num_levels() - 1 {
        let steps = c.num_levels() - 1 - target;
        let stride = 1usize << steps;
        // Plan: fetch only levels <= target at moderate precision.
        let mut planes = vec![0u32; c.num_levels()];
        for p in planes.iter_mut().take(target + 1) {
            *p = 24;
        }
        let plan = RetrievalPlan::from_planes(planes);
        let coarse = c.decode_plan(&plan, &DecodeOptions::at_level(target)).expect("coarse plan");
        let reference = downsample(&field, stride);
        let r = analysis::fidelity(&reference, &coarse);
        rows2.push(vec![
            format!("level_{target} ({})", coarse.shape()),
            human_bytes(c.retrieved_bytes(&plan)),
            format!("{:.4}", r.histogram_l1),
            format!("{:.2e}", r.quantile_rel_err),
        ]);
    }
    output::print_table(
        "Coarse-resolution analysis (vs downsampled original)",
        &["grid", "bytes", "hist_L1", "quantile_err"],
        &rows2,
    );
    output::write_csv(
        "analysis_fidelity_coarse.csv",
        &["grid", "bytes", "hist_l1", "quantile_err"],
        &rows2,
    );
    println!(
        "\nA distribution-level analysis is served by kilobytes of coarse levels;\n\
         only feature-hunting at full resolution needs the deep planes — the paper's\n\
         motivating progressive-analytics scenario."
    );
}
