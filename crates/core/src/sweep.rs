//! Strategy-agnostic conformance sweep driver.
//!
//! A *sweep* runs a [`Retriever`] over an artifact across a grid of error
//! bounds and measures, for every point, what the plan claimed versus what
//! the reconstruction actually achieved. The driver knows nothing about any
//! concrete strategy — it speaks only the [`Retriever`] trait — so Theory,
//! D-MGARD, E-MGARD, the combined retriever, and anything a downstream crate
//! implements are all swept identically. Every point is one
//! [`crate::api::retrieve`] on the direct backend, so a sweep measures
//! exactly what the product returns. `pmr-conformance` builds its
//! violation-rate and overshoot accounting on these points, and
//! [`crate::experiment::compare_on_field`] is a view over them.

use crate::api::{retrieve, Backend, Dataset, RetrievalRequest};
use crate::framework::Retriever;
use pmr_error::PmrError;
use pmr_field::Field;
use pmr_mgard::Compressed;

/// One `(strategy × artifact × bound)` measurement from a sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Strategy name as reported by [`Retriever::name`].
    pub strategy: String,
    /// Name of the swept field/artifact.
    pub field_name: String,
    /// Timestep of the swept snapshot.
    pub timestep: usize,
    /// The absolute error bound handed to the planner.
    pub abs_bound: f64,
    /// The plan's own error claim (`f64::INFINITY` when the strategy
    /// carries no estimator, e.g. a pure DNN plane prediction).
    pub estimated_err: f64,
    /// Measured `L∞` error of the reconstruction against the original.
    pub achieved_err: f64,
    /// PSNR of the reconstruction against the original.
    pub psnr: f64,
    /// Bytes fetched under the plan.
    pub bytes: u64,
    /// Total compressed size of the artifact.
    pub total_bytes: u64,
    /// The per-level plane counts decoded (the strategy's plan, clamped to
    /// each level's capacity as [`crate::api::plan_for_target`] does).
    pub planes: Vec<u32>,
}

impl SweepPoint {
    /// Did the reconstruction exceed the requested bound?
    pub fn violated(&self) -> bool {
        self.achieved_err > self.abs_bound
    }

    /// Did the strategy's own estimator claim the bound was met?
    ///
    /// Soundness contracts are scoped to claimed points: a bound below the
    /// quantization floor is *unreachable* — the greedy planner fetches
    /// everything and reports an estimate above the bound — which is a
    /// property of the encoding, not a violation by the strategy.
    pub fn claimed(&self) -> bool {
        self.estimated_err <= self.abs_bound
    }

    /// `achieved / bound` ratio; values above 1 quantify how badly a
    /// violated point overshot. Zero achieved error maps to 0 regardless of
    /// the bound so that exact reconstructions never divide by zero.
    pub fn overshoot(&self) -> f64 {
        if self.achieved_err == 0.0 {
            0.0
        } else {
            self.achieved_err / self.abs_bound
        }
    }

    /// Fraction of the artifact fetched (the paper's retrieval-size axis).
    pub fn fraction_fetched(&self) -> f64 {
        self.bytes as f64 / self.total_bytes.max(1) as f64
    }
}

/// Sweep one strategy over `abs_bounds` for a single artifact.
///
/// `original` must be the exact field the artifact was compressed from;
/// achieved errors are measured against it.
///
/// Fails when the retriever produces a plan that does not match the
/// artifact (e.g. a model trained for a different level count).
pub fn sweep_strategy(
    original: &Field,
    compressed: &Compressed,
    features: &[f32],
    retriever: &dyn Retriever,
    abs_bounds: &[f64],
) -> Result<Vec<SweepPoint>, PmrError> {
    let dataset = Dataset::new(compressed).with_original(original).with_features(features);
    abs_bounds
        .iter()
        .map(|&abs_bound| {
            let request = RetrievalRequest::abs(abs_bound).measured();
            let out = retrieve(&dataset, retriever, &request, &Backend::Direct)?;
            Ok(SweepPoint {
                strategy: out.strategy,
                field_name: original.name().to_string(),
                timestep: original.timestep(),
                abs_bound,
                estimated_err: out.claimed_error,
                // A measured request always fills both; a missing value
                // would count as a miss, never as a pass.
                achieved_err: out.achieved_error.unwrap_or(f64::INFINITY),
                psnr: out.psnr.unwrap_or(f64::NEG_INFINITY),
                bytes: out.bytes,
                total_bytes: compressed.total_bytes(),
                planes: out.planes,
            })
        })
        .collect()
}

/// Sweep every strategy over `abs_bounds` for a single artifact.
pub fn sweep(
    original: &Field,
    compressed: &Compressed,
    features: &[f32],
    retrievers: &[&dyn Retriever],
    abs_bounds: &[f64],
) -> Result<Vec<SweepPoint>, PmrError> {
    let mut out = Vec::new();
    for r in retrievers {
        out.extend(sweep_strategy(original, compressed, features, *r, abs_bounds)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::retrieval_features;
    use crate::framework::Theory;
    use pmr_field::Shape;
    use pmr_mgard::CompressConfig;

    fn wave() -> Field {
        Field::from_fn("w", 0, Shape::cube(9), |x, y, z| {
            ((x as f64) * 0.4).sin() + ((y as f64) * 0.3).cos() + (z as f64) * 0.02
        })
    }

    #[test]
    fn theory_sweep_is_sound_on_claimed_points() {
        let field = wave();
        let c = Compressed::compress(&field, &CompressConfig::default());
        let feats = retrieval_features(&field, &c);
        let bounds: Vec<f64> = [1e-1, 1e-2, 1e-3, 1e-4].map(|r| c.absolute_bound(r)).to_vec();
        let points = sweep_strategy(&field, &c, &feats, &Theory, &bounds).unwrap();
        assert_eq!(points.len(), bounds.len());
        for p in &points {
            assert_eq!(p.strategy, "MGARD");
            assert!(p.claimed(), "all these bounds are reachable");
            assert!(!p.violated(), "theory violated at bound {}", p.abs_bound);
            assert!(p.overshoot() <= 1.0);
            assert!(p.fraction_fetched() <= 1.0);
        }
        // Tighter bounds fetch no fewer bytes.
        for w in points.windows(2) {
            assert!(w[1].bytes >= w[0].bytes);
        }
    }

    #[test]
    fn sweep_covers_all_strategies() {
        let field = wave();
        let c = Compressed::compress(&field, &CompressConfig::default());
        let feats = retrieval_features(&field, &c);
        let bounds = [c.absolute_bound(1e-2)];
        let rs: Vec<&dyn Retriever> = vec![&Theory, &Theory];
        let points = sweep(&field, &c, &feats, &rs, &bounds).unwrap();
        assert_eq!(points.len(), 2);
    }
}
