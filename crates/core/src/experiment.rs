//! Experiment orchestration: the paper's train-on-early / test-on-late
//! protocol (§IV-A4) and the three-way retrieval comparison behind
//! Figs. 1, 2, 12 and 13.

use crate::dmgard::{DMgard, DMgardConfig};
use crate::emgard::{build_samples_many, EMgard, EMgardConfig, TrainSample};
use crate::features;
use crate::framework::{measure_plan, RetrievalSummary};
use crate::records::{collect_records_many, RetrievalRecord};
use pmr_error::PmrError;
use pmr_field::Field;
use pmr_mgard::{CompressConfig, Compressed};

/// Configuration of one end-to-end experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    pub compress: CompressConfig,
    pub dmgard: DMgardConfig,
    pub emgard: EMgardConfig,
    /// Relative bounds used when harvesting D-MGARD training records.
    pub train_bounds: Vec<f64>,
}

impl ExperimentConfig {
    /// Paper-style defaults.
    pub fn paper_defaults() -> Self {
        ExperimentConfig {
            compress: CompressConfig::default(),
            dmgard: DMgardConfig::default(),
            emgard: EMgardConfig::default(),
            train_bounds: crate::records::standard_rel_bounds(),
        }
    }
}

/// Both trained models plus the compression parameters they assume.
pub struct TrainedModels {
    pub dmgard: DMgard,
    pub emgard: EMgard,
    pub num_levels: usize,
    pub num_planes: u32,
}

impl TrainedModels {
    /// The combined retriever — the paper's closing future-work item:
    /// D-MGARD supplies the initial plane counts, E-MGARD's learned
    /// constants check and refine them (grow until the learned estimate
    /// meets the bound, then shed planes the estimate shows to be
    /// unnecessary). Recovers most of D-MGARD's bound violations while
    /// keeping learned-retriever savings.
    pub fn plan_combined(
        &self,
        compressed: &Compressed,
        features: &[f32],
        abs_bound: f64,
    ) -> pmr_mgard::RetrievalPlan {
        let initial = self.dmgard.predict(features, abs_bound);
        let constants = self.emgard.predict_constants(compressed);
        pmr_mgard::retrieve::refine_plan(compressed.levels(), &constants, abs_bound, &initial)
    }
}

/// Train D-MGARD and E-MGARD from a stream of training snapshots.
///
/// `fields` yields the training snapshots (paper: the first half of the
/// timesteps of one field). Each snapshot is compressed once; D-MGARD
/// records and E-MGARD samples are harvested from the same artifact.
pub fn train_models(
    fields: impl IntoIterator<Item = Field>,
    cfg: &ExperimentConfig,
) -> (TrainedModels, Vec<RetrievalRecord>) {
    let fields: Vec<Field> = fields.into_iter().collect();
    assert!(!fields.is_empty(), "no training snapshots supplied");

    // Harvesting (compress + sweep bounds + sample plans) dominates
    // wall-clock; each stage fans out over the snapshots through the batch
    // APIs, which are bit-identical to their sequential counterparts.
    let artifacts = Compressed::compress_many(&fields, &cfg.compress);
    let rec_items: Vec<(&Field, &Compressed)> = fields.iter().zip(&artifacts).collect();
    let records: Vec<RetrievalRecord> =
        collect_records_many(&rec_items, &cfg.train_bounds).into_iter().flatten().collect();
    let sample_items: Vec<(&Field, &Compressed, u64)> =
        fields.iter().zip(&artifacts).map(|(f, c)| (f, c, f.timestep() as u64)).collect();
    let esamples: Vec<TrainSample> =
        build_samples_many(&sample_items, &cfg.emgard).into_iter().flatten().collect();

    let num_levels = artifacts[0].num_levels();
    let num_planes = artifacts[0].num_planes();
    let (dmgard, _) = DMgard::train(&records, num_levels, num_planes, &cfg.dmgard);
    let (emgard, _) = EMgard::train(&esamples, &cfg.emgard);
    (TrainedModels { dmgard, emgard, num_levels, num_planes }, records)
}

/// One row of the three-way comparison at a single bound on a single
/// snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    pub field_name: String,
    pub timestep: usize,
    pub rel_bound: f64,
    pub abs_bound: f64,
    pub theory: RetrievalSummary,
    pub dmgard: RetrievalSummary,
    pub emgard: RetrievalSummary,
    /// The combined D+E retriever (extension; see
    /// [`TrainedModels::plan_combined`]).
    pub combined: RetrievalSummary,
}

impl ComparisonRow {
    /// Saved retrieval fraction of D-MGARD vs the original (Equation 8).
    pub fn saving_d(&self) -> f64 {
        saving(self.theory.bytes, self.dmgard.bytes)
    }

    /// Saved retrieval fraction of E-MGARD vs the original (Equation 8).
    pub fn saving_e(&self) -> f64 {
        saving(self.theory.bytes, self.emgard.bytes)
    }
}

/// `|D_mgard − D_new| / D_mgard` (Equation 8).
pub fn saving(theory_bytes: u64, new_bytes: u64) -> f64 {
    if theory_bytes == 0 {
        return 0.0;
    }
    (theory_bytes as f64 - new_bytes as f64).abs() / theory_bytes as f64
}

/// Run all three retrievers on one snapshot over `rel_bounds`.
///
/// Fails when a model produces a plan incompatible with the artifact
/// (e.g. trained for a different level count).
pub fn compare_on_field(
    field: &Field,
    models: &TrainedModels,
    cfg: &ExperimentConfig,
    rel_bounds: &[f64],
) -> Result<Vec<ComparisonRow>, PmrError> {
    let compressed = Compressed::compress(field, &cfg.compress);
    let feats = features::retrieval_features(field, &compressed);
    // E-MGARD constants depend only on the artifact, not the bound.
    let constants = models.emgard.predict_constants(&compressed);
    rel_bounds
        .iter()
        .map(|&rel| {
            let abs = compressed.absolute_bound(rel);
            let tplan = compressed.plan_theory(abs);
            let dplan = models.dmgard.predict_plan(&feats, abs);
            let eplan = compressed.plan_with_constants(abs, &constants);
            let cplan = pmr_mgard::retrieve::refine_plan(
                compressed.levels(),
                &constants,
                abs,
                &dplan.planes,
            );
            Ok(ComparisonRow {
                field_name: field.name().to_string(),
                timestep: field.timestep(),
                rel_bound: rel,
                abs_bound: abs,
                theory: measure_plan(field, &compressed, &tplan)?,
                dmgard: measure_plan(field, &compressed, &dplan)?,
                emgard: measure_plan(field, &compressed, &eplan)?,
                combined: measure_plan(field, &compressed, &cplan)?,
            })
        })
        .collect()
}

/// Per-level signed prediction errors (`predicted − actual`) of D-MGARD on
/// a set of records — the data behind Figs. 9–11.
pub fn dmgard_prediction_errors(records: &[RetrievalRecord], model: &DMgard) -> Vec<Vec<i64>> {
    let nl = model.num_levels();
    let mut per_level: Vec<Vec<i64>> = vec![Vec::with_capacity(records.len()); nl];
    for r in records {
        let pred = model.predict(&r.features, r.achieved_err);
        for (l, (&p, &a)) in pred.iter().zip(&r.planes).enumerate() {
            per_level[l].push(p as i64 - a as i64);
        }
    }
    per_level
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmr_field::Shape;
    use pmr_nn::TrainConfig;

    fn snapshot(t: usize) -> Field {
        Field::from_fn("x", t, Shape::cube(9), move |x, y, z| {
            ((x as f64) * (0.4 + 0.03 * t as f64)).sin()
                + ((y as f64) * 0.25).cos() * 0.5
                + (z as f64) * 0.02
        })
    }

    fn fast_experiment() -> ExperimentConfig {
        ExperimentConfig {
            compress: CompressConfig { levels: 3, num_planes: 16, ..Default::default() },
            dmgard: DMgardConfig {
                hidden: vec![24, 24],
                train: TrainConfig { epochs: 50, batch_size: 32, lr: 3e-3, ..Default::default() },
                ..Default::default()
            },
            emgard: EMgardConfig {
                epochs: 50,
                samples_per_artifact: 12,
                hidden: vec![32, 8],
                ..Default::default()
            },
            train_bounds: vec![1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1],
        }
    }

    #[test]
    fn end_to_end_pipeline() {
        let cfg = fast_experiment();
        let (models, records) = train_models((0..3).map(snapshot), &cfg);
        assert_eq!(records.len(), 3 * cfg.train_bounds.len());

        // Evaluate on an unseen later snapshot.
        let test = snapshot(4);
        let rows = compare_on_field(&test, &models, &cfg, &[1e-4, 1e-2]).unwrap();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            // Theory always respects the bound.
            assert!(row.theory.achieved_err <= row.abs_bound);
            // E-MGARD reads no more than the theory baseline.
            assert!(row.emgard.bytes <= row.theory.bytes, "E read more than theory");
            assert!(row.saving_e() >= 0.0);
            assert!(row.saving_d() >= 0.0);
            // The combined retriever's plan satisfies E-MGARD's estimate,
            // so its achieved error tracks the bound like E-MGARD's.
            assert!(row.combined.bytes > 0);
            assert!(row.combined.achieved_err.is_finite());
        }

        // plan_combined equals the refine primitive applied to D's plan.
        let compressed = Compressed::compress(&test, &cfg.compress);
        let feats = crate::features::retrieval_features(&test, &compressed);
        let abs = compressed.absolute_bound(1e-3);
        let direct = models.plan_combined(&compressed, &feats, abs);
        let initial = models.dmgard.predict(&feats, abs);
        let constants = models.emgard.predict_constants(&compressed);
        let manual =
            pmr_mgard::retrieve::refine_plan(compressed.levels(), &constants, abs, &initial);
        assert_eq!(direct.planes, manual.planes);

        // Prediction errors are small-ish on the training records.
        let per_level = dmgard_prediction_errors(&records, &models.dmgard);
        assert_eq!(per_level.len(), models.num_levels);
        let mean_abs: f64 =
            per_level.iter().flat_map(|v| v.iter().map(|e| e.abs() as f64)).sum::<f64>()
                / (records.len() * models.num_levels) as f64;
        assert!(mean_abs < 4.0, "mean abs prediction error {mean_abs}");
    }

    /// The signature memo, asserted on state rather than timing: empty on a
    /// fresh or freshly loaded artifact, filled by the first
    /// `signatures_of` with exactly what a full decode gives, carried by
    /// `clone()`, and invisible in the plans made from it.
    #[test]
    fn level_signatures_are_memoised_per_artifact() {
        use crate::emgard::{level_signature, signatures_of};
        use crate::framework::{Combined, RetrievalContext, Retriever};
        use pmr_mgard::persist;

        let cfg = fast_experiment();
        let (models, _) = train_models((0..3).map(snapshot), &cfg);
        let combined = Combined { dmgard: models.dmgard, emgard: models.emgard };

        let field = snapshot(4);
        let fresh = Compressed::compress(&field, &cfg.compress);
        let bytes = persist::to_bytes(&fresh).expect("serialize");
        let loaded = persist::from_bytes(&bytes).expect("reload");
        assert!(fresh.cached_level_signatures().is_none());
        assert!(loaded.cached_level_signatures().is_none());

        let want: Vec<Vec<f32>> =
            fresh.levels().iter().map(|l| level_signature(&l.decode(l.num_planes()))).collect();
        assert_eq!(signatures_of(&fresh), want.as_slice());
        assert_eq!(fresh.cached_level_signatures(), Some(want.as_slice()));
        assert_eq!(fresh.clone().cached_level_signatures(), Some(want.as_slice()));

        // One plan from the warm memo, one from an artifact that has to
        // decode every level first.
        let feats = crate::features::retrieval_features(&field, &fresh);
        let abs = fresh.absolute_bound(1e-3);
        let warm = combined.plan(&RetrievalContext { compressed: &fresh, features: &feats }, abs);
        let cold = combined.plan(&RetrievalContext { compressed: &loaded, features: &feats }, abs);
        assert_eq!(warm, cold);
        assert_eq!(loaded.cached_level_signatures(), Some(want.as_slice()));
        assert_eq!(persist::to_bytes(&loaded).expect("serialize"), bytes, "memo must not persist");
    }

    #[test]
    fn saving_formula() {
        assert_eq!(saving(100, 60), 0.4);
        assert_eq!(saving(0, 10), 0.0);
        assert_eq!(saving(100, 100), 0.0);
    }
}
