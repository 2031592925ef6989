//! Experiment orchestration: the paper's train-on-early / test-on-late
//! protocol (§IV-A4) and the per-strategy retrieval comparison behind
//! Figs. 1, 2, 12 and 13.

use crate::dmgard::{DMgard, DMgardConfig};
use crate::emgard::{build_samples_many, EMgard, EMgardConfig, TrainSample};
use crate::features;
use crate::framework::{Combined, Retriever, Theory};
use crate::records::{collect_records_many, RetrievalRecord};
use crate::sweep::{sweep, SweepPoint};
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

/// Train D-MGARD and E-MGARD from a stream of training snapshots.
///
/// `fields` yields the training snapshots (paper: the first half of the
/// timesteps of one field). Each snapshot is compressed once with
/// `cfg.compress` and handed to [`train_on`] with its timestep as the
/// E-MGARD sample seed.
pub fn train_models(
    fields: impl IntoIterator<Item = Field>,
    cfg: &ExperimentConfig,
) -> (Combined, Vec<RetrievalRecord>) {
    let fields: Vec<Field> = fields.into_iter().collect();
    let artifacts = Compressed::compress_many(&fields, &cfg.compress);
    let items: Vec<(&Field, &Compressed, u64)> =
        fields.iter().zip(&artifacts).map(|(f, c)| (f, c, f.timestep() as u64)).collect();
    train_on(&items, cfg)
}

/// Train both halves of the [`Combined`] retriever on compressed snapshots,
/// each `(original, artifact, E-MGARD sample seed)`.
///
/// D-MGARD records and E-MGARD samples are harvested from the same
/// artifacts; the models assume the first artifact's level and plane
/// counts. Also returns the harvested records.
pub fn train_on(
    items: &[(&Field, &Compressed, u64)],
    cfg: &ExperimentConfig,
) -> (Combined, Vec<RetrievalRecord>) {
    assert!(!items.is_empty(), "no training snapshots supplied");
    // Harvesting (sweep bounds + sample plans) dominates wall-clock; each
    // stage fans out over the snapshots through the batch APIs, which are
    // bit-identical to their sequential counterparts.
    let rec_items: Vec<(&Field, &Compressed)> = items.iter().map(|&(f, c, _)| (f, c)).collect();
    let records: Vec<RetrievalRecord> =
        collect_records_many(&rec_items, &cfg.train_bounds).into_iter().flatten().collect();
    let esamples: Vec<TrainSample> =
        build_samples_many(items, &cfg.emgard).into_iter().flatten().collect();

    let first = items[0].1;
    let (dmgard, _) = DMgard::train(&records, first.num_levels(), first.num_planes(), &cfg.dmgard);
    let (emgard, _) = EMgard::train(&esamples, &cfg.emgard);
    (Combined { dmgard, emgard }, records)
}

/// One row of the comparison at a single bound on a single snapshot: one
/// [`SweepPoint`] per strategy.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    pub rel_bound: f64,
    pub theory: SweepPoint,
    pub dmgard: SweepPoint,
    pub emgard: SweepPoint,
    /// The combined D+E retriever (extension; see [`Combined`]).
    pub combined: SweepPoint,
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

/// Sweep Theory, D-MGARD, E-MGARD and `combined` on one snapshot over
/// `rel_bounds`, one row per bound.
///
/// Fails when a model produces a plan incompatible with the artifact
/// (e.g. trained for a different level count).
pub fn compare_on_field(
    field: &Field,
    combined: &Combined,
    cfg: &ExperimentConfig,
    rel_bounds: &[f64],
) -> Result<Vec<ComparisonRow>, PmrError> {
    let compressed = Compressed::compress(field, &cfg.compress);
    let feats = features::retrieval_features(field, &compressed);
    let abs_bounds: Vec<f64> = rel_bounds.iter().map(|&r| compressed.absolute_bound(r)).collect();
    let strategies: [&dyn Retriever; 4] = [&Theory, &combined.dmgard, &combined.emgard, combined];
    let points = sweep(field, &compressed, &feats, &strategies, &abs_bounds)?;
    // `sweep` returns one column of `rel_bounds.len()` points per strategy.
    let at = |strategy: usize, i: usize| points[strategy * rel_bounds.len() + i].clone();
    Ok(rel_bounds
        .iter()
        .enumerate()
        .map(|(i, &rel_bound)| ComparisonRow {
            rel_bound,
            theory: at(0, i),
            dmgard: at(1, i),
            emgard: at(2, i),
            combined: at(3, i),
        })
        .collect())
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
            assert!(row.theory.achieved_err <= row.theory.abs_bound);
            // E-MGARD reads no more than the theory baseline.
            assert!(row.emgard.bytes <= row.theory.bytes, "E read more than theory");
            assert!(row.saving_e() >= 0.0);
            assert!(row.saving_d() >= 0.0);
            // The combined retriever's plan satisfies E-MGARD's estimate,
            // so its achieved error tracks the bound like E-MGARD's.
            assert!(row.combined.bytes > 0);
            assert!(row.combined.achieved_err.is_finite());
        }

        // Prediction errors are small-ish on the training records.
        let per_level = dmgard_prediction_errors(&records, &models.dmgard);
        let num_levels = models.dmgard.num_levels();
        assert_eq!(per_level.len(), num_levels);
        let mean_abs: f64 =
            per_level.iter().flat_map(|v| v.iter().map(|e| e.abs() as f64)).sum::<f64>()
                / (records.len() * num_levels) as f64;
        assert!(mean_abs < 4.0, "mean abs prediction error {mean_abs}");
    }

    /// The signature memo, asserted on state rather than timing: empty on a
    /// fresh or freshly loaded artifact, filled by the first
    /// `signatures_of` with exactly what a full decode gives, carried by
    /// `clone()`, and invisible in the plans made from it.
    #[test]
    fn level_signatures_are_memoised_per_artifact() {
        use crate::emgard::{level_signature, signatures_of};
        use crate::framework::RetrievalContext;
        use pmr_mgard::persist;

        let cfg = fast_experiment();
        let (combined, _) = train_models((0..3).map(snapshot), &cfg);

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
