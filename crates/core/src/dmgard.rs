//! D-MGARD: chained multi-output regression of bit-plane counts.
//!
//! One MLP per coefficient level (paper Fig. 6). Model `M_l` predicts `b_l`
//! from the base features, `log10(err)`, and the *previous levels'* plane
//! counts `b_0 … b_{l-1}` — exploiting the strong correlation between plane
//! counts (Fig. 5a) that an independent multi-output MLP would ignore. At
//! inference the chain runs level 0 → L−1, each prediction feeding the next
//! model (Fig. 6b). Training uses the **achieved** error of each record as
//! the error input (§III-C), so that querying with a user bound `e` yields
//! plane counts whose achieved error lands near `e` instead of far below it.
//!
//! All per-level models are independent and train in parallel threads, as
//! the paper notes is possible.

use crate::features::{self, NUM_BASE_FEATURES};
use crate::records::RetrievalRecord;
use pmr_error::{ByteReader, PmrError};
use pmr_mgard::RetrievalPlan;
use pmr_nn::{fit, Activation, Dataset, Loss, Matrix, Mlp, Standardizer, TrainConfig};

/// D-MGARD hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DMgardConfig {
    /// Hidden-layer widths. The paper uses six fully-connected hidden
    /// layers; the default reproduces that depth at CPU-friendly width.
    pub hidden: Vec<usize>,
    /// Negative slope of the leaky ReLU.
    pub leaky_slope: f32,
    /// Training-loop settings (Huber(1) + Adam per the paper).
    pub train: TrainConfig,
    /// Chain the per-level models (CMOR, paper Fig. 6). When `false`, each
    /// level trains an independent MLP without the `b_0..b_{l-1}` inputs —
    /// the baseline the paper argues against (cited as [22]); kept for the
    /// `ablation_chain` bench.
    pub chained: bool,
    /// Also feed the scale-invariant field statistics (skewness, kurtosis,
    /// autocorrelation) into each level model. Off by default: on the
    /// synthetic evaluation data these statistics are nearly constant
    /// within a single training field, so the network attaches spurious
    /// weight to them and extrapolates badly when transferred across
    /// fields (paper protocol: train `J_x`, predict `B_x`/`E_x`). The
    /// data-characteristic signal the paper routes through its feature set
    /// is carried here by the per-level magnitude metadata inside the
    /// relative-error input instead (see `features::chain_input`).
    pub use_stat_features: bool,
}

impl Default for DMgardConfig {
    fn default() -> Self {
        DMgardConfig {
            hidden: vec![64, 64, 64, 64, 64, 64],
            leaky_slope: 0.01,
            // The paper trains 300 epochs at lr 5e-5 with batch 256 on a
            // GPU; at our scaled widths a higher lr with fewer epochs
            // reaches the same training accuracy in CPU-budget time.
            train: TrainConfig {
                epochs: 120,
                batch_size: 128,
                lr: 1e-3,
                loss: Loss::Huber(1.0),
                seed: 17,
            },
            chained: true,
            use_stat_features: false,
        }
    }
}

/// Per-level training diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingSummary {
    /// Final epoch training loss per level model.
    pub final_losses: Vec<f32>,
}

/// The trained CMOR model stack.
#[derive(Debug, Clone)]
pub struct DMgard {
    models: Vec<Mlp>,
    standardizers: Vec<Standardizer>,
    /// Per-level target affine transform `(mean, std)`: networks are
    /// trained on z-scored plane counts for conditioning (the raw targets
    /// sit 8-32 plane-units away from a fresh network's output range); the
    /// Huber threshold is rescaled so the objective's minimizer is exactly
    /// the paper's Huber(1) on raw plane units.
    target_affine: Vec<(f32, f32)>,
    num_planes: u32,
    chained: bool,
    use_stat_features: bool,
}

impl DMgard {
    /// Train one MLP per level from harvested records.
    ///
    /// `num_levels`/`num_planes` must match the compression configuration
    /// that produced the records.
    pub fn train(
        records: &[RetrievalRecord],
        num_levels: usize,
        num_planes: u32,
        cfg: &DMgardConfig,
    ) -> (Self, TrainingSummary) {
        assert!(!records.is_empty(), "no training records");
        assert!(num_levels >= 1);
        assert!(records.iter().all(|r| r.planes.len() == num_levels), "level count mismatch");

        // Assemble per-level datasets. Model l sees the planes of levels
        // 0..l as *ground truth* during training (teacher forcing).
        let mut level_inputs: Vec<Vec<Vec<f32>>> = vec![Vec::new(); num_levels];
        let mut level_targets: Vec<Vec<f32>> = vec![Vec::new(); num_levels];
        let feat_width = NUM_BASE_FEATURES + num_levels;
        for r in records {
            assert_eq!(
                r.features.len(),
                feat_width,
                "features must be stats + one scale per level (see features::retrieval_features)"
            );
            let (base, scales) = r.features.split_at(NUM_BASE_FEATURES);
            let inv = features::invariant_stats(base);
            let stats: &[f32] = if cfg.use_stat_features { &inv } else { &[] };
            let prev: Vec<f32> = r.planes.iter().map(|&b| b as f32).collect();
            for l in 0..num_levels {
                let chain = if cfg.chained { &prev[..l] } else { &prev[..0] };
                level_inputs[l].push(features::chain_input(
                    stats,
                    r.achieved_err,
                    scales[l],
                    chain,
                ));
                level_targets[l].push(r.planes[l] as f32);
            }
        }

        // Train the per-level models in parallel (they are independent).
        let results: Vec<(Mlp, Standardizer, (f32, f32), f32)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..num_levels)
                .map(|l| {
                    let inputs = &level_inputs[l];
                    let targets = &level_targets[l];
                    let cfg = cfg.clone();
                    scope.spawn(move || {
                        let x_raw = Matrix::from_rows(inputs);
                        let std = Standardizer::fit(&x_raw);
                        let x = std.transform(&x_raw);
                        // Z-score the targets (floor the spread so constant
                        // targets map to exactly zero).
                        let n = targets.len() as f32;
                        let mu = targets.iter().sum::<f32>() / n;
                        let var = targets.iter().map(|t| (t - mu) * (t - mu)).sum::<f32>() / n;
                        let sigma = var.sqrt().max(1e-3);
                        let y = Matrix::from_vec(
                            targets.len(),
                            1,
                            targets.iter().map(|t| (t - mu) / sigma).collect(),
                        );
                        let data = Dataset::new(x, y);
                        let mut sizes = vec![x_raw.cols()];
                        sizes.extend_from_slice(&cfg.hidden);
                        sizes.push(1);
                        let mut mlp = Mlp::new(
                            &sizes,
                            Activation::LeakyRelu(cfg.leaky_slope),
                            Activation::Identity,
                            cfg.train.seed.wrapping_add(l as u64),
                        );
                        let mut train_cfg = cfg.train;
                        train_cfg.seed = cfg.train.seed.wrapping_mul(31).wrapping_add(l as u64);
                        // Rescale the loss threshold so that e.g. Huber(1)
                        // on raw planes == Huber(1/sigma) on z-scores.
                        train_cfg.loss = match train_cfg.loss {
                            Loss::Huber(d) => Loss::Huber(d / sigma),
                            other => other,
                        };
                        let history = fit(&mut mlp, &data, &train_cfg);
                        let final_loss = history.last().copied().unwrap_or(f32::NAN);
                        (mlp, std, (mu, sigma), final_loss)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    // Re-raise a trainer panic on the coordinating thread
                    // instead of masking it behind a second panic site.
                    Err(p) => std::panic::resume_unwind(p),
                })
                .collect()
        });

        let mut models = Vec::with_capacity(num_levels);
        let mut standardizers = Vec::with_capacity(num_levels);
        let mut target_affine = Vec::with_capacity(num_levels);
        let mut final_losses = Vec::with_capacity(num_levels);
        for (m, s, a, l) in results {
            models.push(m);
            standardizers.push(s);
            target_affine.push(a);
            final_losses.push(l);
        }
        (
            DMgard {
                models,
                standardizers,
                target_affine,
                num_planes,
                chained: cfg.chained,
                use_stat_features: cfg.use_stat_features,
            },
            TrainingSummary { final_losses },
        )
    }

    /// Number of coefficient levels the model covers.
    pub fn num_levels(&self) -> usize {
        self.models.len()
    }

    /// Bit-planes per level `B` (for clamping).
    pub fn num_planes(&self) -> u32 {
        self.num_planes
    }

    /// Raw (unrounded) chained prediction; exposed for error analysis.
    ///
    /// Takes `&self`: inference never mutates the stack, so one trained
    /// model can serve many planner threads concurrently.
    pub fn predict_raw(&self, base_features: &[f32], err: f64) -> Vec<f32> {
        assert_eq!(
            base_features.len(),
            NUM_BASE_FEATURES + self.models.len(),
            "features must be stats + one scale per level"
        );
        let (base, scales) = base_features.split_at(NUM_BASE_FEATURES);
        let inv = features::invariant_stats(base);
        let stats: &[f32] = if self.use_stat_features { &inv } else { &[] };
        let mut prev: Vec<f32> = Vec::with_capacity(self.models.len());
        let mut raw = Vec::with_capacity(self.models.len());
        for (l, model) in self.models.iter().enumerate() {
            let chain = if self.chained { prev.as_slice() } else { &[] };
            let mut x = features::chain_input(stats, err, scales[l], chain);
            self.standardizers[l].transform_row(&mut x);
            let (mu, sigma) = self.target_affine[l];
            let y = model.infer_row(&x)[0] * sigma + mu;
            raw.push(y);
            // Feed the *rounded* prediction forward, matching what the
            // retriever will actually fetch.
            prev.push(clamp_planes(y, self.num_planes) as f32);
        }
        raw
    }

    /// Predict plane counts for a requested maximum error `err`.
    pub fn predict(&self, base_features: &[f32], err: f64) -> Vec<u32> {
        self.predict_raw(base_features, err)
            .into_iter()
            .map(|y| clamp_planes(y, self.num_planes))
            .collect()
    }

    /// Predict and wrap as a [`RetrievalPlan`].
    pub fn predict_plan(&self, base_features: &[f32], err: f64) -> RetrievalPlan {
        RetrievalPlan::from_planes(self.predict(base_features, err))
    }

    /// Encode the full stack (models + standardizers) as bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"PMRD1\0");
        out.extend_from_slice(&(self.models.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.num_planes.to_le_bytes());
        out.push(self.chained as u8);
        out.push(self.use_stat_features as u8);
        for ((m, s), &(mu, sigma)) in
            self.models.iter().zip(&self.standardizers).zip(&self.target_affine)
        {
            let mb = m.to_bytes();
            let sb = s.to_bytes();
            out.extend_from_slice(&(mb.len() as u64).to_le_bytes());
            out.extend_from_slice(&mb);
            out.extend_from_slice(&(sb.len() as u64).to_le_bytes());
            out.extend_from_slice(&sb);
            out.extend_from_slice(&mu.to_le_bytes());
            out.extend_from_slice(&sigma.to_le_bytes());
        }
        out
    }

    /// Inverse of [`DMgard::to_bytes`].
    pub fn from_bytes(buf: &[u8]) -> Option<Self> {
        Self::read(&mut ByteReader::new(buf, "dmgard model")).ok()
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self, PmrError> {
        if r.take(6)? != b"PMRD1\0" {
            return Err(r.malformed("bad magic"));
        }
        let n = r.u32()? as usize;
        let num_planes = r.u32()?;
        let chained = r.bool()?;
        let use_stat_features = r.bool()?;
        if n == 0 || n > 64 {
            return Err(r.malformed(format!("{n} levels outside 1..=64")));
        }
        let mut models = Vec::with_capacity(n);
        let mut standardizers = Vec::with_capacity(n);
        let mut target_affine = Vec::with_capacity(n);
        for _ in 0..n {
            let (model, standardizer) = read_model_pair(r)?;
            models.push(model);
            standardizers.push(standardizer);
            target_affine.push((r.f32()?, r.f32()?));
        }
        r.done()?;
        Ok(DMgard { models, standardizers, target_affine, num_planes, chained, use_stat_features })
    }

    /// Write the serialized stack to `path`, creating parent directories.
    pub fn save(&self, path: &std::path::Path) -> Result<(), PmrError> {
        let io_err = |e: std::io::Error| PmrError::io_at(path, e);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(io_err)?;
        }
        std::fs::write(path, self.to_bytes()).map_err(io_err)
    }

    /// Read a stack previously written with [`DMgard::save`].
    pub fn load(path: &std::path::Path) -> Result<Self, PmrError> {
        let buf = std::fs::read(path).map_err(|e| PmrError::io_at(path, e))?;
        Self::read(&mut ByteReader::new(&buf, "dmgard model"))
    }
}

/// One persisted `(model, standardizer)` pair as both learned planners
/// write it: a `u64` length and the [`Mlp`] bytes, then a `u64` length and
/// the [`Standardizer`] bytes.
pub(crate) fn read_model_pair(r: &mut ByteReader<'_>) -> Result<(Mlp, Standardizer), PmrError> {
    // A length past `usize` is past the end of any buffer: `take` refuses it.
    let n = usize::try_from(r.u64()?).unwrap_or(usize::MAX);
    let model = Mlp::from_bytes(r.take(n)?).ok_or_else(|| r.malformed("bad mlp model"))?;
    let n = usize::try_from(r.u64()?).unwrap_or(usize::MAX);
    let standardizer =
        Standardizer::from_bytes(r.take(n)?).ok_or_else(|| r.malformed("bad standardizer"))?;
    Ok((model, standardizer))
}

/// Round and clamp a raw prediction into a valid plane count.
fn clamp_planes(y: f32, num_planes: u32) -> u32 {
    (y.round().max(0.0) as u32).min(num_planes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::collect_records;
    use pmr_field::{Field, Shape};
    use pmr_mgard::{CompressConfig, Compressed};

    fn fast_cfg() -> DMgardConfig {
        DMgardConfig {
            hidden: vec![24, 24],
            train: TrainConfig { epochs: 60, batch_size: 32, lr: 3e-3, ..Default::default() },
            ..Default::default()
        }
    }

    fn training_records() -> (Vec<RetrievalRecord>, usize, u32) {
        let mut records = Vec::new();
        let cfg = CompressConfig { levels: 3, num_planes: 16, ..Default::default() };
        for t in 0..4usize {
            let field = Field::from_fn("f", t, Shape::cube(9), move |x, y, z| {
                ((x as f64) * (0.3 + t as f64 * 0.05)).sin() + ((y + z) as f64 * 0.2).cos() * 0.5
            });
            let c = Compressed::compress(&field, &cfg);
            records.extend(collect_records(&field, &c, &[1e-5, 1e-4, 1e-3, 1e-2, 1e-1]));
        }
        (records, 3, 16)
    }

    #[test]
    fn trains_and_predicts_valid_planes() {
        let (records, levels, planes) = training_records();
        let (model, summary) = DMgard::train(&records, levels, planes, &fast_cfg());
        assert_eq!(summary.final_losses.len(), levels);
        assert!(summary.final_losses.iter().all(|l| l.is_finite()));
        let pred = model.predict(&records[0].features, records[0].achieved_err);
        assert_eq!(pred.len(), levels);
        assert!(pred.iter().all(|&b| b <= planes));
    }

    #[test]
    fn learns_the_training_mapping_roughly() {
        let (records, levels, planes) = training_records();
        let (model, _) = DMgard::train(&records, levels, planes, &fast_cfg());
        // On training points the prediction should be within a couple of
        // planes for most records (paper: majority within ±1).
        let mut total_err = 0f64;
        let mut count = 0f64;
        for r in &records {
            let pred = model.predict(&r.features, r.achieved_err);
            for (p, &t) in pred.iter().zip(&r.planes) {
                total_err += (*p as f64 - t as f64).abs();
                count += 1.0;
            }
        }
        let mean_abs = total_err / count;
        assert!(mean_abs < 3.0, "mean abs plane error {mean_abs}");
    }

    #[test]
    fn tighter_error_requests_more_planes() {
        let (records, levels, planes) = training_records();
        let (model, _) = DMgard::train(&records, levels, planes, &fast_cfg());
        let f = &records[0].features;
        let loose: u32 = model.predict(f, 1e-1).iter().sum();
        let tight: u32 = model.predict(f, 1e-6).iter().sum();
        assert!(tight > loose, "tight={tight} loose={loose}");
    }

    #[test]
    fn persistence_roundtrip() {
        let (records, levels, planes) = training_records();
        let (model, _) = DMgard::train(&records, levels, planes, &fast_cfg());
        let bytes = model.to_bytes();
        let rt = DMgard::from_bytes(&bytes).expect("roundtrip");
        let f = &records[0].features;
        assert_eq!(model.predict(f, 1e-3), rt.predict(f, 1e-3));
        assert!(DMgard::from_bytes(&bytes[..10]).is_none());
    }

    #[test]
    fn clamp_behaviour() {
        assert_eq!(clamp_planes(-3.2, 16), 0);
        assert_eq!(clamp_planes(4.4, 16), 4);
        assert_eq!(clamp_planes(4.6, 16), 5);
        assert_eq!(clamp_planes(99.0, 16), 16);
    }
}
