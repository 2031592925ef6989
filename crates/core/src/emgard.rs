//! E-MGARD: learned per-level error-control constants.
//!
//! The theory bound applies one pessimistic constant to every level even
//! though per-level error magnitudes differ wildly (paper Fig. 7). E-MGARD
//! learns a constant per level: an encoder network per coefficient level
//! maps a fixed-size representation of that level's coefficients to `C_l`,
//! and the achieved error is estimated as `err ≈ Σ_l C_l · Err[l][b_l]`
//! (Equation 7). MGARD's greedy retriever then runs unchanged against the
//! learned estimate.
//!
//! **Representation note** (documented substitution, DESIGN.md §3): the
//! paper feeds the raw coefficient level through encoder layers of width
//! 2048/512/128/8. We summarise each level into a 38-dimensional signature
//! (log-magnitude histogram + scale statistics) before the encoder — the
//! same information channel at laptop-scale width; the encoder depth and
//! the softplus-positive constants are preserved.
//!
//! Training minimises a Huber loss between `ln(estimate)` and `ln(actual)`
//! over randomly drawn retrieval plans, because target errors span nine
//! decades.

use crate::dmgard::read_model_pair;
use pmr_error::{ByteReader, PmrError};
use pmr_field::{error::max_abs_error, Field};
use pmr_mgard::{Compressed, DecodeOptions, ExecPolicy, RetrievalPlan};
use pmr_nn::{Activation, Adam, Loss, Matrix, Mlp, Standardizer};
use pmr_rng::Rng;

/// Width of the per-level signature vector.
pub const SIG_DIM: usize = 38;

const HIST_BINS: usize = 32;
const LOG_FLOOR: f64 = 1e-30;
/// Additive guard inside logarithms during training.
const EPS: f64 = 1e-18;

/// Fixed-size representation of one coefficient level: 6 scale statistics
/// followed by a 32-bin histogram of relative magnitudes
/// (`floor(log2(max/|c|))`, clamped to the bit-plane range).
pub fn level_signature(coeffs: &[f64]) -> Vec<f32> {
    let n = coeffs.len().max(1) as f64;
    let max_abs = coeffs.iter().fold(0.0f64, |m, &c| m.max(c.abs()));
    let mean_abs = coeffs.iter().map(|c| c.abs()).sum::<f64>() / n;
    let mean = coeffs.iter().sum::<f64>() / n;
    let var = coeffs.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / n;
    let mut hist = [0f32; HIST_BINS];
    let mut zeros = 0usize;
    if max_abs > 0.0 {
        for &c in coeffs {
            let a = c.abs();
            if a < max_abs * 2f64.powi(-(HIST_BINS as i32)) {
                zeros += 1;
                continue;
            }
            let bin = ((max_abs / a).log2().floor() as usize).min(HIST_BINS - 1);
            hist[bin] += 1.0;
        }
        for h in &mut hist {
            *h /= n as f32;
        }
    } else {
        zeros = coeffs.len();
    }
    let mut sig = Vec::with_capacity(SIG_DIM);
    sig.push((max_abs + LOG_FLOOR).log10() as f32);
    sig.push((mean_abs + LOG_FLOOR).log10() as f32);
    sig.push((var.sqrt() + LOG_FLOOR).log10() as f32);
    sig.push((n).log10() as f32);
    sig.push(zeros as f32 / n as f32);
    sig.push(if max_abs > 0.0 { (mean_abs / max_abs) as f32 } else { 0.0 });
    sig.extend_from_slice(&hist);
    debug_assert_eq!(sig.len(), SIG_DIM);
    sig
}

/// Per-level signatures of a compressed artifact. They depend on the stored
/// planes alone, so the full-precision decode of every level they take is
/// paid once per artifact: the result is memoised on the artifact
/// ([`Compressed::level_signatures`]) and every later plan or training
/// sample reads it from there. (Persisting these 38 floats per level as
/// metadata at compression time is a format change left for later.)
pub fn signatures_of(compressed: &Compressed) -> &[Vec<f32>] {
    compressed.level_signatures(|c| {
        c.levels().iter().map(|l| level_signature(&l.decode(l.num_planes()))).collect()
    })
}

/// E-MGARD hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct EMgardConfig {
    /// Encoder hidden widths (paper: 2048/512/128/8; scaled default keeps
    /// the depth and the 8-wide latent).
    pub hidden: Vec<usize>,
    pub epochs: usize,
    pub batch_size: usize,
    pub lr: f32,
    /// Huber threshold in natural-log error units.
    pub huber_delta: f32,
    /// Random retrieval plans drawn per compressed artifact when building
    /// training samples.
    pub samples_per_artifact: usize,
    pub seed: u64,
}

impl Default for EMgardConfig {
    fn default() -> Self {
        EMgardConfig {
            hidden: vec![128, 32, 8],
            epochs: 150,
            batch_size: 64,
            lr: 3e-3,
            huber_delta: 1.0,
            samples_per_artifact: 24,
            seed: 23,
        }
    }
}

/// One training observation: the per-level signatures of an artifact, the
/// per-level coefficient errors of a sampled plan, and the actual
/// reconstruction error of that plan.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainSample {
    pub signatures: Vec<Vec<f32>>,
    pub level_errs: Vec<f64>,
    pub actual_err: f64,
}

/// Draw training samples from one `(field, compressed)` pair.
///
/// Plans are mixed: half are theory plans at random bounds (the region the
/// retriever actually visits), half are uniform random plane counts
/// (coverage of the whole plan space).
pub fn build_samples(
    field: &Field,
    compressed: &Compressed,
    cfg: &EMgardConfig,
    seed: u64,
) -> Vec<TrainSample> {
    let mut rng = Rng::seed_from_u64(seed ^ cfg.seed.rotate_left(32));
    let signatures = signatures_of(compressed);
    let nl = compressed.num_levels();
    let b = compressed.num_planes();
    let mut out = Vec::with_capacity(cfg.samples_per_artifact);
    for k in 0..cfg.samples_per_artifact {
        let planes: Vec<u32> = if k % 2 == 0 {
            let rel = 10f64.powf(rng.range(-9.0..-0.5));
            let plan = compressed.plan_theory(compressed.absolute_bound(rel));
            // Jitter so the model also sees near-plan neighbourhoods.
            plan.planes
                .iter()
                .map(|&p| {
                    let d = rng.range(-2i64..=2);
                    (p as i64 + d).clamp(0, b as i64) as u32
                })
                .collect()
        } else {
            (0..nl).map(|_| rng.range(0..=b)).collect()
        };
        let plan = RetrievalPlan::from_planes(planes.clone());
        #[expect(
            clippy::expect_used,
            reason = "plane counts are clamped to this artifact's capacity above"
        )]
        let rec = compressed
            .decode_plan(&plan, &DecodeOptions::default())
            .expect("sampled plane counts are clamped to the artifact's capacity");
        let actual_err = max_abs_error(field.data(), rec.data());
        let level_errs: Vec<f64> =
            compressed.levels().iter().zip(&planes).map(|(l, &p)| l.error_at(p)).collect();
        out.push(TrainSample { signatures: signatures.to_vec(), level_errs, actual_err });
    }
    out
}

/// Draw training samples from many `(field, compressed, seed)` triples:
/// one [`build_samples`] per snapshot, fanned out over the cores, in order.
pub fn build_samples_many(
    items: &[(&Field, &Compressed, u64)],
    cfg: &EMgardConfig,
) -> Vec<Vec<TrainSample>> {
    pmr_mgard::exec::fan_out(ExecPolicy::default().resolved_threads(), items.len(), |i| {
        let (field, compressed, seed) = items[i];
        build_samples(field, compressed, cfg, seed)
    })
}

/// The trained E-MGARD model: one encoder per coefficient level.
#[derive(Debug, Clone)]
pub struct EMgard {
    encoders: Vec<Mlp>,
    standardizers: Vec<Standardizer>,
}

impl EMgard {
    /// Train the per-level encoders jointly on `samples`.
    ///
    /// Returns the model and the per-epoch mean training loss.
    pub fn train(samples: &[TrainSample], cfg: &EMgardConfig) -> (Self, Vec<f32>) {
        assert!(!samples.is_empty(), "no training samples");
        let nl = samples[0].signatures.len();
        assert!(samples.iter().all(|s| s.signatures.len() == nl && s.level_errs.len() == nl));

        // Fit per-level standardizers over all samples' signatures.
        let standardizers: Vec<Standardizer> = (0..nl)
            .map(|l| {
                let rows: Vec<Vec<f32>> = samples.iter().map(|s| s.signatures[l].clone()).collect();
                Standardizer::fit(&Matrix::from_rows(&rows))
            })
            .collect();

        // Pre-standardised signature rows per level.
        let sig_rows: Vec<Vec<Vec<f32>>> = (0..nl)
            .map(|l| {
                samples
                    .iter()
                    .map(|s| {
                        let mut row = s.signatures[l].clone();
                        standardizers[l].transform_row(&mut row);
                        row
                    })
                    .collect()
            })
            .collect();

        let mut encoders: Vec<Mlp> = (0..nl)
            .map(|l| {
                let mut sizes = vec![SIG_DIM];
                sizes.extend_from_slice(&cfg.hidden);
                sizes.push(1);
                Mlp::new(
                    &sizes,
                    Activation::Relu,
                    Activation::Softplus,
                    cfg.seed.wrapping_add(1000 + l as u64),
                )
            })
            .collect();
        let mut optimizers: Vec<Adam> = (0..nl).map(|_| Adam::new(cfg.lr)).collect();
        let huber = Loss::Huber(cfg.huber_delta);

        let mut history = Vec::with_capacity(cfg.epochs);
        let mut idx: Vec<usize> = (0..samples.len()).collect();
        for epoch in 0..cfg.epochs {
            Rng::seed_from_u64(cfg.seed.wrapping_add(epoch as u64)).shuffle(&mut idx);
            let mut epoch_loss = 0.0f64;
            let mut batches = 0usize;
            for chunk in idx.chunks(cfg.batch_size) {
                let bs = chunk.len();
                // Forward every level encoder on this batch.
                let mut cs: Vec<Matrix> = Vec::with_capacity(nl);
                for l in 0..nl {
                    let rows: Vec<Vec<f32>> =
                        chunk.iter().map(|&i| sig_rows[l][i].clone()).collect();
                    let x = Matrix::from_rows(&rows);
                    cs.push(encoders[l].forward(&x));
                }
                // Estimate, loss and gradients in log space.
                let mut dlogs = vec![0.0f64; bs];
                let mut batch_loss = 0.0f64;
                let mut est = vec![0.0f64; bs];
                for (bi, &i) in chunk.iter().enumerate() {
                    let s = &samples[i];
                    let mut e = 0.0f64;
                    for (cl, &le) in cs.iter().zip(&s.level_errs) {
                        e += cl.get(bi, 0) as f64 * le;
                    }
                    est[bi] = e;
                    let z = (e + EPS).ln() as f32;
                    let zt = (s.actual_err + EPS).ln() as f32;
                    batch_loss += huber.pointwise(z - zt) as f64;
                    dlogs[bi] = huber.pointwise_grad(z - zt) as f64 / bs as f64;
                }
                epoch_loss += batch_loss / bs as f64;
                batches += 1;
                // Backprop into each encoder: dL/dC_l = dL/dz / (est+eps) * Err_l.
                for l in 0..nl {
                    let grads: Vec<f32> = chunk
                        .iter()
                        .enumerate()
                        .map(|(bi, &i)| {
                            (dlogs[bi] / (est[bi] + EPS) * samples[i].level_errs[l]) as f32
                        })
                        .collect();
                    let g = Matrix::from_vec(bs, 1, grads);
                    encoders[l].zero_grad();
                    encoders[l].backward(&g);
                    optimizers[l].step(&mut encoders[l]);
                }
            }
            history.push((epoch_loss / batches as f64) as f32);
        }
        (EMgard { encoders, standardizers }, history)
    }

    pub fn num_levels(&self) -> usize {
        self.encoders.len()
    }

    /// Predict the per-level mapping constants for an artifact.
    ///
    /// Constants are clamped from above by the theory constants: those are
    /// *proven* upper bounds, so any larger learned value is strictly
    /// wasteful. The clamp guarantees E-MGARD never fetches more than the
    /// original MGARD (the invariant visible in paper Fig. 13).
    ///
    /// Takes `&self`: inference never mutates the encoders, so one trained
    /// model can serve many planner threads concurrently.
    pub fn predict_constants(&self, compressed: &Compressed) -> Vec<f64> {
        assert_eq!(compressed.num_levels(), self.encoders.len(), "level count mismatch");
        signatures_of(compressed)
            .iter()
            .zip(compressed.theory_constants())
            .enumerate()
            .map(|(l, (sig, &ceiling))| {
                let mut sig = sig.clone();
                self.standardizers[l].transform_row(&mut sig);
                let c = self.encoders[l].infer_row(&sig)[0] as f64;
                c.clamp(1e-6, ceiling)
            })
            .collect()
    }

    /// Plan a retrieval: learned constants + the original greedy retriever.
    pub fn plan(&self, compressed: &Compressed, abs_bound: f64) -> RetrievalPlan {
        let constants = self.predict_constants(compressed);
        compressed.plan_with_constants(abs_bound, &constants)
    }

    /// Encode encoders and standardizers as bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"PMRE1\0");
        out.extend_from_slice(&(self.encoders.len() as u32).to_le_bytes());
        for (m, s) in self.encoders.iter().zip(&self.standardizers) {
            let mb = m.to_bytes();
            let sb = s.to_bytes();
            out.extend_from_slice(&(mb.len() as u64).to_le_bytes());
            out.extend_from_slice(&mb);
            out.extend_from_slice(&(sb.len() as u64).to_le_bytes());
            out.extend_from_slice(&sb);
        }
        out
    }

    /// Inverse of [`EMgard::to_bytes`].
    pub fn from_bytes(buf: &[u8]) -> Result<Self, PmrError> {
        let r = &mut ByteReader::new(buf, "emgard model");
        if r.take(6)? != b"PMRE1\0" {
            return Err(r.malformed("bad magic"));
        }
        let n = r.u32()? as usize;
        if n == 0 || n > 64 {
            return Err(r.malformed(format!("{n} levels outside 1..=64")));
        }
        let mut encoders = Vec::with_capacity(n);
        let mut standardizers = Vec::with_capacity(n);
        for _ in 0..n {
            let (encoder, standardizer) = read_model_pair(r)?;
            encoders.push(encoder);
            standardizers.push(standardizer);
        }
        r.done()?;
        Ok(EMgard { encoders, standardizers })
    }

    /// Write the serialized model to `path`, creating parent directories.
    pub fn save(&self, path: &std::path::Path) -> Result<(), PmrError> {
        let io_err = |e: std::io::Error| PmrError::io_at(path, e);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(io_err)?;
        }
        std::fs::write(path, self.to_bytes()).map_err(io_err)
    }

    /// Read a model previously written with [`EMgard::save`].
    pub fn load(path: &std::path::Path) -> Result<Self, PmrError> {
        let buf = std::fs::read(path).map_err(|e| PmrError::io_at(path, e))?;
        Self::from_bytes(&buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmr_field::Shape;
    use pmr_mgard::CompressConfig;

    fn pair(t: usize) -> (Field, Compressed) {
        let field = Field::from_fn("e", t, Shape::cube(9), move |x, y, z| {
            ((x as f64) * (0.4 + 0.02 * t as f64)).sin() * ((y as f64) * 0.3).cos()
                + (z as f64) * 0.01
        });
        let cfg = CompressConfig { levels: 3, num_planes: 16, ..Default::default() };
        let c = Compressed::compress(&field, &cfg);
        (field, c)
    }

    fn fast_cfg() -> EMgardConfig {
        EMgardConfig {
            epochs: 60,
            samples_per_artifact: 16,
            hidden: vec![32, 8],
            ..Default::default()
        }
    }

    #[test]
    fn signature_shape_and_finiteness() {
        let sig = level_signature(&[0.5, -1.25, 3.0, 0.0, 1e-9]);
        assert_eq!(sig.len(), SIG_DIM);
        assert!(sig.iter().all(|v| v.is_finite()));
        // Histogram sums to <= 1 (zeros excluded).
        let hist_sum: f32 = sig[6..].iter().sum();
        assert!(hist_sum <= 1.0 + 1e-5);
    }

    #[test]
    fn signature_of_zero_level() {
        let sig = level_signature(&[0.0; 64]);
        assert!(sig.iter().all(|v| v.is_finite()));
        assert_eq!(sig[4], 1.0); // all zero fraction
    }

    #[test]
    fn training_reduces_loss_and_plans_respect_greedy() {
        let cfg = fast_cfg();
        let mut samples = Vec::new();
        for t in 0..3 {
            let (f, c) = pair(t);
            samples.extend(build_samples(&f, &c, &cfg, t as u64));
        }
        let (model, history) = EMgard::train(&samples, &cfg);
        assert!(history.last().unwrap() < &history[0], "loss did not decrease: {history:?}");

        let (field, c) = pair(4);
        let constants = model.predict_constants(&c);
        assert_eq!(constants.len(), 3);
        assert!(constants.iter().all(|&v| v > 0.0));

        // The learned plan reads no more than the theory plan.
        let bound = c.absolute_bound(1e-3);
        let learned = model.plan(&c, bound);
        let theory = c.plan_theory(bound);
        assert!(c.retrieved_bytes(&learned) <= c.retrieved_bytes(&theory));
        let _ = field;
    }

    #[test]
    fn persistence_roundtrip() {
        let cfg = fast_cfg();
        let (f, c) = pair(0);
        let samples = build_samples(&f, &c, &cfg, 0);
        let (model, _) = EMgard::train(&samples, &cfg);
        let rt = EMgard::from_bytes(&model.to_bytes()).expect("roundtrip");
        let a = model.predict_constants(&c);
        let b = rt.predict_constants(&c);
        assert_eq!(a, b);
        assert!(EMgard::from_bytes(b"garbage").is_err());
    }

    /// Finite-difference check of the custom training gradient: the loss is
    /// `Huber(ln(Σ C_l·Err_l + ε) − ln(actual + ε))` and the hand-derived
    /// gradient w.r.t. `C_l` is `huber'(Δz) / (est + ε) · Err_l`.
    #[test]
    fn training_gradient_matches_finite_difference() {
        let errs = [0.3f64, 0.05, 0.8];
        let actual = 0.2f64;
        let huber = pmr_nn::Loss::Huber(1.0);
        let loss_of = |cs: &[f64]| -> f64 {
            let est: f64 = cs.iter().zip(&errs).map(|(c, e)| c * e).sum();
            let z = (est + EPS).ln() as f32;
            let zt = (actual + EPS).ln() as f32;
            huber.pointwise(z - zt) as f64
        };
        let cs = [1.4f64, 0.6, 2.3];
        let est: f64 = cs.iter().zip(&errs).map(|(c, e)| c * e).sum();
        let z = (est + EPS).ln() as f32;
        let zt = (actual + EPS).ln() as f32;
        let dlog = huber.pointwise_grad(z - zt) as f64;
        for l in 0..3 {
            let analytic = dlog / (est + EPS) * errs[l];
            // The implementation computes ln() in f32, so tiny steps drown
            // in rounding; a larger step with a loose tolerance is the
            // right check for this piecewise-smooth region.
            let h = 1e-2;
            let mut plus = cs;
            plus[l] += h;
            let mut minus = cs;
            minus[l] -= h;
            let fd = (loss_of(&plus) - loss_of(&minus)) / (2.0 * h);
            assert!(
                (fd - analytic).abs() < 5e-2 * (1.0 + analytic.abs()),
                "l={l} fd={fd} analytic={analytic}"
            );
        }
    }

    #[test]
    fn build_samples_many_matches_sequential() {
        let cfg = fast_cfg();
        let pairs: Vec<(Field, Compressed)> = (0..3).map(pair).collect();
        let items: Vec<(&Field, &Compressed, u64)> =
            pairs.iter().enumerate().map(|(i, (f, c))| (f, c, i as u64)).collect();
        let batched = build_samples_many(&items, &cfg);
        assert_eq!(batched.len(), 3);
        for (i, (f, c)) in pairs.iter().enumerate() {
            assert_eq!(batched[i], build_samples(f, c, &cfg, i as u64));
        }
    }

    #[test]
    fn build_samples_are_consistent() {
        let cfg = fast_cfg();
        let (f, c) = pair(1);
        let samples = build_samples(&f, &c, &cfg, 9);
        assert_eq!(samples.len(), cfg.samples_per_artifact);
        for s in &samples {
            assert_eq!(s.level_errs.len(), c.num_levels());
            assert!(s.actual_err.is_finite());
            // Per-level coefficient error should never be below the actual
            // reconstruction error by more than the transform can amplify —
            // weak sanity: both finite and non-negative.
            assert!(s.level_errs.iter().all(|&e| e >= 0.0));
        }
    }
}
