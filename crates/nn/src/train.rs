//! The mini-batch training loop.

use crate::data::Dataset;
use crate::loss::Loss;
use crate::mlp::Mlp;
use crate::optim::Adam;

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub lr: f32,
    pub loss: Loss,
    /// Seed for batch shuffling (varied per epoch internally).
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        // Paper D-MGARD settings: Huber(1), Adam; learning rate and batch
        // size as in §IV-A4 (lr 5e-5, batch 256), epochs scaled down from
        // 300 by callers that need faster runs.
        TrainConfig { epochs: 300, batch_size: 256, lr: 5e-5, loss: Loss::Huber(1.0), seed: 0 }
    }
}

/// Train `mlp` on `data`, returning the mean training loss per epoch.
///
/// ```
/// use pmr_nn::{fit, Activation, Dataset, Loss, Matrix, Mlp, TrainConfig};
///
/// // Fit y = 2x on 32 points.
/// let xs: Vec<f32> = (0..32).map(|i| i as f32 / 16.0 - 1.0).collect();
/// let data = Dataset::new(
///     Matrix::from_vec(32, 1, xs.clone()),
///     Matrix::from_vec(32, 1, xs.iter().map(|v| 2.0 * v).collect()),
/// );
/// let mut mlp = Mlp::new(&[1, 8, 1], Activation::LeakyRelu(0.01), Activation::Identity, 1);
/// let cfg = TrainConfig { epochs: 80, batch_size: 8, lr: 5e-3, loss: Loss::Huber(1.0), seed: 0 };
/// let history = fit(&mut mlp, &data, &cfg);
/// assert!(history.last().unwrap() < &history[0]);
/// ```
pub fn fit(mlp: &mut Mlp, data: &Dataset, cfg: &TrainConfig) -> Vec<f32> {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    assert_eq!(data.x.cols(), mlp.input_dim(), "feature width mismatch");
    assert_eq!(data.y.cols(), mlp.output_dim(), "target width mismatch");
    let mut opt = Adam::new(cfg.lr);
    let mut history = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        for (bx, by) in data.batches(cfg.batch_size, cfg.seed.wrapping_add(epoch as u64)) {
            let pred = mlp.forward(&bx);
            epoch_loss += cfg.loss.value(&pred, &by) as f64;
            let grad = cfg.loss.grad(&pred, &by);
            mlp.zero_grad();
            mlp.backward(&grad);
            opt.step(mlp);
            batches += 1;
        }
        history.push((epoch_loss / batches as f64) as f32);
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::tensor::Matrix;

    fn quadratic_dataset(n: usize) -> Dataset {
        let xs: Vec<f32> = (0..n).map(|i| i as f32 / n as f32 * 2.0 - 1.0).collect();
        let x = Matrix::from_vec(n, 1, xs.clone());
        let y = Matrix::from_vec(n, 1, xs.iter().map(|v| v * v).collect());
        Dataset::new(x, y)
    }

    #[test]
    fn training_reduces_loss() {
        let data = quadratic_dataset(128);
        let mut mlp =
            Mlp::new(&[1, 16, 16, 1], Activation::LeakyRelu(0.01), Activation::Identity, 11);
        let cfg = TrainConfig { epochs: 150, batch_size: 32, lr: 5e-3, ..Default::default() };
        let history = fit(&mut mlp, &data, &cfg);
        assert_eq!(history.len(), 150);
        assert!(history.last().unwrap() < &(history[0] / 10.0));
        assert!(Loss::Mae.value(&mlp.infer(&data.x), &data.y) < 0.05);
    }

    #[test]
    fn generalises_to_held_out_split() {
        let data = quadratic_dataset(256);
        let (train, test) = data.shuffle_split(0.75, 9);
        let mut mlp =
            Mlp::new(&[1, 16, 16, 1], Activation::LeakyRelu(0.01), Activation::Identity, 3);
        let cfg = TrainConfig { epochs: 200, batch_size: 32, lr: 5e-3, ..Default::default() };
        fit(&mut mlp, &train, &cfg);
        let test_loss = Loss::Huber(1.0).value(&mlp.infer(&test.x), &test.y);
        assert!(test_loss < 0.01, "test loss {test_loss}");
    }

    #[test]
    fn deterministic_training() {
        let data = quadratic_dataset(64);
        let cfg = TrainConfig { epochs: 5, batch_size: 16, lr: 1e-3, ..Default::default() };
        let run = || {
            let mut mlp = Mlp::new(&[1, 8, 1], Activation::Relu, Activation::Identity, 21);
            fit(&mut mlp, &data, &cfg)
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn width_mismatch_rejected() {
        let data = quadratic_dataset(8);
        let mut mlp = Mlp::new(&[2, 1], Activation::Identity, Activation::Identity, 0);
        let _ = fit(&mut mlp, &data, &TrainConfig::default());
    }
}
