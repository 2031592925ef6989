//! The optimizer: Adam, the paper's choice (§III-C).

use crate::mlp::Mlp;

/// Exponential decay of the first-moment estimate.
const BETA1: f32 = 0.9;
/// Exponential decay of the second-moment estimate.
const BETA2: f32 = 0.999;
/// Added to the second-moment root so a step never divides by zero.
const EPS: f32 = 1e-8;

/// Adam (Kingma & Ba) with bias-corrected moment estimates.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    /// Step counter for bias correction.
    t: u64,
    /// First-moment estimates, flat in the model's parameter order.
    m: Vec<f32>,
    /// Second-moment estimates.
    v: Vec<f32>,
}

impl Adam {
    /// Standard hyperparameters with the given learning rate.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Adam { lr, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Apply one update from the gradients currently stored in `mlp`.
    pub fn step(&mut self, mlp: &mut Mlp) {
        if self.m.is_empty() {
            let n = mlp.num_params();
            self.m = vec![0.0; n];
            self.v = vec![0.0; n];
        }
        self.t += 1;
        let b1t = 1.0 - BETA1.powi(self.t as i32);
        let b2t = 1.0 - BETA2.powi(self.t as i32);
        let lr = self.lr;
        let (m, v) = (&mut self.m, &mut self.v);
        let mut off = 0usize;
        mlp.visit_params(|params, grads| {
            debug_assert!(off + params.len() <= m.len(), "model grew under the optimizer");
            for ((p, &g), (mi, vi)) in params
                .iter_mut()
                .zip(grads)
                .zip(m[off..off + grads.len()].iter_mut().zip(&mut v[off..off + grads.len()]))
            {
                *mi = BETA1 * *mi + (1.0 - BETA1) * g;
                *vi = BETA2 * *vi + (1.0 - BETA2) * g * g;
                let m_hat = *mi / b1t;
                let v_hat = *vi / b2t;
                *p -= lr * m_hat / (v_hat.sqrt() + EPS);
            }
            off += params.len();
        });
        assert_eq!(off, m.len(), "parameter count changed between steps");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::loss::Loss;
    use crate::tensor::Matrix;

    #[test]
    fn adam_reduces_loss_on_linear_regression() {
        // y = 2x - 1 learned by a 1-layer "MLP".
        let mut mlp = Mlp::new(&[1, 1], Activation::Identity, Activation::Identity, 0);
        let xs: Vec<f32> = (0..64).map(|i| i as f32 / 32.0 - 1.0).collect();
        let x = Matrix::from_vec(64, 1, xs.clone());
        let t = Matrix::from_vec(64, 1, xs.iter().map(|v| 2.0 * v - 1.0).collect());
        let mut opt = Adam::new(0.05);
        let loss = Loss::Mse;
        let initial = loss.value(&mlp.forward(&x), &t);
        for _ in 0..400 {
            let y = mlp.forward(&x);
            let g = loss.grad(&y, &t);
            mlp.zero_grad();
            mlp.backward(&g);
            opt.step(&mut mlp);
        }
        let final_loss = loss.value(&mlp.forward(&x), &t);
        assert!(final_loss < initial / 100.0, "initial={initial} final={final_loss}");
        // Parameters approach (2, -1).
        assert!((mlp.layers()[0].w.get(0, 0) - 2.0).abs() < 0.1);
        assert!((mlp.layers()[0].b[0] + 1.0).abs() < 0.1);
    }

    #[test]
    fn adam_fits_nonlinear_function() {
        // y = sin(3x): requires the hidden layer to do work.
        let mut mlp =
            Mlp::new(&[1, 24, 24, 1], Activation::LeakyRelu(0.01), Activation::Identity, 7);
        let xs: Vec<f32> = (0..128).map(|i| i as f32 / 64.0 - 1.0).collect();
        let x = Matrix::from_vec(128, 1, xs.clone());
        let t = Matrix::from_vec(128, 1, xs.iter().map(|v| (3.0 * v).sin()).collect());
        let mut opt = Adam::new(0.01);
        let loss = Loss::Huber(1.0);
        for _ in 0..600 {
            let y = mlp.forward(&x);
            let g = loss.grad(&y, &t);
            mlp.zero_grad();
            mlp.backward(&g);
            opt.step(&mut mlp);
        }
        let final_loss = loss.value(&mlp.forward(&x), &t);
        assert!(final_loss < 5e-3, "final={final_loss}");
    }

    #[test]
    fn step_counter_advances() {
        let mut mlp = Mlp::new(&[2, 2], Activation::Identity, Activation::Identity, 0);
        let mut opt = Adam::new(0.001);
        let x = Matrix::zeros(1, 2);
        let t = Matrix::zeros(1, 2);
        let y = mlp.forward(&x);
        let g = Loss::Mse.grad(&y, &t);
        mlp.backward(&g);
        opt.step(&mut mlp);
        opt.step(&mut mlp);
        assert_eq!(opt.t, 2);
    }
}
