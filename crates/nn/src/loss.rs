//! Regression losses: MSE, MAE, and the Huber loss the paper selects.
//!
//! Paper §III-C: MAE under-penalises outliers (long error tails), MSE
//! under-penalises small errors (large average error); the Huber loss with
//! `δ = 1` combines both and gave the best training accuracy. The ablation
//! bench `ablation_loss` reproduces that comparison.

use crate::tensor::Matrix;

/// Loss function over a batch of predictions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Loss {
    /// Mean squared error.
    Mse,
    /// Mean absolute error.
    Mae,
    /// Huber loss with threshold `δ` (Equation 4 of the paper).
    Huber(f32),
}

impl Loss {
    /// Mean loss over all elements of the batch.
    pub fn value(&self, pred: &Matrix, target: &Matrix) -> f32 {
        assert_eq!(pred.rows(), target.rows(), "batch mismatch");
        assert_eq!(pred.cols(), target.cols(), "width mismatch");
        let n = (pred.rows() * pred.cols()) as f32;
        let sum: f32 =
            pred.data().iter().zip(target.data()).map(|(&p, &t)| self.pointwise(p - t)).sum();
        sum / n
    }

    /// Gradient of [`Loss::value`] w.r.t. the predictions (already includes
    /// the `1/n` batch normalisation).
    pub fn grad(&self, pred: &Matrix, target: &Matrix) -> Matrix {
        assert_eq!(pred.rows(), target.rows(), "batch mismatch");
        assert_eq!(pred.cols(), target.cols(), "width mismatch");
        let n = (pred.rows() * pred.cols()) as f32;
        let data: Vec<f32> = pred
            .data()
            .iter()
            .zip(target.data())
            .map(|(&p, &t)| self.pointwise_grad(p - t) / n)
            .collect();
        Matrix::from_vec(pred.rows(), pred.cols(), data)
    }

    /// Loss of a single residual `e = pred − target`.
    #[inline]
    pub fn pointwise(&self, e: f32) -> f32 {
        match *self {
            Loss::Mse => 0.5 * e * e,
            Loss::Mae => e.abs(),
            Loss::Huber(d) => {
                if e.abs() < d {
                    0.5 * e * e
                } else {
                    d * (e.abs() - 0.5 * d)
                }
            }
        }
    }

    /// Derivative of [`Loss::pointwise`].
    #[inline]
    pub fn pointwise_grad(&self, e: f32) -> f32 {
        match *self {
            Loss::Mse => e,
            Loss::Mae => {
                if e > 0.0 {
                    1.0
                } else if e < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            }
            Loss::Huber(d) => {
                if e.abs() < d {
                    e
                } else {
                    d * e.signum()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn huber_is_quadratic_then_linear() {
        let h = Loss::Huber(1.0);
        assert_eq!(h.pointwise(0.5), 0.125);
        assert_eq!(h.pointwise(2.0), 1.0 * (2.0 - 0.5));
        assert_eq!(h.pointwise(-2.0), h.pointwise(2.0));
    }

    #[test]
    fn huber_equals_mse_inside_delta() {
        let h = Loss::Huber(10.0);
        let m = Loss::Mse;
        for &e in &[0.1f32, -0.5, 3.0] {
            assert_eq!(h.pointwise(e), m.pointwise(e));
            assert_eq!(h.pointwise_grad(e), m.pointwise_grad(e));
        }
    }

    #[test]
    fn huber_grad_is_clipped() {
        let h = Loss::Huber(1.0);
        assert_eq!(h.pointwise_grad(100.0), 1.0);
        assert_eq!(h.pointwise_grad(-100.0), -1.0);
        assert_eq!(h.pointwise_grad(0.5), 0.5);
    }

    #[test]
    fn batch_value_and_grad_consistent() {
        let pred = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let target = Matrix::from_vec(2, 2, vec![1.0, 0.0, 3.0, 8.0]);
        for loss in [Loss::Mse, Loss::Mae, Loss::Huber(1.0)] {
            let v = loss.value(&pred, &target);
            assert!(v >= 0.0);
            let g = loss.grad(&pred, &target);
            assert_eq!(g.rows(), 2);
            // Zero residual -> zero gradient entry.
            assert_eq!(g.get(0, 0), 0.0);
            assert_eq!(g.get(1, 0), 0.0);
        }
    }

    #[test]
    fn grad_matches_finite_difference() {
        let target = Matrix::from_vec(1, 3, vec![0.3, -0.7, 2.0]);
        for loss in [Loss::Mse, Loss::Mae, Loss::Huber(0.5)] {
            let pred = Matrix::from_vec(1, 3, vec![0.45, -1.2, 1.4]);
            let g = loss.grad(&pred, &target);
            let h = 1e-3f32;
            for j in 0..3 {
                let mut plus = pred.clone();
                plus.set(0, j, plus.get(0, j) + h);
                let mut minus = pred.clone();
                minus.set(0, j, minus.get(0, j) - h);
                let fd = (loss.value(&plus, &target) - loss.value(&minus, &target)) / (2.0 * h);
                assert!(
                    (fd - g.get(0, j)).abs() < 1e-2,
                    "{loss:?} j={j} fd={fd} an={}",
                    g.get(0, j)
                );
            }
        }
    }
}
