//! Fully-connected layer with cached forward state and exact gradients.

use crate::tensor::Matrix;
use pmr_rng::Rng;

/// `y = x W + b` with `W: in × out`.
#[derive(Debug, Clone)]
pub struct Linear {
    pub w: Matrix,
    pub b: Vec<f32>,
    /// Gradient of the loss w.r.t. `w`, filled by [`Linear::backward`].
    pub dw: Matrix,
    /// Gradient w.r.t. `b`.
    pub db: Vec<f32>,
    /// Input cached by the last forward pass.
    input: Option<Matrix>,
}

impl Linear {
    /// Kaiming-uniform initialisation: `U(−√(6/fan_in), √(6/fan_in))`,
    /// biases zero. Appropriate for the ReLU-family activations used here.
    pub fn new(fan_in: usize, fan_out: usize, rng: &mut Rng) -> Self {
        assert!(fan_in > 0 && fan_out > 0, "layer dimensions must be positive");
        let bound = (6.0 / fan_in as f32).sqrt();
        let data: Vec<f32> = (0..fan_in * fan_out).map(|_| rng.range(-bound..bound)).collect();
        Linear {
            w: Matrix::from_vec(fan_in, fan_out, data),
            b: vec![0.0; fan_out],
            dw: Matrix::zeros(fan_in, fan_out),
            db: vec![0.0; fan_out],
            input: None,
        }
    }

    /// Layer built from explicit parameters (persistence path).
    pub fn from_params(w: Matrix, b: Vec<f32>) -> Self {
        assert_eq!(w.cols(), b.len(), "bias length must match output width");
        let (fi, fo) = (w.rows(), w.cols());
        Linear { w, b, dw: Matrix::zeros(fi, fo), db: vec![0.0; fo], input: None }
    }

    pub fn fan_in(&self) -> usize {
        self.w.rows()
    }

    pub fn fan_out(&self) -> usize {
        self.w.cols()
    }

    /// Forward pass; caches `x` for the backward pass.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let y = self.infer(x);
        self.input = Some(x.clone());
        y
    }

    /// Forward pass without caching: usable from shared references, so a
    /// trained layer can serve concurrent inference.
    pub fn infer(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.fan_in(), "input width mismatch");
        let mut y = x.matmul(&self.w);
        y.add_bias(&self.b);
        y
    }

    /// Backward pass: given `dY`, set `dw`/`db` and return `dX`.
    #[expect(
        clippy::expect_used,
        reason = "a backward pass before any forward pass is a caller bug, as are the shape \
                  mismatches asserted below"
    )]
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let x = self.input.as_ref().expect("backward called before forward");
        assert_eq!(dy.rows(), x.rows(), "batch size mismatch");
        assert_eq!(dy.cols(), self.fan_out(), "gradient width mismatch");
        self.dw = x.t_matmul(dy);
        self.db = dy.col_sums();
        dy.matmul_t(&self.w)
    }

    /// Reset accumulated gradients to zero.
    pub fn zero_grad(&mut self) {
        self.dw.data_mut().fill(0.0);
        self.db.fill(0.0);
    }

    pub fn num_params(&self) -> usize {
        self.w.data().len() + self.b.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_known_values() {
        let w = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let mut l = Linear::from_params(w, vec![0.5, -0.5]);
        let x = Matrix::from_vec(1, 2, vec![1., 1.]);
        let y = l.forward(&x);
        assert_eq!(y.data(), &[4.5, 5.5]);
    }

    #[test]
    fn backward_gradient_shapes() {
        let mut rng = Rng::seed_from_u64(0);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = Matrix::from_vec(4, 3, (0..12).map(|i| i as f32 * 0.1).collect());
        let _ = l.forward(&x);
        let dy = Matrix::from_vec(4, 2, vec![0.1; 8]);
        let dx = l.backward(&dy);
        assert_eq!(dx.rows(), 4);
        assert_eq!(dx.cols(), 3);
        assert_eq!(l.dw.rows(), 3);
        assert_eq!(l.dw.cols(), 2);
        assert_eq!(l.db.len(), 2);
    }

    #[test]
    fn initialisation_is_bounded_and_seeded() {
        let mut rng = Rng::seed_from_u64(5);
        let a = Linear::new(10, 10, &mut rng);
        let bound = (6.0f32 / 10.0).sqrt();
        assert!(a.w.data().iter().all(|v| v.abs() <= bound));
        assert!(a.b.iter().all(|&v| v == 0.0));
        let mut rng2 = Rng::seed_from_u64(5);
        let b = Linear::new(10, 10, &mut rng2);
        assert_eq!(a.w, b.w);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_requires_forward() {
        let mut rng = Rng::seed_from_u64(0);
        let mut l = Linear::new(2, 2, &mut rng);
        let dy = Matrix::zeros(1, 2);
        let _ = l.backward(&dy);
    }
}
