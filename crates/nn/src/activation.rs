//! Elementwise activation functions.

use crate::tensor::Matrix;

/// Activation applied after a linear layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// `max(x, slope * x)` — the paper's hidden activation for D-MGARD
    /// (slope 0.01 unless configured otherwise).
    LeakyRelu(f32),
    /// `max(x, 0)` — the E-MGARD encoder's activation.
    Relu,
    /// `ln(1 + e^x)` — strictly positive output; used for the E-MGARD head
    /// so that predicted mapping constants satisfy `C_l > 0`.
    Softplus,
    /// Pass-through (regression output layers).
    Identity,
}

impl Activation {
    /// `f(x)`.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::LeakyRelu(s) => {
                if x >= 0.0 {
                    x
                } else {
                    s * x
                }
            }
            Activation::Relu => x.max(0.0),
            Activation::Softplus => {
                // Numerically stable: ln(1+e^x) = max(x,0) + ln(1+e^-|x|).
                x.max(0.0) + (-x.abs()).exp().ln_1p()
            }
            Activation::Identity => x,
        }
    }

    /// `f'(x)` evaluated at the pre-activation `x`.
    #[inline]
    pub fn derivative(self, x: f32) -> f32 {
        match self {
            Activation::LeakyRelu(s) => {
                if x >= 0.0 {
                    1.0
                } else {
                    s
                }
            }
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Softplus => 1.0 / (1.0 + (-x).exp()),
            Activation::Identity => 1.0,
        }
    }

    /// Apply to every element of a matrix, returning a new matrix.
    pub fn apply_matrix(self, z: &Matrix) -> Matrix {
        let mut out = z.clone();
        out.map_inplace(|v| self.apply(v));
        out
    }

    /// Persistence tag (see `mlp::to_bytes`).
    pub fn tag(self) -> u8 {
        match self {
            Activation::LeakyRelu(_) => 0,
            Activation::Relu => 1,
            Activation::Softplus => 2,
            Activation::Identity => 3,
        }
    }

    /// Inverse of [`Activation::tag`]; `slope` is only read for leaky ReLU.
    pub fn from_tag(tag: u8, slope: f32) -> Option<Self> {
        match tag {
            0 => Some(Activation::LeakyRelu(slope)),
            1 => Some(Activation::Relu),
            2 => Some(Activation::Softplus),
            3 => Some(Activation::Identity),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaky_relu_values() {
        let a = Activation::LeakyRelu(0.01);
        assert_eq!(a.apply(2.0), 2.0);
        assert_eq!(a.apply(-2.0), -0.02);
        assert_eq!(a.derivative(2.0), 1.0);
        assert_eq!(a.derivative(-2.0), 0.01);
    }

    #[test]
    fn softplus_positive_and_smooth() {
        let a = Activation::Softplus;
        assert!(a.apply(-20.0) > 0.0);
        assert!((a.apply(20.0) - 20.0).abs() < 1e-5);
        assert!((a.derivative(0.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let h = 1e-3f32;
        for act in [
            Activation::LeakyRelu(0.05),
            Activation::Relu,
            Activation::Softplus,
            Activation::Identity,
        ] {
            for &x in &[-2.0f32, -0.5, 0.3, 1.7] {
                let fd = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
                assert!(
                    (fd - act.derivative(x)).abs() < 1e-2,
                    "{act:?} at {x}: fd={fd} an={}",
                    act.derivative(x)
                );
            }
        }
    }

    #[test]
    fn tag_roundtrip() {
        for act in [
            Activation::LeakyRelu(0.07),
            Activation::Relu,
            Activation::Softplus,
            Activation::Identity,
        ] {
            let rt = Activation::from_tag(act.tag(), 0.07).unwrap();
            assert_eq!(rt, act);
        }
        assert!(Activation::from_tag(9, 0.0).is_none());
    }
}
