//! Reconstruction error metrics.
//!
//! The paper's error-control contract is on the **maximum absolute error**
//! (`err` in Table I); evaluation figures also report PSNR, which MGARD-style
//! tools compute against the data value range.

use crate::field::Field;

/// Maximum absolute pointwise error between two equal-length slices.
pub fn max_abs_error(original: &[f64], reconstructed: &[f64]) -> f64 {
    assert_eq!(original.len(), reconstructed.len(), "length mismatch");
    original.iter().zip(reconstructed).fold(0.0_f64, |m, (&a, &b)| m.max((a - b).abs()))
}

/// Mean squared error.
pub fn mse(original: &[f64], reconstructed: &[f64]) -> f64 {
    assert_eq!(original.len(), reconstructed.len(), "length mismatch");
    if original.is_empty() {
        return 0.0;
    }
    let sum: f64 = original.iter().zip(reconstructed).map(|(&a, &b)| (a - b) * (a - b)).sum();
    sum / original.len() as f64
}

/// Root mean squared error.
pub fn rmse(original: &[f64], reconstructed: &[f64]) -> f64 {
    mse(original, reconstructed).sqrt()
}

/// Peak signal-to-noise ratio in dB, with the signal peak taken as the value
/// range of the original data (the convention used by MGARD/SZ/ZFP papers).
///
/// Returns `f64::INFINITY` for a perfect reconstruction.
pub fn psnr(original: &[f64], reconstructed: &[f64]) -> f64 {
    let range = {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in original {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        hi - lo
    };
    let m = mse(original, reconstructed);
    if m == 0.0 {
        f64::INFINITY
    } else if range == 0.0 {
        0.0
    } else {
        10.0 * (range * range / m).log10()
    }
}

/// A bundle of all error metrics for one reconstruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorReport {
    pub max_abs: f64,
    pub rmse: f64,
    pub psnr: f64,
}

impl ErrorReport {
    /// Compare `reconstructed` against `original`.
    pub fn between(original: &Field, reconstructed: &Field) -> Self {
        assert_eq!(original.shape(), reconstructed.shape(), "shape mismatch");
        let a = original.data();
        let b = reconstructed.data();
        ErrorReport { max_abs: max_abs_error(a, b), rmse: rmse(a, b), psnr: psnr(a, b) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;

    #[test]
    fn identical_slices_have_zero_error() {
        let a = vec![1.0, -2.0, 3.5];
        assert_eq!(max_abs_error(&a, &a), 0.0);
        assert_eq!(rmse(&a, &a), 0.0);
        assert_eq!(psnr(&a, &a), f64::INFINITY);
    }

    #[test]
    fn max_error_finds_worst_point() {
        let a = vec![0.0, 0.0, 0.0];
        let b = vec![0.1, -0.5, 0.2];
        assert_eq!(max_abs_error(&a, &b), 0.5);
    }

    #[test]
    fn psnr_decreases_with_noise() {
        let orig: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let small: Vec<f64> = orig.iter().map(|v| v + 0.01).collect();
        let large: Vec<f64> = orig.iter().map(|v| v + 1.0).collect();
        assert!(psnr(&orig, &small) > psnr(&orig, &large));
    }

    #[test]
    fn psnr_formula_sanity() {
        // range = 99, uniform error 0.99 => psnr = 10 log10((99/0.99)^2) = 40 dB
        let orig: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let rec: Vec<f64> = orig.iter().map(|v| v + 0.99).collect();
        assert!((psnr(&orig, &rec) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn report_bundles_metrics() {
        let a = Field::new("a", 0, Shape::d1(2), vec![0.0, 1.0]);
        let b = Field::new("b", 0, Shape::d1(2), vec![0.5, 1.0]);
        let r = ErrorReport::between(&a, &b);
        assert_eq!(r.max_abs, 0.5);
        assert!((r.rmse - (0.125_f64).sqrt()).abs() < 1e-12);
    }
}
