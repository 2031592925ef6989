//! Statistical summaries of fields.
//!
//! The paper's D-MGARD model takes "a set of statistical data features" as
//! input alongside the achieved maximum error. [`FieldStats`] is that set:
//! moments, range, a gradient-magnitude summary and lag-1 autocorrelation
//! (a cheap smoothness proxy — the paper notes that smoother data needs
//! fewer bit-planes).

use crate::field::Field;

/// One-pass(ish) statistical summary of a scalar field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldStats {
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    pub std: f64,
    pub skewness: f64,
    pub kurtosis: f64,
    /// Mean absolute forward difference along x (gradient-magnitude proxy).
    pub mean_abs_grad: f64,
    /// Lag-1 autocorrelation along x; close to 1 for smooth fields.
    pub autocorr: f64,
}

impl FieldStats {
    /// Compute the summary for `field`.
    ///
    /// Higher moments use the two-pass formula for numerical robustness.
    /// Gradient and autocorrelation walk x-lines only; for the isotropic
    /// simulation data used here that is representative and three times
    /// cheaper than a full stencil.
    pub fn compute(field: &Field) -> Self {
        let data = field.data();
        let n = data.len();
        assert!(n > 0, "cannot summarise an empty field");
        let nf = n as f64;

        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &v in data {
            lo = lo.min(v);
            hi = hi.max(v);
            sum += v;
        }
        let mean = sum / nf;

        let (mut m2, mut m3, mut m4) = (0.0, 0.0, 0.0);
        for &v in data {
            let d = v - mean;
            let d2 = d * d;
            m2 += d2;
            m3 += d2 * d;
            m4 += d2 * d2;
        }
        m2 /= nf;
        m3 /= nf;
        m4 /= nf;
        let std = m2.sqrt();
        let (skewness, kurtosis) =
            if std > 0.0 { (m3 / (std * std * std), m4 / (m2 * m2) - 3.0) } else { (0.0, 0.0) };

        let shape = field.shape();
        let nx = shape.dim(0);
        let mut grad_sum = 0.0;
        let mut grad_count = 0usize;
        let mut cov = 0.0;
        if nx >= 2 {
            for start in shape.line_starts(0) {
                for i in 0..nx - 1 {
                    let a = data[start + i];
                    let b = data[start + i + 1];
                    grad_sum += (b - a).abs();
                    cov += (a - mean) * (b - mean);
                    grad_count += 1;
                }
            }
        }
        let mean_abs_grad = if grad_count > 0 { grad_sum / grad_count as f64 } else { 0.0 };
        // The pair covariance is normalised by the full-field variance, so
        // tiny samples can nominally exceed |1|; clamp to keep the feature
        // in its semantic range.
        let autocorr = if grad_count > 0 && m2 > 0.0 {
            ((cov / grad_count as f64) / m2).clamp(-1.0, 1.0)
        } else {
            0.0
        };

        FieldStats { min: lo, max: hi, mean, std, skewness, kurtosis, mean_abs_grad, autocorr }
    }

    /// `max - min`.
    pub fn range(&self) -> f64 {
        self.max - self.min
    }

    /// Flatten into the feature layout shared by the DNN models.
    ///
    /// The order is part of the model contract; see
    /// [`FEATURE_NAMES`](Self::FEATURE_NAMES).
    pub fn to_features(&self) -> [f64; 9] {
        [
            self.min,
            self.max,
            self.range(),
            self.mean,
            self.std,
            self.skewness,
            self.kurtosis,
            self.mean_abs_grad,
            self.autocorr,
        ]
    }

    /// Names of the entries returned by [`to_features`](Self::to_features).
    pub const FEATURE_NAMES: [&'static str; 9] =
        ["min", "max", "range", "mean", "std", "skewness", "kurtosis", "mean_abs_grad", "autocorr"];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;

    #[test]
    fn constant_field_stats() {
        let f = Field::new("c", 0, Shape::d1(10), vec![3.0; 10]);
        let s = FieldStats::compute(&f);
        assert_eq!(s.min, 3.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.skewness, 0.0);
        assert_eq!(s.mean_abs_grad, 0.0);
    }

    #[test]
    fn symmetric_data_has_zero_skew() {
        let f = Field::new("s", 0, Shape::d1(4), vec![-2.0, -1.0, 1.0, 2.0]);
        let s = FieldStats::compute(&f);
        assert!(s.skewness.abs() < 1e-12);
        assert!((s.mean).abs() < 1e-12);
    }

    #[test]
    fn smooth_line_has_high_autocorr() {
        let smooth = Field::from_fn("s", 0, Shape::d1(256), |x, _, _| (x as f64 * 0.05).sin());
        let s = FieldStats::compute(&smooth);
        assert!(s.autocorr > 0.95, "autocorr = {}", s.autocorr);
    }

    #[test]
    fn feature_vector_matches_names() {
        let f = Field::from_fn("s", 0, Shape::d2(8, 8), |x, y, _| (x * y) as f64);
        let s = FieldStats::compute(&f);
        let v = s.to_features();
        assert_eq!(v.len(), FieldStats::FEATURE_NAMES.len());
        assert_eq!(v[0], s.min);
        assert_eq!(v[8], s.autocorr);
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn known_variance() {
        let f = Field::new("v", 0, Shape::d1(2), vec![0.0, 2.0]);
        let s = FieldStats::compute(&f);
        assert_eq!(s.mean, 1.0);
        assert_eq!(s.std, 1.0);
    }
}
