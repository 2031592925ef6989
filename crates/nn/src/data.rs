//! Datasets, feature standardisation and mini-batching.

use crate::tensor::Matrix;
use pmr_error::{ByteReader, PmrError};
use pmr_rng::Rng;

/// Per-column z-score standardiser fitted on training features.
#[derive(Debug, Clone, PartialEq)]
pub struct Standardizer {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl Standardizer {
    /// Fit column means and standard deviations (constant columns get
    /// `std = 1` so they transform to zero rather than NaN).
    pub fn fit(x: &Matrix) -> Self {
        assert!(x.rows() > 0, "cannot fit on an empty matrix");
        let n = x.rows() as f32;
        let mut mean = vec![0.0f32; x.cols()];
        for r in 0..x.rows() {
            for (m, &v) in mean.iter_mut().zip(x.row(r)) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0f32; x.cols()];
        for r in 0..x.rows() {
            for ((s, &v), &m) in var.iter_mut().zip(x.row(r)).zip(&mean) {
                let d = v - m;
                *s += d * d;
            }
        }
        // Columns with (near-)zero spread get std = 1 instead of a tiny
        // epsilon: dividing by an epsilon would blow microscopic jitter in
        // an almost-constant column up to huge z-scores and wreck training.
        let std: Vec<f32> = var
            .into_iter()
            .zip(&mean)
            .map(|(v, &m)| {
                let s = (v / n).sqrt();
                if s < 1e-4 * (1.0 + m.abs()) {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        Standardizer { mean, std }
    }

    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Transform a matrix (columns must match the fitted width).
    pub fn transform(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.dim(), "column count mismatch");
        let mut out = x.clone();
        let cols = self.dim();
        for (i, v) in out.data_mut().iter_mut().enumerate() {
            let c = i % cols;
            *v = (*v - self.mean[c]) / self.std[c];
        }
        out
    }

    /// Transform a single row in place.
    pub fn transform_row(&self, row: &mut [f32]) {
        assert_eq!(row.len(), self.dim(), "row length mismatch");
        for (i, v) in row.iter_mut().enumerate() {
            *v = (*v - self.mean[i]) / self.std[i];
        }
    }

    /// Undo [`Standardizer::transform_row`].
    pub fn inverse_row(&self, row: &mut [f32]) {
        assert_eq!(row.len(), self.dim(), "row length mismatch");
        for (i, v) in row.iter_mut().enumerate() {
            *v = *v * self.std[i] + self.mean[i];
        }
    }

    /// Persist to bytes (mean then std, f32 LE).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.dim() * 8);
        out.extend_from_slice(&(self.dim() as u32).to_le_bytes());
        for &v in self.mean.iter().chain(&self.std) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Inverse of [`Standardizer::to_bytes`].
    pub fn from_bytes(buf: &[u8]) -> Result<Self, PmrError> {
        let mut r = ByteReader::new(buf, "standardizer");
        let dim = r.u32()? as usize;
        let mut floats = || (0..dim).map(|_| r.f32()).collect::<Result<Vec<f32>, _>>();
        let mean = floats()?;
        let std = floats()?;
        r.done()?;
        Ok(Standardizer { mean, std })
    }
}

/// Paired features and targets.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    pub x: Matrix,
    pub y: Matrix,
}

impl Dataset {
    pub fn new(x: Matrix, y: Matrix) -> Self {
        assert_eq!(x.rows(), y.rows(), "feature/target row mismatch");
        Dataset { x, y }
    }

    pub fn len(&self) -> usize {
        self.x.rows()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deterministically shuffle and split into `(train, test)` with
    /// `train_frac` of the rows in the training set (at least one row each
    /// when possible).
    pub fn shuffle_split(&self, train_frac: f64, seed: u64) -> (Dataset, Dataset) {
        assert!((0.0..=1.0).contains(&train_frac), "fraction out of range");
        let mut idx: Vec<usize> = (0..self.len()).collect();
        Rng::seed_from_u64(seed).shuffle(&mut idx);
        let cut = ((self.len() as f64 * train_frac).round() as usize)
            .clamp(usize::from(self.len() > 1), self.len());
        let (a, b) = idx.split_at(cut);
        (
            Dataset::new(self.x.select_rows(a), self.y.select_rows(a)),
            Dataset::new(self.x.select_rows(b), self.y.select_rows(b)),
        )
    }

    /// Shuffled mini-batches for one epoch.
    pub fn batches(&self, batch_size: usize, seed: u64) -> Vec<(Matrix, Matrix)> {
        assert!(batch_size > 0, "batch size must be positive");
        let mut idx: Vec<usize> = (0..self.len()).collect();
        Rng::seed_from_u64(seed).shuffle(&mut idx);
        idx.chunks(batch_size)
            .map(|chunk| (self.x.select_rows(chunk), self.y.select_rows(chunk)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardizer_zero_mean_unit_var() {
        let x = Matrix::from_vec(4, 2, vec![1., 10., 2., 20., 3., 30., 4., 40.]);
        let s = Standardizer::fit(&x);
        let t = s.transform(&x);
        for c in 0..2 {
            let mean: f32 = (0..4).map(|r| t.get(r, c)).sum::<f32>() / 4.0;
            let var: f32 = (0..4).map(|r| t.get(r, c).powi(2)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-6);
            assert!((var - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn constant_column_does_not_nan() {
        let x = Matrix::from_vec(3, 1, vec![5., 5., 5.]);
        let s = Standardizer::fit(&x);
        let t = s.transform(&x);
        assert!(t.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn row_transform_roundtrip() {
        let x = Matrix::from_vec(3, 2, vec![1., -3., 2., 0., 4., 9.]);
        let s = Standardizer::fit(&x);
        let mut row = vec![2.5f32, 1.0];
        let orig = row.clone();
        s.transform_row(&mut row);
        s.inverse_row(&mut row);
        for (a, b) in orig.iter().zip(&row) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn standardizer_persistence() {
        let x = Matrix::from_vec(3, 2, vec![1., -3., 2., 0., 4., 9.]);
        let s = Standardizer::fit(&x);
        let rt = Standardizer::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(s, rt);
        assert!(Standardizer::from_bytes(&[1, 2, 3]).is_err());
    }

    #[test]
    fn split_partitions_rows() {
        let n = 10;
        let x = Matrix::from_vec(n, 1, (0..n).map(|i| i as f32).collect());
        let y = x.clone();
        let d = Dataset::new(x, y);
        let (tr, te) = d.shuffle_split(0.7, 3);
        assert_eq!(tr.len() + te.len(), n);
        assert_eq!(tr.len(), 7);
        // Same seed -> same split.
        let (tr2, _) = d.shuffle_split(0.7, 3);
        assert_eq!(tr.x, tr2.x);
    }

    #[test]
    fn batches_cover_dataset() {
        let n = 11;
        let x = Matrix::from_vec(n, 1, (0..n).map(|i| i as f32).collect());
        let d = Dataset::new(x.clone(), x);
        let batches = d.batches(4, 1);
        assert_eq!(batches.len(), 3); // 4 + 4 + 3
        let mut seen: Vec<f32> = batches.iter().flat_map(|(bx, _)| bx.data().to_vec()).collect();
        seen.sort_by(f32::total_cmp);
        assert_eq!(seen, (0..n).map(|i| i as f32).collect::<Vec<_>>());
    }
}
