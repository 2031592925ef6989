//! Post-hoc analysis kernels and fidelity metrics.
//!
//! The paper's opening motivation is that *post-hoc data analytics* on
//! full-resolution simulation output is I/O-bound, and progressive
//! retrieval lets an analysis trade accuracy for bytes. This module
//! supplies representative analysis kernels —
//!
//! * value **histograms** and **quantiles**,
//! * **isosurface activity** (cells straddling an isovalue — the work a
//!   marching-cubes pass would do),
//! * **total variation** (aggregate gradient magnitude),
//!
//! — plus distance metrics between an analysis run on original data and
//! the same analysis on a progressively retrieved approximation, so the
//! accuracy-vs-bytes trade-off can be *measured in analysis terms* rather
//! than raw error norms (`analysis_fidelity` bench). [`downsample`] cuts
//! the original down to the grid of a coarse-resolution retrieval, the
//! reference that retrieval is compared with.

// Panics, as scoped to this module (DESIGN.md §8); test code is exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
    )
)]

use pmr_field::{Field, Shape};

/// A normalised value histogram over `[min, max]` of the analysed field.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    pub min: f64,
    pub max: f64,
    /// Bin fractions summing to 1 (for non-empty fields).
    pub bins: Vec<f64>,
}

/// Histogram of `field` with `bins` equal-width bins over the field's own
/// range (degenerate ranges put everything in bin 0).
pub fn histogram(field: &Field, bins: usize) -> Histogram {
    assert!(bins >= 1, "need at least one bin");
    let (min, max) = field.min_max();
    let mut counts = vec![0u64; bins];
    let width = max - min;
    for &v in field.data() {
        let idx = if width > 0.0 {
            (((v - min) / width) * bins as f64).min(bins as f64 - 1.0) as usize
        } else {
            0
        };
        counts[idx] += 1;
    }
    let n = field.len().max(1) as f64;
    Histogram { min, max, bins: counts.into_iter().map(|c| c as f64 / n).collect() }
}

impl Histogram {
    /// L1 distance between two histograms *with matched binning*: `other`
    /// is re-binned onto `self`'s range first.
    pub fn l1_distance(&self, other: &Histogram) -> f64 {
        assert_eq!(self.bins.len(), other.bins.len(), "bin count mismatch");
        self.bins.iter().zip(&other.bins).map(|(a, b)| (a - b).abs()).sum()
    }
}

/// The `q`-quantiles of the field values (`qs` in `[0, 1]`).
pub fn quantiles(field: &Field, qs: &[f64]) -> Vec<f64> {
    assert!(!field.is_empty(), "cannot take quantiles of an empty field");
    let mut sorted: Vec<f64> = field.data().to_vec();
    sorted.sort_by(f64::total_cmp);
    qs.iter()
        .map(|&q| {
            assert!((0.0..=1.0).contains(&q), "quantile out of range");
            let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
            sorted[idx]
        })
        .collect()
}

/// Number of grid cells whose corner values straddle `isovalue` — the
/// cells a marching-cubes isosurface pass would visit. For 1-D/2-D
/// fields, cells are segments/quads.
pub fn isosurface_cells(field: &Field, isovalue: f64) -> usize {
    let s = field.shape();
    let (nx, ny, nz) = (s.dim(0), s.dim(1), s.dim(2));
    let cx = nx.saturating_sub(1).max(usize::from(nx == 1));
    let cy = ny.saturating_sub(1).max(usize::from(ny == 1));
    let cz = nz.saturating_sub(1).max(usize::from(nz == 1));
    let mut count = 0usize;
    for z in 0..cz {
        for y in 0..cy {
            for x in 0..cx {
                let mut below = false;
                let mut above = false;
                for dz in 0..=usize::from(nz > 1) {
                    for dy in 0..=usize::from(ny > 1) {
                        for dx in 0..=usize::from(nx > 1) {
                            let v = field.get(x + dx, y + dy, z + dz);
                            if v < isovalue {
                                below = true;
                            } else {
                                above = true;
                            }
                        }
                    }
                }
                if below && above {
                    count += 1;
                }
            }
        }
    }
    count
}

/// Total variation: the sum of absolute forward differences along every
/// axis — an integral smoothness measure analyses often track.
pub fn total_variation(field: &Field) -> f64 {
    let s = field.shape();
    let mut tv = 0.0;
    for d in 0..3 {
        if s.dim(d) < 2 {
            continue;
        }
        let stride = s.stride(d);
        for start in s.line_starts(d) {
            for i in 0..s.dim(d) - 1 {
                tv += (field.data()[start + (i + 1) * stride] - field.data()[start + i * stride])
                    .abs();
            }
        }
    }
    tv
}

/// Downsample by taking every `stride`-th point along each dimension
/// (endpoints included when they fall on the stride grid).
///
/// A field of side `2^k + 1` downsampled by 2 gives side `2^(k-1) + 1`, so
/// repeated halving matches the decomposition hierarchy.
pub fn downsample(field: &Field, stride: usize) -> Field {
    assert!(stride >= 1, "stride must be at least 1");
    let s = field.shape();
    let n = |d: usize| s.dim(d).div_ceil(stride);
    let shape = match s.ndim() {
        1 => Shape::d1(n(0)),
        2 => Shape::d2(n(0), n(1)),
        _ => Shape::d3(n(0), n(1), n(2)),
    };
    Field::from_fn(field.name(), field.timestep(), shape, |x, y, z| {
        field.get(x * stride, y * stride, z * stride)
    })
}

/// Side-by-side analysis of an original field and an approximation.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityReport {
    /// L1 distance between 64-bin histograms.
    pub histogram_l1: f64,
    /// Relative error of the isosurface cell count at the original's
    /// median isovalue.
    pub isosurface_rel_err: f64,
    /// Relative error of the total variation.
    pub total_variation_rel_err: f64,
    /// Max abs error of the 5/50/95-percentile values, normalised by the
    /// original's value range.
    pub quantile_rel_err: f64,
}

/// Measure how faithfully `approx` reproduces the *analyses* of
/// `original` (not just its values).
pub fn fidelity(original: &Field, approx: &Field) -> FidelityReport {
    assert_eq!(original.shape(), approx.shape(), "shape mismatch");
    let h1 = histogram(original, 64);
    let h2 = histogram(approx, 64);
    let iso = quantiles(original, &[0.5])[0];
    let c1 = isosurface_cells(original, iso) as f64;
    let c2 = isosurface_cells(approx, iso) as f64;
    let tv1 = total_variation(original);
    let tv2 = total_variation(approx);
    let q1 = quantiles(original, &[0.05, 0.5, 0.95]);
    let q2 = quantiles(approx, &[0.05, 0.5, 0.95]);
    let range = original.value_range().max(f64::MIN_POSITIVE);
    let qerr = q1.iter().zip(&q2).map(|(a, b)| (a - b).abs() / range).fold(0.0f64, f64::max);
    FidelityReport {
        histogram_l1: h1.l1_distance(&h2),
        isosurface_rel_err: if c1 > 0.0 { (c1 - c2).abs() / c1 } else { 0.0 },
        total_variation_rel_err: if tv1 > 0.0 { (tv1 - tv2).abs() / tv1 } else { 0.0 },
        quantile_rel_err: qerr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave() -> Field {
        Field::from_fn("w", 0, Shape::cube(12), |x, y, z| {
            ((x as f64) * 0.7).sin() + ((y as f64) * 0.4).cos() + (z as f64) * 0.05
        })
    }

    #[test]
    fn histogram_sums_to_one() {
        let h = histogram(&wave(), 32);
        let sum: f64 = h.bins.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(h.bins.len(), 32);
    }

    #[test]
    fn constant_field_histogram() {
        let f = Field::new("c", 0, Shape::d1(10), vec![3.0; 10]);
        let h = histogram(&f, 8);
        assert_eq!(h.bins[0], 1.0);
        assert!(h.bins[1..].iter().all(|&b| b == 0.0));
    }

    #[test]
    fn identical_fields_have_zero_distance() {
        let f = wave();
        let r = fidelity(&f, &f);
        assert_eq!(r.histogram_l1, 0.0);
        assert_eq!(r.isosurface_rel_err, 0.0);
        assert_eq!(r.total_variation_rel_err, 0.0);
        assert_eq!(r.quantile_rel_err, 0.0);
    }

    #[test]
    fn quantiles_of_ramp() {
        let f = Field::from_fn("r", 0, Shape::d1(101), |x, _, _| x as f64);
        let q = quantiles(&f, &[0.0, 0.5, 1.0]);
        assert_eq!(q, vec![0.0, 50.0, 100.0]);
    }

    #[test]
    fn isosurface_counts_straddling_cells() {
        // A step function along x: only cells containing the step straddle.
        let f =
            Field::from_fn("s", 0, Shape::d3(10, 4, 4), |x, _, _| if x < 5 { 0.0 } else { 1.0 });
        let cells = isosurface_cells(&f, 0.5);
        assert_eq!(cells, 3 * 3); // one x-layer of 3x3 cells
    }

    #[test]
    fn total_variation_of_ramp() {
        let f = Field::from_fn("r", 0, Shape::d1(11), |x, _, _| x as f64 * 2.0);
        assert!((total_variation(&f) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn noise_increases_fidelity_distances() {
        let f = wave();
        let data = f.data().iter().map(|&a| a + ((a * 12345.6789).sin()) * 0.2).collect();
        let noisy = Field::new(f.name(), f.timestep(), f.shape(), data);
        let r = fidelity(&f, &noisy);
        assert!(r.histogram_l1 > 0.0);
        assert!(r.total_variation_rel_err > 0.0);
    }

    fn ramp3d() -> Field {
        Field::from_fn("r", 1, Shape::d3(5, 4, 3), |x, y, z| {
            x as f64 + 10.0 * y as f64 + 100.0 * z as f64
        })
    }

    #[test]
    fn downsample_keeps_strided_points() {
        let f = ramp3d();
        let d = downsample(&f, 2);
        assert_eq!(d.shape().dims(), [3, 2, 2]);
        assert_eq!(d.get(0, 0, 0), f.get(0, 0, 0));
        assert_eq!(d.get(2, 1, 1), f.get(4, 2, 2));
        assert_eq!(d.timestep(), 1);
    }

    #[test]
    fn downsample_stride_one_is_identity() {
        let f = ramp3d();
        assert_eq!(downsample(&f, 1), f);
    }

    #[test]
    fn dyadic_downsampling_matches_hierarchy() {
        let f = Field::from_fn("h", 0, Shape::d1(17), |x, _, _| x as f64);
        let d = downsample(&f, 2);
        assert_eq!(d.len(), 9);
        let dd = downsample(&d, 2);
        assert_eq!(dd.len(), 5);
    }

    #[test]
    fn fidelity_improves_with_reconstruction_quality() {
        use pmr_mgard::{CompressConfig, Compressed, RetrievalPlan};
        let f = wave();
        let c = Compressed::compress(&f, &CompressConfig::default());
        let coarse = c.retrieve(&RetrievalPlan::from_planes(vec![6; c.num_levels()]));
        let fine = c.retrieve(&RetrievalPlan::from_planes(vec![20; c.num_levels()]));
        let r_coarse = fidelity(&f, &coarse);
        let r_fine = fidelity(&f, &fine);
        assert!(r_fine.histogram_l1 <= r_coarse.histogram_l1 + 1e-12);
        assert!(r_fine.quantile_rel_err <= r_coarse.quantile_rel_err + 1e-12);
    }
}
