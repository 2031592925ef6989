//! The owned scalar-field container.

use crate::shape::Shape;

/// A dense, double-precision scalar field produced by a simulation timestep.
///
/// `Field` owns its data and carries the metadata the retrieval framework
/// needs: the field name (e.g. `"J_x"`, `"D_u"`), the timestep it belongs to
/// and its grid [`Shape`]. Data is row-major with x fastest.
///
/// ```
/// use pmr_field::{Field, Shape};
///
/// let f = Field::from_fn("demo", 3, Shape::d2(4, 4), |x, y, _| (x + y) as f64);
/// assert_eq!(f.len(), 16);
/// assert_eq!(f.get(1, 2, 0), 3.0);
/// assert_eq!(f.min_max(), (0.0, 6.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    name: String,
    timestep: usize,
    shape: Shape,
    data: Vec<f64>,
}

/// `(min, max)` of the values `keep` admits, `(0, 0)` when it admits none;
/// a NaN is never the smaller or the larger of two values, so it never
/// counts.
///
/// A value that is not admitted reads as the identity of each fold (+inf
/// for the minimum, -inf for the maximum), so the loop has no branch to
/// predict; and the smallest and largest of a set do not depend on the order
/// the set is walked in, so a few independent lanes find the same two
/// numbers as one running pair, without its chain of dependent compares.
/// (Only the sign of an extreme that is zero can depend on the order;
/// `max - min` cannot see it.)
fn min_max_where(data: &[f64], keep: impl Fn(f64) -> bool) -> (f64, f64) {
    const LANES: usize = 4;
    let mut lo = [f64::INFINITY; LANES];
    let mut hi = [f64::NEG_INFINITY; LANES];
    let mut fold = |group: &[f64]| {
        for ((lo, hi), &v) in lo.iter_mut().zip(hi.iter_mut()).zip(group) {
            let (below, above) = if keep(v) { (v, v) } else { (f64::INFINITY, f64::NEG_INFINITY) };
            *lo = if below < *lo { below } else { *lo };
            *hi = if above > *hi { above } else { *hi };
        }
    };
    let mut groups = data.chunks_exact(LANES);
    groups.by_ref().for_each(&mut fold);
    fold(groups.remainder());
    let lo = lo.iter().fold(f64::INFINITY, |m, &v| if v < m { v } else { m });
    let hi = hi.iter().fold(f64::NEG_INFINITY, |m, &v| if v > m { v } else { m });
    if lo > hi {
        (0.0, 0.0)
    } else {
        (lo, hi)
    }
}

impl Field {
    /// Create a field from raw data; `data.len()` must equal `shape.len()`.
    pub fn new(name: impl Into<String>, timestep: usize, shape: Shape, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {}",
            data.len(),
            shape
        );
        Field { name: name.into(), timestep, shape, data }
    }

    /// A zero-filled field.
    pub fn zeros(name: impl Into<String>, timestep: usize, shape: Shape) -> Self {
        Field::new(name, timestep, shape, vec![0.0; shape.len()])
    }

    /// Build a field by evaluating `f(x, y, z)` at every grid point.
    pub fn from_fn(
        name: impl Into<String>,
        timestep: usize,
        shape: Shape,
        mut f: impl FnMut(usize, usize, usize) -> f64,
    ) -> Self {
        let mut data = Vec::with_capacity(shape.len());
        for z in 0..shape.dim(2) {
            for y in 0..shape.dim(1) {
                for x in 0..shape.dim(0) {
                    data.push(f(x, y, z));
                }
            }
        }
        Field::new(name, timestep, shape, data)
    }

    /// Field name (e.g. `"B_x"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Simulation timestep this snapshot belongs to.
    pub fn timestep(&self) -> usize {
        self.timestep
    }

    /// Grid shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the field holds no points.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the raw values.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the raw values.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Value at `(x, y, z)`.
    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> f64 {
        self.data[self.shape.index(x, y, z)]
    }

    /// Set the value at `(x, y, z)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: f64) {
        let idx = self.shape.index(x, y, z);
        self.data[idx] = v;
    }

    /// `(min, max)` over all values. Returns `(0, 0)` for empty fields.
    pub fn min_max(&self) -> (f64, f64) {
        min_max_where(&self.data, |_| true)
    }

    /// [`Field::min_max`] over the finite values only: `(0, 0)` when there
    /// are none, and the same pair as `min_max` when all are.
    pub fn finite_min_max(&self) -> (f64, f64) {
        min_max_where(&self.data, f64::is_finite)
    }

    /// `max - min`; the value range used to convert relative error bounds to
    /// absolute ones (the paper assumes per-timestep ranges are recorded
    /// during the simulation).
    pub fn value_range(&self) -> f64 {
        let (lo, hi) = self.min_max();
        hi - lo
    }

    /// Largest absolute value in the field.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_layout_is_x_fastest() {
        let f = Field::from_fn("t", 0, Shape::d3(2, 2, 2), |x, y, z| (x + 10 * y + 100 * z) as f64);
        assert_eq!(f.data()[0], 0.0);
        assert_eq!(f.data()[1], 1.0); // x moved first
        assert_eq!(f.data()[2], 10.0); // then y
        assert_eq!(f.data()[4], 100.0); // then z
        assert_eq!(f.get(1, 1, 1), 111.0);
    }

    #[test]
    fn min_max_and_range() {
        let f = Field::new("t", 3, Shape::d1(4), vec![-2.0, 5.0, 0.5, 1.0]);
        assert_eq!(f.min_max(), (-2.0, 5.0));
        assert_eq!(f.value_range(), 7.0);
        assert_eq!(f.max_abs(), 5.0);
        assert_eq!(f.timestep(), 3);
    }

    /// The running-pair scan `min_max_where` replaced, as the reference.
    fn min_max_reference(data: &[f64], keep: impl Fn(f64) -> bool) -> (f64, f64) {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in data.iter().filter(|&&v| keep(v)) {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if lo > hi {
            (0.0, 0.0)
        } else {
            (lo, hi)
        }
    }

    #[test]
    fn min_max_matches_the_running_pair_on_hostile_values() {
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 5e-324, -1e308];
        let mut rng = pmr_rng::Rng::seed_from_u64(20);
        for n in 1..40 {
            let data: Vec<f64> = (0..n)
                .map(|_| if rng.bool() { rng.one_of(&specials) } else { rng.range(-3.0..3.0) })
                .collect();
            let f = Field::new("t", 0, Shape::d1(n), data);
            // The range is what is persisted, so it is compared in bits;
            // the extremes compare as numbers (a zero may change sign).
            let bits = |(lo, hi): (f64, f64)| (hi - lo).to_bits();
            let all = min_max_reference(f.data(), |_| true);
            assert_eq!(f.min_max(), all, "{:?}", f.data());
            assert_eq!(bits(f.min_max()), bits(all), "{:?}", f.data());
            let finite = min_max_reference(f.data(), f64::is_finite);
            assert_eq!(f.finite_min_max(), finite, "{:?}", f.data());
            assert_eq!(bits(f.finite_min_max()), bits(finite), "{:?}", f.data());
        }
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn wrong_length_rejected() {
        let _ = Field::new("t", 0, Shape::d1(3), vec![1.0]);
    }
}
