//! Grid shapes and strided indexing for 1-, 2- and 3-dimensional fields.

/// The shape of a dense scalar field with up to three dimensions.
///
/// Dimensions are stored as `[nx, ny, nz]`; unused trailing dimensions are 1.
/// Data layout is row-major with x fastest: `index = x + nx * (y + ny * z)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: [usize; 3],
    /// Number of meaningful dimensions (1, 2 or 3).
    ndim: usize,
}

impl Shape {
    /// A 1-D shape of `nx` points.
    pub fn d1(nx: usize) -> Self {
        assert!(nx >= 1, "shape dimensions must be positive");
        Shape { dims: [nx, 1, 1], ndim: 1 }
    }

    /// A 2-D shape of `nx * ny` points.
    pub fn d2(nx: usize, ny: usize) -> Self {
        assert!(nx >= 1 && ny >= 1, "shape dimensions must be positive");
        Shape { dims: [nx, ny, 1], ndim: 2 }
    }

    /// A 3-D shape of `nx * ny * nz` points.
    pub fn d3(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx >= 1 && ny >= 1 && nz >= 1, "shape dimensions must be positive");
        Shape { dims: [nx, ny, nz], ndim: 3 }
    }

    /// A cube of side `n` (the common case in the paper: 512^3, here scaled).
    pub fn cube(n: usize) -> Self {
        Shape::d3(n, n, n)
    }

    /// Number of meaningful dimensions.
    pub fn ndim(&self) -> usize {
        self.ndim
    }

    /// Extent along dimension `d` (0 = x, 1 = y, 2 = z).
    pub fn dim(&self, d: usize) -> usize {
        self.dims[d]
    }

    /// All three extents (trailing ones are 1).
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Total number of grid points.
    pub fn len(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// True when the grid has no points (never constructible via the public
    /// constructors, but kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stride (in elements) of dimension `d`. Requires `d < 3`.
    pub fn stride(&self, d: usize) -> usize {
        assert!(d < 3, "dimension out of range: {d}");
        self.dims[..d].iter().product()
    }

    /// Linear index of the grid point `(x, y, z)`.
    #[inline]
    pub fn index(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.dims[0] && y < self.dims[1] && z < self.dims[2]);
        x + self.dims[0] * (y + self.dims[1] * z)
    }

    /// Inverse of [`Shape::index`].
    #[inline]
    pub fn coords(&self, idx: usize) -> (usize, usize, usize) {
        let x = idx % self.dims[0];
        let rest = idx / self.dims[0];
        let y = rest % self.dims[1];
        let z = rest / self.dims[1];
        (x, y, z)
    }

    /// Iterate over the start offsets of all 1-D lines along dimension `d`.
    ///
    /// A "line" is the set of points that differ only in their coordinate
    /// along `d`; the decomposition transforms operate line by line.
    /// Requires `d < 3`.
    pub fn line_starts(&self, d: usize) -> Vec<usize> {
        assert!(d < 3, "dimension out of range: {d}");
        let mut starts = Vec::with_capacity(self.len() / self.dims[d]);
        match d {
            0 => {
                for z in 0..self.dims[2] {
                    for y in 0..self.dims[1] {
                        starts.push(self.index(0, y, z));
                    }
                }
            }
            1 => {
                for z in 0..self.dims[2] {
                    for x in 0..self.dims[0] {
                        starts.push(self.index(x, 0, z));
                    }
                }
            }
            // d == 2, by the assert above.
            _ => {
                for y in 0..self.dims[1] {
                    for x in 0..self.dims[0] {
                        starts.push(self.index(x, y, 0));
                    }
                }
            }
        }
        starts
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.ndim {
            1 => write!(f, "{}", self.dims[0]),
            2 => write!(f, "{}x{}", self.dims[0], self.dims[1]),
            _ => write!(f, "{}x{}x{}", self.dims[0], self.dims[1], self.dims[2]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_len_and_strides() {
        let s = Shape::cube(4);
        assert_eq!(s.len(), 64);
        assert_eq!(s.stride(0), 1);
        assert_eq!(s.stride(1), 4);
        assert_eq!(s.stride(2), 16);
        assert_eq!(s.ndim(), 3);
    }

    #[test]
    fn index_coords_roundtrip() {
        let s = Shape::d3(3, 4, 5);
        for idx in 0..s.len() {
            let (x, y, z) = s.coords(idx);
            assert_eq!(s.index(x, y, z), idx);
        }
    }

    #[test]
    fn line_starts_cover_grid() {
        let s = Shape::d3(3, 4, 5);
        for d in 0..3 {
            let starts = s.line_starts(d);
            assert_eq!(starts.len() * s.dim(d), s.len());
            // Walking every line must visit every point exactly once.
            let mut seen = vec![false; s.len()];
            for &st in &starts {
                for i in 0..s.dim(d) {
                    let idx = st + i * s.stride(d);
                    assert!(!seen[idx], "point visited twice");
                    seen[idx] = true;
                }
            }
            assert!(seen.iter().all(|&v| v));
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Shape::d1(8).to_string(), "8");
        assert_eq!(Shape::d2(8, 4).to_string(), "8x4");
        assert_eq!(Shape::cube(16).to_string(), "16x16x16");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_rejected() {
        let _ = Shape::d2(0, 3);
    }
}
