//! The block-transform progressive compressor.

use super::block::{self, BLOCK_LEN};
use super::lifting;
use pmr_field::{Field, Shape};
use pmr_mgard::LevelEncoding;

/// Compression parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockConfig {
    /// Bit-planes in the embedded stream.
    pub num_planes: u32,
}

impl Default for BlockConfig {
    fn default() -> Self {
        BlockConfig { num_planes: 32 }
    }
}

/// A progressively truncatable block-compressed field.
///
/// The entire coefficient stream is one embedded sequence of bit-planes;
/// a retrieval is described by a single prefix length `b` (contrast with
/// the multilevel path's per-level counts).
#[derive(Debug, Clone)]
pub struct BlockCompressed {
    name: String,
    timestep: usize,
    shape: Shape,
    encoding: LevelEncoding,
    value_range: f64,
}

impl BlockCompressed {
    /// Blockify, transform, reorder and bit-plane encode `field`.
    pub fn compress(field: &Field, cfg: &BlockConfig) -> Self {
        let shape = field.shape();
        let grid = block::block_grid(shape);
        let order = block::coefficient_order();
        let nb = block::num_blocks(shape);
        // Coefficient layout: for each intra-block position (in frequency
        // order), the coefficient of every block — clustering magnitudes
        // so the high planes run-length compress well.
        let mut coeffs = vec![0.0f64; nb * BLOCK_LEN];
        let mut buf = [0.0f64; BLOCK_LEN];
        let mut bi = 0usize;
        for bz in 0..grid[2] {
            for by in 0..grid[1] {
                for bx in 0..grid[0] {
                    block::gather(field.data(), shape, bx, by, bz, &mut buf);
                    lifting::forward_block(&mut buf);
                    for (pos, &n) in order.iter().enumerate() {
                        coeffs[pos * nb + bi] = buf[n];
                    }
                    bi += 1;
                }
            }
        }
        BlockCompressed {
            name: field.name().to_string(),
            timestep: field.timestep(),
            shape,
            encoding: LevelEncoding::encode(&coeffs, cfg.num_planes),
            value_range: field.value_range(),
        }
    }

    /// Bit-planes in the stream.
    pub fn num_planes(&self) -> u32 {
        self.encoding.num_planes()
    }

    /// Total compressed payload.
    pub fn total_bytes(&self) -> u64 {
        self.encoding.total_size()
    }

    /// Bytes of the first `b` planes.
    pub fn bytes_for(&self, b: u32) -> u64 {
        self.encoding.size_of_first(b)
    }

    /// Original data value range (relative→absolute bound conversion).
    pub fn value_range(&self) -> f64 {
        self.value_range
    }

    /// Smallest plane prefix whose *coefficient* error bound satisfies
    /// `abs_bound` under the block transform's worst-case amplification.
    ///
    /// The inverse lifting amplifies a coefficient perturbation by at most
    /// 1.5 per axis step and each output sample receives contributions
    /// from all 64 basis functions of its block, bounded by the absolute
    /// row sum of the inverse transform — computed numerically once, like
    /// the multilevel path's theory constants (and just as pessimistic).
    pub fn plan(&self, abs_bound: f64) -> u32 {
        let c = inverse_row_sum_bound();
        let mut b = 0u32;
        while b < self.num_planes() && c * self.encoding.error_at(b) > abs_bound {
            b += 1;
        }
        b
    }

    /// Reconstruct from the first `b` planes.
    pub fn retrieve(&self, b: u32) -> Field {
        let coeffs = self.encoding.decode(b);
        let grid = block::block_grid(self.shape);
        let order = block::coefficient_order();
        let nb = block::num_blocks(self.shape);
        let mut data = vec![0.0f64; self.shape.len()];
        let mut buf = [0.0f64; BLOCK_LEN];
        let mut bi = 0usize;
        for bz in 0..grid[2] {
            for by in 0..grid[1] {
                for bx in 0..grid[0] {
                    for (pos, &n) in order.iter().enumerate() {
                        buf[n] = coeffs[pos * nb + bi];
                    }
                    lifting::inverse_block(&mut buf);
                    block::scatter(&mut data, self.shape, bx, by, bz, &buf);
                    bi += 1;
                }
            }
        }
        Field::new(self.name.clone(), self.timestep, self.shape, data)
    }
}

/// Absolute row-sum bound of the inverse block transform, computed by
/// pushing unit coefficient perturbations through `inverse_block` with
/// absolute-value accumulation (memoised — the transform is fixed).
fn inverse_row_sum_bound() -> f64 {
    use std::sync::OnceLock;
    static BOUND: OnceLock<f64> = OnceLock::new();
    *BOUND.get_or_init(|| {
        let mut max_row = vec![0.0f64; BLOCK_LEN];
        for j in 0..BLOCK_LEN {
            let mut e = vec![0.0f64; BLOCK_LEN];
            e[j] = 1.0;
            lifting::inverse_block(&mut e);
            for (acc, v) in max_row.iter_mut().zip(&e) {
                *acc += v.abs();
            }
        }
        max_row.into_iter().fold(0.0, f64::max)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmr_field::error::max_abs_error;

    fn wave(n: usize) -> Field {
        Field::from_fn("w", 0, Shape::cube(n), |x, y, z| {
            ((x as f64) * 0.35).sin() * ((y as f64) * 0.2).cos() + (z as f64) * 0.04
        })
    }

    #[test]
    fn full_retrieval_near_lossless() {
        for n in [8usize, 9, 12] {
            let field = wave(n);
            let c = BlockCompressed::compress(&field, &BlockConfig::default());
            let rec = c.retrieve(c.num_planes());
            let err = max_abs_error(field.data(), rec.data());
            assert!(err < 1e-5, "n={n} err={err}");
        }
    }

    #[test]
    fn truncation_error_decreases() {
        let field = wave(12);
        let c = BlockCompressed::compress(&field, &BlockConfig::default());
        let mut prev = f64::INFINITY;
        for b in (0..=32).step_by(4) {
            let rec = c.retrieve(b);
            let err = max_abs_error(field.data(), rec.data());
            assert!(err <= prev * 1.01 + 1e-12, "b={b} err={err} prev={prev}");
            prev = err;
        }
    }

    #[test]
    fn plan_respects_bound() {
        let field = wave(12);
        let c = BlockCompressed::compress(&field, &BlockConfig::default());
        for rel in [1e-1, 1e-3, 1e-5] {
            let abs = rel * c.value_range();
            let b = c.plan(abs);
            let rec = c.retrieve(b);
            let err = max_abs_error(field.data(), rec.data());
            assert!(err <= abs, "rel={rel} b={b} err={err} bound={abs}");
        }
    }

    #[test]
    fn bytes_grow_with_planes() {
        let field = wave(12);
        let c = BlockCompressed::compress(&field, &BlockConfig::default());
        let mut prev = 0;
        for b in 0..=32 {
            let bytes = c.bytes_for(b);
            assert!(bytes >= prev);
            prev = bytes;
        }
        assert_eq!(prev, c.total_bytes());
    }

    #[test]
    fn non_multiple_of_four_shapes_roundtrip() {
        let field = Field::from_fn("odd", 2, Shape::d3(7, 5, 6), |x, y, z| {
            (x * y) as f64 * 0.1 - (z as f64)
        });
        let c = BlockCompressed::compress(&field, &BlockConfig::default());
        let rec = c.retrieve(c.num_planes());
        assert_eq!(rec.shape(), field.shape());
        assert!(max_abs_error(field.data(), rec.data()) < 1e-5);
    }

    #[test]
    fn row_sum_bound_is_sound() {
        // Any coefficient perturbation of magnitude eps changes an output
        // sample by at most bound * eps.
        let bound = inverse_row_sum_bound();
        assert!(bound >= 1.0);
        let field = wave(8);
        let c = BlockCompressed::compress(&field, &BlockConfig::default());
        for b in [4u32, 10, 20] {
            let rec = c.retrieve(b);
            let err = max_abs_error(field.data(), rec.data());
            let est = bound * c.encoding.error_at(b);
            assert!(err <= est * (1.0 + 1e-9), "b={b} err={err} est={est}");
        }
    }
}
