//! The separable block transform: a two-level Haar-style lifting on
//! 4-vectors, applied along each dimension.
//!
//! Forward on `(x0, x1, x2, x3)`:
//!
//! ```text
//!   d0 = x1 − x0,  s0 = x0 + d0/2     (pair 1 average/detail)
//!   d1 = x3 − x2,  s1 = x2 + d1/2     (pair 2 average/detail)
//!   d2 = s1 − s0,  s2 = s0 + d2/2     (across pairs)
//!   output = (s2, d2, d0, d1)
//! ```
//!
//! `s2` is the block average (DC), `d2` a coarse detail, `d0`/`d1` fine
//! details. The inverse reverses the steps exactly; in `f64` the
//! round-trip is bit-exact because every step is a sum/difference plus a
//! halving of a representable value... up to the usual fp caveat, which
//! the property tests bound at 1 ulp-scale tolerance.

use super::block::{BLOCK, BLOCK_LEN};

/// Forward 1-D lifting of a 4-vector, in place.
#[inline]
pub fn forward4(v: &mut [f64; 4]) {
    let d0 = v[1] - v[0];
    let s0 = v[0] + d0 * 0.5;
    let d1 = v[3] - v[2];
    let s1 = v[2] + d1 * 0.5;
    let d2 = s1 - s0;
    let s2 = s0 + d2 * 0.5;
    *v = [s2, d2, d0, d1];
}

/// Inverse of [`forward4`], in place.
#[inline]
pub fn inverse4(v: &mut [f64; 4]) {
    let [s2, d2, d0, d1] = *v;
    let s0 = s2 - d2 * 0.5;
    let s1 = s0 + d2;
    let x0 = s0 - d0 * 0.5;
    let x1 = x0 + d0;
    let x2 = s1 - d1 * 0.5;
    let x3 = x2 + d1;
    *v = [x0, x1, x2, x3];
}

/// Apply the 1-D transform along every axis of a 4×4×4 block.
pub fn forward_block(block: &mut [f64]) {
    debug_assert_eq!(block.len(), BLOCK_LEN);
    transform_block(block, forward4);
}

/// Inverse of [`forward_block`].
pub fn inverse_block(block: &mut [f64]) {
    debug_assert_eq!(block.len(), BLOCK_LEN);
    // Same axis sweep: the per-axis transforms act on disjoint index sets
    // per line and the axis order is interchangeable for a separable
    // transform, so reusing the forward sweep order is valid.
    transform_block(block, inverse4);
}

fn transform_block(block: &mut [f64], f: impl Fn(&mut [f64; 4])) {
    let mut line = [0.0f64; 4];
    // Along x: lines are contiguous runs of 4.
    for start in (0..BLOCK_LEN).step_by(BLOCK) {
        line.copy_from_slice(&block[start..start + 4]);
        f(&mut line);
        block[start..start + 4].copy_from_slice(&line);
    }
    // Along y: stride 4 within each z-slab.
    for z in 0..BLOCK {
        for x in 0..BLOCK {
            let base = z * 16 + x;
            for (i, l) in line.iter_mut().enumerate() {
                *l = block[base + i * 4];
            }
            f(&mut line);
            for (i, &l) in line.iter().enumerate() {
                block[base + i * 4] = l;
            }
        }
    }
    // Along z: stride 16.
    for y in 0..BLOCK {
        for x in 0..BLOCK {
            let base = y * 4 + x;
            for (i, l) in line.iter_mut().enumerate() {
                *l = block[base + i * 16];
            }
            f(&mut line);
            for (i, &l) in line.iter().enumerate() {
                block[base + i * 16] = l;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifting_roundtrip_1d() {
        let cases = [
            [0.0, 0.0, 0.0, 0.0],
            [1.0, 2.0, 3.0, 4.0],
            [-5.5, 3.25, 0.125, 1e6],
            [1e-12, -1e-12, 7.0, -7.0],
        ];
        for orig in cases {
            let mut v = orig;
            forward4(&mut v);
            inverse4(&mut v);
            for (a, b) in orig.iter().zip(&v) {
                assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs()), "{orig:?} -> {v:?}");
            }
        }
    }

    #[test]
    fn constant_input_concentrates_in_dc() {
        let mut v = [3.0; 4];
        forward4(&mut v);
        assert_eq!(v[0], 3.0);
        assert_eq!(&v[1..], &[0.0, 0.0, 0.0]);
        let mut block = vec![2.5; BLOCK_LEN];
        forward_block(&mut block);
        assert_eq!(block[0], 2.5);
        assert!(block[1..].iter().all(|&c| c == 0.0));
    }

    #[test]
    fn linear_ramp_has_small_fine_details() {
        let mut v = [1.0, 2.0, 3.0, 4.0];
        forward4(&mut v);
        // Averages dominate; fine details are the constant slope.
        assert_eq!(v[0], 2.5); // DC = mean
        assert_eq!(v[2], 1.0);
        assert_eq!(v[3], 1.0);
    }

    #[test]
    fn block_roundtrip() {
        let orig: Vec<f64> =
            (0..BLOCK_LEN).map(|i| ((i as f64) * 0.713).sin() * 10.0 + (i as f64) * 0.01).collect();
        let mut block = orig.clone();
        forward_block(&mut block);
        inverse_block(&mut block);
        for (a, b) in orig.iter().zip(&block) {
            assert!((a - b).abs() < 1e-9, "roundtrip error {}", (a - b).abs());
        }
    }

    #[test]
    fn smooth_blocks_decorrelate() {
        // For a smooth block most energy lands in the low-frequency groups.
        let orig: Vec<f64> = (0..BLOCK_LEN)
            .map(|i| {
                let (x, y, z) = (i % 4, (i / 4) % 4, i / 16);
                (x + y + z) as f64 * 0.5 + 10.0
            })
            .collect();
        let mut block = orig.clone();
        forward_block(&mut block);
        let dc = block[0].abs();
        let fine_energy: f64 = crate::blockcodec::block::coefficient_order()[32..]
            .iter()
            .map(|&n| block[n].abs())
            .sum();
        assert!(dc > fine_energy, "dc={dc} fine={fine_energy}");
    }
}
