//! Base(-2) ("negabinary") integer representation.
//!
//! MGARD encodes quantized coefficients in negabinary because it removes the
//! need for a separate sign bit: every digit pattern is a valid number and
//! truncating low digits always yields a nearby value, which is exactly what
//! progressive bit-plane refinement requires.
//!
//! The conversion uses the classic constant-time trick: with the mask
//! `M = 0b…10101010` (weights of the negative powers), `nb = (v + M) ^ M`
//! and back `v = (nb ^ M) - M`.

/// Mask with ones at the odd bit positions — the digits whose base(-2)
/// weight is negative.
pub const NEGABINARY_MASK: u64 = 0xAAAA_AAAA_AAAA_AAAA;

/// Convert a signed integer to its negabinary digit pattern.
///
/// Valid for the full range where the intermediate `v + M` does not
/// overflow; in this workspace inputs are quantized coefficients that fit
/// comfortably in well under 62 digits.
#[inline]
pub fn to_negabinary(v: i64) -> u64 {
    v.cast_unsigned().wrapping_add(NEGABINARY_MASK) ^ NEGABINARY_MASK
}

/// Inverse of [`to_negabinary`].
#[inline]
pub fn from_negabinary(nb: u64) -> i64 {
    (nb ^ NEGABINARY_MASK).wrapping_sub(NEGABINARY_MASK).cast_signed()
}

/// Zero the lowest `drop` digits of a negabinary pattern, i.e. keep only the
/// most significant `total - drop` of `total` digit planes.
#[inline]
pub fn truncate_low_digits(nb: u64, drop: u32) -> u64 {
    if drop >= 64 {
        0
    } else {
        (nb >> drop) << drop
    }
}

/// Number of digits needed to represent `nb` (position of highest set digit
/// plus one); 0 for zero.
#[inline]
pub fn digit_count(nb: u64) -> u32 {
    64 - nb.leading_zeros()
}

/// Largest magnitude representable error when the lowest `drop` digits are
/// zeroed: the worst case is every dropped digit set, alternating weights
/// `1, -2, 4, -8, …`. Both tails are bounded by `2^drop` in magnitude
/// (positive tail `(2^drop·2+1)/3 ≤ …`), so we return the exact maxima.
///
/// Returns `(max_under, max_over)` = (largest value the dropped tail can
/// add, largest it can subtract), both non-negative.
pub fn truncation_error_bounds(drop: u32) -> (i64, i64) {
    // Sum of (-2)^k over even k < drop  (positive contributions)
    // and |sum over odd k < drop| (negative contributions).
    let mut pos: i64 = 0;
    let mut neg: i64 = 0;
    for k in 0..drop.min(62) {
        let w = (-2_i64).pow(k);
        if w > 0 {
            pos += w;
        } else {
            neg += -w;
        }
    }
    (pos, neg)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Slow reference conversion for validation.
    fn reference_to_negabinary(mut v: i64) -> u64 {
        let mut nb = 0u64;
        let mut bit = 0;
        while v != 0 {
            let mut r = v % -2;
            v /= -2;
            if r < 0 {
                r += 2;
                v += 1;
            }
            if r != 0 {
                nb |= 1 << bit;
            }
            bit += 1;
        }
        nb
    }

    #[test]
    fn matches_reference_small_values() {
        for v in -1000..=1000 {
            assert_eq!(to_negabinary(v), reference_to_negabinary(v), "v={v}");
        }
    }

    #[test]
    fn roundtrip_large_values() {
        for &v in &[0i64, 1, -1, 2, -2, 12345678, -987654321, (1 << 40) - 7, -(1 << 40)] {
            assert_eq!(from_negabinary(to_negabinary(v)), v);
        }
    }

    #[test]
    fn known_digit_patterns() {
        // 2 = 110 in base -2 (4 - 2), 3 = 111 (4 - 2 + 1), -1 = 11 (-2 + 1)
        assert_eq!(to_negabinary(2), 0b110);
        assert_eq!(to_negabinary(3), 0b111);
        assert_eq!(to_negabinary(-1), 0b11);
        assert_eq!(to_negabinary(-2), 0b10);
    }

    #[test]
    fn truncation_error_within_bounds() {
        for drop in 0..16u32 {
            let (pos, neg) = truncation_error_bounds(drop);
            for v in -2000..=2000i64 {
                let nb = to_negabinary(v);
                let t = from_negabinary(truncate_low_digits(nb, drop));
                let err = v - t;
                assert!(
                    -neg <= err && err <= pos,
                    "v={v} drop={drop} err={err} bounds=({pos},{neg})"
                );
            }
        }
    }

    #[test]
    fn truncate_zero_digits_is_identity() {
        for v in -100..100 {
            let nb = to_negabinary(v);
            assert_eq!(truncate_low_digits(nb, 0), nb);
        }
    }

    #[test]
    fn truncate_all_digits_is_zero() {
        assert_eq!(truncate_low_digits(u64::MAX, 64), 0);
        assert_eq!(truncate_low_digits(u64::MAX, 100), 0);
    }

    #[test]
    fn digit_count_examples() {
        assert_eq!(digit_count(0), 0);
        assert_eq!(digit_count(1), 1);
        assert_eq!(digit_count(0b110), 3);
    }
}
