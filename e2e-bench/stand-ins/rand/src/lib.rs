//! Offline stand-in for `rand` 0.10: `StdRng::seed_from_u64`,
//! `RngExt::random_range` over float and integer ranges, and
//! `SliceRandom::shuffle`. Deterministic per seed, but the streams are
//! not the published crate's, so generated fields and trained weights
//! differ from a registry build (run headers say `dependencies=stand-ins`).

use std::ops::{Range, RangeInclusive};

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    /// xoshiro256** seeded through splitmix64.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        pub(crate) fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }

    impl crate::SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut z = seed;
            let mut next = || {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^ (x >> 31)
            };
            StdRng { s: [next(), next(), next(), next()] }
        }
    }
}

use rngs::StdRng;

/// A range `random_range` can draw from.
pub trait SampleRange<T> {
    fn sample(self, rng: &mut StdRng) -> T;
}

/// Uniform in `[0, 1)` with 53 random bits.
fn unit_f64(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

impl SampleRange<f64> for Range<f64> {
    fn sample(self, rng: &mut StdRng) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + (self.end - self.start) * unit_f64(rng)
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample(self, rng: &mut StdRng) -> f32 {
        assert!(self.start < self.end, "empty range");
        // 24 random bits, so the product cannot round up to `end`.
        let unit = (rng.next_u64() >> 40) as f32 / (1u32 << 24) as f32;
        self.start + (self.end - self.start) * unit
    }
}

/// Uniform in `[0, span)` by widening multiply (bias < 2^-64 · span).
fn below(rng: &mut StdRng, span: u128) -> u128 {
    (u128::from(rng.next_u64()) * span) >> 64
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + below(rng, span) as i128) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut StdRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + below(rng, span) as i128) as $t
            }
        }
    )*};
}

int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

pub trait RngExt {
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T;
}

impl RngExt for StdRng {
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }
}

pub mod seq {
    use crate::rngs::StdRng;
    use crate::RngExt;

    pub trait SliceRandom {
        /// Fisher–Yates shuffle.
        fn shuffle(&mut self, rng: &mut StdRng);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle(&mut self, rng: &mut StdRng) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.random_range(0..=i));
            }
        }
    }
}
