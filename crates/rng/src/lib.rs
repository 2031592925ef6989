//! The workspace's one random stream, with no dependencies, so a checkout
//! builds with nothing but the toolchain and produces the same bits
//! everywhere. [`mix`] is the splitmix64 step (fault schedules, backoff
//! jitter and `PMRSHARD1` ring placement in `pmr-storage` are functions of
//! it); [`Rng`] is xoshiro256\*\* seeded through it (field perturbations in
//! `pmr-sim`, weight init and shuffles in `pmr-nn`, sample draws in
//! `pmr_core::emgard`); [`cases`] is the seeded case driver the property
//! tests run on. The unit tests pin the outputs: changing a range map or the
//! shuffle order changes every generated field and trained weight.

// Lossy casts, nondeterminism sources and discarded `Result`s, as
// scoped to this crate (DESIGN.md §8); test code is exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss,
        clippy::disallowed_methods,
        clippy::disallowed_types,
    )
)]

use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// One splitmix64 step: advance `z` by the golden-ratio increment and
/// finalize. A bijection on `u64`.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// xoshiro256\*\*, seeded with four consecutive splitmix64 outputs.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
    /// Next entry of [`F64_EDGES`] that [`Rng::any_f64`] returns; past the
    /// table except in the generator of a property [`case`].
    edge: usize,
}

impl Rng {
    pub fn seed_from_u64(seed: u64) -> Self {
        let s = [0u64, 1, 2, 3].map(|i| mix(seed.wrapping_add(GOLDEN.wrapping_mul(i))));
        Rng { s, edge: F64_EDGES.len() }
    }

    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform draw from `range`; an excluded end is never returned.
    /// Panics on an empty range.
    pub fn range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Fisher–Yates shuffle, last index first.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            slice.swap(i, self.range(0..=i));
        }
    }

    pub fn bool(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    pub fn u8(&mut self) -> u8 {
        self.range(0..=u8::MAX)
    }

    /// A vector whose length is drawn from `len`, filled by `item`.
    pub fn vec<T>(
        &mut self,
        len: impl SampleRange<usize>,
        mut item: impl FnMut(&mut Rng) -> T,
    ) -> Vec<T> {
        (0..self.range(len)).map(|_| item(self)).collect()
    }

    /// One of `options`, uniformly. Panics when there are none.
    pub fn one_of<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.range(0..options.len())]
    }

    /// Any bit pattern, special values first: in a property, the first draw
    /// of case `i` is `F64_EDGES[i]` and later draws of that case continue
    /// from there, so a two-argument property meets them in pairs. Past the
    /// table one draw in eight is an edge, the rest uniform over all 2^64.
    pub fn any_f64(&mut self) -> f64 {
        if self.edge < F64_EDGES.len() {
            self.edge += 1;
            F64_EDGES[self.edge - 1]
        } else if self.range(0..8u32) == 0 {
            self.one_of(&F64_EDGES)
        } else {
            f64::from_bits(self.next_u64())
        }
    }
}

/// Values an "any `f64`" property must see.
const F64_EDGES: [f64; 10] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    5e-324,
    -f64::MIN_POSITIVE / 2.0,
    f64::MIN_POSITIVE,
    f64::MAX,
    f64::MIN,
];

/// A range [`Rng::range`] can draw from.
pub trait SampleRange<T> {
    fn sample(self, rng: &mut Rng) -> T;
}

/// The top 53 bits of `raw` in `[0, 1)`: every value is a multiple of
/// 2^-53, so the map is exact and 1.0 is never returned.
pub fn unit_f64(raw: u64) -> f64 {
    (raw >> 11) as f64 / (1u64 << 53) as f64
}

/// The top 24 bits of `raw` in `[0, 1)`: few enough that the product with a
/// span cannot round up to its end.
fn unit_f32(raw: u64) -> f32 {
    (raw >> 40) as f32 / (1u32 << 24) as f32
}

/// `raw` scaled into `[0, span)` by widening multiply (bias < 2^-64 · span).
fn below(raw: u64, span: u128) -> u128 {
    (u128::from(raw) * span) >> 64
}

impl SampleRange<f64> for Range<f64> {
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + (self.end - self.start) * unit_f64(rng.next_u64())
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample(self, rng: &mut Rng) -> f32 {
        assert!(self.start < self.end, "empty range");
        self.start + (self.end - self.start) * unit_f32(rng.next_u64())
    }
}

/// Each type comes with the cast lints its final `as $t` trips: which ones
/// depends on the type, and an `#[expect]` must be fulfilled by every
/// instantiation.
macro_rules! int_ranges {
    ($($t:ty: $($lint:ident),+;)*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range");
                (self.start..=self.end - 1).sample(rng)
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            #[expect(
                $(clippy::$lint),+,
                reason = "lo + below(span) <= hi, so the cast back is lossless"
            )]
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128).cast_unsigned() + 1;
                // below(span) < span <= 2^64 fits an i128.
                (lo as i128 + below(rng.next_u64(), span).cast_signed()) as $t
            }
        }
    )*};
}

int_ranges! {
    u8: cast_possible_truncation, cast_sign_loss;
    u32: cast_possible_truncation, cast_sign_loss;
    u64: cast_possible_truncation, cast_sign_loss;
    usize: cast_sign_loss;
    i32: cast_possible_truncation;
    i64: cast_possible_truncation;
}

/// Run `body` on case `index` of the property `name` — what [`cases`] does
/// for each index, and how a reported failure is replayed.
pub fn case(name: &str, index: u32, body: impl FnOnce(&mut Rng)) {
    let seed = name.bytes().fold(u64::from(index), |h, b| mix(h ^ u64::from(b)));
    let mut rng = Rng { edge: index as usize, ..Rng::seed_from_u64(seed) };
    if let Err(panic) = catch_unwind(AssertUnwindSafe(|| body(&mut rng))) {
        eprintln!(
            "property `{name}` failed at case {index}; replay it alone with \
             `pmr_rng::case(\"{name}\", {index}, body)`"
        );
        resume_unwind(panic);
    }
}

/// Run `body` for cases `0..n` of the property `name` (by convention the
/// test's own name). Inputs are a function of `(name, index)` alone, so a
/// failure — reported on stderr with both — repeats on every machine.
pub fn cases(name: &str, n: u32, mut body: impl FnMut(&mut Rng)) {
    for index in 0..n {
        case(name, index, &mut body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The pinned values were written down from the generator every number
    // committed since PR 14 was produced with (`e2e-bench/stand-ins/rand` at
    // be55523): they are the "same stream" claim as a test.

    #[test]
    fn mix_matches_its_pinned_table() {
        // Ring placement of an existing `shard.meta` layout, fault schedules
        // and backoff jitter move if any of these do.
        for (z, want) in [
            (0u64, 0xe220_a839_7b1d_cdafu64),
            (1, 0x910a_2dec_8902_5cc1),
            (2, 0x9758_35de_1c97_56ce),
            (0xdead_beef, 0x4adf_b90f_68c9_eb9b),
            (u64::MAX, 0xe4d9_7177_1b65_2c20),
            (GOLDEN, 0x6e78_9e6a_a1b9_65f4),
        ] {
            assert_eq!(mix(z), want, "mix({z:#x})");
        }
    }

    #[test]
    fn seed_zero_first_eight_outputs() {
        let mut rng = Rng::seed_from_u64(0);
        let want: [u64; 8] = [
            0x99ec_5f36_cb75_f2b4,
            0xbf6e_1f78_4956_452a,
            0x1a5f_849d_4933_e6e0,
            0x6aa5_94f1_262d_2d2c,
            0xbba5_ad4a_1f84_2e59,
            0xffef_8375_d9eb_caca,
            0x6c16_0dee_d2f5_4c98,
            0x8920_ad64_8fc3_0a3f,
        ];
        assert_eq!(want.map(|_| rng.next_u64()), want);
    }

    #[test]
    fn seed_42_range_maps_and_shuffle() {
        let mut rng = Rng::seed_from_u64(42);
        let f64s: [u64; 4] = [
            0xbfea_a1fd_347c_f450,
            0xbfce_fb26_7992_eec8,
            0x3fd7_0ba9_991c_f24c,
            0x3feb_2e2b_51c0_ecd8,
        ];
        assert_eq!(f64s.map(|_| rng.range(-1.0f64..1.0).to_bits()), f64s);
        let f32s: [u32; 4] = [0x3efb_cdb8, 0x3e8a_1b4a, 0x3e60_8550, 0x3eb3_344e];
        assert_eq!(f32s.map(|_| rng.range(-0.5f32..0.5).to_bits()), f32s);
        let i64s: [i64; 8] = [1, 0, 1, -1, 2, -1, 1, 2];
        assert_eq!(i64s.map(|_| rng.range(-2i64..=2)), i64s);
        let usizes: [usize; 8] = [616, 851, 707, 707, 92, 179, 436, 602];
        assert_eq!(usizes.map(|_| rng.range(0usize..1000)), usizes);
        let mut idx: Vec<usize> = (0..10).collect();
        rng.shuffle(&mut idx);
        assert_eq!(idx, [0, 2, 6, 8, 1, 7, 5, 9, 4, 3]);
    }

    #[test]
    fn range_draws_never_return_the_excluded_end() {
        // The largest raw output is the worst case of every map.
        assert!(unit_f64(u64::MAX) < 1.0);
        assert!(unit_f32(u64::MAX) < 1.0 && 1e-3 * unit_f32(u64::MAX) < 1e-3);
        assert_eq!(below(u64::MAX, 5), 4);
        assert_eq!(below(u64::MAX, 1 << 64), u128::from(u64::MAX));
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..20_000 {
            assert!(rng.range(-1.0f64..1.0) < 1.0);
            assert!(rng.range(0.0f32..1e-3) < 1e-3);
            assert!(rng.range(-2i64..3) < 3);
            assert!(rng.range(0u32..1) < 1);
            assert!((250..=255).contains(&rng.range(250u8..=255)));
        }
    }

    #[test]
    fn any_f64_meets_every_special_value_in_the_first_16_cases() {
        let mut seen = Vec::new();
        cases("any_f64_demo", 16, |g| seen.push(g.any_f64()));
        let has = |p: &dyn Fn(f64) -> bool| seen.iter().any(|&v| p(v));
        assert!(has(&|v| v.is_nan()));
        assert!(has(&|v| v == f64::INFINITY) && has(&|v| v == f64::NEG_INFINITY));
        assert!(has(&|v| v == 0.0 && v.is_sign_negative()));
        assert!(has(&|v| v == 0.0 && v.is_sign_positive()));
        assert!(has(&|v| v.is_subnormal()));
        assert!(has(&|v| v == f64::MAX) && has(&|v| v == f64::MIN));
        assert!(has(&|v| v == f64::MIN_POSITIVE));
        // Later draws of one case keep walking the table, then go random.
        case("any_f64_demo", 8, |g| {
            assert_eq!([g.any_f64(), g.any_f64()], [f64::MAX, f64::MIN]);
            let tail: Vec<u64> = (0..64).map(|_| g.any_f64().to_bits()).collect();
            assert!(tail.iter().any(|b| !F64_EDGES.iter().any(|e| e.to_bits() == *b)));
        });
        // Outside a property there is no table to walk.
        assert_eq!(Rng::seed_from_u64(0).edge, F64_EDGES.len());
    }

    #[test]
    fn cases_are_a_function_of_name_and_index() {
        let draw = |name, index| {
            let mut out = 0;
            case(name, index, |g| out = g.next_u64());
            out
        };
        assert_eq!(draw("a", 3), draw("a", 3));
        assert_ne!(draw("a", 3), draw("a", 4));
        assert_ne!(draw("a", 3), draw("b", 3));
        let mut edges = Vec::new();
        cases("a", 5, |g| edges.push(g.edge));
        assert_eq!(edges, [0, 1, 2, 3, 4]);
    }
}
