//! The seeded field corpus the conformance harness sweeps.
//!
//! Five synthetic classes — smooth, turbulent, discontinuous, constant and
//! NaN/inf-laced — in one, two and three dimensions, plus short Gray–Scott
//! and WarpX runs from `pmr-sim`. Every generator is a pure function of
//! `(class, shape, seed)` driven by an xorshift counter, so the corpus is
//! reproducible across runs, platforms, and CI machines.

use pmr_field::{Field, Shape};
use pmr_sim::{warpx_field, GrayScott, GrayScottConfig, GsSpecies, WarpXConfig, WarpXField};

/// One of the synthetic field classes of the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldClass {
    /// Slowly varying trigonometric waves — the best case for progressive
    /// coding (high planes carry nearly everything).
    Smooth,
    /// Multi-octave noise — energy at every scale, the adversarial case for
    /// the learned retrievers.
    Turbulent,
    /// A smooth background cut by an axis-aligned jump — exercises the
    /// transform's behaviour at sharp features.
    Discontinuous,
    /// A single constant value — zero detail coefficients, zero value
    /// range; degenerate bound conversion.
    Constant,
    /// A smooth field with NaN and ±inf injected at seeded sites — pins the
    /// non-finite policy documented in `pmr_mgard::bitplane`.
    NanLaced,
}

impl FieldClass {
    /// Every class, in a fixed order.
    pub fn all() -> [FieldClass; 5] {
        [
            FieldClass::Smooth,
            FieldClass::Turbulent,
            FieldClass::Discontinuous,
            FieldClass::Constant,
            FieldClass::NanLaced,
        ]
    }

    /// Short name used in field names and reports.
    pub fn label(self) -> &'static str {
        match self {
            FieldClass::Smooth => "smooth",
            FieldClass::Turbulent => "turbulent",
            FieldClass::Discontinuous => "discontinuous",
            FieldClass::Constant => "constant",
            FieldClass::NanLaced => "nan-laced",
        }
    }

    /// Whether every value of the class is finite. Non-finite classes are
    /// swept with Theory only (achieved error is measured over the finite
    /// sites; the learned retrievers are never trained on NaN features).
    pub fn is_finite(self) -> bool {
        !matches!(self, FieldClass::NanLaced)
    }
}

/// 64-bit xorshift step — the only randomness source of this corpus and of
/// the golden fields, which is why it is not `pmr_rng`: changing it would
/// regenerate both.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Uniform draw in `[0, 1)` from the xorshift stream.
pub(crate) fn unit(state: &mut u64) -> f64 {
    pmr_rng::unit_f64(xorshift(state))
}

/// Generate one synthetic field of `class` over `shape`, reproducibly from
/// `seed`. The timestep is folded into the seed so snapshot series differ.
pub fn synthetic(class: FieldClass, shape: Shape, seed: u64, timestep: usize) -> Field {
    let mut state = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(timestep as u64)
        .wrapping_mul(0x2545F4914F6CDD1D)
        | 1;
    let name = format!("{}-{}d", class.label(), shape_dims(shape));
    let n = shape.len();
    let data: Vec<f64> = match class {
        FieldClass::Smooth => {
            let fx = 0.05 + unit(&mut state) * 0.25;
            let fy = 0.05 + unit(&mut state) * 0.25;
            let fz = 0.05 + unit(&mut state) * 0.25;
            let phase = unit(&mut state) * std::f64::consts::TAU;
            grid_map(shape, |x, y, z| {
                (x as f64 * fx + phase).sin() * 2.0
                    + (y as f64 * fy).cos()
                    + (z as f64 * fz + phase * 0.5).sin() * 0.5
            })
        }
        FieldClass::Turbulent => {
            let base_fx = 0.1 + unit(&mut state) * 0.3;
            let base_fy = 0.1 + unit(&mut state) * 0.3;
            // Smooth large-scale octave plus pointwise noise octaves whose
            // amplitudes fall off by 1/2 per octave.
            let mut noise_state = xorshift(&mut state) | 1;
            grid_map(shape, |x, y, z| {
                let coarse =
                    (x as f64 * base_fx).sin() + (y as f64 * base_fy + z as f64 * 0.07).cos();
                let fine = (unit(&mut noise_state) - 0.5) * 1.0
                    + (unit(&mut noise_state) - 0.5) * 0.5
                    + (unit(&mut noise_state) - 0.5) * 0.25;
                coarse + fine
            })
        }
        FieldClass::Discontinuous => {
            let cut = (shape.dim(0) as f64 * (0.3 + unit(&mut state) * 0.4)) as usize;
            let jump = 2.0 + unit(&mut state) * 6.0;
            let fy = 0.05 + unit(&mut state) * 0.2;
            grid_map(shape, |x, y, z| {
                let base = (y as f64 * fy).sin() + z as f64 * 0.01;
                if x >= cut {
                    base + jump
                } else {
                    base
                }
            })
        }
        FieldClass::Constant => {
            let value = unit(&mut state) * 10.0 - 5.0;
            vec![value; n]
        }
        FieldClass::NanLaced => {
            let fx = 0.05 + unit(&mut state) * 0.25;
            let fy = 0.05 + unit(&mut state) * 0.25;
            let mut data = grid_map(shape, |x, y, z| {
                (x as f64 * fx).sin() * 3.0 + (y as f64 * fy).cos() + z as f64 * 0.02
            });
            // Lace ~3% of the sites with NaN and one site each with ±inf.
            let laced = (n / 32).max(1);
            for _ in 0..laced {
                let i = (xorshift(&mut state) as usize) % n;
                data[i] = f64::NAN;
            }
            data[(xorshift(&mut state) as usize) % n] = f64::INFINITY;
            data[(xorshift(&mut state) as usize) % n] = f64::NEG_INFINITY;
            data
        }
    };
    Field::new(name, timestep, shape, data)
}

/// Evaluate `f` at every grid point of `shape` in canonical layout order.
fn grid_map(shape: Shape, mut f: impl FnMut(usize, usize, usize) -> f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(shape.len());
    for z in 0..shape.dim(2) {
        for y in 0..shape.dim(1) {
            for x in 0..shape.dim(0) {
                out.push(f(x, y, z));
            }
        }
    }
    out
}

fn shape_dims(shape: Shape) -> usize {
    (0..3).filter(|&d| shape.dim(d) > 1).count().max(1)
}

/// The 1-D/2-D/3-D shapes of the corpus. All of them support at least four
/// decomposition levels, so every artifact in a sweep shares its level
/// count — a requirement of the chained D-MGARD predictor.
pub fn corpus_shapes() -> [Shape; 3] {
    [Shape::d1(65), Shape::d2(17, 13), Shape::d3(9, 9, 9)]
}

/// The full synthetic corpus: every class × every dimensionality.
pub fn catalogue(seed: u64) -> Vec<(FieldClass, Field)> {
    let mut out = Vec::new();
    for class in FieldClass::all() {
        for (d, shape) in corpus_shapes().into_iter().enumerate() {
            out.push((class, synthetic(class, shape, seed.wrapping_add(d as u64), d)));
        }
    }
    out
}

/// Short application runs from `pmr-sim`: one Gray–Scott species snapshot
/// and one synthetic WarpX slice, at corpus-friendly sizes.
pub fn sim_slices() -> Vec<Field> {
    let gs_cfg = GrayScottConfig { size: 12, snapshots: 2, ..Default::default() };
    let mut gs = GrayScott::new(gs_cfg);
    gs.advance_snapshot();
    let gs_field = gs.snapshot(GsSpecies::V, 1);

    let wx_cfg = WarpXConfig { size: 16, snapshots: 2, ..Default::default() };
    let wx = warpx_field(&wx_cfg, WarpXField::Jx, 1);
    vec![gs_field, wx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_deterministic() {
        let a = catalogue(7);
        let b = catalogue(7);
        assert_eq!(a.len(), 15);
        for ((ca, fa), (cb, fb)) in a.iter().zip(&b) {
            assert_eq!(ca, cb);
            assert_eq!(
                fa.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                fb.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
        let c = catalogue(8);
        assert!(a.iter().zip(&c).any(|((_, fa), (_, fc))| fa.data() != fc.data()));
    }

    #[test]
    fn classes_have_expected_structure() {
        for (class, field) in catalogue(3) {
            match class {
                FieldClass::Constant => {
                    assert!(field.data().windows(2).all(|w| w[0] == w[1]));
                }
                FieldClass::NanLaced => {
                    assert!(field.data().iter().any(|v| v.is_nan()));
                    assert!(field.data().iter().any(|v| v.is_infinite()));
                    let (lo, hi) = field.finite_min_max();
                    assert!(hi > lo);
                }
                _ => {
                    assert!(field.data().iter().all(|v| v.is_finite()), "{}", class.label());
                }
            }
        }
    }

    #[test]
    fn sim_slices_are_usable() {
        for f in sim_slices() {
            assert!(f.data().iter().all(|v| v.is_finite()), "{}", f.name());
            assert!(f.value_range() > 0.0, "{}", f.name());
        }
    }
}
