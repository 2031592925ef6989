//! Seeded inputs: every field the workloads touch comes from `pmr_sim`
//! with generator seeds derived from `--seed`.
//!
//! The seed picks the generators' random streams (Gray-Scott's initial
//! perturbation, WarpX's background modes and micro-noise) and the op
//! order. Grid sizes, timesteps and physical parameters are constants, so
//! every seed runs statistically alike inputs and the work per round is
//! the same on every commit.

use crate::harness::Rng;
use pmr_field::Field;
use pmr_sim::{warpx_field, GrayScott, GrayScottConfig, GsSpecies, WarpXConfig, WarpXField};

/// The late WarpX snapshot every workload reads (of 48).
pub const WARPX_LATE: usize = 40;

/// A generator seed derived from the run seed and a purpose tag.
pub fn derive(seed: u64, tag: u64) -> u64 {
    Rng::new(seed ^ tag.rotate_left(32)).next_u64()
}

pub fn warpx(seed: u64, size: usize, field: WarpXField, t: usize) -> Field {
    let cfg = WarpXConfig { size, seed: derive(seed, 1), ..WarpXConfig::default() };
    warpx_field(&cfg, field, t)
}

/// Run one Gray-Scott simulation and return `D_u` at each of the listed
/// snapshot indices (ascending; index `t` is the state after `t + 1`
/// snapshot intervals of 10 Euler steps).
pub fn gray_scott_u(seed: u64, size: usize, snapshots: &[usize]) -> Vec<Field> {
    let cfg = GrayScottConfig { size, seed: derive(seed, 2), ..GrayScottConfig::default() };
    let mut sim = GrayScott::new(cfg);
    let mut out = Vec::with_capacity(snapshots.len());
    let mut done = 0;
    for &t in snapshots {
        while done <= t {
            sim.advance_snapshot();
            done += 1;
        }
        out.push(sim.snapshot(GsSpecies::U, t));
    }
    out
}

/// Raw bytes of a field's `f64` data.
pub fn raw_bytes(field: &Field) -> u64 {
    field.len() as u64 * 8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_fields_other_seed_other_fields() {
        let a = warpx(5, 17, WarpXField::Jx, WARPX_LATE);
        let b = warpx(5, 17, WarpXField::Jx, WARPX_LATE);
        let c = warpx(6, 17, WarpXField::Jx, WARPX_LATE);
        assert_eq!(a.data(), b.data());
        assert_ne!(a.data(), c.data());

        let g1 = gray_scott_u(5, 12, &[0, 2]);
        let g2 = gray_scott_u(5, 12, &[0, 2]);
        let g3 = gray_scott_u(6, 12, &[0, 2]);
        assert_eq!(g1.len(), 2);
        assert_eq!(g1[1].data(), g2[1].data());
        assert_ne!(g1[1].data(), g3[1].data());
        assert_eq!((g1[0].timestep(), g1[1].timestep()), (0, 2));
        // Snapshot 2 is a later state than snapshot 0 of the same run.
        assert_ne!(g1[0].data(), g1[1].data());
    }
}
