//! Scaled dataset configurations shared by all benches, and the on-disk
//! cache of the snapshots they generate.
//!
//! A Gray-Scott snapshot can only be recreated by running the simulation
//! from t = 0 (about 2.5 ms per Euler step at 97³ on two cores, so 64
//! snapshots of 10 steps take seconds), and the benches request the same
//! snapshots over and over. A WarpX snapshot is evaluated directly (about
//! 0.15 s at 129³ on two cores). The cache stores each
//! `(config, field, timestep)` snapshot as one file in the `pmr-field`
//! binary format, keyed by the config fingerprint.

// Panics, nondeterminism sources and discarded `Result`s, as scoped to
// this module (DESIGN.md §8); test code is exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_methods,
        clippy::disallowed_types,
        unused_must_use,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
    )
)]

use pmr_field::{io, Field};
use pmr_sim::{warpx_field, GrayScott, GrayScottConfig, GsSpecies, WarpXConfig, WarpXField};
use std::path::{Path, PathBuf};

/// WarpX-synthetic configuration at the bench scale.
pub fn warpx_cfg(size: usize, snapshots: usize) -> WarpXConfig {
    WarpXConfig { size, snapshots, ..Default::default() }
}

/// Gray-Scott configuration at the bench scale.
pub fn grayscott_cfg(size: usize, snapshots: usize) -> GrayScottConfig {
    GrayScottConfig { size, snapshots, ..Default::default() }
}

/// The shared snapshot cache: `$PMR_DATA_DIR` if set, else
/// `$CARGO_TARGET_DIR/pmr-data`, else `target/pmr-data` (created lazily).
pub fn cache() -> DatasetCache {
    let dir = if let Ok(dir) = std::env::var("PMR_DATA_DIR") {
        PathBuf::from(dir)
    } else if let Ok(target) = std::env::var("CARGO_TARGET_DIR") {
        Path::new(&target).join("pmr-data")
    } else {
        PathBuf::from("target").join("pmr-data")
    };
    DatasetCache { dir }
}

/// Convenience: a WarpX snapshot via the cache.
pub fn warpx(cfg: &WarpXConfig, field: WarpXField, t: usize) -> Field {
    cache().warpx(cfg, field, t)
}

/// Convenience: a Gray-Scott snapshot via the cache.
pub fn grayscott(cfg: &GrayScottConfig, species: GsSpecies, t: usize) -> Field {
    cache().gray_scott(cfg, species, t)
}

/// A directory-backed snapshot cache.
#[derive(Debug, Clone)]
pub struct DatasetCache {
    dir: PathBuf,
}

impl DatasetCache {
    fn path_for(&self, fingerprint: &str, field_name: &str, t: usize) -> PathBuf {
        self.dir.join(fingerprint).join(format!("{field_name}_t{t:04}.pmrf"))
    }

    /// A WarpX-synthetic snapshot; generated on demand (generation is cheap
    /// enough that only the file round-trip is cached).
    pub fn warpx(&self, cfg: &WarpXConfig, field: WarpXField, t: usize) -> Field {
        assert!(t < cfg.snapshots, "timestep {t} out of range");
        let path = self.path_for(&cfg.fingerprint(), field.field_name(), t);
        if let Ok(f) = io::load(&path) {
            return f;
        }
        let f = warpx_field(cfg, field, t);
        // The freshly generated field is returned regardless; the next
        // call simply regenerates on a cache miss.
        #[expect(
            clippy::let_underscore_must_use,
            reason = "cache write failures are non-fatal (e.g. read-only media)"
        )]
        let _ = io::save(&f, &path);
        f
    }

    /// A Gray-Scott snapshot. If not cached, the whole run up to
    /// `cfg.snapshots` is simulated once and all snapshots are stored.
    pub fn gray_scott(&self, cfg: &GrayScottConfig, species: GsSpecies, t: usize) -> Field {
        assert!(t < cfg.snapshots, "timestep {t} out of range");
        let fp = cfg.fingerprint();
        if let Ok(f) = io::load(&self.path_for(&fp, species.field_name(), t)) {
            return f;
        }
        let mut sim = GrayScott::new(*cfg);
        (0..=t).for_each(|s| self.advance_and_store(&mut sim, &fp, s));
        let field = sim.snapshot(species, t);
        (t + 1..cfg.snapshots).for_each(|s| self.advance_and_store(&mut sim, &fp, s));
        field
    }

    /// Run the Gray-Scott simulation and store every snapshot, unless all
    /// are on disk already.
    pub fn ensure_gray_scott(&self, cfg: &GrayScottConfig) {
        let fp = cfg.fingerprint();
        let missing = (0..cfg.snapshots).any(|t| {
            !self.path_for(&fp, GsSpecies::U.field_name(), t).exists()
                || !self.path_for(&fp, GsSpecies::V.field_name(), t).exists()
        });
        if !missing {
            return;
        }
        let mut sim = GrayScott::new(*cfg);
        (0..cfg.snapshots).for_each(|t| self.advance_and_store(&mut sim, &fp, t));
    }

    /// Step `sim` on to snapshot `t` and store both species of it.
    fn advance_and_store(&self, sim: &mut GrayScott, fp: &str, t: usize) {
        sim.advance_snapshot();
        for species in [GsSpecies::U, GsSpecies::V] {
            // As for WarpX, a failed write is not fatal (e.g. read-only
            // media): the next request for the snapshot simulates again.
            #[expect(
                clippy::let_underscore_must_use,
                reason = "cache write failures are non-fatal"
            )]
            let _ =
                io::save(&sim.snapshot(species, t), &self.path_for(fp, species.field_name(), t));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_cache(tag: &str) -> DatasetCache {
        DatasetCache { dir: std::env::temp_dir().join(format!("pmr_cache_test_{tag}")) }
    }

    #[test]
    fn warpx_cache_roundtrip() {
        let cache = temp_cache("wx");
        let cfg = WarpXConfig { size: 8, snapshots: 4, ..Default::default() };
        let a = cache.warpx(&cfg, WarpXField::Bx, 2);
        let b = cache.warpx(&cfg, WarpXField::Bx, 2); // from disk now
        assert_eq!(a, b);
        std::fs::remove_dir_all(&cache.dir).ok();
    }

    #[test]
    fn gray_scott_cache_runs_once() {
        let cache = temp_cache("gs");
        std::fs::remove_dir_all(&cache.dir).ok();
        let cfg =
            GrayScottConfig { size: 8, snapshots: 3, steps_per_snapshot: 2, ..Default::default() };
        let u1 = cache.gray_scott(&cfg, GsSpecies::U, 1);
        let v2 = cache.gray_scott(&cfg, GsSpecies::V, 2);
        assert_eq!(u1.timestep(), 1);
        assert_eq!(v2.name(), "D_v");
        // Second access hits the files.
        let u1b = cache.gray_scott(&cfg, GsSpecies::U, 1);
        assert_eq!(u1, u1b);
        std::fs::remove_dir_all(&cache.dir).ok();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_timestep_rejected() {
        let cache = temp_cache("oob");
        let cfg = WarpXConfig { size: 8, snapshots: 2, ..Default::default() };
        let _ = cache.warpx(&cfg, WarpXField::Ex, 2);
    }
}
