//! On-disk cache for generated datasets.
//!
//! A Gray-Scott snapshot can only be recreated by running the simulation
//! from t = 0 (about 2.5 ms per Euler step at 97³ on two cores, so 64
//! snapshots of 10 steps take seconds), and benches/examples/tests request
//! the same snapshots over and over. A WarpX snapshot is evaluated directly
//! (about 0.15 s at 129³ on two cores). The cache stores each
//! `(config, field, timestep)` snapshot as one file in the `pmr-field`
//! binary format, keyed by the config fingerprint.

use crate::gray_scott::{GrayScott, GrayScottConfig, GsSpecies};
use crate::warpx::{warpx_field, WarpXConfig, WarpXField};
use pmr_field::{io, Field};
use std::path::{Path, PathBuf};

/// A directory-backed snapshot cache.
#[derive(Debug, Clone)]
pub struct DatasetCache {
    dir: PathBuf,
}

impl DatasetCache {
    /// Cache rooted at `dir` (created lazily).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DatasetCache { dir: dir.into() }
    }

    /// The default location: `$PMR_DATA_DIR` if set, else
    /// `<workspace-target>/pmr-data`, else `./pmr-data`.
    pub fn default_location() -> PathBuf {
        if let Ok(dir) = std::env::var("PMR_DATA_DIR") {
            return PathBuf::from(dir);
        }
        if let Ok(target) = std::env::var("CARGO_TARGET_DIR") {
            return Path::new(&target).join("pmr-data");
        }
        PathBuf::from("target").join("pmr-data")
    }

    /// Cache with the default location.
    pub fn default_cache() -> Self {
        DatasetCache::new(Self::default_location())
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

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
        let path = self.path_for(&cfg.fingerprint(), species.field_name(), t);
        if let Ok(f) = io::load(&path) {
            return f;
        }
        self.ensure_gray_scott(cfg);
        io::load(&path).expect("snapshot must exist after simulation")
    }

    /// Run the Gray-Scott simulation and persist every snapshot that is not
    /// already on disk.
    pub fn ensure_gray_scott(&self, cfg: &GrayScottConfig) {
        let fp = cfg.fingerprint();
        let missing = (0..cfg.snapshots).any(|t| {
            !self.path_for(&fp, GsSpecies::U.field_name(), t).exists()
                || !self.path_for(&fp, GsSpecies::V.field_name(), t).exists()
        });
        if !missing {
            return;
        }
        GrayScott::new(*cfg).run(|t, u, v| {
            io::save(&u, &self.path_for(&fp, GsSpecies::U.field_name(), t))
                .expect("cache write failed");
            io::save(&v, &self.path_for(&fp, GsSpecies::V.field_name(), t))
                .expect("cache write failed");
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_cache(tag: &str) -> DatasetCache {
        DatasetCache::new(std::env::temp_dir().join(format!("pmr_cache_test_{tag}")))
    }

    #[test]
    fn warpx_cache_roundtrip() {
        let cache = temp_cache("wx");
        let cfg = WarpXConfig { size: 8, snapshots: 4, ..Default::default() };
        let a = cache.warpx(&cfg, WarpXField::Bx, 2);
        let b = cache.warpx(&cfg, WarpXField::Bx, 2); // from disk now
        assert_eq!(a, b);
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn gray_scott_cache_runs_once() {
        let cache = temp_cache("gs");
        std::fs::remove_dir_all(cache.dir()).ok();
        let cfg =
            GrayScottConfig { size: 8, snapshots: 3, steps_per_snapshot: 2, ..Default::default() };
        let u1 = cache.gray_scott(&cfg, GsSpecies::U, 1);
        let v2 = cache.gray_scott(&cfg, GsSpecies::V, 2);
        assert_eq!(u1.timestep(), 1);
        assert_eq!(v2.name(), "D_v");
        // Second access hits the files.
        let u1b = cache.gray_scott(&cfg, GsSpecies::U, 1);
        assert_eq!(u1, u1b);
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_timestep_rejected() {
        let cache = temp_cache("oob");
        let cfg = WarpXConfig { size: 8, snapshots: 2, ..Default::default() };
        let _ = cache.warpx(&cfg, WarpXField::Ex, 2);
    }
}
