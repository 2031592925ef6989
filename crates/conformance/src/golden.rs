//! Golden compressed artifacts: small checked-in blobs that pin the
//! on-disk format and the numeric behaviour of the whole pipeline.
//!
//! Each golden artifact is compressed from a field generated with *pure
//! arithmetic only* — an xorshift stream plus polynomial terms, no libm
//! calls — so regeneration is bit-identical on every platform and
//! toolchain. [`verify`] checks, per artifact:
//!
//! 1. the blob's length and FNV-1a 64 checksum match the metadata,
//! 2. the blob parses and re-serialises byte-identically (format
//!    stability),
//! 3. re-compressing the regenerated source field reproduces the blob
//!    byte-for-byte (compressor stability),
//! 4. recorded retrieval probes — plane counts, fetched bytes, and the
//!    achieved error down to the exact f64 bits — still hold (decoder and
//!    error-accounting stability).
//!
//! Retrieval probes run under the serial [`ExecPolicy`] so the recorded
//! bits never depend on the machine's core count, and each probe decode is
//! repeated through the legacy scalar bit-plane kernel
//! ([`PlaneKernel::Scalar`]) — a checked-in blob must reconstruct to the
//! same bits no matter which kernel the host resolves, so a SIMD/SWAR
//! divergence fails golden verification, not just the differential sweep.
//! Regenerate with `pmrtool conformance --regen-golden` after an
//! *intentional* format change, and say so in the commit message.

use crate::fields::unit;
use crate::sweep::{SWEEP_LEVELS, SWEEP_PLANES};
use pmr_field::{Field, Shape};
use pmr_json::{parse, Json};
use pmr_mgard::{persist, CompressConfig, Compressed, DecodeOptions, ExecPolicy, PlaneKernel};
use std::path::Path;

/// Bump when the golden corpus itself changes shape (not when blobs are
/// legitimately regenerated). Version 2: blobs carry the `PMRC2` per-plane
/// checksum table.
pub const GOLDEN_VERSION: u32 = 2;

/// Metadata file name inside the golden directory.
pub const GOLDEN_INDEX: &str = "golden.json";

/// Relative bounds probed per artifact.
const PROBE_RELS: [f64; 3] = [1e-2, 1e-4, 1e-6];

struct GoldenSpec {
    name: &'static str,
    shape: Shape,
    seed: u64,
}

fn specs() -> [GoldenSpec; 3] {
    [
        GoldenSpec { name: "poly-1d", shape: Shape::d1(65), seed: 0x5EED_0001 },
        GoldenSpec { name: "ridge-2d", shape: Shape::d2(17, 13), seed: 0x5EED_0002 },
        GoldenSpec { name: "blob-3d", shape: Shape::d3(9, 9, 9), seed: 0x5EED_0003 },
    ]
}

/// Pure-arithmetic field: a smooth polynomial ridge plus bounded xorshift
/// noise. Every operation is IEEE-exact — additions, multiplications and
/// integer bit mixing only — so the data is reproducible to the bit.
fn golden_field(spec: &GoldenSpec) -> Field {
    let mut state = spec.seed | 1;
    let (nx, ny, nz) = (spec.shape.dim(0), spec.shape.dim(1), spec.shape.dim(2));
    let mut data = Vec::with_capacity(spec.shape.len());
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let u = x as f64 / nx as f64 - 0.5;
                let v = y as f64 / ny.max(2) as f64 - 0.5;
                let w = z as f64 / nz.max(2) as f64 - 0.5;
                let ridge = 4.0 * u * u - 2.0 * v * v + u * v * 3.0 + w * (1.0 - w) * 2.0;
                let noise = (unit(&mut state) - 0.5) * 0.25;
                data.push(ridge + noise);
            }
        }
    }
    Field::new(spec.name, 0, spec.shape, data)
}

pub use pmr_mgard::checksum::fnv1a64;

fn compress_golden(field: &Field) -> Compressed {
    let cfg = CompressConfig {
        levels: SWEEP_LEVELS,
        num_planes: SWEEP_PLANES,
        threads: 1,
        ..CompressConfig::default()
    };
    Compressed::compress_with(field, &cfg, &ExecPolicy::serial())
}

fn probe_json(field: &Field, c: &Compressed) -> Json {
    let probes = PROBE_RELS
        .iter()
        .map(|&rel| {
            let abs = c.absolute_bound(rel);
            let plan = c.plan_theory(abs);
            let m = {
                let out = c
                    .decode_plan(&plan, &DecodeOptions::with_exec(ExecPolicy::serial()))
                    .expect("theory plan matches its artifact");
                let err = pmr_field::error::max_abs_error(field.data(), out.data());
                (c.retrieved_bytes(&plan), err)
            };
            Json::obj(vec![
                ("abs_bound_bits", Json::str(format!("{:016x}", abs.to_bits()))),
                ("planes", Json::Arr(plan.planes.iter().map(|&p| Json::Num(p as f64)).collect())),
                ("bytes", Json::Num(m.0 as f64)),
                ("achieved_bits", Json::str(format!("{:016x}", m.1.to_bits()))),
            ])
        })
        .collect();
    Json::Arr(probes)
}

/// Write (or rewrite) the golden blobs and index into `dir`.
pub fn regenerate(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut artifacts = Vec::new();
    for spec in specs() {
        let field = golden_field(&spec);
        let c = compress_golden(&field);
        let blob =
            persist::to_bytes(&c).map_err(|e| format!("golden: {}: serialize: {e}", spec.name))?;
        let file = format!("{}.pmr", spec.name);
        std::fs::write(dir.join(&file), &blob).map_err(|e| format!("write {file}: {e}"))?;
        artifacts.push(Json::obj(vec![
            ("name", Json::str(spec.name)),
            ("file", Json::str(&file)),
            ("shape", Json::Arr((0..3).map(|d| Json::Num(spec.shape.dim(d) as f64)).collect())),
            ("seed", Json::Num(spec.seed as f64)),
            ("bytes", Json::Num(blob.len() as f64)),
            ("fnv1a64", Json::str(format!("{:016x}", fnv1a64(&blob)))),
            ("levels", Json::Num(SWEEP_LEVELS as f64)),
            ("planes", Json::Num(SWEEP_PLANES as f64)),
            ("probes", probe_json(&field, &c)),
        ]));
    }
    let index = Json::obj(vec![
        ("version", Json::Num(GOLDEN_VERSION as f64)),
        ("artifacts", Json::Arr(artifacts)),
    ]);
    std::fs::write(dir.join(GOLDEN_INDEX), index.to_pretty())
        .map_err(|e| format!("write {GOLDEN_INDEX}: {e}"))
}

fn hex_bits(j: Option<&Json>) -> Option<f64> {
    j.and_then(Json::as_str).and_then(|s| u64::from_str_radix(s, 16).ok()).map(f64::from_bits)
}

/// Verify every golden artifact in `dir`; returns failure descriptions
/// (empty = all checks held).
pub fn verify(dir: &Path) -> Vec<String> {
    let mut failures = Vec::new();
    let index_path = dir.join(GOLDEN_INDEX);
    let text = match std::fs::read_to_string(&index_path) {
        Ok(t) => t,
        Err(e) => return vec![format!("golden: read {}: {e}", index_path.display())],
    };
    let index = match parse(&text) {
        Ok(j) => j,
        Err(e) => return vec![format!("golden: parse {GOLDEN_INDEX}: {e}")],
    };
    if index.get("version").and_then(Json::as_usize) != Some(GOLDEN_VERSION as usize) {
        failures.push("golden: index version mismatch".to_string());
    }
    let artifacts = index.get("artifacts").and_then(Json::as_arr).unwrap_or(&[]);
    if artifacts.len() != specs().len() {
        failures.push(format!(
            "golden: expected {} artifacts, index lists {}",
            specs().len(),
            artifacts.len()
        ));
    }
    for entry in artifacts {
        let name = entry.get("name").and_then(Json::as_str).unwrap_or("<unnamed>").to_string();
        if let Err(msg) = verify_artifact(dir, entry, &name) {
            failures.push(msg);
        }
    }
    failures
}

fn verify_artifact(dir: &Path, entry: &Json, name: &str) -> Result<(), String> {
    let spec = specs()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("golden: {name}: unknown artifact name"))?;
    let file = entry
        .get("file")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("golden: {name}: missing file entry"))?
        .to_string();
    let blob =
        std::fs::read(dir.join(&file)).map_err(|e| format!("golden: {name}: read {file}: {e}"))?;

    let expected_len = entry.get("bytes").and_then(Json::as_usize);
    if expected_len != Some(blob.len()) {
        return Err(format!(
            "golden: {name}: blob is {} bytes, index says {expected_len:?}",
            blob.len()
        ));
    }
    let expected_sum = entry.get("fnv1a64").and_then(Json::as_str).unwrap_or("");
    let actual_sum = format!("{:016x}", fnv1a64(&blob));
    if expected_sum != actual_sum {
        return Err(format!("golden: {name}: checksum {actual_sum} != recorded {expected_sum}"));
    }

    // Format stability: parse then re-serialise byte-identically.
    let parsed = persist::from_bytes(&blob).map_err(|e| format!("golden: {name}: parse: {e}"))?;
    let reserialized =
        persist::to_bytes(&parsed).map_err(|e| format!("golden: {name}: serialize: {e}"))?;
    if reserialized != blob {
        return Err(format!("golden: {name}: parse→serialise is not byte-identical"));
    }

    // Compressor stability: the regenerated source compresses to the blob.
    let field = golden_field(&spec);
    let recompressed = persist::to_bytes(&compress_golden(&field))
        .map_err(|e| format!("golden: {name}: serialize: {e}"))?;
    if recompressed != blob {
        return Err(format!(
            "golden: {name}: recompressing the source field no longer reproduces the blob"
        ));
    }

    // Decoder and error-accounting stability at the recorded probes.
    let probes = entry.get("probes").and_then(Json::as_arr).unwrap_or(&[]);
    if probes.len() != PROBE_RELS.len() {
        return Err(format!("golden: {name}: expected {} probes", PROBE_RELS.len()));
    }
    for (i, probe) in probes.iter().enumerate() {
        let abs = hex_bits(probe.get("abs_bound_bits"))
            .ok_or_else(|| format!("golden: {name}: probe {i}: bad abs_bound_bits"))?;
        let plan = parsed.plan_theory(abs);
        let recorded_planes: Vec<u32> = probe
            .get("planes")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(|p| p.as_usize().map(|v| v as u32)).collect())
            .unwrap_or_default();
        if plan.planes != recorded_planes {
            return Err(format!(
                "golden: {name}: probe {i}: plan {:?} != recorded {recorded_planes:?}",
                plan.planes
            ));
        }
        let bytes = parsed.retrieved_bytes(&plan);
        if probe.get("bytes").and_then(Json::as_usize) != Some(bytes as usize) {
            return Err(format!("golden: {name}: probe {i}: fetched bytes changed"));
        }
        let out = parsed
            .decode_plan(&plan, &DecodeOptions::with_exec(ExecPolicy::serial()))
            .map_err(|e| format!("golden: {name}: probe {i}: {e}"))?;
        // The serial decode above runs whatever kernel `Auto` resolves on
        // this host; the committed bits must also reproduce through the
        // legacy scalar assembly.
        let scalar_exec = ExecPolicy::serial().with_kernel(PlaneKernel::Scalar);
        let scalar_out = parsed
            .decode_plan(&plan, &DecodeOptions::with_exec(scalar_exec))
            .map_err(|e| format!("golden: {name}: probe {i} (scalar kernel): {e}"))?;
        if out.data().iter().map(|v| v.to_bits()).ne(scalar_out.data().iter().map(|v| v.to_bits()))
        {
            return Err(format!(
                "golden: {name}: probe {i}: scalar and tiled kernels reconstruct different bits"
            ));
        }
        let achieved = pmr_field::error::max_abs_error(field.data(), out.data());
        let recorded = hex_bits(probe.get("achieved_bits"))
            .ok_or_else(|| format!("golden: {name}: probe {i}: bad achieved_bits"))?;
        if achieved.to_bits() != recorded.to_bits() {
            return Err(format!(
                "golden: {name}: probe {i}: achieved error {achieved:?} != recorded {recorded:?} \
                 (bit-exact check)"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn golden_fields_are_deterministic_and_finite() {
        for spec in specs() {
            let a = golden_field(&spec);
            let b = golden_field(&spec);
            assert_eq!(
                a.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            assert!(a.data().iter().all(|v| v.is_finite()));
            assert!(a.value_range() > 0.0);
        }
    }

    #[test]
    fn regenerate_then_verify_roundtrips() {
        let dir = std::env::temp_dir().join(format!("pmr-golden-test-{}", std::process::id()));
        regenerate(&dir).expect("regenerate");
        let failures = verify(&dir);
        assert!(failures.is_empty(), "{failures:?}");

        // Tamper with a blob: verify must name the damage.
        let blob_path = dir.join("poly-1d.pmr");
        let mut blob = std::fs::read(&blob_path).expect("read blob");
        let mid = blob.len() / 2;
        blob[mid] ^= 0xFF;
        std::fs::write(&blob_path, &blob).expect("write tampered blob");
        let failures = verify(&dir);
        assert!(failures.iter().any(|f| f.contains("checksum")), "{failures:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
