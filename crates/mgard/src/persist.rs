//! On-disk persistence of compressed artifacts.
//!
//! The format is self-contained and versioned: everything retrieval needs —
//! plane payloads, the collected error matrix, quantization steps, the
//! decomposition parameters, the value range — round-trips, so an artifact
//! written by a producer can be progressively read elsewhere. A per-plane
//! FNV-1a checksum table follows the header, and [`from_bytes`] checks every
//! payload against it, so bit rot is an error at load time instead of silent
//! reconstruction error.
//!
//! ```text
//! magic "PMRC2\0"
//! name        u32 len + UTF-8 bytes
//! timestep    u64
//! shape       u32 ndim + 3 x u32 dims
//! levels L    u32
//! mode        u8 (0 = Interpolation, 1 = L2Projection)
//! value_range f64
//! checksum table, per level:
//!             u32 num_planes, num_planes x u64 fnv1a64(payload)
//! per level:  u64 count, u32 num_planes, f64 step,
//!             (B+1) x f64 error row,
//!             B x (u32 len + payload bytes)
//! ```

use crate::bitplane::LevelEncoding;
use crate::compress::Compressed;
use crate::decompose::{Decomposer, TransformMode};
use pmr_error::{len_u32, ByteReader, PmrError};
use pmr_field::Shape;
use std::fs;
use std::io::Read;
use std::path::Path;

/// The artifact magic.
pub const MAGIC: &[u8; 6] = b"PMRC2\0";

/// Encode an artifact as bytes.
///
/// Fails with [`PmrError::Corrupt`] if a length no longer fits its `u32`
/// wire field — the cast-and-wrap alternative would silently persist an
/// artifact that cannot round-trip.
pub fn to_bytes(c: &Compressed) -> Result<Vec<u8>, PmrError> {
    let name = c.name().as_bytes();
    let header = MAGIC.len() + 4 + name.len() + 8 + 4 + 3 * 4 + 4 + 1 + 8;
    let levels: usize =
        c.levels().iter().map(|l| 4 + 8 * l.num_planes() as usize + l.encoded_len()).sum();
    let mut out = Vec::with_capacity(header + levels);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&len_u32(name.len(), "field name length")?.to_le_bytes());
    out.extend_from_slice(name);
    out.extend_from_slice(&(c.timestep() as u64).to_le_bytes());
    let shape = c.shape();
    out.extend_from_slice(&len_u32(shape.ndim(), "ndim")?.to_le_bytes());
    for d in 0..3 {
        out.extend_from_slice(&len_u32(shape.dim(d), "grid dimension")?.to_le_bytes());
    }
    out.extend_from_slice(&len_u32(c.num_levels(), "level count")?.to_le_bytes());
    out.push(match c.decomposer().mode() {
        TransformMode::Interpolation => 0,
        TransformMode::L2Projection => 1,
    });
    out.extend_from_slice(&c.value_range().to_le_bytes());
    for lvl in c.levels() {
        out.extend_from_slice(&lvl.num_planes().to_le_bytes());
        for k in 0..lvl.num_planes() {
            out.extend_from_slice(&lvl.plane_checksum(k).to_le_bytes());
        }
    }
    for lvl in c.levels() {
        lvl.write_to(&mut out)?;
    }
    Ok(out)
}

/// Parse an artifact previously produced by [`to_bytes`]. Every plane
/// payload is verified against the stored checksum table; a mismatch is a
/// [`PmrError::Malformed`] naming the level and plane.
pub fn from_bytes(buf: &[u8]) -> Result<Compressed, PmrError> {
    let mut r = ByteReader::new(buf, "mgard artifact");
    if r.take(MAGIC.len())? != MAGIC {
        return Err(r.malformed("bad magic"));
    }
    let name_len = r.u32()? as usize;
    if name_len > 4096 {
        return Err(r.malformed("name length exceeds 4096"));
    }
    let name = r.str(name_len)?.to_owned();
    let timestep = usize::try_from(r.u64()?).map_err(|_| r.malformed("timestep exceeds usize"))?;
    let ndim = r.u32()? as usize;
    let dx = r.u32()? as usize;
    let dy = r.u32()? as usize;
    let dz = r.u32()? as usize;
    // Cap the grid size well below anything a corrupted header could use
    // to drive an enormous allocation (2^28 points = 2 GiB of f64).
    let points = dx.checked_mul(dy).and_then(|p| p.checked_mul(dz));
    if dx == 0 || dy == 0 || dz == 0 || points.is_none_or(|p| p > 1 << 28) {
        return Err(r.malformed("grid dimensions out of range"));
    }
    let shape = match ndim {
        1 => Shape::d1(dx),
        2 => Shape::d2(dx, dy),
        3 => Shape::d3(dx, dy, dz),
        _ => return Err(r.malformed("ndim must be 1, 2 or 3")),
    };
    let num_levels = r.u32()? as usize;
    if num_levels == 0 || num_levels > 64 {
        return Err(r.malformed("level count out of range"));
    }
    let mode = match r.u8()? {
        0 => TransformMode::Interpolation,
        1 => TransformMode::L2Projection,
        _ => return Err(r.malformed("unknown transform mode")),
    };
    let value_range = r.f64()?;

    let decomposer = Decomposer::new(shape, num_levels, mode);
    if decomposer.levels() != num_levels {
        return Err(r.malformed("stored level count impossible for this shape"));
    }

    let mut table: Vec<Vec<u64>> = Vec::with_capacity(num_levels);
    for l in 0..num_levels {
        let planes = r.u32()? as usize;
        if planes > 256 {
            return Err(r.malformed(format!("checksum table claims {planes} planes at level {l}")));
        }
        table.push((0..planes).map(|_| r.u64()).collect::<Result<_, _>>()?);
    }

    let mut levels = Vec::with_capacity(num_levels);
    for (l, stored) in table.iter().enumerate() {
        let enc = LevelEncoding::read_from(&mut r).map_err(|e| match e {
            PmrError::Malformed { what, detail } => {
                PmrError::Malformed { what, detail: format!("level {l}: {detail}") }
            }
            e => e,
        })?;
        verify_checksums(l, &enc, stored)?;
        levels.push(enc);
    }
    r.done()?;
    Compressed::from_parts(name, timestep, decomposer, levels, value_range)
        .ok_or_else(|| r.malformed("level layout does not match decomposition"))
}

/// Check level `l`'s row of the stored checksum table against the digests
/// `enc` took of its payloads as it was parsed ([`LevelEncoding::plane_checksum`]):
/// the one hash of the loaded bytes, compared here rather than recomputed.
fn verify_checksums(l: usize, enc: &LevelEncoding, stored: &[u64]) -> Result<(), PmrError> {
    if stored.len() != enc.num_planes() as usize {
        return Err(PmrError::malformed(
            "mgard artifact",
            format!(
                "checksum table has {} entries at level {l} but the level holds {} planes",
                stored.len(),
                enc.num_planes()
            ),
        ));
    }
    for (&expect, k) in stored.iter().zip(0..enc.num_planes()) {
        let got = enc.plane_checksum(k);
        if got != expect {
            return Err(PmrError::malformed(
                "mgard artifact",
                format!(
                    "checksum mismatch at level {l} plane {k}: \
                     stored {expect:#018x}, payload hashes to {got:#018x}"
                ),
            ));
        }
    }
    Ok(())
}

/// Write an artifact to `path`, creating parent directories.
pub fn save(c: &Compressed, path: &Path) -> Result<(), PmrError> {
    let io_err = |e: std::io::Error| PmrError::io_at(path, e);
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).map_err(io_err)?;
    }
    fs::write(path, to_bytes(c)?).map_err(io_err)
}

/// Read an artifact previously written with [`save`].
pub fn load(path: &Path) -> Result<Compressed, PmrError> {
    let mut buf = Vec::new();
    fs::File::open(path)
        .and_then(|mut f| f.read_to_end(&mut buf))
        .map_err(|e| PmrError::io_at(path, e))?;
    from_bytes(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::CompressConfig;
    use pmr_field::{error::max_abs_error, Field};

    fn artifact() -> (Field, Compressed) {
        let field = Field::from_fn("J_x", 11, Shape::d3(9, 7, 5), |x, y, z| {
            ((x as f64) * 0.6).sin() * ((y as f64) * 0.2).cos() + (z as f64) * 0.03
        });
        let c = Compressed::compress(&field, &CompressConfig::default());
        (field, c)
    }

    #[test]
    fn bytes_roundtrip_preserves_retrieval() {
        let (field, c) = artifact();
        let rt = from_bytes(&to_bytes(&c).expect("serialize")).expect("roundtrip");
        assert_eq!(rt.name(), "J_x");
        assert_eq!(rt.timestep(), 11);
        assert_eq!(rt.num_levels(), c.num_levels());
        assert_eq!(rt.value_range(), c.value_range());
        for bound in [1e-2, 1e-4] {
            let abs = c.absolute_bound(bound);
            let p1 = c.plan_theory(abs);
            let p2 = rt.plan_theory(abs);
            assert_eq!(p1, p2);
            let r1 = c.retrieve(&p1);
            let r2 = rt.retrieve(&p2);
            assert_eq!(r1.data(), r2.data());
            assert!(max_abs_error(field.data(), r2.data()) <= abs);
        }
    }

    #[test]
    fn payload_bit_flip_detected() {
        let (_, c) = artifact();
        let bytes = to_bytes(&c).expect("serialize");
        // Flip one bit in the last payload byte of the buffer — deep inside
        // the final level's plane data, past every header field. That plane
        // is stored raw, so the flipped payload still parses and only its
        // digest can tell.
        let mut bad = bytes.clone();
        let at = bad.len() - 1;
        bad[at] ^= 0x01;
        let err = from_bytes(&bad).unwrap_err().to_string();
        let (l, k) = (c.num_levels() - 1, c.num_planes() - 1);
        assert!(err.contains(&format!("checksum mismatch at level {l} plane {k}")), "got: {err}");
    }

    #[test]
    fn loaded_levels_carry_their_payload_digests() {
        use crate::checksum::fnv1a64;
        let digests_hold = |c: &Compressed| {
            c.levels().iter().all(|lvl| {
                (0..lvl.num_planes())
                    .all(|k| lvl.plane_checksum(k) == fnv1a64(lvl.plane_payload(k)))
            })
        };
        let (_, c) = artifact();
        assert!(digests_hold(&c));
        assert!(digests_hold(&from_bytes(&to_bytes(&c).expect("serialize")).expect("roundtrip")));
    }

    #[test]
    fn to_bytes_reserves_exactly() {
        let (_, c) = artifact();
        let bytes = to_bytes(&c).expect("serialize");
        assert_eq!(bytes.capacity(), bytes.len());
        let level = c.levels()[0].to_bytes().expect("serialize");
        assert_eq!(level.capacity(), level.len());
    }

    #[test]
    fn file_roundtrip() {
        let (_, c) = artifact();
        let dir = std::env::temp_dir().join("pmr_persist_test");
        let path = dir.join("artifact.pmrc");
        save(&c, &path).unwrap();
        let rt = load(&path).unwrap();
        assert_eq!(rt.total_bytes(), c.total_bytes());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_bad_level_is_named() {
        let (_, c) = artifact();
        let bytes = to_bytes(&c).expect("serialize");
        let last = c.num_levels() - 1;
        let msg = from_bytes(&bytes[..bytes.len() - 3]).expect_err("truncated").to_string();
        assert!(msg.contains(&format!("level {last}: ")), "{msg}");
    }
}
