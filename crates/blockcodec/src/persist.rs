//! On-disk persistence of block-compressed artifacts.
//!
//! Format (`PMRB1\0`): name, timestep, shape, value range, then the
//! embedded [`LevelEncoding`] stream (its own self-contained format).

use crate::codec::BlockCompressed;
use pmr_error::{len_u32, ByteReader, PmrError};
use pmr_mgard::{persist, LevelEncoding};
use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;

/// The block artifact magic.
pub const MAGIC: &[u8; 6] = b"PMRB1\0";

/// Encode an artifact as bytes.
///
/// Fails with [`PmrError::Corrupt`] if a length no longer fits its `u32`
/// wire field instead of wrapping it.
pub fn to_bytes(c: &BlockCompressed) -> Result<Vec<u8>, PmrError> {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the payloads' total length is the size of memory they occupy"
    )]
    let mut out = Vec::with_capacity(c.total_bytes() as usize + 1024);
    out.extend_from_slice(MAGIC);
    let name = c.name().as_bytes();
    out.extend_from_slice(&len_u32(name.len(), "field name length")?.to_le_bytes());
    out.extend_from_slice(name);
    out.extend_from_slice(&(c.timestep() as u64).to_le_bytes());
    let shape = c.shape();
    out.extend_from_slice(&len_u32(shape.ndim(), "ndim")?.to_le_bytes());
    for d in 0..3 {
        out.extend_from_slice(&len_u32(shape.dim(d), "grid dimension")?.to_le_bytes());
    }
    out.extend_from_slice(&c.value_range().to_le_bytes());
    out.extend_from_slice(&c.encoding().to_bytes()?);
    Ok(out)
}

/// Parse an artifact previously produced by [`to_bytes`].
pub fn from_bytes(buf: &[u8]) -> Result<BlockCompressed, PmrError> {
    let mut r = ByteReader::new(buf, "block artifact");
    if r.take(6)? != MAGIC {
        return Err(r.malformed("bad magic"));
    }
    let (name, timestep, shape) = persist::read_header(&mut r)?;
    let value_range = r.f64()?;
    if !value_range.is_finite() || value_range < 0.0 {
        return Err(r.malformed("value range must be finite and non-negative"));
    }
    let encoding = LevelEncoding::read_from(&mut r)?;
    r.done()?;
    BlockCompressed::from_parts(name, timestep, shape, encoding, value_range)
        .ok_or_else(|| r.malformed("encoding does not match shape"))
}

/// Write an artifact to `path`, creating parent directories.
pub fn save(c: &BlockCompressed, path: &Path) -> Result<(), PmrError> {
    let io_err = |e: io::Error| PmrError::io_at(path, e);
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).map_err(io_err)?;
    }
    let bytes = to_bytes(c)?;
    let mut f = io::BufWriter::new(fs::File::create(path).map_err(io_err)?);
    f.write_all(&bytes).map_err(io_err)?;
    f.flush().map_err(io_err)
}

/// Read an artifact previously written with [`save`].
pub fn load(path: &Path) -> Result<BlockCompressed, PmrError> {
    let mut buf = Vec::new();
    fs::File::open(path)
        .and_then(|mut f| f.read_to_end(&mut buf))
        .map_err(|e| PmrError::io_at(path, e))?;
    from_bytes(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::BlockConfig;
    use pmr_field::{error::max_abs_error, Field, Shape};

    fn artifact() -> (Field, BlockCompressed) {
        let field = Field::from_fn("B_x", 7, Shape::d3(9, 6, 5), |x, y, z| {
            ((x as f64) * 0.5).sin() + (y as f64) * 0.1 - (z as f64) * 0.02
        });
        let c = BlockCompressed::compress(&field, &BlockConfig::default());
        (field, c)
    }

    #[test]
    fn roundtrip_preserves_retrieval() {
        let (field, c) = artifact();
        let rt = from_bytes(&to_bytes(&c).expect("serialize")).expect("roundtrip");
        assert_eq!(rt.name(), "B_x");
        assert_eq!(rt.shape(), field.shape());
        for b in [4u32, 16, 32] {
            let r1 = c.retrieve(b);
            let r2 = rt.retrieve(b);
            assert_eq!(r1.data(), r2.data());
        }
        let full = rt.retrieve(rt.num_planes());
        assert!(max_abs_error(field.data(), full.data()) < 1e-5);
    }

    #[test]
    fn file_roundtrip() {
        let (_, c) = artifact();
        let dir = std::env::temp_dir().join("pmr_block_persist_test");
        let path = dir.join("b.pmrb");
        save(&c, &path).unwrap();
        let rt = load(&path).unwrap();
        assert_eq!(rt.total_bytes(), c.total_bytes());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_rejected() {
        let (_, c) = artifact();
        let bytes = to_bytes(&c).expect("serialize");
        assert!(from_bytes(&bytes[..bytes.len() - 3]).is_err());
        assert!(from_bytes(b"junk").is_err());
        let mut bad = bytes.clone();
        bad[2] = b'X';
        assert!(from_bytes(&bad).is_err());
    }
}
