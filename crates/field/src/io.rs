//! Compact binary on-disk format for generated fields.
//!
//! Simulated datasets are cached on disk so that benches, tests and examples
//! do not regenerate them. The format is deliberately minimal:
//!
//! ```text
//! magic  "PMRF1\0\0\0"                     8 bytes
//! ndim   u32 LE                            4
//! dims   3 x u32 LE                       12
//! ts     u64 LE (timestep)                 8
//! nlen   u32 LE (name byte length)         4
//! name   nlen bytes UTF-8
//! data   len x f64 LE
//! ```

use crate::field::Field;
use crate::shape::Shape;
use pmr_error::{ByteReader, PmrError};
use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"PMRF1\0\0\0";

/// Largest grid a header may claim (2^28 points = 2 GiB of f64), the cap
/// `pmr_mgard::persist` applies to the same fields.
const MAX_POINTS: usize = 1 << 28;

/// Encode a field as a byte buffer.
pub fn to_bytes(field: &Field) -> Vec<u8> {
    let shape = field.shape();
    let name = field.name().as_bytes();
    let mut buf = Vec::with_capacity(36 + name.len() + field.len() * 8);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&(shape.ndim() as u32).to_le_bytes());
    for d in 0..3 {
        buf.extend_from_slice(&(shape.dim(d) as u32).to_le_bytes());
    }
    buf.extend_from_slice(&(field.timestep() as u64).to_le_bytes());
    buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
    buf.extend_from_slice(name);
    for &v in field.data() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    buf
}

/// Parse a field from a byte buffer produced by [`to_bytes`]. Every header
/// field is checked before it is used: hostile bytes are a
/// [`PmrError::Malformed`], never a panic or a header-sized allocation.
pub fn from_bytes(buf: &[u8]) -> Result<Field, PmrError> {
    let mut r = ByteReader::new(buf, "field");
    if r.take(8)? != MAGIC {
        return Err(r.malformed("bad magic"));
    }
    let ndim = r.u32()? as usize;
    let dx = r.u32()? as usize;
    let dy = r.u32()? as usize;
    let dz = r.u32()? as usize;
    let points = dx.checked_mul(dy).and_then(|p| p.checked_mul(dz));
    let data_len = match points {
        Some(p) if (1..=MAX_POINTS).contains(&p) => p * 8,
        _ => return Err(r.malformed("grid dimensions out of range")),
    };
    let shape = match (ndim, dy, dz) {
        (1, 1, 1) => Shape::d1(dx),
        (2, _, 1) => Shape::d2(dx, dy),
        (3, _, _) => Shape::d3(dx, dy, dz),
        (1 | 2, _, _) => return Err(r.malformed("dimensions beyond ndim must be 1")),
        _ => return Err(r.malformed("bad ndim")),
    };
    let timestep = r.u64()? as usize;
    let nlen = r.u32()? as usize;
    let name = r.str(nlen)?.to_owned();
    let mut samples = ByteReader::new(r.take(data_len)?, "field");
    let data = (0..data_len / 8).map(|_| samples.f64()).collect::<Result<_, _>>()?;
    r.done()?;
    Ok(Field::new(name, timestep, shape, data))
}

/// Write a field to `path`, creating parent directories as needed.
pub fn save(field: &Field, path: &Path) -> Result<(), PmrError> {
    let io_err = |e: io::Error| PmrError::io_at(path, e);
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).map_err(io_err)?;
    }
    let mut f = io::BufWriter::new(fs::File::create(path).map_err(io_err)?);
    f.write_all(&to_bytes(field)).map_err(io_err)?;
    f.flush().map_err(io_err)
}

/// Read a field previously written with [`save`].
pub fn load(path: &Path) -> Result<Field, PmrError> {
    let mut buf = Vec::new();
    fs::File::open(path)
        .and_then(|mut f| f.read_to_end(&mut buf))
        .map_err(|e| PmrError::io_at(path, e))?;
    from_bytes(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Field {
        Field::from_fn("J_x", 17, Shape::d3(3, 4, 2), |x, y, z| {
            (x as f64) * 0.5 - (y as f64) + (z as f64) * 2.25
        })
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("pmr_field_io_test");
        let path = dir.join("nested/J_x_t17.pmrf");
        let f = sample();
        save(&f, &path).unwrap();
        let rt = load(&path).unwrap();
        assert_eq!(f, rt);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn special_values_preserved() {
        let f = Field::new("nan", 0, Shape::d1(4), vec![f64::NAN, f64::INFINITY, -0.0, 1e-308]);
        let rt = from_bytes(&to_bytes(&f)).unwrap();
        assert!(rt.data()[0].is_nan());
        assert_eq!(rt.data()[1], f64::INFINITY);
        assert_eq!(rt.data()[2].to_bits(), (-0.0_f64).to_bits());
        assert_eq!(rt.data()[3], 1e-308);
    }
}
