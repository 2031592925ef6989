//! The lossless compression stage applied to each bit-plane.
//!
//! A one-byte header selects the representation so that incompressible
//! planes (the low, noise-like ones) never expand by more than one byte:
//!
//! * `0x00` — raw passthrough,
//! * `0x01` — RLE ([`crate::rle`]).
//!
//! This stands in for the ZSTD stage of the paper's pipeline; the property
//! that matters downstream is the *monotone size profile* across planes
//! (high planes are nearly free, low planes cost ~1 bit/coefficient), which
//! RLE reproduces.

use crate::rle;
use pmr_error::PmrError;
use std::borrow::Cow;

/// Compression mode chosen for a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lossless {
    Raw,
    Rle,
}

const TAG_RAW: u8 = 0x00;
const TAG_RLE: u8 = 0x01;

/// Compress `data`, picking whichever representation is smaller.
pub fn compress(data: &[u8]) -> Vec<u8> {
    // One buffer, sized for the raw form: the tag goes first and the RLE
    // stream is written straight behind it, abandoned as soon as it can no
    // longer beat the input (strictly: nothing beats an empty one).
    let mut out = Vec::with_capacity(data.len() + 1);
    out.push(TAG_RLE);
    let shorter = data.len().checked_sub(1);
    if shorter.is_some_and(|max_len| rle::encode_into(data, &mut out, max_len)) {
        out.shrink_to_fit();
    } else {
        out.clear();
        out.push(TAG_RAW);
        out.extend_from_slice(data);
    }
    out
}

/// Decompress a buffer produced by [`compress`]. `None` on malformed input.
pub fn decompress(buf: &[u8]) -> Option<Vec<u8>> {
    decompress_bounded(buf, usize::MAX).map(Cow::into_owned)
}

/// [`decompress`] with an output-size ceiling; see [`rle::decode_bounded`]
/// for why callers decoding untrusted bytes must cap the expansion. A raw
/// payload is its own decoded form, so it comes back borrowed; only RLE
/// allocates.
pub fn decompress_bounded(buf: &[u8], max_len: usize) -> Option<Cow<'_, [u8]>> {
    let (&tag, rest) = buf.split_first()?;
    match tag {
        TAG_RAW if rest.len() <= max_len => Some(Cow::Borrowed(rest)),
        TAG_RAW => None,
        TAG_RLE => rle::decode_bounded(rest, max_len).map(Cow::Owned),
        _ => None,
    }
}

/// Decompress untrusted bytes, expecting exactly `expected_len` of output.
///
/// This is the entry point deserializers use: any structural problem —
/// unknown tag, truncated token, or a decoded size other than
/// `expected_len` — comes back as a descriptive [`PmrError::Malformed`]
/// instead of a bare `None`, and the expansion is capped so garbage can
/// never allocate more than the caller budgeted for.
pub fn try_decompress(buf: &[u8], expected_len: usize) -> Result<Vec<u8>, PmrError> {
    let out = decompress_bounded(buf, expected_len).ok_or_else(|| {
        PmrError::malformed(
            "lossless plane",
            format!(
                "{}-byte payload is not a valid stream of <= {expected_len} decoded bytes",
                buf.len()
            ),
        )
    })?;
    if out.len() != expected_len {
        return Err(PmrError::malformed(
            "lossless plane",
            format!("decoded {} bytes, expected {expected_len}", out.len()),
        ));
    }
    Ok(out.into_owned())
}

/// Which mode a compressed buffer used (for diagnostics).
pub fn mode_of(buf: &[u8]) -> Option<Lossless> {
    match *buf.first()? {
        TAG_RAW => Some(Lossless::Raw),
        TAG_RLE => Some(Lossless::Rle),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_plane_uses_rle() {
        let mut data = vec![0u8; 4096];
        data[100] = 1;
        let c = compress(&data);
        assert_eq!(mode_of(&c), Some(Lossless::Rle));
        assert!(c.len() < 128, "encoded {} bytes", c.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn dense_plane_falls_back_to_raw() {
        let data: Vec<u8> =
            (0..1024u32).map(|i| (i.wrapping_mul(2654435761) % 251) as u8).collect();
        let c = compress(&data);
        assert_eq!(mode_of(&c), Some(Lossless::Raw));
        assert_eq!(c.len(), data.len() + 1);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn empty_roundtrip() {
        let c = compress(&[]);
        assert_eq!(c, [TAG_RAW]);
        assert_eq!(decompress(&c).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn bounded_raw_respects_cap() {
        let c = compress(&[1, 2, 3, 4]);
        assert_eq!(mode_of(&c), Some(Lossless::Raw));
        assert_eq!(decompress_bounded(&c, 4).unwrap(), vec![1, 2, 3, 4]);
        assert!(decompress_bounded(&c, 3).is_none());
    }

    #[test]
    fn raw_payloads_are_borrowed_rle_payloads_owned() {
        let raw = compress(&[1, 2, 3, 4]);
        assert!(matches!(decompress_bounded(&raw, 4), Some(Cow::Borrowed(b)) if b == [1, 2, 3, 4]));
        let rle = compress(&[0u8; 64]);
        assert_eq!(mode_of(&rle), Some(Lossless::Rle));
        assert!(matches!(decompress_bounded(&rle, 64), Some(Cow::Owned(b)) if b == [0u8; 64]));
    }

    #[test]
    fn try_decompress_reports_size_mismatch() {
        let c = compress(&[0u8; 64]);
        assert_eq!(try_decompress(&c, 64).unwrap().len(), 64);
        let err = try_decompress(&c, 63).unwrap_err();
        assert!(err.to_string().contains("malformed lossless plane"), "{err}");
        let err = try_decompress(&[0xFF, 0, 0], 2).unwrap_err();
        assert!(err.to_string().contains("malformed"), "{err}");
    }
}
