//! The one bounds-checked cursor every persisted format and wire frame is
//! parsed through.
//!
//! Artifacts, models and frames are little-endian byte streams written by
//! someone else, so every read is checked: a length past the end of the
//! buffer — however large, `u64::MAX` included — is a
//! [`PmrError::Malformed`] naming the format, never a panic, a wrapped
//! offset or a length-sized allocation.

use crate::{PmrError, Result};

/// A little-endian cursor over untrusted bytes.
///
/// Every read advances past what it returns or fails without moving;
/// failures are [`PmrError::Malformed`] with the `what` given to
/// [`ByteReader::new`]. A parser ends with [`ByteReader::done`], so
/// trailing bytes are rejected as surely as missing ones.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `buf`; `what` names the format in errors
    /// ("mgard artifact", "pmrd frame", …).
    #[inline]
    pub fn new(buf: &'a [u8], what: &'static str) -> Self {
        ByteReader { buf, pos: 0, what }
    }

    /// A [`PmrError::Malformed`] for this reader's format, for the
    /// validation a parser does on the values it read.
    pub fn malformed(&self, detail: impl Into<String>) -> PmrError {
        PmrError::malformed(self.what, detail)
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet read.
    pub fn left(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.truncated(n))?;
        let s = self.buf.get(self.pos..end).ok_or_else(|| self.truncated(n))?;
        self.pos = end;
        Ok(s)
    }

    fn fixed<const N: usize>(&mut self) -> Result<[u8; N]> {
        let s = self.take(N)?;
        s.first_chunk().copied().ok_or_else(|| self.truncated(N))
    }

    #[cold]
    fn truncated(&self, n: usize) -> PmrError {
        self.malformed(format!(
            "truncated: {n} bytes wanted at offset {}, {} left",
            self.pos,
            self.left()
        ))
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        let [b] = self.fixed()?;
        Ok(b)
    }

    /// A `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.fixed()?))
    }

    /// A `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.fixed()?))
    }

    /// A `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.fixed()?))
    }

    /// An `f32`.
    pub fn f32(&mut self) -> Result<f32> {
        Ok(f32::from_le_bytes(self.fixed()?))
    }

    /// An `f64`.
    #[inline]
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.fixed()?))
    }

    /// A flag byte: exactly `0` or `1`, anything else is malformed.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.malformed(format!("flag byte {b} is neither 0 nor 1"))),
        }
    }

    /// The next `n` bytes as UTF-8 text.
    #[inline]
    pub fn str(&mut self, n: usize) -> Result<&'a str> {
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes).map_err(|_| self.malformed("string is not valid UTF-8"))
    }

    /// Everything left; the reader is then at the end.
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        let s = self.buf.get(self.pos..).unwrap_or_default();
        self.pos = self.buf.len();
        s
    }

    /// Succeeds only at the end of the buffer: trailing bytes are malformed.
    #[inline]
    pub fn done(&self) -> Result<()> {
        match self.left() {
            0 => Ok(()),
            n => Err(self.malformed(format!("{n} trailing byte(s)"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_in_order_and_refuses_what_is_not_there() {
        let buf = [[7, 1].as_slice(), &0xBEEFu16.to_le_bytes(), &u64::MAX.to_le_bytes(), b"hi!"];
        let buf = buf.concat();
        let mut r = ByteReader::new(&buf, "test format");
        assert_eq!((r.u8().ok(), r.bool().ok(), r.u16().ok()), (Some(7), Some(true), Some(0xBEEF)));
        assert_eq!(r.u64().ok(), Some(u64::MAX));
        for n in [4, usize::MAX, usize::MAX - 1] {
            let e = r.take(n).expect_err("past the end");
            assert!(matches!(e, PmrError::Malformed { what: "test format", .. }), "{e}");
        }
        assert_eq!((r.pos(), r.str(2).ok()), (12, Some("hi")), "a failed read does not move");
        assert!(r.done().is_err() && r.u32().is_err(), "one byte left");
        assert_eq!((r.rest(), r.rest()), (&b"!"[..], &b""[..]));
        assert!(r.done().is_ok());
        assert!(ByteReader::new(&[2], "flag").bool().is_err());
        assert!(ByteReader::new(&[0xFF], "text").str(1).is_err());
    }
}
