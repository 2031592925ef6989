//! Workspace-wide error type.
//!
//! Every fallible persistence or configuration path in the workspace funnels
//! into [`PmrError`] so that binaries (`pmrtool`) can print one coherent
//! message and exit nonzero instead of unwinding, and so library callers can
//! match on the failure class without string-parsing.

// Lossy casts, nondeterminism sources and discarded `Result`s, as
// scoped to this crate (DESIGN.md §8); test code is exempt.
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap, clippy::cast_sign_loss,)
)]

mod reader;

pub use reader::ByteReader;

use std::fmt;
use std::io;
use std::path::PathBuf;

/// The single error type shared by all `pmr-*` crates.
#[derive(Debug)]
pub enum PmrError {
    /// An OS-level I/O failure, with the path involved when known.
    Io {
        /// File the operation touched, if the call site knows it.
        path: Option<PathBuf>,
        /// Underlying error from the standard library.
        source: io::Error,
    },
    /// A byte stream failed structural validation (bad magic, truncated
    /// payload, out-of-range header field, trailing garbage, …).
    Malformed {
        /// Which artifact family was being decoded ("field", "mgard
        /// artifact", "block artifact", "mlp model", …).
        what: &'static str,
        /// Human-readable description of the violation.
        detail: String,
    },
    /// An API was handed invalid parameters.
    InvalidConfig {
        /// Human-readable description of the violation.
        detail: String,
    },
    /// In-memory data violated an internal invariant: a length or shift that
    /// no longer fits its serialized width, a checksum mismatch, a value a
    /// checked conversion refused. Distinct from [`PmrError::Malformed`],
    /// which covers *external* bytes failing validation on the way in.
    Corrupt {
        /// Human-readable description of the violation.
        detail: String,
    },
}

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, PmrError>;

impl PmrError {
    /// A [`PmrError::Malformed`] with the given artifact family and detail.
    pub fn malformed(what: &'static str, detail: impl Into<String>) -> Self {
        PmrError::Malformed { what, detail: detail.into() }
    }

    /// A [`PmrError::InvalidConfig`] with the given detail.
    pub fn invalid_config(detail: impl Into<String>) -> Self {
        PmrError::InvalidConfig { detail: detail.into() }
    }

    /// A [`PmrError::Io`] that records the path that failed.
    pub fn io_at(path: impl Into<PathBuf>, source: io::Error) -> Self {
        PmrError::Io { path: Some(path.into()), source }
    }

    /// A [`PmrError::Corrupt`] with the given detail.
    pub fn corrupt(detail: impl Into<String>) -> Self {
        PmrError::Corrupt { detail: detail.into() }
    }
}

/// Checked `usize → u32` for serialized length/count fields. Wrapping a
/// too-large length with `as u32` would silently corrupt the artifact; this
/// surfaces [`PmrError::Corrupt`] instead. `what` names the field for the
/// error message.
pub fn len_u32(n: usize, what: &str) -> Result<u32> {
    u32::try_from(n).map_err(|_| PmrError::corrupt(format!("{what} {n} exceeds u32 range")))
}

impl fmt::Display for PmrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmrError::Io { path: Some(p), source } => {
                write!(f, "i/o error on {}: {source}", p.display())
            }
            PmrError::Io { path: None, source } => write!(f, "i/o error: {source}"),
            PmrError::Malformed { what, detail } => write!(f, "malformed {what}: {detail}"),
            PmrError::InvalidConfig { detail } => write!(f, "invalid configuration: {detail}"),
            PmrError::Corrupt { detail } => write!(f, "corrupt data: {detail}"),
        }
    }
}

impl std::error::Error for PmrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PmrError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for PmrError {
    fn from(source: io::Error) -> Self {
        PmrError::Io { path: None, source }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_path() {
        let e = PmrError::io_at("/tmp/x.pmr", io::Error::new(io::ErrorKind::NotFound, "gone"));
        let s = e.to_string();
        assert!(s.contains("/tmp/x.pmr"), "{s}");
        assert!(s.contains("gone"), "{s}");
    }

    #[test]
    fn display_malformed() {
        let e = PmrError::malformed("mgard artifact", "bad magic");
        assert_eq!(e.to_string(), "malformed mgard artifact: bad magic");
    }

    #[test]
    fn io_error_converts() {
        fn fails() -> crate::Result<()> {
            Err(io::Error::new(io::ErrorKind::UnexpectedEof, "short read"))?;
            Ok(())
        }
        assert!(matches!(fails(), Err(PmrError::Io { path: None, .. })));
    }

    #[test]
    fn len_u32_checks_range() {
        assert_eq!(len_u32(7, "plane length").ok(), Some(7));
        if usize::BITS > 32 {
            let big = u32::MAX as usize + 1;
            let e = len_u32(big, "plane length").unwrap_err();
            assert!(matches!(e, PmrError::Corrupt { .. }), "{e}");
            assert!(e.to_string().contains("plane length"), "{e}");
        }
    }

    #[test]
    fn source_chains_io() {
        use std::error::Error;
        let e = PmrError::from(io::Error::other("x"));
        assert!(e.source().is_some());
        let m = PmrError::invalid_config("threads must be >= 1");
        assert!(m.source().is_none());
    }
}
