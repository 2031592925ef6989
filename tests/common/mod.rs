//! Helpers shared by the integration tests.

use std::ops::Range;

/// Bytes of a `segments.pmrs` record before its payload: magic (`"PMRS1\0"`
/// for a segment, `"PMRT1\0"` for a tombstone), level, plane and payload
/// length as little-endian `u32`s, then the payload's FNV-1a 64.
pub const SEG_HEADER: usize = 26;

/// The segment records of a clean `segments.pmrs`, in log order, as
/// `((level, plane), byte span)`; found by walking the documented headers.
pub fn segment_records(log: &[u8]) -> Vec<((usize, u32), Range<usize>)> {
    let word = |at: usize| u32::from_le_bytes(log[at..at + 4].try_into().unwrap());
    let mut records = Vec::new();
    let mut at = 0;
    while at + SEG_HEADER <= log.len() {
        let end = at + SEG_HEADER + word(at + 14) as usize;
        if &log[at..at + 6] == b"PMRS1\0" {
            records.push(((word(at + 6) as usize, word(at + 10)), at..end));
        }
        at = end;
    }
    records
}
