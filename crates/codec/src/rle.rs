//! Escape-coded byte run-length encoding.
//!
//! Token format (control byte `c` followed by payload):
//!
//! * `c < 0x80`  — literal run: the next `c + 1` bytes are copied verbatim,
//! * `c >= 0x80` — repeat run: the next byte repeats `c - 0x80 + 3` times
//!   (run lengths 3..=130).
//!
//! Runs shorter than 3 are never worth a repeat token, so the encoder folds
//! them into literals; worst-case expansion is 1/128.

/// Encode `data` (empty input encodes to empty output).
pub fn encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 4 + 16);
    encode_into(data, &mut out, usize::MAX);
    out
}

/// The first index `p >= from` with `data[p] == data[p + 1] == data[p + 2]`,
/// or `data.len()` when no three equal bytes start at or after `from`.
///
/// Eight bytes are tested per step: with `w` the little-endian window at
/// `i`, byte `j` of `x = w ^ w >> 8` is `d[j] ^ d[j+1]` and byte `j` of
/// `y = x | x >> 8` is zero exactly when `d[j] == d[j+1] == d[j+2]`, for
/// `j` in `0..=5` (bytes 6 and 7 lack their neighbours, so the window
/// advances by 6). The zero-byte test `(y - 0x01..) & !y & 0x80..` can only
/// be wrong *above* a true zero byte (a borrow), so its lowest hit is exact.
fn next_triple(data: &[u8], from: usize) -> usize {
    const LOW6: u64 = 0x0000_FFFF_FFFF_FFFF;
    let mut i = from;
    while let Some(window) = data.get(i..i + 8) {
        let mut wb = [0u8; 8];
        wb.copy_from_slice(window);
        let w = u64::from_le_bytes(wb);
        let x = w ^ w >> 8;
        let y = (x | x >> 8) | !LOW6;
        let hit = y.wrapping_sub(0x0101_0101_0101_0101) & !y & 0x8080_8080_8080_8080;
        if hit != 0 {
            return i + (hit.trailing_zeros() / 8) as usize;
        }
        i += 6;
    }
    while i + 2 < data.len() {
        if data[i] == data[i + 1] && data[i] == data[i + 2] {
            return i;
        }
        i += 1;
    }
    data.len()
}

/// [`encode`], appended to `out` — given up (`false`, with `out` left
/// partial) once the appended stream would be longer than `max_len` bytes,
/// so a caller that only wants a stream shorter than its input never grows
/// the buffer past that.
///
/// The scanner does not step through bytes that cannot start a repeat
/// token: it jumps to the next index where three equal bytes begin
/// ([`next_triple`]) and only there measures a run. The token stream is the
/// byte-at-a-time greedy scanner's. That scanner advances by runs of 1 or
/// 2 until it stands on a run of 3 or more, and it cannot step over the
/// first triple start `p`: the only way past `p` is a 2-step from `p - 1`,
/// which needs `d[p-1] == d[p]` — and with `d[p] == d[p+1]` that makes
/// `p - 1` an earlier triple start. So it lands on `p` exactly, with
/// everything before `p` pending as literals, which is what happens here.
pub(crate) fn encode_into(data: &[u8], out: &mut Vec<u8>, max_len: usize) -> bool {
    let base = out.len();
    // Start index of a pending literal run not yet emitted.
    let mut lit_start = 0;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize| -> bool {
        let n = to - from;
        if out.len() - base + n + n.div_ceil(128) > max_len {
            return false;
        }
        let mut s = from;
        while s < to {
            let chunk = (to - s).min(128);
            // `chunk - 1 <= 127` by the min() above; the fallback is the
            // clamp value and is unreachable.
            out.push(u8::try_from(chunk - 1).unwrap_or(127));
            out.extend_from_slice(&data[s..s + chunk]);
            s += chunk;
        }
        true
    };

    loop {
        let i = next_triple(data, lit_start);
        if !flush_literals(out, lit_start, i) {
            return false;
        }
        if i == data.len() {
            return true;
        }
        if out.len() - base + 2 > max_len {
            return false;
        }
        // Measure the run starting at i (at least 3 by the search). Runs
        // cap at 130, so the scan extends by 16-byte block compares (a pair
        // of word compares after the optimizer is done) and finishes
        // byte-wise in the block that breaks the run — same run lengths as
        // the byte-at-a-time scan.
        let b = data[i];
        let rest = &data[i + 1..];
        let limit = rest.len().min(129);
        let pat = [b; 16];
        let mut ext = 2;
        while ext + 16 <= limit && rest[ext..ext + 16] == pat {
            ext += 16;
        }
        while ext < limit && rest[ext] == b {
            ext += 1;
        }
        let run = 1 + ext;
        // `3 <= run <= 130` by the search and the scan bound.
        out.push(0x80 + u8::try_from(run - 3).unwrap_or(127));
        out.push(b);
        lit_start = i + run;
    }
}

/// Decode a buffer produced by [`encode`]. Returns `None` on malformed input.
pub fn decode(encoded: &[u8]) -> Option<Vec<u8>> {
    decode_bounded(encoded, usize::MAX)
}

/// [`decode`] with an output-size ceiling.
///
/// Repeat tokens expand two encoded bytes into up to 130 decoded bytes, so a
/// few KB of attacker-controlled input can demand hundreds of KB — and a
/// forged length field upstream can turn that into an allocation bomb.
/// Parsers that feed untrusted bytes through this codec must pass the
/// exact size they expect; decoding stops with `None` the moment the output
/// would exceed `max_len`.
pub fn decode_bounded(encoded: &[u8], max_len: usize) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity((encoded.len() * 2).min(max_len));
    let mut i = 0;
    while i < encoded.len() {
        let c = encoded[i];
        i += 1;
        if c < 0x80 {
            let n = c as usize + 1;
            if i + n > encoded.len() || out.len() + n > max_len {
                return None;
            }
            out.extend_from_slice(&encoded[i..i + n]);
            i += n;
        } else {
            let n = (c - 0x80) as usize + 3;
            if i >= encoded.len() || out.len() + n > max_len {
                return None;
            }
            let b = encoded[i];
            i += 1;
            out.resize(out.len() + n, b);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_roundtrip() {
        assert!(encode(&[]).is_empty());
        assert_eq!(decode(&[]), Some(vec![]));
    }

    #[test]
    fn all_zeros_compress_well() {
        let data = vec![0u8; 10_000];
        let enc = encode(&data);
        assert!(enc.len() < 200, "encoded {} bytes", enc.len());
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn incompressible_data_bounded_expansion() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let enc = encode(&data);
        assert!(enc.len() <= data.len() + data.len() / 128 + 2);
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn mixed_runs_roundtrip() {
        let mut data = Vec::new();
        data.extend_from_slice(&[1, 2, 3]);
        data.extend(std::iter::repeat_n(7u8, 200));
        data.extend_from_slice(&[9, 9]); // short run folded into literals
        data.extend(std::iter::repeat_n(0u8, 3));
        let enc = encode(&data);
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn truncated_input_rejected() {
        let enc = encode(&[5u8; 50]);
        assert!(decode(&enc[..enc.len() - 1]).is_none());
        assert!(decode(&[0x85]).is_none()); // repeat token missing payload
        assert!(decode(&[0x05, 1, 2]).is_none()); // literal run missing bytes
    }

    #[test]
    fn bounded_decode_caps_expansion() {
        let data = vec![42u8; 10_000];
        let enc = encode(&data);
        assert_eq!(decode_bounded(&enc, 10_000).unwrap(), data);
        assert!(decode_bounded(&enc, 9_999).is_none());
        assert!(decode_bounded(&enc, 0).is_none());
        assert_eq!(decode_bounded(&[], 0), Some(vec![]));
    }

    #[test]
    fn long_literal_runs_split() {
        let data: Vec<u8> = (0..500u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }
}
