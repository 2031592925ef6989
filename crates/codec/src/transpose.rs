//! SIMD-transposed bit-plane extraction over 64-wide coefficient tiles.
//!
//! The bit-plane hot path used to touch every (coefficient, plane) pair
//! through a `BitWriter`/`BitReader` — one shift, mask, and bounds check
//! per *bit*. This module replaces that with a cache-blocked layout: 64
//! quantized digit words form a 64×64 bit matrix whose *rows* are
//! coefficients and whose *columns* are planes; one bitwise transpose turns
//! plane extraction into a plain word copy (the movemask trick generalised
//! to all 64 planes at once).
//!
//! # Bit conventions
//!
//! Everything here is MSB-first, matching [`crate::bitstream::BitWriter`]:
//!
//! * input `tile[i]` holds the negabinary digits of coefficient `i`; digit
//!   (plane shift) `s` is bit `s` of the word,
//! * output plane `k` (k = 0 the most significant of `num_planes`) carries
//!   coefficient `i` at bit `63 - i`, so `word.to_be_bytes()` *is* the
//!   packed plane byte layout (coefficient `i` at bit `7 - i % 8` of byte
//!   `i / 8`).
//!
//! With the transpose convention `bit(y[c], 63-r) = bit(x[r], 63-c)`, the
//! word for plane shift `s` lands at `y[63 - s]`, so the `num_planes = B`
//! plane words of a tile are the contiguous block `y[64-B .. 64]`.
//!
//! # Kernels
//!
//! Three implementations produce bit-identical results:
//!
//! * a portable u64-SWAR butterfly (Hacker's Delight §7-3 scaled to 64×64),
//! * an AVX2 path on x86_64, selected by runtime feature detection,
//! * a NEON path on aarch64 (baseline feature on that architecture).
//!
//! [`PlaneKernel`] is the user-facing knob: `Auto` picks the best detected
//! path, `Swar` forces the portable one, and `Scalar` is honoured a layer
//! *up*, in `pmr-mgard`, where it routes around the tiles entirely and onto
//! the legacy bit-at-a-time path kept as the differential oracle.

/// Coefficients per tile: one u64 lane per coefficient.
pub const TILE: usize = 64;

/// Which bit-plane codec implementation the hot path uses.
///
/// Every variant produces bit-identical artifacts; the knob exists for
/// differential testing and benchmarking, not output control.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PlaneKernel {
    /// Best detected path: AVX2 on x86_64, NEON on aarch64, SWAR otherwise.
    #[default]
    Auto,
    /// Force the portable u64-SWAR tile path.
    Swar,
    /// The legacy bit-at-a-time path (no tiles at all) — the differential
    /// oracle. Interpreted by `pmr-mgard`; at this layer it resolves to
    /// SWAR so transpose-level callers never panic on it.
    Scalar,
}

/// A resolved tile implementation: the dispatch decision hoisted out of the
/// per-tile loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileImpl {
    /// `core::arch` SIMD transpose (AVX2 or NEON).
    Simd,
    /// Portable u64-SWAR transpose.
    Swar,
}

/// The SIMD ISA the `Auto` kernel would use on this CPU, if any.
pub fn detected_isa() -> Option<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some("avx2");
        }
        None
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON is a baseline feature of every aarch64 Rust target.
        Some("neon")
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        None
    }
}

impl PlaneKernel {
    /// Whether this knob selects the legacy scalar (non-tiled) path.
    pub fn is_scalar(self) -> bool {
        matches!(self, PlaneKernel::Scalar)
    }

    /// Resolve to a tile implementation. `Scalar` resolves to [`TileImpl::Swar`]
    /// because the scalar oracle is honoured a layer up — see the module docs.
    pub fn tile_impl(self) -> TileImpl {
        match self {
            PlaneKernel::Auto => {
                if detected_isa().is_some() {
                    TileImpl::Simd
                } else {
                    TileImpl::Swar
                }
            }
            PlaneKernel::Swar | PlaneKernel::Scalar => TileImpl::Swar,
        }
    }

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            PlaneKernel::Auto => "auto",
            PlaneKernel::Swar => "swar",
            PlaneKernel::Scalar => "scalar",
        }
    }
}

/// Transpose the 64×64 bit matrix in place: `bit(y[c], 63-r) = bit(x[r], 63-c)`
/// (MSB-first row/column numbering). The operation is an involution.
pub fn transpose64(x: &mut [u64; TILE], imp: TileImpl) {
    match imp {
        TileImpl::Simd => transpose64_simd(x),
        TileImpl::Swar => transpose64_swar(x),
    }
}

#[cfg(target_arch = "x86_64")]
fn transpose64_simd(x: &mut [u64; TILE]) {
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the AVX2 feature requirement was just verified at runtime.
        unsafe { transpose64_avx2(x) }
    } else {
        transpose64_swar(x);
    }
}

#[cfg(target_arch = "aarch64")]
fn transpose64_simd(x: &mut [u64; TILE]) {
    // SAFETY: NEON is a baseline feature of every aarch64 Rust target.
    unsafe { transpose64_neon(x) }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn transpose64_simd(x: &mut [u64; TILE]) {
    transpose64_swar(x);
}

/// Portable butterfly transpose (Hacker's Delight §7-3 scaled to 64×64):
/// six stages swap `j×j` sub-blocks across the diagonal for
/// `j = 32, 16, …, 1`. Public so differential tests can pin the SIMD paths
/// against it directly.
pub fn transpose64_swar(x: &mut [u64; TILE]) {
    let mut j = 32usize;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0usize;
        while k < TILE {
            let t = (x[k] ^ (x[k + j] >> j)) & m;
            x[k] ^= t;
            x[k + j] ^= t << j;
            // Next index with bit `j` clear.
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// AVX2 butterfly: stages `j >= 4` pair four consecutive rows per 256-bit
/// vector; stages `j = 2, 1` stay in-register via lane permutes, computing
/// the exchange term `t` in the low lanes of each pair and re-applying it
/// to the high lanes with a per-lane variable shift.
///
/// # Safety
///
/// The caller must ensure the running CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
// SAFETY: contract fn — callers must verify AVX2 support (see # Safety above).
#[target_feature(enable = "avx2")]
unsafe fn transpose64_avx2(x: &mut [u64; TILE]) {
    use core::arch::x86_64::*;
    let p = x.as_mut_ptr();

    // Stages j = 32, 16, 8, 4: row pairs (k, k+j) with bit j of k clear;
    // those k come in runs of at least four, so four pairs go per vector.
    let mut j = 32usize;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j >= 4 {
        let mv = _mm256_set1_epi64x(m as i64);
        // lint:allow(lossy_cast): j <= 32 fits losslessly in i32
        let cnt = _mm_cvtsi32_si128(j as i32);
        let mut base = 0usize;
        while base < TILE {
            let mut k = base;
            while k < base + j {
                // SAFETY: k+3 < base+j <= 60 and k+j+3 <= 63, so both
                // 4-element loads/stores stay inside the 64-element array.
                unsafe {
                    let a = _mm256_loadu_si256(p.add(k).cast());
                    let b = _mm256_loadu_si256(p.add(k + j).cast());
                    let t = _mm256_and_si256(_mm256_xor_si256(a, _mm256_srl_epi64(b, cnt)), mv);
                    _mm256_storeu_si256(p.add(k).cast(), _mm256_xor_si256(a, t));
                    _mm256_storeu_si256(
                        p.add(k + j).cast(),
                        _mm256_xor_si256(b, _mm256_sll_epi64(t, cnt)),
                    );
                }
                k += 4;
            }
            base += 2 * j;
        }
        j >>= 1;
        m ^= m << j;
    }

    // Stage j = 2: within [r0 r1 r2 r3] the pairs are (r0,r2) and (r1,r3).
    // Partner vector [r2 r3 r0 r1]; t is valid in lanes 0-1 and re-applied
    // shifted to lanes 2-3.
    {
        let mv = _mm256_set1_epi64x(0x3333_3333_3333_3333_u64 as i64);
        let sh = _mm256_set_epi64x(2, 2, 0, 0);
        let mut k = 0usize;
        while k < TILE {
            // SAFETY: k <= 60, so the 4-element load/store is in bounds.
            unsafe {
                let a = _mm256_loadu_si256(p.add(k).cast());
                let sw = _mm256_permute4x64_epi64::<0x4E>(a);
                let tv = _mm256_and_si256(_mm256_xor_si256(a, _mm256_srli_epi64::<2>(sw)), mv);
                let tb = _mm256_permute4x64_epi64::<0x44>(tv);
                _mm256_storeu_si256(
                    p.add(k).cast(),
                    _mm256_xor_si256(a, _mm256_sllv_epi64(tb, sh)),
                );
            }
            k += 4;
        }
    }

    // Stage j = 1: pairs (r0,r1) and (r2,r3); partner [r1 r0 r3 r2], t valid
    // in even lanes, re-applied shifted-by-one to odd lanes.
    {
        let mv = _mm256_set1_epi64x(0x5555_5555_5555_5555_u64 as i64);
        let sh = _mm256_set_epi64x(1, 0, 1, 0);
        let mut k = 0usize;
        while k < TILE {
            // SAFETY: k <= 60, so the 4-element load/store is in bounds.
            unsafe {
                let a = _mm256_loadu_si256(p.add(k).cast());
                let sw = _mm256_permute4x64_epi64::<0xB1>(a);
                let tv = _mm256_and_si256(_mm256_xor_si256(a, _mm256_srli_epi64::<1>(sw)), mv);
                let tb = _mm256_permute4x64_epi64::<0xA0>(tv);
                _mm256_storeu_si256(
                    p.add(k).cast(),
                    _mm256_xor_si256(a, _mm256_sllv_epi64(tb, sh)),
                );
            }
            k += 4;
        }
    }
}

/// NEON butterfly: stages `j >= 2` pair two consecutive rows per 128-bit
/// vector (right shifts via `vshlq` with a negative count); the `j = 1`
/// stage runs scalar — two rows per exchange leave nothing to vectorize
/// across lanes.
///
/// # Safety
///
/// The caller must ensure the running CPU supports NEON (baseline on
/// aarch64 targets).
#[cfg(target_arch = "aarch64")]
// SAFETY: contract fn — NEON is baseline on aarch64 (see # Safety above).
#[target_feature(enable = "neon")]
unsafe fn transpose64_neon(x: &mut [u64; TILE]) {
    use core::arch::aarch64::*;
    let p = x.as_mut_ptr();
    let mut j = 32usize;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j >= 2 {
        let mv = vdupq_n_u64(m);
        let right = vdupq_n_s64(-(j as i64));
        let left = vdupq_n_s64(j as i64);
        let mut base = 0usize;
        while base < TILE {
            let mut k = base;
            while k < base + j {
                // SAFETY: k+1 < base+j <= 62 and k+j+1 <= 63, so both
                // 2-element loads/stores stay inside the 64-element array.
                unsafe {
                    let a = vld1q_u64(p.add(k));
                    let b = vld1q_u64(p.add(k + j));
                    let t = vandq_u64(veorq_u64(a, vshlq_u64(b, right)), mv);
                    vst1q_u64(p.add(k), veorq_u64(a, t));
                    vst1q_u64(p.add(k + j), veorq_u64(b, vshlq_u64(t, left)));
                }
                k += 2;
            }
            base += 2 * j;
        }
        j >>= 1;
        m ^= m << j;
    }
    let m = 0x5555_5555_5555_5555_u64;
    let mut k = 0usize;
    while k < TILE {
        let t = (x[k] ^ (x[k + 1] >> 1)) & m;
        x[k] ^= t;
        x[k + 1] ^= t << 1;
        k += 2;
    }
}

/// Extract the `num_planes` most significant bit-planes of one digit tile.
///
/// Writes plane `k` (MSB-first) to `out[k]`; coefficient `i` sits at bit
/// `63 - i`, so `out[k].to_be_bytes()` is the packed plane byte layout.
/// Ragged tiles are handled by zero-padding `tile` past the live
/// coefficients, which yields the same zero fill bits `BitWriter` pads with.
///
/// Caller invariants (asserted): `1 <= num_planes <= 64`,
/// `out.len() >= num_planes`.
pub fn extract_planes(tile: &[u64; TILE], num_planes: usize, out: &mut [u64], imp: TileImpl) {
    assert!((1..=TILE).contains(&num_planes) && out.len() >= num_planes);
    let mut y = *tile;
    transpose64(&mut y, imp);
    out[..num_planes].copy_from_slice(&y[TILE - num_planes..]);
}

/// Inverse of [`extract_planes`]: rebuild a digit tile from the first
/// `words.len()` plane words of a `num_planes`-plane encoding. A strict
/// prefix reproduces progressive truncation — the missing low planes decode
/// as zero digits, exactly as the bit-at-a-time path leaves them.
///
/// Caller invariants (asserted): `1 <= num_planes <= 64`,
/// `words.len() <= num_planes`.
pub fn reassemble_digits(words: &[u64], num_planes: usize, imp: TileImpl) -> [u64; TILE] {
    assert!((1..=TILE).contains(&num_planes) && words.len() <= num_planes);
    let mut y = [0u64; TILE];
    y[TILE - num_planes..TILE - num_planes + words.len()].copy_from_slice(words);
    transpose64(&mut y, imp);
    y
}

#[cfg(test)]
mod tests {
    use super::*;

    /// O(64²) bit-loop reference with the documented convention.
    fn transpose64_ref(x: &[u64; TILE]) -> [u64; TILE] {
        let mut y = [0u64; TILE];
        for (r, &row) in x.iter().enumerate() {
            for (c, col) in y.iter_mut().enumerate() {
                if row >> (63 - c) & 1 == 1 {
                    *col |= 1 << (63 - r);
                }
            }
        }
        y
    }

    fn adversarial_tiles() -> Vec<[u64; TILE]> {
        let mut tiles = vec![[0u64; TILE], [u64::MAX; TILE]];
        let mut alt = [0u64; TILE];
        for (i, w) in alt.iter_mut().enumerate() {
            *w = if i % 2 == 0 { 0xAAAA_AAAA_AAAA_AAAA } else { 0x5555_5555_5555_5555 };
        }
        tiles.push(alt);
        let mut unit = [0u64; TILE];
        unit[17] = 1 << 42;
        tiles.push(unit);
        let mut diag = [0u64; TILE];
        for (i, w) in diag.iter_mut().enumerate() {
            *w = 1 << (63 - i);
        }
        tiles.push(diag);
        let mut rng = pmr_rng::Rng::seed_from_u64(1);
        tiles.extend((0..32).map(|_| [(); TILE].map(|()| rng.next_u64())));
        tiles
    }

    #[test]
    fn swar_matches_reference() {
        for tile in adversarial_tiles() {
            let mut got = tile;
            transpose64_swar(&mut got);
            assert_eq!(got, transpose64_ref(&tile));
        }
    }

    #[test]
    fn simd_matches_reference() {
        for tile in adversarial_tiles() {
            let mut got = tile;
            transpose64(&mut got, TileImpl::Simd);
            assert_eq!(got, transpose64_ref(&tile));
        }
    }

    #[test]
    fn transpose_is_involution() {
        for imp in [TileImpl::Simd, TileImpl::Swar] {
            for tile in adversarial_tiles() {
                let mut got = tile;
                transpose64(&mut got, imp);
                transpose64(&mut got, imp);
                assert_eq!(got, tile, "{imp:?}");
            }
        }
    }

    #[test]
    fn diagonal_is_fixed_point() {
        let mut diag = [0u64; TILE];
        for (i, w) in diag.iter_mut().enumerate() {
            *w = 1 << (63 - i);
        }
        let mut got = diag;
        transpose64_swar(&mut got);
        assert_eq!(got, diag);
    }

    #[test]
    fn plane_word_matches_bitwriter_layout() {
        // Plane k of the extraction must match the BitWriter-packed bytes of
        // the same plane bits, for a ragged (non-multiple-of-64) count.
        use crate::bitstream::BitWriter;
        let b = 12usize;
        let count = 41usize;
        let mut tile = [0u64; TILE];
        let mut rng = pmr_rng::Rng::seed_from_u64(0xDEAD_BEEF);
        for d in tile.iter_mut().take(count) {
            *d = rng.range(0..1u64 << b);
        }
        let mut words = vec![0u64; b];
        extract_planes(&tile, b, &mut words, TileImpl::Swar);
        for (k, &word) in words.iter().enumerate() {
            let shift = b - 1 - k;
            let mut w = BitWriter::with_capacity(count);
            for d in tile.iter().take(count) {
                w.push(d >> shift & 1 == 1);
            }
            let packed = w.into_bytes();
            assert_eq!(&word.to_be_bytes()[..packed.len()], &packed[..], "plane {k}");
        }
    }
}
