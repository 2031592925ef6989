//! Negabinary bit-plane encoding of one coefficient level, with the
//! collected error matrix row.
//!
//! Coefficients are scaled by the level's max magnitude into fixed-point
//! integers with `B - 2` fractional bits (so every quantized value fits in
//! `B` negabinary digits), then sliced into `B` planes, most significant
//! first. Each plane is bit-packed and run through the lossless stage;
//! the compressed sizes are the `S[l][k]` of the paper's Equation 1.
//!
//! While encoding we also *collect* (not model) the error row
//! `Err[b] = max_i |c_i − decode_b(c_i)|` for `b = 0..=B` — the per-level
//! error matrix that both the theory estimator and E-MGARD consume.
//!
//! # Kernels
//!
//! The encode/decode hot path runs through the cache-blocked transpose
//! kernels of [`pmr_codec::transpose`]: 64 quantized digits form a tile
//! whose bitwise transpose yields all plane words at once, so the per-bit
//! `BitWriter`/`BitReader` traffic collapses into whole-word copies and the
//! prefix-reconstruction error loop becomes branchless and vectorizable.
//! [`ExecPolicy::kernel`] selects the implementation; every kernel is
//! bit-identical by construction, and [`PlaneKernel::Scalar`] keeps the
//! original bit-at-a-time path alive as the differential oracle (it ignores
//! `threads` for this stage — the oracle is defined serially).

use crate::checksum::fnv1a64_lockstep;
use crate::decompose::{Placer, Run};
use crate::encode_kernel::{self, Chunk, LaneRows, LANES, MAX_PLANES};
use crate::exec::{run_jobs, ExecPolicy};
use pmr_codec::{
    bitstream::{BitReader, BitWriter},
    lossless, negabinary, transpose, TileImpl,
};
use pmr_error::{len_u32, ByteReader, PmrError};
use std::borrow::Cow;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::Arc;

/// Default number of bit-planes per coefficient level (the paper's `B`).
pub const DEFAULT_BITPLANES: u32 = 32;

/// A grid slot the level decoder writes one coefficient into: an `f64` of
/// an initialised array, or a `MaybeUninit<f64>` of the grid
/// `Compressed::reconstruct` fills without zeroing it first.
pub(crate) trait Slot: Copy + Send {
    /// The slot holding `v`.
    fn of(v: f64) -> Self;
}

impl Slot for f64 {
    #[inline(always)]
    fn of(v: f64) -> Self {
        v
    }
}

impl Slot for MaybeUninit<f64> {
    #[inline(always)]
    fn of(v: f64) -> Self {
        MaybeUninit::new(v)
    }
}

/// One coefficient level, encoded as progressive bit-planes.
#[derive(Debug, Clone)]
pub struct LevelEncoding {
    /// Number of coefficients in the level.
    count: usize,
    /// Total number of planes `B`.
    num_planes: u32,
    /// Quantization step: `coefficient ≈ q * step`.
    step: f64,
    /// Losslessly compressed plane payloads, plane 0 = most significant.
    /// Shared, not copied, by `clone`: a server's manifest and the
    /// artifact it was cloned from hold one set of payload bytes.
    planes: Arc<Vec<Vec<u8>>>,
    /// `fnv1a64` of each payload, computed once where its bytes are made
    /// (`encode`) or first walked (`read_from`); `planes` never changes
    /// afterwards, so the two cannot drift.
    checksums: Vec<u64>,
    /// Collected error row: `error_row[b]` is the exact max absolute
    /// coefficient error when only the first `b` planes are used
    /// (length `B + 1`; `error_row[0]` = max |c|).
    error_row: Vec<f64>,
}

/// Fixed-point quantization of one coefficient against the level step.
///
/// The saturating float→int `as` cast *is* the crate's non-finite policy
/// (see the degenerate-level branch in [`LevelEncoding::encode`]): a NaN
/// coefficient quantizes to 0, ±inf never reaches here because the caller
/// collapses the level first.
#[inline(always)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "round-then-saturate is the documented NaN/inf quantization policy"
)]
pub(crate) fn quantize(c: f64, step: f64) -> i64 {
    (c / step).round() as i64
}

/// `v as f64` for `|v| < 2^51`, in integer adds and one float subtract
/// that vectorize (x86 has no packed `i64 → f64` below AVX-512): with `M =
/// 2^52 + 2^51`, the bits of `M` plus `v` are the double `M + v`, exact in
/// `[2^52, 2^53)` where doubles are the integers, and `(M + v) − M` is `v`
/// exactly, `+0.0` for 0. A level's digits have at most
/// `encode_kernel::MAX_PLANES` = 50 negabinary places, whose values lie
/// within `±2^50`.
#[inline(always)]
fn exact_f64(v: i64) -> f64 {
    const M: f64 = 6_755_399_441_055_744.0;
    debug_assert!(v.unsigned_abs() < 1 << 51);
    f64::from_bits(M.to_bits().wrapping_add_signed(v)) - M
}

#[cfg(test)]
thread_local! {
    /// Tiles `LevelEncoding::place_tiles` has transposed on this thread.
    pub(crate) static TILES_TRANSPOSED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl LevelEncoding {
    /// Encode `coeffs` into `num_planes` bit-planes (`3 <= num_planes <= 50`).
    pub fn encode(coeffs: &[f64], num_planes: u32) -> Self {
        Self::encode_with(coeffs, num_planes, &ExecPolicy::serial())
    }

    /// [`LevelEncoding::encode`] under an explicit execution policy: the
    /// level encoder over `coeffs` as one dense run. After
    /// [`crate::Decomposer::interleave`] it is the staged oracle of the
    /// in-grid encode compression runs, as `decode_with` is of the placed
    /// decode.
    pub fn encode_with(coeffs: &[f64], num_planes: u32, exec: &ExecPolicy) -> Self {
        Self::encode_placed(coeffs, &[Run::dense(coeffs.len())], num_planes, exec)
    }

    /// The level encoder — every compression ends here. Coefficient `i` is
    /// read from the `i`-th position of `runs` in `grid`, so a decomposed
    /// grid is encoded where it lies, level by level, with no per-level
    /// copy.
    ///
    /// There is one tiled encoder; the policy only decides how many workers
    /// share it. The coefficients split into tile-aligned chunks (multiples
    /// of 64, so no tile straddles a worker and every non-final chunk packs
    /// to whole plane bytes), each read through its own cursor skipped to
    /// the chunk's first coefficient; each worker writes its own byte range
    /// of the final packed planes and raises its own lane maxima, which fold
    /// into the error row in any order (`encode_kernel`) — bit-identical to
    /// the serial scan, which is the same code with one chunk. The lossless
    /// pass parallelizes across planes, which are independent; each worker
    /// then takes its share's checksums with `fnv1a64_lockstep`.
    ///
    /// [`PlaneKernel::Scalar`] gathers the level into an array and runs the
    /// original bit-at-a-time encoder on it (the differential oracle), which
    /// is defined serially and ignores `threads` for this stage.
    pub(crate) fn encode_placed(
        grid: &[f64],
        runs: &[Run],
        num_planes: u32,
        exec: &ExecPolicy,
    ) -> Self {
        assert!((3..=50).contains(&num_planes), "num_planes out of range");
        let b = num_planes;
        let count: usize = runs.iter().map(|r| r.count).sum();
        let max_abs = encode_kernel::max_abs(grid, runs);

        if max_abs == 0.0 || !max_abs.is_finite() {
            // Degenerate level: everything quantizes to zero. Planes are
            // all-zero bitstreams (nearly free after RLE).
            //
            // This branch is half of the crate's non-finite policy. The
            // maximum above *ignores NaN*, so:
            //
            // * a level containing ±inf has `max_abs = inf` and lands here:
            //   no finite step covers it, the whole level collapses to
            //   zeros with `step = 0` and a zero error row;
            // * a NaN coefficient among otherwise finite values does NOT
            //   land here — it falls through to quantization, where
            //   `(NaN / step).round() as i64` saturates to 0, so that one
            //   site decodes as exactly 0.0 and its (NaN) truncation error
            //   is excluded from the collected error row (`NaN > x` is
            //   false, so the max-fold below never records it).
            //
            // Either way the artifact stays structurally valid and no
            // non-finite value ever reaches the error matrix or the greedy
            // planner; achieved-error guarantees apply to the finite sites
            // only. Callers that must preserve non-finite payloads mask
            // them out before compression; the conformance harness pins
            // this contract with NaN/inf-laced fields.
            let empty_plane = lossless::compress(&vec![0u8; count.div_ceil(8)]);
            return Self::assemble(
                count,
                b,
                0.0,
                vec![empty_plane; b as usize],
                vec![0.0; b as usize + 1],
            );
        }

        // Fixed-point scale: |q| <= 2^(B-2) fits in B negabinary digits.
        let step = max_abs / (1u64 << (b - 2)) as f64;
        let step = if step > 0.0 { step } else { f64::MIN_POSITIVE };

        if exec.kernel.is_scalar() {
            let mut coeffs = vec![0.0; count];
            Placer::new(runs, 0).get(grid, &mut coeffs);
            return Self::encode_scalar(&coeffs, b, step);
        }
        Self::encode_tiled(grid, runs, count, b, step, max_abs, exec)
    }

    /// An encoding of `planes` as given, hashing each once.
    fn assemble(
        count: usize,
        num_planes: u32,
        step: f64,
        planes: Vec<Vec<u8>>,
        error_row: Vec<f64>,
    ) -> Self {
        let checksums = fnv1a64_lockstep(&planes);
        let planes = Arc::new(planes);
        LevelEncoding { count, num_planes, step, planes, checksums, error_row }
    }

    /// The original bit-at-a-time encoder, kept verbatim as the
    /// differential oracle behind [`PlaneKernel::Scalar`].
    fn encode_scalar(coeffs: &[f64], b: u32, step: f64) -> Self {
        let mut digits: Vec<u64> = Vec::with_capacity(coeffs.len());
        let mut error_row = vec![0.0f64; b as usize + 1];
        // Weights (-2)^(B-1-k) for incremental reconstruction.
        let weights: Vec<i64> = (0..b).map(|k| (-2_i64).pow(b - 1 - k)).collect();

        for &c in coeffs {
            let q = quantize(c, step);
            let nb = negabinary::to_negabinary(q);
            digits.push(nb);
            // Collect the exact truncation error for every prefix length.
            // `(0..b).rev()` walks the shifts `b-1-k` without any
            // usize→u32 narrowing on the plane index.
            error_row[0] = error_row[0].max(c.abs());
            let mut val: i64 = 0;
            for ((shift, &w), worst) in
                (0..b).rev().zip(weights.iter()).zip(error_row[1..].iter_mut())
            {
                if nb >> shift & 1 == 1 {
                    val += w;
                }
                let err = (c - val as f64 * step).abs();
                if err > *worst {
                    *worst = err;
                }
            }
        }

        let mut planes = Vec::with_capacity(b as usize);
        for k in 0..b {
            let shift = b - 1 - k;
            let mut w = BitWriter::with_capacity(digits.len());
            for &nb in &digits {
                w.push(nb >> shift & 1 == 1);
            }
            planes.push(lossless::compress(&w.into_bytes()));
        }

        Self::assemble(coeffs.len(), b, step, planes, error_row)
    }

    /// The tiled encoder over the `count` coefficients at `runs` in `grid`;
    /// see [`LevelEncoding::encode_placed`] for the bit-identity argument.
    fn encode_tiled(
        grid: &[f64],
        runs: &[Run],
        count: usize,
        b: u32,
        step: f64,
        max_abs: f64,
        exec: &ExecPolicy,
    ) -> Self {
        let threads = exec.resolved_threads();
        let threads = if count < 2 * threads { 1 } else { threads };
        let imp = exec.kernel.tile_impl();
        let bu = b as usize;
        let weights: Vec<f64> = (0..b).map(|k| (-2_i64).pow(b - 1 - k) as f64).collect();
        // Tile-aligned chunks: no tile straddles a worker, and every
        // non-final chunk packs to a whole number of plane bytes.
        let csize = count.div_ceil(threads).max(1).div_ceil(transpose::TILE) * transpose::TILE;
        let chunks = (0..count).step_by(csize).map(|lo| {
            let mut cursor = Placer::new(runs, 0);
            cursor.skip(lo);
            Chunk { grid, cursor, count: csize.min(count - lo) }
        });
        let nchunks = count.div_ceil(csize);
        let mut packed: Vec<Vec<u8>> = vec![vec![0u8; count.div_ceil(8)]; bu];
        // ranges[w][k]: worker w's bytes of plane k.
        let mut ranges: Vec<Vec<&mut [u8]>> =
            (0..nchunks).map(|_| Vec::with_capacity(bu)).collect();
        for plane in &mut packed {
            for (mine, part) in ranges.iter_mut().zip(plane.chunks_mut(csize / 8)) {
                mine.push(part);
            }
        }
        let mut lanes: Vec<LaneRows> = vec![[[0.0; LANES]; MAX_PLANES]; nchunks];
        run_jobs(chunks.zip(ranges).zip(lanes.iter_mut()), |((chunk, mut mine), lanes)| {
            encode_kernel::encode_chunk(chunk, step, &weights, imp, &mut mine, lanes);
        });
        let mut error_row = vec![max_abs; bu + 1];
        encode_kernel::fold_lanes(&lanes, &mut error_row);

        // Compress each plane, dropping its packed form on the way, then
        // hash the worker's share in lockstep; planes are independent, so
        // workers take them whole.
        let mut planes: Vec<Vec<u8>> = vec![Vec::new(); bu];
        let mut checksums = vec![0u64; bu];
        let pchunk = bu.div_ceil(threads);
        let shares = packed.chunks_mut(pchunk).zip(planes.chunks_mut(pchunk));
        run_jobs(shares.zip(checksums.chunks_mut(pchunk)), |((packed, planes), sums)| {
            for (raw, plane) in packed.iter_mut().zip(planes.iter_mut()) {
                *plane = lossless::compress(&std::mem::take(raw));
            }
            sums.copy_from_slice(&fnv1a64_lockstep(planes));
        });
        let planes = Arc::new(planes);
        LevelEncoding { count, num_planes: b, step, planes, checksums, error_row }
    }

    /// Number of coefficients.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Total number of planes `B`.
    pub fn num_planes(&self) -> u32 {
        self.num_planes
    }

    /// Compressed byte size of plane `k` (`S[l][k]`).
    pub fn plane_size(&self, k: u32) -> u64 {
        self.planes[k as usize].len() as u64
    }

    /// Compressed byte size of the first `b` planes.
    pub fn size_of_first(&self, b: u32) -> u64 {
        self.planes[..b.min(self.num_planes) as usize].iter().map(|p| p.len() as u64).sum()
    }

    /// Total compressed size of all planes.
    pub fn total_size(&self) -> u64 {
        self.size_of_first(self.num_planes)
    }

    /// The collected error row `Err[0..=B]`.
    pub fn error_row(&self) -> &[f64] {
        &self.error_row
    }

    /// The compressed payload of plane `k` — the unit of segment storage:
    /// fault-tolerant readers fetch exactly these byte strings (keyed by
    /// `(level, plane)`) from a [`pmr-storage`] segment store.
    pub fn plane_payload(&self, k: u32) -> &[u8] {
        &self.planes[k as usize]
    }

    /// `fnv1a64` of [`LevelEncoding::plane_payload`]`(k)`, taken when the
    /// payload was produced or loaded — what persistence writes into the
    /// checksum table and what a fetched copy of the plane must hash to.
    pub fn plane_checksum(&self, k: u32) -> u64 {
        self.checksums[k as usize]
    }

    /// Decode the level from *externally fetched* plane payloads instead of
    /// the payloads held by this encoding, serially with the auto-detected
    /// kernel. `payloads[k]` must be the byte string of plane `k`; the
    /// prefix may be shorter than `B` (progressive truncation keeps any
    /// prefix valid) but never longer.
    pub fn decode_from_payloads<P: AsRef<[u8]> + Sync>(
        &self,
        payloads: &[P],
    ) -> Result<Vec<f64>, PmrError> {
        self.decode_from_payloads_with(payloads, &ExecPolicy::serial())
    }

    /// The level decoder on its own (`LevelEncoding::decode_placed`) into
    /// a fresh array, the level's coefficients in order. This dense
    /// placement is the staged form of retrieval (decode every level, then
    /// [`crate::Decomposer::deinterleave`]) and stays the differential
    /// oracle of the placed one.
    pub fn decode_from_payloads_with<P: AsRef<[u8]> + Sync>(
        &self,
        payloads: &[P],
        exec: &ExecPolicy,
    ) -> Result<Vec<f64>, PmrError> {
        let mut out = vec![0.0; self.count];
        self.decode_placed(payloads, &[Run::dense(self.count)], &mut out, exec)?;
        Ok(out)
    }

    /// The level decoder — every retrieval path ends here, whether the
    /// planes are this encoding's own ([`LevelEncoding::decode_with`]) or
    /// crossed a storage tier or a socket. Coefficient `i` goes to the
    /// `i`-th position of `runs` in `grid`. On `Ok`, every one of those
    /// positions has been written, whatever it held before (the grid
    /// `Compressed::reconstruct` fills is never zeroed); no other position
    /// is touched.
    ///
    /// Every payload is validated (bounded decompression to exactly one bit
    /// per coefficient), so a mangled segment comes back as
    /// [`PmrError::Malformed`] instead of a panic or an oversized
    /// allocation; raw planes are read where they lie. A level with no
    /// planes to decode, or a degenerate (`step == 0`) one, decodes to
    /// `+0.0` everywhere, written like any all-zero tile. Under a parallel
    /// policy planes decompress independently, then tile-aligned coefficient ranges
    /// assemble their digits through the transpose kernels — each
    /// coefficient is produced by exactly one worker, so the output matches
    /// serial decoding bit for bit. [`PlaneKernel::Scalar`] routes the
    /// assembly to the original bit-at-a-time loop (the differential
    /// oracle, serial by definition).
    pub(crate) fn decode_placed<P: AsRef<[u8]> + Sync, T: Slot>(
        &self,
        payloads: &[P],
        runs: &[Run],
        grid: &mut [T],
        exec: &ExecPolicy,
    ) -> Result<(), PmrError> {
        if payloads.len() > self.num_planes as usize {
            return Err(PmrError::malformed(
                "plane segment",
                format!("{} payloads for a {}-plane level", payloads.len(), self.num_planes),
            ));
        }
        let payloads = if self.step == 0.0 { &payloads[..0] } else { payloads };
        let scalar = exec.kernel.is_scalar();
        let threads = if scalar { 1 } else { exec.resolved_threads() };
        let threads = if self.count < 2 * threads { 1 } else { threads };
        let expected = self.count.div_ceil(8);

        let mut slots: Vec<Option<Cow<'_, [u8]>>> = vec![None; payloads.len()];
        let pchunk = payloads.len().div_ceil(threads).max(1);
        run_jobs(slots.chunks_mut(pchunk).zip(payloads.chunks(pchunk)), |(slots, payloads)| {
            for (slot, p) in slots.iter_mut().zip(payloads) {
                *slot = lossless::decompress_bounded(p.as_ref(), expected)
                    .filter(|bytes| bytes.len() == expected);
            }
        });
        let plane_bytes: Vec<Cow<'_, [u8]>> = slots
            .into_iter()
            .enumerate()
            .map(|(k, bytes)| {
                bytes.ok_or_else(|| {
                    PmrError::malformed(
                        "plane segment",
                        format!("plane {k} does not decompress to {expected} packed bytes"),
                    )
                })
            })
            .collect::<Result<_, _>>()?;

        if scalar {
            let mut digits = vec![0u64; self.count];
            for (bytes, shift) in plane_bytes.iter().zip((0..self.num_planes).rev()) {
                let mut r = BitReader::new(bytes);
                for nb in digits.iter_mut() {
                    if r.next_bit() == Some(true) {
                        *nb |= 1u64 << shift;
                    }
                }
            }
            let values: Vec<T> = digits
                .into_iter()
                .map(|nb| T::of(negabinary::from_negabinary(nb) as f64 * self.step))
                .collect();
            Placer::new(runs, 0).put(grid, &values);
            return Ok(());
        }

        let csize = self.count.div_ceil(threads).max(1).div_ceil(transpose::TILE) * transpose::TILE;
        let imp = exec.kernel.tile_impl();
        run_jobs(Placer::split(runs, grid, self.count, csize), |job| {
            let (coeffs, mut placer, out) = job;
            self.place_tiles(&plane_bytes, coeffs, &mut placer, out, imp);
        });
        Ok(())
    }

    /// Rebuild the coefficients `coeffs` (starting tile-aligned) from
    /// unpacked plane bytes (a prefix of the planes is fine — missing low
    /// planes decode as zero digits) and hand them to `placer`, whose grid
    /// slice is `out`. A tile whose plane words are all zero decodes to
    /// `+0.0` everywhere: it is written as such without a transpose.
    ///
    /// Compiled twice, like `encode_kernel::encode_chunk`: at the target's
    /// baseline and, on x86_64, under AVX2, entered when `imp` is
    /// [`TileImpl::Simd`] and the runtime probe finds AVX2.
    fn place_tiles<T: Slot>(
        &self,
        plane_bytes: &[Cow<'_, [u8]>],
        coeffs: Range<usize>,
        placer: &mut Placer<'_>,
        out: &mut [T],
        imp: TileImpl,
    ) {
        #[cfg(target_arch = "x86_64")]
        if imp == TileImpl::Simd && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the AVX2 feature requirement was just verified at runtime.
            return unsafe { self.place_tiles_avx2(plane_bytes, coeffs, placer, out, imp) };
        }
        self.place_tiles_body(plane_bytes, coeffs, placer, out, imp);
    }

    /// [`LevelEncoding::place_tiles_body`] compiled with AVX2 available to
    /// the optimizer.
    ///
    /// # Safety
    ///
    /// The caller must ensure the running CPU supports AVX2.
    #[cfg(target_arch = "x86_64")]
    // SAFETY: contract fn — callers must verify AVX2 support (see # Safety above).
    #[target_feature(enable = "avx2")]
    unsafe fn place_tiles_avx2<T: Slot>(
        &self,
        plane_bytes: &[Cow<'_, [u8]>],
        coeffs: Range<usize>,
        placer: &mut Placer<'_>,
        out: &mut [T],
        imp: TileImpl,
    ) {
        self.place_tiles_body(plane_bytes, coeffs, placer, out, imp);
    }

    /// The loop behind [`LevelEncoding::place_tiles`].
    #[inline(always)]
    fn place_tiles_body<T: Slot>(
        &self,
        plane_bytes: &[Cow<'_, [u8]>],
        coeffs: Range<usize>,
        placer: &mut Placer<'_>,
        out: &mut [T],
        imp: TileImpl,
    ) {
        debug_assert_eq!(coeffs.start % transpose::TILE, 0);
        let bu = self.num_planes as usize;
        let expected = self.count.div_ceil(8);
        let mut values = [T::of(0.0); transpose::TILE];
        for lo in coeffs.clone().step_by(transpose::TILE) {
            let n = (coeffs.end - lo).min(transpose::TILE);
            let base = lo / 8;
            let mut y = [0u64; transpose::TILE];
            let lanes = y[transpose::TILE - bu..].iter_mut().zip(plane_bytes);
            if base + 8 <= expected {
                // Every tile but a level's last: one 8-byte load per plane.
                for (yk, pb) in lanes {
                    *yk = pb[base..].first_chunk().map_or(0, |w| u64::from_be_bytes(*w));
                }
            } else {
                let nbytes = expected - base;
                for (yk, pb) in lanes {
                    let mut wb = [0u8; 8];
                    wb[..nbytes].copy_from_slice(&pb[base..expected]);
                    *yk = u64::from_be_bytes(wb);
                }
            }
            let any = y[transpose::TILE - bu..].iter().fold(0, |any, &yk| any | yk);
            if any == 0 {
                placer.fill(out, n, T::of(0.0));
                continue;
            }
            #[cfg(test)]
            TILES_TRANSPOSED.with(|t| t.set(t.get() + 1));
            transpose::transpose64(&mut y, imp);
            for (slot, &d) in values.iter_mut().zip(&y[..n]) {
                *slot = T::of(exact_f64(negabinary::from_negabinary(d)) * self.step);
            }
            placer.put(out, &values[..n]);
        }
    }

    /// Encode as a self-contained byte buffer (used by the artifact
    /// persistence of this crate and by other codecs building on the
    /// bit-plane machinery).
    ///
    /// Fails with [`PmrError::Corrupt`] if a plane payload has outgrown the
    /// `u32` length field of the wire format — wrapping the length would
    /// write an artifact that deserializes to the wrong bytes.
    pub fn to_bytes(&self) -> Result<Vec<u8>, PmrError> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.write_to(&mut out)?;
        Ok(out)
    }

    /// Exactly the number of bytes [`LevelEncoding::write_to`] appends.
    pub(crate) fn encoded_len(&self) -> usize {
        let header = 8 + 4 + 8 + 8 * self.error_row.len();
        header + self.planes.iter().map(|p| 4 + p.len()).sum::<usize>()
    }

    /// [`LevelEncoding::to_bytes`], appended to `out`.
    pub(crate) fn write_to(&self, out: &mut Vec<u8>) -> Result<(), PmrError> {
        out.extend_from_slice(&(self.count as u64).to_le_bytes());
        out.extend_from_slice(&self.num_planes.to_le_bytes());
        out.extend_from_slice(&self.step.to_le_bytes());
        for &e in &self.error_row {
            out.extend_from_slice(&e.to_le_bytes());
        }
        for p in self.planes.iter() {
            out.extend_from_slice(&len_u32(p.len(), "plane payload length")?.to_le_bytes());
            out.extend_from_slice(p);
        }
        Ok(())
    }

    /// Inverse of [`LevelEncoding::to_bytes`]: parses and validates,
    /// returning the encoding and the number of bytes consumed.
    pub fn from_bytes(buf: &[u8]) -> Result<(Self, usize), PmrError> {
        let mut r = ByteReader::new(buf, "level encoding");
        let enc = Self::read_from(&mut r)?;
        Ok((enc, r.pos()))
    }

    /// [`LevelEncoding::from_bytes`] at `r`'s position, for the formats
    /// that embed a level.
    pub fn read_from(r: &mut ByteReader<'_>) -> Result<Self, PmrError> {
        let count = r.u64()?;
        if count > (1 << 28) {
            return Err(r.malformed(format!("level of {count} coefficients exceeds 2^28")));
        }
        #[expect(clippy::cast_possible_truncation, reason = "count <= 2^28, checked above")]
        let count = count as usize;
        let num_planes = r.u32()?;
        if !(3..=50).contains(&num_planes) {
            return Err(r.malformed(format!("{num_planes} planes outside 3..=50")));
        }
        let step = r.f64()?;
        let error_row: Vec<f64> = (0..=num_planes).map(|_| r.f64()).collect::<Result<_, _>>()?;
        if !step.is_finite() || step < 0.0 || error_row.iter().any(|e| !e.is_finite() || *e < 0.0) {
            return Err(r.malformed("step or error row is negative or not finite"));
        }
        // Every plane payload must decompress to exactly one bit per
        // coefficient, so a corrupted artifact fails loudly at load time
        // instead of panicking inside `decode`. The bounded form caps the
        // allocation at the expected plane size, so forged repeat tokens
        // cannot balloon past the declared coefficient count either.
        let expected = count.div_ceil(8);
        let mut planes = Vec::with_capacity(num_planes as usize);
        for k in 0..num_planes {
            let len = r.u32()? as usize;
            let payload = r.take(len)?;
            if lossless::decompress_bounded(payload, expected).is_none_or(|b| b.len() != expected) {
                return Err(r.malformed(format!("plane {k} does not unpack to {expected} bytes")));
            }
            planes.push(payload.to_vec());
        }
        Ok(Self::assemble(count, num_planes, step, planes, error_row))
    }

    /// Max absolute coefficient error when the first `b` planes are used.
    pub fn error_at(&self, b: u32) -> f64 {
        self.error_row[b.min(self.num_planes) as usize]
    }

    /// Decode the level using only the first `b` planes (clamped to `B`).
    pub fn decode(&self, b: u32) -> Vec<f64> {
        self.decode_with(b, &ExecPolicy::serial())
    }

    /// [`LevelEncoding::decode`] under an explicit execution policy: the
    /// level decoder over this encoding's own first `b` planes, in a fresh
    /// array (the staged oracle of the placed decode retrieval runs).
    pub fn decode_with(&self, b: u32, exec: &ExecPolicy) -> Vec<f64> {
        let mut out = vec![0.0; self.count];
        self.place_with(b, &[Run::dense(self.count)], &mut out, exec);
        out
    }

    /// The level decoder over this encoding's own first `b` planes (clamped
    /// to `B`), placed along `runs` into `grid` as
    /// [`LevelEncoding::decode_placed`] does.
    ///
    /// Own planes are a construction invariant — `encode` packs exactly one
    /// bit per coefficient and `read_from` re-validates persisted planes
    /// the same way — so a failure here is a contract bug, not bad input:
    /// asserted, not routed through `PmrError`.
    pub(crate) fn place_with<T: Slot>(
        &self,
        b: u32,
        runs: &[Run],
        grid: &mut [T],
        exec: &ExecPolicy,
    ) {
        let own = &self.planes[..b.min(self.num_planes) as usize];
        let placed = self.decode_placed(own, runs, grid, exec);
        assert!(placed.is_ok(), "own planes violated the construction invariant");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::fnv1a64;
    use pmr_codec::PlaneKernel;

    fn sample_coeffs(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 * 0.37;
                t.sin() * 3.0 + (t * 1.7).cos() * 0.01
            })
            .collect()
    }

    fn scalar_policy() -> ExecPolicy {
        ExecPolicy::serial().with_kernel(PlaneKernel::Scalar)
    }

    #[test]
    fn full_decode_is_near_lossless() {
        let coeffs = sample_coeffs(500);
        let enc = LevelEncoding::encode(&coeffs, 32);
        let dec = enc.decode(32);
        let max_abs = coeffs.iter().fold(0.0f64, |m, &c| m.max(c.abs()));
        let quant_step = max_abs / (1u64 << 30) as f64;
        for (a, b) in coeffs.iter().zip(&dec) {
            assert!((a - b).abs() <= quant_step, "err {}", (a - b).abs());
        }
    }

    #[test]
    fn error_row_matches_actual_decode_error() {
        let coeffs = sample_coeffs(200);
        let enc = LevelEncoding::encode(&coeffs, 24);
        for b in 0..=24u32 {
            let dec = enc.decode(b);
            let actual = coeffs.iter().zip(&dec).map(|(a, d)| (a - d).abs()).fold(0.0f64, f64::max);
            let recorded = enc.error_at(b);
            assert!(
                (actual - recorded).abs() < 1e-12 * (1.0 + actual),
                "b={b} actual={actual} recorded={recorded}"
            );
        }
    }

    #[test]
    fn error_row_starts_at_max_abs() {
        let coeffs = vec![-4.0, 1.0, 2.5];
        let enc = LevelEncoding::encode(&coeffs, 16);
        assert_eq!(enc.error_at(0), 4.0);
        assert!(enc.error_at(16) < 4.0 / (1u64 << 13) as f64);
    }

    #[test]
    fn zero_level_is_cheap_and_exact() {
        let coeffs = vec![0.0; 1000];
        let enc = LevelEncoding::encode(&coeffs, 32);
        assert!(enc.total_size() < 1000, "size {}", enc.total_size());
        assert_eq!(enc.decode(5), vec![0.0; 1000]);
        assert_eq!(enc.error_at(0), 0.0);
    }

    #[test]
    fn high_planes_compress_better_than_low_planes() {
        // Coefficients spanning magnitudes: top planes are sparse.
        let coeffs: Vec<f64> = (0..4096)
            .map(|i| {
                let t = i as f64;
                (t * 0.013).sin() * (t * 0.00071).cos()
            })
            .collect();
        let enc = LevelEncoding::encode(&coeffs, 32);
        let high: u64 = (0..4).map(|k| enc.plane_size(k)).sum();
        let low: u64 = (28..32).map(|k| enc.plane_size(k)).sum();
        assert!(high < low, "high={high} low={low}");
    }

    #[test]
    fn partial_decode_error_decreases_with_planes() {
        let coeffs = sample_coeffs(300);
        let enc = LevelEncoding::encode(&coeffs, 32);
        // Sampled strictly on the recorded rows every 4 planes.
        let mut prev = f64::INFINITY;
        for b in (0..=32).step_by(4) {
            let e = enc.error_at(b);
            assert!(e <= prev + 1e-15, "b={b} e={e} prev={prev}");
            prev = e;
        }
    }

    #[test]
    fn single_coefficient_level() {
        let enc = LevelEncoding::encode(&[7.25], 32);
        let dec = enc.decode(32);
        assert!((dec[0] - 7.25).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn too_few_planes_rejected() {
        let _ = LevelEncoding::encode(&[1.0], 2);
    }

    #[test]
    fn parallel_encode_is_bit_identical() {
        let coeffs = sample_coeffs(3001);
        let serial = LevelEncoding::encode(&coeffs, 30);
        for exec in [ExecPolicy::with_threads(4), ExecPolicy::with_threads(7)] {
            let par = LevelEncoding::encode_with(&coeffs, 30, &exec);
            assert_eq!(par.to_bytes().unwrap(), serial.to_bytes().unwrap(), "{exec:?}");
            let row_bits =
                |e: &LevelEncoding| e.error_row().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(row_bits(&par), row_bits(&serial), "{exec:?}");
        }
    }

    #[test]
    fn plane_checksums_are_the_payload_digests() {
        let digests_hold = |e: &LevelEncoding| {
            (0..e.num_planes()).all(|k| e.plane_checksum(k) == fnv1a64(e.plane_payload(k)))
        };
        let coeffs = sample_coeffs(3001);
        for exec in [ExecPolicy::serial(), ExecPolicy::with_threads(4), scalar_policy()] {
            let enc = LevelEncoding::encode_with(&coeffs, 30, &exec);
            assert!(digests_hold(&enc), "{exec:?}");
            assert!(digests_hold(&enc.clone()), "{exec:?} clone");
            let (parsed, _) = LevelEncoding::from_bytes(&enc.to_bytes().unwrap()).unwrap();
            assert!(digests_hold(&parsed), "{exec:?} reparsed");
        }
        assert!(digests_hold(&LevelEncoding::encode(&[0.0; 100], 8)), "degenerate level");
    }

    #[test]
    fn parallel_decode_matches_serial() {
        let coeffs = sample_coeffs(2777);
        let enc = LevelEncoding::encode(&coeffs, 32);
        for b in [0u32, 1, 7, 16, 32] {
            let serial = enc.decode(b);
            let par = enc.decode_with(b, &ExecPolicy::with_threads(4));
            let same = serial.iter().zip(&par).all(|(a, x)| a.to_bits() == x.to_bits());
            assert!(same, "b={b}");
        }
    }

    #[test]
    fn only_tiles_with_set_digits_are_transposed() {
        let transposed = |f: &dyn Fn()| {
            let before = TILES_TRANSPOSED.with(std::cell::Cell::get);
            f();
            TILES_TRANSPOSED.with(std::cell::Cell::get) - before
        };
        // One non-zero coefficient in the fourth of 16 tiles.
        let mut coeffs = vec![0.0; 1000];
        coeffs[200] = -3.5;
        let enc = LevelEncoding::encode(&coeffs, 32);
        for kernel in [PlaneKernel::Auto, PlaneKernel::Swar] {
            let exec = ExecPolicy::serial().with_kernel(kernel);
            assert_eq!(transposed(&|| assert_eq!(enc.decode_with(32, &exec), coeffs)), 1);
            assert_eq!(transposed(&|| assert_eq!(enc.decode_with(0, &exec), vec![0.0; 1000])), 0);
        }
        let zero = LevelEncoding::encode(&[0.0; 1000], 32);
        assert_eq!(transposed(&|| assert_eq!(zero.decode(32), vec![0.0; 1000])), 0);
    }

    #[test]
    fn dead_planes_raise_the_row_and_match_the_oracle() {
        // Six tiles, magnitudes falling two decades a tile, so the small
        // tiles' digits reach no leading plane. Tile 0 is ±max, exact after
        // its first planes, so from there the row's entries are the small
        // tiles' errors, and on their dead planes only the raise puts them
        // there; the largest of those magnitudes is negative. Tile 3 is
        // dead in every plane (NaN, −0.0, subnormals); the last is ragged.
        let mut coeffs: Vec<f64> = sample_coeffs(5 * 64 + 21)
            .iter()
            .enumerate()
            .map(|(i, c)| c * 0.01f64.powi((i / 64) as i32))
            .collect();
        for (i, c) in coeffs[..64].iter_mut().enumerate() {
            *c = if i % 2 == 0 { 3.0 } else { -3.0 };
        }
        coeffs[64] = -0.1;
        let specials = [f64::NAN, -0.0, 5e-324, f64::MIN_POSITIVE / 3.0, -1e-300, 0.0];
        for (c, &x) in coeffs[3 * 64..4 * 64].iter_mut().zip(specials.iter().cycle()) {
            *c = x;
        }
        let raised = || encode_kernel::DEAD_ROWS_RAISED.with(std::cell::Cell::get);
        for b in [3u32, 32, 50] {
            // `to_bytes` carries the error row's bits.
            let oracle =
                LevelEncoding::encode_with(&coeffs, b, &scalar_policy()).to_bytes().unwrap();
            for threads in [1, 2, 3, 7] {
                let before = raised();
                let tiled =
                    LevelEncoding::encode_with(&coeffs, b, &ExecPolicy::with_threads(threads));
                assert_eq!(tiled.to_bytes().unwrap(), oracle, "b={b} threads={threads}");
                // Workers count on their own threads; one thread counts here.
                if threads == 1 {
                    assert!(raised() > before, "b={b}: no dead row was raised");
                }
            }
        }
    }

    #[test]
    fn placed_encode_matches_the_dense_oracle() {
        // Strided and unit runs with ragged counts, so worker ranges start
        // inside a run; NaN- and inf-laced grids take both non-finite paths.
        let runs = [
            Run { start: 3, stride: 2, count: 700 },
            Run { start: 1404, stride: 1, count: 1300 },
            Run { start: 2710, stride: 3, count: 760 },
        ];
        let mut nan_laced = sample_coeffs(5000);
        (nan_laced[5], nan_laced[2000]) = (f64::NAN, f64::NAN);
        let mut inf_laced = sample_coeffs(5000);
        inf_laced[2713] = f64::NEG_INFINITY;
        for grid in [sample_coeffs(5000), nan_laced, inf_laced] {
            let dense: Vec<f64> = runs
                .iter()
                .flat_map(|r| (0..r.count).map(move |i| r.start + i * r.stride))
                .map(|at| grid[at])
                .collect();
            let oracle = LevelEncoding::encode_with(&dense, 30, &scalar_policy());
            let kernels = [PlaneKernel::Auto, PlaneKernel::Swar, PlaneKernel::Scalar];
            for kernel in kernels {
                for threads in [1, 2, 3, 4, 7] {
                    let exec = ExecPolicy::with_threads(threads).with_kernel(kernel);
                    let placed = LevelEncoding::encode_placed(&grid, &runs, 30, &exec);
                    assert_eq!(placed.to_bytes().unwrap(), oracle.to_bytes().unwrap(), "{exec:?}");
                }
            }
        }
    }

    #[test]
    fn parallel_encode_degenerate_zero_level() {
        let coeffs = vec![0.0; 4096];
        let par = LevelEncoding::encode_with(&coeffs, 32, &ExecPolicy::with_threads(4));
        let serial = LevelEncoding::encode(&coeffs, 32);
        assert_eq!(par.to_bytes().unwrap(), serial.to_bytes().unwrap());
    }

    #[test]
    fn tiled_encode_matches_scalar_oracle() {
        // Counts straddling tile boundaries, including ragged tails.
        for n in [1usize, 63, 64, 65, 127, 128, 200, 1000, 4096, 4100] {
            let coeffs = sample_coeffs(n);
            for b in [3u32, 17, 32, 50] {
                let scalar = LevelEncoding::encode_with(&coeffs, b, &scalar_policy());
                for kernel in [PlaneKernel::Auto, PlaneKernel::Swar] {
                    let tiled = LevelEncoding::encode_with(
                        &coeffs,
                        b,
                        &ExecPolicy::serial().with_kernel(kernel),
                    );
                    assert_eq!(
                        tiled.to_bytes().unwrap(),
                        scalar.to_bytes().unwrap(),
                        "n={n} b={b} {kernel:?}"
                    );
                    let bits = |e: &LevelEncoding| {
                        e.error_row().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                    };
                    assert_eq!(bits(&tiled), bits(&scalar), "n={n} b={b} {kernel:?}");
                }
            }
        }
    }

    #[test]
    fn tiled_decode_matches_scalar_oracle() {
        for n in [1usize, 65, 1000, 4100] {
            let coeffs = sample_coeffs(n);
            let enc = LevelEncoding::encode(&coeffs, 32);
            for b in [0u32, 1, 7, 16, 31, 32] {
                let scalar = enc.decode_with(b, &scalar_policy());
                for kernel in [PlaneKernel::Auto, PlaneKernel::Swar] {
                    let tiled = enc.decode_with(b, &ExecPolicy::serial().with_kernel(kernel));
                    let same = scalar.iter().zip(&tiled).all(|(a, x)| a.to_bits() == x.to_bits());
                    assert!(same, "n={n} b={b} {kernel:?}");
                }
            }
        }
    }

    /// Digits at the ends of the negabinary range — every even place set
    /// (the largest value), every odd place (the most negative), all of
    /// them, none — on levels of up to 50 planes decode under every kernel
    /// and worker count to `from_negabinary(d) as f64 · step`, bit for bit:
    /// the edge of the range of the decoder's exact `i64 → f64` conversion.
    #[test]
    fn extreme_digits_decode_exactly_under_every_kernel() {
        let n = 300;
        for planes in [3u32, 17, 49, 50] {
            let enc = LevelEncoding::encode(&sample_coeffs(n), planes);
            let b = planes as usize;
            let even: u64 = (0..b).step_by(2).fold(0, |d, k| d | 1 << k);
            let odd: u64 = (1..b).step_by(2).fold(0, |d, k| d | 1 << k);
            let patterns = [even, odd, even | odd, 0, odd, even];
            let digits: Vec<u64> = (0..n).map(|i| patterns[i % patterns.len()]).collect();
            // Plane k, most significant first, holds digit place b − 1 − k.
            let payloads: Vec<Vec<u8>> = (0..b)
                .map(|k| {
                    let mut w = BitWriter::new();
                    for &d in &digits {
                        w.push(d >> (b - 1 - k) & 1 == 1);
                    }
                    lossless::compress(&w.into_bytes())
                })
                .collect();
            let want: Vec<u64> = digits
                .iter()
                .map(|&d| (negabinary::from_negabinary(d) as f64 * enc.step).to_bits())
                .collect();
            for kernel in [PlaneKernel::Scalar, PlaneKernel::Swar, PlaneKernel::Auto] {
                for threads in [1, 3] {
                    let exec = ExecPolicy::with_threads(threads).with_kernel(kernel);
                    let got = enc.decode_from_payloads_with(&payloads, &exec).unwrap();
                    let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "planes={planes} {kernel:?} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn payload_decode_matches_scalar_oracle() {
        let coeffs = sample_coeffs(777);
        let enc = LevelEncoding::encode(&coeffs, 24);
        for p in [0usize, 1, 11, 24] {
            let payloads: Vec<Vec<u8>> =
                (0..p).map(|k| enc.plane_payload(k as u32).to_vec()).collect();
            let scalar = enc.decode_from_payloads_with(&payloads, &scalar_policy()).unwrap();
            let tiled = enc.decode_from_payloads(&payloads).unwrap();
            let same = scalar.iter().zip(&tiled).all(|(a, x)| a.to_bits() == x.to_bits());
            assert!(same, "p={p}");
        }
    }

    #[test]
    fn new_artifacts_decode_through_scalar_path() {
        // Artifacts encoded by the tiled path must read back identically
        // through the legacy scalar decoder (cross-version compatibility).
        let coeffs = sample_coeffs(1234);
        let tiled = LevelEncoding::encode(&coeffs, 32);
        let scalar_enc = LevelEncoding::encode_with(&coeffs, 32, &scalar_policy());
        assert_eq!(tiled.to_bytes().unwrap(), scalar_enc.to_bytes().unwrap());
        for b in [4u32, 16, 32] {
            let via_scalar = tiled.decode_with(b, &scalar_policy());
            let via_tiled = tiled.decode(b);
            let same = via_scalar.iter().zip(&via_tiled).all(|(a, x)| a.to_bits() == x.to_bits());
            assert!(same, "b={b}");
        }
    }

    #[test]
    fn adversarial_levels_are_kernel_invariant() {
        let mut cases: Vec<Vec<f64>> = vec![
            vec![0.0; 321],                                                  // all-zero planes
            (0..130).map(|i| if i % 2 == 0 { 1.5 } else { -1.5 }).collect(), // alternating sign
            (0..97).map(|i| f64::MIN_POSITIVE * (i as f64 + 1.0)).collect(), // subnormal scale
            vec![5e-324; 66],                                                // actual subnormals
        ];
        let mut nan_laced = sample_coeffs(200);
        nan_laced[3] = f64::NAN;
        nan_laced[77] = f64::NAN;
        cases.push(nan_laced);
        let mut inf_laced = sample_coeffs(100);
        inf_laced[50] = f64::INFINITY;
        cases.push(inf_laced);
        for (i, coeffs) in cases.iter().enumerate() {
            let scalar = LevelEncoding::encode_with(coeffs, 32, &scalar_policy());
            let tiled = LevelEncoding::encode(coeffs, 32);
            assert_eq!(tiled.to_bytes().unwrap(), scalar.to_bytes().unwrap(), "case {i}");
            for b in [0u32, 5, 32] {
                let s = scalar.decode_with(b, &scalar_policy());
                let t = tiled.decode(b);
                let same = s.iter().zip(&t).all(|(a, x)| a.to_bits() == x.to_bits());
                assert!(same, "case {i} b={b}");
            }
        }
    }
}
