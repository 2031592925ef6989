//! The tile kernel of the bit-plane encoder: quantize, collect the error
//! row, slice the planes — one pass over a tile-aligned coefficient chunk.
//!
//! The error row is the expensive part (`B` prefix reconstructions per
//! coefficient), so it is laid out for the vector unit: instead of reducing
//! every tile to one scalar per plane, a worker keeps [`LANES`] running
//! maxima per plane for its whole chunk ([`LaneRows`]) and coefficient `j`
//! of a tile only ever updates lane `j % LANES`. The update is the scalar
//! oracle's own `if err > worst { worst = err }`, which is one `maxpd`; the
//! lanes are folded once, after the last chunk ([`fold_lanes`]). DESIGN.md
//! §10 has the argument that the folded row equals the oracle's bit for bit.
//!
//! The loop body is plain safe Rust compiled twice: at the target's baseline
//! (SSE2 on x86_64; NEON is baseline on aarch64, so this is the vector
//! build there) and, on x86_64, under `#[target_feature(enable = "avx2")]`,
//! entered only after the runtime probe — the same arrangement as
//! `pmr_codec::transpose`.

use crate::bitplane::quantize;
use crate::decompose::{Placer, Run};
use pmr_codec::{negabinary, transpose, TileImpl};

/// Running maxima kept per plane; coefficient `j` of a tile updates lane
/// `j % LANES`. Eight f64 lanes are two AVX2 vectors (four SSE2/NEON ones),
/// enough independent `max` chains to hide the instruction's latency.
pub(crate) const LANES: usize = 8;

/// Most planes a level can have (`LevelEncoding::encode` asserts it).
pub(crate) const MAX_PLANES: usize = 50;

#[cfg(test)]
thread_local! {
    /// (tile, plane) error-row updates `encode_chunk_body` has made on this
    /// thread from a tile's magnitudes instead of its prefix loop.
    pub(crate) static DEAD_ROWS_RAISED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// One worker's error-row state: `rows[k][j]` is the largest truncation
/// error seen so far in lane `j` with `k + 1` planes kept. 3.2 kB.
pub(crate) type LaneRows = [[f64; LANES]; MAX_PLANES];

/// The error-row update: the scalar oracle's `if err > worst { worst = err }`
/// as a value. A NaN `e` compares false and never replaces a number, `e` is
/// an `abs` and so never `-0.0`: over any set of updates the result is the
/// set's largest number, in whatever order and grouping they are applied.
#[inline(always)]
fn keep_max(m: f64, e: f64) -> f64 {
    if e > m {
        e
    } else {
        m
    }
}

/// `max |c|` over the coefficients at `runs` in `grid` that are not NaN,
/// 0.0 when there are none — the value of the fold `m.max(c.abs())` from
/// 0.0, and therefore also `error_row[0]`.
pub(crate) fn max_abs(grid: &[f64], runs: &[Run]) -> f64 {
    let mut lanes = [0.0f64; LANES];
    for run in runs {
        let from = &grid[run.start..];
        if run.stride == 1 {
            let mut groups = from[..run.count].chunks_exact(LANES);
            for group in &mut groups {
                for (m, &c) in lanes.iter_mut().zip(group) {
                    *m = keep_max(*m, c.abs());
                }
            }
            for (m, &c) in lanes.iter_mut().zip(groups.remainder()) {
                *m = keep_max(*m, c.abs());
            }
        } else {
            for (i, &c) in from.iter().step_by(run.stride).take(run.count).enumerate() {
                lanes[i % LANES] = keep_max(lanes[i % LANES], c.abs());
            }
        }
    }
    lanes.iter().fold(0.0, |m, &e| keep_max(m, e))
}

/// Fold every worker's lanes into `row[1..]` (`row[0]` is [`max_abs`]).
pub(crate) fn fold_lanes(workers: &[LaneRows], row: &mut [f64]) {
    for (k, worst) in row[1..].iter_mut().enumerate() {
        *worst = workers.iter().flat_map(|w| &w[k]).fold(0.0, |m, &e| keep_max(m, e));
    }
}

/// One worker's tile-aligned chunk of a level: `count` coefficients, read
/// from `grid` through `cursor` (at the chunk's first coefficient) a tile at
/// a time.
pub(crate) struct Chunk<'g, 'r> {
    pub grid: &'g [f64],
    pub cursor: Placer<'r>,
    pub count: usize,
}

/// Quantize/encode one chunk: fills its byte range of every packed plane
/// (`segs[k]`, `count.div_ceil(8)` bytes of plane `k`) and raises
/// `lanes[k]` by the chunk's truncation errors with `k + 1` planes kept.
/// `weights[k]` is `(-2)^(B-1-k)`.
///
/// Bit-identity with the scalar path: the digits come from the same
/// `quantize`/`to_negabinary` expressions; plane bits land at the same
/// MSB-first positions (`word.to_be_bytes()` is exactly the `BitWriter`
/// layout, and zero-padded tile tails match its zero fill); and the error
/// accumulator `val`, although held in f64, only ever takes integer values
/// below 2^51 (`num_planes <= 50`), where f64 addition is exact — so every
/// `(c - val * step)` matches the scalar `(c - val_i64 as f64 * step)` bit
/// for bit. The maxima regroup only [`keep_max`].
pub(crate) fn encode_chunk(
    chunk: Chunk<'_, '_>,
    step: f64,
    weights: &[f64],
    imp: TileImpl,
    segs: &mut [&mut [u8]],
    lanes: &mut LaneRows,
) {
    #[cfg(target_arch = "x86_64")]
    if imp == TileImpl::Simd && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the AVX2 feature requirement was just verified at runtime.
        return unsafe { encode_chunk_avx2(chunk, step, weights, imp, segs, lanes) };
    }
    encode_chunk_body(chunk, step, weights, imp, segs, lanes);
}

/// [`encode_chunk_body`] compiled with AVX2 available to the optimizer.
///
/// # Safety
///
/// The caller must ensure the running CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
// SAFETY: contract fn — callers must verify AVX2 support (see # Safety above).
#[target_feature(enable = "avx2")]
unsafe fn encode_chunk_avx2(
    chunk: Chunk<'_, '_>,
    step: f64,
    weights: &[f64],
    imp: TileImpl,
    segs: &mut [&mut [u8]],
    lanes: &mut LaneRows,
) {
    encode_chunk_body(chunk, step, weights, imp, segs, lanes);
}

/// The kernel behind [`encode_chunk`], one tile at a time.
///
/// *Dead planes.* The OR of a tile's 64 digits has `live = 64 −
/// leading_zeros` significant bits, so none of its digits has a bit set in
/// the first `B − live` planes. With `k + 1 <= B − live` planes kept, every
/// prefix of the tile is still zero, and each error the prefix loop would
/// take is `|c − 0·step|`. That is exactly `|c|`: `0·step` is `+0.0` for
/// the finite positive step, and `c − +0.0` is `c` for every `c`,
/// `−0.0`, subnormals and NaN included. So the tile's `|c|` are folded into
/// [`LANES`] maxima once, those raise each dead row through [`keep_max`],
/// and the prefix loop runs over the live planes only, from `val = 0`. The
/// rows see the same multiset of errors as before, and `keep_max` does not
/// care how a multiset is grouped (DESIGN.md §10): a NaN is dropped
/// wherever it is met, no `abs` is `−0.0`, and padding lanes add `+0.0`,
/// which never moves a maximum.
#[inline(always)]
fn encode_chunk_body(
    chunk: Chunk<'_, '_>,
    step: f64,
    weights: &[f64],
    imp: TileImpl,
    segs: &mut [&mut [u8]],
    lanes: &mut LaneRows,
) {
    let Chunk { grid, mut cursor, count } = chunk;
    let bu = weights.len();
    let seg_len = count.div_ceil(8);
    for t in 0..count.div_ceil(transpose::TILE) {
        // Padding lanes of a ragged last tile keep zero digits and c = 0.0,
        // i.e. a zero error that never moves a maximum.
        let n = (count - t * transpose::TILE).min(transpose::TILE);
        let mut cval = [0.0f64; transpose::TILE];
        cursor.get(grid, &mut cval[..n]);
        let mut tile = [0u64; transpose::TILE];
        let mut any = 0u64;
        for (d, &c) in tile.iter_mut().zip(&cval[..n]) {
            *d = negabinary::to_negabinary(quantize(c, step));
            any |= *d;
        }
        let live = (u64::BITS - any.leading_zeros()) as usize;
        let dead = bu.saturating_sub(live);
        if dead > 0 {
            #[cfg(test)]
            DEAD_ROWS_RAISED.with(|r| r.set(r.get() + dead as u64));
            let mut mags = [0.0f64; LANES];
            for cs in cval.chunks_exact(LANES) {
                for (m, &c) in mags.iter_mut().zip(cs) {
                    *m = keep_max(*m, c.abs());
                }
            }
            for row in &mut lanes[..dead] {
                for (m, &a) in row.iter_mut().zip(&mags) {
                    *m = keep_max(*m, a);
                }
            }
        }
        // Prefix reconstruction of the live planes, one plane across the
        // whole tile: add the plane's weight where the digit is set
        // (branchless, through the bit pattern) and take the error of the
        // prefix so far.
        let mut val = [0.0f64; transpose::TILE];
        let live_planes = (0..bu - dead).rev().zip(&weights[dead..]).zip(&mut lanes[dead..]);
        for ((shift, &w), row) in live_planes {
            let wbits = w.to_bits();
            let mut worst = *row;
            for ((digits, vals), cs) in tile
                .chunks_exact(LANES)
                .zip(val.chunks_exact_mut(LANES))
                .zip(cval.chunks_exact(LANES))
            {
                for (((&d, v), &c), m) in digits.iter().zip(vals).zip(cs).zip(worst.iter_mut()) {
                    *v += f64::from_bits(wbits & (d >> shift & 1).wrapping_neg());
                    *m = keep_max(*m, (c - *v * step).abs());
                }
            }
            *row = worst;
        }
        // One transpose yields every plane word of the tile; the plane words
        // are the bottom `bu` rows (see `pmr_codec::transpose` docs).
        transpose::transpose64(&mut tile, imp);
        let base = t * 8;
        let nbytes = (seg_len - base).min(8);
        for (seg, word) in segs.iter_mut().zip(&tile[transpose::TILE - bu..]) {
            seg[base..base + nbytes].copy_from_slice(&word.to_be_bytes()[..nbytes]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_max_abs_is_the_plain_fold() {
        let mut grid: Vec<f64> =
            (0..203).map(|i| (i as f64 * 0.71).sin() * (i % 13) as f64).collect();
        grid[4] = f64::NAN;
        grid[10] = -0.0;
        grid[46] = -20.0; // the largest magnitude on the run, in lane 23 % 8
        grid[47] = 99.0; // off the run
        let nodes = [Run { start: 0, stride: 2, count: 102 }];
        let plain = |g: &[f64]| g.iter().step_by(2).fold(0.0f64, |m, &c| m.max(c.abs()));
        assert_eq!(max_abs(&grid, &nodes).to_bits(), plain(&grid).to_bits());
        assert_eq!(max_abs(&grid, &nodes), 20.0);
        // NaN and `-0.0` alone: `+0.0`, as the fold from `0.0` gives.
        let blank: Vec<f64> = (0..203).map(|i| if i % 4 == 0 { f64::NAN } else { -0.0 }).collect();
        assert_eq!(max_abs(&blank, &nodes).to_bits(), plain(&blank).to_bits());
        assert_eq!(plain(&blank).to_bits(), 0.0f64.to_bits());
    }
}
