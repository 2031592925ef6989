//! One-dimensional building blocks of the multilevel transform.
//!
//! A decomposition step splits a line of `m` values into `ceil(m/2)` coarse
//! values (even indices) and `floor(m/2)` detail coefficients (odd indices):
//!
//! 1. **predict** — each odd value is replaced by its deviation from the
//!    linear interpolation of its even neighbours (constant extrapolation at
//!    an even-length line's right boundary);
//! 2. **correct** (L2 mode only) — the coarse values receive the multigrid
//!    correction `z = M_c⁻¹ b` where `M_c` is the coarse-grid hat-function
//!    mass matrix and `b` the restriction of the detail load, making the
//!    coarse line the L2 projection of the fine one (the defining feature of
//!    MGARD's decomposition, and the source of the >1 operator row sums the
//!    paper's error theory is pessimistic about).
//!
//! Both steps are exactly invertible because the correction is recomputable
//! from the stored details alone.
//!
//! Quadrature at truncated boundary supports uses the interior weights; this
//! keeps the transform invertible and only marginally affects projection
//! optimality in the last cell (documented substitution, DESIGN.md §3).

use crate::decompose::TransformMode;

/// Mass-matrix coefficients for coarse hat functions with unit fine spacing
/// (coarse spacing 2): interior diagonal `4/3`, boundary diagonal `2/3`,
/// off-diagonal `1/3`.
const DIAG_INTERIOR: f64 = 4.0 / 3.0;
const DIAG_BOUNDARY: f64 = 2.0 / 3.0;
const OFF_DIAG: f64 = 1.0 / 3.0;

/// Scratch space reused across line transforms to avoid per-line allocation.
#[derive(Debug, Default)]
pub struct LineScratch {
    /// Gathered line values.
    pub line: Vec<f64>,
    /// Load vector / solution for the correction solve.
    b: Vec<f64>,
    /// Thomas-algorithm forward-sweep storage.
    cp: Vec<f64>,
}

impl LineScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Solve the symmetric tridiagonal system `M z = b` in place (`b` becomes
/// `z`) with the Thomas algorithm. `M` is the coarse mass matrix of size
/// `b.len()` described at module level.
fn solve_coarse_mass(b: &mut [f64], cp: &mut Vec<f64>) {
    let n = b.len();
    if n == 0 {
        return;
    }
    if n == 1 {
        // Single coarse node: its hat covers the whole (two-cell) domain.
        b[0] /= DIAG_BOUNDARY;
        return;
    }
    cp.clear();
    cp.resize(n, 0.0);
    let diag = |i: usize| {
        if i == 0 || i == n - 1 {
            DIAG_BOUNDARY
        } else {
            DIAG_INTERIOR
        }
    };
    // Forward sweep.
    cp[0] = OFF_DIAG / diag(0);
    b[0] /= diag(0);
    for i in 1..n {
        let m = diag(i) - OFF_DIAG * cp[i - 1];
        cp[i] = OFF_DIAG / m;
        b[i] = (b[i] - OFF_DIAG * b[i - 1]) / m;
    }
    // Back substitution.
    for i in (0..n - 1).rev() {
        b[i] -= cp[i] * b[i + 1];
    }
}

/// The Thomas pivots of [`solve_coarse_mass`] for an `n`-node coarse line.
/// They depend on `n` alone, so the batched kernels of [`crate::batched`]
/// compute them once per phase instead of once per line — by the same
/// expressions, so every solve divides by bit-identical values.
#[derive(Debug)]
pub(crate) struct CoarsePivots {
    /// Pivot `m_i` the forward sweep divides row `i` by.
    m: Vec<f64>,
    /// Back-substitution factor `cp_i = OFF_DIAG / m_i`.
    cp: Vec<f64>,
}

impl CoarsePivots {
    pub(crate) fn new(n: usize) -> Self {
        let mut m: Vec<f64> = Vec::with_capacity(n);
        let mut cp: Vec<f64> = Vec::with_capacity(n);
        for i in 0..n {
            let diag = if i == 0 || i == n - 1 { DIAG_BOUNDARY } else { DIAG_INTERIOR };
            let pivot = if i == 0 { diag } else { diag - OFF_DIAG * cp[i - 1] };
            m.push(pivot);
            cp.push(OFF_DIAG / pivot);
        }
        CoarsePivots { m, cp }
    }

    /// [`solve_coarse_mass`] on `lanes` independent systems at once:
    /// `b[i * lanes + lane]` is entry `i` of system `lane`. Each entry goes
    /// through the oracle's operation sequence — divide by the pivot
    /// included — and no operation crosses lanes, so every system's
    /// solution is bit-identical to a per-line solve while the inner loops
    /// run unit-stride over the lanes.
    ///
    /// Compiled on its own, twice: at the target's baseline and, on x86_64,
    /// under AVX2, entered when `simd` is set and the runtime probe finds
    /// AVX2 — so every caller gets the same code for it.
    #[inline(never)]
    pub(crate) fn solve_lanes(&self, b: &mut [f64], lanes: usize, simd: bool) {
        #[cfg(target_arch = "x86_64")]
        if simd && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the AVX2 feature requirement was just verified at runtime.
            return unsafe { self.solve_lanes_avx2(b, lanes) };
        }
        self.solve_lanes_body(b, lanes);
    }

    /// [`CoarsePivots::solve_lanes_body`] compiled with AVX2 available to
    /// the optimizer.
    ///
    /// # Safety
    ///
    /// The caller must ensure the running CPU supports AVX2.
    #[cfg(target_arch = "x86_64")]
    // SAFETY: contract fn — callers must verify AVX2 support (see # Safety above).
    #[target_feature(enable = "avx2")]
    unsafe fn solve_lanes_avx2(&self, b: &mut [f64], lanes: usize) {
        self.solve_lanes_body(b, lanes);
    }

    /// The sweeps behind [`CoarsePivots::solve_lanes`].
    #[inline(always)]
    fn solve_lanes_body(&self, b: &mut [f64], lanes: usize) {
        assert_eq!(b.len(), self.m.len() * lanes, "load/pivot size mismatch");
        if lanes == 0 {
            return;
        }
        let mut prev: Option<&mut [f64]> = None;
        for (i, cur) in b.chunks_exact_mut(lanes).enumerate() {
            self.eliminate_row(i, cur, prev.as_deref());
            prev = Some(cur);
        }
        let mut next: Option<&mut [f64]> = None;
        for (i, cur) in b.chunks_exact_mut(lanes).enumerate().rev() {
            if let Some(next) = next.as_deref() {
                self.substitute_row(i, cur, next);
            }
            next = Some(cur);
        }
    }

    /// The forward sweep's step on row `i` of the lanes' systems, `prev`
    /// being row `i − 1` already eliminated (`None` for the first row):
    /// `cur / m_0`, then `(cur − OFF_DIAG·prev) / m_i`.
    #[inline(always)]
    pub(crate) fn eliminate_row(&self, i: usize, cur: &mut [f64], prev: Option<&[f64]>) {
        let pivot = self.m[i];
        match prev {
            None => {
                for c in cur {
                    *c /= pivot;
                }
            }
            Some(prev) => {
                for (c, &p) in cur.iter_mut().zip(prev) {
                    *c = (*c - OFF_DIAG * p) / pivot;
                }
            }
        }
    }

    /// The back substitution's step on row `i` (any but the last), `next`
    /// being row `i + 1` already solved: `cur − cp_i·next`.
    #[inline(always)]
    pub(crate) fn substitute_row(&self, i: usize, cur: &mut [f64], next: &[f64]) {
        let factor = self.cp[i];
        for (c, &z) in cur.iter_mut().zip(next) {
            *c -= factor * z;
        }
    }
}

/// Forward transform of one gathered line (`line.len() >= 2`).
pub fn forward_line(line: &mut [f64], mode: TransformMode, scratch: &mut LineScratch) {
    let m = line.len();
    debug_assert!(m >= 2);

    // Predict: odd entries become details.
    for j in (1..m).step_by(2) {
        let pred = if j + 1 < m { 0.5 * (line[j - 1] + line[j + 1]) } else { line[j - 1] };
        line[j] -= pred;
    }

    if mode == TransformMode::L2Projection {
        let n_coarse = m.div_ceil(2);
        let b = &mut scratch.b;
        b.clear();
        b.resize(n_coarse, 0.0);
        // Load vector: each detail contributes weight 1/2 to its two
        // neighbouring coarse hats (interior quadrature everywhere).
        for j in (1..m).step_by(2) {
            let d = line[j];
            b[(j - 1) / 2] += 0.5 * d;
            if j + 1 < m {
                b[j.div_ceil(2)] += 0.5 * d;
            }
        }
        solve_coarse_mass(b, &mut scratch.cp);
        for (jc, z) in b.iter().enumerate() {
            line[2 * jc] += z;
        }
    }
}

/// Inverse of [`forward_line`].
pub fn inverse_line(line: &mut [f64], mode: TransformMode, scratch: &mut LineScratch) {
    let m = line.len();
    debug_assert!(m >= 2);

    if mode == TransformMode::L2Projection {
        let n_coarse = m.div_ceil(2);
        let b = &mut scratch.b;
        b.clear();
        b.resize(n_coarse, 0.0);
        for j in (1..m).step_by(2) {
            let d = line[j];
            b[(j - 1) / 2] += 0.5 * d;
            if j + 1 < m {
                b[j.div_ceil(2)] += 0.5 * d;
            }
        }
        solve_coarse_mass(b, &mut scratch.cp);
        for (jc, z) in b.iter().enumerate() {
            line[2 * jc] -= z;
        }
    }

    // Un-predict.
    for j in (1..m).step_by(2) {
        let pred = if j + 1 < m { 0.5 * (line[j - 1] + line[j + 1]) } else { line[j - 1] };
        line[j] += pred;
    }
}

/// Infinity norm bound of `M_c⁻¹` used by the theory estimator: by weak
/// diagonal dominance the margin is `2/3 - 1/3 = 1/3` at boundary rows, so
/// `‖M_c⁻¹‖_∞ ≤ 3`.
pub const MASS_INVERSE_NORM_BOUND: f64 = 3.0;

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(len: usize, mode: TransformMode) {
        let orig: Vec<f64> = (0..len).map(|i| ((i * 37 + 11) % 17) as f64 - 8.0).collect();
        let mut line = orig.clone();
        let mut scratch = LineScratch::new();
        forward_line(&mut line, mode, &mut scratch);
        inverse_line(&mut line, mode, &mut scratch);
        for (a, b) in orig.iter().zip(&line) {
            assert!((a - b).abs() < 1e-12, "len={len} mode={mode:?}");
        }
    }

    #[test]
    fn roundtrip_all_small_lengths() {
        for len in 2..40 {
            roundtrip(len, TransformMode::Interpolation);
            roundtrip(len, TransformMode::L2Projection);
        }
    }

    #[test]
    fn linear_data_has_zero_details() {
        // Linear functions are exactly predicted by linear interpolation.
        let mut line: Vec<f64> = (0..9).map(|i| 2.0 * i as f64 + 1.0).collect();
        let mut scratch = LineScratch::new();
        forward_line(&mut line, TransformMode::Interpolation, &mut scratch);
        for j in (1..9).step_by(2) {
            assert!(line[j].abs() < 1e-12);
        }
        // Coarse values untouched in interpolation mode.
        for j in (0..9).step_by(2) {
            assert_eq!(line[j], 2.0 * j as f64 + 1.0);
        }
    }

    #[test]
    fn l2_mode_moves_coarse_values() {
        let mut line: Vec<f64> = (0..9).map(|i| ((i as f64) * 0.7).sin()).collect();
        let orig = line.clone();
        let mut scratch = LineScratch::new();
        forward_line(&mut line, TransformMode::L2Projection, &mut scratch);
        let moved = (0..9).step_by(2).any(|j| (line[j] - orig[j]).abs() > 1e-9);
        assert!(moved, "correction should perturb coarse values on curved data");
    }

    #[test]
    fn tridiagonal_solve_matches_dense() {
        // Verify the Thomas solver against a brute-force Gaussian
        // elimination for several sizes.
        for n in 1..12usize {
            let diag = |i: usize| {
                if i == 0 || i == n - 1 {
                    DIAG_BOUNDARY
                } else {
                    DIAG_INTERIOR
                }
            };
            let rhs: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).cos()).collect();
            // Dense solve.
            let mut a = vec![vec![0.0; n + 1]; n];
            for i in 0..n {
                a[i][i] = diag(i);
                if i > 0 {
                    a[i][i - 1] = OFF_DIAG;
                }
                if i + 1 < n {
                    a[i][i + 1] = OFF_DIAG;
                }
                a[i][n] = rhs[i];
            }
            for col in 0..n {
                let (upper, lower) = a.split_at_mut(col + 1);
                let prow = &upper[col];
                let p = prow[col];
                for row in lower.iter_mut() {
                    let f = row[col] / p;
                    for (rc, &pc) in row.iter_mut().zip(prow).skip(col) {
                        *rc -= f * pc;
                    }
                }
            }
            let mut dense = vec![0.0; n];
            for r in (0..n).rev() {
                let mut s = a[r][n];
                for c in r + 1..n {
                    s -= a[r][c] * dense[c];
                }
                dense[r] = s / a[r][r];
            }
            // Thomas solve.
            let mut b = rhs.clone();
            let mut cp = Vec::new();
            solve_coarse_mass(&mut b, &mut cp);
            for i in 0..n {
                assert!((b[i] - dense[i]).abs() < 1e-10, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn lane_solve_is_bit_identical_to_the_per_line_solve() {
        for n in 1..40usize {
            for (lanes, simd) in
                [1usize, 3, 8, 67].into_iter().flat_map(|l| [(l, false), (l, true)])
            {
                let system = |lane: usize| -> Vec<f64> {
                    (0..n).map(|i| ((i * 7 + lane * 13) as f64 * 0.37).sin() * 1e3).collect()
                };
                let mut batch = vec![0.0; n * lanes];
                for lane in 0..lanes {
                    for (i, v) in system(lane).into_iter().enumerate() {
                        batch[i * lanes + lane] = v;
                    }
                }
                CoarsePivots::new(n).solve_lanes(&mut batch, lanes, simd);
                for lane in 0..lanes {
                    let mut b = system(lane);
                    solve_coarse_mass(&mut b, &mut Vec::new());
                    for (i, want) in b.iter().enumerate() {
                        let got = batch[i * lanes + lane];
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "n={n} lanes={lanes} simd={simd} i={i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mass_inverse_norm_bound_holds() {
        // Empirically check ‖M⁻¹‖_∞ ≤ 3 by solving for all unit vectors.
        for n in 2..20usize {
            let mut inv_cols = vec![vec![0.0; n]; n];
            for (j, col) in inv_cols.iter_mut().enumerate() {
                let mut e = vec![0.0; n];
                e[j] = 1.0;
                let mut cp = Vec::new();
                solve_coarse_mass(&mut e, &mut cp);
                col.copy_from_slice(&e);
            }
            let mut rowsums = vec![0.0f64; n];
            for col in &inv_cols {
                for (rs, v) in rowsums.iter_mut().zip(col) {
                    *rs += v.abs();
                }
            }
            let max_rowsum = rowsums.into_iter().fold(0.0f64, f64::max);
            assert!(max_rowsum <= MASS_INVERSE_NORM_BOUND + 1e-9, "n={n} norm={max_rowsum}");
        }
    }
}
