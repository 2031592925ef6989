//! Plane-batched kernels for the multilevel transform.
//!
//! [`crate::transform`] defines the transform one gathered line at a time;
//! that per-line path ([`crate::Decomposer::decompose`]/`recompose`) is the
//! oracle. This module computes the same thing without ever gathering a
//! line:
//!
//! * **Lines along y or z** are transformed a whole *row of lines* at a
//!   time. Point `k` of every line that crosses one x-row lives in the
//!   same contiguous run of memory, so predict, load, solve and correction
//!   become loops over x between rows ([`across`]) — unit-stride and
//!   auto-vectorised at step 0, stride `2^s` at step `s` — with a
//!   `ceil(m/2) × m0` load scratch per worker.
//! * **Lines along x** are transformed in place, [`GROUP`] neighbouring
//!   rows interleaved through the tridiagonal recurrence so the divides of
//!   independent lines overlap ([`along`]).
//!
//! Bit-identity with the oracle holds by construction: every element goes
//! through the oracle's IEEE operation sequence (same expression order,
//! the load accumulation starting from `0.0`, a *divide* by the pivot),
//! the pivots come from the same expressions
//! ([`CoarsePivots`]), and no operation combines values of different
//! lines, so neither vector width nor worker count can reorder anything.
//!
//! Parallelism is safe-Rust splitting, not copying. The x and y phases of
//! a 3-D step run back to back per z-slab (`chunks_mut`) while the slab is
//! in cache; for the z phase every slab is `split_at_mut` into per-worker
//! y-ranges so a worker owns its piece of every slab. A 1-/2-D grid is the
//! same one dimension down: rows are dealt to workers for the x phase and
//! split into x-ranges for the y phase.

use crate::decompose::{active_size, Decomposer, TransformMode};
use crate::exec::{run_jobs, PARALLEL_MIN_POINTS};
use crate::transform::CoarsePivots;
use std::ops::Range;

/// Rows interleaved through one x-line solve: enough independent divides
/// in flight to cover the divider's latency.
const GROUP: usize = 8;

/// What every kernel needs to know about the transform being run.
#[derive(Clone, Copy)]
struct Pass {
    forward: bool,
    l2: bool,
}

/// Geometry of one decomposition step on a grid whose outermost dimension
/// is cut into *units*: the z-slabs of a 3-D grid, the rows of a 1-/2-D one.
struct Step {
    nx: usize,
    three_d: bool,
    /// Elements per unit.
    unit: usize,
    /// Element stride between active x points, `2^s`.
    xs: usize,
    /// Active points along x, y, z.
    m: [usize; 3],
    /// Thomas pivots of the lines along x, y, z.
    pivots: [CoarsePivots; 3],
}

impl Step {
    /// `l2`: whether the pass solves for a correction at all (the pivots
    /// are left empty otherwise).
    fn new(dims: [usize; 3], s: usize, l2: bool) -> Self {
        let [nx, ny, nz] = dims;
        let three_d = nz > 1;
        let m = dims.map(|n| active_size(n, s));
        Step {
            nx,
            three_d,
            unit: if three_d { nx * ny } else { nx },
            xs: 1 << s,
            m,
            pivots: m.map(|m| CoarsePivots::new(if l2 { m.div_ceil(2) } else { 0 })),
        }
    }

    /// The active units of `data`, in order.
    fn units<'a>(&self, data: &'a mut [f64]) -> impl Iterator<Item = &'a mut [f64]> {
        let unit = self.unit;
        data.chunks_mut(unit.saturating_mul(self.xs)).map(move |c| &mut c[..unit])
    }

    /// Element stride between the active rows of a slab.
    fn row_stride(&self) -> usize {
        self.nx.saturating_mul(self.xs)
    }
}

/// Run the decomposition steps `steps` over `data`, forward (decompose,
/// ascending steps) or inverse (recompose, descending steps), on up to
/// `threads` workers — one for a step whose active grid is smaller than
/// [`PARALLEL_MIN_POINTS`].
pub(crate) fn run(
    data: &mut [f64],
    plan: &Decomposer,
    steps: impl Iterator<Item = usize>,
    forward: bool,
    threads: usize,
) {
    let pass = Pass { forward, l2: plan.mode() == TransformMode::L2Projection };
    for s in steps {
        let step = Step::new(plan.shape().dims(), s, pass.l2);
        let threads =
            if step.m.iter().product::<usize>() < PARALLEL_MIN_POINTS { 1 } else { threads };
        if forward {
            inner_phases(data, &step, pass, threads);
            outer_phase(data, &step, pass, threads);
        } else {
            outer_phase(data, &step, pass, threads);
            inner_phases(data, &step, pass, threads);
        }
    }
}

/// The phases whose lines stay inside one unit — x and y lines of each
/// z-slab, x lines of each row — with whole units dealt to the workers.
fn inner_phases(data: &mut [f64], step: &Step, pass: Pass, threads: usize) {
    let with_y = step.three_d && step.m[1] >= 2;
    if step.m[0] < 2 && !with_y {
        return;
    }
    let units: Vec<&mut [f64]> = step.units(data).collect();
    let workers = threads.clamp(1, units.len());
    run_jobs(split_even(units, workers), |mut mine: Vec<&mut [f64]>| {
        let mut scratch = Vec::new();
        if step.three_d {
            for slab in mine {
                let mut rows: Vec<&mut [f64]> =
                    slab.chunks_mut(step.row_stride()).map(|c| &mut c[..step.nx]).collect();
                rows_phases(&mut rows, step, with_y, pass, &mut scratch);
            }
        } else {
            rows_phases(&mut mine, step, false, pass, &mut scratch);
        }
    });
}

/// x lines of every row in `rows`, and (`with_y`) the y lines across them.
fn rows_phases(
    rows: &mut [&mut [f64]],
    step: &Step,
    with_y: bool,
    pass: Pass,
    scratch: &mut Vec<f64>,
) {
    if with_y && !pass.forward {
        across(rows, step.xs, step.m[0], &step.pivots[1], pass, scratch);
    }
    if step.m[0] >= 2 {
        let (xs, m, pivots) = (step.xs, step.m[0], &step.pivots[0]);
        let mut groups = rows.chunks_exact_mut(GROUP);
        for group in &mut groups {
            along::<GROUP>(group, xs, m, pivots, pass, scratch);
        }
        for row in groups.into_remainder() {
            along::<1>(std::slice::from_mut(row), xs, m, pivots, pass, scratch);
        }
    }
    if with_y && pass.forward {
        across(rows, step.xs, step.m[0], &step.pivots[1], pass, scratch);
    }
}

/// The phase whose lines cross the units — z lines of a 3-D grid, y lines
/// of a 2-D one. Every unit is split into per-worker ranges of its active
/// rows (3-D) or active x points (2-D), so a worker owns the same range of
/// every unit and with it every line through that range.
fn outer_phase(data: &mut [f64], step: &Step, pass: Pass, threads: usize) {
    let (lines, splittable, quantum) = if step.three_d {
        (step.m[2], step.m[1], step.row_stride())
    } else {
        (step.m[1], step.m[0], step.xs)
    };
    if lines < 2 {
        return;
    }
    let pivots = &step.pivots[if step.three_d { 2 } else { 1 }];
    let workers = threads.clamp(1, splittable);
    let mut jobs: Vec<(Range<usize>, Vec<&mut [f64]>)> =
        (0..workers).map(|w| (share(splittable, workers, w), Vec::with_capacity(lines))).collect();
    for unit in step.units(data) {
        let mut rest = unit;
        let mut at = 0;
        for (w, (range, pieces)) in jobs.iter_mut().enumerate() {
            let end = if w + 1 == workers { step.unit } else { range.end * quantum };
            let (piece, tail) = std::mem::take(&mut rest).split_at_mut(end - at);
            pieces.push(piece);
            rest = tail;
            at = end;
        }
    }
    run_jobs(jobs, |(range, mut pieces): (Range<usize>, Vec<&mut [f64]>)| {
        let mut scratch = Vec::new();
        // 3-D: one batch per active row of the y-range, as wide as the
        // row's active x points. 2-D: the x-range is the batch.
        let (batches, width) =
            if step.three_d { (range.len(), step.m[0]) } else { (1, range.len()) };
        for batch in 0..batches {
            let offset = batch * quantum;
            let mut rows: Vec<&mut [f64]> = pieces.iter_mut().map(|p| &mut p[offset..]).collect();
            across(&mut rows, step.xs, width, pivots, pass, &mut scratch);
        }
    });
}

/// Items `share(n, parts, w)` of `n` go to part `w`: contiguous, in order,
/// sizes within one of each other.
fn share(n: usize, parts: usize, w: usize) -> Range<usize> {
    n * w / parts..n * (w + 1) / parts
}

/// `items` cut into `parts` contiguous runs by [`share`].
fn split_even<T>(items: Vec<T>, parts: usize) -> Vec<Vec<T>> {
    let n = items.len();
    let mut items = items.into_iter();
    (0..parts).map(|w| items.by_ref().take(share(n, parts, w).len()).collect()).collect()
}

/// `d[k·sd] = f(d[k·sd], a[k·sa])` for `k < n`. With unit strides this is
/// a zipped loop over slices, which the compiler vectorises.
#[inline(always)]
fn zip2(n: usize, d: &mut [f64], sd: usize, a: &[f64], sa: usize, f: impl Fn(f64, f64) -> f64) {
    if sd == 1 && sa == 1 {
        for (d, &a) in d[..n].iter_mut().zip(&a[..n]) {
            *d = f(*d, a);
        }
    } else {
        for k in 0..n {
            d[k * sd] = f(d[k * sd], a[k * sa]);
        }
    }
}

/// `d[k·sd] = f(d[k·sd], a[k·ss], b[k·ss])` for `k < n`; see [`zip2`].
#[inline(always)]
fn zip3(
    n: usize,
    d: &mut [f64],
    sd: usize,
    a: &[f64],
    b: &[f64],
    ss: usize,
    f: impl Fn(f64, f64, f64) -> f64,
) {
    if sd == 1 && ss == 1 {
        for ((d, &a), &b) in d[..n].iter_mut().zip(&a[..n]).zip(&b[..n]) {
            *d = f(*d, a, b);
        }
    } else {
        for k in 0..n {
            d[k * sd] = f(d[k * sd], a[k * ss], b[k * ss]);
        }
    }
}

/// Transform the `width` lines that run *across* `rows`: line `k` is
/// `rows[0][k·xs], rows[1][k·xs], …`, one point per row.
fn across(
    rows: &mut [&mut [f64]],
    xs: usize,
    width: usize,
    pivots: &CoarsePivots,
    pass: Pass,
    scratch: &mut Vec<f64>,
) {
    if pass.forward {
        predict_across(rows, xs, width, true);
    }
    if pass.l2 {
        correct_across(rows, xs, width, pivots, pass.forward, scratch);
    }
    if !pass.forward {
        predict_across(rows, xs, width, false);
    }
}

/// `forward_line`'s predict (`inverse_line`'s un-predict) on every odd row.
fn predict_across(rows: &mut [&mut [f64]], xs: usize, width: usize, forward: bool) {
    for j in (1..rows.len()).step_by(2) {
        let (before, rest) = rows.split_at_mut(j);
        let prev: &[f64] = before[j - 1];
        let Some((cur, after)) = rest.split_first_mut() else {
            return;
        };
        match (after.first(), forward) {
            (Some(next), true) => zip3(width, cur, xs, prev, next, xs, |c, a, b| c - 0.5 * (a + b)),
            (Some(next), false) => {
                zip3(width, cur, xs, prev, next, xs, |c, a, b| c + 0.5 * (a + b));
            }
            (None, true) => zip2(width, cur, xs, prev, xs, |c, a| c - a),
            (None, false) => zip2(width, cur, xs, prev, xs, |c, a| c + a),
        }
    }
}

/// The L2 correction of every line across `rows`: load row `i` of the
/// scratch from the detail rows either side of coarse row `2i`, solve all
/// `width` systems at once, add (forward) or subtract (inverse).
fn correct_across(
    rows: &mut [&mut [f64]],
    xs: usize,
    width: usize,
    pivots: &CoarsePivots,
    forward: bool,
    scratch: &mut Vec<f64>,
) {
    let coarse = rows.len().div_ceil(2);
    scratch.clear();
    scratch.resize(coarse * width, 0.0);
    for (i, load) in scratch.chunks_exact_mut(width).enumerate() {
        let left: Option<&[f64]> = if i > 0 { Some(&*rows[2 * i - 1]) } else { None };
        let right: Option<&[f64]> = rows.get(2 * i + 1).map(|r| &**r);
        match (left, right) {
            (Some(l), Some(r)) => {
                zip3(width, load, 1, l, r, xs, |_, l, r| (0.0 + 0.5 * l) + 0.5 * r);
            }
            (Some(d), None) | (None, Some(d)) => zip2(width, load, 1, d, xs, |_, d| 0.0 + 0.5 * d),
            (None, None) => {}
        }
    }
    pivots.solve_lanes(scratch, width);
    for (i, z) in scratch.chunks_exact(width).enumerate() {
        if forward {
            zip2(width, rows[2 * i], xs, z, 1, |c, z| c + z);
        } else {
            zip2(width, rows[2 * i], xs, z, 1, |c, z| c - z);
        }
    }
}

/// Transform one line *along* each of the `G` rows: `m` points at stride
/// `xs`, in place, the rows interleaved through the solve.
fn along<const G: usize>(
    rows: &mut [&mut [f64]],
    xs: usize,
    m: usize,
    pivots: &CoarsePivots,
    pass: Pass,
    scratch: &mut Vec<f64>,
) {
    if pass.forward {
        for row in rows.iter_mut() {
            predict_along(row, xs, m, true);
        }
    }
    if pass.l2 {
        let coarse = m.div_ceil(2);
        scratch.clear();
        scratch.resize(coarse * G, 0.0);
        for (i, load) in scratch.chunks_exact_mut(G).enumerate() {
            for (b, row) in load.iter_mut().zip(rows.iter()) {
                let mut acc = 0.0;
                if i > 0 {
                    acc += 0.5 * row[(2 * i - 1) * xs];
                }
                if 2 * i + 1 < m {
                    acc += 0.5 * row[(2 * i + 1) * xs];
                }
                *b = acc;
            }
        }
        pivots.solve_lanes(scratch, G);
        for (i, z) in scratch.chunks_exact(G).enumerate() {
            for (&z, row) in z.iter().zip(rows.iter_mut()) {
                if pass.forward {
                    row[2 * i * xs] += z;
                } else {
                    row[2 * i * xs] -= z;
                }
            }
        }
    }
    if !pass.forward {
        for row in rows.iter_mut() {
            predict_along(row, xs, m, false);
        }
    }
}

/// `forward_line`'s predict (`inverse_line`'s un-predict) along one row.
fn predict_along(row: &mut [f64], xs: usize, m: usize, forward: bool) {
    for j in (1..m).step_by(2) {
        let prev = row[(j - 1) * xs];
        let pred = if j + 1 < m { 0.5 * (prev + row[(j + 1) * xs]) } else { prev };
        if forward {
            row[j * xs] -= pred;
        } else {
            row[j * xs] += pred;
        }
    }
}
