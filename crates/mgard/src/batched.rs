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
//!   `ceil(m/2) × m0` load scratch per worker. A batch of lines takes two
//!   sweeps over its rows, one per sweep of the tridiagonal solve: the
//!   ascending one predicts (forward), builds each load row and eliminates
//!   it against the row before ([`CoarsePivots::eliminate_row`]); the
//!   descending one back-substitutes each load row
//!   ([`CoarsePivots::substitute_row`]), corrects the coarse row it
//!   belongs to and (inverse) un-predicts the detail row after it. A row
//!   is thus read once per sweep rather than once per stage.
//! * **Lines along x** are transformed a row at a time by sweeps
//!   ([`along`]): one pass per row builds its load (predicting first on
//!   the forward), the lane solve takes [`GROUP`] rows at once, one lane
//!   each, and one pass per row applies the correction (and, on the
//!   inverse, un-predicts). No row is gathered.
//!
//! Bit-identity with the oracle holds by construction: every element goes
//! through the oracle's IEEE operation sequence (same expression order,
//! the load accumulation starting from `0.0`, a *divide* by the pivot),
//! the pivots come from the same expressions
//! ([`CoarsePivots`]), and no operation combines values of different
//! lines, so neither vector width nor worker count can reorder anything.
//! Fusing stages into sweeps moves only when an element's operations run
//! relative to *other* elements'; each still reads only values the oracle
//! has already finished when it runs (see [`across`]).
//!
//! Every job body, and the lane solve it calls, is compiled twice: at the
//! target's baseline and, on x86_64, under `#[target_feature(enable =
//! "avx2")]`, entered once per job when the policy's kernel resolves to
//! [`TileImpl::Simd`] and the runtime probe finds AVX2 — the arrangement
//! of `encode_kernel::encode_chunk`. Neither build contracts a multiply
//! and an add, so both are the same IEEE sequence at different widths.
//!
//! Parallelism is safe-Rust splitting, not copying. The x and y phases of
//! a 3-D step run back to back per z-slab (`chunks_mut`) while the slab is
//! in cache; for the z phase every slab is `split_at_mut` into per-worker
//! y-ranges so a worker owns its piece of every slab. A 1-/2-D grid is the
//! same one dimension down: rows are dealt to workers for the x phase and
//! split into x-ranges for the y phase.

use crate::decompose::{active_size, Decomposer, TransformMode};
use crate::exec::{run_jobs, ExecPolicy, PARALLEL_MIN_POINTS};
use crate::transform::CoarsePivots;
use pmr_codec::TileImpl;
use std::ops::Range;

/// Rows whose x-lines share one lane solve: as wide as a y or z solve, so
/// it runs at the divider's throughput rather than its latency, and small
/// enough that the rows stay in cache between the sweeps either side.
const GROUP: usize = 64;

/// What every kernel needs to know about the transform being run.
#[derive(Clone, Copy)]
struct Pass {
    forward: bool,
    l2: bool,
    /// Run the jobs' AVX2 builds, if the CPU has AVX2.
    simd: bool,
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
/// ascending steps) or inverse (recompose, descending steps), on the
/// policy's workers — one for a step whose active grid is smaller than
/// [`PARALLEL_MIN_POINTS`] — in the build its kernel selects.
pub(crate) fn run(
    data: &mut [f64],
    plan: &Decomposer,
    steps: impl Iterator<Item = usize>,
    forward: bool,
    exec: &ExecPolicy,
) {
    let l2 = plan.mode() == TransformMode::L2Projection;
    let pass = Pass { forward, l2, simd: exec.kernel.tile_impl() == TileImpl::Simd };
    let threads = exec.resolved_threads();
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
    run_jobs(split_even(units, workers), |mine: Vec<&mut [f64]>| {
        #[cfg(target_arch = "x86_64")]
        if pass.simd && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the AVX2 feature requirement was just verified at runtime.
            return unsafe { inner_job_avx2(mine, step, with_y, pass) };
        }
        inner_job(mine, step, with_y, pass);
    });
}

/// [`inner_job`] compiled with AVX2 available to the optimizer.
///
/// # Safety
///
/// The caller must ensure the running CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
// SAFETY: contract fn — callers must verify AVX2 support (see # Safety above).
#[target_feature(enable = "avx2")]
unsafe fn inner_job_avx2(mine: Vec<&mut [f64]>, step: &Step, with_y: bool, pass: Pass) {
    inner_job(mine, step, with_y, pass);
}

/// One worker's units of [`inner_phases`].
#[inline(always)]
fn inner_job(mut mine: Vec<&mut [f64]>, step: &Step, with_y: bool, pass: Pass) {
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
}

/// x lines of every row in `rows`, and (`with_y`) the y lines across them.
#[inline(always)]
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
        for group in rows.chunks_mut(GROUP) {
            along(group, step.xs, step.m[0], &step.pivots[0], pass, scratch);
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
    run_jobs(jobs, |(range, pieces): (Range<usize>, Vec<&mut [f64]>)| {
        #[cfg(target_arch = "x86_64")]
        if pass.simd && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the AVX2 feature requirement was just verified at runtime.
            return unsafe { outer_job_avx2(range, pieces, step, pivots, quantum, pass) };
        }
        outer_job(range, pieces, step, pivots, quantum, pass);
    });
}

/// [`outer_job`] compiled with AVX2 available to the optimizer.
///
/// # Safety
///
/// The caller must ensure the running CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
// SAFETY: contract fn — callers must verify AVX2 support (see # Safety above).
#[target_feature(enable = "avx2")]
unsafe fn outer_job_avx2(
    range: Range<usize>,
    pieces: Vec<&mut [f64]>,
    step: &Step,
    pivots: &CoarsePivots,
    quantum: usize,
    pass: Pass,
) {
    outer_job(range, pieces, step, pivots, quantum, pass);
}

/// One worker's range of [`outer_phase`]: the lines through `range` of
/// every unit, whose pieces are `pieces`.
#[inline(always)]
fn outer_job(
    range: Range<usize>,
    mut pieces: Vec<&mut [f64]>,
    step: &Step,
    pivots: &CoarsePivots,
    quantum: usize,
    pass: Pass,
) {
    let mut scratch = Vec::new();
    // 3-D: one batch per active row of the y-range, as wide as the row's
    // active x points. 2-D: the x-range is the batch.
    let (batches, width) = if step.three_d { (range.len(), step.m[0]) } else { (1, range.len()) };
    for batch in 0..batches {
        let offset = batch * quantum;
        let mut rows: Vec<&mut [f64]> = pieces.iter_mut().map(|p| &mut p[offset..]).collect();
        across(&mut rows, step.xs, width, pivots, pass, &mut scratch);
    }
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
/// `rows[0][k·xs], rows[1][k·xs], …`, one point per row. Two sweeps over
/// the rows, one per sweep of the Thomas solve:
///
/// * **ascending**, coarse row `i` at a time: the forward first predicts
///   detail row `2i+1`; then load row `i` is built from the details either
///   side of coarse row `2i` and at once eliminated against load row `i−1`;
/// * **descending**: load row `i` is back-substituted from row `i+1`, and
///   coarse row `2i` corrected by it; the inverse then un-predicts detail
///   row `2i+1`, whose coarse neighbours `2i` and `2i+2` are final by then.
///
/// Every element still takes the oracle's operations in the oracle's order:
/// a detail is predicted before any load reads it, a load row is complete
/// before it is eliminated, a solve row is final before it corrects, and
/// an un-predict reads only corrected rows. Only the interleaving of
/// *different* elements' operations moves, and no operation reads a value
/// a later one writes.
#[inline(always)]
fn across(
    rows: &mut [&mut [f64]],
    xs: usize,
    width: usize,
    pivots: &CoarsePivots,
    pass: Pass,
    load: &mut Vec<f64>,
) {
    if !pass.l2 {
        for j in (1..rows.len()).step_by(2) {
            predict_row(rows, j, xs, width, pass.forward);
        }
        return;
    }
    load.clear();
    load.resize(rows.len().div_ceil(2) * width, 0.0);
    let mut prev: Option<&mut [f64]> = None;
    for (i, b) in load.chunks_exact_mut(width).enumerate() {
        if pass.forward {
            predict_row(rows, 2 * i + 1, xs, width, true);
        }
        load_row(rows, i, xs, width, b);
        pivots.eliminate_row(i, b, prev.as_deref());
        prev = Some(b);
    }
    let mut next: Option<&mut [f64]> = None;
    for (i, z) in load.chunks_exact_mut(width).enumerate().rev() {
        if let Some(next) = next.as_deref() {
            pivots.substitute_row(i, z, next);
        }
        if pass.forward {
            zip2(width, rows[2 * i], xs, z, 1, |c, z| c + z);
        } else {
            zip2(width, rows[2 * i], xs, z, 1, |c, z| c - z);
            predict_row(rows, 2 * i + 1, xs, width, false);
        }
        next = Some(z);
    }
}

/// `forward_line`'s predict (`inverse_line`'s un-predict) on odd row `j`,
/// from the coarse rows either side of it (the one before at the end). A
/// `j` one past the last row, after an odd line's last coarse row, is a
/// no-op.
#[inline(always)]
fn predict_row(rows: &mut [&mut [f64]], j: usize, xs: usize, width: usize, forward: bool) {
    let (before, rest) = rows.split_at_mut(j);
    let (Some(prev), Some((cur, after))) = (before.last(), rest.split_first_mut()) else {
        return;
    };
    match (after.first(), forward) {
        (Some(next), true) => zip3(width, cur, xs, prev, next, xs, |c, a, b| c - 0.5 * (a + b)),
        (Some(next), false) => zip3(width, cur, xs, prev, next, xs, |c, a, b| c + 0.5 * (a + b)),
        (None, true) => zip2(width, cur, xs, prev, xs, |c, a| c - a),
        (None, false) => zip2(width, cur, xs, prev, xs, |c, a| c + a),
    }
}

/// Load row `i` of the correction: the oracle's `(0.0 + 0.5·l) + 0.5·r`
/// from the detail rows either side of coarse row `2i`.
#[inline(always)]
fn load_row(rows: &[&mut [f64]], i: usize, xs: usize, width: usize, b: &mut [f64]) {
    let left: Option<&[f64]> = if i > 0 { Some(&*rows[2 * i - 1]) } else { None };
    let right: Option<&[f64]> = rows.get(2 * i + 1).map(|r| &**r);
    match (left, right) {
        (Some(l), Some(r)) => zip3(width, b, 1, l, r, xs, |_, l, r| (0.0 + 0.5 * l) + 0.5 * r),
        (Some(d), None) | (None, Some(d)) => zip2(width, b, 1, d, xs, |_, d| 0.0 + 0.5 * d),
        (None, None) => {}
    }
}

/// Transform one line *along* each of `rows`: `m` points at stride `xs`,
/// in place. One sweep per row on each side of the lane solve: the forward
/// predicts and builds the load in one pass and adds the correction in a
/// second; the inverse builds the load in one pass and subtracts the
/// correction and un-predicts in a second. Row `r` owns lane `r` of `load`.
#[inline(always)]
fn along(
    rows: &mut [&mut [f64]],
    xs: usize,
    m: usize,
    pivots: &CoarsePivots,
    pass: Pass,
    load: &mut Vec<f64>,
) {
    if xs == 1 {
        along_points(rows, Unit(m), pivots, pass, load);
    } else {
        along_points(rows, Strided(xs, m), pivots, pass, load);
    }
}

/// How the sweeps reach a row's points: step 0 walks a plain slice.
trait Points: Copy {
    fn of(self, row: &mut [f64]) -> impl Iterator<Item = &mut f64>;
    fn m(self) -> usize;
}

/// The first `m` elements of a row.
#[derive(Clone, Copy)]
struct Unit(usize);

/// `m` elements of a row, `xs` apart.
#[derive(Clone, Copy)]
struct Strided(usize, usize);

impl Points for Unit {
    #[inline(always)]
    fn of(self, row: &mut [f64]) -> impl Iterator<Item = &mut f64> {
        row[..self.0].iter_mut()
    }
    fn m(self) -> usize {
        self.0
    }
}

impl Points for Strided {
    #[inline(always)]
    fn of(self, row: &mut [f64]) -> impl Iterator<Item = &mut f64> {
        row.iter_mut().step_by(self.0).take(self.1)
    }
    fn m(self) -> usize {
        self.1
    }
}

/// The body of [`along`].
#[inline(always)]
fn along_points(
    rows: &mut [&mut [f64]],
    points: impl Points,
    pivots: &CoarsePivots,
    pass: Pass,
    load: &mut Vec<f64>,
) {
    if !pass.l2 {
        for row in rows.iter_mut() {
            predict_line(points.of(row), pass.forward);
        }
        return;
    }
    let lanes = rows.len();
    load.clear();
    load.resize(points.m().div_ceil(2) * lanes, 0.0);
    for (r, row) in rows.iter_mut().enumerate() {
        let lane = load.chunks_exact_mut(lanes).map(|b| &mut b[r]);
        if pass.forward {
            predict_load_line(points.of(row), lane);
        } else {
            load_line(points.of(row).map(|v| &*v), lane);
        }
    }
    pivots.solve_lanes(load, lanes, pass.simd);
    for (r, row) in rows.iter_mut().enumerate() {
        let lane = load.chunks_exact(lanes).map(|z| &z[r]);
        if pass.forward {
            correct_line(points.of(row).step_by(2), lane);
        } else {
            uncorrect_unpredict_line(points.of(row), lane);
        }
    }
}

// The per-line sweeps below walk a line `v` of `m >= 2` points as `v[0]`
// followed by the pairs `(v[2i+1], v[2i+2])`, `i < (m-1)/2` — a detail and
// the coarse point to its right — and, for even `m`, the last detail
// `v[m-1]` with no right neighbour. They are the oracle's loops
// (`forward_line`/`inverse_line`) reordered by point, each element going
// through the same expression.
//
// Load entry `i` of the oracle is `(0.0 + h[i-1]) + h[i]` with `h[j] =
// 0.5·d[j]`, a missing term left out. Left out at `i = 0` it is the same
// value as `(0.0 + 0.0) + h[0]`; left out at the last entry of an odd line,
// the same as `x + (-0.0)` for `x = 0.0 + h`, which is `x` itself (never
// `-0.0`, a NaN kept). So one carried `left = 0.0 + h[i-1]`, starting at
// `0.0`, builds every entry with `0.5·d` taken once per detail.

/// `forward_line`'s predict (`inverse_line`'s un-predict) of one line.
#[inline(always)]
fn predict_line<'a>(mut v: impl Iterator<Item = &'a mut f64>, forward: bool) {
    let Some(&mut mut prev) = v.next() else {
        return;
    };
    while let Some(d) = v.next() {
        let Some(&mut c) = v.next() else {
            *d = if forward { *d - prev } else { *d + prev };
            return;
        };
        let pred = 0.5 * (prev + c);
        *d = if forward { *d - pred } else { *d + pred };
        prev = c;
    }
}

/// The forward predict of one line fused with its load: writes the
/// details and the `⌈m/2⌉` load entries of `lane`.
#[inline(always)]
fn predict_load_line<'a, 'b>(
    mut v: impl Iterator<Item = &'a mut f64>,
    mut lane: impl Iterator<Item = &'b mut f64>,
) {
    let Some(&mut mut prev) = v.next() else {
        return;
    };
    let mut left = 0.0;
    while let Some(d) = v.next() {
        let Some(b) = lane.next() else {
            return;
        };
        let Some(&mut c) = v.next() else {
            *d -= prev;
            *b = left + 0.5 * *d;
            return;
        };
        *d -= 0.5 * (prev + c);
        let h = 0.5 * *d;
        *b = left + h;
        left = 0.0 + h;
        prev = c;
    }
    if let Some(b) = lane.next() {
        *b = left;
    }
}

/// The inverse's load of one line into `lane`.
#[inline(always)]
fn load_line<'a, 'b>(
    mut v: impl Iterator<Item = &'a f64>,
    mut lane: impl Iterator<Item = &'b mut f64>,
) {
    let mut left = 0.0;
    v.next();
    while let Some(&d) = v.next() {
        let Some(b) = lane.next() else {
            return;
        };
        let h = 0.5 * d;
        *b = left + h;
        left = 0.0 + h;
        v.next();
    }
    if let Some(b) = lane.next() {
        *b = left;
    }
}

/// The forward correction of one line's coarse points `c`: `c[i] + z[i]`.
#[inline(always)]
fn correct_line<'a, 'b>(c: impl Iterator<Item = &'a mut f64>, lane: impl Iterator<Item = &'b f64>) {
    for (c, &z) in c.zip(lane) {
        *c += z;
    }
}

/// The inverse's correction and un-predict of one line in one pass: each
/// coarse point is corrected just before the detail to its left, which
/// reads it, is un-predicted.
#[inline(always)]
fn uncorrect_unpredict_line<'a, 'b>(
    mut v: impl Iterator<Item = &'a mut f64>,
    mut lane: impl Iterator<Item = &'b f64>,
) {
    let (Some(first), Some(&z)) = (v.next(), lane.next()) else {
        return;
    };
    *first -= z;
    let mut prev = *first;
    while let Some(d) = v.next() {
        let (Some(c), Some(&z)) = (v.next(), lane.next()) else {
            *d += prev;
            return;
        };
        *c -= z;
        *d += 0.5 * (prev + *c);
        prev = *c;
    }
}
