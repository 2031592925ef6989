//! Multilevel decomposition of 1-/2-/3-D fields and the level interleaver.
//!
//! A [`Decomposer`] with `L` coefficient levels performs `L - 1` separable
//! decomposition steps. At step `s` the active grid consists of the nodes
//! whose coordinates are all multiples of `2^s`; the step runs the 1-D
//! transform of [`crate::transform`] along every active line of every
//! dimension, leaving details at nodes that drop out of the next-coarser
//! grid.
//!
//! **Level convention** (paper Fig. 5): level `0` is the *highest* level with
//! the *lowest* resolution — the coarsest-grid approximation values; level
//! `L-1` is the finest detail shell. Level `j > 0` holds the details created
//! at decomposition step `s = (L-1) - j`.

use crate::batched;
use crate::exec::ExecPolicy;
use crate::transform::{forward_line, inverse_line, LineScratch};
use pmr_field::Shape;
use std::ops::Range;

/// Which multilevel transform to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransformMode {
    /// Pure interpolating hierarchy (details only; coarse values untouched).
    Interpolation,
    /// MGARD-style hierarchy: interpolation plus the multigrid L2-projection
    /// correction on coarse values. This is the default and the mode whose
    /// error theory the paper analyses.
    L2Projection,
}

/// A reusable multilevel decomposition plan for one grid shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposer {
    shape: Shape,
    /// Number of coefficient levels `L` (steps = L - 1).
    levels: usize,
    mode: TransformMode,
}

impl Decomposer {
    /// Create a decomposer with (up to) `levels` coefficient levels.
    ///
    /// `levels` is clamped to [`Decomposer::max_levels`] for the shape; use
    /// [`Decomposer::levels`] to observe the effective count.
    pub fn new(shape: Shape, levels: usize, mode: TransformMode) -> Self {
        let levels = levels.clamp(1, Self::max_levels(shape));
        Decomposer { shape, levels, mode }
    }

    /// The largest meaningful number of coefficient levels for `shape`:
    /// one more than the number of steps after which no dimension has two
    /// active points left.
    pub fn max_levels(shape: Shape) -> usize {
        let mut steps = 0usize;
        while (0..3).any(|d| active_size(shape.dim(d), steps) >= 2) {
            steps += 1;
        }
        steps + 1
    }

    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Effective number of coefficient levels `L`.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Number of decomposition steps (`L - 1`).
    pub fn steps(&self) -> usize {
        self.levels - 1
    }

    pub fn mode(&self) -> TransformMode {
        self.mode
    }

    /// Number of dimensions still being transformed at step `s` (some
    /// dimensions collapse to a single point before others on anisotropic
    /// grids). Used by the theory error estimator.
    pub fn active_dims_at_step(&self, s: usize) -> usize {
        (0..3).filter(|&d| active_size(self.shape.dim(d), s) >= 2).count()
    }

    /// Forward transform, in place. `data.len()` must equal `shape.len()`.
    pub fn decompose(&self, data: &mut [f64]) {
        assert_eq!(data.len(), self.shape.len(), "data/shape length mismatch");
        let mut scratch = LineScratch::new();
        for s in 0..self.steps() {
            for d in 0..3 {
                self.transform_dim(data, s, d, true, &mut scratch);
            }
        }
    }

    /// Inverse transform, in place.
    pub fn recompose(&self, data: &mut [f64]) {
        assert_eq!(data.len(), self.shape.len(), "data/shape length mismatch");
        let mut scratch = LineScratch::new();
        for s in (0..self.steps()).rev() {
            for d in (0..3).rev() {
                self.transform_dim(data, s, d, false, &mut scratch);
            }
        }
    }

    /// [`Decomposer::decompose`] under an explicit execution policy, by the
    /// plane-batched kernels of `crate::batched`: bit-identical to the
    /// per-line path above at every thread count.
    pub fn decompose_with(&self, data: &mut [f64], exec: &ExecPolicy) {
        assert_eq!(data.len(), self.shape.len(), "data/shape length mismatch");
        batched::run(data, self, 0..self.steps(), true, exec);
    }

    /// [`Decomposer::recompose`] under an explicit execution policy.
    pub fn recompose_with(&self, data: &mut [f64], exec: &ExecPolicy) {
        assert_eq!(data.len(), self.shape.len(), "data/shape length mismatch");
        batched::run(data, self, (0..self.steps()).rev(), false, exec);
    }

    /// [`Decomposer::recompose_to_level`] under an explicit execution policy.
    pub fn recompose_to_level_with(
        &self,
        data: &mut [f64],
        target_level: usize,
        exec: &ExecPolicy,
    ) -> Vec<f64> {
        assert_eq!(data.len(), self.shape.len(), "data/shape length mismatch");
        assert!(target_level < self.levels(), "level out of range");
        let stop_step = self.steps() - target_level;
        batched::run(data, self, (stop_step..self.steps()).rev(), false, exec);
        self.gather_coarse(data, target_level, stop_step)
    }

    /// Shape of the grid at coefficient level `target_level`
    /// (`0` = coarsest approximation grid, `levels() - 1` = one step above
    /// the full grid, `levels()` would be the full grid itself).
    pub fn grid_shape_at_level(&self, target_level: usize) -> Shape {
        assert!(target_level < self.levels(), "level out of range");
        let s = self.steps() - target_level;
        let d = |i: usize| active_size(self.shape.dim(i), s);
        match self.shape.ndim() {
            1 => Shape::d1(d(0)),
            2 => Shape::d2(d(0), d(1)),
            _ => Shape::d3(d(0), d(1), d(2)),
        }
    }

    /// Partially recompose `data` up to the grid of `target_level` and
    /// extract that coarse grid as a dense array (row-major).
    ///
    /// This is the "reduced degrees of freedom" path of progressive
    /// retrieval (paper §I): an analysis that only needs a coarse view
    /// never materialises — or pays recomposition for — the fine grid.
    pub fn recompose_to_level(&self, data: &mut [f64], target_level: usize) -> Vec<f64> {
        assert_eq!(data.len(), self.shape.len(), "data/shape length mismatch");
        assert!(target_level < self.levels(), "level out of range");
        let stop_step = self.steps() - target_level;
        let mut scratch = LineScratch::new();
        for s in (stop_step..self.steps()).rev() {
            for d in (0..3).rev() {
                self.transform_dim(data, s, d, false, &mut scratch);
            }
        }
        self.gather_coarse(data, target_level, stop_step)
    }

    /// Gather the active nodes of `stop_step` into a dense coarse grid.
    fn gather_coarse(&self, data: &[f64], target_level: usize, stop_step: usize) -> Vec<f64> {
        let coarse = self.grid_shape_at_level(target_level);
        let stride = 1usize << stop_step;
        let mut out = Vec::with_capacity(coarse.len());
        for z in 0..coarse.dim(2) {
            for y in 0..coarse.dim(1) {
                for x in 0..coarse.dim(0) {
                    out.push(data[self.shape.index(x * stride, y * stride, z * stride)]);
                }
            }
        }
        out
    }

    /// Line geometry of the `(step, dimension)` phase, or `None` when the
    /// dimension has collapsed to a single active point.
    fn phase_job(&self, s: usize, d: usize) -> Option<PhaseJob> {
        let n = self.shape.dim(d);
        let m = active_size(n, s);
        if m < 2 {
            return None;
        }
        let stride = self.shape.stride(d) << s;
        let (d1, d2) = other_dims(d);
        let (n1, n2) = (self.shape.dim(d1), self.shape.dim(d2));
        let (st1, st2) = (self.shape.stride(d1) << s, self.shape.stride(d2) << s);
        let (m1, m2) = (active_size(n1, s), active_size(n2, s));
        Some(PhaseJob { stride, st1, st2, m, m1, m2 })
    }

    /// Run the 1-D transform along dimension `d` on every active line of
    /// step `s`.
    fn transform_dim(
        &self,
        data: &mut [f64],
        s: usize,
        d: usize,
        forward: bool,
        scratch: &mut LineScratch,
    ) {
        let Some(j) = self.phase_job(s, d) else {
            return;
        };
        let mut line = std::mem::take(&mut scratch.line);
        line.resize(j.m, 0.0);
        for i2 in 0..j.m2 {
            for i1 in 0..j.m1 {
                let base = i1 * j.st1 + i2 * j.st2;
                for (k, v) in line.iter_mut().enumerate() {
                    *v = data[base + k * j.stride];
                }
                if forward {
                    forward_line(&mut line, self.mode, scratch);
                } else {
                    inverse_line(&mut line, self.mode, scratch);
                }
                for (k, v) in line.iter().enumerate() {
                    data[base + k * j.stride] = *v;
                }
            }
        }
        scratch.line = line;
    }

    /// Coefficient level of the node at `(x, y, z)` under the convention
    /// documented at module level.
    fn level_of_node(&self, x: usize, y: usize, z: usize) -> usize {
        let steps = self.steps();
        let mut s = 0;
        while s < steps {
            let p = 1usize << (s + 1);
            if x.is_multiple_of(p) && y.is_multiple_of(p) && z.is_multiple_of(p) {
                s += 1;
            } else {
                break;
            }
        }
        steps - s
    }

    /// Linear indices of every node, grouped by coefficient level, each
    /// group in row-major scan order. The level-order contract: the encoder
    /// reads and the decoder writes a level's coefficients at these
    /// positions, in this order, through `Decomposer::level_runs`, which is
    /// tested against these lists.
    pub fn level_indices(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.levels];
        let sh = self.shape;
        for z in 0..sh.dim(2) {
            for y in 0..sh.dim(1) {
                for x in 0..sh.dim(0) {
                    groups[self.level_of_node(x, y, z)].push(sh.index(x, y, z));
                }
            }
        }
        groups
    }

    /// Number of nodes at each coefficient level — the group lengths of
    /// [`Decomposer::level_indices`] in closed form: level 0 is the coarsest
    /// grid, level `j > 0` the nodes of grid `j` that are not in grid `j − 1`.
    pub fn level_counts(&self) -> Vec<usize> {
        let mut coarser = 0;
        (0..self.levels)
            .map(|level| {
                let nodes = self.grid_shape_at_level(level).len();
                let count = nodes - coarser;
                coarser = nodes;
                count
            })
            .collect()
    }

    /// Decomposition steps the coordinate `c` stays active for, capped at
    /// this plan's step count (`0` stays active throughout).
    fn steps_active(&self, c: usize) -> usize {
        (c.trailing_zeros() as usize).min(self.steps())
    }

    /// The grid's x-rows in scan order, each with the number of steps its
    /// `(y, z)` stays active for and its range of linear indices. Node `x` of
    /// a row that stays for `r` steps has level
    /// `steps − min(r, steps_active(x))`, so a row with odd `y` or `z`
    /// (`r = 0`) lies entirely in the finest level.
    fn rows_by_step(&self) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> + '_ {
        let [nx, ny, nz] = self.shape.dims();
        (0..ny * nz).map(move |row| {
            let stays = self.steps_active(row % ny).min(self.steps_active(row / ny));
            (stays, row * nx..(row + 1) * nx)
        })
    }

    /// Gather decomposed data into one contiguous coefficient array per
    /// level (the "interleaver" of the MGARD pipeline): the values at
    /// [`Decomposer::level_indices`], read along `Decomposer::level_runs`
    /// without materialising the index lists.
    ///
    /// Compression does not call this: the encoder reads every level
    /// straight from the decomposed grid through the same runs. It stays
    /// as the staged oracle of that placed encode (`interleave`, then
    /// [`crate::LevelEncoding::encode_with`] per level, must give the same
    /// bytes) and is what e2e-bench's traced replay of a compress times.
    pub fn interleave(&self, data: &[f64]) -> Vec<Vec<f64>> {
        assert_eq!(data.len(), self.shape.len());
        self.level_runs()
            .iter()
            .zip(self.level_counts())
            .map(|(runs, count)| {
                let mut level = Vec::with_capacity(count);
                for run in runs {
                    let from = &data[run.start..];
                    if run.stride == 1 {
                        level.extend_from_slice(&from[..run.count]);
                    } else {
                        level.extend(from.iter().step_by(run.stride).take(run.count));
                    }
                }
                level
            })
            .collect()
    }

    /// Scatter per-level coefficient arrays back into a full grid buffer
    /// (the inverse of [`Decomposer::interleave`]) along
    /// `Decomposer::level_runs` — the placement the retrieval decoder
    /// writes through. Arrays of the wrong length (never produced by
    /// `interleave`, but possible with truncated external input) are
    /// rejected.
    pub fn deinterleave(&self, levels: &[Vec<f64>]) -> Vec<f64> {
        assert_eq!(levels.len(), self.levels, "level count mismatch");
        for (group, count) in levels.iter().zip(self.level_counts()) {
            assert_eq!(group.len(), count, "level size mismatch");
        }
        let mut data = vec![0.0; self.shape.len()];
        for (values, runs) in levels.iter().zip(self.level_runs()) {
            Placer::new(&runs, 0).put(&mut data, values);
        }
        data
    }

    /// Every level's nodes as strided runs along the x-rows: level `l`'s
    /// coefficient `i` sits at the `i`-th position of `level_runs()[l]`,
    /// taken run by run. Runs come in row-major order, so a level's
    /// positions rise with its coefficient index — the order
    /// [`Decomposer::level_indices`] pins.
    ///
    /// A row whose `(y, z)` stays active for `r` steps holds, for each
    /// `t < r`, the `x` with exactly `t` trailing zeros at level
    /// `steps − t`, and the multiples of `2^r` at level `steps − r`.
    pub(crate) fn level_runs(&self) -> Vec<Vec<Run>> {
        let steps = self.steps();
        let nx = self.shape.dim(0);
        let mut levels = vec![Vec::new(); self.levels];
        for (stays, row) in self.rows_by_step() {
            for t in 0..stays {
                let lead = 1usize << t;
                if nx > lead {
                    let count = (nx - lead).div_ceil(2 * lead);
                    levels[steps - t].push(Run {
                        start: row.start + lead,
                        stride: 2 * lead,
                        count,
                    });
                }
            }
            let stride = 1usize << stays;
            levels[steps - stays].push(Run {
                start: row.start,
                stride,
                count: nx.div_ceil(stride),
            });
        }
        // The encoder holds these beside the grid while it runs.
        for runs in &mut levels {
            runs.shrink_to_fit();
        }
        levels
    }
}

/// `count` grid nodes of one level, `stride` apart from linear index
/// `start`, all on one x-row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Run {
    pub start: usize,
    pub stride: usize,
    pub count: usize,
}

impl Run {
    /// A level laid out on its own: `count` consecutive values from 0.
    pub(crate) fn dense(count: usize) -> Run {
        Run { start: 0, stride: 1, count }
    }
}

/// A cursor over a level's coefficients, in level order, at the positions
/// its runs name: the decoder writes through it ([`Placer::put`]), the
/// encoder reads through it ([`Placer::get`]). Slice position `0` is grid
/// position `base`, so a worker can own the slice of the grid its
/// coefficients land in.
pub(crate) struct Placer<'r> {
    runs: std::slice::Iter<'r, Run>,
    base: usize,
    /// Grid position of the next node, and what is left of its run.
    at: usize,
    stride: usize,
    left: usize,
}

impl<'r> Placer<'r> {
    /// A cursor at the first node of `runs`.
    pub(crate) fn new(runs: &'r [Run], base: usize) -> Self {
        Placer { runs: runs.iter(), base, at: base, stride: 1, left: 0 }
    }

    /// Deal the `count` nodes of `runs` out as ranges of `chunk` nodes,
    /// each with a cursor at its first node and the part of `grid` it
    /// writes to. A level's positions rise with its node index, so cutting
    /// `grid` at each range's first position gives every range the one
    /// stretch its nodes lie in.
    pub(crate) fn split<'g, T>(
        runs: &'r [Run],
        grid: &'g mut [T],
        count: usize,
        chunk: usize,
    ) -> Vec<(Range<usize>, Placer<'r>, &'g mut [T])> {
        let mut starts = Vec::with_capacity(count.div_ceil(chunk));
        let (mut r, mut before) = (0, 0);
        for lo in (0..count).step_by(chunk) {
            while before + runs[r].count <= lo {
                before += runs[r].count;
                r += 1;
            }
            starts.push((lo, r, lo - before, runs[r].start + (lo - before) * runs[r].stride));
        }
        let mut rest = grid;
        let mut jobs = Vec::with_capacity(starts.len());
        for (lo, r, skip, pos) in starts.into_iter().rev() {
            let (head, mine) = rest.split_at_mut(pos);
            rest = head;
            let mut placer = Placer::new(&runs[r..], pos);
            placer.skip(skip);
            jobs.push((lo..(lo + chunk).min(count), placer, mine));
        }
        jobs
    }

    /// Move over the next `n` nodes (fewer once the runs are used up) a run
    /// at a time: `f(at, stride, nodes)` for the `nodes.len()` of them that
    /// lie `stride` apart from grid position `at` and are nodes `nodes` of
    /// this move. Nodes skipped on the way to a worker's range lie before
    /// `base`, so `at` is a grid position, not a slice one.
    fn walk(&mut self, n: usize, mut f: impl FnMut(usize, usize, Range<usize>)) {
        let mut done = 0;
        while done < n {
            while self.left == 0 {
                let Some(run) = self.runs.next() else { return };
                (self.at, self.stride, self.left) = (run.start, run.stride, run.count);
            }
            let m = (n - done).min(self.left);
            f(self.at, self.stride, done..done + m);
            self.at += m * self.stride;
            self.left -= m;
            done += m;
        }
    }

    /// Move past the next `n` nodes without touching them.
    pub(crate) fn skip(&mut self, n: usize) {
        self.walk(n, |_, _, _| {});
    }

    /// Write `values` to the next `values.len()` nodes.
    pub(crate) fn put<T: Copy>(&mut self, out: &mut [T], values: &[T]) {
        let base = self.base;
        self.walk(values.len(), |at, stride, nodes| {
            let (from, now) = (at - base, &values[nodes]);
            if stride == 1 {
                out[from..from + now.len()].copy_from_slice(now);
            } else {
                for (slot, &v) in out[from..].iter_mut().step_by(stride).zip(now) {
                    *slot = v;
                }
            }
        });
    }

    /// Write `v` to the next `n` nodes.
    pub(crate) fn fill<T: Copy>(&mut self, out: &mut [T], n: usize, v: T) {
        let base = self.base;
        self.walk(n, |at, stride, nodes| {
            let from = at - base;
            if stride == 1 {
                out[from..from + nodes.len()].fill(v);
            } else {
                for slot in out[from..].iter_mut().step_by(stride).take(nodes.len()) {
                    *slot = v;
                }
            }
        });
    }

    /// Read the next `values.len()` nodes of `grid` into `values`.
    pub(crate) fn get(&mut self, grid: &[f64], values: &mut [f64]) {
        let base = self.base;
        self.walk(values.len(), |at, stride, nodes| {
            let (from, now) = (at - base, &mut values[nodes]);
            if stride == 1 {
                now.copy_from_slice(&grid[from..from + now.len()]);
            } else {
                for (v, &g) in now.iter_mut().zip(grid[from..].iter().step_by(stride)) {
                    *v = g;
                }
            }
        });
    }
}

/// Number of active points along a dimension of extent `n` at step `s`:
/// `ceil(n / 2^s)`.
pub fn active_size(n: usize, s: usize) -> usize {
    if s >= usize::BITS as usize {
        return 1;
    }
    n.div_ceil(1 << s)
}

/// Geometry of one `(step, dimension)` transform phase: `m1 * m2` independent
/// lines of `m` points each, with element stride `stride` and line-origin
/// strides `st1`/`st2` over the cross dimensions.
#[derive(Debug, Clone, Copy)]
struct PhaseJob {
    stride: usize,
    st1: usize,
    st2: usize,
    m: usize,
    m1: usize,
    m2: usize,
}

/// The two grid dimensions other than `d`, in ascending order. Total over
/// `usize` so phase construction stays panic-free; callers only ever pass
/// `0..3`.
fn other_dims(d: usize) -> (usize, usize) {
    debug_assert!(d < 3, "dimension out of range");
    match d {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(len: usize) -> Vec<f64> {
        (0..len).map(|i| ((i * 2654435761usize) % 1000) as f64 / 31.0 - 16.0).collect()
    }

    fn roundtrip(shape: Shape, levels: usize, mode: TransformMode) {
        let dec = Decomposer::new(shape, levels, mode);
        let orig = ramp(shape.len());
        let mut data = orig.clone();
        dec.decompose(&mut data);
        dec.recompose(&mut data);
        let max_err = orig.iter().zip(&data).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
        assert!(max_err < 1e-9, "shape={shape} levels={levels} mode={mode:?} err={max_err}");
    }

    #[test]
    fn roundtrip_1d() {
        for n in [2usize, 3, 5, 8, 9, 16, 17, 33, 64, 100] {
            for mode in [TransformMode::Interpolation, TransformMode::L2Projection] {
                roundtrip(Shape::d1(n), 4, mode);
            }
        }
    }

    #[test]
    fn roundtrip_2d() {
        for (nx, ny) in [(5, 9), (8, 8), (17, 33), (30, 7)] {
            for mode in [TransformMode::Interpolation, TransformMode::L2Projection] {
                roundtrip(Shape::d2(nx, ny), 5, mode);
            }
        }
    }

    #[test]
    fn roundtrip_3d() {
        for (nx, ny, nz) in [(9, 9, 9), (17, 17, 17), (8, 12, 20), (33, 5, 2)] {
            for mode in [TransformMode::Interpolation, TransformMode::L2Projection] {
                roundtrip(Shape::d3(nx, ny, nz), 5, mode);
            }
        }
    }

    #[test]
    fn max_levels_examples() {
        assert_eq!(Decomposer::max_levels(Shape::d1(2)), 2); // one step: 2 -> 1
        assert_eq!(Decomposer::max_levels(Shape::d1(3)), 3); // 3 -> 2 -> 1
        assert_eq!(Decomposer::max_levels(Shape::d1(65)), 8); // 65,33,17,9,5,3,2 -> 1
        assert_eq!(Decomposer::max_levels(Shape::cube(17)), 6);
    }

    #[test]
    fn levels_clamped() {
        let dec = Decomposer::new(Shape::d1(5), 99, TransformMode::Interpolation);
        assert_eq!(dec.levels(), Decomposer::max_levels(Shape::d1(5)));
        let one = Decomposer::new(Shape::d1(5), 0, TransformMode::Interpolation);
        assert_eq!(one.levels(), 1);
        assert_eq!(one.steps(), 0);
    }

    #[test]
    fn level_partition_covers_grid() {
        let dec = Decomposer::new(Shape::cube(9), 4, TransformMode::L2Projection);
        let groups = dec.level_indices();
        assert_eq!(groups.len(), 4);
        let total: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(total, 9 * 9 * 9);
        // Level 0 is the coarsest grid: ceil(9/8)=2 per dim -> 8 nodes.
        assert_eq!(groups[0].len(), 8);
        // Finest shell is the biggest group.
        assert!(groups[3].len() > groups[2].len());
    }

    /// 1-, 2- and 3-D decomposers, odd, even and anisotropic, at levels
    /// 1..=7 (clamped where the shape has fewer).
    fn layouts() -> impl Iterator<Item = Decomposer> {
        let d1 = [2usize, 3, 5, 8, 9, 16, 17, 33, 64, 100].map(Shape::d1);
        let d2 = [(5, 9), (8, 8), (17, 33), (30, 7), (33, 3), (1, 9)].map(|(x, y)| Shape::d2(x, y));
        let d3 = [(9, 9, 9), (17, 17, 17), (8, 12, 20), (33, 5, 2), (2, 3, 17)]
            .map(|(x, y, z)| Shape::d3(x, y, z));
        d1.into_iter().chain(d2).chain(d3).flat_map(|shape| {
            (1..=7).map(move |levels| Decomposer::new(shape, levels, TransformMode::L2Projection))
        })
    }

    #[test]
    fn level_counts_match_level_indices() {
        for dec in layouts() {
            let want: Vec<usize> = dec.level_indices().iter().map(Vec::len).collect();
            assert_eq!(dec.level_counts(), want, "shape={} levels={}", dec.shape(), dec.levels());
        }
    }

    #[test]
    fn level_runs_are_level_indices() {
        for dec in layouts() {
            let walked: Vec<Vec<usize>> = dec
                .level_runs()
                .iter()
                .map(|runs| {
                    runs.iter()
                        .flat_map(|r| (0..r.count).map(move |i| r.start + i * r.stride))
                        .collect()
                })
                .collect();
            assert_eq!(
                walked,
                dec.level_indices(),
                "shape={} levels={}",
                dec.shape(),
                dec.levels()
            );
        }
    }

    #[test]
    fn split_cursors_write_what_one_cursor_writes() {
        for dec in layouts().filter(|d| d.levels() > 1) {
            for (level, runs) in dec.level_runs().iter().enumerate() {
                let count: usize = runs.iter().map(|r| r.count).sum();
                let values: Vec<f64> = (1..=count).map(|i| i as f64).collect();
                let mut want = vec![0.0; dec.shape().len()];
                Placer::new(runs, 0).put(&mut want, &values);
                for chunk in [1, 3, 64] {
                    let mut got = vec![0.0; dec.shape().len()];
                    for (range, mut cursor, out) in Placer::split(runs, &mut got, count, chunk) {
                        cursor.put(out, &values[range]);
                    }
                    assert_eq!(got, want, "shape={} level={level} chunk={chunk}", dec.shape());
                }
            }
        }
    }

    #[test]
    fn skipped_cursors_read_what_interleave_gathers() {
        for dec in layouts().filter(|d| d.levels() > 1) {
            let data = ramp(dec.shape().len());
            for (level, (runs, want)) in
                dec.level_runs().iter().zip(dec.interleave(&data)).enumerate()
            {
                for chunk in [1, 3, 64] {
                    let mut got = vec![0.0; want.len()];
                    for (lo, out) in (0..want.len()).step_by(chunk).zip(got.chunks_mut(chunk)) {
                        let mut cursor = Placer::new(runs, 0);
                        cursor.skip(lo);
                        cursor.get(&data, out);
                    }
                    assert_eq!(got, want, "shape={} level={level} chunk={chunk}", dec.shape());
                }
            }
        }
    }

    #[test]
    fn placer_skips_and_writes_across_runs() {
        let runs = [
            Run { start: 1, stride: 2, count: 3 },
            Run { start: 8, stride: 1, count: 2 },
            Run { start: 12, stride: 3, count: 2 },
        ];
        let mut grid = vec![0.0; 16];
        let mut cursor = Placer::new(&runs, 0);
        cursor.put(&mut grid, &[1.0, 2.0]);
        cursor.skip(2);
        cursor.put(&mut grid, &[3.0, 4.0, 5.0]);
        let mut want = vec![0.0; 16];
        (want[1], want[3], want[9], want[12], want[15]) = (1.0, 2.0, 3.0, 4.0, 5.0);
        assert_eq!(grid, want);
        // A cursor over a slice starting at grid position 9.
        let mut tail = vec![0.0; 7];
        let mut cursor = Placer::new(&runs[1..], 9);
        cursor.skip(1);
        cursor.put(&mut tail, &[6.0, 7.0]);
        assert_eq!(tail, [6.0, 0.0, 0.0, 7.0, 0.0, 0.0, 0.0]);
        // A fill writes every node of the runs and nothing else.
        let mut grid = vec![0.0; 16];
        Placer::new(&runs, 0).fill(&mut grid, 7, -1.0);
        let nodes = [1, 3, 5, 8, 9, 12, 15];
        for (at, v) in grid.iter().enumerate() {
            assert_eq!(*v, if nodes.contains(&at) { -1.0 } else { 0.0 }, "node {at}");
        }
    }

    #[test]
    fn level_of_node_convention() {
        let dec = Decomposer::new(Shape::d1(9), 4, TransformMode::Interpolation);
        // steps = 3; node 0 and 8 divisible by 8 -> level 0.
        assert_eq!(dec.level_of_node(0, 0, 0), 0);
        assert_eq!(dec.level_of_node(8, 0, 0), 0);
        assert_eq!(dec.level_of_node(4, 0, 0), 1);
        assert_eq!(dec.level_of_node(2, 0, 0), 2);
        assert_eq!(dec.level_of_node(6, 0, 0), 2);
        assert_eq!(dec.level_of_node(1, 0, 0), 3);
        assert_eq!(dec.level_of_node(7, 0, 0), 3);
    }

    #[test]
    fn interleave_roundtrip() {
        let shape = Shape::d3(9, 5, 7);
        let dec = Decomposer::new(shape, 3, TransformMode::L2Projection);
        let data = ramp(shape.len());
        let levels = dec.interleave(&data);
        let back = dec.deinterleave(&levels);
        assert_eq!(back, data);
    }

    #[test]
    fn constant_field_has_zero_details() {
        let shape = Shape::cube(9);
        let dec = Decomposer::new(shape, 4, TransformMode::L2Projection);
        let mut data = vec![5.5; shape.len()];
        dec.decompose(&mut data);
        let levels = dec.interleave(&data);
        for (lvl, level) in levels.iter().enumerate().skip(1) {
            for &c in level {
                assert!(c.abs() < 1e-12, "level {lvl} coefficient {c}");
            }
        }
        // Coarsest approximation keeps the constant value.
        for &c in &levels[0] {
            assert!((c - 5.5).abs() < 1e-9);
        }
    }

    #[test]
    fn anisotropic_dims_collapse_gracefully() {
        // y collapses after 2 steps, x keeps going.
        let shape = Shape::d2(33, 3);
        let dec = Decomposer::new(shape, 5, TransformMode::L2Projection);
        assert_eq!(dec.active_dims_at_step(0), 2);
        assert_eq!(dec.active_dims_at_step(2), 1);
        roundtrip(shape, 5, TransformMode::L2Projection);
    }

    /// Steps whose active grid reaches `PARALLEL_MIN_POINTS` are split by
    /// the policy; the smaller ones run on the caller. Both must agree with
    /// the serial transform.
    #[test]
    fn steps_above_the_parallel_gate_split_bit_identically() {
        use crate::exec::ExecPolicy;
        let shape = Shape::d2(129, 128);
        let dec = Decomposer::new(shape, 4, TransformMode::L2Projection);
        let orig = ramp(shape.len());
        let mut serial = orig.clone();
        dec.decompose(&mut serial);
        for exec in [2, 3].map(ExecPolicy::with_threads) {
            let mut par = orig.clone();
            dec.decompose_with(&mut par, &exec);
            assert!(serial.iter().zip(&par).all(|(a, b)| a.to_bits() == b.to_bits()), "{exec:?}");
            dec.recompose_with(&mut par, &exec);
            let mut back = serial.clone();
            dec.recompose(&mut back);
            assert!(back.iter().zip(&par).all(|(a, b)| a.to_bits() == b.to_bits()), "{exec:?}");
        }
    }

    #[test]
    fn parallel_transform_is_bit_identical() {
        use crate::exec::ExecPolicy;
        for shape in [Shape::d1(100), Shape::d2(33, 17), Shape::d3(17, 9, 13)] {
            for mode in [TransformMode::Interpolation, TransformMode::L2Projection] {
                let dec = Decomposer::new(shape, 5, mode);
                let orig = ramp(shape.len());

                let mut serial = orig.clone();
                dec.decompose(&mut serial);
                for exec in [1, 2, 3, 4].map(ExecPolicy::with_threads) {
                    let mut par = orig.clone();
                    dec.decompose_with(&mut par, &exec);
                    let same = serial.iter().zip(&par).all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same, "decompose diverged: shape={shape} mode={mode:?} {exec:?}");

                    let mut back = par.clone();
                    dec.recompose_with(&mut back, &exec);
                    let mut back_serial = serial.clone();
                    dec.recompose(&mut back_serial);
                    let same =
                        back.iter().zip(&back_serial).all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same, "recompose diverged: shape={shape} mode={mode:?} {exec:?}");
                }
            }
        }
    }

    #[test]
    fn parallel_recompose_to_level_matches_serial() {
        use crate::exec::ExecPolicy;
        let shape = Shape::cube(17);
        let dec = Decomposer::new(shape, 4, TransformMode::L2Projection);
        let mut data = ramp(shape.len());
        dec.decompose(&mut data);
        for lvl in 0..dec.levels() {
            let mut a = data.clone();
            let mut b = data.clone();
            let coarse_serial = dec.recompose_to_level(&mut a, lvl);
            let coarse_par = dec.recompose_to_level_with(&mut b, lvl, &ExecPolicy::with_threads(4));
            assert_eq!(coarse_serial, coarse_par, "level {lvl}");
            assert_eq!(a, b, "level {lvl} full buffer");
        }
    }

    #[test]
    fn smooth_field_coefficients_decay_with_level() {
        // For smooth data, finer-level details should be smaller.
        let shape = Shape::cube(17);
        let dec = Decomposer::new(shape, 4, TransformMode::L2Projection);
        let mut data: Vec<f64> = (0..shape.len())
            .map(|i| {
                let (x, y, z) = shape.coords(i);
                ((x as f64) * 0.2).sin() + ((y as f64) * 0.15).cos() + 0.1 * (z as f64)
            })
            .collect();
        dec.decompose(&mut data);
        let levels = dec.interleave(&data);
        let max_of = |v: &[f64]| v.iter().fold(0.0f64, |m, &c| m.max(c.abs()));
        assert!(max_of(&levels[1]) > max_of(&levels[3]));
    }
}
