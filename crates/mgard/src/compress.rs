//! The high-level progressive compressor: one artifact per field holding
//! encoded planes, collected error matrix, and metadata — plus the hooks the
//! DNN retrievers plug into.

use crate::bitplane::{LevelEncoding, DEFAULT_BITPLANES};
use crate::decompose::{Decomposer, Run, TransformMode};
use crate::estimate::{estimate_error, theory_constants};
use crate::exec::{fan_out, ExecPolicy, AUTO, PARALLEL_MIN_COEFFS};
use crate::retrieve::{greedy_plan, greedy_plan_budget, plan_size, RetrievalPlan};
use pmr_codec::PlaneKernel;
use pmr_error::PmrError;
use pmr_field::{Field, Shape};
use std::convert::Infallible;
use std::mem::MaybeUninit;
use std::sync::OnceLock;

/// Compression parameters. [`CompressConfig::validate`] checks the knobs
/// a literal can set out of range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressConfig {
    /// Number of coefficient levels `L` (clamped to the shape's maximum).
    pub levels: usize,
    /// Bit-planes per level `B`.
    pub num_planes: u32,
    /// Multilevel transform variant.
    pub mode: TransformMode,
    /// Worker threads for the parallel data path; `0` = one per available
    /// core (see [`crate::exec::ExecPolicy`]).
    pub threads: usize,
    /// Bit-plane codec kernel for the encode/decode hot path; every kernel
    /// is bit-identical (see [`crate::exec::ExecPolicy::kernel`]). Defaults
    /// to [`PlaneKernel::Auto`].
    pub kernel: PlaneKernel,
}

impl Default for CompressConfig {
    fn default() -> Self {
        CompressConfig {
            levels: 5,
            num_planes: DEFAULT_BITPLANES,
            mode: TransformMode::L2Projection,
            threads: AUTO,
            kernel: PlaneKernel::Auto,
        }
    }
}

impl CompressConfig {
    /// Reject `levels == 0` and a `num_planes` outside `3..=50`.
    pub fn validate(&self) -> Result<(), PmrError> {
        if self.levels == 0 {
            return Err(PmrError::invalid_config("levels must be >= 1"));
        }
        if !(3..=50).contains(&self.num_planes) {
            return Err(PmrError::invalid_config(format!(
                "num_planes must lie in 3..=50, got {}",
                self.num_planes
            )));
        }
        Ok(())
    }

    /// The execution policy implied by the `threads`/`kernel` knobs.
    pub fn exec(&self) -> ExecPolicy {
        ExecPolicy { threads: self.threads, kernel: self.kernel }
    }
}

/// A progressively retrievable compressed field.
///
/// ```
/// use pmr_field::{Field, Shape};
/// use pmr_mgard::{CompressConfig, Compressed};
///
/// let field = Field::from_fn("demo", 0, Shape::cube(9), |x, y, _| {
///     ((x as f64) * 0.4).sin() + (y as f64) * 0.05
/// });
/// let compressed = Compressed::compress(&field, &CompressConfig::default());
///
/// // Plan a retrieval for an absolute error bound and execute it.
/// let plan = compressed.plan_theory(1e-3);
/// let approx = compressed.retrieve(&plan);
/// let err = pmr_field::error::max_abs_error(field.data(), approx.data());
/// assert!(err <= 1e-3);
/// assert!(compressed.retrieved_bytes(&plan) <= compressed.total_bytes());
/// ```
#[derive(Debug, Clone)]
pub struct Compressed {
    name: String,
    timestep: usize,
    decomposer: Decomposer,
    levels: Vec<LevelEncoding>,
    constants: Vec<f64>,
    /// `max - min` of the original data, recorded at compression time so
    /// that relative error bounds can be converted on retrieval (the paper
    /// assumes ranges are collected during the simulation).
    value_range: f64,
    /// Execution policy used by `retrieve`; runtime-only, not persisted.
    exec: ExecPolicy,
    /// Memo behind [`Compressed::level_signatures`]; runtime-only, not
    /// persisted, carried by `clone()`.
    level_signatures: OnceLock<Vec<Vec<f32>>>,
}

/// `max - min` over the *finite* values of `field` (0 when none are).
///
/// `Field::value_range` is NaN/inf for NaN- or inf-laced inputs, and a
/// non-finite range would make the persisted artifact unloadable —
/// `Compressed::from_parts` rejects it. Non-finite sites already decode to
/// 0.0 (see `bitplane`), so scoping the recorded range to the finite values
/// keeps bound conversion meaningful for exactly the sites the error
/// guarantees cover. Finite fields are unaffected.
fn finite_value_range(field: &Field) -> f64 {
    let (lo, hi) = field.finite_min_max();
    hi - lo
}

impl Compressed {
    /// Rebuild from persisted parts (see [`crate::persist`]).
    pub(crate) fn from_parts(
        name: String,
        timestep: usize,
        decomposer: Decomposer,
        levels: Vec<LevelEncoding>,
        value_range: f64,
    ) -> Option<Self> {
        if levels.len() != decomposer.levels() || !value_range.is_finite() || value_range < 0.0 {
            return None;
        }
        // Level coefficient counts must match the decomposition layout.
        if levels.iter().zip(decomposer.level_counts()).any(|(l, e)| l.count() != e) {
            return None;
        }
        let constants = theory_constants(&decomposer);
        Some(Compressed {
            name,
            timestep,
            decomposer,
            levels,
            constants,
            value_range,
            exec: ExecPolicy::default(),
            level_signatures: OnceLock::new(),
        })
    }

    /// Decompose `field` in one grid and bit-plane encode every level
    /// straight from it: the encoder reads each level's coefficients
    /// through its runs (`Decomposer::level_runs`), so no per-level copy is
    /// made.
    ///
    /// The `threads` and `kernel` knobs of `cfg` are the execution policy of
    /// the data path here and of every retrieval of the artifact (see
    /// [`Compressed::exec`]); results are bit-identical regardless of the
    /// policy. Small fields are processed serially even under a parallel
    /// policy (see [`crate::exec`]).
    pub fn compress(field: &Field, cfg: &CompressConfig) -> Self {
        let exec = cfg.exec();
        let decomposer = Decomposer::new(field.shape(), cfg.levels, cfg.mode);
        let mut data = field.data().to_vec();
        decomposer.decompose_with(&mut data, &exec);
        let levels: Vec<LevelEncoding> = decomposer
            .level_runs()
            .iter()
            .zip(decomposer.level_counts())
            .map(|(runs, count)| {
                let exec = exec.gate(count, PARALLEL_MIN_COEFFS);
                LevelEncoding::encode_placed(&data, runs, cfg.num_planes, &exec)
            })
            .collect();
        let constants = theory_constants(&decomposer);
        Compressed {
            name: field.name().to_string(),
            timestep: field.timestep(),
            decomposer,
            levels,
            constants,
            value_range: finite_value_range(field),
            exec,
            level_signatures: OnceLock::new(),
        }
    }

    /// Compress a batch of snapshots, one [`Compressed::compress`] per
    /// field, fanned out over up to `cfg`'s thread count. A kernel called
    /// inside a batch item runs on that item's thread (see [`fan_out`]).
    pub fn compress_many(fields: &[Field], cfg: &CompressConfig) -> Vec<Compressed> {
        fan_out(cfg.exec().resolved_threads(), fields.len(), |i| Self::compress(&fields[i], cfg))
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn timestep(&self) -> usize {
        self.timestep
    }

    pub fn shape(&self) -> Shape {
        self.decomposer.shape()
    }

    /// Number of coefficient levels `L`.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Bit-planes per level `B`.
    pub fn num_planes(&self) -> u32 {
        self.levels[0].num_planes()
    }

    /// The decomposition plan (exposed for analysis tooling).
    pub fn decomposer(&self) -> &Decomposer {
        &self.decomposer
    }

    /// Per-level encodings (error rows, plane sizes).
    pub fn levels(&self) -> &[LevelEncoding] {
        &self.levels
    }

    /// The theory constants `C_l`.
    pub fn theory_constants(&self) -> &[f64] {
        &self.constants
    }

    /// Original data value range (for relative→absolute bound conversion).
    pub fn value_range(&self) -> f64 {
        self.value_range
    }

    /// The execution policy of every retrieval of this artifact:
    /// [`CompressConfig::exec`] of the config it was compressed with, or
    /// the default for a loaded artifact.
    pub fn exec(&self) -> ExecPolicy {
        self.exec
    }

    /// One feature vector per level that depends on the stored planes alone
    /// (`pmr_core::emgard::signatures_of`: a full-precision decode of every
    /// level), computed by `compute` on first use and kept with this
    /// artifact and its clones from then on. Not persisted: a loaded
    /// artifact starts empty.
    pub fn level_signatures(&self, compute: impl FnOnce(&Self) -> Vec<Vec<f32>>) -> &[Vec<f32>] {
        self.level_signatures.get_or_init(|| compute(self))
    }

    /// What [`Compressed::level_signatures`] has memoised so far.
    pub fn cached_level_signatures(&self) -> Option<&[Vec<f32>]> {
        self.level_signatures.get().map(Vec::as_slice)
    }

    /// Convert a relative error bound to the absolute bound used internally.
    pub fn absolute_bound(&self, rel_bound: f64) -> f64 {
        rel_bound * self.value_range
    }

    /// Plan a retrieval for absolute bound `e` with the original
    /// theory-based estimator.
    pub fn plan_theory(&self, abs_err: f64) -> RetrievalPlan {
        greedy_plan(&self.levels, &self.constants, abs_err)
    }

    /// Plan with externally supplied per-level constants (E-MGARD hook).
    pub fn plan_with_constants(&self, abs_err: f64, constants: &[f64]) -> RetrievalPlan {
        greedy_plan(&self.levels, constants, abs_err)
    }

    /// Plan the best retrieval that fits within `byte_budget` compressed
    /// bytes, spending the budget by accuracy efficiency (the dual of
    /// [`Compressed::plan_theory`]: bytes are the constraint, error the
    /// objective).
    pub fn plan_budget(&self, byte_budget: u64) -> RetrievalPlan {
        greedy_plan_budget(&self.levels, &self.constants, byte_budget)
    }

    /// Plan that fetches every plane (lossless-to-quantization retrieval).
    pub fn plan_full(&self) -> RetrievalPlan {
        let planes: Vec<u32> = self.levels.iter().map(|l| l.num_planes()).collect();
        let est = estimate_error(&self.levels, &self.constants, &planes);
        RetrievalPlan { planes, estimated_error: est }
    }

    /// Theory error estimate for arbitrary plane counts (used when
    /// evaluating externally predicted plans).
    pub fn estimate_for(&self, planes: &[u32]) -> f64 {
        estimate_error(&self.levels, &self.constants, planes)
    }

    /// Check that `plan` matches this artifact's layout: one entry per
    /// level, and no level asked for more planes than it holds.
    pub fn validate_plan(&self, plan: &RetrievalPlan) -> Result<(), PmrError> {
        if plan.planes.len() != self.levels.len() {
            return Err(PmrError::invalid_config(format!(
                "plan covers {} levels but the artifact has {}",
                plan.planes.len(),
                self.levels.len()
            )));
        }
        for (l, (lvl, &want)) in self.levels.iter().zip(&plan.planes).enumerate() {
            if want > lvl.num_planes() {
                return Err(PmrError::invalid_config(format!(
                    "plan requests {want} planes at level {l} but the level holds {}",
                    lvl.num_planes()
                )));
            }
        }
        Ok(())
    }

    /// Build a validated plan from explicit per-level plane counts,
    /// attaching the theory error estimate. Unlike
    /// [`RetrievalPlan::from_planes`] — which is artifact-agnostic, carries
    /// no estimate, and defers all checking to the consumer — a mismatched
    /// level count or an over-asking plane count is an error here.
    pub fn plan_from_planes(&self, planes: Vec<u32>) -> Result<RetrievalPlan, PmrError> {
        let plan = RetrievalPlan::from_planes(planes);
        self.validate_plan(&plan)?;
        let est = self.estimate_for(&plan.planes);
        Ok(RetrievalPlan { estimated_error: est, ..plan })
    }

    /// Reconstruct from raw plane payloads fetched out-of-band: one prefix
    /// of payload blobs per level, as handed over by a segment store or a
    /// pmrd connection. This is the degraded-retrieval decode path — the
    /// fault-tolerant fetch layer passes whatever plane prefixes survived,
    /// and the result is exactly what [`Compressed::decode_plan`] would
    /// produce for the corresponding plan under the same `exec` (`None`
    /// uses the artifact's own policy). Payloads that fail to decompress to
    /// the level's packed size are a [`PmrError::Malformed`].
    pub fn retrieve_from_payloads<P: AsRef<[u8]> + Sync>(
        &self,
        payloads: &[Vec<P>],
        exec: Option<ExecPolicy>,
    ) -> Result<Field, PmrError> {
        if payloads.len() != self.levels.len() {
            return Err(PmrError::invalid_config(format!(
                "payloads cover {} levels but the artifact has {}",
                payloads.len(),
                self.levels.len()
            )));
        }
        self.reconstruct(None, &exec.unwrap_or(self.exec), |l, runs, grid, exec| {
            self.levels[l].decode_placed(&payloads[l], runs, grid, exec)
        })
    }

    /// Bytes fetched under `plan` (the size interpreter).
    pub fn retrieved_bytes(&self, plan: &RetrievalPlan) -> u64 {
        plan_size(&self.levels, plan)
    }

    /// Total compressed payload size.
    pub fn total_bytes(&self) -> u64 {
        self.levels.iter().map(|l| l.total_size()).sum()
    }

    /// Decode the planes selected by `plan` and recompose the approximation.
    ///
    /// This is the low-level decode primitive: it trusts the plan (a
    /// mismatched level count panics, exactly as a slice index would) and
    /// uses the artifact's own execution policy. Callers that want
    /// validation, coarse-grid decoding or error measurement should go
    /// through `pmr_core`'s unified `RetrievalRequest` API (or
    /// [`Compressed::decode_plan`] directly).
    pub fn retrieve(&self, plan: &RetrievalPlan) -> Field {
        assert_eq!(plan.planes.len(), self.levels.len(), "plan/levels mismatch");
        self.decode_own(plan, None, &self.exec)
    }

    /// Validated decode with per-call options — the primitive behind
    /// `pmr_core`'s `RetrievalRequest` API. Shape/plan mismatches and
    /// out-of-range coarse levels are errors, never panics.
    pub fn decode_plan(
        &self,
        plan: &RetrievalPlan,
        opts: &DecodeOptions,
    ) -> Result<Field, PmrError> {
        self.validate_plan(plan)?;
        if let Some(target_level) = opts.coarse_level {
            if target_level >= self.num_levels() {
                return Err(PmrError::invalid_config(format!(
                    "coarse level {target_level} out of range for {}-level artifact",
                    self.num_levels()
                )));
            }
        }
        Ok(self.decode_own(plan, opts.coarse_level, &opts.exec.unwrap_or(self.exec)))
    }

    /// Unvalidated decode of the artifact's own planes. With a coarse
    /// level, levels finer than it contribute nothing — a matching plan
    /// should fetch zero planes from them, the combined I/O + compute
    /// saving of progressive storage (paper §I).
    pub(crate) fn decode_own(
        &self,
        plan: &RetrievalPlan,
        coarse_level: Option<usize>,
        exec: &ExecPolicy,
    ) -> Field {
        let Ok(field) = self.reconstruct(coarse_level, exec, |l, runs, grid, exec| {
            self.levels[l].place_with(plan.planes[l], runs, grid, exec);
            Ok::<(), Infallible>(())
        });
        field
    }

    /// The one decode tail — Direct, Store, sessions and pmrd clients all
    /// end here. `place` decodes level `l` straight into the grid positions
    /// its runs name (it is `LevelEncoding::decode_placed` or
    /// `LevelEncoding::place_with`); then the grid is recomposed, in full
    /// or only up to the grid of `coarse_level` (`0` = coarsest). Levels
    /// finer than `coarse_level` decode no planes: their coefficients are
    /// `+0.0`.
    ///
    /// The grid is the spare capacity of a fresh `Vec`, never zeroed: each
    /// level's decode writes every node of its runs, and the levels' runs
    /// partition the grid, so every value is written exactly once. A debug
    /// build fills the grid with [`UNWRITTEN`] first and asserts that none
    /// is left, so every retrieving test checks that the decode wrote every
    /// node.
    fn reconstruct<E>(
        &self,
        coarse_level: Option<usize>,
        exec: &ExecPolicy,
        mut place: impl FnMut(usize, &[Run], &mut [MaybeUninit<f64>], &ExecPolicy) -> Result<(), E>,
    ) -> Result<Field, E> {
        let n = self.decomposer.shape().len();
        let mut data = Vec::with_capacity(n);
        let grid = &mut data.spare_capacity_mut()[..n];
        if cfg!(debug_assertions) {
            grid.fill(MaybeUninit::new(UNWRITTEN));
        }
        let decoded = coarse_level.map_or(self.levels.len(), |level| level + 1);
        for (l, (lvl, runs)) in self.levels.iter().zip(self.decomposer.level_runs()).enumerate() {
            let exec = exec.gate(lvl.count(), PARALLEL_MIN_COEFFS);
            if l < decoded {
                place(l, &runs, grid, &exec)?;
            } else {
                lvl.place_with(0, &runs, grid, &exec);
            }
        }
        // SAFETY: `grid` is the first `n` slots of `data`'s capacity. The
        // levels' runs partition `0..n`: they walk `level_indices`
        // (`level_runs_are_level_indices`), which puts every node in exactly
        // one level. Every level went through `decode_placed`, which on `Ok`
        // writes every node of the runs it is given, and an `Err` has
        // returned above. So all `n` values are initialised.
        unsafe { data.set_len(n) };
        debug_assert!(
            data.iter().all(|v| v.to_bits() != UNWRITTEN.to_bits()),
            "decode left grid nodes unwritten"
        );
        let (shape, data) = match coarse_level {
            None => {
                self.decomposer.recompose_with(&mut data, exec);
                (self.decomposer.shape(), data)
            }
            Some(level) => (
                self.decomposer.grid_shape_at_level(level),
                self.decomposer.recompose_to_level_with(&mut data, level, exec),
            ),
        };
        Ok(Field::new(self.name.clone(), self.timestep, shape, data))
    }
}

/// What a debug build fills the grid with before [`Compressed::reconstruct`]
/// decodes into it: a NaN no decode produces, since decode writes only
/// `+0.0` and integer × step products of a finite step.
const UNWRITTEN: f64 = f64::from_bits(0x7ff8_dead_beef_0bad);

/// Per-call options for [`Compressed::decode_plan`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DecodeOptions {
    /// Execution policy override; `None` uses the artifact's own policy.
    pub exec: Option<ExecPolicy>,
    /// Recompose only up to this level's grid (`0` = coarsest); `None`
    /// decodes at full resolution.
    pub coarse_level: Option<usize>,
}

impl DecodeOptions {
    /// Options for a coarse-grid decode at `level`.
    pub fn at_level(level: usize) -> Self {
        DecodeOptions { exec: None, coarse_level: Some(level) }
    }

    /// Options with the execution policy overridden.
    pub fn with_exec(exec: ExecPolicy) -> Self {
        DecodeOptions { exec: Some(exec), coarse_level: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmr_field::error::max_abs_error;

    fn wave_field(n: usize) -> Field {
        Field::from_fn("wave", 7, Shape::cube(n), |x, y, z| {
            ((x as f64) * 0.31).sin() * ((y as f64) * 0.17).cos() + 0.05 * (z as f64)
        })
    }

    #[test]
    fn full_retrieval_is_near_lossless() {
        let field = wave_field(17);
        let c = Compressed::compress(&field, &CompressConfig::default());
        let plan = c.plan_full();
        let rec = c.retrieve(&plan);
        let err = max_abs_error(field.data(), rec.data());
        // Quantization floor: range is O(1), 30 fractional bits, plus the
        // level-constant amplification headroom.
        assert!(err < 1e-5, "err={err}");
        assert_eq!(rec.name(), "wave");
        assert_eq!(rec.timestep(), 7);
    }

    #[test]
    fn theory_plan_respects_bound() {
        let field = wave_field(17);
        let c = Compressed::compress(&field, &CompressConfig::default());
        for bound in [1e-1, 1e-2, 1e-3, 1e-4] {
            let plan = c.plan_theory(bound);
            let rec = c.retrieve(&plan);
            let err = max_abs_error(field.data(), rec.data());
            assert!(err <= bound, "bound={bound} actual={err}");
        }
    }

    #[test]
    fn theory_is_pessimistic() {
        // The motivating observation of the paper: achieved error is far
        // below the requested bound.
        let field = wave_field(17);
        let c = Compressed::compress(&field, &CompressConfig::default());
        let bound = 1e-2;
        let plan = c.plan_theory(bound);
        let rec = c.retrieve(&plan);
        let err = max_abs_error(field.data(), rec.data());
        assert!(err < bound / 5.0, "achieved {err} not well below bound {bound}");
    }

    #[test]
    fn tighter_bound_reads_more() {
        let field = wave_field(17);
        let c = Compressed::compress(&field, &CompressConfig::default());
        let loose = c.retrieved_bytes(&c.plan_theory(1e-1));
        let tight = c.retrieved_bytes(&c.plan_theory(1e-4));
        assert!(tight > loose, "tight={tight} loose={loose}");
        assert!(tight <= c.total_bytes());
    }

    #[test]
    fn smaller_constants_read_less() {
        // The E-MGARD premise: replacing pessimistic constants with smaller
        // ones reduces retrieval size.
        let field = wave_field(17);
        let c = Compressed::compress(&field, &CompressConfig::default());
        let bound = 1e-3;
        let theory = c.plan_theory(bound);
        let tuned: Vec<f64> = c.theory_constants().iter().map(|v| v / 10.0).collect();
        let learned = c.plan_with_constants(bound, &tuned);
        assert!(c.retrieved_bytes(&learned) <= c.retrieved_bytes(&theory));
    }

    #[test]
    fn relative_bound_conversion() {
        let field = wave_field(9);
        let c = Compressed::compress(&field, &CompressConfig::default());
        let range = field.value_range();
        assert!((c.absolute_bound(1e-3) - 1e-3 * range).abs() < 1e-15);
        assert_eq!(c.value_range(), range);
    }

    #[test]
    fn config_levels_clamped_for_tiny_grids() {
        let field = Field::from_fn("t", 0, Shape::d1(4), |x, _, _| x as f64);
        let cfg = CompressConfig { levels: 50, ..Default::default() };
        let c = Compressed::compress(&field, &cfg);
        assert!(c.num_levels() <= Decomposer::max_levels(Shape::d1(4)));
        let rec = c.retrieve(&c.plan_full());
        assert!(max_abs_error(field.data(), rec.data()) < 1e-6);
    }

    #[test]
    fn one_dimensional_fields_compress() {
        let field =
            Field::from_fn("line", 0, Shape::d1(65), |x, _, _| ((x as f64) * 0.17).sin() * 3.0);
        let c = Compressed::compress(&field, &CompressConfig::default());
        assert_eq!(c.num_levels(), 5);
        for bound in [1e-2, 1e-5] {
            let plan = c.plan_theory(bound);
            let rec = c.retrieve(&plan);
            assert!(max_abs_error(field.data(), rec.data()) <= bound);
        }
    }

    #[test]
    fn two_dimensional_fields_compress() {
        let field = Field::from_fn("slab", 0, Shape::d2(33, 17), |x, y, _| {
            ((x as f64) * 0.2).cos() + ((y as f64) * 0.35).sin()
        });
        let c = Compressed::compress(&field, &CompressConfig::default());
        let plan = c.plan_theory(1e-4);
        let rec = c.retrieve(&plan);
        assert!(max_abs_error(field.data(), rec.data()) <= 1e-4);
    }

    #[test]
    fn constant_field_costs_almost_nothing() {
        let field = Field::new("flat", 0, Shape::cube(9), vec![2.5; 729]);
        let c = Compressed::compress(&field, &CompressConfig::default());
        // Details are all zero; only the coarsest values carry content.
        let plan = c.plan_theory(1e-9);
        let rec = c.retrieve(&plan);
        assert!(max_abs_error(field.data(), rec.data()) <= 1e-6);
        assert!(
            c.retrieved_bytes(&plan) < 2500,
            "constant field read {} bytes",
            c.retrieved_bytes(&plan)
        );
    }

    #[test]
    fn estimate_for_matches_plan_estimate() {
        let field = wave_field(9);
        let c = Compressed::compress(&field, &CompressConfig::default());
        let plan = c.plan_theory(1e-3);
        let est = c.estimate_for(&plan.planes);
        assert!((est - plan.estimated_error).abs() <= 1e-12 * (1.0 + est));
    }

    #[test]
    fn per_level_constants_steer_the_greedy() {
        let field = wave_field(17);
        let c = Compressed::compress(&field, &CompressConfig::default());
        let bound = c.absolute_bound(1e-3);
        // Zero-ish weight on the finest level -> barely fetch it.
        let mut lopsided = vec![1.0; c.num_levels()];
        *lopsided.last_mut().unwrap() = 1e-9;
        let plan = c.plan_with_constants(bound, &lopsided);
        let balanced = c.plan_with_constants(bound, &vec![1.0; c.num_levels()]);
        assert!(plan.planes.last().unwrap() <= balanced.planes.last().unwrap());
    }

    #[test]
    fn coarse_retrieval_matches_strided_samples_in_interp_mode() {
        // In interpolation mode the coarse-grid values are exactly the
        // original samples at strided positions (no projection moves them).
        let field = wave_field(17);
        let cfg = CompressConfig { mode: TransformMode::Interpolation, ..Default::default() };
        let c = Compressed::compress(&field, &cfg);
        let plan = c.plan_full();
        let coarse = c.decode_plan(&plan, &DecodeOptions::at_level(0)).expect("valid plan");
        let steps = c.num_levels() - 1;
        let stride = 1usize << steps;
        let cs = coarse.shape();
        assert_eq!(cs.dim(0), (17usize).div_ceil(stride));
        for z in 0..cs.dim(2) {
            for y in 0..cs.dim(1) {
                for x in 0..cs.dim(0) {
                    let expect = field.get(x * stride, y * stride, z * stride);
                    let got = coarse.get(x, y, z);
                    assert!((expect - got).abs() < 1e-5, "({x},{y},{z}): {expect} vs {got}");
                }
            }
        }
    }

    #[test]
    fn coarse_retrieval_needs_no_fine_level_planes() {
        let field = wave_field(17);
        let c = Compressed::compress(&field, &CompressConfig::default());
        // Fetch only levels 0..=1, none of the finer ones.
        let mut planes = vec![0u32; c.num_levels()];
        planes[0] = c.num_planes();
        planes[1] = c.num_planes();
        let plan = RetrievalPlan::from_planes(planes);
        let coarse = c.decode_plan(&plan, &DecodeOptions::at_level(1)).expect("valid plan");
        assert_eq!(coarse.shape(), c.decomposer().grid_shape_at_level(1));
        assert!(coarse.data().iter().all(|v| v.is_finite()));
        // The fetched bytes exclude the fine levels entirely.
        let bytes = c.retrieved_bytes(&plan);
        assert!(bytes < c.total_bytes() / 4, "coarse fetch read {bytes} bytes");
    }

    #[test]
    fn coarse_grid_shapes_shrink_per_level() {
        let field = wave_field(17);
        let c = Compressed::compress(&field, &CompressConfig::default());
        let mut prev = 0usize;
        for l in 0..c.num_levels() {
            let s = c.decomposer().grid_shape_at_level(l);
            assert!(s.len() > prev, "grids must grow with level");
            prev = s.len();
        }
    }

    #[test]
    fn clone_preserves_plans() {
        let field = wave_field(9);
        let c = Compressed::compress(&field, &CompressConfig::default());
        let p1 = c.plan_theory(1e-3);
        let p2 = c.clone().plan_theory(1e-3);
        assert_eq!(p1, p2);
    }

    #[test]
    fn validate_accepts_defaults_and_rejects_bad_knobs() {
        CompressConfig::default().validate().expect("defaults are valid");
        let cfg = CompressConfig {
            levels: 4,
            num_planes: 20,
            mode: TransformMode::Interpolation,
            threads: 2,
            ..Default::default()
        };
        cfg.validate().expect("valid custom config");

        assert!(CompressConfig { levels: 0, ..cfg }.validate().is_err());
        assert!(CompressConfig { num_planes: 2, ..cfg }.validate().is_err());
        assert!(CompressConfig { num_planes: 51, ..cfg }.validate().is_err());
        // `threads: 0` is one per core; `pmrtool compress --threads 0` is
        // refused where the flag is parsed (`tests/cli.rs`).
    }

    #[test]
    fn compress_many_matches_individual_compress() {
        let fields: Vec<Field> = (0..5)
            .map(|t| {
                Field::from_fn("batch", t, Shape::cube(9), move |x, y, z| {
                    ((x + 2 * y + 3 * z + 7 * t) as f64 * 0.21).sin()
                })
            })
            .collect();
        let cfg = CompressConfig { threads: 4, ..Default::default() };
        let batch = Compressed::compress_many(&fields, &cfg);
        assert_eq!(batch.len(), fields.len());
        for (f, c) in fields.iter().zip(&batch) {
            let one = Compressed::compress(f, &cfg);
            assert_eq!(
                crate::persist::to_bytes(c).unwrap(),
                crate::persist::to_bytes(&one).unwrap()
            );
            assert_eq!(c.timestep(), f.timestep());
        }
    }

    #[test]
    fn decode_plan_validates_and_matches_retrieve() {
        let field = wave_field(17);
        let c = Compressed::compress(&field, &CompressConfig::default());
        let plan = c.plan_theory(1e-3);
        let full = c.decode_plan(&plan, &DecodeOptions::default()).expect("valid plan");
        assert_eq!(full.data(), c.retrieve(&plan).data());
        // Serial override is bit-identical to the default policy.
        let serial = c
            .decode_plan(&plan, &DecodeOptions::with_exec(ExecPolicy::serial()))
            .expect("valid plan");
        assert_eq!(serial.data(), full.data());
        // Over-asking plans and out-of-range coarse levels are errors.
        let bad = RetrievalPlan::from_planes(vec![c.num_planes() + 1; c.num_levels()]);
        assert!(c.decode_plan(&bad, &DecodeOptions::default()).is_err());
        let opts = DecodeOptions::at_level(c.num_levels());
        assert!(c.decode_plan(&plan, &opts).is_err());
    }

    /// Tiles transposed on this thread while `f` runs.
    fn tiles_transposed(f: impl FnOnce()) -> u64 {
        use crate::bitplane::TILES_TRANSPOSED;
        let before = TILES_TRANSPOSED.with(std::cell::Cell::get);
        f();
        TILES_TRANSPOSED.with(std::cell::Cell::get) - before
    }

    #[test]
    fn decode_work_follows_the_planes_fetched() {
        let serial =
            |coarse_level| DecodeOptions { exec: Some(ExecPolicy::serial()), coarse_level };
        let tiles = |c: &Compressed, planes: &[u32], coarse_level| {
            let plan = RetrievalPlan::from_planes(planes.to_vec());
            tiles_transposed(|| {
                c.decode_plan(&plan, &serial(coarse_level)).expect("valid plan");
            })
        };
        let c = Compressed::compress(&wave_field(17), &CompressConfig::default());
        let full = c.plan_full().planes;
        let nl = c.num_levels();

        // No planes: no level is decoded.
        assert_eq!(tiles(&c, &vec![0; nl], None), 0);
        // A level at b = 0 costs nothing: the finest level's share is gone.
        let mut no_finest = full.clone();
        no_finest[nl - 1] = 0;
        let coarse_share = tiles(&c, &no_finest, None);
        assert!(coarse_share > 0 && coarse_share < tiles(&c, &full, None));
        // Levels above `coarse_level` are not decoded, whatever the plan.
        assert_eq!(tiles(&c, &full, Some(nl - 2)), coarse_share);
        let mut only_coarsest = vec![0; nl];
        only_coarsest[0] = full[0];
        assert_eq!(tiles(&c, &full, Some(0)), tiles(&c, &only_coarsest, None));

        // All-zero levels: a constant field's details are exactly zero
        // under interpolation, so only the coarsest level is decoded.
        let flat = Field::new("flat", 0, Shape::cube(17), vec![2.5; 17 * 17 * 17]);
        let cfg = CompressConfig { mode: TransformMode::Interpolation, ..Default::default() };
        let c = Compressed::compress(&flat, &cfg);
        let coarsest = c.levels()[0].count().div_ceil(64) as u64;
        assert_eq!(tiles(&c, &c.plan_full().planes, None), coarsest);
    }

    /// The staged oracle of the unzeroed grid: each level decoded into a
    /// zeroed array of its own, scattered by `deinterleave` into a zeroed
    /// grid, then recomposed, in full or up to `coarse_level`.
    fn staged_bits(c: &Compressed, levels: &[Vec<f64>], coarse_level: Option<usize>) -> Vec<u64> {
        let dec = c.decomposer();
        let mut data = dec.deinterleave(levels);
        let exec = ExecPolicy::serial();
        let data = match coarse_level {
            None => {
                dec.recompose_with(&mut data, &exec);
                data
            }
            Some(level) => dec.recompose_to_level_with(&mut data, level, &exec),
        };
        data.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn every_path_matches_the_staged_decode() {
        let bits = |f: &Field| f.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // A constant field's details are degenerate (`step == 0`) levels
        // under interpolation; the wave's level 1 fetches no planes.
        let flat = Field::new("flat", 0, Shape::cube(9), vec![2.5; 9 * 9 * 9]);
        let interp = CompressConfig { mode: TransformMode::Interpolation, ..Default::default() };
        let cases = [(flat, interp), (wave_field(9), CompressConfig::default())];
        for (field, cfg) in cases {
            let c = Compressed::compress(&field, &cfg);
            let nl = c.num_levels();
            let mut planes = c.plan_full().planes;
            planes[1] = 0;
            if field.name() == "flat" {
                assert!(c.levels()[1..].iter().all(|l| l.error_row()[0] == 0.0));
            }
            let plan = RetrievalPlan::from_planes(planes.clone());
            let own: Vec<Vec<f64>> =
                c.levels().iter().zip(&planes).map(|(l, &b)| l.decode(b)).collect();
            let want = staged_bits(&c, &own, None);

            // Direct, under the serial and the default policy.
            assert_eq!(bits(&c.retrieve(&plan)), want, "{}: direct", field.name());
            let serial = DecodeOptions::with_exec(ExecPolicy::serial());
            assert_eq!(bits(&c.decode_plan(&plan, &serial).expect("valid")), want);
            // A coarse grid: levels above it decode no planes.
            for level in [0, nl / 2] {
                let coarse: Vec<Vec<f64>> = (own.iter().enumerate())
                    .map(|(l, v)| if l > level { vec![0.0; v.len()] } else { v.clone() })
                    .collect();
                let got = c.decode_plan(&plan, &DecodeOptions::at_level(level)).expect("valid");
                assert_eq!(bits(&got), staged_bits(&c, &coarse, Some(level)), "coarse {level}");
            }
            // Fetched payloads: level 1 an empty prefix, every other level
            // (the flat field's degenerate ones too) all of its planes.
            let payloads: Vec<Vec<&[u8]>> = (c.levels().iter().zip(&planes))
                .map(|(l, &b)| (0..b).map(|k| l.plane_payload(k)).collect())
                .collect();
            let got = c.retrieve_from_payloads(&payloads, None).expect("own payloads");
            assert_eq!(bits(&got), want, "{}: payloads", field.name());
            // A session holding the same planes.
            let mut session = crate::ProgressiveSession::new(&c);
            session.refine_to_plan(&plan).expect("valid");
            assert_eq!(bits(&session.current_field()), want, "{}: session", field.name());
        }
    }

    #[test]
    fn budget_plan_fits_and_improves_with_budget() {
        let field = wave_field(17);
        let c = Compressed::compress(&field, &CompressConfig::default());
        let total = c.total_bytes();
        let small = c.plan_budget(total / 10);
        let large = c.plan_budget(total / 2);
        assert!(c.retrieved_bytes(&small) <= total / 10);
        assert!(c.retrieved_bytes(&large) <= total / 2);
        assert!(large.estimated_error <= small.estimated_error);
        // Budget plans are valid plans: decode succeeds.
        assert!(c.decode_plan(&large, &DecodeOptions::default()).is_ok());
    }

    #[test]
    fn non_finite_input_still_roundtrips_through_persistence() {
        // A NaN/inf-laced field must produce an artifact whose recorded
        // value range is finite, or persist::from_bytes rejects it
        // (found by the conformance robustness sweep).
        let mut field = wave_field(9);
        let n = field.len();
        field.data_mut()[0] = f64::NAN;
        field.data_mut()[n / 2] = f64::INFINITY;
        field.data_mut()[n - 1] = f64::NEG_INFINITY;
        let c = Compressed::compress(&field, &CompressConfig::default());
        assert!(c.value_range().is_finite());
        let bytes = crate::persist::to_bytes(&c).unwrap();
        let back = crate::persist::from_bytes(&bytes).expect("non-finite input roundtrips");
        assert_eq!(crate::persist::to_bytes(&back).unwrap(), bytes);
        // The reconstruction stays finite everywhere.
        let full = back.retrieve(&back.plan_full());
        assert!(full.data().iter().all(|v| v.is_finite()));
    }
}
