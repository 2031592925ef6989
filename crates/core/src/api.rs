//! The unified retrieval API: one `RetrievalRequest → RetrievalOutcome`
//! entry point over every retrieval surface — direct decode, coarse-grid
//! decode, error measurement, byte-budget planning, and the fault-tolerant
//! storage path. Every decode runs under the artifact's own execution
//! policy, set once by the `CompressConfig` it was compressed with
//! ([`Compressed::exec`]); a request carries none. Callers (and `pmrd`, whose
//! wire protocol is deliberately the same shape) state *what* they want:
//!
//! ```text
//!   RetrievalRequest { target: Tolerance | ByteBudget | PlaneSet, … }
//!     × strategy (Theory / D-MGARD / E-MGARD / combined)
//!     × backend  (Direct decode | SegmentStore with faults/retries)
//!     → RetrievalOutcome { field, planes, bytes, bounds, stats, degraded }
//! ```
//!
//! The strategy is the only thing the paper varies; everything after the
//! plan is one pipeline: a verified-plane *source* (the artifact's own
//! planes, or a `FetchExecutor` over a store), the degradation *loop*
//! (`pmr_storage::fetch_planes_tolerant`) and a *sink* — here the one plane
//! decoder and recompose tail of `pmr_mgard::Compressed`.

use crate::framework::{RetrievalContext, Retriever};
use pmr_error::PmrError;
use pmr_field::{error, Field};
use pmr_mgard::{Compressed, DecodeOptions, RetrievalPlan};
use pmr_storage::{
    fetch_plan_tolerant, DegradedRetrieval, FetchStats, SegmentStore, TolerantConfig,
};
use std::convert::Infallible;

/// An error-bound target, absolute or relative to the field's value range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Absolute `L∞` bound.
    Abs(f64),
    /// Bound relative to the artifact's recorded value range
    /// (`abs = rel · range`, the paper's ξ).
    Rel(f64),
}

impl Tolerance {
    /// Resolve to the absolute bound used by every planner. Non-finite or
    /// negative bounds are an [`PmrError::InvalidConfig`].
    pub fn absolute(&self, compressed: &Compressed) -> Result<f64, PmrError> {
        let abs = match *self {
            Tolerance::Abs(e) => e,
            Tolerance::Rel(r) => compressed.absolute_bound(r),
        };
        if !abs.is_finite() || abs < 0.0 {
            return Err(PmrError::invalid_config(format!(
                "error bound must be finite and non-negative, got {abs}"
            )));
        }
        Ok(abs)
    }
}

/// What a retrieval should optimise for.
#[derive(Debug, Clone, PartialEq)]
pub enum RetrievalTarget {
    /// Fetch just enough planes to satisfy an error tolerance.
    Tolerance(Tolerance),
    /// Spend at most this many compressed bytes, minimising the error
    /// estimate (planned with the theory estimator regardless of strategy).
    ByteBudget(u64),
    /// Fetch exactly these per-level plane counts (validated against the
    /// artifact layout).
    PlaneSet(Vec<u32>),
}

/// A complete description of one retrieval: the target plus decode and
/// measurement options. Construct with the shorthand constructors and
/// chain the builder-style modifiers.
#[derive(Debug, Clone)]
pub struct RetrievalRequest {
    /// What to optimise for.
    pub target: RetrievalTarget,
    /// Measure achieved error and PSNR against the original field
    /// (requires [`Dataset::original`]).
    pub measure: bool,
    /// Decode only up to this level's grid (`0` = coarsest; direct backend
    /// only).
    pub coarse_level: Option<usize>,
    /// Retry policy for the storage backend.
    pub tolerant: TolerantConfig,
}

impl RetrievalRequest {
    /// Request for an arbitrary target with default options.
    pub fn new(target: RetrievalTarget) -> Self {
        RetrievalRequest {
            target,
            measure: false,
            coarse_level: None,
            tolerant: TolerantConfig::default(),
        }
    }

    /// Absolute error-bound request.
    pub fn abs(bound: f64) -> Self {
        Self::new(RetrievalTarget::Tolerance(Tolerance::Abs(bound)))
    }

    /// Relative error-bound request (the paper's ξ).
    pub fn rel(bound: f64) -> Self {
        Self::new(RetrievalTarget::Tolerance(Tolerance::Rel(bound)))
    }

    /// Byte-budget request: best error the bytes can buy.
    pub fn byte_budget(bytes: u64) -> Self {
        Self::new(RetrievalTarget::ByteBudget(bytes))
    }

    /// Explicit plane-count request.
    pub fn plane_set(planes: Vec<u32>) -> Self {
        Self::new(RetrievalTarget::PlaneSet(planes))
    }

    /// Measure achieved error and PSNR against the dataset's original.
    pub fn measured(mut self) -> Self {
        self.measure = true;
        self
    }

    /// Decode a coarse-grid approximation up to `level` (`0` = coarsest).
    pub fn at_level(mut self, level: usize) -> Self {
        self.coarse_level = Some(level);
        self
    }

    /// Set the fault-tolerance policy for the storage backend.
    pub fn with_tolerant(mut self, cfg: TolerantConfig) -> Self {
        self.tolerant = cfg;
        self
    }
}

/// The artifact under retrieval plus optional measurement/planning context.
#[derive(Clone, Copy)]
pub struct Dataset<'a> {
    /// The compressed artifact.
    pub compressed: &'a Compressed,
    /// The uncompressed original, when available (enables
    /// [`RetrievalRequest::measured`]).
    pub original: Option<&'a Field>,
    /// Snapshot feature vector for learned strategies (empty slice is fine
    /// for [`crate::framework::Theory`]).
    pub features: &'a [f32],
}

impl<'a> Dataset<'a> {
    /// A dataset with no original and no features (theory-only planning).
    pub fn new(compressed: &'a Compressed) -> Self {
        Dataset { compressed, original: None, features: &[] }
    }

    /// Attach the original field for measurement.
    pub fn with_original(mut self, original: &'a Field) -> Self {
        self.original = Some(original);
        self
    }

    /// Attach the feature vector consumed by learned strategies.
    pub fn with_features(mut self, features: &'a [f32]) -> Self {
        self.features = features;
        self
    }
}

/// Where the planes come from.
pub enum Backend<'a> {
    /// Decode straight out of the in-memory artifact (no I/O).
    Direct,
    /// Fetch through a [`SegmentStore`] with the full fault-tolerance
    /// contract: retries, checksum verification, degraded re-planning.
    Store {
        /// The segment store holding the artifact's plane payloads.
        store: &'a dyn SegmentStore,
        /// Always `None` (an `Infallible` cannot be built) and ignored:
        /// the field stays only because the end-to-end benchmark
        /// (`e2e-bench/`) still writes `model: None`, and goes once it
        /// builds the backend with [`Backend::store`].
        model: Option<Infallible>,
    },
}

impl<'a> Backend<'a> {
    /// The fault-tolerant backend over `store`.
    pub fn store(store: &'a dyn SegmentStore) -> Self {
        Backend::Store { store, model: None }
    }
}

/// The result of one unified retrieval.
#[derive(Debug, Clone)]
pub struct RetrievalOutcome {
    /// The reconstructed approximation (coarse-grid when
    /// [`RetrievalRequest::coarse_level`] was set).
    pub field: Field,
    /// Name of the strategy that planned the retrieval.
    pub strategy: String,
    /// Per-level plane counts actually decoded (post-clamp, post-degradation).
    pub planes: Vec<u32>,
    /// Compressed bytes fetched.
    pub bytes: u64,
    /// The plan's own error claim (`f64::INFINITY` when the strategy
    /// carries no estimator, e.g. a pure D-MGARD plane prediction).
    pub claimed_error: f64,
    /// Sound theory estimate at the decoded planes — the achieved bound
    /// reported to clients, honest under degradation.
    pub estimated_error: f64,
    /// Measured `L∞` error (only with [`RetrievalRequest::measured`]).
    pub achieved_error: Option<f64>,
    /// PSNR of the reconstruction (only with [`RetrievalRequest::measured`]).
    pub psnr: Option<f64>,
    /// Fetch accounting from the storage backend (`None` for direct decode).
    pub stats: Option<FetchStats>,
    /// Degradation report when segments were unrecoverable.
    pub degraded: Option<DegradedRetrieval>,
}

impl RetrievalOutcome {
    /// Did the storage path lose segments (prefix truncation / re-plan)?
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }
}

/// Resolve a request target to a validated, capacity-clamped plan.
///
/// Tolerance targets plan through `retriever`; learned strategies may
/// over-ask (a regression can predict past a level's capacity), which is
/// clamped to "fetch everything at that level" rather than rejected. Byte
/// budgets plan with the theory estimator; explicit plane sets are
/// validated against the artifact layout.
pub fn plan_for_target(
    compressed: &Compressed,
    retriever: &dyn Retriever,
    features: &[f32],
    target: &RetrievalTarget,
) -> Result<RetrievalPlan, PmrError> {
    match target {
        RetrievalTarget::Tolerance(tol) => {
            let abs = tol.absolute(compressed)?;
            let ctx = RetrievalContext { compressed, features };
            let raw = retriever.plan(&ctx, abs);
            if raw.planes.len() != compressed.num_levels() {
                return Err(PmrError::invalid_config(format!(
                    "strategy {} planned {} levels but the artifact has {}",
                    retriever.name(),
                    raw.planes.len(),
                    compressed.num_levels()
                )));
            }
            let clamped: Vec<u32> = raw
                .planes
                .iter()
                .zip(compressed.levels())
                .map(|(&b, lvl)| b.min(lvl.num_planes()))
                .collect();
            Ok(RetrievalPlan { planes: clamped, estimated_error: raw.estimated_error })
        }
        RetrievalTarget::ByteBudget(bytes) => Ok(compressed.plan_budget(*bytes)),
        RetrievalTarget::PlaneSet(planes) => compressed.plan_from_planes(planes.clone()),
    }
}

/// The requested bound handed to the tolerant fetch path — the one the
/// degraded re-plan chases: the absolute tolerance when the target is one,
/// otherwise the plan's own sound estimate (budget and plane-set targets
/// promise nothing tighter).
pub fn requested_bound(
    compressed: &Compressed,
    target: &RetrievalTarget,
    plan: &RetrievalPlan,
) -> Result<f64, PmrError> {
    match target {
        RetrievalTarget::Tolerance(tol) => tol.absolute(compressed),
        _ => Ok(compressed.estimate_for(&plan.planes)),
    }
}

/// Execute one unified retrieval: plan for the request's target with
/// `retriever`, fetch/decode through `backend`, optionally measure.
///
/// This is the single entry point behind `pmrtool retrieve`, the examples,
/// and the `pmrd` daemon. Invalid combinations are errors, not panics:
/// measurement without an original, coarse decode on the storage backend,
/// plans that do not match the artifact.
pub fn retrieve(
    dataset: &Dataset<'_>,
    retriever: &dyn Retriever,
    request: &RetrievalRequest,
    backend: &Backend<'_>,
) -> Result<RetrievalOutcome, PmrError> {
    let compressed = dataset.compressed;
    if request.measure && dataset.original.is_none() {
        return Err(PmrError::invalid_config(
            "measurement requested but the dataset has no original field".to_string(),
        ));
    }
    if request.measure && request.coarse_level.is_some() {
        return Err(PmrError::invalid_config(
            "measurement is defined on the full grid; drop measured() or at_level()".to_string(),
        ));
    }
    if let (true, Some(original)) = (request.measure, dataset.original) {
        if original.shape() != compressed.shape() {
            return Err(PmrError::invalid_config(format!(
                "original field shape {:?} does not match artifact shape {:?}",
                original.shape(),
                compressed.shape()
            )));
        }
    }

    let plan = plan_for_target(compressed, retriever, dataset.features, &request.target)?;

    let (field, planes, bytes, estimated, stats, degraded) = match backend {
        Backend::Direct => {
            let opts = DecodeOptions { exec: None, coarse_level: request.coarse_level };
            let field = compressed.decode_plan(&plan, &opts)?;
            let bytes = compressed.retrieved_bytes(&plan);
            let estimated = compressed.estimate_for(&plan.planes);
            (field, plan.planes.clone(), bytes, estimated, None, None)
        }
        Backend::Store { store, .. } => {
            if request.coarse_level.is_some() {
                return Err(PmrError::invalid_config(
                    "coarse-grid decode is a direct-backend feature".to_string(),
                ));
            }
            let bound = requested_bound(compressed, &request.target, &plan)?;
            let t = fetch_plan_tolerant(compressed, *store, &plan, bound, &request.tolerant)?;
            (t.field, t.planes, t.stats.bytes, t.estimated_error, Some(t.stats), t.degraded)
        }
    };

    let (achieved_error, psnr) = match (request.measure, dataset.original) {
        (true, Some(original)) => (
            Some(error::max_abs_error(original.data(), field.data())),
            Some(error::psnr(original.data(), field.data())),
        ),
        _ => (None, None),
    };

    Ok(RetrievalOutcome {
        field,
        strategy: retriever.name().to_string(),
        planes,
        bytes,
        claimed_error: plan.estimated_error,
        estimated_error: estimated,
        achieved_error,
        psnr,
        stats,
        degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::Theory;
    use pmr_field::{error::max_abs_error, Shape};
    use pmr_mgard::{CompressConfig, PlaneKernel};
    use pmr_storage::{FaultConfig, FaultInjector, MemStore, RetryPolicy};

    fn artifact() -> (Field, Compressed) {
        let field = Field::from_fn("api", 0, Shape::cube(9), |x, y, z| {
            ((x as f64) * 0.6).sin() + ((y as f64) * 0.3).cos() * 0.4 + (z as f64) * 0.01
        });
        let c = Compressed::compress(&field, &CompressConfig::default());
        (field, c)
    }

    #[test]
    fn tolerance_request_matches_legacy_path() {
        let (field, c) = artifact();
        let ds = Dataset::new(&c).with_original(&field);
        let bound = c.absolute_bound(1e-3);
        let out =
            retrieve(&ds, &Theory, &RetrievalRequest::abs(bound).measured(), &Backend::Direct)
                .expect("direct retrieval");
        let legacy = c.retrieve(&c.plan_theory(bound));
        assert_eq!(out.field.data(), legacy.data());
        assert!(out.achieved_error.expect("measured") <= bound);
        assert!(out.psnr.expect("measured") > 20.0);
        assert_eq!(out.bytes, c.retrieved_bytes(&c.plan_theory(bound)));
        assert!(out.stats.is_none() && out.degraded.is_none());
        assert_eq!(out.strategy, "MGARD");
    }

    #[test]
    fn relative_tolerance_resolves_through_value_range() {
        let (field, c) = artifact();
        let ds = Dataset::new(&c).with_original(&field);
        let out = retrieve(&ds, &Theory, &RetrievalRequest::rel(1e-3).measured(), &Backend::Direct)
            .expect("direct retrieval");
        assert!(out.achieved_error.expect("measured") <= c.absolute_bound(1e-3));
    }

    #[test]
    fn byte_budget_request_respects_budget() {
        let (_, c) = artifact();
        let ds = Dataset::new(&c);
        let budget = c.total_bytes() / 4;
        let out = retrieve(&ds, &Theory, &RetrievalRequest::byte_budget(budget), &Backend::Direct)
            .expect("budget retrieval");
        assert!(out.bytes <= budget, "spent {} of {budget}", out.bytes);
        assert!(out.estimated_error.is_finite());
        // A bigger budget never reports a worse bound.
        let better =
            retrieve(&ds, &Theory, &RetrievalRequest::byte_budget(budget * 3), &Backend::Direct)
                .expect("budget retrieval");
        assert!(better.estimated_error <= out.estimated_error);
    }

    #[test]
    fn plane_set_request_is_validated() {
        let (_, c) = artifact();
        let ds = Dataset::new(&c);
        let planes = vec![4u32; c.num_levels()];
        let out =
            retrieve(&ds, &Theory, &RetrievalRequest::plane_set(planes.clone()), &Backend::Direct)
                .expect("plane-set retrieval");
        assert_eq!(out.planes, planes);
        let bad = RetrievalRequest::plane_set(vec![4u32; c.num_levels() + 1]);
        assert!(retrieve(&ds, &Theory, &bad, &Backend::Direct).is_err());
        let overask = RetrievalRequest::plane_set(vec![c.num_planes() + 1; c.num_levels()]);
        assert!(retrieve(&ds, &Theory, &overask, &Backend::Direct).is_err());
    }

    #[test]
    fn coarse_level_decodes_coarse_grid() {
        let (_, c) = artifact();
        let ds = Dataset::new(&c);
        let req = RetrievalRequest::rel(1e-3).at_level(0);
        let out = retrieve(&ds, &Theory, &req, &Backend::Direct).expect("coarse retrieval");
        assert_eq!(out.field.shape(), c.decomposer().grid_shape_at_level(0));
        // Measurement on a coarse grid is rejected, not mis-measured.
        let bad = RetrievalRequest::rel(1e-3).at_level(0).measured();
        let (field, c2) = artifact();
        let ds2 = Dataset::new(&c2).with_original(&field);
        assert!(retrieve(&ds2, &Theory, &bad, &Backend::Direct).is_err());
    }

    #[test]
    fn measurement_without_original_is_rejected() {
        let (_, c) = artifact();
        let ds = Dataset::new(&c);
        let req = RetrievalRequest::rel(1e-3).measured();
        assert!(retrieve(&ds, &Theory, &req, &Backend::Direct).is_err());
        // So is an original of the wrong shape.
        let other = Field::from_fn("api", 0, Shape::cube(5), |x, _, _| x as f64);
        assert!(retrieve(&ds.with_original(&other), &Theory, &req, &Backend::Direct).is_err());
    }

    #[test]
    fn invalid_bounds_are_rejected() {
        let (_, c) = artifact();
        let ds = Dataset::new(&c);
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            assert!(retrieve(&ds, &Theory, &RetrievalRequest::abs(bad), &Backend::Direct).is_err());
        }
    }

    #[test]
    fn store_backend_survives_flaky_store() {
        let (field, c) = artifact();
        let ds = Dataset::new(&c).with_original(&field);
        let faults = FaultConfig { transient: 0.3, bit_flip: 0.15, ..FaultConfig::quiet(77) };
        let inj = FaultInjector::new(MemStore::from_compressed(&c), faults).unwrap();
        let bound = c.absolute_bound(1e-4);
        let req = RetrievalRequest::abs(bound)
            .measured()
            .with_tolerant(TolerantConfig { policy: RetryPolicy { max_attempts: 64 } });
        let backend = Backend::store(&inj);
        let out = retrieve(&ds, &Theory, &req, &backend).expect("tolerant retrieval");
        assert!(!out.is_degraded());
        let stats = out.stats.as_ref().expect("store path records stats");
        assert!(stats.retries > 0);
        assert!(out.achieved_error.expect("measured") <= bound);
    }

    #[test]
    fn store_backend_reports_honest_degradation() {
        let (field, c) = artifact();
        let ds = Dataset::new(&c);
        let bound = c.absolute_bound(1e-5);
        let l = c.num_levels() - 1;
        let store = MemStore::from_compressed(&c).without(&[(l, 0)]);
        let backend = Backend::store(&store);
        let out = retrieve(&ds, &Theory, &RetrievalRequest::abs(bound), &backend)
            .expect("degraded retrieval");
        let report = out.degraded.as_ref().expect("loss must degrade");
        assert!(report.lost_segments.contains(&(l, 0)));
        assert!(max_abs_error(field.data(), out.field.data()) <= report.achievable_bound);
        assert_eq!(out.estimated_error, report.achievable_bound);
    }

    #[test]
    fn store_and_direct_backends_are_bit_identical() {
        let (_, c) = artifact();
        let ds = Dataset::new(&c);
        let store = MemStore::from_compressed(&c);
        let backend = Backend::store(&store);
        for req in [RetrievalRequest::rel(1e-2), RetrievalRequest::rel(1e-4)] {
            let direct = retrieve(&ds, &Theory, &req, &Backend::Direct).expect("direct");
            let stored = retrieve(&ds, &Theory, &req, &backend).expect("stored");
            assert_eq!(direct.field.data(), stored.field.data());
            assert_eq!(direct.planes, stored.planes);
            assert_eq!(direct.bytes, stored.bytes);
        }
    }

    #[test]
    fn store_backend_honours_the_exec_policy() {
        // 33^3: the fine levels clear PARALLEL_MIN_COEFFS, so the threaded
        // policy really takes the parallel decode and recompose paths.
        let field = Field::from_fn("api", 0, Shape::cube(33), |x, y, z| {
            ((x as f64) * 0.3).sin() + ((y as f64) * 0.2).cos() * 0.4 + (z as f64) * 0.01
        });
        let request = RetrievalRequest::rel(1e-4);
        let direct = retrieve(
            &Dataset::new(&Compressed::compress(&field, &CompressConfig::default())),
            &Theory,
            &request,
            &Backend::Direct,
        )
        .expect("direct");
        let scalar =
            CompressConfig { threads: 1, kernel: PlaneKernel::Scalar, ..Default::default() };
        for cfg in [scalar, CompressConfig { threads: 4, ..Default::default() }] {
            let c = Compressed::compress(&field, &cfg);
            let store = MemStore::from_compressed(&c);
            let stored = retrieve(&Dataset::new(&c), &Theory, &request, &Backend::store(&store))
                .expect("stored");
            assert_eq!(stored.field.data(), direct.field.data(), "{:?}", cfg.exec());
        }
    }

    #[test]
    fn over_asking_strategy_is_clamped_not_rejected() {
        struct Overask;
        impl Retriever for Overask {
            fn name(&self) -> &str {
                "overask"
            }
            fn plan(&self, ctx: &RetrievalContext<'_>, _abs_bound: f64) -> RetrievalPlan {
                // A (mock) learned model predicting past every level's
                // capacity — must mean "fetch everything", not an error.
                RetrievalPlan::from_planes(vec![u32::MAX; ctx.compressed.num_levels()])
            }
        }
        let (field, c) = artifact();
        let store = MemStore::from_compressed(&c);
        let backend = Backend::store(&store);
        let out = retrieve(&Dataset::new(&c), &Overask, &RetrievalRequest::abs(1e-6), &backend)
            .expect("clamped retrieval");
        assert!(!out.is_degraded());
        assert_eq!(out.planes, c.plan_full().planes);
        assert_eq!(out.bytes, c.total_bytes());
        // Full fetch reproduces the quantization-limited reconstruction.
        assert_eq!(out.field.data(), c.retrieve(&c.plan_full()).data());

        // A sweep measures that same clamped plan, as a measured direct
        // retrieve returns it.
        let ds = Dataset::new(&c).with_original(&field);
        let req = RetrievalRequest::abs(1e-6).measured();
        let direct = retrieve(&ds, &Overask, &req, &Backend::Direct).expect("clamped retrieval");
        let p = &crate::sweep_strategy(&field, &c, &[], &Overask, &[1e-6]).expect("sweep")[0];
        assert_eq!((&p.planes, p.bytes), (&direct.planes, direct.bytes));
        assert_eq!((Some(p.achieved_err), Some(p.psnr)), (direct.achieved_error, direct.psnr));
    }

    #[test]
    fn coarse_decode_on_store_backend_is_rejected() {
        let (_, c) = artifact();
        let ds = Dataset::new(&c);
        let store = MemStore::from_compressed(&c);
        let backend = Backend::store(&store);
        let req = RetrievalRequest::rel(1e-3).at_level(0);
        assert!(retrieve(&ds, &Theory, &req, &backend).is_err());
    }
}
