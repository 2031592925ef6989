//! Progressive retrieval sessions: monotone refinement without re-reads.
//!
//! The whole point of bit-plane progressive storage (paper §II-A) is that a
//! consumer can start from a coarse reconstruction and *refine* it by
//! fetching only the additional planes — never re-reading bytes it already
//! holds. [`ProgressiveSession`] tracks the plane counts fetched so far and
//! accounts exactly the incremental bytes of each refinement.

use crate::compress::Compressed;
use crate::retrieve::RetrievalPlan;
use pmr_error::PmrError;
use pmr_field::Field;

/// A stateful progressive reader over one compressed artifact.
///
/// ```
/// use pmr_field::{Field, Shape};
/// use pmr_mgard::{CompressConfig, Compressed, ProgressiveSession};
///
/// let field = Field::from_fn("demo", 0, Shape::cube(9), |x, _, _| (x as f64 * 0.3).cos());
/// let compressed = Compressed::compress(&field, &CompressConfig::default());
///
/// let mut session = ProgressiveSession::new(&compressed);
/// let coarse_bytes = session.refine_theory(compressed.absolute_bound(1e-1));
/// let extra_bytes = session.refine_theory(compressed.absolute_bound(1e-4));
/// // The refinement fetched only the delta; together they equal a direct fetch.
/// let direct = compressed.retrieved_bytes(&compressed.plan_theory(compressed.absolute_bound(1e-4)));
/// assert_eq!(coarse_bytes + extra_bytes, direct);
/// ```
#[derive(Debug, Clone)]
pub struct ProgressiveSession<'a> {
    compressed: &'a Compressed,
    planes: Vec<u32>,
    fetched_bytes: u64,
}

impl<'a> ProgressiveSession<'a> {
    /// Open a session with nothing fetched yet.
    pub fn new(compressed: &'a Compressed) -> Self {
        ProgressiveSession {
            compressed,
            planes: vec![0; compressed.num_levels()],
            fetched_bytes: 0,
        }
    }

    /// Plane counts currently held.
    pub fn planes(&self) -> &[u32] {
        &self.planes
    }

    /// Total bytes fetched so far across all refinements.
    pub fn fetched_bytes(&self) -> u64 {
        self.fetched_bytes
    }

    /// Refine to (at least) `plan`: fetch only the planes not yet held.
    /// Returns the incremental bytes read. Plans are merged monotonically —
    /// a looser follow-up request never discards fetched planes.
    ///
    /// Externally supplied plans are validated against the artifact: a plan
    /// covering the wrong number of levels, or requesting more planes than a
    /// level holds, is a [`PmrError::InvalidConfig`] — the session state is
    /// left untouched. (Earlier versions silently truncated both; a predicted
    /// plan that over-asks is a caller bug worth surfacing.)
    pub fn refine_to_plan(&mut self, plan: &RetrievalPlan) -> Result<u64, PmrError> {
        self.compressed.validate_plan(plan)?;
        Ok(self.merge_valid(plan))
    }

    /// Merge a plan already known to match the artifact's level layout.
    fn merge_valid(&mut self, plan: &RetrievalPlan) -> u64 {
        let mut delta = 0u64;
        for (l, (cur, &want)) in self.planes.iter_mut().zip(&plan.planes).enumerate() {
            let lvl = &self.compressed.levels()[l];
            if want > *cur {
                delta += lvl.size_of_first(want) - lvl.size_of_first(*cur);
                *cur = want;
            }
        }
        self.fetched_bytes += delta;
        delta
    }

    /// Refine using the theory-based error control. Returns incremental
    /// bytes. (Infallible: the planner only emits plans matching the
    /// artifact.)
    pub fn refine_theory(&mut self, abs_bound: f64) -> u64 {
        let plan = self.compressed.plan_theory(abs_bound);
        self.merge_valid(&plan)
    }

    /// Refine using externally supplied per-level constants (E-MGARD).
    pub fn refine_with_constants(&mut self, abs_bound: f64, constants: &[f64]) -> u64 {
        let plan = self.compressed.plan_with_constants(abs_bound, constants);
        self.merge_valid(&plan)
    }

    /// Reconstruct the field from everything fetched so far. Decoding and
    /// recomposition run under the artifact's [`crate::exec::ExecPolicy`].
    pub fn current_field(&self) -> Field {
        let plan = RetrievalPlan::from_planes(self.planes.clone());
        self.compressed.retrieve(&plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::CompressConfig;
    use pmr_field::{error::max_abs_error, Shape};

    fn artifact() -> (Field, Compressed) {
        let field = Field::from_fn("s", 0, Shape::cube(9), |x, y, z| {
            ((x as f64) * 0.6).sin() + ((y as f64) * 0.4).cos() * 0.5 + (z as f64) * 0.02
        });
        let c = Compressed::compress(&field, &CompressConfig::default());
        (field, c)
    }

    #[test]
    fn refinement_bytes_sum_to_direct_fetch() {
        let (_, c) = artifact();
        let mut session = ProgressiveSession::new(&c);
        let b1 = session.refine_theory(c.absolute_bound(1e-1));
        let b2 = session.refine_theory(c.absolute_bound(1e-3));
        let b3 = session.refine_theory(c.absolute_bound(1e-5));
        // Direct fetch at the tightest bound costs the same total bytes.
        let direct = c.retrieved_bytes(&c.plan_theory(c.absolute_bound(1e-5)));
        assert_eq!(b1 + b2 + b3, direct);
        assert_eq!(session.fetched_bytes(), direct);
    }

    #[test]
    fn refinement_error_matches_direct_retrieval() {
        let (field, c) = artifact();
        let mut session = ProgressiveSession::new(&c);
        session.refine_theory(c.absolute_bound(1e-2));
        session.refine_theory(c.absolute_bound(1e-4));
        let via_session = session.current_field();
        let direct = c.retrieve(&c.plan_theory(c.absolute_bound(1e-4)));
        assert_eq!(via_session.data(), direct.data());
        assert!(max_abs_error(field.data(), via_session.data()) <= c.absolute_bound(1e-4));
    }

    #[test]
    fn loosening_requests_fetch_nothing() {
        let (_, c) = artifact();
        let mut session = ProgressiveSession::new(&c);
        let first = session.refine_theory(c.absolute_bound(1e-4));
        assert!(first > 0);
        let second = session.refine_theory(c.absolute_bound(1e-1));
        assert_eq!(second, 0, "looser bound must not re-read");
        // Plane counts unchanged.
        let direct = c.plan_theory(c.absolute_bound(1e-4));
        assert_eq!(session.planes(), &direct.planes[..]);
    }

    #[test]
    fn refine_to_explicit_plan_merges_elementwise() {
        let (_, c) = artifact();
        let mut session = ProgressiveSession::new(&c);
        let nl = c.num_levels();
        session.refine_to_plan(&RetrievalPlan::from_planes(vec![4; nl])).unwrap();
        let mut uneven = vec![2u32; nl];
        uneven[nl - 1] = 8;
        session.refine_to_plan(&RetrievalPlan::from_planes(uneven)).unwrap();
        let mut expect = vec![4u32; nl];
        expect[nl - 1] = 8;
        assert_eq!(session.planes(), &expect[..]);
    }

    #[test]
    fn constants_refinement_reads_less_than_theory() {
        let (_, c) = artifact();
        let bound = c.absolute_bound(1e-3);
        let mut theory = ProgressiveSession::new(&c);
        theory.refine_theory(bound);
        let tuned: Vec<f64> = c.theory_constants().iter().map(|v| v / 20.0).collect();
        let mut learned = ProgressiveSession::new(&c);
        learned.refine_with_constants(bound, &tuned);
        assert!(learned.fetched_bytes() <= theory.fetched_bytes());
    }

    #[test]
    fn over_asking_plan_is_rejected_without_side_effects() {
        let (_, c) = artifact();
        let mut session = ProgressiveSession::new(&c);
        let err = session
            .refine_to_plan(&RetrievalPlan::from_planes(vec![99; c.num_levels()]))
            .unwrap_err();
        assert!(matches!(err, PmrError::InvalidConfig { .. }));
        assert_eq!(session.fetched_bytes(), 0, "rejected plan must not mutate the session");
        assert!(session.planes().iter().all(|&b| b == 0));
    }

    #[test]
    fn mismatched_level_count_is_rejected() {
        let (_, c) = artifact();
        let mut session = ProgressiveSession::new(&c);
        let err = session
            .refine_to_plan(&RetrievalPlan::from_planes(vec![1; c.num_levels() + 1]))
            .unwrap_err();
        assert!(matches!(err, PmrError::InvalidConfig { .. }));
        assert_eq!(session.fetched_bytes(), 0);
    }

    #[test]
    fn full_plan_via_validation_fetches_everything() {
        let (_, c) = artifact();
        let mut session = ProgressiveSession::new(&c);
        let full: Vec<u32> = c.levels().iter().map(|l| l.num_planes()).collect();
        session.refine_to_plan(&c.plan_from_planes(full).unwrap()).unwrap();
        assert_eq!(session.fetched_bytes(), c.total_bytes());
    }
}
