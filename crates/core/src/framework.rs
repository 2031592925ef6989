//! The unified retrieval framework (paper Fig. 4): one interface over the
//! theory-based baseline and the two DNN retrievers.

use crate::dmgard::DMgard;
use crate::emgard::EMgard;
use pmr_mgard::{Compressed, RetrievalPlan};

/// Everything a retriever may consult when planning: the compressed
/// artifact and the snapshot's base feature vector (stored as metadata at
/// compression time in a production deployment).
pub struct RetrievalContext<'a> {
    pub compressed: &'a Compressed,
    pub features: &'a [f32],
}

/// A retrieval strategy: given the retrieval context and an absolute error
/// bound, choose the per-level plane counts to fetch.
///
/// Planning takes `&self` — no retriever mutates itself while planning —
/// and the `Send + Sync` supertraits let one trained retriever be shared
/// across worker threads (e.g. the batch APIs in [`crate::experiment`]).
pub trait Retriever: Send + Sync {
    /// Human-readable strategy name (used in reports and benches).
    fn name(&self) -> &str;

    /// Produce the plane counts for a requested absolute error bound.
    fn plan(&self, ctx: &RetrievalContext<'_>, abs_bound: f64) -> RetrievalPlan;
}

/// Original MGARD: theory constants + greedy retriever. Stateless.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Theory;

impl Retriever for Theory {
    fn name(&self) -> &str {
        "MGARD"
    }

    fn plan(&self, ctx: &RetrievalContext<'_>, abs_bound: f64) -> RetrievalPlan {
        ctx.compressed.plan_theory(abs_bound)
    }
}

impl Retriever for DMgard {
    fn name(&self) -> &str {
        "D-MGARD"
    }

    fn plan(&self, ctx: &RetrievalContext<'_>, abs_bound: f64) -> RetrievalPlan {
        self.predict_plan(ctx.features, abs_bound)
    }
}

impl Retriever for EMgard {
    fn name(&self) -> &str {
        "E-MGARD"
    }

    fn plan(&self, ctx: &RetrievalContext<'_>, abs_bound: f64) -> RetrievalPlan {
        // The inherent method (learned constants + greedy retriever).
        EMgard::plan(self, ctx.compressed, abs_bound)
    }
}

/// Combined retriever (paper future work): D-MGARD initialises the plan,
/// E-MGARD's learned estimate grows/sheds planes to meet the bound.
#[derive(Debug, Clone)]
pub struct Combined {
    pub dmgard: DMgard,
    pub emgard: EMgard,
}

impl Retriever for Combined {
    fn name(&self) -> &str {
        "DE-MGARD"
    }

    fn plan(&self, ctx: &RetrievalContext<'_>, abs_bound: f64) -> RetrievalPlan {
        let initial = self.dmgard.predict(ctx.features, abs_bound);
        let constants = self.emgard.predict_constants(ctx.compressed);
        pmr_mgard::retrieve::refine_plan(ctx.compressed.levels(), &constants, abs_bound, &initial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::retrieval_features;
    use pmr_field::{Field, Shape};
    use pmr_mgard::CompressConfig;

    #[test]
    fn theory_retriever_end_to_end() {
        let field = Field::from_fn("t", 0, Shape::cube(9), |x, y, _| {
            ((x as f64) * 0.7).sin() + (y as f64) * 0.05
        });
        let c = Compressed::compress(&field, &CompressConfig::default());
        let feats = retrieval_features(&field, &c);
        assert_eq!(Theory.name(), "MGARD");
        let bound = c.absolute_bound(1e-3);
        let p = &crate::sweep_strategy(&field, &c, &feats, &Theory, &[bound]).unwrap()[0];
        assert!(p.achieved_err <= bound);
        assert!(p.bytes > 0);
        assert!(p.psnr > 20.0);
    }

    #[test]
    fn retrievers_are_sync_shareable() {
        fn assert_retriever<T: Retriever>() {}
        assert_retriever::<Theory>();
        assert_retriever::<DMgard>();
        assert_retriever::<EMgard>();
        assert_retriever::<Combined>();

        // Planning through a shared reference from several threads.
        let field = Field::from_fn("t", 0, Shape::cube(9), |x, y, _| {
            ((x as f64) * 0.7).sin() + (y as f64) * 0.05
        });
        let c = Compressed::compress(&field, &CompressConfig::default());
        let feats = retrieval_features(&field, &c);
        let r: &dyn Retriever = &Theory;
        let bound = c.absolute_bound(1e-3);
        let plans: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let ctx = RetrievalContext { compressed: &c, features: &feats };
                        r.plan(&ctx, bound).planes
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("planner thread")).collect()
        });
        assert!(plans.windows(2).all(|w| w[0] == w[1]));
    }
}
