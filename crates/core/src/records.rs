//! Harvesting training records from compression experiments.
//!
//! Paper §III-C, step 1–2: "run the compression experiments under a set of
//! absolute errors; collect the achieved maximum errors as well as the
//! numbers of bit-planes fetched". The 81 relative bounds of §IV-A3
//! (`{1..9} × 10^{-9..-1}`) are reproduced by [`standard_rel_bounds`].

use crate::features;
use pmr_field::{error::max_abs_error, Field};
use pmr_mgard::{Compressed, ExecPolicy};
use std::collections::BTreeMap;

/// One `(requested bound → plan → achieved error)` observation.
#[derive(Debug, Clone, PartialEq)]
pub struct RetrievalRecord {
    pub field_name: String,
    pub timestep: usize,
    /// Base data features of the snapshot (see [`crate::features`]).
    pub features: Vec<f32>,
    /// Requested relative bound.
    pub rel_bound: f64,
    /// Requested absolute bound (`rel_bound * value_range`).
    pub abs_bound: f64,
    /// Actual max error of the reconstruction under the theory plan.
    pub achieved_err: f64,
    /// Plane counts `b_l` the theory retriever chose.
    pub planes: Vec<u32>,
    /// Bytes the plan fetches.
    pub retrieved_bytes: u64,
}

/// The paper's 81 relative error bounds: `{1..9} × 10^k` for
/// `k = -9 ..= -1`, ascending.
pub fn standard_rel_bounds() -> Vec<f64> {
    let mut bounds = Vec::with_capacity(81);
    for k in (-9i32..=-1).rev() {
        for m in 1..=9u32 {
            bounds.push(m as f64 * 10f64.powi(k));
        }
    }
    bounds.sort_by(f64::total_cmp);
    bounds
}

/// Run the theory retriever for every bound and collect records.
///
/// Reconstructions are memoised by plan (many bounds collapse onto the same
/// plane counts), which typically cuts the recomposition work 3–5×.
pub fn collect_records(
    field: &Field,
    compressed: &Compressed,
    rel_bounds: &[f64],
) -> Vec<RetrievalRecord> {
    let base = features::retrieval_features(field, compressed);
    // BTreeMap keeps the cache's iteration order deterministic; records are
    // training inputs, so their production must not depend on hash order.
    let mut achieved_cache: BTreeMap<Vec<u32>, f64> = BTreeMap::new();
    let mut out = Vec::with_capacity(rel_bounds.len());
    for &rel in rel_bounds {
        let abs = compressed.absolute_bound(rel);
        let plan = compressed.plan_theory(abs);
        let achieved = *achieved_cache
            .entry(plan.planes.clone())
            .or_insert_with(|| max_abs_error(field.data(), compressed.retrieve(&plan).data()));
        let retrieved_bytes = compressed.retrieved_bytes(&plan);
        out.push(RetrievalRecord {
            field_name: field.name().to_string(),
            timestep: field.timestep(),
            features: base.clone(),
            rel_bound: rel,
            abs_bound: abs,
            achieved_err: achieved,
            planes: plan.planes,
            retrieved_bytes,
        });
    }
    out
}

/// Harvest records from many `(field, compressed)` pairs: one
/// [`collect_records`] per snapshot, fanned out over the cores, in order.
pub fn collect_records_many(
    items: &[(&Field, &Compressed)],
    rel_bounds: &[f64],
) -> Vec<Vec<RetrievalRecord>> {
    pmr_mgard::exec::fan_out(ExecPolicy::default().resolved_threads(), items.len(), |i| {
        let (field, compressed) = items[i];
        collect_records(field, compressed, rel_bounds)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmr_field::Shape;
    use pmr_mgard::CompressConfig;

    fn sample() -> (Field, Compressed) {
        let field = Field::from_fn("s", 2, Shape::cube(9), |x, y, z| {
            ((x as f64) * 0.5).sin() + ((y as f64) * 0.3).cos() * ((z as f64) * 0.2).sin()
        });
        let c = Compressed::compress(&field, &CompressConfig::default());
        (field, c)
    }

    #[test]
    fn standard_bounds_count_and_range() {
        let b = standard_rel_bounds();
        assert_eq!(b.len(), 81);
        assert_eq!(b[0], 1e-9);
        assert_eq!(*b.last().unwrap(), 0.9);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn records_respect_bounds_and_monotonicity() {
        let (field, c) = sample();
        let bounds = [1e-6, 1e-4, 1e-2, 1e-1];
        let recs = collect_records(&field, &c, &bounds);
        assert_eq!(recs.len(), 4);
        for r in &recs {
            // The motivating gap: achieved err is (well) below requested.
            assert!(
                r.achieved_err <= r.abs_bound,
                "bound {} violated: {}",
                r.abs_bound,
                r.achieved_err
            );
            assert_eq!(r.planes.len(), c.num_levels());
            assert_eq!(r.timestep, 2);
        }
        // Tighter bound never reads fewer bytes.
        assert!(recs.windows(2).all(|w| w[0].retrieved_bytes >= w[1].retrieved_bytes));
    }

    #[test]
    fn collect_records_many_matches_sequential() {
        let pairs: Vec<(Field, Compressed)> = (0..3)
            .map(|t| {
                let field = Field::from_fn("m", t, Shape::cube(9), move |x, y, z| {
                    ((x as f64) * (0.4 + 0.03 * t as f64)).sin()
                        + ((y + z) as f64 * 0.2).cos() * 0.5
                });
                let c = Compressed::compress(&field, &CompressConfig::default());
                (field, c)
            })
            .collect();
        let items: Vec<(&Field, &Compressed)> = pairs.iter().map(|(f, c)| (f, c)).collect();
        let bounds = [1e-5, 1e-3, 1e-1];
        let batched = collect_records_many(&items, &bounds);
        assert_eq!(batched.len(), 3);
        for (i, (f, c)) in pairs.iter().enumerate() {
            assert_eq!(batched[i], collect_records(f, c, &bounds));
        }
    }

    #[test]
    fn memoisation_consistent_with_direct() {
        let (field, c) = sample();
        // Two nearby bounds likely share a plan; achieved errors must match
        // an independent computation.
        let recs = collect_records(&field, &c, &[1e-3, 1.1e-3]);
        for r in &recs {
            let plan = c.plan_theory(r.abs_bound);
            let rec = c.retrieve(&plan);
            let direct = max_abs_error(field.data(), rec.data());
            assert_eq!(r.achieved_err, direct);
        }
    }
}
