//! Per-layer times from the traced ops' spans.

use crate::stats::median;
use crate::trace::OpBreakdown;
use std::collections::BTreeMap;

/// Self time per op, by layer and class, over the traced ops of one kind.
pub struct LayerTable {
    /// Root-span duration of each op, by class (ms).
    totals: Vec<Vec<f64>>,
    /// Self time of each layer in each op, by class (ms). A class holds
    /// samples for a layer only if the layer ran in one of its ops; its
    /// other ops then count as zero.
    layers: BTreeMap<&'static str, Vec<Vec<f64>>>,
    class_raw: Vec<u64>,
}

impl LayerTable {
    pub fn new(ops: &[OpBreakdown], kind: &str, class_raw: &[u64]) -> Self {
        let classes = class_raw.len();
        let ops: Vec<&OpBreakdown> = ops.iter().filter(|o| o.kind == kind).collect();
        let mut totals = vec![Vec::new(); classes];
        let mut layers: BTreeMap<&'static str, Vec<Vec<f64>>> = BTreeMap::new();
        let mut seen: Vec<Vec<&'static str>> = vec![Vec::new(); classes];
        for op in &ops {
            for &name in op.layers.keys() {
                if !seen[op.class].contains(&name) {
                    seen[op.class].push(name);
                }
            }
        }
        for op in &ops {
            totals[op.class].push(op.total_ns as f64 / 1e6);
            for &name in &seen[op.class] {
                let ns = op.layers.get(name).copied().unwrap_or(0);
                layers.entry(name).or_insert_with(|| vec![Vec::new(); classes])[op.class]
                    .push(ns as f64 / 1e6);
            }
        }
        LayerTable { totals, layers, class_raw: class_raw.to_vec() }
    }

    /// Median self time per class, for the classes where the layer ran.
    fn class_medians(&self, layer: &str) -> Vec<(usize, f64)> {
        self.layers.get(layer).map_or_else(Vec::new, |per_class| {
            per_class.iter().enumerate().filter_map(|(c, xs)| Some((c, median(xs)?))).collect()
        })
    }

    /// Class-balanced median self time of `layer` in the ops where it
    /// runs (ms); 0 when it ran in none.
    pub fn ms(&self, layer: &str) -> f64 {
        let m = self.class_medians(layer);
        if m.is_empty() {
            return 0.0;
        }
        m.iter().map(|&(_, ms)| ms).sum::<f64>() / m.len() as f64
    }

    /// Raw field bytes ÷ self time (GB/s, bytes computed from the array
    /// size, not measured traffic), balanced over the classes where the
    /// layer ran.
    pub fn gbps(&self, layer: &str) -> f64 {
        let m: Vec<f64> = self
            .class_medians(layer)
            .into_iter()
            .filter(|&(_, ms)| ms > 0.0)
            .map(|(c, ms)| self.class_raw[c] as f64 / 1e9 / (ms / 1e3))
            .collect();
        if m.is_empty() {
            return 0.0;
        }
        m.iter().sum::<f64>() / m.len() as f64
    }

    /// Class-balanced median duration of the whole traced op (ms).
    pub fn op_ms(&self) -> f64 {
        crate::stats::class_balanced_median(&self.totals).unwrap_or(0.0)
    }

    /// Self time of `layer` per op over all classes (ms): a class where
    /// the layer did not run counts as zero. What the share table adds up.
    pub fn per_op_ms(&self, layer: &str) -> f64 {
        let classes = self.totals.iter().filter(|t| !t.is_empty()).count().max(1) as f64;
        self.class_medians(layer).iter().map(|&(_, ms)| ms).sum::<f64>() / classes
    }

    /// Every span name seen, with its [`LayerTable::per_op_ms`]. The root
    /// span's own self time is listed under its kind: time no layer span
    /// covers.
    pub fn per_op(&self) -> Vec<(&'static str, f64)> {
        self.layers.keys().map(|&name| (name, self.per_op_ms(name))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(class: usize, total_ns: u64, layers: &[(&'static str, u64)]) -> OpBreakdown {
        OpBreakdown { class, kind: "replay", total_ns, layers: layers.iter().copied().collect() }
    }

    #[test]
    fn times_are_balanced_over_the_classes_where_a_layer_runs() {
        let ms = 1_000_000;
        let ops = vec![
            // Class 0 decodes directly; class 1 also fetches.
            op(0, 10 * ms, &[("decode", 6 * ms), ("replay", 4 * ms)]),
            op(0, 10 * ms, &[("decode", 6 * ms), ("replay", 4 * ms)]),
            op(1, 20 * ms, &[("decode", 8 * ms), ("fetch", 10 * ms), ("replay", 2 * ms)]),
            // An op of another kind is left out.
            OpBreakdown { kind: "op", ..op(1, 99 * ms, &[("fetch", 99 * ms)]) },
        ];
        let t = LayerTable::new(&ops, "replay", &[8_000_000, 8_000_000]);
        assert_eq!(t.ms("decode"), 7.0);
        assert_eq!(t.ms("fetch"), 10.0);
        assert_eq!(t.ms("absent"), 0.0);
        assert_eq!(t.op_ms(), 15.0);
        // 8 MB in 6 ms and in 8 ms.
        let gbps = t.gbps("decode");
        assert!((gbps - (8.0 / 6.0 + 1.0) / 2.0).abs() < 1e-9, "{gbps}");
        // Per-op times are over all classes: fetch is 10 ms in one of two.
        let per_op: BTreeMap<_, _> = t.per_op().into_iter().collect();
        assert_eq!(per_op["fetch"], 5.0);
        assert_eq!(per_op["decode"], 7.0);
        assert_eq!(per_op["replay"], 3.0);
        // They add up to the op.
        assert_eq!(per_op.values().sum::<f64>(), t.op_ms());
    }

    #[test]
    fn an_op_where_a_class_layer_did_not_run_counts_as_zero() {
        let ms = 1_000_000;
        // A cold cache fetches on two of three ops of the class.
        let ops = vec![
            op(0, 5 * ms, &[("handle", ms), ("fetch", 4 * ms)]),
            op(0, ms, &[("handle", ms)]),
            op(0, 5 * ms, &[("handle", ms), ("fetch", 4 * ms)]),
        ];
        let t = LayerTable::new(&ops, "replay", &[1000]);
        assert_eq!(t.ms("fetch"), 4.0);
        let hot = vec![op(0, ms, &[("handle", ms)]), op(0, ms, &[("handle", ms)])];
        assert_eq!(LayerTable::new(&hot, "replay", &[1000]).ms("fetch"), 0.0);
    }
}
