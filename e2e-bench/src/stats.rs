//! Order statistics used by every reported number.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty slice. Ordering is `f64::total_cmp`, so a NaN
/// cannot panic the sort (it sorts last and shows up in the output).
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// Nearest-rank percentile (`p` in `0..=100`) of `xs`; `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Class-balanced median: the median of each class's samples, then the
/// mean over the classes that have any. A shift in the mix of classes
/// therefore cannot pass for a speed-up. `None` when every class is empty.
pub fn class_balanced_median(classes: &[Vec<f64>]) -> Option<f64> {
    let medians: Vec<f64> = classes.iter().filter_map(|c| median(c)).collect();
    if medians.is_empty() {
        return None;
    }
    Some(medians.iter().sum::<f64>() / medians.len() as f64)
}

/// Geometric mean of positive values; `None` when empty.
pub fn geometric_mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_single_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn median_ignores_a_few_stalled_rounds() {
        // Ten rounds at ~100 ms, three of them stalled to seconds.
        let rounds = [100.0, 101.0, 99.0, 2500.0, 100.5, 99.5, 3100.0, 100.2, 99.8, 1800.0];
        let m = median(&rounds).expect("non-empty");
        assert!((99.0..=101.0).contains(&m), "median moved to {m}");
    }

    #[test]
    fn nan_sorts_last_instead_of_panicking() {
        assert_eq!(median(&[1.0, f64::NAN, 2.0]), Some(2.0));
        assert!(percentile(&[1.0, f64::NAN, 2.0], 100.0).expect("non-empty").is_nan());
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[5.0], 99.0), Some(5.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn class_balance_weighs_classes_not_samples() {
        // A fast class with many samples and a slow class with one.
        let classes = vec![vec![1.0; 99], vec![101.0]];
        assert_eq!(class_balanced_median(&classes), Some(51.0));
        // Empty classes are left out rather than counted as zero.
        let with_empty = vec![vec![], vec![4.0, 2.0, 6.0], vec![]];
        assert_eq!(class_balanced_median(&with_empty), Some(4.0));
        assert_eq!(class_balanced_median(&[vec![], vec![]]), None);
        assert_eq!(class_balanced_median(&[]), None);
    }

    #[test]
    fn geometric_mean_of_ratios() {
        assert_eq!(geometric_mean(&[]), None);
        let g = geometric_mean(&[0.1, 10.0, 1.0]).expect("non-empty");
        assert!((g - 1.0).abs() < 1e-12);
    }
}
