//! Order statistics over per-op timings.
//!
//! A tail percentile is only meaningful when enough ops lie beyond it:
//! the p99 of 40 ops is just the slowest op, and it moves with every
//! scheduling hiccup. [`tail`] therefore refuses a percentile that has
//! fewer than [`MIN_BEYOND`] ops above it, and every caller reports the
//! op count next to the value.

/// Ops that must lie strictly beyond a tail percentile for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest value
/// with at least `q` of the samples at or below it. `None` on an empty
/// slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q)])
}

/// Index of the nearest-rank `q` percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    let r = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// The `q` percentile, only if at least [`MIN_BEYOND`] samples lie
/// strictly beyond its rank.
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let beyond = sorted.len() - 1 - rank(sorted.len(), q);
    (beyond >= MIN_BEYOND).then(|| sorted[rank(sorted.len(), q)])
}

/// Median of an unsorted sample (nearest rank).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|k| k as f64).collect()
    }

    #[test]
    fn one_op_has_a_median_and_no_tail() {
        let v = ramp(1);
        assert_eq!(percentile(&v, 0.5), Some(1.0));
        assert_eq!(tail(&v, 0.5), None);
        assert_eq!(tail(&v, 0.9), None);
        assert_eq!(tail(&v, 0.99), None);
    }

    #[test]
    fn nine_ops_have_no_tail_at_all() {
        // Even the median has only four ops beyond it.
        let v = ramp(9);
        assert_eq!(percentile(&v, 0.5), Some(5.0));
        assert_eq!(tail(&v, 0.5), None);
        assert_eq!(tail(&v, 0.9), None);
    }

    #[test]
    fn hundred_ops_support_p90_but_not_p99() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(tail(&v, 0.9), Some(90.0));
        assert_eq!(tail(&v, 0.99), None);
        assert_eq!(percentile(&v, 0.99), Some(99.0));
    }

    #[test]
    fn thousand_ops_support_p99() {
        let v = ramp(1000);
        assert_eq!(tail(&v, 0.99), Some(990.0));
        assert_eq!(tail(&v, 0.999), None);
    }

    #[test]
    fn median_sorts_its_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}
