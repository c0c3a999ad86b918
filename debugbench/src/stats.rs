//! Order statistics over per-op samples.

/// Median of `xs` (mean of the middle two for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest of the usual reporting percentiles that still has at
/// least ten samples beyond it, with its value; `None` below 20 samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| (1.0 - p / 100.0) * xs.len() as f64 >= 10.0)
        .map(|p| (p, quantile(xs, p / 100.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        let xs: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.0), Some(50.0));
        let xs: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail(&xs).map(|t| t.0), Some(95.0));
    }
}
