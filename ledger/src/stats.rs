//! The few statistics the ledger reports: median and quartiles, computed
//! the way Python's `statistics.quantiles(values, n=4)` does (exclusive
//! method), so `ledger agree` and an outside check read the same spread.

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `(q1, q3)`. Fewer than two values have no spread: both are the value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    (quantile(values, 0.25), quantile(values, 0.75))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The `p`-quantile (0 < p < 1) of `values`, 0 when empty.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            // Position p·(n+1) on a 1-based scale, clamped to the data.
            let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
            let lo = pos.floor() as usize;
            let frac = pos - lo as f64;
            let hi = (lo + 1).min(n);
            v[lo - 1] + frac * (v[hi - 1] - v[lo - 1])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }
}
