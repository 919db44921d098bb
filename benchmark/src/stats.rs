//! Order statistics the harness reports: nearest-rank percentiles and
//! how many samples lie beyond one, segment medians with their spread,
//! and geometric means over models.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Sorts a sample ascending (NaNs last, so they surface as the maximum).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs
}

/// Nearest-rank `q`-quantile of an ascending sample: the smallest value
/// with at least `q * n` values at or below it. 0 for an empty sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Nearest-rank quantile of an unsorted sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(xs.to_vec()), q)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// `q`-quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Median by the midpoint rule (mean of the two central values for an
/// even count). 0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(xs, n=4)` uses; both are the single value for
/// a sample of one.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs.to_vec());
    let n = s.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n == 1 {
        return (s[0], s[0]);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, interpolated between the
        // two neighbouring values (extrapolated past the ends of a tiny
        // sample, as Python does).
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        s[lo - 1] + frac * (s[lo] - s[lo - 1])
    };
    (at(1), at(3))
}

/// Interquartile range over the median: the spread the benchmark's
/// bounds are judged against. 0 when the median is 0.
pub fn spread(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / m.abs()
}

/// Geometric mean of positive values; 0 for an empty sample or when any
/// value is not positive (a model that did no work must not vanish into
/// an average).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || x.is_nan()) {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beyond_counts_strictly_greater_ranks() {
        assert_eq!(beyond(100, 0.90), 10);
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(0, 0.5), 0);
        assert_eq!(beyond(1, 0.99), 0);
        // The highest percentile with ten samples beyond it: p99 needs
        // 1000 samples, p98 500, p95 200.
        assert!(beyond(1000, 0.99) >= MIN_BEYOND && beyond(999, 0.99) < MIN_BEYOND);
        assert!(beyond(500, 0.98) >= MIN_BEYOND && beyond(499, 0.98) < MIN_BEYOND);
        assert!(beyond(200, 0.95) >= MIN_BEYOND && beyond(199, 0.95) < MIN_BEYOND);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.50), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn segment_median_and_iqr_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        let seven = [7.0, 1.0, 4.0, 2.0, 6.0, 3.0, 5.0];
        assert_eq!(median(&seven), 4.0);
        assert_eq!(quartiles(&seven), (2.0, 6.0));
        assert_eq!(spread(&seven), 1.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&ten), 5.5);
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn geomean_refuses_non_positive_members() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[4.0, 0.0]), 0.0);
    }
}
