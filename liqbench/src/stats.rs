//! Summary statistics the benchmark reports: medians, quartiles matching
//! Python's `statistics.quantiles(values, n=4)` (the "exclusive" method the
//! acceptance check uses), nearest-rank percentiles with their sample count,
//! and shares (failed operations of those attempted, cache ratios).

/// Sorted copy of `values` (NaNs sort last and never occur in practice:
/// every sample is a finite duration).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Median (mean of the two middle values for even counts); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let data = sorted(values);
    let n = data.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(data[n / 2]),
        _ => Some((data[n / 2 - 1] + data[n / 2]) / 2.0),
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4, method="exclusive")`; `None` for fewer
/// than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median — the spread measure the
/// acceptance check applies to every end-to-end metric.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid)
}

/// A nearest-rank percentile together with the number of samples it was
/// taken over and how many samples lie strictly beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile value.
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
    /// Samples above the percentile's rank. A tail percentile is only worth
    /// reporting when at least ten samples lie beyond it.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<Percentile> {
    let data = sorted(values);
    let n = data.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some(Percentile {
        value: data[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// `part` as a share of `whole`, 0 when `whole` is 0: the failed-operation
/// share, and the cache ratios (skips, shard reuse, shortcut answers).
pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 3.75)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            Some((15.0, 45.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_iqr_is_spread_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = relative_iqr(&ten).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[0.0, 0.0]), None);
    }

    #[test]
    fn percentile_reports_rank_and_tail_count() {
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p50 = percentile(&hundred, 50.0).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (50.0, 100, 50));
        let p99 = percentile(&hundred, 99.0).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&thousand, 99.0).unwrap();
        assert_eq!((p99.value, p99.beyond), (990.0, 10));
        assert_eq!(percentile(&[7.0], 99.0).unwrap().value, 7.0);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn share_handles_an_empty_whole() {
        assert_eq!(share(0, 0), 0.0);
        assert_eq!(share(1, 4), 0.25);
        assert_eq!(share(0, 10), 0.0);
    }
}
