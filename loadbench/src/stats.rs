//! Order statistics the benchmark reports: medians, nearest-rank
//! percentiles, the percentile a sample size supports, and the
//! inter-quartile spread the acceptance rule is written in.

/// Nearest-rank percentile of an ascending-sorted slice (`p` in `[0, 100]`).
/// Returns 0 for an empty slice so a failed run still prints a number.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` and returns their median (mean of the middle pair).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The tail percentiles the benchmark may report, ascending, each with
/// the share of samples beyond it per thousand.
const TAIL_LADDER: [(f64, usize); 4] = [(90.0, 100), (95.0, 50), (99.0, 10), (99.9, 1)];

/// The highest tail percentile that still has at least ten samples beyond
/// it, or `None` when even p90 does not (fewer than 100 samples).
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&(_, beyond_per_mille)| samples * beyond_per_mille >= 10 * 1000)
        .map(|&(p, _)| p)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) computes them — the rule the acceptance check
/// is written in. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(&mut values.to_vec());
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn picker_wants_ten_samples_beyond_the_percentile() {
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16, 32], n=4) == [1.75, 6.0, 20.0]
        let (q1, q3) = quartiles(&[32.0, 1.0, 16.0, 2.0, 8.0, 4.0]);
        assert!((q1 - 1.75).abs() < 1e-12 && (q3 - 20.0).abs() < 1e-12);
        assert!((iqr_share(&[32.0, 1.0, 16.0, 2.0, 8.0, 4.0]) - 18.25 / 6.0).abs() < 1e-12);
    }
}
