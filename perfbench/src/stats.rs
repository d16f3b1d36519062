//! Order statistics over measured samples.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// such that at least `q · n` samples are at or below it. Always one of
/// the samples (never interpolated); `q` is clamped to `[0, 1]` and
/// `q = 0` gives the minimum. Returns 0 for an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len();
    if n == 0 {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Median of `values` (mean of the two middle values for an even count;
/// 0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean (0 for none).
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_an_exact_order_statistic() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 0.999), 100);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 0.011), 2);
        // Skewed data: the answer is a sample, not a bucket edge.
        let w = vec![3, 5, 7, 531_014];
        assert_eq!(percentile(&w, 0.99), 531_014);
        assert_eq!(percentile(&w, 0.5), 5);
        assert_eq!(percentile(&w, 0.75), 7);
        assert_eq!(percentile(&[42], 0.99), 42);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn percentile_matches_a_brute_force_definition() {
        let mut rng = crate::workload::SplitMix::new(3);
        for n in 1..60usize {
            let mut v: Vec<u64> = (0..n).map(|_| rng.below(1000)).collect();
            v.sort_unstable();
            for q in [0.1, 0.25, 0.5, 0.9, 0.99, 0.999] {
                let p = percentile(&v, q);
                let at_or_below = v.iter().filter(|&&x| x <= p).count();
                let below = v.iter().filter(|&&x| x < p).count();
                assert!(at_or_below as f64 >= q * n as f64, "n={n} q={q}");
                assert!((below as f64) < q * n as f64, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1, 0), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
        assert_eq!(mean(&[1, 2, 3]), 2.0);
    }
}
