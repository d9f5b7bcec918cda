//! Order statistics used for every reported number: nearest-rank
//! percentiles over latency samples, medians over trials, and the trial
//! range the output prints beside them.

/// Nearest-rank percentile of an ascending slice; `p` in (0, 1].
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p50/p90/p99/p99.9 that still has at least ten samples
/// beyond it — the tail a sample of this size can support.
pub fn supported_tail(n: usize) -> f64 {
    // Per-mille, so that 100 samples × 10 % is exactly 10.
    [999usize, 990, 900]
        .into_iter()
        .find(|pm| n * (1000 - pm) >= 10_000)
        .map_or(0.5, |pm| pm as f64 / 1000.0)
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// (max − min) ÷ median: the spread printed beside a median of few trials.
pub fn range_share(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank_on_known_vector() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.001), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn supported_tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(50), 0.5);
        assert_eq!(supported_tail(100), 0.9);
        assert_eq!(supported_tail(999), 0.9);
        assert_eq!(supported_tail(1_000), 0.99);
        assert_eq!(supported_tail(10_000), 0.999);
    }

    #[test]
    fn median_and_range() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(range_share(&[9.0, 10.0, 11.0]), 0.2);
        assert_eq!(range_share(&[0.0, 0.0, 0.0]), 0.0);
    }
}
