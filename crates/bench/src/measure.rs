//! Shared measurement utilities for the figure/table harnesses.

use std::time::Instant;

/// Wall-clock one closure in seconds.
pub fn time_secs<F: FnOnce()>(f: F) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Run `f` `reps` times, returning (mean, stddev) of seconds.
pub fn time_stats<F: FnMut()>(reps: usize, mut f: F) -> (f64, f64) {
    let samples: Vec<f64> = (0..reps).map(|_| time_secs(&mut f)).collect();
    mean_stddev(&samples)
}

/// Mean and standard deviation of a sample set.
pub fn mean_stddev(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Median of a sample set.
pub fn median(samples: &[u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    v[v.len() / 2]
}

/// Nearest-rank percentile `p` (0..=1) of a sorted, non-empty sample set.
pub fn pct(sorted: &[u64], p: f64) -> u64 {
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Render one CSV-ish table row (used by every harness for uniform output).
pub fn row(cells: &[String]) -> String {
    cells.join("\t")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basics() {
        let (m, s) = mean_stddev(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(mean_stddev(&[]), (0.0, 0.0));
    }

    #[test]
    fn median_basics() {
        assert_eq!(median(&[5, 1, 9]), 5);
        assert_eq!(median(&[]), 0);
        assert_eq!(median(&[2, 4]), 4);
    }

    #[test]
    fn pct_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(pct(&v, 0.50), 50);
        assert_eq!(pct(&v, 0.99), 99);
        assert_eq!(pct(&v, 0.999), 100);
        assert_eq!(pct(&[7], 0.0), 7);
    }

    #[test]
    fn timing_is_positive() {
        let t = time_secs(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        assert!(t >= 0.002);
    }
}
