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

/// Render one CSV-ish table row (used by every harness for uniform output).
pub fn row(cells: &[String]) -> String {
    cells.join("\t")
}

/// One value of a perf-smoke binary (`bench_*`), as written to its JSON.
pub struct Metric {
    /// JSON key.
    pub name: &'static str,
    /// Lower is better for every checked metric.
    pub value: f64,
    /// Subject to the 2× regression tripwire under `--check`.
    pub checked: bool,
}

/// The common tail of every perf-smoke binary: print `metrics` as one flat
/// JSON object, write it to `out_path` and, under `--check`, apply the
/// tripwire of `run_all.sh` — exit 1 if a checked metric is more than 2× its
/// value in the JSON at `baseline_path`.
pub fn report_metrics(metrics: &[Metric], out_path: &str, baseline_path: Option<&str>) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("  \"{}\": {:.1}", m.name, m.value))
        .collect();
    let json = format!("{{\n{}\n}}\n", body.join(",\n"));
    print!("{json}");
    if let Some(dir) = std::path::Path::new(out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("wrote {out_path}");

    let Some(baseline_path) = baseline_path else {
        return;
    };

    let baseline = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
    let mut failed = false;
    for m in metrics.iter().filter(|m| m.checked) {
        let Some(base) = json_get(&baseline, m.name) else {
            eprintln!("perf-smoke: {} missing from baseline, skipping", m.name);
            continue;
        };
        let factor = m.value / base.max(0.1);
        let verdict = if factor > 2.0 {
            failed = true;
            "REGRESSION"
        } else if factor > 1.25 {
            // Soft warning: below the hard tripwire but creeping — flag
            // it in the log without failing the run.
            "WARN (>1.25x)"
        } else {
            "ok"
        };
        eprintln!(
            "perf-smoke: {:>22} {:>10.1} vs baseline {:>10.1} ({:.2}x) {}",
            m.name, m.value, base, factor, verdict
        );
    }
    if failed {
        eprintln!("perf-smoke: >2x regression against {baseline_path}");
        std::process::exit(1);
    }
}

/// Minimal extractor for the flat `"name": number` JSON [`report_metrics`]
/// writes.
fn json_get(src: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\"");
    let at = src.find(&pat)?;
    let rest = &src[at + pat.len()..];
    let colon = rest.find(':')?;
    let num: String = rest[colon + 1..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e' || *c == '+')
        .collect();
    num.parse().ok()
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
    fn timing_is_positive() {
        let t = time_secs(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        assert!(t >= 0.002);
    }
}
