//! The whole benchmark in one command: every workload, each run in a fresh
//! child process of this binary — peak RSS, the reactor's first-caller-wins
//! shard count and the process-global sync counters all start clean — first
//! untraced (end-to-end metrics), then traced (per-layer metrics).

use crate::metrics::{find, Better, ResultLine, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::{workloads, Args};
use std::process::{Command, Stdio};

/// Run one workload in a child; its stderr (fingerprint, trial spreads,
/// guards) passes through, its last stdout line is the result.
fn child(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<ResultLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trials",
            &args.trials.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    // `output` waits for the child to end.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) ended with {}",
            u8::from(trace),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    ResultLine::parse(last)
        .ok_or_else(|| format!("{workload}: last line is not a result: {last:?}"))
}

fn print_result(workload: &str, kind: &str, r: &ResultLine) {
    println!(
        "## {workload} {kind}: correct={} ops_attempted={} ops_failed={}",
        r.correct, r.attempted, r.failed
    );
    for (name, value, unit) in &r.metrics {
        // An unexercised layer reads 0; leave those out of the listing.
        if *value != 0.0 || kind == "end-to-end" {
            println!("{workload:<11} {name:<36} {value:>16.4} {unit}");
        }
    }
}

/// Every name of `defs` must be present, in order.
fn names_match(r: &ResultLine, defs: &[crate::metrics::Def]) -> bool {
    r.metrics.len() == defs.len()
        && r.metrics
            .iter()
            .zip(defs)
            .all(|(m, d)| m.0 == d.name && m.2 == d.unit)
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(name: &str, a: f64, b: f64) -> f64 {
    let d = (b - a) / a.abs();
    match find(name).map(|d| d.better) {
        Some(Better::Higher) => -d,
        _ => d,
    }
}

/// Untraced runs per workload in a set, each a fresh process with its own
/// seed; the set's end-to-end values are their medians. The reference
/// host's clock moves between 2.1 and 2.7 GHz in episodes of seconds, so
/// one run against one run differs by up to a quarter on CPU-bound numbers;
/// medians of three agree within the bounds.
const RUNS_PER_SET: usize = 3;

/// What went wrong so far.
struct Tally {
    ok: bool,
    guards_failed: u64,
}

/// One child run, checked: failed ops, a metric list that differs from the
/// registry and failed guards are printed and tallied.
fn checked(args: &Args, w: &str, seed: u64, trace: bool, t: &mut Tally) -> Option<ResultLine> {
    let (kind, defs) = if trace {
        ("per-layer", PER_LAYER)
    } else {
        ("end-to-end", END_TO_END)
    };
    let r = match child(args, w, seed, trace) {
        Ok(r) => r,
        Err(e) => {
            println!("FAIL {e}");
            t.ok = false;
            return None;
        }
    };
    if !r.correct || r.failed > 0 {
        println!(
            "FAIL {w} {kind} seed={seed}: {} of {} ops failed",
            r.failed, r.attempted
        );
        t.ok = false;
    }
    if !names_match(&r, defs) {
        println!("FAIL {w} {kind}: emitted metrics differ from the registry");
        t.ok = false;
    }
    // A 0.3 s smoke run is too short for the mechanisms to show.
    let guards_failed = r.get("guard.failed").unwrap_or(0.0) as u64;
    if guards_failed > 0 && !args.smoke {
        println!("FAIL {w}: {guards_failed} mechanism guard(s) did not hold (see stderr)");
        t.guards_failed += guards_failed;
        t.ok = false;
    }
    Some(r)
}

/// The median of every metric over `runs`; ops are summed.
fn median_of(runs: &[ResultLine]) -> ResultLine {
    ResultLine {
        correct: runs.iter().all(|r| r.correct),
        attempted: runs.iter().map(|r| r.attempted).sum(),
        failed: runs.iter().map(|r| r.failed).sum(),
        metrics: runs[0]
            .metrics
            .iter()
            .map(|(name, _, unit)| {
                let values: Vec<f64> = runs.iter().filter_map(|r| r.get(name)).collect();
                (name.clone(), median(&values), unit.clone())
            })
            .collect(),
    }
}

pub fn run(args: &Args) -> bool {
    let mut args = args.clone();
    let mut runs_per_set = RUNS_PER_SET;
    if args.smoke {
        args.seconds = 0.3;
        args.trials = 1;
        runs_per_set = 1;
    }
    let mut t = Tally {
        ok: true,
        guards_failed: 0,
    };
    let mut sets: Vec<Vec<(String, ResultLine)>> = Vec::new();
    for set in 0..args.sets {
        println!(
            "# set {} of {}: seed={} seconds={} trials={} runs={runs_per_set}",
            set + 1,
            args.sets,
            args.seed,
            args.seconds,
            args.trials
        );
        let mut results = Vec::new();
        for &w in workloads::NAMES {
            let runs: Vec<ResultLine> = (0..runs_per_set as u64)
                .filter_map(|i| checked(&args, w, args.seed + i, false, &mut t))
                .collect();
            if runs.len() == runs_per_set {
                let m = median_of(&runs);
                print_result(w, "end-to-end", &m);
                results.push((w.to_string(), m));
            }
            if let Some(r) = checked(&args, w, args.seed, true, &mut t) {
                print_result(w, "per-layer", &r);
            }
        }
        sets.push(results);
    }

    // Repeatability: the same commit measured twice must agree with itself
    // within each metric's own bound, or the bound means nothing.
    let mut breaches = 0;
    if sets.len() >= 2 && !args.smoke {
        println!("# repeatability: set 1 vs set {}", sets.len());
        let (first, last) = (&sets[0], &sets[sets.len() - 1]);
        for (w, a) in first {
            let Some((_, b)) = last.iter().find(|(w2, _)| w2 == w) else {
                continue;
            };
            for d in END_TO_END {
                let (Some(va), Some(vb)) = (a.get(d.name), b.get(d.name)) else {
                    continue;
                };
                let worse = worsening(d.name, va, vb).abs();
                let verdict = if worse > d.bound { "BREACH" } else { "ok" };
                println!("{w:<11} {:<14} {va:>14.4} {vb:>14.4}  diff {:>5.1}%  bound {:>4.1}%  {verdict}", d.name, worse * 100.0, d.bound * 100.0);
                if worse > d.bound {
                    breaches += 1;
                }
            }
        }
    }
    let ok = t.ok && breaches == 0;
    println!(
        "{{\"claim\": null, \"sets\": {}, \"seed\": {}, \"workloads\": {}, \"guards_failed\": {}, \"repeatability_breaches\": {breaches}, \"ok\": {ok}}}",
        sets.len(),
        args.seed,
        workloads::NAMES.len(),
        t.guards_failed
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_set_is_the_median_of_its_runs() {
        let run = |ops: f64, failed: u64| ResultLine {
            correct: failed == 0,
            attempted: 10,
            failed,
            metrics: vec![("ops_per_s".into(), ops, "1/s".into())],
        };
        let m = median_of(&[run(300.0, 0), run(100.0, 1), run(200.0, 0)]);
        assert_eq!(m.get("ops_per_s"), Some(200.0));
        assert_eq!((m.correct, m.attempted, m.failed), (false, 30, 1));
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening("ops_per_s", 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worsening("ops_per_s", 100.0, 110.0) + 0.1).abs() < 1e-12);
        assert!((worsening("lat_p50_us", 100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((worsening("setup_s", 2.0, 1.0) + 0.5).abs() < 1e-12);
    }
}
