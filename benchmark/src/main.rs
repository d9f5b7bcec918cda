//! The ULT runtime's benchmark. Two ways to run it:
//!
//! * **One run** — `--workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//!   one workload in this process; the last line of stdout is the JSON
//!   result (`--trace 0`: end-to-end metrics, `--trace 1`: per-layer
//!   metrics), everything else goes to stderr.
//! * **Suite** — no `--workload`: every workload, each in fresh child
//!   processes of this binary (untraced, then traced), all metrics printed
//!   by name and unit with guards and host fingerprint. `--sets 2` repeats
//!   the suite and checks that the end-to-end metrics agree within their
//!   bounds; `--smoke` is the quick correctness-only version.
//!
//! See `README.md` beside this crate for what is measured and why.

mod frame;
mod host;
mod metrics;
mod openloop;
mod probes;
mod rng;
mod run;
mod stats;
mod suite;
mod trace;
mod work;
mod workloads;

use std::path::PathBuf;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trials: usize,
    pub sets: usize,
    pub smoke: bool,
    pub out: PathBuf,
}

const USAGE: &str = "usage: ult-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                     [--trials N] [--sets N] [--smoke] [--out DIR]
  with --workload: run that workload here; last stdout line is the JSON result
  without:         run every workload in child processes and print all metrics";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        trials: 5,
        sets: 1,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                if !workloads::NAMES.contains(&v.as_str()) {
                    return Err(format!(
                        "unknown workload {v:?}; one of {:?}",
                        workloads::NAMES
                    ));
                }
                a.workload = Some(v.clone());
            }
            "--seed" => a.seed = value()?.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| bad(v))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--trials" => {
                let v = value()?;
                a.trials = v
                    .parse()
                    .ok()
                    .filter(|n| (1..=100).contains(n))
                    .ok_or_else(|| bad(v))?;
            }
            "--sets" => {
                let v = value()?;
                a.sets = v
                    .parse()
                    .ok()
                    .filter(|n| (1..=10).contains(n))
                    .ok_or_else(|| bad(v))?;
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = PathBuf::from(value()?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let ok = match &args.workload {
        Some(name) => {
            let result = run::run_named(name, &args);
            println!("{}", result.to_json());
            true
        }
        None => suite::run(&args),
    };
    std::process::exit(if ok { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse("--workload echo_busy --seed 42 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload.as_deref(), Some("echo_busy"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, true));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seconds -3").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--trials 0").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--frobnicate").is_err());
    }
}
