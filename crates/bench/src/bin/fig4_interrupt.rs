//! Figure 4 — Average time for an OS timer interruption (1 ms interval)
//! vs. number of workers.
//!
//! Two sections are printed:
//!
//! 1. **measured** — real signal-handler latencies recorded by this
//!    machine's runtime under the timer it ships, phase-aligned per-worker
//!    timers (limited to worker counts the machine can host);
//! 2. **simulated** — the calibrated discrete-event model of all four of
//!    the paper's strategies sweeping 1–112 workers, which reproduces the
//!    paper's multi-core *shape*: naive per-worker timers grow to ~100 µs,
//!    aligned stays flat, one-to-all grows linearly but below naive, chain
//!    stays flat slightly above aligned.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use ult_core::{Config, Priority, Runtime, ThreadKind};
use ult_simcore::{simulate_interruption, KernelParams, SimStrategy};

fn measure(workers: usize, millis: u64) -> (f64, f64, usize, u64) {
    let rt = Runtime::start(Config {
        num_workers: workers,
        preempt_interval_ns: 1_000_000,
        stat_samples: 65_536,
        ..Config::default()
    });
    let stop = Arc::new(AtomicBool::new(false));
    // Two spinners per worker: with only one runnable ULT a worker's tick is
    // elided (there is nothing to timeslice to), so a sole spinner would
    // record no interruptions at all.
    let spinners: Vec<_> = (0..2 * workers)
        .map(|i| {
            let stop = stop.clone();
            rt.spawn_on(
                i % workers,
                ThreadKind::SignalYield,
                Priority::High,
                move || {
                    while !stop.load(Ordering::Acquire) {
                        core::hint::spin_loop();
                    }
                },
            )
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(millis));
    stop.store(true, Ordering::Release);
    for s in spinners {
        s.join();
    }
    let stats = rt.stats();
    let samples = &stats.interrupt_samples_ns;
    let mean = stats.mean_interrupt_ns();
    let sd = {
        let m = mean;
        let v = samples
            .iter()
            .map(|&s| (s as f64 - m) * (s as f64 - m))
            .sum::<f64>()
            / samples.len().max(1) as f64;
        v.sqrt()
    };
    let n = samples.len();
    let overruns = stats.timer_overruns;
    rt.shutdown();
    (mean, sd, n, overruns)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!("# Figure 4: average OS timer interruption time, 1 ms interval");
    println!("\n## measured on this machine (real signals, real handlers)\n");
    println!("strategy\tworkers\tmean_us\tstddev_us\tsamples\toverruns");
    let worker_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    for &w in worker_counts {
        let (mean, sd, n, overruns) = measure(w, if quick { 150 } else { 400 });
        println!(
            "per-worker(aligned)\t{w}\t{:.3}\t{:.3}\t{n}\t{overruns}",
            mean / 1000.0,
            sd / 1000.0
        );
    }

    println!("\n## simulated multi-core shape (calibrated model; paper Fig. 4)\n");
    println!("strategy\tworkers\tmean_us\tstddev_us");
    let params = KernelParams::default();
    let sweep = [1usize, 2, 4, 8, 16, 28, 56, 84, 112];
    for s in SimStrategy::ALL {
        for &w in &sweep {
            let st = simulate_interruption(s, w, 1_000_000, 50, params);
            println!(
                "{}\t{w}\t{:.3}\t{:.3}",
                s.label(),
                st.mean_ns / 1000.0,
                st.stddev_ns / 1000.0
            );
        }
    }
    println!("\n# expected shape: creation-time grows ~linearly to ~100us at 112;");
    println!(
        "# aligned flat ~2us; one-to-all linear but lower; chain flat, slightly above aligned."
    );
}
