//! Preemption fast-path microbenchmark: machine-readable costs of *taking*
//! (and *filtering*) a preemption, the §3.1/§3.2 side of the paper's
//! overhead story.
//!
//! Emits `BENCH_preempt.json` with three ns/op metrics:
//!
//! * `signal_yield_rt_ns` — full signal-yield round trip: a ULT raises the
//!   preemption signal at itself, the handler switches to the scheduler,
//!   the scheduler re-dispatches the (sole runnable) ULT, and the kernel
//!   `sigreturn`s back into user code. This is the end-to-end cost of one
//!   useful preemption minus timer delivery.
//! * `useless_tick_ns` — cost of a tick the handler decides to ignore
//!   (delivered too early inside the current timeslice): kernel delivery +
//!   handler filter + `sigreturn`, no scheduler involvement. The paper's
//!   argument for cheap preemption depends on this being near-free.
//! * `coop_yield_ns` — one cooperative `yield_now` through the scheduler
//!   with a single runnable ULT (the minimal callee-saved-only switch).
//!
//! The JSON is consumed by `run_all.sh`'s perf-smoke step with the same 2×
//! regression tripwire as `BENCH_spawn.json`.
//!
//! Usage:
//!   bench_preempt [--quick] [--out PATH] [--check BASELINE.json]

use repro_bench::measure::{report_metrics, Metric};
use std::time::Instant;
use ult_core::{Config, Priority, Runtime, ThreadKind, TimerStrategy};
use ult_sys::signal::{preempt_signum, raise_signal};

/// Both raise-driven benches run with `TimerStrategy::None`: the preemption
/// handler is installed and fully active, but no interval timer is armed,
/// so every signal is one we deliver ourselves with `raise` — the bench
/// controls the tick stream instead of racing a real timer.
fn raise_config(preempt_interval_ns: u64) -> Config {
    Config {
        num_workers: 1,
        preempt_interval_ns,
        timer_strategy: TimerStrategy::None,
        ..Config::default()
    }
}

/// Full signal-yield round trip (raise → handler → scheduler → re-dispatch
/// → sigreturn), measured from inside the preempted ULT itself.
///
/// The interval is set to 1 µs so the handler's too-early-tick filters
/// (echo window = interval/2) never trigger: each loop iteration costs
/// several µs, so every raise is treated as a genuine preemption. The
/// sanity counter printed at the end (`preemptions ≈ n`) proves it.
fn bench_signal_yield_rt(n: usize, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let rt = Runtime::start(raise_config(1_000));
        let h = rt.spawn_with(ThreadKind::SignalYield, Priority::High, move || {
            let sig = preempt_signum();
            let t0 = Instant::now();
            for _ in 0..n {
                raise_signal(sig);
            }
            t0.elapsed().as_secs_f64()
        });
        let secs = h.join();
        let stats = rt.stats();
        eprintln!(
            "  signal_yield_rt: {} raises -> {} preemptions, {} suppressed, {} overruns",
            n, stats.preemptions, stats.suppressed_ticks, stats.timer_overruns
        );
        rt.shutdown();
        best = best.min(secs * 1e9 / n as f64);
    }
    best
}

/// Cost of a tick the handler ignores: the interval is one hour, so every
/// raise after dispatch lands deep inside the echo/deadline window and the
/// handler returns without touching the scheduler. What remains is kernel
/// signal delivery + the handler's filter path + `sigreturn` — the price a
/// worker pays for a tick it has no use for.
fn bench_useless_tick(n: usize, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let rt = Runtime::start(raise_config(3_600_000_000_000));
        let h = rt.spawn_with(ThreadKind::SignalYield, Priority::High, move || {
            let sig = preempt_signum();
            let t0 = Instant::now();
            for _ in 0..n {
                raise_signal(sig);
            }
            t0.elapsed().as_secs_f64()
        });
        let secs = h.join();
        let stats = rt.stats();
        eprintln!(
            "  useless_tick: {} raises -> {} preemptions (want 0), {} filtered+suppressed, {} overruns",
            n,
            stats.preemptions,
            stats.suppressed_ticks + stats.filtered_ticks,
            stats.timer_overruns
        );
        rt.shutdown();
        best = best.min(secs * 1e9 / n as f64);
    }
    best
}

/// Cost of one cooperative `yield_now` with a single runnable ULT —
/// identical methodology to `bench_spawn`'s yield metric so the two files
/// stay comparable.
fn bench_coop_yield(n: usize, reps: usize) -> f64 {
    let rt = Runtime::start(raise_config(0));
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let h = rt.spawn(move || {
            let t0 = Instant::now();
            for _ in 0..n {
                ult_core::yield_now();
            }
            t0.elapsed().as_secs_f64()
        });
        best = best.min(h.join() * 1e9 / n as f64);
    }
    rt.shutdown();
    best
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let get_opt = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let out_path = get_opt("--out").unwrap_or_else(|| "results/BENCH_preempt.json".into());
    let baseline_path = get_opt("--check");

    let (n_raise, n_yield, reps) = if quick {
        (2_000, 20_000, 2)
    } else {
        (10_000, 100_000, 3)
    };

    let signal_yield_rt_ns = bench_signal_yield_rt(n_raise, reps);
    let useless_tick_ns = bench_useless_tick(n_raise, reps);
    let coop_yield_ns = bench_coop_yield(n_yield, reps);

    let metrics = [
        Metric {
            name: "signal_yield_rt_ns",
            value: signal_yield_rt_ns,
            checked: true,
        },
        Metric {
            name: "useless_tick_ns",
            value: useless_tick_ns,
            checked: true,
        },
        Metric {
            name: "coop_yield_ns",
            value: coop_yield_ns,
            checked: true,
        },
    ];

    report_metrics(&metrics, &out_path, baseline_path.as_deref());
}
