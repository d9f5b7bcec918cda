//! Adaptive-quantum ablation: tail latency of a `Latency`-class ULT
//! arriving behind `Throughput`-class spinners, with the adaptive quantum
//! on vs off, on one worker.
//!
//! The scenario is the motivating one for per-ULT scheduling classes: two
//! CPU-bound spinners keep the worker's timer armed at the base tick
//! (4 ms here), and an external pinger wakes a channel-blocked
//! `Latency` ULT at an uncorrelated period. With a fixed tick the wake
//! waits for whatever is left of the current 4 ms slice; with
//! `adaptive_quantum` the push side shrinks the worker's quantum to the
//! floor (base/4 = 1 ms) and re-phases the armed timer, so the dispatch
//! happens within ~1 ms — while the spinners' completion time for the
//! same fixed amount of work stays within a few percent (the quantum
//! stretches back once only `Throughput` work runs).
//!
//! Prints both phases' wake-to-dispatch percentiles and completion times
//! and enforces two hard floors (exit 1):
//!
//! * p99 fixed / p99 adaptive ≥ 2 — the adaptive tick must at least
//!   halve the p99 wake-to-dispatch latency;
//! * adaptive completion ≤ 1.10 × fixed completion — bought with at
//!   most 10% throughput loss on the fixed spinner workload.
//!
//! Usage: `bench_adaptive [--quick]`

use repro_bench::measure::pct;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use ult_core::{Config, Runtime, SchedClass, SpawnAttrs, ThreadKind, TimerStrategy};

/// Base preemption tick: 4 ms, so the adaptive floor (base/4) is 1 ms.
const BASE_TICK_NS: u64 = 4_000_000;
/// Ping period, deliberately not a multiple of the tick so wakes sample
/// the slice phase uniformly.
const PING_PERIOD: Duration = Duration::from_millis(13);

/// One work unit: ~tens of microseconds of pure arithmetic.
fn work_unit() {
    let mut acc = 0u64;
    for i in 0..60_000u64 {
        acc = acc.wrapping_mul(3).wrapping_add(i);
    }
    std::hint::black_box(acc);
}

/// Run one phase: two `Throughput` spinners burn `units` work units while
/// the main thread pings a channel-blocked `Latency` ULT every
/// [`PING_PERIOD`]. Returns (sorted wake-to-dispatch latencies in ns,
/// spinner completion seconds).
fn run_phase(adaptive: bool, units: u64) -> (Vec<u64>, f64) {
    let rt = Runtime::start(Config {
        num_workers: 1,
        preempt_interval_ns: BASE_TICK_NS,
        timer_strategy: TimerStrategy::PerWorkerAligned,
        adaptive_quantum: adaptive,
        ..Config::default()
    });
    let (tx, rx) = ult_sync::channel::<u64>(64);
    let epoch = Instant::now();

    // The latency side: block on the channel, stamp the wake-to-dispatch
    // delta for every ping, return the samples.
    let lat_ult = rt.spawn_attrs(
        SpawnAttrs::new()
            .kind(ThreadKind::SignalYield)
            .class(SchedClass::Latency),
        move || {
            let mut samples = Vec::new();
            while let Ok(sent_ns) = rx.recv() {
                let now_ns = epoch.elapsed().as_nanos() as u64;
                samples.push(now_ns.saturating_sub(sent_ns));
            }
            samples
        },
    );
    // Give the latency ULT time to park on the channel before the
    // spinners monopolize the worker.
    std::thread::sleep(Duration::from_millis(20));

    let remaining = Arc::new(AtomicU64::new(units));
    let t0 = Instant::now();
    let spinners: Vec<_> = (0..2)
        .map(|_| {
            let remaining = remaining.clone();
            rt.spawn_attrs(
                SpawnAttrs::new()
                    .kind(ThreadKind::SignalYield)
                    .class(SchedClass::Throughput),
                move || loop {
                    let prev = remaining.fetch_sub(1, Ordering::Relaxed);
                    if prev == 0 {
                        // Over-claimed past zero: undo and stop.
                        remaining.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                    work_unit();
                },
            )
        })
        .collect();

    // Ping until the spinners run out of work.
    while remaining.load(Ordering::Relaxed) > 0 {
        let _ = tx.send(epoch.elapsed().as_nanos() as u64);
        std::thread::sleep(PING_PERIOD);
    }
    for s in spinners {
        s.join();
    }
    let complete = t0.elapsed().as_secs_f64();
    drop(tx); // closes the channel; the latency ULT drains and returns
    let mut samples = lat_ult.join();
    let stats = rt.stats();
    rt.shutdown();
    eprintln!(
        "bench_adaptive: {} pings={} complete={:.2}s shrinks={} stretches={} lat_dispatch={}",
        if adaptive { "adaptive" } else { "fixed" },
        samples.len(),
        complete,
        stats.quantum_shrinks,
        stats.quantum_stretches,
        stats.latency_dispatches,
    );
    samples.sort_unstable();
    (samples, complete)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    // Fixed work for the throughput-completion comparison; sized so the
    // full run collects a three-digit ping sample count.
    let units = if quick { 15_000 } else { 100_000 };

    eprintln!("bench_adaptive: fixed tick ({units} work units, 2 spinners)");
    let (fixed, fixed_complete) = run_phase(false, units);
    eprintln!("bench_adaptive: adaptive quantum ({units} work units, 2 spinners)");
    let (adaptive, adaptive_complete) = run_phase(true, units);

    let us = |ns: u64| ns as f64 / 1_000.0;
    let p99_fixed = us(pct(&fixed, 0.99));
    let p99_adaptive = us(pct(&adaptive, 0.99));
    let ratio = p99_fixed / p99_adaptive.max(0.001);
    let tput_factor = adaptive_complete / fixed_complete.max(1e-9);
    println!("# Adaptive quantum vs fixed 4 ms tick: 1 worker, 2 Throughput spinners, {units} work units, Latency pinger every {} ms", PING_PERIOD.as_millis());
    println!("quantum\tp50_us\tp99_us\tcomplete_ms");
    for (mode, lat, complete) in [
        ("fixed", &fixed, fixed_complete),
        ("adaptive", &adaptive, adaptive_complete),
    ] {
        println!(
            "{mode}\t{:.0}\t{:.0}\t{:.0}",
            us(pct(lat, 0.50)),
            us(pct(lat, 0.99)),
            complete * 1e3
        );
    }
    println!("p99 fixed/adaptive\t{ratio:.1}x (floor 2x)");
    println!("completion adaptive/fixed\t{tput_factor:.3}x (budget 1.10x)");

    // Hard floors: the acceptance gates of the adaptive-quantum design.
    if ratio < 2.0 {
        eprintln!(
            "bench_adaptive: FAIL p99 ratio {ratio:.1}x < 2x \
             (fixed {p99_fixed:.0} us, adaptive {p99_adaptive:.0} us)"
        );
        std::process::exit(1);
    }
    if tput_factor > 1.10 {
        eprintln!(
            "bench_adaptive: FAIL completion {:.0} ms adaptive vs {:.0} ms fixed \
             ({:.2}x > 1.10x budget)",
            adaptive_complete * 1e3,
            fixed_complete * 1e3,
            tput_factor
        );
        std::process::exit(1);
    }
}
