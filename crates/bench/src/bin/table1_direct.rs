//! Table 1 — Median direct preemption overhead (10 ms interval, ~1000
//! preemption events): 1:1 threads (OS preemption) vs signal-yield vs
//! KLT-switching.
//!
//! Method (uniform across all three systems): two compute-bound entities
//! share one execution vessel (one core for 1:1, one worker for M:N) and
//! each records a monotonic timestamp in a tight loop. At every involuntary
//! switch the merged timeline shows a gap between the outgoing entity's
//! last stamp and the incoming entity's first stamp — that gap *is* the
//! preemption overhead (signal/interrupt handling + context switch +
//! scheduling). We report the median over all observed switches.
//!
//! One extra row carries the paper's §2.1 premise behind the table: an M:N
//! fork+join (ULT spawn and join, from inside a ULT on one worker) against a
//! 1:1 one (`std::thread::spawn` + `join`), median of N serial pairs each.

use repro_bench::measure::median;
use repro_bench::oneone::SpinnerPool;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use ult_core::{Config, Priority, Runtime, ThreadKind, TimerStrategy};

/// Merge per-entity timestamp traces and extract switch-gap durations.
fn switch_gaps(traces: &[Vec<u64>]) -> Vec<u64> {
    let mut merged: Vec<(u64, usize)> = traces
        .iter()
        .enumerate()
        .flat_map(|(id, t)| t.iter().map(move |&ts| (ts, id)))
        .collect();
    merged.sort_unstable();
    merged
        .windows(2)
        .filter_map(|w| {
            let ((t1, id1), (t2, id2)) = (w[0], w[1]);
            // A switch boundary: consecutive stamps from different entities.
            // Stamps within one entity are ~30 ns apart; anything larger at
            // a boundary is the preemption cost.
            (id1 != id2 && t2 - t1 > 200).then_some(t2 - t1)
        })
        .collect()
}

/// Two M:N spinner ULTs of `kind` on one worker for `millis` ms.
fn mn_traces(kind: ThreadKind, millis: u64) -> Vec<Vec<u64>> {
    let rt = Runtime::start(Config {
        num_workers: 1,
        preempt_interval_ns: 10_000_000, // the paper's 10 ms
        timer_strategy: TimerStrategy::PerWorkerAligned,
        ..Config::default()
    });
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let stop = stop.clone();
            rt.spawn_with(kind, Priority::High, move || {
                let mut stamps = Vec::with_capacity(1 << 21);
                while !stop.load(Ordering::Relaxed) {
                    if stamps.len() < stamps.capacity() {
                        stamps.push(ult_sys::now_ns());
                    } else {
                        std::hint::black_box(ult_sys::now_ns());
                    }
                }
                stamps
            })
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(millis));
    stop.store(true, Ordering::Release);
    let traces = handles.into_iter().map(|h| h.join()).collect();
    rt.shutdown();
    traces
}

/// Median nanoseconds of `n` serial ULT spawn+join pairs, timed from inside
/// a ULT on one worker with no timers.
fn ult_spawn_join_ns(n: usize) -> u64 {
    let rt = Runtime::start(Config {
        num_workers: 1,
        preempt_interval_ns: 0,
        timer_strategy: TimerStrategy::None,
        ..Config::default()
    });
    let samples = rt
        .spawn(move || {
            (0..n)
                .map(|_| {
                    let t0 = ult_sys::now_ns();
                    ult_core::api::spawn(ThreadKind::Nonpreemptive, Priority::High, || {}).join();
                    ult_sys::now_ns() - t0
                })
                .collect::<Vec<_>>()
        })
        .join();
    rt.shutdown();
    median(&samples)
}

/// Median nanoseconds of `n` serial `std::thread::spawn` + `join` pairs.
fn std_spawn_join_ns(n: usize) -> u64 {
    let samples: Vec<u64> = (0..n)
        .map(|_| {
            let t0 = ult_sys::now_ns();
            std::thread::spawn(|| {}).join().unwrap();
            ult_sys::now_ns() - t0
        })
        .collect();
    median(&samples)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // ~1000 preemptions at 10 ms needs ~10 s; scale down by default and
    // note the sample count.
    let millis: u64 = if quick { 1_000 } else { 5_000 };

    println!("# Table 1: median direct preemption overhead (10 ms interval)");
    println!("system\tmedian_us\tswitches_observed");

    // 1:1 threads: two OS threads pinned to CPU 0, preempted by the kernel
    // scheduler's timeslice.
    {
        let pool = SpinnerPool::start(2, true);
        std::thread::sleep(std::time::Duration::from_millis(millis));
        let traces = pool.stop();
        let gaps = switch_gaps(&traces);
        println!(
            "1:1 threads (Pthreads)\t{:.2}\t{}",
            median(&gaps) as f64 / 1000.0,
            gaps.len()
        );
    }

    // Signal-yield M:N.
    {
        let traces = mn_traces(ThreadKind::SignalYield, millis);
        let gaps = switch_gaps(&traces);
        println!(
            "Signal-yield\t{:.2}\t{}",
            median(&gaps) as f64 / 1000.0,
            gaps.len()
        );
    }

    // KLT-switching M:N (optimized: futex park + local pools).
    {
        let traces = mn_traces(ThreadKind::KltSwitching, millis);
        let gaps = switch_gaps(&traces);
        println!(
            "KLT-switching\t{:.2}\t{}",
            median(&gaps) as f64 / 1000.0,
            gaps.len()
        );
    }

    // Fork+join: the §2.1 premise (user-level threading operations are far
    // cheaper than kernel-thread ones).
    {
        let n = if quick { 1_000 } else { 10_000 };
        let ult = ult_spawn_join_ns(n) as f64 / 1000.0;
        let std = std_spawn_join_ns(n) as f64 / 1000.0;
        println!("\n# spawn+join median, {n} serial pairs each (paper §2.1)");
        println!("ult_us\tstd_thread_us\tstd_over_ult");
        println!("{ult:.2}\t{std:.2}\t{:.0}x", std / ult.max(1e-3));
    }

    println!("\n# paper (Skylake): 1:1 = 2.8 us, signal-yield = 3.5 us, KLT-switching = 9.9 us");
    println!("# expected ordering: 1:1 < signal-yield (~1.2x) < KLT-switching (~4x)");
}
