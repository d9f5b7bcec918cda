//! In-situ analysis with priorities (paper §4.3): high-priority
//! nonpreemptive simulation threads + low-priority signal-yield analysis
//! threads that soak up idle cycles and vacate workers within one tick.
//!
//! Run with: `cargo run --release -p repro-examples --bin insitu_priority`

use mini_md::analysis::AtomicHistogram;
use mini_md::{rdf_histogram, LjParams, SimExec, Snapshot, System};
use std::sync::Arc;
use std::time::Instant;
use ult_core::{Config, Priority, Runtime, SchedPolicy, ThreadKind, TimerStrategy};

fn main() {
    let workers = 2;
    let rt = Arc::new(Runtime::start(Config {
        num_workers: workers,
        preempt_interval_ns: 1_000_000,
        timer_strategy: TimerStrategy::PerWorkerAligned,
        sched_policy: SchedPolicy::Priority,
        ..Config::default()
    }));
    println!("runtime: {workers} workers, priority scheduler, aligned per-worker 1 ms timers");

    let rtc = rt.clone();
    let t0 = Instant::now();
    let driver = rtc.spawn_with(ThreadKind::Nonpreemptive, Priority::High, move || {
        let mut sys = System::fcc(4, LjParams::default(), 7);
        println!("LJ system: {} atoms", sys.n_atoms());
        let exec = SimExec::Ult {
            nthreads: 2,
            kind: ThreadKind::Nonpreemptive,
        };
        sys.compute_forces(&exec);
        let mut analysis = Vec::new();
        let mut snapshots = 0;
        for step in 0..50 {
            sys.verlet_step(&exec);
            if step % 2 == 0 {
                // Copy atoms to a buffer; analyze concurrently on
                // LOW-priority signal-yield threads (the paper's setup).
                let snap = Arc::new(Snapshot::capture(&sys, step));
                let hist = AtomicHistogram::new(64, snap.box_len / 2.0);
                let n = snap.n_atoms();
                snapshots += 1;
                let h = hist.clone();
                analysis.push(ult_core::api::spawn(
                    ThreadKind::SignalYield,
                    Priority::Low,
                    move || {
                        rdf_histogram(&snap, &h, 0..n);
                        h.total()
                    },
                ));
            }
        }
        let pair_counts: Vec<u64> = analysis.into_iter().map(|h| h.join()).collect();
        (snapshots, pair_counts)
    });
    let (snapshots, pair_counts) = driver.join();
    println!(
        "simulated 50 steps + {} in-situ analyses in {:.3}s",
        snapshots,
        t0.elapsed().as_secs_f64()
    );
    println!(
        "pair counts per snapshot (first 5): {:?}",
        &pair_counts[..pair_counts.len().min(5)]
    );
    let stats = rt.stats();
    println!(
        "analysis threads were preempted {} times to make way for simulation work",
        stats.preemptions
    );
    drop(rtc);
    match Arc::try_unwrap(rt) {
        Ok(rt) => rt.shutdown(),
        Err(_) => unreachable!(),
    }
}
