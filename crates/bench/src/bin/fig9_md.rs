//! Figure 9 — Relative overhead of in-situ analysis with mini-MD (LAMMPS
//! stand-in), vs simulation-only execution, sweeping the atom count;
//! analysis interval ∈ {1, 2}.
//!
//! Series:
//!
//! * "Pthreads (w/o priority)" — OS threads for simulation regions and
//!   analysis; analysis at default niceness.
//! * "Pthreads (w/ priority)" — analysis threads get +10 niceness (the
//!   paper's setup; nice is advisory, hence "still uncoordinated").
//! * "ULT (w/o priority)" — everything high-priority nonpreemptive ULTs.
//! * "ULT (w/ priority)" — the paper's winning configuration: analysis as
//!   low-priority signal-yield ULTs in per-worker LIFO queues, aligned
//!   per-worker timers at 1 ms, simulation threads nonpreemptive (the paper
//!   used its chained per-process timer; here tick elision keeps a worker
//!   whose occupant is nonpreemptive from taking ticks instead).

use mini_md::analysis::AtomicHistogram;
use mini_md::{rdf_histogram, LjParams, SimExec, Snapshot, System};
use repro_bench::measure::time_secs;
use std::sync::Arc;
use ult_core::{Config, Priority, Runtime, SchedPolicy, ThreadKind, TimerStrategy};

const STEPS: usize = 100; // the paper's 100 time steps

fn sim_only(lattice: usize, exec: &SimExec) -> f64 {
    let mut sys = System::fcc(lattice, LjParams::default(), 17);
    sys.compute_forces(exec);
    time_secs(|| {
        for _ in 0..STEPS {
            sys.verlet_step(exec);
        }
    })
}

/// Pthreads flavor: analysis on OS threads, optional niceness.
fn pthreads_with_analysis(lattice: usize, threads: usize, interval: usize, nice: bool) -> f64 {
    let mut sys = System::fcc(lattice, LjParams::default(), 17);
    let exec = SimExec::OneOne { nthreads: threads };
    sys.compute_forces(&exec);
    let mut analysis_handles = Vec::new();
    let secs = time_secs(|| {
        for step in 0..STEPS {
            sys.verlet_step(&exec);
            if step % interval == 0 {
                let snap = Arc::new(Snapshot::capture(&sys, step));
                let hist = AtomicHistogram::new(64, snap.box_len / 2.0);
                let n = snap.n_atoms();
                let nt = (threads - 1).max(1);
                let chunk = n.div_ceil(nt);
                for t in 0..nt {
                    let snap = snap.clone();
                    let hist = hist.clone();
                    analysis_handles.push(std::thread::spawn(move || {
                        if nice {
                            // +10 niceness: allowed without privileges.
                            // SAFETY: plain setpriority syscall on our own tid; no memory is passed.
                            unsafe {
                                libc::setpriority(
                                    libc::PRIO_PROCESS,
                                    ult_sys::gettid() as libc::id_t,
                                    10,
                                );
                            }
                        }
                        let lo = (t * chunk).min(n);
                        let hi = ((t + 1) * chunk).min(n);
                        rdf_histogram(&snap, &hist, lo..hi);
                        std::hint::black_box(hist.total());
                    }));
                }
            }
        }
        for h in analysis_handles.drain(..) {
            h.join().unwrap();
        }
    });
    secs
}

/// ULT flavor: simulation regions fork high-priority ULTs; analysis forks
/// low-priority signal-yield ULTs (w/ priority) or plain high-priority
/// nonpreemptive ULTs (w/o priority).
fn ult_with_analysis(
    rt: &Arc<Runtime>,
    lattice: usize,
    threads: usize,
    interval: usize,
    prioritized: bool,
) -> f64 {
    let rtc = rt.clone();
    time_secs(move || {
        let driver = rtc.clone();
        let rth = rtc.clone();
        let h = driver.spawn_with(ThreadKind::Nonpreemptive, Priority::High, move || {
            let mut sys = System::fcc(lattice, LjParams::default(), 17);
            let exec = SimExec::Ult {
                nthreads: threads,
                kind: ThreadKind::Nonpreemptive,
            };
            sys.compute_forces(&exec);
            let mut analysis = Vec::new();
            for step in 0..STEPS {
                sys.verlet_step(&exec);
                if step % interval == 0 {
                    let snap = Arc::new(Snapshot::capture(&sys, step));
                    let hist = AtomicHistogram::new(64, snap.box_len / 2.0);
                    let n = snap.n_atoms();
                    let nt = (threads - 1).max(1);
                    let chunk = n.div_ceil(nt);
                    let (kind, prio) = if prioritized {
                        (ThreadKind::SignalYield, Priority::Low)
                    } else {
                        (ThreadKind::Nonpreemptive, Priority::High)
                    };
                    for t in 0..nt {
                        let snap = snap.clone();
                        let hist = hist.clone();
                        // Spread analysis across workers' queues, as the
                        // paper does ("every worker has a LIFO queue for
                        // analysis threads").
                        analysis.push(rth.spawn_on(t, kind, prio, move || {
                            let lo = (t * chunk).min(n);
                            let hi = ((t + 1) * chunk).min(n);
                            rdf_histogram(&snap, &hist, lo..hi);
                            std::hint::black_box(hist.total());
                        }));
                    }
                }
            }
            for h in analysis {
                h.join();
            }
        });
        h.join();
    })
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let workers = 2usize; // scaled from the paper's 56 per process
    let lattices: &[usize] = if quick { &[3, 4] } else { &[3, 4, 5, 6] };

    for interval in [1usize, 2] {
        println!(
            "# Figure 9{}: in-situ analysis overhead, analysis interval = {interval}",
            if interval == 1 { "a" } else { "b" }
        );
        println!("series\tatoms\toverhead_pct\tsim_only_s");
        for &lat in lattices {
            let atoms = 4 * lat.pow(3);

            let base_oo = sim_only(lat, &SimExec::OneOne { nthreads: workers });
            let t = pthreads_with_analysis(lat, workers, interval, false);
            println!(
                "Pthreads(w/o priority)\t{atoms}\t{:.1}\t{base_oo:.3}",
                (t / base_oo - 1.0) * 100.0
            );
            let t = pthreads_with_analysis(lat, workers, interval, true);
            println!(
                "Pthreads(w/ priority)\t{atoms}\t{:.1}\t{base_oo:.3}",
                (t / base_oo - 1.0) * 100.0
            );

            // ULT baseline: simulation-only on the runtime.
            let rt = Arc::new(Runtime::start(Config {
                num_workers: workers,
                preempt_interval_ns: 1_000_000,
                timer_strategy: TimerStrategy::PerWorkerAligned,
                sched_policy: SchedPolicy::Priority,
                ..Config::default()
            }));
            let base_ult = {
                let rtc = rt.clone();
                time_secs(move || {
                    let h = rtc.spawn_with(ThreadKind::Nonpreemptive, Priority::High, move || {
                        let mut sys = System::fcc(lat, LjParams::default(), 17);
                        let exec = SimExec::Ult {
                            nthreads: workers,
                            kind: ThreadKind::Nonpreemptive,
                        };
                        sys.compute_forces(&exec);
                        for _ in 0..STEPS {
                            sys.verlet_step(&exec);
                        }
                    });
                    h.join();
                })
            };
            let t = ult_with_analysis(&rt, lat, workers, interval, false);
            println!(
                "ULT(w/o priority)\t{atoms}\t{:.1}\t{base_ult:.3}",
                (t / base_ult - 1.0) * 100.0
            );
            let t = ult_with_analysis(&rt, lat, workers, interval, true);
            println!(
                "ULT(w/ priority)\t{atoms}\t{:.1}\t{base_ult:.3}",
                (t / base_ult - 1.0) * 100.0
            );
            match Arc::try_unwrap(rt) {
                Ok(rt) => rt.shutdown(),
                Err(_) => unreachable!(),
            }
        }
        println!();
    }
    println!("# paper shape: ULT beats Pthreads (cheaper threading), prioritization helps");
    println!("# both, more so at interval=2 where analysis fits in the idle gaps;");
    println!("# ULT(w/ priority) is the best series overall.");
    println!("# 1-CORE CAVEAT: prioritization pays off by soaking IDLE cores with");
    println!("# analysis work; with zero idle cores it can only add scheduling cost,");
    println!("# so on this box the w/-priority series carries overhead instead.");
}
