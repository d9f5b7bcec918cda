//! Cross-crate integration tests: the paper's claims exercised through the
//! full stack (runtime + sync + application kernels).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use ult_core::{Config, Priority, Runtime, SchedPolicy, ThreadKind, TimerStrategy};

fn preemptive(workers: usize, interval_us: u64) -> Config {
    Config {
        num_workers: workers,
        preempt_interval_ns: interval_us * 1000,
        timer_strategy: TimerStrategy::PerWorkerAligned,
        ..Config::default()
    }
}

#[test]
fn klt_local_state_preserved_by_klt_switching() {
    // The paper's KLT-dependence argument (§3.1.1/§3.1.2) end-to-end:
    // std::thread_local is genuinely KLT-local state. Under KLT-switching
    // the value a thread stores must never be observed/poisoned from a
    // different kernel thread's copy.
    thread_local! {
        static KLT_LOCAL: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }
    let rt = Runtime::start(preemptive(1, 500));
    let stop = Arc::new(AtomicBool::new(false));
    let corrupted = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for id in 1..=3u64 {
        let stop = stop.clone();
        let corrupted = corrupted.clone();
        handles.push(
            rt.spawn_with(ThreadKind::KltSwitching, Priority::High, move || {
                // Each thread writes its id into KLT-local storage, then keeps
                // verifying it across many preemption points. With
                // KLT-switching the thread resumes on the SAME kernel thread,
                // so the value must persist (with signal-yield it could see
                // another thread's value — the glibc-malloc hazard).
                KLT_LOCAL.with(|c| c.set(id));
                while !stop.load(Ordering::Acquire) {
                    let seen = KLT_LOCAL.with(|c| c.get());
                    if seen != id {
                        corrupted.store(true, Ordering::Release);
                        break;
                    }
                    // Re-assert our value like malloc caches would.
                    KLT_LOCAL.with(|c| c.set(id));
                }
            }),
        );
    }
    std::thread::sleep(std::time::Duration::from_millis(50));
    stop.store(true, Ordering::Release);
    for h in handles {
        h.join();
    }
    assert!(
        !corrupted.load(Ordering::Acquire),
        "KLT-switching leaked KLT-local state across threads"
    );
    assert!(rt.stats().klt_switches > 0, "no KLT switching happened");
    rt.shutdown();
}

/// Preemptive ULTs on every `ult-sync` primitive built on the wait queue,
/// and on `McsMutex`. The wake-up paths (unlock, notify, release, done)
/// take the queue's spin lock outside `block_current`; a ULT preempted
/// while holding it used to leave a worker spinning on that lock inside a
/// pinned section — with one worker, in front of the holder. `McsMutex`'s
/// releaser spins for a successor's link instead, so a nonpreemptive
/// locker shares its lock with the preemptive ones.
#[test]
fn sync_primitives_survive_preemptive_ults() {
    const ROUNDS: usize = 20;
    // A tick only preempts a ULT that has run half a quantum without
    // blocking, so the ping-pong is windowed: a side sends a whole window
    // (one `notify_one` each) before it waits for the other.
    const WINDOW: u64 = 512;
    const WINDOWS: u64 = 40;
    const LOCKERS: u64 = 3;
    const LOCKS_EACH: u64 = 20_000;
    const PERMITS: usize = 2;
    const WRITE_EVERY: u64 = 8;
    const BARRIER_EVERY: u64 = 500;

    // A wedged runtime cannot be joined or dropped, so the watchdog ends
    // the process instead of failing the test.
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if done_rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .is_err()
        {
            eprintln!("sync_primitives_survive_preemptive_ults: wedged, aborting");
            std::process::abort();
        }
    });

    for round in 0..ROUNDS {
        let kind = [ThreadKind::SignalYield, ThreadKind::KltSwitching][round % 2];
        let workers = 1 + (round / 2) % 2;
        let rt = Runtime::start(preemptive(workers, 100));
        let (ping_tx, ping_rx) = ult_sync::channel::<u64>(WINDOW as usize);
        let (pong_tx, pong_rx) = ult_sync::channel::<u64>(WINDOW as usize);
        let ponger = rt.spawn_with(kind, Priority::High, move || {
            while let Ok(v) = ping_rx.recv() {
                pong_tx.send(v + 1).unwrap();
            }
        });
        let pinger = rt.spawn_with(kind, Priority::High, move || {
            let mut sum = 0;
            for w in 0..WINDOWS {
                for i in 0..WINDOW {
                    ping_tx.send(w * WINDOW + i).unwrap();
                }
                for _ in 0..WINDOW {
                    sum += pong_rx.recv().unwrap();
                }
            }
            sum
        });
        // The lockers go through every other primitive too: at most
        // `PERMITS` of them inside the semaphore, a write lock every
        // `WRITE_EVERY` iterations among read locks, a barrier every
        // `BARRIER_EVERY`, and a wait group that a fourth ULT waits on.
        let counter = Arc::new(ult_sync::Mutex::new(0u64));
        let mcs = Arc::new(ult_sync::McsMutex::new(0u64));
        let sem = Arc::new(ult_sync::Semaphore::new(PERMITS));
        let inside = Arc::new(AtomicUsize::new(0));
        let rw = Arc::new(ult_sync::RwLock::new((0u64, 0u64)));
        let barrier = Arc::new(ult_sync::Barrier::new(LOCKERS as usize));
        let leaders = Arc::new(AtomicUsize::new(0));
        let wg = Arc::new(ult_sync::WaitGroup::new());
        wg.add(LOCKERS as usize);
        let lockers: Vec<_> = (0..LOCKERS)
            .map(|_| {
                let (counter, mcs, sem) = (counter.clone(), mcs.clone(), sem.clone());
                let (inside, rw, barrier) = (inside.clone(), rw.clone(), barrier.clone());
                let (leaders, wg) = (leaders.clone(), wg.clone());
                rt.spawn_with(kind, Priority::High, move || {
                    for i in 0..LOCKS_EACH {
                        *counter.lock() += 1;
                        *mcs.lock() += 1;
                        sem.acquire();
                        assert!(inside.fetch_add(1, Ordering::SeqCst) < PERMITS);
                        inside.fetch_sub(1, Ordering::SeqCst);
                        sem.release();
                        if i % WRITE_EVERY == 0 {
                            let mut w = rw.write();
                            w.0 += 1;
                            w.1 += 1;
                        } else {
                            let r = rw.read();
                            assert_eq!(r.0, r.1, "reader saw a writer's half-done update");
                        }
                        if i % BARRIER_EVERY == 0 && barrier.wait() {
                            leaders.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    wg.done();
                })
            })
            .collect();
        // A releaser that cannot be preempted on the same FIFO lock. It
        // yields while holding it now and then, so the preemptive lockers
        // queue behind it and it hands the lock to them.
        let mcs2 = mcs.clone();
        let np_locker = rt.spawn_with(ThreadKind::Nonpreemptive, Priority::High, move || {
            for i in 0..LOCKS_EACH {
                let mut g = mcs2.lock();
                *g += 1;
                if i % WRITE_EVERY == 0 {
                    ult_core::yield_now();
                }
            }
        });
        let (wg2, counter2) = (wg.clone(), counter.clone());
        let joiner = rt.spawn_with(kind, Priority::High, move || {
            wg2.wait();
            *counter2.lock()
        });
        let n = WINDOW * WINDOWS;
        assert_eq!(pinger.join(), n * (n + 1) / 2, "{kind:?} x{workers}");
        ponger.join();
        assert_eq!(joiner.join(), LOCKERS * LOCKS_EACH, "{kind:?} x{workers}");
        for l in lockers {
            l.join();
        }
        np_locker.join();
        assert_eq!(*counter.lock(), LOCKERS * LOCKS_EACH, "{kind:?} x{workers}");
        assert_eq!(
            *mcs.lock(),
            (LOCKERS + 1) * LOCKS_EACH,
            "{kind:?} x{workers}"
        );
        let writes = LOCKERS * LOCKS_EACH.div_ceil(WRITE_EVERY);
        assert_eq!(*rw.read(), (writes, writes), "{kind:?} x{workers}");
        assert_eq!(
            leaders.load(Ordering::SeqCst) as u64,
            LOCKS_EACH.div_ceil(BARRIER_EVERY),
            "{kind:?} x{workers}"
        );
        rt.shutdown();
    }
    done_tx.send(()).unwrap();
    watchdog.join().unwrap();
}

#[test]
fn busy_wait_team_deadlock_broken_by_preemption() {
    // Miniature of the paper's Cholesky/MKL scenario through mini-blas
    // teams: 1 worker, 2-member busy-wait team — deadlocks nonpreemptive,
    // completes with KLT-switching preemption.
    use mini_blas::{parallel, Matrix, Team, TeamConfig};
    let rt = Runtime::start(preemptive(1, 500));
    let h = rt.spawn_with(ThreadKind::KltSwitching, Priority::High, || {
        let team = Team::new(TeamConfig::mkl_busy_wait(2, ThreadKind::KltSwitching));
        let a = Matrix::from_fn(16, 8, |r, c| (r + c) as f64 * 0.25);
        let b = Matrix::from_fn(12, 8, |r, c| (r * c) as f64 * 0.125);
        let mut c = Matrix::zeros(16, 12);
        parallel::pgemm_nt(&team, &mut c, &a, &b);
        c.fro_norm()
    });
    let norm = h.join();
    assert!(norm > 0.0);
    rt.shutdown();
}

#[test]
fn packing_scheduler_balances_imbalanced_counts() {
    // Algorithm 1 end-to-end: N_total threads on n < N_total active
    // workers, n NOT a divisor of N_total — only preemption + the packing
    // scheduler finish this in bounded time with balanced progress.
    let rt = Runtime::start(Config {
        sched_policy: SchedPolicy::Packing,
        ..preemptive(4, 500)
    });
    rt.set_active_workers(3); // 4 threads on 3 workers: the awkward case
    let done = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let done = done.clone();
            rt.spawn_on(i, ThreadKind::KltSwitching, Priority::High, move || {
                // Equal compute load per thread (the paper's HPC premise).
                let mut acc = 0u64;
                for k in 0..30_000_000u64 {
                    acc = acc.wrapping_add(k ^ (k << 7));
                }
                std::hint::black_box(acc);
                done.fetch_add(1, Ordering::SeqCst);
            })
        })
        .collect();
    for h in handles {
        h.join();
    }
    assert_eq!(done.load(Ordering::SeqCst), 4);
    rt.set_active_workers(4);
    rt.shutdown();
}

#[test]
fn priority_scheduler_prefers_high_priority_work() {
    // §4.3 in miniature: a worker with queued low-priority threads must run
    // a newly arrived high-priority thread first.
    let rt = Runtime::start(Config {
        num_workers: 1,
        preempt_interval_ns: 1_000_000,
        timer_strategy: TimerStrategy::PerWorkerAligned,
        sched_policy: SchedPolicy::Priority,
        ..Config::default()
    });
    let order = Arc::new(std::sync::Mutex::new(Vec::new()));
    // Queue a blocker that holds the worker briefly, then low-prio work,
    // then high-prio work; high must run before the queued lows.
    let o = order.clone();
    let blocker = rt.spawn_with(ThreadKind::Nonpreemptive, Priority::High, move || {
        o.lock().unwrap().push("blocker");
        std::thread::sleep(std::time::Duration::from_millis(10));
    });
    std::thread::sleep(std::time::Duration::from_millis(2));
    let mut lows = Vec::new();
    for i in 0..3 {
        let o = order.clone();
        lows.push(
            rt.spawn_with(ThreadKind::SignalYield, Priority::Low, move || {
                o.lock().unwrap().push(if i == 0 { "low0" } else { "low" });
            }),
        );
    }
    let o = order.clone();
    let high = rt.spawn_with(ThreadKind::Nonpreemptive, Priority::High, move || {
        o.lock().unwrap().push("high");
    });
    blocker.join();
    high.join();
    for l in lows {
        l.join();
    }
    let seq = order.lock().unwrap().clone();
    let hi_pos = seq.iter().position(|&s| s == "high").unwrap();
    let first_low = seq.iter().position(|&s| s.starts_with("low")).unwrap();
    assert!(
        hi_pos < first_low,
        "high-priority ran after low-priority: {seq:?}"
    );
    rt.shutdown();
}

#[test]
fn multigrid_solve_on_preemptive_runtime() {
    use mini_hpgmg::{Multigrid, ParallelFor};
    let rt = Runtime::start(preemptive(2, 1000));
    let h = rt.spawn_with(ThreadKind::Nonpreemptive, Priority::High, || {
        let mut mg = Multigrid::new(16, 2);
        mg.set_rhs(|x, y, z| {
            let g = |t: f64| t * (1.0 - t);
            2.0 * (g(y) * g(z) + g(x) * g(z) + g(x) * g(y))
        });
        mg.solve(
            1e-7,
            30,
            &ParallelFor::Ult {
                kind: ThreadKind::KltSwitching,
                nthreads: 4,
            },
        )
    });
    let (cycles, rel) = h.join();
    assert!(rel < 1e-7, "did not converge: {rel} after {cycles} cycles");
    rt.shutdown();
}

#[test]
fn md_simulation_with_insitu_analysis_on_runtime() {
    use mini_md::analysis::AtomicHistogram;
    use mini_md::{rdf_histogram, LjParams, SimExec, Snapshot, System};
    let rt = Arc::new(Runtime::start(Config {
        num_workers: 2,
        preempt_interval_ns: 1_000_000,
        timer_strategy: TimerStrategy::PerWorkerAligned,
        sched_policy: SchedPolicy::Priority,
        ..Config::default()
    }));
    let rtc = rt.clone();
    let h = rtc.spawn_with(ThreadKind::Nonpreemptive, Priority::High, || {
        let mut sys = System::fcc(2, LjParams::default(), 3);
        let exec = SimExec::Ult {
            nthreads: 2,
            kind: ThreadKind::Nonpreemptive,
        };
        sys.compute_forces(&exec);
        let mut analyses = Vec::new();
        for step in 0..10 {
            sys.verlet_step(&exec);
            if step % 2 == 0 {
                let snap = Arc::new(Snapshot::capture(&sys, step));
                let hist = AtomicHistogram::new(32, snap.box_len / 2.0);
                let n = snap.n_atoms();
                analyses.push(ult_core::api::spawn(
                    ThreadKind::SignalYield,
                    Priority::Low,
                    move || {
                        rdf_histogram(&snap, &hist, 0..n);
                        hist.total()
                    },
                ));
            }
        }
        analyses.into_iter().map(|a| a.join()).collect::<Vec<_>>()
    });
    let totals = h.join();
    assert_eq!(totals.len(), 5);
    assert!(totals.iter().all(|&t| t > 0));
    drop(rtc);
    match Arc::try_unwrap(rt) {
        Ok(rt) => rt.shutdown(),
        Err(_) => panic!("runtime still referenced"),
    }
}

#[test]
fn deadlock_demo_subprocess_behaviour() {
    // The preemptive mode of the demo completes; the nonpreemptive mode
    // deadlocks (killed by timeout). Drive both as subprocesses.
    let bin = std::env::var("CARGO_BIN_EXE_deadlock_demo").unwrap_or_default();
    if bin.is_empty() {
        // Locate via target dir convention when not provided by cargo.
        let exe = std::env::current_exe().unwrap();
        let dir = exe.parent().unwrap().parent().unwrap();
        let candidate = dir.join("deadlock_demo");
        if !candidate.exists() {
            eprintln!("deadlock_demo binary not built; skipping");
            return;
        }
        run_demo(&candidate);
        return;
    }
    run_demo(std::path::Path::new(&bin));

    fn run_demo(bin: &std::path::Path) {
        // Preemptive: must exit 0 within the timeout.
        let out = std::process::Command::new("timeout")
            .args(["-s", "KILL", "60", bin.to_str().unwrap(), "preemptive"])
            .output()
            .expect("spawn demo");
        assert!(
            out.status.success(),
            "preemptive demo failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // Nonpreemptive: must NOT finish (timeout kills it).
        let out = std::process::Command::new("timeout")
            .args(["-s", "KILL", "3", bin.to_str().unwrap(), "nonpreemptive"])
            .output()
            .expect("spawn demo");
        assert!(
            !out.status.success(),
            "nonpreemptive busy-wait unexpectedly completed — the deadlock \
             the paper describes did not occur"
        );
    }
}
