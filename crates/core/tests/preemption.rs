//! Preemption behavior: the paper's core claims.
//!
//! * A ULT that never yields starves its worker under nonpreemptive
//!   scheduling but NOT under signal-yield or KLT-switching.
//! * Busy-wait deadlocks (thread A spins on a flag only thread B can set,
//!   both on one worker) are broken by preemption (paper §4.1's MKL
//!   scenario in miniature).
//! * KLT-switching preserves KLT identity across preemption; signal-yield
//!   does not (the KLT-dependence hazard of §3.1.1).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use ult_core::{Config, Priority, Runtime, ThreadKind, TimerStrategy};

fn preemptive_cfg(workers: usize, interval_us: u64) -> Config {
    Config {
        num_workers: workers,
        preempt_interval_ns: interval_us * 1000,
        timer_strategy: TimerStrategy::PerWorkerAligned,
        stat_samples: 4096,
        ..Config::default()
    }
}

/// Two spin threads on one worker; without preemption the first would run
/// forever (it polls a flag only the second can set).
fn busy_wait_pair(rt: &Runtime, kind: ThreadKind) {
    busy_wait_n(rt, kind, 1);
}

/// Occupy every worker with a non-yielding spinner, then spawn one setter
/// that can only run if a spinner is preempted — a guaranteed starvation
/// scenario regardless of worker count (the paper's MKL-style busy loop).
fn busy_wait_n(rt: &Runtime, kind: ThreadKind, n_spinners: usize) {
    let flag = Arc::new(AtomicBool::new(false));
    let spinners: Vec<_> = (0..n_spinners)
        .map(|i| {
            let f = flag.clone();
            rt.spawn_on(i, kind, Priority::High, move || {
                // Busy loop with NO explicit yield.
                while !f.load(Ordering::Acquire) {
                    core::hint::spin_loop();
                }
            })
        })
        .collect();
    // Give the spinners time to occupy all workers before queueing the
    // setter behind them.
    std::thread::sleep(std::time::Duration::from_millis(5));
    let f2 = flag.clone();
    let setter = rt.spawn_with(kind, Priority::High, move || {
        f2.store(true, Ordering::Release);
    });
    for h in spinners {
        h.join();
    }
    setter.join();
}

#[test]
fn signal_yield_breaks_busy_wait_deadlock() {
    let rt = Runtime::start(preemptive_cfg(1, 1000));
    busy_wait_pair(&rt, ThreadKind::SignalYield);
    let stats = rt.stats();
    assert!(stats.preemptions >= 1, "no preemption happened: {stats:?}");
    rt.shutdown();
}

#[test]
fn klt_switching_breaks_busy_wait_deadlock() {
    let rt = Runtime::start(preemptive_cfg(1, 1000));
    busy_wait_pair(&rt, ThreadKind::KltSwitching);
    let stats = rt.stats();
    assert!(stats.klt_switches >= 1, "no KLT switch happened: {stats:?}");
    rt.shutdown();
}

#[test]
fn nonpreemptive_threads_are_never_preempted() {
    // Nonpreemptive thread runs a finite spin; with timers armed it must
    // never be counted as preempted.
    let rt = Runtime::start(preemptive_cfg(1, 500));
    let h = rt.spawn_with(ThreadKind::Nonpreemptive, Priority::High, || {
        let end = std::time::Instant::now() + std::time::Duration::from_millis(30);
        while std::time::Instant::now() < end {
            core::hint::spin_loop();
        }
    });
    h.join();
    let stats = rt.stats();
    assert_eq!(stats.preemptions, 0, "{stats:?}");
    rt.shutdown();
}

#[test]
fn many_preemptions_on_long_spin() {
    // One long-running signal-yield thread accumulates many preemptions
    // while a second thread makes progress in the gaps.
    let rt = Runtime::start(preemptive_cfg(1, 500));
    let progress = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let s1 = stop.clone();
    let spinner = rt.spawn_with(ThreadKind::SignalYield, Priority::High, move || {
        while !s1.load(Ordering::Acquire) {
            core::hint::spin_loop();
        }
    });
    let p2 = progress.clone();
    let s2 = stop.clone();
    let ticker = rt.spawn_with(ThreadKind::SignalYield, Priority::High, move || {
        for _ in 0..20 {
            p2.fetch_add(1, Ordering::Relaxed);
            ult_core::yield_now();
        }
        s2.store(true, Ordering::Release);
    });
    ticker.join();
    spinner.join();
    assert_eq!(progress.load(Ordering::Relaxed), 20);
    let stats = rt.stats();
    assert!(stats.preemptions >= 3, "{stats:?}");
    assert!(!stats.interrupt_samples_ns.is_empty());
    rt.shutdown();
}

#[test]
fn klt_switching_preserves_kernel_tid() {
    // The defining property (paper §3.1.2): after a KLT-switching
    // preemption the thread resumes on the SAME kernel thread, so
    // KLT-local state (here: the kernel tid itself) is unchanged.
    let rt = Runtime::start(preemptive_cfg(1, 500));
    let flag = Arc::new(AtomicBool::new(false));
    let tid_stable = Arc::new(AtomicBool::new(true));
    let f1 = flag.clone();
    let ts = tid_stable.clone();
    let h1 = rt.spawn_with(ThreadKind::KltSwitching, Priority::High, move || {
        let my_tid = unsafe { libc::syscall(libc::SYS_gettid) };
        while !f1.load(Ordering::Acquire) {
            if unsafe { libc::syscall(libc::SYS_gettid) } != my_tid {
                ts.store(false, Ordering::Release);
            }
        }
    });
    let f2 = flag.clone();
    let h2 = rt.spawn_with(ThreadKind::KltSwitching, Priority::High, move || {
        // Give the first thread time to be preempted a few times.
        let end = std::time::Instant::now() + std::time::Duration::from_millis(20);
        while std::time::Instant::now() < end {
            core::hint::spin_loop();
        }
        f2.store(true, Ordering::Release);
    });
    h1.join();
    h2.join();
    assert!(
        tid_stable.load(Ordering::Acquire),
        "KLT-switching migrated a thread across kernel threads"
    );
    assert!(rt.stats().klt_switches >= 1);
    rt.shutdown();
}

#[test]
fn signal_yield_can_migrate_kernel_tid() {
    // Complementary demo: signal-yield threads may resume on a different
    // KLT (which is why KLT-dependent code needs KLT-switching). With >1
    // workers and stealing, migration is possible — we merely check the
    // runtime doesn't crash and work completes; migration itself is
    // scheduling-dependent.
    let rt = Runtime::start(preemptive_cfg(2, 500));
    let flag = Arc::new(AtomicBool::new(false));
    let migrations = Arc::new(AtomicUsize::new(0));
    let f1 = flag.clone();
    let m = migrations.clone();
    let h1 = rt.spawn_with(ThreadKind::SignalYield, Priority::High, move || {
        let first_tid = unsafe { libc::syscall(libc::SYS_gettid) };
        while !f1.load(Ordering::Acquire) {
            if unsafe { libc::syscall(libc::SYS_gettid) } != first_tid {
                m.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
        while !f1.load(Ordering::Acquire) {
            core::hint::spin_loop();
        }
    });
    std::thread::sleep(std::time::Duration::from_millis(20));
    flag.store(true, Ordering::Release);
    h1.join();
    rt.shutdown();
}

#[test]
fn preemption_interval_controls_rate() {
    // Halving the interval should roughly double preemption count over the
    // same wall time. We assert only a loose monotonic relation (CI noise).
    let count_preemptions = |interval_us: u64| {
        let rt = Runtime::start(preemptive_cfg(1, interval_us));
        let stop = Arc::new(AtomicBool::new(false));
        // Two spinners: a sole runnable would have its tick elided (nothing
        // to timeslice to); sustained preemption needs contention.
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let s = stop.clone();
                rt.spawn_with(ThreadKind::SignalYield, Priority::High, move || {
                    while !s.load(Ordering::Acquire) {
                        core::hint::spin_loop();
                    }
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(100));
        stop.store(true, Ordering::Release);
        for h in handles {
            h.join();
        }
        let p = rt.stats().preemptions;
        rt.shutdown();
        p
    };
    let fast = count_preemptions(1_000); // 1 ms
    let slow = count_preemptions(10_000); // 10 ms
    assert!(
        fast > slow,
        "1ms interval preempted {fast} times, 10ms {slow} times"
    );
}

#[test]
fn echo_suppression_counts() {
    // With a very aggressive timer the echo filter must be exercised
    // without breaking forward progress.
    let rt = Runtime::start(preemptive_cfg(1, 200));
    let sum = Arc::new(AtomicU64::new(0));
    let s = sum.clone();
    let h = rt.spawn_with(ThreadKind::SignalYield, Priority::High, move || {
        let mut acc = 0u64;
        for i in 0..20_000_000u64 {
            acc = acc.wrapping_add(i);
        }
        s.store(acc, Ordering::Release);
    });
    h.join();
    assert_ne!(sum.load(Ordering::Acquire), 0);
    rt.shutdown();
}
