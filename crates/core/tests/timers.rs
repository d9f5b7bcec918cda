//! Timer behavior: the aligned per-worker timers (paper §3.2) keep
//! delivering preemptions over an extended run, including across many
//! KLT-switch rebinds (the regression surface for timer re-targeting), and
//! a worker whose `timer_create` fails keeps running without ticks.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use ult_core::{Config, Priority, Runtime, ThreadKind, TimerStrategy};

fn spin_preempt_run(kind: ThreadKind, millis: u64) -> u64 {
    let rt = Runtime::start(Config {
        num_workers: 2,
        preempt_interval_ns: 1_000_000,
        timer_strategy: TimerStrategy::PerWorkerAligned,
        spare_klts: 4,
        ..Config::default()
    });
    let stop = Arc::new(AtomicBool::new(false));
    // Two spinners per worker: a worker with a sole runnable has its tick
    // elided (nothing to timeslice to); sustained delivery needs real
    // timeslicing pressure on every worker.
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let stop = stop.clone();
            rt.spawn_on(i % 2, kind, Priority::High, move || {
                while !stop.load(Ordering::Acquire) {
                    core::hint::spin_loop();
                }
            })
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(millis));
    stop.store(true, Ordering::Release);
    for h in handles {
        h.join();
    }
    let p = rt.stats().preemptions;
    rt.shutdown();
    p
}

#[test]
fn aligned_timer_sustains_signal_yield_preemption() {
    let p = spin_preempt_run(ThreadKind::SignalYield, 150);
    // 150 ms at 1 ms ticks over 2 workers: expect dozens; require a floor
    // that proves sustained (not one-shot) delivery.
    assert!(p >= 20, "only {p} preemptions in 150 ms");
}

#[test]
fn aligned_timer_sustains_klt_switching_preemption() {
    // KLT-switching rebinds the timer on every switch — the regression
    // surface: ticks must keep flowing across dozens of rebind cycles.
    let p = spin_preempt_run(ThreadKind::KltSwitching, 300);
    assert!(p >= 20, "only {p} KLT-switch preemptions in 300 ms");
}

#[test]
fn zero_interval_disables_preemption_entirely() {
    let rt = Runtime::start(Config {
        num_workers: 1,
        preempt_interval_ns: 0,
        timer_strategy: TimerStrategy::None,
        ..Config::default()
    });
    let h = rt.spawn_with(ThreadKind::SignalYield, Priority::High, || {
        let end = std::time::Instant::now() + std::time::Duration::from_millis(30);
        while std::time::Instant::now() < end {
            core::hint::spin_loop();
        }
    });
    h.join();
    assert_eq!(rt.stats().preemptions, 0);
    rt.shutdown();
}

/// Child half of the test below: with `RLIMIT_SIGPENDING` at 0 the kernel
/// cannot preallocate a timer's signal, so every `timer_create` fails with
/// `EAGAIN` (root included). Yielding ULTs of both preemptive kinds must
/// still run to completion on workers that never get a tick.
#[test]
#[ignore = "child half of a_failed_timer_create_leaves_workers_running_without_ticks"]
fn failed_timer_create_child() {
    if std::env::var_os("ULT_TIMER_CREATE_FAILS").is_none() {
        return; // only meaningful when driven by the parent test below
    }
    let zero = libc::rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: plain setrlimit on this (child) process.
    assert_eq!(
        unsafe { libc::setrlimit(libc::RLIMIT_SIGPENDING, &zero) },
        0
    );
    let rt = Runtime::start(Config {
        num_workers: 2,
        preempt_interval_ns: 1_000_000,
        timer_strategy: TimerStrategy::PerWorkerAligned,
        ..Config::default()
    });
    let handles: Vec<_> = [ThreadKind::SignalYield, ThreadKind::KltSwitching]
        .into_iter()
        .cycle()
        .take(8)
        .enumerate()
        .map(|(i, kind)| {
            rt.spawn_on(i % 2, kind, Priority::High, move || {
                for _ in 0..100 {
                    ult_core::yield_now();
                }
                i
            })
        })
        .collect();
    let done: usize = handles.into_iter().map(|h| h.join()).sum();
    let failures = rt.stats().timer_create_failures;
    rt.shutdown();
    println!("TICKLESS_OK done={done} timer_create_failures={failures}");
}

/// Parent half: the child must exit cleanly within the deadline, having run
/// every ULT and counted its failed `timer_create` calls.
#[test]
fn a_failed_timer_create_leaves_workers_running_without_ticks() {
    let exe = std::env::current_exe().expect("test binary path");
    let mut child = std::process::Command::new(exe)
        .args([
            "--exact",
            "failed_timer_create_child",
            "--ignored",
            "--nocapture",
            "--test-threads=1",
        ])
        .env("ULT_TIMER_CREATE_FAILS", "1")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn child test process");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while child.try_wait().expect("poll child").is_none() {
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            let out = child.wait_with_output().expect("reap child");
            panic!(
                "child hung without timers.\nstderr:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect child output");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "child failed.\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    let line = stdout
        .lines()
        .find(|l| l.contains("TICKLESS_OK"))
        .unwrap_or_else(|| panic!("no TICKLESS_OK line.\nstdout:\n{stdout}\nstderr:\n{stderr}"));
    assert!(line.contains("done=28"), "not every ULT finished: {line}");
    let failures: u64 = line
        .split("timer_create_failures=")
        .nth(1)
        .and_then(|s| s.trim().parse().ok())
        .expect("parse timer_create_failures");
    assert!(failures > 0, "no timer_create failure was counted: {line}");
}
