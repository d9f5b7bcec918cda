//! Timer behavior: the aligned per-worker timers (paper §3.2) keep
//! delivering preemptions over an extended run, including across many KLT
//! switches (a worker's tick follows whichever KLT embodies it), a KLT
//! switch creates and deletes no timer, a stopped runtime leaves none
//! behind, and a worker whose `timer_create` fails keeps running without
//! ticks.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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
    // Every switch hands the tick from one KLT's timer to another's: ticks
    // must keep flowing across dozens of hand-overs.
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

/// Run the `#[ignore]`d test `name` of this binary in a child process with
/// `env_key` set, and return its stdout once it has exited successfully
/// within 30 s. A child is needed where the test changes process-wide
/// state (a resource limit) or reads it (`/proc/self/timers`) while the
/// harness runs the other tests in parallel.
fn run_child(name: &str, env_key: &str) -> String {
    let exe = std::env::current_exe().expect("test binary path");
    let mut child = std::process::Command::new(exe)
        .args([
            "--exact",
            name,
            "--ignored",
            "--nocapture",
            "--test-threads=1",
        ])
        .env(env_key, "1")
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
                "child {name} hung.\nstderr:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect child output");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "child {name} failed.\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    stdout
}

/// Parent half: the child must exit cleanly within the deadline, having run
/// every ULT and counted its failed `timer_create` calls.
#[test]
fn a_failed_timer_create_leaves_workers_running_without_ticks() {
    let stdout = run_child("failed_timer_create_child", "ULT_TIMER_CREATE_FAILS");
    let line = stdout
        .lines()
        .find(|l| l.contains("TICKLESS_OK"))
        .unwrap_or_else(|| panic!("no TICKLESS_OK line.\nstdout:\n{stdout}"));
    assert!(line.contains("done=28"), "not every ULT finished: {line}");
    let failures: u64 = line
        .split("timer_create_failures=")
        .nth(1)
        .and_then(|s| s.trim().parse().ok())
        .expect("parse timer_create_failures");
    assert!(failures > 0, "no timer_create failure was counted: {line}");
}

/// The POSIX timer ids of this process (`/proc/self/timers`), or `None` on
/// a kernel that does not expose the file.
fn process_timers() -> Option<Vec<String>> {
    let text = std::fs::read_to_string("/proc/self/timers").ok()?;
    Some(
        text.lines()
            .filter_map(|l| l.strip_prefix("ID:"))
            .map(|id| id.trim().to_owned())
            .collect(),
    )
}

/// Start a two-worker KLT-switching runtime at a 1 ms tick with two
/// spinners per worker, so every worker keeps switching KLTs.
fn klt_switching_spinners(stop: &Arc<AtomicBool>) -> (Runtime, Vec<ult_core::JoinHandle<()>>) {
    let rt = Runtime::start(Config {
        num_workers: 2,
        preempt_interval_ns: 1_000_000,
        timer_strategy: TimerStrategy::PerWorkerAligned,
        spare_klts: 4,
        ..Config::default()
    });
    let handles = (0..4)
        .map(|i| {
            let stop = stop.clone();
            rt.spawn_on(i % 2, ThreadKind::KltSwitching, Priority::High, move || {
                while !stop.load(Ordering::Acquire) {
                    core::hint::spin_loop();
                }
            })
        })
        .collect();
    (rt, handles)
}

/// Wait until the runtime has made `n` more KLT switches.
fn await_switches(rt: &Runtime, n: u64) {
    let target = rt.stats().klt_switches + n;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while rt.stats().klt_switches < target {
        assert!(
            std::time::Instant::now() < deadline,
            "only {} of {target} KLT switches in 20 s",
            rt.stats().klt_switches
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

/// Child half of the test below: every timer the runtime holds after its
/// first KLT switches is still there 200 switches later (a switch creates
/// and deletes none), and 20 start/stop cycles leave the process with as
/// many timers as before the first start.
#[test]
#[ignore = "child half of a_klt_switch_keeps_its_timers_and_a_stopped_runtime_leaves_none"]
fn klt_timer_lifetime_child() {
    if std::env::var_os("ULT_KLT_TIMERS").is_none() {
        return; // only meaningful when driven by the parent test below
    }
    let Some(before) = process_timers() else {
        println!("KLT_TIMERS_SKIPPED no /proc/self/timers");
        return;
    };
    let stop = Arc::new(AtomicBool::new(false));
    let (rt, handles) = klt_switching_spinners(&stop);
    await_switches(&rt, 20);
    let first = process_timers().expect("read /proc/self/timers");
    await_switches(&rt, 200);
    let later = process_timers().expect("read /proc/self/timers");
    stop.store(true, Ordering::Release);
    handles.into_iter().for_each(|h| h.join());
    rt.shutdown();
    let lost: Vec<_> = first.iter().filter(|id| !later.contains(id)).collect();
    assert!(
        lost.is_empty(),
        "KLT switches deleted timers {lost:?} (before {first:?}, after {later:?})"
    );
    for _ in 0..20 {
        let stop = Arc::new(AtomicBool::new(false));
        let (rt, handles) = klt_switching_spinners(&stop);
        await_switches(&rt, 4);
        stop.store(true, Ordering::Release);
        handles.into_iter().for_each(|h| h.join());
        rt.shutdown();
    }
    let after = process_timers().expect("read /proc/self/timers");
    assert_eq!(
        after.len(),
        before.len(),
        "stopped runtimes left timers behind: {after:?} (before: {before:?})"
    );
    println!("KLT_TIMERS_OK kept={}", first.len());
}

/// Parent half: the child runs alone in its process, so its view of
/// `/proc/self/timers` is the runtime's own.
#[test]
fn a_klt_switch_keeps_its_timers_and_a_stopped_runtime_leaves_none() {
    let stdout = run_child("klt_timer_lifetime_child", "ULT_KLT_TIMERS");
    assert!(
        stdout.contains("KLT_TIMERS_OK") || stdout.contains("KLT_TIMERS_SKIPPED"),
        "child reported nothing.\nstdout:\n{stdout}"
    );
}

/// A one-worker runtime's `debug_state` line shows the tick as the kernel
/// sees it: a sole preemptive spinner leaves the tick elided and the
/// timer disarmed; a second spinner on the same worker re-arms it.
#[test]
fn debug_state_reads_the_tick_flag_and_the_kernel_timer() {
    let rt = Runtime::start(Config {
        num_workers: 1,
        preempt_interval_ns: 1_000_000,
        timer_strategy: TimerStrategy::PerWorkerAligned,
        ..Config::default()
    });
    let (running, stop) = (
        Arc::new(AtomicUsize::new(0)),
        Arc::new(AtomicBool::new(false)),
    );
    let spinner = |n: usize| {
        let (started, stop) = (running.clone(), stop.clone());
        let h = rt.spawn_with(ThreadKind::SignalYield, Priority::High, move || {
            started.fetch_add(1, Ordering::Release);
            while !stop.load(Ordering::Acquire) {
                core::hint::spin_loop();
            }
        });
        while running.load(Ordering::Acquire) < n {
            std::thread::yield_now();
        }
        h
    };
    // Both states are steady while the spinners run: after a few ticks'
    // grace, every read over the next 20 ticks must show the one expected.
    // A miss is reported after the spinners stop, so the runtime can.
    let misses = |want: &str| {
        std::thread::sleep(std::time::Duration::from_millis(5));
        (0..20)
            .map(|_| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                rt.debug_state()
            })
            .find(|state| !state.contains(want))
            .map(|state| format!("worker 0 does not read `{want}`:\n{state}"))
    };
    let first = spinner(1);
    let sole = misses(" elided=true timer_armed=false ");
    let second = spinner(2);
    let pair = misses(" elided=false timer_armed=true ");
    stop.store(true, Ordering::Release);
    first.join();
    second.join();
    rt.shutdown();
    assert_eq!(sole, None);
    assert_eq!(pair, None);
}
