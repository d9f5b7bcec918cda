//! Preemption latency and tick elision (the PR-3 fast path).
//!
//! Three properties of the aligned per-worker timers:
//!
//! 1. **Elision**: a worker whose sole runnable is a spinner, a worker whose
//!    occupant is nonpreemptive (however much work waits behind it), or a
//!    worker with no work at all takes ~zero timer signals (a non-elided
//!    timer would deliver one per tick over the measurement window).
//! 2. **Latency**: the moment a second ULT arrives, the elided timer is
//!    re-armed and the busy spinner is preempted within 10× the tick
//!    interval — elision must not cost responsiveness.
//! 3. **Deferral**: ticks never preempt while preemption is disabled;
//!    they are deferred and acted on at re-enable.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use ult_core::tls::UltLocal;
use ult_core::{Config, Priority, Runtime, ThreadKind, TimerStrategy};

const INTERVAL_NS: u64 = 2_000_000; // 2 ms ticks → 20 ms latency bound

fn start_at(interval_ns: u64, workers: usize) -> Runtime {
    Runtime::start(Config {
        num_workers: workers,
        preempt_interval_ns: interval_ns,
        timer_strategy: TimerStrategy::PerWorkerAligned,
        ..Config::default()
    })
}

fn start(workers: usize) -> Runtime {
    start_at(INTERVAL_NS, workers)
}

/// One worker runs a spinner of `occupant` kind with `queued` SignalYield
/// ULTs pushed behind it; over `window` (measured once the queue is in
/// place) the worker must take at most `max_ticks` timer signals. With
/// nothing queued the sole runnable has nothing to timeslice to; with a
/// nonpreemptive occupant no tick could ever act — either way the tick is
/// elided (a live one would deliver one signal per tick).
fn occupied_worker_is_elided(
    occupant: ThreadKind,
    queued: usize,
    interval_ns: u64,
    window: Duration,
    max_ticks: u64,
) {
    let rt = start_at(interval_ns, 1);
    let stop = Arc::new(AtomicBool::new(false));
    let running = Arc::new(AtomicBool::new(false));
    let h = {
        let (stop, running) = (stop.clone(), running.clone());
        rt.spawn_with(occupant, Priority::High, move || {
            running.store(true, Ordering::Release);
            while !stop.load(Ordering::Acquire) {
                core::hint::spin_loop();
            }
        })
    };
    while !running.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let ran = Arc::new(AtomicUsize::new(0));
    let behind: Vec<_> = (0..queued)
        .map(|_| {
            let ran = ran.clone();
            rt.spawn_on(0, ThreadKind::SignalYield, Priority::High, move || {
                ran.fetch_add(1, Ordering::AcqRel);
            })
        })
        .collect();
    let before = rt.stats();
    std::thread::sleep(window);
    let st = rt.stats();
    let still_queued = ran.load(Ordering::Acquire) == 0;
    stop.store(true, Ordering::Release);
    h.join();
    for b in behind {
        b.join();
    }
    rt.shutdown();
    assert!(st.tick_elisions >= 1, "worker never elided its tick");
    if queued > 0 {
        assert!(still_queued, "queued work ran past a {occupant:?} spinner");
    }
    let ticks = st.timer_ticks - before.timer_ticks;
    assert!(
        ticks <= max_ticks,
        "{occupant:?} occupant with {queued} queued took {ticks} timer ticks in {window:?} \
         (bound {max_ticks}; a live timer would deliver ~{})",
        window.as_nanos() as u64 / interval_ns
    );
}

#[test]
fn sole_spinner_elided_aligned() {
    occupied_worker_is_elided(
        ThreadKind::SignalYield,
        0,
        INTERVAL_NS,
        Duration::from_millis(1000),
        20,
    );
}

/// The property Fig. 9's in-situ analysis relies on: a nonpreemptive
/// simulation thread with analysis work queued behind it is never ticked.
#[test]
fn nonpreemptive_occupant_with_queued_work_elided() {
    occupied_worker_is_elided(
        ThreadKind::Nonpreemptive,
        2,
        1_000_000,
        Duration::from_millis(200),
        3,
    );
}

/// Workers with no work at all park with their timers disarmed.
#[test]
fn parked_workers_take_no_ticks() {
    let rt = start(2);
    std::thread::sleep(Duration::from_millis(1000));
    let st = rt.stats();
    rt.shutdown();
    assert!(
        st.timer_ticks <= 20,
        "idle runtime took {} timer ticks in 1 s (non-elided would be ~1000)",
        st.timer_ticks
    );
}

/// Once a second ULT arrives on a busy (elided) worker, preemption must
/// fire within 10× the tick interval — the re-arm edge of the elision
/// state machine.
#[test]
fn preempts_within_bound_aligned() {
    let rt = start(1);
    let stop = Arc::new(AtomicBool::new(false));
    let spinner = {
        let stop = stop.clone();
        rt.spawn_with(ThreadKind::SignalYield, Priority::High, move || {
            while !stop.load(Ordering::Acquire) {
                core::hint::spin_loop();
            }
        })
    };
    // Let the worker settle into the elided state (sole spinner).
    std::thread::sleep(Duration::from_millis(50));

    let latency_ns = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let second = {
        let latency_ns = latency_ns.clone();
        rt.spawn_on(0, ThreadKind::SignalYield, Priority::High, move || {
            latency_ns.store(t0.elapsed().as_nanos() as u64, Ordering::Release);
        })
    };
    second.join();
    stop.store(true, Ordering::Release);
    spinner.join();
    rt.shutdown();

    let lat = latency_ns.load(Ordering::Acquire);
    assert!(
        lat <= 10 * INTERVAL_NS,
        "second ULT waited {:.1} ms behind the spinner \
         (bound: {:.1} ms = 10 ticks)",
        lat as f64 / 1e6,
        (10 * INTERVAL_NS) as f64 / 1e6
    );
}

/// The same edge from the inside: the sole, elided spinner spawns the
/// second ULT itself — onto its own worker, from its own context — and keeps
/// spinning. Nobody else will ever touch that worker's tick, so the push
/// must re-arm it for the (preemptive) spawner right there.
#[test]
fn self_spawn_preempts_within_bound_aligned() {
    let rt = start(1);
    let go = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let latency_ns = Arc::new(AtomicU64::new(0));
    let spinner = {
        let (go, stop, latency_ns) = (go.clone(), stop.clone(), latency_ns.clone());
        rt.spawn_with(ThreadKind::SignalYield, Priority::High, move || {
            while !go.load(Ordering::Acquire) {
                core::hint::spin_loop();
            }
            let t0 = Instant::now();
            let child = ult_core::api::spawn(ThreadKind::SignalYield, Priority::High, move || {
                latency_ns.store(t0.elapsed().as_nanos() as u64, Ordering::Release);
            });
            while !stop.load(Ordering::Acquire) {
                core::hint::spin_loop();
            }
            child.join();
        })
    };
    // Let the worker settle into the elided state (sole spinner).
    std::thread::sleep(Duration::from_millis(50));
    go.store(true, Ordering::Release);
    // The parent only stops once the child has run (or clearly will not).
    let give_up = Instant::now() + Duration::from_secs(2);
    while latency_ns.load(Ordering::Acquire) == 0 && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(1));
    }
    stop.store(true, Ordering::Release);
    spinner.join();
    rt.shutdown();

    let lat = latency_ns.load(Ordering::Acquire);
    assert!(
        lat <= 10 * INTERVAL_NS,
        "self-spawned ULT waited {:.1} ms behind its spinning parent \
         (bound: {:.1} ms = 10 ticks)",
        lat as f64 / 1e6,
        (10 * INTERVAL_NS) as f64 / 1e6
    );
}

/// Preemption never fires while preemption is disabled: a ULT spinning
/// inside a `UltLocal::with` closure (which pins the worker) is never
/// descheduled mid-closure — a queued competitor on the same sole worker
/// must not run until the closure exits — and the ticks that arrived
/// meanwhile show up as deferrals.
#[test]
fn no_preemption_while_disabled() {
    static SLOT: UltLocal<u64> = UltLocal::new(|| 0);
    let rt = start(1);
    let in_critical = Arc::new(AtomicBool::new(false));
    let violated = Arc::new(AtomicBool::new(false));

    let a = {
        let in_critical = in_critical.clone();
        rt.spawn_with(ThreadKind::SignalYield, Priority::High, move || {
            SLOT.with(|v| {
                in_critical.store(true, Ordering::SeqCst);
                // Spin ~10 tick intervals with preemption pinned off.
                let end = Instant::now() + Duration::from_millis(20);
                while Instant::now() < end {
                    core::hint::spin_loop();
                }
                in_critical.store(false, Ordering::SeqCst);
                *v += 1;
            });
        })
    };
    // A competitor queued behind the critical section on the same worker:
    // it can only run if the handler wrongly preempts mid-closure.
    let b = {
        let in_critical = in_critical.clone();
        let violated = violated.clone();
        rt.spawn_on(0, ThreadKind::SignalYield, Priority::High, move || {
            if in_critical.load(Ordering::SeqCst) {
                violated.store(true, Ordering::SeqCst);
            }
        })
    };
    a.join();
    b.join();
    let st = rt.stats();
    rt.shutdown();
    assert!(
        !violated.load(Ordering::SeqCst),
        "competitor ran while the critical section held preemption disabled"
    );
    assert!(
        st.deferred_ticks >= 1,
        "no ticks were deferred during a 20 ms pinned spin ({} timer ticks seen)",
        st.timer_ticks
    );
}

// ---------------------------------------------------------------------------
// Adaptive quanta (scheduling classes)
// ---------------------------------------------------------------------------

fn start_adaptive(workers: usize) -> Runtime {
    Runtime::start(Config {
        num_workers: workers,
        preempt_interval_ns: INTERVAL_NS,
        timer_strategy: TimerStrategy::PerWorkerAligned,
        adaptive_quantum: true,
        ..Config::default()
    })
}

/// With adaptive quanta on, a `Latency` ULT pushed behind a `Throughput`
/// spinner is dispatched within the same 10-tick bound as the base latency
/// test — and the push demonstrably shrank the worker's quantum (the
/// floor re-arm path, not luck).
#[test]
fn latency_class_preempts_spinner_quickly() {
    use ult_core::{SchedClass, SpawnAttrs};
    let rt = start_adaptive(1);
    let stop = Arc::new(AtomicBool::new(false));
    let spinner = {
        let stop = stop.clone();
        rt.spawn_attrs(
            SpawnAttrs::new()
                .kind(ThreadKind::SignalYield)
                .class(SchedClass::Throughput),
            move || {
                while !stop.load(Ordering::Acquire) {
                    core::hint::spin_loop();
                }
            },
        )
    };
    std::thread::sleep(Duration::from_millis(50));

    let latency_ns = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let second = {
        let latency_ns = latency_ns.clone();
        rt.spawn_attrs(
            SpawnAttrs::new()
                .kind(ThreadKind::SignalYield)
                .class(SchedClass::Latency)
                .on(0),
            move || {
                latency_ns.store(t0.elapsed().as_nanos() as u64, Ordering::Release);
            },
        )
    };
    second.join();
    stop.store(true, Ordering::Release);
    spinner.join();
    let st = rt.stats();
    rt.shutdown();

    let lat = latency_ns.load(Ordering::Acquire);
    assert!(
        lat <= 10 * INTERVAL_NS,
        "Latency ULT waited {:.1} ms behind the Throughput spinner \
         (bound: {:.1} ms = 10 ticks)",
        lat as f64 / 1e6,
        (10 * INTERVAL_NS) as f64 / 1e6
    );
    assert!(
        st.quantum_shrinks >= 1,
        "latency push never shrank the quantum (shrinks = 0)"
    );
    assert!(
        st.latency_dispatches >= 1,
        "the Latency ULT was never dispatched as such"
    );
}

/// Throughput-only workers stretch their quantum toward the ceiling, but a
/// stretched quantum must never starve a later `Normal` arrival: it still
/// completes within a generous bound, because a Normal dispatch snaps the
/// quantum back to base.
#[test]
fn quantum_stretch_never_starves_normal() {
    use ult_core::{SchedClass, SpawnAttrs};
    let rt = start_adaptive(1);
    let stop = Arc::new(AtomicBool::new(false));
    // TWO spinners: a sole spinner elides its tick entirely, which would
    // bypass the stretch machinery; two keep the timer armed and the
    // round-robin dispatching (and stretching) continuously.
    let spinners: Vec<_> = (0..2)
        .map(|_| {
            let stop = stop.clone();
            rt.spawn_attrs(
                SpawnAttrs::new()
                    .kind(ThreadKind::SignalYield)
                    .class(SchedClass::Throughput),
                move || {
                    while !stop.load(Ordering::Acquire) {
                        core::hint::spin_loop();
                    }
                },
            )
        })
        .collect();
    // Let the quantum stretch toward the ceiling (4× base by default).
    std::thread::sleep(Duration::from_millis(100));

    let latency_ns = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let normal = {
        let latency_ns = latency_ns.clone();
        rt.spawn_attrs(
            SpawnAttrs::new().kind(ThreadKind::SignalYield).on(0),
            move || {
                latency_ns.store(t0.elapsed().as_nanos() as u64, Ordering::Release);
            },
        )
    };
    normal.join();
    stop.store(true, Ordering::Release);
    for s in spinners {
        s.join();
    }
    let st = rt.stats();
    rt.shutdown();

    assert!(
        st.quantum_stretches >= 1,
        "throughput-only worker never stretched its quantum"
    );
    let lat = latency_ns.load(Ordering::Acquire);
    // Generous: ceiling is 4× base, so 50 base ticks ≫ any legal wait.
    assert!(
        lat <= 50 * INTERVAL_NS,
        "Normal ULT starved {:.1} ms behind stretched Throughput spinners \
         (bound: {:.1} ms)",
        lat as f64 / 1e6,
        (50 * INTERVAL_NS) as f64 / 1e6
    );
}
