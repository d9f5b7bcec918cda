//! Unit-cost probes: the ladder from a bare context switch up to an async
//! task's waker hop, each rung timed on its own through public functions
//! only. They run in the traced run's set-up and take ~0.1 s each; each
//! reports the median over a few repetitions. A probe names the layer a
//! workload's end-to-end number should be read against — it is not itself
//! a workload.

use crate::metrics::Values;
use crate::stats::median;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context as TaskContext, Poll, Waker};
use std::time::Duration;
use ult_core::pool::ThreadPool;
use ult_core::thread::Ult;
use ult_core::{Config, Priority, Runtime, ThreadKind, TimerStrategy};

const REPS: usize = 5;

/// Median over [`REPS`] runs of `f`, which returns ns per op.
fn med(mut f: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..REPS).map(|_| f()).collect();
    median(&v)
}

/// ns per op of `n` calls of `f`.
fn per_op(n: u64, mut f: impl FnMut()) -> f64 {
    let t0 = ult_sys::now_ns();
    for _ in 0..n {
        f();
    }
    (ult_sys::now_ns() - t0) as f64 / n as f64
}

/// One worker, no timer: the scheduler's own cost and nothing else.
fn quiet() -> Runtime {
    Runtime::start(Config {
        num_workers: 1,
        preempt_interval_ns: 0,
        ..Config::default()
    })
}

/// The preemption handler is installed and live, but no timer is armed:
/// every tick is one the probe raises itself.
fn raise_driven(preempt_interval_ns: u64) -> Runtime {
    Runtime::start(Config {
        num_workers: 1,
        preempt_interval_ns,
        timer_strategy: TimerStrategy::None,
        ..Config::default()
    })
}

struct PingPong {
    main: ult_arch::Context,
    coro: ult_arch::Context,
}

unsafe extern "C" fn coro_entry(arg: *mut core::ffi::c_void) -> ! {
    let pp = arg.cast::<PingPong>();
    loop {
        // SAFETY: `pp` outlives the coroutine (it is never resumed after
        // `context_switch` returns); `main` was saved by the switch that
        // resumed us and nobody else resumes it.
        unsafe { ult_arch::Context::switch(&raw mut (*pp).coro, &raw const (*pp).main) };
    }
}

fn context_switch() -> f64 {
    const ROUND_TRIPS: u64 = 200_000;
    let stack = ult_arch::Stack::with_default_size().expect("map a probe stack");
    let p = Box::into_raw(Box::new(PingPong {
        main: ult_arch::Context::empty(),
        coro: ult_arch::Context::empty(),
    }));
    // SAFETY: `stack` is a fresh mapping used for nothing else and outlives
    // every switch below; `coro_entry` never returns; `p` is live until the
    // `from_raw` at the end.
    unsafe { (*p).coro = ult_arch::Context::new(stack.top(), coro_entry, p.cast()) };
    let v = med(|| {
        per_op(ROUND_TRIPS, || {
            // SAFETY: `coro` is fresh or was suspended by its own switch back
            // to us; this thread is the only one that touches either context.
            unsafe { ult_arch::Context::switch(&raw mut (*p).main, &raw const (*p).coro) }
        }) / 2.0
    });
    // SAFETY: `p` came from `Box::into_raw` above; the coroutine that also
    // holds it is suspended for good.
    drop(unsafe { Box::from_raw(p) });
    v
}

fn stack_alloc() -> f64 {
    med(|| {
        per_op(2_000, || {
            drop(std::hint::black_box(
                ult_arch::Stack::with_default_size().expect("map a stack"),
            ))
        })
    })
}

fn pool_push_pop() -> f64 {
    let pool = ThreadPool::with_capacity(64);
    let t = Ult::test_ult(1);
    med(|| {
        per_op(200_000, || {
            pool.push(t.clone());
            std::hint::black_box(pool.pop());
        })
    })
}

fn pool_steal() -> f64 {
    const BATCH: usize = 512;
    let pool = ThreadPool::with_capacity(BATCH + 16);
    let ts: Vec<Arc<Ult>> = (0..BATCH).map(|i| Ult::test_ult(i as u64)).collect();
    med(|| {
        let mut steal_ns = 0u64;
        for _ in 0..200 {
            for t in &ts {
                pool.push(t.clone());
            }
            let t0 = ult_sys::now_ns();
            for _ in 0..BATCH {
                std::hint::black_box(pool.steal());
            }
            steal_ns += ult_sys::now_ns() - t0;
        }
        steal_ns as f64 / (200 * BATCH) as f64
    })
}

fn coop_yield() -> f64 {
    let rt = quiet();
    let v = med(|| rt.spawn(|| per_op(100_000, ult_core::yield_now)).join());
    rt.shutdown();
    v
}

fn spawn_join() -> f64 {
    let rt = quiet();
    let v = med(|| {
        rt.spawn(|| {
            let mut hs = Vec::with_capacity(64);
            per_op(300, || {
                hs.extend((0..64).map(|_| {
                    ult_core::api::spawn(ThreadKind::Nonpreemptive, Priority::High, || {})
                }));
                hs.drain(..).for_each(|h| h.join());
            }) / 64.0
        })
        .join()
    });
    rt.shutdown();
    v
}

/// `raises` self-delivered preemption signals from inside a ULT of `kind`.
fn raise_loop(rt: &Runtime, kind: ThreadKind, raises: u64) -> f64 {
    let sig = ult_sys::signal::preempt_signum();
    med(|| {
        rt.spawn_with(kind, Priority::High, move || {
            per_op(raises, || ult_sys::signal::raise_signal(sig))
        })
        .join()
    })
}

/// Raise → handler → scheduler → re-dispatch → sigreturn. The 1 µs interval
/// keeps the handler's too-early filters out of the way.
fn signal_yield_rt() -> f64 {
    let rt = raise_driven(1_000);
    let v = raise_loop(&rt, ThreadKind::SignalYield, 10_000);
    rt.shutdown();
    v
}

/// A tick the handler dismisses: with a one-hour interval every raise is
/// too early, so this is kernel delivery + filter + sigreturn.
fn useless_tick() -> f64 {
    let rt = raise_driven(3_600_000_000_000);
    let v = raise_loop(&rt, ThreadKind::SignalYield, 10_000);
    rt.shutdown();
    v
}

/// Raise → park this KLT captive → spare KLT runs the scheduler → captive
/// resume → sigreturn.
fn klt_switch_rt() -> f64 {
    let rt = raise_driven(1_000);
    let v = raise_loop(&rt, ThreadKind::KltSwitching, 5_000);
    rt.shutdown();
    v
}

fn timer_arm() -> f64 {
    // An hour-long interval: armed for real, never fires.
    const HOUR_NS: u64 = 3_600_000_000_000;
    let timer = ult_sys::IntervalTimer::per_thread(
        ult_sys::gettid(),
        ult_sys::signal::preempt_signum(),
        HOUR_NS,
        0,
    )
    .expect("create a probe timer");
    med(|| per_op(50_000, || timer.arm(HOUR_NS, 0).expect("timer_settime")))
}

fn futex_wake() -> f64 {
    let word = AtomicU32::new(0);
    med(|| {
        per_op(100_000, || {
            ult_sys::futex::futex_wake(&word, 1);
        })
    })
}

/// External spawn onto a worker parked in its reactor shard's `epoll_wait`:
/// spawn call → first instruction of the ULT.
fn reactor_wake() -> f64 {
    let rt = Runtime::start(Config {
        num_workers: 1,
        ..Config::default()
    });
    rt.spawn(ult_io::init).join();
    let mut ns: Vec<f64> = (0..400)
        .map(|_| {
            std::thread::sleep(Duration::from_micros(200)); // let the worker park
            let t0 = ult_sys::now_ns();
            (rt.spawn(ult_sys::now_ns).join().saturating_sub(t0)) as f64
        })
        .collect();
    rt.shutdown();
    ns.sort_by(f64::total_cmp);
    ns[ns.len() / 2]
}

fn sleep_overshoot_us() -> f64 {
    let rt = Runtime::start(Config {
        num_workers: 1,
        ..Config::default()
    });
    let v = rt
        .spawn(|| {
            let over: Vec<f64> = (0..40)
                .map(|_| {
                    let t0 = ult_sys::now_ns();
                    ult_io::sleep(Duration::from_millis(1));
                    (ult_sys::now_ns() - t0).saturating_sub(1_000_000) as f64 / 1e3
                })
                .collect();
            median(&over)
        })
        .join();
    rt.shutdown();
    v
}

fn task_spawn_join() -> f64 {
    let rt = quiet();
    let v = med(|| {
        rt.spawn(|| {
            ult_future::block_on(async {
                let t0 = ult_sys::now_ns();
                for _ in 0..100 {
                    let hs: Vec<_> = (0..64).map(|_| ult_future::spawn(async {})).collect();
                    for h in hs {
                        h.await;
                    }
                }
                (ult_sys::now_ns() - t0) as f64 / 6400.0
            })
        })
        .join()
    });
    rt.shutdown();
    v
}

/// Where the hop's two ends meet: the parked task's waker and the time
/// `wake` was called.
#[derive(Default)]
struct HopSlot {
    waker: Mutex<Option<Waker>>,
    woken_at: AtomicU64, // ordering: relaxed; the wake → re-poll path orders it
    done: AtomicBool,    // ordering: relaxed stop flag
}

/// Pending once, then ready with the ns from `wake` to this re-poll.
struct Hop<'a> {
    slot: &'a HopSlot,
    parked: bool,
}

impl Future for Hop<'_> {
    type Output = u64;
    fn poll(mut self: Pin<&mut Self>, cx: &mut TaskContext<'_>) -> Poll<u64> {
        if self.parked {
            return Poll::Ready(ult_sys::now_ns() - self.slot.woken_at.load(Ordering::Relaxed));
        }
        self.parked = true;
        *self.slot.waker.lock().expect("no panics hold this lock") = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// `Waker::wake` on a parked task → the task polling again, with a second
/// ULT doing the waking on the same worker.
fn waker_hop() -> f64 {
    let rt = quiet();
    let slot = Arc::new(HopSlot::default());
    let s2 = slot.clone();
    let waker = rt.spawn(move || {
        while !s2.done.load(Ordering::Relaxed) {
            if let Some(w) = s2.waker.lock().expect("no panics hold this lock").take() {
                s2.woken_at.store(ult_sys::now_ns(), Ordering::Relaxed);
                w.wake();
            }
            ult_core::yield_now();
        }
    });
    let v = rt
        .spawn(move || {
            let hops: Vec<f64> = ult_future::block_on(async {
                let mut v = Vec::with_capacity(20_000);
                for _ in 0..20_000 {
                    v.push(
                        Hop {
                            slot: &slot,
                            parked: false,
                        }
                        .await as f64,
                    );
                }
                v
            });
            slot.done.store(true, Ordering::Relaxed);
            median(&hops)
        })
        .join();
    waker.join();
    rt.shutdown();
    v
}

fn blocking_rt() -> f64 {
    let rt = quiet();
    let v = med(|| {
        rt.spawn(|| {
            ult_future::block_on(async {
                let t0 = ult_sys::now_ns();
                for _ in 0..1_000 {
                    ult_future::spawn_blocking(|| {}).await;
                }
                (ult_sys::now_ns() - t0) as f64 / 1_000.0
            })
        })
        .join()
    });
    rt.shutdown();
    v
}

fn uncontended<L: crate::workloads::sync::Lock>() -> f64 {
    let rt = quiet();
    let v = med(|| {
        rt.spawn(|| {
            let lock = L::new();
            per_op(200_000, || *lock.lock() += 1)
        })
        .join()
    });
    rt.shutdown();
    v
}

/// Run the probes that belong to `workload` (see the README's ladder).
pub fn run(workload: &str) -> Values {
    let mut v = Values::default();
    let mut probe = |name: &str, f: fn() -> f64| v.set(name, f());
    match workload {
        "forkjoin" => {
            probe("arch.context.switch_ns", context_switch);
            probe("arch.stack.alloc_ns", stack_alloc);
            probe("core.pool.push_pop_ns", pool_push_pop);
            probe("core.pool.steal_ns", pool_steal);
            probe("core.yield_ns", coop_yield);
            probe("core.thread.spawn_join_ns", spawn_join);
        }
        "compute_sy" => {
            probe("core.preempt.signal_yield_rt_ns", signal_yield_rt);
            probe("core.preempt.useless_tick_ns", useless_tick);
            probe("sys.timer.arm_ns", timer_arm);
        }
        "compute_ks" => {
            probe("core.klt.switch_rt_ns", klt_switch_rt);
            probe("sys.futex.wake_ns", futex_wake);
        }
        "echo_idle" => {
            probe("io.reactor.wake_ns", reactor_wake);
            probe("io.time.sleep_overshoot_us", sleep_overshoot_us);
            probe("future.task.spawn_join_ns", task_spawn_join);
            probe("future.task.waker_hop_ns", waker_hop);
            probe("future.blocking.rt_ns", blocking_rt);
        }
        "sync_mutex" | "sync_mcs" | "sync_chan" => {
            probe(
                "sync.mutex.uncontended_ns",
                uncontended::<ult_sync::Mutex<u64>>,
            );
            probe(
                "sync.mcs.uncontended_ns",
                uncontended::<ult_sync::McsMutex<u64>>,
            );
            if workload == "sync_chan" {
                probe("core.yield_ns", coop_yield);
            }
        }
        _ => {}
    }
    v
}
