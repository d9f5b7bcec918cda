//! Cross-crate async integration: the `ult-future` executor through the
//! full preemptive runtime. The claims under test are the ISSUE's
//! acceptance properties — an async echo server keeps its latency bound
//! under compute interference (tasks are preemptible ULTs), a
//! `spawn_blocking` storm far past the pool cap never stalls a worker's
//! dispatch loop, and the waker state machine survives its edge cases
//! (wake-during-poll, concurrent cross-shard wakes, dropped handles,
//! panicking jobs).

use std::future::Future;
use std::io::{Read, Write};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};
use std::time::Duration;
use ult_core::{Config, Priority, Runtime, SchedClass, SpawnAttrs, ThreadKind, TimerStrategy};
use ult_future::{block_on, spawn_blocking, AsyncTcpListener};

/// Pin one reactor shard per possible worker rank before any I/O runs
/// (same rationale as tests/io.rs: keep cross-shard behavior visible on
/// small CI boxes).
fn pin_per_worker_shards() {
    let _ = ult_io::configure_shards(ult_io::MAX_SHARDS);
}

fn preemptive(workers: usize, interval_us: u64) -> Config {
    Config {
        num_workers: workers,
        preempt_interval_ns: interval_us * 1000,
        timer_strategy: TimerStrategy::PerWorkerAligned,
        ..Config::default()
    }
}

/// The blocking pool is process-global; tests that assert on its shape or
/// reconfigure its cap serialize on this.
static POOL_LOCK: Mutex<()> = Mutex::new(());

/// Tentpole acceptance: the PR-5 starvation bound holds for the *async*
/// echo server. A spinner that never yields shares the single worker with
/// a `block_on` async accept/echo loop; preemption (1 ms tick) must bound
/// the round trip to a small multiple of the tick.
#[test]
fn spinner_does_not_starve_async_echo() {
    pin_per_worker_shards();
    const TICK_US: u64 = 1_000;
    const BOUND_TICKS: u64 = 100;

    let rt = Runtime::start(preemptive(1, TICK_US));
    let stop = Arc::new(AtomicBool::new(false));
    let s2 = stop.clone();
    let spinner = rt.spawn_with(ThreadKind::SignalYield, Priority::High, move || {
        while !s2.load(Ordering::Relaxed) {
            core::hint::spin_loop();
        }
    });

    let ln = rt
        .spawn(|| AsyncTcpListener::bind("127.0.0.1:0").unwrap())
        .join();
    let addr = ln.local_addr().unwrap();
    let server = rt.spawn(move || {
        block_on(async {
            let (s, _) = ln.accept().await.unwrap();
            s.set_nodelay(true).ok();
            let mut buf = [0u8; 16];
            loop {
                match s.read(&mut buf).await {
                    Ok(0) | Err(_) => break,
                    Ok(n) => s.write_all(&buf[..n]).await.unwrap(),
                }
            }
        })
    });

    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    s.set_nodelay(true).ok();
    let mut worst_ns = 0u64;
    for _ in 0..20 {
        let t0 = ult_sys::now_ns();
        s.write_all(b"ping").unwrap();
        let mut back = [0u8; 4];
        s.read_exact(&mut back).unwrap();
        worst_ns = worst_ns.max(ult_sys::now_ns() - t0);
        assert_eq!(&back, b"ping");
    }
    drop(s);
    server.join();
    stop.store(true, Ordering::Relaxed);
    spinner.join();
    rt.shutdown();

    let bound_ns = BOUND_TICKS * TICK_US * 1_000;
    assert!(
        worst_ns < bound_ns,
        "async echo starved past {BOUND_TICKS} ticks: worst {worst_ns} ns"
    );
}

/// Offload acceptance: a `spawn_blocking` storm at 4x the pool cap, plus a
/// spinner, on ONE worker — and a Latency-class async ping task must still
/// meet a tick-bounded deadline every round. The storm engages the pool
/// cap (jobs queue behind `max_blocking_threads` KLTs) while the worker's
/// dispatch loop keeps scheduling the ping; a stalled dispatch loop would
/// blow the bound by orders of magnitude.
#[test]
fn blocking_storm_does_not_stall_dispatch() {
    pin_per_worker_shards();
    let _pool = POOL_LOCK.lock().unwrap();
    const TICK_US: u64 = 1_000;
    const BOUND_TICKS: u64 = 100;
    const CAP: usize = 4;

    let rt = Runtime::start(Config {
        max_blocking_threads: CAP,
        blocking_keep_alive_ms: 100,
        ..preemptive(1, TICK_US)
    });
    let stop = Arc::new(AtomicBool::new(false));
    let s2 = stop.clone();
    let spinner = rt.spawn_with(ThreadKind::SignalYield, Priority::High, move || {
        while !s2.load(Ordering::Relaxed) {
            core::hint::spin_loop();
        }
    });

    let h = rt.spawn(move || {
        block_on(async {
            // The storm: 4x cap, each job parks its pool KLT well past the
            // measurement window.
            let storm: Vec<_> = (0..CAP * 4)
                .map(|_| {
                    spawn_blocking(|| {
                        // blocking-ok: pool KLTs exist to absorb exactly this
                        std::thread::sleep(Duration::from_millis(30));
                    })
                })
                .collect();

            // The ping: a Latency-class async task round-trips through
            // spawn/wake; each lap must complete within the tick bound.
            let mut worst_ns = 0u64;
            for _ in 0..10 {
                let t0 = ult_sys::now_ns();
                let lap =
                    ult_future::spawn_attrs(SpawnAttrs::new().class(SchedClass::Latency), async {
                        7u32
                    });
                assert_eq!(lap.await, 7);
                worst_ns = worst_ns.max(ult_sys::now_ns() - t0);
            }
            for j in storm {
                j.await;
            }
            worst_ns
        })
    });
    let worst_ns = h.join();
    stop.store(true, Ordering::Relaxed);
    spinner.join();
    rt.shutdown();

    let bound_ns = BOUND_TICKS * TICK_US * 1_000;
    assert!(
        worst_ns < bound_ns,
        "async ping stalled past {BOUND_TICKS} ticks during storm: worst {worst_ns} ns"
    );
}

/// A future that wakes itself *during* its first poll and only completes
/// on the second — the executor must treat a wake-while-POLLING as "poll
/// again", not park forever.
struct WakeDuringPoll {
    polls: usize,
}

impl Future for WakeDuringPoll {
    type Output = usize;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<usize> {
        self.polls += 1;
        if self.polls == 1 {
            cx.waker().wake_by_ref(); // wake before ever returning Pending
            Poll::Pending
        } else {
            Poll::Ready(self.polls)
        }
    }
}

#[test]
fn wake_before_first_park_repolls() {
    pin_per_worker_shards();
    let rt = Runtime::start(preemptive(1, 1_000));
    let polls = rt.spawn(|| block_on(WakeDuringPoll { polls: 0 })).join();
    assert_eq!(polls, 2);
    rt.shutdown();
}

/// Hand the task's waker to two ULTs pinned to different workers (hence
/// different reactor shards) and have both wake concurrently, many rounds.
/// The claim CAS must deliver exactly one unpark per park — a lost wakeup
/// hangs the test, a double `make_ready` aborts the runtime.
struct SharedFlag {
    done: AtomicBool,
    waker: Mutex<Option<Waker>>,
}

struct FlagFuture(Arc<SharedFlag>);

impl Future for FlagFuture {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        // Register first, then re-check: a wake landing between the check
        // and the registration would otherwise be lost.
        *self.0.waker.lock().unwrap() = Some(cx.waker().clone());
        if self.0.done.load(Ordering::Acquire) {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

#[test]
fn concurrent_wakes_from_two_shards() {
    pin_per_worker_shards();
    let rt = Runtime::start(preemptive(2, 1_000));
    for _ in 0..50 {
        let flag = Arc::new(SharedFlag {
            done: AtomicBool::new(false),
            waker: Mutex::new(None),
        });
        let rendezvous = Arc::new(AtomicUsize::new(0));
        let mut wakers = Vec::new();
        for rank in 0..2 {
            let f = flag.clone();
            let r = rendezvous.clone();
            wakers.push(rt.spawn_attrs(SpawnAttrs::new().on(rank), move || {
                // Wait for the task to park at least once.
                let w = loop {
                    if let Some(w) = f.waker.lock().unwrap().clone() {
                        break w;
                    }
                    ult_core::yield_now();
                };
                f.done.store(true, Ordering::Release);
                // Line both wakers up, then fire as close together as the
                // two workers allow.
                r.fetch_add(1, Ordering::SeqCst);
                while r.load(Ordering::SeqCst) < 2 {
                    core::hint::spin_loop();
                }
                w.wake();
            }));
        }
        let task = rt.spawn(move || block_on(FlagFuture(flag)));
        task.join();
        for w in wakers {
            w.join();
        }
    }
    rt.shutdown();
}

/// Dropping a JoinHandle mid-flight detaches the task: it keeps running,
/// finishes, and its result send into the dropped receiver is a no-op.
#[test]
fn join_handle_drop_detaches() {
    pin_per_worker_shards();
    let rt = Runtime::start(preemptive(1, 1_000));
    let ran = Arc::new(AtomicBool::new(false));
    let r2 = ran.clone();
    rt.spawn(move || {
        let h = ult_future::spawn(async move {
            ult_future::sleep(Duration::from_millis(10)).await;
            r2.store(true, Ordering::Release);
        });
        drop(h); // while the task is still parked on the timer
    })
    .join();
    // The detached task must still complete.
    let deadline = ult_sys::now_ns() + 2_000_000_000;
    while !ran.load(Ordering::Acquire) {
        assert!(ult_sys::now_ns() < deadline, "detached task never finished");
        std::thread::sleep(Duration::from_millis(2));
    }
    rt.shutdown();
}

/// A panicking `spawn_blocking` job surfaces its payload through the
/// handle (for both `join` and `.await` consumers) and the pool KLT
/// survives to run the next job.
#[test]
fn spawn_blocking_panic_surfaces_in_handle() {
    pin_per_worker_shards();
    let _pool = POOL_LOCK.lock().unwrap();
    let rt = Runtime::start(preemptive(1, 1_000));
    rt.spawn(|| {
        let h = spawn_blocking(|| panic!("offloaded boom"));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.join()))
            .expect_err("panic must propagate through join");
        assert!(
            ult_future::payload_is(&err, "offloaded boom"),
            "wrong payload"
        );
        // Pool still alive and serving:
        assert_eq!(spawn_blocking(|| 6 * 7).join(), 42);
        // And the .await consumer sees the panic too:
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            block_on(async { spawn_blocking(|| panic!("offloaded boom")).await })
        }))
        .expect_err("panic must propagate through await");
        assert!(
            ult_future::payload_is(&err, "offloaded boom"),
            "wrong payload"
        );
    })
    .join();
    rt.shutdown();
}

/// The pool is elastic in both directions: a burst grows it toward the
/// cap (never past it), and the keep-alive harvests the surplus after the
/// burst drains.
#[test]
fn offload_pool_grows_and_harvests() {
    pin_per_worker_shards();
    let _pool = POOL_LOCK.lock().unwrap();
    const CAP: usize = 4;
    let rt = Runtime::start(Config {
        max_blocking_threads: CAP,
        blocking_keep_alive_ms: 50,
        ..preemptive(1, 1_000)
    });
    let peak = rt
        .spawn(|| {
            let jobs: Vec<_> = (0..CAP * 2)
                .map(|_| {
                    spawn_blocking(|| {
                        // blocking-ok: pool KLTs exist to absorb exactly this
                        std::thread::sleep(Duration::from_millis(20));
                    })
                })
                .collect();
            let mut peak = 0;
            for j in jobs {
                peak = peak.max(ult_future::blocking::pool_shape().0);
                j.join();
            }
            peak
        })
        .join();
    assert!(peak >= 2, "pool never grew under a {}-job burst", CAP * 2);
    assert!(peak <= CAP, "pool overshot the cap: {peak} > {CAP}");
    // Harvest: within ~40 keep-alive periods every idle KLT must exit.
    let deadline = ult_sys::now_ns() + 2_000_000_000;
    loop {
        let (live, _, pending) = ult_future::blocking::pool_shape();
        if live == 0 && pending == 0 {
            break;
        }
        assert!(
            ult_sys::now_ns() < deadline,
            "idle pool KLTs were never harvested: live={live}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    rt.shutdown();
}

/// `block_on` outside the runtime drives the future on the plain OS
/// thread (futex park), with wakes arriving from inside a runtime.
#[test]
fn block_on_external_thread_with_runtime_sender() {
    pin_per_worker_shards();
    assert_eq!(block_on(async { 21 * 2 }), 42); // trivial, no runtime needed
    let rt = Runtime::start(preemptive(1, 1_000));
    let (tx, rx) = ult_sync::oneshot::oneshot();
    let h = rt.spawn(move || {
        ult_io::sleep(Duration::from_millis(15));
        tx.send(99u32);
    });
    // The receiver parks this external thread; the ULT's send must unpark
    // it through the ExtWaker futex.
    assert_eq!(block_on(rx), Ok(99));
    h.join();
    rt.shutdown();
}

/// Async sleep rides the shard timer wheel: never early, and bounded late.
#[test]
fn async_sleep_tracks_clock() {
    pin_per_worker_shards();
    let rt = Runtime::start(preemptive(2, 1_000));
    rt.spawn(|| {
        block_on(async {
            for &ms in &[5u64, 25] {
                let t0 = ult_sys::now_ns();
                ult_future::sleep(Duration::from_millis(ms)).await;
                let elapsed = ult_sys::now_ns() - t0;
                assert!(elapsed >= ms * 1_000_000, "async sleep({ms}ms) early");
                assert!(
                    elapsed < ms * 1_000_000 + 35_000_000,
                    "async sleep({ms}ms) overshot: {elapsed} ns"
                );
            }
        })
    })
    .join();
    rt.shutdown();
}

/// Tasks are ULTs: a preemptible async task computing without a single
/// `.await` still cannot starve its sibling tasks on the same worker.
#[test]
fn compute_bound_async_task_is_preempted() {
    pin_per_worker_shards();
    let rt = Runtime::start(preemptive(1, 1_000));
    let done = rt
        .spawn(|| {
            block_on(async {
                let stop = Arc::new(AtomicBool::new(false));
                let s2 = stop.clone();
                // An async task that never awaits — pure compute — on the
                // same single worker, preemptible by kind.
                let hog = ult_future::spawn_attrs(
                    SpawnAttrs::new().kind(ThreadKind::SignalYield),
                    async move {
                        let mut n = 0u64;
                        while !s2.load(Ordering::Relaxed) {
                            n = n.wrapping_add(1);
                            core::hint::spin_loop();
                        }
                        n
                    },
                );
                // This sibling only runs if the hog gets preempted.
                let t0 = ult_sys::now_ns();
                ult_future::sleep(Duration::from_millis(5)).await;
                let elapsed = ult_sys::now_ns() - t0;
                stop.store(true, Ordering::Relaxed);
                assert!(hog.await > 0);
                elapsed < 100_000_000 // 100 ticks
            })
        })
        .join();
    assert!(done, "sibling starved behind a compute-bound async task");
    rt.shutdown();
}
