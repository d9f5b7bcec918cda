//! Cross-crate I/O integration: `ult-io` sockets and timers through the
//! full preemptive runtime. The claims under test are the reactor's two
//! acceptance properties — a ULT blocked on I/O never holds a KLT, and a
//! CPU-hogging ULT cannot starve the request path past a bounded number of
//! preemption ticks.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use ult_core::{
    Config, Priority, Runtime, SchedClass, SchedPolicy, SpawnAttrs, ThreadKind, TimerStrategy,
};

/// Pin one reactor shard per possible worker rank before any I/O runs.
/// The default shard count is the CPU count, which on a small CI box
/// collapses the ranks onto shared shards — correct, but it erases the
/// cross-shard behavior (rebinds, per-shard parks) these tests assert.
/// First call wins process-wide, so every test starts with it.
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

/// A spinner that never yields shares the single worker with an echo
/// handler. Preemption (1 ms tick) must bound request latency: the
/// readiness is delivered by the scheduler's opportunistic poll at the
/// next tick boundary, so one round trip must complete within a small
/// multiple of the tick — far under the forever it takes cooperatively.
#[test]
fn spinner_does_not_starve_echo_request() {
    pin_per_worker_shards();
    const TICK_US: u64 = 1_000;
    // Generous CI bound: 100 ticks. The point is the order of magnitude —
    // without preemption the spinner never lets the request run at all.
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
        .spawn(|| ult_io::TcpListener::bind("127.0.0.1:0").unwrap())
        .join();
    let addr = ln.local_addr().unwrap();
    let server = rt.spawn(move || {
        let (s, _) = ln.accept().unwrap();
        s.set_nodelay(true).ok();
        let mut buf = [0u8; 16];
        loop {
            match s.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => s.write_all(&buf[..n]).unwrap(),
            }
        }
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
        "request starved past {BOUND_TICKS} ticks: worst {worst_ns} ns"
    );
}

/// `io::sleep` accuracy against CLOCK_MONOTONIC (`ult_sys::now_ns`): never
/// early, and late by at most the wheel granularity (~1 ms) plus reactor
/// service latency — single-digit milliseconds on an otherwise idle
/// runtime, a generous 35 ms bound here for CI noise.
#[test]
fn sleep_tracks_monotonic_clock() {
    pin_per_worker_shards();
    let rt = Runtime::start(preemptive(2, 1_000));
    let mut handles = Vec::new();
    for &ms in &[5u64, 25, 60] {
        handles.push(rt.spawn(move || {
            let t0 = ult_sys::now_ns();
            ult_io::sleep(Duration::from_millis(ms));
            let elapsed = ult_sys::now_ns() - t0;
            assert!(
                elapsed >= ms * 1_000_000,
                "sleep({ms} ms) returned early: {elapsed} ns"
            );
            assert!(
                elapsed < ms * 1_000_000 + 35_000_000,
                "sleep({ms} ms) overshot: {elapsed} ns"
            );
        }));
    }
    for h in handles {
        h.join();
    }
    rt.shutdown();
}

/// The no-KLT-held property through the stack: with a single worker, N
/// ULTs all blocked in `read` must leave the worker free to run compute.
/// If any blocked reader held the KLT, the counter ULT could never run.
#[test]
fn blocked_readers_release_the_worker() {
    pin_per_worker_shards();
    let rt = Runtime::start(preemptive(1, 1_000));
    let ln = rt
        .spawn(|| ult_io::TcpListener::bind("127.0.0.1:0").unwrap())
        .join();
    let addr = ln.local_addr().unwrap();

    // Server side: accept 4 connections, each handler blocks in read.
    let server = rt.spawn(move || {
        let mut handlers = Vec::new();
        for _ in 0..4 {
            let (s, _) = ln.accept().unwrap();
            handlers.push(ult_core::api::spawn(
                ThreadKind::Nonpreemptive,
                Priority::High,
                move || {
                    let mut buf = [0u8; 4];
                    s.read_exact(&mut buf).unwrap();
                    buf
                },
            ));
        }
        handlers.into_iter().map(|h| h.join()).collect::<Vec<_>>()
    });

    let clients: Vec<_> = (0..4)
        .map(|_| std::net::TcpStream::connect(addr).expect("connect"))
        .collect();

    // All four handlers are now parked in read. The single worker must
    // still dispatch fresh compute work promptly.
    let t0 = ult_sys::now_ns();
    let sum = rt.spawn(|| (0..1000u64).sum::<u64>()).join();
    assert_eq!(sum, 499_500);
    assert!(
        ult_sys::now_ns() - t0 < 1_000_000_000,
        "compute ULT starved while readers blocked"
    );

    for mut c in clients {
        c.write_all(b"done").unwrap();
    }
    let results = server.join();
    assert_eq!(results.len(), 4);
    for r in results {
        assert_eq!(&r, b"done");
    }
    rt.shutdown();
}

/// The same no-KLT-held property, sharded: on a 4-worker runtime the four
/// handlers are homed on four different workers, so each blocked read sits
/// in a different shard's epoll instance. Compute spawned onto every
/// worker must still run promptly, and the reactor counters must show
/// shard activity (parks/polls) rather than everything funneling through
/// one poller.
#[test]
fn blocked_readers_across_shards_release_all_workers() {
    pin_per_worker_shards();
    let rt = Runtime::start(preemptive(4, 1_000));
    let ln = rt
        .spawn(|| ult_io::TcpListener::bind("127.0.0.1:0").unwrap())
        .join();
    let addr = ln.local_addr().unwrap();

    // Accept 4 connections, then home handler k on worker k so its first
    // read rebinds the fd onto worker k's shard.
    let server = rt.spawn(move || (0..4).map(|_| ln.accept().unwrap().0).collect::<Vec<_>>());
    let clients: Vec<_> = (0..4)
        .map(|_| std::net::TcpStream::connect(addr).expect("connect"))
        .collect();
    let handlers: Vec<_> = server
        .join()
        .into_iter()
        .enumerate()
        .map(|(k, s)| {
            rt.spawn_on(k, ThreadKind::Nonpreemptive, Priority::High, move || {
                let mut buf = [0u8; 4];
                s.read_exact(&mut buf).unwrap();
                buf
            })
        })
        .collect();

    // All four handlers park across four shards. Every worker must still
    // dispatch fresh compute promptly.
    let t0 = ult_sys::now_ns();
    let computes: Vec<_> = (0..4)
        .map(|k| {
            rt.spawn_on(k, ThreadKind::Nonpreemptive, Priority::High, || {
                (0..1000u64).sum::<u64>()
            })
        })
        .collect();
    for c in computes {
        assert_eq!(c.join(), 499_500);
    }
    assert!(
        ult_sys::now_ns() - t0 < 1_000_000_000,
        "compute starved while readers blocked across shards"
    );

    for mut c in clients {
        c.write_all(b"done").unwrap();
    }
    for h in handlers {
        assert_eq!(&h.join(), b"done");
    }
    let st = rt.stats();
    rt.shutdown();
    assert!(st.io_polls > 0, "no shard was ever serviced: {st:?}");
    assert!(
        st.io_parks > 0,
        "no worker ever parked in its shard: {st:?}"
    );
}

/// Batched accept: N clients connect before the server ever accepts, so
/// the kernel completes every handshake into the listener backlog, and the
/// `accept_batch` drain must surface all of them — no lost accepts, and
/// strictly fewer readiness drains than connections (the batching win).
/// Handlers echo through pooled [`ult_io::IoBuf`] buffers, so the
/// buffer-pool counters must light up too.
#[test]
fn batched_accept_drains_backlog() {
    pin_per_worker_shards();
    const N: usize = 8;
    let rt = Runtime::start(preemptive(2, 1_000));
    let ln = rt
        .spawn(|| ult_io::TcpListener::bind("127.0.0.1:0").unwrap())
        .join();
    let addr = ln.local_addr().unwrap();

    // Connect everyone first: the backlog holds all N completed handshakes.
    let mut clients: Vec<_> = (0..N)
        .map(|_| std::net::TcpStream::connect(addr).expect("connect"))
        .collect();

    let server = rt.spawn(move || {
        let mut conns = Vec::new();
        while conns.len() < N {
            conns.extend(ln.accept_batch(64).unwrap());
        }
        let handlers: Vec<_> = conns
            .into_iter()
            .map(|(s, _)| {
                ult_core::api::spawn(ThreadKind::Nonpreemptive, Priority::High, move || {
                    let mut buf = ult_io::IoBuf::acquire();
                    let n = s.read(&mut buf).unwrap();
                    s.write_all(&buf[..n]).unwrap();
                })
            })
            .collect();
        for h in handlers {
            h.join();
        }
    });

    for c in clients.iter_mut() {
        c.write_all(b"ping").unwrap();
        let mut back = [0u8; 4];
        c.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"ping");
    }
    server.join();
    let st = rt.stats();
    rt.shutdown();
    assert!(
        st.io_accepted >= N as u64,
        "batched accept lost connections: {st:?}"
    );
    assert!(
        st.io_batched_accepts < st.io_accepted,
        "accepts never batched (one drain per connection): {st:?}"
    );
    assert!(
        st.io_bufpool_hits + st.io_bufpool_misses >= N as u64,
        "handlers did not draw from the buffer pool: {st:?}"
    );
}

/// fd-to-shard affinity and the cross-shard wake path, driven
/// deterministically with thread packing: a stream accepted on one worker
/// is read by a ULT homed on the other (first read rebinds the fd to the
/// reader's shard); packing then suspends the reader's worker, which must
/// keep servicing its shard while suspended — the readiness it delivers is
/// routed to the active worker, a counted cross-shard wake.
#[test]
fn affinity_rebind_and_cross_shard_wake() {
    pin_per_worker_shards();
    let mut cfg = preemptive(2, 1_000);
    cfg.sched_policy = SchedPolicy::Packing;
    let rt = Runtime::start(cfg);
    let ln = rt
        .spawn_on(0, ThreadKind::Nonpreemptive, Priority::High, || {
            ult_io::TcpListener::bind("127.0.0.1:0").unwrap()
        })
        .join();
    let addr = ln.local_addr().unwrap();
    let mut client = std::net::TcpStream::connect(addr).expect("connect");

    // Accept on worker 0: the stream's fd registers with shard 0.
    let (stream, r_accept) = rt
        .spawn_on(0, ThreadKind::Nonpreemptive, Priority::High, move || {
            let (s, _) = ln.accept().unwrap();
            (s, ult_core::current_worker_rank().unwrap())
        })
        .join();

    // Read twice on worker 1, echoing after each read so the client can
    // sequence the packing transitions between the two waits.
    let reader = rt.spawn_on(1, ThreadKind::Nonpreemptive, Priority::High, move || {
        let r_block = ult_core::current_worker_rank().unwrap();
        let mut buf = [0u8; 4];
        stream.read_exact(&mut buf).unwrap();
        let r_resume = ult_core::current_worker_rank().unwrap();
        stream.write_all(&buf).unwrap();
        stream.read_exact(&mut buf).unwrap();
        stream.write_all(&buf).unwrap();
        (r_block, r_resume)
    });

    // Let the reader block in its first read, then suspend its worker.
    std::thread::sleep(Duration::from_millis(100));
    rt.set_active_workers(1);
    std::thread::sleep(Duration::from_millis(50));

    // First wake: delivered by the suspended worker's shard, consumed by
    // the active worker.
    client.write_all(b"one!").unwrap();
    let mut back = [0u8; 4];
    client.read_exact(&mut back).unwrap();
    assert_eq!(&back, b"one!");

    rt.set_active_workers(2);
    client.write_all(b"two!").unwrap();
    client.read_exact(&mut back).unwrap();
    assert_eq!(&back, b"two!");

    let (r_block, r_resume) = reader.join();
    let st = rt.stats();
    rt.shutdown();

    // The scheduler may (rarely) have stolen the pinned ULTs onto other
    // workers; the counters are asserted only for the scheduling the test
    // actually got, so it never flakes on a steal.
    if r_accept != r_block {
        assert!(
            st.io_fd_rebinds >= 1,
            "fd moved workers ({r_accept}→{r_block}) without a rebind: {st:?}"
        );
    }
    if r_block == 1 && r_resume == 0 {
        assert!(
            st.io_cross_shard_wakes >= 1,
            "suspended shard 1 woke a ULT onto worker 0 uncounted: {st:?}"
        );
    }
    assert!(
        r_resume < 1 || st.io_parks > 0,
        "reader never parked in a shard: {st:?}"
    );
}

/// One busy worker: two `Throughput` spinners of a preemptive kind and a
/// `Latency` echo handler behind `server`. Spinners and handler end when the returned
/// flag is set and the client side closes.
struct BusyEcho {
    rt: Runtime,
    stop: Arc<AtomicBool>,
    spinners: Vec<ult_core::JoinHandle<()>>,
    client: std::net::TcpStream,
}

impl BusyEcho {
    fn start(tick_us: u64, spinner_kind: ThreadKind) -> (BusyEcho, std::net::TcpStream) {
        pin_per_worker_shards();
        let rt = Runtime::start(preemptive(1, tick_us));
        let stop = Arc::new(AtomicBool::new(false));
        let spinners = (0..2)
            .map(|_| {
                let stop = stop.clone();
                let attrs = SpawnAttrs::new()
                    .kind(spinner_kind)
                    .class(SchedClass::Throughput);
                rt.spawn_attrs(attrs, move || {
                    while !stop.load(Ordering::Relaxed) {
                        core::hint::spin_loop();
                    }
                })
            })
            .collect();
        let ln = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = std::net::TcpStream::connect(ln.local_addr().unwrap()).unwrap();
        let (server, _) = ln.accept().unwrap();
        for s in [&client, &server] {
            s.set_nodelay(true).unwrap();
        }
        let echo = BusyEcho {
            rt,
            stop,
            spinners,
            client,
        };
        (echo, server)
    }

    /// Median round trip over `n` spaced-out 4-byte requests.
    fn p50_rtt_ns(&mut self, n: usize) -> u64 {
        let mut rtts: Vec<u64> = (0..n)
            .map(|_| {
                // Let the worker get back into a spinner's quantum.
                std::thread::sleep(Duration::from_micros(300));
                let t0 = ult_sys::now_ns();
                self.client.write_all(b"ping").unwrap();
                let mut back = [0u8; 4];
                self.client.read_exact(&mut back).unwrap();
                assert_eq!(&back, b"ping");
                ult_sys::now_ns() - t0
            })
            .collect();
        rtts.sort_unstable();
        rtts[n / 2]
    }

    /// Stop the spinners and hand back the runtime (the caller has already
    /// dealt with its handler).
    fn stop_spinners(self) -> (Runtime, std::net::TcpStream) {
        self.stop.store(true, Ordering::Relaxed);
        for s in self.spinners {
            s.join();
        }
        (self.rt, self.client)
    }
}

/// A busy worker answers an I/O request when the fd turns ready, not at its
/// next tick: with a 10 ms tick and two spinners ahead of it in the queue, a
/// handler that waited for ticks would take 25 ms (half a tick to be found,
/// two quanta behind the spinners). The watcher's kick plus the latency
/// lane must bring the median round trip under 2 ms — for a blocking
/// handler and for a task on `AsyncTcpStream`, over signal-yield spinners
/// and over KLT-switching ones (the kick is an ordinary preemption signal,
/// so it takes whichever path the occupant's kind takes).
#[test]
fn busy_worker_echo_beats_the_tick() {
    const TICK_US: u64 = 10_000;
    let latency = SpawnAttrs::new().class(SchedClass::Latency);
    let kinds = [ThreadKind::SignalYield, ThreadKind::KltSwitching];
    for (kind, async_handler) in kinds.into_iter().flat_map(|k| [(k, false), (k, true)]) {
        let (mut echo, server) = BusyEcho::start(TICK_US, kind);
        let before = echo.rt.stats();
        let handler = if async_handler {
            let task = echo
                .rt
                .spawn(move || {
                    ult_future::spawn_attrs(latency, async move {
                        let s = ult_future::AsyncTcpStream::from_std(server).unwrap();
                        let mut buf = [0u8; 4];
                        while s.read_exact(&mut buf).await.is_ok() {
                            s.write_all(&buf).await.unwrap();
                        }
                    })
                })
                .join();
            echo.rt.spawn(move || task.join())
        } else {
            echo.rt.spawn_attrs(latency, move || {
                let s = ult_io::TcpStream::from_std(server).unwrap();
                let mut buf = [0u8; 4];
                while s.read_exact(&mut buf).is_ok() {
                    s.write_all(&buf).unwrap();
                }
            })
        };
        let p50 = echo.p50_rtt_ns(200);
        let st = echo.rt.stats();
        let (rt, client) = echo.stop_spinners();
        drop(client);
        handler.join();
        rt.shutdown();
        assert!(
            p50 < 2_000_000,
            "{kind:?} async={async_handler}: median round trip {p50} ns waited for the {TICK_US} us tick: {st:?}"
        );
        // The mechanism, not luck: shards were handed to the watcher and
        // its kicks preempted the spinners.
        assert!(
            st.io_watch_arms > before.io_watch_arms && st.io_preempts >= 100,
            "{kind:?} async={async_handler}: fast without the watcher? {st:?}"
        );
    }
}

/// Shards and their watcher are process-global, runtimes are not. Ten
/// runtimes in a row leave their watch armed at shutdown (the last wait on
/// the shard timed out, so nothing ever fired it) and a connection
/// registered in the shard; traffic on it afterwards fires the dead
/// runtime's watch. The watcher must find nobody to signal — no crash, and
/// no tick on a bystander runtime that has no timer of its own.
#[test]
fn watches_outlive_their_runtimes_harmlessly() {
    pin_per_worker_shards();
    let bystander = Runtime::start(Config {
        num_workers: 1,
        preempt_interval_ns: 0,
        ..Config::default()
    });
    let mut kept = Vec::new();
    let mut skips = 0;
    for i in 0..10 {
        let (mut echo, server) = BusyEcho::start(1_000, ThreadKind::SignalYield);
        // The handler hands its stream back instead of closing it, so the
        // fd stays registered (read interest armed) in shard 0.
        let handler =
            echo.rt
                .spawn_attrs(SpawnAttrs::new().class(SchedClass::Latency), move || {
                    let s = ult_io::TcpStream::from_std(server).unwrap();
                    let mut buf = [0u8; 4];
                    for _ in 0..20 {
                        s.read_exact(&mut buf).unwrap();
                        s.write_all(&buf).unwrap();
                    }
                    s.set_read_timeout(Some(Duration::from_millis(5)));
                    let e = s.read_exact(&mut buf).unwrap_err();
                    assert_eq!(e.kind(), std::io::ErrorKind::TimedOut);
                    s
                });
        let p50 = echo.p50_rtt_ns(20);
        let stream = handler.join();
        let st = echo.rt.stats();
        assert!(
            st.io_watch_arms > 0,
            "runtime {i}: watch never armed: {st:?}"
        );
        assert!(st.io_watch_skips >= skips, "{st:?}");
        skips = st.io_watch_skips;
        assert!(p50 < 50_000_000, "runtime {i}: median round trip {p50} ns");
        let (rt, mut client) = echo.stop_spinners();
        rt.shutdown();
        // The shard is still watched on the dead runtime's behalf.
        client.write_all(b"late").unwrap();
        std::thread::sleep(Duration::from_millis(5));
        kept.push((stream, client));
    }
    let st = bystander.stats();
    bystander.shutdown();
    assert_eq!(
        st.timer_ticks, 0,
        "a kick strayed onto the bystander: {st:?}"
    );
    assert!(
        st.io_watch_skips > 0,
        "no late event ever reached the watcher: {st:?}"
    );
}
