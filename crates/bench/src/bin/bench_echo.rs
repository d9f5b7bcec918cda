//! Echo-server tail-latency ablation: the network-facing payoff of
//! preemptive ULTs (the LibPreemptible request-latency argument, grafted
//! onto this runtime's reactor).
//!
//! One worker runs long CPU-bound ULTs that spin in ~20 ms chunks between
//! cooperative yields, sharing the worker with short echo-request handler
//! ULTs blocked on `ult_io` sockets. With preemption **off**
//! (`TimerStrategy::None`) a request that becomes ready right after a
//! compute chunk starts waits out the whole chunk — the reactor is only
//! serviced at dispatch boundaries. With preemption **on** (the 1 ms
//! default tick) the compute ULT is preempted mid-chunk, the scheduler's
//! opportunistic poll delivers the readiness, and the handler runs within
//! a tick or two. Clients pause ~200 µs between requests (uncounted) so
//! each request finds its handler suspended in the reactor rather than
//! racing it in a kernel-scheduler ping-pong — see the client loop.
//!
//! Prints request-latency percentiles (microseconds) for both modes and
//! exits 1 unless off-mode p99 is at least 5× on-mode p99.
//!
//! Usage: `bench_echo [--quick]`

use repro_bench::measure::pct;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use ult_core::{Config, Priority, Runtime, ThreadKind, TimerStrategy};

/// Request/response payload size.
const MSG: usize = 16;
/// Compute chunk between cooperative yields.
const SPIN_CHUNK_MS: u64 = 20;

/// Run one echo experiment; returns all request latencies in nanoseconds.
fn run_echo(preempt: bool, n_clients: usize, reqs_per_client: usize) -> Vec<u64> {
    let rt = Runtime::start(Config {
        num_workers: 1,
        preempt_interval_ns: 1_000_000,
        timer_strategy: if preempt {
            TimerStrategy::PerWorkerAligned
        } else {
            TimerStrategy::None
        },
        ..Config::default()
    });

    // Long compute ULTs: preemptible spinners that only yield every
    // SPIN_CHUNK_MS. Two of them keep the single worker saturated even
    // while one is mid-handoff.
    let stop = Arc::new(AtomicBool::new(false));
    let mut compute = Vec::new();
    for _ in 0..2 {
        let stop = stop.clone();
        compute.push(
            rt.spawn_with(ThreadKind::SignalYield, Priority::High, move || {
                while !stop.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    while t0.elapsed().as_millis() < SPIN_CHUNK_MS as u128 {
                        core::hint::spin_loop();
                    }
                    ult_core::yield_now();
                }
            }),
        );
    }

    // Echo server: accept every client, one handler ULT per connection.
    let ln = rt
        .spawn(|| ult_io::TcpListener::bind("127.0.0.1:0").unwrap())
        .join();
    let addr = ln.local_addr().unwrap();
    let server = rt.spawn(move || {
        let mut handlers = Vec::new();
        for _ in 0..n_clients {
            let (s, _) = ln.accept().unwrap();
            s.set_nodelay(true).ok();
            handlers.push(ult_core::api::spawn(
                ThreadKind::Nonpreemptive,
                Priority::High,
                move || {
                    let mut buf = [0u8; MSG];
                    loop {
                        match s.read(&mut buf) {
                            Ok(0) | Err(_) => break,
                            Ok(n) => {
                                if s.write_all(&buf[..n]).is_err() {
                                    break;
                                }
                            }
                        }
                    }
                },
            ));
        }
        for h in handlers {
            h.join();
        }
    });

    // Clients are plain OS threads with blocking std sockets: the system
    // under test is the server runtime, not the client library.
    let clients: Vec<_> = (0..n_clients)
        .map(|_| {
            std::thread::spawn(move || {
                let mut s = std::net::TcpStream::connect(addr).expect("connect");
                s.set_nodelay(true).ok();
                let mut lat = Vec::with_capacity(reqs_per_client);
                let msg = [0x5au8; MSG];
                let mut back = [0u8; MSG];
                for _ in 0..reqs_per_client {
                    let t0 = Instant::now();
                    s.write_all(&msg).expect("request");
                    s.read_exact(&mut back).expect("response");
                    lat.push(t0.elapsed().as_nanos() as u64);
                    // Think time, uncounted. Without it, on a 1-CPU host the
                    // kernel's sync wakeup hands the CPU to this thread on
                    // every response write and the next request lands before
                    // the handler loops back to `read` — the read never hits
                    // WouldBlock, so the measured path degenerates into a
                    // kernel-scheduler ping-pong that bypasses the reactor
                    // (and the compute spinners) entirely. The pause
                    // guarantees the handler is suspended on readiness when
                    // the request arrives, which is the scenario under test.
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                lat
            })
        })
        .collect();

    let mut all = Vec::new();
    for c in clients {
        all.extend(c.join().expect("client thread"));
    }
    // Closing the client sockets EOFs the handlers; then stop compute.
    server.join();
    stop.store(true, Ordering::Relaxed);
    for c in compute {
        c.join();
    }
    rt.shutdown();
    all
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n_clients, reqs) = if quick { (2, 40) } else { (4, 150) };

    eprintln!("bench_echo: preemption ON ({n_clients} clients x {reqs} reqs)");
    let mut on = run_echo(true, n_clients, reqs);
    eprintln!("bench_echo: preemption OFF ({n_clients} clients x {reqs} reqs)");
    let mut off = run_echo(false, n_clients, reqs);
    on.sort_unstable();
    off.sort_unstable();

    let us = |ns: u64| ns as f64 / 1_000.0;
    println!("# Echo tail latency: 1 worker, 2 spinners yielding every {SPIN_CHUNK_MS} ms, {n_clients} clients x {reqs} requests");
    println!("preemption\tp50_us\tp99_us\tp999_us");
    for (mode, lat) in [("on (1 ms tick)", &on), ("off", &off)] {
        println!(
            "{mode}\t{:.0}\t{:.0}\t{:.0}",
            us(pct(lat, 0.50)),
            us(pct(lat, 0.99)),
            us(pct(lat, 0.999))
        );
    }

    let p99_on = us(pct(&on, 0.99));
    let p99_off = us(pct(&off, 0.99));
    let ratio = p99_off / p99_on.max(0.001);
    println!("p99 off/on\t{ratio:.1}x (floor 5x)");
    if ratio < 5.0 {
        eprintln!(
            "bench_echo: FAIL p99 ratio {ratio:.1}x < 5x (on {p99_on:.0} us, off {p99_off:.0} us)"
        );
        std::process::exit(1);
    }
}
