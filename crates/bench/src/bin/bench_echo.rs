//! Echo-server tail-latency benchmark: the network-facing payoff of
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
//! Emits `results/BENCH_io.json` with request-latency percentiles
//! (microseconds) for both modes plus `p99_off_over_on` — the headline
//! ratio, which the io acceptance gate wants ≥ 5.
//!
//! Usage:
//!   bench_echo [--quick] [--out PATH] [--check BASELINE.json]
//!   bench_echo --tput [--quick] [--out PATH] [--check BASELINE.json]
//!
//! `--check` applies the standard 2× perf-smoke tripwire to the *on-mode*
//! latency metrics only: off-mode numbers are set by the spin-chunk length
//! (a constant of the experiment, not of the runtime) and the ratio gets
//! its own ≥ 5 floor rather than the regression check.
//!
//! `--tput` runs the multi-worker throughput sweep instead: 1/2/4 workers
//! × connection counts, no compute spinners — this stresses the reactor
//! dispatch path itself (interest registration, readiness delivery, wake
//! routing). Emits `results/BENCH_echo.json`; the checked metrics are
//! microseconds-per-request (lower is better) so the same 2× tripwire
//! applies, with requests/sec and the w4/w1 scaling ratio as unchecked
//! context.

use repro_bench::measure::{report_metrics, Metric};
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

/// Request/response payload for the throughput sweep (big enough that the
/// data path matters, small enough to stay within one TCP segment).
const TPUT_MSG: usize = 512;

/// One throughput run: `workers` runtime workers serving `n_conns`
/// concurrent echo connections, `reqs_per_conn` ping-pongs each. No
/// compute spinners — the measured quantity is how fast the reactor can
/// register interest, deliver readiness, and wake handlers. Returns
/// requests per second over the measured window.
fn run_tput(workers: usize, n_conns: usize, reqs_per_conn: usize) -> f64 {
    let rt = Runtime::start(Config {
        num_workers: workers,
        preempt_interval_ns: 1_000_000,
        timer_strategy: TimerStrategy::PerWorkerAligned,
        ..Config::default()
    });

    let ln = rt
        .spawn(|| ult_io::TcpListener::bind("127.0.0.1:0").unwrap())
        .join();
    let addr = ln.local_addr().unwrap();
    // The acceptor only collects the streams; handlers are homed round-robin
    // across the workers afterwards (as a real server shards connections),
    // so under the sharded reactor each connection's fd settles on its
    // handler's own epoll instance and readiness is delivered locally.
    let acceptor = rt.spawn(move || {
        (0..n_conns)
            .map(|_| ln.accept().unwrap().0)
            .collect::<Vec<_>>()
    });

    // All clients connect before the measured window opens, so accept and
    // connection setup costs are excluded from the throughput figure.
    let barrier = Arc::new(std::sync::Barrier::new(n_conns + 1));
    let clients: Vec<_> = (0..n_conns)
        .map(|_| {
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                let mut s = std::net::TcpStream::connect(addr).expect("connect");
                s.set_nodelay(true).ok();
                let msg = [0x5au8; TPUT_MSG];
                let mut back = [0u8; TPUT_MSG];
                barrier.wait();
                for _ in 0..reqs_per_conn {
                    s.write_all(&msg).expect("request");
                    s.read_exact(&mut back).expect("response");
                }
            })
        })
        .collect();

    let handlers: Vec<_> = acceptor
        .join()
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            s.set_nodelay(true).ok();
            rt.spawn_on(
                i % workers,
                ThreadKind::Nonpreemptive,
                Priority::High,
                move || {
                    let mut buf = [0u8; TPUT_MSG];
                    loop {
                        let mut got = 0;
                        while got < TPUT_MSG {
                            match s.read(&mut buf[got..]) {
                                Ok(0) | Err(_) => return,
                                Ok(n) => got += n,
                            }
                        }
                        if s.write_all(&buf).is_err() {
                            return;
                        }
                    }
                },
            )
        })
        .collect();

    barrier.wait();
    let t0 = Instant::now();
    for c in clients {
        c.join().expect("client thread");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    for h in handlers {
        h.join();
    }
    rt.shutdown();
    (n_conns * reqs_per_conn) as f64 / elapsed.max(1e-9)
}

/// The full sweep: best-of-`iters` rps per (workers, conns) config.
fn tput_main(quick: bool, out_path: &str, baseline_path: Option<String>) {
    let (conn_counts, reqs, iters): (&[usize], usize, usize) = if quick {
        (&[2, 4], 500, 2)
    } else {
        (&[2, 8], 2000, 3)
    };
    let worker_counts = [1usize, 2, 4];

    let mut metrics = Vec::new();
    let mut rps_at_max_conns = [0f64; 3];
    for (wi, &w) in worker_counts.iter().enumerate() {
        for &c in conn_counts {
            let mut best = 0f64;
            for _ in 0..iters {
                best = best.max(run_tput(w, c, reqs));
            }
            eprintln!("bench_echo tput: {w} workers x {c} conns: {best:.0} req/s");
            // Checked metric is us-per-request so lower-is-better matches
            // the shared 2x tripwire semantics.
            metrics.push(Metric {
                name: Box::leak(format!("echo_tput_w{w}_c{c}_us").into_boxed_str()),
                value: 1e6 / best.max(1e-9),
                checked: true,
            });
            if c == *conn_counts.last().unwrap() {
                rps_at_max_conns[wi] = best;
                metrics.push(Metric {
                    name: Box::leak(format!("echo_tput_w{w}_c{c}_rps").into_boxed_str()),
                    value: best,
                    checked: false,
                });
            }
        }
    }
    metrics.push(Metric {
        name: "tput_w4_over_w1",
        value: rps_at_max_conns[2] / rps_at_max_conns[0].max(1e-9),
        checked: false,
    });

    report_metrics(&metrics, out_path, baseline_path.as_deref());
}

/// Percentile over a sorted slice (nearest-rank).
fn pct(sorted: &[u64], p: f64) -> u64 {
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let get_opt = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let tput = args.iter().any(|a| a == "--tput");
    let out_path = get_opt("--out").unwrap_or_else(|| {
        if tput {
            "results/BENCH_echo.json".into()
        } else {
            "results/BENCH_io.json".into()
        }
    });
    let baseline_path = get_opt("--check");

    if tput {
        tput_main(quick, &out_path, baseline_path);
        return;
    }

    let (n_clients, reqs) = if quick { (2, 40) } else { (4, 150) };

    eprintln!("bench_echo: preemption ON ({n_clients} clients x {reqs} reqs)");
    let mut on = run_echo(true, n_clients, reqs);
    eprintln!("bench_echo: preemption OFF ({n_clients} clients x {reqs} reqs)");
    let mut off = run_echo(false, n_clients, reqs);
    on.sort_unstable();
    off.sort_unstable();

    let us = |ns: u64| ns as f64 / 1_000.0;
    let p99_on = us(pct(&on, 0.99));
    let p99_off = us(pct(&off, 0.99));
    let metrics = [
        Metric {
            name: "echo_p50_on_us",
            value: us(pct(&on, 0.50)),
            checked: true,
        },
        Metric {
            name: "echo_p99_on_us",
            value: p99_on,
            checked: true,
        },
        Metric {
            name: "echo_p999_on_us",
            value: us(pct(&on, 0.999)),
            checked: true,
        },
        Metric {
            name: "echo_p50_off_us",
            value: us(pct(&off, 0.50)),
            checked: false,
        },
        Metric {
            name: "echo_p99_off_us",
            value: p99_off,
            checked: false,
        },
        Metric {
            name: "echo_p999_off_us",
            value: us(pct(&off, 0.999)),
            checked: false,
        },
        Metric {
            name: "p99_off_over_on",
            value: p99_off / p99_on.max(0.001),
            checked: false,
        },
    ];

    report_metrics(&metrics, &out_path, baseline_path.as_deref());

    let ratio = p99_off / p99_on.max(0.001);
    if ratio < 5.0 {
        eprintln!(
            "bench_echo: FAIL p99 ratio {ratio:.1}x < 5x (on {p99_on:.0} us, off {p99_off:.0} us)"
        );
        std::process::exit(1);
    }
    eprintln!("bench_echo: p99 on {p99_on:.0} us vs off {p99_off:.0} us ({ratio:.1}x)");
}
