//! Async front-end benchmark: task spawn/join overhead vs raw ULTs, and
//! offload-pool saturation latency.
//!
//! Two questions, both about the `ult-future` layer staying thin:
//!
//! * **Task tax** — `ult_future::spawn(async {}).await` rides one ULT per
//!   task, so its cost should be the raw ULT spawn+join cost plus a small
//!   constant (task allocation, one poll, waker bookkeeping). The bench
//!   emits both sides so the ratio is visible in the JSON.
//! * **Offload isolation** — a storm of `spawn_blocking` sleepers several
//!   times the pool cap must not delay a `Latency`-class async ping: the
//!   offload pool runs plain KLTs off-runtime, so worker dispatch never
//!   waits on it. The bench keeps the pool saturated (2× cap in flight)
//!   and measures the spawn→first-poll latency of ping tasks, p99.
//!
//! Emits `BENCH_async.json`, consumed by `run_all.sh`'s perf-smoke step
//! against the committed baseline (2× tripwire, 1.25× soft warn).
//!
//! Usage:
//!   bench_async [--quick] [--out PATH] [--check BASELINE.json]

use repro_bench::measure::{report_metrics, Metric};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use ult_core::{Config, Priority, Runtime, SchedClass, SpawnAttrs, ThreadKind, TimerStrategy};

fn quiet_config(workers: usize) -> Config {
    Config {
        num_workers: workers,
        preempt_interval_ns: 0, // no timers: measure the executor's own cost
        timer_strategy: TimerStrategy::PerWorkerAligned,
        ..Config::default()
    }
}

/// Raw ULT spawn+join in waves of `BATCH`, forked from inside a ULT — the
/// bench_spawn shape, repeated here so the async/raw ratio comes from the
/// same process and the same moment.
fn bench_ult_spawn_join(n: usize, reps: usize) -> f64 {
    const BATCH: usize = 64;
    let rt = Runtime::start(quiet_config(1));
    let waves = (n / BATCH).max(1);
    let total = (waves * BATCH) as f64;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let h = rt.spawn(move || {
            let t0 = Instant::now();
            for _ in 0..waves {
                let hs: Vec<_> = (0..BATCH)
                    .map(|_| ult_core::api::spawn(ThreadKind::Nonpreemptive, Priority::High, || {}))
                    .collect();
                for h in hs {
                    h.join();
                }
            }
            t0.elapsed().as_secs_f64()
        });
        best = best.min(h.join() * 1e9 / total);
    }
    rt.shutdown();
    best
}

/// Async task spawn+await in the same wave shape, driven by `block_on` on
/// a ULT. Each task is trivial (single poll to completion), so the delta
/// over the raw number is the per-task executor overhead.
fn bench_async_spawn_join(n: usize, reps: usize) -> f64 {
    const BATCH: usize = 64;
    let rt = Runtime::start(quiet_config(1));
    let waves = (n / BATCH).max(1);
    let total = (waves * BATCH) as f64;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let h = rt.spawn(move || {
            ult_future::block_on(async move {
                let t0 = Instant::now();
                for _ in 0..waves {
                    let hs: Vec<_> = (0..BATCH).map(|_| ult_future::spawn(async {})).collect();
                    for h in hs {
                        h.await;
                    }
                }
                t0.elapsed().as_secs_f64()
            })
        });
        best = best.min(h.join() * 1e9 / total);
    }
    rt.shutdown();
    best
}

/// Round-trip cost of a trivial `spawn_blocking` job, awaited in batches
/// of `LANES` so the measurement amortizes submission over the pool's
/// steady state rather than serializing on one KLT wake per job.
fn bench_spawn_blocking(n: usize, reps: usize) -> f64 {
    const LANES: usize = 16;
    let rt = Runtime::start(quiet_config(1));
    let rounds = (n / LANES).max(1);
    let total = (rounds * LANES) as f64;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let h = rt.spawn(move || {
            ult_future::block_on(async move {
                let t0 = Instant::now();
                for _ in 0..rounds {
                    let hs: Vec<_> = (0..LANES)
                        .map(|_| ult_future::spawn_blocking(|| {}))
                        .collect();
                    for h in hs {
                        h.await;
                    }
                }
                t0.elapsed().as_secs_f64()
            })
        });
        best = best.min(h.join() * 1e9 / total);
    }
    rt.shutdown();
    best
}

/// Offload saturation: keep 2× the pool cap of sleeping `spawn_blocking`
/// jobs in flight while measuring the spawn→first-poll latency of
/// `Latency`-class async pings. Returns sorted latencies in ns.
fn bench_offload_ping(pings: usize) -> Vec<u64> {
    let rt = Runtime::start(Config {
        num_workers: 1,
        // A real (1 ms) tick: the ping rides the normal dispatch path.
        preempt_interval_ns: 1_000_000,
        timer_strategy: TimerStrategy::PerWorkerAligned,
        max_blocking_threads: 8,
        ..Config::default()
    });
    let stop = Arc::new(AtomicBool::new(false));

    // The storm: a feeder task that holds 16 sleepers (2× the 8-KLT cap)
    // in flight at all times, so half the jobs are always queued behind a
    // full pool.
    let s2 = stop.clone();
    let storm = rt.spawn(move || {
        ult_future::block_on(async move {
            let mut inflight: Vec<_> = (0..16)
                .map(|_| {
                    ult_future::spawn_blocking(|| std::thread::sleep(Duration::from_millis(2)))
                })
                .collect();
            while !s2.load(Ordering::Relaxed) {
                let done = inflight.remove(0);
                done.await;
                inflight.push(ult_future::spawn_blocking(|| {
                    std::thread::sleep(Duration::from_millis(2))
                }));
            }
            for h in inflight {
                h.await;
            }
        });
    });

    // The pings: each measures spawn→first-poll of a Latency-class task.
    let pinger = rt.spawn(move || {
        ult_future::block_on(async move {
            let mut samples = Vec::with_capacity(pings);
            for _ in 0..pings {
                let t0 = Instant::now();
                let lat = ult_future::spawn_attrs(
                    SpawnAttrs::new().class(SchedClass::Latency),
                    async move { t0.elapsed().as_nanos() as u64 },
                )
                .await;
                samples.push(lat);
                // Let the storm's feeder make progress between samples.
                ult_core::yield_now();
            }
            samples
        })
    });

    let mut samples = pinger.join();
    stop.store(true, Ordering::Relaxed);
    storm.join();
    rt.shutdown();
    samples.sort_unstable();
    samples
}

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
    let out_path = get_opt("--out").unwrap_or_else(|| "results/BENCH_async.json".into());
    let baseline_path = get_opt("--check");

    let (n_tasks, n_blocking, n_pings, reps) = if quick {
        (2_000, 500, 100, 2)
    } else {
        (10_000, 2_000, 400, 3)
    };

    let ult_spawn_join_ns = bench_ult_spawn_join(n_tasks, reps);
    let async_spawn_join_ns = bench_async_spawn_join(n_tasks, reps);
    let spawn_blocking_ns = bench_spawn_blocking(n_blocking, reps);
    let ping = bench_offload_ping(n_pings);
    let offload_ping_p99_us = pct(&ping, 0.99) as f64 / 1e3;

    let metrics = [
        Metric {
            name: "ult_spawn_join_ns",
            value: ult_spawn_join_ns,
            checked: true,
        },
        Metric {
            name: "async_spawn_join_ns",
            value: async_spawn_join_ns,
            checked: true,
        },
        Metric {
            name: "spawn_blocking_ns",
            value: spawn_blocking_ns,
            checked: true,
        },
        Metric {
            name: "offload_ping_p99_us",
            value: offload_ping_p99_us,
            checked: true,
        },
    ];

    report_metrics(&metrics, &out_path, baseline_path.as_deref());
    eprintln!(
        "task tax: async/raw spawn+join = {:.2}x",
        async_spawn_join_ns / ult_spawn_join_ns.max(0.1)
    );
}
