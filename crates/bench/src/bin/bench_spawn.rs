//! Table 1 companion: machine-readable scheduling hot-path microbenchmark.
//!
//! Emits `BENCH_spawn.json` with ns/op for the operations the paper's
//! Table 1 tracks (create/spawn, yield, join) plus the two pool primitives
//! every scheduling decision rides on (owner push+pop pair, steal). The
//! JSON is consumed by `run_all.sh`'s perf-smoke step, which compares a
//! fresh run against the committed baseline with a 2× regression tripwire.
//!
//! Usage:
//!   bench_spawn [--quick] [--out PATH] [--check BASELINE.json]
//!
//! `--check` runs the measurement, then fails (exit 1) if any metric is
//! more than 2× slower than the corresponding baseline value.

use repro_bench::measure::{report_metrics, Metric};
use std::sync::Arc;
use std::time::Instant;
use ult_core::pool::ThreadPool;
use ult_core::thread::Ult;
use ult_core::{Config, Priority, Runtime, ThreadKind, TimerStrategy};

/// Best-of-`reps` wall time for `f`, in seconds.
fn best_secs<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn quiet_config(workers: usize) -> Config {
    Config {
        num_workers: workers,
        preempt_interval_ns: 0, // no timers: measure pure scheduling cost
        timer_strategy: TimerStrategy::PerWorkerAligned,
        ..Config::default()
    }
}

/// spawn / join / spawn+join of `n` trivial ULTs, forked from inside a ULT
/// (the ambient-spawn path of nested parallelism, the paper's create cost).
///
/// Measured in waves of `BATCH`: spawn a batch, join it, repeat — the
/// fork/join steady state of the application kernels, where each wave's
/// resources are reclaimable by the next. One worker on purpose: this host
/// is a single-core VM, so extra workers only add OS time-slicing noise to
/// what should measure the runtime's own hot path.
fn bench_spawn_join(n: usize, reps: usize) -> (f64, f64, f64) {
    const BATCH: usize = 64;
    let rt = Runtime::start(quiet_config(1));
    let (mut spawn_ns, mut join_ns, mut both_ns) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let waves = (n / BATCH).max(1);
    let total = (waves * BATCH) as f64;
    for _ in 0..reps {
        let h = rt.spawn(move || {
            let mut t_spawn = 0.0f64;
            let mut t_join = 0.0f64;
            for _ in 0..waves {
                let t0 = Instant::now();
                let hs: Vec<_> = (0..BATCH)
                    .map(|_| ult_core::api::spawn(ThreadKind::Nonpreemptive, Priority::High, || {}))
                    .collect();
                t_spawn += t0.elapsed().as_secs_f64();
                let t1 = Instant::now();
                for h in hs {
                    h.join();
                }
                t_join += t1.elapsed().as_secs_f64();
            }
            (t_spawn, t_join)
        });
        let (s, j) = h.join();
        spawn_ns = spawn_ns.min(s * 1e9 / total);
        join_ns = join_ns.min(j * 1e9 / total);
        both_ns = both_ns.min((s + j) * 1e9 / total);
    }
    rt.shutdown();
    (spawn_ns, join_ns, both_ns)
}

/// Cost of one `yield_now` through the scheduler with a single runnable ULT.
fn bench_yield(n: usize, reps: usize) -> f64 {
    let rt = Runtime::start(quiet_config(1));
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let h = rt.spawn(move || {
            let t0 = Instant::now();
            for _ in 0..n {
                ult_core::yield_now();
            }
            t0.elapsed().as_secs_f64()
        });
        best = best.min(h.join() * 1e9 / n as f64);
    }
    rt.shutdown();
    best
}

/// Owner-side push+pop pair on a bare pool (the spawn/dispatch fast path).
fn bench_pool_push_pop(n: usize, reps: usize) -> f64 {
    let pool = ThreadPool::with_capacity(64);
    let t = Ult::test_ult(1);
    let secs = best_secs(reps, || {
        for _ in 0..n {
            pool.push(t.clone());
            std::hint::black_box(pool.pop().unwrap());
        }
    });
    secs * 1e9 / n as f64
}

/// Steal cost: fill a batch, steal it back, repeatedly.
fn bench_steal(n: usize, reps: usize) -> f64 {
    const BATCH: usize = 512;
    let pool = ThreadPool::with_capacity(BATCH + 16);
    let ts: Vec<Arc<Ult>> = (0..BATCH).map(|i| Ult::test_ult(i as u64)).collect();
    let rounds = n.div_ceil(BATCH);
    let secs = best_secs(reps, || {
        for _ in 0..rounds {
            for t in &ts {
                pool.push(t.clone());
            }
            for _ in 0..BATCH {
                std::hint::black_box(pool.steal().unwrap());
            }
        }
    });
    // Only the steals count as the measured op (pushes are ~half the work;
    // report the pair cost split evenly to stay comparable across changes).
    secs * 1e9 / (rounds * BATCH * 2) as f64
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let get_opt = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let out_path = get_opt("--out").unwrap_or_else(|| "results/BENCH_spawn.json".into());
    let baseline_path = get_opt("--check");

    let (n_spawn, n_yield, n_pool, reps) = if quick {
        (4_000, 20_000, 50_000, 2)
    } else {
        (20_000, 100_000, 200_000, 3)
    };

    let (spawn_ns, join_ns, spawn_join_ns) = bench_spawn_join(n_spawn, reps);
    let yield_ns = bench_yield(n_yield, reps);
    let pool_push_pop_ns = bench_pool_push_pop(n_pool, reps);
    let steal_ns = bench_steal(n_pool, reps);

    let metrics = [
        Metric {
            name: "spawn_ns",
            value: spawn_ns,
            checked: true,
        },
        Metric {
            name: "join_ns",
            value: join_ns,
            checked: true,
        },
        Metric {
            name: "spawn_join_ns",
            value: spawn_join_ns,
            checked: true,
        },
        Metric {
            name: "yield_ns",
            value: yield_ns,
            checked: true,
        },
        Metric {
            name: "pool_push_pop_ns",
            value: pool_push_pop_ns,
            checked: true,
        },
        Metric {
            name: "steal_ns",
            value: steal_ns,
            checked: true,
        },
    ];

    report_metrics(&metrics, &out_path, baseline_path.as_deref());
}
