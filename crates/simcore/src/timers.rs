//! Timer-strategy simulation: every Figure 4 series.
//!
//! For each strategy we simulate `rounds` timer periods over `n_workers`
//! workers (one per core, all running preemptive threads — the paper's
//! microbenchmark setup) and report the mean/stddev of the per-interruption
//! time (timer expiry → handler completion).

use crate::signal::{KernelParams, SignalSim};

/// The four coordination strategies of paper §3.2. The runtime ships only
/// `PerWorkerAligned` (`ult_core::TimerStrategy`); the other three exist
/// here alone, to draw Figure 4's series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimStrategy {
    /// One timer per worker, identical phases ("Per-worker (creation-time)").
    PerWorkerCreationTime,
    /// One timer per worker, phases staggered by `i·T/N` ("Per-worker
    /// (aligned)", Fig. 5a).
    PerWorkerAligned,
    /// One leader timer; the leader `pthread_kill`s every other worker
    /// ("Per-process (one-to-all)").
    PerProcessOneToAll,
    /// One leader timer; each worker forwards to the next ("Per-process
    /// (chain)", Fig. 5b).
    PerProcessChain,
}

impl SimStrategy {
    /// All four, in the paper's Figure 4 legend order.
    pub const ALL: [SimStrategy; 4] = [
        SimStrategy::PerWorkerCreationTime,
        SimStrategy::PerWorkerAligned,
        SimStrategy::PerProcessOneToAll,
        SimStrategy::PerProcessChain,
    ];

    /// Paper legend label.
    pub fn label(self) -> &'static str {
        match self {
            SimStrategy::PerWorkerCreationTime => "Per-worker (creation-time)",
            SimStrategy::PerWorkerAligned => "Per-worker (aligned)",
            SimStrategy::PerProcessOneToAll => "Per-process (one-to-all)",
            SimStrategy::PerProcessChain => "Per-process (chain)",
        }
    }
}

/// Interruption-time statistics for one (strategy, worker-count) cell.
#[derive(Debug, Clone, Copy)]
pub struct InterruptStats {
    /// Mean interruption time in nanoseconds.
    pub mean_ns: f64,
    /// Standard deviation in nanoseconds.
    pub stddev_ns: f64,
    /// Number of interruptions simulated.
    pub samples: usize,
}

fn stats(samples: &[u64]) -> InterruptStats {
    let n = samples.len().max(1) as f64;
    let mean = samples.iter().sum::<u64>() as f64 / n;
    let var = samples
        .iter()
        .map(|&s| {
            let d = s as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / n;
    InterruptStats {
        mean_ns: mean,
        stddev_ns: var.sqrt(),
        samples: samples.len(),
    }
}

/// Simulate `rounds` periods of `strategy` over `n_workers` workers with
/// tick interval `interval_ns`, returning interruption-time statistics.
pub fn simulate_interruption(
    strategy: SimStrategy,
    n_workers: usize,
    interval_ns: u64,
    rounds: usize,
    params: KernelParams,
) -> InterruptStats {
    assert!(n_workers >= 1);
    let mut sim = SignalSim::new(n_workers, params);
    let mut samples = Vec::with_capacity(n_workers * rounds);

    for round in 0..rounds {
        let base = (round as u64 + 1) * interval_ns;
        match strategy {
            SimStrategy::PerWorkerCreationTime => {
                // All timers expire at the same instant; deliveries
                // serialize on the kernel lock.
                for core in 0..n_workers {
                    let d = sim.deliver(base, core);
                    samples.push(d.handler_end - base);
                }
            }
            SimStrategy::PerWorkerAligned => {
                // Phases staggered by i·T/N: no overlap as long as
                // T/N exceeds the per-delivery cost.
                for core in 0..n_workers {
                    let raise = base + core as u64 * interval_ns / n_workers as u64;
                    let d = sim.deliver(raise, core);
                    samples.push(d.handler_end - raise);
                }
            }
            SimStrategy::PerProcessOneToAll => {
                // Leader (core 0) gets the timer signal, then issues N-1
                // sends back-to-back; recipients' deliveries contend on the
                // kernel lock much like the naive scheme, but the sends
                // themselves are cheap — matching the paper's observation
                // that one-to-all still scales linearly.
                let d0 = sim.deliver(base, 0);
                samples.push(d0.handler_end - base);
                let mut send_done = d0.handler_end;
                for core in 1..n_workers {
                    send_done = sim.send(send_done, 0);
                    let d = sim.deliver(send_done, core);
                    samples.push(d.handler_end - send_done);
                }
            }
            SimStrategy::PerProcessChain => {
                // Each worker handles, then forwards to exactly one next
                // worker: interruptions are inherently serialized, so no
                // lock contention — but every hop's handler additionally
                // performs the forwarding pthread_kill, so each
                // interruption costs send_ns on top of the aligned-timer
                // price (paper: "slightly worse than per-worker (aligned)
                // because of the additional pthread_kill() calls").
                let mut raise = base;
                for core in 0..n_workers {
                    let d = sim.deliver(raise, core);
                    let forward_done = if core + 1 < n_workers {
                        sim.send(d.handler_end, core)
                    } else {
                        d.handler_end
                    };
                    samples.push(forward_done - raise);
                    raise = forward_done;
                }
            }
        }
    }
    stats(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(strategy: SimStrategy, n: usize) -> f64 {
        simulate_interruption(strategy, n, 1_000_000, 10, KernelParams::default()).mean_ns
    }

    #[test]
    fn creation_time_scales_linearly() {
        let m1 = run(SimStrategy::PerWorkerCreationTime, 1);
        let m28 = run(SimStrategy::PerWorkerCreationTime, 28);
        let m112 = run(SimStrategy::PerWorkerCreationTime, 112);
        assert!(m28 > 5.0 * m1, "28 workers: {m28} vs 1: {m1}");
        assert!(m112 > 3.0 * m28, "112 workers: {m112} vs 28: {m28}");
        // Paper's right edge: ~100 µs at 112 workers.
        assert!(
            (50_000.0..200_000.0).contains(&m112),
            "m112 = {m112} ns, expected ≈ 100 µs"
        );
    }

    #[test]
    fn aligned_stays_flat() {
        let m1 = run(SimStrategy::PerWorkerAligned, 1);
        let m112 = run(SimStrategy::PerWorkerAligned, 112);
        assert!(
            m112 < 1.5 * m1,
            "aligned should be flat: 1 → {m1}, 112 → {m112}"
        );
    }

    #[test]
    fn one_to_all_scales_linearly_but_below_creation_time() {
        let naive = run(SimStrategy::PerWorkerCreationTime, 112);
        let all = run(SimStrategy::PerProcessOneToAll, 112);
        let one = run(SimStrategy::PerProcessOneToAll, 1);
        assert!(all > 3.0 * one, "one-to-all should grow: {one} → {all}");
        assert!(
            all < naive,
            "one-to-all ({all}) below creation-time ({naive})"
        );
    }

    #[test]
    fn chain_flat_but_slightly_above_aligned() {
        let aligned = run(SimStrategy::PerWorkerAligned, 112);
        let chain = run(SimStrategy::PerProcessChain, 112);
        let chain1 = run(SimStrategy::PerProcessChain, 1);
        // Flat in worker count…
        assert!(chain < 2.0 * chain1.max(aligned));
        // …but above aligned (extra pthread_kill per hop) — paper §3.2.2.
        assert!(chain > aligned, "chain {chain} vs aligned {aligned}");
    }

    #[test]
    fn paper_figure4_left_edge_absolute_level() {
        // Solo interruption ≈ 2–3 µs on Skylake.
        let m = run(SimStrategy::PerWorkerAligned, 1);
        assert!((1_000.0..5_000.0).contains(&m), "solo = {m} ns");
    }

    #[test]
    fn stats_math() {
        let s = super::stats(&[100, 200, 300]);
        assert_eq!(s.mean_ns, 200.0);
        assert_eq!(s.samples, 3);
        assert!((s.stddev_ns - 81.649_658).abs() < 1e-3);
    }
}
