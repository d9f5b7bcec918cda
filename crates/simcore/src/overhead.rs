//! Figure 6 model: relative overhead of preemptive M:N threads vs.
//! nonpreemptive, as a function of the timer interval.
//!
//! The paper's microbenchmark (56 workers × 10 compute-bound threads)
//! charges each preemption a per-technique cost; the relative overhead over
//! a compute-bound workload is then `cost / interval` plus a cache-refill
//! penalty that grows when preemptions are frequent. The five Figure 6
//! series differ only in the per-event cost:
//!
//! | series | events charged per tick |
//! |---|---|
//! | timer-interruption-only | handler entry/exit |
//! | signal-yield | handler + user context switch (≈ identical to the above — the paper's observation) |
//! | KLT-switching (naive) | handler + KLT park/resume via extra signal round trip + scheduler handoff |
//! | KLT-switching (futex) | handler + futex park/resume + scheduler handoff |
//! | KLT-switching (futex, local pool) | as above minus affinity reset / cache migration |

/// The Figure 6 series (ordered as in the paper's legend).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Technique {
    /// KLT-switching with sigsuspend-style park and global KLT pool.
    KltSwitchingNaive,
    /// KLT-switching with futex park, global pool.
    KltSwitchingFutex,
    /// KLT-switching with futex park and worker-local pools (fully
    /// optimized).
    KltSwitchingFutexLocalPool,
    /// Signal-yield.
    SignalYield,
    /// Timer interruption with an empty handler (lower bound).
    TimerOnly,
}

impl Technique {
    /// All series in paper legend order.
    pub const ALL: [Technique; 5] = [
        Technique::KltSwitchingNaive,
        Technique::KltSwitchingFutex,
        Technique::KltSwitchingFutexLocalPool,
        Technique::SignalYield,
        Technique::TimerOnly,
    ];

    /// Paper legend label.
    pub fn label(self) -> &'static str {
        match self {
            Technique::KltSwitchingNaive => "KLT-switching",
            Technique::KltSwitchingFutex => "KLT-switching (futex)",
            Technique::KltSwitchingFutexLocalPool => "KLT-switching (futex, local pool)",
            Technique::SignalYield => "Signal-yield",
            Technique::TimerOnly => "Timer interruption only",
        }
    }
}

/// Cost model parameters (ns per preemption event).
#[derive(Debug, Clone, Copy)]
pub struct OverheadParams {
    /// Timer interruption (delivery + empty handler).
    pub interrupt_ns: f64,
    /// User-level context switch out of + back into the thread.
    pub ctx_switch_ns: f64,
    /// Futex-based KLT suspend + resume pair.
    pub futex_park_ns: f64,
    /// Extra signal round trip of the sigsuspend-style park.
    pub sigsuspend_extra_ns: f64,
    /// Scheduler handoff between KLTs (wake pooled KLT, re-point worker,
    /// timer rebind amortized).
    pub klt_handoff_ns: f64,
    /// Cache/affinity penalty on resuming from the *global* pool (avoided
    /// by worker-local pools, paper §3.3.2).
    pub global_pool_penalty_ns: f64,
}

impl Default for OverheadParams {
    fn default() -> Self {
        // Calibrated so the model keeps the paper's Skylake *shape*
        // (signal-yield ≈ timer-only; < 1% at 1 ms for optimized
        // KLT-switching; naive ≈ 2× optimized, paper §3.3), with the two
        // single-event anchors replaced by measured per-event costs, the
        // unit-cost probes of the end-to-end benchmark (`benchmark/`):
        //
        // * `interrupt_ns` ← `core.preempt.useless_tick_ns` (kernel
        //   delivery + the handler's coarse-deadline filter + sigreturn —
        //   the empty-handler interruption the model charges per tick);
        // * `ctx_switch_ns` ← `core.yield_ns` (the minimal callee-saved
        //   user context switch, one yield through the scheduler).
        //
        // `core.preempt.signal_yield_rt_ns` is the whole preempting tick the
        // two stand in for (delivery, handler, switch out and back).
        //
        // The KLT park/handoff constants stay at their paper-anchored
        // values: a 1-core host cannot measure cross-KLT costs honestly.
        OverheadParams {
            interrupt_ns: 1_000.0,
            ctx_switch_ns: 110.0,
            futex_park_ns: 1_800.0,
            sigsuspend_extra_ns: 3_500.0,
            klt_handoff_ns: 2_000.0,
            global_pool_penalty_ns: 1_500.0,
        }
    }
}

/// Per-preemption cost of `technique` in nanoseconds.
pub fn preemption_cost_ns(technique: Technique, p: &OverheadParams) -> f64 {
    match technique {
        Technique::TimerOnly => p.interrupt_ns,
        Technique::SignalYield => p.interrupt_ns + p.ctx_switch_ns,
        Technique::KltSwitchingFutexLocalPool => {
            p.interrupt_ns + p.futex_park_ns + p.klt_handoff_ns
        }
        Technique::KltSwitchingFutex => {
            p.interrupt_ns + p.futex_park_ns + p.klt_handoff_ns + p.global_pool_penalty_ns
        }
        Technique::KltSwitchingNaive => {
            p.interrupt_ns
                + p.futex_park_ns
                + p.sigsuspend_extra_ns
                + p.klt_handoff_ns
                + p.global_pool_penalty_ns
        }
    }
}

/// Relative overhead (0.01 = 1%) of running a compute-bound workload with
/// preemption every `interval_ns`, versus nonpreemptive execution.
pub fn relative_overhead(technique: Technique, interval_ns: u64, p: &OverheadParams) -> f64 {
    let cost = preemption_cost_ns(technique, p);
    // Each interval of useful work pays one preemption cost.
    cost / interval_ns as f64
}

/// The full Figure 6 sweep: overhead per technique across intervals.
pub fn figure6_sweep(
    intervals_ns: &[u64],
    p: &OverheadParams,
) -> Vec<(Technique, Vec<(u64, f64)>)> {
    Technique::ALL
        .iter()
        .map(|&t| {
            let series = intervals_ns
                .iter()
                .map(|&iv| (iv, relative_overhead(t, iv, p)))
                .collect();
            (t, series)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> OverheadParams {
        OverheadParams::default()
    }

    #[test]
    fn ordering_of_techniques_matches_paper() {
        // At any interval: naive > futex > futex+local > signal-yield >= timer.
        for iv in [100_000u64, 1_000_000, 10_000_000] {
            let naive = relative_overhead(Technique::KltSwitchingNaive, iv, &p());
            let futex = relative_overhead(Technique::KltSwitchingFutex, iv, &p());
            let local = relative_overhead(Technique::KltSwitchingFutexLocalPool, iv, &p());
            let sy = relative_overhead(Technique::SignalYield, iv, &p());
            let timer = relative_overhead(Technique::TimerOnly, iv, &p());
            assert!(naive > futex && futex > local && local > sy && sy >= timer);
        }
    }

    #[test]
    fn optimizations_give_about_2x() {
        let naive = preemption_cost_ns(Technique::KltSwitchingNaive, &p());
        let best = preemption_cost_ns(Technique::KltSwitchingFutexLocalPool, &p());
        let ratio = naive / best;
        assert!((1.5..3.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn one_ms_interval_is_under_one_percent() {
        // The paper's headline: overhead < 1% at 1 ms on Skylake.
        let oh = relative_overhead(Technique::KltSwitchingFutexLocalPool, 1_000_000, &p());
        assert!(oh < 0.01, "overhead at 1 ms = {oh}");
        let oh_sy = relative_overhead(Technique::SignalYield, 1_000_000, &p());
        assert!(oh_sy < 0.01);
    }

    #[test]
    fn short_intervals_are_expensive() {
        // At 100 µs the naive KLT-switching should be several percent.
        let oh = relative_overhead(Technique::KltSwitchingNaive, 100_000, &p());
        assert!(oh > 0.05, "naive at 100 µs = {oh}");
    }

    #[test]
    fn signal_yield_tracks_timer_only() {
        // Paper: "the overhead of signal-yield is virtually identical to
        // that of a pure timer interrupt."
        let sy = preemption_cost_ns(Technique::SignalYield, &p());
        let t = preemption_cost_ns(Technique::TimerOnly, &p());
        assert!(sy / t < 1.15);
    }

    #[test]
    fn sweep_covers_all_techniques() {
        let sweep = figure6_sweep(&[100_000, 1_000_000], &p());
        assert_eq!(sweep.len(), 5);
        for (_, series) in sweep {
            assert_eq!(series.len(), 2);
            assert!(series[0].1 > series[1].1); // longer interval = less overhead
        }
    }

    #[test]
    fn overhead_is_inverse_in_interval() {
        let a = relative_overhead(Technique::SignalYield, 500_000, &p());
        let b = relative_overhead(Technique::SignalYield, 1_000_000, &p());
        assert!((a / b - 2.0).abs() < 1e-9);
    }
}
