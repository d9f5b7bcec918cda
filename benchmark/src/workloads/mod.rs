//! The workloads and what they share: the measured window (counter and
//! resource-usage deltas around a trial) and the spinner ULTs three of the
//! workloads are built from.

pub mod compute;
pub mod echo;
pub mod forkjoin;
pub mod sync;

use crate::host::Usage;
use crate::metrics::Values;
use crate::trace::Span;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use ult_arch::CacheAligned;
use ult_core::{Runtime, RuntimeStats};

/// In `BENCHMARK.json` order.
pub const NAMES: &[&str] = &[
    "forkjoin",
    "compute_sy",
    "compute_ks",
    "echo_idle",
    "echo_busy",
    "sync_mutex",
    "sync_mcs",
    "sync_chan",
];

#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// Whether this process will run a traced trial (span buffers are
    /// reserved at set-up, never inside a trial).
    pub traced: bool,
    /// Total seconds the trials of this process will measure; sizes the
    /// preallocated sample buffers.
    pub measure_secs: f64,
    /// Corrupt one output so the checks can be seen to fire. Set by unit
    /// tests only: a run of the benchmark never corrupts anything.
    pub fault: bool,
}

/// One timed window of a workload.
pub struct Trial {
    pub secs: f64,
    /// The ops `ops_per_s` counts.
    pub ops: u64,
    /// Latency samples of the op, ns, ascending.
    pub lat_ns: Vec<u64>,
    /// Requests answered (echo workloads; 0 elsewhere) — the divisor of the
    /// per-request reactor counters.
    pub reqs: u64,
    pub stats: RuntimeStats,
    pub usage: Usage,
    /// CPU the benchmark's own threads (load generator, keep-awake) used
    /// inside the window.
    pub gen_cpu_s: f64,
    /// Per-layer values only this workload can compute.
    pub extra: Values,
}

/// What is known once the workload has stopped.
pub struct Finish {
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
    pub spans_dropped: u64,
    pub extra: Values,
}

pub trait Workload: Sized {
    /// The request rate is set by a schedule, not by the system's speed.
    const OPEN_LOOP: bool = false;
    /// Build the runtime and the workload's state, then run a fixed number
    /// of warm-up ops: everything `setup_s` times.
    fn setup(p: &Params) -> Self;
    fn workers(&self) -> usize;
    /// Sizing worth printing with the results (rates, counts).
    fn sizing(&self) -> String;
    fn trial(&mut self, secs: f64, traced: bool) -> Trial;
    /// Stop and join every ULT, verify outputs, shut the runtime down.
    fn finish(self) -> Finish;
}

/// Counter and usage snapshots at the start of a timed window.
pub struct Window {
    t0: u64,
    stats: RuntimeStats,
    usage: Usage,
}

impl Window {
    pub fn open(rt: &Runtime) -> Window {
        Window {
            stats: rt.stats(),
            usage: Usage::now(),
            t0: ult_sys::now_ns(),
        }
    }

    pub fn t0(&self) -> u64 {
        self.t0
    }

    /// (seconds, counter deltas, usage deltas) since `open`.
    pub fn close(self, rt: &Runtime) -> (f64, RuntimeStats, Usage) {
        let t1 = ult_sys::now_ns();
        let (b, a) = (rt.stats(), self.stats);
        let d = RuntimeStats {
            preemptions: b.preemptions - a.preemptions,
            klt_switches: b.klt_switches - a.klt_switches,
            captive_resumes: b.captive_resumes - a.captive_resumes,
            deferred_ticks: b.deferred_ticks - a.deferred_ticks,
            stale_ticks: b.stale_ticks - a.stale_ticks,
            klt_misses: b.klt_misses - a.klt_misses,
            timer_ticks: b.timer_ticks - a.timer_ticks,
            filtered_ticks: b.filtered_ticks - a.filtered_ticks,
            tick_elisions: b.tick_elisions - a.tick_elisions,
            tick_rearms: b.tick_rearms - a.tick_rearms,
            timer_overruns: b.timer_overruns - a.timer_overruns,
            steals: b.steals - a.steals,
            unparks: b.unparks - a.unparks,
            mcs_handoffs: b.mcs_handoffs - a.mcs_handoffs,
            mcs_suspends: b.mcs_suspends - a.mcs_suspends,
            async_unparks: b.async_unparks - a.async_unparks,
            klts_created: b.klts_created - a.klts_created,
            io_polls: b.io_polls - a.io_polls,
            io_parks: b.io_parks - a.io_parks,
            io_doorbell_rings: b.io_doorbell_rings - a.io_doorbell_rings,
            io_cross_shard_wakes: b.io_cross_shard_wakes - a.io_cross_shard_wakes,
            io_fd_rebinds: b.io_fd_rebinds - a.io_fd_rebinds,
            io_bufpool_hits: b.io_bufpool_hits - a.io_bufpool_hits,
            io_bufpool_misses: b.io_bufpool_misses - a.io_bufpool_misses,
            ..RuntimeStats::default()
        };
        (
            (t1 - self.t0) as f64 / 1e9,
            d,
            Usage::now().since(&self.usage),
        )
    }
}

/// One long-running ULT's progress: written by the ULT, sampled by the
/// measuring thread at window boundaries, so the ULT runs on undisturbed
/// across trials. Preallocated — recording is two stores, no allocation,
/// no thread-local state.
pub struct Progress {
    ops: CacheAligned<AtomicU64>, // ordering: counter
    /// Latency samples, ns, in the order taken.
    samples: Box<[AtomicU64]>, // ordering: relaxed slots published by `filled`
    filled: AtomicUsize,          // ordering: acqrel release-published count of written slots
    dropped: AtomicU64,           // ordering: counter
}

impl Progress {
    pub fn new(sample_capacity: usize) -> Progress {
        Progress {
            ops: CacheAligned::new(AtomicU64::new(0)),
            samples: (0..sample_capacity).map(|_| AtomicU64::new(0)).collect(),
            filled: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Publish the owner's op count (single writer).
    #[inline]
    pub fn set_ops(&self, n: u64) {
        self.ops.store(n, Ordering::Relaxed);
    }

    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Record one sample (single writer); returns its index. A full log
    /// drops and counts.
    #[inline]
    pub fn sample(&self, ns: u64) -> usize {
        let slot = self.filled.load(Ordering::Relaxed);
        if slot < self.samples.len() {
            self.samples[slot].store(ns, Ordering::Relaxed);
            self.filled.store(slot + 1, Ordering::Release);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        slot
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Where a set of [`Progress`] logs stood when a window opened.
pub struct Mark {
    ops: Vec<u64>,
    filled: Vec<usize>,
}

pub fn mark(logs: &[Progress]) -> Mark {
    Mark {
        ops: logs.iter().map(Progress::ops).collect(),
        filled: logs
            .iter()
            .map(|p| p.filled.load(Ordering::Acquire))
            .collect(),
    }
}

/// (ops done by each log's owner, ascending samples taken by all) since `m`.
pub fn since(logs: &[Progress], m: &Mark) -> (Vec<u64>, Vec<u64>) {
    let mut samples = Vec::new();
    for (p, from) in logs.iter().zip(&m.filled) {
        let filled = p.filled.load(Ordering::Acquire);
        samples.extend(
            p.samples[*from..filled]
                .iter()
                .map(|s| s.load(Ordering::Relaxed)),
        );
    }
    samples.sort_unstable();
    (
        logs.iter()
            .zip(&m.ops)
            .map(|(p, from)| p.ops() - from)
            .collect(),
        samples,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_windows_see_only_their_own_ops_and_samples() {
        let logs = [Progress::new(4), Progress::new(4)];
        logs[0].set_ops(10);
        logs[0].sample(7);
        let m = mark(&logs);
        logs[0].set_ops(25);
        logs[1].set_ops(5);
        logs[0].sample(9);
        logs[1].sample(3);
        assert_eq!(since(&logs, &m), (vec![15, 5], vec![3, 9]));
    }

    #[test]
    fn a_full_sample_log_drops_and_counts() {
        let p = Progress::new(1);
        assert_eq!(p.sample(1), 0);
        assert_eq!(p.sample(2), 1);
        assert_eq!(p.dropped(), 1);
        assert_eq!(
            since(std::slice::from_ref(&p), &mark(&[Progress::new(0)])).1,
            vec![1]
        );
    }
}
