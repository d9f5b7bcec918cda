//! Runtime statistics and instrumentation.
//!
//! The paper's microbenchmark figures are driven by exactly this data:
//!
//! * **Figure 4** — average time for an OS timer interruption: the
//!   [`WorkerStats::record_interrupt`] samples (time spent in the preemption
//!   handler, from entry to the context switch or return).
//! * **Figure 6** — relative overhead of preemptive execution: preemption /
//!   KLT-switch / miss counters plus wall-clock comparisons by the harness.
//! * **Table 1** — direct preemption overhead: sampled via the timestamp
//!   probes in the bench crate, plus the counters here.
//!
//! All writers are signal handlers or schedulers, so everything is atomics
//! over pre-allocated memory.

use crate::thread::ThreadKind;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};

/// Fixed-capacity ring of u64 samples, written from signal handlers.
pub struct SampleRing {
    // ordering: relaxed lossy sample slots; a racing snapshot may read a stale sample, never a torn one
    buf: Box<[AtomicU64]>,
    next: AtomicUsize, // ordering: counter
}

impl SampleRing {
    /// Ring with room for `cap` samples (0 disables recording).
    pub fn new(cap: usize) -> SampleRing {
        SampleRing {
            buf: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            next: AtomicUsize::new(0),
        }
    }

    /// Record one sample. Async-signal-safe; lossy once the ring wraps.
    #[inline]
    // sigsafe
    pub fn push(&self, v: u64) {
        if self.buf.is_empty() {
            return;
        }
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        self.buf[i % self.buf.len()].store(v, Ordering::Relaxed);
    }

    /// Number of samples recorded so far (may exceed capacity; the ring
    /// keeps the most recent `cap`).
    pub fn count(&self) -> usize {
        self.next.load(Ordering::Relaxed)
    }

    /// Snapshot the recorded samples (at most `cap`).
    pub fn snapshot(&self) -> Vec<u64> {
        let n = self.count().min(self.buf.len());
        self.buf[..n]
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect()
    }
}

/// Mirror of the running thread's kind, readable by other workers' signal
/// handlers without dereferencing the (possibly dying) `current` pointer.
const KIND_NONE: u8 = 0;
const KIND_NONPREEMPTIVE: u8 = 1;
const KIND_SIGNAL_YIELD: u8 = 2;
const KIND_KLT_SWITCHING: u8 = 3;

/// Declares the per-worker counters once and generates, from that one
/// table, the [`WorkerStats`] fields, their initialisers, the
/// [`RuntimeStats`] fields and the fold between the two. An entry reads:
/// per-worker doc, name, doc of the sum over workers, `u64`.
macro_rules! worker_counters {
    ($($(#[$wdoc:meta])* $name:ident: $(#[$rdoc:meta])* u64;)*) => {
        /// Per-worker statistics.
        pub struct WorkerStats {
            /// Mirror of the current thread's kind (see constants above).
            current_kind: AtomicU8, // ordering: acqrel kind mirror read by other workers' handlers
            $($(#[$wdoc])* pub $name: AtomicU64,)* // ordering: counter
            /// Interruption-time samples (handler entry → switch/return), ns.
            pub interrupt_ns: SampleRing,
        }

        impl WorkerStats {
            /// New stats block; `samples` sizes the interruption ring.
            pub fn new(samples: usize) -> WorkerStats {
                WorkerStats {
                    current_kind: AtomicU8::new(KIND_NONE),
                    $($name: AtomicU64::new(0),)*
                    interrupt_ns: SampleRing::new(samples),
                }
            }
        }

        /// Aggregated snapshot across all workers (public API).
        #[derive(Debug, Clone, Default)]
        pub struct RuntimeStats {
            $($(#[$rdoc])* pub $name: u64,)*
            /// MCS mutex: lock handoffs published to a queued successor
            /// (process-global; see [`sync_counters`]).
            pub mcs_handoffs: u64,
            /// MCS mutex: waiters that found the lock taken and parked as
            /// ULTs (process-global; see [`sync_counters`]).
            pub mcs_suspends: u64,
            /// Async tasks spawned by `ult-future` (process-global).
            pub async_tasks: u64,
            /// Async task wakes that resumed a parked ULT (process-global).
            pub async_unparks: u64,
            /// `spawn_blocking` jobs submitted to the offload pool (process-global).
            pub blocking_jobs: u64,
            /// Offload-pool KLTs spawned (process-global).
            pub blocking_klts_spawned: u64,
            /// Offload-pool KLTs harvested after idling out (process-global).
            pub blocking_klts_harvested: u64,
            /// KLTs created on demand by the creator thread.
            pub klts_created: u64,
            /// Reactor: `epoll_wait` passes summed over all shards (parks + polls).
            pub io_polls: u64,
            /// Reactor: blocking parks in a shard's `epoll_wait`.
            pub io_parks: u64,
            /// Reactor: doorbell eventfd rings.
            pub io_doorbell_rings: u64,
            /// Reactor: readiness deliveries that woke a ULT homed on another worker.
            pub io_cross_shard_wakes: u64,
            /// Reactor: fds migrated between shards by the affinity rebind path.
            pub io_fd_rebinds: u64,
            /// Reactor: batched-accept drains (one per listener readiness).
            pub io_batched_accepts: u64,
            /// Reactor: connections accepted via the batched `accept4` loop.
            pub io_accepted: u64,
            /// Reactor: I/O buffer acquisitions served from a free list.
            pub io_bufpool_hits: u64,
            /// Reactor: I/O buffer acquisitions that had to allocate.
            pub io_bufpool_misses: u64,
            /// Reactor: times a busy worker handed its shard to the watcher thread.
            pub io_watch_arms: u64,
            /// Reactor: watcher wake-ups that needed no signal (owner parked in its
            /// own `epoll_wait`, nothing preemptible running, or runtime gone).
            pub io_watch_skips: u64,
            /// All interruption samples (ns), concatenated across workers.
            pub interrupt_samples_ns: Vec<u64>,
        }

        impl RuntimeStats {
            /// Fold one worker's counters and interruption samples in.
            pub(crate) fn add_worker(&mut self, w: &WorkerStats) {
                $(self.$name += w.$name.load(Ordering::Relaxed);)*
                self.interrupt_samples_ns.extend(w.interrupt_ns.snapshot());
            }
        }
    };
}

worker_counters! {
    /// Completed preemptions (both techniques).
    preemptions:
    /// Completed preemptions (both techniques).
    u64;
    /// Preemptions performed via KLT-switching.
    klt_switches:
    /// KLT-switching preemptions.
    u64;
    /// Captive resumes performed by this worker's scheduler.
    captive_resumes:
    /// Captive resumes.
    u64;
    /// Ticks deferred because the runtime had preemption disabled.
    deferred_ticks:
    /// Ticks deferred in critical sections.
    u64;
    /// Ticks dropped because this KLT no longer embodies the worker.
    stale_ticks:
    /// Stale ticks dropped.
    u64;
    /// Ticks suppressed by the echo filter after a recent preemption.
    suppressed_ticks:
    /// Echo-suppressed ticks.
    u64;
    /// KLT-switching attempts aborted for lack of a pooled KLT.
    klt_misses:
    /// KLT pool misses (creator requests issued from handlers).
    u64;
    /// Preemption ticks (timer signals) whose handler ran on this worker.
    timer_ticks:
    /// Preemption ticks whose handler ran on some worker.
    u64;
    /// Ticks dismissed by the coarse-clock deadline filter before touching
    /// any scheduler state (the cheap "too early" exit).
    filtered_ticks:
    /// Ticks dismissed by the coarse-clock deadline filter.
    u64;
    /// Times this worker's periodic tick was elided (timer disarmed)
    /// because it had ≤1 runnable ULT.
    tick_elisions:
    /// Periodic ticks elided (timer disarmed with ≤1 runnable ULT).
    u64;
    /// Times an elided tick was re-armed (work arrived: spawn/ready/steal).
    tick_rearms:
    /// Elided ticks re-armed after work arrived.
    u64;
    /// Timer expirations the kernel coalesced (`timer_getoverrun`): ticks
    /// that were generated but never delivered as distinct signals.
    timer_overruns:
    /// Kernel-coalesced timer expirations (`timer_getoverrun`).
    u64;
    /// KLTs started for this worker (worker 0: the spares) whose
    /// `timer_create` failed; whichever worker such a KLT embodies runs
    /// without ticks meanwhile.
    timer_create_failures:
    /// Failed `timer_create` calls (KLTs left without a timer).
    u64;
    /// Threads run to completion on this worker.
    completed:
    /// Threads completed.
    u64;
    /// Threads stolen from other workers' pools.
    steals:
    /// Steal operations.
    u64;
    /// Futex unparks issued to this worker (wake-storm regression metric:
    /// the Packing scheduler used to unpark *every* active worker per
    /// ready event).
    unparks:
    /// Worker unparks issued (wake-storm regression metric).
    u64;
    /// Adaptive-quantum shrinks (queued latency work or excessive dispatch
    /// delay drove the interval toward the floor).
    quantum_shrinks:
    /// Adaptive-quantum shrinks across all workers.
    u64;
    /// Adaptive-quantum stretches (only throughput work running drove the
    /// interval toward the ceiling).
    quantum_stretches:
    /// Adaptive-quantum stretches across all workers.
    u64;
    /// Dispatches of `SchedClass::Latency` ULTs on this worker.
    latency_dispatches:
    /// Dispatches of latency-class ULTs.
    u64;
    /// Dispatches of `SchedClass::Throughput` ULTs on this worker.
    throughput_dispatches:
    /// Dispatches of throughput-class ULTs.
    u64;
    /// Preemptions caused by the reactor watcher (`io_hook::io_kick`): fd
    /// readiness took the CPU from this worker's occupant ahead of the tick.
    io_preempts:
    /// Preemptions caused by fd readiness (the reactor watcher's kick)
    /// rather than by a timer tick.
    u64;
}

impl WorkerStats {
    /// Update the kind mirror when `current` changes.
    #[inline]
    // sigsafe
    pub fn set_current_kind(&self, kind: Option<ThreadKind>) {
        let v = match kind {
            None => KIND_NONE,
            Some(ThreadKind::Nonpreemptive) => KIND_NONPREEMPTIVE,
            Some(ThreadKind::SignalYield) => KIND_SIGNAL_YIELD,
            Some(ThreadKind::KltSwitching) => KIND_KLT_SWITCHING,
        };
        self.current_kind.store(v, Ordering::Release);
    }

    /// Whether the running thread (if any) is preemptive — the test the
    /// reactor watcher's kick and the tick re-arm paths make before
    /// signalling or arming for this worker.
    #[inline]
    // sigsafe
    pub fn current_kind_preemptive(&self) -> bool {
        matches!(
            self.current_kind.load(Ordering::Acquire),
            KIND_SIGNAL_YIELD | KIND_KLT_SWITCHING
        )
    }

    /// Record one interruption-time sample.
    #[inline]
    // sigsafe
    pub fn record_interrupt(&self, ns: u64) {
        self.interrupt_ns.push(ns);
    }
}

/// Process-global counters reported by ULT-aware sync primitives.
///
/// `ult-sync` sits above `ult-core` in the crate graph, so its primitives
/// cannot reach a specific runtime's `WorkerStats`; instead they bump these
/// process-wide counters, which [`crate::Runtime::stats`] folds into its
/// snapshot. Monotonic over the process lifetime (never reset), shared by
/// all runtimes in the process.
pub struct SyncCounters {
    /// MCS mutex: handoffs published to a queued successor.
    pub mcs_handoffs: AtomicU64, // ordering: counter
    /// MCS mutex: waiters that found the lock taken and parked as ULTs.
    pub mcs_suspends: AtomicU64, // ordering: counter
    /// `ult-future`: async tasks spawned (each rides one ULT).
    pub async_tasks: AtomicU64, // ordering: counter
    /// `ult-future`: task wakes that claimed a parked ULT (`make_ready`).
    pub async_unparks: AtomicU64, // ordering: counter
    /// `ult-future`: `spawn_blocking` jobs submitted to the offload pool.
    pub blocking_jobs: AtomicU64, // ordering: counter
    /// `ult-future`: offload-pool KLTs spawned (elastic growth).
    pub blocking_klts_spawned: AtomicU64, // ordering: counter
    /// `ult-future`: offload-pool KLTs harvested after idling out.
    pub blocking_klts_harvested: AtomicU64, // ordering: counter
}

static SYNC_COUNTERS: SyncCounters = SyncCounters {
    mcs_handoffs: AtomicU64::new(0),
    mcs_suspends: AtomicU64::new(0),
    async_tasks: AtomicU64::new(0),
    async_unparks: AtomicU64::new(0),
    blocking_jobs: AtomicU64::new(0),
    blocking_klts_spawned: AtomicU64::new(0),
    blocking_klts_harvested: AtomicU64::new(0),
};

/// The process-global sync-primitive counters (see [`SyncCounters`]).
pub fn sync_counters() -> &'static SyncCounters {
    &SYNC_COUNTERS
}

impl RuntimeStats {
    /// Mean of the interruption samples in nanoseconds.
    pub fn mean_interrupt_ns(&self) -> f64 {
        if self.interrupt_samples_ns.is_empty() {
            return 0.0;
        }
        self.interrupt_samples_ns.iter().sum::<u64>() as f64
            / self.interrupt_samples_ns.len() as f64
    }

    /// Median of the interruption samples in nanoseconds.
    pub fn median_interrupt_ns(&self) -> f64 {
        if self.interrupt_samples_ns.is_empty() {
            return 0.0;
        }
        let mut v = self.interrupt_samples_ns.clone();
        v.sort_unstable();
        v[v.len() / 2] as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_records_and_wraps() {
        let r = SampleRing::new(4);
        for i in 0..6 {
            r.push(i);
        }
        assert_eq!(r.count(), 6);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 4);
        // Slots 0..4 hold the wrapped values {4,5,2,3}.
        assert!(snap.contains(&4) && snap.contains(&5));
    }

    #[test]
    fn zero_capacity_ring_is_noop() {
        let r = SampleRing::new(0);
        r.push(1);
        assert_eq!(r.count(), 0);
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn kind_mirror() {
        let s = WorkerStats::new(0);
        assert!(!s.current_kind_preemptive());
        s.set_current_kind(Some(ThreadKind::Nonpreemptive));
        assert!(!s.current_kind_preemptive());
        s.set_current_kind(Some(ThreadKind::SignalYield));
        assert!(s.current_kind_preemptive());
        s.set_current_kind(Some(ThreadKind::KltSwitching));
        assert!(s.current_kind_preemptive());
        s.set_current_kind(None);
        assert!(!s.current_kind_preemptive());
    }

    #[test]
    fn stats_mean_median() {
        let st = RuntimeStats {
            interrupt_samples_ns: vec![100, 200, 300, 400, 1000],
            ..Default::default()
        };
        assert_eq!(st.mean_interrupt_ns(), 400.0);
        assert_eq!(st.median_interrupt_ns(), 300.0);
        let empty = RuntimeStats::default();
        assert_eq!(empty.mean_interrupt_ns(), 0.0);
        assert_eq!(empty.median_interrupt_ns(), 0.0);
    }
}
