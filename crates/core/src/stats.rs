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
//!
//! # One table
//!
//! Every counter is declared once, in the `counters!` table below: its
//! name, one doc comment, and the scope whose block holds it.
//!
//! * **worker** — [`WorkerStats`], one per worker, inside the worker; written
//!   by that worker's scheduler and signal handlers.
//! * **shard** — [`ShardCounters`], one per `ult-io` reactor shard, embedded
//!   in the shard and published here by [`publish_shard`]. Several ranks
//!   may share a shard (more workers than shards); the fold takes it once,
//!   by its canonical rank, the rank equal to its index.
//! * **rank** — [`RankCounters`], one per rank slot ([`rank_counters`]),
//!   process-wide: `ult-io`'s buffer pools are per rank, not per shard, and
//!   serve threads outside any runtime as rank 0.
//! * **runtime** — [`RuntimeCounters`], one per runtime.
//! * **process** — [`ProcessCounters`], one static ([`sync_counters`]).
//!   `ult-sync`, `ult-io` and `ult-future` sit above `ult-core` in the crate
//!   graph and cannot reach a runtime's blocks, so they bump these; they are
//!   monotonic over the process and shared by every runtime in it.
//!
//! From the table come each block, [`RuntimeStats`] (one `u64` per counter,
//! same name, same doc) and the fold [`crate::Runtime::stats`] runs, which
//! sums every block of the runtime once. Each block stays where it is
//! written: the worker's inside `Worker`, the shard's inside `Shard`.

use crate::runtime::RuntimeInner;
use crate::thread::ThreadKind;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicU8, AtomicUsize, Ordering};

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

/// A block of counters of one scope, with its fold into [`RuntimeStats`].
macro_rules! counter_block {
    ($(#[$bdoc:meta])* $block:ident { $($(#[$doc:meta])* $name:ident,)* }) => {
        $(#[$bdoc])*
        #[derive(Default)]
        pub struct $block {
            $($(#[$doc])* pub $name: AtomicU64,)* // ordering: counter
        }

        impl $block {
            /// Every counter at zero.
            pub const fn new() -> $block {
                $block { $($name: AtomicU64::new(0),)* }
            }

            /// Add this block's counters into `s`.
            pub fn add_to(&self, s: &mut RuntimeStats) {
                $(s.$name += self.$name.load(Ordering::Relaxed);)*
            }
        }
    };
}

/// Generates from the counter table: the block of every scope,
/// [`RuntimeStats`], the fold of each block into it, and the test that
/// every counter reaches the snapshot exactly once.
macro_rules! counters {
    (
        worker { $($(#[$wd:meta])* $w:ident,)* }
        shard { $($(#[$sd:meta])* $s:ident,)* }
        rank { $($(#[$rd:meta])* $r:ident,)* }
        runtime { $($(#[$td:meta])* $t:ident,)* }
        process { $($(#[$pd:meta])* $p:ident,)* }
    ) => {
        /// Per-worker statistics: the worker counters, the interruption
        /// samples and the running thread's kind mirror.
        pub struct WorkerStats {
            /// Mirror of the current thread's kind (see constants above).
            current_kind: AtomicU8, // ordering: acqrel kind mirror read by other workers' handlers
            $($(#[$wd])* pub $w: AtomicU64,)* // ordering: counter
            /// Interruption-time samples (handler entry → switch/return), ns.
            /// Boxed to keep the block at 200 bytes: at 216 it puts its
            /// tail on the line of the `Worker` fields remote pushers read.
            pub interrupt_ns: Box<SampleRing>,
        }

        impl WorkerStats {
            /// New stats block; `samples` sizes the interruption ring.
            pub fn new(samples: usize) -> WorkerStats {
                WorkerStats {
                    current_kind: AtomicU8::new(KIND_NONE),
                    $($w: AtomicU64::new(0),)*
                    interrupt_ns: Box::new(SampleRing::new(samples)),
                }
            }

            /// Add this worker's counters and interruption samples into `s`.
            pub fn add_to(&self, s: &mut RuntimeStats) {
                $(s.$w += self.$w.load(Ordering::Relaxed);)*
                s.interrupt_samples_ns.extend(self.interrupt_ns.snapshot());
            }

            /// Every counter as (table name, value), in table order.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
                [$((stringify!($w), &self.$w)),*]
                    .into_iter()
                    .map(|(name, c)| (name, c.load(Ordering::Relaxed)))
            }
        }

        counter_block! {
            /// One reactor shard's counters (see the module docs).
            ShardCounters { $($(#[$sd])* $s,)* }
        }
        counter_block! {
            /// One rank slot's counters (see the module docs).
            RankCounters { $($(#[$rd])* $r,)* }
        }
        counter_block! {
            /// One runtime's own counters.
            RuntimeCounters { $($(#[$td])* $t,)* }
        }
        counter_block! {
            /// The process-wide counters (see [`sync_counters`]).
            ProcessCounters { $($(#[$pd])* $p,)* }
        }

        /// Snapshot of a runtime's counters, each the sum over the blocks
        /// that hold it (public API).
        #[derive(Debug, Clone, Default)]
        pub struct RuntimeStats {
            $($(#[$wd])* pub $w: u64,)*
            $($(#[$sd])* pub $s: u64,)*
            $($(#[$rd])* pub $r: u64,)*
            $($(#[$td])* pub $t: u64,)*
            $($(#[$pd])* pub $p: u64,)*
            /// All interruption samples (ns), concatenated across workers.
            pub interrupt_samples_ns: Vec<u64>,
        }

        #[cfg(test)]
        mod table_tests {
            use super::*;

            /// Bumps every counter of the table by an amount of its own in
            /// every block the fold reads — the second worker, shard and
            /// rank slot by 1000× the first's — and finds each amount in its
            /// own `RuntimeStats` field, counted once.
            #[test]
            fn every_counter_is_folded_exactly_once() {
                const K: u64 = 1000;
                let rt = RuntimeInner::new(crate::Config {
                    num_workers: 2,
                    ..crate::Config::default()
                });
                let shards = [0, 1].map(|i| {
                    let sh: &'static ShardCounters = Box::leak(Box::default());
                    publish_shard(i, sh);
                    sh
                });
                let before = RuntimeStats::of(&rt);
                let (w0, w1) = (&rt.workers[0].stats, &rt.workers[1].stats);
                let mut k = 0;
                $(k += 1; w0.$w.fetch_add(k, Ordering::Relaxed); w1.$w.fetch_add(K * k, Ordering::Relaxed);)*
                $(k += 1; shards[0].$s.fetch_add(k, Ordering::Relaxed); shards[1].$s.fetch_add(K * k, Ordering::Relaxed);)*
                $(k += 1; rank_counters(0).$r.fetch_add(k, Ordering::Relaxed); rank_counters(1).$r.fetch_add(K * k, Ordering::Relaxed);)*
                $(k += 1; rt.counters.$t.fetch_add(k, Ordering::Relaxed);)*
                $(k += 1; sync_counters().$p.fetch_add(k, Ordering::Relaxed);)*
                let after = RuntimeStats::of(&rt);
                let mut k = 0;
                $(k += 1; assert_eq!(after.$w - before.$w, (1 + K) * k, stringify!($w));)*
                $(k += 1; assert_eq!(after.$s - before.$s, (1 + K) * k, stringify!($s));)*
                $(k += 1; assert_eq!(after.$r - before.$r, (1 + K) * k, stringify!($r));)*
                $(k += 1; assert_eq!(after.$t - before.$t, k, stringify!($t));)*
                $(k += 1; assert_eq!(after.$p - before.$p, k, stringify!($p));)*
            }
        }
    };
}

counters! {
    worker {
        // First: the block lays its fields out in table order after the
        // boxed ring, so these two fill the bytes the ring's header freed
        // and every other counter keeps its place in `Worker`'s lines.
        /// Idle waits that parked (on the futex or in the shard's
        /// `epoll_wait`), having found no work by spinning.
        idle_parks,
        /// Time idle waits spent spinning on the worker's own pools before
        /// parking or finding work, ns.
        idle_spin_ns,
        /// Completed preemptions (both techniques).
        preemptions,
        /// Preemptions performed via KLT-switching.
        klt_switches,
        /// Captive resumes performed by a worker's scheduler.
        captive_resumes,
        /// Ticks deferred because preemption was disabled (critical
        /// sections).
        deferred_ticks,
        /// Ticks dropped because their KLT no longer embodied the worker.
        stale_ticks,
        /// Ticks suppressed by the echo filter after a recent preemption.
        suppressed_ticks,
        /// KLT-switching attempts aborted for lack of a pooled KLT (each
        /// issues a request to the KLT creator).
        klt_misses,
        /// Preemption ticks (timer signals) whose handler ran on a worker.
        timer_ticks,
        /// Ticks dismissed by the coarse-clock deadline filter before
        /// touching any scheduler state (the cheap "too early" exit).
        filtered_ticks,
        /// Periodic ticks elided: the worker's timer disarmed because it had
        /// ≤1 runnable ULT.
        tick_elisions,
        /// Elided ticks re-armed because work arrived (spawn/ready/steal).
        tick_rearms,
        /// Timer expirations the kernel coalesced (`timer_getoverrun`):
        /// ticks that were generated but never delivered as distinct signals.
        timer_overruns,
        /// KLTs started for a worker (worker 0: the spares) whose
        /// `timer_create` failed; whichever worker such a KLT embodies runs
        /// without ticks meanwhile.
        timer_create_failures,
        /// Threads run to completion.
        completed,
        /// Threads stolen from other workers' pools.
        steals,
        /// Futex unparks issued to a worker (wake-storm regression metric:
        /// the Packing scheduler used to unpark *every* active worker per
        /// ready event).
        unparks,
        /// Adaptive-quantum shrinks (queued latency work or excessive
        /// dispatch delay drove the interval toward the floor).
        quantum_shrinks,
        /// Adaptive-quantum stretches (only throughput work running drove
        /// the interval toward the ceiling).
        quantum_stretches,
        /// Dispatches of `SchedClass::Latency` ULTs.
        latency_dispatches,
        /// Dispatches of `SchedClass::Throughput` ULTs.
        throughput_dispatches,
        /// Preemptions caused by the reactor watcher (`io_hook::io_kick`):
        /// fd readiness took the CPU from a worker's occupant ahead of the
        /// tick.
        io_preempts,
    }
    shard {
        /// Reactor: `epoll_wait` passes (blocking parks + opportunistic
        /// polls).
        io_polls,
        /// Reactor: blocking parks in a shard's `epoll_wait`.
        io_parks,
        /// Reactor: doorbell eventfd rings.
        io_doorbell_rings,
        /// Reactor: readiness deliveries that woke a ULT homed on another
        /// worker.
        io_cross_shard_wakes,
        /// Reactor: fds migrated into a shard by the affinity rebind path.
        io_fd_rebinds,
        /// Reactor: batched-accept drains (one per listener readiness, ≥1
        /// connection each).
        io_batched_accepts,
        /// Reactor: connections accepted via the batched `accept4` loop.
        io_accepted,
        /// Reactor: times a busy worker handed its shard to the watcher
        /// thread (`IoHooks::watch` found it unwatched and armed it).
        io_watch_arms,
        /// Reactor: watcher wake-ups that sent no signal (the owner was
        /// parked in its own `epoll_wait`, had nothing preemptible running,
        /// or its runtime was gone).
        io_watch_skips,
    }
    rank {
        /// Reactor: I/O buffer acquisitions served from a free list.
        io_bufpool_hits,
        /// Reactor: I/O buffer acquisitions that had to allocate.
        io_bufpool_misses,
    }
    runtime {
        /// KLTs created on demand by the KLT-creator thread.
        klts_created,
        /// Finishes that issued a `FUTEX_WAKE`: a KLT outside the runtime
        /// slept in `Ult::wait_finished_external` on the finished thread.
        join_futex_wakes,
        /// Spawns that allocated a fresh ULT descriptor: no finished one
        /// was free in the spawning worker's slab.
        ult_descriptor_allocs,
    }
    process {
        /// MCS mutex: lock handoffs published to a queued successor.
        mcs_handoffs,
        /// MCS mutex: waiters that found the lock taken and parked as ULTs.
        mcs_suspends,
        /// `ult-future`: async tasks spawned (each rides one ULT).
        async_tasks,
        /// `ult-future`: task wakes that claimed a parked ULT
        /// (`make_ready`).
        async_unparks,
        /// `ult-future`: `spawn_blocking` jobs submitted to the offload
        /// pool.
        blocking_jobs,
        /// `ult-future`: offload-pool KLTs spawned (elastic growth).
        blocking_klts_spawned,
        /// `ult-future`: offload-pool KLTs harvested after idling out.
        blocking_klts_harvested,
    }
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

/// Rank slots, and the capacity of `ult-io`'s shard table.
pub const MAX_SHARDS: usize = 64;

/// Reactor shards' counter blocks by shard index (null: no such shard yet).
// ordering: acqrel write-once publication
static SHARDS: [AtomicPtr<ShardCounters>; MAX_SHARDS] =
    [const { AtomicPtr::new(std::ptr::null_mut()) }; MAX_SHARDS];

/// Publish shard `idx`'s counter block; `ult-io` calls this once per shard,
/// as it creates the shard.
pub fn publish_shard(idx: usize, counters: &'static ShardCounters) {
    SHARDS[idx].store(
        counters as *const ShardCounters as *mut ShardCounters,
        Ordering::Release,
    );
}

/// Shard `idx`'s counter block, if that shard exists.
pub fn shard_counters(idx: usize) -> Option<&'static ShardCounters> {
    // SAFETY: published pointers come from `&'static` references.
    SHARDS
        .get(idx)
        .and_then(|p| unsafe { p.load(Ordering::Acquire).as_ref() })
}

static RANKS: [RankCounters; MAX_SHARDS] = [const { RankCounters::new() }; MAX_SHARDS];

/// The counter block of `rank`'s slot (`rank % MAX_SHARDS`).
pub fn rank_counters(rank: usize) -> &'static RankCounters {
    &RANKS[rank % MAX_SHARDS]
}

static PROCESS: ProcessCounters = ProcessCounters::new();

/// The process-wide counters (see the module docs).
pub fn sync_counters() -> &'static ProcessCounters {
    &PROCESS
}

impl RuntimeStats {
    /// Snapshot of `rt`: every block of the runtime, each once.
    pub(crate) fn of(rt: &RuntimeInner) -> RuntimeStats {
        let mut s = RuntimeStats::default();
        for w in rt.workers.iter() {
            w.stats.add_to(&mut s);
            // A shard's canonical rank is its index, so a shard shared by
            // several ranks is folded once, by that one.
            if let Some(sh) = shard_counters(w.rank) {
                sh.add_to(&mut s);
            }
            rank_counters(w.rank).add_to(&mut s);
        }
        rt.counters.add_to(&mut s);
        PROCESS.add_to(&mut s);
        s
    }

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
