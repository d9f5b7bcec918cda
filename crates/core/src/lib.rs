//! # ult-core — lightweight preemptive user-level threads
//!
//! A from-scratch Rust implementation of the M:N user-level threading
//! runtime with implicit preemption from *"Lightweight Preemptive
//! User-Level Threads"* (Shiina, Iwasaki, Taura, Balaji — PPoPP 2021).
//!
//! ## Model
//!
//! "M" user-level threads ([`thread::Ult`], spawned via [`Runtime::spawn`])
//! are multiplexed onto "N" workers, each embodied by a kernel-level thread
//! (KLT). Context switching, scheduling and synchronization happen in user
//! space (~100 ns), but — unlike plain M:N runtimes — threads can also be
//! **implicitly preempted**, restoring the 1:1-thread property that a thread
//! which never yields still cannot starve the others:
//!
//! * **Signal-yield** ([`ThreadKind::SignalYield`], paper §3.1.1): a timer
//!   signal interrupts the thread and the handler context-switches to the
//!   scheduler. Cheap, but requires the thread function to be
//!   KLT-independent (no thread-local state, no glibc-malloc-style caches).
//! * **KLT-switching** ([`ThreadKind::KltSwitching`], paper §3.1.2): the
//!   handler parks the *whole KLT* captive and remaps the worker onto a
//!   pooled KLT, so KLT-local state is never observed by another thread.
//!   Slightly more expensive; safe for arbitrary code.
//! * **Nonpreemptive** ([`ThreadKind::Nonpreemptive`]): the traditional M:N
//!   thread; cheapest, scheduled only at explicit yields.
//!
//! All three kinds coexist in one runtime (paper §3.4). Preemption ticks
//! come from one timer per worker with phases staggered across workers
//! ([`TimerStrategy::PerWorkerAligned`], the paper's §3.2 winner). The
//! timer is that of the KLT embodying the worker: every KLT owns one for
//! life, armed while it embodies a worker, so a KLT switch hands the tick
//! over without creating or deleting a timer. A KLT-switching park is a
//! futex wait and replacement KLTs come from a worker-local pool first
//! (§3.3). The paper's other timer strategies are modelled in
//! `ult-simcore` only.
//!
//! ## Quick start
//!
//! ```
//! use ult_core::{Config, Runtime, ThreadKind, Priority};
//!
//! let rt = Runtime::start(Config { num_workers: 2, ..Config::default() });
//! let h = rt.spawn_with(ThreadKind::SignalYield, Priority::High, || {
//!     let mut acc = 0u64;
//!     for i in 0..1_000 { acc += i; }
//!     acc
//! });
//! assert_eq!(h.join(), 499_500);
//! rt.shutdown();
//! ```

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod api;
pub mod config;
pub mod debug_registry;
pub mod io_hook;
pub(crate) mod klt;
pub mod pool;
pub mod preempt;
pub(crate) mod runtime;
pub(crate) mod sched;
pub mod sigsafe;
pub mod stats;
pub mod thread;
pub mod tls;
pub(crate) mod worker;

pub use api::{
    block_current, blocking_pool_limits, current_thread_id, current_thread_kind,
    current_worker_rank, in_ult, make_ready, preempt_disable, preempt_enable, yield_now, yield_to,
    SpawnAttrs,
};
pub use config::{Config, SchedPolicy, TimerStrategy};
pub use io_hook::{io_kick, kick_worker, reactor_wait_done, register_io_hooks, IoHooks};
pub use runtime::Runtime;
pub use stats::RuntimeStats;
pub use thread::{JoinHandle, Priority, SchedClass, ThreadKind, Ult, UltState};

/// Number of CPUs available to this process.
pub fn sys_cpus() -> usize {
    ult_sys::affinity::num_cpus()
}
