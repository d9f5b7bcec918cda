//! # ult-sys
//!
//! Thin, safe(-ish) wrappers over the POSIX/Linux interfaces that the
//! preemption techniques of the paper are built from:
//!
//! * [`signal`] — `sigaction` installation, per-thread signal masks, and
//!   directed delivery via `tgkill` (the tick-elision nudge and the
//!   reactor watcher's kick).
//! * [`timer`] — POSIX interval timers (`timer_create`) with Linux's
//!   `SIGEV_THREAD_ID` extension for per-worker timers (paper §3.2.1).
//! * [`futex`] — 32-bit futex wait/wake, the async-signal-safe KLT
//!   suspend/resume primitive of optimized KLT-switching (paper §3.3.1).
//! * [`epoll`] / [`eventfd`] — the reactor substrate: one-shot
//!   level-triggered readiness multiplexing plus an async-signal-safe
//!   doorbell for waking a worker parked in `epoll_wait`.
//! * [`sockio`] — batched `accept4` and vectored `readv`/`writev` for the
//!   reactor's data paths; nonblocking by contract.
//! * [`tid`] — kernel thread ids.
//! * [`clock`] — monotonic nanosecond clock (async-signal-safe), used for
//!   all interruption-time statistics.
//! * [`affinity`] — CPU pinning of workers (the paper pins workers to cores).
//!
//! Everything here is usable from a signal handler unless documented
//! otherwise; that constraint is what forces futex/tgkill rather than
//! condvars/`pthread_create` in the preemption paths (paper §3.1.2).

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod affinity;
pub mod clock;
pub mod epoll;
pub mod eventfd;
pub mod futex;
pub mod signal;
pub mod sockio;
pub mod tid;
pub mod timer;

pub use clock::{coarse_resolution_ns, now_coarse_ns, now_ns};
pub use epoll::{Epoll, Event as EpollEvent, EV_READ, EV_WRITE};
pub use eventfd::EventFd;
pub use futex::Futex;
pub use signal::{
    block_signal, install_handler, install_handler_info, preempt_signum, send_signal,
    unblock_signal,
};
pub use tid::{gettid, Tid};
pub use timer::IntervalTimer;
