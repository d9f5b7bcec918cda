//! # ult-io — epoll reactor and timer wheel for the ULT runtime
//!
//! The runtime of `ult-core` can preempt compute, but a ULT that called a
//! blocking socket syscall would still capture its whole KLT — one rogue
//! `read(2)` and an entire worker is gone. This crate closes that hole and
//! turns the runtime into a network server substrate (the ROADMAP's "serve
//! heavy traffic" north star, and the request-tail-latency argument of
//! LibPreemptible):
//!
//! * **Sharded reactor** ([`reactor`]-internal): one epoll instance +
//!   eventfd doorbell + timer wheel **per worker**, hooked into the worker
//!   idle loop via [`ult_core::IoHooks`]. When a worker finds no runnable
//!   ULT it parks in *its own shard's* `epoll_wait` instead of its futex —
//!   no global poller slot, no CAS to claim it — and busy workers service
//!   their shard opportunistically at dispatch boundaries (rate-limited
//!   zero-timeout polls). A ULT blocked on I/O therefore never holds a
//!   KLT, and fds follow the ULTs that wait on them: a socket registers
//!   with the shard of the worker that first blocks on it and cheaply
//!   rebinds after a migration, so readiness fires where it is consumed.
//! * **Sockets** ([`TcpListener`], [`TcpStream`], [`UdpSocket`] and the
//!   async [`AsyncTcpListener`], [`AsyncTcpStream`]): one op core over
//!   nonblocking fds with two faces. A `WouldBlock` registers the task's
//!   waker for readiness (and the op's deadline) and returns `Pending`;
//!   the blocking `std::net`-shaped face is [`block_on`] of that op, so
//!   the ULT parks through the future driver and fd readiness re-pushes it
//!   to its home worker. Listeners drain bursty backlogs in one park via
//!   [`TcpListener::accept_batch`]; streams do scatter/gather I/O via
//!   [`TcpStream::read_vectored`] / [`TcpStream::write_vectored`].
//! * **Future driver** ([`block_on`]): the one way this crate parks a ULT.
//!   A pending future parks its ULT through a four-state waker claim
//!   machine; sockets, timed waits, `ult-sync`'s `oneshot` and every
//!   `ult-future` task are driven by it.
//! * **Buffer pool** ([`IoBuf`]): per-worker recycled scratch buffers with
//!   a bounded global overflow list — request handlers get allocation-free
//!   buffers in steady state.
//! * **Timer wheel** ([`sleep`], [`block_until`]): hashed-wheel deadlines
//!   (one wheel per shard, serviced by its owner) driving `io::sleep`,
//!   per-op socket timeouts, and the `wait_timeout` variants in
//!   `ult-sync`. The [`TimedWaiter`] claim CAS arbitrates event-vs-deadline
//!   races so a waiting task is woken exactly once.
//!
//! ## Quick start
//!
//! ```no_run
//! use ult_core::{Config, Runtime};
//!
//! let rt = Runtime::start(Config { num_workers: 2, ..Config::default() });
//! let h = rt.spawn(|| {
//!     let ln = ult_io::TcpListener::bind("127.0.0.1:0").unwrap();
//!     let (s, _peer) = ln.accept().unwrap(); // suspends this ULT, not a KLT
//!     let mut buf = [0u8; 512];
//!     let n = s.read(&mut buf).unwrap();
//!     s.write_all(&buf[..n]).unwrap(); // echo
//! });
//! h.join();
//! rt.shutdown();
//! ```

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod anet;
mod bufpool;
mod net;
mod reactor;
mod task;
mod time;
mod waiter;
mod wheel;

pub use anet::{AsyncTcpListener, AsyncTcpStream};
pub use bufpool::{IoBuf, BUF_CAPACITY};
pub use net::{TcpListener, TcpStream, UdpSocket};
pub use reactor::{configure_shards, MAX_SHARDS};
pub use task::block_on;
pub use time::{block_for, block_until, sleep, sleep_future, sleep_until_ns, Sleep};
pub use waiter::TimedWaiter;

/// Force reactor initialization (epoll/eventfd creation and hook
/// registration into `ult-core`) for the calling worker's shard — other
/// shards materialize lazily as their workers park or poll. Optional —
/// every socket, sleep or timed wait initializes lazily — but useful to
/// move the one-time setup cost out of a latency-sensitive path.
pub fn init() {
    let _ = reactor::current_shard();
}
