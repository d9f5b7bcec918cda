//! # ult-future — a Future executor on preemptible ULTs
//!
//! Rust async runtimes conventionally multiplex tasks cooperatively: a
//! task that computes between `await`s starves its neighbors. This crate
//! takes the opposite trade, made possible by the preemptive runtime
//! underneath: **every async task is one ULT**, so the scheduler's timer
//! preemption, priorities and scheduling classes apply to async code
//! unchanged — an async task stuck in a compute loop gets preempted like
//! any other thread, and `.await` points are merely *additional* (free)
//! scheduling opportunities.
//!
//! * [`spawn`] / [`spawn_attrs`] — run a future on a fresh ULT; the
//!   returned [`JoinHandle`] is itself awaitable (and joinable from
//!   non-async ULTs or external threads).
//! * [`block_on`] — drive a future on the current ULT (or, outside the
//!   runtime, on the current OS thread) to completion (re-exported from
//!   `ult-io`, which parks every blocking socket and timed wait with it).
//! * [`spawn_blocking`] — offload unavoidably-blocking work to an elastic
//!   pool of plain KLTs (see [`blocking`]) so it never captures a worker.
//! * Leaf resources — [`AsyncTcpListener`] / [`AsyncTcpStream`] over the
//!   sharded epoll reactor, and [`sleep`] on the per-shard timer wheel
//!   (re-exported from `ult-io`).
//!
//! Under the hood there is no poll loop and no task queue: a `Pending`
//! task parks its ULT through the runtime's ordinary
//! `block_current`/`make_ready` pair, and `Waker::wake` reduces to
//! `make_ready` (see `ult-io`'s `task.rs` for the claim state machine that
//! makes a wake racing a pending park lossless).
//!
//! ## Quick start
//!
//! ```no_run
//! use ult_core::{Config, Runtime};
//!
//! let rt = Runtime::start(Config { num_workers: 2, ..Config::default() });
//! let h = rt.spawn(|| {
//!     ult_future::block_on(async {
//!         let t = ult_future::spawn(async { 21 * 2 });
//!         let hashed = ult_future::spawn_blocking(|| 7u64.pow(2));
//!         ult_future::sleep(std::time::Duration::from_millis(1)).await;
//!         t.await + hashed.await
//!     })
//! });
//! assert_eq!(h.join(), 42 + 49);
//! rt.shutdown();
//! ```

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod blocking;

use std::any::Any;
use std::future::Future;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::Ordering;
use std::task::{Context, Poll};
use ult_core::SpawnAttrs;
use ult_sync::oneshot::{self, Receiver};

pub use blocking::spawn_blocking;
pub use ult_io::{block_on, AsyncTcpListener, AsyncTcpStream, Sleep};

/// A panic payload carried out of a task or a `spawn_blocking` job.
type Payload = Box<dyn Any + Send + 'static>;

/// Handle to a spawned async task or offloaded blocking job.
///
/// Await it from async code, or [`JoinHandle::join`] it from a plain ULT
/// or an external thread. Dropping the handle detaches the task (it keeps
/// running; its result is discarded). If the task panicked, awaiting or
/// joining resumes the panic in the consumer.
pub struct JoinHandle<T> {
    pub(crate) rx: Receiver<std::thread::Result<T>>,
}

impl<T: Send + 'static> JoinHandle<T> {
    /// Block until the task finishes and take its result. Inside the
    /// runtime this parks the calling ULT; outside it parks the OS thread.
    ///
    /// # Panics
    /// Resumes the task's panic, if it panicked.
    // ult-context
    pub fn join(self) -> T {
        match self.rx.recv() {
            Ok(Ok(v)) => v,
            Ok(Err(payload)) => resume_unwind(payload),
            Err(_) => unreachable!("task exited without reporting a result"),
        }
    }
}

impl<T: Send + 'static> Future for JoinHandle<T> {
    type Output = T;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        match Pin::new(&mut self.rx).poll(cx) {
            Poll::Pending => Poll::Pending,
            Poll::Ready(Ok(Ok(v))) => Poll::Ready(v),
            Poll::Ready(Ok(Err(payload))) => resume_unwind(payload),
            Poll::Ready(Err(_)) => unreachable!("task exited without reporting a result"),
        }
    }
}

/// Spawn `fut` as an async task on a fresh ULT with default attributes
/// (nonpreemptive kind, high priority, Normal class).
///
/// Must be called from inside the runtime (a ULT or a worker context);
/// panics otherwise. Use [`spawn_attrs`] to pick the preemption kind,
/// priority, scheduling class or home pool.
// ult-context
pub fn spawn<F>(fut: F) -> JoinHandle<F::Output>
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    spawn_attrs(SpawnAttrs::new(), fut)
}

/// [`spawn`] with explicit [`SpawnAttrs`] — async tasks are ordinary ULTs,
/// so every scheduling knob (preemption kind, priority, class, home pool)
/// applies to them unchanged.
// ult-context
pub fn spawn_attrs<F>(attrs: SpawnAttrs, fut: F) -> JoinHandle<F::Output>
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    ult_core::stats::sync_counters()
        .async_tasks
        .fetch_add(1, Ordering::Relaxed);
    let (tx, rx) = oneshot::oneshot();
    // Detach the underlying ULT handle: task lifetime is tracked by the
    // oneshot, and a kept JoinHandle would pin the ULT's descriptor, which
    // a detached ULT leaves to the finishing worker for its next spawn.
    drop(ult_core::api::spawn_attrs(attrs, move || {
        tx.send(catch_unwind(AssertUnwindSafe(|| block_on(fut))));
    }));
    JoinHandle { rx }
}

/// Sleep this async task for `dur` on the reactor's sharded timer wheel.
/// Equivalent to `ult_io::sleep_future` — re-exported here so async code
/// has one front door.
pub fn sleep(dur: std::time::Duration) -> Sleep {
    ult_io::sleep_future(dur)
}

/// Discard a panic payload's type for tests: `true` if `p` is a `&str` or
/// `String` equal to `s`.
#[doc(hidden)]
pub fn payload_is(p: &Payload, s: &str) -> bool {
    p.downcast_ref::<&str>().map(|m| *m == s).unwrap_or(false)
        || p.downcast_ref::<String>().map(|m| m == s).unwrap_or(false)
}
