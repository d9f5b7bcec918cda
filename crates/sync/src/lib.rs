//! # ult-sync — ULT-aware synchronization primitives
//!
//! Mutex, condition variable, barrier, semaphore, once-cell and channels
//! whose *blocking parks the user-level thread*, not the kernel thread: a
//! blocked ULT costs one ~100 ns context switch and its worker immediately
//! runs other ULTs (paper §2.1 counts fork/join/yield and synchronization
//! among the operations M:N threads make cheap).
//!
//! [`Mutex`], [`Condvar`], [`Semaphore`], [`RwLock`], [`Barrier`] and
//! [`WaitGroup`] all park and wake through one crate-private wait queue
//! (`waitqueue.rs`, contract in its module docs); [`McsMutex`] and
//! [`oneshot()`] keep lock-free claim machines of their own. A oneshot's
//! waiter is a task waker, and its blocking `recv` is `ult_io::block_on`
//! of the receiver.
//!
//! Two barrier flavors matter for the paper's evaluation:
//!
//! * [`Barrier`] — blocking; the well-behaved citizen.
//! * [`SpinBarrier`] — busy-waits on a memory flag *without yielding*,
//!   modeling Intel MKL's team synchronization. On nonpreemptive M:N
//!   threads an oversubscribed [`SpinBarrier`] deadlocks; with preemptive
//!   threads it merely wastes a time slice (paper §4.1). It also offers a
//!   yielding mode reproducing the authors' reverse-engineered MKL patch.

#![deny(missing_docs)]

pub mod barrier;
pub mod channel;
pub mod condvar;
pub mod mcs;
pub mod mutex;
pub mod once;
pub mod oneshot;
pub mod rwlock;
pub mod semaphore;
pub mod waitgroup;
mod waitqueue;

pub use barrier::{Barrier, SpinBarrier, SpinMode};
pub use channel::{channel, Receiver, Sender};
pub use condvar::Condvar;
pub use mcs::{McsGuard, McsMutex};
pub use mutex::{Mutex, MutexGuard};
pub use once::Once;
pub use oneshot::{oneshot, RecvError};
pub use rwlock::{ReadGuard, RwLock, WriteGuard};
pub use semaphore::Semaphore;
pub use waitgroup::WaitGroup;
