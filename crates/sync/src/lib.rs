//! # ult-sync — ULT-aware synchronization primitives
//!
//! Mutex, condition variable, barrier, semaphore, once-cell and channels
//! whose *blocking parks the user-level thread*, not the kernel thread: a
//! blocked ULT costs one ~100 ns context switch and its worker immediately
//! runs other ULTs (paper §2.1 counts fork/join/yield and synchronization
//! among the operations M:N threads make cheap).
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

pub(crate) mod waitlist {
    //! A small FIFO wait list shared by all primitives.

    use std::collections::VecDeque;
    use std::sync::Arc;
    use ult_core::pool::SpinLock;
    use ult_core::thread::Ult;
    use ult_io::TimedWaiter;

    /// The short lock a primitive keeps around its [`WaitList`]: a spin
    /// lock whose holder is pinned to its worker. A waiter registers from
    /// inside `block_current`, where no tick can preempt it; a wake-up
    /// path (unlock, notify, release) that took the same lock preemptibly
    /// and lost the CPU while holding it would leave that waiter's worker
    /// spinning with nothing able to run the holder again.
    #[derive(Default)]
    pub struct WaitLock {
        // pin-ok: the one raw spin lock in this crate; `lock` pins before it spins
        raw: SpinLock, // lock-order-ok: ranked by the field that wraps it
    }

    impl WaitLock {
        /// New, unlocked.
        pub const fn new() -> WaitLock {
            WaitLock {
                raw: SpinLock::new(),
            }
        }

        /// Pin the calling ULT, then acquire.
        #[inline]
        pub fn lock(&self) {
            ult_core::preempt_disable();
            self.raw.lock();
        }

        /// Release, then unpin.
        #[inline]
        pub fn unlock(&self) {
            self.raw.unlock();
            ult_core::preempt_enable();
        }
    }

    /// One parked waiter.
    ///
    /// Untimed waiters are plain ULTs: waking them always succeeds. Timed
    /// waiters (`wait_timeout` / `acquire_timeout`) race the timer wheel:
    /// the wake can lose the claim CAS to a concurrent deadline expiry, in
    /// which case the entry is dead and the wake must fall through to the
    /// next waiter. Dead entries left behind by an expiry are pruned lazily
    /// by exactly this skip.
    pub enum Waiter {
        /// A plain parked ULT.
        Ult(Arc<Ult>),
        /// A deadline-racing waiter (registered on the timer wheel too).
        Timed(Arc<TimedWaiter>),
    }

    impl Waiter {
        /// Wake this waiter. Returns `false` when the entry was already
        /// claimed by its deadline — the caller should wake the next one.
        pub fn wake(self) -> bool {
            match self {
                Waiter::Ult(t) => {
                    ult_core::make_ready(&t);
                    true
                }
                Waiter::Timed(w) => w.notify(),
            }
        }
    }

    /// FIFO list of parked waiters, protected by the caller's lock.
    #[derive(Default)]
    pub struct WaitList {
        queue: VecDeque<Waiter>,
    }

    impl WaitList {
        /// Empty list.
        pub fn new() -> WaitList {
            WaitList {
                queue: VecDeque::new(),
            }
        }

        /// Register an untimed waiter.
        pub fn push(&mut self, t: Arc<Ult>) {
            self.queue.push_back(Waiter::Ult(t));
        }

        /// Register a timed waiter.
        pub fn push_timed(&mut self, w: Arc<TimedWaiter>) {
            self.queue.push_back(Waiter::Timed(w));
        }

        /// Pop the oldest waiter (possibly a dead timed entry — check
        /// [`Waiter::wake`]'s return).
        pub fn pop(&mut self) -> Option<Waiter> {
            self.queue.pop_front()
        }

        /// Take everything (broadcast).
        pub fn drain(&mut self) -> Vec<Waiter> {
            self.queue.drain(..).collect()
        }

        /// Number of waiters (dead timed entries included until pruned).
        pub fn len(&self) -> usize {
            self.queue.len()
        }

        /// Whether no one is waiting.
        pub fn is_empty(&self) -> bool {
            self.queue.is_empty()
        }
    }
}
