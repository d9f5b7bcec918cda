//! The one wait mechanism under every blocking primitive of this crate.
//!
//! A [`WaitQueue`] is a FIFO of parked waiters behind a spin lock. A
//! primitive keeps its own state in atomics and uses the queue for the two
//! halves of blocking:
//!
//! * the waiter calls [`WaitQueue::wait`] with a `ready` closure that tries
//!   to take what it wants (a CAS on the primitive's state). The first call
//!   of `ready`, and every call whose failure parks the waiter, runs **under
//!   the queue lock**, and a waiter that is not ready is published **before
//!   the lock is released** (a woken waiter first looks again without it);
//! * the waker changes the primitive's state first and then calls
//!   [`WaitQueue::wake_one`] / [`WaitQueue::wake_all`], which take the same
//!   lock. It therefore either runs before the waiter's check (which then
//!   sees the new state) or after its publication (and pops it): a wake-up
//!   is never lost (`ult-model`: `waitqueue_park_vs_wake`).
//!
//! The lock holder is pinned to its worker. An untimed waiter publishes from
//! inside `block_current`, where no tick can preempt it, and a timed one
//! from the first poll of `ult_io::block_until`'s future, under the same
//! pin; a waker that took the same lock preemptibly and lost the CPU while
//! holding it would leave that waiter's worker spinning with nothing able
//! to run the holder again. The
//! queue's buffer grows and is freed only inside pinned sections, so the
//! untimed paths allocate nothing a signal-yield ULT could be preempted in.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;
use ult_core::pool::SpinLock;
use ult_core::thread::Ult;
use ult_io::TimedWaiter;

/// One parked waiter.
enum Waiter {
    /// Untimed: a plain parked ULT; waking it always succeeds.
    Ult(Arc<Ult>),
    /// Timed: also on the timer wheel, which may have claimed it already.
    Timed(Arc<TimedWaiter>),
}

impl Waiter {
    /// Wake this waiter. `false` when its deadline claimed it first: the
    /// entry is dead and the wake-up belongs to the next waiter.
    fn wake(self) -> bool {
        match self {
            Waiter::Ult(t) => {
                ult_core::make_ready(&t);
                true
            }
            Waiter::Timed(w) => w.notify(),
        }
    }
}

/// FIFO of parked waiters and the pinned spin lock that guards it.
pub(crate) struct WaitQueue {
    // pin-ok: the one raw spin lock in this crate; `locked` pins before it spins
    raw: SpinLock, // lock-order-ok: ranked by the field that wraps it
    queue: UnsafeCell<VecDeque<Waiter>>,
}

// SAFETY: `queue` is only reached through `locked`, i.e. with `raw` held.
unsafe impl Send for WaitQueue {}
// SAFETY: as above.
unsafe impl Sync for WaitQueue {}

/// Absolute `CLOCK_MONOTONIC` deadline `dur` from now, for [`WaitQueue::wait`].
pub(crate) fn deadline_after(dur: Duration) -> u64 {
    ult_sys::now_ns().saturating_add(dur.as_nanos().min(u64::MAX as u128) as u64)
}

impl WaitQueue {
    /// Empty queue.
    pub(crate) const fn new() -> WaitQueue {
        WaitQueue {
            raw: SpinLock::new(),
            queue: UnsafeCell::new(VecDeque::new()),
        }
    }

    /// Pin the caller, then run `f` on the queue with the lock held.
    fn locked<R>(&self, f: impl FnOnce(&mut VecDeque<Waiter>) -> R) -> R {
        ult_core::preempt_disable();
        self.raw.lock();
        // SAFETY: `raw` is held, so this is the only reference to the queue.
        let r = f(unsafe { &mut *self.queue.get() });
        self.raw.unlock();
        ult_core::preempt_enable();
        r
    }

    /// Under the lock: evaluate `ready` and, if it fails, publish `waiter()`.
    /// Returns whether the caller has to park.
    fn publish_unless(
        &self,
        ready: &mut impl FnMut() -> bool,
        waiter: impl FnOnce() -> Waiter,
    ) -> bool {
        self.locked(|q| {
            let park = !ready();
            if park {
                q.push_back(waiter());
            }
            park
        })
    }

    /// Block until `ready` returns `true` (→ `true`) or `deadline`, absolute
    /// `CLOCK_MONOTONIC` ns, passes with `ready` still failing (→ `false`).
    /// `ready` is re-evaluated after every wake-up, so spurious and outraced
    /// wake-ups (a barger took the permit) park again. It must be safe to
    /// call with or without the queue lock; what it may rely on is that its
    /// first call is under the lock.
    ///
    /// A ULT parks: untimed as its own `Arc<Ult>`, timed through the
    /// `ult-io` future driver and timer wheel (`block_until`; a notify that
    /// lands before the driver parks is absorbed by the driver's claim
    /// machine). Outside the runtime there is no ULT to park and
    /// the KLT must not sleep on a ULT primitive, so the caller polls
    /// `ready` with OS yields.
    pub(crate) fn wait(&self, deadline: Option<u64>, mut ready: impl FnMut() -> bool) -> bool {
        if !ult_core::in_ult() {
            loop {
                if self.locked(|_| ready()) {
                    return true;
                }
                if deadline.is_some_and(|d| ult_sys::now_ns() >= d) {
                    return false;
                }
                std::thread::yield_now();
            }
        }
        loop {
            // Lives on the ULT's own stack, so it survives a KLT migration.
            let mut parked = false;
            let timed_out = match deadline {
                None => {
                    ult_core::block_current(|me| {
                        parked = self.publish_unless(&mut ready, || Waiter::Ult(me.clone()));
                        parked
                    });
                    false
                }
                Some(d) => ult_io::block_until(d, |w| {
                    parked = self.publish_unless(&mut ready, || Waiter::Timed(w.clone()));
                    parked
                }),
            };
            // Not parked: `ready` held under the lock. Woken or timed out: look
            // again (a wake-up that lost the claim to the deadline moved on and
            // may have left what `ready` wants behind). This look needs no
            // lock: only a failure that leads to publishing has to be atomic
            // with it, and that one is the next round's, under the lock.
            if !parked || ready() {
                return true;
            }
            if timed_out {
                return false;
            }
        }
    }

    /// Wake the oldest live waiter; `false` if there is none. Entries whose
    /// deadline already claimed them are dropped on the way, so a wake-up is
    /// never spent on a corpse.
    pub(crate) fn wake_one(&self) -> bool {
        while let Some(w) = self.locked(|q| q.pop_front()) {
            if w.wake() {
                return true;
            }
        }
        false
    }

    /// Wake every waiter. Pinned to the end: the emptied buffer is freed
    /// here, and a signal-yield ULT must not lose its KLT inside `free`
    /// (paper §3.1.1: such a thread has to be KLT-independent).
    pub(crate) fn wake_all(&self) {
        ult_core::preempt_disable();
        for w in self.locked(std::mem::take) {
            w.wake();
        }
        ult_core::preempt_enable();
    }

    /// Number of queued entries (dead timed ones included until a wake
    /// drops them).
    pub(crate) fn len(&self) -> usize {
        self.locked(|q| q.len())
    }
}
