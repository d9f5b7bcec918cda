//! The timed-waiter claim protocol.
//!
//! Every blocking I/O or timed wait registers a [`TimedWaiter`]: a tiny
//! shared cell that at most **two** wake sources race for — the event
//! source (fd readiness, condvar notify, semaphore release) and the timer
//! wheel (deadline expiry). The claim CAS makes a double wake structurally
//! impossible: `state` moves `Waiting → Notified` or `Waiting → TimedOut`
//! exactly once, and only the transition winner takes the waker and wakes
//! it. The waker is a task's — for a parked ULT, the future driver's
//! (`task.rs`), whose own claim machine turns the wake into one
//! `make_ready`. The loser's copy of the waiter goes stale and is dropped
//! lazily wherever it is next encountered (wheel advance, fd slot swap,
//! wait-queue pop) — cancellation is never chased.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::task::Waker;

const WAITING: u8 = 0;
const NOTIFIED: u8 = 1;
const TIMED_OUT: u8 = 2;

/// A one-shot claimable wake-up slip for one registered task [`Waker`].
///
/// Created per wait with the waker it will wake, then published to up to
/// two wake sources. See the module docs for the protocol.
#[derive(Debug)]
pub struct TimedWaiter {
    /// `Waiting → Notified | TimedOut`, decided by one CAS.
    state: AtomicU8, // ordering: acqrel one-shot claim CAS (module docs)
    /// Written once at construction (before the waiter is shared) and
    /// taken by the claim winner. The claim CAS is the exclusive-taker
    /// guarantee; publication of the construction write rides whatever
    /// synchronized handover gave the wake source its `Arc`.
    waker: UnsafeCell<Option<Waker>>,
}

// SAFETY: `waker` is written only before the waiter is shared and taken
// only by the single claim-CAS winner; `state` is an atomic.
unsafe impl Send for TimedWaiter {}
// SAFETY: as above — no concurrent access to `waker` can exist.
unsafe impl Sync for TimedWaiter {}

impl TimedWaiter {
    /// A fresh waiter that wakes `waker` when claimed. `Waker::wake` on a
    /// driven task reduces to `make_ready`, so the claim stays
    /// reactor-service-context safe.
    pub fn new_with_waker(waker: Waker) -> Arc<TimedWaiter> {
        Arc::new(TimedWaiter {
            state: AtomicU8::new(WAITING),
            waker: UnsafeCell::new(Some(waker)),
        })
    }

    fn finish(&self, outcome: u8) -> bool {
        if self
            .state
            .compare_exchange(WAITING, outcome, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        // SAFETY: winning the claim CAS makes us the sole taker of the
        // construction-time waker (see the field docs).
        if let Some(w) = unsafe { (*self.waker.get()).take() } {
            w.wake();
        }
        true
    }

    /// Event-source wake: claim the waiter and wake its task. Returns
    /// `false` if the wait already timed out (the caller should treat this
    /// entry as dead and move on to the next waiter, if any).
    pub fn notify(&self) -> bool {
        self.finish(NOTIFIED)
    }

    /// Timer-wheel wake: claim as timed out and wake. Returns `false` if
    /// the event source won.
    pub(crate) fn expire(&self) -> bool {
        self.finish(TIMED_OUT)
    }

    /// Whether this wait ended by deadline. Meaningful once the waiter has
    /// been claimed (the claim necessarily happened to wake the task).
    pub fn timed_out(&self) -> bool {
        self.state.load(Ordering::Acquire) == TIMED_OUT
    }

    /// Whether the waiter is still claimable (unwoken).
    pub(crate) fn is_waiting(&self) -> bool {
        self.state.load(Ordering::Acquire) == WAITING
    }
}
