//! The timed-waiter claim protocol.
//!
//! Every blocking I/O or timed wait parks its ULT behind a [`TimedWaiter`]:
//! a tiny shared cell that at most **two** wake sources race for — the event
//! source (fd readiness, condvar notify, semaphore release) and the timer
//! wheel (deadline expiry). ULT descriptors are recycled the moment a thread
//! finishes, so calling `make_ready` twice on one suspension could revive a
//! *different*, already-running thread. The claim CAS makes double-wake
//! structurally impossible: `state` moves `Waiting → Notified` or
//! `Waiting → TimedOut` exactly once, and only the transition winner takes
//! the ULT reference and reschedules it. The loser's copy of the waiter goes
//! stale and is dropped lazily wherever it is next encountered (wheel
//! advance, fd slot swap, wait-queue pop) — cancellation is never chased.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicPtr, AtomicU8, Ordering};
use std::sync::Arc;
use std::task::Waker;
use ult_core::Ult;

const WAITING: u8 = 0;
const NOTIFIED: u8 = 1;
const TIMED_OUT: u8 = 2;

/// A one-shot claimable parking slip for one blocked ULT — or, for the
/// async front end, for one registered task [`Waker`].
///
/// Created per wait, bound to the blocking thread inside its
/// `block_current` registration (or carrying a waker from birth via
/// [`TimedWaiter::new_with_waker`]), then published to up to two wake
/// sources. See the module docs for the protocol.
#[derive(Debug)]
pub struct TimedWaiter {
    /// `Waiting → Notified | TimedOut`, decided by one CAS.
    state: AtomicU8, // ordering: acqrel one-shot claim CAS (module docs)
    /// The parked thread (`Arc::into_raw`), taken by the claim winner.
    ult: AtomicPtr<Ult>, // ordering: acqrel bind-before-publish, swap by claim winner
    /// Async alternative to `ult`: a task waker, written once at
    /// construction (before the waiter is shared) and taken by the claim
    /// winner when no ULT is bound. The claim CAS is the exclusive-taker
    /// guarantee; publication of the construction write rides whatever
    /// synchronized handover gave the wake source its `Arc`.
    waker: UnsafeCell<Option<Waker>>,
}

// SAFETY: `waker` is written only before the waiter is shared and taken
// only by the single claim-CAS winner; all other fields are atomics.
unsafe impl Send for TimedWaiter {}
// SAFETY: as above — no concurrent access to `waker` can exist.
unsafe impl Sync for TimedWaiter {}

impl TimedWaiter {
    /// A fresh unclaimed waiter.
    pub fn new() -> Arc<TimedWaiter> {
        Arc::new(TimedWaiter {
            state: AtomicU8::new(WAITING),
            ult: AtomicPtr::new(std::ptr::null_mut()),
            waker: UnsafeCell::new(None),
        })
    }

    /// A fresh waiter that wakes `waker` when claimed (the async leaf
    /// resources register these instead of parking a ULT). `Waker::wake`
    /// on a `ult-future` task reduces to `make_ready`, so both claim paths
    /// stay reactor-service-context safe.
    pub fn new_with_waker(waker: Waker) -> Arc<TimedWaiter> {
        Arc::new(TimedWaiter {
            state: AtomicU8::new(WAITING),
            ult: AtomicPtr::new(std::ptr::null_mut()),
            waker: UnsafeCell::new(Some(waker)),
        })
    }

    /// Bind the blocking thread. Must happen before the waiter is published
    /// to any wake source (i.e. first thing inside the `block_current`
    /// registration closure).
    pub fn bind(&self, me: &Arc<Ult>) {
        let raw = Arc::into_raw(me.clone()) as *mut Ult;
        let prev = self.ult.swap(raw, Ordering::AcqRel);
        debug_assert!(prev.is_null(), "TimedWaiter bound twice");
    }

    fn finish(&self, outcome: u8) -> bool {
        if self
            .state
            .compare_exchange(WAITING, outcome, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        let raw = self.ult.swap(std::ptr::null_mut(), Ordering::AcqRel);
        if !raw.is_null() {
            // SAFETY: `raw` came from `bind`'s Arc::into_raw; the claim CAS
            // guarantees exactly one taker.
            let t = unsafe { Arc::from_raw(raw as *const Ult) };
            ult_core::make_ready(&t);
        } else {
            // SAFETY: winning the claim CAS makes us the sole taker of the
            // construction-time waker (see the field docs).
            if let Some(w) = unsafe { (*self.waker.get()).take() } {
                w.wake();
            }
        }
        true
    }

    /// Event-source wake: claim the waiter and reschedule its ULT. Returns
    /// `false` if the wait already timed out (the caller should treat this
    /// entry as dead and move on to the next waiter, if any).
    pub fn notify(&self) -> bool {
        self.finish(NOTIFIED)
    }

    /// Timer-wheel wake: claim as timed out and reschedule. Returns `false`
    /// if the event source won.
    pub(crate) fn expire(&self) -> bool {
        self.finish(TIMED_OUT)
    }

    /// Whether this wait ended by deadline. Meaningful once the bound ULT
    /// has resumed (the claim necessarily happened to wake it).
    pub fn timed_out(&self) -> bool {
        self.state.load(Ordering::Acquire) == TIMED_OUT
    }

    /// Whether the waiter is still claimable (unwoken).
    pub(crate) fn is_waiting(&self) -> bool {
        self.state.load(Ordering::Acquire) == WAITING
    }
}

impl Drop for TimedWaiter {
    fn drop(&mut self) {
        let raw = self.ult.swap(std::ptr::null_mut(), Ordering::AcqRel);
        if !raw.is_null() {
            // SAFETY: unclaimed bind reference (aborted registration);
            // releasing the refcount minted by `bind`.
            drop(unsafe { Arc::from_raw(raw as *const Ult) });
        }
    }
}
