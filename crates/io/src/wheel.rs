//! Hashed timer wheel.
//!
//! All deadlines in the process — `io::sleep`, per-op socket deadlines,
//! `Condvar::wait_timeout` / `Semaphore::acquire_timeout` — live in one
//! wheel of [`SLOTS`] buckets hashed by `deadline / TICK_NS`. The poller
//! derives its `epoll_wait` timeout from the earliest pending deadline and
//! fires due entries on every reactor service pass ([`TimerWheel::advance`]),
//! so timer resolution is the tick granularity (~1 ms) plus however long the
//! busiest worker goes between dispatch boundaries — bounded by the
//! preemption interval when preemption is on.
//!
//! Entries are `(deadline, waiter)` pairs; a waiter already claimed by its
//! event source (see [`crate::TimedWaiter`]) is dropped on sight instead of
//! fired — cancellation is lazy, insertion never needs a removal handle.
//! Firing claims the waiter and wakes its task's waker.

use crate::waiter::TimedWaiter;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bucket count (power of two).
const SLOTS: usize = 256;
/// Bucket width: 2^20 ns ≈ 1.05 ms, matching the default preempt interval.
const TICK_NS: u64 = 1 << 20;

struct WheelInner {
    slots: Vec<Vec<(u64, Arc<TimedWaiter>)>>,
    /// Reusable buffer for due entries (fired outside the lock).
    scratch: Vec<Arc<TimedWaiter>>,
}

/// The process-wide deadline container. See module docs.
pub(crate) struct TimerWheel {
    inner: Mutex<WheelInner>,
    /// Earliest pending deadline (u64::MAX = empty). Written only under
    /// `inner`'s lock; read lock-free by the poller's timeout computation.
    earliest: AtomicU64,
}

impl TimerWheel {
    pub(crate) fn new() -> TimerWheel {
        TimerWheel {
            inner: Mutex::new(WheelInner {
                slots: (0..SLOTS).map(|_| Vec::new()).collect(),
                scratch: Vec::new(),
            }),
            earliest: AtomicU64::new(u64::MAX),
        }
    }

    /// Insert a deadline (absolute `CLOCK_MONOTONIC` ns). Returns `true`
    /// when this became the new earliest deadline — the caller must then
    /// ring the reactor doorbell so a parked poller shortens its timeout.
    pub(crate) fn insert(&self, deadline_ns: u64, w: Arc<TimedWaiter>) -> bool {
        let mut inner = self.inner.lock();
        let slot = (deadline_ns / TICK_NS) as usize % SLOTS;
        inner.slots[slot].push((deadline_ns, w));
        let prev = self.earliest.load(Ordering::Acquire);
        if deadline_ns < prev {
            self.earliest.store(deadline_ns, Ordering::Release);
            true
        } else {
            false
        }
    }

    /// Fire every entry with `deadline <= now`; prune claimed entries.
    /// Returns the number of waiters that actually timed out.
    pub(crate) fn advance(&self, now_ns: u64) -> usize {
        if self.earliest.load(Ordering::Acquire) > now_ns {
            return 0;
        }
        let mut due = {
            let mut inner = self.inner.lock();
            let mut scratch = std::mem::take(&mut inner.scratch);
            let mut new_earliest = u64::MAX;
            for slot in inner.slots.iter_mut() {
                slot.retain(|(deadline, w)| {
                    if !w.is_waiting() {
                        return false; // claimed by its event source
                    }
                    if *deadline <= now_ns {
                        scratch.push(w.clone());
                        return false;
                    }
                    new_earliest = new_earliest.min(*deadline);
                    true
                });
            }
            self.earliest.store(new_earliest, Ordering::Release);
            scratch
        };
        // Fire outside the lock: expire → Waker::wake → make_ready → pool
        // push + unpark, none of which may run under the wheel mutex while
        // an inserter on another worker wants it.
        let mut fired = 0;
        for w in due.drain(..) {
            if w.expire() {
                fired += 1;
            }
        }
        self.inner.lock().scratch = due;
        fired
    }

    /// `epoll_wait` timeout until the next deadline: `-1` when the wheel is
    /// empty, `0` when a deadline is already due, else milliseconds rounded
    /// *up* (a timeout rounded down would wake one tick early forever).
    pub(crate) fn next_timeout_ms(&self, now_ns: u64) -> i32 {
        let e = self.earliest.load(Ordering::Acquire);
        if e == u64::MAX {
            return -1;
        }
        if e <= now_ns {
            return 0;
        }
        ((e - now_ns).div_ceil(1_000_000)).min(i32::MAX as u64) as i32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::task::Waker;

    fn waiter() -> Arc<TimedWaiter> {
        TimedWaiter::new_with_waker(Waker::noop().clone())
    }

    #[test]
    fn fires_in_deadline_order_across_slots() {
        let wheel = TimerWheel::new();
        // Two deadlines a full wheel revolution apart hash to nearby slots;
        // only the earlier one may fire at its time.
        let near = 10 * TICK_NS;
        let far = near + (SLOTS as u64) * TICK_NS;
        let w_near = waiter();
        let w_far = waiter();
        assert!(wheel.insert(near, w_near.clone()));
        assert!(!wheel.insert(far, w_far.clone()));
        assert_eq!(wheel.advance(near), 1);
        assert!(w_near.timed_out());
        assert!(!w_far.timed_out());
        assert_eq!(wheel.advance(far), 1);
        assert!(w_far.timed_out());
    }

    #[test]
    fn claimed_entries_are_pruned_not_fired() {
        let wheel = TimerWheel::new();
        let w = waiter();
        wheel.insert(5 * TICK_NS, w.clone());
        assert!(w.notify(), "event source claims first");
        assert_eq!(wheel.advance(u64::MAX - 1), 0);
        assert!(!w.timed_out());
    }

    #[test]
    fn timeout_rounds_up_and_signals_new_earliest() {
        let wheel = TimerWheel::new();
        assert_eq!(wheel.next_timeout_ms(0), -1);
        wheel.insert(2_500_000, waiter());
        assert_eq!(wheel.next_timeout_ms(1_000_000), 2); // 1.5ms → 2ms
        assert_eq!(wheel.next_timeout_ms(3_000_000), 0); // already due
                                                         // A later deadline does not lower `earliest`.
        assert!(!wheel.insert(9_000_000, waiter()));
        // An earlier one does.
        assert!(wheel.insert(1_000_000, waiter()));
    }

    #[test]
    fn earliest_recomputed_after_advance() {
        let wheel = TimerWheel::new();
        wheel.insert(1_000, waiter());
        wheel.insert(50 * TICK_NS, waiter());
        wheel.advance(2_000);
        // Remaining deadline governs the next timeout.
        assert_eq!(
            wheel.next_timeout_ms(0),
            (50 * TICK_NS).div_ceil(1_000_000) as i32
        );
    }
}
