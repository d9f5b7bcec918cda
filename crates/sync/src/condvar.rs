//! A ULT-blocking condition variable paired with [`crate::Mutex`].

use crate::mutex::{Mutex, MutexGuard};
use crate::waitqueue::{deadline_after, WaitQueue};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Condition variable: `wait` releases the mutex and parks the ULT;
/// `notify_one`/`notify_all` reschedule waiters. Callable from outside the
/// runtime too (the waiter then polls the notify epoch with OS yields).
pub struct Condvar {
    // lock-order: 30 condvar_waiters
    waiters: WaitQueue,
    /// Bumped by every notify. A waiter records it while it still holds the
    /// mutex and is done once it has moved.
    epoch: AtomicUsize,
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

impl Condvar {
    /// New condition variable with no waiters.
    pub fn new() -> Condvar {
        Condvar {
            waiters: WaitQueue::new(),
            epoch: AtomicUsize::new(0),
        }
    }

    /// Release `guard`, wait for a notify or for `deadline`, re-acquire.
    /// Returns the guard and whether the wait timed out.
    fn wait_until<'a, T: ?Sized>(
        &self,
        guard: MutexGuard<'a, T>,
        deadline: Option<u64>,
    ) -> (MutexGuard<'a, T>, bool) {
        let mutex: &'a Mutex<T> = MutexGuard::mutex(&guard);
        let mut guard = Some(guard);
        let mut epoch = 0;
        let notified = self.waiters.wait(deadline, || match guard.take() {
            // First call: release the mutex under the queue lock, so that a
            // notifier which takes the mutex now cannot reach the queue
            // before this waiter is on it.
            Some(g) => {
                epoch = self.epoch.load(Ordering::Acquire);
                drop(g);
                false
            }
            None => self.epoch.load(Ordering::Acquire) != epoch,
        });
        (mutex.lock(), !notified)
    }

    /// Atomically release `guard`, park the calling ULT, and re-acquire the
    /// mutex before returning. Spurious wakeups are possible (as with every
    /// condvar); callers loop on their predicate.
    pub fn wait<'a, T: ?Sized>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.wait_until(guard, None).0
    }

    /// Like [`Condvar::wait`], but give up once `dur` elapses. Returns the
    /// re-acquired guard and `true` if the wait **timed out** (no
    /// notification claimed this waiter before its deadline).
    ///
    /// Backed by `ult-io`'s timer wheel: the waiter is pushed onto the wait
    /// list *and* scheduled on the wheel; whichever of notify/expiry wins
    /// the claim CAS wakes the ULT, and the loser's list entry is pruned
    /// lazily by the next `notify_one`. Spurious wakeups are possible, as
    /// with `wait`; callers loop on their predicate (or use
    /// [`Condvar::wait_timeout_while`]).
    pub fn wait_timeout<'a, T: ?Sized>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        self.wait_until(guard, Some(deadline_after(dur)))
    }

    /// Wait with a timeout until `pred` stops holding. Returns `true` in
    /// the flag position if the deadline passed with `pred` still true.
    pub fn wait_timeout_while<'a, T: ?Sized, F>(
        &self,
        mut guard: MutexGuard<'a, T>,
        dur: std::time::Duration,
        mut pred: F,
    ) -> (MutexGuard<'a, T>, bool)
    where
        F: FnMut(&mut T) -> bool,
    {
        let deadline = std::time::Instant::now() + dur;
        while pred(&mut *guard) {
            let now = std::time::Instant::now();
            if now >= deadline {
                return (guard, true);
            }
            guard = self.wait_timeout(guard, deadline - now).0;
        }
        (guard, false)
    }

    /// Wait until `pred` holds.
    pub fn wait_while<'a, T: ?Sized, F>(
        &self,
        mut guard: MutexGuard<'a, T>,
        mut pred: F,
    ) -> MutexGuard<'a, T>
    where
        F: FnMut(&mut T) -> bool,
    {
        while pred(&mut *guard) {
            guard = self.wait(guard);
        }
        guard
    }

    /// Wake one waiter. A `wait_timeout` entry that already belongs to its
    /// deadline absorbs no notification: the queue moves on to the next
    /// live waiter.
    pub fn notify_one(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
        self.waiters.wake_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
        self.waiters.wake_all();
    }

    /// Number of parked waiters (diagnostic; racy by nature).
    pub fn waiter_count(&self) -> usize {
        self.waiters.len()
    }
}

impl<'a, T: ?Sized> MutexGuard<'a, T> {
    /// The mutex this guard locks (used by [`Condvar::wait`]).
    pub fn mutex(guard: &MutexGuard<'a, T>) -> &'a Mutex<T> {
        guard.lock
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notify_without_waiters_is_noop() {
        let cv = Condvar::new();
        cv.notify_one();
        cv.notify_all();
        assert_eq!(cv.waiter_count(), 0);
    }
}
