//! A ULT-blocking condition variable paired with [`crate::Mutex`].

use crate::mutex::{Mutex, MutexGuard};
use crate::waitlist::{WaitList, WaitLock};
use std::cell::UnsafeCell;

/// Condition variable: `wait` releases the mutex and parks the ULT;
/// `notify_one`/`notify_all` reschedule waiters. Callable from outside the
/// runtime too (falls back to an epoch-watch spin with OS yields).
pub struct Condvar {
    // lock-order: 30 condvar_waiters
    lock: WaitLock,
    waiters: UnsafeCell<WaitList>,
    /// Bumped on every notify; non-ULT waiters watch it.
    epoch: std::sync::atomic::AtomicUsize,
}

// SAFETY: waiters only touched under `lock`.
unsafe impl Send for Condvar {}
unsafe impl Sync for Condvar {}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

impl Condvar {
    /// New condition variable with no waiters.
    pub fn new() -> Condvar {
        Condvar {
            lock: WaitLock::new(),
            waiters: UnsafeCell::new(WaitList::new()),
            epoch: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Atomically release `guard`, park the calling ULT, and re-acquire the
    /// mutex before returning. Spurious wakeups are possible (as with every
    /// condvar); callers loop on their predicate.
    pub fn wait<'a, T: ?Sized>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let mutex: &'a Mutex<T> = MutexGuard::mutex(&guard);
        if ult_core::in_ult() {
            ult_core::block_current(|me| {
                self.lock.lock();
                // SAFETY: under lock.
                unsafe { (*self.waiters.get()).push(me.clone()) };
                self.lock.unlock();
                // Release the mutex only after registration: a notifier
                // running between unlock and park would otherwise miss us.
                drop(guard);
                true
            });
        } else {
            // Outside the runtime: watch the notify epoch with OS yields.
            use std::sync::atomic::Ordering;
            let e = self.epoch.load(Ordering::Acquire);
            drop(guard);
            while self.epoch.load(Ordering::Acquire) == e {
                std::thread::yield_now();
            }
        }
        mutex.lock()
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
        dur: std::time::Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        let mutex: &'a Mutex<T> = MutexGuard::mutex(&guard);
        let timed_out = if ult_core::in_ult() {
            ult_io::block_for(dur, |w| {
                self.lock.lock();
                // SAFETY: under lock.
                unsafe { (*self.waiters.get()).push_timed(w.clone()) };
                self.lock.unlock();
                // Release the mutex only after registration (same
                // missed-notify argument as `wait`).
                drop(guard);
                true
            })
        } else {
            use std::sync::atomic::Ordering;
            let e = self.epoch.load(Ordering::Acquire);
            drop(guard);
            let deadline = std::time::Instant::now() + dur;
            loop {
                if self.epoch.load(Ordering::Acquire) != e {
                    break false;
                }
                if std::time::Instant::now() >= deadline {
                    break true;
                }
                std::thread::yield_now();
            }
        };
        (mutex.lock(), timed_out)
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

    /// Wake one waiter.
    ///
    /// A popped `wait_timeout` entry may already belong to its deadline; a
    /// dead entry absorbs no notification — the pop loop moves on to the
    /// next live waiter (and prunes the corpse as a side effect).
    pub fn notify_one(&self) {
        use std::sync::atomic::Ordering;
        self.epoch.fetch_add(1, Ordering::AcqRel);
        loop {
            self.lock.lock();
            // SAFETY: under lock.
            let w = unsafe { (*self.waiters.get()).pop() };
            self.lock.unlock();
            match w {
                Some(w) => {
                    if w.wake() {
                        return;
                    }
                }
                None => return,
            }
        }
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        use std::sync::atomic::Ordering;
        self.epoch.fetch_add(1, Ordering::AcqRel);
        self.lock.lock();
        // SAFETY: under lock.
        let all = unsafe { (*self.waiters.get()).drain() };
        self.lock.unlock();
        for w in all {
            w.wake(); // dead timed entries are simply discarded
        }
    }

    /// Number of parked waiters (diagnostic; racy by nature).
    pub fn waiter_count(&self) -> usize {
        self.lock.lock();
        // SAFETY: under lock.
        let n = unsafe { (*self.waiters.get()).len() };
        self.lock.unlock();
        n
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
