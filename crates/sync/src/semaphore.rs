//! A counting semaphore blocking at ULT granularity.

use crate::waitqueue::{deadline_after, WaitQueue};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Counting semaphore: `acquire` parks the ULT when no permits remain.
pub struct Semaphore {
    permits: AtomicIsize,
    // lock-order: 42 semaphore_waiters
    waiters: WaitQueue,
}

impl Semaphore {
    /// Semaphore with `permits` initial permits.
    pub fn new(permits: usize) -> Semaphore {
        Semaphore {
            permits: AtomicIsize::new(permits as isize),
            waiters: WaitQueue::new(),
        }
    }

    /// Try to take one permit without blocking.
    pub fn try_acquire(&self) -> bool {
        let mut cur = self.permits.load(Ordering::Acquire);
        while cur > 0 {
            match self
                .permits
                .compare_exchange(cur, cur - 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return true,
                Err(c) => cur = c,
            }
        }
        false
    }

    /// Take one permit, parking the ULT if none are available.
    pub fn acquire(&self) {
        if !self.try_acquire() {
            self.waiters.wait(None, || self.try_acquire());
        }
    }

    /// Take one permit or give up after `timeout`. Returns `false` on
    /// timeout (no permit taken).
    ///
    /// Backed by the `ult-io` timer wheel: the waiter sits on the wait queue
    /// and the wheel simultaneously; a [`Semaphore::release`] that loses
    /// the claim race to the deadline simply wakes the next waiter, so no
    /// permit is ever spent on a corpse. A waiter that was woken but lost
    /// the permit to a barger waits again for what is left of `timeout`.
    pub fn acquire_timeout(&self, timeout: std::time::Duration) -> bool {
        self.try_acquire()
            || self
                .waiters
                .wait(Some(deadline_after(timeout)), || self.try_acquire())
    }

    /// Return one permit, waking a parked waiter if any.
    pub fn release(&self) {
        self.permits.fetch_add(1, Ordering::Release);
        self.waiters.wake_one();
    }

    /// Available permits (diagnostic; racy).
    pub fn available(&self) -> isize {
        self.permits.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_acquire_respects_count() {
        let s = Semaphore::new(2);
        assert!(s.try_acquire());
        assert!(s.try_acquire());
        assert!(!s.try_acquire());
        s.release();
        assert!(s.try_acquire());
    }

    #[test]
    fn available_tracks() {
        let s = Semaphore::new(3);
        assert_eq!(s.available(), 3);
        s.acquire();
        assert_eq!(s.available(), 2);
        s.release();
        assert_eq!(s.available(), 3);
    }

    #[test]
    fn zero_permit_semaphore_blocks_until_release() {
        let s = std::sync::Arc::new(Semaphore::new(0));
        let s2 = s.clone();
        let h = std::thread::spawn(move || {
            s2.acquire(); // OS-thread fallback path (spin-yield)
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        s.release();
        h.join().unwrap();
    }
}
