//! A counting semaphore blocking at ULT granularity.

use crate::waitlist::{WaitList, WaitLock};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Counting semaphore: `acquire` parks the ULT when no permits remain.
pub struct Semaphore {
    permits: AtomicIsize,
    // lock-order: 42 semaphore_waiters
    lock: WaitLock,
    waiters: UnsafeCell<WaitList>,
}

// SAFETY: waiters guarded by `lock`.
unsafe impl Send for Semaphore {}
unsafe impl Sync for Semaphore {}

impl Semaphore {
    /// Semaphore with `permits` initial permits.
    pub fn new(permits: usize) -> Semaphore {
        Semaphore {
            permits: AtomicIsize::new(permits as isize),
            lock: WaitLock::new(),
            waiters: UnsafeCell::new(WaitList::new()),
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
        loop {
            if self.try_acquire() {
                return;
            }
            if ult_core::in_ult() {
                let mut got = false;
                ult_core::block_current(|me| {
                    self.lock.lock();
                    if self.try_acquire() {
                        self.lock.unlock();
                        got = true;
                        return false;
                    }
                    // SAFETY: under lock.
                    unsafe { (*self.waiters.get()).push(me.clone()) };
                    self.lock.unlock();
                    true
                });
                if got {
                    return;
                }
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Take one permit or give up after `timeout`. Returns `false` on
    /// timeout (no permit taken).
    ///
    /// Backed by the `ult-io` timer wheel: the waiter sits on the wait list
    /// and the wheel simultaneously; a [`Semaphore::release`] that loses
    /// the claim race to the deadline simply wakes the next waiter, so no
    /// permit is ever spent on a corpse.
    pub fn acquire_timeout(&self, timeout: std::time::Duration) -> bool {
        if self.try_acquire() {
            return true;
        }
        if !ult_core::in_ult() {
            let deadline = std::time::Instant::now() + timeout;
            loop {
                if self.try_acquire() {
                    return true;
                }
                if std::time::Instant::now() >= deadline {
                    return false;
                }
                std::thread::yield_now();
            }
        }
        let deadline_ns =
            ult_sys::now_ns().saturating_add(timeout.as_nanos().min(u64::MAX as u128) as u64);
        loop {
            let mut got = false;
            let timed_out = ult_io::block_until(deadline_ns, |w| {
                self.lock.lock();
                if self.try_acquire() {
                    self.lock.unlock();
                    got = true;
                    return false;
                }
                // SAFETY: under lock.
                unsafe { (*self.waiters.get()).push_timed(w.clone()) };
                self.lock.unlock();
                true
            });
            if got || self.try_acquire() {
                return true;
            }
            if timed_out || ult_sys::now_ns() >= deadline_ns {
                // Either our deadline claimed us, or we were notified but a
                // barger stole the permit and the deadline has since passed.
                return false;
            }
            // Notified but outraced: go around with the same deadline.
        }
    }

    /// Return one permit, waking a parked waiter if any. A waiter whose
    /// `acquire_timeout` deadline already claimed it is dead — skip it and
    /// wake the next, so the permit's wakeup is never lost.
    pub fn release(&self) {
        self.permits.fetch_add(1, Ordering::Release);
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
