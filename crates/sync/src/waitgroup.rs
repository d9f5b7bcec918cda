//! A fork-join completion counter (Go-style WaitGroup).
//!
//! The parallel-for layers of the application crates (mini-BLAS teams,
//! HPGMG level sweeps, mini-MD force loops) fork one ULT per chunk and join
//! with a single `wait` — the fork-join pattern whose cheapness is the
//! selling point of M:N threads (paper §2.1).

use crate::waitlist::{WaitList, WaitLock};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Completion counter: `add` before forking, `done` in each task, `wait`
/// parks until the count returns to zero.
pub struct WaitGroup {
    count: AtomicIsize,
    // lock-order: 44 waitgroup_waiters
    lock: WaitLock,
    waiters: UnsafeCell<WaitList>,
}

// SAFETY: waiters guarded by `lock`.
unsafe impl Send for WaitGroup {}
unsafe impl Sync for WaitGroup {}

impl Default for WaitGroup {
    fn default() -> Self {
        Self::new()
    }
}

impl WaitGroup {
    /// New group with zero outstanding tasks.
    pub fn new() -> WaitGroup {
        WaitGroup {
            count: AtomicIsize::new(0),
            lock: WaitLock::new(),
            waiters: UnsafeCell::new(WaitList::new()),
        }
    }

    /// Add `n` outstanding tasks.
    pub fn add(&self, n: usize) {
        self.count.fetch_add(n as isize, Ordering::AcqRel);
    }

    /// Mark one task complete, waking waiters when the count hits zero.
    pub fn done(&self) {
        let left = self.count.fetch_sub(1, Ordering::AcqRel) - 1;
        debug_assert!(left >= 0, "WaitGroup::done underflow");
        if left == 0 {
            self.lock.lock();
            // SAFETY: under lock.
            let all = unsafe { (*self.waiters.get()).drain() };
            self.lock.unlock();
            for w in all {
                w.wake();
            }
        }
    }

    /// Park until the outstanding count is zero.
    pub fn wait(&self) {
        loop {
            if self.count.load(Ordering::Acquire) == 0 {
                return;
            }
            if ult_core::in_ult() {
                ult_core::block_current(|me| {
                    self.lock.lock();
                    if self.count.load(Ordering::Acquire) == 0 {
                        self.lock.unlock();
                        return false;
                    }
                    // SAFETY: under lock.
                    unsafe { (*self.waiters.get()).push(me.clone()) };
                    self.lock.unlock();
                    true
                });
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Outstanding count (diagnostic).
    pub fn outstanding(&self) -> isize {
        self.count.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_group_wait_returns() {
        let wg = WaitGroup::new();
        wg.wait();
    }

    #[test]
    fn add_done_bookkeeping() {
        let wg = WaitGroup::new();
        wg.add(3);
        assert_eq!(wg.outstanding(), 3);
        wg.done();
        wg.done();
        assert_eq!(wg.outstanding(), 1);
        wg.done();
        assert_eq!(wg.outstanding(), 0);
        wg.wait();
    }

    #[test]
    fn cross_thread_wait() {
        let wg = std::sync::Arc::new(WaitGroup::new());
        wg.add(4);
        let mut handles = vec![];
        for _ in 0..4 {
            let wg = wg.clone();
            handles.push(std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                wg.done();
            }));
        }
        wg.wait();
        assert_eq!(wg.outstanding(), 0);
        for h in handles {
            h.join().unwrap();
        }
    }
}
