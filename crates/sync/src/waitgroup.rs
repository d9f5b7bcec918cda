//! A fork-join completion counter (Go-style WaitGroup).
//!
//! The parallel-for layers of the application crates (mini-BLAS teams,
//! HPGMG level sweeps, mini-MD force loops) fork one ULT per chunk and join
//! with a single `wait` — the fork-join pattern whose cheapness is the
//! selling point of M:N threads (paper §2.1).

use crate::waitqueue::WaitQueue;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Completion counter: `add` before forking, `done` in each task, `wait`
/// parks until the count returns to zero.
pub struct WaitGroup {
    count: AtomicIsize,
    // lock-order: 44 waitgroup_waiters
    waiters: WaitQueue,
}

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
            waiters: WaitQueue::new(),
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
            self.waiters.wake_all();
        }
    }

    /// Park until the outstanding count is zero.
    pub fn wait(&self) {
        let done = || self.count.load(Ordering::Acquire) == 0;
        if !done() {
            self.waiters.wait(None, done);
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
