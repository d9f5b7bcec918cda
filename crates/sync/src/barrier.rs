//! Barriers: blocking and busy-waiting (MKL-style).
//!
//! [`SpinBarrier`] is the load-bearing piece of the paper's Cholesky study
//! (§4.1): Intel MKL's OpenMP teams synchronize "by having threads busy-loop
//! on a memory flag, which causes a deadlock when running on nonpreemptive
//! M:N threads". [`SpinMode::BusyWait`] reproduces that behavior;
//! [`SpinMode::Yielding`] reproduces the authors' reverse-engineered MKL
//! patch that inserts an explicit yield into the wait loop.

use crate::waitqueue::WaitQueue;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// A reusable blocking barrier for a fixed party count.
pub struct Barrier {
    parties: usize,
    // lock-order: 43 barrier_waiters
    waiters: WaitQueue,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl Barrier {
    /// Barrier for `parties` threads (>= 1).
    pub fn new(parties: usize) -> Barrier {
        assert!(parties >= 1);
        Barrier {
            parties,
            waiters: WaitQueue::new(),
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    /// Wait until all parties arrive. Returns `true` on exactly one caller
    /// (the "leader") per generation.
    pub fn wait(&self) -> bool {
        // The queue runs the first call of the closure under its lock, so
        // that call is the arrival: count in and, as the last party, open
        // the next generation. Later calls only watch the generation.
        let mut arrived_in = None;
        let mut leader = false;
        self.waiters.wait(None, || {
            let gen = *arrived_in.get_or_insert_with(|| {
                let gen = self.generation.load(Ordering::Relaxed);
                if self.arrived.fetch_add(1, Ordering::Relaxed) + 1 == self.parties {
                    self.arrived.store(0, Ordering::Relaxed);
                    self.generation.store(gen + 1, Ordering::Release);
                    leader = true;
                }
                gen
            });
            self.generation.load(Ordering::Acquire) != gen
        });
        if leader {
            self.waiters.wake_all();
        }
        leader
    }

    /// Party count.
    pub fn parties(&self) -> usize {
        self.parties
    }
}

/// How a [`SpinBarrier`] waits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpinMode {
    /// Pure busy-wait on a memory flag — Intel MKL's team barrier. Safe
    /// only when every party has a core (or preemption is available).
    BusyWait,
    /// Busy-wait with an explicit `yield_now` each iteration — the paper's
    /// reverse-engineered MKL workaround for nonpreemptive M:N threads.
    Yielding,
}

/// A sense-reversing centralized spin barrier (no blocking, ever).
pub struct SpinBarrier {
    parties: usize,
    mode: SpinMode,
    count: AtomicUsize,
    sense: AtomicU32,
}

impl SpinBarrier {
    /// Spin barrier for `parties` threads in the given wait mode.
    pub fn new(parties: usize, mode: SpinMode) -> SpinBarrier {
        assert!(parties >= 1);
        SpinBarrier {
            parties,
            mode,
            count: AtomicUsize::new(0),
            sense: AtomicU32::new(0),
        }
    }

    /// Wait (spinning) until all parties arrive. Returns `true` on the last
    /// arriver.
    pub fn wait(&self) -> bool {
        let my_sense = self.sense.load(Ordering::Acquire);
        let arrived = self.count.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.parties {
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(my_sense + 1, Ordering::Release);
            return true;
        }
        // The MKL-style flag spin: with nonpreemptive M:N threads and
        // oversubscription this loop can deadlock the whole worker —
        // exactly the failure mode the paper's preemption removes.
        while self.sense.load(Ordering::Acquire) == my_sense {
            match self.mode {
                SpinMode::BusyWait => core::hint::spin_loop(),
                SpinMode::Yielding => ult_core::yield_now(),
            }
        }
        false
    }

    /// Party count.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Wait mode.
    pub fn mode(&self) -> SpinMode {
        self.mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_party_barriers_pass_through() {
        let b = Barrier::new(1);
        assert!(b.wait());
        assert!(b.wait()); // reusable
        let sb = SpinBarrier::new(1, SpinMode::BusyWait);
        assert!(sb.wait());
        assert!(sb.wait());
    }

    #[test]
    fn blocking_barrier_across_os_threads() {
        let b = std::sync::Arc::new(Barrier::new(3));
        let mut handles = vec![];
        let leaders = std::sync::Arc::new(AtomicUsize::new(0));
        for _ in 0..3 {
            let b = b.clone();
            let l = leaders.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10 {
                    if b.wait() {
                        l.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn spin_barrier_across_os_threads() {
        let b = std::sync::Arc::new(SpinBarrier::new(2, SpinMode::BusyWait));
        let b2 = b.clone();
        let h = std::thread::spawn(move || {
            for _ in 0..100 {
                b2.wait();
            }
        });
        for _ in 0..100 {
            b.wait();
        }
        h.join().unwrap();
    }

    #[test]
    fn accessors() {
        assert_eq!(Barrier::new(4).parties(), 4);
        let sb = SpinBarrier::new(2, SpinMode::Yielding);
        assert_eq!(sb.parties(), 2);
        assert_eq!(sb.mode(), SpinMode::Yielding);
    }
}
