//! One-time initialization.

use std::sync::atomic::{AtomicU8, Ordering};

const INCOMPLETE: u8 = 0;
const RUNNING: u8 = 1;
const COMPLETE: u8 = 2;

/// Run a closure exactly once across all ULTs/KLTs; other callers wait
/// (yielding their ULT) until it completes.
pub struct Once {
    state: AtomicU8,
}

impl Default for Once {
    fn default() -> Self {
        Self::new()
    }
}

impl Once {
    /// New, not-yet-run.
    pub const fn new() -> Once {
        Once {
            state: AtomicU8::new(INCOMPLETE),
        }
    }

    /// Run `f` if nobody has; otherwise wait for the winner to finish. If
    /// `f` panics and the caller catches the unwind, the `Once` is not
    /// poisoned: the next caller, or one already waiting, runs its own
    /// closure.
    pub fn call_once<F: FnOnce()>(&self, f: F) {
        /// Stores the outcome on the way out of `f`, by return or by unwind.
        struct Finish<'a>(&'a AtomicU8, u8);
        impl Drop for Finish<'_> {
            fn drop(&mut self) {
                self.0.store(self.1, Ordering::Release);
            }
        }
        loop {
            match self.state.compare_exchange(
                INCOMPLETE,
                RUNNING,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    let mut finish = Finish(&self.state, INCOMPLETE);
                    f();
                    finish.1 = COMPLETE;
                    return;
                }
                Err(COMPLETE) => return,
                // Someone else is running: wait cooperatively, then look again.
                Err(_) => ult_core::yield_now(),
            }
        }
    }

    /// Whether the closure has completed.
    pub fn is_completed(&self) -> bool {
        self.state.load(Ordering::Acquire) == COMPLETE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_exactly_once() {
        let once = Once::new();
        let count = AtomicUsize::new(0);
        for _ in 0..5 {
            once.call_once(|| {
                count.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(count.load(Ordering::SeqCst), 1);
        assert!(once.is_completed());
    }

    #[test]
    fn panicking_closure_leaves_the_once_retryable() {
        let once = std::sync::Arc::new(Once::new());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            once.call_once(|| panic!("first initialiser fails"));
        }));
        assert!(r.is_err());
        assert!(!once.is_completed());
        // On its own thread: a wedged `Once` spins forever instead of failing.
        let (tx, rx) = std::sync::mpsc::channel();
        let o = once.clone();
        let next = std::thread::spawn(move || o.call_once(|| tx.send(()).unwrap()));
        rx.recv_timeout(std::time::Duration::from_secs(5))
            .expect("the next caller never ran: state stuck in RUNNING");
        next.join().unwrap();
        assert!(once.is_completed());
    }

    #[test]
    fn concurrent_once_across_threads() {
        let once = std::sync::Arc::new(Once::new());
        let count = std::sync::Arc::new(AtomicUsize::new(0));
        let mut handles = vec![];
        for _ in 0..8 {
            let o = once.clone();
            let c = count.clone();
            handles.push(std::thread::spawn(move || {
                o.call_once(|| {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }
}
