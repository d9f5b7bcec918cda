//! 32-bit Linux futex wait/wake.
//!
//! The paper's optimized KLT-switching (§3.3.1) replaces
//! `sigsuspend`/`pthread_kill` suspend-resume with a futex: the preempted
//! KLT parks on a word *inside the signal handler* and the resuming
//! scheduler wakes it with `FUTEX_WAKE`. Both operations are raw syscalls
//! with no library state, hence async-signal-safe.
//!
//! [`Futex`] is a minimal one-word parking primitive with two observable
//! states per generation: parked and released. It also supports the
//! "sigsuspend-style" slow path ([`Futex::wait_sigsuspend_style`]) that
//! Figure 6's runtime-free park/resume round trip measures against it; the
//! runtime itself only ever parks on the futex.

use core::sync::atomic::{AtomicU32, Ordering};

/// Raw `futex(2)` syscall wrapper: wait while `*addr == expected`.
///
/// Returns `Ok(())` both on a real wake and on a spurious
/// `EAGAIN`/`EINTR` — callers must re-check their predicate.
#[inline]
// sigsafe
// blocking: klt
pub fn futex_wait(addr: &AtomicU32, expected: u32) {
    // SAFETY: addr is a valid, live atomic word; FUTEX_WAIT with a null
    // timeout blocks until woken or EINTR/EAGAIN.
    unsafe {
        libc::syscall(
            libc::SYS_futex,
            addr.as_ptr(),
            libc::FUTEX_WAIT | libc::FUTEX_PRIVATE_FLAG,
            expected,
            core::ptr::null::<libc::timespec>(),
        );
    }
}

/// Raw `futex(2)` syscall wrapper with a relative timeout: wait while
/// `*addr == expected`, for at most `timeout_ns`.
///
/// Returns on wake, timeout, or a spurious `EAGAIN`/`EINTR` alike —
/// callers must re-check their predicate and their clock.
#[inline]
// sigsafe
// blocking: klt
pub fn futex_wait_timeout(addr: &AtomicU32, expected: u32, timeout_ns: u64) {
    let ts = libc::timespec {
        tv_sec: (timeout_ns / 1_000_000_000) as libc::time_t,
        tv_nsec: (timeout_ns % 1_000_000_000) as libc::c_long,
    };
    // SAFETY: addr is a valid, live atomic word; FUTEX_WAIT with a relative
    // timespec blocks until woken, expired, or EINTR/EAGAIN.
    unsafe {
        libc::syscall(
            libc::SYS_futex,
            addr.as_ptr(),
            libc::FUTEX_WAIT | libc::FUTEX_PRIVATE_FLAG,
            expected,
            &ts as *const libc::timespec,
        );
    }
}

/// Raw `futex(2)` wake: wake up to `n` waiters parked on `addr`.
/// Returns the number of threads woken.
#[inline]
// sigsafe
// blocking: never FUTEX_WAKE returns immediately; it never waits
pub fn futex_wake(addr: &AtomicU32, n: i32) -> i32 {
    // SAFETY: addr is a valid atomic word.
    unsafe {
        libc::syscall(
            libc::SYS_futex,
            addr.as_ptr(),
            libc::FUTEX_WAKE | libc::FUTEX_PRIVATE_FLAG,
            n,
        ) as i32
    }
}

/// A one-word parking lot for a single KLT.
///
/// Protocol: the parker calls [`Futex::park`]; the releaser calls
/// [`Futex::unpark`]. Tokens are counted, so an `unpark` that races ahead of
/// the `park` is not lost (exactly the semantics the KLT-switching handler
/// needs: the resume may be issued before the preempted KLT finishes
/// publishing itself).
#[derive(Debug, Default)]
pub struct Futex {
    /// Number of release tokens not yet consumed.
    word: AtomicU32,
}

impl Futex {
    /// New futex with no pending tokens.
    pub const fn new() -> Self {
        Futex {
            word: AtomicU32::new(0),
        }
    }

    /// Block until a token is available, then consume it.
    /// Async-signal-safe. Spurious futex wakes are absorbed by the loop.
    // sigsafe
    // blocking: klt
    pub fn park(&self) {
        loop {
            let cur = self.word.load(Ordering::Acquire);
            if cur > 0 {
                if self
                    .word
                    .compare_exchange(cur, cur - 1, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    return;
                }
                continue;
            }
            futex_wait(&self.word, 0);
        }
    }

    /// Deposit one token and wake a parked KLT if any. Async-signal-safe.
    // sigsafe
    pub fn unpark(&self) {
        self.word.fetch_add(1, Ordering::Release);
        futex_wake(&self.word, 1);
    }

    /// Block until a token is available or `timeout_ns` has elapsed.
    /// Returns `true` if a token was consumed, `false` on timeout.
    /// Spurious futex wakes are absorbed by the deadline loop.
    // blocking: klt
    pub fn park_timeout(&self, timeout_ns: u64) -> bool {
        let deadline = crate::now_ns().saturating_add(timeout_ns);
        loop {
            if self.try_park() {
                return true;
            }
            let now = crate::now_ns();
            if now >= deadline {
                // One last racy grab: a token deposited right at the
                // deadline should not be stranded until the next park.
                return self.try_park();
            }
            futex_wait_timeout(&self.word, 0, deadline - now);
        }
    }

    /// Non-blocking attempt to consume a token.
    // sigsafe
    pub fn try_park(&self) -> bool {
        let cur = self.word.load(Ordering::Acquire);
        cur > 0
            && self
                .word
                .compare_exchange(cur, cur - 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
    }

    /// Park via the portable-but-slow route the paper's unoptimized
    /// KLT-switching uses (§3.3.1): a `sigsuspend`-like wait that costs a
    /// signal round trip per resume. Modelled as `sigtimedwait`: every wait
    /// blocks in the kernel for (and consumes) one wake signal — the one
    /// [`Futex::unpark_with_signal`] sends with each token — before it
    /// takes the token, so waits and signals stay paired one to one.
    ///
    /// `wake_sig` must be a signal number reserved for this purpose and
    /// blocked in the waiting thread, so it queues for `sigtimedwait`
    /// instead of being discarded or run.
    // sigsafe
    // blocking: klt
    pub fn wait_sigsuspend_style(&self, wake_sig: i32) {
        // SAFETY: sigset_t is a plain bitmask; all-zeroes is a valid empty set.
        let mut set: libc::sigset_t = unsafe { core::mem::zeroed() };
        // SAFETY: `set` is a valid out-pointer for sigemptyset/sigaddset.
        unsafe {
            libc::sigemptyset(&mut set);
            libc::sigaddset(&mut set, wake_sig);
        }
        let ts = libc::timespec {
            tv_sec: 0,
            tv_nsec: 1_000_000, // 1 ms guard: a lost signal cannot hang the waiter
        };
        loop {
            // SAFETY: `set` and `ts` are valid for the call; no siginfo wanted.
            unsafe { libc::sigtimedwait(&set, core::ptr::null_mut(), &ts) };
            if self.try_park() {
                return;
            }
        }
    }

    /// Release for [`Futex::wait_sigsuspend_style`]: deposit a token and
    /// deliver `wake_sig` to `tid` via `tgkill`.
    // sigsafe
    pub fn unpark_with_signal(&self, tid: crate::tid::Tid, wake_sig: i32) {
        self.word.fetch_add(1, Ordering::Release);
        crate::signal::send_signal(tid, wake_sig);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn unpark_before_park_is_not_lost() {
        let f = Futex::new();
        f.unpark();
        // Must return immediately.
        f.park();
    }

    #[test]
    fn try_park_consumes_exactly_one_token() {
        let f = Futex::new();
        assert!(!f.try_park());
        f.unpark();
        f.unpark();
        assert!(f.try_park());
        assert!(f.try_park());
        assert!(!f.try_park());
    }

    #[test]
    fn park_blocks_until_unpark() {
        let f = Arc::new(Futex::new());
        let f2 = f.clone();
        let started = Arc::new(AtomicU32::new(0));
        let s2 = started.clone();
        let h = std::thread::spawn(move || {
            s2.store(1, Ordering::SeqCst);
            f2.park();
            s2.store(2, Ordering::SeqCst);
        });
        while started.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(started.load(Ordering::SeqCst), 1, "park returned early");
        f.unpark();
        h.join().unwrap();
        assert_eq!(started.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn many_park_unpark_round_trips() {
        let f = Arc::new(Futex::new());
        let f2 = f.clone();
        let h = std::thread::spawn(move || {
            for _ in 0..1000 {
                f2.park();
            }
        });
        for _ in 0..1000 {
            f.unpark();
        }
        h.join().unwrap();
    }

    #[test]
    fn park_timeout_expires_without_token() {
        let f = Futex::new();
        let t0 = std::time::Instant::now();
        assert!(!f.park_timeout(5_000_000)); // 5 ms
        assert!(t0.elapsed() >= Duration::from_millis(4));
    }

    #[test]
    fn park_timeout_consumes_early_token() {
        let f = Futex::new();
        f.unpark();
        let t0 = std::time::Instant::now();
        assert!(f.park_timeout(1_000_000_000));
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn park_timeout_woken_by_unpark() {
        let f = Arc::new(Futex::new());
        let f2 = f.clone();
        let h = std::thread::spawn(move || f2.park_timeout(10_000_000_000));
        std::thread::sleep(Duration::from_millis(20));
        f.unpark();
        assert!(h.join().unwrap());
    }

    #[test]
    fn raw_wake_returns_waiter_count() {
        let w = AtomicU32::new(1);
        // No waiters: wake returns 0.
        assert_eq!(futex_wake(&w, 1), 0);
    }
}
