//! POSIX interval timers targeted at specific KLTs.
//!
//! Per-worker preemption timers (paper §3.2.1) need "send this signal to
//! *that* thread every T microseconds". POSIX `timer_create` only addresses
//! the process; Linux's `SIGEV_THREAD_ID` extension addresses a tid — the
//! paper calls out exactly this portability caveat.
//!
//! [`IntervalTimer`] also supports a **phase offset** before the first
//! expiration — the mechanism behind the paper's "timer alignment"
//! optimization, which staggers worker ticks by `i·T/N` so that signal
//! handling on different workers never overlaps (Figure 5a).

use crate::tid::Tid;
use std::io;
use std::mem::MaybeUninit;
use std::ptr;

/// An armed POSIX interval timer. Disarmed and deleted on drop.
#[derive(Debug)]
pub struct IntervalTimer {
    timer: libc::timer_t,
    interval_ns: u64,
}

// SAFETY: timer_t is a kernel handle; operations on it are thread-safe.
unsafe impl Send for IntervalTimer {}
// SAFETY: as above; `&self` methods are plain syscalls on the handle.
unsafe impl Sync for IntervalTimer {}

impl IntervalTimer {
    /// Create a timer that delivers `signum` to kernel thread `tid` every
    /// `interval_ns`, with the first expiry after `phase_ns` (0 ⇒ one full
    /// interval).
    pub fn per_thread(tid: Tid, signum: i32, interval_ns: u64, phase_ns: u64) -> io::Result<Self> {
        // SAFETY: sigevent built locally; SIGEV_THREAD_ID is Linux-specific
        // (documented deviation from POSIX, exactly as in the paper).
        let timer = unsafe {
            let mut sev: libc::sigevent = MaybeUninit::zeroed().assume_init();
            sev.sigev_notify = libc::SIGEV_THREAD_ID;
            sev.sigev_signo = signum;
            sev.sigev_notify_thread_id = tid;
            let mut timer: libc::timer_t = ptr::null_mut();
            if libc::timer_create(libc::CLOCK_MONOTONIC, &mut sev, &mut timer) != 0 {
                return Err(io::Error::last_os_error());
            }
            timer
        };
        let t = IntervalTimer { timer, interval_ns };
        t.arm(interval_ns, phase_ns)?;
        Ok(t)
    }

    /// (Re-)arm: first expiry after `phase_ns` (or one interval if 0), then
    /// every `interval_ns`.
    // sigsafe
    pub fn arm(&self, interval_ns: u64, phase_ns: u64) -> io::Result<()> {
        let first = if phase_ns == 0 { interval_ns } else { phase_ns };
        let its = libc::itimerspec {
            it_interval: ns_to_timespec(interval_ns),
            it_value: ns_to_timespec(first),
        };
        // SAFETY: self.timer is a live timer handle.
        if unsafe { libc::timer_settime(self.timer, 0, &its, ptr::null_mut()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Disarm without deleting.
    // sigsafe
    pub fn disarm(&self) -> io::Result<()> {
        let its = libc::itimerspec {
            it_interval: ns_to_timespec(0),
            it_value: ns_to_timespec(0),
        };
        // SAFETY: live handle.
        if unsafe { libc::timer_settime(self.timer, 0, &its, ptr::null_mut()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// The configured tick interval in nanoseconds.
    pub fn interval_ns(&self) -> u64 {
        self.interval_ns
    }

    /// Number of expirations that were merged because the signal was still
    /// pending (`timer_getoverrun`). A persistently high overrun count means
    /// the interval is shorter than the handler cost — the regime the paper
    /// flags at the far-left of Figure 6.
    // sigsafe
    pub fn overrun(&self) -> i32 {
        // SAFETY: live handle.
        unsafe { libc::timer_getoverrun(self.timer) }
    }

    /// Whether the timer is armed: `timer_gettime` reports a time to the
    /// next expiry. Diagnostic only.
    pub fn is_armed(&self) -> bool {
        // Vendored libc doesn't declare `timer_gettime`; bind it directly.
        extern "C" {
            fn timer_gettime(timerid: libc::timer_t, curr: *mut libc::itimerspec) -> libc::c_int;
        }
        let mut its = libc::itimerspec {
            it_interval: ns_to_timespec(0),
            it_value: ns_to_timespec(0),
        };
        // SAFETY: live handle; `its` is a valid out-pointer.
        unsafe {
            timer_gettime(self.timer, &mut its);
        }
        its.it_value.tv_sec != 0 || its.it_value.tv_nsec != 0
    }
}

impl Drop for IntervalTimer {
    fn drop(&mut self) {
        // SAFETY: deleting a live timer handle exactly once.
        unsafe {
            libc::timer_delete(self.timer);
        }
    }
}

// sigsafe
fn ns_to_timespec(ns: u64) -> libc::timespec {
    libc::timespec {
        tv_sec: (ns / 1_000_000_000) as libc::time_t,
        tv_nsec: (ns % 1_000_000_000) as libc::c_long,
    }
}

/// Compute the aligned phase for worker `rank` of `n_workers` with tick
/// `interval_ns`: the paper's timer alignment (§3.2.1) staggers the first
/// expirations evenly across one interval so handlers never coincide.
pub fn aligned_phase_ns(rank: usize, n_workers: usize, interval_ns: u64) -> u64 {
    debug_assert!(n_workers > 0);
    let phase = interval_ns * rank as u64 / n_workers as u64;
    if phase == 0 {
        interval_ns
    } else {
        phase
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::{install_handler, raise_signal};
    use crate::tid::gettid;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static TICKS: AtomicUsize = AtomicUsize::new(0);
    /// The timer tests share `TICKS` and one signal number, and the harness
    /// runs them on parallel threads: one test's timer must not tick into
    /// another's quiescence check.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    extern "C" fn tick_handler(_sig: i32) {
        TICKS.fetch_add(1, Ordering::SeqCst);
    }

    fn test_sig() -> i32 {
        libc::SIGRTMIN() + 7
    }

    #[test]
    fn per_thread_timer_ticks() {
        let _serial = serial();
        install_handler(test_sig(), tick_handler).unwrap();
        let before = TICKS.load(Ordering::SeqCst);
        let t = IntervalTimer::per_thread(gettid(), test_sig(), 1_000_000, 0).unwrap();
        let start = std::time::Instant::now();
        while TICKS.load(Ordering::SeqCst) < before + 10 {
            assert!(start.elapsed().as_secs() < 5, "timer never ticked");
            std::hint::spin_loop();
        }
        drop(t);
    }

    #[test]
    fn disarm_stops_ticks() {
        let _serial = serial();
        install_handler(test_sig(), tick_handler).unwrap();
        let t = IntervalTimer::per_thread(gettid(), test_sig(), 500_000, 0).unwrap();
        let start = std::time::Instant::now();
        while TICKS.load(Ordering::SeqCst) < 3 {
            assert!(start.elapsed().as_secs() < 5);
            std::hint::spin_loop();
        }
        t.disarm().unwrap();
        // Allow in-flight signal to land, then verify quiescence.
        std::thread::sleep(std::time::Duration::from_millis(5));
        let frozen = TICKS.load(Ordering::SeqCst);
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(TICKS.load(Ordering::SeqCst), frozen);
    }

    #[test]
    fn aligned_phase_math() {
        let t = 1_000_000u64;
        // rank 0 gets a full interval (never 0, which would disarm).
        assert_eq!(aligned_phase_ns(0, 4, t), t);
        assert_eq!(aligned_phase_ns(1, 4, t), t / 4);
        assert_eq!(aligned_phase_ns(2, 4, t), t / 2);
        assert_eq!(aligned_phase_ns(3, 4, t), 3 * t / 4);
        // Phases are strictly increasing in rank (for rank >= 1).
        for n in 1..64usize {
            let mut prev = 0;
            for r in 1..n {
                let p = aligned_phase_ns(r, n, t);
                assert!(p > prev);
                prev = p;
            }
        }
    }

    #[test]
    fn interval_accessor() {
        let _serial = serial();
        install_handler(test_sig(), tick_handler).unwrap();
        let t = IntervalTimer::per_thread(gettid(), test_sig(), 123_000_000, 0).unwrap();
        assert_eq!(t.interval_ns(), 123_000_000);
        // raise manually to prove handler still installed
        raise_signal(test_sig());
    }
}
