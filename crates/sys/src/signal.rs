//! Signal installation, masking and directed delivery.
//!
//! Both preemption techniques interrupt a running ULT with a real-time
//! signal (paper §3.1). The handler then either context-switches out
//! (signal-yield) or swaps the worker's KLT (KLT-switching). This module
//! provides:
//!
//! * [`install_handler`] — `sigaction` with `SA_RESTART` (paper §3.5.1: the
//!   flag makes restartable syscalls transparent to preemption);
//! * [`unblock_signal`] — called *inside* the handler right before the
//!   context switch so that further preemptions can nest on the same worker
//!   (paper §3.1.1);
//! * [`send_signal`] — `tgkill` directed delivery, used to nudge an
//!   elided worker's timer back on and by the reactor watcher's kick.

use crate::tid::Tid;
use std::io;
use std::mem::MaybeUninit;

/// The signal number used for preemption ticks: `SIGRTMIN`.
///
/// A real-time signal is used (as in the Go runtime and the paper's
/// implementation) because RT signals are queued rather than collapsed and
/// do not collide with application uses of the classic signals.
// sigsafe
pub fn preempt_signum() -> i32 {
    libc::SIGRTMIN()
}

/// A second RT signal used by the sigsuspend-style (unoptimized) park that
/// Figure 6's runtime-free round trip measures against the futex.
// sigsafe
pub fn wake_signum() -> i32 {
    libc::SIGRTMIN() + 1
}

/// Install `handler` for signal `signum` with `SA_RESTART`.
///
/// The handler runs on the interrupted thread's current stack — deliberately
/// **not** `SA_ONSTACK`: the handler frame must live on the ULT's stack so
/// that a signal-yield context switch captures it (paper §3.1.1).
pub fn install_handler(signum: i32, handler: extern "C" fn(i32)) -> io::Result<()> {
    // SAFETY: constructing a plain sigaction; handler pointer is valid for
    // the life of the program.
    unsafe {
        let mut sa: libc::sigaction = MaybeUninit::zeroed().assume_init();
        sa.sa_sigaction = handler as usize;
        sa.sa_flags = libc::SA_RESTART;
        libc::sigemptyset(&mut sa.sa_mask);
        if libc::sigaction(signum, &sa, std::ptr::null_mut()) != 0 {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(())
}

/// Three-argument signal handler type (`SA_SIGINFO` convention). The third
/// argument is the `ucontext_t*` holding the complete interrupted register
/// state the kernel saved on the interrupted thread's stack.
pub type SigInfoHandler = extern "C" fn(i32, *mut libc::siginfo_t, *mut libc::c_void);

/// Install a three-argument `handler` for `signum` with
/// `SA_SIGINFO | SA_RESTART | SA_NODEFER`.
///
/// Like [`install_handler`], deliberately **not** `SA_ONSTACK`: the handler
/// frame must live on the ULT's stack so a signal-yield switch carries it
/// along (paper §3.1.1). Two deliberate differences:
///
/// * `SA_SIGINFO` hands the handler the kernel-saved `ucontext_t`, letting
///   the preemptive context-switch path *reuse* that register image instead
///   of saving a second one of its own.
/// * `SA_NODEFER` stops the kernel from adding `signum` to the thread's
///   mask during delivery, so the handler never needs the
///   `pthread_sigmask(SIG_UNBLOCK)` syscall before switching away — the
///   mask was never modified, and a plain `rt_sigreturn` (or nothing at
///   all, on the switch-away path) leaves it correct.
pub fn install_handler_info(signum: i32, handler: SigInfoHandler) -> io::Result<()> {
    // SAFETY: constructing a plain sigaction; handler pointer is valid for
    // the life of the program.
    unsafe {
        let mut sa: libc::sigaction = MaybeUninit::zeroed().assume_init();
        sa.sa_sigaction = handler as usize;
        sa.sa_flags = libc::SA_SIGINFO | libc::SA_RESTART | libc::SA_NODEFER;
        libc::sigemptyset(&mut sa.sa_mask);
        if libc::sigaction(signum, &sa, std::ptr::null_mut()) != 0 {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(())
}

/// Ignore `signum` process-wide (used for the wake signal whose only job is
/// to knock a thread out of `sigtimedwait`).
pub fn ignore_signal(signum: i32) -> io::Result<()> {
    // SAFETY: SIG_IGN installation is always valid for RT signals.
    unsafe {
        let mut sa: libc::sigaction = MaybeUninit::zeroed().assume_init();
        sa.sa_sigaction = libc::SIG_IGN;
        libc::sigemptyset(&mut sa.sa_mask);
        if libc::sigaction(signum, &sa, std::ptr::null_mut()) != 0 {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(())
}

/// Unblock `signum` for the calling thread. Async-signal-safe.
///
/// Called from within the preemption handler just before context-switching
/// away, so that the *next* tick can preempt whatever runs next on this
/// worker even though this handler invocation never "returns" in the POSIX
/// sense until its thread is rescheduled (paper §3.1.1).
#[inline]
// sigsafe
pub fn unblock_signal(signum: i32) {
    set_mask(libc::SIG_UNBLOCK, signum)
}

/// Block `signum` for the calling thread. Async-signal-safe.
#[inline]
// sigsafe
pub fn block_signal(signum: i32) {
    set_mask(libc::SIG_BLOCK, signum)
}

#[inline]
// sigsafe
fn set_mask(how: i32, signum: i32) {
    // SAFETY: pthread_sigmask with a locally built set; async-signal-safe.
    unsafe {
        let mut set: libc::sigset_t = MaybeUninit::zeroed().assume_init();
        libc::sigemptyset(&mut set);
        libc::sigaddset(&mut set, signum);
        libc::pthread_sigmask(how, &set, std::ptr::null_mut());
    }
}

/// Send `signum` to kernel thread `tid` in this process (`tgkill`).
/// Async-signal-safe. Returns false if the thread no longer exists.
#[inline]
// sigsafe
// blocking: never tgkill delivers asynchronously and returns without waiting
pub fn send_signal(tid: Tid, signum: i32) -> bool {
    // SAFETY: tgkill is a raw syscall; stale tids yield ESRCH, reported as
    // false.
    unsafe { libc::syscall(libc::SYS_tgkill, libc::getpid(), tid, signum) == 0 }
}

/// Send `signum` to the calling thread (used by tests and the timer-only
/// baseline of Figure 6).
#[inline]
// sigsafe
pub fn raise_signal(signum: i32) {
    // SAFETY: raise is async-signal-safe.
    unsafe {
        libc::raise(signum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static HITS: AtomicUsize = AtomicUsize::new(0);

    extern "C" fn count_handler(_sig: i32) {
        HITS.fetch_add(1, Ordering::SeqCst);
    }

    fn test_sig() -> i32 {
        // Use a high RT signal to avoid colliding with other tests/the
        // runtime's preemption signal.
        libc::SIGRTMIN() + 6
    }

    #[test]
    fn install_and_raise() {
        install_handler(test_sig(), count_handler).unwrap();
        let before = HITS.load(Ordering::SeqCst);
        raise_signal(test_sig());
        assert_eq!(HITS.load(Ordering::SeqCst), before + 1);
    }

    #[test]
    fn send_to_other_thread() {
        install_handler(test_sig(), count_handler).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let h = std::thread::spawn(move || {
            tx.send(crate::tid::gettid()).unwrap();
            done_rx.recv().unwrap();
        });
        let tid = rx.recv().unwrap();
        let before = HITS.load(Ordering::SeqCst);
        assert!(send_signal(tid, test_sig()));
        // The signal is delivered asynchronously; wait for it.
        let start = std::time::Instant::now();
        while HITS.load(Ordering::SeqCst) == before {
            assert!(start.elapsed().as_secs() < 5, "signal never delivered");
            std::thread::yield_now();
        }
        done_tx.send(()).unwrap();
        h.join().unwrap();
    }

    #[test]
    fn send_to_dead_tid_fails() {
        // A tid that certainly doesn't exist in this tiny test process.
        assert!(!send_signal(9_999_999, test_sig()));
    }

    #[test]
    fn block_unblock_round_trip() {
        install_handler(test_sig(), count_handler).unwrap();
        block_signal(test_sig());
        let before = HITS.load(Ordering::SeqCst);
        raise_signal(test_sig());
        // Blocked: not delivered yet.
        assert_eq!(HITS.load(Ordering::SeqCst), before);
        unblock_signal(test_sig());
        // Pending signal delivered on unblock.
        let start = std::time::Instant::now();
        while HITS.load(Ordering::SeqCst) == before {
            assert!(start.elapsed().as_secs() < 5);
            std::thread::yield_now();
        }
    }

    #[test]
    fn preempt_signum_is_rt_range() {
        assert!(preempt_signum() >= libc::SIGRTMIN());
        assert!(preempt_signum() <= libc::SIGRTMAX());
        assert_ne!(preempt_signum(), wake_signum());
    }
}
