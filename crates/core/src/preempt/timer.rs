//! Preemption timers (paper §3.2): one POSIX timer per worker, phases
//! staggered by `i·T/N` so that no two workers take their ticks at the same
//! instant (Fig. 5a, "aligned"). The paper's other three strategies
//! (creation-time phases, one-to-all and chained per-process signals) live
//! only in `ult-simcore`'s Fig. 4 model.
//!
//! Per-worker timers use Linux's `SIGEV_THREAD_ID` (not POSIX — the paper's
//! portability caveat, §3.2.1). Under KLT-switching the embodiment of a
//! worker changes, so its timer is **re-targeted** ("rebound") to the new
//! KLT by the scheduler after each switch; stale ticks hitting the old KLT
//! in the window are dropped by the handler's embodiment check.

use crate::runtime::RuntimeInner;
use crate::worker::Worker;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use ult_sys::tid::Tid;
use ult_sys::timer::{aligned_phase_ns, IntervalTimer};

/// Whether timers drive preemption (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerStrategy {
    /// No implicit preemption (traditional nonpreemptive M:N threads). The
    /// handler stays installed, so a raised tick is still handled.
    None,
    /// One timer per worker with aligned (staggered) phases (Fig. 5a).
    PerWorkerAligned,
}

/// Per-runtime timer state: one slot per worker.
pub(crate) struct TimerSet {
    slots: Vec<Mutex<Option<IntervalTimer>>>,
    /// Published raw `timer_t` handles ([`NO_HANDLE`] = none), one per
    /// worker. Signal handlers may *re-arm* or query a published handle
    /// lock-free (`timer_settime`/`timer_getoverrun` are async-signal-safe;
    /// `timer_create` is not). The slot is cleared *before* the backing
    /// timer is deleted, so the worst race is arming a just-deleted handle —
    /// which `arm_raw` ignores by design.
    ///
    /// The none-sentinel must NOT be `0`: kernel POSIX timer ids are
    /// allocated per-process starting at zero and glibc hands the id back
    /// verbatim as the `timer_t`, so the *first* timer in the process — in
    /// practice exactly worker 0's — is the literal handle `0`. With a zero
    /// sentinel every handler-side raw op on that worker silently no-ops;
    /// `rearm_from_handler` then clears `tick_elided` without arming
    /// anything, wedging the worker in a flag-says-armed / timer-disarmed
    /// state that no pusher will ever repair.
    handles: Vec<AtomicUsize>, // ordering: acqrel handle published before arming, cleared before deletion
}

/// "No raw handle published" sentinel (see `TimerSet::handles`).
pub(crate) const NO_HANDLE: usize = usize::MAX;

impl TimerSet {
    pub(crate) fn new(n_workers: usize) -> TimerSet {
        TimerSet {
            slots: (0..n_workers).map(|_| Mutex::new(None)).collect(),
            handles: (0..n_workers)
                .map(|_| AtomicUsize::new(NO_HANDLE))
                .collect(),
        }
    }

    /// The published raw timer handle for worker `rank`, if any.
    // sigsafe
    pub(crate) fn raw_handle(&self, rank: usize) -> Option<libc::timer_t> {
        match self.handles[rank].load(Ordering::Acquire) {
            NO_HANDLE => None,
            h => Some(h as libc::timer_t),
        }
    }

    /// Re-target worker `w`'s timer to its *current* KLT.
    pub(crate) fn rebind_worker(&self, rt: &RuntimeInner, w: &Worker) {
        let kp = w.current_klt.load(std::sync::atomic::Ordering::Acquire);
        if kp.is_null() {
            return;
        }
        // SAFETY: KLTs are registry-kept for the runtime's life.
        let tid = unsafe { (*kp).tid() };
        self.rebind_worker_to(rt, w, tid);
    }

    /// (Re-)target worker `w`'s timer at KLT `tid`. Called from
    /// scheduler/home-loop context only (never from a signal handler —
    /// `timer_create` is not async-signal-safe, which is exactly why rebinds
    /// are deferred to the scheduler via the `timer_rebind` flag).
    ///
    /// A failed `timer_create` (e.g. `EAGAIN` once `RLIMIT_SIGPENDING` is
    /// spent) leaves [`NO_HANDLE`] published and the worker without ticks:
    /// it still runs every ULT, just never preempts one.
    pub(crate) fn rebind_worker_to(&self, rt: &RuntimeInner, w: &Worker, tid: Tid) {
        let interval = rt.config.preempt_interval_ns;
        if interval == 0 || tid == 0 || rt.config.timer_strategy == TimerStrategy::None {
            return;
        }
        // Drop the old timer and create a fresh one aimed at the new KLT.
        // (SIGEV_THREAD_ID is fixed at creation; re-targeting requires
        // re-creation.) Unpublish the raw handle *first* so no handler arms
        // a handle mid-deletion.
        self.handles[w.rank].store(NO_HANDLE, Ordering::Release);
        *self.slots[w.rank].lock() = None;
        let phase = aligned_phase_ns(w.rank, rt.workers.len(), interval);
        let signum = crate::preempt::preempt_signum();
        let Ok(timer) = IntervalTimer::per_thread(tid, signum, interval, phase) else {
            w.stats
                .timer_create_failures
                .fetch_add(1, Ordering::Relaxed);
            return;
        };
        let raw = timer.raw_handle() as usize;
        *self.slots[w.rank].lock() = Some(timer);
        self.handles[w.rank].store(raw, Ordering::Release);
    }

    /// Stop worker `w`'s periodic tick (tick elision: ≤1 runnable ULT means
    /// there is nothing to timeslice *to*): disarm the existing timer in
    /// place (`timer_settime 0`, keeping it created so the handler can
    /// re-arm it by raw handle). Scheduler context only.
    pub(crate) fn elide_worker(&self, w: &Worker) {
        if let Some(t) = self.slots[w.rank].lock().as_ref() {
            let _ = t.disarm();
        }
    }

    /// Restore worker `w`'s periodic tick after elision (work arrived), at
    /// the worker's *current* quantum — an elided timer re-arms at the
    /// class-appropriate interval, not necessarily the base tick.
    /// Scheduler context only — signal handlers re-arm via
    /// [`TimerSet::raw_handle`] + `ult_sys::timer::arm_raw` instead.
    pub(crate) fn rearm_worker(&self, rt: &RuntimeInner, w: &Worker) {
        if let Some(t) = self.slots[w.rank].lock().as_ref() {
            let _ = t.arm(w.quantum_ns(rt), 0);
        }
    }

    /// Whether worker `rank` currently has an armed timer (diagnostic).
    pub(crate) fn is_armed(&self, rank: usize) -> bool {
        self.slots[rank].lock().is_some()
    }

    /// Disarm everything (shutdown).
    pub(crate) fn disarm_all(&self) {
        for (s, h) in self.slots.iter().zip(&self.handles) {
            h.store(NO_HANDLE, Ordering::Release);
            *s.lock() = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_set_shape() {
        let ts = TimerSet::new(8);
        assert_eq!(ts.slots.len(), 8);
        ts.disarm_all(); // no-op on empty slots
    }
}
