//! Context-sensitive thread operations: yield, block, ready, current.
//!
//! These are the "explicit scheduling points" of the M:N model (paper §2.2)
//! — `yield_now` plus the block/ready pair that `ult-sync` builds mutexes,
//! condvars, barriers and channels from, and `yield_to`, the ready that also
//! hands the caller's worker over. All of them are user-space context
//! switches costing on the order of a hundred cycles.

use crate::thread::{Ult, UltState};
use crate::worker::{SwitchReason, Worker};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use ult_arch::Context;

/// The worker owning the calling KLT, if any.
///
/// The returned reference is a *snapshot*: a KLT-switching preemption can
/// migrate the calling ULT to a different worker at any instruction, so
/// code that mutates worker state must use [`pin_current_worker`] instead.
#[inline]
// sigsafe
pub(crate) fn current_worker() -> Option<&'static Worker> {
    let klt = crate::klt::current_klt()?;
    let wp = klt.worker.load(Ordering::Acquire);
    // SAFETY: workers are owned by the runtime for its entire life.
    unsafe { wp.as_ref() }
}

/// Resolve the current worker **and** disable preemption on it, atomically
/// with respect to KLT-switching migration.
///
/// The naive sequence `let w = current_worker(); w.preempt_disable();` is
/// racy: a preemption between the two statements migrates this ULT to
/// another worker, and the disable lands on a stale worker while the
/// runtime path continues to mutate it — corrupting the other worker's
/// scheduler state. The loop here disables first, then re-verifies that
/// the KLT still embodies that exact worker; once verified, the disable
/// blocks further migration (the handler defers while the counter is
/// non-zero). A transient increment on a stale worker's counter merely
/// defers one tick there, which is benign.
///
/// Two distinct migrations must be caught by the re-verification:
///
/// * **KLT-switching** remaps the worker to another KLT — `klt.worker`
///   and `w.current_klt` change, so the binding checks fail and we retry.
/// * **Signal-yield** moves the *ULT* to another KLT while the original
///   KLT keeps embodying its worker — every binding stays self-consistent,
///   so the only tell is that the calling code is no longer executing on
///   the KLT it sampled. Hence the fresh `current_klt()` re-read below:
///   if the preemption fired between the first read and the disable, the
///   resumed code observes a different KLT and retries (the disable landed
///   on the stale worker, deferring one tick there — benign).
///
/// The same re-read decides what a null `klt.worker` means. A KLT-switching
/// ULT preempted right after sampling `klt` can come back on another KLT
/// (its handler continuation honours a deferred tick with a cooperative
/// yield), by which time `klt` sits in the pool with no worker: that is a
/// stale sample to retry, not "outside the runtime" — returning `None`
/// there left the caller unpinned while it believed otherwise.
///
/// On success, preemption is left DISABLED; the caller must re-enable
/// (directly or via the ULT prologue on its resume path).
#[inline]
// sigsafe
pub(crate) fn pin_current_worker() -> Option<&'static Worker> {
    loop {
        let klt = crate::klt::current_klt()?;
        let wp = klt.worker.load(Ordering::Acquire);
        let still_here = || crate::klt::current_klt().is_some_and(|now| std::ptr::eq(now, klt));
        // SAFETY: workers live as long as the runtime.
        let Some(w) = (unsafe { wp.as_ref() }) else {
            // No worker on this KLT — unless the caller has moved off `klt`
            // since it was sampled (preempted, then resumed elsewhere) and
            // `klt` has gone back to the pool meanwhile: sample again.
            if still_here() {
                return None;
            }
            continue;
        };
        w.preempt_disable();
        if still_here()
            && klt.worker.load(Ordering::Acquire) == wp
            && std::ptr::eq(w.current_klt.load(Ordering::Acquire), klt)
        {
            return Some(w);
        }
        w.preempt_enable();
        core::hint::spin_loop();
    }
}

/// Pin the calling ULT to its worker until the matching [`preempt_enable`]:
/// ticks that arrive in between are deferred to the ULT's next scheduling
/// point. For the few instructions during which a ULT holds a spin lock
/// that `block_current` registrations also take — those run pinned, so a
/// holder preempted in front of them would never get to release it. Nests;
/// a no-op outside the runtime. The section must not suspend.
// sigsafe
pub fn preempt_disable() {
    let _ = pin_current_worker();
}

/// End the section opened by [`preempt_disable`].
// sigsafe
pub fn preempt_enable() {
    // Pinned since the matching disable, so this is the same worker.
    if let Some(w) = current_worker() {
        w.preempt_enable();
    }
}

/// Whether the calling context is inside a ULT.
pub fn in_ult() -> bool {
    current_worker()
        .map(|w| !w.current.load(Ordering::Acquire).is_null())
        .unwrap_or(false)
}

/// Id of the current ULT, if inside one.
pub fn current_thread_id() -> Option<u64> {
    current_worker().and_then(|w| w.current_ult().map(|t| t.id))
}

/// Kind of the current ULT, if inside one.
pub fn current_thread_kind() -> Option<crate::thread::ThreadKind> {
    current_worker().and_then(|w| w.current_ult().map(|t| t.kind))
}

/// Rank of the worker executing the caller, if inside the runtime.
pub fn current_worker_rank() -> Option<usize> {
    current_worker().map(|w| w.rank)
}

/// One raw cooperative yield: suspend the current ULT, re-enqueue it, run
/// the scheduler. No pending-tick recheck (callers use [`yield_now`]).
///
/// `deferred` marks the yield that stands in for a tick which arrived
/// inside a pinned section. A KLT-switching ULT does not take that one: it
/// may only lose the CPU captive on its own KLT (paper §3.1.2), and a
/// cooperatively saved context is resumed by whichever KLT embodies the
/// worker next — the ULT would come back on another kernel thread. It
/// keeps running until the next tick preempts it the proper way.
// sigsafe
pub(crate) fn yield_core(deferred: bool) {
    let Some(w) = pin_current_worker() else {
        std::thread::yield_now();
        return;
    };
    let cur = w.current.load(Ordering::Acquire);
    if cur.is_null() {
        w.preempt_enable();
        return; // scheduler context: nothing to yield
    }
    // SAFETY: the running ULT is kept alive by its scheduler's Arc binding.
    let t: &Ult = unsafe { &*cur };
    if deferred && t.kind == crate::thread::ThreadKind::KltSwitching {
        w.preempt_enable();
        return;
    }
    w.set_reason(SwitchReason::Yielded);
    // SAFETY: scheduler context is suspended at its switch into us.
    unsafe {
        Context::switch(t.ctx.get(), w.sched_ctx.get());
    }
    // Resumed — possibly on a different worker.
    // sigsafe-allow: resuming outside a worker is a protocol violation; failing loud beats silent corruption
    let w2 = current_worker().expect("resumed outside a worker");
    w2.preempt_enable();
}

/// Drain deferred preemption ticks by yielding until none are pending.
/// Called on every ULT-side resume path.
// sigsafe
pub(crate) fn ult_prologue_finish() {
    loop {
        let Some(w) = current_worker() else { return };
        // Load before swap: pending ticks are rare, and the plain load
        // keeps the cache line shared on the (hot) nothing-pending resume
        // path instead of taking it exclusive on every yield.
        if !w.preempt_pending.load(Ordering::Acquire) {
            return;
        }
        if !w.preempt_pending.swap(false, Ordering::AcqRel) {
            return;
        }
        yield_core(true);
    }
}

/// Explicitly yield the current thread (the cooperative scheduling point of
/// traditional M:N threads, paper §2.2). A no-op outside the runtime (falls
/// back to `std::thread::yield_now`).
pub fn yield_now() {
    yield_core(false);
    ult_prologue_finish();
}

/// Block the current ULT after registering it with a wait container.
///
/// `register` receives the current thread and returns `true` to proceed
/// with blocking or `false` to abort (e.g. the awaited condition already
/// holds). The registered `Arc<Ult>` must later be handed to [`make_ready`]
/// exactly once to reschedule the thread.
///
/// # Panics
/// Panics if called outside a ULT.
pub fn block_current<F>(register: F)
where
    F: FnOnce(&Arc<Ult>) -> bool,
{
    let w = pin_current_worker().expect("block_current outside the runtime");
    let cur = w.current.load(Ordering::Acquire);
    assert!(!cur.is_null(), "block_current outside a ULT");
    // SAFETY: the running ULT is Arc-managed; mint a reference for the wait
    // container (pure refcount increment).
    let t = unsafe {
        Arc::increment_strong_count(cur as *const Ult);
        Arc::from_raw(cur as *const Ult)
    };
    // `transit` tells make_ready to wait until our context save completes
    // (the scheduler clears it after regaining control).
    t.transit.store(true, Ordering::Release);
    if !register(&t) {
        t.transit.store(false, Ordering::Release);
        w.ult_prologue();
        return;
    }
    t.set_state(UltState::Blocked);
    w.set_reason(SwitchReason::Blocked);
    // SAFETY: scheduler context suspended at its switch into us.
    unsafe {
        Context::switch(t.ctx.get(), w.sched_ctx.get());
    }
    // Resumed — possibly on a different worker.
    let w2 = current_worker().expect("resumed outside a worker");
    w2.ult_prologue();
}

/// Reschedule a thread previously parked via [`block_current`].
///
/// Callable from ULTs, from runtime-external threads, and from schedulers.
/// Not async-signal-safe (pool routing may touch parking locks upstream);
/// preemption handlers use the internal captive path instead.
pub fn make_ready(t: &Arc<Ult>) {
    ready(t, false);
}

/// Reschedule a thread parked via [`block_current`] *and give it the
/// caller's worker*: `t` goes into the worker's run-next slot, which the
/// scheduler serves before any pool, and the caller yields to it. A lock
/// handed over this way goes to a waiter that runs at once, not to one that
/// first waits for a worker. Go's scheduler makes the same move with
/// `runnext` for a starving `sync.Mutex`.
///
/// Does what [`make_ready`] does, without yielding, when
/// * the caller is not a ULT of `t`'s runtime;
/// * the caller already holds a pin (it must not suspend inside it);
/// * the run-next slot is taken;
/// * under [`crate::SchedPolicy::Priority`], `t` is low-priority and the
///   worker's high-priority pool is not empty.
pub fn yield_to(t: &Arc<Ult>) {
    if ready(t, true) {
        yield_now();
    }
}

/// [`make_ready`], or with `hand_over` [`yield_to`] up to its yield:
/// returns whether `t` went into the caller's run-next slot, in which case
/// the caller must yield.
fn ready(t: &Arc<Ult>, hand_over: bool) -> bool {
    // Wait for the blocker's context save to complete (nanoseconds: the
    // save is the very next instruction sequence after registration).
    while t.transit.load(Ordering::Acquire) {
        core::hint::spin_loop();
    }
    crate::debug_registry::event(crate::debug_registry::ev::READY, t.id, 0);
    t.set_state(UltState::Ready);
    // SAFETY: the runtime pointer is valid while any of its ULTs live.
    let rt = unsafe { &*t.runtime_ptr() };
    match pin_current_worker() {
        Some(cw) if std::ptr::eq(cw.runtime(), rt) => {
            // A ULT (not the scheduler context) whose only pin is ours.
            let handed = hand_over
                && !cw.current.load(Ordering::Acquire).is_null()
                && cw.preempt_disabled.0.load(Ordering::Relaxed) == 1
                && crate::sched::offer_run_next(rt, cw, t);
            if handed {
                // The caller is about to queue itself behind `t`: let an
                // idle peer take it, as the push below would.
                rt.wake_one_idle(Some(cw));
            } else {
                crate::sched::on_ready(rt, cw, t.clone(), true, true);
            }
            cw.preempt_enable();
            handed
        }
        Some(cw) => {
            // A worker of a *different* runtime: treat as external.
            cw.preempt_enable();
            let home = &rt.workers[t.home_pool % rt.workers.len()];
            crate::sched::on_ready(rt, home, t.clone(), true, false);
            false
        }
        None => {
            let home = &rt.workers[t.home_pool % rt.workers.len()];
            crate::sched::on_ready(rt, home, t.clone(), true, false);
            false
        }
    }
}

/// Blocking-offload pool limits `(max_blocking_threads,
/// blocking_keep_alive_ms)` of the ambient runtime, if the caller runs
/// inside one. `ult-future`'s elastic `spawn_blocking` pool snapshots these
/// on submission so its growth cap and idle-harvest timeout follow the
/// [`crate::Config`] of the runtime doing the submitting.
pub fn blocking_pool_limits() -> Option<(usize, u64)> {
    let w = current_worker()?;
    let cfg = &w.runtime().config;
    Some((cfg.max_blocking_threads, cfg.blocking_keep_alive_ms))
}

/// Park the current ULT until `target` finishes (one round; the caller
/// re-checks in a loop to absorb spurious wakeups).
pub(crate) fn block_on_join(target: &Arc<Ult>) {
    block_current(|me| target.register_joiner(me));
}

/// Spawn attributes: kind, priority, scheduling class and placement, with
/// chainable setters.
///
/// ```
/// use ult_core::{SpawnAttrs, SchedClass, ThreadKind};
/// let attrs = SpawnAttrs::new()
///     .kind(ThreadKind::SignalYield)
///     .class(SchedClass::Latency);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SpawnAttrs {
    /// Preemption mechanism for the thread (default
    /// [`ThreadKind::Nonpreemptive`], the cheapest kind).
    pub kind: crate::thread::ThreadKind,
    /// Scheduling priority (default [`Priority::High`] — the common pool).
    pub priority: crate::thread::Priority,
    /// Latency class for adaptive quanta (default [`SchedClass::Normal`]).
    pub class: crate::thread::SchedClass,
    /// Pin to a specific worker's pool (`rank % num_workers`); `None` uses
    /// the default placement (spawner-local or round-robin).
    pub home_pool: Option<usize>,
}

impl Default for SpawnAttrs {
    fn default() -> SpawnAttrs {
        SpawnAttrs {
            kind: crate::thread::ThreadKind::Nonpreemptive,
            priority: crate::thread::Priority::High,
            class: crate::thread::SchedClass::Normal,
            home_pool: None,
        }
    }
}

impl SpawnAttrs {
    /// Default attributes: nonpreemptive, high priority, Normal class.
    pub fn new() -> SpawnAttrs {
        SpawnAttrs::default()
    }

    /// Set the preemption kind.
    pub fn kind(mut self, kind: crate::thread::ThreadKind) -> SpawnAttrs {
        self.kind = kind;
        self
    }

    /// Set the priority.
    pub fn priority(mut self, priority: crate::thread::Priority) -> SpawnAttrs {
        self.priority = priority;
        self
    }

    /// Set the scheduling class.
    pub fn class(mut self, class: crate::thread::SchedClass) -> SpawnAttrs {
        self.class = class;
        self
    }

    /// Pin to worker `rank`'s pool.
    pub fn on(mut self, rank: usize) -> SpawnAttrs {
        self.home_pool = Some(rank);
        self
    }
}

/// Spawn a new ULT on the ambient runtime (the one executing the caller).
///
/// This is how nested parallelism works in the application kernels: an
/// outer task (itself a ULT) forks inner ULTs without threading a runtime
/// handle through every layer — the same shape as a nested OpenMP parallel
/// region over BOLT (paper §4.1).
///
/// # Panics
/// Panics when called outside a runtime worker.
pub fn spawn<T, F>(
    kind: crate::thread::ThreadKind,
    priority: crate::thread::Priority,
    f: F,
) -> crate::thread::JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    spawn_attrs(SpawnAttrs::new().kind(kind).priority(priority), f)
}

/// Spawn on the ambient runtime with a full attribute set — the ambient
/// counterpart of [`crate::runtime::Runtime::spawn_attrs`].
///
/// # Panics
/// Panics when called outside a runtime worker.
pub fn spawn_attrs<T, F>(attrs: SpawnAttrs, f: F) -> crate::thread::JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    // A plain borrow: the runtime outlives its workers' activity, so the
    // spawn takes no reference on its `Arc` (a refcount every spawning
    // worker would write).
    let w = current_worker().expect("ambient spawn outside the runtime");
    w.runtime().spawn_ult(attrs, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outside_runtime_contexts() {
        assert!(!in_ult());
        assert!(current_thread_id().is_none());
        assert!(current_worker_rank().is_none());
        assert!(current_thread_kind().is_none());
        // yield_now outside the runtime degrades to an OS yield.
        yield_now();
    }
}
