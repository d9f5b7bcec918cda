//! Implicit preemption: the signal handler implementing signal-yield
//! (paper §3.1.1) and KLT-switching (paper §3.1.2), plus the tick that
//! drives it (§3.2's aligned timers, tick elision, the filters) in
//! `tick`.
//!
//! # The preemption fast path
//!
//! The handler is layered so that the cheap, common outcomes pay the least:
//!
//! 1. **Nested-delivery drop** — the handlers are installed `SA_NODEFER`
//!    (no mask manipulation ⇒ no `sigprocmask` syscall on any path), so a
//!    second tick can land while one is being handled; the per-KLT depth
//!    flag drops it (one thread-local read).
//! 2. **Embodiment check** — stale ticks aimed at a KLT that no longer
//!    embodies its worker are dropped.
//! 3. **Handler self-filtering** (`tick::handler_entry`) — a cached
//!    per-worker deadline compared against `CLOCK_MONOTONIC_COARSE` (vDSO
//!    cached timestamp: a couple of loads, no syscall, no `rdtsc`) bounces
//!    definitely-early ticks without reading the precise clock or touching
//!    scheduler state.
//! 4. **The preemption itself** — signal-yield switches away with the
//!    minimal preemptive switch ([`ult_arch::Context::switch_preempt`]),
//!    reusing the signal frame's kernel-saved register image instead of
//!    saving a second register set, and resuming via `rt_sigreturn`.
//!
//! Workers with ≤1 runnable ULT have their timers elided entirely (see
//! `tick`'s state machine), so idle and single-ULT workers take **zero**
//! signals rather than cheap ones.
//!
//! # Async-signal-safety inventory
//!
//! Everything reachable from [`preempt_handler`] is restricted to: atomics,
//! futex wait/wake, `tgkill`, `clock_gettime` (precise and coarse),
//! `timer_settime`/`timer_getoverrun` on a KLT's own lifelong timer,
//! spinlock-guarded pops of pre-allocated structures (the KLT pool), the
//! ready-pool publish, and the context switch itself. The ready-pool publish
//! is the Chase–Lev owner push — one slot store plus one release store of
//! `bottom`, no lock and no CAS — or, for a non-home pool, a single-CAS push
//! onto the pool's intrusive inbox; deque growth in handler context only
//! swaps in a buffer pre-staged by spawn-side `reserve()` (see `pool.rs`).
//! In particular there is **no** allocation (the interrupted frame may be
//! inside `malloc` — the exact KLT-dependence hazard the paper describes),
//! no `timer_create` (not on the POSIX safe list; KLTs create their timers
//! when they start) and no parking-lot locks (their lazy thread data
//! allocates). The closure is checked statically by `ult-lint` (`// sigsafe`
//! annotations) and dynamically by the debug allocator guard (`sigsafe.rs`).

pub(crate) mod tick;

use crate::klt::{current_klt, Klt};
use crate::runtime::RuntimeInner;
use crate::thread::{Ult, UltState};
use crate::worker::{SwitchReason, Worker};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use ult_arch::Context;
use ult_sys::clock::now_ns;

/// The preemption tick signal.
// sigsafe
pub(crate) fn preempt_signum() -> i32 {
    libc::SIGRTMIN()
}

/// Install the preemption handler process-wide. Idempotent.
pub(crate) fn install_handlers() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        ult_sys::signal::install_handler_info(preempt_signum(), preempt_handler)
            .expect("install preempt handler");
    });
}

/// The preemption signal handler.
///
/// Installed `SA_SIGINFO | SA_RESTART | SA_NODEFER`: the third argument is
/// the kernel-saved `ucontext_t` that the signal-yield path hands to
/// [`Context::switch_preempt`], and the signal is never added to the
/// thread's mask — so no path needs a `sigprocmask` syscall.
// sigsafe
pub(crate) extern "C" fn preempt_handler(
    _sig: i32,
    _info: *mut libc::siginfo_t,
    uc: *mut libc::c_void,
) {
    // Whatever brought this signal, the KLT's queued nudge (if any) is
    // delivered now or is about to be, so the next one must be sent: clear
    // before anything below reads the state a nudger published.
    let klt = current_klt();
    if let Some(k) = klt {
        k.nudge_taken();
    }
    // Nested delivery (SA_NODEFER leaves the tick unmasked): the
    // interrupted invocation is already mid-decision on this KLT, and a
    // second decision taken over its half-read state could preempt from the
    // wrong KLT. Drop the tick — the outer invocation *is* the preemption.
    if crate::sigsafe::in_signal_handler() {
        return;
    }
    // Dynamic safety net: mark this KLT in-handler so the debug-build
    // allocator guard can catch any allocation the static analysis missed.
    // The scope drop covers every early return; the two non-returning
    // paths (signal-yield switch, captive park) clear it explicitly.
    let _in_handler = crate::sigsafe::HandlerScope::enter();
    #[cfg(debug_assertions)]
    crate::sigsafe::maybe_inject_alloc();
    let Some(klt) = klt else {
        // Signal landed on a non-runtime thread (a raised tick); drop it.
        return;
    };
    let wp = klt.worker.load(Ordering::Acquire);
    if wp.is_null() {
        return; // pooled or freshly released KLT: stale tick
    }
    // SAFETY: workers are owned by the runtime for its whole life.
    let w: &Worker = unsafe { &*wp };
    let rt = w.runtime();
    // Stale-tick guard: only the KLT currently embodying the worker may
    // preempt it (a tick sent before a KLT switch can land on the captive).
    if !std::ptr::eq(w.current_klt.load(Ordering::Acquire), klt) {
        w.stats.stale_ticks.fetch_add(1, Ordering::Relaxed);
        return;
    }
    w.stats.timer_ticks.fetch_add(1, Ordering::Relaxed);
    // Re-arm an elided tick a pusher nudged, and drop a definitely-early
    // tick (echo of a fresh timeslice, pre-deadline nudge) off the cached
    // deadline.
    if !tick::handler_entry(rt, w) {
        return;
    }

    let t_enter = now_ns();
    maybe_preempt(rt, w, klt, t_enter, uc);
}

/// Decide and perform the preemption of the current ULT, if any.
/// `t_enter` doubles as "now" for the echo filter (read once).
// sigsafe
fn maybe_preempt(rt: &RuntimeInner, w: &Worker, klt: &Klt, t_enter: u64, uc: *mut libc::c_void) {
    if w.preempt_disabled.0.load(Ordering::Acquire) != 0 {
        // Critical section: defer. The ULT prologue converts the pending
        // flag into a voluntary yield.
        if w.stats.current_kind_preemptive() {
            w.preempt_pending.store(true, Ordering::Release);
            w.stats.deferred_ticks.fetch_add(1, Ordering::Relaxed);
        }
        return;
    }
    let cur = w.current.load(Ordering::Acquire);
    if cur.is_null() {
        return; // in scheduler limbo (shouldn't happen with disabled==0)
    }
    // SAFETY: a running ULT is kept alive by the scheduler's Arc binding.
    let t: &Ult = unsafe { &*cur };

    // Echo suppression (precise): the coarse filter upstream dropped the
    // bulk of a stale burst; this decides the ties inside its error band.
    let now = t_enter;
    if !tick::due(rt, w, t, now) {
        return;
    }

    // This tick will act: account expirations the kernel merged while the
    // signal was pending (`timer_getoverrun` on this KLT's own timer), so
    // overload (interval ≪ handler cost) is measured rather than silently
    // absorbed. Skipped without a timer (`TimerStrategy::None` with raised
    // ticks, or a KLT whose `timer_create` failed).
    let ov = klt.timer().map_or(0, |timer| timer.overrun());
    if ov > 0 {
        w.stats
            .timer_overruns
            .fetch_add(ov as u64, Ordering::Relaxed);
    }

    match t.kind {
        crate::thread::ThreadKind::Nonpreemptive => {}
        crate::thread::ThreadKind::SignalYield => {
            signal_yield_preempt(rt, w, t, t_enter, now, uc);
        }
        crate::thread::ThreadKind::KltSwitching => {
            klt_switch_preempt(rt, w, klt, t, t_enter, now);
        }
    }
}

/// Signal-yield (paper §3.1.1): context switch to the scheduler from inside
/// the handler; the handler frame is captured as part of the ULT's stack.
///
/// Uses the *preemptive* half of the split context switch: the kernel
/// already saved the complete interrupted register state into the signal
/// frame (`uc`), so instead of saving a second full register set this path
/// records only a resume recipe — jump to a trampoline that runs
/// [`preempt_resume_hook`] and then `rt_sigreturn`s through `uc`, which
/// atomically restores the interrupted registers and signal mask. Never
/// returns: the suspended Rust frames below are abandoned, which is sound
/// because no live local on this path owns a resource (checked here: all
/// locals are plain references/integers).
// sigsafe
fn signal_yield_preempt(
    rt: &RuntimeInner,
    w: &Worker,
    t: &Ult,
    t_enter: u64,
    now: u64,
    uc: *mut libc::c_void,
) -> ! {
    crate::debug_registry::event(crate::debug_registry::ev::PREEMPT_SY, t.id, w.rank as u64);
    w.preempt_disable(); // scheduler baseline
    tick::publish_timeslice(rt, w, now);
    w.set_reason(SwitchReason::PreemptedSaved);
    w.stats.record_interrupt(now_ns() - t_enter);
    // Leaving the handler frame: the scheduler we switch into runs on this
    // same KLT and is free to allocate. (With SA_NODEFER there is no mask
    // to restore and the abandoned handler frame is never returned
    // through, so the depth must be cleared explicitly.)
    crate::sigsafe::exit_handler();
    // The handlers are installed without SA_ONSTACK and with SA_NODEFER,
    // exactly as `switch_preempt` requires.
    // SAFETY: scheduler ctx is suspended at its switch into us; our save
    // slot is the ULT's context, published to the scheduler via the switch;
    // `uc` is the live kernel signal frame on this ULT's stack, which stays
    // frozen (stack and all) until a scheduler restores the saved context.
    unsafe {
        Context::switch_preempt(t.ctx.get(), w.sched_ctx.get(), uc, preempt_resume_hook);
    }
}

/// Runs on the preempted ULT's stack when a scheduler restores it, just
/// before `rt_sigreturn` resumes the interrupted user code: the preemptive
/// switch's analogue of the epilogue after `Context::switch` in the
/// cooperative paths. Possibly on a different worker than the preemption —
/// preempted threads migrate.
// sigsafe
unsafe extern "C" fn preempt_resume_hook() {
    // sigsafe-allow: resuming outside a worker is a protocol violation; failing loud beats silent corruption
    let w = crate::api::current_worker().expect("resumed outside a worker");
    w.ult_prologue();
}

/// KLT-switching (paper §3.1.2, Figures 2–3): park this KLT captive and
/// remap the worker to a pooled (or newly requested) KLT.
// sigsafe
fn klt_switch_preempt(rt: &RuntimeInner, w: &Worker, klt: &Klt, t: &Ult, t_enter: u64, now: u64) {
    // Acquire a replacement KLT: worker-local pool, then global pool
    // (paper §3.3.2). All pops are async-signal-safe.
    let k2 = w.local_klts.pop().or_else(|| rt.global_klts.pop());

    let Some(k2) = k2 else {
        // No KLT available: request one from the creator and return — we
        // retry at the next tick, exactly as the paper describes (§3.1.2);
        // worst case degenerates towards 1:1, never livelocks.
        rt.creator.request();
        w.stats.klt_misses.fetch_add(1, Ordering::Relaxed);
        return;
    };

    crate::debug_registry::event(crate::debug_registry::ev::KSGRAB, t.id, k2.id as u64);
    w.preempt_disable(); // scheduler baseline for when k2 resumes it
    tick::publish_timeslice(rt, w, now);

    // Mark the thread captive and bind our KLT to it (paper Fig. 2b: the
    // preempted thread "associates the previous KLT with itself").
    t.set_state(UltState::Captive);
    t.captive_klt
        .store(klt as *const Klt as *mut Klt, Ordering::Release);
    w.current.store(std::ptr::null_mut(), Ordering::Release);
    w.stats.set_current_kind(None);
    w.stats.preemptions.fetch_add(1, Ordering::Relaxed);
    w.stats.klt_switches.fetch_add(1, Ordering::Relaxed);

    // Remap the worker to the replacement KLT and let it run the scheduler;
    // its home loop arms its own timer for the worker.
    k2.assigned_worker
        .store(w as *const Worker as *mut Worker, Ordering::Release);
    w.current_klt
        .store(Arc::as_ptr(&k2) as *mut Klt, Ordering::Release);
    // Drop our own embodiment BEFORE publishing the thread: the resumer
    // writes klt.worker and must not race our clear.
    klt.worker.store(std::ptr::null_mut(), Ordering::Release);
    // Stop our timer before the thread is published: a resume of it arms
    // the timer again, and must come after this disarm.
    tick::release(klt);

    // Publish the captive thread for rescheduling (paper Fig. 2c). The pool
    // push is allocation-free (capacity reserved at spawn).
    //
    // ORDER IS LOAD-BEARING: the push must happen BEFORE `k2` is woken.
    // The scheduler context we interrupted holds the (possibly only)
    // `Arc<Ult>` of this thread and drops it on its reason-`None` resume;
    // if `k2` resumed it before this mint+push, the refcount would hit
    // zero and the ULT — whose stack this very handler is running on —
    // would be freed mid-preemption.
    // SAFETY: `t` is Arc-managed; we mint a new strong reference for the
    // pool (pure atomic increment, async-signal-safe).
    let t_arc = unsafe {
        Arc::increment_strong_count(t as *const Ult);
        Arc::from_raw(t as *const Ult)
    };
    crate::sched::on_preempted(rt, w, t_arc, true);

    // Now it is safe to hand the worker's scheduler to the new KLT.
    k2.unpark_home();

    w.stats.record_interrupt(now_ns() - t_enter);

    crate::debug_registry::event(crate::debug_registry::ev::PREEMPT_KS, t.id, klt.id as u64);
    // The captive park below is this KLT's last handler-critical act; once
    // woken it only runs the resumed ULT's epilogue. Clear the in-handler
    // flag now — the `HandlerScope` drop at handler return saturates.
    crate::sigsafe::exit_handler();
    // Park captive, holding the ULT's registers and KLT-local state
    // (paper Fig. 2b). Woken by a scheduler's resume (Fig. 3b).
    klt.park_captive();
    crate::debug_registry::event(crate::debug_registry::ev::CAPTIVE_WOKE, t.id, klt.id as u64);

    // ---- resumed: we are now the KLT of whichever worker resumed t ----
    let w3p = klt.worker.load(Ordering::Acquire);
    // sigsafe-allow: a stale resume token is unrecoverable state corruption; abort immediately
    assert!(
        !w3p.is_null(),
        "captive resumed without a worker (stale token?)"
    );
    // SAFETY: workers live as long as the runtime.
    let w3: &Worker = unsafe { &*w3p };
    w3.stats
        .set_current_kind(Some(crate::thread::ThreadKind::KltSwitching));
    w3.ult_prologue();
    // returning from the handler resumes the interrupted user code on the
    // SAME KLT — KLT-local data was never exposed to another thread; the
    // kernel's sigreturn restores the (never-modified) mask.
}
