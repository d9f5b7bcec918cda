//! A worker's preemption tick: one state ([`Tick`]) and every transition
//! of it.
//!
//! # Whose timer
//!
//! A worker's tick comes from the POSIX timer of the KLT that embodies it
//! (paper §3.2, `SIGEV_THREAD_ID`; `Klt::timer`). Each KLT creates its
//! timer disarmed when it starts, before it is offered to any pool or
//! worker, and deletes it before its thread exits. A KLT switch creates and
//! deletes nothing: the timer of the KLT that starts embodying a worker is
//! armed at the worker's aligned phase ([`embody`]), and the KLT that stops
//! disarms its own ([`release`]). KLTs live as long as the runtime, so any
//! context, the signal handler included, may `timer_settime` or
//! `timer_getoverrun` a worker's timer through `current_klt`, with no lock
//! and no stale handle. An arm that races a release (a remote [`queued`])
//! leaves the released KLT ticking until its next embodiment arms its timer
//! again; the handler drops those ticks (the KLT embodies no worker).
//!
//! # Tick elision
//!
//! A tick is useful only when the worker has something to timeslice *to*.
//! At every dispatch ([`dispatch`]) and before parking idle ([`try_elide`])
//! the worker elides its tick — raises `elided` and disarms its timer —
//! when the occupant is nonpreemptive or nothing else is runnable, and
//! restores it when work is queued for a preemptive occupant. Pushes
//! restore it too: a preemptive occupant's own push re-arms on the spot, a
//! push to another worker sends it a nudge whose handler re-arms from the
//! owner side ([`on_push`], [`handler_entry`]). The elide edge races
//! against those pushes; the Dekker pairing in `try_elide` (flag store,
//! `SeqCst` fence, pool re-check — against push, fence, flag load) makes
//! one side always see the other. DESIGN.md's "Who may wake or re-arm a
//! worker" table lists which context may re-arm which worker.
//!
//! # Filters
//!
//! A timeslice publishes its start and a coarse-clock deadline before which
//! any tick is premature ([`publish_timeslice`]); the handler bounces such
//! ticks with a vDSO clock read ([`handler_entry`]) and the echoes of a
//! fresh timeslice with the precise clock ([`due`]). A reactor kick
//! ([`io_kick`]) is due whatever the filters say.

use crate::debug_registry::{ev, event};
use crate::klt::Klt;
use crate::runtime::RuntimeInner;
use crate::thread::{SchedClass, ThreadKind, Ult};
use crate::worker::Worker;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use ult_arch::CacheAligned;
use ult_sys::clock::{now_coarse_ns, now_ns};
use ult_sys::timer::{aligned_phase_ns, IntervalTimer};

/// Where an `ev::TICKOP` event comes from (its `ult` field).
mod site {
    /// `try_elide` took the tick out of service.
    pub const ELIDE: u64 = 1;
    /// `try_elide` found work behind its flag store and backed off.
    pub const ELIDE_ABORTED: u64 = 2;
    /// A handler re-armed between `try_elide`'s flag store and its disarm.
    pub const ELIDE_REPAIRED: u64 = 3;
    /// A dispatch found work queued behind a preemptive occupant.
    pub const DISPATCH: u64 = 4;
    /// A nonpreemptive occupant: elided whatever is queued.
    pub const NONPREEMPTIVE: u64 = 5;
    /// The handler re-armed over a preemptive occupant.
    pub const HANDLER: u64 = 6;
    /// A preemptive occupant pushed work onto its own worker.
    pub const SELF_PUSH: u64 = 7;
    /// A push to another worker sent it a nudge.
    pub const NUDGE: u64 = 8;
}

/// One worker's tick state. Written by the context that embodies the
/// worker, except the pushers' quantum shrink and the watcher's kick.
#[derive(Default)]
pub(crate) struct Tick {
    /// The tick is elided: the worker's timer is disarmed and pushers must
    /// nudge. Dekker-paired with the pushers: the elider stores `true`,
    /// fences, then re-reads the pools; the pusher pushes, fences, then
    /// reads this flag. On a line of its own: every push to another worker
    /// reads it, and the owner writes the words below at every dispatch.
    elided: CacheAligned<AtomicBool>, // ordering: seqcst Dekker pairing against the push paths
    /// Start of the current timeslice (monotonic ns): echo suppression for
    /// stale ticks pending across a captive park.
    // ordering: relaxed echo-suppression heuristic; a stale read only misfilters one tick
    last_ns: AtomicU64,
    /// Absolute deadline (monotonic ns) before which a tick is certainly
    /// premature: `timeslice start + quantum/2`, the echo horizon. `0`
    /// disables the coarse filter (horizon inside the coarse clock's error).
    // ordering: relaxed same-KLT deadline cache; a stale cross-KLT read only misclassifies one tick
    deadline_ns: AtomicU64,
    /// The adaptive quantum in ns (0 = the configured base tick; fixed-tick
    /// configs never write it). Writers store it *before* the deadline, so
    /// a handler that observes the new deadline also observes the matching
    /// quantum (model: `quantum_publish_vs_handler`).
    // ordering: acqrel quantum published before the deadline store; the handler reads deadline then quantum
    quantum_ns: AtomicU64,
    /// The reactor's watcher found this worker's shard ready: the next tick
    /// is due whatever the filters say, and the next `maybe_poll` (which
    /// clears it) ignores its rate limit. Stored before the signal is sent.
    // ordering: acqrel set by the watcher before its tgkill, read by the handler, swapped clear by the scheduler's poll
    io_kick: AtomicBool,
}

/// The worker's timer: its current KLT's (none on a KLT whose
/// `timer_create` failed, or with timers off).
#[inline]
// sigsafe
fn timer(w: &Worker) -> Option<&IntervalTimer> {
    // SAFETY: KLTs are registry-kept for the runtime's life.
    unsafe { w.current_klt.load(Ordering::Acquire).as_ref() }.and_then(|k| k.timer())
}

/// Arm the worker's timer: next expiry after one `interval_ns`, then
/// periodic.
// sigsafe
fn arm_timer(w: &Worker, interval_ns: u64) {
    if let Some(t) = timer(w) {
        let _ = t.arm(interval_ns, 0);
    }
}

/// The worker's effective preemption interval: the adaptive quantum if one
/// has been published, else the configured base tick.
#[inline]
// sigsafe
fn quantum_ns(rt: &RuntimeInner, w: &Worker) -> u64 {
    let q = w.tick.quantum_ns.load(Ordering::Acquire);
    if q == 0 {
        rt.config.preempt_interval_ns
    } else {
        q
    }
}

/// The adaptive quantum floor is the base tick divided by this.
const QUANTUM_FLOOR_DIV: u64 = 4;
/// The adaptive quantum ceiling is the base tick multiplied by this.
const QUANTUM_CEIL_MUL: u64 = 4;

/// The adaptive quantum floor (base tick / [`QUANTUM_FLOOR_DIV`]).
#[inline]
// sigsafe
fn quantum_floor(rt: &RuntimeInner) -> u64 {
    (rt.config.preempt_interval_ns / QUANTUM_FLOOR_DIV).max(1)
}

/// The adaptive quantum ceiling (base tick × [`QUANTUM_CEIL_MUL`]).
#[inline]
fn quantum_ceil(rt: &RuntimeInner) -> u64 {
    rt.config
        .preempt_interval_ns
        .saturating_mul(QUANTUM_CEIL_MUL)
}

/// Restore an elided tick: clear the flag, arm the timer at the worker's
/// quantum (shrunk if latency work is queued), log `site`, count.
// sigsafe
fn rearm(rt: &RuntimeInner, w: &Worker, site: u64) {
    w.tick.elided.store(false, Ordering::SeqCst);
    arm_timer(w, quantum_ns(rt, w));
    event(ev::TICKOP, site, w.rank as u64);
    w.stats.tick_rearms.fetch_add(1, Ordering::Relaxed);
}

/// Take the tick out of service: disarm, log `site`, count. The caller has
/// raised the flag; in `try_elide` that store is the Dekker half that must
/// precede the fence, so it cannot live here.
fn elide(w: &Worker, site: u64) {
    if let Some(t) = timer(w) {
        let _ = t.disarm();
    }
    event(ev::TICKOP, site, w.rank as u64);
    w.stats.tick_elisions.fetch_add(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Embodiment
// ---------------------------------------------------------------------------

/// `klt` starts embodying `w` (home-loop embody, captive resume): start its
/// timer, first expiry `aligned_phase_ns(rank, n, T)` from now (paper
/// §3.2.1's staggering; 0 ⇒ one full interval), then every `T`, the
/// worker's quantum.
///
/// Armed even with the tick elided: a nudge sent while `current_klt` moves
/// can land on the KLT that just stopped embodying and be dropped there as
/// stale, and the first tick of this timer is what then re-arms from the
/// owner side ([`handler_entry`]). Honouring the flag here instead (or
/// disarming under it, racing that handler's re-arm) can leave a
/// preemptive occupant with work queued and no timer.
pub(crate) fn embody(rt: &RuntimeInner, w: &Worker, klt: &Klt) {
    if let Some(t) = klt.timer() {
        let q = quantum_ns(rt, w);
        let _ = t.arm(q, aligned_phase_ns(w.rank, rt.workers.len(), q));
    }
}

/// `klt` stops embodying a worker (the KLT-switch handler before its
/// captive park, the home loop on release): stop its timer.
// sigsafe
pub(crate) fn release(klt: &Klt) {
    if let Some(t) = klt.timer() {
        let _ = t.disarm();
    }
}

// ---------------------------------------------------------------------------
// Dispatch and idle
// ---------------------------------------------------------------------------

/// The dispatch of `t` on `w`, right before the switch into it: move the
/// adaptive quantum, start a fresh timeslice from it and settle elision.
pub(crate) fn dispatch(rt: &RuntimeInner, w: &Worker, t: &Ult) {
    update_quantum(rt, w, t);
    publish_timeslice(rt, w, now_ns());
    update_tick_state(rt, w, t);
}

/// Start a fresh timeslice at `now`: record the echo-suppression timestamp
/// and publish the coarse filter's deadline (`now + quantum/2`, or 0 when
/// that horizon is inside the coarse clock's error band — the precise echo
/// check in [`due`] stays authoritative there).
#[inline]
// sigsafe
pub(crate) fn publish_timeslice(rt: &RuntimeInner, w: &Worker, now: u64) {
    w.tick.last_ns.store(now, Ordering::Release);
    let horizon = quantum_ns(rt, w) / 2;
    let deadline = if horizon > rt.coarse_slack_ns {
        now.saturating_add(horizon)
    } else {
        0
    };
    w.tick.deadline_ns.store(deadline, Ordering::Release);
}

/// Dispatch-side half of the adaptive quantum. Samples the dispatched
/// thread's queue delay (coarse clock: stamped at push, read here) and the
/// local latency backlog, then moves the quantum one step: halve toward the
/// floor under latency pressure or congestion, double toward the ceiling
/// while only throughput work runs, snap back to the base tick otherwise.
/// A change re-phases an armed timer at the new interval (an elided one
/// picks it up at re-arm).
fn update_quantum(rt: &RuntimeInner, w: &Worker, t: &Ult) {
    match t.class {
        SchedClass::Latency => {
            w.stats.latency_dispatches.fetch_add(1, Ordering::Relaxed);
        }
        SchedClass::Throughput => {
            w.stats
                .throughput_dispatches
                .fetch_add(1, Ordering::Relaxed);
        }
        SchedClass::Normal => {}
    }
    if !rt.config.adaptive_quantum || rt.config.preempt_interval_ns == 0 {
        return;
    }
    let base = rt.config.preempt_interval_ns;
    let cur = quantum_ns(rt, w);
    let ready_at = t.ready_at_ns.load(Ordering::Relaxed);
    let delay = if ready_at == 0 {
        0
    } else {
        now_coarse_ns().saturating_sub(ready_at)
    };
    let lat_waiting = w.pool.has_latency() || w.lo_pool.has_latency();
    let next = if lat_waiting || (t.class == SchedClass::Latency && delay > cur) {
        (cur / 2).max(quantum_floor(rt))
    } else if t.class == SchedClass::Throughput && delay <= base {
        cur.saturating_mul(2).min(quantum_ceil(rt))
    } else {
        base
    };
    if next == cur {
        return;
    }
    if next < cur {
        w.stats.quantum_shrinks.fetch_add(1, Ordering::Relaxed);
    } else {
        w.stats.quantum_stretches.fetch_add(1, Ordering::Relaxed);
    }
    // Quantum before deadline: `publish_timeslice` runs right after this.
    w.tick.quantum_ns.store(next, Ordering::Release);
    if !w.tick.elided.load(Ordering::SeqCst) {
        arm_timer(w, next);
    }
}

/// Keep the timer armed only while the worker runs a preemptive ULT *and*
/// other work exists for a preemption to switch to.
fn update_tick_state(rt: &RuntimeInner, w: &Worker, t: &Ult) {
    if !rt.tick_elision {
        return;
    }
    let preemptive = t.kind != ThreadKind::Nonpreemptive;
    // A reactor shard holding armed waiters (fd interest or wheel
    // deadlines) counts as work: a tick is what gives a busy worker the
    // dispatch boundaries at which it services its shard, and the waiter's
    // own wake is the only other event that could ever end the occupant's
    // monopoly. Eliding (or staying elided) here would deadlock e.g. a solo
    // spinner plus a ULT sleeping on this shard's wheel — the block that
    // armed the waiter caused this very dispatch, so checking at every
    // dispatch closes the arm-after-elide window. (An idle worker still
    // elides: its epoll park serves the shard with a kernel timeout.)
    let shard_pending = preemptive && crate::io_hook::shard_pending(w);
    if preemptive && (shard_pending || crate::sched::has_any_work(rt, w)) {
        if w.tick.elided.swap(false, Ordering::SeqCst) {
            rearm(rt, w, site::DISPATCH);
        }
        // Whoever needs a timer to get the CPU back also needs the watcher
        // to get its shard looked at before that timer fires. Not under a
        // Latency occupant: it is short by contract, readiness found while
        // it runs could only send it to the back of the queue, and the fd
        // that woke it stays readable (sticky interest) until it has read,
        // which would fire the watch at once.
        if shard_pending && t.class != SchedClass::Latency {
            crate::io_hook::watch(rt, w);
        }
    } else if preemptive {
        try_elide(rt, w);
    } else if !w.tick.elided.load(Ordering::SeqCst) {
        // Nonpreemptive occupant: ticks are useless no matter the queue —
        // the handler could never preempt it. No Dekker re-check needed;
        // the next dispatch re-arms if work is waiting.
        w.tick.elided.store(true, Ordering::SeqCst);
        elide(w, site::NONPREEMPTIVE);
    }
}

/// Take the tick out of service: nothing is runnable beyond what the
/// worker is about to run, or it is about to park idle (an idle worker takes
/// zero timer signals; its next dispatch re-arms). The store-fence-recheck
/// sequence is the elider half of the Dekker pairing with [`on_push`].
pub(crate) fn try_elide(rt: &RuntimeInner, w: &Worker) {
    if !rt.tick_elision || w.tick.elided.load(Ordering::SeqCst) {
        return;
    }
    w.tick.elided.store(true, Ordering::SeqCst);
    std::sync::atomic::fence(Ordering::SeqCst);
    if crate::sched::has_any_work(rt, w) {
        // Work raced in between the pick and the flag store; keep ticking.
        w.tick.elided.store(false, Ordering::SeqCst);
        event(ev::TICKOP, site::ELIDE_ABORTED, w.rank as u64);
        return;
    }
    elide(w, site::ELIDE);
    // A handler on this KLT may have re-armed between our flag store and
    // the disarm (nudge from a remote pusher); honor it.
    if !w.tick.elided.load(Ordering::SeqCst) {
        rearm(rt, w, site::ELIDE_REPAIRED);
    }
}

// ---------------------------------------------------------------------------
// Pushes
// ---------------------------------------------------------------------------

/// A ULT was just queued for `w` (`latency`: of the `Latency` class): the
/// push-side half of the adaptive quantum. A latency arrival collapses the
/// quantum to the floor, cuts the premature-tick deadline so the next tick
/// acts instead of bouncing off the coarse filter, and re-phases an armed
/// timer so that tick lands within the floor rather than the old (possibly
/// stretched) period. `on_preempted` runs this inside the handler.
// sigsafe
pub(crate) fn queued(rt: &RuntimeInner, w: &Worker, latency: bool) {
    if !latency || !rt.config.adaptive_quantum || rt.config.preempt_interval_ns == 0 {
        return;
    }
    let floor = quantum_floor(rt);
    if quantum_ns(rt, w) <= floor {
        return;
    }
    w.stats.quantum_shrinks.fetch_add(1, Ordering::Relaxed);
    // Quantum before deadline (the quantum-publish protocol).
    w.tick.quantum_ns.store(floor, Ordering::Release);
    w.tick.deadline_ns.store(0, Ordering::Release);
    if !w.tick.elided.load(Ordering::SeqCst) {
        arm_timer(w, floor);
    }
}

/// After publishing work to `target`'s pools and waking it, restore its
/// tick if it was elided: the pusher half of the Dekker pairing with
/// `try_elide` (push, fence, read flag). Not called on the scheduler's own
/// yield re-enqueue, which dispatches again at once.
///
/// `is_self`: the caller embodies `target` (its scheduler context or a ULT
/// pinned on it). Then only a preemptive occupant gets its tick back: from
/// the scheduler context or a `Nonpreemptive` ULT no tick could act before
/// the next dispatch, and that dispatch re-arms iff it runs a preemptive
/// ULT with work queued — program order on one thread, so no Dekker pairing
/// is involved ([`handler_entry`] leans on the same argument). Re-arming
/// here would be a `timer_settime` that the dispatch undoes with another.
///
/// Lock-free throughout, so `on_preempted`'s cross-worker pushes call it
/// from the handler.
// sigsafe
pub(crate) fn on_push(rt: &RuntimeInner, target: &Worker, is_self: bool) {
    if !rt.tick_elision || (is_self && !target.stats.current_kind_preemptive()) {
        return;
    }
    std::sync::atomic::fence(Ordering::SeqCst);
    if !target.tick.elided.load(Ordering::SeqCst) {
        return;
    }
    if is_self {
        // Our own worker, running a preemptive spawner: re-arm directly.
        rearm(rt, target, site::SELF_PUSH);
    } else {
        event(ev::TICKOP, site::NUDGE, target.rank as u64);
        nudge(target);
    }
}

/// Send a preemption tick to `w`'s current KLT; returns whether one is on
/// its way. As a nudge to an elided worker, its handler re-arms from the
/// owner side (and may preempt the running ULT right away — wanted, work
/// just arrived); a worker idle-parked instead is woken by the unpark that
/// accompanies the push, and its next dispatch re-arms. At most one nudge
/// is queued per KLT (`Klt::claim_nudge`): a later one is left to the
/// handler of the queued one, which starts after it and so reads what it
/// published.
// sigsafe
fn nudge(w: &Worker) -> bool {
    // SAFETY: KLTs are registry-kept for the runtime's life.
    let Some(k) = (unsafe { w.current_klt.load(Ordering::Acquire).as_ref() }) else {
        return false;
    };
    let tid = k.tid();
    if tid == 0 {
        return false;
    }
    if !k.claim_nudge() {
        return true;
    }
    let sent = ult_sys::signal::send_signal(tid, crate::preempt::preempt_signum());
    if !sent {
        k.nudge_taken();
    }
    sent
}

// ---------------------------------------------------------------------------
// The handler
// ---------------------------------------------------------------------------

/// Handler entry on the KLT that embodies `w`: re-arm an elided tick over a
/// preemptive occupant (a pusher saw work and nudged; an idle or
/// nonpreemptive occupant re-arms at its next dispatch instead), then
/// bounce a definitely-early tick off the cached deadline with a coarse
/// vDSO clock read — no syscall, no scheduler state. The coarse clock lags
/// real time by at most its resolution; the slack (2× resolution) makes the
/// early verdict sound. Returns whether the tick may act.
// sigsafe
pub(crate) fn handler_entry(rt: &RuntimeInner, w: &Worker) -> bool {
    if w.tick.elided.load(Ordering::SeqCst) && w.stats.current_kind_preemptive() {
        rearm(rt, w, site::HANDLER);
    }
    // An I/O kick is never early; its sender cleared the deadline, but a
    // dispatch in between may have published a new one.
    let deadline = w.tick.deadline_ns.load(Ordering::Acquire);
    if deadline != 0
        && !w.tick.io_kick.load(Ordering::Acquire)
        && now_coarse_ns().saturating_add(rt.coarse_slack_ns) < deadline
    {
        w.stats.filtered_ticks.fetch_add(1, Ordering::Relaxed);
        return false;
    }
    true
}

/// The precise echo check, once the handler found `t` running and
/// preemptible at `now`: bursts of stale ticks (queued while a captive KLT
/// had them pending) must not re-preempt a fresh timeslice. The window is
/// half the live quantum, so a shrunk quantum's ticks are not bounced as
/// echoes. An I/O kick is due whenever it arrives — the scheduler we switch
/// to polls first thing — except over a `Latency` occupant, which is short
/// by contract: there the kick counts as an ordinary tick and the flag
/// waits for the occupant to block. Returns whether the tick may act.
// sigsafe
pub(crate) fn due(rt: &RuntimeInner, w: &Worker, t: &Ult, now: u64) -> bool {
    let last = w.tick.last_ns.load(Ordering::Acquire);
    let interval = quantum_ns(rt, w).max(1);
    let kicked = w.tick.io_kick.load(Ordering::Acquire) && t.class != SchedClass::Latency;
    if !kicked && now.saturating_sub(last) < interval / 2 {
        w.stats.suppressed_ticks.fetch_add(1, Ordering::Relaxed);
        return false;
    }
    if kicked && t.kind != ThreadKind::Nonpreemptive {
        w.stats.io_preempts.fetch_add(1, Ordering::Relaxed);
        event(ev::IOKICK, 3, w.rank as u64);
    }
    true
}

// ---------------------------------------------------------------------------
// The reactor watcher's kick
// ---------------------------------------------------------------------------

/// The reactor watcher's preemption (`io_hook::io_kick`, which holds the
/// lock that keeps `w`'s runtime alive): a fd of `w`'s shard is ready, so
/// take the CPU from `w`'s occupant now instead of at the next tick. The
/// flag and the cleared deadline are published before the signal, so the
/// handler it runs finds the tick due. Returns whether a signal was sent.
/// When none is — nothing preemptible is running, so the tick is elided or
/// the worker is between ULTs — the flag still makes the worker's next
/// `maybe_poll` ignore its rate limit; a worker parked in the shard's own
/// `epoll_wait` is woken by the same readiness and needs neither.
pub(crate) fn io_kick(w: &Worker) -> bool {
    let sent = !w.reactor_park.load(Ordering::SeqCst) && {
        w.tick.io_kick.store(true, Ordering::Release);
        w.tick.deadline_ns.store(0, Ordering::Release);
        // Reads only the `current_kind` mirror — never the remote `current`
        // pointer, whose thread may finish and be freed concurrently.
        !w.tick.elided.load(Ordering::SeqCst) && w.stats.current_kind_preemptive() && nudge(w)
    };
    event(ev::IOKICK, if sent { 1 } else { 2 }, w.rank as u64);
    sent
}

/// The scheduler's poll site: consume a pending kick, which lifts the
/// poll's rate limit once.
#[inline]
pub(crate) fn take_io_kick(w: &Worker) -> bool {
    let kicked =
        w.tick.io_kick.load(Ordering::Acquire) && w.tick.io_kick.swap(false, Ordering::AcqRel);
    if kicked {
        event(ev::IOKICK, 4, w.rank as u64);
    }
    kicked
}

/// `(elided, armed)`: the flag, and whether the kernel holds the timer of
/// `w`'s current KLT armed. Racy; diagnostics only.
pub(crate) fn debug_view(w: &Worker) -> (bool, bool) {
    (
        w.tick.elided.load(Ordering::SeqCst),
        timer(w).is_some_and(IntervalTimer::is_armed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_quantum_spans_a_quarter_to_four_base_ticks() {
        let rt = RuntimeInner::new(crate::Config {
            num_workers: 1,
            preempt_interval_ns: 1_000_000,
            adaptive_quantum: true,
            ..crate::Config::default()
        });
        assert_eq!(quantum_floor(&rt), 250_000);
        assert_eq!(quantum_ceil(&rt), 4_000_000);
    }
}
