//! Diagnostic event ring: a lossy record of recent scheduling events.
//!
//! Every spawn, dispatch, preemption, block and wake-up appends one word
//! ([`event`]); [`recent_events`] reads the last ones back. Compiled in
//! unconditionally, and async-signal-safe on both sides, so debugging
//! harnesses and crash handlers can dump it.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Event codes for the diagnostic ring (see [`event`]).
pub mod ev {
    /// ULT spawned.
    pub const SPAWN: u64 = 1;
    /// ULT dispatched by a scheduler (normal run).
    pub const RUN: u64 = 2;
    /// ULT dispatched via the captive-resume path.
    pub const RESUME_CAPTIVE: u64 = 3;
    /// Signal-yield preemption.
    pub const PREEMPT_SY: u64 = 4;
    /// KLT-switching preemption (captive park entered).
    pub const PREEMPT_KS: u64 = 5;
    /// Captive KLT woke; ULT continues.
    pub const CAPTIVE_WOKE: u64 = 6;
    /// ULT yielded.
    pub const YIELD: u64 = 7;
    /// ULT blocked.
    pub const BLOCK: u64 = 8;
    /// ULT made ready.
    pub const READY: u64 = 9;
    /// ULT finished.
    pub const FINISH: u64 = 10;
    /// ULT dropped (stack about to be freed).
    pub const FREE: u64 = 11;
    /// ULT popped from a pool.
    pub const POP: u64 = 12;
    /// KLT embodied a worker via the home loop (ult=klt id, aux=worker).
    pub const EMBODY: u64 = 13;
    /// Scheduler context regained control (ult=thread, aux=reason).
    pub const SCHEDRET: u64 = 14;
    /// Handler acquired a replacement KLT (ult=thread, aux=new klt).
    pub const KSGRAB: u64 = 15;
    /// Tick-elision state machine transition (ult=site id, aux=worker
    /// rank). Sites (`preempt::tick::site`): 1 = elide at `try_elide`, 2 =
    /// `try_elide` Dekker abort (work raced in), 3 = `try_elide`
    /// post-disarm handler repair, 4 = dispatch-time rearm, 5 =
    /// nonpreemptive-occupant elide, 6 = handler-side rearm, 7 = self-push
    /// rearm, 8 = remote nudge sent. These are low-frequency state changes
    /// (not per-tick) and made the elided-flag/disarmed-timer divergence
    /// diagnosable from the ring.
    pub const TICKOP: u64 = 16;
    /// Readiness-driven preemption (ult=site id, aux=worker rank). Sites
    /// (`preempt::tick::kick`): 1 = watcher signalled the worker, 2 =
    /// watcher sent nothing (worker parked in its shard or nothing
    /// preemptible running), 3 = the handler acted on the kick, 4 = the
    /// scheduler's forced poll consumed it. A request that waited for the
    /// tick shows as a missing 1 (shard not watched) or a 1 without its 3
    /// (signal lost or deferred).
    pub const IOKICK: u64 = 17;
    /// A KLT's home loop handed its worker to a captive KLT and woke it
    /// (ult=captive klt id, aux=releasing klt id).
    pub const WAKE_CAPTIVE: u64 = 18;
}

const EN: usize = 4096;
// ordering: relaxed debug telemetry; lossy ring, torn entries acceptable
static EVENTS: [AtomicU64; EN] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const Z: AtomicU64 = AtomicU64::new(0);
    [Z; EN]
};
static ENEXT: AtomicUsize = AtomicUsize::new(0); // ordering: counter

/// Record a diagnostic event (code, ult id, auxiliary value). Async-signal-
/// safe; lossy ring.
#[inline]
// sigsafe
pub fn event(code: u64, ult: u64, aux: u64) {
    let i = ENEXT.fetch_add(1, Ordering::Relaxed) % EN;
    EVENTS[i].store(
        (code << 56) | ((ult & 0xFF_FFFF) << 32) | (aux & 0xFFFF_FFFF),
        Ordering::Relaxed,
    );
}

/// Snapshot the last `n` events as (code, ult, aux), oldest first.
/// Async-signal-safe (atomic loads into a caller buffer).
pub fn recent_events(out: &mut [(u64, u64, u64)]) -> usize {
    let end = ENEXT.load(Ordering::Relaxed);
    let n = out.len().min(end).min(EN);
    for (k, slot) in out.iter_mut().take(n).enumerate() {
        let idx = (end - n + k) % EN;
        let v = EVENTS[idx].load(Ordering::Relaxed);
        *slot = (v >> 56, (v >> 32) & 0xFF_FFFF, v & 0xFFFF_FFFF);
    }
    n
}
