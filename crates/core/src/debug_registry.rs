//! Debug-only registry mapping stack addresses back to ULT ids.
//!
//! Never unregisters: a lookup hit on a *freed* stack is exactly the
//! diagnostic signal the crash handlers need. Negligible cost (a few
//! atomic stores per spawn); compiled in unconditionally but only consulted
//! by debugging harnesses.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const N: usize = 1 << 14;

struct Entry {
    id: AtomicU64, // ordering: relaxed debug telemetry; lossy ring, torn entries acceptable
    base: AtomicUsize, // ordering: relaxed debug telemetry; lossy ring, torn entries acceptable
    top: AtomicUsize, // ordering: relaxed debug telemetry; lossy ring, torn entries acceptable
}

static ENTRIES: [Entry; N] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const Z: Entry = Entry {
        id: AtomicU64::new(0),
        base: AtomicUsize::new(0),
        top: AtomicUsize::new(0),
    };
    [Z; N]
};
static NEXT: AtomicUsize = AtomicUsize::new(0); // ordering: counter

/// Record a ULT's stack range.
pub fn register(id: u64, base: usize, top: usize) {
    let i = NEXT.fetch_add(1, Ordering::Relaxed) % N;
    ENTRIES[i].id.store(id, Ordering::Relaxed);
    ENTRIES[i].base.store(base, Ordering::Relaxed);
    ENTRIES[i].top.store(top, Ordering::Relaxed);
}

/// Find the registered stack containing `addr` (including one guard page
/// below the base). Async-signal-safe (pure atomic loads). Stack ranges are
/// recycled by the allocator, so multiple registrations may cover `addr`;
/// the one with the HIGHEST id (most recent) reflects the current owner.
pub fn lookup(addr: usize) -> Option<(u64, usize, usize)> {
    let mut best: Option<(u64, usize, usize)> = None;
    let n = NEXT.load(Ordering::Relaxed).min(N);
    for e in ENTRIES.iter().take(n) {
        let base = e.base.load(Ordering::Relaxed);
        let top = e.top.load(Ordering::Relaxed);
        if base != 0 && addr >= base.saturating_sub(4096) && addr < top {
            let id = e.id.load(Ordering::Relaxed);
            if best.map(|(b, _, _)| id > b).unwrap_or(true) {
                best = Some((id, base, top));
            }
        }
    }
    best
}

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
