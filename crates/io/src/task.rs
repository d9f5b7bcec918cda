//! The per-task waker state machine and the ULT-side future driver: the
//! one way this crate (and `ult-sync` and `ult-future` above it) parks a
//! ULT.
//!
//! [`block_on`] inside a ULT is [`drive`]: poll the future, and on
//! `Pending` park through the runtime's ordinary `block_current`/
//! `make_ready` pair. Blocking sockets, timed waits, `sleep`,
//! `oneshot::recv` and every `ult-future` task run through it. The hazard
//! is the classic lost wakeup — a `Waker::wake` racing the
//! not-yet-committed park. [`TaskCore`] closes it with a four-state claim
//! machine (model-checked in `crates/model`, `waker_park_vs_wake`):
//!
//! ```text
//!            swap(POLLING)                 CAS POLLING→IDLE
//!  NOTIFIED ───────────────▶ POLLING ──────────────────────▶ IDLE
//!      ▲                        │ wake: CAS→NOTIFIED            │ driver publishes
//!      │                        ▼ (driver re-polls)             ▼ slot, then
//!      │◀─── wake: CAS PARKED→NOTIFIED, take slot,    CAS IDLE→PARKED
//!      │     make_ready ◀──────────────────── PARKED ◀──┘
//!      └── wake: CAS IDLE→NOTIFIED (pending park aborts, re-polls)
//! ```
//!
//! Both sides move by RMW on `state`, so every transition has exactly one
//! winner: a wake between poll and park flips `IDLE → NOTIFIED` and the
//! driver's `IDLE → PARKED` CAS fails (park aborted, future re-polled); a
//! wake after the park commits claims `PARKED → NOTIFIED` and is the
//! exactly-once taker of the published ULT. The slot store is ordered
//! before the `PARKED` transition (Release) and read after the claim
//! (Acquire), so the claimer never sees an empty slot.
//!
//! `Waker::wake` reduces to one CAS loop plus `make_ready` — callable from
//! ULTs, pool KLTs, reactor service passes and external threads alike (but,
//! like `make_ready` itself, not from signal handlers).

use std::future::Future;
use std::pin::pin;
use std::sync::atomic::{AtomicPtr, AtomicU8, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use ult_core::Ult;

const IDLE: u8 = 0;
const POLLING: u8 = 1;
const NOTIFIED: u8 = 2;
const PARKED: u8 = 3;

/// One driven future's wake state (the `Arc` behind its [`Waker`]).
pub(crate) struct TaskCore {
    /// The claim machine in the module diagram; all transitions are RMWs.
    state: AtomicU8, // ordering: acqrel claim machine (module docs)
    /// The parked ULT (`Arc::into_raw`), published before the `PARKED`
    /// transition and taken by the `PARKED → NOTIFIED` claim winner.
    ult_slot: AtomicPtr<Ult>, // ordering: acqrel handoff — Release publish before PARKED, AcqRel swap by the claim winner
}

impl TaskCore {
    fn new() -> TaskCore {
        TaskCore {
            state: AtomicU8::new(NOTIFIED), // a fresh task is due a poll
            ult_slot: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// The wake half of the module diagram. Idempotent: concurrent wakes
    /// collapse into one `NOTIFIED`, and exactly one claims a parked ULT.
    fn wake_core(&self) {
        let mut cur = self.state.load(Ordering::Acquire);
        loop {
            match cur {
                // Already due a re-poll; nothing to add.
                NOTIFIED => return,
                // Mid-poll or between poll and park: flag the re-poll. The
                // driver's POLLING→IDLE or IDLE→PARKED CAS then fails and
                // it polls again instead of parking.
                IDLE | POLLING => {
                    match self.state.compare_exchange_weak(
                        cur,
                        NOTIFIED,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => return,
                        Err(now) => cur = now,
                    }
                }
                // Committed park: claim it. Exactly one waker wins this
                // CAS and becomes the sole taker of the published ULT.
                PARKED => {
                    match self.state.compare_exchange(
                        PARKED,
                        NOTIFIED,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => {
                            let raw = self.ult_slot.swap(std::ptr::null_mut(), Ordering::AcqRel);
                            debug_assert!(!raw.is_null(), "PARKED claimed with an empty slot");
                            if !raw.is_null() {
                                // SAFETY: `raw` is the driver's
                                // `Arc::into_raw` publication; the claim
                                // CAS made us its exactly-once taker.
                                let t = unsafe { Arc::from_raw(raw as *const Ult) };
                                ult_core::stats::sync_counters()
                                    .async_unparks
                                    .fetch_add(1, Ordering::Relaxed);
                                ult_core::make_ready(&t);
                            }
                            return;
                        }
                        Err(now) => cur = now,
                    }
                }
                _ => unreachable!("TaskCore state corrupted"),
            }
        }
    }
}

impl Wake for TaskCore {
    fn wake(self: Arc<Self>) {
        self.wake_core();
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.wake_core();
    }
}

impl Drop for TaskCore {
    fn drop(&mut self) {
        // The slot is only ever occupied while the driver is parked, and a
        // parked driver (plus its waker) keeps the core alive — so this is
        // defensive: release a stray publication rather than leak it.
        let raw = self.ult_slot.swap(std::ptr::null_mut(), Ordering::AcqRel);
        if !raw.is_null() {
            // SAFETY: an unclaimed `Arc::into_raw` publication.
            drop(unsafe { Arc::from_raw(raw as *const Ult) });
        }
    }
}

/// Drive `fut` to completion on the current ULT: poll, and on `Pending`
/// park until some `Waker::wake` claims us. The future lives on this ULT's
/// stack (ULT stacks are stable, never moved or shrunk).
///
/// # Panics
/// Panics propagate out (the spawn wrapper catches them and routes the
/// payload through the task's `JoinHandle`).
// ult-context
fn drive<F: Future>(fut: F) -> F::Output {
    let core = Arc::new(TaskCore::new());
    let waker = Waker::from(core.clone());
    let mut cx = Context::from_waker(&waker);
    let mut fut = pin!(fut);
    loop {
        // Consume the notification (NOTIFIED → POLLING); wakes landing
        // from here on either flag NOTIFIED (we re-poll) or claim our park.
        core.state.swap(POLLING, Ordering::AcqRel);
        if let Poll::Ready(v) = fut.as_mut().poll(&mut cx) {
            return v;
        }
        if core
            .state
            .compare_exchange(POLLING, IDLE, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            continue; // woken mid-poll: poll again before parking
        }
        ult_core::block_current(|me| {
            // Publish the ULT first, commit the park second: a claimer that
            // wins PARKED→NOTIFIED must find the slot filled.
            let raw = Arc::into_raw(me.clone()) as *mut Ult;
            core.ult_slot.store(raw, Ordering::Release);
            if core
                .state
                .compare_exchange(IDLE, PARKED, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return true; // parked; the claiming waker hands us to make_ready
            }
            // A wake slipped in (IDLE → NOTIFIED): abort the park, reclaim
            // our unpublished slot, and go poll again.
            let raw = core.ult_slot.swap(std::ptr::null_mut(), Ordering::AcqRel);
            if !raw.is_null() {
                // SAFETY: our own `Arc::into_raw` from four lines up; the
                // failed CAS means no waker saw PARKED, so nobody took it.
                drop(unsafe { Arc::from_raw(raw as *const Ult) });
            }
            false
        });
    }
}

/// `Waker` for [`block_on`] outside the runtime: parks/unparks the
/// caller's plain OS thread on a private futex (tokens are counted, so a
/// wake that lands before the park is banked, never lost).
struct ExtWaker {
    futex: ult_sys::futex::Futex,
}

impl Wake for ExtWaker {
    fn wake(self: Arc<Self>) {
        self.futex.unpark();
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.futex.unpark();
    }
}

/// Drive `fut` to completion on the calling thread.
///
/// Inside the runtime the current ULT becomes the task: `Pending` parks it
/// through the ordinary block/ready path, preemption and priorities keep
/// applying. Outside the runtime the plain OS thread parks on a futex —
/// but note that leaf futures needing the reactor ([`crate::sleep_future`],
/// async sockets) require a running runtime to complete.
// ult-context
pub fn block_on<F: Future>(fut: F) -> F::Output {
    if ult_core::in_ult() {
        return drive(fut);
    }
    let ext = Arc::new(ExtWaker {
        futex: ult_sys::futex::Futex::new(),
    });
    let waker = Waker::from(ext.clone());
    let mut cx = Context::from_waker(&waker);
    let mut fut = pin!(fut);
    loop {
        if let Poll::Ready(v) = fut.as_mut().poll(&mut cx) {
            return v;
        }
        // blocking-ok: plain-KLT fallback path, only taken outside the runtime
        ext.futex.park();
    }
}
