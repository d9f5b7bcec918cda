//! Kernel-level threads (KLTs) and their pools.
//!
//! KLT-switching (paper §3.1.2) virtualizes the worker–KLT binding: a worker
//! is normally embodied by one KLT, but when a running ULT is preempted the
//! whole KLT is parked "captive" (it keeps the ULT's register state and all
//! KLT-local data) and the worker is re-pointed at a different KLT from a
//! pool. Each KLT therefore runs a **home loop** on its native OS stack:
//!
//! ```text
//! park ──▶ (assigned a worker) ──▶ switch into worker's scheduler context
//!   ▲                                          │
//!   │       directive: release-to-pool / wake-captive / exit
//!   └──────────────────────────────────────────┘
//! ```
//!
//! KLTs cannot be created from a signal handler (`pthread_create` is not
//! async-signal-safe, paper §3.1.2), so allocation requests are posted to a
//! dedicated **KLT creator** thread ([`KltCreator`]); the preempted thread
//! simply returns from the handler and retries at the next tick, exactly as
//! the paper describes (worst case the system degenerates towards 1:1, never
//! livelocks).
//!
//! The KLT pool deliberately stays a spin-locked stack: KLT churn is
//! orders of magnitude rarer than ULT scheduling (one event per preemption
//! at most, vs. one pool operation per spawn/yield/steal), so it is not a
//! scalability hot path — unlike the ready pools, which are lock-free
//! Chase–Lev deques (`pool.rs`).

use crate::pool::SpinLock;
use crate::worker::Worker;
use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicPtr, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use ult_arch::Context;
use ult_sys::futex::Futex;
use ult_sys::tid::{gettid, Tid};
use ult_sys::timer::IntervalTimer;

thread_local! {
    /// The KLT descriptor of the calling OS thread (null outside runtime
    /// threads). Initialized at KLT start, so reads from the signal handler
    /// never trigger lazy TLS initialization.
    static CURRENT_KLT: Cell<*const Klt> = const { Cell::new(std::ptr::null()) };
}

/// The KLT descriptor of the calling OS thread, if it is a runtime KLT.
///
/// `#[inline(never)]` is load-bearing: user-level context switches migrate a
/// ULT between kernel threads mid-function, and an inlined thread-local
/// access lets LLVM cache the fs-relative TLS address in a register across
/// the (opaque, but thread-identity-preserving as far as LLVM knows)
/// `Context::switch` call — after a migration the cached pointer addresses
/// the OLD kernel thread's TLS. Forcing an out-of-line call recomputes the
/// TLS address from the current fs base on every query. This is the
/// standard stackful-coroutine/TLS hazard; the paper's §3.5.2 discussion of
/// `fs`-register maintenance is the same issue seen from the C side.
#[inline(never)]
// sigsafe
// blocking: never thread-local pointer read; no syscall
pub(crate) fn current_klt() -> Option<&'static Klt> {
    let p = CURRENT_KLT.with(|c| c.get());
    // SAFETY: Klt objects are kept alive by the runtime registry until
    // after every KLT thread has exited.
    unsafe { p.as_ref() }
}

/// Post-scheduler directive handed from a worker's scheduler context back to
/// the KLT home loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Directive {
    /// No directive (initial).
    None = 0,
    /// Wake the captive KLT stored in `directive_klt`, then release self to
    /// the KLT pools and re-park (the resume path of paper Fig. 3c).
    WakeCaptiveThenRelease = 1,
    /// Exit the home loop (runtime shutdown).
    Exit = 2,
}

impl Directive {
    fn from_u8(v: u8) -> Directive {
        match v {
            0 => Directive::None,
            1 => Directive::WakeCaptiveThenRelease,
            2 => Directive::Exit,
            _ => unreachable!("invalid Directive {v}"),
        }
    }
}

/// A kernel-level thread participating in the runtime.
pub(crate) struct Klt {
    /// Dense id (index into the registry).
    pub id: usize,
    /// Kernel tid, set by the thread itself before first park.
    pub tid: AtomicI32, // ordering: acqrel published before first park, read for tgkill
    /// The worker this KLT currently embodies (null when pooled/captive).
    pub worker: AtomicPtr<Worker>, // ordering: acqrel
    /// Worker to embody on the next home-loop wake.
    pub assigned_worker: AtomicPtr<Worker>, // ordering: acqrel
    /// Park point of the home loop.
    pub home_park: Futex,
    /// Park point used while captive inside a preemption signal handler.
    pub captive_park: Futex,
    /// Saved home-loop context while the KLT executes a scheduler context.
    pub home_ctx: UnsafeCell<Context>,
    /// Directive from the scheduler context (see [`Directive`]).
    directive: AtomicU8, // ordering: acqrel handed across the park/wake futex
    /// Captive KLT referenced by `WakeCaptiveThenRelease`.
    // ordering: relaxed payload of the `directive` flag pair: written before its release store, read after its acquire swap
    directive_klt: AtomicPtr<Klt>,
    /// Preferred worker rank whose local pool should receive this KLT on
    /// release (usize::MAX = none / global pool).
    pub release_to: AtomicUsize, // ordering: acqrel
    /// Shutdown flag for the home loop.
    pub shutdown: AtomicBool, // ordering: acqrel
    /// This KLT's preemption timer (`SIGEV_THREAD_ID` at itself), owned by
    /// its home-loop frame; null without one (see `preempt::tick`).
    // ordering: acqrel published by the KLT before it is offered to a pool or worker, cleared before it deletes the timer at exit
    timer: AtomicPtr<IntervalTimer>,
    /// A nudge (`preempt::tick::nudge`) is queued for this KLT and its
    /// handler has not started: later nudges send nothing, because that
    /// handler reads whatever they published. The nudge is a `tgkill`'d RT
    /// signal, which queues, and every instance still pending when the
    /// handler (`SA_NODEFER`) is entered nests one more signal frame: a KLT
    /// kept off the CPU while pushers nudge it would overflow its stack.
    // ordering: acqrel the handler's clearing swap acquires what each pusher that found it set published before its own swap
    nudge_queued: AtomicBool,
}

// SAFETY: all mutable state is atomic or confined by the home-loop protocol
// (home_ctx is only touched by the owning OS thread and by the exactly-one
// scheduler context it switched into).
unsafe impl Send for Klt {}
unsafe impl Sync for Klt {}

impl Klt {
    pub(crate) fn new(id: usize) -> Arc<Klt> {
        Arc::new(Klt {
            id,
            tid: AtomicI32::new(0),
            worker: AtomicPtr::new(std::ptr::null_mut()),
            assigned_worker: AtomicPtr::new(std::ptr::null_mut()),
            home_park: Futex::new(),
            captive_park: Futex::new(),
            home_ctx: UnsafeCell::new(Context::empty()),
            directive: AtomicU8::new(Directive::None as u8),
            directive_klt: AtomicPtr::new(std::ptr::null_mut()),
            release_to: AtomicUsize::new(usize::MAX),
            shutdown: AtomicBool::new(false),
            timer: AtomicPtr::new(std::ptr::null_mut()),
            nudge_queued: AtomicBool::new(false),
        })
    }

    /// Claim the one queued nudge: `false` if one is queued already.
    #[inline]
    // sigsafe
    pub(crate) fn claim_nudge(&self) -> bool {
        !self.nudge_queued.swap(true, Ordering::AcqRel)
    }

    /// A signal handler started on this KLT: the next nudge must be sent.
    #[inline]
    // sigsafe
    pub(crate) fn nudge_taken(&self) {
        self.nudge_queued.swap(false, Ordering::AcqRel);
    }

    /// Publish (or, with `None`, withdraw) this KLT's timer. Called by the
    /// KLT itself: before it is offered to a pool or worker, and before it
    /// deletes the timer at exit.
    pub(crate) fn set_timer(&self, timer: Option<&IntervalTimer>) {
        let p = timer.map_or(std::ptr::null(), |t| t as *const IntervalTimer);
        self.timer.store(p as *mut IntervalTimer, Ordering::Release);
    }

    /// This KLT's timer, if it has one.
    #[inline]
    // sigsafe
    pub(crate) fn timer(&self) -> Option<&IntervalTimer> {
        // SAFETY: the timer lives in the KLT's home-loop frame until the
        // thread exits and is withdrawn first. KLTs exit at shutdown only,
        // once every ULT has finished and the reactor's watcher has lost
        // the runtime, so no context still reaches for a withdrawn timer.
        unsafe { self.timer.load(Ordering::Acquire).as_ref() }
    }

    /// The kernel tid (0 until the thread has started).
    #[inline]
    // sigsafe
    pub fn tid(&self) -> Tid {
        self.tid.load(Ordering::Acquire)
    }

    /// Set the directive for the home loop (called from the scheduler
    /// context running on this KLT, just before switching back).
    pub(crate) fn set_directive(&self, d: Directive, klt: *const Klt) {
        self.directive_klt.store(klt as *mut Klt, Ordering::Relaxed);
        self.directive.store(d as u8, Ordering::Release);
    }

    /// Take the directive (home loop side).
    pub(crate) fn take_directive(&self) -> (Directive, *const Klt) {
        let d = Directive::from_u8(self.directive.swap(Directive::None as u8, Ordering::AcqRel));
        let k = self
            .directive_klt
            .swap(std::ptr::null_mut(), Ordering::Relaxed);
        (d, k as *const Klt)
    }

    /// Park in the home loop (futex; paper §3.3.1).
    pub(crate) fn park_home(&self) {
        self.home_park.park();
    }

    /// Unpark the home loop.
    // sigsafe
    pub(crate) fn unpark_home(&self) {
        self.home_park.unpark();
    }

    /// Park captive (inside the preemption signal handler). Async-signal-safe.
    // sigsafe
    pub(crate) fn park_captive(&self) {
        self.captive_park.park();
    }

    /// Wake a captive KLT so its preempted ULT resumes (paper Fig. 3b).
    // sigsafe
    pub(crate) fn unpark_captive(&self) {
        self.captive_park.unpark();
    }
}

/// A spin-locked stack of idle KLTs.
///
/// The global pool and the per-worker local pools (paper §3.3.2) share this
/// type. **Pops are async-signal-safe** (no allocation); pushes happen only
/// in home-loop context and may grow the backing storage.
pub(crate) struct KltPool {
    // lock-order: 10 klt_pool
    lock: SpinLock,
    stack: UnsafeCell<Vec<Arc<Klt>>>,
    len_hint: AtomicUsize, // ordering: acqrel lock-free emptiness peek; exact value only under the lock
    /// Optional capacity bound (worker-local pools are bounded so surplus
    /// KLTs overflow to the global pool).
    max: usize,
}

// SAFETY: stack is only touched under `lock`.
unsafe impl Send for KltPool {}
unsafe impl Sync for KltPool {}

impl KltPool {
    pub(crate) fn new(max: usize) -> KltPool {
        KltPool {
            lock: SpinLock::new(),
            stack: UnsafeCell::new(Vec::with_capacity(max.clamp(8, 1024))),
            len_hint: AtomicUsize::new(0),
            max,
        }
    }

    /// Pop an idle KLT. Async-signal-safe.
    // sigsafe
    pub(crate) fn pop(&self) -> Option<Arc<Klt>> {
        if self.len_hint.load(Ordering::Acquire) == 0 {
            return None;
        }
        self.lock.lock();
        // SAFETY: under lock.
        let v = unsafe { &mut *self.stack.get() };
        let k = v.pop();
        self.len_hint.store(v.len(), Ordering::Release);
        self.lock.unlock();
        k
    }

    /// Push an idle KLT; returns `false` when full (caller overflows to the
    /// global pool). Not async-signal-safe (may grow).
    pub(crate) fn push(&self, k: Arc<Klt>) -> Result<(), Arc<Klt>> {
        self.lock.lock();
        // SAFETY: under lock.
        let v = unsafe { &mut *self.stack.get() };
        if v.len() >= self.max {
            self.lock.unlock();
            return Err(k);
        }
        v.push(k);
        self.len_hint.store(v.len(), Ordering::Release);
        self.lock.unlock();
        Ok(())
    }

    /// Number of pooled KLTs.
    #[allow(dead_code)] // diagnostics + tests
    pub(crate) fn len(&self) -> usize {
        self.len_hint.load(Ordering::Acquire)
    }

    /// Drain all pooled KLTs (shutdown paths / tests).
    #[allow(dead_code)]
    pub(crate) fn drain(&self) -> Vec<Arc<Klt>> {
        self.lock.lock();
        // SAFETY: under lock.
        let v = unsafe { &mut *self.stack.get() };
        let out = std::mem::take(v);
        self.len_hint.store(0, Ordering::Release);
        self.lock.unlock();
        out
    }
}

/// The KLT-creator thread (paper §3.1.2).
///
/// Signal handlers post requests by bumping `pending` and waking the
/// creator; the creator spawns OS threads outside signal context and pushes
/// them (via the runtime's registration hook) into the global KLT pool.
pub(crate) struct KltCreator {
    /// Outstanding creation requests.
    pub pending: AtomicUsize, // ordering: acqrel
    /// Creator wakeup.
    pub wake: Futex,
    /// Shutdown flag.
    pub shutdown: AtomicBool, // ordering: acqrel
}

impl KltCreator {
    pub(crate) fn new() -> KltCreator {
        KltCreator {
            pending: AtomicUsize::new(0),
            wake: Futex::new(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Request one new KLT. Async-signal-safe (atomic + futex wake).
    // sigsafe
    pub(crate) fn request(&self) {
        self.pending.fetch_add(1, Ordering::Release);
        self.wake.unpark();
    }
}

/// Register the calling OS thread's KLT descriptor in thread-local storage.
/// Must be called exactly once at the top of every KLT main function (and by
/// the creator for threads it spawns) **before** any preemption signal can
/// target this thread.
pub(crate) fn bind_current_klt(klt: &Klt) {
    klt.tid.store(gettid(), Ordering::Release);
    CURRENT_KLT.with(|c| c.set(klt as *const Klt));
}

/// Clear the thread-local binding (KLT exit).
pub(crate) fn unbind_current_klt() {
    CURRENT_KLT.with(|c| c.set(std::ptr::null()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directive_round_trip() {
        let k = Klt::new(0);
        let k2 = Klt::new(1);
        assert_eq!(k.take_directive().0, Directive::None);
        k.set_directive(Directive::WakeCaptiveThenRelease, Arc::as_ptr(&k2));
        let (d, p) = k.take_directive();
        assert_eq!(d, Directive::WakeCaptiveThenRelease);
        assert_eq!(p, Arc::as_ptr(&k2));
        // Taking again yields None.
        assert_eq!(k.take_directive().0, Directive::None);
    }

    #[test]
    fn pool_lifo_and_bound() {
        let pool = KltPool::new(2);
        let a = Klt::new(0);
        let b = Klt::new(1);
        let c = Klt::new(2);
        assert!(pool.push(a.clone()).is_ok());
        assert!(pool.push(b.clone()).is_ok());
        let _ = (&a, &b);
        // Bounded: third push overflows.
        assert!(pool.push(c).is_err());
        assert_eq!(pool.len(), 2);
        // LIFO pop for locality.
        assert_eq!(pool.pop().unwrap().id, 1);
        assert_eq!(pool.pop().unwrap().id, 0);
        assert!(pool.pop().is_none());
    }

    #[test]
    fn pool_drain() {
        let pool = KltPool::new(10);
        for i in 0..5 {
            assert!(pool.push(Klt::new(i)).is_ok());
        }
        let all = pool.drain();
        assert_eq!(all.len(), 5);
        assert_eq!(pool.len(), 0);
    }

    #[test]
    fn bind_unbind_current() {
        let k = Klt::new(42);
        assert!(current_klt().is_none());
        bind_current_klt(&k);
        assert_eq!(current_klt().unwrap().id, 42);
        assert_eq!(current_klt().unwrap().tid(), gettid());
        unbind_current_klt();
        assert!(current_klt().is_none());
    }

    #[test]
    fn creator_request_counts() {
        let c = KltCreator::new();
        c.request();
        c.request();
        assert_eq!(c.pending.load(Ordering::Acquire), 2);
        // wake tokens deposited
        assert!(c.wake.try_park());
        assert!(c.wake.try_park());
        assert!(!c.wake.try_park());
    }

    #[test]
    fn captive_park_unpark_futex() {
        let k = Klt::new(0);
        k.unpark_captive();
        k.park_captive(); // token pre-deposited: returns immediately
    }
}
