//! Workers and the scheduler loop.
//!
//! A worker is the paper's scheduling vessel: it owns a rank, thread pools,
//! and a **scheduler context** — a dedicated stackful context running an
//! infinite scheduling loop (paper §2.1). In the nonpreemptive/signal-yield
//! regimes a worker is permanently embodied by one KLT (paper Fig. 1a);
//! under KLT-switching the embodiment changes dynamically (Fig. 1b).
//!
//! # Preempt-disable protocol
//!
//! Signal handlers may interrupt at any instruction of a running ULT, so the
//! runtime keeps a per-worker `preempt_disabled` counter with this
//! invariant: **it is 1 whenever control is in the scheduler context or in a
//! runtime critical section, and 0 only while user ULT code runs.** The
//! counter is only ever mutated by the KLT currently embodying the worker
//! (handlers run on that same KLT), so there is no remote contention — it is
//! atomic only for visibility in assertions.
//!
//! Every suspension path *increments before switching away from a ULT* and
//! every resumption path *decrements after gaining ULT control*:
//!
//! * scheduler → ULT: decrement in the ULT-side prologue (fresh entry, or
//!   the code right after the yield/block/handler context switch);
//! * ULT → scheduler: increment in the ULT-side epilogue (yield/block/finish
//!   call or the signal handler) before the switch.
//!
//! A signal that lands while the counter is non-zero sets `preempt_pending`;
//! the prologue re-checks it and yields voluntarily, so no tick is lost
//! across a critical section.

use crate::klt::{Directive, Klt};
use crate::pool::ThreadPool;
use crate::preempt::tick::{self, Tick};
use crate::runtime::RuntimeInner;
use crate::stats::WorkerStats;
use crate::thread::{Ult, UltState};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use ult_arch::{CacheAligned, Context, Stack};
use ult_sys::clock::now_ns;
use ult_sys::futex::Futex;

/// Capacity of each worker-local KLT pool (paper §3.3.2); released KLTs
/// beyond it overflow to the global pool.
const LOCAL_KLT_POOL_CAP: usize = 4;

/// Longest idle park that counts as short: about one full idle spin plus
/// one reactor wake (`io.reactor.wake_ns` reads 25–34 µs on a 2-vCPU Xeon
/// VM). Work that ends a park this soon is worth spinning for.
const SHORT_PARK_NS: u64 = 50_000;
/// Cap of the idle spin, in `PAUSE`s: 5–6 µs at the 19–26 ns a `PAUSE`
/// takes on that VM.
const IDLE_SPIN_MAX: u32 = 256;
/// Smallest nonzero idle spin, the first step up from none.
const IDLE_SPIN_MIN: u32 = 16;

/// Why control returned from a ULT to the scheduler context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum SwitchReason {
    /// No reason recorded (scheduler resumed via KLT handoff, not via a ULT
    /// switching back).
    None = 0,
    /// Voluntary yield: re-enqueue the thread.
    Yielded = 1,
    /// Signal-yield preemption: the handler saved the ULT's context but the
    /// scheduler must re-enqueue it (publication after save, paper §3.1.1).
    PreemptedSaved = 2,
    /// The thread function completed.
    Finished = 3,
    /// Blocked on a sync primitive which now owns the thread.
    Blocked = 4,
}

impl SwitchReason {
    fn from_u8(v: u8) -> SwitchReason {
        match v {
            0 => SwitchReason::None,
            1 => SwitchReason::Yielded,
            2 => SwitchReason::PreemptedSaved,
            3 => SwitchReason::Finished,
            4 => SwitchReason::Blocked,
            _ => unreachable!("invalid SwitchReason {v}"),
        }
    }
}

/// A worker: rank, pools, scheduler context and preemption state.
pub(crate) struct Worker {
    /// Rank in `[0, n_workers)`.
    pub rank: usize,
    /// Owning runtime (set once at startup; stable for the runtime's life).
    pub rt: AtomicPtr<RuntimeInner>, // ordering: acqrel set once at startup
    /// Scheduler context (suspended while a ULT runs).
    pub sched_ctx: UnsafeCell<Context>,
    /// Stack backing the scheduler context.
    pub sched_stack: Stack,
    /// ULT currently running on this worker (null while in scheduler).
    pub current: AtomicPtr<Ult>, // ordering: acqrel
    /// KLT currently embodying this worker.
    pub current_klt: AtomicPtr<Klt>, // ordering: acqrel
    /// Preempt-disable depth (see module docs).
    // ordering: relaxed same-KLT pin depth; the handler runs on the thread it guards, so program order suffices
    pub preempt_disabled: CacheAligned<AtomicU32>,
    /// A tick arrived while disabled; the prologue turns it into a yield.
    pub preempt_pending: AtomicBool, // ordering: acqrel
    /// Why the last ULT→scheduler switch happened.
    switch_reason: AtomicU8, // ordering: acqrel handed across the context switch
    /// The worker's primary (high-priority / local) pool.
    pub pool: Arc<ThreadPool>,
    /// Low-priority LIFO pool (priority scheduler, paper §4.3).
    pub lo_pool: Arc<ThreadPool>,
    /// Worker-local KLT pool (paper §3.3.2).
    pub local_klts: crate::klt::KltPool,
    /// Idle / packing / shutdown wakeup.
    pub wake: Futex,
    /// Set while parked idle (lets push paths find sleepers to wake).
    pub idle: AtomicBool, // ordering: acqrel
    /// `PAUSE`s the next idle wait spins before it parks, learned from how
    /// long the last parks lasted (`next_idle_spin`).
    idle_spin: AtomicU32, // ordering: relaxed owner-only: the worker's scheduler context, one KLT at a time
    /// Set while parked (or committing to park) in this worker's reactor
    /// shard instead of on the futex. Dekker-paired with `unpark_kick`: the
    /// parker stores the flag, fences, then consumes any futex token; the
    /// pusher deposits its token, fences, then reads the flag and rings the
    /// shard doorbell if set.
    pub reactor_park: AtomicBool, // ordering: seqcst Dekker pairing with io_hook::unpark_kick
    /// The worker's preemption tick: elision, timeslice, quantum and the
    /// reactor's kick (`preempt::tick`).
    pub tick: Tick,
    /// Per-worker statistics (interruption samples, counts).
    pub stats: WorkerStats,
    /// RNG state for steal-victim selection (xorshift; scheduler-only).
    steal_seed: AtomicU64, // ordering: relaxed scheduler-private RNG state
    /// Alternation bit of the packing scheduler (Algorithm 1 runs one
    /// private thread then one shared thread per loop iteration).
    pack_phase: AtomicBool, // ordering: relaxed scheduler-private alternation bit
    /// Per-worker free list of recycled default-size ULT stacks. Owner
    /// access only (scheduler context or a pinned ULT on this worker, both
    /// of which hold `preempt_disabled >= 1`); overflows to the runtime's
    /// global mutex-guarded cache.
    pub(crate) stack_cache: UnsafeCell<Vec<Stack>>,
    /// Per-worker slab of finished ULT descriptors awaiting reuse by the
    /// spawn fast lane, filled by the joins and detached finishes on this
    /// worker. Same owner-only access rule as `stack_cache`.
    pub(crate) ult_cache: UnsafeCell<Vec<Arc<Ult>>>,
    /// The ULT this worker runs next, ahead of every pool: filled by
    /// `api::yield_to` from a ULT pinned on this worker, which then yields,
    /// and emptied by this worker's next `sched::pick`. Same owner-only
    /// access rule as `stack_cache`; no thief ever sees it.
    pub(crate) run_next: UnsafeCell<Option<Arc<Ult>>>,
}

// SAFETY: sched_ctx/sched_stack are confined to the embodying KLT; the
// recycling caches and the run-next slot are confined to owner contexts
// (scheduler context or a ULT pinned on this worker — mutually exclusive by
// the preempt-disable protocol); the rest is atomic.
unsafe impl Send for Worker {}
unsafe impl Sync for Worker {}

impl Worker {
    pub(crate) fn new(rank: usize, pool_capacity: usize, stat_samples: usize) -> Arc<Worker> {
        let sched_stack = Stack::new(128 * 1024).expect("scheduler stack");
        let w = Arc::new(Worker {
            rank,
            rt: AtomicPtr::new(std::ptr::null_mut()),
            sched_ctx: UnsafeCell::new(Context::empty()),
            sched_stack,
            current: AtomicPtr::new(std::ptr::null_mut()),
            current_klt: AtomicPtr::new(std::ptr::null_mut()),
            preempt_disabled: CacheAligned::new(AtomicU32::new(1)),
            preempt_pending: AtomicBool::new(false),
            switch_reason: AtomicU8::new(SwitchReason::None as u8),
            pool: Arc::new(ThreadPool::with_capacity(pool_capacity)),
            lo_pool: Arc::new(ThreadPool::with_capacity(pool_capacity)),
            local_klts: crate::klt::KltPool::new(LOCAL_KLT_POOL_CAP),
            wake: Futex::new(),
            idle: AtomicBool::new(false),
            idle_spin: AtomicU32::new(IDLE_SPIN_MAX),
            reactor_park: AtomicBool::new(false),
            tick: Tick::default(),
            stats: WorkerStats::new(stat_samples),
            steal_seed: AtomicU64::new(0x9E3779B97F4A7C15 ^ (rank as u64 + 1)),
            pack_phase: AtomicBool::new(false),
            stack_cache: UnsafeCell::new(Vec::new()),
            ult_cache: UnsafeCell::new(Vec::new()),
            run_next: UnsafeCell::new(None),
        });
        // Seed the scheduler context.
        let arg = Arc::as_ptr(&w) as *mut core::ffi::c_void;
        // SAFETY: sched_stack outlives the context; scheduler_entry never
        // returns.
        unsafe {
            *w.sched_ctx.get() = Context::new(w.sched_stack.top(), scheduler_entry, arg);
        }
        w
    }

    /// The owning runtime.
    #[inline]
    // sigsafe
    pub(crate) fn runtime(&self) -> &RuntimeInner {
        // SAFETY: set once before any scheduling happens; the runtime
        // outlives all workers' activity.
        unsafe { &*self.rt.load(Ordering::Acquire) }
    }

    /// The currently running ULT, if any.
    #[inline]
    pub(crate) fn current_ult(&self) -> Option<&Ult> {
        // SAFETY: `current` points into an Arc<Ult> kept alive while
        // running on this worker.
        unsafe { self.current.load(Ordering::Acquire).as_ref() }
    }

    #[inline]
    // sigsafe
    pub(crate) fn set_reason(&self, r: SwitchReason) {
        self.switch_reason.store(r as u8, Ordering::Release);
    }

    #[inline]
    pub(crate) fn take_reason(&self) -> SwitchReason {
        SwitchReason::from_u8(
            self.switch_reason
                .swap(SwitchReason::None as u8, Ordering::AcqRel),
        )
    }

    /// Enter a runtime critical section (defers preemption).
    #[inline]
    // sigsafe
    pub(crate) fn preempt_disable(&self) {
        let prev = self.preempt_disabled.0.fetch_add(1, Ordering::AcqRel);
        debug_assert!(prev < u32::MAX, "preempt_disable overflow");
    }

    /// Leave a runtime critical section.
    #[inline]
    // sigsafe
    pub(crate) fn preempt_enable(&self) {
        let prev = self.preempt_disabled.0.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev >= 1, "preempt_enable underflow");
    }

    /// ULT-side prologue after gaining control: enable preemption and honor
    /// ticks that were deferred while the runtime had preemption disabled
    /// (they become voluntary yields at this first safe point).
    #[inline]
    // sigsafe
    pub(crate) fn ult_prologue(&self) {
        self.preempt_enable();
        crate::api::ult_prologue_finish();
    }

    /// Flip and return the packing-scheduler alternation bit.
    #[inline]
    pub(crate) fn pack_toggle(&self) -> bool {
        !self.pack_phase.fetch_xor(true, Ordering::Relaxed)
    }

    /// Next steal victim (xorshift64*; cheap and good enough for the random
    /// work stealing of the paper's BOLT scheduler, §4.1).
    pub(crate) fn next_victim(&self, n: usize) -> usize {
        let mut x = self.steal_seed.load(Ordering::Relaxed);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.steal_seed.store(x, Ordering::Relaxed);
        (x.wrapping_mul(0x2545F4914F6CDD1D) >> 32) as usize % n.max(1)
    }

    /// Wake this worker if it is parked (idle, packing or shutdown) — on
    /// its futex, or in its reactor shard's `epoll_wait`.
    // sigsafe
    pub(crate) fn unpark(&self) {
        self.stats.unparks.fetch_add(1, Ordering::Relaxed);
        self.wake.unpark();
        crate::io_hook::unpark_kick(self);
    }
}

/// Entry point of every worker's scheduler context.
///
/// # Safety
/// Called only as a fresh-context entry with `arg` pointing to the worker.
unsafe extern "C" fn scheduler_entry(arg: *mut core::ffi::c_void) -> ! {
    // SAFETY: seeded by Worker::new with a live Worker pointer; the Arc in
    // the runtime's worker table outlives all scheduling.
    let w: &Worker = unsafe { &*(arg as *const Worker) };
    scheduler_loop(w);
}

/// The scheduler loop (paper §2.1's "scheduler thread", with the policy
/// dispatch of §4.1–§4.3).
fn scheduler_loop(w: &Worker) -> ! {
    let rt = w.runtime();
    loop {
        // Shutdown?
        if rt.shutdown.load(Ordering::Acquire) {
            exit_to_home(w);
        }

        // Thread packing: ranks >= active park until reactivated (§4.2).
        // A suspended worker still owns its reactor shard, so it parks in
        // the shard's `epoll_wait` (no work recheck — it must not pick up
        // ULTs) rather than the futex: fds bound to its shard stay
        // serviced, and `on_ready` routes any readiness it delivers to an
        // active worker — as it does the run-next slot, which a ULT that was
        // running here when the worker was suspended may just have filled.
        if w.rank >= rt.active_workers.load(Ordering::Acquire) {
            crate::sched::release_run_next(rt, w);
            w.idle.store(true, Ordering::Release);
            if !crate::io_hook::shard_park(rt, w, false) {
                w.wake.park();
            }
            w.idle.store(false, Ordering::Release);
            continue;
        }

        // Service the reactor opportunistically (no-op branch until
        // `ult-io` registers hooks): with every worker busy on compute,
        // dispatch boundaries are where fd readiness and timer deadlines
        // are turned into ready ULTs. Under preemption their spacing is
        // bounded by the tick interval; fd readiness does not wait that
        // long, because the reactor's watcher preempts the occupant
        // (`io_hook::io_kick`) and this poll then runs at once.
        crate::io_hook::maybe_poll(w);

        // Pick work according to the configured policy.
        match crate::sched::pick(rt, w) {
            Some(t) => run_thread(rt, w, t),
            None => idle_wait(rt, w),
        }
    }
}

/// Wait for work when none exists anywhere (woken by pushes/shutdown):
/// spin on the worker's own pools, then park.
///
/// The spin pays only when work comes back within it, and how soon work
/// comes back is what the worker's last parks measured: a closed loop (a
/// peer that pushes again at once) ends its parks within
/// [`SHORT_PARK_NS`], an open-loop server idle between requests does not.
/// So the spin is learned per worker as guest halt-polling learns its poll
/// (`next_idle_spin`), and a worker whose parks run long parks at once.
fn idle_wait(rt: &RuntimeInner, w: &Worker) {
    let spin = w.idle_spin.load(Ordering::Relaxed);
    if spin > 0 {
        let t0 = now_ns();
        let found = (0..spin).any(|_| {
            core::hint::spin_loop();
            !w.pool.is_empty() || !w.lo_pool.is_empty() || rt.shutdown.load(Ordering::Acquire)
        });
        w.stats
            .idle_spin_ns
            .fetch_add(now_ns() - t0, Ordering::Relaxed);
        if found {
            return;
        }
    }
    w.idle.store(true, Ordering::SeqCst);
    // Store-load ordering against the push side (Dekker): the pusher
    // stores work then loads our idle flag; we store idle then load the
    // pools. Both sides need sequentially consistent fencing or each can
    // read the other's stale value and the wakeup is lost.
    std::sync::atomic::fence(Ordering::SeqCst);
    // Re-check after advertising idleness (avoid lost-wakeup).
    if crate::sched::has_any_work(rt, w) || rt.shutdown.load(Ordering::Acquire) {
        w.idle.store(false, Ordering::Release);
        return;
    }
    tick::try_elide(rt, w);
    let t0 = now_ns();
    // Third park mode: if a reactor is registered, park in this worker's
    // own shard's `epoll_wait` (servicing its fds and timer wheel) instead
    // of the futex. Every idle worker shard-parks — shards are per-worker,
    // so there is no poller slot to contend for.
    if !crate::io_hook::shard_park(rt, w, true) {
        w.wake.park();
    }
    w.idle.store(false, Ordering::Release);
    w.stats.idle_parks.fetch_add(1, Ordering::Relaxed);
    w.idle_spin
        .store(next_idle_spin(spin, now_ns() - t0), Ordering::Relaxed);
}

/// The idle spin after a park of `park_ns` that followed a spin of `spin`
/// `PAUSE`s: a short park (one that returned at once included) doubles it
/// up to [`IDLE_SPIN_MAX`]; a longer one halves it, to none below
/// [`IDLE_SPIN_MIN`].
fn next_idle_spin(spin: u32, park_ns: u64) -> u32 {
    if park_ns <= SHORT_PARK_NS {
        (spin * 2).clamp(IDLE_SPIN_MIN, IDLE_SPIN_MAX)
    } else if spin / 2 < IDLE_SPIN_MIN {
        0
    } else {
        spin / 2
    }
}

/// Run one ULT: dispatches to the captive-resume path for KLT-switching
/// preempted threads, else the normal context-switch path.
fn run_thread(rt: &RuntimeInner, w: &Worker, t: Arc<Ult>) {
    debug_assert!(
        matches!(
            t.state(),
            UltState::Ready | UltState::Captive | UltState::New
        ),
        "dispatching ULT {} in state {:?}",
        t.id,
        t.state()
    );
    if t.state() == UltState::Captive {
        resume_captive(rt, w, t);
    } else {
        normal_run(rt, w, t);
    }
}

/// Debug check at the points where a scheduler context is in control: it
/// holds its own pin, so the count is at least 1.
///
/// Not exactly 1: `pin_current_worker` increments before it verifies, and a
/// ULT that sampled this worker, was KLT-switched away and came back under
/// another worker lands its increment here and takes it back when the
/// verification fails. That is usually a few instructions later, but the
/// ULT can be preempted once more in between and then the stale pin lasts
/// until it runs again (it only defers ticks here meanwhile).
#[inline]
fn debug_assert_scheduler_pin(w: &Worker) {
    debug_assert!(
        w.preempt_disabled.0.load(Ordering::Relaxed) >= 1,
        "scheduler context without its pin (a suspension path skipped its \
         increment or a resume path double-decremented)"
    );
}

/// Switch into a ready ULT and handle its eventual return.
fn normal_run(rt: &RuntimeInner, w: &Worker, t: Arc<Ult>) {
    debug_assert_scheduler_pin(w);
    crate::debug_registry::event(crate::debug_registry::ev::RUN, t.id, w.rank as u64);
    // Seed the context lazily on first activation.
    if !t.started.swap(true, Ordering::AcqRel) {
        let arg = Arc::as_ptr(&t) as *mut core::ffi::c_void;
        // SAFETY: the ULT's stack outlives it; ult_entry never returns.
        unsafe {
            *t.ctx.get() = Context::new(t.stack_top(), ult_entry, arg);
        }
    } else {
        debug_assert!(
            t.ctx_live(),
            "ULT {} dispatched with a dead context (state {:?})",
            t.id,
            t.state()
        );
    }
    t.set_state(UltState::Running);
    // Publish `current` (and its kind mirror for the remote watcher's kick)
    // while preemption is still disabled; the handler only acts when
    // the disable count drops to 0 inside the ULT prologue.
    w.current
        .store(Arc::as_ptr(&t) as *mut Ult, Ordering::Release);
    w.stats.set_current_kind(Some(t.kind));
    // Fresh timeslice: suppress the echo of ticks that queued up while the
    // previous occupant was suspended (without this, the RT-signal backlog
    // accumulated during a long captivity re-preempts immediately on every
    // resume, nesting one ~11 KB signal frame per round until the ULT
    // stack's guard page is hit).
    tick::dispatch(rt, w, &t);

    // Consume the saved context (leave the slot empty): a second restore of
    // the same suspension would replay arbitrary user code — consuming turns
    // that bug class into a loud dead-context assertion instead.
    // SAFETY: exclusive scheduler-side ownership of both contexts; the ULT
    // context is live (fresh or suspended) by the state machine.
    unsafe {
        let restore = std::mem::take(&mut *t.ctx.get());
        Context::switch(w.sched_ctx.get(), &restore);
    }

    handle_return(rt, w, t);
}

/// Common post-switch dispatch when the scheduler context regains control.
///
/// Two ways to get here: the ULT switched back on this KLT (reason set by
/// its epilogue or the signal-yield handler), or the ULT was KLT-switching
/// preempted and a *fresh* KLT resumed this scheduler context (reason
/// `None`; the handler already republished the thread and cleared
/// `current`).
fn handle_return(rt: &RuntimeInner, w: &Worker, t: Arc<Ult>) {
    debug_assert_scheduler_pin(w);
    debug_assert!(
        !crate::sigsafe::in_signal_handler(),
        "scheduler context running with the in-handler flag still set \
         (a handler exit path failed to clear it)"
    );
    let reason = w.take_reason();
    crate::debug_registry::event(
        crate::debug_registry::ev::SCHEDRET,
        t.id,
        (w.rank as u64) << 8 | reason as u64,
    );
    if reason != SwitchReason::None {
        w.current.store(std::ptr::null_mut(), Ordering::Release);
        w.stats.set_current_kind(None);
    }
    match reason {
        SwitchReason::None => {
            // KLT-switching handoff: nothing to do — the handler published
            // `t` (state Captive) and re-pointed the worker at our KLT.
        }
        SwitchReason::Yielded => {
            crate::debug_registry::event(crate::debug_registry::ev::YIELD, t.id, w.rank as u64);
            t.set_state(UltState::Ready);
            crate::sched::on_ready(rt, w, t, false, true);
        }
        SwitchReason::PreemptedSaved => {
            w.stats.preemptions.fetch_add(1, Ordering::Relaxed);
            t.set_state(UltState::Ready);
            crate::sched::on_preempted(rt, w, t, false);
        }
        SwitchReason::Finished => {
            crate::debug_registry::event(crate::debug_registry::ev::FINISH, t.id, w.rank as u64);
            rt.on_finish(w, t);
        }
        SwitchReason::Blocked => {
            crate::debug_registry::event(crate::debug_registry::ev::BLOCK, t.id, w.rank as u64);
            // The sync primitive owns the thread now; clearing `transit`
            // releases make_ready to push it (the context save completed at
            // our switch back).
            t.transit.store(false, Ordering::Release);
        }
    }
}

/// Resume a KLT-switching-preempted thread by waking its captive KLT and
/// handing this worker over to it (paper Fig. 3).
fn resume_captive(rt: &RuntimeInner, w: &Worker, t: Arc<Ult>) {
    debug_assert_scheduler_pin(w);
    crate::debug_registry::event(
        crate::debug_registry::ev::RESUME_CAPTIVE,
        t.id,
        w.rank as u64,
    );
    let captive = t.captive_klt.swap(std::ptr::null_mut(), Ordering::AcqRel);
    assert!(!captive.is_null(), "captive thread without captive KLT");
    // SAFETY: captive KLTs are registry-kept alive.
    let captive: &Klt = unsafe { &*captive };

    let self_klt = w.current_klt.load(Ordering::Acquire);
    // SAFETY: a scheduler always runs on a KLT.
    let self_klt: &Klt = unsafe { &*self_klt };

    t.set_state(UltState::Running);
    w.current
        .store(Arc::as_ptr(&t) as *mut Ult, Ordering::Release);
    w.stats.set_current_kind(Some(t.kind));
    // Fresh timeslice (see normal_run): the captivity just ending may have
    // queued many stale ticks at the captive KLT; they deliver as soon as
    // the handler's sigreturn unmasks, and must be absorbed by the echo
    // filter rather than re-preempting instantly.
    tick::dispatch(rt, w, &t);
    // Re-point the worker at the captive KLT. The captive will decrement
    // the disable count (currently 1) in its handler continuation.
    captive
        .worker
        .store(w as *const Worker as *mut Worker, Ordering::Release);
    w.current_klt
        .store(captive as *const Klt as *mut Klt, Ordering::Release);
    tick::embody(rt, w, captive);
    w.stats.captive_resumes.fetch_add(1, Ordering::Relaxed);

    // Hand control back to our KLT's home loop, which wakes the captive
    // *after* the scheduler context is saved (ordering is load-bearing: the
    // resumed ULT may switch back into this scheduler context immediately).
    self_klt.set_directive(Directive::WakeCaptiveThenRelease, captive as *const Klt);
    self_klt.release_to.store(w.rank, Ordering::Release);
    // SAFETY: home_ctx holds the home loop suspended at its switch into us.
    unsafe {
        Context::switch(w.sched_ctx.get(), self_klt.home_ctx.get());
    }
    // Resumed later: either `t` switched back on the captive KLT (reason
    // set) or `t` was KLT-switching preempted again and a fresh KLT resumed
    // us (reason None). Same dispatch as the normal_run resume site.
    handle_return(rt, w, t);
}

/// Exit the scheduler context back to the home loop with an Exit directive.
fn exit_to_home(w: &Worker) -> ! {
    let self_klt = w.current_klt.load(Ordering::Acquire);
    // SAFETY: scheduler runs on a KLT.
    let self_klt: &Klt = unsafe { &*self_klt };
    self_klt.set_directive(Directive::Exit, std::ptr::null());
    // SAFETY: home ctx is suspended at its switch into the scheduler.
    unsafe {
        Context::jump(self_klt.home_ctx.get());
    }
}

/// First-activation entry of every ULT.
///
/// # Safety
/// Fresh-context entry; `arg` is the `Arc<Ult>`'s raw pointer, kept alive by
/// the scheduler's `t` binding across the whole activation.
unsafe extern "C" fn ult_entry(arg: *mut core::ffi::c_void) -> ! {
    // SAFETY: see above.
    let t: &Ult = unsafe { &*(arg as *const Ult) };
    {
        let w = crate::api::current_worker().expect("ULT entry outside a worker");
        w.ult_prologue();
    }
    // Take and run the user closure. A panic would unwind into the
    // trampoline; abort instead with a clear message (matching std's
    // behavior for panics in threads that must not unwind across FFI).
    let entry = t.take_entry();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| entry.run()));
    if result.is_err() {
        eprintln!("ult-core: ULT {} panicked; aborting process", t.id);
        std::process::abort();
    }
    // This frame is never unwound (the switch below does not return): a
    // packet reference still held at the switch would leak the packet.
    drop(entry);
    // Epilogue: may be on a *different* worker than the prologue (work can
    // migrate at preemption points) — pin to block further migration
    // between resolving the worker and switching away.
    let w = crate::api::pin_current_worker().expect("ULT epilogue outside a worker");
    w.set_reason(SwitchReason::Finished);
    // SAFETY: scheduler context is suspended at its switch into us; our own
    // context is dead after this jump (the save slot is a dummy).
    unsafe {
        let mut dead = Context::empty();
        Context::switch(&mut dead, w.sched_ctx.get());
    }
    unreachable!("finished ULT resumed");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The spins after each of `n` parks of `park_ns`, starting at `spin`.
    fn after(n: usize, park_ns: u64, spin: u32) -> Vec<u32> {
        std::iter::successors(Some(spin), |&s| Some(next_idle_spin(s, park_ns)))
            .skip(1)
            .take(n)
            .collect()
    }

    #[test]
    fn long_parks_stop_the_idle_spin() {
        let spins = after(16, 500_000, IDLE_SPIN_MAX);
        assert_eq!(spins.last(), Some(&0), "{spins:?}");
        assert!(spins.windows(2).all(|p| p[1] <= p[0]), "{spins:?}");
    }

    #[test]
    fn short_parks_bring_the_idle_spin_back_to_its_cap() {
        let spins = after(16, 10_000, 0);
        assert_eq!(spins.last(), Some(&IDLE_SPIN_MAX), "{spins:?}");
        assert!(spins.iter().all(|&s| s <= IDLE_SPIN_MAX), "{spins:?}");
        assert_eq!(next_idle_spin(IDLE_SPIN_MAX, 10_000), IDLE_SPIN_MAX);
    }

    #[test]
    fn a_park_that_returns_at_once_is_short() {
        assert_eq!(next_idle_spin(0, 0), IDLE_SPIN_MIN);
        assert_eq!(next_idle_spin(IDLE_SPIN_MIN, 0), 2 * IDLE_SPIN_MIN);
        assert_eq!(next_idle_spin(IDLE_SPIN_MIN, SHORT_PARK_NS + 1), 0);
    }
}
