//! User-level threads (ULTs) and join handles.
//!
//! A [`Ult`] is the paper's "thread": a stackful user-level thread whose
//! context switch, scheduling and synchronization happen in user space
//! (paper §2.1). Three kinds coexist in one process (paper §3.4):
//! [`ThreadKind::Nonpreemptive`], [`ThreadKind::SignalYield`] and
//! [`ThreadKind::KltSwitching`].

use crate::api::SpawnAttrs;
use crate::klt::Klt;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use ult_arch::{Context, Stack};
use ult_sys::futex::{futex_wait, futex_wake};

/// `join_futex` values: the thread runs and no KLT sleeps on the word...
const JOIN_RUNNING: u32 = 0;
/// ...the thread finished...
const JOIN_FINISHED: u32 = 1;
/// ...or it runs and at least one KLT sleeps in `wait_finished_external`.
const JOIN_WAITED: u32 = 2;

/// The `joiner` slot once `on_finish` has drained it: a registration that
/// finds it parks nobody. Never the address of a live `Ult`.
const JOINER_CLOSED: *mut Ult = std::ptr::dangling_mut();

/// The three coexisting thread kinds of the paper (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadKind {
    /// Traditional M:N thread: cheapest; scheduled only at explicit yield
    /// points; recommended when the function yields on its own.
    Nonpreemptive,
    /// Preemptible by context-switching out of the timer-signal handler
    /// (paper §3.1.1). Requires the thread function to be KLT-independent
    /// (no KLT-local state such as glibc-malloc arena caches).
    SignalYield,
    /// Preemptible by suspending the whole KLT and remapping the worker to
    /// another KLT (paper §3.1.2). Safe for KLT-dependent functions; the
    /// recommended default when the function's internals are unknown.
    KltSwitching,
}

impl ThreadKind {
    /// Whether this kind participates in implicit preemption.
    pub fn is_preemptive(self) -> bool {
        !matches!(self, ThreadKind::Nonpreemptive)
    }
}

/// Scheduling class used by the priority scheduler (paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Drained first, FIFO (the paper's simulation threads).
    High,
    /// Drained only when no high-priority work exists, LIFO for locality
    /// (the paper's analysis threads).
    Low,
}

/// Latency class of a ULT, driving the adaptive preemption quantum
/// (LibPreemptible-style, arxiv 2308.02896) and class-aware dispatch.
///
/// Orthogonal to [`Priority`] (which selects a queue under the priority
/// scheduler): the class tells the *preemption* machinery how urgently
/// queued work of this thread must reach a worker. Workers shrink their
/// timer quantum toward a floor while `Latency` work waits behind an
/// occupant and stretch it toward a ceiling while only `Throughput` work
/// runs (see `Config::adaptive_quantum`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedClass {
    /// Tail-latency-critical: queued work of this class shrinks the
    /// holding worker's preemption quantum and is preferred by dispatch
    /// and steal-victim selection.
    Latency,
    /// The default: no quantum pressure either way.
    #[default]
    Normal,
    /// Batch/compute work: a worker running only this class stretches its
    /// quantum toward the ceiling, trading preemption overhead for
    /// throughput.
    Throughput,
}

/// Life-cycle states of a ULT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum UltState {
    /// Created; context not yet seeded.
    New = 0,
    /// In a pool, runnable via a saved (or fresh) context.
    Ready = 1,
    /// Currently executing on some worker.
    Running = 2,
    /// Preempted by KLT-switching: its KLT is parked captive inside the
    /// signal handler; resuming means waking that KLT (paper Fig. 3).
    Captive = 3,
    /// Blocked on a synchronization primitive; owned by that primitive.
    Blocked = 4,
    /// Completed; join is ready.
    Finished = 5,
}

impl UltState {
    fn from_u8(v: u8) -> UltState {
        match v {
            0 => UltState::New,
            1 => UltState::Ready,
            2 => UltState::Running,
            3 => UltState::Captive,
            4 => UltState::Blocked,
            5 => UltState::Finished,
            _ => unreachable!("invalid UltState {v}"),
        }
    }
}

/// A user-level thread.
///
/// Shared via `Arc`; mutation of the context/stack is confined to the
/// runtime's ownership protocol: exactly one worker "owns" a non-Finished
/// ULT at any time (it is either in exactly one pool, running on exactly one
/// worker, captive on exactly one KLT, or owned by one sync primitive).
pub struct Ult {
    /// Monotonic id, for diagnostics and deterministic tests.
    pub id: u64,
    /// The thread kind (fixed at spawn).
    pub kind: ThreadKind,
    /// Scheduling class for the priority scheduler.
    pub priority: Priority,
    /// Latency class driving adaptive quanta and class-aware dispatch.
    pub class: SchedClass,
    /// Home pool index hint (the pool it is pushed to when made ready).
    pub home_pool: usize,
    /// Coarse-clock timestamp of the most recent push into a ready pool
    /// (0 = never pushed); sampled at dispatch to observe queue delay for
    /// the adaptive quantum. Lossy by design.
    // ordering: relaxed lossy queue-delay sample; a torn/stale read only skews one quantum decision
    pub(crate) ready_at_ns: AtomicU64,
    /// Saved machine context (valid when state is Ready-with-started or the
    /// thread is suspended at a yield/preemption point).
    pub(crate) ctx: UnsafeCell<Context>,
    /// The ULT's stack; present from spawn until reclaimed at finish (the
    /// runtime recycles stacks through a cache — `mmap` per spawn would
    /// triple ULT creation cost).
    pub(crate) stack: UnsafeCell<Option<Stack>>,
    /// The spawned closure's packet; taken exactly once at first
    /// activation (and dropped before the epilogue's final switch).
    entry: UnsafeCell<Option<Arc<dyn RunOnce>>>,
    /// Life-cycle state.
    state: AtomicU8, // ordering: acqrel
    /// Whether the fresh context has been seeded/activated at least once.
    pub(crate) started: AtomicBool, // ordering: acqrel
    /// For `Captive` state: the KLT parked inside the signal handler,
    /// holding this ULT's register state (paper Fig. 2b).
    pub(crate) captive_klt: AtomicPtr<Klt>, // ordering: acqrel
    /// Completion word for joiners outside the runtime: `JOIN_RUNNING`,
    /// `JOIN_WAITED` once a KLT sleeps on it, `JOIN_FINISHED`. `finish`
    /// swaps in `JOIN_FINISHED` and issues `FUTEX_WAKE` only if it read
    /// `JOIN_WAITED`, so a ULT nobody waits for on a KLT finishes without a
    /// syscall.
    // ordering: acqrel Release swap at finish publishes the result; the waiter's Acquire load reads it; one word's RMW order makes a CAS to WAITED either precede the swap (the swap reads it and wakes) or fail
    join_futex: AtomicU32,
    /// Owning runtime (raw; valid while the ULT lives).
    rt: AtomicPtr<crate::runtime::RuntimeInner>, // ordering: acqrel
    /// Set while the thread is between wait-registration and context save;
    /// `make_ready` spins on it to avoid resuming a half-saved context.
    pub(crate) transit: AtomicBool, // ordering: acqrel make_ready spins until the context save is published
    /// Diagnostic: thread currently sits in some ready pool (detects
    /// double-enqueue bugs; checked in debug builds).
    pub(crate) in_pool: AtomicBool, // ordering: acqrel double-enqueue diagnostic
    /// Intrusive link for the ready pool's remote-push inbox (see
    /// `pool.rs`): owned by the inbox between a `push_remote` and the
    /// claim that removes the thread; null otherwise.
    // ordering: relaxed intrusive link written while unpublished; the inbox-head CAS publishes it
    pub(crate) pool_next: AtomicPtr<Ult>,
    /// The ULT parked in `JoinHandle::join` on this thread (an
    /// `Arc::into_raw` reference), null before one registers,
    /// `JOINER_CLOSED` once `on_finish` drained it. Only the handle joins,
    /// and `join` consumes it, so one slot is enough.
    // ordering: acqrel one word's RMW order decides a register-vs-finish race; the closing swap Releases the result to a late registrant
    joiner: AtomicPtr<Ult>,
    /// ULT-local storage (see [`crate::tls::UltLocal`]); touched only by
    /// the thread itself with preemption pinned off.
    locals: UnsafeCell<crate::tls::LocalMap>,
}

// SAFETY: Ult is shared across KLTs, but the UnsafeCell fields are accessed
// only by the single owner defined by the state machine above (enforced by
// the runtime), and state transitions use atomics.
unsafe impl Send for Ult {}
unsafe impl Sync for Ult {}

impl Drop for Ult {
    fn drop(&mut self) {
        crate::debug_registry::event(crate::debug_registry::ev::FREE, self.id, 0);
    }
}

impl std::fmt::Debug for Ult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ult")
            .field("id", &self.id)
            .field("kind", &self.kind)
            .field("state", &self.state())
            .finish()
    }
}

impl Ult {
    /// A descriptor for a new spawn — the one place the field list is
    /// written. The context is seeded lazily on first activation (by the
    /// scheduler) so that creation stays cheap.
    fn fresh(
        id: u64,
        attrs: &SpawnAttrs,
        home_pool: usize,
        stack: Stack,
        entry: Arc<dyn RunOnce>,
        locals: crate::tls::LocalMap,
    ) -> Ult {
        Ult {
            id,
            kind: attrs.kind,
            priority: attrs.priority,
            class: attrs.class,
            home_pool,
            ready_at_ns: AtomicU64::new(0),
            ctx: UnsafeCell::new(Context::empty()),
            stack: UnsafeCell::new(Some(stack)),
            entry: UnsafeCell::new(Some(entry)),
            state: AtomicU8::new(UltState::New as u8),
            started: AtomicBool::new(false),
            captive_klt: AtomicPtr::new(std::ptr::null_mut()),
            join_futex: AtomicU32::new(JOIN_RUNNING),
            rt: AtomicPtr::new(std::ptr::null_mut()),
            transit: AtomicBool::new(false),
            in_pool: AtomicBool::new(false),
            pool_next: AtomicPtr::new(std::ptr::null_mut()),
            joiner: AtomicPtr::new(std::ptr::null_mut()),
            locals: UnsafeCell::new(locals),
        }
    }

    /// Allocate a descriptor around `entry`.
    pub(crate) fn new(
        id: u64,
        attrs: &SpawnAttrs,
        home_pool: usize,
        stack: Stack,
        entry: Arc<dyn RunOnce>,
    ) -> Arc<Ult> {
        let locals = crate::tls::LocalMap::new();
        Arc::new(Ult::fresh(id, attrs, home_pool, stack, entry, locals))
    }

    /// Rebuild a finished descriptor in place for a new spawn, keeping its
    /// allocation and its locals map's capacity (the caller proves it owns
    /// the descriptor alone through `Arc::get_mut`).
    pub(crate) fn reset_for_spawn(
        this: &mut Ult,
        id: u64,
        attrs: &SpawnAttrs,
        home_pool: usize,
        stack: Stack,
        entry: Arc<dyn RunOnce>,
    ) {
        debug_assert_eq!(this.state(), UltState::Finished, "recycling a live ULT");
        debug_assert!(this.stack.get_mut().is_none() && this.entry.get_mut().is_none());
        let mut locals = std::mem::replace(this.locals.get_mut(), crate::tls::LocalMap::new());
        locals.clear();
        // The old value owns nothing now (its stack went back at finish,
        // its packet at the epilogue, its locals just moved): forgetting
        // it skips only `Drop`'s FREE event, which marks a deallocation.
        std::mem::forget(std::mem::replace(
            this,
            Ult::fresh(id, attrs, home_pool, stack, entry, locals),
        ));
    }

    /// Record the owning runtime (spawn path).
    pub(crate) fn set_runtime(&self, rt: *const crate::runtime::RuntimeInner) {
        self.rt.store(rt as *mut _, Ordering::Release);
    }

    /// The owning runtime pointer.
    pub(crate) fn runtime_ptr(&self) -> *const crate::runtime::RuntimeInner {
        self.rt.load(Ordering::Acquire)
    }

    /// Register `j` to be woken when this thread finishes. Returns `false`
    /// (without registering) if already finished — the caller must then not
    /// block.
    pub(crate) fn register_joiner(&self, j: &Arc<Ult>) -> bool {
        let raw = Arc::into_raw(j.clone()) as *mut Ult;
        match self.joiner.compare_exchange(
            std::ptr::null_mut(),
            raw,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => true,
            Err(seen) => {
                debug_assert_eq!(seen, JOINER_CLOSED, "a second joiner");
                // SAFETY: `raw` came from `into_raw` above and was not published.
                drop(unsafe { Arc::from_raw(raw) });
                false
            }
        }
    }

    /// Close the joiner slot and take the ULT parked in it, if any (finish
    /// path; runs after `finish()`, so a later registrant finds the slot
    /// closed and skips blocking).
    pub(crate) fn take_joiner(&self) -> Option<Arc<Ult>> {
        let p = self.joiner.swap(JOINER_CLOSED, Ordering::AcqRel);
        debug_assert_ne!(p, JOINER_CLOSED, "joiner slot drained twice");
        // SAFETY: a non-null open slot holds a reference from `register_joiner`.
        (!p.is_null()).then(|| unsafe { Arc::from_raw(p) })
    }

    /// Take the packet for the single activation (`ult_entry`).
    pub(crate) fn take_entry(&self) -> Arc<dyn RunOnce> {
        // SAFETY: only the thread's own first activation takes it.
        unsafe { (*self.entry.get()).take() }.expect("ULT entry already taken")
    }

    /// Top of the ULT stack (valid from spawn until finish).
    pub(crate) fn stack_top(&self) -> *mut u8 {
        // SAFETY: present until on_finish reclaims it; callers are the
        // owning scheduler pre-finish.
        unsafe {
            (*self.stack.get())
                .as_ref()
                .expect("ULT stack already reclaimed")
                .top()
        }
    }

    /// Reclaim the stack after the thread finished (runtime internal; the
    /// thread's context is dead, so nothing references the stack).
    pub(crate) fn take_stack(&self) -> Option<Stack> {
        // SAFETY: called exactly once by on_finish in scheduler context.
        unsafe { (*self.stack.get()).take() }
    }

    /// Access this thread's ULT-local slot for `key` (see `tls.rs`).
    /// Caller must be the running thread itself with preemption pinned.
    pub(crate) fn with_local<T: Send + 'static, R>(
        &self,
        key: usize,
        init: fn() -> T,
        f: impl FnOnce(&mut T) -> R,
    ) -> R {
        // SAFETY: single-accessor contract (the running ULT, pinned).
        let map = unsafe { &mut *self.locals.get() };
        f(map.get_or_insert(key, init))
    }

    /// Whether this thread has an initialized local for `key`.
    pub(crate) fn has_local(&self, key: usize) -> bool {
        // SAFETY: as above.
        unsafe { (*self.locals.get()).contains(key) }
    }

    /// Whether the saved context is live (diagnostic).
    pub(crate) fn ctx_live(&self) -> bool {
        // SAFETY: read-only peek; the scheduler owns the context here.
        unsafe { (*self.ctx.get()).is_live() }
    }

    /// Construct a bare ULT for data-structure tests (never scheduled).
    #[doc(hidden)]
    pub fn test_ult(id: u64) -> Arc<Ult> {
        Ult::unscheduled(id, &SpawnAttrs::new(), 0)
    }

    /// A bare ULT with `attrs`, homed on pool `home` (never scheduled).
    pub(crate) fn unscheduled(id: u64, attrs: &SpawnAttrs, home: usize) -> Arc<Ult> {
        let stack = Stack::new(ult_arch::stack::MIN_STACK_SIZE).expect("test stack");
        Ult::new(id, attrs, home, stack, Arc::new(Packet::new(|| {})))
    }

    /// Current life-cycle state.
    pub fn state(&self) -> UltState {
        UltState::from_u8(self.state.load(Ordering::Acquire))
    }

    /// Transition state (runtime internal).
    // sigsafe
    pub(crate) fn set_state(&self, s: UltState) {
        self.state.store(s as u8, Ordering::Release);
    }

    /// Whether the thread has completed.
    pub fn is_finished(&self) -> bool {
        self.state() == UltState::Finished
    }

    /// Mark finished and wake the KLTs waiting in
    /// [`Ult::wait_finished_external`]; returns whether there were any, and
    /// so whether a `FUTEX_WAKE` was issued. Runtime internal.
    pub(crate) fn finish(&self) -> bool {
        self.set_state(UltState::Finished);
        let waited = self.join_futex.swap(JOIN_FINISHED, Ordering::AcqRel) == JOIN_WAITED;
        if waited {
            futex_wake(&self.join_futex, i32::MAX);
        }
        waited
    }

    /// Block the calling **KLT** (not ULT) until this thread finishes.
    ///
    /// This is the external-joiner path used from outside the runtime (e.g.
    /// the main thread waiting for a batch); any number of KLTs may wait at
    /// once. ULTs must use `JoinHandle::join`, which parks the ULT instead.
    pub fn wait_finished_external(&self) {
        let mut seen = self.join_futex.load(Ordering::Acquire);
        while seen != JOIN_FINISHED {
            // Announce the sleeper, so that `finish` knows to wake it.
            if seen == JOIN_RUNNING {
                if let Err(now) = self.join_futex.compare_exchange(
                    JOIN_RUNNING,
                    JOIN_WAITED,
                    Ordering::Acquire,
                    Ordering::Acquire,
                ) {
                    seen = now;
                    continue;
                }
            }
            futex_wait(&self.join_futex, JOIN_WAITED);
            seen = self.join_futex.load(Ordering::Acquire);
        }
    }

    /// Spin (with OS yields) until finished — used by tests.
    pub fn wait_finished_spin(&self) {
        while !self.is_finished() {
            std::thread::yield_now();
        }
    }
}

/// The body of a spawned ULT: its [`Packet`] as the ULT sees it.
pub(crate) trait RunOnce: Send + Sync {
    /// Run the closure and keep its result; called once.
    fn run(&self);
}

/// A [`Packet`] as its [`JoinHandle`] sees it.
pub(crate) trait TakeOutput<T>: Send + Sync {
    /// Move the result out; called once, after the ULT finished.
    fn take(&self) -> T;
}

/// A spawned closure and, once it has run, its result: the one allocation
/// of a spawn that finds a recycled stack and descriptor, shared by the ULT
/// (as [`RunOnce`]) and its handle (as [`TakeOutput`]).
pub(crate) struct Packet<F, T>(UnsafeCell<Slot<F, T>>);

enum Slot<F, T> {
    Entry(F),
    Output(T),
    Empty,
}

// SAFETY: the slot has one accessor at a time: the ULT from its first
// activation until `finish()` publishes its result (Release), then the
// joiner after it observed Finished (Acquire).
unsafe impl<F: Send, T: Send> Sync for Packet<F, T> {}

impl<F, T> Packet<F, T> {
    /// A packet holding `f`, not yet run.
    pub(crate) fn new(f: F) -> Packet<F, T> {
        Packet(UnsafeCell::new(Slot::Entry(f)))
    }
}

impl<F: FnOnce() -> T + Send, T: Send> RunOnce for Packet<F, T> {
    fn run(&self) {
        // SAFETY: the ULT's single activation is the slot's only accessor.
        let slot = unsafe { &mut *self.0.get() };
        if let Slot::Entry(f) = std::mem::replace(slot, Slot::Empty) {
            *slot = Slot::Output(f());
        }
    }
}

impl<F: FnOnce() -> T + Send, T: Send> TakeOutput<T> for Packet<F, T> {
    fn take(&self) -> T {
        // SAFETY: the ULT finished (observed with Acquire); the consuming
        // join is the slot's only accessor now.
        match std::mem::replace(unsafe { &mut *self.0.get() }, Slot::Empty) {
            Slot::Output(v) => v,
            _ => unreachable!("joined a ULT that left no result"),
        }
    }
}

/// Owned handle to a spawned ULT, carrying its return value.
///
/// Unlike `std::thread::JoinHandle`, joining from inside another ULT parks
/// the joining ULT (a user-level block), not the KLT: the benchmark's
/// `forkjoin` reads `core.thread.join_wait_ns` (a wave's join loop per
/// child, the children's own run time included) at 0.76 µs on two workers
/// of a 2-vCPU Xeon VM.
pub struct JoinHandle<T> {
    pub(crate) ult: Arc<Ult>,
    pub(crate) output: Arc<dyn TakeOutput<T>>,
}

impl<T> JoinHandle<T> {
    /// The underlying ULT (for state inspection).
    pub fn ult(&self) -> &Arc<Ult> {
        &self.ult
    }

    /// Whether the thread has completed.
    pub fn is_finished(&self) -> bool {
        self.ult.is_finished()
    }

    /// Wait for completion and take the result.
    ///
    /// Context-sensitive: called from inside a ULT it parks the ULT
    /// (scheduler continues with other work) and then hands the finished
    /// descriptor to its worker for the next spawn; called from a plain KLT
    /// (e.g. the program's main thread) it futex-waits.
    pub fn join(self) -> T {
        let JoinHandle { ult, output } = self;
        if crate::api::in_ult() {
            while !ult.is_finished() {
                crate::api::block_on_join(&ult);
            }
        } else {
            ult.wait_finished_external();
        }
        let v = output.take();
        crate::runtime::recycle_joined(ult);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_ult(kind: ThreadKind) -> Arc<Ult> {
        Ult::unscheduled(1, &SpawnAttrs::new().kind(kind), 0)
    }

    #[test]
    fn kinds_preemptiveness() {
        assert!(!ThreadKind::Nonpreemptive.is_preemptive());
        assert!(ThreadKind::SignalYield.is_preemptive());
        assert!(ThreadKind::KltSwitching.is_preemptive());
    }

    #[test]
    fn new_ult_initial_state() {
        let t = dummy_ult(ThreadKind::Nonpreemptive);
        assert_eq!(t.state(), UltState::New);
        assert!(!t.is_finished());
    }

    #[test]
    fn state_round_trip() {
        let t = dummy_ult(ThreadKind::SignalYield);
        for s in [
            UltState::Ready,
            UltState::Running,
            UltState::Captive,
            UltState::Blocked,
            UltState::Finished,
        ] {
            t.set_state(s);
            assert_eq!(t.state(), s);
        }
    }

    #[test]
    fn finish_wakes_external_joiner() {
        let t = dummy_ult(ThreadKind::KltSwitching);
        let t2 = t.clone();
        let h = std::thread::spawn(move || {
            t2.wait_finished_external();
            assert!(t2.is_finished());
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        t.finish();
        h.join().unwrap();
    }

    #[test]
    fn finish_before_wait_does_not_block() {
        let t = dummy_ult(ThreadKind::Nonpreemptive);
        assert!(!t.finish(), "a finish nobody waits for must not wake");
        t.wait_finished_external();
    }

    #[test]
    fn finish_wakes_every_external_waiter_once() {
        let t = dummy_ult(ThreadKind::Nonpreemptive);
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let t = t.clone();
                std::thread::spawn(move || t.wait_finished_external())
            })
            .collect();
        while t.join_futex.load(Ordering::Acquire) != JOIN_WAITED {
            std::thread::yield_now();
        }
        assert!(t.finish(), "a finish with sleepers must wake them");
        for h in waiters {
            h.join().unwrap();
        }
    }

    #[test]
    fn the_packet_carries_the_result_to_the_handle() {
        let p = Arc::new(Packet::new(|| 6 * 7));
        let entry: Arc<dyn RunOnce> = p.clone();
        let output: Arc<dyn TakeOutput<i32>> = p;
        entry.run();
        drop(entry);
        assert_eq!(output.take(), 42);
    }
}
