//! Pluggable reactor hooks: the bridge between the scheduler and `ult-io`.
//!
//! `ult-core` cannot depend on the I/O crate (the dependency points the
//! other way), yet the worker idle loop needs a third park mode — parking in
//! `epoll_wait` instead of the futex — and the wake paths need to know how
//! to interrupt it. The reactor registers its function pointers once at
//! init; until then every hook site is a null-check-and-skip, so runtimes
//! that never touch I/O pay one predictable branch.
//!
//! # Sharded parking: every idle worker polls its own shard
//!
//! The reactor is sharded per CPU: each shard owns its own epoll
//! instance, doorbell eventfd and timer wheel, and worker ranks map onto
//! shards modulo the shard count (a private shard per worker when workers
//! ≤ CPUs). A worker going idle parks in **its own shard's** `epoll_wait`
//! — there is no process-global poller slot to claim and no CAS to lose,
//! so the old futex-vs-poller branching collapses to "shard-park if a
//! reactor is registered and the hook accepts, else futex-park". The hook
//! declines for an empty shard and for ranks that are not their shard's
//! canonical owner (when workers exceed CPUs); those workers futex-park,
//! and the reactor keeps them honest by kicking the owner rank through
//! [`kick_worker`] whenever a foreign rank arms a shard's first waiter or
//! earliest deadline. Packing-suspended workers shard-park too (with no
//! work recheck — they must not pick up work), so fds bound to a
//! suspended worker's shard keep getting serviced and readiness is
//! re-routed through the ordinary `on_ready` path to an active worker.
//!
//! # Lost-wakeup protocol (per-worker Dekker pairing, modeled in `ult-model`)
//!
//! A pusher that wants worker `w` awake deposits a futex token
//! (`Worker::unpark`) and *then* reads `w.reactor_park` (`unpark_kick`,
//! with a SeqCst fence between); if set it also rings shard `w.rank`'s
//! eventfd doorbell. The parking worker stores `reactor_park = true`,
//! fences, and *then* consumes any pending futex token before entering
//! `epoll_wait`. Whichever side started later sees the other's write:
//! either the pusher observes the flag (doorbell rings, `epoll_wait`
//! returns immediately — the eventfd stays readable until drained), or the
//! parker observes the token (skips the epoll park entirely and rescans).
//! The doorbell write is a raw `write(2)` on an eventfd, so the kick is
//! async-signal-safe and `unpark` stays callable from preemption handlers.
//!
//! # Busy workers: the watch
//!
//! A worker that never idles services its shard at dispatch boundaries
//! (`maybe_poll`), and under preemption those are a tick apart. So that fd
//! readiness does not wait for the tick, every dispatch that keeps the tick
//! armed over a shard with waiters also calls [`IoHooks::watch`]: the
//! reactor's watcher thread then sleeps on the shard's epoll fd and answers
//! readiness with [`io_kick`] — the ordinary preemption signal, marked (the
//! kick word of `preempt::tick`) so that the handler treats it as due and
//! the next `maybe_poll` ignores its rate limit. The watcher is not a runtime thread
//! and outlives every runtime; [`io_kick`] resolves its target through the
//! table of live runtimes and holds that table's lock while it signals, so
//! a runtime that has left the table is never signalled again.
//!
//! The reactor's counters take no hook: each shard embeds a
//! [`crate::stats::ShardCounters`] block and publishes it once, with
//! [`crate::stats::publish_shard`], for `Runtime::stats` to read.

use crate::runtime::RuntimeInner;
use crate::worker::Worker;
use std::sync::atomic::{AtomicPtr, Ordering};

/// Reactor entry points registered by `ult-io`. All take the worker rank
/// they operate on behalf of; the reactor maps ranks to shards.
///
/// All of these run on runtime worker KLTs. `park`/`poll`/`watch` are called
/// from scheduler context only (never from signal handlers); `wake` must be
/// async-signal-safe.
#[derive(Debug)]
pub struct IoHooks {
    /// Park in shard `r`'s `epoll_wait` until an fd fires, the shard's next
    /// timer deadline passes, or [`IoHooks::wake`] is called for `r`. Runs
    /// expired timers and readiness callbacks (which re-push ULTs) before
    /// returning. Returns `false` without parking when the shard has
    /// nothing to wait for (no armed fd interest, no pending deadlines) —
    /// the caller falls back to the much cheaper futex park, and the
    /// shard's doorbell is only paid for by workers whose shards are live.
    pub park: fn(r: usize) -> bool,
    /// Interrupt a concurrent or future `park` on shard `r` (eventfd
    /// doorbell). Async-signal-safe.
    pub wake: fn(r: usize),
    /// Opportunistic non-blocking poll of shard `r` from busy scheduler
    /// loops, so I/O and timers are serviced even when no worker ever goes
    /// idle. The implementation rate-limits itself unless `force` is set;
    /// callers invoke it every loop.
    pub poll: fn(r: usize, force: bool),
    /// Does shard `r` hold armed fd interest or pending timer deadlines?
    /// The tick-elision state machine consults this before disarming a
    /// busy worker's timer: with the tick gone there are no dispatch
    /// boundaries, so a shard with live waiters would never be serviced
    /// again while compute monopolizes the worker (the waiter's wake is
    /// itself the only thing that could end the monopoly — a deadlock).
    /// Cheap (two atomic loads) and never creates a shard.
    pub pending: fn(r: usize) -> bool,
    /// Have the watcher thread look at shard `r` while the calling worker is
    /// busy: when one of the shard's fds becomes ready it calls [`io_kick`]
    /// with `owner` (a nonzero token naming the calling worker), once, and
    /// the watch is spent until armed again. One atomic load when the shard
    /// is already watched.
    pub watch: fn(r: usize, owner: u64),
}

/// Registered hook table (null until `ult-io` initializes).
static HOOKS: AtomicPtr<IoHooks> = AtomicPtr::new(std::ptr::null_mut()); // ordering: acqrel write-once publication

/// Register the reactor's hook table. Called once by `ult-io` at reactor
/// init; `hooks` must live for the rest of the process (the reactor leaks
/// its shards). Later calls are ignored.
pub fn register_io_hooks(hooks: &'static IoHooks) {
    let _ = HOOKS.compare_exchange(
        std::ptr::null_mut(),
        hooks as *const IoHooks as *mut IoHooks,
        Ordering::AcqRel,
        Ordering::Acquire,
    );
}

/// The registered hook table, if any.
#[inline]
// sigsafe
fn hooks() -> Option<&'static IoHooks> {
    // SAFETY: registered pointers are 'static by contract.
    unsafe { HOOKS.load(Ordering::Acquire).as_ref() }
}

/// Scheduler-loop poll site: service this worker's shard opportunistically.
/// A pending [`io_kick`] is consumed here and lifts the rate limit once.
#[inline]
pub(crate) fn maybe_poll(w: &Worker) {
    if let Some(h) = hooks() {
        (h.poll)(w.rank, crate::preempt::tick::take_io_kick(w));
    }
}

/// Dispatch-time watch site: `w` is about to run a ULT it can only get the
/// CPU back from by a tick, and its shard has waiters.
#[inline]
pub(crate) fn watch(rt: &RuntimeInner, w: &Worker) {
    if let Some(h) = hooks() {
        (h.watch)(w.rank, rt.id << OWNER_RANK_BITS | w.rank as u64);
    }
}

/// Low bits of a watch-owner token that hold the worker rank (`Config`
/// caps workers at 4096); the runtime id sits above them.
const OWNER_RANK_BITS: u32 = 16;

/// Watcher callback: a fd of the shard that `owner` (the token passed to
/// [`IoHooks::watch`]) armed is ready. Preempt that worker so that its
/// scheduler polls the shard now instead of at its next tick. Returns
/// whether a signal was sent; `false` means the worker needs none (it is
/// parked in the shard's own `epoll_wait`, or runs nothing preemptible and
/// polls at its next dispatch) or its runtime has shut down.
///
/// Called from the watcher thread only: takes a KLT-blocking lock.
pub fn io_kick(owner: u64) -> bool {
    let live = crate::runtime::LIVE.lock();
    let Some(&(_, rt)) = live.iter().find(|(id, _)| *id == owner >> OWNER_RANK_BITS) else {
        return false;
    };
    // SAFETY: a runtime is in LIVE from before its workers run until
    // `shutdown_impl` removes it, which needs the lock held here; its
    // workers and their KLTs outlive that.
    let rt = unsafe { &*(rt as *const RuntimeInner) };
    let rank = (owner & ((1 << OWNER_RANK_BITS) - 1)) as usize;
    rt.workers
        .get(rank)
        .is_some_and(|w| crate::preempt::tick::io_kick(w))
}

/// Does this worker's reactor shard have armed waiters (fd interest or
/// wheel deadlines)? `false` when no reactor is registered.
#[inline]
pub(crate) fn shard_pending(w: &Worker) -> bool {
    hooks().map(|h| (h.pending)(w.rank)).unwrap_or(false)
}

/// Idle-park in this worker's own reactor shard.
///
/// Returns `true` if the park round was handled here (the caller rescans
/// its pools); `false` means no reactor is registered — fall back to the
/// futex park. The caller has already advertised `w.idle`, re-checked for
/// work, and elided its tick.
///
/// `pick_work` distinguishes the ordinary idle park (recheck the pools
/// before committing — an fd-less worker must not sleep on queued ULTs)
/// from the packing-suspended park (the worker must *not* scan for work; it
/// parks solely so its shard's fds and timers stay serviced, and readiness
/// it delivers is routed to active workers by `on_ready`).
pub(crate) fn shard_park(rt: &RuntimeInner, w: &Worker, pick_work: bool) -> bool {
    let Some(h) = hooks() else { return false };
    w.reactor_park.store(true, Ordering::SeqCst);
    // Dekker: flag published above; now observe any pusher that missed it.
    // A pusher that read the flag before our store deposited only a futex
    // token — consume it (and re-check the pools) instead of entering
    // `epoll_wait`, where that token could never reach us.
    std::sync::atomic::fence(Ordering::SeqCst);
    if w.wake.try_park()
        || (pick_work && crate::sched::has_any_work(rt, w))
        || rt.shutdown.load(Ordering::Acquire)
    {
        w.reactor_park.store(false, Ordering::SeqCst);
        return true;
    }
    let parked = (h.park)(w.rank);
    w.reactor_park.store(false, Ordering::SeqCst);
    // A doorbell aimed at us may still be in flight; it parks in the
    // eventfd counter and is drained by the next poll — never lost, at
    // worst one spurious immediate return from the next park. When the
    // hook declined (`parked == false`, empty shard), the caller futex
    // parks: a pusher that raced the flag window deposited its futex token
    // before ringing, so that park returns immediately too.
    parked
}

/// Reactor callback: the blocking wait phase of a shard park has returned
/// and the worker is about to process deliveries. Clearing `reactor_park`
/// *before* delivery means a `make_ready` → `unpark` aimed at this same
/// worker (the common case: readiness for a ULT homed here) sees the flag
/// down and skips the doorbell — the worker is awake and rescans its pools
/// when the park returns, so the self-ring would only buy a wasted
/// `epoll_wait` pass and two eventfd syscalls per delivery.
///
/// No-op off runtime workers.
pub fn reactor_wait_done() {
    if let Some(w) = crate::api::current_worker() {
        w.reactor_park.store(false, Ordering::SeqCst);
    }
}

/// Reactor callback: make sure worker `r` of the calling thread's runtime
/// is (or is about to be) awake. The reactor calls this when a worker arms
/// the first waiter or earliest deadline on a shard whose canonical owner
/// is some *other* worker: that owner may be futex-parked (it declined the
/// epoll park while its shard was empty), where a doorbell ring cannot
/// reach it. `Worker::unpark` deposits a futex token — making a concurrent
/// or imminent futex park return immediately — and rings the shard
/// doorbell if the owner is epoll-parked instead, so the kick covers both
/// park modes. No-op off runtime workers, for out-of-range ranks, and when
/// `r` is the caller's own worker: the caller is awake, and its next
/// dispatch looks at the shard before it decides about the tick.
pub fn kick_worker(r: usize) {
    if let Some(me) = crate::api::current_worker() {
        if let Some(w) = me.runtime().workers.get(r).filter(|w| w.rank != me.rank) {
            w.unpark();
            // The owner may instead be *busy* with an elided tick (it ran
            // out of other work before this waiter was armed). Restore its
            // tick so dispatch boundaries — where a busy worker services
            // its shard and hands it to the watcher — keep happening;
            // without this the waiter just armed could go unserviced
            // indefinitely.
            crate::preempt::tick::on_push(me.runtime(), w, false);
        }
    }
}

/// Wake-path kick: if `w` is parked (or committing to park) in its reactor
/// shard, ring that shard's doorbell so its `epoll_wait` returns. Called
/// from `Worker::unpark` (and thus from preemption signal handlers); the
/// doorbell is an eventfd write.
#[inline]
// sigsafe
pub(crate) fn unpark_kick(w: &Worker) {
    // Pairs with the store-fence-check in `shard_park`: the caller's token
    // deposit precedes this fence, the load below follows it.
    std::sync::atomic::fence(Ordering::SeqCst);
    if w.reactor_park.load(Ordering::SeqCst) {
        if let Some(h) = hooks() {
            // sigsafe-allow: fn pointer to the registered reactor doorbell (EventFd::signal, a raw eventfd write; audited sigsafe in ult-io)
            (h.wake)(w.rank);
        }
    }
}
