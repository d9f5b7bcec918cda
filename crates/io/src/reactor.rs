//! Sharded epoll reactors, one per CPU.
//!
//! The reactor is split into **shards**: each owns its own epoll instance,
//! eventfd doorbell and [timer wheel](crate::wheel). The shard count is the
//! machine's available parallelism (capped at [`MAX_SHARDS`], overridable
//! via [`configure_shards`]) and worker rank `r` maps to shard
//! `r % shard_count()`. When workers ≤ CPUs that is a private shard per
//! worker — every idle worker parks in its *own* `epoll_wait`, there is no
//! process-global poller slot to claim, and wakeups never funnel through
//! one shared doorbell. When workers exceed CPUs (including the 1-CPU
//! degenerate case) several ranks share a shard: only the **canonical
//! owner** (the rank equal to the shard index) parks in its `epoll_wait`;
//! the other ranks take the one-syscall futex park and rely on the owner —
//! kicked awake through `ult_core::kick_worker` whenever a non-owner arms
//! the first waiter or earliest deadline on the shard — plus every busy
//! worker's opportunistic polls to service their fds. That keeps the
//! epoll-parked population at one KLT per shard instead of a thundering
//! herd. The shards plug into `ult-core` through the [`ult_core::IoHooks`]
//! table:
//!
//! * **park(r)** — block in shard `r`'s `epoll_wait` with a timeout equal
//!   to that shard's next wheel deadline, then turn readiness events and
//!   due timers into `make_ready` calls.
//! * **wake(r)** — ring shard `r`'s doorbell (an async-signal-safe eventfd
//!   write); called by `Worker::unpark` when its target is shard-parked,
//!   and by deadline inserts that become a shard's new earliest.
//! * **poll(r, force)** — a zero-timeout service pass of shard `r` from
//!   busy scheduler loops, rate-limited unless forced, so fds and timers
//!   make progress even when worker `r` never idles. A park counts as a
//!   poll: it restarts the rate limit. Under preemption its cadence is
//!   bounded by the tick interval, which is what wheel deadlines on a busy
//!   worker get.
//! * **watch(r, owner)** — fd readiness on a busy worker does not wait for
//!   that tick. One process-global **watcher** thread blocks on a
//!   meta-epoll holding every watched shard's epoll fd (`EPOLLIN |
//!   EPOLLONESHOT`: an epoll fd reads ready while any fd armed in it is).
//!   A busy worker arms the watch at each dispatch that leaves it a tick
//!   to wait for; when the shard turns ready the watcher clears the watch
//!   and then has `ult_core::io_kick` preempt the worker, whose scheduler
//!   runs a forced poll. See [the state table](#the-watch).
//!
//! # fd-to-shard affinity
//!
//! An fd registers with the shard of the worker that first blocks on it and
//! **rebinds** when a later wait runs on a different worker: the fd follows
//! the ULT, so after a migration readiness fires on the epoll instance of
//! the worker that will consume it and cross-shard wakes stay the
//! exception, not the rule. The rebind is a sequential (never-nested)
//! old-registry remove → old `EPOLL_CTL_DEL` → new-registry insert → owner
//! store → fresh `EPOLL_CTL_ADD`, all under the fd's `st` lock; an event
//! already queued on the old shard either misses that shard's registry
//! (dropped) or re-arms through the owner index — both benign, because the
//! level-triggered re-arm the new waiter issues re-reports anything still
//! pending.
//!
//! # Interest registration vs. readiness (no lost wakeup)
//!
//! Interest is level-triggered and **sticky** (no one-shot): a waiter
//! stores itself into the fd's direction slot and *then* makes sure the
//! wanted set is armed, both under the entry lock — but when the previous
//! wait on this fd wanted the same set (the echo-loop steady state), the
//! interest is still armed from last time and the `EPOLL_CTL_MOD` syscall
//! is skipped entirely. The service pass takes the slot under the same
//! lock before notifying and leaves a claimed direction armed; a direction
//! that fires with no waiter is disarmed (one-shot for an empty set, since
//! `EPOLLHUP`/`EPOLLERR` ignore the requested mask) so a ready-but-idle fd
//! cannot spin the shard. Level-triggered persistence re-reports any
//! readiness that predates the arm, so the only ordering that matters is
//! slot-store-before-arm — a fired event always finds its waiter. The
//! waiter claim CAS (see [`crate::TimedWaiter`]) arbitrates the race
//! against a concurrent deadline expiry. Doorbells follow the same no-MOD
//! rule: draining the eventfd clears readiness at the source.
//!
//! # The watch
//!
//! `Shard::watch_owner` is 0 (unwatched) or the token of the worker that
//! armed the watch; the kernel's one-shot interest on the shard's epoll fd
//! is armed exactly while it is nonzero, give or take the two steps below.
//!
//! | who | step | then |
//! |---|---|---|
//! | worker, at dispatch | sees 0, CASes its token in, `EPOLL_CTL_MOD` | armed; a shard already ready fires at once |
//! | worker, at dispatch | sees nonzero | nothing (one load) |
//! | watcher, on the event | swaps 0 in, *then* `io_kick(token)` | spent; the kicked worker's next dispatch arms again |
//!
//! Clear-then-signal is the order that matters: were the watcher to signal
//! first, the preempted worker could reach its next dispatch, see the
//! token still there, skip the arm, and then lose the watch to the late
//! clear — unwatched until the next tick (`ult-model`:
//! `watch_arm_vs_fire`). A kick that finds nothing to preempt (worker
//! parked in this shard, or between ULTs) sends no signal; the worker
//! polls at its next dispatch anyway and arms again there. The tick stays
//! armed throughout and bounds every miss.

use crate::waiter::TimedWaiter;
use crate::wheel::TimerWheel;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use ult_core::stats::ShardCounters;
use ult_sys::epoll::{Epoll, Event, EV_READ, EV_WRITE};
use ult_sys::eventfd::EventFd;

/// Doorbell token (fd registrations start at 1).
const DOORBELL: u64 = 0;
/// Minimum spacing between opportunistic polls of one shard.
const POLL_INTERVAL_NS: u64 = 200_000;
/// Events drained per service pass.
const EVENTS_PER_PASS: usize = 64;
/// Shard table capacity; the effective shard count never exceeds this.
pub const MAX_SHARDS: usize = ult_core::stats::MAX_SHARDS;

/// Effective shard count: 0 until first use, then fixed for the process.
/// Read from the sigsafe wake path, hence an atomic rather than a OnceLock.
static NSHARDS: AtomicUsize = AtomicUsize::new(0); // ordering: acqrel write-once publication

/// Pin the shard count to `n` (clamped to `1..=`[`MAX_SHARDS`]) instead of
/// the default — the machine's available parallelism. Returns `false` if
/// the count was already fixed (by an earlier call or first reactor use);
/// the first decision wins for the life of the process.
///
/// One reactor shard per CPU is right for throughput: more shards than
/// CPUs just multiplies epoll instances that time-share the same cores.
/// Raising the count (e.g. to one shard per worker) is useful in tests
/// that exercise the cross-shard paths deterministically.
pub fn configure_shards(n: usize) -> bool {
    let n = n.clamp(1, MAX_SHARDS);
    NSHARDS
        .compare_exchange(0, n, Ordering::AcqRel, Ordering::Acquire)
        .is_ok()
}

/// The fixed shard count, deciding it on first use.
pub(crate) fn shard_count() -> usize {
    let n = NSHARDS.load(Ordering::Acquire);
    if n != 0 {
        return n;
    }
    let cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(MAX_SHARDS);
    match NSHARDS.compare_exchange(0, cpus, Ordering::AcqRel, Ordering::Acquire) {
        Ok(_) => cpus,
        Err(prev) => prev,
    }
}

/// The shard index worker rank `r` maps to.
pub(crate) fn shard_index(rank: usize) -> usize {
    rank % shard_count()
}

/// Wait direction on an fd.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Dir {
    /// Readable (accept / read / recv).
    Read,
    /// Writable (write / send).
    Write,
}

impl Dir {
    /// This direction's bit in `FdEntry::woken`.
    fn bit(self) -> u8 {
        match self {
            Dir::Read => 1,
            Dir::Write => 2,
        }
    }
}

#[derive(Default)]
struct FdWait {
    read: Option<Arc<TimedWaiter>>,
    write: Option<Arc<TimedWaiter>>,
    /// Interest currently armed in the owning shard's epoll (sticky,
    /// level-triggered, no one-shot): consecutive waits wanting the same
    /// set skip the `EPOLL_CTL_MOD` syscall entirely. 0 after a rebind or
    /// an unclaimed-delivery disarm.
    armed_interest: u32,
}

impl FdWait {
    fn slot(&mut self, dir: Dir) -> &mut Option<Arc<TimedWaiter>> {
        match dir {
            Dir::Read => &mut self.read,
            Dir::Write => &mut self.write,
        }
    }
}

/// One registered fd: epoll token, owning shard, per-direction waiter slots.
pub(crate) struct FdEntry {
    fd: i32,
    token: u64,
    /// Index of the shard whose epoll instance holds this fd. Rewritten
    /// only by the rebind path, under `st`'s lock.
    shard: AtomicUsize, // ordering: acqrel owner index, stores serialized by `st`
    /// `Dir::bit`s of directions whose waiter a delivery took since that
    /// direction's last poll (see `note_wake`).
    woken: AtomicU8, // ordering: relaxed counter hint, set by deliver, taken by note_wake
    st: Mutex<FdWait>,
}

/// One per-worker reactor shard.
pub(crate) struct Shard {
    idx: usize,
    ep: Epoll,
    doorbell: EventFd,
    registry: Mutex<HashMap<u64, Arc<FdEntry>>>,
    pub(crate) wheel: TimerWheel,
    /// Occupied waiter slots on fds this shard owns, deciding whether the
    /// canonical owner's idle park is an epoll park (count nonzero) or the
    /// cheap futex park. Any rank mapped to this shard may arm; the 0→1
    /// transition by a non-owner kicks the owner (`note_armed`), closing
    /// the decline-then-futex-park race under SeqCst total order. Stale
    /// nonzero counts (cross-worker decrements racing a park decision) at
    /// worst buy one spurious epoll park.
    armed: AtomicUsize, // ordering: seqcst park-decision count (see note_armed)
    /// Earliest monotonic-ns instant the next opportunistic poll may run.
    next_poll_ns: AtomicU64, // ordering: relaxed rate-limit slot
    /// 0, or the `ult_core` token of the worker on whose behalf the watcher
    /// has this shard's epoll fd armed (see "The watch" in the module docs).
    // ordering: acqrel arm CAS 0->token before EPOLL_CTL_MOD; the watcher's swap to 0 precedes its signal
    watch_owner: AtomicU64,
    /// This shard's counters, published to `Runtime::stats` at creation.
    counters: ShardCounters,
}

/// Lazily-created shard table, indexed by worker rank (mod [`MAX_SHARDS`]);
/// callers outside the runtime use shard 0. Entries are write-once leaked
/// boxes so the async-signal-safe wake hook reaches a shard with one load.
static SHARDS: [AtomicPtr<Shard>; MAX_SHARDS] =
    [const { AtomicPtr::new(std::ptr::null_mut()) }; MAX_SHARDS]; // ordering: acqrel write-once publication
/// Serializes shard creation (double-checked against `SHARDS`).
static SHARD_INIT: Mutex<()> = Mutex::new(());
/// fd tokens are process-global so an entry keeps its token across rebinds.
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1); // ordering: counter

static HOOKS: ult_core::IoHooks = ult_core::IoHooks {
    park: park_hook,
    wake: wake_hook,
    poll: poll_hook,
    pending: pending_hook,
    watch: watch_hook,
};

/// Shard `i`, created (and the hook table registered) on first use. Never
/// called from signal context — the sigsafe wake path does a bare load.
pub(crate) fn shard(i: usize) -> &'static Shard {
    shard_tracking_creation(i).0
}

fn shard_tracking_creation(i: usize) -> (&'static Shard, bool) {
    let i = i % MAX_SHARDS;
    let p = SHARDS[i].load(Ordering::Acquire);
    // SAFETY: published pointers are leaked boxes, valid for the process.
    if let Some(sh) = unsafe { p.as_ref() } {
        return (sh, false);
    }
    (init_shard(i), true)
}

#[cold]
fn init_shard(i: usize) -> &'static Shard {
    let _g = SHARD_INIT.lock();
    let p = SHARDS[i].load(Ordering::Acquire);
    // SAFETY: as above — shard pointers are write-once leaked boxes.
    if let Some(sh) = unsafe { p.as_ref() } {
        return sh;
    }
    let ep = Epoll::new().expect("epoll_create1");
    let doorbell = EventFd::new().expect("eventfd");
    // Level-triggered, NOT one-shot: a doorbell must never need an
    // `EPOLL_CTL_MOD` on the wake path (wake_hook runs in signal handlers);
    // draining the eventfd counter clears readiness at the source instead.
    ep.add_level(doorbell.raw_fd(), libc::EPOLLIN, DOORBELL)
        .expect("register doorbell");
    let sh: &'static Shard = Box::leak(Box::new(Shard {
        idx: i,
        ep,
        doorbell,
        registry: Mutex::new(HashMap::new()),
        wheel: TimerWheel::new(),
        armed: AtomicUsize::new(0),
        next_poll_ns: AtomicU64::new(0),
        watch_owner: AtomicU64::new(0),
        counters: ShardCounters::new(),
    }));
    ult_core::stats::publish_shard(i, &sh.counters);
    SHARDS[i].store(sh as *const Shard as *mut Shard, Ordering::Release);
    // Idempotent (write-once CAS inside): publish the hooks as soon as any
    // shard exists; other shards keep materializing lazily through them.
    ult_core::register_io_hooks(&HOOKS);
    sh
}

/// The calling worker's shard (shard 0 outside the runtime).
pub(crate) fn current_shard() -> &'static Shard {
    shard(shard_index(ult_core::current_worker_rank().unwrap_or(0)))
}

fn park_hook(r: usize) -> bool {
    let idx = shard_index(r);
    if idx != r {
        // Not this shard's canonical owner (more workers than shards):
        // futex-park and leave the epoll to the owner. Waiters this worker
        // armed are safe — arming kicked the owner if it was the shard's
        // first, and busy workers' opportunistic polls cover the rest.
        return false;
    }
    let (sh, created) = shard_tracking_creation(idx);
    if created {
        // First park on a fresh shard: a wake kick aimed at this rank may
        // have raced with creation (wake_hook saw a null slot and skipped
        // the doorbell). One non-blocking pass instead of committing to a
        // possibly-unbounded sleep; the caller rescans its pools and the
        // next park round sees the published shard.
        sh.counters.io_parks.fetch_add(1, Ordering::Relaxed);
        sh.service(0);
        return true;
    }
    let timeout = sh.wheel.next_timeout_ms(ult_sys::now_ns());
    if timeout < 0 && sh.armed.load(Ordering::SeqCst) == 0 {
        // Nothing armed and no deadlines: decline, and let the caller take
        // the one-syscall futex park instead of the eventfd-write +
        // epoll-return + eventfd-drain wake path. Safe against a racing
        // cross-worker arm: whoever takes `armed` from 0 to 1 kicks this
        // worker (`ult_core::kick_worker` deposits a futex token), so the
        // futex park the caller falls into returns immediately and the
        // next round sees the nonzero count (SeqCst total order on
        // `armed`: had the increment come first, this read would have
        // seen it).
        return false;
    }
    sh.counters.io_parks.fetch_add(1, Ordering::Relaxed);
    sh.service(timeout);
    // The park was this shard's poll: the dispatch it returns to need not
    // `epoll_wait(0)` again before the rate limit says so.
    sh.next_poll_ns
        .store(ult_sys::now_ns() + POLL_INTERVAL_NS, Ordering::Relaxed);
    true
}

// A bare pointer load plus a raw eventfd `write(2)`. Never creates a shard:
// a worker can only be *parked* in a shard that already exists (so NSHARDS
// is already fixed), and the creation race loses at most one blocking park
// (see `park_hook`).
// sigsafe
fn wake_hook(r: usize) {
    if let Some(sh) = existing_shard(r) {
        sh.counters
            .io_doorbell_rings
            .fetch_add(1, Ordering::Relaxed);
        sh.doorbell.signal();
    }
}

/// Rank `r`'s shard if it has been created: two loads, never creates one
/// and never fixes the shard count (a null slot means nothing was ever
/// armed or parked there).
// sigsafe
fn existing_shard(r: usize) -> Option<&'static Shard> {
    let n = NSHARDS.load(Ordering::Acquire);
    if n == 0 {
        return None;
    }
    let p = SHARDS[(r % n) % MAX_SHARDS].load(Ordering::Acquire);
    // SAFETY: published shard pointers are leaked boxes, valid forever.
    unsafe { p.as_ref() }
}

fn poll_hook(r: usize, force: bool) {
    let sh = shard(shard_index(r));
    let now = ult_sys::now_ns();
    let next = sh.next_poll_ns.load(Ordering::Relaxed);
    if force {
        // The watcher saw this shard ready: poll now, whenever the last
        // poll was, and start the rate limit over from here.
        sh.next_poll_ns
            .store(now + POLL_INTERVAL_NS, Ordering::Relaxed);
    } else if now < next
        || sh
            .next_poll_ns
            .compare_exchange(
                next,
                now + POLL_INTERVAL_NS,
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_err()
    {
        return; // too soon (racing workers of a shared shard: one wins per slot)
    }
    sh.service(0);
}

/// Armed fd interest or pending wheel deadlines on rank `r`'s shard?
/// Consulted by the core's tick-elision state machine at every dispatch
/// (see `IoHooks::pending`): a busy worker must keep its tick while its
/// shard has live waiters, because the polls at its dispatch boundaries
/// are what fires them (the watcher only brings such a boundary forward).
fn pending_hook(r: usize) -> bool {
    existing_shard(r).is_some_and(|sh| {
        sh.armed.load(Ordering::SeqCst) > 0 || sh.wheel.next_timeout_ms(ult_sys::now_ns()) >= 0
    })
}

/// The watcher's meta-epoll: every watched shard's epoll fd, one-shot,
/// tokened by shard index. Created, with its thread, by the first arm, so
/// a process whose workers never run busy over a pending shard has neither.
static WATCHER: OnceLock<&'static Epoll> = OnceLock::new();

/// Arm the watch on rank `r`'s shard for `owner` unless it is armed already
/// (see "The watch" in the module docs). Scheduler context, every dispatch
/// of a busy worker: the common case is the one load.
fn watch_hook(r: usize, owner: u64) {
    let Some(sh) = existing_shard(r) else { return };
    if sh.watch_owner.load(Ordering::Acquire) != 0
        || sh
            .watch_owner
            .compare_exchange(0, owner, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
    {
        return;
    }
    sh.counters.io_watch_arms.fetch_add(1, Ordering::Relaxed);
    let meta = *WATCHER.get_or_init(start_watcher);
    let (fd, token) = (sh.ep.raw_fd(), sh.idx as u64);
    // One-shot re-arm; a shard the watcher has never seen is added instead.
    if meta.modify(fd, libc::EPOLLIN, token).is_err() && meta.add(fd, libc::EPOLLIN, token).is_err()
    {
        // Not armed after all: let the next dispatch try again. Until then
        // this shard is polled at ticks only, as it is without a watcher.
        sh.watch_owner.store(0, Ordering::Release);
    }
}

#[cold]
fn start_watcher() -> &'static Epoll {
    // Leaked like the shards: it serves every runtime the process starts.
    let meta: &'static Epoll = Box::leak(Box::new(
        Epoll::new().expect("epoll_create1 for the reactor watcher"),
    ));
    // The stack holds one event buffer and the kick's call chain.
    std::thread::Builder::new()
        .name("ult-io-watcher".into())
        .stack_size(64 * 1024)
        .spawn(move || watcher_main(meta))
        .expect("spawn the reactor watcher");
    meta
}

/// The watcher thread: sleep until a watched shard has a ready fd, then
/// clear that shard's watch and only then kick the worker that armed it.
// blocking: klt
fn watcher_main(meta: &'static Epoll) -> ! {
    let mut evs = [Event {
        events: 0,
        token: 0,
    }; 8];
    loop {
        // An error here leaves nothing to wait on: a live epoll fd and a
        // valid buffer can only fail with EINTR, which `wait` absorbs.
        let n = meta.wait(&mut evs, -1).expect("reactor watcher epoll_wait");
        for ev in &evs[..n] {
            // The token is the index of the shard whose arm registered it.
            let sh = shard(ev.token as usize);
            let owner = sh.watch_owner.swap(0, Ordering::AcqRel);
            if owner != 0 && !ult_core::io_kick(owner) {
                sh.counters.io_watch_skips.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl Shard {
    /// One service pass: wait up to `timeout_ms` for events, deliver them,
    /// then fire due timers.
    fn service(&self, timeout_ms: i32) {
        self.counters.io_polls.fetch_add(1, Ordering::Relaxed);
        let mut evs = [Event {
            events: 0,
            token: 0,
        }; EVENTS_PER_PASS];
        match self.ep.wait(&mut evs, timeout_ms) {
            Ok(n) => {
                // The blocking wait is over: drop the worker's park flag
                // *before* delivering, so wakes this pass produces for ULTs
                // homed right here skip the self-aimed doorbell ring (the
                // worker rescans its pools when the park returns anyway).
                ult_core::reactor_wait_done();
                for ev in &evs[..n] {
                    self.deliver(ev);
                }
            }
            Err(e) => panic!("epoll_wait failed: {e}"),
        }
        self.wheel.advance(ult_sys::now_ns());
    }

    /// Route one readiness event to its waiters. No allocation: the waiter
    /// Arcs move out of the slots and into `notify`.
    fn deliver(&self, ev: &Event) {
        if ev.token == DOORBELL {
            // Non-one-shot level-triggered registration: draining the
            // eventfd counter is all it takes; no re-arm syscall.
            self.doorbell.drain();
            return;
        }
        let Some(entry) = self.registry.lock().get(&ev.token).cloned() else {
            return; // raced with deregistration or a rebind away from us
        };
        let (r_w, w_w);
        {
            let mut st = entry.st.lock();
            r_w = if ev.events & EV_READ != 0 {
                st.read.take()
            } else {
                None
            };
            w_w = if ev.events & EV_WRITE != 0 {
                st.write.take()
            } else {
                None
            };
            // Release on the entry's *current* owner (stable under `st`):
            // a rebind between the registry lookup above and this lock
            // moved the armed counts along with the fd.
            let taken = r_w.is_some() as usize + w_w.is_some() as usize;
            if taken != 0 {
                let woken = r_w.as_ref().map_or(0, |_| Dir::Read.bit())
                    | w_w.as_ref().map_or(0, |_| Dir::Write.bit());
                entry.woken.fetch_or(woken, Ordering::Relaxed);
                shard(entry.shard.load(Ordering::Acquire))
                    .armed
                    .fetch_sub(taken, Ordering::SeqCst);
            }
            // Sticky interest: a direction whose waiter claimed this event
            // stays armed — the overwhelmingly common next step is the same
            // ULT re-waiting the same direction, which then skips its
            // `EPOLL_CTL_MOD`. A direction that fired with *no* waiter is
            // disarmed so a ready-but-unclaimed fd cannot spin the shard.
            let mut keep = st.armed_interest;
            if ev.events & EV_READ != 0 && r_w.is_none() {
                keep &= !EV_READ;
            }
            if ev.events & EV_WRITE != 0 && w_w.is_none() {
                keep &= !EV_WRITE;
            }
            if keep != st.armed_interest || (taken == 0 && keep == 0) {
                // The fd may have been rebound since this event was queued;
                // disarm on its *current* owner, stable while `st` is held.
                // An empty keep set uses the one-shot MOD: `EPOLLHUP`/
                // `EPOLLERR` are reported regardless of the requested mask,
                // so only one-shot actually silences a hung-up idle fd.
                let owner = shard(entry.shard.load(Ordering::Acquire));
                let ok = if keep == 0 {
                    owner.ep.modify(entry.fd, 0, entry.token)
                } else {
                    owner.ep.modify_level(entry.fd, keep, entry.token)
                };
                if ok.is_ok() {
                    st.armed_interest = keep;
                }
            }
        }
        if let Some(w) = r_w {
            w.notify();
        }
        if let Some(w) = w_w {
            w.notify();
        }
    }

    /// Add a deadline for `w`, ringing this shard's doorbell when it
    /// becomes the wheel's new earliest (the shard's owner may be parked
    /// with a now-too-long timeout).
    pub(crate) fn add_deadline(&self, deadline_ns: u64, w: Arc<TimedWaiter>) {
        if self.wheel.insert(deadline_ns, w) {
            self.counters
                .io_doorbell_rings
                .fetch_add(1, Ordering::Relaxed);
            self.doorbell.signal();
            // The doorbell only reaches an *epoll*-parked owner. If the
            // owner is another worker it may be futex-parked (it declined
            // the epoll park on an empty shard), where only a futex token
            // gets through — same pairing as `note_armed`.
            if ult_core::current_worker_rank() != Some(self.idx) {
                ult_core::kick_worker(self.idx);
            }
        }
    }
}

/// Raise `sh.armed` by `n` occupied waiter slots. Taking the count from 0
/// on a shard whose canonical owner is some *other* worker kicks that
/// worker: it may just have read 0, declined the epoll park, and be
/// committing to a futex park — the kick's futex token (deposited by
/// `Worker::unpark`) makes that park return immediately, and the retry
/// sees the nonzero count (SeqCst: had our increment come first, the
/// owner's read would have returned it). Owners arming their own shard
/// are awake by definition and skip the kick.
fn note_armed(sh: &'static Shard, n: usize) {
    if n != 0
        && sh.armed.fetch_add(n, Ordering::SeqCst) == 0
        && ult_core::current_worker_rank() != Some(sh.idx)
    {
        ult_core::kick_worker(sh.idx);
    }
}

/// Register `fd` with the current worker's shard (interest armed per-wait).
pub(crate) fn register_fd(fd: i32) -> io::Result<Arc<FdEntry>> {
    let sh = current_shard();
    let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
    let entry = Arc::new(FdEntry {
        fd,
        token,
        shard: AtomicUsize::new(sh.idx),
        woken: AtomicU8::new(0),
        st: Mutex::new(FdWait::default()),
    });
    sh.registry.lock().insert(token, entry.clone());
    // Level-triggered, no one-shot: interest stays armed across deliveries
    // (see `FdWait::armed_interest`); always-on `EPOLLHUP`/`EPOLLERR`
    // strays with no waiter are silenced by `deliver`'s one-shot disarm.
    if let Err(e) = sh.ep.add_level(fd, 0, token) {
        sh.registry.lock().remove(&token);
        return Err(e);
    }
    Ok(entry)
}

/// Remove `fd` from its owning shard. Must run before the fd is closed.
pub(crate) fn deregister_fd(entry: &FdEntry) {
    // Taking `st` first serializes against a concurrent rebind, pinning
    // the owner for the registry removal and the DEL (lock nesting is
    // always `st` → `registry`, matching the rebind path).
    let st = entry.st.lock();
    let sh = shard(entry.shard.load(Ordering::Acquire));
    // Any slot still occupied is a stale (timed-out, not yet self-cleared)
    // waiter; release its armed count so the owner's park heuristic stays
    // honest.
    let stale = st.read.is_some() as usize + st.write.is_some() as usize;
    if stale != 0 {
        sh.armed.fetch_sub(stale, Ordering::SeqCst);
    }
    sh.registry.lock().remove(&entry.token);
    let _ = sh.ep.delete(entry.fd);
    drop(st);
}

/// Move `entry` onto `to`'s epoll instance. Caller holds `entry.st` and
/// passes the locked state in as `st` (any armed waiters migrate with the
/// fd, so their counts move between the shards' `armed` tallies).
///
/// Old-registry remove → old DEL → new-registry insert → owner store →
/// fresh ADD with interest 0 (the caller arms its interest right after,
/// covering any still-waiting other direction). The registry locks are
/// taken one at a time — never nested with each other.
fn rebind_locked(entry: &Arc<FdEntry>, st: &mut FdWait, to: &'static Shard) -> io::Result<()> {
    let from = shard(entry.shard.load(Ordering::Acquire));
    if from.idx == to.idx {
        return Ok(());
    }
    let moved = st.read.is_some() as usize + st.write.is_some() as usize;
    if moved != 0 {
        from.armed.fetch_sub(moved, Ordering::SeqCst);
        note_armed(to, moved);
    }
    from.registry.lock().remove(&entry.token);
    let _ = from.ep.delete(entry.fd);
    to.registry.lock().insert(entry.token, entry.clone());
    entry.shard.store(to.idx, Ordering::Release);
    to.counters.io_fd_rebinds.fetch_add(1, Ordering::Relaxed);
    // Fresh epoll instance: nothing armed yet; the caller re-arms right
    // after (its wanted set never matches 0, so the MOD always happens).
    st.armed_interest = 0;
    to.ep.add_level(entry.fd, 0, entry.token)
}

/// Record one batched-accept drain of `n` connections on the current shard.
pub(crate) fn note_accept_batch(n: usize) {
    let sh = current_shard();
    sh.counters
        .io_batched_accepts
        .fetch_add(1, Ordering::Relaxed);
    sh.counters
        .io_accepted
        .fetch_add(n as u64, Ordering::Relaxed);
}

/// Store a waker-bound waiter in `entry`'s `dir` slot and arm interest,
/// then *return*: the calling future reports `Poll::Pending` and its
/// driver parks. Readiness (the service pass's `notify`) or, with a
/// `deadline_ns` (absolute monotonic), the shard wheel claims the waiter,
/// and `Waker::wake` reschedules the task, which re-runs its nonblocking
/// syscall on the next poll. This is the one function that arms an fd;
/// both socket faces reach it through `anet.rs::poll_op`.
///
/// The fd is rebound to the calling worker's shard first, so readiness
/// fires on the epoll instance of the worker that will consume it. A
/// preemption may migrate the task right after, leaving the fd affined
/// one worker behind — benign (the wake crosses shards once and the next
/// wait rebinds).
///
/// No lost wakeup: the slot is stored before the arm, and level-triggered
/// persistence re-reports readiness that predates the arm, so registering
/// *after* a `WouldBlock` and then returning `Pending` cannot strand the
/// task. A re-poll that finds `WouldBlock` again simply replaces the slot
/// (fresh waiter, same occupancy). An arm failure surfaces here; the
/// caller propagates it.
pub(crate) fn register_readiness(
    entry: &Arc<FdEntry>,
    dir: Dir,
    waker: &std::task::Waker,
    deadline_ns: Option<u64>,
) -> io::Result<()> {
    let sh = current_shard();
    let waiter = TimedWaiter::new_with_waker(waker.clone());
    let mut st = entry.st.lock();
    // Affinity: follow the polling task. An error here surfaces through
    // the arm below (same fd, same epoll instance).
    let _ = rebind_locked(entry, &mut st, sh);
    let prior = st.slot(dir).replace(waiter.clone());
    let want = st.read.as_ref().map_or(0, |_| EV_READ) | st.write.as_ref().map_or(0, |_| EV_WRITE);
    // Sticky-interest fast path: the previous wait on this fd wanted the
    // same set and delivery kept it armed, so the MOD is already done.
    if want != st.armed_interest {
        if let Err(e) = sh.ep.modify_level(entry.fd, want, entry.token) {
            // Arm failed (fd went bad): clear our slot and report; the
            // caller's future surfaces the error.
            *st.slot(dir) = None;
            if prior.is_some() {
                sh.armed.fetch_sub(1, Ordering::SeqCst);
            }
            st.armed_interest = 0;
            return Err(e);
        }
        st.armed_interest = want;
    }
    if prior.is_none() {
        // A displaced `prior` is this task's previous registration (stale
        // waker, or a timed-out waiter): occupancy is unchanged then.
        note_armed(sh, 1);
    }
    drop(st);
    if let Some(d) = deadline_ns {
        sh.add_deadline(d, waiter);
    }
    Ok(())
}

/// Drop a deadline-claimed waiter from `entry`'s `dir` slot, so a later
/// readiness edge is not spent on it and the owner's `armed` count stays
/// honest. Called by a poll that found its deadline passed.
pub(crate) fn clear_expired(entry: &FdEntry, dir: Dir) {
    let mut st = entry.st.lock();
    if st.slot(dir).as_ref().is_some_and(|w| w.timed_out()) {
        *st.slot(dir) = None;
        // Decrement the *current* owner: a rebind since the arm moved the
        // count along with the fd (`st` is held, owner is stable).
        shard(entry.shard.load(Ordering::Acquire))
            .armed
            .fetch_sub(1, Ordering::SeqCst);
    }
}

/// Called by every poll of an op on `entry`: if readiness was delivered
/// to this direction since the last poll and the task now runs on a
/// worker other than the delivering shard's, the wake crossed shards
/// (migration between arm and resume, or stolen afterwards).
pub(crate) fn note_wake(entry: &FdEntry, dir: Dir) {
    let bit = dir.bit();
    if entry.woken.load(Ordering::Relaxed) & bit == 0
        || entry.woken.fetch_and(!bit, Ordering::Relaxed) & bit == 0
    {
        return;
    }
    let owner = entry.shard.load(Ordering::Acquire);
    if ult_core::current_worker_rank() != Some(owner) {
        shard(owner)
            .counters
            .io_cross_shard_wakes
            .fetch_add(1, Ordering::Relaxed);
    }
}
