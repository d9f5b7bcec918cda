//! Bounded model ports of the runtime's lock-free protocols, with the
//! exact orderings of the real code in `crates/core`:
//!
//! * [`ModelDeque`] — the Chase–Lev owner pop vs steal race of
//!   `ThreadPool::take_bottom` / `take_top` (`pool.rs`), with a mutation
//!   hook that downgrades the `take_bottom` SeqCst fence (the seeded bug
//!   the mutation test must catch: with two elements, a stale `top` read
//!   lets the owner claim the last slot without the CAS while a stealer's
//!   stale `bottom` read claims the same slot through it).
//! * [`ModelInbox`] — the remote-inbox CAS push (`inbox_push_raw`) vs the
//!   owner's check-then-swap drain (`drain_inbox`). `ThreadPool::retire`
//!   links retired ring generations with the identical CAS chain, so the
//!   concurrent-retire scenario reuses this type.
//! * [`ModelEpoch`] — ring-generation growth (`grow_owner`): copy the
//!   live window, then Release-publish the new buffer; the stealer's
//!   Acquire `buf` load is what makes its slot read race-free, which the
//!   [`RaceCell`] slots verify directly.
//! * [`ModelTick`] — the tick-elision Dekker pairing (`tick::try_elide`
//!   vs `tick::on_push`, `crates/core/src/preempt/tick.rs`): flag store,
//!   fence, work check — against —
//!   work publish, fence, flag check. The invariant is that published
//!   work never ends with the tick still elided. [`tick_dispatch_vs_push`]
//!   carries it across the dispatch that follows an owner's own push, which
//!   leaves the flag up.
//! * [`ModelShard`] / [`ModelInterest`] — the `ult-io` sharded-reactor
//!   wake protocol (`io_hook::shard_park` publishing the per-worker
//!   `reactor_park` flag vs a waker ringing that worker's eventfd
//!   doorbell, including the cross-shard delivery case) and the
//!   interest-registration path (slot-store-before-arm, `MOD` re-report,
//!   `TimedWaiter` claim CAS arbitrating readiness against deadline
//!   expiry, and the affinity rebind racing a stale old-shard delivery).
//! * [`ModelArmed`] — the shared-shard park heuristic (workers exceeding
//!   reactor shards): the owner's empty-count decline into a futex park
//!   vs a non-owner publishing the shard's first armed waiter and kicking
//!   (`reactor::note_armed` / `ult_core::kick_worker`).
//!
//! * [`watch_arm_vs_fire`] — the reactor watcher's one-shot watch
//!   (`reactor::watch_hook` vs `reactor::watcher_main`): a busy worker arms
//!   an unwatched shard at dispatch; the watcher clears the watch and only
//!   then signals, so the dispatch its signal causes arms again.
//!
//! * [`waitqueue_park_vs_wake`] — `ult-sync`'s one wait mechanism
//!   (`waitqueue.rs`): the waiter re-checks the primitive's state under the
//!   queue lock and publishes itself before unlocking; the waker changes
//!   the state and then pops under the same lock.
//!
//! Every scenario keeps the concurrent window to a handful of operations
//! per thread: the explorer is exhaustive and pays for every extra op.

use std::sync::Arc;

use crate::cell::RaceCell;
use crate::sync::{fence, AtomicBool, AtomicIsize, AtomicUsize, Ordering};
use crate::thread;

// ---------------------------------------------------------------------------
// Chase–Lev deque: take_bottom vs take_top
// ---------------------------------------------------------------------------

/// Fixed-capacity model of the work-stealing deque (`pool.rs`). No
/// wraparound: bounded scenarios never reuse a slot.
pub struct ModelDeque {
    top: AtomicIsize,
    bottom: AtomicIsize,
    slots: Vec<RaceCell<u64>>,
    /// `SeqCst` in the real code (`take_bottom`, pool.rs); the mutation
    /// test downgrades it to `Acquire`.
    take_fence: Ordering,
}

impl ModelDeque {
    pub fn new(cap: usize, take_fence: Ordering) -> Self {
        ModelDeque {
            top: AtomicIsize::new(0),
            bottom: AtomicIsize::new(0),
            slots: (0..cap).map(|_| RaceCell::new(0)).collect(),
            take_fence,
        }
    }

    /// Owner push (`push_raw_bottom`): slot write, then Release bottom.
    pub fn push(&self, v: u64) {
        // ordering mirrors pool.rs: owner-exclusive bottom read
        let b = self.bottom.load(Ordering::Relaxed);
        self.slots[b as usize].set(v);
        self.bottom.store(b + 1, Ordering::Release);
    }

    /// Owner pop (`take_bottom`): reserve bottom, fence, read top; the
    /// last element is raced through the SeqCst top CAS.
    pub fn take_bottom(&self) -> Option<u64> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        self.bottom.store(b, Ordering::Relaxed);
        fence(self.take_fence);
        let t = self.top.load(Ordering::Relaxed);
        if t > b {
            self.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }
        let v = self.slots[b as usize].get();
        if t == b {
            let won = self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
            self.bottom.store(b + 1, Ordering::Relaxed);
            if !won {
                return None;
            }
        }
        Some(v)
    }

    /// One steal attempt (`take_top`, single iteration — the retry loop
    /// is the caller's business and would blow up the state space).
    pub fn steal_once(&self) -> Option<u64> {
        let t = self.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return None;
        }
        let v = self.slots[t as usize].get();
        if self
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            Some(v)
        } else {
            None
        }
    }
}

/// Two elements, one owner pop racing one stealer doing two attempts:
/// every element must be claimed at most once. With the faithful SeqCst
/// take fence this holds in every interleaving; with the downgraded
/// fence the owner and the stealer can both claim the last slot.
pub fn deque_take_vs_steal(downgrade_take_fence: bool) {
    let take_fence = if downgrade_take_fence {
        Ordering::Acquire
    } else {
        Ordering::SeqCst
    };
    let d = Arc::new(ModelDeque::new(2, take_fence));
    d.push(1);
    d.push(2);
    let d2 = d.clone();
    let stealer = thread::spawn(move || {
        let mut got = Vec::new();
        for _ in 0..2 {
            if let Some(v) = d2.steal_once() {
                got.push(v);
            }
        }
        got
    });
    let mut claimed = Vec::new();
    if let Some(v) = d.take_bottom() {
        claimed.push(v);
    }
    claimed.extend(stealer.join());
    claimed.sort_unstable();
    for w in claimed.windows(2) {
        assert_ne!(w[0], w[1], "double claim: element {} claimed twice", w[0]);
    }
    for v in &claimed {
        assert!(*v == 1 || *v == 2, "claimed a value never pushed: {v}");
    }
}

// ---------------------------------------------------------------------------
// Remote inbox / retired list: CAS push vs swap drain
// ---------------------------------------------------------------------------

/// Intrusive CAS-linked list with the inbox orderings (`inbox_push_raw` /
/// `drain_inbox`, pool.rs). Nodes are ids `0..n`; `head`/`nexts` encode a
/// pointer as `id + 1` with `0` for null. `ThreadPool::retire` uses the
/// identical push chain for retired ring generations.
pub struct ModelInbox {
    head: AtomicUsize,
    nexts: Vec<AtomicUsize>,
}

impl ModelInbox {
    pub fn new(n: usize) -> Self {
        ModelInbox {
            head: AtomicUsize::new(0),
            nexts: (0..n).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Any-thread push: link unpublished, Release-CAS the head.
    pub fn push(&self, id: usize) {
        loop {
            // mirrors pool.rs: head revalidated by the release CAS
            let h = self.head.load(Ordering::Relaxed);
            self.nexts[id].store(h, Ordering::Relaxed);
            if self
                .head
                .compare_exchange_weak(h, id + 1, Ordering::Release, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Owner drain: Acquire emptiness check, AcqRel swap, relaxed walk.
    pub fn drain(&self) -> Vec<usize> {
        if self.head.load(Ordering::Acquire) == 0 {
            return Vec::new();
        }
        let mut h = self.head.swap(0, Ordering::AcqRel);
        let mut out = Vec::new();
        while h != 0 {
            out.push(h - 1);
            h = self.nexts[h - 1].load(Ordering::Relaxed);
        }
        out
    }
}

/// One producer pushing two items against an owner draining twice: after
/// a final cleanup drain, every item must surface exactly once (the
/// check-then-swap drain must not lose an item pushed after the swap).
pub fn inbox_push_vs_drain() {
    let ib = Arc::new(ModelInbox::new(2));
    let ib2 = ib.clone();
    let producer = thread::spawn(move || {
        ib2.push(0);
        ib2.push(1);
    });
    let mut got = ib.drain();
    got.extend(ib.drain());
    producer.join();
    got.extend(ib.drain());
    got.sort_unstable();
    assert_eq!(got, vec![0, 1], "inbox lost or duplicated an item");
}

/// Two threads concurrently retiring one buffer each (`ThreadPool::retire`
/// CAS chain): both nodes must be on the list afterwards.
pub fn concurrent_retires() {
    let list = Arc::new(ModelInbox::new(2));
    let l1 = list.clone();
    let l2 = list.clone();
    let a = thread::spawn(move || l1.push(0));
    let b = thread::spawn(move || l2.push(1));
    a.join();
    b.join();
    let mut got = list.drain();
    got.sort_unstable();
    assert_eq!(got, vec![0, 1], "retire CAS chain lost a node");
}

// ---------------------------------------------------------------------------
// Ring-generation growth: copy, publish, steal
// ---------------------------------------------------------------------------

/// Two-generation model of `grow_owner` + `take_top`: the owner copies
/// the live window into the next generation and Release-publishes `buf`;
/// a stealer reads a slot out of whichever generation its Acquire `buf`
/// load observes. The `RaceCell` slots make the publication edge load-
/// bearing: without it the stealer's new-generation read is a data race.
pub struct ModelEpoch {
    top: AtomicIsize,
    bottom: AtomicIsize,
    /// Generation index (0 or 1); `buf` pointer in the real code.
    buf: AtomicUsize,
    gens: [Vec<RaceCell<u64>>; 2],
}

impl Default for ModelEpoch {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelEpoch {
    pub fn new() -> Self {
        ModelEpoch {
            top: AtomicIsize::new(0),
            bottom: AtomicIsize::new(0),
            buf: AtomicUsize::new(0),
            gens: [
                (0..2).map(|_| RaceCell::new(0)).collect(),
                (0..4).map(|_| RaceCell::new(0)).collect(),
            ],
        }
    }

    /// Owner push into the current generation (`push_raw_bottom`).
    pub fn push(&self, v: u64) {
        let b = self.bottom.load(Ordering::Relaxed);
        // mirrors pool.rs: owner-exclusive buf read
        let g = self.buf.load(Ordering::Relaxed);
        self.gens[g][b as usize].set(v);
        self.bottom.store(b + 1, Ordering::Release);
    }

    /// Owner growth (`grow_owner`): copy the live window by logical
    /// index, then publish the new generation.
    pub fn grow(&self) {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        let mut i = t;
        while i < b {
            self.gens[1][i as usize].set(self.gens[0][i as usize].get());
            i += 1;
        }
        self.buf.store(1, Ordering::Release);
    }

    /// One steal attempt (`take_top`, single iteration).
    pub fn steal_once(&self) -> Option<u64> {
        let t = self.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return None;
        }
        let g = self.buf.load(Ordering::Acquire);
        let v = self.gens[g][t as usize].get();
        if self
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            Some(v)
        } else {
            None
        }
    }
}

/// A stealer races the owner's grow-and-push: whichever generation its
/// `buf` load observes, the slot it reads must hold the value the claim
/// entitles it to (logical index `t` is generation-invariant), and the
/// `RaceCell` machinery proves the read is ordered.
pub fn epoch_growth_vs_steal() {
    let d = Arc::new(ModelEpoch::new());
    d.push(10);
    d.push(20);
    let d2 = d.clone();
    let stealer = thread::spawn(move || d2.steal_once());
    d.grow();
    d.push(30);
    let stolen = stealer.join();
    assert!(
        stolen.is_none() || stolen == Some(10),
        "steal claimed logical index 0 but read {stolen:?}"
    );
}

// ---------------------------------------------------------------------------
// Sharded reactor: per-worker shard park vs doorbell wake, arm vs readiness
// ---------------------------------------------------------------------------

/// One worker's slice of the sharded-reactor wake protocol
/// (`io_hook::shard_park` vs `Worker::unpark` followed by
/// `io_hook::unpark_kick`). `flag` is the worker's `reactor_park`
/// advertisement, `token` its counted futex, `work` its ready-pool
/// occupancy, `doorbell` its own shard's eventfd counter — a rung doorbell
/// is never lost, because the counter stays readable until drained, waking
/// an `epoll_wait` already in progress or one entered later. There is no
/// process-wide poller slot: each worker runs this pairing against its own
/// shard, independently of every other worker.
pub struct ModelShard {
    flag: AtomicBool,
    token: AtomicUsize,
    work: AtomicUsize,
    doorbell: AtomicUsize,
}

impl ModelShard {
    fn new() -> Self {
        ModelShard {
            flag: AtomicBool::new(false),
            token: AtomicUsize::new(0),
            work: AtomicUsize::new(0),
            doorbell: AtomicUsize::new(0),
        }
    }

    /// Waker half (`sched::on_ready` → `Worker::unpark` → `unpark_kick`):
    /// publish work, deposit the futex token, fence, then ring this
    /// worker's shard doorbell if its park flag is up.
    fn wake(&self, token_store: Ordering, flag_load: Ordering, fence_ord: Ordering) {
        self.work.store(1, Ordering::Release);
        self.token.store(1, token_store);
        fence(fence_ord);
        if self.flag.load(flag_load) {
            self.doorbell.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Parker half (`shard_park`): advertise the flag, fence, then consume
    /// a deposited token / re-check the pools; only if both come up empty
    /// does it commit to its own shard's `epoll_wait`, where futex tokens
    /// can no longer reach it. Returns whether it entered `epoll_wait`.
    fn park(&self, flag_store: Ordering, fence_ord: Ordering) -> bool {
        self.flag.store(true, flag_store);
        fence(fence_ord);
        if self.token.swap(0, Ordering::AcqRel) == 0 && self.work.load(Ordering::Acquire) == 0 {
            true
        } else {
            self.flag.store(false, flag_store);
            false
        }
    }
}

fn shard_orderings(weaken: bool) -> (Ordering, Ordering, Ordering, Ordering) {
    if weaken {
        (
            Ordering::Release,
            Ordering::Acquire,
            Ordering::Release,
            Ordering::AcqRel,
        )
    } else {
        (
            Ordering::SeqCst,
            Ordering::SeqCst,
            Ordering::SeqCst,
            Ordering::SeqCst,
        )
    }
}

/// Run the two halves concurrently on one worker's shard; returns
/// `(entered_epoll, doorbell, work)` at quiescence. The stranded outcome
/// — worker inside its shard's `epoll_wait`, work published, doorbell
/// silent — must be unreachable with the faithful SeqCst flag/fence
/// pairing, and is reachable under the Release/Acquire weakening (the
/// same broken Dekker as the tick-elision model, one layer down the park
/// stack).
pub fn shard_park_vs_wake(weaken: bool) -> (bool, usize, usize) {
    let (flag_store, flag_load, token_store, fence_ord) = shard_orderings(weaken);
    let s = Arc::new(ModelShard::new());
    let s2 = s.clone();
    let waker = thread::spawn(move || s2.wake(token_store, flag_load, fence_ord));
    let parked = s.park(flag_store, fence_ord);
    waker.join();
    (
        parked,
        s.doorbell.load(Ordering::Acquire),
        s.work.load(Ordering::Acquire),
    )
}

/// Cross-shard wake: worker A's service pass delivers readiness for a ULT
/// homed on worker B (the fd was affined to A's shard, the thread since
/// migrated — `Reactor::deliver` → `notify` → `Waker::wake` →
/// `make_ready` → `on_ready` targets B). The kick must aim at **B's** flag and **B's** doorbell;
/// B's own park pairing is what keeps it from stranding, and A's state
/// never enters the protocol. Returns `(b_parked, b_doorbell, b_work)`;
/// the stranded outcome `(true, 0, 1)` must be unreachable faithful and
/// reachable weakened — proving the pairing still has teeth when the wake
/// originates on a foreign shard.
pub fn cross_shard_wake(weaken: bool) -> (bool, usize, usize) {
    let (flag_store, flag_load, token_store, fence_ord) = shard_orderings(weaken);
    let b = Arc::new(ModelShard::new());
    let b2 = b.clone();
    // Worker A: deliver the readiness event for B's ULT, then park on its
    // own (eventless) shard — A's park must neither consume B's token nor
    // absorb B's doorbell.
    let a_shard = Arc::new(ModelShard::new());
    let a2 = a_shard.clone();
    let worker_a = thread::spawn(move || {
        b2.wake(token_store, flag_load, fence_ord);
        a2.park(flag_store, fence_ord)
    });
    let b_parked = b.park(flag_store, fence_ord);
    let a_parked = worker_a.join();
    // A has no work and nobody woke it: it must be allowed to sleep.
    assert!(a_parked, "worker A's own empty shard park was disturbed");
    (
        b_parked,
        b.doorbell.load(Ordering::Acquire),
        b.work.load(Ordering::Acquire),
    )
}

/// The shared-shard park heuristic (`reactor::park_hook`'s empty-shard
/// decline paired with `note_armed`'s cross-worker kick): `armed` is the
/// shard's occupied-waiter-slot count, `token` the owner worker's futex
/// token. The owner reads the count and — finding it zero — declines the
/// epoll park in favor of the futex park, where only a token can reach
/// it; a non-owner arming the shard's first waiter must therefore
/// *publish the count, then kick* (`Worker::unpark` deposits the token),
/// both SeqCst, so that an owner whose decline raced the arm either
/// consumes the token (and re-reads the now-nonzero count) or was never
/// going to miss the count in the first place.
pub struct ModelArmed {
    armed: AtomicUsize,
    token: AtomicUsize,
}

impl ModelArmed {
    fn new() -> Self {
        ModelArmed {
            armed: AtomicUsize::new(0),
            token: AtomicUsize::new(0),
        }
    }

    /// Owner half (`park_hook` → `shard_park` fallthrough): read the
    /// count; zero sends it to the futex park, which consumes any pending
    /// token before committing to sleep. A consumed token re-runs the
    /// decision. Returns `(slept_in_futex, polled_epoll)`.
    fn owner(&self) -> (bool, bool) {
        for _ in 0..2 {
            if self.armed.load(Ordering::SeqCst) != 0 {
                return (false, true); // epoll park: the shard gets polled
            }
            if self.token.swap(0, Ordering::SeqCst) == 0 {
                return (true, false); // committed to the futex sleep
            }
            // Token consumed: woken, re-evaluate from the top.
        }
        // A single armer deposits a single token: with the count still
        // zero after consuming it, the real owner would sleep — under the
        // faithful order this arm (token seen but count not) is
        // unreachable, and reaching it weakened counts as stranded.
        (true, false)
    }

    /// Armer half (`note_armed` on a 0→1 transition from a non-owner
    /// rank). `faithful` is the shipped order — publish the count, then
    /// kick; the weakened variant kicks first, the refactor-sized bug
    /// this protocol exists to forbid.
    fn arm(&self, faithful: bool) {
        if faithful {
            if self.armed.fetch_add(1, Ordering::SeqCst) == 0 {
                self.token.store(1, Ordering::SeqCst);
            }
        } else {
            self.token.store(1, Ordering::SeqCst);
            self.armed.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Run the decline against a concurrent first arm; returns
/// `(slept, polled, token_left)` at quiescence. The stranded outcome —
/// owner asleep in its futex, no token pending, count nonzero, so nobody
/// ever polls the shard's epoll — is `(true, _, 0)`: it must be
/// unreachable with the faithful publish-then-kick order and reachable
/// with the kick-then-publish weakening.
pub fn armed_publish_vs_decline(faithful: bool) -> (bool, bool, usize) {
    let s = Arc::new(ModelArmed::new());
    let s2 = s.clone();
    let armer = thread::spawn(move || s2.arm(faithful));
    let (slept, polled) = s.owner();
    armer.join();
    (slept, polled, s.token.load(Ordering::SeqCst))
}

/// One registered fd of the reactor: `ready` is the kernel's
/// level-triggered readiness latch, `armed` the one-shot epoll interest,
/// `slot` the per-direction waiter slot, `state`/`wakes` the
/// `TimedWaiter` claim (0 = waiting, 1 = notified, 2 = timed out).
pub struct ModelInterest {
    ready: AtomicBool,
    armed: AtomicBool,
    slot: AtomicUsize,
    state: AtomicUsize,
    wakes: AtomicUsize,
}

impl ModelInterest {
    fn new() -> Self {
        ModelInterest {
            ready: AtomicBool::new(false),
            armed: AtomicBool::new(false),
            slot: AtomicUsize::new(0),
            state: AtomicUsize::new(0),
            wakes: AtomicUsize::new(0),
        }
    }

    /// One event delivery (`Reactor::deliver`): consume the one-shot arm,
    /// take the waiter slot, and wake through the claim CAS — which is
    /// what makes a double delivery harmless.
    fn deliver(&self) {
        if self.armed.swap(false, Ordering::AcqRel) {
            let w = self.slot.swap(0, Ordering::AcqRel);
            if w != 0
                && self
                    .state
                    .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                self.wakes.fetch_add(1, Ordering::AcqRel);
            }
        }
    }

    /// Deadline expiry (`TimedWaiter::expire`): the other claimant.
    fn expire(&self) {
        if self
            .state
            .compare_exchange(0, 2, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.wakes.fetch_add(1, Ordering::AcqRel);
        }
    }
}

/// Interest registration racing fd readiness: the kernel publishes
/// readiness and delivers if interest is armed; the registrar stores the
/// waiter slot, arms, and then — modeling `EPOLL_CTL_MOD`'s re-report of
/// level-triggered readiness — delivers again if readiness is already
/// visible. Returns the final wake count: exactly 1 when `rereport` is
/// true (slot-store-before-arm + re-report + claim dedupe), while
/// `rereport = false` (edge-triggered-style arming) can strand the waiter
/// at 0 — the lost-wakeup this design exists to exclude.
pub fn interest_registration_vs_readiness(rereport: bool) -> usize {
    let s = Arc::new(ModelInterest::new());
    let s2 = s.clone();
    // Kernel half: readiness latches, then the pending service pass runs.
    // The latch and the re-report check below are SeqCst because both sides
    // of the real race are *kernel-serialized* (the readiness update and the
    // `epoll_ctl` syscall hit the same ep->lock); modeling them weaker would
    // invent a reordering the syscall boundary forbids.
    let kernel = thread::spawn(move || {
        s2.ready.store(true, Ordering::SeqCst);
        s2.deliver();
    });
    // Registrar half (`reactor::register_readiness`): slot before arm,
    // then the MOD re-report.
    s.slot.store(1, Ordering::Release);
    s.armed.store(true, Ordering::Release);
    if rereport && s.ready.load(Ordering::SeqCst) {
        s.deliver();
    }
    kernel.join();
    s.wakes.load(Ordering::Acquire)
}

/// Readiness delivery racing deadline expiry on an armed, registered
/// waiter: the claim CAS must produce exactly one wake — a recycled ULT
/// descriptor woken twice is use-after-free in the real runtime.
pub fn readiness_vs_deadline_single_wake() -> usize {
    let s = Arc::new(ModelInterest::new());
    s.slot.store(1, Ordering::Relaxed);
    s.armed.store(true, Ordering::Relaxed);
    s.ready.store(true, Ordering::Relaxed);
    let s2 = s.clone();
    let service = thread::spawn(move || s2.deliver());
    s.expire();
    service.join();
    s.wakes.load(Ordering::Acquire)
}

/// One fd mid-rebind (`reactor::rebind_locked` racing a stale old-shard
/// event). `in_old_registry` is the old shard's registry entry, `armed`
/// the new shard's one-shot interest, `ready` the kernel's level-triggered
/// latch (the fd has been readable throughout), `slot`/`state`/`wakes` the
/// waiter as in [`ModelInterest`].
pub struct ModelRebind {
    in_old_registry: AtomicBool,
    armed: AtomicBool,
    ready: AtomicBool,
    slot: AtomicUsize,
    state: AtomicUsize,
    wakes: AtomicUsize,
}

impl ModelRebind {
    fn new() -> Self {
        ModelRebind {
            in_old_registry: AtomicBool::new(true),
            armed: AtomicBool::new(false),
            ready: AtomicBool::new(true),
            slot: AtomicUsize::new(0),
            state: AtomicUsize::new(0),
            wakes: AtomicUsize::new(0),
        }
    }

    /// A stale event already dequeued by the *old* shard's `epoll_wait`
    /// before the rebind's `EPOLL_CTL_DEL`: delivery starts with the
    /// registry lookup and silently drops the event once the entry has
    /// moved away (`Reactor::deliver`'s raced-with-rebind arm).
    fn deliver_old(&self) {
        if self.in_old_registry.load(Ordering::SeqCst) {
            self.claim_wake();
        }
    }

    /// The new shard's service pass: consume the one-shot arm, wake.
    fn deliver_new(&self) {
        if self.armed.swap(false, Ordering::AcqRel) {
            self.claim_wake();
        }
    }

    fn claim_wake(&self) {
        let w = self.slot.swap(0, Ordering::AcqRel);
        if w != 0
            && self
                .state
                .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            self.wakes.fetch_add(1, Ordering::AcqRel);
        }
    }
}

/// The affinity rebind racing a stale delivery on the fd's old shard: the
/// rebinder removes the old registry entry (DEL), publishes the waiter
/// slot, arms the new shard and — `EPOLL_CTL_MOD`'s level-triggered
/// re-report, the fd never stopped being readable — delivers. The old
/// shard's stale event and the new shard's service pass race it. Returns
/// the final wake count, which must be exactly 1: the registry removal
/// keeps the stale event from double-delivering (slot is published only
/// after it), and the re-report keeps the waiter from stranding.
pub fn rebind_vs_stale_delivery() -> usize {
    let s = Arc::new(ModelRebind::new());
    let s2 = s.clone();
    // Old and new shards' service passes, in their real temporal order
    // (the stale event was dequeued before the rebind re-armed anything).
    let services = thread::spawn(move || {
        s2.deliver_old();
        s2.deliver_new();
    });
    // Rebinder half (`register_readiness` + `rebind_locked`, under `st`):
    // old-registry remove → slot publish → new-shard arm → MOD re-report.
    s.in_old_registry.store(false, Ordering::SeqCst);
    s.slot.store(1, Ordering::Release);
    s.armed.store(true, Ordering::Release);
    if s.ready.load(Ordering::SeqCst) {
        s.deliver_new();
    }
    services.join();
    s.wakes.load(Ordering::Acquire)
}

// ---------------------------------------------------------------------------
// Tick elision: the elide/rearm Dekker pairing
// ---------------------------------------------------------------------------

/// One worker's elision state: `work` stands in for its pools' occupancy
/// (`has_any_work`), `elided` for `Tick::elided` (`preempt/tick.rs`).
pub struct ModelTick {
    work: AtomicUsize,
    elided: AtomicBool,
}

/// Run the two Dekker halves concurrently and return the final
/// `(work, elided)` state. `weaken` replaces every SeqCst in the pairing
/// with Release/Acquire — the classic broken Dekker, which strands
/// published work with the tick still elided.
pub fn tick_elide_vs_push(weaken: bool) -> (usize, bool) {
    let (flag_store, flag_load, fence_ord) = if weaken {
        (Ordering::Release, Ordering::Acquire, Ordering::AcqRel)
    } else {
        (Ordering::SeqCst, Ordering::SeqCst, Ordering::SeqCst)
    };
    let s = Arc::new(ModelTick {
        work: AtomicUsize::new(0),
        elided: AtomicBool::new(false),
    });
    let s2 = s.clone();
    // Pusher half (`on_push`, tick.rs): publish work, fence, then
    // rearm if the flag is up. The publish itself is the deque's Release
    // bottom store.
    let pusher = thread::spawn(move || {
        s2.work.store(1, Ordering::Release);
        fence(fence_ord);
        if s2.elided.load(flag_load) {
            s2.elided.store(false, flag_store);
        }
    });
    // Elider half (`try_elide`, tick.rs): raise the flag, fence, then
    // back off if work is visible.
    s.elided.store(true, flag_store);
    fence(fence_ord);
    if s.work.load(Ordering::Acquire) > 0 {
        s.elided.store(false, flag_store);
    }
    pusher.join();
    (
        s.work.load(Ordering::Acquire),
        s.elided.load(Ordering::Acquire),
    )
}

/// The step after the pairing above, for a worker that enters it with its
/// tick *already* elided: the owner's own push leaves the flag up (a worker
/// never re-arms for an occupant that cannot be preempted — `tick::on_push`
/// with `is_self`, from the scheduler context), and the next dispatch has to
/// settle it. Here that dispatch pops the pushed ULT, a preemptive one, and
/// runs `update_tick_state`, while a remote pusher publishes a second ULT
/// and — having seen the flag — nudges (`tick::nudge`).
///
/// The nudge is a signal: its handler runs on the owner's own thread between
/// any two of the owner's steps (`poll` below; the signal's delivery is what
/// orders it after the pusher's publish), and re-arms only over a preemptive
/// occupant — otherwise it leaves the flag for "the next dispatch"
/// (`tick::handler_entry`). So the flag outlives the handler exactly when the
/// dispatch is still to come, and the dispatch re-reads the pools whatever
/// the flag says.
///
/// Returns `(work, elided)` once the preemptive ULT occupies the worker and
/// every signal is delivered; `(1, true)` is a spinner that nothing will
/// ever preempt with a ULT queued behind it. `faithful = false` is a
/// dispatch that trusts the flag ("still elided, so nothing was queued")
/// and skips the pool read.
pub fn tick_dispatch_vs_push(faithful: bool) -> (usize, bool) {
    let s = Arc::new(ModelTick {
        work: AtomicUsize::new(0),
        elided: AtomicBool::new(true),
    });
    let nudge = Arc::new(AtomicBool::new(false));
    let (s2, n2) = (s.clone(), nudge.clone());
    let pusher = thread::spawn(move || {
        s2.work.fetch_add(1, Ordering::Release);
        fence(Ordering::SeqCst);
        if s2.elided.load(Ordering::SeqCst) {
            n2.store(true, Ordering::Release);
        }
    });
    // The preemption handler, if a nudge is pending.
    let poll = |preemptive_occupant: bool| {
        if nudge.swap(false, Ordering::AcqRel)
            && s.elided.load(Ordering::SeqCst)
            && preemptive_occupant
        {
            s.elided.store(false, Ordering::SeqCst);
        }
    };
    // Scheduler context: the deferred self-push, then the pick.
    poll(false);
    s.work.fetch_add(1, Ordering::Release);
    poll(false);
    s.work.fetch_sub(1, Ordering::AcqRel);
    poll(false);
    // Dispatch of the preemptive ULT: `set_current_kind`, then
    // `update_tick_state`.
    poll(true);
    // With nothing queued the dispatch goes to `try_elide`, which leaves an
    // already elided tick as it is (only a handler that saw work clears the
    // flag, so "nothing queued and not elided" cannot meet here).
    if faithful && s.work.load(Ordering::Acquire) > 0 {
        s.elided.swap(false, Ordering::SeqCst);
    }
    // The ULT runs; a nudge may still be on its way.
    poll(true);
    pusher.join();
    poll(true);
    (
        s.work.load(Ordering::Acquire),
        s.elided.load(Ordering::Acquire),
    )
}

// ---------------------------------------------------------------------------
// Reactor watcher: arm at dispatch vs clear-then-signal on fire
// ---------------------------------------------------------------------------

/// The watch on one reactor shard, from the instant its one-shot interest
/// has fired (`owner` still names the worker, the kernel side is spent).
/// The watcher half (`reactor::watcher_main`) swaps `watch_owner` to 0 and
/// *then* kicks the worker — `io_kick`'s flag store and `tgkill`, one
/// Release store here. The worker half is the dispatch that kick causes
/// (`reactor::watch_hook` from `update_tick_state`): it only runs once the
/// signal is visible, arms when it finds the shard unwatched (load, CAS,
/// `EPOLL_CTL_MOD`) and otherwise trusts the watch it sees.
///
/// Returns `(dispatched, armed)` at quiescence. `(true, false)` is the
/// failure: the worker is past its dispatch and running its next ULT for a
/// whole quantum, the shard has waiters, and nobody watches it — readiness
/// waits for the tick again. Unreachable with the faithful order; `faithful
/// = false` signals before it clears, which lets the dispatch see the stale
/// owner, skip the arm, and lose the watch to the late clear.
pub fn watch_arm_vs_fire(faithful: bool) -> (bool, bool) {
    let owner = Arc::new(AtomicUsize::new(1));
    let signal = Arc::new(AtomicBool::new(false));
    let armed = Arc::new(AtomicBool::new(false));
    let (o2, s2) = (owner.clone(), signal.clone());
    let watcher = thread::spawn(move || {
        if faithful {
            o2.swap(0, Ordering::AcqRel);
            s2.store(true, Ordering::Release);
        } else {
            s2.store(true, Ordering::Release);
            o2.swap(0, Ordering::AcqRel);
        }
    });
    let dispatched = signal.load(Ordering::Acquire);
    if dispatched
        && owner.load(Ordering::Acquire) == 0
        && owner
            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    {
        armed.store(true, Ordering::Release);
    }
    watcher.join();
    (dispatched, armed.load(Ordering::Acquire))
}

// ---------------------------------------------------------------------------
// Adaptive quantum: quantum publish vs handler read
// ---------------------------------------------------------------------------

/// Base quantum before the shrink (stands in for `preempt_interval_ns`).
pub const QP_BASE: usize = 4;
/// The shrunk floor quantum.
pub const QP_FLOOR: usize = 1;
/// Initial (far-future) deadline derived from the base quantum.
pub const QP_FAR: usize = 8;

/// The quantum-publish pairing (`tick::queued` vs the signal handler's
/// deadline filter + re-arm): the writer stores the shrunk `Tick::quantum_ns`
/// *before* clearing `Tick::deadline_ns`, both Release;
/// the handler loads the deadline then the quantum, both Acquire. The
/// invariant is that a handler observing the cleared deadline also
/// observes the matching floor quantum — otherwise an elided-timer re-arm
/// uses the stale stretched quantum and the latency ULT waits up to a full
/// ceiling interval. `weaken` downgrades all four to Relaxed.
pub fn quantum_publish_vs_handler(weaken: bool) -> (usize, usize) {
    let (st, ld) = if weaken {
        (Ordering::Relaxed, Ordering::Relaxed)
    } else {
        (Ordering::Release, Ordering::Acquire)
    };
    let quantum = Arc::new(AtomicUsize::new(QP_BASE));
    let deadline = Arc::new(AtomicUsize::new(QP_FAR));
    let (q2, d2) = (quantum.clone(), deadline.clone());
    // Writer half (`tick::queued`): quantum before deadline.
    let pusher = thread::spawn(move || {
        q2.store(QP_FLOOR, st);
        d2.store(0, st);
    });
    // Handler half (`tick::handler_entry`: coarse filter, re-arm):
    // deadline first, then the quantum the re-arm would use.
    let dl = deadline.load(ld);
    let q = quantum.load(ld);
    pusher.join();
    (dl, q)
}

// ---------------------------------------------------------------------------
// ULT-aware MCS mutex: handoff vs park, release vs enqueue
// ---------------------------------------------------------------------------

/// Sentinel for "this side never performed the read" in
/// [`mcs_handoff_vs_park`] outcomes.
pub const MCS_UNREAD: usize = 2;

const MCS_WAITING: usize = 0;
const MCS_GRANTED: usize = 1;
const MCS_PARKED: usize = 2;

/// One MCS queue node's waiter/granter race (`mcs.rs::wait_for_grant` vs
/// `McsGuard::unlock`): the waiter publishes its `Arc<Ult>` into the `ult`
/// slot (Release) then CASes WAITING→PARKED (AcqRel); the granter writes
/// the protected data (Release, standing in for the critical section),
/// swaps `state` to GRANTED (AcqRel) and — seeing PARKED — loads the slot
/// (Acquire). Returns `(waiter_parked, data_seen, got_ult)` where the
/// latter two are [`MCS_UNREAD`] when that side's read never ran:
///
/// * waiter lost the CAS (grant landed first) → it proceeds holding the
///   lock and `data_seen` must be 1 (no torn critical section);
/// * granter saw PARKED → `got_ult` must be 1 (no lost wakeup: the slot
///   publication is ordered before the PARKED transition).
///
/// `weaken` downgrades the whole protocol — the slot/data publication
/// *and* the state RMWs — to Relaxed; both invariants then break. (RMW
/// atomicity still holds — model RMWs always read the latest store — but a
/// Relaxed RMW no longer synchronizes, so the plain-store publications it
/// was ordering come unmoored.)
pub fn mcs_handoff_vs_park(weaken: bool) -> (bool, usize, usize) {
    let (st, ld, rmw) = if weaken {
        (Ordering::Relaxed, Ordering::Relaxed, Ordering::Relaxed)
    } else {
        (Ordering::Release, Ordering::Acquire, Ordering::AcqRel)
    };
    let state = Arc::new(AtomicUsize::new(MCS_WAITING));
    let ult = Arc::new(AtomicUsize::new(0));
    let data = Arc::new(AtomicUsize::new(0));
    let (s2, u2, d2) = (state.clone(), ult.clone(), data.clone());
    // Granter half (`McsGuard::unlock`): critical-section write, grant,
    // slot read if the waiter parked.
    let granter = thread::spawn(move || {
        d2.store(1, st);
        if s2.swap(MCS_GRANTED, rmw) == MCS_PARKED {
            u2.load(ld)
        } else {
            MCS_UNREAD
        }
    });
    // Waiter half (`wait_for_grant`'s park attempt): publish the ULT,
    // then try to transition to PARKED.
    ult.store(1, st);
    let (parked, data_seen) = match state.compare_exchange(MCS_WAITING, MCS_PARKED, rmw, ld) {
        Ok(_) => (true, MCS_UNREAD),
        // Grant already landed: abort the park and enter the critical
        // section, reading the protected data.
        Err(_) => (false, data.load(ld)),
    };
    let got_ult = granter.join();
    (parked, data_seen, got_ult)
}

/// The release-vs-enqueue tail race (`McsGuard::unlock`'s
/// tail CAS vs `McsMutex::lock`'s tail swap), run exhaustively: the
/// releaser (node 1, no successor linked yet) CASes the tail back to null
/// while a contender swaps its node (2) in. Exactly one order exists per
/// execution — the tail RMWs are totally ordered — and the invariant is
/// that the two sides agree on it: the releaser's CAS succeeds **iff** the
/// contender observed an empty queue. Disagreement in either direction is
/// fatal in the real lock: CAS-won *and* predecessor-seen is a lost
/// handoff (the contender waits forever on a node nobody owns); CAS-lost
/// *and* null-predecessor-seen is a double claim (both sides think they
/// hold the lock).
pub fn mcs_release_vs_enqueue() {
    let tail = Arc::new(AtomicUsize::new(1));
    let t2 = tail.clone();
    let enqueuer = thread::spawn(move || t2.swap(2, Ordering::AcqRel));
    let released = tail
        .compare_exchange(1, 0, Ordering::AcqRel, Ordering::Acquire)
        .is_ok();
    let pred = enqueuer.join();
    assert_eq!(
        released,
        pred == 0,
        "tail race disagreement: released={released} pred={pred} \
         (lost handoff or double claim)"
    );
}

// ---------------------------------------------------------------------------
// Task waker: poll retire/park vs wake (ult-io's task.rs, the driver that
// parks every ULT-blocking socket, timed wait and task)
// ---------------------------------------------------------------------------

/// Sentinel for "this side never performed the read" in
/// [`waker_park_vs_wake`] outcomes.
pub const WK_UNREAD: usize = 9;

const WK_IDLE: usize = 0;
const WK_POLLING: usize = 1;
const WK_NOTIFIED: usize = 2;
const WK_PARKED: usize = 3;

/// One round of the `TaskCore` claim machine (`ult-io` `task::drive`, the
/// driver under `block_on`, vs `TaskCore::wake`): the executor retires a
/// Pending poll (POLLING→IDLE), publishes the host ULT into the waker slot
/// (Release), and commits to PARKED (AcqRel CAS); the waker walks the state to
/// NOTIFIED and — having claimed the PARKED→NOTIFIED edge — takes the
/// slot (the read half of the real code's `slot.swap`, modeled as an
/// Acquire load since model RMWs always read the latest store).
///
/// Returns `(parked, waker_got, reclaimed)`:
///
/// * `parked` — the executor committed to PARKED (the host ULT blocked);
/// * `waker_got` — what the PARKED-claim winner found in the slot
///   ([`WK_UNREAD`] if the waker returned on an earlier edge);
/// * `reclaimed` — what the executor's poll-abort reclaim found
///   ([`WK_UNREAD`] if it parked or never published).
///
/// Faithful invariants: a PARKED claim always finds the published ULT
/// (`parked ⇒ waker_got == 1` — otherwise the task sleeps forever while
/// the wake walks away empty-handed), and an abort reclaim always finds
/// it too. `weaken` downgrades every ordering to Relaxed; the publication
/// comes unmoored from the PARKED commit and the lost wakeup is
/// reachable.
pub fn waker_park_vs_wake(weaken: bool) -> (bool, usize, usize) {
    let (st, ld, rmw) = if weaken {
        (Ordering::Relaxed, Ordering::Relaxed, Ordering::Relaxed)
    } else {
        (Ordering::Release, Ordering::Acquire, Ordering::AcqRel)
    };
    let state = Arc::new(AtomicUsize::new(WK_POLLING));
    let slot = Arc::new(AtomicUsize::new(0));
    let (s2, sl2) = (state.clone(), slot.clone());
    // Waker half (`TaskCore::wake`): claim an edge to NOTIFIED. The state
    // only ever advances POLLING→IDLE→PARKED under a single concurrent
    // executor, and a failed CAS reports the latest value, so four
    // attempts bound the walk.
    let waker = thread::spawn(move || {
        let mut cur = s2.load(ld);
        for _ in 0..4 {
            match cur {
                WK_NOTIFIED => return WK_UNREAD,
                WK_IDLE | WK_POLLING => {
                    // Executor is awake (mid-poll or between poll and
                    // park): flagging NOTIFIED makes its park attempt
                    // fail into a repoll — nothing to push here.
                    match s2.compare_exchange(cur, WK_NOTIFIED, rmw, ld) {
                        Ok(_) => return WK_UNREAD,
                        Err(now) => cur = now,
                    }
                }
                _ => {
                    // Parked: claim the wake and take the published ULT.
                    match s2.compare_exchange(WK_PARKED, WK_NOTIFIED, rmw, ld) {
                        Ok(_) => return sl2.load(ld),
                        Err(now) => cur = now,
                    }
                }
            }
        }
        unreachable!("state walk exceeded its bound")
    });
    // Executor half (`drive`'s Pending arm): retire the poll, publish the
    // host ULT, commit to PARKED. Either CAS failing means a wake landed
    // mid-window: reclaim the slot (if published) and poll again instead
    // of blocking.
    let (parked, reclaimed) = if state.compare_exchange(WK_POLLING, WK_IDLE, rmw, ld).is_ok() {
        slot.store(1, st);
        match state.compare_exchange(WK_IDLE, WK_PARKED, rmw, ld) {
            Ok(_) => (true, WK_UNREAD),
            // The read half of the abort path's `slot.swap` reclaim.
            Err(_) => (false, slot.load(ld)),
        }
    } else {
        (false, WK_UNREAD)
    };
    let waker_got = waker.join();
    (parked, waker_got, reclaimed)
}

// ---------------------------------------------------------------------------
// ult-sync wait queue: park vs wake
// ---------------------------------------------------------------------------

/// Lock attempts before a model thread gives its execution up. The explorer
/// has no fair scheduler, so an unbounded spin would never end; a holder's
/// critical section is at most three operations, and any real execution is
/// equivalent to one where the spinner fails at most once between two of
/// them.
const WQ_SPINS: usize = 4;

/// `SpinLock::lock` (Acquire swap), bounded by [`WQ_SPINS`].
fn wq_lock(lock: &AtomicBool) -> bool {
    (0..WQ_SPINS).any(|_| !lock.swap(true, Ordering::Acquire))
}

/// One waiter against one waker on a `WaitQueue` (`ult-sync`
/// `waitqueue.rs`), the protocol under Mutex, Condvar, Semaphore, RwLock,
/// Barrier and WaitGroup alike. `state` stands for the primitive's own
/// atomic (1 = what the waiter wants is there), `queue` for the FIFO, plain
/// data that only the lock protects.
///
/// * Waiter (`WaitQueue::wait`): take the lock, evaluate `ready` (load
///   `state`), publish itself if that failed, unlock, park.
/// * Waker (`Mutex::unlock` and its kin): store `state` (Release), take the
///   lock, pop, unlock, wake what it popped.
///
/// Returns `(parked, woken)`, or `None` for an execution in which a lock
/// spin ran out (see [`WQ_SPINS`]). `(true, false)` is the lost wake-up: the
/// waiter sleeps on a state that already changed and nobody will pop it.
/// Unreachable when `faithful`; otherwise `ready` is evaluated *before* the
/// lock is taken, the waker can change the state and find the queue empty in
/// between, and the model reaches it.
pub fn waitqueue_park_vs_wake(faithful: bool) -> Option<(bool, bool)> {
    let lock = Arc::new(AtomicBool::new(false));
    let state = Arc::new(AtomicUsize::new(0));
    let queue = Arc::new(RaceCell::new(0usize));
    let (l2, s2, q2) = (lock.clone(), state.clone(), queue.clone());
    let waker = thread::spawn(move || {
        s2.store(1, Ordering::Release);
        if !wq_lock(&l2) {
            return None;
        }
        let popped = q2.get();
        q2.set(0);
        l2.store(false, Ordering::Release);
        Some(popped == 1)
    });
    let early = (!faithful).then(|| state.load(Ordering::Acquire));
    let parked = wq_lock(&lock).then(|| {
        let ready = early.unwrap_or_else(|| state.load(Ordering::Acquire)) == 1;
        if !ready {
            queue.set(1);
        }
        lock.store(false, Ordering::Release);
        !ready
    });
    let woken = waker.join();
    Some((parked?, woken?))
}
