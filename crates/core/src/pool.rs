//! Ready-thread pools: a bounded Chase–Lev work-stealing deque with a
//! lock-free remote-push inbox.
//!
//! Each worker owns one (or, for the priority scheduler, two) [`ThreadPool`]s
//! holding ready ULTs. The pool replaces the seed's `SpinLock`+`VecDeque`
//! design with two lock-free halves:
//!
//! * a **Chase–Lev deque** (Chase & Lev, SPAA '05; memory orderings after
//!   Lê et al., PPoPP '13): the owner pushes at the *bottom* with no CAS and
//!   no lock — this is the signal-handler preemption path — and pops either
//!   the *top* (FIFO, one CAS shared with stealers; the BOLT default
//!   scheduler's queue order, paper §4.1) or the *bottom* (LIFO, CAS-free
//!   except on the last element; the analysis-thread queue of §4.3 keeps
//!   locality by draining newest-first). Stealers CAS the top.
//! * an **inbox**: an intrusive Treiber stack threaded through the ULT
//!   descriptors themselves (`Ult::pool_next`), so *remote* pushes — spawns
//!   from external threads, `make_ready` from another worker, the Packing
//!   scheduler's home-pool routing from a signal handler — are a single CAS
//!   with **zero allocation**. Consumers drain it wholesale with a `swap`
//!   (no ABA: nothing compares list nodes).
//!
//! # Ownership discipline
//!
//! `push`, `pop` and `pop_lifo` are **owner** operations: at most one thread
//! (the worker currently embodying the pool's owner, or the single test
//! thread for bare pools) may call them at a time. The runtime guarantees
//! this with the preempt-disable protocol: bottom-end operations run either
//! in scheduler context or under a pin, so the preemption handler — the only
//! in-thread reentrancy source — defers rather than interrupting one.
//! `push_remote` and `steal` are safe from any thread concurrently.
//!
//! # Signal-handler safety
//!
//! The KLT-switching signal handler pushes the preempted ULT into a pool
//! *from inside the handler* (paper Fig. 2c). The interrupted frame may be
//! inside `malloc`, so the handler must not allocate — and with the deque it
//! does not even spin on a lock: an owner push is two loads, a plain slot
//! store and a release store of `bottom`; a remote push is one CAS on the
//! inbox head. The deque **never grows inside `push`** — growth capacity is
//! staged ahead of time by the spawn path ([`ThreadPool::reserve`]) as a
//! `pending` buffer, and the owner swaps it in (an allocation-free copy of
//! the live window) the moment a push finds the ring full. Replaced rings
//! are *retired*, not freed, because a racing stealer may still read them;
//! they are reclaimed when the pool drops. `push` panics (rather than
//! allocating) if no staged buffer exists — the reservation invariant.

use crate::thread::{SchedClass, Ult};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;
use ult_arch::CacheAligned;

/// A minimal test-and-set spinlock.
///
/// Used instead of `parking_lot`/`std` mutexes wherever a signal handler may
/// take the lock: parking mutexes may allocate lazy per-thread data on first
/// contention, which is not async-signal-safe. (The ready pools themselves
/// no longer use it; the KLT pools still do.)
pub struct SpinLock {
    locked: AtomicBool, // ordering: acqrel swap-acquire to lock, release store to unlock
}

impl Default for SpinLock {
    fn default() -> Self {
        Self::new()
    }
}

impl SpinLock {
    /// New, unlocked.
    pub const fn new() -> Self {
        SpinLock {
            locked: AtomicBool::new(false),
        }
    }

    /// Acquire, spinning. Async-signal-safe provided the lock is never held
    /// across a point where the *same KLT* can re-enter (the runtime's
    /// preempt-disable discipline guarantees this).
    #[inline]
    // sigsafe
    pub fn lock(&self) {
        loop {
            if !self.locked.swap(true, Ordering::Acquire) {
                return;
            }
            // ordering-ok: spin-wait peek; the Acquire swap above revalidates before entry
            while self.locked.load(Ordering::Relaxed) {
                core::hint::spin_loop();
            }
        }
    }

    /// Try to acquire without spinning.
    #[inline]
    // sigsafe
    pub fn try_lock(&self) -> bool {
        !self.locked.swap(true, Ordering::Acquire)
    }

    /// Release.
    #[inline]
    // sigsafe
    pub fn unlock(&self) {
        self.locked.store(false, Ordering::Release);
    }

    /// Run `f` under the lock.
    #[inline]
    // sigsafe
    pub fn with<R>(&self, f: impl FnOnce() -> R) -> R {
        self.lock();
        let r = f();
        self.unlock();
        r
    }
}

/// One ring buffer generation of the deque. Slots hold raw `Arc<Ult>`
/// pointers (`Arc::into_raw`); the logical index `i` lives in slot
/// `i & mask`, so growth (which copies the live window by logical index)
/// leaves every index's value identical in old and new generations — a
/// stealer that read a stale generation still reads the correct element,
/// and its top-CAS validates the claim.
struct Buffer {
    // ordering: relaxed slot contents are published by bottom/top/buf, never by the slot atomic itself
    slots: Box<[AtomicPtr<Ult>]>,
    mask: usize,
    /// Intrusive chain of retired generations (kept alive for stealers
    /// holding stale pointers; freed when the pool drops).
    // ordering: relaxed intrusive link written while the node is private; the retired-head CAS publishes it
    retired_next: AtomicPtr<Buffer>,
}

impl Buffer {
    /// Allocate a generation with `cap` (power of two) slots, leaked to a
    /// raw pointer the pool manages manually.
    fn alloc(cap: usize) -> *mut Buffer {
        debug_assert!(cap.is_power_of_two());
        Box::into_raw(Box::new(Buffer {
            slots: (0..cap)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
            mask: cap - 1,
            retired_next: AtomicPtr::new(std::ptr::null_mut()),
        }))
    }

    /// Slot count of this generation.
    #[inline]
    // sigsafe
    fn cap(&self) -> usize {
        self.mask + 1
    }

    /// Read the raw pointer at logical index `i`.
    #[inline]
    // sigsafe
    fn read(&self, i: isize) -> *mut Ult {
        self.slots[(i as usize) & self.mask].load(Ordering::Relaxed)
    }

    /// Write the raw pointer at logical index `i`.
    #[inline]
    // sigsafe
    fn write(&self, i: isize, p: *mut Ult) {
        self.slots[(i as usize) & self.mask].store(p, Ordering::Relaxed);
    }
}

/// A lock-free ready-ULT pool: Chase–Lev deque + intrusive remote inbox.
///
/// See the module docs for the ownership discipline and ordering argument.
pub struct ThreadPool {
    /// Steal end (oldest element). Advanced by CAS from any thread.
    // ordering: acqrel claim CAS is SeqCst (Le et al. Chase-Lev protocol)
    top: CacheAligned<AtomicIsize>,
    /// Owner end (next free slot). Written only by the owner.
    // ordering: acqrel release publish in push; owner-private accesses relaxed
    bottom: CacheAligned<AtomicIsize>,
    /// Current ring generation.
    buf: AtomicPtr<Buffer>, // ordering: acqrel release publish after the live-window copy
    /// Staged larger generation, installed by [`reserve`](Self::reserve) in
    /// spawn context and swapped in — allocation-free — by the owner when a
    /// push finds the ring full.
    pending: AtomicPtr<Buffer>, // ordering: acqrel
    /// Retired generations (intrusive list through `Buffer::retired_next`).
    retired: AtomicPtr<Buffer>, // ordering: acqrel release CAS publishes retired nodes
    /// Largest capacity ever staged or installed (monotonic; `reserve`
    /// early-exits against it).
    reserved: AtomicUsize, // ordering: acqrel
    /// Remote-push inbox head (intrusive Treiber stack through
    /// `Ult::pool_next`, newest first).
    // ordering: acqrel release CAS publishes the pushed node, acquire swap takes the chain
    inbox_head: CacheAligned<AtomicPtr<Ult>>,
    /// Approximate inbox population. Never understates while items exist:
    /// producers increment before linking, consumers decrement after the
    /// items are visible elsewhere (or handed out).
    inbox_count: AtomicUsize, // ordering: acqrel
    /// Approximate count of queued `SchedClass::Latency` ULTs anywhere in
    /// this pool (deque + inbox). Same discipline as `inbox_count`:
    /// producers increment before linking, consumers decrement after the
    /// item is handed out — so it never understates while latency work is
    /// queued. Drives the adaptive quantum and class-aware victim
    /// selection.
    lat_count: AtomicUsize, // ordering: acqrel
}

// SAFETY: slots hold raw pointers managed under the owner/stealer protocol
// above; all shared mutation is through atomics.
unsafe impl Send for ThreadPool {}
unsafe impl Sync for ThreadPool {}

impl ThreadPool {
    /// Create a pool with at least `capacity` slots pre-allocated.
    pub fn with_capacity(capacity: usize) -> ThreadPool {
        let cap = capacity.max(1).next_power_of_two();
        ThreadPool {
            top: CacheAligned::new(AtomicIsize::new(0)),
            bottom: CacheAligned::new(AtomicIsize::new(0)),
            buf: AtomicPtr::new(Buffer::alloc(cap)),
            pending: AtomicPtr::new(std::ptr::null_mut()),
            retired: AtomicPtr::new(std::ptr::null_mut()),
            reserved: AtomicUsize::new(cap),
            inbox_head: CacheAligned::new(AtomicPtr::new(std::ptr::null_mut())),
            inbox_count: AtomicUsize::new(0),
            lat_count: AtomicUsize::new(0),
        }
    }

    /// Ensure at least `capacity` total slots exist or are staged. **Not**
    /// async-signal-safe (allocates); called from spawn paths only. Safe to
    /// call concurrently from any number of threads.
    ///
    /// The allocation happens entirely outside any lock or owner-critical
    /// section: a fresh buffer is built here and CAS-published into the
    /// `pending` slot, where the owner picks it up without allocating.
    ///
    /// Reclamation rule (load-bearing): once a buffer pointer has been
    /// published in `pending`, it is **never freed before the pool drops** —
    /// the owner that swaps it out either installs it as `buf` or retires
    /// it, and a `reserve` that displaces it via CAS retires it too. Racing
    /// `reserve` callers may therefore dereference a pointer they loaded
    /// from `pending` even after it was displaced.
    pub fn reserve(&self, capacity: usize) {
        if self.reserved.load(Ordering::Acquire) >= capacity {
            return;
        }
        let cap = capacity.next_power_of_two();
        let fresh = Buffer::alloc(cap);
        loop {
            let cur = self.pending.load(Ordering::Acquire);
            let cur_cap = if cur.is_null() {
                0
            } else {
                // SAFETY: published `pending` entries stay allocated until
                // the pool drops (see the reclamation rule above), so `cur`
                // is alive here even if it was concurrently displaced.
                unsafe { (*cur).cap() }
            };
            if cur_cap >= cap {
                // Someone staged an equal/larger buffer concurrently.
                // SAFETY: `fresh` is ours and was never published.
                drop(unsafe { Box::from_raw(fresh) });
                break;
            }
            if self
                .pending
                .compare_exchange(cur, fresh, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                if !cur.is_null() {
                    // We displaced a smaller staged buffer. Another
                    // `reserve` racing this CAS may still hold (and
                    // dereference) `cur`, so freeing it here would be a
                    // use-after-free — retire it instead; it is reclaimed
                    // at pool drop.
                    self.retire(cur);
                }
                break;
            }
        }
        self.reserved.fetch_max(cap, Ordering::AcqRel);
    }

    /// Push to the owner (bottom) end. Async-signal-safe given a prior
    /// [`reserve`](Self::reserve): no lock, no CAS, no allocation — panics
    /// (rather than allocating) if the ring is full and nothing was staged.
    ///
    /// Owner operation: see the module docs for the discipline.
    // sigsafe
    pub fn push(&self, t: Arc<Ult>) {
        debug_assert!(
            !t.in_pool.swap(true, Ordering::AcqRel),
            "ULT {} double-enqueued (push)",
            t.id
        );
        if t.class == SchedClass::Latency {
            // Count before linking (see `lat_count`).
            self.lat_count.fetch_add(1, Ordering::Release);
        }
        let p = Arc::into_raw(t) as *mut Ult;
        self.push_raw_bottom(p);
    }

    /// Bottom-push a raw descriptor pointer (owner only).
    // sigsafe
    fn push_raw_bottom(&self, p: *mut Ult) {
        // ordering-ok: owner-exclusive; only the owner writes bottom
        let b = self.bottom.0.load(Ordering::Relaxed);
        let t = self.top.0.load(Ordering::Acquire);
        // ordering-ok: owner-exclusive; only the owner replaces buf
        let mut buf = self.buf.load(Ordering::Relaxed);
        // SAFETY: only the owner replaces `buf`, and that is us.
        if b - t >= unsafe { (*buf).cap() } as isize {
            buf = self.grow_owner(b, t, buf, false);
        }
        // SAFETY: `buf` is the current generation, exclusively grown by us.
        unsafe { (*buf).write(b, p) };
        // Publish the slot write before the new bottom (pairs with the
        // Acquire bottom load in `take_top`).
        self.bottom.0.store(b + 1, Ordering::Release);
    }

    /// Swap in a larger ring generation. With `may_alloc` false (handler
    /// path) only the staged `pending` buffer may be used; with it true
    /// (owner drain/pop context) a missing or undersized staging buffer is
    /// replaced by a direct allocation. Returns the new current generation.
    // sigsafe
    fn grow_owner(&self, b: isize, t: isize, old: *mut Buffer, may_alloc: bool) -> *mut Buffer {
        // SAFETY: `old` is the current generation (owner-exclusive).
        let old_cap = unsafe { (*old).cap() };
        let mut new = self.pending.swap(std::ptr::null_mut(), Ordering::AcqRel);
        // SAFETY: a non-null swapped `pending` is exclusively ours.
        if !new.is_null() && unsafe { (*new).cap() } <= old_cap {
            // Stale staging from before an allocating growth: retire it
            // (freeing inside a possible handler frame is not
            // async-signal-safe) and fall through as if absent.
            self.retire(new);
            new = std::ptr::null_mut();
        }
        if new.is_null() {
            if may_alloc {
                // sigsafe-allow: may_alloc is true only on the pop/drain owner path, never in a handler frame
                new = Buffer::alloc((old_cap * 2).max(2));
            } else {
                // sigsafe-allow: capacity invariant; violation means reserve() was bypassed and we must abort
                panic!("ThreadPool capacity exhausted ({old_cap}) — reserve() invariant violated");
            }
        }
        // Copy the live window by logical index (see `Buffer` docs).
        let mut i = t;
        while i < b {
            // SAFETY: old is live; new is exclusively ours until published.
            unsafe { (*new).write(i, (*old).read(i)) };
            i += 1;
        }
        self.retire(old);
        // Publish after the copy (pairs with the Acquire buf load in
        // `take_top`).
        self.buf.store(new, Ordering::Release);
        // SAFETY: just published; still valid.
        self.reserved
            .fetch_max(unsafe { (*new).cap() }, Ordering::AcqRel);
        new
    }

    /// Park a replaced generation on the retired list (freed at drop —
    /// stealers and racing `reserve` callers may still hold pointers into
    /// it). Thread-safe: the owner retires displaced ring generations while
    /// `reserve` callers concurrently retire displaced staged buffers, so
    /// the list is CAS-linked.
    // sigsafe
    fn retire(&self, buf: *mut Buffer) {
        loop {
            // ordering-ok: head is revalidated by the release CAS; the node stays private until it succeeds
            let head = self.retired.load(Ordering::Relaxed);
            // SAFETY: `buf` is exclusively ours until the CAS publishes it.
            unsafe { (*buf).retired_next.store(head, Ordering::Relaxed) };
            if self
                .retired
                .compare_exchange_weak(head, buf, Ordering::Release, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
            core::hint::spin_loop();
        }
    }

    /// Push from a non-owner thread: a single CAS onto the intrusive inbox.
    /// Async-signal-safe and allocation-free from any thread.
    // sigsafe
    pub fn push_remote(&self, t: Arc<Ult>) {
        debug_assert!(
            !t.in_pool.swap(true, Ordering::AcqRel),
            "ULT {} double-enqueued (push_remote)",
            t.id
        );
        if t.class == SchedClass::Latency {
            // Count before linking (see `lat_count`).
            self.lat_count.fetch_add(1, Ordering::Release);
        }
        let p = Arc::into_raw(t) as *mut Ult;
        // Count first so `len` never understates a linked item.
        self.inbox_count.fetch_add(1, Ordering::Release);
        self.inbox_push_raw(p);
    }

    /// Link a raw descriptor onto the inbox head (any thread).
    // sigsafe
    fn inbox_push_raw(&self, p: *mut Ult) {
        loop {
            // ordering-ok: head is revalidated by the release CAS below
            let h = self.inbox_head.0.load(Ordering::Relaxed);
            // SAFETY: `p` is unpublished until the CAS succeeds.
            unsafe { (*p).pool_next.store(h, Ordering::Relaxed) };
            if self
                .inbox_head
                .0
                .compare_exchange_weak(h, p, Ordering::Release, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
            core::hint::spin_loop();
        }
    }

    /// Move everything in the inbox into the deque, oldest first (owner
    /// only; may allocate to grow the ring, so **not** handler-safe — the
    /// handler only ever pushes).
    fn drain_inbox(&self) {
        if self.inbox_head.0.load(Ordering::Acquire).is_null() {
            return;
        }
        let mut head = self
            .inbox_head
            .0
            .swap(std::ptr::null_mut(), Ordering::AcqRel);
        // Reverse the newest-first chain to oldest-first.
        let mut rev: *mut Ult = std::ptr::null_mut();
        let mut n = 0usize;
        while !head.is_null() {
            // SAFETY: list nodes are live Arcs we exclusively unlinked.
            let next = unsafe { (*head).pool_next.load(Ordering::Relaxed) };
            // SAFETY: as above.
            unsafe { (*head).pool_next.store(rev, Ordering::Relaxed) };
            rev = head;
            head = next;
            n += 1;
        }
        while !rev.is_null() {
            // SAFETY: as above.
            let next = unsafe { (*rev).pool_next.load(Ordering::Relaxed) };
            // ordering-ok: owner-exclusive; only the owner writes bottom
            let b = self.bottom.0.load(Ordering::Relaxed);
            let t = self.top.0.load(Ordering::Acquire);
            // ordering-ok: owner-exclusive; only the owner replaces buf
            let buf = self.buf.load(Ordering::Relaxed);
            // SAFETY: owner-exclusive current generation.
            if b - t >= unsafe { (*buf).cap() } as isize {
                self.grow_owner(b, t, buf, true);
            }
            self.push_raw_bottom(rev);
            rev = next;
        }
        // Decrement only now: until the deque pushes above were done, the
        // inbox share of `len` covered the in-flight items.
        self.inbox_count.fetch_sub(n, Ordering::Release);
    }

    /// Take the oldest inbox item `want` accepts (any thread: the steal
    /// path, used when the owner is busy or — under the Packing scheduler —
    /// suspended, and the latency preference). Every other item is
    /// relinked, preserving the relative order.
    fn inbox_take(&self, want: impl Fn(&Ult) -> bool) -> Option<Arc<Ult>> {
        if self.inbox_head.0.load(Ordering::Acquire).is_null() {
            return None;
        }
        let mut head = self
            .inbox_head
            .0
            .swap(std::ptr::null_mut(), Ordering::AcqRel);
        // Reverse to oldest-first.
        let mut rev: *mut Ult = std::ptr::null_mut();
        while !head.is_null() {
            // SAFETY: exclusively unlinked chain of live Arcs.
            let next = unsafe { (*head).pool_next.load(Ordering::Relaxed) };
            // SAFETY: as above.
            unsafe { (*head).pool_next.store(rev, Ordering::Relaxed) };
            rev = head;
            head = next;
        }
        // Walk oldest-first: keep the first wanted node, relink the rest in
        // order (so the head ends newest-first again; concurrent producers
        // interleave harmlessly).
        let mut taken: *mut Ult = std::ptr::null_mut();
        let mut cur = rev;
        while !cur.is_null() {
            // SAFETY: as above.
            let next = unsafe { (*cur).pool_next.load(Ordering::Relaxed) };
            // SAFETY: as above; `want` reads fields that are immutable while
            // the descriptor is queued.
            if taken.is_null() && want(unsafe { &*cur }) {
                taken = cur;
            } else {
                self.inbox_push_raw(cur);
            }
            cur = next;
        }
        let taken = std::ptr::NonNull::new(taken)?;
        self.inbox_count.fetch_sub(1, Ordering::Release);
        // SAFETY: `taken` came from `Arc::into_raw` in a push.
        let t = unsafe { Arc::from_raw(taken.as_ptr() as *const Ult) };
        self.note_taken(&t);
        t.in_pool.store(false, Ordering::Release);
        Some(t)
    }

    /// Balance `lat_count` after handing out `t` (see the field docs).
    #[inline]
    fn note_taken(&self, t: &Ult) {
        if t.class == SchedClass::Latency {
            self.lat_count.fetch_sub(1, Ordering::Release);
        }
    }

    /// Whether any latency-class ULT is (approximately) queued here. May
    /// transiently overstate around a concurrent take, never understates
    /// while a latency item is linked.
    #[inline]
    // sigsafe
    pub fn has_latency(&self) -> bool {
        self.lat_count.load(Ordering::Acquire) > 0
    }

    /// Take the oldest latency-class ULT from the remote inbox, relinking
    /// everything else in order (any thread) — the class-aware dispatch
    /// preference: latency arrivals jump the inbox, but never reorder work
    /// already in the deque. Returns `None` when the inbox holds no latency
    /// item (e.g. the counted item sits in the deque or was claimed).
    pub fn take_latency_inbox(&self) -> Option<Arc<Ult>> {
        if self.lat_count.load(Ordering::Acquire) == 0 {
            return None;
        }
        self.inbox_take(|u| u.class == SchedClass::Latency)
    }

    /// Claim the top (oldest) element: the FIFO pop and the steal share
    /// this CAS. Lock-free: a failed CAS means another claimant won.
    fn take_top(&self) -> Option<Arc<Ult>> {
        loop {
            let t = self.top.0.load(Ordering::Acquire);
            std::sync::atomic::fence(Ordering::SeqCst);
            let b = self.bottom.0.load(Ordering::Acquire);
            if t >= b {
                return None;
            }
            let buf = self.buf.load(Ordering::Acquire);
            // SAFETY: `buf` is the current or a retired generation; both
            // stay allocated until the pool drops, and logical index `t`
            // holds the same value in every generation containing it.
            let p = unsafe { (*buf).read(t) };
            if self
                .top
                .0
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                // SAFETY: the CAS makes us the unique claimant of index
                // `t`; `p` came from `Arc::into_raw` in a push.
                let ult = unsafe { Arc::from_raw(p as *const Ult) };
                self.note_taken(&ult);
                ult.in_pool.store(false, Ordering::Release);
                return Some(ult);
            }
            core::hint::spin_loop();
        }
    }

    /// Pop the bottom (newest) element — the LIFO locality pop of the
    /// priority scheduler's analysis queue (owner only). CAS-free except
    /// when racing a stealer for the last element.
    fn take_bottom(&self) -> Option<Arc<Ult>> {
        // ordering-ok: owner-exclusive read; the SeqCst fence below orders the reservation (Le et al. take)
        let b = self.bottom.0.load(Ordering::Relaxed) - 1;
        let buf = self.buf.load(Ordering::Relaxed);
        self.bottom.0.store(b, Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::SeqCst);
        let t = self.top.0.load(Ordering::Relaxed);
        if t > b {
            // Empty: undo the reservation.
            // ordering-ok: owner-exclusive undo (Le et al.); stealers synchronize via top only
            self.bottom.0.store(b + 1, Ordering::Relaxed);
            return None;
        }
        // SAFETY: owner-exclusive current generation; index b is in the
        // live window we just reserved.
        let p = unsafe { (*buf).read(b) };
        if t == b {
            // Last element: race stealers for it via the top CAS.
            let won = self
                .top
                .0
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
            // ordering-ok: owner-exclusive restore (Le et al.); the claim itself is the SeqCst top CAS
            self.bottom.0.store(b + 1, Ordering::Relaxed);
            if !won {
                return None;
            }
        }
        // SAFETY: unique claim (either b > t, unreachable by stealers, or
        // the CAS above); `p` came from `Arc::into_raw` in a push.
        let ult = unsafe { Arc::from_raw(p as *const Ult) };
        self.note_taken(&ult);
        ult.in_pool.store(false, Ordering::Release);
        Some(ult)
    }

    /// Pop in FIFO order wrt [`push`](Self::push) (owner only): drains the
    /// remote inbox into the deque, then claims the oldest element.
    pub fn pop(&self) -> Option<Arc<Ult>> {
        self.drain_inbox();
        let t = self.take_top();
        if let Some(ref t) = t {
            crate::debug_registry::event(crate::debug_registry::ev::POP, t.id, 0);
        }
        t
    }

    /// Pop in LIFO order wrt [`push`](Self::push) (owner only): the
    /// locality-preserving pop of the priority scheduler (paper §4.3).
    pub fn pop_lifo(&self) -> Option<Arc<Ult>> {
        self.drain_inbox();
        let t = self.take_bottom();
        if let Some(ref t) = t {
            crate::debug_registry::event(crate::debug_registry::ev::POP, t.id, 0);
        }
        t
    }

    /// Steal the oldest element (any thread): the deque top first, then the
    /// remote inbox, so queued work is never stranded behind a busy or
    /// suspended owner.
    pub fn steal(&self) -> Option<Arc<Ult>> {
        self.take_top().or_else(|| self.inbox_take(|_| true))
    }

    /// Approximate length (exact between operations; may transiently
    /// overstate during a drain, never understates linked items).
    pub fn len(&self) -> usize {
        let b = self.bottom.0.load(Ordering::Acquire);
        let t = self.top.0.load(Ordering::Acquire);
        let deque = (b - t).max(0) as usize;
        deque + self.inbox_count.load(Ordering::Acquire)
    }

    /// Whether the pool is (approximately) empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Release every queued descriptor (deque + inbox)…
        while self.steal().is_some() {}
        // …then free all ring generations: current, staged, retired.
        // SAFETY: drop has exclusive access; no stealer can be live.
        unsafe {
            // ordering-ok: &mut self at drop; no concurrent access remains
            drop(Box::from_raw(self.buf.load(Ordering::Relaxed)));
            // ordering-ok: &mut self at drop; no concurrent access remains
            let pending = self.pending.load(Ordering::Relaxed);
            if !pending.is_null() {
                drop(Box::from_raw(pending));
            }
            // ordering-ok: &mut self at drop; no concurrent access remains
            let mut r = self.retired.load(Ordering::Relaxed);
            while !r.is_null() {
                let next = (*r).retired_next.load(Ordering::Relaxed);
                drop(Box::from_raw(r));
                r = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn mk(id: u64) -> Arc<Ult> {
        Ult::test_ult(id)
    }

    fn mk_latency(id: u64) -> Arc<Ult> {
        Ult::unscheduled(id, &crate::SpawnAttrs::new().class(SchedClass::Latency), 0)
    }

    #[test]
    fn latency_inbox_preference() {
        let p = ThreadPool::with_capacity(8);
        assert!(!p.has_latency());
        p.push_remote(mk(1));
        p.push_remote(mk_latency(2));
        p.push_remote(mk(3));
        assert!(p.has_latency());
        // The latency item jumps the inbox…
        let t = p.take_latency_inbox().unwrap();
        assert_eq!(t.id, 2);
        assert!(!p.has_latency());
        // …while the others keep their relative order.
        assert_eq!(p.pop().unwrap().id, 1);
        assert_eq!(p.pop().unwrap().id, 3);
        assert!(p.take_latency_inbox().is_none());
    }

    #[test]
    fn latency_count_tracks_deque_and_inbox() {
        let p = ThreadPool::with_capacity(8);
        p.push(mk_latency(1));
        assert!(p.has_latency());
        // In the deque, not the inbox: no preference take possible…
        assert!(p.take_latency_inbox().is_none());
        assert!(p.has_latency());
        // …but a plain pop balances the count.
        assert_eq!(p.pop().unwrap().id, 1);
        assert!(!p.has_latency());
        // Steals balance it too.
        p.push_remote(mk_latency(2));
        assert_eq!(p.steal().unwrap().id, 2);
        assert!(!p.has_latency());
    }

    #[test]
    fn fifo_order() {
        let p = ThreadPool::with_capacity(8);
        for i in 0..5 {
            p.push(mk(i));
        }
        for i in 0..5 {
            assert_eq!(p.pop().unwrap().id, i);
        }
        assert!(p.pop().is_none());
    }

    #[test]
    fn lifo_pop_takes_newest() {
        let p = ThreadPool::with_capacity(8);
        for i in 0..5 {
            p.push(mk(i));
        }
        for i in (0..5).rev() {
            assert_eq!(p.pop_lifo().unwrap().id, i);
        }
        assert!(p.pop_lifo().is_none());
    }

    #[test]
    fn steal_takes_oldest() {
        let p = ThreadPool::with_capacity(8);
        for i in 0..4 {
            p.push(mk(i));
        }
        assert_eq!(p.steal().unwrap().id, 0);
        assert_eq!(p.pop().unwrap().id, 1);
        assert_eq!(p.pop_lifo().unwrap().id, 3);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn remote_pushes_merge_fifo_behind_local_work() {
        let p = ThreadPool::with_capacity(8);
        p.push(mk(1));
        p.push_remote(mk(10));
        p.push_remote(mk(11));
        // Owner pop drains the inbox (oldest first) behind the local item.
        assert_eq!(p.pop().unwrap().id, 1);
        assert_eq!(p.pop().unwrap().id, 10);
        assert_eq!(p.pop().unwrap().id, 11);
        assert!(p.pop().is_none());
    }

    #[test]
    fn steal_reaches_inbox_without_owner() {
        let p = ThreadPool::with_capacity(8);
        p.push_remote(mk(10));
        p.push_remote(mk(11));
        p.push_remote(mk(12));
        assert_eq!(p.len(), 3);
        // Thieves get the oldest first, preserving order, no owner needed.
        assert_eq!(p.steal().unwrap().id, 10);
        assert_eq!(p.steal().unwrap().id, 11);
        assert_eq!(p.steal().unwrap().id, 12);
        assert!(p.steal().is_none());
    }

    #[test]
    fn len_tracks_operations() {
        let p = ThreadPool::with_capacity(4);
        assert!(p.is_empty());
        p.push(mk(1));
        assert_eq!(p.len(), 1);
        p.push_remote(mk(2));
        assert_eq!(p.len(), 2);
        p.pop();
        assert_eq!(p.len(), 1);
        p.steal();
        assert!(p.is_empty());
    }

    #[test]
    fn reserve_grows() {
        let p = ThreadPool::with_capacity(2);
        p.reserve(100);
        for i in 0..100 {
            p.push(mk(i));
        }
        assert_eq!(p.len(), 100);
        for i in 0..100 {
            assert_eq!(p.pop().unwrap().id, i);
        }
    }

    #[test]
    fn growth_preserves_order_with_concurrent_window() {
        // Interleave pushes and pops so the live window straddles the wrap
        // point when growth kicks in.
        let p = ThreadPool::with_capacity(4);
        for i in 0..3 {
            p.push(mk(i));
        }
        assert_eq!(p.pop().unwrap().id, 0);
        assert_eq!(p.pop().unwrap().id, 1);
        p.reserve(64);
        for i in 3..40 {
            p.push(mk(i));
        }
        for i in 2..40 {
            assert_eq!(p.pop().unwrap().id, i);
        }
    }

    #[test]
    #[should_panic(expected = "capacity exhausted")]
    fn push_past_capacity_panics() {
        let p = ThreadPool::with_capacity(1);
        let mut i = 0;
        loop {
            p.push(mk(i));
            i += 1;
            assert!(i < 10_000, "capacity never exhausted?");
        }
    }

    #[test]
    fn spinlock_mutual_exclusion() {
        struct Shared(SpinLock, std::cell::UnsafeCell<u64>);
        // SAFETY: the cell is only touched under the spinlock.
        unsafe impl Send for Shared {}
        unsafe impl Sync for Shared {}
        let shared = Arc::new(Shared(SpinLock::new(), std::cell::UnsafeCell::new(0u64)));
        let mut handles = vec![];
        for _ in 0..4 {
            let s = shared.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    s.0.with(|| unsafe { *s.1.get() += 1 });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(unsafe { *shared.1.get() }, 40_000);
    }

    #[test]
    fn concurrent_reserve_races_are_safe() {
        // Regression test for a use-after-free: two reserve() callers could
        // load the same staged `pending` buffer, the CAS winner freed it,
        // and the loser dereferenced it on its retry. Displaced staged
        // buffers are now retired (kept alive until drop) instead of freed.
        for _ in 0..20 {
            let p = Arc::new(ThreadPool::with_capacity(2));
            let go = Arc::new(AtomicUsize::new(0));
            let mut handles = vec![];
            for t in 0..4 {
                let p = p.clone();
                let go = go.clone();
                handles.push(std::thread::spawn(move || {
                    while go.load(Ordering::Acquire) == 0 {
                        std::hint::spin_loop();
                    }
                    // Escalating sizes from racing threads force repeated
                    // displacement of smaller staged buffers.
                    for i in 0..12 {
                        p.reserve(1 << ((i + t) % 12));
                    }
                }));
            }
            go.store(1, Ordering::Release);
            // Concurrent owner traffic; bounded window (never outgrows the
            // initial ring, so no staged capacity is required mid-race).
            for i in 0..512 {
                p.push(mk(i));
                p.pop();
            }
            for h in handles {
                h.join().unwrap();
            }
            // Growth now consumes a surviving staged buffer via
            // grow_owner's pending swap.
            for i in 0..100 {
                p.push(mk(i));
            }
            for i in 0..100 {
                assert_eq!(p.pop().unwrap().id, i);
            }
            assert!(p.is_empty());
        }
    }

    #[test]
    fn concurrent_remote_push_owner_pop_no_loss() {
        let p = Arc::new(ThreadPool::with_capacity(8192));
        let total = Arc::new(AtomicUsize::new(0));
        let mut handles = vec![];
        for t in 0..4 {
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    p.push_remote(mk((t * 1000 + i) as u64));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut popped = 0;
        while p.pop().is_some() {
            popped += 1;
        }
        total.fetch_add(popped, Ordering::SeqCst);
        assert_eq!(total.load(Ordering::SeqCst), 4000);
    }
}
