//! A ULT-aware MCS-style queue mutex.
//!
//! Classic MCS (Mellor-Crummey & Scott) gives each contender its own queue
//! node to spin on — no cache-line ping-pong on a shared word, FIFO
//! fairness, O(1) handoff. The ULT twist: a contender does not spin at all;
//! it **parks at once as a user-level thread** and the releaser's handoff
//! makes it ready again. A blocked locker therefore costs its worker
//! nothing — the worker keeps running other ULTs — which is exactly the
//! property plain spinning MCS forfeits under oversubscription (paper §2.1,
//! §4.1). Even a short spin loses: the holder and the next grantee are ULTs
//! too, and the worker a waiter spins on is one that could be running (or
//! stealing) them, so every spun pause lengthens the convoy it waits in.
//! Outside the runtime a waiter yields its OS thread instead — the policy
//! of every waiter in this crate.
//!
//! The releaser hands over its worker with the lock: a granted waiter that
//! had parked is passed to [`ult_core::yield_to`], which puts it in the
//! releaser's worker's run-next slot and yields, so the grantee runs next
//! on that worker and the releaser queues behind it (where an idle peer may
//! steal it). Handing the lock to a waiter that still has to find a worker
//! was a convoy: every acquisition waited a scheduling round for its
//! grantee. `yield_to` falls back to a plain wake-up that does not yield
//! when the releaser is not a ULT of the grantee's runtime, releases inside
//! its own pinned section, finds the slot taken, or would let a
//! low-priority grantee jump queued high-priority work. The slot belongs to
//! one worker and is only touched by that worker's scheduler or a ULT
//! pinned on it, so it needs no atomics; it is never visible to thieves
//! because the owner's very next pick empties it.
//!
//! The enqueue (allocate → tail swap → link) and the node's free run
//! pinned to the worker. A signal-yield ULT must not be preempted inside
//! `malloc`/`free` (paper §3.1.1), and a contender preempted between its
//! swap and its link would leave the releaser spinning for the link —
//! forever, if that releaser cannot be preempted and shares one worker with
//! it.
//!
//! Handoff protocol (model: `mcs_handoff_vs_park` / `mcs_release_vs_enqueue`
//! in `ult-model`):
//!
//! * A waiter publishes its `Arc<Ult>` into its node's `ult` slot
//!   (Release), **then** CASes `state` WAITING→PARKED (AcqRel). A failed
//!   CAS means the grant already landed — the waiter takes its Arc back and
//!   aborts the block.
//! * The releaser swaps `state` to GRANTED (AcqRel). Seeing PARKED, it
//!   loads the slot (Acquire) — the waiter's Release slot store is ordered
//!   before its PARKED CAS, so the slot is never empty — frees its own
//!   node, and yields to the ULT.
//!
//! Nodes are heap-allocated per acquisition (the guard, not the stack
//! frame, must own the node: the locking ULT may migrate workers, and the
//! releaser touches the *successor's* node after granting). The owner frees
//! its node after handoff; the successor never touches a predecessor node
//! after linking into it.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};
use std::sync::Arc;
use ult_core::thread::Ult;

/// Waiter has not been granted the lock and has not parked (yet).
const WAITING: u32 = 0;
/// The lock has been handed to this node's owner.
const GRANTED: u32 = 1;
/// The waiter parked as a ULT; a grant must wake it via the `ult` slot.
const PARKED: u32 = 2;

/// One queue node; exclusively owned by one acquisition.
struct QNode {
    /// WAITING → (PARKED →)? GRANTED; see the module docs for the races.
    // ordering: acqrel grant/park transitions order the ult-slot publication
    state: AtomicU32,
    /// The parked waiter's `Arc<Ult>` (raw), published before PARKED.
    // ordering: acqrel released before the PARKED CAS, acquired by the granter
    ult: AtomicPtr<Ult>,
    /// Successor link, published by the successor after its tail swap.
    // ordering: acqrel successor publishes itself; releaser acquires to hand off
    next: AtomicPtr<QNode>,
}

impl QNode {
    /// A fresh node, owned through the raw pointer until [`QNode::free`].
    /// Call it pinned (see the module docs).
    fn alloc() -> *mut QNode {
        Box::into_raw(Box::new(QNode {
            state: AtomicU32::new(WAITING),
            ult: AtomicPtr::new(ptr::null_mut()),
            next: AtomicPtr::new(ptr::null_mut()),
        }))
    }

    /// Free a node from [`QNode::alloc`], pinned for the `free`.
    ///
    /// # Safety
    /// `node` must be unreachable by every other thread.
    unsafe fn free(node: *mut QNode) {
        ult_core::preempt_disable();
        // SAFETY: caller contract. (`QNode` has no `Drop`: this only frees.)
        std::mem::drop(unsafe { Box::from_raw(node) });
        ult_core::preempt_enable();
    }
}

/// A FIFO queue mutex whose contended waiters suspend at ULT granularity.
pub struct McsMutex<T: ?Sized> {
    /// Queue tail: null = unlocked; otherwise the most recent contender.
    // ordering: acqrel tail swap serializes the acquisition order
    tail: AtomicPtr<QNode>,
    data: UnsafeCell<T>,
}

// SAFETY: standard mutex reasoning — data is only reachable via the guard.
unsafe impl<T: ?Sized + Send> Send for McsMutex<T> {}
unsafe impl<T: ?Sized + Send> Sync for McsMutex<T> {}

/// RAII guard for [`McsMutex`]; unlocks (hands off) on drop.
pub struct McsGuard<'a, T: ?Sized> {
    lock: &'a McsMutex<T>,
    /// This acquisition's queue node; freed on unlock.
    node: *mut QNode,
    /// Guards are !Send: unlock must happen on the locking ULT.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl<T> McsMutex<T> {
    /// New unlocked mutex.
    pub fn new(value: T) -> McsMutex<T> {
        McsMutex {
            tail: AtomicPtr::new(ptr::null_mut()),
            data: UnsafeCell::new(value),
        }
    }

    /// Consume, returning the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> McsMutex<T> {
    /// Try to acquire without queueing. Fails whenever the queue is
    /// non-empty (MCS has no barging — FIFO is the point).
    pub fn try_lock(&self) -> Option<McsGuard<'_, T>> {
        if self.is_locked() {
            return None;
        }
        ult_core::preempt_disable();
        let node = QNode::alloc();
        let won = self
            .tail
            .compare_exchange(ptr::null_mut(), node, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok();
        ult_core::preempt_enable();
        if !won {
            // SAFETY: the node was never published.
            unsafe { QNode::free(node) };
            return None;
        }
        Some(McsGuard {
            lock: self,
            node,
            _not_send: std::marker::PhantomData,
        })
    }

    /// Acquire, parking the ULT at once if the lock is taken. FIFO: waiters
    /// are granted the lock in arrival order.
    pub fn lock(&self) -> McsGuard<'_, T> {
        ult_core::preempt_disable();
        let node = QNode::alloc();
        let pred = self.tail.swap(node, Ordering::AcqRel);
        if !pred.is_null() {
            // SAFETY: a predecessor node stays alive until it grants us the
            // lock, and it cannot grant before we link into it.
            unsafe { (*pred).next.store(node, Ordering::Release) };
        }
        ult_core::preempt_enable();
        if !pred.is_null() {
            // SAFETY: `node` is ours until GRANTED.
            unsafe { wait_for_grant(node) };
        }
        McsGuard {
            lock: self,
            node,
            _not_send: std::marker::PhantomData,
        }
    }

    /// Whether the mutex is currently held or contended (diagnostic).
    pub fn is_locked(&self) -> bool {
        !self.tail.load(Ordering::Acquire).is_null()
    }
}

/// Suspend as a ULT (or OS-yield outside the runtime) until the releaser
/// grants the lock.
///
/// # Safety
/// `node` must be the caller's own live queue node.
unsafe fn wait_for_grant(node: *mut QNode) {
    // SAFETY: caller contract.
    let n = unsafe { &*node };
    while n.state.load(Ordering::Acquire) != GRANTED {
        if !ult_core::in_ult() {
            std::thread::yield_now();
            continue;
        }
        ult_core::block_current(|me| {
            // Publish the ULT before PARKED: the granter seeing PARKED
            // (AcqRel swap) must also see the Arc (model:
            // `mcs_handoff_vs_park`).
            let raw = Arc::into_raw(me.clone()) as *mut Ult;
            n.ult.store(raw, Ordering::Release);
            match n
                .state
                .compare_exchange(WAITING, PARKED, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    ult_core::stats::sync_counters()
                        .mcs_suspends
                        .fetch_add(1, Ordering::Relaxed);
                    true
                }
                Err(_) => {
                    // The grant landed between our check and the CAS:
                    // reclaim the published Arc and abort the block.
                    let raw = n.ult.swap(ptr::null_mut(), Ordering::AcqRel);
                    // SAFETY: the failed CAS means the granter saw WAITING
                    // and will never read the slot; the Arc is still ours.
                    drop(unsafe { Arc::from_raw(raw as *const Ult) });
                    false
                }
            }
        });
        // Woken or aborted: both happen only after the grant, which the
        // loop condition now sees.
    }
}

impl<T: ?Sized> McsGuard<'_, T> {
    /// Release: hand off to the successor if one is queued, else swing the
    /// tail back to null. Frees this acquisition's node either way. A
    /// successor that parked runs next on this worker.
    fn unlock(&mut self) {
        let node = self.node;
        // SAFETY: the node is ours until we grant a successor or unpublish.
        let n = unsafe { &*node };
        let mut next = n.next.load(Ordering::Acquire);
        if next.is_null() {
            if self
                .lock
                .tail
                .compare_exchange(node, ptr::null_mut(), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // No successor: the queue is empty again (model:
                // `mcs_release_vs_enqueue` — the CAS wins iff no contender
                // swapped the tail first).
                // SAFETY: unpublished; no other thread can reach the node.
                unsafe { QNode::free(node) };
                return;
            }
            // A contender swapped the tail but has not linked yet; its
            // `next` store is imminent (it links pinned, so it is running).
            loop {
                next = n.next.load(Ordering::Acquire);
                if !next.is_null() {
                    break;
                }
                core::hint::spin_loop();
            }
        }
        // Grant: flip the successor's state; if it parked, take its ULT.
        ult_core::stats::sync_counters()
            .mcs_handoffs
            .fetch_add(1, Ordering::Relaxed);
        // SAFETY: the successor's node stays alive until we grant it.
        let succ = unsafe { &*next };
        let parked = (succ.state.swap(GRANTED, Ordering::AcqRel) == PARKED).then(|| {
            let raw = succ.ult.swap(ptr::null_mut(), Ordering::AcqRel);
            // The slot cannot be empty: PARKED is only set after the
            // Release slot store (see module docs).
            debug_assert!(!raw.is_null());
            // SAFETY: the raw pointer came from Arc::into_raw in
            // wait_for_grant and ownership passes to us exactly once.
            unsafe { Arc::from_raw(raw as *const Ult) }
        });
        // SAFETY: the successor linked into our node before we granted it
        // and never touches it again; the node is exclusively ours to free.
        unsafe { QNode::free(node) };
        // Hand the worker over with the lock (see module docs).
        if let Some(t) = parked {
            ult_core::yield_to(&t);
        }
    }
}

impl<T: ?Sized> Drop for McsGuard<'_, T> {
    fn drop(&mut self) {
        self.unlock();
    }
}

impl<T: ?Sized> Deref for McsGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: guard holds the lock.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for McsGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: guard holds the lock exclusively.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: Default> Default for McsMutex<T> {
    fn default() -> Self {
        McsMutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for McsMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("McsMutex").field("data", &&*g).finish(),
            None => f.write_str("McsMutex { <locked> }"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_lock_unlock() {
        let m = McsMutex::new(5);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 6);
        assert!(!m.is_locked());
    }

    #[test]
    fn try_lock_fails_when_held() {
        let m = McsMutex::new(());
        let g = m.try_lock().unwrap();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn into_inner_and_default() {
        let m = McsMutex::new(String::from("x"));
        assert_eq!(m.into_inner(), "x");
        let d: McsMutex<u32> = McsMutex::default();
        assert_eq!(*d.lock(), 0);
    }

    #[test]
    fn debug_formats() {
        let m = McsMutex::new(3);
        assert!(format!("{m:?}").contains('3'));
        let _g = m.lock();
        assert!(format!("{m:?}").contains("locked"));
    }

    #[test]
    fn contended_counter_from_os_threads() {
        // Outside the runtime the waiters degrade to OS yields; mutual
        // exclusion and FIFO handoff must still hold.
        let m = std::sync::Arc::new(McsMutex::new(0u64));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        let mut g = m.lock();
                        let v = *g;
                        std::hint::black_box(v);
                        *g = v + 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*m.lock(), 4_000);
    }
}
