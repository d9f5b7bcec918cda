//! Per-worker I/O buffer recycler.
//!
//! Echo-style servers allocate one scratch buffer per request; at hundreds
//! of thousands of requests per second that is pure allocator traffic on
//! the hot path. [`IoBuf::acquire`] hands out fixed-size boxed buffers from
//! a **per-worker free list** (a `SpinLock`-guarded stack — uncontended in
//! steady state, because a worker recycles what it acquired), overflowing
//! into a bounded **global free list** when a buffer is dropped on a
//! different worker than it was acquired on. Only when both lists are
//! empty does an acquire touch the allocator (counted as a miss). Hits and
//! misses count in the acquiring rank's `ult_core::stats::RankCounters`.
//!
//! The free lists are leaf locks: nothing else is ever acquired while one
//! is held, and the per-worker and global lists are popped/pushed strictly
//! one at a time. Releases never allocate after a list's first use — the
//! backing `Vec` is reserved to its cap on first touch — so recycling from
//! a just-woken handler ULT costs two atomic ops and a memcpy-free push.

use crate::reactor::MAX_SHARDS;
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::Ordering;
use ult_core::pool::SpinLock;
use ult_core::stats::rank_counters;

/// Size of every pooled buffer. One TCP read's worth with headroom; echo
/// handlers slice it down to the bytes actually read.
pub const BUF_CAPACITY: usize = 16 * 1024;
/// Buffers cached per worker before releases spill to the global list.
const SHARD_FREE_CAP: usize = 32;
/// Buffers cached globally before releases fall through to the allocator.
const GLOBAL_FREE_CAP: usize = 256;

/// A spin-guarded stack of recycled buffers.
struct FreeList {
    // lock-order: 31 bufpool_free
    lock: SpinLock,
    /// Guarded by `lock`; reserved to `cap` on first push so steady-state
    /// recycling never allocates.
    bufs: UnsafeCell<Vec<Box<[u8]>>>,
}

// SAFETY: `bufs` is only touched between `lock.lock()`/`unlock()`.
unsafe impl Sync for FreeList {}

impl FreeList {
    const fn new() -> FreeList {
        FreeList {
            lock: SpinLock::new(),
            bufs: UnsafeCell::new(Vec::new()),
        }
    }

    fn pop(&self) -> Option<Box<[u8]>> {
        self.lock.lock();
        // SAFETY: exclusive access under the spin lock.
        let b = unsafe { (*self.bufs.get()).pop() };
        self.lock.unlock();
        b
    }

    /// Push `buf`, or hand it back if the list is at `cap`.
    fn push(&self, buf: Box<[u8]>, cap: usize) -> Option<Box<[u8]>> {
        self.lock.lock();
        // SAFETY: exclusive access under the spin lock.
        let v = unsafe { &mut *self.bufs.get() };
        let r = if v.len() < cap {
            if v.capacity() < cap {
                v.reserve_exact(cap - v.capacity());
            }
            v.push(buf);
            None
        } else {
            Some(buf)
        };
        self.lock.unlock();
        r
    }
}

static SHARD_FREE: [FreeList; MAX_SHARDS] = [const { FreeList::new() }; MAX_SHARDS];
static GLOBAL_FREE: FreeList = FreeList::new();

/// The calling worker's pool index (0 outside the runtime).
fn pool_idx() -> usize {
    ult_core::current_worker_rank().unwrap_or(0) % MAX_SHARDS
}

/// A pooled, fixed-size I/O buffer ([`BUF_CAPACITY`] bytes). Dereferences
/// to its full byte slice; dropping it recycles the allocation onto the
/// dropping worker's free list (overflow: global list, then the allocator).
pub struct IoBuf {
    data: Option<Box<[u8]>>,
}

impl IoBuf {
    /// Take a buffer from the current worker's free list, the global
    /// overflow list, or (counted as a miss) the allocator. Contents are
    /// whatever the previous user left — treat it as uninitialized scratch.
    pub fn acquire() -> IoBuf {
        let i = pool_idx();
        if let Some(b) = SHARD_FREE[i].pop().or_else(|| GLOBAL_FREE.pop()) {
            rank_counters(i)
                .io_bufpool_hits
                .fetch_add(1, Ordering::Relaxed);
            return IoBuf { data: Some(b) };
        }
        rank_counters(i)
            .io_bufpool_misses
            .fetch_add(1, Ordering::Relaxed);
        IoBuf {
            data: Some(vec![0u8; BUF_CAPACITY].into_boxed_slice()),
        }
    }
}

impl Deref for IoBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.data.as_ref().expect("IoBuf always holds its buffer")
    }
}

impl DerefMut for IoBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.data.as_mut().expect("IoBuf always holds its buffer")
    }
}

impl Drop for IoBuf {
    fn drop(&mut self) {
        let Some(buf) = self.data.take() else { return };
        if let Some(b) = SHARD_FREE[pool_idx()].push(buf, SHARD_FREE_CAP) {
            // Worker list full: spill to the global list; if that is full
            // too, fall through to the allocator.
            drop(GLOBAL_FREE.push(b, GLOBAL_FREE_CAP));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both tests use pool 0 (off-runtime); run together, one can take the
    /// buffer the other has just released.
    static POOL_0: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn acquire_release_recycles() {
        let _serial = POOL_0.lock().unwrap();
        let mut a = IoBuf::acquire();
        assert_eq!(a.len(), BUF_CAPACITY);
        a[0] = 0xAB;
        let ptr = a.as_ptr();
        drop(a);
        // Off-runtime both calls use pool 0, so the buffer comes back.
        let b = IoBuf::acquire();
        assert_eq!(b.as_ptr(), ptr);
        assert!(rank_counters(0).io_bufpool_hits.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn distinct_live_buffers() {
        let _serial = POOL_0.lock().unwrap();
        let a = IoBuf::acquire();
        let b = IoBuf::acquire();
        assert_ne!(a.as_ptr(), b.as_ptr());
    }
}
