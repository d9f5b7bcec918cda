//! A ULT-blocking mutual-exclusion lock.
//!
//! Contention parks the user-level thread (the worker keeps running other
//! ULTs). An uncontended `lock` is one CAS; `unlock` is a store plus a visit
//! to the (pinned, spin-locked) wait queue to look for a waiter, contended
//! or not. Called from outside the runtime the lock degrades to spinning
//! with OS yields.

use crate::waitqueue::WaitQueue;
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU32, Ordering};

/// A mutual-exclusion lock that blocks at ULT granularity.
pub struct Mutex<T: ?Sized> {
    /// 0 = unlocked, 1 = locked.
    state: AtomicU32,
    // lock-order: 40 mutex_waiters
    waiters: WaitQueue,
    data: UnsafeCell<T>,
}

// SAFETY: standard mutex reasoning — data is only reachable via the guard.
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

/// RAII guard; unlocks on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    pub(crate) lock: &'a Mutex<T>,
    /// Guards are !Send: unlock must happen on the locking ULT.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl<T> Mutex<T> {
    /// New unlocked mutex.
    pub fn new(value: T) -> Mutex<T> {
        Mutex {
            state: AtomicU32::new(0),
            waiters: WaitQueue::new(),
            data: UnsafeCell::new(value),
        }
    }

    /// Consume, returning the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    fn try_acquire(&self) -> bool {
        self.state
            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    fn guard(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            lock: self,
            _not_send: std::marker::PhantomData,
        }
    }

    /// Try to acquire without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        self.try_acquire().then(|| self.guard())
    }

    /// Acquire, blocking the ULT on contention. A woken waiter contends
    /// again (barging keeps the fast path fast).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if !self.try_acquire() {
            self.waiters.wait(None, || self.try_acquire());
        }
        self.guard()
    }

    /// Whether the mutex is currently locked (diagnostic).
    pub fn is_locked(&self) -> bool {
        self.state.load(Ordering::Acquire) == 1
    }

    fn unlock(&self) {
        self.state.store(0, Ordering::Release);
        self.waiters.wake_one();
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.unlock();
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: guard holds the lock.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: guard holds the lock exclusively.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_lock_unlock() {
        let m = Mutex::new(5);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 6);
        assert!(!m.is_locked());
    }

    #[test]
    fn try_lock_fails_when_held() {
        let m = Mutex::new(());
        let g = m.try_lock().unwrap();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn into_inner() {
        let m = Mutex::new(String::from("x"));
        assert_eq!(m.into_inner(), "x");
    }

    #[test]
    fn debug_formats() {
        let m = Mutex::new(3);
        assert!(format!("{m:?}").contains('3'));
        let _g = m.lock();
        assert!(format!("{m:?}").contains("locked"));
    }
}
