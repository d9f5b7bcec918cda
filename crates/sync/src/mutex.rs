//! A ULT-blocking mutual-exclusion lock.
//!
//! Contention parks the user-level thread (the worker keeps running other
//! ULTs); uncontended lock/unlock is two atomic operations. Called from
//! outside the runtime the lock degrades to spinning with OS yields.

use crate::waitlist::{WaitList, WaitLock};
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU32, Ordering};

/// A mutual-exclusion lock that blocks at ULT granularity.
pub struct Mutex<T: ?Sized> {
    /// 0 = unlocked, 1 = locked.
    state: AtomicU32,
    /// Internal short lock protecting the waiter list.
    // lock-order: 40 mutex_waiters
    wait_lock: WaitLock,
    waiters: UnsafeCell<WaitList>,
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
            wait_lock: WaitLock::new(),
            waiters: UnsafeCell::new(WaitList::new()),
            data: UnsafeCell::new(value),
        }
    }

    /// Consume, returning the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Try to acquire without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        if self
            .state
            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            Some(MutexGuard {
                lock: self,
                _not_send: std::marker::PhantomData,
            })
        } else {
            None
        }
    }

    /// Acquire, blocking the ULT on contention.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        loop {
            if let Some(g) = self.try_lock() {
                return g;
            }
            if ult_core::in_ult() {
                // Park this ULT on the wait list, unless the lock was
                // released between our failed try and the registration
                // (`acquired` survives any KLT migration — it lives on the
                // ULT's own stack).
                let mut acquired = false;
                ult_core::block_current(|me| {
                    self.wait_lock.lock();
                    if self
                        .state
                        .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                        .is_ok()
                    {
                        self.wait_lock.unlock();
                        acquired = true;
                        return false; // got it after all — don't block
                    }
                    // SAFETY: under wait_lock.
                    unsafe { (*self.waiters.get()).push(me.clone()) };
                    self.wait_lock.unlock();
                    true
                });
                if acquired {
                    return MutexGuard {
                        lock: self,
                        _not_send: std::marker::PhantomData,
                    };
                }
                // Woken by an unlock: loop and contend again (barging
                // semantics keep the fast path fast).
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Whether the mutex is currently locked (diagnostic).
    pub fn is_locked(&self) -> bool {
        self.state.load(Ordering::Acquire) == 1
    }

    fn unlock_slow(&self) {
        self.state.store(0, Ordering::Release);
        // Wake one waiter, if any.
        self.wait_lock.lock();
        // SAFETY: under wait_lock.
        let next = unsafe { (*self.waiters.get()).pop() };
        self.wait_lock.unlock();
        if let Some(w) = next {
            w.wake();
        }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.unlock_slow();
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
