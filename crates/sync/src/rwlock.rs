//! A ULT-blocking readers–writer lock (write-preferring).

use crate::waitlist::{WaitList, WaitLock};
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicI64, Ordering};

/// Reader–writer lock: many concurrent readers or one writer, blocking at
/// ULT granularity. Writers are preferred (new readers queue behind a
/// waiting writer) to avoid writer starvation under the read-mostly
/// workloads of the application kernels.
pub struct RwLock<T: ?Sized> {
    /// >0: reader count; 0: free; -1: write-locked.
    state: AtomicI64,
    // lock-order: 41 rwlock_waiters
    lock: WaitLock,
    read_waiters: UnsafeCell<WaitList>,
    write_waiters: UnsafeCell<WaitList>,
    data: UnsafeCell<T>,
}

// SAFETY: standard rwlock reasoning; data reachable only through guards.
unsafe impl<T: ?Sized + Send> Send for RwLock<T> {}
unsafe impl<T: ?Sized + Send + Sync> Sync for RwLock<T> {}

/// Shared-access guard.
pub struct ReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Exclusive-access guard.
pub struct WriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl<T> RwLock<T> {
    /// New unlocked lock.
    pub fn new(value: T) -> RwLock<T> {
        RwLock {
            state: AtomicI64::new(0),
            lock: WaitLock::new(),
            read_waiters: UnsafeCell::new(WaitList::new()),
            write_waiters: UnsafeCell::new(WaitList::new()),
            data: UnsafeCell::new(value),
        }
    }

    /// Consume, returning the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    fn writer_waiting(&self) -> bool {
        self.lock.lock();
        // SAFETY: under lock.
        let w = unsafe { !(*self.write_waiters.get()).is_empty() };
        self.lock.unlock();
        w
    }

    /// Try to take a read lock without blocking.
    pub fn try_read(&self) -> Option<ReadGuard<'_, T>> {
        // Write preference: refuse if a writer is queued.
        if self.writer_waiting() {
            return None;
        }
        let mut cur = self.state.load(Ordering::Acquire);
        while cur >= 0 {
            match self
                .state
                .compare_exchange(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    return Some(ReadGuard {
                        lock: self,
                        _not_send: std::marker::PhantomData,
                    })
                }
                Err(c) => cur = c,
            }
        }
        None
    }

    /// Take a read lock, parking the ULT while a writer holds or waits.
    pub fn read(&self) -> ReadGuard<'_, T> {
        loop {
            if let Some(g) = self.try_read() {
                return g;
            }
            if ult_core::in_ult() {
                let mut acquired = false;
                ult_core::block_current(|me| {
                    self.lock.lock();
                    // Re-check under the registration lock.
                    // SAFETY: write_waiters is only accessed under self.lock, held here.
                    let writer_q = unsafe { !(*self.write_waiters.get()).is_empty() };
                    let cur = self.state.load(Ordering::Acquire);
                    if !writer_q
                        && cur >= 0
                        && self
                            .state
                            .compare_exchange(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
                            .is_ok()
                    {
                        self.lock.unlock();
                        acquired = true;
                        return false;
                    }
                    // SAFETY: under lock.
                    unsafe { (*self.read_waiters.get()).push(me.clone()) };
                    self.lock.unlock();
                    true
                });
                if acquired {
                    return ReadGuard {
                        lock: self,
                        _not_send: std::marker::PhantomData,
                    };
                }
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Try to take the write lock without blocking.
    pub fn try_write(&self) -> Option<WriteGuard<'_, T>> {
        if self
            .state
            .compare_exchange(0, -1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            Some(WriteGuard {
                lock: self,
                _not_send: std::marker::PhantomData,
            })
        } else {
            None
        }
    }

    /// Take the write lock, parking the ULT while readers/writers hold it.
    pub fn write(&self) -> WriteGuard<'_, T> {
        loop {
            if let Some(g) = self.try_write() {
                return g;
            }
            if ult_core::in_ult() {
                let mut acquired = false;
                ult_core::block_current(|me| {
                    self.lock.lock();
                    if self
                        .state
                        .compare_exchange(0, -1, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        self.lock.unlock();
                        acquired = true;
                        return false;
                    }
                    // SAFETY: under lock.
                    unsafe { (*self.write_waiters.get()).push(me.clone()) };
                    self.lock.unlock();
                    true
                });
                if acquired {
                    return WriteGuard {
                        lock: self,
                        _not_send: std::marker::PhantomData,
                    };
                }
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Wake policy on release: prefer a queued writer, else all readers.
    fn release_wake(&self) {
        self.lock.lock();
        // SAFETY: under lock.
        let writer = unsafe { (*self.write_waiters.get()).pop() };
        let readers = if writer.is_none() {
            unsafe { (*self.read_waiters.get()).drain() }
        } else {
            Vec::new()
        };
        self.lock.unlock();
        if let Some(wt) = writer {
            wt.wake();
        }
        for r in readers {
            r.wake();
        }
    }
}

impl<T: ?Sized> Drop for ReadGuard<'_, T> {
    fn drop(&mut self) {
        let prev = self.lock.state.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev >= 1);
        if prev == 1 {
            self.lock.release_wake();
        }
    }
}

impl<T: ?Sized> Drop for WriteGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.state.store(0, Ordering::Release);
        self.lock.release_wake();
    }
}

impl<T: ?Sized> Deref for ReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: read guard held.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> Deref for WriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: write guard held.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for WriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: exclusive write guard held.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiple_readers_coexist() {
        let l = RwLock::new(5);
        let r1 = l.read();
        let r2 = l.read();
        assert_eq!(*r1 + *r2, 10);
        assert!(l.try_write().is_none());
        drop(r1);
        assert!(l.try_write().is_none());
        drop(r2);
        assert!(l.try_write().is_some());
    }

    #[test]
    fn writer_excludes_readers() {
        let l = RwLock::new(0);
        let mut w = l.try_write().unwrap();
        *w = 7;
        assert!(l.try_read().is_none());
        drop(w);
        assert_eq!(*l.read(), 7);
    }

    #[test]
    fn into_inner_returns_value() {
        let l = RwLock::new(String::from("v"));
        *l.write() += "!";
        assert_eq!(l.into_inner(), "v!");
    }
}
