//! A ULT-blocking readers–writer lock (write-preferring).

use crate::waitqueue::WaitQueue;
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};

/// Reader–writer lock: many concurrent readers or one writer, blocking at
/// ULT granularity. Writers are preferred (new readers queue behind a
/// waiting writer) to avoid writer starvation under the read-mostly
/// workloads of the application kernels.
pub struct RwLock<T: ?Sized> {
    /// >0: reader count; 0: free; -1: write-locked.
    state: AtomicI64,
    /// Writers between a failed `try_write` and their acquisition. Each of
    /// them ends up holding the lock, and the release that follows wakes
    /// the readers that queued behind it.
    writers_waiting: AtomicUsize,
    // lock-order: 41 rwlock_readers
    readers: WaitQueue,
    // lock-order: 41 rwlock_writers
    writers: WaitQueue,
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
            writers_waiting: AtomicUsize::new(0),
            readers: WaitQueue::new(),
            writers: WaitQueue::new(),
            data: UnsafeCell::new(value),
        }
    }

    /// Consume, returning the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Write preference: no new reader while a writer waits.
    fn acquire_read(&self) -> bool {
        if self.writers_waiting.load(Ordering::Acquire) > 0 {
            return false;
        }
        let mut cur = self.state.load(Ordering::Acquire);
        while cur >= 0 {
            match self
                .state
                .compare_exchange(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return true,
                Err(c) => cur = c,
            }
        }
        false
    }

    fn acquire_write(&self) -> bool {
        self.state
            .compare_exchange(0, -1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    fn read_guard(&self) -> ReadGuard<'_, T> {
        ReadGuard {
            lock: self,
            _not_send: std::marker::PhantomData,
        }
    }

    fn write_guard(&self) -> WriteGuard<'_, T> {
        WriteGuard {
            lock: self,
            _not_send: std::marker::PhantomData,
        }
    }

    /// Try to take a read lock without blocking.
    pub fn try_read(&self) -> Option<ReadGuard<'_, T>> {
        self.acquire_read().then(|| self.read_guard())
    }

    /// Take a read lock, parking the ULT while a writer holds or waits.
    pub fn read(&self) -> ReadGuard<'_, T> {
        if !self.acquire_read() {
            self.readers.wait(None, || self.acquire_read());
        }
        self.read_guard()
    }

    /// Try to take the write lock without blocking.
    pub fn try_write(&self) -> Option<WriteGuard<'_, T>> {
        self.acquire_write().then(|| self.write_guard())
    }

    /// Take the write lock, parking the ULT while readers/writers hold it.
    pub fn write(&self) -> WriteGuard<'_, T> {
        if !self.acquire_write() {
            self.writers_waiting.fetch_add(1, Ordering::AcqRel);
            self.writers.wait(None, || self.acquire_write());
            self.writers_waiting.fetch_sub(1, Ordering::AcqRel);
        }
        self.write_guard()
    }

    /// Wake policy on release: prefer a queued writer, else all readers.
    fn release_wake(&self) {
        if !self.writers.wake_one() {
            self.readers.wake_all();
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
