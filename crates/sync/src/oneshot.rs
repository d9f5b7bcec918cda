//! One-shot SPSC channel with both ULT-blocking and async receive.
//!
//! The rendezvous cell `ult-future` builds `JoinHandle` on: the producer
//! sends exactly one value, the consumer awaits it (`Receiver` implements
//! [`Future`]) or blocks for it (`recv`, which is `ult_io::block_on` of
//! the same future: it parks the ULT — or the plain OS thread outside the
//! runtime).
//!
//! The protocol is a four-state claim machine in the same family as
//! `ult_io::TimedWaiter`:
//!
//! ```text
//! EMPTY ──receiver CAS──▶ WAITING ──sender swap──▶ SENT / CLOSED
//!   │                        │ (sender takes + wakes the waiter)
//!   └──────sender swap──────▶ SENT / CLOSED (nobody to wake)
//! ```
//!
//! The receiver owns the waiter slot whenever the state is `EMPTY` (it
//! writes the slot *before* its `EMPTY → WAITING` CAS publishes it); the
//! sender owns it after a swap that returned `WAITING`. The state RMWs are
//! AcqRel, so slot and value publications ride the transitions — exactly
//! one side ever touches the slot at a time, and the value write in `send`
//! happens-before any read that observed `SENT`.

use std::cell::UnsafeCell;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

const EMPTY: u8 = 0;
const WAITING: u8 = 1;
const SENT: u8 = 2;
const CLOSED: u8 = 3;

/// The sender half was dropped without sending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oneshot sender dropped without sending")
    }
}

impl std::error::Error for RecvError {}

struct Inner<T> {
    /// The claim machine above; RMW transitions carry the publications.
    state: AtomicU8, // ordering: acqrel claim machine (see module docs)
    /// Written by the sender before its `SENT` swap, read after observing
    /// `SENT`.
    value: UnsafeCell<Option<T>>,
    /// The receiving task's waker. Owned by the receiver while `EMPTY`, by
    /// the sender after a swap that returned `WAITING`.
    waiter: UnsafeCell<Option<Waker>>,
}

// SAFETY: the cells are accessed under the ownership discipline described
// on the fields — the state machine's AcqRel transitions hand them off
// exclusively, so &Inner can cross threads.
unsafe impl<T: Send> Send for Inner<T> {}
// SAFETY: as above; no shared &-access to the cells ever happens.
unsafe impl<T: Send> Sync for Inner<T> {}

/// The producing half: consumes itself to [`Sender::send`] one value.
/// Dropping it unsent closes the channel and `recv` reports [`RecvError`].
pub struct Sender<T> {
    inner: Option<Arc<Inner<T>>>,
}

/// The consuming half: [`Receiver::recv`] blocks (ULT-parking), or
/// `.await` it — [`Receiver`] implements [`Future`].
pub struct Receiver<T> {
    inner: Arc<Inner<T>>,
}

/// A fresh one-shot channel.
pub fn oneshot<T: Send>() -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(Inner {
        state: AtomicU8::new(EMPTY),
        value: UnsafeCell::new(None),
        waiter: UnsafeCell::new(None),
    });
    (
        Sender {
            inner: Some(inner.clone()),
        },
        Receiver { inner },
    )
}

impl<T: Send> Sender<T> {
    /// Deliver the value and wake the receiver if it is already parked.
    /// Never blocks (a send is one store + one RMW) — safe from ULTs, pool
    /// KLTs and external threads alike.
    // blocking: never one UnsafeCell store plus an atomic swap; the wake is one Waker::wake
    pub fn send(mut self, v: T) {
        let inner = self.inner.take().expect("oneshot sender reused");
        // SAFETY: state is EMPTY or WAITING, so the receiver is not reading
        // the value cell (it only does so after observing SENT).
        unsafe { *inner.value.get() = Some(v) };
        if inner.state.swap(SENT, Ordering::AcqRel) == WAITING {
            // SAFETY: the swap returned WAITING, transferring slot
            // ownership to us — the receiver registered and parked.
            if let Some(w) = unsafe { (*inner.waiter.get()).take() } {
                w.wake();
            }
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return; // consumed by send
        };
        if inner.state.swap(CLOSED, Ordering::AcqRel) == WAITING {
            // SAFETY: swap returned WAITING — the slot is ours to take.
            if let Some(w) = unsafe { (*inner.waiter.get()).take() } {
                w.wake();
            }
        }
    }
}

impl<T: Send> Receiver<T> {
    /// Take the delivered value. Caller must have observed `SENT`.
    fn take_value(&self) -> T {
        // SAFETY: SENT was observed with Acquire, so the sender's value
        // write happened-before; the sender never touches the cell again.
        unsafe { (*self.inner.value.get()).take() }.expect("oneshot value taken twice")
    }

    /// Register `waker` and publish it. Returns `false` when the channel
    /// reached a final state first (the waker is rolled back).
    fn register(&self, waker: &Waker) -> bool {
        // SAFETY: state is EMPTY (we only call this then), so the slot is
        // receiver-owned until the CAS below publishes it.
        unsafe { *self.inner.waiter.get() = Some(waker.clone()) };
        if self
            .inner
            .state
            .compare_exchange(EMPTY, WAITING, Ordering::Release, Ordering::Acquire)
            .is_ok()
        {
            return true;
        }
        // SAFETY: CAS failed — the state went final without the sender ever
        // seeing WAITING, so the slot is still ours; roll it back.
        unsafe { *self.inner.waiter.get() = None };
        false
    }

    /// Block until the value arrives (or the sender is dropped): the
    /// receiver is driven as a future by `ult_io::block_on`, which parks
    /// the ULT inside the runtime and the OS thread outside it.
    pub fn recv(self) -> Result<T, RecvError> {
        ult_io::block_on(self)
    }
}

impl<T: Send> Future for Receiver<T> {
    type Output = Result<T, RecvError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        loop {
            match this.inner.state.load(Ordering::Acquire) {
                SENT => return Poll::Ready(Ok(this.take_value())),
                CLOSED => return Poll::Ready(Err(RecvError)),
                WAITING => {
                    // An earlier poll registered a (possibly stale) waker;
                    // reclaim the slot to refresh it. A failed reclaim
                    // means the sender just went final — loop and observe.
                    if this
                        .inner
                        .state
                        .compare_exchange(WAITING, EMPTY, Ordering::AcqRel, Ordering::Acquire)
                        .is_err()
                    {
                        continue;
                    }
                    // SAFETY: the reclaim CAS returned the slot to us.
                    unsafe { *this.inner.waiter.get() = None };
                }
                _ => {}
            }
            if this.register(cx.waker()) {
                return Poll::Pending;
            }
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        // Reclaim a registered waiter so a late send wakes nobody stale.
        // Losing the CAS means the sender went final; nothing to clean.
        if self
            .inner
            .state
            .compare_exchange(WAITING, EMPTY, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            // SAFETY: the reclaim CAS returned the slot to us.
            unsafe { *self.inner.waiter.get() = None };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn send_then_recv_external() {
        let (tx, rx) = oneshot();
        tx.send(7u32);
        assert_eq!(rx.recv(), Ok(7));
    }

    #[test]
    fn recv_blocks_until_send() {
        let (tx, rx) = oneshot();
        let h = std::thread::spawn(move || rx.recv());
        std::thread::sleep(Duration::from_millis(20));
        tx.send(41u32);
        assert_eq!(h.join().unwrap(), Ok(41));
    }

    #[test]
    fn dropped_sender_closes() {
        let (tx, rx) = oneshot::<u32>();
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn dropped_sender_wakes_blocked_receiver() {
        let (tx, rx) = oneshot::<u32>();
        let h = std::thread::spawn(move || rx.recv());
        std::thread::sleep(Duration::from_millis(20));
        drop(tx);
        assert_eq!(h.join().unwrap(), Err(RecvError));
    }

    #[test]
    fn dropped_receiver_tolerates_send() {
        let (tx, rx) = oneshot();
        drop(rx);
        tx.send(String::from("nobody home")); // value dropped with the cell
    }
}
