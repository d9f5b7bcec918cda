//! Timed waits: the [`Sleep`] future on the sharded timer wheel, and the
//! blocking `sleep` and deadline-block primitive that `ult-sync`'s
//! `wait_timeout` variants are built on — both driven through
//! [`block_on`], so a timed wait parks exactly like any other task.

use crate::reactor::current_shard;
use crate::task::block_on;
use crate::waiter::TimedWaiter;
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

/// Suspend the current ULT for at least `dur` without holding its KLT.
///
/// The worker keeps running other ULTs; the timer wheel re-pushes this
/// thread to its home pool when the deadline passes. Accuracy is the wheel
/// granularity (~1 ms) plus reactor service latency — bounded by the
/// preemption interval while compute ULTs keep all workers busy. Outside
/// the runtime this is `std::thread::sleep`.
pub fn sleep(dur: Duration) {
    if !ult_core::in_ult() {
        // blocking-ok: plain-KLT fallback path, only taken outside the runtime
        std::thread::sleep(dur);
        return;
    }
    block_on(sleep_future(dur));
}

/// Block the current ULT until `register` hands the waiter to some wake
/// source and that source [`TimedWaiter::notify`]s it, or until
/// `deadline_ns` (absolute `CLOCK_MONOTONIC` ns) passes — whichever claims
/// the waiter first. Returns `true` if the wait **timed out**.
///
/// The wait is one future on the ULT driver ([`block_on`]): its first poll
/// creates a waiter bound to the driver's waker and runs `register`, which
/// should publish the waiter (e.g. push it onto a wait list) and return
/// `true`, or return `false` to abort blocking (condition already
/// satisfied). The waiter is then scheduled on the timer wheel; whichever
/// of notify/expiry wins the claim CAS wakes the driver, the loser's
/// reference goes stale and is pruned lazily. A notify that lands before
/// the driver has parked is absorbed by the driver's claim machine (the
/// park aborts and the future completes on its re-poll).
///
/// # Panics
/// Panics outside a ULT (as `block_current` does) — `ult-sync` falls back
/// to its OS-thread paths before calling this.
pub fn block_until<F>(deadline_ns: u64, register: F) -> bool
where
    F: FnOnce(&Arc<TimedWaiter>) -> bool,
{
    assert!(ult_core::in_ult(), "block_until outside a ULT");
    let mut register = Some(register);
    let mut waiter: Option<Arc<TimedWaiter>> = None;
    block_on(poll_fn(|cx| {
        if let Some(w) = &waiter {
            return if w.is_waiting() {
                Poll::Pending
            } else {
                Poll::Ready(w.timed_out())
            };
        }
        let w = TimedWaiter::new_with_waker(cx.waker().clone());
        if !register.take().is_some_and(|r| r(&w)) {
            return Poll::Ready(false);
        }
        // Deadlines land on the calling worker's own shard wheel; the
        // shard's owner services it while parked or via its opportunistic
        // polls.
        current_shard().add_deadline(deadline_ns, w.clone());
        waiter = Some(w);
        Poll::Pending
    }))
}

/// [`block_until`] with a relative timeout.
pub fn block_for<F>(timeout: Duration, register: F) -> bool
where
    F: FnOnce(&Arc<TimedWaiter>) -> bool,
{
    let deadline =
        ult_sys::now_ns().saturating_add(timeout.as_nanos().min(u64::MAX as u128) as u64);
    block_until(deadline, register)
}

/// A future that completes once `dur` has elapsed — the async counterpart
/// of [`sleep`], riding the same sharded timer wheel (accuracy: wheel
/// granularity ~1 ms plus reactor service latency). See [`Sleep`].
pub fn sleep_future(dur: Duration) -> Sleep {
    sleep_until_ns(ult_sys::now_ns().saturating_add(dur.as_nanos().min(u64::MAX as u128) as u64))
}

/// A future that completes at `deadline_ns` (absolute `CLOCK_MONOTONIC`).
pub fn sleep_until_ns(deadline_ns: u64) -> Sleep {
    Sleep {
        deadline_ns,
        registered: None,
    }
}

/// Timer-wheel sleep as a [`Future`].
///
/// Each pending poll keeps one waker-bound [`TimedWaiter`] on the polling
/// worker's wheel; the wheel's expiry claims it and `Waker::wake`
/// reschedules the task, whose re-poll observes the passed deadline. A
/// re-poll with the *same* still-armed registration (waiter unclaimed,
/// waker unchanged) is free; a migrated or waker-swapped task re-registers,
/// and the stale wheel entry dies by the ordinary claim CAS.
///
/// Timers are serviced by runtime workers — on a plain OS thread with no
/// runtime active in the process, this future never completes.
#[derive(Debug)]
pub struct Sleep {
    deadline_ns: u64,
    registered: Option<(Arc<TimedWaiter>, Waker)>,
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if ult_sys::now_ns() >= this.deadline_ns {
            this.registered = None;
            return Poll::Ready(());
        }
        let fresh = match &this.registered {
            // Claimed (spurious wake before the deadline — e.g. a stale
            // waiter reused slotwise) or re-polled under a different waker:
            // the old entry can no longer wake the current task.
            Some((w, wk)) => !w.is_waiting() || !wk.will_wake(cx.waker()),
            None => true,
        };
        if fresh {
            let wk = cx.waker().clone();
            let w = TimedWaiter::new_with_waker(wk.clone());
            // An already-passed deadline (raced the clock check above) is
            // fired by the wheel's very next advance; no wake is lost.
            current_shard().add_deadline(this.deadline_ns, w.clone());
            this.registered = Some((w, wk));
        }
        Poll::Pending
    }
}
