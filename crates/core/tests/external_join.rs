//! Joins from outside the runtime race the finish they wait for.
//!
//! A KLT that joins a ULT announces itself on the ULT's completion futex
//! (running → waited) before it sleeps, and a finish wakes the futex only
//! if it finds that announcement. A lost race either way strands the
//! joiner forever: these tests join ULTs whose finish lands just before,
//! during and just after the announcement, and put several KLTs to sleep
//! on one ULT. Each runs under a deadline, so a stranded waiter fails the
//! test instead of hanging it.
//!
//! Each spawn from outside also nudges its elided home worker with a
//! signal. On two workers the peer often steals and runs the child while
//! the nudged KLT waits for a CPU, so without the one-queued-nudge bound
//! the nudges pile up and their nested handler frames overflow its stack.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;
use ult_core::{Config, Runtime};

const ROUNDS: u64 = 10_000;
const WAITERS: usize = 4;

/// Run `f` on a thread of its own; panic if it does not return in time.
fn within(secs: u64, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let h = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => h.join().unwrap(),
        // The body panicked: report its panic.
        Err(mpsc::RecvTimeoutError::Disconnected) => h.join().unwrap(),
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("a joiner was never woken"),
    }
}

fn runtime(workers: usize) -> Runtime {
    Runtime::start(Config {
        num_workers: workers,
        ..Config::default()
    })
}

/// Spawn from the test thread and join at once, children of 0–2 µs: the
/// finish races the joiner's announcement on every round.
fn spawn_then_join(workers: usize) {
    within(120, move || {
        let rt = runtime(workers);
        for i in 0..ROUNDS {
            let h = rt.spawn(move || {
                ult_sys::clock::spin_for_ns(i % 3 * 1000);
                i
            });
            assert_eq!(h.join(), i);
        }
        rt.shutdown();
    });
}

/// One ULT waited on by `WAITERS` KLTs through `wait_finished_external`
/// plus the test thread's `join`: every one of them returns.
fn many_external_waiters(workers: usize) {
    within(120, move || {
        let rt = runtime(workers);
        for round in 0..200u64 {
            let go = Arc::new(AtomicBool::new(false));
            let h = rt.spawn({
                let go = go.clone();
                move || {
                    while !go.load(Ordering::Acquire) {
                        ult_core::yield_now();
                    }
                    round
                }
            });
            let (tx, rx) = mpsc::channel();
            let waiters: Vec<_> = (0..WAITERS)
                .map(|_| {
                    let (t, tx) = (h.ult().clone(), tx.clone());
                    std::thread::spawn(move || {
                        t.wait_finished_external();
                        assert!(t.is_finished());
                        tx.send(()).unwrap();
                    })
                })
                .collect();
            // Odd rounds release the ULT while the waiters are still on
            // their way to the futex, even rounds once they are asleep.
            if round % 2 == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
            go.store(true, Ordering::Release);
            assert_eq!(h.join(), round);
            for _ in 0..WAITERS {
                rx.recv().unwrap();
            }
            for w in waiters {
                w.join().unwrap();
            }
        }
        rt.shutdown();
    });
}

#[test]
fn spawn_then_join_on_one_worker() {
    spawn_then_join(1);
}

#[test]
fn spawn_then_join_on_two_workers() {
    spawn_then_join(2);
}

#[test]
fn many_external_waiters_on_one_worker() {
    many_external_waiters(1);
}

#[test]
fn many_external_waiters_on_two_workers() {
    many_external_waiters(2);
}
