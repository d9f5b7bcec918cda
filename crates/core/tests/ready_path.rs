//! The ready path makes no syscalls on behalf of the worker that runs it.
//!
//! A nonpreemptive root fork-joins nonpreemptive children on its own
//! worker. Every spawn, every `on_finish` and every join wake-up is a push
//! from the worker's own context, so none of them may `futex_wake` that
//! worker or re-arm a tick no occupant could take: the counters that stand
//! for those syscalls stay flat however many ULTs go through.
//!
//! On two workers the peer is kept busy. A peer that is free to steal goes
//! idle whenever it outruns the root, and each such park is answered by the
//! unparks it is owed: 12–47 % of the ULTs on this shape, set by the steal
//! race (ROADMAP item 2(b)) and not by the rule under test. With nobody
//! idle, nobody is woken.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use ult_core::{Config, Priority, Runtime, RuntimeStats, ThreadKind};

const ULTS: u64 = 10_000;
const WAVE: u64 = 64;

/// A child's body: a few hundred dependent multiply-adds, about as long as
/// the spawn and join around it.
fn burn(seed: u64) -> u64 {
    (0..256).fold(seed, |x, _| {
        std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1))
    })
}

/// Fork-join `ULTS` children in waves from a root ULT on one worker, every
/// other worker spinning, and return the counter deltas
/// `(tick re-arms + elisions, unparks)` across it.
fn forkjoin_deltas(workers: usize) -> (u64, u64) {
    // The default config: a 1 ms per-worker tick, so elision is in play.
    let rt = Runtime::start(Config {
        num_workers: workers,
        ..Config::default()
    });
    let (spinning, done) = (
        Arc::new(AtomicUsize::new(0)),
        Arc::new(AtomicBool::new(false)),
    );
    let busy_peers: Vec<_> = (1..workers)
        .map(|rank| {
            let (spinning, done) = (spinning.clone(), done.clone());
            rt.spawn_on(rank, ThreadKind::Nonpreemptive, Priority::High, move || {
                spinning.fetch_add(1, Ordering::Release);
                while !done.load(Ordering::Acquire) {
                    core::hint::spin_loop();
                }
            })
        })
        .collect();
    // The window opens once every peer is busy. (Whichever worker took a
    // spinner, the root gets the one that is left.)
    while spinning.load(Ordering::Acquire) < workers - 1 {
        std::thread::yield_now();
    }
    let ticks = |s: &RuntimeStats| s.tick_rearms + s.tick_elisions;
    let before = rt.stats();
    rt.spawn_on(0, ThreadKind::Nonpreemptive, Priority::High, || {
        let mut left = ULTS;
        while left > 0 {
            let n = left.min(WAVE);
            let wave: Vec<_> = (0..n)
                .map(|i| {
                    ult_core::api::spawn(ThreadKind::Nonpreemptive, Priority::High, move || burn(i))
                })
                .collect();
            for (i, h) in wave.into_iter().enumerate() {
                assert_eq!(h.join(), burn(i as u64));
            }
            left -= n;
        }
    })
    .join();
    let after = rt.stats();
    done.store(true, Ordering::Release);
    for p in busy_peers {
        p.join();
    }
    rt.shutdown();
    assert!(after.completed - before.completed >= ULTS);
    (
        ticks(&after) - ticks(&before),
        after.unparks - before.unparks,
    )
}

/// The window's only legitimate wake-ups are the root's arrival from the
/// test thread and a worker still on its way to its first park.
fn assert_flat((ticks, unparks): (u64, u64)) {
    assert!(
        ticks <= 8,
        "{ticks} tick re-arms + elisions for {ULTS} ULTs"
    );
    assert!(unparks <= 8, "{unparks} unparks for {ULTS} ULTs");
}

#[test]
fn forkjoin_on_one_worker_never_wakes_or_rearms_it() {
    assert_flat(forkjoin_deltas(1));
}

#[test]
fn forkjoin_on_two_workers_wakes_no_busy_peer() {
    assert_flat(forkjoin_deltas(2));
}
