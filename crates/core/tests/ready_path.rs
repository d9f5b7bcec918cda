//! The ready path makes no syscalls on behalf of the worker that runs it.
//!
//! A nonpreemptive root fork-joins nonpreemptive children on its own
//! worker. Every spawn, every `on_finish` and every join wake-up is a push
//! from the worker's own context, so none of them may `futex_wake` that
//! worker or re-arm a tick no occupant could take: the counters that stand
//! for those syscalls stay flat however many ULTs go through. No finish
//! wakes the completion futex either (nobody waits on it outside the
//! runtime), and after the first wave every spawn reuses a descriptor its
//! worker got back from a join.
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

/// Counter deltas across one fork-join run.
struct Deltas {
    /// Tick re-arms + elisions.
    ticks: u64,
    unparks: u64,
    join_futex_wakes: u64,
    ult_descriptor_allocs: u64,
}

/// Fork-join `ULTS` children in waves from a root ULT on one worker, every
/// other worker spinning, and return the counter deltas across it.
fn forkjoin_deltas(workers: usize) -> Deltas {
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
    let root = rt.spawn_on(0, ThreadKind::Nonpreemptive, Priority::High, || {
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
    });
    // Spin rather than sleep on the root's completion futex: a KLT asleep
    // there is the one waiter whose wake-up is legitimate.
    root.ult().wait_finished_spin();
    root.join();
    let after = rt.stats();
    done.store(true, Ordering::Release);
    for p in busy_peers {
        p.join();
    }
    rt.shutdown();
    assert!(after.completed - before.completed >= ULTS);
    Deltas {
        ticks: ticks(&after) - ticks(&before),
        unparks: after.unparks - before.unparks,
        join_futex_wakes: after.join_futex_wakes - before.join_futex_wakes,
        ult_descriptor_allocs: after.ult_descriptor_allocs - before.ult_descriptor_allocs,
    }
}

/// The window's only legitimate wake-ups are the root's arrival from the
/// test thread and a worker still on its way to its first park; the
/// root's descriptor and the first wave's are its only allocations.
fn assert_flat(d: Deltas) {
    let ticks = d.ticks;
    assert!(
        ticks <= 8,
        "{ticks} tick re-arms + elisions for {ULTS} ULTs"
    );
    let unparks = d.unparks;
    assert!(unparks <= 8, "{unparks} unparks for {ULTS} ULTs");
    let wakes = d.join_futex_wakes;
    assert_eq!(wakes, 0, "{wakes} completion-futex wakes for {ULTS} ULTs");
    let allocs = d.ult_descriptor_allocs;
    assert!(
        allocs <= 2 * WAVE,
        "{allocs} descriptor allocations for {ULTS} ULTs in waves of {WAVE}"
    );
}

#[test]
fn forkjoin_on_one_worker_never_wakes_or_rearms_it() {
    assert_flat(forkjoin_deltas(1));
}

#[test]
fn forkjoin_on_two_workers_wakes_no_busy_peer() {
    assert_flat(forkjoin_deltas(2));
}
