//! ULT-context tests for the sync primitives: blocking must park the ULT
//! (worker continues with other threads), wake-ups must reschedule it.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use ult_core::{Config, Runtime, TimerStrategy};
use ult_sync::{
    channel, Barrier, Condvar, Mutex, RwLock, Semaphore, SpinBarrier, SpinMode, WaitGroup,
};

fn rt(workers: usize) -> Runtime {
    Runtime::start(Config {
        num_workers: workers,
        preempt_interval_ns: 0,
        timer_strategy: TimerStrategy::None,
        ..Config::default()
    })
}

#[test]
fn mutex_mutual_exclusion_many_ults() {
    let r = rt(4);
    let m = Arc::new(Mutex::new(0u64));
    let handles: Vec<_> = (0..32)
        .map(|_| {
            let m = m.clone();
            r.spawn(move || {
                for _ in 0..100 {
                    let mut g = m.lock();
                    let v = *g;
                    // A yield inside the critical section stresses
                    // cross-worker handoff of the lock owner.
                    ult_core::yield_now();
                    *g = v + 1;
                }
            })
        })
        .collect();
    for h in handles {
        h.join();
    }
    assert_eq!(*m.lock(), 3200);
    r.shutdown();
}

#[test]
fn mutex_blocks_ult_not_worker() {
    // One worker: A takes the lock and yields; B blocks on the lock; C must
    // still run (the worker is not blocked); A releases; B completes.
    let r = rt(1);
    let m = Arc::new(Mutex::new(()));
    let c_ran = Arc::new(AtomicUsize::new(0));
    let m1 = m.clone();
    let a = r.spawn(move || {
        let g = m1.lock();
        for _ in 0..10 {
            ult_core::yield_now();
        }
        drop(g);
    });
    let m2 = m.clone();
    let b = r.spawn(move || {
        let _g = m2.lock();
    });
    let cr = c_ran.clone();
    let c = r.spawn(move || {
        cr.store(1, Ordering::SeqCst);
    });
    c.join();
    assert_eq!(c_ran.load(Ordering::SeqCst), 1);
    a.join();
    b.join();
    r.shutdown();
}

#[test]
fn condvar_signaling_between_ults() {
    let r = rt(2);
    let m = Arc::new(Mutex::new(false));
    let cv = Arc::new(Condvar::new());
    let m1 = m.clone();
    let cv1 = cv.clone();
    let waiter = r.spawn(move || {
        let mut g = m1.lock();
        while !*g {
            g = cv1.wait(g);
        }
        42
    });
    let m2 = m.clone();
    let cv2 = cv.clone();
    let signaler = r.spawn(move || {
        // Let the waiter park first (scheduling-dependent but bounded).
        for _ in 0..20 {
            ult_core::yield_now();
        }
        *m2.lock() = true;
        cv2.notify_one();
    });
    assert_eq!(waiter.join(), 42);
    signaler.join();
    r.shutdown();
}

#[test]
fn condvar_notify_all_releases_everyone() {
    let r = rt(2);
    let m = Arc::new(Mutex::new(0usize));
    let cv = Arc::new(Condvar::new());
    let released = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let m = m.clone();
            let cv = cv.clone();
            let rel = released.clone();
            r.spawn(move || {
                let mut g = m.lock();
                while *g == 0 {
                    g = cv.wait(g);
                }
                rel.fetch_add(1, Ordering::SeqCst);
            })
        })
        .collect();
    let m2 = m.clone();
    let cv2 = cv.clone();
    r.spawn(move || {
        for _ in 0..50 {
            ult_core::yield_now();
        }
        *m2.lock() = 1;
        cv2.notify_all();
    })
    .join();
    for h in handles {
        h.join();
    }
    assert_eq!(released.load(Ordering::SeqCst), 8);
    r.shutdown();
}

#[test]
fn barrier_synchronizes_ults_across_workers() {
    let r = rt(4);
    let b = Arc::new(Barrier::new(8));
    let phase_counts = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let b = b.clone();
            let pc = phase_counts.clone();
            r.spawn(move || {
                for _ in 0..5 {
                    pc.fetch_add(1, Ordering::SeqCst);
                    b.wait();
                    // After the barrier, all 8 increments of this phase are
                    // visible: the count is a multiple of 8.
                    assert_eq!(pc.load(Ordering::SeqCst) % 8, 0);
                    b.wait();
                }
            })
        })
        .collect();
    for h in handles {
        h.join();
    }
    r.shutdown();
}

#[test]
fn spin_barrier_yielding_mode_on_one_worker() {
    // 4 parties on ONE worker would deadlock in BusyWait mode without
    // preemption; Yielding mode (the "reverse-engineered MKL" fix) works.
    let r = rt(1);
    let b = Arc::new(SpinBarrier::new(4, SpinMode::Yielding));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let b = b.clone();
            r.spawn(move || {
                for _ in 0..10 {
                    b.wait();
                }
            })
        })
        .collect();
    for h in handles {
        h.join();
    }
    r.shutdown();
}

#[test]
fn semaphore_bounds_concurrency() {
    let r = rt(4);
    let s = Arc::new(Semaphore::new(2));
    let inside = Arc::new(AtomicUsize::new(0));
    let max_seen = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..16)
        .map(|_| {
            let s = s.clone();
            let inside = inside.clone();
            let max_seen = max_seen.clone();
            r.spawn(move || {
                s.acquire();
                let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                max_seen.fetch_max(now, Ordering::SeqCst);
                ult_core::yield_now();
                inside.fetch_sub(1, Ordering::SeqCst);
                s.release();
            })
        })
        .collect();
    for h in handles {
        h.join();
    }
    assert!(max_seen.load(Ordering::SeqCst) <= 2);
    r.shutdown();
}

#[test]
fn channel_pipeline_between_ults() {
    let r = rt(2);
    let (tx, rx) = channel::<usize>(4);
    let producer = r.spawn(move || {
        for i in 0..200 {
            tx.send(i).unwrap();
        }
    });
    let consumer = r.spawn(move || {
        let mut sum = 0;
        for _ in 0..200 {
            sum += rx.recv().unwrap();
        }
        sum
    });
    producer.join();
    assert_eq!(consumer.join(), 199 * 200 / 2);
    r.shutdown();
}

#[test]
fn waitgroup_fork_join() {
    let r = rt(4);
    let wg = Arc::new(WaitGroup::new());
    let sum = Arc::new(AtomicUsize::new(0));
    wg.add(64);
    for i in 0..64 {
        let wg = wg.clone();
        let sum = sum.clone();
        let _ = r.spawn(move || {
            sum.fetch_add(i, Ordering::SeqCst);
            wg.done();
        });
    }
    let wg2 = wg.clone();
    let joiner = r.spawn(move || {
        wg2.wait();
    });
    joiner.join();
    assert_eq!(sum.load(Ordering::SeqCst), 63 * 64 / 2);
    r.shutdown();
}

/// Yield until `flag` is set. On the one cooperative worker the RwLock tests
/// use, a ULT that sets a flag and then blocks without yielding in between
/// is parked by the time anyone else sees the flag.
fn yield_until(flag: &AtomicBool) {
    while !flag.load(Ordering::SeqCst) {
        ult_core::yield_now();
    }
}

#[test]
fn rwlock_readers_park_behind_a_queued_writer() {
    let r = rt(1);
    let l = Arc::new(RwLock::new(Vec::new()));
    let (w_queued, r_queued) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    let (l1, wq, rq) = (l.clone(), w_queued.clone(), r_queued.clone());
    let holder = r.spawn(move || {
        let g = l1.read();
        yield_until(&wq);
        yield_until(&rq);
        drop(g);
    });
    let (l2, wq) = (l.clone(), w_queued.clone());
    let writer = r.spawn(move || {
        wq.store(true, Ordering::SeqCst);
        l2.write().push("writer");
    });
    let (l3, wq, rq) = (l.clone(), w_queued.clone(), r_queued.clone());
    let reader = r.spawn(move || {
        yield_until(&wq);
        // A read lock is compatible with the holder's, but a writer waits.
        assert!(l3.try_read().is_none());
        rq.store(true, Ordering::SeqCst);
        let g = l3.read();
        assert_eq!(*g, ["writer"], "reader overtook the queued writer");
    });
    holder.join();
    writer.join();
    reader.join();
    r.shutdown();
}

#[test]
fn rwlock_writer_is_woken_by_the_last_reader() {
    let r = rt(1);
    let l = Arc::new(RwLock::new(0u32));
    let w_queued = Arc::new(AtomicBool::new(false));
    let release: Vec<_> = (0..2).map(|_| Arc::new(AtomicBool::new(false))).collect();
    let readers: Vec<_> = release
        .iter()
        .map(|rel| {
            let (l, rel) = (l.clone(), rel.clone());
            r.spawn(move || {
                let g = l.read();
                yield_until(&rel);
                drop(g);
            })
        })
        .collect();
    let (l2, wq) = (l.clone(), w_queued.clone());
    let writer = r.spawn(move || {
        wq.store(true, Ordering::SeqCst);
        *l2.write() = 7;
    });
    let (l3, wq) = (l.clone(), w_queued.clone());
    r.spawn(move || {
        yield_until(&wq);
        release[0].store(true, Ordering::SeqCst);
        for _ in 0..20 {
            ult_core::yield_now();
        }
        // One reader is left: the writer is still parked.
        assert!(l3.try_write().is_none());
        release[1].store(true, Ordering::SeqCst);
    })
    .join();
    writer.join();
    for h in readers {
        h.join();
    }
    assert_eq!(*l.read(), 7);
    r.shutdown();
}

#[test]
fn rwlock_writer_drop_releases_all_readers() {
    let r = rt(1);
    let l = Arc::new(RwLock::new(()));
    let queued = Arc::new(AtomicUsize::new(0));
    let inside = Arc::new(AtomicUsize::new(0));
    let w = l.write();
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let (l, queued, inside) = (l.clone(), queued.clone(), inside.clone());
            r.spawn(move || {
                queued.fetch_add(1, Ordering::SeqCst);
                let _g = l.read();
                inside.fetch_add(1, Ordering::SeqCst);
                // Hold the read lock until all four are in: they were woken
                // together, not handed the lock one after the other.
                while inside.load(Ordering::SeqCst) < 4 {
                    ult_core::yield_now();
                }
            })
        })
        .collect();
    while queued.load(Ordering::SeqCst) < 4 {
        std::thread::yield_now();
    }
    assert_eq!(inside.load(Ordering::SeqCst), 0);
    drop(w);
    for h in readers {
        h.join();
    }
    r.shutdown();
}

#[test]
fn preemptive_threads_with_sync_primitives() {
    // Preemption + blocking primitives must compose: preemptible threads
    // hammer a mutex while timers fire.
    let r = Runtime::start(Config {
        num_workers: 2,
        preempt_interval_ns: 1_000_000,
        timer_strategy: TimerStrategy::PerWorkerAligned,
        ..Config::default()
    });
    let m = Arc::new(Mutex::new(0u64));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let m = m.clone();
            r.spawn_with(
                ult_core::ThreadKind::KltSwitching,
                ult_core::Priority::High,
                move || {
                    for _ in 0..50 {
                        let mut g = m.lock();
                        *g += 1;
                        drop(g);
                        // Some CPU burn between acquisitions so preemptions
                        // actually land inside this loop.
                        let mut acc = 0u64;
                        for i in 0..20_000u64 {
                            acc = acc.wrapping_add(i * i);
                        }
                        std::hint::black_box(acc);
                    }
                },
            )
        })
        .collect();
    for h in handles {
        h.join();
    }
    assert_eq!(*m.lock(), 400);
    r.shutdown();
}

#[test]
fn mcs_mutual_exclusion_many_ults() {
    let r = rt(4);
    let m = Arc::new(ult_sync::McsMutex::new(0u64));
    let handles: Vec<_> = (0..32)
        .map(|_| {
            let m = m.clone();
            r.spawn(move || {
                for _ in 0..100 {
                    let mut g = m.lock();
                    let v = *g;
                    // A yield inside the critical section stresses
                    // cross-worker handoff of the lock owner.
                    ult_core::yield_now();
                    *g = v + 1;
                }
            })
        })
        .collect();
    for h in handles {
        h.join();
    }
    assert_eq!(*m.lock(), 3200);
    r.shutdown();
}

#[test]
fn mcs_blocks_ult_not_worker() {
    // One worker: A takes the MCS lock and yields; B finds it taken and
    // parks as a ULT at once; C must still run (the worker is free); A
    // releases, handing off to B.
    let suspends_before = ult_core::stats::sync_counters()
        .mcs_suspends
        .load(Ordering::SeqCst);
    let r = rt(1);
    let m = Arc::new(ult_sync::McsMutex::new(()));
    let c_ran = Arc::new(AtomicUsize::new(0));
    let b_asked = Arc::new(AtomicUsize::new(0));
    let (m1, asked) = (m.clone(), b_asked.clone());
    let a = r.spawn(move || {
        let g = m1.lock();
        // Hold the lock until B has asked for it. On this one cooperative
        // worker A only runs again once B has given the CPU up, which it
        // does by parking in `lock`.
        while asked.load(Ordering::SeqCst) == 0 {
            ult_core::yield_now();
        }
        drop(g);
    });
    let (m2, asked) = (m.clone(), b_asked.clone());
    let b = r.spawn(move || {
        asked.store(1, Ordering::SeqCst);
        let _g = m2.lock();
    });
    let cr = c_ran.clone();
    let c = r.spawn(move || {
        cr.store(1, Ordering::SeqCst);
    });
    c.join();
    assert_eq!(c_ran.load(Ordering::SeqCst), 1);
    a.join();
    b.join();
    // B demonstrably suspended as a ULT (not a spinning KLT).
    let suspends_after = ult_core::stats::sync_counters()
        .mcs_suspends
        .load(Ordering::SeqCst);
    assert!(
        suspends_after > suspends_before,
        "waiter never parked as a ULT"
    );
    let stats = r.stats();
    assert!(stats.mcs_handoffs >= 1, "release never handed off");
    r.shutdown();
}

const RELEASER: usize = 1;
const GRANTEE: usize = 2;

/// On one cooperative worker, which of `RELEASER` and `GRANTEE` reaches its
/// next statement first after a contended `McsMutex` unlock. With `pinned`
/// the releaser drops its guard inside `preempt_disable`/`preempt_enable`.
fn first_after_contended_mcs_unlock(pinned: bool) -> usize {
    let r = rt(1);
    let m = Arc::new(ult_sync::McsMutex::new(()));
    let asked = Arc::new(AtomicBool::new(false));
    let first = Arc::new(AtomicUsize::new(0));
    let (m1, asked1, first1) = (m.clone(), asked.clone(), first.clone());
    let releaser = r.spawn(move || {
        let g = m1.lock();
        // The grantee parks in `lock` as soon as it has asked.
        yield_until(&asked1);
        if pinned {
            ult_core::preempt_disable();
            drop(g);
            ult_core::preempt_enable();
        } else {
            drop(g);
        }
        let _ = first1.compare_exchange(0, RELEASER, Ordering::SeqCst, Ordering::SeqCst);
    });
    let (m2, first2) = (m.clone(), first.clone());
    let grantee = r.spawn(move || {
        asked.store(true, Ordering::SeqCst);
        let _g = m2.lock();
        let _ = first2.compare_exchange(0, GRANTEE, Ordering::SeqCst, Ordering::SeqCst);
    });
    releaser.join();
    grantee.join();
    r.shutdown();
    first.load(Ordering::SeqCst)
}

#[test]
fn mcs_grantee_runs_before_its_releaser_continues() {
    // The releaser hands its worker over with the lock.
    assert_eq!(first_after_contended_mcs_unlock(false), GRANTEE);
}

#[test]
fn mcs_pinned_releaser_wakes_without_yielding() {
    // Inside a pinned section the releaser must not suspend: the grantee is
    // only made ready, and the releaser carries on first.
    assert_eq!(first_after_contended_mcs_unlock(true), RELEASER);
}

#[test]
fn mcs_fifo_handoff_order() {
    // Waiters are granted in arrival order: the holder releases and each
    // queued ULT appends its token FIFO.
    let r = rt(1);
    let m = Arc::new(ult_sync::McsMutex::new(Vec::new()));
    let g = m.lock();
    let handles: Vec<_> = (0..4u64)
        .map(|i| {
            let m = m.clone();
            r.spawn_on(
                0,
                ult_core::ThreadKind::Nonpreemptive,
                ult_core::Priority::High,
                move || {
                    m.lock().push(i);
                },
            )
        })
        .collect();
    // Let all four enqueue behind the held lock (each parks as soon as it
    // has enqueued, freeing the single worker for the next one).
    std::thread::sleep(std::time::Duration::from_millis(50));
    drop(g);
    for h in handles {
        h.join();
    }
    assert_eq!(*m.lock(), vec![0, 1, 2, 3]);
    r.shutdown();
}
