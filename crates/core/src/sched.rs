//! Scheduling policies.
//!
//! Three policies from the paper's evaluation:
//!
//! * [`SchedPolicy::WorkStealing`] — BOLT's default scheduler (§4.1): local
//!   FIFO first, then steal from a random victim; preempted threads go to
//!   the local FIFO.
//! * [`SchedPolicy::Packing`] — Algorithm 1 (§4.2): pools are partitioned
//!   into private (strided by rank over the first
//!   `N_active·⌊N_total/N_active⌋` pools) and shared (the rest); each
//!   worker alternates one private thread and one shared thread, so shared
//!   threads are time-sliced round-robin at the preemption interval.
//! * [`SchedPolicy::Priority`] — two-level priority (§4.3): high-priority
//!   FIFO drained before the low-priority LIFO; preempted low-priority
//!   threads return to the LIFO head for locality.

use crate::config::SchedPolicy;
use crate::preempt::tick;
use crate::runtime::RuntimeInner;
use crate::thread::{Priority, SchedClass, Ult};
use crate::worker::Worker;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Pick the next thread for worker `w`, or `None` if no work is visible.
/// The run-next slot comes first under every policy.
pub(crate) fn pick(rt: &RuntimeInner, w: &Worker) -> Option<Arc<Ult>> {
    // SAFETY: owner access — `pick` runs on `w`'s scheduler context.
    if let Some(t) = unsafe { (*w.run_next.get()).take() } {
        return Some(t);
    }
    match rt.config.sched_policy {
        SchedPolicy::WorkStealing => pick_work_stealing(rt, w),
        SchedPolicy::Packing => pick_packing(rt, w),
        SchedPolicy::Priority => pick_priority(rt, w),
    }
}

/// Route a thread that became ready (spawn, yield, unblock).
///
/// `local` asserts that `w` is the calling thread's own pinned worker (the
/// caller is its scheduler context or a ULT pinned on it), which licenses
/// the deque's CAS-free owner push; otherwise the push goes through the
/// pool's lock-free remote inbox.
///
/// A `Latency`-class arrival (`wake`: a spawn or an unblock, not the
/// scheduler's own yield re-enqueue) takes the inbox even when `local`,
/// because the inbox is the lane `take_latency_inbox` serves ahead of the
/// deque: the reactor delivers readiness on the worker's own scheduler
/// context, and an owner push there would queue the woken handler behind
/// every ULT already in the deque. A `Latency` ULT that had the CPU and
/// gave it up — yielded here, preempted in [`on_preempted`] — goes to the
/// back like everyone else, so it cannot starve its peers.
///
/// Wake policy (load-bearing): the owner of the pool that received the
/// push is ALWAYS unparked, unconditionally — except by the owner itself.
/// Waking "some idle worker" based on idle-flag scans loses wakeups — two
/// quick pushes can both pick the same stale-flagged worker while the pool
/// owner sleeps forever with work queued (its busy peers never steal
/// because their own pools never drain). Unconditional unparks are tokens:
/// a non-parked owner absorbs them with one extra scheduler-loop iteration.
///
/// The exception is the rule of the whole ready path: the context that
/// embodies `w` (`local`) never wakes `w` and never re-arms `w`'s tick for
/// an occupant that cannot be preempted. The caller is running, so `w` is
/// not parked, and its scheduler rescans the pools before it next parks; a
/// `futex_wake` on itself, or electing itself in [`wake_one_idle`], buys
/// nothing. See DESIGN.md "Who may wake or re-arm a worker".
///
/// [`wake_one_idle`]: RuntimeInner::wake_one_idle
pub(crate) fn on_ready(rt: &RuntimeInner, w: &Worker, t: Arc<Ult>, wake: bool, local: bool) {
    // Queue-delay stamp for the adaptive quantum (coarse clock; lossy).
    t.ready_at_ns
        .store(ult_sys::clock::now_coarse_ns(), Ordering::Relaxed);
    let latency = t.class == SchedClass::Latency;
    let owner_push = local && !(latency && wake);
    match rt.config.sched_policy {
        SchedPolicy::WorkStealing => {
            if owner_push {
                w.pool.push(t);
            } else {
                w.pool.push_remote(t);
            }
            // Shrink before the rearm below so an elided timer re-arms at
            // the floor, not the old quantum.
            tick::queued(rt, w, latency);
            if wake {
                wake_for_push(rt, w, local);
            }
        }
        SchedPolicy::Packing => {
            let home = t.home_pool;
            let hw = &rt.workers[home];
            let self_push = local && home == w.rank;
            if self_push && owner_push {
                hw.pool.push(t);
            } else {
                hw.pool.push_remote(t);
            }
            tick::queued(rt, hw, latency);
            if wake {
                tick::on_push(rt, hw, self_push);
                // The pool owner may be packing-suspended, so additionally
                // wake the one active worker whose scan stride covers this
                // pool (private pools are strided by `rank % n_active`;
                // shared pools are scanned by every active worker, so the
                // strided pick is valid for them too). This replaces the
                // old unpark-everyone storm, which cost one futex syscall
                // per active worker per ready event. A push to the caller's
                // own pool wakes neither the owner nor, when the caller is
                // active, the stride owner: both are the caller.
                let active = rt
                    .active_workers
                    .load(Ordering::Acquire)
                    .clamp(1, rt.workers.len());
                if !self_push {
                    hw.unpark();
                }
                if !self_push || home >= active {
                    rt.workers[home % active].unpark();
                }
                if home >= active {
                    // Backstop: the stride owner above came from a single
                    // racy `active_workers` load. If a set_active_workers()
                    // repartition raced this push, the home owner AND the
                    // stale stride pick can both be packing-suspended,
                    // stranding the push until the next event. Only
                    // possible when the home owner itself may be suspended
                    // (home >= active); wake_one_idle's SeqCst fence pairs
                    // with idle_wait, so a current active worker is
                    // guaranteed to rescan the pools.
                    rt.wake_one_idle(local.then_some(w));
                }
            }
        }
        SchedPolicy::Priority => {
            match t.priority {
                Priority::High => {
                    if owner_push {
                        w.pool.push(t);
                    } else {
                        w.pool.push_remote(t);
                    }
                }
                // The LIFO pool is popped newest-first (`pop_lifo`), so a
                // plain bottom push lands the thread at the next-up slot —
                // the locality head position of the paper's §4.3.
                Priority::Low => {
                    if local {
                        w.lo_pool.push(t);
                    } else {
                        w.lo_pool.push_remote(t);
                    }
                }
            }
            tick::queued(rt, w, latency);
            if wake {
                wake_for_push(rt, w, local);
            }
        }
    }
}

/// Put the ready thread `t` in `w`'s run-next slot, so that `w`'s next
/// [`pick`] returns it ahead of every pool. Refused (`false`) when the slot
/// is taken, or under [`SchedPolicy::Priority`] when `t` is low-priority and
/// `w`'s high pool holds work: the slot must not invert priorities (§4.3).
///
/// The caller is a ULT pinned on `w` that yields right after (see
/// `api::yield_to`); the slot is therefore never full while `w` looks for
/// work elsewhere, and no thief needs to see it.
pub(crate) fn offer_run_next(rt: &RuntimeInner, w: &Worker, t: &Arc<Ult>) -> bool {
    // SAFETY: owner access — the caller is pinned on `w`.
    let slot = unsafe { &mut *w.run_next.get() };
    let inverts = rt.config.sched_policy == SchedPolicy::Priority
        && t.priority == Priority::Low
        && !w.pool.is_empty();
    if slot.is_some() || inverts {
        return false;
    }
    // Queue-delay stamp for the adaptive quantum, as `on_ready` does.
    t.ready_at_ns
        .store(ult_sys::clock::now_coarse_ns(), Ordering::Relaxed);
    *slot = Some(t.clone());
    true
}

/// Empty `w`'s run-next slot into the pools through [`on_ready`]: a
/// packing-suspended worker does this before it parks, so a thread handed
/// to it just before the suspension is not stranded.
pub(crate) fn release_run_next(rt: &RuntimeInner, w: &Worker) {
    // SAFETY: owner access — called on `w`'s scheduler context.
    if let Some(t) = unsafe { (*w.run_next.get()).take() } {
        on_ready(rt, w, t, true, true);
    }
}

/// After a push to `w`'s own pools (work stealing, priority): wake the
/// owner unless the caller is the owner, recruit one idle worker other than
/// the caller, and restore the owner's tick if it was elided.
fn wake_for_push(rt: &RuntimeInner, w: &Worker, local: bool) {
    if !local {
        w.unpark();
    }
    rt.wake_one_idle(local.then_some(w));
    tick::on_push(rt, w, local);
}

/// Route a preempted thread. Async-signal-safe: only the deque's CAS-free
/// owner push / the inbox's single-CAS remote push plus futex wakes — no
/// locks, no allocation (the ring was pre-grown by `reserve`). The caller
/// is either `w`'s signal handler or its scheduler context, both of which
/// hold owner rights on `w`'s own pools; pools of *other* workers (the
/// Packing home route) must go through the remote inbox. The wake of `w`
/// matters for KLT-switching (`in_handler`): the handler pushes while the
/// worker's scheduler runs concurrently on the replacement KLT and may have
/// just idle-parked — without the unpark the push would be a lost wakeup.
/// The scheduler context (signal-yield's `PreemptedSaved` return) is `w`
/// itself, awake and about to pick, and does not wake itself.
// sigsafe
pub(crate) fn on_preempted(rt: &RuntimeInner, w: &Worker, t: Arc<Ult>, in_handler: bool) {
    // Queue-delay stamp for the adaptive quantum (coarse clock; lossy).
    t.ready_at_ns
        .store(ult_sys::clock::now_coarse_ns(), Ordering::Relaxed);
    let latency = t.class == SchedClass::Latency;
    match rt.config.sched_policy {
        // BOLT default: "upon preemption, the scheduler pushes the
        // preempted thread into its local FIFO queue" (§4.1).
        SchedPolicy::WorkStealing => {
            w.pool.push(t);
            tick::queued(rt, w, latency);
            if in_handler {
                w.unpark();
            }
        }
        // Packing: return to the home pool so the round-robin slicing over
        // shared pools advances to the next worker (§4.2).
        SchedPolicy::Packing => {
            let home = t.home_pool;
            let hw = &rt.workers[home];
            if home == w.rank {
                hw.pool.push(t);
            } else {
                hw.pool.push_remote(t);
                tick::on_push(rt, hw, false);
            }
            tick::queued(rt, hw, latency);
            if in_handler || home != w.rank {
                hw.unpark();
            }
            if in_handler {
                w.unpark();
            }
        }
        // Priority: newest-first slot of the LIFO pool "in order not to
        // hurt data locality during preemption" (§4.3).
        SchedPolicy::Priority => {
            match t.priority {
                Priority::High => w.pool.push(t),
                Priority::Low => w.lo_pool.push(t),
            }
            tick::queued(rt, w, latency);
            if in_handler {
                w.unpark();
            }
        }
    }
}

/// Whether any pool this worker could draw from has work (idle re-check).
pub(crate) fn has_any_work(rt: &RuntimeInner, w: &Worker) -> bool {
    if !w.pool.is_empty() || !w.lo_pool.is_empty() {
        return true;
    }
    rt.workers
        .iter()
        .any(|o| !o.pool.is_empty() || !o.lo_pool.is_empty())
}

fn pick_work_stealing(rt: &RuntimeInner, w: &Worker) -> Option<Arc<Ult>> {
    // Class preference: latency arrivals jump the local remote inbox.
    if let Some(t) = w.pool.take_latency_inbox() {
        return Some(t);
    }
    if let Some(t) = w.pool.pop() {
        return Some(t);
    }
    let n = rt.workers.len();
    if n > 1 {
        // Victim preference: drain victims holding queued latency work
        // before falling back to random selection.
        for v in 0..n {
            if v == w.rank || !rt.workers[v].pool.has_latency() {
                continue;
            }
            if let Some(t) = rt.workers[v]
                .pool
                .take_latency_inbox()
                .or_else(|| rt.workers[v].pool.steal())
            {
                w.stats.steals.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        // A few random steal attempts (paper cites Blumofe–Leiserson
        // stealing).
        for _ in 0..2 * n {
            let v = w.next_victim(n);
            if v == w.rank {
                continue;
            }
            if let Some(t) = rt.workers[v].pool.steal() {
                w.stats.steals.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
        }
    }
    None
}

/// Algorithm 1 of the paper, restructured around a per-call alternation bit
/// (the scheduler loop calls `pick` once per thread executed, so alternating
/// which class we try first reproduces the paper's
/// one-private-then-one-shared cadence).
fn pick_packing(rt: &RuntimeInner, w: &Worker) -> Option<Arc<Ult>> {
    let n_total = rt.workers.len();
    let n_active = rt.active_workers.load(Ordering::Acquire).clamp(1, n_total);
    // N_private = N_active * floor(N_total / N_active)  (Algorithm 1 line 6)
    let n_private = n_active * (n_total / n_active);

    // Class preference: before the private/shared alternation, serve any
    // pool in this worker's coverage that holds queued latency work.
    if let Some(t) = pick_packing_latency(rt, w, n_private, n_active, n_total) {
        return Some(t);
    }

    let shared_first = w.pack_toggle();
    if shared_first {
        pick_packing_shared(rt, w, n_private, n_total)
            .or_else(|| pick_packing_private(rt, w, n_private, n_active))
    } else {
        pick_packing_private(rt, w, n_private, n_active)
            .or_else(|| pick_packing_shared(rt, w, n_private, n_total))
    }
}

/// Packing victim preference: scan the same private stride and shared range
/// as the regular passes, but only touching pools with queued latency-class
/// work, taking the latency item directly when it sits in the inbox.
fn pick_packing_latency(
    rt: &RuntimeInner,
    w: &Worker,
    n_private: usize,
    n_active: usize,
    n_total: usize,
) -> Option<Arc<Ult>> {
    let mut i = w.rank;
    while i < n_private {
        if rt.workers[i].pool.has_latency() {
            if let Some(t) = rt.workers[i]
                .pool
                .take_latency_inbox()
                .or_else(|| take_from(rt, w, i))
            {
                return Some(t);
            }
        }
        i += n_active;
    }
    for i in n_private..n_total {
        if rt.workers[i].pool.has_latency() {
            if let Some(t) = rt.workers[i]
                .pool
                .take_latency_inbox()
                .or_else(|| take_from(rt, w, i))
            {
                return Some(t);
            }
        }
    }
    None
}

/// Take from pool `i` on behalf of worker `w`: the owner pop (which may
/// drain the pool's remote inbox) is only legal on `w`'s own pool; every
/// other pool — including a suspended worker's — is a steal.
#[inline]
fn take_from(rt: &RuntimeInner, w: &Worker, i: usize) -> Option<Arc<Ult>> {
    if i == w.rank {
        rt.workers[i].pool.pop()
    } else {
        rt.workers[i].pool.steal()
    }
}

/// Algorithm 1 lines 7–10: private pools, strided by the active count.
fn pick_packing_private(
    rt: &RuntimeInner,
    w: &Worker,
    n_private: usize,
    n_active: usize,
) -> Option<Arc<Ult>> {
    let mut i = w.rank;
    while i < n_private {
        if let Some(t) = take_from(rt, w, i) {
            return Some(t);
        }
        i += n_active;
    }
    None
}

/// Algorithm 1 lines 11–14: shared pools, drained in index order by all
/// active workers (round-robin emerges from the per-tick alternation).
fn pick_packing_shared(
    rt: &RuntimeInner,
    w: &Worker,
    n_private: usize,
    n_total: usize,
) -> Option<Arc<Ult>> {
    for i in n_private..n_total {
        if let Some(t) = take_from(rt, w, i) {
            return Some(t);
        }
    }
    None
}

fn pick_priority(rt: &RuntimeInner, w: &Worker) -> Option<Arc<Ult>> {
    // Class preference within the high level: latency arrivals jump the
    // inbox (never across priority levels — the §4.3 invariant that
    // simulation work precedes analysis work stays intact).
    if let Some(t) = w.pool.take_latency_inbox() {
        return Some(t);
    }
    // High-priority: local FIFO then steal — simulation threads must never
    // wait behind analysis threads (§4.3).
    if let Some(t) = w.pool.pop() {
        return Some(t);
    }
    let n = rt.workers.len();
    if n > 1 {
        // Victim preference: latency-holding victims first.
        for v in 0..n {
            if v == w.rank || !rt.workers[v].pool.has_latency() {
                continue;
            }
            if let Some(t) = rt.workers[v]
                .pool
                .take_latency_inbox()
                .or_else(|| rt.workers[v].pool.steal())
            {
                w.stats.steals.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        for _ in 0..n {
            let v = w.next_victim(n);
            if v != w.rank {
                if let Some(t) = rt.workers[v].pool.steal() {
                    w.stats.steals.fetch_add(1, Ordering::Relaxed);
                    return Some(t);
                }
            }
        }
    }
    // Low-priority: local LIFO only (locality; analysis threads are pinned
    // to their worker's queue as in the paper's LAMMPS setup).
    w.lo_pool.pop_lifo()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread::ThreadKind;

    fn ult(id: u64, class: SchedClass) -> Arc<Ult> {
        ult_at(id, Priority::High, class, 0)
    }

    fn ult_at(id: u64, priority: Priority, class: SchedClass, home: usize) -> Arc<Ult> {
        let attrs = crate::SpawnAttrs::new()
            .kind(ThreadKind::SignalYield)
            .priority(priority)
            .class(class);
        Ult::unscheduled(id, &attrs, home)
    }

    /// One worker's routing, driven from the test thread standing in for
    /// its scheduler context (no KLT is started).
    fn pick_order(policy: SchedPolicy, route: impl Fn(&RuntimeInner, &Worker)) -> Vec<u64> {
        let rt = RuntimeInner::new(crate::Config {
            num_workers: 1,
            sched_policy: policy,
            ..crate::Config::default()
        });
        let w = &rt.workers[0];
        for id in [1, 2] {
            on_ready(&rt, w, ult(id, SchedClass::Normal), true, true);
        }
        route(&rt, w);
        std::iter::from_fn(|| pick(&rt, w)).map(|t| t.id).collect()
    }

    #[test]
    fn local_latency_wakeup_is_picked_first_and_a_preempted_one_is_not() {
        let lat = || ult(3, SchedClass::Latency);
        for policy in [
            SchedPolicy::WorkStealing,
            SchedPolicy::Packing,
            SchedPolicy::Priority,
        ] {
            // Unblocked (or spawned) on its own worker: ahead of the queue.
            let woken = pick_order(policy, |rt, w| on_ready(rt, w, lat(), true, true));
            assert_eq!(woken, [3, 1, 2], "{policy:?}");
            // Had the CPU and lost it or gave it up: behind the queue.
            let preempted = pick_order(policy, |rt, w| on_preempted(rt, w, lat(), false));
            assert_eq!(preempted, [1, 2, 3], "{policy:?}");
            let yielded = pick_order(policy, |rt, w| on_ready(rt, w, lat(), false, true));
            assert_eq!(yielded, [1, 2, 3], "{policy:?}");
            // Other classes keep their place whatever made them ready.
            let normal = pick_order(policy, |rt, w| {
                on_ready(rt, w, ult(3, SchedClass::Normal), true, true)
            });
            assert_eq!(normal, [1, 2, 3], "{policy:?}");
        }
    }

    /// A push from worker 0's own context onto its elided self, under
    /// `occupant`: `(tick elided afterwards, tick re-arms, unparks)`.
    fn self_push(policy: SchedPolicy, occupant: Option<ThreadKind>) -> (bool, u64, u64) {
        let rt = RuntimeInner::new(crate::Config {
            num_workers: 1,
            sched_policy: policy,
            ..crate::Config::default()
        });
        let w = &rt.workers[0];
        w.stats.set_current_kind(occupant);
        tick::try_elide(&rt, w);
        on_ready(&rt, w, ult(1, SchedClass::Normal), true, true);
        assert_eq!(pick(&rt, w).unwrap().id, 1, "{policy:?}");
        (
            tick::debug_view(w).0,
            w.stats.tick_rearms.load(Ordering::Relaxed),
            w.stats.unparks.load(Ordering::Relaxed),
        )
    }

    #[test]
    fn a_worker_neither_wakes_itself_nor_rearms_for_an_unpreemptible_occupant() {
        for policy in [
            SchedPolicy::WorkStealing,
            SchedPolicy::Packing,
            SchedPolicy::Priority,
        ] {
            // Scheduler context (on_finish, reactor delivery, join wake-up)
            // and a nonpreemptive spawner: the tick stays elided, the next
            // dispatch decides.
            for occupant in [None, Some(ThreadKind::Nonpreemptive)] {
                assert_eq!(
                    self_push(policy, occupant),
                    (true, 0, 0),
                    "{policy:?} {occupant:?}"
                );
            }
            // A preemptive spawner needs the tick to ever reach its child.
            for kind in [ThreadKind::SignalYield, ThreadKind::KltSwitching] {
                assert_eq!(
                    self_push(policy, Some(kind)),
                    (false, 1, 0),
                    "{policy:?} {kind:?}"
                );
            }
        }
    }

    #[test]
    fn a_remote_push_still_wakes_the_owner_and_asks_for_its_tick() {
        let rt = RuntimeInner::new(crate::Config {
            num_workers: 1,
            ..crate::Config::default()
        });
        let w = &rt.workers[0];
        // The test thread embodies the owner, so the nudge tick lands here
        // and its handler runs before the send returns.
        crate::preempt::install_handlers();
        let klt = crate::klt::Klt::new(0);
        crate::klt::bind_current_klt(&klt);
        klt.worker.store(
            Arc::as_ptr(&rt.workers[0]) as *mut Worker,
            Ordering::Release,
        );
        w.current_klt
            .store(Arc::as_ptr(&klt) as *mut _, Ordering::Release);
        tick::try_elide(&rt, w);
        on_ready(&rt, w, ult(1, SchedClass::Normal), true, false);
        crate::klt::unbind_current_klt();
        assert_eq!(w.stats.unparks.load(Ordering::Relaxed), 1);
        assert_eq!(w.stats.timer_ticks.load(Ordering::Relaxed), 1);
        // With no preemptive occupant the handler leaves the re-arm to the
        // owner's next dispatch.
        assert!(tick::debug_view(w).0);
        assert_eq!(w.stats.tick_rearms.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn run_next_is_picked_before_queued_work_under_every_policy() {
        for policy in [
            SchedPolicy::WorkStealing,
            SchedPolicy::Packing,
            SchedPolicy::Priority,
        ] {
            let order = pick_order(policy, |rt, w| {
                assert!(offer_run_next(rt, w, &ult(3, SchedClass::Normal)));
                // One slot: a second grantee is refused.
                assert!(!offer_run_next(rt, w, &ult(4, SchedClass::Normal)));
            });
            assert_eq!(order, [3, 1, 2], "{policy:?}");
        }
    }

    #[test]
    fn run_next_of_a_packing_suspended_worker_goes_back_to_a_pool() {
        let rt = RuntimeInner::new(crate::Config {
            num_workers: 2,
            sched_policy: SchedPolicy::Packing,
            ..crate::Config::default()
        });
        rt.active_workers.store(1, Ordering::Release);
        let (active, suspended) = (&rt.workers[0], &rt.workers[1]);
        // Homed on the suspended worker's own pool, the one nobody drains
        // unless the active worker's scan covers it.
        let t = ult_at(1, Priority::High, SchedClass::Normal, 1);
        assert!(offer_run_next(&rt, suspended, &t));
        release_run_next(&rt, suspended);
        // SAFETY: no scheduler runs in this test.
        assert!(unsafe { (*suspended.run_next.get()).is_none() });
        assert_eq!(pick(&rt, active).map(|t| t.id), Some(1));
    }

    #[test]
    fn run_next_never_lets_a_low_grantee_jump_high_work() {
        let rt = RuntimeInner::new(crate::Config {
            num_workers: 1,
            sched_policy: SchedPolicy::Priority,
            ..crate::Config::default()
        });
        let w = &rt.workers[0];
        let low = ult_at(9, Priority::Low, SchedClass::Normal, 0);
        on_ready(&rt, w, ult(1, SchedClass::Normal), true, true);
        assert!(!offer_run_next(&rt, w, &low));
        assert_eq!(pick(&rt, w).unwrap().id, 1);
        // With the high pool empty the low grantee may run next.
        assert!(offer_run_next(&rt, w, &low));
        assert_eq!(pick(&rt, w).unwrap().id, 9);
    }

    #[test]
    fn latency_count_is_exact_across_the_local_inbox_route() {
        let rt = RuntimeInner::new(crate::Config {
            num_workers: 1,
            ..crate::Config::default()
        });
        let w = &rt.workers[0];
        assert!(!w.pool.has_latency());
        on_ready(&rt, w, ult(1, SchedClass::Latency), true, true);
        assert!(w.pool.has_latency());
        assert_eq!(pick(&rt, w).unwrap().id, 1);
        assert!(!w.pool.has_latency());
    }
}
