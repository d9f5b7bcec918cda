//! Exhaustive model checks of the runtime's three lock-free protocol
//! families, plus the mutation test: a deliberately seeded fence
//! downgrade in the Chase–Lev pop must be caught by the explorer, in a
//! subprocess, in under a minute.

use std::time::{Duration, Instant};

use ult_model::protocols;
use ult_model::Report;

/// The sweeps must be exhaustive by default; under an explicit budget
/// (`ULT_MODEL_MAX_EXECS`, as `run_all.sh --quick` sets) a partial sweep
/// is the point.
fn assert_exhaustive_unless_budgeted(r: Report) {
    if std::env::var("ULT_MODEL_MAX_EXECS").is_err() {
        assert!(!r.partial, "sweep must be exhaustive without a budget");
    }
}

#[test]
fn deque_take_vs_steal_is_exhaustively_safe() {
    let r = ult_model::check(|| protocols::deque_take_vs_steal(false));
    assert_exhaustive_unless_budgeted(r);
    println!("deque take-vs-steal: {} executions", r.executions);
}

#[test]
fn inbox_push_vs_drain_loses_nothing() {
    let r = ult_model::check(protocols::inbox_push_vs_drain);
    assert_exhaustive_unless_budgeted(r);
    println!("inbox push-vs-drain: {} executions", r.executions);
}

#[test]
fn concurrent_retires_keep_both_nodes() {
    let r = ult_model::check(protocols::concurrent_retires);
    assert_exhaustive_unless_budgeted(r);
    println!("concurrent retires: {} executions", r.executions);
}

#[test]
fn epoch_growth_publication_is_race_free() {
    let r = ult_model::check(protocols::epoch_growth_vs_steal);
    assert_exhaustive_unless_budgeted(r);
    println!("epoch growth-vs-steal: {} executions", r.executions);
}

/// The faithful elide/rearm pairing never strands published work with the
/// tick elided.
#[test]
fn tick_elision_never_strands_work() {
    let outs = ult_model::outcomes(|| protocols::tick_elide_vs_push(false));
    assert!(
        !outs.iter().any(|&(work, elided)| work > 0 && elided),
        "elided tick with work published: {outs:?}"
    );
}

/// The Release/Acquire weakening of the same pairing does strand work —
/// i.e. the model can represent the failure the SeqCst protocol exists
/// to prevent, so the test above has teeth.
#[test]
fn weakened_tick_elision_strands_work() {
    let outs = ult_model::outcomes(|| protocols::tick_elide_vs_push(true));
    assert!(
        outs.contains(&(1, true)),
        "weakened Dekker should reach the stranded state: {outs:?}"
    );
}

/// A worker's own push leaves its elided tick alone; the dispatch that
/// follows re-reads the pools, so a preemptive ULT never ends up running
/// with work queued and no tick — wherever a remote pusher's nudge lands.
#[test]
fn tick_dispatch_after_self_push_never_strands_work() {
    let outs = ult_model::outcomes(|| protocols::tick_dispatch_vs_push(true));
    assert!(
        !outs.iter().any(|&(work, elided)| work > 0 && elided),
        "preemptive occupant, work queued, tick elided: {outs:?}"
    );
    assert!(
        outs.contains(&(1, false)),
        "the remote push was never modelled: {outs:?}"
    );
}

/// A dispatch that trusts the flag instead of the pools does strand the
/// remote push: the nudge found the scheduler context, deferred to "the
/// next dispatch", and that dispatch never looked — so the test above has
/// teeth.
#[test]
fn tick_dispatch_trusting_the_flag_strands_work() {
    let outs = ult_model::outcomes(|| protocols::tick_dispatch_vs_push(false));
    assert!(
        outs.contains(&(1, true)),
        "flag-trusting dispatch should reach the stranded state: {outs:?}"
    );
}

/// The faithful shard-park/doorbell-wake pairing never leaves a worker
/// inside `epoll_wait` with work published and the doorbell silent.
#[test]
fn reactor_shard_parker_is_never_stranded() {
    let outs = ult_model::outcomes(|| protocols::shard_park_vs_wake(false));
    assert!(
        !outs
            .iter()
            .any(|&(parked, doorbell, work)| parked && doorbell == 0 && work > 0),
        "worker stranded in its shard's epoll_wait with work queued: {outs:?}"
    );
}

/// The Release/Acquire weakening of the same pairing does strand the
/// parker — the model can represent the lost wakeup, so the test above
/// has teeth.
#[test]
fn weakened_reactor_wake_strands_shard_parker() {
    let outs = ult_model::outcomes(|| protocols::shard_park_vs_wake(true));
    assert!(
        outs.contains(&(true, 0, 1)),
        "weakened Dekker should reach the stranded state: {outs:?}"
    );
}

/// A readiness delivery on worker A's shard waking a ULT homed on worker
/// B kicks B's flag and B's doorbell: B never strands, and A's own empty
/// shard park is undisturbed (asserted inside the scenario).
#[test]
fn cross_shard_wake_never_strands_the_target() {
    let outs = ult_model::outcomes(|| protocols::cross_shard_wake(false));
    assert!(
        !outs
            .iter()
            .any(|&(parked, doorbell, work)| parked && doorbell == 0 && work > 0),
        "cross-shard wake stranded the target worker: {outs:?}"
    );
}

/// The weakened cross-shard pairing reaches the stranded state — same
/// Dekker, wake originating on a foreign shard.
#[test]
fn weakened_cross_shard_wake_strands_the_target() {
    let outs = ult_model::outcomes(|| protocols::cross_shard_wake(true));
    assert!(
        outs.contains(&(true, 0, 1)),
        "weakened cross-shard Dekker should reach the stranded state: {outs:?}"
    );
}

/// The shared-shard empty-decline heuristic (more workers than reactor
/// shards): publish-the-count-then-kick means an owner that declines the
/// epoll park on a momentarily-empty shard always ends up either woken
/// (token pending) or re-routed to the epoll park — never asleep with
/// armed waiters and no poller.
#[test]
fn armed_publish_never_strands_declining_owner() {
    let outs = ult_model::outcomes(|| protocols::armed_publish_vs_decline(true));
    assert!(
        !outs.iter().any(|&(slept, _, token)| slept && token == 0),
        "owner slept with armed waiters and no pending kick: {outs:?}"
    );
}

/// Kicking before publishing the count lets the owner consume the kick,
/// re-read a still-zero count and sleep — the model reaches the stranded
/// state, so the test above has teeth.
#[test]
fn weakened_kick_before_publish_strands_declining_owner() {
    let outs = ult_model::outcomes(|| protocols::armed_publish_vs_decline(false));
    assert!(
        outs.contains(&(true, false, 0)),
        "kick-before-publish should reach the stranded state: {outs:?}"
    );
}

/// Slot-store-before-arm plus the `EPOLL_CTL_MOD` level-triggered
/// re-report delivers exactly one wake in every interleaving of
/// registration against fd readiness.
#[test]
fn interest_registration_never_loses_readiness() {
    let outs = ult_model::outcomes(|| protocols::interest_registration_vs_readiness(true));
    assert!(
        outs.iter().all(|&wakes| wakes == 1),
        "registration vs readiness must wake exactly once: {outs:?}"
    );
}

/// Arming without the re-report (edge-triggered style) can lose a
/// readiness edge that fired before the arm — the failure mode the
/// level-triggered design exists to exclude.
#[test]
fn interest_without_rereport_can_strand_the_waiter() {
    let outs = ult_model::outcomes(|| protocols::interest_registration_vs_readiness(false));
    assert!(
        outs.contains(&0),
        "without the MOD re-report a pre-arm readiness edge should be lost: {outs:?}"
    );
}

/// Readiness delivery racing deadline expiry: the `TimedWaiter` claim CAS
/// yields exactly one wake in every interleaving (a double wake of a
/// recycled descriptor would be use-after-free in the real runtime).
#[test]
fn readiness_vs_deadline_wakes_exactly_once() {
    let r = ult_model::check(|| {
        let wakes = protocols::readiness_vs_deadline_single_wake();
        assert_eq!(wakes, 1, "claim CAS must produce exactly one wake");
    });
    assert_exhaustive_unless_budgeted(r);
    println!("readiness-vs-deadline: {} executions", r.executions);
}

/// The affinity rebind racing a stale old-shard delivery and the new
/// shard's service pass: exactly one wake in every interleaving — the
/// old-registry removal prevents the double, the `MOD` re-report prevents
/// the strand.
#[test]
fn rebind_vs_stale_delivery_wakes_exactly_once() {
    let r = ult_model::check(|| {
        let wakes = protocols::rebind_vs_stale_delivery();
        assert_eq!(wakes, 1, "rebind must neither strand nor double-wake");
    });
    assert_exhaustive_unless_budgeted(r);
    println!("rebind-vs-stale-delivery: {} executions", r.executions);
}

/// Runs only in the mutation subprocess: checking the deque with the
/// `take_bottom` fence downgraded to Acquire is expected to panic with a
/// double-claim.
#[test]
fn mutant_child() {
    if std::env::var("ULT_MODEL_MUTATION").as_deref() != Ok("1") {
        return;
    }
    ult_model::check(|| protocols::deque_take_vs_steal(true));
}

/// The mutation test proper: seed the fence downgrade in a subprocess and
/// assert the explorer reports the double-claim, quickly.
#[test]
fn mutation_is_caught_by_the_explorer() {
    let start = Instant::now();
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["mutant_child", "--exact", "--nocapture", "--test-threads=1"])
        .env("ULT_MODEL_MUTATION", "1")
        // The child must run the unbudgeted DFS: it stops at the first
        // failing execution anyway, and a quick-mode partial cap would
        // let the mutant slip through as a truncated success.
        .env_remove("ULT_MODEL_MAX_EXECS")
        .env_remove("ULT_MODEL_PARTIAL")
        .output()
        .expect("spawn mutation subprocess");
    let elapsed = start.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "the downgraded take fence must be caught by the explorer\n\
         stdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("double claim") || stderr.contains("double claim"),
        "expected a double-claim report\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        elapsed < Duration::from_secs(60),
        "mutation detection took {elapsed:?} (budget 60s)"
    );
}

/// Clear-then-signal: the dispatch a watcher kick causes always finds the
/// shard unwatched and arms it again.
#[test]
fn watch_is_rearmed_by_the_dispatch_its_kick_causes() {
    let outs = ult_model::outcomes(|| protocols::watch_arm_vs_fire(true));
    assert!(
        !outs.contains(&(true, false)),
        "worker dispatched past a spent watch without arming it: {outs:?}"
    );
    assert!(
        outs.contains(&(true, true)),
        "dispatch never modelled: {outs:?}"
    );
}

/// Signal-then-clear loses the watch: the dispatch trusts the stale owner
/// and the late clear leaves the shard unwatched until the next tick — the
/// model reaches that state, so the test above has teeth.
#[test]
fn signal_before_clear_leaves_the_shard_unwatched() {
    let outs = ult_model::outcomes(|| protocols::watch_arm_vs_fire(false));
    assert!(
        outs.contains(&(true, false)),
        "signal-then-clear should reach the unwatched state: {outs:?}"
    );
}

/// The faithful quantum-publish pairing: a handler observing the cleared
/// deadline always observes the shrunk floor quantum.
#[test]
fn quantum_publish_is_ordered_before_deadline() {
    let outs = ult_model::outcomes(|| protocols::quantum_publish_vs_handler(false));
    assert!(
        !outs
            .iter()
            .any(|&(dl, q)| dl == 0 && q != protocols::QP_FLOOR),
        "handler saw the cleared deadline with a stale quantum: {outs:?}"
    );
}

/// The Relaxed weakening of the same pairing lets the handler pair the
/// cleared deadline with the stale base quantum — the model can represent
/// the stale re-arm, so the test above has teeth.
#[test]
fn weakened_quantum_publish_rearms_stale() {
    let outs = ult_model::outcomes(|| protocols::quantum_publish_vs_handler(true));
    assert!(
        outs.contains(&(0, protocols::QP_BASE)),
        "weakened publish should reach the stale-quantum re-arm: {outs:?}"
    );
}

/// The faithful MCS handoff: a granter that saw PARKED always sees the
/// published ULT (no lost wakeup), and a waiter whose park lost to the
/// grant always sees the critical-section data (no torn handoff).
#[test]
fn mcs_handoff_never_loses_the_parked_ult() {
    let outs = ult_model::outcomes(|| protocols::mcs_handoff_vs_park(false));
    assert!(
        !outs.iter().any(|&(_, _, got_ult)| got_ult == 0),
        "granter saw PARKED but an empty ult slot (lost wakeup): {outs:?}"
    );
    assert!(
        !outs.iter().any(|&(parked, data, _)| !parked && data == 0),
        "abort-path waiter entered the critical section with stale data: {outs:?}"
    );
}

/// The Relaxed weakening of the slot/data publication reaches both
/// failure states — the invariants above have teeth.
#[test]
fn weakened_mcs_handoff_loses_ult_or_data() {
    let outs = ult_model::outcomes(|| protocols::mcs_handoff_vs_park(true));
    assert!(
        outs.iter().any(|&(_, _, got_ult)| got_ult == 0),
        "weakened publication should reach the empty-slot grant: {outs:?}"
    );
    assert!(
        outs.iter().any(|&(parked, data, _)| !parked && data == 0),
        "weakened publication should reach the stale-data abort: {outs:?}"
    );
}

/// The MCS tail race, exhaustively: releaser and enqueuer always agree on
/// who owns the lock next (no lost handoff, no double claim).
#[test]
fn mcs_release_vs_enqueue_agrees_on_ownership() {
    let r = ult_model::check(protocols::mcs_release_vs_enqueue);
    assert_exhaustive_unless_budgeted(r);
    println!("mcs release-vs-enqueue: {} executions", r.executions);
}

/// The task waker pairing (`ult-io`'s `task.rs`): the slot
/// publication is ordered before the IDLE→PARKED commit, so the waker
/// that claims the PARKED→NOTIFIED edge always finds the published host
/// ULT, and a poll-abort reclaim always finds it too — no interleaving
/// parks the task with the wake walking away empty-handed.
#[test]
fn waker_parked_claim_always_finds_the_ult() {
    let outs = ult_model::outcomes(|| protocols::waker_park_vs_wake(false));
    assert!(
        !outs.iter().any(|&(parked, got, _)| parked && got != 1),
        "PARKED claimed without the published ULT: {outs:?}"
    );
    assert!(
        !outs.iter().any(|&(_, _, reclaimed)| reclaimed == 0),
        "poll-abort reclaim missed the published slot: {outs:?}"
    );
}

/// The all-Relaxed weakening of the same pairing provably reaches the
/// lost wakeup — the executor commits to PARKED while the PARKED-claim
/// winner reads an empty slot, stranding the task forever — so the test
/// above has teeth.
#[test]
fn weakened_waker_reaches_the_lost_wakeup() {
    let outs = ult_model::outcomes(|| protocols::waker_park_vs_wake(true));
    assert!(
        outs.iter().any(|&(parked, got, _)| parked && got == 0),
        "weakened waker should reach the lost wakeup: {outs:?}"
    );
}

/// The one wait mechanism under every `ult-sync` primitive: with `ready`
/// evaluated under the queue lock and the waiter published before the
/// unlock, no interleaving parks a waiter the waker does not pop.
#[test]
fn waitqueue_park_vs_wake_never_loses_the_wakeup() {
    let (report, outs) = ult_model::explore(ult_model::Config::default(), || {
        protocols::waitqueue_park_vs_wake(true)
    });
    assert_exhaustive_unless_budgeted(report);
    println!("waitqueue park-vs-wake: {} executions", report.executions);
    assert!(
        !outs.contains(&Some((true, false))),
        "waiter parked and the waker found the queue empty: {outs:?}"
    );
    // Both orders are modelled: the waker first (nothing parks) and the
    // waiter first (it parks and is popped).
    assert!(outs.contains(&Some((false, false))), "{outs:?}");
    assert!(outs.contains(&Some((true, true))), "{outs:?}");
}

/// Checking before the lock is taken loses the wake-up — the model reaches
/// it, so the test above has teeth.
#[test]
fn waitqueue_check_before_lock_loses_the_wakeup() {
    let outs = ult_model::outcomes(|| protocols::waitqueue_park_vs_wake(false));
    assert!(
        outs.contains(&Some((true, false))),
        "check-then-lock should reach the lost wake-up: {outs:?}"
    );
}
