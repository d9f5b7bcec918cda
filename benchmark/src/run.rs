//! One run of one workload in this process: set-up (repeated, for
//! `setup_s`), the timed trials, verification, and the reduction of trials
//! to the named metrics.

use crate::host;
use crate::metrics::{ResultLine, Values, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, range_share, supported_tail};
use crate::workloads::{self, Params, Trial, Workload};
use crate::{probes, trace, Args};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

pub fn run_named(name: &str, args: &Args) -> ResultLine {
    match name {
        "forkjoin" => run::<workloads::forkjoin::ForkJoin>(name, args),
        "compute_sy" => run::<workloads::compute::ComputeSy>(name, args),
        "compute_ks" => run::<workloads::compute::ComputeKs>(name, args),
        "echo_idle" => run::<workloads::echo::EchoIdle>(name, args),
        "echo_busy" => run::<workloads::echo::EchoBusy>(name, args),
        "sync_mutex" => run::<workloads::sync::SyncMutex>(name, args),
        "sync_mcs" => run::<workloads::sync::SyncMcs>(name, args),
        "sync_chan" => run::<workloads::sync::SyncChan>(name, args),
        other => unreachable!("{other} passed argument parsing"),
    }
}

/// NaN when the trial took no latency sample: reporting that is refused.
fn p50_us(t: &Trial) -> f64 {
    if t.lat_ns.is_empty() {
        f64::NAN
    } else {
        percentile(&t.lat_ns, 0.5) as f64 / 1e3
    }
}

fn ops_per_s(t: &Trial) -> f64 {
    t.ops as f64 / t.secs
}

/// CPU the runtime's side of the process spent per op, µs.
fn cpu_us_per_op(t: &Trial) -> f64 {
    (t.usage.cpu_s() - t.gen_cpu_s).max(0.0) * 1e6 / t.ops.max(1) as f64
}

/// Counter and usage deltas of one trial, normalised into per-layer values.
fn layer_values(t: &Trial) -> Values {
    let mut v = Values::default();
    let s = &t.stats;
    let per_s = |n: u64| n as f64 / t.secs;
    let per_kop = |n: u64| n as f64 * 1e3 / t.ops.max(1) as f64;
    let share = |n: u64, of: u64| if of == 0 { 0.0 } else { n as f64 / of as f64 };
    v.set("core.sched.steals_per_kop", per_kop(s.steals));
    v.set("core.sched.unparks_per_kop", per_kop(s.unparks));
    v.set("core.preempt.preemptions_per_s", per_s(s.preemptions));
    v.set("core.preempt.timer_ticks_per_s", per_s(s.timer_ticks));
    v.set(
        "core.preempt.useful_share",
        share(s.preemptions, s.timer_ticks),
    );
    v.set(
        "core.preempt.filtered_share",
        share(s.filtered_ticks, s.timer_ticks),
    );
    v.set("core.preempt.tick_elisions_per_s", per_s(s.tick_elisions));
    v.set("core.preempt.tick_rearms_per_s", per_s(s.tick_rearms));
    v.set("core.preempt.deferred_ticks", s.deferred_ticks as f64);
    v.set("core.preempt.stale_ticks", s.stale_ticks as f64);
    v.set("core.preempt.timer_overruns", s.timer_overruns as f64);
    v.set("core.klt.switches_per_s", per_s(s.klt_switches));
    v.set("core.klt.captive_resumes_per_s", per_s(s.captive_resumes));
    v.set("core.klt.misses", s.klt_misses as f64);
    v.set("core.klt.created", s.klts_created as f64);
    if t.reqs > 0 {
        let per_req = |n: u64| n as f64 / t.reqs as f64;
        v.set("io.reactor.polls_per_req", per_req(s.io_polls));
        v.set("io.reactor.parks_per_req", per_req(s.io_parks));
        v.set("io.reactor.doorbells_per_req", per_req(s.io_doorbell_rings));
        v.set("future.task.unparks_per_req", per_req(s.async_unparks));
    }
    v.set(
        "io.reactor.cross_shard_wakes",
        s.io_cross_shard_wakes as f64,
    );
    v.set("io.reactor.fd_rebinds", s.io_fd_rebinds as f64);
    v.set(
        "io.bufpool.hit_share",
        share(s.io_bufpool_hits, s.io_bufpool_hits + s.io_bufpool_misses),
    );
    v.set("sync.mcs.handoffs_per_op", share(s.mcs_handoffs, t.ops));
    v.set("sync.mcs.suspends_per_op", share(s.mcs_suspends, t.ops));
    v.set("proc.cpu_user_s", t.usage.user_s);
    v.set("proc.cpu_sys_s", t.usage.sys_s);
    v.set(
        "proc.sys_share",
        if t.usage.cpu_s() > 0.0 {
            t.usage.sys_s / t.usage.cpu_s()
        } else {
            0.0
        },
    );
    v.set("proc.vol_cs_per_kop", per_kop(t.usage.vol_cs));
    v.set("proc.invol_cs_per_kop", per_kop(t.usage.invol_cs));
    v.set("proc.minor_faults_per_kop", per_kop(t.usage.minor_faults));
    if !t.lat_ns.is_empty() {
        let tail = supported_tail(t.lat_ns.len());
        v.set("lat_tail_us", percentile(&t.lat_ns, tail) as f64 / 1e3);
        v.set("lat_tail_pct", tail * 100.0);
        v.set("lat_samples", t.lat_ns.len() as f64);
    }
    v
}

/// The mechanism each workload exists to exercise, checked from the
/// counters: a mis-sized workload should be caught, not trusted.
pub fn guards(name: &str, workers: usize, v: &Values) -> Vec<(String, bool)> {
    let get = |k: &str| v.get(k).unwrap_or(0.0);
    let w = workers as f64;
    let mut g = Vec::new();
    let mut check = |what: String, ok: bool| g.push((what, ok));
    match name {
        "forkjoin" => {
            check(
                format!(
                    "preemptions_per_s {:.1} ~ 0 (nonpreemptive children)",
                    get("core.preempt.preemptions_per_s")
                ),
                get("core.preempt.preemptions_per_s") < 1.0,
            );
            check(
                "io.reactor.polls_per_req n/a (no requests)".into(),
                v.get("io.reactor.polls_per_req").is_none(),
            );
        }
        "compute_sy" => {
            let floor = 0.7 * w * 1e4;
            check(
                format!(
                    "preemptions_per_s {:.0} >= {floor:.0} (0.7*W*1e4)",
                    get("core.preempt.preemptions_per_s")
                ),
                get("core.preempt.preemptions_per_s") >= floor,
            );
            check(
                format!(
                    "klt.switches_per_s {:.1} = 0",
                    get("core.klt.switches_per_s")
                ),
                get("core.klt.switches_per_s") == 0.0,
            );
        }
        "compute_ks" => {
            check(
                format!(
                    "klt.switches_per_s {:.0} > 0",
                    get("core.klt.switches_per_s")
                ),
                get("core.klt.switches_per_s") > 0.0,
            );
            // Paper §3.1.2: a KLT-switching ULT resumes on its own kernel
            // thread. Not a failed op (the units' values are still right),
            // but never to be read past either.
            check(
                format!(
                    "klt.identity_changes {:.0} = 0 (spinner came back on another KLT)",
                    get("core.klt.identity_changes")
                ),
                get("core.klt.identity_changes") == 0.0,
            );
        }
        "echo_idle" => {
            check(
                format!(
                    "parks_per_req {:.2} >= 0.5 (worker sleeps in epoll_wait)",
                    get("io.reactor.parks_per_req")
                ),
                get("io.reactor.parks_per_req") >= 0.5,
            );
            check(
                format!(
                    "preemptions_per_s {:.1} ~ 0 (nothing to preempt)",
                    get("core.preempt.preemptions_per_s")
                ),
                get("core.preempt.preemptions_per_s") < 20.0,
            );
        }
        "echo_busy" => {
            check(
                format!(
                    "parks_per_req {:.3} ~ 0 (worker never sleeps)",
                    get("io.reactor.parks_per_req")
                ),
                get("io.reactor.parks_per_req") < 0.05,
            );
            check(
                format!(
                    "backlog growth {:.0} <= 8 (rate is sustained)",
                    get("gen.backlog_growth")
                ),
                get("gen.backlog_growth") <= 8.0,
            );
        }
        // The lock and channel workloads have no mechanism to mis-size:
        // whatever contention does is the measurement.
        _ => {}
    }
    g
}

/// Print guards; returns how many failed.
fn report_guards(name: &str, workers: usize, v: &Values) -> usize {
    let g = guards(name, workers, v);
    for (what, ok) in &g {
        eprintln!("guard {}: {what}", if *ok { "PASS" } else { "FAIL" });
    }
    g.iter().filter(|g| !g.1).count()
}

fn run<W: Workload>(name: &str, args: &Args) -> ResultLine {
    let load_before = host::loadavg_1m();
    host::wake_cpus();
    let params = Params {
        seed: args.seed,
        traced: args.trace,
        measure_secs: args.seconds,
        fault: false,
    };
    let (mut attempted, mut failed) = (0, 0);
    let mut values = if args.trace {
        let v = probes::run(name);
        // The probes kept one CPU busy and let the others cool down again.
        host::wake_cpus();
        v
    } else {
        Values::default()
    };

    // Set-up, timed; `timed_setup` is called again after the measurement.
    let mut setup_s = Vec::new();
    let mut timed_setup = || {
        let t0 = ult_sys::now_ns();
        let w = W::setup(&params);
        setup_s.push((ult_sys::now_ns() - t0) as f64 / 1e9);
        w
    };
    let mut w = timed_setup();
    eprintln!(
        "{}",
        host::fingerprint(
            w.workers(),
            args.seed,
            &format!("workload={name} {}", w.sizing())
        )
    );

    let trials: Vec<Trial> = if args.trace {
        // Half the time untraced (counters, and the base the overhead is
        // measured against), half traced (spans) — in quarters, traced ones
        // outermost, so that warm-up and CPU-speed drift along the run fall
        // on both sides alike.
        [true, false, false, true]
            .map(|traced| w.trial(args.seconds / 4.0, traced))
            .into()
    } else {
        (0..args.trials)
            .map(|_| w.trial(args.seconds / args.trials as f64, false))
            .collect()
    };
    let workers = w.workers();
    let fin = w.finish();
    attempted += fin.attempted;
    failed += fin.failed;
    // The untraced run sets up again and again so that `setup_s` is a
    // median; each extra instance is torn down (and verified) untimed.
    if !args.trace {
        for _ in 1..SETUP_REPS {
            let f = timed_setup().finish();
            attempted += f.attempted;
            failed += f.failed;
        }
    }

    let result = if args.trace {
        let [t0, u1, u2, t3] = &trials[..] else {
            unreachable!("four quarters")
        };
        // Where several quarters measured a value, the last untraced one
        // stands.
        for part in [
            &t0.extra,
            &t3.extra,
            &u1.extra,
            &layer_values(u2),
            &u2.extra,
            &fin.extra,
        ] {
            values.extend(part);
        }
        // What recording spans cost the workload's own headline number:
        // latency where the rate is fixed by the schedule, else throughput.
        let headline = if W::OPEN_LOOP { p50_us } else { ops_per_s };
        let (plain, traced) = (
            (headline(u1) + headline(u2)) / 2.0,
            (headline(t0) + headline(t3)) / 2.0,
        );
        let overhead = if W::OPEN_LOOP {
            (traced - plain) / plain
        } else {
            (plain - traced) / plain
        };
        if overhead.is_finite() {
            values.set("trace.overhead_pct", overhead * 100.0);
        }
        let mut spans = fin.spans;
        let orphans = trace::drop_orphans(&mut spans);
        values.set("trace.spans", spans.len() as f64);
        values.set("trace.dropped", (fin.spans_dropped + orphans) as f64);
        let path = args.out.join(format!("trace_{name}.jsonl"));
        match std::fs::create_dir_all(&args.out).and_then(|()| trace::write_jsonl(&path, &spans)) {
            Ok(()) => eprintln!("trace: {} spans -> {}", spans.len(), path.display()),
            Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
        }
        values.set("guard.failed", report_guards(name, workers, &values) as f64);
        ResultLine::build(attempted.max(1), failed, PER_LAYER, &values, false)
    } else {
        for (name, f) in [
            ("ops_per_s", ops_per_s as fn(&Trial) -> f64),
            ("lat_p50_us", p50_us),
            ("cpu_us_per_op", cpu_us_per_op),
        ] {
            let per_trial: Vec<f64> = trials.iter().map(f).collect();
            let (m, spread) = (median(&per_trial), range_share(&per_trial));
            let samples: usize = trials
                .iter()
                .map(|t| {
                    if name == "lat_p50_us" {
                        t.lat_ns.len()
                    } else {
                        t.ops as usize
                    }
                })
                .sum();
            eprintln!(
                "{name}: median {m:.4} over {} trials, trial spread {:.1}%, {samples} samples",
                trials.len(),
                spread * 100.0
            );
            values.set(name, m);
        }
        values.set("peak_rss_mb", host::peak_rss_mb());
        values.set("setup_s", median(&setup_s));
        eprintln!(
            "setup_s: median {:.4} over {} set-ups {setup_s:.4?}, spread {:.1}%",
            median(&setup_s),
            setup_s.len(),
            range_share(&setup_s) * 100.0
        );
        let mid = &trials[trials.len() / 2];
        let mut counters = layer_values(mid);
        counters.extend(&mid.extra);
        report_guards(name, workers, &counters);
        ResultLine::build(attempted.max(1), failed, END_TO_END, &values, true)
    };
    eprintln!("ops_attempted={attempted} ops_failed={failed}");
    eprintln!("{}", host::load_note(load_before, host::loadavg_1m()));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{echo::EchoIdle, forkjoin::ForkJoin};

    /// The reactor's shards are per process and keyed by worker rank, so two
    /// runtimes alive at once share them; these tests take turns.
    static ONE_RUNTIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// A whole (tiny) run: set-up with its warm-up, one 0.1 s trial, verify.
    fn attempted_and_failed<W: Workload>(fault: bool) -> (u64, u64) {
        let _turn = ONE_RUNTIME
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let mut w = W::setup(&Params {
            seed: 3,
            traced: false,
            measure_secs: 0.1,
            fault,
        });
        w.trial(0.1, false);
        let f = w.finish();
        (f.attempted, f.failed)
    }

    #[test]
    fn corrupting_one_join_value_raises_failed_ops() {
        let (attempted, failed) = attempted_and_failed::<ForkJoin>(false);
        assert!(
            attempted > 1000 && failed == 0,
            "{failed} of {attempted} failed without a fault"
        );
        assert!(attempted_and_failed::<ForkJoin>(true).1 > 0);
    }

    #[test]
    fn corrupting_one_echoed_byte_raises_failed_ops() {
        let (attempted, failed) = attempted_and_failed::<EchoIdle>(false);
        assert!(
            attempted > 100 && failed == 0,
            "{failed} of {attempted} failed without a fault"
        );
        assert_eq!(attempted_and_failed::<EchoIdle>(true).1, 1);
    }

    #[test]
    fn failed_ops_make_the_result_incorrect() {
        let mut v = Values::default();
        for d in END_TO_END {
            v.set(d.name, 1.0);
        }
        let failed = 3u64;
        let r = ResultLine::build(10, failed, END_TO_END, &v, true);
        assert!(!r.correct && r.failed == 3 && r.attempted == 10);
    }

    #[test]
    fn guards_catch_a_missized_workload() {
        let mut v = Values::default();
        v.set("core.preempt.preemptions_per_s", 19_000.0);
        assert!(guards("compute_sy", 2, &v).iter().all(|g| g.1));
        // Half the workers' ticks missing, or the wrong mechanism at work.
        v.set("core.preempt.preemptions_per_s", 9_000.0);
        assert!(!guards("compute_sy", 2, &v)[0].1);
        v.set("core.klt.switches_per_s", 5.0);
        assert!(!guards("compute_sy", 2, &v)[1].1);
        assert!(guards("compute_ks", 2, &v).iter().all(|g| g.1));
        v.set("core.klt.identity_changes", 1.0);
        assert!(
            !guards("compute_ks", 2, &v)[1].1,
            "a ULT that changed KLT must be flagged"
        );

        let mut idle = Values::default();
        idle.set("io.reactor.parks_per_req", 0.9);
        assert!(guards("echo_idle", 1, &idle).iter().all(|g| g.1));
        assert!(
            !guards("echo_busy", 1, &idle)[0].1,
            "a busy worker must not park"
        );
        idle.set("gen.backlog_growth", 40.0);
        assert!(
            !guards("echo_busy", 1, &idle)[1].1,
            "a growing queue must be flagged"
        );
        assert!(
            !guards("forkjoin", 2, &idle).is_empty() && guards("sync_mcs", 2, &idle).is_empty()
        );
    }
}
