//! `compute_sy` / `compute_ks`: four preemptive spinners per worker, each
//! running the fixed LCG unit back to back, at the paper's smallest tick
//! (100 µs, Fig. 6). Closed loop. The only way a spinner stops is the timer:
//! the preemption path (signal-yield, or KLT-switching) is the layer under
//! test, and everything else idles.
//!
//! The spinner set is also the background load of `echo_busy`.

use super::{mark, since, Finish, Mark, Params, Progress, Trial, Window, Workload};
use crate::metrics::Values;
use crate::trace::{self, Span, SpanBuf};
use crate::work::{burn, calibrate_ns, lcg_jump, COMPUTE_UNIT};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use ult_core::{Config, Runtime, SchedClass, SpawnAttrs, ThreadKind};

const PER_WORKER: usize = 4;
const TICK_NS: u64 = 100_000;
/// An inter-unit interval longer than this means the spinner was off the
/// CPU (a unit is 2–3 µs).
const GAP_NS: u64 = 5_000;
/// Units every spinner has done before set-up counts as finished (≈ 0.1 s
/// of each worker).
const WARM_UNITS: u64 = 10_000;
/// The shortest window over which spinners are compared for starvation.
const STARVATION_MIN_SECS: f64 = 1.0;

thread_local! {
    /// Its address identifies the KLT. Touched by KLT-switching spinners
    /// only: KLT-local state is exactly what signal-yield ULTs must avoid.
    static KLT_MARK: u8 = const { 0 };
}

fn klt_mark() -> usize {
    KLT_MARK.with(|m| m as *const u8 as usize)
}

struct Shared {
    stop: AtomicBool, // ordering: relaxed flag polled once per unit; the join publishes results
    tracing: AtomicBool, // ordering: relaxed sampling switch
    progress: Vec<Progress>,
    /// Times a KLT-switching spinner found itself on another kernel thread.
    klt_changes: AtomicU64, // ordering: counter
}

/// A set of spinner ULTs that run until stopped.
pub struct Spinners {
    shared: Arc<Shared>,
    handles: Vec<ult_core::JoinHandle<(u64, u64, SpanBuf)>>,
    workers: usize,
    unit_ns: f64,
    /// Units of spinners that a window found starved.
    starved: u64,
}

/// What the spinners did inside one window.
pub struct SpinnerDelta {
    pub units: u64,
    /// Sorted off-CPU gaps, ns.
    pub gap_ns: Vec<u64>,
    /// Times a KLT-switching spinner came back on another kernel thread.
    pub klt_changes: u64,
    /// Units done on the worker that did the least ÷ on the one that did
    /// the most.
    pub worker_balance: f64,
}

pub struct SpinnersDone {
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl Spinners {
    /// Spawn `per_worker` spinners of `kind` on each of `workers` workers and
    /// wait until each has done [`WARM_UNITS`].
    pub fn spawn(
        rt: &Runtime,
        workers: usize,
        per_worker: usize,
        kind: ThreadKind,
        class: SchedClass,
        tick_ns: u64,
        p: &Params,
    ) -> Spinners {
        let unit_ns = calibrate_ns(COMPUTE_UNIT);
        // One gap per turn on the CPU; room for twice the tick rate.
        let gap_cap =
            ((p.measure_secs + 1.0) * 2.0e9 / (tick_ns * per_worker as u64) as f64) as usize + 4096;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            tracing: AtomicBool::new(false),
            progress: (0..workers * per_worker)
                .map(|_| Progress::new(gap_cap))
                .collect(),
            klt_changes: AtomicU64::new(0),
        });
        let span_cap = if p.traced { gap_cap } else { 0 };
        let handles = (0..workers * per_worker)
            .map(|id| {
                let shared = shared.clone();
                let attrs = SpawnAttrs::new().kind(kind).class(class).on(id % workers);
                let ks = kind == ThreadKind::KltSwitching;
                // Reserved here, on the spawning OS thread: a signal-yield
                // ULT must not allocate.
                let spans = SpanBuf::new(span_cap);
                rt.spawn_attrs(attrs, move || spin(id, &shared, ks, unit_ns as u64, spans))
            })
            .collect();
        while shared.progress.iter().any(|p| p.ops() < WARM_UNITS) {
            std::thread::sleep(std::time::Duration::from_micros(500));
        }
        Spinners {
            shared,
            handles,
            workers,
            unit_ns,
            starved: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.handles.len()
    }

    pub fn unit_ns(&self) -> f64 {
        self.unit_ns
    }

    pub fn open(&self, traced: bool) -> (Mark, u64) {
        self.shared.tracing.store(traced, Ordering::Relaxed);
        (
            mark(&self.shared.progress),
            self.shared.klt_changes.load(Ordering::Relaxed),
        )
    }

    /// `secs` is how long the window was open.
    pub fn close(&mut self, (m, klt_changes): (Mark, u64), secs: f64) -> SpinnerDelta {
        self.shared.tracing.store(false, Ordering::Relaxed);
        let (per_spinner, gap_ns) = since(&self.shared.progress, &m);
        // Starvation is a wrong output of a preemptive scheduler: a spinner
        // with less than half the work of the best one on its worker did
        // not get its turns. Spinner `id` was placed on worker `id % W` and
        // is never stolen (its worker's pool is never empty), so the
        // comparison stays on one CPU. Between workers the host has a say
        // (one vCPU in turbo, the other not), and under KLT-switching the
        // second worker does 58-84 % of the first one's work on this host,
        // now and then less than half: that is `core.sched.worker_balance`,
        // a measurement, not a spinner that lost its turns. Judged over
        // windows of a second or more only: a CPU that idled for a moment
        // runs at half speed for the next 0.7 s.
        let starved = starved_units(&per_spinner, self.workers);
        if starved > 0 && secs >= STARVATION_MIN_SECS {
            eprintln!(
                "check FAILED: units per spinner {per_spinner:?}: some got less than half the best on their worker"
            );
            self.starved += starved;
        }
        let per_worker =
            |w: usize| -> u64 { per_spinner.iter().skip(w).step_by(self.workers).sum() };
        let (least, most) = (0..self.workers).fold((u64::MAX, 0), |(lo, hi), w| {
            (lo.min(per_worker(w)), hi.max(per_worker(w)))
        });
        SpinnerDelta {
            worker_balance: least as f64 / most.max(1) as f64,
            units: per_spinner.iter().sum(),
            gap_ns,
            klt_changes: self.shared.klt_changes.load(Ordering::Relaxed) - klt_changes,
        }
    }

    /// Stop, join and verify.
    pub fn finish(self) -> SpinnersDone {
        self.shared.stop.store(true, Ordering::Relaxed);
        let mut done = SpinnersDone {
            attempted: 0,
            failed: self.starved,
            spans: Vec::new(),
            dropped: 0,
        };
        for (id, h) in self.handles.into_iter().enumerate() {
            let (units, last_x, mut spans) = h.join();
            done.attempted += units;
            // The whole chain, checked at its end (see `lcg_jump`).
            if last_x != lcg_jump(id as u64, units * u64::from(COMPUTE_UNIT)) {
                eprintln!(
                    "check FAILED: spinner {id}: chain of {units} units ends in the wrong value"
                );
                done.failed += units;
            }
            let (spans, dropped) = spans.take();
            done.spans.extend(spans);
            done.dropped += dropped + self.shared.progress[id].dropped();
        }
        done
    }
}

/// The units of every spinner that did less than half the work of the best
/// spinner placed on the same worker (spinner `id` is on worker `id % workers`).
fn starved_units(per_spinner: &[u64], workers: usize) -> u64 {
    (0..workers)
        .map(|w| {
            let mine = || per_spinner.iter().skip(w).step_by(workers).copied();
            let best = mine().max().unwrap_or(0);
            mine().filter(|&u| u * 2 < best).sum::<u64>()
        })
        .sum()
}

/// A spinner's body: (units done, last chain value, spans). Allocation-free:
/// `spans` arrives with its memory reserved.
fn spin(
    id: usize,
    shared: &Shared,
    ks: bool,
    unit_ns: u64,
    mut spans: SpanBuf,
) -> (u64, u64, SpanBuf) {
    let me = &shared.progress[id];
    let (mut units, mut x) = (0u64, id as u64);
    let mut home = if ks {
        (ult_sys::gettid(), klt_mark())
    } else {
        (0, 0)
    };
    let mut last = ult_sys::now_ns();
    while !shared.stop.load(Ordering::Relaxed) {
        x = burn(x, COMPUTE_UNIT);
        units += 1;
        me.set_ops(units);
        let now = ult_sys::now_ns();
        if now - last > GAP_NS {
            let off = (now - last).saturating_sub(unit_ns);
            let slot = me.sample(off);
            if shared.tracing.load(Ordering::Relaxed) {
                spans.record(
                    trace::GAP,
                    ((id as u64) << 32) | slot as u64,
                    None,
                    now - off,
                    now,
                );
            }
            // Off the CPU means preempted: the one place the kernel thread
            // under a KLT-switching ULT could have changed.
            if ks && ult_sys::gettid() != home.0 {
                shared.klt_changes.fetch_add(1, Ordering::Relaxed);
                home = (ult_sys::gettid(), klt_mark());
            }
        }
        if ks && klt_mark() != home.1 {
            shared.klt_changes.fetch_add(1, Ordering::Relaxed);
            home = (ult_sys::gettid(), klt_mark());
        }
        last = now;
    }
    (units, x, spans)
}

/// `KS` selects KLT-switching spinners; otherwise signal-yield.
pub struct Compute<const KS: bool> {
    rt: Runtime,
    workers: usize,
    spinners: Spinners,
}

pub type ComputeSy = Compute<false>;
pub type ComputeKs = Compute<true>;

impl<const KS: bool> Workload for Compute<KS> {
    fn setup(p: &Params) -> Self {
        let workers = crate::host::nproc();
        let rt = Runtime::start(Config {
            num_workers: workers,
            preempt_interval_ns: TICK_NS,
            ..Config::default()
        });
        let kind = if KS {
            ThreadKind::KltSwitching
        } else {
            ThreadKind::SignalYield
        };
        let spinners = Spinners::spawn(
            &rt,
            workers,
            PER_WORKER,
            kind,
            SchedClass::Normal,
            TICK_NS,
            p,
        );
        Compute {
            rt,
            workers,
            spinners,
        }
    }

    fn workers(&self) -> usize {
        self.workers
    }

    fn sizing(&self) -> String {
        format!(
            "closed-loop spinners={} tick_ns={TICK_NS} unit={COMPUTE_UNIT}steps unit_ns={:.0}",
            self.spinners.len(),
            self.spinners.unit_ns()
        )
    }

    fn trial(&mut self, secs: f64, traced: bool) -> Trial {
        let win = Window::open(&self.rt);
        let sw = self.spinners.open(traced);
        std::thread::sleep(std::time::Duration::from_secs_f64(secs));
        let d = self.spinners.close(sw, secs);
        let (secs, stats, usage) = win.close(&self.rt);
        let mut extra = Values::default();
        // Worker time not spent in units, per preemption: what a preemption
        // costs end to end (handler, switch, timer re-arm, cache refill).
        let lost_ns = secs * 1e9 * self.workers as f64 - d.units as f64 * self.spinners.unit_ns();
        if stats.preemptions > 0 {
            extra.set(
                "core.preempt.cost_per_preempt_us",
                lost_ns / stats.preemptions as f64 / 1e3,
            );
        }
        extra.set_percentile("core.preempt.gap_p50_us", &d.gap_ns, 0.5, 1e3);
        extra.set("core.klt.identity_changes", d.klt_changes as f64);
        extra.set("core.sched.worker_balance", d.worker_balance);
        // The op's latency is the wait for the next turn on the CPU.
        Trial {
            secs,
            ops: d.units,
            lat_ns: d.gap_ns,
            reqs: 0,
            stats,
            usage,
            gen_cpu_s: 0.0,
            extra,
        }
    }

    fn finish(self) -> Finish {
        let done = self.spinners.finish();
        self.rt.shutdown();
        Finish {
            attempted: done.attempted,
            failed: done.failed,
            spans: done.spans,
            spans_dropped: done.dropped,
            extra: Values::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::starved_units;

    #[test]
    fn starvation_is_judged_per_worker() {
        // A slow second CPU starves nobody...
        assert_eq!(starved_units(&[100, 40, 101, 41, 99, 42, 100, 40], 2), 0);
        // ...a spinner that lost its turns to its neighbours does.
        assert_eq!(starved_units(&[100, 40, 101, 41, 99, 19, 30, 40], 2), 49);
        assert_eq!(starved_units(&[100, 49], 1), 49);
        assert_eq!(starved_units(&[], 2), 0);
    }
}
