//! `sync_mutex` / `sync_mcs` / `sync_chan`: four ULTs per worker contending
//! on one `ult-sync` primitive. Closed loop. The suspend/handoff path and
//! cross-worker block/wake show here and nowhere else; which lock should be
//! the runtime's default (ROADMAP 4 "Locks") is a question about the first
//! two rows.
//!
//! The ULTs are nonpreemptive. The channel ULTs block on every message; the
//! lock ULTs give up the worker themselves, once per [`YIELD_EVERY`] ops
//! (about 3 ms of `Mutex` ops, a few ticks) — and every fourth time from
//! *inside* the critical section, so that a descheduled holder, which is
//! what a timer tick produces now and then, stays part of the workload.
//! Preemptive ULTs cannot be used here yet: `ult-sync` takes its internal
//! spin locks with preemption enabled in `unlock`/`notify_one` but with the
//! worker pinned in the `block_current` registration, so a holder preempted
//! at the wrong instruction leaves both workers spinning unpreemptibly.
//! With `KltSwitching` ULTs a channel workload hung within seconds in two
//! runs of three.

use super::{mark, since, Finish, Params, Progress, Trial, Window, Workload};
use crate::metrics::Values;
use crate::trace::{self, Span, SpanBuf};
use crate::work::{burn, lcg_jump, SYNC_UNIT};
use std::ops::DerefMut;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use ult_core::{Config, Runtime, SpawnAttrs};

const PER_WORKER: usize = 4;
const CHANNEL_CAP: usize = 64;
/// Lock ops between two cooperative yields of one ULT.
const YIELD_EVERY: u64 = 1024;
/// Units of work outside the lock per unit inside. At 2 (the lock is wanted
/// two thirds of the time) `Mutex` throughput on two workers wanders between
/// regimes — 12–35 % run-to-run quartile spread on the reference host; at 8
/// the lock is still contended on about one acquisition in five and the
/// spread is 3–5 %.
const OUTSIDE_UNITS: u32 = 8;
/// One op in this many is timed: two clock reads would otherwise be a
/// tenth of an uncontended lock op, and most of a channel message. The
/// strides aim at ~25k samples/s from this host's op rates.
const LOCK_SAMPLE_EVERY: u64 = 64;
const CHANNEL_SAMPLE_EVERY: u64 = 16;
/// Latency samples the logs have room for, per second of measurement.
const SAMPLES_PER_S: f64 = 40_000.0;

pub struct Shared {
    stop: AtomicBool, // ordering: relaxed flag polled once per op; the join publishes results
    tracing: AtomicBool, // ordering: relaxed sampling switch
    progress: Vec<Progress>,
}

/// A lock guarding a counter, as the lock workloads see it.
pub trait Lock: Send + Sync + 'static {
    type Guard<'a>: DerefMut<Target = u64>
    where
        Self: 'a;
    const WAIT_SPAN: u16;
    const WAIT_METRIC: &'static str;
    const NAME: &'static str;
    /// Ops, over all ULTs, before set-up counts as finished (≈ 0.1 s).
    const WARM_OPS: u64;
    fn new() -> Self;
    fn lock(&self) -> Self::Guard<'_>;
}

impl Lock for ult_sync::Mutex<u64> {
    type Guard<'a> = ult_sync::MutexGuard<'a, u64>;
    const WAIT_SPAN: u16 = trace::MUTEX_WAIT;
    const WAIT_METRIC: &'static str = "sync.mutex.lock_wait_ns";
    const NAME: &'static str = "Mutex";
    const WARM_OPS: u64 = 64_000;
    fn new() -> Self {
        ult_sync::Mutex::new(0)
    }
    fn lock(&self) -> Self::Guard<'_> {
        ult_sync::Mutex::lock(self)
    }
}

impl Lock for ult_sync::McsMutex<u64> {
    type Guard<'a> = ult_sync::McsGuard<'a, u64>;
    const WAIT_SPAN: u16 = trace::MCS_WAIT;
    const WAIT_METRIC: &'static str = "sync.mcs.lock_wait_ns";
    const NAME: &'static str = "McsMutex";
    const WARM_OPS: u64 = 16_000;
    fn new() -> Self {
        ult_sync::McsMutex::new(0)
    }
    fn lock(&self) -> Self::Guard<'_> {
        ult_sync::McsMutex::lock(self)
    }
}

/// What a ULT hands back: (ops, last chain value or message count, spans).
type Out = (u64, u64, SpanBuf);

/// One unit inside the lock, [`OUTSIDE_UNITS`] outside, until stopped.
fn lock_loop<L: Lock>(id: usize, lock: &L, shared: &Shared, span_cap: usize) -> Out {
    let me = &shared.progress[id];
    let mut spans = SpanBuf::new(span_cap);
    let (mut ops, mut x) = (0u64, id as u64);
    while !shared.stop.load(Ordering::Relaxed) {
        let timed = ops % LOCK_SAMPLE_EVERY == 0;
        let t_call = if timed { ult_sys::now_ns() } else { 0 };
        let mut guard = lock.lock();
        let t_held = if timed { ult_sys::now_ns() } else { 0 };
        x = burn(x, SYNC_UNIT);
        *guard += 1;
        // End of this ULT's turn: every fourth one ends holding the lock.
        let turn_ends = (ops + 1).is_multiple_of(YIELD_EVERY);
        let holding = ((ops + 1) / YIELD_EVERY).is_multiple_of(4);
        if turn_ends && holding {
            ult_core::yield_now();
        }
        drop(guard);
        if timed {
            let t_done = ult_sys::now_ns();
            me.sample(t_done - t_call);
            if shared.tracing.load(Ordering::Relaxed) {
                let op = ((id as u64) << 40) | ops;
                spans.record(trace::SYNC_OP, op, None, t_call, t_done);
                spans.record(L::WAIT_SPAN, op, Some(trace::SYNC_OP), t_call, t_held);
            }
        }
        x = burn(x, OUTSIDE_UNITS * SYNC_UNIT);
        if turn_ends && !holding {
            ult_core::yield_now();
        }
        ops += 1;
        me.set_ops(ops);
    }
    (ops, x, spans)
}

/// Send a token, wait for it to come back, repeat: (messages moved, round
/// trips that brought back the token that was sent, spans).
fn ping(
    id: usize,
    tx: ult_sync::Sender<u64>,
    rx: ult_sync::Receiver<u64>,
    shared: &Shared,
    span_cap: usize,
) -> Out {
    let me = &shared.progress[id];
    let mut spans = SpanBuf::new(span_cap);
    let (mut trips, mut intact) = (0u64, 0u64);
    while !shared.stop.load(Ordering::Relaxed) {
        let timed = trips % CHANNEL_SAMPLE_EVERY == 0;
        let t_call = if timed { ult_sys::now_ns() } else { 0 };
        if tx.send(trips).is_err() {
            break;
        }
        let t_sent = if timed { ult_sys::now_ns() } else { 0 };
        let Ok(back) = rx.recv() else { break };
        intact += u64::from(back == trips);
        if timed {
            let t_back = ult_sys::now_ns();
            me.sample(t_back - t_call);
            if shared.tracing.load(Ordering::Relaxed) {
                let op = ((id as u64) << 40) | trips;
                spans.record(trace::SYNC_OP, op, None, t_call, t_back);
                spans.record(trace::CHAN_SEND, op, Some(trace::SYNC_OP), t_call, t_sent);
                spans.record(
                    trace::CHAN_RECV_WAIT,
                    op,
                    Some(trace::SYNC_OP),
                    t_sent,
                    t_back,
                );
            }
        }
        trips += 1;
        me.set_ops(2 * trips);
    }
    // Dropping the sender ends the partner, whose dropped sender ends us.
    (2 * trips, intact, spans)
}

/// Send every token straight back: (messages received, the same, no spans).
fn pong(rx: ult_sync::Receiver<u64>, tx: ult_sync::Sender<u64>) -> Out {
    let mut got = 0u64;
    while let Ok(token) = rx.recv() {
        if tx.send(token).is_err() {
            break;
        }
        got += 1;
    }
    (got, got, SpanBuf::new(0))
}

/// How a flavour's ULTs are spawned and their outputs verified.
pub trait Flavour: 'static {
    const NAME: &'static str;
    /// Ops, over all ULTs, before set-up counts as finished (≈ 0.1–0.3 s).
    const WARM_OPS: u64;
    /// Span medians this flavour reports: (metric, span name).
    const SPAN_METRICS: &'static [(&'static str, u16)];
    type State;
    fn spawn(
        rt: &Runtime,
        workers: usize,
        shared: &Arc<Shared>,
        span_cap: usize,
    ) -> (Self::State, Vec<ult_core::JoinHandle<Out>>);
    /// (attempted, failed) from the joined outputs.
    fn verify(state: Self::State, outs: &[Out]) -> (u64, u64);
}

fn attrs(id: usize, workers: usize) -> SpawnAttrs {
    SpawnAttrs::new().on(id % workers) // nonpreemptive: see the module docs
}

pub struct Locked<L>(std::marker::PhantomData<L>);

impl<L: Lock> Flavour for Locked<L> {
    const NAME: &'static str = L::NAME;
    const WARM_OPS: u64 = L::WARM_OPS;
    const SPAN_METRICS: &'static [(&'static str, u16)] = &[(L::WAIT_METRIC, L::WAIT_SPAN)];
    type State = Arc<L>;

    fn spawn(
        rt: &Runtime,
        workers: usize,
        shared: &Arc<Shared>,
        span_cap: usize,
    ) -> (Arc<L>, Vec<ult_core::JoinHandle<Out>>) {
        let lock = Arc::new(L::new());
        let handles = (0..workers * PER_WORKER)
            .map(|id| {
                let (lock, shared) = (lock.clone(), shared.clone());
                rt.spawn_attrs(attrs(id, workers), move || {
                    lock_loop(id, &*lock, &shared, span_cap)
                })
            })
            .collect();
        (lock, handles)
    }

    fn verify(lock: Arc<L>, outs: &[Out]) -> (u64, u64) {
        let ops: u64 = outs.iter().map(|o| o.0).sum();
        // Mutual exclusion: every increment made under the lock survived.
        let mut failed = ops.abs_diff(*lock.lock());
        // Each ULT's chain survived every preemption and suspension.
        for (id, o) in outs.iter().enumerate() {
            if o.1 != lcg_jump(id as u64, o.0 * u64::from((1 + OUTSIDE_UNITS) * SYNC_UNIT)) {
                failed += o.0;
            }
        }
        (ops, failed)
    }
}

pub struct Channel;

impl Flavour for Channel {
    const NAME: &'static str = "channel";
    const WARM_OPS: u64 = 100_000;
    const SPAN_METRICS: &'static [(&'static str, u16)] = &[
        ("sync.channel.send_ns", trace::CHAN_SEND),
        ("sync.channel.recv_wait_ns", trace::CHAN_RECV_WAIT),
    ];
    type State = ();

    /// ULT `2k` plays ping to ULT `2k+1`'s pong, which lives on the next
    /// worker, so every message crosses workers where there are two.
    fn spawn(
        rt: &Runtime,
        workers: usize,
        shared: &Arc<Shared>,
        span_cap: usize,
    ) -> ((), Vec<ult_core::JoinHandle<Out>>) {
        let mut handles = Vec::new();
        for pair in 0..workers * PER_WORKER / 2 {
            let (to_pong, from_ping) = ult_sync::channel::<u64>(CHANNEL_CAP);
            let (to_ping, from_pong) = ult_sync::channel::<u64>(CHANNEL_CAP);
            let sh = shared.clone();
            handles.push(rt.spawn_attrs(attrs(pair, workers), move || {
                ping(2 * pair, to_pong, from_pong, &sh, span_cap)
            }));
            handles
                .push(rt.spawn_attrs(attrs(pair + 1, workers), move || pong(from_ping, to_ping)));
        }
        ((), handles)
    }

    fn verify(_: (), outs: &[Out]) -> (u64, u64) {
        let mut attempted = 0;
        let mut failed = 0;
        for pair in outs.chunks(2) {
            let (moved, intact, echoed) = (pair[0].0, pair[0].1, pair[1].0);
            attempted += moved;
            // A token lost, duplicated, reordered or changed on either leg.
            failed += 2 * (moved / 2 - intact) + (moved / 2).abs_diff(echoed);
        }
        (attempted, failed)
    }
}

pub struct Contend<F: Flavour> {
    rt: Runtime,
    workers: usize,
    shared: Arc<Shared>,
    state: F::State,
    handles: Vec<ult_core::JoinHandle<Out>>,
}

pub type SyncMutex = Contend<Locked<ult_sync::Mutex<u64>>>;
pub type SyncMcs = Contend<Locked<ult_sync::McsMutex<u64>>>;
pub type SyncChan = Contend<Channel>;

impl<F: Flavour> Workload for Contend<F> {
    fn setup(p: &Params) -> Self {
        let workers = crate::host::nproc();
        let rt = Runtime::start(Config {
            num_workers: workers,
            ..Config::default()
        });
        let sample_cap =
            ((p.measure_secs + 1.0) * SAMPLES_PER_S) as usize / (workers * PER_WORKER) + 1024;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            tracing: AtomicBool::new(false),
            progress: (0..workers * PER_WORKER)
                .map(|_| Progress::new(sample_cap))
                .collect(),
        });
        let span_cap = if p.traced { 2 * sample_cap } else { 0 };
        let (state, handles) = F::spawn(&rt, workers, &shared, span_cap);
        // The total, not each ULT's share: cooperative ULTs take uneven turns.
        while shared.progress.iter().map(Progress::ops).sum::<u64>() < F::WARM_OPS {
            std::thread::sleep(std::time::Duration::from_micros(500));
        }
        Contend {
            rt,
            workers,
            shared,
            state,
            handles,
        }
    }

    fn workers(&self) -> usize {
        self.workers
    }

    fn sizing(&self) -> String {
        format!(
            "closed-loop primitive={} ults={} kind=Nonpreemptive yield_every={YIELD_EVERY} unit={SYNC_UNIT}steps (1 inside, {OUTSIDE_UNITS} outside) channel_cap={CHANNEL_CAP}",
            F::NAME,
            self.handles.len()
        )
    }

    fn trial(&mut self, secs: f64, traced: bool) -> Trial {
        let win = Window::open(&self.rt);
        self.shared.tracing.store(traced, Ordering::Relaxed);
        let m = mark(&self.shared.progress);
        std::thread::sleep(std::time::Duration::from_secs_f64(secs));
        let (per_ult, lat_ns) = since(&self.shared.progress, &m);
        let ops = per_ult.iter().sum();
        self.shared.tracing.store(false, Ordering::Relaxed);
        let (secs, stats, usage) = win.close(&self.rt);
        Trial {
            secs,
            ops,
            lat_ns,
            reqs: 0,
            stats,
            usage,
            gen_cpu_s: 0.0,
            extra: Values::default(),
        }
    }

    fn finish(self) -> Finish {
        self.shared.stop.store(true, Ordering::Relaxed);
        let mut outs: Vec<Out> = self.handles.into_iter().map(|h| h.join()).collect();
        self.rt.shutdown();
        let (attempted, failed) = F::verify(self.state, &outs);
        let mut spans: Vec<Span> = Vec::new();
        let mut dropped: u64 = self.shared.progress.iter().map(Progress::dropped).sum();
        for o in &mut outs {
            let (s, d) = o.2.take();
            spans.extend(s);
            dropped += d;
        }
        let mut extra = Values::default();
        for (metric, name) in F::SPAN_METRICS {
            extra.set_percentile(metric, &trace::durations(&spans, *name), 0.5, 1.0);
        }
        Finish {
            attempted,
            failed,
            spans,
            spans_dropped: dropped,
            extra,
        }
    }
}
