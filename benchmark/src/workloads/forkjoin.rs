//! `forkjoin`: one root ULT spawns waves of 64 nonpreemptive children and
//! joins them; every fourth wave is a depth-6 binary recursion instead.
//! Closed loop. Context switch, stack cache, ready pools and spawn/join do
//! nearly all the work; the preemption and I/O layers do none.

use super::{Finish, Params, Trial, Window, Workload};
use crate::metrics::Values;
use crate::rng::Rng;
use crate::trace::{self, Span, SpanBuf};
use crate::work::{burn, lcg_jump, FORKJOIN_GRAIN};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ult_core::{Config, Priority, Runtime, ThreadKind};

const WAVE: usize = 64;
const DEPTH: u32 = 6;
/// Waves run before the first timed one (≈ 0.2 s): fills the stack and
/// descriptor caches on every worker.
const WARM_WAVES: u64 = 1024;
/// One wave in this many carries spans and start-delay stamps in the
/// traced trial (every wave would be ~50k spans/s).
const TRACE_EVERY: u64 = 8;

pub struct ForkJoin {
    rt: Runtime,
    workers: usize,
    grains: Arc<[u8]>,
    next_wave: u64,
    attempted: u64,
    failed: u64,
    fault: bool,
    spans: Vec<Span>,
    dropped: u64,
}

/// The seeded grain sequence (0–8 grains per child), cycled by the waves.
fn grains(seed: u64) -> Arc<[u8]> {
    let mut r = Rng::stream(seed, 10);
    (0..4096).map(|_| r.below(9) as u8).collect()
}

enum Stop {
    AfterWaves(u64),
    AtNs(u64),
}

struct WaveOut {
    waves: u64,
    ults: u64,
    failed: u64,
    wave_ns: Vec<u64>,
    start_delay_ns: Vec<u64>,
    spans: SpanBuf,
}

fn spawn_child(
    seed: u64,
    steps: u32,
    stamp: Option<(Arc<[AtomicU64; WAVE]>, usize)>,
    flip: bool,
) -> ult_core::JoinHandle<u64> {
    ult_core::api::spawn(ThreadKind::Nonpreemptive, Priority::High, move || {
        if let Some((slots, i)) = &stamp {
            // ordering: a timestamp read back only after this ULT was joined
            slots[*i].store(ult_sys::now_ns(), Ordering::Relaxed);
        }
        burn(seed, steps) ^ u64::from(flip)
    })
}

/// Binary fork-join tree: node `idx` forks its right half, computes its
/// left half itself; leaves burn their grain. Returns the wrapping sum of
/// the leaf values.
fn recurse(depth: u32, idx: u64, salt: u64, steps: u32) -> u64 {
    if depth == 0 {
        return burn(idx ^ salt, steps);
    }
    let right = ult_core::api::spawn(ThreadKind::Nonpreemptive, Priority::High, move || {
        recurse(depth - 1, 2 * idx + 1, salt, steps)
    });
    recurse(depth - 1, 2 * idx, salt, steps).wrapping_add(right.join())
}

/// The root ULT's body.
fn run_waves(
    stop: Stop,
    grains: Arc<[u8]>,
    first_wave: u64,
    traced: bool,
    fault: bool,
    wave_hint: usize,
) -> WaveOut {
    let traced_waves = if traced {
        wave_hint / TRACE_EVERY as usize + 16
    } else {
        0
    };
    let mut out = WaveOut {
        waves: 0,
        ults: 0,
        failed: 0,
        wave_ns: Vec::with_capacity(wave_hint + 16),
        start_delay_ns: Vec::with_capacity(traced_waves * WAVE),
        spans: SpanBuf::new(traced_waves * 3),
    };
    let stamps: Arc<[AtomicU64; WAVE]> = Arc::new(std::array::from_fn(|_| AtomicU64::new(0)));
    let mut spawn_ret = [0u64; WAVE];
    let mut handles = Vec::with_capacity(WAVE);
    let mut wave = first_wave;
    loop {
        let t0 = ult_sys::now_ns();
        match stop {
            Stop::AfterWaves(n) if out.waves >= n => break,
            Stop::AtNs(deadline) if t0 >= deadline => break,
            _ => {}
        }
        let grain_at = |i: usize| {
            u32::from(grains[(wave as usize * WAVE + i) % grains.len()]) * FORKJOIN_GRAIN
        };
        let stamped = traced && wave.is_multiple_of(TRACE_EVERY);
        if wave % 4 == 3 {
            let steps = grain_at(0);
            let got = recurse(DEPTH, 1, wave, steps);
            let want = (1u64 << DEPTH..2 << DEPTH).fold(0u64, |s, leaf| {
                s.wrapping_add(lcg_jump(leaf ^ wave, steps.into()))
            });
            out.ults += WAVE as u64 - 1;
            if got != want {
                out.failed += WAVE as u64 - 1;
            }
        } else {
            for (i, returned) in spawn_ret.iter_mut().enumerate() {
                let flip = fault && wave == first_wave + 1 && i == 7;
                let stamp = stamped.then(|| (stamps.clone(), i));
                handles.push(spawn_child(
                    wave * WAVE as u64 + i as u64,
                    grain_at(i),
                    stamp,
                    flip,
                ));
                if stamped {
                    *returned = ult_sys::now_ns();
                }
            }
            let t_spawned = ult_sys::now_ns();
            for (i, h) in handles.drain(..).enumerate() {
                if h.join() != lcg_jump(wave * WAVE as u64 + i as u64, grain_at(i).into()) {
                    out.failed += 1;
                }
            }
            out.ults += WAVE as u64;
            if stamped {
                let t1 = ult_sys::now_ns();
                out.spans.record(trace::WAVE, wave, None, t0, t1);
                out.spans
                    .record(trace::SPAWN, wave, Some(trace::WAVE), t0, t_spawned);
                out.spans
                    .record(trace::JOIN_WAIT, wave, Some(trace::WAVE), t_spawned, t1);
                for (slot, ret) in stamps.iter().zip(&spawn_ret) {
                    // A thief can start the child before `spawn` returns: 0.
                    out.start_delay_ns
                        .push(slot.load(Ordering::Relaxed).saturating_sub(*ret));
                }
            }
        }
        out.wave_ns.push(ult_sys::now_ns() - t0);
        out.waves += 1;
        wave += 1;
    }
    out
}

impl ForkJoin {
    fn run(&mut self, stop: Stop, traced: bool, wave_hint: usize) -> WaveOut {
        let (grains, first, fault) = (self.grains.clone(), self.next_wave, self.fault);
        let out = self
            .rt
            .spawn(move || run_waves(stop, grains, first, traced, fault, wave_hint))
            .join();
        self.next_wave += out.waves;
        self.attempted += out.ults;
        self.failed += out.failed;
        out
    }
}

impl Workload for ForkJoin {
    fn setup(p: &Params) -> ForkJoin {
        let workers = crate::host::nproc();
        let mut w = ForkJoin {
            rt: Runtime::start(Config {
                num_workers: workers,
                ..Config::default()
            }),
            workers,
            grains: grains(p.seed),
            next_wave: 0,
            attempted: 0,
            failed: 0,
            fault: p.fault,
            spans: Vec::new(),
            dropped: 0,
        };
        w.run(Stop::AfterWaves(WARM_WAVES), false, WARM_WAVES as usize);
        w
    }

    fn workers(&self) -> usize {
        self.workers
    }

    fn sizing(&self) -> String {
        format!("closed-loop wave={WAVE} recursion_depth={DEPTH} grain=0..8x{FORKJOIN_GRAIN}steps")
    }

    fn trial(&mut self, secs: f64, traced: bool) -> Trial {
        let win = Window::open(&self.rt);
        let deadline = win.t0() + (secs * 1e9) as u64;
        // Room for 40k waves/s: four times what this host reaches.
        let mut out = self.run(Stop::AtNs(deadline), traced, (secs * 40_000.0) as usize);
        let (secs, stats, usage) = win.close(&self.rt);
        let mut extra = Values::default();
        if traced {
            let (spans, dropped) = out.spans.take();
            // A span covers a whole wave's loop: per child, a 64th of it.
            let per_child = WAVE as f64;
            extra.set_percentile(
                "core.thread.spawn_ns",
                &trace::durations(&spans, trace::SPAWN),
                0.5,
                per_child,
            );
            extra.set_percentile(
                "core.thread.join_wait_ns",
                &trace::durations(&spans, trace::JOIN_WAIT),
                0.5,
                per_child,
            );
            out.start_delay_ns.sort_unstable();
            extra.set_percentile("core.sched.start_delay_ns", &out.start_delay_ns, 0.5, 1.0);
            self.spans.extend(spans);
            self.dropped += dropped;
        }
        out.wave_ns.sort_unstable();
        Trial {
            secs,
            ops: out.ults,
            lat_ns: out.wave_ns,
            reqs: 0,
            stats,
            usage,
            gen_cpu_s: 0.0,
            extra,
        }
    }

    fn finish(self) -> Finish {
        self.rt.shutdown();
        Finish {
            attempted: self.attempted,
            failed: self.failed,
            spans: self.spans,
            spans_dropped: self.dropped,
            extra: Values::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_grain_sequence() {
        assert_eq!(grains(5), grains(5));
        assert_ne!(grains(5), grains(6));
        // Pinned: a change to the generator or its seeding changes the
        // workload, and must show up here.
        assert_eq!(grains(1)[..8], [0u8, 4, 4, 6, 1, 5, 1, 0]);
        let g = grains(1);
        assert!(g.iter().all(|&x| x <= 8) && (0..=8).all(|v| g.contains(&v)));
    }
}
