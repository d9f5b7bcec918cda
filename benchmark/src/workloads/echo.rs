//! `echo_idle` / `echo_busy`: 64-byte echo requests over loopback TCP from
//! one generator OS thread, open loop (seeded Poisson arrivals), latency
//! counted from each request's due time. Connections alternate between the
//! two socket front ends: a blocking `ult_io::TcpStream` ULT and an
//! `ult_future` task over `AsyncTcpStream`.
//!
//! * idle — the worker has nothing else to do: a request wakes it out of
//!   its reactor shard's `epoll_wait`. Reactor park/wake, the socket
//!   wrappers, the waker hop and tick elision are the layers at work.
//! * busy — the worker also runs two throughput-class signal-yield
//!   spinners, so it never parks: readiness is found by the poll at a
//!   dispatch boundary after a preemption, and latency is set by the tick
//!   and class-aware dispatch, not by syscalls.

use super::compute::Spinners;
use super::{Finish, Params, Trial, Window, Workload};
use crate::frame::{self, FRAME};
use crate::host::KeepAwake;
use crate::metrics::Values;
use crate::openloop::{schedule, Generator, Wire};
use crate::trace::{self, Span, SpanBuf};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use ult_core::{Config, Runtime, SchedClass, SpawnAttrs, ThreadKind};

const IDLE_RATE: f64 = 2000.0;
const IDLE_LIMIT_NS: u64 = 1_000_000;
/// High enough that a trial's p99 has ten samples beyond it, low enough
/// that one worker with a 1 ms tick keeps up without a queue.
const BUSY_RATE: f64 = 500.0;
const BUSY_LIMIT_NS: u64 = 5_000_000;
const BUSY_SPINNERS_PER_WORKER: usize = 2;
const TICK_NS: u64 = 1_000_000;
/// A request unanswered this long after it was due has failed.
const LOST_NS: u64 = 1_000_000_000;
/// Ping-pong requests per connection before set-up counts as finished
/// (≈ 0.1–0.2 s either way: a busy worker answers once per tick).
const IDLE_WARM_REQS: u64 = 2000;
const BUSY_WARM_REQS: u64 = 50;

struct TcpWire {
    socks: Vec<TcpStream>,
}

impl Wire for TcpWire {
    fn try_send(&mut self, conn: usize, frame: &[u8; FRAME]) -> bool {
        let mut s = &self.socks[conn];
        match s.write(frame) {
            Ok(FRAME) => true,
            // The socket buffer had room for part of a frame only. Never
            // seen with 64-byte frames; finish it rather than split a frame.
            Ok(n) => {
                let mut off = n;
                while off < FRAME {
                    if let Ok(m) = s.write(&frame[off..]) {
                        off += m;
                    }
                }
                true
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => false,
            Err(e) => panic!("generator send on connection {conn}: {e}"),
        }
    }

    fn try_recv(&mut self, conn: usize, buf: &mut [u8]) -> usize {
        match (&self.socks[conn]).read(buf) {
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => 0,
            Err(e) => panic!("generator receive on connection {conn}: {e}"),
        }
    }
}

/// A connection handler; it returns its spans when its peer closes.
enum Handler {
    Blocking(ult_core::JoinHandle<SpanBuf>),
    Async(ult_future::JoinHandle<SpanBuf>),
}

struct HandlerCfg {
    tracing: Arc<AtomicBool>,
    span_cap: usize,
    /// Flip one bit of the fourth reply.
    fault: bool,
}

fn serve_blocking(sock: TcpStream, cfg: HandlerCfg) -> SpanBuf {
    let s =
        ult_io::TcpStream::from_std(sock).expect("register the accepted socket with the reactor");
    let mut spans = SpanBuf::new(cfg.span_cap);
    let mut served = 0u64;
    loop {
        let mut buf = ult_io::IoBuf::acquire();
        let on = cfg.tracing.load(Ordering::Relaxed);
        let t_call = if on { ult_sys::now_ns() } else { 0 };
        if s.read_exact(&mut buf[..FRAME]).is_err() {
            break; // the generator closed the connection
        }
        let t_read = if on { ult_sys::now_ns() } else { 0 };
        if cfg.fault && served == 3 {
            buf[20] ^= 0x01;
        }
        let t_write = if on { ult_sys::now_ns() } else { 0 };
        if s.write_all(&buf[..FRAME]).is_err() {
            break;
        }
        if on {
            let seq = frame::seq_of(&buf);
            // The read was called before its request existed: a root span.
            let t_done = ult_sys::now_ns();
            spans.record(trace::NET_READ, seq, None, t_call, t_read);
            spans.record(trace::TURN, seq, Some(trace::REQUEST), t_read, t_done);
            spans.record(trace::NET_WRITE, seq, Some(trace::TURN), t_write, t_done);
        }
        served += 1;
    }
    spans
}

async fn serve_async(sock: TcpStream, cfg: HandlerCfg) -> SpanBuf {
    let s = ult_future::AsyncTcpStream::from_std(sock)
        .expect("register the accepted socket with the reactor");
    let mut spans = SpanBuf::new(cfg.span_cap);
    let mut served = 0u64;
    loop {
        let mut buf = ult_io::IoBuf::acquire();
        let on = cfg.tracing.load(Ordering::Relaxed);
        let t_call = if on { ult_sys::now_ns() } else { 0 };
        if s.read_exact(&mut buf[..FRAME]).await.is_err() {
            break;
        }
        let t_read = if on { ult_sys::now_ns() } else { 0 };
        if cfg.fault && served == 3 {
            buf[20] ^= 0x01;
        }
        let t_write = if on { ult_sys::now_ns() } else { 0 };
        if s.write_all(&buf[..FRAME]).await.is_err() {
            break;
        }
        if on {
            let seq = frame::seq_of(&buf);
            let t_done = ult_sys::now_ns();
            spans.record(trace::ANET_READ, seq, None, t_call, t_read);
            spans.record(trace::TURN, seq, Some(trace::REQUEST), t_read, t_done);
            spans.record(trace::ANET_WRITE, seq, Some(trace::TURN), t_write, t_done);
        }
        served += 1;
    }
    spans
}

/// `BUSY` adds the spinners and the latency class.
pub struct Echo<const BUSY: bool> {
    rt: Runtime,
    workers: usize,
    wire: TcpWire,
    handlers: Vec<Handler>,
    tracing: Arc<AtomicBool>,
    spinners: Option<Spinners>,
    /// `echo_idle` only: the worker's CPU must not halt while the worker
    /// sleeps (see [`KeepAwake`]); a busy worker's never does.
    keep_awake: Option<KeepAwake>,
    seed: u64,
    trials_run: u64,
    next_seq: u64,
    attempted: u64,
    failed: u64,
    gen_spans: Vec<Span>,
    gen_dropped: u64,
}

pub type EchoIdle = Echo<false>;
pub type EchoBusy = Echo<true>;

impl<const BUSY: bool> Echo<BUSY> {
    const RATE: f64 = if BUSY { BUSY_RATE } else { IDLE_RATE };
    const LIMIT_NS: u64 = if BUSY { BUSY_LIMIT_NS } else { IDLE_LIMIT_NS };

    /// One request at a time on every connection in turn: the fixed
    /// warm-up that fills buffer pools and settles fd-to-shard affinity.
    fn warm(&mut self) {
        let conns = self.wire.socks.len();
        let mut reply = [0u8; FRAME];
        let per_conn = if BUSY { BUSY_WARM_REQS } else { IDLE_WARM_REQS };
        for i in 0..per_conn * conns as u64 {
            let conn = i as usize % conns;
            let f = frame::encode(self.next_seq, 0, i);
            while !self.wire.try_send(conn, &f) {}
            let (mut got, t0) = (0, ult_sys::now_ns());
            while got < FRAME {
                got += self.wire.try_recv(conn, &mut reply[got..]);
                assert!(
                    ult_sys::now_ns() - t0 < 10 * LOST_NS,
                    "no reply to warm-up request {i}"
                );
            }
            self.attempted += 1;
            self.failed += u64::from(!frame::verify(&reply, self.next_seq));
            self.next_seq += 1;
        }
    }
}

impl<const BUSY: bool> Workload for Echo<BUSY> {
    const OPEN_LOOP: bool = true;

    fn setup(p: &Params) -> Self {
        let nproc = crate::host::nproc();
        // The generator thread takes a CPU of its own where there is one.
        let workers = nproc.saturating_sub(1).max(1);
        let conns = nproc.max(2);
        let rt = Runtime::start(Config {
            num_workers: workers,
            preempt_interval_ns: TICK_NS,
            ..Config::default()
        });
        let tracing = Arc::new(AtomicBool::new(false));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback listener");
        let addr = listener.local_addr().expect("listener address");
        let class = if BUSY {
            SchedClass::Latency
        } else {
            SchedClass::Normal
        };
        let per_conn_reqs = (p.measure_secs + 1.0) * Self::RATE / conns as f64;
        let span_cap = if p.traced {
            (per_conn_reqs * 2.0 * 3.0) as usize + 64
        } else {
            0
        };
        let mut socks = Vec::new();
        let mut handlers = Vec::new();
        for ci in 0..conns {
            let client = TcpStream::connect(addr).expect("connect to the loopback listener");
            let (server, _) = listener
                .accept()
                .expect("accept the generator's connection");
            for s in [&client, &server] {
                s.set_nodelay(true).expect("TCP_NODELAY");
            }
            client
                .set_nonblocking(true)
                .expect("nonblocking generator socket");
            socks.push(client);
            let cfg = HandlerCfg {
                tracing: tracing.clone(),
                span_cap,
                fault: p.fault && ci == 0,
            };
            let attrs = SpawnAttrs::new().class(class).on(ci % workers);
            handlers.push(if ci % 2 == 0 {
                Handler::Blocking(rt.spawn_attrs(attrs, move || serve_blocking(server, cfg)))
            } else {
                // Tasks are spawned from inside the runtime.
                Handler::Async(
                    rt.spawn(move || ult_future::spawn_attrs(attrs, serve_async(server, cfg)))
                        .join(),
                )
            });
        }
        let spinners = BUSY.then(|| {
            Spinners::spawn(
                &rt,
                workers,
                BUSY_SPINNERS_PER_WORKER,
                ThreadKind::SignalYield,
                SchedClass::Throughput,
                TICK_NS,
                p,
            )
        });
        let mut w = Echo {
            keep_awake: (!BUSY).then(KeepAwake::start),
            rt,
            workers,
            wire: TcpWire { socks },
            handlers,
            tracing,
            spinners,
            seed: p.seed,
            trials_run: 0,
            next_seq: 0,
            attempted: 0,
            failed: 0,
            gen_spans: Vec::new(),
            gen_dropped: 0,
        };
        w.warm();
        w
    }

    fn workers(&self) -> usize {
        self.workers
    }

    fn sizing(&self) -> String {
        format!(
            "open-loop rate={}/s conns={} limit_us={} frame={FRAME}B loopback{}{}",
            Self::RATE,
            self.wire.socks.len(),
            Self::LIMIT_NS / 1000,
            if BUSY {
                format!(" spinners={}", self.workers * BUSY_SPINNERS_PER_WORKER)
            } else {
                String::new()
            },
            // One core: the generator and the worker time-share it, so the
            // latencies include the kernel scheduler's choices.
            if crate::host::nproc() < 2 {
                " core_starved"
            } else {
                ""
            }
        )
    }

    fn trial(&mut self, secs: f64, traced: bool) -> Trial {
        let conns = self.wire.socks.len();
        let dur_ns = (secs * 1e9) as u64;
        let arrivals = schedule(
            self.seed.wrapping_add(self.trials_run << 32),
            Self::RATE,
            dur_ns,
            conns,
        );
        self.trials_run += 1;
        let sent = arrivals.len() as u64;
        let mut spans = SpanBuf::new(if traced { arrivals.len() * 2 + 16 } else { 0 });
        self.tracing.store(traced, Ordering::Relaxed);
        // CPU of the benchmark's own threads, not the server's.
        let own_cpu_s = |w: &Self| {
            crate::host::thread_cpu_s() + w.keep_awake.as_ref().map_or(0.0, KeepAwake::cpu_s)
        };
        let cpu0 = own_cpu_s(self);
        let win = Window::open(&self.rt);
        let sw = self.spinners.as_ref().map(|s| s.open(traced));
        let t0 = win.t0();
        let mut gen = Generator::new(arrivals, conns, self.next_seq, t0);
        self.next_seq += sent;
        let clock = ult_sys::now_ns;
        let end = loop {
            gen.step(&mut self.wire, &clock, &mut spans);
            let now = clock();
            let drained = gen.all_sent() && gen.inflight() == 0;
            if (drained && now >= t0 + dur_ns) || now >= t0 + dur_ns + LOST_NS {
                break now;
            }
        };
        let units = self
            .spinners
            .as_mut()
            .zip(sw)
            .map(|(s, sw)| s.close(sw, secs));
        let (secs, stats, usage) = win.close(&self.rt);
        let gen_cpu_s = own_cpu_s(self) - cpu0;
        self.tracing.store(false, Ordering::Relaxed);
        let mut r = gen.finish(end);

        let lost = sent - r.completed;
        let mut all: Vec<u64> = r.latency_ns.iter().flatten().copied().collect();
        all.sort_unstable();
        let too_late = all.iter().filter(|&&l| l > LOST_NS).count() as u64;
        self.attempted += sent;
        self.failed += r.corrupt + lost + too_late;

        let mut extra = Values::default();
        extra.set("gen.req_per_s", r.completed as f64 / secs);
        extra.set("gen.backlog_max", r.backlog_max as f64);
        if !all.is_empty() {
            let over = all.iter().filter(|&&l| l > Self::LIMIT_NS).count() as u64 + lost;
            extra.set("gen.over_limit_share", over as f64 / sent as f64);
        }
        r.lateness_ns.sort_unstable();
        extra.set_percentile("gen.lateness_p99_us", &r.lateness_ns, 0.99, 1e3);
        for (kind, parity) in [("io.net.rtt_p50_us", 0), ("io.anet.rtt_p50_us", 1)] {
            let mut v: Vec<u64> = r
                .latency_ns
                .iter()
                .skip(parity)
                .step_by(2)
                .flatten()
                .copied()
                .collect();
            v.sort_unstable();
            extra.set_percentile(kind, &v, 0.5, 1e3);
        }
        if let Some(d) = &units {
            extra.set_percentile("core.preempt.gap_p50_us", &d.gap_ns, 0.5, 1e3);
        }
        // A queue still growing over the trial's second half means the rate
        // is past what the server sustains (a mechanism guard reads this).
        extra.set(
            "gen.backlog_growth",
            r.backlog_end as f64 - r.backlog_mid as f64,
        );
        let (s, dropped) = spans.take();
        self.gen_spans.extend(s);
        self.gen_dropped += dropped;

        // Idle: the op is a request. Busy: the op is a spinner unit — what
        // the co-tenants got done while the requests were served.
        let ops = units.map_or(r.completed, |d| d.units);
        Trial {
            secs,
            ops,
            lat_ns: all,
            reqs: r.completed,
            stats,
            usage,
            gen_cpu_s,
            extra,
        }
    }

    fn finish(self) -> Finish {
        drop(self.keep_awake);
        drop(self.wire); // EOF ends every handler
        let mut spans = self.gen_spans;
        let mut dropped = self.gen_dropped;
        for h in self.handlers {
            let (s, d) = match h {
                Handler::Blocking(h) => h.join(),
                Handler::Async(h) => h.join(),
            }
            .take();
            spans.extend(s);
            dropped += d;
        }
        let (mut attempted, mut failed) = (self.attempted, self.failed);
        if let Some(sp) = self.spinners {
            let done = sp.finish();
            attempted += done.attempted;
            failed += done.failed;
            spans.extend(done.spans);
            dropped += done.dropped;
        }
        self.rt.shutdown();

        // The wake path is the stretch neither side can time alone: from the
        // generator's send returning to the handler's read returning.
        let sent_at: std::collections::HashMap<u64, u64> = spans
            .iter()
            .filter(|s| s.name == trace::GEN_SEND)
            .map(|s| (s.op, s.end_ns))
            .collect();
        let wakes: Vec<Span> = spans
            .iter()
            .filter(|s| s.name == trace::TURN)
            .filter_map(|turn| {
                let sent = *sent_at.get(&turn.op)?;
                Some(Span {
                    id: trace::span_id(turn.op, trace::WAKE_PATH),
                    parent: trace::span_id(turn.op, trace::REQUEST),
                    op: turn.op,
                    name: trace::WAKE_PATH,
                    start_ns: sent,
                    end_ns: turn.start_ns.max(sent),
                })
            })
            .collect();
        spans.extend(wakes);

        let mut extra = Values::default();
        for (metric, name, div) in [
            ("io.net.read_ns", trace::NET_READ, 1.0),
            ("io.net.write_ns", trace::NET_WRITE, 1.0),
            ("io.anet.read_ns", trace::ANET_READ, 1.0),
            ("io.anet.write_ns", trace::ANET_WRITE, 1.0),
            ("io.wake_path_us", trace::WAKE_PATH, 1e3),
            ("handler.turn_us", trace::TURN, 1e3),
        ] {
            extra.set_percentile(metric, &trace::durations(&spans, name), 0.5, div);
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
