//! The open-loop request generator: a seeded Poisson arrival schedule and
//! the engine that sends each request when it is due and matches replies.
//!
//! Open loop means the schedule does not wait for the server. A request's
//! latency is counted from the moment it was *due*, so when a send stalls —
//! the generator was descheduled, the socket was full — the wait lands on
//! that request and on those queued behind it instead of vanishing.

use crate::frame::{self, FRAME};
use crate::rng::Rng;
use crate::trace::{self, SpanBuf};
use std::collections::VecDeque;

#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Offset from the start of the trial.
    pub due_ns: u64,
    pub conn: usize,
    pub payload_seed: u64,
}

/// Poisson arrivals at `rate_per_s` over `duration_ns`, spread uniformly
/// over `conns` connections. Gaps, connection choice and payload seeds are
/// drawn from separate streams of the one seed.
pub fn schedule(seed: u64, rate_per_s: f64, duration_ns: u64, conns: usize) -> Vec<Arrival> {
    let mut gaps = Rng::stream(seed, 1);
    let mut pick = Rng::stream(seed, 2);
    let mut payload = Rng::stream(seed, 3);
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut out = Vec::with_capacity((rate_per_s * duration_ns as f64 / 1e9 * 1.1) as usize + 16);
    let mut t = gaps.exp_ns(mean_gap_ns);
    while t < duration_ns {
        out.push(Arrival {
            due_ns: t,
            conn: pick.below(conns as u64) as usize,
            payload_seed: payload.next_u64(),
        });
        t += gaps.exp_ns(mean_gap_ns).max(1);
    }
    out
}

/// The generator's side of the connections. Never blocks.
pub trait Wire {
    /// Send one whole frame; `false` = the connection cannot take it now.
    fn try_send(&mut self, conn: usize, frame: &[u8; FRAME]) -> bool;
    /// Read what is there; 0 = nothing.
    fn try_recv(&mut self, conn: usize, buf: &mut [u8]) -> usize;
}

struct Conn {
    /// (seq, absolute due time) of requests sent and not yet answered.
    inflight: VecDeque<(u64, u64)>,
    rx: [u8; FRAME],
    rx_fill: usize,
}

/// What one trial of the generator saw.
#[derive(Debug, Default)]
pub struct GenResult {
    /// Reply latency from due time, per connection, ns.
    pub latency_ns: Vec<Vec<u64>>,
    /// How late each request was actually sent, ns.
    pub lateness_ns: Vec<u64>,
    pub completed: u64,
    /// Replies that failed verification.
    pub corrupt: u64,
    /// Most requests that were due and unanswered at one time.
    pub backlog_max: u64,
    /// Due-and-unanswered requests when the schedule's first half ended, and
    /// when it ended: a queue that keeps growing shows as the second ≫ the first.
    pub backlog_mid: u64,
    pub backlog_end: u64,
}

pub struct Generator {
    arrivals: Vec<Arrival>,
    next: usize,
    /// Sequence number of `arrivals[0]`; sequence numbers never repeat
    /// across trials of one process.
    seq_base: u64,
    start_ns: u64,
    conns: Vec<Conn>,
    res: GenResult,
    mid_taken: bool,
}

impl Generator {
    pub fn new(arrivals: Vec<Arrival>, conns: usize, seq_base: u64, start_ns: u64) -> Generator {
        let n = arrivals.len();
        Generator {
            arrivals,
            next: 0,
            seq_base,
            start_ns,
            conns: (0..conns)
                .map(|_| Conn {
                    inflight: VecDeque::with_capacity(1024),
                    rx: [0; FRAME],
                    rx_fill: 0,
                })
                .collect(),
            res: GenResult {
                latency_ns: (0..conns).map(|_| Vec::with_capacity(n)).collect(),
                lateness_ns: Vec::with_capacity(n),
                ..GenResult::default()
            },
            mid_taken: false,
        }
    }

    pub fn all_sent(&self) -> bool {
        self.next == self.arrivals.len()
    }

    pub fn inflight(&self) -> usize {
        self.conns.iter().map(|c| c.inflight.len()).sum()
    }

    /// Requests that are due by `now` and not answered yet.
    fn backlog(&self, now: u64) -> u64 {
        let due_unsent = self.arrivals[self.next..]
            .iter()
            .take_while(|a| self.start_ns + a.due_ns <= now)
            .count();
        (due_unsent + self.inflight()) as u64
    }

    /// One pass: send every request that is due, then collect replies.
    /// `clock` is read again around each syscall so spans and latencies
    /// carry the time the event happened, not the time the pass began.
    pub fn step<W: Wire>(&mut self, wire: &mut W, clock: &impl Fn() -> u64, spans: &mut SpanBuf) {
        let now = clock();
        while let Some(a) = self.arrivals.get(self.next) {
            let due = self.start_ns + a.due_ns;
            if due > now {
                break;
            }
            let seq = self.seq_base + self.next as u64;
            let f = frame::encode(seq, due, a.payload_seed);
            let t_send = clock();
            if !wire.try_send(a.conn, &f) {
                break; // stalled: the request stays due, its clock keeps running
            }
            let t_sent = clock();
            spans.record(trace::GEN_SEND, seq, Some(trace::REQUEST), t_send, t_sent);
            self.res.lateness_ns.push(t_send - due);
            self.conns[a.conn].inflight.push_back((seq, due));
            self.next += 1;
        }
        self.res.backlog_max = self.res.backlog_max.max(self.backlog(now));
        if !self.mid_taken && self.next * 2 >= self.arrivals.len() {
            self.mid_taken = true;
            self.res.backlog_mid = self.backlog(now);
        }
        for ci in 0..self.conns.len() {
            loop {
                let c = &mut self.conns[ci];
                let n = wire.try_recv(ci, &mut c.rx[c.rx_fill..]);
                if n == 0 {
                    break;
                }
                c.rx_fill += n;
                if c.rx_fill < FRAME {
                    continue;
                }
                c.rx_fill = 0;
                let t_recv = clock();
                // A reply nobody asked for is as wrong as a corrupted one.
                let (seq, due) = c.inflight.pop_front().unwrap_or((u64::MAX, t_recv));
                if frame::verify(&c.rx, seq) && frame::due_of(&c.rx) == due {
                    self.res.latency_ns[ci].push(t_recv - due);
                    spans.record(trace::REQUEST, seq, None, due, t_recv);
                } else {
                    self.res.corrupt += 1;
                }
                self.res.completed += 1;
            }
        }
    }

    /// Close the books: `now` is when the caller stopped waiting.
    pub fn finish(mut self, now: u64) -> GenResult {
        self.res.backlog_end = self.backlog(now);
        self.res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn same_seed_same_schedule() {
        let a = schedule(11, 2000.0, 1_000_000_000, 2);
        assert_eq!(a, schedule(11, 2000.0, 1_000_000_000, 2));
        assert_ne!(a, schedule(12, 2000.0, 1_000_000_000, 2));
        // Pinned: the first arrival of seed 11 never moves.
        assert_eq!(a[0], schedule(11, 2000.0, 5_000_000_000, 2)[0]);
        assert!(
            (1800..2200).contains(&a.len()),
            "{} arrivals at 2000/s over 1 s",
            a.len()
        );
        assert!(a.windows(2).all(|w| w[0].due_ns < w[1].due_ns));
        assert!(a.iter().any(|x| x.conn == 0) && a.iter().any(|x| x.conn == 1));
    }

    /// A loopback that echoes after a fixed delay and can refuse sends.
    struct FakeWire<'a> {
        now: &'a Cell<u64>,
        blocked_until: u64,
        echo_delay: u64,
        queue: VecDeque<(u64, [u8; FRAME])>,
        corrupt_next: bool,
    }

    impl Wire for FakeWire<'_> {
        fn try_send(&mut self, _conn: usize, frame: &[u8; FRAME]) -> bool {
            if self.now.get() < self.blocked_until {
                return false;
            }
            let mut f = *frame;
            if std::mem::take(&mut self.corrupt_next) {
                f[20] ^= 0x40;
            }
            self.queue.push_back((self.now.get() + self.echo_delay, f));
            true
        }
        fn try_recv(&mut self, _conn: usize, buf: &mut [u8]) -> usize {
            match self.queue.front() {
                Some((ready, f)) if *ready <= self.now.get() => {
                    buf[..FRAME].copy_from_slice(f);
                    self.queue.pop_front();
                    FRAME
                }
                _ => 0,
            }
        }
    }

    fn one_arrival_at(due_ns: u64) -> Vec<Arrival> {
        vec![Arrival {
            due_ns,
            conn: 0,
            payload_seed: 5,
        }]
    }

    #[test]
    fn stalled_send_is_charged_to_the_due_time() {
        let now = Cell::new(0);
        let mut wire = FakeWire {
            now: &now,
            blocked_until: 900,
            echo_delay: 50,
            queue: VecDeque::new(),
            corrupt_next: false,
        };
        let mut g = Generator::new(one_arrival_at(100), 1, 0, 0);
        let mut spans = SpanBuf::new(8);
        let clock = || now.get();
        for t in [50, 100, 500, 900, 950] {
            now.set(t);
            g.step(&mut wire, &clock, &mut spans);
        }
        let r = g.finish(950);
        // Due at 100, socket took it at 900, reply at 950: the request waited
        // 850, not the 50 between send and reply.
        assert_eq!(r.latency_ns[0], vec![850]);
        assert_eq!(r.lateness_ns, vec![800]);
        assert_eq!((r.completed, r.corrupt), (1, 0));
        assert_eq!(r.backlog_max, 1);
        assert_eq!(r.backlog_end, 0);
        let (s, _) = spans.take();
        let req = s
            .iter()
            .find(|s| s.name == trace::REQUEST)
            .expect("request span");
        assert_eq!((req.start_ns, req.end_ns), (100, 950));
        let send = s
            .iter()
            .find(|s| s.name == trace::GEN_SEND)
            .expect("send span");
        assert_eq!(send.parent, req.id);
    }

    #[test]
    fn corrupted_reply_is_a_failed_op_not_a_latency_sample() {
        let now = Cell::new(0);
        let mut wire = FakeWire {
            now: &now,
            blocked_until: 0,
            echo_delay: 10,
            queue: VecDeque::new(),
            corrupt_next: true,
        };
        let mut g = Generator::new(one_arrival_at(0), 1, 7, 0);
        let mut spans = SpanBuf::new(0);
        let clock = || now.get();
        for t in [0, 10] {
            now.set(t);
            g.step(&mut wire, &clock, &mut spans);
        }
        let r = g.finish(10);
        assert_eq!((r.completed, r.corrupt), (1, 1));
        assert!(r.latency_ns[0].is_empty());
    }

    #[test]
    fn unanswered_requests_show_as_backlog() {
        let now = Cell::new(0);
        let mut wire = FakeWire {
            now: &now,
            blocked_until: 0,
            echo_delay: 1_000_000,
            queue: VecDeque::new(),
            corrupt_next: false,
        };
        let arrivals = (0..10)
            .map(|i| Arrival {
                due_ns: i * 10,
                conn: 0,
                payload_seed: i,
            })
            .collect();
        let mut g = Generator::new(arrivals, 1, 0, 0);
        let clock = || now.get();
        for t in [0, 45, 95] {
            now.set(t);
            g.step(&mut wire, &clock, &mut SpanBuf::new(0));
        }
        assert!(g.all_sent());
        let r = g.finish(95);
        assert_eq!((r.backlog_mid, r.backlog_end, r.completed), (5, 10, 0));
    }
}
