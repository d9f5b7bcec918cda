//! Spans recorded by benchmark code around each public call into a layer.
//!
//! A [`SpanBuf`] is a preallocated, fixed-capacity buffer owned by exactly
//! one ULT (or the generator thread): recording is a bounds check and a
//! store — no allocation, no thread-local state — so it is legal inside
//! `SignalYield` ULTs. A full buffer drops and counts. Buffers are merged
//! and written as JSON lines when the benchmark ends.
//!
//! Span ids are computed, not allocated: `id = op · 16 + slot`, where `op`
//! is the wave number or request sequence the span belongs to and `slot`
//! is fixed per span name (`TABLE`). Code on two threads can therefore
//! name each other's spans as parents without sharing a counter.

use std::collections::HashMap;
use std::io::Write;

/// Every span name with its slot: the low four bits of the id, distinct
/// among the names one op can carry. `Span::name` indexes this table.
const TABLE: &[(&str, u64)] = &[
    ("wave", 1),                  // forkjoin root: spawn loop + join loop
    ("core.thread.spawn", 2),     // the spawn loop of one wave
    ("core.thread.join_wait", 3), // the join loop of one wave
    ("request", 1),               // echo root: due time → reply verified
    ("gen.send", 2),              // generator write syscall
    ("io.wake_path", 3),          // send done → handler read returns
    ("handler.turn", 4),          // read returns → write returns
    ("io.net.read", 5),           // blocking-handler read call
    ("io.net.write", 6),
    ("io.anet.read", 5), // async-handler read future
    ("io.anet.write", 6),
    ("core.preempt.gap", 7), // spinner descheduled (beside requests in `echo_busy`)
    ("sync.op", 1),          // lock → unlock, or send → token back
    ("sync.mutex.lock_wait", 2),
    ("sync.mcs.lock_wait", 2),
    ("sync.channel.send", 2),
    ("sync.channel.recv_wait", 3),
];

pub const WAVE: u16 = 0;
pub const SPAWN: u16 = 1;
pub const JOIN_WAIT: u16 = 2;
pub const REQUEST: u16 = 3;
pub const GEN_SEND: u16 = 4;
pub const WAKE_PATH: u16 = 5;
pub const TURN: u16 = 6;
pub const NET_READ: u16 = 7;
pub const NET_WRITE: u16 = 8;
pub const ANET_READ: u16 = 9;
pub const ANET_WRITE: u16 = 10;
pub const GAP: u16 = 11;
pub const SYNC_OP: u16 = 12;
pub const MUTEX_WAIT: u16 = 13;
pub const MCS_WAIT: u16 = 14;
pub const CHAN_SEND: u16 = 15;
pub const CHAN_RECV_WAIT: u16 = 16;

pub fn span_id(op: u64, name: u16) -> u64 {
    op * 16 + TABLE[name as usize].1
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 = a root span.
    pub parent: u64,
    pub op: u64,
    pub name: u16,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct SpanBuf {
    spans: Vec<Span>,
    capacity: usize,
    dropped: u64,
}

impl SpanBuf {
    /// Reserves all memory up front. Capacity 0 is the untraced case: the
    /// buffer records nothing and counts nothing.
    pub fn new(capacity: usize) -> SpanBuf {
        SpanBuf {
            spans: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Record a span under `parent_name` of the same op (`None` = root).
    #[inline]
    pub fn record(
        &mut self,
        name: u16,
        op: u64,
        parent_name: Option<u16>,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.spans.len() >= self.capacity {
            self.dropped += u64::from(self.capacity > 0);
            return;
        }
        self.spans.push(Span {
            id: span_id(op, name),
            parent: parent_name.map_or(0, |p| span_id(op, p)),
            op,
            name,
            start_ns,
            end_ns,
        });
    }

    pub fn take(&mut self) -> (Vec<Span>, u64) {
        (
            std::mem::take(&mut self.spans),
            std::mem::take(&mut self.dropped),
        )
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children are counted once and a
/// child is clipped to its parent's interval.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            (
                s.id,
                (s.end_ns.saturating_sub(s.start_ns)).saturating_sub(covered),
            )
        })
        .collect()
}

/// Drop spans whose parent was never recorded (its buffer was full, or the
/// op did not finish inside the traced trial); returns how many went.
pub fn drop_orphans(spans: &mut Vec<Span>) -> u64 {
    let before = spans.len();
    loop {
        let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
        let n = spans.len();
        spans.retain(|s| s.parent == 0 || ids.contains(&s.parent));
        if spans.len() == n {
            return (before - n) as u64;
        }
    }
}

/// One JSON object per line: id, parent (0 = root), op, name, start_ns,
/// end_ns, self_ns.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id, s.parent, s.op, TABLE[s.name as usize].0, s.start_ns, s.end_ns, selfs[&s.id]
        )?;
    }
    w.flush()
}

/// Durations (ns) of every span of one name, ascending.
pub fn durations(spans: &[Span], name: u16) -> Vec<u64> {
    let mut v: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_with_nested_children() {
        // root 0..100, child 10..60, grandchild 20..30.
        let s = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 2, 20, 30)];
        let t = self_times(&s);
        assert_eq!(t[&1], 50);
        assert_eq!(t[&2], 40);
        assert_eq!(t[&3], 10);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        // Children 10..50 and 30..70 overlap (cover 10..70); a third spills
        // past the parent's end (90..130 → 90..100).
        let s = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 50),
            span(3, 1, 30, 70),
            span(4, 1, 90, 130),
        ];
        assert_eq!(self_times(&s)[&1], 100 - 60 - 10);
    }

    #[test]
    fn full_buffer_drops_and_counts() {
        let mut b = SpanBuf::new(2);
        for op in 0..5 {
            b.record(WAVE, op, None, 0, 1);
        }
        let (spans, dropped) = b.take();
        assert_eq!((spans.len(), dropped), (2, 3));
        let mut off = SpanBuf::new(0);
        off.record(WAVE, 0, None, 0, 1);
        assert_eq!(off.take(), (vec![], 0));
    }

    #[test]
    fn ids_link_parent_and_child_across_buffers() {
        let mut gen = SpanBuf::new(4);
        let mut handler = SpanBuf::new(4);
        gen.record(REQUEST, 9, None, 0, 100);
        handler.record(TURN, 9, Some(REQUEST), 40, 60);
        handler.record(TURN, 10, Some(REQUEST), 140, 160); // request 10 never recorded
        let mut all = gen.take().0;
        all.extend(handler.take().0);
        assert_eq!(drop_orphans(&mut all), 1);
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].parent, all[0].id);
    }

    #[test]
    fn slots_are_distinct_within_each_op_family() {
        for family in [
            &[WAVE, SPAWN, JOIN_WAIT][..],
            // A spinner's gap index can equal a request's sequence number.
            &[REQUEST, GEN_SEND, WAKE_PATH, TURN, NET_READ, NET_WRITE, GAP][..],
            &[
                REQUEST, GEN_SEND, WAKE_PATH, TURN, ANET_READ, ANET_WRITE, GAP,
            ][..],
            &[SYNC_OP, MUTEX_WAIT][..],
            &[SYNC_OP, MCS_WAIT][..],
            &[SYNC_OP, CHAN_SEND, CHAN_RECV_WAIT][..],
        ] {
            let mut ids: Vec<u64> = family.iter().map(|&n| span_id(5, n)).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), family.len());
        }
    }
}
