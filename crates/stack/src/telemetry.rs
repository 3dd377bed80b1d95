//! The telemetry frame: one node's observability, shipped across a
//! process boundary — plus the clock-offset stitcher that fuses
//! per-process traces into one timeline.
//!
//! A swarm child records counters, spans, flight records and a causal
//! [`TraceLog`] locally; at shutdown it encodes everything into one
//! length-prefixed binary frame ([`encode_telemetry`]) and ships it to the
//! parent over the existing stdio RESULT channel (hex-armored — see
//! [`to_hex`]/[`from_hex`] — so the frame survives line-oriented
//! transport). The parent decodes ([`decode_telemetry`]) with the same
//! typed-[`WireError`] discipline as the datagram codec: truncation and
//! corruption are expected inputs, never panics. The trace travels as its
//! [`CausalEvent`]s, one tag per [`CausalKind`]. A child that dies
//! mid-run ships no frame; its post-mortem is the `failure_*.jsonl` dump
//! it writes on the way out.
//!
//! Cross-process traces need one more step. Each node stamps span times
//! from its own monotonic clock, and those clocks share no epoch — a
//! `Recv` span can appear to precede the `Send` that caused it.
//! [`stitch_clocks`] estimates per-node clock offsets from the
//! send/recv timestamp pairs already present in the merged event stream
//! (the minimum observed one-way delay per directed node pair; the
//! half-difference of the two directions where both exist), re-bases
//! every node's span times, and re-orders the stream so parents precede
//! children — exactly what `manet_obs::causal::artifact` needs to emit
//! a single Perfetto-loadable file whose causal trees span OS processes.

use std::collections::HashMap;

use manet_des::wire::{put_u16, put_u32, put_u64, put_u8};
use manet_des::{WireError, WireReader};
use manet_obs::registry::Histogram;
use manet_obs::{
    intern, CausalEvent, CausalKind, FlightRecord, FlightRecorder, ObsReport, Severity,
};

use crate::trace::TraceLog;

/// Leading bytes of every telemetry frame (distinct from the datagram
/// codec's `[0xAD, 0x0C]`, so a frame pasted into the wrong decoder is
/// rejected up front).
pub const TELEMETRY_MAGIC: [u8; 2] = [0xAD, 0x0B];

/// Telemetry codec version; bumped on any layout change.
pub const TELEMETRY_VERSION: u8 = 2;

/// One node's decoded telemetry snapshot.
#[derive(Debug)]
pub struct Telemetry {
    /// The reporting node.
    pub node: u32,
    /// Counters, gauges, histograms, series, spans and flight records.
    pub report: ObsReport,
    /// The node's causal trace. Reconstructed for *analysis*:
    /// events, totals and id watermarks round-trip exactly; the private
    /// reservoir-sampler state does not travel (the decoded log is
    /// merged and read, never recorded into).
    pub trace: TraceLog,
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    debug_assert!(
        bytes.len() <= u16::MAX as usize,
        "telemetry string too long"
    );
    put_u16(buf, bytes.len() as u16);
    buf.extend_from_slice(bytes);
}

fn read_str(r: &mut WireReader<'_>) -> Result<String, WireError> {
    let len = r.u16()? as usize;
    let mut s = Vec::with_capacity(len);
    for _ in 0..len {
        s.push(r.u8()?);
    }
    String::from_utf8(s).map_err(|_| WireError::BadTag {
        what: "telemetry string utf-8",
        tag: 0,
    })
}

fn read_static_str(r: &mut WireReader<'_>) -> Result<&'static str, WireError> {
    Ok(intern(&read_str(r)?))
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn read_f64(r: &mut WireReader<'_>) -> Result<f64, WireError> {
    Ok(f64::from_bits(r.u64()?))
}

fn severity_tag(s: Severity) -> u8 {
    match s {
        Severity::Debug => 0,
        Severity::Info => 1,
        Severity::Warn => 2,
        Severity::Error => 3,
    }
}

fn severity_from(tag: u8) -> Result<Severity, WireError> {
    match tag {
        0 => Ok(Severity::Debug),
        1 => Ok(Severity::Info),
        2 => Ok(Severity::Warn),
        3 => Ok(Severity::Error),
        tag => Err(WireError::BadTag {
            what: "flight severity",
            tag,
        }),
    }
}

const EV_ORIGIN: u8 = 0;
const EV_SEND: u8 = 1;
const EV_RECV: u8 = 2;
const EV_DELIVER: u8 = 3;
const EV_UNREACHABLE: u8 = 4;
const EV_TIMER: u8 = 5;

fn put_event(buf: &mut Vec<u8>, e: &CausalEvent) {
    put_u64(buf, e.t);
    put_u8(
        buf,
        match e.kind {
            CausalKind::Origin { .. } => EV_ORIGIN,
            CausalKind::Send { .. } => EV_SEND,
            CausalKind::Recv { .. } => EV_RECV,
            CausalKind::Deliver { .. } => EV_DELIVER,
            CausalKind::Unreachable { .. } => EV_UNREACHABLE,
            CausalKind::TimerArm { .. } => EV_TIMER,
        },
    );
    put_u32(buf, e.node);
    put_u64(buf, e.trace_id);
    put_u64(buf, e.span);
    put_u64(buf, e.parent);
    match e.kind {
        CausalKind::Origin { label } => put_str(buf, label),
        CausalKind::Send { frame, to, bytes } => {
            match to {
                Some(to) => {
                    put_u8(buf, 1);
                    put_u32(buf, to);
                }
                None => put_u8(buf, 0),
            }
            put_str(buf, frame);
            put_u32(buf, bytes);
        }
        CausalKind::Recv { frame, from } => {
            put_u32(buf, from);
            put_str(buf, frame);
        }
        CausalKind::Deliver { kind, hops } => {
            put_str(buf, kind);
            put_u8(buf, hops);
        }
        CausalKind::Unreachable { dst } => put_u32(buf, dst),
        CausalKind::TimerArm { at } => put_u64(buf, at),
    }
}

fn read_event(r: &mut WireReader<'_>) -> Result<CausalEvent, WireError> {
    let t = r.u64()?;
    let tag = r.u8()?;
    let node = r.u32()?;
    let trace_id = r.u64()?;
    let span = r.u64()?;
    let parent = r.u64()?;
    let kind = match tag {
        EV_ORIGIN => CausalKind::Origin {
            label: read_static_str(r)?,
        },
        EV_SEND => CausalKind::Send {
            to: if r.flag("unicast receiver presence")? {
                Some(r.u32()?)
            } else {
                None
            },
            frame: read_static_str(r)?,
            bytes: r.u32()?,
        },
        EV_RECV => CausalKind::Recv {
            from: r.u32()?,
            frame: read_static_str(r)?,
        },
        EV_DELIVER => CausalKind::Deliver {
            kind: read_static_str(r)?,
            hops: r.u8()?,
        },
        EV_UNREACHABLE => CausalKind::Unreachable { dst: r.u32()? },
        EV_TIMER => CausalKind::TimerArm { at: r.u64()? },
        tag => {
            return Err(WireError::BadTag {
                what: "trace event",
                tag,
            })
        }
    };
    Ok(CausalEvent {
        trace_id,
        span,
        parent,
        t,
        node,
        kind,
    })
}

/// Encode node `node`'s report and trace into one telemetry frame.
pub fn encode_telemetry(node: u32, report: &ObsReport, trace: &TraceLog) -> Vec<u8> {
    let mut body = Vec::with_capacity(1024);
    put_u32(&mut body, node);
    put_u32(&mut body, report.runs);

    let counters: Vec<_> = report.registry.counters().collect();
    put_u32(&mut body, counters.len() as u32);
    for (name, v) in counters {
        put_str(&mut body, name);
        put_u64(&mut body, v);
    }
    let gauges: Vec<_> = report.registry.gauges().collect();
    put_u32(&mut body, gauges.len() as u32);
    for (name, v) in gauges {
        put_str(&mut body, name);
        put_f64(&mut body, v);
    }
    let hists: Vec<_> = report.registry.hists().collect();
    put_u32(&mut body, hists.len() as u32);
    for (name, h) in hists {
        put_str(&mut body, name);
        put_u64(&mut body, h.sum());
        let pairs = h.nonzero();
        put_u32(&mut body, pairs.len() as u32);
        for (floor, c) in pairs {
            put_u64(&mut body, floor);
            put_u64(&mut body, c);
        }
    }
    put_u32(&mut body, report.registry.n_samples() as u32);
    for (t, counters, gauges) in report.registry.samples() {
        put_f64(&mut body, t);
        put_u32(&mut body, counters.len() as u32);
        for &v in counters {
            put_u64(&mut body, v);
        }
        put_u32(&mut body, gauges.len() as u32);
        for &v in gauges {
            put_f64(&mut body, v);
        }
    }
    let spans: Vec<_> = report.spans.rows().collect();
    put_u32(&mut body, spans.len() as u32);
    for (name, total, entries) in spans {
        put_str(&mut body, name);
        put_u64(&mut body, total.as_nanos() as u64);
        put_u64(&mut body, entries);
    }
    put_u32(&mut body, report.recorder.capacity() as u32);
    put_u64(&mut body, report.recorder.offered());
    put_u64(&mut body, report.recorder.dropped());
    put_u32(&mut body, report.recorder.len() as u32);
    for rec in report.recorder.records() {
        put_f64(&mut body, rec.t_secs);
        put_u8(&mut body, severity_tag(rec.severity));
        put_str(&mut body, rec.tag);
        put_str(&mut body, &rec.msg);
    }

    put_u32(&mut body, trace.capacity() as u32);
    put_u64(&mut body, trace.id_base());
    put_u64(&mut body, trace.offered());
    put_u64(&mut body, trace.dropped());
    put_u64(&mut body, trace.sampled_out());
    put_u64(&mut body, trace.next_trace);
    put_u64(&mut body, trace.next_span);
    put_u32(&mut body, trace.len() as u32);
    for event in trace.events() {
        put_event(&mut body, event);
    }

    let mut buf = Vec::with_capacity(body.len() + 9);
    buf.extend_from_slice(&TELEMETRY_MAGIC);
    put_u8(&mut buf, TELEMETRY_VERSION);
    put_u32(&mut buf, body.len() as u32);
    buf.extend_from_slice(&body);
    buf
}

/// Decode a frame written by [`encode_telemetry`]. The whole buffer must
/// be consumed; truncation, bad tags and trailing garbage come back as
/// typed [`WireError`]s, never panics.
pub fn decode_telemetry(buf: &[u8]) -> Result<Telemetry, WireError> {
    let mut r = WireReader::new(buf);
    for expect in TELEMETRY_MAGIC {
        let got = r.u8()?;
        if got != expect {
            return Err(WireError::BadTag {
                what: "telemetry magic",
                tag: got,
            });
        }
    }
    let version = r.u8()?;
    if version != TELEMETRY_VERSION {
        return Err(WireError::BadTag {
            what: "telemetry version",
            tag: version,
        });
    }
    let body_len = r.u32()? as usize;
    if r.remaining() != body_len {
        return Err(WireError::Truncated {
            need: body_len,
            have: r.remaining(),
        });
    }

    let node = r.u32()?;
    let mut report = ObsReport {
        runs: r.u32()?,
        ..ObsReport::default()
    };
    let n_counters = r.u32()?;
    for _ in 0..n_counters {
        let name = read_static_str(&mut r)?;
        let v = r.u64()?;
        let id = report.registry.counter(name);
        report.registry.set(id, v);
    }
    let n_gauges = r.u32()?;
    for _ in 0..n_gauges {
        let name = read_static_str(&mut r)?;
        let v = read_f64(&mut r)?;
        let id = report.registry.gauge(name);
        report.registry.set_gauge(id, v);
    }
    let n_hists = r.u32()?;
    for _ in 0..n_hists {
        let name = read_static_str(&mut r)?;
        let sum = r.u64()?;
        let n_pairs = r.u32()?;
        let mut pairs = Vec::with_capacity(n_pairs.min(1 << 16) as usize);
        for _ in 0..n_pairs {
            let floor = r.u64()?;
            let c = r.u64()?;
            pairs.push((floor, c));
        }
        let id = report.registry.hist(name);
        report
            .registry
            .set_hist(id, &Histogram::from_parts(&pairs, sum));
    }
    let n_samples = r.u32()?;
    for _ in 0..n_samples {
        let t = read_f64(&mut r)?;
        let nc = r.u32()?;
        let mut counters = Vec::with_capacity(nc.min(1 << 16) as usize);
        for _ in 0..nc {
            counters.push(r.u64()?);
        }
        let ng = r.u32()?;
        let mut gauges = Vec::with_capacity(ng.min(1 << 16) as usize);
        for _ in 0..ng {
            gauges.push(read_f64(&mut r)?);
        }
        report.registry.push_sample(t, counters, gauges);
    }
    let n_spans = r.u32()?;
    for _ in 0..n_spans {
        let name = read_static_str(&mut r)?;
        let nanos = r.u64()?;
        let entries = r.u64()?;
        let id = report.spans.register(name);
        report.spans.add_total(id, nanos, entries);
    }
    let capacity = r.u32()? as usize;
    let offered = r.u64()?;
    let dropped = r.u64()?;
    let n_records = r.u32()?;
    let mut records = Vec::with_capacity(n_records.min(1 << 16) as usize);
    for _ in 0..n_records {
        records.push(FlightRecord {
            t_secs: read_f64(&mut r)?,
            severity: severity_from(r.u8()?)?,
            tag: read_static_str(&mut r)?,
            msg: read_str(&mut r)?,
        });
    }
    report.recorder = FlightRecorder::from_parts(capacity, offered, dropped, records);

    let trace_capacity = r.u32()? as usize;
    let id_base = r.u64()?;
    let mut trace = TraceLog::with_id_base(trace_capacity, 0, id_base);
    trace.offered = r.u64()?;
    trace.dropped = r.u64()?;
    trace.sampled_out = r.u64()?;
    trace.next_trace = r.u64()?;
    trace.next_span = r.u64()?;
    let n_events = r.u32()?;
    let mut arena = Vec::with_capacity(n_events.min(1 << 20) as usize);
    for _ in 0..n_events {
        arena.push(read_event(&mut r)?);
    }
    trace.arena = arena;
    trace.head = 0;

    r.finish()?;
    Ok(Telemetry {
        node,
        report,
        trace,
    })
}

/// Hex-armor a telemetry frame for a line-oriented channel.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Decode [`to_hex`] output. Odd length reads as truncation; a non-hex
/// byte as a bad tag.
pub fn from_hex(s: &str) -> Result<Vec<u8>, WireError> {
    let s = s.trim();
    if !s.len().is_multiple_of(2) {
        return Err(WireError::Truncated { need: 1, have: 0 });
    }
    let digit = |c: u8| -> Result<u8, WireError> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            c => Err(WireError::BadTag {
                what: "hex digit",
                tag: c,
            }),
        }
    };
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        out.push((digit(pair[0])? << 4) | digit(pair[1])?);
    }
    Ok(out)
}

/// Estimate per-node clock offsets from the send/recv pairs in a merged
/// causal stream, re-base every event's time, and re-order the stream so
/// parents precede children.
///
/// Each node stamps spans from its own clock; the only cross-clock
/// observations are message exchanges: a `Recv` whose parent is a `Send`
/// recorded on another node. For each directed node pair the minimum
/// observed `t_recv - t_send` estimates `delay + offset(sender) -
/// offset(receiver)`; where both directions exist, the half-difference
/// cancels the propagation delay (the classic NTP estimator). Offsets
/// propagate over the resulting pair graph breadth-first from the
/// lowest-numbered node of each component; nodes with no exchanges keep
/// their own clock. A final monotone fix-up pins every child at or after
/// its parent (residual skew can exceed the estimate), and the stream is
/// re-emitted in per-trace topological order — parents first, siblings
/// by time — which is exactly the order `causal::artifact` requires.
pub fn stitch_clocks(events: Vec<CausalEvent>) -> Vec<CausalEvent> {
    // 1. Directed minimum one-way "delay" per (sender, receiver) pair.
    let send_at: HashMap<u64, (u32, u64)> = events
        .iter()
        .filter(|e| matches!(e.kind, CausalKind::Send { .. }))
        .map(|e| (e.span, (e.node, e.t)))
        .collect();
    let mut min_delay: HashMap<(u32, u32), i64> = HashMap::new();
    for e in &events {
        if !matches!(e.kind, CausalKind::Recv { .. }) {
            continue;
        }
        let Some(&(sender, sent_t)) = send_at.get(&e.parent) else {
            continue;
        };
        if sender == e.node {
            continue;
        }
        let d = e.t as i64 - sent_t as i64;
        min_delay
            .entry((sender, e.node))
            .and_modify(|m| *m = (*m).min(d))
            .or_insert(d);
    }

    // 2. Relative offset along each undirected edge:
    //    off(b) - off(a) = (m_ba - m_ab) / 2 when both directions were
    //    observed, else -m_ab (assume zero propagation delay — the
    //    conservative choice that puts the earliest recv exactly at its
    //    send).
    let mut edges: HashMap<u32, Vec<(u32, i64)>> = HashMap::new();
    let mut seen_pairs: Vec<(u32, u32)> = min_delay.keys().copied().collect();
    seen_pairs.sort_unstable();
    for &(a, b) in &seen_pairs {
        if a > b && min_delay.contains_key(&(b, a)) {
            continue; // handled from the (b, a) side
        }
        let m_ab = min_delay.get(&(a, b)).copied();
        let m_ba = min_delay.get(&(b, a)).copied();
        let off_b_minus_a = match (m_ab, m_ba) {
            (Some(ab), Some(ba)) => (ba - ab) / 2,
            (Some(ab), None) => -ab,
            (None, Some(ba)) => ba,
            (None, None) => continue,
        };
        edges.entry(a).or_default().push((b, off_b_minus_a));
        edges.entry(b).or_default().push((a, -off_b_minus_a));
    }

    // 3. Propagate offsets breadth-first from the lowest node of each
    //    component (iterating nodes in ascending order keeps the result
    //    deterministic).
    let mut nodes: Vec<u32> = events.iter().map(|e| e.node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let mut offset: HashMap<u32, i64> = HashMap::new();
    for &root in &nodes {
        if offset.contains_key(&root) {
            continue;
        }
        offset.insert(root, 0);
        let mut frontier = vec![root];
        while let Some(a) = frontier.pop() {
            let base = offset[&a];
            let Some(neigh) = edges.get(&a) else {
                continue;
            };
            for &(b, d) in neigh {
                if let std::collections::hash_map::Entry::Vacant(slot) = offset.entry(b) {
                    slot.insert(base + d);
                    frontier.push(b);
                }
            }
        }
    }

    // 4. Re-base. Shift everything up by the most negative offset so
    //    times stay unsigned.
    let min_off = offset.values().copied().min().unwrap_or(0).min(0);
    let mut events: Vec<CausalEvent> = events;
    for e in &mut events {
        let off = offset.get(&e.node).copied().unwrap_or(0) - min_off;
        e.t = (e.t as i64 + off).max(0) as u64;
    }

    // 5. Monotone fix-up along parent links, then per-trace topological
    //    re-emit: parents first, siblings ordered by (t, span).
    let index: HashMap<(u64, u64), usize> = events
        .iter()
        .enumerate()
        .map(|(i, e)| ((e.trace_id, e.span), i))
        .collect();
    let depths = parent_depths(&events, &index);
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| (depths[i], events[i].t, events[i].span));
    for &i in &order {
        let e = &events[i];
        if e.parent == 0 {
            continue;
        }
        if let Some(&p) = index.get(&(e.trace_id, e.parent)) {
            let parent_t = events[p].t;
            if events[i].t < parent_t {
                events[i].t = parent_t;
            }
        }
    }
    // Emit traces grouped, in order of their first (root) event; within a
    // trace parents precede children by construction of the depth sort.
    let mut trace_rank: HashMap<u64, usize> = HashMap::new();
    for &i in &order {
        let next = trace_rank.len();
        trace_rank.entry(events[i].trace_id).or_insert(next);
    }
    let mut final_order = order;
    final_order.sort_by_key(|&i| {
        (
            trace_rank[&events[i].trace_id],
            depths[i],
            events[i].t,
            events[i].span,
        )
    });
    final_order.into_iter().map(|i| events[i]).collect()
}

/// Each event's depth along its parent chain: roots and orphans (parent
/// not in the stream) are 0, every other event one more than its parent.
/// Iterative, so a chain of any length costs no stack: climb from an
/// unresolved event, pushing the path, until a resolved event, a root or
/// an orphan, then unwind. A path event reads as depth 0 while it is being
/// resolved, so on malformed input a cycle is cut where the climb meets
/// itself.
fn parent_depths(events: &[CausalEvent], index: &HashMap<(u64, u64), usize>) -> Vec<i32> {
    let parent_of = |i: usize| {
        let e = &events[i];
        if e.parent == 0 {
            None
        } else {
            index.get(&(e.trace_id, e.parent)).copied()
        }
    };
    const UNRESOLVED: i32 = -1;
    let mut depth = vec![UNRESOLVED; events.len()];
    let mut path = Vec::new();
    for start in 0..events.len() {
        let mut i = start;
        while depth[i] == UNRESOLVED {
            depth[i] = 0;
            path.push(i);
            match parent_of(i) {
                Some(p) => i = p,
                None => break,
            }
        }
        while let Some(j) = path.pop() {
            depth[j] = parent_of(j).map_or(0, |p| depth[p] + 1);
        }
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_des::{NodeId, SimTime};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn sample_report() -> ObsReport {
        let mut report = ObsReport {
            runs: 1,
            ..ObsReport::default()
        };
        let c = report.registry.counter("rt.dgram_rx");
        report.registry.inc(c, 42);
        let g = report.registry.gauge("rt.backlog");
        report.registry.set_gauge(g, 2.5);
        let h = report.registry.hist("stack.delivery_hops");
        report.registry.observe(h, 3);
        report.registry.observe(h, 1);
        report.registry.sample(10.0);
        report.registry.inc(c, 8);
        report.registry.sample(20.0);
        let s = report.spans.register("rt.drain");
        report
            .spans
            .add_weighted(s, std::time::Duration::from_micros(5), 64);
        report.recorder = FlightRecorder::new(8);
        report
            .recorder
            .record(1.0, Severity::Info, "join", "n1 joined".into());
        report
            .recorder
            .record(2.0, Severity::Warn, "retry", "attempt 2".into());
        report
    }

    fn sample_trace() -> TraceLog {
        let mut log = TraceLog::with_id_base(64, 9, crate::trace::node_id_base(1));
        let root = log.origin(t(1), NodeId(1), "query");
        let send = log.child(t(1), NodeId(1), root, || CausalKind::Send {
            frame: "data",
            to: Some(2),
            bytes: 64,
        });
        let recv = log.child(t(2), NodeId(1), send, || CausalKind::Recv {
            frame: "data",
            from: 2,
        });
        let unreachable = log.child(t(3), NodeId(1), recv, || CausalKind::Unreachable { dst: 5 });
        log.child(t(3), NodeId(1), unreachable, || CausalKind::TimerArm {
            at: t(4).ticks(),
        });
        log.child(t(4), NodeId(1), send, || CausalKind::Deliver {
            kind: "query_hit",
            hops: 2,
        });
        log
    }

    #[test]
    fn telemetry_roundtrips_exactly() {
        let report = sample_report();
        let trace = sample_trace();
        let frame = encode_telemetry(7, &report, &trace);
        let back = decode_telemetry(&frame).expect("decodes");
        assert_eq!(back.node, 7);
        assert_eq!(back.report, report, "report round-trips bit-exactly");
        // The trace's analytical content round-trips: events, totals,
        // namespaces, watermarks.
        assert_eq!(back.trace.causal_events(), trace.causal_events());
        assert_eq!(back.trace.offered(), trace.offered());
        assert_eq!(back.trace.id_base(), trace.id_base());
        assert_eq!(back.trace.next_trace, trace.next_trace);
        assert_eq!(back.trace.next_span, trace.next_span);
        assert_eq!(back.trace.capacity(), trace.capacity());
    }

    #[test]
    fn hex_armor_roundtrips() {
        let frame = encode_telemetry(0, &ObsReport::default(), &TraceLog::new(0));
        let hex = to_hex(&frame);
        assert!(hex.bytes().all(|b| b.is_ascii_hexdigit()));
        assert_eq!(from_hex(&hex).expect("decodes"), frame);
        assert_eq!(from_hex(&format!(" {hex}\n")).expect("trims"), frame);
        assert!(from_hex("abc").is_err(), "odd length rejected");
        assert!(from_hex("zz").is_err(), "non-hex rejected");
    }

    #[test]
    fn truncation_yields_typed_errors_never_panics() {
        let frame = encode_telemetry(3, &sample_report(), &sample_trace());
        for cut in 0..frame.len() {
            match decode_telemetry(&frame[..cut]) {
                Err(WireError::Truncated { .. }) | Err(WireError::BadTag { .. }) => {}
                Err(WireError::Trailing { .. }) => panic!("prefix cannot trail"),
                Ok(_) => panic!("truncated frame at {cut} must not decode"),
            }
        }
    }

    #[test]
    fn corruption_is_rejected_not_propagated() {
        let frame = encode_telemetry(3, &sample_report(), &sample_trace());
        // Flip every byte in turn; decode must never panic, and whenever
        // it succeeds the result must still be internally consistent.
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0xFF;
            let _ = decode_telemetry(&bad);
        }
    }

    /// Decode a frame carrying `trace` and fold it into `acc` the way the
    /// swarm parent does.
    fn merge_forged(acc: &mut TraceLog, trace: &TraceLog, times: usize) {
        let frame = encode_telemetry(0, &ObsReport::default(), trace);
        let decoded = decode_telemetry(&frame).expect("forged frame decodes");
        for _ in 0..times {
            acc.merge_offset(&decoded.trace);
        }
    }

    #[test]
    fn forged_zero_trace_watermark_merges_without_panicking() {
        // A base-0 trace whose mint watermark claims 0 — below the
        // "first id is 1" floor every real log starts from.
        let mut forged = TraceLog::new(8);
        forged.origin(t(1), NodeId(0), "query");
        forged.next_trace = 0;
        forged.next_span = 0;
        let mut acc = TraceLog::new(64);
        merge_forged(&mut acc, &forged, 1);
        assert_eq!(acc.len(), 1);
        assert_eq!(acc.offered(), 1);
    }

    #[test]
    fn forged_offered_total_saturates_across_merges() {
        let mut forged = TraceLog::with_id_base(8, 0, crate::trace::node_id_base(0));
        forged.offered = u64::MAX;
        forged.dropped = u64::MAX;
        forged.sampled_out = u64::MAX;
        let mut acc = TraceLog::new(64);
        merge_forged(&mut acc, &forged, 2);
        assert_eq!(acc.offered(), u64::MAX);
        assert_eq!(acc.dropped(), u64::MAX);
        assert_eq!(acc.sampled_out(), u64::MAX);
    }

    #[test]
    fn empty_report_and_trace_roundtrip() {
        let frame = encode_telemetry(0, &ObsReport::default(), &TraceLog::new(0));
        let back = decode_telemetry(&frame).expect("decodes");
        assert_eq!(back.report, ObsReport::default());
        assert!(back.trace.is_empty());
    }

    fn ev(trace: u64, span: u64, parent: u64, t: u64, node: u32, kind: CausalKind) -> CausalEvent {
        CausalEvent {
            trace_id: trace,
            span,
            parent,
            t,
            node,
            kind,
        }
    }

    fn send(trace: u64, span: u64, parent: u64, t: u64, node: u32) -> CausalEvent {
        ev(
            trace,
            span,
            parent,
            t,
            node,
            CausalKind::Send {
                frame: "data",
                to: None,
                bytes: 64,
            },
        )
    }

    fn recv(trace: u64, span: u64, parent: u64, t: u64, node: u32, from: u32) -> CausalEvent {
        ev(
            trace,
            span,
            parent,
            t,
            node,
            CausalKind::Recv {
                frame: "data",
                from,
            },
        )
    }

    #[test]
    fn stitch_rebases_a_skewed_receiver() {
        // Node 1's clock is 1000 ticks behind node 0's: its recvs appear
        // to precede the sends that caused them. Both directions of
        // exchange exist, so the NTP half-difference recovers the skew.
        let origin = ev(1, 1, 0, 100, 0, CausalKind::Origin { label: "query" });
        // 0 -> 1: sent at 100 (node 0 clock), received at real 110 which
        // node 1 stamps as -890 -> impossible unsigned; use bigger bases.
        let s01 = send(1, 2, 1, 10_100, 0);
        let r01 = recv(1, 3, 2, 9_110, 1, 0); // 10_110 real - 1000 skew
        let s10 = send(1, 4, 3, 9_120, 1); // real 10_120
        let r10 = recv(1, 5, 4, 10_130, 0, 1);
        let out = stitch_clocks(vec![origin, s01, r01, s10, r10]);
        assert_eq!(out.len(), 5);
        // Parent always precedes child in the stream, and times are
        // monotone along every parent link.
        let mut seen: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for e in &out {
            if e.parent != 0 {
                let pt = seen.get(&e.parent).copied().expect("parent first");
                assert!(e.t >= pt, "child {e:?} precedes its parent");
            }
            seen.insert(e.span, e.t);
        }
        // The recv on node 1 now lands after its send on node 0 by the
        // true one-way delay (10 ticks), not before it.
        let r = out.iter().find(|e| e.span == 3).unwrap();
        let s = out.iter().find(|e| e.span == 2).unwrap();
        assert_eq!(r.t - s.t, 10, "skew removed, delay preserved");
    }

    #[test]
    fn stitch_single_direction_pins_recv_at_send() {
        let origin = ev(1, 1, 0, 100, 0, CausalKind::Origin { label: "query" });
        let s = send(1, 2, 1, 200, 0);
        let r = recv(1, 3, 2, 50, 1, 0); // receiver clock far behind
        let out = stitch_clocks(vec![origin, s, r]);
        let s_out = out.iter().find(|e| e.span == 2).unwrap();
        let r_out = out.iter().find(|e| e.span == 3).unwrap();
        assert_eq!(
            r_out.t, s_out.t,
            "one-directional pair assumes zero delay: recv lands at send"
        );
    }

    #[test]
    fn stitch_without_cross_node_pairs_is_ordering_only() {
        let origin = ev(1, 1, 0, 100, 0, CausalKind::Origin { label: "query" });
        let s = send(1, 2, 1, 150, 0);
        let out = stitch_clocks(vec![s, origin]);
        assert_eq!(out[0].span, 1, "parent re-ordered before child");
        assert_eq!(out[0].t, 100, "no offsets applied");
        assert_eq!(out[1].t, 150);
    }

    #[test]
    fn stitch_survives_a_long_chain_listed_child_first() {
        // One trace whose events form a single parent chain, listed
        // deepest first: depth resolution must not recurse per link.
        const N: u64 = 204_800;
        let chain: Vec<CausalEvent> = (1..=N)
            .rev()
            .map(|span| {
                ev(
                    1,
                    span,
                    span - 1,
                    span,
                    0,
                    CausalKind::TimerArm { at: span },
                )
            })
            .collect();
        let out = stitch_clocks(chain);
        assert_eq!(out.len(), N as usize);
        assert!(
            out.iter().zip(1..=N).all(|(e, span)| e.span == span),
            "re-emitted root first, each parent before its child"
        );
    }

    #[test]
    fn stitch_cuts_a_parent_cycle() {
        // Malformed input: span 1's parent is 3, 3's is 2, 2's is 1. The
        // climb from span 1 meets itself there and reads it as depth 0:
        // span 2 resolves to depth 1, span 3 to 2, and span 1, closing
        // the loop, to 3. Nothing recurses forever and nothing is lost.
        let cycle = vec![
            send(1, 1, 3, 10, 0),
            send(1, 2, 1, 20, 0),
            send(1, 3, 2, 30, 0),
        ];
        let out = stitch_clocks(cycle);
        let spans: Vec<u64> = out.iter().map(|e| e.span).collect();
        assert_eq!(spans, vec![2, 3, 1]);
    }
}
