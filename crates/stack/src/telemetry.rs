//! Cross-process telemetry: how one node's observability leaves its
//! process, and how the per-process traces fuse into one timeline.
//!
//! A swarm child records counters, spans, flight records and a causal
//! [`TraceLog`](crate::TraceLog) locally. At shutdown it prints both on
//! the stdout its `RESULT` line uses, in the one format every other
//! report reader takes: the report as [`ObsReport::to_jsonl`] lines, the
//! trace as [`TraceLog::to_jsonl`](crate::TraceLog::to_jsonl) lines. The
//! parent reads them back with [`ObsReport::from_jsonl`] and
//! [`TraceLog::from_jsonl`](crate::TraceLog::from_jsonl), which refuse
//! truncated or corrupted input with an error naming the line, never a
//! panic. A child that dies mid-run ships nothing; its post-mortem is the
//! `failure_*.jsonl` dump it writes on the way out.
//!
//! [`ObsReport::to_jsonl`]: manet_obs::ObsReport::to_jsonl
//! [`ObsReport::from_jsonl`]: manet_obs::ObsReport::from_jsonl
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

use manet_obs::{CausalEvent, CausalKind};

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
    use crate::TraceLog;
    use manet_des::{NodeId, SimTime};
    use manet_obs::{FlightRecorder, ObsReport, Severity};

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
        report.spans.add_total(s, 320_000, 64);
        report.recorder = FlightRecorder::new(8);
        report
            .recorder
            .record(1.0, Severity::Info, "join", "n1 joined".into());
        report
            .recorder
            .record(2.0, Severity::Warn, "retry", "attempt  2".into());
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

    /// The trace's analytical content: events, totals, namespace,
    /// watermarks and capacity.
    fn assert_same_trace(a: &TraceLog, b: &TraceLog) {
        assert_eq!(a.causal_events(), b.causal_events());
        assert_eq!(
            (a.offered(), a.dropped(), a.sampled_out()),
            (b.offered(), b.dropped(), b.sampled_out())
        );
        assert_eq!((a.id_base(), a.capacity()), (b.id_base(), b.capacity()));
        assert_eq!((a.next_trace, a.next_span), (b.next_trace, b.next_span));
    }

    #[test]
    fn telemetry_roundtrips_exactly() {
        let report = sample_report();
        let back = ObsReport::from_jsonl(&report.to_jsonl()).expect("report reads back");
        assert_eq!(back, report, "report round-trips exactly");
        let trace = sample_trace();
        let back = TraceLog::from_jsonl(&trace.to_jsonl()).expect("trace reads back");
        assert_same_trace(&back, &trace);
    }

    #[test]
    fn truncation_yields_errors_never_panics() {
        let (report, trace) = (sample_report().to_jsonl(), sample_trace().to_jsonl());
        for text in [&report, &trace] {
            for cut in 1..text.len() {
                let bytes = text.as_bytes();
                if bytes[cut - 1] == b'\n' || bytes[cut] == b'\n' {
                    continue; // a cut between lines, not inside one
                }
                assert!(
                    ObsReport::from_jsonl(&text[..cut]).is_err(),
                    "report cut at {cut}"
                );
                assert!(
                    TraceLog::from_jsonl(&text[..cut]).is_err(),
                    "trace cut at {cut}"
                );
            }
        }
        // The report also refuses a cut between lines: its recorder header
        // counts the records that must follow it.
        let lines: Vec<&str> = report.lines().collect();
        for keep in 0..lines.len() {
            let prefix = lines[..keep].join("\n");
            assert!(ObsReport::from_jsonl(&prefix).is_err(), "{keep} lines read");
        }
    }

    #[test]
    fn corruption_is_rejected_not_propagated() {
        // Flip every byte in turn; reading must never panic, and whatever
        // still reads folds into an accumulator without overflowing it.
        for text in [sample_report().to_jsonl(), sample_trace().to_jsonl()] {
            for i in 0..text.len() {
                let mut bad = text.clone().into_bytes();
                bad[i] ^= 0x5A;
                let Ok(bad) = String::from_utf8(bad) else {
                    continue;
                };
                if let Ok(report) = ObsReport::from_jsonl(&bad) {
                    ObsReport::default().merge(&report);
                }
                if let Ok(trace) = TraceLog::from_jsonl(&bad) {
                    TraceLog::new(64).merge_offset(&trace);
                }
            }
        }
    }

    /// Ship `trace` through its JSONL and fold it into `acc` `times`
    /// times, the way the swarm parent does.
    fn merge_forged(acc: &mut TraceLog, trace: &TraceLog, times: usize) {
        let shipped = TraceLog::from_jsonl(&trace.to_jsonl()).expect("forged trace reads");
        for _ in 0..times {
            acc.merge_offset(&shipped);
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
        let report = ObsReport::from_jsonl(&ObsReport::default().to_jsonl()).expect("reads");
        assert_eq!(report, ObsReport::default());
        let empty = TraceLog::new(0);
        let trace = TraceLog::from_jsonl(&empty.to_jsonl()).expect("reads");
        assert!(trace.is_empty());
        assert_same_trace(&trace, &empty);
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
