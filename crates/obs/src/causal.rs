//! Causal trace analysis: per-query trees, latency breakdowns, and a
//! Chrome-trace-event exporter.
//!
//! The simulation records parent-linked [`CausalEvent`]s: each names a
//! trace (one overlay query or reconfiguration round), its own span id,
//! and the span of the event that caused it. This module is the pure
//! analysis half — it knows nothing about the simulator:
//!
//! * [`build_trees`] groups a flat event stream into per-trace
//!   [`CausalTree`]s (children indexed, orphans skipped);
//! * [`CausalTree::summary`] computes the paper-metric breakdown for one
//!   query: per-delivery route-discovery wait vs. in-flight transit vs.
//!   local processing, hop counts, fan-out, and dead branches;
//! * [`artifact`] / [`events_from_artifact`] / [`validate_artifact`]
//!   round-trip the events through a JSON artifact whose `traceEvents`
//!   array is Chrome trace-event format — loadable in Perfetto or
//!   `chrome://tracing` — while the lossless `spans` array feeds
//!   re-analysis. Each `spans` entry is [`event_to_json`]'s object, which
//!   a trace's JSONL `event` lines carry too; [`event_from_json`] reads
//!   both back.
//!
//! Timestamps are simulation ticks, which are microseconds — exactly the
//! unit the trace-event `ts` field wants, so no conversion happens
//! anywhere.
//!
//! Every name an event carries is a `&'static str`: recording sites pass
//! literals, and [`event_from_json`], the one reader of runtime text,
//! [`intern`](crate::intern())s them. So a
//! [`CausalEvent`] is `Copy`, and recording one allocates nothing.

use std::collections::HashMap;

use crate::intern;
use crate::json::Value;

/// What happened at one recorded point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CausalKind {
    /// A trace was minted: a query or reconfiguration round originated.
    Origin {
        /// What kind of activity this trace is (e.g. `"query"`,
        /// `"reconfig"`).
        label: &'static str,
    },
    /// A frame left a node's radio.
    Send {
        /// Frame kind (`"rreq"`, `"rrep"`, `"rerr"`, `"data"`, `"flood"`).
        frame: &'static str,
        /// Unicast receiver, or `None` for a broadcast.
        to: Option<u32>,
        /// Frame size on the air.
        bytes: u32,
    },
    /// A frame arrived at a node's radio.
    Recv {
        /// Frame kind, mirroring the parent send.
        frame: &'static str,
        /// The transmitting node.
        from: u32,
    },
    /// An overlay/content payload was handed up to a member.
    Deliver {
        /// The figure category of the payload (e.g. `"query"`, `"reply"`).
        kind: &'static str,
        /// Ad-hoc hops the payload travelled.
        hops: u8,
    },
    /// Route discovery gave up; the traced payloads were dropped.
    Unreachable {
        /// The destination that could not be reached.
        dst: u32,
    },
    /// A node armed its protocol timer on behalf of this trace (a route
    /// discovery retry is pending).
    TimerArm {
        /// When the timer will fire, in ticks.
        at: u64,
    },
}

impl CausalKind {
    /// Stable tag used in artifacts and display.
    pub fn name(&self) -> &'static str {
        match self {
            CausalKind::Origin { .. } => "origin",
            CausalKind::Send { .. } => "send",
            CausalKind::Recv { .. } => "recv",
            CausalKind::Deliver { .. } => "deliver",
            CausalKind::Unreachable { .. } => "unreachable",
            CausalKind::TimerArm { .. } => "timer",
        }
    }
}

/// One recorded causal event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CausalEvent {
    /// The trace this event belongs to (non-zero).
    pub trace_id: u64,
    /// This event's span id (unique within a run, non-zero).
    pub span: u64,
    /// Span of the causing event; 0 marks the trace root.
    pub parent: u64,
    /// When it happened, in simulation ticks (microseconds).
    pub t: u64,
    /// The node it happened at.
    pub node: u32,
    /// What happened.
    pub kind: CausalKind,
}

/// All retained events of one trace, children indexed by span.
#[derive(Clone, Debug)]
pub struct CausalTree {
    /// The trace id shared by every event in the tree.
    pub trace_id: u64,
    /// Events in recording (time) order; parents precede children.
    pub events: Vec<CausalEvent>,
    /// span → index into `events`.
    by_span: HashMap<u64, usize>,
    /// span → indices of events whose parent is that span.
    children: HashMap<u64, Vec<usize>>,
}

/// Latency decomposition of one delivered payload, in ticks.
///
/// The path from the trace root to the delivery is a chain of recorded
/// events; overlay processing is instantaneous in simulation time, so
/// every positive gap on the chain is attributable: a gap ending in a
/// `Recv` is radio transit, a gap ending in a `data` `Send` is time the
/// payload sat buffered waiting for route discovery, and anything else
/// (normally zero) is processing. The three always sum to `total`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathBreakdown {
    /// The member the payload reached.
    pub node: u32,
    /// Ad-hoc hops it travelled.
    pub hops: u8,
    /// End-to-end latency: delivery time − trace origin time.
    pub total: u64,
    /// Time spent waiting for AODV route discovery.
    pub discovery: u64,
    /// Time spent on the air (sum of per-hop send→recv gaps).
    pub transit: u64,
    /// Everything else (forwarding/processing; ~0 in this simulator).
    pub processing: u64,
}

/// The paper-metric summary of one trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    /// The trace id.
    pub trace_id: u64,
    /// The origin label (`"query"`, `"reconfig"`, …); empty if the origin
    /// event was evicted.
    pub label: &'static str,
    /// When the trace was minted, in ticks.
    pub origin_t: u64,
    /// Frames transmitted on behalf of this trace.
    pub sends: u64,
    /// Frame receptions on behalf of this trace.
    pub recvs: u64,
    /// Payloads handed up to members, each with its latency breakdown,
    /// in delivery order.
    pub deliveries: Vec<PathBreakdown>,
    /// Destinations declared unreachable under this trace.
    pub unreachable: u64,
    /// Transmissions that reached no receiver (a `Send` with no `Recv`
    /// child): radio range misses and failed unicasts.
    pub dead_branches: u64,
    /// Largest per-transmission fan-out (receivers of one broadcast).
    pub max_fanout: u64,
}

/// Group a flat event stream into per-trace trees.
///
/// Events whose parent chain does not resolve (the parent was evicted
/// from the ring buffer before export) are skipped, along with their
/// descendants, so every returned tree is internally consistent. Trees
/// come back ordered by first appearance in the stream.
pub fn build_trees(events: &[CausalEvent]) -> Vec<CausalTree> {
    let mut order: Vec<u64> = Vec::new();
    let mut trees: HashMap<u64, CausalTree> = HashMap::new();
    for e in events {
        if e.trace_id == 0 || e.span == 0 {
            continue;
        }
        let tree = trees.entry(e.trace_id).or_insert_with(|| {
            order.push(e.trace_id);
            CausalTree {
                trace_id: e.trace_id,
                events: Vec::new(),
                by_span: HashMap::new(),
                children: HashMap::new(),
            }
        });
        // Parents are always recorded before children, so one forward
        // pass resolves the chain; an orphan's descendants are orphans.
        if e.parent != 0 && !tree.by_span.contains_key(&e.parent) {
            continue;
        }
        let idx = tree.events.len();
        tree.by_span.insert(e.span, idx);
        tree.children.entry(e.parent).or_default().push(idx);
        tree.events.push(*e);
    }
    let mut out: Vec<CausalTree> = Vec::with_capacity(order.len());
    for id in order {
        out.push(trees.remove(&id).expect("tree just inserted"));
    }
    out
}

impl CausalTree {
    /// The event holding span `span`, if retained.
    pub fn event(&self, span: u64) -> Option<&CausalEvent> {
        self.by_span.get(&span).map(|&i| &self.events[i])
    }

    /// Direct children of span `span` (0 = the roots).
    pub fn children_of(&self, span: u64) -> impl Iterator<Item = &CausalEvent> {
        self.children
            .get(&span)
            .into_iter()
            .flatten()
            .map(|&i| &self.events[i])
    }

    /// Compute the paper-metric summary for this trace.
    pub fn summary(&self) -> TraceSummary {
        let mut s = TraceSummary {
            trace_id: self.trace_id,
            ..TraceSummary::default()
        };
        for e in &self.events {
            match e.kind {
                CausalKind::Origin { label } => {
                    if s.label.is_empty() {
                        s.label = label;
                        s.origin_t = e.t;
                    }
                }
                CausalKind::Send { .. } => {
                    s.sends += 1;
                    let fanout = self
                        .children_of(e.span)
                        .filter(|c| matches!(c.kind, CausalKind::Recv { .. }))
                        .count() as u64;
                    s.max_fanout = s.max_fanout.max(fanout);
                    if fanout == 0 {
                        s.dead_branches += 1;
                    }
                }
                CausalKind::Recv { .. } => s.recvs += 1,
                CausalKind::Deliver { hops, .. } => {
                    s.deliveries.push(self.breakdown(e, hops));
                }
                CausalKind::Unreachable { .. } => s.unreachable += 1,
                CausalKind::TimerArm { .. } => {}
            }
        }
        s
    }

    /// Walk from a delivery up to the root, attributing every time gap.
    fn breakdown(&self, deliver: &CausalEvent, hops: u8) -> PathBreakdown {
        let mut b = PathBreakdown {
            node: deliver.node,
            hops,
            ..PathBreakdown::default()
        };
        let mut cur = deliver;
        while cur.parent != 0 {
            let Some(parent) = self.event(cur.parent) else {
                break; // truncated chain: attribute what we saw
            };
            let gap = cur.t.saturating_sub(parent.t);
            match cur.kind {
                CausalKind::Recv { .. } => b.transit += gap,
                CausalKind::Send { frame: "data", .. } => b.discovery += gap,
                _ => b.processing += gap,
            }
            b.total += gap;
            cur = parent;
        }
        b
    }
}

// ----------------------------------------------------------------------
// Artifact export / import
// ----------------------------------------------------------------------

/// Marker distinguishing causal-trace artifacts from other JSON files.
pub const ARTIFACT_TYPE: &str = "causal_trace";

fn num(n: u64) -> Value {
    Value::uint(n)
}

/// One event as a JSON object: an entry of an artifact's `spans` array,
/// and the body of a trace JSONL `event` line. [`event_from_json`] reads
/// it back.
pub fn event_to_json(e: &CausalEvent) -> Value {
    let mut fields = vec![
        ("trace".to_string(), num(e.trace_id)),
        ("span".to_string(), num(e.span)),
        ("parent".to_string(), num(e.parent)),
        ("t".to_string(), num(e.t)),
        ("node".to_string(), num(e.node as u64)),
        ("kind".to_string(), Value::Str(e.kind.name().into())),
    ];
    match e.kind {
        CausalKind::Origin { label } => {
            fields.push(("label".into(), Value::Str(label.into())));
        }
        CausalKind::Send { frame, to, bytes } => {
            fields.push(("frame".into(), Value::Str(frame.into())));
            if let Some(to) = to {
                fields.push(("to".into(), num(to as u64)));
            }
            fields.push(("bytes".into(), num(bytes as u64)));
        }
        CausalKind::Recv { frame, from } => {
            fields.push(("frame".into(), Value::Str(frame.into())));
            fields.push(("from".into(), num(from as u64)));
        }
        CausalKind::Deliver { kind, hops } => {
            fields.push(("msg".into(), Value::Str(kind.into())));
            fields.push(("hops".into(), num(hops as u64)));
        }
        CausalKind::Unreachable { dst } => {
            fields.push(("dst".into(), num(dst as u64)));
        }
        CausalKind::TimerArm { at } => {
            fields.push(("at".into(), num(at)));
        }
    }
    Value::Obj(fields)
}

/// One Chrome trace-event object. Every event carries the full
/// `ph`/`ts`/`pid`/`tid`/`name` quintet (`pid` = trace, `tid` = node) so
/// structural validation is uniform.
fn trace_event(
    ph: &str,
    ts: u64,
    pid: u64,
    tid: u64,
    name: String,
    extra: Vec<(String, Value)>,
) -> Value {
    let mut fields = vec![
        ("ph".to_string(), Value::Str(ph.into())),
        ("ts".to_string(), num(ts)),
        ("pid".to_string(), num(pid)),
        ("tid".to_string(), num(tid)),
        ("name".to_string(), Value::Str(name)),
    ];
    fields.extend(extra);
    Value::Obj(fields)
}

/// Build the JSON artifact for an event stream: a JSON object with a
/// Perfetto/`chrome://tracing`-loadable `traceEvents` array (both viewers
/// ignore unknown top-level keys) plus the lossless `spans` array that
/// [`events_from_artifact`] reads back.
///
/// Orphaned events (parent evicted before export) are excluded — the
/// count is recorded under `"orphaned"` so truncation stays visible.
pub fn artifact(events: &[CausalEvent]) -> Value {
    let trees = build_trees(events);
    let kept: usize = trees.iter().map(|t| t.events.len()).sum();
    let mut spans = Vec::with_capacity(kept);
    let mut trace_events = Vec::new();
    for tree in &trees {
        // Perfetto shows one "process" per trace; name it from the origin.
        let label = tree
            .events
            .iter()
            .find_map(|e| match e.kind {
                CausalKind::Origin { label } => Some(label),
                _ => None,
            })
            .unwrap_or("trace");
        trace_events.push(trace_event(
            "M",
            0,
            tree.trace_id,
            0,
            "process_name".into(),
            vec![(
                "args".into(),
                Value::Obj(vec![(
                    "name".into(),
                    Value::Str(format!("{label} #{}", tree.trace_id)),
                )]),
            )],
        ));
        for e in &tree.events {
            spans.push(event_to_json(e));
            match e.kind {
                // Each reception becomes a complete ("X") slice on the
                // sender's track spanning the frame's time on the air.
                CausalKind::Recv { frame, from } => {
                    let send_t = tree.event(e.parent).map(|p| p.t).unwrap_or(e.t);
                    trace_events.push(trace_event(
                        "X",
                        send_t,
                        e.trace_id,
                        from as u64,
                        format!("{frame}→n{}", e.node),
                        vec![("dur".into(), num(e.t.saturating_sub(send_t)))],
                    ));
                }
                CausalKind::Origin { label } => {
                    trace_events.push(trace_event(
                        "i",
                        e.t,
                        e.trace_id,
                        e.node as u64,
                        format!("origin:{label}"),
                        vec![("s".into(), Value::Str("t".into()))],
                    ));
                }
                CausalKind::Deliver { kind, hops } => {
                    trace_events.push(trace_event(
                        "i",
                        e.t,
                        e.trace_id,
                        e.node as u64,
                        format!("deliver:{kind} ({hops} hops)"),
                        vec![("s".into(), Value::Str("t".into()))],
                    ));
                }
                CausalKind::Unreachable { dst } => {
                    trace_events.push(trace_event(
                        "i",
                        e.t,
                        e.trace_id,
                        e.node as u64,
                        format!("unreachable:n{dst}"),
                        vec![("s".into(), Value::Str("t".into()))],
                    ));
                }
                CausalKind::Send { .. } | CausalKind::TimerArm { .. } => {}
            }
        }
    }
    Value::Obj(vec![
        ("type".into(), Value::Str(ARTIFACT_TYPE.into())),
        ("displayTimeUnit".into(), Value::Str("ms".into())),
        ("orphaned".into(), num((events.len() - kept) as u64)),
        ("traceEvents".into(), Value::Arr(trace_events)),
        ("spans".into(), Value::Arr(spans)),
    ])
}

/// Field `key` as an exact integer that fits `T`.
fn field_int<T: TryFrom<u64>>(v: &Value, key: &str) -> Result<T, String> {
    T::try_from(v.u64_field(key)?).map_err(|_| format!("field '{key}' out of range"))
}

/// Read one event written by [`event_to_json`]. Ids, times and node
/// numbers must be non-negative integers in range (`-5` and `1.7` are
/// errors, not 0 and 1); every name is [`intern`](intern())ed.
pub fn event_from_json(v: &Value) -> Result<CausalEvent, String> {
    let name = |key: &str| v.str_field(key).map(intern);
    let kind = match v.str_field("kind")? {
        "origin" => CausalKind::Origin {
            label: name("label")?,
        },
        "send" => CausalKind::Send {
            frame: name("frame")?,
            to: match v.get("to") {
                Some(_) => Some(field_int(v, "to")?),
                None => None,
            },
            bytes: field_int(v, "bytes")?,
        },
        "recv" => CausalKind::Recv {
            frame: name("frame")?,
            from: field_int(v, "from")?,
        },
        "deliver" => CausalKind::Deliver {
            kind: name("msg")?,
            hops: field_int(v, "hops")?,
        },
        "unreachable" => CausalKind::Unreachable {
            dst: field_int(v, "dst")?,
        },
        "timer" => CausalKind::TimerArm {
            at: v.u64_field("at")?,
        },
        other => return Err(format!("unknown kind '{other}'")),
    };
    Ok(CausalEvent {
        trace_id: v.u64_field("trace")?,
        span: v.u64_field("span")?,
        parent: v.u64_field("parent")?,
        t: v.u64_field("t")?,
        node: field_int(v, "node")?,
        kind,
    })
}

/// Read the lossless `spans` array of an artifact back into events
/// ([`event_from_json`] for each).
pub fn events_from_artifact(doc: &Value) -> Result<Vec<CausalEvent>, String> {
    if doc.str_field("type")? != ARTIFACT_TYPE {
        return Err("not a causal_trace artifact".into());
    }
    let spans = doc
        .get("spans")
        .and_then(Value::as_arr)
        .ok_or("missing 'spans' array")?;
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| event_from_json(s).map_err(|e| format!("span {i}: {e}")))
        .collect()
}

/// Structurally validate an artifact:
///
/// * it is a `causal_trace` object;
/// * every `traceEvents` entry carries `ph`/`ts`/`pid`/`tid`/`name`;
/// * every span's parent resolves within its own trace;
/// * timestamps are monotone along parent links (a child never precedes
///   its cause);
/// * span ids are unique.
pub fn validate_artifact(doc: &Value) -> Result<(), String> {
    if doc.str_field("type")? != ARTIFACT_TYPE {
        return Err("not a causal_trace artifact".into());
    }
    let tevs = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("missing 'traceEvents' array")?;
    for (i, ev) in tevs.iter().enumerate() {
        let err = |e: String| format!("traceEvents[{i}]: {e}");
        let ph = ev.str_field("ph").map_err(err)?;
        if !matches!(ph, "X" | "i" | "M") {
            return Err(format!("traceEvents[{i}]: unexpected ph '{ph}'"));
        }
        for key in ["ts", "pid", "tid"] {
            ev.u64_field(key).map_err(err)?;
        }
        ev.str_field("name").map_err(err)?;
    }
    let events = events_from_artifact(doc)?;
    // (trace, span) → t, for parent resolution and monotonicity.
    let mut seen: HashMap<(u64, u64), u64> = HashMap::new();
    for (i, e) in events.iter().enumerate() {
        if e.trace_id == 0 || e.span == 0 {
            return Err(format!("span {i}: zero trace/span id"));
        }
        if seen.insert((e.trace_id, e.span), e.t).is_some() {
            return Err(format!("span {i}: duplicate span id {}", e.span));
        }
        if e.parent != 0 {
            let Some(&pt) = seen.get(&(e.trace_id, e.parent)) else {
                return Err(format!(
                    "span {i}: parent {} unresolved in trace {}",
                    e.parent, e.trace_id
                ));
            };
            if e.t < pt {
                return Err(format!("span {i}: t {} precedes its parent's t {pt}", e.t));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn send(frame: &'static str) -> CausalKind {
        CausalKind::Send {
            frame,
            to: None,
            bytes: 40,
        }
    }

    fn recv(frame: &'static str, from: u32) -> CausalKind {
        CausalKind::Recv { frame, from }
    }

    /// A query that waits 2000 ticks for route discovery, then travels
    /// two radio hops of 150 ticks each:
    ///
    /// origin(n0, t=0) ─ send data(t=2000) ─ recv(n1, t=2150)
    ///                  ─ send data(n1, t=2150) ─ recv(n2, t=2300)
    ///                  ─ deliver(n2, t=2300)
    fn two_hop_query() -> Vec<CausalEvent> {
        vec![
            ev(1, 1, 0, 0, 0, CausalKind::Origin { label: "query" }),
            ev(1, 2, 1, 2000, 0, send("data")),
            ev(1, 3, 2, 2150, 1, recv("data", 0)),
            ev(1, 4, 3, 2150, 1, send("data")),
            ev(1, 5, 4, 2300, 2, recv("data", 1)),
            ev(
                1,
                6,
                5,
                2300,
                2,
                CausalKind::Deliver {
                    kind: "query",
                    hops: 2,
                },
            ),
        ]
    }

    #[test]
    fn breakdown_attributes_discovery_transit_processing() {
        let trees = build_trees(&two_hop_query());
        assert_eq!(trees.len(), 1);
        let s = trees[0].summary();
        assert_eq!(s.label, "query");
        assert_eq!(s.sends, 2);
        assert_eq!(s.recvs, 2);
        assert_eq!(s.deliveries.len(), 1);
        let d = s.deliveries[0];
        assert_eq!(d.node, 2);
        assert_eq!(d.hops, 2);
        assert_eq!(d.discovery, 2000, "buffered waiting for the route");
        assert_eq!(d.transit, 300, "two 150-tick hops on the air");
        assert_eq!(d.processing, 0);
        assert_eq!(d.total, 2300);
        assert_eq!(d.total, d.discovery + d.transit + d.processing);
    }

    #[test]
    fn fanout_and_dead_branches() {
        // One broadcast heard by two nodes, plus one that nobody heard.
        let events = vec![
            ev(3, 1, 0, 0, 0, CausalKind::Origin { label: "reconfig" }),
            ev(3, 2, 1, 10, 0, send("flood")),
            ev(3, 3, 2, 20, 1, recv("flood", 0)),
            ev(3, 4, 2, 25, 2, recv("flood", 0)),
            ev(3, 5, 3, 30, 1, send("flood")),
        ];
        let s = build_trees(&events)[0].summary();
        assert_eq!(s.max_fanout, 2);
        assert_eq!(s.dead_branches, 1, "the second send reached nobody");
    }

    #[test]
    fn orphans_and_their_descendants_are_skipped() {
        let mut events = two_hop_query();
        events.remove(1); // evict the first data send: spans 3..6 orphaned
        let trees = build_trees(&events);
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].events.len(), 1, "only the origin survives");
    }

    #[test]
    fn artifact_roundtrips_and_validates() {
        let events = two_hop_query();
        let doc = artifact(&events);
        validate_artifact(&doc).expect("fresh artifact must validate");
        // Round-trip through text too, as obs_check will see it.
        let reparsed = Value::parse(&doc.render()).expect("renders as valid JSON");
        validate_artifact(&reparsed).expect("parsed artifact must validate");
        assert_eq!(events_from_artifact(&reparsed).unwrap(), events);
    }

    #[test]
    fn validation_rejects_broken_artifacts() {
        // artifact() filters orphans by construction, so corruption has
        // to be injected into the document itself — exactly what a buggy
        // writer or a hand-edited file would look like.
        let corrupt = |key: &str, val: Value| {
            let Value::Obj(mut fields) = artifact(&two_hop_query()) else {
                unreachable!()
            };
            for (k, v) in &mut fields {
                if k == "spans" {
                    let Value::Arr(spans) = v else { unreachable!() };
                    // Span index 2 is the first recv (t=2150).
                    let Value::Obj(sf) = &mut spans[2] else {
                        unreachable!()
                    };
                    for (sk, sv) in sf.iter_mut() {
                        if sk == key {
                            *sv = val.clone();
                        }
                    }
                }
            }
            Value::Obj(fields)
        };
        // Dangling parent.
        assert!(validate_artifact(&corrupt("parent", Value::Num(99.0)))
            .unwrap_err()
            .contains("unresolved"));
        // Time travel: child before its parent's t=2000.
        assert!(validate_artifact(&corrupt("t", Value::Num(5.0)))
            .unwrap_err()
            .contains("precedes"));
        // Not an artifact at all.
        assert!(validate_artifact(&Value::Obj(vec![])).is_err());
        // Ids and times are non-negative integers: -5 is not 0, 1.7 is
        // not 1, and a node number must fit a u32.
        for (key, bad) in [
            ("parent", Value::Num(-5.0)),
            ("t", Value::Num(1.7)),
            ("node", Value::uint(1 << 32)),
        ] {
            let e = events_from_artifact(&corrupt(key, bad)).unwrap_err();
            assert!(e.starts_with("span 2:") && e.contains(key), "{e}");
        }
    }

    #[test]
    fn artifact_trace_events_carry_the_quintet() {
        let doc = artifact(&two_hop_query());
        let tevs = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
        assert!(!tevs.is_empty());
        for ev in tevs {
            for key in ["ph", "ts", "pid", "tid", "name"] {
                assert!(ev.get(key).is_some(), "missing {key} in {ev:?}");
            }
        }
        // Two receptions → two "X" slices with durations.
        let slices: Vec<_> = tevs
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].get("dur").and_then(Value::as_f64), Some(150.0));
    }
}
