//! Property suite for the telemetry frame codec.
//!
//! The same three contracts `wire_props.rs` pins for the datagram codec,
//! over randomly populated telemetry snapshots (registries with
//! counters/gauges/histograms/series, span profiles, flight-recorder
//! rings, and causal trace logs holding every `CausalKind`, under local
//! and foreign traces):
//!
//! 1. **Round-trip identity** — `decode_telemetry(&encode_telemetry(..))`
//!    reproduces the report bit-exactly and the trace's analytical
//!    content (events, totals, id watermarks) verbatim.
//! 2. **Typed truncation** — every strict prefix of a valid frame
//!    decodes to a typed [`WireError`], never a panic, never a frame.
//! 3. **Corruption tolerance** — flipping any byte never panics; the
//!    parent decodes whatever a dying child managed to flush and folds
//!    it into its accumulators without overflowing them.
//!
//! Plus the hex armor: `from_hex(&to_hex(b)) == b`, odd-length and
//! non-hex inputs rejected with typed errors.

use manet_des::{NodeId, SimTime, TraceCtx};
use manet_metrics::MsgKind;
use manet_obs::{CausalKind, FlightRecorder, ObsReport, Severity};
use manet_testkit::{prop_assert, prop_assert_eq, properties, Gen, Strategy};
use p2p_stack::trace::node_id_base;
use p2p_stack::{decode_telemetry, encode_telemetry, from_hex, to_hex, TraceLog};

const COUNTER_NAMES: [&str; 6] = [
    "rt.dgram_rx",
    "rt.dgram_tx",
    "rt.epoll_wakeups",
    "stack.delivered",
    "aodv.rreqs_originated",
    "stack.queries_issued",
];
const GAUGE_NAMES: [&str; 3] = ["rt.backlog", "sim.density", "stack.peers"];
const HIST_NAMES: [&str; 2] = ["stack.delivery_hops", "rt.batch"];
const SPAN_NAMES: [&str; 3] = ["rt.loop", "rt.drain", "rt.emit"];
const TAGS: [&str; 4] = ["join", "decode_error", "retry", "crash"];
const FRAMES: [&str; 5] = ["rreq", "rrep", "rerr", "data", "flood"];
const LABELS: [&str; 4] = ["query", "reconfig", "fetch", "transfer"];

fn any_msg(g: &mut Gen) -> String {
    let r = g.rng();
    let n = r.below(24) as usize;
    (0..n)
        .map(|_| char::from(b'a' + r.below(26) as u8))
        .collect()
}

fn any_report(g: &mut Gen) -> ObsReport {
    let mut report = ObsReport {
        runs: g.rng().below(4) as u32 + 1,
        ..ObsReport::default()
    };
    {
        let reg = &mut report.registry;
        for name in COUNTER_NAMES {
            if g.rng().chance(0.7) {
                let id = reg.counter(name);
                let v = g.rng().next_u64();
                reg.set(id, v);
            }
        }
        for name in GAUGE_NAMES {
            if g.rng().chance(0.5) {
                let id = reg.gauge(name);
                // Finite values only: the report's PartialEq (and thus the
                // round-trip assertion) is what NaN would break, not the
                // codec, which moves raw bits.
                let v = g.rng().next_u32() as f64 / 16.0;
                reg.set_gauge(id, v);
            }
        }
        for name in HIST_NAMES {
            if g.rng().chance(0.5) {
                let id = reg.hist(name);
                let n = g.rng().below(20);
                for _ in 0..n {
                    let v = g.rng().next_u64() >> g.rng().below(60);
                    reg.observe(id, v);
                }
            }
        }
        let samples = g.rng().below(4);
        for i in 0..samples {
            reg.sample(i as f64 * 10.0);
        }
    }
    for name in SPAN_NAMES {
        if g.rng().chance(0.5) {
            let id = report.spans.register(name);
            let nanos = g.rng().below(1 << 30);
            let entries = g.rng().below(1 << 16);
            report.spans.add_total(id, nanos, entries);
        }
    }
    let cap = g.rng().below(6) as usize;
    report.recorder = FlightRecorder::new(cap);
    let n = g.rng().below(10);
    for _ in 0..n {
        let sev = *g.rng().choose(&[
            Severity::Debug,
            Severity::Info,
            Severity::Warn,
            Severity::Error,
        ]);
        let tag = *g.rng().choose(&TAGS);
        let t = g.rng().below(1 << 20) as f64 / 1e3;
        let msg = any_msg(g);
        report.recorder.record(t, sev, tag, msg);
    }
    report
}

/// A context another node minted, as a frame carries it in: its ids lie
/// in that node's namespace.
fn foreign_ctx(g: &mut Gen, node: u32) -> TraceCtx {
    let other = (node + 1 + g.rng().below(8) as u32) % 64;
    let base = node_id_base(other);
    let id = |g: &mut Gen| base + 1 + g.rng().below(1 << 20);
    TraceCtx::root(id(g), id(g))
}

fn any_trace(g: &mut Gen, node: u32) -> TraceLog {
    let capacity = *g.rng().choose(&[0usize, 8, 64]);
    let seed = g.rng().next_u64();
    let mut log = TraceLog::with_id_base(capacity, seed, node_id_base(node));
    let me = NodeId(node);
    // Contexts recorded so far: later steps link under them.
    let mut ctxs: Vec<TraceCtx> = Vec::new();
    let n = g.rng().below(20);
    for i in 0..n {
        let at = SimTime::from_ticks(i * 1_000 + g.rng().below(1_000));
        let pick = g.rng().below(6);
        let ctx = if pick == 0 {
            let label = *g.rng().choose(&LABELS);
            log.origin(at, me, label)
        } else {
            let parent = if ctxs.is_empty() || g.rng().chance(0.3) {
                foreign_ctx(g, node)
            } else {
                *g.rng().choose(&ctxs)
            };
            let peer = g.rng().next_u32();
            let frame = *g.rng().choose(&FRAMES);
            let kind = match pick {
                1 => CausalKind::Send {
                    frame,
                    to: g.rng().chance(0.5).then_some(peer),
                    bytes: g.rng().next_u32(),
                },
                2 => CausalKind::Recv { frame, from: peer },
                3 => CausalKind::Deliver {
                    kind: g.rng().choose(&MsgKind::ALL).name(),
                    hops: g.rng().below(16) as u8,
                },
                4 => CausalKind::Unreachable { dst: peer },
                _ => CausalKind::TimerArm {
                    at: g.rng().next_u64() >> 20,
                },
            };
            log.child(at, me, parent, || kind)
        };
        if ctx.is_active() {
            ctxs.push(ctx);
        }
    }
    log
}

/// A whole telemetry snapshot: node id, populated report, populated
/// trace — everything one swarm child ships at shutdown.
#[derive(Clone, Copy, Debug)]
struct AnyTelemetry;

impl Strategy for AnyTelemetry {
    type Value = (u32, ObsReport, TraceLog);

    fn generate(&self, g: &mut Gen) -> (u32, ObsReport, TraceLog) {
        let node = g.rng().below(64) as u32;
        let report = any_report(g);
        let trace = any_trace(g, node);
        (node, report, trace)
    }
}

properties! {
    config = manet_testkit::Config::cases(256);

    /// Any snapshot survives the frame byte-exactly: the report compares
    /// equal and the trace's events and totals are verbatim.
    fn telemetry_round_trip_identity(t in AnyTelemetry) {
        let (node, report, trace) = t;
        let frame = encode_telemetry(node, &report, &trace);
        match decode_telemetry(&frame) {
            Ok(back) => {
                prop_assert_eq!(back.node, node);
                prop_assert_eq!(back.report, report.clone());
                prop_assert_eq!(back.trace.causal_events(), trace.causal_events());
                prop_assert_eq!(back.trace.id_base(), trace.id_base());
                prop_assert_eq!(back.trace.capacity(), trace.capacity());
                prop_assert_eq!(back.trace.offered(), trace.offered());
                prop_assert_eq!(back.trace.dropped(), trace.dropped());
                prop_assert_eq!(back.trace.sampled_out(), trace.sampled_out());
            }
            Err(e) => prop_assert!(false, "decode failed: {e}"),
        }
    }

    /// Every strict prefix decodes to a typed error — the decoder never
    /// panics and never fabricates a snapshot from a partial flush.
    fn telemetry_truncation_is_a_typed_error(t in AnyTelemetry) {
        let (node, report, trace) = t;
        let frame = encode_telemetry(node, &report, &trace);
        // Every cut point of the header plus a stride through the body:
        // exhaustive scans of multi-KB frames would dominate the suite.
        let stride = (frame.len() / 128).max(1);
        for cut in (0..frame.len()).step_by(stride).chain(0..16.min(frame.len())) {
            let r = decode_telemetry(&frame[..cut]);
            prop_assert!(r.is_err(), "prefix of {} bytes decoded", cut);
        }
    }

    /// Flipping any single byte never panics: whatever a dying child
    /// half-wrote, the parent survives reading it — and survives folding
    /// it, twice over, into one accumulator the way the swarm parent
    /// merges reports and traces.
    fn telemetry_corruption_never_panics(t in AnyTelemetry, pick in manet_testkit::any_u64()) {
        let (node, report, trace) = t;
        let mut frame = encode_telemetry(node, &report, &trace);
        let at = pick as usize % frame.len();
        frame[at] ^= 0x5A;
        if let Ok(back) = decode_telemetry(&frame) {
            let mut acc_report = ObsReport::default();
            let mut acc_trace = TraceLog::new(64);
            for _ in 0..2 {
                acc_report.merge(&back.report);
                acc_trace.merge_offset(&back.trace);
            }
            prop_assert!(acc_trace.len() <= acc_trace.capacity());
        }
    }

    /// Hex armor is the identity on bytes, and rejects what a mangled
    /// stdout line could carry: odd lengths and non-hex characters.
    fn hex_round_trip_and_rejection(t in AnyTelemetry, pick in manet_testkit::any_u64()) {
        let (node, report, trace) = t;
        let frame = encode_telemetry(node, &report, &trace);
        let hex = to_hex(&frame);
        prop_assert_eq!(from_hex(&hex).expect("hex decodes"), frame.clone());
        let mut odd = hex.clone();
        odd.push('a');
        prop_assert!(from_hex(&odd).is_err(), "odd length accepted");
        let mut bad = hex.into_bytes();
        let at = pick as usize % bad.len();
        bad[at] = b'z';
        let bad = String::from_utf8(bad).unwrap();
        prop_assert!(from_hex(&bad).is_err(), "non-hex digit accepted");
    }
}
