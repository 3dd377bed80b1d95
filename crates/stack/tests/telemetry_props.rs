//! Property suite for what a swarm child ships: its `ObsReport` and
//! causal `TraceLog` as JSONL.
//!
//! The same three contracts `wire_props.rs` pins for the datagram codec,
//! over randomly populated snapshots (registries with full-range `u64`
//! counters, histograms and sums, gauges, series, span profiles,
//! flight-recorder rings, and causal trace logs holding every
//! `CausalKind`, under local and foreign traces):
//!
//! 1. **Round-trip identity** — `from_jsonl(&to_jsonl())` reproduces the
//!    report exactly and the trace's analytical content (events, totals,
//!    id watermarks) verbatim, integers above 2^53 included.
//! 2. **Truncation is an error** — every cut inside a line reads as an
//!    `Err`, never a panic, never a report or trace.
//! 3. **Corruption tolerance** — flipping any byte never panics; whatever
//!    still reads folds, twice over, into the parent's accumulators
//!    without overflowing them.

use manet_des::{NodeId, SimTime, TraceCtx};
use manet_metrics::MsgKind;
use manet_obs::{CausalKind, FlightRecorder, ObsReport, Severity};
use manet_testkit::{prop_assert, prop_assert_eq, properties, Gen, Strategy};
use p2p_stack::trace::node_id_base;
use p2p_stack::TraceLog;

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

/// Flight-record message bytes: letters, plus runs of spaces and what
/// JSON must escape, all of which must come back verbatim.
const MSG_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz  \"\\\n";

fn any_msg(g: &mut Gen) -> String {
    let r = g.rng();
    let n = r.below(24) as usize;
    (0..n)
        .map(|_| char::from(MSG_CHARS[r.below(MSG_CHARS.len() as u64) as usize]))
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

/// A whole telemetry snapshot: populated report and populated trace —
/// everything one swarm child ships at shutdown.
#[derive(Clone, Copy, Debug)]
struct AnyTelemetry;

impl Strategy for AnyTelemetry {
    type Value = (ObsReport, TraceLog);

    fn generate(&self, g: &mut Gen) -> (ObsReport, TraceLog) {
        let node = g.rng().below(64) as u32;
        let report = any_report(g);
        let trace = any_trace(g, node);
        (report, trace)
    }
}

/// Byte offsets strictly inside a line of `text` (neither just after nor
/// at a newline): every cut point of the first 16 bytes plus a stride
/// through the rest, since exhaustive scans of multi-KB texts would
/// dominate the suite.
fn cuts_inside_lines(text: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    let stride = (bytes.len() / 128).max(1);
    (1..bytes.len())
        .step_by(stride)
        .chain(1..16.min(bytes.len()))
        .filter(|&cut| bytes[cut - 1] != b'\n' && bytes[cut] != b'\n')
        .collect()
}

properties! {
    config = manet_testkit::Config::cases(256);

    /// Any snapshot survives its JSONL exactly: the report compares equal
    /// and the trace's events and totals are verbatim.
    fn telemetry_round_trip_identity(t in AnyTelemetry) {
        let (report, trace) = t;
        match ObsReport::from_jsonl(&report.to_jsonl()) {
            Ok(back) => prop_assert_eq!(back, report.clone()),
            Err(e) => prop_assert!(false, "report read failed: {e}"),
        }
        match TraceLog::from_jsonl(&trace.to_jsonl()) {
            Ok(back) => {
                prop_assert_eq!(back.causal_events(), trace.causal_events());
                prop_assert_eq!(back.id_base(), trace.id_base());
                prop_assert_eq!(back.capacity(), trace.capacity());
                prop_assert_eq!(back.offered(), trace.offered());
                prop_assert_eq!(back.dropped(), trace.dropped());
                prop_assert_eq!(back.sampled_out(), trace.sampled_out());
            }
            Err(e) => prop_assert!(false, "trace read failed: {e}"),
        }
    }

    /// Every cut inside a line reads as an error — the reader never
    /// panics and never fabricates a snapshot from a partial flush.
    fn telemetry_truncation_is_an_error(t in AnyTelemetry) {
        let (report, trace) = t;
        let text = report.to_jsonl();
        for cut in cuts_inside_lines(&text) {
            prop_assert!(ObsReport::from_jsonl(&text[..cut]).is_err(), "report cut at {} read", cut);
        }
        let text = trace.to_jsonl();
        for cut in cuts_inside_lines(&text) {
            prop_assert!(TraceLog::from_jsonl(&text[..cut]).is_err(), "trace cut at {} read", cut);
        }
    }

    /// Flipping any single byte never panics: whatever a dying child
    /// half-wrote, the parent survives reading it — and survives folding
    /// it, twice over, into one accumulator the way the swarm parent
    /// merges reports and traces.
    fn telemetry_corruption_never_panics(t in AnyTelemetry, pick in manet_testkit::any_u64()) {
        let (report, trace) = t;
        let flip = |text: String| {
            let mut bytes = text.into_bytes();
            let at = pick as usize % bytes.len();
            bytes[at] ^= 0x5A;
            String::from_utf8(bytes).expect("JSONL is ASCII")
        };
        if let Ok(back) = ObsReport::from_jsonl(&flip(report.to_jsonl())) {
            let mut acc = ObsReport::default();
            for _ in 0..2 {
                acc.merge(&back);
            }
        }
        if let Ok(back) = TraceLog::from_jsonl(&flip(trace.to_jsonl())) {
            let mut acc = TraceLog::new(64);
            for _ in 0..2 {
                acc.merge_offset(&back);
            }
            prop_assert!(acc.len() <= acc.capacity());
        }
    }
}
