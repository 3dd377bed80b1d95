//! Event tracing: a bounded, zero-cost-when-off protocol trace.
//!
//! Debugging a distributed protocol is miserable without a record of
//! *who did what, when*. [`TraceLog`] keeps the last `capacity`
//! interesting events in a ring buffer; DES worlds record into it when
//! the scenario's trace capacity is non-zero, and the real-time
//! substrate records into the same type through the machine's
//! observability sink. Rendering is plain text, one event per line,
//! suitable for diffing two runs.
//!
//! Beyond milestones (joins, connections, role changes), the log records
//! *causal* events: every frame transmission/reception, delivery,
//! unreachability verdict and traced timer arm carries a
//! [`TraceCtx`] linking it to the query or reconfiguration round that
//! caused it. [`TraceLog`] is also the span allocator —
//! [`alloc_trace`](TraceLog::alloc_trace) / [`alloc_span`](TraceLog::alloc_span)
//! hand out monotone non-zero ids with no simulation randomness, so a
//! traced run stays bit-identical to an untraced one — and
//! [`causal_events`](TraceLog::causal_events) converts the retained ring
//! into the flat stream `manet_obs::causal` analyzes and exports.
//!
//! Three mechanisms bound the cost of always-on capture:
//!
//! * **Arena ring.** Events live in a flat preallocated `Vec` written
//!   round-robin — no per-span allocation, no deque growth on the hot
//!   path.
//! * **Whole-trace reservoir sampling.** Instead of recording every span
//!   of every trace and letting the ring keep an arbitrary suffix, the
//!   log admits whole traces into a seeded Algorithm-R reservoir at mint
//!   time; spans of non-admitted traces are skipped entirely. Sampling
//!   whole traces (not individual spans) keeps every admitted causal tree
//!   complete. The sampler RNG is private to the log — simulation streams
//!   are never touched, so traced runs stay bit-identical to untraced
//!   ones. Milestone events (joins, connections, role/power changes) have
//!   no trace identity and are always recorded.
//! * **Bounded admission state.** Reservoir membership is a fixed-size
//!   slot vector plus a hash set sized to the reservoir — the log's
//!   memory is `O(capacity)` however many traces a long run mints, not
//!   one flag per trace forever.
//!
//! A DES world keeps one log, minting ids from 1. Multi-*process* runs
//! give each node a disjoint id namespace up front
//! ([`with_id_base`](TraceLog::with_id_base)): a trace minted on one node
//! flows through other nodes' logs under its original ids, so
//! [`merge_offset`](TraceLog::merge_offset) folds the per-process logs
//! into one without remapping — remapping would sever the parent links
//! stitched across the wire.

use std::collections::HashSet;

use manet_des::{NodeId, SimTime, TraceCtx};
use manet_metrics::MsgKind;
use p2p_core::Role;

/// One traced occurrence.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A member joined the overlay.
    Join {
        /// The node.
        node: NodeId,
    },
    /// An overlay/content message was delivered to a member.
    DeliverUp {
        /// The receiving member.
        node: NodeId,
        /// Who originated the message.
        from: NodeId,
        /// The figure category.
        kind: MsgKind,
        /// Ad-hoc hops travelled.
        hops: u8,
        /// Causal position ([`TraceCtx::NONE`] when causal tracing is not
        /// active for this message).
        ctx: TraceCtx,
    },
    /// A trace was minted: a query or reconfiguration round originated.
    Origin {
        /// The originating node.
        node: NodeId,
        /// The root context of the new trace.
        ctx: TraceCtx,
        /// What kind of activity this trace is (`"query"`, `"reconfig"`…).
        label: &'static str,
    },
    /// A traced frame left a node's radio.
    Send {
        /// The transmitting node.
        node: NodeId,
        /// Causal position of this transmission.
        ctx: TraceCtx,
        /// Unicast receiver, or `None` for a broadcast.
        to: Option<NodeId>,
        /// Frame kind (`"rreq"`, `"data"`, `"flood"`, …).
        frame: &'static str,
        /// Frame size on the air.
        bytes: u32,
    },
    /// A traced frame arrived at a node's radio.
    Recv {
        /// The receiving node.
        node: NodeId,
        /// Causal position of this reception.
        ctx: TraceCtx,
        /// The transmitting node.
        from: NodeId,
        /// Frame kind, mirroring the send.
        frame: &'static str,
    },
    /// Route discovery gave up on a traced destination.
    Unreachable {
        /// The node whose discovery failed.
        node: NodeId,
        /// Causal position.
        ctx: TraceCtx,
        /// The destination that could not be reached.
        dst: NodeId,
    },
    /// A node armed its protocol timer on behalf of a traced discovery.
    TimerArm {
        /// The node.
        node: NodeId,
        /// Causal position (the waiting discovery's context).
        ctx: TraceCtx,
        /// When the timer will fire.
        at: SimTime,
    },
    /// An overlay connection reached the established state (recorded from
    /// the neighbor-set delta, so both endpoints appear).
    ConnUp {
        /// The observing node.
        node: NodeId,
        /// The new neighbor.
        peer: NodeId,
    },
    /// An overlay connection went away.
    ConnDown {
        /// The observing node.
        node: NodeId,
        /// The lost neighbor.
        peer: NodeId,
    },
    /// A hybrid node changed role.
    RoleChange {
        /// The node.
        node: NodeId,
        /// Its new role.
        role: Role,
    },
    /// Churn or battery exhaustion toggled a node.
    PowerChange {
        /// The node.
        node: NodeId,
        /// True = came up, false = went down.
        up: bool,
    },
}

/// Reservoir slots per ring slot: a trace averages well over a handful of
/// spans, so tying the trace budget to the ring capacity this way keeps
/// admitted traces comfortably inside the ring.
const TRACES_PER_CAPACITY: usize = 16;

/// Floor on the reservoir size, so small rings still capture every trace
/// of a short run (the common unit-test and smoke-run shape).
const MIN_RESERVOIR: usize = 1024;

/// Width of one node's id namespace under [`TraceLog::with_id_base`]:
/// bases are spaced `2^40` apart, room for a trillion ids per node with
/// thousands of nodes before the u64 runs out.
pub const ID_NAMESPACE_BITS: u32 = 40;

/// The id base for `node`'s log in a multi-process run: node 0 mints ids
/// starting at `2^40 + 1`, node 1 at `2^41 + ...`, never colliding with
/// each other or with an un-namespaced (base 0) log.
pub fn node_id_base(node: u32) -> u64 {
    (node as u64 + 1) << ID_NAMESPACE_BITS
}

/// A bounded event trace.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    /// The arena: a flat ring written round-robin once full. `head` is
    /// the oldest entry (and the next overwrite target) when the arena is
    /// at capacity; while filling, entries are in order from index 0.
    pub(crate) arena: Vec<(SimTime, TraceEvent)>,
    pub(crate) head: usize,
    pub(crate) capacity: usize,
    /// Total events offered, including those evicted from the ring (but
    /// not spans skipped by the trace reservoir).
    pub(crate) offered: u64,
    /// Events evicted to make room — a non-zero value means the rendered
    /// trace is a suffix of the run, not the whole story.
    pub(crate) dropped: u64,
    /// Spans skipped because their trace was not in the reservoir.
    pub(crate) sampled_out: u64,
    /// Base added to every minted trace/span id; 0 for DES logs, a
    /// per-node [`node_id_base`] for multi-process logs.
    pub(crate) id_base: u64,
    /// Next trace id *sequence* to mint (minted id = `id_base + seq`;
    /// sequences start at 1, id 0 means "no trace").
    pub(crate) next_trace: u64,
    /// Next span id sequence (minted id = `id_base + seq`; 0 = "root").
    pub(crate) next_span: u64,
    /// The trace ids currently in the reservoir, slot-indexed for
    /// Algorithm R's uniform victim choice. Bounded by `reservoir_cap`.
    pub(crate) live: Vec<u64>,
    /// Mirror of `live` for O(1) admission checks at record time. A
    /// locally minted trace is admitted iff it is (still) in here;
    /// foreign traces (ids outside this log's mint range — another
    /// process's namespace) bypass sampling, since
    /// their reservoir decision belongs to the minting log.
    pub(crate) live_set: HashSet<u64>,
    /// Reservoir size (0 disables sampling: every trace admitted).
    pub(crate) reservoir_cap: usize,
    /// Traces offered to the reservoir so far.
    pub(crate) traces_seen: u64,
    /// xorshift64 state for the reservoir — seeded, deterministic, and
    /// private to the log so simulation RNG streams are never perturbed.
    pub(crate) sampler_state: u64,
}

impl TraceLog {
    /// A log keeping at most `capacity` events (0 disables recording),
    /// with the default sampler seed.
    pub fn new(capacity: usize) -> Self {
        TraceLog::with_seed(capacity, 0)
    }

    /// A log whose trace reservoir is seeded from `seed` (worlds pass the
    /// replication seed, so reruns sample identically). Ids are minted
    /// from 1 — the DES shape.
    pub fn with_seed(capacity: usize, seed: u64) -> Self {
        TraceLog::with_id_base(capacity, seed, 0)
    }

    /// A log minting ids from a disjoint per-node namespace, for runs
    /// where multiple processes allocate concurrently and their spans
    /// must interlink across the wire (see [`node_id_base`]).
    pub fn with_id_base(capacity: usize, seed: u64, id_base: u64) -> Self {
        let reservoir_cap = if capacity == 0 {
            0
        } else {
            MIN_RESERVOIR.max(capacity / TRACES_PER_CAPACITY)
        };
        TraceLog {
            // One up-front allocation: the ring never grows on the hot
            // path (capped so absurd capacities still construct).
            arena: Vec::with_capacity(capacity.min(1 << 20)),
            head: 0,
            capacity,
            offered: 0,
            dropped: 0,
            sampled_out: 0,
            id_base,
            next_trace: 1,
            next_span: 1,
            live: Vec::with_capacity(reservoir_cap.min(1 << 20)),
            live_set: HashSet::with_capacity(reservoir_cap.min(1 << 20)),
            reservoir_cap,
            traces_seen: 0,
            // Mix in a fixed odd constant so seed 0 still works.
            sampler_state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.sampler_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.sampler_state = x;
        x
    }

    /// Algorithm R admission for a freshly minted trace: the first
    /// `reservoir_cap` traces enter outright; afterwards trace `n` enters
    /// with probability `cap / n`, replacing a uniformly chosen resident
    /// (whose remaining spans are then skipped).
    fn reserve(&mut self, id: u64) {
        if self.reservoir_cap == 0 {
            return;
        }
        self.traces_seen += 1;
        if self.live.len() < self.reservoir_cap {
            self.live.push(id);
            self.live_set.insert(id);
            return;
        }
        let j = self.next_rand() % self.traces_seen;
        if (j as usize) < self.reservoir_cap {
            let victim = self.live[j as usize];
            self.live_set.remove(&victim);
            self.live[j as usize] = id;
            self.live_set.insert(id);
        }
    }

    /// Mint a fresh trace id (monotone, non-zero, no simulation
    /// randomness) and decide its reservoir admission. Callers must only
    /// allocate when [`enabled`](Self::enabled) — id allocation when
    /// tracing is off would still be harmless to simulation results, but
    /// the discipline keeps the disabled path branch-only.
    pub fn alloc_trace(&mut self) -> u64 {
        let id = self.id_base + self.next_trace;
        self.next_trace += 1;
        self.reserve(id);
        id
    }

    /// Allocate a fresh span id (monotone, non-zero, no randomness).
    pub fn alloc_span(&mut self) -> u64 {
        let id = self.id_base + self.next_span;
        self.next_span += 1;
        id
    }

    /// Whether recording is enabled.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The trace an event belongs to (0 for milestones and untraced
    /// events).
    fn trace_of(event: &TraceEvent) -> u64 {
        match event {
            TraceEvent::DeliverUp { ctx, .. }
            | TraceEvent::Origin { ctx, .. }
            | TraceEvent::Send { ctx, .. }
            | TraceEvent::Recv { ctx, .. }
            | TraceEvent::Unreachable { ctx, .. }
            | TraceEvent::TimerArm { ctx, .. } => ctx.trace_id,
            TraceEvent::Join { .. }
            | TraceEvent::ConnUp { .. }
            | TraceEvent::ConnDown { .. }
            | TraceEvent::RoleChange { .. }
            | TraceEvent::PowerChange { .. } => 0,
        }
    }

    /// Was `trace` minted by this log's own allocator (and therefore
    /// subject to this log's reservoir)? Foreign ids — another process's
    /// namespace, or ids merged past our mint range — are recorded
    /// unconditionally: their sampling verdict was rendered where they
    /// were minted.
    fn is_locally_minted(&self, trace: u64) -> bool {
        trace > self.id_base && trace - self.id_base < self.next_trace
    }

    /// Record an event (skips spans of non-admitted traces, overwrites
    /// the oldest ring slot when full; no-op when disabled).
    pub fn record(&mut self, at: SimTime, event: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        let trace = Self::trace_of(&event);
        if trace != 0
            && self.reservoir_cap != 0
            && self.is_locally_minted(trace)
            && !self.live_set.contains(&trace)
        {
            self.sampled_out += 1;
            return;
        }
        self.offered += 1;
        if self.arena.len() < self.capacity {
            self.arena.push((at, event));
        } else {
            self.arena[self.head] = (at, event);
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(SimTime, TraceEvent)> {
        self.arena[self.head..]
            .iter()
            .chain(self.arena[..self.head].iter())
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Total events seen (retained + evicted; reservoir-skipped spans are
    /// counted by [`sampled_out`](Self::sampled_out) instead).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Events evicted from the ring (0 means the trace is complete).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Spans skipped because their trace lost its reservoir slot. Zero
    /// whenever a run minted no more traces than the reservoir holds —
    /// i.e. the sampled trace is the complete trace.
    pub fn sampled_out(&self) -> u64 {
        self.sampled_out
    }

    /// The ring capacity this log was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The id namespace base this log mints from (0 for DES logs).
    pub fn id_base(&self) -> u64 {
        self.id_base
    }

    /// Fold another process's log into this one: the cross-process merge
    /// of a multi-process run.
    ///
    /// Each process mints from its own namespace ([`node_id_base`]), so
    /// ids are globally unique already and a single trace's spans are
    /// scattered across several logs; events keep their ids verbatim.
    /// Events re-sort by time (stable: same-time events keep fold order)
    /// and the oldest beyond the larger capacity are dropped. The totals
    /// saturate, so a log decoded from untrusted bytes cannot overflow
    /// them.
    pub fn merge_offset(&mut self, other: &TraceLog) {
        let mut all: Vec<(SimTime, TraceEvent)> = self.events().cloned().collect();
        all.extend(other.events().cloned());
        all.sort_by_key(|(at, _)| *at);
        self.capacity = self.capacity.max(other.capacity);
        self.offered = self.offered.saturating_add(other.offered);
        self.dropped = self.dropped.saturating_add(other.dropped);
        self.sampled_out = self.sampled_out.saturating_add(other.sampled_out);
        let excess = all.len().saturating_sub(self.capacity);
        if excess > 0 {
            all.drain(..excess);
            self.dropped = self.dropped.saturating_add(excess as u64);
        }
        self.arena = all;
        self.head = 0;
    }

    /// Render the retained events as text, one per line. A truncated trace
    /// leads with a header stating how many events were evicted, so a
    /// partial recording can never pass for a complete one.
    pub fn render(&self) -> String {
        let mut s = String::new();
        if self.dropped > 0 {
            s.push_str(&format!(
                "# trace truncated: {} of {} events dropped (capacity {})\n",
                self.dropped, self.offered, self.capacity
            ));
        }
        for (at, e) in self.events() {
            let line = match e {
                TraceEvent::Join { node } => format!("{at} {node} JOIN"),
                TraceEvent::DeliverUp {
                    node,
                    from,
                    kind,
                    hops,
                    ctx,
                } => {
                    let tag = trace_tag(ctx);
                    format!(
                        "{at} {node} RX {} from {from} ({hops} hops){tag}",
                        kind.name()
                    )
                }
                TraceEvent::ConnUp { node, peer } => format!("{at} {node} CONN+ {peer}"),
                TraceEvent::ConnDown { node, peer } => format!("{at} {node} CONN- {peer}"),
                TraceEvent::RoleChange { node, role } => {
                    format!("{at} {node} ROLE {role:?}")
                }
                TraceEvent::PowerChange { node, up } => {
                    format!("{at} {node} {}", if *up { "UP" } else { "DOWN" })
                }
                TraceEvent::Origin { node, ctx, label } => {
                    format!("{at} {node} ORIGIN {label}{}", trace_tag(ctx))
                }
                TraceEvent::Send {
                    node,
                    ctx,
                    to,
                    frame,
                    bytes,
                } => {
                    let dest = match to {
                        Some(to) => format!(" to {to}"),
                        None => " bcast".to_string(),
                    };
                    format!("{at} {node} TX {frame}{dest} {bytes}B{}", trace_tag(ctx))
                }
                TraceEvent::Recv {
                    node,
                    ctx,
                    from,
                    frame,
                } => format!("{at} {node} FRX {frame} from {from}{}", trace_tag(ctx)),
                TraceEvent::Unreachable { node, ctx, dst } => {
                    format!("{at} {node} UNREACHABLE {dst}{}", trace_tag(ctx))
                }
                TraceEvent::TimerArm { node, ctx, at: due } => {
                    format!("{at} {node} TIMER at {due}{}", trace_tag(ctx))
                }
            };
            s.push_str(&line);
            s.push('\n');
        }
        s
    }

    /// The causal subset of the retained ring as the flat stream
    /// `manet_obs::causal` analyzes: every event carrying an active
    /// [`TraceCtx`], in recording order. Milestone events (joins,
    /// connections, role/power changes) have no causal identity and are
    /// skipped, as are untraced deliveries.
    pub fn causal_events(&self) -> Vec<manet_obs::CausalEvent> {
        use manet_obs::{CausalEvent, CausalKind};
        let mut out = Vec::new();
        for (at, e) in self.events() {
            let (ctx, node, kind) = match e {
                TraceEvent::Origin { node, ctx, label } => (
                    ctx,
                    node,
                    CausalKind::Origin {
                        label: (*label).to_string(),
                    },
                ),
                TraceEvent::Send {
                    node,
                    ctx,
                    to,
                    frame,
                    bytes,
                } => (
                    ctx,
                    node,
                    CausalKind::Send {
                        frame: (*frame).to_string(),
                        to: to.map(|n| n.0),
                        bytes: *bytes,
                    },
                ),
                TraceEvent::Recv {
                    node,
                    ctx,
                    from,
                    frame,
                } => (
                    ctx,
                    node,
                    CausalKind::Recv {
                        frame: (*frame).to_string(),
                        from: from.0,
                    },
                ),
                TraceEvent::DeliverUp {
                    node,
                    kind,
                    hops,
                    ctx,
                    ..
                } => (
                    ctx,
                    node,
                    CausalKind::Deliver {
                        kind: kind.name().to_string(),
                        hops: *hops,
                    },
                ),
                TraceEvent::Unreachable { node, ctx, dst } => {
                    (ctx, node, CausalKind::Unreachable { dst: dst.0 })
                }
                TraceEvent::TimerArm { node, ctx, at: due } => {
                    (ctx, node, CausalKind::TimerArm { at: due.ticks() })
                }
                TraceEvent::Join { .. }
                | TraceEvent::ConnUp { .. }
                | TraceEvent::ConnDown { .. }
                | TraceEvent::RoleChange { .. }
                | TraceEvent::PowerChange { .. } => continue,
            };
            if !ctx.is_active() {
                continue;
            }
            out.push(CausalEvent {
                trace_id: ctx.trace_id,
                span: ctx.span_seq,
                parent: ctx.parent_id,
                t: at.ticks(),
                node: node.0,
                kind,
            });
        }
        out
    }
}

/// Compact ` [trace/parent>span]` suffix for traced render lines; empty
/// for untraced events so pre-existing trace text is unchanged.
fn trace_tag(ctx: &TraceCtx) -> String {
    if ctx.is_active() {
        format!(" [{}/{}>{}]", ctx.trace_id, ctx.parent_id, ctx.span_seq)
    } else {
        String::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TraceLog::new(0);
        log.record(t(1), TraceEvent::Join { node: NodeId(1) });
        assert!(!log.enabled());
        assert!(log.is_empty());
        assert_eq!(log.offered(), 0);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut log = TraceLog::new(2);
        for k in 0..5u32 {
            log.record(t(k as u64), TraceEvent::Join { node: NodeId(k) });
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.offered(), 5);
        assert_eq!(log.dropped(), 3);
        let text = log.render();
        assert!(
            text.starts_with("# trace truncated: 3 of 5 events dropped"),
            "missing truncation header:\n{text}"
        );
        let kept: Vec<u32> = log
            .events()
            .map(|(_, e)| match e {
                TraceEvent::Join { node } => node.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![3, 4], "newest survive");
    }

    #[test]
    fn render_is_one_line_per_event() {
        let mut log = TraceLog::new(8);
        log.record(t(1), TraceEvent::Join { node: NodeId(3) });
        log.record(
            t(2),
            TraceEvent::DeliverUp {
                node: NodeId(3),
                from: NodeId(5),
                kind: MsgKind::Ping,
                hops: 2,
                ctx: TraceCtx::NONE,
            },
        );
        log.record(
            t(3),
            TraceEvent::ConnUp {
                node: NodeId(3),
                peer: NodeId(5),
            },
        );
        log.record(
            t(4),
            TraceEvent::ConnDown {
                node: NodeId(3),
                peer: NodeId(5),
            },
        );
        log.record(
            t(5),
            TraceEvent::RoleChange {
                node: NodeId(3),
                role: Role::Master,
            },
        );
        log.record(
            t(6),
            TraceEvent::PowerChange {
                node: NodeId(3),
                up: false,
            },
        );
        let text = log.render();
        assert_eq!(text.lines().count(), 6);
        assert!(text.contains("JOIN"));
        assert!(text.contains("RX ping from n5 (2 hops)"));
        assert!(!text.contains('['), "untraced lines carry no trace tag");
        assert!(text.contains("CONN+ n5"));
        assert!(text.contains("CONN- n5"));
        assert!(text.contains("ROLE Master"));
        assert!(text.contains("n3 DOWN"));
    }

    #[test]
    fn id_allocation_is_monotone_and_never_zero() {
        let mut log = TraceLog::new(4);
        assert_eq!(log.alloc_trace(), 1);
        assert_eq!(log.alloc_trace(), 2);
        assert_eq!(log.alloc_span(), 1);
        assert_eq!(log.alloc_span(), 2);
        assert_eq!(log.alloc_span(), 3);
    }

    #[test]
    fn id_base_namespaces_allocations() {
        let base = node_id_base(3);
        let mut log = TraceLog::with_id_base(16, 0, base);
        assert_eq!(log.alloc_trace(), base + 1);
        assert_eq!(log.alloc_span(), base + 1);
        assert_eq!(log.alloc_span(), base + 2);
        // Namespaces of distinct nodes never overlap.
        assert!(node_id_base(4) > base + (1 << ID_NAMESPACE_BITS) - 1);
    }

    #[test]
    fn foreign_trace_spans_bypass_the_local_reservoir() {
        // A node's log must record spans of traces minted elsewhere
        // unconditionally: the minting log owns the sampling verdict.
        let mut log = TraceLog::with_id_base(16, 0, node_id_base(1));
        let local = log.alloc_trace();
        let foreign = node_id_base(0) + 7; // as if minted by node 0
        for trace in [local, foreign] {
            let ctx = TraceCtx::root(trace, log.alloc_span());
            log.record(
                t(1),
                TraceEvent::Recv {
                    node: NodeId(1),
                    ctx,
                    from: NodeId(0),
                    frame: "flood",
                },
            );
        }
        assert_eq!(log.len(), 2, "both local and foreign spans recorded");
        assert_eq!(log.sampled_out(), 0);
    }

    #[test]
    fn causal_events_link_parents_and_skip_milestones() {
        let mut log = TraceLog::new(16);
        let trace = log.alloc_trace();
        let root = TraceCtx::root(trace, log.alloc_span());
        log.record(t(0), TraceEvent::Join { node: NodeId(0) });
        log.record(
            t(1),
            TraceEvent::Origin {
                node: NodeId(0),
                ctx: root,
                label: "query",
            },
        );
        let send = root.child(log.alloc_span());
        log.record(
            t(1),
            TraceEvent::Send {
                node: NodeId(0),
                ctx: send,
                to: None,
                frame: "flood",
                bytes: 40,
            },
        );
        let recv = send.child(log.alloc_span());
        log.record(
            t(2),
            TraceEvent::Recv {
                node: NodeId(1),
                ctx: recv,
                from: NodeId(0),
                frame: "flood",
            },
        );
        // An untraced delivery must not leak into the causal stream.
        log.record(
            t(3),
            TraceEvent::DeliverUp {
                node: NodeId(1),
                from: NodeId(0),
                kind: MsgKind::Ping,
                hops: 1,
                ctx: TraceCtx::NONE,
            },
        );
        let events = log.causal_events();
        assert_eq!(events.len(), 3, "join and untraced delivery skipped");
        assert_eq!(events[0].parent, 0, "origin is the root");
        assert_eq!(events[1].parent, events[0].span);
        assert_eq!(events[2].parent, events[1].span);
        assert!(events.iter().all(|e| e.trace_id == trace));
        // And the traced lines render with the compact tag.
        let text = log.render();
        assert!(text.contains("ORIGIN query [1/0>1]"), "got:\n{text}");
        assert!(text.contains("TX flood bcast 40B [1/1>2]"));
    }

    /// A log with a tiny forced reservoir: mint `n_traces` traces first
    /// (letting Algorithm R settle its admissions), then record one span
    /// per trace — spans of evicted traces are skipped at record time.
    fn reservoir_log(seed: u64, cap: usize, n_traces: usize) -> TraceLog {
        let mut log = TraceLog::with_seed(1024, seed);
        log.reservoir_cap = cap;
        let ctxs: Vec<TraceCtx> = (0..n_traces)
            .map(|_| {
                let trace = log.alloc_trace();
                TraceCtx::root(trace, log.alloc_span())
            })
            .collect();
        for ctx in ctxs {
            log.record(
                t(ctx.trace_id),
                TraceEvent::Origin {
                    node: NodeId(0),
                    ctx,
                    label: "query",
                },
            );
        }
        log
    }

    #[test]
    fn reservoir_bounds_distinct_traces_and_is_seed_deterministic() {
        let log = reservoir_log(7, 4, 100);
        let distinct: std::collections::BTreeSet<u64> =
            log.events().map(|(_, e)| TraceLog::trace_of(e)).collect();
        assert_eq!(
            distinct.len(),
            4,
            "exactly the reservoir's traces survive recording"
        );
        assert_eq!(log.sampled_out(), 96, "96 traces must have been thinned");
        // Same seed, same admissions; different seed, (almost surely)
        // different ones.
        let again = reservoir_log(7, 4, 100);
        assert_eq!(log.live, again.live);
        let other = reservoir_log(8, 4, 100);
        assert_ne!(log.live, other.live, "seed must steer the reservoir");
    }

    /// The pre-refactor reservoir, verbatim: xorshift64 draws plus one
    /// admission flag per minted trace. The bounded `live_set` rewrite
    /// must reproduce its slot assignments bit-for-bit — the golden
    /// fingerprints pin sampled traces, so the draw sequence and victim
    /// choices may not move.
    struct OracleReservoir {
        admit: Vec<bool>,
        live: Vec<u64>,
        cap: usize,
        seen: u64,
        state: u64,
    }

    impl OracleReservoir {
        fn new(cap: usize, seed: u64) -> Self {
            OracleReservoir {
                admit: Vec::new(),
                live: Vec::new(),
                cap,
                seen: 0,
                state: seed ^ 0x9e37_79b9_7f4a_7c15,
            }
        }

        fn mint(&mut self) {
            let id = self.admit.len() as u64 + 1;
            self.seen += 1;
            if self.live.len() < self.cap {
                self.live.push(id);
                self.admit.push(true);
                return;
            }
            let mut x = self.state;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.state = x;
            let j = x % self.seen;
            if (j as usize) < self.cap {
                let victim = self.live[j as usize];
                self.admit[(victim - 1) as usize] = false;
                self.live[j as usize] = id;
                self.admit.push(true);
            } else {
                self.admit.push(false);
            }
        }
    }

    #[test]
    fn bounded_admission_matches_the_unbounded_oracle_bit_for_bit() {
        for seed in [0u64, 1, 7, 0xDEAD_BEEF] {
            let cap = 64;
            let mut log = TraceLog::with_seed(1024, seed);
            log.reservoir_cap = cap;
            let mut oracle = OracleReservoir::new(cap, seed);
            for n in 0..5_000u64 {
                let id = log.alloc_trace();
                assert_eq!(id, n + 1);
                oracle.mint();
                // Every admission verdict the old code would give is
                // reproduced by the new membership set.
                assert_eq!(
                    log.live_set.contains(&id),
                    oracle.admit[n as usize],
                    "seed {seed}, trace {id}"
                );
            }
            assert_eq!(log.live, oracle.live, "seed {seed}: slot-exact match");
            let survivors: std::collections::BTreeSet<u64> = oracle
                .admit
                .iter()
                .enumerate()
                .filter_map(|(i, &a)| if a { Some(i as u64 + 1) } else { None })
                .collect();
            let live: std::collections::BTreeSet<u64> = log.live.iter().copied().collect();
            assert_eq!(live, survivors, "seed {seed}: final admissions match");
        }
    }

    #[test]
    fn admission_state_stays_bounded_by_the_reservoir() {
        let mut log = TraceLog::with_seed(1024, 3);
        log.reservoir_cap = 8;
        for _ in 0..100_000 {
            log.alloc_trace();
        }
        assert_eq!(log.live.len(), 8);
        assert_eq!(log.live_set.len(), 8);
    }

    #[test]
    fn small_runs_admit_every_trace() {
        // Below the reservoir floor nothing is thinned: the sampled trace
        // is the complete trace.
        let log = reservoir_log(7, MIN_RESERVOIR, 500);
        assert_eq!(log.sampled_out(), 0);
        assert_eq!(log.len(), 500);
    }

    #[test]
    fn merge_offset_sorts_by_time_and_respects_capacity() {
        let mut a = TraceLog::with_id_base(3, 0, node_id_base(0));
        a.record(t(5), TraceEvent::Join { node: NodeId(0) });
        let mut b = TraceLog::with_id_base(3, 0, node_id_base(1));
        b.record(t(1), TraceEvent::Join { node: NodeId(1) });
        b.record(t(9), TraceEvent::Join { node: NodeId(2) });
        b.record(t(2), TraceEvent::Join { node: NodeId(3) });
        a.merge_offset(&b);
        let order: Vec<u32> = a
            .events()
            .map(|(_, e)| match e {
                TraceEvent::Join { node } => node.0,
                _ => unreachable!(),
            })
            .collect();
        // Combined timeline is n1@1, n3@2, n0@5, n2@9; capacity 3 drops
        // the oldest.
        assert_eq!(order, vec![3, 0, 2]);
        assert_eq!(a.dropped(), 1);
        assert_eq!(a.offered(), 4);
    }

    #[test]
    fn cross_namespace_merge_preserves_ids_verbatim() {
        // Node 0's log mints a trace; node 1's log records a reception of
        // that trace under node 0's ids (as the wire delivers them). The
        // parent merges both into a base-0 accumulator: no remapping, and
        // the cross-process parent link must survive intact.
        let mut a = TraceLog::with_id_base(64, 0, node_id_base(0));
        let ta = a.alloc_trace();
        let root = TraceCtx::root(ta, a.alloc_span());
        a.record(
            t(1),
            TraceEvent::Origin {
                node: NodeId(0),
                ctx: root,
                label: "query",
            },
        );
        let send = root.child(a.alloc_span());
        a.record(
            t(1),
            TraceEvent::Send {
                node: NodeId(0),
                ctx: send,
                to: None,
                frame: "flood",
                bytes: 40,
            },
        );

        let mut b = TraceLog::with_id_base(64, 0, node_id_base(1));
        let recv = send.child(b.alloc_span());
        b.record(
            t(2),
            TraceEvent::Recv {
                node: NodeId(1),
                ctx: recv,
                from: NodeId(0),
                frame: "flood",
            },
        );

        let mut acc = TraceLog::new(64);
        acc.merge_offset(&a);
        acc.merge_offset(&b);
        let events = acc.causal_events();
        assert_eq!(events.len(), 3);
        assert!(
            events.iter().all(|e| e.trace_id == ta),
            "one trace spanning two logs: {events:?}"
        );
        let recv_ev = events.iter().find(|e| e.node == 1).expect("recv kept");
        assert_eq!(recv_ev.parent, send.span_seq, "wire parent link intact");
        assert_eq!(recv_ev.span, recv.span_seq);
    }
}
