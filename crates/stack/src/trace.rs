//! Causal tracing: a bounded, zero-cost-when-off record of
//! [`CausalEvent`]s.
//!
//! [`TraceLog`] keeps the last `capacity` events in a ring buffer. Each
//! substrate lends its log to the protocol machine
//! ([`crate::StackHost::trace`]): DES worlds record when the scenario's
//! trace capacity is non-zero, a real-time node once its observability is
//! armed.
//!
//! Every event is a position in a [`TraceCtx`] chain — its trace (the
//! query or reconfiguration round that caused it), its own span and its
//! parent's: the trace root ([`origin`](TraceLog::origin)), and every
//! frame transmission/reception, delivery, unreachability verdict and
//! traced timer arm after it ([`child`](TraceLog::child)). Those two entry
//! points are also the span
//! allocator: they hand out monotone non-zero ids with no simulation
//! randomness, so a traced run stays bit-identical to an untraced one. The
//! retained ring is already the flat stream `manet_obs::causal` analyzes
//! and exports ([`causal_events`](TraceLog::causal_events)).
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
//!   ones.
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
use manet_obs::causal::{event_from_json, event_to_json};
use manet_obs::json::Value;
use manet_obs::{CausalEvent, CausalKind};

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

/// A bounded causal trace.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    /// The arena: a flat ring written round-robin once full. `head` is
    /// the oldest entry (and the next overwrite target) when the arena is
    /// at capacity; while filling, entries are in order from index 0.
    pub(crate) arena: Vec<CausalEvent>,
    pub(crate) head: usize,
    pub(crate) capacity: usize,
    /// Total events offered, including those evicted from the ring (but
    /// not spans skipped by the trace reservoir).
    pub(crate) offered: u64,
    /// Events evicted to make room — a non-zero value means the retained
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
    /// randomness) and decide its reservoir admission.
    fn alloc_trace(&mut self) -> u64 {
        let id = self.id_base + self.next_trace;
        self.next_trace += 1;
        self.reserve(id);
        id
    }

    /// Allocate a fresh span id (monotone, non-zero, no randomness).
    fn alloc_span(&mut self) -> u64 {
        let id = self.id_base + self.next_span;
        self.next_span += 1;
        id
    }

    /// Whether recording is enabled.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Was `trace` minted by this log's own allocator (and therefore
    /// subject to this log's reservoir)? Foreign ids — another process's
    /// namespace, or ids merged past our mint range — are recorded
    /// unconditionally: their sampling verdict was rendered where they
    /// were minted.
    fn is_locally_minted(&self, trace: u64) -> bool {
        trace > self.id_base && trace - self.id_base < self.next_trace
    }

    /// Mint a trace at `node` and record its root: a query or
    /// reconfiguration round originated there. Returns the root context,
    /// or [`TraceCtx::NONE`] (recording nothing, allocating no id) when
    /// the log is off.
    pub fn origin(&mut self, at: SimTime, node: NodeId, label: &'static str) -> TraceCtx {
        if !self.enabled() {
            return TraceCtx::NONE;
        }
        let root = TraceCtx::root(self.alloc_trace(), self.alloc_span());
        self.push(at, node, root, CausalKind::Origin { label });
        root
    }

    /// Record one step of `parent`'s trace at `node` and return its
    /// context, for the caller to stamp onto whatever it forwards. When
    /// the log is off or `parent` is untraced, returns `parent` and
    /// records nothing; `kind` is only evaluated when the step is
    /// recorded.
    pub fn child(
        &mut self,
        at: SimTime,
        node: NodeId,
        parent: TraceCtx,
        kind: impl FnOnce() -> CausalKind,
    ) -> TraceCtx {
        if !parent.is_active() || !self.enabled() {
            return parent;
        }
        let ctx = parent.child(self.alloc_span());
        self.push(at, node, ctx, kind());
        ctx
    }

    /// Store one event of an enabled log (skips spans of non-admitted
    /// traces, overwrites the oldest ring slot when full).
    fn push(&mut self, at: SimTime, node: NodeId, ctx: TraceCtx, kind: CausalKind) {
        let trace = ctx.trace_id;
        if self.reservoir_cap != 0
            && self.is_locally_minted(trace)
            && !self.live_set.contains(&trace)
        {
            self.sampled_out += 1;
            return;
        }
        self.offered += 1;
        let event = CausalEvent {
            trace_id: trace,
            span: ctx.span_seq,
            parent: ctx.parent_id,
            t: at.ticks(),
            node: node.0,
            kind,
        };
        if self.arena.len() < self.capacity {
            self.arena.push(event);
        } else {
            self.arena[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &CausalEvent> {
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
        let mut all: Vec<CausalEvent> = self.events().copied().collect();
        all.extend(other.events().copied());
        all.sort_by_key(|e| e.t);
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

    /// The retained ring as the flat stream `manet_obs::causal` analyzes,
    /// oldest first.
    pub fn causal_events(&self) -> Vec<CausalEvent> {
        self.events().copied().collect()
    }

    /// The log as JSONL: a `trace` header line (capacity, id base,
    /// totals and id watermarks), then one `event` line per retained
    /// event, oldest first, each the object an artifact's `spans` array
    /// holds ([`event_to_json`]). [`from_jsonl`](Self::from_jsonl) reads
    /// it back.
    pub fn to_jsonl(&self) -> String {
        let mut header = vec![("type".to_string(), Value::Str("trace".into()))];
        header.extend(
            [
                ("capacity", self.capacity as u64),
                ("id_base", self.id_base),
                ("offered", self.offered),
                ("dropped", self.dropped),
                ("sampled_out", self.sampled_out),
                ("next_trace", self.next_trace),
                ("next_span", self.next_span),
            ]
            .map(|(k, n)| (k.to_string(), Value::uint(n))),
        );
        let mut out = Value::Obj(header).render_line();
        out.push('\n');
        for e in self.events() {
            let mut line = event_to_json(e);
            if let Value::Obj(fields) = &mut line {
                fields.insert(0, ("type".into(), Value::Str("event".into())));
            }
            out.push_str(&line.render_line());
            out.push('\n');
        }
        out
    }

    /// Read back what [`to_jsonl`](Self::to_jsonl) wrote: events, totals,
    /// capacity, id base and watermarks come back exactly. The reservoir
    /// sampler's state does not travel — a log read back is merged and
    /// analyzed, never recorded into. Every failure is an `Err` naming the
    /// 1-based line at fault; nothing panics. A trace cut short between
    /// lines reads as fewer events: the swarm relies on stdout order (the
    /// trace precedes a child's `RESULT` line) for completeness.
    pub fn from_jsonl(text: &str) -> Result<TraceLog, String> {
        if text.is_empty() {
            return Err("empty trace".into());
        }
        let mut log = TraceLog::new(0);
        for (i, line) in text.lines().enumerate() {
            log.read_line(i == 0, line)
                .map_err(|e| format!("line {}: {e}", i + 1))?;
        }
        Ok(log)
    }

    /// One line of [`from_jsonl`](Self::from_jsonl): the header first,
    /// then events up to the capacity it names.
    fn read_line(&mut self, first: bool, text: &str) -> Result<(), String> {
        let v = Value::parse(text)?;
        match (first, v.str_field("type")?) {
            (true, "trace") => {
                self.capacity = usize::try_from(v.u64_field("capacity")?)
                    .map_err(|_| "capacity exceeds usize")?;
                self.id_base = v.u64_field("id_base")?;
                self.offered = v.u64_field("offered")?;
                self.dropped = v.u64_field("dropped")?;
                self.sampled_out = v.u64_field("sampled_out")?;
                self.next_trace = v.u64_field("next_trace")?;
                self.next_span = v.u64_field("next_span")?;
            }
            (false, "event") if self.arena.len() < self.capacity => {
                self.arena.push(event_from_json(&v)?);
            }
            (false, "event") => {
                return Err(format!("more events than the capacity {}", self.capacity))
            }
            (_, ty) => return Err(format!("unexpected {ty} line")),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn recv(from: u32) -> impl FnOnce() -> CausalKind {
        move || CausalKind::Recv {
            frame: "flood",
            from,
        }
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TraceLog::new(0);
        assert!(!log.enabled());
        assert_eq!(log.origin(t(1), NodeId(1), "query"), TraceCtx::NONE);
        let foreign = TraceCtx::root(node_id_base(0) + 1, node_id_base(0) + 1);
        assert_eq!(
            log.child(t(2), NodeId(1), foreign, recv(0)),
            foreign,
            "a disabled log hands the parent back"
        );
        assert!(log.is_empty());
        assert_eq!(log.offered(), 0);
        assert_eq!((log.next_trace, log.next_span), (1, 1), "no id allocated");
    }

    #[test]
    fn untraced_parents_record_nothing() {
        let mut log = TraceLog::new(8);
        let called = std::cell::Cell::new(false);
        let ctx = log.child(t(1), NodeId(1), TraceCtx::NONE, || {
            called.set(true);
            CausalKind::Unreachable { dst: 2 }
        });
        assert_eq!(ctx, TraceCtx::NONE);
        assert!(!called.get(), "the kind is built only for a recorded step");
        assert!(log.is_empty());
        assert_eq!(log.next_span, 1, "no span allocated");
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut log = TraceLog::new(2);
        for k in 0..5u32 {
            log.origin(t(k as u64), NodeId(k), "query");
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.offered(), 5);
        assert_eq!(log.dropped(), 3);
        let kept: Vec<u32> = log.events().map(|e| e.node).collect();
        assert_eq!(kept, vec![3, 4], "newest survive");
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
            let parent = TraceCtx::root(trace, node_id_base(0) + 1);
            log.child(t(1), NodeId(1), parent, recv(0));
        }
        assert_eq!(log.len(), 2, "both local and foreign spans recorded");
        assert_eq!(log.sampled_out(), 0);
    }

    #[test]
    fn children_link_under_their_parents() {
        let mut log = TraceLog::new(16);
        let root = log.origin(t(1), NodeId(0), "query");
        let send = log.child(t(1), NodeId(0), root, || CausalKind::Send {
            frame: "flood",
            to: None,
            bytes: 40,
        });
        let recv = log.child(t(2), NodeId(1), send, recv(0));
        assert_eq!(send.parent_id, root.span_seq);
        assert_eq!(recv.parent_id, send.span_seq);
        let events = log.causal_events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].parent, 0, "origin is the root");
        assert_eq!(events[0].kind, CausalKind::Origin { label: "query" });
        assert_eq!(events[1].parent, events[0].span);
        assert_eq!(events[2].parent, events[1].span);
        assert_eq!((events[2].node, events[2].t), (1, t(2).ticks()));
        assert!(events.iter().all(|e| e.trace_id == root.trace_id));
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
            log.push(
                t(ctx.trace_id),
                NodeId(0),
                ctx,
                CausalKind::Origin { label: "query" },
            );
        }
        log
    }

    #[test]
    fn reservoir_bounds_distinct_traces_and_is_seed_deterministic() {
        let log = reservoir_log(7, 4, 100);
        let distinct: std::collections::BTreeSet<u64> = log.events().map(|e| e.trace_id).collect();
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
        a.origin(t(5), NodeId(0), "query");
        let mut b = TraceLog::with_id_base(3, 0, node_id_base(1));
        b.origin(t(1), NodeId(1), "query");
        b.origin(t(9), NodeId(2), "query");
        b.origin(t(2), NodeId(3), "query");
        a.merge_offset(&b);
        let order: Vec<u32> = a.events().map(|e| e.node).collect();
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
        let root = a.origin(t(1), NodeId(0), "query");
        let send = a.child(t(1), NodeId(0), root, || CausalKind::Send {
            frame: "flood",
            to: None,
            bytes: 40,
        });

        let mut b = TraceLog::with_id_base(64, 0, node_id_base(1));
        let recv = b.child(t(2), NodeId(1), send, recv(0));

        let mut acc = TraceLog::new(64);
        acc.merge_offset(&a);
        acc.merge_offset(&b);
        let events = acc.causal_events();
        assert_eq!(events.len(), 3);
        assert!(
            events.iter().all(|e| e.trace_id == root.trace_id),
            "one trace spanning two logs: {events:?}"
        );
        let recv_ev = events.iter().find(|e| e.node == 1).expect("recv kept");
        assert_eq!(recv_ev.parent, send.span_seq, "wire parent link intact");
        assert_eq!(recv_ev.span, recv.span_seq);
    }
}
