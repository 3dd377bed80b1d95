//! The simulation engine: virtual clock, future-event list, and typed
//! event routing.
//!
//! [`Engine`] is deliberately slim — it owns the future-event list, the
//! processed-event counter and the peak-depth gauge, and nothing else.
//! Everything that *reacts* to events lives either in the per-node layer
//! stack (`crate::stack`) or in a registered [`Subsystem`]
//! (`crate::subsystems`).
//!
//! Event routing is typed: node-stack traffic (frame deliveries, combined
//! node timers, overlay joins) is dispatched straight to the layer
//! adapters, while every cross-cutting process (mobility, churn, faults,
//! samplers) schedules [`SubEvent`]s in its own namespace — the
//! [`SubsystemId`] it was registered under. Adding a new subsystem
//! therefore never touches the [`Event`] enum.
//!
//! Two queue backends sit behind the same `schedule`/`pop_before`
//! surface: the sequential [`EventQueue`] (insertion-order tie-breaks,
//! the default, bit-identical to every pinned fingerprint) and the
//! [`KeyedQueue`] used by the sharded world, which breaks ties with an
//! intrinsic [`EventKey`] derived from the event itself so any partition
//! of the same world pops simultaneous events identically.

use manet_aodv::Msg;
use manet_des::{EventKey, EventQueue, KeyedQueue, NodeId, SchedulerKind, SimTime, Substrate};
use p2p_stack::AppMsg;

use crate::world::WorldCore;

/// Index of a registered subsystem; doubles as its event namespace.
pub(crate) type SubsystemId = u16;

/// A subsystem event compacted into one word: owner id (16 bits), event
/// shape (8 bits) and node id (32 bits). Keeps the `Event::Sub` arm at
/// payload-free size — the future-event list is dominated by these plus
/// node timers, so the hot path copies no more than it must.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct SubKey(u64);

const SUB_TICK: u64 = 0;
const SUB_NODE: u64 = 1;
const SUB_NODE_ALT: u64 = 2;

impl SubKey {
    pub(crate) fn pack(owner: SubsystemId, ev: SubEvent) -> Self {
        let (kind, node) = match ev {
            SubEvent::Tick => (SUB_TICK, 0u64),
            SubEvent::Node(n) => (SUB_NODE, n.0 as u64),
            SubEvent::NodeAlt(n) => (SUB_NODE_ALT, n.0 as u64),
        };
        SubKey(((owner as u64) << 40) | (kind << 32) | node)
    }

    pub(crate) fn owner(self) -> SubsystemId {
        (self.0 >> 40) as SubsystemId
    }

    pub(crate) fn event(self) -> SubEvent {
        match (self.0 >> 32) & 0xff {
            SUB_TICK => SubEvent::Tick,
            SUB_NODE => SubEvent::Node(NodeId(self.0 as u32)),
            _ => SubEvent::NodeAlt(NodeId(self.0 as u32)),
        }
    }

    /// The shape-and-node half (low 40 bits), for intrinsic keying.
    fn discriminant(self) -> u64 {
        self.0 & 0xff_ffff_ffff
    }
}

/// Everything scheduled in the future-event list.
pub(crate) enum Event {
    /// A frame finishes arriving at `to` (routed to the phy layer).
    Deliver {
        to: NodeId,
        from: NodeId,
        msg: Msg<AppMsg>,
    },
    /// Combined protocol timer for one node (routing + overlay + query).
    NodeTimer(NodeId),
    /// A member joins the overlay.
    Join(NodeId),
    /// A subsystem-namespaced event, routed to `subsystems[key.owner()]`.
    Sub(SubKey),
}

/// Event-class ranks of the intrinsic [`EventKey`] order (sharded mode).
pub(crate) mod key_class {
    pub const JOIN: u8 = 0;
    pub const NODE_TIMER: u8 = 1;
    pub const DELIVER: u8 = 2;
    pub const SUB: u8 = 3;
}

/// The intrinsic key of a frame delivery: sender/receiver pair plus the
/// sender's transmission sequence number. Unique per reception, and
/// derived from what the frame *is* — never from scheduling order — so
/// every partition of a sharded world agrees on it.
pub(crate) fn deliver_key(from: NodeId, to: NodeId, tx_seq: u64) -> EventKey {
    EventKey {
        class: key_class::DELIVER,
        k1: ((from.0 as u64) << 32) | to.0 as u64,
        k2: tx_seq,
    }
}

/// The intrinsic key of every event except `Deliver` (whose key needs the
/// sender's transmission sequence, supplied at the phy layer via
/// [`Engine::schedule_keyed`]).
fn intrinsic_key(ev: &Event) -> EventKey {
    match ev {
        Event::Join(n) => EventKey {
            class: key_class::JOIN,
            k1: n.0 as u64,
            k2: 0,
        },
        Event::NodeTimer(n) => EventKey {
            class: key_class::NODE_TIMER,
            k1: n.0 as u64,
            k2: 0,
        },
        Event::Sub(key) => EventKey {
            class: key_class::SUB,
            k1: key.owner() as u64,
            k2: key.discriminant(),
        },
        Event::Deliver { .. } => {
            panic!("Deliver events need an explicit per-sender key (schedule_keyed)")
        }
    }
}

/// An event inside one subsystem's private namespace.
///
/// The meaning of each shape is the owning subsystem's business: mobility
/// uses `Node` for position re-evaluation, churn uses `Node`/`NodeAlt` for
/// its down/up alternation, the burst/flap/jitter processes use `Tick` for
/// their window boundaries.
#[derive(Clone, Copy, Debug)]
pub(crate) enum SubEvent {
    /// A node-less process boundary (window toggles, samplers).
    Tick,
    /// A per-node event (primary meaning).
    Node(NodeId),
    /// A per-node event (secondary meaning, e.g. the up-phase of churn).
    NodeAlt(NodeId),
}

enum Backend {
    /// Insertion-order tie-breaks: the sequential world's exact semantics.
    Seq(EventQueue<Event>),
    /// Intrinsic-key tie-breaks: the sharded world's partition-invariant
    /// semantics.
    Keyed(KeyedQueue<Event>),
}

/// The clock and future-event list of one replication (or one shard).
pub(crate) struct Engine {
    backend: Backend,
    /// Events the loop has processed.
    pub(crate) events: u64,
    /// Deepest the future-event list has been (live events).
    pub(crate) peak_queue: usize,
}

impl Engine {
    pub(crate) fn with_scheduler(kind: SchedulerKind) -> Self {
        Engine {
            backend: Backend::Seq(EventQueue::with_scheduler(kind)),
            events: 0,
            peak_queue: 0,
        }
    }

    /// An engine on the key-ordered backend, for one shard of a sharded
    /// world.
    pub(crate) fn keyed() -> Self {
        Engine {
            backend: Backend::Keyed(KeyedQueue::new()),
            events: 0,
            peak_queue: 0,
        }
    }

    /// Schedule `ev` at absolute time `at`. On the keyed backend the
    /// intrinsic key is derived from the event (`Deliver` must go through
    /// [`schedule_keyed`](Engine::schedule_keyed) instead).
    pub(crate) fn schedule(&mut self, at: SimTime, ev: Event) {
        match &mut self.backend {
            Backend::Seq(q) => {
                q.schedule(at, ev);
            }
            Backend::Keyed(q) => {
                let key = intrinsic_key(&ev);
                q.schedule(at, key, ev);
            }
        }
    }

    /// Schedule with an explicit intrinsic key (keyed backend only; the
    /// phy layer uses this for frame deliveries, and shard barriers use
    /// it to absorb cross-shard messages under their original keys).
    pub(crate) fn schedule_keyed(&mut self, at: SimTime, key: EventKey, ev: Event) {
        match &mut self.backend {
            Backend::Keyed(q) => q.schedule(at, key, ev),
            Backend::Seq(_) => panic!("schedule_keyed on the sequential backend"),
        }
    }

    /// Pop the next event at or before `horizon`, updating the peak-depth
    /// gauge (before the pop, so the popped event still counts as live)
    /// and the processed-event counter.
    pub(crate) fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, Event)> {
        let popped = match &mut self.backend {
            Backend::Seq(q) => {
                self.peak_queue = self.peak_queue.max(q.len());
                q.pop_before(horizon)?
            }
            Backend::Keyed(q) => {
                self.peak_queue = self.peak_queue.max(q.len());
                q.pop_before(horizon)?
            }
        };
        self.events += 1;
        Some(popped)
    }

    /// Timestamp of the earliest pending event, if any.
    pub(crate) fn next_time(&self) -> Option<SimTime> {
        match &self.backend {
            Backend::Seq(q) => q.peek_time(),
            Backend::Keyed(q) => q.next_time(),
        }
    }

    /// Remove every pending event matching `pred` (keyed backend only;
    /// used when a node migrates between shards).
    pub(crate) fn drain_matching(
        &mut self,
        pred: impl FnMut(&Event) -> bool,
    ) -> Vec<(SimTime, EventKey, Event)> {
        match &mut self.backend {
            Backend::Keyed(q) => q.drain_matching(pred),
            Backend::Seq(_) => panic!("drain_matching on the sequential backend"),
        }
    }

    /// The current virtual time (time of the last popped event).
    pub(crate) fn now(&self) -> SimTime {
        match &self.backend {
            Backend::Seq(q) => q.now(),
            Backend::Keyed(q) => q.now(),
        }
    }

    /// Live events in the future-event list.
    pub(crate) fn len(&self) -> usize {
        match &self.backend {
            Backend::Seq(q) => q.len(),
            Backend::Keyed(q) => q.len(),
        }
    }

    /// Events ever scheduled (a workload measure).
    pub(crate) fn scheduled_total(&self) -> u64 {
        match &self.backend {
            Backend::Seq(q) => q.scheduled_total(),
            Backend::Keyed(q) => q.scheduled_total(),
        }
    }

    /// Calendar-scheduler statistics, when that backend is in use.
    pub(crate) fn calendar_stats(&self) -> Option<[u64; 7]> {
        match &self.backend {
            Backend::Seq(q) => q.calendar_stats(),
            Backend::Keyed(_) => None,
        }
    }
}

/// The DES engine is one of the two [`Substrate`]s (the real-time driver
/// in `manet-rt` is the other): "now" is the virtual clock and arming a
/// node's combined timer schedules a [`Event::NodeTimer`] on the
/// future-event list — the exact call path `resched_timer` always used,
/// now named by the trait.
impl Substrate for Engine {
    fn now(&self) -> SimTime {
        Engine::now(self)
    }

    fn arm_timer(&mut self, node: NodeId, at: SimTime) {
        self.schedule(at, Event::NodeTimer(node));
    }
}

/// A pluggable cross-cutting process registered on the engine.
///
/// Subsystems own their private state (RNG streams, schedules, cadences)
/// and react to events in their own [`SubEvent`] namespace; they reach the
/// shared simulation state through [`SubCtx`]. Lifecycle:
///
/// 1. [`seed_node`](Subsystem::seed_node) — once per node during world
///    construction, in node-id order (interleaved across subsystems so
///    initial-event insertion order is part of the deterministic contract);
/// 2. [`init`](Subsystem::init) — once after all nodes exist, in
///    registration order;
/// 3. [`handle`](Subsystem::handle) — for every popped event the subsystem
///    scheduled;
/// 4. [`after_event`](Subsystem::after_event) — after every dispatched
///    event, only when [`wants_post_hook`](Subsystem::wants_post_hook) —
///    a passive tap that must not schedule events or draw randomness;
/// 5. [`on_finish`](Subsystem::on_finish) — once when the world is
///    finished, before the result is assembled.
///
/// `Send` is part of the contract: the sharded world runs each shard's
/// subsystem replicas on its own OS thread.
pub(crate) trait Subsystem: Send {
    /// Per-node seeding during world construction.
    fn seed_node(&mut self, ctx: &mut SubCtx<'_>, id: NodeId) {
        let _ = (ctx, id);
    }

    /// One-time seeding after all nodes exist.
    fn init(&mut self, ctx: &mut SubCtx<'_>) {
        let _ = ctx;
    }

    /// Handle an event this subsystem scheduled.
    fn handle(&mut self, ctx: &mut SubCtx<'_>, now: SimTime, ev: SubEvent) {
        let _ = (ctx, now, ev);
    }

    /// Opt into the per-event post-dispatch tap. Checked once at world
    /// construction, so passive observers cost nothing when absent.
    fn wants_post_hook(&self) -> bool {
        false
    }

    /// Passive post-dispatch tap (see [`Subsystem::wants_post_hook`]).
    /// Must only read simulation state —
    /// never schedule events or draw randomness — so instrumented and bare
    /// runs stay bit-identical.
    fn after_event(&mut self, core: &mut WorldCore, now: SimTime) {
        let _ = (core, now);
    }

    /// End-of-run hook, called before the result is assembled.
    fn on_finish(&mut self, core: &mut WorldCore) {
        let _ = core;
    }
}

/// What a [`Subsystem`] sees of the world: the shared core plus its own
/// registration id, so everything it schedules lands back in its own
/// namespace.
pub(crate) struct SubCtx<'a> {
    pub(crate) core: &'a mut WorldCore,
    pub(crate) owner: SubsystemId,
}

impl SubCtx<'_> {
    /// Schedule `ev` in the owning subsystem's namespace at time `at`.
    pub(crate) fn schedule(&mut self, at: SimTime, ev: SubEvent) {
        self.core
            .engine
            .schedule(at, Event::Sub(SubKey::pack(self.owner, ev)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_key_round_trips_every_shape() {
        for owner in [0u16, 1, 7, u16::MAX] {
            for ev in [
                SubEvent::Tick,
                SubEvent::Node(NodeId(0)),
                SubEvent::Node(NodeId(u32::MAX)),
                SubEvent::NodeAlt(NodeId(42)),
            ] {
                let key = SubKey::pack(owner, ev);
                assert_eq!(key.owner(), owner);
                match (ev, key.event()) {
                    (SubEvent::Tick, SubEvent::Tick) => {}
                    (SubEvent::Node(a), SubEvent::Node(b)) => assert_eq!(a, b),
                    (SubEvent::NodeAlt(a), SubEvent::NodeAlt(b)) => assert_eq!(a, b),
                    (a, b) => panic!("shape changed: {a:?} -> {b:?}"),
                }
            }
        }
    }

    #[test]
    fn sub_arm_is_one_word() {
        assert_eq!(std::mem::size_of::<SubKey>(), 8);
    }
}
