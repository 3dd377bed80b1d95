//! The simulation engine: virtual clock, future-event list, and typed
//! event routing.
//!
//! [`Engine`] is deliberately slim — it owns the future-event list, the
//! processed-event counter and the peak-depth gauge, and nothing else.
//! Everything that *reacts* to events lives either in a node's protocol
//! machine (hosted through `crate::stack`) or in a registered
//! [`Subsystem`] (`crate::subsystems`).
//!
//! Event routing is typed: node traffic (frame deliveries, combined node
//! timers, overlay joins) is dispatched straight to the node's machine,
//! while every cross-cutting process (mobility, churn, faults,
//! samplers) schedules [`SubEvent`]s in its own namespace — the
//! [`SubsystemId`] it was registered under. Adding a new subsystem
//! therefore never touches the [`Event`] enum.
//!
//! The future-event list is an [`EventQueue`]: timestamp ties break by
//! insertion order, which every pinned fingerprint depends on.
//!
//! A broadcast costs one queue slot, not one per receiver:
//! [`Engine::schedule_fanout`] stores every surviving reception of one
//! transmission in a single slot, and [`Engine::pop_before`] hands them
//! out one [`Event::Deliver`] per call. The receptions share one timestamp
//! (the medium draws one delay per transmission) and would hold
//! consecutive insertion sequence numbers as separate events, so nothing
//! can pop between them and the pop sequence is unchanged. Every count the
//! engine reports — `events`, `len()`, `peak_queue`, `scheduled_total()` —
//! stays per reception.

use manet_aodv::Msg;
use manet_des::{EventQueue, NodeId, SchedulerKind, SimTime};
use p2p_stack::{AppMsg, StackMachine};

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

/// One entry of the future-event list.
enum Slot {
    One(Event),
    /// Every surviving reception of one broadcast; the receivers, in
    /// reception order, are `Engine::receivers[list]`.
    FanOut {
        from: NodeId,
        list: u32,
        msg: Msg<AppMsg>,
    },
}

/// A popped fan-out slot whose receptions are still being handed out.
struct InFlight {
    at: SimTime,
    from: NodeId,
    list: u32,
    /// Index in the receiver list of the next reception to hand out.
    next: usize,
    msg: Msg<AppMsg>,
}

/// The clock and future-event list of one replication: an
/// insertion-ordered queue of [`Slot`]s plus the bookkeeping that keeps
/// every count per reception.
///
/// A broadcast's receptions share one queue slot
/// ([`schedule_fanout`](Engine::schedule_fanout)); everything the engine
/// reports still counts receptions, so callers cannot tell the difference
/// except by speed.
pub(crate) struct Engine {
    q: EventQueue<Slot>,
    /// Receptions inside queued fan-out slots beyond the one each slot
    /// counts as in `q.len()`.
    hidden: usize,
    /// Receptions ever scheduled beyond the one per fan-out slot that
    /// `q.scheduled_total()` counts.
    hidden_total: u64,
    in_flight: Option<InFlight>,
    /// Receiver lists of queued and in-flight fan-outs. A delivered
    /// fan-out's list is cleared and reused, so once the pool has grown a
    /// broadcast allocates nothing.
    receivers: Vec<Vec<NodeId>>,
    /// Indices of the `receivers` lists not in use.
    free: Vec<u32>,
    /// Events the loop has processed.
    pub(crate) events: u64,
    /// Deepest the future-event list has been (live events).
    pub(crate) peak_queue: usize,
}

impl Engine {
    pub(crate) fn with_scheduler(kind: SchedulerKind) -> Self {
        Engine {
            q: EventQueue::with_scheduler(kind),
            hidden: 0,
            hidden_total: 0,
            in_flight: None,
            receivers: Vec::new(),
            free: Vec::new(),
            events: 0,
            peak_queue: 0,
        }
    }

    /// Schedule `ev` at absolute time `at`.
    pub(crate) fn schedule(&mut self, at: SimTime, ev: Event) {
        self.q.schedule(at, Slot::One(ev));
    }

    /// Schedule the delivery of `msg` from `from` to every node of `to`,
    /// in that order, all at `at`. Pops exactly as one
    /// [`schedule`](Engine::schedule) call per receiver would; an empty
    /// `to` schedules nothing.
    pub(crate) fn schedule_fanout(
        &mut self,
        at: SimTime,
        from: NodeId,
        msg: Msg<AppMsg>,
        to: impl IntoIterator<Item = NodeId>,
    ) {
        let list = self.free.pop().unwrap_or_else(|| {
            self.receivers.push(Vec::new());
            (self.receivers.len() - 1) as u32
        });
        let buf = &mut self.receivers[list as usize];
        buf.extend(to);
        match *buf.as_slice() {
            [] => self.free.push(list),
            [only] => {
                buf.clear();
                self.free.push(list);
                self.q.schedule(
                    at,
                    Slot::One(Event::Deliver {
                        to: only,
                        from,
                        msg,
                    }),
                );
            }
            _ => {
                self.hidden += buf.len() - 1;
                self.hidden_total += buf.len() as u64 - 1;
                self.q.schedule(at, Slot::FanOut { from, list, msg });
            }
        }
    }

    /// Pop the next event at or before `horizon`, updating the peak-depth
    /// gauge (before the pop, so the popped event still counts as live)
    /// and the processed-event counter. A fan-out slot yields one
    /// [`Event::Deliver`] per call.
    pub(crate) fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, Event)> {
        self.peak_queue = self.peak_queue.max(self.len());
        let popped = self.pop_slot_before(horizon)?;
        self.events += 1;
        Some(popped)
    }

    fn pop_slot_before(&mut self, limit: SimTime) -> Option<(SimTime, Event)> {
        if self.in_flight.is_none() {
            match self.q.pop_before(limit)? {
                (at, Slot::One(ev)) => return Some((at, ev)),
                (at, Slot::FanOut { from, list, msg }) => {
                    self.hidden -= self.receivers[list as usize].len() - 1;
                    self.in_flight = Some(InFlight {
                        at,
                        from,
                        list,
                        next: 0,
                        msg,
                    });
                }
            }
        }
        let fl = self.in_flight.as_mut().expect("fan-out in flight");
        if fl.at > limit {
            return None;
        }
        let receivers = &mut self.receivers[fl.list as usize];
        let to = receivers[fl.next];
        fl.next += 1;
        if fl.next < receivers.len() {
            let msg = fl.msg.clone();
            return Some((
                fl.at,
                Event::Deliver {
                    to,
                    from: fl.from,
                    msg,
                },
            ));
        }
        // The last reception takes the frame itself.
        receivers.clear();
        let InFlight {
            at,
            from,
            list,
            msg,
            ..
        } = self.in_flight.take().expect("fan-out in flight");
        self.free.push(list);
        Some((at, Event::Deliver { to, from, msg }))
    }

    /// The current virtual time (time of the last popped event).
    pub(crate) fn now(&self) -> SimTime {
        self.q.now()
    }

    /// Live events in the future-event list (receptions, not slots).
    pub(crate) fn len(&self) -> usize {
        let rest = self
            .in_flight
            .as_ref()
            .map_or(0, |fl| self.receivers[fl.list as usize].len() - fl.next);
        self.q.len() + self.hidden + rest
    }

    /// Events ever scheduled, counting every reception (a workload
    /// measure).
    pub(crate) fn scheduled_total(&self) -> u64 {
        self.q.scheduled_total() + self.hidden_total
    }

    /// Calendar-scheduler statistics, when that backend is in use. These
    /// count physical queue slots (one per fan-out).
    pub(crate) fn calendar_stats(&self) -> Option<[u64; 7]> {
        self.q.calendar_stats()
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
///    scheduled.
///
/// `Send` keeps [`World`](crate::World) `Send`, so a world built on one
/// thread can run on another.
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
    fn handle(&mut self, ctx: &mut SubCtx<'_>, now: SimTime, ev: SubEvent);
}

/// What a [`Subsystem`] sees of the world: the shared core plus its own
/// registration id, so everything it schedules lands back in its own
/// namespace.
pub(crate) struct SubCtx<'a> {
    pub(crate) core: &'a mut WorldCore,
    /// Every node's protocol machine, for subsystems that power nodes
    /// on and off or inject traffic.
    pub(crate) stacks: &'a mut [StackMachine],
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

#[cfg(test)]
mod fanout_equivalence {
    use super::*;
    use manet_aodv::msg::Hello;
    use manet_testkit::{properties, vec_of};

    const KINDS: [SchedulerKind; 2] = [SchedulerKind::Heap, SchedulerKind::Calendar];

    /// A popped event as the loop sees it: time, class, node, sender and
    /// frame id.
    type Seen = (SimTime, u8, u32, u32, u32);

    fn seen(at: SimTime, ev: &Event) -> Seen {
        match ev {
            Event::Deliver { to, from, msg } => {
                let Msg::Hello(Hello { seq }) = msg else {
                    panic!("test frames are hellos");
                };
                (at, 0, to.0, from.0, *seq)
            }
            Event::NodeTimer(n) => (at, 1, n.0, 0, 0),
            _ => unreachable!("the tests schedule timers and deliveries only"),
        }
    }

    fn deliver(at: SimTime, to: u32, from: u32, frame: u32) -> Option<Seen> {
        Some((at, 0, to, from, frame))
    }

    fn timer(at: SimTime, node: u32) -> Option<Seen> {
        Some((at, 1, node, 0, 0))
    }

    /// The engine next to a plain [`EventQueue`] that holds one item per
    /// reception. Every operation runs on both; every pop and every count
    /// must agree.
    struct Twin {
        eng: Engine,
        reference: EventQueue<Event>,
        ref_events: u64,
        ref_peak: usize,
        frames: u32,
    }

    impl Twin {
        fn new(kind: SchedulerKind) -> Self {
            Twin {
                eng: Engine::with_scheduler(kind),
                reference: EventQueue::with_scheduler(kind),
                ref_events: 0,
                ref_peak: 0,
                frames: 0,
            }
        }

        fn timer(&mut self, at: SimTime, node: u32) {
            self.eng.schedule(at, Event::NodeTimer(NodeId(node)));
            self.reference.schedule(at, Event::NodeTimer(NodeId(node)));
            self.check_counts();
        }

        /// Broadcast a fresh frame from `from`, surviving at `to`; returns
        /// the frame id.
        fn fanout(&mut self, at: SimTime, from: u32, to: &[u32]) -> u32 {
            let frame = self.frames;
            self.frames += 1;
            let msg = Msg::Hello(Hello { seq: frame });
            for &n in to {
                self.reference.schedule(
                    at,
                    Event::Deliver {
                        to: NodeId(n),
                        from: NodeId(from),
                        msg: msg.clone(),
                    },
                );
            }
            self.eng
                .schedule_fanout(at, NodeId(from), msg, to.iter().map(|&n| NodeId(n)));
            self.check_counts();
            frame
        }

        /// One pop attempt on both; returns what the engine popped.
        fn pop(&mut self, limit: SimTime) -> Option<Seen> {
            assert_eq!(self.eng.len(), self.reference.len(), "len before pop");
            self.ref_peak = self.ref_peak.max(self.reference.len());
            let want = self
                .reference
                .pop_before(limit)
                .map(|(at, ev)| seen(at, &ev));
            self.ref_events += want.is_some() as u64;
            let got = self.eng.pop_before(limit).map(|(at, ev)| seen(at, &ev));
            assert_eq!(got, want, "pop sequence diverged");
            self.check_counts();
            got
        }

        fn check_counts(&self) {
            assert_eq!(self.eng.len(), self.reference.len(), "len");
            assert_eq!(self.eng.events, self.ref_events, "events");
            assert_eq!(self.eng.peak_queue, self.ref_peak, "peak_queue");
            assert_eq!(
                self.eng.scheduled_total(),
                self.reference.scheduled_total(),
                "scheduled_total"
            );
            assert_eq!(self.eng.now(), self.reference.now(), "now");
        }

        fn drain(&mut self) {
            while self.pop(SimTime::MAX).is_some() {}
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_ticks(ms * 1000)
    }

    properties! {
        config = manet_testkit::Config::cases(64);

        /// Fed any interleaving of single events, fan-outs of 0–12
        /// receivers and pops (bounded by horizons ahead of, at or behind
        /// the clock, or unbounded), with timestamps from a
        /// small range so ties are common, the engine pops exactly what a
        /// queue holding one item per reception pops, reports the same
        /// `len()` before every pop, and ends with the same `events`,
        /// `peak_queue` and `scheduled_total()` — on both schedulers.
        fn fanout_slots_pop_like_one_event_per_reception(
            ops in vec_of((0u8..6, 0u64..4, 0u32..13), 1..300),
        ) {
            for kind in KINDS {
                let mut tw = Twin::new(kind);
                for &(op, dt, k) in &ops {
                    let at = tw.eng.now() + manet_des::SimDuration::from_millis(dt);
                    match op {
                        0 => tw.timer(at, k),
                        1 | 2 => {
                            let to: Vec<u32> = (0..k).map(|i| 100 + i).collect();
                            tw.fanout(at, k, &to);
                        }
                        3 => {
                            tw.pop(at);
                        }
                        // A horizon behind the clock pops nothing, even
                        // mid-fan-out.
                        4 => {
                            let behind = tw.eng.now().ticks().saturating_sub(dt * 1000);
                            tw.pop(SimTime::from_ticks(behind));
                        }
                        _ => {
                            tw.pop(SimTime::MAX);
                        }
                    }
                }
                tw.drain();
            }
        }
    }

    #[test]
    fn one_receiver() {
        for kind in KINDS {
            let mut tw = Twin::new(kind);
            let f = tw.fanout(t(5), 1, &[2]);
            assert_eq!(tw.eng.len(), 1);
            assert_eq!(tw.pop(SimTime::MAX), deliver(t(5), 2, 1, f));
            assert_eq!(tw.pop(SimTime::MAX), None);
        }
    }

    #[test]
    fn every_reception_lost_schedules_nothing() {
        for kind in KINDS {
            let mut tw = Twin::new(kind);
            tw.timer(t(5), 7);
            tw.fanout(t(5), 1, &[]);
            assert_eq!(tw.eng.len(), 1);
            assert_eq!(tw.eng.scheduled_total(), 1);
            assert_eq!(tw.pop(SimTime::MAX), timer(t(5), 7));
            assert_eq!(tw.pop(SimTime::MAX), None);
        }
    }

    #[test]
    fn timers_at_the_same_instant_keep_their_side_of_the_fanout() {
        for kind in KINDS {
            let mut tw = Twin::new(kind);
            tw.timer(t(5), 1);
            let f = tw.fanout(t(5), 9, &[2, 3, 4]);
            tw.timer(t(5), 5);
            assert_eq!(tw.eng.len(), 5);
            assert_eq!(tw.pop(SimTime::MAX), timer(t(5), 1));
            assert_eq!(tw.pop(SimTime::MAX), deliver(t(5), 2, 9, f));
            assert_eq!(tw.pop(SimTime::MAX), deliver(t(5), 3, 9, f));
            assert_eq!(tw.pop(SimTime::MAX), deliver(t(5), 4, 9, f));
            assert_eq!(tw.pop(SimTime::MAX), timer(t(5), 5));
            assert_eq!(tw.pop(SimTime::MAX), None);
        }
    }

    #[test]
    fn event_scheduled_mid_fanout_pops_after_its_remaining_receptions() {
        for kind in KINDS {
            let mut tw = Twin::new(kind);
            let f = tw.fanout(t(5), 9, &[2, 3, 4]);
            assert_eq!(tw.pop(SimTime::MAX), deliver(t(5), 2, 9, f));
            let now = tw.eng.now();
            tw.timer(now, 7);
            assert_eq!(tw.eng.len(), 3);
            assert_eq!(tw.pop(SimTime::MAX), deliver(t(5), 3, 9, f));
            assert_eq!(tw.pop(SimTime::MAX), deliver(t(5), 4, 9, f));
            assert_eq!(tw.pop(SimTime::MAX), timer(t(5), 7));
            assert_eq!(tw.pop(SimTime::MAX), None);
        }
    }

    #[test]
    fn horizon_between_two_fanouts() {
        for kind in KINDS {
            let mut tw = Twin::new(kind);
            let a = tw.fanout(t(5), 9, &[2, 3]);
            let b = tw.fanout(t(8), 8, &[4, 5]);
            assert_eq!(tw.pop(t(6)), deliver(t(5), 2, 9, a));
            assert_eq!(tw.pop(t(6)), deliver(t(5), 3, 9, a));
            assert_eq!(tw.pop(t(6)), None);
            assert_eq!(tw.eng.len(), 2);
            assert_eq!(tw.eng.now(), t(5));
            assert_eq!(tw.pop(t(8)), deliver(t(8), 4, 8, b));
            assert_eq!(tw.pop(t(8)), deliver(t(8), 5, 8, b));
            assert_eq!(tw.pop(SimTime::MAX), None);
        }
    }

    #[test]
    fn delivered_fanouts_recycle_their_receiver_lists() {
        let mut tw = Twin::new(SchedulerKind::Calendar);
        for at in [t(5), t(6)] {
            tw.fanout(at, 9, &[2, 3, 4]);
            tw.drain();
        }
        let receivers = &tw.eng.receivers;
        assert_eq!(receivers.len(), 1, "one list, reused");
        assert!(receivers[0].is_empty() && receivers[0].capacity() >= 3);
    }
}
