//! The simulation engine: virtual clock, future-event list, and typed
//! event routing.
//!
//! [`Engine`] is deliberately slim — it owns the future-event list, the
//! processed-event counter and the peak-depth gauge, and nothing else.
//! Everything that *reacts* to events lives either in a node's protocol
//! machine (hosted through `crate::stack`) or in one of the world's fixed
//! processes (`crate::subsystems`).
//!
//! Every event is one [`Event`] variant, and `World::dispatch` calls its
//! handler directly: node traffic (frame deliveries, combined node timers,
//! overlay joins) goes to the node's machine, and each process event
//! (mobility, churn, crashes, fault windows, sampling, the query flooder)
//! to its process's handler.
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
use p2p_stack::AppMsg;

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
    /// A node's mobility epoch ends, or its position is due a refresh.
    Move(NodeId),
    /// A member's churn up-dwell ends: it switches off.
    ChurnDown(NodeId),
    /// A member's churn down-dwell ends: it switches back on.
    ChurnUp(NodeId),
    /// A scripted crash of the fault plan.
    Crash(NodeId),
    /// A crashed node reboots.
    Restart(NodeId),
    /// The loss-burst process changes state.
    Burst,
    /// A link-flap window opens or closes.
    Flap,
    /// A delay-spike window opens or closes.
    Jitter,
    /// A small-world snapshot of the overlay is due.
    SmallWorld,
    /// A query flooder's next burst is due.
    Flood(NodeId),
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
