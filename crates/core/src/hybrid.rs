//! The Hybrid algorithm (Fig 4) — master/slave clustering for
//! heterogeneous networks.
//!
//! Every node carries a **qualifier** (battery, CPU — any capability
//! score). Peers start in the *initial* state and flood capture messages;
//! qualifier comparisons sort the population into **masters** (cluster
//! heads, which talk to each other with the Regular algorithm's
//! handshake, the legs of [`ConnTable`]) and **slaves** (which talk only
//! to their master). The rules, from the paper:
//!
//! * an initial peer that hears a capture from a *higher*-qualified peer
//!   tries to become its slave (three-way handshake, passing through the
//!   *reserved* state);
//! * a peer with a *bigger* qualifier in initial or master state answers a
//!   capture with a capture of its own, so the smaller peer learns whom to
//!   enroll with;
//! * a peer whose discovery radius cycles to `0` without finding anyone
//!   entitles itself a master;
//! * a master that has held no slaves for `MAXTIMERMASTER` reverts to
//!   initial (it "could, potentially, be another peer's slave");
//! * a slave that drifts more than `MAXDIST` hops from its master closes
//!   the link and looks for a new master.
//!
//! Qualifier ties are broken by node id, so any two nodes compare strictly.

use manet_des::{NodeId, SimTime};

use crate::api::{Reconfigurator, Role};
use crate::conn::{CloseReason, ConnKind, ConnStats, ConnTable};
use crate::cycle::ProbeCycle;
use crate::msg::{OvAction, OverlayMsg, ProbeKind};
use crate::params::OverlayParams;

/// The paper's four peer states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Initial,
    Reserved,
    Master,
    Slave,
}

/// Hybrid-algorithm state for one node.
#[derive(Clone, Debug)]
pub struct HybridAlgo {
    id: NodeId,
    params: OverlayParams,
    qualifier: u32,
    state: State,
    table: ConnTable,
    cycle: ProbeCycle,
    /// Reserved state: the master candidate we sent a SlaveRequest to.
    candidate: Option<NodeId>,
    /// Slave state: our master.
    master: Option<NodeId>,
    /// Master state: last instant we held at least one slave (drives the
    /// `MAXTIMERMASTER` reversion).
    last_had_slaves: SimTime,
    started: bool,
}

impl HybridAlgo {
    /// A node with the given capability `qualifier`.
    pub fn new(id: NodeId, params: OverlayParams, qualifier: u32) -> Self {
        params.validate();
        HybridAlgo {
            id,
            params,
            qualifier,
            state: State::Initial,
            table: ConnTable::new(),
            cycle: ProbeCycle::new(&params, SimTime::ZERO),
            candidate: None,
            master: None,
            last_had_slaves: SimTime::ZERO,
            started: false,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's capability qualifier.
    pub fn qualifier(&self) -> u32 {
        self.qualifier
    }

    /// Read access to the connection table.
    pub fn table(&self) -> &ConnTable {
        &self.table
    }

    /// The master this slave is attached to, if any.
    pub fn master_of(&self) -> Option<NodeId> {
        self.master
    }

    /// Strict capability order: `(qualifier, id)` lexicographic.
    fn outranks(&self, other_q: u32, other_id: NodeId) -> bool {
        (self.qualifier, self.id) > (other_q, other_id)
    }

    fn slave_count(&self) -> usize {
        self.table.count_kind(ConnKind::Slave)
    }

    fn master_link_count(&self) -> usize {
        self.table.count_kind(ConnKind::Master)
    }

    /// Room for another master-to-master link: only masters have any.
    fn master_room(&self) -> bool {
        self.state == State::Master && self.master_link_count() < self.params.max_conn
    }

    /// Enter `state`. Returning to `Initial` after a failure keeps the
    /// current backoff and waits one timer before the next capture flood
    /// (`cycle.rearm`) — an immediate re-flood would hit the same full
    /// master again and storm the network; [`start`](Reconfigurator::start)
    /// resets the cycle explicitly for the true join.
    fn transition(&mut self, state: State, now: SimTime) {
        self.state = state;
        self.candidate = None;
        if state != State::Slave {
            self.master = None;
        }
        match state {
            State::Master => {
                self.last_had_slaves = now;
                self.cycle.reset(now);
            }
            State::Initial => {
                // One timer of delay breaks re-enrollment storms; further
                // escalation comes from the cycle's own 0-slot doubling.
                self.cycle.rearm(now);
            }
            State::Reserved | State::Slave => {}
        }
    }

    fn probe_if_due(&mut self, now: SimTime, out: &mut Vec<OvAction>) {
        if !self.started {
            return;
        }
        match self.state {
            State::Initial => {
                // The raw cycle: the 0 slot is the become-master trigger.
                if let Some(slot) = self.cycle.poll_raw(now) {
                    if slot == 0 {
                        self.transition(State::Master, now);
                    } else {
                        out.push(OvAction::Flood {
                            ttl: slot,
                            msg: OverlayMsg::Capture {
                                qualifier: self.qualifier,
                            },
                        });
                    }
                }
            }
            State::Master => {
                // "Use the regular algorithm to contact other masters."
                if self.master_link_count() < self.params.max_conn {
                    if let Some(nhops) = self.cycle.poll(now) {
                        out.push(OvAction::Flood {
                            ttl: nhops,
                            msg: OverlayMsg::Probe {
                                kind: ProbeKind::Master,
                            },
                        });
                    }
                }
            }
            State::Reserved | State::Slave => {}
        }
    }
}

impl Reconfigurator for HybridAlgo {
    fn start(&mut self, now: SimTime) -> Vec<OvAction> {
        self.started = true;
        self.transition(State::Initial, now);
        self.cycle.reset(now); // the join probes immediately
        let mut out = Vec::new();
        self.probe_if_due(now, &mut out);
        out
    }

    fn tick(&mut self, now: SimTime) -> Vec<OvAction> {
        let mut outcome = self.table.tick(now, &self.params);
        let mut out = std::mem::take(&mut outcome.actions);

        for (peer, kind, _reason) in outcome.closed {
            match (self.state, kind) {
                // Our link to the master died: look for a new one.
                (State::Slave, ConnKind::Slave) if Some(peer) == self.master => {
                    self.transition(State::Initial, now);
                }
                // The slave handshake fell through.
                (State::Reserved, ConnKind::Slave) if Some(peer) == self.candidate => {
                    self.transition(State::Initial, now);
                }
                _ => {}
            }
        }

        if self.state == State::Master {
            if self.slave_count() > 0 {
                self.last_had_slaves = now;
            } else if now >= self.last_had_slaves + self.params.master_idle_timeout {
                // "This master could, potentially, be another peer slave."
                self.table.close_all(CloseReason::Reset);
                self.transition(State::Initial, now);
            }
        }

        self.probe_if_due(now, &mut out);
        out
    }

    fn on_flood(
        &mut self,
        now: SimTime,
        origin: NodeId,
        _hops: u8,
        msg: &OverlayMsg,
    ) -> Vec<OvAction> {
        if !self.started || origin == self.id {
            return Vec::new();
        }
        match msg {
            OverlayMsg::Capture { qualifier } => match self.state {
                State::Initial => {
                    if self.outranks(*qualifier, origin) {
                        // We are stronger: advertise ourselves back.
                        vec![OvAction::Send {
                            to: origin,
                            msg: OverlayMsg::CaptureReply {
                                qualifier: self.qualifier,
                            },
                        }]
                    } else {
                        // They are stronger: try to become their slave.
                        if self.table.open_out(origin, ConnKind::Slave, now) {
                            self.state = State::Reserved;
                            self.candidate = Some(origin);
                            vec![OvAction::Send {
                                to: origin,
                                msg: OverlayMsg::SlaveRequest,
                            }]
                        } else {
                            Vec::new()
                        }
                    }
                }
                State::Master => {
                    if self.outranks(*qualifier, origin)
                        && self.slave_count() < self.params.max_slaves
                    {
                        vec![OvAction::Send {
                            to: origin,
                            msg: OverlayMsg::CaptureReply {
                                qualifier: self.qualifier,
                            },
                        }]
                    } else {
                        Vec::new()
                    }
                }
                // "Peers in slave or reserved state don't communicate with
                // anyone else."
                State::Reserved | State::Slave => Vec::new(),
            },
            OverlayMsg::Probe {
                kind: ProbeKind::Master,
            } => {
                // Master-to-master discovery: only masters answer.
                let room = self.master_room();
                self.table
                    .answer_probe(origin, ProbeKind::Master, room, now)
            }
            _ => Vec::new(),
        }
    }

    fn on_msg(&mut self, now: SimTime, src: NodeId, hops: u8, msg: &OverlayMsg) -> Vec<OvAction> {
        if !self.started {
            return Vec::new();
        }
        match msg {
            OverlayMsg::CaptureReply { qualifier } => {
                // A stronger peer answered our capture flood.
                if self.state == State::Initial
                    && !self.outranks(*qualifier, src)
                    && self.table.open_out(src, ConnKind::Slave, now)
                {
                    self.state = State::Reserved;
                    self.candidate = Some(src);
                    vec![OvAction::Send {
                        to: src,
                        msg: OverlayMsg::SlaveRequest,
                    }]
                } else {
                    Vec::new()
                }
            }
            OverlayMsg::SlaveRequest => {
                let can_host = matches!(self.state, State::Initial | State::Master)
                    && self.slave_count() < self.params.max_slaves;
                if can_host && self.table.open_in(src, ConnKind::Slave, now) {
                    if self.state == State::Initial {
                        // First recruit turns us into a master.
                        self.transition(State::Master, now);
                    }
                    vec![OvAction::Send {
                        to: src,
                        msg: OverlayMsg::SlaveAccept { ok: true },
                    }]
                } else {
                    self.table.note_rejected();
                    vec![OvAction::Send {
                        to: src,
                        msg: OverlayMsg::SlaveAccept { ok: false },
                    }]
                }
            }
            OverlayMsg::SlaveAccept { ok } => {
                if self.state != State::Reserved || self.candidate != Some(src) {
                    return Vec::new();
                }
                if *ok && self.table.on_accepted(src, now, &self.params) {
                    self.state = State::Slave;
                    self.master = Some(src);
                    self.candidate = None;
                    vec![OvAction::Send {
                        to: src,
                        msg: OverlayMsg::SlaveConfirm,
                    }]
                } else {
                    self.table.close(src, CloseReason::Rejected);
                    self.transition(State::Initial, now);
                    Vec::new()
                }
            }
            OverlayMsg::SlaveConfirm => {
                if self.table.on_confirmed(src, now) {
                    self.last_had_slaves = now;
                }
                Vec::new()
            }
            OverlayMsg::Offer {
                kind: ProbeKind::Master,
            } => {
                let room = self.master_room();
                self.table.answer_offer(src, ProbeKind::Master, room, now)
            }
            OverlayMsg::Accept {
                kind: ProbeKind::Master,
            } => {
                let (reply, established) =
                    self.table
                        .answer_accept(src, ProbeKind::Master, now, &self.params);
                if established {
                    self.cycle.on_connected();
                }
                reply
            }
            OverlayMsg::Confirm => {
                if self.table.on_confirmed(src, now) {
                    self.cycle.on_connected();
                }
                Vec::new()
            }
            OverlayMsg::Reject => {
                if self.table.close(src, CloseReason::Rejected).is_some()
                    && self.state == State::Reserved
                    && self.candidate == Some(src)
                {
                    self.transition(State::Initial, now);
                }
                Vec::new()
            }
            OverlayMsg::Ping { token } => {
                self.table.on_ping(src, *token, now).into_iter().collect()
            }
            OverlayMsg::Pong { token } => {
                if let Some((peer, kind, _)) =
                    self.table.on_pong(src, *token, hops, now, &self.params)
                {
                    // "A slave too far away from its master should look for
                    // another master on its neighborhood."
                    if self.state == State::Slave
                        && kind == ConnKind::Slave
                        && Some(peer) == self.master
                    {
                        self.transition(State::Initial, now);
                    }
                }
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    fn on_unreachable(&mut self, now: SimTime, dst: NodeId) -> Vec<OvAction> {
        if let Some((peer, kind, _)) = self.table.on_unreachable(dst) {
            match (self.state, kind) {
                (State::Slave, ConnKind::Slave) if Some(peer) == self.master => {
                    self.transition(State::Initial, now);
                }
                (State::Reserved, ConnKind::Slave) if Some(peer) == self.candidate => {
                    self.transition(State::Initial, now);
                }
                _ => {}
            }
        }
        Vec::new()
    }

    fn neighbors(&self) -> Vec<NodeId> {
        self.table.neighbors()
    }

    fn next_wake(&self) -> SimTime {
        let mut wake = self.table.next_wake(&self.params);
        if self.started {
            match self.state {
                State::Initial => wake = wake.min(self.cycle.next_attempt()),
                State::Master => {
                    if self.master_link_count() < self.params.max_conn {
                        wake = wake.min(self.cycle.next_attempt());
                    }
                    let idle_deadline = self.last_had_slaves + self.params.master_idle_timeout;
                    wake = wake.min(idle_deadline);
                }
                State::Reserved | State::Slave => {}
            }
        }
        wake
    }

    fn conn_stats(&self) -> &ConnStats {
        self.table.stats()
    }

    fn role(&self) -> Role {
        match self.state {
            State::Initial => Role::Initial,
            State::Reserved => Role::Reserved,
            State::Master => Role::Master,
            State::Slave => Role::Slave,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> OverlayParams {
        OverlayParams::default()
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn capture(q: u32) -> OverlayMsg {
        OverlayMsg::Capture { qualifier: q }
    }

    /// Run the full slave-enrollment handshake between a weak and a strong
    /// node, returning them as (slave, master).
    fn enroll() -> (HybridAlgo, HybridAlgo) {
        let mut weak = HybridAlgo::new(NodeId(1), params(), 10);
        let mut strong = HybridAlgo::new(NodeId(2), params(), 90);
        weak.start(t(0));
        strong.start(t(0));
        // Weak hears strong's capture and requests enrollment.
        let req = weak.on_flood(t(1), NodeId(2), 2, &capture(90));
        assert_eq!(
            req,
            vec![OvAction::Send {
                to: NodeId(2),
                msg: OverlayMsg::SlaveRequest
            }]
        );
        assert_eq!(weak.role(), Role::Reserved);
        let acc = strong.on_msg(t(1), NodeId(1), 2, &OverlayMsg::SlaveRequest);
        assert_eq!(
            acc,
            vec![OvAction::Send {
                to: NodeId(1),
                msg: OverlayMsg::SlaveAccept { ok: true }
            }]
        );
        let conf = weak.on_msg(t(2), NodeId(2), 2, &OverlayMsg::SlaveAccept { ok: true });
        assert_eq!(
            conf,
            vec![OvAction::Send {
                to: NodeId(2),
                msg: OverlayMsg::SlaveConfirm
            }]
        );
        strong.on_msg(t(2), NodeId(1), 2, &OverlayMsg::SlaveConfirm);
        (weak, strong)
    }

    #[test]
    fn start_floods_capture_with_initial_radius() {
        let mut a = HybridAlgo::new(NodeId(0), params(), 50);
        let out = a.start(t(0));
        assert_eq!(
            out,
            vec![OvAction::Flood {
                ttl: 2,
                msg: capture(50)
            }]
        );
        assert_eq!(a.role(), Role::Initial);
    }

    #[test]
    fn enrollment_creates_master_and_slave() {
        let (slave, master) = enroll();
        assert_eq!(slave.role(), Role::Slave);
        assert_eq!(slave.master_of(), Some(NodeId(2)));
        assert_eq!(master.role(), Role::Master);
        assert_eq!(master.neighbors(), vec![NodeId(1)]);
        assert_eq!(slave.neighbors(), vec![NodeId(2)]);
        assert!(
            slave.table().get(NodeId(2)).unwrap().pinger,
            "the slave pings its master"
        );
    }

    #[test]
    fn stronger_initial_peer_replies_with_capture() {
        let mut strong = HybridAlgo::new(NodeId(2), params(), 90);
        strong.start(t(0));
        let out = strong.on_flood(t(1), NodeId(1), 2, &capture(10));
        assert_eq!(
            out,
            vec![OvAction::Send {
                to: NodeId(1),
                msg: OverlayMsg::CaptureReply { qualifier: 90 }
            }]
        );
        assert_eq!(strong.role(), Role::Initial, "reply does not change state");
    }

    #[test]
    fn capture_reply_triggers_enrollment() {
        let mut weak = HybridAlgo::new(NodeId(1), params(), 10);
        weak.start(t(0));
        let out = weak.on_msg(
            t(1),
            NodeId(2),
            2,
            &OverlayMsg::CaptureReply { qualifier: 90 },
        );
        assert_eq!(
            out,
            vec![OvAction::Send {
                to: NodeId(2),
                msg: OverlayMsg::SlaveRequest
            }]
        );
        assert_eq!(weak.role(), Role::Reserved);
    }

    #[test]
    fn qualifier_tie_broken_by_id() {
        // Equal qualifiers: the higher id wins.
        let mut lo = HybridAlgo::new(NodeId(1), params(), 50);
        lo.start(t(0));
        let out = lo.on_flood(t(1), NodeId(2), 2, &capture(50));
        assert_eq!(
            out,
            vec![OvAction::Send {
                to: NodeId(2),
                msg: OverlayMsg::SlaveRequest
            }]
        );
        let mut hi = HybridAlgo::new(NodeId(2), params(), 50);
        hi.start(t(0));
        let out2 = hi.on_flood(t(1), NodeId(1), 2, &capture(50));
        assert!(matches!(
            out2[0],
            OvAction::Send {
                msg: OverlayMsg::CaptureReply { .. },
                ..
            }
        ));
    }

    #[test]
    fn master_caps_slaves_at_maxnslaves() {
        let p = params();
        let mut m = HybridAlgo::new(NodeId(0), p, 99);
        m.start(t(0));
        for k in 1..=(p.max_slaves as u32) {
            let out = m.on_msg(t(1), NodeId(k), 2, &OverlayMsg::SlaveRequest);
            assert!(matches!(
                out[0],
                OvAction::Send {
                    msg: OverlayMsg::SlaveAccept { ok: true },
                    ..
                }
            ));
        }
        let out = m.on_msg(t(1), NodeId(50), 2, &OverlayMsg::SlaveRequest);
        assert!(matches!(
            out[0],
            OvAction::Send {
                msg: OverlayMsg::SlaveAccept { ok: false },
                ..
            }
        ));
    }

    #[test]
    fn refused_enrollment_returns_to_initial() {
        let mut weak = HybridAlgo::new(NodeId(1), params(), 10);
        weak.start(t(0));
        weak.on_flood(t(1), NodeId(2), 2, &capture(90));
        assert_eq!(weak.role(), Role::Reserved);
        weak.on_msg(t(2), NodeId(2), 2, &OverlayMsg::SlaveAccept { ok: false });
        assert_eq!(weak.role(), Role::Initial);
        assert!(weak.table().is_empty());
    }

    #[test]
    fn initial_cycle_exhaustion_makes_master() {
        let mut a = HybridAlgo::new(NodeId(0), params(), 50);
        a.start(t(0));
        // Walk the cycle 2,4,6,0: the 0 slot flips the state.
        let mut now = t(0);
        for _ in 0..3 {
            now = a.next_wake().max(now);
            let _ = a.tick(now);
        }
        assert_eq!(a.role(), Role::Master);
    }

    #[test]
    fn idle_master_reverts_to_initial() {
        let p = params();
        let mut a = HybridAlgo::new(NodeId(0), p, 50);
        a.start(t(0));
        let mut now = t(0);
        for _ in 0..3 {
            now = a.next_wake().max(now);
            let _ = a.tick(now);
        }
        assert_eq!(a.role(), Role::Master);
        // No slaves ever arrive: after MAXTIMERMASTER the node gives up.
        let _ = a.tick(now + p.master_idle_timeout);
        assert_eq!(a.role(), Role::Initial);
    }

    #[test]
    fn master_with_slaves_does_not_revert() {
        // The slave pings every ping_interval; as long as those arrive the
        // master must stay a master well past MAXTIMERMASTER.
        let p = params();
        let (_, mut master) = enroll();
        let horizon = t(2) + p.master_idle_timeout * 2;
        let mut now = t(2);
        while now < horizon {
            now += p.ping_interval / 2;
            let _ = master.tick(now);
            master.on_msg(now, NodeId(1), 2, &OverlayMsg::Ping { token: 0 });
            assert_eq!(master.role(), Role::Master, "reverted at {now}");
        }
    }

    #[test]
    fn slave_losing_master_restarts_search() {
        let p = params();
        let (mut slave, _) = enroll();
        // The slave pings; no pong ever arrives -> PongTimeout close.
        let mut now = t(2);
        for _ in 0..10 {
            now = slave.next_wake().max(now);
            let _ = slave.tick(now);
            if slave.role() == Role::Initial {
                break;
            }
        }
        assert_eq!(
            slave.role(),
            Role::Initial,
            "slave must re-enter the search"
        );
        assert!(slave.master_of().is_none());
        let _ = p;
    }

    #[test]
    fn slave_too_far_from_master_detaches() {
        let p = params();
        let (mut slave, _) = enroll();
        // First ping goes out at establish + ping_interval.
        let ping_at = t(2) + p.ping_interval;
        let out = slave.tick(ping_at);
        let token = out
            .iter()
            .find_map(|a| match a {
                OvAction::Send {
                    msg: OverlayMsg::Ping { token },
                    ..
                } => Some(*token),
                _ => None,
            })
            .expect("slave pings master");
        // The pong comes back from MAXDIST hops away: too far.
        slave.on_msg(ping_at, NodeId(2), p.max_dist, &OverlayMsg::Pong { token });
        assert_eq!(slave.role(), Role::Initial);
    }

    #[test]
    fn masters_interconnect_via_master_probes() {
        let p = params();
        let mut m1 = HybridAlgo::new(NodeId(1), p, 80);
        let mut m2 = HybridAlgo::new(NodeId(2), p, 85);
        // Force both into master state via cycle exhaustion.
        for m in [&mut m1, &mut m2] {
            m.start(t(0));
            let mut now = t(0);
            for _ in 0..3 {
                now = m.next_wake().max(now);
                let _ = m.tick(now);
            }
            assert_eq!(m.role(), Role::Master);
        }
        // m1 probes; m2 offers; full handshake.
        let offer = m2.on_flood(
            t(40),
            NodeId(1),
            3,
            &OverlayMsg::Probe {
                kind: ProbeKind::Master,
            },
        );
        assert!(matches!(
            offer[0],
            OvAction::Send {
                msg: OverlayMsg::Offer {
                    kind: ProbeKind::Master
                },
                ..
            }
        ));
        let acc = m1.on_msg(
            t(40),
            NodeId(2),
            3,
            &OverlayMsg::Offer {
                kind: ProbeKind::Master,
            },
        );
        assert!(matches!(
            acc[0],
            OvAction::Send {
                msg: OverlayMsg::Accept {
                    kind: ProbeKind::Master
                },
                ..
            }
        ));
        let conf = m2.on_msg(
            t(41),
            NodeId(1),
            3,
            &OverlayMsg::Accept {
                kind: ProbeKind::Master,
            },
        );
        assert!(matches!(
            conf[0],
            OvAction::Send {
                msg: OverlayMsg::Confirm,
                ..
            }
        ));
        m1.on_msg(t(41), NodeId(2), 3, &OverlayMsg::Confirm);
        assert_eq!(m1.neighbors(), vec![NodeId(2)]);
        assert_eq!(m2.neighbors(), vec![NodeId(1)]);
    }

    #[test]
    fn non_masters_ignore_master_probes() {
        let mut a = HybridAlgo::new(NodeId(0), params(), 50);
        a.start(t(0));
        let out = a.on_flood(
            t(1),
            NodeId(9),
            2,
            &OverlayMsg::Probe {
                kind: ProbeKind::Master,
            },
        );
        assert!(out.is_empty());
    }

    #[test]
    fn reserved_peers_ignore_captures() {
        let mut weak = HybridAlgo::new(NodeId(1), params(), 10);
        weak.start(t(0));
        weak.on_flood(t(1), NodeId(2), 2, &capture(90));
        assert_eq!(weak.role(), Role::Reserved);
        let out = weak.on_flood(t(1), NodeId(3), 2, &capture(95));
        assert!(
            out.is_empty(),
            "reserved peers only talk to their candidate"
        );
    }

    #[test]
    fn slave_enrollment_turns_initial_host_into_master() {
        let mut host = HybridAlgo::new(NodeId(5), params(), 70);
        host.start(t(0));
        assert_eq!(host.role(), Role::Initial);
        host.on_msg(t(1), NodeId(3), 2, &OverlayMsg::SlaveRequest);
        assert_eq!(host.role(), Role::Master, "first recruit promotes the host");
    }
}
