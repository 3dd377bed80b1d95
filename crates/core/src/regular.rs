//! The Regular algorithm (Fig 2), which the Random algorithm (Fig 3)
//! extends by one slot.
//!
//! Four improvements over Basic, quoting the paper:
//!
//! 1. the discovery radius grows *progressively* (`nhops` cycles
//!    `NHOPS_INITIAL .. MAXNHOPS` in steps of 2) — less flood traffic;
//! 2. connected neighbors must stay within `MAXDIST` ad-hoc hops, keeping
//!    keep-alive traffic local;
//! 3. connections are **symmetric** (three-way handshake) and only one side
//!    pings — half the keep-alive messages;
//! 4. the retry timer doubles after every fruitless sweep (up to
//!    `MAXTIMER`) and resets when a connection is established.
//!
//! The Random algorithm establishes its first `MAXNCONN - 1` connections
//! exactly as Regular does, so a Random node is this machine built
//! [`with_random_slot`](RegularAlgo::with_random_slot): the last slot holds
//! the long-range connection of [`crate::random`]. A plain Regular node
//! ignores the random slot's probes, offers and accepts. The handshake legs
//! themselves are [`ConnTable`]'s, shared with the Hybrid algorithm's
//! masters.

use manet_des::{NodeId, Rng, SimTime};

use crate::api::{Reconfigurator, Role};
use crate::conn::{ConnKind, ConnStats, ConnTable};
use crate::cycle::ProbeCycle;
use crate::msg::{OvAction, OverlayMsg, ProbeKind};
use crate::params::OverlayParams;
use crate::random::RandomSlot;

/// Regular-algorithm state for one node, plus the random slot when the
/// node runs the Random algorithm.
#[derive(Clone, Debug)]
pub struct RegularAlgo {
    id: NodeId,
    params: OverlayParams,
    table: ConnTable,
    cycle: ProbeCycle,
    /// The Random algorithm's long-range slot; `None` runs plain Regular.
    /// Boxed, so a Regular node carries one pointer for it.
    random: Option<Box<RandomSlot>>,
    started: bool,
}

impl RegularAlgo {
    /// A node running the Regular algorithm.
    pub fn new(id: NodeId, params: OverlayParams) -> Self {
        params.validate();
        RegularAlgo {
            id,
            params,
            table: ConnTable::new(),
            cycle: ProbeCycle::new(&params, SimTime::ZERO),
            random: None,
            started: false,
        }
    }

    /// A node running the Random algorithm: Regular plus the random slot.
    /// `rng` draws the random probes' TTLs.
    pub fn with_random_slot(id: NodeId, params: OverlayParams, rng: Rng) -> Self {
        let mut algo = Self::new(id, params);
        assert!(
            params.max_conn >= 2,
            "the Random algorithm needs at least one regular and one random slot"
        );
        algo.random = Some(Box::new(RandomSlot::new(rng)));
        algo
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Read access to the connection table.
    pub fn table(&self) -> &ConnTable {
        &self.table
    }

    /// Current backoff (tests/diagnostics).
    pub fn cycle(&self) -> &ProbeCycle {
        &self.cycle
    }

    /// Room for another regular connection: a free slot, and under the
    /// Random algorithm fewer than `MAXNCONN - 1` regular connections.
    fn regular_demand(&self) -> bool {
        self.table.len() < self.params.max_conn
            && (self.random.is_none()
                || self.table.count_kind(ConnKind::Regular) < self.params.max_conn - 1)
    }

    /// The random slot wants a random probe.
    pub(crate) fn random_demand(&self) -> bool {
        self.random
            .as_ref()
            .is_some_and(|slot| slot.wants(&self.table, &self.params))
    }

    /// Whether this node takes part in handshakes of `kind`: Regular
    /// always, Random only with the random slot.
    fn owns(&self, kind: ProbeKind) -> bool {
        kind == ProbeKind::Regular || (kind == ProbeKind::Random && self.random.is_some())
    }

    fn probe_if_due(&mut self, now: SimTime, out: &mut Vec<OvAction>) {
        if !self.started || !(self.regular_demand() || self.random_demand()) {
            return;
        }
        if let Some(nhops) = self.cycle.poll(now) {
            if self.regular_demand() {
                out.push(OvAction::Flood {
                    ttl: nhops,
                    msg: OverlayMsg::Probe {
                        kind: ProbeKind::Regular,
                    },
                });
            }
            if let Some(slot) = self
                .random
                .as_mut()
                .filter(|slot| slot.wants(&self.table, &self.params))
            {
                out.push(slot.probe(nhops, now, &self.params));
            }
        }
    }
}

impl Reconfigurator for RegularAlgo {
    fn start(&mut self, now: SimTime) -> Vec<OvAction> {
        self.started = true;
        self.cycle.reset(now);
        let mut out = Vec::new();
        self.probe_if_due(now, &mut out);
        out
    }

    fn tick(&mut self, now: SimTime) -> Vec<OvAction> {
        let mut out = self.table.tick(now, &self.params).actions;
        if let Some(slot) = &mut self.random {
            slot.resolve_if_due(now, &mut self.table, &self.params, &mut out);
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
        match msg {
            // "A node willing to connect starts a three-way handshake with
            // the sender" (a random probe's seeker keeps only the farthest).
            OverlayMsg::Probe { kind } if self.started && origin != self.id && self.owns(*kind) => {
                let room = self.table.len() < self.params.max_conn;
                self.table.answer_probe(origin, *kind, room, now)
            }
            _ => Vec::new(),
        }
    }

    fn on_msg(&mut self, now: SimTime, src: NodeId, hops: u8, msg: &OverlayMsg) -> Vec<OvAction> {
        match msg {
            OverlayMsg::Offer {
                kind: ProbeKind::Regular,
            } => {
                let room = self.started && self.regular_demand();
                self.table.answer_offer(src, ProbeKind::Regular, room, now)
            }
            OverlayMsg::Offer {
                kind: ProbeKind::Random,
            } => match &mut self.random {
                Some(slot) => slot.on_offer(src, hops, &mut self.table, now),
                None => Vec::new(),
            },
            OverlayMsg::Accept { kind } if self.owns(*kind) => {
                let (reply, established) = self.table.answer_accept(src, *kind, now, &self.params);
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
                self.table.close(src, crate::conn::CloseReason::Rejected);
                Vec::new()
            }
            OverlayMsg::Ping { token } => {
                self.table.on_ping(src, *token, now).into_iter().collect()
            }
            OverlayMsg::Pong { token } => {
                self.table.on_pong(src, *token, hops, now, &self.params);
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    fn on_unreachable(&mut self, _now: SimTime, dst: NodeId) -> Vec<OvAction> {
        self.table.on_unreachable(dst);
        Vec::new()
    }

    fn neighbors(&self) -> Vec<NodeId> {
        self.table.neighbors()
    }

    fn next_wake(&self) -> SimTime {
        let mut wake = self.table.next_wake(&self.params);
        if let Some(deadline) = self.random.as_deref().and_then(RandomSlot::deadline) {
            wake = wake.min(deadline);
        }
        if self.started && (self.regular_demand() || self.random_demand()) {
            wake = wake.min(self.cycle.next_attempt());
        }
        wake
    }

    fn conn_stats(&self) -> &ConnStats {
        self.table.stats()
    }

    fn role(&self) -> Role {
        Role::Servent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::ConnState;

    fn params() -> OverlayParams {
        OverlayParams::default()
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn probe() -> OverlayMsg {
        OverlayMsg::Probe {
            kind: ProbeKind::Regular,
        }
    }

    fn offer() -> OverlayMsg {
        OverlayMsg::Offer {
            kind: ProbeKind::Regular,
        }
    }

    fn accept() -> OverlayMsg {
        OverlayMsg::Accept {
            kind: ProbeKind::Regular,
        }
    }

    #[test]
    fn start_probes_with_initial_radius() {
        let mut a = RegularAlgo::new(NodeId(0), params());
        let out = a.start(t(0));
        assert_eq!(
            out,
            vec![OvAction::Flood {
                ttl: 2,
                msg: probe()
            }]
        );
    }

    #[test]
    fn radius_grows_across_attempts() {
        let p = params();
        let mut a = RegularAlgo::new(NodeId(0), p);
        a.start(t(0));
        let mut radii = vec![2u8];
        for _ in 0..2 {
            let now = a.next_wake();
            for act in a.tick(now) {
                if let OvAction::Flood { ttl, .. } = act {
                    radii.push(ttl);
                }
            }
        }
        assert_eq!(radii, vec![2, 4, 6]);
    }

    #[test]
    fn full_three_way_handshake_responder_side() {
        // We are B: a probe arrives from A; we offer, A accepts, we confirm.
        let p = params();
        let mut b = RegularAlgo::new(NodeId(1), p);
        b.start(t(0));
        let out = b.on_flood(t(1), NodeId(0), 2, &probe());
        assert_eq!(
            out,
            vec![OvAction::Send {
                to: NodeId(0),
                msg: offer()
            }]
        );
        assert_eq!(
            b.table().get(NodeId(0)).unwrap().state,
            ConnState::PendingOut
        );
        let out2 = b.on_msg(t(2), NodeId(0), 2, &accept());
        assert_eq!(
            out2,
            vec![OvAction::Send {
                to: NodeId(0),
                msg: OverlayMsg::Confirm
            }]
        );
        assert_eq!(b.neighbors(), vec![NodeId(0)]);
        assert!(b.table().get(NodeId(0)).unwrap().pinger, "responder pings");
    }

    #[test]
    fn full_three_way_handshake_seeker_side() {
        // We are A: we probed; an offer arrives from B; we accept; B confirms.
        let mut a = RegularAlgo::new(NodeId(0), params());
        a.start(t(0));
        let out = a.on_msg(t(1), NodeId(1), 2, &offer());
        assert_eq!(
            out,
            vec![OvAction::Send {
                to: NodeId(1),
                msg: accept()
            }]
        );
        assert!(a.neighbors().is_empty(), "not yet confirmed");
        a.on_msg(t(2), NodeId(1), 2, &OverlayMsg::Confirm);
        assert_eq!(a.neighbors(), vec![NodeId(1)]);
        assert!(
            !a.table().get(NodeId(1)).unwrap().pinger,
            "seeker is passive"
        );
    }

    #[test]
    fn seeker_rejects_offers_beyond_capacity() {
        let p = params();
        let mut a = RegularAlgo::new(NodeId(0), p);
        a.start(t(0));
        for k in 1..=p.max_conn as u32 {
            a.on_msg(t(1), NodeId(k), 2, &offer());
        }
        let out = a.on_msg(t(1), NodeId(99), 2, &offer());
        assert_eq!(
            out,
            vec![OvAction::Send {
                to: NodeId(99),
                msg: OverlayMsg::Reject
            }]
        );
        assert_eq!(a.conn_stats().rejected, 1);
    }

    #[test]
    fn responder_ignores_probe_when_full() {
        let p = params();
        let mut b = RegularAlgo::new(NodeId(1), p);
        b.start(t(0));
        for k in 2..=(p.max_conn as u32 + 1) {
            b.on_flood(t(1), NodeId(k), 2, &probe());
        }
        let out = b.on_flood(t(1), NodeId(99), 2, &probe());
        assert!(out.is_empty(), "no offer when at capacity");
    }

    #[test]
    fn reject_clears_pending_state() {
        let mut b = RegularAlgo::new(NodeId(1), params());
        b.start(t(0));
        b.on_flood(t(1), NodeId(0), 2, &probe());
        assert_eq!(b.table().len(), 1);
        b.on_msg(t(2), NodeId(0), 2, &OverlayMsg::Reject);
        assert_eq!(b.table().len(), 0);
    }

    #[test]
    fn stale_accept_earns_reject() {
        let p = params();
        let mut b = RegularAlgo::new(NodeId(1), p);
        b.start(t(0));
        b.on_flood(t(1), NodeId(0), 2, &probe());
        // Let the pending handshake expire.
        let _ = b.tick(t(1) + p.handshake_timeout);
        let out = b.on_msg(t(30), NodeId(0), 2, &accept());
        assert_eq!(
            out,
            vec![OvAction::Send {
                to: NodeId(0),
                msg: OverlayMsg::Reject
            }]
        );
    }

    #[test]
    fn connection_resets_backoff_timer() {
        let p = params();
        let mut a = RegularAlgo::new(NodeId(0), p);
        a.start(t(0));
        // Burn through a couple of sweeps to inflate the timer.
        let mut now = t(0);
        for _ in 0..8 {
            now = a.next_wake().max(now);
            let _ = a.tick(now);
        }
        assert!(a.cycle().timer() > p.timer_initial);
        // Handshake completes: timer resets.
        a.on_msg(now, NodeId(7), 2, &offer());
        a.on_msg(now, NodeId(7), 2, &OverlayMsg::Confirm);
        assert_eq!(a.cycle().timer(), p.timer_initial);
    }

    #[test]
    fn no_probe_when_capacity_reached_by_pendings() {
        let p = params();
        let mut a = RegularAlgo::new(NodeId(0), p);
        a.start(t(0));
        for k in 1..=p.max_conn as u32 {
            a.on_flood(t(0), NodeId(k), 2, &probe()); // we offered: PendingOut x3
        }
        // The cycle would be due at t(5), but the pendings hold all slots
        // until the handshake timeout (6 s) frees them.
        let out = a.tick(t(5));
        assert!(
            out.iter().all(|x| !matches!(x, OvAction::Flood { .. })),
            "pending handshakes reserve capacity"
        );
        // Once the handshakes expire, probing resumes.
        let out2 = a.tick(t(0) + p.handshake_timeout + p.timer_initial);
        assert!(out2.iter().any(|x| matches!(x, OvAction::Flood { .. })));
    }

    #[test]
    fn unreachable_peer_is_dropped() {
        let mut a = RegularAlgo::new(NodeId(0), params());
        a.start(t(0));
        a.on_msg(t(1), NodeId(1), 2, &offer());
        a.on_msg(t(2), NodeId(1), 2, &OverlayMsg::Confirm);
        assert_eq!(a.neighbors(), vec![NodeId(1)]);
        a.on_unreachable(t(3), NodeId(1));
        assert!(a.neighbors().is_empty());
    }

    #[test]
    fn pings_from_strangers_are_not_answered() {
        let mut a = RegularAlgo::new(NodeId(0), params());
        a.start(t(0));
        let out = a.on_msg(t(1), NodeId(9), 2, &OverlayMsg::Ping { token: 4 });
        assert!(
            out.is_empty(),
            "symmetric algorithms stay silent to strangers"
        );
    }
}
