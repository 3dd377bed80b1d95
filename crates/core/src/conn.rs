//! The connection (reference) table and its maintenance engine.
//!
//! "Connections" in the paper are *references*: knowledge of a reachable
//! peer's address, checked periodically with ping/pong. This module owns
//! that state for one node and implements the maintenance pseudo-code of
//! Figs 1 and 2:
//!
//! * the **pinger** side sends a ping, waits for the pong, closes on
//!   timeout, and closes when the pong reveals the peer is too far
//!   (`MAXDIST`, or `2 * MAXDIST` for random connections);
//! * the **passive** side answers pings with pongs and closes when pings
//!   stop arriving.
//!
//! Symmetric connections (Regular/Random/Hybrid) have exactly one pinger —
//! the paper's "number of pings and pongs was cut half" improvement. Basic
//! connections are asymmetric: each reference owner pings independently.
//!
//! Symmetric connections open with the three-way handshake Probe → Offer →
//! Accept → Confirm. Its three answering legs are written once here
//! (`answer_probe`, `answer_offer`, `answer_accept`); the Regular and Random
//! algorithms and the Hybrid algorithm's master tier all call them, and
//! each caller decides only whether it has room.

use std::collections::BTreeMap;

use manet_des::{NodeId, SimTime};

use crate::msg::{OvAction, OverlayMsg, ProbeKind};
use crate::params::OverlayParams;

/// What role a connection plays (and which distance limit applies).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnKind {
    /// Asymmetric Basic-algorithm reference (no distance limit).
    Basic,
    /// Symmetric near connection (Regular algorithm, and the Random
    /// algorithm's first `MAXNCONN - 1`).
    Regular,
    /// The Random algorithm's long-range connection (limit `2 * MAXDIST`).
    Random,
    /// Hybrid: master ↔ master link.
    Master,
    /// Hybrid: this node's link to its master (slave side) or to one of its
    /// slaves (master side).
    Slave,
}

impl ConnKind {
    /// The kind of slot a handshake for `probe` fills.
    fn of(probe: ProbeKind) -> ConnKind {
        match probe {
            ProbeKind::Basic => ConnKind::Basic,
            ProbeKind::Regular => ConnKind::Regular,
            ProbeKind::Random => ConnKind::Random,
            ProbeKind::Master => ConnKind::Master,
        }
    }
}

/// Handshake progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnState {
    /// We sent the opening leg (Offer / SlaveRequest) and await acceptance.
    PendingOut,
    /// We accepted (sent Accept / SlaveAccept) and await the confirmation.
    PendingIn,
    /// Live connection.
    Established,
}

/// Why a connection was closed — drives algorithm reactions and metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CloseReason {
    /// The pong did not arrive in time.
    PongTimeout,
    /// The pong arrived but the peer is beyond the distance limit.
    TooFar,
    /// Passive side: pings stopped arriving.
    PingSilence,
    /// The handshake never completed.
    HandshakeTimeout,
    /// The routing layer declared the peer unreachable.
    Unreachable,
    /// The peer rejected or explicitly ended the connection.
    Rejected,
    /// The algorithm reset its own state (e.g. a hybrid master reverting
    /// to initial).
    Reset,
}

/// One connection's state.
#[derive(Clone, Debug)]
pub struct Conn {
    /// The role of this connection.
    pub kind: ConnKind,
    /// Handshake progress.
    pub state: ConnState,
    /// True if this side sends the pings.
    pub pinger: bool,
    /// When the connection entered its current state.
    pub since: SimTime,
    /// Pinger side: when the next ping is due.
    next_ping_at: SimTime,
    /// Pinger side: outstanding ping `(token, deadline)`.
    awaiting_pong: Option<(u32, SimTime)>,
    /// Passive side: last time we heard a ping (or established).
    last_heard: SimTime,
    /// Most recent measured distance in ad-hoc hops (from pong delivery).
    pub last_distance: Option<u8>,
}

/// Counters for one node's connection lifecycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Connections that reached the established state.
    pub established: u64,
    /// Closes by reason, indexed with [`ConnStats::reason_index`].
    pub closed: [u64; 7],
    /// Handshake legs we refused (capacity, wrong state...).
    pub rejected: u64,
}

impl ConnStats {
    /// Index into [`ConnStats::closed`] for a reason.
    pub fn reason_index(reason: CloseReason) -> usize {
        match reason {
            CloseReason::PongTimeout => 0,
            CloseReason::TooFar => 1,
            CloseReason::PingSilence => 2,
            CloseReason::HandshakeTimeout => 3,
            CloseReason::Unreachable => 4,
            CloseReason::Rejected => 5,
            CloseReason::Reset => 6,
        }
    }

    /// Total closes, any reason.
    pub fn closed_total(&self) -> u64 {
        self.closed.iter().sum()
    }
}

/// Outcome of a maintenance tick.
#[derive(Clone, Debug, Default)]
pub struct TickOutcome {
    /// Messages to transmit.
    pub actions: Vec<OvAction>,
    /// Connections that were closed, with their kind and reason.
    pub closed: Vec<(NodeId, ConnKind, CloseReason)>,
}

/// The per-node table of overlay references.
#[derive(Clone, Debug)]
pub struct ConnTable {
    conns: BTreeMap<NodeId, Conn>,
    next_token: u32,
    stats: ConnStats,
}

impl Default for ConnTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ConnTable {
    /// An empty table.
    pub fn new() -> Self {
        ConnTable {
            conns: BTreeMap::new(),
            next_token: 0,
            stats: ConnStats::default(),
        }
    }

    /// Lifecycle counters.
    pub fn stats(&self) -> &ConnStats {
        &self.stats
    }

    /// All slots in use (pending handshakes reserve capacity too).
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// True when no connection (in any state) exists.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// Number of established connections.
    pub fn established_count(&self) -> usize {
        self.conns
            .values()
            .filter(|c| c.state == ConnState::Established)
            .count()
    }

    /// Slots in use with the given kind.
    pub fn count_kind(&self, kind: ConnKind) -> usize {
        self.conns.values().filter(|c| c.kind == kind).count()
    }

    /// The connection to `peer`, if any.
    pub fn get(&self, peer: NodeId) -> Option<&Conn> {
        self.conns.get(&peer)
    }

    /// Established peers, ascending id (deterministic iteration).
    pub fn neighbors(&self) -> Vec<NodeId> {
        self.conns
            .iter()
            .filter(|(_, c)| c.state == ConnState::Established)
            .map(|(id, _)| *id)
            .collect()
    }

    // ------------------------------------------------------------------
    // Handshake transitions
    // ------------------------------------------------------------------

    /// Record that we sent the opening leg to `peer` (we will be the
    /// pinger). No-op returning false if a connection already exists.
    pub fn open_out(&mut self, peer: NodeId, kind: ConnKind, now: SimTime) -> bool {
        if self.conns.contains_key(&peer) {
            return false;
        }
        self.conns.insert(
            peer,
            Conn {
                kind,
                state: ConnState::PendingOut,
                pinger: true,
                since: now,
                next_ping_at: SimTime::MAX,
                awaiting_pong: None,
                last_heard: now,
                last_distance: None,
            },
        );
        true
    }

    /// Record that we accepted `peer`'s opening leg (we will be passive).
    pub fn open_in(&mut self, peer: NodeId, kind: ConnKind, now: SimTime) -> bool {
        if self.conns.contains_key(&peer) {
            return false;
        }
        self.conns.insert(
            peer,
            Conn {
                kind,
                state: ConnState::PendingIn,
                pinger: false,
                since: now,
                next_ping_at: SimTime::MAX,
                awaiting_pong: None,
                last_heard: now,
                last_distance: None,
            },
        );
        true
    }

    /// Basic algorithm: adopt a reference immediately (no handshake); we
    /// ping it. Returns false if the peer is already present.
    pub fn adopt_basic(&mut self, peer: NodeId, now: SimTime, params: &OverlayParams) -> bool {
        if self.conns.contains_key(&peer) {
            return false;
        }
        self.conns.insert(
            peer,
            Conn {
                kind: ConnKind::Basic,
                state: ConnState::Established,
                pinger: true,
                since: now,
                next_ping_at: now + params.ping_interval,
                awaiting_pong: None,
                last_heard: now,
                last_distance: None,
            },
        );
        self.stats.established += 1;
        true
    }

    /// Our opening leg was accepted: PendingOut → Established; start pinging.
    pub fn on_accepted(&mut self, peer: NodeId, now: SimTime, params: &OverlayParams) -> bool {
        match self.conns.get_mut(&peer) {
            Some(c) if c.state == ConnState::PendingOut => {
                c.state = ConnState::Established;
                c.since = now;
                c.next_ping_at = now + params.ping_interval;
                self.stats.established += 1;
                true
            }
            _ => false,
        }
    }

    /// The confirmation arrived: PendingIn → Established (passive side).
    pub fn on_confirmed(&mut self, peer: NodeId, now: SimTime) -> bool {
        match self.conns.get_mut(&peer) {
            Some(c) if c.state == ConnState::PendingIn => {
                c.state = ConnState::Established;
                c.since = now;
                c.last_heard = now;
                self.stats.established += 1;
                true
            }
            _ => false,
        }
    }

    /// Note a rejection we issued (bookkeeping only).
    pub fn note_rejected(&mut self) {
        self.stats.rejected += 1;
    }

    /// Close the connection to `peer`, if any, recording the reason.
    pub fn close(&mut self, peer: NodeId, reason: CloseReason) -> Option<Conn> {
        let conn = self.conns.remove(&peer)?;
        self.stats.closed[ConnStats::reason_index(reason)] += 1;
        Some(conn)
    }

    /// Drop every connection (hybrid state resets), recording `reason`.
    pub fn close_all(&mut self, reason: CloseReason) {
        self.stats.closed[ConnStats::reason_index(reason)] += self.conns.len() as u64;
        self.conns.clear();
    }

    // ------------------------------------------------------------------
    // The symmetric three-way handshake (Figs 2-4)
    // ------------------------------------------------------------------

    /// Leg 1, responder: answer `seeker`'s probe with an Offer when `room`
    /// allows and no connection to it exists, holding a pending slot of the
    /// probe's kind (this side will ping). Silence otherwise.
    pub(crate) fn answer_probe(
        &mut self,
        seeker: NodeId,
        kind: ProbeKind,
        room: bool,
        now: SimTime,
    ) -> Vec<OvAction> {
        if room && self.open_out(seeker, ConnKind::of(kind), now) {
            vec![OvAction::Send {
                to: seeker,
                msg: OverlayMsg::Offer { kind },
            }]
        } else {
            Vec::new()
        }
    }

    /// Leg 2, seeker: accept `responder`'s Offer when `room` allows and no
    /// connection to it exists, holding a pending slot (this side stays
    /// passive). Otherwise count the refusal and reject.
    pub(crate) fn answer_offer(
        &mut self,
        responder: NodeId,
        kind: ProbeKind,
        room: bool,
        now: SimTime,
    ) -> Vec<OvAction> {
        let msg = if room && self.open_in(responder, ConnKind::of(kind), now) {
            OverlayMsg::Accept { kind }
        } else {
            self.note_rejected();
            OverlayMsg::Reject
        };
        vec![OvAction::Send { to: responder, msg }]
    }

    /// Leg 3, responder: `seeker` accepted our Offer. Establish and confirm
    /// if our pending slot to it has the Accept's kind; otherwise (timed
    /// out, replaced, another kind) reject, so the peer cleans up at once.
    /// The flag tells whether a connection was established.
    pub(crate) fn answer_accept(
        &mut self,
        seeker: NodeId,
        kind: ProbeKind,
        now: SimTime,
        params: &OverlayParams,
    ) -> (Vec<OvAction>, bool) {
        let expected = self
            .get(seeker)
            .is_some_and(|c| c.kind == ConnKind::of(kind));
        let established = expected && self.on_accepted(seeker, now, params);
        let msg = if established {
            OverlayMsg::Confirm
        } else {
            OverlayMsg::Reject
        };
        (vec![OvAction::Send { to: seeker, msg }], established)
    }

    // ------------------------------------------------------------------
    // Keep-alive protocol
    // ------------------------------------------------------------------

    /// A ping arrived from `peer`. Answers with a pong when a connection to
    /// the pinger exists (and refreshes its liveness clock); returns `None`
    /// for strangers, so a peer that dropped the connection goes silent and
    /// the pinger's pong-timeout cleans up its side too. The Basic
    /// algorithm, whose references are one-sided by design, ponges
    /// strangers itself (see [`stranger_pong`]).
    pub fn on_ping(&mut self, peer: NodeId, token: u32, now: SimTime) -> Option<OvAction> {
        let c = self.conns.get_mut(&peer)?;
        c.last_heard = now;
        Some(OvAction::Send {
            to: peer,
            msg: OverlayMsg::Pong { token },
        })
    }

    /// A pong arrived from `peer` having travelled `hops` ad-hoc hops.
    ///
    /// Applies the paper's distance rule: keep the connection only while the
    /// peer is nearer than the kind's limit. Returns the close record if the
    /// connection was dropped.
    pub fn on_pong(
        &mut self,
        peer: NodeId,
        token: u32,
        hops: u8,
        now: SimTime,
        params: &OverlayParams,
    ) -> Option<(NodeId, ConnKind, CloseReason)> {
        let c = self.conns.get_mut(&peer)?;
        match c.awaiting_pong {
            Some((expected, _)) if expected == token => {
                c.awaiting_pong = None;
                c.last_distance = Some(hops);
                c.last_heard = now;
                if let Some(limit) = params.dist_limit(c.kind) {
                    if hops >= limit {
                        let kind = c.kind;
                        self.close(peer, CloseReason::TooFar);
                        return Some((peer, kind, CloseReason::TooFar));
                    }
                }
                c.next_ping_at = now + params.ping_interval;
                None
            }
            _ => None, // stale or unsolicited pong
        }
    }

    /// Routing declared `peer` unreachable: close if we track it.
    pub fn on_unreachable(&mut self, peer: NodeId) -> Option<(NodeId, ConnKind, CloseReason)> {
        let kind = self.conns.get(&peer)?.kind;
        self.close(peer, CloseReason::Unreachable);
        Some((peer, kind, CloseReason::Unreachable))
    }

    /// Run all per-connection timers: due pings, pong timeouts, passive
    /// ping-silence, and handshake expiry.
    pub fn tick(&mut self, now: SimTime, params: &OverlayParams) -> TickOutcome {
        let mut out = TickOutcome::default();
        let passive_grace = params.ping_interval + params.pong_timeout * 2;
        let mut to_close: Vec<(NodeId, ConnKind, CloseReason)> = Vec::new();
        let mut next_token = self.next_token;

        for (&peer, c) in self.conns.iter_mut() {
            match c.state {
                ConnState::PendingOut | ConnState::PendingIn => {
                    if now >= c.since + params.handshake_timeout {
                        to_close.push((peer, c.kind, CloseReason::HandshakeTimeout));
                    }
                }
                ConnState::Established => {
                    if c.pinger {
                        if let Some((_, deadline)) = c.awaiting_pong {
                            if now >= deadline {
                                to_close.push((peer, c.kind, CloseReason::PongTimeout));
                                continue;
                            }
                        } else if now >= c.next_ping_at {
                            let token = next_token;
                            next_token = next_token.wrapping_add(1);
                            c.awaiting_pong = Some((token, now + params.pong_timeout));
                            out.actions.push(OvAction::Send {
                                to: peer,
                                msg: OverlayMsg::Ping { token },
                            });
                        }
                    } else if now >= c.last_heard + passive_grace {
                        to_close.push((peer, c.kind, CloseReason::PingSilence));
                    }
                }
            }
        }
        self.next_token = next_token;
        for (peer, kind, reason) in to_close {
            self.close(peer, reason);
            out.closed.push((peer, kind, reason));
        }
        out
    }

    /// The earliest instant any timer in this table fires.
    pub fn next_wake(&self, params: &OverlayParams) -> SimTime {
        let passive_grace = params.ping_interval + params.pong_timeout * 2;
        let mut wake = SimTime::MAX;
        for c in self.conns.values() {
            let t = match c.state {
                ConnState::PendingOut | ConnState::PendingIn => c.since + params.handshake_timeout,
                ConnState::Established => {
                    if c.pinger {
                        match c.awaiting_pong {
                            Some((_, deadline)) => deadline,
                            None => c.next_ping_at,
                        }
                    } else {
                        c.last_heard + passive_grace
                    }
                }
            };
            wake = wake.min(t);
        }
        wake
    }
}

/// The unconditional pong the Basic algorithm sends to any pinger, matching
/// its stateless responder side ("whenever a node receives a ping it answers
/// with a pong", Fig 1).
pub fn stranger_pong(peer: NodeId, token: u32) -> OvAction {
    OvAction::Send {
        to: peer,
        msg: OverlayMsg::Pong { token },
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

    fn establish_symmetric(table: &mut ConnTable, peer: NodeId, kind: ConnKind, now: SimTime) {
        assert!(table.open_out(peer, kind, now));
        assert!(table.on_accepted(peer, now, &params()));
    }

    #[test]
    fn handshake_out_path() {
        let p = params();
        let mut tb = ConnTable::new();
        assert!(tb.open_out(NodeId(2), ConnKind::Regular, t(0)));
        assert!(!tb.open_out(NodeId(2), ConnKind::Regular, t(0)), "no dup");
        assert_eq!(tb.established_count(), 0);
        assert_eq!(tb.len(), 1, "pending reserves a slot");
        assert!(tb.on_accepted(NodeId(2), t(1), &p));
        assert_eq!(tb.established_count(), 1);
        assert_eq!(tb.neighbors(), vec![NodeId(2)]);
        assert!(tb.get(NodeId(2)).unwrap().pinger);
    }

    #[test]
    fn handshake_in_path() {
        let mut tb = ConnTable::new();
        assert!(tb.open_in(NodeId(3), ConnKind::Regular, t(0)));
        assert!(tb.on_confirmed(NodeId(3), t(1)));
        assert!(!tb.get(NodeId(3)).unwrap().pinger, "acceptor is passive");
        assert!(!tb.on_confirmed(NodeId(3), t(1)), "double confirm rejected");
    }

    #[test]
    fn handshake_timeout_cleans_pending() {
        let p = params();
        let mut tb = ConnTable::new();
        tb.open_out(NodeId(2), ConnKind::Regular, t(0));
        let out = tb.tick(t(0) + p.handshake_timeout, &p);
        assert_eq!(
            out.closed,
            vec![(NodeId(2), ConnKind::Regular, CloseReason::HandshakeTimeout)]
        );
        assert!(tb.is_empty());
    }

    #[test]
    fn pinger_sends_ping_then_times_out() {
        let p = params();
        let mut tb = ConnTable::new();
        establish_symmetric(&mut tb, NodeId(2), ConnKind::Regular, t(0));
        // Ping due after ping_interval.
        let out = tb.tick(t(0) + p.ping_interval, &p);
        assert_eq!(out.actions.len(), 1);
        assert!(matches!(
            out.actions[0],
            OvAction::Send {
                to: NodeId(2),
                msg: OverlayMsg::Ping { .. }
            }
        ));
        // No pong: closes at the pong deadline.
        let out2 = tb.tick(t(0) + p.ping_interval + p.pong_timeout, &p);
        assert_eq!(
            out2.closed,
            vec![(NodeId(2), ConnKind::Regular, CloseReason::PongTimeout)]
        );
    }

    #[test]
    fn pong_within_distance_keeps_connection() {
        let p = params();
        let mut tb = ConnTable::new();
        establish_symmetric(&mut tb, NodeId(2), ConnKind::Regular, t(0));
        let out = tb.tick(t(0) + p.ping_interval, &p);
        let token = match out.actions[0] {
            OvAction::Send {
                msg: OverlayMsg::Ping { token },
                ..
            } => token,
            ref other => panic!("expected ping, got {other:?}"),
        };
        let closed = tb.on_pong(NodeId(2), token, 3, t(11), &p);
        assert!(closed.is_none());
        assert_eq!(tb.get(NodeId(2)).unwrap().last_distance, Some(3));
        assert_eq!(tb.established_count(), 1);
    }

    #[test]
    fn pong_beyond_maxdist_closes_regular() {
        let p = params();
        let mut tb = ConnTable::new();
        establish_symmetric(&mut tb, NodeId(2), ConnKind::Regular, t(0));
        let out = tb.tick(t(0) + p.ping_interval, &p);
        let token = match out.actions[0] {
            OvAction::Send {
                msg: OverlayMsg::Ping { token },
                ..
            } => token,
            ref other => panic!("expected ping, got {other:?}"),
        };
        let closed = tb.on_pong(NodeId(2), token, p.max_dist, t(11), &p);
        assert_eq!(
            closed,
            Some((NodeId(2), ConnKind::Regular, CloseReason::TooFar))
        );
        assert!(tb.is_empty());
    }

    #[test]
    fn random_connection_tolerates_twice_the_distance() {
        let p = params();
        let mut tb = ConnTable::new();
        establish_symmetric(&mut tb, NodeId(2), ConnKind::Random, t(0));
        let out = tb.tick(t(0) + p.ping_interval, &p);
        let token = match out.actions[0] {
            OvAction::Send {
                msg: OverlayMsg::Ping { token },
                ..
            } => token,
            ref other => panic!("expected ping, got {other:?}"),
        };
        // max_dist hops is fine for a random connection...
        assert!(tb
            .on_pong(NodeId(2), token, p.max_dist, t(11), &p)
            .is_none());
        // ...but 2*max_dist is not.
        let out2 = tb.tick(t(11) + p.ping_interval, &p);
        let token2 = match out2.actions[0] {
            OvAction::Send {
                msg: OverlayMsg::Ping { token },
                ..
            } => token,
            ref other => panic!("expected ping, got {other:?}"),
        };
        let closed = tb.on_pong(NodeId(2), token2, p.max_dist * 2, t(22), &p);
        assert_eq!(
            closed,
            Some((NodeId(2), ConnKind::Random, CloseReason::TooFar))
        );
    }

    #[test]
    fn basic_connection_ignores_distance() {
        let p = params();
        let mut tb = ConnTable::new();
        assert!(tb.adopt_basic(NodeId(2), t(0), &p));
        let out = tb.tick(t(0) + p.ping_interval, &p);
        let token = match out.actions[0] {
            OvAction::Send {
                msg: OverlayMsg::Ping { token },
                ..
            } => token,
            ref other => panic!("expected ping, got {other:?}"),
        };
        assert!(tb.on_pong(NodeId(2), token, 200, t(11), &p).is_none());
        assert_eq!(tb.established_count(), 1);
    }

    #[test]
    fn stale_pong_token_is_ignored() {
        let p = params();
        let mut tb = ConnTable::new();
        establish_symmetric(&mut tb, NodeId(2), ConnKind::Regular, t(0));
        let out = tb.tick(t(0) + p.ping_interval, &p);
        let token = match out.actions[0] {
            OvAction::Send {
                msg: OverlayMsg::Ping { token },
                ..
            } => token,
            ref other => panic!("expected ping, got {other:?}"),
        };
        assert!(tb
            .on_pong(NodeId(2), token.wrapping_add(7), 3, t(11), &p)
            .is_none());
        // The real pong still works.
        assert!(tb.on_pong(NodeId(2), token, 3, t(12), &p).is_none());
        assert_eq!(tb.established_count(), 1);
    }

    #[test]
    fn passive_side_closes_on_ping_silence() {
        let p = params();
        let mut tb = ConnTable::new();
        tb.open_in(NodeId(4), ConnKind::Regular, t(0));
        tb.on_confirmed(NodeId(4), t(0));
        // A ping refreshes the clock.
        let pong = tb
            .on_ping(NodeId(4), 1, t(5))
            .expect("known peer gets pong");
        assert!(matches!(
            pong,
            OvAction::Send {
                msg: OverlayMsg::Pong { token: 1 },
                ..
            }
        ));
        // Silence for the grace period closes it.
        let grace = p.ping_interval + p.pong_timeout * 2;
        let out = tb.tick(t(5) + grace, &p);
        assert_eq!(
            out.closed,
            vec![(NodeId(4), ConnKind::Regular, CloseReason::PingSilence)]
        );
    }

    #[test]
    fn strangers_get_no_pong_from_the_table() {
        let mut tb = ConnTable::new();
        assert!(tb.on_ping(NodeId(9), 77, t(1)).is_none());
        // The Basic algorithm answers them explicitly instead.
        assert_eq!(
            stranger_pong(NodeId(9), 77),
            OvAction::Send {
                to: NodeId(9),
                msg: OverlayMsg::Pong { token: 77 }
            }
        );
    }

    #[test]
    fn unreachable_closes_and_reports() {
        let p = params();
        let mut tb = ConnTable::new();
        establish_symmetric(&mut tb, NodeId(2), ConnKind::Random, t(0));
        assert_eq!(
            tb.on_unreachable(NodeId(2)),
            Some((NodeId(2), ConnKind::Random, CloseReason::Unreachable))
        );
        assert!(tb.on_unreachable(NodeId(2)).is_none());
        let _ = p;
    }

    #[test]
    fn close_all_reports_everything() {
        let mut tb = ConnTable::new();
        establish_symmetric(&mut tb, NodeId(1), ConnKind::Master, t(0));
        tb.open_out(NodeId(2), ConnKind::Slave, t(0));
        tb.close_all(CloseReason::Reset);
        assert!(tb.is_empty());
        assert_eq!(
            tb.stats().closed[ConnStats::reason_index(CloseReason::Reset)],
            2
        );
    }

    #[test]
    fn next_wake_is_earliest_deadline() {
        let p = params();
        let mut tb = ConnTable::new();
        assert_eq!(tb.next_wake(&p), SimTime::MAX);
        establish_symmetric(&mut tb, NodeId(2), ConnKind::Regular, t(0));
        assert_eq!(tb.next_wake(&p), t(0) + p.ping_interval);
        tb.open_out(NodeId(3), ConnKind::Regular, t(1));
        assert_eq!(
            tb.next_wake(&p),
            (t(1) + p.handshake_timeout).min(t(0) + p.ping_interval)
        );
    }

    #[test]
    fn stats_track_lifecycle() {
        let p = params();
        let mut tb = ConnTable::new();
        establish_symmetric(&mut tb, NodeId(1), ConnKind::Regular, t(0));
        tb.close(NodeId(1), CloseReason::TooFar);
        tb.note_rejected();
        assert_eq!(tb.stats().established, 1);
        assert_eq!(tb.stats().closed_total(), 1);
        assert_eq!(tb.stats().rejected, 1);
        let _ = p;
    }
}
