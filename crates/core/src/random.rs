//! The Random algorithm's long-range slot (Fig 3).
//!
//! The Random algorithm is Regular plus one slot. Its first `MAXNCONN - 1`
//! connections are established exactly as in the Regular algorithm
//! ("regular connections"), so a Random node is a
//! [`RegularAlgo`](crate::RegularAlgo) built
//! [`with_random_slot`](crate::RegularAlgo::with_random_slot). The last slot
//! is a **random connection**: the node floods a probe with a TTL drawn
//! uniformly from `[nhops, 2 * MAXNHOPS]`, waits for responses, and
//! completes the handshake only with the *most distant* responder. These
//! long links are the bridges of the Watts–Strogatz construction: a few of
//! them should shorten the overlay's characteristic path length while
//! leaving its clustering coefficient high. A random connection that goes
//! down must be replaced by another random connection.
//!
//! This module holds only what the slot adds to Regular: the random probe,
//! the window that gathers the responders' offers, and its resolution.

use manet_des::{NodeId, Rng, SimTime};

use crate::conn::{ConnKind, ConnTable};
use crate::msg::{OvAction, OverlayMsg, ProbeKind};
use crate::params::OverlayParams;

/// An open response-gathering window for a random probe.
#[derive(Clone, Debug)]
struct Gather {
    deadline: SimTime,
    /// Best responder so far: `(hops, peer)` — maximizing hops, then the
    /// smallest id for determinism.
    best: Option<(u8, NodeId)>,
    /// Responders that were not chosen (get a Reject at resolution).
    others: Vec<NodeId>,
}

/// The Random algorithm's last slot: the RNG that draws the random probe's
/// TTL, and the gather window while one is open.
#[derive(Clone, Debug)]
pub(crate) struct RandomSlot {
    rng: Rng,
    gather: Option<Gather>,
}

impl RandomSlot {
    pub(crate) fn new(rng: Rng) -> Self {
        RandomSlot { rng, gather: None }
    }

    /// The slot wants a random probe: no window is open, `table` holds no
    /// random connection (live or pending), and a slot is free.
    pub(crate) fn wants(&self, table: &ConnTable, params: &OverlayParams) -> bool {
        self.gather.is_none()
            && table.count_kind(ConnKind::Random) == 0
            && table.len() < params.max_conn
    }

    /// When the open window closes.
    pub(crate) fn deadline(&self) -> Option<SimTime> {
        self.gather.as_ref().map(|g| g.deadline)
    }

    /// The random probe of an attempt at radius `nhops` ("set randhops to a
    /// randomly chosen value between nhops and 2 * MAXNHOPS"). Opens the
    /// window that gathers the responders' offers.
    pub(crate) fn probe(&mut self, nhops: u8, now: SimTime, params: &OverlayParams) -> OvAction {
        let randhops = self
            .rng
            .range_u64(nhops as u64, 2 * params.max_nhops as u64) as u8;
        self.gather = Some(Gather {
            deadline: now + params.random_response_wait,
            best: None,
            others: Vec::new(),
        });
        OvAction::Flood {
            ttl: randhops.max(1),
            msg: OverlayMsg::Probe {
                kind: ProbeKind::Random,
            },
        }
    }

    /// A responder's Offer: gather it, its distance being the routed hops.
    /// With no window open it is refused, as leg 2 refuses without room.
    pub(crate) fn on_offer(
        &mut self,
        responder: NodeId,
        hops: u8,
        table: &mut ConnTable,
        now: SimTime,
    ) -> Vec<OvAction> {
        let Some(g) = &mut self.gather else {
            return table.answer_offer(responder, ProbeKind::Random, false, now);
        };
        match g.best {
            None => g.best = Some((hops, responder)),
            Some((bh, bid)) => {
                if hops > bh || (hops == bh && responder < bid) {
                    g.others.push(bid);
                    g.best = Some((hops, responder));
                } else {
                    g.others.push(responder);
                }
            }
        }
        Vec::new()
    }

    /// Once the window's deadline has passed, the node "only continues the
    /// three-way handshake with the most distant neighbor", if a slot is
    /// still free, and rejects the others. These rejections count no
    /// refusal: the node asked for the offers.
    pub(crate) fn resolve_if_due(
        &mut self,
        now: SimTime,
        table: &mut ConnTable,
        params: &OverlayParams,
        out: &mut Vec<OvAction>,
    ) {
        let Some(g) = self.gather.take_if(|g| now >= g.deadline) else {
            return;
        };
        if let Some((_, chosen)) = g.best {
            let msg =
                if table.len() < params.max_conn && table.open_in(chosen, ConnKind::Random, now) {
                    OverlayMsg::Accept {
                        kind: ProbeKind::Random,
                    }
                } else {
                    OverlayMsg::Reject
                };
            out.push(OvAction::Send { to: chosen, msg });
        }
        for peer in g.others {
            out.push(OvAction::Send {
                to: peer,
                msg: OverlayMsg::Reject,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Reconfigurator, RegularAlgo};

    fn params() -> OverlayParams {
        OverlayParams::default()
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn algo() -> RegularAlgo {
        RegularAlgo::with_random_slot(NodeId(0), params(), Rng::new(42))
    }

    fn offer_random() -> OverlayMsg {
        OverlayMsg::Offer {
            kind: ProbeKind::Random,
        }
    }

    #[test]
    fn start_emits_regular_and_random_probes() {
        let p = params();
        let mut a = algo();
        let out = a.start(t(0));
        let regs: Vec<u8> = out
            .iter()
            .filter_map(|x| match x {
                OvAction::Flood {
                    ttl,
                    msg:
                        OverlayMsg::Probe {
                            kind: ProbeKind::Regular,
                        },
                } => Some(*ttl),
                _ => None,
            })
            .collect();
        let rands: Vec<u8> = out
            .iter()
            .filter_map(|x| match x {
                OvAction::Flood {
                    ttl,
                    msg:
                        OverlayMsg::Probe {
                            kind: ProbeKind::Random,
                        },
                } => Some(*ttl),
                _ => None,
            })
            .collect();
        assert_eq!(regs, vec![p.nhops_initial]);
        assert_eq!(rands.len(), 1);
        let r = rands[0];
        assert!(
            (p.nhops_initial..=2 * p.max_nhops).contains(&r),
            "randhops {r} outside [nhops, 2*MAXNHOPS]"
        );
    }

    #[test]
    fn random_ttl_spans_the_advertised_interval() {
        let p = params();
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..40 {
            let mut a = RegularAlgo::with_random_slot(NodeId(0), p, Rng::new(seed));
            for act in a.start(t(0)) {
                if let OvAction::Flood {
                    ttl,
                    msg:
                        OverlayMsg::Probe {
                            kind: ProbeKind::Random,
                        },
                } = act
                {
                    seen.insert(ttl);
                }
            }
        }
        assert!(seen.len() >= 5, "ttl should vary across seeds: {seen:?}");
        assert!(
            *seen.iter().max().unwrap() > p.max_nhops,
            "long probes exist"
        );
    }

    #[test]
    fn gather_picks_farthest_responder() {
        let p = params();
        let mut a = algo();
        a.start(t(0));
        a.on_msg(t(0), NodeId(5), 3, &offer_random());
        a.on_msg(t(0), NodeId(6), 9, &offer_random());
        a.on_msg(t(0), NodeId(7), 4, &offer_random());
        let out = a.tick(t(0) + p.random_response_wait);
        let accepts: Vec<NodeId> = out
            .iter()
            .filter_map(|x| match x {
                OvAction::Send {
                    to,
                    msg:
                        OverlayMsg::Accept {
                            kind: ProbeKind::Random,
                        },
                } => Some(*to),
                _ => None,
            })
            .collect();
        let rejects: Vec<NodeId> = out
            .iter()
            .filter_map(|x| match x {
                OvAction::Send {
                    to,
                    msg: OverlayMsg::Reject,
                } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(accepts, vec![NodeId(6)], "farthest wins");
        assert_eq!(rejects.len(), 2);
        assert!(rejects.contains(&NodeId(5)) && rejects.contains(&NodeId(7)));
    }

    #[test]
    fn gather_tie_breaks_on_lowest_id() {
        let p = params();
        let mut a = algo();
        a.start(t(0));
        a.on_msg(t(0), NodeId(9), 5, &offer_random());
        a.on_msg(t(0), NodeId(4), 5, &offer_random());
        let out = a.tick(t(0) + p.random_response_wait);
        let accept_to = out.iter().find_map(|x| match x {
            OvAction::Send {
                to,
                msg: OverlayMsg::Accept { .. },
            } => Some(*to),
            _ => None,
        });
        assert_eq!(accept_to, Some(NodeId(4)));
    }

    #[test]
    fn late_random_offer_is_rejected() {
        let p = params();
        let mut a = algo();
        a.start(t(0));
        let _ = a.tick(t(0) + p.random_response_wait); // empty gather resolves
        let out = a.on_msg(t(60), NodeId(5), 3, &offer_random());
        // Depending on cadence a new gather may exist at t=60; force none:
        // the reply is either collected (no action) or rejected. Both are
        // valid; what must never happen is an immediate Accept.
        assert!(out.iter().all(|x| !matches!(
            x,
            OvAction::Send {
                msg: OverlayMsg::Accept { .. },
                ..
            }
        )));
    }

    #[test]
    fn completed_random_handshake_establishes_long_link() {
        let p = params();
        let mut a = algo();
        a.start(t(0));
        a.on_msg(t(0), NodeId(6), 9, &offer_random());
        let _ = a.tick(t(0) + p.random_response_wait);
        // The chosen responder confirms.
        a.on_msg(t(3), NodeId(6), 9, &OverlayMsg::Confirm);
        assert_eq!(a.neighbors(), vec![NodeId(6)]);
        assert_eq!(a.table().count_kind(ConnKind::Random), 1);
        assert!(!a.random_demand(), "slot filled");
    }

    #[test]
    fn lost_random_connection_is_replaced() {
        let p = params();
        let mut a = algo();
        a.start(t(0));
        a.on_msg(t(0), NodeId(6), 9, &offer_random());
        let _ = a.tick(t(0) + p.random_response_wait);
        a.on_msg(t(3), NodeId(6), 9, &OverlayMsg::Confirm);
        assert!(!a.random_demand());
        a.on_unreachable(t(10), NodeId(6));
        assert!(a.random_demand(), "random slot must be refilled");
        // Next cycle attempt emits a random probe again.
        let mut now = t(10);
        let mut saw_random_probe = false;
        for _ in 0..10 {
            now = a.next_wake().max(now);
            for act in a.tick(now) {
                if matches!(
                    act,
                    OvAction::Flood {
                        msg: OverlayMsg::Probe {
                            kind: ProbeKind::Random
                        },
                        ..
                    }
                ) {
                    saw_random_probe = true;
                }
            }
            if saw_random_probe {
                break;
            }
        }
        assert!(saw_random_probe);
    }

    #[test]
    fn responder_side_answers_random_probe() {
        let mut b = RegularAlgo::with_random_slot(NodeId(1), params(), Rng::new(7));
        b.start(t(0));
        let out = b.on_flood(
            t(1),
            NodeId(0),
            5,
            &OverlayMsg::Probe {
                kind: ProbeKind::Random,
            },
        );
        assert_eq!(
            out,
            vec![OvAction::Send {
                to: NodeId(0),
                msg: offer_random()
            }]
        );
        // And completes when accepted.
        let out2 = b.on_msg(
            t(2),
            NodeId(0),
            5,
            &OverlayMsg::Accept {
                kind: ProbeKind::Random,
            },
        );
        assert_eq!(
            out2,
            vec![OvAction::Send {
                to: NodeId(0),
                msg: OverlayMsg::Confirm
            }]
        );
        assert_eq!(b.table().count_kind(ConnKind::Random), 1);
    }

    #[test]
    fn regular_connections_capped_at_max_minus_one() {
        let p = params();
        let mut a = algo();
        a.start(t(0));
        for k in 1..=5u32 {
            a.on_msg(
                t(0),
                NodeId(k),
                2,
                &OverlayMsg::Offer {
                    kind: ProbeKind::Regular,
                },
            );
        }
        assert_eq!(
            a.table().count_kind(ConnKind::Regular),
            p.max_conn - 1,
            "one slot is reserved for the random connection"
        );
    }

    #[test]
    fn accept_with_mismatched_kind_is_rejected() {
        let mut b = RegularAlgo::with_random_slot(NodeId(1), params(), Rng::new(7));
        b.start(t(0));
        b.on_flood(
            t(1),
            NodeId(0),
            5,
            &OverlayMsg::Probe {
                kind: ProbeKind::Random,
            },
        );
        let out = b.on_msg(
            t(2),
            NodeId(0),
            5,
            &OverlayMsg::Accept {
                kind: ProbeKind::Regular,
            },
        );
        assert_eq!(
            out,
            vec![OvAction::Send {
                to: NodeId(0),
                msg: OverlayMsg::Reject
            }]
        );
    }
}
