//! # manet-aodv — on-demand routing and controlled broadcast
//!
//! The routing substrate the paper runs on: **AODV** (Ad-hoc On-demand
//! Distance Vector, RFC 3561 style) plus the **controlled hop-limited
//! broadcast** the authors patched into ns-2's AODV ("each node has a cache
//! to keep track of the broadcast messages received", §7).
//!
//! The crate is a collection of *pure state machines*: [`Aodv`] consumes
//! `(now, input)` and returns [`Action`]s — transmit this frame, deliver
//! this payload, a destination is unreachable. All I/O, timing and position
//! state live in the world (`manet-sim`), which keeps the protocol
//! deterministic and testable on virtual topologies ([`testkit`]).
//!
//! Implemented: expanding-ring RREQ with per-`(origin, rreq_id)` dedup,
//! RREP from destinations and fresh intermediates, RERR broadcast on link
//! break (link breaks are reported by the world when a link-layer unicast
//! finds its receiver out of range — the 802.11 no-ACK analogue),
//! data buffering during discovery with bounded queues, destination
//! sequence numbers with rollover arithmetic, and soft-state expiry.
//!
//! Optional HELLO beaconing (RFC 3561 §6.9) is available via
//! [`AodvCfg::hello_interval`]; the default relies on link-layer feedback,
//! the mode the paper's ns-2 setup used. Simplifications vs. RFC 3561,
//! recorded in DESIGN.md: no local repair, and RERRs are link-layer
//! broadcast to every neighbour rather than unicast to each precursor (the
//! RFC's multicast option), so the route table keeps no precursor lists.
//! Neither affects the paper's metrics, which count overlay messages.

pub mod cfg;
pub mod machine;
pub mod msg;
pub mod table;
pub mod testkit;
pub mod wire;

pub use cfg::AodvCfg;
pub use machine::{Action, Aodv, AodvStats};
pub use msg::{Data, Flood, Msg, Payload, Rerr, Rrep, Rreq};
pub use table::{RouteEntry, RouteTable};
pub use wire::{decode_msg, encode_msg, WirePayload};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{TestNet, TestPayload};
    use manet_des::{NodeId, SimDuration, SimTime};

    fn cfg() -> AodvCfg {
        AodvCfg::default()
    }

    #[test]
    fn delivery_over_line_and_hop_counts() {
        let mut net = TestNet::line(5, cfg());
        net.send(0, 4, TestPayload(42));
        // 4 hops exceeds the first expanding-ring TTL (3); allow retries.
        net.step_until(SimTime::from_secs(5), SimDuration::from_millis(100));
        assert_eq!(net.delivered.len(), 1);
        let (at, src, hops, p) = net.delivered[0].clone();
        assert_eq!(at, NodeId(4));
        assert_eq!(src, NodeId(0));
        assert_eq!(hops, 4, "four edges on a 5-node line");
        assert_eq!(p, TestPayload(42));
    }

    #[test]
    fn self_send_delivers_locally_with_zero_hops() {
        let mut net = TestNet::new(2, cfg());
        net.send(1, 1, TestPayload(9));
        assert_eq!(
            net.delivered,
            vec![(NodeId(1), NodeId(1), 0, TestPayload(9))]
        );
        assert_eq!(net.frames_sent, 0, "nothing on the air");
    }

    #[test]
    fn discovery_builds_bidirectional_routes() {
        let mut net = TestNet::line(4, cfg());
        net.send(0, 3, TestPayload(1));
        let now = net.now();
        // Forward route at the source...
        assert_eq!(net.nodes[0].route_hops(NodeId(3), now), Some(3));
        // ...reverse route at the destination (learned from the RREQ).
        assert_eq!(net.nodes[3].route_hops(NodeId(0), now), Some(3));
        // Intermediates know both ends.
        assert_eq!(net.nodes[1].route_hops(NodeId(0), now), Some(1));
        assert_eq!(net.nodes[1].route_hops(NodeId(3), now), Some(2));
    }

    #[test]
    fn second_send_uses_cached_route_without_new_rreq() {
        let mut net = TestNet::line(3, cfg());
        net.send(0, 2, TestPayload(1));
        let rreqs_before = net.nodes[0].stats().rreqs_originated;
        net.send(0, 2, TestPayload(2));
        assert_eq!(net.nodes[0].stats().rreqs_originated, rreqs_before);
        assert_eq!(net.delivered.len(), 2);
    }

    #[test]
    fn overlong_rrep_is_dropped_not_forwarded() {
        use manet_des::TraceCtx;
        // An RREP claiming more hops than the network diameter is
        // circulating on a malformed reverse path (RREQ-amplification
        // builds such loops); it must be swallowed, not incremented —
        // `hop_count + 1` on u8::MAX would abort a debug build.
        let mut node = Aodv::<TestPayload>::new(NodeId(1), cfg());
        let rrep = Rrep {
            dest: NodeId(2),
            dest_seq: 1,
            origin: NodeId(3),
            hop_count: u8::MAX,
            ctx: TraceCtx::NONE,
        };
        let now = SimTime::from_secs(1);
        let out = node.on_frame(now, NodeId(0), Msg::Rrep(rrep));
        assert!(out.is_empty(), "overlong RREP must produce no actions");
        assert!(
            node.route_hops(NodeId(2), now).is_none(),
            "no route may be learned from a malformed RREP"
        );
    }

    #[test]
    fn expanding_ring_eventually_reaches_far_destination() {
        // 10 hops away: beyond ttl_start(3) and threshold(7), needs the
        // net_diameter attempt, i.e. several timer-driven retries.
        let mut net = TestNet::line(11, cfg());
        net.send(0, 10, TestPayload(7));
        assert!(net.delivered.is_empty(), "first ring (ttl 3) cannot reach");
        net.step_until(SimTime::from_secs(10), SimDuration::from_millis(100));
        assert_eq!(net.delivered.len(), 1);
        assert_eq!(net.delivered[0].2, 10);
    }

    #[test]
    fn unreachable_destination_reports_dropped_payloads() {
        let mut net = TestNet::line(3, cfg());
        net.unlink(1, 2);
        net.send(0, 2, TestPayload(1));
        net.send(0, 2, TestPayload(2));
        net.step_until(SimTime::from_secs(30), SimDuration::from_millis(200));
        assert_eq!(net.unreachable.len(), 1);
        let (at, dst, dropped) = net.unreachable[0].clone();
        assert_eq!(at, NodeId(0));
        assert_eq!(dst, NodeId(2));
        assert_eq!(dropped, vec![TestPayload(1), TestPayload(2)]);
    }

    #[test]
    fn link_break_triggers_rerr_and_rediscovery() {
        let mut net = TestNet::new(4, cfg());
        // Diamond: 0-1-3 and 0-2-3.
        net.link(0, 1);
        net.link(1, 3);
        net.link(0, 2);
        net.link(2, 3);
        net.send(0, 3, TestPayload(1));
        assert_eq!(net.delivered.len(), 1);
        let via = net.nodes[0]
            .table()
            .usable_route(NodeId(3), net.now())
            .unwrap()
            .next_hop;
        // Cut the path that was used.
        let used = via.0;
        net.unlink(used, 3);
        net.unlink(0, used);
        // Sending again: the stale route fails at the link layer, the source
        // rediscovers over the surviving branch, and the payload arrives.
        net.send(0, 3, TestPayload(2));
        net.step_until(SimTime::from_secs(5), SimDuration::from_millis(100));
        assert_eq!(net.delivered.len(), 2, "payload re-routed after link break");
    }

    #[test]
    fn flood_reaches_exactly_ttl_hops() {
        let mut net = TestNet::line(6, cfg());
        net.flood(0, 3, TestPayload(5));
        // Nodes 1, 2, 3 hear it; 4 and 5 are beyond the ttl.
        let mut got: Vec<(u32, u8)> = net
            .flood_delivered
            .iter()
            .map(|(at, _, hops, _)| (at.0, *hops))
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![(1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn flood_dedup_on_cyclic_topology() {
        let mut net = TestNet::new(4, cfg());
        // Full mesh: without the cache every copy would echo around.
        for a in 0..4 {
            for b in (a + 1)..4 {
                net.link(a, b);
            }
        }
        net.flood(0, 6, TestPayload(1));
        // Each of the 3 other nodes delivers exactly once.
        assert_eq!(net.flood_delivered.len(), 3);
        let unique: std::collections::BTreeSet<u32> = net
            .flood_delivered
            .iter()
            .map(|(at, _, _, _)| at.0)
            .collect();
        assert_eq!(unique.len(), 3);
    }

    #[test]
    fn flood_learns_reverse_routes_when_enabled() {
        let mut net = TestNet::line(4, cfg());
        net.flood(0, 3, TestPayload(1));
        // Node 3 can reply to node 0 without a RREQ.
        let rreqs_before = net.nodes[3].stats().rreqs_originated;
        net.send(3, 0, TestPayload(2));
        assert_eq!(net.nodes[3].stats().rreqs_originated, rreqs_before);
        assert_eq!(net.delivered.len(), 1);
        assert_eq!(net.delivered[0].0, NodeId(0));
    }

    #[test]
    fn flood_route_learning_can_be_disabled() {
        let c = AodvCfg {
            learn_routes_from_flood: false,
            ..cfg()
        };
        let mut net = TestNet::line(4, c);
        net.flood(0, 3, TestPayload(1));
        let rreqs_before = net.nodes[3].stats().rreqs_originated;
        net.send(3, 0, TestPayload(2));
        net.run();
        assert!(net.nodes[3].stats().rreqs_originated > rreqs_before);
    }

    #[test]
    fn intermediate_node_with_fresh_route_replies() {
        let mut net = TestNet::line(5, cfg());
        // Prime node 2 with a sequence-numbered route to 4.
        net.send(2, 4, TestPayload(0));
        // Now 0 asks for 4: node 2 answers from its table.
        net.send(0, 4, TestPayload(1));
        assert_eq!(net.delivered.len(), 2);
        assert_eq!(net.nodes[0].route_hops(NodeId(4), net.now()), Some(4));
    }

    #[test]
    fn buffer_overflow_drops_oldest() {
        let c = AodvCfg {
            max_buffered_per_dest: 2,
            ..cfg()
        };
        let mut net = TestNet::new(2, c);
        // No link: everything queues at the discovery buffer.
        let none = manet_des::TraceCtx::NONE;
        let a0 = net.nodes[0].send(SimTime::ZERO, NodeId(1), TestPayload(1), none);
        assert_eq!(a0.len(), 1, "first send opens a discovery");
        net.nodes[0].send(SimTime::ZERO, NodeId(1), TestPayload(2), none);
        net.nodes[0].send(SimTime::ZERO, NodeId(1), TestPayload(3), none);
        assert_eq!(net.nodes[0].stats().data_dropped, 1);
        // Link up and let the retry deliver what survived.
        net.link(0, 1);
        net.step_until(SimTime::from_secs(5), SimDuration::from_millis(100));
        let got: Vec<u64> = net.delivered.iter().map(|(_, _, _, p)| p.0).collect();
        assert_eq!(got, vec![2, 3], "oldest payload was dropped");
    }

    #[test]
    fn rerr_invalidates_stale_routes_upstream() {
        let mut net = TestNet::line(4, cfg());
        net.send(0, 3, TestPayload(1));
        // Break the last link; node 2 discovers it when forwarding.
        net.unlink(2, 3);
        net.send(0, 3, TestPayload(2));
        net.step(SimDuration::from_millis(100));
        assert!(
            net.nodes[0]
                .table()
                .usable_route(NodeId(3), net.now())
                .is_none(),
            "stale route should be invalidated by the RERR chain"
        );
    }

    #[test]
    fn route_expiry_forces_rediscovery() {
        let mut net = TestNet::line(3, cfg());
        net.send(0, 2, TestPayload(1));
        let rreqs = net.nodes[0].stats().rreqs_originated;
        // Idle far past active_route_lifetime (10 s).
        net.step_until(SimTime::from_secs(60), SimDuration::from_secs(1));
        net.send(0, 2, TestPayload(2));
        net.step_until(SimTime::from_secs(65), SimDuration::from_millis(100));
        assert!(net.nodes[0].stats().rreqs_originated > rreqs);
        assert_eq!(net.delivered.len(), 2);
    }

    #[test]
    fn next_wake_tracks_discovery_deadline() {
        let mut node: Aodv<TestPayload> = Aodv::new(NodeId(0), cfg());
        assert!(
            node.next_wake() >= SimTime::from_secs(1),
            "only purge pending"
        );
        let ctx = manet_des::TraceCtx::root(42, 1);
        node.send(SimTime::ZERO, NodeId(9), TestPayload(1), ctx);
        let wake = node.next_wake();
        assert!(wake <= SimTime::ZERO + cfg().ring_timeout(cfg().ttl_start));
        assert_eq!(
            node.next_wake_ctx(),
            ctx,
            "the armed wake belongs to the waiting discovery"
        );
    }

    #[test]
    fn flood_ttl_one_does_not_propagate() {
        let mut net = TestNet::line(3, cfg());
        net.flood(0, 1, TestPayload(1));
        assert_eq!(net.flood_delivered.len(), 1);
        assert_eq!(net.flood_delivered[0].0, NodeId(1));
    }

    #[test]
    fn concurrent_discoveries_do_not_interfere() {
        let mut net = TestNet::line(5, cfg());
        net.send(0, 4, TestPayload(1));
        net.send(4, 0, TestPayload(2));
        net.step_until(SimTime::from_secs(3), SimDuration::from_millis(100));
        assert_eq!(net.delivered.len(), 2);
        let dsts: std::collections::BTreeSet<u32> =
            net.delivered.iter().map(|(at, _, _, _)| at.0).collect();
        assert_eq!(dsts, [0u32, 4].into_iter().collect());
    }
}

#[cfg(test)]
mod hello_tests {
    use super::*;
    use crate::testkit::{TestNet, TestPayload};
    use manet_des::{NodeId, SimDuration, SimTime};

    fn hello_cfg() -> AodvCfg {
        AodvCfg {
            hello_interval: Some(SimDuration::from_secs(1)),
            allowed_hello_loss: 2,
            ..AodvCfg::default()
        }
    }

    #[test]
    fn hellos_are_beaconed_periodically() {
        let mut net: TestNet<TestPayload> = TestNet::line(2, hello_cfg());
        net.step_until(SimTime::from_secs(5), SimDuration::from_millis(500));
        assert!(
            net.nodes[0].stats().hellos_sent >= 4,
            "expected ~5 beacons, got {}",
            net.nodes[0].stats().hellos_sent
        );
        // Beacons establish 1-hop routes without any data traffic.
        assert_eq!(net.nodes[0].route_hops(NodeId(1), net.now()), Some(1));
        assert_eq!(net.nodes[1].route_hops(NodeId(0), net.now()), Some(1));
    }

    #[test]
    fn silent_neighbor_is_detected_and_rerr_raised() {
        let mut net = TestNet::line(3, hello_cfg());
        // Build a route 0 -> 2 through 1.
        net.send(0, 2, TestPayload(1));
        net.step_until(SimTime::from_secs(3), SimDuration::from_millis(500));
        assert!(net.nodes[0].route_hops(NodeId(2), net.now()).is_some());
        // Cut both of node 1's links: its beacons stop reaching 0.
        net.unlink(0, 1);
        net.unlink(1, 2);
        net.step_until(SimTime::from_secs(10), SimDuration::from_millis(500));
        assert!(
            net.nodes[0].route_hops(NodeId(2), net.now()).is_none(),
            "hello expiry should have broken the route through node 1"
        );
    }

    #[test]
    fn hello_mode_does_not_change_delivery_semantics() {
        let mut net = TestNet::line(4, hello_cfg());
        net.send(0, 3, TestPayload(9));
        net.step_until(SimTime::from_secs(5), SimDuration::from_millis(250));
        assert_eq!(net.delivered.len(), 1);
        assert_eq!(net.delivered[0].2, 3, "hop count unaffected by hellos");
    }

    #[test]
    fn disabled_hellos_send_nothing() {
        let mut net: TestNet<TestPayload> = TestNet::line(2, AodvCfg::default());
        net.step_until(SimTime::from_secs(10), SimDuration::from_secs(1));
        assert_eq!(net.nodes[0].stats().hellos_sent, 0);
    }
}
