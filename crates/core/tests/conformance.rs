//! Reconfigurator contract conformance, run against all four algorithms.
//!
//! Every algorithm — present and future — must satisfy the same
//! behavioural contract regardless of its internal strategy. The
//! [`MiniNet`](p2p_core::testkit::MiniNet) harness provides an ideal
//! transport so that failures here are always the algorithm's fault, not
//! the network's.

use manet_des::{NodeId, Rng, SimDuration, SimTime};
use p2p_core::testkit::MiniNet;
use p2p_core::{build_algo, AlgoKind, OverlayMsg, OverlayParams, ProbeKind, Role};

fn net(kind: AlgoKind, n: usize) -> MiniNet {
    MiniNet::new(kind, n, OverlayParams::default(), 0xC0FFEE)
}

#[test]
fn foreign_handshake_kinds_are_ignored() {
    // Every simulated world runs one algorithm, so no run ever hands a node
    // a handshake leg of a kind it does not own: a Regular node never sees
    // the Random algorithm's long-range probe. Fed one anyway, a node must
    // stay exactly as it was: no reply, no slot, no rejection counted and
    // no timer moved.
    let owned = |kind: AlgoKind| -> &'static [ProbeKind] {
        match kind {
            AlgoKind::Basic => &[ProbeKind::Basic],
            AlgoKind::Regular => &[ProbeKind::Regular],
            AlgoKind::Random => &[ProbeKind::Regular, ProbeKind::Random],
            AlgoKind::Hybrid => &[ProbeKind::Master],
        }
    };
    let started = |kind: AlgoKind| {
        let mut algo = build_algo(kind, NodeId(1), OverlayParams::default(), 42, Rng::new(7));
        algo.start(SimTime::ZERO);
        algo
    };
    let (peer, now) = (NodeId(9), SimTime::from_secs(1));
    for kind in AlgoKind::ALL {
        let twin = started(kind);
        for probe in [
            ProbeKind::Basic,
            ProbeKind::Regular,
            ProbeKind::Random,
            ProbeKind::Master,
        ] {
            if owned(kind).contains(&probe) {
                continue;
            }
            let mut node = started(kind);
            let replies = [
                node.on_flood(now, peer, 2, &OverlayMsg::Probe { kind: probe }),
                node.on_msg(now, peer, 2, &OverlayMsg::Offer { kind: probe }),
                node.on_msg(now, peer, 2, &OverlayMsg::Accept { kind: probe }),
            ];
            assert!(
                replies.iter().all(Vec::is_empty),
                "{kind} answered {probe:?} legs: {replies:?}"
            );
            assert!(node.neighbors().is_empty(), "{kind}: {probe:?} connected");
            assert_eq!(node.conn_stats().rejected, 0, "{kind}: {probe:?}");
            assert_eq!(node.next_wake(), twin.next_wake(), "{kind}: {probe:?}");
        }
    }
}

#[test]
fn every_algorithm_forms_an_overlay_on_an_ideal_transport() {
    for kind in AlgoKind::ALL {
        let mut net = net(kind, 8);
        net.start_all();
        net.run_secs(120);
        assert!(
            net.total_neighbor_count() > 0,
            "{kind}: no connections after 120 s on a perfect network"
        );
        // On an ideal transport most nodes should find at least one peer.
        let connected = (0..net.len())
            .filter(|&i| !net.neighbors(NodeId(i as u32)).is_empty())
            .count();
        assert!(
            connected * 2 >= net.len(),
            "{kind}: only {connected}/{} nodes connected",
            net.len()
        );
    }
}

#[test]
fn neighbor_lists_honour_the_contract_at_every_step() {
    for kind in AlgoKind::ALL {
        let mut net = net(kind, 10);
        net.start_all();
        for step in 0..180 {
            net.advance(SimDuration::from_secs(1));
            let violations = net.contract_violations();
            assert!(
                violations.is_empty(),
                "{kind} at t={}s: {:?}",
                step + 1,
                violations
            );
        }
    }
}

#[test]
fn stray_and_duplicate_messages_are_tolerated() {
    for kind in AlgoKind::ALL {
        let mut net = net(kind, 6);
        net.start_all();
        net.run_secs(60);
        let before = net.total_neighbor_count();
        // Messages nobody asked for, from a peer with no standing: a
        // conforming algorithm ignores or rejects them without panicking
        // and without corrupting its neighbor table.
        let stray = NodeId(5);
        for target in 0..4u32 {
            let to = NodeId(target);
            net.inject_msg(stray, to, OverlayMsg::Confirm);
            net.inject_msg(stray, to, OverlayMsg::Confirm); // duplicate
            net.inject_msg(stray, to, OverlayMsg::Reject);
            net.inject_msg(stray, to, OverlayMsg::Pong { token: 0xDEAD });
            net.inject_msg(stray, to, OverlayMsg::SlaveConfirm);
            net.inject_flood(
                stray,
                to,
                OverlayMsg::Probe {
                    kind: ProbeKind::Regular,
                },
            );
        }
        let violations = net.contract_violations();
        assert!(violations.is_empty(), "{kind}: {violations:?}");
        // The overlay must not have collapsed because of junk traffic.
        net.run_secs(30);
        assert!(
            net.total_neighbor_count() > 0,
            "{kind}: overlay collapsed after stray messages (was {before})"
        );
    }
}

#[test]
fn unreachable_peers_are_evicted() {
    for kind in AlgoKind::ALL {
        let mut net = net(kind, 8);
        net.start_all();
        net.run_secs(120);
        // Pick a node someone actually references, then kill it.
        let victim = (0..net.len() as u32)
            .map(NodeId)
            .find(|&id| {
                (0..net.len() as u32).any(|o| o != id.0 && net.neighbors(NodeId(o)).contains(&id))
            })
            .unwrap_or_else(|| panic!("{kind}: nobody referenced anybody after 120 s"));
        net.kill(victim);
        // Keep-alives must notice within a few ping/pong cycles.
        net.run_secs(120);
        for i in 0..net.len() as u32 {
            let id = NodeId(i);
            if id == victim || !net.is_up(id) {
                continue;
            }
            assert!(
                !net.neighbors(id).contains(&victim),
                "{kind}: node {i} still lists dead node {} after 120 s",
                victim.0
            );
        }
        let violations = net.contract_violations();
        assert!(violations.is_empty(), "{kind}: {violations:?}");
    }
}

#[test]
fn roles_match_the_algorithm_family() {
    // Decentralized algorithms are homogeneous: everyone stays a servent.
    for kind in [AlgoKind::Basic, AlgoKind::Regular, AlgoKind::Random] {
        let mut net = net(kind, 8);
        net.start_all();
        net.run_secs(120);
        for i in 0..net.len() as u32 {
            assert_eq!(
                net.role(NodeId(i)),
                Role::Servent,
                "{kind}: node {i} left the servent role"
            );
        }
    }
    // Hybrid partitions into the paper's four states and must elect at
    // least one master on an ideal transport with distinct qualifiers.
    let mut net = net(AlgoKind::Hybrid, 8);
    net.start_all();
    net.run_secs(240);
    let mut masters = 0;
    let mut slaves = 0;
    for i in 0..net.len() as u32 {
        match net.role(NodeId(i)) {
            Role::Master => masters += 1,
            Role::Slave => slaves += 1,
            Role::Initial | Role::Reserved => {}
            Role::Servent => panic!("Hybrid: node {i} reports the servent role"),
        }
    }
    assert!(masters > 0, "Hybrid: no masters after 240 s");
    assert!(slaves > 0, "Hybrid: no slaves after 240 s");
}

#[test]
fn survivors_keep_a_working_overlay_after_churn() {
    // The full simulator rebuilds algorithm instances after churn; the
    // survivors must heal around the hole rather than collapse.
    for kind in AlgoKind::ALL {
        let mut net = net(kind, 6);
        net.start_all();
        net.run_secs(90);
        net.kill(NodeId(0));
        net.run_secs(120);
        let violations = net.contract_violations();
        assert!(violations.is_empty(), "{kind}: {violations:?}");
        assert!(
            net.total_neighbor_count() > 0,
            "{kind}: survivors lost the overlay entirely"
        );
    }
}

#[test]
fn overlays_survive_a_blackhole_and_a_selfish_peer() {
    // A black-hole silently swallows everything addressed to it (no
    // unreachable bounce, unlike a crash) and a selfish peer consumes
    // traffic but never answers. Every algorithm must keep its contract
    // and the honest majority must still assemble an overlay; the
    // adversaries themselves are expected to end up isolated.
    use p2p_core::AdversaryRole;
    let blackhole = NodeId(3);
    let selfish = NodeId(5);
    for kind in AlgoKind::ALL {
        let mut net = net(kind, 10);
        net.set_adversary(blackhole, AdversaryRole::BlackHole);
        net.set_adversary(selfish, AdversaryRole::Selfish);
        net.start_all();
        net.run_secs(300);
        let violations = net.contract_violations();
        assert!(violations.is_empty(), "{kind}: {violations:?}");
        // Degradation is expected but must be bounded: the 8 honest nodes
        // still hold a working overlay among themselves.
        let honest_endpoints: usize = (0..net.len() as u32)
            .map(NodeId)
            .filter(|&id| id != blackhole && id != selfish)
            .map(|id| {
                net.neighbors(id)
                    .iter()
                    .filter(|&&nb| nb != blackhole && nb != selfish)
                    .count()
            })
            .sum();
        assert!(
            honest_endpoints >= 6,
            "{kind}: honest overlay collapsed ({honest_endpoints} endpoints)"
        );
        // The black-hole never completes a handshake: nothing reaches it.
        assert!(
            net.neighbors(blackhole).is_empty(),
            "{kind}: black-hole established connections without receiving traffic"
        );
    }
}

#[test]
fn greyhole_degrades_but_does_not_wedge() {
    use p2p_core::AdversaryRole;
    for kind in AlgoKind::ALL {
        let mut net = net(kind, 8);
        net.set_adversary(NodeId(2), AdversaryRole::GreyHole { drop_nth: 2 });
        net.start_all();
        net.run_secs(240);
        let violations = net.contract_violations();
        assert!(violations.is_empty(), "{kind}: {violations:?}");
        assert!(
            net.total_neighbor_count() > 0,
            "{kind}: a single grey-hole destroyed the overlay"
        );
    }
}
