//! The layered refactor's bit-identity contract.
//!
//! The first nine fingerprints below were captured on the pre-refactor
//! monolithic `World` (one god-object owning the event mega-enum, all node
//! state and all cross-cutting processes) and must be reproduced exactly
//! by the engine + node-stack + process decomposition. The scenarios cover
//! the four algorithms plus every process the refactor extracted:
//! mobility, churn, the full fault plan (base loss, bursts, a crash with
//! restart, link flaps, delay spikes), small-world sampling, group
//! mobility and finite batteries. The last pin runs every process at once,
//! the query flooder included, with five of them firing first at the same
//! instant. It was captured before the processes became plain `Event`
//! variants, and it moves if their seeding order does.
//!
//! If one of these fails, the refactored world is *behaviourally* different
//! from the original — not merely restructured — and the change that broke
//! it altered event ordering, RNG stream usage or accounting somewhere.

use manet_des::{NodeId, SimDuration, SimTime};
use manet_sim::{
    Adversary, AdversaryRole, BurstCfg, ChurnCfg, CrashEvent, FaultPlan, JitterSpikes, LinkFlaps,
    MobilityKind, PacketLoss, Scenario, World,
};
use p2p_core::AlgoKind;

fn fp(s: Scenario, seed: u64) -> u64 {
    World::new(s, seed).run().fingerprint()
}

#[test]
fn plain_scenarios_match_pre_refactor_fingerprints() {
    let golden = [
        (AlgoKind::Basic, 0x5a69e7e0aff9bdb6u64),
        (AlgoKind::Regular, 0xcbaafd99708ae6d9),
        (AlgoKind::Random, 0x2eed84d5a0e3beb7),
        (AlgoKind::Hybrid, 0x825d9fc8e74b5cc0),
    ];
    for (algo, want) in golden {
        let s = Scenario::quick(30, algo, 240);
        let got = fp(s, 7);
        assert_eq!(got, want, "plain {algo}: 0x{got:016x} != 0x{want:016x}");
    }
}

#[test]
fn churn_scenarios_match_pre_refactor_fingerprints() {
    let golden = [
        (AlgoKind::Regular, 0xa6f9106671654de6u64),
        (AlgoKind::Hybrid, 0x95be572115653640),
    ];
    for (algo, want) in golden {
        let mut s = Scenario::quick(24, algo, 300);
        s.churn = Some(ChurnCfg {
            mean_uptime: 60.0,
            mean_downtime: 30.0,
        });
        s.smallworld_sample = Some(SimDuration::from_secs(60));
        let got = fp(s, 11);
        assert_eq!(got, want, "churn {algo}: 0x{got:016x} != 0x{want:016x}");
    }
}

#[test]
fn fault_plan_scenarios_match_pre_refactor_fingerprints() {
    let golden = [
        (AlgoKind::Basic, 0x4216e707e0761a45u64),
        (AlgoKind::Random, 0x3639a1a3250e8fd7),
    ];
    for (algo, want) in golden {
        let mut s = Scenario::quick(24, algo, 300);
        s.faults = FaultPlan {
            loss: Some(PacketLoss {
                base: 0.05,
                burst: Some(BurstCfg {
                    mean_quiet: 40.0,
                    mean_burst: 10.0,
                    burst_loss: 0.6,
                }),
            }),
            crashes: vec![CrashEvent {
                node: NodeId(3),
                at: SimTime::from_secs(100),
                restart_after: Some(SimDuration::from_secs(60)),
            }],
            link_flaps: Some(LinkFlaps {
                period: SimDuration::from_secs(90),
                down: SimDuration::from_secs(5),
            }),
            jitter: Some(JitterSpikes {
                period: SimDuration::from_secs(70),
                width: SimDuration::from_secs(10),
                extra_delay: SimDuration::from_millis(40),
            }),
        };
        let got = fp(s, 13);
        assert_eq!(got, want, "faults {algo}: 0x{got:016x} != 0x{want:016x}");
    }
}

#[test]
fn group_mobility_with_battery_matches_pre_refactor_fingerprint() {
    let mut s = Scenario::quick(24, AlgoKind::Regular, 200);
    s.mobility = MobilityKind::Groups {
        n_groups: 4,
        max_speed: 1.0,
        group_radius: 8.0,
    };
    s.battery_mj = Some(400.0);
    let want = 0xa3bdaf4ba98a585au64;
    let got = fp(s, 21);
    assert_eq!(got, want, "groups+battery: 0x{got:016x} != 0x{want:016x}");
}

#[test]
fn every_process_at_once_keeps_its_seeding_order() {
    // Churn, the sampler, all four fault processes and a query flooder in
    // one world. Seeding order only shows where events tie, so five of
    // these processes fire their first event at t = 60 s: the sampler,
    // the crash, the first flap, the first delay spike and the flooder.
    let golden = [
        (AlgoKind::Basic, 0x10bd_a2b8_4e1a_8d8fu64),
        (AlgoKind::Hybrid, 0xd4f0_a7d3_0b91_e472),
    ];
    for (algo, want) in golden {
        let mut s = Scenario::quick(80, algo, 120);
        s.area_side = 50.0;
        s.churn = Some(ChurnCfg {
            mean_uptime: 120.0,
            mean_downtime: 30.0,
        });
        s.smallworld_sample = Some(SimDuration::from_secs(60));
        s.faults = FaultPlan {
            loss: Some(PacketLoss {
                base: 0.05,
                burst: Some(BurstCfg {
                    mean_quiet: 40.0,
                    mean_burst: 10.0,
                    burst_loss: 0.6,
                }),
            }),
            crashes: vec![CrashEvent {
                node: NodeId(5),
                at: SimTime::from_secs(60),
                restart_after: Some(SimDuration::from_secs(30)),
            }],
            link_flaps: Some(LinkFlaps {
                period: SimDuration::from_secs(60),
                down: SimDuration::from_secs(5),
            }),
            jitter: Some(JitterSpikes {
                period: SimDuration::from_secs(60),
                width: SimDuration::from_secs(10),
                extra_delay: SimDuration::from_millis(40),
            }),
        };
        s.adversaries = vec![Adversary {
            node: NodeId(3),
            role: AdversaryRole::QueryFlooder {
                period: SimDuration::from_secs(60),
            },
        }];
        let got = fp(s, 17);
        assert_eq!(
            got, want,
            "every process {algo}: 0x{got:016x} != 0x{want:016x}"
        );
    }
}
