//! Scenario configuration — the programmatic form of Table 2.

use manet_aodv::AodvCfg;
use manet_des::{NodeId, SimDuration};

use crate::errors::ScenarioError;
use crate::faults::FaultPlan;
use manet_geom::Rect;
use manet_obs::ObsConfig;
use manet_radio::RadioCfg;
use p2p_content::{Catalog, QueryCfg};
use p2p_core::{AdversaryRole, AlgoKind, OverlayParams};

/// Which mobility model the scenario's nodes follow.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MobilityKind {
    /// The paper's Random Waypoint (max speed / max pause in SI units).
    Waypoint {
        /// Maximum node speed in m/s (paper: 1.0).
        max_speed: f64,
        /// Maximum pause in seconds (paper: 100.0).
        max_pause: f64,
    },
    /// Random walk at walking pace (mobility-model ablations).
    Walk {
        /// Maximum node speed in m/s.
        max_speed: f64,
    },
    /// Gauss-Markov correlated motion (ablations).
    GaussMarkov,
    /// Reference Point Group Mobility: nodes move in teams around
    /// replicated group leaders (rescue squads, tour groups).
    Groups {
        /// Number of teams; nodes are dealt round-robin.
        n_groups: usize,
        /// Leader maximum speed, m/s.
        max_speed: f64,
        /// Members stay within this radius of their leader, metres.
        group_radius: f64,
    },
    /// Frozen topology (sanity runs and tests).
    Stationary,
}

/// Node churn (future-work extension): members alternate between up and
/// down with exponentially distributed dwell times.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnCfg {
    /// Mean time a node stays up, seconds.
    pub mean_uptime: f64,
    /// Mean time a node stays down, seconds.
    pub mean_downtime: f64,
}

/// One misbehaving node: which node, and how it misbehaves.
///
/// Adversaries are deterministic (see [`AdversaryRole`]) and strictly
/// additive: a scenario with an empty adversary list runs bit-identically
/// to one built before adversaries existed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Adversary {
    /// The misbehaving node.
    pub node: NodeId,
    /// Its behaviour.
    pub role: AdversaryRole,
}

/// A full experiment description. `Scenario::paper(...)` reproduces
/// Table 2; every field can be overridden for sweeps and ablations.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Total nodes in the ad-hoc network (paper: 50 or 150).
    pub n_nodes: usize,
    /// Square area side in metres (paper: 100).
    pub area_side: f64,
    /// Fraction of nodes participating in the p2p overlay (paper: 0.75).
    pub member_fraction: f64,
    /// Which (re)configuration algorithm members run.
    pub algo: AlgoKind,
    /// Radio model (paper: 10 m range).
    pub radio: RadioCfg,
    /// Overlay constants (Table 2).
    pub overlay: OverlayParams,
    /// Routing constants.
    pub aodv: AodvCfg,
    /// File catalogue (20 files, Zipf 40 %).
    pub catalog: Catalog,
    /// Query workload (TTL 6, 30 s wait, 15–45 s think).
    pub query: QueryCfg,
    /// Mobility model (paper: Random Waypoint <= 1 m/s, <= 100 s pause).
    pub mobility: MobilityKind,
    /// Simulated time (paper: 3600 s).
    pub duration: SimDuration,
    /// Members join the overlay at uniform times within this window, so
    /// the population does not probe in phase at t = 0.
    pub join_window: SimDuration,
    /// How often a moving node refreshes its grid position (position error
    /// is bounded by `max_speed * position_refresh`).
    pub position_refresh: SimDuration,
    /// Hybrid qualifiers are drawn uniformly from this inclusive range.
    pub qualifier_range: (u32, u32),
    /// Battery budget per node in millijoules; `None` = unlimited (the
    /// paper does not deplete batteries; the lifetime extension does).
    pub battery_mj: Option<f64>,
    /// Optional churn process (future-work extension).
    pub churn: Option<ChurnCfg>,
    /// Sample the overlay graph for small-world metrics at this period.
    pub smallworld_sample: Option<SimDuration>,
    /// Keep the last N protocol events in a trace ring (0 = off).
    pub trace_capacity: usize,
    /// Injected faults (packet-loss bursts, scripted crashes, link flaps,
    /// delay spikes); the default plan is empty and changes nothing.
    pub faults: FaultPlan,
    /// Misbehaving nodes (black-holes, grey-holes, RREQ amplifiers, query
    /// flooders, selfish peers); empty by default and changes nothing.
    pub adversaries: Vec<Adversary>,
    /// Observability sink (metrics registry, spans, flight recorder).
    /// Enabled by default — the observed hot path is held within a few
    /// percent of the bare one by the perf gate — and toggling it never
    /// changes simulation results.
    pub obs: ObsConfig,
}

impl Scenario {
    /// The paper's scenario for a given node count and algorithm.
    pub fn paper(n_nodes: usize, algo: AlgoKind) -> Self {
        Scenario {
            n_nodes,
            area_side: 100.0,
            member_fraction: 0.75,
            algo,
            radio: RadioCfg::paper(),
            overlay: OverlayParams::default(),
            aodv: AodvCfg::default(),
            catalog: Catalog::default(),
            query: QueryCfg::default(),
            mobility: MobilityKind::Waypoint {
                max_speed: 1.0,
                max_pause: 100.0,
            },
            duration: SimDuration::from_secs(3600),
            join_window: SimDuration::from_secs(30),
            position_refresh: SimDuration::from_secs(1),
            qualifier_range: (1, 100),
            battery_mj: None,
            churn: None,
            smallworld_sample: None,
            trace_capacity: 0,
            faults: FaultPlan::default(),
            adversaries: Vec::new(),
            obs: ObsConfig::default(),
        }
    }

    /// A scaled-down variant for tests and the in-repo timing benches:
    /// same shape, shorter clock.
    pub fn quick(n_nodes: usize, algo: AlgoKind, secs: u64) -> Self {
        let mut s = Self::paper(n_nodes, algo);
        s.duration = SimDuration::from_secs(secs);
        s.join_window = SimDuration::from_secs(secs.min(10));
        s
    }

    /// The simulation area.
    pub fn area(&self) -> Rect {
        Rect::sized(self.area_side, self.area_side)
    }

    /// Number of overlay members (`round(n * fraction)`).
    pub fn n_members(&self) -> usize {
        ((self.n_nodes as f64 * self.member_fraction).round() as usize).min(self.n_nodes)
    }

    /// Typed validation: the first out-of-domain parameter as a
    /// [`ScenarioError`], or `Ok(())` when the scenario is simulable.
    /// [`World::try_new`](crate::World::try_new) runs this before building
    /// anything, so construction never panics on a bad configuration.
    pub fn check(&self) -> Result<(), ScenarioError> {
        if self.n_nodes < 2 {
            return Err(ScenarioError::TooFewNodes {
                n_nodes: self.n_nodes,
            });
        }
        if self.area_side <= 0.0 || self.area_side.is_nan() {
            return Err(ScenarioError::NonPositiveArea {
                side: self.area_side,
            });
        }
        if self.area_side.is_infinite() {
            return Err(ScenarioError::NonFiniteArea {
                side: self.area_side,
            });
        }
        if !(0.0..=1.0).contains(&self.member_fraction) {
            return Err(ScenarioError::MemberFractionOutOfRange {
                fraction: self.member_fraction,
            });
        }
        if self.n_members() < 1 {
            return Err(ScenarioError::NoMembers);
        }
        if self.duration.is_zero() {
            return Err(ScenarioError::ZeroDuration);
        }
        if self.position_refresh.is_zero() {
            return Err(ScenarioError::ZeroPositionRefresh);
        }
        if self.qualifier_range.0 > self.qualifier_range.1 {
            return Err(ScenarioError::QualifierRangeInverted {
                lo: self.qualifier_range.0,
                hi: self.qualifier_range.1,
            });
        }
        if let Some(p) = self.radio.problem() {
            return Err(ScenarioError::Radio(p));
        }
        if let Some(p) = self.overlay.problem() {
            return Err(ScenarioError::Overlay(p));
        }
        if let Some(p) = self.aodv.problem() {
            return Err(ScenarioError::Routing(p));
        }
        if let Some(p) = self.catalog.problem() {
            return Err(ScenarioError::Catalog(p));
        }
        if let Some(c) = &self.churn {
            if !(c.mean_uptime > 0.0 && c.mean_downtime > 0.0) {
                return Err(ScenarioError::NonPositiveChurnDwell {
                    mean_uptime: c.mean_uptime,
                    mean_downtime: c.mean_downtime,
                });
            }
        }
        match self.mobility {
            MobilityKind::Waypoint {
                max_speed,
                max_pause,
            } => {
                if max_speed <= 0.0 || max_speed.is_nan() {
                    return Err(ScenarioError::NonPositiveSpeed { speed: max_speed });
                }
                if max_pause < 0.0 || max_pause.is_nan() {
                    return Err(ScenarioError::NegativePause { pause: max_pause });
                }
            }
            MobilityKind::Walk { max_speed } => {
                if max_speed <= 0.0 || max_speed.is_nan() {
                    return Err(ScenarioError::NonPositiveSpeed { speed: max_speed });
                }
            }
            MobilityKind::Groups {
                n_groups,
                max_speed,
                group_radius,
            } => {
                if n_groups < 1 {
                    return Err(ScenarioError::NoGroups);
                }
                if n_groups > self.n_nodes {
                    return Err(ScenarioError::GroupsExceedNodes {
                        n_groups,
                        n_nodes: self.n_nodes,
                    });
                }
                if max_speed <= 0.0 || max_speed.is_nan() {
                    return Err(ScenarioError::NonPositiveSpeed { speed: max_speed });
                }
                if group_radius <= 0.0 || group_radius.is_nan() {
                    return Err(ScenarioError::NonPositiveGroupRadius {
                        radius: group_radius,
                    });
                }
            }
            MobilityKind::GaussMarkov | MobilityKind::Stationary => {}
        }
        if let Some(mj) = self.battery_mj {
            if mj <= 0.0 || mj.is_nan() {
                return Err(ScenarioError::NonPositiveBattery { mj });
            }
        }
        if self.obs.enabled && self.obs.sample_period_secs < 0.0 {
            return Err(ScenarioError::NegativeObsSamplePeriod {
                secs: self.obs.sample_period_secs,
            });
        }
        for (i, a) in self.adversaries.iter().enumerate() {
            if a.node.index() >= self.n_nodes {
                return Err(ScenarioError::AdversaryOutOfRange {
                    node: a.node.0,
                    n_nodes: self.n_nodes,
                });
            }
            if self.adversaries[..i].iter().any(|b| b.node == a.node) {
                return Err(ScenarioError::DuplicateAdversary { node: a.node.0 });
            }
            if a.role.requires_membership() && a.node.index() >= self.n_members() {
                return Err(ScenarioError::AdversaryNotMember {
                    node: a.node.0,
                    n_members: self.n_members(),
                });
            }
            match a.role {
                AdversaryRole::GreyHole { drop_nth } if drop_nth < 2 => {
                    return Err(ScenarioError::GreyHoleDropTooSmall { drop_nth });
                }
                AdversaryRole::RreqAmplifier { factor } if !(2..=8).contains(&factor) => {
                    return Err(ScenarioError::AmplifierFactorOutOfRange { factor });
                }
                AdversaryRole::QueryFlooder { period } if period.is_zero() => {
                    return Err(ScenarioError::FlooderPeriodZero { node: a.node.0 });
                }
                _ => {}
            }
        }
        self.faults.check(self.n_nodes)?;
        Ok(())
    }

    /// Panics if the configuration is out of domain (the message is the
    /// [`ScenarioError`] display form). Assertion-style twin of
    /// [`check`](Scenario::check).
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// Render the effective parameters in the shape of the paper's Table 2.
    pub fn render_table_2(&self) -> String {
        let mobility = match self.mobility {
            MobilityKind::Waypoint {
                max_speed,
                max_pause,
            } => format!("Random Waypoint (<= {max_speed} m/s, pause <= {max_pause} s)"),
            MobilityKind::Walk { max_speed } => format!("Random Walk (<= {max_speed} m/s)"),
            MobilityKind::GaussMarkov => "Gauss-Markov".into(),
            MobilityKind::Groups {
                n_groups,
                max_speed,
                group_radius,
            } => format!("RPGM ({n_groups} groups, <= {max_speed} m/s, radius {group_radius} m)"),
            MobilityKind::Stationary => "Stationary".into(),
        };
        let rows: Vec<(String, String)> = vec![
            (
                "transmission range".into(),
                format!("{} m", self.radio.range_m),
            ),
            ("number of nodes".into(), format!("{}", self.n_nodes)),
            (
                "p2p members".into(),
                format!(
                    "{} ({:.0}%)",
                    self.n_members(),
                    self.member_fraction * 100.0
                ),
            ),
            ("area".into(), format!("{0} m x {0} m", self.area_side)),
            ("mobility".into(), mobility),
            (
                "number of distinct searchable files".into(),
                format!("{}", self.catalog.n_files),
            ),
            (
                "frequency of the most popular file".into(),
                format!("{:.0}%", self.catalog.max_freq * 100.0),
            ),
            (
                "NHOPS_INITIAL".into(),
                format!("{} ad-hoc hops", self.overlay.nhops_initial),
            ),
            (
                "MAXNHOPS".into(),
                format!("{} ad-hoc hops", self.overlay.max_nhops),
            ),
            (
                "NHOPS (Basic Algorithm)".into(),
                format!("{} ad-hoc hops", self.overlay.nhops_basic),
            ),
            (
                "MAXDIST".into(),
                format!("{} ad-hoc hops", self.overlay.max_dist),
            ),
            ("MAXNCONN".into(), format!("{}", self.overlay.max_conn)),
            ("MAXNSLAVES".into(), format!("{}", self.overlay.max_slaves)),
            (
                "TTL for queries".into(),
                format!("{} p2p hops", self.query.ttl),
            ),
            (
                "simulated time".into(),
                format!("{:.0} s", self.duration.as_secs_f64()),
            ),
        ];
        let mut s = String::new();
        for (k, v) in rows {
            s.push_str(&format!("{k:<40}{v}\n"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenarios_validate() {
        for n in [50, 150] {
            for algo in AlgoKind::ALL {
                let s = Scenario::paper(n, algo);
                s.validate();
                let expect = (n as f64 * 0.75).round() as usize;
                assert_eq!(s.n_members(), expect);
            }
        }
    }

    #[test]
    fn member_count_rounds() {
        let s = Scenario::paper(50, AlgoKind::Basic);
        assert_eq!(s.n_members(), 38, "75% of 50 rounds to 38");
        let s = Scenario::paper(150, AlgoKind::Basic);
        assert_eq!(s.n_members(), 113, "75% of 150 rounds to 113");
    }

    #[test]
    fn table_2_mentions_all_constants() {
        let s = Scenario::paper(50, AlgoKind::Regular);
        let t = s.render_table_2();
        for needle in [
            "10 m",
            "MAXNCONN",
            "MAXNSLAVES",
            "MAXDIST",
            "NHOPS_INITIAL",
            "40%",
            "6 p2p hops",
            "3600 s",
        ] {
            assert!(t.contains(needle), "Table 2 missing {needle}:\n{t}");
        }
    }

    #[test]
    #[should_panic(expected = "two nodes")]
    fn degenerate_scenario_rejected() {
        let mut s = Scenario::paper(50, AlgoKind::Basic);
        s.n_nodes = 1;
        s.validate();
    }

    #[test]
    fn mobility_validation_gaps_are_closed() {
        let base = Scenario::quick(10, AlgoKind::Regular, 60);
        let with = |mobility| Scenario {
            mobility,
            ..base.clone()
        };
        assert_eq!(
            with(MobilityKind::Waypoint {
                max_speed: 0.0,
                max_pause: 100.0
            })
            .check(),
            Err(ScenarioError::NonPositiveSpeed { speed: 0.0 })
        );
        assert!(matches!(
            with(MobilityKind::Waypoint {
                max_speed: f64::NAN,
                max_pause: 100.0
            })
            .check(),
            Err(ScenarioError::NonPositiveSpeed { .. })
        ));
        assert_eq!(
            with(MobilityKind::Waypoint {
                max_speed: 1.0,
                max_pause: -1.0
            })
            .check(),
            Err(ScenarioError::NegativePause { pause: -1.0 })
        );
        assert_eq!(
            with(MobilityKind::Walk { max_speed: -2.0 }).check(),
            Err(ScenarioError::NonPositiveSpeed { speed: -2.0 })
        );
        // Zero-member groups: more groups than nodes.
        assert_eq!(
            with(MobilityKind::Groups {
                n_groups: 11,
                max_speed: 1.0,
                group_radius: 5.0
            })
            .check(),
            Err(ScenarioError::GroupsExceedNodes {
                n_groups: 11,
                n_nodes: 10
            })
        );
        assert_eq!(
            with(MobilityKind::Groups {
                n_groups: 2,
                max_speed: 1.0,
                group_radius: 0.0
            })
            .check(),
            Err(ScenarioError::NonPositiveGroupRadius { radius: 0.0 })
        );
    }

    #[test]
    fn battery_must_be_positive_when_set() {
        let mut s = Scenario::quick(10, AlgoKind::Basic, 60);
        s.battery_mj = Some(0.0);
        assert_eq!(
            s.check(),
            Err(ScenarioError::NonPositiveBattery { mj: 0.0 })
        );
        s.battery_mj = Some(400.0);
        assert_eq!(s.check(), Ok(()));
    }

    #[test]
    fn adversaries_are_validated() {
        use manet_des::NodeId;
        let with = |adversaries: Vec<Adversary>| Scenario {
            adversaries,
            ..Scenario::quick(10, AlgoKind::Regular, 60)
        };
        let adv = |node: u32, role| Adversary {
            node: NodeId(node),
            role,
        };
        assert_eq!(
            with(vec![adv(10, AdversaryRole::BlackHole)]).check(),
            Err(ScenarioError::AdversaryOutOfRange {
                node: 10,
                n_nodes: 10
            })
        );
        assert_eq!(
            with(vec![
                adv(3, AdversaryRole::BlackHole),
                adv(3, AdversaryRole::Selfish)
            ])
            .check(),
            Err(ScenarioError::DuplicateAdversary { node: 3 })
        );
        // quick(10, ..) has 8 members (ids 0..8); node 9 is a pure relay.
        assert_eq!(
            with(vec![adv(9, AdversaryRole::Selfish)]).check(),
            Err(ScenarioError::AdversaryNotMember {
                node: 9,
                n_members: 8
            })
        );
        assert_eq!(
            with(vec![adv(9, AdversaryRole::BlackHole)]).check(),
            Ok(()),
            "routing-layer roles may sit on relays"
        );
        assert_eq!(
            with(vec![adv(2, AdversaryRole::GreyHole { drop_nth: 1 })]).check(),
            Err(ScenarioError::GreyHoleDropTooSmall { drop_nth: 1 })
        );
        assert_eq!(
            with(vec![adv(2, AdversaryRole::RreqAmplifier { factor: 9 })]).check(),
            Err(ScenarioError::AmplifierFactorOutOfRange { factor: 9 })
        );
        assert_eq!(
            with(vec![adv(
                2,
                AdversaryRole::QueryFlooder {
                    period: SimDuration::ZERO
                }
            )])
            .check(),
            Err(ScenarioError::FlooderPeriodZero { node: 2 })
        );
        assert_eq!(
            with(vec![
                adv(0, AdversaryRole::BlackHole),
                adv(1, AdversaryRole::GreyHole { drop_nth: 4 }),
                adv(2, AdversaryRole::RreqAmplifier { factor: 3 }),
                adv(
                    3,
                    AdversaryRole::QueryFlooder {
                        period: SimDuration::from_secs(5)
                    }
                ),
                adv(4, AdversaryRole::Selfish),
            ])
            .check(),
            Ok(()),
            "one of each role on distinct members is valid"
        );
    }
}
