//! # p2p-core — the IPDPS'03 (re)configuration algorithms
//!
//! The paper's primary contribution: four algorithms that build and maintain
//! a peer-to-peer overlay on top of a mobile ad-hoc network, implemented
//! from the pseudo-code of Figs 1–4.
//!
//! | Algorithm | Figure | Character |
//! |---|---|---|
//! | [`BasicAlgo`] | Fig 1 | Fixed-radius flooding, fixed retry timer, asymmetric references, both sides ping — the Gnutella-like baseline. |
//! | [`RegularAlgo`] | Fig 2 | Progressive discovery radius, `MAXDIST` pruning, symmetric three-way handshake with a single pinger, exponential backoff. |
//! | [`RegularAlgo::with_random_slot`] | Fig 3 | Random: Regular plus one long-range "small-world" connection to the farthest responder within a random radius ([`random`]). |
//! | [`HybridAlgo`] | Fig 4 | Master/slave clustering by capability qualifier for heterogeneous networks. |
//!
//! All four run as [`Reconfigurator`]s: pure state machines taking
//! `(now, input)` and returning [`OvAction`]s (hop-limited floods and routed
//! unicasts) for the node's network stack to execute. "Connections" are
//! *references* in the paper's sense — see [`conn`] for the table, the
//! ping/pong maintenance engine shared by all algorithms, and the three
//! legs of the symmetric handshake that Regular, Random and Hybrid's
//! masters share.
//!
//! ```
//! use manet_des::{NodeId, SimTime};
//! use p2p_core::{Reconfigurator, RegularAlgo, OverlayParams};
//!
//! let mut node = RegularAlgo::new(NodeId(0), OverlayParams::default());
//! let actions = node.start(SimTime::ZERO);
//! assert!(!actions.is_empty()); // the first discovery probe
//! ```

pub mod adversary;
pub mod api;
pub mod basic;
pub mod conn;
pub mod cycle;
pub mod hybrid;
pub mod msg;
pub mod params;
pub mod random;
pub mod regular;
pub mod testkit;
pub mod topology;
pub mod wire;

pub use adversary::AdversaryRole;
pub use api::{Reconfigurator, Role};
pub use basic::BasicAlgo;
pub use conn::{CloseReason, Conn, ConnKind, ConnState, ConnStats, ConnTable};
pub use cycle::ProbeCycle;
pub use hybrid::HybridAlgo;
pub use msg::{MsgCategory, OvAction, OverlayMsg, ProbeKind};
pub use params::OverlayParams;
pub use regular::RegularAlgo;
pub use wire::{decode_overlay, encode_overlay};

/// A boxed algorithm, for worlds mixing node behaviours.
pub type BoxedAlgo = Box<dyn Reconfigurator + Send>;

/// Which of the paper's four algorithms to run — scenario-level selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AlgoKind {
    /// Fig 1 baseline.
    Basic,
    /// Fig 2.
    Regular,
    /// Fig 3.
    Random,
    /// Fig 4.
    Hybrid,
}

impl AlgoKind {
    /// All four, in the paper's presentation order.
    pub const ALL: [AlgoKind; 4] = [
        AlgoKind::Basic,
        AlgoKind::Regular,
        AlgoKind::Random,
        AlgoKind::Hybrid,
    ];

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            AlgoKind::Basic => "Basic",
            AlgoKind::Regular => "Regular",
            AlgoKind::Random => "Random",
            AlgoKind::Hybrid => "Hybrid",
        }
    }
}

impl std::fmt::Display for AlgoKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Build a node's algorithm instance.
///
/// `qualifier` only matters for [`AlgoKind::Hybrid`]; `rng` only for
/// [`AlgoKind::Random`].
pub fn build_algo(
    kind: AlgoKind,
    id: manet_des::NodeId,
    params: OverlayParams,
    qualifier: u32,
    rng: manet_des::Rng,
) -> BoxedAlgo {
    match kind {
        AlgoKind::Basic => Box::new(BasicAlgo::new(id, params)),
        AlgoKind::Regular => Box::new(RegularAlgo::new(id, params)),
        AlgoKind::Random => Box::new(RegularAlgo::with_random_slot(id, params, rng)),
        AlgoKind::Hybrid => Box::new(HybridAlgo::new(id, params, qualifier)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_des::{NodeId, Rng, SimTime};

    #[test]
    fn build_algo_covers_all_kinds() {
        for kind in AlgoKind::ALL {
            let mut algo = build_algo(kind, NodeId(1), OverlayParams::default(), 42, Rng::new(7));
            let out = algo.start(SimTime::ZERO);
            assert!(
                !out.is_empty(),
                "{kind} should emit discovery traffic on start"
            );
            assert!(algo.neighbors().is_empty());
        }
    }

    #[test]
    fn algo_names_match_paper() {
        assert_eq!(AlgoKind::Basic.name(), "Basic");
        assert_eq!(AlgoKind::Regular.to_string(), "Regular");
        assert_eq!(AlgoKind::Random.name(), "Random");
        assert_eq!(AlgoKind::Hybrid.name(), "Hybrid");
    }

    #[test]
    fn roles_start_correctly() {
        let basic = BasicAlgo::new(NodeId(0), OverlayParams::default());
        assert_eq!(basic.role(), Role::Servent);
        let hybrid = HybridAlgo::new(NodeId(0), OverlayParams::default(), 1);
        assert_eq!(hybrid.role(), Role::Initial);
    }
}
