//! # p2p-adhoc — P2P (re)configuration over simulated mobile ad-hoc networks
//!
//! A from-scratch Rust reproduction of *"Peer-to-Peer over Ad-hoc Networks:
//! (Re)Configuration Algorithms"* (Franciscani, Vasconcelos, Couto,
//! Loureiro — IPDPS 2003): the four overlay (re)configuration algorithms
//! plus every substrate the paper's evaluation needs — a deterministic
//! discrete-event simulator standing in for ns-2, AODV routing with the
//! authors' controlled-broadcast patch, mobility models, a range-based
//! radio with energy accounting, the Gnutella-like query workload with a
//! Zipf catalogue, and the measurement/analysis stack that regenerates the
//! paper's figures.
//!
//! This crate is a facade: it re-exports the workspace crates under stable
//! names and hosts the runnable examples and cross-crate integration tests.
//!
//! ## Quick start
//!
//! ```
//! use p2p_adhoc::prelude::*;
//!
//! // One replication of the paper's 50-node scenario with the Regular
//! // algorithm, shortened to two simulated minutes:
//! let scenario = Scenario::quick(50, AlgoKind::Regular, 120);
//! let result = World::new(scenario, 42).run();
//! println!(
//!     "{} members, {} queries, {} answers",
//!     result.members.len(),
//!     result.queries_issued,
//!     result.answers_received
//! );
//! ```
//!
//! See `examples/` for full scenarios and DESIGN.md for the architecture.

pub use manet_aodv as aodv;
pub use manet_des as des;
pub use manet_geom as geom;
pub use manet_graph as graph;
pub use manet_metrics as metrics;
pub use manet_mobility as mobility;
pub use manet_obs as obs;
pub use manet_radio as radio;
pub use manet_rt as rt;
pub use manet_sim as sim;
pub use p2p_content as content;
pub use p2p_core as core;
pub use p2p_stack as stack;

/// The most common imports in one place.
pub mod prelude {
    pub use manet_des::{NodeId, Rng, SimDuration, SimTime};
    pub use manet_sim::{
        check_result, run_matrix, run_replications, AppMsg, ChurnCfg, ExperimentCfg, FaultPlan,
        MobilityKind, RunResult, Scenario, World,
    };
    pub use p2p_content::{Catalog, FileId, QueryCfg};
    pub use p2p_core::{AlgoKind, OverlayParams, Reconfigurator, Role};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_quickstart_compiles_and_runs() {
        let scenario = Scenario::quick(10, AlgoKind::Basic, 30);
        let expect = scenario.n_members();
        let result = World::new(scenario, 1).run();
        assert_eq!(result.members.len(), expect);
    }
}
