//! # manet-sim — scenario orchestration and experiment harness
//!
//! Ties the substrate crates into runnable worlds and reproduces the
//! paper's evaluation (see DESIGN.md for the experiment index).

pub(crate) mod engine;
pub mod errors;
pub mod experiments;
pub mod faults;
pub mod invariants;
pub(crate) mod oracle;
pub mod runner;
pub mod scenario;
pub mod scn;
pub(crate) mod stack;
pub(crate) mod subsystems;
pub mod world;

pub use errors::ScenarioError;
pub use experiments::{run_matrix, run_matrix_traced, ExperimentCfg};
pub use faults::{BurstCfg, CrashEvent, FaultPlan, JitterSpikes, LinkFlaps, PacketLoss};
pub use invariants::{check_result, check_result_dumping};
pub use manet_des::TraceCtx;
pub use manet_obs::{ObsConfig, ObsReport};
pub use p2p_core::AdversaryRole;
pub use p2p_stack::{AppMsg, TraceLog};
pub use runner::{aggregate, expect_of, measure_corpus, run_replications, Aggregate};
pub use scenario::{Adversary, ChurnCfg, MobilityKind, Scenario};
pub use scn::{parse_scn, render_expect, render_scn, Expect, ScnError, ScnErrorKind, ScnFile};
pub use world::{RunResult, World};
