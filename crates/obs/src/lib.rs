//! # manet-obs — dependency-free observability
//!
//! The measurement substrate for the simulator (see DESIGN.md,
//! "Observability"). Three pillars, all plain data with no external
//! dependencies and no knowledge of the simulation crates:
//!
//! * [`Registry`] — named counters, gauges and log-bucketed histograms,
//!   sampled on a sim-time cadence into per-run time series;
//! * [`SpanProfile`] — scoped wall-clock timers over hot-path regions,
//!   aggregated into a per-phase profile;
//! * [`FlightRecorder`] — a severity-tagged ring buffer of protocol
//!   occurrences, dumped as JSONL when a run fails its invariants.
//!
//! The [`causal`] module is the analysis half of causal query tracing:
//! it rebuilds per-trace causal trees from the simulator's parent-linked
//! event stream, decomposes per-query latency (route-discovery wait vs.
//! radio transit vs. processing), and exports Chrome trace-event /
//! Perfetto-loadable JSON artifacts.
//!
//! [`ObsReport`] bundles the three for one finished run and merges
//! deterministically across replications; [`ObsConfig`] is the switch the
//! simulation layer consults — on by default, since the observed hot path
//! is held within a few percent of the bare one by the perf gate.
//! Everything here is passive: when the sink is disabled the instrumented
//! code dispatches to a precomputed no-op sink and does no work, so
//! toggling observability never changes simulation results — only
//! wall-clock.
//!
//! The [`json`] module is the workspace's hand-rolled JSON reader/writer
//! (promoted from the bench harness). JSONL is the one serialization of a
//! report: [`ObsReport::to_jsonl`] writes failure dumps, `--obs-out` files
//! and what a swarm child ships, and [`ObsReport::from_jsonl`] reads any
//! of them back exactly. `bench` re-exports the module for
//! `BENCH_RESULTS.json`.

pub mod causal;
pub mod intern;
pub mod json;
pub mod recorder;
pub mod registry;
pub mod report;
pub mod span;

pub use causal::{CausalEvent, CausalKind, CausalTree, PathBreakdown, TraceSummary};
pub use intern::intern;
pub use recorder::{FlightRecord, FlightRecorder, Severity};
pub use registry::{CounterId, GaugeId, HistId, Histogram, Registry};
pub use report::{ObsConfig, ObsReport};
pub use span::{SpanId, SpanProfile};
