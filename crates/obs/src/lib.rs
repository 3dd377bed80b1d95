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
//! The [`slab`] module is the hot-path half of the registry: plain
//! per-subsystem counter/histogram slabs whose per-event cost is a single
//! unsynchronized slot bump, folded into the registry at sample points.
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
//! (promoted from the bench harness); [`ObsReport::to_jsonl`] and the
//! failure dumps are built on it, and `bench` re-exports it for
//! `BENCH_RESULTS.json`.

pub mod causal;
pub mod intern;
pub mod json;
pub mod recorder;
pub mod registry;
pub mod report;
pub mod slab;
pub mod span;

pub use causal::{CausalEvent, CausalKind, CausalTree, PathBreakdown, TraceSummary};
pub use intern::intern;
pub use recorder::{FlightRecord, FlightRecorder, Severity};
pub use registry::{CounterId, GaugeId, HistId, Histogram, Registry};
pub use report::{ObsConfig, ObsReport};
pub use slab::{HistSlab, HistSlotId, Slab, SlotId};
pub use span::{SpanId, SpanProfile};
