//! # p2p-stack — the substrate-neutral node stack
//!
//! Everything a per-node protocol stack is, minus any opinion about what
//! executes it. The same types and the same machine run on both of the
//! workspace's substrates, each of which implements [`StackHost`]:
//!
//! * the DES (`manet-sim`), where frames travel as in-memory structs over
//!   a modelled radio and "now" is virtual;
//! * the real-time driver (`manet-rt`), where frames are UDP datagrams
//!   and "now" is elapsed wall-clock microseconds.
//!
//! Six pieces:
//!
//! * [`payload`] — [`AppMsg`], the union of overlay and content messages
//!   the routing layer carries;
//! * [`verbs`] — the typed inter-layer verbs: [`FrameUp`], [`SendDown`]
//!   and [`TimerReq`] cross the [`StackHost`] boundary, [`OverlayDown`]
//!   injects traffic above routing, and `DeliverUp` stays inside the
//!   machine;
//! * [`wire`] — the byte-exact frame codec turning a [`FrameUp`] into a
//!   datagram and back;
//! * [`machine`] — [`StackMachine`], the AODV + reconfigurator + query
//!   engine composition with adversarial interception, and
//!   [`StackHost`], the trait a substrate implements to run it;
//! * [`trace`] — [`TraceLog`], the bounded causal trace both substrates
//!   record into, as `manet_obs::CausalEvent`s, and its JSONL form;
//! * [`telemetry`] — how one node's `ObsReport` + [`TraceLog`] cross a
//!   process boundary (as the JSONL both already write), and the
//!   clock-offset estimator that stitches per-process traces into one
//!   timeline.

pub mod machine;
pub mod payload;
pub mod telemetry;
pub mod trace;
pub mod verbs;
pub mod wire;

pub use machine::{trace_send, StackHost, StackMachine};
pub use payload::AppMsg;
pub use telemetry::stitch_clocks;
pub use trace::{node_id_base, TraceLog};
pub use verbs::{FrameUp, OverlayDown, SendDown, TimerReq};
pub use wire::{decode_frame, encode_frame};
