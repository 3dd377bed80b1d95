//! The typed inter-layer verbs.
//!
//! ```text
//!   overlay   Reconfigurator + QueryEngine
//!      ↑ DeliverUp            ↓ OverlayDown
//!   routing   AODV state machine
//!      ↑ FrameUp              ↓ SendDown
//!   phy       modelled radio (DES) · UDP socket (real-time)
//! ```
//!
//! Layers communicate exclusively through these typed verbs; no layer
//! reaches into another's fields. The substrate boundary is
//! [`StackHost`](crate::StackHost): a host hands each arriving frame to
//! the machine as a [`FrameUp`], and the machine hands back [`SendDown`]
//! frames and [`TimerReq`] wakes through the host's methods.
//! [`OverlayDown`] is also the entry point for traffic injected above
//! routing ([`StackMachine::overlay_down`](crate::StackMachine::overlay_down)).
//! `DeliverUp` never leaves the machine: it carries an AODV delivery to
//! the overlay inside one cascade.

use manet_aodv::Msg;
use manet_des::{NodeId, SimTime, TraceCtx};
use p2p_content::ContentMsg;
use p2p_core::OverlayMsg;

use crate::payload::AppMsg;

/// phy → routing: a frame survived the medium and arrived intact.
///
/// The causal context rides inside `msg` (see [`Msg::ctx`]); a tracing
/// substrate stamps its `Recv` span onto it before handing the frame up.
#[derive(Clone, Debug, PartialEq)]
pub struct FrameUp {
    /// The transmitting (previous-hop) node.
    pub from: NodeId,
    /// The frame itself.
    pub msg: Msg<AppMsg>,
}

/// routing → phy: put a frame on the air. The causal context rides
/// inside `msg`; a tracing substrate records the `Send` span and
/// re-stamps it.
#[derive(Clone, Debug, PartialEq)]
pub enum SendDown {
    /// One-hop broadcast to everyone in range.
    Broadcast(Msg<AppMsg>),
    /// One-hop unicast to a specific neighbor.
    Unicast {
        /// The next-hop neighbor.
        to: NodeId,
        /// The frame itself.
        msg: Msg<AppMsg>,
    },
}

/// routing → overlay: an application payload reached its destination.
#[derive(Clone, Debug)]
pub(crate) struct DeliverUp {
    /// Originator of the payload.
    pub(crate) src: NodeId,
    /// Ad-hoc hops travelled.
    pub(crate) hops: u8,
    /// Arrived via a hop-limited flood (true) or a routed unicast.
    pub(crate) flood: bool,
    /// The payload itself.
    pub(crate) payload: AppMsg,
    /// Causal context the payload travelled with.
    pub(crate) ctx: TraceCtx,
}

/// overlay → routing: send an application payload across the MANET under
/// a causal context (the minting overlay event, or [`TraceCtx::NONE`]).
#[derive(Clone, Debug)]
pub enum OverlayDown {
    /// Hop-limited flood of a (re)configuration message.
    Flood {
        /// Ad-hoc hop radius.
        ttl: u8,
        /// The message to flood.
        msg: OverlayMsg,
        /// Causal context of the minting event.
        ctx: TraceCtx,
    },
    /// Routed (re)configuration unicast.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message to deliver.
        msg: OverlayMsg,
        /// Causal context of the minting event.
        ctx: TraceCtx,
    },
    /// Routed content (query-layer) unicast.
    Content {
        /// Destination node.
        to: NodeId,
        /// The message to deliver.
        msg: ContentMsg,
        /// Causal context of the minting event.
        ctx: TraceCtx,
    },
}

/// any layer → substrate: earliest instant this stack needs its combined
/// timer to fire, and on whose causal behalf (a pending route-discovery
/// retry names the query waiting on it; [`TraceCtx::NONE`] otherwise).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerReq {
    /// The requested wake instant ([`SimTime::MAX`] = nothing pending).
    pub at: SimTime,
    /// Causal context of the wake, for tracing substrates.
    pub ctx: TraceCtx,
}
