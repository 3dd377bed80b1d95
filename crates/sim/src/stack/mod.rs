//! The per-node protocol stack: three explicit layers plus mobility.
//!
//! ```text
//!   overlay   Reconfigurator + QueryEngine      (crate::stack::overlay)
//!      ↑ DeliverUp            ↓ OverlayDown
//!   routing   AODV state machine                (crate::stack::routing)
//!      ↑ FrameUp              ↓ SendDown
//!   phy       radio stats + energy meter        (crate::stack::phy)
//! ```
//!
//! Layers communicate exclusively through the typed verbs defined here;
//! no layer reaches into another's fields. The adapters are free
//! functions over `&mut WorldCore` rather than methods on a borrowed
//! [`NodeStack`]: action execution is depth-first and immediate (an AODV
//! broadcast draws from the shared radio RNG *before* the next action
//! runs), so the adapters need the whole core — nodes, medium, RNG and
//! event queue — at every hop of the cascade.

pub(crate) mod overlay;
pub(crate) mod phy;
pub(crate) mod routing;

use manet_aodv::Aodv;
use manet_des::{NodeId, SimTime, Substrate, TraceCtx};
use manet_radio::{EnergyMeter, PhyStats};
use p2p_content::QueryEngine;
use p2p_core::{AdversaryRole, BoxedAlgo, Role};
use p2p_stack::{AppMsg, TraceEvent};

use crate::world::WorldCore;

// ---------------------------------------------------------------------
// Inter-layer verbs
// ---------------------------------------------------------------------
// The verbs themselves live in the substrate-neutral `p2p-stack` crate —
// they are the *only* boundary either substrate (this DES or the
// real-time driver) may cross, so both hosts import the same types.
pub(crate) use p2p_stack::{DeliverUp, FrameUp, OverlayDown, SendDown, TimerReq};

// ---------------------------------------------------------------------
// Layers
// ---------------------------------------------------------------------

/// Physical layer: radio accounting and the energy budget.
pub(crate) struct PhyLayer {
    pub(crate) stats: PhyStats,
    pub(crate) energy: EnergyMeter,
    /// Radio on/off (churn, crashes, battery depletion).
    pub(crate) up: bool,
}

/// Routing layer: the AODV state machine and the combined-timer slot.
pub(crate) struct RoutingLayer {
    pub(crate) aodv: Aodv<AppMsg>,
    /// Earliest scheduled NodeTimer (MAX = none) — avoids event storms.
    pub(crate) timer_at: SimTime,
}

/// Overlay-member state (reconfiguration algorithm + query engine).
pub(crate) struct MemberState {
    pub(crate) algo: BoxedAlgo,
    pub(crate) engine: QueryEngine,
    pub(crate) joined: bool,
    /// Seed to rebuild the algorithm after churn or a crash restart.
    pub(crate) algo_seed: u64,
    pub(crate) qualifier: u32,
    /// Trace support: last observed neighbor set and role, for deltas.
    pub(crate) last_neighbors: Vec<NodeId>,
    pub(crate) last_role: Role,
}

/// Overlay layer: present only on members.
pub(crate) struct OverlayLayer {
    pub(crate) member: Option<MemberState>,
}

/// Adversarial behaviour attached to one node (honest nodes carry none).
///
/// The role drives deterministic interception at the layer it subverts:
/// the routing adapter consults it when executing AODV actions
/// (black/grey-holes, RREQ amplification), the overlay adapter when
/// delivering content payloads (selfish peers). Query flooding is driven
/// by a dedicated subsystem and needs no per-frame state here.
pub(crate) struct AdversaryState {
    pub(crate) role: AdversaryRole,
    /// Forwarded payload frames seen so far — the grey-hole's deterministic
    /// drop counter.
    pub(crate) fwd_seen: u64,
}

impl AdversaryState {
    pub(crate) fn new(role: AdversaryRole) -> Self {
        AdversaryState { role, fwd_seen: 0 }
    }
}

/// One node's full stack, phy to overlay. The node's mobility process and
/// its RNG stream live in `WorldCore`'s SoA arrays (`mobility`,
/// `mob_rngs`), dense arrays the radio hot path reads.
pub(crate) struct NodeStack {
    pub(crate) phy: PhyLayer,
    pub(crate) routing: RoutingLayer,
    pub(crate) overlay: OverlayLayer,
    /// `Some` only on misbehaving nodes; `None` keeps the honest path
    /// bit-identical to a world without the adversary subsystem.
    pub(crate) adversary: Option<AdversaryState>,
}

impl NodeStack {
    /// Is this node a member that currently participates in the overlay?
    pub(crate) fn is_joined(&self) -> bool {
        self.overlay.member.as_ref().is_some_and(|m| m.joined)
    }

    /// The earliest wake any layer of this stack needs, as a typed
    /// [`TimerReq`]: the minimum over the routing, overlay and query
    /// timers (overlay/query only while joined).
    ///
    /// `trace_on` gates the extra scan attributing the wake to a waiting
    /// route discovery, keeping the untraced hot path unchanged.
    pub(crate) fn timer_request(&self, trace_on: bool) -> TimerReq {
        let aodv_wake = self.routing.aodv.next_wake();
        let mut wake = aodv_wake;
        if let Some(m) = &self.overlay.member {
            if m.joined {
                wake = wake.min(m.algo.next_wake()).min(m.engine.next_wake());
            }
        }
        let ctx = if trace_on && wake == aodv_wake {
            self.routing.aodv.next_wake_ctx()
        } else {
            TraceCtx::NONE
        };
        TimerReq { at: wake, ctx }
    }
}

// ---------------------------------------------------------------------
// Combined-timer plumbing
// ---------------------------------------------------------------------

/// The node's combined protocol timer fired: tick routing, then (for
/// joined members) the overlay and query layers, then re-arm.
pub(crate) fn node_timer(core: &mut WorldCore, now: SimTime, id: NodeId) {
    {
        let node = &mut core.nodes[id.index()];
        node.routing.timer_at = SimTime::MAX;
        if !node.phy.up {
            return;
        }
    }
    routing::tick(core, now, id);
    overlay::tick(core, now, id);
    resched_timer(core, now, id);
}

/// Re-arm the node's combined timer from the stack's [`TimerReq`], unless
/// an earlier (or equal) timer is already pending or the wake lies past
/// the horizon.
pub(crate) fn resched_timer(core: &mut WorldCore, now: SimTime, id: NodeId) {
    let trace_on = core.trace.enabled();
    let TimerReq { at: wake, ctx } = {
        let node = &core.nodes[id.index()];
        if !node.phy.up {
            return;
        }
        node.timer_request(trace_on)
    };
    let horizon = core.horizon();
    if wake >= core.nodes[id.index()].routing.timer_at || wake > horizon {
        return;
    }
    let at = wake.max(now);
    core.engine.arm_timer(id, at);
    core.nodes[id.index()].routing.timer_at = at;
    if ctx.is_active() {
        let armed = ctx.child(core.trace.alloc_span());
        core.trace.record(
            now,
            TraceEvent::TimerArm {
                node: id,
                ctx: armed,
                at,
            },
        );
    }
}
