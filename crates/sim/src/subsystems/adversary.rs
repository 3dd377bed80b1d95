//! The query-flooder adversary: a subsystem injecting synthetic queries.
//!
//! Black/grey-holes, RREQ amplifiers and selfish peers act *inside* the
//! per-node stack (they rewrite traffic the honest protocol produced);
//! query flooding instead needs its own clock — a flooding member emits
//! bursts on a fixed period regardless of what its query engine is doing.
//! That makes it a [`Subsystem`] like churn or the fault drivers, with
//! the crucial difference that it draws **no randomness**: periods are
//! fixed and targets round-robin the catalogue, so registering the
//! subsystem perturbs nothing beyond the traffic it injects (and worlds
//! without flooders never register it at all).

use manet_des::{NodeId, SimDuration, SimTime, TraceCtx};
use p2p_content::{ContentMsg, FileId, QueryId};

use crate::engine::{SubCtx, SubEvent, Subsystem};
use crate::stack::OverlayDown;

/// Flooder query sequence numbers start here, far above anything a real
/// [`QueryEngine`](p2p_content::QueryEngine) issues (engines count up
/// from zero), so synthetic query ids never collide with honest ones.
const FLOOD_SEQ_BASE: u32 = 0x8000_0000;

/// Drives every `query-flooder` adversary of the scenario.
pub(crate) struct QueryFlooderDriver {
    /// `(node, period, queries injected so far)` per flooder.
    flooders: Vec<(NodeId, SimDuration, u32)>,
}

impl QueryFlooderDriver {
    pub(crate) fn new(flooders: Vec<(NodeId, SimDuration)>) -> Self {
        QueryFlooderDriver {
            flooders: flooders.into_iter().map(|(n, p)| (n, p, 0)).collect(),
        }
    }
}

impl Subsystem for QueryFlooderDriver {
    fn init(&mut self, ctx: &mut SubCtx<'_>) {
        for &(node, period, _) in &self.flooders {
            ctx.schedule(SimTime::ZERO + period, SubEvent::Node(node));
        }
    }

    fn handle(&mut self, ctx: &mut SubCtx<'_>, now: SimTime, ev: SubEvent) {
        let SubEvent::Node(id) = ev else { return };
        let slot = self
            .flooders
            .iter_mut()
            .find(|(n, _, _)| *n == id)
            .expect("flooder event for unregistered node");
        let period = slot.1;
        ctx.schedule(now + period, SubEvent::Node(id));
        let core = &mut *ctx.core;
        let node = &core.nodes[id.index()];
        if !node.phy.up || !node.is_joined() {
            return; // powered-off or not-yet-joined flooders stay quiet
        }
        let neighbors = node
            .overlay
            .member
            .as_ref()
            .expect("joined member")
            .algo
            .neighbors();
        if neighbors.is_empty() {
            return;
        }
        let seq = FLOOD_SEQ_BASE + slot.2;
        slot.2 += 1;
        let n_files = core.scenario.catalog.n_files.max(1);
        let msg = ContentMsg::Query {
            id: QueryId { origin: id, seq },
            file: FileId((slot.2 % n_files as u32) as u16),
            ttl: core.scenario.query.ttl,
            p2p_hops: 0,
        };
        for to in neighbors {
            crate::stack::routing::overlay_down(
                core,
                now,
                id,
                OverlayDown::Content {
                    to,
                    msg: msg.clone(),
                    ctx: TraceCtx::NONE,
                },
            );
        }
        crate::stack::resched_timer(core, now, id);
    }
}
