//! The query-flooder adversary: a process injecting synthetic queries.
//!
//! Black/grey-holes, RREQ amplifiers and selfish peers act *inside* the
//! node's [`StackMachine`] (they rewrite traffic the honest protocol
//! produced); query flooding instead needs its own clock — a flooding
//! member emits bursts on a fixed period regardless of what its query
//! engine is doing. It draws **no randomness**: periods are fixed and
//! targets round-robin the catalogue, so a flooder perturbs nothing beyond
//! the traffic it injects (and worlds without flooders schedule nothing).

use manet_des::{SimTime, TraceCtx};
use p2p_content::{ContentMsg, FileId, QueryId};
use p2p_core::AdversaryRole;
use p2p_stack::{OverlayDown, StackMachine};

use crate::engine::Event;
use crate::world::WorldCore;

/// Flooder query sequence numbers start here, far above anything a real
/// [`QueryEngine`](p2p_content::QueryEngine) issues (engines count up
/// from zero), so synthetic query ids never collide with honest ones.
const FLOOD_SEQ_BASE: u32 = 0x8000_0000;

/// Schedule every flooder's first burst one period in, in scenario order.
pub(crate) fn seed(core: &mut WorldCore) {
    for a in &core.scenario.adversaries {
        if let AdversaryRole::QueryFlooder { period } = a.role {
            core.engine
                .schedule(SimTime::ZERO + period, Event::Flood(a.node));
        }
    }
}

/// A flooder's burst is due: schedule the next one, then, if the node is
/// up and joined, send one fresh query to every overlay neighbour.
pub(crate) fn flood(core: &mut WorldCore, stack: &mut StackMachine, now: SimTime) {
    let id = stack.id();
    let period = core
        .scenario
        .adversaries
        .iter()
        .find_map(|a| match a.role {
            AdversaryRole::QueryFlooder { period } if a.node == id => Some(period),
            _ => None,
        })
        .expect("flood event for a query flooder");
    core.engine.schedule(now + period, Event::Flood(id));
    if !core.hot_up[id.index()] || !stack.is_joined() {
        return; // powered-off or not-yet-joined flooders stay quiet
    }
    let neighbors = stack.neighbors();
    if neighbors.is_empty() {
        return;
    }
    let sent = &mut core.flood_sent[id.index()];
    let seq = FLOOD_SEQ_BASE + *sent;
    *sent += 1;
    let n_files = core.scenario.catalog.n_files.max(1);
    let msg = ContentMsg::Query {
        id: QueryId { origin: id, seq },
        file: FileId((*sent % n_files as u32) as u16),
        ttl: core.scenario.query.ttl,
        p2p_hops: 0,
    };
    for to in neighbors {
        stack.overlay_down(
            core,
            now,
            OverlayDown::Content {
                to,
                msg: msg.clone(),
                ctx: TraceCtx::NONE,
            },
        );
    }
    stack.rearm(core, now);
}
