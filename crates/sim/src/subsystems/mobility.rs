//! Mobility: position epochs and periodic refreshes.

use manet_des::{NodeId, SimTime};
use manet_mobility::Mobility;

use crate::engine::Event;
use crate::world::WorldCore;

/// A node's re-evaluation fired: advance its mobility epoch if that one
/// ended, refresh its spatial-grid position, and schedule the next
/// re-evaluation.
pub(crate) fn on_move(core: &mut WorldCore, id: NodeId, now: SimTime) {
    let pos = {
        let m = &mut core.mobility[id.index()];
        if m.epoch_end() <= now {
            m.advance(now, &mut core.mob_rngs[id.index()]);
        }
        m.position(now)
    };
    core.grid.upsert(id.0, pos);
    schedule_next(core, id, now);
}

/// Schedule the next position re-evaluation: the epoch end, or a
/// periodic refresh while the node is actually moving.
pub(crate) fn schedule_next(core: &mut WorldCore, id: NodeId, now: SimTime) {
    let at = {
        let m = &core.mobility[id.index()];
        let epoch_end = m.epoch_end();
        if epoch_end == SimTime::MAX {
            return; // stationary forever
        }
        let refresh = now + core.scenario.position_refresh;
        let moving = m.position(now) != m.position(refresh.min(epoch_end));
        if moving {
            refresh.min(epoch_end)
        } else {
            epoch_end
        }
    };
    core.engine.schedule(at.max(now), Event::Move(id));
}
