//! Periodic small-world snapshots of the overlay graph.

use manet_des::SimTime;
use manet_graph::small_world;
use p2p_stack::StackMachine;

use crate::engine::Event;
use crate::world::WorldCore;

/// Schedule the first snapshot one period in, if the scenario samples.
pub(crate) fn seed(core: &mut WorldCore) {
    if let Some(period) = core.scenario.smallworld_sample {
        core.engine
            .schedule(SimTime::ZERO + period, Event::SmallWorld);
    }
}

/// Take a snapshot of the overlay's small-world metrics and schedule the
/// next one.
pub(crate) fn sample(core: &mut WorldCore, stacks: &[StackMachine], now: SimTime) {
    let graph = core.overlay_graph(stacks);
    if let Some(sw) = small_world(&graph) {
        core.smallworld.push((now.as_secs_f64(), sw));
    }
    let period = core
        .scenario
        .smallworld_sample
        .expect("sampling is configured");
    core.engine.schedule(now + period, Event::SmallWorld);
}
