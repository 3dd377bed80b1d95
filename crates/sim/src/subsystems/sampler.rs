//! Periodic small-world snapshots of the overlay graph.

use manet_des::{SimDuration, SimTime};
use manet_graph::small_world;

use crate::engine::{SubCtx, SubEvent, Subsystem};

/// Samples the overlay graph's small-world metrics on a fixed cadence.
pub(crate) struct SmallWorldSampler {
    period: SimDuration,
}

impl SmallWorldSampler {
    pub(crate) fn new(period: SimDuration) -> Self {
        SmallWorldSampler { period }
    }
}

impl Subsystem for SmallWorldSampler {
    fn init(&mut self, ctx: &mut SubCtx<'_>) {
        ctx.schedule(SimTime::ZERO + self.period, SubEvent::Tick);
    }

    fn handle(&mut self, ctx: &mut SubCtx<'_>, now: SimTime, ev: SubEvent) {
        let SubEvent::Tick = ev else { return };
        let graph = ctx.core.overlay_graph(ctx.stacks);
        if let Some(sw) = small_world(&graph) {
            ctx.core.smallworld.push((now.as_secs_f64(), sw));
        }
        ctx.schedule(now + self.period, SubEvent::Tick);
    }
}
