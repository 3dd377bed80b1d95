//! Node churn as a subsystem: members alternate up/down with
//! exponentially distributed dwell times on a dedicated RNG stream.

use manet_des::{Rng, SimDuration, SimTime};
use manet_obs::Severity;

use crate::engine::{SubCtx, SubEvent, Subsystem};
use crate::scenario::ChurnCfg;
use crate::stack;

/// The churn process. `Node(id)` events switch a member off,
/// `NodeAlt(id)` events bring it back.
pub(crate) struct ChurnDriver {
    cfg: ChurnCfg,
    rng: Rng,
}

impl ChurnDriver {
    pub(crate) fn new(cfg: ChurnCfg, rng: Rng) -> Self {
        ChurnDriver { cfg, rng }
    }
}

impl Subsystem for ChurnDriver {
    fn init(&mut self, ctx: &mut SubCtx<'_>) {
        // One initial up-dwell per member, in member order.
        for i in 0..ctx.core.members.len() {
            let id = ctx.core.members[i];
            let up = self.rng.exponential(self.cfg.mean_uptime);
            ctx.schedule(SimTime::from_secs_f64(up), SubEvent::Node(id));
        }
    }

    fn handle(&mut self, ctx: &mut SubCtx<'_>, now: SimTime, ev: SubEvent) {
        match ev {
            SubEvent::Node(id) => {
                // The overlay presence dies with the radio; peers discover
                // via failed pings.
                stack::overlay::power_off(ctx.core, now, id);
                ctx.core.obs_record(now, Severity::Warn, "churn", || {
                    format!("{id} churned down")
                });
                let down = self.rng.exponential(self.cfg.mean_downtime);
                ctx.schedule(
                    now + SimDuration::from_secs_f64(down),
                    SubEvent::NodeAlt(id),
                );
            }
            SubEvent::NodeAlt(id) => {
                stack::overlay::power_on(ctx.core, now, id);
                ctx.core
                    .obs_record(now, Severity::Info, "churn", || format!("{id} churned up"));
                let up = self.rng.exponential(self.cfg.mean_uptime);
                ctx.schedule(now + SimDuration::from_secs_f64(up), SubEvent::Node(id));
                stack::resched_timer(ctx.core, now, id);
            }
            SubEvent::Tick => {}
        }
    }
}
