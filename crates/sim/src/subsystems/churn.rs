//! Node churn: members alternate up/down with exponentially distributed
//! dwell times on a dedicated RNG stream (`WorldCore::churn_rng`).

use manet_des::{SimDuration, SimTime};
use manet_obs::Severity;
use p2p_stack::StackMachine;

use crate::engine::Event;
use crate::scenario::ChurnCfg;
use crate::stack;
use crate::world::WorldCore;

/// Schedule one initial up-dwell per member, in member order.
pub(crate) fn seed(core: &mut WorldCore) {
    let Some(cfg) = core.scenario.churn else {
        return;
    };
    for &id in &core.members {
        let up = core.churn_rng.exponential(cfg.mean_uptime);
        core.engine
            .schedule(SimTime::from_secs_f64(up), Event::ChurnDown(id));
    }
}

/// A member's up-dwell ended: it switches off. The overlay presence dies
/// with the radio; peers discover via failed pings.
pub(crate) fn down(core: &mut WorldCore, stack: &mut StackMachine, now: SimTime) {
    let id = stack.id();
    stack::power_off(core, stack);
    core.obs_record(now, Severity::Warn, "churn", || {
        format!("{id} churned down")
    });
    let down = core.churn_rng.exponential(cfg(core).mean_downtime);
    core.engine
        .schedule(now + SimDuration::from_secs_f64(down), Event::ChurnUp(id));
}

/// A member's down-dwell ended: it switches back on and rejoins.
pub(crate) fn up(core: &mut WorldCore, stack: &mut StackMachine, now: SimTime) {
    let id = stack.id();
    stack::power_on(core, stack, now);
    core.obs_record(now, Severity::Info, "churn", || format!("{id} churned up"));
    let up = core.churn_rng.exponential(cfg(core).mean_uptime);
    core.engine
        .schedule(now + SimDuration::from_secs_f64(up), Event::ChurnDown(id));
    stack.rearm(core, now);
}

fn cfg(core: &WorldCore) -> ChurnCfg {
    core.scenario.churn.expect("churn is configured")
}
