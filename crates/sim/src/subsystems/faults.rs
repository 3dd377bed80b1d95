//! The fault plan's processes: loss bursts, scripted crashes, link flaps
//! and delay spikes. The window processes flip the shared
//! [`LinkState`](crate::world::LinkState) flags, from which
//! [`WorldCore::active_faults`] composes the impairment of every
//! transmission.

use manet_des::{SimDuration, SimTime};
use manet_obs::Severity;
use p2p_stack::StackMachine;

use crate::engine::Event;
use crate::faults::BurstCfg;
use crate::stack;
use crate::world::{LinkState, WorldCore};

/// Schedule the plan's first events: the first burst boundary, every
/// crash in plan order, the first flap and the first delay spike.
pub(crate) fn seed(core: &mut WorldCore) {
    if let Some(burst) = burst_cfg(core) {
        let quiet = core.burst_rng.exponential(burst.mean_quiet);
        core.engine
            .schedule(SimTime::from_secs_f64(quiet), Event::Burst);
    }
    let plan = &core.scenario.faults;
    for crash in &plan.crashes {
        core.engine.schedule(crash.at, Event::Crash(crash.node));
    }
    if let Some(flaps) = plan.link_flaps {
        core.engine
            .schedule(SimTime::ZERO + flaps.period, Event::Flap);
    }
    if let Some(jitter) = plan.jitter {
        core.engine
            .schedule(SimTime::ZERO + jitter.period, Event::Jitter);
    }
}

/// The two-state (Gilbert-style) burst process changes state; its dwell
/// times are exponential on `WorldCore::burst_rng`.
pub(crate) fn burst(core: &mut WorldCore, now: SimTime) {
    let on = toggle(core, now, |s| &mut s.burst_on, "loss burst");
    let burst = burst_cfg(core).expect("bursts are configured");
    let mean = if on {
        burst.mean_burst
    } else {
        burst.mean_quiet
    };
    let dwell = core.burst_rng.exponential(mean);
    core.engine
        .schedule(now + SimDuration::from_secs_f64(dwell), Event::Burst);
}

/// A whole-medium outage window opens or closes.
pub(crate) fn flap(core: &mut WorldCore, now: SimTime) {
    let on = toggle(core, now, |s| &mut s.flap_on, "link flap");
    let flaps = core
        .scenario
        .faults
        .link_flaps
        .expect("flaps are configured");
    let next = if on {
        flaps.down
    } else {
        flaps.period - flaps.down
    };
    core.engine.schedule(now + next, Event::Flap);
}

/// A delay-spike window opens or closes.
pub(crate) fn jitter(core: &mut WorldCore, now: SimTime) {
    let on = toggle(core, now, |s| &mut s.jitter_on, "delay spike");
    let jitter = core.scenario.faults.jitter.expect("jitter is configured");
    let next = if on {
        jitter.width
    } else {
        jitter.period - jitter.width
    };
    core.engine.schedule(now + next, Event::Jitter);
}

/// A scripted crash: the node switches off, and reboots later if its
/// plan entry says so.
pub(crate) fn crash(core: &mut WorldCore, stack: &mut StackMachine, now: SimTime) {
    let id = stack.id();
    let restart_after = core
        .scenario
        .faults
        .crashes
        .iter()
        .find(|c| c.node == id && c.at <= now)
        .and_then(|c| c.restart_after);
    stack::power_off(core, stack);
    core.obs_record(now, Severity::Warn, "crash", || format!("{id} crashed"));
    if let Some(after) = restart_after {
        core.engine.schedule(now + after, Event::Restart(id));
    }
}

/// A crashed node reboots: fresh overlay state, same identity and files
/// — exactly like churn recovery.
pub(crate) fn restart(core: &mut WorldCore, stack: &mut StackMachine, now: SimTime) {
    let id = stack.id();
    stack::power_on(core, stack, now);
    core.obs_record(now, Severity::Info, "crash", || format!("{id} restarted"));
    stack.rearm(core, now);
}

fn burst_cfg(core: &WorldCore) -> Option<BurstCfg> {
    core.scenario.faults.loss.and_then(|l| l.burst)
}

/// Flip one fault-window flag and log the edge; returns the new state.
fn toggle(
    core: &mut WorldCore,
    now: SimTime,
    flag: fn(&mut LinkState) -> &mut bool,
    what: &'static str,
) -> bool {
    let flag = flag(&mut core.link_state);
    *flag = !*flag;
    let on = *flag;
    core.obs_record(now, Severity::Warn, "fault", || {
        format!("{what} {}", if on { "started" } else { "ended" })
    });
    on
}
