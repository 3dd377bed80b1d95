//! The fault plan as subsystems: loss bursts, scripted crashes, link
//! flaps and delay spikes — each an independent process with its own
//! event namespace. The composed impairment for a transmission is read
//! from the shared [`LinkState`](crate::world::LinkState) flags by
//! [`WorldCore::active_faults`](crate::world::WorldCore::active_faults).

use manet_des::{Rng, SimDuration, SimTime};
use manet_obs::Severity;

use crate::engine::{SubCtx, SubEvent, Subsystem};
use crate::faults::{BurstCfg, CrashEvent, JitterSpikes, LinkFlaps};
use crate::stack;

/// Two-state (Gilbert-style) burst modulation of the extra packet loss.
pub(crate) struct LossBursts {
    burst: BurstCfg,
    rng: Rng,
}

impl LossBursts {
    pub(crate) fn new(burst: BurstCfg, rng: Rng) -> Self {
        LossBursts { burst, rng }
    }
}

impl Subsystem for LossBursts {
    fn init(&mut self, ctx: &mut SubCtx<'_>) {
        let quiet = self.rng.exponential(self.burst.mean_quiet);
        ctx.schedule(SimTime::from_secs_f64(quiet), SubEvent::Tick);
    }

    fn handle(&mut self, ctx: &mut SubCtx<'_>, now: SimTime, ev: SubEvent) {
        let SubEvent::Tick = ev else { return };
        ctx.core.link_state.burst_on = !ctx.core.link_state.burst_on;
        let on = ctx.core.link_state.burst_on;
        ctx.core.obs_record(now, Severity::Warn, "fault", || {
            format!("loss burst {}", if on { "started" } else { "ended" })
        });
        let mean = if on {
            self.burst.mean_burst
        } else {
            self.burst.mean_quiet
        };
        let dwell = self.rng.exponential(mean);
        ctx.schedule(now + SimDuration::from_secs_f64(dwell), SubEvent::Tick);
    }
}

/// Scripted node crashes and restarts. `Node(id)` crashes, `NodeAlt(id)`
/// reboots (fresh overlay state, same identity and files — exactly like
/// churn recovery).
pub(crate) struct CrashPlan {
    crashes: Vec<CrashEvent>,
}

impl CrashPlan {
    pub(crate) fn new(crashes: Vec<CrashEvent>) -> Self {
        CrashPlan { crashes }
    }
}

impl Subsystem for CrashPlan {
    fn init(&mut self, ctx: &mut SubCtx<'_>) {
        for i in 0..self.crashes.len() {
            let crash = self.crashes[i];
            ctx.schedule(crash.at, SubEvent::Node(crash.node));
        }
    }

    fn handle(&mut self, ctx: &mut SubCtx<'_>, now: SimTime, ev: SubEvent) {
        match ev {
            SubEvent::Node(id) => {
                let restart_after = self
                    .crashes
                    .iter()
                    .find(|c| c.node == id && c.at <= now)
                    .and_then(|c| c.restart_after);
                stack::power_off(ctx.core, &mut ctx.stacks[id.index()]);
                ctx.core
                    .obs_record(now, Severity::Warn, "crash", || format!("{id} crashed"));
                if let Some(after) = restart_after {
                    ctx.schedule(now + after, SubEvent::NodeAlt(id));
                }
            }
            SubEvent::NodeAlt(id) => {
                stack::power_on(ctx.core, &mut ctx.stacks[id.index()], now);
                ctx.core
                    .obs_record(now, Severity::Info, "crash", || format!("{id} restarted"));
                ctx.stacks[id.index()].rearm(ctx.core, now);
            }
            SubEvent::Tick => {}
        }
    }
}

/// Periodic whole-medium outage windows.
pub(crate) struct FlapDriver {
    flaps: LinkFlaps,
}

impl FlapDriver {
    pub(crate) fn new(flaps: LinkFlaps) -> Self {
        FlapDriver { flaps }
    }
}

impl Subsystem for FlapDriver {
    fn init(&mut self, ctx: &mut SubCtx<'_>) {
        ctx.schedule(SimTime::ZERO + self.flaps.period, SubEvent::Tick);
    }

    fn handle(&mut self, ctx: &mut SubCtx<'_>, now: SimTime, ev: SubEvent) {
        let SubEvent::Tick = ev else { return };
        ctx.core.link_state.flap_on = !ctx.core.link_state.flap_on;
        let on = ctx.core.link_state.flap_on;
        ctx.core.obs_record(now, Severity::Warn, "fault", || {
            format!("link flap {}", if on { "started" } else { "ended" })
        });
        let next = if on {
            self.flaps.down
        } else {
            self.flaps.period - self.flaps.down
        };
        ctx.schedule(now + next, SubEvent::Tick);
    }
}

/// Periodic windows of extra fixed delivery delay.
pub(crate) struct JitterDriver {
    jitter: JitterSpikes,
}

impl JitterDriver {
    pub(crate) fn new(jitter: JitterSpikes) -> Self {
        JitterDriver { jitter }
    }
}

impl Subsystem for JitterDriver {
    fn init(&mut self, ctx: &mut SubCtx<'_>) {
        ctx.schedule(SimTime::ZERO + self.jitter.period, SubEvent::Tick);
    }

    fn handle(&mut self, ctx: &mut SubCtx<'_>, now: SimTime, ev: SubEvent) {
        let SubEvent::Tick = ev else { return };
        ctx.core.link_state.jitter_on = !ctx.core.link_state.jitter_on;
        let on = ctx.core.link_state.jitter_on;
        ctx.core.obs_record(now, Severity::Warn, "fault", || {
            format!("delay spike {}", if on { "started" } else { "ended" })
        });
        let next = if on {
            self.jitter.width
        } else {
            self.jitter.period - self.jitter.width
        };
        ctx.schedule(now + next, SubEvent::Tick);
    }
}
