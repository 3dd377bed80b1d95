//! The pluggable cross-cutting processes of a world.
//!
//! Each implementor of [`Subsystem`](crate::engine::Subsystem) owns one
//! process — its private RNG stream, its schedule, its toggles — and
//! reacts to events in its own namespace. [`build`] registers them in a
//! fixed order that matches the event-seeding order of the original
//! monolithic world, which keeps initial-event insertion order (and with
//! it every timestamp tie-break) bit-identical.

mod adversary;
mod churn;
mod faults;
mod mobility;
mod sampler;

pub(crate) use adversary::QueryFlooderDriver;
pub(crate) use churn::ChurnDriver;
pub(crate) use faults::{CrashPlan, FlapDriver, JitterDriver, LossBursts};
pub(crate) use mobility::MobilityDriver;
pub(crate) use sampler::SmallWorldSampler;

use manet_des::Rng;

use crate::engine::Subsystem;
use crate::scenario::Scenario;
use crate::world::labels;

/// Build the subsystem registry for `scenario`. Registration order is
/// load-bearing: `init` seeding runs in this order, and the original
/// world seeded its initial events in exactly this sequence.
pub(crate) fn build(scenario: &Scenario, master: &Rng) -> Vec<Box<dyn Subsystem>> {
    let mut subs: Vec<Box<dyn Subsystem>> = vec![Box::new(MobilityDriver)];
    if let Some(period) = scenario.smallworld_sample {
        subs.push(Box::new(SmallWorldSampler::new(period)));
    }
    if let Some(churn) = scenario.churn {
        subs.push(Box::new(ChurnDriver::new(
            churn,
            master.fork(labels::CHURN),
        )));
    }
    if let Some(burst) = scenario.faults.loss.as_ref().and_then(|l| l.burst) {
        subs.push(Box::new(LossBursts::new(
            burst,
            master.fork(labels::FAULTS),
        )));
    }
    if !scenario.faults.crashes.is_empty() {
        subs.push(Box::new(CrashPlan::new(scenario.faults.crashes.clone())));
    }
    if let Some(flaps) = scenario.faults.link_flaps {
        subs.push(Box::new(FlapDriver::new(flaps)));
    }
    if let Some(jitter) = scenario.faults.jitter {
        subs.push(Box::new(JitterDriver::new(jitter)));
    }
    // Observability series sampling is no longer a subsystem: the cadence
    // check is inlined into the event loop (`World::step_observed`), so
    // the subsystem roster — and with it every packed `Sub` event key — is
    // identical whether obs is on or off.
    // Appended last so adversary-free scenarios keep the exact historical
    // registration (and therefore event-insertion) order.
    let flooders: Vec<_> = scenario
        .adversaries
        .iter()
        .filter_map(|a| match a.role {
            p2p_core::AdversaryRole::QueryFlooder { period } => Some((a.node, period)),
            _ => None,
        })
        .collect();
    if !flooders.is_empty() {
        subs.push(Box::new(QueryFlooderDriver::new(flooders)));
    }
    subs
}
