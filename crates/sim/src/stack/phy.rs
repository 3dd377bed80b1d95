//! The phy layer: frame arrival and transmission.
//!
//! Owns all radio accounting (PHY stats, energy charges) and the only
//! contact point with the [`Medium`](manet_radio::Medium): a machine's
//! [`SendDown`](p2p_stack::SendDown) verbs arrive through the
//! [`StackHost`](p2p_stack::StackHost) impl, and arriving frames are
//! handed up as [`FrameUp`] verbs. Energy charges borrow the medium's
//! config in place — no per-frame clone on the hot path.

use std::time::Instant;

use manet_aodv::Msg;
use manet_des::{NodeId, SimTime};
use manet_mobility::Mobility;
use manet_obs::Severity;
use p2p_stack::{trace_send, AppMsg, FrameUp, StackMachine};

use crate::engine::Event;
use crate::world::{WorldCore, SPAN_STRIDE};

/// A frame finished arriving at `stack`'s node: charge reception, then
/// hand the frame up to the machine (unless the radio is off or the
/// battery just died).
pub(crate) fn frame_arrival(
    core: &mut WorldCore,
    stack: &mut StackMachine,
    now: SimTime,
    frame: FrameUp,
) {
    let to = stack.id();
    if !core.hot_up[to.index()] {
        return;
    }
    let depleted = {
        let cfg = core.medium.cfg();
        let phy = &mut core.phy[to.index()];
        if phy.energy.is_depleted() {
            return;
        }
        let bytes = frame.msg.wire_size();
        phy.stats.on_receive(bytes);
        phy.energy.charge_rx(cfg, bytes);
        phy.energy.is_depleted()
    };
    if depleted {
        core.hot_up[to.index()] = false;
        core.obs_record(now, Severity::Warn, "depleted", || {
            format!("{to} battery depleted; radio off")
        });
        return;
    }
    stack.on_frame(core, now, frame);
}

/// Charge a transmission of `bytes` at `from`. False when the radio is
/// off or the battery is flat, and nothing goes on the air.
fn charge_tx(core: &mut WorldCore, from: NodeId, bytes: u32) -> bool {
    let cfg = core.medium.cfg();
    let phy = &mut core.phy[from.index()];
    if !core.hot_up[from.index()] || phy.energy.is_depleted() {
        return false;
    }
    phy.stats.on_send(bytes);
    phy.energy.charge_tx(cfg, bytes);
    true
}

/// Put `msg` on the air at `from`: charge the transmission, plan every
/// reception in range, and count the lost ones. The surviving receptions
/// are scheduled as one fan-out slot
/// ([`Engine::schedule_fanout`](crate::engine::Engine::schedule_fanout)).
pub(crate) fn broadcast(core: &mut WorldCore, now: SimTime, from: NodeId, mut msg: Msg<AppMsg>) {
    let bytes = msg.wire_size();
    if !charge_tx(core, from, bytes) {
        return;
    }
    // Record the Send span before the per-receiver clones, so every
    // reception of this frame chains off the same transmission.
    trace_send(&mut core.trace, now, from, None, &mut msg);
    let pos = core.mobility[from.index()].position(now);
    let faults = core.active_faults();
    // Stride-sampled span timing: only 1 in SPAN_STRIDE plans pays for an
    // `Instant` pair; the sample is extrapolated by its stride weight.
    let timed = core.obs.as_deref_mut().is_some_and(|obs| obs.plan_timed());
    let t0 = timed.then(Instant::now);
    core.medium.plan_broadcast(
        &core.grid,
        from,
        pos,
        bytes,
        &mut core.radio_rng,
        faults,
        &mut core.scratch,
    );
    let elapsed = t0.map(|t0| t0.elapsed());
    let fanout = core.scratch.receptions.len() as u64;
    if let Some(obs) = core.obs.as_deref_mut() {
        obs.registry.observe(obs.h_fanout, fanout);
        if let Some(elapsed) = elapsed {
            obs.spans.add_weighted(obs.s_plan, elapsed, SPAN_STRIDE);
        }
    }
    // Every surviving reception goes into one fan-out slot. They share one
    // timestamp because the medium draws one delay per transmission, which
    // is what lets a single slot pop exactly like back-to-back schedules.
    let Some(after) = core.scratch.receptions.first().map(|r| r.after) else {
        return;
    };
    for r in &core.scratch.receptions {
        assert_eq!(
            r.after, after,
            "receptions of one broadcast share one delay"
        );
        if r.lost {
            core.phy[r.to.index()].stats.on_loss();
        }
    }
    let survivors = core.scratch.receptions.iter().filter(|r| !r.lost);
    core.engine
        .schedule_fanout(now + after, from, msg, survivors.map(|r| r.to));
}

/// Put a unicast to `to` on the air at `from`. Hands the frame back when
/// `to` is down or out of range, so the sender's AODV repairs the route.
pub(crate) fn unicast(
    core: &mut WorldCore,
    now: SimTime,
    from: NodeId,
    to: NodeId,
    mut msg: Msg<AppMsg>,
) -> Option<Msg<AppMsg>> {
    let bytes = msg.wire_size();
    if !charge_tx(core, from, bytes) {
        return None;
    }
    // Stamp the Send span before fate is decided: a failed unicast hands
    // the stamped frame to AODV, linking the RERR/rediscovery fallout
    // under this transmission.
    trace_send(&mut core.trace, now, from, Some(to), &mut msg);
    let pos = core.mobility[from.index()].position(now);
    // A down receiver is indistinguishable from an out-of-range one.
    let plan = if core.hot_up[to.index()] {
        let faults = core.active_faults();
        core.medium
            .plan_unicast(&core.grid, pos, to, bytes, &mut core.radio_rng, faults)
    } else {
        None
    };
    match plan {
        Some(r) if !r.lost => {
            core.engine
                .schedule(now + r.after, Event::Deliver { to, from, msg });
        }
        Some(_) => core.phy[to.index()].stats.on_loss(),
        None => {
            core.phy[from.index()].stats.on_link_break();
            core.obs_record(now, Severity::Debug, "link_break", || {
                format!("{from} lost unicast link to {to}")
            });
            return Some(msg);
        }
    }
    None
}
