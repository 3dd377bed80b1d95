//! The phy-layer adapter: frame arrival and transmission.
//!
//! Owns all radio accounting (PHY stats, energy charges) and the only
//! contact point with the [`Medium`](manet_radio::Medium): the routing
//! layer hands down [`SendDown`] verbs, arriving frames are handed up as
//! [`FrameUp`] verbs. Energy charges borrow the medium's config in place —
//! no per-frame clone on the hot path.

use std::time::Instant;

use manet_des::{NodeId, SimTime};
use manet_mobility::Mobility;
use manet_obs::Severity;
use p2p_stack::{AppMsg, TraceEvent};

use crate::engine::Event;
use crate::stack::{routing, FrameUp, SendDown};
use crate::world::{WorldCore, SPAN_STRIDE};

/// A frame finished arriving at `to`: charge reception, then hand the
/// frame up to the routing layer (unless the radio is off or the battery
/// just died).
pub(crate) fn frame_arrival(core: &mut WorldCore, now: SimTime, to: NodeId, frame: FrameUp) {
    let FrameUp { from, msg } = frame;
    let depleted = {
        let cfg = core.medium.cfg();
        let node = &mut core.nodes[to.index()];
        if !node.phy.up || node.phy.energy.is_depleted() {
            return;
        }
        let bytes = msg.wire_size();
        node.phy.stats.on_receive(bytes);
        node.phy.energy.charge_rx(cfg, bytes);
        if node.phy.energy.is_depleted() {
            node.phy.up = false;
            true
        } else {
            false
        }
    };
    if depleted {
        core.hot_up[to.index()] = false;
        core.obs_record(now, Severity::Warn, "depleted", || {
            format!("{to} battery depleted; radio off")
        });
        return;
    }
    routing::frame_up(core, now, to, FrameUp { from, msg });
}

/// Execute a [`SendDown`] verb from the routing layer at node `from`.
pub(crate) fn send_down(core: &mut WorldCore, now: SimTime, from: NodeId, verb: SendDown) {
    match verb {
        SendDown::Broadcast(msg) => broadcast(core, now, from, msg),
        SendDown::Unicast { to, msg } => unicast(core, now, from, to, msg),
    }
}

/// Put `msg` on the air at `from`: charge the transmission, plan every
/// reception in range, and count the lost ones. The surviving receptions
/// are scheduled as one fan-out slot
/// ([`Engine::schedule_fanout`](crate::engine::Engine::schedule_fanout)).
fn broadcast(core: &mut WorldCore, now: SimTime, from: NodeId, mut msg: manet_aodv::Msg<AppMsg>) {
    let bytes = msg.wire_size();
    {
        let cfg = core.medium.cfg();
        let node = &mut core.nodes[from.index()];
        if !node.phy.up || node.phy.energy.is_depleted() {
            return;
        }
        node.phy.stats.on_send(bytes);
        node.phy.energy.charge_tx(cfg, bytes);
    }
    // Record the Send span before the per-receiver clones, so every
    // reception of this frame chains off the same transmission.
    if core.trace.enabled() && msg.ctx().is_active() {
        let send = msg.ctx().child(core.trace.alloc_span());
        core.trace.record(
            now,
            TraceEvent::Send {
                node: from,
                ctx: send,
                to: None,
                frame: msg.kind(),
                bytes,
            },
        );
        msg.set_ctx(send);
    }
    let pos = core.mobility[from.index()].position(now);
    let faults = core.active_faults();
    // Stride-sampled span timing: only 1 in SPAN_STRIDE plans pays for an
    // `Instant` pair; the sample is extrapolated by its stride weight.
    let timed = core.obs.on_mut().is_some_and(|obs| obs.plan_timed());
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
    if let Some(obs) = core.obs.on_mut() {
        obs.hists.observe(obs.hs_fanout, fanout);
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
            core.nodes[r.to.index()].phy.stats.on_loss();
        }
    }
    let survivors = core.scratch.receptions.iter().filter(|r| !r.lost);
    core.engine
        .schedule_fanout(now + after, from, msg, survivors.map(|r| r.to));
}

fn unicast(
    core: &mut WorldCore,
    now: SimTime,
    from: NodeId,
    to: NodeId,
    mut msg: manet_aodv::Msg<AppMsg>,
) {
    let bytes = msg.wire_size();
    {
        let cfg = core.medium.cfg();
        let node = &mut core.nodes[from.index()];
        if !node.phy.up || node.phy.energy.is_depleted() {
            return;
        }
        node.phy.stats.on_send(bytes);
        node.phy.energy.charge_tx(cfg, bytes);
    }
    // Stamp the Send span before fate is decided: a failed unicast hands
    // the stamped frame to AODV, linking the RERR/rediscovery fallout
    // under this transmission.
    if core.trace.enabled() && msg.ctx().is_active() {
        let send = msg.ctx().child(core.trace.alloc_span());
        core.trace.record(
            now,
            TraceEvent::Send {
                node: from,
                ctx: send,
                to: Some(to),
                frame: msg.kind(),
                bytes,
            },
        );
        msg.set_ctx(send);
    }
    let pos = core.mobility[from.index()].position(now);
    // A down receiver is indistinguishable from an out-of-range one. The
    // liveness read goes through the hot array, which mirrors `phy.up`.
    let receiver_up = core.hot_up[to.index()];
    let plan = if receiver_up {
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
        Some(_) => {
            core.nodes[to.index()].phy.stats.on_loss();
        }
        None => {
            core.nodes[from.index()].phy.stats.on_link_break();
            core.obs_record(now, Severity::Debug, "link_break", || {
                format!("{from} lost unicast link to {to}")
            });
            let acts = core.nodes[from.index()]
                .routing
                .aodv
                .on_unicast_failed(now, to, msg);
            routing::exec(core, now, from, acts);
        }
    }
}
