//! The routing-layer adapter: the AODV machine between phy and overlay.
//!
//! Translates [`FrameUp`] verbs into AODV inputs and AODV
//! [`Action`](manet_aodv::Action)s into [`SendDown`] / [`DeliverUp`]
//! verbs. Execution is depth-first and immediate: each action completes
//! (including any transmissions it plans and the RNG draws they make)
//! before the next action of the same batch runs — this ordering is part
//! of the deterministic contract.

use manet_aodv::{Action as AodvAction, Msg};
use manet_des::{NodeId, SimTime};
use p2p_core::AdversaryRole;
use p2p_stack::{AppMsg, TraceEvent};

use crate::stack::{overlay, phy, DeliverUp, FrameUp, OverlayDown, SendDown};
use crate::world::WorldCore;

/// A frame arrived from the phy layer at node `to`: feed it to AODV and
/// execute the resulting actions, then re-arm the node's timer.
///
/// If the frame carries an active causal context, a `Recv` span is
/// recorded here and stamped back onto the frame, so every AODV effect
/// (forwarding, RREPs, deliveries) chains off this node's reception.
pub(crate) fn frame_up(core: &mut WorldCore, now: SimTime, to: NodeId, frame: FrameUp) {
    let FrameUp { from, mut msg } = frame;
    if core.trace.enabled() && msg.ctx().is_active() {
        let recv = msg.ctx().child(core.trace.alloc_span());
        core.trace.record(
            now,
            TraceEvent::Recv {
                node: to,
                ctx: recv,
                from,
                frame: msg.kind(),
            },
        );
        msg.set_ctx(recv);
    }
    let actions = core.nodes[to.index()].routing.aodv.on_frame(now, from, msg);
    exec(core, now, to, actions);
    super::resched_timer(core, now, to);
}

/// Routing timer tick at node `id`.
pub(crate) fn tick(core: &mut WorldCore, now: SimTime, id: NodeId) {
    let actions = core.nodes[id.index()].routing.aodv.tick(now);
    exec(core, now, id, actions);
}

/// Execute an [`OverlayDown`] verb from the overlay layer at node `at`:
/// feed the payload into AODV and execute the resulting actions.
pub(crate) fn overlay_down(core: &mut WorldCore, now: SimTime, at: NodeId, verb: OverlayDown) {
    let aodv = &mut core.nodes[at.index()].routing.aodv;
    let acts = match verb {
        OverlayDown::Flood { ttl, msg, ctx } => {
            aodv.flood(now, ttl.max(1), AppMsg::Overlay(msg), ctx)
        }
        OverlayDown::Send { to, msg, ctx } => aodv.send(now, to, AppMsg::Overlay(msg), ctx),
        OverlayDown::Content { to, msg, ctx } => aodv.send(now, to, AppMsg::Content(msg), ctx),
    };
    exec(core, now, at, acts);
}

/// Does this action forward a payload *on behalf of someone else* — the
/// traffic a black/grey-hole swallows? Routed data originated elsewhere,
/// or a flood relay. The node's own originations always pass, so the
/// adversary keeps attracting routes instead of looking dead.
fn forwards_foreign_payload(action: &AodvAction<AppMsg>, at: NodeId) -> bool {
    match action {
        AodvAction::Unicast {
            msg: Msg::Data(d), ..
        } => d.src != at,
        AodvAction::Broadcast(Msg::Data(d)) => d.src != at,
        AodvAction::Broadcast(Msg::Flood(fl)) => fl.origin != at,
        _ => false,
    }
}

/// Rewrite an honest action batch through node `at`'s adversarial role.
/// Deterministic and RNG-free: honest nodes never reach this (the caller
/// checks), and the rewrite itself draws nothing from the world's RNG
/// streams.
fn subvert(
    core: &mut WorldCore,
    at: NodeId,
    actions: Vec<AodvAction<AppMsg>>,
) -> Vec<AodvAction<AppMsg>> {
    let adv = core.nodes[at.index()]
        .adversary
        .as_mut()
        .expect("caller checked");
    match adv.role {
        AdversaryRole::BlackHole => actions
            .into_iter()
            .filter(|a| !forwards_foreign_payload(a, at))
            .collect(),
        AdversaryRole::GreyHole { drop_nth } => actions
            .into_iter()
            .filter(|a| {
                if forwards_foreign_payload(a, at) {
                    adv.fwd_seen += 1;
                    !adv.fwd_seen.is_multiple_of(drop_nth as u64)
                } else {
                    true
                }
            })
            .collect(),
        AdversaryRole::RreqAmplifier { factor } => {
            let mut out = Vec::with_capacity(actions.len());
            for a in actions {
                if matches!(&a, AodvAction::Broadcast(Msg::Rreq(_))) {
                    for _ in 1..factor {
                        out.push(a.clone());
                    }
                }
                out.push(a);
            }
            out
        }
        // These roles act at the overlay/content layer, not here.
        AdversaryRole::QueryFlooder { .. } | AdversaryRole::Selfish => actions,
    }
}

/// Execute a batch of AODV actions at node `at`, in order, depth-first.
pub(crate) fn exec(
    core: &mut WorldCore,
    now: SimTime,
    at: NodeId,
    actions: Vec<AodvAction<AppMsg>>,
) {
    let actions = if core.nodes[at.index()].adversary.is_some() {
        subvert(core, at, actions)
    } else {
        actions
    };
    for action in actions {
        match action {
            AodvAction::Broadcast(msg) => phy::send_down(core, now, at, SendDown::Broadcast(msg)),
            AodvAction::Unicast { to, msg } => {
                phy::send_down(core, now, at, SendDown::Unicast { to, msg })
            }
            AodvAction::Deliver {
                src,
                hops,
                payload,
                ctx,
            } => overlay::deliver_up(
                core,
                now,
                at,
                DeliverUp {
                    src,
                    hops,
                    flood: false,
                    payload,
                    ctx,
                },
            ),
            AodvAction::DeliverFlood {
                origin,
                hops,
                payload,
                ctx,
            } => overlay::deliver_up(
                core,
                now,
                at,
                DeliverUp {
                    src: origin,
                    hops,
                    flood: true,
                    payload,
                    ctx,
                },
            ),
            AodvAction::Unreachable { dst, dropped, ctx } => {
                let _ = dropped; // payload loss is visible via metrics
                let mut cause = ctx;
                if core.trace.enabled() && ctx.is_active() {
                    cause = ctx.child(core.trace.alloc_span());
                    core.trace.record(
                        now,
                        TraceEvent::Unreachable {
                            node: at,
                            ctx: cause,
                            dst,
                        },
                    );
                }
                overlay::peer_unreachable(core, now, at, dst, cause);
            }
        }
    }
}
