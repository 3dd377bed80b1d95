//! The overlay-layer adapter: the (re)configuration algorithm and the
//! query engine on top of routing.
//!
//! Receives [`DeliverUp`] verbs from the routing layer, feeds them to the
//! member's [`Reconfigurator`](p2p_core::Reconfigurator) or
//! [`QueryEngine`](p2p_content::QueryEngine), and pushes the resulting
//! traffic back down as [`OverlayDown`] verbs. Also owns the overlay
//! half of the power lifecycle (join, power-off, power-on) shared by the
//! churn and crash subsystems.

use manet_des::{NodeId, Rng, SimTime, TraceCtx};
use manet_obs::Severity;
use p2p_content::ContentMsg;
use p2p_core::{build_algo, OvAction};
use p2p_stack::{AppMsg, TraceEvent};

use crate::stack::{routing, DeliverUp, OverlayDown};
use crate::world::WorldCore;

/// The member joins the overlay: start the algorithm and the query
/// engine, then execute the first discovery traffic.
pub(crate) fn join(core: &mut WorldCore, now: SimTime, id: NodeId) {
    let node = &mut core.nodes[id.index()];
    if !node.phy.up {
        return;
    }
    let Some(member) = node.overlay.member.as_mut() else {
        return;
    };
    member.joined = true;
    let actions = member.algo.start(now);
    member.engine.start(now);
    core.trace.record(now, TraceEvent::Join { node: id });
    core.obs_record(now, Severity::Info, "join", || {
        format!("{id} joined the overlay")
    });
    exec_actions(core, now, id, actions, TraceCtx::NONE);
    core.trace_member_delta(now, id);
    super::resched_timer(core, now, id);
}

/// Overlay + query timer tick at node `id` (no-op unless joined).
pub(crate) fn tick(core: &mut WorldCore, now: SimTime, id: NodeId) {
    if !core.nodes[id.index()].is_joined() {
        return;
    }
    let ov_actions = {
        let member = core.nodes[id.index()]
            .overlay
            .member
            .as_mut()
            .expect("joined");
        member.algo.tick(now)
    };
    exec_actions(core, now, id, ov_actions, TraceCtx::NONE);
    let (sends, completed) = {
        let member = core.nodes[id.index()]
            .overlay
            .member
            .as_mut()
            .expect("joined");
        let neighbors = member.algo.neighbors();
        member.engine.tick(now, &neighbors)
    };
    if let Some(done) = completed {
        core.record_completed_query(id, &done);
    }
    exec_content(core, now, id, sends, TraceCtx::NONE);
    core.trace_member_delta(now, id);
}

/// An application payload reached node `at` (a [`DeliverUp`] verb from
/// the routing layer): count it, trace it, and hand it to the member's
/// overlay algorithm or query engine.
pub(crate) fn deliver_up(core: &mut WorldCore, now: SimTime, at: NodeId, verb: DeliverUp) {
    let DeliverUp {
        src,
        hops,
        flood,
        payload,
        ctx,
    } = verb;
    if !core.nodes[at.index()].is_joined() {
        return; // pure relays have no overlay presence
    }
    core.counters.record(at, payload.kind());
    if let Some(obs) = core.obs.on_mut() {
        obs.hists.observe(obs.hs_hops, hops as u64);
    }
    // The delivery becomes the causal parent of everything the overlay
    // does in response to this payload.
    let mut cause = TraceCtx::NONE;
    if core.trace.enabled() {
        if ctx.is_active() {
            cause = ctx.child(core.trace.alloc_span());
        }
        core.trace.record(
            now,
            TraceEvent::DeliverUp {
                node: at,
                from: src,
                kind: payload.kind(),
                hops,
                ctx: cause,
            },
        );
    }
    // A selfish member consumes service traffic without serving: incoming
    // queries and fetch requests are counted and traced as delivered (the
    // frame did arrive) but never reach the engine, so no hit or transfer
    // is ever produced. Its own queries and fetches still work.
    if let AppMsg::Content(cmsg) = &payload {
        let selfish = core.nodes[at.index()]
            .adversary
            .as_ref()
            .is_some_and(|a| matches!(a.role, p2p_core::AdversaryRole::Selfish));
        if selfish
            && matches!(
                cmsg,
                ContentMsg::Query { .. } | ContentMsg::FetchRequest { .. }
            )
        {
            return;
        }
    }
    match payload {
        AppMsg::Overlay(msg) => {
            let acts = {
                let m = core.nodes[at.index()]
                    .overlay
                    .member
                    .as_mut()
                    .expect("joined");
                if flood {
                    m.algo.on_flood(now, src, hops, &msg)
                } else {
                    m.algo.on_msg(now, src, hops, &msg)
                }
            };
            exec_actions(core, now, at, acts, cause);
        }
        AppMsg::Content(msg) => {
            let sends = {
                let m = core.nodes[at.index()]
                    .overlay
                    .member
                    .as_mut()
                    .expect("joined");
                let neighbors = m.algo.neighbors();
                m.engine.on_msg(now, src, hops, &msg, &neighbors)
            };
            exec_content(core, now, at, sends, cause);
        }
    }
    core.trace_member_delta(now, at);
    super::resched_timer(core, now, at);
}

/// The routing layer gave up reaching `dst`: tell the overlay algorithm.
/// `ctx` carries the causal context of the query whose traffic failed.
pub(crate) fn peer_unreachable(
    core: &mut WorldCore,
    now: SimTime,
    at: NodeId,
    dst: NodeId,
    ctx: TraceCtx,
) {
    if !core.nodes[at.index()].is_joined() {
        return;
    }
    let acts = {
        let m = core.nodes[at.index()]
            .overlay
            .member
            .as_mut()
            .expect("joined");
        m.algo.on_unreachable(now, dst)
    };
    exec_actions(core, now, at, acts, ctx);
}

/// The node's radio switches off (churn, crash): the overlay presence
/// dies with it. Local state is discarded (a rebooted app); peers
/// discover via failed pings.
pub(crate) fn power_off(core: &mut WorldCore, now: SimTime, id: NodeId) {
    core.hot_up[id.index()] = false;
    let node = &mut core.nodes[id.index()];
    node.phy.up = false;
    if let Some(m) = node.overlay.member.as_mut() {
        m.joined = false;
    }
    core.trace.record(
        now,
        TraceEvent::PowerChange {
            node: id,
            up: false,
        },
    );
}

/// The node's radio comes back (churn recovery, crash restart): members
/// rebuild a fresh overlay instance from their stable seed — same
/// identity and files, blank protocol state — and rejoin immediately.
pub(crate) fn power_on(core: &mut WorldCore, now: SimTime, id: NodeId) {
    core.hot_up[id.index()] = true;
    let scenario_algo = core.scenario.algo;
    let overlay_params = core.scenario.overlay;
    let node = &mut core.nodes[id.index()];
    node.phy.up = true;
    let actions = if let Some(m) = node.overlay.member.as_mut() {
        m.algo = build_algo(
            scenario_algo,
            id,
            overlay_params,
            m.qualifier,
            Rng::new(m.algo_seed),
        );
        m.joined = true;
        let actions = m.algo.start(now);
        m.engine.start(now);
        Some(actions)
    } else {
        None
    };
    if let Some(actions) = actions {
        exec_actions(core, now, id, actions, TraceCtx::NONE);
    }
    core.trace
        .record(now, TraceEvent::PowerChange { node: id, up: true });
}

/// Mint a fresh trace root for a spontaneous origination batch: called
/// when the overlay emits traffic with no active upstream cause (a timer
/// tick or locally originated query). One trace covers the whole batch.
fn mint(
    core: &mut WorldCore,
    now: SimTime,
    at: NodeId,
    cause: TraceCtx,
    label: &'static str,
    nonempty: bool,
) -> TraceCtx {
    if cause.is_active() || !nonempty || !core.trace.enabled() {
        return cause;
    }
    let root = TraceCtx::root(core.trace.alloc_trace(), core.trace.alloc_span());
    core.trace.record(
        now,
        TraceEvent::Origin {
            node: at,
            ctx: root,
            label,
        },
    );
    root
}

/// Execute a batch of overlay actions at node `at` by pushing
/// [`OverlayDown`] verbs into the routing layer, in order. `cause` is the
/// delivery (or unreachable report) that provoked the batch; when
/// inactive and the batch is non-empty, a fresh "reconfig" trace is
/// minted for it.
pub(crate) fn exec_actions(
    core: &mut WorldCore,
    now: SimTime,
    at: NodeId,
    actions: Vec<OvAction>,
    cause: TraceCtx,
) {
    let ctx = mint(core, now, at, cause, "reconfig", !actions.is_empty());
    for action in actions {
        match action {
            OvAction::Flood { ttl, msg } => {
                routing::overlay_down(core, now, at, OverlayDown::Flood { ttl, msg, ctx })
            }
            OvAction::Send { to, msg } => {
                routing::overlay_down(core, now, at, OverlayDown::Send { to, msg, ctx })
            }
        }
    }
}

/// Execute a batch of content-layer sends at node `at`, minting a trace
/// named after the batch's leading message when there is no upstream
/// cause (a locally originated query).
pub(crate) fn exec_content(
    core: &mut WorldCore,
    now: SimTime,
    at: NodeId,
    sends: Vec<p2p_content::CSend>,
    cause: TraceCtx,
) {
    let label = match sends.first().map(|s| &s.msg) {
        Some(ContentMsg::Query { .. }) => "query",
        Some(ContentMsg::QueryHit { .. }) => "query_hit",
        Some(ContentMsg::FetchRequest { .. }) => "fetch",
        Some(ContentMsg::FileTransfer { .. }) => "transfer",
        None => "content",
    };
    let ctx = mint(core, now, at, cause, label, !sends.is_empty());
    for send in sends {
        routing::overlay_down(
            core,
            now,
            at,
            OverlayDown::Content {
                to: send.to,
                msg: send.msg,
                ctx,
            },
        );
    }
}
