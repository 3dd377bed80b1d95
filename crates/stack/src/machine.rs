//! The protocol machine: one node's routing + overlay + query layers
//! composed behind the verb boundary, and the [`StackHost`] trait every
//! substrate implements to run it.
//!
//! [`StackMachine`] is the only code that executes a node's AODV →
//! overlay → query cascade. It owns the AODV instance and, on overlay
//! members, the (re)configuration algorithm and the query engine; pure
//! relays carry neither. Its entry points — [`join`](StackMachine::join),
//! [`on_frame`](StackMachine::on_frame), [`tick`](StackMachine::tick),
//! [`restart`](StackMachine::restart) and
//! [`overlay_down`](StackMachine::overlay_down) — run the cascade
//! depth-first: an AODV delivery feeds the overlay, whose replies feed
//! back into AODV, until the cascade bottoms out in frames. Each action
//! completes (including every transmission it causes) before the next one
//! of its batch runs.
//!
//! The machine calls its host in the middle of that cascade, never after
//! it: frames go on the air as they are produced, a failed unicast's
//! repair runs before the rest of its batch, and the node timer is re-armed
//! after every delivery. On the DES this order *is* the event-insertion
//! order and the radio-RNG draw order, so it is part of the deterministic
//! contract. A frame AODV drops without any action (a duplicate RREQ or
//! flood, most often) makes no host call at all: it moves no wake, so the
//! re-arm could change nothing ([`on_frame`](StackMachine::on_frame) has
//! the argument and its two provisos).
//!
//! Adversarial roles ([`AdversaryRole`]) are intercepted here too, at the
//! layer each one subverts: black-holes, grey-holes and RREQ amplifiers
//! rewrite each AODV action batch, selfish members swallow incoming
//! queries and fetch requests. A host only assigns a role
//! ([`set_adversary`](StackMachine::set_adversary)); the misbehaviour
//! itself needs no code in the host.

use manet_aodv::{Action, Aodv, AodvCfg, Msg};
use manet_des::{NodeId, SimTime, TraceCtx};
use manet_obs::CausalKind;
use p2p_content::{CSend, CompletedQuery, ContentMsg, QueryEngine, QueryStats};
use p2p_core::{AdversaryRole, BoxedAlgo, OvAction, Reconfigurator};

use crate::payload::AppMsg;
use crate::trace::TraceLog;
use crate::verbs::{DeliverUp, FrameUp, OverlayDown, SendDown, TimerReq};

/// What a substrate provides to the machines it hosts. Every call
/// happens in the middle of a cascade, in cascade order.
pub trait StackHost {
    /// Put `frame` on the air at node `from`. A unicast whose next hop
    /// cannot be reached is handed back, and the machine reports the
    /// broken link to AODV before it runs the rest of the batch. Every
    /// other frame returns `None`.
    fn send(&mut self, now: SimTime, from: NodeId, frame: SendDown) -> Option<Msg<AppMsg>>;

    /// `payload` reached joined member `at` after `hops` ad-hoc hops.
    fn delivered(&mut self, at: NodeId, payload: &AppMsg, hops: u8);

    /// A query `requirer` issued closed its response window.
    fn query_completed(&mut self, requirer: NodeId, done: &CompletedQuery);

    /// Node `node` asks, at `now`, for its combined timer to fire at
    /// `req.at`. The host may keep an earlier pending wake instead.
    fn arm_timer(&mut self, now: SimTime, node: NodeId, req: TimerReq);

    /// The log the machine records causal spans into.
    fn trace(&mut self) -> &mut TraceLog;
}

/// Record the `Send` span of a frame leaving `node` and stamp it onto the
/// frame, so every reception chains off this transmission. A no-op unless
/// the log is on and the frame carries an active causal context. Hosts
/// call it from [`StackHost::send`] when they commit to transmitting,
/// before the outcome is known: a unicast handed back as unreachable
/// carries the stamp, so its repair chains off this attempt.
pub fn trace_send(
    trace: &mut TraceLog,
    now: SimTime,
    node: NodeId,
    to: Option<NodeId>,
    msg: &mut Msg<AppMsg>,
) {
    let ctx = msg.ctx();
    if ctx.is_active() {
        let send = trace.child(now, node, ctx, || CausalKind::Send {
            frame: msg.kind(),
            to: to.map(|n| n.0),
            bytes: msg.wire_size(),
        });
        msg.set_ctx(send);
    }
}

/// An overlay member's layers above routing.
struct Member {
    algo: BoxedAlgo,
    engine: QueryEngine,
    joined: bool,
}

/// A misbehaving node's role plus the grey-hole's drop counter.
struct Adversary {
    role: AdversaryRole,
    /// Foreign payload frames seen so far (the grey-hole drops every
    /// `drop_nth`-th one).
    fwd_seen: u64,
}

/// Does this action forward a payload *on behalf of someone else* — the
/// traffic a black/grey-hole swallows? Routed data originated elsewhere,
/// or a flood relay. The node's own originations always pass, so the
/// adversary keeps attracting routes instead of looking dead.
fn forwards_foreign_payload(action: &Action<AppMsg>, at: NodeId) -> bool {
    match action {
        Action::Unicast {
            msg: Msg::Data(d), ..
        } => d.src != at,
        Action::Broadcast(Msg::Data(d)) => d.src != at,
        Action::Broadcast(Msg::Flood(fl)) => fl.origin != at,
        _ => false,
    }
}

impl Adversary {
    /// Rewrite an honest AODV action batch at node `at` through this role.
    /// Deterministic and RNG-free.
    fn subvert(&mut self, at: NodeId, actions: Vec<Action<AppMsg>>) -> Vec<Action<AppMsg>> {
        match self.role {
            AdversaryRole::BlackHole => actions
                .into_iter()
                .filter(|a| !forwards_foreign_payload(a, at))
                .collect(),
            AdversaryRole::GreyHole { drop_nth } => actions
                .into_iter()
                .filter(|a| {
                    if forwards_foreign_payload(a, at) {
                        self.fwd_seen += 1;
                        !self.fwd_seen.is_multiple_of(drop_nth as u64)
                    } else {
                        true
                    }
                })
                .collect(),
            AdversaryRole::RreqAmplifier { factor } => {
                let mut out = Vec::with_capacity(actions.len());
                for a in actions {
                    if matches!(&a, Action::Broadcast(Msg::Rreq(_))) {
                        for _ in 1..factor {
                            out.push(a.clone());
                        }
                    }
                    out.push(a);
                }
                out
            }
            // These roles act at the content layer (or in the DES's
            // query-flooder subsystem), not on routing actions.
            AdversaryRole::QueryFlooder { .. } | AdversaryRole::Selfish => actions,
        }
    }
}

/// One node's full protocol stack above the phy layer.
pub struct StackMachine {
    id: NodeId,
    aodv: Aodv<AppMsg>,
    /// `None` on pure relays: no algorithm, no query engine.
    member: Option<Member>,
    /// `None` on honest nodes, which keeps their path free of any
    /// interception.
    adversary: Option<Adversary>,
    /// The wake this machine last asked its host for; `None` until the
    /// first request.
    asked: Option<SimTime>,
}

impl StackMachine {
    /// An overlay member. The algorithm and engine arrive pre-seeded;
    /// nothing above routing runs until [`join`](StackMachine::join).
    pub fn new(id: NodeId, aodv: AodvCfg, algo: BoxedAlgo, engine: QueryEngine) -> Self {
        let mut m = StackMachine::relay(id, aodv);
        m.member = Some(Member {
            algo,
            engine,
            joined: false,
        });
        m
    }

    /// A pure relay: AODV only, no overlay presence.
    pub fn relay(id: NodeId, aodv: AodvCfg) -> Self {
        StackMachine {
            id,
            aodv: Aodv::new(id, aodv),
            member: None,
            adversary: None,
            asked: None,
        }
    }

    /// Make this node misbehave as `role`.
    pub fn set_adversary(&mut self, role: AdversaryRole) {
        self.adversary = Some(Adversary { role, fwd_seen: 0 });
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The routing layer (route table and counters).
    pub fn aodv(&self) -> &Aodv<AppMsg> {
        &self.aodv
    }

    /// Whether this node is an overlay member (joined or not).
    pub fn is_member(&self) -> bool {
        self.member.is_some()
    }

    /// Whether this member currently participates in the overlay.
    pub fn is_joined(&self) -> bool {
        self.member.as_ref().is_some_and(|m| m.joined)
    }

    /// The member's (re)configuration algorithm.
    pub fn algo(&self) -> Option<&(dyn Reconfigurator + Send)> {
        self.member.as_ref().map(|m| &*m.algo)
    }

    /// Current overlay reference list (sorted by node id; empty on relays).
    pub fn neighbors(&self) -> Vec<NodeId> {
        self.algo().map_or_else(Vec::new, |a| a.neighbors())
    }

    /// The member's query-layer counters.
    pub fn query_stats(&self) -> Option<&QueryStats> {
        self.member.as_ref().map(|m| m.engine.stats())
    }

    /// The earliest wake any layer needs: routing always, the overlay and
    /// query layers while joined. With `attribute`, a wake owed to routing
    /// names the query waiting on its route discovery.
    fn timer_request(&self, attribute: bool) -> TimerReq {
        let aodv_wake = self.aodv.next_wake();
        let mut wake = aodv_wake;
        if let Some(m) = self.member.as_ref().filter(|m| m.joined) {
            wake = wake.min(m.algo.next_wake()).min(m.engine.next_wake());
        }
        let ctx = if attribute && wake == aodv_wake {
            self.aodv.next_wake_ctx()
        } else {
            TraceCtx::NONE
        };
        TimerReq { at: wake, ctx }
    }

    /// Ask the host to re-arm this node's combined timer. Attribution
    /// scans the pending discoveries, so it runs only while tracing.
    ///
    /// Every entry point that can move a layer's wake ends here, or leaves
    /// the call to its host (restart, and the overlay verbs an adversary
    /// injects). The one exception is [`on_frame`](Self::on_frame) after
    /// a frame AODV drops, which moves no wake.
    pub fn rearm<H: StackHost>(&mut self, host: &mut H, now: SimTime) {
        let req = self.timer_request(host.trace().enabled());
        self.asked = Some(req.at);
        host.arm_timer(now, self.id, req);
    }

    /// The member joins the overlay: start the algorithm and the query
    /// engine, then execute the first discovery traffic. No-op on relays.
    pub fn join<H: StackHost>(&mut self, host: &mut H, now: SimTime) {
        let Some(m) = self.member.as_mut() else {
            return;
        };
        m.joined = true;
        let actions = m.algo.start(now);
        m.engine.start(now);
        self.exec_overlay(host, now, actions, TraceCtx::NONE);
        self.rearm(host, now);
    }

    /// The radio went off (churn, crash): the overlay presence dies with
    /// it. Routing state survives; peers notice through failed pings.
    pub fn power_off(&mut self) {
        if let Some(m) = self.member.as_mut() {
            m.joined = false;
        }
    }

    /// The radio came back: a member swaps in `algo` — rebuilt by the host
    /// from the node's stable seed, so same identity and files with blank
    /// protocol state — and rejoins at once. The host re-arms the timer
    /// when it is ready to. No-op on relays.
    pub fn restart<H: StackHost>(&mut self, host: &mut H, now: SimTime, algo: BoxedAlgo) {
        let Some(m) = self.member.as_mut() else {
            return;
        };
        m.algo = algo;
        m.joined = true;
        let actions = m.algo.start(now);
        m.engine.start(now);
        self.exec_overlay(host, now, actions, TraceCtx::NONE);
    }

    /// A frame arrived from the phy layer.
    ///
    /// If the frame carries an active causal context and tracing is on, a
    /// `Recv` span is recorded and stamped back onto the frame, so every
    /// AODV effect (forwarding, RREPs, deliveries) chains off this
    /// node's reception.
    ///
    /// A frame AODV answers with no action makes no further host call.
    /// Such a frame opens no discovery and moves neither the purge nor the
    /// beacon time (a flush of waiting data always yields a unicast), and
    /// nothing above routing runs, so the combined wake is the one last
    /// asked for. The host still holds that wake (both hosts keep the
    /// earlier of two requests, and a fired timer's tick re-arms), so the
    /// re-arm is skipped. Two provisos: a machine that never asked (a
    /// relay's first frame arms its first purge), or whose last wake is
    /// already past (the DES host would clamp it to `now` and schedule one
    /// more timer), re-arms as before.
    pub fn on_frame<H: StackHost>(&mut self, host: &mut H, now: SimTime, frame: FrameUp) {
        let FrameUp { from, mut msg } = frame;
        let ctx = msg.ctx();
        if ctx.is_active() {
            let recv = host.trace().child(now, self.id, ctx, || CausalKind::Recv {
                frame: msg.kind(),
                from: from.0,
            });
            msg.set_ctx(recv);
        }
        #[cfg(debug_assertions)]
        let before = self.timer_request(true);
        let actions = self.aodv.on_frame(now, from, msg);
        if actions.is_empty() && self.asked.is_some_and(|at| at >= now) {
            #[cfg(debug_assertions)]
            assert_eq!(
                self.timer_request(true),
                before,
                "a frame AODV dropped moved the combined wake"
            );
            return;
        }
        self.exec(host, now, actions);
        self.rearm(host, now);
    }

    /// The combined protocol timer fired: tick routing, then (once
    /// joined) the overlay and query layers, then re-arm.
    pub fn tick<H: StackHost>(&mut self, host: &mut H, now: SimTime) {
        let actions = self.aodv.tick(now);
        self.exec(host, now, actions);
        if let Some(m) = self.member.as_mut().filter(|m| m.joined) {
            let actions = m.algo.tick(now);
            self.exec_overlay(host, now, actions, TraceCtx::NONE);
            let m = self.member.as_mut().expect("joined member");
            let neighbors = m.algo.neighbors();
            let (sends, completed) = m.engine.tick(now, &neighbors);
            if let Some(done) = completed {
                host.query_completed(self.id, &done);
            }
            self.exec_content(host, now, sends, TraceCtx::NONE);
        }
        self.rearm(host, now);
    }

    /// Execute one [`OverlayDown`] verb: hand the payload to AODV and run
    /// what it does. The query-flooder adversary injects through here.
    pub fn overlay_down<H: StackHost>(&mut self, host: &mut H, now: SimTime, verb: OverlayDown) {
        let actions = match verb {
            OverlayDown::Flood { ttl, msg, ctx } => {
                self.aodv.flood(now, ttl.max(1), AppMsg::Overlay(msg), ctx)
            }
            OverlayDown::Send { to, msg, ctx } => {
                self.aodv.send(now, to, AppMsg::Overlay(msg), ctx)
            }
            OverlayDown::Content { to, msg, ctx } => {
                self.aodv.send(now, to, AppMsg::Content(msg), ctx)
            }
        };
        self.exec(host, now, actions);
    }

    /// Mint a fresh trace root for a spontaneous origination batch: only
    /// with tracing on, a non-empty batch, and no active upstream cause.
    /// One trace covers the whole batch.
    fn mint<H: StackHost>(
        &self,
        host: &mut H,
        now: SimTime,
        cause: TraceCtx,
        label: &'static str,
        nonempty: bool,
    ) -> TraceCtx {
        if cause.is_active() || !nonempty {
            return cause;
        }
        host.trace().origin(now, self.id, label)
    }

    /// Run an AODV action batch, in order, depth-first, after the
    /// node's adversarial role (if any) has rewritten it.
    fn exec<H: StackHost>(&mut self, host: &mut H, now: SimTime, actions: Vec<Action<AppMsg>>) {
        let id = self.id;
        let actions = match self.adversary.as_mut() {
            Some(adv) => adv.subvert(id, actions),
            None => actions,
        };
        for action in actions {
            match action {
                Action::Broadcast(msg) => {
                    host.send(now, id, SendDown::Broadcast(msg));
                }
                Action::Unicast { to, msg } => {
                    if let Some(msg) = host.send(now, id, SendDown::Unicast { to, msg }) {
                        let actions = self.aodv.on_unicast_failed(now, to, msg);
                        self.exec(host, now, actions);
                    }
                }
                Action::Deliver {
                    src,
                    hops,
                    payload,
                    ctx,
                } => self.deliver(
                    host,
                    now,
                    DeliverUp {
                        src,
                        hops,
                        flood: false,
                        payload,
                        ctx,
                    },
                ),
                Action::DeliverFlood {
                    origin,
                    hops,
                    payload,
                    ctx,
                } => self.deliver(
                    host,
                    now,
                    DeliverUp {
                        src: origin,
                        hops,
                        flood: true,
                        payload,
                        ctx,
                    },
                ),
                Action::Unreachable { dst, ctx, .. } => {
                    let cause = host
                        .trace()
                        .child(now, id, ctx, || CausalKind::Unreachable { dst: dst.0 });
                    if let Some(m) = self.member.as_mut().filter(|m| m.joined) {
                        let actions = m.algo.on_unreachable(now, dst);
                        self.exec_overlay(host, now, actions, cause);
                    }
                }
            }
        }
    }

    /// A payload surfaced at this node: count it, trace it, and hand it
    /// to the overlay algorithm or the query engine. The delivery becomes
    /// the causal parent of everything the overlay does in response.
    /// Pure relays and members that are not joined drop it.
    fn deliver<H: StackHost>(&mut self, host: &mut H, now: SimTime, verb: DeliverUp) {
        if !self.is_joined() {
            return;
        }
        let DeliverUp {
            src,
            hops,
            flood,
            payload,
            ctx,
        } = verb;
        let id = self.id;
        host.delivered(id, &payload, hops);
        let cause = host.trace().child(now, id, ctx, || CausalKind::Deliver {
            kind: payload.kind().name(),
            hops,
        });
        // A selfish member consumes service traffic without serving:
        // incoming queries and fetch requests are counted and traced as
        // delivered (the frame did arrive) but never reach the engine, so
        // no hit or transfer is ever produced. Its own queries still work.
        let selfish = self
            .adversary
            .as_ref()
            .is_some_and(|a| a.role == AdversaryRole::Selfish);
        if selfish
            && matches!(
                payload,
                AppMsg::Content(ContentMsg::Query { .. } | ContentMsg::FetchRequest { .. })
            )
        {
            return;
        }
        let m = self.member.as_mut().expect("joined member");
        match payload {
            AppMsg::Overlay(msg) => {
                let actions = if flood {
                    m.algo.on_flood(now, src, hops, &msg)
                } else {
                    m.algo.on_msg(now, src, hops, &msg)
                };
                self.exec_overlay(host, now, actions, cause);
            }
            AppMsg::Content(msg) => {
                let neighbors = m.algo.neighbors();
                let sends = m.engine.on_msg(now, src, hops, &msg, &neighbors);
                self.exec_content(host, now, sends, cause);
            }
        }
        self.rearm(host, now);
    }

    /// Push overlay actions down into AODV as [`OverlayDown`] verbs.
    /// `cause` is the delivery (or unreachable report) that provoked the
    /// batch; when inactive and the batch is non-empty, a fresh
    /// "reconfig" trace is minted for it.
    fn exec_overlay<H: StackHost>(
        &mut self,
        host: &mut H,
        now: SimTime,
        actions: Vec<OvAction>,
        cause: TraceCtx,
    ) {
        let ctx = self.mint(host, now, cause, "reconfig", !actions.is_empty());
        for action in actions {
            let verb = match action {
                OvAction::Flood { ttl, msg } => OverlayDown::Flood { ttl, msg, ctx },
                OvAction::Send { to, msg } => OverlayDown::Send { to, msg, ctx },
            };
            self.overlay_down(host, now, verb);
        }
    }

    /// Push content-layer sends down into AODV, minting a trace named
    /// after the batch's leading message when there is no upstream cause
    /// (a locally originated query).
    fn exec_content<H: StackHost>(
        &mut self,
        host: &mut H,
        now: SimTime,
        sends: Vec<CSend>,
        cause: TraceCtx,
    ) {
        let label = match sends.first().map(|s| &s.msg) {
            Some(ContentMsg::Query { .. }) => "query",
            Some(ContentMsg::QueryHit { .. }) => "query_hit",
            Some(ContentMsg::FetchRequest { .. }) => "fetch",
            Some(ContentMsg::FileTransfer { .. }) => "transfer",
            None => "content",
        };
        let ctx = self.mint(host, now, cause, label, !sends.is_empty());
        for send in sends {
            self.overlay_down(
                host,
                now,
                OverlayDown::Content {
                    to: send.to,
                    msg: send.msg,
                    ctx,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_des::{Rng, SimDuration};
    use p2p_content::{Catalog, FileId, QueryCfg, QueryId};
    use p2p_core::{build_algo, AlgoKind, OverlayParams};
    use std::collections::{BTreeSet, VecDeque};

    /// A deliberately tiny in-memory substrate: a lossless full mesh
    /// where every node is one radio hop from every other — the same
    /// topology the loopback swarm realizes with UDP sockets. Frames
    /// queue on the air and arrive after the sending cascade finishes.
    #[derive(Default)]
    struct Air {
        n: usize,
        in_flight: VecDeque<(NodeId, SendDown)>,
        wakes: Vec<SimTime>,
        answered: usize,
        issued: usize,
        /// `(node, query-layer message kind)` of every counted delivery.
        delivered: Vec<(NodeId, manet_metrics::MsgKind)>,
        /// Frames each node put on the air.
        sent_by: Vec<usize>,
        /// `arm_timer` calls.
        arms: usize,
        /// Calls of any host method.
        calls: usize,
        trace: TraceLog,
    }

    impl StackHost for Air {
        fn send(&mut self, _now: SimTime, from: NodeId, frame: SendDown) -> Option<Msg<AppMsg>> {
            self.calls += 1;
            self.sent_by[from.index()] += 1;
            self.in_flight.push_back((from, frame));
            None
        }
        fn delivered(&mut self, at: NodeId, payload: &AppMsg, _hops: u8) {
            self.calls += 1;
            self.delivered.push((at, payload.kind()));
        }
        fn query_completed(&mut self, _requirer: NodeId, done: &CompletedQuery) {
            self.calls += 1;
            self.issued += 1;
            if !done.answers.is_empty() {
                self.answered += 1;
            }
        }
        fn arm_timer(&mut self, _now: SimTime, node: NodeId, req: TimerReq) {
            self.calls += 1;
            self.arms += 1;
            self.wakes[node.index()] = req.at;
        }
        fn trace(&mut self) -> &mut TraceLog {
            self.calls += 1;
            &mut self.trace
        }
    }

    struct Mesh {
        nodes: Vec<StackMachine>,
        air: Air,
    }

    fn query_cfg() -> QueryCfg {
        QueryCfg {
            response_wait: SimDuration::from_secs(2),
            think_min: SimDuration::from_millis(500),
            think_max: SimDuration::from_millis(1500),
            ..QueryCfg::default()
        }
    }

    fn member(id: u32, files: Vec<u16>, query: QueryCfg) -> StackMachine {
        let node = NodeId(id);
        let algo = build_algo(
            AlgoKind::Regular,
            node,
            OverlayParams::default(),
            0,
            Rng::new(100 + id as u64),
        );
        let engine = QueryEngine::new(
            node,
            query,
            Catalog::default(),
            files.into_iter().map(FileId).collect(),
            Rng::new(200 + id as u64),
        );
        StackMachine::new(node, AodvCfg::default(), algo, engine)
    }

    impl Mesh {
        fn new(n: u32, files_of: impl Fn(u32) -> Vec<u16>) -> Mesh {
            Mesh::of(
                (0..n)
                    .map(|i| member(i, files_of(i), query_cfg()))
                    .collect(),
            )
        }

        fn of(nodes: Vec<StackMachine>) -> Mesh {
            let air = air(nodes.len());
            Mesh { nodes, air }
        }

        /// Deliver every frame on the air instantly, cascading.
        fn settle(&mut self, now: SimTime) {
            while let Some((src, frame)) = self.air.in_flight.pop_front() {
                let (targets, msg) = match frame {
                    SendDown::Broadcast(msg) => ((0..self.air.n).collect::<Vec<_>>(), msg),
                    SendDown::Unicast { to, msg } => (vec![to.index()], msg),
                };
                for to in targets.into_iter().filter(|&to| to != src.index()) {
                    let up = FrameUp {
                        from: src,
                        msg: msg.clone(),
                    };
                    self.nodes[to].on_frame(&mut self.air, now, up);
                }
            }
        }

        fn run(&mut self, until: SimTime) {
            let mut now = SimTime::ZERO;
            for i in 0..self.nodes.len() {
                self.nodes[i].join(&mut self.air, now);
                self.settle(now);
            }
            loop {
                let (i, at) = (0..self.nodes.len())
                    .map(|i| (i, self.air.wakes[i]))
                    .min_by_key(|&(_, at)| at)
                    .expect("nonempty");
                if at > until {
                    break;
                }
                now = at.max(now);
                self.air.wakes[i] = SimTime::MAX;
                self.nodes[i].tick(&mut self.air, now);
                self.settle(now);
            }
        }
    }

    /// The full composition answers queries end-to-end over an
    /// instantaneous mesh: overlay forms, queries fan out with TTL, a
    /// holder hits back, the window closes with ≥1 answer.
    #[test]
    fn mesh_answers_queries_end_to_end() {
        // Node 0 holds nothing; the rest share the catalogue's head so
        // every query target has a holder.
        let mut mesh = Mesh::new(4, |i| if i == 0 { vec![] } else { vec![0, 1, 2, 3] });
        mesh.run(SimTime::from_secs(20));
        assert!(
            mesh.nodes.iter().any(|n| !n.neighbors().is_empty()),
            "overlay never formed"
        );
        assert!(mesh.air.issued > 0, "no query ever issued");
        assert!(
            mesh.air.answered > 0,
            "no query answered (issued {})",
            mesh.air.issued
        );
    }

    /// A data frame from `src` to `dst`, one hop in.
    fn data(src: u32, dst: u32) -> Msg<AppMsg> {
        Msg::Data(manet_aodv::Data {
            src: NodeId(src),
            dst: NodeId(dst),
            hops: 1,
            payload: AppMsg::Content(ContentMsg::QueryHit {
                id: QueryId {
                    origin: NodeId(dst),
                    seq: 0,
                },
                file: FileId(0),
                p2p_hops: 1,
            }),
            ctx: TraceCtx::NONE,
        })
    }

    fn air(n: usize) -> Air {
        Air {
            n,
            wakes: vec![SimTime::MAX; n],
            sent_by: vec![0; n],
            ..Air::default()
        }
    }

    /// Adversaries are intercepted inside the machine, so any host runs
    /// them. A black-hole relay swallows a data frame an honest relay
    /// forwards while its own originations still go out, and in a full
    /// mesh a selfish holder never answers a query.
    #[test]
    fn black_hole_and_selfish_member_misbehave_on_any_host() {
        let now = SimTime::from_secs(1);
        let frame = |from: u32, msg| FrameUp {
            from: NodeId(from),
            msg,
        };
        // Node 1 first hears node 0 (learning a one-hop route to it), then
        // is asked to forward node 3's data to node 0.
        let mut forwarded = Vec::new();
        for adversary in [None, Some(AdversaryRole::BlackHole)] {
            let mut relay = StackMachine::relay(NodeId(1), AodvCfg::default());
            if let Some(role) = adversary {
                relay.set_adversary(role);
            }
            let mut air = air(4);
            relay.on_frame(&mut air, now, frame(0, data(0, 1)));
            relay.on_frame(&mut air, now, frame(3, data(3, 0)));
            forwarded.push(air.sent_by[1]);
            if adversary.is_some() {
                relay.overlay_down(
                    &mut air,
                    now,
                    OverlayDown::Content {
                        to: NodeId(0),
                        msg: ContentMsg::FetchRequest {
                            id: QueryId {
                                origin: NodeId(1),
                                seq: 0,
                            },
                            file: FileId(0),
                        },
                        ctx: TraceCtx::NONE,
                    },
                );
                assert_eq!(air.sent_by[1], 1, "own origination withheld");
            }
        }
        assert_eq!(
            forwarded,
            [1, 0],
            "honest relay forwards, black hole swallows"
        );

        // Node 3, the only holder, is selfish: queries reach it, but no
        // query is ever answered.
        let query = query_cfg();
        let mut nodes: Vec<_> = (0..4)
            .map(|i| member(i, if i == 3 { (0..20).collect() } else { vec![] }, query))
            .collect();
        nodes[3].set_adversary(AdversaryRole::Selfish);
        let mut mesh = Mesh::of(nodes);
        mesh.run(SimTime::from_secs(20));
        let queries_at_3 = mesh
            .air
            .delivered
            .iter()
            .filter(|&&(at, kind)| at == NodeId(3) && kind == manet_metrics::MsgKind::Query)
            .count();
        assert!(queries_at_3 > 0, "no query reached the selfish holder");
        assert!(mesh.air.issued > 0, "no query ever issued");
        assert_eq!(mesh.air.answered, 0, "a selfish holder answered");
    }

    /// Frames reaching a node that never joined are relayed by AODV but
    /// surface no overlay traffic — the "pure relay" semantics.
    #[test]
    fn unjoined_node_is_a_pure_relay() {
        let id = NodeId(9);
        let engine = QueryEngine::new(
            id,
            QueryCfg::default(),
            Catalog::default(),
            BTreeSet::new(),
            Rng::new(2),
        );
        let algo = build_algo(
            AlgoKind::Regular,
            id,
            OverlayParams::default(),
            0,
            Rng::new(1),
        );
        let mut m = StackMachine::new(id, AodvCfg::default(), algo, engine);
        assert!(!m.is_joined());
        let mut air = air(10);
        let now = SimTime::from_secs(1);
        m.on_frame(
            &mut air,
            now,
            FrameUp {
                from: NodeId(1),
                msg: data(1, 9),
            },
        );
        assert_eq!(
            m.aodv().route_hops(NodeId(1), now),
            Some(1),
            "AODV took the frame and learned its sender"
        );
        assert!(air.delivered.is_empty(), "no overlay delivery counted");
        assert!(air.in_flight.is_empty(), "no overlay reaction");
    }

    /// A relay's first frame arms its first wake (the routing purge) even
    /// when AODV drops the frame; a duplicate of it afterwards, dropped
    /// again, costs the host nothing.
    #[test]
    fn dropped_frame_arms_only_a_relay_that_never_asked() {
        let mut relay = StackMachine::relay(NodeId(1), AodvCfg::default());
        let mut air = air(4);
        let rreq = FrameUp {
            from: NodeId(0),
            msg: Msg::Rreq(manet_aodv::Rreq {
                origin: NodeId(0),
                origin_seq: 1,
                rreq_id: 0,
                dest: NodeId(3),
                dest_seq: None,
                hop_count: 0,
                ttl: 1,
                ctx: TraceCtx::NONE,
            }),
        };
        let now = SimTime::from_secs(1);
        relay.on_frame(&mut air, now, rreq.clone());
        assert!(air.in_flight.is_empty(), "a TTL-1 RREQ is not forwarded");
        assert_eq!(air.arms, 1, "the first frame arms the relay's timer");
        assert_eq!(air.wakes[1], relay.timer_request(false).at);
        assert!(air.wakes[1] < SimTime::MAX);
        let calls = air.calls;
        relay.on_frame(&mut air, now + SimDuration::from_millis(5), rreq);
        assert_eq!(relay.aodv().stats().rreq_dup_dropped, 1);
        assert_eq!(air.calls, calls, "a dropped duplicate makes no host call");
    }

    /// The combined timer is the min over all three layers.
    #[test]
    fn timer_is_combined_min() {
        let mut m = member(0, vec![], QueryCfg::default());
        let mut air = air(1);
        let before = m.timer_request(false).at;
        m.join(&mut air, SimTime::ZERO);
        let after = m.timer_request(false).at;
        assert!(after < SimTime::MAX, "join arms discovery/query timers");
        assert!(
            after <= before,
            "combined timer folds the overlay/query wakes in: {after:?} vs {before:?}"
        );
        assert_eq!(air.wakes[0], after, "join re-arms the host timer");
    }
}
