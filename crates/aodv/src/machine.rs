//! The per-node AODV state machine.
//!
//! [`Aodv`] is a *pure* protocol engine: every entry point takes the current
//! time plus an input (an upper-layer send, a received frame, a timer tick,
//! a link-layer failure) and returns a list of [`Action`]s for the world to
//! execute. It owns no clock and performs no I/O, which is what makes it
//! unit-testable on virtual topologies (see [`crate::testkit`]).

use std::collections::BTreeMap;

use manet_des::{IntMap, NodeId, SimTime, TraceCtx};

use crate::cfg::AodvCfg;
use crate::msg::{seq_newer, Data, Flood, Hello, Msg, Payload, Rerr, Rrep, Rreq};
use crate::table::RouteTable;

/// What the routing machine asks the world to do.
#[derive(Clone, Debug, PartialEq)]
pub enum Action<P> {
    /// Put `msg` on the air for every neighbor (link-layer broadcast).
    Broadcast(Msg<P>),
    /// Transmit `msg` to the specific neighbor `to` (link-layer unicast).
    Unicast { to: NodeId, msg: Msg<P> },
    /// A routed payload arrived for this node; hand it up.
    Deliver {
        /// The originating node.
        src: NodeId,
        /// Ad-hoc hops the payload travelled.
        hops: u8,
        /// The payload itself.
        payload: P,
        /// Causal context the payload travelled with.
        ctx: TraceCtx,
    },
    /// A controlled-broadcast payload reached this node; hand it up.
    DeliverFlood {
        /// The flooding node.
        origin: NodeId,
        /// Ad-hoc hops from the origin to here.
        hops: u8,
        /// The payload itself.
        payload: P,
        /// Causal context the flood travelled with.
        ctx: TraceCtx,
    },
    /// Route discovery for `dst` failed after all retries.
    Unreachable {
        /// The destination that could not be reached.
        dst: NodeId,
        /// Payloads that were waiting for the route, in send order.
        dropped: Vec<P>,
        /// Causal context of the payload that opened the discovery.
        ctx: TraceCtx,
    },
}

/// Protocol counters for one node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AodvStats {
    /// Route discoveries originated (attempts, including ring retries).
    pub rreqs_originated: u64,
    /// RREQs rebroadcast on behalf of others.
    pub rreqs_forwarded: u64,
    /// RREPs generated (as destination or intermediate).
    pub rreps_sent: u64,
    /// RERRs transmitted.
    pub rerrs_sent: u64,
    /// Data packets forwarded for others.
    pub data_forwarded: u64,
    /// Data packets dropped (no route at an intermediate hop, buffer
    /// overflow, or discovery failure).
    pub data_dropped: u64,
    /// Controlled broadcasts originated.
    pub floods_originated: u64,
    /// Controlled broadcasts re-forwarded.
    pub floods_forwarded: u64,
    /// HELLO beacons transmitted.
    pub hellos_sent: u64,
    /// RREQs dropped by the duplicate cache (already-seen `(origin, id)`).
    pub rreq_dup_dropped: u64,
    /// Controlled broadcasts dropped by the per-node broadcast cache.
    pub flood_dup_dropped: u64,
}

/// An in-progress route discovery.
#[derive(Clone, Debug)]
struct Discovery<P> {
    /// 0-based attempt counter (drives the expanding ring).
    attempt: u8,
    /// When the current attempt times out.
    deadline: SimTime,
    /// Payloads waiting for the route, each with the context it was sent
    /// under (later sends may belong to a different query than the one
    /// that opened the discovery).
    queue: Vec<(P, TraceCtx)>,
    /// Context of the payload that opened this discovery: every RREQ
    /// attempt (including ring retries) is attributed to it, so the
    /// route-acquisition cost lands on the query that paid for it.
    ctx: TraceCtx,
}

/// The AODV engine for one node. `P` is the upper-layer payload type.
#[derive(Clone, Debug)]
pub struct Aodv<P: Payload> {
    id: NodeId,
    cfg: AodvCfg,
    /// Own destination sequence number.
    seq: u32,
    next_rreq_id: u32,
    next_flood_id: u32,
    table: RouteTable,
    /// `(origin, rreq_id)` → cache expiry.
    rreq_seen: IntMap<(NodeId, u32), SimTime>,
    /// `(origin, flood_id)` → cache expiry (the paper's broadcast cache).
    flood_seen: IntMap<(NodeId, u32), SimTime>,
    /// Destinations under discovery (BTreeMap: deterministic timer order).
    pending: BTreeMap<NodeId, Discovery<P>>,
    /// Next housekeeping sweep.
    next_purge: SimTime,
    /// HELLO beaconing: when the next beacon is due (MAX when disabled).
    next_hello: SimTime,
    /// Last time each neighbor was heard (only populated when HELLOs are
    /// enabled; BTreeMap for deterministic expiry order).
    neighbors_heard: BTreeMap<NodeId, SimTime>,
    stats: AodvStats,
}

/// Housekeeping cadence.
const PURGE_PERIOD_SECS: u64 = 5;

impl<P: Payload> Aodv<P> {
    /// A fresh machine for node `id`.
    pub fn new(id: NodeId, cfg: AodvCfg) -> Self {
        cfg.validate();
        Aodv {
            id,
            cfg,
            seq: 0,
            next_rreq_id: 0,
            next_flood_id: 0,
            table: RouteTable::new(),
            rreq_seen: IntMap::default(),
            flood_seen: IntMap::default(),
            pending: BTreeMap::new(),
            next_purge: SimTime::from_secs(PURGE_PERIOD_SECS),
            next_hello: match cfg.hello_interval {
                Some(_) => SimTime::ZERO,
                None => SimTime::MAX,
            },
            neighbors_heard: BTreeMap::new(),
            stats: AodvStats::default(),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Protocol counters so far.
    pub fn stats(&self) -> &AodvStats {
        &self.stats
    }

    /// Read access to the routing table (diagnostics, hop-distance queries).
    pub fn table(&self) -> &RouteTable {
        &self.table
    }

    /// Hop count of the current usable route to `dst`, if any. The overlay
    /// uses this as its ad-hoc distance estimate, as the paper's overlay
    /// uses ns-2's AODV hop counts.
    pub fn route_hops(&self, dst: NodeId, now: SimTime) -> Option<u8> {
        self.table.usable_route(dst, now).map(|e| e.hop_count)
    }

    /// Earliest instant at which [`tick`](Self::tick) needs to run.
    pub fn next_wake(&self) -> SimTime {
        self.pending
            .values()
            .map(|d| d.deadline)
            .min()
            .unwrap_or(SimTime::MAX)
            .min(self.next_purge)
            .min(self.next_hello)
    }

    /// Causal context of the wake reported by [`next_wake`](Self::next_wake):
    /// the waiting discovery's context when the earliest deadline is a
    /// route-discovery retry, [`TraceCtx::NONE`] when it is housekeeping or
    /// a HELLO beacon. Lets the simulation attribute the armed timer to the
    /// query that is waiting on it.
    pub fn next_wake_ctx(&self) -> TraceCtx {
        let mut best: Option<(SimTime, TraceCtx)> = None;
        for d in self.pending.values() {
            if best.is_none_or(|(t, _)| d.deadline < t) {
                best = Some((d.deadline, d.ctx));
            }
        }
        match best {
            Some((t, ctx)) if t <= self.next_purge && t <= self.next_hello => ctx,
            _ => TraceCtx::NONE,
        }
    }

    /// Record that `from` was just heard (HELLO-mode neighbor tracking).
    fn heard(&mut self, now: SimTime, from: NodeId) {
        if self.cfg.hello_interval.is_some() {
            self.neighbors_heard.insert(from, now);
        }
    }

    // ------------------------------------------------------------------
    // Upper-layer entry points
    // ------------------------------------------------------------------

    /// Send `payload` to `dst` under causal context `ctx`, discovering a
    /// route if necessary (pass [`TraceCtx::NONE`] when untraced).
    pub fn send(&mut self, now: SimTime, dst: NodeId, payload: P, ctx: TraceCtx) -> Vec<Action<P>> {
        let mut out = Vec::new();
        if dst == self.id {
            out.push(Action::Deliver {
                src: self.id,
                hops: 0,
                payload,
                ctx,
            });
            return out;
        }
        if let Some(route) = self.table.usable_route(dst, now) {
            let next_hop = route.next_hop;
            self.table.refresh(dst, self.cfg.active_route_lifetime, now);
            self.table
                .refresh(next_hop, self.cfg.active_route_lifetime, now);
            out.push(Action::Unicast {
                to: next_hop,
                msg: Msg::Data(Data {
                    src: self.id,
                    dst,
                    hops: 0,
                    payload,
                    ctx,
                }),
            });
            return out;
        }
        // No route: buffer and (maybe) open a discovery.
        match self.pending.get_mut(&dst) {
            Some(d) => {
                if d.queue.len() >= self.cfg.max_buffered_per_dest {
                    d.queue.remove(0);
                    self.stats.data_dropped += 1;
                }
                d.queue.push((payload, ctx));
            }
            None => {
                let mut d = Discovery {
                    attempt: 0,
                    deadline: SimTime::MAX,
                    queue: vec![(payload, ctx)],
                    ctx,
                };
                out.push(self.emit_rreq(now, dst, &mut d));
                self.pending.insert(dst, d);
            }
        }
        out
    }

    /// Originate a controlled hop-limited broadcast of `payload` reaching
    /// nodes up to `ttl` ad-hoc hops away (the paper's connect mechanism),
    /// under causal context `ctx`.
    pub fn flood(&mut self, now: SimTime, ttl: u8, payload: P, ctx: TraceCtx) -> Vec<Action<P>> {
        assert!(ttl >= 1, "flood ttl must be at least 1");
        let flood_id = self.next_flood_id;
        self.next_flood_id += 1;
        // Remember our own flood so echoes are dropped.
        self.flood_seen
            .insert((self.id, flood_id), now + self.cfg.flood_cache_lifetime);
        self.stats.floods_originated += 1;
        vec![Action::Broadcast(Msg::Flood(Flood {
            origin: self.id,
            flood_id,
            ttl,
            hops: 0,
            payload,
            ctx,
        }))]
    }

    /// Timer tick: retry/expire discoveries and purge soft state.
    pub fn tick(&mut self, now: SimTime) -> Vec<Action<P>> {
        let mut out = Vec::new();
        // Expired discovery attempts (BTreeMap order keeps this deterministic).
        let expired: Vec<NodeId> = self
            .pending
            .iter()
            .filter(|(_, d)| d.deadline <= now)
            .map(|(dst, _)| *dst)
            .collect();
        for dst in expired {
            let mut d = self.pending.remove(&dst).expect("key just listed");
            if d.attempt + 1 < self.cfg.max_attempts() {
                d.attempt += 1;
                out.push(self.emit_rreq(now, dst, &mut d));
                self.pending.insert(dst, d);
            } else {
                self.stats.data_dropped += d.queue.len() as u64;
                out.push(Action::Unreachable {
                    dst,
                    dropped: d.queue.into_iter().map(|(p, _)| p).collect(),
                    ctx: d.ctx,
                });
            }
        }
        if self.next_purge <= now {
            self.rreq_seen.retain(|_, &mut exp| exp > now);
            self.flood_seen.retain(|_, &mut exp| exp > now);
            self.table.purge(now, self.cfg.active_route_lifetime * 3);
            self.next_purge = now + manet_des::SimDuration::from_secs(PURGE_PERIOD_SECS);
        }
        if let Some(interval) = self.cfg.hello_interval {
            if self.next_hello <= now {
                self.stats.hellos_sent += 1;
                out.push(Action::Broadcast(Msg::Hello(Hello { seq: self.seq })));
                self.next_hello = now + interval;
            }
            // Expire neighbors that have gone silent (RFC 3561 §6.11).
            let deadline = interval * self.cfg.allowed_hello_loss as u64;
            let silent: Vec<NodeId> = self
                .neighbors_heard
                .iter()
                .filter(|(_, &heard)| heard + deadline <= now)
                .map(|(&n, _)| n)
                .collect();
            for nb in silent {
                self.neighbors_heard.remove(&nb);
                let broken = self.table.break_link(nb);
                if !broken.is_empty() {
                    self.stats.rerrs_sent += 1;
                    // Beacon silence is background upkeep: no query caused it.
                    out.push(Action::Broadcast(Msg::Rerr(Rerr {
                        unreachable: broken,
                        ctx: TraceCtx::NONE,
                    })));
                }
            }
        }
        out
    }

    /// The world failed to deliver `msg` to neighbor `to` (out of range):
    /// treat as a link break per RFC 3561 §6.11.
    pub fn on_unicast_failed(&mut self, now: SimTime, to: NodeId, msg: Msg<P>) -> Vec<Action<P>> {
        let mut out = Vec::new();
        let broken = self.table.break_link(to);
        // The error is attributed to whatever the failed frame was doing.
        let ctx = msg.ctx();
        if let Msg::Data(d) = msg {
            if d.src == self.id {
                // We originated it: buffer and rediscover under its context.
                out.extend(self.send(now, d.dst, d.payload, d.ctx));
            } else {
                self.stats.data_dropped += 1;
            }
        }
        if !broken.is_empty() {
            self.stats.rerrs_sent += 1;
            out.push(Action::Broadcast(Msg::Rerr(Rerr {
                unreachable: broken,
                ctx,
            })));
        }
        out
    }

    /// A frame arrived from neighbor `from`.
    pub fn on_frame(&mut self, now: SimTime, from: NodeId, msg: Msg<P>) -> Vec<Action<P>> {
        self.heard(now, from);
        match msg {
            Msg::Rreq(r) => self.handle_rreq(now, from, r),
            Msg::Rrep(r) => self.handle_rrep(now, from, r),
            Msg::Rerr(r) => self.handle_rerr(now, from, r),
            Msg::Data(d) => self.handle_data(now, from, d),
            Msg::Flood(f) => self.handle_flood(now, from, f),
            Msg::Hello(h) => {
                // A beacon proves the 1-hop link and refreshes the route.
                self.table.update(
                    from,
                    from,
                    1,
                    Some(h.seq),
                    self.cfg.active_route_lifetime,
                    now,
                );
                Vec::new()
            }
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Build the RREQ for the discovery's current attempt and arm its timer.
    fn emit_rreq(&mut self, now: SimTime, dst: NodeId, d: &mut Discovery<P>) -> Action<P> {
        let ttl = self.cfg.ring_ttl(d.attempt);
        d.deadline = now + self.cfg.ring_timeout(ttl);
        self.seq = self.seq.wrapping_add(1);
        let rreq_id = self.next_rreq_id;
        self.next_rreq_id += 1;
        self.rreq_seen
            .insert((self.id, rreq_id), now + self.cfg.rreq_seen_lifetime);
        self.stats.rreqs_originated += 1;
        let dest_seq = self
            .table
            .entry(dst)
            .filter(|e| e.valid_seq)
            .map(|e| e.dest_seq);
        Action::Broadcast(Msg::Rreq(Rreq {
            origin: self.id,
            origin_seq: self.seq,
            rreq_id,
            dest: dst,
            dest_seq,
            hop_count: 0,
            ttl,
            ctx: d.ctx,
        }))
    }

    /// Record the sender as a 1-hop neighbor (passive, no sequence number).
    fn learn_neighbor(&mut self, now: SimTime, from: NodeId) {
        self.table
            .update(from, from, 1, None, self.cfg.active_route_lifetime, now);
    }

    /// Drain payloads waiting on `dst` if a usable route now exists.
    fn flush_pending(&mut self, now: SimTime, dst: NodeId, out: &mut Vec<Action<P>>) {
        let Some(route) = self.table.usable_route(dst, now) else {
            return;
        };
        let next_hop = route.next_hop;
        if let Some(d) = self.pending.remove(&dst) {
            for (payload, ctx) in d.queue {
                out.push(Action::Unicast {
                    to: next_hop,
                    msg: Msg::Data(Data {
                        src: self.id,
                        dst,
                        hops: 0,
                        payload,
                        ctx,
                    }),
                });
            }
        }
    }

    fn handle_rreq(&mut self, now: SimTime, from: NodeId, rreq: Rreq) -> Vec<Action<P>> {
        let mut out = Vec::new();
        if rreq.origin == self.id {
            return out; // echo of our own flood
        }
        let key = (rreq.origin, rreq.rreq_id);
        if self.rreq_seen.contains_key(&key) {
            self.stats.rreq_dup_dropped += 1;
            return out;
        }
        self.rreq_seen
            .insert(key, now + self.cfg.rreq_seen_lifetime);

        self.learn_neighbor(now, from);
        // Reverse route to the originator.
        self.table.update(
            rreq.origin,
            from,
            rreq.hop_count + 1,
            Some(rreq.origin_seq),
            self.cfg.active_route_lifetime,
            now,
        );
        self.flush_pending(now, rreq.origin, &mut out);

        if rreq.dest == self.id {
            // We are the destination: answer with our own sequence number.
            if let Some(ds) = rreq.dest_seq {
                if seq_newer(ds, self.seq) {
                    self.seq = ds;
                }
            }
            self.stats.rreps_sent += 1;
            out.push(Action::Unicast {
                to: from,
                msg: Msg::Rrep(Rrep {
                    dest: self.id,
                    dest_seq: self.seq,
                    origin: rreq.origin,
                    hop_count: 0,
                    ctx: rreq.ctx,
                }),
            });
            return out;
        }

        // Intermediate reply when we hold a fresh-enough route.
        if let Some(route) = self.table.usable_route(rreq.dest, now) {
            let fresh_enough = route.valid_seq
                && rreq
                    .dest_seq
                    .is_none_or(|ds| crate::msg::seq_at_least(route.dest_seq, ds));
            if fresh_enough {
                let (dest_seq, hop_count) = (route.dest_seq, route.hop_count);
                self.stats.rreps_sent += 1;
                out.push(Action::Unicast {
                    to: from,
                    msg: Msg::Rrep(Rrep {
                        dest: rreq.dest,
                        dest_seq,
                        origin: rreq.origin,
                        hop_count,
                        ctx: rreq.ctx,
                    }),
                });
                return out;
            }
        }

        // Keep the ring expanding.
        if rreq.ttl > 1 {
            self.stats.rreqs_forwarded += 1;
            out.push(Action::Broadcast(Msg::Rreq(Rreq {
                hop_count: rreq.hop_count + 1,
                ttl: rreq.ttl - 1,
                ..rreq
            })));
        }
        out
    }

    fn handle_rrep(&mut self, now: SimTime, from: NodeId, rrep: Rrep) -> Vec<Action<P>> {
        let mut out = Vec::new();
        // A legitimate RREP can cross at most `net_diameter` hops; one
        // claiming more is circulating on a malformed reverse path (the
        // loops an RREQ-amplifying adversary builds out of duplicate
        // requests do exactly this). Drop it before `hop_count + 1`
        // overflows the u8.
        if rrep.hop_count >= self.cfg.net_diameter {
            return out;
        }
        self.learn_neighbor(now, from);
        // Forward route to the discovered destination.
        self.table.update(
            rrep.dest,
            from,
            rrep.hop_count + 1,
            Some(rrep.dest_seq),
            self.cfg.active_route_lifetime,
            now,
        );
        self.flush_pending(now, rrep.dest, &mut out);

        if rrep.origin == self.id {
            return out; // reached the querier; pending data already flushed
        }
        // Forward along the reverse path.
        if let Some(rev) = self.table.usable_route(rrep.origin, now) {
            let rev_hop = rev.next_hop;
            out.push(Action::Unicast {
                to: rev_hop,
                msg: Msg::Rrep(Rrep {
                    hop_count: rrep.hop_count + 1,
                    ..rrep
                }),
            });
        }
        // No reverse route: the reply dies here (the querier will retry).
        out
    }

    fn handle_rerr(&mut self, _now: SimTime, from: NodeId, rerr: Rerr) -> Vec<Action<P>> {
        let mut out = Vec::new();
        let propagate = self.table.apply_rerr(from, &rerr.unreachable);
        if !propagate.is_empty() {
            self.stats.rerrs_sent += 1;
            out.push(Action::Broadcast(Msg::Rerr(Rerr {
                unreachable: propagate,
                ctx: rerr.ctx,
            })));
        }
        out
    }

    fn handle_data(&mut self, now: SimTime, from: NodeId, data: Data<P>) -> Vec<Action<P>> {
        let mut out = Vec::new();
        self.learn_neighbor(now, from);
        let hops = data.hops.saturating_add(1);
        if data.dst == self.id {
            // Keep the path back to the source warm for replies.
            self.table
                .refresh(data.src, self.cfg.active_route_lifetime, now);
            out.push(Action::Deliver {
                src: data.src,
                hops,
                payload: data.payload,
                ctx: data.ctx,
            });
            return out;
        }
        if hops >= self.cfg.max_data_hops {
            // Routing loop or pathological path: drop like an expired IP TTL.
            self.stats.data_dropped += 1;
            return out;
        }
        if let Some(route) = self.table.usable_route(data.dst, now) {
            let next_hop = route.next_hop;
            self.table
                .refresh(data.dst, self.cfg.active_route_lifetime, now);
            self.table
                .refresh(data.src, self.cfg.active_route_lifetime, now);
            self.table
                .refresh(next_hop, self.cfg.active_route_lifetime, now);
            self.stats.data_forwarded += 1;
            out.push(Action::Unicast {
                to: next_hop,
                msg: Msg::Data(Data { hops, ..data }),
            });
        } else {
            // No route at an intermediate hop: drop + RERR (RFC 3561 §6.11).
            self.stats.data_dropped += 1;
            let seq = self.table.invalidate(data.dst).map(|(_, s)| s).unwrap_or(0);
            self.stats.rerrs_sent += 1;
            out.push(Action::Broadcast(Msg::Rerr(Rerr {
                unreachable: vec![(data.dst, seq)],
                ctx: data.ctx,
            })));
        }
        out
    }

    fn handle_flood(&mut self, now: SimTime, from: NodeId, flood: Flood<P>) -> Vec<Action<P>> {
        let mut out = Vec::new();
        if flood.origin == self.id {
            return out;
        }
        let key = (flood.origin, flood.flood_id);
        if self.flood_seen.contains_key(&key) {
            self.stats.flood_dup_dropped += 1;
            return out; // the paper's per-node broadcast cache
        }
        self.flood_seen
            .insert(key, now + self.cfg.flood_cache_lifetime);

        self.learn_neighbor(now, from);
        let hops = flood.hops + 1;
        if self.cfg.learn_routes_from_flood {
            self.table.update(
                flood.origin,
                from,
                hops,
                None,
                self.cfg.active_route_lifetime,
                now,
            );
            self.flush_pending(now, flood.origin, &mut out);
        }
        out.push(Action::DeliverFlood {
            origin: flood.origin,
            hops,
            payload: flood.payload.clone(),
            ctx: flood.ctx,
        });
        if flood.ttl > 1 {
            self.stats.floods_forwarded += 1;
            out.push(Action::Broadcast(Msg::Flood(Flood {
                ttl: flood.ttl - 1,
                hops,
                ..flood
            })));
        }
        out
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use crate::testkit::TestPayload;
    use manet_des::SimDuration;
    use manet_testkit::{any_bool, prop_assert_eq, properties, vec_of};

    /// The machine under test; its peers are nodes 1 to 5.
    const ME: NodeId = NodeId(0);

    fn peer(x: u32) -> NodeId {
        NodeId(1 + x % 5)
    }

    fn ctx(x: u32) -> TraceCtx {
        if x.is_multiple_of(2) {
            TraceCtx::NONE
        } else {
            TraceCtx::root(x as u64, 1)
        }
    }

    /// Decode one generated frame. Ids come from small ranges, so first
    /// copies and duplicates of RREQs and floods both occur; `a == 0`
    /// makes a RREQ or flood this node's own echo.
    fn frame(kind: u8, a: u32, b: u32, c: u8, cfg: &AodvCfg) -> Msg<TestPayload> {
        let data = |dst, hops| {
            Msg::Data(Data {
                src: peer(b),
                dst,
                hops,
                payload: TestPayload(a as u64),
                ctx: ctx(b),
            })
        };
        match kind {
            // RREQ: own echo, for this node, or for a peer; TTL 1 to 3.
            0 => Msg::Rreq(Rreq {
                origin: NodeId(a),
                origin_seq: b,
                rreq_id: b,
                dest: if c.is_multiple_of(3) { ME } else { peer(a + b) },
                dest_seq: (c % 2 == 1).then_some(b),
                hop_count: c,
                ttl: 1 + c % 3,
                ctx: ctx(a),
            }),
            // RREP: to this node or to relay, some at or over the diameter.
            1 => Msg::Rrep(Rrep {
                dest: peer(a),
                dest_seq: b,
                origin: if b.is_multiple_of(2) { ME } else { peer(b) },
                hop_count: [0, 1, 3, cfg.net_diameter - 1, cfg.net_diameter, u8::MAX]
                    [c as usize % 6],
                ctx: ctx(b),
            }),
            2 => Msg::Rerr(Rerr {
                unreachable: vec![(peer(a), b), (peer(a + 1), c as u32)],
                ctx: ctx(a),
            }),
            3 => data(ME, c),
            4 => data(peer(a), c),
            5 => data(peer(a), cfg.max_data_hops - 1 + c % 2),
            // Flood: own echo or a peer's, first copy or duplicate.
            6 => Msg::Flood(Flood {
                origin: NodeId(a),
                flood_id: b,
                ttl: 1 + c % 2,
                hops: c,
                payload: TestPayload(b as u64),
                ctx: ctx(a),
            }),
            _ => Msg::Hello(Hello { seq: b }),
        }
    }

    properties! {
        config = manet_testkit::Config::cases(64);

        /// What `StackMachine::on_frame` relies on to skip its timer
        /// re-arm: whatever state the machine is in, a frame it answers
        /// with no action moves neither its wake nor that wake's context.
        /// Sends (which open discoveries), ticks (retries, purges, beacons)
        /// and own floods interleave with frames of every kind.
        fn dropped_frames_move_no_wake(
            hello in any_bool(),
            ops in vec_of((0u8..11, 0u32..6, 0u32..4, 0u8..6), 1..300),
        ) {
            let cfg = AodvCfg {
                hello_interval: hello.then(|| SimDuration::from_secs(1)),
                ..AodvCfg::default()
            };
            let mut node: Aodv<TestPayload> = Aodv::new(ME, cfg);
            let mut now = SimTime::ZERO;
            for (kind, a, b, c) in ops {
                now += SimDuration::from_millis(150 * c as u64);
                match kind {
                    8 => {
                        node.send(now, peer(a), TestPayload(b as u64), ctx(a));
                    }
                    9 => {
                        node.tick(now);
                    }
                    10 => {
                        node.flood(now, 1 + c % 3, TestPayload(b as u64), ctx(b));
                    }
                    _ => {
                        let (wake, wake_ctx) = (node.next_wake(), node.next_wake_ctx());
                        let from = peer(a + c as u32);
                        let msg = frame(kind, a, b, c, &cfg);
                        if node.on_frame(now, from, msg.clone()).is_empty() {
                            prop_assert_eq!(node.next_wake(), wake, "{:?} from {}", msg, from);
                            prop_assert_eq!(node.next_wake_ctx(), wake_ctx, "{:?}", msg);
                        }
                    }
                }
            }
        }
    }
}
