//! Spatially sharded conservative-parallel execution.
//!
//! A [`ShardedWorld`] partitions the simulation area into `R` vertical
//! strip regions (seams on [`SpatialGrid`](manet_geom::SpatialGrid) cell
//! boundaries, see [`manet_geom::RegionMap`]) and runs one *replica* of
//! the world per region. Every replica holds the complete global state —
//! the grid, every node's mobility process, the churn/fault subsystem RNG
//! streams — and processes every subsystem event, so globally visible
//! state (positions, fault windows, up/down toggles) evolves identically
//! in all shards without any communication. What is *owned* per shard is
//! the expensive part: the protocol stacks (AODV + overlay + query
//! engine) of the nodes inside its region, and the radio traffic they
//! emit.
//!
//! # Conservative synchronization
//!
//! Radio propagation bounds how fast effects cross a region seam: a frame
//! transmitted at `t` is delivered no earlier than `t + L`, where the
//! lookahead `L` is the minimum one-byte serialization delay plus the hop
//! latency ([`RadioCfg::lookahead`](manet_radio::RadioCfg::lookahead)).
//! Each barrier round therefore:
//!
//! 1. absorbs cross-shard frames mailed in the previous round,
//! 2. agrees on the global minimum next-event time `gmin`,
//! 3. lets every shard pop events in `[gmin, min(gmin + L - 1, horizon)]`
//!    without hearing from its neighbours — nothing they send inside the
//!    window can arrive before it closes,
//! 4. mails frames addressed to nodes another shard owns (timestamped,
//!    with the sender's per-transmission sequence number).
//!
//! # Partition-invariant determinism
//!
//! The sequential world draws radio loss/jitter from one shared RNG in
//! global pop order, which no parallel execution can reproduce. Sharded
//! runs instead define their own partition-invariant semantics, *identical
//! for every shard count and thread count*:
//!
//! * per-sender radio RNG streams (`radio_rng.fork(node)`) advanced only
//!   by that node's transmissions, shipped with the node on migration;
//! * an intrinsic [`EventKey`](manet_des::EventKey) per event, so every
//!   shard breaks timestamp ties the same way regardless of insertion
//!   order (the [`KeyedQueue`](manet_des::KeyedQueue) backend);
//! * replicated subsystem processing, so the shared streams (churn,
//!   bursts, mobility) never fork.
//!
//! The gate is `sharded(R = N) == sharded(R = 1)` on the aggregate
//! metrics; speedup is measured against the true sequential path, whose
//! bit-exact fingerprints stay untouched.
//!
//! # Migration
//!
//! Mobility moves nodes across seams. Ownership is recomputed at *epoch*
//! boundaries (every `MIGRATION_EPOCH_TICKS` of simulated time, derived
//! from the globally agreed window limit so every shard decides
//! identically): the old owner drains the node's pending events
//! (timer/join/deliveries), ships them with the live stack, its radio RNG
//! and transmission sequence, and keeps a cheap husk in the slot — safe
//! because replicas never read stacks they do not own.

use manet_aodv::{Aodv, Msg};
use manet_des::{NodeId, Rng, SimTime};
use manet_radio::EnergyMeter;
use p2p_stack::AppMsg;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use crate::engine::{deliver_key, Event};
use crate::errors::ScenarioError;
use crate::scenario::Scenario;
use crate::stack::{NodeStack, OverlayLayer, PhyLayer, RoutingLayer};
use crate::world::{RunResult, World, WorldCore};

/// Ownership is recomputed every 5 simulated seconds. Nodes move at
/// walking pace over tens-of-metres regions, so between epochs a migrated
/// node's traffic simply crosses the seam as ordinary cross-shard frames.
pub(crate) const MIGRATION_EPOCH_TICKS: u64 = 5_000_000;

/// Per-shard execution context, installed on [`WorldCore::shard`].
pub(crate) struct ShardCtx {
    /// This shard's index in `0..R`.
    pub(crate) index: usize,
    /// Current owner shard of every node (identical across shards).
    pub(crate) owners: Vec<u8>,
    /// Per-sender radio RNG streams (loss/jitter draws), advanced only by
    /// the owner of the sending node.
    pub(crate) radio_rngs: Vec<Rng>,
    /// Per-sender transmission sequence numbers, for intrinsic
    /// [`deliver_key`]s that every shard agrees on.
    pub(crate) tx_seq: Vec<u64>,
    /// Frames addressed to nodes other shards own, mailed at the barrier.
    pub(crate) outbox: Vec<CrossFrame>,
}

/// A radio reception crossing a shard seam.
pub(crate) struct CrossFrame {
    /// Receiving shard (owner of `to` at send time; stable until the mail
    /// is absorbed, because migration only happens after absorption).
    pub(crate) dst: u8,
    /// Absolute delivery time (at least lookahead past the send).
    pub(crate) at: SimTime,
    pub(crate) to: NodeId,
    pub(crate) from: NodeId,
    /// The sender's transmission sequence, reconstructing the delivery key.
    pub(crate) seq: u64,
    /// `None` when the medium lost the frame — the owner still counts the
    /// loss against the receiver's PHY stats.
    pub(crate) msg: Option<Msg<AppMsg>>,
}

/// A node changing owners at an epoch boundary.
struct MigRec {
    node: NodeId,
    stack: NodeStack,
    radio_rng: Rng,
    tx_seq: u64,
    /// Drained node-targeted events, re-scheduled verbatim (same time and
    /// intrinsic key) on the new owner.
    pending: Vec<(SimTime, manet_des::EventKey, Event)>,
}

/// `R` region replicas of one scenario, synchronized conservatively.
///
/// Same `run_replications` surface as [`World`]: build once, [`ShardedWorld::run`]
/// consumes it and reports a merged [`RunResult`]. Aggregate metrics are
/// identical for every shard count and thread count; `events` and
/// `peak_queue_depth` are execution measures and scale with `R`
/// (replicated subsystem events are counted once per shard).
pub struct ShardedWorld {
    shards: Vec<World>,
    lookahead_ticks: u64,
    horizon_ticks: u64,
}

impl ShardedWorld {
    /// Build `shards` region replicas of `scenario` from one seed.
    /// Panicking twin of [`try_new`](ShardedWorld::try_new).
    pub fn new(scenario: Scenario, seed: u64, shards: usize) -> Self {
        Self::try_new(scenario, seed, shards).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build `shards` region replicas of `scenario` from one seed. The
    /// scenario is validated with its `shards` field forced to the given
    /// count, so sharding-incompatible features (small-world sampling,
    /// zero-lookahead radio models) are rejected up front. Observability
    /// and causal tracing shard cleanly: each replica keeps an owner-gated
    /// sink and the per-shard reports fold at merge time.
    pub fn try_new(scenario: Scenario, seed: u64, shards: usize) -> Result<Self, ScenarioError> {
        let mut scenario = scenario;
        scenario.shards = shards.max(1);
        scenario.check()?;
        let r = scenario.shards;
        let lookahead = scenario.radio.lookahead();
        let horizon_ticks = scenario.duration.ticks();
        let mut worlds = Vec::with_capacity(r);
        for i in 0..r {
            let mut w = World::try_build(scenario.clone(), seed, None)?;
            let owners = compute_owners(&w.core, r);
            // Joins belong to the owner; every other initial event is
            // either replicated (subsystems) or per-node timers that do
            // not exist yet.
            w.core
                .engine
                .drain_matching(|e| matches!(e, Event::Join(n) if owners[n.index()] as usize != i));
            let n = w.core.nodes.len();
            let radio_rngs = (0..n).map(|j| w.core.radio_rng.fork(j as u64)).collect();
            w.core.shard = Some(Box::new(ShardCtx {
                index: i,
                owners,
                radio_rngs,
                tx_seq: vec![0; n],
                outbox: Vec::new(),
            }));
            // Subsystem (`Sub`) events are replicated in every shard; only
            // shard 0 counts them, so the merged `des.events_popped` sums
            // to a partition-invariant total.
            if i > 0 {
                if let Some(obs) = w.core.obs.on_mut() {
                    obs.count_sub = false;
                }
            }
            worlds.push(w);
        }
        Ok(ShardedWorld {
            shards: worlds,
            lookahead_ticks: lookahead.ticks().max(1),
            horizon_ticks,
        })
    }

    /// Execute to the horizon on up to `threads` OS threads (one per
    /// shard; `threads <= 1` runs the same barrier protocol in lockstep
    /// on the calling thread) and merge the per-shard results.
    pub fn run(mut self, threads: usize) -> RunResult {
        if threads <= 1 || self.shards.len() == 1 {
            self.run_lockstep();
        } else {
            self.run_threaded();
        }
        let results: Vec<RunResult> = self
            .shards
            .into_iter()
            .map(|mut w| {
                huskify_non_owned(&mut w);
                w.finish()
            })
            .collect();
        merge_results(results)
    }

    /// The barrier protocol on one thread: absorb, migrate-if-due, agree
    /// on `gmin`, pop the window, mail the outboxes.
    fn run_lockstep(&mut self) {
        let r = self.shards.len();
        let mut inboxes: Vec<Vec<CrossFrame>> = (0..r).map(|_| Vec::new()).collect();
        let mut last_epoch = 0u64;
        let mut prev_limit = 0u64;
        loop {
            for (i, w) in self.shards.iter_mut().enumerate() {
                absorb(w, std::mem::take(&mut inboxes[i]));
            }
            let epoch = prev_limit / MIGRATION_EPOCH_TICKS;
            if epoch > last_epoch {
                last_epoch = epoch;
                migrate_lockstep(&mut self.shards);
            }
            let Some(gmin) = self
                .shards
                .iter()
                .filter_map(|w| w.core.engine.next_time())
                .min()
            else {
                break;
            };
            if gmin.ticks() > self.horizon_ticks {
                break;
            }
            let limit = (gmin.ticks() + self.lookahead_ticks - 1).min(self.horizon_ticks);
            prev_limit = limit;
            for w in self.shards.iter_mut() {
                pop_window(w, SimTime::from_ticks(limit));
                let outbox = std::mem::take(&mut w.core.shard.as_mut().expect("sharded").outbox);
                for f in outbox {
                    inboxes[f.dst as usize].push(f);
                }
            }
        }
    }

    /// The same protocol with one OS thread per shard: mailboxes behind
    /// mutexes, next-event times in atomics, two `Barrier` waits per
    /// round (plus one inside a migration round). Every thread evaluates
    /// the same `gmin`/epoch predicates on the same published data, so
    /// all of them take the same barrier sequence — no coordinator.
    fn run_threaded(&mut self) {
        let r = self.shards.len();
        let lookahead = self.lookahead_ticks;
        let horizon = self.horizon_ticks;
        let mailboxes: Vec<Mutex<Vec<CrossFrame>>> =
            (0..r).map(|_| Mutex::new(Vec::new())).collect();
        let migboxes: Vec<Mutex<Vec<MigRec>>> = (0..r).map(|_| Mutex::new(Vec::new())).collect();
        let next_times: Vec<AtomicU64> = (0..r).map(|_| AtomicU64::new(0)).collect();
        let barrier = Barrier::new(r);
        let worlds = std::mem::take(&mut self.shards);
        self.shards = std::thread::scope(|scope| {
            let handles: Vec<_> = worlds
                .into_iter()
                .enumerate()
                .map(|(i, mut w)| {
                    let mailboxes = &mailboxes;
                    let migboxes = &migboxes;
                    let next_times = &next_times;
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut last_epoch = 0u64;
                        let mut prev_limit = 0u64;
                        loop {
                            barrier.wait();
                            let mail = std::mem::take(&mut *mailboxes[i].lock().expect("mailbox"));
                            absorb(&mut w, mail);
                            let epoch = prev_limit / MIGRATION_EPOCH_TICKS;
                            if epoch > last_epoch {
                                last_epoch = epoch;
                                let new_owners = compute_owners(&w.core, r);
                                let moves = extract_departures(&mut w, &new_owners);
                                w.core.shard.as_mut().expect("sharded").owners = new_owners;
                                for (dst, rec) in moves {
                                    migboxes[dst].lock().expect("migbox").push(rec);
                                }
                                barrier.wait();
                                let mut recs =
                                    std::mem::take(&mut *migboxes[i].lock().expect("migbox"));
                                recs.sort_by_key(|m| m.node.0);
                                for rec in recs {
                                    install(&mut w, rec);
                                }
                            }
                            let nt = w.core.engine.next_time().map_or(u64::MAX, |t| t.ticks());
                            next_times[i].store(nt, Ordering::SeqCst);
                            barrier.wait();
                            let gmin = next_times
                                .iter()
                                .map(|a| a.load(Ordering::SeqCst))
                                .min()
                                .expect("at least one shard");
                            if gmin == u64::MAX || gmin > horizon {
                                break;
                            }
                            let limit = (gmin + lookahead - 1).min(horizon);
                            prev_limit = limit;
                            pop_window(&mut w, SimTime::from_ticks(limit));
                            let outbox =
                                std::mem::take(&mut w.core.shard.as_mut().expect("sharded").outbox);
                            for f in outbox {
                                mailboxes[f.dst as usize].lock().expect("mailbox").push(f);
                            }
                        }
                        w
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard thread panicked"))
                .collect()
        });
    }
}

/// Current region owner of every node, from the replicated grid. Every
/// shard computes the identical map because grids never diverge.
fn compute_owners(core: &WorldCore, r: usize) -> Vec<u8> {
    assert!(r <= 256, "owners are u8");
    let map = core.grid.strip_regions(r);
    (0..core.nodes.len())
        .map(|i| {
            let pos = core
                .grid
                .position(i as u32)
                .expect("every node is on the grid");
            map.region_of(pos) as u8
        })
        .collect()
}

/// Schedule mailed-in receptions (or count mailed-in losses). Sorted so
/// insertion order is identical whatever order sender shards pushed; pop
/// order would agree anyway because (time, key) pairs are unique.
fn absorb(w: &mut World, mut mail: Vec<CrossFrame>) {
    mail.sort_by_key(|f| (f.at, f.from.0, f.to.0, f.seq));
    for f in mail {
        match f.msg {
            Some(msg) => w.core.engine.schedule_keyed(
                f.at,
                deliver_key(f.from, f.to, f.seq),
                Event::Deliver {
                    to: f.to,
                    from: f.from,
                    msg,
                },
            ),
            None => w.core.nodes[f.to.index()].phy.stats.on_loss(),
        }
    }
}

/// Pop and dispatch everything at or before `limit`.
///
/// Series sampling piggybacks on `Sub` events: subsystem events are
/// replicated with identical `(time, key)` pairs in every shard and each
/// shard pops in `(time, key)` order, so "the first `Sub` at or past a
/// cadence boundary" is the *same logical cut* in every shard, whatever
/// the shard or thread count. Sampling there (instead of after every
/// event, as the sequential path does) keeps the merged per-sample series
/// partition-invariant.
fn pop_window(w: &mut World, limit: SimTime) {
    while let Some((now, ev)) = w.core.engine.pop_before(limit) {
        let is_sub = matches!(ev, Event::Sub(_));
        w.dispatch(now, ev);
        w.run_post_hooks(now);
        if is_sub {
            w.core.obs_series_tick(now);
        }
    }
}

/// Extract every owned node that `new_owners` sends elsewhere.
fn extract_departures(w: &mut World, new_owners: &[u8]) -> Vec<(usize, MigRec)> {
    let index = w.core.shard.as_ref().expect("sharded").index;
    let mut moves = Vec::new();
    for (i, &new_owner) in new_owners.iter().enumerate() {
        let old = w.core.shard.as_ref().expect("sharded").owners[i] as usize;
        if old == index && new_owner as usize != index {
            moves.push((new_owner as usize, extract(w, NodeId(i as u32))));
        }
    }
    moves
}

/// Lockstep migration: recompute owners once, move records directly.
fn migrate_lockstep(shards: &mut [World]) {
    let r = shards.len();
    let new_owners = compute_owners(&shards[0].core, r);
    let mut moves: Vec<(usize, MigRec)> = Vec::new();
    for w in shards.iter_mut() {
        moves.extend(extract_departures(w, &new_owners));
        w.core.shard.as_mut().expect("sharded").owners = new_owners.clone();
    }
    moves.sort_by_key(|(_, m)| m.node.0);
    for (dst, rec) in moves {
        install(&mut shards[dst], rec);
    }
}

/// Pull a node's live state out of its (old) owner, leaving a husk.
fn extract(w: &mut World, id: NodeId) -> MigRec {
    let pending = w.core.engine.drain_matching(|e| match e {
        Event::NodeTimer(n) | Event::Join(n) => *n == id,
        Event::Deliver { to, .. } => *to == id,
        Event::Sub(_) => false,
    });
    let husk = husk_stack(id, &w.core.scenario);
    let stack = std::mem::replace(&mut w.core.nodes[id.index()], husk);
    let sh = w.core.shard.as_mut().expect("sharded");
    MigRec {
        node: id,
        stack,
        radio_rng: std::mem::replace(&mut sh.radio_rngs[id.index()], Rng::new(0)),
        tx_seq: sh.tx_seq[id.index()],
        pending,
    }
}

/// Install a migrated node on its new owner. Drained events re-schedule
/// under their original (time, key) pairs — all strictly past the last
/// closed window, hence in this queue's future.
fn install(w: &mut World, rec: MigRec) {
    w.core.nodes[rec.node.index()] = rec.stack;
    let sh = w.core.shard.as_mut().expect("sharded");
    sh.radio_rngs[rec.node.index()] = rec.radio_rng;
    sh.tx_seq[rec.node.index()] = rec.tx_seq;
    for (at, key, ev) in rec.pending {
        w.core.engine.schedule_keyed(at, key, ev);
    }
}

/// A placeholder stack for a slot this shard does not own: radio down,
/// zero stats, unlimited (hence zero-spend) battery, no membership. Never
/// read during the run; at finish it contributes nothing to any metric.
fn husk_stack(id: NodeId, scenario: &Scenario) -> NodeStack {
    NodeStack {
        phy: PhyLayer {
            stats: Default::default(),
            energy: EnergyMeter::unlimited(),
            up: false,
        },
        routing: RoutingLayer {
            aodv: Aodv::new(id, scenario.aodv),
            timer_at: SimTime::MAX,
        },
        overlay: OverlayLayer { member: None },
        adversary: None,
    }
}

/// Reduce every non-owned slot to a husk so the per-shard
/// [`RunResult`] counts owned nodes only.
fn huskify_non_owned(w: &mut World) {
    for i in 0..w.core.nodes.len() {
        let id = NodeId(i as u32);
        if !w.core.owns(id) {
            w.core.nodes[i] = husk_stack(id, &w.core.scenario);
        }
    }
}

/// Merge per-shard partial results (owned-node metrics each) into the
/// global result. Additive metrics sum; `members`/`smallworld` come from
/// shard 0 (identical or empty everywhere); `events` sums and
/// `peak_queue_depth` maxes — both execution measures that legitimately
/// depend on the shard count. Obs reports fold owner-gated counters and
/// identically-cut series ([`ObsReport::merge_shard`]); trace logs fold
/// with id offsetting ([`TraceLog::merge_offset`]) — both in shard index
/// order, so the merged artifacts are thread-count invariant.
fn merge_results(results: Vec<RunResult>) -> RunResult {
    let mut it = results.into_iter();
    let mut acc = it.next().expect("at least one shard");
    for r in it {
        acc.obs.merge_shard(&r.obs);
        acc.trace.merge_offset(&r.trace);
        acc.counters.merge(&r.counters);
        acc.file_metrics.merge(&r.file_metrics);
        acc.phy_total.merge(&r.phy_total);
        for (a, b) in acc.energy_mj.iter_mut().zip(&r.energy_mj) {
            *a += *b;
        }
        for (a, b) in acc.roles.iter_mut().zip(&r.roles) {
            *a += *b;
        }
        acc.conns_established += r.conns_established;
        acc.conns_closed += r.conns_closed;
        acc.queries_issued += r.queries_issued;
        acc.answers_received += r.answers_received;
        acc.events += r.events;
        acc.peak_queue_depth = acc.peak_queue_depth.max(r.peak_queue_depth);
        // Each shard divided its owned members' connection count by the
        // full member census, so the partial means add up exactly.
        acc.avg_connections += r.avg_connections;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_core::AlgoKind;

    #[test]
    fn single_shard_runs_to_completion() {
        let s = Scenario::quick(20, AlgoKind::Regular, 60);
        let r = ShardedWorld::new(s, 7, 1).run(1);
        assert!(r.events > 0);
        assert_eq!(r.members.len(), 15);
    }

    #[test]
    fn sharding_accepts_obs_and_tracing_but_not_smallworld() {
        let mut s = Scenario::quick(20, AlgoKind::Regular, 60);
        s.obs.enabled = true;
        s.trace_capacity = 100;
        assert!(ShardedWorld::try_new(s, 1, 2).is_ok());
        let mut s = Scenario::quick(20, AlgoKind::Regular, 60);
        s.smallworld_sample = Some(manet_des::SimDuration::from_secs(10));
        assert!(matches!(
            ShardedWorld::try_new(s, 1, 2),
            Err(ScenarioError::Sharding(_))
        ));
    }

    #[test]
    fn only_shard_zero_counts_replicated_sub_events() {
        let mut s = Scenario::quick(20, AlgoKind::Regular, 60);
        s.obs.enabled = true;
        let sharded = ShardedWorld::new(s, 7, 3);
        for (i, w) in sharded.shards.iter().enumerate() {
            let obs = w.core.obs.get().expect("obs on");
            assert_eq!(obs.count_sub, i == 0, "shard {i}");
        }
    }

    #[test]
    fn owners_cover_every_node() {
        let s = Scenario::quick(40, AlgoKind::Regular, 30);
        let sharded = ShardedWorld::new(s, 3, 4);
        for w in &sharded.shards {
            let sh = w.core.shard.as_ref().expect("sharded");
            assert_eq!(sh.owners.len(), 40);
            assert!(sh.owners.iter().all(|&o| (o as usize) < 4));
        }
        // All four replicas agree on the initial partition.
        let first = sharded.shards[0]
            .core
            .shard
            .as_ref()
            .unwrap()
            .owners
            .clone();
        for w in &sharded.shards[1..] {
            assert_eq!(w.core.shard.as_ref().unwrap().owners, first);
        }
    }
}
