//! The simulated world: a slim engine, per-node layer stacks, and the
//! fixed processes around them.
//!
//! One [`World`] is one replication. Since the layered refactor it is a
//! thin composition root: the crate-private `Engine` (`crate::engine`)
//! owns the clock and future-event list, every node's protocol stack
//! above the phy layer (AODV → overlay → query engine) is a
//! [`StackMachine`] hosted by the core (`crate::stack`), and every
//! cross-cutting process (mobility epochs, churn, the fault plan,
//! sampling, the query flooder) is a set of handlers in
//! `crate::subsystems` that the event loop calls directly. `WorldCore` is
//! the shared state those parts operate on.
//!
//! Determinism: every random stream is forked from the replication seed
//! with a fixed label, all per-node containers iterate in id order, and the
//! event queue breaks timestamp ties by insertion order — so a `(scenario,
//! seed)` pair reproduces byte-identical results on any machine. The
//! layered decomposition is held to the same contract: the
//! `refactor_equivalence` test pins fingerprints captured on the
//! pre-refactor monolith.

use manet_des::{NodeId, Rng, SchedulerKind, SimDuration, SimTime};
use manet_geom::{Point, SpatialGrid};
use manet_graph::{Graph, SmallWorld};
use manet_metrics::{FileMetrics, NodeCounters};
use manet_mobility::{
    AnyMobility, GaussMarkov, GaussMarkovCfg, Mobility, RandomWalk, RandomWalkCfg, RandomWaypoint,
    RandomWaypointCfg, Rpgm, RpgmCfg, Stationary,
};
use manet_obs::{
    CounterId, FlightRecorder, GaugeId, HistId, ObsReport, Registry, Severity, SpanId, SpanProfile,
};
use manet_radio::{EnergyMeter, LinkFaults, Medium, PhyStats, TxScratch};
use p2p_content::{CompletedQuery, QueryEngine};
use p2p_core::{build_algo, Role};
use p2p_stack::{FrameUp, StackMachine, TraceLog};

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::engine::{Engine, Event};
use crate::errors::ScenarioError;
use crate::oracle::HopOracle;
use crate::scenario::{MobilityKind, Scenario};
use crate::stack::{self, PhyLayer};
use crate::subsystems::{self, adversary, churn, faults, mobility, sampler};

/// RNG stream labels (see DESIGN.md's determinism note).
pub(crate) mod labels {
    pub const RADIO: u64 = 1;
    pub const QUALIFIERS: u64 = 2;
    pub const CATALOG: u64 = 3;
    pub const JOIN: u64 = 4;
    pub const CHURN: u64 = 5;
    pub const PLACEMENT: u64 = 6;
    pub const GROUPS: u64 = 7;
    pub const FAULTS: u64 = 8;
    pub const MOBILITY_BASE: u64 = 1_000;
    pub const ENGINE_BASE: u64 = 2_000_000;
    pub const ALGO_BASE: u64 = 3_000_000;
}

/// One wall-clock timing per this many traversals of an instrumented
/// region. Stride-sampled span timing is what killed the observability
/// tax: the old per-event `Instant::now()` pairs cost ~25% of the hot
/// path, the sampled pair costs 1/64 of that and
/// [`SpanProfile::add_weighted`] extrapolates the profile back to an
/// unbiased total.
pub(crate) const SPAN_STRIDE: u64 = 64;

/// Observability sink state for one world: the metrics registry with its
/// pre-resolved metric ids, the span profile and the flight recorder.
///
/// Boxed in [`WorldCore::obs`]; the disabled sink is `None`, so toggling
/// costs one discriminant test per instrumentation site and nothing else.
/// Everything recorded here is derived from simulation state the world
/// maintains anyway — enabling observability never draws randomness,
/// schedules events, or otherwise perturbs a run (the fingerprint tests
/// hold it to that). Series cadence is inlined into the event loop
/// (`step_observed`).
pub(crate) struct ObsState {
    pub(crate) registry: Registry,
    pub(crate) spans: SpanProfile,
    pub(crate) recorder: FlightRecorder,
    /// Series cadence (zero disables series sampling; the final
    /// at-horizon counter mirror still happens).
    sample_period: SimDuration,
    /// When the next series sample is due.
    next_sample: SimTime,
    /// Countdown to the next timed scheduler-pop/dispatch pair.
    pop_stride_left: u32,
    /// Countdown to the next timed broadcast-planning call.
    plan_stride_left: u32,
    c_events: CounterId,
    c_scheduled: CounterId,
    c_retunes: CounterId,
    c_tx_planned: CounterId,
    c_tx_lost: CounterId,
    c_rreq_orig: CounterId,
    c_rreq_dup: CounterId,
    c_flood_dup: CounterId,
    c_queries: CounterId,
    c_answers: CounterId,
    /// Per-event-class dispatch counters, bumped once per event.
    c_deliver: CounterId,
    c_timer: CounterId,
    c_join: CounterId,
    c_sub: CounterId,
    g_queue: GaugeId,
    /// Receptions per planned broadcast and ad-hoc hops per delivery.
    pub(crate) h_fanout: HistId,
    pub(crate) h_hops: HistId,
    s_pop: SpanId,
    s_dispatch: SpanId,
    pub(crate) s_plan: SpanId,
}

impl ObsState {
    fn new(cfg: manet_obs::ObsConfig) -> Self {
        let mut registry = Registry::default();
        let mut spans = SpanProfile::new();
        // Registration order is part of the report format.
        let h_fanout = registry.hist("radio.broadcast_fanout");
        let h_hops = registry.hist("sim.deliver_hops");
        let period = SimDuration::from_secs_f64(cfg.sample_period_secs.max(0.0));
        ObsState {
            c_events: registry.counter("des.events_popped"),
            c_scheduled: registry.counter("des.events_scheduled"),
            c_retunes: registry.counter("des.calendar.retunes"),
            c_tx_planned: registry.counter("radio.tx_planned"),
            c_tx_lost: registry.counter("radio.tx_lost"),
            c_rreq_orig: registry.counter("aodv.rreqs_originated"),
            c_rreq_dup: registry.counter("aodv.rreq_dup_dropped"),
            c_flood_dup: registry.counter("aodv.flood_dup_dropped"),
            c_queries: registry.counter("sim.queries_issued"),
            c_answers: registry.counter("sim.answers_received"),
            c_deliver: registry.counter("des.dispatch.deliver"),
            c_timer: registry.counter("des.dispatch.node_timer"),
            c_join: registry.counter("des.dispatch.join"),
            c_sub: registry.counter("des.dispatch.sub"),
            g_queue: registry.gauge("des.queue_depth"),
            h_fanout,
            h_hops,
            s_pop: spans.register("des.pop"),
            s_dispatch: spans.register("sim.dispatch"),
            s_plan: spans.register("radio.plan_broadcast"),
            sample_period: period,
            next_sample: SimTime::ZERO + period,
            pop_stride_left: 0,
            plan_stride_left: 0,
            registry,
            spans,
            recorder: FlightRecorder::new(cfg.recorder_capacity),
        }
    }

    /// Should this traversal of the pop/dispatch region be wall-clock
    /// timed? True once per [`SPAN_STRIDE`] calls.
    #[inline]
    fn pop_timed(&mut self) -> bool {
        if self.pop_stride_left == 0 {
            self.pop_stride_left = SPAN_STRIDE as u32 - 1;
            true
        } else {
            self.pop_stride_left -= 1;
            false
        }
    }

    /// Should this broadcast-planning call be wall-clock timed?
    #[inline]
    pub(crate) fn plan_timed(&mut self) -> bool {
        if self.plan_stride_left == 0 {
            self.plan_stride_left = SPAN_STRIDE as u32 - 1;
            true
        } else {
            self.plan_stride_left -= 1;
            false
        }
    }

    /// Is a series sample due at `now`?
    #[inline]
    fn series_due(&self, now: SimTime) -> bool {
        !self.sample_period.is_zero() && now >= self.next_sample
    }

    fn advance_sample(&mut self, now: SimTime) {
        while self.next_sample <= now {
            self.next_sample += self.sample_period;
        }
    }
}

/// Medium-wide fault-window flags, flipped by the fault processes and
/// read by [`WorldCore::active_faults`] on every planned transmission.
#[derive(Default)]
pub(crate) struct LinkState {
    /// Burst process currently in the high-loss state?
    pub(crate) burst_on: bool,
    /// Inside a whole-medium flap window?
    pub(crate) flap_on: bool,
    /// Inside a delay-spike window?
    pub(crate) jitter_on: bool,
}

/// Everything a finished replication reports.
pub struct RunResult {
    /// Per-node received-message counters.
    pub counters: NodeCounters,
    /// The overlay members (node ids).
    pub members: Vec<NodeId>,
    /// Figs 5–6 accumulators.
    pub file_metrics: FileMetrics,
    /// Small-world samples `(time_secs, metrics)`.
    pub smallworld: Vec<(f64, SmallWorld)>,
    /// Network-wide PHY totals.
    pub phy_total: PhyStats,
    /// Energy spent per node, millijoules.
    pub energy_mj: Vec<f64>,
    /// Final role census: [servent, initial, reserved, master, slave].
    pub roles: [usize; 5],
    /// Overlay connections established across the run.
    pub conns_established: u64,
    /// Overlay connections closed across the run.
    pub conns_closed: u64,
    /// Queries issued by all members.
    pub queries_issued: u64,
    /// Total answers received by requirers.
    pub answers_received: u64,
    /// Events the loop processed (throughput metric).
    pub events: u64,
    /// Deepest the future-event list got during the run (live events).
    pub peak_queue_depth: usize,
    /// Mean established connections per member at the end.
    pub avg_connections: f64,
    /// The causal trace (empty unless `Scenario::trace_capacity > 0`).
    pub trace: TraceLog,
    /// The observability report (empty unless `Scenario::obs` is enabled).
    /// Deliberately excluded from [`fingerprint`](RunResult::fingerprint):
    /// its span timings are wall-clock and the deterministic contract is
    /// carried by the numeric outputs already folded in.
    pub obs: ObsReport,
}

impl RunResult {
    /// Order-sensitive FNV-1a digest of every numeric output of a run.
    ///
    /// Two runs count as bit-identical iff their fingerprints match: the
    /// digest folds in per-node message counters, PHY totals, per-node
    /// energy (exact f64 bits), the role census, connection/query/answer
    /// totals, small-world samples, file metrics and the event count. The
    /// scheduler-equivalence tests and the bench harness use it to detect
    /// behavioural drift without field-by-field comparison.
    pub fn fingerprint(&self) -> u64 {
        use manet_metrics::MsgKind;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn mix(h: &mut u64, x: u64) {
            *h = (*h ^ x).wrapping_mul(PRIME);
        }
        fn mix_f(h: &mut u64, x: f64) {
            mix(h, x.to_bits());
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for kind in MsgKind::ALL {
            for v in self.counters.column(kind) {
                mix(&mut h, v);
            }
        }
        mix(&mut h, self.members.len() as u64);
        for i in 0..self.file_metrics.len() {
            let f = self.file_metrics.file(i);
            mix(&mut h, f.requests);
            mix(&mut h, f.answers);
            mix(&mut h, f.answered);
            mix(&mut h, f.oracle_count);
            mix_f(&mut h, f.min_dist_sum);
            mix_f(&mut h, f.min_p2p_sum);
            mix_f(&mut h, f.oracle_sum);
        }
        for (t, sw) in &self.smallworld {
            mix_f(&mut h, *t);
            mix(&mut h, sw.n as u64);
            mix_f(&mut h, sw.k);
            mix_f(&mut h, sw.clustering);
            mix_f(&mut h, sw.path_length);
        }
        mix(&mut h, self.phy_total.frames_sent);
        mix(&mut h, self.phy_total.frames_received);
        mix(&mut h, self.phy_total.frames_lost);
        mix(&mut h, self.phy_total.link_breaks);
        mix(&mut h, self.phy_total.bytes_sent);
        mix(&mut h, self.phy_total.bytes_received);
        for e in &self.energy_mj {
            mix_f(&mut h, *e);
        }
        for r in self.roles {
            mix(&mut h, r as u64);
        }
        mix(&mut h, self.conns_established);
        mix(&mut h, self.conns_closed);
        mix(&mut h, self.queries_issued);
        mix(&mut h, self.answers_received);
        mix(&mut h, self.events);
        mix(&mut h, self.peak_queue_depth as u64);
        mix_f(&mut h, self.avg_connections);
        h
    }
}

/// The shared simulation state every process handler operates on and
/// every node's [`StackMachine`] runs against as its host: the engine,
/// per-node phy state, the medium, metrics accumulators, the processes'
/// own state and the optional observability sink. Kept separate from
/// [`World`] so a machine (borrowed from `World::stacks`) and the core can
/// be borrowed mutably at the same time.
pub(crate) struct WorldCore {
    pub(crate) scenario: Scenario,
    pub(crate) engine: Engine,
    pub(crate) grid: SpatialGrid,
    pub(crate) medium: Medium,
    pub(crate) radio_rng: Rng,
    /// Per-node radio accounting, indexed by node id.
    pub(crate) phy: Vec<PhyLayer>,
    /// Earliest scheduled `NodeTimer` per node (MAX = none) — avoids
    /// event storms.
    pub(crate) timer_at: Vec<SimTime>,
    /// `(algorithm seed, qualifier)` per member, indexed by node id: what
    /// a member's algorithm is rebuilt from after churn or a crash.
    pub(crate) algo_seeds: Vec<(u64, u32)>,
    /// SoA hot per-node state: the mobility process and its RNG stream,
    /// indexed by node id, so the position reads the radio hot path makes
    /// stay in a few dense arrays.
    pub(crate) mobility: Vec<AnyMobility>,
    pub(crate) mob_rngs: Vec<Rng>,
    /// Radio on/off per node (churn, crashes *and* battery depletion).
    /// Frame arrival, transmission, timers, the distance oracle and the
    /// connectivity graph all read it.
    pub(crate) hot_up: Vec<bool>,
    pub(crate) members: Vec<NodeId>,
    pub(crate) holders_by_file: Vec<Vec<NodeId>>,
    pub(crate) counters: NodeCounters,
    pub(crate) file_metrics: FileMetrics,
    pub(crate) smallworld: Vec<(f64, SmallWorld)>,
    pub(crate) link_state: LinkState,
    /// The churn process's dwell-time stream.
    pub(crate) churn_rng: Rng,
    /// The loss-burst process's dwell-time stream.
    pub(crate) burst_rng: Rng,
    /// Queries each node has injected as a query flooder, indexed by id.
    pub(crate) flood_sent: Vec<u32>,
    pub(crate) answers_received: u64,
    /// Reusable transmission-planning buffers (zero-alloc hot path).
    pub(crate) scratch: TxScratch,
    /// Reusable distance-oracle buffers (zero-alloc per completed query).
    pub(crate) oracle: HopOracle,
    pub(crate) trace: TraceLog,
    /// Replication seed (kept for observability dump labels).
    pub(crate) seed: u64,
    /// Observability sink, precomputed at construction; `None` keeps the
    /// hot path to a single discriminant test per site.
    pub(crate) obs: Option<Box<ObsState>>,
}

impl WorldCore {
    /// The scenario horizon as an absolute time.
    pub(crate) fn horizon(&self) -> SimTime {
        SimTime::ZERO + self.scenario.duration
    }

    /// The impairment in force for a transmission planned right now,
    /// composed from the independent loss/burst/flap/jitter processes.
    pub(crate) fn active_faults(&self) -> LinkFaults {
        let mut f = LinkFaults::NONE;
        if let Some(loss) = &self.scenario.faults.loss {
            f.extra_loss = loss.base;
            if self.link_state.burst_on {
                if let Some(b) = &loss.burst {
                    f.extra_loss = f.extra_loss.max(b.burst_loss);
                }
            }
        }
        if self.link_state.flap_on {
            f.extra_loss = 1.0;
        }
        if self.link_state.jitter_on {
            if let Some(j) = &self.scenario.faults.jitter {
                f.extra_delay = j.extra_delay;
            }
        }
        f
    }

    /// Mirror the world's always-on counters into the registry and (when
    /// `push_series`) append a time-series sample at `now`.
    pub(crate) fn obs_sample(&mut self, stacks: &[StackMachine], now: SimTime, push_series: bool) {
        let Some(mut obs) = self.obs.take() else {
            return;
        };
        obs.registry.set(obs.c_events, self.engine.events);
        obs.registry
            .set(obs.c_scheduled, self.engine.scheduled_total());
        if let Some(stats) = self.engine.calendar_stats() {
            obs.registry.set(obs.c_retunes, stats[3]);
        }
        obs.registry
            .set_gauge(obs.g_queue, self.engine.len() as f64);
        obs.registry
            .set(obs.c_tx_planned, self.scratch.planned_total);
        obs.registry.set(obs.c_tx_lost, self.scratch.lost_total);
        let (mut rreq_orig, mut rreq_dup, mut flood_dup) = (0u64, 0u64, 0u64);
        for stack in stacks {
            let st = stack.aodv().stats();
            rreq_orig += st.rreqs_originated;
            rreq_dup += st.rreq_dup_dropped;
            flood_dup += st.flood_dup_dropped;
        }
        obs.registry.set(obs.c_rreq_orig, rreq_orig);
        obs.registry.set(obs.c_rreq_dup, rreq_dup);
        obs.registry.set(obs.c_flood_dup, flood_dup);
        let mut queries = 0u64;
        for &id in &self.members {
            if let Some(q) = stacks[id.index()].query_stats() {
                queries += q.issued;
            }
        }
        obs.registry.set(obs.c_queries, queries);
        obs.registry.set(obs.c_answers, self.answers_received);
        if push_series {
            obs.registry.sample(now.as_secs_f64());
        }
        self.obs = Some(obs);
    }

    /// Take a cadence-due series sample at `now`, advancing the cadence.
    /// Called after every observed event.
    #[inline]
    fn obs_series_tick(&mut self, stacks: &[StackMachine], now: SimTime) {
        let due = match self.obs.as_deref_mut() {
            Some(o) if o.series_due(now) => {
                o.advance_sample(now);
                true
            }
            _ => false,
        };
        if due {
            self.obs_sample(stacks, now, true);
        }
    }

    /// The final at-horizon sample every enabled sink gets, so counter
    /// totals in the report match the run's end state even with series
    /// sampling off.
    pub(crate) fn obs_final_sample(&mut self, stacks: &[StackMachine]) {
        let Some(o) = self.obs.as_deref() else {
            return;
        };
        let push = !o.sample_period.is_zero();
        let horizon = self.horizon();
        self.obs_sample(stacks, horizon, push);
    }

    /// Append a flight-recorder entry. The message closure only runs when
    /// the sink (and its recorder) is enabled, keeping format cost off the
    /// disabled path.
    pub(crate) fn obs_record(
        &mut self,
        now: SimTime,
        severity: Severity,
        tag: &'static str,
        msg: impl FnOnce() -> String,
    ) {
        if let Some(obs) = self.obs.as_deref_mut() {
            if obs.recorder.enabled() {
                obs.recorder.record(now.as_secs_f64(), severity, tag, msg());
            }
        }
    }

    pub(crate) fn record_completed_query(&mut self, requirer: NodeId, done: &CompletedQuery) {
        let dists: Vec<(u8, u8)> = done
            .answers
            .iter()
            .map(|a| (a.adhoc_hops, a.p2p_hops))
            .collect();
        self.answers_received += done.answers.len() as u64;
        let oracle = self.oracle_distance(requirer, done.file.0 as usize);
        self.file_metrics
            .record(done.file.0 as usize, &dists, oracle);
    }

    /// The paper's Fig 5-6 distance: "the minimum number of hops from the
    /// source to the peer holding the requested information" — the hop
    /// count over the instantaneous radio connectivity graph (up nodes,
    /// linked when within radio range) from the requirer to the *nearest*
    /// up holder of the file. `Some(0)` when the requirer holds the file;
    /// `None` when the requirer is down or no up holder is reachable.
    ///
    /// The graph is never built: a bounded BFS ([`HopOracle::nearest`])
    /// walks outward from the requirer one hop level at a time through
    /// the spatial grid's range queries, visiting only up nodes, and
    /// returns at the first level that contains a holder (a binary search
    /// in the slot-sorted holder list). Every node first reached while
    /// expanding level `d - 1` is exactly `d` hops away, so this is the
    /// full-graph BFS answer at the cost of the nodes explored.
    pub(crate) fn oracle_distance(&mut self, requirer: NodeId, file: usize) -> Option<u32> {
        self.oracle.nearest(
            &self.grid,
            self.medium.cfg().range_m,
            &self.hot_up,
            &self.holders_by_file[file],
            requirer,
        )
    }

    /// The instantaneous radio connectivity graph over all (up) nodes.
    pub(crate) fn connectivity_graph(&self) -> Graph {
        let n = self.hot_up.len();
        let mut g = Graph::new(n);
        let range = self.medium.cfg().range_m;
        let mut buf = Vec::new();
        for (id, pos) in self.grid.iter() {
            if !self.hot_up[id as usize] {
                continue;
            }
            self.grid.query_range(pos, range, id, &mut buf);
            for &nb in &buf {
                if nb > id && self.hot_up[nb as usize] {
                    g.add_edge(id, nb);
                }
            }
        }
        g
    }

    /// The current overlay graph over members (established references,
    /// symmetric closure).
    pub(crate) fn overlay_graph(&self, stacks: &[StackMachine]) -> Graph {
        let n = self.members.len();
        let mut g = Graph::new(n);
        for (slot, &id) in self.members.iter().enumerate() {
            if let Some(algo) = stacks[id.index()].algo() {
                for nb in algo.neighbors() {
                    let other = nb.index();
                    if other < n && other != slot {
                        g.add_edge(slot as u32, nb.0);
                    }
                }
            }
        }
        g
    }

    /// Structural sanity of the live world at time `now`; see
    /// [`World::check_invariants`].
    fn check_invariants(&self, stacks: &[StackMachine], now: SimTime) -> Vec<String> {
        let mut v = Vec::new();
        let n = stacks.len();

        // Routing-table sanity.
        for (i, stack) in stacks.iter().enumerate() {
            let id = NodeId(i as u32);
            for (dst, entry) in stack.aodv().table().iter() {
                if *dst == id {
                    v.push(format!("node {i}: routing-table entry for itself"));
                }
                if dst.index() >= n {
                    v.push(format!("node {i}: route to nonexistent node {}", dst.0));
                }
                if entry.next_hop.index() >= n {
                    v.push(format!(
                        "node {i}: route to {} via nonexistent node {}",
                        dst.0, entry.next_hop.0
                    ));
                }
                if entry.next_hop == id {
                    v.push(format!("node {i}: route to {} via itself", dst.0));
                }
                if entry.usable(now) && entry.hop_count == 0 {
                    v.push(format!("node {i}: usable zero-hop route to {}", dst.0));
                }
            }
        }

        // Overlay neighbor-set sanity for live members.
        let capacity = self.scenario.overlay.max_conn + self.scenario.overlay.max_slaves;
        let mut neighbor_sets: Vec<Option<Vec<NodeId>>> = vec![None; n];
        for &id in &self.members {
            let stack = &stacks[id.index()];
            if self.hot_up[id.index()] && stack.is_joined() {
                neighbor_sets[id.index()] = Some(stack.neighbors());
            }
        }
        let mut directed = 0usize;
        let mut asymmetric = 0usize;
        for (i, set) in neighbor_sets.iter().enumerate() {
            let Some(neighbors) = set else { continue };
            if neighbors.len() > capacity {
                v.push(format!(
                    "member {i}: {} neighbors exceed capacity {capacity}",
                    neighbors.len()
                ));
            }
            for (k, &nb) in neighbors.iter().enumerate() {
                if nb.index() == i {
                    v.push(format!("member {i}: connected to itself"));
                }
                if nb.index() >= self.members.len() {
                    v.push(format!("member {i}: neighbor {} is not a member", nb.0));
                    continue;
                }
                if neighbors[..k].contains(&nb) {
                    v.push(format!("member {i}: duplicate neighbor {}", nb.0));
                }
                // Symmetry against peers that are alive to answer for it.
                if let Some(peer_set) = &neighbor_sets[nb.index()] {
                    directed += 1;
                    if !peer_set.contains(&NodeId(i as u32)) {
                        asymmetric += 1;
                    }
                }
            }
        }
        if directed >= 8 && asymmetric * 2 > directed {
            v.push(format!(
                "overlay symmetry: {asymmetric} of {directed} references one-sided"
            ));
        }

        v
    }

    /// Consume the core and assemble the [`RunResult`].
    fn finish_result(self, stacks: &[StackMachine]) -> RunResult {
        let obs = match self.obs {
            Some(o) => ObsReport {
                registry: o.registry,
                spans: o.spans,
                recorder: o.recorder,
                runs: 1,
            },
            None => ObsReport::default(),
        };
        let mut roles = [0usize; 5];
        let mut established = 0;
        let mut closed = 0;
        let mut conn_count = 0usize;
        let mut phy_total = PhyStats::default();
        let mut energy = Vec::with_capacity(self.phy.len());
        let mut queries = 0;
        for (phy, stack) in self.phy.iter().zip(stacks) {
            phy_total.merge(&phy.stats);
            energy.push(phy.energy.spent_mj());
            if let Some(algo) = stack.algo() {
                let idx = match algo.role() {
                    Role::Servent => 0,
                    Role::Initial => 1,
                    Role::Reserved => 2,
                    Role::Master => 3,
                    Role::Slave => 4,
                };
                roles[idx] += 1;
                let st = algo.conn_stats();
                established += st.established;
                closed += st.closed_total();
                conn_count += algo.neighbors().len();
                queries += stack.query_stats().map_or(0, |q| q.issued);
            }
        }
        let avg_connections = if self.members.is_empty() {
            0.0
        } else {
            conn_count as f64 / self.members.len() as f64
        };
        RunResult {
            counters: self.counters,
            members: self.members,
            file_metrics: self.file_metrics,
            smallworld: self.smallworld,
            phy_total,
            energy_mj: energy,
            roles,
            conns_established: established,
            conns_closed: closed,
            queries_issued: queries,
            answers_received: self.answers_received,
            events: self.engine.events,
            peak_queue_depth: self.engine.peak_queue,
            avg_connections,
            trace: self.trace,
            obs,
        }
    }
}

/// One replication of a [`Scenario`]: the shared crate-private core and
/// one protocol machine per node.
pub struct World {
    pub(crate) core: WorldCore,
    /// One [`StackMachine`] per node, indexed by id, run with the core as
    /// its host.
    pub(crate) stacks: Vec<StackMachine>,
}

impl World {
    /// Build a world from a scenario and a replication seed, on the default
    /// scheduler. Panics on an invalid scenario; see
    /// [`try_new`](World::try_new) for the fallible twin.
    pub fn new(scenario: Scenario, seed: u64) -> Self {
        World::with_scheduler(scenario, seed, SchedulerKind::default())
    }

    /// Fallible constructor: returns the first configuration problem as a
    /// typed [`ScenarioError`] instead of panicking.
    pub fn try_new(scenario: Scenario, seed: u64) -> Result<Self, ScenarioError> {
        World::try_with_scheduler(scenario, seed, SchedulerKind::default())
    }

    /// Build a world whose future-event list runs on `scheduler`.
    ///
    /// The choice affects wall-clock speed only: results are bit-identical
    /// across schedulers (see [`RunResult::fingerprint`]).
    pub fn with_scheduler(scenario: Scenario, seed: u64, scheduler: SchedulerKind) -> Self {
        World::try_with_scheduler(scenario, seed, scheduler).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`with_scheduler`](World::with_scheduler); every
    /// other constructor goes through here.
    pub fn try_with_scheduler(
        scenario: Scenario,
        seed: u64,
        scheduler: SchedulerKind,
    ) -> Result<Self, ScenarioError> {
        scenario.check()?;
        let master = Rng::new(seed);
        let area = scenario.area();
        let medium = Medium::new(scenario.radio);
        let n = scenario.n_nodes;

        // Membership: the first n_members node ids are members; placement
        // is uniform so the choice of ids carries no spatial bias.
        let n_members = scenario.n_members();
        let members: Vec<NodeId> = (0..n_members as u32).map(NodeId).collect();

        // File holdings per member slot, plus the reverse index used by the
        // oracle-distance metric (Figs 5-6).
        let mut catalog_rng = master.fork(labels::CATALOG);
        let holdings = scenario.catalog.assign(n_members, &mut catalog_rng);
        let mut holders_by_file: Vec<Vec<NodeId>> =
            vec![Vec::new(); scenario.catalog.n_files as usize];
        for (slot, set) in holdings.iter().enumerate() {
            for f in set {
                holders_by_file[f.0 as usize].push(NodeId(slot as u32));
            }
        }

        let mut qual_rng = master.fork(labels::QUALIFIERS);
        let mut placement_rng = master.fork(labels::PLACEMENT);

        let mut stacks = Vec::with_capacity(n);
        let mut phy = Vec::with_capacity(n);
        let mut algo_seeds = Vec::with_capacity(n_members);
        let mut mobility_soa = Vec::with_capacity(n);
        let mut mob_rngs = Vec::with_capacity(n);
        let mut positions = Vec::with_capacity(n);
        // Indexed loop: `i` names the node id and (for members) its slot in
        // `holdings`; an enumerate over holdings would stop at n_members.
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            let id = NodeId(i as u32);
            let mut mob_rng = master.fork(labels::MOBILITY_BASE + i as u64);
            let start = Point::new(
                placement_rng.range_f64(area.x0, area.x1),
                placement_rng.range_f64(area.y0, area.y1),
            );
            let mobility: AnyMobility = match scenario.mobility {
                MobilityKind::Waypoint {
                    max_speed,
                    max_pause,
                } => RandomWaypoint::new(
                    RandomWaypointCfg {
                        bounds: area,
                        min_speed: (max_speed * 0.1).max(1e-3),
                        max_speed,
                        max_pause,
                    },
                    start,
                    &mut mob_rng,
                )
                .into(),
                MobilityKind::Walk { max_speed } => RandomWalk::new(
                    RandomWalkCfg {
                        bounds: area,
                        min_speed: (max_speed * 0.1).max(1e-3),
                        max_speed,
                        leg_duration: 60.0,
                    },
                    start,
                    &mut mob_rng,
                )
                .into(),
                MobilityKind::GaussMarkov => {
                    GaussMarkov::new(GaussMarkovCfg::walking(area), start, &mut mob_rng).into()
                }
                MobilityKind::Groups {
                    n_groups,
                    max_speed,
                    group_radius,
                } => {
                    let group = i % n_groups.max(1);
                    let group_seed = master.fork(labels::GROUPS + group as u64).next_u64();
                    Rpgm::new(
                        RpgmCfg {
                            bounds: area,
                            min_speed: (max_speed * 0.1).max(1e-3),
                            max_speed,
                            max_pause: 100.0,
                            group_radius,
                            offset_interval: 20.0,
                        },
                        group_seed,
                        &mut mob_rng,
                    )
                    .into()
                }
                MobilityKind::Stationary => Stationary::new(start).into(),
            };
            positions.push(mobility.position(SimTime::ZERO));

            let stack = if (i as u32) < n_members as u32 {
                let qualifier = qual_rng.range_u64(
                    scenario.qualifier_range.0 as u64,
                    scenario.qualifier_range.1 as u64,
                ) as u32;
                let algo_seed = master.fork(labels::ALGO_BASE + i as u64).next_u64();
                let algo = build_algo(
                    scenario.algo,
                    id,
                    scenario.overlay,
                    qualifier,
                    Rng::new(algo_seed),
                );
                let engine = QueryEngine::new(
                    id,
                    scenario.query,
                    scenario.catalog,
                    holdings[i].clone(),
                    master.fork(labels::ENGINE_BASE + i as u64),
                );
                algo_seeds.push((algo_seed, qualifier));
                StackMachine::new(id, scenario.aodv, algo, engine)
            } else {
                StackMachine::relay(id, scenario.aodv)
            };

            mobility_soa.push(mobility);
            mob_rngs.push(mob_rng);
            stacks.push(stack);
            phy.push(PhyLayer {
                stats: PhyStats::default(),
                energy: match scenario.battery_mj {
                    Some(mj) => EnergyMeter::new(mj),
                    None => EnergyMeter::unlimited(),
                },
            });
        }

        // Attach adversarial roles (validated by `check` above). Pure
        // state assignment: no RNG draws, no events, so honest scenarios
        // and honest nodes are untouched.
        for a in &scenario.adversaries {
            stacks[a.node.index()].set_adversary(a.role);
        }

        let grid = SpatialGrid::with_positions(area, scenario.radio.range_m, &positions);

        let mut core = WorldCore {
            counters: NodeCounters::new(n),
            file_metrics: FileMetrics::new(scenario.catalog.n_files as usize),
            smallworld: Vec::new(),
            radio_rng: master.fork(labels::RADIO),
            link_state: LinkState::default(),
            churn_rng: master.fork(labels::CHURN),
            burst_rng: master.fork(labels::FAULTS),
            flood_sent: vec![0; n],
            engine: Engine::with_scheduler(scheduler),
            grid,
            medium,
            mobility: mobility_soa,
            mob_rngs,
            hot_up: vec![true; n],
            phy,
            timer_at: vec![SimTime::MAX; n],
            algo_seeds,
            members,
            holders_by_file,
            answers_received: 0,
            scratch: TxScratch::default(),
            oracle: HopOracle::default(),
            trace: TraceLog::with_seed(scenario.trace_capacity, seed),
            seed,
            obs: scenario
                .obs
                .enabled
                .then(|| Box::new(ObsState::new(scenario.obs))),
            scenario,
        };

        // Seed initial events. Insertion order is part of the deterministic
        // contract (timestamp ties break by insertion), so the interleaving
        // mirrors the pre-refactor monolith: per node, the first mobility
        // re-evaluation then the staggered join; afterwards every process's
        // one-time seeds (sampler, churn draws, the fault plan's windows and
        // crashes, flooders).
        let mut join_rng = master.fork(labels::JOIN);
        for stack in &stacks {
            let id = stack.id();
            mobility::schedule_next(&mut core, id, SimTime::ZERO);
            if stack.is_member() {
                let at =
                    SimTime::from_ticks(join_rng.below(core.scenario.join_window.ticks().max(1)));
                core.engine.schedule(at, Event::Join(id));
            }
        }
        subsystems::seed(&mut core);

        Ok(World { core, stacks })
    }

    /// Process the next event, if it lies within the scenario horizon.
    ///
    /// Returns the timestamp of the processed event, or `None` when the
    /// replication is over (queue drained or horizon reached). Exposed so
    /// harnesses can interleave [`check_invariants`](World::check_invariants)
    /// with execution; [`run`](World::run) is the plain loop over it.
    pub fn step(&mut self) -> Option<SimTime> {
        let horizon = self.core.horizon();
        if self.core.obs.is_some() {
            return self.step_observed(horizon);
        }
        let (now, event) = self.core.engine.pop_before(horizon)?;
        self.dispatch(now, event);
        Some(now)
    }

    /// The instrumented twin of [`step`](World::step): identical
    /// simulation behaviour, plus stride-sampled span timing around the
    /// scheduler pop and the event dispatch (one timestamp pair per
    /// [`SPAN_STRIDE`] events, extrapolated) and the inlined series-cadence
    /// check. The instrumentation only reads state — it never schedules
    /// events or draws randomness — so observed and unobserved runs stay
    /// bit-identical.
    fn step_observed(&mut self, horizon: SimTime) -> Option<SimTime> {
        let timed = self
            .core
            .obs
            .as_deref_mut()
            .expect("observed step")
            .pop_timed();
        if timed {
            let t0 = Instant::now();
            let popped = self.core.engine.pop_before(horizon);
            let pop_elapsed = t0.elapsed();
            let Some((now, event)) = popped else {
                let obs = self.core.obs.as_deref_mut().expect("observed step");
                obs.spans.add_weighted(obs.s_pop, pop_elapsed, SPAN_STRIDE);
                return None;
            };
            let t1 = Instant::now();
            self.dispatch(now, event);
            let dispatch_elapsed = t1.elapsed();
            let obs = self.core.obs.as_deref_mut().expect("observed step");
            obs.spans.add_weighted(obs.s_pop, pop_elapsed, SPAN_STRIDE);
            obs.spans
                .add_weighted(obs.s_dispatch, dispatch_elapsed, SPAN_STRIDE);
            self.core.obs_series_tick(&self.stacks, now);
            Some(now)
        } else {
            let (now, event) = self.core.engine.pop_before(horizon)?;
            self.dispatch(now, event);
            self.core.obs_series_tick(&self.stacks, now);
            Some(now)
        }
    }

    /// Route one event to its handler: node traffic to the node's machine
    /// through the DES host, process events to their process.
    fn dispatch(&mut self, now: SimTime, event: Event) {
        if let Some(obs) = self.core.obs.as_deref_mut() {
            let class = match &event {
                Event::Deliver { .. } => obs.c_deliver,
                Event::NodeTimer(_) => obs.c_timer,
                Event::Join(_) => obs.c_join,
                _ => obs.c_sub,
            };
            obs.registry.inc(class, 1);
        }
        let core = &mut self.core;
        let stacks = &mut self.stacks;
        match event {
            Event::Deliver { to, from, msg } => {
                stack::phy::frame_arrival(core, &mut stacks[to.index()], now, FrameUp { from, msg })
            }
            Event::NodeTimer(id) => stack::node_timer(core, &mut stacks[id.index()], now),
            Event::Join(id) => stack::join(core, &mut stacks[id.index()], now),
            Event::Move(id) => mobility::on_move(core, id, now),
            Event::ChurnDown(id) => churn::down(core, &mut stacks[id.index()], now),
            Event::ChurnUp(id) => churn::up(core, &mut stacks[id.index()], now),
            Event::Crash(id) => faults::crash(core, &mut stacks[id.index()], now),
            Event::Restart(id) => faults::restart(core, &mut stacks[id.index()], now),
            Event::Burst => faults::burst(core, now),
            Event::Flap => faults::flap(core, now),
            Event::Jitter => faults::jitter(core, now),
            Event::SmallWorld => sampler::sample(core, stacks, now),
            Event::Flood(id) => adversary::flood(core, &mut stacks[id.index()], now),
        }
    }

    /// Execute the replication to `scenario.duration` and report.
    pub fn run(mut self) -> RunResult {
        while self.step().is_some() {}
        self.finish()
    }

    /// Execute the replication with invariant checking and automatic
    /// flight-recorder dumps.
    ///
    /// The event loop runs inside `catch_unwind`, so a panicking fault-plan
    /// run still writes its JSONL post-mortem into `dump_dir` before the
    /// panic resumes. After a clean run,
    /// [`check_invariants`](World::check_invariants) and the conservation laws
    /// ([`crate::invariants::check_result`]) are evaluated; any violation
    /// is recorded at `Error` severity and dumped. Returns the result and
    /// the (already dumped) violations.
    pub fn run_checked(mut self, dump_dir: &Path) -> (RunResult, Vec<String>) {
        use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
        let seed = self.core.seed;
        let outcome = catch_unwind(AssertUnwindSafe(|| while self.step().is_some() {}));
        if let Err(payload) = outcome {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            let now = self.core.engine.now();
            if let Some(obs) = self.core.obs.as_deref_mut() {
                obs.recorder
                    .record(now.as_secs_f64(), Severity::Error, "panic", msg.clone());
            }
            self.dump_obs(dump_dir, &format!("panic_seed{seed}"), &[msg]);
            resume_unwind(payload);
        }
        let now = self.core.engine.now();
        let mut violations = self.check_invariants(now);
        if !violations.is_empty() {
            if let Some(obs) = self.core.obs.as_deref_mut() {
                for v in &violations {
                    obs.recorder
                        .record(now.as_secs_f64(), Severity::Error, "invariant", v.clone());
                }
            }
            self.dump_obs(dump_dir, &format!("invariants_seed{seed}"), &violations);
        }
        let scenario = self.core.scenario.clone();
        let result = self.finish();
        let end = crate::invariants::check_result(&scenario, &result);
        if !end.is_empty() && result.obs.enabled() {
            let _ = manet_obs::report::dump_failure(
                dump_dir,
                &format!("conservation_seed{seed}"),
                &end,
                &result.obs,
            );
        }
        violations.extend(end);
        (result, violations)
    }

    /// Write the current observability state as a JSONL failure dump into
    /// `dir`. Returns the path written, or `None` when the sink is
    /// disabled (or the write failed).
    pub fn dump_obs(&mut self, dir: &Path, label: &str, violations: &[String]) -> Option<PathBuf> {
        self.core.obs.as_ref()?;
        let now = self.core.engine.now();
        self.core.obs_sample(&self.stacks, now, true);
        let o = self.core.obs.as_deref().expect("sink enabled");
        let report = ObsReport {
            registry: o.registry.clone(),
            spans: o.spans.clone(),
            recorder: o.recorder.clone(),
            runs: 1,
        };
        manet_obs::report::dump_failure(dir, label, violations, &report).ok()
    }

    /// Consume the world and report. Harnesses driving [`step`](World::step)
    /// themselves call this once `step` returns `None`. The sink takes its
    /// final at-horizon sample first.
    pub fn finish(mut self) -> RunResult {
        self.core.obs_final_sample(&self.stacks);
        self.core.finish_result(&self.stacks)
    }

    /// Structural sanity of the live world at time `now`: routing tables
    /// and overlay neighbor sets. Returns one message per violation.
    ///
    /// Everything checked here holds at *every* instant of *any* scenario
    /// (faults included); see `invariants` for the end-of-run conservation
    /// laws. Overlay symmetry is deliberately a soft check: the
    /// Connect/Accept/Confirm handshake leaves edges one-sided for a
    /// message round-trip, so only a mostly-asymmetric overlay is flagged.
    pub fn check_invariants(&self, now: SimTime) -> Vec<String> {
        self.core.check_invariants(&self.stacks, now)
    }

    /// The instantaneous radio connectivity graph over all (up) nodes.
    pub fn connectivity_graph(&self) -> Graph {
        self.core.connectivity_graph()
    }

    /// The current overlay graph over members (established references,
    /// symmetric closure).
    pub fn overlay_graph(&self) -> Graph {
        self.core.overlay_graph(&self.stacks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_des::SimDuration;
    use manet_metrics::MsgKind;
    use p2p_core::AlgoKind;

    fn quick(algo: AlgoKind, n: usize, secs: u64, seed: u64) -> RunResult {
        World::new(Scenario::quick(n, algo, secs), seed).run()
    }

    #[test]
    fn world_runs_to_completion_for_all_algorithms() {
        for algo in AlgoKind::ALL {
            let s = Scenario::quick(20, algo, 120);
            let expect = s.n_members();
            let r = World::new(s, 1).run();
            assert!(r.events > 0, "{algo}: no events processed");
            assert_eq!(r.members.len(), expect);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = quick(AlgoKind::Regular, 25, 150, 7);
        let b = quick(AlgoKind::Regular, 25, 150, 7);
        assert_eq!(a.events, b.events);
        assert_eq!(a.queries_issued, b.queries_issued);
        assert_eq!(
            a.counters.column(MsgKind::Connect),
            b.counters.column(MsgKind::Connect)
        );
        assert_eq!(
            a.counters.column(MsgKind::Ping),
            b.counters.column(MsgKind::Ping)
        );
        assert_eq!(a.phy_total, b.phy_total);
    }

    #[test]
    fn different_seeds_differ() {
        let a = quick(AlgoKind::Regular, 25, 150, 7);
        let b = quick(AlgoKind::Regular, 25, 150, 8);
        assert_ne!(
            (a.events, a.phy_total.frames_sent),
            (b.events, b.phy_total.frames_sent)
        );
    }

    #[test]
    fn overlay_forms_connections() {
        // Dense-enough network: members should find each other.
        let r = quick(AlgoKind::Regular, 30, 300, 3);
        assert!(
            r.avg_connections > 0.5,
            "members barely connected: {}",
            r.avg_connections
        );
        assert!(r.conns_established > 0);
    }

    #[test]
    fn queries_flow_and_get_answers() {
        let r = quick(AlgoKind::Regular, 30, 600, 4);
        assert!(r.queries_issued > 0, "no queries issued");
        assert!(
            r.counters.total(MsgKind::Query) > 0,
            "no query traffic received"
        );
        assert!(r.answers_received > 0, "no answers at all");
    }

    #[test]
    fn basic_produces_more_connect_traffic_than_regular() {
        let basic = quick(AlgoKind::Basic, 30, 400, 5);
        let regular = quick(AlgoKind::Regular, 30, 400, 5);
        let b = basic.counters.total(MsgKind::Connect);
        let r = regular.counters.total(MsgKind::Connect);
        assert!(
            b > r,
            "Basic ({b}) should beat Regular ({r}) on connect volume"
        );
    }

    #[test]
    fn hybrid_forms_masters_and_slaves() {
        let r = quick(AlgoKind::Hybrid, 30, 600, 6);
        let masters = r.roles[3];
        let slaves = r.roles[4];
        assert!(masters > 0, "no masters formed: roles {:?}", r.roles);
        assert!(slaves > 0, "no slaves formed: roles {:?}", r.roles);
    }

    #[test]
    fn energy_accounting_accumulates() {
        let r = quick(AlgoKind::Basic, 20, 200, 9);
        let total: f64 = r.energy_mj.iter().sum();
        assert!(total > 0.0);
        assert!(r.phy_total.frames_sent > 0);
        assert!(r.phy_total.frames_received > 0);
    }

    #[test]
    fn churn_worlds_survive() {
        let mut s = Scenario::quick(20, AlgoKind::Regular, 300);
        s.churn = Some(crate::scenario::ChurnCfg {
            mean_uptime: 60.0,
            mean_downtime: 30.0,
        });
        let r = World::new(s, 11).run();
        assert!(r.events > 0);
    }

    #[test]
    fn smallworld_sampling_collects() {
        let mut s = Scenario::quick(40, AlgoKind::Random, 400);
        s.smallworld_sample = Some(SimDuration::from_secs(100));
        let r = World::new(s, 12).run();
        // Samples exist only when the overlay got dense enough; at minimum
        // the machinery must not crash, and usually we get some.
        assert!(r.smallworld.len() <= 4);
    }

    #[test]
    fn group_mobility_worlds_work() {
        let mut s = Scenario::quick(24, AlgoKind::Regular, 200);
        s.mobility = MobilityKind::Groups {
            n_groups: 4,
            max_speed: 1.0,
            group_radius: 8.0,
        };
        let r = World::new(s, 21).run();
        assert!(r.events > 0);
        // Teams huddle within radio range, so the overlay should form at
        // least as well as under independent waypoint motion.
        assert!(r.conns_established > 0);
    }

    #[test]
    fn fuzzy_radio_worlds_work() {
        let mut s = Scenario::quick(24, AlgoKind::Regular, 200);
        s.radio.fuzz = 0.4;
        let r = World::new(s, 22).run();
        assert!(r.events > 0);
        assert!(r.phy_total.frames_lost > 0, "fuzzy edge should lose frames");
    }

    #[test]
    fn hello_beacon_worlds_work() {
        let mut s = Scenario::quick(16, AlgoKind::Regular, 120);
        s.aodv.hello_interval = Some(SimDuration::from_secs(2));
        let r = World::new(s, 23).run();
        assert!(r.events > 0);
        assert!(
            r.phy_total.frames_sent > 16 * 40,
            "beacons should dominate the frame count"
        );
    }

    #[test]
    fn transfer_phase_worlds_move_files() {
        let mut s = Scenario::quick(30, AlgoKind::Regular, 600);
        s.query.fetch_bytes = Some(32_768);
        let r = World::new(s, 24).run();
        let transfers = r.counters.total(MsgKind::Transfer);
        assert!(transfers > 0, "no file transfers completed");
        // Bulk payloads dominate the byte count once transfers flow.
        assert!(r.phy_total.bytes_sent > transfers * 32_768 / 2);
    }

    #[test]
    fn stationary_worlds_work() {
        let mut s = Scenario::quick(20, AlgoKind::Regular, 200);
        s.mobility = MobilityKind::Stationary;
        let r = World::new(s, 13).run();
        assert!(r.events > 0);
    }

    #[test]
    fn invalid_scenarios_surface_as_typed_errors() {
        let mut s = Scenario::quick(20, AlgoKind::Regular, 120);
        s.n_nodes = 1;
        match World::try_new(s, 1) {
            Err(ScenarioError::TooFewNodes { n_nodes: 1 }) => {}
            other => panic!("expected TooFewNodes, got {:?}", other.err()),
        }
        let mut s = Scenario::quick(20, AlgoKind::Regular, 120);
        s.faults =
            crate::faults::FaultPlan::loss_and_crash(0.1, NodeId(99), SimTime::from_secs(10), None);
        match World::try_new(s, 1) {
            Err(ScenarioError::CrashTargetOutOfRange { node: 99, .. }) => {}
            other => panic!("expected CrashTargetOutOfRange, got {:?}", other.err()),
        }
    }
}
