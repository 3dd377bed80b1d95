//! The shared medium: who hears a transmission, and when.
//!
//! [`Medium`] is a *calculator*, not an event owner: the world asks it which
//! nodes receive a frame and with what latency, then schedules the delivery
//! events itself. Keeping the medium stateless (apart from the config)
//! preserves the layering — all mutable state lives in the world and in the
//! per-node protocol machines.

use manet_des::{NodeId, Rng, SimDuration};
use manet_geom::{Point, SpatialGrid};

use crate::config::RadioCfg;

/// Transient link impairment injected on top of the configured radio
/// behaviour.
///
/// The fault layer (burst loss, link flaps, jitter spikes — see
/// `manet-sim`'s fault plan) owns the *schedule* of impairments; the medium
/// only needs to know what is in force for the transmission being planned,
/// so it stays a stateless calculator. Extra loss is drawn *after* the
/// configured loss/fuzz processes and only when non-zero, so a `NONE` value
/// consumes exactly the same RNG draws as the pre-fault medium — bit-for-bit
/// compatibility for fault-free runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFaults {
    /// Additional iid per-reception loss probability in `[0, 1]`.
    pub extra_loss: f64,
    /// Additional fixed latency on every transmission (jitter spike).
    pub extra_delay: SimDuration,
}

impl LinkFaults {
    /// No impairment: the medium behaves exactly as configured.
    pub const NONE: LinkFaults = LinkFaults {
        extra_loss: 0.0,
        extra_delay: SimDuration::ZERO,
    };

    /// True when this value injects nothing.
    pub fn is_none(&self) -> bool {
        self.extra_loss == 0.0 && self.extra_delay == SimDuration::ZERO
    }

    /// Panic on out-of-range parameters.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.extra_loss),
            "extra_loss must be a probability, got {}",
            self.extra_loss
        );
    }
}

/// Outcome of one planned reception.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reception {
    /// The receiving node.
    pub to: NodeId,
    /// Delay from the start of transmission to delivery at `to`.
    pub after: SimDuration,
    /// Whether the iid loss process destroyed this reception. The world
    /// still counts lost frames in PHY stats but does not deliver them.
    pub lost: bool,
}

/// Caller-owned scratch buffers for transmission planning.
///
/// [`Medium::plan_broadcast`] runs once per transmission on the simulation
/// hot path; routing all of its temporary storage through a scratch value
/// the caller keeps alive (the world owns one) means steady-state planning
/// performs zero heap allocations — buffers grow to the neighborhood size
/// once and are reused for every subsequent frame.
#[derive(Clone, Debug, Default)]
pub struct TxScratch {
    /// In-range receiver keys (planning-internal).
    keys: Vec<u32>,
    /// Receptions planned by the most recent [`Medium::plan_broadcast`].
    pub receptions: Vec<Reception>,
    /// Cumulative receptions planned across every broadcast through this
    /// scratch (deterministic; sampled by the observability layer).
    pub planned_total: u64,
    /// Cumulative planned receptions the loss process destroyed.
    pub lost_total: u64,
}

/// The wireless medium calculator.
#[derive(Clone, Debug)]
pub struct Medium {
    cfg: RadioCfg,
}

impl Medium {
    /// Create a medium with the given configuration (validated here).
    pub fn new(cfg: RadioCfg) -> Self {
        cfg.validate();
        Medium { cfg }
    }

    /// The configuration in force.
    pub fn cfg(&self) -> &RadioCfg {
        &self.cfg
    }

    /// Latency of one transmission: serialization + fixed hop latency +
    /// uniform jitter + any injected delay spike. The jitter draw is
    /// per-transmission (all receivers of one broadcast hear it at the same
    /// instant, as in the real world).
    pub fn tx_delay(&self, bytes: u32, rng: &mut Rng, faults: LinkFaults) -> SimDuration {
        let jitter = SimDuration::from_ticks(rng.below(self.cfg.max_jitter.ticks().max(1)));
        self.cfg.serialization_delay(bytes) + self.cfg.hop_latency + jitter + faults.extra_delay
    }

    /// Plan the receptions of a frame transmitted from `pos` by `sender`,
    /// into `scratch.receptions`.
    ///
    /// `grid` holds current node positions. Receivers are every node within
    /// range except the sender itself; each gets the same propagation delay,
    /// with loss drawn independently per receiver. RNG draws happen in
    /// ascending receiver-key order, independent of grid traversal order, so
    /// results are deterministic for a given seed.
    #[allow(clippy::too_many_arguments)]
    pub fn plan_broadcast(
        &self,
        grid: &SpatialGrid,
        sender: NodeId,
        pos: Point,
        bytes: u32,
        rng: &mut Rng,
        faults: LinkFaults,
        scratch: &mut TxScratch,
    ) {
        scratch.receptions.clear();
        let after = self.tx_delay(bytes, rng, faults);
        grid.query_range(pos, self.cfg.range_m, sender.0, &mut scratch.keys);
        for &key in &scratch.keys {
            let mut lost = rng.chance(self.cfg.loss_prob);
            if !lost && self.cfg.fuzz > 0.0 {
                let rx_pos = grid.position(key).expect("an in-range key is stored");
                lost = !rng.chance(self.cfg.reception_prob(rx_pos.distance(pos)));
            }
            if !lost && faults.extra_loss > 0.0 {
                lost = rng.chance(faults.extra_loss);
            }
            scratch.planned_total += 1;
            scratch.lost_total += lost as u64;
            scratch.receptions.push(Reception {
                to: NodeId(key),
                after,
                lost,
            });
        }
    }

    /// Plan a link-layer unicast from `pos` to `dst`.
    ///
    /// Returns `None` when `dst` is out of range (or unknown to the grid) —
    /// the caller treats that as a link break, which is how the routing layer
    /// learns about mobility (standing in for a missing 802.11 ACK).
    pub fn plan_unicast(
        &self,
        grid: &SpatialGrid,
        pos: Point,
        dst: NodeId,
        bytes: u32,
        rng: &mut Rng,
        faults: LinkFaults,
    ) -> Option<Reception> {
        let dst_pos = grid.position(dst.0)?;
        if !pos.within(dst_pos, self.cfg.range_m) {
            return None;
        }
        let after = self.tx_delay(bytes, rng, faults);
        let mut lost = rng.chance(self.cfg.loss_prob);
        if !lost && self.cfg.fuzz > 0.0 {
            lost = !rng.chance(self.cfg.reception_prob(dst_pos.distance(pos)));
        }
        if !lost && faults.extra_loss > 0.0 {
            lost = rng.chance(faults.extra_loss);
        }
        Some(Reception {
            to: dst,
            after,
            lost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_geom::Rect;

    fn setup() -> (Medium, SpatialGrid, Rng) {
        let medium = Medium::new(RadioCfg::paper());
        let grid = SpatialGrid::new(Rect::sized(100.0, 100.0), 10.0);
        (medium, grid, Rng::new(7))
    }

    #[test]
    fn broadcast_reaches_exactly_in_range_nodes() {
        let (m, mut grid, mut rng) = setup();
        grid.upsert(0, Point::new(50.0, 50.0)); // sender
        grid.upsert(1, Point::new(55.0, 50.0)); // in range
        grid.upsert(2, Point::new(59.9, 50.0)); // in range
        grid.upsert(3, Point::new(61.0, 50.0)); // out of range
        let mut tx = TxScratch::default();
        m.plan_broadcast(
            &grid,
            NodeId(0),
            Point::new(50.0, 50.0),
            64,
            &mut rng,
            LinkFaults::NONE,
            &mut tx,
        );
        let ids: Vec<u32> = tx.receptions.iter().map(|r| r.to.0).collect();
        assert_eq!(ids, vec![1, 2]);
        assert!(
            tx.receptions.iter().all(|r| !r.lost),
            "no loss at loss_prob = 0"
        );
    }

    #[test]
    fn broadcast_excludes_sender() {
        let (m, mut grid, mut rng) = setup();
        grid.upsert(0, Point::new(50.0, 50.0));
        let mut tx = TxScratch::default();
        m.plan_broadcast(
            &grid,
            NodeId(0),
            Point::new(50.0, 50.0),
            64,
            &mut rng,
            LinkFaults::NONE,
            &mut tx,
        );
        assert!(tx.receptions.is_empty());
    }

    #[test]
    fn all_receivers_share_one_delay() {
        let (m, mut grid, mut rng) = setup();
        grid.upsert(0, Point::new(50.0, 50.0));
        for k in 1..=5 {
            grid.upsert(k, Point::new(50.0 + k as f64, 50.0));
        }
        let mut tx = TxScratch::default();
        m.plan_broadcast(
            &grid,
            NodeId(0),
            Point::new(50.0, 50.0),
            64,
            &mut rng,
            LinkFaults::NONE,
            &mut tx,
        );
        assert_eq!(tx.receptions.len(), 5);
        let d = tx.receptions[0].after;
        assert!(tx.receptions.iter().all(|r| r.after == d));
        assert!(d >= m.cfg().hop_latency, "delay includes fixed latency");
    }

    #[test]
    fn unicast_in_and_out_of_range() {
        let (m, mut grid, mut rng) = setup();
        grid.upsert(0, Point::new(50.0, 50.0));
        grid.upsert(1, Point::new(58.0, 50.0));
        grid.upsert(2, Point::new(90.0, 50.0));
        let src = Point::new(50.0, 50.0);
        assert!(m
            .plan_unicast(&grid, src, NodeId(1), 64, &mut rng, LinkFaults::NONE)
            .is_some());
        assert!(m
            .plan_unicast(&grid, src, NodeId(2), 64, &mut rng, LinkFaults::NONE)
            .is_none());
        assert!(
            m.plan_unicast(&grid, src, NodeId(99), 64, &mut rng, LinkFaults::NONE)
                .is_none(),
            "unknown node is a link break"
        );
    }

    #[test]
    fn loss_probability_respected() {
        let cfg = RadioCfg {
            loss_prob: 0.5,
            ..RadioCfg::paper()
        };
        let m = Medium::new(cfg);
        let mut grid = SpatialGrid::new(Rect::sized(100.0, 100.0), 10.0);
        grid.upsert(0, Point::new(50.0, 50.0));
        grid.upsert(1, Point::new(51.0, 50.0));
        let mut rng = Rng::new(5);
        let mut lost = 0;
        let n = 10_000;
        let mut tx = TxScratch::default();
        for _ in 0..n {
            m.plan_broadcast(
                &grid,
                NodeId(0),
                Point::new(50.0, 50.0),
                64,
                &mut rng,
                LinkFaults::NONE,
                &mut tx,
            );
            if tx.receptions[0].lost {
                lost += 1;
            }
        }
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.02, "observed loss rate {rate}");
    }

    #[test]
    fn fuzzy_edge_loses_some_receptions() {
        let cfg = RadioCfg {
            fuzz: 0.5,
            ..RadioCfg::paper()
        };
        let m = Medium::new(cfg);
        let mut grid = SpatialGrid::new(Rect::sized(100.0, 100.0), 10.0);
        grid.upsert(0, Point::new(50.0, 50.0));
        grid.upsert(1, Point::new(52.0, 50.0)); // solid core
        grid.upsert(2, Point::new(57.5, 50.0)); // mid-edge: p = 0.5
        let mut rng = Rng::new(8);
        let (mut core_lost, mut edge_lost) = (0u32, 0u32);
        let n = 4000;
        let mut tx = TxScratch::default();
        for _ in 0..n {
            m.plan_broadcast(
                &grid,
                NodeId(0),
                Point::new(50.0, 50.0),
                64,
                &mut rng,
                LinkFaults::NONE,
                &mut tx,
            );
            for r in &tx.receptions {
                match r.to.0 {
                    1 if r.lost => core_lost += 1,
                    2 if r.lost => edge_lost += 1,
                    _ => {}
                }
            }
        }
        assert_eq!(core_lost, 0, "solid core never loses");
        let rate = edge_lost as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.05, "mid-edge loss rate {rate}");
    }

    #[test]
    fn jitter_varies_but_is_bounded() {
        let (m, _, mut rng) = setup();
        let base = m.cfg().serialization_delay(64) + m.cfg().hop_latency;
        let max = base + m.cfg().max_jitter;
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..100 {
            let d = m.tx_delay(64, &mut rng, LinkFaults::NONE);
            assert!(d >= base && d < max);
            distinct.insert(d.ticks());
        }
        assert!(distinct.len() > 10, "jitter should vary");
    }

    #[test]
    fn fault_free_plans_match_pre_fault_rng_stream() {
        // LinkFaults::NONE must not consume extra RNG draws: two media fed
        // from identically-seeded RNGs stay in lockstep whether or not the
        // NONE value is threaded through.
        let (m, mut grid, _) = setup();
        grid.upsert(0, Point::new(50.0, 50.0));
        grid.upsert(1, Point::new(55.0, 50.0));
        let mut a = Rng::new(99);
        let mut b = Rng::new(99);
        let mut tx = TxScratch::default();
        for _ in 0..50 {
            m.plan_broadcast(
                &grid,
                NodeId(0),
                Point::new(50.0, 50.0),
                64,
                &mut a,
                LinkFaults::NONE,
                &mut tx,
            );
            m.plan_unicast(
                &grid,
                Point::new(50.0, 50.0),
                NodeId(1),
                64,
                &mut b,
                LinkFaults::NONE,
            );
            m.plan_unicast(
                &grid,
                Point::new(50.0, 50.0),
                NodeId(1),
                64,
                &mut a,
                LinkFaults::NONE,
            );
            m.plan_broadcast(
                &grid,
                NodeId(0),
                Point::new(50.0, 50.0),
                64,
                &mut b,
                LinkFaults::NONE,
                &mut tx,
            );
        }
        assert_eq!(a.next_u64(), b.next_u64(), "streams diverged");
    }

    #[test]
    fn extra_loss_is_injected_on_top_of_config() {
        let (m, mut grid, mut rng) = setup(); // loss_prob = 0, fuzz = 0
        grid.upsert(0, Point::new(50.0, 50.0));
        grid.upsert(1, Point::new(51.0, 50.0));
        let faults = LinkFaults {
            extra_loss: 0.5,
            extra_delay: SimDuration::ZERO,
        };
        let mut lost = 0;
        let n = 10_000;
        let mut tx = TxScratch::default();
        for _ in 0..n {
            m.plan_broadcast(
                &grid,
                NodeId(0),
                Point::new(50.0, 50.0),
                64,
                &mut rng,
                faults,
                &mut tx,
            );
            if tx.receptions[0].lost {
                lost += 1;
            }
        }
        let rate = lost as f64 / n as f64;
        assert!(
            (rate - 0.5).abs() < 0.02,
            "observed injected loss rate {rate}"
        );
    }

    #[test]
    fn extra_delay_shifts_every_transmission() {
        let (m, mut grid, mut rng) = setup();
        grid.upsert(0, Point::new(50.0, 50.0));
        grid.upsert(1, Point::new(51.0, 50.0));
        let spike = SimDuration::from_millis(250);
        let faults = LinkFaults {
            extra_loss: 0.0,
            extra_delay: spike,
        };
        let base = m.cfg().serialization_delay(64) + m.cfg().hop_latency;
        let r = m
            .plan_unicast(
                &grid,
                Point::new(50.0, 50.0),
                NodeId(1),
                64,
                &mut rng,
                faults,
            )
            .expect("in range");
        assert!(
            r.after >= base + spike,
            "delay spike not applied: {:?}",
            r.after
        );
    }

    #[test]
    #[should_panic(expected = "extra_loss must be a probability")]
    fn link_faults_validate_rejects_bad_loss() {
        LinkFaults {
            extra_loss: 1.5,
            extra_delay: SimDuration::ZERO,
        }
        .validate();
    }
}
