//! Radio parameters.

use manet_des::SimDuration;

/// Physical-layer configuration shared by all nodes of a scenario.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RadioCfg {
    /// Transmission range in metres (the paper: 10 m).
    pub range_m: f64,
    /// Link bitrate in bits/s; sets the serialization delay of a frame.
    /// Default 1 Mb/s, a conservative figure for 2003-era 802.11.
    pub bitrate_bps: f64,
    /// Fixed per-hop processing/propagation latency.
    pub hop_latency: SimDuration,
    /// Upper bound of the uniform CSMA-like jitter added to every
    /// transmission, desynchronizing simultaneous rebroadcasts.
    pub max_jitter: SimDuration,
    /// Probability that any given reception is lost (iid). 0 by default;
    /// raised in robustness ablations.
    pub loss_prob: f64,
    /// Edge softness of the coverage disc, in `[0, 1)`. 0 models the
    /// classic unit disc; with `fuzz > 0` reception is certain only within
    /// `range_m * (1 - fuzz)` and decays linearly to zero probability at
    /// `range_m` — the "wireless coverage" axis of the paper's future work.
    pub fuzz: f64,
    /// Energy drawn per transmitted byte, in millijoules.
    pub tx_mj_per_byte: f64,
    /// Fixed energy per transmission (electronics ramp-up), in millijoules.
    pub tx_mj_base: f64,
    /// Energy drawn per received byte, in millijoules.
    pub rx_mj_per_byte: f64,
    /// Fixed energy per reception, in millijoules.
    pub rx_mj_base: f64,
}

impl RadioCfg {
    /// The paper's scenario: 10 m range. Energy figures follow the classic
    /// WaveLAN measurements (~1.9 W tx / 1.5 W rx at 2 Mb/s) scaled per byte.
    pub fn paper() -> Self {
        RadioCfg {
            range_m: 10.0,
            bitrate_bps: 1_000_000.0,
            hop_latency: SimDuration::from_millis(1),
            max_jitter: SimDuration::from_millis(10),
            loss_prob: 0.0,
            fuzz: 0.0,
            tx_mj_per_byte: 0.008,
            tx_mj_base: 0.04,
            rx_mj_per_byte: 0.006,
            rx_mj_base: 0.03,
        }
    }

    /// Non-panicking validation: the first parameter outside its physical
    /// domain, rendered; `None` when the configuration is sound.
    pub fn problem(&self) -> Option<String> {
        if self.range_m <= 0.0 || self.range_m.is_nan() {
            return Some(format!("range must be positive, got {}", self.range_m));
        }
        if self.bitrate_bps <= 0.0 || self.bitrate_bps.is_nan() {
            return Some(format!(
                "bitrate must be positive, got {}",
                self.bitrate_bps
            ));
        }
        if !(0.0..=1.0).contains(&self.loss_prob) {
            return Some(format!(
                "loss_prob must be a probability, got {}",
                self.loss_prob
            ));
        }
        if !(0.0..1.0).contains(&self.fuzz) {
            return Some(format!("fuzz must be in [0, 1), got {}", self.fuzz));
        }
        if !(self.tx_mj_per_byte >= 0.0
            && self.tx_mj_base >= 0.0
            && self.rx_mj_per_byte >= 0.0
            && self.rx_mj_base >= 0.0)
        {
            return Some("energy costs must be non-negative".into());
        }
        None
    }

    /// Panics if any parameter is out of its physical domain.
    pub fn validate(&self) {
        if let Some(p) = self.problem() {
            panic!("{p}");
        }
    }

    /// Serialization delay of a frame of `bytes` at the configured bitrate.
    pub fn serialization_delay(&self, bytes: u32) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.bitrate_bps)
    }

    /// Reception probability at `dist` metres: 1 inside the solid core,
    /// linear decay across the fuzzy edge, 0 beyond `range_m`.
    pub fn reception_prob(&self, dist: f64) -> f64 {
        if dist > self.range_m {
            return 0.0;
        }
        let solid = self.range_m * (1.0 - self.fuzz);
        if dist <= solid {
            1.0
        } else {
            // fuzz > 0 here, so the edge has positive width.
            1.0 - (dist - solid) / (self.range_m - solid)
        }
    }
}

impl Default for RadioCfg {
    fn default() -> Self {
        RadioCfg::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_are_valid() {
        RadioCfg::paper().validate();
        assert_eq!(RadioCfg::paper().range_m, 10.0);
    }

    #[test]
    fn serialization_delay_scales_with_size() {
        let cfg = RadioCfg::paper();
        let d1 = cfg.serialization_delay(125); // 1000 bits at 1 Mb/s = 1 ms
        assert_eq!(d1, SimDuration::from_millis(1));
        let d2 = cfg.serialization_delay(250);
        assert_eq!(d2, SimDuration::from_millis(2));
    }

    #[test]
    fn reception_prob_profile() {
        let solid = RadioCfg::paper();
        assert_eq!(solid.reception_prob(0.0), 1.0);
        assert_eq!(
            solid.reception_prob(10.0),
            1.0,
            "unit disc: certain at range"
        );
        assert_eq!(solid.reception_prob(10.01), 0.0);
        let fuzzy = RadioCfg {
            fuzz: 0.5,
            ..RadioCfg::paper()
        };
        assert_eq!(fuzzy.reception_prob(5.0), 1.0, "solid core");
        assert!((fuzzy.reception_prob(7.5) - 0.5).abs() < 1e-12, "mid-edge");
        assert!(fuzzy.reception_prob(9.9) < 0.05);
        assert_eq!(fuzzy.reception_prob(12.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "fuzz")]
    fn invalid_fuzz_rejected() {
        let cfg = RadioCfg {
            fuzz: 1.0,
            ..RadioCfg::paper()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_loss_rejected() {
        let cfg = RadioCfg {
            loss_prob: 1.5,
            ..RadioCfg::paper()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "range")]
    fn invalid_range_rejected() {
        let cfg = RadioCfg {
            range_m: 0.0,
            ..RadioCfg::paper()
        };
        cfg.validate();
    }
}
