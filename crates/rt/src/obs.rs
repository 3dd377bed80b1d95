//! Observability for one real-time node.
//!
//! Off by default: an unarmed [`RtNode`](crate::RtNode) pays one `Option`
//! branch per instrumentation site and records nothing. Armed with
//! [`RtNode::arm_obs`](crate::RtNode::arm_obs), the node records the same
//! event vocabulary the DES records:
//!
//! * registered counters and a delivery-hops histogram in a
//!   [`manet_obs::Registry`], plus the event loop's own `rt.*` counters
//!   and a stride-sampled `rt.loop` span;
//! * causal spans into the node's trace log, minted from its disjoint id
//!   namespace ([`p2p_stack::node_id_base`]) so traces interlink across
//!   process boundaries;
//! * a [`manet_obs::FlightRecorder`] ring for crash forensics, dumped as
//!   `failure_*.jsonl` by the swarm when a child dies.
//!
//! The protocol layers' running totals ([`QueryStats`]/[`AodvStats`]) are
//! mirrored into the registry at sync points, so the report a child ships
//! or dumps (see [`RtNode::telemetry`](crate::RtNode::telemetry)) always
//! holds consistent running totals.

use manet_aodv::AodvStats;
use manet_des::SimTime;
use manet_obs::{CounterId, FlightRecorder, HistId, ObsConfig, ObsReport, Severity, SpanId};
use p2p_content::QueryStats;

/// One node's armed observability state.
#[derive(Clone, Debug)]
pub(crate) struct StackObs {
    /// The per-node report (counters, histograms, series, spans, flight
    /// recorder); `runs` is 1 so the parent's [`ObsReport::merge`] counts
    /// contributing nodes.
    pub(crate) report: ObsReport,
    /// Sim-seconds between time-series samples (0 disables the series).
    sample_period_secs: f64,
    /// Next sample point, in sim-seconds.
    next_sample_secs: f64,
    c_delivered: CounterId,
    h_delivery_hops: HistId,
    // Mirrors of the protocol layers' own totals (set, not inc'd).
    c_queries_issued: CounterId,
    c_queries_forwarded: CounterId,
    c_hits_served: CounterId,
    c_dup_dropped: CounterId,
    c_files_fetched: CounterId,
    c_files_served: CounterId,
    c_rreqs_originated: CounterId,
    c_rreqs_forwarded: CounterId,
    c_rreps_sent: CounterId,
    c_rerrs_sent: CounterId,
    c_data_forwarded: CounterId,
    c_data_dropped: CounterId,
    c_rreq_dup_dropped: CounterId,
    c_hellos_sent: CounterId,
    // The event loop's own counters.
    /// The poller's wait returned readable.
    pub(crate) c_epoll_wakeups: CounterId,
    /// The poller's wait returned by deadline.
    pub(crate) c_epoll_timeouts: CounterId,
    /// Datagrams received and accepted.
    pub(crate) c_dgram_rx: CounterId,
    /// Datagrams put on the wire.
    pub(crate) c_dgram_tx: CounterId,
    /// Datagrams rejected: undecodable, or not from the peer they claim.
    pub(crate) c_decode_errors: CounterId,
    /// Stride-sampled wall-clock cost of one loop body past the poll.
    pub(crate) s_loop: SpanId,
}

impl StackObs {
    /// A fresh single-run report whose flight-recorder ring obeys `cfg`.
    pub(crate) fn new(cfg: &ObsConfig) -> StackObs {
        let mut report = ObsReport {
            runs: 1,
            ..ObsReport::default()
        };
        report.recorder = FlightRecorder::new(cfg.recorder_capacity);
        let s_loop = report.spans.register("rt.loop");
        let reg = &mut report.registry;
        StackObs {
            c_delivered: reg.counter("stack.delivered"),
            h_delivery_hops: reg.hist("stack.delivery_hops"),
            c_queries_issued: reg.counter("stack.queries_issued"),
            c_queries_forwarded: reg.counter("stack.queries_forwarded"),
            c_hits_served: reg.counter("stack.hits_served"),
            c_dup_dropped: reg.counter("stack.duplicates_dropped"),
            c_files_fetched: reg.counter("stack.files_fetched"),
            c_files_served: reg.counter("stack.files_served"),
            c_rreqs_originated: reg.counter("aodv.rreqs_originated"),
            c_rreqs_forwarded: reg.counter("aodv.rreqs_forwarded"),
            c_rreps_sent: reg.counter("aodv.rreps_sent"),
            c_rerrs_sent: reg.counter("aodv.rerrs_sent"),
            c_data_forwarded: reg.counter("aodv.data_forwarded"),
            c_data_dropped: reg.counter("aodv.data_dropped"),
            c_rreq_dup_dropped: reg.counter("aodv.rreq_dup_dropped"),
            c_hellos_sent: reg.counter("aodv.hellos_sent"),
            c_epoll_wakeups: reg.counter("rt.epoll_wakeups"),
            c_epoll_timeouts: reg.counter("rt.epoll_timeouts"),
            c_dgram_rx: reg.counter("rt.dgram_rx"),
            c_dgram_tx: reg.counter("rt.dgram_tx"),
            c_decode_errors: reg.counter("rt.decode_errors"),
            s_loop,
            sample_period_secs: cfg.sample_period_secs,
            next_sample_secs: cfg.sample_period_secs,
            report,
        }
    }

    /// Bump a registered counter.
    #[inline]
    pub(crate) fn inc(&mut self, id: CounterId) {
        self.report.registry.inc(id, 1);
    }

    /// A payload surfaced at this node's overlay.
    pub(crate) fn on_delivered(&mut self, hops: u8) {
        self.report.registry.inc(self.c_delivered, 1);
        self.report
            .registry
            .observe(self.h_delivery_hops, hops as u64);
    }

    /// Mirror the protocol layers' running totals into the registry, so
    /// an imminent snapshot (sample, shipped report, shutdown) reads
    /// consistent values. Set-semantics: idempotent per call.
    pub(crate) fn mirror_stats(&mut self, q: &QueryStats, a: &AodvStats) {
        let reg = &mut self.report.registry;
        reg.set(self.c_queries_issued, q.issued);
        reg.set(self.c_queries_forwarded, q.forwarded);
        reg.set(self.c_hits_served, q.hits_served);
        reg.set(self.c_dup_dropped, q.duplicates_dropped);
        reg.set(self.c_files_fetched, q.files_fetched);
        reg.set(self.c_files_served, q.files_served);
        reg.set(self.c_rreqs_originated, a.rreqs_originated);
        reg.set(self.c_rreqs_forwarded, a.rreqs_forwarded);
        reg.set(self.c_rreps_sent, a.rreps_sent);
        reg.set(self.c_rerrs_sent, a.rerrs_sent);
        reg.set(self.c_data_forwarded, a.data_forwarded);
        reg.set(self.c_data_dropped, a.data_dropped);
        reg.set(self.c_rreq_dup_dropped, a.rreq_dup_dropped);
        reg.set(self.c_hellos_sent, a.hellos_sent);
    }

    /// Take a time-series sample if the cadence says one is due at `now`
    /// (catching up if the loop slept past several points).
    pub(crate) fn maybe_sample(&mut self, now: SimTime) {
        if self.sample_period_secs <= 0.0 {
            return;
        }
        let t = now.as_secs_f64();
        while t >= self.next_sample_secs {
            self.report.registry.sample(self.next_sample_secs);
            self.next_sample_secs += self.sample_period_secs;
        }
    }

    /// Append a flight-recorder record stamped with sim-time `now`.
    pub(crate) fn flight(
        &mut self,
        now: SimTime,
        severity: Severity,
        tag: &'static str,
        msg: String,
    ) {
        self.report
            .recorder
            .record(now.as_secs_f64(), severity, tag, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_catches_up_past_skipped_points() {
        let mut obs = StackObs::new(&ObsConfig::default());
        obs.sample_period_secs = 1.0;
        obs.next_sample_secs = 1.0;
        obs.maybe_sample(SimTime::from_secs(3));
        assert_eq!(obs.report.registry.n_samples(), 3, "1s, 2s and 3s taken");
        obs.maybe_sample(SimTime::from_secs(3));
        assert_eq!(obs.report.registry.n_samples(), 3, "no double sample");
    }

    #[test]
    fn mirrors_are_idempotent_set_semantics() {
        let mut obs = StackObs::new(&ObsConfig::default());
        let q = QueryStats {
            issued: 7,
            ..QueryStats::default()
        };
        let a = AodvStats {
            rreq_dup_dropped: 3,
            ..AodvStats::default()
        };
        obs.mirror_stats(&q, &a);
        obs.mirror_stats(&q, &a);
        let reg = &obs.report.registry;
        assert_eq!(reg.counter_by_name("stack.queries_issued"), Some(7));
        assert_eq!(reg.counter_by_name("aodv.rreq_dup_dropped"), Some(3));
    }
}
