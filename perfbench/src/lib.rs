//! The derivations behind the benchmark's figures, kept apart from the
//! measuring code so they can be unit-tested (see `tests/derivations.rs`):
//!
//! * [`median`] and the percentile choice ([`supported`]);
//! * [`Log2Hist`], the per-`step` latency histogram;
//! * [`Ledger::ratios`], every ratio the benchmark reports, each with its
//!   base;
//! * [`tally`], the failure accounting;
//! * [`Tracer`], the benchmark's own in-memory spans and their
//!   [`coverage`](Tracer::coverage) sum.

use std::fmt::Write as _;
use std::time::Instant;

/// Median of `values`; the mean of the two middle values for an even count.
///
/// Panics on an empty slice: every figure the benchmark reports has at
/// least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// 1-based rank of the `ppm` parts-per-million percentile among `n`
/// samples (nearest-rank: the smallest rank covering that share).
/// Integer arithmetic, so `999_900` of `100_000` is rank 99,990 exactly.
pub fn rank(n: u64, ppm: u64) -> u64 {
    ((u128::from(n) * u128::from(ppm)).div_ceil(1_000_000) as u64).clamp(1, n.max(1))
}

/// Samples strictly beyond the `ppm` percentile of `n` samples.
pub fn beyond(n: u64, ppm: u64) -> u64 {
    n.saturating_sub(rank(n, ppm))
}

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise its value would rest on a handful of outliers.
pub const MIN_BEYOND: u64 = 10;

/// Does `n` samples support reporting the `ppm` percentile?
pub fn supported(n: u64, ppm: u64) -> bool {
    beyond(n, ppm) >= MIN_BEYOND
}

/// Log2-bucketed histogram of nanosecond durations. Bucket `i > 0` holds
/// `[2^i, 2^(i+1))`, bucket 0 holds `[0, 2)`. Quantiles interpolate
/// linearly inside the bucket that holds the rank, so they move with the
/// data instead of snapping to powers of two.
#[derive(Clone, Debug)]
pub struct Log2Hist {
    buckets: [u64; 64],
    count: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist {
            buckets: [0; 64],
            count: 0,
        }
    }
}

impl Log2Hist {
    /// Count one duration.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        let i = if ns < 2 {
            0
        } else {
            63 - ns.leading_zeros() as usize
        };
        self.buckets[i] += 1;
        self.count += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `ppm` parts-per-million percentile, or `None` when the
    /// histogram is empty.
    pub fn quantile(&self, ppm: u64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let r = rank(self.count, ppm);
        let mut below = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if below + c >= r {
                let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
                let hi = 2f64.powi(i as i32 + 1);
                return Some(lo + (hi - lo) * (r - below) as f64 / c as f64);
            }
            below += c;
        }
        unreachable!("rank {r} exceeds count {}", self.count)
    }
}

/// A derived ratio kept with its base, so a report can show both.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator, the ratio's base.
    pub base: f64,
}

impl Ratio {
    /// `num / base`.
    pub fn of(num: f64, base: f64) -> Ratio {
        Ratio { num, base }
    }

    /// The value, or `None` when the base is zero or either side is not
    /// finite.
    pub fn value(self) -> Option<f64> {
        let v = self.num / self.base;
        (self.base != 0.0 && v.is_finite()).then_some(v)
    }
}

/// The raw figures a run's ratios are derived from, summed over the
/// workload's worlds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Ledger {
    /// Events the scheduler popped.
    pub events_popped: f64,
    /// Events ever scheduled, popped or not (`des.events_scheduled`).
    pub events_scheduled: f64,
    /// Receptions the radio planned.
    pub rx_planned: f64,
    /// Planned receptions the loss process destroyed.
    pub rx_lost: f64,
    /// Broadcasts planned (the fan-out histogram's count).
    pub broadcasts: f64,
    /// Frames handed up by the radio.
    pub frames_received: f64,
    /// Duplicate route requests plus duplicate floods AODV dropped.
    pub aodv_dups: f64,
    /// Overlay connections established.
    pub conns_established: f64,
    /// Overlay connections closed.
    pub conns_closed: f64,
    /// Queries issued.
    pub issued: f64,
    /// Queries with at least one answer.
    pub answered: f64,
    /// Estimated host seconds in the distance oracle.
    pub oracle_est_s: f64,
    /// Untraced `run_s` with the sink on.
    pub run_on_s: f64,
    /// Untraced `run_s` with the sink off.
    pub run_off_s: f64,
    /// The sink's own `des.pop` + `sim.dispatch` span total, seconds.
    pub obs_spans_s: f64,
    /// Wall time of the traced replication, first `step` until `finish`
    /// returns, the probes between steps excluded.
    pub traced_s: f64,
}

impl Ledger {
    /// Every ratio the traced run reports, by metric name.
    pub fn ratios(&self) -> [(&'static str, Ratio); 10] {
        [
            (
                "des.stale_ratio",
                Ratio::of(
                    self.events_scheduled - self.events_popped,
                    self.events_scheduled,
                ),
            ),
            ("radio.loss_ratio", Ratio::of(self.rx_lost, self.rx_planned)),
            (
                "radio.fanout_mean",
                Ratio::of(self.rx_planned, self.broadcasts),
            ),
            (
                "aodv.dup_ratio",
                Ratio::of(self.aodv_dups, self.frames_received),
            ),
            (
                "overlay.close_ratio",
                Ratio::of(self.conns_closed, self.conns_established),
            ),
            (
                "query.answered_share",
                Ratio::of(self.answered, self.issued),
            ),
            (
                "metrics.oracle_share",
                Ratio::of(self.oracle_est_s, self.run_on_s),
            ),
            ("obs.tax_ratio", Ratio::of(self.run_on_s, self.run_off_s)),
            (
                "obs.span_coverage",
                Ratio::of(self.obs_spans_s, self.run_on_s),
            ),
            (
                "trace.overhead_ratio",
                Ratio::of(self.traced_s, self.run_on_s),
            ),
        ]
    }
}

/// One world run as the failure accounting sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Queries the world's members issued: the operations attempted.
    pub issued: u64,
    /// Queries that got at least one answer.
    pub answered: u64,
    /// Did the run pass every correctness check?
    pub correct: bool,
}

/// The operations a run attempted and how many failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Issued queries over all world runs.
    pub attempted: u64,
    /// Issued queries of world runs that failed a correctness check: a
    /// wrong simulator answers nothing trustworthy.
    pub failed: u64,
    /// Issued queries of correct runs that got no answer — a property of
    /// the simulated network, reported but not counted as a failure.
    pub unanswered: u64,
}

/// Account every issued query exactly once.
pub fn tally(outcomes: &[Outcome]) -> Tally {
    let mut t = Tally::default();
    for o in outcomes {
        t.attempted += o.issued;
        if o.correct {
            t.unanswered += o.issued.saturating_sub(o.answered);
        } else {
            t.failed += o.issued;
        }
    }
    t
}

/// One closed span of the benchmark's own trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What the span covers.
    pub name: &'static str,
    /// Index of the enclosing span, `None` for the workload span.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory spans around the calls the benchmark makes into the
/// simulator, written out once the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the tracer's origin to `t`.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span now; close it with [`close`](Tracer::close).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.ns_at(Instant::now());
        self.record(name, parent, now, now)
    }

    /// Close span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns_at(Instant::now());
    }

    /// Add a span the caller timed itself.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Every span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The share of span `root` its direct children cover: how much of
    /// the measured wall time the trace accounts for.
    pub fn coverage(&self, root: usize) -> Ratio {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(Span::ns)
            .sum();
        Ratio::of(children as f64, self.spans[root].ns() as f64)
    }

    /// The trace as one JSON document: `{"spans": [...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
