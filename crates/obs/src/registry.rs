//! The metrics registry: named counters, gauges and log-bucketed
//! histograms, with periodic sampling into per-run time series.
//!
//! Registration happens once per run (names resolve to dense integer
//! handles), so the hot path touches nothing but a `Vec` slot. All state is
//! plain data: merging two registries — replications of one scenario — is
//! name-based and deterministic, independent of which worker produced
//! which run.

/// Handle to a registered counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistId(usize);

/// Number of power-of-two buckets: bucket 0 holds value 0, bucket `k`
/// (k >= 1) holds values in `[2^(k-1), 2^k)`, so bucket 64 holds the top
/// half of the `u64` range.
pub const HIST_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` observations.
///
/// Bucket boundaries are powers of two: 0, 1, 2–3, 4–7, 8–15, … Constant
/// time, constant space, no configuration — the right trade for simulator
/// quantities spanning many orders of magnitude (queue depths, fan-outs,
/// hop counts).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: Box<[u64; HIST_BUCKETS]>,
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: Box::new([0; HIST_BUCKETS]),
            count: 0,
            sum: 0,
        }
    }
}

/// The bucket index a value falls into.
///
/// Branch-free: a single `lzcnt`/`clz` and a subtract, no comparisons.
/// `record()` sits on the simulator's hot path (every frame, every queue
/// sample), so the bucketing must not cost a mispredictable branch.
#[inline]
pub const fn bucket_of(v: u64) -> usize {
    // 0 -> 0; otherwise 1 + floor(log2(v)): 1->1, 2..4->2, 4..8->3, ...
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive lower bound of bucket `i` (0, 1, 2, 4, 8, …).
pub fn bucket_floor(i: usize) -> u64 {
    if i <= 1 {
        i as u64
    } else {
        1u64 << (i - 1)
    }
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Occupancy of bucket `i` (see [`bucket_of`]).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Fold another histogram into this one. Counts saturate, like
    /// [`from_parts`](Histogram::from_parts): a histogram decoded from
    /// untrusted bytes cannot overflow the accumulator.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The `q`-quantile (0 < q <= 1) as the lower bound of the bucket
    /// holding the ceil(q·count)-th smallest observation — a conservative
    /// estimate, exact for values 0 and 1 and within a factor of two
    /// above. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return bucket_floor(i);
            }
        }
        bucket_floor(HIST_BUCKETS - 1)
    }

    /// Median (see [`quantile`](Self::quantile)).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile (see [`quantile`](Self::quantile)).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile (see [`quantile`](Self::quantile)).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Rebuild a histogram from its serialized shape: `(floor, count)`
    /// pairs (see [`nonzero`](Self::nonzero)) plus the saturating sum.
    /// The count is implied — it is the sum of the pair counts. The JSONL
    /// reader rebuilds through here: the bucket layout *is* the
    /// serialized format, so `from_parts(h.nonzero(), h.sum()) == h`.
    /// Counts saturate — untrusted input may carry pair counts that sum
    /// past `u64::MAX`, and the reader's contract is no-panic.
    pub fn from_parts(pairs: &[(u64, u64)], sum: u64) -> Histogram {
        let mut h = Histogram::default();
        for &(floor, c) in pairs {
            let b = bucket_of(floor);
            h.buckets[b] = h.buckets[b].saturating_add(c);
            h.count = h.count.saturating_add(c);
        }
        h.sum = sum;
        h
    }

    /// Non-empty buckets as `(floor, count)` pairs, ascending.
    pub fn nonzero(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_floor(i), c))
            .collect()
    }
}

/// One sampled point of every registered counter and gauge.
#[derive(Clone, Debug, PartialEq)]
struct Sample {
    /// Simulated seconds at the sample.
    t_secs: f64,
    /// Counter values, indexed like `counters`.
    counters: Vec<u64>,
    /// Gauge values, indexed like `gauges`.
    gauges: Vec<f64>,
}

/// Named counters, gauges and histograms for one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Registry {
    counter_names: Vec<&'static str>,
    counters: Vec<u64>,
    gauge_names: Vec<&'static str>,
    gauges: Vec<f64>,
    hist_names: Vec<&'static str>,
    hists: Vec<Histogram>,
    samples: Vec<Sample>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register (or look up) a counter by name.
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        match self.counter_names.iter().position(|&n| n == name) {
            Some(i) => CounterId(i),
            None => {
                self.counter_names.push(name);
                self.counters.push(0);
                CounterId(self.counter_names.len() - 1)
            }
        }
    }

    /// Register (or look up) a gauge by name.
    pub fn gauge(&mut self, name: &'static str) -> GaugeId {
        match self.gauge_names.iter().position(|&n| n == name) {
            Some(i) => GaugeId(i),
            None => {
                self.gauge_names.push(name);
                self.gauges.push(0.0);
                GaugeId(self.gauge_names.len() - 1)
            }
        }
    }

    /// Register (or look up) a histogram by name.
    pub fn hist(&mut self, name: &'static str) -> HistId {
        match self.hist_names.iter().position(|&n| n == name) {
            Some(i) => HistId(i),
            None => {
                self.hist_names.push(name);
                self.hists.push(Histogram::default());
                HistId(self.hist_names.len() - 1)
            }
        }
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId, n: u64) {
        self.counters[id.0] += n;
    }

    /// Set a counter to an absolute running total (for totals maintained
    /// elsewhere — protocol stats, queue internals — and mirrored into the
    /// registry at sample time).
    #[inline]
    pub fn set(&mut self, id: CounterId, total: u64) {
        self.counters[id.0] = total;
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0]
    }

    /// Look up a counter's current value by name (reporting-side).
    pub fn counter_by_name(&self, name: &str) -> Option<u64> {
        self.counter_names
            .iter()
            .position(|&n| n == name)
            .map(|i| self.counters[i])
    }

    /// Set a gauge.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0] = v;
    }

    /// Record one histogram observation.
    #[inline]
    pub fn observe(&mut self, id: HistId, v: u64) {
        self.hists[id.0].observe(v);
    }

    /// The histogram behind a handle.
    pub fn hist_value(&self, id: HistId) -> &Histogram {
        &self.hists[id.0]
    }

    /// Overwrite a histogram with one rebuilt elsewhere: a registry read
    /// back from JSONL restores its histograms through here.
    pub fn set_hist(&mut self, id: HistId, h: &Histogram) {
        self.hists[id.0] = h.clone();
    }

    /// Append one time-series point: the current value of every counter
    /// and gauge, stamped `t_secs` of simulated time.
    pub fn sample(&mut self, t_secs: f64) {
        self.samples.push(Sample {
            t_secs,
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
        });
    }

    /// Number of time-series points taken.
    pub fn n_samples(&self) -> usize {
        self.samples.len()
    }

    /// The time-series points as `(t_secs, counters, gauges)` rows, in
    /// sample order; value slices are indexed like the registration
    /// order (a point taken before a later registration is shorter).
    pub fn samples(&self) -> impl Iterator<Item = (f64, &[u64], &[f64])> + '_ {
        self.samples
            .iter()
            .map(|s| (s.t_secs, s.counters.as_slice(), s.gauges.as_slice()))
    }

    /// Append one pre-built time-series point, bypassing the live
    /// counter/gauge values: a registry read back from JSONL replays its
    /// sample rows through here. Value vectors must be indexed like the
    /// registration order of the counters/gauges they snapshot.
    pub fn push_sample(&mut self, t_secs: f64, counters: Vec<u64>, gauges: Vec<f64>) {
        self.samples.push(Sample {
            t_secs,
            counters,
            gauges,
        });
    }

    /// Registered counter names with their final values, in registration
    /// order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counter_names
            .iter()
            .copied()
            .zip(self.counters.iter().copied())
    }

    /// Registered gauge names with their final values.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauge_names
            .iter()
            .copied()
            .zip(self.gauges.iter().copied())
    }

    /// Registered histogram names with their contents.
    pub fn hists(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.hist_names.iter().copied().zip(self.hists.iter())
    }

    /// Fold another run's registry into this one, by name.
    ///
    /// Counters and histogram buckets sum, saturating; gauges keep the maximum (they
    /// are high-water marks across replications). Time series sum
    /// pointwise by sample index, missing points counting as zero — with
    /// the fold always applied in replication order the merged series is
    /// identical whatever thread count produced the runs.
    pub fn merge(&mut self, other: &Registry) {
        for (name, v) in other.counters() {
            let id = self.counter(name);
            self.counters[id.0] = self.counters[id.0].saturating_add(v);
        }
        for (name, v) in other.gauges() {
            let id = self.gauge(name);
            self.gauges[id.0] = self.gauges[id.0].max(v);
        }
        for (name, h) in other.hists() {
            let id = self.hist(name);
            self.hists[id.0].merge(h);
        }
        // Series alignment assumes both runs registered the same metrics in
        // the same order (true for replications of one scenario); merged
        // sample times keep the first run's stamps.
        for (i, s) in other.samples.iter().enumerate() {
            if i == self.samples.len() {
                self.samples.push(Sample {
                    t_secs: s.t_secs,
                    counters: vec![0; s.counters.len()],
                    gauges: vec![0.0; s.gauges.len()],
                });
            }
            let mine = &mut self.samples[i];
            for (a, b) in mine.counters.iter_mut().zip(s.counters.iter()) {
                *a = a.saturating_add(*b);
            }
            for (a, b) in mine.gauges.iter_mut().zip(s.gauges.iter()) {
                *a = a.max(*b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The obvious branchy specification of log2 bucketing, kept only as
    /// a test oracle for the `leading_zeros` hot path.
    fn bucket_of_reference(v: u64) -> usize {
        if v == 0 {
            return 0;
        }
        let mut k = 1;
        while k < 64 && v >= (1u64 << k) {
            k += 1;
        }
        k
    }

    #[test]
    fn branch_free_bucketing_matches_the_branchy_oracle() {
        // Exhaustive around every power-of-two boundary: 2^k - 1, 2^k,
        // 2^k + 1 for all 64 boundaries, plus the extremes. Any change to
        // the lzcnt expression that shifts a single assignment fails here.
        for k in 0..64u32 {
            let p = 1u64 << k;
            for v in [p.wrapping_sub(1), p, p.saturating_add(1)] {
                assert_eq!(bucket_of(v), bucket_of_reference(v), "value {v}");
            }
        }
        assert_eq!(bucket_of(u64::MAX), 64);
        // Pinned assignments — the serialized bucket layout is part of the
        // obs report format, so these indices must never drift.
        let pinned: [(u64, usize); 12] = [
            (0, 0),
            (1, 1),
            (2, 2),
            (3, 2),
            (4, 3),
            (100, 7),
            (128, 8),
            (1000, 10),
            (1024, 11),
            (65_535, 16),
            (1 << 32, 33),
            (u64::MAX, 64),
        ];
        for (v, want) in pinned {
            assert_eq!(bucket_of(v), want, "pinned bucket of {v}");
        }
        // const-evaluable: usable in array sizes and static tables.
        const AT_1024: usize = bucket_of(1024);
        assert_eq!(AT_1024, 11);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Bucket 0 is exactly {0}; bucket k >= 1 is [2^(k-1), 2^k).
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 0..HIST_BUCKETS {
            let floor = bucket_floor(i);
            assert_eq!(bucket_of(floor), i, "floor of bucket {i} maps back");
            if i >= 1 {
                assert_eq!(bucket_of(floor - 1), i - 1, "below floor of {i}");
            }
        }
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 1023, 1024] {
            h.observe(v);
        }
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(2), 2, "2 and 3 share a bucket");
        assert_eq!(h.bucket(3), 1);
        assert_eq!(h.bucket(10), 1, "1023 in [512, 1024)");
        assert_eq!(h.bucket(11), 1, "1024 in [1024, 2048)");
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 2057);
    }

    #[test]
    fn quantiles_pin_known_inputs() {
        // Observations 1..=100: buckets hold 1,2,4,8,16,32,37 values with
        // floors 1,2,4,8,16,32,64; cumulative 1,3,7,15,31,63,100.
        let mut h = Histogram::default();
        for v in 1..=100u64 {
            h.observe(v);
        }
        assert_eq!(h.p50(), 32, "rank 50 lands in bucket [32,64)");
        assert_eq!(h.p95(), 64, "rank 95 lands in bucket [64,128)");
        assert_eq!(h.p99(), 64);
        assert_eq!(h.quantile(1.0), 64);
        assert_eq!(h.quantile(0.01), 1, "rank 1 is the smallest value");
        assert_eq!(h.quantile(0.31), 16, "rank 31 closes bucket [16,32)");
        assert_eq!(h.quantile(0.32), 32, "rank 32 opens bucket [32,64)");

        // Degenerate shapes.
        assert_eq!(Histogram::default().p50(), 0, "empty histogram");
        let mut zeros = Histogram::default();
        for _ in 0..10 {
            zeros.observe(0);
        }
        assert_eq!((zeros.p50(), zeros.p99()), (0, 0));
        let mut one = Histogram::default();
        one.observe(1_000_000);
        // 1_000_000 lies in [2^19, 2^20).
        assert_eq!(one.p50(), 1 << 19);
        assert_eq!(one.p99(), 1 << 19);
    }

    #[test]
    fn counters_and_gauges_roundtrip() {
        let mut r = Registry::new();
        let c = r.counter("des.events_popped");
        let again = r.counter("des.events_popped");
        assert_eq!(c, again, "same name resolves to the same handle");
        r.inc(c, 5);
        r.inc(c, 2);
        assert_eq!(r.counter_value(c), 7);
        r.set(c, 100);
        assert_eq!(r.counter_by_name("des.events_popped"), Some(100));
        assert_eq!(r.counter_by_name("missing"), None);
        let g = r.gauge("des.queue_depth");
        r.set_gauge(g, 42.0);
        assert_eq!(r.gauges().next(), Some(("des.queue_depth", 42.0)));
    }

    #[test]
    fn merge_sums_counters_and_buckets_maxes_gauges() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        for r in [&mut a, &mut b] {
            let c = r.counter("x");
            r.inc(c, 10);
            let g = r.gauge("depth");
            let h = r.hist("fanout");
            r.observe(h, 4);
            r.set_gauge(g, 1.0);
        }
        let g = b.gauge("depth");
        b.set_gauge(g, 9.0);
        a.merge(&b);
        assert_eq!(a.counter_by_name("x"), Some(20));
        assert_eq!(a.gauges().next(), Some(("depth", 9.0)));
        let h = a.hist("fanout");
        assert_eq!(a.hist_value(h).bucket(bucket_of(4)), 2);
    }

    #[test]
    fn series_merge_is_pointwise_and_handles_ragged_lengths() {
        let mut a = Registry::new();
        let ca = a.counter("n");
        a.inc(ca, 1);
        a.sample(10.0);
        let mut b = Registry::new();
        let cb = b.counter("n");
        b.inc(cb, 2);
        b.sample(10.0);
        b.inc(cb, 3);
        b.sample(20.0);
        a.merge(&b);
        assert_eq!(a.n_samples(), 2, "longer series extends the merged one");
        assert_eq!(a.samples[0].counters, vec![3]);
        assert_eq!(a.samples[1].counters, vec![5], "missing point counts as 0");
    }
}
