//! Structured spans: scoped wall-clock timers over hot-path regions.
//!
//! A span is a named region of host code — scheduler pop, broadcast
//! planning, overlay maintenance — whose wall-clock cost accumulates into
//! a per-phase profile. The pattern is manual rather than guard-based so
//! the instrumented code can keep mutating the owner of the profile:
//!
//! ```
//! use manet_obs::SpanProfile;
//! let mut spans = SpanProfile::new();
//! let pop = spans.register("des.pop");
//! let t0 = std::time::Instant::now();
//! // ... the timed region ...
//! spans.add(pop, t0.elapsed());
//! ```
//!
//! Wall-clock numbers are inherently nondeterministic; they live next to
//! the deterministic metrics but are excluded from any cross-run
//! comparison (see [`crate::ObsReport`]).

use std::time::Duration;

/// Handle to a registered span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

/// Aggregated wall-clock profile over a fixed set of named spans.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanProfile {
    names: Vec<&'static str>,
    nanos: Vec<u64>,
    entries: Vec<u64>,
}

impl SpanProfile {
    /// An empty profile.
    pub fn new() -> Self {
        SpanProfile::default()
    }

    /// Register (or look up) a span by name.
    pub fn register(&mut self, name: &'static str) -> SpanId {
        match self.names.iter().position(|&n| n == name) {
            Some(i) => SpanId(i),
            None => {
                self.names.push(name);
                self.nanos.push(0);
                self.entries.push(0);
                SpanId(self.names.len() - 1)
            }
        }
    }

    /// Account one traversal of the span.
    #[inline]
    pub fn add(&mut self, id: SpanId, elapsed: Duration) {
        self.nanos[id.0] += elapsed.as_nanos() as u64;
        self.entries[id.0] += 1;
    }

    /// Account `weight` traversals from one sampled timing.
    ///
    /// Stride-sampled instrumentation times one traversal out of every
    /// `weight` and extrapolates: the profile stays an unbiased estimate
    /// of total wall-clock while the hot path pays for a timestamp pair
    /// only once per stride.
    #[inline]
    pub fn add_weighted(&mut self, id: SpanId, elapsed: Duration, weight: u64) {
        self.nanos[id.0] += (elapsed.as_nanos() as u64).saturating_mul(weight);
        self.entries[id.0] += weight;
    }

    /// Account a pre-aggregated `(nanos, entries)` total in one call —
    /// how the JSONL reader restores a row that arrives already summed.
    /// Saturating: untrusted input can repeat a span name with
    /// near-`u64::MAX` totals, and the reader must not panic.
    pub fn add_total(&mut self, id: SpanId, nanos: u64, entries: u64) {
        self.nanos[id.0] = self.nanos[id.0].saturating_add(nanos);
        self.entries[id.0] = self.entries[id.0].saturating_add(entries);
    }

    /// Total wall-clock nanoseconds spent in a span.
    pub fn nanos(&self, id: SpanId) -> u64 {
        self.nanos[id.0]
    }

    /// Times the span was entered.
    pub fn entries(&self, id: SpanId) -> u64 {
        self.entries[id.0]
    }

    /// `(name, total, entries)` rows in registration order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, Duration, u64)> + '_ {
        self.names
            .iter()
            .zip(&self.nanos)
            .zip(&self.entries)
            .map(|((&n, &ns), &e)| (n, Duration::from_nanos(ns), e))
    }

    /// Fold another run's profile into this one, by name.
    pub fn merge(&mut self, other: &SpanProfile) {
        for (i, &name) in other.names.iter().enumerate() {
            let id = self.register(name);
            self.add_total(id, other.nanos[i], other.entries[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_and_merge() {
        let mut a = SpanProfile::new();
        let pop = a.register("des.pop");
        assert_eq!(pop, a.register("des.pop"), "idempotent registration");
        a.add(pop, Duration::from_micros(5));
        a.add(pop, Duration::from_micros(7));
        assert_eq!(a.nanos(pop), 12_000);
        assert_eq!(a.entries(pop), 2);

        let mut b = SpanProfile::new();
        let plan = b.register("radio.plan");
        b.add(plan, Duration::from_micros(1));
        a.merge(&b);
        let names: Vec<&str> = a.rows().map(|(n, _, _)| n).collect();
        assert_eq!(names, vec!["des.pop", "radio.plan"]);
    }
}
