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

use crate::json::Value;

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
    /// the decode half of the telemetry codec, where a serialized row
    /// arrives already summed. Saturating: a corrupted frame can repeat
    /// a span name with near-`u64::MAX` totals, and decode must not
    /// panic.
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

    /// The profile as a JSON object: span name -> `{ms, entries}`.
    pub fn to_json(&self) -> Value {
        Value::Obj(
            self.rows()
                .map(|(n, total, entries)| {
                    (
                        n.to_string(),
                        Value::Obj(vec![
                            ("ms".into(), Value::Num(total.as_secs_f64() * 1e3)),
                            ("entries".into(), Value::Num(entries as f64)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// A fixed-width text table of the profile (for stderr summaries).
    pub fn render(&self) -> String {
        let mut s = format!("{:<28} {:>12} {:>12}\n", "span", "total_ms", "entries");
        for (n, total, entries) in self.rows() {
            s.push_str(&format!(
                "{n:<28} {:>12.3} {entries:>12}\n",
                total.as_secs_f64() * 1e3
            ));
        }
        s
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
        assert_eq!(a.rows().count(), 2);
        let t = a.render();
        assert!(t.contains("des.pop"), "{t}");
        assert!(t.contains("radio.plan"), "{t}");
    }

    #[test]
    fn json_lists_ms_and_entries() {
        let mut p = SpanProfile::new();
        let s = p.register("x");
        p.add(s, Duration::from_millis(2));
        let v = p.to_json();
        let x = v.get("x").unwrap();
        assert_eq!(x.get("entries").and_then(Value::as_f64), Some(1.0));
        assert!(x.get("ms").and_then(Value::as_f64).unwrap() >= 2.0);
    }
}
