//! The flight recorder: a severity-tagged ring buffer of run occurrences.
//!
//! A generalization of the simulator's protocol trace: each record carries
//! a severity, a static tag naming the subsystem occurrence (`"join"`,
//! `"link_break"`, `"invariant"`, …) and a free-form message. The ring
//! keeps the last `capacity` records and counts what it evicted, so a
//! truncated recording is never mistaken for a complete one. When a run
//! fails its invariants the ring is dumped as JSONL — one parseable JSON
//! object per line — giving every red test a post-mortem artifact.

use std::collections::VecDeque;

use crate::json::Value;

/// How alarming a flight record is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// High-volume detail (per-delivery, per-timer).
    Debug,
    /// Normal lifecycle milestones (joins, connections).
    Info,
    /// Degradation the protocols are expected to absorb (link breaks,
    /// crashes, depletion).
    Warn,
    /// A broken contract: invariant violations, panics.
    Error,
}

impl Severity {
    /// Stable lowercase name (used in JSONL dumps).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    /// The severity [`name`](Self::name) returns `name` for.
    pub fn from_name(name: &str) -> Option<Severity> {
        [
            Severity::Debug,
            Severity::Info,
            Severity::Warn,
            Severity::Error,
        ]
        .into_iter()
        .find(|s| s.name() == name)
    }
}

/// One recorded occurrence.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightRecord {
    /// Simulated seconds at the occurrence.
    pub t_secs: f64,
    /// Severity class.
    pub severity: Severity,
    /// Static subsystem tag (`"join"`, `"link_break"`, …).
    pub tag: &'static str,
    /// Free-form detail.
    pub msg: String,
}

impl FlightRecord {
    /// The record as one JSON object (one JSONL line of a dump).
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("type".into(), Value::Str("record".into())),
            ("t".into(), Value::Num(self.t_secs)),
            ("severity".into(), Value::Str(self.severity.name().into())),
            ("tag".into(), Value::Str(self.tag.into())),
            ("msg".into(), Value::Str(self.msg.clone())),
        ])
    }
}

/// A bounded, eviction-counting ring of [`FlightRecord`]s.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlightRecorder {
    ring: VecDeque<FlightRecord>,
    capacity: usize,
    offered: u64,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder keeping at most `capacity` records (0 disables it).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            ring: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            offered: 0,
            dropped: 0,
        }
    }

    /// Whether recording is enabled.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The configured ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rebuild a recorder from its serialized shape (what
    /// [`ObsReport::from_jsonl`](crate::ObsReport::from_jsonl) reads).
    /// `records` must already respect `capacity` — extra records are
    /// *not* evicted here, they were accounted on the recording side
    /// where `offered`/`dropped` were maintained.
    pub fn from_parts(
        capacity: usize,
        offered: u64,
        dropped: u64,
        records: Vec<FlightRecord>,
    ) -> FlightRecorder {
        FlightRecorder {
            ring: records.into(),
            capacity,
            offered,
            dropped,
        }
    }

    /// Record an occurrence (evicts the oldest when full; no-op when
    /// disabled). Callers should format `msg` only when
    /// [`enabled`](Self::enabled) to keep the disabled path free.
    pub fn record(&mut self, t_secs: f64, severity: Severity, tag: &'static str, msg: String) {
        if self.capacity == 0 {
            return;
        }
        self.offered += 1;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(FlightRecord {
            t_secs,
            severity,
            tag,
            msg,
        });
    }

    /// Records currently retained, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &FlightRecord> {
        self.ring.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total records offered (retained + evicted).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Records evicted to make room (0 means the recording is complete).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Fold another run's recorder into this one: records concatenate in
    /// fold order (replication order keeps it deterministic), counters add
    /// (saturating).
    pub fn merge(&mut self, other: &FlightRecorder) {
        self.capacity = self.capacity.max(other.capacity);
        self.offered = self.offered.saturating_add(other.offered);
        self.dropped = self.dropped.saturating_add(other.dropped);
        for r in &other.ring {
            if self.capacity > 0 && self.ring.len() == self.capacity {
                self.ring.pop_front();
                self.dropped = self.dropped.saturating_add(1);
            }
            self.ring.push_back(r.clone());
        }
    }

    /// The retained records as JSONL, one object per line, preceded by a
    /// `{"type": "recorder", ...}` header carrying the eviction count and
    /// the ring capacity.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let header = Value::Obj(vec![
            ("type".into(), Value::Str("recorder".into())),
            ("retained".into(), Value::uint(self.len() as u64)),
            ("offered".into(), Value::uint(self.offered)),
            ("dropped".into(), Value::uint(self.dropped)),
            ("capacity".into(), Value::uint(self.capacity as u64)),
        ]);
        push_line(&mut out, &header);
        for r in &self.ring {
            push_line(&mut out, &r.to_json());
        }
        out
    }
}

/// Append `v` to `out` as one JSONL line.
pub(crate) fn push_line(out: &mut String, v: &Value) {
    out.push_str(&v.render_line());
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_stays_empty() {
        let mut fr = FlightRecorder::new(0);
        fr.record(1.0, Severity::Info, "join", "n1".into());
        assert!(!fr.enabled());
        assert!(fr.is_empty());
        assert_eq!(fr.offered(), 0);
    }

    #[test]
    fn ring_counts_evictions() {
        let mut fr = FlightRecorder::new(2);
        for k in 0..5 {
            fr.record(k as f64, Severity::Info, "join", format!("n{k}"));
        }
        assert_eq!(fr.len(), 2);
        assert_eq!(fr.offered(), 5);
        assert_eq!(fr.dropped(), 3);
        let kept: Vec<&str> = fr.records().map(|r| r.msg.as_str()).collect();
        assert_eq!(kept, vec!["n3", "n4"], "newest survive");
    }

    #[test]
    fn jsonl_lines_parse_individually() {
        let mut fr = FlightRecorder::new(8);
        fr.record(1.5, Severity::Warn, "link_break", "n3 -> n7".into());
        fr.record(
            2.0,
            Severity::Error,
            "invariant",
            "a \"quoted\" detail".into(),
        );
        let text = fr.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 records");
        for line in &lines {
            let v = Value::parse(line).expect("every line is standalone JSON");
            assert!(v.get("type").is_some());
        }
        let header = Value::parse(lines[0]).unwrap();
        assert_eq!(header.get("dropped").and_then(Value::as_f64), Some(0.0));
        let rec = Value::parse(lines[2]).unwrap();
        assert_eq!(rec.get("severity").and_then(Value::as_str), Some("error"));
        assert_eq!(
            rec.get("msg").and_then(Value::as_str),
            Some("a \"quoted\" detail")
        );
    }

    #[test]
    fn jsonl_keeps_message_spacing() {
        let mut fr = FlightRecorder::new(2);
        fr.record(1.0, Severity::Info, "join", "a  b".into());
        fr.record(2.0, Severity::Error, "invariant", "drift\n  pinned".into());
        let text = fr.to_jsonl();
        let msgs: Vec<String> = text
            .lines()
            .skip(1)
            .map(|l| {
                Value::parse(l)
                    .unwrap()
                    .str_field("msg")
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(msgs, vec!["a  b", "drift\n  pinned"]);
    }

    #[test]
    fn merge_concatenates_in_fold_order() {
        let mut a = FlightRecorder::new(8);
        a.record(1.0, Severity::Info, "join", "a".into());
        let mut b = FlightRecorder::new(8);
        b.record(2.0, Severity::Info, "join", "b".into());
        a.merge(&b);
        let msgs: Vec<&str> = a.records().map(|r| r.msg.as_str()).collect();
        assert_eq!(msgs, vec!["a", "b"]);
        assert_eq!(a.offered(), 2);
    }
}
