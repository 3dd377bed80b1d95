//! Per-run observability configuration and report.
//!
//! [`ObsConfig`] is the sink switch the simulation layer consults (kept
//! free of simulation types — cadence is plain seconds). [`ObsReport`]
//! bundles one run's registry, span profile and flight recorder; reports
//! merge deterministically across replications and export as JSONL.

use std::io::Write;
use std::path::{Path, PathBuf};

use crate::json::Value;
use crate::recorder::{push_line, FlightRecorder};
use crate::registry::Registry;
use crate::span::SpanProfile;

/// The observability sink configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ObsConfig {
    /// Master switch. On by default: the observed hot path is within the
    /// perf gate's obs-tax bound of the bare one, so every run ships with
    /// metrics and flight-recorder context. Off means instrumented code
    /// dispatches to a precomputed no-op sink and does nothing else —
    /// results are untouched either way (obs is fingerprint-excluded).
    pub enabled: bool,
    /// Sim-time sampling cadence for counter/gauge time series, in
    /// simulated seconds (0 disables series sampling).
    pub sample_period_secs: f64,
    /// Flight-recorder ring capacity (0 disables the recorder).
    pub recorder_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: true,
            sample_period_secs: 10.0,
            recorder_capacity: 4096,
        }
    }
}

impl ObsConfig {
    /// The default enabled configuration (10 s cadence, 4096-record ring).
    pub fn enabled() -> Self {
        ObsConfig {
            enabled: true,
            ..ObsConfig::default()
        }
    }

    /// The disabled configuration: the no-op sink, for bare-perf baselines
    /// and callers that opt out of observability.
    pub fn disabled() -> Self {
        ObsConfig {
            enabled: false,
            ..ObsConfig::default()
        }
    }
}

/// Everything one run's observability produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsReport {
    /// Counters, gauges, histograms and their time series. Deterministic:
    /// identical for identical `(scenario, seed)` runs.
    pub registry: Registry,
    /// Per-phase wall-clock profile. Nondeterministic by nature; excluded
    /// from cross-run comparisons.
    pub spans: SpanProfile,
    /// The severity-tagged ring of run occurrences. Deterministic.
    pub recorder: FlightRecorder,
    /// Runs folded into this report (0 = sink was disabled).
    pub runs: u32,
}

impl ObsReport {
    /// Whether the report carries any data.
    pub fn enabled(&self) -> bool {
        self.runs > 0
    }

    /// Fold another run's report into this one. Always fold in replication
    /// order: the result is then identical whatever thread count produced
    /// the runs (see `run_replications`). Every total saturates, so a
    /// report decoded from untrusted bytes cannot overflow the fold.
    pub fn merge(&mut self, other: &ObsReport) {
        self.registry.merge(&other.registry);
        self.spans.merge(&other.spans);
        self.recorder.merge(&other.recorder);
        self.runs = self.runs.saturating_add(other.runs);
    }

    /// The full report as JSONL: a header line, one line per counter,
    /// gauge, histogram, series point and span, then the flight-recorder
    /// lines. Every line parses standalone; the `type` field names the
    /// record kind.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        push_line(
            &mut out,
            &Value::Obj(vec![
                ("type".into(), Value::Str("obs_report".into())),
                ("runs".into(), Value::Num(self.runs as f64)),
            ]),
        );
        for (name, v) in self.registry.counters() {
            push_line(
                &mut out,
                &Value::Obj(vec![
                    ("type".into(), Value::Str("counter".into())),
                    ("name".into(), Value::Str(name.into())),
                    ("value".into(), Value::Num(v as f64)),
                ]),
            );
        }
        for (name, v) in self.registry.gauges() {
            push_line(
                &mut out,
                &Value::Obj(vec![
                    ("type".into(), Value::Str("gauge".into())),
                    ("name".into(), Value::Str(name.into())),
                    ("value".into(), Value::Num(v)),
                ]),
            );
        }
        for (name, h) in self.registry.hists() {
            let buckets = h
                .nonzero()
                .into_iter()
                .map(|(floor, c)| Value::Arr(vec![Value::Num(floor as f64), Value::Num(c as f64)]))
                .collect();
            push_line(
                &mut out,
                &Value::Obj(vec![
                    ("type".into(), Value::Str("hist".into())),
                    ("name".into(), Value::Str(name.into())),
                    ("count".into(), Value::Num(h.count() as f64)),
                    ("sum".into(), Value::Num(h.sum() as f64)),
                    ("buckets".into(), Value::Arr(buckets)),
                ]),
            );
        }
        if let Value::Obj(fields) = self.registry.to_json() {
            if let Some(Value::Arr(points)) = fields
                .into_iter()
                .find(|(k, _)| k == "series")
                .map(|(_, v)| v)
            {
                for p in points {
                    let mut line = vec![("type".to_string(), Value::Str("sample".into()))];
                    if let Value::Obj(pf) = p {
                        line.extend(pf);
                    }
                    push_line(&mut out, &Value::Obj(line));
                }
            }
        }
        for (name, total, entries) in self.spans.rows() {
            push_line(
                &mut out,
                &Value::Obj(vec![
                    ("type".into(), Value::Str("span".into())),
                    ("name".into(), Value::Str(name.into())),
                    ("ms".into(), Value::Num(total.as_secs_f64() * 1e3)),
                    ("entries".into(), Value::Num(entries as f64)),
                ]),
            );
        }
        out.push_str(&self.recorder.to_jsonl());
        out
    }

    /// Write [`to_jsonl`](Self::to_jsonl) to `path`, creating parent
    /// directories.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_jsonl())
    }
}

/// Write a failure dump: a `{"type": "failure"}` header naming the label
/// and the violations, followed by the report's JSONL. Returns the path
/// written (`<dir>/failure_<label>.jsonl`).
///
/// This is what turns a red invariant check into a post-mortem artifact:
/// callers invoke it when `check_invariants`/`check_result` comes back
/// non-empty or a fault-plan run panics.
pub fn dump_failure(
    dir: &Path,
    label: &str,
    violations: &[String],
    report: &ObsReport,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let sanitized: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let path = dir.join(format!("failure_{sanitized}.jsonl"));
    let mut out = String::new();
    push_line(
        &mut out,
        &Value::Obj(vec![
            ("type".into(), Value::Str("failure".into())),
            ("label".into(), Value::Str(label.into())),
            (
                "violations".into(),
                Value::Arr(violations.iter().map(|v| Value::Str(v.clone())).collect()),
            ),
        ]),
    );
    out.push_str(&report.to_jsonl());
    let mut f = std::fs::File::create(&path)?;
    f.write_all(out.as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Severity;

    fn small_report() -> ObsReport {
        let mut r = ObsReport {
            runs: 1,
            ..ObsReport::default()
        };
        let c = r.registry.counter("des.events_popped");
        r.registry.inc(c, 42);
        let g = r.registry.gauge("des.queue_depth");
        r.registry.set_gauge(g, 17.0);
        let h = r.registry.hist("radio.broadcast_fanout");
        r.registry.observe(h, 6);
        r.registry.sample(10.0);
        let s = r.spans.register("des.pop");
        r.spans.add(s, std::time::Duration::from_micros(3));
        r.recorder = FlightRecorder::new(16);
        r.recorder
            .record(1.0, Severity::Info, "join", "n1 joined".into());
        r
    }

    #[test]
    fn jsonl_roundtrip_every_line_parses() {
        let report = small_report();
        let text = report.to_jsonl();
        let mut types = Vec::new();
        for line in text.lines() {
            let v = Value::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
            types.push(
                v.get("type")
                    .and_then(Value::as_str)
                    .expect("typed line")
                    .to_string(),
            );
        }
        for expect in [
            "obs_report",
            "counter",
            "gauge",
            "hist",
            "sample",
            "span",
            "recorder",
            "record",
        ] {
            assert!(
                types.iter().any(|t| t == expect),
                "missing {expect}: {types:?}"
            );
        }
    }

    #[test]
    fn merge_is_deterministic_over_fold_order_of_equal_runs() {
        // Folding [a, b] must equal folding [a, b] computed elsewhere —
        // and differ from [b, a] only in recorder order, never counters.
        let a = small_report();
        let b = small_report();
        let mut m1 = ObsReport::default();
        m1.merge(&a);
        m1.merge(&b);
        let mut m2 = ObsReport::default();
        m2.merge(&a);
        m2.merge(&b);
        assert_eq!(m1, m2);
        assert_eq!(m1.runs, 2);
        assert_eq!(m1.registry.counter_by_name("des.events_popped"), Some(84));
    }

    #[test]
    fn failure_dump_writes_parseable_jsonl() {
        let dir = std::env::temp_dir().join(format!("obs_dump_test_{}", std::process::id()));
        let report = small_report();
        let path = dump_failure(
            &dir,
            "unit/test case",
            &["member census: off by one".into()],
            &report,
        )
        .expect("dump written");
        assert!(path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .contains("unit_test_case"));
        let text = std::fs::read_to_string(&path).expect("readable");
        let first = Value::parse(text.lines().next().expect("nonempty")).expect("header parses");
        assert_eq!(first.get("type").and_then(Value::as_str), Some("failure"));
        assert_eq!(
            first
                .get("violations")
                .and_then(Value::as_arr)
                .map(<[_]>::len),
            Some(1)
        );
        for line in text.lines() {
            Value::parse(line).expect("every dump line parses");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
