//! Per-run observability configuration and report.
//!
//! [`ObsConfig`] is the sink switch the simulation layer consults (kept
//! free of simulation types — cadence is plain seconds). [`ObsReport`]
//! bundles one run's registry, span profile and flight recorder; reports
//! merge deterministically across replications and export as JSONL.

use std::io::Write;
use std::path::{Path, PathBuf};

use crate::intern;
use crate::json::Value;
use crate::recorder::{push_line, FlightRecord, FlightRecorder, Severity};
use crate::registry::{Histogram, Registry};
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
    /// record kind. Integers are exact over the whole `u64` range
    /// ([`Value::uint`]), and [`from_jsonl`](Self::from_jsonl) reads the
    /// text back into an equal report.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut line = |ty: &str, fields: Vec<(&str, Value)>| {
            let mut obj = vec![("type".to_string(), Value::Str(ty.into()))];
            obj.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
            push_line(&mut out, &Value::Obj(obj));
        };
        line("obs_report", vec![("runs", Value::uint(self.runs as u64))]);
        let reg = &self.registry;
        for (name, v) in reg.counters() {
            line(
                "counter",
                vec![("name", Value::Str(name.into())), ("value", Value::uint(v))],
            );
        }
        for (name, v) in reg.gauges() {
            line(
                "gauge",
                vec![("name", Value::Str(name.into())), ("value", Value::Num(v))],
            );
        }
        for (name, h) in reg.hists() {
            let buckets = h
                .nonzero()
                .into_iter()
                .map(|(floor, c)| Value::Arr(vec![Value::uint(floor), Value::uint(c)]))
                .collect();
            line(
                "hist",
                vec![
                    ("name", Value::Str(name.into())),
                    ("count", Value::uint(h.count())),
                    ("sum", Value::uint(h.sum())),
                    ("buckets", Value::Arr(buckets)),
                ],
            );
        }
        // A point lists its counters, then its gauges, in registration
        // order; `from_jsonl` reads them back by position.
        let counter_names: Vec<&str> = reg.counters().map(|(n, _)| n).collect();
        let gauge_names: Vec<&str> = reg.gauges().map(|(n, _)| n).collect();
        for (t, counters, gauges) in reg.samples() {
            let counters = counter_names.iter().zip(counters);
            let gauges = gauge_names.iter().zip(gauges);
            let point = std::iter::once(("t", Value::Num(t)))
                .chain(counters.map(|(&n, &v)| (n, Value::uint(v))))
                .chain(gauges.map(|(&n, &v)| (n, Value::Num(v))));
            line("sample", point.collect());
        }
        for (name, total, entries) in self.spans.rows() {
            line(
                "span",
                vec![
                    ("name", Value::Str(name.into())),
                    ("ms", Value::Num(total.as_secs_f64() * 1e3)),
                    ("entries", Value::uint(entries)),
                    ("ns", Value::uint(total.as_nanos() as u64)),
                ],
            );
        }
        out.push_str(&self.recorder.to_jsonl());
        out
    }

    /// Read back what [`to_jsonl`](Self::to_jsonl) wrote — its exact
    /// inverse. Names are [`intern`](intern())ed; counters and totals
    /// must be non-negative integers. Every failure is an `Err`, naming
    /// the 1-based line at fault; nothing panics. The text must end with
    /// the recorder header and as many records as it says it retained, so
    /// a report cut short between lines is refused too.
    pub fn from_jsonl(text: &str) -> Result<ObsReport, String> {
        let mut reader = JsonlReader::default();
        for (i, line) in text.lines().enumerate() {
            reader
                .line(i == 0, line)
                .map_err(|e| format!("line {}: {e}", i + 1))?;
        }
        let Some((capacity, offered, dropped, retained)) = reader.ring else {
            return Err("report ends before its recorder header".into());
        };
        if reader.records.len() as u64 != retained {
            return Err(format!(
                "recorder header promises {retained} records, found {}",
                reader.records.len()
            ));
        }
        let mut report = reader.report;
        report.recorder = FlightRecorder::from_parts(capacity, offered, dropped, reader.records);
        Ok(report)
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

/// [`ObsReport::from_jsonl`]'s state between lines.
#[derive(Default)]
struct JsonlReader {
    report: ObsReport,
    /// `(capacity, offered, dropped, retained)` once the recorder header
    /// is read; only records follow it.
    ring: Option<(usize, u64, u64, u64)>,
    records: Vec<FlightRecord>,
}

impl JsonlReader {
    fn line(&mut self, first: bool, text: &str) -> Result<(), String> {
        let v = Value::parse(text)?;
        let ty = v.str_field("type")?;
        if first != (ty == "obs_report") || (ty == "record") != self.ring.is_some() {
            return Err(format!("unexpected {ty} line"));
        }
        let name = || v.str_field("name").map(intern);
        let reg = &mut self.report.registry;
        match ty {
            "obs_report" => {
                self.report.runs =
                    u32::try_from(v.u64_field("runs")?).map_err(|_| "runs exceed u32")?;
            }
            "counter" => {
                let id = reg.counter(name()?);
                reg.set(id, v.u64_field("value")?);
            }
            "gauge" => {
                let id = reg.gauge(name()?);
                reg.set_gauge(id, v.f64_field("value")?);
            }
            "hist" => {
                let buckets = v.get("buckets").and_then(Value::as_arr);
                let pairs = buckets
                    .ok_or("field 'buckets' missing or not an array")?
                    .iter()
                    .map(|pair| match pair.as_arr() {
                        Some([floor, c]) => floor.as_u64().zip(c.as_u64()),
                        _ => None,
                    })
                    .collect::<Option<Vec<_>>>()
                    .ok_or("a bucket is a [floor, count] pair of non-negative integers")?;
                let h = Histogram::from_parts(&pairs, v.u64_field("sum")?);
                if h.count() != v.u64_field("count")? {
                    return Err("count disagrees with the buckets".into());
                }
                let id = reg.hist(name()?);
                reg.set_hist(id, &h);
            }
            "sample" => read_sample(reg, &v)?,
            "span" => {
                let id = self.report.spans.register(name()?);
                self.report
                    .spans
                    .add_total(id, v.u64_field("ns")?, v.u64_field("entries")?);
            }
            "recorder" => {
                let (capacity, retained) = (v.u64_field("capacity")?, v.u64_field("retained")?);
                if retained > capacity {
                    return Err(format!(
                        "{retained} records retained by a ring of {capacity}"
                    ));
                }
                let capacity = usize::try_from(capacity).map_err(|_| "capacity exceeds usize")?;
                self.ring = Some((
                    capacity,
                    v.u64_field("offered")?,
                    v.u64_field("dropped")?,
                    retained,
                ));
            }
            "record" => {
                let severity = v.str_field("severity")?;
                self.records.push(FlightRecord {
                    t_secs: v.f64_field("t")?,
                    severity: Severity::from_name(severity)
                        .ok_or_else(|| format!("unknown severity '{severity}'"))?,
                    tag: intern(v.str_field("tag")?),
                    msg: v.str_field("msg")?.to_string(),
                });
            }
            other => return Err(format!("unknown line type '{other}'")),
        }
        Ok(())
    }
}

/// One series point: after `type` and `t`, the registry's counters then
/// its gauges, each a prefix of its registration order (a point taken
/// before a later registration is shorter). A name may be both a counter
/// and a gauge, so the split is found from the names; where two splits
/// fit, the longer counter run is taken.
fn read_sample(reg: &mut Registry, v: &Value) -> Result<(), String> {
    let t = v.f64_field("t")?;
    let Some([(ty, _), (at, _), point @ ..]) = v.as_obj() else {
        return Err("a sample point is an object".into());
    };
    if (ty.as_str(), at.as_str()) != ("type", "t") {
        return Err("a sample point starts with 'type' and 't'".into());
    }
    let names: Vec<&str> = point.iter().map(|(k, _)| k.as_str()).collect();
    let counter_names: Vec<&str> = reg.counters().map(|(n, _)| n).collect();
    let gauge_names: Vec<&str> = reg.gauges().map(|(n, _)| n).collect();
    let split = (0..=names.len().min(counter_names.len()))
        .rev()
        .find(|&k| counter_names.starts_with(&names[..k]) && gauge_names.starts_with(&names[k..]))
        .ok_or("sample point names series the report does not register")?;
    let counters = point[..split].iter().map(|(_, v)| v.as_u64()).collect();
    let gauges = point[split..].iter().map(|(_, v)| v.as_f64()).collect();
    let (Some(counters), Some(gauges)) = (counters, gauges) else {
        return Err("a sample point holds counts, then numbers".into());
    };
    reg.push_sample(t, counters, gauges);
    Ok(())
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
    fn jsonl_reads_back_exactly() {
        let mut report = small_report();
        let c = report.registry.counter("rt.dgram_rx");
        report.registry.set(c, u64::MAX);
        // A name may be both a counter and a gauge.
        let g = report.registry.gauge("rt.dgram_rx");
        report.registry.set_gauge(g, 0.25);
        report.registry.sample(20.0);
        let text = report.to_jsonl();
        assert_eq!(ObsReport::from_jsonl(&text), Ok(report));
        assert_eq!(
            ObsReport::from_jsonl(&ObsReport::default().to_jsonl()),
            Ok(ObsReport::default())
        );
    }

    #[test]
    fn jsonl_reader_names_the_bad_line() {
        let text = small_report().to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        let with = |i: usize, line: &str| {
            let mut l = lines.clone();
            l[i] = line;
            ObsReport::from_jsonl(&l.join("\n")).unwrap_err()
        };
        let counter = lines
            .iter()
            .position(|l| l.contains("\"counter\""))
            .unwrap();
        for bad in [
            r#"{ "type": "counter", "name": "des.events_popped", "value": -1 }"#,
            r#"{ "type": "counter", "name": "des.events_popped", "value": 1.5 }"#,
            r#"{ "type": "counter", "name": "des.events_popped" }"#,
            r#"{ "type": "bogus" }"#,
            r#"{ "type": "obs_report", "runs": 1 }"#,
            r#"{ "type": "record", "t": 1, "severity": "info", "tag": "x", "msg": "" }"#,
            "{ \"type\": \"counter\"",
        ] {
            let e = with(counter, bad);
            assert!(
                e.starts_with(&format!("line {}:", counter + 1)),
                "{bad}: {e}"
            );
        }
        assert!(with(0, lines[counter]).starts_with("line 1:"));
        // Cut short between lines: the recorder header counts its records.
        let short = lines[..lines.len() - 1].join("\n");
        assert!(ObsReport::from_jsonl(&short)
            .unwrap_err()
            .contains("promises 1"));
        assert!(ObsReport::from_jsonl("").is_err());
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
        let (_, body) = text.split_once('\n').expect("a report follows the header");
        assert_eq!(
            ObsReport::from_jsonl(body),
            Ok(report),
            "the dump reads back"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
