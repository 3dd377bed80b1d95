//! Shared helpers for the in-repo timing benches.
//!
//! The benches are plain binaries on a dependency-free harness: each suite
//! times closures over a handful of iterations and prints a fixed-width
//! min/mean/max table. Not statistically rigorous — these exist to show the
//! *relative* cost of the algorithms and substrate hot paths and to catch
//! order-of-magnitude regressions, while keeping the workspace free of
//! external dev-dependencies.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin micro [filter-substring]
//! cargo run --release -p bench --bin figures
//! cargo run --release -p bench --bin ablations
//! BENCH_ITERS=10 cargo run --release -p bench --bin figures
//! ```
//!
//! The figure benches run scaled-down versions of the paper's scenarios
//! (same shape, shorter clock) so a full sweep completes in minutes; the
//! binaries in `manet-sim` regenerate the figures at full scale.

use std::cell::RefCell;
use std::time::Instant;

pub use std::hint::black_box;

use manet_des::{SchedulerKind, SimDuration};
use manet_sim::{RunResult, Scenario, World};
use p2p_core::AlgoKind;

pub use manet_obs::json;

use json::Value;

/// A bench-sized paper scenario: full Table 2 shape, short clock. The
/// observability sink — on by default at the scenario level — is pinned
/// *off* here, so every bench record means "bare hot path"; observed
/// variants (micro's `calendar_obs`, the perf gate's enabled runs) opt
/// back in explicitly.
pub fn bench_scenario(n_nodes: usize, algo: AlgoKind, secs: u64) -> Scenario {
    let mut s = Scenario::quick(n_nodes, algo, secs);
    s.join_window = SimDuration::from_secs(5);
    s.obs = manet_obs::ObsConfig::disabled();
    s
}

/// Run one replication and return a value the optimizer cannot discard.
pub fn run_once(scenario: Scenario, seed: u64) -> u64 {
    let r = World::new(scenario, seed).run();
    r.events + r.answers_received + r.phy_total.frames_sent
}

/// Run one replication on the given scheduler and return the full result,
/// for benches that record workload metadata (events, peak queue depth).
pub fn run_result(scenario: Scenario, seed: u64, kind: SchedulerKind) -> RunResult {
    World::with_scheduler(scenario, seed, kind).run()
}

/// Read a numeric workload knob from the environment.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// One finished measurement, bound for `BENCH_RESULTS.json`.
struct Record {
    name: String,
    min_ms: f64,
    mean_ms: f64,
    max_ms: f64,
    iters: u32,
    /// Workload metadata (nodes, events, peak_queue_depth, …) plus derived
    /// rates (events_per_sec).
    extra: Vec<(String, f64)>,
}

/// The timing harness: substring filtering via the first CLI argument,
/// iteration override via `BENCH_ITERS`, machine-readable output merged
/// into `BENCH_RESULTS.json` (path override via `BENCH_JSON`) on
/// [`finish`](Harness::finish).
pub struct Harness {
    suite: String,
    filter: Option<String>,
    iters_override: Option<u32>,
    records: RefCell<Vec<Record>>,
}

impl Harness {
    /// Build from the process environment and print the table header.
    pub fn from_env(suite: &str) -> Self {
        let filter = std::env::args().nth(1);
        let iters_override = std::env::var("BENCH_ITERS")
            .ok()
            .and_then(|v| v.trim().parse().ok());
        println!("# suite: {suite}");
        if let Some(f) = &filter {
            println!("# filter: {f}");
        }
        println!(
            "{:<52} {:>12} {:>12} {:>12} {:>6}",
            "benchmark", "min", "mean", "max", "iters"
        );
        Harness {
            suite: suite.to_string(),
            filter,
            iters_override,
            records: RefCell::new(Vec::new()),
        }
    }

    /// Time `f` over `iters` iterations (after one untimed warmup run) and
    /// print a table row. Skipped when the name does not match the filter.
    pub fn time<R>(&self, name: &str, iters: u32, f: impl FnMut() -> R) {
        self.time_meta(name, iters, f, |_| Vec::new());
    }

    /// Like [`time`](Harness::time), but `meta` maps the warmup run's result
    /// to workload metadata recorded alongside the timings. When the
    /// metadata contains an `events` count, a derived `events_per_sec`
    /// (from the mean wall-clock) is added automatically.
    pub fn time_meta<R>(
        &self,
        name: &str,
        iters: u32,
        mut f: impl FnMut() -> R,
        meta: impl FnOnce(&R) -> Vec<(String, f64)>,
    ) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        let iters = self.iters_override.unwrap_or(iters).max(1);
        let warmup = f();
        let mut extra = meta(&warmup);
        black_box(warmup);
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        let mut total = 0.0f64;
        for _ in 0..iters {
            let t0 = Instant::now();
            black_box(f());
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            min = min.min(ms);
            max = max.max(ms);
            total += ms;
        }
        let mean = total / iters as f64;
        println!("{name:<52} {min:>10.3}ms {mean:>10.3}ms {max:>10.3}ms {iters:>6}");
        if let Some(&(_, events)) = extra.iter().find(|(k, _)| k == "events") {
            if mean > 0.0 {
                extra.push(("events_per_sec".into(), events / (mean / 1e3)));
            }
        }
        self.records.borrow_mut().push(Record {
            name: name.to_string(),
            min_ms: min,
            mean_ms: mean,
            max_ms: max,
            iters,
            extra,
        });
    }

    /// Merge every recorded measurement into the results file and report
    /// where it went.
    ///
    /// The file (default `BENCH_RESULTS.json`, overridable via the
    /// `BENCH_JSON` env var) accumulates across suites: records matching
    /// this run's `(suite, name)` pairs are replaced in place, everything
    /// else — other suites, filtered-out benches — is preserved, so each
    /// suite run refreshes only its own rows and the file stays the
    /// repo-wide perf trajectory.
    pub fn finish(self) {
        let path = std::env::var("BENCH_JSON").unwrap_or_else(|_| "BENCH_RESULTS.json".into());
        match merge_records(&path, self.into_values()) {
            Ok(()) => println!("# results merged into {path}"),
            Err(e) => eprintln!("# failed to write {path}: {e}"),
        }
    }

    /// The finished measurements as results-file records, each stamped
    /// with [`host_fields`].
    fn into_values(self) -> Vec<Value> {
        let host = host_fields();
        self.records
            .into_inner()
            .into_iter()
            .map(|r| {
                let mut fields = vec![
                    ("suite".to_string(), Value::Str(self.suite.clone())),
                    ("name".to_string(), Value::Str(r.name)),
                    ("min_ms".to_string(), Value::Num(r.min_ms)),
                    ("mean_ms".to_string(), Value::Num(r.mean_ms)),
                    ("max_ms".to_string(), Value::Num(r.max_ms)),
                    ("iters".to_string(), Value::Num(f64::from(r.iters))),
                ];
                fields.extend(r.extra.into_iter().map(|(k, v)| (k, Value::Num(v))));
                fields.extend(host.iter().cloned());
                Value::Obj(fields)
            })
            .collect()
    }
}

/// The host a record was measured on: `nproc` (available parallelism, 0
/// when unknown), `cpu_model` (the first `model name` line of
/// `/proc/cpuinfo`) and `rustc` (`rustc -V`), the strings `unknown` when
/// they cannot be read. Every record written to the results file carries
/// these, so records from different machines are never compared blind.
fn host_fields() -> Vec<(String, Value)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|v| v.trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("nproc".into(), Value::Num(nproc as f64)),
        ("cpu_model".into(), Value::Str(cpu_model)),
        ("rustc".into(), Value::Str(rustc)),
    ]
}

/// Merge `fresh` records into the results file at `path`: an old record
/// with the `(suite, name)` of a fresh one is replaced, every other old
/// record is kept, and a missing or unparseable file counts as empty.
fn merge_records(path: &str, fresh: Vec<Value>) -> std::io::Result<()> {
    let old = std::fs::read_to_string(path).ok();
    std::fs::write(path, merge_doc(old.as_deref(), fresh))
}

/// The document [`merge_records`] writes, from the file's old text.
fn merge_doc(old: Option<&str>, fresh: Vec<Value>) -> String {
    let mut merged: Vec<Value> = old
        .and_then(|text| Value::parse(text).ok())
        .and_then(|doc| {
            doc.get("records")
                .and_then(Value::as_arr)
                .map(<[_]>::to_vec)
        })
        .unwrap_or_default();
    let key = |v: &Value| -> (String, String) {
        let field = |k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string()
        };
        (field("suite"), field("name"))
    };
    merged.retain(|old| !fresh.iter().any(|new| key(new) == key(old)));
    merged.extend(fresh);
    Value::Obj(vec![("records".to_string(), Value::Arr(merged))]).render()
}

/// The `(events_per_sec, events)` of the `(suite, name)` record in a
/// results document; `events` is 0 when the record has none. Only the
/// numeric fields are read, so string fields (the host metadata) are
/// ignored.
pub fn record_eps(doc: &Value, suite: &str, name: &str) -> Option<(f64, u64)> {
    let r = doc.get("records").and_then(Value::as_arr).and_then(|rs| {
        rs.iter().find(|r| {
            r.get("suite").and_then(Value::as_str) == Some(suite)
                && r.get("name").and_then(Value::as_str) == Some(name)
        })
    })?;
    let eps = r.get("events_per_sec").and_then(Value::as_f64)?;
    let events = r.get("events").and_then(Value::as_f64).unwrap_or(0.0) as u64;
    (eps > 0.0).then_some((eps, events))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_builder_is_bench_shaped() {
        let s = bench_scenario(40, AlgoKind::Regular, 120);
        s.validate();
        assert_eq!(s.join_window, SimDuration::from_secs(5));
    }

    #[test]
    fn run_once_produces_nonzero_work() {
        assert!(run_once(bench_scenario(12, AlgoKind::Regular, 30), 7) > 0);
    }

    #[test]
    fn written_records_carry_host_metadata() {
        let h = Harness {
            suite: "unit".into(),
            filter: None,
            iters_override: None,
            records: RefCell::new(Vec::new()),
        };
        h.time_meta("unit/probe", 1, || 1u64, |_| vec![("events".into(), 1e3)]);
        let old = r#"{"records": [
            {"suite": "unit", "name": "unit/probe", "events_per_sec": 1},
            {"suite": "other", "name": "kept", "events_per_sec": 2}
        ]}"#;
        let doc = Value::parse(&merge_doc(Some(old), h.into_values())).expect("valid JSON");
        let records = doc.get("records").and_then(Value::as_arr).expect("records");
        assert_eq!(records.len(), 2, "same key replaced, other kept");
        let probe = records
            .iter()
            .find(|r| r.get("name").and_then(Value::as_str) == Some("unit/probe"))
            .expect("fresh record written");
        let nproc = probe.get("nproc").and_then(Value::as_f64).expect("nproc");
        assert_eq!(
            nproc,
            std::thread::available_parallelism().map_or(0, |n| n.get()) as f64
        );
        for field in ["cpu_model", "rustc"] {
            let v = probe.get(field).and_then(Value::as_str);
            assert!(v.is_some_and(|v| !v.is_empty()), "{field} missing: {v:?}");
        }
        // The gate's reader skips the string fields and still finds the
        // numbers.
        let (eps, events) = record_eps(&doc, "unit", "unit/probe").expect("readable");
        assert!(eps > 0.0);
        assert_eq!(events, 1_000);
        assert_eq!(record_eps(&doc, "other", "kept"), Some((2.0, 0)));
    }
}
