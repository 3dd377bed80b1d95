//! CI smoke checker for observability dumps.
//!
//! Usage: `obs_check <dir>`. Reads every `*.jsonl` file under `<dir>`
//! (non-recursive) back through [`ObsReport::from_jsonl`] — after a
//! failure dump's leading `failure` line — so a report that does not
//! read back exactly fails, and asserts that the core counters the
//! instrumented run is expected to export all appear in the decoded
//! registries. Also reads
//! every `*.trace.json` causal-trace artifact and runs the full schema
//! validation ([`manet_obs::causal::validate_artifact`]: trace-event
//! quintet present, parents resolve, per-trace timestamps monotone) plus
//! a render→parse round-trip. At least one of the two file kinds must be
//! present; counter coverage is only required when JSONL dumps are. Exits
//! non-zero with a message on any violation, so `ci.sh` can gate on it.

use std::collections::BTreeSet;
use std::process::ExitCode;

use manet_obs::causal;
use manet_obs::json::Value;
use manet_obs::ObsReport;

/// Core counters a DES (simulated-substrate) run always exports.
const CORE_COUNTERS: [&str; 6] = [
    "des.events_popped",
    "des.dispatch.deliver",
    "des.calendar.retunes",
    "radio.tx_planned",
    "aodv.rreq_dup_dropped",
    "sim.queries_issued",
];

/// Core counters a real-time (swarm) run always exports instead. A dump
/// directory passes counter coverage if *either* substrate's full set is
/// present — swarm dumps carry no DES scheduler counters and vice versa.
const RT_CORE_COUNTERS: [&str; 5] = [
    "rt.dgram_rx",
    "rt.dgram_tx",
    "rt.epoll_wakeups",
    "stack.queries_issued",
    "aodv.rreq_dup_dropped",
];

fn main() -> ExitCode {
    let dir = match std::env::args().nth(1) {
        Some(d) => d,
        None => {
            eprintln!("usage: obs_check <dir-with-jsonl-dumps>");
            return ExitCode::FAILURE;
        }
    };
    let entries = match std::fs::read_dir(&dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("obs_check: cannot read {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut files = 0usize;
    let mut trace_files = 0usize;
    let mut trace_events = 0usize;
    let mut counters_seen: BTreeSet<String> = BTreeSet::new();
    for entry in entries.flatten() {
        let path = entry.path();
        if path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(".trace.json"))
        {
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("obs_check: cannot read {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            let doc = match Value::parse(&text) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("obs_check: {}: not valid JSON: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = causal::validate_artifact(&doc) {
                eprintln!("obs_check: {}: invalid trace artifact: {e}", path.display());
                return ExitCode::FAILURE;
            }
            // Round-trip: the artifact must re-render to parseable JSON
            // describing the same spans.
            let back = match Value::parse(&doc.render()) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!(
                        "obs_check: {}: artifact does not re-parse after render: {e}",
                        path.display()
                    );
                    return ExitCode::FAILURE;
                }
            };
            match (
                causal::events_from_artifact(&doc),
                causal::events_from_artifact(&back),
            ) {
                (Ok(a), Ok(b)) if a == b => trace_events += a.len(),
                (Ok(_), Ok(_)) => {
                    eprintln!(
                        "obs_check: {}: spans differ after render→parse round-trip",
                        path.display()
                    );
                    return ExitCode::FAILURE;
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("obs_check: {}: cannot read spans back: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            trace_files += 1;
            continue;
        }
        if path.extension().and_then(|e| e.to_str()) != Some("jsonl") {
            continue;
        }
        files += 1;
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("obs_check: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        // A failure dump leads with its `failure` line; the report follows.
        let (skipped, body) = match text.split_once('\n') {
            Some((first, rest))
                if Value::parse(first)
                    .is_ok_and(|v| v.get("type").and_then(Value::as_str) == Some("failure")) =>
            {
                (" (after the failure line)", rest)
            }
            _ => ("", text.as_str()),
        };
        match ObsReport::from_jsonl(body) {
            Ok(report) => {
                counters_seen.extend(report.registry.counters().map(|(n, _)| n.to_string()))
            }
            Err(e) => {
                eprintln!(
                    "obs_check: {}: report does not read back{skipped}: {e}",
                    path.display()
                );
                return ExitCode::FAILURE;
            }
        }
    }

    if files == 0 && trace_files == 0 {
        eprintln!("obs_check: no .jsonl or .trace.json files in {dir}");
        return ExitCode::FAILURE;
    }
    if files > 0 {
        let missing_from = |set: &[&'static str]| -> Vec<&'static str> {
            set.iter()
                .copied()
                .filter(|c| !counters_seen.contains(*c))
                .collect()
        };
        let missing_des = missing_from(&CORE_COUNTERS);
        let missing_rt = missing_from(&RT_CORE_COUNTERS);
        if !missing_des.is_empty() && !missing_rt.is_empty() {
            eprintln!(
                "obs_check: core counters missing from {dir}: DES set lacks {missing_des:?}, \
                 RT set lacks {missing_rt:?} (saw {counters_seen:?})"
            );
            return ExitCode::FAILURE;
        }
    }
    println!(
        "obs_check: OK — {files} report(s) read back, {len} counter name(s), \
         {trace_files} trace artifact(s) with {trace_events} span(s)",
        len = counters_seen.len()
    );
    ExitCode::SUCCESS
}
