//! N-process observability smoke test: spawn the real `swarm` binary
//! with `--obs` and assert the distributed-telemetry contract end to
//! end, across genuine OS process boundaries:
//!
//! * the parent's merged `stack.queries_issued` counter reconciles
//!   **exactly** with the sum of the per-child `RESULT` lines — the two
//!   sides read the same totals through independent channels (key=value
//!   stdout vs. the shipped JSONL), so any drift is a serialization or
//!   merge bug;
//! * the merged report reads back from its JSONL, and its answers never
//!   exceed its queries;
//! * the merged Perfetto artifact passes [`validate_artifact`] and
//!   survives a render → parse → extract round-trip.
//!
//! This is the workspace's only test that exercises the full pipeline —
//! child instrumentation → JSONL telemetry over stdio → parent merge →
//! clock stitching → artifact — with nothing mocked.

use std::path::PathBuf;
use std::process::Command;

use manet_obs::causal::{events_from_artifact, validate_artifact};
use manet_obs::json::Value;
use manet_obs::ObsReport;

/// A scratch directory under the test binary's own target dir, wiped at
/// the start of each run so stale artifacts never satisfy assertions.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swarm-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn three_process_swarm_counters_reconcile_and_artifact_validates() {
    let dir = scratch_dir("smoke");
    let out = Command::new(env!("CARGO_BIN_EXE_swarm"))
        .args([
            "--nodes",
            "3",
            "--duration-ms",
            "3000",
            "--seed",
            "11",
            "--min-answered",
            "1",
            "--obs",
            "--obs-dir",
        ])
        .arg(&dir)
        .output()
        .expect("spawn swarm binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success() && stdout.contains("SWARM OK"),
        "swarm run failed (status {:?})\nstdout:\n{stdout}\nstderr:\n{stderr}",
        out.status
    );

    // Per-child RESULT lines, echoed by the parent: sum their issued /
    // answered fields independently of the telemetry path.
    let mut result_lines = 0u32;
    let (mut sum_issued, mut sum_answered) = (0u64, 0u64);
    for line in stdout.lines().filter(|l| l.starts_with("RESULT ")) {
        result_lines += 1;
        for field in line.split_whitespace().skip(1) {
            let (key, val) = field.split_once('=').expect("key=value RESULT field");
            let val: u64 = val.parse().expect("numeric RESULT field");
            match key {
                "issued" => sum_issued += val,
                "answered" => sum_answered += val,
                _ => {}
            }
        }
    }
    assert_eq!(result_lines, 3, "one RESULT line per child:\n{stdout}");

    // The merged report on disk must carry exactly the same totals.
    let jsonl = std::fs::read_to_string(dir.join("swarm_report.jsonl")).expect("merged report");
    let merged = ObsReport::from_jsonl(&jsonl).expect("merged report reads back");
    let merged_issued = merged
        .registry
        .counter_by_name("stack.queries_issued")
        .expect("merged queries counter");
    assert_eq!(
        merged_issued, sum_issued,
        "merged queries_issued must equal the sum of child RESULT lines"
    );
    assert!(
        sum_answered <= merged_issued,
        "answers ({sum_answered}) exceed merged queries ({merged_issued})"
    );
    assert_eq!(
        merged.registry.counter_by_name("swarm.nodes"),
        Some(3),
        "parent stamps the swarm size into the merged report"
    );

    // The stitched artifact validates and round-trips: render → parse →
    // extract must reproduce a non-empty event set with ≥2 processes.
    let text = std::fs::read_to_string(dir.join("swarm.trace.json")).expect("merged artifact");
    let doc = Value::parse(&text).expect("artifact parses");
    validate_artifact(&doc).expect("artifact validates");
    let events = events_from_artifact(&doc).expect("artifact extracts");
    assert!(!events.is_empty(), "merged artifact carries no events");
    let reparsed = Value::parse(&doc.render()).expect("re-render parses");
    assert_eq!(
        events_from_artifact(&reparsed).expect("re-render extracts"),
        events,
        "render → parse is not the identity on the artifact"
    );
    let nodes: std::collections::HashSet<u32> = events.iter().map(|e| e.node).collect();
    assert!(
        nodes.len() >= 2,
        "merged trace covers only {nodes:?} — expected spans from ≥2 processes"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
