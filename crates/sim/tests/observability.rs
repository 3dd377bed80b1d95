//! The observability contract: enabling the sink never changes results,
//! merged reports are thread-count invariant, and failure dumps are
//! well-formed JSONL that reads back into the report dumped.

use manet_metrics::MsgKind;
use manet_obs::json::Value;
use manet_obs::ObsReport;
use manet_sim::{aggregate, check_result_dumping, run_replications, ObsConfig, Scenario, World};
use p2p_core::AlgoKind;

fn observed(mut s: Scenario) -> Scenario {
    s.obs = ObsConfig::enabled();
    s
}

fn unobserved(mut s: Scenario) -> Scenario {
    s.obs = ObsConfig::disabled();
    s
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("obs_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn observed_runs_are_bit_identical_to_unobserved() {
    for algo in AlgoKind::ALL {
        // Obs is on by default; the bare baseline is the one that opts out.
        let s = Scenario::quick(20, algo, 200);
        let plain = World::new(unobserved(s.clone()), 17).run();
        let seen = World::new(observed(s), 17).run();

        assert_eq!(plain.fingerprint(), seen.fingerprint(), "{algo}");
        assert_eq!(plain.events, seen.events, "{algo}");
        assert!(!plain.obs.enabled(), "disabled sink must leave no report");
        assert!(seen.obs.enabled());

        // The mirrored counters must agree with the run's own totals.
        let reg = &seen.obs.registry;
        assert_eq!(reg.counter_by_name("des.events_popped"), Some(seen.events));
        assert_eq!(
            reg.counter_by_name("sim.queries_issued"),
            Some(seen.queries_issued)
        );
        assert_eq!(
            reg.counter_by_name("sim.answers_received"),
            Some(seen.answers_received)
        );
        let planned = reg.counter_by_name("radio.tx_planned").unwrap_or(0);
        assert!(planned > 0, "{algo}: broadcasts must have been planned");

        // The hot-path instruments each have a single feeding site, so
        // they reconcile exactly with the run's own totals.
        let dispatched: u64 = ["deliver", "node_timer", "join", "sub"]
            .iter()
            .map(|class| {
                reg.counter_by_name(&format!("des.dispatch.{class}"))
                    .unwrap_or_else(|| panic!("{algo}: des.dispatch.{class} missing"))
            })
            .sum();
        assert_eq!(dispatched, seen.events, "{algo}: dispatch classes");
        let hist = |name: &str| {
            reg.hists()
                .find(|(n, _)| *n == name)
                .map(|(_, h)| h.clone())
                .unwrap_or_else(|| panic!("{algo}: {name} missing"))
        };
        assert_eq!(
            hist("radio.broadcast_fanout").sum(),
            planned,
            "{algo}: every planned reception is in the fan-out histogram"
        );
        let delivered: u64 = MsgKind::ALL.iter().map(|&k| seen.counters.total(k)).sum();
        assert_eq!(
            hist("sim.deliver_hops").count(),
            delivered,
            "{algo}: one hop observation per counted delivery"
        );
    }
}

#[test]
fn traced_runs_are_bit_identical_to_untraced() {
    for algo in AlgoKind::ALL {
        let s = Scenario::quick(20, algo, 200);
        let plain = World::new(s.clone(), 23).run();
        let mut st = s.clone();
        st.trace_capacity = 1 << 16;
        let traced = World::new(st, 23).run();

        assert_eq!(plain.fingerprint(), traced.fingerprint(), "{algo}");
        assert_eq!(plain.events, traced.events, "{algo}");
        assert_eq!(plain.queries_issued, traced.queries_issued, "{algo}");
        assert_eq!(plain.answers_received, traced.answers_received, "{algo}");
        assert!(traced.trace.offered() > 0, "{algo}: trace stayed empty");
        assert_eq!(plain.trace.offered(), 0, "{algo}: untraced run recorded");
    }
}

#[test]
fn merged_obs_reports_are_thread_count_invariant() {
    let s = observed(Scenario::quick(15, AlgoKind::Regular, 120));
    let serial = run_replications(&s, 4, 5, 1);
    let parallel = run_replications(&s, 4, 5, 4);
    let a = aggregate(&serial, s.catalog.n_files as usize).obs;
    let b = aggregate(&parallel, s.catalog.n_files as usize).obs;

    assert_eq!(a.runs, 4);
    assert_eq!(a.runs, b.runs);
    // Spans are wall-clock timings and legitimately differ between runs;
    // everything else in the merged report must be identical.
    assert_eq!(
        a.registry, b.registry,
        "merged registries must not depend on threads"
    );
    assert_eq!(
        a.recorder, b.recorder,
        "merged recorders must not depend on threads"
    );
}

#[test]
fn failure_dumps_are_parseable_jsonl() {
    let dir = scratch_dir("failure");
    let s = observed(Scenario::quick(20, AlgoKind::Regular, 120));
    let mut r = World::new(s.clone(), 18).run();
    r.answers_received += 1_000_000;
    let violations = check_result_dumping(&s, &r, &dir);
    assert!(violations.iter().any(|m| m.contains("answer conservation")));

    let path = dir.join("failure_check_result.jsonl");
    let text = std::fs::read_to_string(&path).expect("dump written");
    let mut types = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let v = Value::parse(line).unwrap_or_else(|e| panic!("line {i} unparseable: {e}"));
        types.push(
            v.get("type")
                .and_then(|t| t.as_str())
                .expect("typed line")
                .to_string(),
        );
    }
    assert_eq!(types.first().map(String::as_str), Some("failure"));
    assert!(types.iter().any(|t| t == "counter"), "{types:?}");
    assert!(types.iter().any(|t| t == "obs_report"), "{types:?}");

    let header = Value::parse(text.lines().next().unwrap()).unwrap();
    let dumped = header
        .get("violations")
        .and_then(|v| v.as_arr())
        .expect("violations array");
    assert_eq!(dumped.len(), violations.len());
    // Past its failure line the dump is the run's report, exactly.
    let (_, body) = text.split_once('\n').expect("a report follows the header");
    assert_eq!(
        ObsReport::from_jsonl(body).expect("the dumped report reads back"),
        r.obs
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_checked_clean_run_matches_plain_run() {
    let dir = scratch_dir("clean");
    let s = observed(Scenario::quick(20, AlgoKind::Regular, 200));
    let plain = World::new(s.clone(), 21).run();
    let (checked, violations) = World::new(s, 21).run_checked(&dir);

    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(plain.fingerprint(), checked.fingerprint());
    assert!(!dir.exists(), "clean runs must not leave dumps behind");
}
