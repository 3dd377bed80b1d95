//! Observability perf gates: the disabled sink must be free, the enabled
//! sink nearly so, and per-event cost must not grow with the world.
//!
//! Two gates over the hot-path scenario (200 nodes, 900 simulated
//! seconds, Regular algorithm, calendar scheduler), plus a scale rung:
//!
//! 1. **Disabled sink** — events/sec with the sink off must stay within
//!    [`TOL`] (1%) of the checked-in
//!    `micro/sim_hot_path/calendar/...` baseline, machine-speed
//!    normalized (below).
//! 2. **Obs tax** — events/sec with the sink *on* must stay within
//!    [`OBS_TOL`] (3%) of the disabled run measured in
//!    the same interleaved pair. This is the gate that lets observability
//!    default to on: a counter bump is one indexed add on a pre-resolved
//!    registry id, span timing is stride-sampled, trace capture is
//!    reservoir-sampled.
//! 3. **Scale rung** — once a pair passes, a 2,000-node world at Table 2
//!    density (632 m side, sink on, 120 simulated seconds) must reach at
//!    least [`SCALE_MIN_RATIO`] of that pair's enabled-sink events/sec.
//!    Both sides of the ratio are measured in this invocation, so host
//!    speed cancels. Per-event work that grows with the node count (an
//!    O(n) pass per query, say) shows here and nowhere else: the 200-node
//!    gates cannot see it. The ratio is not 1 on a healthy build: the
//!    2,000-node side is a start-up run at about 2.8 receptions per
//!    broadcast, the 200-node side a steady state at about 8.8, and work
//!    saved per reception speeds the 200-node side more.
//!
//! Shared CI machines drift far more than these tolerances between the
//! moment a baseline was recorded and the moment the gate runs, so raw
//! baselines are rescaled by a machine-speed factor measured *now*: the
//! ratio of the checked-in `sim_hot_path/calendar_obs/...` record to a
//! contemporaneous enabled-sink run. The enabled run shares the disabled
//! run's memory and instruction profile — ambient contention, frequency
//! scaling and thermal throttle slow both alike and cancel — but it
//! already pays for instrumentation, so cost leaking into the *disabled*
//! path slows only the gated run and is caught. The factor is capped at
//! 1.0 so a fast moment never raises the floor above the nominal
//! baseline. Measurements interleave enabled/disabled pairs and the gate
//! exits early once an iteration clears every floor: a transient stall
//! costs extra iterations, a real regression fails them all. The obs-tax
//! gate needs no normalization at all — both sides of its ratio are
//! measured back to back in the same pair.
//!
//! The gate also cross-checks determinism for free: the enabled and
//! disabled runs must produce identical event counts and fingerprints
//! and match the baseline record's event count (workload drift guard),
//! and the scale rung must reproduce [`SCALE_EVENTS`].
//!
//! The pair's shape ([`HOT_NODES`], [`HOT_SECS`]) and the attempt cap
//! ([`ITERS`]) are constants like the tolerances: `BENCH_RESULTS.json`
//! holds baselines for that shape only, and more attempts would widen
//! the gate. The one knob is `BENCH_JSON`, the results file.

use std::process::ExitCode;
use std::time::Instant;

use bench::{bench_scenario, json::Value, record_eps, run_result};
use manet_des::SchedulerKind;
use manet_sim::{RunResult, Scenario};
use p2p_core::AlgoKind;

/// The disabled sink's tolerance below its machine-normalized baseline.
/// A constant, not a knob: a tolerance read from the environment could
/// silently widen the CI gate.
const TOL: f64 = 0.01;

/// The obs-tax budget: how far the enabled sink may fall below the
/// disabled run of the same pair.
const OBS_TOL: f64 = 0.03;

/// The measurement pair's world: the `micro` bench's hot-path shape,
/// whose baselines `BENCH_RESULTS.json` holds.
const HOT_NODES: usize = 200;
const HOT_SECS: u64 = 900;

/// Measurement pairs, and scale attempts, before the gate fails (early
/// exit on pass).
const ITERS: u64 = 4;

/// Scale-rung world: node count, square side (Table 2 density, 200 m² per
/// node) and simulated seconds.
const SCALE_NODES: usize = 2_000;
const SCALE_SIDE_M: f64 = 632.0;
const SCALE_SECS: u64 = 120;

/// Floor on the scale rung's events/sec over the passing pair's
/// enabled-sink events/sec. Set between two measured distributions on a
/// 2-vCPU Xeon VM: 0.364–0.512 on a healthy build (10 invocations), and
/// 0.132–0.201 with the distance oracle swapped back to a full-graph BFS
/// per completed query, the O(n) cost this rung was built to catch
/// (3 invocations, 12 attempts; 0.17–0.25 when that oracle was current).
const SCALE_MIN_RATIO: f64 = 0.30;

/// The scale rung's event count at seed 7 (workload drift guard).
const SCALE_EVENTS: u64 = 775_171;

/// The gate scenario: the bench shape with the sink pinned on or off.
fn gate_scenario(nodes: usize, secs: u64, observed: bool) -> Scenario {
    let mut scenario = bench_scenario(nodes, AlgoKind::Regular, secs);
    if observed {
        scenario.obs = manet_obs::ObsConfig::enabled();
    }
    assert_eq!(
        scenario.obs.enabled, observed,
        "bench scenarios pin the sink state explicitly"
    );
    scenario
}

/// One timed run at seed 7; returns (events/sec, result).
fn timed_run(scenario: Scenario) -> (f64, RunResult) {
    let t0 = Instant::now();
    let r = run_result(scenario, 7, SchedulerKind::Calendar);
    let eps = r.events as f64 / t0.elapsed().as_secs_f64();
    (eps, r)
}

/// Gate the scale rung against `pair_eps_obs`, the passing pair's
/// enabled-sink events/sec.
fn gate_scale(pair_eps_obs: f64, iters: u64) -> bool {
    for i in 0..iters {
        let mut scenario = gate_scenario(SCALE_NODES, SCALE_SECS, true);
        scenario.area_side = SCALE_SIDE_M;
        let (eps, r) = timed_run(scenario);
        if r.events != SCALE_EVENTS {
            eprintln!(
                "perf_gate: scale rung drift — run produced {} events, pinned \
                 {SCALE_EVENTS}; re-pin SCALE_EVENTS before gating",
                r.events
            );
            return false;
        }
        let ratio = eps / pair_eps_obs;
        println!(
            "perf_gate: scale rung {SCALE_NODES}n_{SCALE_SECS}s attempt {}/{iters}: \
             {eps:.0} events/sec, {ratio:.3} of the pair's enabled run (floor \
             {SCALE_MIN_RATIO})",
            i + 1,
        );
        if ratio >= SCALE_MIN_RATIO {
            println!("perf_gate: OK — per-event cost holds at {SCALE_NODES} nodes");
            return true;
        }
        eprintln!(
            "perf_gate: scale attempt {}/{iters} below floor, retrying",
            i + 1
        );
    }
    eprintln!(
        "perf_gate: FAIL — every scale attempt fell below {SCALE_MIN_RATIO} of the \
         pair's enabled rate; some per-event cost grows with the node count"
    );
    false
}

fn main() -> ExitCode {
    let (nodes, secs, iters) = (HOT_NODES, HOT_SECS, ITERS);
    let path = std::env::var("BENCH_JSON").unwrap_or_else(|_| "BENCH_RESULTS.json".into());
    let shape = format!("{nodes}n_{secs}s_regular");
    let disabled_name = format!("sim_hot_path/calendar/{shape}");
    let enabled_name = format!("sim_hot_path/calendar_obs/{shape}");

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perf_gate: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match Value::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perf_gate: {path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some((base_eps, base_events)) = record_eps(&doc, "micro", &disabled_name) else {
        eprintln!("perf_gate: no micro/{disabled_name} record in {path}; run the micro bench");
        return ExitCode::FAILURE;
    };
    let Some((calib_eps, _)) = record_eps(&doc, "micro", &enabled_name) else {
        eprintln!("perf_gate: no micro/{enabled_name} record in {path}; run the micro bench");
        return ExitCode::FAILURE;
    };

    let mut passed_eps_obs = None;
    for i in 0..iters {
        let (eps_obs, r_obs) = timed_run(gate_scenario(nodes, secs, true));
        let (eps, r) = timed_run(gate_scenario(nodes, secs, false));
        if r.fingerprint() != r_obs.fingerprint() || r.events != r_obs.events {
            eprintln!(
                "perf_gate: FAIL — enabling the sink changed the run \
                 ({} vs {} events)",
                r_obs.events, r.events
            );
            return ExitCode::FAILURE;
        }
        if base_events != 0 && r.events != base_events {
            eprintln!(
                "perf_gate: workload drift — run produced {} events but the baseline \
                 record has {base_events}; refresh the micro bench records before gating",
                r.events
            );
            return ExitCode::FAILURE;
        }
        // The machine right now vs the machine that recorded the baseline,
        // measured on the leak-insensitive enabled-sink workload.
        let speed = (eps_obs / calib_eps).min(1.0);
        let floor = base_eps * speed * (1.0 - TOL);
        // The obs tax needs no normalization: both sides of the ratio were
        // measured back to back in this pair.
        let obs_floor = eps * (1.0 - OBS_TOL);
        println!(
            "perf_gate: pair {}/{iters}: disabled {eps:.0} events/sec, enabled \
             {eps_obs:.0} (speed factor {speed:.3}, disabled floor {floor:.0} at tol \
             {TOL}, obs floor {obs_floor:.0} at tol {OBS_TOL})",
            i + 1,
        );
        if eps >= floor && eps_obs >= obs_floor {
            println!(
                "perf_gate: OK — disabled sink at {:+.2}% of the speed-adjusted \
                 baseline, obs tax {:.2}%",
                (eps / (base_eps * speed) - 1.0) * 100.0,
                (1.0 - eps_obs / eps) * 100.0
            );
            passed_eps_obs = Some(eps_obs);
            break;
        }
        if eps < floor {
            eprintln!(
                "perf_gate: pair {}/{iters} disabled run below floor, retrying",
                i + 1
            );
        } else {
            eprintln!(
                "perf_gate: pair {}/{iters} obs tax {:.2}% above {OBS_TOL} budget, retrying",
                i + 1,
                (1.0 - eps_obs / eps) * 100.0
            );
        }
    }
    let Some(pair_eps_obs) = passed_eps_obs else {
        eprintln!(
            "perf_gate: FAIL — all {iters} measurement pairs fell below a floor; \
             observability is no longer within its tax budget"
        );
        return ExitCode::FAILURE;
    };
    if gate_scale(pair_eps_obs, iters) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
