//! The simulator benchmark: three workloads driven through `manet-sim`'s
//! public `World` API, end-to-end metrics from untraced runs, per-layer
//! metrics from a separate traced run. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! `--trace 0` runs replications of the workload round-robin over the
//! world seeds derived from `--seed`, each world in a child process of its
//! own, for about `--seconds`, and reports the end-to-end metrics.
//! `--trace 1` runs the first world seed once with the sink off and once
//! with it on (the untraced baselines), then once more inside the
//! benchmark's own spans, and reports the per-layer metrics; the spans go
//! to `DIR/trace-<workload>-seed<N>.json`. Every world run is checked: the
//! simulator's invariants and conservation laws, determinism against the
//! other runs of the same world, and, at [`PINNED_SEED`], the fingerprints
//! and event counts pinned below. The last line of standard output is one
//! JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use manet_des::{EventQueue, NodeId, Rng, SchedulerKind, SimDuration, SimTime};
use manet_geom::{Point, SpatialGrid};
use manet_radio::{LinkFaults, Medium, TxScratch};
use manet_sim::{
    check_result, Adversary, AdversaryRole, ChurnCfg, FaultPlan, ObsConfig, PacketLoss, RunResult,
    Scenario, World,
};
use p2p_core::AlgoKind;
use perfbench::{median, supported, tally, Ledger, Log2Hist, Outcome, Ratio, Tracer};

/// The seed the fingerprint and event-count pins hold for.
const PINNED_SEED: u64 = 7;

/// `(workload, leg, fingerprint, events)` at [`PINNED_SEED`].
const PINS: &[(&str, &str, u64, u64)] = &[
    ("paper_dense_200", "regular", 0xdb4d8834fb07e6a5, 7_102_815),
    ("city_2000", "regular", 0x396b948eebea033e, 4_275_506),
    ("hostile_mix_150", "basic", 0x7add7540d448d6f8, 5_572_654),
    ("hostile_mix_150", "regular", 0x65bce22acce6aee4, 3_101_067),
    ("hostile_mix_150", "random", 0x2009d3a28c793ab1, 3_479_468),
    ("hostile_mix_150", "hybrid", 0x4668200dcfc1df12, 2_236_724),
];

/// Violations the simulator is known to raise at the pinned seed and
/// others; they are counted and reported, not treated as benchmark
/// failures. Any other violation fails the world run.
const KNOWN_VIOLATIONS: &[&str] = &["routing-table entry for itself", "overlay symmetry:"];

/// Setup-only `try_new` calls per end-to-end world run, before the build
/// that runs.
const SETUP_BUILDS: usize = 8;

/// Distance between the world seeds one run derives from `--seed`.
const SEED_STRIDE: u64 = 1_000;

/// Simulated seconds between connectivity/BFS probes in the traced run.
const PROBE_PERIOD_S: f64 = 30.0;

/// BFS sources per probe.
const PROBE_SOURCES: usize = 4;

/// Hold operations (pop + reschedule) in the scheduler replay.
const QUEUE_OPS: u64 = 2_000_000;

/// `plan_broadcast` calls in the radio replay.
const RADIO_OPS: u64 = 1_000_000;

/// Percentiles of the per-`step` histogram, parts per million.
const STEP_PERCENTILES: [(&str, u64); 3] =
    [("p50", 500_000), ("p99", 990_000), ("p99_99", 999_900)];

/// One world of a workload.
struct Leg {
    label: &'static str,
    scenario: Scenario,
}

/// A named set of worlds run one after another.
struct Workload {
    name: &'static str,
    legs: Vec<Leg>,
    /// World seeds per end-to-end run; see [`world_seeds`].
    seeds_per_run: usize,
}

/// The perf-gate shape: Table 2 defaults (Random Waypoint at 1 m/s, the
/// 10 m radio) with a 5 s join window.
fn paper_shape(n: usize, algo: AlgoKind, secs: u64) -> Scenario {
    let mut s = Scenario::quick(n, algo, secs);
    s.join_window = SimDuration::from_secs(5);
    s
}

fn workload(name: &str) -> Option<Workload> {
    let (name, legs, seeds_per_run) = match name {
        "paper_dense_200" => {
            let mut s = paper_shape(200, AlgoKind::Regular, 300);
            s.obs = ObsConfig::disabled();
            (
                "paper_dense_200",
                vec![Leg {
                    label: "regular",
                    scenario: s,
                }],
                6,
            )
        }
        "city_2000" => {
            let mut s = paper_shape(2000, AlgoKind::Regular, 300);
            // Table 2 density, 200 m^2 per node.
            s.area_side = 632.0;
            (
                "city_2000",
                vec![Leg {
                    label: "regular",
                    scenario: s,
                }],
                3,
            )
        }
        "hostile_mix_150" => {
            let legs = AlgoKind::ALL
                .iter()
                .zip(["basic", "regular", "random", "hybrid"])
                .map(|(&algo, label)| {
                    let mut s = Scenario::quick(150, algo, 600);
                    s.churn = Some(ChurnCfg {
                        mean_uptime: 60.0,
                        mean_downtime: 30.0,
                    });
                    s.faults = FaultPlan {
                        loss: Some(PacketLoss {
                            base: 0.03,
                            burst: None,
                        }),
                        ..FaultPlan::default()
                    };
                    s.adversaries = vec![
                        Adversary {
                            node: NodeId(19),
                            role: AdversaryRole::BlackHole,
                        },
                        Adversary {
                            node: NodeId(4),
                            role: AdversaryRole::Selfish,
                        },
                    ];
                    Leg { label, scenario: s }
                })
                .collect();
            ("hostile_mix_150", legs, 4)
        }
        _ => return None,
    };
    Some(Workload {
        name,
        legs,
        seeds_per_run,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    /// Internal: run only this leg at `seed`, as the child process of an
    /// end-to-end run.
    world_leg: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: PINNED_SEED,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".bench_build/perfbench"),
        world_leg: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            "--world-leg" => args.world_leg = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Queries with at least one answer.
fn answered(r: &RunResult) -> u64 {
    (0..r.file_metrics.len())
        .map(|i| r.file_metrics.file(i).answered)
        .sum()
}

/// Queries that ran to completion (each one consulted the distance oracle).
fn completed(r: &RunResult) -> u64 {
    (0..r.file_metrics.len())
        .map(|i| r.file_metrics.file(i).requests)
        .sum()
}

/// The checks one world run must pass by itself: the simulator's
/// invariants and conservation laws (known violations aside), the pins at
/// [`PINNED_SEED`], and a workload that issued and answered queries.
/// Returns the problems found and the number of known violations seen.
fn check_world(
    w: &Workload,
    leg: &Leg,
    seed: u64,
    r: &RunResult,
    violations: &[String],
) -> (Vec<String>, usize) {
    let mut problems: Vec<String> = violations
        .iter()
        .filter(|v| !KNOWN_VIOLATIONS.iter().any(|k| v.contains(k)))
        .cloned()
        .collect();
    let known = violations.len() - problems.len();
    let fp = r.fingerprint();
    if seed == PINNED_SEED {
        match PINS.iter().find(|p| p.0 == w.name && p.1 == leg.label) {
            Some(&(_, _, pin_fp, pin_events)) => {
                if fp != pin_fp || r.events != pin_events {
                    problems.push(format!(
                        "pin: fingerprint {fp:016x} / {} events, pinned {pin_fp:016x} / {pin_events}",
                        r.events
                    ));
                }
            }
            None => problems.push(format!("no pin for {}/{}", w.name, leg.label)),
        }
    }
    if r.queries_issued == 0 || answered(r) == 0 {
        problems.push(format!(
            "workload: {} queries issued, {} answered",
            r.queries_issued,
            answered(r)
        ));
    }
    (problems, known)
}

/// Determinism: every run of one world (workload, leg, seed) must
/// reproduce the fingerprint of its first run.
fn check_repeat(reference: &mut Option<u64>, fp: u64) -> Option<String> {
    match *reference {
        None => {
            *reference = Some(fp);
            None
        }
        Some(first) if first != fp => Some(format!(
            "determinism: fingerprint {fp:016x} differs from the first run's {first:016x}"
        )),
        Some(_) => None,
    }
}

fn report_problems(w: &Workload, leg: &Leg, problems: &[String]) {
    for p in problems {
        eprintln!("perfbench: {}/{}: {p}", w.name, leg.label);
    }
}

fn outcome(r: &RunResult, problems: &[String]) -> Outcome {
    Outcome {
        issued: r.queries_issued,
        answered: answered(r),
        correct: problems.is_empty(),
    }
}

/// Peak resident memory of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `(name, value, unit)` rows of one report.
type Metrics = Vec<(String, f64, &'static str)>;

/// What one end-to-end world run reports back to the parent process.
#[derive(Clone, Copy, Debug, Default)]
struct WorldRun {
    fingerprint: u64,
    events: u64,
    frames: u64,
    energy_mj: f64,
    issued: u64,
    answered: u64,
    /// Median of the world's [`SETUP_BUILDS`] + 1 `try_new` timings.
    setup_s: f64,
    /// `run_checked`: first `step` until `finish` returns, plus the checks.
    run_s: f64,
    rss_mb: f64,
    problems: usize,
    known: usize,
}

const WORLD_RUN_TAG: &str = "world-run";

impl WorldRun {
    fn render(&self) -> String {
        format!(
            "{WORLD_RUN_TAG} {:016x} {} {} {:?} {} {} {:?} {:?} {:?} {} {}",
            self.fingerprint,
            self.events,
            self.frames,
            self.energy_mj,
            self.issued,
            self.answered,
            self.setup_s,
            self.run_s,
            self.rss_mb,
            self.problems,
            self.known
        )
    }

    fn parse(line: &str) -> Option<WorldRun> {
        let mut f = line.strip_prefix(WORLD_RUN_TAG)?.split_whitespace();
        let mut next = || f.next();
        let run = WorldRun {
            fingerprint: u64::from_str_radix(next()?, 16).ok()?,
            events: next()?.parse().ok()?,
            frames: next()?.parse().ok()?,
            energy_mj: next()?.parse().ok()?,
            issued: next()?.parse().ok()?,
            answered: next()?.parse().ok()?,
            setup_s: next()?.parse().ok()?,
            run_s: next()?.parse().ok()?,
            rss_mb: next()?.parse().ok()?,
            problems: next()?.parse().ok()?,
            known: next()?.parse().ok()?,
        };
        next().is_none().then_some(run)
    }
}

/// The child side of an end-to-end world run: build the world
/// [`SETUP_BUILDS`] + 1 times, run the last build through
/// [`World::run_checked`], check it, and report.
fn world_child(w: &Workload, leg: &Leg, seed: u64, dump: &Path) -> WorldRun {
    let mut setup = Vec::with_capacity(SETUP_BUILDS + 1);
    for _ in 0..SETUP_BUILDS {
        let t0 = Instant::now();
        let world = build(leg.scenario.clone(), seed);
        setup.push(t0.elapsed().as_secs_f64());
        drop(black_box(world));
    }
    let t0 = Instant::now();
    let world = build(leg.scenario.clone(), seed);
    let t1 = Instant::now();
    let (r, violations) = world.run_checked(dump);
    let run_s = t1.elapsed().as_secs_f64();
    setup.push((t1 - t0).as_secs_f64());
    let (problems, known) = check_world(w, leg, seed, &r, &violations);
    report_problems(w, leg, &problems);
    WorldRun {
        fingerprint: r.fingerprint(),
        events: r.events,
        frames: r.phy_total.frames_sent,
        energy_mj: r.energy_mj.iter().sum(),
        issued: r.queries_issued,
        answered: answered(&r),
        setup_s: median(&setup),
        run_s,
        rss_mb: peak_rss_mb().unwrap_or(f64::NAN),
        problems: problems.len(),
        known,
    }
}

/// Run one world in a child process of this executable and collect its
/// report.
fn spawn_world(w: &Workload, leg: usize, seed: u64, args: &Args) -> Result<WorldRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name, "--world-leg", &leg.to_string()])
        .args(["--seed", &seed.to_string()])
        .arg("--out")
        .arg(&args.out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a world run: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), text.lines().find_map(WorldRun::parse)) {
        (true, Some(run)) => Ok(run),
        _ => Err(format!(
            "world run {}/{} seed {seed} failed ({})",
            w.name, w.legs[leg].label, out.status
        )),
    }
}

/// A host-speed probe owned by the benchmark and independent of the
/// simulator: a dependent pointer chase through one random cycle over
/// 16 MB, then a dependent integer hash chain.
///
/// On a shared 2-vCPU Xeon VM, other tenants contending for caches and
/// memory slowed everything by up to 1.5x for minutes at a time.
/// End-to-end timings are therefore rescaled by [`HOST_REF_S`] over the
/// probe's time, measured by the parent between world runs: slow phases
/// move the reported figures much less, while a change to the simulator
/// moves them in full. The raw seconds are printed next to the rescaled
/// ones.
struct HostProbe {
    next: Vec<u32>,
}

/// Probe time on a quiet 2-vCPU Xeon VM, seconds: rescaled timings read
/// as seconds on that host.
const HOST_REF_S: f64 = 0.17;

impl HostProbe {
    fn new() -> Self {
        let n = 4 << 20;
        let mut order: Vec<u32> = (0..n as u32).collect();
        Rng::new(0x5eed_0004).shuffle(&mut order);
        let mut next = vec![0u32; n];
        for (i, &at) in order.iter().enumerate() {
            next[at as usize] = order[(i + 1) % n];
        }
        HostProbe { next }
    }

    /// Seconds for one pass.
    fn time(&self) -> f64 {
        let t0 = Instant::now();
        let mut at = 0u32;
        for _ in 0..1_000_000 {
            at = self.next[at as usize];
        }
        let mut h = u64::from(at);
        for _ in 0..15_000_000u64 {
            h = (h ^ (h >> 31)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        black_box(h);
        t0.elapsed().as_secs_f64()
    }
}

/// The world seeds a run derives from `--seed`: the seed itself first, so
/// the pins hold at `--seed 7`, then [`SEED_STRIDE`] apart.
fn world_seeds(seed: u64, k: usize) -> Vec<u64> {
    (0..k as u64)
        .map(|i| seed.wrapping_add(i * SEED_STRIDE))
        .collect()
}

/// The end-to-end run: cycle through the workload's world seeds, one
/// replication (every leg, each in its own process) per seed, until the
/// run is as close to `seconds` long as whole replications allow, after
/// at least one full round.
///
/// A replication's `run_s` and `setup_s` sum its legs' and are rescaled by
/// the [`HostProbe`] timed around it; its peak memory is the largest of
/// its legs'. Per seed, the medians over its replications are kept, and
/// `run_s`, `setup_s` and `peak_rss_mb` report the mean of those medians
/// over the seeds: host noise is filtered per world and the seed-to-seed
/// spread of the simulated work is averaged out. `events_per_s` is the
/// seeds' events over their median `run_s`. The cost-per-answer figures
/// sum the first round, since repetitions of a seed reproduce it exactly.
fn run_end_to_end(w: &Workload, args: &Args) -> (Metrics, Vec<Outcome>, Vec<String>) {
    let seeds = world_seeds(args.seed, w.seeds_per_run);
    let mut references = vec![vec![None; w.legs.len()]; seeds.len()];
    let mut reps: Vec<Vec<WorldRun>> = vec![Vec::new(); seeds.len()];
    let mut wall = vec![0.0; seeds.len()];
    let (mut outcomes, mut failures) = (Vec::new(), Vec::new());
    let (mut frames, mut energy_mj, mut answers) = (0u64, 0f64, 0u64);
    let probe = HostProbe::new();
    let mut probe_before = probe.time();
    let start = Instant::now();
    'rounds: for round in 0.. {
        for (k, &seed) in seeds.iter().enumerate() {
            // After the first round, start a replication only if it ends
            // nearer to the target length than stopping now would.
            if round > 0 && start.elapsed().as_secs_f64() + wall[k] / 2.0 > args.seconds {
                break 'rounds;
            }
            let rep_start = Instant::now();
            let mut rep = WorldRun::default();
            for (i, leg) in w.legs.iter().enumerate() {
                let run = match spawn_world(w, i, seed, args) {
                    Ok(run) => run,
                    Err(e) => {
                        failures.push(e);
                        outcomes.push(Outcome {
                            issued: 0,
                            answered: 0,
                            correct: false,
                        });
                        continue;
                    }
                };
                let repeat = check_repeat(&mut references[k][i], run.fingerprint);
                if let Some(p) = &repeat {
                    report_problems(w, leg, std::slice::from_ref(p));
                }
                println!(
                    "round {round} seed {seed} {}: fingerprint {:016x}, {} events, \
                     setup {:.6} s, run {:.4} s, {:.1} MB, {} known violations",
                    leg.label,
                    run.fingerprint,
                    run.events,
                    run.setup_s,
                    run.run_s,
                    run.rss_mb,
                    run.known
                );
                outcomes.push(Outcome {
                    issued: run.issued,
                    answered: run.answered,
                    correct: run.problems == 0 && repeat.is_none(),
                });
                if round == 0 {
                    frames += run.frames;
                    energy_mj += run.energy_mj;
                    answers += run.answered;
                }
                rep.setup_s += run.setup_s;
                rep.run_s += run.run_s;
                rep.events += run.events;
                rep.rss_mb = rep.rss_mb.max(run.rss_mb);
            }
            let probe_after = probe.time();
            let scale = HOST_REF_S / ((probe_before + probe_after) / 2.0);
            probe_before = probe_after;
            println!(
                "round {round} seed {seed}: run {:.4} s, setup {:.6} s, host scale {scale:.4}",
                rep.run_s, rep.setup_s
            );
            rep.run_s *= scale;
            rep.setup_s *= scale;
            reps[k].push(rep);
            wall[k] = rep_start.elapsed().as_secs_f64();
        }
    }
    let per_seed = |f: fn(&WorldRun) -> f64| -> Vec<f64> {
        reps.iter()
            .map(|r| median(&r.iter().map(f).collect::<Vec<_>>()))
            .collect()
    };
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    let run_s = per_seed(|r| r.run_s);
    let events: u64 = reps.iter().map(|r| r[0].events).sum();
    let per_answer = |x: f64| Ratio::of(x, answers as f64).value().unwrap_or(f64::NAN);
    let metrics = vec![
        ("setup_s".into(), mean(per_seed(|r| r.setup_s)), "s"),
        ("run_s".into(), mean(run_s.clone()), "s"),
        (
            "events_per_s".into(),
            events as f64 / run_s.iter().sum::<f64>(),
            "events/s",
        ),
        ("peak_rss_mb".into(), mean(per_seed(|r| r.rss_mb)), "MB"),
        (
            "frames_per_answer".into(),
            per_answer(frames as f64),
            "frames/answer",
        ),
        ("mj_per_answer".into(), per_answer(energy_mj), "mJ/answer"),
    ];
    (metrics, outcomes, failures)
}

fn build(scenario: Scenario, seed: u64) -> World {
    World::try_new(scenario, seed).unwrap_or_else(|e| panic!("workload scenario rejected: {e}"))
}

/// Time one checked run without the benchmark's tracing, as the
/// end-to-end `run_s` is timed.
fn timed_checked(scenario: Scenario, seed: u64, dump: &Path) -> (RunResult, Vec<String>, f64) {
    let world = build(scenario, seed);
    let t0 = Instant::now();
    let (r, violations) = world.run_checked(dump);
    (r, violations, t0.elapsed().as_secs_f64())
}

/// Registry counter by name, 0 when the sink did not register it.
fn counter(r: &RunResult, name: &str) -> u64 {
    r.obs.registry.counter_by_name(name).unwrap_or(0)
}

/// Ops-per-call timing of the calendar scheduler at `depth` live events,
/// each rescheduled on pop with a gap drawn around `mean_gap_s`.
fn replay_queue(depth: usize, mean_gap_s: f64, seed: u64) -> f64 {
    let mut rng = Rng::new(seed ^ 0x5eed_0001);
    let gaps: Vec<SimDuration> = (0..4096)
        .map(|_| SimDuration::from_secs_f64(rng.exponential(mean_gap_s)))
        .collect();
    let mut q = EventQueue::with_scheduler(SchedulerKind::Calendar);
    for i in 0..depth.max(1) {
        q.schedule(SimTime::ZERO + gaps[i % gaps.len()], i as u32);
    }
    let t0 = Instant::now();
    for i in 0..QUEUE_OPS {
        let (now, e) = q.pop().expect("hold model keeps the queue at depth");
        q.schedule(now + gaps[i as usize % gaps.len()], black_box(e));
    }
    t0.elapsed().as_nanos() as f64 / QUEUE_OPS as f64
}

/// Ns per `Medium::plan_broadcast` call on a grid of `scenario.n_nodes`
/// uniformly placed nodes over the scenario's area.
fn replay_radio(scenario: &Scenario, seed: u64) -> f64 {
    let mut rng = Rng::new(seed ^ 0x5eed_0002);
    let area = scenario.area();
    let mut grid = SpatialGrid::new(area, scenario.radio.range_m);
    let positions: Vec<Point> = (0..scenario.n_nodes)
        .map(|_| {
            Point::new(
                rng.range_f64(area.x0, area.x1),
                rng.range_f64(area.y0, area.y1),
            )
        })
        .collect();
    for (i, &p) in positions.iter().enumerate() {
        grid.upsert(i as u32, p);
    }
    let medium = Medium::new(scenario.radio);
    let mut scratch = TxScratch::default();
    let t0 = Instant::now();
    for i in 0..RADIO_OPS {
        let id = (i % positions.len() as u64) as usize;
        medium.plan_broadcast(
            &grid,
            NodeId(id as u32),
            positions[id],
            64,
            &mut rng,
            LinkFaults::NONE,
            &mut scratch,
        );
        black_box(scratch.receptions.len());
    }
    t0.elapsed().as_nanos() as f64 / RADIO_OPS as f64
}

/// Counters summed over a workload's worlds, in report order.
#[derive(Default)]
struct Counts(Vec<(&'static str, u64)>);

impl Counts {
    fn add(&mut self, name: &'static str, v: u64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += v,
            None => self.0.push((name, v)),
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v as f64)
    }

    /// Add every per-layer count of one finished world.
    fn add_run(&mut self, r: &RunResult) {
        use manet_metrics::MsgKind;
        let fanout = r
            .obs
            .registry
            .hists()
            .find(|(name, _)| *name == "radio.broadcast_fanout")
            .map_or(0, |(_, h)| h.count());
        for (name, v) in [
            ("des.events", r.events),
            ("des.events_scheduled", counter(r, "des.events_scheduled")),
            ("radio.frames_sent", r.phy_total.frames_sent),
            ("radio.frames_received", r.phy_total.frames_received),
            ("radio.broadcasts", fanout),
            ("radio.rx_planned", counter(r, "radio.tx_planned")),
            ("radio.rx_lost", counter(r, "radio.tx_lost")),
            ("radio.link_breaks", r.phy_total.link_breaks),
            ("aodv.rreqs_originated", counter(r, "aodv.rreqs_originated")),
            ("aodv.rreq_dup_dropped", counter(r, "aodv.rreq_dup_dropped")),
            (
                "aodv.flood_dup_dropped",
                counter(r, "aodv.flood_dup_dropped"),
            ),
            ("overlay.connect_msgs", r.counters.total(MsgKind::Connect)),
            ("overlay.ping_msgs", r.counters.total(MsgKind::Ping)),
            ("overlay.conns_established", r.conns_established),
            ("overlay.conns_closed", r.conns_closed),
            ("query.issued", r.queries_issued),
            ("query.completed", completed(r)),
            ("query.answered", answered(r)),
            ("query.msgs", r.counters.total(MsgKind::Query)),
            ("query.hit_msgs", r.counters.total(MsgKind::QueryHit)),
            ("metrics.oracle_calls", completed(r)),
        ] {
            self.add(name, v);
        }
    }

    /// The count-based half of the ledger; the timings are filled in by
    /// the caller.
    fn ledger(&self) -> Ledger {
        Ledger {
            events_popped: self.get("des.events"),
            events_scheduled: self.get("des.events_scheduled"),
            rx_planned: self.get("radio.rx_planned"),
            rx_lost: self.get("radio.rx_lost"),
            broadcasts: self.get("radio.broadcasts"),
            frames_received: self.get("radio.frames_received"),
            aodv_dups: self.get("aodv.rreq_dup_dropped") + self.get("aodv.flood_dup_dropped"),
            conns_established: self.get("overlay.conns_established"),
            conns_closed: self.get("overlay.conns_closed"),
            issued: self.get("query.issued"),
            answered: self.get("query.answered"),
            ..Ledger::default()
        }
    }
}

/// Where one traced world spent its time, and what it measured on the side.
#[derive(Default)]
struct TracedTimes {
    /// First `step` until `finish` returns, probes excluded.
    run_s: f64,
    finish_s: f64,
    connectivity_ns: Vec<f64>,
    bfs_ns: Vec<f64>,
}

/// One world stepped inside the benchmark's spans: a `sim.step_batch` per
/// simulated second (each `step` also lands in `steps`), the oracle probes
/// and invariant checks every [`PROBE_PERIOD_S`], then `sim.finish`.
/// Returns the result and every violation the checks found.
fn traced_world(
    tracer: &mut Tracer,
    root: usize,
    scenario: &Scenario,
    seed: u64,
    steps: &mut Log2Hist,
    times: &mut TracedTimes,
) -> (RunResult, Vec<String>) {
    let n_members = scenario.n_members() as u64;
    let mut pick = Rng::new(seed ^ 0x5eed_0003);
    let sources: Vec<u32> = (0..PROBE_SOURCES)
        .map(|_| pick.below(n_members) as u32)
        .collect();
    let targets: Vec<u32> = (0..8).map(|_| pick.below(n_members) as u32).collect();

    let s = tracer.open("sim.try_new", Some(root));
    let mut world = build(scenario.clone(), seed);
    tracer.close(s);

    let mut violations = Vec::new();
    let mut side_s = 0.0;
    let run_start = Instant::now();
    let mut t_prev = run_start;
    let mut batch_start = tracer.ns_at(run_start);
    let (mut next_second, mut next_probe) = (1.0, PROBE_PERIOD_S);
    let mut last = SimTime::ZERO;
    while let Some(now) = world.step() {
        let t = Instant::now();
        steps.record((t - t_prev).as_nanos() as u64);
        t_prev = t;
        last = now;
        let secs = now.as_secs_f64();
        if secs < next_second {
            continue;
        }
        let end = tracer.ns_at(t);
        tracer.record("sim.step_batch", Some(root), batch_start, end);
        batch_start = end;
        next_second = secs.floor() + 1.0;
        if secs < next_probe {
            continue;
        }
        while next_probe <= secs {
            next_probe += PROBE_PERIOD_S;
        }
        let p0 = Instant::now();
        let g = world.connectivity_graph();
        let p1 = Instant::now();
        for &src in &sources {
            black_box(g.min_distance_to_any(src, &targets));
        }
        let p2 = Instant::now();
        violations.extend(world.check_invariants(now));
        let p3 = Instant::now();
        for (name, a, b) in [
            ("graph.connectivity", p0, p1),
            ("graph.bfs", p1, p2),
            ("sim.check_invariants", p2, p3),
        ] {
            tracer.record(name, Some(root), tracer.ns_at(a), tracer.ns_at(b));
        }
        times.connectivity_ns.push((p1 - p0).as_nanos() as f64);
        times
            .bfs_ns
            .push((p2 - p1).as_nanos() as f64 / PROBE_SOURCES as f64);
        side_s += (p3 - p0).as_secs_f64();
        t_prev = Instant::now();
        batch_start = tracer.ns_at(t_prev);
    }
    let c0 = Instant::now();
    tracer.record("sim.step_batch", Some(root), batch_start, tracer.ns_at(c0));
    violations.extend(world.check_invariants(last));
    let f0 = Instant::now();
    tracer.record(
        "sim.check_invariants",
        Some(root),
        tracer.ns_at(c0),
        tracer.ns_at(f0),
    );
    let r = world.finish();
    let finished = Instant::now();
    tracer.record(
        "sim.finish",
        Some(root),
        tracer.ns_at(f0),
        tracer.ns_at(finished),
    );
    side_s += (f0 - c0).as_secs_f64();
    times.finish_s += (finished - f0).as_secs_f64();
    times.run_s += (finished - run_start).as_secs_f64() - side_s;
    violations.extend(check_result(scenario, &r));
    (r, violations)
}

/// The traced run: untraced baselines with the sink off and on, then one
/// replication inside the benchmark's spans, then the replays.
fn run_traced(
    w: &Workload,
    args: &Args,
    dump: &Path,
) -> (Metrics, Vec<Outcome>, Vec<String>, Tracer) {
    let seed = args.seed;
    let mut outcomes = Vec::new();
    let mut failures = Vec::new();
    let mut references = vec![None; w.legs.len()];
    let mut settle =
        |leg: &Leg, r: &RunResult, violations: &[String], reference: &mut Option<u64>| {
            let (mut problems, known) = check_world(w, leg, seed, r, violations);
            problems.extend(check_repeat(reference, r.fingerprint()));
            report_problems(w, leg, &problems);
            failures.extend(problems.iter().cloned());
            outcomes.push(outcome(r, &problems));
            known
        };

    // Untraced baselines, back to back per leg, outside the workload span.
    let (mut run_on_s, mut run_off_s, mut obs_spans_s) = (0.0, 0.0, 0.0);
    for (leg, reference) in w.legs.iter().zip(&mut references) {
        for enabled in [false, true] {
            let mut scenario = leg.scenario.clone();
            scenario.obs = if enabled {
                ObsConfig::enabled()
            } else {
                ObsConfig::disabled()
            };
            let (r, violations, secs) = timed_checked(scenario, seed, dump);
            settle(leg, &r, &violations, reference);
            if enabled {
                run_on_s += secs;
                obs_spans_s += r
                    .obs
                    .spans
                    .rows()
                    .filter(|(name, _, _)| matches!(*name, "des.pop" | "sim.dispatch"))
                    .map(|(_, d, _)| d.as_secs_f64())
                    .sum::<f64>();
            } else {
                run_off_s += secs;
            }
        }
    }

    let mut tracer = Tracer::new();
    let root = tracer.open("workload", None);
    let mut steps = Log2Hist::default();
    let mut times = TracedTimes::default();
    let mut counts = Counts::default();
    let (mut peak_depth, mut avg_connections, mut sim_secs) = (0usize, 0.0, 0.0);
    for (leg, reference) in w.legs.iter().zip(&mut references) {
        let mut scenario = leg.scenario.clone();
        scenario.obs = ObsConfig::enabled();
        let (r, violations) =
            traced_world(&mut tracer, root, &scenario, seed, &mut steps, &mut times);
        let known = settle(leg, &r, &violations, reference);
        counts.add("sim.known_violations", known as u64);
        counts.add_run(&r);
        peak_depth = peak_depth.max(r.peak_queue_depth);
        avg_connections += r.avg_connections / w.legs.len() as f64;
        sim_secs += scenario.duration.as_secs_f64();
    }

    // Replays at the workload's own scale, still inside the workload span.
    let s = tracer.open("replay.des_queue", Some(root));
    let mean_gap_s = peak_depth as f64 * sim_secs / counts.get("des.events").max(1.0);
    let schedule_pop_ns = replay_queue(peak_depth, mean_gap_s, seed);
    tracer.close(s);
    let s = tracer.open("replay.radio_plan", Some(root));
    let plan_broadcast_ns = replay_radio(&w.legs[0].scenario, seed);
    tracer.close(s);
    tracer.close(root);

    let conn_ns = median(&times.connectivity_ns);
    let bfs_ns = median(&times.bfs_ns);
    let ledger = Ledger {
        oracle_est_s: counts.get("metrics.oracle_calls") * (conn_ns + bfs_ns) / 1e9,
        run_on_s,
        run_off_s,
        obs_spans_s,
        traced_s: times.run_s,
        ..counts.ledger()
    };

    let mut m: Metrics = Vec::new();
    let n_steps = steps.count();
    for (label, ppm) in STEP_PERCENTILES {
        if !supported(n_steps, ppm) {
            failures.push(format!(
                "{n_steps} steps cannot support sim.step_ns.{label}"
            ));
        }
        let v = steps.quantile(ppm).unwrap_or(f64::NAN);
        m.push((format!("sim.step_ns.{label}"), v, "ns"));
    }
    counts.add("sim.steps", n_steps);
    counts.add("des.peak_queue_depth", peak_depth as u64);
    m.extend(
        counts
            .0
            .iter()
            .filter(|(n, _)| !matches!(*n, "radio.broadcasts" | "radio.rx_lost"))
            .map(|&(n, v)| (n.to_string(), v as f64, "count")),
    );
    for (name, v, unit) in [
        ("overlay.avg_connections", avg_connections, "count"),
        ("sim.finish_s", times.finish_s, "s"),
        ("des.schedule_pop_ns", schedule_pop_ns, "ns"),
        ("radio.plan_broadcast_ns", plan_broadcast_ns, "ns"),
        ("graph.connectivity_ns", conn_ns, "ns"),
        ("graph.bfs_ns", bfs_ns, "ns"),
        ("metrics.oracle_est_s", ledger.oracle_est_s, "s"),
        ("obs.run_s_sink_on", run_on_s, "s"),
        ("obs.run_s_sink_off", run_off_s, "s"),
        ("trace.wall_s", times.run_s, "s"),
    ] {
        m.push((name.to_string(), v, unit));
    }
    let coverage = tracer.coverage(root);
    for (name, ratio) in ledger
        .ratios()
        .into_iter()
        .chain([("trace.coverage", coverage)])
    {
        let v = ratio.value().unwrap_or_else(|| {
            failures.push(format!("{name}: zero base"));
            f64::NAN
        });
        m.push((name.to_string(), v, "ratio"));
    }
    (m, outcomes, failures, tracer)
}

/// `nproc`, CPU model, toolchain and source revision of this run.
fn host_json(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \"seed\": {seed}}}",
        json_str(&cpu),
        json_str(&env("PERFBENCH_RUSTC")),
        json_str(&env("PERFBENCH_COMMIT"))
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (paper_dense_200, city_2000, hostile_mix_150)",
            args.workload
        );
        return ExitCode::from(2);
    };
    let dump = args.out.join("dumps");
    if let Err(e) = std::fs::create_dir_all(&dump) {
        eprintln!("perfbench: cannot create {}: {e}", dump.display());
        return ExitCode::FAILURE;
    }
    if let Some(leg) = args.world_leg {
        let Some(leg) = w.legs.get(leg) else {
            eprintln!("perfbench: {} has no leg {leg}", w.name);
            return ExitCode::from(2);
        };
        println!("{}", world_child(&w, leg, args.seed, &dump).render());
        return ExitCode::SUCCESS;
    }
    let host = host_json(args.seed);
    println!("# host {host}");

    let (metrics, outcomes, mut failures) = if args.trace {
        let (m, o, f, tracer) = run_traced(&w, &args, &dump);
        let path = args
            .out
            .join(format!("trace-{}-seed{}.json", w.name, args.seed));
        let doc = format!("{{\"host\": {host},\n\"trace\": {}}}\n", tracer.to_json());
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("# spans written to {}", path.display());
        (m, o, f)
    } else {
        run_end_to_end(&w, &args)
    };
    for (name, v, _) in &metrics {
        if !v.is_finite() {
            failures.push(format!("metric {name} is not a finite number"));
        }
    }
    let t = tally(&outcomes);
    let correct = failures.is_empty() && outcomes.iter().all(|o| o.correct);
    for f in &failures {
        eprintln!("perfbench: {}: {f}", w.name);
    }

    let rows: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            // Rust's shortest round-trip form keeps every digit.
            let v = if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".into()
            };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    for (name, v, unit) in &metrics {
        println!("{name:<28} {v:>18.6} {unit}");
    }
    println!(
        "# record {{\"workload\": {}, \"trace\": {}, \"host\": {host}, \"worlds\": {}, \
         \"queries_unanswered\": {}}}",
        json_str(w.name),
        args.trace,
        outcomes.len(),
        t.unanswered
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted.max(1),
        t.failed,
        rows.join(", ")
    );
    ExitCode::SUCCESS
}
