//! Parameter sweeps (paper §8 future work): node density, radio coverage,
//! mobility speed, mobility model, and churn — the axes the authors name
//! for future study — plus matrix runs over a scenario-file corpus.
//!
//! ```text
//! sweep --axis density|coverage|speed|mobility|churn [--duration S] [--reps R] \
//!       [--obs-out DIR] [--trace-out DIR] ...
//! sweep --corpus DIR [--check-only] [--cheapest K]
//! ```
//!
//! With `--obs-out DIR` every cell's merged observability report is written
//! to `DIR/<axis>_<value>_<algo>.jsonl`. With `--trace-out DIR` every
//! replication's causal-trace artifact is written to
//! `DIR/<axis>_<value>_<algo>_rep<k>.trace.json`.
//!
//! `--corpus DIR` runs every `.scn` scenario file in `DIR` as a matrix and
//! verifies each file's pinned `expect` aggregates, exiting non-zero on
//! any parse error or mismatch. `--check-only` stops after parsing and
//! validating (no simulation); `--cheapest K` keeps only the K cheapest
//! scenarios by estimated cost (`nodes × seconds × reps`).

use manet_des::SimDuration;
use manet_sim::experiments::{cfg_from_args, flag, take_dir, usage_error, TRACE_CAPACITY};
use manet_sim::{render_expect, runner, ChurnCfg, MobilityKind, Scenario, ScnFile};
use p2p_core::AlgoKind;

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = raw.iter().position(|a| a == "--corpus") {
        let dir = raw
            .get(i + 1)
            .cloned()
            .unwrap_or_else(|| usage_error("--corpus takes a directory"));
        let check_only = raw.iter().any(|a| a == "--check-only");
        let cheapest = flag(&raw, "--cheapest", "a count");
        std::process::exit(run_corpus(&dir, check_only, cheapest));
    }
    let obs_out = take_dir(&mut raw, "--obs-out");
    let trace_out = take_dir(&mut raw, "--trace-out");
    let axis: String = flag(&raw, "--axis", "an axis name").unwrap_or_else(|| "density".into());
    let rest: Vec<String> = {
        let mut v = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            if raw[i] == "--axis" {
                i += 2;
            } else {
                v.push(raw[i].clone());
                i += 1;
            }
        }
        v
    };
    let mut cfg = cfg_from_args(&rest);
    cfg.obs = obs_out.is_some();
    cfg.trace = trace_out.is_some();
    if !rest.iter().any(|a| a == "--duration") {
        cfg.duration_secs = 600; // sweeps trade duration for breadth
    }
    println!("axis\tvalue\talgorithm\tqueries\tanswers\tavg_conns\tframes\tavg_energy_mJ");
    let algos = [AlgoKind::Basic, AlgoKind::Regular];
    match axis.as_str() {
        "density" => {
            for n in [25usize, 50, 75, 100] {
                for algo in algos {
                    let mut s = Scenario::paper(n, algo);
                    s.duration = SimDuration::from_secs(cfg.duration_secs);
                    report(
                        "density",
                        n as f64,
                        algo,
                        &s,
                        &cfg,
                        obs_out.as_deref(),
                        trace_out.as_deref(),
                    );
                }
            }
        }
        "coverage" => {
            for range in [5.0f64, 10.0, 15.0, 20.0] {
                for algo in algos {
                    let mut s = Scenario::paper(cfg.n_nodes, algo);
                    s.radio.range_m = range;
                    s.duration = SimDuration::from_secs(cfg.duration_secs);
                    report(
                        "coverage",
                        range,
                        algo,
                        &s,
                        &cfg,
                        obs_out.as_deref(),
                        trace_out.as_deref(),
                    );
                }
            }
        }
        "speed" => {
            for speed in [0.5f64, 1.0, 2.0, 5.0] {
                for algo in algos {
                    let mut s = Scenario::paper(cfg.n_nodes, algo);
                    s.mobility = MobilityKind::Waypoint {
                        max_speed: speed,
                        max_pause: 100.0,
                    };
                    s.duration = SimDuration::from_secs(cfg.duration_secs);
                    report(
                        "speed",
                        speed,
                        algo,
                        &s,
                        &cfg,
                        obs_out.as_deref(),
                        trace_out.as_deref(),
                    );
                }
            }
        }
        "mobility" => {
            let models: [(&str, MobilityKind); 4] = [
                (
                    "waypoint",
                    MobilityKind::Waypoint {
                        max_speed: 1.0,
                        max_pause: 100.0,
                    },
                ),
                ("walk", MobilityKind::Walk { max_speed: 1.0 }),
                ("gauss_markov", MobilityKind::GaussMarkov),
                (
                    "rpgm_groups",
                    MobilityKind::Groups {
                        n_groups: 8,
                        max_speed: 1.0,
                        group_radius: 10.0,
                    },
                ),
            ];
            for (ix, (name, model)) in models.into_iter().enumerate() {
                for algo in algos {
                    let mut s = Scenario::paper(cfg.n_nodes, algo);
                    s.mobility = model;
                    s.duration = SimDuration::from_secs(cfg.duration_secs);
                    report(
                        name,
                        ix as f64,
                        algo,
                        &s,
                        &cfg,
                        obs_out.as_deref(),
                        trace_out.as_deref(),
                    );
                }
            }
        }
        "churn" => {
            for mean_uptime in [600.0f64, 300.0, 120.0] {
                for algo in algos {
                    let mut s = Scenario::paper(cfg.n_nodes, algo);
                    s.churn = Some(ChurnCfg {
                        mean_uptime,
                        mean_downtime: 60.0,
                    });
                    s.duration = SimDuration::from_secs(cfg.duration_secs);
                    report(
                        "churn_uptime",
                        mean_uptime,
                        algo,
                        &s,
                        &cfg,
                        obs_out.as_deref(),
                        trace_out.as_deref(),
                    );
                }
            }
        }
        other => usage_error(&format!(
            "unknown axis {other}: density|coverage|speed|mobility|churn"
        )),
    }
}

/// Estimated cost of one corpus cell: nodes × simulated seconds × reps.
fn cost(file: &ScnFile) -> u64 {
    let reps = file.expect.map_or(2, |e| e.reps) as u64;
    let secs = file.scenario.duration.ticks() / manet_des::TICKS_PER_SECOND;
    file.scenario.n_nodes as u64 * secs * reps
}

/// Run (or just validate) every `.scn` file in `dir`; the process exit
/// code: 0 all good, 1 parse/validation error or aggregate mismatch.
fn run_corpus(dir: &str, check_only: bool, cheapest: Option<usize>) -> i32 {
    let mut paths: Vec<std::path::PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "scn"))
            .collect(),
        Err(e) => {
            eprintln!("--corpus {dir}: {e}");
            return 2;
        }
    };
    paths.sort();
    let mut failed = false;
    let mut files = Vec::new();
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{}: {e}", path.display());
                failed = true;
                continue;
            }
        };
        match manet_sim::parse_scn(&text) {
            Ok(f) => files.push(f),
            Err(e) => {
                eprintln!("{}: {e}", path.display());
                failed = true;
            }
        }
    }
    if let Some(k) = cheapest {
        files.sort_by_key(|f| (cost(f), f.name.clone()));
        files.truncate(k);
    }
    println!("scenario\tnodes\talgo\tduration_s\tadversaries\treps\tstatus");
    for file in &files {
        let s = &file.scenario;
        let reps = file.expect.map_or(2, |e| e.reps);
        let status = if check_only {
            "valid".to_string()
        } else {
            let seed = file.expect.map_or(7, |e| e.seed);
            let got = runner::measure_corpus(s, reps, seed, reps.min(4));
            match file.expect {
                Some(want) if got != want => {
                    eprintln!(
                        "{}: aggregate mismatch\n  pinned   {}\n  measured {}",
                        file.name,
                        render_expect(&want),
                        render_expect(&got)
                    );
                    failed = true;
                    "MISMATCH".to_string()
                }
                Some(_) => format!("ok fp={:#018x}", got.fingerprint),
                None => format!("unpinned fp={:#018x}", got.fingerprint),
            }
        };
        println!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            file.name,
            s.n_nodes,
            s.algo.name(),
            s.duration.ticks() / manet_des::TICKS_PER_SECOND,
            s.adversaries.len(),
            reps,
            status
        );
    }
    if failed {
        1
    } else {
        0
    }
}

fn report(
    axis: &str,
    value: f64,
    algo: AlgoKind,
    s: &Scenario,
    cfg: &manet_sim::ExperimentCfg,
    obs_out: Option<&std::path::Path>,
    trace_out: Option<&std::path::Path>,
) {
    let mut s = s.clone();
    if cfg.obs {
        s.obs = manet_sim::ObsConfig::enabled();
    }
    if cfg.trace {
        s.trace_capacity = TRACE_CAPACITY;
    }
    let s = &s;
    let results = runner::run_replications(s, cfg.reps.min(3), cfg.seed, cfg.threads);
    let agg = runner::aggregate(&results, s.catalog.n_files as usize);
    if let Some(dir) = obs_out {
        let path = dir.join(format!("{axis}_{value}_{}.jsonl", algo.name()));
        agg.obs.write_jsonl(&path).expect("write obs report");
        eprintln!("# obs report: {}", path.display());
    }
    if let Some(dir) = trace_out {
        let cell = format!("{axis}_{value}_{}", algo.name());
        let paths =
            runner::write_trace_artifacts(dir, &cell, &results).expect("write trace artifacts");
        for p in paths {
            eprintln!("# trace artifact: {}", p.display());
        }
    }
    println!(
        "{axis}\t{value}\t{}\t{:.1}\t{:.1}\t{:.2}\t{:.0}\t{:.1}",
        algo.name(),
        agg.queries_issued.mean,
        agg.answers.mean,
        agg.avg_connections.mean,
        agg.frames_sent.mean,
        agg.energy_mj.mean
    );
}
