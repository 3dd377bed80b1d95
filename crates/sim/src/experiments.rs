//! The paper's experiments, one function per figure.
//!
//! Every figure in §7.4 comes from the same run matrix: each of the four
//! algorithms simulated under Table 2's scenario at a given node count.
//! [`run_matrix`] executes that matrix once and the `fig_*` renderers
//! extract each figure's series, so regenerating all figures costs four
//! simulations per node count, exactly like the paper's campaign.

use std::collections::BTreeMap;

use manet_des::SimDuration;
use p2p_core::AlgoKind;

use crate::runner::{aggregate, run_replications, Aggregate};
use crate::scenario::Scenario;

/// Experiment-level knobs (scale vs. fidelity).
#[derive(Clone, Copy, Debug)]
pub struct ExperimentCfg {
    /// Total ad-hoc nodes (the paper: 50 or 150).
    pub n_nodes: usize,
    /// Simulated seconds (the paper: 3600).
    pub duration_secs: u64,
    /// Replications per cell (the paper: 33).
    pub reps: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Force the observability sink (metrics registry, spans, flight
    /// recorder) on for every replication. The sink is on by default at
    /// the scenario level, so this only matters for configs derived from
    /// an opted-out scenario. Never changes results.
    pub obs: bool,
    /// Enable causal query tracing on every replication (sets
    /// [`Scenario::trace_capacity`]). Never changes results.
    pub trace: bool,
}

/// Trace-ring capacity used when [`ExperimentCfg::trace`] is set: large
/// enough that short instrumented runs retain every event.
pub const TRACE_CAPACITY: usize = 1 << 18;

impl ExperimentCfg {
    /// The paper's full campaign for a node count (33 reps, 3600 s). On a
    /// laptop this takes a while at 150 nodes; `default_scale` trades
    /// replications for wall-clock.
    pub fn paper_scale(n_nodes: usize) -> Self {
        ExperimentCfg {
            n_nodes,
            duration_secs: 3600,
            reps: 33,
            seed: 0x1DDF_2003,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            obs: false,
            trace: false,
        }
    }

    /// A single-machine default preserving the figures' shapes: full
    /// duration at 50 nodes with 5 reps; 900 s at 150 nodes with 2 reps
    /// (the sorted per-node curves stabilize well before that).
    pub fn default_scale(n_nodes: usize) -> Self {
        let (duration_secs, reps) = if n_nodes <= 50 { (3600, 5) } else { (900, 2) };
        ExperimentCfg {
            n_nodes,
            duration_secs,
            reps,
            seed: 0x1DDF_2003,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            obs: false,
            trace: false,
        }
    }

    /// The scenario this experiment runs for a given algorithm.
    pub fn scenario(&self, algo: AlgoKind) -> Scenario {
        let mut s = Scenario::paper(self.n_nodes, algo);
        s.duration = SimDuration::from_secs(self.duration_secs);
        if self.obs {
            s.obs = manet_obs::ObsConfig::enabled();
        }
        if self.trace {
            s.trace_capacity = TRACE_CAPACITY;
        }
        s
    }
}

/// Run all four algorithms under one experiment configuration.
pub fn run_matrix(cfg: &ExperimentCfg) -> BTreeMap<&'static str, Aggregate> {
    run_matrix_traced(cfg, None)
}

/// [`run_matrix`], optionally exporting one causal-trace artifact per
/// replication into `trace_out` (named `<algo>_rep<k>.trace.json`).
/// Requires [`ExperimentCfg::trace`] for the artifacts to be non-trivial.
pub fn run_matrix_traced(
    cfg: &ExperimentCfg,
    trace_out: Option<&std::path::Path>,
) -> BTreeMap<&'static str, Aggregate> {
    let mut out = BTreeMap::new();
    for algo in AlgoKind::ALL {
        let scenario = cfg.scenario(algo);
        let results = run_replications(&scenario, cfg.reps, cfg.seed, cfg.threads);
        if let Some(dir) = trace_out {
            let paths = crate::runner::write_trace_artifacts(dir, algo.name(), &results)
                .expect("write trace artifacts");
            for p in paths {
                eprintln!("# trace artifact: {}", p.display());
            }
        }
        out.insert(
            algo.name(),
            aggregate(&results, scenario.catalog.n_files as usize),
        );
    }
    out
}

/// Render a TSV block: header + one row per x value, one column per
/// algorithm, in the paper's presentation order.
fn render_columns(
    title: &str,
    x_label: &str,
    matrix: &BTreeMap<&'static str, Vec<f64>>,
    precision: usize,
) -> String {
    let order = ["Basic", "Regular", "Random", "Hybrid"];
    let mut s = format!("# {title}\n{x_label}");
    for name in order {
        if matrix.contains_key(name) {
            s.push('\t');
            s.push_str(name);
        }
    }
    s.push('\n');
    let rows = matrix.values().map(|v| v.len()).max().unwrap_or(0);
    for i in 0..rows {
        s.push_str(&format!("{}", i + 1));
        for name in order {
            if let Some(col) = matrix.get(name) {
                let v = col.get(i).copied().unwrap_or(0.0);
                s.push_str(&format!("\t{v:.precision$}"));
            }
        }
        s.push('\n');
    }
    s
}

/// Figs 5/6: per-file average minimum distance and answers per request.
pub fn fig_distance_answers(matrix: &BTreeMap<&'static str, Aggregate>, n_nodes: usize) -> String {
    let mut dist = BTreeMap::new();
    let mut answers = BTreeMap::new();
    for (&name, agg) in matrix {
        let series = agg.files.series(10);
        dist.insert(name, series.iter().map(|&(_, d, _)| d).collect::<Vec<_>>());
        answers.insert(name, series.iter().map(|&(_, _, a)| a).collect::<Vec<_>>());
    }
    format!(
        "{}\n{}",
        render_columns(
            &format!(
                "Fig {}a: average minimum distance to the file ({n_nodes} nodes, 75% p2p)",
                if n_nodes <= 50 { 5 } else { 6 }
            ),
            "file",
            &dist,
            3,
        ),
        render_columns(
            &format!(
                "Fig {}b: average number of answers per request ({n_nodes} nodes, 75% p2p)",
                if n_nodes <= 50 { 5 } else { 6 }
            ),
            "file",
            &answers,
            3,
        )
    )
}

/// Figs 7/8: connect messages received per node, decreasingly ordered.
pub fn fig_connects(matrix: &BTreeMap<&'static str, Aggregate>, n_nodes: usize) -> String {
    let cols: BTreeMap<&'static str, Vec<f64>> = matrix
        .iter()
        .map(|(&k, a)| (k, a.connects_sorted.clone()))
        .collect();
    render_columns(
        &format!(
            "Fig {}: connect messages received ({n_nodes} nodes, 75% p2p)",
            if n_nodes <= 50 { 7 } else { 8 }
        ),
        "node_rank",
        &cols,
        2,
    )
}

/// Figs 9/10: ping messages received per node, decreasingly ordered.
pub fn fig_pings(matrix: &BTreeMap<&'static str, Aggregate>, n_nodes: usize) -> String {
    let cols: BTreeMap<&'static str, Vec<f64>> = matrix
        .iter()
        .map(|(&k, a)| (k, a.pings_sorted.clone()))
        .collect();
    render_columns(
        &format!(
            "Fig {}: ping messages received ({n_nodes} nodes, 75% p2p)",
            if n_nodes <= 50 { 9 } else { 10 }
        ),
        "node_rank",
        &cols,
        2,
    )
}

/// Figs 11/12: query messages received per node, decreasingly ordered.
pub fn fig_queries(matrix: &BTreeMap<&'static str, Aggregate>, n_nodes: usize) -> String {
    let cols: BTreeMap<&'static str, Vec<f64>> = matrix
        .iter()
        .map(|(&k, a)| (k, a.queries_sorted.clone()))
        .collect();
    render_columns(
        &format!(
            "Fig {}: query messages received ({n_nodes} nodes, 75% p2p)",
            if n_nodes <= 50 { 11 } else { 12 }
        ),
        "node_rank",
        &cols,
        2,
    )
}

/// A compact scalar summary table across algorithms (not a paper figure;
/// used by the shape checks in EXPERIMENTS.md).
pub fn summary_table(matrix: &BTreeMap<&'static str, Aggregate>) -> String {
    let order = ["Basic", "Regular", "Random", "Hybrid"];
    let mut s = String::from(
        "algorithm\treps\tqueries\tanswers\tavg_conns\tframes_sent\tavg_energy_mJ\tmasters\tslaves\n",
    );
    for name in order {
        if let Some(a) = matrix.get(name) {
            s.push_str(&format!(
                "{name}\t{}\t{:.1}\t{:.1}\t{:.2}\t{:.0}\t{:.1}\t{}\t{}\n",
                a.reps,
                a.queries_issued.mean,
                a.answers.mean,
                a.avg_connections.mean,
                a.frames_sent.mean,
                a.energy_mj.mean,
                a.roles[3],
                a.roles[4],
            ));
        }
    }
    s
}

/// Usage text for the experiment binaries (printed by `--help`).
pub const USAGE: &str = "\
options:
  --nodes N       total ad-hoc nodes (default 50; the paper uses 50 or 150)
  --paper         paper-scale campaign (33 reps, 3600 s)
  --duration S    simulated seconds per replication
  --reps R        replications per cell
  --seed X        experiment seed (u64)
  --threads T     worker threads
  --obs-out DIR   write one JSONL observability report per cell into DIR
                  (counters, histograms, time series, span profile,
                  flight-recorder records; the sink itself is always on
                  unless the scenario says `obs off`)
  --trace-out DIR enable causal query tracing and write one Perfetto-loadable
                  trace artifact per replication into DIR
                  (<cell>_rep<k>.trace.json; inspect with trace_query)
  --help          print this text";

/// Parse `--flag value` style arguments shared by the experiment binaries.
///
/// `--help` prints [`USAGE`] and exits. `--obs-out DIR` is a binary-level
/// flag: binaries that support it strip it (see [`take_obs_out`]) before
/// calling this, and it is rejected here otherwise.
pub fn cfg_from_args(args: &[String]) -> ExperimentCfg {
    let mut n_nodes = 50usize;
    let mut cfg_kind = "default";
    let mut duration = None;
    let mut reps = None;
    let mut seed = None;
    let mut threads = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--nodes" => {
                n_nodes = args[i + 1].parse().expect("--nodes takes an integer");
                i += 2;
            }
            "--paper" => {
                cfg_kind = "paper";
                i += 1;
            }
            "--duration" => {
                duration = Some(args[i + 1].parse().expect("--duration seconds"));
                i += 2;
            }
            "--reps" => {
                reps = Some(args[i + 1].parse().expect("--reps count"));
                i += 2;
            }
            "--seed" => {
                seed = Some(args[i + 1].parse().expect("--seed u64"));
                i += 2;
            }
            "--threads" => {
                threads = Some(args[i + 1].parse().expect("--threads count"));
                i += 2;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => panic!("unknown argument {other}\n{USAGE}"),
        }
    }
    let mut cfg = if cfg_kind == "paper" {
        ExperimentCfg::paper_scale(n_nodes)
    } else {
        ExperimentCfg::default_scale(n_nodes)
    };
    if let Some(d) = duration {
        cfg.duration_secs = d;
    }
    if let Some(r) = reps {
        cfg.reps = r;
    }
    if let Some(s) = seed {
        cfg.seed = s;
    }
    if let Some(t) = threads {
        cfg.threads = t;
    }
    cfg
}

/// Strip a `--obs-out DIR` pair from `args`, returning the directory when
/// present. Binaries call this before [`cfg_from_args`] and set
/// [`ExperimentCfg::obs`] from the result.
pub fn take_obs_out(args: &mut Vec<String>) -> Option<std::path::PathBuf> {
    let i = args.iter().position(|a| a == "--obs-out")?;
    assert!(i + 1 < args.len(), "--obs-out takes a directory");
    let dir = args.remove(i + 1);
    args.remove(i);
    Some(std::path::PathBuf::from(dir))
}

/// Strip a `--trace-out DIR` pair from `args`, returning the directory
/// when present. Binaries call this before [`cfg_from_args`] and set
/// [`ExperimentCfg::trace`] from the result.
pub fn take_trace_out(args: &mut Vec<String>) -> Option<std::path::PathBuf> {
    let i = args.iter().position(|a| a == "--trace-out")?;
    assert!(i + 1 < args.len(), "--trace-out takes a directory");
    let dir = args.remove(i + 1);
    args.remove(i);
    Some(std::path::PathBuf::from(dir))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExperimentCfg {
        ExperimentCfg {
            n_nodes: 12,
            duration_secs: 60,
            reps: 1,
            seed: 3,
            threads: 1,
            obs: false,
            trace: false,
        }
    }

    #[test]
    fn matrix_covers_all_algorithms() {
        let m = run_matrix(&tiny_cfg());
        for name in ["Basic", "Regular", "Random", "Hybrid"] {
            assert!(m.contains_key(name));
        }
    }

    #[test]
    fn figures_render_tsv() {
        let m = run_matrix(&tiny_cfg());
        let s = fig_connects(&m, 12);
        assert!(s.contains("Basic\tRegular\tRandom\tHybrid"));
        assert!(s.lines().count() > 5, "one row per member");
        let d = fig_distance_answers(&m, 12);
        assert!(d.contains("average minimum distance"));
        assert!(d.contains("answers per request"));
        let q = fig_queries(&m, 12);
        assert!(q.starts_with("# Fig 11"));
        let p = fig_pings(&m, 12);
        assert!(p.starts_with("# Fig 9"));
        let t = summary_table(&m);
        assert_eq!(t.lines().count(), 5);
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--nodes", "150", "--reps", "7", "--duration", "300"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let cfg = cfg_from_args(&args);
        assert_eq!(cfg.n_nodes, 150);
        assert_eq!(cfg.reps, 7);
        assert_eq!(cfg.duration_secs, 300);
    }

    #[test]
    fn obs_out_is_stripped_before_cfg_parsing() {
        let mut args: Vec<String> = ["--nodes", "30", "--obs-out", "/tmp/obs", "--reps", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let dir = take_obs_out(&mut args);
        assert_eq!(dir.as_deref(), Some(std::path::Path::new("/tmp/obs")));
        let cfg = cfg_from_args(&args);
        assert_eq!(cfg.n_nodes, 30);
        assert_eq!(cfg.reps, 2);
        assert!(take_obs_out(&mut args).is_none(), "already stripped");
    }

    #[test]
    fn paper_scale_matches_table_2() {
        let cfg = ExperimentCfg::paper_scale(50);
        assert_eq!(cfg.reps, 33);
        assert_eq!(cfg.duration_secs, 3600);
    }
}
