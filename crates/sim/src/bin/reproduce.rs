//! Regenerate every table and figure of the paper in one command.
//!
//! ```text
//! reproduce [--nodes 50|150] [--paper] [--reps R] [--duration S] \
//!           [--seed X] [--threads T] [--obs-out DIR] [--trace-out DIR] \
//!           [--table1] [--table2]
//! reproduce --scenario FILE.scn [--reps R] [--seed X] [--threads T] \
//!           [--obs-out DIR] [--trace-out DIR]
//! ```
//!
//! `--scenario FILE` runs one declarative scenario file instead of the
//! paper matrix: replications and seed default to the file's `expect`
//! line (when present), the measured aggregates are printed, and — when
//! the file pins expectations — verified, exiting non-zero on drift.
//!
//! Without `--table1`/`--table2` it runs the full matrix for the chosen
//! node count and prints Figs 5/6a+b, 7/8, 9/10 and 11/12 as TSV blocks.
//! With `--obs-out DIR` the runs carry the observability sink and each
//! algorithm's merged report lands in `DIR/<algo>.jsonl`. With
//! `--trace-out DIR` the runs carry causal query tracing and each
//! replication's Perfetto-loadable artifact lands in
//! `DIR/<algo>_rep<k>.trace.json`.

use manet_sim::experiments::{
    cfg_from_args, fig_connects, fig_distance_answers, fig_pings, fig_queries, flag,
    run_matrix_traced, summary_table, take_dir, usage_error,
};
use manet_sim::{parse_scn, render_expect, runner, Scenario};
use p2p_core::AlgoKind;

/// Run one `.scn` file: simulate at the pinned (or overridden) reps and
/// seed, print the aggregate summary, and verify any `expect` line. With
/// `--obs-out DIR` the replication-merged observability report lands in
/// `DIR/<name>.jsonl`; with `--trace-out DIR`, one causal artifact per
/// replication lands in `DIR/<name>_rep<k>.trace.json`.
fn run_scenario_file(
    path: &str,
    args: &[String],
    obs_out: Option<&std::path::Path>,
    trace_out: Option<&std::path::Path>,
) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: {e}");
            return 2;
        }
    };
    let file = match parse_scn(&text) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{path}: {e}");
            return 1;
        }
    };
    let reps = flag(args, "--reps", "a count")
        .or(file.expect.map(|e| e.reps))
        .unwrap_or(2);
    let seed = flag(args, "--seed", "a u64")
        .or(file.expect.map(|e| e.seed))
        .unwrap_or(7);
    let threads = flag(args, "--threads", "a count").unwrap_or_else(|| reps.min(4));
    eprintln!(
        "# scenario {}: {} nodes, {} adversaries, {} reps, seed {seed:#x}",
        file.name,
        file.scenario.n_nodes,
        file.scenario.adversaries.len(),
        reps
    );
    let results = runner::run_replications(&file.scenario, reps, seed, threads);
    let got = manet_sim::expect_of(&results, reps, seed);
    let agg = runner::aggregate(&results, file.scenario.catalog.n_files as usize);
    if let Some(dir) = obs_out {
        if agg.obs.enabled() {
            std::fs::create_dir_all(dir).expect("create obs dir");
            let out = dir.join(format!("{}.jsonl", file.name));
            agg.obs.write_jsonl(&out).expect("write obs report");
            eprintln!("# obs report: {}", out.display());
        } else {
            eprintln!("# --obs-out ignored: the scenario opts out (obs off)");
        }
    }
    if let Some(dir) = trace_out {
        let paths = runner::write_trace_artifacts(dir, &file.name, &results)
            .expect("write trace artifacts");
        for p in paths {
            eprintln!("# trace artifact: {}", p.display());
        }
    }
    println!("measured {}", render_expect(&got));
    println!(
        "queries/rep {:.1}  answers/rep {:.1}  avg_conns {:.2}  frames/rep {:.0}  energy_mJ {:.1}",
        agg.queries_issued.mean,
        agg.answers.mean,
        agg.avg_connections.mean,
        agg.frames_sent.mean,
        agg.energy_mj.mean
    );
    match file.expect {
        // Pins only bind at their own replication count and seed.
        Some(want) if (want.reps, want.seed) == (reps, seed) && got != want => {
            eprintln!(
                "{}: aggregate drift\n  pinned   {}\n  measured {}",
                file.name,
                render_expect(&want),
                render_expect(&got)
            );
            1
        }
        Some(want) if (want.reps, want.seed) == (reps, seed) => {
            println!("pinned aggregates reproduced exactly");
            0
        }
        _ => 0,
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let obs_out = take_dir(&mut args, "--obs-out");
    let trace_out = take_dir(&mut args, "--trace-out");
    if let Some(i) = args.iter().position(|a| a == "--scenario") {
        let path = args
            .get(i + 1)
            .cloned()
            .unwrap_or_else(|| usage_error("--scenario takes a .scn file"));
        args.drain(i..i + 2);
        std::process::exit(run_scenario_file(
            &path,
            &args,
            obs_out.as_deref(),
            trace_out.as_deref(),
        ));
    }
    if args.iter().any(|a| a == "--table1") {
        println!("Table 1: topologies and their characteristics\n");
        print!("{}", p2p_core::topology::render_table_1());
        return;
    }
    if args.iter().any(|a| a == "--table2") {
        let nodes = flag(&args, "--nodes", "an integer").unwrap_or(50);
        println!("Table 2: parameters used and their typical values\n");
        print!(
            "{}",
            Scenario::paper(nodes, AlgoKind::Regular).render_table_2()
        );
        return;
    }
    let mut cfg = cfg_from_args(&args);
    cfg.obs = obs_out.is_some();
    cfg.trace = trace_out.is_some();
    eprintln!(
        "# running matrix: {} nodes, {} s, {} reps, seed {:#x}, {} threads",
        cfg.n_nodes, cfg.duration_secs, cfg.reps, cfg.seed, cfg.threads
    );
    let matrix = run_matrix_traced(&cfg, trace_out.as_deref());
    if let Some(dir) = &obs_out {
        for (name, agg) in &matrix {
            let path = dir.join(format!("{name}.jsonl"));
            agg.obs.write_jsonl(&path).expect("write obs report");
            eprintln!("# obs report: {}", path.display());
        }
    }
    println!("{}", fig_distance_answers(&matrix, cfg.n_nodes));
    println!("{}", fig_connects(&matrix, cfg.n_nodes));
    println!("{}", fig_pings(&matrix, cfg.n_nodes));
    println!("{}", fig_queries(&matrix, cfg.n_nodes));
    println!("# scalar summary");
    print!("{}", summary_table(&matrix));
}
