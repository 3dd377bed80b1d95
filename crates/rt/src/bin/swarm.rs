//! A multi-process loopback swarm: N OS processes, each hosting one
//! [`p2p_stack::StackMachine`] on its own UDP socket, running a
//! (re)configuration algorithm and the query workload end-to-end over
//! real datagrams.
//!
//! Process model: the parent re-executes itself with `--child` for each
//! node. A child binds `127.0.0.1:0` (the kernel hands out a free port —
//! no coordination, no collisions), advertises the address on stdout as
//! `ADDR <addr>`, and blocks until the parent distributes the full
//! address book on stdin as one `PEERS <addr0> <addr1> …` line. Each
//! child then joins with an id-proportional delay (staggered joins, as
//! the DES's arrival process provides) and runs for the configured wall
//! duration, finishing with a `RESULT key=value…` line the parent
//! aggregates.
//!
//! File placement is deterministic: every child derives the *entire*
//! swarm's Zipf assignment from the shared `--seed` via
//! [`Catalog::assign`] and keeps its own slot, exactly how the DES
//! scenario seeds holdings — no placement traffic needed.
//!
//! With `--obs` the swarm additionally runs the distributed
//! observability pipeline end-to-end. Each child arms the machine's
//! [`p2p_stack::ObsSink`], so the event loop records the same counters,
//! spans and causal traces the DES adapters record; at a wall-clock
//! cadence it ships a small `TELEM <hex>` heartbeat frame (running
//! counters, no trace) on the same stdout the RESULT line uses, and at
//! shutdown one full frame carrying the causal trace. The parent keeps
//! the *last* frame per child (snapshots are running totals), merges the
//! reports with [`manet_obs::ObsReport::merge`] and the traces with
//! `TraceLog::merge_offset` (per-node id namespaces keep span ids
//! disjoint; a frame whose trace claims another namespace is rejected),
//! stitches per-process clocks
//! ([`p2p_stack::stitch_clocks`]), and writes `swarm_report.jsonl` plus
//! a Perfetto-loadable `swarm.trace.json` into `--obs-dir`. A child that
//! panics or errors out dumps its flight recorder as `failure_*.jsonl`
//! into the same directory; the parent surfaces any such dumps in its
//! failure summary. Attempt/retry bookkeeping lands in the merged report
//! as `swarm.attempts` / `swarm.retries` counters.
//!
//! Exit status: `0` iff every child exited cleanly and the swarm
//! answered at least `--min-answered` queries (after bounded
//! `--retries`); with `--obs`, additionally iff the merged counters
//! reconcile with the RESULT lines and at least one causal tree spans
//! two OS processes.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, UdpSocket};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use manet_aodv::AodvCfg;
use manet_des::{NodeId, Rng, SimDuration};
use manet_obs::report::dump_failure;
use manet_obs::{causal, ObsConfig, ObsReport};
use manet_rt::{FaultShim, RtNode};
use manet_sim::FaultPlan;
use p2p_content::{Catalog, QueryCfg, QueryEngine};
use p2p_core::{build_algo, AlgoKind, OverlayParams};
use p2p_stack::{
    decode_telemetry, from_hex, node_id_base, stitch_clocks, ObsSink, StackMachine, TraceLog,
};

/// Per-node join stagger; also the reason short runs still converge.
const JOIN_STAGGER_MS: u64 = 150;

/// Per-child causal-trace capacity (events). The merged log gets
/// `nodes ×` this, so nothing a child retained is evicted by the merge.
const TRACE_CAPACITY: usize = 4096;

/// Wall-clock milliseconds between `TELEM` heartbeat frames.
const TELEM_PERIOD_MS: u64 = 1_000;

struct Opts {
    nodes: u32,
    algo: AlgoKind,
    duration_ms: u64,
    seed: u64,
    min_answered: u64,
    retries: u32,
    obs: bool,
    obs_dir: PathBuf,
    child_id: Option<u32>,
}

fn usage() -> ! {
    eprintln!(
        "usage: swarm [--nodes N] [--algo basic|regular|random|hybrid] \
         [--duration-ms MS] [--seed S] [--min-answered K] [--retries R] \
         [--obs] [--obs-dir DIR]"
    );
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        nodes: 8,
        algo: AlgoKind::Regular,
        duration_ms: 5_000,
        seed: 1,
        min_answered: 1,
        retries: 2,
        obs: false,
        obs_dir: PathBuf::from("target/obs-swarm"),
        child_id: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            match args.get(*i) {
                Some(v) => v.clone(),
                None => usage(),
            }
        };
        match args[i].as_str() {
            "--nodes" => opts.nodes = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--algo" => {
                let name = value(&mut i);
                opts.algo = AlgoKind::ALL
                    .into_iter()
                    .find(|k| k.name().eq_ignore_ascii_case(&name))
                    .unwrap_or_else(|| usage());
            }
            "--duration-ms" => opts.duration_ms = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => opts.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--min-answered" => {
                opts.min_answered = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--retries" => opts.retries = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--obs" => opts.obs = true,
            "--obs-dir" => opts.obs_dir = PathBuf::from(value(&mut i)),
            "--child" => opts.child_id = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            _ => usage(),
        }
        i += 1;
    }
    if opts.nodes < 2 {
        eprintln!("--nodes must be at least 2");
        usage();
    }
    opts
}

/// Overlay timers shrunk from paper scale (tens of seconds) to smoke
/// scale (seconds); ratios preserved.
fn swarm_params() -> OverlayParams {
    OverlayParams {
        timer_initial: SimDuration::from_millis(500),
        max_timer: SimDuration::from_secs(4),
        basic_timer: SimDuration::from_millis(800),
        ping_interval: SimDuration::from_secs(2),
        pong_timeout: SimDuration::from_secs(1),
        handshake_timeout: SimDuration::from_millis(1_500),
        random_response_wait: SimDuration::from_millis(500),
        ..OverlayParams::default()
    }
}

/// Query workload shrunk the same way: think 0.5–1.5 s, 1.5 s windows.
fn swarm_query_cfg() -> QueryCfg {
    QueryCfg {
        think_min: SimDuration::from_millis(500),
        think_max: SimDuration::from_millis(1_500),
        response_wait: SimDuration::from_millis(1_500),
        ..QueryCfg::default()
    }
}

fn child_main(id: u32, opts: &Opts) -> std::io::Result<()> {
    let socket = UdpSocket::bind("127.0.0.1:0")?;
    println!("ADDR {}", socket.local_addr()?);
    std::io::stdout().flush()?;

    let mut line = String::new();
    BufReader::new(std::io::stdin()).read_line(&mut line)?;
    let mut words = line.split_whitespace();
    if words.next() != Some("PEERS") {
        eprintln!("child {id}: expected PEERS line, got {line:?}");
        std::process::exit(3);
    }
    let addrs: Vec<SocketAddr> = words
        .map(|w| w.parse().expect("well-formed peer address"))
        .collect();
    assert_eq!(addrs.len(), opts.nodes as usize, "one address per node");
    let peers: Vec<(NodeId, SocketAddr)> = addrs
        .iter()
        .enumerate()
        .filter(|&(i, _)| i as u32 != id)
        .map(|(i, &a)| (NodeId(i as u32), a))
        .collect();

    // The whole swarm's holdings from the shared seed; keep our slot.
    let catalog = Catalog::default();
    let mut assign_rng = Rng::new(opts.seed).fork(0xF11E5);
    let files = catalog
        .assign(opts.nodes as usize, &mut assign_rng)
        .swap_remove(id as usize);

    let node = NodeId(id);
    let algo = build_algo(
        opts.algo,
        node,
        swarm_params(),
        0,
        Rng::new(opts.seed).fork(1_000 + id as u64),
    );
    let engine = QueryEngine::new(
        node,
        swarm_query_cfg(),
        catalog,
        files,
        Rng::new(opts.seed).fork(2_000 + id as u64),
    );
    let mut machine = StackMachine::new(node, AodvCfg::default(), algo, engine);
    if opts.obs {
        machine.set_obs(ObsSink::armed(
            id,
            &ObsConfig::default(),
            TRACE_CAPACITY,
            opts.seed,
        ));
    }
    let shim = FaultShim::new(&FaultPlan::default(), opts.seed);

    let mut rt = RtNode::new(machine, socket, peers, shim)?;
    if opts.obs {
        rt.set_telemetry_period(Duration::from_millis(TELEM_PERIOD_MS));
    }

    // The flight recorder is armed around the event loop: a panic or an
    // I/O error inside `run` dumps the node's report (counters, last
    // flight records) as `failure_*.jsonl` for the parent to collect.
    let duration = Duration::from_millis(opts.duration_ms);
    let join_delay = Duration::from_millis(id as u64 * JOIN_STAGGER_MS);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rt.run(duration, join_delay)
    }));
    let report = match outcome {
        Ok(Ok(report)) => report,
        Ok(Err(e)) => {
            dump_child_failure(&mut rt, id, &opts.obs_dir, format!("event loop: {e}"));
            return Err(e);
        }
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".into());
            dump_child_failure(&mut rt, id, &opts.obs_dir, format!("panic: {msg}"));
            std::process::exit(3);
        }
    };

    // Final full-trace telemetry frame *before* RESULT: the parent keeps
    // the last frame per child, and this one carries the causal trace.
    if let Some(hex) = rt.telemetry_hex(true) {
        println!("TELEM {hex}");
    }
    println!(
        "RESULT id={id} issued={} answered={} hits={} sent={} recv={} decode_err={}",
        report.issued,
        report.answered,
        report.hits_served,
        report.frames_sent,
        report.frames_received,
        report.decode_errors,
    );
    Ok(())
}

/// Dump a dying child's observability report (if armed) so the parent
/// finds a `failure_node<id>*.jsonl` post-mortem in the obs directory.
fn dump_child_failure(rt: &mut RtNode, id: u32, dir: &Path, why: String) {
    eprintln!("child {id}: {why}");
    if let Some(report) = rt.obs_report() {
        let report = report.clone();
        match dump_failure(dir, &format!("node{id}"), &[why], &report) {
            Ok(path) => eprintln!("child {id}: dumped {}", path.display()),
            Err(e) => eprintln!("child {id}: failure dump failed: {e}"),
        }
    }
}

#[derive(Default)]
struct Totals {
    issued: u64,
    answered: u64,
    hits: u64,
    sent: u64,
    recv: u64,
    decode_err: u64,
}

/// What the parent distilled from the children's telemetry frames: the
/// merged report and stitched trace land on disk (see
/// [`merge_telemetry`]); the summary carries what the success criteria
/// need.
struct ObsMerged {
    /// Causal trees whose spans come from at least two OS processes.
    cross_process_traces: usize,
}

/// One full swarm round; `Ok` carries the aggregated child results and,
/// with `--obs`, the merged telemetry summary.
fn run_swarm(opts: &Opts, attempt: u32) -> Result<(Totals, Option<ObsMerged>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut children = Vec::new();
    for id in 0..opts.nodes {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--child",
            &id.to_string(),
            "--nodes",
            &opts.nodes.to_string(),
            "--algo",
            opts.algo.name(),
            "--duration-ms",
            &opts.duration_ms.to_string(),
            "--seed",
            &opts.seed.to_string(),
        ]);
        if opts.obs {
            cmd.arg("--obs");
            cmd.arg("--obs-dir");
            cmd.arg(&opts.obs_dir);
        }
        let child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn child {id}: {e}"))?;
        children.push(child);
    }

    // Collect every child's self-assigned address, in id order.
    let mut addrs = Vec::new();
    let mut outs = Vec::new();
    for (id, child) in children.iter_mut().enumerate() {
        let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("read ADDR from child {id}: {e}"))?;
        let addr = line
            .strip_prefix("ADDR ")
            .ok_or_else(|| format!("child {id} spoke {line:?}, expected ADDR"))?
            .trim()
            .to_string();
        addrs.push(addr);
        outs.push(reader);
    }

    // Distribute the address book; the swarm starts on receipt.
    let book = format!("PEERS {}\n", addrs.join(" "));
    for (id, child) in children.iter_mut().enumerate() {
        child
            .stdin
            .take()
            .expect("piped stdin")
            .write_all(book.as_bytes())
            .map_err(|e| format!("send PEERS to child {id}: {e}"))?;
    }

    // Harvest TELEM and RESULT lines plus exit statuses. Telemetry
    // frames are running totals, so only the last one per child counts —
    // a child that died mid-run leaves its last heartbeat as a partial
    // post-mortem, which still merges.
    let mut totals = Totals::default();
    let mut last_telem: Vec<Option<String>> = vec![None; opts.nodes as usize];
    for (id, (mut child, mut reader)) in children.into_iter().zip(outs).enumerate() {
        let mut result_line = None;
        for line in (&mut reader).lines() {
            let line = line.map_err(|e| format!("read from child {id}: {e}"))?;
            if let Some(hex) = line.strip_prefix("TELEM ") {
                last_telem[id] = Some(hex.to_string());
            } else if line.starts_with("RESULT ") {
                // Surface each child's own tally in the parent summary.
                println!("{line}");
                result_line = Some(line);
            }
        }
        let status = child
            .wait()
            .map_err(|e| format!("wait for child {id}: {e}"))?;
        if !status.success() {
            return Err(format!(
                "child {id} exited with {status}{}",
                failure_dump_summary(opts)
            ));
        }
        let line = result_line.ok_or_else(|| format!("child {id} printed no RESULT"))?;
        for field in line.split_whitespace().skip(1) {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("malformed RESULT field {field:?}"))?;
            let value: u64 = value
                .parse()
                .map_err(|_| format!("non-numeric RESULT field {field:?}"))?;
            match key {
                "issued" => totals.issued += value,
                "answered" => totals.answered += value,
                "hits" => totals.hits += value,
                "sent" => totals.sent += value,
                "recv" => totals.recv += value,
                "decode_err" => totals.decode_err += value,
                "id" => {}
                _ => return Err(format!("unknown RESULT field {field:?}")),
            }
        }
    }

    if !opts.obs {
        return Ok((totals, None));
    }
    let merged = merge_telemetry(opts, attempt, &last_telem, &totals)?;
    Ok((totals, Some(merged)))
}

/// Decode every child's last telemetry frame, fold reports and traces,
/// stitch clocks, verify counter reconciliation, and write the merged
/// artifacts into the obs directory.
fn merge_telemetry(
    opts: &Opts,
    attempt: u32,
    last_telem: &[Option<String>],
    totals: &Totals,
) -> Result<ObsMerged, String> {
    let mut report = ObsReport::default();
    let mut trace = TraceLog::new(TRACE_CAPACITY * opts.nodes as usize);
    for (id, hex) in last_telem.iter().enumerate() {
        let hex = hex
            .as_ref()
            .ok_or_else(|| format!("child {id} shipped no telemetry frame"))?;
        let bytes = from_hex(hex).map_err(|e| format!("child {id} telemetry hex: {e}"))?;
        let telem =
            decode_telemetry(&bytes).map_err(|e| format!("child {id} telemetry frame: {e}"))?;
        if telem.node != id as u32 {
            return Err(format!("child {id} telemetry claims node {}", telem.node));
        }
        if telem.trace.id_base() != node_id_base(id as u32) {
            return Err(format!(
                "child {id} telemetry trace claims id base {:#x}",
                telem.trace.id_base()
            ));
        }
        report.merge(&telem.report);
        trace.merge_offset(&telem.trace);
    }

    // The bounded-retry bookkeeping becomes part of the merged report.
    let c_attempts = report.registry.counter("swarm.attempts");
    report.registry.set(c_attempts, attempt as u64);
    let c_retries = report.registry.counter("swarm.retries");
    report.registry.set(c_retries, (attempt - 1) as u64);
    let c_nodes = report.registry.counter("swarm.nodes");
    report.registry.set(c_nodes, opts.nodes as u64);

    // Reconciliation: the merged protocol counters must agree *exactly*
    // with the sum of the children's RESULT lines — both sides read the
    // same totals at the same shutdown sync point, so any difference
    // means frames were lost or merged wrong.
    let merged_issued = report
        .registry
        .counter_by_name("stack.queries_issued")
        .unwrap_or(0);
    if merged_issued != totals.issued {
        return Err(format!(
            "merged stack.queries_issued={merged_issued} but RESULT lines sum to {}",
            totals.issued
        ));
    }
    if totals.answered > totals.issued {
        return Err(format!(
            "answered {} exceeds issued {}",
            totals.answered, totals.issued
        ));
    }

    // Stitch per-process clocks and count trees spanning >= 2 processes.
    let stitched = stitch_clocks(trace.causal_events());
    let mut nodes_by_trace: HashMap<u64, std::collections::HashSet<u32>> = HashMap::new();
    for e in &stitched {
        nodes_by_trace.entry(e.trace_id).or_default().insert(e.node);
    }
    let cross_process_traces = nodes_by_trace.values().filter(|n| n.len() >= 2).count();

    std::fs::create_dir_all(&opts.obs_dir)
        .map_err(|e| format!("create {}: {e}", opts.obs_dir.display()))?;
    let report_path = opts.obs_dir.join("swarm_report.jsonl");
    report
        .write_jsonl(&report_path)
        .map_err(|e| format!("write {}: {e}", report_path.display()))?;
    let artifact = causal::artifact(&stitched);
    let trace_path = opts.obs_dir.join("swarm.trace.json");
    std::fs::write(&trace_path, artifact.render())
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    causal::validate_artifact(&artifact)
        .map_err(|e| format!("merged artifact failed validation: {e}"))?;

    println!(
        "OBS nodes={} merged_runs={} issued={merged_issued} traces={} cross_process_traces={} \
         report={} trace={}",
        opts.nodes,
        report.runs,
        nodes_by_trace.len(),
        cross_process_traces,
        report_path.display(),
        trace_path.display(),
    );
    Ok(ObsMerged {
        cross_process_traces,
    })
}

/// A one-line inventory of `failure_*.jsonl` dumps left by dead
/// children, appended to the parent's error diagnostics.
fn failure_dump_summary(opts: &Opts) -> String {
    if !opts.obs {
        return String::new();
    }
    let mut dumps = Vec::new();
    if let Ok(entries) = std::fs::read_dir(&opts.obs_dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("failure_") && name.ends_with(".jsonl") {
                dumps.push(name);
            }
        }
    }
    dumps.sort();
    if dumps.is_empty() {
        format!("; no failure dumps in {}", opts.obs_dir.display())
    } else {
        format!(
            "; failure dumps in {}: {}",
            opts.obs_dir.display(),
            dumps.join(", ")
        )
    }
}

fn main() {
    let opts = parse_opts();
    if let Some(id) = opts.child_id {
        if let Err(e) = child_main(id, &opts) {
            eprintln!("child {id}: {e}");
            std::process::exit(3);
        }
        return;
    }

    let attempts = 1 + opts.retries;
    for attempt in 1..=attempts {
        match run_swarm(&opts, attempt) {
            Ok((t, obs)) => {
                println!(
                    "SWARM nodes={} algo={} duration_ms={} attempt={} \
                     issued={} answered={} hits={} frames_sent={} frames_recv={} decode_err={}",
                    opts.nodes,
                    opts.algo.name(),
                    opts.duration_ms,
                    attempt,
                    t.issued,
                    t.answered,
                    t.hits,
                    t.sent,
                    t.recv,
                    t.decode_err,
                );
                if t.decode_err > 0 {
                    eprintln!("swarm: {} undecodable datagrams", t.decode_err);
                    std::process::exit(1);
                }
                let obs_ok = match &obs {
                    None => true,
                    Some(m) => m.cross_process_traces >= 1,
                };
                if t.answered >= opts.min_answered && obs_ok {
                    println!("SWARM OK");
                    return;
                }
                if t.answered < opts.min_answered {
                    eprintln!(
                        "swarm attempt {attempt}/{attempts}: answered {} < required {}",
                        t.answered, opts.min_answered
                    );
                }
                if !obs_ok {
                    eprintln!(
                        "swarm attempt {attempt}/{attempts}: no causal tree spans two processes"
                    );
                }
            }
            Err(e) => eprintln!("swarm attempt {attempt}/{attempts}: {e}"),
        }
    }
    eprintln!("SWARM FAILED after {attempts} attempts");
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_stack::{encode_telemetry, to_hex};

    #[test]
    fn merge_rejects_a_trace_minted_in_another_namespace() {
        let opts = Opts {
            nodes: 2,
            algo: AlgoKind::Regular,
            duration_ms: 0,
            seed: 1,
            min_answered: 0,
            retries: 0,
            obs: true,
            obs_dir: std::env::temp_dir(),
            child_id: None,
        };
        // Child 0's frame carrying a trace from node 1's namespace.
        let forged = TraceLog::with_id_base(8, 0, node_id_base(1));
        let frame = to_hex(&encode_telemetry(0, &ObsReport::default(), &forged));
        match merge_telemetry(&opts, 1, &[Some(frame)], &Totals::default()) {
            Err(e) => assert!(e.contains("child 0") && e.contains("id base"), "{e}"),
            Ok(_) => panic!("a frame from a foreign namespace was merged"),
        }
    }
}
