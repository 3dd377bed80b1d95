//! Sim-to-real in two processes: one query over loopback UDP.
//!
//! The smallest real-substrate demo. The parent re-executes itself with
//! a `child` argument; each process hosts one [`StackMachine`] — the
//! byte-for-byte protocol stack the simulator runs — on its own UDP
//! socket. The child holds the whole catalogue and the parent holds
//! nothing, so the parent's first query has exactly one answerer. The
//! two exchange addresses over the child's stdin/stdout, form a Regular
//! overlay across real datagrams, and the parent exits 0 once a query
//! round-trips.
//!
//! ```text
//! cargo run --release --example two_process_ping
//! ```
//!
//! For the N-process version, see the `swarm` binary in `manet-rt`.

use std::io::{BufRead, BufReader, Write};
use std::net::UdpSocket;
use std::process::{Command, Stdio};
use std::time::Duration;

use p2p_adhoc::aodv::AodvCfg;
use p2p_adhoc::content::QueryEngine;
use p2p_adhoc::core::build_algo;
use p2p_adhoc::prelude::*;
use p2p_adhoc::rt::RtNode;
use p2p_adhoc::stack::StackMachine;

/// Wall-clock run length; comfortably two handshake + query rounds.
const RUN: Duration = Duration::from_millis(2_500);

/// Overlay and workload timers shrunk from paper scale to demo scale.
fn machine(id: u32, files: Vec<u16>, seed: u64) -> StackMachine {
    let node = NodeId(id);
    let params = OverlayParams {
        timer_initial: SimDuration::from_millis(500),
        max_timer: SimDuration::from_secs(4),
        basic_timer: SimDuration::from_millis(800),
        ping_interval: SimDuration::from_secs(2),
        pong_timeout: SimDuration::from_secs(1),
        handshake_timeout: SimDuration::from_millis(1_500),
        random_response_wait: SimDuration::from_millis(500),
        ..OverlayParams::default()
    };
    let query = QueryCfg {
        think_min: SimDuration::from_millis(200),
        think_max: SimDuration::from_millis(500),
        response_wait: SimDuration::from_millis(600),
        ..QueryCfg::default()
    };
    let algo = build_algo(AlgoKind::Regular, node, params, 0, Rng::new(seed));
    let engine = QueryEngine::new(
        node,
        query,
        Catalog::default(),
        files.into_iter().map(FileId).collect(),
        Rng::new(seed ^ 0xF00D),
    );
    StackMachine::new(node, AodvCfg::default(), algo, engine)
}

fn child_main() {
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind child socket");
    println!("ADDR {}", socket.local_addr().expect("local addr"));
    std::io::stdout().flush().expect("flush");

    let mut line = String::new();
    BufReader::new(std::io::stdin())
        .read_line(&mut line)
        .expect("read PEER line");
    let parent = line
        .strip_prefix("PEER ")
        .expect("PEER line")
        .trim()
        .parse()
        .expect("parent address");

    // The child holds every file and joins after a short stagger (two
    // nodes probing at the same instant collide their handshakes).
    let mut node = RtNode::new(
        machine(1, (0..20).collect(), 7),
        socket,
        vec![(NodeId(0), parent)],
    )
    .expect("child node");
    let report = node
        .run(RUN, Duration::from_millis(300))
        .expect("child run");
    println!("RESULT hits={}", report.hits_served);
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("child") {
        child_main();
        return;
    }

    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind parent socket");
    let exe = std::env::current_exe().expect("current exe");
    let mut child = Command::new(exe)
        .arg("child")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn child");

    // Handshake: child tells us where it listens, we answer in kind.
    let mut out = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut line = String::new();
    out.read_line(&mut line).expect("read ADDR");
    let child_addr = line
        .strip_prefix("ADDR ")
        .expect("ADDR line")
        .trim()
        .parse()
        .expect("child address");
    writeln!(
        child.stdin.take().expect("child stdin"),
        "PEER {}",
        socket.local_addr().expect("local addr")
    )
    .expect("send PEER");

    // The parent holds nothing, so every query it issues must cross the
    // wire to the child and back.
    let mut node = RtNode::new(machine(0, vec![], 3), socket, vec![(NodeId(1), child_addr)])
        .expect("parent node");
    let report = node.run(RUN, Duration::ZERO).expect("parent run");

    let status = child.wait().expect("wait child");
    println!(
        "parent: issued {} queries, {} answered, {} datagrams out / {} in",
        report.issued, report.answered, report.frames_sent, report.frames_received
    );
    assert!(status.success(), "child exited with {status}");
    assert!(report.answered > 0, "no query answered: {report:?}");
    println!("two_process_ping: OK");
}
