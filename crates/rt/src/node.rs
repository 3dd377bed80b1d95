//! One OS process hosting one [`StackMachine`] on one UDP socket.
//!
//! The event loop is the real-time analogue of the DES dispatch loop,
//! with the future-event list replaced by the kernel:
//!
//! * the node's combined protocol timer becomes the poll *deadline* — the
//!   machine's timer requests ([`StackHost::arm_timer`]) keep the earliest
//!   wake, and [`Clock::timeout_until`] turns it into how long
//!   [`Poller::wait`] may sleep;
//! * the modelled radio becomes the socket — a broadcast is a `sendto` to
//!   every peer (the loopback full mesh realizes the single-hop broadcast
//!   domain of a dense MANET), a unicast is one `sendto`;
//! * frame arrival becomes readability — every drained datagram is
//!   decoded by [`p2p_stack::decode_frame`] and handed up as the same
//!   [`FrameUp`](p2p_stack::FrameUp) verb the DES phy layer produces.
//!   Datagrams that do not decode, or that do not come from the address
//!   of the peer they claim to be from, are counted and dropped, never
//!   fatal: a real socket receives whatever the network felt like
//!   delivering.
//!
//! The protocol machine itself is the one the simulator hosts; nothing in
//! this module looks inside it.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use manet_aodv::Msg;
use manet_des::{NodeId, SimTime};
use manet_obs::{ObsConfig, ObsReport, Severity};
use p2p_content::CompletedQuery;
use p2p_stack::{
    decode_frame, encode_frame, node_id_base, trace_send, AppMsg, SendDown, StackHost,
    StackMachine, TimerReq, TraceLog,
};

use crate::clock::Clock;
use crate::epoll::Poller;
use crate::obs::StackObs;

/// Largest datagram the codec may produce; loopback MTU is far larger.
const MAX_DATAGRAM: usize = 2048;

/// One wall-clock span timing per this many loop iterations: the profile
/// stays an unbiased estimate while the hot path pays for a timestamp
/// pair only once per stride (see `SpanProfile::add_weighted`).
const SPAN_STRIDE: u64 = 64;

/// What one node observed over its run, for the swarm's RESULT line.
#[derive(Clone, Copy, Debug, Default)]
pub struct RtReport {
    /// Datagrams put on the wire.
    pub frames_sent: u64,
    /// Datagrams received and accepted.
    pub frames_received: u64,
    /// Datagrams rejected (undecodable, or not from the peer they claim
    /// to be from).
    pub decode_errors: u64,
    /// Queries this node issued.
    pub issued: u64,
    /// Issued queries that closed with at least one answer.
    pub answered: u64,
    /// QueryHits this node served as a holder.
    pub hits_served: u64,
}

/// The machine's host on this substrate: the socket it transmits on, the
/// deadline register, and what the node records.
struct Air {
    socket: UdpSocket,
    /// Peer address book (this node excluded). Broadcast sends to all.
    peers: Vec<(NodeId, SocketAddr)>,
    by_id: HashMap<NodeId, SocketAddr>,
    report: RtReport,
    /// Earliest wake the machine asked for (MAX = none).
    wake: SimTime,
    obs: Option<Box<StackObs>>,
    /// Disabled (capacity 0) until [`RtNode::arm_obs`].
    trace: TraceLog,
}

impl Air {
    /// One datagram onto the wire.
    fn transmit(&mut self, to: SocketAddr, bytes: &[u8]) {
        if self.socket.send_to(bytes, to).is_ok() {
            self.report.frames_sent += 1;
            if let Some(o) = &mut self.obs {
                o.inc(o.c_dgram_tx);
            }
        }
    }

    /// Count a rejected datagram and say why in the flight recorder.
    fn reject(&mut self, now: SimTime, tag: &'static str, why: String) {
        self.report.decode_errors += 1;
        if let Some(o) = &mut self.obs {
            o.inc(o.c_decode_errors);
            o.flight(now, Severity::Warn, tag, why);
        }
    }
}

impl StackHost for Air {
    fn send(&mut self, now: SimTime, from: NodeId, frame: SendDown) -> Option<Msg<AppMsg>> {
        match frame {
            SendDown::Broadcast(mut msg) => {
                trace_send(&mut self.trace, now, from, None, &mut msg);
                let bytes = encode_frame(from, &msg);
                for i in 0..self.peers.len() {
                    let to = self.peers[i].1;
                    self.transmit(to, &bytes);
                }
            }
            SendDown::Unicast { to, mut msg } => {
                trace_send(&mut self.trace, now, from, Some(to), &mut msg);
                // A peer missing from the address book is out of range.
                let Some(&addr) = self.by_id.get(&to) else {
                    return Some(msg);
                };
                self.transmit(addr, &encode_frame(from, &msg));
            }
        }
        None
    }

    fn delivered(&mut self, _at: NodeId, _payload: &AppMsg, hops: u8) {
        if let Some(o) = &mut self.obs {
            o.on_delivered(hops);
        }
    }

    fn query_completed(&mut self, _requirer: NodeId, done: &CompletedQuery) {
        if !done.answers.is_empty() {
            self.report.answered += 1;
        }
    }

    fn arm_timer(&mut self, _now: SimTime, _node: NodeId, req: TimerReq) {
        self.wake = self.wake.min(req.at);
    }

    fn trace(&mut self) -> &mut TraceLog {
        &mut self.trace
    }
}

/// A protocol stack bound to a socket, plus the loop that drives it.
pub struct RtNode {
    machine: StackMachine,
    poller: Poller,
    air: Air,
}

impl RtNode {
    /// Bind `machine` to `socket`. `peers` maps every *other* node to
    /// its address; only datagrams from those addresses are accepted, each
    /// under the id it is listed with.
    pub fn new(
        machine: StackMachine,
        socket: UdpSocket,
        peers: Vec<(NodeId, SocketAddr)>,
    ) -> io::Result<RtNode> {
        let poller = Poller::new(&socket)?;
        let by_id = peers.iter().copied().collect();
        Ok(RtNode {
            machine,
            poller,
            air: Air {
                socket,
                peers,
                by_id,
                report: RtReport::default(),
                wake: SimTime::MAX,
                obs: None,
                trace: TraceLog::new(0),
            },
        })
    }

    /// Arm observability: counters, spans and a flight recorder per
    /// `cfg`, and a causal trace of `trace_capacity` events minting ids
    /// from this node's namespace (its reservoir seeded by `seed ^ node`,
    /// so each node samples independently but reruns reproduce). Arming
    /// changes nothing about what the node sends — only what it records.
    pub fn arm_obs(&mut self, cfg: &ObsConfig, trace_capacity: usize, seed: u64) {
        let node = self.machine.id().0;
        self.air.obs = Some(Box::new(StackObs::new(cfg)));
        self.air.trace =
            TraceLog::with_id_base(trace_capacity, seed ^ node as u64, node_id_base(node));
    }

    /// The local socket address (what a child advertises to the parent).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.air.socket.local_addr()
    }

    /// Mirror the protocol layers' running totals into the armed report.
    fn sync_obs(&mut self) {
        if let Some(o) = &mut self.air.obs {
            let q = self.machine.query_stats().copied().unwrap_or_default();
            o.mirror_stats(&q, self.machine.aodv().stats());
        }
    }

    /// Mirror the protocol totals and return the node's report and causal
    /// trace — what it ships at shutdown, or dumps on failure — if
    /// observability is armed.
    pub fn telemetry(&mut self) -> Option<(&ObsReport, &TraceLog)> {
        self.sync_obs();
        let obs = self.air.obs.as_ref()?;
        Some((&obs.report, &self.air.trace))
    }

    /// Join the overlay after `join_delay`, then run the event loop for
    /// `duration` total wall time.
    ///
    /// Staggering joins matters: two nodes that probe at the same
    /// instant each open an outgoing connection toward the other, and
    /// the crossing Offers collide with the pending opposite-direction
    /// entries and are rejected — a simultaneous-open glitch the DES
    /// never exhibits because its arrival process staggers joins. The
    /// swarm gives each node an id-proportional delay for the same
    /// effect; before joining, the node still relays frames (AODV runs
    /// from the first datagram).
    pub fn run(&mut self, duration: Duration, join_delay: Duration) -> io::Result<RtReport> {
        let clock = Clock::start();
        let end = SimTime::from_ticks(duration.as_micros() as u64);
        let join_at = SimTime::from_ticks(join_delay.as_micros() as u64).min(end);
        let mut iters: u64 = 0;
        let mut join_pending = true;

        loop {
            let mut deadline = self.air.wake.min(end);
            if join_pending {
                deadline = deadline.min(join_at);
            }
            let timeout = clock.timeout_until(deadline);
            let readable = self.poller.wait(&self.air.socket, timeout)?;
            if let Some(o) = &mut self.air.obs {
                o.inc(if readable {
                    o.c_epoll_wakeups
                } else {
                    o.c_epoll_timeouts
                });
            }
            // Stride-sampled wall-clock span over the post-poll loop
            // body: one timestamp pair per SPAN_STRIDE wakeups.
            iters += 1;
            let timed = self.air.obs.is_some() && iters.is_multiple_of(SPAN_STRIDE);
            let t0 = timed.then(Instant::now);

            if readable {
                self.drain(&clock)?;
            }
            let now = clock.now();
            if join_pending && now >= join_at {
                join_pending = false;
                if let Some(o) = &mut self.air.obs {
                    let id = self.machine.id();
                    o.flight(
                        now,
                        Severity::Info,
                        "join",
                        format!("{id} joined the overlay"),
                    );
                }
                self.machine.join(&mut self.air, now);
            }
            if self.air.wake <= now {
                self.air.wake = SimTime::MAX;
                self.machine.tick(&mut self.air, now);
            }
            if let Some(o) = &mut self.air.obs {
                o.maybe_sample(now);
                if let Some(t0) = t0 {
                    o.report
                        .spans
                        .add_weighted(o.s_loop, t0.elapsed(), SPAN_STRIDE);
                }
            }
            if clock.now() >= end {
                break;
            }
        }

        if let Some(qs) = self.machine.query_stats() {
            self.air.report.issued = qs.issued;
            self.air.report.hits_served = qs.hits_served;
        }
        self.sync_obs();
        Ok(self.air.report)
    }

    /// Drain every pending datagram and hand each accepted one up as a
    /// frame. A frame is accepted only from the address its claimed
    /// sender is listed with, so no other socket can speak for a peer.
    fn drain(&mut self, clock: &Clock) -> io::Result<()> {
        let mut buf = [0u8; MAX_DATAGRAM];
        loop {
            match self.air.socket.recv_from(&mut buf) {
                Ok((len, addr)) => {
                    let now = clock.now();
                    match decode_frame(&buf[..len]) {
                        Ok(frame) if self.air.by_id.get(&frame.from) == Some(&addr) => {
                            self.air.report.frames_received += 1;
                            if let Some(o) = &mut self.air.obs {
                                o.inc(o.c_dgram_rx);
                            }
                            self.machine.on_frame(&mut self.air, now, frame);
                        }
                        Ok(frame) => self.air.reject(
                            now,
                            "spoofed_sender",
                            format!("frame claiming to be {} arrived from {addr}", frame.from),
                        ),
                        Err(e) => self.air.reject(
                            now,
                            "decode_error",
                            format!("{len}-byte datagram rejected: {e}"),
                        ),
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_aodv::AodvCfg;
    use manet_des::Rng;
    use p2p_content::{Catalog, FileId, QueryCfg, QueryEngine};
    use p2p_core::{build_algo, AlgoKind, OverlayParams};

    fn machine(id: u32, files: Vec<u16>) -> StackMachine {
        let node = NodeId(id);
        let query = QueryCfg {
            think_min: manet_des::SimDuration::from_millis(200),
            think_max: manet_des::SimDuration::from_millis(500),
            response_wait: manet_des::SimDuration::from_millis(600),
            ..QueryCfg::default()
        };
        let algo = build_algo(
            AlgoKind::Regular,
            node,
            OverlayParams::default(),
            0,
            Rng::new(40 + id as u64),
        );
        let engine = QueryEngine::new(
            node,
            query,
            Catalog::default(),
            files.into_iter().map(FileId).collect(),
            Rng::new(80 + id as u64),
        );
        StackMachine::new(node, AodvCfg::default(), algo, engine)
    }

    /// Two in-process nodes on real loopback sockets: the overlay forms
    /// and at least one query is answered — the smallest possible
    /// sim-to-real demo, run as threads instead of processes.
    #[test]
    fn two_nodes_over_loopback_answer_a_query() {
        let sock_a = UdpSocket::bind("127.0.0.1:0").expect("bind a");
        let sock_b = UdpSocket::bind("127.0.0.1:0").expect("bind b");
        let addr_a = sock_a.local_addr().unwrap();
        let addr_b = sock_b.local_addr().unwrap();

        // Node 0 holds nothing and node 1 holds the whole catalogue, so
        // every query node 0 issues has exactly one possible answerer.
        let mut node_a =
            RtNode::new(machine(0, vec![]), sock_a, vec![(NodeId(1), addr_b)]).expect("node a");
        let mut node_b = RtNode::new(
            machine(1, (0..20).collect()),
            sock_b,
            vec![(NodeId(0), addr_a)],
        )
        .expect("node b");

        let run = Duration::from_millis(2_500);
        let t = std::thread::spawn(move || {
            node_b.run(run, Duration::from_millis(300)).expect("b runs")
        });
        let ra = node_a.run(run, Duration::ZERO).expect("a runs");
        let rb = t.join().expect("join b");

        assert!(
            node_a.telemetry().is_none(),
            "an unarmed node records and ships nothing"
        );
        assert!(ra.frames_sent > 0 && rb.frames_sent > 0, "traffic flowed");
        assert_eq!(ra.decode_errors + rb.decode_errors, 0, "codec clean");
        assert!(
            ra.issued + rb.issued > 0,
            "some query issued ({ra:?} {rb:?})"
        );
        assert!(
            ra.answered + rb.answered > 0,
            "some query answered ({ra:?} {rb:?})"
        );
    }

    /// A well-formed frame claiming to be node 1 is accepted from node
    /// 1's address and rejected from any other socket.
    #[test]
    fn impersonated_datagrams_are_rejected() {
        let sock_a = UdpSocket::bind("127.0.0.1:0").expect("bind a");
        let sock_b = UdpSocket::bind("127.0.0.1:0").expect("bind b");
        let intruder = UdpSocket::bind("127.0.0.1:0").expect("bind intruder");
        let addr_a = sock_a.local_addr().unwrap();
        let addr_b = sock_b.local_addr().unwrap();

        let mut node_a =
            RtNode::new(machine(0, vec![]), sock_a, vec![(NodeId(1), addr_b)]).expect("node a");
        node_a.arm_obs(&ObsConfig::default(), 64, 7);
        let frame = encode_frame(NodeId(1), &Msg::Hello(manet_aodv::msg::Hello { seq: 1 }));
        intruder.send_to(&frame, addr_a).expect("intruder sends");
        sock_b.send_to(&frame, addr_a).expect("peer sends");

        let report = node_a
            .run(Duration::from_millis(200), Duration::from_secs(1))
            .expect("a runs");
        assert_eq!(report.frames_received, 1, "only the genuine frame");
        assert_eq!(report.decode_errors, 1, "the impersonation is counted");
        let (obs, _) = node_a.telemetry().expect("armed");
        assert_eq!(obs.registry.counter_by_name("rt.decode_errors"), Some(1));
        let intruder_addr = intruder.local_addr().unwrap().to_string();
        assert!(
            obs.recorder.records().any(|r| r.severity == Severity::Warn
                && r.msg.contains(&NodeId(1).to_string())
                && r.msg.contains(&intruder_addr)),
            "a warning names the claimed sender and the address"
        );
    }

    /// The same two-node exchange with observability armed: the
    /// substrate counters must agree exactly with the `RtReport` tallies,
    /// and the shipped report and trace must read back from their JSONL.
    #[test]
    fn armed_node_counters_reconcile_with_its_report() {
        use manet_obs::CausalKind;

        fn shipped(node: &mut RtNode) -> (ObsReport, TraceLog) {
            let (report, trace) = node.telemetry().expect("armed");
            (
                ObsReport::from_jsonl(&report.to_jsonl()).expect("report reads back"),
                TraceLog::from_jsonl(&trace.to_jsonl()).expect("trace reads back"),
            )
        }

        let sock_a = UdpSocket::bind("127.0.0.1:0").expect("bind a");
        let sock_b = UdpSocket::bind("127.0.0.1:0").expect("bind b");
        let addr_a = sock_a.local_addr().unwrap();
        let addr_b = sock_b.local_addr().unwrap();

        let mut node_a =
            RtNode::new(machine(0, vec![]), sock_a, vec![(NodeId(1), addr_b)]).expect("node a");
        node_a.arm_obs(&ObsConfig::default(), 1024, 7);
        let mut node_b = RtNode::new(
            machine(1, (0..20).collect()),
            sock_b,
            vec![(NodeId(0), addr_a)],
        )
        .expect("node b");
        node_b.arm_obs(&ObsConfig::default(), 1024, 7);

        let run = Duration::from_millis(2_000);
        let t = std::thread::spawn(move || {
            let r = node_b.run(run, Duration::from_millis(300)).expect("b runs");
            (r, shipped(&mut node_b))
        });
        let ra = node_a.run(run, Duration::ZERO).expect("a runs");
        let telem_a = shipped(&mut node_a);
        let (rb, telem_b) = t.join().expect("join b");

        for (report, (obs, trace), node) in [(ra, telem_a, 0u32), (rb, telem_b, 1u32)] {
            assert_eq!(obs.runs, 1, "each node contributes one run");
            let reg = &obs.registry;
            assert_eq!(
                reg.counter_by_name("rt.dgram_rx"),
                Some(report.frames_received),
                "rx counter reconciles with the RESULT tally"
            );
            assert_eq!(reg.counter_by_name("rt.dgram_tx"), Some(report.frames_sent));
            assert_eq!(
                reg.counter_by_name("stack.queries_issued"),
                Some(report.issued),
                "protocol mirror synced at shutdown"
            );
            assert!(
                reg.counter_by_name("rt.epoll_wakeups").unwrap_or(0) > 0,
                "traffic flowed, so the poller woke at least once"
            );
            assert!(!trace.is_empty(), "causal spans were recorded");
            assert_eq!(
                trace.id_base(),
                node_id_base(node),
                "spans mint from the node's own namespace"
            );
            let namespace = node_id_base(node)..node_id_base(node + 1);
            let minted: Vec<u64> = trace
                .events()
                .filter(|e| matches!(e.kind, CausalKind::Origin { .. }))
                .map(|e| e.trace_id)
                .collect();
            assert!(!minted.is_empty(), "node {node} originated a trace");
            assert!(
                minted.iter().all(|id| namespace.contains(id)),
                "every trace the node originates is minted in its namespace"
            );
            assert!(
                trace.events().all(|e| namespace.contains(&e.span)),
                "every span the node records, foreign traces included, is its own"
            );
        }
    }
}
