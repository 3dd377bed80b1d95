//! The Gnutella-like query engine (paper §7.1–7.2).
//!
//! A member node periodically searches for a file it does not hold. The
//! query fans out over the overlay references with `TTL = 6` p2p hops and
//! the paper's three traffic-control rules:
//!
//! 1. each node forwards or responds to a given query only once;
//! 2. a query is never forwarded back to the neighbor it came from;
//! 3. a query is never forwarded to its original source.
//!
//! A node holding the file answers the *requirer directly* with a QueryHit
//! (and still forwards the query). The requirer collects answers for 30 s,
//! then thinks for a uniform 15–45 s before the next query.

use manet_des::{IntMap, NodeId, Rng, SimDuration, SimTime};

use crate::catalog::{Catalog, FileId};
use std::collections::BTreeSet;

/// Identifies a query network-wide.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct QueryId {
    /// The requirer.
    pub origin: NodeId,
    /// Its per-node sequence number.
    pub seq: u32,
}

/// Content-layer wire messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ContentMsg {
    /// A search, forwarded peer-to-peer.
    Query {
        /// Network-wide query identity (also carries the requirer).
        id: QueryId,
        /// What is being searched.
        file: FileId,
        /// Remaining p2p hops (the paper's TTL, 6).
        ttl: u8,
        /// P2p hops travelled so far.
        p2p_hops: u8,
    },
    /// A direct answer from a holder to the requirer.
    QueryHit {
        /// The query being answered.
        id: QueryId,
        /// The file found.
        file: FileId,
        /// P2p hops the query had travelled when it reached the holder.
        p2p_hops: u8,
    },
    /// The requirer asks the chosen holder for the file itself ("the file
    /// properly said, which is transferred directly between the peers").
    FetchRequest {
        /// The satisfied query.
        id: QueryId,
        /// The file to transfer.
        file: FileId,
    },
    /// The bulk file payload.
    FileTransfer {
        /// The query being satisfied.
        id: QueryId,
        /// The file carried.
        file: FileId,
        /// Payload size in bytes (drives radio delay and energy).
        bytes: u32,
    },
}

impl ContentMsg {
    /// Encoded size in bytes for the radio model.
    pub fn wire_size(&self) -> u32 {
        match self {
            ContentMsg::Query { .. } => 16,
            ContentMsg::QueryHit { .. } => 14,
            ContentMsg::FetchRequest { .. } => 12,
            ContentMsg::FileTransfer { bytes, .. } => 12 + bytes,
        }
    }
}

/// A transmission the engine asks the stack to perform (always routed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CSend {
    /// Destination.
    pub to: NodeId,
    /// Message.
    pub msg: ContentMsg,
}

/// One answer observed by the requirer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Answer {
    /// Who holds the file.
    pub holder: NodeId,
    /// Ad-hoc hops the QueryHit travelled back (routing-layer metric).
    pub adhoc_hops: u8,
    /// P2p hops the query travelled to the holder.
    pub p2p_hops: u8,
}

/// The outcome of one finished query (its 30 s window closed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompletedQuery {
    /// What was searched.
    pub file: FileId,
    /// When the query was issued.
    pub issued_at: SimTime,
    /// All answers that arrived in the window.
    pub answers: Vec<Answer>,
}

/// Engine configuration (paper values as defaults).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryCfg {
    /// TTL in p2p hops (Table 2: 6).
    pub ttl: u8,
    /// How long the requirer waits for responses (30 s).
    pub response_wait: SimDuration,
    /// Think-time bounds between queries (uniform 15–45 s).
    pub think_min: SimDuration,
    /// Upper think-time bound.
    pub think_max: SimDuration,
    /// Sample query targets by popularity (Zipf) rather than uniformly.
    pub zipf_targets: bool,
    /// How long seen-query dedup entries are retained.
    pub seen_lifetime: SimDuration,
    /// After a successful query, download the file from the closest
    /// answerer (`None` disables the transfer phase; the paper's figures
    /// count control traffic only, so the default is off).
    pub fetch_bytes: Option<u32>,
}

impl Default for QueryCfg {
    fn default() -> Self {
        QueryCfg {
            ttl: 6,
            response_wait: SimDuration::from_secs(30),
            think_min: SimDuration::from_secs(15),
            think_max: SimDuration::from_secs(45),
            zipf_targets: true,
            seen_lifetime: SimDuration::from_secs(120),
            fetch_bytes: None,
        }
    }
}

/// Per-node query statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Queries this node issued.
    pub issued: u64,
    /// Queries it forwarded for others.
    pub forwarded: u64,
    /// QueryHits it generated as a holder.
    pub hits_served: u64,
    /// Queries dropped by the dedup rule.
    pub duplicates_dropped: u64,
    /// Files this node downloaded.
    pub files_fetched: u64,
    /// Files this node served to others.
    pub files_served: u64,
}

#[derive(Clone, Debug)]
struct Outstanding {
    id: QueryId,
    file: FileId,
    issued_at: SimTime,
    deadline: SimTime,
    answers: Vec<Answer>,
}

/// The per-member query engine.
#[derive(Clone, Debug)]
pub struct QueryEngine {
    id: NodeId,
    cfg: QueryCfg,
    catalog: Catalog,
    files: BTreeSet<FileId>,
    rng: Rng,
    seen: IntMap<QueryId, SimTime>,
    outstanding: Option<Outstanding>,
    next_query_at: SimTime,
    next_seq: u32,
    stats: QueryStats,
    started: bool,
}

impl QueryEngine {
    /// An engine for node `id` holding `files`.
    pub fn new(
        id: NodeId,
        cfg: QueryCfg,
        catalog: Catalog,
        files: BTreeSet<FileId>,
        rng: Rng,
    ) -> Self {
        catalog.validate();
        QueryEngine {
            id,
            cfg,
            catalog,
            files,
            rng,
            seen: IntMap::default(),
            outstanding: None,
            next_query_at: SimTime::MAX,
            next_seq: 0,
            stats: QueryStats::default(),
            started: false,
        }
    }

    /// Files this node holds.
    pub fn files(&self) -> &BTreeSet<FileId> {
        &self.files
    }

    /// Statistics so far.
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }

    /// Begin querying; the first query fires after a random think time so
    /// the population does not fire in phase.
    pub fn start(&mut self, now: SimTime) {
        self.started = true;
        self.next_query_at = now + self.think();
    }

    fn think(&mut self) -> SimDuration {
        let lo = self.cfg.think_min.ticks();
        let hi = self.cfg.think_max.ticks().max(lo + 1);
        SimDuration::from_ticks(self.rng.range_u64(lo, hi))
    }

    /// Earliest instant [`tick`](Self::tick) needs to run.
    pub fn next_wake(&self) -> SimTime {
        match &self.outstanding {
            Some(o) => o.deadline,
            None if self.started => self.next_query_at,
            None => SimTime::MAX,
        }
    }

    /// Timer entry point. `neighbors` is the node's current overlay
    /// reference list. Returns transmissions plus, when a response window
    /// just closed, the completed query for metric recording.
    pub fn tick(
        &mut self,
        now: SimTime,
        neighbors: &[NodeId],
    ) -> (Vec<CSend>, Option<CompletedQuery>) {
        let mut out = Vec::new();
        let mut completed = None;

        if let Some(o) = &self.outstanding {
            if now >= o.deadline {
                let o = self.outstanding.take().expect("just checked");
                // Optional transfer phase: download from the *closest*
                // answerer (fewest ad-hoc hops, ties to the smallest id).
                if self.cfg.fetch_bytes.is_some() {
                    if let Some(best) = o.answers.iter().min_by_key(|a| (a.adhoc_hops, a.holder)) {
                        out.push(CSend {
                            to: best.holder,
                            msg: ContentMsg::FetchRequest {
                                id: o.id,
                                file: o.file,
                            },
                        });
                    }
                }
                completed = Some(CompletedQuery {
                    file: o.file,
                    issued_at: o.issued_at,
                    answers: o.answers,
                });
                // "Then, the node waits for a random period between 15 to
                // 45 seconds to send the next query."
                self.next_query_at = now + self.think();
            }
        }

        if self.started && self.outstanding.is_none() && now >= self.next_query_at {
            // Time to issue a new query (if there's someone to ask and
            // something we lack).
            let target = if self.cfg.zipf_targets {
                self.catalog.sample_target(&self.files, &mut self.rng)
            } else {
                self.catalog
                    .sample_target_uniform(&self.files, &mut self.rng)
            };
            match (target, neighbors.is_empty()) {
                (Some(file), false) => {
                    let id = QueryId {
                        origin: self.id,
                        seq: self.next_seq,
                    };
                    self.next_seq += 1;
                    self.seen.insert(id, now + self.cfg.seen_lifetime);
                    self.stats.issued += 1;
                    for &nb in neighbors {
                        out.push(CSend {
                            to: nb,
                            msg: ContentMsg::Query {
                                id,
                                file,
                                ttl: self.cfg.ttl,
                                p2p_hops: 0,
                            },
                        });
                    }
                    self.outstanding = Some(Outstanding {
                        id,
                        file,
                        issued_at: now,
                        deadline: now + self.cfg.response_wait,
                        answers: Vec::new(),
                    });
                }
                _ => {
                    // Isolated or sated: try again after a think time.
                    self.next_query_at = now + self.think();
                }
            }
        }

        // Bound the dedup cache.
        if self.seen.len() > 1024 {
            self.seen.retain(|_, &mut exp| exp > now);
        }

        (out, completed)
    }

    /// A content message arrived from overlay neighbor-or-holder `src`,
    /// `adhoc_hops` radio hops away.
    pub fn on_msg(
        &mut self,
        now: SimTime,
        src: NodeId,
        adhoc_hops: u8,
        msg: &ContentMsg,
        neighbors: &[NodeId],
    ) -> Vec<CSend> {
        let mut out = Vec::new();
        match msg {
            ContentMsg::Query {
                id,
                file,
                ttl,
                p2p_hops,
            } => {
                if id.origin == self.id {
                    return out; // rule 3 backstop: our own query came back
                }
                if self.seen.contains_key(id) {
                    self.stats.duplicates_dropped += 1;
                    return out; // rule 1
                }
                self.seen.insert(*id, now + self.cfg.seen_lifetime);
                let hops_here = p2p_hops + 1;
                // Holder answers the requirer directly...
                if self.files.contains(file) {
                    self.stats.hits_served += 1;
                    out.push(CSend {
                        to: id.origin,
                        msg: ContentMsg::QueryHit {
                            id: *id,
                            file: *file,
                            p2p_hops: hops_here,
                        },
                    });
                }
                // ...and forwards the query regardless ("even if it has the
                // file"), rules 2 and 3 applied.
                if *ttl > 1 {
                    self.stats.forwarded += 1;
                    for &nb in neighbors {
                        if nb != src && nb != id.origin {
                            out.push(CSend {
                                to: nb,
                                msg: ContentMsg::Query {
                                    id: *id,
                                    file: *file,
                                    ttl: ttl - 1,
                                    p2p_hops: hops_here,
                                },
                            });
                        }
                    }
                }
            }
            ContentMsg::QueryHit { id, p2p_hops, .. } => {
                if let Some(o) = &mut self.outstanding {
                    if o.id == *id {
                        o.answers.push(Answer {
                            holder: src,
                            adhoc_hops,
                            p2p_hops: *p2p_hops,
                        });
                    }
                }
            }
            ContentMsg::FetchRequest { id, file } => {
                // Serve the file if we still hold it and the requirer is
                // the query's origin (no open-relay transfers).
                if self.files.contains(file) && id.origin == src {
                    if let Some(bytes) = self.cfg.fetch_bytes {
                        self.stats.files_served += 1;
                        out.push(CSend {
                            to: src,
                            msg: ContentMsg::FileTransfer {
                                id: *id,
                                file: *file,
                                bytes,
                            },
                        });
                    }
                }
            }
            ContentMsg::FileTransfer { id, file, .. } => {
                if id.origin == self.id {
                    // The download completes: the node now holds the file
                    // and can serve future queries for it.
                    self.files.insert(*file);
                    self.stats.files_fetched += 1;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> QueryCfg {
        QueryCfg::default()
    }

    fn engine(id: u32, files: &[u16], seed: u64) -> QueryEngine {
        QueryEngine::new(
            NodeId(id),
            cfg(),
            Catalog::default(),
            files.iter().map(|&f| FileId(f)).collect(),
            Rng::new(seed),
        )
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn q(origin: u32, seq: u32, file: u16, ttl: u8, hops: u8) -> ContentMsg {
        ContentMsg::Query {
            id: QueryId {
                origin: NodeId(origin),
                seq,
            },
            file: FileId(file),
            ttl,
            p2p_hops: hops,
        }
    }

    #[test]
    fn issues_query_to_all_neighbors_after_think_time() {
        let mut e = engine(0, &[], 1);
        e.start(t(0));
        let wake = e.next_wake();
        assert!(wake >= t(15) && wake <= t(45), "think time in [15,45]s");
        let (out, done) = e.tick(wake, &[NodeId(1), NodeId(2)]);
        assert!(done.is_none());
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|s| matches!(
            s.msg,
            ContentMsg::Query {
                ttl: 6,
                p2p_hops: 0,
                ..
            }
        )));
        assert_eq!(e.stats().issued, 1);
    }

    #[test]
    fn window_closes_and_reports_answers() {
        let mut e = engine(0, &[], 2);
        e.start(t(0));
        let wake = e.next_wake();
        let (out, _) = e.tick(wake, &[NodeId(1)]);
        let id = match out[0].msg {
            ContentMsg::Query { id, .. } => id,
            ref m => panic!("expected query, got {m:?}"),
        };
        // Two answers arrive.
        e.on_msg(
            wake + SimDuration::from_secs(2),
            NodeId(5),
            3,
            &ContentMsg::QueryHit {
                id,
                file: FileId(0),
                p2p_hops: 2,
            },
            &[],
        );
        e.on_msg(
            wake + SimDuration::from_secs(3),
            NodeId(7),
            1,
            &ContentMsg::QueryHit {
                id,
                file: FileId(0),
                p2p_hops: 1,
            },
            &[],
        );
        let deadline = e.next_wake();
        assert_eq!(deadline, wake + cfg().response_wait);
        let (_, done) = e.tick(deadline, &[NodeId(1)]);
        let done = done.expect("window closed");
        assert_eq!(done.answers.len(), 2);
        assert_eq!(done.answers[0].holder, NodeId(5));
        assert_eq!(done.answers[1].adhoc_hops, 1);
        // Next query scheduled 15-45 s later.
        let next = e.next_wake();
        assert!(next >= deadline + cfg().think_min && next <= deadline + cfg().think_max);
    }

    #[test]
    fn holder_answers_requirer_directly_and_still_forwards() {
        let mut e = engine(3, &[5], 3);
        e.start(t(0));
        let out = e.on_msg(
            t(1),
            NodeId(2),
            2,
            &q(0, 1, 5, 6, 1),
            &[NodeId(2), NodeId(4)],
        );
        // One hit to the origin + one forward (not back to 2, not to 0).
        assert_eq!(out.len(), 2);
        assert_eq!(
            out[0],
            CSend {
                to: NodeId(0),
                msg: ContentMsg::QueryHit {
                    id: QueryId {
                        origin: NodeId(0),
                        seq: 1
                    },
                    file: FileId(5),
                    p2p_hops: 2
                }
            }
        );
        assert_eq!(out[1].to, NodeId(4));
        assert!(matches!(
            out[1].msg,
            ContentMsg::Query {
                ttl: 5,
                p2p_hops: 2,
                ..
            }
        ));
    }

    #[test]
    fn duplicate_queries_dropped() {
        let mut e = engine(3, &[], 4);
        e.start(t(0));
        let first = e.on_msg(t(1), NodeId(2), 2, &q(0, 1, 5, 6, 1), &[NodeId(4)]);
        assert_eq!(first.len(), 1);
        let dup = e.on_msg(t(2), NodeId(4), 2, &q(0, 1, 5, 5, 2), &[NodeId(2)]);
        assert!(dup.is_empty(), "rule 1: forward once");
        assert_eq!(e.stats().duplicates_dropped, 1);
    }

    #[test]
    fn never_forwards_to_sender_or_origin() {
        let mut e = engine(3, &[], 5);
        e.start(t(0));
        let out = e.on_msg(
            t(1),
            NodeId(2),
            2,
            &q(0, 1, 5, 6, 1),
            &[NodeId(0), NodeId(2), NodeId(7)],
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, NodeId(7));
    }

    #[test]
    fn ttl_exhaustion_stops_forwarding() {
        let mut e = engine(3, &[], 6);
        e.start(t(0));
        let out = e.on_msg(t(1), NodeId(2), 2, &q(0, 1, 5, 1, 5), &[NodeId(7)]);
        assert!(out.is_empty(), "ttl 1 means this node is the last hop");
    }

    #[test]
    fn own_query_echo_ignored() {
        let mut e = engine(0, &[5], 7);
        e.start(t(0));
        let out = e.on_msg(t(1), NodeId(2), 2, &q(0, 9, 5, 6, 3), &[NodeId(2)]);
        assert!(out.is_empty());
        assert_eq!(e.stats().hits_served, 0);
    }

    #[test]
    fn late_or_foreign_hits_ignored() {
        let mut e = engine(0, &[], 8);
        e.start(t(0));
        let wake = e.next_wake();
        let (out, _) = e.tick(wake, &[NodeId(1)]);
        let id = match out[0].msg {
            ContentMsg::Query { id, .. } => id,
            ref m => panic!("unexpected {m:?}"),
        };
        // A hit for some other query: ignored.
        e.on_msg(
            wake,
            NodeId(5),
            1,
            &ContentMsg::QueryHit {
                id: QueryId {
                    origin: NodeId(0),
                    seq: 999,
                },
                file: FileId(0),
                p2p_hops: 1,
            },
            &[],
        );
        let (_, done) = e.tick(wake + cfg().response_wait, &[NodeId(1)]);
        assert_eq!(done.unwrap().answers.len(), 0);
        let _ = id;
    }

    #[test]
    fn isolated_node_defers_queries() {
        let mut e = engine(0, &[], 9);
        e.start(t(0));
        let wake = e.next_wake();
        let (out, _) = e.tick(wake, &[]);
        assert!(out.is_empty());
        assert_eq!(e.stats().issued, 0);
        assert!(e.next_wake() > wake, "retry scheduled");
    }

    #[test]
    fn node_owning_everything_never_queries() {
        let all: Vec<u16> = (0..20).collect();
        let mut e = engine(0, &all, 10);
        e.start(t(0));
        let wake = e.next_wake();
        let (out, _) = e.tick(wake, &[NodeId(1)]);
        assert!(out.is_empty());
    }

    #[test]
    fn fetch_phase_downloads_from_closest_answerer() {
        let mut e = QueryEngine::new(
            NodeId(0),
            QueryCfg {
                fetch_bytes: Some(4096),
                ..cfg()
            },
            Catalog::default(),
            BTreeSet::new(),
            Rng::new(12),
        );
        e.start(t(0));
        let wake = e.next_wake();
        let (out, _) = e.tick(wake, &[NodeId(1)]);
        let (id, file) = match out[0].msg {
            ContentMsg::Query { id, file, .. } => (id, file),
            ref m => panic!("unexpected {m:?}"),
        };
        // Two answers: node 7 is closer than node 5.
        e.on_msg(
            wake,
            NodeId(5),
            4,
            &ContentMsg::QueryHit {
                id,
                file,
                p2p_hops: 2,
            },
            &[],
        );
        e.on_msg(
            wake,
            NodeId(7),
            2,
            &ContentMsg::QueryHit {
                id,
                file,
                p2p_hops: 1,
            },
            &[],
        );
        let (sends, done) = e.tick(wake + cfg().response_wait, &[NodeId(1)]);
        assert!(done.is_some());
        assert_eq!(
            sends,
            vec![CSend {
                to: NodeId(7),
                msg: ContentMsg::FetchRequest { id, file }
            }]
        );
        // The transfer arrives: the node now holds (and would serve) the file.
        e.on_msg(
            wake + SimDuration::from_secs(31),
            NodeId(7),
            2,
            &ContentMsg::FileTransfer {
                id,
                file,
                bytes: 4096,
            },
            &[],
        );
        assert!(e.files().contains(&file));
        assert_eq!(e.stats().files_fetched, 1);
    }

    #[test]
    fn holder_serves_fetch_requests_only_to_the_query_origin() {
        let mut holder = QueryEngine::new(
            NodeId(3),
            QueryCfg {
                fetch_bytes: Some(1000),
                ..cfg()
            },
            Catalog::default(),
            [FileId(5)].into_iter().collect(),
            Rng::new(13),
        );
        holder.start(t(0));
        let id = QueryId {
            origin: NodeId(0),
            seq: 1,
        };
        let legit = holder.on_msg(
            t(1),
            NodeId(0),
            2,
            &ContentMsg::FetchRequest {
                id,
                file: FileId(5),
            },
            &[],
        );
        assert_eq!(
            legit,
            vec![CSend {
                to: NodeId(0),
                msg: ContentMsg::FileTransfer {
                    id,
                    file: FileId(5),
                    bytes: 1000
                }
            }]
        );
        // A third party replaying the fetch gets nothing.
        let replay = holder.on_msg(
            t(2),
            NodeId(9),
            2,
            &ContentMsg::FetchRequest {
                id,
                file: FileId(5),
            },
            &[],
        );
        assert!(replay.is_empty());
        // Nor does anyone get a file the holder lacks.
        let missing = holder.on_msg(
            t(3),
            NodeId(0),
            2,
            &ContentMsg::FetchRequest {
                id,
                file: FileId(9),
            },
            &[],
        );
        assert!(missing.is_empty());
        assert_eq!(holder.stats().files_served, 1);
    }

    #[test]
    fn fetch_disabled_by_default() {
        let mut e = engine(0, &[], 14);
        e.start(t(0));
        let wake = e.next_wake();
        let (out, _) = e.tick(wake, &[NodeId(1)]);
        let (id, file) = match out[0].msg {
            ContentMsg::Query { id, file, .. } => (id, file),
            ref m => panic!("unexpected {m:?}"),
        };
        e.on_msg(
            wake,
            NodeId(5),
            2,
            &ContentMsg::QueryHit {
                id,
                file,
                p2p_hops: 1,
            },
            &[],
        );
        let (sends, _) = e.tick(wake + cfg().response_wait, &[NodeId(1)]);
        assert!(sends.is_empty(), "no fetch without fetch_bytes");
    }

    #[test]
    fn think_times_vary() {
        let mut e = engine(0, &[], 11);
        e.start(t(0));
        let mut wakes = std::collections::BTreeSet::new();
        let mut now = t(0);
        for _ in 0..10 {
            now = e.next_wake().max(now);
            let _ = e.tick(now, &[]);
            wakes.insert(e.next_wake().ticks() - now.ticks());
        }
        assert!(wakes.len() > 3, "think times should vary: {wakes:?}");
    }
}
