//! The `.scn` scenario DSL: a zero-dependency text format for scenarios.
//!
//! A scenario file is line-oriented: one directive per line, `#` starts a
//! comment, blank lines are ignored. Directives either take positional
//! operands (`nodes 30`, `qualifiers 1 100`) or `key=value` pairs in any
//! order (`radio range=10.0 loss=0.05`). Durations carry a unit suffix —
//! `30s`, `250ms`, `10us` (one tick = 1 µs) — and a bare number means
//! seconds. Numbers accept `0x` hex where ids and fingerprints live.
//!
//! ```text
//! scenario DEMO_BLACKHOLE
//! nodes 20
//! algo regular
//! duration 180s
//! adversary black-hole node=19
//! expect reps=2 seed=11 fingerprint=0x0 queries=0 answers=0 frames=0
//! ```
//!
//! Required directives: `scenario`, `nodes`, `algo`, `duration`. Every
//! other field defaults to the paper's Table 2 value
//! ([`Scenario::paper`]). [`parse_scn`] returns typed
//! [`ScnError`] diagnostics carrying a 1-indexed line and column;
//! semantic errors wrap the usual [`ScenarioError`]. [`render_scn`]
//! writes the canonical full form (every field explicit), and the two are
//! inverses: `parse_scn(&render_scn(&f)) == Ok(f)` for any valid file —
//! the property test in `tests/scn_props.rs` pins this.
//!
//! The hand-rolled parser follows the style of the `manet-obs` JSON
//! module: no dependencies, byte-accurate positions, typed errors.

use manet_des::{NodeId, SimDuration, SimTime, TICKS_PER_SECOND};
use p2p_core::{AdversaryRole, AlgoKind};

use crate::errors::ScenarioError;
use crate::faults::{BurstCfg, CrashEvent, JitterSpikes, LinkFlaps, PacketLoss};
use crate::scenario::{Adversary, ChurnCfg, MobilityKind, Scenario};

// ---------------------------------------------------------------------
// Public types
// ---------------------------------------------------------------------

/// A parsed scenario file: its name, the scenario, and the optional
/// pinned expectation block.
#[derive(Clone, Debug, PartialEq)]
pub struct ScnFile {
    /// The corpus name (`scenario NAME`), `[A-Za-z0-9_-]+`.
    pub name: String,
    /// The scenario the directives describe.
    pub scenario: Scenario,
    /// Pinned aggregates, if the file carries an `expect` line.
    pub expect: Option<Expect>,
}

/// Pinned golden aggregates for a corpus scenario: running `reps`
/// replications from `seed` must reproduce these numbers exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expect {
    /// Replications to run.
    pub reps: usize,
    /// Base seed (replication seeds derive from it).
    pub seed: u64,
    /// FNV-1a fold of the per-replication result fingerprints.
    pub fingerprint: u64,
    /// Total queries issued across replications.
    pub queries: u64,
    /// Total answers received across replications.
    pub answers: u64,
    /// Total frames sent across replications.
    pub frames: u64,
}

/// What went wrong at one spot of a scenario file.
#[derive(Clone, Debug, PartialEq)]
pub enum ScnErrorKind {
    /// The line starts with a word that is not a directive.
    UnknownDirective(String),
    /// A `key=value` pair uses a key the directive does not know.
    UnknownKey(String),
    /// An enumerated operand (algo, mobility kind, role…) is not one of
    /// the accepted words.
    UnknownValue(String),
    /// The directive needs an operand that is missing.
    MissingValue(&'static str),
    /// A token should have been `key=value`.
    NotKeyValue(String),
    /// A numeric operand did not parse (decimal or `0x` hex).
    BadNumber(String),
    /// A duration operand did not parse (`30s`, `250ms`, `10us`).
    BadDuration(String),
    /// A boolean operand was neither `true` nor `false`.
    BadBool(String),
    /// The scenario name contains characters outside `[A-Za-z0-9_-]`.
    BadName(String),
    /// A directive that may appear only once appeared again.
    DuplicateDirective(&'static str),
    /// A required directive never appeared.
    MissingDirective(&'static str),
    /// A required `key=` was never given.
    MissingKey(&'static str),
    /// `fault burst` without a preceding `fault loss`.
    BurstWithoutLoss,
    /// The directives parsed but describe an unsimulable scenario.
    Scenario(ScenarioError),
}

/// A scenario-file diagnostic: what went wrong, and where (1-indexed).
#[derive(Clone, Debug, PartialEq)]
pub struct ScnError {
    /// 1-indexed line of the offending token (or of the `scenario`
    /// directive for semantic errors).
    pub line: usize,
    /// 1-indexed column of the offending token.
    pub col: usize,
    /// The typed diagnosis.
    pub kind: ScnErrorKind,
}

impl std::fmt::Display for ScnErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use ScnErrorKind::*;
        match self {
            UnknownDirective(d) => write!(f, "unknown directive `{d}`"),
            UnknownKey(k) => write!(f, "unknown key `{k}`"),
            UnknownValue(v) => write!(f, "unknown value `{v}`"),
            MissingValue(what) => write!(f, "expected {what}"),
            NotKeyValue(t) => write!(f, "expected key=value, got `{t}`"),
            BadNumber(t) => write!(f, "expected a number, got `{t}`"),
            BadDuration(t) => {
                write!(f, "expected a duration (30s, 250ms, 10us), got `{t}`")
            }
            BadBool(t) => write!(f, "expected true or false, got `{t}`"),
            BadName(t) => {
                write!(f, "scenario name must match [A-Za-z0-9_-]+, got `{t}`")
            }
            DuplicateDirective(d) => write!(f, "duplicate `{d}` directive"),
            MissingDirective(d) => write!(f, "missing required `{d}` directive"),
            MissingKey(k) => write!(f, "missing required key `{k}=`"),
            BurstWithoutLoss => {
                write!(f, "`fault burst` requires a preceding `fault loss`")
            }
            Scenario(e) => write!(f, "invalid scenario: {e}"),
        }
    }
}

impl std::fmt::Display for ScnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}, col {}: {}", self.line, self.col, self.kind)
    }
}

impl std::error::Error for ScnError {}

// ---------------------------------------------------------------------
// Tokens and scalar parsers
// ---------------------------------------------------------------------

/// One whitespace-delimited token and its 1-indexed column.
#[derive(Clone, Copy)]
struct Tok<'a> {
    col: usize,
    s: &'a str,
}

/// Split a line into tokens, dropping a trailing `#` comment.
fn toks(line: &str) -> Vec<Tok<'_>> {
    let line = match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    };
    let mut out = Vec::new();
    let mut start: Option<usize> = None;
    for (i, ch) in line.char_indices() {
        if ch.is_whitespace() {
            if let Some(s) = start.take() {
                out.push(Tok {
                    col: s + 1,
                    s: &line[s..i],
                });
            }
        } else if start.is_none() {
            start = Some(i);
        }
    }
    if let Some(s) = start {
        out.push(Tok {
            col: s + 1,
            s: &line[s..],
        });
    }
    out
}

fn err(line: usize, col: usize, kind: ScnErrorKind) -> ScnError {
    ScnError { line, col, kind }
}

fn num_u64(line: usize, t: Tok<'_>) -> Result<u64, ScnError> {
    let r = match t.s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => t.s.parse(),
    };
    r.map_err(|_| err(line, t.col, ScnErrorKind::BadNumber(t.s.into())))
}

fn num_usize(line: usize, t: Tok<'_>) -> Result<usize, ScnError> {
    num_u64(line, t).map(|v| v as usize)
}

fn num_u32(line: usize, t: Tok<'_>) -> Result<u32, ScnError> {
    num_u64(line, t)?
        .try_into()
        .map_err(|_| err(line, t.col, ScnErrorKind::BadNumber(t.s.into())))
}

fn num_u16(line: usize, t: Tok<'_>) -> Result<u16, ScnError> {
    num_u64(line, t)?
        .try_into()
        .map_err(|_| err(line, t.col, ScnErrorKind::BadNumber(t.s.into())))
}

fn num_u8(line: usize, t: Tok<'_>) -> Result<u8, ScnError> {
    num_u64(line, t)?
        .try_into()
        .map_err(|_| err(line, t.col, ScnErrorKind::BadNumber(t.s.into())))
}

fn num_f64(line: usize, t: Tok<'_>) -> Result<f64, ScnError> {
    t.s.parse()
        .map_err(|_| err(line, t.col, ScnErrorKind::BadNumber(t.s.into())))
}

fn boolean(line: usize, t: Tok<'_>) -> Result<bool, ScnError> {
    match t.s {
        "true" => Ok(true),
        "false" => Ok(false),
        _ => Err(err(line, t.col, ScnErrorKind::BadBool(t.s.into()))),
    }
}

/// Parse a duration token: `Nus` / `Nms` (integers), `Ns` or a bare
/// number (whole or fractional seconds).
fn duration(line: usize, t: Tok<'_>) -> Result<SimDuration, ScnError> {
    let bad = || err(line, t.col, ScnErrorKind::BadDuration(t.s.into()));
    if let Some(v) = t.s.strip_suffix("us") {
        return v
            .parse::<u64>()
            .map(SimDuration::from_ticks)
            .map_err(|_| bad());
    }
    if let Some(v) = t.s.strip_suffix("ms") {
        return v
            .parse::<u64>()
            .map(SimDuration::from_millis)
            .map_err(|_| bad());
    }
    let v = t.s.strip_suffix('s').unwrap_or(t.s);
    if v.is_empty() {
        return Err(bad());
    }
    if let Ok(n) = v.parse::<u64>() {
        return Ok(SimDuration::from_secs(n));
    }
    let f: f64 = v.parse().map_err(|_| bad())?;
    if !f.is_finite() || f < 0.0 {
        return Err(bad());
    }
    Ok(SimDuration::from_secs_f64(f))
}

/// Split a `key=value` token; the value token's column points at the
/// value, not the key.
fn kv<'a>(line: usize, t: Tok<'a>) -> Result<(&'a str, Tok<'a>), ScnError> {
    match t.s.split_once('=') {
        Some((k, v)) if !k.is_empty() && !v.is_empty() => Ok((
            k,
            Tok {
                col: t.col + k.len() + 1,
                s: v,
            },
        )),
        _ => Err(err(line, t.col, ScnErrorKind::NotKeyValue(t.s.into()))),
    }
}

/// The directive's next positional operand, or a `MissingValue` at the
/// end of the directive word.
fn need<'a>(
    line: usize,
    after: Tok<'_>,
    rest: &[Tok<'a>],
    what: &'static str,
) -> Result<Tok<'a>, ScnError> {
    rest.first().copied().ok_or_else(|| {
        err(
            line,
            after.col + after.s.len(),
            ScnErrorKind::MissingValue(what),
        )
    })
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// Parse a `.scn` scenario file. See the module docs for the grammar.
pub fn parse_scn(text: &str) -> Result<ScnFile, ScnError> {
    let mut name: Option<String> = None;
    let mut name_line = 1usize;
    let mut s = Scenario::paper(50, AlgoKind::Basic);
    let (mut seen_nodes, mut seen_algo, mut seen_duration) = (false, false, false);
    let mut expect: Option<Expect> = None;
    let mut last_line = 0usize;

    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        last_line = line;
        let t = toks(raw);
        let Some(&head) = t.first() else { continue };
        let rest = &t[1..];
        match head.s {
            "scenario" => {
                if name.is_some() {
                    return Err(err(
                        line,
                        head.col,
                        ScnErrorKind::DuplicateDirective("scenario"),
                    ));
                }
                let n = need(line, head, rest, "a scenario name")?;
                let ok = !n.s.is_empty()
                    && n.s
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
                if !ok {
                    return Err(err(line, n.col, ScnErrorKind::BadName(n.s.into())));
                }
                name = Some(n.s.to_string());
                name_line = line;
            }
            "nodes" => {
                s.n_nodes = num_usize(line, need(line, head, rest, "a node count")?)?;
                seen_nodes = true;
            }
            "area" => s.area_side = num_f64(line, need(line, head, rest, "a side length")?)?,
            "members" => {
                s.member_fraction = num_f64(line, need(line, head, rest, "a fraction")?)?;
            }
            "algo" => {
                let v = need(line, head, rest, "an algorithm name")?;
                s.algo = match v.s {
                    "basic" => AlgoKind::Basic,
                    "regular" => AlgoKind::Regular,
                    "random" => AlgoKind::Random,
                    "hybrid" => AlgoKind::Hybrid,
                    _ => return Err(err(line, v.col, ScnErrorKind::UnknownValue(v.s.into()))),
                };
                seen_algo = true;
            }
            "duration" => {
                s.duration = duration(line, need(line, head, rest, "a duration")?)?;
                seen_duration = true;
            }
            "join-window" => {
                s.join_window = duration(line, need(line, head, rest, "a duration")?)?;
            }
            "position-refresh" => {
                s.position_refresh = duration(line, need(line, head, rest, "a duration")?)?;
            }
            "qualifiers" => {
                let lo = need(line, head, rest, "two qualifier bounds")?;
                let hi = need(line, lo, &rest[1..], "an upper qualifier bound")?;
                s.qualifier_range = (num_u32(line, lo)?, num_u32(line, hi)?);
            }
            "battery" => {
                let v = need(line, head, rest, "a budget in mJ, or none")?;
                s.battery_mj = match v.s {
                    "none" => None,
                    _ => Some(num_f64(line, v)?),
                };
            }
            "trace-capacity" => {
                s.trace_capacity = num_usize(line, need(line, head, rest, "a capacity")?)?;
            }
            "smallworld" => {
                s.smallworld_sample =
                    Some(duration(line, need(line, head, rest, "a sample period")?)?);
            }
            "mobility" => s.mobility = parse_mobility(line, head, rest)?,
            "radio" => parse_radio(line, rest, &mut s)?,
            "overlay" => parse_overlay(line, rest, &mut s)?,
            "aodv" => parse_aodv(line, rest, &mut s)?,
            "catalog" => {
                for &t in rest {
                    let (k, v) = kv(line, t)?;
                    match k {
                        "files" => s.catalog.n_files = num_u16(line, v)?,
                        "max-freq" => s.catalog.max_freq = num_f64(line, v)?,
                        _ => return Err(err(line, t.col, ScnErrorKind::UnknownKey(k.into()))),
                    }
                }
            }
            "query" => parse_query(line, rest, &mut s)?,
            "churn" => {
                let mut c = s.churn.unwrap_or(ChurnCfg {
                    mean_uptime: 60.0,
                    mean_downtime: 30.0,
                });
                for &t in rest {
                    let (k, v) = kv(line, t)?;
                    match k {
                        "up" => c.mean_uptime = num_f64(line, v)?,
                        "down" => c.mean_downtime = num_f64(line, v)?,
                        _ => return Err(err(line, t.col, ScnErrorKind::UnknownKey(k.into()))),
                    }
                }
                s.churn = Some(c);
            }
            "fault" => parse_fault(line, head, rest, &mut s)?,
            "adversary" => s.adversaries.push(parse_adversary(line, head, rest)?),
            "obs" => match rest {
                // `obs off` opts out of the default-on sink (the world
                // then dispatches to the precomputed no-op sink).
                [t] if t.s == "off" => s.obs = manet_obs::ObsConfig::disabled(),
                _ => {
                    s.obs.enabled = true;
                    for &t in rest {
                        let (k, v) = kv(line, t)?;
                        match k {
                            "sample" => s.obs.sample_period_secs = num_f64(line, v)?,
                            "recorder" => s.obs.recorder_capacity = num_usize(line, v)?,
                            _ => return Err(err(line, t.col, ScnErrorKind::UnknownKey(k.into()))),
                        }
                    }
                }
            },
            "expect" => {
                if expect.is_some() {
                    return Err(err(
                        line,
                        head.col,
                        ScnErrorKind::DuplicateDirective("expect"),
                    ));
                }
                expect = Some(parse_expect(line, head, rest)?);
            }
            _ => {
                return Err(err(
                    line,
                    head.col,
                    ScnErrorKind::UnknownDirective(head.s.into()),
                ))
            }
        }
    }

    let eof = last_line.max(1);
    let Some(name) = name else {
        return Err(err(eof, 1, ScnErrorKind::MissingDirective("scenario")));
    };
    if !seen_nodes {
        return Err(err(eof, 1, ScnErrorKind::MissingDirective("nodes")));
    }
    if !seen_algo {
        return Err(err(eof, 1, ScnErrorKind::MissingDirective("algo")));
    }
    if !seen_duration {
        return Err(err(eof, 1, ScnErrorKind::MissingDirective("duration")));
    }
    s.check()
        .map_err(|e| err(name_line, 1, ScnErrorKind::Scenario(e)))?;
    Ok(ScnFile {
        name,
        scenario: s,
        expect,
    })
}

fn parse_mobility(line: usize, head: Tok<'_>, rest: &[Tok<'_>]) -> Result<MobilityKind, ScnError> {
    let kind = need(line, head, rest, "a mobility model")?;
    let kvs = &rest[1..];
    match kind.s {
        "waypoint" => {
            let (mut speed, mut pause) = (1.0, 100.0);
            for &t in kvs {
                let (k, v) = kv(line, t)?;
                match k {
                    "speed" => speed = num_f64(line, v)?,
                    "pause" => pause = num_f64(line, v)?,
                    _ => return Err(err(line, t.col, ScnErrorKind::UnknownKey(k.into()))),
                }
            }
            Ok(MobilityKind::Waypoint {
                max_speed: speed,
                max_pause: pause,
            })
        }
        "walk" => {
            let mut speed = 1.0;
            for &t in kvs {
                let (k, v) = kv(line, t)?;
                match k {
                    "speed" => speed = num_f64(line, v)?,
                    _ => return Err(err(line, t.col, ScnErrorKind::UnknownKey(k.into()))),
                }
            }
            Ok(MobilityKind::Walk { max_speed: speed })
        }
        "gauss-markov" => Ok(MobilityKind::GaussMarkov),
        "groups" => {
            let (mut n, mut speed, mut radius) = (4usize, 1.0, 8.0);
            for &t in kvs {
                let (k, v) = kv(line, t)?;
                match k {
                    "n" => n = num_usize(line, v)?,
                    "speed" => speed = num_f64(line, v)?,
                    "radius" => radius = num_f64(line, v)?,
                    _ => return Err(err(line, t.col, ScnErrorKind::UnknownKey(k.into()))),
                }
            }
            Ok(MobilityKind::Groups {
                n_groups: n,
                max_speed: speed,
                group_radius: radius,
            })
        }
        "stationary" => Ok(MobilityKind::Stationary),
        _ => Err(err(
            line,
            kind.col,
            ScnErrorKind::UnknownValue(kind.s.into()),
        )),
    }
}

fn parse_radio(line: usize, kvs: &[Tok<'_>], s: &mut Scenario) -> Result<(), ScnError> {
    for &t in kvs {
        let (k, v) = kv(line, t)?;
        let r = &mut s.radio;
        match k {
            "range" => r.range_m = num_f64(line, v)?,
            "bitrate" => r.bitrate_bps = num_f64(line, v)?,
            "hop-latency" => r.hop_latency = duration(line, v)?,
            "jitter" => r.max_jitter = duration(line, v)?,
            "loss" => r.loss_prob = num_f64(line, v)?,
            "fuzz" => r.fuzz = num_f64(line, v)?,
            "tx-byte" => r.tx_mj_per_byte = num_f64(line, v)?,
            "tx-base" => r.tx_mj_base = num_f64(line, v)?,
            "rx-byte" => r.rx_mj_per_byte = num_f64(line, v)?,
            "rx-base" => r.rx_mj_base = num_f64(line, v)?,
            _ => return Err(err(line, t.col, ScnErrorKind::UnknownKey(k.into()))),
        }
    }
    Ok(())
}

fn parse_overlay(line: usize, kvs: &[Tok<'_>], s: &mut Scenario) -> Result<(), ScnError> {
    for &t in kvs {
        let (k, v) = kv(line, t)?;
        let o = &mut s.overlay;
        match k {
            "max-conn" => o.max_conn = num_usize(line, v)?,
            "nhops-initial" => o.nhops_initial = num_u8(line, v)?,
            "max-nhops" => o.max_nhops = num_u8(line, v)?,
            "nhops-basic" => o.nhops_basic = num_u8(line, v)?,
            "max-dist" => o.max_dist = num_u8(line, v)?,
            "timer-initial" => o.timer_initial = duration(line, v)?,
            "max-timer" => o.max_timer = duration(line, v)?,
            "basic-timer" => o.basic_timer = duration(line, v)?,
            "ping" => o.ping_interval = duration(line, v)?,
            "pong-timeout" => o.pong_timeout = duration(line, v)?,
            "handshake-timeout" => o.handshake_timeout = duration(line, v)?,
            "random-wait" => o.random_response_wait = duration(line, v)?,
            "max-slaves" => o.max_slaves = num_usize(line, v)?,
            "master-idle" => o.master_idle_timeout = duration(line, v)?,
            _ => return Err(err(line, t.col, ScnErrorKind::UnknownKey(k.into()))),
        }
    }
    Ok(())
}

fn parse_aodv(line: usize, kvs: &[Tok<'_>], s: &mut Scenario) -> Result<(), ScnError> {
    for &t in kvs {
        let (k, v) = kv(line, t)?;
        let a = &mut s.aodv;
        match k {
            "route-lifetime" => a.active_route_lifetime = duration(line, v)?,
            "ttl-start" => a.ttl_start = num_u8(line, v)?,
            "ttl-increment" => a.ttl_increment = num_u8(line, v)?,
            "ttl-threshold" => a.ttl_threshold = num_u8(line, v)?,
            "net-diameter" => a.net_diameter = num_u8(line, v)?,
            "rreq-retries" => a.rreq_retries = num_u8(line, v)?,
            "hop-traversal" => a.hop_traversal_time = duration(line, v)?,
            "rreq-seen" => a.rreq_seen_lifetime = duration(line, v)?,
            "flood-cache" => a.flood_cache_lifetime = duration(line, v)?,
            "learn-from-flood" => a.learn_routes_from_flood = boolean(line, v)?,
            "max-buffered" => a.max_buffered_per_dest = num_usize(line, v)?,
            "max-data-hops" => a.max_data_hops = num_u8(line, v)?,
            "hello" => {
                a.hello_interval = match v.s {
                    "none" => None,
                    _ => Some(duration(line, v)?),
                };
            }
            "hello-loss" => a.allowed_hello_loss = num_u32(line, v)?,
            _ => return Err(err(line, t.col, ScnErrorKind::UnknownKey(k.into()))),
        }
    }
    Ok(())
}

fn parse_query(line: usize, kvs: &[Tok<'_>], s: &mut Scenario) -> Result<(), ScnError> {
    for &t in kvs {
        let (k, v) = kv(line, t)?;
        let q = &mut s.query;
        match k {
            "ttl" => q.ttl = num_u8(line, v)?,
            "response-wait" => q.response_wait = duration(line, v)?,
            "think-min" => q.think_min = duration(line, v)?,
            "think-max" => q.think_max = duration(line, v)?,
            "zipf" => q.zipf_targets = boolean(line, v)?,
            "seen" => q.seen_lifetime = duration(line, v)?,
            "fetch" => {
                q.fetch_bytes = match v.s {
                    "none" => None,
                    _ => Some(num_u32(line, v)?),
                };
            }
            _ => return Err(err(line, t.col, ScnErrorKind::UnknownKey(k.into()))),
        }
    }
    Ok(())
}

fn parse_fault(
    line: usize,
    head: Tok<'_>,
    rest: &[Tok<'_>],
    s: &mut Scenario,
) -> Result<(), ScnError> {
    let sub = need(
        line,
        head,
        rest,
        "a fault kind (loss, burst, crash, flaps, jitter)",
    )?;
    let kvs = &rest[1..];
    match sub.s {
        "loss" => {
            let mut base = 0.0;
            for &t in kvs {
                let (k, v) = kv(line, t)?;
                match k {
                    "base" => base = num_f64(line, v)?,
                    _ => return Err(err(line, t.col, ScnErrorKind::UnknownKey(k.into()))),
                }
            }
            let burst = s.faults.loss.and_then(|l| l.burst);
            s.faults.loss = Some(PacketLoss { base, burst });
        }
        "burst" => {
            let Some(loss) = s.faults.loss.as_mut() else {
                return Err(err(line, sub.col, ScnErrorKind::BurstWithoutLoss));
            };
            let mut b = BurstCfg {
                mean_quiet: 40.0,
                mean_burst: 10.0,
                burst_loss: 0.5,
            };
            for &t in kvs {
                let (k, v) = kv(line, t)?;
                match k {
                    "quiet" => b.mean_quiet = num_f64(line, v)?,
                    "burst" => b.mean_burst = num_f64(line, v)?,
                    "loss" => b.burst_loss = num_f64(line, v)?,
                    _ => return Err(err(line, t.col, ScnErrorKind::UnknownKey(k.into()))),
                }
            }
            loss.burst = Some(b);
        }
        "crash" => {
            let (mut node, mut at, mut restart) = (None, SimTime::ZERO, None);
            for &t in kvs {
                let (k, v) = kv(line, t)?;
                match k {
                    "node" => node = Some(num_u32(line, v)?),
                    "at" => at = SimTime::from_ticks(duration(line, v)?.ticks()),
                    "restart" => {
                        restart = match v.s {
                            "none" => None,
                            _ => Some(duration(line, v)?),
                        };
                    }
                    _ => return Err(err(line, t.col, ScnErrorKind::UnknownKey(k.into()))),
                }
            }
            let Some(node) = node else {
                return Err(err(line, sub.col, ScnErrorKind::MissingKey("node")));
            };
            s.faults.crashes.push(CrashEvent {
                node: NodeId(node),
                at,
                restart_after: restart,
            });
        }
        "flaps" => {
            let mut f = LinkFlaps {
                period: SimDuration::from_secs(90),
                down: SimDuration::from_secs(5),
            };
            for &t in kvs {
                let (k, v) = kv(line, t)?;
                match k {
                    "period" => f.period = duration(line, v)?,
                    "down" => f.down = duration(line, v)?,
                    _ => return Err(err(line, t.col, ScnErrorKind::UnknownKey(k.into()))),
                }
            }
            s.faults.link_flaps = Some(f);
        }
        "jitter" => {
            let mut j = JitterSpikes {
                period: SimDuration::from_secs(70),
                width: SimDuration::from_secs(10),
                extra_delay: SimDuration::from_millis(40),
            };
            for &t in kvs {
                let (k, v) = kv(line, t)?;
                match k {
                    "period" => j.period = duration(line, v)?,
                    "width" => j.width = duration(line, v)?,
                    "delay" => j.extra_delay = duration(line, v)?,
                    _ => return Err(err(line, t.col, ScnErrorKind::UnknownKey(k.into()))),
                }
            }
            s.faults.jitter = Some(j);
        }
        _ => return Err(err(line, sub.col, ScnErrorKind::UnknownValue(sub.s.into()))),
    }
    Ok(())
}

fn parse_adversary(line: usize, head: Tok<'_>, rest: &[Tok<'_>]) -> Result<Adversary, ScnError> {
    let role_tok = need(line, head, rest, "an adversary role")?;
    let kvs = &rest[1..];
    let mut node = None;
    let mut drop_nth = 2u32;
    let mut factor = 2u8;
    let mut period = SimDuration::from_secs(10);
    for &t in kvs {
        let (k, v) = kv(line, t)?;
        match k {
            "node" => node = Some(num_u32(line, v)?),
            "drop-nth" => drop_nth = num_u32(line, v)?,
            "factor" => factor = num_u8(line, v)?,
            "period" => period = duration(line, v)?,
            _ => return Err(err(line, t.col, ScnErrorKind::UnknownKey(k.into()))),
        }
    }
    let role = match role_tok.s {
        "black-hole" => AdversaryRole::BlackHole,
        "grey-hole" => AdversaryRole::GreyHole { drop_nth },
        "rreq-amplifier" => AdversaryRole::RreqAmplifier { factor },
        "query-flooder" => AdversaryRole::QueryFlooder { period },
        "selfish" => AdversaryRole::Selfish,
        _ => {
            return Err(err(
                line,
                role_tok.col,
                ScnErrorKind::UnknownValue(role_tok.s.into()),
            ))
        }
    };
    let Some(node) = node else {
        return Err(err(line, role_tok.col, ScnErrorKind::MissingKey("node")));
    };
    Ok(Adversary {
        node: NodeId(node),
        role,
    })
}

fn parse_expect(line: usize, head: Tok<'_>, kvs: &[Tok<'_>]) -> Result<Expect, ScnError> {
    let (mut reps, mut seed, mut fingerprint) = (None, None, None);
    let (mut queries, mut answers, mut frames) = (0, 0, 0);
    for &t in kvs {
        let (k, v) = kv(line, t)?;
        match k {
            "reps" => reps = Some(num_usize(line, v)?),
            "seed" => seed = Some(num_u64(line, v)?),
            "fingerprint" => fingerprint = Some(num_u64(line, v)?),
            "queries" => queries = num_u64(line, v)?,
            "answers" => answers = num_u64(line, v)?,
            "frames" => frames = num_u64(line, v)?,
            _ => return Err(err(line, t.col, ScnErrorKind::UnknownKey(k.into()))),
        }
    }
    let missing = |k| err(line, head.col, ScnErrorKind::MissingKey(k));
    Ok(Expect {
        reps: reps.ok_or_else(|| missing("reps"))?,
        seed: seed.ok_or_else(|| missing("seed"))?,
        fingerprint: fingerprint.ok_or_else(|| missing("fingerprint"))?,
        queries,
        answers,
        frames,
    })
}

// ---------------------------------------------------------------------
// Renderer
// ---------------------------------------------------------------------

/// Render a duration in the shortest exact unit: whole seconds, whole
/// milliseconds, else raw microsecond ticks.
fn dur(d: SimDuration) -> String {
    let t = d.ticks();
    if t.is_multiple_of(TICKS_PER_SECOND) {
        format!("{}s", t / TICKS_PER_SECOND)
    } else if t.is_multiple_of(1_000) {
        format!("{}ms", t / 1_000)
    } else {
        format!("{t}us")
    }
}

/// Render an `f64` exactly (`{:?}` is shortest-round-trip in Rust).
fn flt(x: f64) -> String {
    format!("{x:?}")
}

/// Render a scenario file in canonical form: every field explicit, fixed
/// directive order. [`parse_scn`] of the output reproduces the input
/// file exactly.
pub fn render_scn(file: &ScnFile) -> String {
    let s = &file.scenario;
    let mut out = String::new();
    let mut line = |l: String| {
        out.push_str(&l);
        out.push('\n');
    };
    line(format!("scenario {}", file.name));
    line(format!("nodes {}", s.n_nodes));
    line(format!("area {}", flt(s.area_side)));
    line(format!("members {}", flt(s.member_fraction)));
    line(format!("algo {}", s.algo.name().to_ascii_lowercase()));
    line(format!("duration {}", dur(s.duration)));
    line(format!("join-window {}", dur(s.join_window)));
    line(format!("position-refresh {}", dur(s.position_refresh)));
    line(format!(
        "qualifiers {} {}",
        s.qualifier_range.0, s.qualifier_range.1
    ));
    line(format!("trace-capacity {}", s.trace_capacity));
    if let Some(mj) = s.battery_mj {
        line(format!("battery {}", flt(mj)));
    }
    if let Some(p) = s.smallworld_sample {
        line(format!("smallworld {}", dur(p)));
    }
    let mobility = match s.mobility {
        MobilityKind::Waypoint {
            max_speed,
            max_pause,
        } => format!("waypoint speed={} pause={}", flt(max_speed), flt(max_pause)),
        MobilityKind::Walk { max_speed } => format!("walk speed={}", flt(max_speed)),
        MobilityKind::GaussMarkov => "gauss-markov".into(),
        MobilityKind::Groups {
            n_groups,
            max_speed,
            group_radius,
        } => format!(
            "groups n={} speed={} radius={}",
            n_groups,
            flt(max_speed),
            flt(group_radius)
        ),
        MobilityKind::Stationary => "stationary".into(),
    };
    line(format!("mobility {mobility}"));
    let r = &s.radio;
    line(format!(
        "radio range={} bitrate={} hop-latency={} jitter={} loss={} fuzz={} \
         tx-byte={} tx-base={} rx-byte={} rx-base={}",
        flt(r.range_m),
        flt(r.bitrate_bps),
        dur(r.hop_latency),
        dur(r.max_jitter),
        flt(r.loss_prob),
        flt(r.fuzz),
        flt(r.tx_mj_per_byte),
        flt(r.tx_mj_base),
        flt(r.rx_mj_per_byte),
        flt(r.rx_mj_base),
    ));
    let o = &s.overlay;
    line(format!(
        "overlay max-conn={} nhops-initial={} max-nhops={} nhops-basic={} max-dist={} \
         timer-initial={} max-timer={} basic-timer={} ping={} pong-timeout={} \
         handshake-timeout={} random-wait={} max-slaves={} master-idle={}",
        o.max_conn,
        o.nhops_initial,
        o.max_nhops,
        o.nhops_basic,
        o.max_dist,
        dur(o.timer_initial),
        dur(o.max_timer),
        dur(o.basic_timer),
        dur(o.ping_interval),
        dur(o.pong_timeout),
        dur(o.handshake_timeout),
        dur(o.random_response_wait),
        o.max_slaves,
        dur(o.master_idle_timeout),
    ));
    let a = &s.aodv;
    line(format!(
        "aodv route-lifetime={} ttl-start={} ttl-increment={} ttl-threshold={} \
         net-diameter={} rreq-retries={} hop-traversal={} rreq-seen={} flood-cache={} \
         learn-from-flood={} max-buffered={} max-data-hops={} hello={} hello-loss={}",
        dur(a.active_route_lifetime),
        a.ttl_start,
        a.ttl_increment,
        a.ttl_threshold,
        a.net_diameter,
        a.rreq_retries,
        dur(a.hop_traversal_time),
        dur(a.rreq_seen_lifetime),
        dur(a.flood_cache_lifetime),
        a.learn_routes_from_flood,
        a.max_buffered_per_dest,
        a.max_data_hops,
        a.hello_interval.map_or("none".into(), dur),
        a.allowed_hello_loss,
    ));
    line(format!(
        "catalog files={} max-freq={}",
        s.catalog.n_files,
        flt(s.catalog.max_freq)
    ));
    let q = &s.query;
    line(format!(
        "query ttl={} response-wait={} think-min={} think-max={} zipf={} seen={} fetch={}",
        q.ttl,
        dur(q.response_wait),
        dur(q.think_min),
        dur(q.think_max),
        q.zipf_targets,
        dur(q.seen_lifetime),
        q.fetch_bytes.map_or("none".into(), |b| b.to_string()),
    ));
    if let Some(c) = s.churn {
        line(format!(
            "churn up={} down={}",
            flt(c.mean_uptime),
            flt(c.mean_downtime)
        ));
    }
    if let Some(loss) = s.faults.loss {
        line(format!("fault loss base={}", flt(loss.base)));
        if let Some(b) = loss.burst {
            line(format!(
                "fault burst quiet={} burst={} loss={}",
                flt(b.mean_quiet),
                flt(b.mean_burst),
                flt(b.burst_loss)
            ));
        }
    }
    for c in &s.faults.crashes {
        line(format!(
            "fault crash node={} at={} restart={}",
            c.node.0,
            dur(SimDuration::from_ticks(c.at.ticks())),
            c.restart_after.map_or("none".into(), dur),
        ));
    }
    if let Some(f) = s.faults.link_flaps {
        line(format!(
            "fault flaps period={} down={}",
            dur(f.period),
            dur(f.down)
        ));
    }
    if let Some(j) = s.faults.jitter {
        line(format!(
            "fault jitter period={} width={} delay={}",
            dur(j.period),
            dur(j.width),
            dur(j.extra_delay)
        ));
    }
    for adv in &s.adversaries {
        let extra = match adv.role {
            AdversaryRole::BlackHole | AdversaryRole::Selfish => String::new(),
            AdversaryRole::GreyHole { drop_nth } => format!(" drop-nth={drop_nth}"),
            AdversaryRole::RreqAmplifier { factor } => format!(" factor={factor}"),
            AdversaryRole::QueryFlooder { period } => format!(" period={}", dur(period)),
        };
        line(format!(
            "adversary {} node={}{}",
            adv.role.name(),
            adv.node.0,
            extra
        ));
    }
    if s.obs.enabled {
        line(format!(
            "obs sample={} recorder={}",
            flt(s.obs.sample_period_secs),
            s.obs.recorder_capacity
        ));
    } else {
        // Observability is on by default, so the opt-out must be explicit
        // for the render/parse inverse to hold.
        line("obs off".into());
    }
    if let Some(e) = &file.expect {
        line(render_expect(e));
    }
    out
}

/// Render an `expect` line (used by the corpus re-pin mode too).
pub fn render_expect(e: &Expect) -> String {
    format!(
        "expect reps={} seed={} fingerprint={:#018x} queries={} answers={} frames={}",
        e.reps, e.seed, e.fingerprint, e.queries, e.answers, e.frames
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> String {
        "scenario T\nnodes 10\nalgo regular\nduration 60s\n".to_string()
    }

    #[test]
    fn minimal_file_parses_with_paper_defaults() {
        let f = parse_scn(&minimal()).unwrap();
        assert_eq!(f.name, "T");
        assert_eq!(f.scenario.n_nodes, 10);
        assert_eq!(f.scenario.algo, AlgoKind::Regular);
        assert_eq!(f.scenario.duration, SimDuration::from_secs(60));
        // Everything else keeps Table 2 defaults.
        assert_eq!(f.scenario.radio.range_m, 10.0);
        assert_eq!(f.scenario.member_fraction, 0.75);
        assert!(f.expect.is_none());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# header\n\nscenario T # trailing\nnodes 10\nalgo basic\nduration 60s\n";
        assert!(parse_scn(text).is_ok());
    }

    #[test]
    fn adversary_free_file_equals_programmatic_quick() {
        // The bit-identity bridge: this file is Scenario::quick(30, Regular, 240).
        let text = "scenario Q\nnodes 30\nalgo regular\nduration 240s\njoin-window 10s\n";
        let f = parse_scn(text).unwrap();
        assert_eq!(f.scenario, Scenario::quick(30, AlgoKind::Regular, 240));
    }

    #[test]
    fn every_directive_round_trips() {
        let mut s = Scenario::paper(24, AlgoKind::Hybrid);
        s.duration = SimDuration::from_secs(300);
        s.join_window = SimDuration::from_millis(12_500);
        s.battery_mj = Some(400.0);
        s.churn = Some(ChurnCfg {
            mean_uptime: 60.0,
            mean_downtime: 30.0,
        });
        s.smallworld_sample = Some(SimDuration::from_secs(60));
        s.trace_capacity = 512;
        s.mobility = MobilityKind::Groups {
            n_groups: 4,
            max_speed: 1.5,
            group_radius: 8.0,
        };
        s.radio.loss_prob = 0.05;
        s.radio.fuzz = 0.25;
        s.aodv.hello_interval = Some(SimDuration::from_secs(2));
        s.query.fetch_bytes = Some(2048);
        s.query.zipf_targets = false;
        s.faults.loss = Some(PacketLoss {
            base: 0.05,
            burst: Some(BurstCfg {
                mean_quiet: 40.0,
                mean_burst: 10.0,
                burst_loss: 0.6,
            }),
        });
        s.faults.crashes.push(CrashEvent {
            node: NodeId(3),
            at: SimTime::from_secs(100),
            restart_after: Some(SimDuration::from_secs(60)),
        });
        s.faults.link_flaps = Some(LinkFlaps {
            period: SimDuration::from_secs(90),
            down: SimDuration::from_secs(5),
        });
        s.faults.jitter = Some(JitterSpikes {
            period: SimDuration::from_secs(70),
            width: SimDuration::from_secs(10),
            extra_delay: SimDuration::from_millis(40),
        });
        s.adversaries = vec![
            Adversary {
                node: NodeId(0),
                role: AdversaryRole::BlackHole,
            },
            Adversary {
                node: NodeId(1),
                role: AdversaryRole::GreyHole { drop_nth: 3 },
            },
            Adversary {
                node: NodeId(2),
                role: AdversaryRole::RreqAmplifier { factor: 4 },
            },
            Adversary {
                node: NodeId(3),
                role: AdversaryRole::QueryFlooder {
                    period: SimDuration::from_secs(7),
                },
            },
            Adversary {
                node: NodeId(4),
                role: AdversaryRole::Selfish,
            },
        ];
        s.obs.enabled = true;
        s.obs.sample_period_secs = 5.0;
        let file = ScnFile {
            name: "KITCHEN_SINK".into(),
            scenario: s,
            expect: Some(Expect {
                reps: 2,
                seed: 11,
                fingerprint: 0xdead_beef_cafe_f00d,
                queries: 123,
                answers: 45,
                frames: 6789,
            }),
        };
        let text = render_scn(&file);
        let parsed = parse_scn(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
        assert_eq!(parsed, file);
    }

    #[test]
    fn obs_off_round_trips() {
        let mut s = Scenario::quick(20, AlgoKind::Regular, 60);
        s.obs = manet_obs::ObsConfig::disabled();
        let file = ScnFile {
            name: "QUIET".into(),
            scenario: s,
            expect: None,
        };
        let text = render_scn(&file);
        assert!(text.contains("obs off"), "missing opt-out:\n{text}");
        let parsed = parse_scn(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
        assert_eq!(parsed, file);
        // The default-on sink renders as an explicit obs line instead.
        let default = ScnFile {
            name: "DEFAULT".into(),
            scenario: Scenario::quick(20, AlgoKind::Regular, 60),
            expect: None,
        };
        let text = render_scn(&default);
        assert!(text.contains("obs sample="), "default renders on:\n{text}");
        assert!(!text.contains("obs off"));
    }

    #[test]
    fn errors_carry_exact_positions() {
        // Unknown directive on line 2, col 1.
        let e = parse_scn("scenario T\nfrobnicate 1\n").unwrap_err();
        assert_eq!((e.line, e.col), (2, 1));
        assert_eq!(e.kind, ScnErrorKind::UnknownDirective("frobnicate".into()));

        // Bad number: col points at the operand.
        let e = parse_scn("scenario T\nnodes many\n").unwrap_err();
        assert_eq!((e.line, e.col), (2, 7));
        assert_eq!(e.kind, ScnErrorKind::BadNumber("many".into()));

        // Bad value inside a key=value: col points past the `=`.
        let e = parse_scn("scenario T\nnodes 10\nalgo basic\nduration 60s\nradio loss=lots\n")
            .unwrap_err();
        assert_eq!((e.line, e.col), (5, 12));
        assert_eq!(e.kind, ScnErrorKind::BadNumber("lots".into()));

        // Missing operand: col points just past the directive word.
        let e = parse_scn("scenario\n").unwrap_err();
        assert_eq!((e.line, e.col), (1, 9));
        assert!(matches!(e.kind, ScnErrorKind::MissingValue(_)));

        // Bad duration.
        let e = parse_scn("scenario T\nduration soon\n").unwrap_err();
        assert_eq!((e.line, e.col), (2, 10));
        assert_eq!(e.kind, ScnErrorKind::BadDuration("soon".into()));

        // Display always mentions the position.
        assert!(e.to_string().starts_with("line 2, col 10:"));
    }

    #[test]
    fn missing_required_directives_are_reported() {
        let e = parse_scn("nodes 10\nalgo basic\nduration 60s\n").unwrap_err();
        assert_eq!(e.kind, ScnErrorKind::MissingDirective("scenario"));
        let e = parse_scn("scenario T\nalgo basic\nduration 60s\n").unwrap_err();
        assert_eq!(e.kind, ScnErrorKind::MissingDirective("nodes"));
        let e = parse_scn("scenario T\nnodes 10\nduration 60s\n").unwrap_err();
        assert_eq!(e.kind, ScnErrorKind::MissingDirective("algo"));
        let e = parse_scn("scenario T\nnodes 10\nalgo basic\n").unwrap_err();
        assert_eq!(e.kind, ScnErrorKind::MissingDirective("duration"));
    }

    #[test]
    fn semantic_errors_wrap_scenario_error() {
        let e = parse_scn("scenario T\nnodes 1\nalgo basic\nduration 60s\n").unwrap_err();
        assert_eq!(
            e.kind,
            ScnErrorKind::Scenario(ScenarioError::TooFewNodes { n_nodes: 1 })
        );
        assert!(e.line >= 1 && e.col >= 1);

        let e =
            parse_scn("scenario T\nnodes 10\nalgo basic\nduration 60s\nadversary selfish node=9\n")
                .unwrap_err();
        assert!(matches!(
            e.kind,
            ScnErrorKind::Scenario(ScenarioError::AdversaryNotMember { node: 9, .. })
        ));
    }

    #[test]
    fn infinite_area_is_a_typed_error() {
        let e =
            parse_scn("scenario T\nnodes 10\nalgo regular\nduration 60s\narea inf\n").unwrap_err();
        assert!(matches!(
            e.kind,
            ScnErrorKind::Scenario(ScenarioError::NonFiniteArea { side }) if side.is_infinite()
        ));
    }

    #[test]
    fn huge_area_runs_on_a_grid_sized_by_its_nodes() {
        // Ten nodes over a 1e9 m square: cells of the 10 m radio range
        // would number 1e16, so the grid coarsens to ⌈2√10⌉ = 7 per side.
        let f = parse_scn("scenario T\nnodes 10\nalgo regular\nduration 60s\narea 1e9\n").unwrap();
        let r = crate::World::try_new(f.scenario, 7).unwrap().run();
        assert!(r.events > 0);
        assert_eq!(r.answers_received, 0, "no two nodes are ever in range");
    }

    #[test]
    fn burst_requires_loss() {
        let e = parse_scn("scenario T\nfault burst quiet=40.0\n").unwrap_err();
        assert_eq!(e.kind, ScnErrorKind::BurstWithoutLoss);
        assert_eq!((e.line, e.col), (2, 7));
    }

    #[test]
    fn adversary_requires_node() {
        let e = parse_scn("scenario T\nadversary black-hole\n").unwrap_err();
        assert_eq!(e.kind, ScnErrorKind::MissingKey("node"));
    }

    #[test]
    fn duplicate_scenario_and_expect_rejected() {
        let e = parse_scn("scenario A\nscenario B\n").unwrap_err();
        assert_eq!(e.kind, ScnErrorKind::DuplicateDirective("scenario"));
        let two = "scenario T\nnodes 10\nalgo basic\nduration 60s\n\
                   expect reps=1 seed=1 fingerprint=0x1\nexpect reps=1 seed=1 fingerprint=0x1\n";
        let e = parse_scn(two).unwrap_err();
        assert_eq!(e.kind, ScnErrorKind::DuplicateDirective("expect"));
    }

    #[test]
    fn durations_accept_all_units() {
        let f = parse_scn(
            "scenario T\nnodes 10\nalgo basic\nduration 60\n\
             join-window 2500ms\nposition-refresh 125000us\n",
        )
        .unwrap();
        assert_eq!(f.scenario.duration, SimDuration::from_secs(60));
        assert_eq!(f.scenario.join_window, SimDuration::from_millis(2500));
        assert_eq!(
            f.scenario.position_refresh,
            SimDuration::from_ticks(125_000)
        );
    }

    #[test]
    fn expect_hex_and_decimal_numbers() {
        let f = parse_scn(
            "scenario T\nnodes 10\nalgo basic\nduration 60s\n\
             expect reps=2 seed=0x2a fingerprint=0xdeadbeef queries=7\n",
        )
        .unwrap();
        let e = f.expect.unwrap();
        assert_eq!(e.reps, 2);
        assert_eq!(e.seed, 42);
        assert_eq!(e.fingerprint, 0xdead_beef);
        assert_eq!(e.queries, 7);
        assert_eq!(e.answers, 0);
    }
}
