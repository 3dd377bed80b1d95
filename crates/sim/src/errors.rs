//! Typed scenario-validation errors.
//!
//! [`Scenario::check`](crate::Scenario::check) and
//! [`FaultPlan::check`](crate::FaultPlan::check) return these instead of
//! panicking, so harnesses building scenarios from user input (CLI sweeps,
//! config files) can report the offending parameter. The panicking
//! `validate()` wrappers remain for test and assertion paths; their
//! messages are the `Display` forms below.

/// Why a [`Scenario`](crate::Scenario) cannot be simulated.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioError {
    /// Fewer than two nodes — no network to speak of.
    TooFewNodes {
        /// The configured node count.
        n_nodes: usize,
    },
    /// The area side is zero, negative, or NaN.
    NonPositiveArea {
        /// The configured side length, metres.
        side: f64,
    },
    /// The area side is infinite.
    NonFiniteArea {
        /// The configured side length, metres.
        side: f64,
    },
    /// The member fraction lies outside `[0, 1]`.
    MemberFractionOutOfRange {
        /// The configured fraction.
        fraction: f64,
    },
    /// `round(n_nodes * member_fraction)` is zero — nobody would join.
    NoMembers,
    /// The simulated duration is zero.
    ZeroDuration,
    /// The position-refresh period is zero (mobility would never settle).
    ZeroPositionRefresh,
    /// The qualifier range is inverted (`lo > hi`).
    QualifierRangeInverted {
        /// Lower bound.
        lo: u32,
        /// Upper bound.
        hi: u32,
    },
    /// The radio configuration is out of domain.
    Radio(String),
    /// The overlay parameters are internally inconsistent.
    Overlay(String),
    /// The routing configuration is out of domain.
    Routing(String),
    /// The file catalogue is out of domain.
    Catalog(String),
    /// A churn dwell-time mean is zero, negative, or NaN.
    NonPositiveChurnDwell {
        /// Mean uptime, seconds.
        mean_uptime: f64,
        /// Mean downtime, seconds.
        mean_downtime: f64,
    },
    /// Group mobility with zero groups.
    NoGroups,
    /// A mobility maximum speed is zero, negative, or NaN.
    NonPositiveSpeed {
        /// The configured speed, m/s.
        speed: f64,
    },
    /// The waypoint maximum pause is negative or NaN.
    NegativePause {
        /// The configured pause, seconds.
        pause: f64,
    },
    /// Group mobility with a non-positive (or NaN) group radius.
    NonPositiveGroupRadius {
        /// The configured radius, metres.
        radius: f64,
    },
    /// More mobility groups than nodes — some groups would be empty.
    GroupsExceedNodes {
        /// The configured group count.
        n_groups: usize,
        /// Nodes in the world.
        n_nodes: usize,
    },
    /// The battery budget is zero, negative, or NaN.
    NonPositiveBattery {
        /// The configured budget, millijoules.
        mj: f64,
    },
    /// An adversary names a node outside the world.
    AdversaryOutOfRange {
        /// The adversarial node.
        node: u32,
        /// Nodes in the world.
        n_nodes: usize,
    },
    /// Two adversary entries name the same node.
    DuplicateAdversary {
        /// The node named twice.
        node: u32,
    },
    /// An overlay-layer adversary (selfish, query-flooder) sits on a node
    /// that is not a p2p member.
    AdversaryNotMember {
        /// The adversarial node.
        node: u32,
        /// Member count; member node ids are `0..n_members`.
        n_members: usize,
    },
    /// A grey-hole with `drop_nth < 2` (that is a black-hole).
    GreyHoleDropTooSmall {
        /// The configured drop modulus.
        drop_nth: u32,
    },
    /// An RREQ amplifier factor outside `2..=8`.
    AmplifierFactorOutOfRange {
        /// The configured factor.
        factor: u8,
    },
    /// A query-flooder with a zero period.
    FlooderPeriodZero {
        /// The flooding node.
        node: u32,
    },
    /// The observability sample period is negative.
    NegativeObsSamplePeriod {
        /// The configured period, seconds.
        secs: f64,
    },
    /// The fault plan's base loss is not a probability.
    LossNotProbability {
        /// The configured loss.
        prob: f64,
    },
    /// A burst dwell-time mean is zero, negative, or NaN.
    BurstDwellNotPositive {
        /// Mean quiet dwell, seconds.
        mean_quiet: f64,
        /// Mean burst dwell, seconds.
        mean_burst: f64,
    },
    /// The burst loss is not a probability.
    BurstLossNotProbability {
        /// The configured loss.
        prob: f64,
    },
    /// A scripted crash names a node outside the world.
    CrashTargetOutOfRange {
        /// The crash target.
        node: u32,
        /// Nodes in the world.
        n_nodes: usize,
    },
    /// A crash restart delay is zero.
    ZeroRestartDelay {
        /// The crash target.
        node: u32,
    },
    /// The link-flap period is zero.
    FlapPeriodZero,
    /// The flap down-time is not shorter than the period.
    FlapDownNotShorter,
    /// The flap down-time is zero.
    FlapDownZero,
    /// The jitter period is zero.
    JitterPeriodZero,
    /// The jitter width is not shorter than the period.
    JitterWidthNotShorter,
    /// The jitter width is zero.
    JitterWidthZero,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use ScenarioError::*;
        match self {
            TooFewNodes { n_nodes } => write!(f, "need at least two nodes, got {n_nodes}"),
            NonPositiveArea { side } => write!(f, "area side must be positive, got {side}"),
            NonFiniteArea { side } => write!(f, "area side must be finite, got {side}"),
            MemberFractionOutOfRange { fraction } => {
                write!(f, "member fraction must lie in [0, 1], got {fraction}")
            }
            NoMembers => write!(f, "at least one member required"),
            ZeroDuration => write!(f, "simulated duration must be positive"),
            ZeroPositionRefresh => write!(f, "position refresh must be positive"),
            QualifierRangeInverted { lo, hi } => {
                write!(f, "qualifier range is inverted: {lo} > {hi}")
            }
            Radio(msg) => write!(f, "radio: {msg}"),
            Overlay(msg) => write!(f, "overlay: {msg}"),
            Routing(msg) => write!(f, "routing: {msg}"),
            Catalog(msg) => write!(f, "catalog: {msg}"),
            NonPositiveChurnDwell {
                mean_uptime,
                mean_downtime,
            } => write!(
                f,
                "churn dwell means must be positive, got up {mean_uptime} / down {mean_downtime}"
            ),
            NoGroups => write!(f, "need at least one group"),
            NonPositiveSpeed { speed } => {
                write!(f, "mobility max speed must be positive, got {speed}")
            }
            NegativePause { pause } => {
                write!(f, "waypoint max pause must be non-negative, got {pause}")
            }
            NonPositiveGroupRadius { radius } => {
                write!(f, "group radius must be positive, got {radius}")
            }
            GroupsExceedNodes { n_groups, n_nodes } => write!(
                f,
                "{n_groups} groups over {n_nodes} nodes leaves empty groups"
            ),
            NonPositiveBattery { mj } => {
                write!(f, "battery budget must be positive, got {mj} mJ")
            }
            AdversaryOutOfRange { node, n_nodes } => {
                write!(f, "adversary names node {node} but the world has {n_nodes}")
            }
            DuplicateAdversary { node } => {
                write!(f, "node {node} has more than one adversarial role")
            }
            AdversaryNotMember { node, n_members } => write!(
                f,
                "adversary on node {node} needs p2p membership (members are 0..{n_members})"
            ),
            GreyHoleDropTooSmall { drop_nth } => write!(
                f,
                "grey-hole drop_nth must be at least 2, got {drop_nth} (use black-hole)"
            ),
            AmplifierFactorOutOfRange { factor } => {
                write!(f, "rreq-amplifier factor must lie in 2..=8, got {factor}")
            }
            FlooderPeriodZero { node } => {
                write!(f, "query-flooder period must be positive (node {node})")
            }
            NegativeObsSamplePeriod { secs } => {
                write!(f, "negative obs sample period: {secs}")
            }
            LossNotProbability { prob } => {
                write!(f, "fault base loss must be a probability, got {prob}")
            }
            BurstDwellNotPositive {
                mean_quiet,
                mean_burst,
            } => write!(
                f,
                "burst dwell means must be positive, got quiet {mean_quiet} / burst {mean_burst}"
            ),
            BurstLossNotProbability { prob } => {
                write!(f, "burst loss must be a probability, got {prob}")
            }
            CrashTargetOutOfRange { node, n_nodes } => {
                write!(f, "crash names node {node} but the world has {n_nodes}")
            }
            ZeroRestartDelay { node } => {
                write!(f, "restart_after must be positive (crash of node {node})")
            }
            FlapPeriodZero => write!(f, "flap period must be positive"),
            FlapDownNotShorter => write!(f, "flap down-time must be shorter than the period"),
            FlapDownZero => write!(f, "flap down-time must be positive"),
            JitterPeriodZero => write!(f, "jitter period must be positive"),
            JitterWidthNotShorter => write!(f, "jitter width must be shorter than the period"),
            JitterWidthZero => write!(f, "jitter width must be positive"),
        }
    }
}

impl std::error::Error for ScenarioError {}
