//! Cross-crate integration tests: whole worlds, paper-shape assertions.
//!
//! These exercise the complete stack (mobility → radio → AODV → overlay →
//! queries → metrics) at reduced scale and assert the *qualitative* results
//! the paper reports — the same checks EXPERIMENTS.md records at full scale.

use p2p_adhoc::metrics::MsgKind;
use p2p_adhoc::prelude::*;

fn run(algo: AlgoKind, nodes: usize, secs: u64, seed: u64) -> RunResult {
    World::new(Scenario::quick(nodes, algo, secs), seed).run()
}

#[test]
fn all_algorithms_complete_a_run() {
    for algo in AlgoKind::ALL {
        let s = Scenario::quick(30, algo, 300);
        let expect = s.n_members();
        let r = World::new(s, 1).run();
        assert!(r.events > 0);
        assert_eq!(r.members.len(), expect, "member fraction of 30 nodes");
        assert!(r.phy_total.frames_sent > 0, "{algo}: radio silence");
    }
}

#[test]
fn replication_is_bit_stable() {
    for algo in [AlgoKind::Basic, AlgoKind::Hybrid] {
        let a = run(algo, 25, 200, 33);
        let b = run(algo, 25, 200, 33);
        assert_eq!(a.events, b.events, "{algo}: nondeterministic event count");
        assert_eq!(
            a.counters.column(MsgKind::Connect),
            b.counters.column(MsgKind::Connect),
            "{algo}: nondeterministic traffic"
        );
        assert_eq!(a.energy_mj, b.energy_mj, "{algo}: nondeterministic energy");
    }
}

#[test]
fn overlays_actually_form_and_carry_queries() {
    for algo in AlgoKind::ALL {
        let r = run(algo, 40, 600, 2);
        assert!(
            r.avg_connections > 0.3,
            "{algo}: overlay failed to form ({:.2} conns/member)",
            r.avg_connections
        );
        assert!(r.queries_issued > 0, "{algo}: no queries");
        assert!(
            r.answers_received > 0,
            "{algo}: queries produced no answers"
        );
    }
}

#[test]
fn paper_shape_basic_pays_the_most_overhead() {
    // Figs 7-10's headline: the Basic algorithm's indiscriminate broadcasts
    // and double-ended pings cost the most.
    let seed = 5;
    let basic = run(AlgoKind::Basic, 40, 600, seed);
    let regular = run(AlgoKind::Regular, 40, 600, seed);
    let random = run(AlgoKind::Random, 40, 600, seed);
    let b_connect = basic.counters.total(MsgKind::Connect);
    let reg_connect = regular.counters.total(MsgKind::Connect);
    let rnd_connect = random.counters.total(MsgKind::Connect);
    assert!(
        b_connect > reg_connect,
        "connects: Basic {b_connect} should exceed Regular {reg_connect}"
    );
    assert!(
        rnd_connect >= reg_connect,
        "connects: Random {rnd_connect} >= Regular {reg_connect} (long-TTL probes)"
    );
    let b_ping = basic.counters.total(MsgKind::Ping);
    let reg_ping = regular.counters.total(MsgKind::Ping);
    assert!(
        b_ping > reg_ping,
        "pings: Basic {b_ping} should exceed Regular {reg_ping} (asymmetric refs)"
    );
}

#[test]
fn paper_shape_answers_decrease_with_file_rank() {
    // Figs 5-6: the number of answers tracks the Zipf popularity.
    let r = run(AlgoKind::Regular, 40, 900, 8);
    let series = r.file_metrics.series(10);
    let first_half: f64 = series[..3].iter().map(|&(_, _, a)| a).sum();
    let last_half: f64 = series[7..].iter().map(|&(_, _, a)| a).sum();
    assert!(
        first_half > last_half,
        "popular files should get more answers: head {first_half:.2} vs tail {last_half:.2}"
    );
}

#[test]
fn paper_shape_hybrid_concentrates_load_on_masters() {
    // Figs 11-12: masters receive disproportionate query traffic.
    let hybrid = run(AlgoKind::Hybrid, 40, 900, 9);
    assert!(hybrid.roles[3] > 0, "no masters formed");
    assert!(hybrid.roles[4] > 0, "no slaves formed");
    let sorted = hybrid.counters.sorted_desc(MsgKind::Query, &hybrid.members);
    let total: u64 = sorted.iter().sum();
    let masters = hybrid.roles[3].min(sorted.len());
    let head: u64 = sorted.iter().take(masters).sum();
    if total > 0 {
        let share = head as f64 / total as f64;
        let fair = masters as f64 / sorted.len() as f64;
        assert!(
            share > fair,
            "top-{masters} share {share:.2} should exceed fair share {fair:.2}"
        );
    }
}

#[test]
fn energy_follows_traffic() {
    let basic = run(AlgoKind::Basic, 30, 400, 10);
    let regular = run(AlgoKind::Regular, 30, 400, 10);
    let be: f64 = basic.energy_mj.iter().sum();
    let re: f64 = regular.energy_mj.iter().sum();
    assert!(
        be > re,
        "the paper's lifetime argument: Basic ({be:.0} mJ) drains more than Regular ({re:.0} mJ)"
    );
}

#[test]
fn runner_parallelism_is_transparent() {
    let s = Scenario::quick(20, AlgoKind::Regular, 120);
    let serial = run_replications(&s, 4, 77, 1);
    let parallel = run_replications(&s, 4, 77, 4);
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.events, b.events);
        assert_eq!(a.answers_received, b.answers_received);
    }
}

#[test]
fn experiment_matrix_produces_all_figures() {
    let cfg = ExperimentCfg {
        n_nodes: 16,
        duration_secs: 90,
        reps: 1,
        seed: 4,
        threads: 1,
        obs: false,
        trace: false,
    };
    let matrix = run_matrix(&cfg);
    assert_eq!(matrix.len(), 4);
    use p2p_adhoc::sim::experiments as ex;
    for text in [
        ex::fig_distance_answers(&matrix, cfg.n_nodes),
        ex::fig_connects(&matrix, cfg.n_nodes),
        ex::fig_pings(&matrix, cfg.n_nodes),
        ex::fig_queries(&matrix, cfg.n_nodes),
    ] {
        assert!(text.contains("Basic\tRegular\tRandom\tHybrid"));
        assert!(text.lines().count() >= 3);
    }
}

#[test]
fn stationary_dense_world_reaches_full_connectivity() {
    // With no mobility and everyone in range, Regular should fill MAXNCONN
    // and keep it (no TooFar pruning, no churn).
    let mut s = Scenario::quick(12, AlgoKind::Regular, 300);
    s.area_side = 15.0; // everyone within a hop or two
    s.mobility = MobilityKind::Stationary;
    let r = World::new(s, 6).run();
    assert!(
        r.avg_connections > 2.0,
        "dense static overlay should near MAXNCONN: {:.2}",
        r.avg_connections
    );
}

#[test]
fn sparse_world_still_terminates() {
    // Nodes scattered far beyond radio range: no overlay can form, but the
    // run must end cleanly with idle timers.
    let mut s = Scenario::quick(10, AlgoKind::Regular, 300);
    s.area_side = 2000.0;
    let r = World::new(s, 7).run();
    assert_eq!(r.answers_received, 0);
    assert_eq!(r.avg_connections, 0.0);
}
