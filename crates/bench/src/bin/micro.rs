//! Component microbenches: the substrate hot paths.

use bench::{bench_scenario, black_box, env_u64, run_result, Harness};
use manet_aodv::testkit::{TestNet, TestPayload};
use manet_aodv::AodvCfg;
use manet_des::{EventQueue, Rng, SchedulerKind, SimTime};
use manet_geom::{Point, Rect, SpatialGrid};
use manet_graph::Graph;
use p2p_content::Catalog;
use p2p_core::AlgoKind;

const SCHEDULERS: [SchedulerKind; 2] = [SchedulerKind::Calendar, SchedulerKind::Heap];

fn scheduler_name(kind: SchedulerKind) -> &'static str {
    match kind {
        SchedulerKind::Heap => "heap",
        SchedulerKind::Calendar => "calendar",
    }
}

/// The event queue: schedule + pop churn at simulation-like sizes, on both
/// scheduler backends head to head.
fn event_queue(h: &Harness) {
    for kind in SCHEDULERS {
        let sched = scheduler_name(kind);
        for n in [1_000u64, 10_000, 100_000] {
            h.time(&format!("event_queue/{sched}/schedule_pop/{n}"), 20, || {
                let mut rng = Rng::new(1);
                let mut q = EventQueue::with_scheduler(kind);
                for i in 0..n {
                    q.schedule(SimTime::from_ticks(rng.below(1_000_000_000)), i);
                }
                let mut acc = 0u64;
                while let Some((_, v)) = q.pop() {
                    acc = acc.wrapping_add(v);
                }
                black_box(acc)
            });
        }
    }
}

/// The headline end-to-end cost: a full replication of the Table 2 Regular
/// scenario on each scheduler. This is the perf regression gate — its
/// records in BENCH_RESULTS.json (wall-clock, events/sec, peak queue depth)
/// are the trajectory future PRs measure against. `BENCH_HOT_NODES` /
/// `BENCH_HOT_SECS` shrink the workload for CI smoke runs; defaults are the
/// gate scenario (200 nodes, 900 simulated seconds).
fn sim_hot_path(h: &Harness) {
    let nodes = env_u64("BENCH_HOT_NODES", 200) as usize;
    let secs = env_u64("BENCH_HOT_SECS", 900);
    let mut fingerprints = Vec::new();
    for kind in SCHEDULERS {
        let sched = scheduler_name(kind);
        h.time_meta(
            &format!("sim_hot_path/{sched}/{nodes}n_{secs}s_regular"),
            2,
            || run_result(bench_scenario(nodes, AlgoKind::Regular, secs), 7, kind),
            |r| {
                fingerprints.push(r.fingerprint());
                vec![
                    ("nodes".into(), nodes as f64),
                    ("sim_secs".into(), secs as f64),
                    ("events".into(), r.events as f64),
                    ("peak_queue_depth".into(), r.peak_queue_depth as f64),
                ]
            },
        );
    }
    if let [a, b] = fingerprints[..] {
        assert_eq!(a, b, "schedulers diverged on the hot-path scenario");
    }
    // The same scenario with the observability sink enabled. perf_gate uses
    // this record as its machine-speed calibration: it shares the disabled
    // run's memory/instruction profile (so ambient contention cancels) but
    // already pays instrumentation (so a leak into the disabled path slows
    // only the disabled record).
    h.time_meta(
        &format!("sim_hot_path/calendar_obs/{nodes}n_{secs}s_regular"),
        2,
        || {
            let mut s = bench_scenario(nodes, AlgoKind::Regular, secs);
            s.obs = manet_obs::ObsConfig::enabled();
            run_result(s, 7, SchedulerKind::Calendar)
        },
        |r| {
            assert_eq!(
                r.fingerprint(),
                fingerprints[0],
                "observed run diverged from the unobserved hot path"
            );
            vec![
                ("nodes".into(), nodes as f64),
                ("sim_secs".into(), secs as f64),
                ("events".into(), r.events as f64),
                ("peak_queue_depth".into(), r.peak_queue_depth as f64),
            ]
        },
    );
}

/// The spatial grid: the radio's neighborhood query.
fn spatial_grid(h: &Harness) {
    for n in [50u32, 150, 1000] {
        let mut rng = Rng::new(2);
        let mut grid = SpatialGrid::new(Rect::sized(100.0, 100.0), 10.0);
        for k in 0..n {
            grid.upsert(
                k,
                Point::new(rng.range_f64(0.0, 100.0), rng.range_f64(0.0, 100.0)),
            );
        }
        let mut out = Vec::new();
        let mut qr = Rng::new(3);
        h.time(&format!("spatial_grid/query_range_10m/{n}"), 1000, || {
            let p = Point::new(qr.range_f64(0.0, 100.0), qr.range_f64(0.0, 100.0));
            grid.query_range(p, 10.0, u32::MAX, &mut out);
            black_box(out.len())
        });
    }
}

/// AODV: a full route discovery over a line topology, plus the controlled
/// broadcast the paper patched into ns-2.
fn aodv_discovery(h: &Harness) {
    for hops in [3usize, 8, 15] {
        h.time(&format!("aodv/route_discovery_line/{hops}"), 50, || {
            let mut net = TestNet::line(hops + 1, AodvCfg::default());
            net.send(0, hops as u32, TestPayload(1));
            net.step_until(
                SimTime::from_secs(10),
                manet_des::SimDuration::from_millis(100),
            );
            black_box(net.delivered.len())
        });
    }
    h.time("aodv/controlled_flood_mesh20_ttl6", 50, || {
        let mut net = TestNet::new(20, AodvCfg::default());
        for a in 0..20u32 {
            for b in (a + 1)..20 {
                if (a + b) % 3 != 0 {
                    net.link(a, b);
                }
            }
        }
        net.flood(0, 6, TestPayload(9));
        black_box(net.flood_delivered.len())
    });
}

/// Zipf catalogue assignment and sampling.
fn catalog(h: &Harness) {
    h.time("catalog/assign_113_members", 200, || {
        let mut rng = Rng::new(4);
        black_box(Catalog::default().assign(113, &mut rng))
    });
    let cat = Catalog::default();
    let owned = std::collections::BTreeSet::new();
    let mut rng = Rng::new(5);
    h.time("catalog/zipf_sample", 10_000, || {
        black_box(cat.sample_target(&owned, &mut rng))
    });
}

/// Graph analysis: BFS and clustering at overlay scale.
fn graph_analysis(h: &Harness) {
    let mut rng = Rng::new(6);
    let n = 113u32;
    let mut g = Graph::new(n as usize);
    for _ in 0..(n * 3) {
        let a = rng.below(n as u64) as u32;
        let mut b = rng.below(n as u64) as u32;
        if a == b {
            b = (b + 1) % n;
        }
        g.add_edge(a, b);
    }
    h.time("graph/bfs_113", 500, || black_box(g.bfs_distances(0)));
    h.time("graph/clustering_113", 100, || {
        black_box(g.avg_clustering())
    });
    h.time("graph/path_length_113", 100, || {
        black_box(g.characteristic_path_length())
    });
}

fn main() {
    let h = Harness::from_env("micro");
    event_queue(&h);
    spatial_grid(&h);
    aodv_discovery(&h);
    catalog(&h);
    graph_analysis(&h);
    sim_hot_path(&h);
    h.finish();
}
