//! City-scale throughput: the 10k-node sequential run.
//!
//! One measurement at paper density (200 m² per node, 10 m radio — the
//! Table 2 neighborhood) on the Regular algorithm, run once and recorded
//! into `BENCH_RESULTS.json` with events/sec. The workload knobs shrink
//! for CI smoke runs:
//!
//! ```text
//! CITY_NODES=10000 CITY_SECS=300 \
//!     cargo run --release -p bench --bin city_10k
//! ```

use bench::{bench_scenario, env_u64, Harness};
use manet_sim::World;
use p2p_core::AlgoKind;

fn main() {
    let h = Harness::from_env("city");
    let nodes = env_u64("CITY_NODES", 10_000) as usize;
    let secs = env_u64("CITY_SECS", 300);
    let seed = env_u64("CITY_SEED", 7);

    // Table 2 density, scaled: 50 nodes on 100 m × 100 m is 200 m² per
    // node; keep that as the city grows so radio neighborhoods (and thus
    // per-node event rates) stay paper-shaped.
    let mut scenario = bench_scenario(nodes, AlgoKind::Regular, secs);
    scenario.area_side = (nodes as f64 * 200.0).sqrt();
    scenario.validate();

    h.time_meta(
        &format!("city/sequential/{nodes}n_{secs}s_regular"),
        1,
        || World::new(scenario.clone(), seed).run(),
        |r| {
            vec![
                ("nodes".into(), nodes as f64),
                ("sim_secs".into(), secs as f64),
                ("events".into(), r.events as f64),
                ("peak_queue_depth".into(), r.peak_queue_depth as f64),
                ("queries".into(), r.queries_issued as f64),
            ]
        },
    );
    h.finish();
}
