//! Parallel replication runner.
//!
//! A single world is inherently sequential (one global event order), but
//! replications and parameter-sweep points are independent — the paper runs
//! every scenario 33 times. This module fans replications out over a
//! `std::thread::scope` worker pool with deterministic per-replication
//! seeds, so the aggregate is identical whatever the thread count
//! (including 1).

use manet_metrics::{average_series, FileMetrics, MsgKind, Summary};
use manet_obs::ObsReport;

use crate::scenario::Scenario;
use crate::scn::Expect;
use crate::world::{RunResult, World};

/// Derive the seed of replication `rep` from an experiment seed.
///
/// SplitMix-style mixing keeps neighbouring reps statistically independent.
pub fn replication_seed(base: u64, rep: usize) -> u64 {
    let mut s = base ^ (rep as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    s = manet_des::rng::splitmix64(&mut s);
    s
}

/// Run a corpus scenario at pinned replication count and seed and fold
/// the aggregates a `.scn` `expect` line records: an FNV-1a fold of the
/// per-replication fingerprints plus the summed traffic counters. The
/// single source of truth for what `expect` means — the golden corpus
/// test and `sweep --corpus` both compare against this.
pub fn measure_corpus(scenario: &Scenario, reps: usize, seed: u64, threads: usize) -> Expect {
    let results = run_replications(scenario, reps, seed, threads);
    expect_of(&results, reps, seed)
}

/// Fold already-run replications into the [`Expect`] they pin.
pub fn expect_of(results: &[RunResult], reps: usize, seed: u64) -> Expect {
    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
    for fp in results.iter().map(|r| r.fingerprint()) {
        for b in fp.to_le_bytes() {
            fingerprint ^= b as u64;
            fingerprint = fingerprint.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    Expect {
        reps,
        seed,
        fingerprint,
        queries: results.iter().map(|r| r.queries_issued).sum(),
        answers: results.iter().map(|r| r.answers_received).sum(),
        frames: results.iter().map(|r| r.phy_total.frames_sent).sum(),
    }
}

/// Run `reps` replications of `scenario` on up to `threads` workers.
///
/// Results come back ordered by replication index regardless of which
/// worker finished first, and are identical for any thread count: each
/// replication's seed depends only on its index.
///
/// Lock-free by construction: worker `w` statically owns replications
/// `w, w + threads, w + 2·threads, …` and returns its results through its
/// join handle — no shared mutable state, no `Mutex` on the result path.
/// Static striding costs nothing here because replications of one scenario
/// take near-identical time, so work-stealing had nothing to steal.
/// Workers are only spawned for non-empty strides (`threads` is clamped to
/// `reps`), so `reps < threads` never parks idle OS threads.
pub fn run_replications(
    scenario: &Scenario,
    reps: usize,
    base_seed: u64,
    threads: usize,
) -> Vec<RunResult> {
    assert!(reps >= 1, "need at least one replication");
    // Every spawned worker gets a non-empty stride: worker w < threads
    // owns rep w at least. The pre-clamp `threads` plays no further role,
    // so reps=1, threads=8 spawns exactly one worker, not eight.
    let threads = threads.max(1).min(reps);

    let mut per_worker: Vec<Vec<RunResult>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                scope.spawn(move || {
                    (w..reps)
                        .step_by(threads)
                        .map(|rep| {
                            let seed = replication_seed(base_seed, rep);
                            World::new(scenario.clone(), seed).run()
                        })
                        .collect::<Vec<RunResult>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replication worker panicked"))
            .collect()
    });

    // Interleave the strides back into replication order: rep came from
    // worker `rep % threads`, at position `rep / threads` of its chunk.
    let mut iters: Vec<_> = per_worker.iter_mut().map(|v| v.drain(..)).collect();
    (0..reps)
        .map(|rep| iters[rep % threads].next().expect("stride filled"))
        .collect()
}

/// Write one causal-trace artifact per replication of a cell into `dir`,
/// named `<cell>_rep<k>.trace.json` by replication index — deterministic
/// for any thread count because `run_replications` returns results in
/// replication order. Returns the written paths.
pub fn write_trace_artifacts(
    dir: &std::path::Path,
    cell: &str,
    results: &[RunResult],
) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(results.len());
    for (rep, r) in results.iter().enumerate() {
        let events = r.trace.causal_events();
        let doc = manet_obs::causal::artifact(&events);
        let path = dir.join(format!("{cell}_rep{rep}.trace.json"));
        std::fs::write(&path, doc.render())?;
        paths.push(path);
    }
    Ok(paths)
}

/// Replication-aggregated metrics for one (scenario, algorithm) cell.
pub struct Aggregate {
    /// Averaged decreasing per-node connect-message curve (Figs 7–8).
    pub connects_sorted: Vec<f64>,
    /// Averaged decreasing per-node ping curve (Figs 9–10).
    pub pings_sorted: Vec<f64>,
    /// Averaged decreasing per-node query curve (Figs 11–12).
    pub queries_sorted: Vec<f64>,
    /// Merged per-file accumulators (Figs 5–6).
    pub files: FileMetrics,
    /// Across-replication summaries of scalar outcomes.
    pub queries_issued: Summary,
    /// Answers received per run.
    pub answers: Summary,
    /// Mean connections per member at the end of each run.
    pub avg_connections: Summary,
    /// Total frames transmitted per run.
    pub frames_sent: Summary,
    /// Mean energy spent per node and run, millijoules.
    pub energy_mj: Summary,
    /// Final role census summed over runs: [servent, initial, reserved,
    /// master, slave].
    pub roles: [usize; 5],
    /// Replications aggregated.
    pub reps: usize,
    /// Merged observability reports (empty when the sink was disabled).
    /// Folded in replication order — and `run_replications` re-interleaves
    /// worker strides back into that order — so the merged report is
    /// identical for any thread count.
    pub obs: ObsReport,
}

/// Aggregate a set of replications of the same scenario.
pub fn aggregate(results: &[RunResult], n_files: usize) -> Aggregate {
    assert!(!results.is_empty());
    let collect_sorted = |kind: MsgKind| -> Vec<f64> {
        let runs: Vec<Vec<u64>> = results
            .iter()
            .map(|r| r.counters.sorted_desc(kind, &r.members))
            .collect();
        average_series(&runs)
    };
    let mut files = FileMetrics::new(n_files);
    let mut roles = [0usize; 5];
    let mut obs = ObsReport::default();
    for r in results {
        files.merge(&r.file_metrics);
        for (acc, v) in roles.iter_mut().zip(r.roles.iter()) {
            *acc += v;
        }
        if r.obs.enabled() {
            obs.merge(&r.obs);
        }
    }
    let scalar = |f: &dyn Fn(&RunResult) -> f64| -> Summary {
        Summary::from_slice(&results.iter().map(f).collect::<Vec<_>>())
    };
    Aggregate {
        connects_sorted: collect_sorted(MsgKind::Connect),
        pings_sorted: collect_sorted(MsgKind::Ping),
        queries_sorted: collect_sorted(MsgKind::Query),
        files,
        queries_issued: scalar(&|r| r.queries_issued as f64),
        answers: scalar(&|r| r.answers_received as f64),
        avg_connections: scalar(&|r| r.avg_connections),
        frames_sent: scalar(&|r| r.phy_total.frames_sent as f64),
        energy_mj: scalar(&|r| {
            if r.energy_mj.is_empty() {
                0.0
            } else {
                r.energy_mj.iter().sum::<f64>() / r.energy_mj.len() as f64
            }
        }),
        roles,
        reps: results.len(),
        obs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_core::AlgoKind;

    #[test]
    fn seeds_are_distinct_and_deterministic() {
        let a = replication_seed(42, 0);
        let b = replication_seed(42, 1);
        assert_ne!(a, b);
        assert_eq!(a, replication_seed(42, 0));
        assert_ne!(replication_seed(43, 0), a);
    }

    #[test]
    fn runner_returns_ordered_deterministic_results() {
        let s = Scenario::quick(15, AlgoKind::Regular, 60);
        let one_thread = run_replications(&s, 3, 5, 1);
        let many_threads = run_replications(&s, 3, 5, 4);
        assert_eq!(one_thread.len(), 3);
        for (a, b) in one_thread.iter().zip(&many_threads) {
            assert_eq!(a.events, b.events, "thread count must not matter");
            assert_eq!(a.queries_issued, b.queries_issued);
        }
    }

    #[test]
    fn stride_fairness_at_awkward_rep_counts() {
        // reps below, at, and above the worker count: every shape must
        // return exactly `reps` results in replication order, equal to the
        // single-threaded reference elementwise. reps=1 at threads=4 is the
        // degenerate case that used to spawn three empty-stride workers.
        let s = Scenario::quick(12, AlgoKind::Regular, 45);
        let threads = 4;
        for reps in [1, threads - 1, threads + 1] {
            let reference = run_replications(&s, reps, 77, 1);
            let striped = run_replications(&s, reps, 77, threads);
            assert_eq!(striped.len(), reps, "wrong result count for reps={reps}");
            for (rep, (a, b)) in reference.iter().zip(&striped).enumerate() {
                assert_eq!(
                    a.fingerprint(),
                    b.fingerprint(),
                    "rep {rep} out of order or diverged at reps={reps}"
                );
            }
        }
    }

    #[test]
    fn aggregate_summarizes() {
        let s = Scenario::quick(15, AlgoKind::Basic, 120);
        let results = run_replications(&s, 2, 9, 2);
        let agg = aggregate(&results, s.catalog.n_files as usize);
        assert_eq!(agg.reps, 2);
        assert_eq!(agg.connects_sorted.len(), s.n_members());
        assert!(agg.frames_sent.mean > 0.0);
        // Sorted series must be non-increasing.
        for w in agg.connects_sorted.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }
}
