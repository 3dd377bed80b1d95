//! The Fig 5–6 distance oracle as a bounded breadth-first search.
//!
//! The paper's "minimum distance to the file" is the hop count from a
//! requirer to the nearest up holder over the instantaneous radio
//! connectivity graph. Building that graph costs O(n) per completed query;
//! [`HopOracle::nearest`] instead walks outward from the requirer one hop
//! level at a time through [`SpatialGrid::query_range`] and stops at the
//! first level that contains a holder, so a query costs only the nodes it
//! explores.

use manet_des::NodeId;
use manet_geom::SpatialGrid;

/// Reusable bounded-BFS buffers, kept on the world so a query allocates
/// nothing. The visited set is generation-stamped: `seen[v] == generation`
/// marks `v` visited by the current search, so starting a search is one
/// increment instead of an O(n) clear.
#[derive(Default)]
pub(crate) struct HopOracle {
    seen: Vec<u32>,
    generation: u32,
    frontier: Vec<u32>,
    next: Vec<u32>,
    nbrs: Vec<u32>,
}

impl HopOracle {
    /// Hop distance from `src` to the nearest up node in `holders` (sorted
    /// ascending) over the graph whose vertices are the up nodes and whose
    /// edges join any two of them within `range` metres of each other on
    /// `grid`. `None` when `src` is down or no up holder shares its
    /// component.
    ///
    /// Level `d` is complete once the level-`d - 1` frontier has been
    /// expanded, and every node first discovered there is exactly `d` hops
    /// away, so returning at the first discovered holder gives the same
    /// answer as a BFS over the whole graph. Expanding a node with a range
    /// query finds exactly its graph neighbours because the range relation
    /// is symmetric: `distance_sq` is, and the grid's cell scan covers the
    /// whole range box.
    pub(crate) fn nearest(
        &mut self,
        grid: &SpatialGrid,
        range: f64,
        up: &[bool],
        holders: &[NodeId],
        src: NodeId,
    ) -> Option<u32> {
        debug_assert!(holders.is_sorted(), "holder lists are sorted by slot");
        let holds = |v: u32| holders.binary_search(&NodeId(v)).is_ok();
        if !up[src.index()] {
            return None;
        }
        if holds(src.0) {
            return Some(0);
        }
        if !holders.iter().any(|h| up[h.index()]) {
            return None;
        }
        self.begin(up.len());
        self.seen[src.index()] = self.generation;
        self.frontier.clear();
        self.frontier.push(src.0);
        let mut depth = 0;
        while !self.frontier.is_empty() {
            depth += 1;
            self.next.clear();
            for &v in &self.frontier {
                let pos = grid.position(v).expect("every node has a grid position");
                grid.query_range(pos, range, v, &mut self.nbrs);
                for &w in &self.nbrs {
                    let seen = &mut self.seen[w as usize];
                    if *seen == self.generation || !up[w as usize] {
                        continue;
                    }
                    *seen = self.generation;
                    if holds(w) {
                        return Some(depth);
                    }
                    self.next.push(w);
                }
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
        }
        None
    }

    /// Start a search over `n` nodes: a fresh generation, with the stamps
    /// cleared only when the counter wraps.
    fn begin(&mut self, n: usize) {
        if self.seen.len() < n {
            self.seen.resize(n, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.seen.fill(0);
            self.generation = 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use manet_des::{NodeId, SimDuration, SimTime};
    use manet_geom::Point;
    use manet_testkit::{any_bool, any_u64, prop_assert_eq, properties, Config};
    use p2p_core::AlgoKind;

    use crate::scenario::{ChurnCfg, MobilityKind};
    use crate::{CrashEvent, FaultPlan, Scenario, World};

    /// The up holders of `file`, as full-graph BFS targets.
    fn up_holders(w: &World, file: usize) -> Vec<u32> {
        w.core.holders_by_file[file]
            .iter()
            .filter(|h| w.core.hot_up[h.index()])
            .map(|h| h.0)
            .collect()
    }

    properties! {
        config = Config::cases(32);

        /// On random small worlds with mobility, optional churn and one
        /// crash, the bounded BFS agrees with the full-graph BFS for every
        /// member and a sample of files at several instants.
        fn bounded_bfs_matches_full_graph_bfs(
            seed in any_u64(),
            n in 20usize..121,
            side in 50u32..301,
            churn in any_bool(),
            crash_pick in any_u64(),
        ) {
            let secs = 90;
            let mut s = Scenario::quick(n, AlgoKind::Regular, secs);
            s.area_side = f64::from(side);
            if churn {
                s.churn = Some(ChurnCfg { mean_uptime: 40.0, mean_downtime: 20.0 });
            }
            s.faults = FaultPlan {
                crashes: vec![CrashEvent {
                    node: NodeId((crash_pick % n as u64) as u32),
                    at: SimTime::from_secs(crash_pick % secs),
                    restart_after: Some(SimDuration::from_secs(20)),
                }],
                ..FaultPlan::default()
            };
            let n_files = s.catalog.n_files as usize;
            let mut w = World::new(s, seed);
            let mut pick = manet_des::Rng::new(seed ^ crash_pick);
            let mut stops: Vec<u64> = (0..4).map(|_| pick.below(secs * 1_000_000)).collect();
            stops.sort_unstable();
            for stop in stops {
                while w.step().is_some_and(|now| now.ticks() < stop) {}
                let files: Vec<usize> =
                    (0..6).map(|_| pick.below(n_files as u64) as usize).collect();
                let graph = w.connectivity_graph();
                for m in w.core.members.clone() {
                    for &file in &files {
                        prop_assert_eq!(
                            w.core.oracle_distance(m, file),
                            graph.min_distance_to_any(m.0, &up_holders(&w, file)),
                            "member {} file {} at tick {}", m.0, file, stop
                        );
                    }
                }
            }
        }
    }

    /// A stationary world whose first `xs.len()` nodes sit on the line
    /// y = 5 at the given x positions (10 m radio range); every other node
    /// is parked out of reach in the far corner and taken down.
    fn line_world(xs: &[f64]) -> World {
        let mut s = Scenario::quick(20, AlgoKind::Regular, 60);
        s.mobility = MobilityKind::Stationary;
        s.area_side = 200.0;
        let mut w = World::new(s, 1);
        assert_eq!(w.core.medium.cfg().range_m, 10.0);
        for id in 0..w.stacks.len() {
            let (pos, up) = match xs.get(id) {
                Some(&x) => (Point::new(x, 5.0), true),
                None => (Point::new(195.0, 195.0), false),
            };
            w.core.grid.upsert(id as u32, pos);
            w.core.hot_up[id] = up;
        }
        w
    }

    /// Pin one case: the holders of file 0 are `holders`, and the bounded
    /// BFS from `src` must give `expect`, as must the full-graph BFS.
    fn pin(w: &mut World, holders: &[u32], src: u32, expect: Option<u32>) {
        w.core.holders_by_file[0] = holders.iter().map(|&h| NodeId(h)).collect();
        let src = NodeId(src);
        let full = w
            .connectivity_graph()
            .min_distance_to_any(src.0, &up_holders(w, 0));
        assert_eq!(full, expect, "full-graph BFS");
        assert_eq!(w.core.oracle_distance(src, 0), expect, "bounded BFS");
    }

    #[test]
    fn pinned_cases_match_the_full_graph_bfs() {
        // Two components on one line: 0-1-2-3-4 (8 m hops) and 5-6 past a
        // 12 m gap.
        let mut w = line_world(&[0.0, 8.0, 16.0, 24.0, 32.0, 44.0, 52.0]);
        // Requirer down.
        w.core.hot_up[2] = false;
        pin(&mut w, &[2, 4], 2, None);
        w.core.hot_up[2] = true;
        // Requirer holds the file.
        pin(&mut w, &[1, 2], 2, Some(0));
        // File with no holders.
        pin(&mut w, &[], 0, None);
        // All holders down.
        w.core.hot_up[3] = false;
        w.core.hot_up[4] = false;
        pin(&mut w, &[3, 4], 0, None);
        // A down relay cuts the only path to an up holder.
        w.core.hot_up[4] = true;
        pin(&mut w, &[4], 0, None);
        w.core.hot_up[3] = true;
        // The geometrically nearest holder (5, 12 m away) is in the other
        // component; the reachable one (0) is four hops back.
        pin(&mut w, &[0, 5], 4, Some(4));
        // Only holder in the other component.
        pin(&mut w, &[6], 0, None);
        // Two holders at different depths: the nearer one wins.
        pin(&mut w, &[1, 4], 3, Some(1));
        pin(&mut w, &[0, 4], 1, Some(1));
        pin(&mut w, &[0, 3], 2, Some(1));
        pin(&mut w, &[4, 6], 0, Some(4));
    }

    #[test]
    fn generations_do_not_leak_between_searches() {
        let mut w = line_world(&[0.0, 8.0, 16.0]);
        for _ in 0..3 {
            pin(&mut w, &[2], 0, Some(2));
            pin(&mut w, &[0], 2, Some(2));
        }
        w.core.oracle.generation = u32::MAX;
        pin(&mut w, &[2], 0, Some(2));
        pin(&mut w, &[1], 0, Some(1));
    }
}
