//! Uniform spatial hash grid.
//!
//! The radio layer must answer "which nodes are within `r` metres of `p`?"
//! for every transmission. With `n` nodes a naive scan is O(n); the grid
//! buckets nodes into cells of side ≈ the radio range so a query touches at
//! most 9 cells in the common case.
//!
//! Keys are opaque `u32` ids (node ids). The grid stores one position per
//! key and supports O(1) amortized updates, which mobility performs whenever
//! a node's position is re-evaluated.

use crate::point::Point;
use crate::rect::Rect;

/// A uniform grid over a rectangular area mapping `u32` keys to positions.
#[derive(Clone, Debug)]
pub struct SpatialGrid {
    bounds: Rect,
    cell: f64,
    cols: usize,
    rows: usize,
    /// cell index -> keys in that cell
    cells: Vec<Vec<u32>>,
    /// key -> (position, cell index); MAX sentinel for absent keys
    where_is: Vec<(Point, usize)>,
}

const ABSENT: usize = usize::MAX;

impl SpatialGrid {
    /// Create a grid over `bounds` with cells of side `cell_size` (clamped so
    /// the grid has at least one cell; typically the radio range).
    pub fn new(bounds: Rect, cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell size must be positive"
        );
        let cols = (bounds.width() / cell_size).ceil().max(1.0) as usize;
        let rows = (bounds.height() / cell_size).ceil().max(1.0) as usize;
        SpatialGrid {
            bounds,
            cell: cell_size,
            cols,
            rows,
            cells: vec![Vec::new(); cols * rows],
            where_is: Vec::new(),
        }
    }

    /// The area this grid covers.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Number of keys currently stored.
    pub fn len(&self) -> usize {
        self.where_is.iter().filter(|(_, c)| *c != ABSENT).count()
    }

    /// True if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn cell_index(&self, p: Point) -> usize {
        let p = self.bounds.clamp(p);
        let cx = (((p.x - self.bounds.x0) / self.cell) as usize).min(self.cols - 1);
        let cy = (((p.y - self.bounds.y0) / self.cell) as usize).min(self.rows - 1);
        cy * self.cols + cx
    }

    /// Insert a key or move it to a new position.
    pub fn upsert(&mut self, key: u32, pos: Point) {
        let idx = key as usize;
        if idx >= self.where_is.len() {
            self.where_is.resize(idx + 1, (Point::ORIGIN, ABSENT));
        }
        let new_cell = self.cell_index(pos);
        let (_, old_cell) = self.where_is[idx];
        if old_cell != ABSENT {
            if old_cell == new_cell {
                self.where_is[idx].0 = pos;
                return;
            }
            remove_from_cell(&mut self.cells[old_cell], key);
        }
        self.cells[new_cell].push(key);
        self.where_is[idx] = (pos, new_cell);
    }

    /// Remove a key; returns `true` if it was present.
    pub fn remove(&mut self, key: u32) -> bool {
        let idx = key as usize;
        match self.where_is.get(idx) {
            Some(&(_, cell)) if cell != ABSENT => {
                remove_from_cell(&mut self.cells[cell], key);
                self.where_is[idx].1 = ABSENT;
                true
            }
            _ => false,
        }
    }

    /// Current position of `key`, if stored.
    pub fn position(&self, key: u32) -> Option<Point> {
        match self.where_is.get(key as usize) {
            Some(&(pos, cell)) if cell != ABSENT => Some(pos),
            _ => None,
        }
    }

    /// Visit every `(key, position)` within `range` metres of `center`
    /// (inclusive), excluding `exclude`, in grid-cell order (NOT key order —
    /// the `query_range*` wrappers sort for determinism).
    fn scan_range(
        &self,
        center: Point,
        range: f64,
        exclude: u32,
        mut visit: impl FnMut(u32, Point),
    ) {
        let range = range.max(0.0);
        let lo = self
            .bounds
            .clamp(Point::new(center.x - range, center.y - range));
        let hi = self
            .bounds
            .clamp(Point::new(center.x + range, center.y + range));
        let cx0 = (((lo.x - self.bounds.x0) / self.cell) as usize).min(self.cols - 1);
        let cy0 = (((lo.y - self.bounds.y0) / self.cell) as usize).min(self.rows - 1);
        let cx1 = (((hi.x - self.bounds.x0) / self.cell) as usize).min(self.cols - 1);
        let cy1 = (((hi.y - self.bounds.y0) / self.cell) as usize).min(self.rows - 1);
        let range_sq = range * range;
        for cy in cy0..=cy1 {
            for cx in cx0..=cx1 {
                for &key in &self.cells[cy * self.cols + cx] {
                    if key == exclude {
                        continue;
                    }
                    let (pos, _) = self.where_is[key as usize];
                    if pos.distance_sq(center) <= range_sq {
                        visit(key, pos);
                    }
                }
            }
        }
    }

    /// Collect all keys within `range` metres of `center` (inclusive),
    /// excluding `exclude` (pass `u32::MAX` to exclude nothing).
    ///
    /// Results replace the contents of the caller-owned `out` buffer, in
    /// ascending key order so that callers iterate deterministically. The
    /// buffer's capacity is reused across calls — the radio hot path calls
    /// this once per transmission without allocating.
    pub fn query_range(&self, center: Point, range: f64, exclude: u32, out: &mut Vec<u32>) {
        out.clear();
        self.scan_range(center, range, exclude, |key, _| out.push(key));
        out.sort_unstable();
    }

    /// Like [`query_range`](Self::query_range) but also yields each key's
    /// position, saving the caller one grid lookup per result (the radio
    /// medium needs positions for distance-dependent reception).
    pub fn query_range_with_pos(
        &self,
        center: Point,
        range: f64,
        exclude: u32,
        out: &mut Vec<(u32, Point)>,
    ) {
        out.clear();
        self.scan_range(center, range, exclude, |key, pos| out.push((key, pos)));
        out.sort_unstable_by_key(|&(key, _)| key);
    }

    /// Convenience wrapper around [`query_range`](Self::query_range) that
    /// allocates its own result vector.
    pub fn neighbors(&self, center: Point, range: f64, exclude: u32) -> Vec<u32> {
        let mut out = Vec::new();
        self.query_range(center, range, exclude, &mut out);
        out
    }

    /// Iterate over all `(key, position)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Point)> + '_ {
        self.where_is
            .iter()
            .enumerate()
            .filter(|(_, (_, c))| *c != ABSENT)
            .map(|(k, (p, _))| (k as u32, *p))
    }
}

fn remove_from_cell(cell: &mut Vec<u32>, key: u32) {
    if let Some(at) = cell.iter().position(|&k| k == key) {
        cell.swap_remove(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> SpatialGrid {
        SpatialGrid::new(Rect::sized(100.0, 100.0), 10.0)
    }

    #[test]
    fn insert_and_query() {
        let mut g = grid();
        g.upsert(1, Point::new(5.0, 5.0));
        g.upsert(2, Point::new(8.0, 5.0));
        g.upsert(3, Point::new(50.0, 50.0));
        assert_eq!(
            g.neighbors(Point::new(5.0, 5.0), 10.0, u32::MAX),
            vec![1, 2]
        );
        assert_eq!(g.neighbors(Point::new(5.0, 5.0), 10.0, 1), vec![2]);
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn query_crosses_cell_boundaries() {
        let mut g = grid();
        g.upsert(1, Point::new(9.9, 9.9));
        g.upsert(2, Point::new(10.1, 10.1));
        let found = g.neighbors(Point::new(10.0, 10.0), 1.0, u32::MAX);
        assert_eq!(found, vec![1, 2]);
    }

    #[test]
    fn range_is_inclusive_euclidean() {
        let mut g = grid();
        g.upsert(1, Point::new(0.0, 0.0));
        g.upsert(2, Point::new(10.0, 0.0));
        g.upsert(3, Point::new(7.1, 7.1)); // slightly outside 10m diagonal
        let found = g.neighbors(Point::new(0.0, 0.0), 10.0, u32::MAX);
        assert_eq!(found, vec![1, 2]);
    }

    #[test]
    fn moving_a_key_updates_queries() {
        let mut g = grid();
        g.upsert(7, Point::new(5.0, 5.0));
        g.upsert(7, Point::new(95.0, 95.0));
        assert!(g.neighbors(Point::new(5.0, 5.0), 10.0, u32::MAX).is_empty());
        assert_eq!(g.neighbors(Point::new(95.0, 95.0), 1.0, u32::MAX), vec![7]);
        assert_eq!(g.len(), 1);
        assert_eq!(g.position(7), Some(Point::new(95.0, 95.0)));
    }

    #[test]
    fn move_within_same_cell_updates_position() {
        let mut g = grid();
        g.upsert(4, Point::new(1.0, 1.0));
        g.upsert(4, Point::new(2.0, 2.0));
        assert_eq!(g.position(4), Some(Point::new(2.0, 2.0)));
        assert_eq!(g.neighbors(Point::new(2.0, 2.0), 0.5, u32::MAX), vec![4]);
    }

    #[test]
    fn remove_works() {
        let mut g = grid();
        g.upsert(1, Point::new(5.0, 5.0));
        assert!(g.remove(1));
        assert!(!g.remove(1));
        assert!(g.is_empty());
        assert_eq!(g.position(1), None);
    }

    #[test]
    fn positions_outside_bounds_are_clamped_to_edge_cells() {
        let mut g = grid();
        g.upsert(1, Point::new(150.0, -20.0));
        // Stored position is preserved even though the cell is clamped.
        assert_eq!(g.position(1), Some(Point::new(150.0, -20.0)));
    }

    #[test]
    fn iter_yields_all_live_keys_sorted() {
        let mut g = grid();
        g.upsert(3, Point::new(1.0, 1.0));
        g.upsert(1, Point::new(2.0, 2.0));
        g.upsert(2, Point::new(3.0, 3.0));
        g.remove(2);
        let keys: Vec<u32> = g.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![1, 3]);
    }

    #[test]
    fn brute_force_agreement() {
        use manet_des::Rng;
        let mut rng = Rng::new(77);
        let mut g = grid();
        let mut pts = Vec::new();
        for k in 0..200u32 {
            let p = Point::new(rng.range_f64(0.0, 100.0), rng.range_f64(0.0, 100.0));
            g.upsert(k, p);
            pts.push(p);
        }
        for _ in 0..50 {
            let c = Point::new(rng.range_f64(0.0, 100.0), rng.range_f64(0.0, 100.0));
            let r = rng.range_f64(0.0, 30.0);
            let got = g.neighbors(c, r, u32::MAX);
            let want: Vec<u32> = (0..200u32)
                .filter(|&k| pts[k as usize].within(c, r))
                .collect();
            assert_eq!(got, want);
        }
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use manet_des::Rng;
    use manet_testkit::{any_u64, prop_assert_eq, properties, vec_of};

    properties! {
        config = manet_testkit::Config::cases(64);

        /// The grid and a brute-force scan agree on every range query,
        /// through arbitrary interleavings of moves and removals.
        fn grid_matches_brute_force(
            seed in any_u64(),
            ops in vec_of((0u8..3, 0u32..40), 1..200),
        ) {
            let mut rng = Rng::new(seed);
            let bounds = Rect::sized(100.0, 100.0);
            let mut grid = SpatialGrid::new(bounds, 10.0);
            let mut reference: std::collections::BTreeMap<u32, Point> = Default::default();
            for (op, key) in ops {
                match op {
                    0 | 1 => {
                        let p = Point::new(rng.range_f64(0.0, 100.0), rng.range_f64(0.0, 100.0));
                        grid.upsert(key, p);
                        reference.insert(key, p);
                    }
                    _ => {
                        let was = reference.remove(&key).is_some();
                        prop_assert_eq!(grid.remove(key), was);
                    }
                }
                // A random query after every mutation.
                let c = Point::new(rng.range_f64(0.0, 100.0), rng.range_f64(0.0, 100.0));
                let r = rng.range_f64(0.0, 25.0);
                let got = grid.neighbors(c, r, u32::MAX);
                let want: Vec<u32> = reference
                    .iter()
                    .filter(|(_, p)| p.within(c, r))
                    .map(|(k, _)| *k)
                    .collect();
                prop_assert_eq!(got, want);
            }
        }
    }
}
