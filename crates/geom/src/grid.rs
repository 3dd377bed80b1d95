//! Uniform spatial grid stored as a cell list.
//!
//! The radio layer must answer "which nodes are within `r` metres of `p`?"
//! for every transmission. With `n` nodes a naive scan is O(n); the grid
//! buckets nodes into cells of side ≈ the radio range so a query touches at
//! most 9 cells in the common case.
//!
//! The cells share one array: every stored `(key, position)` entry sits in
//! `entries`, ordered by cell, and cell `c` owns the run
//! `entries[start[c]..start[c + 1]]`. A range query therefore reads one
//! contiguous run per grid row under its range box (the cells of a row are
//! adjacent), with each position beside its key, and returns only keys. A
//! per-key index finds an entry's slot for moves, removals and
//! [`position`](SpatialGrid::position).
//!
//! Keys are opaque `u32` ids (node ids). A move inside one cell rewrites
//! the position in place, which is what mobility does on almost every
//! refresh. A move to another cell rotates the entries between the two
//! cells' runs by one slot and shifts the offsets in between, so at a
//! bounded density it costs O(1) along a row and O(columns) to another
//! row.

use crate::point::Point;
use crate::rect::Rect;

/// One stored key: its position and the cell whose run holds it.
#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    key: u32,
    cell: u32,
    pos: Point,
}

/// A uniform grid over a rectangular area mapping `u32` keys to positions.
#[derive(Clone, Debug)]
pub struct SpatialGrid {
    bounds: Rect,
    cell: f64,
    cols: usize,
    rows: usize,
    /// Every stored key, ordered by cell.
    entries: Vec<Entry>,
    /// Cell `c`'s entries are `entries[start[c]..start[c + 1]]`. The last
    /// offset, `start[cols * rows]`, is always `entries.len()`.
    start: Vec<u32>,
    /// key -> index of its entry; [`ABSENT`] for keys not stored.
    slot: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;

impl SpatialGrid {
    /// Create an empty grid over `bounds` with cells of side `cell_size`
    /// (clamped so the grid has at least one cell; typically the radio
    /// range).
    ///
    /// # Panics
    ///
    /// If `cell_size` is not positive and finite, or the grid would have
    /// more cells than a `u32` can index.
    pub fn new(bounds: Rect, cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell size must be positive"
        );
        let cols = (bounds.width() / cell_size).ceil().max(1.0);
        let rows = (bounds.height() / cell_size).ceil().max(1.0);
        assert!(
            cols * rows < f64::from(u32::MAX),
            "{cols} x {rows} cells of {cell_size} m do not fit a u32 index"
        );
        let (cols, rows) = (cols as usize, rows as usize);
        SpatialGrid {
            bounds,
            cell: cell_size,
            cols,
            rows,
            entries: Vec::new(),
            start: vec![0; cols * rows + 1],
            slot: Vec::new(),
        }
    }

    /// Build a grid holding keys `0..positions.len()`, key `k` at
    /// `positions[k]`, in one counting-sort pass.
    ///
    /// The grid is sized by what it holds: cells have side `min_cell` (the
    /// radio range) unless that would make more than about `4n` cells, in
    /// which case they grow to `longest side / ⌈2√n⌉`. Queries are exact
    /// for any cell side, so this only bounds memory: a sparse world over
    /// a huge area gets a coarse grid instead of an allocation it cannot
    /// make.
    pub fn with_positions(bounds: Rect, min_cell: f64, positions: &[Point]) -> Self {
        let per_side = (2.0 * (positions.len() as f64).sqrt()).ceil().max(1.0);
        let cell = min_cell.max(bounds.width().max(bounds.height()) / per_side);
        let mut grid = SpatialGrid::new(bounds, cell);
        let cells = grid.cols * grid.rows;
        assert!(
            positions.len() < ABSENT as usize,
            "too many keys for a u32 index"
        );
        // Count each cell's keys into its offset, then turn the counts into
        // run ends (an inclusive prefix sum; the sentinel ends at `n`).
        let cell_of: Vec<u32> = positions
            .iter()
            .map(|&p| grid.cell_index(p) as u32)
            .collect();
        for &c in &cell_of {
            grid.start[c as usize] += 1;
        }
        for c in 1..=cells {
            grid.start[c] += grid.start[c - 1];
        }
        // Fill each run from its end, highest key first, so every run ends
        // up in ascending key order and each offset at its run's start.
        grid.entries = vec![Entry::default(); positions.len()];
        grid.slot = vec![ABSENT; positions.len()];
        for (key, (&pos, &cell)) in positions.iter().zip(&cell_of).enumerate().rev() {
            let at = &mut grid.start[cell as usize];
            *at -= 1;
            grid.entries[*at as usize] = Entry {
                key: key as u32,
                cell,
                pos,
            };
            grid.slot[key] = *at;
        }
        grid
    }

    /// The area this grid covers.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Number of keys currently stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Column and row of the cell holding `p` (clamped into the grid).
    #[inline]
    fn cell_xy(&self, p: Point) -> (usize, usize) {
        let p = self.bounds.clamp(p);
        let cx = (((p.x - self.bounds.x0) / self.cell) as usize).min(self.cols - 1);
        let cy = (((p.y - self.bounds.y0) / self.cell) as usize).min(self.rows - 1);
        (cx, cy)
    }

    #[inline]
    fn cell_index(&self, p: Point) -> usize {
        let (cx, cy) = self.cell_xy(p);
        cy * self.cols + cx
    }

    /// Move the entry at index `i` from cell `from`'s run to cell `to`'s,
    /// rotating the entries in between by one slot, and return its new
    /// index. Cell `cols * rows` is the empty run past the last cell:
    /// moving there parks an entry at the end of the array, and a pushed
    /// entry starts there.
    fn relocate(&mut self, i: usize, from: usize, to: usize) -> usize {
        let (span, at) = if from < to {
            // Becomes the first entry of `to`'s run.
            let at = self.start[to] as usize - 1;
            self.entries[i..=at].rotate_left(1);
            for s in &mut self.start[from + 1..=to] {
                *s -= 1;
            }
            (i..=at, at)
        } else {
            // Becomes the last entry of `to`'s run.
            let at = self.start[to + 1] as usize;
            self.entries[at..=i].rotate_right(1);
            for s in &mut self.start[to + 1..=from] {
                *s += 1;
            }
            (at..=i, at)
        };
        for j in span {
            self.slot[self.entries[j].key as usize] = j as u32;
        }
        self.entries[at].cell = to as u32;
        at
    }

    /// Insert a key or move it to a new position.
    ///
    /// A new key costs O(n): it enters at the end of the array and rotates
    /// into its cell's run. Bulk loads should use
    /// [`with_positions`](Self::with_positions).
    pub fn upsert(&mut self, key: u32, pos: Point) {
        let idx = key as usize;
        if idx >= self.slot.len() {
            self.slot.resize(idx + 1, ABSENT);
        }
        let new_cell = self.cell_index(pos);
        let i = match self.slot[idx] {
            ABSENT => {
                let i = self.entries.len();
                self.entries.push(Entry {
                    key,
                    cell: (self.cols * self.rows) as u32,
                    pos,
                });
                self.slot[idx] = i as u32;
                i
            }
            i => i as usize,
        };
        let old_cell = self.entries[i].cell as usize;
        let i = if old_cell == new_cell {
            i
        } else {
            self.relocate(i, old_cell, new_cell)
        };
        self.entries[i].pos = pos;
    }

    /// Remove a key; returns `true` if it was present.
    pub fn remove(&mut self, key: u32) -> bool {
        let idx = key as usize;
        match self.slot.get(idx) {
            Some(&i) if i != ABSENT => {
                let i = i as usize;
                let from = self.entries[i].cell as usize;
                self.relocate(i, from, self.cols * self.rows);
                self.entries.pop();
                self.slot[idx] = ABSENT;
                true
            }
            _ => false,
        }
    }

    /// Current position of `key`, if stored.
    #[inline]
    pub fn position(&self, key: u32) -> Option<Point> {
        match self.slot.get(key as usize) {
            Some(&i) if i != ABSENT => Some(self.entries[i as usize].pos),
            _ => None,
        }
    }

    /// Collect all keys within `range` metres of `center` (inclusive),
    /// excluding `exclude` (pass `u32::MAX` to exclude nothing).
    ///
    /// Results replace the contents of the caller-owned `out` buffer, in
    /// ascending key order so that callers iterate deterministically. The
    /// buffer's capacity is reused across calls — the radio hot path calls
    /// this once per transmission without allocating.
    ///
    /// Each grid row under the range box is one contiguous run of entries.
    /// The filter writes every candidate's key and advances the output
    /// only past those that pass, so it has no data-dependent branch.
    pub fn query_range(&self, center: Point, range: f64, exclude: u32, out: &mut Vec<u32>) {
        let range = range.max(0.0);
        let (cx0, cy0) = self.cell_xy(Point::new(center.x - range, center.y - range));
        let (cx1, cy1) = self.cell_xy(Point::new(center.x + range, center.y + range));
        let range_sq = range * range;
        let runs = (cy0..=cy1).map(|cy| {
            let row = cy * self.cols;
            self.start[row + cx0] as usize..self.start[row + cx1 + 1] as usize
        });
        out.clear();
        out.resize(runs.clone().map(|run| run.len()).sum(), 0);
        let mut n = 0;
        for run in runs {
            for e in &self.entries[run] {
                out[n] = e.key;
                n += usize::from((e.key != exclude) & (e.pos.distance_sq(center) <= range_sq));
            }
        }
        out.truncate(n);
        out.sort_unstable();
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
        self.slot
            .iter()
            .enumerate()
            .filter(|(_, &i)| i != ABSENT)
            .map(|(k, &i)| (k as u32, self.entries[i as usize].pos))
    }

    /// The first broken layout invariant, if any: offsets that decrease or
    /// do not end at `len()`, an entry outside the run of the cell its
    /// position maps to, or a key index that misses its entry.
    #[cfg(test)]
    fn layout_error(&self) -> Option<String> {
        let cells = self.cols * self.rows;
        if self.start.len() != cells + 1 || self.start[cells] as usize != self.len() {
            return Some(format!(
                "offsets end at {:?}, len {}",
                self.start.last(),
                self.len()
            ));
        }
        if let Some(c) = (0..cells).find(|&c| self.start[c] > self.start[c + 1]) {
            return Some(format!("offset {c} decreases: {:?}", &self.start[c..c + 2]));
        }
        for c in 0..cells {
            let run = &self.entries[self.start[c] as usize..self.start[c + 1] as usize];
            if let Some(e) = run
                .iter()
                .find(|e| self.cell_index(e.pos) != c || e.cell as usize != c)
            {
                return Some(format!("{e:?} sits in cell {c}'s run"));
            }
        }
        let live = self.slot.iter().filter(|&&i| i != ABSENT).count();
        if live != self.len() {
            return Some(format!("{live} indexed keys, {} entries", self.len()));
        }
        for (key, &i) in self.slot.iter().enumerate() {
            if i == ABSENT {
                continue;
            }
            match self.entries.get(i as usize) {
                Some(e) if e.key as usize == key && Some(e.pos) == self.position(key as u32) => {}
                e => return Some(format!("key {key} indexes entry {i}: {e:?}")),
            }
        }
        None
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
    fn bulk_build_sizes_cells_by_what_it_holds() {
        use manet_des::Rng;
        let mut rng = Rng::new(5);
        let dense: Vec<Point> = (0..200)
            .map(|_| Point::new(rng.range_f64(0.0, 100.0), rng.range_f64(0.0, 100.0)))
            .collect();
        let g = SpatialGrid::with_positions(Rect::sized(100.0, 100.0), 10.0, &dense);
        assert_eq!(g.cell, 10.0, "paper density keeps range-sized cells");
        assert_eq!(g.layout_error(), None);

        // Ten keys over a 1e9 m square: ⌈2√10⌉ = 7 cells a side, not 1e8.
        let side = 1e9;
        let sparse: Vec<Point> = (0..10)
            .map(|_| Point::new(rng.range_f64(0.0, side), rng.range_f64(0.0, side)))
            .collect();
        let g = SpatialGrid::with_positions(Rect::sized(side, side), 10.0, &sparse);
        assert_eq!(g.cell, side / 7.0);
        assert_eq!(g.layout_error(), None);
        for (k, &p) in sparse.iter().enumerate() {
            assert_eq!(g.neighbors(p, 10.0, u32::MAX), vec![k as u32]);
            let want: Vec<u32> = (0..10u32)
                .filter(|&j| sparse[j as usize].within(p, side / 3.0))
                .collect();
            assert_eq!(g.neighbors(p, side / 3.0, u32::MAX), want);
        }
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

        /// The cell list keeps its layout through random moves (inside a
        /// cell, across columns and rows, outside the bounds) and removals,
        /// and a bulk-built copy and an incrementally built copy both agree
        /// with a brute-force scan after every step.
        fn cell_list_layout_holds(
            seed in any_u64(),
            initial in 0u32..40,
            ops in vec_of((0u8..4, 0u32..48), 1..150),
        ) {
            let mut rng = Rng::new(seed);
            let bounds = Rect::sized(100.0, 100.0);
            let anywhere =
                |rng: &mut Rng| Point::new(rng.range_f64(-20.0, 120.0), rng.range_f64(-20.0, 120.0));
            let start: Vec<Point> = (0..initial).map(|_| anywhere(&mut rng)).collect();
            let mut bulk = SpatialGrid::with_positions(bounds, 10.0, &start);
            let mut incremental = SpatialGrid::new(bounds, 10.0);
            let mut reference: std::collections::BTreeMap<u32, Point> = Default::default();
            for (key, &p) in start.iter().enumerate() {
                incremental.upsert(key as u32, p);
                reference.insert(key as u32, p);
            }
            for step in 0..=ops.len() {
                if let Some(&(op, key)) = ops.get(step.wrapping_sub(1)) {
                    match (op, reference.get(&key)) {
                        // A short step: usually the same cell or a neighbour.
                        (0, Some(&p)) => {
                            let q = Point::new(
                                p.x + rng.range_f64(-6.0, 6.0),
                                p.y + rng.range_f64(-6.0, 6.0),
                            );
                            bulk.upsert(key, q);
                            incremental.upsert(key, q);
                            reference.insert(key, q);
                        }
                        (0..=2, _) => {
                            let q = anywhere(&mut rng);
                            bulk.upsert(key, q);
                            incremental.upsert(key, q);
                            reference.insert(key, q);
                        }
                        _ => {
                            let was = reference.remove(&key).is_some();
                            prop_assert_eq!(bulk.remove(key), was);
                            prop_assert_eq!(incremental.remove(key), was);
                        }
                    }
                }
                let c = anywhere(&mut rng);
                let r = rng.range_f64(0.0, 30.0);
                let want: Vec<u32> = reference
                    .iter()
                    .filter(|(_, p)| p.within(c, r))
                    .map(|(k, _)| *k)
                    .collect();
                for grid in [&bulk, &incremental] {
                    prop_assert_eq!(grid.layout_error(), None, "step {}", step);
                    prop_assert_eq!(grid.len(), reference.len());
                    prop_assert_eq!(grid.neighbors(c, r, u32::MAX), want.clone());
                    for key in 0..48 {
                        prop_assert_eq!(grid.position(key), reference.get(&key).copied());
                    }
                    let all: Vec<(u32, Point)> = grid.iter().collect();
                    let expect: Vec<(u32, Point)> = reference.iter().map(|(&k, &p)| (k, p)).collect();
                    prop_assert_eq!(all, expect);
                }
            }
        }
    }
}
