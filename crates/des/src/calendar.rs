//! Calendar-queue scheduler backend (a bucketed timing wheel).
//!
//! The classic ns-2 future-event list (Brown 1988): events hash into
//! `buckets.len()` buckets by `floor(time / width) mod buckets`, and the pop
//! cursor sweeps the wheel one *window* (one bucket-width of simulated time)
//! at a time. With the width tuned so each window holds O(1) events, both
//! schedule and pop are amortized O(1) — versus O(log n) for a binary heap —
//! which is what let ns-2 scale to large node counts.
//!
//! Ordering contract: [`take_min`](CalendarQueue::take_min) always removes
//! and returns the globally minimal item by `(time, seq)`. Two items with
//! equal timestamps hash into the same bucket, so the within-bucket scan can
//! resolve the `seq` tie exactly; the wheel therefore reproduces the binary
//! heap's pop sequence bit-for-bit, which `EventQueue` relies on to make the
//! scheduler choice unobservable.
//!
//! Each bucket keeps its pending items sorted ascending by `(time, seq)`
//! behind a consumed-prefix head index, so a cursor visit inspects only the
//! bucket's front item (O(1)) and popping advances the head (O(1)). The
//! classic unsorted-bucket calendar scans whole buckets per visit, which
//! makes it hypersensitive to the width on bursty workloads: this simulation
//! alternates flood bursts (inter-event gaps of microseconds) with timer
//! lulls (gaps of many milliseconds), and no single width serves both when
//! scans are O(bucket). Sorted buckets decouple pop cost from the width;
//! inserts pay a binary search plus a short tail shift, which stays cheap
//! because a tuned width keeps co-window clusters small.
//!
//! Self-tuning: the bucket width is re-estimated on every rebuild from the
//! mean clock advance per pop since the previous rebuild — the measured
//! event density, robust to the skew of the pending set (whose head is
//! whatever burst was scheduled last). A sweep-effort counter triggers a
//! retuning rebuild when the width is doing badly even though the queue
//! size is stable. All heuristics are pure functions of the push/pop
//! sequence — no wall clock, no randomness — so runs stay deterministic and
//! the pop order never changes.

use crate::queue::Item;

/// Smallest wheel size; also the size the wheel shrinks back to.
const MIN_BUCKETS: usize = 16;

/// Bucket width before the first calibration, in ticks (4.096 ms: below the
/// per-hop radio latency, so early traffic spreads across the wheel).
const INITIAL_WIDTH: u64 = 1 << 12;

/// Events sampled (from the earliest queued) when re-estimating the width.
const WIDTH_SAMPLE: usize = 32;

/// Pops between sweep-effort checks; a retuning rebuild fires when the
/// sweep work since the last rebuild exceeds [`EFFORT_FACTOR`] per pop.
/// Long enough that the O(items) rebuild amortizes to noise and the mean
/// pop gap is averaged across burst/lull regimes, not sampled inside one.
const TUNE_INTERVAL: u64 = 8192;

/// Tolerated cursor window-visits per pop before retuning.
const EFFORT_FACTOR: u64 = 16;

/// Most item slots a bucket keeps once it has drained. A flood burst can
/// fill one bucket with thousands of deliveries; a larger buffer is freed
/// when the burst has popped instead of being held for the rest of the run.
const BUCKET_KEEP: usize = 16;

/// One wheel slot: pending items sorted ascending by `(at, seq)` after a
/// consumed prefix of `head` already-popped entries.
#[derive(Clone, Default)]
struct Bucket {
    v: Vec<Item>,
    head: usize,
}

impl Bucket {
    /// First pending item, if any — the bucket's `(at, seq)` minimum.
    #[inline]
    fn front(&self) -> Option<&Item> {
        self.v.get(self.head)
    }

    /// Remove and return the front item. Caller checks non-emptiness.
    fn take_front(&mut self) -> Item {
        let item = self.v[self.head];
        self.head += 1;
        if self.head == self.v.len() {
            self.reset();
        }
        item
    }

    /// Empty the bucket, freeing its buffer if it holds more than
    /// [`BUCKET_KEEP`] slots.
    fn reset(&mut self) {
        if self.v.capacity() > BUCKET_KEEP {
            self.v = Vec::new();
        } else {
            self.v.clear();
        }
        self.head = 0;
    }

    /// Insert preserving ascending `(at, seq)` order. Bursts scheduled in
    /// time order append in O(1); out-of-order arrivals shift only the
    /// bucket's short tail.
    fn insert(&mut self, item: Item) {
        if self.head > 0 && self.head * 2 >= self.v.len() {
            self.v.drain(..self.head);
            self.head = 0;
        }
        // Search only the pending region: the consumed prefix still holds
        // stale copies of taken items (head only advances), and a re-insert
        // of the same key (an unpop) must not land among them.
        let key = (item.at, item.seq);
        let pos =
            self.head + self.v[self.head..].partition_point(|probe| (probe.at, probe.seq) < key);
        if pos == self.v.len() {
            self.v.push(item);
        } else {
            self.v.insert(pos, item);
        }
    }
}

pub(crate) struct CalendarQueue {
    /// The wheel. Length is always a power of two.
    buckets: Vec<Bucket>,
    /// Simulated-time span of one bucket, in ticks (≥ 1).
    width: u64,
    /// Current window number: the cursor is at bucket `window % buckets`,
    /// and an item is *due* there iff `item.at / width == window`.
    window: u64,
    /// Total items stored.
    items: usize,
    /// Time (ticks) of the most recently popped item. Pops are globally
    /// sorted, so this is the popped-time high-water mark.
    last_pop: u64,
    /// `last_pop` as of the previous rebuild: the anchor for the mean
    /// pop-gap width estimate.
    tune_anchor: u64,
    /// Cursor window-visits accumulated since the last rebuild.
    effort: u64,
    /// Pops since the last rebuild.
    pops_since_tune: u64,
    /// Lifetime diagnostics: pops, window visits, fallback scans, rebuilds.
    stats: [u64; 4],
}

impl CalendarQueue {
    pub(crate) fn new() -> Self {
        CalendarQueue {
            buckets: vec![Bucket::default(); MIN_BUCKETS],
            width: INITIAL_WIDTH,
            window: 0,
            items: 0,
            last_pop: 0,
            tune_anchor: 0,
            effort: 0,
            pops_since_tune: 0,
            stats: [0; 4],
        }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.buckets.len() - 1
    }

    #[inline]
    fn bucket_of(&self, ticks: u64) -> usize {
        ((ticks / self.width) as usize) & self.mask()
    }

    pub(crate) fn push(&mut self, item: Item) {
        let b = self.bucket_of(item.at.ticks());
        self.buckets[b].insert(item);
        self.items += 1;
        if self.items > self.buckets.len() * 2 {
            self.rebuild(self.buckets.len() * 2);
        }
    }

    /// Remove and return the stored item with the smallest `(at, seq)`.
    ///
    /// The cursor sweep visits windows in increasing time order. Because
    /// every stored item satisfies `at ≥ now` (the queue never schedules
    /// into the past and `now` only advances to popped times), no item can
    /// hash behind the cursor within its current revolution, so the first
    /// due item found *is* the global minimum. A full revolution without a
    /// due item means the next event lies more than one wheel-span ahead;
    /// a direct scan then finds it and teleports the cursor.
    pub(crate) fn take_min(&mut self) -> Option<Item> {
        if self.items == 0 {
            return None;
        }
        self.stats[0] += 1;
        let mut found = None;
        for _ in 0..self.buckets.len() {
            let b = (self.window as usize) & self.mask();
            self.stats[1] += 1;
            self.effort += 1;
            if self.front_due(b, self.window) {
                found = Some(b);
                break;
            }
            self.window = self.window.saturating_add(1);
        }
        let b = match found {
            Some(b) => b,
            None => {
                // Sparse stretch: nothing within one revolution. Direct
                // search for the global minimum, then jump the cursor.
                self.stats[2] += 1;
                self.effort += self.buckets.len() as u64;
                let b = self.global_min().expect("items > 0");
                self.window = self.buckets[b].front().expect("non-empty").at.ticks() / self.width;
                b
            }
        };
        let item = self.buckets[b].take_front();
        self.items -= 1;
        self.last_pop = item.at.ticks();
        self.pops_since_tune += 1;
        if self.items < self.buckets.len() / 4 && self.buckets.len() > MIN_BUCKETS {
            self.rebuild(self.buckets.len() / 2);
        } else if self.pops_since_tune >= TUNE_INTERVAL
            && self.effort > self.pops_since_tune * EFFORT_FACTOR
        {
            // The width is doing badly (long sweeps or fallback scans) even
            // though the size thresholds have not fired: rebuild in place
            // with a freshly estimated width.
            self.rebuild(self.buckets.len());
        }
        Some(item)
    }

    /// Re-insert an item just returned by [`take_min`](Self::take_min),
    /// rewinding the cursor to the window of the caller's clock `now_ticks`.
    ///
    /// The plain `push` is not enough here: `take_min` advanced the cursor
    /// to the taken item's window, and a later `push` at an earlier time
    /// (but still `≥ now`) would land behind the cursor and be missed for a
    /// whole revolution — breaking the global-minimum guarantee.
    pub(crate) fn unpop(&mut self, item: Item, now_ticks: u64) {
        self.window = now_ticks / self.width;
        self.push(item);
    }

    /// Lifetime diagnostics: `[pops, window_visits, fallback_scans,
    /// rebuilds, width, buckets, items]`. For tuning probes and tests.
    pub(crate) fn stats(&self) -> [u64; 7] {
        let [p, w, f, r] = self.stats;
        [
            p,
            w,
            f,
            r,
            self.width,
            self.buckets.len() as u64,
            self.items as u64,
        ]
    }

    /// Is bucket `b`'s front item due in `window`?
    ///
    /// The front is the bucket's `(at, seq)` minimum and nothing hashes
    /// behind the cursor, so due-ness is a single upper-bound comparison
    /// against the window's last tick — no division, no scan. The
    /// saturating end is exact: only the final representable window can
    /// saturate, and no item can lie beyond it.
    #[inline]
    fn front_due(&self, b: usize, window: u64) -> bool {
        let end = window
            .saturating_mul(self.width)
            .saturating_add(self.width - 1);
        match self.buckets[b].front() {
            Some(item) => item.at.ticks() <= end,
            None => false,
        }
    }

    /// Bucket holding the globally minimal `(at, seq)` item: the minimum
    /// over bucket fronts, since each front is its bucket's minimum.
    fn global_min(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            if let Some(item) = bucket.front() {
                let better = match best {
                    Some(bb) => {
                        let cur = self.buckets[bb].front().expect("candidate non-empty");
                        (item.at, item.seq) < (cur.at, cur.seq)
                    }
                    None => true,
                };
                if better {
                    best = Some(b);
                }
            }
        }
        best
    }

    /// Re-bucket everything into a wheel of `new_len` buckets (clamped to a
    /// power of two ≥ [`MIN_BUCKETS`]) with a freshly sampled width.
    ///
    /// The cursor is re-derived from the start tick of the current window,
    /// which is ≤ every stored item's time, so the sweep invariant (nothing
    /// behind the cursor) survives the rebuild.
    fn rebuild(&mut self, new_len: usize) {
        let new_len = new_len.max(MIN_BUCKETS).next_power_of_two();
        let base = self.window.saturating_mul(self.width);
        let mut old: Vec<Item> = Vec::with_capacity(self.items);
        for b in &mut self.buckets {
            old.extend_from_slice(&b.v[b.head..]);
            b.reset();
        }
        self.width = self.sample_width(&old);
        if self.buckets.len() != new_len {
            self.buckets = vec![Bucket::default(); new_len];
        }
        self.window = base / self.width;
        self.stats[3] += 1;
        self.effort = 0;
        self.pops_since_tune = 0;
        self.tune_anchor = self.last_pop;
        // Redistribute in global `(at, seq)` order so every bucket receives
        // its items in ascending order: pure appends, no insertion shifts.
        old.sort_unstable_by_key(|item| (item.at, item.seq));
        for item in old {
            let b = self.bucket_of(item.at.ticks());
            self.buckets[b].v.push(item);
        }
    }

    /// Estimate a bucket width for the next rebuild.
    ///
    /// Preferred estimate: the mean clock advance per pop since the last
    /// rebuild — `(last popped time - anchor) / pops` over at least a
    /// thousand pops, so bursts of simultaneous events and quiet stretches
    /// average out instead of whipsawing the width (a short-window sample
    /// oscillates by orders of magnitude on bursty workloads and triggers a
    /// costly rebuild every interval). The pending set is a biased sample —
    /// its head is whatever burst was scheduled last — but the pop sequence
    /// *is* the workload. Before any pops have spread (bulk loading,
    /// simultaneous bursts) fall back to the mean gap of the earliest
    /// [`WIDTH_SAMPLE`] stored items, then to the current width.
    fn sample_width(&self, items: &[Item]) -> u64 {
        if self.pops_since_tune >= 2 && self.last_pop > self.tune_anchor {
            let gap = (self.last_pop - self.tune_anchor) / self.pops_since_tune;
            if gap > 0 {
                return gap.saturating_mul(4);
            }
        }
        if items.len() < 2 {
            return self.width;
        }
        let mut times: Vec<u64> = items.iter().map(|i| i.at.ticks()).collect();
        let k = WIDTH_SAMPLE.min(times.len());
        times.select_nth_unstable(k - 1);
        let head = &mut times[..k];
        head.sort_unstable();
        let span = head[k - 1] - head[0];
        let gap = span / (k as u64 - 1);
        if gap == 0 {
            self.width
        } else {
            gap.saturating_mul(3).max(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn item(at: u64, seq: u64) -> Item {
        Item {
            at: SimTime::from_ticks(at),
            seq,
            slot: seq as usize,
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut c = CalendarQueue::new();
        c.push(item(500, 0));
        c.push(item(100, 1));
        c.push(item(100, 2));
        c.push(item(9_000_000, 3));
        let order: Vec<u64> = std::iter::from_fn(|| c.take_min()).map(|i| i.seq).collect();
        assert_eq!(order, vec![1, 2, 0, 3]);
        assert_eq!(c.items, 0);
    }

    #[test]
    fn sparse_far_future_events_are_found() {
        let mut c = CalendarQueue::new();
        // Far beyond one revolution of the initial wheel.
        c.push(item(u64::from(u32::MAX) * 1000, 0));
        c.push(item(3, 1));
        assert_eq!(c.take_min().unwrap().seq, 1);
        assert_eq!(c.take_min().unwrap().seq, 0);
        assert!(c.take_min().is_none());
    }

    #[test]
    fn grows_and_shrinks_through_rebuilds() {
        let mut c = CalendarQueue::new();
        for i in 0..10_000u64 {
            c.push(item(i * 37 % 100_000, i));
        }
        assert!(c.buckets.len() > MIN_BUCKETS, "wheel should have grown");
        let mut last = (0u64, 0u64);
        let mut n = 0;
        while let Some(it) = c.take_min() {
            let cur = (it.at.ticks(), it.seq);
            assert!(
                cur > last || n == 0,
                "order violated: {cur:?} after {last:?}"
            );
            last = cur;
            n += 1;
        }
        assert_eq!(n, 10_000);
        assert_eq!(c.buckets.len(), MIN_BUCKETS, "wheel should shrink back");
    }

    #[test]
    fn drained_burst_gives_its_buffer_back() {
        let mut c = CalendarQueue::new();
        // A far-off background holds the wheel at its grown size, as the
        // simulation's steady queue does; without it the wheel would shrink
        // back and rebuild every bucket anyway.
        let background = 2_100;
        let far = 5 * INITIAL_WIDTH;
        for i in 0..background {
            c.push(item(far, i));
        }
        let burst = 10_000;
        for i in 0..burst {
            c.push(item(1, background + i));
        }
        let wheel = c.buckets.len();
        for i in 0..burst {
            assert_eq!(c.take_min().unwrap().seq, background + i);
        }
        assert_eq!(c.buckets.len(), wheel, "the wheel did not shrink");
        assert_eq!(c.items, background as usize);
        for b in c.buckets.iter().filter(|b| b.front().is_none()) {
            assert!(b.v.capacity() <= BUCKET_KEEP, "{}", b.v.capacity());
        }
        let slots: usize = c.buckets.iter().map(|b| b.v.capacity()).sum();
        assert!(
            slots < burst as usize,
            "{slots} slots held after draining a {burst}-item burst"
        );
        let order: Vec<u64> = std::iter::from_fn(|| c.take_min()).map(|i| i.seq).collect();
        assert_eq!(order, (0..background).collect::<Vec<_>>());
    }

    #[test]
    fn max_time_items_do_not_wedge_the_cursor() {
        let mut c = CalendarQueue::new();
        c.push(item(u64::MAX, 0));
        c.push(item(u64::MAX, 1));
        assert_eq!(c.take_min().unwrap().seq, 0);
        assert_eq!(c.take_min().unwrap().seq, 1);
        assert!(c.take_min().is_none());
    }
}
