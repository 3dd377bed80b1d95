//! # manet-des — deterministic discrete-event simulation engine
//!
//! The foundation of the IPDPS'03 reproduction: a minimal, fully
//! deterministic discrete-event kernel playing the role ns-2 played for the
//! paper's authors.
//!
//! Three pieces:
//!
//! * [`time`] — integer-microsecond simulation clock ([`SimTime`],
//!   [`SimDuration`]);
//! * [`queue`] — the future-event list ([`EventQueue`]) with exact
//!   `(time, insertion-sequence)` ordering and O(1) cancellation, on either
//!   of two bit-identical scheduler backends ([`SchedulerKind`]): a binary
//!   heap and a calendar queue (ns-2's bucketed timing wheel, the default —
//!   amortized O(1) schedule/pop);
//! * [`rng`] — an in-tree xoshiro256++ PRNG ([`Rng`]) with hierarchical,
//!   order-insensitive stream forking, so one master seed reproduces a whole
//!   multi-threaded experiment bit-for-bit.
//!
//! Plus one shared piece of metadata: [`trace`] defines [`TraceCtx`], the
//! inert causal-trace context every layer above can carry on its messages
//! without perturbing a run.
//!
//! Two further pieces serve the sim-to-real split: [`substrate`] defines
//! [`Substrate`], the seam behind which the DES and the real-time UDP
//! driver are interchangeable hosts for the same protocol stacks, and
//! [`wire`] holds the byte-exact encoding primitives ([`WireReader`],
//! [`WireError`]) every layer's codec builds on.
//!
//! Higher layers (radio, AODV, the P2P overlay) are written as pure state
//! machines; the only mutable shared state in a running world is this queue.
//!
//! ```
//! use manet_des::{EventQueue, SimTime, SimDuration, Rng};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! let mut rng = Rng::new(0xC0FFEE);
//! q.schedule(SimTime::from_secs(1), "hello");
//! q.schedule(SimTime::from_secs(1) + SimDuration::from_millis(rng.below(500)), "world");
//! while let Some((at, what)) = q.pop() {
//!     println!("{at}: {what}");
//! }
//! ```

mod calendar;
pub mod ids;
pub mod queue;
pub mod rng;
pub mod substrate;
pub mod time;
pub mod trace;
pub mod wire;

pub use ids::NodeId;
pub use queue::{EventId, EventQueue, SchedulerKind};
pub use rng::Rng;
pub use substrate::Substrate;
pub use time::{SimDuration, SimTime, TICKS_PER_SECOND};
pub use trace::TraceCtx;
pub use wire::{WireError, WireReader};

#[cfg(test)]
mod properties {
    use crate::queue::{EventQueue, SchedulerKind};
    use crate::rng::Rng as SimRng;
    use crate::time::SimTime;
    use manet_testkit::{any_bool, any_u64, prop_assert, prop_assert_eq, properties, vec_of};

    properties! {
        config = manet_testkit::Config::cases(64);

        /// The heap and calendar-queue backends are observationally
        /// identical: fed the same interleaving of schedules, cancels,
        /// bounded pops and plain pops — with heavy same-timestamp tie
        /// pressure — they report the same cancel outcomes and pop the same
        /// `(time, payload)` sequence.
        fn schedulers_pop_identically(
            ops in vec_of((0u8..4, 0u64..50), 1..400),
        ) {
            let mut heap = EventQueue::with_scheduler(SchedulerKind::Heap);
            let mut cal = EventQueue::with_scheduler(SchedulerKind::Calendar);
            prop_assert_eq!(cal.scheduler(), SchedulerKind::Calendar);
            // Logical event index -> per-queue id (slot allocation is a
            // backend detail, so ids are tracked per queue, not shared).
            let mut heap_ids = Vec::new();
            let mut cal_ids = Vec::new();
            let mut scheduled = 0u64;
            for (op, x) in ops {
                match op {
                    // Schedule at a coarse timestamp: plenty of exact ties.
                    0 | 1 => {
                        let at = SimTime::from_ticks(heap.now().ticks() + (x / 10) * 1000);
                        heap_ids.push(heap.schedule(at, scheduled));
                        cal_ids.push(cal.schedule(at, scheduled));
                        scheduled += 1;
                    }
                    // Cancel an arbitrary previously scheduled event.
                    2 if !heap_ids.is_empty() => {
                        let i = (x as usize) % heap_ids.len();
                        let a = heap.cancel(heap_ids[i]);
                        let b = cal.cancel(cal_ids[i]);
                        prop_assert_eq!(a, b, "cancel outcome diverged");
                    }
                    // Pop (sometimes horizon-bounded).
                    _ => {
                        let got = if x % 3 == 0 {
                            let limit = SimTime::from_ticks(
                                heap.now().ticks() + (x % 7) * 1000,
                            );
                            (heap.pop_before(limit), cal.pop_before(limit))
                        } else {
                            (heap.pop(), cal.pop())
                        };
                        prop_assert_eq!(got.0, got.1, "pop diverged");
                        prop_assert_eq!(heap.now(), cal.now());
                    }
                }
                prop_assert_eq!(heap.len(), cal.len());
            }
            // Drain: the tails must match exactly too.
            loop {
                let (a, b) = (heap.pop(), cal.pop());
                prop_assert_eq!(a, b, "drain diverged");
                if a.is_none() {
                    break;
                }
            }
        }

        /// Events always pop in non-decreasing time order, whatever the
        /// scheduling order, with ties resolved by insertion sequence.
        fn queue_pops_sorted(times in vec_of(0u64..10_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_ticks(t), (t, i));
            }
            let mut last: Option<(u64, usize)> = None;
            while let Some((at, (t, i))) = q.pop() {
                prop_assert_eq!(at.ticks(), t);
                if let Some((lt, li)) = last {
                    prop_assert!(t > lt || (t == lt && i > li));
                }
                last = Some((t, i));
            }
        }

        /// Cancelling an arbitrary subset removes exactly that subset.
        fn queue_cancel_subset(
            times in vec_of(0u64..1000, 1..100),
            mask in vec_of(any_bool(), 100..101),
        ) {
            let mut q = EventQueue::new();
            let ids: Vec<_> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| (i, q.schedule(SimTime::from_ticks(t), i)))
                .collect();
            let mut kept = Vec::new();
            for (i, id) in &ids {
                if mask[*i % mask.len()] {
                    prop_assert!(q.cancel(*id));
                } else {
                    kept.push(*i);
                }
            }
            let mut popped: Vec<usize> = Vec::new();
            while let Some((_, i)) = q.pop() {
                popped.push(i);
            }
            popped.sort_unstable();
            kept.sort_unstable();
            prop_assert_eq!(popped, kept);
        }

        /// below(n) is always < n for any seed.
        fn rng_below_in_bounds(seed in any_u64(), bound in 1u64..1_000_000) {
            let mut r = SimRng::new(seed);
            for _ in 0..50 {
                prop_assert!(r.below(bound) < bound);
            }
        }

        /// Forked streams with equal labels are identical; stream equality is
        /// independent of other forks.
        fn rng_fork_reproducible(seed in any_u64(), label in any_u64()) {
            let parent = SimRng::new(seed);
            let mut a = parent.fork(label);
            let _noise = parent.fork(label.wrapping_add(1));
            let mut b = parent.fork(label);
            for _ in 0..20 {
                prop_assert_eq!(a.next_u64(), b.next_u64());
            }
        }

        /// SimTime arithmetic round-trips through seconds within a tick.
        fn time_secs_roundtrip(ticks in 0u64..u64::MAX / 2) {
            let t = SimTime::from_ticks(ticks);
            let back = SimTime::from_secs_f64(t.as_secs_f64());
            let diff = back.ticks().abs_diff(t.ticks());
            // f64 has 53 bits of mantissa; allow proportional slack.
            prop_assert!(diff <= 1 + (ticks >> 50));
        }
    }
}
