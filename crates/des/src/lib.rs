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
//!   `(time, insertion-sequence)` ordering, on either of two bit-identical
//!   scheduler backends ([`SchedulerKind`]): a binary heap and a calendar
//!   queue (ns-2's bucketed timing wheel, the default — amortized O(1)
//!   schedule/pop);
//! * [`rng`] — an in-tree xoshiro256++ PRNG ([`Rng`]) with hierarchical,
//!   order-insensitive stream forking, so one master seed reproduces a whole
//!   multi-threaded experiment bit-for-bit.
//!
//! Plus one shared piece of metadata: [`trace`] defines [`TraceCtx`], the
//! inert causal-trace context every layer above can carry on its messages
//! without perturbing a run.
//!
//! One further piece serves the sim-to-real split: [`wire`] holds the
//! byte-exact encoding primitives ([`WireReader`], [`WireError`]) every
//! layer's codec builds on. And [`hash`] holds the keyed integer hasher
//! ([`IntMap`]) behind every per-message duplicate cache.
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
pub mod hash;
pub mod ids;
pub mod queue;
pub mod rng;
pub mod time;
pub mod trace;
pub mod wire;

pub use hash::IntMap;
pub use ids::NodeId;
pub use queue::{EventQueue, SchedulerKind};
pub use rng::Rng;
pub use time::{SimDuration, SimTime, TICKS_PER_SECOND};
pub use trace::TraceCtx;
pub use wire::{WireError, WireReader};

#[cfg(test)]
mod properties {
    use crate::queue::{EventQueue, SchedulerKind};
    use crate::rng::Rng as SimRng;
    use crate::time::SimTime;
    use manet_testkit::{any_u64, prop_assert, prop_assert_eq, properties, vec_of};

    properties! {
        config = manet_testkit::Config::cases(64);

        /// The heap and calendar-queue backends are observationally
        /// identical: fed the same interleaving of schedules, bounded pops
        /// and plain pops — with heavy same-timestamp tie pressure — they
        /// pop the same `(time, payload)` sequence.
        fn schedulers_pop_identically(
            ops in vec_of((0u8..3, 0u64..50), 1..400),
        ) {
            let mut heap = EventQueue::with_scheduler(SchedulerKind::Heap);
            let mut cal = EventQueue::with_scheduler(SchedulerKind::Calendar);
            prop_assert_eq!(cal.scheduler(), SchedulerKind::Calendar);
            let mut scheduled = 0u64;
            for (op, x) in ops {
                match op {
                    // Schedule at a coarse timestamp: plenty of exact ties.
                    0 | 1 => {
                        let at = SimTime::from_ticks(heap.now().ticks() + (x / 10) * 1000);
                        heap.schedule(at, scheduled);
                        cal.schedule(at, scheduled);
                        scheduled += 1;
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
