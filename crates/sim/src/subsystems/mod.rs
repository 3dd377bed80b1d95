//! The fixed processes that run around the protocol stack: mobility,
//! churn, the fault plan, small-world sampling and the query flooder.
//!
//! Each process is a few free functions over [`WorldCore`]: a `seed` that
//! schedules its first events and one handler per [`Event`] variant it
//! owns, which `World::dispatch` calls directly. Handlers read their
//! parameters from `core.scenario`; the only state a process keeps (the
//! churn and loss-burst RNG streams, the flooders' query counts) lives on
//! the core.
//!
//! [`Event`]: crate::engine::Event

pub(crate) mod adversary;
pub(crate) mod churn;
pub(crate) mod faults;
pub(crate) mod mobility;
pub(crate) mod sampler;

use crate::world::WorldCore;

/// Seed every process's one-time events, after each node's first
/// mobility re-evaluation and join. The order is load-bearing: events at
/// the same instant pop in insertion order, and every pinned fingerprint
/// was captured with the processes seeded in exactly this sequence.
pub(crate) fn seed(core: &mut WorldCore) {
    sampler::seed(core);
    churn::seed(core);
    faults::seed(core);
    adversary::seed(core);
}
