//! The AODV routing table.
//!
//! One entry per known destination, carrying the RFC 3561 state: next hop,
//! hop count, destination sequence number (and whether it is valid), expiry
//! and validity flag. There are no precursor lists: a broken route is
//! reported by a link-layer broadcast RERR that every neighbour hears (see
//! DESIGN.md), so nothing needs to know who routes through us.

use manet_des::{NodeId, SimDuration, SimTime};

use crate::msg::{seq_at_least, seq_newer};

/// Routing state for one destination.
#[derive(Clone, Debug)]
pub struct RouteEntry {
    /// Neighbor that leads toward the destination.
    pub next_hop: NodeId,
    /// Hops to the destination.
    pub hop_count: u8,
    /// Destination sequence number last heard.
    pub dest_seq: u32,
    /// Whether `dest_seq` was ever learned from the destination's own
    /// advertisement (false for routes learned passively, e.g. from floods).
    pub valid_seq: bool,
    /// When this route stops being usable.
    pub expires: SimTime,
    /// Usable right now. Invalid entries are kept (soft state) so their
    /// sequence numbers still gate stale adverts.
    pub valid: bool,
}

impl RouteEntry {
    /// Usable at time `now`?
    pub fn usable(&self, now: SimTime) -> bool {
        self.valid && self.expires > now
    }
}

/// The table: destination → [`RouteEntry`].
///
/// A flat `Vec` sorted by destination: lookups binary-search it, a new
/// destination is inserted at its search position, and iteration runs in
/// ascending destination order, so RERR contents and diagnostics replay
/// bit-identically. Tables hold tens to low hundreds of entries, so the
/// insert shift stays short and one contiguous block beats a tree walk.
#[derive(Clone, Debug, Default)]
pub struct RouteTable {
    entries: Vec<(NodeId, RouteEntry)>,
}

impl RouteTable {
    /// Empty table.
    pub fn new() -> Self {
        RouteTable::default()
    }

    /// Number of entries (valid or soft-state).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Position of `dst` in the sorted entries, or where it would go.
    fn search(&self, dst: NodeId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&dst, |(d, _)| *d)
    }

    fn get_mut(&mut self, dst: NodeId) -> Option<&mut RouteEntry> {
        let i = self.search(dst).ok()?;
        Some(&mut self.entries[i].1)
    }

    /// The entry for `dst`, usable or not.
    pub fn entry(&self, dst: NodeId) -> Option<&RouteEntry> {
        let i = self.search(dst).ok()?;
        Some(&self.entries[i].1)
    }

    /// The usable route to `dst` at `now`, if any.
    pub fn usable_route(&self, dst: NodeId, now: SimTime) -> Option<&RouteEntry> {
        self.entry(dst).filter(|e| e.usable(now))
    }

    /// Incorporate a routing advertisement for `dst` (from a RREQ's reverse
    /// path, a RREP's forward path, or a passively learned path).
    ///
    /// The entry is replaced iff the advert is *fresher* per RFC 3561 §6.2:
    /// no current entry, newer sequence number, same sequence with fewer
    /// hops, or the current entry is invalid/expired. Passive adverts
    /// (`seq = None`) never displace a valid sequence-numbered route but can
    /// fill gaps. Returns whether the entry changed.
    #[allow(clippy::too_many_arguments)]
    pub fn update(
        &mut self,
        dst: NodeId,
        next_hop: NodeId,
        hop_count: u8,
        seq: Option<u32>,
        lifetime: SimDuration,
        now: SimTime,
    ) -> bool {
        let expires = now + lifetime;
        match self.search(dst) {
            Err(at) => {
                self.entries.insert(
                    at,
                    (
                        dst,
                        RouteEntry {
                            next_hop,
                            hop_count,
                            dest_seq: seq.unwrap_or(0),
                            valid_seq: seq.is_some(),
                            expires,
                            valid: true,
                        },
                    ),
                );
                true
            }
            Ok(i) => {
                let e = &mut self.entries[i].1;
                let fresher = match seq {
                    Some(s) if e.valid_seq => {
                        seq_newer(s, e.dest_seq)
                            || (s == e.dest_seq && (hop_count < e.hop_count || !e.usable(now)))
                    }
                    Some(_) => true, // first real sequence number wins
                    None => !e.usable(now),
                };
                if fresher {
                    e.next_hop = next_hop;
                    e.hop_count = hop_count;
                    if let Some(s) = seq {
                        e.dest_seq = s;
                        e.valid_seq = true;
                    }
                    e.expires = expires;
                    e.valid = true;
                    true
                } else {
                    // A non-displacing advert for the same next hop still
                    // proves the path is alive: extend the lifetime.
                    if e.valid && e.next_hop == next_hop && e.expires < expires {
                        e.expires = expires;
                    }
                    false
                }
            }
        }
    }

    /// Extend the lifetime of an active route (data traffic refresh).
    pub fn refresh(&mut self, dst: NodeId, lifetime: SimDuration, now: SimTime) {
        if let Some(e) = self.get_mut(dst) {
            if e.valid {
                let expires = now + lifetime;
                if e.expires < expires {
                    e.expires = expires;
                }
            }
        }
    }

    /// Invalidate the route to `dst`, bumping its sequence number so stale
    /// adverts cannot resurrect it. Returns the invalidated `(dst, seq)` if
    /// a valid entry existed.
    pub fn invalidate(&mut self, dst: NodeId) -> Option<(NodeId, u32)> {
        let e = self.get_mut(dst)?;
        if !e.valid {
            return None;
        }
        e.valid = false;
        e.dest_seq = e.dest_seq.wrapping_add(1);
        Some((dst, e.dest_seq))
    }

    /// Invalidate every valid route whose next hop is `via`, returning the
    /// affected `(dst, bumped seq)` pairs, sorted by destination — the
    /// contents of the RERR.
    pub fn break_link(&mut self, via: NodeId) -> Vec<(NodeId, u32)> {
        let mut broken: Vec<(NodeId, u32)> = Vec::new();
        for (dst, e) in self.entries.iter_mut() {
            if e.valid && e.next_hop == via {
                e.valid = false;
                e.dest_seq = e.dest_seq.wrapping_add(1);
                broken.push((*dst, e.dest_seq));
            }
        }
        broken
    }

    /// Apply a received RERR from neighbor `from`: invalidate routes to the
    /// listed destinations that go through `from`, adopting the advertised
    /// sequence numbers. Returns the destinations we in turn invalidated
    /// (for our own RERR broadcast).
    pub fn apply_rerr(
        &mut self,
        from: NodeId,
        unreachable: &[(NodeId, u32)],
    ) -> Vec<(NodeId, u32)> {
        let mut propagate = Vec::new();
        for &(dst, seq) in unreachable {
            if let Some(e) = self.get_mut(dst) {
                if e.valid && e.next_hop == from {
                    e.valid = false;
                    if !e.valid_seq || seq_at_least(seq, e.dest_seq) {
                        e.dest_seq = seq;
                        e.valid_seq = true;
                    }
                    propagate.push((dst, e.dest_seq));
                }
            }
        }
        propagate
    }

    /// Drop entries whose soft state outlived its usefulness (expired more
    /// than `grace` ago). Keeps the table bounded on long runs.
    pub fn purge(&mut self, now: SimTime, grace: SimDuration) {
        self.entries
            .retain(|(_, e)| e.valid || e.expires + grace > now);
    }

    /// Iterate all entries in ascending destination order (tests and
    /// diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = (&NodeId, &RouteEntry)> {
        self.entries.iter().map(|(d, e)| (d, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIFE: SimDuration = SimDuration::from_secs(10);

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn new_route_is_usable() {
        let mut rt = RouteTable::new();
        assert!(rt.update(NodeId(5), NodeId(2), 3, Some(7), LIFE, t(0)));
        let e = rt.usable_route(NodeId(5), t(1)).unwrap();
        assert_eq!(e.next_hop, NodeId(2));
        assert_eq!(e.hop_count, 3);
        assert_eq!(e.dest_seq, 7);
    }

    #[test]
    fn expiry_disables_route() {
        let mut rt = RouteTable::new();
        rt.update(NodeId(5), NodeId(2), 3, Some(7), LIFE, t(0));
        assert!(rt.usable_route(NodeId(5), t(9)).is_some());
        assert!(rt.usable_route(NodeId(5), t(10)).is_none());
        assert!(rt.entry(NodeId(5)).is_some(), "soft state is retained");
    }

    #[test]
    fn newer_seq_displaces_even_with_more_hops() {
        let mut rt = RouteTable::new();
        rt.update(NodeId(5), NodeId(2), 2, Some(7), LIFE, t(0));
        assert!(rt.update(NodeId(5), NodeId(3), 9, Some(8), LIFE, t(0)));
        assert_eq!(rt.entry(NodeId(5)).unwrap().next_hop, NodeId(3));
    }

    #[test]
    fn same_seq_needs_fewer_hops() {
        let mut rt = RouteTable::new();
        rt.update(NodeId(5), NodeId(2), 4, Some(7), LIFE, t(0));
        assert!(!rt.update(NodeId(5), NodeId(3), 6, Some(7), LIFE, t(0)));
        assert_eq!(rt.entry(NodeId(5)).unwrap().next_hop, NodeId(2));
        assert!(rt.update(NodeId(5), NodeId(4), 2, Some(7), LIFE, t(0)));
        assert_eq!(rt.entry(NodeId(5)).unwrap().next_hop, NodeId(4));
    }

    #[test]
    fn stale_seq_rejected() {
        let mut rt = RouteTable::new();
        rt.update(NodeId(5), NodeId(2), 4, Some(7), LIFE, t(0));
        assert!(!rt.update(NodeId(5), NodeId(3), 1, Some(6), LIFE, t(0)));
        assert_eq!(rt.entry(NodeId(5)).unwrap().next_hop, NodeId(2));
    }

    #[test]
    fn passive_advert_fills_gap_but_never_displaces() {
        let mut rt = RouteTable::new();
        assert!(rt.update(NodeId(5), NodeId(2), 4, None, LIFE, t(0)));
        assert!(!rt.entry(NodeId(5)).unwrap().valid_seq);
        // Passive cannot displace a usable route...
        assert!(!rt.update(NodeId(5), NodeId(3), 1, None, LIFE, t(1)));
        // ...but a sequence-numbered advert upgrades it.
        assert!(rt.update(NodeId(5), NodeId(4), 2, Some(1), LIFE, t(1)));
        assert!(rt.entry(NodeId(5)).unwrap().valid_seq);
        // And passive refills once the route expires.
        assert!(rt.update(NodeId(5), NodeId(6), 3, None, LIFE, t(30)));
        assert_eq!(rt.entry(NodeId(5)).unwrap().next_hop, NodeId(6));
    }

    #[test]
    fn same_next_hop_refreshes_lifetime_without_displacing() {
        let mut rt = RouteTable::new();
        rt.update(NodeId(5), NodeId(2), 2, Some(7), LIFE, t(0));
        // Same seq, same hops: not "fresher", but proves liveness.
        assert!(!rt.update(NodeId(5), NodeId(2), 2, Some(7), LIFE, t(5)));
        assert!(rt.usable_route(NodeId(5), t(12)).is_some());
    }

    #[test]
    fn refresh_extends_lifetime() {
        let mut rt = RouteTable::new();
        rt.update(NodeId(5), NodeId(2), 2, Some(7), LIFE, t(0));
        rt.refresh(NodeId(5), LIFE, t(8));
        assert!(rt.usable_route(NodeId(5), t(15)).is_some());
    }

    #[test]
    fn invalidate_bumps_seq() {
        let mut rt = RouteTable::new();
        rt.update(NodeId(5), NodeId(2), 2, Some(7), LIFE, t(0));
        assert_eq!(rt.invalidate(NodeId(5)), Some((NodeId(5), 8)));
        assert!(rt.usable_route(NodeId(5), t(1)).is_none());
        assert_eq!(rt.invalidate(NodeId(5)), None, "already invalid");
        // A newer advert can resurrect it.
        assert!(rt.update(NodeId(5), NodeId(3), 2, Some(9), LIFE, t(1)));
        assert!(rt.usable_route(NodeId(5), t(2)).is_some());
    }

    #[test]
    fn break_link_invalidates_all_routes_via_hop() {
        let mut rt = RouteTable::new();
        rt.update(NodeId(5), NodeId(2), 2, Some(7), LIFE, t(0));
        rt.update(NodeId(6), NodeId(2), 3, Some(4), LIFE, t(0));
        rt.update(NodeId(7), NodeId(3), 1, Some(1), LIFE, t(0));
        let broken = rt.break_link(NodeId(2));
        assert_eq!(broken, vec![(NodeId(5), 8), (NodeId(6), 5)]);
        assert!(rt.usable_route(NodeId(7), t(1)).is_some());
    }

    #[test]
    fn apply_rerr_only_affects_routes_via_sender() {
        let mut rt = RouteTable::new();
        rt.update(NodeId(5), NodeId(2), 2, Some(7), LIFE, t(0));
        rt.update(NodeId(6), NodeId(3), 3, Some(4), LIFE, t(0));
        let prop = rt.apply_rerr(NodeId(2), &[(NodeId(5), 9), (NodeId(6), 9)]);
        assert_eq!(prop, vec![(NodeId(5), 9)]);
        assert!(rt.usable_route(NodeId(5), t(1)).is_none());
        assert!(rt.usable_route(NodeId(6), t(1)).is_some());
    }

    #[test]
    fn purge_drops_long_expired_soft_state() {
        let mut rt = RouteTable::new();
        rt.update(NodeId(5), NodeId(2), 2, Some(7), LIFE, t(0));
        rt.invalidate(NodeId(5));
        rt.purge(t(100), SimDuration::from_secs(30));
        assert!(rt.entry(NodeId(5)).is_none());
        assert!(rt.is_empty());
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use manet_testkit::{option_of, prop_assert, prop_assert_eq, properties, vec_of};

    const LIFE: SimDuration = SimDuration::from_secs(10);

    properties! {
        config = manet_testkit::Config::cases(64);

        /// Whatever update sequence is applied, a usable route always has a
        /// strictly future expiry, and invalidation is monotone in sequence
        /// numbers (an entry's seq never goes backwards while valid_seq).
        fn updates_never_regress_sequence_numbers(
            ops in vec_of(
                (1u32..6, 1u32..6, 1u8..10, option_of(0u32..50), 0u64..100),
                1..100,
            )
        ) {
            let mut rt = RouteTable::new();
            let mut last_seq: std::collections::BTreeMap<NodeId, u32> = Default::default();
            for (dst, via, hops, seq, at) in ops {
                let now = SimTime::from_secs(at);
                let dst = NodeId(dst);
                rt.update(dst, NodeId(via), hops, seq, LIFE, now);
                if let Some(e) = rt.entry(dst) {
                    if e.valid_seq {
                        if let Some(&prev) = last_seq.get(&dst) {
                            prop_assert!(
                                crate::msg::seq_at_least(e.dest_seq, prev),
                                "seq regressed for {dst}: {} -> {}",
                                prev,
                                e.dest_seq
                            );
                        }
                        last_seq.insert(dst, e.dest_seq);
                    }
                    if let Some(u) = rt.usable_route(dst, now) {
                        prop_assert!(u.expires > now);
                    }
                }
            }
        }

        /// break_link leaves no valid route through the broken hop and
        /// reports each broken destination exactly once, sorted.
        fn break_link_is_complete_and_sorted(
            routes in vec_of((1u32..8, 1u32..4, 1u8..5, 0u32..20), 1..30),
            via in 1u32..4,
        ) {
            let mut rt = RouteTable::new();
            let now = SimTime::ZERO;
            for (dst, hop, hops, seq) in routes {
                rt.update(NodeId(dst), NodeId(hop), hops, Some(seq), LIFE, now);
            }
            let broken = rt.break_link(NodeId(via));
            let mut sorted = broken.clone();
            sorted.sort_unstable_by_key(|(d, _)| *d);
            sorted.dedup_by_key(|(d, _)| *d);
            prop_assert_eq!(&broken, &sorted, "sorted and unique");
            for (dst, e) in rt.iter() {
                prop_assert!(
                    !(e.valid && e.next_hop == NodeId(via)),
                    "route to {dst} still valid via the broken hop"
                );
            }
        }

        /// After any mix of updates, refreshes, invalidations, link breaks,
        /// RERRs and purges, `iter()` is strictly ascending by destination
        /// and `entry(d)` finds exactly what a linear scan finds, for every
        /// destination in range.
        fn table_stays_sorted_and_searchable(
            ops in vec_of(
                (0u8..9, 0u32..12, 0u32..4, option_of(0u32..30), 0u64..60),
                1..200,
            )
        ) {
            let mut rt = RouteTable::new();
            for (op, dst, via, seq, at) in ops {
                let (dst, via, now) = (NodeId(dst), NodeId(via), SimTime::from_secs(at));
                match op {
                    0..=3 => {
                        rt.update(dst, via, 1 + (at % 5) as u8, seq, LIFE, now);
                    }
                    4 => rt.refresh(dst, LIFE, now),
                    5 => {
                        rt.invalidate(dst);
                    }
                    6 => {
                        rt.break_link(via);
                    }
                    7 => {
                        rt.apply_rerr(via, &[(dst, seq.unwrap_or(0))]);
                    }
                    _ => rt.purge(now, SimDuration::from_secs(at % 20)),
                }
                let dsts: Vec<NodeId> = rt.iter().map(|(d, _)| *d).collect();
                prop_assert!(
                    dsts.windows(2).all(|w| w[0] < w[1]),
                    "not strictly ascending: {dsts:?}"
                );
                prop_assert_eq!(rt.len(), dsts.len());
                for d in (0..12).map(NodeId) {
                    let scanned = rt.iter().find(|(k, _)| **k == d).map(|(_, e)| e);
                    prop_assert!(
                        rt.entry(d).map(|e| e as *const RouteEntry)
                            == scanned.map(|e| e as *const RouteEntry),
                        "entry({d}) disagrees with a linear scan"
                    );
                }
            }
        }
    }
}
