//! A keyed integer hasher for the per-message duplicate caches.
//!
//! Every node keeps caches of message identities it has already handled:
//! AODV's `(origin, rreq_id)` and `(origin, flood_id)` caches and the query
//! engine's seen-query set. Most RREQs and floods a node hears are
//! duplicates, so an AODV cache probe runs for most receptions and its
//! hash sits on the hottest path of a run. The keys are a few small
//! integers, and an [`IntHasher`] folds each one into its state with one
//! rotate, xor and multiply, where the standard library's SipHash runs its
//! full rounds.
//!
//! The keys can arrive from outside the program (the `manet-rt` substrate
//! decodes them from UDP datagrams), so the hasher is keyed: its state
//! starts from a 64-bit secret drawn once per process from
//! [`std::hash::RandomState`]. The secret enters through the rotate and xor
//! ahead of each multiply, so which ids collide depends on it, and a peer
//! that does not know it cannot precompute ids that all land in one
//! bucket (it is no keyed PRF like SipHash, though). Every map built in a
//! process shares the secret ([`IntState`] reads it once per map), so
//! building a map draws no randomness. Iteration order differs between
//! processes, as with the standard hasher; the caches are only ever
//! probed and pruned, never iterated for output.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::OnceLock;

/// Odd 64-bit multiplier (from the `rustc-hash` family): one multiply
/// spreads every input bit into the high half of the state.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// A `HashMap` hashed by [`IntHasher`] under the process key.
pub type IntMap<K, V> = HashMap<K, V, IntState>;

/// The process-wide hashing secret, drawn on first use.
fn process_key() -> u64 {
    static KEY: OnceLock<u64> = OnceLock::new();
    *KEY.get_or_init(|| RandomState::new().hash_one(0x5eed_u64))
}

/// Builds [`IntHasher`]s that all start from the process key.
#[derive(Clone, Copy, Debug)]
pub struct IntState {
    key: u64,
}

impl Default for IntState {
    fn default() -> Self {
        IntState { key: process_key() }
    }
}

impl BuildHasher for IntState {
    type Hasher = IntHasher;

    #[inline]
    fn build_hasher(&self) -> IntHasher {
        IntHasher { state: self.key }
    }
}

/// Multiply-rotate hasher for keys made of a few `u32`s (node ids and
/// sequence numbers). Other integers and bytes hash one byte per multiply.
#[derive(Clone, Copy, Debug)]
pub struct IntHasher {
    state: u64,
}

impl IntHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    /// The multiply leaves its best-mixed bits at the top; rotate them down
    /// to the low bits a hash table indexes its buckets by.
    #[inline]
    fn finish(&self) -> u64 {
        self.state.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::rng::Rng;
    use std::collections::{BTreeMap, BTreeSet};

    /// Two maps built in one process share the key, hash alike, and agree
    /// with an ordered reference map through a random mix of inserts,
    /// probes and prunes.
    #[test]
    fn maps_in_one_process_agree_on_membership() {
        let (a, b) = (IntState::default(), IntState::default());
        assert_eq!(
            a.hash_one((NodeId(3), 17u32)),
            b.hash_one((NodeId(3), 17u32))
        );
        let mut maps: [IntMap<(NodeId, u32), u64>; 2] = [IntMap::default(), IntMap::default()];
        let mut reference = BTreeMap::new();
        let mut rng = Rng::new(11);
        for step in 0..20_000u64 {
            let key = (NodeId(rng.below(40) as u32), rng.below(200) as u32);
            match rng.below(4) {
                0 | 1 => {
                    for m in &mut maps {
                        m.insert(key, step);
                    }
                    reference.insert(key, step);
                }
                2 => {
                    let want = reference.get(&key);
                    for m in &maps {
                        assert_eq!(m.get(&key), want, "step {step}: {key:?}");
                    }
                }
                _ => {
                    let cutoff = step.saturating_sub(rng.below(3_000));
                    for m in &mut maps {
                        m.retain(|_, &mut at| at > cutoff);
                    }
                    reference.retain(|_, &mut at| at > cutoff);
                }
            }
            for m in &maps {
                assert_eq!(m.len(), reference.len());
            }
        }
    }

    /// One origin's sequential ids (RREQ, flood and query ids all count up
    /// from 0) must spread over the low bits hashbrown picks a bucket by,
    /// not share them. So must ids that differ only in their high bits:
    /// without the final rotate, those would all land in one bucket.
    #[test]
    fn sequential_ids_vary_the_low_bits() {
        let state = IntState::default();
        let slots = |origin: u32, shift: u32| -> usize {
            let low: BTreeSet<u64> = (0..1024u32)
                .map(|seq| state.hash_one((NodeId(origin), seq << shift)) & 1023)
                .collect();
            low.len()
        };
        for origin in [0u32, 1, 199, 1_999] {
            // A uniform hash would fill about 63 % of the 1,024 slots.
            let sequential = slots(origin, 0);
            assert!(sequential > 512, "origin {origin}: {sequential} slots");
            let high = slots(origin, 20);
            assert!(high > 256, "origin {origin}, ids << 20: {high} slots");
        }
    }
}
