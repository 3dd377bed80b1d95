//! A tiny global string interner for decoded telemetry.
//!
//! The registry, spans and flight recorder all key their entries by
//! `&'static str` — the right choice on the recording side, where every
//! name is a literal and resolution happens once per run. A telemetry
//! *decoder* is the one place names arrive as runtime bytes:
//! the swarm parent reconstructs a child's `ObsReport` from a wire frame
//! and needs `'static` names to feed the same registration APIs.
//! [`intern`] leaks each distinct name exactly once and returns the same
//! `'static` slice for every subsequent request, so a parent decoding
//! thousands of frames allocates proportionally to the *metric schema*
//! (a few dozen names), not to the frame count.

use std::collections::HashSet;
use std::sync::{Mutex, OnceLock};

static INTERNED: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();

/// The `'static` copy of `s`, allocated on first sight and shared
/// forever after. Total leakage is bounded by the set of distinct names
/// ever interned — for telemetry decoding, the metric schema.
pub fn intern(s: &str) -> &'static str {
    let set = INTERNED.get_or_init(|| Mutex::new(HashSet::new()));
    let mut set = set.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&found) = set.get(s) {
        return found;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    set.insert(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_pointer_stable() {
        let a = intern("rt.dgram_rx");
        let b = intern(&String::from("rt.dgram_rx"));
        assert_eq!(a, b);
        assert_eq!(a.as_ptr(), b.as_ptr(), "same allocation both times");
        let c = intern("rt.dgram_tx");
        assert_ne!(a.as_ptr(), c.as_ptr());
    }
}
