//! A tiny global string interner for names read back from bytes.
//!
//! The registry, spans, flight recorder and causal events all carry their
//! names as `&'static str` — the right choice on the recording side, where
//! every name is a literal and recording allocates nothing. The JSONL and
//! artifact readers see names arrive as runtime text:
//! [`ObsReport::from_jsonl`](crate::ObsReport::from_jsonl) (failure
//! dumps, `--obs-out` files, a swarm child's shipped report), the causal
//! trace's JSONL reader and
//! [`events_from_artifact`](crate::causal::events_from_artifact), both
//! through [`event_from_json`](crate::causal::event_from_json). All need
//! `'static` names to build the same types. [`intern`] leaks each distinct
//! name exactly once and returns the same `'static` slice for every
//! subsequent request, so a reader of thousands of reports or spans
//! allocates proportionally to the *schema* (a few dozen metric, label
//! and frame names), not to the input size.

use std::collections::HashSet;
use std::sync::{Mutex, OnceLock};

static INTERNED: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();

/// The `'static` copy of `s`, allocated on first sight and shared
/// forever after. Total leakage is bounded by the set of distinct names
/// ever interned — for reports and artifacts, the schema.
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
