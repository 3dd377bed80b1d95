//! The substrate seam, pinned at compile-review level.
//!
//! The protocol crates run on two substrates: the DES (virtual clock) and
//! the real-time driver (wall clock). That only works if routing
//! (`manet-aodv`), the overlay algorithms (this crate) and the query engine
//! (`p2p-content`) take *every* notion of time as a [`manet_des::SimTime`]
//! argument through the typed verbs and never read a clock of their own,
//! and if none of them grows a dependency on a simulator crate. These tests
//! scan those crates' sources and manifests, so a leak fails CI with the
//! offending file and line in the message rather than surfacing as a
//! Heisenbug on one substrate only. The source scan also covers
//! `p2p-stack`, the node stack both substrates host. The manifest test
//! pins the crates above them: `p2p-stack` may depend on neither
//! substrate, and the real-time substrate needs nothing from the
//! simulator.

use std::fs;
use std::path::{Path, PathBuf};

/// Wall-clock APIs that must never appear in substrate-neutral protocol
/// code: any hit means the crate tells time behind the substrate's back.
const FORBIDDEN: &[&str] = &[
    "std::time",
    "Instant::now",
    "SystemTime",
    "elapsed()",
    "coarsetime",
];

/// A sibling crate's directory (`"."` is this one).
fn crate_dir(dir: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(dir)
}

fn scan_dir(dir: &Path, hits: &mut Vec<String>) {
    for entry in fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            scan_dir(&path, hits);
            continue;
        }
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let text = fs::read_to_string(&path).expect("readable source file");
        for (i, line) in text.lines().enumerate() {
            for pat in FORBIDDEN {
                if line.contains(pat) {
                    hits.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
                }
            }
        }
    }
}

#[test]
fn no_wall_clock_reads_in_protocol_sources() {
    let mut hits = Vec::new();
    for dir in ["../aodv", ".", "../content", "../stack"] {
        scan_dir(&crate_dir(dir).join("src"), &mut hits);
    }
    assert!(
        hits.is_empty(),
        "substrate-neutral code reads a wall clock:\n{}",
        hits.join("\n")
    );
}

#[test]
fn manifest_depends_on_no_substrate() {
    // (crate directory relative to this one, substrate crates it must
    // not name)
    let seams: &[(&str, &[&str])] = &[
        ("../aodv", &["manet-sim", "manet-rt"]),
        (".", &["manet-sim", "manet-rt"]),
        ("../content", &["manet-sim", "manet-rt"]),
        ("../stack", &["manet-sim", "manet-rt"]),
        ("../rt", &["manet-sim"]),
    ];
    for &(dir, forbidden) in seams {
        let manifest = crate_dir(dir).join("Cargo.toml");
        let text = fs::read_to_string(&manifest).expect("readable manifest");
        for dep in forbidden {
            assert!(
                !text.contains(dep),
                "{} must not depend on substrate crate {dep}",
                manifest.display()
            );
        }
    }
}
