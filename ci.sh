#!/usr/bin/env bash
# The tier-1 gate (see ROADMAP.md): everything here must pass fully offline
# on a clean checkout — the workspace has zero external dependencies.
set -euo pipefail
cd "$(dirname "$0")"

# Per-stage wall-clock accounting, printed as a summary at the end.
STAGE_NAMES=()
STAGE_SECS=()
CURRENT_STAGE=""
STAGE_T0=0

stage() {
    stage_end
    CURRENT_STAGE="$1"
    STAGE_T0=$SECONDS
    echo "== $CURRENT_STAGE =="
}

stage_end() {
    if [[ -n "$CURRENT_STAGE" ]]; then
        STAGE_NAMES+=("$CURRENT_STAGE")
        STAGE_SECS+=($((SECONDS - STAGE_T0)))
        CURRENT_STAGE=""
    fi
}

stage "fmt"
cargo fmt --all -- --check

stage "clippy"
cargo clippy --workspace --all-targets --offline -- -D warnings

stage "doc"
# Rustdoc is part of the contract: broken intra-doc links or bad code
# fences fail the gate, not just warn.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet

stage "build (release)"
cargo build --workspace --release --offline

stage "test"
cargo test --workspace -q --offline

stage "perfbench build"
# The benchmark is its own cargo workspace, so nothing above builds it.
# Build it against this workspace and run its derivation tests, so a
# public-API change that breaks the benchmark fails here. Writes only to
# the gitignored .bench_build directory.
CARGO_TARGET_DIR=.bench_build cargo test --offline -q --manifest-path perfbench/Cargo.toml

stage "bench smoke"
# One-iteration shrunken runs so the bench binaries (and their JSON output
# path) cannot bitrot. Real numbers live in the checked-in BENCH_RESULTS.json;
# the smoke run writes to a scratch file to leave the baseline untouched.
BENCH_SMOKE_JSON="target/bench_smoke.json"
rm -f "$BENCH_SMOKE_JSON"
BENCH_ITERS=1 BENCH_HOT_NODES=40 BENCH_HOT_SECS=60 BENCH_JSON="$BENCH_SMOKE_JSON" \
    cargo run --release -q --offline -p bench --bin micro > /dev/null
BENCH_ITERS=1 BENCH_JSON="$BENCH_SMOKE_JSON" \
    cargo run --release -q --offline -p bench --bin figures > /dev/null
CITY_NODES=300 CITY_SECS=20 BENCH_ITERS=1 BENCH_JSON="$BENCH_SMOKE_JSON" \
    cargo run --release -q --offline -p bench --bin city_10k > /dev/null
test -s "$BENCH_SMOKE_JSON" || { echo "bench smoke produced no JSON"; exit 1; }

stage "obs smoke"
# One short instrumented run with the sink enabled; obs_check parses every
# JSONL line and asserts the core per-subsystem counters are present.
OBS_SMOKE_DIR="target/obs_smoke"
rm -rf "$OBS_SMOKE_DIR"
cargo run --release -q --offline -p manet-sim --bin reproduce -- \
    --nodes 12 --duration 60 --reps 1 --obs-out "$OBS_SMOKE_DIR" > /dev/null
cargo run --release -q --offline -p manet-obs --bin obs_check -- "$OBS_SMOKE_DIR"

stage "trace smoke"
# One short instrumented run with causal tracing on; obs_check validates
# the exported artifacts (trace-event quintet, parent links, monotone
# timestamps, JSON round-trip) and trace_query summarises one of them.
TRACE_SMOKE_DIR="target/trace_smoke"
rm -rf "$TRACE_SMOKE_DIR"
cargo run --release -q --offline -p manet-sim --bin reproduce -- \
    --nodes 20 --duration 120 --reps 1 --trace-out "$TRACE_SMOKE_DIR" > /dev/null 2>&1
cargo run --release -q --offline -p manet-obs --bin obs_check -- "$TRACE_SMOKE_DIR"
# Via a temp file rather than `| head`: head closing the pipe early would
# kill trace_query with SIGPIPE under pipefail.
cargo run --release -q --offline -p manet-obs --bin trace_query -- \
    "$TRACE_SMOKE_DIR/Regular_rep0.trace.json" > target/trace_smoke_summary.txt
head -n 5 target/trace_smoke_summary.txt
grep -q "route_discovery" target/trace_smoke_summary.txt \
    || { echo "trace_query produced no latency decomposition"; exit 1; }

stage "corpus smoke"
# The scenario-DSL corpus: parse and validate every checked-in .scn file,
# then run the two cheapest end-to-end and verify their pinned aggregates
# reproduce exactly (the full matrix runs as a tier-1 test; this guards
# the sweep/reproduce CLI paths on the release build).
cargo run --release -q --offline -p manet-sim --bin sweep -- \
    --corpus corpus --check-only
cargo run --release -q --offline -p manet-sim --bin sweep -- \
    --corpus corpus --cheapest 2
cargo run --release -q --offline -p manet-sim --bin reproduce -- \
    --scenario corpus/SELFISH_MAJORITY.scn > /dev/null

stage "swarm-smoke"
# The real-time substrate end-to-end: an 8-process loopback swarm runs the
# Regular algorithm over real UDP sockets for a few wall-seconds and must
# answer at least one query with every child exiting cleanly (the swarm
# bin asserts both and retries a bounded number of times before failing).
cargo run --release -q --offline -p manet-rt --bin swarm -- \
    --nodes 8 --algo regular --duration-ms 4000 --seed 1 \
    --min-answered 1 --retries 2 \
    | grep -q "SWARM OK" \
    || { echo "swarm smoke: no answered query or unclean exit"; exit 1; }
# The same swarm with observability on: every child ships telemetry frames
# over stdout, the parent merges them into one ObsReport (counters must
# reconcile exactly with the RESULT lines — the swarm bin asserts that) and
# one clock-stitched Perfetto artifact with at least one causal tree
# spanning two or more OS processes. obs_check then validates the merged
# artifacts like any other obs output directory.
SWARM_OBS_DIR="target/obs_swarm"
rm -rf "$SWARM_OBS_DIR"
cargo run --release -q --offline -p manet-rt --bin swarm -- \
    --nodes 8 --algo regular --duration-ms 4000 --seed 1 \
    --min-answered 1 --retries 2 --obs --obs-dir "$SWARM_OBS_DIR" \
    | grep -q "SWARM OK" \
    || { echo "swarm smoke (obs): merge, reconcile, or stitch failed"; exit 1; }
cargo run --release -q --offline -p manet-obs --bin obs_check -- "$SWARM_OBS_DIR"

stage "perf gate (obs tax)"
# Three throughput gates. Two run on the 200-node 900 s Regular hot-path
# scenario: the disabled sink within 1% of the checked-in baseline
# (observability must stay free when off), and the enabled sink within 3%
# of the disabled run measured in the same pair (the tax budget that lets
# obs default to on). The third is a scale rung: a 2,000-node world at
# Table 2 density, sink on, must reach at least 0.45 of the passing pair's
# enabled-sink events/sec, so per-event cost that grows with the node count
# fails CI.
cargo run --release -q --offline -p bench --bin perf_gate

stage_end
echo
echo "ci.sh: all gates passed"
TOTAL=0
for i in "${!STAGE_NAMES[@]}"; do
    printf '  %-26s %4ds\n' "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}"
    TOTAL=$((TOTAL + STAGE_SECS[i]))
done
printf '  %-26s %4ds\n' "total" "$TOTAL"
