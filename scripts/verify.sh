#!/usr/bin/env bash
# Repo verification: build, test, lint. This is what CI runs and what a
# contributor should run before pushing. Tier-1 (ROADMAP.md) is the
# build+test pair; clippy keeps the workspace warning-clean.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test --workspace -q
cargo clippy --workspace -- -D warnings

# pdbench is a standalone package (not a workspace member), so the
# workspace run above cannot catch a change that breaks its build. Test it,
# then run one pass of its fleet_ops workload; pdbench exits nonzero when
# any of its correctness checks fails.
cargo test --offline -q --manifest-path pdbench/Cargo.toml
cargo run --release --offline --quiet --manifest-path pdbench/Cargo.toml -- \
    --workload fleet_ops --seconds 0 > /dev/null

# Federation ablation smoke: with the fleet plane off, the soak must still
# pass every shape check (results are asserted byte-identical to the
# federated run by the crate's unit tests; here we guard the knob itself).
# Runs first so the BENCH_soak.json left on disk is the full federated one.
cargo build --release -p pdagent-bench --bin soak
SOAK_FED=0 ./target/release/soak 64 1,2 > /dev/null

# Tail-sampling ablation smoke: with the sampler off, the soak must still
# pass every shape check and drop zero spans (the crate's unit tests assert
# the off mode leaves results, events and obs digest byte-identical; here we
# guard the knob and the inertness gate bench_diff.sh enforces).
SOAK_SAMPLE=0 ./target/release/soak 64 1,2 > /dev/null

# Soak smoke: a small sharded soak (64 devices, 1 vs 2 shards) must stay
# byte-identical across the partitionings and keep the batched-delivery
# event reduction above 5x; the binary exits nonzero if either fails. The
# default run also exercises the fleet plane — federation scrapes, fleet
# rules and the paging drill — via its own shape checks.
./target/release/soak 64 1,2 > /dev/null

# Federation delta-plane smoke: the 300-cell A/B must keep the merged
# rollup byte-identical between delta and full scrape modes while moving at
# least 3x fewer bytes per round (the binary exits nonzero on either gate).
cargo build --release -p pdagent-bench --bin fed_bench
./target/release/fed_bench 300 12 42 > /dev/null

# Chaos-matrix smoke: a small fixed-seed fault grid (four classes, one
# intensity, 1 vs 2 shards) through every system invariant. Any violation
# exits nonzero after shrinking the plan to a replayable reproducer under
# target/chaos/ (uploaded as a CI artifact). SOAK_CHAOS=1 additionally rides
# a mixed fault schedule on the soak itself and holds the same invariants.
cargo build --release -p pdagent-bench --bin chaos
./target/release/chaos --classes partition,loss,duplicate,crash \
    --intensities 0.5 --seeds 42 --shards 1,2 > /dev/null
SOAK_CHAOS=1 ./target/release/soak 64 1,2 > /dev/null

# Event-scheduler smoke: the wheel-vs-heap replay must pop byte-identical
# (time, seq) streams (the binary exits nonzero on divergence), and the
# criterion event-loop benches must run clean.
cargo build --release -p pdagent-bench --bin event_queue
./target/release/event_queue 200000 5000 42 > /dev/null
cargo bench -p pdagent-bench --bench event_queue -- arm_cancel_fire > /dev/null

echo "verify: OK"
