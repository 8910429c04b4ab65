#!/usr/bin/env bash
# Repo verification: build, test, lint, examples, docs. This is what CI
# runs and what a contributor should run before pushing. Tier-1
# (ROADMAP.md) is the build+test pair; clippy keeps the workspace
# warning-clean.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings

# Examples: each runs once and exits nonzero on a failed `expect`.
# `agent_management` retracts an agent still on a site CPU, so the MAS's
# custody of a departing agent runs end to end here, not only in unit tests.
for example in examples/*.rs; do
    cargo run --release --offline --quiet --example "$(basename "$example" .rs)" > /dev/null
done

# Docs: every intra-doc link must resolve, so renaming a documented item or
# field fails here instead of leaving a dead link.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# One XML API: the platform writes with `XmlWriter` and reads with
# `DocReader`. No non-test code names the element tree outside the xml
# crate, the test oracles and `crates/vm/src/program.rs`, whose
# `Program::{to_xml, from_xml}` are pdbench's replay boundary. Non-test
# lines are the ones `scripts/loc.sh` counts: those before the
# `#[cfg(test)]` that opens a file's `mod tests`.
dom_users=$(find crates -path 'crates/*/src/*' -name '*.rs' ! -path 'crates/xml/src/*' \
        ! -name oracle.rs ! -path crates/vm/src/program.rs | sort | xargs awk '
    FNR == 1 { held = 0; tests = 0 }
    tests { next }
    held { held = 0; if ($0 ~ /^[[:space:]]*mod tests/) { tests = 1; next } }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = 1; next }
    /(^|[^A-Za-z0-9_])(Element|TreeBuilder)([^A-Za-z0-9_]|$)/ { print FILENAME ":" FNR ": " $0 }
')
if [[ -n "$dom_users" ]]; then
    echo "verify: non-test code names the element tree:" >&2
    printf '%s\n' "$dom_users" >&2
    exit 1
fi

# pdbench is a standalone package (not a workspace member), so the
# workspace run above cannot catch a change that breaks its build. Test it,
# then run untraced first passes; pdbench exits nonzero when any of its
# correctness checks fails.
cargo test --offline -q --manifest-path pdbench/Cargo.toml

# One untraced `--seconds 0` pdbench pass (arguments after the digest),
# printed to stdout. Its first-pass digest must be the pinned one: a change
# that moves what any deploy computes, sends or times fails here. A change
# meant to move a digest re-pins it and says so.
pdbench_pinned() {
    local want=$1 out
    shift
    out=$(cargo run --release --offline --quiet --manifest-path pdbench/Cargo.toml -- \
        "$@" --seconds 0)
    case "$out" in
        *"digest $want"*) ;;
        *) echo "verify: pdbench $* first-pass digest is not $want:" >&2
           grep 'first pass' <<< "$out" >&2 || true
           exit 1 ;;
    esac
    printf '%s\n' "$out"
}

pdbench_pinned 69a31352277dfa9b --workload fleet_ops > /dev/null
pdbench_pinned 50193c3905865c34 --workload bulk_pi > /dev/null
pdbench_pinned 90c9e1e39da3699e --workload roaming > /dev/null
pdbench_pinned 2a47fcc9e1cc6d67 --workload lossy > /dev/null

# Codec and XML smoke: one traced bulk_pi pass pushes a thousand 48 KB PIs
# through the streaming XML writer, compress and decompress; pdbench exits
# nonzero if a repeated instance's digest drifts. Its replay rebuilds every
# PI and subscription record through the DOM writer and checks them against
# what the handheld sent, so the streaming writer is held to the DOM's bytes
# on 48 KB documents too; every deploy must complete.
bulk=$(cargo run --release --offline --quiet --manifest-path pdbench/Cargo.toml -- \
    --workload bulk_pi --seconds 0 --trace 1 | tail -n 1)
case "$bulk" in
    *'"failed": 0,'*) ;;
    *) echo "verify: bulk_pi reported failed deploys: $bulk" >&2; exit 1 ;;
esac

# VM smoke: one traced roaming pass interprets the ebank agent over 32
# transactions at 8 bank sites per deploy. pdbench exits nonzero if a traced
# instance's digest differs from its untraced run or the replayed hops' VM
# instruction counts differ from the MASes'; every deploy must complete.
roaming=$(cargo run --release --offline --quiet --manifest-path pdbench/Cargo.toml -- \
    --workload roaming --seconds 0 --trace 1 | tail -n 1)
case "$roaming" in
    *'"failed": 0,'*) ;;
    *) echo "verify: roaming reported failed deploys: $roaming" >&2; exit 1 ;;
esac

# Retry budget: lossy seed 310 once abandoned a deploy after five lost
# attempts in a row. The handheld's retry budget must keep it at zero failed.
lossy=$(pdbench_pinned 9e06908a6c1a7158 --workload lossy --seed 310 | tail -n 1)
case "$lossy" in
    *'"failed": 0,'*) ;;
    *) echo "verify: lossy seed 310 reported failed deploys: $lossy" >&2; exit 1 ;;
esac

# Soak smoke: a small sharded soak (64 devices, 1 vs 2 shards) must stay
# byte-identical across the partitionings and keep the batched-delivery
# event reduction above 5x; the binary exits nonzero if either fails. Every
# run also exercises the fleet plane — federation scrapes, fleet rules and
# the escalation and pager-outage drills — and the tail sampler (reservoir
# within budget, nothing left buffering, a well-formed /traces probe) via
# its own shape checks.
cargo build --release -p pdagent-bench --bin soak
./target/release/soak 64 1,2 > /dev/null

# Federation delta-plane smoke: the 300-cell A/B must keep the merged
# rollup byte-identical between delta and full scrape modes while moving at
# least 3x fewer bytes per round, and every full body's streaming ingest must
# equal the snapshot the body was rendered from; ingest that differs from the
# rendered snapshot fails (the binary exits nonzero on any of these gates).
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

# Exactly-once dispatch at scale: 700 handhelds (70 cells) under the same
# mixed schedule. A gateway that re-runs a retransmitted dispatch fails the
# no-duplicate-execution invariant here; the global replay cache the reply
# slots replaced did, at epoch 1110.
SOAK_CHAOS=1 ./target/release/soak 700 1 > /dev/null

# Event-scheduler smoke: the wheel-vs-heap replay must pop byte-identical
# (time, seq) streams (the binary exits nonzero on divergence), and the
# criterion event-loop benches must run clean.
cargo build --release -p pdagent-bench --bin event_queue
./target/release/event_queue 200000 5000 42 > /dev/null
cargo bench -p pdagent-bench --bench event_queue > /dev/null

# Scrape-text smoke: the micro benches' `telemetry` group (a target's delta
# rendered from cached line heads, a warm holder's ingest of it, a monitor's
# cell view) runs once in criterion's `--test` mode, untimed.
cargo bench -p pdagent-bench --bench micro -- --test telemetry > /dev/null

echo "verify: OK"
