#!/usr/bin/env bash
# Chaos-matrix sweep: run the deterministic fault-schedule grid (every fault
# class x intensity x seed x shard count) through the system invariants and
# record the per-class pass matrix into EXPERIMENTS.md (between the
# chaos_matrix markers). Plans are compiled from `(seed, plan)` alone and
# replay byte-identically at every shard count, so the recorded table is
# reproducible anywhere.
#
#   scripts/chaos_sweep.sh [intensity_list] [seed_list] [shard_list]
#
# Defaults: intensities 0.3,0.6,0.9, seeds 42,43, shard counts 1,2. Any
# invariant violation aborts the sweep (the binary shrinks it to a minimal
# reproducer under target/chaos/ first), so a recorded row is always a
# *passing* row.
set -euo pipefail
cd "$(dirname "$0")/.."

INTENSITIES="${1:-0.3,0.6,0.9}"
SEEDS="${2:-42,43}"
SHARDS="${3:-1,2}"

cargo build --release -p pdagent-bench --bin chaos
echo "chaos_sweep: intensities ${INTENSITIES}, seeds ${SEEDS}, shards ${SHARDS}"

if ! out=$(./target/release/chaos --intensities "${INTENSITIES}" \
        --seeds "${SEEDS}" --shards "${SHARDS}"); then
    printf '%s\n' "${out}" >&2
    echo "chaos_sweep: invariant violation — reproducers left in target/chaos/" >&2
    exit 1
fi

# Aggregate the binary's per-case rows ("class intensity seed shards verdict")
# into a class x intensity pass-count matrix.
table=$(printf '%s\n' "${out}" | awk -v ints="${INTENSITIES}" '
    BEGIN { n = split(ints, I, ",") }
    $5 == "pass" || $5 == "FAIL" {
        c = $1; v = $2 + 0
        if (!(c in seen)) { seen[c] = ++nc; order[nc] = c }
        key = c SUBSEP v
        total[key]++
        if ($5 == "pass") pass[key]++
    }
    END {
        printf "%-12s", "class"
        for (i = 1; i <= n; i++) printf " %10s", "p=" I[i] + 0
        printf "\n"
        for (j = 1; j <= nc; j++) {
            c = order[j]
            printf "%-12s", c
            for (i = 1; i <= n; i++) {
                key = c SUBSEP I[i] + 0
                printf " %10s", (pass[key] + 0) "/" (total[key] + 0)
            }
            printf "\n"
        }
    }')
printf '%s\n' "${table}"

splice() { # begin_marker end_marker block_file
    local begin="$1" end="$2" bfile="$3"
    if ! grep -qF "${begin}" EXPERIMENTS.md; then
        echo "chaos_sweep: EXPERIMENTS.md is missing the ${begin} marker" >&2
        exit 1
    fi
    awk -v bfile="${bfile}" -v begin="${begin}" -v end="${end}" '
        index($0, begin) {
            skip = 1
            while ((getline line < bfile) > 0) print line
            next
        }
        index($0, end) { skip = 0; next }
        !skip { print }
    ' EXPERIMENTS.md > EXPERIMENTS.md.tmp
    mv EXPERIMENTS.md.tmp EXPERIMENTS.md
}

block=$(mktemp)
trap 'rm -f "${block}"' EXIT
{
    echo '<!-- chaos_matrix:begin -->'
    echo "Recorded by \`scripts/chaos_sweep.sh\`: seeds ${SEEDS}, shard counts"
    echo "${SHARDS}. Each cell is passing cases / cases run for one fault class"
    echo "at intensity p — a pass means every system invariant (no lost agents,"
    echo "no duplicate execution, zero dropped pages, monotone epochs, alert"
    echo "pairing) held at every epoch barrier and at quiesce:"
    echo
    echo '```'
    printf '%s\n' "${table}"
    echo '```'
    echo '<!-- chaos_matrix:end -->'
} > "${block}"
splice '<!-- chaos_matrix:begin -->' '<!-- chaos_matrix:end -->' "${block}"

echo "chaos_sweep: recorded the chaos matrix into EXPERIMENTS.md"
