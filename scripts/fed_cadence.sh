#!/usr/bin/env bash
# Federation cadence sweep: run the soak at a range of scrape cadences and
# record the staleness-vs-traffic trade-off into EXPERIMENTS.md (between the
# fed_cadence markers). Staleness here is sim-time — fully deterministic for
# a given seed — so the recorded table is reproducible anywhere.
#
#   scripts/fed_cadence.sh [devices] [seed] [cadence_ms_list] [window_list]
#
# Defaults: 64 devices, seed 42, cadences 2000,5000,10000,20000 ms, fan-in
# windows 1:4,2:8,4:16,8:16 (max_inflight:batch, swept at the fastest
# cadence). Each run goes through the soak binary's full shape checks (zero
# dropped pages, zero unresolved alerts), so a recorded row is always a
# *passing* row.
set -euo pipefail
cd "$(dirname "$0")/.."

DEVICES="${1:-64}"
SEED="${2:-42}"
CADENCES="${3:-2000,5000,10000,20000}"
WINDOWS="${4:-1:4,2:8,4:16,8:16}"

cargo build --release -p pdagent-bench --bin soak
echo "fed_cadence: ${DEVICES} devices, seed ${SEED}, cadences ${CADENCES} ms"

table=$(printf '%-12s %-12s %-12s %-12s %-12s %-14s\n' \
    "cadence_ms" "scrapes_ok" "stale_p50_us" "stale_p99_us" "stale_max_us" "events_total")
for ms in ${CADENCES//,/ }; do
    out=$(SOAK_FED_CADENCE_MS="${ms}" ./target/release/soak "${DEVICES}" 1 "${SEED}")
    # One line like: "federation: N cells x R rounds @ C ms cadence; ..."
    if ! printf '%s\n' "${out}" | grep -q '^federation:'; then
        echo "fed_cadence: soak output had no federation line" >&2
        exit 1
    fi
    json=BENCH_soak.json
    jfield() { sed -n "s/.*\"$1\": *\([0-9.eE+-]*\).*/\1/p" "${json}" | head -1; }
    row=$(printf '%-12s %-12s %-12s %-12s %-12s %-14s\n' \
        "${ms}" "$(jfield fed_scrapes_ok)" "$(jfield staleness_p50_us)" \
        "$(jfield staleness_p99_us)" "$(jfield staleness_max_us)" \
        "$(jfield events_batched)")
    table="${table}
${row}"
    echo "${row}"
done

# Fan-in congestion sweep: hold the fastest cadence and shrink the window.
# Bytes/round and staleness are sim-time deterministic, so this table is
# reproducible anywhere too.
SWEEP_MS=$(printf '%s' "${CADENCES}" | cut -d, -f1)
ctable=$(printf '%-10s %-8s %-12s %-12s %-12s %-14s\n' \
    "inflight" "batch" "scrapes_ok" "stale_p99_us" "stale_max_us" "scraped_bytes")
for win in ${WINDOWS//,/ }; do
    inflight="${win%%:*}"
    batch="${win##*:}"
    out=$(SOAK_FED_CADENCE_MS="${SWEEP_MS}" SOAK_FED_INFLIGHT="${inflight}" \
        SOAK_FED_BATCH="${batch}" ./target/release/soak "${DEVICES}" 1 "${SEED}")
    if ! printf '%s\n' "${out}" | grep -q '^federation:'; then
        echo "fed_cadence: soak output had no federation line" >&2
        exit 1
    fi
    json=BENCH_soak.json
    jfield() { sed -n "s/.*\"$1\": *\([0-9.eE+-]*\).*/\1/p" "${json}" | head -1; }
    row=$(printf '%-10s %-8s %-12s %-12s %-12s %-14s\n' \
        "${inflight}" "${batch}" "$(jfield fed_scrapes_ok)" \
        "$(jfield staleness_p99_us)" "$(jfield staleness_max_us)" \
        "$(jfield fed_scraped_bytes)")
    ctable="${ctable}
${row}"
    echo "${row}"
done

splice() { # begin_marker end_marker block_file
    local begin="$1" end="$2" bfile="$3"
    if ! grep -qF "${begin}" EXPERIMENTS.md; then
        echo "fed_cadence: EXPERIMENTS.md is missing the ${begin} marker" >&2
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
    echo '<!-- fed_cadence:begin -->'
    echo "Recorded by \`scripts/fed_cadence.sh\`: ${DEVICES} devices, seed ${SEED},"
    echo "single shard. Staleness percentiles are the age of each cell's snapshot"
    echo "at fleet-rule evaluation (sim-time, deterministic); events_total is the"
    echo "whole soak's event count — the scrape-traffic cost of going fresher:"
    echo
    echo '```'
    printf '%s\n' "${table}"
    echo '```'
    echo '<!-- fed_cadence:end -->'
} > "${block}"
splice '<!-- fed_cadence:begin -->' '<!-- fed_cadence:end -->' "${block}"

{
    echo '<!-- fed_congestion:begin -->'
    echo "Recorded by \`scripts/fed_cadence.sh\`: ${DEVICES} devices, seed ${SEED},"
    echo "single shard, ${SWEEP_MS} ms cadence, delta scrapes on. Shrinking the"
    echo "fan-in window (max_inflight:batch) trades WAN burstiness for staleness;"
    echo "congestion must surface here and in the \`fed-staleness-*\` rules, never"
    echo "as dropped scrapes:"
    echo
    echo '```'
    printf '%s\n' "${ctable}"
    echo '```'
    echo '<!-- fed_congestion:end -->'
} > "${block}"
splice '<!-- fed_congestion:begin -->' '<!-- fed_congestion:end -->' "${block}"

echo "fed_cadence: recorded cadence + congestion sweeps into EXPERIMENTS.md"
