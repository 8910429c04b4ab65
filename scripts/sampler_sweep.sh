#!/usr/bin/env bash
# Tail-sampler sweep: run the observed soak across a range of head-sample
# rates (1-in-N) and record the retained-bytes-vs-rate trade-off into
# EXPERIMENTS.md (between the sampler_sweep markers). Reservoir accounting
# is sim-deterministic for a given seed, so the recorded table reproduces
# anywhere. Every run goes through the soak binary's full shape checks
# (reservoir under budget, /traces probe well-formed), so a recorded row is
# always a *passing* row.
#
#   scripts/sampler_sweep.sh [devices] [seed] [head_every_list]
#
# Defaults: 64 devices, seed 42, head rates 1,4,16,64,256.
set -euo pipefail
cd "$(dirname "$0")/.."

DEVICES="${1:-64}"
SEED="${2:-42}"
RATES="${3:-1,4,16,64,256}"

cargo build --release -p pdagent-bench --bin soak
echo "sampler_sweep: ${DEVICES} devices, seed ${SEED}, head rates ${RATES}"

json=BENCH_soak.json
jfield() { sed -n "s/.*\"$1\": *\([0-9.eE+-]*\).*/\1/p" "${json}" | head -1; }

table=$(printf '%-12s %-10s %-10s %-14s %-14s %-12s\n' \
    "head_every" "traces" "spans" "dropped_spans" "sampler_bytes" "exemplars")
for n in ${RATES//,/ }; do
    SOAK_SAMPLE_EVERY="${n}" ./target/release/soak "${DEVICES}" 1 "${SEED}" > /dev/null
    row=$(printf '%-12s %-10s %-10s %-14s %-14s %-12s\n' \
        "${n}" "$(jfield sampler_retained_traces)" \
        "$(jfield sampler_retained_spans)" "$(jfield sampler_dropped_spans)" \
        "$(jfield sampler_bytes)" "$(jfield sampler_exemplars)")
    table="${table}
${row}"
    echo "${row}"
done

splice() { # begin_marker end_marker block_file
    local begin="$1" end="$2" bfile="$3"
    if ! grep -qF "${begin}" EXPERIMENTS.md; then
        echo "sampler_sweep: EXPERIMENTS.md is missing the ${begin} marker" >&2
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
    echo '<!-- sampler_sweep:begin -->'
    echo "Recorded by \`scripts/sampler_sweep.sh\`: ${DEVICES} devices, seed ${SEED},"
    echo "single shard, default 512 KiB budget. head_every is the 1-in-N head"
    echo "rate (alert-touched and slow traces are retained regardless):"
    echo
    echo '```'
    printf '%s\n' "${table}"
    echo '```'
    echo '<!-- sampler_sweep:end -->'
} > "${block}"
splice '<!-- sampler_sweep:begin -->' '<!-- sampler_sweep:end -->' "${block}"

echo "sampler_sweep: EXPERIMENTS.md updated"
