#!/usr/bin/env bash
# Paired pdbench A/B: a base revision (A) against the working tree (B).
#
# Usage:
#   scripts/pdbench_ab.sh <rev> <workload> [pairs=10] [seed=42]
#
# Builds <rev>'s pdbench from a `git archive` of it under
# target/pdbench_ab/<sha>/ (kept and reused on later calls) and the working
# tree's pdbench, then runs `pairs` pairs of untraced runs at the
# benchmark's default length, alternating which side runs first. Both sides
# `--record` into target/pdbench_ab/runs/<workload>-<seed>-<time>/{A,B}.jsonl,
# `pdbench --compare A B` prints the medians, quartiles and verdicts, and a
# last table counts the pairs B won per end-to-end metric of BENCHMARK.json
# (ties count for neither side). A gain is claimed only when B wins at least
# nine tenths of the pairs and the medians differ by more than A's quartile
# spread. This is a report, not a gate: it exits 0 whatever the numbers say.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/pdbench_ab.sh <rev> <workload> [pairs=10] [seed=42]"
rev=${1:?$usage}
workload=${2:?$usage}
pairs=${3:-10}
seed=${4:-42}

sha=$(git rev-parse --verify "$rev^{commit}")
base="$PWD/target/pdbench_ab/$sha"
if [[ ! -x "$base/pdbench/target/release/pdbench" ]]; then
  rm -rf "$base"
  mkdir -p "$base"
  git archive "$sha" | tar -x -C "$base"
  cargo build --release --offline --quiet --manifest-path "$base/pdbench/Cargo.toml"
fi
cargo build --release --offline --quiet --manifest-path pdbench/Cargo.toml

bin_a="$base/pdbench/target/release/pdbench"
bin_b="$PWD/pdbench/target/release/pdbench"
out="$PWD/target/pdbench_ab/runs/$workload-$seed-$(date +%Y%m%d-%H%M%S)"
mkdir -p "$out"

run() { # side
  local bin=$bin_a
  [[ $1 == B ]] && bin=$bin_b
  "$bin" --workload "$workload" --seed "$seed" --record "$out/$1.jsonl" > /dev/null
}

for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then order="A B"; else order="B A"; fi
  echo "pair $i/$pairs: $order" >&2
  for side in $order; do run "$side"; done
done

"$bin_b" --compare "$out/A.jsonl" "$out/B.jsonl"

# One value per run, in run order, of metric $2 in record file $1.
values() {
  sed -n "s/.*\"$2\": {\"value\": \([-0-9.eE+]*\).*/\1/p" "$1"
}

echo
echo "pairs won by B ($rev = A, working tree = B), $workload seed $seed:"
grep '"bound"' BENCHMARK.json |
  sed -n 's/.*"name": "\([^"]*\)".*"better": "\([a-z]*\)".*/\1 \2/p' |
  while read -r metric better; do
    paste <(values "$out/A.jsonl" "$metric") <(values "$out/B.jsonl" "$metric") |
      awk -v m="$metric" -v better="$better" '
        { n++; d = $2 - $1; if (better == "lower") d = -d
          if (d > 0) won++; else if (d < 0) lost++ }
        END { printf "  %-24s won %d, lost %d, tied %d of %d\n", m, won, lost, n - won - lost, n }'
  done
echo "records: $out"
