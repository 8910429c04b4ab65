#!/usr/bin/env bash
# Count non-test lines per crate: the non-blank lines of every .rs file
# under crates/*/src, up to the file's `#[cfg(test)] mod tests`. Test-only
# oracles (oracle.rs) are left out, as are crates' tests/ and benches/
# directories. A report for comparing the size of two revisions; not a gate.
#
# Usage:
#   scripts/loc.sh [rev]
#   scripts/loc.sh A B
#
# Without a rev it counts the working tree (untracked files included);
# with one it counts that commit, e.g. `scripts/loc.sh HEAD~1`. With two it
# prints each crate's lines at A and at B and the delta; `.` names the
# working tree, e.g. `scripts/loc.sh HEAD .`.
set -euo pipefail
cd "$(dirname "$0")/.."

rev=""

# Print the tracked (or, in the working tree, also untracked) source files.
files() {
  if [[ -n "$rev" ]]; then
    git ls-tree -r --name-only "$rev" -- crates
  else
    git ls-files --cached --others --exclude-standard -- crates
  fi | grep -E '^crates/[^/]+/src/.*\.rs$' | grep -v '/oracle\.rs$' | sort
}

# Print one file's contents.
contents() {
  if [[ -n "$rev" ]]; then
    git show "$rev:$1"
  else
    cat "$1"
  fi
}

# Count non-blank lines before a `#[cfg(test)]` line that opens `mod tests`.
# The rest of the input is read, not cut off: an early exit would kill
# `git show` with SIGPIPE and, under pipefail, end the count.
count() {
  awk '
    tests { next }
    held {
      held = 0
      if ($0 ~ /^[[:space:]]*mod tests/) { tests = 1; next }
      n++
    }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = 1; next }
    /[^[:space:]]/ { n++ }
    END { print n + 0 }
  '
}

# Print `crate lines` for every crate at $rev.
per_crate() {
  declare -A lines=()
  local f crate
  while read -r f; do
    [[ -n "$rev" || -f "$f" ]] || continue # deleted but not yet staged
    crate=${f#crates/}
    crate=${crate%%/*}
    lines[$crate]=$(( ${lines[$crate]:-0} + $(contents "$f" | count) ))
  done < <(files)
  for crate in "${!lines[@]}"; do
    printf '%s %d\n' "$crate" "${lines[$crate]}"
  done | sort
}

if [[ $# -lt 2 ]]; then
  rev="${1:-}"
  total=0
  printf '%-12s %8s\n' crate lines
  while read -r crate n; do
    printf '%-12s %8d\n' "$crate" "$n"
    total=$(( total + n ))
  done < <(per_crate)
  printf '%-12s %8d\n' total "$total"
  exit 0
fi

# Two revisions: before, after and delta per crate (0 where a crate is
# absent on one side).
declare -A before=() after=()
rev=$1; [[ "$rev" == . ]] && rev=""
while read -r crate n; do before[$crate]=$n; done < <(per_crate)
rev=$2; [[ "$rev" == . ]] && rev=""
while read -r crate n; do after[$crate]=$n; done < <(per_crate)
tb=0 ta=0
printf '%-12s %8s %8s %8s\n' crate before after delta
for crate in $(printf '%s\n' "${!before[@]}" "${!after[@]}" | sort -u); do
  b=${before[$crate]:-0} a=${after[$crate]:-0}
  printf '%-12s %8d %8d %+8d\n' "$crate" "$b" "$a" $(( a - b ))
  tb=$(( tb + b )) ta=$(( ta + a ))
done
printf '%-12s %8d %8d %+8d\n' total "$tb" "$ta" $(( ta - tb ))
