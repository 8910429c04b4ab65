#!/usr/bin/env bash
# Count non-blank lines per crate, in two columns. Non-test lines: every .rs
# file under crates/*/src, up to the file's `#[cfg(test)] mod tests`. Test
# lines: the rest of those files (the `mod tests` tail), the test-only
# oracles (oracle.rs), and every .rs file under a crate's tests/ and under
# the root tests/ (the `root` row). Benches are left out. A report for
# comparing the size of two revisions; not a gate.
#
# Usage:
#   scripts/loc.sh [rev]
#   scripts/loc.sh A B
#
# Without a rev it counts the working tree (untracked files included);
# with one it counts that commit, e.g. `scripts/loc.sh HEAD~1`. With two it
# prints each crate's lines at A and at B and the delta, then the same for
# its test lines; `.` names the working tree, e.g. `scripts/loc.sh HEAD .`.
set -euo pipefail
cd "$(dirname "$0")/.."

rev=""

# Print the tracked (or, in the working tree, also untracked) source and
# test files.
files() {
  if [[ -n "$rev" ]]; then
    git ls-tree -r --name-only "$rev" -- crates tests
  else
    git ls-files --cached --others --exclude-standard -- crates tests
  fi | grep -E '^(crates/[^/]+/(src|tests)|tests)/.*\.rs$' | sort
}

# Print one file's contents.
contents() {
  if [[ -n "$rev" ]]; then
    git show "$rev:$1"
  else
    cat "$1"
  fi
}

# Print the non-blank lines before a `#[cfg(test)]` line that opens `mod
# tests` and those from it on: `code tests`. The rest of the input is read,
# not cut off: an early exit would kill `git show` with SIGPIPE and, under
# pipefail, end the count.
count() {
  awk '
    tests { if (/[^[:space:]]/) t++; next }
    held {
      held = 0
      if ($0 ~ /^[[:space:]]*mod tests/) { tests = 1; t += 2; next }
      n++
    }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = 1; next }
    /[^[:space:]]/ { n++ }
    END { print n + 0, t + 0 }
  '
}

# Print `0 tests`: every non-blank line is a test line.
count_tests() {
  awk '/[^[:space:]]/ { t++ } END { print 0, t + 0 }'
}

# Print `crate lines tests` for every crate at $rev.
per_crate() {
  declare -A lines=() tests=()
  local f crate n t
  while read -r f; do
    [[ -n "$rev" || -f "$f" ]] || continue # deleted but not yet staged
    crate=root
    if [[ $f == crates/* ]]; then
      crate=${f#crates/}
      crate=${crate%%/*}
    fi
    if [[ $f == crates/*/src/* && $f != */oracle.rs ]]; then
      read -r n t < <(contents "$f" | count)
    else
      read -r n t < <(contents "$f" | count_tests)
    fi
    lines[$crate]=$(( ${lines[$crate]:-0} + n ))
    tests[$crate]=$(( ${tests[$crate]:-0} + t ))
  done < <(files)
  for crate in "${!lines[@]}"; do
    printf '%s %d %d\n' "$crate" "${lines[$crate]}" "${tests[$crate]}"
  done | sort
}

if [[ $# -lt 2 ]]; then
  rev="${1:-}"
  total=0 total_tests=0
  printf '%-12s %8s %8s\n' crate lines tests
  while read -r crate n t; do
    printf '%-12s %8d %8d\n' "$crate" "$n" "$t"
    total=$(( total + n )) total_tests=$(( total_tests + t ))
  done < <(per_crate)
  printf '%-12s %8d %8d\n' total "$total" "$total_tests"
  exit 0
fi

# Two revisions: before, after and delta per crate, for lines and for test
# lines (0 where a crate is absent on one side).
declare -A before=() after=() tbefore=() tafter=()
rev=$1; [[ "$rev" == . ]] && rev=""
while read -r crate n t; do before[$crate]=$n tbefore[$crate]=$t; done < <(per_crate)
rev=$2; [[ "$rev" == . ]] && rev=""
while read -r crate n t; do after[$crate]=$n tafter[$crate]=$t; done < <(per_crate)
tb=0 ta=0 ttb=0 tta=0
printf '%-12s %8s %8s %8s %8s %8s %8s\n' crate before after delta t.before t.after t.delta
for crate in $(printf '%s\n' "${!before[@]}" "${!after[@]}" | sort -u); do
  b=${before[$crate]:-0} a=${after[$crate]:-0}
  xb=${tbefore[$crate]:-0} xa=${tafter[$crate]:-0}
  printf '%-12s %8d %8d %+8d %8d %8d %+8d\n' "$crate" "$b" "$a" $(( a - b )) "$xb" "$xa" $(( xa - xb ))
  tb=$(( tb + b )) ta=$(( ta + a )) ttb=$(( ttb + xb )) tta=$(( tta + xa ))
done
printf '%-12s %8d %8d %+8d %8d %8d %+8d\n' total "$tb" "$ta" $(( ta - tb )) "$ttb" "$tta" $(( tta - ttb ))
