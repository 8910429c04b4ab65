#!/usr/bin/env bash
# Count non-test lines per crate: the non-blank lines of every .rs file
# under crates/*/src, up to the file's `#[cfg(test)] mod tests`. Test-only
# oracles (oracle.rs) are left out, as are crates' tests/ and benches/
# directories. A report for comparing the size of two revisions; not a gate.
#
# Usage:
#   scripts/loc.sh [rev]
#
# Without a rev it counts the working tree (untracked files included);
# with one it counts that commit, e.g. `scripts/loc.sh HEAD~1`.
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:-}"

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
count() {
  awk '
    held {
      if ($0 ~ /^[[:space:]]*mod tests/) exit
      n++
      held = 0
    }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = 1; next }
    /[^[:space:]]/ { n++ }
    END { print n + 0 }
  '
}

declare -A lines=()
while read -r f; do
  [[ -n "$rev" || -f "$f" ]] || continue # deleted but not yet staged
  crate=${f#crates/}
  crate=${crate%%/*}
  lines[$crate]=$(( ${lines[$crate]:-0} + $(contents "$f" | count) ))
done < <(files)

total=0
printf '%-12s %8s\n' crate lines
for crate in $(printf '%s\n' "${!lines[@]}" | sort); do
  printf '%-12s %8d\n' "$crate" "${lines[$crate]}"
  total=$(( total + lines[$crate] ))
done
printf '%-12s %8d\n' total "$total"
