#!/usr/bin/env bash
# Compare freshly generated BENCH_<figure>.json reports against the
# committed baselines in bench/baselines/, flagging wall-time and
# events-per-second regressions beyond the threshold (default 20%).
#
# Usage:
#   scripts/bench_diff.sh [--threshold PCT] [report_dir]
#
# report_dir defaults to the repo root (where the figure binaries write
# their BENCH_*.json). Exits nonzero if any figure regressed; missing
# baselines or reports are reported but do not fail the run, so adding a
# new figure never blocks until its baseline is committed.
set -euo pipefail
cd "$(dirname "$0")/.."

threshold=20
if [[ "${1:-}" == "--threshold" ]]; then
  threshold="$2"
  shift 2
fi
report_dir="${1:-.}"
baseline_dir="bench/baselines"

# Extract a top-level numeric field from one of our BENCH json files.
# The envelope is flat for these keys, so a sed scrape is reliable.
field() { # file key
  local v
  v=$(sed -n "s/.*\"$2\": *\([0-9.eE+-]*\).*/\1/p" "$1" | head -1)
  echo "${v:-0}"
}

# pct_change new old -> integer percent change ((new-old)/old*100), via awk.
pct_change() {
  awk -v n="$1" -v o="$2" 'BEGIN {
    if (o == 0) { print 0; exit }
    printf "%d\n", (n - o) / o * 100
  }'
}

status=0
checked=0
for baseline in "$baseline_dir"/BENCH_*.json; do
  [[ -e "$baseline" ]] || { echo "no baselines in $baseline_dir"; exit 0; }
  name=$(basename "$baseline")
  report="$report_dir/$name"
  if [[ ! -f "$report" ]]; then
    echo "SKIP $name: no fresh report in $report_dir (run the figure binaries first)"
    continue
  fi
  checked=$((checked + 1))

  old_wall=$(field "$baseline" wall_secs)
  new_wall=$(field "$report" wall_secs)
  old_eps=$(field "$baseline" events_per_sec)
  new_eps=$(field "$report" events_per_sec)

  wall_pct=$(pct_change "$new_wall" "$old_wall")
  # events/sec regresses when it *drops*, so compare baseline against fresh.
  eps_pct=$(pct_change "$old_eps" "$new_eps")

  verdict="ok"
  if (( wall_pct > threshold )); then
    verdict="WALL-TIME REGRESSION (+${wall_pct}%)"
    status=1
  fi
  if (( eps_pct > threshold )); then
    verdict="$verdict THROUGHPUT REGRESSION (-${eps_pct}%)"
    status=1
  fi
  printf '%-28s wall %ss -> %ss (%+d%%)   events/s %s -> %s   %s\n' \
    "$name" "$old_wall" "$new_wall" "$wall_pct" "$old_eps" "$new_eps" "$verdict"

  # fig13 carries a multi-core "speedup" field. On a single-core host the
  # parallel harness degenerates to the sequential path, so any speedup
  # delta is noise — record it, never flag it there.
  old_speedup=$(field "$baseline" speedup)
  new_speedup=$(field "$report" speedup)
  if [[ "$old_speedup" != 0 && "$new_speedup" != 0 ]]; then
    cores=$(nproc 2>/dev/null || echo 1)
    if (( cores <= 1 )); then
      printf '%-28s speedup %s -> %s   SKIP (nproc == 1: parallel path runs sequentially)\n' \
        "$name" "$old_speedup" "$new_speedup"
    else
      sp_pct=$(pct_change "$old_speedup" "$new_speedup")
      sp_verdict="ok"
      if (( sp_pct < -threshold )); then
        sp_verdict="SPEEDUP REGRESSION (${sp_pct}%)"
        status=1
      fi
      printf '%-28s speedup %s -> %s (%+d%%)   %s\n' \
        "$name" "$old_speedup" "$new_speedup" "$sp_pct" "$sp_verdict"
    fi
  fi

  # The event-queue report carries the wheel-vs-heap speedup. The ratio is
  # wall-clock based but both sides run in the same process on the same
  # host, so it is far more stable than raw wall times: hold it to the
  # regression threshold against the baseline, and to the hard 2.0x floor
  # the scheduler swap promised regardless of baseline.
  old_qsp=$(field "$baseline" queue_speedup)
  new_qsp=$(field "$report" queue_speedup)
  if [[ "$old_qsp" != 0 && "$new_qsp" != 0 ]]; then
    qsp_pct=$(pct_change "$old_qsp" "$new_qsp")
    qsp_verdict="ok"
    if (( qsp_pct < -threshold )); then
      qsp_verdict="QUEUE-SPEEDUP REGRESSION (${qsp_pct}%)"
      status=1
    fi
    if awk -v s="$new_qsp" 'BEGIN { exit !(s < 2.0) }'; then
      qsp_verdict="QUEUE SPEEDUP BELOW 2.0x FLOOR"
      status=1
    fi
    printf '%-28s queue speedup %sx -> %sx (%+d%%)   %s\n' \
      "$name" "$old_qsp" "$new_qsp" "$qsp_pct" "$qsp_verdict"
  fi

  # The soak report carries the batched-delivery event reduction, which is
  # deterministic (no wall clock involved), so hold it to the same bar.
  old_red=$(field "$baseline" event_reduction)
  new_red=$(field "$report" event_reduction)
  if [[ "$old_red" != 0 && "$new_red" != 0 ]]; then
    red_pct=$(pct_change "$old_red" "$new_red")
    red_verdict="ok"
    if (( red_pct < -threshold )); then
      red_verdict="EVENT-REDUCTION REGRESSION (${red_pct}%)"
      status=1
    fi
    printf '%-28s event reduction %sx -> %sx (%+d%%)   %s\n' \
      "$name" "$old_red" "$new_red" "$red_pct" "$red_verdict"
  fi

  # The soak report's federation section (absent from reports that predate
  # the fleet plane, in which case both sides read 0 and the gates stay
  # quiet). Staleness is sim-time,
  # fully deterministic, so a p99 past the threshold vs baseline means the
  # scrape plane genuinely got slower — not host noise.
  old_stale=$(field "$baseline" staleness_p99_us)
  new_stale=$(field "$report" staleness_p99_us)
  if [[ "$old_stale" != 0 && "$new_stale" != 0 ]]; then
    stale_pct=$(pct_change "$new_stale" "$old_stale")
    stale_verdict="ok"
    if (( stale_pct > threshold )); then
      stale_verdict="FEDERATION STALENESS REGRESSION (+${stale_pct}%)"
      status=1
    fi
    printf '%-28s staleness p99 %sus -> %sus (%+d%%)   %s\n' \
      "$name" "$old_stale" "$new_stale" "$stale_pct" "$stale_verdict"
  elif [[ "$new_stale" != 0 ]]; then
    # Fresh report has a federation section but the baseline predates it:
    # say so instead of silently passing, so a missing gate is visible.
    printf '%-28s staleness p99 %sus   SKIP (no federation section in baseline)\n' \
      "$name" "$new_stale"
  elif [[ "$old_stale" != 0 ]]; then
    printf '%-28s staleness p99 baseline %sus   SKIP (no federation section in report)\n' \
      "$name" "$old_stale"
  fi

  # The federation bench: bytes moved per delta round is sim-deterministic,
  # so hold it to the threshold; a cross-mode rollup checksum mismatch means
  # the delta path changed observable state — always a hard failure.
  old_bpr=$(field "$baseline" bytes_per_round)
  new_bpr=$(field "$report" bytes_per_round)
  if [[ "$old_bpr" != 0 && "$new_bpr" != 0 ]]; then
    bpr_pct=$(pct_change "$new_bpr" "$old_bpr")
    bpr_verdict="ok"
    if (( bpr_pct > threshold )); then
      bpr_verdict="SCRAPE BYTES/ROUND REGRESSION (+${bpr_pct}%)"
      status=1
    fi
    printf '%-28s bytes/round %s -> %s (%+d%%)   %s\n' \
      "$name" "$old_bpr" "$new_bpr" "$bpr_pct" "$bpr_verdict"
  fi
  checksum=$(sed -n 's/.*"checksum_match": *\(true\|false\).*/\1/p' "$report" | head -1)
  if [[ "$checksum" == "false" ]]; then
    printf '%-28s delta/full merged rollups DIVERGED   CHECKSUM MISMATCH\n' "$name"
    status=1
  fi
  # Every full body the A/B served, streamed into a fresh held snapshot,
  # must equal the snapshot it was rendered from: ingest that differs from
  # the rendered snapshot is always a hard failure.
  ingest_ref=$(sed -n 's/.*"ingest_reference_match": *\(true\|false\).*/\1/p' "$report" | head -1)
  if [[ "$ingest_ref" == "false" ]]; then
    printf '%-28s ingest differs from the rendered snapshot   INGEST REFERENCE MISMATCH\n' "$name"
    status=1
  fi

  # The paging drill: a dropped page means the notification path lost an
  # alert outright — always a hard failure, no threshold.
  dropped_pages=$(field "$report" dropped_pages)
  if [[ "$dropped_pages" != 0 && "$dropped_pages" != "" ]]; then
    printf '%-28s %s page(s) dropped by the paging gateway   PAGES DROPPED\n' \
      "$name" "$dropped_pages"
    status=1
  fi

  # The tail sampler's reservoir accounting, on every soak report: bytes
  # over the configured budget mean eviction stopped working, and a
  # malformed /traces probe means the query plane broke — both hard
  # failures.
  if [[ "$name" == BENCH_soak.json ]]; then
    sampler_budget=$(field "$report" sampler_budget_bytes)
    sampler_bytes=$(field "$report" sampler_bytes)
    if awk -v b="$sampler_bytes" -v l="$sampler_budget" 'BEGIN { exit !(b > l) }'; then
      printf '%-28s sampler %s bytes over %s budget   RESERVOIR OVER BUDGET\n' \
        "$name" "$sampler_bytes" "$sampler_budget"
      status=1
    else
      printf '%-28s sampler %s of %s budget bytes   ok\n' \
        "$name" "$sampler_bytes" "$sampler_budget"
    fi
    if [[ "$(field "$report" trace_probe_ok)" == 0 ]]; then
      printf '%-28s /traces probe malformed   TRACE QUERY PLANE BROKEN\n' "$name"
      status=1
    fi
    # Event counts and scraped bytes involve no wall clock: for the
    # baseline's config (`soak 64 1,2`) they must match exactly. A mismatch
    # means the code changed what the soak does; re-record the baseline in
    # the change that meant to.
    for key in events_unbatched events_batched fed_scraped_bytes; do
      old_v=$(field "$baseline" "$key")
      new_v=$(field "$report" "$key")
      if [[ "$old_v" != "$new_v" ]]; then
        printf '%-28s %s %s -> %s   DETERMINISTIC DRIFT\n' "$name" "$key" "$old_v" "$new_v"
        status=1
      fi
    done
  fi
  if grep -q '"exemplar_probe_ok"' "$report" \
      && [[ "$(field "$report" exemplar_probe_ok)" == 0 ]]; then
    printf '%-28s breach exemplar did not resolve via /traces   EXEMPLAR LINK BROKEN\n' "$name"
    status=1
  fi

  # The soak report carries the SLO alert ledger. A rule that fired and
  # never resolved means the telemetry plane caught something the shape
  # checks missed — always fail, and point at the flight-recorder dumps
  # the soak binary wrote for the post-mortem.
  unresolved=$(field "$report" unresolved_alerts)
  if [[ "$unresolved" != 0 && "$unresolved" != "" ]]; then
    printf '%-28s %s SLO alert(s) fired and never resolved   ALERTS UNRESOLVED\n' \
      "$name" "$unresolved"
    if compgen -G "target/flightrec/*.jsonl" > /dev/null; then
      ls target/flightrec/*.jsonl | sed 's/^/  flight recorder: /'
    fi
    status=1
  fi
done

if (( checked == 0 )); then
  echo "bench_diff: nothing compared"
elif (( status == 0 )); then
  echo "bench_diff: OK (threshold ${threshold}%)"
else
  echo "bench_diff: FAILED (threshold ${threshold}%)"
fi
exit "$status"
