//! The thousand-device PI-upload soak on the sharded simulation engine.
//!
//! Runs the fleet soak (`pdagent_bench::soak`) three ways and writes
//! `BENCH_soak.json`:
//!
//! 1. **Unbatched** single-shard reference (per-fragment link events) — the
//!    event-count baseline the batched path is measured against.
//! 2. **Batched** single-shard run — the canonical results; also run with
//!    observability on for the per-stage percentiles.
//! 3. A **partition-invariance check** over shard counts, asserting every
//!    partitioning's results section is byte-identical to the single-shard
//!    run (the shards step on one thread, so wall times compare partitioning
//!    overhead, not parallel speedup).
//!
//! `cargo run -p pdagent-bench --release --bin soak [devices] [shard_list] [seed]`
//! — defaults: 1000 devices, shards `1,2,4,8`, seed 42. The CI smoke runs
//! `soak 64 1,2`.

use std::time::Instant;

use pdagent_bench::chaos_matrix::{plan_for, run_case};
use pdagent_bench::report::{
    alerts_json, federation_json, paging_json, slo_json, write_bench_report_with_obs, Json,
};
use pdagent_bench::soak::{run_soak, Drill, SoakOutcome, SoakSpec};
use pdagent_net::chaos::{ChaosPlan, FaultKind};
use pdagent_net::time::SimDuration;

/// Devices per cell: ten handhelds behind each serving gateway.
const DEVICES_PER_CELL: usize = 10;

fn timed(spec: &SoakSpec) -> (SoakOutcome, f64) {
    let t = Instant::now();
    let out = run_soak(spec);
    (out, t.elapsed().as_secs_f64())
}

/// Percentile of a sorted slice (nearest-rank).
fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

fn main() {
    let mut args = std::env::args().skip(1);
    let devices: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(1000);
    let shard_list: Vec<usize> = args
        .next()
        .unwrap_or_else(|| "1,2,4,8".into())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&n| n > 0)
        .collect();
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(42);

    let cells = devices.div_ceil(DEVICES_PER_CELL).max(1);
    let mut spec = SoakSpec::new(seed, cells, DEVICES_PER_CELL);
    // The operational plane rides along: one SLO monitor per cell scraping
    // its gateway's /metrics + /healthz and evaluating the default rules,
    // plus the fleet plane — a federation scraper rolling every cell monitor
    // up over the WAN, and the paging gateway its fleet rules (and the cell
    // monitors) page. `SOAK_FED_CADENCE_MS` overrides the scrape cadence for
    // the staleness/cadence sweep (`scripts/fed_cadence.sh`).
    spec.slo = true;
    spec.federation = true;
    let cadence_ms = std::env::var("SOAK_FED_CADENCE_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&ms| ms > 0);
    // Congestion-sweep knobs: fan-in window / batch size.
    if let Some(n) = std::env::var("SOAK_FED_INFLIGHT").ok().and_then(|v| v.parse().ok()) {
        spec.fed.max_inflight = n;
    }
    if let Some(n) = std::env::var("SOAK_FED_BATCH").ok().and_then(|v| v.parse().ok()) {
        spec.fed.batch = n;
    }
    if let Some(ms) = cadence_ms {
        spec.fed.cadence = SimDuration::from_millis(ms);
        // Hold the federated horizon fixed (~60 s of scrape coverage) so the
        // sweep compares like with like: a faster cadence buys freshness by
        // spending rounds — and therefore events — not by ending sooner.
        spec.fed.rounds = (60_000 / ms).max(1) as u32;
    }
    let cadence_ms = cadence_ms.unwrap_or(spec.fed.cadence.as_micros() / 1_000);
    let devices = spec.devices();
    println!(
        "soak: {devices} devices in {cells} cells, PI pad {} KB, seed {seed}",
        spec.pi_pad / 1024
    );

    // 1. Per-fragment reference: same results, every wire fragment is a
    //    heap event. This is what the batched path saves.
    let mut unbatched_spec = spec.clone();
    unbatched_spec.batch_links = false;
    let (unbatched, unbatched_wall) = timed(&unbatched_spec);

    // 2. Canonical batched single-shard run, observability (tail-sampled)
    //    on.
    let mut observed_spec = spec.clone();
    observed_spec.observe = true;
    // `SOAK_SAMPLE_EVERY` overrides the 1-in-N head-sample rate for the
    // retained-bytes sweep (`scripts/sampler_sweep.sh`).
    if let Some(n) = std::env::var("SOAK_SAMPLE_EVERY").ok().and_then(|v| v.parse().ok()) {
        observed_spec.sampler_cfg.head_every = n;
    }
    let (base, base_wall) = timed(&observed_spec);
    assert_eq!(
        base.results, unbatched.results,
        "batched delivery changed the soak results"
    );
    let reduction = unbatched.events as f64 / base.events as f64;
    println!(
        "link batching: {} events vs {} per-fragment ({reduction:.1}x fewer), results identical",
        base.events, unbatched.events
    );

    // 3. Partition invariance over shard counts; every partitioning must
    //    reproduce the single-shard results byte-for-byte.
    let mut partitions = Vec::new();
    println!("\n{:>7} {:>10} {:>12} {:>12} {:>10} {:>8}", "shards", "wall_s", "devices/s", "events/s", "peak_q", "epochs");
    for &shards in &shard_list {
        let mut s = spec.clone();
        s.shards = shards;
        let (out, wall) = timed(&s);
        assert_eq!(
            base.results, out.results,
            "{shards}-shard soak diverged from single-shard"
        );
        println!(
            "{:>7} {:>10.2} {:>12.1} {:>12.0} {:>10} {:>8}",
            shards,
            wall,
            devices as f64 / wall,
            out.events as f64 / wall,
            out.peak_queue,
            out.epochs
        );
        partitions.push(Json::obj(vec![
            ("shards", shards.into()),
            ("wall_secs", wall.into()),
            ("devices_per_sec", (devices as f64 / wall).into()),
            ("events_per_sec", (out.events as f64 / wall).into()),
            ("peak_queue", out.peak_queue.into()),
            ("epochs", out.epochs.into()),
            ("byte_identical", true.into()),
        ]));
    }

    let fired: u64 = base.slo.iter().map(|r| r.fired).sum();
    let resolved: u64 = base.slo.iter().map(|r| r.resolved).sum();
    println!(
        "\nslo: {} rules, {} scrapes ok, {} probe failures; {fired} fired / {resolved} resolved, {} unresolved",
        base.slo.len(),
        base.scrapes_ok,
        base.probe_failures,
        base.unresolved_alerts
    );
    for r in &base.slo {
        println!(
            "  {:<20} limit {:>10}  evals {:>4}  last {:>12.1}  {}",
            r.name,
            r.limit,
            r.evaluations,
            r.last_value,
            if r.breached { "BREACHED" } else { "ok" }
        );
    }

    let sampler = base.sampler.expect("the observed soak harvests sampler stats");
    println!(
        "sampler: {} traces / {} spans retained in {} of {} budget bytes; {} spans dropped, {} exemplar slots",
        sampler.retained_traces,
        sampler.retained_spans,
        sampler.sampler_bytes,
        sampler.budget_bytes,
        sampler.dropped_spans,
        sampler.exemplars
    );

    let fed = base.federation.as_ref().expect("federation report");
    println!(
        "\nfederation: {} cells x {} rounds @ {cadence_ms} ms cadence; {} scrapes ok, {} failed, {} series dropped; staleness p50 {} us p99 {} us; {} fleet rules, {} unresolved",
        fed.cells,
        fed.rounds,
        fed.scrapes_ok,
        fed.scrape_failures,
        fed.dropped_series,
        fed.staleness.p50(),
        fed.staleness.p99(),
        fed.slo.len(),
        fed.breached
    );

    // Paging drill: the whole notification path — fire, deliver, escalate,
    // ack by the secondary — exercised and timed on the small drill soak,
    // which shares the seed but not the fleet-size knobs (3 cells is enough
    // to fire one page per cell).
    let paging = run_soak(&SoakSpec::drill(seed, Drill::Escalation))
        .paging
        .expect("drill paging report");
    println!(
        "paging drill: {} fired, {} delivered, {} escalated, {} dropped; delivery p50 {} us p99 {} us",
        paging.fired,
        paging.delivered,
        paging.escalated,
        paging.dropped,
        paging.delivery.p50(),
        paging.delivery.p99()
    );

    // Paging-path chaos drill: the pager↔on-call cut swallows each page's
    // first delivery attempt, so the retry path, the `page.deliver` SLO rule
    // on the notification path, and the exemplar plumbing (breach edge →
    // page → /traces) are all exercised end to end.
    let page_drill = run_soak(&SoakSpec::drill(seed, Drill::PagerOutage));
    let page_paging = page_drill.paging.as_ref().expect("page drill paging report");
    println!(
        "page-chaos drill: {} fired, {} delivered through the cut ({} dropped); delivery max {} us; {} exemplar page(s)",
        page_paging.fired,
        page_paging.delivered,
        page_paging.dropped,
        page_paging.delivery.max(),
        page_drill.exemplar_pages
    );
    for r in &page_drill.page_slo {
        println!(
            "  {:<20} limit {:>10}  evals {:>4}  fired {}  resolved {}  {}",
            r.name,
            r.limit,
            r.evaluations,
            r.fired,
            r.resolved,
            if r.breached { "BREACHED" } else { "ok" }
        );
    }

    // Chaos ride-along (`SOAK_CHAOS=1`): re-run the soak spec under a mixed
    // fault schedule (loss + duplication bursts, a gateway crash window, a
    // monitor clock-skew ramp, all on cell 0) and hold every system
    // invariant at epoch barriers and at quiesce. Off by default so the
    // canonical BENCH_soak.json keys stay byte-stable for `bench_diff.sh`;
    // when on, the report grows a `chaos` section.
    let chaos_ride = std::env::var("SOAK_CHAOS").is_ok_and(|v| v == "1").then(|| {
        let mut plan = ChaosPlan::new();
        for part in [
            plan_for(FaultKind::Loss, 0.2, DEVICES_PER_CELL),
            plan_for(FaultKind::Duplicate, 0.3, DEVICES_PER_CELL),
            plan_for(FaultKind::Crash, 0.5, DEVICES_PER_CELL),
            plan_for(FaultKind::ClockSkew, 0.4, DEVICES_PER_CELL),
        ] {
            plan.faults.extend(part.faults);
        }
        let result = run_case(&spec, &plan);
        println!(
            "\nchaos ride-along: {} fault(s); activity loss {} corrupt {} dup {} reorder {} crash {}; {} violation(s)",
            plan.faults.len(),
            result.outcome.chaos_activity[0],
            result.outcome.chaos_activity[1],
            result.outcome.chaos_activity[2],
            result.outcome.chaos_activity[3],
            result.outcome.chaos_activity[4],
            result.violations.len()
        );
        for v in &result.violations {
            println!("  VIOLATED {} at {}: {}", v.invariant, v.phase, v.detail);
        }
        (plan, result)
    });

    let mut completion: Vec<u64> = base
        .results
        .cells
        .iter()
        .flat_map(|c| c.completion_us.iter().copied())
        .collect();
    completion.sort_unstable();
    let completed: u64 = base.results.cells.iter().map(|c| u64::from(c.completed)).sum();
    println!(
        "\n{completed}/{devices} deploys completed; completion p50 {:.1}s p95 {:.1}s; sim span {:.0}s",
        pct(&completion, 50.0) as f64 / 1e6,
        pct(&completion, 95.0) as f64 / 1e6,
        base.sim_secs
    );

    let results = Json::obj(vec![
        ("seed", seed.into()),
        ("devices", devices.into()),
        ("cells", cells.into()),
        ("devices_per_cell", DEVICES_PER_CELL.into()),
        ("pi_pad_bytes", spec.pi_pad.into()),
        ("completed", completed.into()),
        ("coordinator_beats", base.results.coordinator_beats.into()),
        ("completion_p50_us", pct(&completion, 50.0).into()),
        ("completion_p95_us", pct(&completion, 95.0).into()),
        ("sim_secs", base.sim_secs.into()),
        ("events_per_device", base.events_per_device.into()),
        ("events_unbatched", unbatched.events.into()),
        ("events_batched", base.events.into()),
        ("event_reduction", reduction.into()),
        ("unbatched_wall_secs", unbatched_wall.into()),
        ("peak_queue", base.peak_queue.into()),
        ("byte_identical", true.into()),
        ("scrapes_ok", base.scrapes_ok.into()),
        ("probe_failures", base.probe_failures.into()),
        ("alerts_fired", fired.into()),
        ("alerts_resolved", resolved.into()),
        ("unresolved_alerts", base.unresolved_alerts.into()),
        ("sampler_budget_bytes", sampler.budget_bytes.into()),
        ("sampler_bytes", sampler.sampler_bytes.into()),
        ("sampler_retained_traces", sampler.retained_traces.into()),
        ("sampler_retained_spans", sampler.retained_spans.into()),
        ("sampler_dropped_spans", sampler.dropped_spans.into()),
        ("sampler_exemplars", sampler.exemplars.into()),
        ("trace_probe_ok", u64::from(base.trace_probe.starts_with("traces ")).into()),
        ("page_drill_fired", page_drill.page_slo.iter().map(|r| r.fired).sum::<u64>().into()),
        (
            "page_drill_resolved",
            page_drill.page_slo.iter().map(|r| r.resolved).sum::<u64>().into(),
        ),
        ("exemplar_pages", page_drill.exemplar_pages.into()),
        (
            "exemplar_probe_ok",
            u64::from(
                page_drill
                    .exemplar_probe
                    .as_ref()
                    .is_some_and(|(_, body)| !body.contains("not retained")),
            )
            .into(),
        ),
        ("scaling", Json::Arr(partitions)),
        ("slo", slo_json(&base.slo)),
        ("alerts", alerts_json(&base.alerts)),
        ("federation", federation_json(fed, cadence_ms)),
        ("paging", paging_json(&paging)),
    ]);
    // Only with `SOAK_CHAOS=1`, so default reports keep their historical key
    // set and `bench_diff.sh` baselines never churn.
    let results = match &chaos_ride {
        Some((plan, result)) => {
            let Json::Obj(mut pairs) = results else { unreachable!("results is an object") };
            pairs.push((
                "chaos".to_owned(),
                Json::obj(vec![
                    ("faults", plan.faults.len().into()),
                    ("violations", result.violations.len().into()),
                    ("lost_agents", result.outcome.lost_agents.into()),
                    ("duplicate_executions", result.outcome.duplicate_executions.into()),
                    ("epoch_regressions", result.outcome.epoch_regressions.into()),
                    (
                        "chaos_activity",
                        Json::Arr(
                            result.outcome.chaos_activity.iter().map(|&n| n.into()).collect(),
                        ),
                    ),
                ]),
            ));
            Json::Obj(pairs)
        }
        None => results,
    };
    match write_bench_report_with_obs("soak", base_wall, base.events, results, &base.obs) {
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write BENCH_soak.json: {e}"),
    }

    // Shape checks (CI gate): everything finished, batching pays for itself
    // by at least the 5x the sharded-engine issue demands, and the SLO plane
    // actually evaluated with no alert left burning. Any failure dumps the
    // captured flight recorders for the post-mortem.
    let fail = |why: String, base: &SoakOutcome| -> ! {
        println!("\nshape check FAILED: {why}");
        dump_flight_recorders(base);
        std::process::exit(1);
    };
    if completed != devices as u64 {
        fail(format!("{completed}/{devices} deploys completed"), &base);
    }
    if reduction < 5.0 {
        fail(format!("batching saved only {reduction:.1}x events (need ≥5x)"), &base);
    }
    if base.slo.len() < 3 || base.slo.iter().any(|r| r.evaluations == 0) {
        fail(format!("need ≥3 evaluated SLO rules, got {:?}", base.slo), &base);
    }
    if base.unresolved_alerts > 0 {
        fail(format!("{} SLO alert(s) fired and never resolved", base.unresolved_alerts), &base);
    }
    if fed.scrape_failures > 0 || fed.dropped_series > 0 {
        fail(
            format!(
                "federation degraded: {} scrape failures, {} series dropped",
                fed.scrape_failures, fed.dropped_series
            ),
            &base,
        );
    }
    if fed.slo.is_empty() || fed.breached > 0 {
        fail(format!("fleet rules unhealthy: {:?}", fed.slo), &base);
    }
    if sampler.sampler_bytes > sampler.budget_bytes {
        fail(
            format!(
                "reservoir over budget: {} of {} bytes",
                sampler.sampler_bytes, sampler.budget_bytes
            ),
            &base,
        );
    }
    if sampler.pending_traces > 0 {
        fail(format!("{} trace(s) still buffering after drain", sampler.pending_traces), &base);
    }
    if !base.trace_probe.starts_with("traces ") {
        fail(format!("/traces probe returned {:?}", base.trace_probe), &base);
    }
    // The drill's on-call never acks, so every page must both escalate and
    // still land (the secondary acks); a dropped page means the notification
    // path lost an alert outright.
    if paging.fired == 0 || paging.dropped > 0 {
        fail(
            format!("paging drill broken: {} fired, {} dropped", paging.fired, paging.dropped),
            &base,
        );
    }
    if paging.escalated == 0 || paging.delivered < paging.fired {
        fail(
            format!(
                "paging drill must escalate and deliver every page: {} fired, {} delivered, {} escalated",
                paging.fired, paging.delivered, paging.escalated
            ),
            &base,
        );
    }
    if page_paging.dropped > 0 || page_paging.delivered < page_paging.fired {
        fail(
            format!(
                "page-chaos drill lost pages: {} fired, {} delivered, {} dropped",
                page_paging.fired, page_paging.delivered, page_paging.dropped
            ),
            &page_drill,
        );
    }
    match page_drill.page_slo.iter().find(|r| r.name == "page-delivery-p99") {
        Some(r) if r.fired >= 1 && r.resolved == r.fired => {}
        other => fail(format!("page-delivery SLO did not breach+resolve: {other:?}"), &page_drill),
    }
    if page_drill.exemplar_pages == 0 {
        fail("no page carried an exemplar trace id".into(), &page_drill);
    }
    match &page_drill.exemplar_probe {
        Some((trace, body)) if !body.contains("not retained") => {
            println!("exemplar trace {trace:012} resolves via /traces");
        }
        other => fail(
            format!("breach exemplar did not resolve to a retained trace: {other:?}"),
            &page_drill,
        ),
    }
    if let Some((plan, result)) = &chaos_ride {
        if !result.violations.is_empty() {
            fail(
                format!(
                    "chaos ride-along violated {} invariant(s) under {:?}",
                    result.violations.len(),
                    plan
                ),
                &base,
            );
        }
        let activity: u64 = result.outcome.chaos_activity.iter().sum();
        if activity == 0 {
            fail("chaos ride-along injected no faults (plan compiled to nothing?)".into(), &base);
        }
    }
    println!(
        "\nshape check: OK (all deploys done, byte-identical shards, {reduction:.1}x event cut, {} SLO rules clean)",
        base.slo.len()
    );
}

/// Persist whatever flight recorders the run captured to
/// `target/flightrec/soak-<node>.jsonl` so a failed CI run leaves the
/// around-the-incident span/alert timeline behind as an artifact.
fn dump_flight_recorders(out: &SoakOutcome) {
    if out.flight.is_empty() {
        return;
    }
    let dir = std::path::Path::new("target/flightrec");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("could not create {}: {e}", dir.display());
        return;
    }
    for (node, jsonl) in &out.flight {
        let path = dir.join(format!("soak-{node}.jsonl"));
        match std::fs::write(&path, jsonl) {
            Ok(()) => println!("flight recorder: wrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}
