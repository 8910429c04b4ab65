//! The thousand-device PI-upload soak on the sharded simulation engine.
//!
//! Runs the fleet soak (`pdagent_bench::soak`) three ways and writes
//! `BENCH_soak.json`:
//!
//! 1. **Unbatched** single-shard reference (per-fragment link events) — the
//!    event-count baseline the batched path is measured against.
//! 2. **Batched** single-shard run — the canonical results; also run with
//!    observability on for the per-stage percentiles.
//! 3. A **scaling curve** over shard counts, asserting every partitioning's
//!    results section is byte-identical to the single-shard run.
//!
//! `cargo run -p pdagent-bench --release --bin soak [devices] [shard_list] [seed]`
//! — defaults: 1000 devices, shards `1,2,4,8`, seed 42. The CI smoke runs
//! `soak 64 1,2`.

use std::time::Instant;

use pdagent_bench::chaos_matrix::{plan_for, run_case};
use pdagent_bench::report::{
    alerts_json, federation_json, paging_json, slo_json, write_bench_report_with_obs, Json,
};
use pdagent_bench::soak::{run_soak, SoakOutcome, SoakSpec};
use pdagent_bench::parallel;
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
    // its gateway's /metrics + /healthz and evaluating the default rules.
    // `SOAK_SLO=0` disables it — the telemetry-overhead ablation knob
    // (EXPERIMENTS.md measures rules-on vs rules-off with it).
    spec.slo = std::env::var("SOAK_SLO").map_or(true, |v| v != "0");
    // The fleet plane rides along too: a federation scraper rolling every
    // cell monitor up over the WAN, plus the paging gateway its fleet rules
    // (and the cell monitors) page. `SOAK_FED=0` is the ablation knob — it
    // must leave the results section byte-identical. `SOAK_FED_CADENCE_MS`
    // overrides the scrape cadence for the staleness/cadence sweep
    // (`scripts/fed_cadence.sh`).
    spec.federation = std::env::var("SOAK_FED").map_or(true, |v| v != "0");
    let cadence_ms = std::env::var("SOAK_FED_CADENCE_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&ms| ms > 0);
    // Congestion-sweep knobs: fan-in window / batch size, plus the delta
    // ablation (`SOAK_FED_DELTA=0` forces full snapshots every round).
    if let Some(n) = std::env::var("SOAK_FED_INFLIGHT").ok().and_then(|v| v.parse().ok()) {
        spec.fed.max_inflight = n;
    }
    if let Some(n) = std::env::var("SOAK_FED_BATCH").ok().and_then(|v| v.parse().ok()) {
        spec.fed.batch = n;
    }
    spec.fed.delta = std::env::var("SOAK_FED_DELTA").map_or(true, |v| v != "0");
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
        "soak: {devices} devices in {cells} cells, PI pad {} KB, seed {seed}, {} worker thread(s)",
        spec.pi_pad / 1024,
        parallel::thread_count()
    );

    // 1. Per-fragment reference: same results, every wire fragment is a
    //    heap event. This is what the batched path saves.
    let mut unbatched_spec = spec.clone();
    unbatched_spec.batch_links = false;
    let (unbatched, unbatched_wall) = timed(&unbatched_spec);

    // 2. Canonical batched single-shard run, observability on. Tail sampling
    //    rides this run by default; `SOAK_SAMPLE=0` is the ablation knob —
    //    with no scrape plane attached the sampler may not change a single
    //    byte of the results or obs digest, only the reservoir accounting.
    let sample = std::env::var("SOAK_SAMPLE").map_or(true, |v| v != "0");
    let mut observed_spec = spec.clone();
    observed_spec.observe = true;
    observed_spec.sample = sample;
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

    // 3. Scaling curve over shard counts; every point must reproduce the
    //    single-shard results byte-for-byte.
    let mut curve = Vec::new();
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
        curve.push(Json::obj(vec![
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

    if let Some(s) = &base.sampler {
        println!(
            "sampler: {} traces / {} spans retained in {} of {} budget bytes; {} spans dropped, {} exemplar slots",
            s.retained_traces,
            s.retained_spans,
            s.sampler_bytes,
            s.budget_bytes,
            s.dropped_spans,
            s.exemplars
        );
    }

    if let Some(fed) = &base.federation {
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
    }

    // Paging drill: a small chaos soak with an on-call who never acks and a
    // 500 ms escalation tick, so the whole notification path — fire, deliver,
    // escalate, ack by the secondary — is exercised and timed inside the
    // ~3 s window before the alert resolves and closes the page. Runs only
    // when the fleet plane is on; the drill shares the seed but not the
    // fleet-size knobs (3 cells is enough to fire one page per cell).
    let drill = spec.federation.then(|| {
        let mut d = SoakSpec::new(seed, 3, 2);
        d.pi_pad = 4 * 1024;
        d.slo = true;
        d.observe = true;
        d.chaos = true;
        d.federation = true;
        d.oncall_ack = None;
        d.escalation_tick = SimDuration::from_millis(500);
        let out = run_soak(&d);
        let p = out.paging.clone().expect("drill paging report");
        println!(
            "paging drill: {} fired, {} delivered, {} escalated, {} dropped; delivery p50 {} us p99 {} us",
            p.fired,
            p.delivered,
            p.escalated,
            p.dropped,
            p.delivery.p50(),
            p.delivery.p99()
        );
        p
    });

    // Paging-path chaos drill: a ChaosPlan cut across the pager↔on-call
    // links swallows each page's first delivery attempt, so the retry path,
    // the `page.deliver` SLO rule on the notification path, and the exemplar
    // plumbing (breach edge → page → /traces) are all exercised end to end.
    // The 2 s backoff retries once the cut lifts; the 500 ms ack beats the
    // cell alerts' resolve edge that would otherwise close the pages.
    let page_drill = spec.federation.then(|| {
        let mut d = SoakSpec::new(seed, 3, 2);
        d.pi_pad = 4 * 1024;
        d.slo = true;
        d.observe = true;
        d.chaos = true;
        d.federation = true;
        d.sample = true;
        d.page_chaos = true;
        d.page_backoff = SimDuration::from_secs(2);
        d.oncall_ack = Some(SimDuration::from_millis(500));
        let out = run_soak(&d);
        let p = out.paging.as_ref().expect("page drill paging report");
        println!(
            "page-chaos drill: {} fired, {} delivered through the cut ({} dropped); delivery max {} us; {} exemplar page(s)",
            p.fired,
            p.delivered,
            p.dropped,
            p.delivery.max(),
            out.exemplar_pages
        );
        for r in &out.page_slo {
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
        out
    });

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
        ("sampler_enabled", u64::from(sample).into()),
        ("sampler_budget_bytes", base.sampler.as_ref().map_or(0, |s| s.budget_bytes).into()),
        ("sampler_bytes", base.sampler.as_ref().map_or(0, |s| s.sampler_bytes).into()),
        (
            "sampler_retained_traces",
            base.sampler.as_ref().map_or(0, |s| s.retained_traces).into(),
        ),
        (
            "sampler_retained_spans",
            base.sampler.as_ref().map_or(0, |s| s.retained_spans).into(),
        ),
        ("sampler_dropped_spans", base.sampler.as_ref().map_or(0, |s| s.dropped_spans).into()),
        ("sampler_exemplars", base.sampler.as_ref().map_or(0, |s| s.exemplars).into()),
        (
            "trace_probe_ok",
            u64::from(!sample || base.trace_probe.starts_with("traces ")).into(),
        ),
        (
            "page_drill_fired",
            page_drill.as_ref().map_or(0, |d| d.page_slo.iter().map(|r| r.fired).sum()).into(),
        ),
        (
            "page_drill_resolved",
            page_drill
                .as_ref()
                .map_or(0, |d| d.page_slo.iter().map(|r| r.resolved).sum())
                .into(),
        ),
        ("exemplar_pages", page_drill.as_ref().map_or(0, |d| d.exemplar_pages).into()),
        (
            "exemplar_probe_ok",
            u64::from(page_drill.as_ref().is_none_or(|d| {
                d.exemplar_probe.as_ref().is_some_and(|(_, body)| !body.contains("not retained"))
            }))
            .into(),
        ),
        ("scaling", Json::Arr(curve)),
        ("slo", slo_json(&base.slo)),
        ("alerts", alerts_json(&base.alerts)),
    ]);
    // With `SOAK_FED=0` both sections are absent, which `bench_diff.sh`
    // treats as "gate not applicable" rather than a regression.
    let results = match (&base.federation, &drill) {
        (Some(fed), Some(paging)) => {
            let Json::Obj(mut pairs) = results else { unreachable!("results is an object") };
            pairs.push(("federation".to_owned(), federation_json(fed, cadence_ms)));
            pairs.push(("paging".to_owned(), paging_json(paging)));
            Json::Obj(pairs)
        }
        _ => results,
    };
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
                    ("replay_overflow", result.outcome.replay_overflow.into()),
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
    if spec.slo {
        if base.slo.len() < 3 || base.slo.iter().any(|r| r.evaluations == 0) {
            fail(format!("need ≥3 evaluated SLO rules, got {:?}", base.slo), &base);
        }
        if base.unresolved_alerts > 0 {
            fail(
                format!("{} SLO alert(s) fired and never resolved", base.unresolved_alerts),
                &base,
            );
        }
    }
    if let Some(fed) = &base.federation {
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
    }
    if sample {
        let s = base.sampler.as_ref().unwrap_or_else(|| {
            fail("sampling on but no sampler stats harvested".into(), &base)
        });
        if s.sampler_bytes > s.budget_bytes {
            fail(
                format!("reservoir over budget: {} of {} bytes", s.sampler_bytes, s.budget_bytes),
                &base,
            );
        }
        if s.pending_traces > 0 {
            fail(format!("{} trace(s) still buffering after drain", s.pending_traces), &base);
        }
        if !base.trace_probe.starts_with("traces ") {
            fail(format!("/traces probe returned {:?}", base.trace_probe), &base);
        }
    } else if base.sampler.is_some() {
        fail("SOAK_SAMPLE=0 but sampler stats present".into(), &base);
    }
    if let Some(paging) = &drill {
        // The drill's on-call never acks, so every page must both escalate
        // and still land (the secondary acks); a dropped page means the
        // notification path lost an alert outright.
        if paging.fired == 0 || paging.dropped > 0 {
            fail(
                format!(
                    "paging drill broken: {} fired, {} dropped",
                    paging.fired, paging.dropped
                ),
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
    }
    if let Some(d) = &page_drill {
        let p = d.paging.as_ref().expect("page drill paging report");
        if p.dropped > 0 || p.delivered < p.fired {
            fail(
                format!(
                    "page-chaos drill lost pages: {} fired, {} delivered, {} dropped",
                    p.fired, p.delivered, p.dropped
                ),
                d,
            );
        }
        let rule = d.page_slo.iter().find(|r| r.name == "page-delivery-p99");
        match rule {
            Some(r) if r.fired >= 1 && r.resolved == r.fired => {}
            other => fail(format!("page-delivery SLO did not breach+resolve: {other:?}"), d),
        }
        if d.exemplar_pages == 0 {
            fail("no page carried an exemplar trace id".into(), d);
        }
        match &d.exemplar_probe {
            Some((trace, body)) if !body.contains("not retained") => {
                println!("exemplar trace {trace:012} resolves via /traces");
            }
            other => fail(
                format!("breach exemplar did not resolve to a retained trace: {other:?}"),
                d,
            ),
        }
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
