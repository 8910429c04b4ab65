//! 300-cell federation scrape bench: delta vs full exposition A/B, plus a
//! fan-in congestion sweep.
//!
//! The headline question is what the delta protocol buys at fleet scale:
//! 300 synthetic cells, each serving ~150 series of which a handful change
//! between scrapes, federated over the simulated WAN in both modes. The A/B
//! holds everything fixed except the scrape encoding and gates on four
//! invariants:
//!
//! * `checksum_match` — the merged fleet rollup renders byte-identically in
//!   both modes (the delta path is an optimisation, not an approximation);
//! * `ingest_reference_match` — every full body a cell serves in the A/B,
//!   streamed into a fresh [`HeldSnapshot`], equals the snapshot the body
//!   was rendered from (with `checksum_match` this carries equality through
//!   the delta path too). The check runs inside the A/B but its time is
//!   taken out of the reported wall time, so the bench's speed figures
//!   measure the federation alone;
//! * `bytes_reduction >= 3` — delta mode moves at least 3x fewer scrape
//!   body bytes per round;
//! * `scrape_failures == 0` in both modes.
//!
//! Cell state advances as a deterministic function of *serves*, not sim
//! time: delta requests carry longer paths and shorter bodies, so the two
//! modes' WAN timings differ, and any time-driven mutation would let the
//! modes observe different states. Keying mutations to the scrape index
//! pins both modes to identical per-round cell state, which is what makes
//! the checksum gate meaningful.
//!
//! The congestion sweep then re-runs delta mode under deliberately
//! undersized fan-in windows (`max_inflight`/`batch` far below 300) and
//! reports how staleness degrades — the table `scripts/fed_cadence.sh`
//! splices into EXPERIMENTS.md.

use std::time::{Duration, Instant};

use pdagent_bench::report::{write_bench_report, Json};
use pdagent_net::federation::{
    default_federation_rules, FederationReport, FederationScraper, FederationSpec,
};
use pdagent_net::http::{self, HttpRequest, HttpStatus};
use pdagent_net::link::LinkSpec;
use pdagent_net::message::Message;
use pdagent_net::obs::Histogram;
use pdagent_net::sim::{Ctx, Node, NodeId, Simulator};
use pdagent_net::telemetry::{
    parse_since, render_prom, DeltaState, HeldSnapshot, Ingested, TelemetrySnapshot,
    PATH_METRICS,
};
use pdagent_net::time::SimDuration;

const COUNTERS: usize = 96;
const GAUGES: usize = 48;
const MUTATIONS_PER_SERVE: usize = 6;

/// A synthetic cell monitor: serves a ~150-series snapshot through a
/// [`DeltaState`], mutating a handful of series per scrape served. The body
/// is rebuilt into a pooled buffer — the node allocates nothing per scrape
/// beyond what the delta render itself needs.
struct SynthCell {
    instance: String,
    seed: u64,
    serves: u64,
    snap: TelemetrySnapshot,
    delta: DeltaState,
    body: String,
    /// Check every full body's streaming ingest against the state it was
    /// rendered from.
    check: bool,
    /// Full bodies checked, how many of them the ingest got wrong, and the
    /// time the checks took.
    checked: u64,
    mismatches: u64,
    check_time: Duration,
}

impl SynthCell {
    fn new(index: usize, seed: u64, check: bool) -> SynthCell {
        let mut snap = TelemetrySnapshot::default();
        for i in 0..COUNTERS {
            snap.counters.push((format!("app.counter_{i:03}"), (i as f64) + 1.0));
        }
        for i in 0..GAUGES {
            snap.gauges.push((format!("app.gauge_{i:02}"), (i as f64) * 3.0));
        }
        let mut h = Histogram::new();
        h.record(1 + index as u64 % 700);
        snap.stages.push(("stage.ingest".to_owned(), h.clone()));
        snap.stages.push(("stage.serve".to_owned(), h));
        SynthCell {
            instance: format!("cell-{index:03}"),
            seed: seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            serves: 0,
            snap,
            delta: DeltaState::new(),
            body: String::new(),
            check,
            checked: 0,
            mismatches: 0,
            check_time: Duration::ZERO,
        }
    }

    /// Advance cell state to scrape index `serves + 1`: a pure function of
    /// (seed, serve count), so full- and delta-mode scrapers observe
    /// identical state at equal scrape counts regardless of WAN timing.
    fn mutate(&mut self) {
        self.serves += 1;
        let mut x = self.seed ^ self.serves.wrapping_mul(0x2545_F491_4F6C_DD1D);
        for _ in 0..MUTATIONS_PER_SERVE {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let pick = (x >> 33) as usize;
            match pick % 3 {
                0 => self.snap.counters[pick % COUNTERS].1 += ((x >> 17) % 9 + 1) as f64,
                1 => self.snap.gauges[pick % GAUGES].1 = ((x >> 17) % 1_000) as f64,
                _ => self.snap.stages[pick % 2].1.record((x >> 17) % 900 + 1),
            }
        }
    }
}

impl Node for SynthCell {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        let Some(req) = HttpRequest::from_message(&msg) else { return };
        let (path, since) = parse_since(&req.path);
        if req.method == "GET" && path == PATH_METRICS {
            self.mutate();
            self.delta.observe(&self.snap);
            self.delta.render_into(&self.instance, since, &mut self.body);
            if self.check {
                let started = Instant::now();
                // A fresh holder takes a full body and refuses a delta.
                let mut held = HeldSnapshot::new();
                if held.apply(&self.body) != Ingested::Gap {
                    self.checked += 1;
                    self.mismatches += u64::from(held.snapshot() != self.delta.snapshot());
                }
                self.check_time += started.elapsed();
            }
            http::reply(ctx, from, &req, HttpStatus::Ok, self.body.clone().into_bytes());
        } else {
            http::reply(ctx, from, &req, HttpStatus::NotFound, Vec::new());
        }
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _tag: u64) {}
}

struct RunOutcome {
    report: FederationReport,
    /// The merged fleet rollup, rendered — the cross-mode identity witness.
    merged: String,
    events: u64,
    /// Full bodies checked against their rendered state, mismatches, and
    /// the time the checks took.
    ingest_checked: u64,
    ingest_mismatches: u64,
    check_time: Duration,
}

#[allow(clippy::too_many_arguments)]
fn run_fleet(
    cells: usize,
    seed: u64,
    delta: bool,
    rounds: u32,
    max_inflight: usize,
    batch: usize,
    cadence: SimDuration,
    batch_spacing: SimDuration,
    check: bool,
) -> RunOutcome {
    let mut sim = Simulator::new(seed);
    let mut targets = Vec::with_capacity(cells);
    for i in 0..cells {
        let id = sim.add_node(Box::new(SynthCell::new(i, seed, check)));
        targets.push((id, format!("cell-{i:03}")));
    }
    let spec = FederationSpec {
        cadence,
        rounds,
        rto: SimDuration::from_secs(30),
        batch,
        batch_spacing,
        max_inflight,
        stale_after: SimDuration::from_secs(3_600),
        delta,
        rules: default_federation_rules(),
        pager: None,
    };
    let fed = sim.add_node(Box::new(FederationScraper::new(spec, targets.clone())));
    for (cell, _) in &targets {
        sim.connect(fed, *cell, LinkSpec::wan_backbone());
    }
    sim.run_until_idle();
    let scraper = sim.node_ref::<FederationScraper>(fed).expect("scraper");
    let synth = || targets.iter().map(|(id, _)| sim.node_ref::<SynthCell>(*id).expect("cell"));
    RunOutcome {
        report: scraper.report(),
        merged: render_prom("fleet", &scraper.rollup().merged()),
        events: sim.events_processed(),
        ingest_checked: synth().map(|c| c.checked).sum(),
        ingest_mismatches: synth().map(|c| c.mismatches).sum(),
        check_time: synth().map(|c| c.check_time).sum(),
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

fn bytes_per_round(r: &FederationReport) -> u64 {
    r.scraped_bytes / r.rounds.max(1)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let cells: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(300);
    let rounds: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(12);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(42);

    // Headline A/B: ample fan-in window, everything fixed but the encoding.
    let cadence = SimDuration::from_secs(5);
    let spacing = SimDuration::from_millis(200);
    let wall = Instant::now();
    let full = run_fleet(cells, seed, false, rounds, 32, 64, cadence, spacing, true);
    let delta = run_fleet(cells, seed, true, rounds, 32, 64, cadence, spacing, true);

    let fr = &full.report;
    let dr = &delta.report;
    let checksum_full = fnv1a64(full.merged.as_bytes());
    let checksum_delta = fnv1a64(delta.merged.as_bytes());
    let checksum_match = full.merged == delta.merged;
    let ingest_checked = full.ingest_checked + delta.ingest_checked;
    let ingest_reference_match =
        ingest_checked > 0 && full.ingest_mismatches + delta.ingest_mismatches == 0;
    let bytes_reduction = fr.scraped_bytes as f64 / dr.scraped_bytes.max(1) as f64;
    let cpu_reduction = fr.ingest_nanos as f64 / dr.ingest_nanos.max(1) as f64;

    println!(
        "federation A/B: {cells} cells x {rounds} rounds, seed {seed} \
         ({} full / {} delta scrapes in delta mode, {} resyncs)",
        dr.full_scrapes, dr.delta_scrapes, dr.resyncs
    );
    println!(
        "  full : {:>12} bytes/round  ingest {:>8.2} ms",
        bytes_per_round(fr),
        fr.ingest_nanos as f64 / 1e6
    );
    println!(
        "  delta: {:>12} bytes/round  ingest {:>8.2} ms",
        bytes_per_round(dr),
        dr.ingest_nanos as f64 / 1e6
    );
    println!(
        "  bytes {bytes_reduction:.1}x smaller, ingest {cpu_reduction:.1}x cheaper, rollup {}",
        if checksum_match { "byte-identical" } else { "DIVERGED" }
    );
    println!(
        "  streaming ingest of {ingest_checked} full bodies vs their rendered snapshots: {}",
        if ingest_reference_match { "identical" } else { "MISMATCH" }
    );

    // Congestion sweep: delta mode under undersized fan-in windows, 2 s
    // cadence — staleness is the price of a small window, and it must show
    // up in the percentiles, not as failures or drops.
    let mut sweep = Vec::new();
    let mut events = full.events + delta.events;
    for (max_inflight, batch) in [(1usize, 4usize), (2, 8), (4, 16), (16, 64)] {
        let out = run_fleet(
            cells,
            seed,
            true,
            4,
            max_inflight,
            batch,
            SimDuration::from_secs(2),
            SimDuration::from_millis(100),
            false,
        );
        let r = &out.report;
        events += out.events;
        println!(
            "  sweep inflight={max_inflight:>2} batch={batch:>2}: \
             staleness p50 {:>9} p99 {:>9} max {:>9} us, {:>10} bytes/round",
            r.staleness.p50(),
            r.staleness.p99(),
            r.staleness.max(),
            bytes_per_round(r),
        );
        sweep.push(Json::obj(vec![
            ("max_inflight", max_inflight.into()),
            ("batch", batch.into()),
            ("sweep_bytes_per_round", bytes_per_round(r).into()),
            ("staleness_p50_us", r.staleness.p50().into()),
            ("staleness_p99_us", r.staleness.p99().into()),
            ("staleness_max_us", r.staleness.max().into()),
            ("sweep_peak_inflight", r.peak_inflight.into()),
            ("sweep_scrape_failures", r.scrape_failures.into()),
            (
                "staleness_breaches",
                r.slo
                    .iter()
                    .filter(|s| s.name.starts_with("fed-staleness"))
                    .map(|s| s.fired)
                    .sum::<u64>()
                    .into(),
            ),
        ]));
    }

    // bench_diff.sh extracts keys by first occurrence, so every headline
    // key is unique and precedes the sweep array.
    let results = Json::obj(vec![
        ("cells", cells.into()),
        ("rounds", rounds.into()),
        ("seed", seed.into()),
        ("checksum_match", checksum_match.into()),
        ("ingest_reference_match", ingest_reference_match.into()),
        ("ingest_checked", ingest_checked.into()),
        ("checksum_full", format!("{checksum_full:016x}").as_str().into()),
        ("checksum_delta", format!("{checksum_delta:016x}").as_str().into()),
        ("bytes_per_round", bytes_per_round(dr).into()),
        ("bytes_per_round_full", bytes_per_round(fr).into()),
        ("bytes_reduction", bytes_reduction.into()),
        ("ingest_ms_delta", (dr.ingest_nanos as f64 / 1e6).into()),
        ("ingest_ms_full", (fr.ingest_nanos as f64 / 1e6).into()),
        ("cpu_reduction", cpu_reduction.into()),
        ("delta_scrapes", dr.delta_scrapes.into()),
        ("full_scrapes", dr.full_scrapes.into()),
        ("resyncs", dr.resyncs.into()),
        ("scrape_failures", (dr.scrape_failures + fr.scrape_failures).into()),
        ("ab_scrapes_ok", (dr.scrapes_ok + fr.scrapes_ok).into()),
        ("congestion_sweep", Json::Arr(sweep)),
    ]);

    // The ingest check is a gate, not part of the measured work.
    let wall_secs = (wall.elapsed() - full.check_time - delta.check_time).as_secs_f64();
    match write_bench_report("federation", wall_secs, events, results) {
        Ok(path) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("failed to write report: {e}");
            std::process::exit(1);
        }
    }

    // Hard gates: the bench doubles as the CI smoke for the delta plane.
    let mut failed = false;
    if !checksum_match {
        eprintln!("GATE: merged rollup diverged between delta and full modes");
        failed = true;
    }
    if !ingest_reference_match {
        eprintln!(
            "GATE: ingest differs from the rendered snapshot on {} of {ingest_checked} full bodies",
            full.ingest_mismatches + delta.ingest_mismatches
        );
        failed = true;
    }
    if fr.scrapes_ok != dr.scrapes_ok || fr.rounds != dr.rounds {
        eprintln!(
            "GATE: scrape counts diverged (full {}x{}, delta {}x{})",
            fr.rounds, fr.scrapes_ok, dr.rounds, dr.scrapes_ok
        );
        failed = true;
    }
    if fr.scrape_failures + dr.scrape_failures > 0 {
        eprintln!("GATE: scrape failures in the A/B");
        failed = true;
    }
    if bytes_reduction < 3.0 {
        eprintln!("GATE: bytes reduction {bytes_reduction:.2}x below the 3x floor");
        failed = true;
    }
    if dr.resyncs != 0 {
        eprintln!("GATE: {} unexpected resyncs in a healthy fleet", dr.resyncs);
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
