//! Golden-file test for the Prometheus exposition: the rendered text for a
//! fixed snapshot is pinned byte-for-byte in `tests/golden/exposition.prom`.
//! Any change to family naming, label escaping, sample ordering or the
//! histogram layout shows up as a readable diff against the fixture.

use pdagent_net::federation::FederationRollup;
use pdagent_net::metrics::Metrics;
use pdagent_net::obs::Histogram;
use pdagent_net::telemetry::{parse_prom, render_prom, Ingested, TelemetrySnapshot};
use pdagent_net::time::SimTime;

/// A snapshot exercising every corner the format has: counter and gauge
/// families, keys that sanitize to the same family name, label values that
/// need escaping, and a multi-bucket histogram.
fn fixture_snapshot() -> TelemetrySnapshot {
    let mut m = Metrics::new();
    m.bytes_sent = 4096;
    m.bytes_received = 1024;
    m.msgs_sent = 7;
    m.msgs_received = 6;
    m.msgs_dropped = 1;
    m.bump("gateway.replays", 3.0);
    // These two sanitize to the same family; the `key` label disambiguates.
    m.bump("http.gave_up", 2.0);
    m.bump("http.gave-up", 1.0);
    // A key needing every escape: backslash, quote, newline.
    m.bump("weird\\key\"with\nnewline", 1.0);
    m.set_gauge("gateway.replay_entries", 13.0);
    m.set_gauge("queue.depth", 0.5);

    let mut h = Histogram::new();
    for v in [0, 1, 3, 3, 100, 5_000] {
        h.record(v);
    }
    let mut upload = Histogram::new();
    upload.record(250_000);
    TelemetrySnapshot::capture(
        &m,
        &[("gw.dispatch".to_string(), h), ("http.upload".to_string(), upload)],
    )
}

#[test]
fn exposition_matches_golden_file() {
    let text = render_prom("gw-0", &fixture_snapshot());
    // Regenerate the fixture after an intentional format change with:
    //   REGEN_GOLDEN=1 cargo test -p pdagent-net --test prom_golden
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/exposition.prom");
        std::fs::write(path, &text).unwrap();
    }
    let golden = include_str!("golden/exposition.prom");
    assert_eq!(
        text, golden,
        "render_prom drifted from tests/golden/exposition.prom — if the \
         change is intentional, regenerate the fixture from this test's output"
    );
}

#[test]
fn exposition_is_stable_across_insertion_orders() {
    // Same values inserted in reverse order: the snapshot sorts, so the
    // rendered text must be identical — this is what makes scrapes
    // byte-comparable across runs and shard placements.
    let mut m = Metrics::new();
    m.set_gauge("queue.depth", 0.5);
    m.set_gauge("gateway.replay_entries", 13.0);
    m.bump("weird\\key\"with\nnewline", 1.0);
    m.bump("http.gave-up", 1.0);
    m.bump("http.gave_up", 2.0);
    m.bump("gateway.replays", 3.0);
    m.bytes_sent = 4096;
    m.bytes_received = 1024;
    m.msgs_sent = 7;
    m.msgs_received = 6;
    m.msgs_dropped = 1;
    let mut h = Histogram::new();
    for v in [5_000, 100, 3, 3, 1, 0] {
        h.record(v);
    }
    let mut upload = Histogram::new();
    upload.record(250_000);
    let reordered = TelemetrySnapshot::capture(
        &m,
        &[("gw.dispatch".to_string(), h), ("http.upload".to_string(), upload)],
    );
    assert_eq!(render_prom("gw-0", &reordered), render_prom("gw-0", &fixture_snapshot()));
}

/// A fleet rollup federated from two cells: cell snapshots built from
/// distinct metrics (overlapping and disjoint keys, shared stage family),
/// merged through [`FederationRollup`] exactly as the scraper does.
fn federation_fixture() -> TelemetrySnapshot {
    let mut rollup = FederationRollup::new();
    for (cell, base) in [("cell-0", 10u64), ("cell-1", 40u64)] {
        let mut m = Metrics::new();
        m.msgs_sent = base;
        m.msgs_received = base - 1;
        m.bump("slo.scrapes_ok", base as f64);
        m.bump("http.gave_up", if base == 10 { 1.0 } else { 0.0 });
        // Disjoint key: only cell-1 reports it; the rollup keeps it.
        if base == 40 {
            m.bump("gateway.replays", 5.0);
        }
        m.set_gauge("scrape.staleness_max", 1_000.0 * base as f64);
        let mut rtt = Histogram::new();
        rtt.record(base * 100);
        rtt.record(base * 200);
        let snap = TelemetrySnapshot::capture(&m, &[("scrape.rtt".to_string(), rtt)]);
        let got = rollup.ingest(cell, SimTime(base * 1_000), &render_prom(cell, &snap));
        assert_eq!(got, Ingested::Full { regressed: false });
    }
    rollup.merged()
}

#[test]
fn federated_rollup_matches_golden_file() {
    let text = render_prom("fleet", &federation_fixture());
    // Regenerate after an intentional change with:
    //   REGEN_GOLDEN=1 cargo test -p pdagent-net --test prom_golden
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/federation.prom");
        std::fs::write(path, &text).unwrap();
    }
    let golden = include_str!("golden/federation.prom");
    assert_eq!(
        text, golden,
        "federated rollup exposition drifted from tests/golden/federation.prom — \
         if the change is intentional, regenerate the fixture from this test's output"
    );
    // The rollup itself re-parses losslessly: counters summed across cells,
    // gauges accumulated, the shared stage merged.
    let back = parse_prom(&text);
    assert_eq!(back.counter("slo.scrapes_ok"), 50.0);
    assert_eq!(back.counter("gateway.replays"), 5.0);
    assert_eq!(back.counter("msgs_sent"), 50.0);
    assert_eq!(back.stage("scrape.rtt").map(Histogram::count), Some(4));
}

#[test]
fn golden_buckets_are_monotone_and_parse_back() {
    let text = render_prom("gw-0", &fixture_snapshot());

    // Cumulative bucket counts never decrease within a series, and the
    // +Inf bucket equals the count.
    let mut per_stage: Vec<(String, Vec<f64>)> = Vec::new();
    for line in text.lines().filter(|l| l.contains("_bucket{")) {
        let stage = line.split("stage=\"").nth(1).unwrap().split('"').next().unwrap();
        let value: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        match per_stage.iter_mut().find(|(s, _)| s == stage) {
            Some((_, vs)) => vs.push(value),
            None => per_stage.push((stage.to_string(), vec![value])),
        }
    }
    assert_eq!(per_stage.len(), 2, "both stages exposed");
    for (stage, vs) in &per_stage {
        assert!(vs.windows(2).all(|w| w[0] <= w[1]), "{stage} buckets not monotone: {vs:?}");
        let count: f64 = text
            .lines()
            .find(|l| l.contains("_count{") && l.contains(&format!("stage=\"{stage}\"")))
            .and_then(|l| l.rsplit(' ').next())
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(*vs.last().unwrap(), count, "{stage} +Inf bucket != count");
    }

    // The exposition round-trips: counters, gauges (original key spelling,
    // escapes included) and the histograms themselves.
    let snap = fixture_snapshot();
    let parsed = parse_prom(&text);
    assert_eq!(parsed.counters, snap.counters);
    assert_eq!(parsed.gauges, snap.gauges);
    assert_eq!(parsed.stages.len(), snap.stages.len());
    for ((name, h), (pname, ph)) in snap.stages.iter().zip(parsed.stages.iter()) {
        assert_eq!(name, pname);
        assert_eq!(h, ph, "stage {name} histogram did not round-trip");
    }
}
