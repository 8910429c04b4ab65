//! Scrape bodies shaped like a `fleet_ops` target's: the telemetry text the
//! micro benches time and the ingest allocation bound feeds its holder.
//!
//! A target carries up to 17 stage histograms, each with exemplars on two
//! of its buckets, and 15 scalars (12 counters, 3 gauges); a monitor's cell
//! view adds its own counters and scrape-RTT stage to all 17. Everything is built
//! from fixed values, so the bodies are the same on every run.

use pdagent_net::obs::{Exemplar, Histogram};
use pdagent_net::telemetry::{DeltaState, TelemetrySnapshot};

/// The target's stage histograms.
pub const STAGES: [&str; 17] = [
    "device.kick",
    "gateway.stage",
    "gateway.dispatch",
    "gateway.collect",
    "gateway.subscribe",
    "http.request",
    "http.response",
    "http.upload",
    "itinerary.hop",
    "journey",
    "mas.ack",
    "mas.complete",
    "mas.control",
    "mas.exec",
    "mas.transfer",
    "page.deliver",
    "slo.alert",
];

/// The target's counters.
pub const COUNTERS: [&str; 12] = [
    "gateway.dispatches",
    "gateway.replays",
    "gateway.results_served",
    "gateway.results_stored",
    "gateway.stale_requests",
    "gateway.subscriptions",
    "http.gave_up",
    "http.retransmits",
    "mas.agents_executed",
    "mas.instructions",
    "telemetry.probes",
    "telemetry.scrapes",
];

/// The target's gauges.
pub const GAUGES: [&str; 3] = [
    "gateway.completed_entries",
    "gateway.replay_entries",
    "gateway.results_entries",
];

/// The counters a monitor adds to its targets' in its cell view.
const MONITOR_COUNTERS: [&str; 6] = [
    "slo.alerts_fired",
    "slo.alerts_resolved",
    "slo.evaluations",
    "slo.probe_failures",
    "slo.resyncs",
    "slo.scrapes_ok",
];

/// One target's telemetry after `round` rounds of traffic, with the first
/// `stages` of [`STAGES`]: every series grows with the round, and every
/// stage holds exemplars on its highest two buckets with 12-digit trace
/// ids.
pub fn target_snapshot(round: u64, stages: usize) -> TelemetrySnapshot {
    let mut snap = TelemetrySnapshot::default();
    for (i, key) in COUNTERS.iter().enumerate() {
        snap.counters
            .push(((*key).to_owned(), (round * 1_000 + i as u64 * 37) as f64));
    }
    for (i, key) in GAUGES.iter().enumerate() {
        snap.gauges
            .push(((*key).to_owned(), (round + i as u64) as f64));
    }
    for (i, stage) in STAGES.iter().take(stages).enumerate() {
        let mut h = Histogram::new();
        let mut rows = Vec::new();
        for n in 0..round * 8 + i as u64 {
            let v = (n * 7_919 + i as u64 * 104_729) % (1 << (2 + i % 9));
            h.record(v);
            let e = Exemplar {
                trace: 100_000_000_000 + n,
                value_us: v,
                ts_us: n * 1_000,
            };
            rows.retain(|(b, _)| *b != Histogram::bucket_of(v) as u8);
            rows.push((Histogram::bucket_of(v) as u8, e));
        }
        rows.sort_by_key(|(b, _)| *b);
        let top = rows.len().saturating_sub(2);
        snap.stages.push(((*stage).to_owned(), h));
        snap.exemplars
            .push(((*stage).to_owned(), rows.split_off(top)));
    }
    sort(&mut snap);
    snap
}

/// A monitor's cell view after `round` rounds: its targets' telemetry merged
/// with its own counters and scrape-RTT histogram.
pub fn cell_view_snapshot(round: u64) -> TelemetrySnapshot {
    let mut snap = target_snapshot(round, STAGES.len());
    for (i, key) in MONITOR_COUNTERS.iter().enumerate() {
        snap.counters
            .push(((*key).to_owned(), (round * 50 + i as u64) as f64));
    }
    let mut rtt = Histogram::new();
    for n in 0..round * 4 {
        rtt.record(20_000 + n * 131);
    }
    snap.stages.push(("slo.scrape_rtt".to_owned(), rtt));
    sort(&mut snap);
    snap
}

fn sort(snap: &mut TelemetrySnapshot) {
    snap.counters.sort_by(|a, b| a.0.cmp(&b.0));
    snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
    snap.stages.sort_by(|a, b| a.0.cmp(&b.0));
    snap.exemplars.sort_by(|a, b| a.0.cmp(&b.0));
}

/// Round 1's full body and the delta from round 1 to round 2, as the target
/// `gw-0` serves them with the first `stages` of [`STAGES`].
pub fn target_bodies(stages: usize) -> (String, String) {
    let mut ds = DeltaState::new();
    let base = ds.observe(&target_snapshot(1, stages));
    let mut full = String::new();
    ds.render_into("gw-0", None, &mut full);
    ds.observe(&target_snapshot(2, stages));
    let mut delta = String::new();
    ds.render_into("gw-0", Some(base), &mut delta);
    (full, delta)
}
