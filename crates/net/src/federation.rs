//! Fleet-scale scrape federation.
//!
//! One [`SloMonitor`](crate::slo::SloMonitor) per cell is cheap; an operator
//! fleet has hundreds of cells, and somebody has to watch the watchers. This
//! module models that layer the same way Prometheus federation does it in
//! production: a central [`FederationScraper`] node scrapes each cell
//! monitor's `GET /metrics` over the simulated WAN, merges the per-cell
//! snapshots into a fleet-level rollup ([`FederationRollup`]), and feeds the
//! rollup to an ordinary [`SloEngine`] so fleet-wide rules (staleness
//! bounds, burn rates over federated counters) fire from federated data.
//!
//! The interesting physics is the fan-in: hundreds of scrapes per round
//! share one WAN ingress, so the scraper dispatches targets in *batches*
//! (`batch` targets per `batch_spacing` tick) under a bounded in-flight
//! window (`max_inflight` outstanding scrapes). Both knobs trade congestion
//! against *staleness* — how old each cell's data is when the fleet rules
//! run — and the scraper accounts for that trade explicitly:
//!
//! * `federation.staleness` — histogram of per-cell snapshot age at each
//!   round's evaluation (also re-injected as a stage, so p99 rules apply);
//! * `federation.scrape_inflight` — gauge of outstanding scrapes;
//! * `federation.dropped_series` — counter of series excluded from a rollup
//!   because their cell's snapshot aged past `stale_after`.
//!
//! With `delta: true` (the default) the scraper rides the exposition layer's
//! epoch protocol: after a first full snapshot per cell it asks
//! `GET /metrics?since=<epoch>` and receives only the series that changed,
//! streaming them into the cell's held snapshot via
//! [`FederationRollup::ingest`]. Every 8th round is a full-snapshot resync,
//! like the monitors', and an epoch gap in either direction (server fell
//! back to full, or a delta arrives against a base the scraper no longer
//! holds) degrades safely to a full refetch — counted in
//! `federation.resyncs`, never dropped. The merged rollup is byte-identical
//! to full-snapshot mode at equal scrape counts.
//!
//! Determinism: the scraper's links carry their own per-link RNG streams
//! (keyed by node labels, like every link), its timers and HTTP req-ids are
//! node-local, and cell monitors serve their federated view from cell-local
//! state only — so enabling federation never perturbs protocol traffic, and
//! a sharded fleet federates byte-identically at every shard count.

use std::collections::{BTreeMap, HashMap, VecDeque};

use crate::http::{HttpClient, TimerOutcome};
use crate::message::Message;
use crate::obs::Histogram;
use crate::sim::{Ctx, Node, NodeId};
use crate::slo::{AlertEpisodes, SloEngine, SloReport, SloRule};
use crate::telemetry::{
    scrape_request, HeldSnapshot, Ingested, TelemetrySnapshot, RESYNC_EVERY, SCRAPE_RETRIES,
};
use crate::time::{SimDuration, SimTime};

/// Synthetic gauge the scraper injects before fleet evaluation: the largest
/// per-cell snapshot age (µs) seen at this round's rollup.
pub const KEY_FED_STALENESS_MAX: &str = "federation.staleness_max";
/// Synthetic stage the scraper injects: per-cell snapshot age (µs) at each
/// round's rollup, cumulative across rounds (rules window it by diffing).
pub const STAGE_FED_STALENESS: &str = "federation.staleness";

/// The fleet rule set evaluated against each round's federated rollup. All
/// signals are derived from federated (cell-local) series plus the scraper's
/// own staleness synthetics, so verdicts are shard-count invariant.
pub fn default_federation_rules() -> Vec<SloRule> {
    vec![
        // Freshness ceiling with resolve hysteresis: fire when any cell's
        // data ages past 30 s, resolve only once back under 15 s — a flapping
        // scrape plane must not flap the alert.
        SloRule::gauge("fed-staleness-max", KEY_FED_STALENESS_MAX, 30_000_000.0)
            .with_resolve(15_000_000.0),
        // Tail freshness across the fleet, windowed per round.
        SloRule::p99("fed-staleness-p99", STAGE_FED_STALENESS, 30_000_000.0),
        // Fleet-wide probe burn over federated monitor counters: both the
        // 1- and 3-round windows must burn >50% before this pages.
        SloRule::burn_rate("fleet-probe-burn", "slo.probe_failures", "slo.scrapes_ok", 1, 3, 0.5),
        // Fleet-wide HTTP error budget over federated gateway/MAS counters.
        SloRule::error_ratio("fleet-error-ratio", "http.gave_up", "msgs_sent", 0.05),
    ]
}

/// Sum `from`'s counters and gauges into `into` and merge its stage
/// histograms — the primitive both the cell monitors (merging their targets
/// into a cell view) and the fleet rollup (merging cells) are built on.
/// Keys are accumulated by name, so the result only depends on the multiset
/// of inputs, not their order.
pub fn merge_snapshot(into: &mut TelemetrySnapshot, from: &TelemetrySnapshot) {
    for (k, v) in &from.counters {
        add_scalar(&mut into.counters, k, *v);
    }
    for (k, v) in &from.gauges {
        add_scalar(&mut into.gauges, k, *v);
    }
    for (name, h) in &from.stages {
        merge_stage(&mut into.stages, name, h);
    }
    // Exemplars merge per (stage, bucket): the newest timestamp wins, with
    // the larger trace id as the deterministic tie-break — order-insensitive
    // like the scalar fold above.
    for (name, rows) in &from.exemplars {
        let slot = match into.exemplars.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => &mut into.exemplars[i].1,
            Err(i) => {
                into.exemplars.insert(i, (name.clone(), Vec::new()));
                &mut into.exemplars[i].1
            }
        };
        for &(bucket, e) in rows {
            match slot.binary_search_by(|(b, _)| b.cmp(&bucket)) {
                Ok(i) => {
                    let cur = &mut slot[i].1;
                    if (e.ts_us, e.trace) > (cur.ts_us, cur.trace) {
                        *cur = e;
                    }
                }
                Err(i) => slot.insert(i, (bucket, e)),
            }
        }
    }
}

/// Add `v` to the `key` series of a sorted counter or gauge section.
pub(crate) fn add_scalar(section: &mut Vec<(String, f64)>, key: &str, v: f64) {
    match section.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
        Ok(i) => section[i].1 += v,
        Err(i) => section.insert(i, (key.to_owned(), v)),
    }
}

/// Merge `h` into the `name` histogram of a sorted stage section.
pub(crate) fn merge_stage(stages: &mut Vec<(String, Histogram)>, name: &str, h: &Histogram) {
    match stages.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
        Ok(i) => stages[i].1.merge(h),
        Err(i) => stages.insert(i, (name.to_owned(), h.clone())),
    }
}

/// The fleet rollup: the latest accepted snapshot per cell instance, keyed
/// by instance name. Full ingests are idempotent (a full body replaces the
/// cell's slot) and [`FederationRollup::merged`] folds cells in instance order,
/// so the merged view is insensitive to scrape-arrival order — the property
/// the proptest below pins down.
#[derive(Debug, Clone, Default)]
pub struct FederationRollup {
    cells: BTreeMap<String, (SimTime, HeldSnapshot)>,
}

impl FederationRollup {
    /// Empty rollup.
    pub fn new() -> FederationRollup {
        FederationRollup::default()
    }

    /// Apply a body scraped from cell `instance` at `at` to its held
    /// snapshot (see [`HeldSnapshot::apply`]). A full body installs or
    /// replaces the cell; a [`Ingested::Gap`] leaves the rollup untouched,
    /// and the caller must fall back to a full scrape.
    pub fn ingest(&mut self, instance: &str, at: SimTime, text: &str) -> Ingested {
        let Some((held_at, held)) = self.cells.get_mut(instance) else {
            let mut held = HeldSnapshot::new();
            let got = held.apply(text);
            if got != Ingested::Gap {
                self.cells.insert(instance.to_owned(), (at, held));
            }
            return got;
        };
        let got = held.apply(text);
        if got != Ingested::Gap {
            *held_at = at;
        }
        got
    }

    /// The epoch cell `instance`'s held snapshot corresponds to.
    pub fn epoch(&self, instance: &str) -> Option<u64> {
        self.cells.get(instance).and_then(|(_, held)| held.epoch())
    }

    /// Cells currently held.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cell has reported yet.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Age of cell `instance`'s snapshot at `now` (`None` if never seen).
    pub fn staleness(&self, instance: &str, now: SimTime) -> Option<SimDuration> {
        self.cells.get(instance).map(|(at, _)| now.since(*at))
    }

    /// Merge every cell fresher than `stale_after` (as of `now`) into one
    /// fleet snapshot. Returns the merged view plus the number of *series*
    /// (counters + gauges + stages) dropped from cells that aged out.
    pub fn merged_fresh(
        &self,
        now: SimTime,
        stale_after: SimDuration,
    ) -> (TelemetrySnapshot, u64) {
        let mut out = TelemetrySnapshot::default();
        let mut dropped = 0u64;
        for (at, held) in self.cells.values() {
            let snap = held.snapshot();
            if now.since(*at) > stale_after {
                dropped += (snap.counters.len() + snap.gauges.len() + snap.stages.len()) as u64;
                continue;
            }
            merge_snapshot(&mut out, snap);
        }
        (out, dropped)
    }

    /// Merge every cell, unconditionally.
    pub fn merged(&self) -> TelemetrySnapshot {
        self.merged_fresh(SimTime(u64::MAX), SimDuration::from_micros(u64::MAX)).0
    }

}

/// Federation scraper configuration.
#[derive(Debug, Clone)]
pub struct FederationSpec {
    /// Round cadence: how often the full target set is re-scraped.
    pub cadence: SimDuration,
    /// Total rounds — bounded, so simulations always drain.
    pub rounds: u32,
    /// Per-scrape retransmission timeout.
    pub rto: SimDuration,
    /// Targets dispatched per fan-in batch tick.
    pub batch: usize,
    /// Delay between fan-in batch ticks within a round.
    pub batch_spacing: SimDuration,
    /// Bounded in-flight window: outstanding scrapes never exceed this.
    pub max_inflight: usize,
    /// Snapshots older than this are excluded from rollups (their series
    /// count toward `federation.dropped_series`).
    pub stale_after: SimDuration,
    /// Scrape cells with `?since=<epoch>` delta requests once a base
    /// snapshot is held; `false` forces a full snapshot every round.
    pub delta: bool,
    /// Fleet rule set evaluated against each round's rollup.
    pub rules: Vec<SloRule>,
    /// Paging gateway to notify on fleet alert edges, if any.
    pub pager: Option<NodeId>,
}

impl Default for FederationSpec {
    fn default() -> FederationSpec {
        FederationSpec {
            cadence: SimDuration::from_secs(10),
            rounds: 3,
            rto: SimDuration::from_secs(2),
            batch: 16,
            batch_spacing: SimDuration::from_millis(200),
            max_inflight: 8,
            stale_after: SimDuration::from_secs(30),
            delta: true,
            rules: Vec::new(),
            pager: None,
        }
    }
}

/// Aggregate outcome of a federation run, for reports.
#[derive(Debug, Clone)]
pub struct FederationReport {
    /// Completed scrape rounds.
    pub rounds: u64,
    /// Successful cell scrapes.
    pub scrapes_ok: u64,
    /// Scrapes that exhausted their retries or failed to parse.
    pub scrape_failures: u64,
    /// Series excluded from rollups because their cell aged out.
    pub dropped_series: u64,
    /// High-water mark of outstanding scrapes.
    pub peak_inflight: usize,
    /// Cells that reported at least once.
    pub cells: usize,
    /// Delta scrapes answered with a full body (epoch gap) plus defensive
    /// base-mismatch refetches.
    pub resyncs: u64,
    /// Scrapes served as deltas (epoch header with a `base=`).
    pub delta_scrapes: u64,
    /// Scrapes served as full snapshots.
    pub full_scrapes: u64,
    /// Total scrape body bytes received.
    pub scraped_bytes: u64,
    /// Wall-clock nanoseconds spent parsing and applying scrape bodies
    /// (report-only: never feeds back into simulation state).
    pub ingest_nanos: u64,
    /// Per-cell snapshot age at each round's evaluation.
    pub staleness: Histogram,
    /// Scrape round-trip times (from first transmission).
    pub rtt: Histogram,
    /// Fleet rule digests, in rule order.
    pub slo: Vec<SloReport>,
    /// Fleet rules still breached when the sim drained.
    pub breached: usize,
}

/// Timer tags (below `HTTP_TIMER_BASE`, so the HTTP client's tags pass
/// through untouched).
const TAG_ROUND: u64 = 1;
const TAG_BATCH: u64 = 2;

/// The central scraper node. See the module docs for the protocol.
#[derive(Debug)]
pub struct FederationScraper {
    spec: FederationSpec,
    /// `(node, instance)` per target cell monitor, in dispatch order.
    targets: Vec<(NodeId, String)>,
    /// True while the current round scrapes full snapshots.
    full_round: bool,
    http: HttpClient,
    /// req_id → (target index, first-transmission time, asked-for-delta).
    pending: HashMap<u64, (usize, SimTime, bool)>,
    rollup: FederationRollup,
    engine: SloEngine,
    /// Targets not yet dispatched this round.
    queue: VecDeque<usize>,
    /// Targets the batch clock has released for dispatch this round.
    budget: usize,
    /// Targets dispatched this round.
    issued: usize,
    inflight: usize,
    rounds_started: u32,
    round_pending: bool,
    alerts: AlertEpisodes,
    /// Cumulative staleness histogram (µs), one record per cell per round.
    staleness: Histogram,
    /// Cumulative scrape RTT histogram (µs).
    rtt: Histogram,
    /// Completed rounds.
    pub rounds_done: u64,
    /// Successful scrapes.
    pub scrapes_ok: u64,
    /// Failed scrapes (gave up, error status, or unparseable body).
    pub scrape_failures: u64,
    /// Series dropped from rollups for staleness.
    pub dropped_series: u64,
    /// In-flight high-water mark.
    pub peak_inflight: usize,
    /// Delta asks answered full (epoch gap) plus base-mismatch refetches.
    pub resyncs: u64,
    /// Scrapes served as deltas.
    pub delta_scrapes: u64,
    /// Scrapes served as full snapshots.
    pub full_scrapes: u64,
    /// Total scrape body bytes received.
    pub scraped_bytes: u64,
    /// Wall-clock nanos spent parsing/applying bodies (report-only).
    pub ingest_nanos: u64,
}

impl FederationScraper {
    /// Scraper over `(cell monitor node, instance name)` pairs.
    pub fn new(spec: FederationSpec, targets: Vec<(NodeId, String)>) -> FederationScraper {
        let mut http = HttpClient::new();
        http.timeout = spec.rto;
        http.max_retries = SCRAPE_RETRIES;
        let engine = SloEngine::new(spec.rules.clone());
        FederationScraper {
            spec,
            targets,
            full_round: true,
            http,
            pending: HashMap::new(),
            rollup: FederationRollup::new(),
            engine,
            queue: VecDeque::new(),
            budget: 0,
            issued: 0,
            inflight: 0,
            rounds_started: 0,
            round_pending: false,
            alerts: AlertEpisodes::new("federation.alerts_fired", "federation.alerts_resolved"),
            staleness: Histogram::new(),
            rtt: Histogram::new(),
            rounds_done: 0,
            scrapes_ok: 0,
            scrape_failures: 0,
            dropped_series: 0,
            peak_inflight: 0,
            resyncs: 0,
            delta_scrapes: 0,
            full_scrapes: 0,
            scraped_bytes: 0,
            ingest_nanos: 0,
        }
    }

    /// Aggregate outcome for reports.
    pub fn report(&self) -> FederationReport {
        FederationReport {
            rounds: self.rounds_done,
            scrapes_ok: self.scrapes_ok,
            scrape_failures: self.scrape_failures,
            dropped_series: self.dropped_series,
            peak_inflight: self.peak_inflight,
            resyncs: self.resyncs,
            delta_scrapes: self.delta_scrapes,
            full_scrapes: self.full_scrapes,
            scraped_bytes: self.scraped_bytes,
            ingest_nanos: self.ingest_nanos,
            cells: self.rollup.len(),
            staleness: self.staleness.clone(),
            rtt: self.rtt.clone(),
            slo: self.engine.reports(),
            breached: self.engine.breached(),
        }
    }

    /// The current fleet rollup (latest snapshot per cell).
    pub fn rollup(&self) -> &FederationRollup {
        &self.rollup
    }

    fn round_active(&self) -> bool {
        self.inflight > 0 || !self.queue.is_empty()
    }

    fn start_round(&mut self, ctx: &mut Ctx<'_>) {
        self.full_round =
            !self.spec.delta || self.rounds_done.is_multiple_of(u64::from(RESYNC_EVERY));
        self.queue = (0..self.targets.len()).collect();
        self.budget = self.spec.batch.max(1).min(self.targets.len());
        self.issued = 0;
        self.pump(ctx);
        if self.budget < self.targets.len() {
            ctx.set_timer(self.spec.batch_spacing, TAG_BATCH);
        }
    }

    /// Dispatch queued targets while both the fan-in budget and the
    /// in-flight window allow it.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        while self.issued < self.budget
            && self.inflight < self.spec.max_inflight.max(1)
            && !self.queue.is_empty()
        {
            let tidx = self.queue.pop_front().expect("non-empty queue");
            let (node, instance) = &self.targets[tidx];
            let since = if self.full_round { None } else { self.rollup.epoch(instance) };
            let id = self.http.send(ctx, *node, scrape_request(since));
            self.pending.insert(id, (tidx, ctx.now(), since.is_some()));
            self.issued += 1;
            self.inflight += 1;
            self.peak_inflight = self.peak_inflight.max(self.inflight);
        }
        ctx.metrics().set_gauge("federation.scrape_inflight", self.inflight as f64);
    }

    /// One scrape finished (ok or not): free its window slot, refill, and
    /// close out the round when the last one lands.
    fn complete(&mut self, ctx: &mut Ctx<'_>) {
        self.inflight -= 1;
        self.pump(ctx);
        if !self.round_active() {
            self.finish_round(ctx);
            if self.round_pending {
                self.round_pending = false;
                self.start_round(ctx);
            }
        }
    }

    /// Round epilogue: account staleness, roll up the fresh cells, and run
    /// the fleet rules over the merged view.
    fn finish_round(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let mut max_staleness = 0u64;
        for (_, instance) in &self.targets {
            // A cell that never reported is as stale as the run is old.
            let age = self.rollup.staleness(instance, now).map_or(now.0, |age| age.0);
            self.staleness.record(age);
            max_staleness = max_staleness.max(age);
        }
        let (mut merged, dropped) = self.rollup.merged_fresh(now, self.spec.stale_after);
        if dropped > 0 {
            self.dropped_series += dropped;
            ctx.metrics().bump("federation.dropped_series", dropped as f64);
        }
        ctx.metrics().set_gauge(KEY_FED_STALENESS_MAX, max_staleness as f64);
        merged.gauges.push((KEY_FED_STALENESS_MAX.to_owned(), max_staleness as f64));
        merged.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        merged.stages.push((STAGE_FED_STALENESS.to_owned(), self.staleness.clone()));
        merged.stages.sort_by(|a, b| a.0.cmp(&b.0));

        let transitions = self.engine.evaluate(&merged);
        self.rounds_done += 1;
        ctx.metrics().bump("federation.rounds", 1.0);
        self.alerts.emit(ctx, transitions, "fleet", self.spec.pager);
    }
}

impl Node for FederationScraper {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.spec.rounds > 0 && !self.targets.is_empty() {
            ctx.set_timer(self.spec.cadence, TAG_ROUND);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
        let Some(resp) = self.http.on_response(ctx, &msg) else { return };
        let Some((tidx, sent, asked_delta)) = self.pending.remove(&resp.req_id) else { return };
        self.scraped_bytes += resp.body.len() as u64;
        let body = if resp.status.is_success() {
            std::str::from_utf8(&resp.body).ok()
        } else {
            None
        };
        // Parse + apply under a wall clock: this is the merge cost the delta
        // path exists to shrink. The measurement is report-only and never
        // feeds back into simulated time or digests.
        let ingest_started = std::time::Instant::now();
        let mut ok = false;
        if let Some(text) = body {
            match self.rollup.ingest(&self.targets[tidx].1, ctx.now(), text) {
                Ingested::Gap => {
                    // Base mismatch (or no held snapshot): the delta is
                    // unusable. Refetch the full snapshot under the same
                    // window slot — the round stays open and the RTT clock
                    // keeps running from the first send.
                    self.ingest_nanos += ingest_started.elapsed().as_nanos() as u64;
                    self.resyncs += 1;
                    ctx.metrics().bump("federation.resyncs", 1.0);
                    let id = self.http.send(ctx, self.targets[tidx].0, scrape_request(None));
                    self.pending.insert(id, (tidx, sent, false));
                    return;
                }
                Ingested::Delta { .. } => self.delta_scrapes += 1,
                Ingested::Full { .. } => {
                    self.full_scrapes += 1;
                    if asked_delta {
                        // We asked for a delta; the server couldn't serve
                        // one (epoch gap on its side). Count the forced
                        // resync.
                        self.resyncs += 1;
                        ctx.metrics().bump("federation.resyncs", 1.0);
                    }
                }
            }
            ok = true;
        }
        self.ingest_nanos += ingest_started.elapsed().as_nanos() as u64;
        let rtt = ctx.now().since(sent);
        self.rtt.record(rtt.0);
        if ok {
            self.scrapes_ok += 1;
            ctx.metrics().bump("federation.scrapes_ok", 1.0);
        } else {
            self.scrape_failures += 1;
            ctx.metrics().bump("federation.scrape_failures", 1.0);
        }
        self.complete(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        match self.http.on_timer(ctx, tag) {
            TimerOutcome::Retried { .. } => return,
            TimerOutcome::GaveUp { req_id, .. } => {
                if self.pending.remove(&req_id).is_some() {
                    self.scrape_failures += 1;
                    ctx.metrics().bump("federation.scrape_failures", 1.0);
                    self.complete(ctx);
                }
                return;
            }
            TimerOutcome::NotMine => {}
        }
        match tag {
            TAG_ROUND => {
                self.rounds_started += 1;
                if self.rounds_started < self.spec.rounds {
                    ctx.set_timer(self.spec.cadence, TAG_ROUND);
                }
                if self.round_active() {
                    // Previous round still draining (slow WAN): run the next
                    // one back-to-back once it completes instead of
                    // overlapping scrapes of the same target.
                    self.round_pending = true;
                } else {
                    self.start_round(ctx);
                }
            }
            TAG_BATCH => {
                self.budget = (self.budget + self.spec.batch.max(1)).min(self.targets.len());
                self.pump(ctx);
                if self.budget < self.targets.len() {
                    ctx.set_timer(self.spec.batch_spacing, TAG_BATCH);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use crate::telemetry::render_prom;

    fn snap(counters: &[(&str, f64)], gauges: &[(&str, f64)], rtts: &[u64]) -> TelemetrySnapshot {
        let mut m = Metrics::new();
        for (k, v) in counters {
            m.bump(k, *v);
        }
        for (k, v) in gauges {
            m.set_gauge(k, *v);
        }
        let mut h = Histogram::new();
        for r in rtts {
            h.record(*r);
        }
        let stages =
            if rtts.is_empty() { vec![] } else { vec![("scrape.rtt".to_owned(), h)] };
        TelemetrySnapshot::capture(&m, &stages)
    }

    /// Scrape `s` into the rollup as cell `instance`'s full body.
    fn install(r: &mut FederationRollup, instance: &str, at: SimTime, s: &TelemetrySnapshot) {
        let got = r.ingest(instance, at, &render_prom(instance, s));
        assert_eq!(got, Ingested::Full { regressed: false });
    }

    #[test]
    fn merge_sums_counters_and_gauges_and_merges_stages() {
        let mut acc = TelemetrySnapshot::default();
        merge_snapshot(&mut acc, &snap(&[("a", 1.0)], &[("g", 2.0)], &[10]));
        merge_snapshot(&mut acc, &snap(&[("a", 3.0), ("b", 5.0)], &[("g", 4.0)], &[20, 30]));
        assert_eq!(acc.counter("a"), 4.0);
        assert_eq!(acc.counter("b"), 5.0);
        assert_eq!(acc.gauge("g"), 6.0);
        assert_eq!(acc.stage("scrape.rtt").unwrap().count(), 3);
    }

    #[test]
    fn rollup_full_ingest_is_idempotent() {
        let mut r = FederationRollup::new();
        let s = snap(&[("x", 7.0)], &[], &[]);
        install(&mut r, "cell-0", SimTime(100), &s);
        install(&mut r, "cell-0", SimTime(200), &s);
        assert_eq!(r.len(), 1);
        assert_eq!(r.merged().counter("x"), 7.0, "re-ingesting must replace, not double");
    }

    #[test]
    fn rollup_drops_stale_cells_and_counts_series() {
        let mut r = FederationRollup::new();
        install(&mut r, "cell-0", SimTime(0), &snap(&[("x", 1.0)], &[("g", 1.0)], &[5]));
        install(&mut r, "cell-1", SimTime(9_000_000), &snap(&[("x", 10.0)], &[], &[]));
        let (merged, dropped) =
            r.merged_fresh(SimTime(10_000_000), SimDuration::from_secs(5));
        // cell-0 aged out: its counters ride the built-in 5 (bytes/msgs) + x,
        // one gauge, one stage.
        assert_eq!(dropped, 6 + 1 + 1);
        assert_eq!(merged.counter("x"), 10.0);
        assert!(merged.stage("scrape.rtt").is_none());
    }

    // Delta ingest vs full ingest: scraping a cell as full-then-deltas must
    // leave the rollup — and therefore the merged fleet view the rules see —
    // byte-identical to scraping full snapshots every round.
    #[test]
    fn delta_ingest_matches_full_ingest() {
        use crate::telemetry::DeltaState;
        let mut m = Metrics::new();
        m.bump("slo.scrapes_ok", 3.0);
        m.set_gauge("q.depth", 5.0);
        let mut cell = DeltaState::new();
        let mut delta_rollup = FederationRollup::new();
        let mut full_rollup = FederationRollup::new();
        for round in 0..6u64 {
            m.bump("slo.scrapes_ok", round as f64);
            if round == 3 {
                m.bump("slo.probe_failures", 1.0); // new series mid-stream
            }
            m.set_gauge("q.depth", (round * 7 % 11) as f64);
            cell.observe(&TelemetrySnapshot::capture(&m, &[]));
            // Full-mode scraper.
            let mut body = String::new();
            cell.render_into("cell-0", None, &mut body);
            let got = full_rollup.ingest("cell-0", SimTime(round), &body);
            assert!(matches!(got, Ingested::Full { .. }));
            // Delta-mode scraper (round 0 is the full base).
            let mut dbody = String::new();
            cell.render_into("cell-0", delta_rollup.epoch("cell-0"), &mut dbody);
            let got = delta_rollup.ingest("cell-0", SimTime(round), &dbody);
            assert_eq!(matches!(got, Ingested::Delta { .. }), round > 0, "round {round}: {got:?}");
            assert_eq!(delta_rollup.epoch("cell-0"), Some(cell.epoch()));
            assert!(dbody.len() <= body.len(), "delta body larger than full");
            assert_eq!(
                render_prom("fleet", &delta_rollup.merged()),
                render_prom("fleet", &full_rollup.merged()),
                "modes diverged at round {round}"
            );
        }
    }

    // The epoch rule through the rollup: a delta over a cell it does not
    // hold is a gap that inserts no cell; once a full body holds the cell,
    // a delta over its epoch applies and moves the cell's scrape time.
    #[test]
    fn delta_over_a_fresh_holder_is_refused_and_inserts_no_cell() {
        let body = |header: &str, x: f64| {
            format!("{header}\n{}", render_prom("cell-0", &snap(&[("x", x)], &[], &[])))
        };
        let (full, delta) = (body("# EPOCH 2 full", 2.0), body("# EPOCH 3 base=2", 1.0));
        let mut r = FederationRollup::new();
        let got = r.ingest("cell-0", SimTime(5), &delta);
        assert_eq!(got, Ingested::Gap, "no base: caller must refetch");
        assert!(r.is_empty());
        assert_eq!(r.epoch("cell-0"), None);
        assert_eq!(r.ingest("cell-0", SimTime(1), &full), Ingested::Full { regressed: false });
        assert_eq!(r.ingest("cell-0", SimTime(5), &delta), Ingested::Delta { regressed: false });
        assert_eq!(r.epoch("cell-0"), Some(3));
        assert_eq!(r.merged().counter("x"), 1.0);
        assert_eq!(r.staleness("cell-0", SimTime(7)), Some(SimDuration(2)));
        // The same delta again names a base the cell no longer holds.
        assert_eq!(r.ingest("cell-0", SimTime(9), &delta), Ingested::Gap);
        let age = r.staleness("cell-0", SimTime(9));
        assert_eq!(age, Some(SimDuration(4)), "a gap is not a scrape");
    }

    // Order-insensitivity and idempotence of the federation merge: any
    // permutation of cell scrapes — with any cells repeated — rolls up to
    // the same fleet view. This is what makes scrape-arrival order (which
    // the WAN jitters) irrelevant to fleet rule verdicts.
    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]
        #[test]
        fn rollup_merge_is_order_insensitive_and_idempotent(
            cells in proptest::collection::vec(
                (0u64..500, 0u64..500, 1u64..1_000_000), 1..8),
            order in proptest::collection::vec(0usize..64, 1..24),
        ) {
            let snaps: Vec<(String, TelemetrySnapshot)> = cells
                .iter()
                .enumerate()
                .map(|(i, (c, g, rtt))| {
                    (
                        format!("cell-{i}"),
                        snap(&[("slo.scrapes_ok", *c as f64)], &[("q", *g as f64)], &[*rtt]),
                    )
                })
                .collect();
            // Canonical: each cell once, in index order.
            let mut canonical = FederationRollup::new();
            for (inst, s) in &snaps {
                install(&mut canonical, inst, SimTime(1), s);
            }
            // Shuffled with repeats: the `order` walk revisits cells freely.
            let mut shuffled = FederationRollup::new();
            for (step, &o) in order.iter().enumerate() {
                let (inst, s) = &snaps[o % snaps.len()];
                install(&mut shuffled, inst, SimTime(1 + step as u64), s);
            }
            // Make sure every cell landed at least once.
            for (inst, s) in &snaps {
                install(&mut shuffled, inst, SimTime(999), s);
            }
            proptest::prop_assert_eq!(canonical.merged(), shuffled.merged());
        }
    }
}
