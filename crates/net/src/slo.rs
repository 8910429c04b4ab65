//! SLO rules, the alert engine, and the in-sim monitor node.
//!
//! The paper's gateway must stay reachable while handhelds are away; this
//! module is the layer that *interprets* the telemetry of
//! [`crate::telemetry`] against declarative service-level objectives:
//!
//! * [`SloRule`] — upper-bound rules over scraped signals: windowed
//!   `p99(stage)`, cumulative error ratios, instantaneous gauges, and a
//!   two-window burn rate.
//! * [`SloEngine`] — pure evaluation state machine: feed it snapshots on a
//!   cadence, get [`AlertTransition`]s (fired/resolved edges) back. No sim
//!   types, so it is unit-testable in isolation.
//! * [`SloMonitor`] — a [`Node`] that scrapes its targets' `GET /metrics` +
//!   `GET /healthz` over the modeled links on a sim-timer cadence, feeds the
//!   engine, and emits `AlertFired`/`AlertResolved` events into the obs
//!   [`Collector`](crate::obs::Collector) with a per-episode trace id. Each
//!   alert episode is also a span (`slo.alert`), so time-to-resolve lands in
//!   the stage histograms like any other latency.
//!
//! Monitors run a *bounded* number of rounds so `run_until_idle` still
//! drains, and they are deliberately cell-local in sharded soaks: their
//! links get their own RNG streams, so enabling monitoring never perturbs
//! protocol traffic (the same argument as PR 2's zero-cost tracing).

use std::collections::{HashMap, VecDeque};


use crate::federation::{add_scalar, merge_snapshot, merge_stage};
use crate::http::{self, HttpClient, HttpRequest, HttpStatus};
use crate::message::Message;
use crate::metrics::KEY_QUEUE_DEPTH;
use crate::obs::Histogram;
use crate::paging::{page_fire, page_resolve};
use crate::sim::{Ctx, Node, NodeId};
use crate::telemetry::{
    parse_since, scrape_request, write_value, DeltaState, HeldSnapshot, Ingested,
    TelemetrySnapshot, PATH_HEALTHZ, PATH_METRICS, RESYNC_EVERY, SCRAPE_RETRIES,
};
use crate::time::{SimDuration, SimTime};

/// Synthetic gauge the monitor injects before evaluation: consecutive
/// failed probes against the target (reset by any successful `/healthz`).
pub const KEY_PROBE_FAILURES: &str = "monitor.consecutive_probe_failures";
/// Synthetic gauge the monitor injects: microseconds since the target's last
/// successful `/metrics` scrape (sim time itself until the first one lands).
/// The federation plane is SLO-guarded through this signal.
pub const KEY_SCRAPE_STALENESS: &str = "scrape.staleness_max";
/// Synthetic stage the monitor injects: round-trip time of `/metrics`
/// scrapes, measured from first transmission (retransmissions included —
/// that *is* the tail a real scraper sees).
pub const STAGE_SCRAPE_RTT: &str = "scrape.rtt";

/// What a rule measures. All signals are compared as upper bounds: the rule
/// is healthy while `value <= limit`.
#[derive(Debug, Clone, PartialEq)]
pub enum SloSignal {
    /// p99 of a stage histogram over the window since the last evaluation
    /// (cumulative scrapes are diffed; an empty window reads 0 — no
    /// observations, no violation). Value is in microseconds.
    StageP99 {
        /// Stage name as it appears in the exposition, e.g. `scrape.rtt`.
        stage: String,
    },
    /// Cumulative `errors / total` over two counters (0 while `total` is 0).
    ErrorRatio {
        /// Counter key of the failure count.
        errors: String,
        /// Counter key of the attempt count.
        total: String,
    },
    /// The instantaneous value of a gauge.
    Gauge {
        /// Gauge key, e.g. `gateway.replay_entries`.
        key: String,
    },
    /// Two-window burn rate over an error/total counter pair: the value is
    /// `min(short-window ratio, long-window ratio)`, so the rule only fires
    /// while *both* windows burn above the limit — the classic fast+slow
    /// window pairing that ignores blips but catches sustained burn.
    BurnRate {
        /// Counter key of the failure count.
        errors: String,
        /// Counter key of the attempt count.
        total: String,
        /// Short window length, in evaluation cadences.
        short: usize,
        /// Long window length, in evaluation cadences (`>= short`).
        long: usize,
    },
}

/// A declarative upper-bound rule: healthy while `signal <= limit`.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRule {
    /// Rule name (used in events, reports and flight dumps).
    pub name: String,
    /// The measured signal.
    pub signal: SloSignal,
    /// Inclusive upper bound for the healthy state.
    pub limit: f64,
    /// Resolve threshold: a breached rule only resolves once the value
    /// drops back to `resolve_limit` or below. Equal to `limit` by default
    /// (no hysteresis); set lower via [`SloRule::with_resolve`] so noisy
    /// gauges hovering at the limit don't flap fire/resolve every cadence.
    pub resolve_limit: f64,
}

impl SloRule {
    /// `p99(stage) <= limit_us` over each evaluation window.
    pub fn p99(name: &str, stage: &str, limit_us: f64) -> SloRule {
        SloRule {
            name: name.to_owned(),
            signal: SloSignal::StageP99 { stage: stage.to_owned() },
            limit: limit_us,
            resolve_limit: limit_us,
        }
    }

    /// `errors/total <= limit` (cumulative).
    pub fn error_ratio(name: &str, errors: &str, total: &str, limit: f64) -> SloRule {
        SloRule {
            name: name.to_owned(),
            signal: SloSignal::ErrorRatio { errors: errors.to_owned(), total: total.to_owned() },
            limit,
            resolve_limit: limit,
        }
    }

    /// `gauge(key) <= limit`.
    pub fn gauge(name: &str, key: &str, limit: f64) -> SloRule {
        SloRule {
            name: name.to_owned(),
            signal: SloSignal::Gauge { key: key.to_owned() },
            limit,
            resolve_limit: limit,
        }
    }

    /// Two-window burn rate: fires while both the `short`- and
    /// `long`-cadence windows burn `errors/total` above `limit`.
    pub fn burn_rate(
        name: &str,
        errors: &str,
        total: &str,
        short: usize,
        long: usize,
        limit: f64,
    ) -> SloRule {
        SloRule {
            name: name.to_owned(),
            signal: SloSignal::BurnRate {
                errors: errors.to_owned(),
                total: total.to_owned(),
                short: short.max(1),
                long: long.max(short.max(1)),
            },
            limit,
            resolve_limit: limit,
        }
    }

    /// Resolve hysteresis (builder-style): once breached, the rule stays
    /// breached until the value falls to `resolve_limit` or below.
    pub fn with_resolve(mut self, resolve_limit: f64) -> SloRule {
        self.resolve_limit = resolve_limit.min(self.limit);
        self
    }
}

/// A fired/resolved edge produced by [`SloEngine::evaluate`].
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTransition {
    /// Rule name.
    pub rule: String,
    /// `true` = AlertFired, `false` = AlertResolved.
    pub fired: bool,
    /// The observed value at the transition.
    pub value: f64,
    /// The rule's limit.
    pub limit: f64,
    /// Exemplar trace id behind the breached signal (0 = none). For
    /// `StageP99` fires this is the highest-bucket exemplar the snapshot
    /// carries for the stage — the concrete trace whose latency sits in the
    /// breached tail.
    pub exemplar: u64,
}

/// Per-rule evaluation state.
#[derive(Debug, Clone, Default)]
struct RuleState {
    breached: bool,
    evaluations: u64,
    fired: u64,
    resolved: u64,
    last_value: f64,
    /// Cumulative stage histogram at the previous evaluation (StageP99).
    prev_stage: Histogram,
    /// Recent cumulative `(errors, total)` samples, newest last (BurnRate).
    samples: VecDeque<(f64, f64)>,
}

/// Aggregated per-rule outcome for reports (`slo` section of BENCH json).
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Rule name.
    pub name: String,
    /// The rule's limit.
    pub limit: f64,
    /// Evaluations performed.
    pub evaluations: u64,
    /// Fired edges.
    pub fired: u64,
    /// Resolved edges.
    pub resolved: u64,
    /// Is the rule breached right now (fired and unresolved)?
    pub breached: bool,
    /// Last observed value.
    pub last_value: f64,
}

/// The signals [`SloEngine::evaluate`] reads, by name.
pub trait Signals {
    /// A counter's value (0 if absent).
    fn counter(&self, key: &str) -> f64;
    /// A gauge's value (0 if absent).
    fn gauge(&self, key: &str) -> f64;
    /// A stage's cumulative latency histogram, if present.
    fn stage(&self, name: &str) -> Option<&Histogram>;
    /// The trace id of the stage's highest-bucket exemplar (0 if none).
    fn exemplar_for(&self, stage: &str) -> u64;
}

impl Signals for TelemetrySnapshot {
    fn counter(&self, key: &str) -> f64 {
        TelemetrySnapshot::counter(self, key)
    }

    fn gauge(&self, key: &str) -> f64 {
        TelemetrySnapshot::gauge(self, key)
    }

    fn stage(&self, name: &str) -> Option<&Histogram> {
        TelemetrySnapshot::stage(self, name)
    }

    fn exemplar_for(&self, stage: &str) -> u64 {
        TelemetrySnapshot::exemplar_for(self, stage)
    }
}

/// The pure rule-evaluation state machine: rules in, snapshots in on a
/// cadence, alert edges out.
#[derive(Debug, Clone, Default)]
pub struct SloEngine {
    rules: Vec<(SloRule, RuleState)>,
}

impl SloEngine {
    /// Engine over a fixed rule set.
    pub fn new(rules: Vec<SloRule>) -> SloEngine {
        SloEngine { rules: rules.into_iter().map(|r| (r, RuleState::default())).collect() }
    }

    /// Evaluate every rule against a snapshot, returning the transitions
    /// (edges only — a rule that stays breached or stays healthy is silent).
    pub fn evaluate(&mut self, snap: &impl Signals) -> Vec<AlertTransition> {
        let mut out = Vec::new();
        for (rule, state) in &mut self.rules {
            let mut exemplar = 0u64;
            let value = match &rule.signal {
                SloSignal::StageP99 { stage } => match snap.stage(stage) {
                    Some(cur) => {
                        exemplar = snap.exemplar_for(stage);
                        let window = cur.diff(&state.prev_stage);
                        state.prev_stage.clone_from(cur);
                        if window.count() == 0 {
                            0.0
                        } else {
                            window.p99() as f64
                        }
                    }
                    None => 0.0,
                },
                SloSignal::ErrorRatio { errors, total } => {
                    let t = snap.counter(total);
                    if t > 0.0 {
                        snap.counter(errors) / t
                    } else {
                        0.0
                    }
                }
                SloSignal::Gauge { key } => snap.gauge(key),
                SloSignal::BurnRate { errors, total, short, long } => {
                    state.samples.push_back((snap.counter(errors), snap.counter(total)));
                    while state.samples.len() > long + 1 {
                        state.samples.pop_front();
                    }
                    let rate = |window: usize, samples: &VecDeque<(f64, f64)>| -> f64 {
                        let newest = samples.len() - 1;
                        let base = newest.saturating_sub(window);
                        let (e0, t0) = samples[base];
                        let (e1, t1) = samples[newest];
                        let dt = t1 - t0;
                        if dt > 0.0 {
                            (e1 - e0) / dt
                        } else {
                            0.0
                        }
                    };
                    f64::min(rate(*short, &state.samples), rate(*long, &state.samples))
                }
            };
            state.evaluations += 1;
            state.last_value = value;
            // Hysteresis: an open breach only resolves below resolve_limit.
            let breach = if state.breached {
                value > rule.resolve_limit
            } else {
                value > rule.limit
            };
            if breach != state.breached {
                state.breached = breach;
                if breach {
                    state.fired += 1;
                } else {
                    state.resolved += 1;
                }
                out.push(AlertTransition {
                    rule: rule.name.clone(),
                    fired: breach,
                    value,
                    limit: rule.limit,
                    exemplar: if breach { exemplar } else { 0 },
                });
            }
        }
        out
    }

    /// Per-rule outcome digests, in rule order.
    pub fn reports(&self) -> Vec<SloReport> {
        self.rules
            .iter()
            .map(|(r, s)| SloReport {
                name: r.name.clone(),
                limit: r.limit,
                evaluations: s.evaluations,
                fired: s.fired,
                resolved: s.resolved,
                breached: s.breached,
                last_value: s.last_value,
            })
            .collect()
    }

    /// Rules currently breached (fired and unresolved).
    pub fn breached(&self) -> usize {
        self.rules.iter().filter(|(_, s)| s.breached).count()
    }
}

/// The open alert episodes of one rule set, and the one place an alert edge
/// becomes observable: a fired edge mints the episode's trace and opens its
/// `slo.alert` span, a resolved edge closes them, and either way the edge
/// bumps its counter, lands in the obs alert timeline and pages.
#[derive(Debug)]
pub(crate) struct AlertEpisodes {
    /// Counters bumped per fired and per resolved edge.
    fired_key: &'static str,
    resolved_key: &'static str,
    /// rule name → (episode trace id, open `slo.alert` span id).
    open: HashMap<String, (u64, u32)>,
}

impl AlertEpisodes {
    pub(crate) fn new(fired_key: &'static str, resolved_key: &'static str) -> AlertEpisodes {
        AlertEpisodes { fired_key, resolved_key, open: HashMap::new() }
    }

    /// Emit `transitions` of `instance`'s rules, paging `pager` if set.
    pub(crate) fn emit(
        &mut self,
        ctx: &mut Ctx<'_>,
        transitions: Vec<AlertTransition>,
        instance: &str,
        pager: Option<NodeId>,
    ) {
        for tr in transitions {
            if tr.fired {
                let trace = ctx.obs_new_trace();
                let span = ctx.span_begin(trace, 0, "slo.alert");
                ctx.metrics().bump(self.fired_key, 1.0);
                ctx.obs_alert(&tr.rule, instance, true, tr.value, tr.limit, trace, tr.exemplar);
                if let Some(pager) = pager {
                    ctx.send(
                        pager,
                        page_fire(&tr.rule, instance, tr.value, tr.limit, trace, tr.exemplar),
                    );
                }
                self.open.insert(tr.rule, (trace, span));
            } else {
                let (trace, span) = self.open.remove(&tr.rule).unwrap_or((0, 0));
                ctx.span_end(span);
                ctx.metrics().bump(self.resolved_key, 1.0);
                ctx.obs_alert(&tr.rule, instance, false, tr.value, tr.limit, trace, 0);
                if let Some(pager) = pager {
                    ctx.send(pager, page_resolve(&tr.rule, instance));
                }
            }
        }
    }
}

/// Per-request retransmission timeout for monitor probes and scrapes.
const MONITOR_RTO: SimDuration = SimDuration::from_secs(2);

/// Monitor configuration.
#[derive(Debug, Clone)]
pub struct MonitorSpec {
    /// Scrape interval.
    pub cadence: SimDuration,
    /// Total scrape rounds — bounded, so simulations always drain.
    pub rounds: u32,
    /// The rule set every target is evaluated against.
    pub rules: Vec<SloRule>,
}

impl Default for MonitorSpec {
    fn default() -> MonitorSpec {
        MonitorSpec { cadence: SimDuration::from_secs(5), rounds: 6, rules: Vec::new() }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Probe {
    Health,
    Metrics,
}

#[derive(Debug)]
struct TargetState {
    node: NodeId,
    instance: String,
    engine: SloEngine,
    /// Cumulative scrape-RTT histogram (the engine windows it by diffing).
    rtt: Histogram,
    consecutive_failures: f64,
    /// When the last successful `/metrics` scrape of this target landed.
    last_ok: Option<SimTime>,
    /// The target's telemetry and epoch as of its last scrape.
    held: HeldSnapshot,
    alerts: AlertEpisodes,
}

/// A target as its rules see it: the held snapshot under the monitor's
/// synthetic probe-failure and staleness gauges and scrape-RTT stage, which
/// shadow any scraped series of the same name.
struct Observed<'a> {
    snap: &'a TelemetrySnapshot,
    probe_failures: f64,
    staleness: f64,
    rtt: &'a Histogram,
}

impl Signals for Observed<'_> {
    fn counter(&self, key: &str) -> f64 {
        self.snap.counter(key)
    }

    fn gauge(&self, key: &str) -> f64 {
        match key {
            KEY_PROBE_FAILURES => self.probe_failures,
            KEY_SCRAPE_STALENESS => self.staleness,
            _ => self.snap.gauge(key),
        }
    }

    fn stage(&self, name: &str) -> Option<&Histogram> {
        if name == STAGE_SCRAPE_RTT {
            Some(self.rtt)
        } else {
            self.snap.stage(name)
        }
    }

    fn exemplar_for(&self, stage: &str) -> u64 {
        self.snap.exemplar_for(stage)
    }
}

/// Timer tag for the scrape cadence (a node-private tag, below every
/// retransmission engine's).
const TAG_SCRAPE: u64 = 1;

/// The scraping monitor node. See the module docs for the protocol.
///
/// Besides scraping, a monitor *serves* `GET /metrics` itself: its cell view
/// is its own metrics merged with every target's last snapshot (plus the
/// synthetic probe/staleness/RTT signals), so a fleet-level
/// [`FederationScraper`](crate::federation::FederationScraper) can federate
/// cells through their monitors with one WAN fan-in link per cell.
#[derive(Debug)]
pub struct SloMonitor {
    spec: MonitorSpec,
    /// Instance label of this monitor's own exposition (cell view).
    instance: String,
    /// Paging gateway the monitor notifies on alert edges, if any.
    pager: Option<NodeId>,
    targets: Vec<TargetState>,
    /// Each probe carries its target index, which probe it is and its
    /// first transmission's time.
    http: HttpClient<(usize, Probe, SimTime)>,
    round: u32,
    /// Delta state over the served cell view (minus the staleness gauge,
    /// which is a function of `now` and is appended to each reply).
    serve_delta: DeltaState,
    /// Pooled render buffer for served scrapes.
    body: String,
    /// Successful `/metrics` scrapes.
    pub scrapes_ok: u64,
    /// Probes that exhausted their retries.
    pub probe_failures: u64,
    /// Epoch-gap resyncs: deltas discarded for a base we no longer hold,
    /// answered by an immediate full refetch.
    pub resyncs: u64,
}

impl SloMonitor {
    /// Monitor over `(target node, instance name)` pairs.
    pub fn new(spec: MonitorSpec, targets: Vec<(NodeId, String)>) -> SloMonitor {
        let targets = targets
            .into_iter()
            .map(|(node, instance)| TargetState {
                node,
                instance,
                engine: SloEngine::new(spec.rules.clone()),
                rtt: Histogram::new(),
                consecutive_failures: 0.0,
                last_ok: None,
                held: HeldSnapshot::new(),
                alerts: AlertEpisodes::new("slo.alerts_fired", "slo.alerts_resolved"),
            })
            .collect();
        SloMonitor {
            spec,
            instance: "monitor".to_owned(),
            pager: None,
            targets,
            http: HttpClient::new(MONITOR_RTO, SCRAPE_RETRIES),
            round: 0,
            serve_delta: DeltaState::new(),
            body: String::new(),
            scrapes_ok: 0,
            probe_failures: 0,
            resyncs: 0,
        }
    }

    /// Set the instance label of the monitor's own cell-view exposition.
    pub fn with_instance(mut self, instance: impl Into<String>) -> SloMonitor {
        self.instance = instance.into();
        self
    }

    /// Notify a [`PagingGateway`](crate::paging::PagingGateway) on every
    /// alert edge.
    pub fn with_pager(mut self, pager: NodeId) -> SloMonitor {
        self.pager = Some(pager);
        self
    }

    /// Per-target rule reports: `(instance, reports)` in target order.
    pub fn reports(&self) -> Vec<(String, Vec<SloReport>)> {
        self.targets.iter().map(|t| (t.instance.clone(), t.engine.reports())).collect()
    }

    /// Rules currently breached across all targets.
    pub fn breached(&self) -> usize {
        self.targets.iter().map(|t| t.engine.breached()).sum()
    }

    /// Staleness of one target at `now`: microseconds since its last
    /// successful scrape, or sim time itself before the first one lands.
    fn staleness(t: &TargetState, now: SimTime) -> f64 {
        t.last_ok.map_or(now.0, |ok| now.since(ok).0) as f64
    }

    /// The cell view the monitor serves at `GET /metrics`, minus the
    /// staleness gauge (a function of `now`, appended to each reply): its
    /// own metrics merged with every target's held snapshot plus the
    /// synthetic probe-failure gauge and scrape-RTT stage, in target order.
    /// The `sim.queue_depth` gauge is stripped — it reads a *shard's* event
    /// queue, which depends on how the fleet is partitioned, and federated
    /// rollups must be byte-identical across shard counts.
    fn cell_view(&self, ctx: &mut Ctx<'_>) -> TelemetrySnapshot {
        let mut view = TelemetrySnapshot::capture(ctx.metrics(), &[]);
        for t in &self.targets {
            merge_snapshot(&mut view, t.held.snapshot());
            add_scalar(&mut view.gauges, KEY_PROBE_FAILURES, t.consecutive_failures);
            merge_stage(&mut view.stages, STAGE_SCRAPE_RTT, &t.rtt);
        }
        view.gauges.retain(|(k, _)| k != KEY_QUEUE_DEPTH && k != KEY_SCRAPE_STALENESS);
        view
    }

    fn evaluate_target(&mut self, ctx: &mut Ctx<'_>, tidx: usize) {
        let now = ctx.now();
        let t = &mut self.targets[tidx];
        let staleness = Self::staleness(t, now);
        let observed = Observed {
            snap: t.held.snapshot(),
            probe_failures: t.consecutive_failures,
            staleness,
            rtt: &t.rtt,
        };
        let transitions = t.engine.evaluate(&observed);
        ctx.metrics().bump("slo.evaluations", 1.0);
        t.alerts.emit(ctx, transitions, &t.instance, self.pager);
    }

    fn scrape_all(&mut self, ctx: &mut Ctx<'_>) {
        let full_round = (self.round - 1).is_multiple_of(RESYNC_EVERY);
        for tidx in 0..self.targets.len() {
            let node = self.targets[tidx].node;
            let now = ctx.now();
            let health = HttpRequest::new("GET", PATH_HEALTHZ, Vec::new());
            self.http.send(ctx, node, health, (tidx, Probe::Health, now));
            let since = if full_round { None } else { self.targets[tidx].held.epoch() };
            self.http.send(ctx, node, scrape_request(since), (tidx, Probe::Metrics, now));
        }
    }
}

impl Node for SloMonitor {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.spec.rounds > 0 && !self.targets.is_empty() {
            ctx.set_timer(self.spec.cadence, TAG_SCRAPE);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        // Serve the cell view: the monitor is itself a federation target.
        if let Some(req) = HttpRequest::from_message(&msg) {
            let (path, since) = parse_since(&req.path);
            if req.method == "GET" && path == PATH_METRICS {
                // Every scrape re-observes the view: this request's delivery
                // has already moved the monitor's own counters. The
                // staleness gauge is a function of `now`, so it is appended
                // to the rendered view rather than diffed with it.
                let view = self.cell_view(ctx);
                self.serve_delta.observe(&view);
                self.serve_delta.render_into(&self.instance, since, &mut self.body);
                let now = ctx.now();
                let max_staleness =
                    self.targets.iter().map(|t| Self::staleness(t, now)).fold(0.0, f64::max);
                self.serve_delta.push_gauge_head(
                    &mut self.body,
                    "pdagent_scrape_staleness_max",
                    KEY_SCRAPE_STALENESS,
                );
                write_value(&mut self.body, max_staleness);
                self.body.push('\n');
                ctx.metrics().bump("telemetry.scrapes", 1.0);
                http::reply(ctx, from, &req, HttpStatus::Ok, self.body.as_bytes());
            } else if req.method == "GET" && path == PATH_HEALTHZ {
                ctx.metrics().bump("telemetry.probes", 1.0);
                http::reply(ctx, from, &req, HttpStatus::Ok, b"ok");
            } else {
                http::reply(ctx, from, &req, HttpStatus::NotFound, Vec::new());
            }
            return;
        }
        let Some((resp, (tidx, probe, sent))) = self.http.on_response(ctx, &msg) else { return };
        let rtt = ctx.now().since(sent);
        match probe {
            Probe::Health => {
                if resp.status.is_success() {
                    self.targets[tidx].consecutive_failures = 0.0;
                }
            }
            Probe::Metrics => {
                if resp.status.is_success() {
                    if let Ok(text) = std::str::from_utf8(&resp.body) {
                        let t = &mut self.targets[tidx];
                        match t.held.apply(text) {
                            Ingested::Gap => {
                                // A delta against a base we no longer hold:
                                // count the resync and refetch the full
                                // snapshot under the same probe slot.
                                self.resyncs += 1;
                                ctx.metrics().bump("slo.resyncs", 1.0);
                                let probe = (tidx, Probe::Metrics, sent);
                                self.http.send(ctx, t.node, scrape_request(None), probe);
                                return;
                            }
                            // The chaos suite's monotone-epochs invariant
                            // reads this counter.
                            Ingested::Full { regressed } | Ingested::Delta { regressed } => {
                                if regressed {
                                    ctx.metrics().bump("slo.epoch_regressions", 1.0);
                                }
                            }
                        }
                        t.last_ok = Some(ctx.now());
                        self.scrapes_ok += 1;
                        ctx.metrics().bump("slo.scrapes_ok", 1.0);
                    }
                }
                self.targets[tidx].rtt.record(rtt.0);
                self.evaluate_target(ctx, tidx);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if let Some((tidx, _, _)) = self.http.on_timer(ctx, tag) {
            self.targets[tidx].consecutive_failures += 1.0;
            self.probe_failures += 1;
            ctx.metrics().bump("slo.probe_failures", 1.0);
            self.evaluate_target(ctx, tidx);
        } else if tag == TAG_SCRAPE {
            self.round += 1;
            self.scrape_all(ctx);
            if self.round < self.spec.rounds {
                ctx.set_timer(self.spec.cadence, TAG_SCRAPE);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap_with(
        counters: &[(&str, f64)],
        gauges: &[(&str, f64)],
        stages: Vec<(String, Histogram)>,
    ) -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot {
            counters: counters.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
            gauges: gauges.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
            stages,
            exemplars: Vec::new(),
        };
        s.counters.sort_by(|a, b| a.0.cmp(&b.0));
        s.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        s.stages.sort_by(|a, b| a.0.cmp(&b.0));
        s
    }

    /// Scrapes one node's full `GET /metrics` at each of `at`, keeping the
    /// bodies.
    struct Scraper {
        target: NodeId,
        at: Vec<SimDuration>,
        http: HttpClient,
        bodies: Vec<TelemetrySnapshot>,
    }

    impl Node for Scraper {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (tag, &at) in self.at.iter().enumerate() {
                ctx.set_timer(at, tag as u64);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
            if let Some((resp, ())) = self.http.on_response(ctx, &msg) {
                let text = std::str::from_utf8(&resp.body).expect("UTF-8 body");
                self.bodies.push(crate::telemetry::parse_prom(text));
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
            if self.http.on_timer(ctx, tag).is_none() && tag < self.at.len() as u64 {
                self.http.send(ctx, self.target, scrape_request(None), ());
            }
        }
    }

    // A cell monitor scraped after its last round still serves its own live
    // counters: each scrape's delivery moves them, so the view differs
    // every time.
    #[test]
    fn monitor_serves_its_current_counters_after_its_last_round() {
        use crate::link::LinkSpec;
        use crate::sim::Simulator;
        let mut sim = Simulator::new(3);
        let target = sim.add_node(Box::new(SloMonitor::new(MonitorSpec::default(), vec![])));
        let spec = MonitorSpec { cadence: SimDuration::from_secs(1), rounds: 1, rules: vec![] };
        let monitor =
            sim.add_node(Box::new(SloMonitor::new(spec, vec![(target, "target".to_owned())])));
        let at = vec![SimDuration::from_secs(10), SimDuration::from_secs(20)];
        let scraper = sim.add_node(Box::new(Scraper {
            target: monitor,
            at,
            http: HttpClient::default(),
            bodies: Vec::new(),
        }));
        sim.connect(monitor, target, LinkSpec::lan());
        sim.connect(scraper, monitor, LinkSpec::lan());
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<SloMonitor>(monitor).unwrap().scrapes_ok, 1);
        let bodies = &sim.node_ref::<Scraper>(scraper).unwrap().bodies;
        assert_eq!(bodies.len(), 2);
        let (first, second) = (&bodies[0], &bodies[1]);
        assert!(
            second.counter("msgs_received") > first.counter("msgs_received"),
            "the second scrape served a frozen view: {first:?} then {second:?}"
        );
        assert_eq!(second.counter("telemetry.scrapes"), first.counter("telemetry.scrapes") + 1.0);
    }

    #[test]
    fn gauge_rule_fires_and_resolves_on_edges() {
        let mut eng = SloEngine::new(vec![SloRule::gauge("replay-occupancy", "replay", 10.0)]);
        assert!(eng.evaluate(&snap_with(&[], &[("replay", 5.0)], vec![])).is_empty());
        let tr = eng.evaluate(&snap_with(&[], &[("replay", 11.0)], vec![]));
        assert_eq!(tr.len(), 1);
        assert!(tr[0].fired);
        assert_eq!(tr[0].value, 11.0);
        // Staying breached is silent.
        assert!(eng.evaluate(&snap_with(&[], &[("replay", 12.0)], vec![])).is_empty());
        let tr = eng.evaluate(&snap_with(&[], &[("replay", 3.0)], vec![]));
        assert_eq!(tr.len(), 1);
        assert!(!tr[0].fired);
        let rep = &eng.reports()[0];
        assert_eq!((rep.fired, rep.resolved, rep.breached), (1, 1, false));
        assert_eq!(rep.evaluations, 4);
    }

    #[test]
    fn error_ratio_is_cumulative_and_zero_safe() {
        let mut eng = SloEngine::new(vec![SloRule::error_ratio("err", "fail", "all", 0.1)]);
        // No attempts yet: healthy.
        assert!(eng.evaluate(&snap_with(&[("all", 0.0), ("fail", 0.0)], &[], vec![])).is_empty());
        let tr = eng.evaluate(&snap_with(&[("all", 10.0), ("fail", 5.0)], &[], vec![]));
        assert!(tr[0].fired && tr[0].value == 0.5);
    }

    #[test]
    fn stage_p99_windows_between_evaluations() {
        let mut eng = SloEngine::new(vec![SloRule::p99("lat", "rtt", 1000.0)]);
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(100); // all fast
        }
        assert!(eng.evaluate(&snap_with(&[], &[], vec![("rtt".to_owned(), h.clone())])).is_empty());
        // One slow sample lands in the next window: windowed p99 sees only it.
        h.record(1_000_000);
        let tr = eng.evaluate(&snap_with(&[], &[], vec![("rtt".to_owned(), h.clone())]));
        assert_eq!(tr.len(), 1, "windowed p99 must catch the regression the cumulative p99 hides");
        assert!(tr[0].fired);
        // An empty window resolves.
        let tr = eng.evaluate(&snap_with(&[], &[], vec![("rtt".to_owned(), h.clone())]));
        assert!(!tr[0].fired);
    }

    #[test]
    fn burn_rate_needs_both_windows_hot() {
        let mut eng = SloEngine::new(vec![SloRule::burn_rate("burn", "fail", "all", 1, 3, 0.5)]);
        // Warm-up: no errors.
        for i in 0..4 {
            let t = 10.0 * (i + 1) as f64;
            assert!(eng
                .evaluate(&snap_with(&[("all", t), ("fail", 0.0)], &[], vec![]))
                .is_empty());
        }
        // A single hot cadence: short window burns, long window still cold.
        let tr = eng.evaluate(&snap_with(&[("all", 50.0), ("fail", 9.0)], &[], vec![]));
        assert!(tr.is_empty(), "one bad cadence must not page");
        // Sustained burn: both windows hot.
        let tr = eng.evaluate(&snap_with(&[("all", 60.0), ("fail", 18.0)], &[], vec![]));
        let tr2 = eng.evaluate(&snap_with(&[("all", 70.0), ("fail", 27.0)], &[], vec![]));
        assert!(
            tr.iter().chain(tr2.iter()).any(|t| t.fired),
            "sustained burn must fire: {tr:?} {tr2:?}"
        );
    }

    #[test]
    fn engine_is_deterministic() {
        let rules = || {
            vec![
                SloRule::gauge("g", "x", 1.0),
                SloRule::error_ratio("e", "f", "t", 0.5),
            ]
        };
        let feed = |eng: &mut SloEngine| {
            let mut edges = Vec::new();
            for i in 0..10 {
                let v = (i % 3) as f64;
                edges.extend(eng.evaluate(&snap_with(
                    &[("f", v), ("t", 2.0 * (i + 1) as f64)],
                    &[("x", v)],
                    vec![],
                )));
            }
            edges
        };
        let mut a = SloEngine::new(rules());
        let mut b = SloEngine::new(rules());
        assert_eq!(feed(&mut a), feed(&mut b));
        assert_eq!(a.reports(), b.reports());
    }
}
