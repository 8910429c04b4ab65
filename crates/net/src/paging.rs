//! Alert routing: the paging gateway, route policies and page receivers.
//!
//! Alert edges from the SLO engines ([`crate::slo`], [`crate::federation`])
//! land in the obs collector and the flight recorder, but ROADMAP's open
//! item wants the *notification path itself* to be simulable: pages are
//! messages with their own delivery SLO, and escalation policy is a protocol
//! you can get wrong. This module models that path:
//!
//! * Alert sources send [`page_fire`]/[`page_resolve`] messages to a
//!   [`PagingGateway`] node over ordinary simulated links.
//! * The gateway dedups by `(rule, instance)` key, classifies the rule's
//!   severity via a declarative [`RoutePolicy`], and delivers a
//!   `page.deliver` message to the route's primary [`PageReceiver`], with
//!   retry/backoff until the receiver acks.
//! * Unacked pages escalate after [`ESCALATE_AFTER`] unacked ticks to the
//!   route's escalation receiver; pages that exhaust every attempt are
//!   *dropped* — the one counter a healthy fleet must keep at zero
//!   (`scripts/bench_diff.sh` gates on it).
//!
//! Every page episode is a `page.deliver` span on the alert's trace (so
//! fire→ack latency lands in the stage histograms and the flight recorder),
//! and the gateway counts `page.delivered` / `page.escalated` /
//! `page.dropped` / `page.deduped` in its metrics. All timers are bounded —
//! a page is delivered at most [`MAX_ATTEMPTS`] times per target and ticks at
//! most [`ESCALATE_AFTER`] times — so simulations always drain.

use std::collections::HashMap;

use pdagent_codec::varint;

use crate::http::HttpRequest;
use crate::message::Message;
use crate::obs::Histogram;
use crate::sim::{Ctx, Node, NodeId};
use crate::telemetry::TelemetryServer;
use crate::time::{SimDuration, SimTime};

/// Message kind of an alert-edge notification (source → gateway).
pub const KIND_PAGE_FIRE: &str = "page.fire";
/// Message kind of an alert-resolved notification (source → gateway).
pub const KIND_PAGE_RESOLVE: &str = "page.resolve";
/// Message kind of a page delivery (gateway → receiver).
pub const KIND_PAGE_DELIVER: &str = "page.deliver";
/// Message kind of a page acknowledgement (receiver → gateway).
pub const KIND_PAGE_ACK: &str = "page.ack";

/// Unacked escalation ticks before a route's escalation receiver is paged.
const ESCALATE_AFTER: u32 = 2;
/// Delivery attempts per receiver before giving up on it.
const MAX_ATTEMPTS: u32 = 3;

/// Page severity, routed independently by [`RoutePolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Wake somebody up.
    Critical,
    /// Page during business hours.
    Major,
    /// Ticket-only.
    Minor,
}

/// One severity's delivery route.
#[derive(Debug, Clone)]
pub struct Route {
    /// The severity this route serves.
    pub severity: Severity,
    /// Primary on-call receiver.
    pub target: NodeId,
    /// Escalation receiver, tried after [`ESCALATE_AFTER`] unacked ticks.
    pub escalation: Option<NodeId>,
    /// Initial retry backoff; doubles per attempt.
    pub backoff: SimDuration,
}

impl Route {
    /// A route with a 30 s initial backoff and no escalation receiver.
    pub fn new(severity: Severity, target: NodeId) -> Route {
        Route {
            severity,
            target,
            escalation: None,
            backoff: SimDuration::from_secs(30),
        }
    }

    /// Attach an escalation receiver (builder-style).
    pub fn with_escalation(mut self, node: NodeId) -> Route {
        self.escalation = Some(node);
        self
    }
}

/// Declarative alert routing: rule-name prefixes map to severities, each
/// severity to a [`Route`]. Rules matching no prefix get `default_severity`;
/// severities with no route are dropped (counted, never silently).
#[derive(Debug, Clone)]
pub struct RoutePolicy {
    /// `(rule-name prefix, severity)` — first match wins.
    pub severities: Vec<(String, Severity)>,
    /// Severity for rules matching no prefix.
    pub default_severity: Severity,
    /// One route per severity (first match wins).
    pub routes: Vec<Route>,
    /// Escalation tick interval.
    pub tick: SimDuration,
}

impl RoutePolicy {
    /// A policy routing every rule at `default_severity` through `routes`.
    pub fn new(routes: Vec<Route>) -> RoutePolicy {
        RoutePolicy {
            severities: Vec::new(),
            default_severity: Severity::Critical,
            routes,
            tick: SimDuration::from_secs(60),
        }
    }

    /// Map a rule name to its severity.
    pub fn classify(&self, rule: &str) -> Severity {
        self.severities
            .iter()
            .find(|(prefix, _)| rule.starts_with(prefix.as_str()))
            .map(|(_, s)| *s)
            .unwrap_or(self.default_severity)
    }
}

/// Build the alert-fired notification an SLO engine host sends its pager.
/// Floats travel as raw bits, so the page carries the exact observed value.
/// `exemplar` is the offending trace id behind the breached signal (0 =
/// none) — it rides the page all the way to the on-call's hand.
pub fn page_fire(
    rule: &str,
    instance: &str,
    value: f64,
    limit: f64,
    trace: u64,
    exemplar: u64,
) -> Message {
    let mut body = Vec::with_capacity(rule.len() + instance.len() + 40);
    varint::write_str(&mut body, rule);
    varint::write_str(&mut body, instance);
    varint::write_u64(&mut body, value.to_bits());
    varint::write_u64(&mut body, limit.to_bits());
    varint::write_u64(&mut body, trace);
    varint::write_u64(&mut body, exemplar);
    Message::new(KIND_PAGE_FIRE, body)
}

/// Build the alert-resolved notification.
pub fn page_resolve(rule: &str, instance: &str) -> Message {
    let mut body = Vec::with_capacity(rule.len() + instance.len() + 8);
    varint::write_str(&mut body, rule);
    varint::write_str(&mut body, instance);
    Message::new(KIND_PAGE_RESOLVE, body)
}

/// A delivered page, as a receiver decodes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageDelivery {
    /// Gateway-assigned page id (echo it in the ack).
    pub id: u64,
    /// True when this delivery went to the escalation receiver.
    pub escalated: bool,
    /// Rule that fired.
    pub rule: String,
    /// Instance the rule fired for.
    pub instance: String,
    /// Exemplar trace id behind the breached signal (0 = none) — resolvable
    /// against the cell's `/traces` query plane.
    pub exemplar: u64,
}

/// Decode a `page.deliver` message (receiver side).
pub fn parse_delivery(msg: &Message) -> Option<PageDelivery> {
    if msg.kind != KIND_PAGE_DELIVER {
        return None;
    }
    let mut pos = 0;
    let id = varint::read_u64(&msg.body, &mut pos).ok()?;
    let escalated = varint::read_u64(&msg.body, &mut pos).ok()? != 0;
    let rule = varint::read_str(&msg.body, &mut pos).ok()?.to_owned();
    let instance = varint::read_str(&msg.body, &mut pos).ok()?.to_owned();
    let exemplar = varint::read_u64(&msg.body, &mut pos).unwrap_or(0);
    Some(PageDelivery { id, escalated, rule, instance, exemplar })
}

/// Build the acknowledgement for a delivered page.
pub fn page_ack(id: u64) -> Message {
    let mut body = Vec::with_capacity(8);
    varint::write_u64(&mut body, id);
    Message::new(KIND_PAGE_ACK, body)
}

fn parse_fire(msg: &Message) -> Option<(String, String, f64, f64, u64, u64)> {
    let mut pos = 0;
    let rule = varint::read_str(&msg.body, &mut pos).ok()?.to_owned();
    let instance = varint::read_str(&msg.body, &mut pos).ok()?.to_owned();
    let value = f64::from_bits(varint::read_u64(&msg.body, &mut pos).ok()?);
    let limit = f64::from_bits(varint::read_u64(&msg.body, &mut pos).ok()?);
    let trace = varint::read_u64(&msg.body, &mut pos).ok()?;
    let exemplar = varint::read_u64(&msg.body, &mut pos).unwrap_or(0);
    Some((rule, instance, value, limit, trace, exemplar))
}

fn parse_resolve(msg: &Message) -> Option<(String, String)> {
    let mut pos = 0;
    let rule = varint::read_str(&msg.body, &mut pos).ok()?;
    let instance = varint::read_str(&msg.body, &mut pos).ok()?;
    Some((rule.to_owned(), instance.to_owned()))
}

/// One open page episode.
#[derive(Debug)]
struct PageState {
    id: u64,
    rule: String,
    instance: String,
    trace: u64,
    exemplar: u64,
    fired_at: SimTime,
    /// Attempts against the *current* receiver (reset on escalation).
    attempts: u32,
    unacked_ticks: u32,
    escalated: bool,
    span: u32,
    route: usize,
}

/// Aggregate paging outcome for reports.
#[derive(Debug, Clone)]
pub struct PagingReport {
    /// Pages opened (deduped fires excluded).
    pub fired: u64,
    /// Pages acknowledged by a receiver.
    pub delivered: u64,
    /// Pages escalated past the primary receiver.
    pub escalated: u64,
    /// Pages that exhausted every receiver — must be zero in a healthy run.
    pub dropped: u64,
    /// Fires suppressed by an already-open page with the same dedup key.
    pub deduped: u64,
    /// Pages closed by an alert-resolved edge before any ack.
    pub resolved: u64,
    /// Fire→ack latency histogram (µs).
    pub delivery: Histogram,
}

/// The paging gateway node. See the module docs for the protocol.
#[derive(Debug)]
pub struct PagingGateway {
    policy: RoutePolicy,
    /// dedup key (`rule\x1finstance`) → open page.
    open: HashMap<String, PageState>,
    /// page id → dedup key.
    by_id: HashMap<u64, String>,
    next_id: u64,
    /// Pages opened.
    pub fired: u64,
    /// Pages acked.
    pub delivered: u64,
    /// Pages escalated.
    pub escalated: u64,
    /// Pages that exhausted every receiver.
    pub dropped: u64,
    /// Duplicate fires suppressed.
    pub deduped: u64,
    /// Pages closed by a resolve edge before any ack.
    pub resolved: u64,
    /// Fire→ack latency (µs).
    pub delivery: Histogram,
    /// Delta-capable `/metrics` server — the gateway is a scrape target like
    /// any other node, so the notification path's own delivery SLO
    /// (`page.deliver` stage latency, `page.*` counters) can be monitored.
    telemetry: TelemetryServer,
    /// Instance label for the served exposition.
    instance: String,
}

fn dedup_key(rule: &str, instance: &str) -> String {
    format!("{rule}\x1f{instance}")
}

impl PagingGateway {
    /// Gateway applying `policy`.
    pub fn new(policy: RoutePolicy) -> PagingGateway {
        PagingGateway {
            policy,
            open: HashMap::new(),
            by_id: HashMap::new(),
            next_id: 1,
            fired: 0,
            delivered: 0,
            escalated: 0,
            dropped: 0,
            deduped: 0,
            resolved: 0,
            delivery: Histogram::new(),
            telemetry: TelemetryServer::new(),
            instance: "pager".to_owned(),
        }
    }

    /// Instance label for the served `/metrics` exposition (builder-style;
    /// defaults to `"pager"`).
    pub fn with_instance(mut self, instance: &str) -> PagingGateway {
        self.instance = instance.to_owned();
        self
    }

    /// Aggregate outcome for reports.
    pub fn report(&self) -> PagingReport {
        PagingReport {
            fired: self.fired,
            delivered: self.delivered,
            escalated: self.escalated,
            dropped: self.dropped,
            deduped: self.deduped,
            resolved: self.resolved,
            delivery: self.delivery.clone(),
        }
    }

    /// Pages currently open (unacked, undropped).
    pub fn open_pages(&self) -> usize {
        self.open.len()
    }

    fn deliver(&self, ctx: &mut Ctx<'_>, page: &PageState) {
        let route = &self.policy.routes[page.route];
        let to = if page.escalated {
            route.escalation.expect("escalated page has an escalation receiver")
        } else {
            route.target
        };
        let mut body = Vec::with_capacity(page.rule.len() + page.instance.len() + 24);
        varint::write_u64(&mut body, page.id);
        varint::write_u64(&mut body, u64::from(page.escalated));
        varint::write_str(&mut body, &page.rule);
        varint::write_str(&mut body, &page.instance);
        varint::write_u64(&mut body, page.exemplar);
        ctx.send(to, Message::new(KIND_PAGE_DELIVER, body));
        ctx.metrics().bump("page.sent", 1.0);
    }

    fn close(&mut self, key: &str) {
        if let Some(page) = self.open.remove(key) {
            self.by_id.remove(&page.id);
        }
    }

    fn on_fire(&mut self, ctx: &mut Ctx<'_>, msg: &Message) {
        let Some((rule, instance, _value, _limit, trace, exemplar)) = parse_fire(msg) else {
            return;
        };
        let key = dedup_key(&rule, &instance);
        if self.open.contains_key(&key) {
            self.deduped += 1;
            ctx.metrics().bump("page.deduped", 1.0);
            return;
        }
        let severity = self.policy.classify(&rule);
        let Some(route_idx) = self.policy.routes.iter().position(|r| r.severity == severity)
        else {
            // No route for this severity: the page has nowhere to go.
            self.dropped += 1;
            ctx.metrics().bump("page.dropped", 1.0);
            return;
        };
        let id = self.next_id;
        self.next_id += 1;
        let span = ctx.span_begin(trace, 0, "page.deliver");
        let page = PageState {
            id,
            rule,
            instance,
            trace,
            exemplar,
            fired_at: ctx.now(),
            attempts: 1,
            unacked_ticks: 0,
            escalated: false,
            span,
            route: route_idx,
        };
        self.fired += 1;
        ctx.metrics().bump("page.fired", 1.0);
        self.deliver(ctx, &page);
        let route = &self.policy.routes[route_idx];
        ctx.set_timer(route.backoff, id * 2);
        ctx.set_timer(self.policy.tick, id * 2 + 1);
        self.by_id.insert(id, key.clone());
        self.open.insert(key, page);
    }

    fn on_resolve(&mut self, ctx: &mut Ctx<'_>, msg: &Message) {
        let Some((rule, instance)) = parse_resolve(msg) else { return };
        let key = dedup_key(&rule, &instance);
        if let Some(page) = self.open.get(&key) {
            ctx.span_end(page.span);
            self.resolved += 1;
            ctx.metrics().bump("page.resolved", 1.0);
            self.close(&key);
        }
    }

    fn on_ack(&mut self, ctx: &mut Ctx<'_>, msg: &Message) {
        let mut pos = 0;
        let Ok(id) = varint::read_u64(&msg.body, &mut pos) else { return };
        let Some(key) = self.by_id.get(&id).cloned() else { return };
        let Some(page) = self.open.get(&key) else { return };
        self.delivery.record(ctx.now().since(page.fired_at).0);
        ctx.span_end(page.span);
        self.delivered += 1;
        ctx.metrics().bump("page.delivered", 1.0);
        self.close(&key);
    }

    /// Retry timer for page `id`: re-deliver with doubled backoff, or — once
    /// attempts are exhausted — drop the page unless escalation is still
    /// ahead of it.
    fn on_retry(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        let Some(key) = self.by_id.get(&id).cloned() else { return };
        let Some(page) = self.open.get_mut(&key) else { return };
        let route = self.policy.routes[page.route].clone();
        if page.attempts >= MAX_ATTEMPTS {
            if !page.escalated && route.escalation.is_some() {
                // Primary exhausted; hold the page for the escalation tick.
                ctx.metrics().bump("page.exhausted", 1.0);
                return;
            }
            ctx.span_end(page.span);
            self.dropped += 1;
            ctx.metrics().bump("page.dropped", 1.0);
            self.close(&key);
            return;
        }
        page.attempts += 1;
        let backoff =
            SimDuration::from_micros(route.backoff.as_micros() << (page.attempts - 1).min(8));
        ctx.metrics().bump("page.retries", 1.0);
        let page = &self.open[&key];
        self.deliver(ctx, page);
        ctx.set_timer(backoff, id * 2);
    }

    /// Escalation tick for page `id`.
    fn on_tick(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        let Some(key) = self.by_id.get(&id).cloned() else { return };
        let Some(page) = self.open.get_mut(&key) else { return };
        if page.escalated {
            return;
        }
        page.unacked_ticks += 1;
        let route = self.policy.routes[page.route].clone();
        if page.unacked_ticks >= ESCALATE_AFTER {
            if route.escalation.is_some() {
                page.escalated = true;
                page.attempts = 1;
                let trace = page.trace;
                self.escalated += 1;
                ctx.metrics().bump("page.escalated", 1.0);
                let span = ctx.span_begin(trace, 0, "page.escalate");
                ctx.span_end(span);
                let page = &self.open[&key];
                self.deliver(ctx, page);
                ctx.set_timer(route.backoff, id * 2);
            } else {
                ctx.span_end(page.span);
                self.dropped += 1;
                ctx.metrics().bump("page.dropped", 1.0);
                self.close(&key);
            }
        } else {
            ctx.set_timer(self.policy.tick, id * 2 + 1);
        }
    }
}

impl Node for PagingGateway {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        // The gateway is a scrape target: a monitor probing the notification
        // path's own delivery SLO hits `/metrics`/`/healthz` here.
        if let Some(req) = HttpRequest::from_message(&msg) {
            let instance = std::mem::take(&mut self.instance);
            self.telemetry.serve(ctx, from, &req, &instance);
            self.instance = instance;
            return;
        }
        if msg.kind == KIND_PAGE_FIRE {
            self.on_fire(ctx, &msg);
        } else if msg.kind == KIND_PAGE_RESOLVE {
            self.on_resolve(ctx, &msg);
        } else if msg.kind == KIND_PAGE_ACK {
            self.on_ack(ctx, &msg);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        let id = tag / 2;
        if tag.is_multiple_of(2) {
            self.on_retry(ctx, id);
        } else {
            self.on_tick(ctx, id);
        }
    }
}

/// An on-call receiver: acks every delivered page after `ack_delay` (the
/// human pickup time), or never acks when `ack_delay` is `None` — the
/// sleeping-primary scenario escalation tests use.
#[derive(Debug)]
pub struct PageReceiver {
    /// Time from delivery to ack; `None` never acks.
    pub ack_delay: Option<SimDuration>,
    /// Pages received (escalated re-deliveries included).
    pub received: u64,
    /// Escalated deliveries received.
    pub received_escalated: u64,
    /// Deliveries that carried a nonzero exemplar trace id — the on-call's
    /// jump-off point into the `/traces` query plane.
    pub exemplar_pages: u64,
    /// page id → paging gateway awaiting the ack.
    pending: HashMap<u64, NodeId>,
}

impl PageReceiver {
    /// Receiver acking after `ack_delay` (`None` = never).
    pub fn new(ack_delay: Option<SimDuration>) -> PageReceiver {
        PageReceiver {
            ack_delay,
            received: 0,
            received_escalated: 0,
            exemplar_pages: 0,
            pending: HashMap::new(),
        }
    }
}

impl Node for PageReceiver {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        let Some(page) = parse_delivery(&msg) else { return };
        self.received += 1;
        if page.escalated {
            self.received_escalated += 1;
        }
        if page.exemplar != 0 {
            self.exemplar_pages += 1;
        }
        ctx.metrics().bump("pager.received", 1.0);
        if let Some(delay) = self.ack_delay {
            // Re-deliveries of the same page just re-arm nothing: one ack
            // per page id is enough, and acks for closed pages are ignored.
            if self.pending.insert(page.id, from).is_none() {
                ctx.set_timer(delay, page.id);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if let Some(gateway) = self.pending.remove(&tag) {
            ctx.send(gateway, page_ack(tag));
            ctx.metrics().bump("pager.acked", 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::sim::Simulator;

    #[test]
    fn page_codec_round_trips() {
        let fire = page_fire("burn", "gw-0", 1.5, 0.5, 42, 17);
        assert_eq!(parse_fire(&fire), Some(("burn".into(), "gw-0".into(), 1.5, 0.5, 42, 17)));
        let resolve = page_resolve("burn", "gw-0");
        assert_eq!(parse_resolve(&resolve), Some(("burn".into(), "gw-0".into())));
    }

    #[test]
    fn policy_classifies_by_prefix_with_default() {
        let mut policy = RoutePolicy::new(vec![]);
        policy.severities = vec![
            ("fed-".into(), Severity::Major),
            ("drop-".into(), Severity::Critical),
        ];
        policy.default_severity = Severity::Minor;
        assert_eq!(policy.classify("fed-staleness-max"), Severity::Major);
        assert_eq!(policy.classify("drop-burn-rate"), Severity::Critical);
        assert_eq!(policy.classify("anything-else"), Severity::Minor);
    }

    /// A tiny paging cluster: an alert source is simulated by injecting
    /// `page.fire` from a stub node.
    struct FireOnce {
        gateway: NodeId,
        resolve_at: Option<SimDuration>,
    }
    impl Node for FireOnce {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_millis(10), 0);
            if let Some(at) = self.resolve_at {
                ctx.set_timer(at, 1);
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _msg: Message) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
            if tag == 0 {
                ctx.send(self.gateway, page_fire("drop-burn", "gw-0", 2.0, 1.0, 7, 0));
                // A duplicate fire right behind the first must dedup.
                ctx.send(self.gateway, page_fire("drop-burn", "gw-0", 2.0, 1.0, 7, 0));
            } else {
                ctx.send(self.gateway, page_resolve("drop-burn", "gw-0"));
            }
        }
    }

    fn cluster(
        primary_acks: bool,
        escalation: bool,
        resolve_at: Option<SimDuration>,
    ) -> (Simulator, NodeId, NodeId, NodeId) {
        let mut sim = Simulator::new(7);
        let primary = sim.add_node(Box::new(PageReceiver::new(
            primary_acks.then(|| SimDuration::from_secs(5)),
        )));
        let esc = sim.add_node(Box::new(PageReceiver::new(Some(SimDuration::from_secs(2)))));
        let mut route = Route::new(Severity::Critical, primary);
        route.backoff = SimDuration::from_secs(20);
        if escalation {
            route = route.with_escalation(esc);
        }
        let mut policy = RoutePolicy::new(vec![route]);
        policy.tick = SimDuration::from_secs(30);
        let gateway = sim.add_node(Box::new(PagingGateway::new(policy)));
        let source = sim.add_node(Box::new(FireOnce { gateway, resolve_at }));
        for (a, b) in [(source, gateway), (gateway, primary), (gateway, esc)] {
            sim.connect(a, b, LinkSpec::lan());
        }
        (sim, gateway, primary, esc)
    }

    #[test]
    fn acked_page_is_delivered_and_escalation_suppressed() {
        let (mut sim, gateway, primary, esc) = cluster(true, true, None);
        sim.run_until_idle();
        let gw = sim.node_ref::<PagingGateway>(gateway).unwrap();
        assert_eq!(gw.fired, 1);
        assert_eq!(gw.deduped, 1, "duplicate fire must dedup");
        assert_eq!(gw.delivered, 1);
        assert_eq!(gw.escalated, 0, "ack within the window suppresses escalation");
        assert_eq!(gw.dropped, 0);
        assert_eq!(gw.open_pages(), 0);
        assert!(gw.delivery.count() == 1 && gw.delivery.max() >= 5_000_000);
        assert_eq!(sim.node_ref::<PageReceiver>(primary).unwrap().received, 1);
        assert_eq!(sim.node_ref::<PageReceiver>(esc).unwrap().received, 0);
    }

    #[test]
    fn unacked_page_escalates_and_escalation_ack_closes_it() {
        let (mut sim, gateway, primary, esc) = cluster(false, true, None);
        sim.run_until_idle();
        let gw = sim.node_ref::<PagingGateway>(gateway).unwrap();
        assert_eq!(gw.fired, 1);
        assert_eq!(gw.escalated, 1, "sleeping primary must escalate");
        assert_eq!(gw.delivered, 1, "escalation receiver's ack closes the page");
        assert_eq!(gw.dropped, 0);
        assert_eq!(gw.open_pages(), 0);
        let p = sim.node_ref::<PageReceiver>(primary).unwrap();
        assert!(p.received >= 1 && p.received_escalated == 0);
        let e = sim.node_ref::<PageReceiver>(esc).unwrap();
        assert_eq!(e.received_escalated, 1);
    }

    #[test]
    fn page_with_no_ack_anywhere_is_dropped_and_sim_drains() {
        let mut sim = Simulator::new(9);
        let primary = sim.add_node(Box::new(PageReceiver::new(None)));
        let mut route = Route::new(Severity::Critical, primary);
        route.backoff = SimDuration::from_secs(10);
        let mut policy = RoutePolicy::new(vec![route]);
        policy.tick = SimDuration::from_secs(30);
        let gateway = sim.add_node(Box::new(PagingGateway::new(policy)));
        let source = sim.add_node(Box::new(FireOnce { gateway, resolve_at: None }));
        sim.connect(source, gateway, LinkSpec::lan());
        sim.connect(gateway, primary, LinkSpec::lan());
        sim.run_until_idle();
        let gw = sim.node_ref::<PagingGateway>(gateway).unwrap();
        assert_eq!(gw.dropped, 1, "no escalation and no ack must drop");
        assert_eq!(gw.delivered, 0);
        assert_eq!(gw.open_pages(), 0, "dropped pages close");
    }

    #[test]
    fn resolve_before_ack_closes_the_page_silently() {
        let (mut sim, gateway, _primary, _esc) =
            cluster(false, true, Some(SimDuration::from_secs(3)));
        sim.run_until_idle();
        let gw = sim.node_ref::<PagingGateway>(gateway).unwrap();
        assert_eq!(gw.resolved, 1, "resolve edge must close the open page");
        assert_eq!(gw.delivered, 0);
        assert_eq!(gw.dropped, 0);
        assert_eq!(gw.open_pages(), 0);
    }
}
