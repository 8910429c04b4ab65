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
//!   `page.deliver` message to the route's primary [`PageReceiver`], resent
//!   with doubling backoff from its open-page [`Retransmitter`] until acked.
//! * Unacked pages escalate after `ESCALATE_AFTER` unacked ticks to the
//!   route's escalation receiver; pages that exhaust every attempt are
//!   *dropped* — the one counter a healthy fleet must keep at zero
//!   (`scripts/bench_diff.sh` gates on it).
//!
//! Every page episode is a `page.deliver` span on the alert's trace (so
//! fire→ack latency lands in the stage histograms and the flight recorder),
//! and the gateway counts `page.delivered` / `page.escalated` /
//! `page.dropped` / `page.deduped` in its metrics. All timers are bounded —
//! a page is delivered at most `MAX_ATTEMPTS` times per target and ticks at
//! most `ESCALATE_AFTER` times — so simulations always drain.

use std::collections::HashMap;

use pdagent_codec::varint;

use crate::http::HttpRequest;
use crate::message::Message;
use crate::obs::Histogram;
use crate::retry::{Fired, Lane, Retransmitter};
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
/// Backoff doublings before the retry delay stops growing.
const BACKOFF_CAP: u32 = 8;

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
    /// Escalation receiver, tried after `ESCALATE_AFTER` unacked ticks.
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

fn parse_ack(msg: &Message) -> Option<u64> {
    varint::read_u64(&msg.body, &mut 0).ok()
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
    rule: String,
    instance: String,
    trace: u64,
    exemplar: u64,
    fired_at: SimTime,
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
    /// Open pages by id; at most one per dedup key (rule and instance).
    open: Retransmitter<u64, PageState>,
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

impl PagingGateway {
    /// Gateway applying `policy`.
    pub fn new(policy: RoutePolicy) -> PagingGateway {
        PagingGateway {
            policy,
            open: Retransmitter::new(Lane::Page, MAX_ATTEMPTS, BACKOFF_CAP),
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

    /// Send page `id` to its current receiver, restarting its attempts.
    fn deliver(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        let page = self.open.get(&id).expect("delivered page is open");
        let route = &self.policy.routes[page.route];
        let to = if page.escalated {
            route.escalation.expect("escalated page has an escalation receiver")
        } else {
            route.target
        };
        let mut body = Vec::with_capacity(page.rule.len() + page.instance.len() + 24);
        varint::write_u64(&mut body, id);
        varint::write_u64(&mut body, u64::from(page.escalated));
        varint::write_str(&mut body, &page.rule);
        varint::write_str(&mut body, &page.instance);
        varint::write_u64(&mut body, page.exemplar);
        self.open.transmit(ctx, &id, to, Message::new(KIND_PAGE_DELIVER, body), route.backoff);
        ctx.metrics().bump("page.sent", 1.0);
    }

    /// The id of the open page for `rule` on `instance`.
    fn open_page(&self, rule: &str, instance: &str) -> Option<u64> {
        self.open.iter().find(|(_, p)| p.rule == rule && p.instance == instance).map(|(id, _)| *id)
    }

    fn on_fire(&mut self, ctx: &mut Ctx<'_>, msg: &Message) {
        let Some((rule, instance, _value, _limit, trace, exemplar)) = parse_fire(msg) else {
            return;
        };
        if self.open_page(&rule, &instance).is_some() {
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
            rule,
            instance,
            trace,
            exemplar,
            fired_at: ctx.now(),
            unacked_ticks: 0,
            escalated: false,
            span,
            route: route_idx,
        };
        self.fired += 1;
        ctx.metrics().bump("page.fired", 1.0);
        self.open.insert(id, page);
        self.deliver(ctx, id);
        ctx.set_timer(self.policy.tick, id);
    }

    fn on_resolve(&mut self, ctx: &mut Ctx<'_>, msg: &Message) {
        let Some((rule, instance)) = parse_resolve(msg) else { return };
        if let Some(page) = self.open_page(&rule, &instance).and_then(|id| self.open.take(ctx, &id))
        {
            ctx.span_end(page.span);
            self.resolved += 1;
            ctx.metrics().bump("page.resolved", 1.0);
        }
    }

    fn on_ack(&mut self, ctx: &mut Ctx<'_>, msg: &Message) {
        let Some(page) = parse_ack(msg).and_then(|id| self.open.take(ctx, &id)) else { return };
        self.delivery.record(ctx.now().since(page.fired_at).0);
        ctx.span_end(page.span);
        self.delivered += 1;
        ctx.metrics().bump("page.delivered", 1.0);
    }

    /// Every delivery of page `id` to its current receiver timed out: hold
    /// it for its escalation tick if escalation is still ahead of it, else
    /// drop it.
    fn on_exhausted(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        let page = self.open.get(&id).expect("expired page is open");
        if !page.escalated && self.policy.routes[page.route].escalation.is_some() {
            ctx.metrics().bump("page.exhausted", 1.0);
        } else {
            self.drop_page(ctx, id);
        }
    }

    fn drop_page(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        let page = self.open.take(ctx, &id).expect("dropped page is open");
        ctx.span_end(page.span);
        self.dropped += 1;
        ctx.metrics().bump("page.dropped", 1.0);
    }

    /// Escalation tick for page `id`.
    fn on_tick(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        let Some(page) = self.open.get_mut(&id) else { return };
        if page.escalated {
            return;
        }
        page.unacked_ticks += 1;
        if page.unacked_ticks < ESCALATE_AFTER {
            ctx.set_timer(self.policy.tick, id);
        } else if self.policy.routes[page.route].escalation.is_some() {
            page.escalated = true;
            self.escalated += 1;
            ctx.metrics().bump("page.escalated", 1.0);
            let span = ctx.span_begin(page.trace, 0, "page.escalate");
            ctx.span_end(span);
            self.deliver(ctx, id);
        } else {
            self.drop_page(ctx, id);
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
        match self.open.on_timer(ctx, tag) {
            // Escalation ticks are the gateway's own timers, tagged by page id.
            Fired::NotMine | Fired::Due(_) => self.on_tick(ctx, tag),
            Fired::Retried(..) => {
                ctx.metrics().bump("page.retries", 1.0);
                ctx.metrics().bump("page.sent", 1.0);
            }
            Fired::Expired(id) => self.on_exhausted(ctx, id),
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
    use crate::hostile;
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
    fn hostile_page_bodies_decode_to_none_or_round_trip() {
        // Floats compare by their bits: a substituted byte may make a NaN.
        let fire = |m: &Message| {
            parse_fire(m).map(|(r, i, v, l, t, e)| (r, i, v.to_bits(), l.to_bits(), t, e))
        };
        // The gateway's `page.deliver` encoding, field for field.
        let page_delivery = |id, escalated, rule: &str, instance: &str, exemplar| {
            let mut body = Vec::new();
            varint::write_u64(&mut body, id);
            varint::write_u64(&mut body, u64::from(escalated));
            varint::write_str(&mut body, rule);
            varint::write_str(&mut body, instance);
            varint::write_u64(&mut body, exemplar);
            Message::new(KIND_PAGE_DELIVER, body)
        };
        let wires = [
            page_fire("drop-burn-rate", "gw-0", 1.5, 0.25, 42, 17),
            page_resolve("drop-burn-rate", "gw-0"),
            page_delivery(300, true, "drop-burn-rate", "gw-0", 17),
            page_ack(300),
        ];
        let kinded = |kind: &'static str| move |body: &[u8]| Message::new(kind, body.to_vec());
        let (fire_msg, resolve_msg) = (kinded(KIND_PAGE_FIRE), kinded(KIND_PAGE_RESOLVE));
        let (delivery_msg, ack_msg) = (kinded(KIND_PAGE_DELIVER), kinded(KIND_PAGE_ACK));
        for wire in wires {
            let inputs = || hostile::inputs(&wire.body, &[]);
            hostile::drive(inputs(), |b| fire(&fire_msg(b)), |&(ref r, ref i, v, l, t, e)| {
                page_fire(r, i, f64::from_bits(v), f64::from_bits(l), t, e).body.to_vec()
            });
            hostile::drive(
                inputs(),
                |b| parse_resolve(&resolve_msg(b)),
                |(rule, instance)| page_resolve(rule, instance).body.to_vec(),
            );
            hostile::drive(
                inputs(),
                |b| parse_delivery(&delivery_msg(b)),
                |d| page_delivery(d.id, d.escalated, &d.rule, &d.instance, d.exemplar).body.to_vec(),
            );
            hostile::drive(inputs(), |b| parse_ack(&ack_msg(b)), |&id| page_ack(id).body.to_vec());
        }
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
    fn escalation_gives_the_escalation_receiver_its_own_retry_schedule() {
        // Nobody acks. The primary gets deliveries at 0, 20 and 60 s; the
        // tick escalates at 60 s while the primary's next retry timer is
        // still armed (due at 140 s). Escalation replaces it: the
        // escalation receiver gets 60, 80 and 120 s, and the page drops
        // when those time out at 200 s, not when the primary's would have.
        let mut sim = Simulator::new(9);
        let primary = sim.add_node(Box::new(PageReceiver::new(None)));
        let esc = sim.add_node(Box::new(PageReceiver::new(None)));
        let mut route = Route::new(Severity::Critical, primary).with_escalation(esc);
        route.backoff = SimDuration::from_secs(20);
        let mut policy = RoutePolicy::new(vec![route]);
        policy.tick = SimDuration::from_secs(30);
        let gateway = sim.add_node(Box::new(PagingGateway::new(policy)));
        let source = sim.add_node(Box::new(FireOnce { gateway, resolve_at: None }));
        for (a, b) in [(source, gateway), (gateway, primary), (gateway, esc)] {
            sim.connect(a, b, LinkSpec::ideal());
        }
        sim.run_until(SimTime(150_000_000));
        assert_eq!(sim.node_ref::<PagingGateway>(gateway).unwrap().open_pages(), 1);
        sim.run_until_idle();
        let gw = sim.node_ref::<PagingGateway>(gateway).unwrap();
        assert_eq!((gw.escalated, gw.dropped, gw.open_pages()), (1, 1, 0));
        assert!(sim.now() >= SimTime(200_000_000), "dropped at {}", sim.now());
        assert_eq!(sim.node_ref::<PageReceiver>(primary).unwrap().received, 3);
        assert_eq!(sim.node_ref::<PageReceiver>(esc).unwrap().received_escalated, 3);
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
