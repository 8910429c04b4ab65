//! A golden digest of the retransmission paths, pinned across commits.
//!
//! No pdbench workload, soak or chaos run reaches a transfer retry or skip,
//! and the paging drills never exhaust a receiver, so those branches would
//! otherwise be held only by assertions on counters. Three seeded scenarios
//! drive them instead:
//!
//! * a cell monitor scraping one target over a lossy link (its requests are
//!   retransmitted) and one over a cut link (its requests give up);
//! * a three-bank itinerary whose middle bank's link is lossy for the first
//!   deploy (the transfer to it is retried) and cut for the second (the
//!   transfer is retried until the bank is skipped);
//! * a page whose primary receiver sleeps: it is retried, exhausted,
//!   escalated and acked by the escalation receiver.
//!
//! Each scenario's digest is an FNV-1a hash over every delivery the
//! simulator traced, its event count and every node's message and named
//! counters. If a change is *meant* to alter one of these paths, update the
//! constant and say why in the commit message.

use pdagent::apps::ebank::{ebank_program, itinerary_for, transactions_param};
use pdagent::apps::{BankService, Transaction};
use pdagent::core::{DeployRequest, DeviceCommand, DeviceNode, Scenario, ScenarioSpec, SiteSpec};
use pdagent::net::link::LinkSpec;
use pdagent::net::paging::{page_fire, PageReceiver, PagingGateway, Route, RoutePolicy, Severity};
use pdagent::net::prelude::*;
use pdagent::net::slo::{MonitorSpec, SloMonitor};

const GOLDEN_HTTP: u64 = 0xbf59_01c9_cf65_2dfc;
const GOLDEN_TRANSFER: u64 = 0x5d30_a561_a078_eca2;
const GOLDEN_PAGING: u64 = 0x77f4_160a_aedf_8993;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// The digest of a drained simulation of `nodes` nodes.
fn digest(sim: &Simulator, nodes: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for e in sim.trace().expect("tracing on").entries() {
        let line = format!("{} {} {} {} {} {}\n", e.at.0, e.from, e.to, e.kind, e.bytes, e.trace);
        fnv1a(&mut h, line.as_bytes());
    }
    fnv1a(&mut h, format!("events {}\n", sim.events_processed()).as_bytes());
    for node in 0..nodes {
        let m = sim.metrics(node);
        let line = format!(
            "{node} sent {} dropped {} {:?}\n",
            m.msgs_sent,
            m.msgs_dropped,
            m.counters_sorted()
        );
        fnv1a(&mut h, line.as_bytes());
    }
    h
}

#[test]
fn lossy_and_dead_scrapes_retry_and_give_up() {
    let mut sim = Simulator::new(61);
    sim.enable_trace();
    let lossy = sim.add_node(Box::new(SloMonitor::new(MonitorSpec::default(), vec![])));
    let dead = sim.add_node(Box::new(SloMonitor::new(MonitorSpec::default(), vec![])));
    let spec = MonitorSpec { cadence: SimDuration::from_secs(20), rounds: 3, rules: vec![] };
    let targets = vec![(lossy, "lossy".to_owned()), (dead, "dead".to_owned())];
    let monitor = sim.add_node(Box::new(SloMonitor::new(spec, targets)));
    sim.connect(monitor, lossy, LinkSpec::lan().with_loss(0.4));
    sim.connect(monitor, dead, LinkSpec::lan());
    sim.cut_link(monitor, dead);
    sim.run_until_idle();
    let m = sim.metrics(monitor);
    assert!(m.counter("http.retransmits") > 0.0);
    assert!(m.counter("http.gave_up") >= 6.0, "every probe of the dead target gives up");
    assert!(sim.node_ref::<SloMonitor>(monitor).unwrap().scrapes_ok > 0);
    let d = digest(&sim, 3);
    assert_eq!(d, GOLDEN_HTTP, "scrape retransmission digest drifted: got {d:#018x}");
}

fn deploy(txs: &[Transaction]) -> DeviceCommand {
    DeviceCommand::Deploy(DeployRequest::new(
        "ebank",
        vec![transactions_param(txs)],
        itinerary_for(txs),
    ))
}

#[test]
fn lossy_then_cut_middle_site_is_retried_then_skipped() {
    let banks = ["bank-a", "bank-b", "bank-c"];
    let txs: Vec<Transaction> =
        banks.iter().map(|&b| Transaction::new(b, "alice", "bob", 100)).collect();
    let mut spec = ScenarioSpec::new(62);
    spec.catalog = vec![("ebank".into(), ebank_program())];
    spec.sites = banks
        .iter()
        .map(|&b| {
            SiteSpec::new(b)
                .with_service("bank", move || BankService::new(b).with_account("alice", 10_000))
        })
        .collect();
    spec.commands = vec![DeviceCommand::Subscribe { service: "ebank".into() }, deploy(&txs)];
    let mut scenario = Scenario::build(spec);
    scenario.sim.enable_trace();
    let (a, b) = (scenario.sites[0], scenario.sites[1]);
    scenario.sim.connect(a, b, LinkSpec::wired_internet().with_loss(0.5));
    scenario.run();
    assert!(scenario.sim.metrics(a).counter("mas.transfer_retries") > 0.0);
    assert_eq!(scenario.sim.metrics(a).counter("mas.hops_skipped"), 0.0);

    scenario.sim.cut_link(a, b);
    scenario.device_mut().enqueue(deploy(&txs));
    DeviceNode::kick(&mut scenario.sim, scenario.device);
    let device = scenario.run();
    let agent = device.last_agent_id().expect("second deploy dispatched").to_owned();
    let result = device.db.result(&agent).expect("second result collected");
    let skipped: Vec<String> =
        result.entries_for("unreachable").map(|e| e.value.render()).collect();
    assert_eq!(skipped, vec!["bank-b".to_owned()]);
    assert_eq!(scenario.sim.metrics(a).counter("mas.hops_skipped"), 1.0);
    let d = digest(&scenario.sim, scenario.device + 1);
    assert_eq!(d, GOLDEN_TRANSFER, "transfer retransmission digest drifted: got {d:#018x}");
}

/// Fires one page at the paging gateway.
struct FireOnce {
    pager: NodeId,
}

impl Node for FireOnce {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(10), 0);
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _msg: Message) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        ctx.send(self.pager, page_fire("drop-burn", "gw-0", 2.0, 1.0, 7, 3));
    }
}

#[test]
fn sleeping_primary_is_retried_exhausted_and_escalated() {
    let mut sim = Simulator::new(63);
    sim.enable_trace();
    let primary = sim.add_node(Box::new(PageReceiver::new(None)));
    let esc = sim.add_node(Box::new(PageReceiver::new(Some(SimDuration::from_secs(2)))));
    let mut route = Route::new(Severity::Critical, primary).with_escalation(esc);
    route.backoff = SimDuration::from_secs(10);
    let mut policy = RoutePolicy::new(vec![route]);
    policy.tick = SimDuration::from_secs(40);
    let pager = sim.add_node(Box::new(PagingGateway::new(policy)));
    let source = sim.add_node(Box::new(FireOnce { pager }));
    for (x, y) in [(source, pager), (pager, primary), (pager, esc)] {
        sim.connect(x, y, LinkSpec::lan());
    }
    sim.run_until_idle();
    let m = sim.metrics(pager);
    assert_eq!(m.counter("page.retries"), 2.0);
    assert_eq!(m.counter("page.exhausted"), 1.0);
    assert_eq!(m.counter("page.escalated"), 1.0);
    assert_eq!(m.counter("page.delivered"), 1.0);
    assert_eq!(m.counter("page.sent"), 4.0);
    let d = digest(&sim, 4);
    assert_eq!(d, GOLDEN_PAGING, "paging retransmission digest drifted: got {d:#018x}");
}
