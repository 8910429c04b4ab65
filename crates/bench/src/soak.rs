//! The thousand-device PI-upload soak.
//!
//! The paper evaluates one handheld against one gateway; the ROADMAP
//! north-star is an operator fleet. This workload models that fleet as
//! `cells` independent *cells* — a serving gateway, its cell-local central
//! server, two bank MAS sites, and `devices_per_cell` handhelds each
//! subscribing to and deploying the e-banking agent with a padded PI (the
//! "Packed Information" upload that dominates the wireless budget) — plus a
//! thin cross-cell control plane: one *auditor* per cell heartbeating a
//! global *coordinator* over a WAN backbone link.
//!
//! Cells never talk to each other, so the topology partitions cleanly along
//! cell boundaries: [`run_soak`] carves the cells onto `shards` simulators
//! ([`pdagent_core::ShardPlan`]) bridged by [`crate::shard::ShardedSim`]'s
//! epoch exchange, with the auditor→coordinator WAN hops as the only
//! cross-shard traffic. Node labels come from the plan, so **the results
//! section is byte-identical for every shard count** — that is asserted by
//! the `soak` binary and the property suite, not just claimed.

use pdagent_apps::ebank::{ebank_program, itinerary_for, transactions_param};
use pdagent_apps::{BankService, Transaction};
use pdagent_core::shard::ShardPlan;
use pdagent_core::{DeployRequest, DeviceCommand, DeviceConfig, DeviceEvent, DeviceNode};
use pdagent_gateway::central::{CentralServer, GatewayEntry};
use pdagent_gateway::server::{GatewayConfig, GatewayNode};
use pdagent_mas::server::SiteDirectory;
use pdagent_mas::MasNode;

use pdagent_net::chaos::{ChaosInjector, ChaosPlan, Fault};
use pdagent_net::federation::{
    default_federation_rules, FederationReport, FederationScraper, FederationSpec,
};
use pdagent_net::link::LinkSpec;
use pdagent_net::message::Message;
use pdagent_net::metrics::KEY_QUEUE_DEPTH;
use pdagent_net::obs::{ObsEvent, ObsSummary, SampleClass, SamplerConfig, SamplerStats};
use pdagent_net::paging::{PageReceiver, PagingGateway, PagingReport, Route, RoutePolicy, Severity};
use pdagent_net::sim::{Ctx, Node, NodeId, Simulator};
use pdagent_net::slo::{MonitorSpec, SloMonitor, SloReport, SloRule};
use pdagent_net::telemetry::{render_traces_body, FlightRecorder};
use pdagent_net::time::SimDuration;
use pdagent_vm::Value;

use std::sync::Mutex;

use crate::shard::ShardedSim;

/// Label of the global coordinator (below the cell label stride).
const COORD_LABEL: u64 = 1;
/// Label of the fleet federation scraper (shard 0).
const FED_LABEL: u64 = 2;
/// Label of the paging gateway (shard 0).
const PAGER_LABEL: u64 = 3;
/// Label of the primary on-call page receiver (shard 0).
const ONCALL_LABEL: u64 = 4;
/// Label of the escalation page receiver (shard 0).
const ONCALL_ESC_LABEL: u64 = 5;
/// Label of the notification-path monitor (page-chaos drill, shard 0).
const PAGER_MON_LABEL: u64 = 6;
/// Label of the drill's pager↔on-call link chaos injector (shard 0).
const PAGER_CHAOS_LABEL: u64 = 7;
/// Label of the per-shard [`ChaosInjector`] compiling
/// [`SoakSpec::chaos_plan`] (one per shard, never exported).
const GLOBAL_CHAOS_LABEL: u64 = 8;

/// e-bank transactions per device session.
const TRANSACTIONS: u32 = 1;
/// Link MTU: messages larger than this fragment into MTU-byte frames.
const MTU: usize = 256;

/// Node index of each role within a cell's label space.
const J_CENTRAL: usize = 0;
const J_GATEWAY: usize = 1;
const J_SITE_A: usize = 2;
const J_SITE_B: usize = 3;
const J_AUDITOR: usize = 4;
const J_DEVICE0: usize = 5;

/// Stable plan label of a cell's gateway. Chaos plans address nodes by
/// label, and labels are a pure function of `(cell, role)` — independent of
/// shard count — which is what makes a `(seed, plan)` pair replayable at any
/// partitioning.
pub fn gateway_label(cell: usize) -> u64 {
    ShardPlan::new(cell + 1, 1).label(cell, J_GATEWAY)
}

/// Stable plan label of a cell's `dev`-th handheld.
pub fn device_label(cell: usize, dev: usize) -> u64 {
    ShardPlan::new(cell + 1, 1).label(cell, J_DEVICE0 + dev)
}

/// Stable plan label of a cell's bank MAS site (`0` = bank-a, `1` = bank-b).
pub fn site_label(cell: usize, which: usize) -> u64 {
    ShardPlan::new(cell + 1, 1).label(cell, J_SITE_A + which.min(1))
}

/// Stable plan label of a cell's SLO monitor (needs the cell's device count,
/// since the monitor label sits just past the device range).
pub fn monitor_label(cell: usize, devices_per_cell: usize) -> u64 {
    ShardPlan::new(cell + 1, 1).label(cell, J_DEVICE0 + devices_per_cell)
}

/// Stable label of the shard-0 paging gateway.
pub fn pager_label() -> u64 {
    PAGER_LABEL
}

/// Stable label of the shard-0 primary on-call receiver.
pub fn oncall_label() -> u64 {
    ONCALL_LABEL
}

/// The default SLO rule set every cell monitor evaluates against each of
/// its targets — the cell gateway *and* the two bank MAS sites. Deliberately
/// monitor-local or target-counter based: none of these signals depend on
/// shard-global aggregation, so the same rules give the same verdicts at
/// every shard count. Rules keyed to counters a target never emits (e.g.
/// `mas.*` on the gateway) read zero there and stay quiet.
pub fn default_slo_rules() -> Vec<SloRule> {
    vec![
        // Scrape round-trip p99 over the last cadence window, 1 s budget.
        // Retransmitted scrapes count from first transmission, so injected
        // link outages surface here as multi-second tails.
        SloRule::p99("scrape-latency-p99", pdagent_net::slo::STAGE_SCRAPE_RTT, 1_000_000.0),
        // Three consecutive health-probe failures means the gateway is down.
        SloRule::gauge("probe-failures", pdagent_net::slo::KEY_PROBE_FAILURES, 2.0),
        // Replay-cache occupancy: the soak gateways cap at 16 entries, so a
        // reading above 64 would mean eviction is broken.
        SloRule::gauge("replay-occupancy", "gateway.replay_entries", 64.0),
        // Gateway-side request error ratio (gave-up HTTP exchanges / sends).
        SloRule::error_ratio("gateway-error-ratio", "http.gave_up", "msgs_sent", 0.01),
        // Two-window burn rate on dropped frames: fires only if >90% of the
        // gateway's sends drop over both the 1- and 3-cadence windows.
        SloRule::burn_rate("drop-burn-rate", "msgs_dropped", "msgs_sent", 1, 3, 0.9),
        // MAS occupancy: resident agents parked at a bank site. The soak's
        // itineraries visit, execute, and leave — more than 8 agents resident
        // at a scrape means transfers are wedging instead of completing.
        SloRule::gauge("mas-occupancy", "mas.resident_agents", 8.0),
        // MAS transfer error ratio: failed agent-transfer sends per message
        // sent by the site. Reads zero on the gateway target.
        SloRule::error_ratio("mas-error-ratio", "mas.transfer_send_failed", "msgs_sent", 0.01),
        // Scrape staleness: a target unscraped for 30 s is effectively
        // blind. Resolve hysteresis at 15 s keeps a flapping link from
        // paging on every cadence.
        SloRule::gauge("scrape-staleness", pdagent_net::slo::KEY_SCRAPE_STALENESS, 30_000_000.0)
            .with_resolve(15_000_000.0),
        // Event-queue depth of the target's host shard, as exposed at
        // `/metrics`: a reading past 100k events means a runaway timer or
        // message storm. Hysteresis at half that, so the rule does not flap
        // while a storm drains.
        SloRule::gauge("queue-depth", KEY_QUEUE_DEPTH, 100_000.0).with_resolve(50_000.0),
    ]
}

/// Soak parameters.
#[derive(Debug, Clone)]
pub struct SoakSpec {
    /// Trial seed (also the per-shard topology seed — every shard uses the
    /// same one, which is what makes link RNG streams partition-invariant).
    pub seed: u64,
    /// Number of cells.
    pub cells: usize,
    /// Handhelds per cell.
    pub devices_per_cell: usize,
    /// Extra bytes of user data packed into each PI (sized so the upload,
    /// not the handshake, dominates the session — the paper's 1.8 KB/s
    /// wireless regime).
    pub pi_pad: usize,
    /// Heartbeats each auditor sends the coordinator.
    pub heartbeats: u32,
    /// Simulator shards to partition the cells over (clamped to `cells`).
    pub shards: usize,
    /// Batched (one event per burst) vs per-fragment event scheduling.
    pub batch_links: bool,
    /// Attach the observability collector to every shard.
    pub observe: bool,
    /// Run one [`SloMonitor`] per cell, scraping the cell gateway's
    /// `GET /metrics` + `GET /healthz` on a sim-timer cadence and evaluating
    /// [`default_slo_rules`]. Monitors are cell-local (their links get their
    /// own RNG streams), so enabling them never perturbs the results section.
    pub slo: bool,
    /// Scrape rounds each monitor runs (bounded so the sim drains).
    pub monitor_rounds: u32,
    /// Cut each monitor↔gateway link over a fixed window (9.5 s – 11.9 s),
    /// forcing the round-2 scrape to retransmit into a multi-second RTT —
    /// the injected-latency scenario that makes the p99 rule fire and then
    /// resolve. Implies nothing about device traffic: only monitor links are
    /// touched.
    pub chaos: bool,
    /// Run the fleet plane (needs `slo`): a [`FederationScraper`] in shard 0
    /// scraping every cell monitor's cell view over the WAN, plus a
    /// [`PagingGateway`] with two on-call receivers that monitors and the
    /// fleet SLO engine page on alert edges. Like monitors, the fleet plane
    /// rides its own labelled links, so enabling it never perturbs results.
    pub federation: bool,
    /// The federation scraper's knobs (cadence, rounds, delta mode, fan-in
    /// window, staleness bound); [`run_soak`] fills in `rules` and `pager`.
    pub fed: FederationSpec,
    /// Primary on-call pickup time (`None` never acks, forcing escalation —
    /// the paging-drill configuration).
    pub oncall_ack: Option<SimDuration>,
    /// Paging escalation tick: a page unacked for two ticks escalates.
    pub escalation_tick: SimDuration,
    /// Page delivery retry backoff (doubles per attempt). The production-ish
    /// 30 s default never retries inside a drill window; the page-chaos
    /// drill shortens it so a retry lands after the injected outage lifts.
    pub page_backoff: SimDuration,
    /// Tail-sample every shard collector (needs `observe`): spans buffer
    /// per-trace and only alert-touched, slow, or head-sampled traces are
    /// retained. `false` keeps the store-everything collector whose scrape
    /// bodies are byte-identical to the pre-sampler plane.
    pub sample: bool,
    /// Sampler knobs used when `sample` is set. `new()` seeds the
    /// head-sample stream from the trial seed.
    pub sampler_cfg: SamplerConfig,
    /// The notification-path chaos drill (needs `slo && federation`): cut
    /// the pager↔on-call link across the window where cell alerts page, and
    /// run a dedicated monitor scraping the paging gateway's own `/metrics`
    /// with a `page.deliver` p99 rule — paging the pager about its own
    /// degraded delivery path, exemplar attached.
    pub page_chaos: bool,
    /// A declarative fault schedule compiled by one [`ChaosInjector`] per
    /// shard. Faults address nodes by their stable plan labels, so the same
    /// plan replays byte-identically at every shard count. `None` (and an
    /// inert plan with every intensity at zero) leaves the run byte-identical
    /// to a chaos-free soak.
    pub chaos_plan: Option<ChaosPlan>,
    /// Gateway replay-cache cap ([`GatewayConfig::replay_max_entries`]).
    /// The default 16 matches the historical soak; the chaos suite sets 0 to
    /// deliberately break idempotency under duplication bursts.
    pub gateway_replay_cap: usize,
}

impl SoakSpec {
    /// Paper-calibrated defaults: 1 transaction, 48 KB PI pad, 256-byte
    /// frames, batched delivery, single shard.
    pub fn new(seed: u64, cells: usize, devices_per_cell: usize) -> SoakSpec {
        SoakSpec {
            seed,
            cells,
            devices_per_cell,
            pi_pad: 48 * 1024,
            heartbeats: 4,
            shards: 1,
            batch_links: true,
            observe: false,
            slo: false,
            monitor_rounds: 6,
            chaos: false,
            federation: false,
            fed: FederationSpec::default(),
            oncall_ack: Some(SimDuration::from_secs(2)),
            escalation_tick: SimDuration::from_secs(60),
            page_backoff: SimDuration::from_secs(30),
            sample: false,
            sampler_cfg: SamplerConfig { seed, ..SamplerConfig::default() },
            page_chaos: false,
            chaos_plan: None,
            gateway_replay_cap: 16,
        }
    }

    /// Total devices across all cells.
    pub fn devices(&self) -> usize {
        self.cells * self.devices_per_cell
    }
}

/// Per-cell aggregates. Everything here is an integer or an
/// insertion-ordered integer vector, so two runs can be compared for *byte*
/// equality without floating-point summation-order hazards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellResult {
    /// Devices whose deploy completed (result collected).
    pub completed: u32,
    /// Per-device completion time in microseconds, in device order.
    pub completion_us: Vec<u64>,
    /// Per-device PI envelope bytes, in device order.
    pub pi_bytes: Vec<u64>,
    /// Total bytes the cell's devices moved over wireless (both ways).
    pub wireless_bytes: u64,
    /// Heartbeat acks the cell's auditor got back from the coordinator.
    pub auditor_acks: u32,
    /// Replayed responses the cell's gateway served from its replay cache.
    pub gateway_replays: u64,
    /// Entries the gateway's replay/result caches evicted.
    pub gateway_evictions: u64,
}

/// The byte-comparable results of a soak run (what must be identical across
/// shard counts and batching modes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoakResults {
    /// One entry per cell, in cell order.
    pub cells: Vec<CellResult>,
    /// Heartbeats the coordinator counted (over all cells).
    pub coordinator_beats: u64,
}

/// A finished soak: the comparable results plus engine-side measurements
/// that legitimately vary with partitioning or batching mode.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// Byte-comparable results.
    pub results: SoakResults,
    /// Total devices simulated.
    pub devices: usize,
    /// Total simulator events over all shards.
    pub events: u64,
    /// `events / devices`.
    pub events_per_device: f64,
    /// Largest event-queue high-water mark over the shards.
    pub peak_queue: usize,
    /// Epoch-exchange rounds the sharded engine ran.
    pub epochs: u64,
    /// Virtual seconds the soak spanned.
    pub sim_secs: f64,
    /// Merged observability digest (empty unless `observe`).
    pub obs: ObsSummary,
    /// Per-rule SLO digests aggregated over every cell monitor, in rule
    /// order (empty unless `slo`).
    pub slo: Vec<SloReport>,
    /// The merged alert timeline across all shards, sorted by
    /// `(time, rule, instance)` so any partitioning yields the same order
    /// (empty unless `slo && observe`).
    pub alerts: Vec<ObsEvent>,
    /// Successful `/metrics` scrapes across all monitors.
    pub scrapes_ok: u64,
    /// Health probes that gave up across all monitors.
    pub probe_failures: u64,
    /// Rules still breached when the sim drained (fired, never resolved) —
    /// cell monitors and the fleet federation engine combined.
    pub unresolved_alerts: u64,
    /// The federation scraper's outcome (`None` unless `slo && federation`).
    pub federation: Option<FederationReport>,
    /// The paging gateway's outcome (`None` unless `slo && federation`).
    pub paging: Option<PagingReport>,
    /// Flight-recorder dumps captured for cells that saw alerts:
    /// `(node name, JSONL body)`, ready for [`pdagent_net::telemetry::dump_flight`]-style
    /// persistence by the caller (empty unless `slo && observe`).
    pub flight: Vec<(String, String)>,
    /// Tail-sampler accounting summed over every shard collector (`None`
    /// unless `observe && sample`).
    pub sampler: Option<SamplerStats>,
    /// Retained traces classified `Alert` across all shards (0 unless
    /// sampling) — every fired episode should leave at least one behind.
    pub alert_traces_retained: u64,
    /// Deliveries the on-call receivers got that carried a nonzero exemplar
    /// trace id (0 unless `slo && federation`).
    pub exemplar_pages: u64,
    /// `/traces?limit=3` body rendered from shard 0's collector (empty
    /// unless sampling) — the query-plane smoke the soak binary shape-checks.
    pub trace_probe: String,
    /// The first fired alert exemplar resolved through the query plane:
    /// `(exemplar trace id, its /traces?trace= body)` from the collector
    /// that recorded the edge (`None` when no fired edge carried one).
    pub exemplar_probe: Option<(u64, String)>,
    /// The notification-path monitor's per-rule digests (empty unless
    /// `page_chaos`).
    pub page_slo: Vec<SloReport>,
    /// Devices whose deploy dispatched an agent but at quiesce neither
    /// collected a result nor recorded any error — plus devices stuck
    /// mid-command. Must be zero: every launched itinerary completes or is
    /// accounted failed (the chaos suite's no-lost-agents oracle).
    pub lost_agents: u64,
    /// `gateway.duplicate_executions` summed over every cell gateway: times
    /// a dispatch handler re-ran for a `(client, req_id)` it had already
    /// executed. Must be zero while the replay cache is correctly sized.
    pub duplicate_executions: u64,
    /// `slo.epoch_regressions` summed over all shards: scrape epochs that
    /// went backwards on some monitor's target. Must be zero.
    pub epoch_regressions: u64,
    /// Replay-cache entries observed beyond `gateway_replay_cap + 1` (the
    /// lazy sweep admits one transient over-cap insert), summed over
    /// gateways. Must be zero: eviction keeps the cache bounded.
    pub replay_overflow: u64,
    /// Fault-schedule activity counters, for the chaos report section:
    /// `(loss_drops, corrupt_drops, dups, reorders, crash_drops)` summed
    /// over all shards. All zero when no plan is active.
    pub chaos_activity: [u64; 5],
}

/// One cell's auditor: heartbeats the coordinator on a timer and counts the
/// acks. Interval is staggered per cell so no two cells beat in lockstep.
struct Auditor {
    coordinator: NodeId,
    interval: SimDuration,
    beats: u32,
    sent: u32,
    acks: u32,
}

impl Node for Auditor {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.beats > 0 {
            ctx.set_timer(self.interval, 0);
        }
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
        if msg.kind == "audit-ack" {
            self.acks += 1;
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        self.sent += 1;
        ctx.send(self.coordinator, Message::new("audit", vec![0u8; 96]));
        if self.sent < self.beats {
            ctx.set_timer(self.interval, 0);
        }
    }
}

/// The fleet-wide coordinator: acks every heartbeat.
struct Coordinator {
    beats: u64,
}

impl Node for Coordinator {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        if msg.kind == "audit" {
            self.beats += 1;
            ctx.send(from, Message::new("audit-ack", vec![0u8; 16]));
        }
    }
}

/// Where each cell's inspectable nodes ended up.
struct CellIds {
    shard: usize,
    gateway: NodeId,
    auditor: NodeId,
    devices: Vec<NodeId>,
    monitor: Option<NodeId>,
}

/// Deterministic incompressible-ish padding (6 bits of entropy per byte, so
/// the platform's PI compression cannot flatten it): xorshift64* over a
/// base64 alphabet, seeded per device so every partitioning builds the same
/// string.
fn pad_text(len: usize, seed: u64) -> String {
    const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    let mut state = seed | 1;
    let mut out = String::with_capacity(len);
    for _ in 0..len {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        out.push(ALPHABET[(state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 58) as usize & 63] as char);
    }
    out
}

fn device_commands(spec: &SoakSpec, cell: usize, dev: usize) -> Vec<DeviceCommand> {
    let txs: Vec<Transaction> = (0..TRANSACTIONS)
        .map(|i| {
            let bank = if i % 2 == 0 { "bank-a" } else { "bank-b" };
            Transaction::new(bank, "alice", "payee", 1_000 + i as i64)
        })
        .collect();
    // Stagger sessions: devices within a cell key up ~2s apart, cells are
    // offset a prime-ish 23ms from each other.
    let stagger =
        SimDuration::from_millis(2_000 * dev as u64) + SimDuration::from_millis(23 * cell as u64);
    vec![
        DeviceCommand::Wait(stagger),
        DeviceCommand::Subscribe { service: "ebank".into() },
        DeviceCommand::Deploy(DeployRequest::new(
            "ebank",
            vec![
                transactions_param(&txs),
                // The "personal information" bulk the user attaches: pure
                // payload from the platform's perspective, it inflates the
                // PI to the size regime the soak is about.
                (
                    "pi_pad".into(),
                    Value::Str(pad_text(
                        spec.pi_pad,
                        spec.seed ^ (cell as u64) << 32 ^ dev as u64,
                    )),
                ),
            ],
            itinerary_for(&txs),
        )),
    ]
}

/// Build one cell inside `sim`, labelling every node from the plan.
fn build_cell(
    sim: &mut Simulator,
    spec: &SoakSpec,
    plan: &ShardPlan,
    cell: usize,
    shard: usize,
    coordinator: NodeId,
    pager: Option<NodeId>,
) -> CellIds {
    let wireless = LinkSpec::wireless_gprs();
    let wired = LinkSpec::wired_internet();

    let central = sim.add_node(Box::new(CentralServer::new(Vec::new())));
    let mut directory = SiteDirectory::new();
    // Site ids are assigned right after the gateway below.
    let gateway_id = central + 1;
    directory.insert("bank-a".to_string(), gateway_id + 1);
    directory.insert("bank-b".to_string(), gateway_id + 2);

    let mut gw_cfg = GatewayConfig::new(format!("gw-{cell}"), 1000 + spec.seed);
    // Tight cache bounds so the soak exercises replay/completed eviction:
    // each device leaves ~3 replayable responses and one completed agent
    // behind, so a ten-device cell overflows both caps deterministically.
    gw_cfg.replay_max_entries = spec.gateway_replay_cap;
    gw_cfg.completed_max_entries = 8;
    let mut gw = GatewayNode::new(gw_cfg, directory.clone());
    gw.publish("ebank".to_string(), ebank_program());
    let gateway = sim.add_node(Box::new(gw));
    assert_eq!(gateway, gateway_id);

    let mut site_a = MasNode::new("bank-a".to_string(), directory.clone());
    site_a.register_service(
        "bank".to_string(),
        Box::new(BankService::new("bank-a").with_account("alice", 10_000_000)),
    );
    let site_a = sim.add_node(Box::new(site_a));
    let mut site_b = MasNode::new("bank-b".to_string(), directory.clone());
    site_b.register_service(
        "bank".to_string(),
        Box::new(BankService::new("bank-b").with_account("alice", 10_000_000)),
    );
    let site_b = sim.add_node(Box::new(site_b));

    let auditor = sim.add_node(Box::new(Auditor {
        coordinator,
        interval: SimDuration::from_millis(3_000 + 37 * cell as u64),
        beats: spec.heartbeats,
        sent: 0,
        acks: 0,
    }));

    for (node, j) in [
        (central, J_CENTRAL),
        (gateway, J_GATEWAY),
        (site_a, J_SITE_A),
        (site_b, J_SITE_B),
        (auditor, J_AUDITOR),
    ] {
        sim.set_label(node, plan.label(cell, j));
    }

    // Backbone: full mesh over central + gateway + sites, all wired.
    let backbone = [central, gateway, site_a, site_b];
    for (i, &a) in backbone.iter().enumerate() {
        for &b in &backbone[i + 1..] {
            sim.connect(a, b, wired.clone());
        }
    }
    // Control plane: auditor ↔ coordinator over the WAN (possibly remote).
    sim.connect(auditor, coordinator, LinkSpec::wan_backbone());

    let gateway_entries = vec![GatewayEntry { name: format!("gw-{cell}"), node: gateway }];
    let mut devices = Vec::with_capacity(spec.devices_per_cell);
    for d in 0..spec.devices_per_cell {
        let mut cfg = DeviceConfig::new(format!("pda-{cell}-{d}"));
        cfg.central_server = Some(central);
        cfg.gateways = gateway_entries.clone();
        let dev = sim.add_node(Box::new(DeviceNode::new(cfg, device_commands(spec, cell, d))));
        sim.set_label(dev, plan.label(cell, J_DEVICE0 + d));
        sim.connect(dev, central, wireless.clone());
        sim.connect(dev, gateway, wireless.clone());
        devices.push(dev);
    }

    // The operational plane: one cell-local monitor scraping the gateway
    // and both bank MAS sites (resident-agent occupancy, transfer errors).
    // Its label sits just past the device range, so monitor links draw from
    // their own RNG streams and never perturb device or backbone traffic.
    let monitor = if spec.slo {
        let mut mon_spec = MonitorSpec {
            rounds: spec.monitor_rounds,
            rules: default_slo_rules(),
            ..MonitorSpec::default()
        };
        if !spec.chaos {
            // Stagger cadences so cells don't scrape in lockstep; chaos runs
            // keep the plain 5 s cadence so the round-2 scrape of every cell
            // lands inside the outage window.
            mon_spec.cadence = SimDuration::from_millis(5_000 + 41 * cell as u64);
        }
        let mut monitor = SloMonitor::new(
            mon_spec,
            vec![
                (gateway, format!("gw-{cell}")),
                (site_a, format!("mas-a-{cell}")),
                (site_b, format!("mas-b-{cell}")),
            ],
        )
        .with_instance(format!("cell-{cell}"));
        if let Some(pager) = pager {
            monitor = monitor.with_pager(pager);
        }
        let mon = sim.add_node(Box::new(monitor));
        sim.set_label(mon, plan.label(cell, J_DEVICE0 + spec.devices_per_cell));
        sim.connect(mon, gateway, wired.clone());
        sim.connect(mon, site_a, wired.clone());
        sim.connect(mon, site_b, wired.clone());
        if let Some(pager) = pager {
            // Pages ride the WAN backbone: the gateway may live in another
            // shard, and the backbone latency satisfies the lookahead bound.
            sim.connect(mon, pager, LinkSpec::wan_backbone());
        }
        if spec.chaos {
            // Cut the monitor↔gateway link across the round-2 scrape: the
            // request retransmits after the 2 s RTO and lands once the link
            // is back, so the observed RTT blows through the 1 s p99 budget.
            // Expressed as a one-fault ChaosPlan: the injector emits the same
            // two timers (cut, heal) at the same instants and bumps the same
            // chaos.link_down/chaos.link_up keys the old bespoke node did.
            let drill = ChaosPlan::new().with(Fault::partition(
                plan.label(cell, J_DEVICE0 + spec.devices_per_cell),
                plan.label(cell, J_GATEWAY),
                SimDuration::from_millis(9_500),
                SimDuration::from_millis(11_900),
            ));
            let chaos = sim.add_node(Box::new(ChaosInjector::new(drill)));
            sim.set_label(chaos, plan.label(cell, J_DEVICE0 + spec.devices_per_cell + 1));
        }
        Some(mon)
    } else {
        None
    };

    CellIds { shard, gateway, auditor, devices, monitor }
}

/// Run the soak. Builds `spec.shards` simulators (same seed, plan-assigned
/// labels), runs them to idle on the sharded engine, and extracts the
/// per-cell results.
pub fn run_soak(spec: &SoakSpec) -> SoakOutcome {
    run_soak_with(spec, &mut |_, _| {})
}

/// [`run_soak`] with an epoch-barrier hook: `on_epoch(epoch, shards)` runs
/// between every sharded-engine exchange round while no shard is stepping —
/// the chaos suite's window for evaluating invariants over live counters
/// mid-run instead of only at quiesce.
pub fn run_soak_with(
    spec: &SoakSpec,
    on_epoch: &mut dyn FnMut(u64, &[Mutex<Simulator>]),
) -> SoakOutcome {
    let plan = ShardPlan::new(spec.cells, spec.shards);
    let mut shards: Vec<Simulator> = Vec::with_capacity(plan.shards());
    let mut cells: Vec<Option<CellIds>> = (0..spec.cells).map(|_| None).collect();
    let mut coordinator_home: NodeId = 0;
    // The fleet plane needs cell monitors to federate and page from.
    let federation = spec.federation && spec.slo;
    let page_chaos = spec.page_chaos && federation;
    let mut fed_home: NodeId = 0;
    let mut pager_home: NodeId = 0;
    let mut oncall_home: NodeId = 0;
    let mut esc_home: NodeId = 0;
    let mut pager_mon_home: Option<NodeId> = None;

    for s in 0..plan.shards() {
        let mut sim = Simulator::new(spec.seed);
        sim.set_wire_mtu(Some(MTU));
        sim.set_link_batching(spec.batch_links);
        if spec.observe {
            sim.enable_obs();
            if spec.sample {
                sim.obs_mut()
                    .expect("collector attached")
                    .enable_sampling(spec.sampler_cfg.clone());
            }
        }
        // The coordinator lives in shard 0; every other shard sees a
        // placeholder under the same label.
        let coordinator = if s == 0 {
            let id = sim.add_node(Box::new(Coordinator { beats: 0 }));
            sim.set_label(id, COORD_LABEL);
            coordinator_home = id;
            id
        } else {
            sim.add_remote(COORD_LABEL)
        };
        // The paging plane also lives in shard 0: gateway plus a primary and
        // an escalation on-call receiver. Monitors in other shards page a
        // placeholder over the WAN backbone.
        let pager = if federation {
            Some(if s == 0 {
                let oncall = sim.add_node(Box::new(PageReceiver::new(spec.oncall_ack)));
                sim.set_label(oncall, ONCALL_LABEL);
                let esc =
                    sim.add_node(Box::new(PageReceiver::new(Some(SimDuration::from_secs(1)))));
                sim.set_label(esc, ONCALL_ESC_LABEL);
                let mut route = Route::new(Severity::Critical, oncall).with_escalation(esc);
                route.backoff = spec.page_backoff;
                let mut policy = RoutePolicy::new(vec![route]);
                policy.tick = spec.escalation_tick;
                let pg = sim.add_node(Box::new(PagingGateway::new(policy)));
                sim.set_label(pg, PAGER_LABEL);
                sim.connect(pg, oncall, LinkSpec::wired_internet());
                sim.connect(pg, esc, LinkSpec::wired_internet());
                oncall_home = oncall;
                esc_home = esc;
                pager_home = pg;
                if page_chaos {
                    // The notification-path drill: a dedicated monitor
                    // scrapes the paging gateway's own `/metrics` and holds
                    // its delivery latency to a 2 s p99 — paging the pager
                    // (exemplar attached) when the drilled outage below
                    // stretches fire→ack past the budget.
                    let mon_spec = MonitorSpec {
                        rounds: spec.monitor_rounds,
                        rules: vec![SloRule::p99(
                            "page-delivery-p99",
                            "page.deliver",
                            2_000_000.0,
                        )],
                        ..MonitorSpec::default()
                    };
                    let pmon = sim.add_node(Box::new(
                        SloMonitor::new(mon_spec, vec![(pg, "pager".to_owned())])
                            .with_instance("pager-mon".to_owned())
                            .with_pager(pg),
                    ));
                    sim.set_label(pmon, PAGER_MON_LABEL);
                    sim.connect(pmon, pg, LinkSpec::wired_internet());
                    pager_mon_home = Some(pmon);
                    // Cut the pager↔on-call link across the window where the
                    // cell alerts page (~12.1 s): the first delivery is
                    // lost, and only a post-restore retry can land it.
                    let drill = ChaosPlan::new().with(Fault::partition(
                        PAGER_LABEL,
                        ONCALL_LABEL,
                        SimDuration::from_millis(11_500),
                        SimDuration::from_millis(12_500),
                    ));
                    let chaos = sim.add_node(Box::new(ChaosInjector::new(drill)));
                    sim.set_label(chaos, PAGER_CHAOS_LABEL);
                }
                pg
            } else {
                sim.add_remote(PAGER_LABEL)
            })
        } else {
            None
        };
        for cell in plan.cells_of(s) {
            cells[cell] = Some(build_cell(&mut sim, spec, &plan, cell, s, coordinator, pager));
        }
        if s == 0 {
            // Shard 0 needs a placeholder (and a mirrored link) for every
            // auditor it will hear from across the WAN.
            for cell in 0..spec.cells {
                if plan.shard_of(cell) != 0 {
                    let ph = sim.add_remote(plan.label(cell, J_AUDITOR));
                    sim.connect(coordinator, ph, LinkSpec::wan_backbone());
                }
            }
        }
        if federation {
            if s == 0 {
                // The federation scraper fans in over every cell monitor —
                // local monitors directly, remote ones through placeholders
                // that double as the pager's inbound identity for their
                // cross-shard pages.
                let mut targets = Vec::with_capacity(spec.cells);
                for (cell, built) in cells.iter().enumerate() {
                    let mon = if plan.shard_of(cell) == 0 {
                        built.as_ref().expect("shard-0 cell built").monitor.expect("monitor")
                    } else {
                        sim.add_remote(plan.label(cell, J_DEVICE0 + spec.devices_per_cell))
                    };
                    targets.push((mon, format!("cell-{cell}")));
                }
                let fed_spec = FederationSpec {
                    rules: default_federation_rules(),
                    pager: Some(pager.expect("pager built with federation")),
                    ..spec.fed.clone()
                };
                let fed = sim.add_node(Box::new(FederationScraper::new(
                    fed_spec,
                    targets.clone(),
                )));
                sim.set_label(fed, FED_LABEL);
                fed_home = fed;
                for (mon, _) in &targets {
                    sim.connect(fed, *mon, LinkSpec::wan_backbone());
                }
                sim.connect(fed, pager.expect("pager"), LinkSpec::wired_internet());
            } else {
                // Mirror side of the scrape links: every local monitor talks
                // to the scraper's placeholder over the same WAN spec.
                let fed_ph = sim.add_remote(FED_LABEL);
                for cell in plan.cells_of(s) {
                    let mon = cells[cell].as_ref().expect("cell built").monitor.expect("monitor");
                    sim.connect(mon, fed_ph, LinkSpec::wan_backbone());
                }
            }
        }
        // The declarative fault schedule: one injector per shard holding the
        // full plan. Link faults apply wherever both endpoint labels resolve
        // (locally or as remote placeholders); node faults only where the
        // node lives. Added last so an absent (or inert — every intensity at
        // zero) plan leaves node ids, event counts, and therefore every RNG
        // stream and seq number untouched.
        if let Some(cp) = &spec.chaos_plan {
            if !cp.is_inert() {
                let inj = sim.add_node(Box::new(ChaosInjector::new(cp.clone())));
                sim.set_label(inj, GLOBAL_CHAOS_LABEL);
            }
        }
        shards.push(sim);
    }

    let mut engine = ShardedSim::new(shards, LinkSpec::wan_backbone().base_latency);
    engine.export(0, coordinator_home);
    for cell in cells.iter().flatten() {
        engine.export(cell.shard, cell.auditor);
    }
    if federation {
        // Cross-shard receivers of the fleet plane: the scraper (monitor
        // replies), the pager (monitor pages), and every monitor (scrapes).
        engine.export(0, fed_home);
        engine.export(0, pager_home);
        for cell in cells.iter().flatten() {
            engine.export(cell.shard, cell.monitor.expect("monitor"));
        }
    }
    engine.run_until_idle_with(on_epoch);

    // Harvest per-cell aggregates: device vectors in device order, integer
    // counters — deliberately no floating-point sums, so any partitioning
    // (and either batching mode) yields the same bytes.
    let mut out_cells = Vec::with_capacity(spec.cells);
    let mut lost_agents = 0u64;
    let mut duplicate_executions = 0u64;
    let mut replay_overflow = 0u64;
    for cell in cells.iter().flatten() {
        let sim = engine.shard(cell.shard);
        let mut completed = 0u32;
        let mut completion_us = Vec::with_capacity(cell.devices.len());
        let mut pi_bytes = Vec::with_capacity(cell.devices.len());
        let mut wireless_bytes = 0u64;
        for &dev in &cell.devices {
            let node = sim.node_ref::<DeviceNode>(dev).expect("device node");
            if let Some(t) = node.timings.first() {
                completed += 1;
                completion_us.push(t.completion.as_micros());
                pi_bytes.push(t.pi_bytes as u64);
            }
            // No-lost-agents accounting: a dispatched agent must end in a
            // collected result or an error event, and the device's command
            // queue must have drained — anything else is a lost itinerary.
            let mut dispatched = 0u64;
            let mut accounted = 0u64;
            for e in &node.events {
                match e {
                    DeviceEvent::Dispatched { .. } => dispatched += 1,
                    DeviceEvent::ResultCollected { .. } | DeviceEvent::Error { .. } => {
                        accounted += 1
                    }
                    _ => {}
                }
            }
            if (dispatched > 0 && accounted == 0) || !node.idle() {
                lost_agents += 1;
            }
            let m = sim.metrics(dev);
            wireless_bytes += m.bytes_sent + m.bytes_received;
        }
        let gw = sim.metrics(cell.gateway);
        duplicate_executions += gw.counter("gateway.duplicate_executions") as u64;
        let replay_entries = gw.gauge("gateway.replay_entries") as u64;
        replay_overflow +=
            replay_entries.saturating_sub(spec.gateway_replay_cap as u64 + 1);
        out_cells.push(CellResult {
            completed,
            completion_us,
            pi_bytes,
            wireless_bytes,
            auditor_acks: sim.node_ref::<Auditor>(cell.auditor).expect("auditor").acks,
            gateway_replays: gw.counter("gateway.replays") as u64,
            gateway_evictions: (gw.counter("gateway.replay_evictions")
                + gw.counter("gateway.completed_evictions")) as u64,
        });
    }
    let coordinator_beats =
        engine.shard(0).node_ref::<Coordinator>(coordinator_home).expect("coordinator").beats;

    let mut obs = ObsSummary::default();
    let mut sim_secs = 0f64;
    for s in 0..engine.shard_count() {
        if let Some(shard_obs) = engine.shard(s).obs_summary() {
            obs.merge(&shard_obs);
        }
        sim_secs = sim_secs.max(engine.shard(s).now().as_secs_f64());
    }

    // SLO harvest: aggregate per-rule digests across every cell monitor
    // (rule order is fixed by `default_slo_rules`, so summing in cell order
    // is deterministic), and merge each shard's alert timeline into one
    // sequence ordered by (time, rule, instance, edge).
    let mut slo: Vec<SloReport> = Vec::new();
    let mut scrapes_ok = 0u64;
    let mut probe_failures = 0u64;
    let mut unresolved_alerts = 0u64;
    for cell in cells.iter().flatten() {
        let Some(mon_id) = cell.monitor else { continue };
        let mon =
            engine.shard(cell.shard).node_ref::<SloMonitor>(mon_id).expect("monitor node");
        scrapes_ok += mon.scrapes_ok;
        probe_failures += mon.probe_failures;
        unresolved_alerts += mon.breached() as u64;
        for (_instance, reports) in mon.reports() {
            if slo.is_empty() {
                slo = reports;
            } else {
                for (agg, r) in slo.iter_mut().zip(reports) {
                    debug_assert_eq!(agg.name, r.name);
                    agg.evaluations += r.evaluations;
                    agg.fired += r.fired;
                    agg.resolved += r.resolved;
                    agg.breached |= r.breached;
                    agg.last_value = agg.last_value.max(r.last_value);
                }
            }
        }
    }
    // `sim.queue_depth` is a real gauge on every node, but its aggregate
    // depends on how cells are partitioned across shards (each shard runs its
    // own event queue). The rule exists to catch runaway queues; its digest
    // must not leak partition shape into the outcome, so the last observed
    // value is normalized once aggregation is done. Breach counts still
    // propagate — a genuinely runaway queue fires identically everywhere
    // because the per-cell traffic itself is partition-independent.
    for r in slo.iter_mut().filter(|r| r.name == "queue-depth") {
        r.last_value = 0.0;
    }

    // Fleet-plane harvest: the federation scraper's rollup digest and the
    // paging gateway's delivery ledger, both from shard 0. Fleet-rule
    // breaches count toward the same unresolved-alert gate the cell rules
    // feed.
    let federation_report = federation.then(|| {
        engine
            .shard(0)
            .node_ref::<FederationScraper>(fed_home)
            .expect("federation scraper")
            .report()
    });
    if let Some(fed) = &federation_report {
        unresolved_alerts += fed.breached as u64;
    }
    let paging_report = federation.then(|| {
        engine.shard(0).node_ref::<PagingGateway>(pager_home).expect("paging gateway").report()
    });
    let exemplar_pages = if federation {
        [oncall_home, esc_home]
            .iter()
            .map(|&id| {
                engine.shard(0).node_ref::<PageReceiver>(id).expect("receiver").exemplar_pages
            })
            .sum()
    } else {
        0
    };

    // The notification-path monitor's digests (page-chaos drill only); its
    // breaches feed the same unresolved gate as the cell and fleet rules.
    let mut page_slo: Vec<SloReport> = Vec::new();
    if let Some(pmon) = pager_mon_home {
        let mon = engine.shard(0).node_ref::<SloMonitor>(pmon).expect("pager monitor");
        unresolved_alerts += mon.breached() as u64;
        if let Some((_instance, reports)) = mon.reports().into_iter().next() {
            page_slo = reports;
        }
    }

    // Tail-sampler accounting: per-shard stats sum field-wise (budgets
    // included, so the "bytes within budget" gate holds for the fleet).
    let mut sampler: Option<SamplerStats> = None;
    let mut alert_traces_retained = 0u64;
    for s in 0..engine.shard_count() {
        let Some(collector) = engine.shard(s).obs() else { continue };
        if let Some(stats) = collector.sampler_stats() {
            let agg = sampler.get_or_insert_with(SamplerStats::default);
            agg.retained_traces += stats.retained_traces;
            agg.retained_spans += stats.retained_spans;
            agg.dropped_spans += stats.dropped_spans;
            agg.sampler_bytes += stats.sampler_bytes;
            agg.budget_bytes += stats.budget_bytes;
            agg.exemplars += stats.exemplars;
            agg.pending_traces += stats.pending_traces;
            alert_traces_retained += collector
                .retained()
                .iter()
                .filter(|r| r.class == SampleClass::Alert)
                .count() as u64;
        }
    }
    let trace_probe = engine
        .shard(0)
        .obs()
        .filter(|c| c.sampling_enabled())
        .map(|c| render_traces_body(c, "/traces?limit=3"))
        .unwrap_or_default();
    // Resolve the first fired alert edge that carried an exemplar through
    // the query plane of the collector that recorded it — the acceptance
    // path: breached histogram → exemplar trace id → renderable timeline.
    let mut exemplar_probe: Option<(u64, String)> = None;
    'shards: for s in 0..engine.shard_count() {
        let Some(collector) = engine.shard(s).obs() else { continue };
        for e in collector.events() {
            if e.fired && e.exemplar != 0 {
                let body =
                    render_traces_body(collector, &format!("/traces?trace={}", e.exemplar));
                exemplar_probe = Some((e.exemplar, body));
                break 'shards;
            }
        }
    }

    let mut alerts: Vec<ObsEvent> = Vec::new();
    for s in 0..engine.shard_count() {
        if let Some(collector) = engine.shard(s).obs() {
            alerts.extend_from_slice(collector.events());
        }
    }
    alerts.sort_by(|a, b| {
        (a.at.0, &a.rule, &a.instance, a.fired).cmp(&(b.at.0, &b.rule, &b.instance, b.fired))
    });

    // Capture flight recorders for cells whose monitor saw an alert edge:
    // the monitor's view (alert spans) and the gateway's (serving spans).
    let mut flight: Vec<(String, String)> = Vec::new();
    if !alerts.is_empty() {
        for (i, cell) in cells.iter().flatten().enumerate() {
            let Some(mon_id) = cell.monitor else { continue };
            let instance = format!("gw-{i}");
            if !alerts.iter().any(|e| e.instance == instance) {
                continue;
            }
            if let Some(collector) = engine.shard(cell.shard).obs() {
                for (name, node) in
                    [(format!("mon-{i}"), mon_id), (instance.clone(), cell.gateway)]
                {
                    let rec = FlightRecorder::capture(collector, node, 256);
                    if !rec.is_empty() {
                        flight.push((name, rec.to_jsonl()));
                    }
                }
            }
        }
    }
    // The pager's own view — page.deliver / page.escalate spans — whenever
    // any page actually fired.
    if paging_report.as_ref().is_some_and(|p| p.fired > 0) {
        if let Some(collector) = engine.shard(0).obs() {
            let rec = FlightRecorder::capture(collector, pager_home, 256);
            if !rec.is_empty() {
                flight.push(("pager".to_string(), rec.to_jsonl()));
            }
        }
    }

    // Remaining chaos-suite oracles, summed over every node of every shard.
    let mut epoch_regressions = 0u64;
    let mut chaos_activity = [0u64; 5];
    for s in 0..engine.shard_count() {
        let sim = engine.shard(s);
        epoch_regressions += sim.counter_total("slo.epoch_regressions") as u64;
        for (slot, key) in [
            "chaos.loss_drops",
            "chaos.corrupt_drops",
            "chaos.dups",
            "chaos.reorders",
            "chaos.crash_drops",
        ]
        .iter()
        .enumerate()
        {
            chaos_activity[slot] += sim.counter_total(key) as u64;
        }
    }

    let devices = spec.devices();
    let events = engine.events_processed();
    SoakOutcome {
        results: SoakResults { cells: out_cells, coordinator_beats },
        devices,
        events,
        events_per_device: events as f64 / devices as f64,
        peak_queue: engine.peak_queue_depth(),
        epochs: engine.epochs(),
        sim_secs,
        obs,
        slo,
        alerts,
        scrapes_ok,
        probe_failures,
        unresolved_alerts,
        federation: federation_report,
        paging: paging_report,
        flight,
        sampler,
        alert_traces_retained,
        exemplar_pages,
        trace_probe,
        exemplar_probe,
        page_slo,
        lost_agents,
        duplicate_executions,
        epoch_regressions,
        replay_overflow,
        chaos_activity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> SoakSpec {
        let mut spec = SoakSpec::new(seed, 3, 2);
        spec.pi_pad = 4 * 1024; // keep debug-mode runtime low
        spec
    }

    #[test]
    fn soak_completes_every_device_and_heartbeat() {
        let out = run_soak(&tiny(11));
        assert_eq!(out.devices, 6);
        for (i, cell) in out.results.cells.iter().enumerate() {
            assert_eq!(cell.completed, 2, "cell {i} incomplete");
            assert_eq!(cell.auditor_acks, 4, "cell {i} acks");
            assert!(cell.wireless_bytes > 8 * 1024, "cell {i} moved too little");
            assert!(cell.completion_us.iter().all(|&us| us > 0));
        }
        assert_eq!(out.results.coordinator_beats, 3 * 4);
        assert!(out.events > 0 && out.peak_queue > 0);
    }

    #[test]
    fn sharded_soak_is_byte_identical_to_single_shard() {
        let mono = run_soak(&tiny(12));
        for shards in [2, 3] {
            let mut spec = tiny(12);
            spec.shards = shards;
            let split = run_soak(&spec);
            assert_eq!(mono.results, split.results, "{shards} shards diverged");
            assert_eq!(mono.events, split.events, "event totals diverged");
            assert!(split.epochs > 1, "expected multiple epochs");
        }
    }

    #[test]
    fn batching_reduces_events_but_not_results() {
        let batched = run_soak(&tiny(13));
        let mut spec = tiny(13);
        spec.batch_links = false;
        let unbatched = run_soak(&spec);
        assert_eq!(batched.results, unbatched.results);
        assert!(
            unbatched.events > batched.events,
            "per-fragment mode must cost extra events ({} vs {})",
            unbatched.events,
            batched.events
        );
    }

    #[test]
    fn observability_does_not_perturb_the_soak() {
        let plain = run_soak(&tiny(14));
        let mut spec = tiny(14);
        spec.observe = true;
        let observed = run_soak(&spec);
        assert_eq!(plain.results, observed.results);
        assert_eq!(plain.events, observed.events);
        assert!(observed.obs.traces >= 6, "one trace per deploy");
    }

    #[test]
    fn slo_monitoring_does_not_perturb_results() {
        let plain = run_soak(&tiny(15));
        let mut spec = tiny(15);
        spec.slo = true;
        let monitored = run_soak(&spec);
        // Monitors ride their own labelled links, so device/auditor results
        // must not move even though the event count grows with scrapes.
        assert_eq!(plain.results, monitored.results);
        assert!(monitored.events > plain.events, "scrapes must cost events");
        assert_eq!(monitored.slo.len(), 9, "default rule set evaluated");
        for r in &monitored.slo {
            assert!(r.evaluations > 0, "rule {} never evaluated", r.name);
            assert!(!r.breached, "rule {} breached in a healthy soak", r.name);
            assert_eq!(r.fired, 0, "rule {} fired in a healthy soak", r.name);
        }
        assert_eq!(
            monitored.scrapes_ok,
            3 * 6 * 3,
            "one scrape per target (gateway + 2 MAS sites) per cell per round"
        );
        assert_eq!(monitored.probe_failures, 0);
        assert_eq!(monitored.unresolved_alerts, 0);
    }

    #[test]
    fn slo_soak_is_byte_identical_across_shards() {
        let mut base = tiny(16);
        base.slo = true;
        let mono = run_soak(&base);
        for shards in [2, 3] {
            let mut spec = base.clone();
            spec.shards = shards;
            let split = run_soak(&spec);
            assert_eq!(mono.results, split.results, "{shards} shards diverged");
            assert_eq!(mono.events, split.events, "event totals diverged");
            // Scrape bodies are built from cell-local counters, so even the
            // per-rule digests (f64 values included) must match bit-for-bit.
            assert_eq!(mono.slo, split.slo, "{shards}-shard SLO digests diverged");
        }
    }

    #[test]
    fn chaos_fires_and_resolves_latency_alert() {
        let mut calm = tiny(17);
        calm.slo = true;
        calm.observe = true;
        let mut stormy = calm.clone();
        stormy.chaos = true;
        let calm_out = run_soak(&calm);
        let out = run_soak(&stormy);

        // Chaos only cuts monitor links: the workload results are untouched,
        // modulo the monitors seeing the injected outage.
        assert_eq!(calm_out.results, out.results);
        assert!(calm_out.alerts.is_empty(), "calm soak must stay silent");

        // Every cell's round-2 scrape retransmitted into a >1 s RTT, so the
        // latency rule fired — and resolved on the next healthy window.
        let latency = out
            .slo
            .iter()
            .find(|r| r.name == "scrape-latency-p99")
            .expect("latency rule evaluated");
        assert_eq!(latency.fired, 3, "one alert per cell");
        assert_eq!(latency.resolved, 3, "every alert resolved");
        assert!(!latency.breached);
        assert_eq!(out.unresolved_alerts, 0);

        // The merged timeline holds a fire+resolve edge pair per cell, in
        // time order, each carrying a minted trace id.
        assert_eq!(out.alerts.len(), 6);
        assert!(out.alerts.windows(2).all(|w| w[0].at <= w[1].at));
        for cell in 0..3 {
            let instance = format!("gw-{cell}");
            let edges: Vec<&ObsEvent> =
                out.alerts.iter().filter(|e| e.instance == instance).collect();
            assert_eq!(edges.len(), 2, "{instance} edge count");
            assert!(edges[0].fired && !edges[1].fired, "{instance} fire then resolve");
            assert!(edges[0].value > edges[0].limit);
            assert!(edges[1].value <= edges[1].limit);
            assert!(edges[0].trace != 0, "alert must mint a trace");
            assert_eq!(edges[0].trace, edges[1].trace, "resolve shares the episode trace");
        }

        // Flight recorders were captured for every alerting cell: the
        // monitor's view (with the slo.alert span) and the gateway's.
        assert_eq!(out.flight.len(), 6);
        let mon_dump = &out.flight.iter().find(|(n, _)| n == "mon-0").expect("mon-0 dump").1;
        assert!(mon_dump.contains("\"record\":\"alert\""));
        assert!(mon_dump.contains("slo.alert"));
        assert!(mon_dump.contains("\"rule\":\"scrape-latency-p99\""));

        // And the dump lands on disk where CI collects incident artifacts.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/flightrec");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("chaos-mon-0.jsonl");
        std::fs::write(&path, mon_dump).unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.lines().count() >= 2, "dump holds the fire+resolve edges");
    }

    #[test]
    fn federation_does_not_perturb_results() {
        let mut plain = tiny(19);
        plain.slo = true;
        let mut fed_spec = plain.clone();
        fed_spec.federation = true;
        let base = run_soak(&plain);
        let fed = run_soak(&fed_spec);

        // The fleet plane rides its own labelled links, so the workload and
        // the cell-level SLO digests are untouched; only the event count
        // grows with the extra scrape/rollup traffic.
        assert_eq!(base.results, fed.results);
        assert_eq!(base.slo, fed.slo, "cell SLO digests moved under federation");
        assert!(fed.events > base.events, "federated scrapes must cost events");
        assert!(base.federation.is_none() && base.paging.is_none());

        let report = fed.federation.as_ref().expect("federation report");
        assert_eq!(report.cells, 3);
        assert_eq!(report.rounds, 3);
        assert_eq!(report.scrapes_ok, 3 * 3, "one scrape per cell per round");
        assert_eq!(report.scrape_failures, 0);
        assert_eq!(report.dropped_series, 0);
        assert!(report.peak_inflight >= 1);
        assert_eq!(report.staleness.count(), 3 * 3, "one staleness sample per cell per round");
        assert_eq!(report.rtt.count(), 3 * 3);
        assert_eq!(report.breached, 0, "fleet rules must hold in a healthy soak");
        for r in &report.slo {
            assert!(r.evaluations > 0, "fleet rule {} never evaluated", r.name);
            assert_eq!(r.fired, 0, "fleet rule {} fired in a healthy soak", r.name);
        }

        let paging = fed.paging.as_ref().expect("paging report");
        assert_eq!(paging.fired, 0, "no pages in a healthy soak");
        assert_eq!(paging.dropped, 0);
        assert_eq!(fed.unresolved_alerts, 0);
    }

    #[test]
    fn federated_soak_is_byte_identical_across_shards() {
        let mut base = tiny(20);
        base.slo = true;
        base.federation = true;
        let mono = run_soak(&base);
        let mono_fed = mono.federation.as_ref().expect("federation report");
        for shards in [2, 3] {
            let mut spec = base.clone();
            spec.shards = shards;
            let split = run_soak(&spec);
            assert_eq!(mono.results, split.results, "{shards} shards diverged");
            assert_eq!(mono.events, split.events, "event totals diverged");
            assert_eq!(mono.slo, split.slo, "{shards}-shard cell SLO digests diverged");
            // The scraper always lives in shard 0 while its targets move
            // between shards; because link randomness is keyed by stable
            // labels, every RTT and staleness sample must still match
            // bit-for-bit.
            let fed = split.federation.as_ref().expect("federation report");
            assert_eq!(mono_fed.scrapes_ok, fed.scrapes_ok, "{shards}-shard scrape counts");
            assert_eq!(mono_fed.scrape_failures, fed.scrape_failures);
            assert_eq!(mono_fed.dropped_series, fed.dropped_series);
            assert_eq!(mono_fed.staleness, fed.staleness, "{shards}-shard staleness diverged");
            assert_eq!(mono_fed.rtt, fed.rtt, "{shards}-shard scrape RTTs diverged");
            assert_eq!(mono_fed.slo, fed.slo, "{shards}-shard fleet SLO digests diverged");
        }
    }

    #[test]
    fn full_snapshot_mode_is_byte_identical_across_shards() {
        // The delta-default variant is covered above; this pins the
        // `fed.delta = false` ablation to the same shard invariance.
        let mut base = tiny(22);
        base.slo = true;
        base.federation = true;
        base.fed.delta = false;
        let mono = run_soak(&base);
        let mono_fed = mono.federation.as_ref().expect("federation report");
        assert_eq!(mono_fed.delta_scrapes, 0, "full mode must never ask for deltas");
        assert_eq!(mono_fed.full_scrapes, mono_fed.scrapes_ok);
        assert_eq!(mono_fed.resyncs, 0);
        for shards in [2, 3] {
            let mut spec = base.clone();
            spec.shards = shards;
            let split = run_soak(&spec);
            let fed = split.federation.as_ref().expect("federation report");
            assert_eq!(mono.results, split.results, "{shards} shards diverged");
            assert_eq!(mono.events, split.events, "event totals diverged");
            assert_eq!(mono_fed.scraped_bytes, fed.scraped_bytes, "{shards}-shard scrape bytes");
            assert_eq!(mono_fed.staleness, fed.staleness, "{shards}-shard staleness diverged");
            assert_eq!(mono_fed.slo, fed.slo, "{shards}-shard fleet SLO digests diverged");
        }
    }

    #[test]
    fn delta_mode_shrinks_scrape_bytes_without_touching_verdicts() {
        let mut full = tiny(24);
        full.slo = true;
        full.federation = true;
        full.fed.delta = false;
        full.fed.rounds = 6;
        let mut delta = full.clone();
        delta.fed.delta = true;
        let f = run_soak(&full);
        let d = run_soak(&delta);

        // The scrape encoding must be invisible to everything below it: the
        // workload results and the cell-level SLO digests are derived from
        // device/gateway traffic the fleet plane never touches.
        assert_eq!(f.results, d.results, "scrape encoding perturbed the workload");
        assert_eq!(f.slo, d.slo, "cell SLO digests moved with scrape encoding");

        let fr = f.federation.as_ref().expect("federation report");
        let dr = d.federation.as_ref().expect("federation report");
        assert_eq!(fr.scrape_failures, 0);
        assert_eq!(dr.scrape_failures, 0);
        assert_eq!(dr.resyncs, 0, "healthy cells must never force a resync");
        assert!(dr.delta_scrapes > 0, "delta mode never used a delta");
        assert_eq!(
            dr.delta_scrapes + dr.full_scrapes,
            dr.scrapes_ok,
            "every ok scrape is either delta or full"
        );
        assert!(
            dr.scraped_bytes < fr.scraped_bytes,
            "delta mode must shrink scrape bytes: {} vs {}",
            dr.scraped_bytes,
            fr.scraped_bytes
        );
        assert_eq!(fr.breached, 0);
        assert_eq!(dr.breached, 0);
        for (a, b) in fr.slo.iter().zip(&dr.slo) {
            assert_eq!(a.fired, b.fired, "rule {} verdicts diverged across modes", a.name);
        }
    }

    #[test]
    fn undersized_fan_in_window_breaches_staleness_not_drops() {
        // Deliberately starve the fan-in: one scrape in flight at a time,
        // one target per 8 s batch tick, 6 cells — a round takes ~40 s to
        // dispatch while the cadence asks for one every 5 s. Congestion has
        // to surface as *staleness rule breaches*, never as silent drops.
        let mut spec = SoakSpec::new(23, 6, 2);
        spec.pi_pad = 4 * 1024;
        spec.slo = true;
        spec.federation = true;
        spec.fed.max_inflight = 1;
        spec.fed.batch = 1;
        spec.fed.batch_spacing = SimDuration::from_secs(8);
        spec.fed.cadence = SimDuration::from_secs(5);
        spec.fed.rounds = 4;
        spec.fed.stale_after = SimDuration::from_secs(600);
        let out = run_soak(&spec);
        let fed = out.federation.as_ref().expect("federation report");
        assert_eq!(fed.scrape_failures, 0, "congestion must not fail scrapes");
        assert_eq!(fed.dropped_series, 0, "congestion must not drop series");
        assert_eq!(fed.peak_inflight, 1, "window must be respected");
        let fired: u64 = fed
            .slo
            .iter()
            .filter(|r| r.name.starts_with("fed-staleness"))
            .map(|r| r.fired)
            .sum();
        assert!(fired >= 1, "undersized window must breach a staleness rule: {:?}", fed.slo);
        assert!(
            fed.staleness.max() > 30_000_000,
            "per-cell ages must exceed the 30 s bound: {}",
            fed.staleness.max()
        );
    }

    #[test]
    fn chaos_with_federation_delivers_pages() {
        let mut spec = tiny(21);
        spec.slo = true;
        spec.observe = true;
        spec.chaos = true;
        spec.federation = true;
        let out = run_soak(&spec);

        // Chaos fires the latency rule once per cell; each edge pages the
        // gateway, the on-call receiver acks after its 2 s think time, and
        // the 60 s escalation tick never gets a chance to fire.
        let paging = out.paging.as_ref().expect("paging report");
        assert_eq!(paging.fired, 3, "one page per cell alert");
        assert_eq!(paging.delivered, 3, "every page acked");
        assert_eq!(paging.dropped, 0);
        assert_eq!(paging.escalated, 0, "prompt acks suppress escalation");
        assert!(
            paging.delivery.max() >= 2_000_000,
            "fire→ack latency covers the on-call think time"
        );
        assert_eq!(out.unresolved_alerts, 0);

        // The pager's flight dump rides along with the per-cell ones.
        assert!(out.flight.iter().any(|(n, _)| n == "pager"), "pager flight dump captured");
        let dump = &out.flight.iter().find(|(n, _)| n == "pager").unwrap().1;
        assert!(dump.contains("page.deliver"), "delivery spans recorded");
    }

    #[test]
    fn tail_sampling_is_invisible_outside_the_reservoir() {
        // With no scrape plane the sampler cannot even change message sizes:
        // the whole run — results, event count, obs digest — must be
        // byte-identical, while almost every trace is dropped.
        let mut off = tiny(26);
        off.observe = true;
        let mut on = off.clone();
        on.sample = true;
        let plain = run_soak(&off);
        let sampled = run_soak(&on);
        assert_eq!(plain.results, sampled.results);
        assert_eq!(plain.events, sampled.events, "sampling changed the event count");
        assert_eq!(plain.obs, sampled.obs, "sampling changed the obs digest");
        assert!(plain.sampler.is_none());
        let stats = sampled.sampler.expect("sampler stats harvested");
        assert!(stats.sampler_bytes <= stats.budget_bytes, "{stats:?}");
        assert!(stats.dropped_spans > 0, "default 1-in-64 head rate must drop spans");
        assert_eq!(stats.pending_traces, 0, "drained sim left traces buffering");
        assert!(sampled.trace_probe.starts_with("traces "), "{}", sampled.trace_probe);
    }

    #[test]
    fn sampled_soak_is_byte_identical_across_shards() {
        let mut base = tiny(27);
        base.observe = true;
        base.slo = true;
        base.sample = true;
        let mono = run_soak(&base);
        for shards in [2, 3] {
            let mut spec = base.clone();
            spec.shards = shards;
            let split = run_soak(&spec);
            assert_eq!(mono.results, split.results, "{shards} shards diverged");
            // The obs digest (stage histograms record whether or not spans
            // are retained) merges to the same bytes at any partitioning.
            assert_eq!(mono.obs, split.obs, "{shards}-shard obs digests diverged");
            let stats = split.sampler.expect("sampler stats");
            assert!(stats.sampler_bytes <= stats.budget_bytes);
            assert_eq!(stats.pending_traces, 0);
        }
    }

    #[test]
    fn chaos_with_sampling_retains_every_alert_episode() {
        let mut spec = tiny(28);
        spec.slo = true;
        spec.observe = true;
        spec.chaos = true;
        spec.sample = true;
        let out = run_soak(&spec);
        // The chaos soak fires one latency alert per cell; each episode's
        // trace is alert-pinned and must survive in the reservoir.
        let fired: u64 = out.slo.iter().map(|r| r.fired).sum();
        assert_eq!(fired, 3);
        assert!(
            out.alert_traces_retained >= fired,
            "only {} alert traces retained for {} fired episodes",
            out.alert_traces_retained,
            fired
        );
        let stats = out.sampler.expect("sampler stats");
        assert!(stats.retained_traces >= out.alert_traces_retained);
        assert!(stats.exemplars > 0, "retained traces must populate exemplar slots");
    }

    #[test]
    fn page_chaos_drill_breaches_delivery_slo_with_exemplar() {
        let mut spec = tiny(29);
        spec.slo = true;
        spec.observe = true;
        spec.chaos = true;
        spec.federation = true;
        spec.sample = true;
        spec.page_chaos = true;
        // A retry two seconds after the lost first delivery lands once the
        // injected outage lifts — and the on-call picks up fast enough to
        // beat the cell alerts' resolve edge closing the pages.
        spec.page_backoff = SimDuration::from_secs(2);
        spec.oncall_ack = Some(SimDuration::from_millis(500));
        let out = run_soak(&spec);

        // The cut link delayed but did not lose the pages.
        let paging = out.paging.as_ref().expect("paging report");
        assert_eq!(paging.dropped, 0, "drill must not lose pages");
        assert!(paging.delivered >= 3, "post-restore retries must land: {paging:?}");
        assert!(
            paging.delivery.max() >= 2_000_000,
            "fire→ack must show the outage: {} us",
            paging.delivery.max()
        );

        // The notification-path rule saw the stretched deliveries, fired,
        // and resolved once the path drained.
        let rule = out.page_slo.iter().find(|r| r.name == "page-delivery-p99");
        let rule = rule.expect("page-delivery rule evaluated");
        assert!(rule.evaluations > 0);
        assert_eq!(rule.fired, 1, "drill must breach the delivery SLO: {rule:?}");
        assert_eq!(rule.resolved, 1, "breach must resolve after the path drains");
        assert!(!rule.breached);
        assert_eq!(out.unresolved_alerts, 0);

        // The breach edge carried the worst retained delivery trace as its
        // exemplar, the page to the on-call carried it onward, and the id
        // resolves through /traces to a renderable timeline.
        let edge = out
            .alerts
            .iter()
            .find(|e| e.rule == "page-delivery-p99" && e.fired)
            .expect("delivery breach in the merged timeline");
        assert_ne!(edge.exemplar, 0, "breach edge must carry an exemplar");
        assert!(out.exemplar_pages >= 1, "exemplar must ride the page wire");
        let (trace, body) = out.exemplar_probe.as_ref().expect("exemplar probe resolved");
        assert_eq!(*trace, edge.exemplar);
        assert!(
            !body.contains("not retained"),
            "exemplar trace must be retained: {body}"
        );
        assert!(body.contains("page.deliver"), "timeline must show the delivery span: {body}");
    }

    #[test]
    fn page_chaos_drill_leaves_results_untouched() {
        let mut base = tiny(30);
        base.slo = true;
        base.observe = true;
        base.chaos = true;
        base.federation = true;
        let mut drill = base.clone();
        drill.page_chaos = true;
        drill.page_backoff = SimDuration::from_secs(2);
        drill.oncall_ack = Some(SimDuration::from_millis(500));
        let plain = run_soak(&base);
        let drilled = run_soak(&drill);
        // The drill only touches pager links and adds its own monitor: the
        // workload results and the cell SLO digests must not move.
        assert_eq!(plain.results, drilled.results);
        assert_eq!(plain.slo, drilled.slo, "cell SLO digests moved under the drill");
        assert!(plain.page_slo.is_empty());
    }
}

