//! The four workloads: inputs generated from the seed, topologies built from
//! the program's public constructors, and the harvest of results, failures
//! and counters after a run.
//!
//! A workload *pass* is `instances` independent fleets of `cells` cells each.
//! Every instance is its own [`ShardedSim`] with its own setup, so one run
//! yields one host-time sample per instance and the reported host metrics are
//! medians over them. A cell is a gateway with its central server, `banks`
//! bank MAS sites on a wired full mesh, and `devices_per_cell` handhelds on
//! GPRS links, each subscribing to and deploying the e-banking agent once.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pdagent_apps::ebank::{declines, ebank_program, itinerary_for, receipts, transactions_param};
use pdagent_apps::{BankService, Transaction};
use pdagent_bench::shard::ShardedSim;
use pdagent_core::shard::ShardPlan;
use pdagent_core::{DeployRequest, DeviceCommand, DeviceConfig, DeviceEvent, DeviceNode};
use pdagent_gateway::central::{CentralServer, GatewayEntry};
use pdagent_gateway::pi::ResultDoc;
use pdagent_gateway::server::{GatewayConfig, GatewayNode};
use pdagent_mas::server::SiteDirectory;
use pdagent_mas::{MasNode, Service};
use pdagent_net::chaos::{ChaosInjector, ChaosPlan, Fault};
use pdagent_net::federation::{default_federation_rules, FederationScraper, FederationSpec};
use pdagent_net::link::LinkSpec;
use pdagent_net::metrics::KEY_QUEUE_DEPTH;
use pdagent_net::obs::SamplerConfig;
use pdagent_net::paging::{PageReceiver, PagingGateway, Route, RoutePolicy, Severity};
use pdagent_net::sim::{Node, NodeId, Simulator};
use pdagent_net::slo::{
    MonitorSpec, SloMonitor, SloRule, KEY_PROBE_FAILURES, KEY_SCRAPE_STALENESS, STAGE_SCRAPE_RTT,
};
use pdagent_net::time::SimDuration;
use pdagent_vm::Value;

use crate::stats::Fnv;
use crate::timed::{Kept, Role, ShardClock, Timed};

/// One workload's shape. Every field is fixed per workload; only the seed
/// varies between runs.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// Why the workload exists, one line.
    pub why: &'static str,
    /// Cells per instance.
    pub cells: usize,
    /// Handhelds per cell.
    pub devices_per_cell: usize,
    /// Instances per pass.
    pub instances: usize,
    /// Bytes of incompressible pad in each PI.
    pub pad: usize,
    /// e-bank transactions per deploy.
    pub transactions: usize,
    /// Bank MAS sites per cell; transaction `i` goes to bank `i % banks`.
    pub banks: usize,
    /// Simulator shards per instance.
    pub shards: usize,
    /// Run the operations planes: per-cell SLO monitors, the federation
    /// scraper, the paging gateway, and tail-sampled observability.
    pub planes: bool,
    /// Run the loss/duplication/crash chaos plan.
    pub chaos: bool,
}

/// The benchmark's workloads.
pub const SHAPES: [Shape; 4] = [
    Shape {
        name: "bulk_pi",
        why: "48 KB incompressible PIs, 1 transaction: codec is about 80% of host time, so codec, crypto, XML and gateway changes show here and MAS/VM/plane changes do not",
        cells: 10,
        devices_per_cell: 10,
        instances: 10,
        pad: 48 * 1024,
        transactions: 1,
        banks: 2,
        shards: 1,
        planes: false,
        chaos: false,
    },
    Shape {
        name: "roaming",
        why: "1 KB PIs, 32 transactions over 8 bank sites: MAS hops and VM interpretation dominate, and the codec takes its small-document LZSS path",
        cells: 10,
        devices_per_cell: 10,
        instances: 20,
        pad: 1024,
        transactions: 32,
        banks: 8,
        shards: 1,
        planes: false,
        chaos: false,
    },
    Shape {
        name: "fleet_ops",
        why: "1 s SLO scrapes, federation, paging and tail sampling over 2 shards: the only workload where plane and sharding changes show",
        cells: 30,
        devices_per_cell: 10,
        instances: 10,
        pad: 1024,
        transactions: 1,
        banks: 2,
        shards: 2,
        planes: true,
        chaos: false,
    },
    Shape {
        name: "lossy",
        why: "5% loss and duplication on every device link plus handheld crashes: the only workload off the fast path, through retransmits and replay-cache hits",
        cells: 20,
        devices_per_cell: 10,
        instances: 10,
        pad: 8 * 1024,
        transactions: 1,
        banks: 2,
        shards: 1,
        planes: false,
        chaos: true,
    },
];

/// Look a workload up by name.
pub fn shape(name: &str) -> Option<Shape> {
    SHAPES.iter().copied().find(|s| s.name == name)
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Opening balance of the paying account at every bank.
const OPENING_CENTS: i64 = 10_000_000;

/// splitmix64: every input is a pure function of the run seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Incompressible-ish PI padding: six bits of entropy per byte (a base64
/// alphabet driven by xorshift64*), so the PI codec cannot flatten it.
fn pad_text(len: usize, seed: u64) -> String {
    const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    let mut state = seed | 1;
    let mut out = String::with_capacity(len);
    for _ in 0..len {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        out.push(ALPHABET[(state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 58) as usize] as char);
    }
    out
}

/// Name of bank site `k`.
pub fn bank_name(k: usize) -> String {
    format!("bank-{k}")
}

/// One handheld's generated inputs.
pub struct DeviceInputs {
    /// The transactions its deploy carries.
    pub txs: Vec<Transaction>,
    /// Its command queue; taken by [`build`].
    commands: Vec<DeviceCommand>,
}

/// One cell's generated inputs.
pub struct CellInputs {
    /// Seed of the cell gateway's RSA key pair.
    pub key_seed: u64,
    /// The cell's handhelds, in device order.
    pub devices: Vec<DeviceInputs>,
}

/// Everything one instance needs, generated before set-up starts.
pub struct Inputs {
    /// Simulator (and link-stream) seed.
    pub seed: u64,
    /// Cells in order.
    pub cells: Vec<CellInputs>,
    /// The chaos plan (chaos workloads only).
    pub plan: Option<ChaosPlan>,
}

impl Inputs {
    /// A copy of every deploy request, per cell in device order. Call it
    /// before [`build`], which moves the command queues into the devices.
    pub fn deploys(&self) -> Vec<Vec<DeployRequest>> {
        self.cells
            .iter()
            .map(|cell| {
                cell.devices
                    .iter()
                    .map(|d| {
                        d.commands
                            .iter()
                            .find_map(|c| match c {
                                DeviceCommand::Deploy(d) => Some(d.clone()),
                                _ => None,
                            })
                            .expect("deploys are copied before build takes the commands")
                    })
                    .collect()
            })
            .collect()
    }
}

/// Generate instance `index` of `shape` for run seed `seed`.
pub fn generate(shape: &Shape, seed: u64, index: usize) -> Inputs {
    let iseed = mix(seed ^ mix(index as u64 + 1));
    let cells = (0..shape.cells)
        .map(|cell| {
            let cseed = mix(iseed ^ mix(1_000 + cell as u64));
            let devices = (0..shape.devices_per_cell)
                .map(|dev| {
                    let dseed = mix(cseed ^ mix(dev as u64 + 7));
                    let txs: Vec<Transaction> = (0..shape.transactions)
                        .map(|i| {
                            let amount = 100 + (mix(dseed ^ i as u64) % 4_900) as i64;
                            Transaction::new(
                                bank_name(i % shape.banks),
                                "alice",
                                format!("payee-{i}"),
                                amount,
                            )
                        })
                        .collect();
                    let deploy = DeployRequest::new(
                        "ebank",
                        vec![
                            transactions_param(&txs),
                            ("pi_pad".into(), Value::Str(pad_text(shape.pad, dseed))),
                        ],
                        itinerary_for(&txs),
                    );
                    // Devices within a cell key up 2 s apart; cells are offset
                    // by a prime-ish 23 ms so no two cells move in lockstep.
                    let stagger = SimDuration::from_millis(2_000 * dev as u64 + 23 * cell as u64);
                    let commands = vec![
                        DeviceCommand::Wait(stagger),
                        DeviceCommand::Subscribe {
                            service: "ebank".into(),
                        },
                        DeviceCommand::Deploy(deploy),
                    ];
                    DeviceInputs { txs, commands }
                })
                .collect();
            CellInputs {
                key_seed: cseed >> 16,
                devices,
            }
        })
        .collect();
    let plan = shape.chaos.then(|| chaos_plan(shape));
    Inputs {
        seed: iseed,
        cells,
        plan,
    }
}

/// The lossy workload's plan: 5% loss and 5% duplication (copies up to
/// 50 ms late) on every device↔gateway link for the first 300 s, and one 3 s
/// crash per cell, of the handheld whose upload is then on the air.
///
/// The crash hits a handheld, not the gateway: a paused gateway drops the
/// MAS's unacknowledged agent completion, after which the handheld polls for
/// its result forever and the run never drains.
fn chaos_plan(shape: &Shape) -> ChaosPlan {
    let layout = Layout::new(shape);
    let labels = ShardPlan::new(shape.cells, 1);
    let window = SimDuration::from_secs(300);
    let mut plan = ChaosPlan::new();
    for cell in 0..shape.cells {
        let gw = labels.label(cell, layout.gateway);
        for dev in 0..shape.devices_per_cell {
            let d = labels.label(cell, layout.device(dev));
            plan = plan
                .with(Fault::loss(d, gw, SimDuration::ZERO, window, 0.05))
                .with(Fault::duplicate(
                    d,
                    gw,
                    SimDuration::ZERO,
                    window,
                    0.05,
                    SimDuration::from_millis(50),
                ));
        }
        // Device `dev` keys up at 2 s·dev; six seconds in, its PI is uploading.
        let dev = cell % shape.devices_per_cell;
        let from = SimDuration::from_millis(2_000 * dev as u64 + 6_000);
        plan = plan.with(Fault::crash(
            labels.label(cell, layout.device(dev)),
            from,
            from + SimDuration::from_secs(3),
        ));
    }
    plan
}

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

/// Labels of the shard-0 singletons (below the first cell's label stride).
const FED_LABEL: u64 = 2;
const PAGER_LABEL: u64 = 3;
const ONCALL_LABEL: u64 = 4;
const ONCALL_ESC_LABEL: u64 = 5;
const CHAOS_LABEL: u64 = 8;

/// Node index of each role within a cell's label space.
struct Layout {
    central: usize,
    gateway: usize,
    banks: usize,
    devices: usize,
}

impl Layout {
    fn new(shape: &Shape) -> Layout {
        Layout {
            central: 0,
            gateway: 1,
            banks: shape.banks,
            devices: shape.devices_per_cell,
        }
    }
    fn site(&self, k: usize) -> usize {
        2 + k
    }
    fn device(&self, d: usize) -> usize {
        2 + self.banks + d
    }
    fn monitor(&self) -> usize {
        2 + self.banks + self.devices
    }
}

/// The nine SLO rules every cell monitor evaluates against its gateway and
/// the first two bank sites. A copy of the soak's rule set, kept here so the
/// benchmark's work does not change when the soak's rules do.
fn slo_rules() -> Vec<SloRule> {
    vec![
        SloRule::p99("scrape-latency-p99", STAGE_SCRAPE_RTT, 1_000_000.0),
        SloRule::gauge("probe-failures", KEY_PROBE_FAILURES, 2.0),
        SloRule::gauge("replay-occupancy", "gateway.replay_entries", 64.0),
        SloRule::error_ratio("gateway-error-ratio", "http.gave_up", "msgs_sent", 0.01),
        SloRule::burn_rate("drop-burn-rate", "msgs_dropped", "msgs_sent", 1, 3, 0.9),
        SloRule::gauge("mas-occupancy", "mas.resident_agents", 8.0),
        SloRule::error_ratio(
            "mas-error-ratio",
            "mas.transfer_send_failed",
            "msgs_sent",
            0.01,
        ),
        SloRule::gauge("scrape-staleness", KEY_SCRAPE_STALENESS, 30_000_000.0)
            .with_resolve(15_000_000.0),
        SloRule::gauge("queue-depth", KEY_QUEUE_DEPTH, 100_000.0).with_resolve(50_000.0),
    ]
}

/// A bank service the harness can still read after the MAS took it: the
/// ledger check compares opening and closing balances.
struct SharedBank(Arc<Mutex<BankService>>);

impl Service for SharedBank {
    fn invoke(&mut self, op: &str, args: &[Value]) -> Result<Value, String> {
        self.0.lock().expect("bank ledger lock").invoke(op, args)
    }
}

/// Where one cell's nodes ended up.
pub struct CellIds {
    /// Hosting shard.
    pub shard: usize,
    /// The gateway.
    pub gateway: NodeId,
    /// Bank MAS sites, in bank order.
    pub sites: Vec<NodeId>,
    /// Handhelds, in device order.
    pub devices: Vec<NodeId>,
    monitor: Option<NodeId>,
    banks: Vec<Arc<Mutex<BankService>>>,
}

/// The shard-0 fleet plane.
struct FleetIds {
    fed: NodeId,
    pager: NodeId,
}

/// A built instance, ready to run.
pub struct Built {
    /// The sharded engine holding every shard.
    pub engine: ShardedSim,
    /// Per-shard self-time clocks (traced builds only).
    pub clocks: Option<Vec<Arc<ShardClock>>>,
    /// Cells in order.
    pub cells: Vec<CellIds>,
    fleet: Option<FleetIds>,
    /// Host time of the build.
    pub setup: Duration,
}

/// Register `node`, wrapped in [`Timed`] when the shard has a clock.
fn add<N: Node + 'static>(
    sim: &mut Simulator,
    node: N,
    role: Role,
    clock: Option<&Arc<ShardClock>>,
) -> NodeId {
    match clock {
        Some(c) => sim.add_node(Box::new(Timed::new(node, role, Arc::clone(c)))),
        None => sim.add_node(Box::new(node)),
    }
}

/// A node of concrete type `T`, bare or wrapped.
pub fn node<T: Node + 'static>(sim: &Simulator, id: NodeId) -> &T {
    sim.node_ref::<T>(id)
        .or_else(|| sim.node_ref::<Timed<T>>(id).map(|t| &t.inner))
        .expect("node has the expected type")
}

/// Bodies a wrapped node kept for replay (empty when unwrapped).
pub fn kept<T: Node + 'static>(sim: &Simulator, id: NodeId) -> &[Kept] {
    sim.node_ref::<Timed<T>>(id)
        .map_or(&[], |t| t.kept.as_slice())
}

#[allow(clippy::too_many_arguments)]
fn build_cell(
    sim: &mut Simulator,
    shape: &Shape,
    plan: &ShardPlan,
    layout: &Layout,
    cell: usize,
    shard: usize,
    inputs: &mut CellInputs,
    pager: Option<NodeId>,
    clock: Option<&Arc<ShardClock>>,
) -> CellIds {
    let wired = LinkSpec::wired_internet();
    let wireless = LinkSpec::wireless_gprs();

    // Ids are sequential: central, gateway, then the bank sites.
    let base = sim.node_count();
    let mut directory = SiteDirectory::new();
    for k in 0..shape.banks {
        directory.insert(bank_name(k), base + 2 + k);
    }
    let central = add(sim, CentralServer::new(Vec::new()), Role::Gateway, clock);
    let mut gw = GatewayNode::new(
        GatewayConfig::new(format!("gw-{cell}"), inputs.key_seed),
        directory.clone(),
    );
    gw.publish("ebank", ebank_program());
    let gateway = add(sim, gw, Role::Gateway, clock);
    let mut sites = Vec::with_capacity(shape.banks);
    let mut banks = Vec::with_capacity(shape.banks);
    for k in 0..shape.banks {
        let bank = Arc::new(Mutex::new(
            BankService::new(bank_name(k)).with_account("alice", OPENING_CENTS),
        ));
        let mut mas = MasNode::new(bank_name(k), directory.clone());
        mas.register_service("bank", Box::new(SharedBank(Arc::clone(&bank))));
        let id = add(sim, mas, Role::Mas, clock);
        assert_eq!(id, base + 2 + k, "site ids follow the directory");
        sites.push(id);
        banks.push(bank);
    }
    sim.set_label(central, plan.label(cell, layout.central));
    sim.set_label(gateway, plan.label(cell, layout.gateway));
    for (k, &id) in sites.iter().enumerate() {
        sim.set_label(id, plan.label(cell, layout.site(k)));
    }
    let mut backbone = vec![central, gateway];
    backbone.extend(&sites);
    for (i, &a) in backbone.iter().enumerate() {
        for &b in &backbone[i + 1..] {
            sim.connect(a, b, wired.clone());
        }
    }

    let entries = vec![GatewayEntry {
        name: format!("gw-{cell}"),
        node: gateway,
    }];
    let mut devices = Vec::with_capacity(inputs.devices.len());
    for (d, dev_inputs) in inputs.devices.iter_mut().enumerate() {
        let mut cfg = DeviceConfig::new(format!("pda-{cell}-{d}"));
        cfg.central_server = Some(central);
        cfg.gateways = entries.clone();
        let commands = std::mem::take(&mut dev_inputs.commands);
        let dev = add(sim, DeviceNode::new(cfg, commands), Role::Device, clock);
        sim.set_label(dev, plan.label(cell, layout.device(d)));
        sim.connect(dev, central, wireless.clone());
        sim.connect(dev, gateway, wireless.clone());
        devices.push(dev);
    }

    let monitor = shape.planes.then(|| {
        let spec = MonitorSpec {
            cadence: SimDuration::from_millis(1_000 + 7 * cell as u64),
            rounds: 60,
            rules: slo_rules(),
            ..MonitorSpec::default()
        };
        let targets = vec![
            (gateway, format!("gw-{cell}")),
            (sites[0], format!("mas-0-{cell}")),
            (sites[1], format!("mas-1-{cell}")),
        ];
        let mut monitor = SloMonitor::new(spec, targets).with_instance(format!("cell-{cell}"));
        if let Some(pager) = pager {
            monitor = monitor.with_pager(pager);
        }
        let mon = add(sim, monitor, Role::Monitor, clock);
        sim.set_label(mon, plan.label(cell, layout.monitor()));
        for target in [gateway, sites[0], sites[1]] {
            sim.connect(mon, target, wired.clone());
        }
        if let Some(pager) = pager {
            sim.connect(mon, pager, LinkSpec::wan_backbone());
        }
        mon
    });

    CellIds {
        shard,
        gateway,
        sites,
        devices,
        monitor,
        banks,
    }
}

/// Build an instance from its inputs. `traced` wraps every node in
/// [`Timed`]. The returned [`Built::setup`] times everything from the first
/// simulator constructor to the sharded engine with its exports.
pub fn build(shape: &Shape, inputs: &mut Inputs, traced: bool) -> Built {
    let started = Instant::now();
    let layout = Layout::new(shape);
    let plan = ShardPlan::new(shape.cells, shape.shards);
    let mut sims = Vec::with_capacity(plan.shards());
    let mut clocks = Vec::new();
    let mut cells: Vec<Option<CellIds>> = (0..shape.cells).map(|_| None).collect();
    let mut fleet: Option<FleetIds> = None;

    for s in 0..plan.shards() {
        let mut sim = Simulator::new(inputs.seed);
        sim.set_wire_mtu(Some(256));
        sim.set_link_batching(true);
        let clock = traced.then(|| Arc::new(ShardClock::default()));
        if shape.planes {
            sim.enable_obs();
            sim.obs_mut()
                .expect("collector just attached")
                .enable_sampling(SamplerConfig {
                    seed: inputs.seed,
                    ..SamplerConfig::default()
                });
        }
        // The paging plane lives in shard 0; monitors elsewhere page a
        // placeholder over the WAN.
        let pager = shape.planes.then(|| {
            if s > 0 {
                return sim.add_remote(PAGER_LABEL);
            }
            let c = clock.as_ref();
            let oncall = add(
                &mut sim,
                PageReceiver::new(Some(SimDuration::from_secs(2))),
                Role::Paging,
                c,
            );
            let esc = add(
                &mut sim,
                PageReceiver::new(Some(SimDuration::from_secs(1))),
                Role::Paging,
                c,
            );
            sim.set_label(oncall, ONCALL_LABEL);
            sim.set_label(esc, ONCALL_ESC_LABEL);
            let mut route = Route::new(Severity::Critical, oncall).with_escalation(esc);
            route.backoff = SimDuration::from_secs(30);
            let mut policy = RoutePolicy::new(vec![route]);
            policy.tick = SimDuration::from_secs(60);
            let pg = add(&mut sim, PagingGateway::new(policy), Role::Paging, c);
            sim.set_label(pg, PAGER_LABEL);
            sim.connect(pg, oncall, LinkSpec::wired_internet());
            sim.connect(pg, esc, LinkSpec::wired_internet());
            fleet = Some(FleetIds { fed: 0, pager: pg });
            pg
        });
        for cell in plan.cells_of(s) {
            cells[cell] = Some(build_cell(
                &mut sim,
                shape,
                &plan,
                &layout,
                cell,
                s,
                &mut inputs.cells[cell],
                pager,
                clock.as_ref(),
            ));
        }
        if let Some(pager) = pager {
            if s == 0 {
                // The federation scraper fans in over every cell monitor:
                // local ones directly, other shards' through placeholders.
                let targets: Vec<(NodeId, String)> = (0..shape.cells)
                    .map(|cell| {
                        let mon = match &cells[cell] {
                            Some(ids) => ids.monitor.expect("planes build monitors"),
                            None => sim.add_remote(plan.label(cell, layout.monitor())),
                        };
                        (mon, format!("cell-{cell}"))
                    })
                    .collect();
                let spec = FederationSpec {
                    cadence: SimDuration::from_secs(5),
                    rounds: 12,
                    delta: true,
                    rules: default_federation_rules(),
                    pager: Some(pager),
                    ..FederationSpec::default()
                };
                let fed = add(
                    &mut sim,
                    FederationScraper::new(spec, targets.clone()),
                    Role::Federation,
                    clock.as_ref(),
                );
                sim.set_label(fed, FED_LABEL);
                for (mon, _) in &targets {
                    sim.connect(fed, *mon, LinkSpec::wan_backbone());
                }
                sim.connect(fed, pager, LinkSpec::wired_internet());
                fleet.as_mut().expect("shard 0 built the pager").fed = fed;
            } else {
                let fed = sim.add_remote(FED_LABEL);
                for cell in plan.cells_of(s) {
                    let mon = cells[cell]
                        .as_ref()
                        .and_then(|c| c.monitor)
                        .expect("monitor");
                    sim.connect(mon, fed, LinkSpec::wan_backbone());
                }
            }
        }
        // One injector per shard holding the whole plan, added last.
        if let Some(p) = &inputs.plan {
            let inj = add(
                &mut sim,
                ChaosInjector::new(p.clone()),
                Role::Chaos,
                clock.as_ref(),
            );
            sim.set_label(inj, CHAOS_LABEL);
        }
        sims.push(sim);
        clocks.extend(clock);
    }

    let cells: Vec<CellIds> = cells
        .into_iter()
        .map(|c| c.expect("every cell built"))
        .collect();
    let mut engine = ShardedSim::new(sims, LinkSpec::wan_backbone().base_latency);
    if let Some(f) = &fleet {
        engine.export(0, f.fed);
        engine.export(0, f.pager);
        for c in &cells {
            engine.export(c.shard, c.monitor.expect("planes build monitors"));
        }
    }
    Built {
        engine,
        clocks: traced.then_some(clocks),
        cells,
        fleet,
        setup: started.elapsed(),
    }
}

// ---------------------------------------------------------------------------
// Running
// ---------------------------------------------------------------------------

/// Host-time split of one run, measured at the epoch barriers.
#[derive(Debug, Clone, Default)]
pub struct RunClock {
    /// Wall time of the whole run.
    pub wall: Duration,
    /// Epoch rounds.
    pub epochs: u64,
    /// Σ over epochs of the busiest worker's node self time (traced only).
    pub critical_ns: u64,
    /// Total node self time per shard (traced only).
    pub shard_busy_ns: Vec<u64>,
}

/// Run an instance to idle, splitting wall time at every epoch barrier: the
/// node time on the critical path of an epoch is that of the worker whose
/// shards were busiest (workers step shards `w`, `w + workers`, …).
pub fn run(built: &mut Built) -> RunClock {
    let started = Instant::now();
    let clocks = built.clocks.clone();
    let workers = pdagent_bench::parallel::thread_count().clamp(1, built.engine.shard_count());
    let mut critical_ns = 0u64;
    let mut last: Vec<u64> = vec![0; clocks.as_ref().map_or(0, Vec::len)];
    let mut close_interval = |clocks: &[Arc<ShardClock>], last: &mut Vec<u64>| {
        let mut per_worker = vec![0u64; workers];
        for (i, (prev, clock)) in last.iter_mut().zip(clocks).enumerate() {
            let now = clock.busy_ns();
            per_worker[i % workers] += now - *prev;
            *prev = now;
        }
        critical_ns += per_worker.into_iter().max().unwrap_or(0);
    };
    match &clocks {
        Some(c) => built
            .engine
            .run_until_idle_with(&mut |_, _| close_interval(c, &mut last)),
        None => built.engine.run_until_idle(),
    }
    let wall = started.elapsed();
    let mut shard_busy_ns = Vec::new();
    if let Some(c) = &clocks {
        // The round after the last barrier has no barrier of its own.
        close_interval(c, &mut last);
        shard_busy_ns = c.iter().map(|clock| clock.busy_ns()).collect();
    }
    RunClock {
        wall,
        epochs: built.engine.epochs(),
        critical_ns,
        shard_busy_ns,
    }
}

// ---------------------------------------------------------------------------
// Harvest
// ---------------------------------------------------------------------------

/// Simulator counters the per-layer report reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Events processed over all shards.
    pub events: u64,
    /// Largest event-queue high-water mark of any shard.
    pub peak_queue: u64,
    /// HTTP retransmissions by handhelds.
    pub http_retransmits: u64,
    /// HTTP requests handhelds put on the wire, retransmissions included.
    pub http_sends: u64,
    /// Responses gateways replayed from their replay cache.
    pub replays: u64,
    /// Replay and completed-agent cache evictions at gateways.
    pub evictions: u64,
    /// Agent hops executed at MAS sites.
    pub hops: u64,
    /// VM instructions executed at MAS sites.
    pub instructions: u64,
    /// Successful monitor scrapes.
    pub scrapes: u64,
    /// Bytes the federation scraper pulled.
    pub fed_bytes: u64,
    /// Federation delta scrapes.
    pub fed_delta: u64,
    /// Federation scrapes of any kind.
    pub fed_scrapes: u64,
    /// p99 of federated snapshot staleness, µs.
    pub fed_staleness_p99_us: u64,
    /// Chaos activity: loss drops, duplicates, crash drops.
    pub chaos: [u64; 3],
}

/// What one instance run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Deploys attempted (one per handheld).
    pub attempted: u64,
    /// Deploys whose result was collected.
    pub completed: u64,
    /// Completion time of every collected deploy, µs, in device order.
    pub completion_us: Vec<u64>,
    /// Bytes handhelds sent and received over GPRS.
    pub wireless_bytes: u64,
    /// FNV digest of per-device completion µs, PI bytes and wireless bytes.
    pub digest: u64,
    /// Failed deploys by `context: detail` of their first error.
    pub failures: BTreeMap<String, u64>,
    /// Correctness violations.
    pub problems: Vec<String>,
    /// Simulator counters.
    pub counters: Counters,
}

/// Sentinel digest entry for a deploy that did not complete.
const NOT_COMPLETED: u64 = u64::MAX;

/// Harvest results and counters, and check every correctness condition that
/// holds for `shape`.
pub fn harvest(shape: &Shape, inputs: &Inputs, built: &Built) -> Outcome {
    let mut out = Outcome::default();
    let mut digest = Fnv::default();
    let mut c = Counters {
        events: built.engine.events_processed(),
        peak_queue: built.engine.peak_queue_depth() as u64,
        ..Counters::default()
    };
    let mut duplicate_executions = 0u64;
    for (ci, cell) in built.cells.iter().enumerate() {
        let sim = built.engine.shard(cell.shard);
        let mut sent_cents = vec![0i64; shape.banks];
        for (d, &dev) in cell.devices.iter().enumerate() {
            let device = node::<DeviceNode>(sim, dev);
            let m = sim.metrics(dev);
            out.attempted += 1;
            let wireless = m.bytes_sent + m.bytes_received;
            out.wireless_bytes += wireless;
            c.http_retransmits += m.counter("http.retransmits") as u64;
            c.http_sends += m.msgs_sent - 3 * m.counter("device.probe_rounds") as u64;
            let result = device.events.iter().find_map(|e| match e {
                DeviceEvent::ResultCollected { result, .. } => Some(result),
                _ => None,
            });
            match (device.timings.first(), result) {
                (Some(t), Some(result)) => {
                    out.completed += 1;
                    out.completion_us.push(t.completion.as_micros());
                    digest.write(t.completion.as_micros());
                    digest.write(t.pi_bytes as u64);
                    let txs = &inputs.cells[ci].devices[d].txs;
                    check_result(&mut out.problems, ci, d, txs, result);
                    for (i, t) in txs.iter().enumerate() {
                        sent_cents[i % shape.banks] += t.amount_cents;
                    }
                }
                _ => {
                    digest.write(NOT_COMPLETED);
                    digest.write(NOT_COMPLETED);
                    let why = device.events.iter().find_map(|e| match e {
                        DeviceEvent::Error { context, detail } => {
                            Some(format!("{context}: {detail}"))
                        }
                        _ => None,
                    });
                    match why {
                        Some(why) => *out.failures.entry(why).or_default() += 1,
                        None => {
                            *out.failures
                                .entry("lost: no result and no error".into())
                                .or_default() += 1;
                            out.problems.push(format!(
                                "cell {ci} device {d}: deploy lost without an error"
                            ));
                        }
                    }
                }
            }
            digest.write(wireless);
        }
        // Every collected receipt debited the paying account exactly once;
        // without faults every deploy completes, so the ledgers must match.
        if !shape.chaos {
            for (k, bank) in cell.banks.iter().enumerate() {
                let balance = bank
                    .lock()
                    .expect("bank ledger lock")
                    .balance_of("alice")
                    .unwrap_or(0);
                if OPENING_CENTS - balance != sent_cents[k] {
                    out.problems.push(format!(
                        "cell {ci} {}: balance fell by {} cents, receipts sent {}",
                        bank_name(k),
                        OPENING_CENTS - balance,
                        sent_cents[k]
                    ));
                }
            }
        }
        let gw = sim.metrics(cell.gateway);
        c.replays += gw.counter("gateway.replays") as u64;
        c.evictions += (gw.counter("gateway.replay_evictions")
            + gw.counter("gateway.completed_evictions")) as u64;
        duplicate_executions += gw.counter("gateway.duplicate_executions") as u64;
        if let Some(mon) = cell.monitor {
            c.scrapes += node::<SloMonitor>(sim, mon).scrapes_ok;
        }
    }
    for s in 0..built.engine.shard_count() {
        let sim = built.engine.shard(s);
        c.hops += sim.counter_total("mas.agents_executed") as u64;
        c.instructions += sim.counter_total("mas.instructions") as u64;
        c.chaos[0] += sim.counter_total("chaos.loss_drops") as u64;
        c.chaos[1] += sim.counter_total("chaos.dups") as u64;
        c.chaos[2] += sim.counter_total("chaos.crash_drops") as u64;
    }
    if let Some(f) = &built.fleet {
        let sim = built.engine.shard(0);
        let report = node::<FederationScraper>(sim, f.fed).report();
        c.fed_bytes = report.scraped_bytes;
        c.fed_delta = report.delta_scrapes;
        c.fed_scrapes = report.delta_scrapes + report.full_scrapes;
        c.fed_staleness_p99_us = report.staleness.p99();
        if report.rounds != 12 || report.scrape_failures > 0 {
            out.problems.push(format!(
                "federation ran {} rounds with {} scrape failures",
                report.rounds, report.scrape_failures
            ));
        }
        let pages = node::<PagingGateway>(sim, f.pager).report();
        if pages.dropped > 0 {
            out.problems
                .push(format!("paging dropped {} pages", pages.dropped));
        }
    }
    if duplicate_executions > 0 {
        out.problems.push(format!(
            "{duplicate_executions} duplicate dispatch executions"
        ));
    }
    if !shape.chaos && out.completed != out.attempted {
        out.problems.push(format!(
            "{} of {} deploys failed without faults: {:?}",
            out.attempted - out.completed,
            out.attempted,
            out.failures
        ));
    }
    out.counters = c;
    out.digest = digest.finish();
    out
}

/// A collected e-banking result holds one receipt per transaction and no
/// declines.
fn check_result(
    problems: &mut Vec<String>,
    cell: usize,
    dev: usize,
    txs: &[Transaction],
    result: &ResultDoc,
) {
    let got = receipts(result).len();
    let declined = declines(result);
    if got != txs.len() || !declined.is_empty() {
        problems.push(format!(
            "cell {cell} device {dev}: {got} receipts for {} transactions, declines {declined:?}",
            txs.len()
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers;

    /// A two-cell instance of `name` with small PIs, quick even unoptimized.
    fn mini(name: &str) -> Shape {
        let shape = shape(name).expect("known workload");
        Shape {
            cells: 2,
            devices_per_cell: 3,
            instances: 1,
            pad: shape.pad.min(2048),
            ..shape
        }
    }

    fn run_once(shape: &Shape, seed: u64, traced: bool) -> (Outcome, Option<layers::Replay>) {
        let mut inputs = generate(shape, seed, 0);
        let deploys = inputs.deploys();
        let mut built = build(shape, &mut inputs, traced);
        run(&mut built);
        let out = harvest(shape, &inputs, &built);
        let replay = traced.then(|| layers::replay(&inputs, &deploys, &built));
        (out, replay)
    }

    #[test]
    fn every_workload_is_deterministic_and_tracing_is_transparent() {
        for name in SHAPES.map(|s| s.name) {
            let shape = mini(name);
            let (a, _) = run_once(&shape, 11, false);
            let (b, _) = run_once(&shape, 11, false);
            assert!(a.problems.is_empty(), "{name}: {:?}", a.problems);
            assert_eq!(a.completed, a.attempted, "{name}: {:?}", a.failures);
            assert_eq!(a.digest, b.digest, "{name}: same seed, different digest");
            let (t, replay) = run_once(&shape, 11, true);
            assert_eq!(t.digest, a.digest, "{name}: tracing changed the results");
            let replay = replay.expect("traced runs replay");
            assert!(replay.problems.is_empty(), "{name}: {:?}", replay.problems);
            assert_eq!(replay.instructions, t.counters.instructions, "{name}");
            assert_eq!(replay.deploys, t.completed, "{name}");
            let (other, _) = run_once(&shape, 12, false);
            assert_ne!(other.digest, a.digest, "{name}: the seed must matter");
        }
    }

    #[test]
    fn fleet_ops_digest_is_the_same_at_one_and_two_shards() {
        let two = mini("fleet_ops");
        let one = Shape { shards: 1, ..two };
        let (a, _) = run_once(&one, 3, false);
        let (b, _) = run_once(&two, 3, false);
        assert!(
            a.problems.is_empty() && b.problems.is_empty(),
            "{:?} {:?}",
            a.problems,
            b.problems
        );
        assert!(
            b.counters.scrapes > 0 && b.counters.fed_scrapes > 0,
            "the planes ran"
        );
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    fn lossy_exercises_retries_and_replays() {
        let (out, _) = run_once(&mini("lossy"), 4, false);
        assert_eq!(out.completed, out.attempted, "{:?}", out.failures);
        assert!(
            out.counters.http_retransmits > 0 && out.counters.replays > 0,
            "{:?}",
            out.counters
        );
        assert!(
            out.counters.chaos.iter().all(|&n| n > 0),
            "{:?}",
            out.counters.chaos
        );
    }
}
