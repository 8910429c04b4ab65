//! The PDAgent platform itself: the device-side state machine
//! ([`DeviceNode`]) that implements the paper's §3 flows — service
//! subscription, service execution (Packed Information upload), result
//! collection, high-performance gateway selection by RTT, and mobile-agent
//! management.
//!
//! A [`DeviceNode`] executes a queue of [`DeviceCommand`]s sequentially,
//! emitting [`DeviceEvent`]s that applications (and the test/bench
//! harnesses) consume. Connection-time accounting brackets exactly the
//! online phases: the RTT-probe → PI-upload window and each result-download
//! attempt — matching the paper's definition "PDAgent — time for sending
//! 'Packed Information' (online) + time for downloading result (online)".
//!
//! A deploy's phases each hold one record: entry and probing the
//! [`DeployRequest`], `Uploading` an `Upload` (gateway, RTT, PI size, when
//! the connection opened), and `WaitingResult` and `Collecting` a
//! `Dispatched` (agent id, gateway, online times, PI size, give-up count),
//! which is also what a parked deploy is. All three carry the journey spans.

use std::collections::VecDeque;

use pdagent_codec::compress::{compress, decompress, Algorithm};
use pdagent_crypto::envelope::seal_envelope;
use pdagent_crypto::keys::UniqueId;
use pdagent_gateway::central::{parse_gateway_list, GatewayEntry};
use pdagent_gateway::pi::{PackedInformation, ResultDoc};
use pdagent_gateway::{
    KIND_PROBE, KIND_PROBE_ACK, PATH_DISPATCH, PATH_GATEWAYS, PATH_MANAGE, PATH_RESULT,
    PATH_SUBSCRIBE,
};
use pdagent_mas::server::{encode_control, ControlOp};
use pdagent_net::http::{HttpClient, HttpRequest, HttpStatus};
use pdagent_net::prelude::*;
use pdagent_net::sim::TimerId;
use pdagent_vm::Value;

use crate::db::{DeviceDb, Subscription};

/// A deployment request: which subscribed service to launch, with what
/// parameters, over which sites.
#[derive(Debug, Clone, PartialEq)]
pub struct DeployRequest {
    /// Subscribed service name.
    pub service: String,
    /// Launch parameters (what the user types into the form, Figure 11b).
    pub params: Vec<(String, Value)>,
    /// Sites the agent should visit.
    pub itinerary: Vec<String>,
    /// Per-hop fuel budget.
    pub fuel_per_hop: u64,
}

impl DeployRequest {
    /// A deployment with the default fuel budget.
    pub fn new(
        service: impl Into<String>,
        params: Vec<(String, Value)>,
        itinerary: Vec<String>,
    ) -> DeployRequest {
        DeployRequest { service: service.into(), params, itinerary, fuel_per_hop: 1_000_000 }
    }
}

/// One operation the user asks the platform to perform.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceCommand {
    /// Download the gateway address list from the central server (§3.5).
    FetchGatewayList,
    /// Subscribe to a service: download and store its MA code (§3.1).
    Subscribe {
        /// Service to subscribe to.
        service: String,
    },
    /// Deploy an application (§3.2 + §3.3: entry → probe → upload →
    /// disconnect → poll → download).
    Deploy(DeployRequest),
    /// Manage a dispatched agent (§3.6).
    Manage {
        /// Management verb.
        op: ControlOp,
        /// Agent to manage.
        agent_id: String,
    },
    /// Delete a stored subscription from the internal database (Figure 9c,
    /// "Internal Database Management"). Purely local — no connectivity.
    Unsubscribe {
        /// Service whose MA code to delete.
        service: String,
    },
    /// Pause before the next queued command ("the user thinks"). Soak
    /// scenarios use this to stagger many devices' sessions so a thousand
    /// radios don't key up at the same instant.
    Wait(SimDuration),
}

/// Something the platform reports back to the application layer.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceEvent {
    /// Gateway list downloaded.
    GatewayListFetched {
        /// Number of gateways in the list.
        count: usize,
    },
    /// Subscription stored in the internal database.
    Subscribed {
        /// Service name.
        service: String,
        /// Assigned unique code id.
        code_id: String,
    },
    /// Subscription deleted from the internal database.
    Unsubscribed {
        /// Service name.
        service: String,
        /// Whether the code was actually present.
        existed: bool,
    },
    /// Agent dispatched; the user may now disconnect.
    Dispatched {
        /// Gateway-assigned agent id (shown on screen, Figure 11c).
        agent_id: String,
        /// Name of the gateway chosen by RTT probing.
        gateway: String,
        /// RTT measured to the chosen gateway.
        rtt: SimDuration,
    },
    /// Result document downloaded and stored.
    ResultCollected {
        /// Agent id.
        agent_id: String,
        /// The parsed result.
        result: ResultDoc,
    },
    /// A management request completed.
    ManageCompleted {
        /// The verb.
        op: ControlOp,
        /// The agent.
        agent_id: String,
        /// Gateway's HTTP status.
        status: HttpStatus,
        /// Response payload (e.g. an `AgentRecord` for status queries).
        /// Shares the HTTP response buffer — cloning the event is cheap.
        payload: bytes::Bytes,
    },
    /// Something failed.
    Error {
        /// Which operation failed.
        context: String,
        /// Why.
        detail: String,
    },
}

/// Per-deployment timing record — the numbers Figures 12 and 13 are made of.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeployTiming {
    /// Agent id.
    pub agent_id: String,
    /// Online time for probe + PI upload (connection open → dispatch ack).
    pub dispatch_online: SimDuration,
    /// Online time across all result-download attempts.
    pub collect_online: SimDuration,
    /// The paper's PDAgent completion time: `dispatch_online +
    /// collect_online`.
    pub completion: SimDuration,
    /// Bytes uploaded in the PI envelope.
    pub pi_bytes: usize,
    /// Bytes of the downloaded (compressed) result.
    pub result_bytes: usize,
}

/// How the platform picks a gateway for dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionPolicy {
    /// Probe every gateway on the list and pick the shortest RTT (§3.5).
    NearestByRtt,
    /// Skip probing; always use the first gateway on the list (the ablation
    /// baseline for the selection experiment).
    FirstInList,
}

/// Platform tuning knobs.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Device name (appears in logs).
    pub name: String,
    /// Central server node, if any (needed for [`DeviceCommand::FetchGatewayList`]).
    pub central_server: Option<NodeId>,
    /// Initial gateway list (may be empty if a central server is set).
    pub gateways: Vec<GatewayEntry>,
    /// How long to wait for probe replies before choosing among those heard.
    pub probe_timeout: SimDuration,
    /// How long to stay disconnected before first trying to collect.
    pub result_poll_initial: SimDuration,
    /// Re-poll interval while the result is not ready (409).
    pub result_poll_interval: SimDuration,
    /// Compression for the PI payload.
    pub compression: Algorithm,
    /// Entropy seed for envelope session keys.
    pub entropy_seed: u64,
    /// Gateway selection policy.
    pub selection: SelectionPolicy,
}

impl DeviceConfig {
    /// Defaults for a GPRS-era handheld.
    pub fn new(name: impl Into<String>) -> DeviceConfig {
        DeviceConfig {
            name: name.into(),
            central_server: None,
            gateways: Vec::new(),
            probe_timeout: SimDuration::from_secs(2),
            result_poll_initial: SimDuration::from_secs(2),
            result_poll_interval: SimDuration::from_secs(2),
            compression: Algorithm::Auto,
            entropy_seed: 1,
            selection: SelectionPolicy::NearestByRtt,
        }
    }
}

// Device-private timer tags (below the HTTP client's retransmission tags).
const TAG_NEXT: u64 = 1;
const TAG_ENTRY_DONE: u64 = 2;
const TAG_PROBE_TIMEOUT: u64 = 3;
const TAG_POLL: u64 = 4;

/// The handheld's retransmission timeout (the HTTP client's default).
const DEVICE_RTO: SimDuration = SimDuration::from_secs(3);

/// Retransmissions before the handheld abandons a request. On a link that
/// loses 5% of packets each way an attempt fails with probability
/// 1 - 0.95^2 ~= 0.0975; with `HttpClient`'s default of 4 retries all five
/// attempts are lost ~8.8e-6 of the time, which a few thousand deploys do
/// hit. With 8 retries all nine are lost ~0.0975^9 ~= 8e-10 of the time.
const DEVICE_MAX_RETRIES: u32 = 8;

/// Extra upload-RTO allowance per KiB of PI envelope beyond the first 4 KiB.
/// Large PIs serialize for tens of seconds on the wireless link, so a fixed
/// RTO would retransmit (and eventually abandon) an upload that is still
/// trickling out; small PIs stay under `DEVICE_RTO` and are unaffected.
const UPLOAD_RTO_PER_KIB: SimDuration = SimDuration::from_secs(1);

/// §3.5: if the best probed RTT exceeds this, refresh the gateway list
/// first.
const RTT_THRESHOLD: SimDuration = SimDuration::from_millis(1500);

/// Offline think-time per form field during data entry.
const ENTRY_TIME_PER_PARAM: SimDuration = SimDuration::from_secs(2);

/// Collects of one deploy that may give up (link down) before it fails.
const COLLECT_GIVE_UPS: u32 = 10;

/// How long after dispatch a deploy may wait for its result before it ends
/// in a `collect` error and `device.collect_abandoned` (a lost completion
/// would otherwise poll 409 forever); the gateway's completed-list TTL.
pub const COLLECT_DEADLINE: SimDuration = SimDuration::from_secs(600);

/// Observability handles for one agent journey (§ [`pdagent_net::obs`]):
/// the trace id minted at data entry plus the span ids opened so far. All
/// zeros when no collector is attached — every hook call is then a no-op,
/// so the deploy flow pays nothing for carrying this `Copy` struct.
#[derive(Debug, Clone, Copy, Default)]
struct JourneyObs {
    trace: u64,
    /// The `journey` root span covering entry → result stored.
    root: u32,
    /// `http.upload` (dispatch POST in flight).
    upload: u32,
    /// `result.wait` (device disconnected, agent roaming).
    wait: u32,
    /// `result.fetch` (one collect GET attempt).
    fetch: u32,
}

impl JourneyObs {
    /// Close every open span for this journey (idempotent; unopened spans
    /// are id 0 and ignored). Used on both success and failure exits.
    fn close_all(&self, ctx: &mut Ctx<'_>) {
        ctx.span_end(self.fetch);
        ctx.span_end(self.wait);
        ctx.span_end(self.upload);
        ctx.span_end(self.root);
    }
}

/// A deploy from its PI upload to the dispatch ack.
#[derive(Debug)]
struct Upload {
    gateway: GatewayEntry,
    /// RTT measured to `gateway` (zero without probing).
    rtt: SimDuration,
    /// When the connection opened: the start of the probe round.
    opened_at: SimTime,
    /// Bytes of the sealed PI envelope.
    pi_bytes: usize,
    obs: JourneyObs,
}

/// A dispatched deploy: the agent is out and the handheld polls its
/// gateway until the result comes home.
#[derive(Debug)]
struct Dispatched {
    agent_id: String,
    gateway: GatewayEntry,
    /// When the dispatch ack landed; [`COLLECT_DEADLINE`] counts from here.
    dispatched_at: SimTime,
    dispatch_online: SimDuration,
    /// Online time of the collect attempts so far.
    collect_online: SimDuration,
    pi_bytes: usize,
    /// Collects of this deploy that gave up, out of [`COLLECT_GIVE_UPS`].
    give_ups: u32,
    obs: JourneyObs,
}

#[derive(Debug)]
enum Phase {
    Idle,
    FetchingList { resume_deploy: Option<(DeployRequest, JourneyObs)> },
    Subscribing { service: String, req_id: u64, gateway_idx: usize },
    Entering { deploy: DeployRequest, obs: JourneyObs },
    Probing {
        deploy: DeployRequest,
        sent_at: SimTime,
        rtts: Vec<Option<SimDuration>>,
        refreshed: bool,
        attempt: u32,
        obs: JourneyObs,
    },
    Uploading { upload: Upload, req_id: u64 },
    WaitingResult(Dispatched),
    Collecting { job: Dispatched, opened_at: SimTime, req_id: u64 },
    Managing { op: ControlOp, agent_id: String, req_id: u64 },
}

impl Phase {
    /// The journey spans of the deploy this phase runs, if it runs one.
    fn journey(&self) -> Option<&JourneyObs> {
        match self {
            Phase::Entering { obs, .. } | Phase::Probing { obs, .. } => Some(obs),
            Phase::FetchingList { resume_deploy } => resume_deploy.as_ref().map(|(_, obs)| obs),
            Phase::Uploading { upload, .. } => Some(&upload.obs),
            Phase::WaitingResult(job) | Phase::Collecting { job, .. } => Some(&job.obs),
            Phase::Idle | Phase::Subscribing { .. } | Phase::Managing { .. } => None,
        }
    }
}

/// The PDAgent device platform node.
pub struct DeviceNode {
    /// Configuration.
    pub config: DeviceConfig,
    /// The internal database (subscriptions + results).
    pub db: DeviceDb,
    http: HttpClient,
    queue: VecDeque<DeviceCommand>,
    phase: Phase,
    /// A deploy parked in its waiting-for-result phase while another command
    /// (typically agent management, §3.6) runs in the foreground.
    parked: Option<Dispatched>,
    /// The one armed result-poll timer, if any. It always belongs to the
    /// deploy in the foreground: arming a poll cancels the one before.
    poll: Option<TimerId>,
    gateways: Vec<GatewayEntry>,
    /// Events for the application layer, in order.
    pub events: Vec<DeviceEvent>,
    /// One timing record per completed deployment.
    pub timings: Vec<DeployTiming>,
    entropy_counter: u64,
}

impl DeviceNode {
    /// A device with the given config and an initial command queue.
    pub fn new(config: DeviceConfig, commands: Vec<DeviceCommand>) -> DeviceNode {
        let gateways = config.gateways.clone();
        DeviceNode {
            config,
            db: DeviceDb::new(),
            http: HttpClient::new(DEVICE_RTO, DEVICE_MAX_RETRIES),
            queue: commands.into(),
            phase: Phase::Idle,
            parked: None,
            poll: None,
            gateways,
            events: Vec::new(),
            timings: Vec::new(),
            entropy_counter: 0,
        }
    }

    /// Queue another command (call `kick` afterwards if the sim is already
    /// running and the device has gone idle).
    pub fn enqueue(&mut self, cmd: DeviceCommand) {
        self.queue.push_back(cmd);
    }

    /// Inject a kick message so an idle device re-examines its queue.
    pub fn kick(sim: &mut Simulator, device: NodeId) {
        sim.inject(device, device, Message::signal("device.kick"), SimDuration::ZERO);
    }

    /// The current gateway list.
    pub fn gateway_list(&self) -> &[GatewayEntry] {
        &self.gateways
    }

    /// Latest dispatched agent id, if any.
    pub fn last_agent_id(&self) -> Option<&str> {
        self.events.iter().rev().find_map(|e| match e {
            DeviceEvent::Dispatched { agent_id, .. } => Some(agent_id.as_str()),
            _ => None,
        })
    }

    /// True if every queued command has completed.
    pub fn idle(&self) -> bool {
        matches!(self.phase, Phase::Idle) && self.queue.is_empty() && self.parked.is_none()
    }

    /// Retransmission timeout for a `pi_bytes` envelope upload. Beyond the
    /// small-PI regime the default timeout covers, every extra KiB buys
    /// serialization time on the wireless link.
    fn upload_rto(&self, pi_bytes: usize) -> SimDuration {
        let extra_kib = (pi_bytes.saturating_sub(4096) as u64).div_ceil(1024);
        DEVICE_RTO + SimDuration(UPLOAD_RTO_PER_KIB.as_micros() * extra_kib)
    }

    fn error(&mut self, context: &str, detail: impl Into<String>) {
        self.events.push(DeviceEvent::Error {
            context: context.to_owned(),
            detail: detail.into(),
        });
    }

    /// Arm the poll that starts the foreground deploy's next collect,
    /// cancelling any poll still armed.
    fn arm_poll(&mut self, ctx: &mut Ctx<'_>, delay: SimDuration) {
        if let Some(id) = self.poll.take() {
            ctx.cancel_timer(id);
        }
        self.poll = Some(ctx.set_timer(delay, TAG_POLL));
    }

    fn next_command(&mut self, ctx: &mut Ctx<'_>) {
        self.phase = Phase::Idle;
        ctx.set_timer(SimDuration::ZERO, TAG_NEXT);
    }

    /// End the running command in an error: report it, close the journey's
    /// spans if it is a deploy, and move on to the next command.
    fn fail(
        &mut self,
        ctx: &mut Ctx<'_>,
        journey: Option<&JourneyObs>,
        context: &str,
        detail: impl Into<String>,
    ) {
        self.error(context, detail);
        if let Some(obs) = journey {
            obs.close_all(ctx);
        }
        self.next_command(ctx);
    }

    fn start_next(&mut self, ctx: &mut Ctx<'_>) {
        if !matches!(self.phase, Phase::Idle) {
            // The result-wait phase is interruptible: the user can manage
            // agents (or subscribe to something else) while a dispatched
            // agent is still out. Park the wait and run the next command.
            let interruptible = matches!(self.phase, Phase::WaitingResult(_));
            if !interruptible || self.queue.is_empty() || self.parked.is_some() {
                return;
            }
            let Phase::WaitingResult(job) = std::mem::replace(&mut self.phase, Phase::Idle) else {
                unreachable!("checked above");
            };
            self.parked = Some(job);
        }
        let Some(cmd) = self.queue.pop_front() else {
            // Nothing more to do: resume a parked result-wait, if any, and
            // arm its poll if another deploy's replaced it or it fired.
            if let Some(job) = self.parked.take() {
                self.phase = Phase::WaitingResult(job);
                if self.poll.is_none() {
                    self.arm_poll(ctx, self.config.result_poll_interval);
                }
            }
            return;
        };
        match cmd {
            DeviceCommand::FetchGatewayList => self.start_fetch_list(ctx, None),
            DeviceCommand::Subscribe { service } => self.start_subscribe(ctx, service, 0),
            DeviceCommand::Deploy(deploy) => self.start_entry(ctx, deploy),
            DeviceCommand::Manage { op, agent_id } => self.start_manage(ctx, op, agent_id),
            DeviceCommand::Unsubscribe { service } => {
                // Offline database management: free the storage the agent
                // code occupied (the paper compresses code precisely because
                // handheld storage is scarce).
                let existed = self.db.remove_subscription(&service);
                self.events.push(DeviceEvent::Unsubscribed { service, existed });
                self.next_command(ctx);
            }
            DeviceCommand::Wait(delay) => {
                // Stay Idle offline; the TAG_NEXT timer resumes the queue.
                ctx.set_timer(delay, TAG_NEXT);
            }
        }
    }

    // --- gateway list ------------------------------------------------------

    fn start_fetch_list(
        &mut self,
        ctx: &mut Ctx<'_>,
        resume_deploy: Option<(DeployRequest, JourneyObs)>,
    ) {
        let Some(central) = self.config.central_server else {
            self.fail(ctx, None, "fetch-gateways", "no central server configured");
            return;
        };
        ctx.connection_opened();
        self.http.send(ctx, central, HttpRequest::new("GET", PATH_GATEWAYS, vec![]), ());
        self.phase = Phase::FetchingList { resume_deploy };
    }

    fn finish_fetch_list(
        &mut self,
        ctx: &mut Ctx<'_>,
        status: HttpStatus,
        body: &[u8],
        resume_deploy: Option<(DeployRequest, JourneyObs)>,
    ) {
        ctx.connection_closed();
        if status == HttpStatus::Ok {
            match std::str::from_utf8(body)
                .map_err(|e| e.to_string())
                .and_then(parse_gateway_list)
            {
                Ok(list) => {
                    self.events
                        .push(DeviceEvent::GatewayListFetched { count: list.len() });
                    self.gateways = list;
                }
                Err(e) => self.error("fetch-gateways", e),
            }
        } else {
            self.error("fetch-gateways", format!("HTTP {}", status.code()));
        }
        match resume_deploy {
            // A deploy was waiting on the refreshed list: re-probe.
            Some((deploy, obs)) => self.start_probing(ctx, deploy, obs, true, 1),
            None => self.next_command(ctx),
        }
    }

    // --- subscription ------------------------------------------------------

    /// Subscribe via the gateway at `gateway_idx` (an *attempt counter*:
    /// it wraps around the list so that transient loss on a single-gateway
    /// deployment gets a second round before giving up).
    fn start_subscribe(&mut self, ctx: &mut Ctx<'_>, service: String, gateway_idx: usize) {
        if self.gateways.is_empty() || gateway_idx >= self.gateways.len() * 3 {
            self.fail(ctx, None, "subscribe", "no (more) gateways to subscribe at");
            return;
        }
        let gateway = self.gateways[gateway_idx % self.gateways.len()].clone();
        ctx.connection_opened();
        let req_id = self.http.send(
            ctx,
            gateway.node,
            HttpRequest::new("POST", PATH_SUBSCRIBE, service.clone().into_bytes()),
            (),
        );
        self.phase = Phase::Subscribing { service, req_id, gateway_idx };
    }

    fn finish_subscribe(
        &mut self,
        ctx: &mut Ctx<'_>,
        service: &str,
        status: HttpStatus,
        body: &[u8],
    ) {
        ctx.connection_closed();
        if status != HttpStatus::Ok {
            self.fail(ctx, None, "subscribe", format!("HTTP {}", status.code()));
            return;
        }
        match Subscription::from_download(service, body) {
            Ok(sub) => {
                let code_id = sub.code_id.clone();
                match self.db.put_subscription(&sub) {
                    Ok(()) => {
                        ctx.metrics().bump("device.subscriptions", 1.0);
                        self.events.push(DeviceEvent::Subscribed {
                            service: service.to_owned(),
                            code_id,
                        });
                    }
                    Err(e) => self.error("subscribe", e.to_string()),
                }
            }
            Err(e) => self.error("subscribe", e),
        }
        self.next_command(ctx);
    }

    // --- deployment: offline entry → probe → upload -------------------------

    fn start_entry(&mut self, ctx: &mut Ctx<'_>, deploy: DeployRequest) {
        if !self.db.has_subscription(&deploy.service) {
            self.fail(ctx, None, "deploy", format!("not subscribed to {:?}", deploy.service));
            return;
        }
        // Offline data entry: the user fills the form while disconnected.
        // The journey trace starts here — one trace id covers this logical
        // agent from form entry to result stored on the device.
        let trace = ctx.obs_new_trace();
        let root = ctx.span_begin(trace, 0, "journey");
        let obs = JourneyObs { trace, root, ..JourneyObs::default() };
        let think = SimDuration(
            ENTRY_TIME_PER_PARAM.as_micros() * deploy.params.len().max(1) as u64,
        );
        ctx.set_timer(think, TAG_ENTRY_DONE);
        self.phase = Phase::Entering { deploy, obs };
    }

    fn start_probing(
        &mut self,
        ctx: &mut Ctx<'_>,
        deploy: DeployRequest,
        obs: JourneyObs,
        refreshed: bool,
        attempt: u32,
    ) {
        if self.gateways.is_empty() {
            if !refreshed && self.config.central_server.is_some() {
                self.start_fetch_list(ctx, Some((deploy, obs)));
            } else {
                self.fail(ctx, Some(&obs), "deploy", "no gateways available");
            }
            return;
        }
        if self.config.selection == SelectionPolicy::FirstInList {
            // Ablation: no probing — connect straight to the first gateway.
            ctx.connection_opened();
            let gateway = self.gateways[0].clone();
            let now = ctx.now();
            self.start_upload(ctx, deploy, obs, gateway, SimDuration::ZERO, now);
            return;
        }
        // Figure 8: send 1-bit data to all gateways on the list. Probes are
        // unacknowledged, so send each a few times — they are one byte, and
        // redundancy rides out wireless loss (the first ack wins).
        ctx.connection_opened();
        let sent_at = ctx.now();
        for (idx, gw) in self.gateways.clone().iter().enumerate() {
            for _ in 0..3 {
                ctx.send(gw.node, Message::new(KIND_PROBE, vec![idx as u8]));
            }
        }
        ctx.set_timer(self.config.probe_timeout, TAG_PROBE_TIMEOUT);
        let n = self.gateways.len();
        self.phase =
            Phase::Probing { deploy, sent_at, rtts: vec![None; n], refreshed, attempt, obs };
        ctx.metrics().bump("device.probe_rounds", 1.0);
    }

    fn maybe_finish_probing(&mut self, ctx: &mut Ctx<'_>, force: bool) {
        let Phase::Probing { rtts, .. } = &self.phase else { return };
        let all_in = rtts.iter().all(Option::is_some);
        if !all_in && !force {
            return;
        }
        let Phase::Probing { deploy, rtts, refreshed, sent_at, attempt, obs } =
            std::mem::replace(&mut self.phase, Phase::Idle)
        else {
            unreachable!();
        };
        // Choose the nearest responding gateway.
        let best = rtts
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.map(|r| (i, r)))
            .min_by_key(|&(_, r)| r);
        match best {
            None => {
                // Probes are tiny and unacknowledged; on a lossy wireless
                // link a whole round can vanish. Retry a few times before
                // failing the deployment.
                ctx.connection_closed();
                if attempt < 3 {
                    ctx.metrics().bump("device.probe_retries", 1.0);
                    self.start_probing(ctx, deploy, obs, refreshed, attempt + 1);
                } else {
                    self.fail(ctx, Some(&obs), "deploy", "no gateway answered probes");
                }
            }
            Some((idx, rtt)) => {
                if rtt > RTT_THRESHOLD
                    && !refreshed
                    && self.config.central_server.is_some()
                {
                    // §3.5: threshold exceeded → request a fresh list, then
                    // probe again (exactly once).
                    ctx.connection_closed();
                    ctx.metrics().bump("device.list_refreshes", 1.0);
                    self.start_fetch_list(ctx, Some((deploy, obs)));
                    return;
                }
                let gateway = self.gateways[idx].clone();
                self.start_upload(ctx, deploy, obs, gateway, rtt, sent_at);
            }
        }
    }

    fn start_upload(
        &mut self,
        ctx: &mut Ctx<'_>,
        deploy: DeployRequest,
        mut obs: JourneyObs,
        gateway: GatewayEntry,
        rtt: SimDuration,
        conn_opened_at: SimTime,
    ) {
        let Some(sub) = self.db.subscription(&deploy.service) else {
            ctx.connection_closed();
            self.fail(ctx, Some(&obs), "deploy", "subscription vanished");
            return;
        };
        // PI assembly is instantaneous in sim time; record it as an instant
        // span so the timeline shows where packing sits in the journey.
        let pack = ctx.span_begin(obs.trace, obs.root, "pi.pack");
        ctx.span_end(pack);
        // Agent Dispatcher: assemble the PI (§3.2).
        let pi = PackedInformation {
            code_id: sub.code_id.clone(),
            auth_key: UniqueId(sub.code_id.clone()).derive_key(&sub.secret),
            program: sub.program.clone(),
            itinerary: deploy.itinerary.clone(),
            params: deploy.params.clone(),
            fuel_per_hop: deploy.fuel_per_hop,
        };
        let xml = pi.to_document_string();
        let compressed = compress(xml.as_bytes(), self.config.compression);
        ctx.metrics().bump("device.pi_raw_bytes", xml.len() as f64);
        ctx.metrics().bump("device.pi_compressed_bytes", compressed.len() as f64);
        self.entropy_counter += 1;
        let entropy =
            format!("{}/{}/{}", self.config.name, self.config.entropy_seed, self.entropy_counter);
        let payload = seal_envelope(&sub.public_key, &compressed, entropy.as_bytes()).bytes;
        let pi_bytes = payload.len();
        // The connection has been up since the probe round started; it stays
        // up through the upload. The dispatch request carries the journey's
        // trace context so the gateway (and everything downstream) can hang
        // its spans off this journey's root.
        obs.upload = ctx.span_begin(obs.trace, obs.root, "http.upload");
        let upload_rto = self.upload_rto(pi_bytes);
        let req_id = self.http.send_with_timeout(
            ctx,
            gateway.node,
            HttpRequest::new("POST", PATH_DISPATCH, payload)
                .traced(ObsContext { trace: obs.trace, span: obs.root }),
            upload_rto,
            (),
        );
        let upload = Upload { gateway, rtt, opened_at: conn_opened_at, pi_bytes, obs };
        self.phase = Phase::Uploading { upload, req_id };
    }

    fn finish_upload(
        &mut self,
        ctx: &mut Ctx<'_>,
        status: HttpStatus,
        body: &[u8],
        upload: Upload,
    ) {
        let Upload { gateway, rtt, opened_at, pi_bytes, mut obs } = upload;
        // Online window closes as soon as the 202 lands — "once the agent is
        // dispatched, the user can disconnect from the network".
        let dispatch_online = ctx.now().since(opened_at);
        ctx.connection_closed();
        ctx.span_end(obs.upload);
        if status != HttpStatus::Accepted {
            let detail = format!("dispatch rejected: HTTP {}", status.code());
            self.fail(ctx, Some(&obs), "deploy", detail);
            return;
        }
        let Ok(agent_id) = std::str::from_utf8(body).map(str::to_owned) else {
            self.fail(ctx, Some(&obs), "deploy", "bad agent id in dispatch response");
            return;
        };
        ctx.metrics().bump("device.dispatches", 1.0);
        self.events.push(DeviceEvent::Dispatched {
            agent_id: agent_id.clone(),
            gateway: gateway.name.clone(),
            rtt,
        });
        // Disconnect, then reconnect later to collect.
        obs.wait = ctx.span_begin(obs.trace, obs.root, "result.wait");
        self.arm_poll(ctx, self.config.result_poll_initial);
        self.phase = Phase::WaitingResult(Dispatched {
            agent_id,
            gateway,
            dispatched_at: ctx.now(),
            dispatch_online,
            collect_online: SimDuration::ZERO,
            pi_bytes,
            give_ups: 0,
            obs,
        });
    }

    // --- result collection ---------------------------------------------------

    fn start_collect(&mut self, ctx: &mut Ctx<'_>) {
        let Phase::WaitingResult(mut job) = std::mem::replace(&mut self.phase, Phase::Idle)
        else {
            return;
        };
        if ctx.now().since(job.dispatched_at) >= COLLECT_DEADLINE {
            ctx.metrics().bump("device.collect_abandoned", 1.0);
            self.fail(ctx, Some(&job.obs), "collect", "no result by the collect deadline");
            return;
        }
        ctx.connection_opened();
        let obs = &mut job.obs;
        obs.fetch = ctx.span_begin(obs.trace, obs.root, "result.fetch");
        let req_id = self.http.send(
            ctx,
            job.gateway.node,
            HttpRequest::new("GET", PATH_RESULT, job.agent_id.clone().into_bytes())
                .traced(ObsContext { trace: obs.trace, span: obs.fetch }),
            (),
        );
        self.phase = Phase::Collecting { job, opened_at: ctx.now(), req_id };
    }

    /// Back to waiting after a collect that brought no result: the fetch
    /// span closes (`result.wait` stays open) and the next poll is armed.
    fn wait_again(&mut self, ctx: &mut Ctx<'_>, mut job: Dispatched) {
        self.arm_poll(ctx, self.config.result_poll_interval);
        ctx.span_end(job.obs.fetch);
        job.obs.fetch = 0;
        self.phase = Phase::WaitingResult(job);
    }

    fn finish_collect(
        &mut self,
        ctx: &mut Ctx<'_>,
        status: HttpStatus,
        body: &[u8],
        mut job: Dispatched,
        opened_at: SimTime,
    ) {
        job.collect_online += ctx.now().since(opened_at);
        ctx.connection_closed();
        ctx.span_end(job.obs.fetch);
        match status {
            HttpStatus::Ok => {
                let Dispatched { agent_id, dispatch_online, collect_online, pi_bytes, obs, .. } =
                    job;
                let result_bytes = body.len();
                let parsed = decompress(body).map_err(|e| e.to_string()).and_then(|xml| {
                    ResultDoc::from_document_str(
                        std::str::from_utf8(&xml).map_err(|e| e.to_string())?,
                    )
                });
                match parsed {
                    Ok(result) => {
                        if let Err(e) = self.db.put_result(body) {
                            self.error("collect", e.to_string());
                        }
                        ctx.metrics().bump("device.results_collected", 1.0);
                        self.timings.push(DeployTiming {
                            agent_id: agent_id.clone(),
                            dispatch_online,
                            collect_online,
                            completion: dispatch_online + collect_online,
                            pi_bytes,
                            result_bytes,
                        });
                        self.events
                            .push(DeviceEvent::ResultCollected { agent_id, result });
                    }
                    Err(e) => self.error("collect", e),
                }
                obs.close_all(ctx);
                self.next_command(ctx);
            }
            HttpStatus::Conflict => {
                // Not ready: disconnect and re-poll later (the journey is
                // still in flight).
                ctx.metrics().bump("device.result_polls", 1.0);
                self.wait_again(ctx, job);
            }
            other => self.fail(ctx, Some(&job.obs), "collect", format!("HTTP {}", other.code())),
        }
    }

    // --- management ----------------------------------------------------------

    fn start_manage(&mut self, ctx: &mut Ctx<'_>, op: ControlOp, agent_id: String) {
        let Some(gateway) = self.gateways.first().cloned() else {
            self.fail(ctx, None, "manage", "gateway list is empty");
            return;
        };
        ctx.connection_opened();
        let body = encode_control(op, &pdagent_mas::AgentId(agent_id.clone()));
        let req_id =
            self.http.send(ctx, gateway.node, HttpRequest::new("POST", PATH_MANAGE, body), ());
        self.phase = Phase::Managing { op, agent_id, req_id };
    }

    fn finish_manage(
        &mut self,
        ctx: &mut Ctx<'_>,
        op: ControlOp,
        agent_id: String,
        status: HttpStatus,
        body: bytes::Bytes,
    ) {
        ctx.connection_closed();
        self.events.push(DeviceEvent::ManageCompleted {
            op,
            agent_id,
            status,
            payload: body,
        });
        self.next_command(ctx);
    }
}

impl Node for DeviceNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.start_next(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
        if msg.kind == "device.kick" {
            self.start_next(ctx);
            return;
        }
        if msg.kind == KIND_PROBE_ACK {
            if let Phase::Probing { sent_at, rtts, .. } = &mut self.phase {
                if let Some(&idx) = msg.body.first() {
                    if let Some(slot) = rtts.get_mut(idx as usize) {
                        let rtt = ctx.now().since(*sent_at);
                        if slot.is_none() {
                            *slot = Some(rtt);
                        }
                    }
                }
            }
            self.maybe_finish_probing(ctx, false);
            return;
        }
        let Some((resp, ())) = self.http.on_response(ctx, &msg) else { return };
        // Route the response by current phase.
        match std::mem::replace(&mut self.phase, Phase::Idle) {
            Phase::FetchingList { resume_deploy } => {
                self.finish_fetch_list(ctx, resp.status, &resp.body, resume_deploy);
            }
            Phase::Subscribing { service, req_id, .. } if req_id == resp.req_id => {
                self.finish_subscribe(ctx, &service, resp.status, &resp.body);
            }
            Phase::Uploading { upload, req_id } if req_id == resp.req_id => {
                self.finish_upload(ctx, resp.status, &resp.body, upload);
            }
            Phase::Collecting { job, opened_at, req_id } if req_id == resp.req_id => {
                self.finish_collect(ctx, resp.status, &resp.body, job, opened_at);
            }
            Phase::Managing { op, agent_id, req_id } if req_id == resp.req_id => {
                self.finish_manage(ctx, op, agent_id, resp.status, resp.body);
            }
            other => {
                // Stale response for an abandoned phase: restore and ignore.
                self.phase = other;
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        match tag {
            TAG_NEXT => self.start_next(ctx),
            TAG_ENTRY_DONE => {
                if let Phase::Entering { deploy, obs } =
                    std::mem::replace(&mut self.phase, Phase::Idle)
                {
                    self.start_probing(ctx, deploy, obs, false, 1);
                }
            }
            TAG_PROBE_TIMEOUT => self.maybe_finish_probing(ctx, true),
            TAG_POLL => {
                self.poll = None;
                if matches!(self.phase, Phase::WaitingResult(_)) {
                    self.start_collect(ctx);
                }
            }
            other => {
                if self.http.on_timer(ctx, other).is_none() {
                    return;
                }
                // The request died (link down too long). Fail the phase —
                // except subscription (fails over down the list) and
                // result collection (the whole point of PDAgent is that
                // the device may be disconnected for long periods: go
                // back to waiting and poll again later).
                ctx.connection_closed();
                match std::mem::replace(&mut self.phase, Phase::Idle) {
                    Phase::Subscribing { service, gateway_idx, .. } => {
                        ctx.metrics().bump("device.subscribe_failovers", 1.0);
                        self.start_subscribe(ctx, service, gateway_idx + 1);
                    }
                    Phase::Collecting { mut job, opened_at, .. }
                        if job.give_ups < COLLECT_GIVE_UPS =>
                    {
                        job.give_ups += 1;
                        ctx.metrics().bump("device.collect_failures", 1.0);
                        job.collect_online += ctx.now().since(opened_at);
                        self.wait_again(ctx, job);
                    }
                    other => {
                        let context = match &other {
                            Phase::FetchingList { .. } => "fetch-gateways",
                            Phase::Uploading { .. } => "deploy",
                            Phase::Collecting { .. } => "collect",
                            Phase::Managing { .. } => "manage",
                            _ => "http",
                        };
                        // Close any journey spans the dying phase held.
                        let detail = "request timed out after retries";
                        self.fail(ctx, other.journey(), context, detail);
                    }
                }
            }
        }
    }
}
