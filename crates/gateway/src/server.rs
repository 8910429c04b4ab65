//! [`GatewayNode`]: the Agent Dispatch Handler, Agent Creator, Document
//! Creator and File Directory of the paper's Figure 4, as one protocol node.

use std::collections::{HashMap, HashSet, VecDeque};

use bytes::Bytes;

use pdagent_codec::compress::{compress, decompress, Algorithm};
use pdagent_crypto::envelope::open_envelope;
use pdagent_crypto::keys::{KeyRegistry, UniqueId};
use pdagent_crypto::md5::md5_hex;
use pdagent_crypto::rsa::{KeyPair, PublicKey};
use pdagent_mas::server::{
    decode_control, decode_control_resp, encode_control, ControlOp, SiteDirectory,
};
use pdagent_mas::transfer::TransferSender;
use pdagent_mas::{AgentId, Itinerary, MobileAgent, KIND_ACK, KIND_COMPLETE, KIND_CONTROL, KIND_CONTROL_RESP};
use pdagent_net::http::{reply, HttpRequest, HttpStatus};
use pdagent_net::prelude::*;
use pdagent_net::telemetry::TelemetryServer;
use pdagent_vm::Program;

use crate::filedir::{FileDirectory, FileKind};
use crate::pi::{PackedInformation, ResultDoc, Subscription};
use crate::{KIND_PROBE, KIND_PROBE_ACK, PATH_DISPATCH, PATH_MANAGE, PATH_RESULT, PATH_SUBSCRIBE};

/// Gateway tuning knobs.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Gateway name (appears in agent ids).
    pub name: String,
    /// Seed for the gateway's RSA key pair.
    pub key_seed: u64,
    /// Secret shared by all gateways of one operator. Code ids issued by any
    /// trusted gateway validate at any other (the paper's gateways form one
    /// trusted federation), and the key pair is derived from `key_seed`,
    /// which the operator also shares across its gateways.
    pub operator_secret: String,
    /// Hard cap on collected agents retained; the oldest are evicted first.
    pub completed_max_entries: usize,
}

impl GatewayConfig {
    /// Defaults for a 2004 server-class gateway.
    pub fn new(name: impl Into<String>, key_seed: u64) -> GatewayConfig {
        GatewayConfig {
            name: name.into(),
            key_seed,
            operator_secret: "pdagent-operator".into(),
            completed_max_entries: 8192,
        }
    }
}

/// Fixed request-processing overhead (servlet dispatch, XML parsing).
const PROCESSING_BASE: SimDuration = SimDuration::from_millis(20);
/// Additional processing time per KiB of dispatched payload.
const PROCESSING_PER_KIB: SimDuration = SimDuration::from_millis(2);
/// Compression used for subscription payloads and result documents.
const COMPRESSION: Algorithm = Algorithm::Auto;
/// How long a collected agent — its `dispatched` entry plus its stored
/// result — is kept after its first collect, for re-download and `Status`.
/// Uncollected results are held until the device comes back for them.
const COMPLETED_TTL: SimDuration = SimDuration::from_secs(600);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DispatchState {
    /// Launched; no result yet.
    InFlight,
    /// Result stored and held until the device collects it.
    Done,
    /// Collected at least once; on the completed list.
    Collected,
}

#[derive(Debug)]
struct ManagePending {
    device: NodeId,
    request: HttpRequest,
    outstanding: usize,
}

/// The gateway node.
pub struct GatewayNode {
    config: GatewayConfig,
    keys: KeyPair,
    registry: KeyRegistry,
    catalog: HashMap<String, Program>,
    next_agent: u64,
    next_code: u64,
    dispatched: HashMap<String, DispatchState>,
    /// Held results as the compressed document a collect serves, encoded
    /// once when the agent comes home; every collect clones the handle.
    results: HashMap<String, Bytes>,
    /// Agents in their processing delay, keyed by the timer that launches
    /// them into `transfers`, the first hop's sender.
    launching: HashMap<u64, MobileAgent>,
    next_tag: u64,
    transfers: TransferSender,
    pending_manage: HashMap<(ControlOp, String), ManagePending>,
    /// One reply slot per client: the id, status and body of the latest
    /// request whose answer was cached. A handheld has one request in flight
    /// at a time and its `HttpClient` ids only grow, so a retransmission
    /// (a slow link can delay a response past the client's RTO) carries the
    /// slot's id and is replayed instead of re-running the handler, and a
    /// lower id is a stale copy from a sender that has already moved on.
    /// Without this, a retransmitted dispatch would create a duplicate agent.
    replies: HashMap<NodeId, (u64, HttpStatus, Bytes)>,
    /// Collected agent ids in first-collect order — the "completed list" the
    /// device-facing `dispatched`/`results` maps grow into. Evicted lazily on
    /// every inbound message, after [`COMPLETED_TTL`] or past
    /// [`GatewayConfig::completed_max_entries`].
    completed_queue: VecDeque<(SimTime, String)>,
    /// Ground-truth record of `(client, req_id)` pairs whose dispatch handler
    /// actually ran (minted an agent). It is never evicted: executing the
    /// same pair twice is exactly the non-idempotent re-execution the reply
    /// slots exist to prevent, and the
    /// `gateway.duplicate_executions` counter it feeds is the chaos suite's
    /// no-duplicate-execution oracle.
    dispatch_seen: HashSet<(NodeId, u64)>,
    /// Observability side table: journey context (trace id + journey root
    /// span, taken from the dispatch request) and the open `gateway.stage`
    /// span per agent. Kept outside [`MobileAgent`] so the agent wire format
    /// is untouched.
    obs: HashMap<String, (ObsContext, u32)>,
    /// The File Directory (Figure 6): staged agent classes, parameter docs
    /// and result documents, under a disk quota.
    pub files: FileDirectory,
    /// Delta-encoded `/metrics` + `/healthz` server: interned series, dirty
    /// epochs, pooled render buffer.
    telemetry: TelemetryServer,
}

impl GatewayNode {
    /// A gateway with the given config and MAS site directory.
    pub fn new(config: GatewayConfig, directory: SiteDirectory) -> GatewayNode {
        let keys = KeyPair::generate(config.key_seed);
        GatewayNode {
            transfers: TransferSender::new("gateway", config.name.clone(), directory),
            config,
            keys,
            registry: KeyRegistry::new(),
            catalog: HashMap::new(),
            next_agent: 0,
            next_code: 0,
            dispatched: HashMap::new(),
            results: HashMap::new(),
            launching: HashMap::new(),
            next_tag: 0,
            pending_manage: HashMap::new(),
            replies: HashMap::new(),
            completed_queue: VecDeque::new(),
            dispatch_seen: HashSet::new(),
            obs: HashMap::new(),
            files: FileDirectory::new(64 << 20), // 64 MiB gateway disk budget
            telemetry: TelemetryServer::new(),
        }
    }

    /// Reply to `req` and keep the response in `from`'s slot for
    /// retransmission replay. A deferred manage answer whose client has
    /// since moved on to a newer request leaves the newer slot alone.
    fn respond(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        req: &HttpRequest,
        status: HttpStatus,
        body: impl Into<Bytes>,
    ) {
        // The slot and the wire reply share one allocation; a later replay
        // clones the `Bytes` handle, not the payload.
        let body = body.into();
        if self.replies.get(&from).is_none_or(|&(id, ..)| id <= req.req_id) {
            self.replies.insert(from, (req.req_id, status, body.clone()));
        }
        reply(ctx, from, req, status, body);
    }

    /// Lazy TTL/cap sweep over the completed list, run on every inbound
    /// message before the slot lookup.
    fn evict(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        while let Some(&(stamp, _)) = self.completed_queue.front() {
            let expired = stamp + COMPLETED_TTL <= now;
            if !expired && self.completed_queue.len() <= self.config.completed_max_entries {
                break;
            }
            let (_, id) = self.completed_queue.pop_front().expect("front checked");
            // A Dispose may have removed the entry already.
            if self.dispatched.get(&id) == Some(&DispatchState::Collected) {
                self.dispatched.remove(&id);
                if self.results.remove(&id).is_some() {
                    let _ = self.files.release(&format!("{id}/result.xml"));
                }
                ctx.metrics().bump("gateway.completed_evictions", 1.0);
            }
        }
        ctx.metrics().set_gauge("gateway.replay_entries", self.replies.len() as f64);
        ctx.metrics().set_gauge("gateway.results_entries", self.results.len() as f64);
        ctx.metrics().set_gauge("gateway.dispatched_entries", self.dispatched.len() as f64);
    }

    /// The gateway's public key — devices obtain this at subscription time
    /// (out of band from a *trusted* gateway, per §3.4).
    pub fn public_key(&self) -> PublicKey {
        self.keys.public
    }

    /// Gateway name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// Publish MA code for a service so devices can subscribe to it.
    pub fn publish(&mut self, service: impl Into<String>, program: Program) {
        self.catalog.insert(service.into(), program);
    }

    /// Number of stored (uncollected or collected) result documents.
    pub fn stored_results(&self) -> usize {
        self.results.len()
    }

    /// Result for an agent, decoded from the held download (inspection in
    /// tests/harnesses).
    pub fn result_for(&self, agent_id: &str) -> Option<ResultDoc> {
        let xml = decompress(self.results.get(agent_id)?).ok()?;
        ResultDoc::from_document_str(std::str::from_utf8(&xml).ok()?).ok()
    }

    fn processing_delay(&self, payload_bytes: usize) -> SimDuration {
        let kib = payload_bytes as u64 / 1024;
        SimDuration(PROCESSING_BASE.as_micros() + kib * PROCESSING_PER_KIB.as_micros())
    }

    // --- request handlers -------------------------------------------------

    fn handle_subscribe(&mut self, ctx: &mut Ctx<'_>, from: NodeId, req: &HttpRequest) {
        let Ok(service) = std::str::from_utf8(&req.body) else {
            self.respond(ctx, from, req, HttpStatus::BadRequest, Vec::new());
            return;
        };
        let service = service.to_owned();
        if !self.catalog.contains_key(&service) {
            self.respond(ctx, from, req, HttpStatus::NotFound, Vec::new());
            return;
        }
        let program = self.catalog.get(&service).expect("checked").clone();
        let service = service.as_str();
        self.next_code += 1;
        let id = UniqueId::mint(service, &format!("dev{}", ctx.label_of(from)), self.next_code);
        // Derive a per-code shared secret; the device receives it inside the
        // (trusted, §3.4) subscription download and uses it to compute the
        // authorization key at dispatch time.
        let secret = code_secret(&self.config.operator_secret, &id);
        self.registry.register_code(id.clone(), secret.clone());
        let subscription = Subscription {
            service: service.to_owned(),
            code_id: id.0.clone(),
            secret,
            gateway: self.config.name.clone(),
            public_key: self.keys.public,
            program,
        };
        let body = compress(subscription.download_document().as_bytes(), COMPRESSION);
        ctx.metrics().bump("gateway.subscriptions", 1.0);
        self.respond(ctx, from, req, HttpStatus::Ok, body);
    }

    fn handle_dispatch(&mut self, ctx: &mut Ctx<'_>, from: NodeId, req: &HttpRequest) {
        // Envelope → compressed PI → PI document (Figure 7's receive side).
        let plaintext = match open_envelope(&self.keys.private, &req.body) {
            Ok(p) => p,
            Err(e) => {
                ctx.metrics().bump("gateway.bad_envelopes", 1.0);
                self.respond(ctx, from, req, HttpStatus::BadRequest, e.to_string().into_bytes());
                return;
            }
        };
        let xml_bytes = match decompress(&plaintext) {
            Ok(b) => b,
            Err(e) => {
                self.respond(ctx, from, req, HttpStatus::BadRequest, e.to_string().into_bytes());
                return;
            }
        };
        let pi = match std::str::from_utf8(&xml_bytes)
            .map_err(|e| e.to_string())
            .and_then(PackedInformation::from_document_str)
        {
            Ok(pi) => pi,
            Err(e) => {
                self.respond(ctx, from, req, HttpStatus::BadRequest, e.into_bytes());
                return;
            }
        };
        // Agent Creator: "generate mobile agent classes … if the supplied
        // unique key is valid".
        let code_id = UniqueId(pi.code_id.clone());
        let expected = code_id.derive_key(&code_secret(&self.config.operator_secret, &code_id));
        let locally_valid = self.registry.validate_code_key(&code_id, &pi.auth_key);
        if !locally_valid && pi.auth_key != expected {
            ctx.metrics().bump("gateway.unauthorized", 1.0);
            self.respond(ctx, from, req, HttpStatus::Unauthorized, Vec::new());
            return;
        }
        if !self.dispatch_seen.insert((from, req.req_id)) {
            // The handler is running a second time for the same request —
            // a retransmission or duplicated packet slipped past the reply
            // slot, and the non-idempotent step below re-executes.
            ctx.metrics().bump("gateway.duplicate_executions", 1.0);
        }
        self.next_agent += 1;
        let agent_id = format!("ag-{}@{}", self.next_agent, self.config.name);
        // File Directory (Figure 6): stage the generated agent classes and
        // the parameter document for the MAS to pick up.
        let mut params_doc = Vec::new();
        for (k, v) in &pi.params {
            params_doc.extend_from_slice(k.as_bytes());
            params_doc.push(b'=');
            params_doc.extend_from_slice(v.render().as_bytes());
            params_doc.push(b'\n');
        }
        let mut agent = MobileAgent::new(
            AgentId(agent_id.clone()),
            pi.program,
            pi.params,
            Itinerary { sites: pi.itinerary },
            ctx.id() as u64,
        );
        let staged = self
            .files
            .allocate(
                format!("{agent_id}/classes"),
                FileKind::AgentClasses,
                agent.program.wire().to_vec(),
            )
            .and_then(|()| {
                self.files.allocate(
                    format!("{agent_id}/params.xml"),
                    FileKind::ParameterDoc,
                    params_doc,
                )
            });
        if let Err(e) = staged {
            ctx.metrics().bump("gateway.disk_full", 1.0);
            self.respond(ctx, from, req, HttpStatus::ServerError, e.to_string().into_bytes());
            return;
        }
        agent.fuel_per_hop = pi.fuel_per_hop;
        self.dispatched.insert(agent_id.clone(), DispatchState::InFlight);
        // Respond immediately with the agent id (the device shows it on
        // screen, Figure 11c), then launch after the processing delay.
        self.respond(ctx, from, req, HttpStatus::Accepted, agent_id.clone().into_bytes());
        // `gateway.stage` covers dispatch arrival → first transfer acked.
        // Onward transfers carry the journey root (`req.obs.span`) so MAS hop
        // spans nest directly under the journey, not under this stage.
        let stage = ctx.span_begin(req.obs.trace, req.obs.span, "gateway.stage");
        self.obs.insert(agent_id.clone(), (req.obs, stage));
        let delay = self.processing_delay(req.body.len());
        self.next_tag += 1;
        ctx.set_timer(delay, self.next_tag);
        self.launching.insert(self.next_tag, agent);
        ctx.metrics().bump("gateway.dispatches", 1.0);
    }

    fn handle_result(&mut self, ctx: &mut Ctx<'_>, from: NodeId, req: &HttpRequest) {
        let Ok(agent_id) = std::str::from_utf8(&req.body) else {
            self.respond(ctx, from, req, HttpStatus::BadRequest, Vec::new());
            return;
        };
        let agent_id = agent_id.to_owned();
        match self.results.get(&agent_id) {
            Some(body) => {
                let body = body.clone();
                ctx.metrics().bump("gateway.results_served", 1.0);
                let _ = self.files.release(&format!("{agent_id}/result.xml"));
                // The first collect puts the agent on the completed list; until
                // then its result is held however long the device stays away.
                if self.dispatched.insert(agent_id.clone(), DispatchState::Collected)
                    != Some(DispatchState::Collected)
                {
                    self.completed_queue.push_back((ctx.now(), agent_id));
                }
                self.respond(ctx, from, req, HttpStatus::Ok, body);
            }
            None => {
                let status = if self.dispatched.contains_key(&agent_id) {
                    HttpStatus::Conflict // dispatched, not back yet
                } else {
                    HttpStatus::NotFound
                };
                // Deliberately NOT cached: a later retry must be able to see
                // the result once the agent returns.
                reply(ctx, from, req, status, Vec::new());
            }
        }
    }

    fn handle_manage(&mut self, ctx: &mut Ctx<'_>, from: NodeId, req: &HttpRequest) {
        let Some((op, id)) = decode_control(&req.body) else {
            self.respond(ctx, from, req, HttpStatus::BadRequest, Vec::new());
            return;
        };
        // A retransmission of a manage request that is already being fanned
        // out: ignore; the pending completion will answer it.
        if self
            .pending_manage
            .get(&(op, id.0.clone()))
            .is_some_and(|p| p.device == from && p.request.req_id == req.req_id)
        {
            return;
        }
        // Already back home? Answer directly.
        if self.results.contains_key(&id.0) {
            match op {
                ControlOp::Status => {
                    self.respond(ctx, from, req, HttpStatus::Ok, b"returned".to_vec());
                }
                ControlOp::Retract | ControlOp::Dispose | ControlOp::Clone => {
                    // Nothing to do on a returned agent; dispose drops the
                    // stored result and its staged document.
                    if op == ControlOp::Dispose {
                        self.results.remove(&id.0);
                        self.dispatched.remove(&id.0);
                        let _ = self.files.remove(&format!("{}/result.xml", id.0));
                    }
                    self.respond(ctx, from, req, HttpStatus::Ok, Vec::new());
                }
            }
            return;
        }
        if !self.dispatched.contains_key(&id.0) {
            self.respond(ctx, from, req, HttpStatus::NotFound, Vec::new());
            return;
        }
        // Fan the control request out to every MAS site.
        let directory = self.transfers.directory();
        let mut outstanding = 0;
        for site in &directory.names() {
            if let Some(node) = directory.resolve(site) {
                ctx.send(node, Message::new(KIND_CONTROL, encode_control(op, &id)));
                outstanding += 1;
            }
        }
        if outstanding == 0 {
            self.respond(ctx, from, req, HttpStatus::NotFound, Vec::new());
            return;
        }
        ctx.metrics().bump("gateway.manage_relayed", 1.0);
        self.pending_manage.insert(
            (op, id.0.clone()),
            ManagePending { device: from, request: req.clone(), outstanding },
        );
    }

    fn handle_control_resp(&mut self, ctx: &mut Ctx<'_>, body: &[u8]) {
        let Some((op, id, found, payload)) = decode_control_resp(body) else { return };
        let key = (op, id.0.clone());
        let Some(pending) = self.pending_manage.get_mut(&key) else { return };
        if found {
            let pending = self.pending_manage.remove(&key).expect("present");
            if op == ControlOp::Clone {
                // Track the clone so its completion is stored too.
                if let Ok(clone_id) = std::str::from_utf8(payload) {
                    self.dispatched.insert(clone_id.to_owned(), DispatchState::InFlight);
                }
            }
            if op == ControlOp::Dispose {
                self.dispatched.remove(&id.0);
            }
            let device = pending.device;
            let request = pending.request.clone();
            self.respond(ctx, device, &request, HttpStatus::Ok, payload.to_vec());
        } else {
            pending.outstanding -= 1;
            if pending.outstanding == 0 {
                let pending = self.pending_manage.remove(&key).expect("present");
                // The agent may be in transit between sites; report 409 so
                // the device can retry, unless we never heard of it.
                let status = if self.dispatched.contains_key(&id.0) {
                    HttpStatus::Conflict
                } else {
                    HttpStatus::NotFound
                };
                // Not cached: the device may retry and deserve a fresh answer.
                reply(ctx, pending.device, &pending.request, status, Vec::new());
            }
        }
    }

    // --- agent return ----------------------------------------------------

    fn store_result(&mut self, ctx: &mut Ctx<'_>, agent: MobileAgent) {
        // A second completion (a transfer retried past an ack the paused
        // gateway dropped) must not take a collected agent off the
        // completed list, where nothing would ever evict it.
        if matches!(
            self.dispatched.get(&agent.id.0),
            Some(DispatchState::Done | DispatchState::Collected)
        ) {
            return;
        }
        // The agent is home, so its staged classes and parameters are
        // evictable even if no site ever acked its first transfer.
        let _ = self.files.release(&format!("{}/classes", agent.id.0));
        let _ = self.files.release(&format!("{}/params.xml", agent.id.0));
        let xml = ResultDoc::from_agent(&agent).to_document_string();
        let body = Bytes::from(compress(xml.as_bytes(), COMPRESSION));
        let _ = self.files.allocate(
            format!("{}/result.xml", agent.id.0),
            FileKind::ResultDoc,
            xml.into_bytes(),
        );
        ctx.metrics().bump("gateway.results_stored", 1.0);
        // Close the stage span if it is still open (idempotent — an agent
        // whose whole itinerary was unreachable never got an ack), and drop
        // the journey's side-table entry: the gateway is done with it.
        if let Some((_, stage)) = self.obs.remove(&agent.id.0) {
            ctx.span_end(stage);
        }
        self.dispatched.insert(agent.id.0.clone(), DispatchState::Done);
        self.results.insert(agent.id.0.clone(), body);
        ctx.metrics().set_gauge("gateway.results_entries", self.results.len() as f64);
        ctx.metrics().set_gauge("gateway.dispatched_entries", self.dispatched.len() as f64);
    }
}

/// Deterministic per-code shared secret: any gateway holding the operator
/// secret can issue and validate code ids (stateless federation).
fn code_secret(operator_secret: &str, id: &UniqueId) -> String {
    md5_hex(format!("{operator_secret}/{}", id.0).as_bytes())
}

impl Node for GatewayNode {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        self.evict(ctx);
        match msg.kind.as_str() {
            KIND_PROBE => {
                // 1-byte RTT probe (Figure 8): echo immediately.
                ctx.send(from, Message::new(KIND_PROBE_ACK, msg.body));
            }
            KIND_COMPLETE => {
                if let Ok(agent) = MobileAgent::from_bytes(&msg.body) {
                    self.store_result(ctx, agent);
                }
            }
            KIND_ACK => {
                if let Some(agent) = self.transfers.on_ack(&msg.body) {
                    let id = &agent.id.0;
                    // Staging ends when the first MAS acks the transfer.
                    if let Some(&(_, stage)) = self.obs.get(id) {
                        ctx.span_end(stage);
                    }
                    // The MAS has the agent; the staged classes/params are
                    // now evictable.
                    let _ = self.files.release(&format!("{id}/classes"));
                    let _ = self.files.release(&format!("{id}/params.xml"));
                }
            }
            KIND_CONTROL_RESP => self.handle_control_resp(ctx, &msg.body),
            _ => {
                let Some(req) = HttpRequest::from_message(&msg) else { return };
                // Telemetry endpoints answer before the slot lookup and
                // never enter a slot: a scrape must always observe fresh
                // state, and cached expositions would poison windows.
                if self.telemetry.serve(ctx, from, &req, &self.config.name) {
                    return;
                }
                match self.replies.get(&from) {
                    // Retransmission of the request we last answered: replay.
                    Some((id, status, body)) if *id == req.req_id => {
                        ctx.metrics().bump("gateway.replays", 1.0);
                        reply(ctx, from, &req, *status, body.clone());
                        return;
                    }
                    // A late copy of an older request: its sender has moved on.
                    Some((id, ..)) if *id > req.req_id => {
                        ctx.metrics().bump("gateway.stale_requests", 1.0);
                        return;
                    }
                    _ => {}
                }
                match req.path.as_str() {
                    PATH_SUBSCRIBE => self.handle_subscribe(ctx, from, &req),
                    PATH_DISPATCH => self.handle_dispatch(ctx, from, &req),
                    PATH_RESULT => self.handle_result(ctx, from, &req),
                    PATH_MANAGE => self.handle_manage(ctx, from, &req),
                    _ => reply(ctx, from, &req, HttpStatus::NotFound, Vec::new()),
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        // Processing is over: launch the agent. One with no reachable site
        // left, at launch or once the sender gave up on the last one, is home.
        let home = match self.launching.remove(&tag) {
            Some(agent) => {
                let octx = self.obs.get(&agent.id.0).map(|&(c, _)| c).unwrap_or_default();
                self.transfers.send(ctx, agent, octx)
            }
            None => self.transfers.on_timer(ctx, tag),
        };
        if let Some(agent) = home {
            self.store_result(ctx, agent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdagent_codec::compress::decompress;
    use pdagent_crypto::envelope::seal_envelope;
    use pdagent_mas::{EchoService, MasNode};
    use pdagent_net::http::{HttpClient, HttpResponse};
    use pdagent_net::link::LinkSpec;
    use pdagent_net::sim::Simulator;
    use pdagent_vm::assemble;

    fn banking_program() -> Program {
        assemble(
            r#"
            .name ebank
            param "user"
            invoke "echo" "txn" 1
            emit "receipt"
            halt
        "#,
        )
        .unwrap()
    }

    /// A scripted device driving the full subscribe → dispatch → collect
    /// flow over HTTP. Used by the gateway tests; the real device platform
    /// lives in pdagent-core.
    struct ScriptDevice {
        gateway: NodeId,
        http: HttpClient,
        phase: Phase,
        /// Parsed subscription (id, secret, pubkey).
        sub: Option<(String, String, PublicKey)>,
        agent_id: Option<String>,
        result: Option<ResultDoc>,
        statuses: Vec<HttpStatus>,
        /// Every response that reached the device, including replays of
        /// requests its `HttpClient` already finished.
        wire: Vec<(u64, HttpStatus)>,
        /// The request id of the last collect.
        collect_req: Option<u64>,
        tamper_key: bool,
        poll_delay: SimDuration,
    }

    #[derive(PartialEq)]
    enum Phase {
        Subscribing,
        Dispatching,
        Waiting,
        Collecting,
        Done,
    }

    impl ScriptDevice {
        fn new(gateway: NodeId) -> ScriptDevice {
            ScriptDevice {
                gateway,
                http: HttpClient::new(),
                phase: Phase::Subscribing,
                sub: None,
                agent_id: None,
                result: None,
                statuses: vec![],
                wire: vec![],
                collect_req: None,
                tamper_key: false,
                poll_delay: SimDuration::from_secs(2),
            }
        }

        fn dispatch(&mut self, ctx: &mut Ctx<'_>) {
            let (id, secret, pubkey) = self.sub.clone().unwrap();
            let auth_key = if self.tamper_key {
                "wrong-key".to_owned()
            } else {
                UniqueId(id.clone()).derive_key(&secret)
            };
            let pi = PackedInformation {
                code_id: id,
                auth_key,
                program: banking_program(),
                itinerary: vec!["bank-a".into(), "bank-b".into()],
                params: vec![("user".into(), pdagent_vm::Value::Str("alice".into()))],
                fuel_per_hop: 100_000,
            };
            let compressed =
                compress(pi.to_document_string().as_bytes(), Algorithm::Auto);
            let env = seal_envelope(&pubkey, &compressed, b"device-entropy-1");
            self.phase = Phase::Dispatching;
            self.http.send(
                ctx,
                self.gateway,
                HttpRequest::new("POST", PATH_DISPATCH, env.bytes),
            );
        }
    }

    impl Node for ScriptDevice {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.http.send(
                ctx,
                self.gateway,
                HttpRequest::new("POST", PATH_SUBSCRIBE, b"ebank".to_vec()),
            );
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
            if let Some(resp) = HttpResponse::from_message(&msg) {
                self.wire.push((resp.req_id, resp.status));
            }
            let Some(HttpResponse { status, body, .. }) = self.http.on_response(ctx, &msg)
            else {
                return;
            };
            self.statuses.push(status);
            match self.phase {
                Phase::Subscribing => {
                    if status != HttpStatus::Ok {
                        self.phase = Phase::Done;
                        return;
                    }
                    let sub = Subscription::from_download("ebank", &body).unwrap();
                    self.sub = Some((sub.code_id, sub.secret, sub.public_key));
                    self.dispatch(ctx);
                }
                Phase::Dispatching => {
                    if status != HttpStatus::Accepted {
                        self.phase = Phase::Done;
                        return;
                    }
                    self.agent_id = Some(String::from_utf8(body.to_vec()).unwrap());
                    self.phase = Phase::Waiting;
                    ctx.set_timer(self.poll_delay, 1);
                }
                Phase::Collecting => {
                    if status == HttpStatus::Ok {
                        let xml = decompress(&body).unwrap();
                        self.result = Some(
                            ResultDoc::from_document_str(
                                std::str::from_utf8(&xml).unwrap(),
                            )
                            .unwrap(),
                        );
                        self.phase = Phase::Done;
                    } else if status == HttpStatus::Conflict {
                        // Not ready yet: poll again.
                        self.phase = Phase::Waiting;
                        ctx.set_timer(self.poll_delay, 1);
                    } else {
                        self.phase = Phase::Done;
                    }
                }
                _ => {}
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
            if tag == 1 && self.phase == Phase::Waiting {
                self.phase = Phase::Collecting;
                let id = self.agent_id.clone().unwrap();
                self.collect_req = Some(self.http.send(
                    ctx,
                    self.gateway,
                    HttpRequest::new("GET", PATH_RESULT, id.into_bytes()),
                ));
            } else {
                self.http.on_timer(ctx, tag);
            }
        }
    }

    /// Full scenario: device + gateway + 2 bank MAS sites.
    fn build(seed: u64) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(seed);
        // Node ids are sequential: 0 gateway, 1 bank-a, 2 bank-b, 3 device.
        let mut directory = SiteDirectory::new();
        directory.insert("bank-a", 1);
        directory.insert("bank-b", 2);
        let mut gw = GatewayNode::new(GatewayConfig::new("gw-1", 99), directory.clone());
        gw.publish("ebank", banking_program());
        let gateway = sim.add_node(Box::new(gw));
        for name in ["bank-a", "bank-b"] {
            let mut mas = MasNode::new(name, directory.clone());
            mas.register_service("echo", Box::new(EchoService));
            sim.add_node(Box::new(mas));
        }
        let device = sim.add_node(Box::new(ScriptDevice::new(gateway)));
        sim.connect(device, gateway, LinkSpec::wireless_gprs());
        sim.connect(gateway, 1, LinkSpec::wired_internet());
        sim.connect(gateway, 2, LinkSpec::wired_internet());
        sim.connect(1, 2, LinkSpec::wired_internet());
        (sim, gateway, device)
    }

    #[test]
    fn end_to_end_subscribe_dispatch_collect() {
        let (mut sim, gateway, device) = build(1);
        sim.run_until_idle();
        let d = sim.node_ref::<ScriptDevice>(device).unwrap();
        let result = d.result.as_ref().expect("result collected");
        assert_eq!(result.status, crate::pi::ResultStatus::Completed);
        // Receipts from both banks, echoing the user parameter.
        let receipts: Vec<String> = result
            .entries_for("receipt")
            .map(|e| e.value.render())
            .collect();
        assert_eq!(receipts, vec!["txn(alice)", "txn(alice)"]);
        let sites: Vec<&str> =
            result.entries_for("receipt").map(|e| e.site.as_str()).collect();
        assert_eq!(sites, vec!["bank-a", "bank-b"]);
        let gw = sim.node_ref::<GatewayNode>(gateway).unwrap();
        assert_eq!(gw.stored_results(), 1);
        // The File Directory staged the agent classes, the parameter doc and
        // the result document; all three are released (evictable) by now —
        // classes/params when the MAS acked the transfer, the result when
        // the device collected it.
        let agent_id = d.agent_id.as_ref().unwrap();
        assert_eq!(gw.files.len(), 3);
        for suffix in ["classes", "params.xml", "result.xml"] {
            assert!(
                gw.files.read(&format!("{agent_id}/{suffix}")).is_ok(),
                "missing staged {suffix}"
            );
        }
        assert!(gw.files.used() > 0);
    }

    /// A client that only records what the gateway sends it.
    #[derive(Default)]
    struct Sink {
        received: Vec<HttpResponse>,
    }

    impl Node for Sink {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
            self.received.extend(HttpResponse::from_message(&msg));
        }
    }

    /// A gateway with no MAS sites (agents complete at once, every hop
    /// unreachable) and a [`Sink`] client on a LAN link.
    fn build_sink(seed: u64) -> (Simulator, NodeId, NodeId, PublicKey) {
        let mut sim = Simulator::new(seed);
        let gw = GatewayNode::new(GatewayConfig::new("gw-1", 99), SiteDirectory::new());
        let key = gw.public_key();
        let gateway = sim.add_node(Box::new(gw));
        let client = sim.add_node(Box::new(Sink::default()));
        sim.connect(client, gateway, LinkSpec::lan());
        (sim, gateway, client, key)
    }

    /// A dispatch request carrying `pad` bytes of stored (uncompressed)
    /// parameter, authorized through the operator secret.
    fn dispatch_request(key: &PublicKey, req_id: u64, pad: usize) -> Message {
        let code_id = UniqueId("ebank/dev9/1".into());
        let auth_key = code_id.derive_key(&code_secret("pdagent-operator", &code_id));
        let pi = PackedInformation {
            code_id: code_id.0,
            auth_key,
            program: banking_program(),
            itinerary: vec!["bank-a".into()],
            params: vec![
                ("user".into(), pdagent_vm::Value::Str("alice".into())),
                ("pad".into(), pdagent_vm::Value::Str("x".repeat(pad))),
            ],
            fuel_per_hop: 100_000,
        };
        let stored = compress(pi.to_document_string().as_bytes(), Algorithm::Store);
        let env = seal_envelope(key, &stored, b"device-entropy-1");
        let mut req = HttpRequest::new("POST", PATH_DISPATCH, env.bytes);
        req.req_id = req_id;
        req.to_message()
    }

    #[test]
    fn dispatch_retransmitted_after_ten_minutes_is_replayed_not_rerun() {
        // A 128 KiB upload's size-scaled RTO is over two minutes, so a
        // retransmission 601 s after the first copy is within the handheld's
        // nine attempts. Its slot still holds the answer.
        let (mut sim, gateway, client, key) = build_sink(31);
        let msg = dispatch_request(&key, 1, 128 * 1024);
        assert!(msg.body.len() > 128 * 1024);
        sim.inject_at(gateway, client, msg.clone(), SimTime::ZERO);
        sim.run_until_idle();
        let later = SimTime::ZERO + SimDuration::from_secs(601);
        sim.inject_at(gateway, client, msg, later);
        sim.run_until_idle();
        let m = sim.metrics(gateway);
        assert_eq!(m.counter("gateway.dispatches"), 1.0);
        assert_eq!(m.counter("gateway.replays"), 1.0);
        assert_eq!(m.counter("gateway.duplicate_executions"), 0.0);
        let sink = sim.node_ref::<Sink>(client).unwrap();
        assert_eq!(sink.received.len(), 2);
        assert_eq!(sink.received[0], sink.received[1], "the replay is the original answer");
        assert_eq!(sink.received[1].status, HttpStatus::Accepted);
    }

    #[test]
    fn stale_copy_of_an_older_request_is_dropped_unanswered() {
        let (mut sim, gateway, client, key) = build_sink(32);
        let first = dispatch_request(&key, 1, 0);
        sim.inject_at(gateway, client, first.clone(), SimTime::ZERO);
        sim.run_until_idle();
        // The client moves on to its next request, which is answered and
        // cached; only then does a delayed copy of the first one arrive.
        let second = dispatch_request(&key, 2, 0);
        let t = sim.now() + SimDuration::from_secs(1);
        sim.inject_at(gateway, client, second, t);
        sim.run_until_idle();
        let t = sim.now() + SimDuration::from_secs(1);
        sim.inject_at(gateway, client, first, t);
        sim.run_until_idle();
        let m = sim.metrics(gateway);
        assert_eq!(m.counter("gateway.dispatches"), 2.0);
        assert_eq!(m.counter("gateway.stale_requests"), 1.0);
        assert_eq!(m.counter("gateway.replays"), 0.0);
        assert_eq!(m.counter("gateway.duplicate_executions"), 0.0);
        let ids: Vec<u64> =
            sim.node_ref::<Sink>(client).unwrap().received.iter().map(|r| r.req_id).collect();
        assert_eq!(ids, vec![1, 2], "the stale copy gets no answer");
    }

    #[test]
    fn disposing_an_unreachable_agent_leaves_no_pinned_file() {
        // With no MAS sites the agent comes home without any site acking
        // its transfer; a Dispose then drops its uncollected result.
        let (mut sim, gateway, client, key) = build_sink(33);
        sim.inject_at(gateway, client, dispatch_request(&key, 1, 0), SimTime::ZERO);
        sim.run_until_idle();
        let agent_id =
            String::from_utf8(sim.node_ref::<Sink>(client).unwrap().received[0].body.to_vec())
                .unwrap();
        let mut dispose = HttpRequest::new(
            "POST",
            PATH_MANAGE,
            encode_control(ControlOp::Dispose, &AgentId(agent_id.clone())),
        );
        dispose.req_id = 2;
        let t = sim.now() + SimDuration::from_secs(1);
        sim.inject_at(gateway, client, dispose.to_message(), t);
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<Sink>(client).unwrap().received[1].status, HttpStatus::Ok);
        let gw = sim.node_mut::<GatewayNode>(gateway).unwrap();
        assert_eq!(gw.stored_results(), 0);
        assert!(gw.files.read(&format!("{agent_id}/result.xml")).is_err());
        // The classes and parameters stay readable, but nothing is pinned:
        // a file the size of the whole budget evicts them both.
        assert_eq!(gw.files.len(), 2);
        gw.files.quota = gw.files.used();
        gw.files.allocate("probe", FileKind::ResultDoc, vec![0; gw.files.quota]).unwrap();
        assert_eq!(gw.files.names(), vec!["probe"]);
    }

    #[test]
    fn result_waits_for_its_first_collect_and_a_late_retransmit_replays_it() {
        let (mut sim, gateway, device) = build(23);
        // No collected agent may stay on the completed list, yet the result
        // must survive until the device comes back for it.
        sim.node_mut::<GatewayNode>(gateway).unwrap().config.completed_max_entries = 0;
        sim.node_mut::<ScriptDevice>(device).unwrap().poll_delay = SimDuration::from_secs(30);
        sim.run_until_idle();
        let d = sim.node_ref::<ScriptDevice>(device).unwrap();
        assert!(d.result.is_some(), "statuses {:?}", d.statuses);
        let (agent_id, collect) = (d.agent_id.clone().unwrap(), d.collect_req.unwrap());
        // A retransmitted collect arrives after the sweep evicted the result
        // and is still answered from the device's slot.
        let mut req = HttpRequest::new("GET", PATH_RESULT, agent_id.into_bytes());
        req.req_id = collect;
        let later = sim.now() + SimDuration::from_secs(5);
        sim.inject_at(gateway, device, req.to_message(), later);
        sim.run_until_idle();
        let m = sim.metrics(gateway);
        assert_eq!(m.counter("gateway.completed_evictions"), 1.0);
        assert_eq!(m.counter("gateway.replays"), 1.0);
        assert_eq!(sim.node_ref::<GatewayNode>(gateway).unwrap().stored_results(), 0);
        let wire = &sim.node_ref::<ScriptDevice>(device).unwrap().wire;
        assert_eq!(wire.last(), Some(&(collect, HttpStatus::Ok)));
        assert_eq!(wire.iter().filter(|&&w| w == (collect, HttpStatus::Ok)).count(), 2);
    }

    #[test]
    fn duplicate_completion_leaves_a_collected_agent_evictable() {
        let (mut sim, gateway, device) = build(24);
        sim.run_until_idle();
        let agent_id = sim.node_ref::<ScriptDevice>(device).unwrap().agent_id.clone().unwrap();
        // A second completion for the collected agent, as a transfer retried
        // after a lost ack would send.
        let agent = MobileAgent::new(
            AgentId(agent_id),
            banking_program(),
            vec![],
            Itinerary { sites: vec![] },
            gateway as u64,
        );
        let later = sim.now() + SimDuration::from_secs(1);
        sim.inject_at(gateway, 1, Message::new(KIND_COMPLETE, agent.to_bytes()), later);
        sim.run_until_idle();
        assert_eq!(sim.metrics(gateway).counter("gateway.results_stored"), 1.0);
        sim.node_mut::<GatewayNode>(gateway).unwrap().config.completed_max_entries = 0;
        let later = sim.now() + SimDuration::from_secs(1);
        sim.inject_at(gateway, device, Message::new(KIND_PROBE, vec![1]), later);
        sim.run_until_idle();
        assert_eq!(sim.metrics(gateway).counter("gateway.completed_evictions"), 1.0);
        assert_eq!(sim.node_ref::<GatewayNode>(gateway).unwrap().stored_results(), 0);
    }

    #[test]
    fn completed_list_evicts_after_ttl_while_reply_slots_stay() {
        let (mut sim, gateway, device) = build(9);
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<GatewayNode>(gateway).unwrap().stored_results(), 1);
        // One client, one slot, however many requests it made.
        assert_eq!(sim.metrics(gateway).gauge("gateway.replay_entries"), 1.0);
        // A probe past the TTL triggers the lazy sweep: the collected agent
        // (dispatched entry + stored result) is dropped; the slot is not.
        let later = sim.now() + COMPLETED_TTL + SimDuration::from_secs(1);
        sim.inject_at(gateway, device, Message::new(KIND_PROBE, vec![1]), later);
        sim.run_until_idle();
        let m = sim.metrics(gateway);
        assert_eq!(m.counter("gateway.completed_evictions"), 1.0);
        assert_eq!(m.gauge("gateway.results_entries"), 0.0);
        assert_eq!(m.gauge("gateway.replay_entries"), 1.0);
        assert_eq!(sim.node_ref::<GatewayNode>(gateway).unwrap().stored_results(), 0);
    }

    #[test]
    fn completed_cache_cap_pressure_evicts_and_updates_gauges() {
        let (mut sim, gateway, device) = build(21);
        sim.run_until_idle();
        // The finished agent sits in the completed list (result retained for
        // re-collection) until cap pressure arrives: shrink the cap to zero
        // and poke the gateway so the lazy sweep runs.
        let m = sim.metrics(gateway);
        assert_eq!(m.counter("gateway.completed_evictions"), 0.0);
        assert_eq!(m.gauge("gateway.results_entries"), 1.0);
        assert_eq!(m.gauge("gateway.dispatched_entries"), 1.0);
        sim.node_mut::<GatewayNode>(gateway).unwrap().config.completed_max_entries = 0;
        let later = sim.now() + SimDuration::from_secs(1);
        sim.inject_at(gateway, device, Message::new(KIND_PROBE, vec![1]), later);
        sim.run_until_idle();
        let m = sim.metrics(gateway);
        assert_eq!(m.counter("gateway.completed_evictions"), 1.0);
        assert_eq!(m.gauge("gateway.results_entries"), 0.0);
        assert_eq!(m.gauge("gateway.dispatched_entries"), 0.0);
        assert_eq!(sim.node_ref::<GatewayNode>(gateway).unwrap().stored_results(), 0);
    }

    #[test]
    fn eviction_metrics_round_trip_through_prom_exposition() {
        use pdagent_net::telemetry::{parse_prom, render_prom, TelemetrySnapshot};
        let (mut sim, gateway, device) = build(22);
        sim.run_until_idle();
        let later = sim.now() + COMPLETED_TTL + SimDuration::from_secs(1);
        sim.inject_at(gateway, device, Message::new(KIND_PROBE, vec![1]), later);
        sim.run_until_idle();

        // What an in-sim scraper would see: the eviction counter and the
        // occupancy gauges exposed as Prometheus families, losslessly.
        let snap = TelemetrySnapshot::capture(sim.metrics(gateway), &[]);
        let text = render_prom("gw-1", &snap);
        assert!(text.contains(
            "pdagent_gateway_completed_evictions_total{instance=\"gw-1\",key=\"gateway.completed_evictions\"} 1"
        ));
        assert!(text.contains("# TYPE pdagent_gateway_replay_entries gauge"));
        assert!(text.contains(
            "pdagent_gateway_replay_entries{instance=\"gw-1\",key=\"gateway.replay_entries\"} 1"
        ));
        let parsed = parse_prom(&text);
        assert_eq!(parsed.counters, snap.counters);
        assert_eq!(parsed.gauges, snap.gauges);
        assert_eq!(parsed.counter("gateway.completed_evictions"), 1.0);
        assert_eq!(parsed.gauge("gateway.replay_entries"), 1.0);
    }

    #[test]
    fn cut_first_site_is_retried_then_skipped_by_the_gateway() {
        let (mut sim, gateway, device) = build(25);
        sim.cut_link(gateway, 1);
        sim.run_until_idle();
        let m = sim.metrics(gateway);
        assert_eq!(m.counter("gateway.transfer_retries"), 2.0);
        assert_eq!(m.counter("gateway.hops_skipped"), 1.0);
        let d = sim.node_ref::<ScriptDevice>(device).unwrap();
        let result = d.result.as_ref().expect("result collected");
        // The gateway records the miss under its own name, and the agent
        // goes on to the second site.
        let unreachable: Vec<(&str, String)> = result
            .entries_for("unreachable")
            .map(|e| (e.site.as_str(), e.value.render()))
            .collect();
        assert_eq!(unreachable, vec![("gw-1", "bank-a".to_owned())]);
        let sites: Vec<&str> =
            result.entries_for("receipt").map(|e| e.site.as_str()).collect();
        assert_eq!(sites, vec!["bank-b"]);
    }

    #[test]
    fn invalid_auth_key_is_rejected() {
        let (mut sim, gateway, device) = build(2);
        sim.node_mut::<ScriptDevice>(device).unwrap().tamper_key = true;
        sim.run_until_idle();
        let d = sim.node_ref::<ScriptDevice>(device).unwrap();
        assert!(d.statuses.contains(&HttpStatus::Unauthorized));
        assert!(d.result.is_none());
        assert_eq!(sim.metrics(gateway).counter("gateway.unauthorized"), 1.0);
    }

    #[test]
    fn unknown_service_subscription_is_404() {
        struct BadSub {
            gateway: NodeId,
            http: HttpClient,
            status: Option<HttpStatus>,
        }
        impl Node for BadSub {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                self.http.send(
                    ctx,
                    self.gateway,
                    HttpRequest::new("POST", PATH_SUBSCRIBE, b"no-such-app".to_vec()),
                );
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
                if let Some(resp) = self.http.on_response(ctx, &msg) {
                    self.status = Some(resp.status);
                }
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
                self.http.on_timer(ctx, tag);
            }
        }
        let mut sim = Simulator::new(3);
        let gw =
            GatewayNode::new(GatewayConfig::new("gw", 1), SiteDirectory::new());
        let gateway = sim.add_node(Box::new(gw));
        let client = sim.add_node(Box::new(BadSub {
            gateway,
            http: HttpClient::new(),
            status: None,
        }));
        sim.connect(client, gateway, LinkSpec::lan());
        sim.run_until_idle();
        assert_eq!(
            sim.node_ref::<BadSub>(client).unwrap().status,
            Some(HttpStatus::NotFound)
        );
    }

    #[test]
    fn garbage_envelope_is_400() {
        struct Garbage {
            gateway: NodeId,
            http: HttpClient,
            status: Option<HttpStatus>,
        }
        impl Node for Garbage {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                self.http.send(
                    ctx,
                    self.gateway,
                    HttpRequest::new("POST", PATH_DISPATCH, vec![0u8; 64]),
                );
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
                if let Some(resp) = self.http.on_response(ctx, &msg) {
                    self.status = Some(resp.status);
                }
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
                self.http.on_timer(ctx, tag);
            }
        }
        let mut sim = Simulator::new(4);
        let gw = GatewayNode::new(GatewayConfig::new("gw", 1), SiteDirectory::new());
        let gateway = sim.add_node(Box::new(gw));
        let client = sim.add_node(Box::new(Garbage {
            gateway,
            http: HttpClient::new(),
            status: None,
        }));
        sim.connect(client, gateway, LinkSpec::lan());
        sim.run_until_idle();
        assert_eq!(
            sim.node_ref::<Garbage>(client).unwrap().status,
            Some(HttpStatus::BadRequest)
        );
        assert_eq!(sim.metrics(gateway).counter("gateway.bad_envelopes"), 1.0);
    }

    #[test]
    fn result_poll_before_completion_gets_conflict_then_ok() {
        let (mut sim, _gateway, device) = build(5);
        // Poll aggressively so the first poll races the agent.
        sim.node_mut::<ScriptDevice>(device).unwrap().poll_delay =
            SimDuration::from_millis(10);
        sim.run_until_idle();
        let d = sim.node_ref::<ScriptDevice>(device).unwrap();
        assert!(d.result.is_some());
        // At least one Conflict then final Ok (the wireless RTT is ~600ms+,
        // agent tour ~50ms, so with 10ms poll delay the race is usually
        // already over; accept either but require the final result).
        assert_eq!(*d.statuses.last().unwrap(), HttpStatus::Ok);
    }

    #[test]
    fn probe_is_echoed() {
        struct Prober {
            gateway: NodeId,
            rtt: Option<SimDuration>,
            sent_at: SimTime,
        }
        impl Node for Prober {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                self.sent_at = ctx.now();
                ctx.send(self.gateway, Message::new(KIND_PROBE, vec![1]));
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
                if msg.kind == KIND_PROBE_ACK {
                    self.rtt = Some(ctx.now().since(self.sent_at));
                }
            }
        }
        let mut sim = Simulator::new(6);
        let gw = GatewayNode::new(GatewayConfig::new("gw", 1), SiteDirectory::new());
        let gateway = sim.add_node(Box::new(gw));
        let prober = sim.add_node(Box::new(Prober {
            gateway,
            rtt: None,
            sent_at: SimTime::ZERO,
        }));
        sim.connect(prober, gateway, LinkSpec::wireless_gprs());
        sim.run_until_idle();
        let p = sim.node_ref::<Prober>(prober).unwrap();
        // RTT at least 2x base latency.
        assert!(p.rtt.unwrap() >= SimDuration::from_millis(300));
    }

    #[test]
    fn entire_itinerary_unreachable_completes_with_errors() {
        // Directory has no sites at all.
        let mut sim = Simulator::new(7);
        let mut gw = GatewayNode::new(GatewayConfig::new("gw", 99), SiteDirectory::new());
        gw.publish("ebank", banking_program());
        let gateway = sim.add_node(Box::new(gw));
        let device = sim.add_node(Box::new(ScriptDevice::new(gateway)));
        sim.connect(device, gateway, LinkSpec::lan());
        sim.run_until_idle();
        let d = sim.node_ref::<ScriptDevice>(device).unwrap();
        let result = d.result.as_ref().expect("result present");
        // Marked unreachable for both sites.
        assert_eq!(result.entries_for("unreachable").count(), 2);
    }
}
