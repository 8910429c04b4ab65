//! [`MasNode`]: the mobile-agent server running at each network site.

use std::collections::HashMap;

use pdagent_net::prelude::*;
use pdagent_vm::{run, Host, Outcome, Value};

use crate::agent::{AgentId, AgentRecord, MobileAgent, ParamsSection, ResultsSection};
use crate::service::Service;
use crate::transfer::{self, Carried, TransferSender};
use crate::{KIND_ACK, KIND_COMPLETE, KIND_CONTROL, KIND_CONTROL_RESP, KIND_TRANSFER};

/// Execution-time model for the site CPU: running an agent that executes
/// `n` VM instructions occupies the site for `base + n * per_instruction`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuModel {
    /// Fixed per-visit overhead (agent instantiation, class resolution —
    /// what Aglets spends creating the aglet from its classes).
    pub base: SimDuration,
    /// Nanoseconds per VM instruction.
    pub per_instruction_ns: u64,
}

impl Default for CpuModel {
    fn default() -> Self {
        // A 2004 desktop-class site: 5 ms instantiation + 2 µs/instruction.
        CpuModel { base: SimDuration::from_millis(5), per_instruction_ns: 2_000 }
    }
}

impl CpuModel {
    /// Execution time for `instructions` VM instructions.
    pub fn exec_time(&self, instructions: u64) -> SimDuration {
        self.base + SimDuration::from_micros(instructions * self.per_instruction_ns / 1_000)
    }
}

/// Maps site names to simulator node ids. Each MAS holds a copy (topologies
/// are static within a scenario).
#[derive(Debug, Clone, Default)]
pub struct SiteDirectory {
    sites: HashMap<String, NodeId>,
}

impl SiteDirectory {
    /// Empty directory.
    pub fn new() -> SiteDirectory {
        SiteDirectory::default()
    }

    /// Register a site.
    pub fn insert(&mut self, name: impl Into<String>, node: NodeId) {
        self.sites.insert(name.into(), node);
    }

    /// Resolve a site name.
    pub fn resolve(&self, name: &str) -> Option<NodeId> {
        self.sites.get(name).copied()
    }

    /// All site names (sorted, deterministic).
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.sites.keys().cloned().collect();
        v.sort();
        v
    }
}

/// Control operations (paper §3.6); the discriminant is the wire byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ControlOp {
    /// Query the agent's status.
    Status = 1,
    /// Pull the agent back to the requester immediately.
    Retract = 2,
    /// Destroy the agent.
    Dispose = 3,
    /// Fork a copy that continues independently.
    Clone = 4,
}

impl ControlOp {
    fn from_byte(b: u8) -> Option<ControlOp> {
        match b {
            1 => Some(ControlOp::Status),
            2 => Some(ControlOp::Retract),
            3 => Some(ControlOp::Dispose),
            4 => Some(ControlOp::Clone),
            _ => None,
        }
    }
}

/// Encode a control request message body.
pub fn encode_control(op: ControlOp, id: &AgentId) -> Vec<u8> {
    let mut out = vec![op as u8];
    out.extend_from_slice(id.0.as_bytes());
    out
}

/// Decode a control request message body.
pub fn decode_control(body: &[u8]) -> Option<(ControlOp, AgentId)> {
    let op = ControlOp::from_byte(*body.first()?)?;
    let id = std::str::from_utf8(&body[1..]).ok()?;
    Some((op, AgentId(id.to_owned())))
}

/// Encode a control response: `[op][found][id-len varint][id][payload…]`.
/// The echoed agent id lets a gateway correlate responses when it has
/// several management requests outstanding.
pub fn encode_control_resp(op: ControlOp, id: &AgentId, found: bool, payload: &[u8]) -> Vec<u8> {
    let mut out = vec![op as u8, found as u8];
    pdagent_codec::varint::write_str(&mut out, &id.0);
    out.extend_from_slice(payload);
    out
}

/// Decode a control response.
pub fn decode_control_resp(body: &[u8]) -> Option<(ControlOp, AgentId, bool, &[u8])> {
    let op = ControlOp::from_byte(*body.first()?)?;
    let found = match body.get(1)? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let mut pos = 2;
    let id = AgentId(pdagent_codec::varint::read_str(body, &mut pos).ok()?.to_owned());
    Some((op, id, found, &body[pos..]))
}

/// The most result bytes (on the wire) one visit may append to an agent.
/// No agent of the platform comes near it: a `roaming` bank visit appends
/// a few hundred bytes. Without it a few hundred bytes of program could
/// fill a host with results for as long as its fuel lasts.
pub const VISIT_RESULT_BUDGET: usize = 64 * 1024;

/// The `error` result of a visit that emitted past [`VISIT_RESULT_BUDGET`].
pub(crate) const RESULT_BUDGET_EXCEEDED: &str = "result budget exceeded";

/// VM host adapter exposing the site's services to a visiting agent, for
/// both server kinds ([`MasNode`] and [`crate::BatchMasNode`]). It hands
/// the agent's parameters to the VM encoded and appends what the agent
/// emits straight to its results, up to the visit's budget.
struct SiteHost<'a> {
    site: &'a str,
    services: &'a mut HashMap<String, Box<dyn Service>>,
    params: &'a ParamsSection,
    results: &'a mut ResultsSection,
    /// Wire length the results may grow to in this visit.
    results_cap: usize,
    /// An emit would have passed `results_cap`: later ones are dropped and
    /// the visit ends in an error.
    over_budget: bool,
    abort_requested: bool,
    hops_done: usize,
    hops_total: usize,
}

impl Host for SiteHost<'_> {
    fn invoke(&mut self, service: &str, op: &str, args: &[Value]) -> Result<Value, String> {
        if service == "agent" {
            // Reflective operations on the agent itself.
            return match op {
                "abort" => {
                    self.abort_requested = true;
                    Ok(Value::Bool(true))
                }
                "hops_done" => Ok(Value::Int(self.hops_done as i64)),
                "hops_total" => Ok(Value::Int(self.hops_total as i64)),
                other => Err(format!("agent: unknown operation {other:?}")),
            };
        }
        match self.services.get_mut(service) {
            Some(svc) => svc.invoke(op, args),
            None => Err(format!("site {} has no service {service:?}", self.site)),
        }
    }

    fn param(&self, name: &str) -> Option<Value> {
        Value::decode(self.params.get(name)?, &mut 0).ok()
    }

    fn param_bytes(&self, name: &str) -> Option<&[u8]> {
        self.params.get(name)
    }

    fn emit(&mut self, key: &str, value: Value) {
        if !self.over_budget {
            self.over_budget = !self.results.push_within(self.results_cap, self.site, key, &value);
        }
    }

    fn site_name(&self) -> &str {
        self.site
    }
}

/// What one visit cost: see [`run_visit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Visit {
    /// VM instructions executed.
    pub instructions: u64,
    /// The agent emitted more than [`VISIT_RESULT_BUDGET`] bytes of results.
    pub over_budget: bool,
}

/// Run `agent`'s visit to `site`: execute it against the site's services,
/// append what it emitted to its results, then record how the visit ended
/// and advance its itinerary (an abort, an error or a trap ends it). An
/// emit that would take the visit's results past [`VISIT_RESULT_BUDGET`]
/// is dropped with every later one, and the visit ends in an error.
pub fn run_visit(
    site: &str,
    services: &mut HashMap<String, Box<dyn Service>>,
    agent: &mut MobileAgent,
) -> Visit {
    let mut host = SiteHost {
        site,
        services,
        params: &agent.params,
        results_cap: agent.results.wire_len().saturating_add(VISIT_RESULT_BUDGET),
        results: &mut agent.results,
        over_budget: false,
        abort_requested: false,
        hops_done: agent.next_hop,
        hops_total: agent.itinerary.len(),
    };
    let before = agent.state.instructions;
    let outcome = run(&agent.program, &mut agent.state, &mut host, agent.fuel_per_hop);
    let instructions = agent.state.instructions - before;
    let (abort, over_budget) = (host.abort_requested, host.over_budget);
    let error = match outcome {
        _ if over_budget => Some(RESULT_BUDGET_EXCEEDED.to_owned()),
        Outcome::Completed => None,
        Outcome::Failed(msg) => Some(msg),
        Outcome::OutOfFuel => Some("out of fuel".to_owned()),
        Outcome::Trapped(e) => Some(e.to_string()),
    };
    let ended = abort || error.is_some();
    if let Some(msg) = error {
        agent.push_result(site, "error", Value::Str(msg));
    }
    agent.next_hop = if ended { agent.itinerary.len() } else { agent.next_hop.saturating_add(1) };
    Visit { instructions, over_budget }
}

/// The mobile-agent server node. An arriving agent runs its visit at once;
/// its [`TransferSender`] then holds it, with its journey context and hop
/// span, for the modeled CPU time and until the next site acks it. The
/// sender is the one table of the agents resident here.
pub struct MasNode {
    site_name: String,
    services: HashMap<String, Box<dyn Service>>,
    cpu: CpuModel,
    /// Every resident agent: on the site CPU, then awaiting its ack.
    transfers: TransferSender,
    clones: u64,
    /// Delta-encoded `/metrics` + `/healthz` server: interned series, dirty
    /// epochs, pooled render buffer.
    telemetry: pdagent_net::telemetry::TelemetryServer,
}

impl MasNode {
    /// A MAS for `site_name` with a directory of peer sites.
    pub fn new(site_name: impl Into<String>, directory: SiteDirectory) -> MasNode {
        let site_name = site_name.into();
        MasNode {
            transfers: TransferSender::new("mas", site_name.clone(), directory),
            site_name,
            services: HashMap::new(),
            cpu: CpuModel::default(),
            clones: 0,
            telemetry: pdagent_net::telemetry::TelemetryServer::new(),
        }
    }

    /// Override the CPU model (builder style).
    pub fn with_cpu(mut self, cpu: CpuModel) -> MasNode {
        self.cpu = cpu;
        self
    }

    /// Register a service agent under `name`.
    pub fn register_service(&mut self, name: impl Into<String>, service: Box<dyn Service>) {
        self.services.insert(name.into(), service);
    }

    /// Site name.
    pub fn site_name(&self) -> &str {
        &self.site_name
    }

    /// Take a resident agent off this site (retract, dispose) and close its
    /// spans. Returns it with its journey context.
    fn take_resident(
        &mut self,
        ctx: &mut Ctx<'_>,
        id: &AgentId,
    ) -> Option<(MobileAgent, ObsContext)> {
        let (agent, jctx, hop) = self.transfers.cancel(ctx, id)?;
        self.leave(ctx, hop);
        Some((agent, jctx))
    }

    /// An agent's residence here is over: close its hop span and count the
    /// agents left.
    fn leave(&mut self, ctx: &mut Ctx<'_>, hop: u32) {
        ctx.span_end(hop);
        self.set_resident_gauge(ctx);
    }

    fn set_resident_gauge(&self, ctx: &mut Ctx<'_>) {
        ctx.metrics().set_gauge("mas.resident_agents", self.transfers.held() as f64);
    }

    /// Execute an arriving agent on this site and hand it to the sender to
    /// depart once the site CPU is done with it.
    fn execute_and_schedule(&mut self, ctx: &mut Ctx<'_>, (mut agent, jctx, hop): Carried) {
        // A mis-routed or already-finished agent is relayed without running.
        let mut delay = SimDuration::from_millis(1);
        let mut exec = 0;
        if agent.next_site() == Some(self.site_name.as_str()) {
            let visit = run_visit(&self.site_name, &mut self.services, &mut agent);
            ctx.metrics().bump("mas.agents_executed", 1.0);
            ctx.metrics().bump("mas.instructions", visit.instructions as f64);
            if visit.over_budget {
                ctx.metrics().bump("mas.result_budget_exceeded", 1.0);
            }
            delay = self.cpu.exec_time(visit.instructions);
            // `mas.exec` covers the modeled CPU occupancy: now → departure.
            exec = ctx.span_begin(jctx.trace, hop, "mas.exec");
        }
        self.transfers.send_after(ctx, delay, agent, jctx, hop, exec);
    }

    /// Return a finished agent to its origin gateway. Origin delivery runs
    /// over the (reliable, wired) backbone; no ack.
    fn return_home(&mut self, ctx: &mut Ctx<'_>, (agent, jctx, hop): Carried) {
        self.leave(ctx, hop);
        let complete = Message::new(KIND_COMPLETE, agent.to_bytes()).traced(jctx);
        ctx.send(agent.origin as NodeId, complete);
    }

    fn handle_control(&mut self, ctx: &mut Ctx<'_>, from: NodeId, body: &[u8]) {
        let Some((op, id)) = decode_control(body) else { return };
        let (found, payload) = match op {
            ControlOp::Status => {
                let record = self.transfers.get(&id).map(|(agent, _)| {
                    AgentRecord {
                        id: id.clone(),
                        site: self.site_name.clone(),
                        hops_done: agent.next_hop,
                        hops_total: agent.itinerary.len(),
                        instructions: agent.state.instructions,
                    }
                    .to_bytes()
                });
                (record.is_some(), record.unwrap_or_default())
            }
            ControlOp::Retract => match self.take_resident(ctx, &id) {
                Some((mut agent, jctx)) => {
                    agent.push_result(&self.site_name, "retracted", Value::Bool(true));
                    agent.next_hop = agent.itinerary.len();
                    ctx.send(from, Message::new(KIND_COMPLETE, agent.to_bytes()).traced(jctx));
                    (true, Vec::new())
                }
                None => (false, Vec::new()),
            },
            ControlOp::Dispose => (self.take_resident(ctx, &id).is_some(), Vec::new()),
            ControlOp::Clone => match self.transfers.get(&id).map(|(a, jctx)| (a.clone(), jctx)) {
                Some((mut copy, jctx)) => {
                    self.clones += 1;
                    copy.id = AgentId(format!("{}-clone{}", id.0, self.clones));
                    let payload = copy.id.0.clone().into_bytes();
                    // The clone continues the same logical journey: it
                    // inherits the original's trace context, and the sites it
                    // visits open their own hop spans under the same root.
                    match self.transfers.send(ctx, copy, jctx, 0) {
                        Some(home) => self.return_home(ctx, home),
                        None => self.set_resident_gauge(ctx),
                    }
                    (true, payload)
                }
                None => (false, Vec::new()),
            },
        };
        let resp = encode_control_resp(op, &id, found, &payload);
        ctx.send(from, Message::new(KIND_CONTROL_RESP, resp));
    }
}

impl Node for MasNode {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        match msg.kind.as_str() {
            KIND_TRANSFER => {
                let here = |id: &_| self.transfers.get(id).is_some();
                if let Some(arrival) = transfer::receive(ctx, "mas", from, &msg, here) {
                    self.execute_and_schedule(ctx, arrival);
                    self.set_resident_gauge(ctx);
                }
            }
            KIND_ACK => {
                // The next site has the agent: this residence is over.
                if let Some((_, _, hop)) = self.transfers.on_ack(ctx, from, &msg.body) {
                    self.leave(ctx, hop);
                }
            }
            KIND_CONTROL => self.handle_control(ctx, from, &msg.body),
            _ => {
                // Operational telemetry: MAS sites answer GET /metrics and
                // GET /healthz like gateways do, so monitors can scrape the
                // whole execution plane over the modeled links.
                if let Some(req) = pdagent_net::http::HttpRequest::from_message(&msg) {
                    let MasNode { telemetry, site_name, .. } = self;
                    telemetry.serve(ctx, from, &req, site_name);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        // Departure or ack timeout: the agent leaves, or is home.
        if let Some(home) = self.transfers.on_timer(ctx, tag) {
            self.return_home(ctx, home);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::Itinerary;
    use crate::service::{EchoService, KvService};
    use pdagent_net::link::LinkSpec;
    use pdagent_net::sim::Simulator;
    use pdagent_vm::assemble;

    /// A stub gateway that records completed agents.
    #[derive(Default)]
    struct StubOrigin {
        completed: Vec<MobileAgent>,
    }
    impl Node for StubOrigin {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
            if msg.kind == KIND_COMPLETE {
                self.completed.push(MobileAgent::from_bytes(&msg.body).unwrap());
            }
        }
    }

    fn tour_program() -> pdagent_vm::Program {
        assemble(
            r#"
            .name tour
            site
            invoke "echo" "visit" 1
            emit "visited"
            halt
        "#,
        )
        .unwrap()
    }

    /// Build origin + N MAS sites, fully meshed with LAN links.
    fn build(n_sites: usize, seed: u64) -> (Simulator, NodeId, Vec<NodeId>, SiteDirectory) {
        let mut sim = Simulator::new(seed);
        let origin = sim.add_node(Box::<StubOrigin>::default());
        let mut directory = SiteDirectory::new();
        // Pre-assign ids: origin=0, sites 1..=n.
        for i in 0..n_sites {
            directory.insert(format!("site-{i}"), origin + 1 + i);
        }
        let mut sites = Vec::new();
        for i in 0..n_sites {
            let mut mas = MasNode::new(format!("site-{i}"), directory.clone());
            mas.register_service("echo", Box::new(EchoService));
            mas.register_service("kv", Box::new(KvService::new()));
            let id = sim.add_node(Box::new(mas));
            sites.push(id);
        }
        for (i, &a) in sites.iter().enumerate() {
            sim.connect(origin, a, LinkSpec::lan());
            for &b in &sites[i + 1..] {
                sim.connect(a, b, LinkSpec::lan());
            }
        }
        (sim, origin, sites, directory)
    }

    fn launch(
        sim: &mut Simulator,
        origin: NodeId,
        first_site: NodeId,
        itinerary: Itinerary,
    ) -> AgentId {
        let id = AgentId("ag-1".into());
        let agent = MobileAgent::new(
            id.clone(),
            tour_program(),
            vec![("user".into(), Value::Str("alice".into()))],
            itinerary,
            origin as u64,
        );
        sim.inject(
            first_site,
            origin,
            Message::new(KIND_TRANSFER, agent.to_bytes()),
            SimDuration::ZERO,
        );
        id
    }

    #[test]
    fn agent_tours_all_sites_and_returns() {
        let (mut sim, origin, sites, _) = build(3, 1);
        launch(&mut sim, origin, sites[0], Itinerary::new(["site-0", "site-1", "site-2"]));
        sim.run_until_idle();
        let done = &sim.node_ref::<StubOrigin>(origin).unwrap().completed;
        assert_eq!(done.len(), 1);
        let agent = &done[0];
        assert!(agent.done());
        let visited: Vec<String> =
            agent.results.iter().filter(|r| r.key == "visited").map(|r| r.site).collect();
        assert_eq!(visited, vec!["site-0", "site-1", "site-2"]);
        // Each visit echoes "visit(<site>)".
        assert_eq!(agent.results.iter().next().unwrap().value, Value::Str("visit(site-0)".into()));
    }

    #[test]
    fn a_flooding_agent_is_stopped_at_the_result_budget_and_counted() {
        let (mut sim, origin, sites, _) = build(2, 5);
        let program = ".name floods\nloop:\nparam \"a\"\nemit \"a\"\njmp loop\n";
        let agent = MobileAgent::new(
            AgentId("ag-1".into()),
            assemble(program).unwrap(),
            vec![("a".into(), Value::Str("Q".repeat(1024)))],
            Itinerary::new(["site-0", "site-1"]),
            origin as u64,
        );
        sim.inject(sites[0], origin, Message::new(KIND_TRANSFER, agent.to_bytes()), SimDuration::ZERO);
        sim.run_until_idle();
        let done = &sim.node_ref::<StubOrigin>(origin).unwrap().completed;
        assert_eq!(done.len(), 1);
        let results: Vec<_> = done[0].results.iter().collect();
        assert!(results.iter().all(|r| r.site == "site-0"));
        assert_eq!(results.last().unwrap().key, "error");
        assert!(done[0].results.wire_len() <= VISIT_RESULT_BUDGET + 64);
        assert_eq!(sim.metrics(sites[0]).counter("mas.result_budget_exceeded"), 1.0);
        assert_eq!(sim.metrics(sites[1]).counter("mas.result_budget_exceeded"), 0.0);
    }

    #[test]
    fn execution_takes_simulated_cpu_time() {
        let (mut sim, origin, sites, _) = build(1, 2);
        launch(&mut sim, origin, sites[0], Itinerary::new(["site-0"]));
        let end = sim.run_until_idle();
        // At least the CPU base (5 ms) plus two LAN hops.
        assert!(end.as_secs_f64() > 0.005);
        assert!(sim.metrics(sites[0]).counter("mas.instructions") > 0.0);
    }

    #[test]
    fn down_site_is_skipped_with_note() {
        let (mut sim, origin, sites, _) = build(3, 3);
        // Take down site-1's links entirely.
        sim.cut_link(sites[0], sites[1]);
        sim.cut_link(sites[1], sites[2]);
        sim.cut_link(origin, sites[1]);
        launch(&mut sim, origin, sites[0], Itinerary::new(["site-0", "site-1", "site-2"]));
        sim.run_until_idle();
        let done = &sim.node_ref::<StubOrigin>(origin).unwrap().completed;
        assert_eq!(done.len(), 1);
        let agent = &done[0];
        // site-1 skipped, note recorded; site-2 still visited.
        assert!(agent
            .results
            .iter()
            .any(|r| r.key == "unreachable" && r.value == Value::Str("site-1".into())));
        assert!(agent.results.iter().any(|r| r.key == "visited" && r.site == "site-2"));
        assert!(sim.metrics(sites[0]).counter("mas.hops_skipped") >= 1.0);
    }

    #[test]
    fn unknown_site_in_itinerary_is_skipped() {
        let (mut sim, origin, sites, _) = build(2, 4);
        launch(&mut sim, origin, sites[0], Itinerary::new(["site-0", "atlantis", "site-1"]));
        sim.run_until_idle();
        let done = &sim.node_ref::<StubOrigin>(origin).unwrap().completed;
        assert_eq!(done.len(), 1);
        assert!(done[0]
            .results
            .iter()
            .any(|r| r.key == "unreachable" && r.value == Value::Str("atlantis".into())));
        assert!(done[0].results.iter().any(|r| r.key == "visited" && r.site == "site-1"));
    }

    #[test]
    fn failing_agent_aborts_and_reports() {
        let (mut sim, origin, sites, _) = build(2, 5);
        let prog = assemble(".name bad\nfail \"no funds\"\n").unwrap();
        let agent = MobileAgent::new(
            AgentId("ag-f".into()),
            prog,
            vec![],
            Itinerary::new(["site-0", "site-1"]),
            origin as u64,
        );
        sim.inject(
            sites[0],
            origin,
            Message::new(KIND_TRANSFER, agent.to_bytes()),
            SimDuration::ZERO,
        );
        sim.run_until_idle();
        let done = &sim.node_ref::<StubOrigin>(origin).unwrap().completed;
        assert_eq!(done.len(), 1);
        let errs: Vec<_> = done[0].results.iter().filter(|r| r.key == "error").collect();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].value, Value::Str("no funds".into()));
        // site-1 never visited.
        assert!(!done[0].results.iter().any(|r| r.site == "site-1"));
    }

    #[test]
    fn runaway_agent_contained_by_fuel() {
        let (mut sim, origin, sites, _) = build(1, 6);
        let prog = assemble(".name spin\nloop:\njmp loop\n").unwrap();
        let mut agent = MobileAgent::new(
            AgentId("ag-spin".into()),
            prog,
            vec![],
            Itinerary::new(["site-0"]),
            origin as u64,
        );
        agent.fuel_per_hop = 50_000;
        sim.inject(
            sites[0],
            origin,
            Message::new(KIND_TRANSFER, agent.to_bytes()),
            SimDuration::ZERO,
        );
        sim.run_until_idle();
        let done = &sim.node_ref::<StubOrigin>(origin).unwrap().completed;
        assert_eq!(done.len(), 1);
        assert!(done[0]
            .results
            .iter()
            .any(|r| r.key == "error" && r.value == Value::Str("out of fuel".into())));
    }

    #[test]
    fn status_control_reports_record() {
        let (mut sim, origin, sites, _) = build(1, 7);
        // Controller node that queries status as soon as it starts.
        struct Controller {
            mas: NodeId,
            record: Option<AgentRecord>,
            not_found: bool,
        }
        impl Node for Controller {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                // Query after the agent has arrived (2 ms) but before it
                // departs (CPU base is 5 ms).
                ctx.set_timer(SimDuration::from_millis(3), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
                ctx.send(
                    self.mas,
                    Message::new(
                        KIND_CONTROL,
                        encode_control(ControlOp::Status, &AgentId("ag-1".into())),
                    ),
                );
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
                if msg.kind == KIND_CONTROL_RESP {
                    let (_, id, found, payload) = decode_control_resp(&msg.body).unwrap();
                    assert_eq!(id, AgentId("ag-1".into()));
                    if found {
                        self.record = Some(AgentRecord::from_bytes(payload).unwrap());
                    } else {
                        self.not_found = true;
                    }
                }
            }
        }
        let ctl = sim.add_node(Box::new(Controller { mas: sites[0], record: None, not_found: false }));
        sim.connect(ctl, sites[0], LinkSpec::ideal());
        launch(&mut sim, origin, sites[0], Itinerary::new(["site-0"]));
        sim.run_until_idle();
        let c = sim.node_ref::<Controller>(ctl).unwrap();
        let rec = c.record.as_ref().expect("agent should be present at t=3ms");
        assert_eq!(rec.site, "site-0");
        assert_eq!(rec.hops_total, 1);
    }

    #[test]
    fn retract_pulls_agent_back() {
        let (mut sim, origin, sites, _) = build(1, 8);
        struct Retractor {
            mas: NodeId,
            completed: Vec<MobileAgent>,
            acked: bool,
        }
        impl Node for Retractor {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(3), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
                ctx.send(
                    self.mas,
                    Message::new(
                        KIND_CONTROL,
                        encode_control(ControlOp::Retract, &AgentId("ag-1".into())),
                    ),
                );
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
                match msg.kind.as_str() {
                    KIND_COMPLETE => {
                        self.completed.push(MobileAgent::from_bytes(&msg.body).unwrap())
                    }
                    KIND_CONTROL_RESP => {
                        let (op, _, found, _) = decode_control_resp(&msg.body).unwrap();
                        assert_eq!(op, ControlOp::Retract);
                        self.acked = found;
                    }
                    _ => {}
                }
            }
        }
        let ctl = sim.add_node(Box::new(Retractor { mas: sites[0], completed: vec![], acked: false }));
        sim.connect(ctl, sites[0], LinkSpec::ideal());
        launch(&mut sim, origin, sites[0], Itinerary::new(["site-0"]));
        sim.run_until_idle();
        let c = sim.node_ref::<Retractor>(ctl).unwrap();
        assert!(c.acked);
        assert_eq!(c.completed.len(), 1);
        assert!(c.completed[0]
            .results
            .iter()
            .any(|r| r.key == "retracted"));
        // The origin did NOT also receive it.
        assert!(sim.node_ref::<StubOrigin>(origin).unwrap().completed.is_empty());
    }

    #[test]
    fn dispose_and_unknown_agent_control() {
        let (mut sim, origin, sites, _) = build(1, 9);
        struct Disposer {
            mas: NodeId,
            responses: Vec<(ControlOp, bool)>,
        }
        impl Node for Disposer {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(3), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
                ctx.send(
                    self.mas,
                    Message::new(
                        KIND_CONTROL,
                        encode_control(ControlOp::Dispose, &AgentId("ag-1".into())),
                    ),
                );
                ctx.send(
                    self.mas,
                    Message::new(
                        KIND_CONTROL,
                        encode_control(ControlOp::Dispose, &AgentId("ghost".into())),
                    ),
                );
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
                if msg.kind == KIND_CONTROL_RESP {
                    let (op, _, found, _) = decode_control_resp(&msg.body).unwrap();
                    self.responses.push((op, found));
                }
            }
        }
        let ctl = sim.add_node(Box::new(Disposer { mas: sites[0], responses: vec![] }));
        sim.connect(ctl, sites[0], LinkSpec::ideal());
        launch(&mut sim, origin, sites[0], Itinerary::new(["site-0"]));
        sim.run_until_idle();
        let c = sim.node_ref::<Disposer>(ctl).unwrap();
        assert_eq!(c.responses, vec![(ControlOp::Dispose, true), (ControlOp::Dispose, false)]);
        // Disposed: origin never sees the agent.
        assert!(sim.node_ref::<StubOrigin>(origin).unwrap().completed.is_empty());
    }

    #[test]
    fn clone_forks_an_independent_agent() {
        let (mut sim, origin, sites, _) = build(2, 10);
        struct Cloner {
            mas: NodeId,
            clone_id: Option<String>,
        }
        impl Node for Cloner {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(3), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
                ctx.send(
                    self.mas,
                    Message::new(
                        KIND_CONTROL,
                        encode_control(ControlOp::Clone, &AgentId("ag-1".into())),
                    ),
                );
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
                if msg.kind == KIND_CONTROL_RESP {
                    let (_, _, found, payload) = decode_control_resp(&msg.body).unwrap();
                    if found {
                        self.clone_id =
                            Some(String::from_utf8(payload.to_vec()).unwrap());
                    }
                }
            }
        }
        let ctl = sim.add_node(Box::new(Cloner { mas: sites[0], clone_id: None }));
        sim.connect(ctl, sites[0], LinkSpec::ideal());
        launch(&mut sim, origin, sites[0], Itinerary::new(["site-0", "site-1"]));
        sim.run_until_idle();
        let c = sim.node_ref::<Cloner>(ctl).unwrap();
        let clone_id = c.clone_id.as_ref().expect("clone created");
        assert!(clone_id.starts_with("ag-1-clone"));
        // Both original and clone eventually return to origin.
        let done = &sim.node_ref::<StubOrigin>(origin).unwrap().completed;
        assert_eq!(done.len(), 2);
        let ids: Vec<&str> = done.iter().map(|a| a.id.0.as_str()).collect();
        assert!(ids.contains(&"ag-1"));
        assert!(ids.contains(&clone_id.as_str()));
    }

    #[test]
    fn agents_taken_from_the_transfer_sender_leave_no_span_open() {
        // Three agents wait at site-0 for an ack site-1 can never send; a
        // controller then retracts the first, disposes of the second and
        // clones the third.
        let (mut sim, origin, sites, _) = build(2, 11);
        sim.enable_obs();
        sim.cut_link(sites[0], sites[1]);
        for name in ["ag-r", "ag-d", "ag-c"] {
            let agent = MobileAgent::new(
                AgentId(name.into()),
                tour_program(),
                vec![],
                Itinerary::new(["site-0", "site-1"]),
                origin as u64,
            );
            let trace = sim.obs_mut().unwrap().new_trace();
            let msg = Message::new(KIND_TRANSFER, agent.to_bytes())
                .traced(ObsContext { trace, span: 0 });
            sim.inject(sites[0], origin, msg, SimDuration::ZERO);
        }
        struct Controller {
            mas: NodeId,
            answers: Vec<(ControlOp, bool)>,
            retracted: Vec<MobileAgent>,
        }
        impl Node for Controller {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                // Well after the agents left the CPU, well before the first
                // retry of their transfers.
                ctx.set_timer(SimDuration::from_millis(100), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
                let ops =
                    [(ControlOp::Retract, "ag-r"), (ControlOp::Dispose, "ag-d"), (ControlOp::Clone, "ag-c")];
                for (op, id) in ops {
                    let body = encode_control(op, &AgentId(id.into()));
                    ctx.send(self.mas, Message::new(KIND_CONTROL, body));
                }
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
                match msg.kind.as_str() {
                    KIND_COMPLETE => self.retracted.push(MobileAgent::from_bytes(&msg.body).unwrap()),
                    KIND_CONTROL_RESP => {
                        let (op, _, found, _) = decode_control_resp(&msg.body).unwrap();
                        self.answers.push((op, found));
                    }
                    _ => {}
                }
            }
        }
        let ctl = Controller { mas: sites[0], answers: vec![], retracted: vec![] };
        let ctl = sim.add_node(Box::new(ctl));
        sim.connect(ctl, sites[0], LinkSpec::ideal());
        // Right after the control round: the third agent and its clone wait
        // for their acks.
        sim.run_until(SimTime(200_000));
        assert_eq!(sim.node_ref::<Controller>(ctl).unwrap().answers.len(), 3);
        assert_eq!(sim.metrics(sites[0]).gauge("mas.resident_agents"), 2.0);
        sim.run_until_idle();
        let c = sim.node_ref::<Controller>(ctl).unwrap();
        let found = [(ControlOp::Retract, true), (ControlOp::Dispose, true), (ControlOp::Clone, true)];
        assert_eq!(c.answers, found);
        assert_eq!(c.retracted.len(), 1);
        // The third agent and its clone skip site-1 and come home.
        let home = &sim.node_ref::<StubOrigin>(origin).unwrap().completed;
        assert_eq!(home.len(), 2);
        assert!(home.iter().all(|a| a.results.iter().any(|r| r.key == "unreachable")));
        let spans: Vec<_> =
            sim.obs().unwrap().spans_snapshot().into_iter().filter(|s| s.node == sites[0]).collect();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names.iter().filter(|&&n| n == "itinerary.hop").count(), 3);
        assert_eq!(names.iter().filter(|&&n| n == "mas.exec").count(), 3);
        let open: Vec<String> = spans.iter().filter(|s| s.end.is_none()).map(|s| s.label()).collect();
        assert!(open.is_empty(), "spans left open at site-0: {open:?}");
        assert_eq!(sim.metrics(sites[0]).gauge("mas.resident_agents"), 0.0);
    }

    #[test]
    fn an_ack_releases_only_an_agent_sent_to_its_sender() {
        // site-1 can never ack: two stray acks naming the agent arrive at
        // site-0 instead, one from site-1 while the agent is on the site CPU,
        // one from site-2 while the agent waits for site-1's ack.
        let (mut sim, origin, sites, _) = build(3, 12);
        sim.cut_link(sites[0], sites[1]);
        let id = launch(&mut sim, origin, sites[0], Itinerary::new(["site-0", "site-1"]));
        let ack = || Message::new(KIND_ACK, id.0.clone().into_bytes());
        sim.inject(sites[0], sites[1], ack(), SimDuration::from_millis(2));
        sim.inject(sites[0], sites[2], ack(), SimDuration::from_millis(100));
        sim.run_until_idle();
        let done = &sim.node_ref::<StubOrigin>(origin).unwrap().completed;
        assert_eq!(done.len(), 1);
        assert!(done[0]
            .results
            .iter()
            .any(|r| r.key == "unreachable" && r.value == Value::Str("site-1".into())));
        assert_eq!(sim.metrics(sites[0]).counter("mas.transfer_retries"), 2.0);
        assert_eq!(sim.metrics(sites[0]).gauge("mas.resident_agents"), 0.0);
    }

    #[test]
    fn cpu_model_scales_with_instructions() {
        let cpu = CpuModel::default();
        assert_eq!(cpu.exec_time(0), SimDuration::from_millis(5));
        assert_eq!(
            cpu.exec_time(1000),
            SimDuration::from_millis(5) + SimDuration::from_millis(2)
        );
    }

    #[test]
    fn control_codec_roundtrip() {
        for op in [ControlOp::Status, ControlOp::Retract, ControlOp::Dispose, ControlOp::Clone] {
            let body = encode_control(op, &AgentId("x-1".into()));
            assert_eq!(decode_control(&body), Some((op, AgentId("x-1".into()))));
            let resp = encode_control_resp(op, &AgentId("x-1".into()), true, b"pay");
            assert_eq!(
                decode_control_resp(&resp),
                Some((op, AgentId("x-1".into()), true, &b"pay"[..]))
            );
        }
        assert!(decode_control(&[]).is_none());
        assert!(decode_control(&[99, b'x']).is_none());
    }
}
