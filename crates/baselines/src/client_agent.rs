//! The Client-Agent-Server baseline (paper §2, middle of Figure 1): an
//! *agent server* on the wired network hosts **pre-installed** mobile-agent
//! applications. The handheld submits only parameters, disconnects, and
//! later collects the result — like PDAgent, but with no code mobility: "a
//! mobile user is provided with only MA-based applications which must have
//! been installed on the agent server".
//!
//! This pair of nodes is the ablation counterpart for the "bytecode VM vs.
//! canned requests" design question: it saves the agent-code upload bytes
//! but can only ever run what the server operator installed.

use std::collections::HashMap;

use pdagent_mas::{AgentId, Itinerary, MobileAgent, KIND_COMPLETE, KIND_TRANSFER};
use pdagent_net::http::{reply, HttpClient, HttpRequest, HttpStatus, TimerOutcome};
use pdagent_net::prelude::*;
use pdagent_gateway::pi::ResultDoc;
use pdagent_mas::server::SiteDirectory;
use pdagent_vm::{Program, Value};
use pdagent_xml::Element;

/// HTTP path for launching a pre-installed application.
pub const PATH_LAUNCH: &str = "/agentserver/launch";
/// HTTP path for collecting results.
pub const PATH_RESULT: &str = "/agentserver/result";

/// The combined web + mobile-agent server.
pub struct AgentServerNode {
    /// Pre-installed applications: name → (program, itinerary).
    apps: HashMap<String, (Program, Vec<String>)>,
    directory: SiteDirectory,
    next_agent: u64,
    in_flight: HashMap<String, ()>,
    results: HashMap<String, ResultDoc>,
    /// Idempotency cache for retransmitted launch requests.
    replay: HashMap<(NodeId, u64), (HttpStatus, Vec<u8>)>,
}

impl AgentServerNode {
    /// An agent server with a directory of MAS sites.
    pub fn new(directory: SiteDirectory) -> AgentServerNode {
        AgentServerNode {
            apps: HashMap::new(),
            directory,
            next_agent: 0,
            in_flight: HashMap::new(),
            results: HashMap::new(),
            replay: HashMap::new(),
        }
    }

    fn respond(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        req: &HttpRequest,
        status: HttpStatus,
        body: Vec<u8>,
    ) {
        self.replay.insert((from, req.req_id), (status, body.clone()));
        reply(ctx, from, req, status, body);
    }

    /// Install an application server-side (the operator does this; users
    /// cannot).
    pub fn install(&mut self, name: impl Into<String>, program: Program, itinerary: Vec<String>) {
        self.apps.insert(name.into(), (program, itinerary));
    }

    fn handle_launch(&mut self, ctx: &mut Ctx<'_>, from: NodeId, req: &HttpRequest) {
        // Body: <launch app="..."><param name=".."><v ../></param>…</launch>
        let parsed = std::str::from_utf8(&req.body)
            .ok()
            .and_then(|s| Element::parse_str(s).ok());
        let Some(doc) = parsed else {
            reply(ctx, from, req, HttpStatus::BadRequest, Vec::new());
            return;
        };
        let Some(app) = doc.attr("app") else {
            reply(ctx, from, req, HttpStatus::BadRequest, Vec::new());
            return;
        };
        let Some((program, itinerary)) = self.apps.get(app).cloned() else {
            // The §2 limitation in action: not installed → unavailable.
            reply(ctx, from, req, HttpStatus::NotFound, Vec::new());
            return;
        };
        let mut params = Vec::new();
        for p in doc.children_named("param") {
            let (Some(name), Some(v_el)) = (p.attr("name"), p.child("v")) else { continue };
            if let Ok(v) = Value::from_xml(v_el) {
                params.push((name.to_owned(), v));
            }
        }
        self.next_agent += 1;
        let agent_id = format!("cas-{}", self.next_agent);
        let agent = MobileAgent::new(
            AgentId(agent_id.clone()),
            program,
            params,
            Itinerary { sites: itinerary },
            ctx.id() as u64,
        );
        if let Some(first) = agent.next_site().and_then(|s| self.directory.resolve(s)) {
            ctx.send(first, Message::new(KIND_TRANSFER, agent.to_bytes()));
            self.in_flight.insert(agent_id.clone(), ());
            self.respond(ctx, from, req, HttpStatus::Accepted, agent_id.into_bytes());
        } else {
            self.respond(ctx, from, req, HttpStatus::ServerError, Vec::new());
        }
    }

    fn handle_result(&mut self, ctx: &mut Ctx<'_>, from: NodeId, req: &HttpRequest) {
        let Ok(agent_id) = std::str::from_utf8(&req.body) else {
            reply(ctx, from, req, HttpStatus::BadRequest, Vec::new());
            return;
        };
        match self.results.get(agent_id) {
            Some(doc) => reply(
                ctx,
                from,
                req,
                HttpStatus::Ok,
                doc.to_document_string().into_bytes(),
            ),
            None if self.in_flight.contains_key(agent_id) => {
                reply(ctx, from, req, HttpStatus::Conflict, Vec::new())
            }
            None => reply(ctx, from, req, HttpStatus::NotFound, Vec::new()),
        }
    }
}

impl Node for AgentServerNode {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        match msg.kind.as_str() {
            KIND_COMPLETE => {
                if let Ok(agent) = MobileAgent::from_bytes(&msg.body) {
                    self.in_flight.remove(&agent.id.0);
                    self.results.insert(agent.id.0.clone(), ResultDoc::from_agent(&agent));
                }
            }
            "mas.ack" => {}
            _ => {
                if let Some(req) = HttpRequest::from_message(&msg) {
                    if let Some((status, body)) = self.replay.get(&(from, req.req_id)) {
                        reply(ctx, from, &req, *status, body.clone());
                        return;
                    }
                    match req.path.as_str() {
                        PATH_LAUNCH => self.handle_launch(ctx, from, &req),
                        PATH_RESULT => self.handle_result(ctx, from, &req),
                        _ => reply(ctx, from, &req, HttpStatus::NotFound, Vec::new()),
                    }
                }
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Launching,
    Waiting,
    Collecting,
    Done,
}

const TAG_POLL: u64 = 1;

/// The handheld for the client-agent-server model.
pub struct ClientAgentDevice {
    server: NodeId,
    app: String,
    params: Vec<(String, Value)>,
    http: HttpClient,
    phase: Phase,
    agent_id: Option<String>,
    poll_interval: SimDuration,
    /// The collected result, if the run succeeded.
    pub result: Option<ResultDoc>,
    /// HTTP status of the launch response (404 = app not installed).
    pub launch_status: Option<HttpStatus>,
    /// Total online time at completion.
    pub online_time: Option<SimDuration>,
}

impl ClientAgentDevice {
    /// A device that launches `app` with `params` on the agent server.
    pub fn new(server: NodeId, app: impl Into<String>, params: Vec<(String, Value)>) -> Self {
        ClientAgentDevice {
            server,
            app: app.into(),
            params,
            http: HttpClient::new(),
            phase: Phase::Launching,
            agent_id: None,
            poll_interval: SimDuration::from_secs(2),
            result: None,
            launch_status: None,
            online_time: None,
        }
    }
}

impl Node for ClientAgentDevice {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let mut doc = Element::new("launch").with_attr("app", &self.app);
        for (name, v) in &self.params {
            let mut p = Element::new("param").with_attr("name", name);
            p.push_child(v.to_xml());
            doc.push_child(p);
        }
        ctx.connection_opened();
        self.http.send(
            ctx,
            self.server,
            HttpRequest::new("POST", PATH_LAUNCH, doc.to_document_string().into_bytes()),
        );
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
        let Some(resp) = self.http.on_response(ctx, &msg) else { return };
        match self.phase {
            Phase::Launching => {
                self.launch_status = Some(resp.status);
                ctx.connection_closed();
                if resp.status == HttpStatus::Accepted {
                    self.agent_id = Some(String::from_utf8(resp.body.to_vec()).unwrap_or_default());
                    self.phase = Phase::Waiting;
                    ctx.set_timer(self.poll_interval, TAG_POLL);
                } else {
                    self.phase = Phase::Done;
                }
            }
            Phase::Collecting => match resp.status {
                HttpStatus::Ok => {
                    ctx.connection_closed();
                    self.result = std::str::from_utf8(&resp.body)
                        .ok()
                        .and_then(|s| ResultDoc::from_document_str(s).ok());
                    let now = ctx.now();
                    self.online_time = Some(ctx.metrics().total_connection_time(now));
                    self.phase = Phase::Done;
                }
                HttpStatus::Conflict => {
                    ctx.connection_closed();
                    self.phase = Phase::Waiting;
                    ctx.set_timer(self.poll_interval, TAG_POLL);
                }
                _ => {
                    ctx.connection_closed();
                    self.phase = Phase::Done;
                }
            },
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag == TAG_POLL && self.phase == Phase::Waiting {
            self.phase = Phase::Collecting;
            ctx.connection_opened();
            let id = self.agent_id.clone().unwrap_or_default();
            self.http.send(
                ctx,
                self.server,
                HttpRequest::new("GET", PATH_RESULT, id.into_bytes()),
            );
            return;
        }
        if let TimerOutcome::GaveUp { .. } = self.http.on_timer(ctx, tag) {
            ctx.connection_closed();
            self.phase = Phase::Done;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdagent_mas::{EchoService, MasNode};
    use pdagent_net::link::LinkSpec;
    use pdagent_net::sim::Simulator;
    use pdagent_vm::assemble;

    fn tour_program() -> Program {
        assemble(
            r#"
            .name installed-tour
            param "user"
            invoke "echo" "visit" 1
            emit "visited"
            halt
        "#,
        )
        .unwrap()
    }

    fn build(install: bool, seed: u64) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(seed);
        // ids: 0 = agent server, 1..=2 sites, 3 device
        let mut directory = SiteDirectory::new();
        directory.insert("site-0", 1);
        directory.insert("site-1", 2);
        let mut server = AgentServerNode::new(directory.clone());
        if install {
            server.install("tour", tour_program(), vec!["site-0".into(), "site-1".into()]);
        }
        let server = sim.add_node(Box::new(server));
        for name in ["site-0", "site-1"] {
            let mut mas = MasNode::new(name, directory.clone());
            mas.register_service("echo", Box::new(EchoService));
            sim.add_node(Box::new(mas));
        }
        let device = sim.add_node(Box::new(ClientAgentDevice::new(
            server,
            "tour",
            vec![("user".into(), Value::Str("carol".into()))],
        )));
        sim.connect(device, server, LinkSpec::wireless_gprs());
        sim.connect(server, 1, LinkSpec::wired_internet());
        sim.connect(server, 2, LinkSpec::wired_internet());
        sim.connect(1, 2, LinkSpec::wired_internet());
        (sim, device, server)
    }

    #[test]
    fn launch_and_collect() {
        let (mut sim, device, _) = build(true, 1);
        sim.run_until_idle();
        let d = sim.node_ref::<ClientAgentDevice>(device).unwrap();
        assert_eq!(d.launch_status, Some(HttpStatus::Accepted));
        let result = d.result.as_ref().expect("result collected");
        let visited: Vec<&str> =
            result.entries_for("visited").map(|e| e.site.as_str()).collect();
        assert_eq!(visited, vec!["site-0", "site-1"]);
        assert!(d.online_time.is_some());
    }

    #[test]
    fn uninstalled_app_is_unavailable() {
        // The paper's §2 criticism of this model, demonstrated.
        let (mut sim, device, _) = build(false, 2);
        sim.run_until_idle();
        let d = sim.node_ref::<ClientAgentDevice>(device).unwrap();
        assert_eq!(d.launch_status, Some(HttpStatus::NotFound));
        assert!(d.result.is_none());
    }

    #[test]
    fn launch_request_is_smaller_than_a_pi() {
        // No code mobility — the launch body carries only parameters.
        let mut doc = Element::new("launch").with_attr("app", "tour");
        let mut p = Element::new("param").with_attr("name", "user");
        p.push_child(Value::Str("carol".into()).to_xml());
        doc.push_child(p);
        let body = doc.to_document_string();
        // Far below the 1 KB floor of the paper's agent-code sizes.
        assert!(body.len() < 256, "launch body is {} bytes", body.len());
    }
}
