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
use pdagent_net::http::{reply, HttpClient, HttpRequest, HttpStatus};
use pdagent_net::prelude::*;
use pdagent_gateway::pi::{first_value, ResultDoc};
use pdagent_mas::server::SiteDirectory;
use pdagent_vm::{Program, Value};
use pdagent_xml::{DocReader, XmlWriter};

/// HTTP path for launching a pre-installed application.
pub const PATH_LAUNCH: &str = "/agentserver/launch";
/// HTTP path for collecting results.
pub const PATH_RESULT: &str = "/agentserver/result";

/// The launch document:
/// `<launch app=".."><param name=".."><v ../></param>…</launch>`.
fn launch_document(app: &str, params: &[(String, Value)]) -> String {
    let mut w = XmlWriter::compact();
    w.declaration();
    w.start("launch");
    w.attr("app", app);
    for (name, value) in params {
        w.start("param");
        w.attr("name", name);
        value.write_xml(&mut w);
        w.end();
    }
    w.end();
    w.finish()
}

/// Decode a launch body into the app name and its parameters. A `<param>`
/// without a name or a `<v>` is ignored; one whose `<v>` does not decode
/// fails the launch, as a bad PI parameter fails a deploy.
fn decode_launch(body: &[u8]) -> Result<(String, Vec<(String, Value)>), String> {
    let doc = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    DocReader::read_document(doc, |r, mut launch| {
        let app = launch.require_attr("app")?.into_owned();
        let mut params = Vec::new();
        while let Some(param) = r.next_child(&mut launch)? {
            if param.name != "param" {
                r.skip(param)?;
                continue;
            }
            let name = param.attr("name").map(|n| n.into_owned());
            if let (Some(name), Some(value)) = (name, first_value(r, param)?) {
                params.push((name, value));
            }
        }
        Ok((app, params))
    })
}

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
        let Ok((app, params)) = decode_launch(&req.body) else {
            reply(ctx, from, req, HttpStatus::BadRequest, Vec::new());
            return;
        };
        let Some((program, itinerary)) = self.apps.get(&app).cloned() else {
            // The §2 limitation in action: not installed → unavailable.
            reply(ctx, from, req, HttpStatus::NotFound, Vec::new());
            return;
        };
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
                        reply(ctx, from, &req, *status, body);
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
            http: HttpClient::default(),
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
        let body = launch_document(&self.app, &self.params);
        ctx.connection_opened();
        let launch = HttpRequest::new("POST", PATH_LAUNCH, body.into_bytes());
        self.http.send(ctx, self.server, launch, ());
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
        let Some((resp, ())) = self.http.on_response(ctx, &msg) else { return };
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
                (),
            );
            return;
        }
        if self.http.on_timer(ctx, tag).is_some() {
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
        let body = launch_document("tour", &[("user".into(), Value::Str("carol".into()))]);
        // Far below the 1 KB floor of the paper's agent-code sizes.
        assert!(body.len() < 256, "launch body is {} bytes", body.len());
    }

    fn sample_params() -> Vec<(String, Value)> {
        vec![
            ("user".into(), Value::Str("carol <&\"'>".into())),
            ("amount".into(), Value::Int(-12_500)),
            ("flags".into(), Value::List(vec![Value::Bool(true), Value::Nil])),
        ]
    }

    #[test]
    fn launch_document_matches_the_element_tree() {
        use pdagent_xml::{Element, TreeBuilder};
        for params in [vec![], sample_params()] {
            let mut doc = Element::new("launch").with_attr("app", "tour");
            for (name, value) in &params {
                let mut v = TreeBuilder::default();
                value.write_xml(&mut v);
                let param = Element::new("param").with_attr("name", name);
                doc.push_child(param.with_child(v.finish()));
            }
            let written = launch_document("tour", &params);
            assert_eq!(written, doc.to_document_string());
            assert_eq!(decode_launch(written.as_bytes()).unwrap(), ("tour".into(), params));
        }
    }

    #[test]
    fn launch_decoder_skips_unnamed_params_and_rejects_bad_values() {
        let doc = concat!(
            r#"<launch app="tour"><x/><param><v t="int">1</v></param><param name="n"/>"#,
            r#"<param name="u"><v t="str">ok</v><v t="alien"/></param></launch>"#,
        );
        assert_eq!(
            decode_launch(doc.as_bytes()).unwrap(),
            ("tour".into(), vec![("u".into(), Value::Str("ok".into()))])
        );
        let no_app = r#"<launch><param name="u"><v t="str"/></param></launch>"#;
        assert!(decode_launch(no_app.as_bytes()).is_err());
        let bad = r#"<launch app="tour"><param name="n"><v t="int">x</v></param></launch>"#;
        assert!(decode_launch(bad.as_bytes()).is_err());
    }

    #[test]
    fn launch_decoder_survives_every_cut_and_substitution() {
        // Each input decodes to a launch that round-trips or is an error;
        // none may panic.
        let doc = launch_document("tour", &sample_params()).into_bytes();
        crate::hostile::drive(
            crate::hostile::inputs(&doc, &[]),
            |b| decode_launch(b).ok(),
            |(app, params)| launch_document(app, params).into_bytes(),
        );
    }

    /// Posts one raw launch body and keeps the response status.
    struct RawLauncher {
        server: NodeId,
        body: Vec<u8>,
        http: HttpClient,
        status: Option<HttpStatus>,
    }

    impl Node for RawLauncher {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let body = std::mem::take(&mut self.body);
            self.http.send(ctx, self.server, HttpRequest::new("POST", PATH_LAUNCH, body), ());
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
            if let Some((resp, ())) = self.http.on_response(ctx, &msg) {
                self.status = Some(resp.status);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
            self.http.on_timer(ctx, tag);
        }
    }

    fn launch_status(body: &str) -> Option<HttpStatus> {
        let (mut sim, _, server) = build(true, 3);
        let raw = RawLauncher {
            server,
            body: body.as_bytes().to_vec(),
            http: HttpClient::default(),
            status: None,
        };
        let raw = sim.add_node(Box::new(raw));
        sim.connect(raw, server, LinkSpec::wired_internet());
        sim.run_until_idle();
        sim.node_ref::<RawLauncher>(raw).unwrap().status
    }

    #[test]
    fn launch_with_an_undecodable_value_is_a_bad_request() {
        let good = r#"<launch app="tour"><param name="user"><v t="str">dave</v></param></launch>"#;
        assert_eq!(launch_status(good), Some(HttpStatus::Accepted));
        let bad = r#"<launch app="tour"><param name="user"><v t="int">dave</v></param></launch>"#;
        assert_eq!(launch_status(bad), Some(HttpStatus::BadRequest));
    }
}
