//! The bank's web front-end: an HTTP server with per-path response sizes
//! and processing delays. The client-server and web-based baselines drive
//! their e-banking transactions against this server.

use std::collections::HashMap;

use pdagent_net::http::{reply, HttpRequest, HttpStatus};
use pdagent_net::prelude::*;

/// A route: response body size and server-side processing time.
#[derive(Debug, Clone, Copy)]
pub struct Route {
    /// Bytes in the response body.
    pub resp_size: usize,
    /// Server processing time before the response is sent.
    pub processing: SimDuration,
}

/// The bank's HTTP server.
pub struct BankServer {
    routes: HashMap<String, Route>,
    pending: HashMap<u64, (NodeId, HttpRequest, Route)>,
    next_tag: u64,
    /// Requests already answered (or in processing), for retransmission
    /// dedup — a retransmitted `/submit` must not execute twice.
    seen: std::collections::HashSet<(NodeId, u64)>,
    replay: HashMap<(NodeId, u64), (HttpStatus, usize)>,
    /// Transactions processed (requests to `/submit`).
    pub transactions_processed: u64,
}

impl BankServer {
    /// A bank with the default e-banking routes:
    /// login (512 B, 50 ms), form (6 KiB, 20 ms), submit (2 KiB, 150 ms —
    /// the actual transaction), ack (1 KiB, 20 ms).
    pub fn new() -> BankServer {
        let mut routes = HashMap::new();
        routes.insert(
            "/login".into(),
            Route { resp_size: 512, processing: SimDuration::from_millis(50) },
        );
        routes.insert(
            "/form".into(),
            Route { resp_size: 6 * 1024, processing: SimDuration::from_millis(20) },
        );
        routes.insert(
            "/submit".into(),
            Route { resp_size: 2 * 1024, processing: SimDuration::from_millis(150) },
        );
        routes.insert(
            "/ack".into(),
            Route { resp_size: 1024, processing: SimDuration::from_millis(20) },
        );
        BankServer {
            routes,
            pending: HashMap::new(),
            next_tag: 0,
            seen: Default::default(),
            replay: HashMap::new(),
            transactions_processed: 0,
        }
    }
}

impl Default for BankServer {
    fn default() -> Self {
        Self::new()
    }
}

impl Node for BankServer {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        let Some(req) = HttpRequest::from_message(&msg) else { return };
        // Retransmission handling: if already answered, replay; if still
        // processing, drop (the original response is on its way).
        if let Some(&(status, size)) = self.replay.get(&(from, req.req_id)) {
            reply(ctx, from, &req, status, vec![0x42; size]);
            return;
        }
        if !self.seen.insert((from, req.req_id)) {
            return;
        }
        let Some(&route) = self.routes.get(&req.path) else {
            self.replay.insert((from, req.req_id), (HttpStatus::NotFound, 0));
            reply(ctx, from, &req, HttpStatus::NotFound, Vec::new());
            return;
        };
        if req.path == "/submit" {
            self.transactions_processed += 1;
        }
        // Simulate server-side processing before responding.
        self.next_tag += 1;
        ctx.set_timer(route.processing, self.next_tag);
        self.pending.insert(self.next_tag, (from, req, route));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if let Some((from, req, route)) = self.pending.remove(&tag) {
            self.replay.insert((from, req.req_id), (HttpStatus::Ok, route.resp_size));
            reply(ctx, from, &req, HttpStatus::Ok, vec![0x42; route.resp_size]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdagent_net::http::{HttpClient, HttpResponse};
    use pdagent_net::link::LinkSpec;
    use pdagent_net::sim::Simulator;

    struct Probe {
        server: NodeId,
        http: HttpClient,
        responses: Vec<(HttpStatus, usize, SimTime)>,
    }
    impl Node for Probe {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for path in ["/login", "/form", "/missing"] {
                self.http.send(ctx, self.server, HttpRequest::new("GET", path, vec![]));
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
            if let Some(HttpResponse { status, body, .. }) = self.http.on_response(ctx, &msg)
            {
                self.responses.push((status, body.len(), ctx.now()));
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
            self.http.on_timer(ctx, tag);
        }
    }

    #[test]
    fn routes_respond_with_sizes_and_delay() {
        let mut sim = Simulator::new(1);
        let server = sim.add_node(Box::new(BankServer::new()));
        let probe = sim.add_node(Box::new(Probe {
            server,
            http: HttpClient::new(),
            responses: vec![],
        }));
        sim.connect(probe, server, LinkSpec::ideal());
        sim.run_until_idle();
        let p = sim.node_ref::<Probe>(probe).unwrap();
        assert_eq!(p.responses.len(), 3);
        // /missing is 404 and instant; /login 512B after 50ms; /form 6KiB.
        let missing = p.responses.iter().find(|r| r.0 == HttpStatus::NotFound).unwrap();
        assert_eq!(missing.1, 0);
        let login = p.responses.iter().find(|r| r.1 == 512).unwrap();
        assert_eq!(login.0, HttpStatus::Ok);
        assert!(login.2 >= SimTime(50_000));
        assert!(p.responses.iter().any(|r| r.1 == 6 * 1024));
    }

    #[test]
    fn submit_counts_transactions() {
        struct Submitter {
            server: NodeId,
            http: HttpClient,
        }
        impl Node for Submitter {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for _ in 0..3 {
                    self.http.send(
                        ctx,
                        self.server,
                        HttpRequest::new("POST", "/submit", vec![0; 100]),
                    );
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
                self.http.on_response(ctx, &msg);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
                self.http.on_timer(ctx, tag);
            }
        }
        let mut sim = Simulator::new(2);
        let server = sim.add_node(Box::new(BankServer::new()));
        let client =
            sim.add_node(Box::new(Submitter { server, http: HttpClient::new() }));
        sim.connect(client, server, LinkSpec::lan());
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<BankServer>(server).unwrap().transactions_processed, 3);
    }
}
