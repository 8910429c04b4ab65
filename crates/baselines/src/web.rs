//! The web-based baseline: "accessing Internet services through a web
//! browser on a high-end desktop". The link is far better than wireless,
//! but the user *browses*: pages render, forms are filled, and the session
//! (hence the connection, in the paper's accounting) spans the whole
//! interaction — so connection time still grows with the number of
//! transactions.

use pdagent_net::http::{HttpClient, HttpRequest, HttpStatus};
use pdagent_net::prelude::*;

/// Workload shape for the desktop browser session.
#[derive(Debug, Clone)]
pub struct WebClientConfig {
    /// Number of transactions.
    pub transactions: u32,
    /// Online think-time per form page (reading + typing in the browser).
    pub think_time_per_page: SimDuration,
}

impl WebClientConfig {
    /// Paper-calibrated defaults (≈6 s of online interaction per
    /// transaction).
    pub fn new(transactions: u32) -> WebClientConfig {
        WebClientConfig { transactions, think_time_per_page: SimDuration::from_secs(3) }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    LoggingIn,
    FetchingForm,
    Thinking,
    Submitting,
    Acking,
    Done,
}

const TAG_THINK: u64 = 1;

/// The desktop browser node.
pub struct WebClient {
    server: NodeId,
    config: WebClientConfig,
    http: HttpClient,
    phase: Phase,
    tx_done: u32,
    /// Session end, if finished.
    pub finished_at: Option<SimTime>,
    /// Total connection (session) time.
    pub online_time: Option<SimDuration>,
    /// True if the session failed.
    pub aborted: bool,
}

impl WebClient {
    /// A browser session against `server`.
    pub fn new(server: NodeId, config: WebClientConfig) -> WebClient {
        WebClient {
            server,
            config,
            http: HttpClient::new(SimDuration::from_secs(15), 4),
            phase: Phase::LoggingIn,
            tx_done: 0,
            finished_at: None,
            online_time: None,
            aborted: false,
        }
    }

    fn get(&mut self, ctx: &mut Ctx<'_>, path: &str, size: usize) {
        self.http.send(ctx, self.server, HttpRequest::new("POST", path, vec![0x33; size]), ());
    }

    fn finish(&mut self, ctx: &mut Ctx<'_>, aborted: bool) {
        self.phase = Phase::Done;
        self.aborted = aborted;
        ctx.connection_closed();
        self.finished_at = Some(ctx.now());
        let now = ctx.now();
        self.online_time = Some(ctx.metrics().total_connection_time(now));
    }

    fn advance(&mut self, ctx: &mut Ctx<'_>, status: HttpStatus) {
        if status != HttpStatus::Ok {
            self.finish(ctx, true);
            return;
        }
        match self.phase {
            Phase::LoggingIn | Phase::Acking => {
                if self.phase == Phase::Acking {
                    self.tx_done += 1;
                    ctx.metrics().bump("web.transactions", 1.0);
                }
                if self.tx_done >= self.config.transactions {
                    self.finish(ctx, false);
                } else {
                    self.phase = Phase::FetchingForm;
                    self.get(ctx, "/form", 256);
                }
            }
            Phase::FetchingForm => {
                // Page rendered: the user reads it and types — online.
                self.phase = Phase::Thinking;
                ctx.set_timer(self.config.think_time_per_page, TAG_THINK);
            }
            Phase::Submitting => {
                self.phase = Phase::Acking;
                self.get(ctx, "/ack", 256);
            }
            Phase::Thinking | Phase::Done => {}
        }
    }
}

impl Node for WebClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.connection_opened();
        self.get(ctx, "/login", 128);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
        if let Some((resp, ())) = self.http.on_response(ctx, &msg) {
            self.advance(ctx, resp.status);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag == TAG_THINK {
            if self.phase == Phase::Thinking {
                self.phase = Phase::Submitting;
                self.get(ctx, "/submit", 1024);
            }
            return;
        }
        if self.http.on_timer(ctx, tag).is_some() {
            self.finish(ctx, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::BankServer;
    use pdagent_net::link::LinkSpec;
    use pdagent_net::sim::Simulator;

    fn run(transactions: u32, seed: u64) -> (Simulator, NodeId) {
        let mut sim = Simulator::new(seed);
        let server = sim.add_node(Box::new(BankServer::new()));
        let client = sim
            .add_node(Box::new(WebClient::new(server, WebClientConfig::new(transactions))));
        sim.connect(client, server, LinkSpec::home_broadband());
        sim.run_until_idle();
        (sim, client)
    }

    #[test]
    fn completes_session() {
        let (sim, client) = run(4, 1);
        let c = sim.node_ref::<WebClient>(client).unwrap();
        assert!(!c.aborted);
        assert_eq!(c.tx_done, 4);
        assert!(c.online_time.is_some());
    }

    #[test]
    fn online_time_grows_with_transactions_but_below_wireless_cs() {
        let online = |n: u32| {
            let (sim, client) = run(n, 9);
            sim.node_ref::<WebClient>(client).unwrap().online_time.unwrap().as_secs_f64()
        };
        let t2 = online(2);
        let t8 = online(8);
        assert!(t8 > t2 * 2.5, "t2={t2} t8={t8}");
        // ~3-4s of think time dominates each transaction: 8 tx ≈ 25-40s,
        // well below the wireless client-server's ~80s.
        assert!(t8 > 20.0 && t8 < 60.0, "t8={t8}");
    }

    #[test]
    fn thinks_while_online() {
        let (sim, client) = run(1, 2);
        let m = sim.metrics(client);
        // Single session connection covering the think time.
        assert_eq!(m.connection_count(), 1);
        assert!(m.total_connection_time(sim.now()) >= SimDuration::from_secs(3));
    }
}
