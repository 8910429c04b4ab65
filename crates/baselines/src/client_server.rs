//! The Client-Server baseline: the handheld stays connected over the
//! wireless link for the whole banking session.
//!
//! Paper §2: "the mobile user has to keep the connection with the wired
//! network until the service is completed and the result is obtained", and
//! the Figure 13 formula: completion = "time for submitting transaction
//! information (offline) + time for requesting server (online) + time for
//! obtaining the server response (online)". Data entry happens offline;
//! everything else — login, then per transaction a form fetch, a submit and
//! an acknowledgment — rides the wireless link with the connection held
//! open, so connection time (and its variance) grows with the number of
//! transactions.

use pdagent_net::http::{HttpClient, HttpRequest, HttpStatus};
use pdagent_net::prelude::*;

/// Workload shape for the client-server device.
#[derive(Debug, Clone)]
pub struct ClientServerConfig {
    /// Number of transactions in the session.
    pub transactions: u32,
    /// Offline data-entry time per transaction.
    pub entry_time_per_tx: SimDuration,
    /// Request body size for form fetches.
    pub form_req_size: usize,
    /// Request body size for submits.
    pub submit_req_size: usize,
    /// Request body size for acks.
    pub ack_req_size: usize,
}

impl ClientServerConfig {
    /// Paper-calibrated defaults.
    pub fn new(transactions: u32) -> ClientServerConfig {
        ClientServerConfig {
            transactions,
            entry_time_per_tx: SimDuration::from_secs(2),
            form_req_size: 256,
            submit_req_size: 1024,
            ack_req_size: 256,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Entering,
    LoggingIn,
    FetchingForm,
    Submitting,
    Acking,
    Done,
}

const TAG_ENTRY: u64 = 1;

/// The client-server handheld node.
pub struct ClientServerDevice {
    server: NodeId,
    config: ClientServerConfig,
    http: HttpClient,
    phase: Phase,
    tx_done: u32,
    /// Set when the session finished (all transactions acked).
    pub finished_at: Option<SimTime>,
    /// Total online time at finish.
    pub online_time: Option<SimDuration>,
    /// True if the session aborted (HTTP gave up).
    pub aborted: bool,
    started_online_at: Option<SimTime>,
}

impl ClientServerDevice {
    /// A device that will run the configured session against `server`.
    pub fn new(server: NodeId, config: ClientServerConfig) -> ClientServerDevice {
        // A long RTO models TCP's in-order delivery of large responses: a
        // 6 KiB form takes >3 s to serialize on the GPRS link, and a real
        // transport does not re-issue the whole request for that.
        ClientServerDevice {
            server,
            config,
            http: HttpClient::new(SimDuration::from_secs(15), 4),
            phase: Phase::Entering,
            tx_done: 0,
            finished_at: None,
            online_time: None,
            aborted: false,
            started_online_at: None,
        }
    }

    fn get(&mut self, ctx: &mut Ctx<'_>, path: &str, size: usize) {
        let body = vec![0x31; size];
        self.http.send(ctx, self.server, HttpRequest::new("POST", path, body), ());
    }

    fn advance(&mut self, ctx: &mut Ctx<'_>, status: HttpStatus) {
        if status != HttpStatus::Ok {
            self.abort(ctx);
            return;
        }
        match self.phase {
            Phase::LoggingIn | Phase::Acking => {
                if self.phase == Phase::Acking {
                    self.tx_done += 1;
                    ctx.metrics().bump("cs.transactions", 1.0);
                }
                if self.tx_done >= self.config.transactions {
                    self.finish(ctx);
                } else {
                    self.phase = Phase::FetchingForm;
                    self.get(ctx, "/form", self.config.form_req_size);
                }
            }
            Phase::FetchingForm => {
                self.phase = Phase::Submitting;
                self.get(ctx, "/submit", self.config.submit_req_size);
            }
            Phase::Submitting => {
                self.phase = Phase::Acking;
                self.get(ctx, "/ack", self.config.ack_req_size);
            }
            Phase::Entering | Phase::Done => {}
        }
    }

    fn finish(&mut self, ctx: &mut Ctx<'_>) {
        self.phase = Phase::Done;
        ctx.connection_closed();
        self.finished_at = Some(ctx.now());
        if let Some(start) = self.started_online_at {
            self.online_time = Some(ctx.now().since(start));
        }
    }

    fn abort(&mut self, ctx: &mut Ctx<'_>) {
        self.aborted = true;
        self.finish(ctx);
    }
}

impl Node for ClientServerDevice {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Offline entry for all transactions up front.
        let think = SimDuration(
            self.config.entry_time_per_tx.as_micros() * self.config.transactions.max(1) as u64,
        );
        ctx.set_timer(think, TAG_ENTRY);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
        if let Some((resp, ())) = self.http.on_response(ctx, &msg) {
            self.advance(ctx, resp.status);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag == TAG_ENTRY {
            // Go online and stay online until the session completes.
            ctx.connection_opened();
            self.started_online_at = Some(ctx.now());
            self.phase = Phase::LoggingIn;
            self.get(ctx, "/login", 128);
            return;
        }
        if self.http.on_timer(ctx, tag).is_some() {
            self.abort(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::BankServer;
    use pdagent_net::link::LinkSpec;
    use pdagent_net::sim::Simulator;

    fn run(transactions: u32, seed: u64) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(seed);
        let server = sim.add_node(Box::new(BankServer::new()));
        let device = sim.add_node(Box::new(ClientServerDevice::new(
            server,
            ClientServerConfig::new(transactions),
        )));
        sim.connect(device, server, LinkSpec::wireless_gprs());
        sim.run_until_idle();
        (sim, device, server)
    }

    #[test]
    fn completes_all_transactions() {
        let (sim, device, server) = run(3, 1);
        let d = sim.node_ref::<ClientServerDevice>(device).unwrap();
        assert!(!d.aborted);
        assert!(d.finished_at.is_some());
        assert_eq!(d.tx_done, 3);
        assert_eq!(sim.node_ref::<BankServer>(server).unwrap().transactions_processed, 3);
    }

    #[test]
    fn online_time_grows_with_transactions() {
        let online = |n: u32| {
            let (sim, device, _) = run(n, 7);
            sim.node_ref::<ClientServerDevice>(device)
                .unwrap()
                .online_time
                .unwrap()
                .as_secs_f64()
        };
        let t1 = online(1);
        let t5 = online(5);
        let t10 = online(10);
        assert!(t5 > t1 * 3.0, "t1={t1} t5={t5}");
        assert!(t10 > t5 * 1.6, "t5={t5} t10={t10}");
        // Paper calibration: ~8-14s per transaction on the wireless link.
        assert!(t10 > 60.0 && t10 < 200.0, "t10={t10}");
    }

    #[test]
    fn connection_held_throughout() {
        let (sim, device, _) = run(2, 3);
        let m = sim.metrics(device);
        // One long connection, not per-request ones.
        assert_eq!(m.connection_count(), 1);
        let d = sim.node_ref::<ClientServerDevice>(device).unwrap();
        assert_eq!(
            m.total_connection_time(sim.now()),
            d.online_time.unwrap()
        );
    }

    #[test]
    fn entry_time_is_offline() {
        let (sim, device, _) = run(2, 4);
        let m = sim.metrics(device);
        let d = sim.node_ref::<ClientServerDevice>(device).unwrap();
        // The first 4s (2 tx × 2s entry) are offline.
        let wall = d.finished_at.unwrap().as_secs_f64();
        let online = m.total_connection_time(sim.now()).as_secs_f64();
        assert!(wall - online >= 4.0 - 1e-6, "wall {wall} online {online}");
    }

    #[test]
    fn dead_server_aborts_session() {
        let mut sim = Simulator::new(5);
        let server = sim.add_node(Box::new(BankServer::new()));
        let device = sim.add_node(Box::new(ClientServerDevice::new(
            server,
            ClientServerConfig::new(2),
        )));
        sim.connect(device, server, LinkSpec::wireless_gprs().with_loss(1.0));
        sim.run_until_idle();
        let d = sim.node_ref::<ClientServerDevice>(device).unwrap();
        assert!(d.aborted);
        assert!(d.finished_at.is_some());
    }
}
