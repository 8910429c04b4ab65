//! Shared workload builders: the e-banking scenario in each of the three
//! architectures, parameterized by transaction count and trial seed.

use pdagent_apps::ebank::{ebank_program, itinerary_for, transactions_param};
use pdagent_apps::{BankService, Transaction};
use pdagent_baselines::{
    BankServer, ClientServerConfig, ClientServerDevice, WebClient, WebClientConfig,
};
use pdagent_core::{DeployRequest, DeviceCommand, Scenario, ScenarioSpec, SiteSpec};
use pdagent_net::link::LinkSpec;
use pdagent_net::obs::ObsSummary;
use pdagent_net::sim::Simulator;

/// The transaction batch for `n` transactions: alternating between two
/// banks, all funded.
pub fn batch(n: u32) -> Vec<Transaction> {
    (0..n)
        .map(|i| {
            let bank = if i % 2 == 0 { "bank-a" } else { "bank-b" };
            Transaction::new(bank, "alice", "payee", 1_000 + i as i64)
        })
        .collect()
}

/// Measured outcome of one PDAgent e-banking run.
#[derive(Debug, Clone, Copy)]
pub struct PdagentRun {
    /// Total device online ("Internet connection") time, seconds.
    pub connection_secs: f64,
    /// The paper's completion time (PI upload + result download), seconds.
    pub completion_secs: f64,
    /// PI envelope size on the wire, bytes.
    pub pi_bytes: usize,
    /// Compressed result size, bytes.
    pub result_bytes: usize,
    /// Total bytes the device moved over the wireless link (both ways).
    pub wireless_bytes: u64,
    /// Simulator events processed by the run (for throughput reporting).
    pub events: u64,
}

/// Run the PDAgent e-banking scenario with `n` transactions.
pub fn run_pdagent(n: u32, seed: u64) -> PdagentRun {
    run_pdagent_with(n, seed, |_| {})
}

/// The standard e-banking [`ScenarioSpec`]: two funded banks, one
/// subscribe-then-deploy device session over `n` transactions.
pub fn pdagent_spec(n: u32, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(seed);
    spec.catalog = vec![("ebank".into(), ebank_program())];
    spec.sites = vec![
        SiteSpec::new("bank-a").with_service("bank", || {
            BankService::new("bank-a").with_account("alice", 10_000_000)
        }),
        SiteSpec::new("bank-b").with_service("bank", || {
            BankService::new("bank-b").with_account("alice", 10_000_000)
        }),
    ];
    let txs = batch(n);
    spec.commands = vec![
        DeviceCommand::Subscribe { service: "ebank".into() },
        DeviceCommand::Deploy(DeployRequest::new(
            "ebank",
            vec![transactions_param(&txs)],
            itinerary_for(&txs),
        )),
    ];
    spec
}

/// Run PDAgent with a hook to adjust the spec (ablations).
pub fn run_pdagent_with(
    n: u32,
    seed: u64,
    adjust: impl FnOnce(&mut ScenarioSpec),
) -> PdagentRun {
    let mut spec = pdagent_spec(n, seed);
    adjust(&mut spec);
    let mut scenario = Scenario::build(spec);
    scenario.sim.run_until_idle();
    measure_pdagent(&scenario)
}

/// Run PDAgent with the observability collector attached. Returns the
/// measured run (identical to [`run_pdagent`] — tracing never perturbs the
/// simulation) plus the trace digest: per-stage latency histograms, retry
/// and drop totals, and the trace count.
pub fn run_pdagent_obs(n: u32, seed: u64) -> (PdagentRun, ObsSummary) {
    let mut spec = pdagent_spec(n, seed);
    spec.observe = true;
    let mut scenario = Scenario::build(spec);
    scenario.sim.run_until_idle();
    let run = measure_pdagent(&scenario);
    let mut obs = scenario.sim.obs_summary().expect("collector enabled");
    obs.retries = (scenario.sim.counter_total("http.retransmits")
        + scenario.sim.counter_total("gateway.transfer_retries")
        + scenario.sim.counter_total("mas.transfer_retries")) as u64;
    (run, obs)
}

/// Extract the paper's measurements from a finished e-banking scenario.
fn measure_pdagent(scenario: &Scenario) -> PdagentRun {
    let now = scenario.sim.now();
    // Subtract the subscription's online time: Figure 12/13 measure service
    // *execution*; subscription is a one-time setup (§3.1). The subscription
    // is the first connection interval.
    let metrics = scenario.sim.metrics(scenario.device);
    let subscription_online = metrics
        .intervals()
        .first()
        .map(|&(s, e)| e.since(s).as_secs_f64())
        .unwrap_or(0.0);
    let connection_secs = metrics.total_connection_time(now).as_secs_f64() - subscription_online;
    let wireless_bytes = metrics.bytes_sent + metrics.bytes_received;
    let device = scenario.device_ref();
    let timing = device
        .timings
        .first()
        .unwrap_or_else(|| panic!("deploy completed (events: {:?})", device.events));
    PdagentRun {
        connection_secs,
        completion_secs: timing.completion.as_secs_f64(),
        pi_bytes: timing.pi_bytes,
        result_bytes: timing.result_bytes,
        wireless_bytes,
        events: scenario.sim.events_processed(),
    }
}

/// Run the client-server e-banking session with `n` transactions. Returns
/// the online (connection == completion) time in seconds.
pub fn run_client_server(n: u32, seed: u64) -> f64 {
    run_client_server_full(n, seed).0
}

/// Client-server run returning `(online seconds, wireless bytes, sim events)`.
pub fn run_client_server_full(n: u32, seed: u64) -> (f64, u64, u64) {
    let mut sim = Simulator::new(seed);
    let server = sim.add_node(Box::new(BankServer::new()));
    let device = sim.add_node(Box::new(ClientServerDevice::new(
        server,
        ClientServerConfig::new(n),
    )));
    sim.connect(device, server, LinkSpec::wireless_gprs());
    sim.run_until_idle();
    let d = sim.node_ref::<ClientServerDevice>(device).expect("device");
    assert!(!d.aborted, "client-server session aborted (seed {seed}, n {n})");
    let m = sim.metrics(device);
    (
        d.online_time.expect("finished").as_secs_f64(),
        m.bytes_sent + m.bytes_received,
        sim.events_processed(),
    )
}

/// Run the web-based (desktop browser) session with `n` transactions.
/// Returns the session connection time in seconds.
pub fn run_web(n: u32, seed: u64) -> f64 {
    run_web_full(n, seed).0
}

/// Web-based run returning `(online seconds, sim events)`.
pub fn run_web_full(n: u32, seed: u64) -> (f64, u64) {
    let mut sim = Simulator::new(seed);
    let server = sim.add_node(Box::new(BankServer::new()));
    let client =
        sim.add_node(Box::new(WebClient::new(server, WebClientConfig::new(n))));
    sim.connect(client, server, LinkSpec::home_broadband());
    sim.run_until_idle();
    let c = sim.node_ref::<WebClient>(client).expect("client");
    assert!(!c.aborted, "web session aborted (seed {seed}, n {n})");
    (c.online_time.expect("finished").as_secs_f64(), sim.events_processed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pdagent_run_produces_sane_numbers() {
        let run = run_pdagent(5, 1);
        assert!(run.connection_secs > 0.5 && run.connection_secs < 20.0);
        assert!(run.completion_secs > 0.5 && run.completion_secs < 10.0);
        assert!(run.pi_bytes > 500 && run.pi_bytes < 8192);
        assert!(run.result_bytes > 50);
    }

    #[test]
    fn baselines_produce_sane_numbers() {
        let cs = run_client_server(3, 1);
        let web = run_web(3, 1);
        assert!(cs > 10.0 && cs < 80.0, "cs={cs}");
        assert!(web > 5.0 && web < 40.0, "web={web}");
    }

    #[test]
    fn traced_run_matches_untraced_run_exactly() {
        let plain = run_pdagent(5, 7);
        let (traced, obs) = run_pdagent_obs(5, 7);
        assert_eq!(plain.connection_secs, traced.connection_secs);
        assert_eq!(plain.completion_secs, traced.completion_secs);
        assert_eq!(plain.wireless_bytes, traced.wireless_bytes);
        assert_eq!(plain.events, traced.events);
        assert!(obs.traces >= 1);
        let stage_names: Vec<&str> =
            obs.stages.iter().map(|(n, _)| n.as_str()).collect();
        for want in ["journey", "http.upload", "gateway.stage", "mas.exec"] {
            assert!(stage_names.contains(&want), "missing stage {want}: {stage_names:?}");
        }
    }

    #[test]
    fn batch_alternates_banks() {
        let b = batch(4);
        assert_eq!(b[0].bank, "bank-a");
        assert_eq!(b[1].bank, "bank-b");
        assert_eq!(itinerary_for(&b), vec!["bank-a", "bank-b"]);
    }
}
