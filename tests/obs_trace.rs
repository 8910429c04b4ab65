//! End-to-end causal tracing: one e-banking journey under heavy wireless
//! loss carries a single trace id from the device's PI dispatch through the
//! gateway staging, the MAS itinerary hops and back to result collection,
//! with every span correctly parented and closed — drops and retransmissions
//! included.

use pdagent::apps::ebank::{ebank_program, itinerary_for, transactions_param};
use pdagent::apps::{BankService, Transaction};
use pdagent::core::{
    DeployRequest, DeviceCommand, DeviceEvent, Scenario, ScenarioSpec, SiteSpec,
};
use pdagent::net::link::LinkSpec;
use pdagent::net::obs::Span;

fn traced_ebank_spec(seed: u64, txs: &[Transaction]) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(seed);
    spec.observe = true;
    spec.catalog = vec![("ebank".into(), ebank_program())];
    spec.sites = vec![
        SiteSpec::new("bank-a").with_service("bank", || {
            BankService::new("bank-a").with_account("alice", 1_000_000)
        }),
        SiteSpec::new("bank-b").with_service("bank", || {
            BankService::new("bank-b").with_account("alice", 1_000_000)
        }),
    ];
    spec.commands = vec![
        DeviceCommand::Subscribe { service: "ebank".into() },
        DeviceCommand::Deploy(DeployRequest::new(
            "ebank",
            vec![transactions_param(txs)],
            itinerary_for(txs),
        )),
    ];
    spec
}

#[test]
fn one_trace_id_survives_device_gateway_mas_result_under_loss() {
    let txs = vec![
        Transaction::new("bank-a", "alice", "rent", 50_000),
        Transaction::new("bank-b", "alice", "food", 7_500),
    ];
    let mut spec = traced_ebank_spec(27, &txs);
    spec.wireless = LinkSpec::wireless_gprs().with_loss(0.45);
    let mut scenario = Scenario::build(spec);
    let device = scenario.run();
    assert!(
        device.events.iter().any(|e| matches!(e, DeviceEvent::ResultCollected { .. })),
        "journey did not complete: {:?}",
        device.events
    );
    assert!(
        scenario.sim.metrics(scenario.device).counter("http.retransmits") > 0.0,
        "expected retransmissions at 45% loss"
    );

    let collector = scenario.sim.obs().expect("observe = true attaches a collector");
    // Exactly one journey was deployed → exactly one trace, id 1.
    assert_eq!(collector.traces(), 1);
    let spans: Vec<&Span> = collector.spans_for(1).collect();
    assert!(!spans.is_empty());
    assert!(
        collector.spans_snapshot().into_iter().all(|s| s.trace == 1),
        "a span escaped the journey's trace"
    );
    for s in &spans {
        assert!(s.end.is_some(), "span {} left open", s.label());
    }

    // Span tree: exactly one root (`journey`); the device-side stages and
    // the itinerary hops hang off it; each `mas.exec` nests in its hop.
    let root = {
        let roots: Vec<&&Span> = spans.iter().filter(|s| s.parent == 0).collect();
        assert_eq!(roots.len(), 1, "expected a single root span");
        assert_eq!(roots[0].name, "journey");
        roots[0].id
    };
    let by_name = |name: &str| -> Vec<&&Span> {
        spans.iter().filter(|s| s.name == name).collect()
    };
    for name in ["pi.pack", "http.upload", "gateway.stage", "result.wait"] {
        let found = by_name(name);
        assert_eq!(found.len(), 1, "{name}: {found:?}");
        assert_eq!(found[0].parent, root, "{name} not parented to the journey");
    }
    // Polling may need several fetches under loss; all parent to the root.
    let fetches = by_name("result.fetch");
    assert!(!fetches.is_empty());
    assert!(fetches.iter().all(|s| s.parent == root));

    // One hop per itinerary site, indexed in order, parented to the root —
    // the trace context crossed the wire through gateway and both MAS sites.
    let hops = by_name("itinerary.hop");
    assert_eq!(hops.len(), 2);
    let mut indices: Vec<u32> = hops.iter().map(|s| s.index.unwrap()).collect();
    indices.sort_unstable();
    assert_eq!(indices, vec![0, 1]);
    assert!(hops.iter().all(|s| s.parent == root));
    let execs = by_name("mas.exec");
    assert_eq!(execs.len(), 2);
    for e in &execs {
        assert!(
            hops.iter().any(|h| h.id == e.parent),
            "mas.exec parented outside the hops"
        );
    }

    // The rendered timeline is a deterministic, human-readable tree.
    let timeline = collector.render_trace(1);
    let lines: Vec<&str> = timeline.lines().collect();
    assert_eq!(lines.len(), spans.len(), "timeline:\n{timeline}");
    assert!(lines[0].contains("journey"), "timeline:\n{timeline}");
    assert!(timeline.contains("itinerary.hop[0]"));
    assert!(timeline.contains("itinerary.hop[1]"));
    assert!(timeline.contains("mas.exec"));
    assert!(!timeline.contains("open"), "open span in timeline:\n{timeline}");
}

#[test]
fn tracing_does_not_change_the_simulation() {
    // The same seed with and without the collector produces identical
    // device timings — observability is carried outside the modeled wire.
    let txs = vec![Transaction::new("bank-a", "alice", "x", 100)];
    let run = |observe| {
        let mut spec = traced_ebank_spec(33, &txs);
        spec.observe = observe;
        spec.wireless = LinkSpec::wireless_gprs().with_loss(0.30);
        let mut scenario = Scenario::build(spec);
        scenario.sim.run_until_idle();
        (scenario.device_ref().timings.clone(), scenario.sim.events_processed())
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn obs_jsonl_export_writes_one_line_per_span() {
    let txs = vec![Transaction::new("bank-a", "alice", "x", 100)];
    let mut spec = traced_ebank_spec(40, &txs);
    let path = std::env::temp_dir().join("pdagent_obs_trace_test.jsonl");
    spec.obs_jsonl = Some(path.clone());
    let mut scenario = Scenario::build(spec);
    scenario.run();
    let n_spans = scenario.sim.obs().unwrap().spans_snapshot().len();
    let exported = std::fs::read_to_string(&path).expect("jsonl written");
    let _ = std::fs::remove_file(&path);
    assert_eq!(exported.lines().count(), n_spans);
    assert!(exported.lines().all(|l| l.starts_with("{\"trace\":") && l.ends_with('}')));
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a of a traced two-journey scenario's span export, both timelines
/// and its stage digest, recorded when the collector still kept a separate
/// every-span log: the keep-every-trace sampler must store, order and
/// render exactly what that log did.
const SCENARIO_OBS_GOLDEN: u64 = 0x7505_c235_c91c_b714;

#[test]
fn traced_scenario_obs_matches_golden() {
    let txs = vec![
        Transaction::new("bank-a", "alice", "rent", 50_000),
        Transaction::new("bank-b", "alice", "food", 7_500),
    ];
    let mut spec = traced_ebank_spec(27, &txs);
    spec.wireless = LinkSpec::wireless_gprs().with_loss(0.45);
    spec.commands.push(DeviceCommand::Deploy(DeployRequest::new(
        "ebank",
        vec![transactions_param(&txs[1..])],
        itinerary_for(&txs[1..]),
    )));
    let mut scenario = Scenario::build(spec);
    scenario.run();
    let collector = scenario.sim.obs().expect("observe = true attaches a collector");
    assert_eq!(collector.traces(), 2);
    let summary = scenario.sim.obs_summary().expect("collector attached");
    let rendered = format!(
        "{}|{}|{}|{summary:?}",
        collector.to_jsonl(),
        collector.render_trace(1),
        collector.render_trace(2)
    );
    let digest = fnv1a(rendered.as_bytes());
    assert_eq!(digest, SCENARIO_OBS_GOLDEN, "scenario obs digest drifted: got {digest:#018x}");
}
