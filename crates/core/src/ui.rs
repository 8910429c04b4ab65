//! The platform UI: text renderings of the screens in the paper's Figures 9
//! and 11 ("Platform Main Screen", "Mobile Agent Management", "Internal
//! Database Management", transaction submission and result screens).
//!
//! The original PDAgent is a J2ME MIDlet; this module renders the same
//! information architecture as fixed-width text — the examples print it, and
//! tests assert on it, mirroring how the paper presents the platform through
//! its screenshots. The UI is a pure function of platform state
//! ([`DeviceNode`] + its database), so it can be rendered at any point in a
//! simulation.

use pdagent_gateway::pi::{ResultDoc, ResultStatus};

use crate::platform::{DeviceEvent, DeviceNode};

const WIDTH: usize = 36;

fn frame(title: &str, lines: &[String]) -> String {
    let mut out = String::new();
    out.push('+');
    out.push_str(&"-".repeat(WIDTH));
    out.push_str("+\n");
    out.push_str(&format!("|{:^WIDTH$}|\n", title));
    out.push('+');
    out.push_str(&"-".repeat(WIDTH));
    out.push_str("+\n");
    for line in lines {
        let mut l = line.clone();
        if l.chars().count() > WIDTH - 2 {
            l = l.chars().take(WIDTH - 3).collect::<String>() + "…";
        }
        out.push_str(&format!("| {:<w$}|\n", l, w = WIDTH - 1));
    }
    out.push('+');
    out.push_str(&"-".repeat(WIDTH));
    out.push_str("+\n");
    out
}

/// Figure 9a — the platform main screen: the subscribed applications and
/// the main menu.
pub fn main_screen(device: &DeviceNode) -> String {
    let mut lines = vec!["Applications:".to_owned()];
    let services = device.db.subscribed_services();
    if services.is_empty() {
        lines.push("  (none — subscribe first)".to_owned());
    }
    for s in &services {
        lines.push(format!("  > {s}"));
    }
    lines.push(String::new());
    lines.push("1. Launch application".to_owned());
    lines.push("2. Agent management".to_owned());
    lines.push("3. Database management".to_owned());
    lines.push("4. Download services".to_owned());
    frame("PDAgent", &lines)
}

/// Figure 9b — mobile agent management: every dispatched agent with its
/// last known state, derived from the event log and the result store.
pub fn agent_management_screen(device: &DeviceNode) -> String {
    let mut lines = Vec::new();
    let mut any = false;
    for event in &device.events {
        if let DeviceEvent::Dispatched { agent_id, gateway, .. } = event {
            any = true;
            let state = match device.db.result(agent_id) {
                Some(r) => match r.status {
                    ResultStatus::Completed => "done",
                    ResultStatus::Failed => "FAILED",
                    ResultStatus::Retracted => "retracted",
                },
                None => "out",
            };
            lines.push(agent_id.to_string());
            lines.push(format!("  via {gateway}  [{state}]"));
        }
    }
    if !any {
        lines.push("(no agents dispatched)".to_owned());
    }
    lines.push(String::new());
    lines.push("1.Status 2.Retract 3.Clone 4.Dispose".to_owned());
    frame("Agent Management", &lines)
}

/// Figure 9c — internal database management: stored code and results with
/// the footprint the paper brags about.
pub fn database_screen(device: &DeviceNode) -> String {
    let mut lines = vec!["Stored MA code:".to_owned()];
    for s in device.db.subscribed_services() {
        lines.push(format!("  {s}"));
    }
    lines.push(format!("Stored results: {}", device.db.results().len()));
    lines.push(format!("Used: {} bytes", device.db.footprint_bytes()));
    lines.push(String::new());
    lines.push("1. Delete code  2. Delete results".to_owned());
    frame("Internal Database", &lines)
}

/// Figure 11c — the dispatched-agent confirmation screen.
pub fn dispatched_screen(agent_id: &str, gateway: &str) -> String {
    frame(
        "Agent Dispatched",
        &[
            "Your agent is on its way.".to_owned(),
            String::new(),
            format!("ID: {agent_id}"),
            format!("Gateway: {gateway}"),
            String::new(),
            "You may disconnect now.".to_owned(),
        ],
    )
}

/// Figure 11d — the transaction-result screen.
pub fn result_screen(result: &ResultDoc) -> String {
    let mut lines = vec![
        format!("Agent: {}", result.agent_id),
        format!("Status: {:?}", result.status),
        String::new(),
    ];
    for entry in &result.entries {
        lines.push(format!("[{}] {}", entry.site, entry.key));
        lines.push(format!("  {}", entry.value.render()));
    }
    frame("Results", &lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Subscription;
    use crate::platform::{DeviceConfig, DeviceNode};
    use pdagent_codec::compress::{compress, Algorithm};
    use pdagent_crypto::rsa::PublicKey;
    use pdagent_mas::ResultEntry;
    use pdagent_vm::{assemble, Value};

    fn device_with_state() -> DeviceNode {
        let mut device = DeviceNode::new(DeviceConfig::new("pda"), vec![]);
        device
            .db
            .put_subscription(&Subscription {
                service: "ebank".into(),
                code_id: "ebank@dev#1".into(),
                secret: "s".into(),
                gateway: "gw-1".into(),
                public_key: PublicKey { n: 99, e: 65537 },
                program: assemble(".name ebank\nhalt").unwrap(),
            })
            .unwrap();
        device.events.push(DeviceEvent::Dispatched {
            agent_id: "ag-1@gw-1".into(),
            gateway: "gw-1".into(),
            rtt: pdagent_net::time::SimDuration::from_millis(400),
        });
        device
    }

    fn sample_result() -> ResultDoc {
        ResultDoc {
            agent_id: "ag-1@gw-1".into(),
            status: ResultStatus::Completed,
            entries: vec![ResultEntry {
                site: "bank-a".into(),
                key: "receipt".into(),
                value: Value::Str("rcpt-1".into()),
            }],
            instructions: 100,
        }
    }

    #[test]
    fn main_screen_lists_subscriptions() {
        let device = device_with_state();
        let screen = main_screen(&device);
        assert!(screen.contains("> ebank"));
        assert!(screen.contains("PDAgent"));
        assert!(screen.contains("Agent management"));
    }

    #[test]
    fn main_screen_empty_state() {
        let device = DeviceNode::new(DeviceConfig::new("pda"), vec![]);
        assert!(main_screen(&device).contains("(none — subscribe first)"));
    }

    #[test]
    fn agent_management_shows_out_then_done() {
        let mut device = device_with_state();
        let screen = agent_management_screen(&device);
        assert!(screen.contains("ag-1@gw-1"));
        assert!(screen.contains("[out]"));
        let record = compress(sample_result().to_document_string().as_bytes(), Algorithm::Auto);
        device.db.put_result(&record).unwrap();
        let screen = agent_management_screen(&device);
        assert!(screen.contains("[done]"));
    }

    #[test]
    fn database_screen_reports_footprint() {
        let device = device_with_state();
        let screen = database_screen(&device);
        assert!(screen.contains("ebank"));
        assert!(screen.contains("bytes"));
    }

    #[test]
    fn result_screen_renders_entries() {
        let screen = result_screen(&sample_result());
        assert!(screen.contains("[bank-a] receipt"));
        assert!(screen.contains("rcpt-1"));
        assert!(screen.contains("Completed"));
    }

    #[test]
    fn frames_are_well_formed() {
        // Every line of every screen fits the frame width.
        let device = device_with_state();
        for screen in [
            main_screen(&device),
            agent_management_screen(&device),
            database_screen(&device),
            dispatched_screen("ag-1@gw-1", "gw-1"),
            result_screen(&sample_result()),
        ] {
            for line in screen.lines() {
                assert!(
                    line.chars().count() == WIDTH + 2,
                    "bad line width {}: {line:?}",
                    line.chars().count()
                );
            }
        }
    }

    #[test]
    fn long_values_are_truncated_not_overflowed() {
        let mut result = sample_result();
        result.entries[0].value =
            Value::Str("an extremely long receipt string that cannot possibly fit".into());
        let screen = result_screen(&result);
        for line in screen.lines() {
            assert_eq!(line.chars().count(), WIDTH + 2);
        }
        assert!(screen.contains('…'));
    }
}
