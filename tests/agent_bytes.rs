//! Hostile agent transfers: a MAS decodes whatever bytes arrive as
//! `mas.transfer`, so `MobileAgent::from_bytes` is a host-protection
//! boundary.
//!
//! A roaming-sized agent (the ebank program, 32 transactions, a 1 KB pad
//! and 16 results) is cut short at every byte, has every byte replaced by
//! several values, and has an inflated varint (a count or length far past
//! the end) put in place of every byte. For every input, `from_bytes`
//! returns an agent or an error; an agent it accepts has its parameters and
//! results listed, makes a visit through `run_visit` and is encoded again,
//! none of which may panic; what decoding, listing and encoding have live
//! at once stays within a small multiple of the input's length, and what
//! the visit and the encoding after it have live stays within that plus a
//! small multiple of the per-visit result budget.

use std::collections::HashMap;

use pdagent_apps::ebank::{ebank_program, itinerary_for, transactions_param};
use pdagent_apps::{BankService, Transaction};
use pdagent_mas::{run_visit, AgentId, Itinerary, MobileAgent, Service, VISIT_RESULT_BUDGET};
use pdagent_vm::Value;

mod support;
use support::peak_allocation;

/// The agent as it leaves its fifth bank on a `roaming` deploy.
fn roaming_agent() -> MobileAgent {
    let txs: Vec<Transaction> = (0..32)
        .map(|i| {
            Transaction::new(format!("bank-{}", i % 8), "alice", format!("payee-{i}"), 100 + i)
        })
        .collect();
    let mut agent = MobileAgent::new(
        AgentId("ag-17@gw-3".into()),
        ebank_program(),
        vec![transactions_param(&txs), ("pi_pad".into(), Value::Str("Q".repeat(1024)))],
        Itinerary { sites: itinerary_for(&txs) },
        3,
    );
    for i in 0..16 {
        agent.push_result(&format!("bank-{}", i / 4), "receipt", Value::Str(format!("rcpt-{i}")));
    }
    agent.next_hop = 4;
    agent.state.globals.insert("total-moved".into(), Value::Int(1896));
    agent
}

/// Every bank of the itinerary, each with the paying account.
fn banks() -> HashMap<String, Box<dyn Service>> {
    let mut services: HashMap<String, Box<dyn Service>> = HashMap::new();
    services
        .insert("bank".into(), Box::new(BankService::new("bank-4").with_account("alice", 1 << 40)));
    services
}

/// Decode `bytes` and, if that gives an agent, list its sections and encode
/// it, checking what that has live at once against the input's length; then
/// make its visit and encode it again, checking that against the result
/// budget too. Returns whether the bytes were accepted.
fn handle(bytes: &[u8]) -> bool {
    let bound = 16 * bytes.len() + 16 * 1024;
    let mut decoded = None;
    let peak = peak_allocation(|| {
        decoded = MobileAgent::from_bytes(bytes).ok();
        let agent = decoded.as_ref()?;
        Some((agent.params.len(), agent.results.iter().count(), agent.to_bytes()))
    });
    assert!(peak <= bound, "{peak} bytes live decoding {} bytes", bytes.len());
    let Some(mut agent) = decoded else { return false };
    // A visit appends at most `VISIT_RESULT_BUDGET` bytes of results, which
    // the results section and the encoded agent may each hold twice over.
    let site = agent.next_site().unwrap_or("bank-4").to_owned();
    let mut services = banks();
    let peak = peak_allocation(|| {
        run_visit(&site, &mut services, &mut agent);
        agent.to_bytes()
    });
    let visit_bound = bound + 4 * VISIT_RESULT_BUDGET;
    assert!(peak <= visit_bound, "{peak} bytes live visiting with {} bytes", bytes.len());
    true
}

#[test]
fn the_roaming_agent_makes_its_hop() {
    let bytes = roaming_agent().to_bytes();
    let mut agent = MobileAgent::from_bytes(&bytes).unwrap();
    assert_eq!(agent, roaming_agent());
    run_visit("bank-4", &mut banks(), &mut agent);
    assert_eq!(agent.next_hop, 5);
    let receipts = agent.results.iter().filter(|r| r.key == "receipt").count();
    assert_eq!(receipts, 16 + 4);
    assert!(handle(&bytes));
}

#[test]
fn every_truncation_is_rejected() {
    let bytes = roaming_agent().to_bytes();
    for cut in 0..bytes.len() {
        assert!(!handle(&bytes[..cut]), "accepted a cut at {cut}");
    }
}

#[test]
fn byte_substitutions_decode_or_fail_within_bounds() {
    let bytes = roaming_agent().to_bytes();
    let mut accepted = 0;
    for at in 0..bytes.len() {
        for with in [0x00, 0x7f, 0x80, 0xff, bytes[at] ^ 1] {
            let mut hostile = bytes.clone();
            hostile[at] = with;
            accepted += usize::from(handle(&hostile));
        }
    }
    // Most replaced pad or string bytes still decode and run.
    assert!(accepted > bytes.len(), "only {accepted} accepted");
}

#[test]
fn inflated_counts_and_lengths_are_rejected_within_bounds() {
    let bytes = roaming_agent().to_bytes();
    let inflated: [&[u8]; 3] = [
        &[0xff, 0xff, 0xff, 0xff, 0x0f],
        &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01],
        &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01],
    ];
    for at in 0..bytes.len() {
        for varint in inflated {
            let hostile = [&bytes[..at], varint, &bytes[at + 1..]].concat();
            handle(&hostile);
        }
    }
}
