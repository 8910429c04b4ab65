//! Hostile agent transfers: a MAS decodes whatever bytes arrive as
//! `mas.transfer`, so `MobileAgent::from_bytes` is a host-protection
//! boundary.
//!
//! A roaming-sized agent (the ebank program, 32 transactions, a 1 KB pad
//! and 16 results) goes through the hostile-input driver: cut short at
//! every byte, every byte substituted, and an inflated varint (a count or
//! length far past the end) put in place of every byte, one family per
//! test. For every input, `from_bytes` returns an error or an agent that
//! round-trips; an agent it accepts has its parameters and results listed,
//! makes a visit through `run_visit` and is encoded again, none of which
//! may panic; what decoding, listing and encoding have live at once stays
//! within a small multiple of the input's length, and what the visit and
//! the encoding after it have live stays within that plus a small multiple
//! of the per-visit result budget.

use std::collections::HashMap;

use pdagent_apps::ebank::{ebank_program, itinerary_for, transactions_param};
use pdagent_apps::{BankService, Transaction};
use pdagent_mas::{run_visit, AgentId, Itinerary, MobileAgent, Service, VISIT_RESULT_BUDGET};
use pdagent_vm::Value;

mod support;
use support::{bounded, hostile, peak_allocation};

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

/// Run each input through the driver: decoding it and, if that gives an
/// agent, listing its sections and encoding it has at most 16 bytes live
/// per input byte plus 16 KiB at once. An agent it accepts then makes its
/// visit and is encoded again, checked against the result budget too.
/// Returns how many were accepted.
fn handle(inputs: impl Iterator<Item = Vec<u8>>) -> usize {
    let decode = bounded(16, 16 * 1024, |bytes| {
        let agent = MobileAgent::from_bytes(bytes).ok()?;
        let _ = (agent.params.len(), agent.results.iter().count(), agent.to_bytes());
        Some(agent)
    });
    let accepted = inputs.filter_map(|bytes| {
        Some((hostile::check(&bytes, &decode, &MobileAgent::to_bytes)?, bytes.len()))
    });
    accepted
        .map(|(mut agent, len)| {
            // A visit appends at most `VISIT_RESULT_BUDGET` bytes of
            // results, which the results section and the encoded agent may
            // each hold twice over.
            let site = agent.next_site().unwrap_or("bank-4").to_owned();
            let mut services = banks();
            let peak = peak_allocation(|| {
                run_visit(&site, &mut services, &mut agent);
                agent.to_bytes()
            });
            let bound = 16 * len + 16 * 1024 + 4 * VISIT_RESULT_BUDGET;
            assert!(peak <= bound, "{peak} bytes live visiting with {len} bytes");
        })
        .count()
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
    assert_eq!(handle(std::iter::once(bytes)), 1);
}

#[test]
fn every_truncation_is_rejected() {
    let bytes = roaming_agent().to_bytes();
    assert_eq!(handle(hostile::cuts(&bytes)), 0, "accepted a cut");
}

#[test]
fn byte_substitutions_decode_or_fail_within_bounds() {
    let bytes = roaming_agent().to_bytes();
    let accepted = handle(hostile::substitutions(&bytes, &[]));
    // Most replaced pad or string bytes still decode and run.
    assert!(accepted > bytes.len(), "only {accepted} accepted");
}

#[test]
fn inflated_counts_and_lengths_are_rejected_within_bounds() {
    let bytes = roaming_agent().to_bytes();
    handle(hostile::inflated(&bytes));
}
