//! Golden digests of the XML documents the platform writes, pinned across
//! commits.
//!
//! The crates' unit tests compare the streaming writers and decoders with
//! the DOM-walking oracles kept beside them, so a change that shifts both
//! at once passes them. These constants pin the documents themselves: an
//! FNV-1a hash of the PI, result and subscription documents for a corpus
//! shaped like the platform's traffic, plus the awkward cases (markup and
//! quote characters, tabs and line ends, non-ASCII and empty strings, nested
//! lists, extreme integers, the failed and retracted statuses). Every
//! document also decodes back to the value it was written from.
//!
//! If a change is *meant* to alter a document, update the constants and say
//! why in the commit message.
//!
//! The same documents, through the hostile-input driver (every cut, byte
//! substitution and inflated varint, plus XML's markup bytes), and nested
//! 100,000 lists deep, also go through every streaming decoder: each must
//! return an error or a value that round-trips, never panic or overflow
//! the stack, and allocate in proportion to its input. (The gateway crate's
//! oracle tests check that those values and errors are the DOM walkers'.)

use std::fmt::Debug;

use pdagent_apps::ebank::{ebank_program, itinerary_for, transactions_param};
use pdagent_apps::Transaction;
use pdagent_codec::compress::{compress, decompress, Algorithm};
use pdagent_core::Subscription;
use pdagent_crypto::rsa::PublicKey;
use pdagent_gateway::central::{gateway_list_to_xml, parse_gateway_list, GatewayEntry};
use pdagent_gateway::pi::{PackedInformation, ResultDoc, ResultStatus};
use pdagent_mas::ResultEntry;
use pdagent_vm::{Program, Value};
use pdagent_xml::{DocReader, Element, XmlWriter};

mod support;
use support::hostile;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn pad_text(len: usize, seed: u64) -> String {
    const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ALPHABET[(state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 58) as usize] as char
        })
        .collect()
}

fn ebank_pi(transactions: usize, banks: usize, pad: usize, seed: u64) -> PackedInformation {
    let txs: Vec<Transaction> = (0..transactions)
        .map(|i| {
            let bank = format!("bank-{}", i % banks);
            Transaction::new(bank, "alice", format!("payee-{i}"), 100 + i as i64)
        })
        .collect();
    PackedInformation {
        code_id: "ebank@device-0#1".into(),
        auth_key: "0123456789abcdef0123456789abcdef".into(),
        program: ebank_program(),
        itinerary: itinerary_for(&txs),
        params: vec![transactions_param(&txs), ("pi_pad".into(), Value::Str(pad_text(pad, seed)))],
        fuel_per_hop: 1_000_000,
    }
}

const AWKWARD: [&str; 6] =
    ["<tag> & \"q\" 'a'", "tab\tnl\ncr\r", "héllo 中文 ✓", "", " ", "]]> -- &amp;"];

fn awkward_pi() -> PackedInformation {
    let mut pi = ebank_pi(2, 2, 0, 1);
    pi.code_id = "id <&> \"x\" 'y'\t\n\r".into();
    pi.auth_key = "ключ".into();
    pi.itinerary = AWKWARD.iter().map(|s| s.to_string()).collect();
    pi.params = AWKWARD
        .iter()
        .enumerate()
        .map(|(i, s)| (format!("{s}{i}"), Value::Str(s.to_string())))
        .collect();
    pi.fuel_per_hop = 7;
    pi
}

fn nested_pi() -> PackedInformation {
    let mut pi = ebank_pi(1, 1, 0, 2);
    pi.params = vec![
        ("neg".into(), Value::Int(-42)),
        ("min".into(), Value::Int(i64::MIN)),
        ("max".into(), Value::Int(i64::MAX)),
        ("flags".into(), Value::List(vec![Value::Bool(true), Value::Bool(false), Value::Nil])),
        (
            "deep".into(),
            Value::List(vec![
                Value::List(vec![Value::List(vec![Value::Int(-1), Value::Str("".into())])]),
                Value::List(vec![]),
                Value::Str("leaf".into()),
            ]),
        ),
        ("empty_list".into(), Value::List(vec![])),
    ];
    pi
}

fn roaming_result() -> ResultDoc {
    let mut entries = Vec::new();
    for i in 0..32 {
        entries.push(ResultEntry {
            site: format!("bank-{}", i % 8),
            key: "receipt".into(),
            value: Value::Str(format!("rcpt-bank-{}-{i}: alice->payee-{i} {}", i % 8, 100 + i)),
        });
    }
    for b in 0..8 {
        entries.push(ResultEntry {
            site: format!("bank-{b}"),
            key: "settled".into(),
            value: Value::List(vec![Value::Str(format!("bank-{b}")), Value::Int(400 + b)]),
        });
    }
    ResultDoc {
        agent_id: "ag-17@gw-0".into(),
        status: ResultStatus::Completed,
        entries,
        instructions: 25_660,
    }
}

fn failed_result() -> ResultDoc {
    ResultDoc {
        agent_id: "ag-3@gw-1".into(),
        status: ResultStatus::Failed,
        entries: vec![
            ResultEntry {
                site: "bank-0".into(),
                key: "receipt".into(),
                value: Value::Str("r-1".into()),
            },
            ResultEntry {
                site: "bank-1".into(),
                key: "error".into(),
                value: Value::Str("fuel exhausted <&>".into()),
            },
        ],
        instructions: 1_000_000,
    }
}

fn retracted_result() -> ResultDoc {
    ResultDoc {
        agent_id: "ag-9@gw-0".into(),
        status: ResultStatus::Retracted,
        entries: vec![ResultEntry {
            site: "gw-0".into(),
            key: "retracted".into(),
            value: Value::Bool(true),
        }],
        instructions: 0,
    }
}

fn subscription() -> Subscription {
    Subscription {
        service: "ebank".into(),
        code_id: "ebank@dev3#12".into(),
        secret: "5f2b&<secret>".into(),
        gateway: "gw-0".into(),
        public_key: PublicKey { n: 0xdead_beef_cafe_f00d, e: 65537 },
        program: ebank_program(),
    }
}

/// Digests and lengths recorded with the DOM writer, before the streaming
/// writers replaced it.
const GOLDEN: [(&str, u64, usize); 12] = [
    ("pi_1tx_1k_pad", 0x3e97cc80722cbec1, 3877),
    ("pi_32tx_8banks", 0xef2abdf27df47ce6, 7039),
    ("pi_48k_pad", 0x8966c75f3902e303, 52005),
    ("pi_awkward_strings", 0x5b9384c767f54f39, 3193),
    ("pi_nested_lists", 0x74b675e69b76475c, 3108),
    ("program_ebank", 0x6ac7bc1599f320eb, 2488),
    ("result_roaming_40", 0xaf9ac3d9118177de, 3950),
    ("result_failed", 0xc075e3934787c1a4, 257),
    ("result_retracted", 0x13d38988c80945f7, 172),
    ("subscription_download", 0x27645ef46bca872d, 2633),
    ("subscription_record_doc", 0x22a76053e22891b0, 2649),
    ("subscription_record", 0x2d2baddbf4d39bc8, 833),
];

fn corpus() -> Vec<(&'static str, Vec<u8>)> {
    let record = subscription().to_record();
    vec![
        ("pi_1tx_1k_pad", ebank_pi(1, 2, 1024, 42).to_document_string().into_bytes()),
        ("pi_32tx_8banks", ebank_pi(32, 8, 1024, 7).to_document_string().into_bytes()),
        ("pi_48k_pad", ebank_pi(1, 2, 48 * 1024, 42).to_document_string().into_bytes()),
        ("pi_awkward_strings", awkward_pi().to_document_string().into_bytes()),
        ("pi_nested_lists", nested_pi().to_document_string().into_bytes()),
        ("program_ebank", ebank_program().to_document_string().into_bytes()),
        ("result_roaming_40", roaming_result().to_document_string().into_bytes()),
        ("result_failed", failed_result().to_document_string().into_bytes()),
        ("result_retracted", retracted_result().to_document_string().into_bytes()),
        ("subscription_download", subscription().download_document().into_bytes()),
        ("subscription_record_doc", decompress(&record).unwrap()),
        ("subscription_record", record),
    ]
}

#[test]
fn documents_match_golden_digests() {
    let mut drift = Vec::new();
    for ((name, bytes), (golden_name, digest, len)) in corpus().iter().zip(GOLDEN) {
        assert_eq!(*name, golden_name);
        if (fnv1a(bytes), bytes.len()) != (digest, len) {
            drift.push(format!("    (\"{name}\", {:#018x}, {}),", fnv1a(bytes), bytes.len()));
        }
    }
    assert!(drift.is_empty(), "documents drifted; got:\n{}", drift.join("\n"));
}

#[test]
fn documents_decode_to_what_was_written() {
    for pi in [
        ebank_pi(1, 2, 1024, 42),
        ebank_pi(32, 8, 1024, 7),
        ebank_pi(1, 2, 48 * 1024, 42),
        awkward_pi(),
        nested_pi(),
    ] {
        let doc = pi.to_document_string();
        assert_eq!(PackedInformation::from_document_str(&doc).unwrap(), pi);
    }
    for result in [roaming_result(), failed_result(), retracted_result()] {
        let doc = result.to_document_string();
        assert_eq!(ResultDoc::from_document_str(&doc).unwrap(), result);
    }
    let sub = subscription();
    assert_eq!(Subscription::from_record(&sub.to_record()).unwrap(), sub);
    let download = compress(sub.download_document().as_bytes(), Algorithm::Auto);
    assert_eq!(Subscription::from_download(&sub.service, &download).unwrap(), sub);
}

/// Drive `decode` over `inputs` under the bound of 16 bytes live per input
/// byte plus 16 KiB.
fn drive<T: PartialEq + Debug>(
    inputs: impl Iterator<Item = Vec<u8>>,
    decode: impl Fn(&[u8]) -> Option<T>,
    encode: impl Fn(&T) -> Vec<u8>,
) {
    hostile::drive(inputs, support::bounded(16, 16 * 1024, decode), encode);
}

/// A decoder of document text, for bytes that may not be UTF-8.
fn text<T, E>(decode: impl Fn(&str) -> Result<T, E>) -> impl Fn(&[u8]) -> Option<T> {
    move |doc| decode(std::str::from_utf8(doc).ok()?).ok()
}

/// Drive every streaming decoder over `inputs()`: as text, and as a stored
/// subscription record.
fn decode_all<I: Iterator<Item = Vec<u8>>>(inputs: impl Fn() -> I) {
    let record = |doc: &[u8]| compress(doc, Algorithm::Store);
    let (sub, download) = (Subscription::from_record, Subscription::from_download);
    drive(inputs(), |d| sub(&record(d)).ok(), |s| decompress(&s.to_record()).unwrap());
    drive(inputs(), |d| download("ebank", &record(d)).ok(), |s| s.download_document().into());
    drive(inputs(), text(PackedInformation::from_document_str), |pi| {
        pi.to_document_string().into()
    });
    drive(inputs(), text(ResultDoc::from_document_str), |r| r.to_document_string().into());
    drive(inputs(), text(|d| DocReader::read_document(d, Value::read_xml)), |v| {
        let mut w = XmlWriter::compact();
        v.write_xml(&mut w);
        w.finish().into()
    });
    let program = |d: &str| DocReader::read_document(d, Program::read_xml);
    drive(inputs(), text(program), |p| p.to_document_string().into());
}

#[test]
fn hostile_documents_decode_or_fail_within_bounds() {
    let record = subscription().to_record();
    let docs = [
        ebank_pi(1, 2, 1024, 42).to_document_string().into_bytes(),
        roaming_result().to_document_string().into_bytes(),
        decompress(&record).unwrap(),
    ];
    // One thread per document: each is about 100,000 inputs.
    std::thread::scope(|scope| {
        for doc in &docs {
            scope.spawn(|| decode_all(|| hostile::inputs(doc, b"<>/&\"=x\xff")));
        }
    });
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let deep = "<v t=\"list\">".repeat(100_000) + &"</v>".repeat(100_000);
    let pi = ebank_pi(1, 2, 0, 1)
        .to_document_string()
        .replace("<params>", &format!("<params><param name=\"deep\">{deep}</param>"));
    assert!(PackedInformation::from_document_str(&pi).is_err());
    let result = roaming_result()
        .to_document_string()
        .replace("<entry ", &format!("<entry site=\"s\" key=\"deep\">{deep}</entry><entry "));
    assert!(ResultDoc::from_document_str(&result).is_err());
    decode_all(|| std::iter::once(pi.as_bytes().to_vec()));
    decode_all(|| std::iter::once(result.as_bytes().to_vec()));
}

fn gateway_list(n: usize) -> Vec<GatewayEntry> {
    let names = ["gw-east", "gw <&\"'> west", "gw-中"];
    (0..n).map(|i| GatewayEntry { name: names[i % names.len()].into(), node: 3 + 7 * i }).collect()
}

#[test]
fn gateway_list_matches_the_element_tree() {
    for n in [0, 1, 3] {
        let entries = gateway_list(n);
        let mut tree = Element::new("gateways");
        for e in &entries {
            let gateway = Element::new("gateway").with_attr("name", &e.name);
            tree.push_child(gateway.with_attr("node", e.node.to_string()));
        }
        let doc = gateway_list_to_xml(&entries);
        assert_eq!(doc, tree.to_document_string());
        assert_eq!(parse_gateway_list(&doc).unwrap(), entries);
    }
}

#[test]
fn hostile_gateway_lists_decode_or_fail_within_bounds() {
    let doc = gateway_list_to_xml(&gateway_list(3)).into_bytes();
    drive(hostile::inputs(&doc, &[]), text(parse_gateway_list), |l| gateway_list_to_xml(l).into());
}
