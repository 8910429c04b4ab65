//! The platform's binary wire and storage decoders on hostile bytes, through
//! the hostile-input driver: HTTP frames, lifecycle control bodies, the PI
//! envelope, agent programs, agent state and status records, and the
//! handheld's record stores and database.
//!
//! Each decoder meets whatever a handheld, a peer or a damaged store hands
//! it. Every input must decode to an error or to a value that round-trips,
//! without a panic, and with at most 16 bytes live per input byte plus
//! 16 KiB.

use std::fmt::Debug;

use pdagent_apps::ebank::ebank_program;
use pdagent_codec::compress::{compress, Algorithm};
use pdagent_core::{DeviceDb, RecordStore, Subscription};
use pdagent_crypto::{open_envelope, seal_envelope, KeyPair, PublicKey};
use pdagent_mas::server::{
    decode_control, decode_control_resp, encode_control, encode_control_resp, ControlOp,
};
use pdagent_mas::{AgentId, AgentRecord};
use pdagent_net::http::{HttpRequest, HttpResponse, HttpStatus, KIND_REQUEST, KIND_RESPONSE};
use pdagent_net::message::Message;
use pdagent_net::obs::ObsContext;
use pdagent_vm::{assemble, AgentState, Program, Value};

mod support;
use support::{hostile, peak_allocation};

/// Drive `valid`'s hostile inputs through `decode`, under the bound of 16
/// bytes live per input byte plus 16 KiB, and `encode`. Returns how many
/// decoded.
fn drive<T: PartialEq + Debug>(
    valid: &[u8],
    decode: impl Fn(&[u8]) -> Option<T>,
    encode: impl Fn(&T) -> Vec<u8>,
) -> usize {
    hostile::drive(hostile::inputs(valid, &[]), support::bounded(16, 16 * 1024, decode), encode)
}

#[test]
fn hostile_frames_decode_to_none_or_round_trip() {
    let obs = ObsContext { trace: 3, span: 9 };
    let mut req = HttpRequest::new("POST", "/pdagent/dispatch", vec![0x5a; 40]).traced(obs);
    req.req_id = 300;
    let resp = HttpResponse::reply(&req, HttpStatus::Conflict, b"not ready".to_vec());
    let frame = |kind| move |b: &[u8]| Message::new(kind, b.to_vec()).traced(obs);
    let (request, response) = (frame(KIND_REQUEST), frame(KIND_RESPONSE));
    let body = |msg: Message| msg.body.to_vec();
    let parse = |b: &[u8]| HttpRequest::from_message(&request(b));
    drive(&body(req.to_message()), parse, |req| body(req.to_message()));
    let parse = |b: &[u8]| HttpResponse::from_message(&response(b));
    drive(&body(resp.to_message()), parse, |resp| body(resp.to_message()));
}

#[test]
fn hostile_control_bodies_decode_to_none_or_round_trip() {
    let id = AgentId("ag-7@gw-0-clone2".into());
    let request = encode_control(ControlOp::Clone, &id);
    let response = encode_control_resp(ControlOp::Clone, &id, true, b"ag-7@gw-0-clone3");
    for body in [request, response] {
        // Each decoder also takes only the bytes its encoder writes.
        drive(
            &body,
            |b| decode_control(b).inspect(|(op, id)| assert_eq!(encode_control(*op, id), b)),
            |(op, id)| encode_control(*op, id),
        );
        let decode_resp = |b: &[u8]| {
            let (op, id, found, payload) = decode_control_resp(b)?;
            assert_eq!(encode_control_resp(op, &id, found, payload), b);
            Some((op, id, found, payload.to_vec()))
        };
        drive(&body, decode_resp, |(op, id, found, payload)| {
            encode_control_resp(*op, id, *found, payload)
        });
    }
}

#[test]
fn hostile_envelopes_fail_or_open_within_bounds() {
    let keys = KeyPair::generate(99);
    let payload: Vec<u8> = (0..600u32).map(|i| (i * 37 % 251) as u8).collect();
    let sealed = seal_envelope(&keys.public, &payload, b"device-3/t=100").bytes;
    let open = |b: &[u8]| open_envelope(&keys.private, b).ok();
    let opened =
        drive(&sealed, open, |plain| seal_envelope(&keys.public, plain, b"device-3/t=200").bytes);
    // The envelope itself; every damaged copy fails its key or its digest.
    assert_eq!(opened, 1);
}

/// A 17 KB program: 260 constants, so its constant count takes two varint
/// bytes.
fn big_program() -> Program {
    let mut src = String::from(".name big\n");
    for i in 0..260 {
        src += &format!("push \"{i:04}{}\"\npop\n", "x".repeat(56));
    }
    assemble(&(src + "halt")).unwrap()
}

#[test]
fn hostile_programs_decode_or_fail_within_bounds() {
    for program in [ebank_program(), big_program()] {
        let bytes = program.to_bytes();
        assert!(drive(&bytes, |b| Program::from_bytes(b).ok(), Program::to_bytes) > 0);
    }
}

#[test]
fn an_inflated_constant_count_reserves_no_more_than_the_input_holds() {
    let mut bytes = big_program().to_bytes();
    // Magic and version, the name's length and "big", then the count 260
    // as [0x84, 0x02]: 0x7f for its high byte makes it 16,260, fewer than
    // the input's bytes, so only the reservation's size can reject it.
    assert_eq!(bytes[9..11], [0x84, 0x02]);
    bytes[10] = 0x7f;
    assert!(bytes.len() > 16_260);
    let peak = peak_allocation(|| Program::from_bytes(&bytes));
    assert!(peak <= 16 * bytes.len() + 16 * 1024, "{peak} bytes live for {}", bytes.len());
}

#[test]
fn hostile_agent_states_and_records_decode_or_fail_within_bounds() {
    let mut state = AgentState { instructions: 801, ..AgentState::default() };
    state.globals.insert("total-moved".into(), Value::Int(1896));
    state.globals.insert("last".into(), Value::Str("rcpt-bank-3-11".into()));
    let receipts = vec![Value::Str("rcpt-1".into()), Value::Nil, Value::Bool(true)];
    state.globals.insert("receipts".into(), Value::List(receipts));
    assert!(drive(&state.to_bytes(), AgentState::from_bytes, AgentState::to_bytes) > 0);
    let record = AgentRecord {
        id: AgentId("ag-17@gw-3".into()),
        site: "bank-4".into(),
        hops_done: 4,
        hops_total: 32,
        instructions: 300_000,
    };
    let decode = |b: &[u8]| AgentRecord::from_bytes(b).ok();
    assert!(drive(&record.to_bytes(), decode, AgentRecord::to_bytes) > 0);
}

/// A handheld's database: two subscriptions and a collected result.
fn device_db() -> DeviceDb {
    let mut db = DeviceDb::new();
    for service in ["ebank", "food"] {
        let sub = Subscription {
            service: service.into(),
            code_id: format!("{service}@dev3#12"),
            secret: "5f2b&<secret>".into(),
            gateway: "gw-0".into(),
            public_key: PublicKey { n: 0xdead_beef_cafe_f00d, e: 65537 },
            program: ebank_program(),
        };
        db.put_subscription(&sub).unwrap();
    }
    let result = b"<result agent=\"ag-1@gw-0\" status=\"completed\" instructions=\"7\"/>";
    db.put_result(&compress(result, Algorithm::Auto)).unwrap();
    db
}

#[test]
fn hostile_record_stores_and_databases_decode_or_fail_within_bounds() {
    let db = device_db();
    let mut store = RecordStore::open("results");
    for record in [&b"alpha"[..], b"", &[0x80; 40]] {
        store.add_record(record).unwrap();
    }
    let decode = |b: &[u8]| RecordStore::from_bytes(b).ok();
    assert!(drive(&store.to_bytes(), decode, RecordStore::to_bytes) > 0);
    assert!(drive(&db.to_bytes(), |b| DeviceDb::from_bytes(b).ok(), DeviceDb::to_bytes) > 0);
}
