//! Criterion micro-benchmarks for the PDAgent building blocks: the XML
//! codec, compression, the security pipeline (SEC/µ in DESIGN.md), the
//! agent VM, the PI pack/unpack path and scrape text. These measure
//! wall-clock cost of the device- and gateway-side CPU work (the simulator
//! measures network time separately).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use pdagent_apps::ebank::{ebank_program, itinerary_for, transactions_param};
use pdagent_apps::{BankService, Transaction};
use pdagent_bench::scrape;
use pdagent_codec::compress::{compress, decompress, Algorithm};
use pdagent_crypto::envelope::{open_envelope, seal_envelope};
use pdagent_crypto::md5::md5;
use pdagent_crypto::rsa::KeyPair;
use pdagent_gateway::pi::{PackedInformation, ResultDoc, ResultStatus};
use pdagent_core::rms::RecordStore;
use pdagent_mas::{AgentId, Itinerary, MobileAgent, ResultEntry, Service};
use pdagent_net::link::LinkSpec;
use pdagent_net::message::Message;
use pdagent_net::sim::{Ctx, Node, NodeId, Simulator};
use pdagent_net::telemetry::{DeltaState, HeldSnapshot};
use pdagent_net::time::SimDuration;
use pdagent_vm::{run, AgentState, Host, MapHost, Value};
use pdagent_xml::{DocReader, Element};

fn sample_pi_doc(n_tx: u32) -> String {
    let txs: Vec<Transaction> = (0..n_tx)
        .map(|i| Transaction::new("bank-a", "alice", "payee", 1000 + i as i64))
        .collect();
    let pi = PackedInformation {
        code_id: "ebank@dev#1".into(),
        auth_key: "0123456789abcdef0123456789abcdef".into(),
        program: ebank_program(),
        itinerary: vec!["bank-a".into(), "bank-b".into()],
        params: vec![transactions_param(&txs)],
        fuel_per_hop: 1_000_000,
    };
    pi.to_document_string()
}

/// The roaming workload's PI: 32 transactions over 8 banks and a 1 KB pad.
fn roaming_pi() -> PackedInformation {
    let txs: Vec<Transaction> = (0..32)
        .map(|i| {
            Transaction::new(format!("bank-{}", i % 8), "alice", format!("payee-{i}"), 100 + i)
        })
        .collect();
    PackedInformation {
        code_id: "ebank@dev#1".into(),
        auth_key: "0123456789abcdef0123456789abcdef".into(),
        program: ebank_program(),
        itinerary: itinerary_for(&txs),
        params: vec![transactions_param(&txs), ("pi_pad".into(), Value::Str("Q".repeat(1024)))],
        fuel_per_hop: 1_000_000,
    }
}

/// A roaming agent's result document: 32 receipts and 8 settlement lines.
fn roaming_result() -> ResultDoc {
    let entries = (0..40)
        .map(|i| ResultEntry {
            site: format!("bank-{}", i % 8),
            key: if i < 32 { "receipt" } else { "settled" }.into(),
            value: Value::Str(format!("rcpt-bank-{}-{i}: alice->payee-{i} {}", i % 8, 100 + i)),
        })
        .collect();
    ResultDoc {
        agent_id: "ag-17@gw-0".into(),
        status: ResultStatus::Completed,
        entries,
        instructions: 25_660,
    }
}

fn bench_xml(c: &mut Criterion) {
    let doc = sample_pi_doc(10);
    let mut group = c.benchmark_group("xml");
    group.throughput(Throughput::Bytes(doc.len() as u64));
    group.bench_function("parse_pi_document", |b| {
        b.iter(|| Element::parse_str(std::hint::black_box(&doc)).unwrap())
    });
    let parsed = Element::parse_str(&doc).unwrap();
    group.bench_function("write_pi_document", |b| {
        b.iter(|| std::hint::black_box(&parsed).to_document_string())
    });
    // The streaming encoders and decoders the deploy path uses.
    let pi = roaming_pi();
    let pi_doc = pi.to_document_string();
    group.throughput(Throughput::Bytes(pi_doc.len() as u64));
    group.bench_function("stream_write_pi_32tx", |b| {
        b.iter(|| std::hint::black_box(&pi).to_document_string())
    });
    group.bench_function("stream_read_pi_32tx", |b| {
        b.iter(|| PackedInformation::from_document_str(std::hint::black_box(&pi_doc)).unwrap())
    });
    let result_doc = roaming_result().to_document_string();
    group.throughput(Throughput::Bytes(result_doc.len() as u64));
    group.bench_function("stream_read_result_40", |b| {
        b.iter(|| ResultDoc::from_document_str(std::hint::black_box(&result_doc)).unwrap())
    });
    group.finish();
}

/// A PI carrying `pad` bytes of base64-alphabet text (six bits of entropy
/// per byte, xorshift64*) and `transactions` spread over `banks` sites: the
/// shape of a pdbench upload (`bulk_pi`: 48 KB, 1 over 1; `roaming`: 1 KB,
/// 32 over 8).
fn padded_pi_doc(pad: usize, transactions: usize, banks: usize) -> String {
    const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    let mut state = 42u64;
    let pad_text: String = (0..pad)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ALPHABET[(state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 58) as usize] as char
        })
        .collect();
    let txs: Vec<Transaction> = (0..transactions)
        .map(|i| {
            let bank = format!("bank-{}", i % banks);
            Transaction::new(bank, "alice", format!("payee-{i}"), 1000 + i as i64)
        })
        .collect();
    let pi = PackedInformation {
        code_id: "ebank@dev#1".into(),
        auth_key: "0123456789abcdef0123456789abcdef".into(),
        program: ebank_program(),
        itinerary: itinerary_for(&txs),
        params: vec![transactions_param(&txs), ("pi_pad".into(), Value::Str(pad_text))],
        fuel_per_hop: 1_000_000,
    };
    pi.to_document_string()
}

fn bench_compression(c: &mut Criterion) {
    let doc = sample_pi_doc(10);
    let bytes = doc.as_bytes();
    let mut group = c.benchmark_group("compression");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    for alg in [Algorithm::Rle, Algorithm::Lzss, Algorithm::Huffman, Algorithm::LzssHuffman] {
        group.bench_with_input(
            BenchmarkId::new("compress", alg.name()),
            &alg,
            |b, &alg| b.iter(|| compress(std::hint::black_box(bytes), alg)),
        );
        let packed = compress(bytes, alg);
        group.bench_with_input(
            BenchmarkId::new("decompress", alg.name()),
            &packed,
            |b, packed| b.iter(|| decompress(std::hint::black_box(packed)).unwrap()),
        );
    }
    // The roaming shape: a 1 KB pad under 32 transactions, where Auto keeps
    // LZSS and most positions find a trigram inside the window.
    let roaming = padded_pi_doc(1024, 32, 8);
    let roaming = roaming.as_bytes();
    group.throughput(Throughput::Bytes(roaming.len() as u64));
    group.bench_function("compress/auto_roaming_pi", |b| {
        b.iter(|| compress(std::hint::black_box(roaming), Algorithm::Auto))
    });
    // The bulk_pi shape: 48 KB of base64 pad, where Auto tries every coder
    // and keeps Huffman, and most LZSS positions have no trigram to follow.
    let bulk = padded_pi_doc(48 * 1024, 1, 1);
    let bulk = bulk.as_bytes();
    group.throughput(Throughput::Bytes(bulk.len() as u64));
    group.bench_function("compress/auto_48k_base64_pi", |b| {
        b.iter(|| compress(std::hint::black_box(bulk), Algorithm::Auto))
    });
    group.bench_function("lzss/48k_base64_pi", |b| {
        b.iter(|| pdagent_codec::lzss::encode(std::hint::black_box(bulk)))
    });
    let packed = compress(bulk, Algorithm::Auto);
    group.bench_function("decompress/auto_48k_base64_pi", |b| {
        b.iter(|| decompress(std::hint::black_box(&packed)).unwrap())
    });
    group.finish();
}

fn bench_security(c: &mut Criterion) {
    // SEC/µ: the §3.4 pipeline cost across PI sizes.
    let kp = KeyPair::generate(1);
    let mut group = c.benchmark_group("security");
    for size_kb in [1usize, 4, 16, 64] {
        let payload = vec![0x5au8; size_kb * 1024];
        group.throughput(Throughput::Bytes(payload.len() as u64));
        group.bench_with_input(BenchmarkId::new("md5", size_kb), &payload, |b, p| {
            b.iter(|| md5(std::hint::black_box(p)))
        });
        group.bench_with_input(BenchmarkId::new("seal", size_kb), &payload, |b, p| {
            b.iter(|| seal_envelope(&kp.public, std::hint::black_box(p), b"bench"))
        });
        let sealed = seal_envelope(&kp.public, &payload, b"bench");
        group.bench_with_input(BenchmarkId::new("open", size_kb), &sealed.bytes, |b, s| {
            b.iter(|| open_envelope(&kp.private, std::hint::black_box(s)).unwrap())
        });
    }
    group.finish();
}

fn bench_vm(c: &mut Criterion) {
    let program = ebank_program();
    let txs: Vec<Transaction> = (0..10)
        .map(|i| Transaction::new("bench-site", "alice", "payee", 1000 + i as i64))
        .collect();
    let (pname, pvalue) = transactions_param(&txs);
    c.bench_function("vm/ebank_agent_10tx", |b| {
        b.iter(|| {
            let mut host = MapHost::new("bench-site");
            host.set_param(pname.clone(), pvalue.clone());
            host.set_service("bank", "balance", Value::Int(1_000_000));
            host.set_service("bank", "transfer", Value::Str("rcpt".into()));
            let mut state = AgentState::default();
            run(&program, &mut state, &mut host, 1_000_000)
        })
    });
}

/// A MAS site as the agent sees it: one bank service.
struct BankHost<'a> {
    site: &'a str,
    bank: &'a mut BankService,
    params: &'a [(String, Value)],
    emitted: Vec<(String, Value)>,
}

impl Host for BankHost<'_> {
    fn invoke(&mut self, service: &str, op: &str, args: &[Value]) -> Result<Value, String> {
        match service {
            "bank" => self.bank.invoke(op, args),
            other => Err(format!("no service {other:?}")),
        }
    }
    fn param(&self, name: &str) -> Option<Value> {
        self.params.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
    }
    fn emit(&mut self, key: &str, value: Value) {
        self.emitted.push((key.to_owned(), value));
    }
    fn site_name(&self) -> &str {
        self.site
    }
}

/// One hop of the `roaming` deploy shape: the agent walks all 32
/// transactions at one of 8 bank sites and executes the 4 addressed to it
/// against a real `BankService`. Iterations visit the sites in turn and carry
/// the agent's migrating state, as the itinerary does.
fn bench_vm_ebank_hop(c: &mut Criterion) {
    let program = ebank_program();
    let txs: Vec<Transaction> = (0..32)
        .map(|i| {
            Transaction::new(format!("bank-{}", i % 8), "alice", format!("payee-{i}"), 100 + i)
        })
        .collect();
    let params = vec![transactions_param(&txs)];
    let sites = itinerary_for(&txs);
    let mut banks: Vec<BankService> = sites
        .iter()
        .map(|site| BankService::new(site.clone()).with_account("alice", i64::MAX / 2))
        .collect();
    let mut state = AgentState::default();
    let mut hop = 0;
    c.bench_function("vm/ebank_hop_32tx_8sites", |b| {
        b.iter(|| {
            let k = hop % sites.len();
            hop += 1;
            let mut host = BankHost {
                site: &sites[k],
                bank: &mut banks[k],
                params: &params,
                emitted: Vec::new(),
            };
            let outcome = run(&program, &mut state, &mut host, 1_000_000);
            (outcome, host.emitted)
        })
    });
}

/// The agent-transfer side of one `roaming` hop: decode a roaming-sized
/// agent (the ebank program, 32 transactions, a 1 KB pad, 16 results),
/// append the two entries a visit leaves, and encode it for the next site.
fn bench_agent_hop_roaming(c: &mut Criterion) {
    let pi = roaming_pi();
    let mut agent = MobileAgent::new(
        AgentId("ag-1@gw-0".into()),
        pi.program,
        pi.params,
        Itinerary { sites: pi.itinerary },
        0,
    );
    for i in 0..16 {
        agent.push_result(&format!("bank-{}", i % 8), "receipt", Value::Str(format!("rcpt-{i}")));
    }
    agent.next_hop = 4;
    let bytes = agent.to_bytes();
    c.bench_function("mas/agent_hop_roaming", |b| {
        b.iter(|| {
            let mut agent = MobileAgent::from_bytes(std::hint::black_box(&bytes)).unwrap();
            agent.push_result("bank-4", "receipt", Value::Str("rcpt-16".into()));
            agent.push_result("bank-4", "settled", Value::Int(4));
            agent.next_hop += 1;
            agent.to_bytes()
        })
    });
}

fn bench_pi_roundtrip(c: &mut Criterion) {
    // The full device-side packing path: XML → compress → seal; and the
    // gateway-side unpack: open → decompress → parse.
    let kp = KeyPair::generate(2);
    let doc = sample_pi_doc(10);
    c.bench_function("pi/pack(compress+seal)", |b| {
        b.iter(|| {
            let compressed = compress(std::hint::black_box(doc.as_bytes()), Algorithm::Auto);
            seal_envelope(&kp.public, &compressed, b"bench")
        })
    });
    let compressed = compress(doc.as_bytes(), Algorithm::Auto);
    let sealed = seal_envelope(&kp.public, &compressed, b"bench");
    c.bench_function("pi/unpack(open+decompress+parse)", |b| {
        b.iter(|| {
            let plain = open_envelope(&kp.private, std::hint::black_box(&sealed.bytes)).unwrap();
            let xml = decompress(&plain).unwrap();
            PackedInformation::from_document_str(std::str::from_utf8(&xml).unwrap()).unwrap()
        })
    });
}

fn bench_rms(c: &mut Criterion) {
    c.bench_function("rms/add_get_delete_1k_records", |b| {
        b.iter(|| {
            let mut store = RecordStore::open("bench");
            let mut ids = Vec::with_capacity(1000);
            for i in 0..1000u32 {
                ids.push(store.add_record(&i.to_le_bytes()).unwrap());
            }
            for &id in &ids {
                std::hint::black_box(store.get_record(id).unwrap());
            }
            for &id in &ids {
                store.delete_record(id).unwrap();
            }
        })
    });
    let mut store = RecordStore::open("bench");
    for i in 0..500u32 {
        store.add_record(&[i as u8; 64]).unwrap();
    }
    c.bench_function("rms/snapshot_roundtrip_500x64B", |b| {
        b.iter(|| {
            let bytes = store.to_bytes();
            RecordStore::from_bytes(std::hint::black_box(&bytes)).unwrap()
        })
    });
}

fn bench_agent_transfer(c: &mut Criterion) {
    // The serialization cost the MAS pays per hop.
    let txs: Vec<Transaction> = (0..10)
        .map(|i| Transaction::new("bank-a", "alice", "payee", 1000 + i as i64))
        .collect();
    let mut agent = MobileAgent::new(
        AgentId("bench-agent".into()),
        ebank_program(),
        vec![transactions_param(&txs)],
        Itinerary::new(["bank-a", "bank-b", "bank-c"]),
        0,
    );
    for i in 0..10 {
        agent.push_result("bank-a", "receipt", Value::Str(format!("rcpt-{i}")));
    }
    let bytes = agent.to_bytes();
    let mut group = c.benchmark_group("agent_transfer");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("serialize", |b| b.iter(|| std::hint::black_box(&agent).to_bytes()));
    group.bench_function("deserialize", |b| {
        b.iter(|| MobileAgent::from_bytes(std::hint::black_box(&bytes)).unwrap())
    });
    group.finish();
}

fn bench_program_encodings(c: &mut Criterion) {
    // pdax-1 (verbose XML) vs pdac-1 (binary+base64) encode/decode.
    let program = ebank_program();
    let mut group = c.benchmark_group("program_encoding");
    group.bench_function("verbose_xml_encode", |b| {
        b.iter(|| std::hint::black_box(&program).to_document_string())
    });
    let verbose = program.to_document_string();
    group.bench_function("verbose_xml_decode", |b| {
        b.iter(|| {
            DocReader::read_document(std::hint::black_box(&verbose), pdagent_vm::Program::read_xml)
                .unwrap()
        })
    });
    group.bench_function("binary_encode", |b| {
        b.iter(|| std::hint::black_box(&program).to_bytes())
    });
    let binary = program.to_bytes();
    group.bench_function("binary_decode", |b| {
        b.iter(|| pdagent_vm::Program::from_bytes(std::hint::black_box(&binary)).unwrap())
    });
    group.finish();
}

fn bench_event_loop(c: &mut Criterion) {
    // Raw simulator event-loop throughput: a single node that re-arms a
    // timer EVENTS times. Measures heap push/pop, the armed-timer set and
    // dispatch — no message payloads at all.
    struct Ticker {
        remaining: u64,
    }
    impl Node for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_micros(1), 0);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _msg: Message) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.set_timer(SimDuration::from_micros(1), 0);
            }
        }
    }
    const EVENTS: u64 = 10_000;
    let mut group = c.benchmark_group("sim");
    group.throughput(Throughput::Elements(EVENTS));
    group.bench_function("event_loop_10k_timers", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(1);
            sim.add_node(Box::new(Ticker { remaining: EVENTS }));
            std::hint::black_box(sim.run_until_idle())
        })
    });
    group.finish();
}

fn bench_message_hop(c: &mut Criterion) {
    // Message-hop throughput: two nodes ping-pong a 1 KiB body over a LAN
    // link. The responder forwards the received message, so with the
    // zero-copy `Bytes` path every hop reuses one shared allocation; this is
    // the number the §6 performance model in DESIGN.md cites.
    struct Pong;
    impl Node for Pong {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
            ctx.send(from, msg);
        }
    }
    struct Ping {
        peer: NodeId,
        remaining: u64,
    }
    impl Node for Ping {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(self.peer, Message::new("hop", vec![0x5a; 1024]));
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.send(from, msg);
            }
        }
    }
    const HOPS: u64 = 10_000;
    let mut group = c.benchmark_group("sim");
    group.throughput(Throughput::Elements(HOPS));
    group.bench_function("message_hop_10k_x_1KiB", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(1);
            let pong = sim.add_node(Box::new(Pong));
            let ping = sim.add_node(Box::new(Ping { peer: pong, remaining: HOPS }));
            sim.connect(ping, pong, LinkSpec::lan());
            std::hint::black_box(sim.run_until_idle())
        })
    });
    group.finish();
}

fn bench_telemetry(c: &mut Criterion) {
    // Scrape text on both sides of a `fleet_ops` target: its delta rendered
    // from cached line heads, that delta ingested by a warm holder, and a
    // monitor's full cell view rendered for federation.
    let mut group = c.benchmark_group("telemetry");
    let mut ds = DeltaState::new();
    let base = ds.observe(&scrape::target_snapshot(1, scrape::STAGES.len()));
    ds.observe(&scrape::target_snapshot(2, scrape::STAGES.len()));
    let mut body = String::new();
    ds.render_into("gw-0", Some(base), &mut body);
    group.throughput(Throughput::Bytes(body.len() as u64));
    group.bench_function("render/delta_target", |b| {
        b.iter(|| ds.render_into("gw-0", Some(base), &mut body))
    });

    // The holder takes the delta and the same series under the reverse
    // header in turn, so every iteration is one delta over the held epoch.
    let (full, delta) = scrape::target_bodies(scrape::STAGES.len());
    let series = delta.strip_prefix("# EPOCH 2 base=1\n").expect("round 2 over round 1");
    let back = format!("# EPOCH 1 base=2\n{series}");
    let mut held = HeldSnapshot::new();
    held.apply(&full);
    let mut turn = false;
    group.throughput(Throughput::Bytes(delta.len() as u64));
    group.bench_function("ingest/delta_target", |b| {
        b.iter(|| {
            turn = !turn;
            held.apply(if turn { &delta } else { &back })
        })
    });

    let mut view = DeltaState::new();
    view.observe(&scrape::cell_view_snapshot(2));
    view.render_into("cell-0", None, &mut body);
    group.throughput(Throughput::Bytes(body.len() as u64));
    group.bench_function("render/cell_view", |b| {
        b.iter(|| view.render_into("cell-0", None, &mut body))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_xml,
    bench_compression,
    bench_security,
    bench_vm,
    bench_vm_ebank_hop,
    bench_agent_hop_roaming,
    bench_pi_roundtrip,
    bench_rms,
    bench_agent_transfer,
    bench_program_encodings,
    bench_event_loop,
    bench_message_hop,
    bench_telemetry
);
criterion_main!(benches);
