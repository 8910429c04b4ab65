//! Replayed layer timings: after a traced instance has run, re-time the
//! program's public layer functions on that run's own inputs.
//!
//! Each handheld's PI is rebuilt from the `Subscription` stored in its
//! database and the deploy request it was given; the gateway key pair is
//! regenerated from the cell's key seed; agent transfers and completions are
//! the bodies the [`crate::timed::Timed`] wrappers kept. Every call a role
//! makes per deploy is replayed in the role's order, each under its layer's
//! stopwatch, so the per-role sums can be held against the role's in-situ
//! self time (the `*.covered` shares).
//!
//! Replays double as checks: rebuilt PIs must have the sizes the handhelds
//! recorded in `device.pi_raw_bytes`/`device.pi_compressed_bytes`, sealed
//! envelopes the size they uploaded, and every replayed hop the VM
//! instruction count its MAS recorded.

use std::collections::BTreeMap;
use std::time::Instant;

use pdagent_apps::BankService;
use pdagent_codec::compress::{compress, decompress, sniff_algorithm, Algorithm};
use pdagent_core::{DeployRequest, DeviceEvent, DeviceNode, Subscription};
use pdagent_crypto::envelope::{open_envelope, seal_envelope};
use pdagent_crypto::keys::UniqueId;
use pdagent_crypto::rsa::KeyPair;
use pdagent_gateway::pi::{PackedInformation, ResultDoc};
use pdagent_gateway::server::GatewayNode;
use pdagent_mas::{AgentId, Itinerary, MasNode, MobileAgent, Service};
use pdagent_net::telemetry::{parse_prom, render_prom, TelemetrySnapshot};
use pdagent_vm::{run, Host, Program, Value};
use pdagent_xml::Element;

use crate::workload::{bank_name, kept, node, Built, Inputs};

/// A replayed layer.
#[derive(Debug, Clone, Copy)]
pub enum Layer {
    /// Building and writing XML documents (PI, subscription, result).
    XmlWrite,
    /// Parsing XML documents, program decoding included.
    XmlParse,
    /// `codec::compress`.
    Compress,
    /// `codec::decompress`.
    Decompress,
    /// `seal_envelope`.
    Seal,
    /// `open_envelope`.
    Open,
    /// VM interpretation of one hop.
    Vm,
    /// Agent and program wire encoding and decoding.
    AgentCodec,
}

impl Layer {
    const COUNT: usize = 8;
}

/// A role whose in-situ time the replays explain.
#[derive(Debug, Clone, Copy)]
pub enum Side {
    /// The handheld.
    Device,
    /// The gateway (central server included).
    Gateway,
    /// The bank MAS sites.
    Mas,
}

impl Side {
    const COUNT: usize = 3;
}

/// Replay totals over one or more instances.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    ns: [[u64; Layer::COUNT]; Side::COUNT],
    /// Deploys replayed.
    pub deploys: u64,
    /// Agent hops replayed.
    pub hops: u64,
    /// VM instructions the replayed hops executed.
    pub instructions: u64,
    /// Transfer bytes of the replayed hops.
    pub agent_bytes: u64,
    /// Raw and compressed PI bytes of the replayed deploys.
    pub pi_raw: u64,
    /// See `pi_raw`.
    pub pi_compressed: u64,
    /// How often `Algorithm::Auto` picked each algorithm for a PI.
    pub pi_algorithms: BTreeMap<&'static str, u64>,
    /// Key pairs generated, and their total time.
    pub keygens: u64,
    /// See `keygens`.
    pub keygen_ns: u64,
    /// Scrape bodies rendered and parsed, and the time of each side.
    pub scrape_bodies: u64,
    /// See `scrape_bodies`.
    pub render_ns: u64,
    /// See `scrape_bodies`.
    pub parse_ns: u64,
    /// Replays that disagreed with the run.
    pub problems: Vec<String>,
}

impl Replay {
    fn time<T>(&mut self, side: Side, layer: Layer, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.ns[side as usize][layer as usize] += t.elapsed().as_nanos() as u64;
        out
    }

    /// Total replayed nanoseconds of `layer` over all sides.
    pub fn layer_ns(&self, layer: Layer) -> u64 {
        self.ns.iter().map(|side| side[layer as usize]).sum()
    }

    /// Total replayed nanoseconds of `side` over all layers.
    pub fn side_ns(&self, side: Side) -> u64 {
        self.ns[side as usize].iter().sum()
    }

    /// Replayed nanoseconds of one side's layer.
    pub fn ns(&self, side: Side, layer: Layer) -> u64 {
        self.ns[side as usize][layer as usize]
    }

    /// Fold another replay's totals (not its problems) in.
    pub fn merge(&mut self, other: &Replay) {
        for (a, b) in self.ns.iter_mut().flatten().zip(other.ns.iter().flatten()) {
            *a += b;
        }
        self.deploys += other.deploys;
        self.hops += other.hops;
        self.instructions += other.instructions;
        self.agent_bytes += other.agent_bytes;
        self.pi_raw += other.pi_raw;
        self.pi_compressed += other.pi_compressed;
        for (alg, n) in &other.pi_algorithms {
            *self.pi_algorithms.entry(alg).or_default() += n;
        }
        self.keygens += other.keygens;
        self.keygen_ns += other.keygen_ns;
        self.scrape_bodies += other.scrape_bodies;
        self.render_ns += other.render_ns;
        self.parse_ns += other.parse_ns;
    }
}

/// Scrape bodies rendered and parsed per instance.
const SCRAPE_REPEATS: u64 = 20;

/// Replay every layer call of a finished traced instance. `deploys` are the
/// requests copied from `inputs` before the build.
pub fn replay(inputs: &Inputs, deploys: &[Vec<DeployRequest>], built: &Built) -> Replay {
    let mut r = Replay::default();
    for (ci, cell) in built.cells.iter().enumerate() {
        let sim = built.engine.shard(cell.shard);
        let t = Instant::now();
        let keys = KeyPair::generate(inputs.cells[ci].key_seed);
        r.keygen_ns += t.elapsed().as_nanos() as u64;
        r.keygens += 1;
        for (d, &dev) in cell.devices.iter().enumerate() {
            let device = node::<DeviceNode>(sim, dev);
            let result = device.events.iter().find_map(|e| match e {
                DeviceEvent::ResultCollected { result, .. } => Some(result),
                _ => None,
            });
            let (Some(sub), Some(result), Some(timing)) = (
                device.db.subscription("ebank"),
                result,
                device.timings.first(),
            ) else {
                continue;
            };
            let m = sim.metrics(dev);
            let (raw, packed) = replay_deploy(
                &mut r,
                &keys,
                &device.config.name,
                &sub,
                &deploys[ci][d],
                result,
                timing.pi_bytes,
            );
            if raw as f64 != m.counter("device.pi_raw_bytes")
                || packed as f64 != m.counter("device.pi_compressed_bytes")
            {
                r.problems.push(format!(
                    "cell {ci} device {d}: replayed PI is {raw}/{packed} bytes, the device sent {}/{}",
                    m.counter("device.pi_raw_bytes"),
                    m.counter("device.pi_compressed_bytes")
                ));
            }
            r.pi_raw += raw as u64;
            r.pi_compressed += packed as u64;
            r.deploys += 1;
        }
        for kept_body in kept::<GatewayNode>(sim, cell.gateway) {
            replay_completion(&mut r, &kept_body.body);
        }
        for (k, &site) in cell.sites.iter().enumerate() {
            for hop in kept::<MasNode>(sim, site) {
                let executed = replay_hop(&mut r, &bank_name(k), &hop.body);
                if executed != hop.instructions {
                    r.problems.push(format!(
                        "cell {ci} bank {k}: replayed hop ran {executed} instructions, the MAS ran {}",
                        hop.instructions
                    ));
                }
            }
        }
    }
    let cell = &built.cells[0];
    let snap =
        TelemetrySnapshot::capture(built.engine.shard(cell.shard).metrics(cell.gateway), &[]);
    for _ in 0..SCRAPE_REPEATS {
        let t = Instant::now();
        let text = std::hint::black_box(render_prom("gw-0", &snap));
        let rendered = Instant::now();
        std::hint::black_box(parse_prom(&text));
        r.render_ns += (rendered - t).as_nanos() as u64;
        r.parse_ns += rendered.elapsed().as_nanos() as u64;
    }
    r.scrape_bodies += SCRAPE_REPEATS;
    r
}

/// The document the gateway's subscribe handler builds for `sub`.
fn subscription_doc(sub: &Subscription) -> Element {
    let mut doc = Element::new("subscription")
        .with_attr("id", &sub.code_id)
        .with_attr("secret", &sub.secret)
        .with_attr("gateway", &sub.gateway)
        .with_attr("pubkey-n", sub.public_key.n.to_string())
        .with_attr("pubkey-e", sub.public_key.e.to_string());
    doc.push_child(sub.program.to_xml());
    doc
}

/// The handheld's parse of a subscription document (`from_download`).
fn parse_subscription(r: &mut Replay, side: Side, body: &[u8]) -> Program {
    let xml = r.time(side, Layer::Decompress, || {
        decompress(body).expect("replayed download decompresses")
    });
    r.time(side, Layer::XmlParse, || {
        let doc = Element::parse_bytes(&xml).expect("replayed download parses");
        Program::from_xml(doc.require_child("ma-code").expect("download carries code"))
            .expect("code decodes")
    })
}

/// Replay one deploy, handheld and gateway side. Returns the rebuilt PI's
/// raw and compressed sizes.
fn replay_deploy(
    r: &mut Replay,
    keys: &KeyPair,
    device_name: &str,
    sub: &Subscription,
    deploy: &DeployRequest,
    result: &ResultDoc,
    uploaded: usize,
) -> (usize, usize) {
    use Layer::*;
    use Side::{Device, Gateway};
    // Subscribe: the gateway builds and compresses the download; the
    // handheld parses it and stores it as a compressed record.
    let download = r.time(Gateway, XmlWrite, || {
        subscription_doc(sub).to_document_string()
    });
    let download = r.time(Gateway, Compress, || {
        compress(download.as_bytes(), Algorithm::Auto)
    });
    parse_subscription(r, Device, &download);
    // The stored record is the download document with the service name in
    // front, as `Subscription::to_record` writes it.
    let record = r.time(Device, XmlWrite, || {
        let mut doc = Element::new("subscription")
            .with_attr("service", &sub.service)
            .with_attr("id", &sub.code_id)
            .with_attr("secret", &sub.secret)
            .with_attr("gateway", &sub.gateway)
            .with_attr("pubkey-n", sub.public_key.n.to_string())
            .with_attr("pubkey-e", sub.public_key.e.to_string());
        doc.push_child(sub.program.to_xml());
        doc.to_document_string()
    });
    let record = r.time(Device, Compress, || {
        compress(record.as_bytes(), Algorithm::Auto)
    });
    if record != sub.to_record() {
        r.problems.push(format!(
            "{device_name}: replayed subscription record differs from the stored one"
        ));
    }
    // Entry and upload each look the subscription up: decompress and parse
    // the record, then re-wrap it for the download parser.
    for _ in 0..2 {
        let xml = r.time(Device, Decompress, || {
            decompress(&record).expect("record decompresses")
        });
        r.time(Device, XmlParse, || {
            Element::parse_bytes(&xml).expect("record parses")
        });
        let rewrapped = r.time(Device, Compress, || compress(&xml, Algorithm::Store));
        parse_subscription(r, Device, &rewrapped);
    }
    // Upload: assemble, compress and seal the PI.
    let pi = PackedInformation {
        code_id: sub.code_id.clone(),
        auth_key: UniqueId(sub.code_id.clone()).derive_key(&sub.secret),
        program: sub.program.clone(),
        itinerary: deploy.itinerary.clone(),
        params: deploy.params.clone(),
        fuel_per_hop: deploy.fuel_per_hop,
    };
    let xml = r.time(Device, XmlWrite, || pi.to_document_string());
    let packed = r.time(Device, Compress, || {
        compress(xml.as_bytes(), Algorithm::Auto)
    });
    let picked = sniff_algorithm(&packed).map_or("invalid", Algorithm::name);
    *r.pi_algorithms.entry(picked).or_default() += 1;
    let entropy = format!("{device_name}/1/1");
    let envelope = r.time(Device, Seal, || {
        seal_envelope(&sub.public_key, &packed, entropy.as_bytes()).bytes
    });
    if envelope.len() != uploaded {
        r.problems.push(format!(
            "{device_name}: replayed envelope is {} bytes, uploaded {uploaded}",
            envelope.len()
        ));
    }
    // Dispatch: the gateway opens, decompresses and parses the PI, stages
    // the program and launches the agent.
    let plain = r.time(Gateway, Open, || {
        open_envelope(&keys.private, &envelope).expect("replayed envelope opens")
    });
    let plain = r.time(Gateway, Decompress, || {
        decompress(&plain).expect("replayed PI decompresses")
    });
    let parsed = r.time(Gateway, XmlParse, || {
        PackedInformation::from_document_str(std::str::from_utf8(&plain).expect("PI is UTF-8"))
            .expect("replayed PI parses")
    });
    r.time(Gateway, AgentCodec, || {
        std::hint::black_box(parsed.program.to_bytes());
        let agent = MobileAgent::new(
            AgentId(result.agent_id.clone()),
            parsed.program.clone(),
            parsed.params.clone(),
            Itinerary {
                sites: parsed.itinerary.clone(),
            },
            0,
        );
        std::hint::black_box(agent.to_bytes());
    });
    // Collect: the gateway compresses the result document; the handheld
    // decompresses, parses and stores it.
    let doc = r.time(Gateway, XmlWrite, || result.to_document_string());
    let body = r.time(Gateway, Compress, || {
        compress(doc.as_bytes(), Algorithm::Auto)
    });
    let fetched = r.time(Device, Decompress, || {
        decompress(&body).expect("result decompresses")
    });
    let back = r.time(Device, XmlParse, || {
        ResultDoc::from_document_str(std::str::from_utf8(&fetched).expect("result is UTF-8"))
            .expect("result parses")
    });
    let stored = r.time(Device, XmlWrite, || back.to_document_string());
    r.time(Device, Compress, || {
        std::hint::black_box(compress(stored.as_bytes(), Algorithm::Auto))
    });
    (xml.len(), packed.len())
}

/// Replay the gateway's handling of a returning agent: decode it and write
/// its result document to the file directory.
fn replay_completion(r: &mut Replay, body: &[u8]) {
    let agent = r.time(Side::Gateway, Layer::AgentCodec, || {
        MobileAgent::from_bytes(body).expect("kept completion decodes")
    });
    r.time(Side::Gateway, Layer::XmlWrite, || {
        std::hint::black_box(ResultDoc::from_agent(&agent).to_document_string())
    });
}

/// The MAS's host for a replayed hop: a fresh bank with the opening balance.
struct ReplayHost<'a> {
    site: &'a str,
    bank: BankService,
    params: &'a [(String, Value)],
    emitted: Vec<(String, Value)>,
}

impl Host for ReplayHost<'_> {
    fn invoke(&mut self, service: &str, op: &str, args: &[Value]) -> Result<Value, String> {
        match service {
            "bank" => self.bank.invoke(op, args),
            other => Err(format!("replay host has no service {other:?}")),
        }
    }
    fn param(&self, name: &str) -> Option<Value> {
        self.params
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone())
    }
    fn emit(&mut self, key: &str, value: Value) {
        self.emitted.push((key.to_owned(), value));
    }
    fn site_name(&self) -> &str {
        self.site
    }
}

/// Replay one MAS hop: decode the transfer, run the VM, re-encode the agent
/// for its next hop. Returns the instructions the hop executed.
fn replay_hop(r: &mut Replay, site: &str, body: &[u8]) -> u64 {
    let mut agent = r.time(Side::Mas, Layer::AgentCodec, || {
        MobileAgent::from_bytes(body).expect("kept transfer decodes")
    });
    let before = agent.state.instructions;
    let params = agent.params.clone();
    let mut host = ReplayHost {
        site,
        bank: BankService::new(site).with_account("alice", 10_000_000),
        params: &params,
        emitted: Vec::new(),
    };
    let fuel = agent.fuel_per_hop;
    r.time(Side::Mas, Layer::Vm, || {
        run(&agent.program, &mut agent.state, &mut host, fuel)
    });
    let executed = agent.state.instructions - before;
    for (key, value) in host.emitted {
        agent.push_result(site, &key, value);
    }
    agent.next_hop += 1;
    r.time(Side::Mas, Layer::AgentCodec, || {
        std::hint::black_box(agent.to_bytes())
    });
    r.hops += 1;
    r.instructions += executed;
    r.agent_bytes += body.len() as u64;
    executed
}
