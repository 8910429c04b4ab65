//! Property-based tests (proptest) over the core data structures and wire
//! formats: everything that crosses a boundary must round-trip, and every
//! decoder must reject mutilated input without panicking.

use proptest::collection::vec as pvec;
use proptest::prelude::*;

use pdagent::codec::compress::{compress, decompress, Algorithm};
use pdagent::codec::{base64, hex, varint};
use pdagent::core::rms::RecordStore;
use pdagent::crypto::envelope::{open_envelope, seal_envelope};
use pdagent::crypto::rsa::KeyPair;
use pdagent::gateway::pi::{PackedInformation, ResultDoc, ResultStatus};
use pdagent::mas::{AgentId, Itinerary, MobileAgent, ResultEntry};
use pdagent::vm::{assemble, disassemble, Program, Value};
use pdagent::xml::{DocReader, Element, XmlWriter};

// --- generators -------------------------------------------------------------

/// Arbitrary `Value`s, recursion-bounded.
fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Nil),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        "[ -~]{0,40}".prop_map(Value::Str), // printable ASCII incl. <>&"'
        "\\PC{0,12}".prop_map(Value::Str),  // arbitrary unicode
    ];
    leaf.prop_recursive(3, 24, 6, |inner| {
        pvec(inner, 0..6).prop_map(Value::List)
    })
}

/// XML name fragments (safe element/attribute names).
fn xml_name() -> impl Strategy<Value = String> {
    "[a-zA-Z_][a-zA-Z0-9_.-]{0,10}"
}

/// Arbitrary XML trees.
fn element_strategy() -> impl Strategy<Value = Element> {
    let leaf = (xml_name(), pvec((xml_name(), "\\PC{0,16}"), 0..3), "\\PC{0,20}").prop_map(
        |(name, attrs, text)| {
            let mut el = Element::new(name);
            for (k, v) in attrs {
                el.set_attr(k, v);
            }
            if !text.is_empty() {
                el.push_text(text);
            }
            el
        },
    );
    leaf.prop_recursive(4, 32, 5, |inner| {
        (xml_name(), pvec((xml_name(), "\\PC{0,16}"), 0..3), pvec(inner, 0..5)).prop_map(
            |(name, attrs, children)| {
                let mut el = Element::new(name);
                for (k, v) in attrs {
                    el.set_attr(k, v);
                }
                for c in children {
                    el.push_child(c);
                }
                el
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // --- codecs -------------------------------------------------------------

    #[test]
    fn base64_roundtrip(data in pvec(any::<u8>(), 0..512)) {
        prop_assert_eq!(base64::decode(&base64::encode(&data)).unwrap(), data);
    }

    #[test]
    fn hex_roundtrip(data in pvec(any::<u8>(), 0..256)) {
        prop_assert_eq!(hex::decode(&hex::encode(&data)).unwrap(), data);
    }

    #[test]
    fn varint_roundtrip(v in any::<u64>()) {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, v);
        let mut pos = 0;
        prop_assert_eq!(varint::read_u64(&buf, &mut pos).unwrap(), v);
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn compression_roundtrip_every_algorithm(
        data in pvec(any::<u8>(), 0..2048),
        alg in prop_oneof![
            Just(Algorithm::Store),
            Just(Algorithm::Rle),
            Just(Algorithm::Lzss),
            Just(Algorithm::Huffman),
            Just(Algorithm::LzssHuffman),
            Just(Algorithm::Auto),
        ],
    ) {
        let packed = compress(&data, alg);
        prop_assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn decompress_never_panics_on_garbage(data in pvec(any::<u8>(), 0..256)) {
        let _ = decompress(&data); // must not panic
    }

    #[test]
    fn compressed_text_never_expands_much(text in "[a-z <>/=\"\n]{0,2000}") {
        let packed = compress(text.as_bytes(), Algorithm::Auto);
        prop_assert!(packed.len() <= text.len() + 16);
    }

    // --- crypto -------------------------------------------------------------

    #[test]
    fn envelope_roundtrip(payload in pvec(any::<u8>(), 0..1024), seed in 1u64..50) {
        let kp = KeyPair::generate(seed);
        let env = seal_envelope(&kp.public, &payload, b"prop-entropy");
        prop_assert_eq!(open_envelope(&kp.private, &env.bytes).unwrap(), payload);
    }

    #[test]
    fn envelope_tamper_detected(
        payload in pvec(any::<u8>(), 8..256),
        flip in 0usize..100000,
    ) {
        let kp = KeyPair::generate(7);
        let mut env = seal_envelope(&kp.public, &payload, b"prop").bytes;
        let idx = 60 + flip % (env.len() - 60); // only ciphertext bytes
        env[idx] ^= 0x01;
        prop_assert!(open_envelope(&kp.private, &env).is_err());
    }

    #[test]
    fn open_envelope_never_panics(data in pvec(any::<u8>(), 0..256)) {
        let kp = KeyPair::generate(3);
        let _ = open_envelope(&kp.private, &data);
    }

    // --- values & XML ---------------------------------------------------------

    #[test]
    fn value_binary_roundtrip(v in value_strategy()) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut pos = 0;
        prop_assert_eq!(Value::decode(&buf, &mut pos).unwrap(), v);
    }

    #[test]
    fn value_xml_roundtrip(v in value_strategy()) {
        let mut w = XmlWriter::compact();
        w.declaration();
        v.write_xml(&mut w);
        let doc = w.finish();
        prop_assert_eq!(DocReader::read_document(&doc, Value::read_xml).unwrap(), v);
    }

    #[test]
    fn xml_document_roundtrip(el in element_strategy()) {
        let doc = el.to_document_string();
        let parsed = Element::parse_str(&doc).unwrap();
        prop_assert_eq!(parsed, normalize(&el));
    }

    #[test]
    fn xml_pretty_roundtrip(el in element_strategy()) {
        let doc = el.to_pretty_string();
        let parsed = Element::parse_str(&doc).unwrap();
        prop_assert_eq!(parsed, normalize(&el));
    }

    #[test]
    fn xml_parser_never_panics(input in "\\PC{0,200}") {
        let _ = Element::parse_str(&input);
    }

    // --- programs & agents -----------------------------------------------------

    #[test]
    fn program_binary_roundtrip_via_disassembler(
        ints in pvec(any::<i64>(), 1..8),
        strs in pvec("[a-z]{1,8}", 1..4),
    ) {
        // Build a small synthetic program through the assembler to ensure
        // validity, then roundtrip binary + XML + disassembly.
        let mut src = String::from(".name prop\n");
        for s in &strs {
            src.push_str(&format!("push \"{s}\"\npop\n"));
        }
        for i in &ints {
            src.push_str(&format!("push {i}\npop\n"));
        }
        src.push_str("halt\n");
        let p = assemble(&src).unwrap();
        prop_assert_eq!(Program::from_bytes(&p.to_bytes()).unwrap(), p.clone());
        let xml_doc = p.to_document_string();
        let back = DocReader::read_document(&xml_doc, Program::read_xml).unwrap();
        prop_assert_eq!(&back, &p);
        let dis = disassemble(&p);
        prop_assert_eq!(assemble(&dis).unwrap().code, p.code);
    }

    #[test]
    fn program_from_bytes_never_panics(data in pvec(any::<u8>(), 0..256)) {
        let _ = Program::from_bytes(&data);
    }

    #[test]
    fn vm_never_panics_on_arbitrary_valid_programs(
        raw in pvec(any::<u8>(), 8..256),
        consts in pvec(value_strategy(), 1..4),
    ) {
        // Fuzz the interpreter: decode arbitrary bytes into instruction-like
        // programs by reusing the binary decoder (which validates), then run
        // whatever validates with a canned host. Any outcome is fine —
        // Completed, Failed, OutOfFuel, Trapped — but never a panic.
        let mut candidate = Program { name: "fuzz".into(), consts, code: vec![] };
        // Mutate a real serialized program with the raw bytes and let the
        // decoder judge; whatever validates gets executed.
        let src = r#"
            push 1
            store 0
        top:
            load 0
            push 1
            add
            dup
            store 0
            push 40
            lt
            jmpf end
            jmp top
        end:
            invoke "svc" "op" 0
            emit "n"
            halt
        "#;
        let seeded = assemble(&format!(".name fuzz
{src}")).unwrap();
        let mut body = seeded.to_bytes();
        for (i, &b) in raw.iter().enumerate() {
            let pos = 5 + (i * 7) % (body.len() - 5);
            body[pos] ^= b;
        }
        if let Ok(program) = Program::from_bytes(&body) {
            let mut host = pdagent::vm::MapHost::new("fuzz-site");
            host.set_service("svc", "op", Value::Int(1));
            let mut state = pdagent::vm::AgentState::default();
            let _ = pdagent::vm::run(&program, &mut state, &mut host, 20_000);
        }
        // Also run the (valid) empty-code candidate for good measure.
        let mut host = pdagent::vm::MapHost::new("fuzz-site");
        let mut state = pdagent::vm::AgentState::default();
        let _ = pdagent::vm::run(&candidate, &mut state, &mut host, 1_000);
        candidate.code.clear();
    }

    #[test]
    fn mobile_agent_roundtrip(
        id in "[a-z0-9-]{1,16}",
        sites in pvec("[a-z-]{1,10}", 0..5),
        hop in 0usize..6,
        params in pvec(("[a-z]{1,8}", value_strategy()), 0..4),
    ) {
        let program = assemble(".name prop\nhalt\n").unwrap();
        let mut agent = MobileAgent::new(
            AgentId(id),
            program,
            params.into_iter().collect(),
            Itinerary::new(sites),
            17,
        );
        agent.next_hop = hop;
        agent.push_result("s", "k", Value::Int(1));
        prop_assert_eq!(MobileAgent::from_bytes(&agent.to_bytes()).unwrap(), agent);
    }

    #[test]
    fn mobile_agent_from_bytes_never_panics(data in pvec(any::<u8>(), 0..300)) {
        let _ = MobileAgent::from_bytes(&data);
    }

    // --- PI & result documents ---------------------------------------------------

    #[test]
    fn packed_information_roundtrip(
        code_id in "[a-z@#0-9]{1,20}",
        key in "[0-9a-f]{32}",
        sites in pvec("[a-z-]{1,10}", 0..4),
        params in pvec(("[a-zA-Z]{1,10}", value_strategy()), 0..4),
        fuel in 1u64..10_000_000,
    ) {
        let pi = PackedInformation {
            code_id,
            auth_key: key,
            program: assemble(".name prop\nparam \"x\"\nemit \"y\"\nhalt\n").unwrap(),
            itinerary: sites,
            params,
            fuel_per_hop: fuel,
        };
        let doc = pi.to_document_string();
        prop_assert_eq!(PackedInformation::from_document_str(&doc).unwrap(), pi);
    }

    #[test]
    fn result_doc_roundtrip(
        agent in "[a-z0-9@-]{1,20}",
        entries in pvec(("[a-z-]{1,8}", "[a-z]{1,8}", value_strategy()), 0..6),
        instructions in any::<u32>(),
    ) {
        let doc = ResultDoc {
            agent_id: agent,
            status: ResultStatus::Completed,
            entries: entries
                .into_iter()
                .map(|(site, key, value)| ResultEntry { site, key, value })
                .collect(),
            instructions: instructions as u64,
        };
        let s = doc.to_document_string();
        prop_assert_eq!(ResultDoc::from_document_str(&s).unwrap(), doc);
    }

    // --- record store (model-based) -----------------------------------------------

    #[test]
    fn record_store_behaves_like_a_map(ops in pvec((0u8..4, pvec(any::<u8>(), 0..32)), 1..40)) {
        let mut store = RecordStore::open("model");
        let mut model: std::collections::BTreeMap<u32, Vec<u8>> = Default::default();
        let mut next_id = 1u32;
        for (op, data) in ops {
            match op {
                0 => {
                    let id = store.add_record(&data).unwrap();
                    prop_assert_eq!(id, next_id);
                    model.insert(id, data);
                    next_id += 1;
                }
                1 => {
                    // set on a random existing or missing id
                    let id = (data.first().copied().unwrap_or(0) as u32) % (next_id + 1);
                    let expected = model.contains_key(&id);
                    let outcome = store.set_record(id, &data).is_ok();
                    prop_assert_eq!(outcome, expected);
                    if expected {
                        model.insert(id, data);
                    }
                }
                2 => {
                    let id = (data.first().copied().unwrap_or(0) as u32) % (next_id + 1);
                    let expected = model.remove(&id).is_some();
                    prop_assert_eq!(store.delete_record(id).is_ok(), expected);
                }
                _ => {
                    let id = (data.first().copied().unwrap_or(0) as u32) % (next_id + 1);
                    match model.get(&id) {
                        Some(v) => prop_assert_eq!(store.get_record(id).unwrap(), &v[..]),
                        None => prop_assert!(store.get_record(id).is_err()),
                    }
                }
            }
        }
        // Snapshot roundtrip preserves everything.
        let restored = RecordStore::from_bytes(&store.to_bytes()).unwrap();
        prop_assert_eq!(restored, store);
    }
}

/// The DOM drops whitespace-only text among element children and merges
/// adjacent text nodes; apply the same normalization to the generated tree
/// before comparing.
fn normalize(el: &Element) -> Element {
    let mut out = Element::new(el.name());
    for (k, v) in el.attrs() {
        out.set_attr(k, v);
    }
    let has_element_child = el.children().next().is_some();
    let mut pending_text = String::new();
    for node in el.nodes() {
        match node {
            pdagent::xml::dom::Node::Text(t) => {
                if !has_element_child || !t.trim().is_empty() {
                    pending_text.push_str(t);
                }
            }
            pdagent::xml::dom::Node::Element(e) => {
                if !pending_text.is_empty() {
                    out.push_text(std::mem::take(&mut pending_text));
                }
                out.push_child(normalize(e));
            }
            pdagent::xml::dom::Node::Comment(_) => {}
        }
    }
    if !pending_text.is_empty() {
        out.push_text(pending_text);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Auto compression is never worse than any single algorithm (modulo the
    /// LzssHuffman container's extra mid-length varint).
    #[test]
    fn auto_compression_is_optimal(data in pvec(any::<u8>(), 0..1500)) {
        use pdagent::codec::compress::Algorithm;
        let auto_len = compress(&data, Algorithm::Auto).len();
        for alg in [
            Algorithm::Store,
            Algorithm::Rle,
            Algorithm::Lzss,
            Algorithm::Huffman,
            Algorithm::LzssHuffman,
        ] {
            let len = compress(&data, alg).len();
            prop_assert!(
                auto_len <= len + 10,
                "auto {auto_len} worse than {alg:?} {len}"
            );
        }
    }

    /// The gateway File Directory behaves like a quota-bounded map: staged
    /// entries are readable until removed; releases never lose data unless
    /// space is reclaimed; used() never exceeds the quota.
    #[test]
    fn file_directory_model(ops in pvec((0u8..4, 0usize..8, 1usize..64), 1..60)) {
        use pdagent::gateway::filedir::{FileDirectory, FileKind};
        let quota = 256;
        let mut dir = FileDirectory::new(quota);
        let mut pinned: std::collections::BTreeSet<String> = Default::default();
        for (op, slot, size) in ops {
            let name = format!("file-{slot}");
            match op {
                0 => {
                    if dir.allocate(&name, FileKind::ResultDoc, vec![0; size]).is_ok() {
                        pinned.insert(name);
                    }
                }
                1 => {
                    if dir.release(&name).is_ok() {
                        pinned.remove(&name);
                    }
                }
                2 => {
                    let _ = dir.remove(&name);
                    pinned.remove(&name);
                }
                _ => {
                    let _ = dir.read(&name);
                }
            }
            prop_assert!(dir.used() <= quota, "used {} > quota {quota}", dir.used());
            // Unreleased (pinned) files must always still be readable.
            for p in &pinned {
                prop_assert!(dir.read(p).is_ok(), "pinned {p} evicted");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A log-bucket histogram's percentile is an upper bound on the true
    /// rank value, tight to within one power of two, never above the exact
    /// max, and exact at p = 1.0.
    #[test]
    fn histogram_percentile_bounds(
        values in pvec(0u64..1_000_000, 1..200),
        p_mil in 0u64..1000,
    ) {
        use pdagent::net::obs::Histogram;
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let max = *sorted.last().unwrap();
        let p = p_mil as f64 / 1000.0;
        let rank = ((p * sorted.len() as f64).ceil() as usize).max(1);
        let truth = sorted[rank - 1];
        let est = h.percentile(p);
        prop_assert!(est >= truth, "estimate {est} under true rank value {truth}");
        prop_assert!(est <= max, "estimate {est} above exact max {max}");
        if truth == 0 {
            prop_assert_eq!(est, 0);
        } else {
            prop_assert!(est < truth * 2, "estimate {est} not within 2x of {truth}");
        }
        prop_assert_eq!(h.percentile(1.0), max);
        prop_assert_eq!(h.max(), max);
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum(), values.iter().sum::<u64>());
    }

    /// Percentile is monotone in p.
    #[test]
    fn histogram_percentile_is_monotone(
        values in pvec(0u64..1_000_000, 1..100),
        ps_mil in pvec(0u64..1000, 2..8),
    ) {
        use pdagent::net::obs::Histogram;
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut ps: Vec<f64> = ps_mil.iter().map(|&m| m as f64 / 1000.0).collect();
        ps.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for pair in ps.windows(2) {
            prop_assert!(
                h.percentile(pair[0]) <= h.percentile(pair[1]),
                "percentile not monotone at {pair:?}"
            );
        }
    }

    // --- link batching & sharding ------------------------------------------------

    /// A fragment burst delivers its final byte when an unfragmented send of
    /// the same message would: on a lossless, jitter-free link the burst's
    /// tail arrival equals `route`'s delay to within per-fragment integer
    /// rounding. This is the invariant that lets batched link delivery
    /// replace per-message serialization without changing any result.
    #[test]
    fn burst_tail_matches_unfragmented_delivery_on_lossless_links(
        size in 1usize..30_000,
        mtu in 16usize..2048,
        seed in 1u64..500,
        kbps in 1u64..2_000,
        latency_ms in 0u64..200,
    ) {
        use pdagent::net::link::{LinkSpec, Topology};
        use pdagent::net::message::Message;
        use pdagent::net::time::SimTime;

        let spec = LinkSpec::ideal()
            .with_latency(pdagent::net::time::SimDuration::from_millis(latency_ms))
            .with_bandwidth(kbps * 1024);
        let mut whole = Topology::new();
        whole.set_seed(seed);
        whole.connect(1, 2, spec.clone());
        let mut burst = Topology::new();
        burst.set_seed(seed);
        burst.connect(1, 2, spec);

        let msg = Message::new("m", vec![0u8; size]);
        let wire = msg.wire_size();
        let d = whole.route(1, 2, &msg, SimTime::ZERO).expect("lossless");
        let mut arrivals = Vec::new();
        let delivered = burst.route_burst_into(1, 2, wire, mtu, SimTime::ZERO, &mut arrivals);
        prop_assert!(delivered, "lossless");
        let nfrags = wire.div_ceil(mtu);
        prop_assert_eq!(arrivals.len(), nfrags);
        for pair in arrivals.windows(2) {
            prop_assert!(pair[0] <= pair[1], "arrivals must ascend");
        }
        let tail = arrivals.last().copied().unwrap();
        let diff = tail.as_micros().abs_diff(d.as_micros());
        prop_assert!(
            diff <= nfrags as u64,
            "burst tail {}us vs route {}us (allowed rounding {}us)",
            tail.as_micros(), d.as_micros(), nfrags
        );
    }

    /// Batched bursts consume exactly the draws `route` does — one loss, one
    /// jitter — so on a lossy, jittery link the two modes make *identical*
    /// drop decisions and land within rounding of each other, message after
    /// message. "Statistically indistinguishable" is an understatement: the
    /// sequences coincide draw for draw.
    #[test]
    fn burst_and_route_make_identical_loss_and_jitter_decisions(
        sizes in pvec(1usize..8_000, 1..20),
        mtu in 16usize..1024,
        seed in 1u64..500,
        loss_mil in 0u32..500,
    ) {
        use pdagent::net::link::{Jitter, LinkSpec, Topology};
        use pdagent::net::message::Message;
        use pdagent::net::time::{SimDuration, SimTime};

        let spec = LinkSpec::wireless_gprs()
            .with_loss(loss_mil as f64 / 1000.0)
            .with_jitter(Jitter::Exponential(SimDuration::from_millis(40)));
        let mut whole = Topology::new();
        whole.set_seed(seed);
        whole.connect(1, 2, spec.clone());
        let mut burst = Topology::new();
        burst.set_seed(seed);
        burst.connect(1, 2, spec);

        let mut slack = 0u64; // cumulative rounding allowance, in µs
        let mut a = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            let now = SimTime(i as u64 * 1_000);
            let msg = Message::new("m", vec![0u8; size]);
            let wire = msg.wire_size();
            let d = whole.route(1, 2, &msg, now);
            let delivered = burst.route_burst_into(1, 2, wire, mtu, now, &mut a);
            prop_assert_eq!(d.is_some(), delivered);
            let Some(d) = d else { continue };
            slack += wire.div_ceil(mtu) as u64;
            let tail = a.last().copied().unwrap();
            prop_assert!(
                tail.as_micros().abs_diff(d.as_micros()) <= slack,
                "message {}: burst {}us vs route {}us (slack {}us)",
                i, tail.as_micros(), d.as_micros(), slack
            );
        }
    }

    /// Merging shard histograms is identical to recording everything into
    /// one, in either merge order — the guarantee the parallel benchmark
    /// fan-out relies on for deterministic obs sections.
    #[test]
    fn histogram_merge_equals_single_recording(
        a in pvec(0u64..1_000_000, 0..100),
        b in pvec(0u64..1_000_000, 0..100),
    ) {
        use pdagent::net::obs::Histogram;
        let mut whole = Histogram::new();
        for &v in a.iter().chain(b.iter()) {
            whole.record(v);
        }
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        for &v in &a {
            ha.record(v);
        }
        for &v in &b {
            hb.record(v);
        }
        let mut merged_ab = ha.clone();
        merged_ab.merge(&hb);
        let mut merged_ba = hb;
        merged_ba.merge(&ha);
        prop_assert_eq!(&merged_ab, &whole);
        prop_assert_eq!(&merged_ba, &whole);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Shard equivalence, end to end: the fleet soak run on one simulator
    /// and partitioned over N simulators (same seed) produces an *identical*
    /// results section — per-device completion times, PI sizes, wireless
    /// byte counts, heartbeats — and the same total event count. Few cases,
    /// because each one runs four full soaks; the per-link RNG streams and
    /// the epoch exchange carry the real weight.
    #[test]
    fn sharded_soak_equals_single_shard_for_any_seed_and_shard_count(
        seed in 1u64..10_000,
        shards in 2usize..5,
    ) {
        use pdagent_bench::soak::{run_soak, SoakSpec};
        let mut spec = SoakSpec::new(seed, 4, 1);
        spec.pi_pad = 2 * 1024;
        spec.heartbeats = 2;
        let mono = run_soak(&spec);
        spec.shards = shards;
        let split = run_soak(&spec);
        prop_assert_eq!(&mono.results, &split.results);
        prop_assert_eq!(mono.events, split.events);
    }
}
