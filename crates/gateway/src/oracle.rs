//! Differential oracle: the element-tree writers and walkers that the
//! streaming encoders and decoders replaced, for every format: typed
//! values, `pdax-1` programs, PIs, result documents and subscription
//! documents.
//!
//! Each writer builds an [`Element`] tree node by node and each reader
//! parses the whole document into a tree before walking it with `child`,
//! `children_named` and `text`. That is slow and plainly faithful to the
//! formats, which makes it the reference the streaming code must match:
//! byte-identical documents out, and the same `Ok` value or an error in, on
//! written, reshaped and hostile documents alike.

use pdagent_codec::base64;
use pdagent_codec::compress::{compress, decompress, Algorithm};
use pdagent_crypto::rsa::PublicKey;
use pdagent_mas::ResultEntry;
use pdagent_vm::program::ProgramError;
use pdagent_vm::{isa::Instr, Program, Value};
use pdagent_xml::Element;

use crate::pi::{PackedInformation, ResultDoc, ResultStatus, Subscription};

/// The typed value form as an element tree, as the deleted `Value::to_xml`
/// built it.
pub fn value_to_xml(value: &Value) -> Element {
    match value {
        Value::Nil => Element::new("v").with_attr("t", "nil"),
        Value::Bool(b) => Element::new("v").with_attr("t", "bool").with_text(b.to_string()),
        Value::Int(i) => Element::new("v").with_attr("t", "int").with_text(i.to_string()),
        Value::Str(s) => Element::new("v").with_attr("t", "str").with_text(s.clone()),
        Value::List(items) => {
            let mut el = Element::new("v").with_attr("t", "list");
            for item in items {
                el.push_child(value_to_xml(item));
            }
            el
        }
    }
}

/// The typed value form read from an element tree, as the deleted
/// `Value::from_xml` walked it.
pub fn value_from_xml(el: &Element) -> Result<Value, String> {
    if el.name() != "v" {
        return Err(format!("expected <v>, found <{}>", el.name()));
    }
    match el.attr("t").ok_or("missing t attribute")? {
        "nil" => Ok(Value::Nil),
        "bool" => match el.text().as_str() {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            other => Err(format!("bad bool {other:?}")),
        },
        "int" => el.text().parse::<i64>().map(Value::Int).map_err(|e| format!("bad int: {e}")),
        "str" => Ok(Value::Str(el.text())),
        "list" => {
            let mut items = Vec::new();
            for child in el.children() {
                items.push(value_from_xml(child)?);
            }
            Ok(Value::List(items))
        }
        other => Err(format!("unknown value type {other:?}")),
    }
}

/// One instruction as a `pdax-1` element.
pub fn instr_to_xml(ins: &Instr) -> Element {
    let el = Element::new("i");
    match *ins {
        Instr::PushConst(c) => el.with_attr("op", "pushc").with_attr("c", c.to_string()),
        Instr::PushInt(n) => el.with_attr("op", "pushi").with_attr("n", n.to_string()),
        Instr::PushTrue => el.with_attr("op", "ptrue"),
        Instr::PushFalse => el.with_attr("op", "pfalse"),
        Instr::PushNil => el.with_attr("op", "nil"),
        Instr::Dup => el.with_attr("op", "dup"),
        Instr::Pop => el.with_attr("op", "pop"),
        Instr::Swap => el.with_attr("op", "swap"),
        Instr::Load(l) => el.with_attr("op", "load").with_attr("l", l.to_string()),
        Instr::Store(l) => el.with_attr("op", "store").with_attr("l", l.to_string()),
        Instr::GLoad(c) => el.with_attr("op", "gload").with_attr("c", c.to_string()),
        Instr::GStore(c) => el.with_attr("op", "gstore").with_attr("c", c.to_string()),
        Instr::Add => el.with_attr("op", "add"),
        Instr::Sub => el.with_attr("op", "sub"),
        Instr::Mul => el.with_attr("op", "mul"),
        Instr::Div => el.with_attr("op", "div"),
        Instr::Mod => el.with_attr("op", "mod"),
        Instr::Neg => el.with_attr("op", "neg"),
        Instr::Eq => el.with_attr("op", "eq"),
        Instr::Ne => el.with_attr("op", "ne"),
        Instr::Lt => el.with_attr("op", "lt"),
        Instr::Le => el.with_attr("op", "le"),
        Instr::Gt => el.with_attr("op", "gt"),
        Instr::Ge => el.with_attr("op", "ge"),
        Instr::And => el.with_attr("op", "and"),
        Instr::Or => el.with_attr("op", "or"),
        Instr::Not => el.with_attr("op", "not"),
        Instr::Concat => el.with_attr("op", "concat"),
        Instr::Jump(t) => el.with_attr("op", "jmp").with_attr("t", t.to_string()),
        Instr::JumpIfFalse(t) => el.with_attr("op", "jmpf").with_attr("t", t.to_string()),
        Instr::ListNew => el.with_attr("op", "listnew"),
        Instr::ListPush => el.with_attr("op", "listpush"),
        Instr::ListGet => el.with_attr("op", "listget"),
        Instr::ListLen => el.with_attr("op", "listlen"),
        Instr::Invoke(s, o, a) => el
            .with_attr("op", "invoke")
            .with_attr("s", s.to_string())
            .with_attr("o", o.to_string())
            .with_attr("a", a.to_string()),
        Instr::Param(c) => el.with_attr("op", "param").with_attr("c", c.to_string()),
        Instr::Emit(c) => el.with_attr("op", "emit").with_attr("c", c.to_string()),
        Instr::Site => el.with_attr("op", "site"),
        Instr::Halt => el.with_attr("op", "halt"),
        Instr::Fail(c) => el.with_attr("op", "fail").with_attr("c", c.to_string()),
    }
}

/// Parse a `pdax-1` instruction element.
pub fn instr_from_xml(el: &Element) -> Result<Instr, ProgramError> {
    let bad = |msg: String| ProgramError::BadXml(msg);
    if el.name() != "i" {
        return Err(bad(format!("expected <i>, found <{}>", el.name())));
    }
    let op = el.attr("op").ok_or_else(|| bad("missing op".into()))?;
    let attr_u16 = |name: &str| -> Result<u16, ProgramError> {
        el.attr(name)
            .ok_or_else(|| bad(format!("{op}: missing {name:?}")))?
            .parse::<u16>()
            .map_err(|e| bad(format!("{op}: bad {name:?}: {e}")))
    };
    let attr_u8 = |name: &str| -> Result<u8, ProgramError> {
        el.attr(name)
            .ok_or_else(|| bad(format!("{op}: missing {name:?}")))?
            .parse::<u8>()
            .map_err(|e| bad(format!("{op}: bad {name:?}: {e}")))
    };
    let attr_u32 = |name: &str| -> Result<u32, ProgramError> {
        el.attr(name)
            .ok_or_else(|| bad(format!("{op}: missing {name:?}")))?
            .parse::<u32>()
            .map_err(|e| bad(format!("{op}: bad {name:?}: {e}")))
    };
    Ok(match op {
        "pushc" => Instr::PushConst(attr_u16("c")?),
        "pushi" => Instr::PushInt(
            el.attr("n")
                .ok_or_else(|| bad("pushi: missing n".into()))?
                .parse::<i64>()
                .map_err(|e| bad(format!("pushi: bad n: {e}")))?,
        ),
        "ptrue" => Instr::PushTrue,
        "pfalse" => Instr::PushFalse,
        "nil" => Instr::PushNil,
        "dup" => Instr::Dup,
        "pop" => Instr::Pop,
        "swap" => Instr::Swap,
        "load" => Instr::Load(attr_u8("l")?),
        "store" => Instr::Store(attr_u8("l")?),
        "gload" => Instr::GLoad(attr_u16("c")?),
        "gstore" => Instr::GStore(attr_u16("c")?),
        "add" => Instr::Add,
        "sub" => Instr::Sub,
        "mul" => Instr::Mul,
        "div" => Instr::Div,
        "mod" => Instr::Mod,
        "neg" => Instr::Neg,
        "eq" => Instr::Eq,
        "ne" => Instr::Ne,
        "lt" => Instr::Lt,
        "le" => Instr::Le,
        "gt" => Instr::Gt,
        "ge" => Instr::Ge,
        "and" => Instr::And,
        "or" => Instr::Or,
        "not" => Instr::Not,
        "concat" => Instr::Concat,
        "jmp" => Instr::Jump(attr_u32("t")?),
        "jmpf" => Instr::JumpIfFalse(attr_u32("t")?),
        "listnew" => Instr::ListNew,
        "listpush" => Instr::ListPush,
        "listget" => Instr::ListGet,
        "listlen" => Instr::ListLen,
        "invoke" => Instr::Invoke(attr_u16("s")?, attr_u16("o")?, attr_u8("a")?),
        "param" => Instr::Param(attr_u16("c")?),
        "emit" => Instr::Emit(attr_u16("c")?),
        "site" => Instr::Site,
        "halt" => Instr::Halt,
        "fail" => Instr::Fail(attr_u16("c")?),
        other => return Err(bad(format!("unknown op {other:?}"))),
    })
}

/// `Program::to_xml`, `pdax-1` only.
pub fn program_to_xml(program: &Program) -> Element {
    let mut root =
        Element::new("ma-code").with_attr("name", &program.name).with_attr("format", "pdax-1");
    let mut consts = Element::new("consts");
    for c in &program.consts {
        consts.push_child(value_to_xml(c));
    }
    root.push_child(consts);
    let mut code = Element::new("code");
    for ins in &program.code {
        code.push_child(instr_to_xml(ins));
    }
    root.push_child(code);
    root
}

/// `Program::from_xml`, either format.
pub fn program_from_xml(el: &Element) -> Result<Program, ProgramError> {
    if el.name() != "ma-code" {
        return Err(ProgramError::BadXml(format!("expected <ma-code>, found <{}>", el.name())));
    }
    match el.attr("format") {
        Some("pdac-1") => {
            let bytes = base64::decode(&el.text())
                .map_err(|e| ProgramError::BadXml(format!("base64: {e}")))?;
            Program::from_bytes(&bytes)
        }
        Some("pdax-1") => {
            let name = el.attr("name").unwrap_or_default().to_owned();
            let consts_el = el
                .child("consts")
                .ok_or_else(|| ProgramError::BadXml("missing <consts>".into()))?;
            let mut consts = Vec::new();
            for v in consts_el.children() {
                consts.push(value_from_xml(v).map_err(ProgramError::BadXml)?);
            }
            let code_el =
                el.child("code").ok_or_else(|| ProgramError::BadXml("missing <code>".into()))?;
            let mut code = Vec::new();
            for i in code_el.children() {
                code.push(instr_from_xml(i)?);
            }
            let program = Program { name, consts, code };
            program.validate()?;
            Ok(program)
        }
        other => Err(ProgramError::BadXml(format!("unsupported format {other:?}"))),
    }
}

/// `PackedInformation::to_xml`.
pub fn pi_to_xml(pi_: &PackedInformation) -> Element {
    let mut pi = Element::new("pi").with_attr("version", "1");
    pi.push_child(
        Element::new("auth").with_attr("id", &pi_.code_id).with_attr("key", &pi_.auth_key),
    );
    pi.push_child(program_to_xml(&pi_.program));
    let mut itin = Element::new("itinerary");
    for site in &pi_.itinerary {
        itin.push_child(Element::new("site").with_text(site.clone()));
    }
    pi.push_child(itin);
    let mut params = Element::new("params");
    for (name, value) in &pi_.params {
        let mut p = Element::new("param").with_attr("name", name);
        p.push_child(value_to_xml(value));
        params.push_child(p);
    }
    pi.push_child(params);
    pi.push_child(Element::new("options").with_attr("fuel", pi_.fuel_per_hop.to_string()));
    pi
}

/// `PackedInformation::from_xml`.
pub fn pi_from_xml(pi: &Element) -> Result<PackedInformation, String> {
    if pi.name() != "pi" {
        return Err(format!("expected <pi>, found <{}>", pi.name()));
    }
    match pi.attr("version") {
        Some("1") | None => {}
        Some(other) => return Err(format!("unsupported PI version {other:?}")),
    }
    let auth = pi.require_child("auth").map_err(|e| e.to_string())?;
    let code_id = auth.require_attr("id").map_err(|e| e.to_string())?.to_owned();
    let auth_key = auth.require_attr("key").map_err(|e| e.to_string())?.to_owned();
    let code_el = pi.require_child("ma-code").map_err(|e| e.to_string())?;
    let program = program_from_xml(code_el).map_err(|e| e.to_string())?;
    let itinerary = pi
        .require_child("itinerary")
        .map_err(|e| e.to_string())?
        .children_named("site")
        .map(|s| s.text())
        .collect();
    let mut params = Vec::new();
    if let Some(params_el) = pi.child("params") {
        for p in params_el.children_named("param") {
            let name = p.require_attr("name").map_err(|e| e.to_string())?.to_owned();
            let v_el = p.child("v").ok_or_else(|| format!("param {name:?} missing <v>"))?;
            let value = value_from_xml(v_el).map_err(|e| e.to_string())?;
            params.push((name, value));
        }
    }
    let fuel_per_hop = pi
        .child("options")
        .and_then(|o| o.attr("fuel"))
        .map(|f| f.parse::<u64>().map_err(|e| format!("bad fuel: {e}")))
        .transpose()?
        .unwrap_or(1_000_000);
    Ok(PackedInformation { code_id, auth_key, program, itinerary, params, fuel_per_hop })
}

fn status_str(status: ResultStatus) -> &'static str {
    match status {
        ResultStatus::Completed => "completed",
        ResultStatus::Failed => "failed",
        ResultStatus::Retracted => "retracted",
    }
}

fn parse_status(s: &str) -> Option<ResultStatus> {
    match s {
        "completed" => Some(ResultStatus::Completed),
        "failed" => Some(ResultStatus::Failed),
        "retracted" => Some(ResultStatus::Retracted),
        _ => None,
    }
}

/// `ResultDoc::to_xml`.
pub fn result_to_xml(doc: &ResultDoc) -> Element {
    let mut root = Element::new("result")
        .with_attr("agent", &doc.agent_id)
        .with_attr("status", status_str(doc.status))
        .with_attr("instructions", doc.instructions.to_string());
    for entry in &doc.entries {
        let mut el =
            Element::new("entry").with_attr("site", &entry.site).with_attr("key", &entry.key);
        el.push_child(value_to_xml(&entry.value));
        root.push_child(el);
    }
    root
}

/// `ResultDoc::from_xml`.
pub fn result_from_xml(root: &Element) -> Result<ResultDoc, String> {
    if root.name() != "result" {
        return Err(format!("expected <result>, found <{}>", root.name()));
    }
    let agent_id = root.require_attr("agent").map_err(|e| e.to_string())?.to_owned();
    let status = parse_status(root.require_attr("status").map_err(|e| e.to_string())?)
        .ok_or("unknown status")?;
    let instructions = root
        .attr("instructions")
        .unwrap_or("0")
        .parse::<u64>()
        .map_err(|e| format!("bad instructions: {e}"))?;
    let mut entries = Vec::new();
    for el in root.children_named("entry") {
        let site = el.require_attr("site").map_err(|e| e.to_string())?.to_owned();
        let key = el.require_attr("key").map_err(|e| e.to_string())?.to_owned();
        let v_el = el.child("v").ok_or("entry missing <v>")?;
        let value = value_from_xml(v_el).map_err(|e| e.to_string())?;
        entries.push(ResultEntry { site, key, value });
    }
    Ok(ResultDoc { agent_id, status, entries, instructions })
}

/// The download document the gateway's subscribe handler built.
pub fn subscription_download(sub: &Subscription) -> String {
    let mut doc = Element::new("subscription")
        .with_attr("id", &sub.code_id)
        .with_attr("secret", &sub.secret)
        .with_attr("gateway", &sub.gateway)
        .with_attr("pubkey-n", sub.public_key.n.to_string())
        .with_attr("pubkey-e", sub.public_key.e.to_string());
    doc.push_child(program_to_xml(&sub.program));
    doc.to_document_string()
}

/// `Subscription::from_download`.
pub fn subscription_from_download(service: &str, body: &[u8]) -> Result<Subscription, String> {
    let xml = decompress(body).map_err(|e| e.to_string())?;
    let doc = Element::parse_bytes(&xml).map_err(|e| e.to_string())?;
    if doc.name() != "subscription" {
        return Err(format!("expected <subscription>, found <{}>", doc.name()));
    }
    let attr = |name: &str| -> Result<String, String> {
        doc.require_attr(name).map(str::to_owned).map_err(|e| e.to_string())
    };
    let public_key = PublicKey {
        n: attr("pubkey-n")?.parse().map_err(|e| format!("pubkey-n: {e}"))?,
        e: attr("pubkey-e")?.parse().map_err(|e| format!("pubkey-e: {e}"))?,
    };
    let code_el = doc.require_child("ma-code").map_err(|e| e.to_string())?;
    let program = program_from_xml(code_el).map_err(|e| e.to_string())?;
    Ok(Subscription {
        service: service.to_owned(),
        code_id: attr("id")?,
        secret: attr("secret")?,
        gateway: attr("gateway")?,
        public_key,
        program,
    })
}

/// `Subscription::to_record`.
pub fn subscription_to_record(sub: &Subscription) -> Vec<u8> {
    let mut doc = Element::new("subscription")
        .with_attr("service", &sub.service)
        .with_attr("id", &sub.code_id)
        .with_attr("secret", &sub.secret)
        .with_attr("gateway", &sub.gateway)
        .with_attr("pubkey-n", sub.public_key.n.to_string())
        .with_attr("pubkey-e", sub.public_key.e.to_string());
    doc.push_child(program_to_xml(&sub.program));
    compress(doc.to_document_string().as_bytes(), Algorithm::Auto)
}

/// Parse a stored record.
pub fn subscription_from_record(record: &[u8]) -> Result<Subscription, String> {
    let xml = decompress(record).map_err(|e| e.to_string())?;
    let doc = Element::parse_bytes(&xml).map_err(|e| e.to_string())?;
    let service = doc.require_attr("service").map_err(|e| e.to_string())?.to_owned();
    // Re-wrap without the service attr for from_download's shape.
    let mut sub =
        subscription_from_download(&service, &compress(xml.as_slice(), Algorithm::Store))?;
    sub.service = service;
    Ok(sub)
}

#[cfg(test)]
mod tests {
    use proptest::test_runner::TestRng;

    use super::*;
    use pdagent_vm::assemble;
    use pdagent_xml::dom::Node;

    fn pick<'s>(rng: &mut TestRng, options: &[&'s str]) -> &'s str {
        options[rng.below(options.len())]
    }

    const STRINGS: [&str; 10] = [
        "",
        " ",
        "bank-3",
        "<tag> & \"q\" 'a'",
        "tab\tnl\ncr\r",
        "héllo 中文 ✓",
        "]]> -- &amp;",
        "a string long enough to leave the inline buffer behind",
        "  padded  ",
        "\u{3000}",
    ];

    fn random_value(rng: &mut TestRng, depth: usize) -> Value {
        match rng.below(if depth == 0 { 4 } else { 5 }) {
            0 => Value::Nil,
            1 => Value::Bool(rng.below(2) == 0),
            2 => Value::Int(match rng.below(4) {
                0 => i64::MIN,
                1 => i64::MAX,
                2 => -(rng.below(1000) as i64),
                _ => rng.next_u64() as i64,
            }),
            3 => Value::Str(pick(rng, &STRINGS).to_owned()),
            _ => Value::List((0..rng.below(4)).map(|_| random_value(rng, depth - 1)).collect()),
        }
    }

    /// A program whose every reference is in range, so it decodes.
    fn random_program(rng: &mut TestRng) -> Program {
        let consts: Vec<Value> = (0..1 + rng.below(6)).map(|_| random_value(rng, 2)).collect();
        let n = consts.len() as u16;
        let len = 1 + rng.below(30);
        let code = (0..len)
            .map(|_| {
                let c = rng.below(n as usize) as u16;
                let t = rng.below(len + 1) as u32;
                match rng.below(12) {
                    0 => Instr::PushConst(c),
                    1 => Instr::PushInt(rng.next_u64() as i64),
                    2 => Instr::Load(rng.below(256) as u8),
                    3 => Instr::GStore(c),
                    4 => Instr::Jump(t),
                    5 => Instr::JumpIfFalse(t),
                    6 => Instr::Invoke(c, c, rng.below(256) as u8),
                    7 => Instr::Emit(c),
                    8 => Instr::ListGet,
                    9 => Instr::Concat,
                    10 => Instr::Fail(c),
                    _ => Instr::Halt,
                }
            })
            .collect();
        Program { name: pick(rng, &STRINGS).to_owned(), consts, code }
    }

    fn random_pi(rng: &mut TestRng) -> PackedInformation {
        PackedInformation {
            code_id: pick(rng, &STRINGS).to_owned(),
            auth_key: pick(rng, &STRINGS).to_owned(),
            program: random_program(rng),
            itinerary: (0..rng.below(4)).map(|_| pick(rng, &STRINGS).to_owned()).collect(),
            params: (0..rng.below(4))
                .map(|_| (pick(rng, &STRINGS).to_owned(), random_value(rng, 3)))
                .collect(),
            fuel_per_hop: if rng.below(2) == 0 {
                rng.next_u64()
            } else {
                rng.below(1 << 20) as u64
            },
        }
    }

    fn random_result(rng: &mut TestRng) -> ResultDoc {
        ResultDoc {
            agent_id: pick(rng, &STRINGS).to_owned(),
            status: [ResultStatus::Completed, ResultStatus::Failed, ResultStatus::Retracted]
                [rng.below(3)],
            entries: (0..rng.below(6))
                .map(|_| ResultEntry {
                    site: pick(rng, &STRINGS).to_owned(),
                    key: pick(rng, &STRINGS).to_owned(),
                    value: random_value(rng, 3),
                })
                .collect(),
            instructions: rng.next_u64(),
        }
    }

    fn random_subscription(rng: &mut TestRng) -> Subscription {
        Subscription {
            service: pick(rng, &STRINGS).to_owned(),
            code_id: pick(rng, &STRINGS).to_owned(),
            secret: pick(rng, &STRINGS).to_owned(),
            gateway: pick(rng, &STRINGS).to_owned(),
            public_key: PublicKey { n: rng.next_u64(), e: rng.next_u64() },
            program: random_program(rng),
        }
    }

    /// `value` as a compact document, written by `Value::write_xml`.
    fn value_document(value: &Value) -> String {
        let mut w = pdagent_xml::XmlWriter::compact();
        w.declaration();
        value.write_xml(&mut w);
        w.finish()
    }

    #[test]
    fn writers_match_oracle_bytes() {
        let mut rng = TestRng::from_name("writers");
        for _ in 0..200 {
            let value = random_value(&mut rng, 4);
            assert_eq!(value_document(&value), value_to_xml(&value).to_document_string());
            let program = random_program(&mut rng);
            assert_eq!(program.to_xml(), program_to_xml(&program));
            assert_eq!(program.to_document_string(), program_to_xml(&program).to_document_string());
            let pi = random_pi(&mut rng);
            assert_eq!(pi.to_document_string(), pi_to_xml(&pi).to_document_string());
            let result = random_result(&mut rng);
            assert_eq!(result.to_document_string(), result_to_xml(&result).to_document_string());
            let sub = random_subscription(&mut rng);
            assert_eq!(sub.download_document(), subscription_download(&sub));
            assert_eq!(sub.to_record(), subscription_to_record(&sub));
        }
    }

    /// Write `el` as text, reshaped at random in ways a DOM reader takes in
    /// stride: indentation, comments and processing instructions between
    /// children, text split into CDATA and character references, both
    /// quote styles, unknown attributes. The element `edit` counts down to
    /// (in document order) also gets one structural edit: a child
    /// duplicated (altered, so it shows which copy a reader takes),
    /// reordered or dropped, an unknown element, or an attribute dropped.
    fn reshape(rng: &mut TestRng, el: &Element, out: &mut String, edit: &mut usize) {
        let this = *edit == 0;
        *edit = edit.wrapping_sub(1);
        let mut attrs: Vec<(String, String)> =
            el.attrs().map(|(k, v)| (k.to_owned(), v.to_owned())).collect();
        let mut nodes: Vec<Node> = el.nodes().to_vec();
        if rng.below(8) == 0 {
            attrs.push(("x-unknown".into(), "1".into()));
        }
        if this {
            match rng.below(5) {
                0 if !nodes.is_empty() => {
                    let i = rng.below(nodes.len());
                    let mut copy = nodes[i].clone();
                    if let Node::Element(el) = &mut copy {
                        let first = el.attrs().next().map(|(k, v)| (k.to_owned(), format!("{v}9")));
                        if let Some((k, v)) = first {
                            el.set_attr(k, v);
                        }
                    }
                    nodes.insert(i + rng.below(2), copy);
                }
                1 if nodes.len() > 1 => {
                    let i = rng.below(nodes.len() - 1);
                    nodes.swap(i, i + 1);
                }
                2 if !nodes.is_empty() => {
                    nodes.remove(rng.below(nodes.len()));
                }
                3 => {
                    let unknown = Element::new("unknown")
                        .with_attr("a", "1")
                        .with_child(value_to_xml(&Value::Int(5)));
                    nodes.insert(rng.below(nodes.len() + 1), Node::Element(unknown));
                }
                _ if !attrs.is_empty() => {
                    attrs.remove(rng.below(attrs.len()));
                }
                _ => {}
            }
        }
        out.push('<');
        out.push_str(el.name());
        for (k, v) in &attrs {
            let mut escaped = String::new();
            pdagent_xml::escape::escape_attr(&mut escaped, v);
            if rng.below(3) == 0 {
                out.push_str(&format!("\n  {k} = '{}'", escaped.replace('\'', "&apos;")));
            } else {
                out.push_str(&format!(" {k}=\"{escaped}\""));
            }
        }
        if nodes.is_empty() && rng.below(2) == 0 {
            out.push_str("/>");
            return;
        }
        out.push('>');
        for node in &nodes {
            match rng.below(12) {
                0 => out.push_str("\n    "),
                1 => out.push_str("<!-- note -->"),
                2 => out.push_str("<?pi data?>"),
                _ => {}
            }
            match node {
                Node::Element(child) => reshape(rng, child, out, edit),
                Node::Text(text) => match rng.below(4) {
                    0 if !text.contains("]]>") => out.push_str(&format!("<![CDATA[{text}]]>")),
                    1 => {
                        for ch in text.chars() {
                            out.push_str(&format!("&#{};", u32::from(ch)));
                        }
                    }
                    _ => pdagent_xml::escape::escape_text(out, text),
                },
                Node::Comment(c) => out.push_str(&format!("<!--{c}-->")),
            }
        }
        if rng.below(4) == 0 {
            out.push('\n');
        }
        out.push_str("</");
        out.push_str(el.name());
        out.push('>');
    }

    /// `el` with its `k`-th descendant element (in document order) followed
    /// by an [`altered`] copy, so which one a decoder takes shows.
    fn duplicated(el: &Element, k: &mut usize) -> Element {
        let mut out = Element::new(el.name());
        for (name, value) in el.attrs() {
            out.set_attr(name, value);
        }
        for node in el.nodes() {
            match node {
                Node::Element(child) => {
                    let hit = *k == 0;
                    *k = k.wrapping_sub(1);
                    let child = duplicated(child, k);
                    if hit {
                        let copy = altered(&child);
                        out.push_child(child);
                        out.push_child(copy);
                    } else {
                        out.push_child(child);
                    }
                }
                Node::Text(text) => out.push_text(text.clone()),
                Node::Comment(_) => {}
            }
        }
        out
    }

    /// A copy of `el` that differs from it: its first attribute value gains
    /// a `9`; without attributes it loses its last child element, and
    /// without those its text gains a `9`.
    fn altered(el: &Element) -> Element {
        let mut copy = Element::new(el.name());
        for (name, value) in el.attrs() {
            copy.set_attr(name, value);
        }
        let last = el.nodes().iter().rposition(|n| matches!(n, Node::Element(_)));
        for (i, node) in el.nodes().iter().enumerate() {
            match node {
                Node::Element(child) if Some(i) != last || el.attrs().next().is_some() => {
                    copy.push_child(child.clone())
                }
                Node::Element(_) => {}
                Node::Text(text) => copy.push_text(text.clone()),
                Node::Comment(_) => {}
            }
        }
        match el.attrs().next() {
            Some((name, value)) => copy.set_attr(name, format!("{value}9")),
            None if last.is_none() => copy.push_text("9"),
            None => {}
        }
        copy
    }

    /// Every document `doc` gives with one element duplicated.
    fn with_duplicates(doc: &str) -> Vec<String> {
        let tree = Element::parse_str(doc).expect("written documents parse");
        (0..tree.element_count() - 1)
            .map(|k| duplicated(&tree, &mut { k }).to_document_string())
            .collect()
    }

    #[test]
    fn first_of_duplicate_children_wins_like_the_oracle() {
        let mut rng = TestRng::from_name("duplicates");
        for _ in 0..6 {
            for doc in with_duplicates(&random_pi(&mut rng).to_document_string()) {
                agree(&doc, PackedInformation::from_document_str(&doc), dom(&doc, pi_from_xml));
            }
            for doc in with_duplicates(&random_result(&mut rng).to_document_string()) {
                agree(&doc, ResultDoc::from_document_str(&doc), dom(&doc, result_from_xml));
            }
            let sub = random_subscription(&mut rng);
            for doc in
                with_duplicates(&String::from_utf8(decompress(&sub.to_record()).unwrap()).unwrap())
            {
                let body = compress(doc.as_bytes(), Algorithm::Store);
                agree(&doc, Subscription::from_record(&body), subscription_from_record(&body));
            }
        }
    }

    /// `doc`, reshaped copies of it, and hostile mutations of it.
    fn variants(rng: &mut TestRng, doc: &str, reshapes: usize, mutations: usize) -> Vec<String> {
        let mut out = vec![doc.to_owned()];
        let tree = Element::parse_str(doc).expect("written documents parse");
        for _ in 0..reshapes {
            let mut text = String::from("<?xml version='1.0'?>\n");
            let mut edit = rng.below(tree.element_count());
            reshape(rng, &tree, &mut text, &mut edit);
            out.push(text);
        }
        for _ in 0..mutations {
            let at = rng.below(doc.len());
            if !doc.is_char_boundary(at) {
                continue;
            }
            let mut m = doc[..at].to_owned();
            if rng.below(3) > 0 {
                m.push_str(pick(
                    rng,
                    &["<", ">", "/", "&", ";", "\"", "=", "x", " ", "-", "v", "1"],
                ));
                let skip = doc[at..].chars().next().map_or(0, char::len_utf8);
                m.push_str(&doc[at + skip..]);
            }
            out.push(m);
        }
        out
    }

    /// The streaming decoder and the oracle give the same value, or both an
    /// error. Returns whether they decoded.
    fn agree<T: PartialEq + std::fmt::Debug, E1: std::fmt::Debug, E2: std::fmt::Debug>(
        doc: &str,
        new: Result<T, E1>,
        old: Result<T, E2>,
    ) -> bool {
        match (new, old) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "{doc:?}");
                true
            }
            (Err(_), Err(_)) => false,
            (a, b) => panic!("{doc:?}\n  streaming: {a:?}\n  oracle: {b:?}"),
        }
    }

    fn dom<T, E: ToString>(
        doc: &str,
        walk: impl FnOnce(&Element) -> Result<T, E>,
    ) -> Result<T, String> {
        let el = Element::parse_str(doc).map_err(|e| e.to_string())?;
        walk(&el).map_err(|e| e.to_string())
    }

    #[test]
    fn value_and_program_decoders_match_oracle() {
        let mut rng = TestRng::from_name("values");
        for _ in 0..60 {
            let value = random_value(&mut rng, 4);
            let doc = value_document(&value);
            for v in variants(&mut rng, &doc, 4, 12) {
                let new = pdagent_xml::DocReader::read_document(&v, Value::read_xml);
                agree(&v, new, dom(&v, value_from_xml));
            }
            let program = random_program(&mut rng);
            let doc = program.to_document_string();
            for v in variants(&mut rng, &doc, 4, 12) {
                let new = pdagent_xml::DocReader::read_document(&v, Program::read_xml);
                agree(&v, new, dom(&v, program_from_xml));
                if let Ok(el) = Element::parse_str(&v) {
                    agree(&v, Program::from_xml(&el), program_from_xml(&el));
                }
            }
        }
    }

    #[test]
    fn document_decoders_match_oracle() {
        let mut rng = TestRng::from_name("documents");
        let (mut tried, mut decoded) = (0, 0);
        for _ in 0..40 {
            let doc = random_pi(&mut rng).to_document_string();
            for v in variants(&mut rng, &doc, 6, 20) {
                tried += 1;
                decoded += usize::from(agree(
                    &v,
                    PackedInformation::from_document_str(&v),
                    dom(&v, pi_from_xml),
                ));
            }
            let doc = random_result(&mut rng).to_document_string();
            for v in variants(&mut rng, &doc, 6, 20) {
                tried += 1;
                decoded += usize::from(agree(
                    &v,
                    ResultDoc::from_document_str(&v),
                    dom(&v, result_from_xml),
                ));
            }
            let sub = random_subscription(&mut rng);
            let record = String::from_utf8(decompress(&sub.to_record()).unwrap()).unwrap();
            for doc in [sub.download_document(), record] {
                for v in variants(&mut rng, &doc, 6, 20) {
                    let body = compress(v.as_bytes(), Algorithm::Store);
                    agree(
                        &v,
                        Subscription::from_download("svc", &body),
                        subscription_from_download("svc", &body),
                    );
                    agree(&v, Subscription::from_record(&body), subscription_from_record(&body));
                }
            }
        }
        // The reshaping keeps enough documents decodable to compare values,
        // and the mutations make enough of them fail.
        assert!(decoded * 5 > tried && decoded * 5 < tried * 4, "{decoded} of {tried} decoded");
    }

    /// A PI, a result and a subscription document shaped like the
    /// platform's traffic (an e-banking agent, typed parameters, a roaming
    /// agent's results).
    fn golden_documents() -> Vec<String> {
        let program = assemble(
            r#"
            .name ebank-agent
            gload "initialized"
            jmpf init
            jmp work
        init:
            push 0
            gstore "total-moved"
            push true
            gstore "initialized"
        work:
            param "transactions"
            store 0
            push 0
            store 1
        loop:
            load 1
            load 0
            listlen
            lt
            jmpf done
            load 0
            load 1
            listget
            store 2
            load 2
            push 1
            listget
            invoke "bank" "balance" 1
            emit "receipt"
            load 1
            push 1
            add
            store 1
            jmp loop
        done:
            push "site="
            site
            add
            emit "settled"
            halt
        "#,
        )
        .unwrap();
        let tx = |i: i64| {
            Value::List(vec![
                Value::Str(format!("bank-{}", i % 2)),
                Value::Str("alice".into()),
                Value::Str(format!("payee-{i}")),
                Value::Int(100 + i),
            ])
        };
        let pi = PackedInformation {
            code_id: "ebank@device-0#1".into(),
            auth_key: "0123456789abcdef0123456789abcdef".into(),
            program: program.clone(),
            itinerary: vec!["bank-0".into(), "bank-1".into()],
            params: vec![
                ("transactions".into(), Value::List((0..2).map(tx).collect())),
                ("memo".into(), Value::Str("rent & food <3".into())),
            ],
            fuel_per_hop: 1_000_000,
        };
        let result = ResultDoc {
            agent_id: "ag-17@gw-0".into(),
            status: ResultStatus::Completed,
            entries: (0..6)
                .map(|i| ResultEntry {
                    site: format!("bank-{}", i % 2),
                    key: if i < 4 { "receipt" } else { "settled" }.into(),
                    value: if i < 4 { Value::Str(format!("rcpt-{i}")) } else { tx(i) },
                })
                .collect(),
            instructions: 25_660,
        };
        let sub = Subscription {
            service: "ebank".into(),
            code_id: "ebank@dev3#12".into(),
            secret: "5f2b".into(),
            gateway: "gw-0".into(),
            public_key: PublicKey { n: 0xdead_beef_cafe_f00d, e: 65537 },
            program,
        };
        vec![
            pi.to_document_string(),
            result.to_document_string(),
            String::from_utf8(decompress(&sub.to_record()).unwrap()).unwrap(),
        ]
    }

    /// Both decoders on every truncation and every single-byte substitution
    /// of the golden documents.
    #[test]
    fn hostile_documents_match_oracle() {
        let docs = golden_documents();
        let check = |doc: &str| {
            agree(doc, PackedInformation::from_document_str(doc), dom(doc, pi_from_xml));
            agree(doc, ResultDoc::from_document_str(doc), dom(doc, result_from_xml));
            let body = compress(doc.as_bytes(), Algorithm::Store);
            agree(doc, Subscription::from_record(&body), subscription_from_record(&body));
        };
        for doc in &docs {
            for cut in 0..doc.len() {
                check(&doc[..cut]);
            }
            for at in 0..doc.len() {
                let mut bytes = doc.clone().into_bytes();
                bytes[at] = b"<>/&\"= x"[at % 8];
                if let Ok(flipped) = String::from_utf8(bytes) {
                    check(&flipped);
                }
            }
        }
    }

    /// List nesting far past the cap, inside a PI parameter and a result
    /// entry, is an error from both decoders, not a stack overflow.
    #[test]
    fn deep_value_nesting_is_rejected_like_the_oracle() {
        let deep =
            |depth: usize| format!("{}{}", "<v t=\"list\">".repeat(depth), "</v>".repeat(depth));
        for depth in [pdagent_xml::reader::MAX_DEPTH - 4, pdagent_xml::reader::MAX_DEPTH, 100_000] {
            let pi = format!(
                "<pi><auth id=\"a\" key=\"k\"/>\
                 <ma-code name=\"x\" format=\"pdax-1\"><consts/><code/></ma-code>\
                 <itinerary/><params><param name=\"p\">{}</param></params></pi>",
                deep(depth)
            );
            agree(&pi, PackedInformation::from_document_str(&pi), dom(&pi, pi_from_xml));
            let result = format!(
                "<result agent=\"a\" status=\"completed\">\
                 <entry site=\"s\" key=\"k\">{}</entry></result>",
                deep(depth)
            );
            agree(&result, ResultDoc::from_document_str(&result), dom(&result, result_from_xml));
            if depth > pdagent_xml::reader::MAX_DEPTH {
                assert!(PackedInformation::from_document_str(&pi).is_err());
                assert!(ResultDoc::from_document_str(&result).is_err());
            }
        }
    }
}
