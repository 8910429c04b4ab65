//! The Packed Information (PI), result-document and subscription wire
//! formats.
//!
//! All are XML "for interoperability" (paper §3.2): any gateway or MAS that
//! understands the schema can process agents from any device. The PI carries
//! the agent code, the authorization id/key, the itinerary and the user's
//! typed parameters; the result document carries everything the agent
//! brought back; the subscription document carries downloaded agent code to
//! the handheld, which keeps it (compressed) in its database.
//!
//! Each format has one encoder, into an [`XmlWriter`], and one decoder, from
//! a [`DocReader`]: documents go straight between typed values and text,
//! with no element tree in between. The decoders answer exactly as a walk
//! over the parsed [`pdagent_xml::Element`] tree would: the first child of a
//! given name counts, unknown elements and attributes are ignored, and the
//! DOM's whitespace rule and nesting cap apply.

use pdagent_codec::compress::{compress, decompress, Algorithm};
use pdagent_crypto::rsa::PublicKey;
use pdagent_mas::{MobileAgent, ResultEntry};
use pdagent_vm::{Program, Value};
use pdagent_xml::{DocReader, Tag, XmlError, XmlWriter};

/// Start a compact document with the XML declaration: the wire form.
fn document() -> XmlWriter {
    let mut w = XmlWriter::compact();
    w.declaration();
    w
}

/// The value in the first `<v>` child of `parent` (others are ignored), or
/// `None` if there is none.
fn first_value<'a>(r: &mut DocReader<'a>, mut parent: Tag<'a>) -> Result<Option<Value>, String> {
    let mut value = None;
    while let Some(child) = r.next_child(&mut parent)? {
        if child.name == "v" && value.is_none() {
            value = Some(Value::read_xml(r, child)?);
        } else {
            r.skip(child)?;
        }
    }
    Ok(value)
}

/// The Packed Information: what the Agent Dispatcher on the device assembles
/// and the gateway's Agent Dispatch Handler consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedInformation {
    /// The unique id assigned to the MA code at subscription time (§3.1).
    pub code_id: String,
    /// The authorization key derived from the id (§3.2).
    pub auth_key: String,
    /// The agent program.
    pub program: Program,
    /// Sites to visit, in order.
    pub itinerary: Vec<String>,
    /// Typed launch parameters.
    pub params: Vec<(String, Value)>,
    /// Per-hop fuel budget.
    pub fuel_per_hop: u64,
}

impl PackedInformation {
    /// Serialize to the compact `<pi>` document (the plaintext that gets
    /// compressed and sealed into the envelope).
    pub fn to_document_string(&self) -> String {
        let mut w = document();
        w.start("pi");
        w.attr("version", "1");
        w.start("auth");
        w.attr("id", &self.code_id);
        w.attr("key", &self.auth_key);
        w.end();
        self.program.write_xml(&mut w);
        w.start("itinerary");
        for site in &self.itinerary {
            w.start("site");
            w.text(site);
            w.end();
        }
        w.end();
        w.start("params");
        for (name, value) in &self.params {
            w.start("param");
            w.attr("name", name);
            value.write_xml(&mut w);
            w.end();
        }
        w.end();
        w.start("options");
        w.attr_int("fuel", self.fuel_per_hop);
        w.end();
        w.end();
        w.finish()
    }

    /// Parse a `<pi>` document. Only version 1 documents are understood; a
    /// future device speaking `version="2"` gets a clean error (→ HTTP 400)
    /// instead of a misparse.
    pub fn from_document_str(doc: &str) -> Result<PackedInformation, String> {
        DocReader::read_document(doc, Self::read_xml)
    }

    fn read_xml<'a>(r: &mut DocReader<'a>, mut pi: Tag<'a>) -> Result<PackedInformation, String> {
        if pi.name != "pi" {
            return Err(format!("expected <pi>, found <{}>", pi.name));
        }
        match pi.attr("version").as_deref() {
            Some("1") | None => {}
            Some(other) => return Err(format!("unsupported PI version {other:?}")),
        }
        let (mut auth, mut program, mut itinerary, mut params, mut fuel) =
            (None, None, None, None, None);
        while let Some(mut child) = r.next_child(&mut pi)? {
            match child.name {
                "auth" if auth.is_none() => {
                    let id = child.require_attr("id")?.into_owned();
                    let key = child.require_attr("key")?.into_owned();
                    auth = Some((id, key));
                    r.skip(child)?;
                }
                "ma-code" if program.is_none() => {
                    program = Some(Program::read_xml(r, child).map_err(|e| e.to_string())?);
                }
                "itinerary" if itinerary.is_none() => {
                    let mut sites = Vec::new();
                    while let Some(site) = r.next_child(&mut child)? {
                        match site.name {
                            "site" => sites.push(r.text(site)?.into_owned()),
                            _ => r.skip(site)?,
                        }
                    }
                    itinerary = Some(sites);
                }
                "params" if params.is_none() => {
                    let mut list = Vec::new();
                    while let Some(param) = r.next_child(&mut child)? {
                        if param.name != "param" {
                            r.skip(param)?;
                            continue;
                        }
                        let name = param.require_attr("name")?.into_owned();
                        let value = first_value(r, param)?
                            .ok_or_else(|| format!("param {name:?} missing <v>"))?;
                        list.push((name, value));
                    }
                    params = Some(list);
                }
                "options" if fuel.is_none() => {
                    let per_hop = child
                        .attr("fuel")
                        .map(|f| f.parse::<u64>().map_err(|e| format!("bad fuel: {e}")))
                        .transpose()?;
                    fuel = Some(per_hop);
                    r.skip(child)?;
                }
                _ => r.skip(child)?,
            }
        }
        let (code_id, auth_key) = auth.ok_or_else(|| pi.missing_child("auth").to_string())?;
        let program = program.ok_or_else(|| pi.missing_child("ma-code").to_string())?;
        let itinerary = itinerary.ok_or_else(|| pi.missing_child("itinerary").to_string())?;
        Ok(PackedInformation {
            code_id,
            auth_key,
            program,
            itinerary,
            params: params.unwrap_or_default(),
            fuel_per_hop: fuel.flatten().unwrap_or(1_000_000),
        })
    }
}

/// How the agent's journey ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultStatus {
    /// Itinerary completed normally.
    Completed,
    /// Execution failed at some site (an `error` entry says why).
    Failed,
    /// Retracted by the user before finishing.
    Retracted,
}

impl ResultStatus {
    fn as_str(self) -> &'static str {
        match self {
            ResultStatus::Completed => "completed",
            ResultStatus::Failed => "failed",
            ResultStatus::Retracted => "retracted",
        }
    }

    fn parse(s: &str) -> Option<ResultStatus> {
        match s {
            "completed" => Some(ResultStatus::Completed),
            "failed" => Some(ResultStatus::Failed),
            "retracted" => Some(ResultStatus::Retracted),
            _ => None,
        }
    }
}

/// The result document the Document Creator assembles for the user.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultDoc {
    /// Agent id the results belong to.
    pub agent_id: String,
    /// Journey outcome.
    pub status: ResultStatus,
    /// All `(site, key, value)` entries the agent emitted.
    pub entries: Vec<ResultEntry>,
    /// Total VM instructions the agent executed (accounting).
    pub instructions: u64,
}

impl ResultDoc {
    /// Build from a returned agent.
    pub fn from_agent(agent: &MobileAgent) -> ResultDoc {
        let entries: Vec<ResultEntry> = agent.results.iter().collect();
        let status = if entries.iter().any(|r| r.key == "retracted") {
            ResultStatus::Retracted
        } else if entries.iter().any(|r| r.key == "error") {
            ResultStatus::Failed
        } else {
            ResultStatus::Completed
        };
        ResultDoc {
            agent_id: agent.id.0.clone(),
            status,
            entries,
            instructions: agent.state.instructions,
        }
    }

    /// Serialize to the compact `<result>` document.
    pub fn to_document_string(&self) -> String {
        let mut w = document();
        w.start("result");
        w.attr("agent", &self.agent_id);
        w.attr("status", self.status.as_str());
        w.attr_int("instructions", self.instructions);
        for entry in &self.entries {
            w.start("entry");
            w.attr("site", &entry.site);
            w.attr("key", &entry.key);
            entry.value.write_xml(&mut w);
            w.end();
        }
        w.end();
        w.finish()
    }

    /// Parse a `<result>` document.
    pub fn from_document_str(doc: &str) -> Result<ResultDoc, String> {
        DocReader::read_document(doc, |r, mut root| {
            if root.name != "result" {
                return Err(format!("expected <result>, found <{}>", root.name));
            }
            let agent_id = root.require_attr("agent")?.into_owned();
            let status =
                ResultStatus::parse(&root.require_attr("status")?).ok_or("unknown status")?;
            let instructions = root
                .attr("instructions")
                .as_deref()
                .unwrap_or("0")
                .parse::<u64>()
                .map_err(|e| format!("bad instructions: {e}"))?;
            let mut entries = Vec::new();
            while let Some(entry) = r.next_child(&mut root)? {
                if entry.name != "entry" {
                    r.skip(entry)?;
                    continue;
                }
                let site = entry.require_attr("site")?.into_owned();
                let key = entry.require_attr("key")?.into_owned();
                let value = first_value(r, entry)?.ok_or("entry missing <v>")?;
                entries.push(ResultEntry { site, key, value });
            }
            Ok(ResultDoc { agent_id, status, entries, instructions })
        })
    }

    /// Entries with a given key.
    pub fn entries_for<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a ResultEntry> {
        self.entries.iter().filter(move |e| e.key == key)
    }
}

/// A subscription: everything the device needs to deploy the service later
/// without talking to the gateway again (§3.1: "Once the service agent code
/// is present in PDAgent's database, the subscription is no longer
/// needed"). The gateway sends it as the download document; the device
/// stores it as a record, the same document with the service name added.
#[derive(Debug, Clone, PartialEq)]
pub struct Subscription {
    /// Service name (e.g. `"ebank"`).
    pub service: String,
    /// The unique code id assigned by the gateway.
    pub code_id: String,
    /// Shared secret for deriving the authorization key.
    pub secret: String,
    /// Issuing gateway's name.
    pub gateway: String,
    /// Issuing gateway's public key (for sealing envelopes).
    pub public_key: PublicKey,
    /// The agent program.
    pub program: Program,
}

impl Subscription {
    /// The `<subscription>` document, with the `service` attribute in a
    /// stored record and without it in the gateway's download.
    fn to_document_string(&self, with_service: bool) -> String {
        let mut w = document();
        w.start("subscription");
        if with_service {
            w.attr("service", &self.service);
        }
        w.attr("id", &self.code_id);
        w.attr("secret", &self.secret);
        w.attr("gateway", &self.gateway);
        w.attr_int("pubkey-n", self.public_key.n);
        w.attr_int("pubkey-e", self.public_key.e);
        self.program.write_xml(&mut w);
        w.end();
        w.finish()
    }

    /// The download document the gateway's subscribe handler sends
    /// (uncompressed).
    pub fn download_document(&self) -> String {
        self.to_document_string(false)
    }

    /// Parse the gateway's subscription download (a compressed XML doc).
    pub fn from_download(service: &str, body: &[u8]) -> Result<Subscription, String> {
        let xml = decompress(body).map_err(|e| e.to_string())?;
        Self::from_document(&xml, Some(service))
    }

    /// Serialize for storage — the XML form, *compressed*, exactly as the
    /// paper stores agent code ("compressing the agent code before storing
    /// it in the device's database").
    pub fn to_record(&self) -> Vec<u8> {
        compress(self.to_document_string(true).as_bytes(), Algorithm::Auto)
    }

    /// Parse a stored record.
    pub fn from_record(record: &[u8]) -> Result<Subscription, String> {
        let xml = decompress(record).map_err(|e| e.to_string())?;
        Self::from_document(&xml, None)
    }

    /// Decode a subscription document. A download names its service out of
    /// band (`service`); a record carries it in its `service` attribute.
    fn from_document(xml: &[u8], service: Option<&str>) -> Result<Subscription, String> {
        let doc = std::str::from_utf8(xml)
            .map_err(|e| XmlError::InvalidUtf8 { offset: e.valid_up_to() }.to_string())?;
        DocReader::read_document(doc, |r, mut root| {
            let service = match service {
                Some(service) => service.to_owned(),
                None => root.require_attr("service")?.into_owned(),
            };
            if root.name != "subscription" {
                return Err(format!("expected <subscription>, found <{}>", root.name));
            }
            let attr = |name: &str| -> Result<String, String> {
                Ok(root.require_attr(name)?.into_owned())
            };
            let public_key = PublicKey {
                n: attr("pubkey-n")?.parse().map_err(|e| format!("pubkey-n: {e}"))?,
                e: attr("pubkey-e")?.parse().map_err(|e| format!("pubkey-e: {e}"))?,
            };
            let (code_id, secret, gateway) = (attr("id")?, attr("secret")?, attr("gateway")?);
            let mut program = None;
            while let Some(child) = r.next_child(&mut root)? {
                if child.name == "ma-code" && program.is_none() {
                    program = Some(Program::read_xml(r, child).map_err(|e| e.to_string())?);
                } else {
                    r.skip(child)?;
                }
            }
            let program = program.ok_or_else(|| root.missing_child("ma-code").to_string())?;
            Ok(Subscription { service, code_id, secret, gateway, public_key, program })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdagent_vm::assemble;
    use pdagent_xml::Element;

    fn sample_pi() -> PackedInformation {
        let program = assemble(
            r#"
            .name ebank
            param "amount"
            emit "echo"
            halt
        "#,
        )
        .unwrap();
        PackedInformation {
            code_id: "ebank@dev1#1".into(),
            auth_key: "0123456789abcdef0123456789abcdef".into(),
            program,
            itinerary: vec!["bank-a".into(), "bank-b".into()],
            params: vec![
                ("amount".into(), Value::Int(12500)),
                ("memo".into(), Value::Str("rent & food <3".into())),
                ("flags".into(), Value::List(vec![Value::Bool(true), Value::Nil])),
            ],
            fuel_per_hop: 500_000,
        }
    }

    #[test]
    fn pi_roundtrip() {
        let pi = sample_pi();
        let doc = pi.to_document_string();
        let back = PackedInformation::from_document_str(&doc).unwrap();
        assert_eq!(back, pi);
    }

    #[test]
    fn pi_accepts_compact_program_format_too() {
        // A PI whose <ma-code> uses the dense pdac-1 encoding (e.g. built by
        // third-party tooling) must parse identically — the gateway promises
        // format interoperability, not one blessed encoding.
        let pi = sample_pi();
        let mut el = Element::new("pi").with_attr("version", "1");
        el.push_child(
            Element::new("auth").with_attr("id", &pi.code_id).with_attr("key", &pi.auth_key),
        );
        el.push_child(pi.program.to_xml_compact());
        let mut itin = Element::new("itinerary");
        for site in &pi.itinerary {
            itin.push_child(Element::new("site").with_text(site.clone()));
        }
        el.push_child(itin);
        let mut params = Element::new("params");
        for (name, value) in &pi.params {
            let mut p = Element::new("param").with_attr("name", name);
            p.push_child(value.to_xml());
            params.push_child(p);
        }
        el.push_child(params);
        el.push_child(Element::new("options").with_attr("fuel", pi.fuel_per_hop.to_string()));
        let parsed = PackedInformation::from_document_str(&el.to_document_string()).unwrap();
        assert_eq!(parsed, pi);
    }

    #[test]
    fn pi_size_is_modest() {
        // The whole PI for a 2-site e-banking launch stays in the paper's
        // "1KB to 8KB" range before compression.
        let doc = sample_pi().to_document_string();
        assert!(doc.len() < 8 * 1024, "PI is {} bytes", doc.len());
    }

    #[test]
    fn value_xml_roundtrip_all_types() {
        for v in [
            Value::Nil,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-99),
            Value::Str("x <&> y".into()),
            Value::List(vec![Value::Int(1), Value::List(vec![Value::Str("deep".into())])]),
        ] {
            let el = v.to_xml();
            let doc = el.to_document_string();
            let parsed = Element::parse_str(&doc).unwrap();
            assert_eq!(Value::from_xml(&parsed).unwrap(), v);
        }
    }

    #[test]
    fn value_xml_rejects_garbage() {
        let el = Element::new("v").with_attr("t", "int").with_text("not-a-number");
        assert!(Value::from_xml(&el).is_err());
        let el = Element::new("v").with_attr("t", "alien");
        assert!(Value::from_xml(&el).is_err());
        let el = Element::new("w").with_attr("t", "int");
        assert!(Value::from_xml(&el).is_err());
        let el = Element::new("v");
        assert!(Value::from_xml(&el).is_err());
    }

    #[test]
    fn pi_future_version_rejected_cleanly() {
        let doc = sample_pi().to_document_string().replace("version=\"1\"", "version=\"2\"");
        let err = PackedInformation::from_document_str(&doc).unwrap_err();
        assert!(err.contains("unsupported PI version"), "{err}");
    }

    #[test]
    fn pi_missing_pieces_rejected() {
        assert!(PackedInformation::from_document_str("<pi version=\"1\"/>").is_err());
        assert!(PackedInformation::from_document_str("<notpi/>").is_err());
        // Bad inner program.
        let doc = r#"<pi version="1"><auth id="a" key="k"/><ma-code name="x" format="pdac-1" size="3">!!!</ma-code><itinerary/></pi>"#;
        assert!(PackedInformation::from_document_str(doc).is_err());
    }

    #[test]
    fn pi_defaults_fuel_when_options_absent() {
        let mut pi = sample_pi();
        pi.fuel_per_hop = 1_000_000;
        let mut el = Element::new("pi").with_attr("version", "1");
        el.push_child(
            Element::new("auth").with_attr("id", &pi.code_id).with_attr("key", &pi.auth_key),
        );
        el.push_child(pi.program.to_xml());
        let mut itin = Element::new("itinerary");
        for site in &pi.itinerary {
            itin.push_child(Element::new("site").with_text(site.clone()));
        }
        el.push_child(itin);
        let parsed =
            PackedInformation::from_document_str(&el.to_document_string()).unwrap();
        assert_eq!(parsed.fuel_per_hop, 1_000_000);
        assert!(parsed.params.is_empty());
    }

    #[test]
    fn result_doc_roundtrip() {
        let doc = ResultDoc {
            agent_id: "ag-7".into(),
            status: ResultStatus::Completed,
            entries: vec![
                ResultEntry {
                    site: "bank-a".into(),
                    key: "receipt".into(),
                    value: Value::Str("r-1".into()),
                },
                ResultEntry {
                    site: "bank-b".into(),
                    key: "balance".into(),
                    value: Value::Int(420_000),
                },
            ],
            instructions: 777,
        };
        let s = doc.to_document_string();
        assert_eq!(ResultDoc::from_document_str(&s).unwrap(), doc);
    }

    #[test]
    fn result_status_derived_from_agent() {
        use pdagent_mas::{AgentId, Itinerary};
        let prog = assemble("halt").unwrap();
        let mut agent = MobileAgent::new(
            AgentId("a".into()),
            prog,
            vec![],
            Itinerary::new(["s"]),
            0,
        );
        assert_eq!(ResultDoc::from_agent(&agent).status, ResultStatus::Completed);
        agent.push_result("s", "error", Value::Str("boom".into()));
        assert_eq!(ResultDoc::from_agent(&agent).status, ResultStatus::Failed);
        agent.push_result("s", "retracted", Value::Bool(true));
        assert_eq!(ResultDoc::from_agent(&agent).status, ResultStatus::Retracted);
    }

    #[test]
    fn entries_for_filters_by_key() {
        let doc = ResultDoc {
            agent_id: "a".into(),
            status: ResultStatus::Completed,
            entries: vec![
                ResultEntry { site: "s1".into(), key: "r".into(), value: Value::Int(1) },
                ResultEntry { site: "s2".into(), key: "other".into(), value: Value::Int(2) },
                ResultEntry { site: "s2".into(), key: "r".into(), value: Value::Int(3) },
            ],
            instructions: 0,
        };
        let rs: Vec<i64> =
            doc.entries_for("r").map(|e| e.value.as_int().unwrap()).collect();
        assert_eq!(rs, vec![1, 3]);
    }
}
