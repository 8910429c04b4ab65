//! The migrating agent record and its wire form.
//!
//! An agent travels as one byte record: id, program, launch parameters,
//! migrating state, itinerary, next hop, results, origin and fuel budget.
//! A visit changes only the state, the next hop and the results, so a
//! [`MobileAgent`] keeps the other large sections as the bytes it arrived
//! in and forwards them unchanged, as the paper's gateway ships an agent's
//! code and launch data once:
//!
//! * [`ProgramSection`]: the program's wire bytes beside the decoded
//!   [`Program`]. It is decoded and validated at intake, because the visit
//!   runs it, and never encoded again.
//! * [`ParamsSection`]: the launch parameters as raw bytes, checked at
//!   intake by [`Value::skip`], which allocates nothing. A `param` op
//!   decodes only the parameter it names, straight into the VM
//!   ([`ParamsSection::get`] behind [`pdagent_vm::Host::param_bytes`]).
//! * [`ResultsSection`]: a byte tail. Each visit appends its own entries,
//!   and they are decoded only where they are read ([`ResultsSection::iter`]:
//!   the gateway's result document, and tests).
//!
//! [`MobileAgent::to_bytes`] copies the three sections verbatim and encodes
//! only the state, the itinerary, the next hop and the small fields. The
//! wire bytes are those of the eager codec that decoded and re-encoded
//! every section on every hop; it is kept as the test-only `mas::oracle`.

use std::ops::Deref;
use std::sync::OnceLock;

use pdagent_codec::varint;
use pdagent_vm::{AgentState, Program, Value};

/// Globally unique agent identifier (assigned by the creating gateway).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AgentId(pub String);

impl std::fmt::Display for AgentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The ordered list of site names an agent visits.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Itinerary {
    /// Site names, in visit order.
    pub sites: Vec<String>,
}

impl Itinerary {
    /// Itinerary over the given sites.
    pub fn new<S: Into<String>>(sites: impl IntoIterator<Item = S>) -> Itinerary {
        Itinerary { sites: sites.into_iter().map(Into::into).collect() }
    }

    /// Number of hops.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True if there are no hops.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }
}

/// One `(site, key, value)` triple emitted by the agent during execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultEntry {
    /// Site at which the value was emitted.
    pub site: String,
    /// Result key (the `emit "<key>"` operand).
    pub key: String,
    /// Emitted value.
    pub value: Value,
}

/// The agent's program with its wire bytes ([`Program::to_bytes`]),
/// dereferencing to the decoded [`Program`] the visit runs.
#[derive(Debug, Clone)]
pub struct ProgramSection {
    program: Program,
    wire: Box<[u8]>,
}

impl ProgramSection {
    /// Encode `program` once.
    fn new(program: Program) -> ProgramSection {
        let wire = program.to_bytes().into_boxed_slice();
        ProgramSection { program, wire }
    }

    /// Decode and validate a program's wire bytes, and keep them.
    fn decode(wire: &[u8]) -> Result<ProgramSection, AgentDecodeError> {
        let program = Program::from_bytes(wire).map_err(|_| AgentDecodeError)?;
        Ok(ProgramSection { program, wire: wire.into() })
    }

    /// The wire bytes.
    pub fn wire(&self) -> &[u8] {
        &self.wire
    }
}

impl Deref for ProgramSection {
    type Target = Program;

    fn deref(&self) -> &Program {
        &self.program
    }
}

impl PartialEq for ProgramSection {
    fn eq(&self, other: &ProgramSection) -> bool {
        self.wire == other.wire
    }
}

/// The launch parameters as they travel: a count, then each name and its
/// encoded [`Value`]. The bytes are checked where they enter
/// ([`MobileAgent::from_bytes`]) and never change after dispatch. It
/// dereferences to the decoded list, which is built on first use, for
/// hosts that take parameters as [`Value`]s; a MAS visit never builds it.
#[derive(Debug, Clone)]
pub struct ParamsSection {
    wire: Box<[u8]>,
    decoded: OnceLock<Vec<(String, Value)>>,
}

impl ParamsSection {
    /// Encode `params`.
    fn new(params: &[(String, Value)]) -> ParamsSection {
        let mut wire = Vec::new();
        varint::write_usize(&mut wire, params.len());
        for (k, v) in params {
            varint::write_str(&mut wire, k);
            v.encode(&mut wire);
        }
        ParamsSection { wire: wire.into_boxed_slice(), decoded: OnceLock::new() }
    }

    /// Check the section at `*pos` by [`Value::decode`]'s rules without
    /// building any value, and keep its bytes.
    fn decode(input: &[u8], pos: &mut usize) -> Result<ParamsSection, AgentDecodeError> {
        let start = *pos;
        for _ in 0..read_count(input, pos)? {
            varint::read_str(input, pos)?;
            Value::skip(input, pos).map_err(|_| AgentDecodeError)?;
        }
        Ok(ParamsSection { wire: input[start..*pos].into(), decoded: OnceLock::new() })
    }

    /// The encoded value of the first parameter named `name`.
    pub fn get(&self, name: &str) -> Option<&[u8]> {
        let wire = &self.wire[..];
        let mut pos = 0;
        for _ in 0..varint::read_usize(wire, &mut pos).ok()? {
            let key = varint::read_str(wire, &mut pos).ok()?;
            let start = pos;
            Value::skip(wire, &mut pos).ok()?;
            if key == name {
                return Some(&wire[start..pos]);
            }
        }
        None
    }
}

impl Deref for ParamsSection {
    type Target = [(String, Value)];

    fn deref(&self) -> &[(String, Value)] {
        self.decoded.get_or_init(|| {
            let wire = &self.wire[..];
            let mut pos = 0;
            let n = varint::read_usize(wire, &mut pos).unwrap_or(0);
            // Checked when the section was built, so no entry stops early.
            (0..n)
                .map_while(|_| {
                    let key = varint::read_str(wire, &mut pos).ok()?.to_owned();
                    Some((key, Value::decode(wire, &mut pos).ok()?))
                })
                .collect()
        })
    }
}

impl PartialEq for ParamsSection {
    fn eq(&self, other: &ParamsSection) -> bool {
        self.wire == other.wire
    }
}

/// The results as they travel: each entry's site, key and encoded
/// [`Value`], appended by [`MobileAgent::push_result`] and decoded only by
/// [`ResultsSection::iter`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultsSection {
    count: usize,
    /// The entries, without the count that precedes them on the wire.
    wire: Vec<u8>,
}

impl ResultsSection {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if there are no entries.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Append an entry.
    pub(crate) fn push(&mut self, site: &str, key: &str, value: &Value) {
        varint::write_str(&mut self.wire, site);
        varint::write_str(&mut self.wire, key);
        value.encode(&mut self.wire);
        self.count += 1;
    }

    /// Bytes the entries take on the wire.
    pub(crate) fn wire_len(&self) -> usize {
        self.wire.len()
    }

    /// Append an entry unless that takes the entries past `cap` wire
    /// bytes; returns whether it was appended.
    pub(crate) fn push_within(&mut self, cap: usize, site: &str, key: &str, value: &Value) -> bool {
        let start = self.wire.len();
        self.push(site, key, value);
        if self.wire.len() <= cap {
            return true;
        }
        self.wire.truncate(start);
        self.count -= 1;
        false
    }

    /// The entries in order, decoded.
    pub fn iter(&self) -> impl Iterator<Item = ResultEntry> + '_ {
        let mut pos = 0;
        // Checked when the section was built, so no entry stops early.
        (0..self.count).map_while(move |_| {
            let site = varint::read_str(&self.wire, &mut pos).ok()?.to_owned();
            let key = varint::read_str(&self.wire, &mut pos).ok()?.to_owned();
            let value = Value::decode(&self.wire, &mut pos).ok()?;
            Some(ResultEntry { site, key, value })
        })
    }

    /// Check the section at `*pos` like [`ParamsSection`]'s, and keep its
    /// entries.
    fn decode(input: &[u8], pos: &mut usize) -> Result<ResultsSection, AgentDecodeError> {
        let count = read_count(input, pos)?;
        let start = *pos;
        for _ in 0..count {
            varint::read_str(input, pos)?;
            varint::read_str(input, pos)?;
            Value::skip(input, pos).map_err(|_| AgentDecodeError)?;
        }
        Ok(ResultsSection { count, wire: input[start..*pos].to_vec() })
    }

    fn write(&self, out: &mut Vec<u8>) {
        varint::write_usize(out, self.count);
        out.extend_from_slice(&self.wire);
    }
}

/// A mobile agent in flight: code + launch parameters + migrating state +
/// itinerary progress + accumulated results.
#[derive(Debug, Clone, PartialEq)]
pub struct MobileAgent {
    /// Unique id.
    pub id: AgentId,
    /// The bytecode program (the "agent class" in the paper's Java terms).
    pub program: ProgramSection,
    /// Launch parameters from the Packed Information.
    pub params: ParamsSection,
    /// Migrating VM state (globals persist across hops).
    pub state: AgentState,
    /// The itinerary.
    pub itinerary: Itinerary,
    /// Index of the next site to visit (sites before this are done).
    pub next_hop: usize,
    /// Results accumulated so far.
    pub results: ResultsSection,
    /// Node id of the origin gateway to return to.
    pub origin: u64,
    /// Fuel budget per site visit.
    pub fuel_per_hop: u64,
}

/// Serialization failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgentDecodeError;

impl std::fmt::Display for AgentDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed agent record")
    }
}

impl std::error::Error for AgentDecodeError {}

impl From<varint::VarintError> for AgentDecodeError {
    fn from(_: varint::VarintError) -> AgentDecodeError {
        AgentDecodeError
    }
}

impl From<varint::FieldError> for AgentDecodeError {
    fn from(_: varint::FieldError) -> AgentDecodeError {
        AgentDecodeError
    }
}

pub(crate) fn read_count(input: &[u8], pos: &mut usize) -> Result<usize, AgentDecodeError> {
    let n = varint::read_usize(input, pos)?;
    if n > input.len() {
        return Err(AgentDecodeError);
    }
    Ok(n)
}

impl MobileAgent {
    /// A fresh agent ready for dispatch from `origin`.
    pub fn new(
        id: AgentId,
        program: Program,
        params: Vec<(String, Value)>,
        itinerary: Itinerary,
        origin: u64,
    ) -> MobileAgent {
        MobileAgent {
            id,
            program: ProgramSection::new(program),
            params: ParamsSection::new(&params),
            state: AgentState::default(),
            itinerary,
            next_hop: 0,
            results: ResultsSection::default(),
            origin,
            fuel_per_hop: 1_000_000,
        }
    }

    /// Name of the site to visit next, if any remain.
    pub fn next_site(&self) -> Option<&str> {
        self.itinerary.sites.get(self.next_hop).map(String::as_str)
    }

    /// Itinerary finished?
    pub fn done(&self) -> bool {
        self.next_hop >= self.itinerary.sites.len()
    }

    /// Record a result entry.
    pub fn push_result(&mut self, site: &str, key: &str, value: Value) {
        self.results.push(site, key, &value);
    }

    /// Binary wire form (used for transfer messages — this is what the paper
    /// serializes as "the agent" between Aglets servers).
    pub fn to_bytes(&self) -> Vec<u8> {
        let state = self.state.to_bytes();
        let sites: usize = self.itinerary.sites.iter().map(|s| s.len() + 10).sum();
        let mut out = Vec::with_capacity(
            self.id.0.len()
                + self.program.wire.len()
                + self.params.wire.len()
                + state.len()
                + sites
                + self.results.wire.len()
                + 8 * 10,
        );
        varint::write_str(&mut out, &self.id.0);
        varint::write_bytes(&mut out, &self.program.wire);
        out.extend_from_slice(&self.params.wire);
        varint::write_bytes(&mut out, &state);
        varint::write_usize(&mut out, self.itinerary.sites.len());
        for s in &self.itinerary.sites {
            varint::write_str(&mut out, s);
        }
        varint::write_usize(&mut out, self.next_hop);
        self.results.write(&mut out);
        varint::write_u64(&mut out, self.origin);
        varint::write_u64(&mut out, self.fuel_per_hop);
        out
    }

    /// Parse the binary wire form. Every section is checked here, so a
    /// malformed transfer is rejected at intake.
    pub fn from_bytes(input: &[u8]) -> Result<MobileAgent, AgentDecodeError> {
        let mut pos = 0;
        let id = AgentId(varint::read_str(input, &mut pos)?.to_owned());
        let program = ProgramSection::decode(varint::read_bytes(input, &mut pos)?)?;
        let params = ParamsSection::decode(input, &mut pos)?;
        let state = AgentState::from_bytes(varint::read_bytes(input, &mut pos)?)
            .ok_or(AgentDecodeError)?;
        let n_sites = read_count(input, &mut pos)?;
        let mut sites = Vec::with_capacity(n_sites);
        for _ in 0..n_sites {
            sites.push(varint::read_str(input, &mut pos)?.to_owned());
        }
        let next_hop = varint::read_usize(input, &mut pos)?;
        let results = ResultsSection::decode(input, &mut pos)?;
        let origin = varint::read_u64(input, &mut pos)?;
        let fuel_per_hop = varint::read_u64(input, &mut pos)?;
        Ok(MobileAgent {
            id,
            program,
            params,
            state,
            itinerary: Itinerary { sites },
            next_hop,
            results,
            origin,
            fuel_per_hop,
        })
    }
}

/// A lightweight status snapshot of an agent (for `status` control queries
/// and the device's agent-management screen).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgentRecord {
    /// Agent id.
    pub id: AgentId,
    /// Site currently hosting the agent.
    pub site: String,
    /// Completed hops.
    pub hops_done: usize,
    /// Total hops.
    pub hops_total: usize,
    /// Instructions executed so far.
    pub instructions: u64,
}

impl AgentRecord {
    /// Serialize (for control responses).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        varint::write_str(&mut out, &self.id.0);
        varint::write_str(&mut out, &self.site);
        varint::write_usize(&mut out, self.hops_done);
        varint::write_usize(&mut out, self.hops_total);
        varint::write_u64(&mut out, self.instructions);
        out
    }

    /// Deserialize.
    pub fn from_bytes(input: &[u8]) -> Result<AgentRecord, AgentDecodeError> {
        let mut pos = 0;
        let id = AgentId(varint::read_str(input, &mut pos)?.to_owned());
        let site = varint::read_str(input, &mut pos)?.to_owned();
        let hops_done = varint::read_usize(input, &mut pos)?;
        let hops_total = varint::read_usize(input, &mut pos)?;
        let instructions = varint::read_u64(input, &mut pos)?;
        Ok(AgentRecord { id, site, hops_done, hops_total, instructions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdagent_vm::assemble;

    fn sample_agent() -> MobileAgent {
        let program = assemble(
            r#"
            .name test-agent
            param "x"
            emit "seen"
            halt
        "#,
        )
        .unwrap();
        let mut agent = MobileAgent::new(
            AgentId("ag-1".into()),
            program,
            vec![("x".into(), Value::Int(7))],
            Itinerary::new(["bank-a", "bank-b"]),
            42,
        );
        agent.state.globals.insert("visits".into(), Value::Int(1));
        agent.next_hop = 1;
        agent.push_result("bank-a", "receipt", Value::Str("r-1".into()));
        agent
    }

    #[test]
    fn roundtrip() {
        let agent = sample_agent();
        let bytes = agent.to_bytes();
        assert_eq!(MobileAgent::from_bytes(&bytes).unwrap(), agent);
    }

    #[test]
    fn sections_read_as_the_values_they_hold() {
        let agent = sample_agent();
        let mut seven = Vec::new();
        Value::Int(7).encode(&mut seven);
        assert_eq!(agent.params.get("x"), Some(&seven[..]));
        assert_eq!(agent.params.get("y"), None);
        assert_eq!(&agent.params[..], &[("x".to_owned(), Value::Int(7))]);
        assert_eq!(agent.program.name, "test-agent");
        let results: Vec<ResultEntry> = agent.results.iter().collect();
        assert_eq!(
            results,
            [ResultEntry {
                site: "bank-a".into(),
                key: "receipt".into(),
                value: Value::Str("r-1".into())
            }]
        );
    }

    #[test]
    fn truncation_fails_cleanly() {
        let bytes = sample_agent().to_bytes();
        for cut in [0, 1, bytes.len() / 4, bytes.len() / 2, bytes.len() - 1] {
            assert!(MobileAgent::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn itinerary_progress() {
        let mut agent = sample_agent();
        assert_eq!(agent.next_site(), Some("bank-b"));
        assert!(!agent.done());
        agent.next_hop = 2;
        assert_eq!(agent.next_site(), None);
        assert!(agent.done());
    }

    #[test]
    fn empty_itinerary_is_done() {
        let agent = MobileAgent::new(
            AgentId("a".into()),
            Program::default(),
            vec![],
            Itinerary::default(),
            0,
        );
        assert!(agent.done());
        assert!(agent.itinerary.is_empty());
    }

    #[test]
    fn record_roundtrip() {
        let rec = AgentRecord {
            id: AgentId("ag-9".into()),
            site: "bank-b".into(),
            hops_done: 1,
            hops_total: 3,
            instructions: 12345,
        };
        assert_eq!(AgentRecord::from_bytes(&rec.to_bytes()).unwrap(), rec);
    }

    #[test]
    fn results_accumulate() {
        let mut agent = sample_agent();
        agent.push_result("bank-b", "receipt", Value::Str("r-2".into()));
        assert_eq!(agent.results.len(), 2);
        assert_eq!(agent.results.iter().nth(1).unwrap().site, "bank-b");
    }
}
