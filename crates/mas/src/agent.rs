//! The migrating agent record and its wire serialization.

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

/// A mobile agent in flight: code + launch parameters + migrating state +
/// itinerary progress + accumulated results.
#[derive(Debug, Clone, PartialEq)]
pub struct MobileAgent {
    /// Unique id.
    pub id: AgentId,
    /// The bytecode program (the "agent class" in the paper's Java terms).
    pub program: Program,
    /// Launch parameters from the Packed Information.
    pub params: Vec<(String, Value)>,
    /// Migrating VM state (globals persist across hops).
    pub state: AgentState,
    /// The itinerary.
    pub itinerary: Itinerary,
    /// Index of the next site to visit (sites before this are done).
    pub next_hop: usize,
    /// Results accumulated so far.
    pub results: Vec<ResultEntry>,
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

fn read_count(input: &[u8], pos: &mut usize) -> Result<usize, AgentDecodeError> {
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
            program,
            params,
            state: AgentState::default(),
            itinerary,
            next_hop: 0,
            results: Vec::new(),
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
        self.results.push(ResultEntry {
            site: site.to_owned(),
            key: key.to_owned(),
            value,
        });
    }

    /// Binary wire form (used for transfer messages — this is what the paper
    /// serializes as "the agent" between Aglets servers).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        varint::write_str(&mut out, &self.id.0);
        varint::write_bytes(&mut out, &self.program.to_bytes());
        varint::write_usize(&mut out, self.params.len());
        for (k, v) in &self.params {
            varint::write_str(&mut out, k);
            v.encode(&mut out);
        }
        varint::write_bytes(&mut out, &self.state.to_bytes());
        varint::write_usize(&mut out, self.itinerary.sites.len());
        for s in &self.itinerary.sites {
            varint::write_str(&mut out, s);
        }
        varint::write_usize(&mut out, self.next_hop);
        varint::write_usize(&mut out, self.results.len());
        for r in &self.results {
            varint::write_str(&mut out, &r.site);
            varint::write_str(&mut out, &r.key);
            r.value.encode(&mut out);
        }
        varint::write_u64(&mut out, self.origin);
        varint::write_u64(&mut out, self.fuel_per_hop);
        out
    }

    /// Parse the binary wire form.
    pub fn from_bytes(input: &[u8]) -> Result<MobileAgent, AgentDecodeError> {
        let mut pos = 0;
        let id = AgentId(varint::read_str(input, &mut pos)?.to_owned());
        let program = Program::from_bytes(varint::read_bytes(input, &mut pos)?)
            .map_err(|_| AgentDecodeError)?;
        let n_params = read_count(input, &mut pos)?;
        let mut params = Vec::with_capacity(n_params);
        for _ in 0..n_params {
            let k = varint::read_str(input, &mut pos)?.to_owned();
            let v = Value::decode(input, &mut pos).map_err(|_| AgentDecodeError)?;
            params.push((k, v));
        }
        let state = AgentState::from_bytes(varint::read_bytes(input, &mut pos)?)
            .ok_or(AgentDecodeError)?;
        let n_sites = read_count(input, &mut pos)?;
        let mut sites = Vec::with_capacity(n_sites);
        for _ in 0..n_sites {
            sites.push(varint::read_str(input, &mut pos)?.to_owned());
        }
        let next_hop = varint::read_usize(input, &mut pos)?;
        let n_results = read_count(input, &mut pos)?;
        let mut results = Vec::with_capacity(n_results);
        for _ in 0..n_results {
            let site = varint::read_str(input, &mut pos)?.to_owned();
            let key = varint::read_str(input, &mut pos)?.to_owned();
            let value = Value::decode(input, &mut pos).map_err(|_| AgentDecodeError)?;
            results.push(ResultEntry { site, key, value });
        }
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
        assert_eq!(agent.results[1].site, "bank-b");
    }
}
