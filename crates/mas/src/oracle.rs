//! Differential oracle: the eager agent codec the sectioned one replaced.
//!
//! [`EagerAgent`] decodes every section of a transfer into owned values and
//! encodes every one of them again, and its visit hands the launch
//! parameters to the VM as [`Value`]s through [`Host::param`]. It is slow
//! and obviously faithful to the wire format, which makes it the reference
//! [`MobileAgent`] must match: the same bytes from the same agent, the same
//! agent from the same bytes (and the same rejections), and the same bytes
//! after a hop.

use std::collections::HashMap;

use pdagent_codec::varint;
use pdagent_vm::{run, AgentState, Host, Outcome, Program, Value};

use crate::agent::{read_count, AgentDecodeError, AgentId, Itinerary, MobileAgent, ResultEntry};
use crate::server::{RESULT_BUDGET_EXCEEDED, VISIT_RESULT_BUDGET};
use crate::service::Service;

/// A mobile agent with every section decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct EagerAgent {
    pub id: AgentId,
    pub program: Program,
    pub params: Vec<(String, Value)>,
    pub state: AgentState,
    pub itinerary: Itinerary,
    pub next_hop: usize,
    pub results: Vec<ResultEntry>,
    pub origin: u64,
    pub fuel_per_hop: u64,
}

impl EagerAgent {
    /// `agent` with its sections decoded.
    pub fn of(agent: &MobileAgent) -> EagerAgent {
        EagerAgent {
            id: agent.id.clone(),
            program: (*agent.program).clone(),
            params: agent.params.to_vec(),
            state: agent.state.clone(),
            itinerary: agent.itinerary.clone(),
            next_hop: agent.next_hop,
            results: agent.results.iter().collect(),
            origin: agent.origin,
            fuel_per_hop: agent.fuel_per_hop,
        }
    }

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

    pub fn from_bytes(input: &[u8]) -> Result<EagerAgent, AgentDecodeError> {
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
        let state =
            AgentState::from_bytes(varint::read_bytes(input, &mut pos)?).ok_or(AgentDecodeError)?;
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
        Ok(EagerAgent {
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

    /// The visit [`crate::server::run_visit`] makes, with the parameters
    /// handed over as values and the emitted entries appended after the run.
    pub fn visit(&mut self, site: &str, services: &mut HashMap<String, Box<dyn Service>>) {
        let mut host = EagerHost {
            services,
            params: &self.params,
            emitted: Vec::new(),
            emitted_bytes: 0,
            over_budget: false,
            abort_requested: false,
            site,
            hops_done: self.next_hop,
            hops_total: self.itinerary.len(),
        };
        let outcome = run(&self.program, &mut self.state, &mut host, self.fuel_per_hop);
        let (abort, over_budget) = (host.abort_requested, host.over_budget);
        for (key, value) in host.emitted {
            self.results.push(ResultEntry { site: site.to_owned(), key, value });
        }
        let error = match outcome {
            _ if over_budget => Some(RESULT_BUDGET_EXCEEDED.to_owned()),
            Outcome::Completed => None,
            Outcome::Failed(msg) => Some(msg),
            Outcome::OutOfFuel => Some("out of fuel".to_owned()),
            Outcome::Trapped(e) => Some(e.to_string()),
        };
        let ended = abort || error.is_some();
        if let Some(msg) = error {
            self.results.push(ResultEntry {
                site: site.to_owned(),
                key: "error".to_owned(),
                value: Value::Str(msg),
            });
        }
        self.next_hop = if ended { self.itinerary.len() } else { self.next_hop + 1 };
    }
}

struct EagerHost<'a> {
    services: &'a mut HashMap<String, Box<dyn Service>>,
    params: &'a [(String, Value)],
    emitted: Vec<(String, Value)>,
    /// Wire bytes of `emitted`, each entry encoded on its own.
    emitted_bytes: usize,
    over_budget: bool,
    abort_requested: bool,
    site: &'a str,
    hops_done: usize,
    hops_total: usize,
}

impl Host for EagerHost<'_> {
    fn invoke(&mut self, service: &str, op: &str, args: &[Value]) -> Result<Value, String> {
        if service == "agent" {
            return match op {
                "abort" => {
                    self.abort_requested = true;
                    Ok(Value::Bool(true))
                }
                "hops_done" => Ok(Value::Int(self.hops_done as i64)),
                "hops_total" => Ok(Value::Int(self.hops_total as i64)),
                other => Err(format!("agent: unknown operation {other:?}")),
            };
        }
        match self.services.get_mut(service) {
            Some(svc) => svc.invoke(op, args),
            None => Err(format!("site {} has no service {service:?}", self.site)),
        }
    }

    fn param(&self, name: &str) -> Option<Value> {
        self.params.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
    }

    fn emit(&mut self, key: &str, value: Value) {
        let mut entry = Vec::new();
        varint::write_str(&mut entry, self.site);
        varint::write_str(&mut entry, key);
        value.encode(&mut entry);
        self.over_budget |= self.emitted_bytes + entry.len() > VISIT_RESULT_BUDGET;
        if !self.over_budget {
            self.emitted_bytes += entry.len();
            self.emitted.push((key.to_owned(), value));
        }
    }

    fn site_name(&self) -> &str {
        self.site
    }
}

#[cfg(test)]
mod tests {
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    use super::*;
    use crate::server::run_visit;
    use crate::service::{EchoService, KvService};
    use pdagent_vm::assemble;

    /// Agents a visit runs: one reads, emits and stores its parameters and
    /// calls services; the others fail, trap, abort and run out of fuel.
    const PROGRAMS: [&str; 5] = [
        r#"
        .name params
        param "a"
        emit "a"
        param "b"
        dup
        gstore "b"
        emit "b"
        param "missing"
        emit "missing"
        site
        invoke "echo" "visit" 1
        emit "visited"
        push "k"
        param "a"
        invoke "kv" "put" 2
        pop
        invoke "kv" "len" 0
        emit "kv"
        halt
        "#,
        ".name fails\nparam \"a\"\nemit \"a\"\nfail \"declined\"\n",
        ".name traps\npush 1\npush \"x\"\nsub\nhalt\n",
        ".name aborts\ninvoke \"agent\" \"hops_done\" 0\nemit \"done\"\ninvoke \"agent\" \"abort\" 0\nhalt\n",
        ".name spins\nloop:\nparam \"a\"\npop\njmp loop\n",
    ];

    fn leaf() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Nil),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            "\\PC{0,6}".prop_map(Value::Str),
        ]
    }

    fn value() -> impl Strategy<Value = Value> {
        leaf().prop_recursive(2, 12, 3, |inner| pvec(inner, 0..4).prop_map(Value::List))
    }

    type Parts = (
        (String, usize, Vec<(String, Value)>, Vec<(String, Value)>),
        (Vec<String>, usize, Vec<(String, String, Value)>, u64, u8),
    );

    fn parts() -> impl Strategy<Value = Parts> {
        (
            (
                "[a-z0-9@-]{1,12}",
                0usize..PROGRAMS.len(),
                pvec(("[abc]", value()), 0..4),
                pvec(("[bgx]", value()), 0..3),
            ),
            (
                pvec("s[0-3]", 0..4),
                0usize..5,
                pvec(("s[0-3]", "[a-z]{1,6}", value()), 0..4),
                any::<u64>(),
                0u8..4,
            ),
        )
    }

    fn agent(parts: Parts) -> MobileAgent {
        let ((id, program, params, globals), (sites, next_hop, results, origin, fuel)) = parts;
        let mut agent = MobileAgent::new(
            AgentId(id),
            assemble(PROGRAMS[program]).unwrap(),
            params,
            Itinerary::new(sites),
            origin,
        );
        agent.state.globals.extend(globals);
        agent.state.instructions = origin % 1000;
        agent.next_hop = next_hop;
        for (site, key, value) in results {
            agent.push_result(&site, &key, value);
        }
        agent.fuel_per_hop = [0, 3, 50, 5_000][fuel as usize];
        agent
    }

    fn services() -> HashMap<String, Box<dyn Service>> {
        let mut services: HashMap<String, Box<dyn Service>> = HashMap::new();
        services.insert("echo".into(), Box::new(EchoService));
        services.insert("kv".into(), Box::new(KvService::new()));
        services
    }

    #[test]
    fn a_visit_that_floods_its_results_ends_at_the_budget() {
        // Each emit appends the 1 KB parameter: the 64th passes the budget.
        let program = ".name floods\nloop:\nparam \"a\"\nemit \"a\"\njmp loop\n";
        let mut agent = MobileAgent::new(
            AgentId("ag-1".into()),
            assemble(program).unwrap(),
            vec![("a".into(), Value::Str("Q".repeat(1024)))],
            Itinerary::new(["s0", "s1"]),
            0,
        );
        agent.push_result("s9", "earlier", Value::Int(1));
        let before = agent.results.wire_len();
        let bytes = agent.to_bytes();
        let mut slow = EagerAgent::from_bytes(&bytes).unwrap();
        let visit = run_visit("s0", &mut services(), &mut agent);
        slow.visit("s0", &mut services());
        assert!(visit.over_budget);
        assert_eq!(agent.to_bytes(), slow.to_bytes());
        assert_eq!(agent.results.len(), 1 + 63 + 1);
        let last = agent.results.iter().last().unwrap();
        assert_eq!((last.key.as_str(), last.value), ("error", Value::Str(RESULT_BUDGET_EXCEEDED.into())));
        assert!(agent.results.wire_len() - before <= VISIT_RESULT_BUDGET + 64);
        assert!(agent.done());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn encoding_is_the_oracles(parts in parts()) {
            let agent = agent(parts);
            prop_assert_eq!(agent.to_bytes(), EagerAgent::of(&agent).to_bytes());
        }

        /// On the agent's bytes, cut short or with one byte replaced, both
        /// decoders accept or reject together, and accept the same agent.
        #[test]
        fn decoding_is_the_oracles(
            parts in parts(),
            mode in 0u8..3,
            at in any::<u16>(),
            byte in any::<u8>(),
        ) {
            let mut bytes = agent(parts).to_bytes();
            match mode {
                1 => bytes.truncate(at as usize % (bytes.len() + 1)),
                2 => {
                    let k = at as usize % bytes.len();
                    bytes[k] = byte;
                }
                _ => {}
            }
            let fast = MobileAgent::from_bytes(&bytes);
            let slow = EagerAgent::from_bytes(&bytes);
            prop_assert_eq!(fast.as_ref().map(EagerAgent::of).map_err(|&e| e), slow);
            if mode == 0 {
                prop_assert_eq!(fast.unwrap().to_bytes(), bytes);
            }
        }

        /// One hop, decode → visit → encode, emits the oracle's bytes.
        #[test]
        fn a_hop_emits_the_oracles_bytes(parts in parts()) {
            let bytes = agent(parts).to_bytes();
            let mut fast = MobileAgent::from_bytes(&bytes).unwrap();
            let mut slow = EagerAgent::from_bytes(&bytes).unwrap();
            let site = fast.next_site().unwrap_or("s0").to_owned();
            run_visit(&site, &mut services(), &mut fast);
            slow.visit(&site, &mut services());
            prop_assert_eq!(fast.to_bytes(), slow.to_bytes());
        }
    }
}
