//! [`BatchMasNode`]: a *second, independently engineered* mobile-agent
//! server that speaks the same transfer protocol as [`crate::MasNode`].
//!
//! The paper's central interoperability claim is that PDAgent "supports the
//! adoption of any kind of mobile agent system at the network host" — in
//! their prototype IBM Aglets, but "any mobile agent system can be used".
//! This type is the reproduction's proof of that: a MAS with a completely
//! different execution discipline (arrivals are queued and executed in
//! periodic batches, the way cron-driven or thread-pool-per-tick servers
//! behave, instead of [`crate::MasNode`]'s per-arrival scheduling),
//! fire-and-forget forwarding instead of [`crate::MasNode`]'s acked
//! [`crate::transfer::TransferSender`] (it relies on the *sender's* retry),
//! and its own CPU model — yet agents flow through itineraries that mix both
//! server kinds because both speak the wire contract (`mas.transfer`/
//! `mas.ack`/`mas.complete` + the agent serialization). Arrivals enter
//! through the intake both kinds share, [`crate::transfer::receive`]
//! (decode, ack, drop a duplicate, open the `itinerary.hop` span).

use std::collections::HashMap;
use std::collections::VecDeque;

use pdagent_net::prelude::*;
use pdagent_vm::Value;

use crate::agent::MobileAgent;
use crate::server::{run_visit, SiteDirectory};
use crate::service::Service;
use crate::transfer;
use crate::{KIND_COMPLETE, KIND_TRANSFER};

const TAG_TICK: u64 = 1;
/// How often the batch executor wakes up.
const TICK: SimDuration = SimDuration::from_millis(50);
/// Per-agent execution cost charged at batch time.
const EXEC_COST: SimDuration = SimDuration::from_millis(8);

/// The batch-scheduled mobile agent server.
pub struct BatchMasNode {
    site_name: String,
    directory: SiteDirectory,
    services: HashMap<String, Box<dyn Service>>,
    /// Queued agents with their journey context and open `itinerary.hop`
    /// span (carried beside the agent — the wire format stays shared with
    /// [`crate::MasNode`]).
    queue: VecDeque<(MobileAgent, ObsContext, u32)>,
    /// Agents executed (for reporting).
    pub executed: u64,
    /// Whether a tick timer is currently armed (the executor sleeps when
    /// the queue is empty, so an idle simulation can drain).
    tick_armed: bool,
}

impl BatchMasNode {
    /// A batch MAS for `site_name` ticking every 50 ms.
    pub fn new(site_name: impl Into<String>, directory: SiteDirectory) -> BatchMasNode {
        BatchMasNode {
            site_name: site_name.into(),
            directory,
            services: HashMap::new(),
            queue: VecDeque::new(),
            executed: 0,
            tick_armed: false,
        }
    }

    fn arm_tick(&mut self, ctx: &mut Ctx<'_>, delay: SimDuration) {
        if !self.tick_armed {
            self.tick_armed = true;
            ctx.set_timer(delay, TAG_TICK);
        }
    }

    /// Register a service agent.
    pub fn register_service(&mut self, name: impl Into<String>, service: Box<dyn Service>) {
        self.services.insert(name.into(), service);
    }

    fn run_one(&mut self, ctx: &mut Ctx<'_>, mut agent: MobileAgent, jctx: ObsContext, hop: u32) {
        if agent.next_site() == Some(self.site_name.as_str()) {
            let visit = run_visit(&self.site_name, &mut self.services, &mut agent);
            self.executed += 1;
            ctx.metrics().bump("batchmas.agents_executed", 1.0);
            if visit.over_budget {
                ctx.metrics().bump("mas.result_budget_exceeded", 1.0);
            }
        }
        // Forward (fire-and-forget: the batch server leans on the *sender's*
        // retry for reliability, a deliberately different design). Onward
        // messages carry the journey context the transfer arrived with.
        if agent.done() {
            let origin = agent.origin as NodeId;
            ctx.send(origin, Message::new(KIND_COMPLETE, agent.to_bytes()).traced(jctx));
            ctx.span_end(hop);
        } else if let Some(next) =
            agent.next_site().and_then(|s| self.directory.resolve(s))
        {
            ctx.send(next, Message::new(KIND_TRANSFER, agent.to_bytes()).traced(jctx));
            ctx.span_end(hop);
        } else {
            // Unknown next site: skip it, then try again (still resident —
            // the hop span stays open).
            let site = agent.next_site().unwrap_or("?").to_owned();
            agent.push_result(&self.site_name, "unreachable", Value::Str(site));
            agent.next_hop += 1;
            self.queue.push_back((agent, jctx, hop));
        }
    }
}

impl Node for BatchMasNode {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        if msg.kind != KIND_TRANSFER {
            return;
        }
        let resident = |id: &_| self.queue.iter().any(|(a, _, _)| a.id == *id);
        if let Some(arrival) = transfer::receive(ctx, "batchmas", from, &msg, resident) {
            // The hop span covers the queued wait for the tick — that wait
            // is the batch server's defining cost.
            self.queue.push_back(arrival);
            ctx.metrics().set_gauge("batchmas.queued_agents", self.queue.len() as f64);
            self.arm_tick(ctx, TICK);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag != TAG_TICK {
            return;
        }
        self.tick_armed = false;
        // Drain the whole queue this tick, charging EXEC_COST per agent by
        // *delaying the next tick* (the batch runner is busy).
        let batch: Vec<(MobileAgent, ObsContext, u32)> = self.queue.drain(..).collect();
        let busy = SimDuration(EXEC_COST.as_micros() * batch.len() as u64);
        for (agent, jctx, hop) in batch {
            self.run_one(ctx, agent, jctx, hop);
        }
        ctx.metrics().set_gauge("batchmas.queued_agents", self.queue.len() as f64);
        if !self.queue.is_empty() {
            self.arm_tick(ctx, TICK + busy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{AgentId, Itinerary};
    use crate::server::MasNode;
    use crate::service::EchoService;
    use pdagent_net::link::LinkSpec;
    use pdagent_net::sim::Simulator;
    use pdagent_vm::assemble;

    #[derive(Default)]
    struct StubOrigin {
        completed: Vec<MobileAgent>,
    }
    impl Node for StubOrigin {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
            if msg.kind == KIND_COMPLETE {
                self.completed.push(MobileAgent::from_bytes(&msg.body).unwrap());
            }
        }
    }

    fn tour_program() -> pdagent_vm::Program {
        assemble(
            r#"
            .name mixed-tour
            site
            invoke "echo" "visit" 1
            emit "visited"
            halt
        "#,
        )
        .unwrap()
    }

    /// An itinerary alternating between the per-arrival MAS and the batch
    /// MAS — the interoperability demonstration.
    #[test]
    fn mixed_server_kinds_complete_an_itinerary() {
        let mut sim = Simulator::new(1);
        let origin = sim.add_node(Box::<StubOrigin>::default());
        let mut directory = SiteDirectory::new();
        directory.insert("aglets-like", 1);
        directory.insert("batch-like", 2);
        directory.insert("aglets-like-2", 3);
        let mut m1 = MasNode::new("aglets-like", directory.clone());
        m1.register_service("echo", Box::new(EchoService));
        sim.add_node(Box::new(m1));
        let mut m2 = BatchMasNode::new("batch-like", directory.clone());
        m2.register_service("echo", Box::new(EchoService));
        sim.add_node(Box::new(m2));
        let mut m3 = MasNode::new("aglets-like-2", directory.clone());
        m3.register_service("echo", Box::new(EchoService));
        sim.add_node(Box::new(m3));
        for a in 0..4usize {
            for b in (a + 1)..4 {
                sim.connect(a, b, LinkSpec::lan());
            }
        }
        let agent = MobileAgent::new(
            AgentId("mixed-1".into()),
            tour_program(),
            vec![],
            Itinerary::new(["aglets-like", "batch-like", "aglets-like-2"]),
            origin as u64,
        );
        sim.inject(1, origin, Message::new(KIND_TRANSFER, agent.to_bytes()), SimDuration::ZERO);
        sim.run_until_idle();
        let done = &sim.node_ref::<StubOrigin>(origin).unwrap().completed;
        assert_eq!(done.len(), 1);
        let sites: Vec<String> =
            done[0].results.iter().filter(|r| r.key == "visited").map(|r| r.site).collect();
        assert_eq!(sites, vec!["aglets-like", "batch-like", "aglets-like-2"]);
        // The batch server actually executed it.
        let batch = sim.node_ref::<BatchMasNode>(2).unwrap();
        assert_eq!(batch.executed, 1);
    }

    #[test]
    fn batch_server_amortizes_a_burst() {
        // Five agents arrive within one tick; all run in the same batch.
        let mut sim = Simulator::new(2);
        let origin = sim.add_node(Box::<StubOrigin>::default());
        let mut directory = SiteDirectory::new();
        directory.insert("batch", 1);
        let mut mas = BatchMasNode::new("batch", directory.clone());
        mas.register_service("echo", Box::new(EchoService));
        sim.add_node(Box::new(mas));
        sim.connect(origin, 1, LinkSpec::ideal());
        for i in 0..5 {
            let agent = MobileAgent::new(
                AgentId(format!("burst-{i}")),
                tour_program(),
                vec![],
                Itinerary::new(["batch"]),
                origin as u64,
            );
            sim.inject(
                1,
                origin,
                Message::new(KIND_TRANSFER, agent.to_bytes()),
                SimDuration::from_millis(i),
            );
        }
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<StubOrigin>(origin).unwrap().completed.len(), 5);
        assert_eq!(sim.node_ref::<BatchMasNode>(1).unwrap().executed, 5);
    }

    #[test]
    fn batch_server_dedups_retransmitted_transfers() {
        let mut sim = Simulator::new(3);
        let origin = sim.add_node(Box::<StubOrigin>::default());
        let mut directory = SiteDirectory::new();
        directory.insert("batch", 1);
        let mut mas = BatchMasNode::new("batch", directory);
        mas.register_service("echo", Box::new(EchoService));
        sim.add_node(Box::new(mas));
        sim.connect(origin, 1, LinkSpec::ideal());
        let agent = MobileAgent::new(
            AgentId("dup-1".into()),
            tour_program(),
            vec![],
            Itinerary::new(["batch"]),
            origin as u64,
        );
        // The same transfer arrives twice (sender retried before the ack).
        let body = agent.to_bytes();
        sim.inject(1, origin, Message::new(KIND_TRANSFER, body.clone()), SimDuration::ZERO);
        sim.inject(1, origin, Message::new(KIND_TRANSFER, body), SimDuration::from_millis(1));
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<StubOrigin>(origin).unwrap().completed.len(), 1);
        assert_eq!(sim.node_ref::<BatchMasNode>(1).unwrap().executed, 1);
    }
}
