//! The sharded simulation engine.
//!
//! [`ShardedSim`] runs one simulator per *shard* (a cell of devices plus
//! their serving gateway and sites) and bridges the few cross-shard messages
//! through a deterministic epoch-based exchange. The caller's thread steps
//! every shard in index order: epochs are one WAN lookahead (50 ms of
//! simulated time) wide and most hold work for only one shard, so stepping
//! shards on parallel workers does not pay (EXPERIMENTS.md §SOAK). Sharding
//! is here for what it proves — partition invariance — not for speed.
//!
//! ## Epoch exchange
//!
//! Cross-shard neighbours appear in each simulator as *remote placeholders*
//! ([`Simulator::add_remote`]): real links, no state machine. A send to one
//! runs the full link model locally (the sending side owns that direction's
//! serialization queue and RNG stream, so it alone decides the arrival time)
//! and lands in the shard's outbox instead of its event queue. The engine
//! loop is:
//!
//! 1. drain all outboxes, sort the messages by `(arrival, from, to)`, and
//!    inject each into its destination shard at its already-decided arrival
//!    time ([`Simulator::inject_at`]);
//! 2. pick the epoch deadline `D = min(next event time over shards) + L`,
//!    where the *lookahead* `L` is the minimum base latency of any
//!    cross-shard link (stop when every queue is empty);
//! 3. step every shard to `D` ([`Simulator::run_until`]).
//!
//! A message sent at `t ≥ min-next-event` arrives no earlier than
//! `t + L + serialization > D`, so step 1 always injects into the
//! destination's future: no shard ever has to roll back, and the exchange
//! order cannot influence results. Combined with per-direction link RNG
//! streams keyed by stable node *labels* (see [`pdagent_net::link::Topology`])
//! the whole run is a pure function of seed + labels: an `N`-shard run is
//! byte-identical to the 1-shard run of the same topology.
//!
//! ## What the builder must guarantee
//!
//! * Every node carries a globally unique label, identical across
//!   partitionings ([`Simulator::set_label`]).
//! * Both endpoints of a cross-shard link install the link with the same
//!   [`LinkSpec`](pdagent_net::link::LinkSpec): the owner side links
//!   `local ↔ placeholder`, the other side mirrors it.
//! * Cross-shard links have base latency ≥ the engine's `lookahead`, and
//!   nonzero serialization time (so arrivals are strictly inside the next
//!   epoch and ties across shards cannot occur).

use std::collections::HashMap;

use pdagent_net::sim::{NodeId, Outbound, Simulator};
use pdagent_net::time::SimDuration;

/// One simulator per shard plus the cross-shard message bridge.
pub struct ShardedSim {
    shards: Vec<Simulator>,
    /// `label → (shard index, local node id)` for every exported node.
    owners: HashMap<u64, (usize, NodeId)>,
    lookahead: SimDuration,
    epochs: u64,
}

impl ShardedSim {
    /// Wrap a set of per-shard simulators. `lookahead` must be ≤ the base
    /// latency of every cross-shard link.
    pub fn new(shards: Vec<Simulator>, lookahead: SimDuration) -> ShardedSim {
        assert!(!shards.is_empty(), "at least one shard");
        assert!(lookahead > SimDuration::ZERO, "lookahead must be positive");
        ShardedSim { shards, owners: HashMap::new(), lookahead, epochs: 0 }
    }

    /// Declare that the node `local` of shard `shard` is addressable from
    /// other shards (some other shard holds a placeholder with its label).
    pub fn export(&mut self, shard: usize, local: NodeId) {
        let label = self.shards[shard].label(local);
        let prev = self.owners.insert(label, (shard, local));
        assert!(prev.is_none(), "label {label} exported twice");
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// A shard's simulator.
    pub fn shard(&self, i: usize) -> &Simulator {
        &self.shards[i]
    }

    /// Epoch rounds executed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Total events processed across all shards.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(Simulator::events_processed).sum()
    }

    /// Largest event-queue high-water mark over the shards.
    pub fn peak_queue_depth(&self) -> usize {
        self.shards.iter().map(Simulator::peak_queue_depth).max().unwrap_or(0)
    }

    /// Run every shard until all event queues drain and no cross-shard
    /// message is in flight.
    pub fn run_until_idle(&mut self) {
        self.run_until_idle_with(&mut |_, _| {});
    }

    /// Like [`ShardedSim::run_until_idle`], but invokes `on_epoch` at every
    /// epoch barrier with the epoch number (from 1 within this call) and the
    /// shards — the hook the chaos suite uses to evaluate invariants on live
    /// counters mid-run. Called after the message exchange and the horizon
    /// computation, before the shards step to the new deadline.
    pub fn run_until_idle_with(&mut self, on_epoch: &mut dyn FnMut(u64, &[Simulator])) {
        for s in &mut self.shards {
            s.ensure_started();
        }
        let first = self.epochs;
        loop {
            // Drain every outbox and inject each message into its destination
            // shard at the arrival time the sending shard already decided.
            // The sort key makes the injection (and thus seq-number) order a
            // pure function of the messages themselves, not of shard order.
            let mut pending: Vec<Outbound> =
                self.shards.iter_mut().flat_map(Simulator::take_outbox).collect();
            pending.sort_by(|a, b| {
                (a.at, a.from_label, a.to_label).cmp(&(b.at, b.from_label, b.to_label))
            });
            for o in pending {
                let &(si, to) = self
                    .owners
                    .get(&o.to_label)
                    .unwrap_or_else(|| panic!("label {} not exported", o.to_label));
                let dest = &mut self.shards[si];
                let from = dest.remote_id(o.from_label).unwrap_or_else(|| {
                    panic!("shard {si} has no placeholder for label {}", o.from_label)
                });
                dest.inject_at(to, from, o.msg, o.at);
            }
            // `next_event_time` takes `&mut self` since the timer wheel
            // settles (advances cursors, cascades buckets, discards
            // tombstones) to find its true head; settling never changes
            // which event fires next, so the epoch horizon is unchanged.
            let Some(next) = self.shards.iter_mut().filter_map(|s| s.next_event_time()).min()
            else {
                break;
            };
            self.epochs += 1;
            on_epoch(self.epochs - first, &self.shards);
            let deadline = next + self.lookahead;
            for s in &mut self.shards {
                s.run_until(deadline);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdagent_net::link::LinkSpec;
    use pdagent_net::message::Message;
    use pdagent_net::sim::{Ctx, Node};
    use pdagent_net::time::SimTime;

    /// Echoes every "ping" back as "pong".
    struct Echo;
    impl Node for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
            if msg.kind == "ping" {
                ctx.send(from, Message::new("pong", msg.body));
            }
        }
    }

    /// Fires `count` pings at 200ms intervals, logs pong arrival times.
    struct Caller {
        peer: NodeId,
        count: u32,
        sent: u32,
        pongs: Vec<SimTime>,
    }
    impl Node for Caller {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::ZERO, 0);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
            if msg.kind == "pong" {
                self.pongs.push(ctx.now());
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
            if self.sent < self.count {
                self.sent += 1;
                ctx.send(self.peer, Message::new("ping", vec![0u8; 64]));
                ctx.set_timer(SimDuration::from_millis(200), 0);
            }
        }
    }

    const CALLER_A: u64 = 10;
    const ECHO_A: u64 = 11;
    const CALLER_B: u64 = 20;
    const ECHO_B: u64 = 21;

    /// Two cells; each cell's caller pings the *other* cell's echo across a
    /// WAN link, plus a local echo chatting over GPRS for in-shard noise.
    fn single(seed: u64) -> Vec<Vec<SimTime>> {
        let mut sim = Simulator::new(seed);
        let caller_a = sim.add_node(Box::new(Caller { peer: 0, count: 5, sent: 0, pongs: vec![] }));
        let echo_a = sim.add_node(Box::new(Echo));
        let caller_b = sim.add_node(Box::new(Caller { peer: 0, count: 5, sent: 0, pongs: vec![] }));
        let echo_b = sim.add_node(Box::new(Echo));
        for (id, label) in [(caller_a, CALLER_A), (echo_a, ECHO_A), (caller_b, CALLER_B), (echo_b, ECHO_B)] {
            sim.set_label(id, label);
        }
        sim.node_mut::<Caller>(caller_a).unwrap().peer = echo_b;
        sim.node_mut::<Caller>(caller_b).unwrap().peer = echo_a;
        sim.connect(caller_a, echo_b, LinkSpec::wan_backbone());
        sim.connect(caller_b, echo_a, LinkSpec::wan_backbone());
        sim.connect(caller_a, echo_a, LinkSpec::wireless_gprs());
        sim.connect(caller_b, echo_b, LinkSpec::wireless_gprs());
        sim.run_until_idle();
        vec![
            sim.node_ref::<Caller>(caller_a).unwrap().pongs.clone(),
            sim.node_ref::<Caller>(caller_b).unwrap().pongs.clone(),
        ]
    }

    fn sharded(seed: u64) -> (Vec<Vec<SimTime>>, ShardedSim) {
        sharded_with(seed, &mut |_, _| {})
    }

    fn sharded_with(
        seed: u64,
        on_epoch: &mut dyn FnMut(u64, &[Simulator]),
    ) -> (Vec<Vec<SimTime>>, ShardedSim) {
        // Shard RNG seeds don't matter for link draws (the topology seed
        // does), but keep them equal to the single-sim seed anyway.
        let build_cell = |caller_label: u64, echo_label: u64, far_echo: u64, far_caller: u64| {
            let mut sim = Simulator::new(seed);
            // Match the single-sim topology seed so per-link streams agree.
            let caller =
                sim.add_node(Box::new(Caller { peer: 0, count: 5, sent: 0, pongs: vec![] }));
            let echo = sim.add_node(Box::new(Echo));
            let remote_echo = sim.add_remote(far_echo);
            let remote_caller = sim.add_remote(far_caller);
            sim.set_label(caller, caller_label);
            sim.set_label(echo, echo_label);
            sim.node_mut::<Caller>(caller).unwrap().peer = remote_echo;
            sim.connect(caller, remote_echo, LinkSpec::wan_backbone());
            sim.connect(echo, remote_caller, LinkSpec::wan_backbone());
            sim.connect(caller, echo, LinkSpec::wireless_gprs());
            (sim, caller, echo)
        };
        let (shard_a, caller_a, echo_a) = build_cell(CALLER_A, ECHO_A, ECHO_B, CALLER_B);
        let (shard_b, caller_b, echo_b) = build_cell(CALLER_B, ECHO_B, ECHO_A, CALLER_A);
        let mut engine = ShardedSim::new(vec![shard_a, shard_b], SimDuration::from_millis(50));
        engine.export(0, caller_a);
        engine.export(0, echo_a);
        engine.export(1, caller_b);
        engine.export(1, echo_b);
        engine.run_until_idle_with(on_epoch);
        let pongs = vec![
            engine.shard(0).node_ref::<Caller>(caller_a).unwrap().pongs.clone(),
            engine.shard(1).node_ref::<Caller>(caller_b).unwrap().pongs.clone(),
        ];
        (pongs, engine)
    }

    #[test]
    fn two_shards_match_single_simulator_exactly() {
        for seed in [1u64, 7, 42] {
            let mono = single(seed);
            let (split, engine) = sharded(seed);
            assert_eq!(mono, split, "seed {seed}");
            assert!(engine.epochs() > 1, "expected multiple epochs");
        }
    }

    #[test]
    fn shard_accessors_report_progress() {
        let (_, engine) = sharded(3);
        assert_eq!(engine.shard_count(), 2);
        assert!(engine.events_processed() > 0);
        assert!(engine.peak_queue_depth() > 0);
    }

    #[test]
    fn epoch_hook_runs_once_per_epoch_over_every_shard() {
        let mut seen: Vec<(u64, usize)> = Vec::new();
        let (_, engine) = sharded_with(5, &mut |epoch, shards| seen.push((epoch, shards.len())));
        assert!(engine.epochs() > 1, "expected multiple epochs");
        let expected: Vec<(u64, usize)> =
            (1..=engine.epochs()).map(|e| (e, engine.shard_count())).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    #[should_panic(expected = "not exported")]
    fn unexported_destination_panics() {
        let mut sim = Simulator::new(1);
        let caller =
            sim.add_node(Box::new(Caller { peer: 0, count: 1, sent: 0, pongs: vec![] }));
        let far = sim.add_remote(99);
        sim.node_mut::<Caller>(caller).unwrap().peer = far;
        sim.connect(caller, far, LinkSpec::wan_backbone());
        let mut engine = ShardedSim::new(vec![sim], SimDuration::from_millis(50));
        engine.run_until_idle();
    }
}
