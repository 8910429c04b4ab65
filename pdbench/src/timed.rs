//! In-situ timing from outside the program: a wrapper node that adds up the
//! wall-clock self time of every handler call of the node it wraps.
//!
//! [`Timed`] forwards `on_start`/`on_message`/`on_timer` unchanged and
//! charges the elapsed time to its role on the shard's [`ShardClock`]. The
//! wrapped node sees exactly the calls and the [`Ctx`] it would see bare, so
//! a traced run must reproduce the untraced results digest (checked by the
//! benchmark and its tests).
//!
//! Two roles also keep copies of the messages the replayed layer timings
//! need: a MAS keeps each agent transfer it executed together with the VM
//! instructions the hop cost (read from the node's own `mas.instructions`
//! counter around the call), and a gateway keeps each returning agent.
//! Bodies are shared `Bytes`, so a copy is a reference count.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use pdagent_mas::{KIND_COMPLETE, KIND_TRANSFER};
use pdagent_net::message::Message;
use pdagent_net::sim::{Ctx, Node, NodeId};

/// What a node is, for charging its self time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A handheld running the PDAgent platform.
    Device,
    /// A gateway or the cell's central server.
    Gateway,
    /// A bank MAS site.
    Mas,
    /// A cell SLO monitor.
    Monitor,
    /// The fleet federation scraper.
    Federation,
    /// The paging gateway and its on-call receivers.
    Paging,
    /// A chaos-plan injector.
    Chaos,
}

impl Role {
    /// Number of roles (the clock's slot count).
    pub const COUNT: usize = 7;

    /// Every role, in slot order.
    pub const ALL: [Role; Role::COUNT] = [
        Role::Device,
        Role::Gateway,
        Role::Mas,
        Role::Monitor,
        Role::Federation,
        Role::Paging,
        Role::Chaos,
    ];

    fn slot(self) -> usize {
        self as usize
    }
}

/// Cumulative self time per role of every wrapped node in one shard. The
/// epoch hook reads it between rounds to split epoch wall time into the
/// busiest shard's node time and everything else.
#[derive(Debug, Default)]
pub struct ShardClock {
    ns: [AtomicU64; Role::COUNT],
}

impl ShardClock {
    /// Self nanoseconds charged to `role` so far.
    pub fn role_ns(&self, role: Role) -> u64 {
        self.ns[role.slot()].load(Ordering::Relaxed)
    }

    /// Self nanoseconds of every wrapped node in the shard so far.
    pub fn busy_ns(&self) -> u64 {
        self.ns.iter().map(|n| n.load(Ordering::Relaxed)).sum()
    }

    fn charge(&self, role: Role, ns: u64) {
        self.ns[role.slot()].fetch_add(ns, Ordering::Relaxed);
    }
}

/// A message body kept for replay, with the VM instructions its handling
/// executed (MAS transfers; zero for gateway completions).
#[derive(Debug, Clone)]
pub struct Kept {
    /// The wire body.
    pub body: Bytes,
    /// `mas.instructions` the handler added.
    pub instructions: u64,
}

/// A node wrapped for self-time accounting.
pub struct Timed<N> {
    /// The wrapped node.
    pub inner: N,
    role: Role,
    clock: Arc<ShardClock>,
    /// Bodies kept for replay (see the module docs).
    pub kept: Vec<Kept>,
}

impl<N: Node + 'static> Timed<N> {
    /// Wrap `inner`, charging its self time to `role` on `clock`.
    pub fn new(inner: N, role: Role, clock: Arc<ShardClock>) -> Timed<N> {
        Timed {
            inner,
            role,
            clock,
            kept: Vec::new(),
        }
    }

    fn charge(&self, started: Instant) {
        self.clock
            .charge(self.role, started.elapsed().as_nanos() as u64);
    }
}

impl<N: Node + 'static> Node for Timed<N> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let t = Instant::now();
        self.inner.on_start(ctx);
        self.charge(t);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
        let keep = match self.role {
            Role::Mas if msg.kind == KIND_TRANSFER => Some(msg.body.clone()),
            Role::Gateway if msg.kind == KIND_COMPLETE => Some(msg.body.clone()),
            _ => None,
        };
        // Counter reads stay outside the timed span: they are harness work.
        let before = keep
            .as_ref()
            .map(|_| ctx.metrics().counter("mas.instructions"));
        let t = Instant::now();
        self.inner.on_message(ctx, from, msg);
        self.charge(t);
        if let (Some(body), Some(before)) = (keep, before) {
            let instructions = (ctx.metrics().counter("mas.instructions") - before) as u64;
            // A duplicate or relayed transfer executes nothing: nothing to replay.
            if self.role == Role::Gateway || instructions > 0 {
                self.kept.push(Kept { body, instructions });
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        let t = Instant::now();
        self.inner.on_timer(ctx, tag);
        self.charge(t);
    }
}
