//! The discrete-event engine: [`Simulator`], [`Node`], [`Ctx`].
//!
//! Protocol components (the PDAgent device platform, gateways, mobile-agent
//! servers, the baseline clients and servers) are [`Node`] state machines.
//! The simulator owns the virtual clock, the event queue, the topology, the
//! RNG and the metrics registry; nodes interact with all of them through the
//! borrowed [`Ctx`] passed to every handler.
//!
//! Determinism: events are ordered by `(time, insertion sequence)`, so equal
//! timestamps resolve in a stable order and a run is a pure function of the
//! seed and setup. The ordering is implemented by the hierarchical timer
//! wheel in [`crate::queue`], which that module's tests check against a
//! reference binary heap.

use std::any::Any;
use std::collections::{HashMap, HashSet};

use crate::link::{ChaosOverlay, LinkSpec, Topology};
use crate::message::Message;
use crate::metrics::{Metrics, MetricsRegistry};
use crate::obs::{Collector, ObsEvent, ObsSummary};
use crate::queue::{TimerSlab, TimerToken, TimerWheel};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceEntry};

/// Index of a node within a simulation.
pub type NodeId = usize;

/// Boxed handler invoked on a node during event dispatch.
type NodeAction = Box<dyn FnOnce(&mut dyn Node, &mut Ctx<'_>)>;

/// Identifier of a pending timer (for cancellation). Internally a
/// generation-stamped slab token (see [`crate::queue::TimerSlab`]), so
/// cancelling is an array probe, never a hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(TimerToken);

/// Upcast helper so `dyn Node` can be downcast to concrete types after a run.
pub trait AsAny {
    /// `&self` as `&dyn Any`.
    fn as_any(&self) -> &dyn Any;
    /// `&mut self` as `&mut dyn Any`.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A protocol state machine living at one network node.
///
/// `Send` is a supertrait so a whole [`Simulator`] can move between worker
/// threads (the sharded engine parks each shard's simulator in a slot that
/// any thread of the pool may step).
pub trait Node: AsAny + Send {
    /// Called once at simulation start (time zero), in node-id order.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A message arrived from `from`.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message);

    /// A timer set with [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _tag: u64) {}
}

#[derive(Debug)]
enum EventKind {
    Start(NodeId),
    Deliver { to: NodeId, from: NodeId, msg: Message },
    Timer { node: NodeId, tag: u64, id: TimerId },
    /// One link frame of a fragmented transfer finished serializing. Only
    /// scheduled when link batching is *off* (see
    /// [`Simulator::set_link_batching`]): it exists to measure the event-queue
    /// pressure that per-fragment scheduling costs. Dispatch just bumps the
    /// sender's `link.fragments` counter — no node code runs, no RNG draws —
    /// so batched and per-fragment runs stay byte-identical in everything but
    /// event count.
    Fragment { from: NodeId },
}

/// A message bound for a node hosted by *another* shard's simulator, captured
/// at send time. The sharded engine collects these each epoch (see
/// [`Simulator::take_outbox`]) and injects them into the owning simulator with
/// [`Simulator::inject_at`]. `at` is the absolute arrival time the topology
/// already decided — the receiving simulator re-schedules, it does not re-draw.
#[derive(Debug)]
pub struct Outbound {
    /// Absolute arrival time at the destination.
    pub at: SimTime,
    /// Stable label of the sending node.
    pub from_label: u64,
    /// Stable label of the destination node.
    pub to_label: u64,
    /// The message itself.
    pub msg: Message,
}

/// The per-event view a node gets of the simulation.
pub struct Ctx<'a> {
    now: SimTime,
    self_id: NodeId,
    queue: &'a mut TimerWheel<EventKind>,
    seq: &'a mut u64,
    timers: &'a mut TimerSlab,
    topology: &'a mut Topology,
    rng: &'a mut SimRng,
    metrics: &'a mut MetricsRegistry,
    obs: &'a mut Option<Collector>,
    remote_ids: &'a HashSet<NodeId>,
    outbox: &'a mut Vec<Outbound>,
    burst_scratch: &'a mut Vec<SimDuration>,
    mtu: Option<usize>,
    batch_links: bool,
    paused: &'a mut HashSet<NodeId>,
    parked: &'a mut Vec<ParkedTimer>,
    skews: &'a mut HashMap<NodeId, f64>,
}

/// A timer that came due while its node was paused by a chaos crash
/// window: parked in dispatch order, re-fired on resume.
#[derive(Debug, Clone, Copy)]
struct ParkedTimer {
    at: SimTime,
    node: NodeId,
    tag: u64,
    id: TimerId,
}

impl Ctx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.self_id
    }

    /// The stable label of `node` (defaults to its id; sharded runs assign
    /// globally unique labels). Anything a node persists about a peer —
    /// minted ids, directory entries — should use the label, not the raw
    /// [`NodeId`], so the artifact is identical under every partitioning.
    pub fn label_of(&self, node: NodeId) -> u64 {
        self.topology.label(node)
    }

    /// The simulation RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    fn push(&mut self, time: SimTime, kind: EventKind) {
        *self.seq += 1;
        self.queue.push(time.0, *self.seq, kind);
    }

    /// Send a message to another node over the topology. Returns `true` if
    /// the link accepted it (it may still take arbitrarily long); `false` if
    /// there is no usable link or the link dropped it.
    ///
    /// Messages larger than the wire MTU (when one is set, see
    /// [`Simulator::set_wire_mtu`]) go as a fragment burst: the link decides
    /// every frame's arrival in one [`Topology::route_burst_into`] call, and —
    /// unless batching is disabled — only the *last* frame costs a heap
    /// event. The message is delivered when its final byte lands either way.
    ///
    /// If `to` is a remote placeholder (a node hosted by another shard's
    /// simulator, see [`Simulator::add_remote`]), the link model still runs
    /// here — the full delay is decided by the sending side — but the
    /// delivery is appended to the outbox instead of the local event queue.
    pub fn send(&mut self, to: NodeId, msg: Message) -> bool {
        let size = msg.wire_size();
        let me = self.metrics.node_mut(self.self_id);
        me.bytes_sent += size as u64;
        me.msgs_sent += 1;
        let delay = match self.mtu {
            Some(mtu) if size > mtu => {
                // Alloc-free burst: the link fills the simulator-owned
                // scratch buffer instead of returning a fresh Vec per send.
                if self.topology.route_burst_into(
                    self.self_id,
                    to,
                    size,
                    mtu,
                    self.now,
                    self.burst_scratch,
                ) {
                    if !self.batch_links {
                        for i in 0..self.burst_scratch.len() - 1 {
                            let frame = self.burst_scratch[i];
                            let at = self.now + frame;
                            let from = self.self_id;
                            self.push(at, EventKind::Fragment { from });
                        }
                    }
                    Some(*self.burst_scratch.last().expect("burst has at least one frame"))
                } else {
                    None
                }
            }
            _ => self.topology.route(self.self_id, to, &msg, self.now),
        };
        match delay {
            Some(delay) => {
                // The chaos layer rides on top of the base link decision:
                // extra loss / checksum discard / reorder hold-back /
                // duplication, drawn from dedicated salted streams so links
                // without an active overlay consume no randomness here.
                let verdict = self.topology.chaos_roll(self.self_id, to);
                if verdict.killed() {
                    let me = self.metrics.node_mut(self.self_id);
                    me.msgs_dropped += 1;
                    me.bump(
                        if verdict.corrupt { "chaos.corrupt_drops" } else { "chaos.loss_drops" },
                        1.0,
                    );
                    return false;
                }
                if verdict.extra_delay > SimDuration::ZERO {
                    self.metrics.node_mut(self.self_id).bump("chaos.reorders", 1.0);
                }
                let at = self.now + delay + verdict.extra_delay;
                let copy_at = verdict.duplicate.map(|extra| {
                    self.metrics.node_mut(self.self_id).bump("chaos.dups", 1.0);
                    at + extra
                });
                if self.remote_ids.contains(&to) {
                    let from_label = self.topology.label(self.self_id);
                    let to_label = self.topology.label(to);
                    if let Some(copy_at) = copy_at {
                        self.outbox.push(Outbound {
                            at: copy_at,
                            from_label,
                            to_label,
                            msg: msg.clone(),
                        });
                    }
                    self.outbox.push(Outbound { at, from_label, to_label, msg });
                } else {
                    if let Some(copy_at) = copy_at {
                        self.push(
                            copy_at,
                            EventKind::Deliver { to, from: self.self_id, msg: msg.clone() },
                        );
                    }
                    self.push(at, EventKind::Deliver { to, from: self.self_id, msg });
                }
                true
            }
            None => {
                self.metrics.node_mut(self.self_id).msgs_dropped += 1;
                false
            }
        }
    }

    /// Arm a one-shot timer after `delay`, carrying `tag` back to
    /// [`Node::on_timer`].
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let id = TimerId(self.timers.arm());
        // Clock skew (chaos fault): a skewed node's timers stretch by the
        // current factor, modeling a drifting local clock. The factor is a
        // pure function of the fault plan, so skewed runs stay replayable.
        let delay = if self.skews.is_empty() {
            delay
        } else {
            match self.skews.get(&self.self_id) {
                Some(&f) if f != 1.0 => {
                    SimDuration::from_micros((delay.as_micros() as f64 * f).round() as u64)
                }
                _ => delay,
            }
        };
        let at = self.now + delay;
        self.push(at, EventKind::Timer { node: self.self_id, tag, id });
        id
    }

    /// Cancel a pending timer. Harmless if it already fired: the slab
    /// generation no longer matches, so the call is a dead no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.timers.disarm(id.0);
    }

    /// Current event-queue depth of the hosting simulator (pending events,
    /// including tombstoned timers). Serving nodes publish this as the
    /// `sim.queue_depth` gauge in their `/metrics` exposition.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// This node's metrics.
    pub fn metrics(&mut self) -> &mut Metrics {
        self.metrics.node_mut(self.self_id)
    }

    /// This node's metrics together with the obs collector (if tracing is
    /// on) — for handlers that read stage histograms while holding their own
    /// counters, without cloning either (the delta telemetry server's
    /// observe path).
    pub fn metrics_and_obs(&mut self) -> (&mut Metrics, Option<&Collector>) {
        (self.metrics.node_mut(self.self_id), self.obs.as_ref())
    }

    /// The global scoreboard.
    pub fn global_metrics(&mut self) -> &mut Metrics {
        &mut self.metrics.global
    }

    /// Record that this node is now holding an open connection (radio up).
    pub fn connection_opened(&mut self) {
        let now = self.now;
        self.metrics().connection_opened(now);
    }

    /// Record that this node released its connection (radio down).
    pub fn connection_closed(&mut self) {
        let now = self.now;
        self.metrics().connection_closed(now);
    }

    /// Administratively raise/lower the link between two nodes (used by
    /// failure-injection scenarios and by devices modeling disconnection).
    pub fn set_link_up(&mut self, a: NodeId, b: NodeId, up: bool) {
        self.topology.set_up(a, b, up);
    }

    /// Refcounted link cut (see [`Topology::cut`]): overlapping cut windows
    /// heal at the max end time, one [`Ctx::heal_link`] per cut.
    pub fn cut_link(&mut self, a: NodeId, b: NodeId) {
        self.topology.cut(a, b);
    }

    /// Undo one [`Ctx::cut_link`].
    pub fn heal_link(&mut self, a: NodeId, b: NodeId) {
        self.topology.heal(a, b);
    }

    /// Install fault `fault`'s chaos overlay on the `a`↔`b` link (see
    /// [`crate::link::ChaosOverlay`]).
    pub fn add_link_chaos(&mut self, a: NodeId, b: NodeId, fault: u64, overlay: ChaosOverlay) {
        self.topology.add_chaos(a, b, fault, overlay);
    }

    /// Remove fault `fault`'s overlay from the `a`↔`b` link.
    pub fn remove_link_chaos(&mut self, a: NodeId, b: NodeId, fault: u64) {
        self.topology.remove_chaos(a, b, fault);
    }

    /// Pause `node` (chaos "crash" window): its deliveries are dropped at
    /// the link layer and its timers are parked until [`Ctx::resume_node`].
    /// Pausing is delivery-side, so the decision is a pure function of the
    /// fault plan and the (partition-invariant) arrival times.
    pub fn pause_node(&mut self, node: NodeId) {
        self.paused.insert(node);
    }

    /// Resume a paused node: parked timers re-fire now (in their original
    /// order), modeling the process coming back with its state intact.
    pub fn resume_node(&mut self, node: NodeId) {
        if !self.paused.remove(&node) {
            return;
        }
        let now = self.now;
        let mut due = Vec::new();
        self.parked.retain(|p| {
            if p.node == node {
                due.push(*p);
                false
            } else {
                true
            }
        });
        for p in due {
            let fire = p.at.max(now);
            *self.seq += 1;
            self.queue.push(
                fire.0,
                *self.seq,
                EventKind::Timer { node: p.node, tag: p.tag, id: p.id },
            );
        }
    }

    /// Is `node` currently paused by a chaos crash window?
    pub fn node_paused(&self, node: NodeId) -> bool {
        self.paused.contains(&node)
    }

    /// Set (or clear, with `1.0`) the clock-skew factor applied to every
    /// timer `node` arms from now on.
    pub fn set_clock_skew(&mut self, node: NodeId, factor: f64) {
        if factor == 1.0 {
            self.skews.remove(&node);
        } else {
            self.skews.insert(node, factor);
        }
    }

    /// Resolve a stable label back to the local node (or remote
    /// placeholder) carrying it, if any. Fault plans reference nodes by
    /// label so a plan means the same thing under every partitioning.
    pub fn node_by_label(&self, label: u64) -> Option<NodeId> {
        self.topology.node_by_label(label)
    }

    /// Is `node` a remote placeholder (hosted by another shard)?
    pub fn is_remote(&self, node: NodeId) -> bool {
        self.remote_ids.contains(&node)
    }

    /// Is the link between two nodes currently usable?
    pub fn link_up(&self, a: NodeId, b: NodeId) -> bool {
        self.topology.is_up(a, b)
    }

    // --- observability hooks (see crate::obs) ------------------------------
    //
    // Every hook is a branch-and-return no-op when no collector is attached:
    // no allocation, no recording, nothing on the message hot path.

    /// Is an observability collector attached to this simulation?
    pub fn obs_enabled(&self) -> bool {
        self.obs.is_some()
    }

    /// Mint a fresh trace id (a deterministic counter). Returns 0 —
    /// "untraced" — when no collector is attached.
    pub fn obs_new_trace(&mut self) -> u64 {
        match self.obs {
            Some(c) => c.new_trace(),
            None => 0,
        }
    }

    /// Open a span under `parent` in `trace`. Returns the span id, or 0
    /// (the null span) when no collector is attached or `trace` is 0.
    pub fn span_begin(&mut self, trace: u64, parent: u32, name: &'static str) -> u32 {
        self.span_begin_indexed(trace, parent, name, None)
    }

    /// [`Ctx::span_begin`] with an index (e.g. the itinerary hop number).
    pub fn span_begin_indexed(
        &mut self,
        trace: u64,
        parent: u32,
        name: &'static str,
        index: Option<u32>,
    ) -> u32 {
        let (now, node) = (self.now, self.self_id);
        match self.obs {
            Some(c) if trace != 0 => c.begin_span(trace, parent, name, index, node, now),
            _ => 0,
        }
    }

    /// Close a span at the current time. Idempotent; a no-op for the null
    /// span or without a collector.
    pub fn span_end(&mut self, span: u32) {
        let now = self.now;
        if let Some(c) = self.obs {
            c.end_span(span, now);
        }
    }

    /// Read-only view of the attached collector. Serving nodes use it to
    /// render their `/metrics` exposition (stage histograms); `None` when
    /// observability is disabled, in which case the exposition simply omits
    /// the histogram families.
    pub fn obs_collector(&self) -> Option<&Collector> {
        self.obs.as_ref()
    }

    /// Record an SLO alert transition (`fired` = AlertFired, else
    /// AlertResolved) into the collector timeline, stamped with this node's
    /// partition-stable label. Branch-and-return no-op without a collector.
    #[allow(clippy::too_many_arguments)]
    pub fn obs_alert(
        &mut self,
        rule: &str,
        instance: &str,
        fired: bool,
        value: f64,
        limit: f64,
        trace: u64,
        exemplar: u64,
    ) {
        let (at, node_label) = (self.now, self.topology.label(self.self_id));
        if let Some(c) = self.obs {
            c.record_event(ObsEvent {
                at,
                node_label,
                rule: rule.to_owned(),
                instance: instance.to_owned(),
                fired,
                value,
                limit,
                trace,
                exemplar,
            });
        }
    }
}

/// The simulation: nodes + topology + clock + event queue.
pub struct Simulator {
    nodes: Vec<Option<Box<dyn Node>>>,
    topology: Topology,
    queue: TimerWheel<EventKind>,
    time: SimTime,
    seq: u64,
    /// Timer arm/cancel/fire bookkeeping: generation-stamped slab slots. A
    /// slot is retired either by `cancel_timer` or when its event pops, so
    /// the armed count is bounded by *outstanding* timers — cancelling after
    /// the fire (or never cancelling at all) leaves nothing behind.
    timers: TimerSlab,
    rng: SimRng,
    metrics: MetricsRegistry,
    started: bool,
    events_processed: u64,
    trace: Option<Trace>,
    obs: Option<Collector>,
    /// Placeholder slots standing in for nodes hosted by other shards'
    /// simulators: `label → local placeholder id` and the reverse set.
    remotes: HashMap<u64, NodeId>,
    remote_ids: HashSet<NodeId>,
    /// Cross-shard deliveries captured at send time, drained each epoch.
    outbox: Vec<Outbound>,
    /// When set, messages larger than this fragment into MTU-byte frames.
    mtu: Option<usize>,
    /// Batched (one event per burst, default) vs per-fragment scheduling.
    batch_links: bool,
    /// Reusable arrival-offset buffer for fragment bursts (see
    /// [`Topology::route_burst_into`]); avoids a Vec per oversized send.
    burst_scratch: Vec<SimDuration>,
    /// High-water mark of the event queue, sampled per dispatch from the
    /// queue's O(1) occupancy counter.
    peak_queue: usize,
    /// Nodes currently inside a chaos crash window (see
    /// [`Ctx::pause_node`]): their deliveries drop, their timers park.
    paused: HashSet<NodeId>,
    /// Timers parked while their node was paused, in dispatch order.
    parked: Vec<ParkedTimer>,
    /// Per-node clock-skew factors (chaos fault; absent = 1.0).
    skews: HashMap<NodeId, f64>,
    /// Safety valve against runaway protocols.
    pub max_events: u64,
}

impl Simulator {
    /// New simulator with the given RNG seed.
    pub fn new(seed: u64) -> Simulator {
        let mut topology = Topology::new();
        topology.set_seed(seed);
        Simulator {
            nodes: Vec::new(),
            topology,
            queue: TimerWheel::new(),
            time: SimTime::ZERO,
            seq: 0,
            timers: TimerSlab::new(),
            rng: SimRng::new(seed),
            metrics: MetricsRegistry::new(),
            started: false,
            events_processed: 0,
            trace: None,
            obs: None,
            remotes: HashMap::new(),
            remote_ids: HashSet::new(),
            outbox: Vec::new(),
            mtu: None,
            batch_links: true,
            burst_scratch: Vec::new(),
            peak_queue: 0,
            paused: HashSet::new(),
            parked: Vec::new(),
            skews: HashMap::new(),
            max_events: 50_000_000,
        }
    }

    /// Start recording every delivered message (see [`crate::trace`]).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Trace::new());
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Attach an observability collector (spans, trace ids, latency
    /// histograms — see [`crate::obs`]). Purely observational: enabling it
    /// never changes simulation results.
    pub fn enable_obs(&mut self) {
        if self.obs.is_none() {
            self.obs = Some(Collector::new());
        }
    }

    /// The attached collector, if observability was enabled.
    pub fn obs(&self) -> Option<&Collector> {
        self.obs.as_ref()
    }

    /// Mutable access to the attached collector.
    pub fn obs_mut(&mut self) -> Option<&mut Collector> {
        self.obs.as_mut()
    }

    /// Aggregated per-stage latency digest (drops filled from the link
    /// model's counters; protocol retry counters are the caller's domain).
    pub fn obs_summary(&self) -> Option<ObsSummary> {
        let mut s = self.obs.as_ref()?.summary();
        s.drops = (0..self.nodes.len()).map(|i| self.metrics.node(i).msgs_dropped).sum();
        Some(s)
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Sum of a named [`Metrics`] counter over every node.
    pub fn counter_total(&self, key: &str) -> f64 {
        (0..self.nodes.len()).map(|i| self.metrics.node(i).counter(key)).sum()
    }

    /// Register a node; returns its id.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(Some(node));
        self.metrics.ensure(self.nodes.len());
        id
    }

    /// Register a *placeholder* for a node that lives in another shard's
    /// simulator. The slot gets no state machine and no `Start` event; local
    /// nodes address it like any neighbour, and `Ctx::send` diverts the
    /// delivery to the outbox (the link model still runs locally, so the
    /// sending side decides the full delay). Replies come back addressed
    /// *from* the placeholder via [`Simulator::inject_at`].
    pub fn add_remote(&mut self, label: u64) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(None);
        self.metrics.ensure(self.nodes.len());
        self.topology.set_label(id, label);
        self.remote_ids.insert(id);
        self.remotes.insert(label, id);
        id
    }

    /// The local placeholder id for a remote label, if one was registered.
    pub fn remote_id(&self, label: u64) -> Option<NodeId> {
        self.remotes.get(&label).copied()
    }

    /// Give `node` a stable label (see [`Topology::set_label`]). Sharded
    /// runs label every node globally-uniquely so per-link RNG streams are
    /// partition-invariant; single-simulator runs can ignore labels.
    pub fn set_label(&mut self, node: NodeId, label: u64) {
        self.topology.set_label(node, label);
    }

    /// The stable label of `node` (defaults to its id).
    pub fn label(&self, node: NodeId) -> u64 {
        self.topology.label(node)
    }

    /// Fragment messages larger than `mtu` bytes into MTU-sized link frames
    /// (`None` — the default — sends every message as one transfer).
    pub fn set_wire_mtu(&mut self, mtu: Option<usize>) {
        self.mtu = mtu;
    }

    /// Batched (default) vs per-fragment event scheduling for bursts. Both
    /// modes produce byte-identical simulation results; per-fragment exists
    /// to measure the event-queue pressure batching removes.
    pub fn set_link_batching(&mut self, batch: bool) {
        self.batch_links = batch;
    }

    /// Drain the cross-shard outbox (deliveries to remote placeholders
    /// captured since the last call).
    pub fn take_outbox(&mut self) -> Vec<Outbound> {
        std::mem::take(&mut self.outbox)
    }

    /// Are there undrained cross-shard deliveries?
    pub fn has_outbound(&self) -> bool {
        !self.outbox.is_empty()
    }

    /// Install a bidirectional link.
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        self.topology.connect(a, b, spec);
    }

    /// Raise/lower a link from outside the simulation.
    pub fn set_link_up(&mut self, a: NodeId, b: NodeId, up: bool) {
        self.topology.set_up(a, b, up);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Timers currently armed (set, not yet fired or cancelled). Bounded by
    /// live protocol state; a steadily growing value indicates a node leaking
    /// timers.
    pub fn outstanding_timers(&self) -> usize {
        self.timers.armed()
    }

    /// Immutable metrics for a node.
    pub fn metrics(&self, id: NodeId) -> &Metrics {
        self.metrics.node(id)
    }

    /// The global scoreboard.
    pub fn global_metrics(&self) -> &Metrics {
        &self.metrics.global
    }

    /// Downcast a node to its concrete type.
    pub fn node_ref<T: Any>(&self, id: NodeId) -> Option<&T> {
        self.nodes[id].as_deref().and_then(|n| n.as_any().downcast_ref::<T>())
    }

    /// Downcast a node mutably (e.g. to enqueue work between runs).
    pub fn node_mut<T: Any>(&mut self, id: NodeId) -> Option<&mut T> {
        self.nodes[id].as_deref_mut().and_then(|n| n.as_any_mut().downcast_mut::<T>())
    }

    fn schedule_starts(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for id in 0..self.nodes.len() {
            // Remote placeholders have no state machine: scheduling a Start
            // for them would both waste a dispatch and make the event count
            // differ from the single-simulator run.
            if self.remote_ids.contains(&id) {
                continue;
            }
            self.seq += 1;
            self.queue.push(self.time.0, self.seq, EventKind::Start(id));
        }
    }

    /// Schedule the `Start` events now (idempotent). The sharded engine
    /// calls this before its first epoch so [`Simulator::next_event_time`]
    /// sees the initial work.
    pub fn ensure_started(&mut self) {
        self.schedule_starts();
    }

    /// Inject a message delivery from "outside" (tests, harnesses). Arrives
    /// at `delay` from now, bypassing the topology.
    pub fn inject(&mut self, to: NodeId, from: NodeId, msg: Message, delay: SimDuration) {
        self.inject_at(to, from, msg, self.time + delay);
    }

    /// Inject a message delivery at an *absolute* time, bypassing the
    /// topology. The sharded engine uses this to re-schedule cross-shard
    /// [`Outbound`]s whose arrival time the sending shard already decided.
    /// `at` must not be earlier than any event this simulator has already
    /// processed (the epoch lookahead guarantees that for sharded runs).
    pub fn inject_at(&mut self, to: NodeId, from: NodeId, msg: Message, at: SimTime) {
        debug_assert!(at >= self.time, "injection at {at} is in this shard's past ({})", self.time);
        self.seq += 1;
        self.queue.push(at.0, self.seq, EventKind::Deliver { to, from, msg });
    }

    /// Timestamp of the earliest pending event, if any. Used by the sharded
    /// engine to pick the next epoch deadline. Takes `&mut self`: an exact
    /// answer settles the timer wheel (the queue's internal cursor advances;
    /// simulation state is untouched).
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time().map(SimTime)
    }

    /// High-water mark of the event queue so far (sampled per dispatch).
    pub fn peak_queue_depth(&self) -> usize {
        self.peak_queue
    }

    fn dispatch(&mut self, time: SimTime, kind: EventKind) {
        self.time = time;
        self.events_processed += 1;
        // +1: the event just popped was in the queue a moment ago. The
        // queue's len() is an O(1) occupancy counter and counts tombstoned
        // timers, the same accounting the reference heap has.
        self.peak_queue = self.peak_queue.max(self.queue.len() + 1);
        let (node_id, action): (NodeId, NodeAction) =
            match kind {
                EventKind::Start(id) => (id, Box::new(|n, ctx| n.on_start(ctx))),
                EventKind::Fragment { from } => {
                    self.metrics.node_mut(from).bump("link.fragments", 1.0);
                    return;
                }
                // A paused ("crashed") node loses in-flight deliveries and
                // parks its timers. Deliveries are judged at arrival time —
                // a pure function of the fault plan plus partition-invariant
                // delivery times — so the drop set is identical under every
                // sharding. Timers are always local to the owning shard.
                EventKind::Deliver { to, .. }
                    if !self.paused.is_empty() && self.paused.contains(&to) =>
                {
                    self.metrics.node_mut(to).bump("chaos.crash_drops", 1.0);
                    return;
                }
                EventKind::Timer { node, tag, id }
                    if !self.paused.is_empty() && self.paused.contains(&node) =>
                {
                    self.parked.push(ParkedTimer { at: time, node, tag, id });
                    return;
                }
                EventKind::Deliver { to, from, msg } => {
                    {
                        let m = self.metrics.node_mut(to);
                        m.bytes_received += msg.wire_size() as u64;
                        m.msgs_received += 1;
                    }
                    if let Some(trace) = &mut self.trace {
                        trace.record(TraceEntry {
                            at: time,
                            from,
                            to,
                            kind: msg.kind.clone(),
                            bytes: msg.wire_size(),
                            trace: msg.obs.trace,
                        });
                    }
                    (to, Box::new(move |n, ctx| n.on_message(ctx, from, msg)))
                }
                EventKind::Timer { node, tag, id } => {
                    // Fires only if still armed; popping always retires the
                    // slab slot, so cancelled-timer bookkeeping cannot grow
                    // without bound.
                    if !self.timers.disarm(id.0) {
                        return;
                    }
                    (node, Box::new(move |n, ctx| n.on_timer(ctx, tag)))
                }
            };
        let Some(mut node) = self.nodes[node_id].take() else {
            return;
        };
        let mut ctx = Ctx {
            now: self.time,
            self_id: node_id,
            queue: &mut self.queue,
            seq: &mut self.seq,
            timers: &mut self.timers,
            topology: &mut self.topology,
            rng: &mut self.rng,
            metrics: &mut self.metrics,
            obs: &mut self.obs,
            remote_ids: &self.remote_ids,
            outbox: &mut self.outbox,
            burst_scratch: &mut self.burst_scratch,
            mtu: self.mtu,
            batch_links: self.batch_links,
            paused: &mut self.paused,
            parked: &mut self.parked,
            skews: &mut self.skews,
        };
        action(node.as_mut(), &mut ctx);
        self.nodes[node_id] = Some(node);
    }

    /// Run until the event queue drains. Returns the final virtual time.
    ///
    /// # Panics
    /// Panics if `max_events` is exceeded (protocol livelock guard).
    pub fn run_until_idle(&mut self) -> SimTime {
        self.schedule_starts();
        while let Some((time, _seq, kind)) = self.queue.pop() {
            assert!(
                self.events_processed < self.max_events,
                "simulation exceeded {} events — livelock?",
                self.max_events
            );
            self.dispatch(SimTime(time), kind);
        }
        self.time
    }

    /// Run until virtual time reaches `deadline` (events at exactly
    /// `deadline` are processed) or the queue drains, whichever is first.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.schedule_starts();
        while let Some(next) = self.queue.peek_time() {
            if next > deadline.0 {
                break;
            }
            assert!(
                self.events_processed < self.max_events,
                "simulation exceeded {} events — livelock?",
                self.max_events
            );
            let (time, _seq, kind) = self.queue.pop().expect("peeked");
            self.dispatch(SimTime(time), kind);
        }
        if self.time < deadline {
            self.time = deadline;
        }
        self.time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Jitter;

    /// Replies to every "ping" with a "pong" carrying the same body.
    struct Ponger {
        pings_seen: u32,
    }
    impl Node for Ponger {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
            if msg.kind == "ping" {
                self.pings_seen += 1;
                ctx.send(from, Message::new("pong", msg.body));
            }
        }
    }

    /// Sends `count` pings, one per second, records pong arrival times.
    struct Pinger {
        peer: NodeId,
        count: u32,
        sent: u32,
        pongs: Vec<SimTime>,
    }
    impl Node for Pinger {
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
                ctx.send(self.peer, Message::new("ping", vec![0u8; 10]));
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
        }
    }

    fn ping_pong_sim(seed: u64, link: LinkSpec) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(seed);
        let ponger = sim.add_node(Box::new(Ponger { pings_seen: 0 }));
        let pinger =
            sim.add_node(Box::new(Pinger { peer: ponger, count: 5, sent: 0, pongs: vec![] }));
        sim.connect(pinger, ponger, link);
        (sim, pinger, ponger)
    }

    #[test]
    fn ping_pong_completes() {
        let (mut sim, pinger, ponger) = ping_pong_sim(1, LinkSpec::lan());
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<Ponger>(ponger).unwrap().pings_seen, 5);
        assert_eq!(sim.node_ref::<Pinger>(pinger).unwrap().pongs.len(), 5);
    }

    #[test]
    fn virtual_time_advances_with_latency() {
        let link = LinkSpec::ideal().with_latency(SimDuration::from_millis(100));
        let (mut sim, pinger, _) = ping_pong_sim(2, link);
        sim.run_until_idle();
        let pongs = &sim.node_ref::<Pinger>(pinger).unwrap().pongs;
        // First pong: 2 x 100ms RTT.
        assert_eq!(pongs[0], SimTime(200_000));
        // Later pings go at 1s intervals.
        assert_eq!(pongs[1], SimTime(1_200_000));
    }

    #[test]
    fn runs_are_deterministic() {
        let run = |seed| {
            let link = LinkSpec::wireless_gprs();
            let (mut sim, pinger, _) = ping_pong_sim(seed, link);
            sim.run_until_idle();
            sim.node_ref::<Pinger>(pinger).unwrap().pongs.clone()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn metrics_count_bytes_and_messages() {
        let (mut sim, pinger, ponger) = ping_pong_sim(3, LinkSpec::ideal());
        sim.run_until_idle();
        let pm = sim.metrics(pinger);
        assert_eq!(pm.msgs_sent, 5);
        assert_eq!(pm.msgs_received, 5);
        assert!(pm.bytes_sent > 0);
        let gm = sim.metrics(ponger);
        assert_eq!(gm.msgs_received, 5);
    }

    #[test]
    fn lossy_link_drops_and_counts() {
        let link = LinkSpec::ideal().with_loss(1.0);
        let (mut sim, pinger, ponger) = ping_pong_sim(4, link);
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<Ponger>(ponger).unwrap().pings_seen, 0);
        assert_eq!(sim.metrics(pinger).msgs_dropped, 5);
    }

    #[test]
    fn send_to_unconnected_node_fails() {
        struct Lonely {
            ok: bool,
        }
        impl Node for Lonely {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                self.ok = !ctx.send(999, Message::signal("void"));
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Message) {}
        }
        let mut sim = Simulator::new(5);
        let id = sim.add_node(Box::new(Lonely { ok: false }));
        sim.run_until_idle();
        assert!(sim.node_ref::<Lonely>(id).unwrap().ok);
    }

    #[test]
    fn timers_fire_in_order_and_cancel() {
        struct Timed {
            fired: Vec<u64>,
        }
        impl Node for Timed {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(30), 3);
                ctx.set_timer(SimDuration::from_millis(10), 1);
                let cancel_me = ctx.set_timer(SimDuration::from_millis(20), 2);
                ctx.cancel_timer(cancel_me);
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Message) {}
            fn on_timer(&mut self, _: &mut Ctx<'_>, tag: u64) {
                self.fired.push(tag);
            }
        }
        let mut sim = Simulator::new(6);
        let id = sim.add_node(Box::new(Timed { fired: vec![] }));
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<Timed>(id).unwrap().fired, vec![1, 3]);
        assert_eq!(sim.outstanding_timers(), 0);
    }

    #[test]
    fn timer_bookkeeping_stays_bounded() {
        // Regression: the old implementation kept a cancelled-timer set that
        // grew forever when timers were cancelled *after* firing (the common
        // ack-cancels-retransmit pattern). Now every pop purges its entry.
        struct Churner {
            rounds: u32,
            last: Option<TimerId>,
        }
        impl Node for Churner {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                self.last = Some(ctx.set_timer(SimDuration::from_millis(1), 0));
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Message) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: u64) {
                // Cancel the timer that just fired (a no-op semantically, but
                // it used to leak an entry per round) and arm the next one.
                if let Some(id) = self.last.take() {
                    ctx.cancel_timer(id);
                }
                if self.rounds > 0 {
                    self.rounds -= 1;
                    self.last = Some(ctx.set_timer(SimDuration::from_millis(1), 0));
                }
            }
        }
        let mut sim = Simulator::new(14);
        sim.add_node(Box::new(Churner { rounds: 10_000, last: None }));
        sim.run_until_idle();
        assert_eq!(sim.outstanding_timers(), 0, "armed set must drain to zero");
    }

    #[test]
    fn message_body_is_shared_not_copied_in_transit() {
        // The collector keeps the delivered message; its body must alias the
        // allocation the sender created (zero-copy link transit).
        struct Sender {
            peer: NodeId,
            original: Message,
        }
        impl Node for Sender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(self.peer, self.original.clone());
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Message) {}
        }
        struct Keeper {
            got: Option<Message>,
        }
        impl Node for Keeper {
            fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, msg: Message) {
                self.got = Some(msg);
            }
        }
        let original = Message::new("bulk", vec![0xabu8; 4096]);
        let mut sim = Simulator::new(15);
        let keeper = sim.add_node(Box::new(Keeper { got: None }));
        let sender = sim.add_node(Box::new(Sender { peer: keeper, original: original.clone() }));
        sim.connect(sender, keeper, LinkSpec::lan());
        sim.run_until_idle();
        let got = sim.node_ref::<Keeper>(keeper).unwrap().got.as_ref().unwrap();
        assert!(
            got.body.shares_allocation_with(&original.body),
            "delivered body must alias the sender's buffer"
        );
    }

    #[test]
    fn equal_time_events_resolve_by_insertion_order() {
        struct Recorder {
            got: Vec<crate::message::Kind>,
        }
        impl Node for Recorder {
            fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, msg: Message) {
                self.got.push(msg.kind);
            }
        }
        let mut sim = Simulator::new(7);
        let id = sim.add_node(Box::new(Recorder { got: vec![] }));
        sim.inject(id, id, Message::signal("a"), SimDuration::from_millis(5));
        sim.inject(id, id, Message::signal("b"), SimDuration::from_millis(5));
        sim.inject(id, id, Message::signal("c"), SimDuration::from_millis(5));
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<Recorder>(id).unwrap().got, vec!["a", "b", "c"]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let (mut sim, pinger, _) = ping_pong_sim(8, LinkSpec::ideal());
        // Pings go at t=0,1,2,3,4s. Stop at 2.5s: 3 pings sent.
        sim.run_until(SimTime(2_500_000));
        assert_eq!(sim.node_ref::<Pinger>(pinger).unwrap().sent, 3);
        assert_eq!(sim.now(), SimTime(2_500_000));
        // Resume to completion.
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<Pinger>(pinger).unwrap().sent, 5);
    }

    #[test]
    fn link_down_mid_run_blocks_traffic() {
        let (mut sim, pinger, ponger) = ping_pong_sim(9, LinkSpec::ideal());
        sim.run_until(SimTime(1_500_000)); // 2 pings through
        sim.set_link_up(pinger, ponger, false);
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<Ponger>(ponger).unwrap().pings_seen, 2);
        assert!(sim.metrics(pinger).msgs_dropped >= 3);
    }

    #[test]
    fn connection_time_accounting_via_ctx() {
        struct OnlineFor {
            dur: SimDuration,
        }
        impl Node for OnlineFor {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.connection_opened();
                ctx.set_timer(self.dur, 0);
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Message) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: u64) {
                ctx.connection_closed();
            }
        }
        let mut sim = Simulator::new(10);
        let id = sim.add_node(Box::new(OnlineFor { dur: SimDuration::from_secs(3) }));
        sim.run_until_idle();
        assert_eq!(
            sim.metrics(id).total_connection_time(sim.now()),
            SimDuration::from_secs(3)
        );
    }

    #[test]
    fn jitter_can_reorder_messages() {
        // Latency jitter is per-message, so two sends in quick succession
        // can arrive out of order — protocols must not assume FIFO delivery
        // end-to-end (serialization is FIFO, propagation is not).
        struct Blast {
            peer: NodeId,
        }
        impl Node for Blast {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for i in 0..50u8 {
                    ctx.send(self.peer, Message::new("seq", vec![i]));
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Message) {}
        }
        struct Collector {
            got: Vec<u8>,
        }
        impl Node for Collector {
            fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, msg: Message) {
                self.got.push(msg.body[0]);
            }
        }
        let mut sim = Simulator::new(13);
        let collector = sim.add_node(Box::new(Collector { got: vec![] }));
        let blaster = sim.add_node(Box::new(Blast { peer: collector }));
        let link = LinkSpec::ideal()
            .with_latency(SimDuration::from_millis(100))
            .with_jitter(Jitter::Exponential(SimDuration::from_millis(50)));
        sim.connect(blaster, collector, link);
        sim.run_until_idle();
        let got = &sim.node_ref::<Collector>(collector).unwrap().got;
        assert_eq!(got.len(), 50);
        let mut sorted = got.clone();
        sorted.sort();
        assert_ne!(*got, sorted, "expected at least one reordering");
    }

    /// Sends one large message at start; records the arrival time.
    struct BulkSender {
        peer: NodeId,
        bytes: usize,
    }
    impl Node for BulkSender {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(self.peer, Message::new("bulk", vec![0u8; self.bytes]));
        }
        fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Message) {}
    }
    struct ArrivalLog {
        got: Vec<SimTime>,
    }
    impl Node for ArrivalLog {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _: NodeId, _: Message) {
            self.got.push(ctx.now());
        }
    }

    fn bulk_sim(seed: u64, mtu: Option<usize>, batch: bool) -> (SimTime, u64) {
        let mut sim = Simulator::new(seed);
        let sink = sim.add_node(Box::new(ArrivalLog { got: vec![] }));
        let src = sim.add_node(Box::new(BulkSender { peer: sink, bytes: 8_000 }));
        sim.connect(src, sink, LinkSpec::wireless_gprs());
        sim.set_wire_mtu(mtu);
        sim.set_link_batching(batch);
        sim.run_until_idle();
        let arrival = sim.node_ref::<ArrivalLog>(sink).unwrap().got[0];
        (arrival, sim.events_processed())
    }

    #[test]
    fn batched_and_per_fragment_bursts_deliver_identically() {
        // Same seed, same MTU: identical arrival time whether fragments cost
        // heap events or not — only the event count differs.
        let (t_batched, e_batched) = bulk_sim(21, Some(256), true);
        let (t_frag, e_frag) = bulk_sim(21, Some(256), false);
        assert_eq!(t_batched, t_frag);
        // 8000 bytes (+overhead) at 256 B/frame ≈ 32 fragments; all but the
        // last are extra events in per-fragment mode.
        assert!(e_frag >= e_batched + 30, "batched {e_batched}, frag {e_frag}");
    }

    #[test]
    fn mtu_does_not_change_message_delivery_time() {
        // Fragmenting a burst moves bytes in the same aggregate time (one
        // loss + one jitter draw either way), so the message still lands
        // within per-frame rounding (±1µs per fragment) of the unfragmented
        // transfer.
        let (t_whole, _) = bulk_sim(22, None, true);
        let (t_burst, _) = bulk_sim(22, Some(256), true);
        let skew = if t_whole >= t_burst {
            t_whole.since(t_burst)
        } else {
            t_burst.since(t_whole)
        };
        assert!(skew <= SimDuration::from_micros(40), "skew {skew}");
    }

    #[test]
    fn send_to_remote_lands_in_outbox_not_queue() {
        let mut sim = Simulator::new(23);
        let src = sim.add_node(Box::new(BulkSender { peer: 0, bytes: 100 }));
        let far = sim.add_remote(7001);
        sim.node_mut::<BulkSender>(src).unwrap().peer = far;
        sim.set_label(src, 6001);
        sim.connect(src, far, LinkSpec::wan_backbone());
        sim.run_until_idle();
        let out = sim.take_outbox();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].from_label, 6001);
        assert_eq!(out[0].to_label, 7001);
        // The link model ran on the sending side: arrival ≥ base latency.
        assert!(out[0].at >= SimTime::ZERO + SimDuration::from_millis(50));
        assert_eq!(sim.metrics(src).msgs_sent, 1);
        assert!(!sim.has_outbound());
    }

    #[test]
    fn remote_placeholder_gets_no_start_event() {
        let mut sim = Simulator::new(24);
        let a = sim.add_node(Box::new(ArrivalLog { got: vec![] }));
        let _far = sim.add_remote(9001);
        sim.run_until_idle();
        // Exactly one Start (the real node), none for the placeholder.
        assert_eq!(sim.events_processed(), 1);
        assert_eq!(sim.remote_id(9001), Some(1));
        assert_eq!(sim.label(a), 0);
    }

    #[test]
    fn inject_at_delivers_at_absolute_time() {
        let mut sim = Simulator::new(25);
        let sink = sim.add_node(Box::new(ArrivalLog { got: vec![] }));
        let from = sim.add_remote(5001);
        sim.inject_at(sink, from, Message::signal("x"), SimTime(2_500_000));
        sim.run_until_idle();
        assert_eq!(sim.node_ref::<ArrivalLog>(sink).unwrap().got, vec![SimTime(2_500_000)]);
    }

    #[test]
    fn peak_queue_depth_is_tracked() {
        let mut sim = Simulator::new(26);
        let id = sim.add_node(Box::new(ArrivalLog { got: vec![] }));
        for i in 0..10 {
            sim.inject(id, id, Message::signal("x"), SimDuration::from_millis(i));
        }
        sim.run_until_idle();
        assert!(sim.peak_queue_depth() >= 10, "peak {}", sim.peak_queue_depth());
    }

    #[test]
    fn jitter_perturbs_delivery_times() {
        let link = LinkSpec::ideal()
            .with_latency(SimDuration::from_millis(50))
            .with_jitter(Jitter::Exponential(SimDuration::from_millis(20)));
        let (mut sim, pinger, _) = ping_pong_sim(11, link);
        sim.run_until_idle();
        let pongs = &sim.node_ref::<Pinger>(pinger).unwrap().pongs;
        // All pongs later than the no-jitter bound.
        for (i, t) in pongs.iter().enumerate() {
            let floor = SimTime(i as u64 * 1_000_000 + 100_000);
            assert!(*t > floor, "pong {i} at {t} vs floor {floor}");
        }
    }

    /// A timer-churn node driven by a generated op script. One drive timer
    /// steps through the script; each step arms near/far payload timers or
    /// cancels a live / an already-cancelled handle. Every `set_timer` call is
    /// logged in arm order, which is the simulator's tie-break sequence since
    /// this node is the only one arming, so the expected fire schedule follows
    /// from the log alone.
    struct ScriptedChurn {
        script: Vec<(u8, u64)>,
        step: usize,
        /// `(due time, is payload)` per `set_timer` call, in arm order.
        arms: Vec<(SimTime, bool)>,
        /// Arm index of the pending drive timer.
        drive_arm: usize,
        /// Live payload handles with their arm index, oldest first.
        live: std::collections::VecDeque<(TimerId, usize)>,
        dead: Vec<TimerId>,
        /// `(payload arm index, cancel time, arm index of the cancelling
        /// drive event)` per cancel of a live handle.
        cancels: Vec<(usize, SimTime, usize)>,
        /// `(fire time, payload arm index)` in dispatch order.
        fired: Vec<(SimTime, usize)>,
    }

    const DRIVE: u64 = u64::MAX;

    impl ScriptedChurn {
        fn arm(&mut self, ctx: &mut Ctx<'_>, delay: u64, payload: bool) -> (TimerId, usize) {
            let index = self.arms.len();
            self.arms.push((ctx.now() + SimDuration(delay), payload));
            let tag = if payload { index as u64 } else { DRIVE };
            (ctx.set_timer(SimDuration(delay), tag), index)
        }
    }

    impl Node for ScriptedChurn {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.drive_arm = self.arm(ctx, 0, false).1;
        }
        fn on_message(&mut self, _: &mut Ctx<'_>, _: NodeId, _: Message) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
            if tag != DRIVE {
                self.fired.push((ctx.now(), tag as usize));
                return;
            }
            let Some(&(op, arg)) = self.script.get(self.step) else {
                return;
            };
            self.step += 1;
            match op % 4 {
                // Near timer: within the wheel levels.
                0 => {
                    let armed = self.arm(ctx, arg % 5_000_000, true);
                    self.live.push_back(armed);
                }
                // Far timer: past the wheel horizon → overflow promotion.
                1 => {
                    let delay = crate::queue::WHEEL_HORIZON + arg % 2_000_000;
                    let armed = self.arm(ctx, delay, true);
                    self.live.push_back(armed);
                }
                // Cancel the oldest live handle (tombstones its queued event,
                // or is a no-op if the timer already fired).
                2 => {
                    if let Some((id, index)) = self.live.pop_front() {
                        ctx.cancel_timer(id);
                        self.cancels.push((index, ctx.now(), self.drive_arm));
                        self.dead.push(id);
                    }
                }
                // Cancel an already-cancelled/fired handle: must be a no-op.
                _ => {
                    if let Some(&id) = self.dead.get(arg as usize % self.dead.len().max(1)) {
                        ctx.cancel_timer(id);
                    }
                }
            }
            // Uneven drive cadence so steps land on varied wheel ticks.
            self.drive_arm = self.arm(ctx, 1 + (arg % 97) * 1_013, false).1;
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]
        /// The simulator's timers against an analytic oracle: for any
        /// arm/cancel/fire interleaving — including far-future timers that
        /// ride the overflow heap and cancels of timers that already fired —
        /// every uncancelled timer fires exactly once at its due time, no
        /// cancelled timer fires, and fires come out in `(time, arm order)`
        /// order.
        #[test]
        fn timers_fire_once_on_schedule_in_arm_order(
            script in proptest::collection::vec((0u8..4, 0u64..u64::MAX / 2), 0..120),
        ) {
            let mut sim = Simulator::new(99);
            let id = sim.add_node(Box::new(ScriptedChurn {
                script,
                step: 0,
                arms: Vec::new(),
                drive_arm: 0,
                live: Default::default(),
                dead: Vec::new(),
                cancels: Vec::new(),
                fired: Vec::new(),
            }));
            sim.run_until_idle();
            let node = sim.node_ref::<ScriptedChurn>(id).unwrap();

            // A cancel issued by the drive event at `(time, arm)` takes effect
            // iff the payload's own `(due, arm)` event sorts after it.
            let cancelled: HashSet<usize> = node
                .cancels
                .iter()
                .filter(|&&(index, at, by)| (node.arms[index].0, index) > (at, by))
                .map(|&(index, _, _)| index)
                .collect();
            let mut fires = vec![0u32; node.arms.len()];
            for &(at, index) in &node.fired {
                proptest::prop_assert!(at == node.arms[index].0, "timer {index} fired off schedule");
                fires[index] += 1;
            }
            for (index, &(_, payload)) in node.arms.iter().enumerate() {
                if payload {
                    let expected = u32::from(!cancelled.contains(&index));
                    proptest::prop_assert!(
                        fires[index] == expected,
                        "timer {index} fired {} times, expected {expected}",
                        fires[index]
                    );
                }
            }
            proptest::prop_assert!(
                node.fired.windows(2).all(|w| w[0] < w[1]),
                "fires out of (time, arm order) order"
            );
        }
    }
}
