//! Link specifications and the topology.
//!
//! A link carries messages with delay `base_latency + jitter + size/bandwidth`
//! and may drop them (loss probability, or administratively down). Jitter is
//! exponential for wireless links (queueing-dominated, heavy-tailed — the
//! source of the variance the paper measures in Figure 13) and mildly normal
//! for wired links.

use std::collections::HashMap;

use crate::message::Message;
use crate::rng::SimRng;
use crate::sim::NodeId;
use crate::time::{SimDuration, SimTime};

/// The jitter model for a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Jitter {
    /// No jitter at all (ideal link; useful in unit tests).
    None,
    /// Exponential with the given mean — wireless/congested links.
    Exponential(SimDuration),
    /// Normal-ish with the given sigma around zero extra delay — wired links.
    Normal(SimDuration),
}

/// Static description of a link's behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// One-way propagation delay before jitter.
    pub base_latency: SimDuration,
    /// Jitter model added per message.
    pub jitter: Jitter,
    /// Serialization rate in bytes per second.
    pub bandwidth_bps: u64,
    /// Probability an individual message is lost.
    pub loss: f64,
}

impl LinkSpec {
    /// An ideal, instantaneous link (unit tests).
    pub fn ideal() -> LinkSpec {
        LinkSpec {
            base_latency: SimDuration::ZERO,
            jitter: Jitter::None,
            bandwidth_bps: u64::MAX,
            loss: 0.0,
        }
    }

    /// A fast local network: 1 ms ± small jitter, 100 MB/s.
    pub fn lan() -> LinkSpec {
        LinkSpec {
            base_latency: SimDuration::from_millis(1),
            jitter: Jitter::Normal(SimDuration::from_micros(200)),
            bandwidth_bps: 100_000_000,
            loss: 0.0,
        }
    }

    /// A wired Internet path: 10 ms ± 2 ms, 1 MB/s (2004-era server uplink).
    pub fn wired_internet() -> LinkSpec {
        LinkSpec {
            base_latency: SimDuration::from_millis(10),
            jitter: Jitter::Normal(SimDuration::from_millis(2)),
            bandwidth_bps: 1_000_000,
            loss: 0.0,
        }
    }

    /// The paper-era wireless hop (GPRS-class): 150 ms one-way, heavy
    /// exponential jitter (mean 60 ms), 1.8 KB/s, 0.5% loss.
    pub fn wireless_gprs() -> LinkSpec {
        LinkSpec {
            base_latency: SimDuration::from_millis(150),
            jitter: Jitter::Exponential(SimDuration::from_millis(60)),
            bandwidth_bps: 1_800,
            loss: 0.005,
        }
    }

    /// A 2004 home-broadband path for the paper's "web-based" desktop
    /// baseline: 25 ms, mild jitter, 64 KB/s.
    pub fn home_broadband() -> LinkSpec {
        LinkSpec {
            base_latency: SimDuration::from_millis(25),
            jitter: Jitter::Normal(SimDuration::from_millis(5)),
            bandwidth_bps: 64_000,
            loss: 0.0,
        }
    }

    /// A long-haul backbone path between operator regions (2004 WAN):
    /// 50 ms one-way, mild jitter, 1 MB/s. The sharded soak uses this for
    /// cross-shard control-plane links; its base latency is the epoch
    /// lookahead bound, so keeping it well above the wired-LAN latencies
    /// keeps the epoch count (and barrier overhead) low.
    pub fn wan_backbone() -> LinkSpec {
        LinkSpec {
            base_latency: SimDuration::from_millis(50),
            jitter: Jitter::Normal(SimDuration::from_millis(5)),
            bandwidth_bps: 1_000_000,
            loss: 0.0,
        }
    }

    /// Builder: override base latency.
    pub fn with_latency(mut self, latency: SimDuration) -> LinkSpec {
        self.base_latency = latency;
        self
    }

    /// Builder: override bandwidth.
    pub fn with_bandwidth(mut self, bps: u64) -> LinkSpec {
        self.bandwidth_bps = bps;
        self
    }

    /// Builder: override loss probability.
    pub fn with_loss(mut self, loss: f64) -> LinkSpec {
        self.loss = loss;
        self
    }

    /// Builder: override jitter.
    pub fn with_jitter(mut self, jitter: Jitter) -> LinkSpec {
        self.jitter = jitter;
        self
    }

    /// Time for `size` bytes to serialize onto the link.
    pub fn transfer_time(&self, size: usize) -> SimDuration {
        if self.bandwidth_bps == u64::MAX {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(size as f64 / self.bandwidth_bps as f64)
    }

    /// Sample the one-way delivery delay for a message of `size` bytes.
    pub fn sample_delay(&self, size: usize, rng: &mut SimRng) -> SimDuration {
        let jitter = match self.jitter {
            Jitter::None => SimDuration::ZERO,
            Jitter::Exponential(mean) => rng.exp_duration(mean),
            Jitter::Normal(sigma) => rng.normal_duration(SimDuration::ZERO, sigma),
        };
        self.base_latency + jitter + self.transfer_time(size)
    }
}

/// The set of links between nodes. Links are bidirectional and symmetric
/// (one spec serves both directions); per-direction asymmetry can be had by
/// installing two directed entries.
///
/// Randomness is drawn from *per-direction streams*, one [`SimRng`] per
/// `(from, to)` pair, seeded from the topology seed and the two endpoints'
/// stable labels. A link's draw sequence therefore depends only on the
/// traffic that link itself carries — never on what the rest of the topology
/// does — which is what lets the sharded engine split a topology across
/// several simulators and still reproduce a single-simulator run bit for bit
/// (see `DESIGN.md`, "Sharded simulation engine").
/// Extra impairments a chaos fault layers on a link (both directions).
/// Probabilities are per *logical send* (a fragment burst counts once, like
/// the base loss draw). Draws come from dedicated per-direction chaos
/// streams — never from the base loss/jitter streams — so installing an
/// overlay whose probabilities are all zero consumes no randomness and
/// leaves the base simulation byte-identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosOverlay {
    /// Extra drop probability (on top of the link's own loss).
    pub loss: f64,
    /// Probability the frame is corrupted in flight; the receiver's link
    /// layer discards it on checksum (counted separately from loss).
    pub corrupt: f64,
    /// Probability the link delivers a second copy of the message.
    pub duplicate: f64,
    /// Probability the message is held back by an extra uniform delay in
    /// `(0, window]`, letting later traffic overtake it.
    pub reorder: f64,
    /// Maximum extra delay for reordered messages and duplicate copies.
    pub window: SimDuration,
}

impl ChaosOverlay {
    /// Does this overlay ever need a random draw?
    pub fn is_active(&self) -> bool {
        self.loss > 0.0 || self.corrupt > 0.0 || self.duplicate > 0.0 || self.reorder > 0.0
    }
}

/// The chaos layer's decision for one send. `drop`/`corrupt` kill the
/// message (corrupt is a link-layer checksum discard — the protocol never
/// sees a mangled payload, matching how real link CRCs surface corruption
/// as loss). `extra_delay` is added to the arrival; `duplicate` is the
/// extra offset of a second delivered copy, if any.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosVerdict {
    /// Dropped by the extra-loss draw.
    pub drop: bool,
    /// Dropped by the corruption draw (link-layer checksum discard).
    pub corrupt: bool,
    /// Extra in-flight delay (reordering).
    pub extra_delay: SimDuration,
    /// Offset past the original arrival at which a duplicate copy lands.
    pub duplicate: Option<SimDuration>,
}

impl ChaosVerdict {
    /// Was the message killed outright?
    pub fn killed(&self) -> bool {
        self.drop || self.corrupt
    }
}

/// Salt folded into chaos stream seeds so the chaos layer's per-direction
/// streams never collide with the base loss/jitter streams.
const CHAOS_STREAM_SALT: u64 = 0xC4A0_5F00_D15E_A5ED;

#[derive(Debug, Default)]
pub struct Topology {
    links: HashMap<(NodeId, NodeId), LinkSpec>,
    /// Refcounted administrative cuts (chaos partitions, the wireless
    /// disconnections the paper emphasizes). A link is usable only while its
    /// count is zero, so overlapping cut windows heal at the *max* end time —
    /// each window decrements once.
    cuts: HashMap<(NodeId, NodeId), u32>,
    /// Chaos overlays stacked per link, keyed by the installing fault's id
    /// so overlapping bursts compose and remove independently.
    overlays: HashMap<(NodeId, NodeId), Vec<(u64, ChaosOverlay)>>,
    /// Lazily created per-direction chaos RNG streams (salted so they are
    /// independent of the base `streams`).
    chaos_streams: HashMap<(u64, u64), SimRng>,
    /// Per-direction serialization occupancy: a message must wait for the
    /// link to finish transmitting earlier messages (FIFO queueing). This is
    /// what turns "many concurrent requests" into the growing delays the
    /// paper attributes to low-bandwidth wireless links. Links are
    /// full-duplex: the two directions occupy independent channels.
    busy_until: HashMap<(NodeId, NodeId), SimTime>,
    /// Seed folded into every per-direction stream.
    seed: u64,
    /// Stable node labels (default: the node id). Labels exist so a node
    /// keeps the same RNG streams no matter which simulator of a sharded
    /// run hosts it; set them before any traffic flows.
    labels: HashMap<NodeId, u64>,
    /// Nodes registered with the owning simulator (ids `0..nodes`): the
    /// label → id fallback resolves only ids below this.
    nodes: usize,
    /// Lazily created per-direction RNG streams, keyed by `(from label,
    /// to label)`.
    streams: HashMap<(u64, u64), SimRng>,
}

/// Avalanche mix of `(seed, from, to)` into a stream seed (splitmix64-style
/// finalizer), so neighbouring labels get uncorrelated streams.
fn stream_seed(seed: u64, from: u64, to: u64) -> u64 {
    let mut x = seed
        ^ from.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ to.wrapping_mul(0xD1B5_4A32_D192_ED03);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

impl Topology {
    /// Empty topology.
    pub fn new() -> Topology {
        Topology::default()
    }

    fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Set the seed folded into every per-direction RNG stream. Call before
    /// any traffic flows (streams are created lazily on first use).
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// Give `node` a stable label. Labels key the per-direction RNG
    /// streams; the default label is the node id, which is fine for a
    /// single-simulator run. Sharded runs assign globally unique labels so
    /// the same logical link draws the same stream in every partitioning.
    pub fn set_label(&mut self, node: NodeId, label: u64) {
        self.labels.insert(node, label);
    }

    /// The stable label of `node` (defaults to the id).
    pub fn label(&self, node: NodeId) -> u64 {
        self.labels.get(&node).copied().unwrap_or(node as u64)
    }

    /// Record that node ids `0..nodes` exist (the simulator calls this as it
    /// registers nodes).
    pub(crate) fn set_node_count(&mut self, nodes: usize) {
        self.nodes = nodes;
    }

    /// Resolve a label back to the node carrying it (linear scan — called
    /// only at fault-plan compile time, never on the message path). A label
    /// no node carries resolves to `None`, so a fault addressed to a node
    /// of another shard is skipped rather than applied to a phantom id.
    pub fn node_by_label(&self, label: u64) -> Option<NodeId> {
        if let Some((&node, _)) = self.labels.iter().find(|&(_, &l)| l == label) {
            return Some(node);
        }
        // Fallback: an unlabelled node's label is its id.
        let id = usize::try_from(label).ok()?;
        (id < self.nodes && !self.labels.contains_key(&id)).then_some(id)
    }

    /// The RNG stream for the `from → to` direction.
    fn stream(&mut self, from: NodeId, to: NodeId) -> &mut SimRng {
        let key = (self.label(from), self.label(to));
        let seed = self.seed;
        self.streams
            .entry(key)
            .or_insert_with(|| SimRng::new(stream_seed(seed, key.0, key.1)))
    }

    /// Install a (bidirectional) link.
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        self.links.insert(Self::key(a, b), spec);
    }

    /// Refcounted cut: the link stays down until every [`Topology::heal`]
    /// paired with a `cut` has run, so overlapping outage windows heal at
    /// the latest end time instead of the first.
    pub fn cut(&mut self, a: NodeId, b: NodeId) {
        *self.cuts.entry(Self::key(a, b)).or_insert(0) += 1;
    }

    /// Undo one [`Topology::cut`]. Saturating: a stray heal never wedges
    /// the link into a phantom "up while cut" state.
    pub fn heal(&mut self, a: NodeId, b: NodeId) {
        let key = Self::key(a, b);
        if let Some(n) = self.cuts.get_mut(&key) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.cuts.remove(&key);
            }
        }
    }

    /// Is there a usable link between `a` and `b`?
    pub fn is_up(&self, a: NodeId, b: NodeId) -> bool {
        let key = Self::key(a, b);
        self.links.contains_key(&key) && (self.cuts.is_empty() || !self.cuts.contains_key(&key))
    }

    /// Install (or replace) the chaos overlay `fault` contributes to the
    /// `a`↔`b` link. Overlays stack: concurrent faults on one link compose
    /// probabilistically (independent draws folded into one effective
    /// probability per category) and remove independently by fault id.
    pub fn add_chaos(&mut self, a: NodeId, b: NodeId, fault: u64, overlay: ChaosOverlay) {
        let stack = self.overlays.entry(Self::key(a, b)).or_default();
        if let Some(slot) = stack.iter_mut().find(|(id, _)| *id == fault) {
            slot.1 = overlay;
        } else {
            stack.push((fault, overlay));
        }
    }

    /// Remove fault `fault`'s overlay from the `a`↔`b` link, if present.
    pub fn remove_chaos(&mut self, a: NodeId, b: NodeId, fault: u64) {
        let key = Self::key(a, b);
        if let Some(stack) = self.overlays.get_mut(&key) {
            stack.retain(|(id, _)| *id != fault);
            if stack.is_empty() {
                self.overlays.remove(&key);
            }
        }
    }

    /// The effective overlay on `a`↔`b` (stacked faults folded together:
    /// `1 - Π(1-pᵢ)` per probability, max of the delay windows), or `None`
    /// when no draw would ever be taken.
    fn effective_overlay(&self, a: NodeId, b: NodeId) -> Option<ChaosOverlay> {
        let stack = self.overlays.get(&Self::key(a, b))?;
        let mut eff = ChaosOverlay::default();
        for (_, o) in stack {
            eff.loss = 1.0 - (1.0 - eff.loss) * (1.0 - o.loss.clamp(0.0, 1.0));
            eff.corrupt = 1.0 - (1.0 - eff.corrupt) * (1.0 - o.corrupt.clamp(0.0, 1.0));
            eff.duplicate = 1.0 - (1.0 - eff.duplicate) * (1.0 - o.duplicate.clamp(0.0, 1.0));
            eff.reorder = 1.0 - (1.0 - eff.reorder) * (1.0 - o.reorder.clamp(0.0, 1.0));
            eff.window = eff.window.max(o.window);
        }
        eff.is_active().then_some(eff)
    }

    /// One chaos decision for a message (or burst) already routed `from →
    /// to`. Draw order is fixed — loss, corrupt, reorder(+delay),
    /// duplicate(+delay) — and every `chance(0)` consumes nothing, so links
    /// without an active overlay take zero draws and a zero-intensity plan
    /// is byte-identical to no plan at all.
    pub fn chaos_roll(&mut self, from: NodeId, to: NodeId) -> ChaosVerdict {
        // One-branch fast path: no fault anywhere keeps the per-message cost
        // of the chaos layer at a single `is_empty` check.
        if self.overlays.is_empty() {
            return ChaosVerdict::default();
        }
        let Some(eff) = self.effective_overlay(from, to) else {
            return ChaosVerdict::default();
        };
        let key = (self.label(from), self.label(to));
        let seed = self.seed ^ CHAOS_STREAM_SALT;
        let rng = self
            .chaos_streams
            .entry(key)
            .or_insert_with(|| SimRng::new(stream_seed(seed, key.0, key.1)));
        let mut v = ChaosVerdict::default();
        if rng.chance(eff.loss) {
            v.drop = true;
            return v;
        }
        if rng.chance(eff.corrupt) {
            v.corrupt = true;
            return v;
        }
        // Window floor of 1 µs keeps reordered/duplicate arrivals strictly
        // after the original even for degenerate plans.
        let window = eff.window.max(SimDuration::from_micros(1));
        if rng.chance(eff.reorder) {
            v.extra_delay = rng.uniform_duration(SimDuration::from_micros(1), window);
        }
        if rng.chance(eff.duplicate) {
            v.duplicate = Some(rng.uniform_duration(SimDuration::from_micros(1), window));
        }
        v
    }

    /// The link spec between `a` and `b`, if connected (regardless of
    /// up/down state).
    pub fn spec(&self, a: NodeId, b: NodeId) -> Option<&LinkSpec> {
        self.links.get(&Self::key(a, b))
    }

    /// Decide the fate of a message sent at `now`: `None` = dropped,
    /// `Some(delay)` = delivered after `delay` (measured from `now`).
    ///
    /// Serialization is FIFO per direction: if the link is still
    /// transmitting an earlier message the same way, this one queues behind
    /// it before its own transfer time, latency and jitter. Exactly two
    /// draws are taken from the direction's stream (loss, then jitter).
    pub fn route(
        &mut self,
        from: NodeId,
        to: NodeId,
        msg: &Message,
        now: SimTime,
    ) -> Option<SimDuration> {
        if !self.is_up(from, to) {
            return None;
        }
        let spec = self.links.get(&Self::key(from, to))?.clone();
        let loss = spec.loss;
        if self.stream(from, to).chance(loss) {
            return None;
        }
        let dir = (from, to);
        let start = self.busy_until.get(&dir).copied().unwrap_or(SimTime::ZERO).max(now);
        let done_transmitting = start + spec.transfer_time(msg.wire_size());
        self.busy_until.insert(dir, done_transmitting);
        let jitter = Self::draw_jitter(&spec, self.stream(from, to));
        Some(done_transmitting.since(now) + spec.base_latency + jitter)
    }

    /// Route one logical message of `wire_size` bytes as a *burst* of
    /// `mtu`-byte link frames. Fills `out` (cleared first, so one buffer
    /// serves every burst) with the arrival offset of every frame
    /// (ascending; the last entry is when the message's final byte lands —
    /// the delivery time of the message itself) and returns `true`, or
    /// returns `false`, with `out` left empty, when the link is down,
    /// absent, or the loss draw killed the burst.
    ///
    /// The burst is one transfer: exactly one loss draw and one jitter draw
    /// are taken, the same stream consumption as [`Topology::route`], so a
    /// simulation's draw sequence is identical whether or not fragmentation
    /// is modelled — and identical between batched (one heap event at the
    /// tail) and per-fragment (one heap event per frame) scheduling.
    pub fn route_burst_into(
        &mut self,
        from: NodeId,
        to: NodeId,
        wire_size: usize,
        mtu: usize,
        now: SimTime,
        out: &mut Vec<SimDuration>,
    ) -> bool {
        assert!(mtu > 0, "mtu must be positive");
        out.clear();
        if !self.is_up(from, to) {
            return false;
        }
        let Some(spec) = self.links.get(&Self::key(from, to)).cloned() else {
            return false;
        };
        let loss = spec.loss;
        if self.stream(from, to).chance(loss) {
            return false;
        }
        let dir = (from, to);
        let mut cursor =
            self.busy_until.get(&dir).copied().unwrap_or(SimTime::ZERO).max(now);
        let nfrags = wire_size.div_ceil(mtu).max(1);
        out.reserve(nfrags);
        let mut remaining = wire_size;
        for _ in 0..nfrags {
            let frag = remaining.min(mtu);
            remaining -= frag;
            cursor += spec.transfer_time(frag);
            // Serialization offset only; latency + jitter are added below,
            // once the jitter draw has happened (draw order must match
            // `route`: loss first, jitter after busy_until settles).
            out.push(cursor.since(now));
        }
        self.busy_until.insert(dir, cursor);
        let jitter = Self::draw_jitter(&spec, self.stream(from, to));
        let tail = spec.base_latency + jitter;
        for offset in out.iter_mut() {
            *offset += tail;
        }
        true
    }

    fn draw_jitter(spec: &LinkSpec, rng: &mut SimRng) -> SimDuration {
        match spec.jitter {
            Jitter::None => SimDuration::ZERO,
            Jitter::Exponential(mean) => rng.exp_duration(mean),
            Jitter::Normal(sigma) => rng.normal_duration(SimDuration::ZERO, sigma),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_with_size() {
        let spec = LinkSpec::ideal().with_bandwidth(1000);
        assert_eq!(spec.transfer_time(500), SimDuration::from_millis(500));
        assert_eq!(spec.transfer_time(0), SimDuration::ZERO);
        assert_eq!(LinkSpec::ideal().transfer_time(10_000), SimDuration::ZERO);
    }

    #[test]
    fn sample_delay_at_least_base_plus_transfer() {
        let mut rng = SimRng::new(1);
        let spec = LinkSpec::wireless_gprs();
        for _ in 0..100 {
            let d = spec.sample_delay(100, &mut rng);
            assert!(d >= spec.base_latency + spec.transfer_time(100));
        }
    }

    #[test]
    fn ideal_link_is_instant() {
        let mut rng = SimRng::new(2);
        assert_eq!(
            LinkSpec::ideal().sample_delay(1_000_000, &mut rng),
            SimDuration::ZERO
        );
    }

    #[test]
    fn topology_connect_and_route() {
        let mut topo = Topology::new();
        topo.connect(0, 1, LinkSpec::ideal());
        let msg = Message::signal("ping");
        let now = SimTime::ZERO;
        assert!(topo.route(0, 1, &msg, now).is_some());
        assert!(topo.route(1, 0, &msg, now).is_some()); // bidirectional
        assert!(topo.route(0, 2, &msg, now).is_none()); // no link
    }

    #[test]
    fn cut_link_drops() {
        let mut topo = Topology::new();
        topo.connect(0, 1, LinkSpec::ideal());
        topo.cut(0, 1);
        assert!(!topo.is_up(0, 1));
        assert!(topo.route(0, 1, &Message::signal("x"), SimTime::ZERO).is_none());
        topo.heal(1, 0); // symmetric key
        assert!(topo.is_up(0, 1));
    }

    #[test]
    fn lossy_link_drops_sometimes() {
        let mut topo = Topology::new();
        topo.set_seed(5);
        topo.connect(0, 1, LinkSpec::ideal().with_loss(0.5));
        let msg = Message::signal("p");
        let delivered = (0..1000)
            .filter(|_| topo.route(0, 1, &msg, SimTime::ZERO).is_some())
            .count();
        assert!((400..600).contains(&delivered), "delivered {delivered}");
    }

    #[test]
    fn direction_streams_are_independent_of_other_traffic() {
        // The draw sequence on 0→1 must not depend on what other links (or
        // the reverse direction) do — the property the sharded engine's
        // byte-identity rests on.
        let drive = |extra_traffic: bool| -> Vec<Option<SimDuration>> {
            let mut topo = Topology::new();
            topo.set_seed(42);
            let spec = LinkSpec::wireless_gprs();
            topo.connect(0, 1, spec.clone());
            topo.connect(2, 3, spec.clone());
            let msg = Message::signal("p");
            let mut out = Vec::new();
            for i in 0..50u64 {
                let now = SimTime(i * 1_000_000);
                if extra_traffic {
                    let _ = topo.route(1, 0, &msg, now); // reverse direction
                    let _ = topo.route(2, 3, &msg, now); // unrelated link
                }
                out.push(topo.route(0, 1, &msg, now));
            }
            out
        };
        assert_eq!(drive(false), drive(true));
    }

    #[test]
    fn labels_key_the_streams_not_node_ids() {
        // Two topologies whose node ids differ but whose labels match must
        // produce identical draw sequences for the same logical link.
        let drive = |from: NodeId, to: NodeId| -> Vec<Option<SimDuration>> {
            let mut topo = Topology::new();
            topo.set_seed(7);
            topo.set_label(from, 100);
            topo.set_label(to, 200);
            topo.connect(from, to, LinkSpec::wireless_gprs());
            let msg = Message::signal("p");
            (0..50u64)
                .map(|i| topo.route(from, to, &msg, SimTime(i * 1_000_000)))
                .collect()
        };
        assert_eq!(drive(0, 1), drive(5, 9));
    }

    #[test]
    fn labels_resolve_only_to_registered_nodes() {
        let mut topo = Topology::new();
        topo.set_node_count(3);
        topo.set_label(0, 100);
        assert_eq!(topo.node_by_label(100), Some(0));
        // Unlabelled nodes answer to their id; a relabelled id does not.
        assert_eq!(topo.node_by_label(2), Some(2));
        assert_eq!(topo.node_by_label(0), None);
        // No node carries these labels.
        assert_eq!(topo.node_by_label(3), None);
        assert_eq!(topo.node_by_label(1_000_005), None);
    }

    #[test]
    fn links_are_full_duplex() {
        // A long transfer one way must not delay traffic the other way.
        let mut topo = Topology::new();
        topo.connect(0, 1, LinkSpec::ideal().with_bandwidth(1000));
        let big = Message::new("big", vec![0u8; 1000 - crate::message::FRAME_OVERHEAD - 3]);
        let small = Message::signal("s");
        let now = SimTime::ZERO;
        let fwd = topo.route(0, 1, &big, now).unwrap();
        assert_eq!(fwd, SimDuration::from_secs(1));
        let rev = topo.route(1, 0, &small, now).unwrap();
        assert!(rev < SimDuration::from_millis(100), "reverse queued: {rev}");
    }

    #[test]
    fn burst_tail_matches_unfragmented_transfer() {
        // On a jitter-free, lossless link the burst's last frame lands when
        // a whole-message transfer would have (modulo per-frame microsecond
        // rounding), and earlier frames land strictly earlier.
        let mut topo = Topology::new();
        topo.connect(0, 1, LinkSpec::ideal().with_bandwidth(1000));
        let mut arrivals = Vec::new();
        assert!(topo.route_burst_into(0, 1, 1000, 100, SimTime::ZERO, &mut arrivals));
        assert_eq!(arrivals.len(), 10);
        assert_eq!(*arrivals.last().unwrap(), SimDuration::from_secs(1));
        for w in arrivals.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(arrivals[0], SimDuration::from_millis(100));
    }

    #[test]
    fn burst_consumes_the_same_draws_as_route() {
        // One loss + one jitter draw either way: after a burst, the next
        // plain route sees the same stream state as after a plain route.
        let spec = LinkSpec::wireless_gprs();
        let msg = Message::signal("after");
        let mut a = Topology::new();
        a.set_seed(9);
        a.connect(0, 1, spec.clone());
        let mut b = Topology::new();
        b.set_seed(9);
        b.connect(0, 1, spec.clone());
        let probe = Message::new("m", vec![0u8; 160]);
        let _ = a.route(0, 1, &probe, SimTime::ZERO);
        b.route_burst_into(0, 1, probe.wire_size(), 64, SimTime::ZERO, &mut Vec::new());
        // Compare at a quiet time so busy_until rounding cannot differ.
        let later = SimTime(60_000_000);
        assert_eq!(a.route(0, 1, &msg, later), b.route(0, 1, &msg, later));
    }

    #[test]
    fn serialization_queues_fifo() {
        // Two back-to-back 1000-byte sends at t=0 over a 1000 B/s link: the
        // second waits for the first's transfer before its own.
        let mut topo = Topology::new();
        topo.connect(0, 1, LinkSpec::ideal().with_bandwidth(1000));
        let msg = Message::new("big", vec![0u8; 1000 - crate::message::FRAME_OVERHEAD - 3]);
        let now = SimTime::ZERO;
        let d1 = topo.route(0, 1, &msg, now).unwrap();
        let d2 = topo.route(0, 1, &msg, now).unwrap();
        assert_eq!(d1, SimDuration::from_secs(1));
        assert_eq!(d2, SimDuration::from_secs(2)); // queued behind the first
        // After the link drains, no residual queueing.
        let later = SimTime(10_000_000);
        let d3 = topo.route(0, 1, &msg, later).unwrap();
        assert_eq!(d3, SimDuration::from_secs(1));
    }

    #[test]
    fn presets_are_ordered_by_speed() {
        // Wireless must be slowest, LAN fastest — the premise of the paper.
        let mut rng = SimRng::new(6);
        let size = 1000;
        let wireless = LinkSpec::wireless_gprs();
        let broadband = LinkSpec::home_broadband();
        let lan = LinkSpec::lan();
        let avg = |spec: &LinkSpec, rng: &mut SimRng| -> f64 {
            (0..200).map(|_| spec.sample_delay(size, rng).as_secs_f64()).sum::<f64>() / 200.0
        };
        let w = avg(&wireless, &mut rng);
        let b = avg(&broadband, &mut rng);
        let l = avg(&lan, &mut rng);
        assert!(w > b && b > l, "wireless {w} broadband {b} lan {l}");
    }
}
