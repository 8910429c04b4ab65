//! Measurement: connection-time accounting, byte counters, scoreboard.
//!
//! "Internet connection time" is the paper's headline metric (Figure 12): the
//! total virtual time a device holds an open connection to the wired network.
//! Protocol nodes bracket their online periods with
//! [`Metrics::connection_opened`] / [`Metrics::connection_closed`]; the
//! harness reads [`Metrics::total_connection_time`] afterwards.

use std::collections::HashMap;

use crate::message::Kind;
use crate::time::{SimDuration, SimTime};

/// Gauge key under which a serving node's `/metrics` exposition publishes
/// the hosting simulator's current event-queue depth (pending events,
/// tombstoned timers included). Sampled at scrape time from the queue's
/// O(1) occupancy counter — nothing on the dispatch hot path.
pub const KEY_QUEUE_DEPTH: &str = "sim.queue_depth";

/// Per-node measurement state.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    /// Bytes handed to the link layer (counted even if the link drops them —
    /// the radio still transmitted).
    pub bytes_sent: u64,
    /// Bytes delivered to this node.
    pub bytes_received: u64,
    /// Messages sent.
    pub msgs_sent: u64,
    /// Messages delivered to this node.
    pub msgs_received: u64,
    /// Messages this node sent that the link dropped.
    pub msgs_dropped: u64,
    /// Closed connection intervals.
    intervals: Vec<(SimTime, SimTime)>,
    /// Currently-open connection start, if any.
    open_since: Option<SimTime>,
    /// Free-form named counters for protocol-specific accounting. Keys are
    /// interned [`Kind`]s (the same table as message kinds): the few dozen
    /// distinct telemetry names share one allocation process-wide, and the
    /// `&str` lookup in [`Metrics::bump`] never allocates.
    counters: HashMap<Kind, f64>,
    /// Named gauges (set-semantics: last write wins). Used for instantaneous
    /// sizes — cache entries, staged agents — where `bump` accumulation would
    /// be meaningless.
    gauges: HashMap<Kind, f64>,
}

impl Metrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Mark the start of an online period. Nested opens are idempotent (the
    /// earliest open wins), matching "is the radio up" semantics.
    pub fn connection_opened(&mut self, now: SimTime) {
        if self.open_since.is_none() {
            self.open_since = Some(now);
        }
    }

    /// Mark the end of an online period. A close without an open is ignored.
    pub fn connection_closed(&mut self, now: SimTime) {
        if let Some(start) = self.open_since.take() {
            self.intervals.push((start, now));
        }
    }

    /// Is a connection currently open?
    pub fn connection_open(&self) -> bool {
        self.open_since.is_some()
    }

    /// Total time online: closed intervals plus any still-open period up to
    /// `now`.
    pub fn total_connection_time(&self, now: SimTime) -> SimDuration {
        let closed: SimDuration = self.intervals.iter().map(|&(s, e)| e.since(s)).sum();
        match self.open_since {
            Some(start) => closed + now.since(start),
            None => closed,
        }
    }

    /// Number of completed connections.
    pub fn connection_count(&self) -> usize {
        self.intervals.len()
    }

    /// The closed intervals (for inspection in tests/reports).
    pub fn intervals(&self) -> &[(SimTime, SimTime)] {
        &self.intervals
    }

    /// Add `v` to a named counter. The key is interned the first time any
    /// node in the process sees it; steady-state bumps are a pure hash
    /// lookup with zero allocation (`Kind: Borrow<str>`).
    pub fn bump(&mut self, key: &str, v: f64) {
        match self.counters.get_mut(key) {
            Some(c) => *c += v,
            None => {
                self.counters.insert(Kind::intern(key), v);
            }
        }
    }

    /// Read a named counter (0 if never bumped).
    pub fn counter(&self, key: &str) -> f64 {
        self.counters.get(key).copied().unwrap_or(0.0)
    }

    /// All named counters, sorted by key (deterministic reporting). Borrows
    /// the keys — taking a snapshot clones nothing.
    pub fn counters_sorted(&self) -> Vec<(&str, f64)> {
        let mut v: Vec<(&str, f64)> =
            self.counters.iter().map(|(k, &x)| (k.as_str(), x)).collect();
        v.sort_by(|a, b| a.0.cmp(b.0));
        v
    }

    /// Set a named gauge to `v` (last write wins). Like `bump`, the key is
    /// interned on first sight and looked up alloc-free afterwards.
    pub fn set_gauge(&mut self, key: &str, v: f64) {
        match self.gauges.get_mut(key) {
            Some(g) => *g = v,
            None => {
                self.gauges.insert(Kind::intern(key), v);
            }
        }
    }

    /// Read a named gauge (0 if never set).
    pub fn gauge(&self, key: &str) -> f64 {
        self.gauges.get(key).copied().unwrap_or(0.0)
    }

    /// All named gauges, sorted by key.
    pub fn gauges_sorted(&self) -> Vec<(&str, f64)> {
        let mut v: Vec<(&str, f64)> =
            self.gauges.iter().map(|(k, &x)| (k.as_str(), x)).collect();
        v.sort_by(|a, b| a.0.cmp(b.0));
        v
    }
}

/// Registry of per-node metrics.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    per_node: Vec<Metrics>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Ensure capacity for `n` nodes.
    pub fn ensure(&mut self, n: usize) {
        while self.per_node.len() < n {
            self.per_node.push(Metrics::new());
        }
    }

    /// Metrics for one node.
    pub fn node(&self, id: usize) -> &Metrics {
        &self.per_node[id]
    }

    /// Mutable metrics for one node.
    pub fn node_mut(&mut self, id: usize) -> &mut Metrics {
        &mut self.per_node[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connection_intervals_sum() {
        let mut m = Metrics::new();
        m.connection_opened(SimTime(100));
        m.connection_closed(SimTime(300));
        m.connection_opened(SimTime(1000));
        m.connection_closed(SimTime(1500));
        assert_eq!(m.total_connection_time(SimTime(2000)), SimDuration(700));
        assert_eq!(m.connection_count(), 2);
        assert!(!m.connection_open());
    }

    #[test]
    fn open_interval_counts_up_to_now() {
        let mut m = Metrics::new();
        m.connection_opened(SimTime(0));
        assert!(m.connection_open());
        assert_eq!(m.total_connection_time(SimTime(500)), SimDuration(500));
        m.connection_closed(SimTime(800));
        assert_eq!(m.total_connection_time(SimTime(10_000)), SimDuration(800));
    }

    #[test]
    fn nested_opens_idempotent() {
        let mut m = Metrics::new();
        m.connection_opened(SimTime(100));
        m.connection_opened(SimTime(200)); // ignored
        m.connection_closed(SimTime(300));
        assert_eq!(m.total_connection_time(SimTime(300)), SimDuration(200));
    }

    #[test]
    fn close_without_open_ignored() {
        let mut m = Metrics::new();
        m.connection_closed(SimTime(100));
        assert_eq!(m.connection_count(), 0);
        assert_eq!(m.total_connection_time(SimTime(100)), SimDuration::ZERO);
    }

    #[test]
    fn counters() {
        let mut m = Metrics::new();
        m.bump("transactions", 1.0);
        m.bump("transactions", 2.0);
        m.bump("retries", 1.0);
        assert_eq!(m.counter("transactions"), 3.0);
        assert_eq!(m.counter("missing"), 0.0);
        let sorted = m.counters_sorted();
        assert_eq!(sorted[0].0, "retries");
        assert_eq!(sorted[1].0, "transactions");
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let mut m = Metrics::new();
        m.set_gauge("gateway.replay_entries", 3.0);
        m.set_gauge("gateway.replay_entries", 7.0);
        m.set_gauge("mas.completed_entries", 1.0);
        assert_eq!(m.gauge("gateway.replay_entries"), 7.0);
        assert_eq!(m.gauge("missing"), 0.0);
        let sorted = m.gauges_sorted();
        assert_eq!(sorted.len(), 2);
        assert_eq!(sorted[0].0, "gateway.replay_entries");
    }

    #[test]
    fn counter_keys_are_interned() {
        // Two Metrics instances bumping the same key share one allocation:
        // the sorted snapshots borrow str slices with identical addresses.
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        a.bump("telemetry.shared_key", 1.0);
        b.bump("telemetry.shared_key", 2.0);
        let ka = a.counters_sorted()[0].0 as *const str;
        let kb = b.counters_sorted()[0].0 as *const str;
        assert_eq!(ka, kb, "interned keys must share one allocation");
    }

    #[test]
    fn registry_grows() {
        let mut reg = MetricsRegistry::new();
        reg.ensure(3);
        reg.node_mut(2).bump("x", 1.0);
        assert_eq!(reg.node(2).counter("x"), 1.0);
        assert_eq!(reg.node(0).counter("x"), 0.0);
    }
}
