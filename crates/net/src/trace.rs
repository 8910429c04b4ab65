//! Event tracing: an optional record of every delivery the simulator makes,
//! for debugging protocols and asserting on wire behaviour in tests
//! (e.g. "the device sent exactly two HTTP requests after dispatch").

use crate::message::Kind;
use crate::time::SimTime;

/// One delivered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Delivery time.
    pub at: SimTime,
    /// Sender node.
    pub from: usize,
    /// Receiver node.
    pub to: usize,
    /// Message kind (interned — recording an entry never copies the string).
    pub kind: Kind,
    /// Wire size in bytes.
    pub bytes: usize,
    /// Trace id of the journey this delivery belongs to (0 = untraced); see
    /// [`crate::obs`].
    pub trace: u64,
}

/// Every delivery the simulator made, in delivery order.
#[derive(Debug, Default)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Record a delivery.
    pub fn record(&mut self, entry: TraceEntry) {
        self.entries.push(entry);
    }

    /// All entries, oldest first.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// Entries of a given message kind.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a TraceEntry> {
        self.entries.iter().filter(move |e| e.kind == kind)
    }

    /// Entries belonging to one observability trace id.
    pub fn of_trace(&self, trace: u64) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter().filter(move |e| e.trace == trace)
    }

    /// Entries between two nodes (either direction).
    pub fn between(&self, a: usize, b: usize) -> impl Iterator<Item = &TraceEntry> {
        self.entries
            .iter()
            .filter(move |e| (e.from == a && e.to == b) || (e.from == b && e.to == a))
    }

    /// Total bytes delivered to or from a node.
    pub fn bytes_touching(&self, node: usize) -> usize {
        self.entries
            .iter()
            .filter(|e| e.from == node || e.to == node)
            .map(|e| e.bytes)
            .sum()
    }

    /// Render as a human-readable log.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&format!(
                "{} {:>3} -> {:>3}  {:<18} {:>6} B\n",
                e.at, e.from, e.to, e.kind, e.bytes
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(at: u64, from: usize, to: usize, kind: &str, bytes: usize) -> TraceEntry {
        TraceEntry { at: SimTime(at), from, to, kind: kind.into(), bytes, trace: 0 }
    }

    #[test]
    fn records_and_filters() {
        let mut t = Trace::new();
        t.record(entry(1, 0, 1, "probe", 41));
        t.record(entry(2, 1, 0, "probe.ack", 41));
        t.record(entry(3, 0, 1, "http.request", 900));
        assert_eq!(t.entries().len(), 3);
        assert_eq!(t.of_kind("probe").count(), 1);
        assert_eq!(t.between(0, 1).count(), 3);
        assert_eq!(t.bytes_touching(0), 41 + 41 + 900);
        assert_eq!(t.bytes_touching(2), 0);
    }

    #[test]
    fn filters_by_trace_id() {
        let mut t = Trace::new();
        let mut tagged = entry(1, 0, 1, "http.request", 10);
        tagged.trace = 42;
        t.record(tagged);
        t.record(entry(2, 1, 0, "http.response", 10));
        assert_eq!(t.of_trace(42).count(), 1);
        assert_eq!(t.of_trace(0).count(), 1);
        assert_eq!(t.of_trace(7).count(), 0);
    }

    #[test]
    fn render_is_line_per_entry() {
        let mut t = Trace::new();
        t.record(entry(1_000_000, 0, 1, "x", 10));
        t.record(entry(2_000_000, 1, 0, "y", 20));
        assert_eq!(t.render().lines().count(), 2);
    }
}
