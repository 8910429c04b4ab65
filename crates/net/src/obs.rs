//! Causal observability: trace IDs, spans and latency histograms.
//!
//! The simulator's [`crate::metrics`] counters answer "how much in total";
//! the delivery [`crate::trace`] answers "what crossed the wire". Neither
//! can answer *"which hop of transaction #7 ate the latency"*. This module
//! adds the missing causal layer:
//!
//! * **Trace IDs** — minted at the device when a Packed Information is
//!   dispatched, then carried in the metadata of every message that belongs
//!   to that logical journey ([`ObsContext`] on [`crate::message::Message`]).
//!   The context rides in the modeled frame headers: it contributes nothing
//!   to [`crate::message::Message::wire_size`], so link timing and results
//!   are byte-identical with or without a collector attached.
//! * **Spans** — named intervals with parent links and begin/end sim-times
//!   (`pi.pack`, `http.upload`, `gateway.stage`, `itinerary.hop[i]`,
//!   `mas.exec`, `result.wait`, `result.fetch`), forming one tree per trace.
//! * **Histograms** — fixed log-bucket latency distributions per span stage,
//!   alloc-free on the record path, with p50/p90/p99/max extraction.
//!
//! Everything funnels through an optional [`Collector`] owned by the
//! simulator. When no collector is attached the instrumentation hooks on
//! [`crate::sim::Ctx`] are branch-and-return no-ops: no allocation, no
//! recording, no behavioural difference (asserted by test).
//!
//! **Tail sampling**: the collector's one span store is a [`TailSampler`].
//! It buffers spans per trace until the trace's root span closes, classifies
//! the completed trace (alert-touched > slow-beyond-tracked-p99 >
//! deterministic 1-in-N head sample) and either moves it into a
//! byte-budgeted reservoir or drops it. [`Collector::new`] keeps every trace
//! ([`SamplerConfig::keep_all`]), so it stores every span ever begun;
//! [`Collector::enable_sampling`] installs a sparser rate and a byte budget,
//! which is what a million-device run needs. Stage histograms keep recording
//! *unconditionally* on span close, so [`ObsSummary`] digests — and every
//! result derived from them — are byte-identical at any head rate or budget.
//! Retained traces feed per-bucket [`Exemplar`]s into the exposition layer
//! and are queryable by stage/duration through [`Collector::query_traces`]
//! (the `/traces` plane in [`crate::telemetry`]).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;

use crate::rng::SimRng;
use crate::time::SimTime;

/// Observability metadata carried by every message (in the modeled frame
/// headers — excluded from wire size). `trace == 0` means "untraced".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObsContext {
    /// Trace (journey) identifier; 0 = none.
    pub trace: u64,
    /// Span to parent remote work under; 0 = none.
    pub span: u32,
}

impl ObsContext {
    /// The untraced context.
    pub const NONE: ObsContext = ObsContext { trace: 0, span: 0 };

    /// True when no trace is attached.
    pub fn is_none(&self) -> bool {
        self.trace == 0
    }
}

/// One named interval in a trace tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span id (collector-global, 1-based; 0 is the null span).
    pub id: u32,
    /// Parent span id (0 = root of its trace).
    pub parent: u32,
    /// Owning trace id.
    pub trace: u64,
    /// Stage name (static — recording never allocates for the name).
    pub name: &'static str,
    /// Optional index (e.g. itinerary hop number).
    pub index: Option<u32>,
    /// Node the span was recorded on.
    pub node: usize,
    /// Begin sim-time.
    pub begin: SimTime,
    /// End sim-time (`None` while open).
    pub end: Option<SimTime>,
}

impl Span {
    /// Display label, e.g. `itinerary.hop[1]` or `mas.exec`.
    pub fn label(&self) -> String {
        match self.index {
            Some(i) => format!("{}[{i}]", self.name),
            None => self.name.to_owned(),
        }
    }

    /// Append this span's JSON object fields (`"trace"` through the optional
    /// `"end_us"`, without braces) to `out` — the one span encoding behind
    /// [`Collector::to_jsonl`] and the flight recorder. The name is
    /// JSON-escaped, so labels with quotes, backslashes or control
    /// characters can never corrupt a line.
    pub fn write_json_fields(&self, out: &mut String) {
        let _ = write!(out, "\"trace\":{},\"span\":{},\"parent\":{},\"name\":\"", self.trace, self.id, self.parent);
        write_json_escaped(out, self.name);
        out.push('"');
        if let Some(i) = self.index {
            let _ = write!(out, ",\"index\":{i}");
        }
        let _ = write!(out, ",\"node\":{},\"begin_us\":{}", self.node, self.begin.0);
        if let Some(e) = self.end {
            let _ = write!(out, ",\"end_us\":{}", e.0);
        }
    }
}

const BUCKETS: usize = 65;

/// Number of log buckets in a [`Histogram`] (bucket 0 = exact zeros, bucket
/// `i > 0` = values of bit-length `i`). Public so exposition renderers can
/// size their cumulative output.
pub const HISTOGRAM_BUCKETS: usize = BUCKETS;

/// Fixed log-bucket histogram over `u64` microsecond values.
///
/// Bucket `i > 0` holds values with bit-length `i` (the range
/// `[2^(i-1), 2^i)`); bucket 0 holds exact zeros. Recording touches one
/// array slot and three scalars — no allocation, ever. Percentiles are
/// bucket-resolution upper bounds clamped to the exact observed max, so
/// `percentile(p)` never under-reports and over-reports by less than 2x.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { buckets: [0; BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Index of the bucket holding `value` (0 for exact zeros, else the
    /// value's bit-length). Public so exemplars can be pinned to the bucket
    /// their trace's latency landed in.
    pub fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Record one value (alloc-free).
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `p` in `[0, 1]`, at bucket resolution.
    ///
    /// Returns the upper bound of the bucket containing the rank-`⌈p·n⌉`
    /// value, clamped to the exact max — an upper bound on the true
    /// percentile that is tight to within one power of two.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if i == 0 { 0 } else { (1u64 << i) - 1 };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Median (bucket resolution).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 90th percentile (bucket resolution).
    pub fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    /// 99th percentile (bucket resolution).
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Merge another histogram in (bucket-wise addition — commutative and
    /// associative, so parallel shard merges are order-independent).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Raw per-bucket counts (length [`HISTOGRAM_BUCKETS`]), for exposition
    /// renderers that need cumulative `le` families.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Inclusive upper bound of bucket `i`: 0 for bucket 0, `2^i - 1` above.
    pub fn bucket_upper(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            (1u64 << i) - 1
        }
    }

    /// Rebuild a histogram from exported parts (exposition round-trip). The
    /// count is recomputed from the buckets; `sum`/`max` are taken as given.
    pub fn from_parts(buckets: &[u64], sum: u64, max: u64) -> Histogram {
        let mut h = Histogram::new();
        for (i, &n) in buckets.iter().enumerate().take(BUCKETS) {
            h.buckets[i] = n;
            h.count += n;
        }
        h.sum = sum;
        h.max = max;
        h
    }

    /// The delta since an `earlier` snapshot of the same cumulative series:
    /// per-bucket/`count`/`sum` subtraction (saturating, so a reset snapshot
    /// degrades to the full histogram instead of wrapping). `max` cannot be
    /// windowed from cumulative data, so the cumulative max is kept — an
    /// upper bound, consistent with `percentile`'s clamping contract.
    pub fn diff(&self, earlier: &Histogram) -> Histogram {
        let mut d = Histogram::new();
        for (i, (a, b)) in self.buckets.iter().zip(earlier.buckets.iter()).enumerate() {
            d.buckets[i] = a.saturating_sub(*b);
        }
        d.count = self.count.saturating_sub(earlier.count);
        d.sum = self.sum.saturating_sub(earlier.sum);
        d.max = self.max;
        d
    }
}

/// One exemplar: the concrete retained trace behind a histogram bucket.
/// `value_us` is the span latency that landed in the bucket, `ts_us` the
/// sim-time the span closed — "latest wins" on overwrite, ties broken by the
/// larger trace id, so merges are deterministic and order-insensitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// Retained trace id the bucket points back to.
    pub trace: u64,
    /// The recorded latency (µs) that fell into the bucket.
    pub value_us: u64,
    /// Sim-time (µs) the span closed.
    pub ts_us: u64,
}

/// Why a completed trace was retained. Variant order is eviction priority:
/// under byte pressure `Head` samples go first, `Alert` traces last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SampleClass {
    /// Deterministic 1-in-N head sample (the unconditional baseline).
    Head,
    /// Root latency beyond the tracked p99 of its root stage.
    Slow,
    /// The trace was touched by an SLO alert episode.
    Alert,
}

impl SampleClass {
    /// Stable lower-case name (`head` / `slow` / `alert`), used by the
    /// `/traces` exposition.
    pub fn as_str(&self) -> &'static str {
        match self {
            SampleClass::Head => "head",
            SampleClass::Slow => "slow",
            SampleClass::Alert => "alert",
        }
    }
}

/// Tail-sampler configuration.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Reservoir byte budget: retained span storage never exceeds this
    /// (lowest-priority, oldest traces are evicted first).
    pub budget_bytes: usize,
    /// Head-sample rate: 1-in-N completed traces are retained regardless of
    /// latency or alerts. `1` retains every completed trace.
    pub head_every: u64,
    /// Observations a root stage must accumulate before "slow" (beyond its
    /// tracked p99) classification arms — avoids retaining the warm-up.
    pub slow_min_count: u64,
    /// Seed for the deterministic head-sample decision stream.
    pub seed: u64,
}

impl Default for SamplerConfig {
    fn default() -> SamplerConfig {
        SamplerConfig { budget_bytes: 512 << 10, head_every: 64, slow_min_count: 32, seed: 0 }
    }
}

impl SamplerConfig {
    /// Retain every trace: head rate 1 and no byte budget, so the reservoir
    /// plus the still-buffering traces hold every span ever begun. This is
    /// what [`Collector::new`] attaches.
    pub fn keep_all() -> SamplerConfig {
        SamplerConfig { budget_bytes: usize::MAX, head_every: 1, ..SamplerConfig::default() }
    }
}

/// Point-in-time sampler accounting, exposed as `obs.*` gauges by the
/// telemetry servers and harvested into bench reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SamplerStats {
    /// Traces currently held in the reservoir.
    pub retained_traces: u64,
    /// Spans currently held in the reservoir.
    pub retained_spans: u64,
    /// Spans dropped so far (unretained classifications plus evictions).
    pub dropped_spans: u64,
    /// Reservoir bytes currently accounted.
    pub sampler_bytes: u64,
    /// The configured byte budget.
    pub budget_bytes: u64,
    /// Exemplar slots currently populated across all stages.
    pub exemplars: u64,
    /// Traces still buffering (root span not yet closed).
    pub pending_traces: u64,
}

/// A retained trace in the reservoir.
#[derive(Debug, Clone)]
pub struct RetainedTrace {
    /// Trace id.
    pub trace: u64,
    /// Stage name of the root span that triggered classification.
    pub root: &'static str,
    /// Begin of the classifying root span.
    pub begin: SimTime,
    /// Latest root close seen.
    pub end: SimTime,
    /// Longest root duration (µs) closed so far: the classifying root's, or
    /// a later root's that joined the retained trace and ran longer.
    pub duration_us: u64,
    /// Why the trace was kept.
    pub class: SampleClass,
    /// Insertion sequence (eviction tie-break: oldest first within a class).
    pub seq: u64,
    /// The trace's spans, in creation order.
    pub spans: Vec<Span>,
}

/// One `/traces` query result row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHit {
    /// Trace id.
    pub trace: u64,
    /// Root stage name.
    pub root: &'static str,
    /// Root duration in µs.
    pub duration_us: u64,
    /// Why the trace was retained.
    pub class: SampleClass,
    /// Spans stored for the trace.
    pub spans: usize,
    /// Begin time of the root span.
    pub begin: SimTime,
}

/// FNV-1a over a stage name — the partition-stable half of the head-sample
/// key (the other half is the root span's begin time, which shard
/// partitioning provably does not perturb).
fn fnv64(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Record `value` into the histogram for `name`, creating the series on
/// first sight (shared by the collector's stage table and the sampler's
/// root-stage p99 tracker).
fn record_into(stages: &mut Vec<(&'static str, Histogram)>, name: &'static str, value: u64) {
    match stages.iter_mut().find(|(n, _)| *n == name) {
        Some((_, h)) => h.record(value),
        None => {
            let mut h = Histogram::new();
            h.record(value);
            stages.push((name, h));
        }
    }
}

/// Open-span bookkeeping the sampler keeps outside span storage, so closing
/// a span records its stage histogram even after its storage was evicted —
/// the invariant that keeps [`ObsSummary`] independent of sampling.
#[derive(Debug, Clone, Copy)]
struct OpenSpan {
    trace: u64,
    parent: u32,
    name: &'static str,
    begin: SimTime,
}

/// Span buffer of one not-yet-classified (or classified-dropped) trace.
#[derive(Debug, Default)]
struct TraceBuf {
    spans: Vec<Span>,
    /// Spans begun and not yet closed.
    open: u32,
    /// The trace classified as "drop": closed spans are discarded, open
    /// stragglers are discarded as they close.
    dropped: bool,
}

/// The tail-sampling engine: per-trace buffers, a classified byte-budgeted
/// reservoir (which `/traces` queries directly) and the per-bucket exemplar
/// table.
#[derive(Debug)]
pub struct TailSampler {
    cfg: SamplerConfig,
    /// trace id → buffered spans (incomplete or classified-dropped traces).
    pending: HashMap<u64, TraceBuf>,
    /// span id → out-of-storage close bookkeeping for every open span.
    open: HashMap<u32, OpenSpan>,
    retained: Vec<RetainedTrace>,
    /// trace id → index into `retained`.
    retained_index: HashMap<u64, usize>,
    /// Traces touched by an alert episode (classification pins them).
    alert_traces: HashSet<u64>,
    /// Per-root-stage duration histograms tracking the "slow" threshold.
    root_stats: Vec<(&'static str, Histogram)>,
    /// stage → (bucket, exemplar), inner vec sorted by bucket.
    exemplars: BTreeMap<&'static str, Vec<(u8, Exemplar)>>,
    seq: u64,
    bytes: usize,
    dropped_spans: u64,
}

impl TailSampler {
    fn new(cfg: SamplerConfig) -> TailSampler {
        TailSampler {
            cfg,
            pending: HashMap::new(),
            open: HashMap::new(),
            retained: Vec::new(),
            retained_index: HashMap::new(),
            alert_traces: HashSet::new(),
            root_stats: Vec::new(),
            exemplars: BTreeMap::new(),
            seq: 0,
            bytes: 0,
            dropped_spans: 0,
        }
    }

    /// Accounted storage cost of a retained trace with `spans` spans.
    fn cost(spans: usize) -> usize {
        spans * std::mem::size_of::<Span>() + std::mem::size_of::<RetainedTrace>()
    }

    fn begin(&mut self, span: Span) {
        self.open.insert(
            span.id,
            OpenSpan { trace: span.trace, parent: span.parent, name: span.name, begin: span.begin },
        );
        if let Some(&slot) = self.retained_index.get(&span.trace) {
            // Late root on an already-retained trace (e.g. `page.deliver`
            // joining an alert episode): append straight to the reservoir.
            self.retained[slot].spans.push(span);
            self.bytes += std::mem::size_of::<Span>();
            self.evict_to_budget();
            return;
        }
        let buf = self.pending.entry(span.trace).or_default();
        buf.open += 1;
        buf.spans.push(span);
    }

    fn set_exemplar(&mut self, stage: &'static str, value_us: u64, trace: u64, ts_us: u64) {
        let bucket = Histogram::bucket_of(value_us) as u8;
        let slots = self.exemplars.entry(stage).or_default();
        let fresh = Exemplar { trace, value_us, ts_us };
        match slots.binary_search_by_key(&bucket, |(b, _)| *b) {
            Ok(i) => {
                let cur = &mut slots[i].1;
                if ts_us > cur.ts_us || (ts_us == cur.ts_us && trace > cur.trace) {
                    *cur = fresh;
                }
            }
            Err(i) => slots.insert(i, (bucket, fresh)),
        }
    }

    /// Classify a completed trace at its first root close. `None` = drop.
    fn classify(
        &mut self,
        trace: u64,
        root: &'static str,
        begin: SimTime,
        micros: u64,
    ) -> Option<SampleClass> {
        let alert = self.alert_traces.contains(&trace);
        let slow = match self.root_stats.iter().find(|(n, _)| *n == root) {
            Some((_, h)) => h.count() >= self.cfg.slow_min_count && micros > h.p99(),
            None => false,
        };
        // Track the threshold *after* classifying, so a trace never competes
        // against its own latency.
        record_into(&mut self.root_stats, root, micros);
        if alert {
            return Some(SampleClass::Alert);
        }
        if slow {
            return Some(SampleClass::Slow);
        }
        let n = self.cfg.head_every.max(1);
        if n == 1 {
            return Some(SampleClass::Head);
        }
        // Deterministic and partition-stable: keyed by (root stage, begin
        // time), both invariant under resharding, through the seeded stream.
        let key = fnv64(root) ^ begin.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut rng = SimRng::new(self.cfg.seed ^ key);
        rng.chance(1.0 / n as f64).then_some(SampleClass::Head)
    }

    /// Close span `id` at `at` (`micros` = its latency, already recorded
    /// into the collector's stage table by the caller).
    fn close(&mut self, id: u32, open: OpenSpan, at: SimTime, micros: u64) {
        if let Some(&slot) = self.retained_index.get(&open.trace) {
            let entry = &mut self.retained[slot];
            if let Some(s) = entry.spans.iter_mut().find(|s| s.id == id) {
                s.end = Some(at);
            }
            if open.parent == 0 {
                entry.end = entry.end.max(at);
                entry.duration_us = entry.duration_us.max(micros);
            }
            self.set_exemplar(open.name, micros, open.trace, at.0);
            return;
        }
        let Some(buf) = self.pending.get_mut(&open.trace) else {
            // Storage evicted after retention: the histogram record above is
            // the only thing left to do for this span.
            self.dropped_spans += 1;
            return;
        };
        buf.open = buf.open.saturating_sub(1);
        if buf.dropped {
            if let Some(i) = buf.spans.iter().position(|s| s.id == id) {
                buf.spans.remove(i);
            }
            self.dropped_spans += 1;
            if buf.open == 0 && buf.spans.is_empty() {
                self.pending.remove(&open.trace);
            }
            return;
        }
        if let Some(s) = buf.spans.iter_mut().find(|s| s.id == id) {
            s.end = Some(at);
        }
        if open.parent != 0 {
            return;
        }
        // First root close: the trace is complete — classify it.
        let verdict = self.classify(open.trace, open.name, open.begin, micros);
        match verdict {
            Some(class) => {
                let buf = self.pending.remove(&open.trace).expect("trace buffered");
                let entry = RetainedTrace {
                    trace: open.trace,
                    root: open.name,
                    begin: open.begin,
                    end: at,
                    duration_us: micros,
                    class,
                    seq: self.seq,
                    spans: buf.spans,
                };
                self.seq += 1;
                let exemplars: Vec<(&'static str, u64, u64)> = entry
                    .spans
                    .iter()
                    .filter_map(|s| {
                        s.end.map(|e| (s.name, e.0.saturating_sub(s.begin.0), e.0))
                    })
                    .collect();
                for (name, value, ts) in exemplars {
                    self.set_exemplar(name, value, open.trace, ts);
                }
                self.bytes += Self::cost(entry.spans.len());
                self.retained_index.insert(open.trace, self.retained.len());
                self.retained.push(entry);
                self.evict_to_budget();
            }
            None => {
                let buf = self.pending.get_mut(&open.trace).expect("trace buffered");
                let closed = buf.spans.iter().filter(|s| s.end.is_some()).count() as u64;
                buf.spans.retain(|s| s.end.is_none());
                buf.dropped = true;
                let gone = buf.open == 0 && buf.spans.is_empty();
                self.dropped_spans += closed;
                if gone {
                    self.pending.remove(&open.trace);
                }
            }
        }
    }

    fn evict_to_budget(&mut self) {
        while self.bytes > self.cfg.budget_bytes && !self.retained.is_empty() {
            let victim = self
                .retained
                .iter()
                .enumerate()
                .min_by_key(|(_, r)| (r.class, r.seq))
                .map(|(i, _)| i)
                .expect("non-empty reservoir");
            self.evict(victim);
        }
    }

    fn evict(&mut self, i: usize) {
        let victim = self.retained.swap_remove(i);
        self.retained_index.remove(&victim.trace);
        if i < self.retained.len() {
            self.retained_index.insert(self.retained[i].trace, i);
        }
        self.bytes = self.bytes.saturating_sub(Self::cost(victim.spans.len()));
        // Open spans of the evicted trace still close correctly (histogram
        // via the open map); they are counted dropped at their own close.
        self.dropped_spans += victim.spans.iter().filter(|s| s.end.is_some()).count() as u64;
    }

    fn stats(&self) -> SamplerStats {
        SamplerStats {
            retained_traces: self.retained.len() as u64,
            retained_spans: self.retained.iter().map(|r| r.spans.len() as u64).sum(),
            dropped_spans: self.dropped_spans,
            sampler_bytes: self.bytes as u64,
            budget_bytes: self.cfg.budget_bytes as u64,
            exemplars: self.exemplars.values().map(|v| v.len() as u64).sum(),
            pending_traces: self.pending.len() as u64,
        }
    }
}

/// An SLO alert transition recorded into the [`Collector`] timeline:
/// `fired == true` is `AlertFired`, `false` is `AlertResolved`.
///
/// Events identify nodes by their partition-stable *label* (not the
/// shard-local `NodeId`), so alert timelines from different shardings of the
/// same topology merge into identical sequences. Deliberately *not* part of
/// [`ObsSummary`] — the f64 observation would break the summary's byte-equal
/// `Eq` contract that the sharded soak asserts on.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsEvent {
    /// Sim-time of the transition.
    pub at: SimTime,
    /// Partition-stable label of the node that evaluated the rule.
    pub node_label: u64,
    /// Rule name, e.g. `p99.gateway.stage`.
    pub rule: String,
    /// Scrape target the rule was evaluated against, e.g. `gw-0`.
    pub instance: String,
    /// `true` = AlertFired, `false` = AlertResolved.
    pub fired: bool,
    /// The observed value at the transition.
    pub value: f64,
    /// The rule's limit.
    pub limit: f64,
    /// Trace id of the alert episode (minted at fire, reused at resolve).
    pub trace: u64,
    /// Exemplar trace id behind the breached signal (0 = none): for stage
    /// rules, the retained trace whose latency sits in the breached
    /// histogram's worst populated bucket.
    pub exemplar: u64,
}

/// Append `s` to `out` as JSON string *content* (no surrounding quotes),
/// escaping quotes, backslashes and control characters — rule names and
/// instance labels are operator input and must never corrupt a JSONL line.
pub fn write_json_escaped(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl ObsEvent {
    /// One-line JSON rendering (used by flight-recorder dumps). Labels are
    /// escaped, so hostile rule/instance names round-trip as valid JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"event\":\"");
        out.push_str(if self.fired { "AlertFired" } else { "AlertResolved" });
        let _ = write!(out, "\",\"at_us\":{},\"node_label\":{},\"rule\":\"", self.at.0, self.node_label);
        write_json_escaped(&mut out, &self.rule);
        out.push_str("\",\"instance\":\"");
        write_json_escaped(&mut out, &self.instance);
        let _ = write!(
            out,
            "\",\"value\":{},\"limit\":{},\"trace\":{},\"exemplar\":{}}}",
            self.value, self.limit, self.trace, self.exemplar
        );
        out
    }
}

/// Aggregated per-stage latency distributions plus reliability counters —
/// the portable digest of a run that bench reports embed as their `obs`
/// section. Merging is order-independent (see [`Histogram::merge`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObsSummary {
    /// `(stage name, latency histogram in µs)`, sorted by name.
    pub stages: Vec<(String, Histogram)>,
    /// Total retransmissions / transfer retries observed.
    pub retries: u64,
    /// Total messages dropped by the link model.
    pub drops: u64,
    /// Traces started.
    pub traces: u64,
}

impl ObsSummary {
    /// Merge another summary in.
    pub fn merge(&mut self, other: &ObsSummary) {
        for (name, hist) in &other.stages {
            match self.stages.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                Ok(i) => self.stages[i].1.merge(hist),
                Err(i) => self.stages.insert(i, (name.clone(), hist.clone())),
            }
        }
        self.retries += other.retries;
        self.drops += other.drops;
        self.traces += other.traces;
    }
}

/// The span/histogram sink attached to a simulator via
/// `Simulator::enable_obs()`.
#[derive(Debug)]
pub struct Collector {
    stages: Vec<(&'static str, Histogram)>,
    events: Vec<ObsEvent>,
    next_trace: u64,
    /// Monotone span-id counter (1-based; ids follow creation order).
    next_span: u32,
    /// The one span store.
    sampler: TailSampler,
}

impl Default for Collector {
    fn default() -> Collector {
        Collector::new()
    }
}

impl Collector {
    /// An empty collector that keeps every trace
    /// ([`SamplerConfig::keep_all`]).
    pub fn new() -> Collector {
        Collector {
            stages: Vec::new(),
            events: Vec::new(),
            next_trace: 0,
            next_span: 0,
            sampler: TailSampler::new(SamplerConfig::keep_all()),
        }
    }

    /// Replace the sampler's configuration (head rate, byte budget, seed).
    /// Must be called before any span is recorded (re-sampling a
    /// half-recorded run is undefined, so this panics instead).
    pub fn enable_sampling(&mut self, cfg: SamplerConfig) {
        assert!(
            self.next_span == 0,
            "enable_sampling must run before any span is recorded"
        );
        self.sampler = TailSampler::new(cfg);
    }

    /// Sampler accounting.
    pub fn sampler_stats(&self) -> SamplerStats {
        self.sampler.stats()
    }

    /// Per-stage exemplars: `(stage, (bucket, exemplar) rows sorted by
    /// bucket)`, sorted by stage name.
    pub fn exemplars(&self) -> Vec<(&'static str, &[(u8, Exemplar)])> {
        self.sampler.exemplars.iter().map(|(k, v)| (*k, v.as_slice())).collect()
    }

    /// Mint the next trace id (1-based; deterministic — a plain counter).
    pub fn new_trace(&mut self) -> u64 {
        self.next_trace += 1;
        self.next_trace
    }

    /// Number of traces minted.
    pub fn traces(&self) -> u64 {
        self.next_trace
    }

    /// Open a span; returns its id.
    pub fn begin_span(
        &mut self,
        trace: u64,
        parent: u32,
        name: &'static str,
        index: Option<u32>,
        node: usize,
        at: SimTime,
    ) -> u32 {
        self.next_span += 1;
        let id = self.next_span;
        self.sampler.begin(Span { id, parent, trace, name, index, node, begin: at, end: None });
        id
    }

    /// Close a span, recording its latency into the stage histogram.
    /// Idempotent: closing a closed (or null) span is a no-op, so e.g. both
    /// the transfer-ack and the result-arrival paths may try to end
    /// `gateway.stage`. Stage histograms record whether or not the span's
    /// trace ends up retained — sampling never changes [`ObsSummary`].
    pub fn end_span(&mut self, span: u32, at: SimTime) {
        let Some(open) = self.sampler.open.remove(&span) else {
            return;
        };
        let micros = at.0.saturating_sub(open.begin.0);
        record_into(&mut self.stages, open.name, micros);
        self.sampler.close(span, open, at, micros);
    }

    /// All stored spans sorted by id (= creation order): the reservoir plus
    /// still-buffering traces. With [`SamplerConfig::keep_all`] this is
    /// every span ever begun.
    pub fn spans_snapshot(&self) -> Vec<&Span> {
        let sampler = &self.sampler;
        let mut v: Vec<&Span> = sampler
            .pending
            .values()
            .flat_map(|b| b.spans.iter())
            .chain(sampler.retained.iter().flat_map(|r| r.spans.iter()))
            .collect();
        v.sort_by_key(|s| s.id);
        v
    }

    /// Record an alert transition into the timeline. The episode's trace is
    /// pinned: its classification becomes `Alert`, the last class to be
    /// evicted under byte pressure.
    pub fn record_event(&mut self, event: ObsEvent) {
        if event.trace != 0 {
            self.sampler.alert_traces.insert(event.trace);
        }
        self.events.push(event);
    }

    /// Alert transitions, in recording order.
    pub fn events(&self) -> &[ObsEvent] {
        &self.events
    }

    /// Spans belonging to one trace, in creation order (still stored — a
    /// dropped trace yields nothing).
    pub fn spans_for(&self, trace: u64) -> impl Iterator<Item = &Span> {
        let sampler = &self.sampler;
        let slice: &[Span] = match sampler.retained_index.get(&trace) {
            Some(&i) => &sampler.retained[i].spans,
            None => sampler.pending.get(&trace).map(|b| b.spans.as_slice()).unwrap_or(&[]),
        };
        slice.iter()
    }

    /// Retained traces currently in the reservoir.
    pub fn retained(&self) -> &[RetainedTrace] {
        &self.sampler.retained
    }

    /// The `/traces` query engine: retained traces filtered by root stage
    /// and minimum root duration, sorted by duration (longest first, trace
    /// id as tie-break), truncated to `limit`.
    pub fn query_traces(&self, stage: Option<&str>, min_us: u64, limit: usize) -> Vec<TraceHit> {
        let mut hits: Vec<TraceHit> = self
            .sampler
            .retained
            .iter()
            .filter(|r| stage.is_none_or(|st| r.root == st) && r.duration_us >= min_us)
            .map(|r| TraceHit {
                trace: r.trace,
                root: r.root,
                duration_us: r.duration_us,
                class: r.class,
                spans: r.spans.len(),
                begin: r.begin,
            })
            .collect();
        hits.sort_by(|a, b| {
            b.duration_us.cmp(&a.duration_us).then(a.trace.cmp(&b.trace))
        });
        hits.truncate(limit);
        hits
    }

    /// Per-stage latency histograms, sorted by stage name.
    pub fn stages(&self) -> Vec<(&'static str, &Histogram)> {
        let mut v: Vec<_> = self.stages.iter().map(|(n, h)| (*n, h)).collect();
        v.sort_by_key(|(n, _)| *n);
        v
    }

    /// Portable digest (retries/drops are filled in by the caller, which
    /// has access to the simulator's metrics).
    pub fn summary(&self) -> ObsSummary {
        let mut stages: Vec<(String, Histogram)> =
            self.stages.iter().map(|(n, h)| ((*n).to_owned(), h.clone())).collect();
        stages.sort_by(|a, b| a.0.cmp(&b.0));
        ObsSummary { stages, retries: 0, drops: 0, traces: self.next_trace }
    }

    /// Deterministic text timeline for one trace: each span on its own line,
    /// indented under its parent, with begin/end offsets (in seconds)
    /// relative to the trace's first span.
    pub fn render_trace(&self, trace: u64) -> String {
        let spans: Vec<&Span> = self.spans_for(trace).collect();
        let Some(origin) = spans.iter().map(|s| s.begin.0).min() else {
            return String::new();
        };
        let mut out = String::new();
        let mut roots: Vec<&Span> =
            spans.iter().copied().filter(|s| s.parent == 0).collect();
        roots.sort_by_key(|s| (s.begin.0, s.id));
        for root in roots {
            self.render_span(&mut out, &spans, root, origin, 0);
        }
        out
    }

    fn render_span(
        &self,
        out: &mut String,
        spans: &[&Span],
        span: &Span,
        origin: u64,
        depth: usize,
    ) {
        let begin = (span.begin.0 - origin) as f64 / 1e6;
        let end = span
            .end
            .map(|e| format!("{:8.3}s", (e.0 - origin) as f64 / 1e6))
            .unwrap_or_else(|| "    open".to_owned());
        let _ = writeln!(
            out,
            "[{begin:8.3}s – {end}] {:indent$}{}",
            "",
            span.label(),
            indent = depth * 2
        );
        let mut children: Vec<&Span> =
            spans.iter().copied().filter(|s| s.parent == span.id).collect();
        children.sort_by_key(|s| (s.begin.0, s.id));
        for child in children {
            self.render_span(out, spans, child, origin, depth + 1);
        }
    }

    /// JSONL export: one JSON object per span, in creation order (see
    /// [`Span::write_json_fields`]).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans_snapshot() {
            out.push('{');
            s.write_json_fields(&mut out);
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_default_is_none() {
        assert!(ObsContext::default().is_none());
        assert!(ObsContext::NONE.is_none());
        assert!(!ObsContext { trace: 3, span: 0 }.is_none());
    }

    #[test]
    fn histogram_percentiles_bracket_the_data() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 1000, 5000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 5000);
        assert_eq!(h.percentile(1.0), 5000);
        // p50 covers the rank-3 value (30): upper bound of its bucket.
        assert!(h.p50() >= 30 && h.p50() < 64);
        assert!(h.p99() <= h.max());
        assert_eq!(Histogram::new().p50(), 0);
    }

    #[test]
    fn histogram_zero_goes_to_bucket_zero() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn histogram_merge_is_bucketwise() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [1u64, 7, 100] {
            a.record(v);
            all.record(v);
        }
        for v in [3u64, 900, 90000] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn spans_nest_and_close_idempotently() {
        let mut c = Collector::new();
        let t = c.new_trace();
        let root = c.begin_span(t, 0, "journey", None, 3, SimTime(0));
        let child = c.begin_span(t, root, "http.upload", None, 3, SimTime(10));
        c.end_span(child, SimTime(1_010));
        c.end_span(child, SimTime(9_999_999)); // ignored
        c.end_span(0, SimTime(5)); // null span: no-op
        c.end_span(root, SimTime(2_000));
        let spans: Vec<_> = c.spans_for(t).collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[1].end, Some(SimTime(1_010)));
        let stages = c.stages();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].0, "http.upload");
        assert_eq!(stages[0].1.max(), 1_000);
    }

    #[test]
    fn timeline_renders_nested_tree() {
        let mut c = Collector::new();
        let t = c.new_trace();
        let root = c.begin_span(t, 0, "journey", None, 0, SimTime(1_000_000));
        let hop = c.begin_span(t, root, "itinerary.hop", Some(1), 4, SimTime(1_500_000));
        c.end_span(hop, SimTime(2_500_000));
        c.end_span(root, SimTime(3_000_000));
        let txt = c.render_trace(t);
        let lines: Vec<&str> = txt.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("journey"));
        assert!(lines[1].contains("  itinerary.hop[1]"), "{txt}");
        assert!(lines[1].contains("0.500s"), "{txt}");
        // Unknown trace renders empty.
        assert_eq!(c.render_trace(999), "");
    }

    #[test]
    fn jsonl_is_one_object_per_span() {
        let mut c = Collector::new();
        let t = c.new_trace();
        let s = c.begin_span(t, 0, "mas.exec", Some(0), 2, SimTime(7));
        c.end_span(s, SimTime(11));
        let jsonl = c.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1);
        assert!(jsonl.contains("\"name\":\"mas.exec\""));
        assert!(jsonl.contains("\"index\":0"));
        assert!(jsonl.contains("\"end_us\":11"));
    }

    #[test]
    fn summary_merge_is_order_independent() {
        let mk = |vals: &[u64]| {
            let mut c = Collector::new();
            let t = c.new_trace();
            for &v in vals {
                let s = c.begin_span(t, 0, "x", None, 0, SimTime(0));
                c.end_span(s, SimTime(v));
            }
            c.summary()
        };
        let a = mk(&[5, 10]);
        let b = mk(&[700, 9000]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn json_escaping_neutralizes_hostile_labels() {
        let mut out = String::new();
        write_json_escaped(&mut out, "a\"b\\c\nd\re\tf\u{1}g");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\re\\tf\\u0001g");
        let event = ObsEvent {
            at: SimTime(9),
            node_label: 2,
            rule: "p99.\"weird\"\nrule".into(),
            instance: "gw\\0".into(),
            fired: true,
            value: 1.5,
            limit: 1.0,
            trace: 7,
            exemplar: 3,
        };
        let json = event.to_json();
        // Raw quote/backslash/newline never appear unescaped inside the
        // string values — count the structural quotes to prove it.
        assert!(!json.contains('\n'));
        assert!(json.contains("p99.\\\"weird\\\"\\nrule"));
        assert!(json.contains("gw\\\\0"));
        assert!(json.contains("\"exemplar\":3"));
        assert!(json.ends_with('}'));
    }

    /// Run one two-span journey (root `name` + one child) through `c`,
    /// returning the trace id. Root spans `[at, at + dur_us]`.
    fn journey(c: &mut Collector, name: &'static str, at: u64, dur_us: u64) -> u64 {
        let t = c.new_trace();
        let root = c.begin_span(t, 0, name, None, 0, SimTime(at));
        let child = c.begin_span(t, root, "child.step", None, 1, SimTime(at + 1));
        c.end_span(child, SimTime(at + 1 + dur_us / 2));
        c.end_span(root, SimTime(at + dur_us));
        t
    }

    #[test]
    fn sampling_never_changes_the_summary() {
        let run = |sparse: bool| {
            let mut c = Collector::new();
            if sparse {
                // Drop almost everything: summary must not notice.
                c.enable_sampling(SamplerConfig {
                    head_every: 1_000_000_000,
                    ..SamplerConfig::default()
                });
            }
            for i in 0..50u64 {
                journey(&mut c, "journey", i * 1_000, 400 + i);
            }
            c.summary()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn head_every_one_retains_every_trace() {
        let mut c = Collector::new();
        c.enable_sampling(SamplerConfig { head_every: 1, ..SamplerConfig::default() });
        for i in 0..8u64 {
            journey(&mut c, "journey", i * 1_000, 300);
        }
        let stats = c.sampler_stats();
        assert_eq!(stats.retained_traces, 8);
        assert_eq!(stats.retained_spans, 16);
        assert_eq!(stats.dropped_spans, 0);
        assert_eq!(stats.pending_traces, 0);
        assert!(stats.sampler_bytes > 0 && stats.sampler_bytes <= stats.budget_bytes);
        assert!(c.retained().iter().all(|r| r.class == SampleClass::Head));
    }

    #[test]
    fn new_collector_stores_every_span_in_id_order() {
        // Two interleaved traces, the second still open: the default
        // collector drops nothing and lists both, pending trace included.
        let mut c = Collector::new();
        let (a, b) = (c.new_trace(), c.new_trace());
        let ra = c.begin_span(a, 0, "journey", None, 0, SimTime(0));
        let rb = c.begin_span(b, 0, "journey", None, 1, SimTime(5));
        let ka = c.begin_span(a, ra, "child.step", None, 0, SimTime(10));
        let kb = c.begin_span(b, rb, "child.step", None, 1, SimTime(15));
        c.end_span(ka, SimTime(20));
        c.end_span(ra, SimTime(30));
        c.end_span(kb, SimTime(40));
        let ids: Vec<u32> = c.spans_snapshot().iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![ra, rb, ka, kb]);
        assert_eq!(c.spans_for(b).map(|s| s.id).collect::<Vec<_>>(), vec![rb, kb]);
        let stats = c.sampler_stats();
        assert_eq!((stats.retained_traces, stats.pending_traces, stats.dropped_spans), (1, 1, 0));
        assert_eq!(c.to_jsonl().lines().count(), 4);
    }

    #[test]
    fn unretained_traces_free_their_buffers() {
        let mut c = Collector::new();
        c.enable_sampling(SamplerConfig {
            head_every: 1_000_000_000,
            ..SamplerConfig::default()
        });
        let t = journey(&mut c, "journey", 0, 300);
        let stats = c.sampler_stats();
        assert_eq!(stats.retained_traces, 0);
        assert_eq!(stats.pending_traces, 0, "dropped trace still buffered");
        assert_eq!(stats.dropped_spans, 2);
        assert_eq!(c.spans_for(t).count(), 0);
        assert_eq!(c.spans_snapshot().len(), 0);
        // The stage histograms recorded anyway.
        assert_eq!(c.stages().iter().map(|(_, h)| h.count()).sum::<u64>(), 2);
    }

    #[test]
    fn alert_touched_trace_is_pinned() {
        let mut c = Collector::new();
        c.enable_sampling(SamplerConfig {
            head_every: 1_000_000_000,
            ..SamplerConfig::default()
        });
        let t = c.new_trace();
        let root = c.begin_span(t, 0, "slo.alert", None, 0, SimTime(10));
        c.record_event(ObsEvent {
            at: SimTime(20),
            node_label: 1,
            rule: "p99.x".into(),
            instance: "gw-0".into(),
            fired: true,
            value: 2.0,
            limit: 1.0,
            trace: t,
            exemplar: 0,
        });
        c.end_span(root, SimTime(5_000_000));
        let retained = c.retained();
        assert_eq!(retained.len(), 1);
        assert_eq!(retained[0].trace, t);
        assert_eq!(retained[0].class, SampleClass::Alert);
        assert_eq!(c.spans_for(t).count(), 1);
    }

    #[test]
    fn slow_outlier_is_retained_after_warmup() {
        let cfg = SamplerConfig {
            head_every: 1_000_000_000,
            slow_min_count: 8,
            ..SamplerConfig::default()
        };
        let mut c = Collector::new();
        c.enable_sampling(cfg);
        for i in 0..8u64 {
            journey(&mut c, "journey", i * 10_000, 100);
        }
        assert_eq!(c.retained().len(), 0, "warm-up must not classify slow");
        let slow = journey(&mut c, "journey", 900_000, 2_000_000);
        let retained = c.retained();
        assert_eq!(retained.len(), 1);
        assert_eq!(retained[0].trace, slow);
        assert_eq!(retained[0].class, SampleClass::Slow);
        assert_eq!(retained[0].duration_us, 2_000_000);
    }

    #[test]
    fn head_sampling_is_order_independent() {
        // The head decision is keyed by (root stage, begin time), so two
        // collectors seeing the same journeys in opposite order retain the
        // same set — the property that keeps resharded runs byte-identical.
        let begins: Vec<u64> = (0..64u64).map(|i| i * 7_919).collect();
        let run = |order: Vec<u64>| {
            let mut c = Collector::new();
            c.enable_sampling(SamplerConfig {
                head_every: 4,
                seed: 42,
                ..SamplerConfig::default()
            });
            for at in order {
                journey(&mut c, "journey", at, 500);
            }
            let mut kept: Vec<u64> = c.retained().iter().map(|r| r.begin.0).collect();
            kept.sort_unstable();
            kept
        };
        let fwd = run(begins.clone());
        let rev = run(begins.iter().rev().copied().collect());
        assert_eq!(fwd, rev);
        assert!(!fwd.is_empty() && fwd.len() < begins.len(), "kept {}", fwd.len());
    }

    #[test]
    fn byte_budget_evicts_heads_before_alerts() {
        let trace_cost = 2 * std::mem::size_of::<Span>()
            + std::mem::size_of::<RetainedTrace>();
        let mut c = Collector::new();
        c.enable_sampling(SamplerConfig {
            budget_bytes: 3 * trace_cost,
            head_every: 1,
            ..SamplerConfig::default()
        });
        // An alert-pinned trace first, then enough head samples to overflow.
        let pinned = c.new_trace();
        let root = c.begin_span(pinned, 0, "journey", None, 0, SimTime(1));
        let kid = c.begin_span(pinned, root, "child.step", None, 0, SimTime(2));
        c.record_event(ObsEvent {
            at: SimTime(3),
            node_label: 1,
            rule: "r".into(),
            instance: "i".into(),
            fired: true,
            value: 2.0,
            limit: 1.0,
            trace: pinned,
            exemplar: 0,
        });
        c.end_span(kid, SimTime(50));
        c.end_span(root, SimTime(100));
        for i in 0..6u64 {
            journey(&mut c, "journey", 1_000 + i * 1_000, 400);
        }
        let stats = c.sampler_stats();
        assert!(stats.sampler_bytes <= stats.budget_bytes, "{stats:?}");
        assert!(stats.retained_traces <= 3);
        assert!(stats.dropped_spans > 0);
        let retained = c.retained();
        assert!(
            retained.iter().any(|r| r.trace == pinned && r.class == SampleClass::Alert),
            "alert trace evicted before heads: {retained:?}"
        );
    }

    #[test]
    fn retained_traces_carry_exemplars_latest_wins() {
        let mut c = Collector::new();
        let a = journey(&mut c, "journey", 0, 1_000);
        let b = journey(&mut c, "journey", 10_000, 1_000);
        let rows = c.exemplars();
        let journey_rows = rows
            .iter()
            .find(|(n, _)| *n == "journey")
            .map(|(_, r)| *r)
            .expect("journey exemplars");
        // Both journeys land in the same bucket; the later close wins.
        assert_eq!(journey_rows.len(), 1);
        assert_eq!(journey_rows[0].0, Histogram::bucket_of(1_000) as u8);
        assert_eq!(journey_rows[0].1, Exemplar { trace: b, value_us: 1_000, ts_us: 11_000 });
        assert!(b > a);
        assert_eq!(c.sampler_stats().exemplars as usize, rows.iter().map(|(_, r)| r.len()).sum::<usize>());
    }

    #[test]
    fn query_traces_filters_sorts_and_limits() {
        let mut c = Collector::new();
        let slow = journey(&mut c, "journey", 0, 9_000);
        let fast = journey(&mut c, "journey", 20_000, 100);
        let other = journey(&mut c, "batch", 40_000, 5_000);
        let hits = c.query_traces(None, 0, 10);
        assert_eq!(
            hits.iter().map(|h| h.trace).collect::<Vec<_>>(),
            vec![slow, other, fast],
            "longest first"
        );
        assert!(hits.iter().all(|h| h.class == SampleClass::Head));
        let hits = c.query_traces(Some("journey"), 1_000, 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].trace, slow);
        assert_eq!(hits[0].root, "journey");
        assert_eq!(hits[0].spans, 2);
        assert_eq!(c.query_traces(None, 0, 1).len(), 1);
        assert_eq!(c.query_traces(Some("nope"), 0, 10).len(), 0);
        // The hit renders to a timeline.
        assert!(c.render_trace(slow).contains("journey"));
    }

    /// A late root that joins a retained trace and runs longer than the
    /// classifying root moves the duration `/traces` both reports and
    /// filters on.
    #[test]
    fn query_traces_filters_on_a_late_roots_duration() {
        let mut c = Collector::new();
        let t = c.new_trace();
        let alert = c.begin_span(t, 0, "slo.alert", None, 0, SimTime(0));
        c.end_span(alert, SimTime(100));
        let page = c.begin_span(t, 0, "page.deliver", None, 1, SimTime(200));
        c.end_span(page, SimTime(5_200));
        let hits = c.query_traces(None, 1_000, 10);
        assert_eq!(hits.len(), 1, "a 5,000 µs trace must pass ?min_us=1000");
        assert_eq!((hits[0].trace, hits[0].root, hits[0].duration_us), (t, "slo.alert", 5_000));
        assert_eq!(c.query_traces(Some("slo.alert"), 5_000, 10).len(), 1);
        // The stage filter matches the classifying root only.
        assert_eq!(c.query_traces(Some("page.deliver"), 0, 10).len(), 0);
        assert_eq!(c.query_traces(None, 5_001, 10).len(), 0);
    }
}
