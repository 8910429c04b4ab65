//! Operational telemetry: Prometheus-style exposition, health probes and the
//! flight recorder.
//!
//! PRs 1–3 gave every node raw counters ([`crate::metrics`]) and causal
//! latency histograms ([`crate::obs`]); this module turns them into signals
//! another *node in the simulation* can consume. Gateways and MAS servers
//! answer `GET /metrics` with the text exposition produced by
//! [`render_prom`], and `GET /healthz` with a liveness document — served over
//! the same modeled links as protocol traffic, so a monitor sees exactly the
//! staleness and loss a real scraper would. The in-sim scrapers
//! ([`crate::slo`], [`crate::federation`]) stream every body into the
//! [`HeldSnapshot`] they keep per target; [`parse_prom`], the inverse of
//! [`render_prom`], is that same ingest run on a fresh holder. There is no
//! other exposition parser outside tests: the owning parser the ingest
//! replaced is a `#[cfg(test)]` reference (`telemetry/oracle.rs`).
//!
//! The [`FlightRecorder`] is the post-mortem half: a bounded ring of recent
//! span/alert lines for one node, which the soak binary writes to
//! `target/flightrec/soak-<node>.jsonl` when a shape check fails, so a red
//! CI run ships its own diagnosis.
//!
//! Scrapes are *delta-encoded* end to end (see [`DeltaState`]): series
//! identities are interned once into [`SeriesId`]s, every observation stamps
//! the series that actually changed with a dirty epoch, and a scraper that
//! sends `GET /metrics?since=<epoch>` gets back only the changed series
//! under a `# EPOCH` header. Monitoring traffic then scales with *churn*,
//! not with series count — the property that lets the federation plane hold
//! hundreds of cells on one WAN ingress.
//!
//! Everything here is deterministic: snapshots sort by name, exposition
//! output is byte-stable across runs and shard counts, and nothing consults
//! the wall clock.

use std::borrow::Borrow;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;


use crate::http::{reply, HttpRequest, HttpStatus};
use crate::metrics::{Metrics, KEY_QUEUE_DEPTH};
use crate::obs::{Collector, Exemplar, Histogram, HISTOGRAM_BUCKETS};
use crate::sim::{Ctx, NodeId};
use crate::time::SimTime;

mod ingest;
#[cfg(test)]
mod oracle;
pub use ingest::{parse_prom, HeldSnapshot, Ingested};

/// Scrape endpoint path served by gateway and MAS nodes.
pub const PATH_METRICS: &str = "/metrics";
/// Liveness endpoint path served by gateway and MAS nodes.
pub const PATH_HEALTHZ: &str = "/healthz";
/// Trace query endpoint path (`/traces?stage=&min_us=&limit=&trace=`),
/// served wherever `/metrics` is.
pub const PATH_TRACES: &str = "/traces";

/// Retransmissions before a scrape or probe counts as failed, for every
/// scraper (SLO monitors and the federation scraper).
pub(crate) const SCRAPE_RETRIES: u32 = 1;
/// Scrapers ask for deltas (`?since=<held epoch>`), except that every Nth
/// round, the first included, scrapes full snapshots, bounding how long a
/// lost update could go unnoticed.
pub(crate) const RESYNC_EVERY: u32 = 8;

/// The scrape of one target: `GET /metrics?since=<since>` for a delta over
/// the epoch a scraper holds, or a full `GET /metrics` when `since` is
/// `None`.
pub(crate) fn scrape_request(since: Option<u64>) -> HttpRequest {
    match since {
        Some(e) => HttpRequest::new("GET", format!("{PATH_METRICS}?since={e}"), Vec::new()),
        None => HttpRequest::new("GET", PATH_METRICS, Vec::new()),
    }
}

/// Shared histogram family for per-stage latencies (one family, a `stage`
/// label per series — the idiomatic Prometheus shape for homogeneous units).
pub const STAGE_FAMILY: &str = "pdagent_stage_duration_us";

/// A deterministic point-in-time copy of one node's telemetry: named
/// counters (including the built-in byte/message counters), gauges, and the
/// per-stage latency histograms. Everything is sorted by name, so two
/// captures of identical state render identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// `(key, value)` counters, sorted by key.
    pub counters: Vec<(String, f64)>,
    /// `(key, value)` gauges, sorted by key.
    pub gauges: Vec<(String, f64)>,
    /// `(stage, histogram)`, sorted by stage name.
    pub stages: Vec<(String, Histogram)>,
    /// Per-stage bucket exemplars from the tail sampler, `(stage, rows)`
    /// sorted by stage name, each row's `(bucket, exemplar)` sorted by
    /// bucket. Empty when the producing node has no collector (or no
    /// retained trace yet) — an empty section renders nothing.
    pub exemplars: Vec<(String, Vec<(u8, Exemplar)>)>,
}

impl TelemetrySnapshot {
    /// Capture from a node's [`Metrics`] plus stage histograms (typically
    /// the simulation collector's; pass `&[]` when observability is off —
    /// the exposition simply omits the histogram families).
    pub fn capture(metrics: &Metrics, stages: &[(String, Histogram)]) -> TelemetrySnapshot {
        let counters: Vec<(String, f64)> =
            node_counters(metrics).into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
        let gauges: Vec<(String, f64)> =
            metrics.gauges_sorted().into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
        let mut stages: Vec<(String, Histogram)> = stages.to_vec();
        stages.sort_by(|a, b| a.0.cmp(&b.0));
        TelemetrySnapshot { counters, gauges, stages, exemplars: Vec::new() }
    }

    /// Read a counter by its original key (0 if absent).
    pub fn counter(&self, key: &str) -> f64 {
        match self.counters.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
            Ok(i) => self.counters[i].1,
            Err(_) => 0.0,
        }
    }

    /// Read a gauge by its original key (0 if absent).
    pub fn gauge(&self, key: &str) -> f64 {
        match self.gauges.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
            Ok(i) => self.gauges[i].1,
            Err(_) => 0.0,
        }
    }

    /// The latency histogram for one stage, if present.
    pub fn stage(&self, name: &str) -> Option<&Histogram> {
        match self.stages.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => Some(&self.stages[i].1),
            Err(_) => None,
        }
    }

    /// One stage's exemplar rows (`(bucket, exemplar)` sorted by bucket), if
    /// the snapshot carries any.
    pub fn exemplar_rows(&self, stage: &str) -> Option<&[(u8, Exemplar)]> {
        match self.exemplars.binary_search_by(|(n, _)| n.as_str().cmp(stage)) {
            Ok(i) => Some(&self.exemplars[i].1),
            Err(_) => None,
        }
    }

    /// The highest-bucket exemplar trace id for `stage` (0 when the
    /// snapshot has none) — the concrete trace sitting furthest out in the
    /// stage's latency tail, which is what an alert edge wants to point at.
    pub fn exemplar_for(&self, stage: &str) -> u64 {
        self.exemplar_rows(stage)
            .and_then(|rows| rows.last())
            .map(|(_, e)| e.trace)
            .unwrap_or(0)
    }
}

/// A node's counters in key order: the five built-in transport counters
/// merged into its dynamic counters. Both runs are sorted, so the stable
/// sort is a merge; on a key tie the built-in comes first.
fn node_counters(metrics: &Metrics) -> Vec<(&str, f64)> {
    let mut counters = vec![
        ("bytes_received", metrics.bytes_received as f64),
        ("bytes_sent", metrics.bytes_sent as f64),
        ("msgs_dropped", metrics.msgs_dropped as f64),
        ("msgs_received", metrics.msgs_received as f64),
        ("msgs_sent", metrics.msgs_sent as f64),
    ];
    counters.extend(metrics.counters_sorted());
    counters.sort_by(|a, b| a.0.cmp(b.0));
    counters
}

/// Map a free-form telemetry key to an exposition metric-name fragment:
/// anything outside `[a-zA-Z0-9_]` becomes `_` (`gateway.replays` →
/// `gateway_replays`). The original spelling still rides in the `key` label,
/// so parsing is lossless.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' })
        .collect()
}

/// Exposition-format label-value escaping: `\` → `\\`, `"` → `\"`,
/// newline → `\n`.
pub(crate) fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn unescape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

/// Render a float the way the exposition format expects, straight into a
/// reused buffer: integers without a trailing `.0` (counters are
/// conceptually integral), everything else via the shortest round-trip
/// `Display`.
pub(crate) fn write_value(out: &mut String, v: f64) {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        let n = v as i64;
        if n < 0 {
            out.push('-');
        }
        write_u64(out, n.unsigned_abs(), 0);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Append `v` in decimal, zero-padded to at least `width` digits (at most
/// 20): `format!("{v:0width$}")` without the formatting machinery.
fn write_u64(out: &mut String, mut v: u64, width: usize) {
    let mut buf = [b'0'; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    let at = at.min(buf.len() - width.min(buf.len()));
    out.push_str(std::str::from_utf8(&buf[at..]).unwrap_or_default());
}

/// Decimal digits of `v`.
const fn decimal_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 10 {
        v /= 10;
        n += 1;
    }
    n
}

/// Bytes of every bucket's `le` bound, [`Histogram::bucket_upper`] in
/// decimal, back to back.
const LE_LEN: usize = {
    let mut n = 0;
    let mut i = 0;
    while i < HISTOGRAM_BUCKETS {
        n += decimal_len(Histogram::bucket_upper(i));
        i += 1;
    }
    n
};

/// The `le` bounds' text, and where each bucket's ends (bucket `i` is
/// `ends[i]..ends[i + 1]`).
static LE_BOUNDS: ([u8; LE_LEN], [usize; HISTOGRAM_BUCKETS + 1]) = {
    let mut text = [0u8; LE_LEN];
    let mut ends = [0usize; HISTOGRAM_BUCKETS + 1];
    let mut i = 0;
    while i < HISTOGRAM_BUCKETS {
        let mut v = Histogram::bucket_upper(i);
        let end = ends[i] + decimal_len(v);
        let mut at = end;
        loop {
            at -= 1;
            text[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        ends[i + 1] = end;
        i += 1;
    }
    (text, ends)
};

static LE_TEXT: &str = match std::str::from_utf8(&LE_BOUNDS.0) {
    Ok(text) => text,
    Err(_) => panic!("decimal digits are ASCII"),
};

/// Bucket `i`'s `le` bound as text: `Histogram::bucket_upper(i)` in decimal.
fn le_bound(i: usize) -> &'static str {
    &LE_TEXT[LE_BOUNDS.1[i]..LE_BOUNDS.1[i + 1]]
}

/// Append an OpenMetrics-style exemplar suffix to a `_bucket` sample line:
/// ` # {trace_id="…"} <value_us> <ts_us>`. The trace id is zero-padded to 12
/// digits so an exemplar costs the same bytes on the wire whatever its
/// value — scrape bodies must stay byte-stable across shard counts (same
/// rationale as the padded queue-depth gauge).
fn write_exemplar(out: &mut String, e: &Exemplar) {
    out.push_str(" # {trace_id=\"");
    write_u64(out, e.trace, 12);
    out.push_str("\"} ");
    write_u64(out, e.value_us, 0);
    out.push(' ');
    write_u64(out, e.ts_us, 0);
}

/// Render a snapshot as Prometheus text exposition.
///
/// Families are `pdagent_<sanitized-key>_total` (counters) and
/// `pdagent_<sanitized-key>` (gauges), each sample labeled with the serving
/// `instance` and its original `key` spelling; stage histograms share the
/// [`STAGE_FAMILY`] family (`_bucket`/`_sum`/`_count` plus a `_max` gauge so
/// the exact observed maximum survives the round trip). Output is sorted and
/// byte-stable: identical state renders identically on every run and under
/// every shard count.
///
/// This is a fresh [`DeltaState`]'s full render without its `# EPOCH`
/// header line, so it is the exact body a telemetry server sends.
pub fn render_prom(instance: &str, snap: &TelemetrySnapshot) -> String {
    let mut state = DeltaState::new();
    state.observe(snap);
    state.interner.set_instance(instance);
    let mut out = String::new();
    state.render_series(0, &mut out);
    out
}

/// The histogram bucket a cumulative `le="<upper>"` sample belongs to:
/// [`Histogram::bucket_upper`] inverted (`2^i - 1` → `i`, `0` → `0`).
/// `None` for `u64::MAX`, whose successor overflows; such a sample is
/// ignored.
fn bucket_index(upper: u64) -> Option<u32> {
    if upper == 0 {
        Some(0)
    } else {
        upper.checked_add(1).map(u64::trailing_zeros)
    }
}

/// Rebuild a stage histogram from its cumulative `(upper, count)` bucket
/// samples, sorted by upper bound with one sample per bound.
fn histogram_from_cumulative(
    cums: impl IntoIterator<Item = (u64, u64)>,
    sum: u64,
    max: u64,
) -> Histogram {
    let mut buckets = [0u64; crate::obs::HISTOGRAM_BUCKETS];
    let mut prev = 0u64;
    for (upper, cum) in cums {
        if let Some(slot) = bucket_index(upper).and_then(|i| buckets.get_mut(i as usize)) {
            *slot = cum.saturating_sub(prev);
        }
        prev = cum;
    }
    Histogram::from_parts(&buckets, sum, max)
}

/// Sort `(key, value)` pairs by key, keeping only the last of equal keys in
/// input order: a series repeated in one body takes its last line's value.
fn sort_last_wins<K: Ord, V>(items: &mut Vec<(K, V)>) {
    items.sort_by(|a, b| a.0.cmp(&b.0));
    items.dedup_by(|later, kept| {
        let repeat = later.0 == kept.0;
        if repeat {
            std::mem::swap(&mut later.1, &mut kept.1);
        }
        repeat
    });
}

/// Render the `/healthz` document: a one-line JSON liveness statement. The
/// probe's value is *reaching* the node over the modeled link — the body
/// stays minimal and deterministic.
pub fn render_health(instance: &str, now: SimTime) -> String {
    format!("{{\"status\":\"ok\",\"instance\":\"{}\",\"now_us\":{}}}", escape_label(instance), now.0)
}

/// Which section a series lives in — part of its interned identity, since a
/// counter and a gauge may share a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeriesKind {
    /// A monotonically increasing counter (`pdagent_<key>_total`).
    Counter,
    /// An instantaneous gauge (`pdagent_<key>`).
    Gauge,
    /// A stage latency histogram (all share [`STAGE_FAMILY`]).
    Stage,
}

/// A stable, interned series identity: `(kind, key)` hashed once, rendered
/// fragments cached forever. Ids never change across observations, so dirty
/// epochs can be tracked per id without re-deriving family names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeriesId(u32);

/// The intern table: `(kind, key)` → [`SeriesId`], plus the pre-rendered
/// exposition fragments every render would otherwise recompute — the family
/// name (`pdagent_<sanitized>[_total]`; stage series keep [`STAGE_FAMILY`]),
/// the escaped `key`/`stage` label value, and each series' line heads for
/// the instance last rendered.
#[derive(Debug, Default)]
pub struct SeriesInterner {
    ids: HashMap<(SeriesKind, String), SeriesId>,
    kinds: Vec<SeriesKind>,
    families: Vec<String>,
    escaped: Vec<String>,
    /// The instance `heads` are rendered for, and its escaped label value.
    instance: String,
    escaped_instance: String,
    /// Every series' line heads for `instance`, by id, back to back: all of
    /// a sample line before its value. A scalar has one head,
    /// `family{instance="…",key="…"} `. A stage has four: its bucket head up
    /// to `le="`, which serves all its buckets since the bound comes from
    /// [`le_bound`], then its `_sum`, `_count` and `_max` heads.
    heads: String,
    /// Where each id's heads end in `heads`: the scalar or bucket head, then
    /// the `_sum`, `_count` and `_max` heads (a scalar's four are equal).
    /// Ids interned since the last [`SeriesInterner::set_instance`] have
    /// none yet.
    head_ends: Vec<[u32; 4]>,
}

impl SeriesInterner {
    fn intern(&mut self, kind: SeriesKind, key: &str) -> SeriesId {
        if let Some(&id) = self.ids.get(&(kind, key.to_owned())) {
            return id;
        }
        let id = SeriesId(self.families.len() as u32);
        let family = match kind {
            SeriesKind::Counter => format!("pdagent_{}_total", sanitize(key)),
            SeriesKind::Gauge => format!("pdagent_{}", sanitize(key)),
            SeriesKind::Stage => STAGE_FAMILY.to_owned(),
        };
        self.kinds.push(kind);
        self.families.push(family);
        self.escaped.push(escape_label(key));
        self.ids.insert((kind, key.to_owned()), id);
        id
    }

    fn family(&self, id: SeriesId) -> &str {
        &self.families[id.0 as usize]
    }

    /// Series `id`'s heads: a scalar's, or a stage's bucket, `_sum`,
    /// `_count` and `_max` heads.
    fn heads(&self, id: SeriesId) -> [&str; 4] {
        let i = id.0 as usize;
        let start = if i == 0 { 0 } else { self.head_ends[i - 1][3] as usize };
        let [a, b, c, d] = self.head_ends[i].map(|e| e as usize);
        [&self.heads[start..a], &self.heads[a..b], &self.heads[b..c], &self.heads[c..d]]
    }

    /// Make every interned series' heads the ones for `instance`: all of
    /// them when the instance changed, else those interned since.
    fn set_instance(&mut self, instance: &str) {
        if self.instance != instance {
            self.instance.clear();
            self.instance.push_str(instance);
            self.escaped_instance = escape_label(instance);
            self.heads.clear();
            self.head_ends.clear();
        }
        for i in self.head_ends.len()..self.families.len() {
            let labels = |out: &mut String, suffix: &str, label: &str| {
                out.push_str(&self.families[i]);
                out.push_str(suffix);
                out.push_str("{instance=\"");
                out.push_str(&self.escaped_instance);
                out.push_str("\",");
                out.push_str(label);
                out.push_str("=\"");
                out.push_str(&self.escaped[i]);
            };
            let mut ends = [0; 4];
            if self.kinds[i] == SeriesKind::Stage {
                labels(&mut self.heads, "_bucket", "stage");
                self.heads.push_str("\",le=\"");
                ends[0] = self.heads.len() as u32;
                for (end, suffix) in ends[1..].iter_mut().zip(["_sum", "_count", "_max"]) {
                    labels(&mut self.heads, suffix, "stage");
                    self.heads.push_str("\"} ");
                    *end = self.heads.len() as u32;
                }
            } else {
                labels(&mut self.heads, "", "key");
                self.heads.push_str("\"} ");
                ends = [self.heads.len() as u32; 4];
            }
            self.head_ends.push(ends);
        }
    }
}

/// Outcome of diffing one section against its previous observation.
struct SectionDiff {
    /// Any series value changed (including inserted/removed series).
    changed: bool,
    /// The key *set* changed — render orders must be recomputed.
    reshaped: bool,
    /// A series vanished. Deltas cannot express removal, so this resets the
    /// servable-epoch floor and forces scrapers back to a full snapshot.
    removed: bool,
}

/// The versioned server-side snapshot behind delta scraping.
///
/// `observe*` diffs the node's current telemetry against the last
/// observation, stamping every changed series with a fresh epoch (the epoch
/// only advances when something actually changed, so an idle node's scrape
/// is a header and nothing else). [`DeltaState::render_into`] then emits
/// either the full exposition or only the series changed since a scraper's
/// last-seen epoch, under a first-line header:
///
/// ```text
/// # EPOCH 42 full          (full snapshot; scraper replaces its copy)
/// # EPOCH 42 base=37       (delta; scraper applies over its epoch-37 copy)
/// ```
///
/// The full rendering after the header is what [`render_prom`] returns, so
/// delta-aware and legacy scrapers can coexist against one server.
#[derive(Debug, Default)]
pub struct DeltaState {
    epoch: u64,
    /// Floor of servable base epochs: bumped past everything when a series
    /// is removed (a delta cannot say "delete"), forcing full resync.
    reset_epoch: u64,
    /// The last observed state — also the render source.
    prev: TelemetrySnapshot,
    interner: SeriesInterner,
    counter_ids: Vec<SeriesId>,
    gauge_ids: Vec<SeriesId>,
    stage_ids: Vec<SeriesId>,
    /// Per-series last-changed epoch, aligned with `prev`'s sections.
    counter_epochs: Vec<u64>,
    gauge_epochs: Vec<u64>,
    stage_epochs: Vec<u64>,
    /// Render permutations: section indices sorted by `(family, key)` — the
    /// exposition order [`render_prom`] sorts per call, precomputed here and
    /// rebuilt only when the key set changes.
    counter_order: Vec<u32>,
    gauge_order: Vec<u32>,
}

impl DeltaState {
    /// Fresh state: epoch 0, nothing observed.
    pub fn new() -> DeltaState {
        DeltaState::default()
    }

    /// The current snapshot epoch (0 until the first observation).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Can a delta be served against base epoch `since`? True while `since`
    /// is not in the future and no series has been removed after it.
    pub fn can_delta(&self, since: u64) -> bool {
        since <= self.epoch && since >= self.reset_epoch
    }

    /// Diff one section (scalars or stage histograms) in place. Fast path:
    /// identical key set → value-only compare, zero allocation. Slow path
    /// (keys appeared or vanished): realign by merge walk, reusing every
    /// surviving key's `String`, value buffer and [`SeriesId`].
    fn diff_section<V: Clone + Default + PartialEq, B: Borrow<V>>(
        prev: &mut Vec<(String, V)>,
        ids: &mut Vec<SeriesId>,
        epochs: &mut Vec<u64>,
        next: &[(&str, B)],
        new_epoch: u64,
        interner: &mut SeriesInterner,
        kind: SeriesKind,
    ) -> SectionDiff {
        if prev.len() == next.len() && prev.iter().zip(next).all(|((pk, _), (nk, _))| pk == nk) {
            let mut changed = false;
            for (i, ((_, pv), (_, nv))) in prev.iter_mut().zip(next).enumerate() {
                let nv = nv.borrow();
                if pv != nv {
                    pv.clone_from(nv);
                    epochs[i] = new_epoch;
                    changed = true;
                }
            }
            return SectionDiff { changed, reshaped: false, removed: false };
        }
        let mut out = Vec::with_capacity(next.len());
        let mut out_ids = Vec::with_capacity(next.len());
        let mut out_epochs = Vec::with_capacity(next.len());
        let mut removed = false;
        let mut i = 0;
        for (nk, nv) in next {
            let (nk, nv) = (*nk, nv.borrow());
            while i < prev.len() && prev[i].0.as_str() < nk {
                removed = true;
                i += 1;
            }
            if i < prev.len() && prev[i].0 == nk {
                let unchanged = prev[i].1 == *nv;
                let (key, mut value) = std::mem::take(&mut prev[i]);
                if !unchanged {
                    value.clone_from(nv);
                }
                out.push((key, value));
                out_ids.push(ids[i]);
                out_epochs.push(if unchanged { epochs[i] } else { new_epoch });
                i += 1;
            } else {
                out.push((nk.to_owned(), nv.clone()));
                out_ids.push(interner.intern(kind, nk));
                out_epochs.push(new_epoch);
            }
        }
        removed |= i < prev.len();
        *prev = out;
        *ids = out_ids;
        *epochs = out_epochs;
        SectionDiff { changed: true, reshaped: true, removed }
    }

    /// Diff the exemplar section. Exemplar rows ride inside the stage
    /// histogram samples, so a stage whose exemplars changed must be marked
    /// dirty *even when its histogram did not* — a scrape can land between a
    /// span's close (histogram bump) and its trace's retention at root close
    /// (exemplar appears). Returns whether anything changed.
    fn diff_exemplars(
        prev: &mut Vec<(String, Vec<(u8, Exemplar)>)>,
        stages: &[(String, Histogram)],
        stage_epochs: &mut [u64],
        next: &[(&str, &[(u8, Exemplar)])],
        new_epoch: u64,
    ) -> bool {
        let same = prev.len() == next.len()
            && prev.iter().zip(next).all(|((pk, pv), &(nk, nv))| pk == nk && pv.as_slice() == nv);
        if same {
            return false;
        }
        let mut out = Vec::with_capacity(next.len());
        for &(nk, nv) in next {
            let old = match prev.binary_search_by(|(pk, _)| pk.as_str().cmp(nk)) {
                Ok(i) => Some(prev[i].1.as_slice()),
                Err(_) => None,
            };
            if old != Some(nv) {
                if let Ok(i) = stages.binary_search_by(|(s, _)| s.as_str().cmp(nk)) {
                    stage_epochs[i] = new_epoch;
                }
            }
            out.push((nk.to_owned(), nv.to_vec()));
        }
        *prev = out;
        true
    }

    fn sort_order<V>(
        section: &[(String, V)],
        ids: &[SeriesId],
        interner: &SeriesInterner,
    ) -> Vec<u32> {
        let mut order: Vec<u32> = (0..section.len() as u32).collect();
        order.sort_by(|&a, &b| {
            let ka = (interner.family(ids[a as usize]), section[a as usize].0.as_str());
            let kb = (interner.family(ids[b as usize]), section[b as usize].0.as_str());
            ka.cmp(&kb)
        });
        order
    }

    fn observe_views(
        &mut self,
        counters: &[(&str, f64)],
        gauges: &[(&str, f64)],
        stages: &[(&str, &Histogram)],
        exemplars: &[(&str, &[(u8, Exemplar)])],
    ) -> u64 {
        let new_epoch = self.epoch + 1;
        let dc = Self::diff_section(
            &mut self.prev.counters,
            &mut self.counter_ids,
            &mut self.counter_epochs,
            counters,
            new_epoch,
            &mut self.interner,
            SeriesKind::Counter,
        );
        let dg = Self::diff_section(
            &mut self.prev.gauges,
            &mut self.gauge_ids,
            &mut self.gauge_epochs,
            gauges,
            new_epoch,
            &mut self.interner,
            SeriesKind::Gauge,
        );
        let ds = Self::diff_section(
            &mut self.prev.stages,
            &mut self.stage_ids,
            &mut self.stage_epochs,
            stages,
            new_epoch,
            &mut self.interner,
            SeriesKind::Stage,
        );
        let dx = Self::diff_exemplars(
            &mut self.prev.exemplars,
            &self.prev.stages,
            &mut self.stage_epochs,
            exemplars,
            new_epoch,
        );
        if dc.reshaped {
            self.counter_order = Self::sort_order(&self.prev.counters, &self.counter_ids, &self.interner);
        }
        if dg.reshaped {
            self.gauge_order = Self::sort_order(&self.prev.gauges, &self.gauge_ids, &self.interner);
        }
        if dc.changed || dg.changed || ds.changed || dx {
            self.epoch = new_epoch;
        }
        if dc.removed || dg.removed || ds.removed {
            self.reset_epoch = new_epoch;
        }
        self.epoch
    }

    /// Observe a prepared snapshot (the monitor's cell view, tests). Returns
    /// the epoch after the observation.
    pub fn observe(&mut self, snap: &TelemetrySnapshot) -> u64 {
        let counters: Vec<(&str, f64)> =
            snap.counters.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let gauges: Vec<(&str, f64)> = snap.gauges.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let stages: Vec<(&str, &Histogram)> =
            snap.stages.iter().map(|(k, h)| (k.as_str(), h)).collect();
        let exemplars: Vec<(&str, &[(u8, Exemplar)])> =
            snap.exemplars.iter().map(|(k, v)| (k.as_str(), v.as_slice())).collect();
        self.observe_views(&counters, &gauges, &stages, &exemplars)
    }

    /// Observe a node's live telemetry without materializing a
    /// [`TelemetrySnapshot`]: the counters are borrowed in the order
    /// [`TelemetrySnapshot::capture`] produces and stage histograms straight
    /// from the collector — no `String` or `Histogram` clones on the
    /// unchanged path.
    pub fn observe_node(
        &mut self,
        metrics: &Metrics,
        stages: &[(&str, &Histogram)],
        exemplars: &[(&str, &[(u8, Exemplar)])],
    ) -> u64 {
        let counters = node_counters(metrics);
        let gauges = metrics.gauges_sorted();
        self.observe_views(&counters, &gauges, stages, exemplars)
    }

    /// The last observed state (what a full render would expose).
    pub fn snapshot(&self) -> &TelemetrySnapshot {
        &self.prev
    }

    /// Render into a pooled buffer (cleared first). `since: None`, or a
    /// base [`DeltaState::can_delta`] refuses, renders the full exposition —
    /// [`render_prom`]'s bytes after the header line. A servable
    /// `since: Some(e)` renders only the series whose last-changed epoch is
    /// beyond `e`. Either way the first line is the `# EPOCH` header the
    /// scraper resynchronizes on.
    pub fn render_into(&mut self, instance: &str, since: Option<u64>, out: &mut String) {
        out.clear();
        self.interner.set_instance(instance);
        let since = since.filter(|&s| self.can_delta(s));
        out.push_str("# EPOCH ");
        write_u64(out, self.epoch, 0);
        match since {
            Some(s) => {
                out.push_str(" base=");
                write_u64(out, s, 0);
            }
            None => out.push_str(" full"),
        }
        out.push('\n');
        self.render_series(since.unwrap_or(0), out);
    }

    /// Append a `# TYPE <family> gauge` line and the head of that gauge's
    /// sample for `key`, under the instance of the last render: a line a
    /// server adds after the rendered state. Its value and newline follow.
    pub(crate) fn push_gauge_head(&self, out: &mut String, family: &str, key: &str) {
        push_type(out, family, " gauge");
        out.push_str(family);
        out.push_str("{instance=\"");
        out.push_str(&self.interner.escaped_instance);
        out.push_str("\",key=\"");
        out.push_str(key);
        out.push_str("\"} ");
    }

    /// Append every series whose last-changed epoch is beyond `since`, in
    /// exposition order (`since = 0` renders them all), for the instance of
    /// the last [`SeriesInterner::set_instance`]. Each line is its cached
    /// head, then its value.
    fn render_series(&self, since: u64, out: &mut String) {
        let interner = &self.interner;
        let scalars = |out: &mut String,
                       section: &[(String, f64)],
                       ids: &[SeriesId],
                       epochs: &[u64],
                       order: &[u32],
                       rest: &str| {
            let mut last_fam = "";
            for &oi in order {
                let i = oi as usize;
                if epochs[i] <= since {
                    continue;
                }
                let fam = interner.family(ids[i]);
                if fam != last_fam {
                    push_type(out, fam, rest);
                    last_fam = fam;
                }
                out.push_str(interner.heads(ids[i])[0]);
                write_value(out, section[i].1);
                out.push('\n');
            }
        };
        scalars(out, &self.prev.counters, &self.counter_ids, &self.counter_epochs, &self.counter_order, " counter");
        scalars(out, &self.prev.gauges, &self.gauge_ids, &self.gauge_epochs, &self.gauge_order, " gauge");

        if !self.stage_epochs.iter().any(|&e| e > since) {
            return;
        }
        push_type(out, STAGE_FAMILY, " histogram");
        for (i, (name, h)) in self.prev.stages.iter().enumerate() {
            if self.stage_epochs[i] <= since {
                continue;
            }
            let [bucket, sum, count, _] = interner.heads(self.stage_ids[i]);
            let rows: &[(u8, Exemplar)] = match self
                .prev
                .exemplars
                .binary_search_by(|(n, _)| n.as_str().cmp(name))
            {
                Ok(x) => &self.prev.exemplars[x].1,
                Err(_) => &[],
            };
            let counts = h.bucket_counts();
            let hi = counts.iter().rposition(|&n| n > 0).unwrap_or(0);
            let mut cum = 0u64;
            for (b, &n) in counts.iter().enumerate().take(hi + 1) {
                cum += n;
                out.push_str(bucket);
                out.push_str(le_bound(b));
                out.push_str("\"} ");
                write_u64(out, cum, 0);
                if let Ok(r) = rows.binary_search_by(|(eb, _)| eb.cmp(&(b as u8))) {
                    write_exemplar(out, &rows[r].1);
                }
                out.push('\n');
            }
            out.push_str(bucket);
            out.push_str("+Inf\"} ");
            push_line(out, "", h.count());
            push_line(out, sum, h.sum());
            push_line(out, count, h.count());
        }
        push_type(out, STAGE_FAMILY, "_max gauge");
        for (i, (_, h)) in self.prev.stages.iter().enumerate() {
            if self.stage_epochs[i] <= since {
                continue;
            }
            push_line(out, interner.heads(self.stage_ids[i])[3], h.max());
        }
    }
}

/// Append a `# TYPE <family><rest>` line (`rest` starts with the space
/// before the kind, or with a family suffix).
fn push_type(out: &mut String, family: &str, rest: &str) {
    out.push_str("# TYPE ");
    out.push_str(family);
    out.push_str(rest);
    out.push('\n');
}

/// Append a sample line: `head`, then the integer value `v`.
fn push_line(out: &mut String, head: &str, v: u64) {
    out.push_str(head);
    write_u64(out, v, 0);
    out.push('\n');
}

/// The parsed `# EPOCH` first line of a delta-aware exposition body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EpochHeader {
    /// The snapshot epoch this body brings the scraper up to.
    epoch: u64,
    /// `None` for a full snapshot (replace); `Some(base)` for a delta to
    /// apply over the scraper's copy of epoch `base`.
    base: Option<u64>,
}

/// Parse the `# EPOCH <epoch> full|base=<n>` header off an exposition body.
/// Returns `None` for legacy bodies without one (treat as a full snapshot).
fn parse_epoch_header(text: &str) -> Option<EpochHeader> {
    let rest = text.lines().next()?.strip_prefix("# EPOCH ")?;
    let mut parts = rest.split_whitespace();
    let epoch = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("full") | None => Some(EpochHeader { epoch, base: None }),
        Some(b) => Some(EpochHeader { epoch, base: Some(b.strip_prefix("base=")?.parse().ok()?) }),
    }
}

/// Split a request path into `(path, since)`: the conditional-scrape query
/// `GET /metrics?since=<epoch>` carries the scraper's last-seen epoch.
/// Unknown query parameters are ignored.
pub fn parse_since(path: &str) -> (&str, Option<u64>) {
    match path.split_once('?') {
        Some((base, query)) => {
            let since =
                query.split('&').find_map(|kv| kv.strip_prefix("since=")).and_then(|v| v.parse().ok());
            (base, since)
        }
        None => (path, None),
    }
}

/// The stateful, pooled scrape server every telemetry-exposing node embeds:
/// a [`DeltaState`] over the node's live metrics plus one reusable render
/// buffer, so steady-state scrapes allocate no per-scrape `String`s and a
/// conditional scrape (`?since=<epoch>`) costs only the changed series.
///
/// Every scrape is observed and rendered afresh: the scrape's own delivery
/// has already bumped the node's message and byte counters, so no two
/// scrapes see the same state.
#[derive(Debug, Default)]
pub struct TelemetryServer {
    delta: DeltaState,
    /// Pooled render buffer, reused across scrapes.
    body: String,
}

impl TelemetryServer {
    /// Fresh server; nothing is observed or rendered until a scrape lands.
    pub fn new() -> TelemetryServer {
        TelemetryServer::default()
    }

    /// Handle `GET /metrics[?since=..]`, `GET /healthz` and `GET /traces`;
    /// returns `false` to leave any other request for the caller's protocol
    /// dispatch. Scrapes are answered uncached (they must never enter replay
    /// caches) and nothing is rendered until one arrives. When the scraper's
    /// `since` epoch is still servable the reply carries only the series
    /// changed past it, under the `# EPOCH` header; otherwise (gap, removal,
    /// no `since`) a full snapshot goes out.
    pub fn serve(&mut self, ctx: &mut Ctx<'_>, from: NodeId, req: &HttpRequest, instance: &str) -> bool {
        if req.method != "GET" {
            return false;
        }
        let (path, since) = parse_since(&req.path);
        match path {
            PATH_METRICS => {
                let queue_depth = ctx.queue_depth();
                set_sampler_gauges(ctx);
                let (metrics, obs) = ctx.metrics_and_obs();
                let stages = obs.map(|c| c.stages()).unwrap_or_default();
                let exemplars = obs.map(|c| c.exemplars()).unwrap_or_default();
                self.delta.observe_node(metrics, &stages, &exemplars);
                self.delta.render_into(instance, since, &mut self.body);
                // Engine-level gauge: the hosting simulator's event-queue
                // depth, read off the scheduler's O(1) occupancy counter.
                // Zero-padded to a fixed width because the value is
                // partition-*dependent* (each shard has its own queue) while
                // scrape bodies must cost the same bytes on the wire under
                // every shard count — otherwise transfer times, and with
                // them the monitor-plane SLO digests, would diverge between
                // partitionings. Emitted in every body, full or delta, like
                // any other live gauge.
                self.delta.push_gauge_head(&mut self.body, "pdagent_sim_queue_depth", KEY_QUEUE_DEPTH);
                write_u64(&mut self.body, queue_depth as u64, 12);
                self.body.push('\n');
                ctx.metrics().bump("telemetry.scrapes", 1.0);
                reply(ctx, from, req, HttpStatus::Ok, self.body.as_bytes());
                true
            }
            PATH_HEALTHZ => {
                let body = render_health(instance, ctx.now());
                ctx.metrics().bump("telemetry.probes", 1.0);
                reply(ctx, from, req, HttpStatus::Ok, body.into_bytes());
                true
            }
            PATH_TRACES => {
                serve_traces(ctx, from, req);
                true
            }
            _ => false,
        }
    }
}

/// Refresh the serving node's `obs.*` sampler gauges from the attached
/// collector, so every scrape body carries the reservoir's live accounting.
/// No-op (and no new series) without a collector.
fn set_sampler_gauges(ctx: &mut Ctx<'_>) {
    let Some(stats) = ctx.obs_collector().map(Collector::sampler_stats) else { return };
    let m = ctx.metrics();
    m.set_gauge("obs.retained_traces", stats.retained_traces as f64);
    m.set_gauge("obs.dropped_spans", stats.dropped_spans as f64);
    m.set_gauge("obs.sampler_bytes", stats.sampler_bytes as f64);
}

/// Parse the `/traces` query string: `stage=<name>`, `min_us=<n>`,
/// `limit=<n>` (default 20), `trace=<id>` (render one trace's timeline
/// directly). Unknown parameters are ignored.
fn parse_traces_query(path: &str) -> (Option<String>, u64, usize, Option<u64>) {
    let mut stage = None;
    let mut min_us = 0;
    let mut limit = 20;
    let mut trace = None;
    if let Some((_, query)) = path.split_once('?') {
        for kv in query.split('&') {
            if let Some(v) = kv.strip_prefix("stage=") {
                stage = Some(v.to_owned());
            } else if let Some(v) = kv.strip_prefix("min_us=") {
                min_us = v.parse().unwrap_or(0);
            } else if let Some(v) = kv.strip_prefix("limit=") {
                limit = v.parse().unwrap_or(20);
            } else if let Some(v) = kv.strip_prefix("trace=") {
                trace = v.parse().ok();
            }
        }
    }
    (stage, min_us, limit, trace)
}

/// Render the `/traces` response body against a collector: one header line
/// per matching retained trace plus its [`Collector::render_trace`]
/// timeline. Deterministic — hits sort by duration (longest first) with the
/// trace id as tie-break.
pub fn render_traces_body(collector: &Collector, path: &str) -> String {
    let (stage, min_us, limit, trace) = parse_traces_query(path);
    let mut out = String::new();
    if let Some(t) = trace {
        let timeline = collector.render_trace(t);
        if timeline.is_empty() {
            let _ = writeln!(out, "trace {t:012} not retained");
        } else {
            let _ = writeln!(out, "trace {t:012}");
            out.push_str(&timeline);
        }
        return out;
    }
    let hits = collector.query_traces(stage.as_deref(), min_us, limit);
    let _ = writeln!(out, "traces {}", hits.len());
    for h in &hits {
        let _ = writeln!(
            out,
            "trace {:012} root={} dur_us={} class={} spans={}",
            h.trace,
            h.root,
            h.duration_us,
            h.class.as_str(),
            h.spans
        );
        out.push_str(&collector.render_trace(h.trace));
    }
    out
}

/// Answer a `GET /traces` request from the attached collector (404 when
/// observability is off).
fn serve_traces(ctx: &mut Ctx<'_>, from: NodeId, req: &HttpRequest) {
    let body = ctx.obs_collector().map(|c| render_traces_body(c, &req.path));
    ctx.metrics().bump("telemetry.trace_queries", 1.0);
    match body {
        Some(b) => reply(ctx, from, req, HttpStatus::Ok, b.into_bytes()),
        None => reply(ctx, from, req, HttpStatus::NotFound, Vec::<u8>::new()),
    }
}

/// A bounded ring of recent JSONL lines for one node — the in-memory half
/// of the flight recorder. Pushing beyond the capacity evicts the oldest
/// line, so a dump always holds the *most recent* history.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    cap: usize,
    lines: VecDeque<String>,
}

impl FlightRecorder {
    /// Recorder keeping at most `cap` lines.
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder { cap: cap.max(1), lines: VecDeque::new() }
    }

    /// Append a line, evicting the oldest when full.
    pub fn push(&mut self, line: String) {
        if self.lines.len() == self.cap {
            self.lines.pop_front();
        }
        self.lines.push_back(line);
    }

    /// Number of retained lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// The retained lines, oldest first, newline-terminated.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }

    /// Build a recorder from a [`Collector`]: the spans recorded *on*
    /// `node` (by local id) plus every alert event, merged in time order,
    /// keeping the most recent `cap` lines.
    pub fn capture(collector: &Collector, node: NodeId, cap: usize) -> FlightRecorder {
        let mut timed: Vec<(u64, String)> = Vec::new();
        for s in collector.spans_snapshot().into_iter().filter(|s| s.node == node) {
            let mut line = String::from("{\"record\":\"span\",");
            s.write_json_fields(&mut line);
            line.push('}');
            timed.push((s.begin.0, line));
        }
        for e in collector.events() {
            timed.push((e.at.0, format!("{{\"record\":\"alert\",{}", &e.to_json()[1..])));
        }
        timed.sort_by_key(|t| t.0);
        let mut rec = FlightRecorder::new(cap);
        for (_, line) in timed {
            rec.push(line);
        }
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::ObsEvent;

    fn sample_snapshot() -> TelemetrySnapshot {
        let mut m = Metrics::new();
        m.bytes_sent = 1000;
        m.msgs_sent = 10;
        m.bump("gateway.replays", 3.0);
        m.bump("http.gave_up", 1.0);
        m.set_gauge("gateway.replay_entries", 7.0);
        let mut h = Histogram::new();
        for v in [0u64, 3, 70, 900, 900, 16000] {
            h.record(v);
        }
        TelemetrySnapshot::capture(&m, &[("gateway.stage".to_owned(), h)])
    }

    #[test]
    fn exposition_renders_sorted_and_typed() {
        let text = render_prom("gw-0", &sample_snapshot());
        let lines: Vec<&str> = text.lines().collect();
        // TYPE precedes its samples; counters end in _total.
        let ty = lines.iter().position(|l| *l == "# TYPE pdagent_gateway_replays_total counter");
        let sample = lines
            .iter()
            .position(|l| l.starts_with("pdagent_gateway_replays_total{instance=\"gw-0\""));
        assert!(ty.unwrap() < sample.unwrap(), "{text}");
        assert!(text.contains("key=\"gateway.replays\"} 3"), "{text}");
        assert!(text.contains("# TYPE pdagent_gateway_replay_entries gauge"), "{text}");
        // Samples sorted by family name.
        let samples: Vec<&&str> =
            lines.iter().filter(|l| !l.starts_with('#') && l.contains("_total")).collect();
        let mut sorted = samples.clone();
        sorted.sort();
        assert_eq!(samples, sorted, "counter samples must be sorted");
    }

    #[test]
    fn exposition_histogram_buckets_are_cumulative_and_monotone() {
        let text = render_prom("gw-0", &sample_snapshot());
        let mut cums = Vec::new();
        for line in text.lines() {
            if line.starts_with("pdagent_stage_duration_us_bucket{") {
                let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
                cums.push(v);
            }
        }
        assert!(cums.len() >= 2);
        assert!(cums.windows(2).all(|w| w[0] <= w[1]), "buckets not monotone: {cums:?}");
        assert_eq!(*cums.last().unwrap(), 6, "+Inf bucket must equal the count");
        assert!(text.contains("pdagent_stage_duration_us_sum{"), "{text}");
        assert!(text.contains("pdagent_stage_duration_us_max{"), "{text}");
    }

    #[test]
    fn label_escaping_round_trips() {
        let weird = "gw\"0\\path\nend";
        let esc = escape_label(weird);
        assert!(!esc.contains('\n'), "newline must be escaped: {esc}");
        assert_eq!(unescape_label(&esc), weird);
        // And through a full render/parse cycle via the instance label.
        let text = render_prom(weird, &sample_snapshot());
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, labels, _) = oracle::parse_sample(line).expect(line);
            assert_eq!(oracle::label(&labels, "instance"), Some(weird));
        }
    }

    #[test]
    fn parse_inverts_render() {
        let snap = sample_snapshot();
        let back = parse_prom(&render_prom("gw-0", &snap));
        assert_eq!(back.counters, snap.counters);
        assert_eq!(back.gauges, snap.gauges);
        assert_eq!(back.stages.len(), 1);
        let (name, h) = &back.stages[0];
        assert_eq!(name, "gateway.stage");
        let (_, orig) = &snap.stages[0];
        assert_eq!(h, orig, "histogram must survive the round trip exactly");
        assert_eq!(back.stage("gateway.stage").unwrap().p99(), orig.p99());
    }

    #[test]
    fn gauge_with_total_suffix_stays_a_gauge_through_round_trip() {
        // `queue.total` sanitizes to the family `pdagent_queue_total` — the
        // same shape as a counter family. The declared `# TYPE` line must
        // win over the suffix heuristic, or federation re-exposure would
        // silently migrate the series between sections.
        let mut m = Metrics::new();
        m.set_gauge("queue.total", 5.0);
        m.bump("requests.total", 9.0);
        let snap = TelemetrySnapshot::capture(&m, &[]);
        let back = parse_prom(&render_prom("gw-0", &snap));
        assert_eq!(back.gauge("queue.total"), 5.0, "gauge misfiled as counter");
        assert_eq!(back.counter("queue.total"), 0.0);
        assert_eq!(back.counter("requests.total"), 9.0);
        assert_eq!(back.counters, snap.counters);
        assert_eq!(back.gauges, snap.gauges);
    }

    #[test]
    fn federation_re_exposure_round_trips_weird_labels_byte_identically() {
        // The federation path re-renders what it parsed: keys with embedded
        // quotes and newlines must survive render → parse → render with the
        // second rendering byte-identical to the first.
        let mut m = Metrics::new();
        m.bump("weird\"key\nwith\\slash", 4.0);
        m.set_gauge("gauge\n\"quoted\"", 2.5);
        let snap = TelemetrySnapshot::capture(&m, &[]);
        let first = render_prom("cell\"0\nx", &snap);
        let back = parse_prom(&first);
        assert_eq!(back.counter("weird\"key\nwith\\slash"), 4.0);
        assert_eq!(back.gauge("gauge\n\"quoted\""), 2.5);
        let second = render_prom("cell\"0\nx", &back);
        assert_eq!(first, second, "re-exposure must be byte-identical");
    }

    #[test]
    fn render_is_stable_across_runs() {
        let a = render_prom("gw-0", &sample_snapshot());
        let b = render_prom("gw-0", &sample_snapshot());
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_reads_by_key() {
        let snap = sample_snapshot();
        assert_eq!(snap.counter("gateway.replays"), 3.0);
        assert_eq!(snap.counter("bytes_sent"), 1000.0);
        assert_eq!(snap.counter("nope"), 0.0);
        assert_eq!(snap.gauge("gateway.replay_entries"), 7.0);
        assert!(snap.stage("gateway.stage").is_some());
        assert!(snap.stage("nope").is_none());
    }

    #[test]
    fn health_document_is_deterministic() {
        let h = render_health("mas-1", SimTime(42));
        assert_eq!(h, "{\"status\":\"ok\",\"instance\":\"mas-1\",\"now_us\":42}");
    }

    #[test]
    fn flight_recorder_ring_keeps_most_recent() {
        let mut rec = FlightRecorder::new(3);
        for i in 0..10 {
            rec.push(format!("{{\"i\":{i}}}"));
        }
        assert_eq!(rec.len(), 3);
        let dump = rec.to_jsonl();
        assert!(dump.contains("\"i\":9") && dump.contains("\"i\":7"));
        assert!(!dump.contains("\"i\":6"));
    }

    #[test]
    fn flight_capture_merges_spans_and_alerts_in_time_order() {
        let mut c = Collector::new();
        let t = c.new_trace();
        let s1 = c.begin_span(t, 0, "gateway.stage", None, 5, SimTime(100));
        c.end_span(s1, SimTime(200));
        let s2 = c.begin_span(t, 0, "mas.exec", None, 9, SimTime(150)); // other node
        c.end_span(s2, SimTime(160));
        c.record_event(ObsEvent {
            at: SimTime(150),
            node_label: 77,
            rule: "p99.scrape.rtt".to_owned(),
            instance: "gw-0".to_owned(),
            fired: true,
            value: 9.0,
            limit: 5.0,
            trace: t,
            exemplar: 0,
        });
        let rec = FlightRecorder::capture(&c, 5, 16);
        let dump = rec.to_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2, "span on node 9 excluded: {dump}");
        assert!(lines[0].contains("\"record\":\"span\""));
        assert!(lines[1].contains("\"record\":\"alert\""));
        assert!(lines[1].contains("\"event\":\"AlertFired\""));
    }

    /// Render a [`DeltaState`] body, returning `(header, payload)`.
    fn render_split(ds: &mut DeltaState, since: Option<u64>) -> (String, String) {
        let mut out = String::new();
        ds.render_into("gw-0", since, &mut out);
        let (header, rest) = out.split_once('\n').expect("header line");
        (header.to_owned(), rest.to_owned())
    }

    #[test]
    fn delta_emits_only_changed_series() {
        let mut m = Metrics::new();
        m.bump("gateway.replays", 3.0);
        m.bump("http.gave_up", 1.0);
        m.set_gauge("gateway.replay_entries", 7.0);
        let mut ds = DeltaState::new();
        let e1 = ds.observe(&TelemetrySnapshot::capture(&m, &[]));
        m.bump("gateway.replays", 2.0);
        let e2 = ds.observe(&TelemetrySnapshot::capture(&m, &[]));
        assert!(e2 > e1);
        let (header, payload) = render_split(&mut ds, Some(e1));
        assert_eq!(header, format!("# EPOCH {e2} base={e1}"));
        assert!(payload.contains("key=\"gateway.replays\"} 5"), "{payload}");
        assert!(!payload.contains("http.gave_up"), "unchanged series leaked: {payload}");
        assert!(!payload.contains("replay_entries"), "unchanged gauge leaked: {payload}");
    }

    #[test]
    fn applying_deltas_reconstructs_the_full_snapshot() {
        let mut m = Metrics::new();
        m.bump("a.count", 1.0);
        m.set_gauge("g.depth", 4.0);
        let mut h = Histogram::new();
        h.record(10);
        let mut ds = DeltaState::new();
        let e1 = ds.observe(&TelemetrySnapshot::capture(&m, &[("s.rtt".to_owned(), h.clone())]));
        // Scraper state: the full body.
        let mut body = String::new();
        ds.render_into("gw-0", None, &mut body);
        let mut held = HeldSnapshot::new();
        assert_eq!(held.apply(&body), Ingested::Full { regressed: false });
        // Mutate: counter bump, new counter, histogram record.
        m.bump("a.count", 2.0);
        m.bump("b.new", 9.0);
        h.record(50_000);
        ds.observe(&TelemetrySnapshot::capture(&m, &[("s.rtt".to_owned(), h)]));
        ds.render_into("gw-0", Some(e1), &mut body);
        assert_eq!(held.apply(&body), Ingested::Delta { regressed: false });
        assert_eq!(
            render_prom("gw-0", held.snapshot()),
            render_prom("gw-0", ds.snapshot()),
            "delta-applied snapshot must equal the live one byte-for-byte"
        );
    }

    #[test]
    fn epoch_stays_put_when_nothing_changed() {
        let snap = sample_snapshot();
        let mut ds = DeltaState::new();
        let e1 = ds.observe(&snap);
        let e2 = ds.observe(&snap);
        assert_eq!(e1, e2, "identical observation must not bump the epoch");
        let (header, payload) = render_split(&mut ds, Some(e1));
        assert_eq!(header, format!("# EPOCH {e1} base={e1}"));
        assert_eq!(payload, "", "no-change delta must be header-only");
    }

    #[test]
    fn series_removal_forces_a_full_resync() {
        let mut m = Metrics::new();
        m.bump("a.count", 1.0);
        m.bump("b.count", 2.0);
        let mut ds = DeltaState::new();
        let e1 = ds.observe(&TelemetrySnapshot::capture(&m, &[]));
        assert!(ds.can_delta(e1));
        // A snapshot *without* b.count: deltas cannot express deletion.
        let mut m2 = Metrics::new();
        m2.bump("a.count", 1.0);
        ds.observe(&TelemetrySnapshot::capture(&m2, &[]));
        assert!(!ds.can_delta(e1), "removal must invalidate older bases");
        assert!(ds.can_delta(ds.epoch()), "the new epoch itself stays delta-able");
    }

    #[test]
    fn epoch_header_parses_and_parse_prom_ignores_it() {
        let snap = sample_snapshot();
        let mut ds = DeltaState::new();
        let epoch = ds.observe(&snap);
        let mut body = String::new();
        ds.render_into("gw-0", None, &mut body);
        let h = parse_epoch_header(&body).expect("header");
        assert_eq!(h.epoch, epoch);
        assert_eq!(h.base, None);
        let back = parse_prom(&body);
        assert_eq!(back, parse_prom(&render_prom("gw-0", &snap)), "header must be transparent");

        let mut delta_body = String::new();
        ds.render_into("gw-0", Some(epoch), &mut delta_body);
        let hd = parse_epoch_header(&delta_body).expect("header");
        assert_eq!(hd.base, Some(epoch));
        assert_eq!(parse_epoch_header("pdagent_x_total{} 1\n"), None);
    }

    #[test]
    fn since_query_parses_from_scrape_paths() {
        assert_eq!(parse_since("/metrics"), ("/metrics", None));
        assert_eq!(parse_since("/metrics?since=42"), ("/metrics", Some(42)));
        assert_eq!(parse_since("/metrics?x=1&since=7"), ("/metrics", Some(7)));
        assert_eq!(parse_since("/metrics?since=bogus"), ("/metrics", None));
        assert_eq!(parse_since("/healthz"), ("/healthz", None));
    }

    // The delta protocol's contract, pinned adversarially: any interleaving
    // of counter bumps, gauge moves, new-series inserts, and histogram
    // records — scraped as deltas with one random full resync thrown in —
    // reconstructs a snapshot byte-identical (via render_prom) to scraping
    // full bodies every time.
    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]
        #[test]
        fn delta_scrape_stream_reconstructs_full_state(
            ops in proptest::collection::vec((0u8..4, 0usize..6, 1u64..1_000), 1..24),
            resync_at in 0usize..24,
        ) {
            let mut m = Metrics::new();
            let mut h = Histogram::new();
            let mut ds = DeltaState::new();
            // Scraper-side state.
            let mut held = HeldSnapshot::new();
            let mut last_epoch: Option<u64> = None;
            for (step, (op, slot, val)) in ops.iter().enumerate() {
                match op {
                    0 => m.bump(&format!("c.counter_{slot}"), *val as f64),
                    1 => m.set_gauge(&format!("g.gauge_{slot}"), *val as f64),
                    2 => h.record(*val),
                    _ => m.bump("c.hot", *val as f64),
                }
                let stages = vec![("s.rtt".to_owned(), h.clone())];
                ds.observe(&TelemetrySnapshot::capture(&m, &stages));
                let since = if step == resync_at { None } else { last_epoch };
                let mut body = String::new();
                ds.render_into("gw-0", since, &mut body);
                let hd = parse_epoch_header(&body).expect("header");
                if hd.base.is_some() {
                    proptest::prop_assert_eq!(hd.base, last_epoch);
                }
                proptest::prop_assert!(held.apply(&body) != Ingested::Gap);
                last_epoch = Some(hd.epoch);
                // Byte-identity with the live view at every step.
                proptest::prop_assert_eq!(
                    render_prom("gw-0", held.snapshot()),
                    render_prom("gw-0", ds.snapshot())
                );
            }
        }
    }

    /// A snapshot carrying exemplars on two buckets of its one histogram.
    fn exemplar_snapshot() -> TelemetrySnapshot {
        let mut m = Metrics::new();
        m.bump("gateway.replays", 3.0);
        let mut h = Histogram::new();
        for v in [70u64, 900, 16_000] {
            h.record(v);
        }
        let mut snap = TelemetrySnapshot::capture(&m, &[("gateway.stage".to_owned(), h)]);
        snap.exemplars = vec![(
            "gateway.stage".to_owned(),
            vec![
                (
                    Histogram::bucket_of(900) as u8,
                    Exemplar { trace: 42, value_us: 900, ts_us: 5_000 },
                ),
                (
                    Histogram::bucket_of(16_000) as u8,
                    Exemplar { trace: 7, value_us: 16_000, ts_us: 9_000 },
                ),
            ],
        )];
        snap
    }

    #[test]
    fn exemplar_suffixes_render_and_round_trip() {
        let snap = exemplar_snapshot();
        let text = render_prom("gw-0", &snap);
        assert!(
            text.contains(" # {trace_id=\"000000000042\"} 900 5000"),
            "exemplar suffix missing: {text}"
        );
        let back = parse_prom(&text);
        assert_eq!(back.exemplars, snap.exemplars, "exemplars must survive parse");
        assert_eq!(
            render_prom("gw-0", &back),
            text,
            "federation re-exposure of exemplars must be byte-identical"
        );
        // The alert path picks the worst populated bucket's trace.
        assert_eq!(back.exemplar_for("gateway.stage"), 7);
        assert_eq!(back.exemplar_for("nope"), 0);
    }

    #[test]
    fn exemplar_free_bodies_carry_no_exemplar_suffix() {
        let text = render_prom("gw-0", &sample_snapshot());
        assert!(!text.contains(" # {"), "exemplar leaked into an exemplar-free body");
        let mut ds = DeltaState::new();
        ds.observe(&sample_snapshot());
        let (_, full) = render_split(&mut ds, None);
        assert!(!full.contains(" # {"));
    }

    #[test]
    fn exemplar_only_change_dirties_the_stage_delta() {
        // A scrape can land between a span close (exemplar set) and the next
        // histogram change; the delta must still ship the new exemplar.
        let m = Metrics::new();
        let mut h = Histogram::new();
        h.record(900);
        let base = TelemetrySnapshot::capture(&m, &[("gateway.stage".to_owned(), h)]);
        let mut ds = DeltaState::new();
        let e1 = ds.observe(&base);
        let mut body = String::new();
        ds.render_into("gw-0", None, &mut body);
        let mut held = HeldSnapshot::new();
        held.apply(&body);
        let mut bumped = base.clone();
        bumped.exemplars = vec![(
            "gateway.stage".to_owned(),
            vec![(
                Histogram::bucket_of(900) as u8,
                Exemplar { trace: 5, value_us: 900, ts_us: 1_000 },
            )],
        )];
        let e2 = ds.observe(&bumped);
        assert!(e2 > e1, "exemplar-only change must bump the epoch");
        ds.render_into("gw-0", Some(e1), &mut body);
        assert!(body.contains("trace_id=\"000000000005\""), "{body}");
        assert_eq!(held.apply(&body), Ingested::Delta { regressed: false });
        assert_eq!(
            render_prom("gw-0", held.snapshot()),
            render_prom("gw-0", ds.snapshot()),
            "delta-applied exemplars must match the live view"
        );
        // And an identical re-observation keeps the epoch put.
        assert_eq!(ds.observe(&bumped), e2);
    }

    #[test]
    fn traces_body_lists_and_renders_timelines() {
        let mut c = Collector::new();
        let mk = |c: &mut Collector, at: u64, dur: u64| {
            let t = c.new_trace();
            let root = c.begin_span(t, 0, "journey", None, 0, SimTime(at));
            let hop = c.begin_span(t, root, "itinerary.hop", Some(0), 1, SimTime(at + 10));
            c.end_span(hop, SimTime(at + dur / 2));
            c.end_span(root, SimTime(at + dur));
            t
        };
        let slow = mk(&mut c, 0, 9_000_000);
        let fast = mk(&mut c, 20_000_000, 50_000);
        let body = render_traces_body(&c, "/traces");
        assert!(body.starts_with("traces 2\n"), "{body}");
        let slow_pos = body.find(&format!("trace {slow:012}")).unwrap();
        let fast_pos = body.find(&format!("trace {fast:012}")).unwrap();
        assert!(slow_pos < fast_pos, "longest trace must list first:\n{body}");
        assert!(body.contains("root=journey dur_us=9000000 class=head spans=2"), "{body}");
        assert!(body.contains("itinerary.hop[0]"), "timeline missing:\n{body}");

        let filtered = render_traces_body(&c, "/traces?stage=journey&min_us=1000000&limit=5");
        assert!(filtered.starts_with("traces 1\n"), "{filtered}");
        assert!(filtered.contains(&format!("trace {slow:012}")));

        let single = render_traces_body(&c, &format!("/traces?trace={slow}"));
        assert!(single.starts_with(&format!("trace {slow:012}\n")), "{single}");
        assert!(single.contains("journey"));
        assert_eq!(
            render_traces_body(&c, "/traces?trace=999"),
            "trace 000000000999 not retained\n"
        );
    }

    const ODD_KEYS: [&str; 6] = ["a.b", "a_b", "q\"uote", "back\\slash", "new\nline", "é.utf8"];
    const ODD_VALUES: [f64; 17] = [
        0.0,
        -0.0,
        1.0,
        -7.0,
        0.5,
        -2.25,
        1e-7,
        1e15,
        -1e15,
        1e15 - 1.0,
        -(1e15 - 1.0),
        9_007_199_254_740_993.0,
        1e300,
        f64::MIN_POSITIVE,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    const ODD_RECORDS: [u64; 7] = [0, 1, 3, 900, 65_000, 1 << 40, u64::MAX];
    const ODD_TRACES: [u64; 6] =
        [0, 42, 999_999_999_999, 1_000_000_000_000, 123_456_789_012_345, u64::MAX];

    /// A snapshot from random picks `(section, key, value)`: counters and
    /// gauges take odd values, stages odd records, and exemplars odd trace
    /// ids on the bucket of an odd record. No picks, no sections.
    fn odd_snapshot(picks: &[(u8, usize, usize)]) -> TelemetrySnapshot {
        use std::collections::BTreeMap;
        let mut counters = BTreeMap::new();
        let mut gauges = BTreeMap::new();
        let mut stages: BTreeMap<String, Histogram> = BTreeMap::new();
        let mut exemplars: BTreeMap<String, BTreeMap<u8, Exemplar>> = BTreeMap::new();
        for &(section, k, v) in picks {
            let key = ODD_KEYS[k % ODD_KEYS.len()].to_owned();
            let record = ODD_RECORDS[v % ODD_RECORDS.len()];
            match section {
                0 => drop(counters.insert(key, ODD_VALUES[v % ODD_VALUES.len()])),
                1 => drop(gauges.insert(key, ODD_VALUES[v % ODD_VALUES.len()])),
                2 => stages.entry(key).or_default().record(record),
                _ => {
                    let trace = ODD_TRACES[(k + v) % ODD_TRACES.len()];
                    let e = Exemplar { trace, value_us: record, ts_us: v as u64 * 1_000_003 };
                    exemplars.entry(key).or_default().insert(Histogram::bucket_of(record) as u8, e);
                }
            }
        }
        TelemetrySnapshot {
            counters: counters.into_iter().collect(),
            gauges: gauges.into_iter().collect(),
            stages: stages.into_iter().collect(),
            exemplars: exemplars.into_iter().map(|(k, rows)| (k, rows.into_iter().collect())).collect(),
        }
    }

    // The cached-head renderer writes the bytes the `write!`-based one it
    // replaced writes: random snapshots with keys that need escaping, values
    // on every formatting edge, long trace ids and empty sections, rendered
    // full and at random `since` by one state under two instance names.
    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]
        #[test]
        fn rendering_matches_the_oracle(
            steps in proptest::collection::vec(
                (proptest::collection::vec((0u8..4, 0usize..64, 0usize..64), 0..14), 0u64..8, 0usize..2),
                1..10,
            ),
        ) {
            let instances = ["gw-0", "cell\"0\nx"];
            let mut ds = DeltaState::new();
            let (mut got, mut want) = (String::new(), String::new());
            for (picks, since, inst) in &steps {
                let snap = odd_snapshot(picks);
                let epoch = ds.observe(&snap);
                let since = (*since > 0).then(|| (since - 1).min(epoch + 1));
                ds.render_into(instances[*inst], since, &mut got);
                oracle::render_into(&ds, instances[*inst], since, &mut want);
                proptest::prop_assert_eq!(&got, &want);
                let mut fresh = DeltaState::new();
                fresh.observe(&snap);
                oracle::render_into(&fresh, instances[*inst], None, &mut want);
                let body = want.split_once('\n').map_or("", |(_, body)| body);
                proptest::prop_assert_eq!(render_prom(instances[*inst], &snap), body);
            }
        }
    }

    // The exemplar-bearing delta contract, pinned adversarially: any mix of
    // histogram records (each stamping a fresh exemplar into its bucket),
    // counter bumps and idle observations — scraped as deltas — reconstructs
    // a snapshot whose rendering (exemplar suffixes included) is
    // byte-identical to full-body scraping at every step.
    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]
        #[test]
        fn exemplar_bearing_delta_stream_round_trips(
            ops in proptest::collection::vec((0u8..3, 1u64..200_000), 1..24),
        ) {
            let mut m = Metrics::new();
            let mut h = Histogram::new();
            let mut exes: std::collections::BTreeMap<u8, Exemplar> =
                std::collections::BTreeMap::new();
            let mut ds = DeltaState::new();
            let mut held = HeldSnapshot::new();
            let mut last_epoch: Option<u64> = None;
            for (step, (op, val)) in ops.iter().enumerate() {
                match op {
                    0 => {
                        h.record(*val);
                        exes.insert(
                            Histogram::bucket_of(*val) as u8,
                            Exemplar { trace: *val, value_us: *val, ts_us: step as u64 + 1 },
                        );
                    }
                    1 => m.bump("c.hot", *val as f64),
                    _ => {} // idle scrape: nothing changed
                }
                let mut snap =
                    TelemetrySnapshot::capture(&m, &[("s.rtt".to_owned(), h.clone())]);
                snap.exemplars = vec![(
                    "s.rtt".to_owned(),
                    exes.iter().map(|(b, e)| (*b, *e)).collect(),
                )];
                ds.observe(&snap);
                let mut body = String::new();
                ds.render_into("gw-0", last_epoch, &mut body);
                let hd = parse_epoch_header(&body).expect("header");
                proptest::prop_assert!(held.apply(&body) != Ingested::Gap);
                last_epoch = Some(hd.epoch);
                proptest::prop_assert_eq!(
                    render_prom("gw-0", held.snapshot()),
                    render_prom("gw-0", ds.snapshot())
                );
            }
        }
    }
}
