//! Operational telemetry: Prometheus-style exposition, health probes and the
//! flight recorder.
//!
//! PRs 1–3 gave every node raw counters ([`crate::metrics`]) and causal
//! latency histograms ([`crate::obs`]); this module turns them into signals
//! another *node in the simulation* can consume. Gateways and MAS servers
//! answer `GET /metrics` with the text exposition produced by
//! [`render_prom`], and `GET /healthz` with a liveness document — served over
//! the same modeled links as protocol traffic, so a monitor sees exactly the
//! staleness and loss a real scraper would. [`parse_prom`] is the inverse,
//! used by the in-sim monitor ([`crate::slo`]) and by round-trip tests.
//!
//! The [`FlightRecorder`] is the post-mortem half: a bounded ring of recent
//! span/alert lines for one node, dumped to
//! `target/flightrec/<scenario>-<node>.jsonl` when an alert fires or a soak
//! invariant fails, so a red CI run ships its own diagnosis.
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

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use bytes::Bytes;

use crate::http::{reply, HttpRequest, HttpStatus};
use crate::metrics::{Metrics, KEY_QUEUE_DEPTH};
use crate::obs::{Collector, Exemplar, Histogram};
use crate::sim::{Ctx, NodeId};
use crate::time::SimTime;

/// Scrape endpoint path served by gateway and MAS nodes.
pub const PATH_METRICS: &str = "/metrics";
/// Liveness endpoint path served by gateway and MAS nodes.
pub const PATH_HEALTHZ: &str = "/healthz";
/// Trace query endpoint path (`/traces?stage=&min_us=&limit=&trace=`),
/// served wherever `/metrics` is.
pub const PATH_TRACES: &str = "/traces";

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
    /// bucket. Empty unless the producing node runs with sampling on — an
    /// empty section renders nothing, keeping sampling-off expositions
    /// byte-identical to the pre-exemplar format.
    pub exemplars: Vec<(String, Vec<(u8, Exemplar)>)>,
}

impl TelemetrySnapshot {
    /// Capture from a node's [`Metrics`] plus stage histograms (typically
    /// the simulation collector's; pass `&[]` when observability is off —
    /// the exposition simply omits the histogram families).
    pub fn capture(metrics: &Metrics, stages: &[(String, Histogram)]) -> TelemetrySnapshot {
        let mut counters: Vec<(String, f64)> = vec![
            ("bytes_received".to_owned(), metrics.bytes_received as f64),
            ("bytes_sent".to_owned(), metrics.bytes_sent as f64),
            ("msgs_dropped".to_owned(), metrics.msgs_dropped as f64),
            ("msgs_received".to_owned(), metrics.msgs_received as f64),
            ("msgs_sent".to_owned(), metrics.msgs_sent as f64),
        ];
        counters.extend(metrics.counters_sorted().into_iter().map(|(k, v)| (k.to_owned(), v)));
        counters.sort_by(|a, b| a.0.cmp(&b.0));
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

    /// Apply a delta body (the changed series of a `# EPOCH .. base=..`
    /// exposition, parsed by [`parse_prom`]): every series in `delta`
    /// *replaces* its slot here, new series are inserted in key order.
    /// O(changed · log total) — the inverse of [`merge_snapshot`]'s additive
    /// fold, which stays untouched so rollups remain byte-identical to
    /// full-snapshot mode.
    ///
    /// [`merge_snapshot`]: crate::federation::merge_snapshot
    pub fn apply_delta(&mut self, delta: &TelemetrySnapshot) {
        fn upsert(dst: &mut Vec<(String, f64)>, src: &[(String, f64)]) {
            for (k, v) in src {
                match dst.binary_search_by(|(dk, _)| dk.as_str().cmp(k)) {
                    Ok(i) => dst[i].1 = *v,
                    Err(i) => dst.insert(i, (k.clone(), *v)),
                }
            }
        }
        upsert(&mut self.counters, &delta.counters);
        upsert(&mut self.gauges, &delta.gauges);
        for (name, h) in &delta.stages {
            match self.stages.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                Ok(i) => self.stages[i].1.clone_from(h),
                Err(i) => self.stages.insert(i, (name.clone(), h.clone())),
            }
        }
        // Delta bodies carry a dirty stage's *full* exemplar row set, so the
        // slot is replaced, not merged.
        for (name, rows) in &delta.exemplars {
            match self.exemplars.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                Ok(i) => self.exemplars[i].1.clone_from(rows),
                Err(i) => self.exemplars.insert(i, (name.clone(), rows.clone())),
            }
        }
    }
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

/// Render a float the way the exposition format expects: integers without a
/// trailing `.0` (counters are conceptually integral), everything else via
/// the shortest round-trip `Display`.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// [`fmt_value`] straight into a reused buffer — the pooled render paths use
/// this so a scrape never allocates a per-sample `String`.
pub(crate) fn write_value(out: &mut String, v: f64) {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Append an OpenMetrics-style exemplar suffix to a `_bucket` sample line:
/// ` # {trace_id="…"} <value_us> <ts_us>`. The trace id is zero-padded to 12
/// digits so an exemplar costs the same bytes on the wire whatever its
/// value — scrape bodies must stay byte-stable across shard counts (same
/// rationale as the padded queue-depth gauge).
fn write_exemplar(out: &mut String, e: &Exemplar) {
    let _ = write!(out, " # {{trace_id=\"{:012}\"}} {} {}", e.trace, e.value_us, e.ts_us);
}

/// Split an exposition sample's value field from an optional exemplar
/// suffix. Returns `(value_text, exemplar)`.
fn split_exemplar(rest: &str) -> (&str, Option<Exemplar>) {
    let Some((value, suffix)) = rest.split_once(" # ") else { return (rest, None) };
    let parse = || -> Option<Exemplar> {
        let body = suffix.trim().strip_prefix('{')?;
        let (labels, tail) = body.split_once('}')?;
        let trace = labels.strip_prefix("trace_id=\"")?.strip_suffix('"')?.parse().ok()?;
        let mut parts = tail.split_whitespace();
        let value_us = parts.next()?.parse().ok()?;
        let ts_us = parts.next()?.parse().ok()?;
        Some(Exemplar { trace, value_us, ts_us })
    };
    (value, parse())
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
pub fn render_prom(instance: &str, snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    let inst = escape_label(instance);

    // Counters and gauges: group samples by sanitized family name (distinct
    // keys can collide post-sanitization; they become one family with two
    // `key`-labeled series).
    let render_scalars = |out: &mut String, items: &[(String, f64)], kind: &str, total: bool| {
        let mut rows: Vec<(String, &str, f64)> = items
            .iter()
            .map(|(k, v)| {
                let mut fam = format!("pdagent_{}", sanitize(k));
                if total {
                    fam.push_str("_total");
                }
                (fam, k.as_str(), *v)
            })
            .collect();
        rows.sort_by(|a, b| (a.0.as_str(), a.1).cmp(&(b.0.as_str(), b.1)));
        let mut last_fam = "";
        for (fam, key, v) in &rows {
            if fam != last_fam {
                let _ = writeln!(out, "# TYPE {fam} {kind}");
                last_fam = fam;
            }
            let _ = writeln!(
                out,
                "{fam}{{instance=\"{inst}\",key=\"{}\"}} {}",
                escape_label(key),
                fmt_value(*v)
            );
        }
    };
    render_scalars(&mut out, &snap.counters, "counter", true);
    render_scalars(&mut out, &snap.gauges, "gauge", false);

    if snap.stages.is_empty() {
        return out;
    }
    let _ = writeln!(out, "# TYPE {STAGE_FAMILY} histogram");
    for (stage, h) in &snap.stages {
        let labels = format!("instance=\"{inst}\",stage=\"{}\"", escape_label(stage));
        let rows = snap.exemplar_rows(stage).unwrap_or(&[]);
        let counts = h.bucket_counts();
        let hi = counts.iter().rposition(|&n| n > 0).unwrap_or(0);
        let mut cum = 0u64;
        for (i, &n) in counts.iter().enumerate().take(hi + 1) {
            cum += n;
            let _ = write!(
                out,
                "{STAGE_FAMILY}_bucket{{{labels},le=\"{}\"}} {cum}",
                Histogram::bucket_upper(i)
            );
            if let Ok(r) = rows.binary_search_by(|(b, _)| b.cmp(&(i as u8))) {
                write_exemplar(&mut out, &rows[r].1);
            }
            out.push('\n');
        }
        let _ = writeln!(out, "{STAGE_FAMILY}_bucket{{{labels},le=\"+Inf\"}} {}", h.count());
        let _ = writeln!(out, "{STAGE_FAMILY}_sum{{{labels}}} {}", h.sum());
        let _ = writeln!(out, "{STAGE_FAMILY}_count{{{labels}}} {}", h.count());
    }
    let _ = writeln!(out, "# TYPE {STAGE_FAMILY}_max gauge");
    for (stage, h) in &snap.stages {
        let _ = writeln!(
            out,
            "{STAGE_FAMILY}_max{{instance=\"{inst}\",stage=\"{}\"}} {}",
            escape_label(stage),
            h.max()
        );
    }
    out
}

/// A parsed sample's `(label, value)` pairs, in line order.
type Labels = Vec<(String, String)>;

/// One parsed exposition sample: name, labels, value, optional exemplar.
fn parse_sample_full(line: &str) -> Option<(&str, Labels, f64, Option<Exemplar>)> {
    let brace = line.find('{')?;
    let name = &line[..brace];
    let rest = &line[brace + 1..];
    let finish = |labels: Labels, tail: &str| {
        let (value_text, exemplar) = split_exemplar(tail);
        let value: f64 = value_text.trim().parse().ok()?;
        Some((name, labels, value, exemplar))
    };
    let mut labels = Vec::new();
    let mut chars = rest.char_indices();
    let mut key_start = 0;
    loop {
        // Label key up to '='.
        let eq = loop {
            match chars.next() {
                Some((i, '=')) => break i,
                Some((i, '}')) => {
                    // Empty label set or trailing comma; value follows.
                    return finish(labels, &rest[i + 1..]);
                }
                Some(_) => continue,
                None => return None,
            }
        };
        let key = rest[key_start..eq].trim_start_matches(',').to_owned();
        // Opening quote.
        match chars.next() {
            Some((_, '"')) => {}
            _ => return None,
        }
        // Value until the unescaped closing quote.
        let mut raw = String::new();
        loop {
            match chars.next() {
                Some((_, '\\')) => {
                    raw.push('\\');
                    if let Some((_, c)) = chars.next() {
                        raw.push(c);
                    }
                }
                Some((_, '"')) => break,
                Some((_, c)) => raw.push(c),
                None => return None,
            }
        }
        labels.push((key, unescape_label(&raw)));
        // After a label value: ',' continues, '}' ends.
        match chars.next() {
            Some((i, ',')) => key_start = i + 1,
            Some((i, '}')) => {
                return finish(labels, &rest[i + 1..]);
            }
            _ => return None,
        }
    }
}

/// [`parse_sample_full`] without the exemplar.
#[cfg(test)]
fn parse_sample(line: &str) -> Option<(&str, Labels, f64)> {
    parse_sample_full(line).map(|(n, l, v, _)| (n, l, v))
}

fn label<'a>(labels: &'a [(String, String)], key: &str) -> Option<&'a str> {
    labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

/// Parse text exposition produced by [`render_prom`] back into a
/// [`TelemetrySnapshot`]. Counter/gauge keys come from the `key` label (so
/// sanitization is lossless); stage histograms are rebuilt from the
/// cumulative `_bucket` series plus `_sum` and `_max`. Unknown lines are
/// ignored, making the parser tolerant of future families.
pub fn parse_prom(text: &str) -> TelemetrySnapshot {
    let mut snap = TelemetrySnapshot::default();
    let bucket_name = format!("{STAGE_FAMILY}_bucket");
    let sum_name = format!("{STAGE_FAMILY}_sum");
    let count_name = format!("{STAGE_FAMILY}_count");
    let max_name = format!("{STAGE_FAMILY}_max");
    // stage → (upper bound → cumulative count), plus sum/max per stage.
    let mut cums: BTreeMap<String, BTreeMap<u64, u64>> = BTreeMap::new();
    let mut sums: BTreeMap<String, u64> = BTreeMap::new();
    let mut maxes: BTreeMap<String, u64> = BTreeMap::new();
    // stage → (bucket → exemplar) from `_bucket` suffixes.
    let mut exes: BTreeMap<String, BTreeMap<u8, Exemplar>> = BTreeMap::new();
    // family → declared kind from `# TYPE` lines. Classifying by declared
    // type (not the `_total` suffix) keeps a *gauge* whose key sanitizes to
    // `..._total` (e.g. `queue.total`) a gauge through the round trip.
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            if let Some(decl) = line.strip_prefix("# TYPE ") {
                let mut parts = decl.split_whitespace();
                if let (Some(fam), Some(kind)) = (parts.next(), parts.next()) {
                    types.insert(fam.to_owned(), kind.to_owned());
                }
            }
            continue;
        }
        let Some((name, labels, value, exemplar)) = parse_sample_full(line) else { continue };
        if name == bucket_name {
            let (Some(stage), Some(le)) = (label(&labels, "stage"), label(&labels, "le")) else {
                continue;
            };
            if le == "+Inf" {
                continue; // same as the _count series
            }
            if let Ok(upper) = le.parse::<u64>() {
                cums.entry(stage.to_owned()).or_default().insert(upper, value as u64);
                if let Some(e) = exemplar {
                    let idx = if upper == 0 { 0 } else { (upper + 1).trailing_zeros() as u8 };
                    exes.entry(stage.to_owned()).or_default().insert(idx, e);
                }
            }
        } else if name == sum_name {
            if let Some(stage) = label(&labels, "stage") {
                sums.insert(stage.to_owned(), value as u64);
            }
        } else if name == max_name {
            if let Some(stage) = label(&labels, "stage") {
                maxes.insert(stage.to_owned(), value as u64);
            }
        } else if name == count_name {
            // Redundant with the bucket series; nothing to record.
        } else if let Some(key) = label(&labels, "key") {
            // Prefer the declared `# TYPE`; fall back to the suffix
            // heuristic for expositions from other producers.
            let is_counter = match types.get(name).map(String::as_str) {
                Some("counter") => true,
                Some(_) => false,
                None => name.ends_with("_total"),
            };
            if is_counter {
                snap.counters.push((key.to_owned(), value));
            } else {
                snap.gauges.push((key.to_owned(), value));
            }
        }
    }
    snap.counters.sort_by(|a, b| a.0.cmp(&b.0));
    snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
    for (stage, by_upper) in cums {
        let mut buckets = [0u64; crate::obs::HISTOGRAM_BUCKETS];
        let mut prev = 0u64;
        for (upper, cum) in by_upper {
            let idx = if upper == 0 { 0 } else { (upper + 1).trailing_zeros() as usize };
            if idx < buckets.len() {
                buckets[idx] = cum.saturating_sub(prev);
            }
            prev = cum;
        }
        let sum = sums.get(&stage).copied().unwrap_or(0);
        let max = maxes.get(&stage).copied().unwrap_or(0);
        snap.stages.push((stage, Histogram::from_parts(&buckets, sum, max)));
    }
    for (stage, by_bucket) in exes {
        snap.exemplars.push((stage, by_bucket.into_iter().collect()));
    }
    snap
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
/// name (`pdagent_<sanitized>[_total]`; stage series keep [`STAGE_FAMILY`])
/// and the escaped `key`/`stage` label value.
#[derive(Debug, Default)]
pub struct SeriesInterner {
    ids: HashMap<(SeriesKind, String), SeriesId>,
    families: Vec<String>,
    escaped: Vec<String>,
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
        self.families.push(family);
        self.escaped.push(escape_label(key));
        self.ids.insert((kind, key.to_owned()), id);
        id
    }

    fn family(&self, id: SeriesId) -> &str {
        &self.families[id.0 as usize]
    }

    fn escaped(&self, id: SeriesId) -> &str {
        &self.escaped[id.0 as usize]
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
/// The full rendering is byte-identical to [`render_prom`] (pinned by test),
/// so delta-aware and legacy scrapers can coexist against one server.
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

    /// Diff one scalar section in place. Fast path: identical key set →
    /// value-only compare, zero allocation. Slow path (keys appeared or
    /// vanished): realign by merge walk, reusing every surviving key's
    /// `String` and [`SeriesId`].
    fn diff_scalars(
        prev: &mut Vec<(String, f64)>,
        ids: &mut Vec<SeriesId>,
        epochs: &mut Vec<u64>,
        next: &[(&str, f64)],
        new_epoch: u64,
        interner: &mut SeriesInterner,
        kind: SeriesKind,
    ) -> SectionDiff {
        if prev.len() == next.len() && prev.iter().zip(next).all(|((pk, _), (nk, _))| pk == nk) {
            let mut changed = false;
            for (i, ((_, pv), &(_, nv))) in prev.iter_mut().zip(next).enumerate() {
                if *pv != nv {
                    *pv = nv;
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
        for &(nk, nv) in next {
            while i < prev.len() && prev[i].0.as_str() < nk {
                removed = true;
                i += 1;
            }
            if i < prev.len() && prev[i].0 == nk {
                let unchanged = prev[i].1 == nv;
                out.push((std::mem::take(&mut prev[i].0), nv));
                out_ids.push(ids[i]);
                out_epochs.push(if unchanged { epochs[i] } else { new_epoch });
                i += 1;
            } else {
                out.push((nk.to_owned(), nv));
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

    /// [`DeltaState::diff_scalars`] for the stage-histogram section.
    fn diff_stages(
        prev: &mut Vec<(String, Histogram)>,
        ids: &mut Vec<SeriesId>,
        epochs: &mut Vec<u64>,
        next: &[(&str, &Histogram)],
        new_epoch: u64,
        interner: &mut SeriesInterner,
    ) -> SectionDiff {
        if prev.len() == next.len() && prev.iter().zip(next).all(|((pk, _), (nk, _))| pk == nk) {
            let mut changed = false;
            for (i, ((_, ph), &(_, nh))) in prev.iter_mut().zip(next).enumerate() {
                if ph != nh {
                    ph.clone_from(nh);
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
        for &(nk, nh) in next {
            while i < prev.len() && prev[i].0.as_str() < nk {
                removed = true;
                i += 1;
            }
            if i < prev.len() && prev[i].0 == nk {
                let unchanged = prev[i].1 == *nh;
                let (key, mut hist) = std::mem::take(&mut prev[i]);
                if !unchanged {
                    hist.clone_from(nh);
                }
                out.push((key, hist));
                out_ids.push(ids[i]);
                out_epochs.push(if unchanged { epochs[i] } else { new_epoch });
                i += 1;
            } else {
                out.push((nk.to_owned(), nh.clone()));
                out_ids.push(interner.intern(SeriesKind::Stage, nk));
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
        let dc = Self::diff_scalars(
            &mut self.prev.counters,
            &mut self.counter_ids,
            &mut self.counter_epochs,
            counters,
            new_epoch,
            &mut self.interner,
            SeriesKind::Counter,
        );
        let dg = Self::diff_scalars(
            &mut self.prev.gauges,
            &mut self.gauge_ids,
            &mut self.gauge_epochs,
            gauges,
            new_epoch,
            &mut self.interner,
            SeriesKind::Gauge,
        );
        let ds = Self::diff_stages(
            &mut self.prev.stages,
            &mut self.stage_ids,
            &mut self.stage_epochs,
            stages,
            new_epoch,
            &mut self.interner,
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
    /// [`TelemetrySnapshot`]: the built-in transport counters are merge-
    /// walked into the dynamic counters (same order [`TelemetrySnapshot::capture`]
    /// produces) and stage histograms are borrowed straight from the
    /// collector — no `String` or `Histogram` clones on the unchanged path.
    pub fn observe_node(
        &mut self,
        metrics: &Metrics,
        stages: &[(&str, &Histogram)],
        exemplars: &[(&str, &[(u8, Exemplar)])],
    ) -> u64 {
        let builtin = [
            ("bytes_received", metrics.bytes_received as f64),
            ("bytes_sent", metrics.bytes_sent as f64),
            ("msgs_dropped", metrics.msgs_dropped as f64),
            ("msgs_received", metrics.msgs_received as f64),
            ("msgs_sent", metrics.msgs_sent as f64),
        ];
        let dynamic = metrics.counters_sorted();
        let mut counters: Vec<(&str, f64)> = Vec::with_capacity(builtin.len() + dynamic.len());
        let (mut i, mut j) = (0, 0);
        while i < builtin.len() || j < dynamic.len() {
            let take_builtin = match (builtin.get(i), dynamic.get(j)) {
                (Some(b), Some(d)) => b.0 <= d.0,
                (Some(_), None) => true,
                _ => false,
            };
            if take_builtin {
                counters.push(builtin[i]);
                i += 1;
            } else {
                counters.push(dynamic[j]);
                j += 1;
            }
        }
        let gauges = metrics.gauges_sorted();
        self.observe_views(&counters, &gauges, stages, exemplars)
    }

    /// The last observed state (what a full render would expose).
    pub fn snapshot(&self) -> &TelemetrySnapshot {
        &self.prev
    }

    /// Render into a pooled buffer (cleared first). `since: None` renders
    /// the full exposition — byte-identical to [`render_prom`] after the
    /// header line. `since: Some(e)` renders only the series whose
    /// last-changed epoch is beyond `e` (the caller must have checked
    /// [`DeltaState::can_delta`]). Either way the first line is the
    /// `# EPOCH` header the scraper resynchronizes on.
    pub fn render_into(&self, instance: &str, since: Option<u64>, out: &mut String) {
        out.clear();
        match since {
            Some(s) => {
                let _ = writeln!(out, "# EPOCH {} base={s}", self.epoch);
            }
            None => {
                let _ = writeln!(out, "# EPOCH {} full", self.epoch);
            }
        }
        let since = since.unwrap_or(0);
        let inst = escape_label(instance);
        let scalars = |out: &mut String,
                       section: &[(String, f64)],
                       ids: &[SeriesId],
                       epochs: &[u64],
                       order: &[u32],
                       kind: &str| {
            let mut last_fam = "";
            for &oi in order {
                let i = oi as usize;
                if epochs[i] <= since {
                    continue;
                }
                let fam = self.interner.family(ids[i]);
                if fam != last_fam {
                    let _ = writeln!(out, "# TYPE {fam} {kind}");
                    last_fam = fam;
                }
                let _ = write!(
                    out,
                    "{fam}{{instance=\"{inst}\",key=\"{}\"}} ",
                    self.interner.escaped(ids[i])
                );
                write_value(out, section[i].1);
                out.push('\n');
            }
        };
        scalars(out, &self.prev.counters, &self.counter_ids, &self.counter_epochs, &self.counter_order, "counter");
        scalars(out, &self.prev.gauges, &self.gauge_ids, &self.gauge_epochs, &self.gauge_order, "gauge");

        if !self.stage_epochs.iter().any(|&e| e > since) {
            return;
        }
        let _ = writeln!(out, "# TYPE {STAGE_FAMILY} histogram");
        for (i, (name, h)) in self.prev.stages.iter().enumerate() {
            if self.stage_epochs[i] <= since {
                continue;
            }
            let stage = self.interner.escaped(self.stage_ids[i]);
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
                let _ = write!(
                    out,
                    "{STAGE_FAMILY}_bucket{{instance=\"{inst}\",stage=\"{stage}\",le=\"{}\"}} {cum}",
                    Histogram::bucket_upper(b)
                );
                if let Ok(r) = rows.binary_search_by(|(eb, _)| eb.cmp(&(b as u8))) {
                    write_exemplar(out, &rows[r].1);
                }
                out.push('\n');
            }
            let _ = writeln!(
                out,
                "{STAGE_FAMILY}_bucket{{instance=\"{inst}\",stage=\"{stage}\",le=\"+Inf\"}} {}",
                h.count()
            );
            let _ = writeln!(out, "{STAGE_FAMILY}_sum{{instance=\"{inst}\",stage=\"{stage}\"}} {}", h.sum());
            let _ = writeln!(out, "{STAGE_FAMILY}_count{{instance=\"{inst}\",stage=\"{stage}\"}} {}", h.count());
        }
        let _ = writeln!(out, "# TYPE {STAGE_FAMILY}_max gauge");
        for (i, (_, h)) in self.prev.stages.iter().enumerate() {
            if self.stage_epochs[i] <= since {
                continue;
            }
            let _ = writeln!(
                out,
                "{STAGE_FAMILY}_max{{instance=\"{inst}\",stage=\"{}\"}} {}",
                self.interner.escaped(self.stage_ids[i]),
                h.max()
            );
        }
    }
}

/// The parsed `# EPOCH` first line of a delta-aware exposition body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochHeader {
    /// The snapshot epoch this body brings the scraper up to.
    pub epoch: u64,
    /// `None` for a full snapshot (replace); `Some(base)` for a delta to
    /// apply over the scraper's copy of epoch `base`.
    pub base: Option<u64>,
}

/// Parse the `# EPOCH <epoch> full|base=<n>` header off an exposition body.
/// Returns `None` for legacy bodies without one (treat as a full snapshot).
pub fn parse_epoch_header(text: &str) -> Option<EpochHeader> {
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
/// A single-slot render cache short-circuits duplicate scrapes (same epoch,
/// same base, same queue depth — e.g. a retransmitted request whose first
/// copy already answered): the buffer is served as-is and
/// `telemetry.render_cache_hits` counts the skip.
#[derive(Debug, Default)]
pub struct TelemetryServer {
    delta: DeltaState,
    /// Pooled render buffer, reused across scrapes.
    body: String,
    /// `(epoch, since, queue_depth)` the buffer currently holds.
    cached: Option<(u64, Option<u64>, usize)>,
}

impl TelemetryServer {
    /// Fresh server; nothing is observed or rendered until a scrape lands.
    pub fn new() -> TelemetryServer {
        TelemetryServer::default()
    }

    /// The delta state (epoch inspection in tests).
    pub fn delta(&self) -> &DeltaState {
        &self.delta
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
                let epoch = self.delta.observe_node(metrics, &stages, &exemplars);
                let since = since.filter(|&s| self.delta.can_delta(s));
                let key = (epoch, since, queue_depth);
                if self.cached == Some(key) {
                    ctx.metrics().bump("telemetry.render_cache_hits", 1.0);
                } else {
                    self.delta.render_into(instance, since, &mut self.body);
                    // Engine-level gauge: the hosting simulator's event-queue
                    // depth, read off the scheduler's O(1) occupancy counter.
                    // Zero-padded to a fixed width because the value is
                    // partition-*dependent* (each shard has its own queue)
                    // while scrape bodies must cost the same bytes on the
                    // wire under every shard count — otherwise transfer
                    // times, and with them the monitor-plane SLO digests,
                    // would diverge between partitionings. Emitted in every
                    // body, full or delta, like any other live gauge.
                    let _ = writeln!(self.body, "# TYPE pdagent_sim_queue_depth gauge");
                    let _ = writeln!(
                        self.body,
                        "pdagent_sim_queue_depth{{instance=\"{}\",key=\"{KEY_QUEUE_DEPTH}\"}} {queue_depth:012}",
                        escape_label(instance)
                    );
                    self.cached = Some(key);
                }
                ctx.metrics().bump("telemetry.scrapes", 1.0);
                reply(ctx, from, req, HttpStatus::Ok, Bytes::copy_from_slice(self.body.as_bytes()));
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
/// No-op (and no new series — byte-identity preserved) while sampling is
/// off.
fn set_sampler_gauges(ctx: &mut Ctx<'_>) {
    let Some(stats) = ctx.obs_collector().and_then(|c| c.sampler_stats()) else { return };
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
        let class = h.class.map(|c| c.as_str()).unwrap_or("all");
        let _ = writeln!(
            out,
            "trace {:012} root={} dur_us={} class={class} spans={}",
            h.trace, h.root, h.duration_us, h.spans
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
            let mut line = format!(
                "{{\"record\":\"span\",\"trace\":{},\"span\":{},\"parent\":{},\"name\":\"",
                s.trace, s.id, s.parent
            );
            crate::obs::write_json_escaped(&mut line, s.name);
            line.push('"');
            if let Some(i) = s.index {
                let _ = write!(line, ",\"index\":{i}");
            }
            let _ = write!(line, ",\"node\":{},\"begin_us\":{}", s.node, s.begin.0);
            if let Some(e) = s.end {
                let _ = write!(line, ",\"end_us\":{}", e.0);
            }
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

/// Write a recorder to `<dir>/<scenario>-<node>.jsonl`, creating the
/// directory as needed. Returns the written path.
pub fn dump_flight(
    dir: &Path,
    scenario: &str,
    node: &str,
    rec: &FlightRecorder,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{scenario}-{node}.jsonl"));
    std::fs::write(&path, rec.to_jsonl())?;
    Ok(path)
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
            let (_, labels, _) = parse_sample(line).expect(line);
            assert_eq!(label(&labels, "instance"), Some(weird));
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
    fn render_split(ds: &DeltaState, since: Option<u64>) -> (String, String) {
        let mut out = String::new();
        ds.render_into("gw-0", since, &mut out);
        let (header, rest) = out.split_once('\n').expect("header line");
        (header.to_owned(), rest.to_owned())
    }

    #[test]
    fn delta_full_render_matches_render_prom_byte_for_byte() {
        let snap = sample_snapshot();
        let mut ds = DeltaState::new();
        let epoch = ds.observe(&snap);
        let (header, payload) = render_split(&ds, None);
        assert_eq!(header, format!("# EPOCH {epoch} full"));
        assert_eq!(payload, render_prom("gw-0", &snap), "full render must not drift");
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
        let (header, payload) = render_split(&ds, Some(e1));
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
        // Scraper state: parse the full body.
        let (_, full) = render_split(&ds, None);
        let mut held = parse_prom(&full);
        // Mutate: counter bump, new counter, histogram record.
        m.bump("a.count", 2.0);
        m.bump("b.new", 9.0);
        h.record(50_000);
        ds.observe(&TelemetrySnapshot::capture(&m, &[("s.rtt".to_owned(), h)]));
        let (_, delta) = render_split(&ds, Some(e1));
        held.apply_delta(&parse_prom(&delta));
        assert_eq!(
            render_prom("gw-0", &held),
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
        let (header, payload) = render_split(&ds, Some(e1));
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
            let mut held = TelemetrySnapshot::default();
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
                let since = since.filter(|&s| ds.can_delta(s));
                let mut body = String::new();
                ds.render_into("gw-0", since, &mut body);
                let hd = parse_epoch_header(&body).expect("header");
                if hd.base.is_some() {
                    proptest::prop_assert_eq!(hd.base, last_epoch);
                    held.apply_delta(&parse_prom(&body));
                } else {
                    held = parse_prom(&body);
                }
                last_epoch = Some(hd.epoch);
                // Byte-identity with the live view at every step.
                let _ = step;
                proptest::prop_assert_eq!(
                    render_prom("gw-0", &held),
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
    fn sampling_off_bodies_carry_no_exemplar_suffix() {
        let text = render_prom("gw-0", &sample_snapshot());
        assert!(!text.contains(" # {"), "exemplar leaked into a sampling-off body");
        let mut ds = DeltaState::new();
        ds.observe(&sample_snapshot());
        let (_, full) = render_split(&ds, None);
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
        let (_, full) = render_split(&ds, None);
        let mut held = parse_prom(&full);
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
        let (_, delta) = render_split(&ds, Some(e1));
        assert!(delta.contains("trace_id=\"000000000005\""), "{delta}");
        held.apply_delta(&parse_prom(&delta));
        assert_eq!(
            render_prom("gw-0", &held),
            render_prom("gw-0", ds.snapshot()),
            "delta-applied exemplars must match the live view"
        );
        // And an identical re-observation keeps the epoch put.
        assert_eq!(ds.observe(&bumped), e2);
    }

    #[test]
    fn traces_body_lists_and_renders_timelines() {
        let mut c = Collector::new();
        c.enable_sampling(crate::obs::SamplerConfig {
            head_every: 1,
            ..crate::obs::SamplerConfig::default()
        });
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
            let mut held = TelemetrySnapshot::default();
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
                let since = last_epoch.filter(|&s| ds.can_delta(s));
                let mut body = String::new();
                ds.render_into("gw-0", since, &mut body);
                let hd = parse_epoch_header(&body).expect("header");
                if hd.base.is_some() {
                    held.apply_delta(&parse_prom(&body));
                } else {
                    held = parse_prom(&body);
                }
                last_epoch = Some(hd.epoch);
                proptest::prop_assert_eq!(
                    render_prom("gw-0", &held),
                    render_prom("gw-0", ds.snapshot())
                );
            }
        }
    }
}
