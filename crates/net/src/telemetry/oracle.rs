//! The owning exposition parser and delta apply that
//! [`HeldSnapshot`](super::HeldSnapshot) replaced, and the `write!`-based
//! renderer that [`DeltaState`]'s cached line heads replaced, kept as the
//! references their differential tests compare against.
//!
//! [`parse_prom`](super::parse_prom) is the streaming ingest itself, so a
//! test that compared the ingest with it would compare the ingest with
//! itself. This parser builds a whole [`TelemetrySnapshot`] per body, with a
//! `String` per label and a map entry per bucket, exactly as the scrapers
//! did before they streamed. The renderer formats every line afresh from
//! the observed snapshot and the interned family names and escaped keys.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use super::{
    bucket_index, escape_label, histogram_from_cumulative, sort_last_wins, unescape_label,
    DeltaState, SeriesId, TelemetrySnapshot, STAGE_FAMILY,
};
use crate::obs::{Exemplar, Histogram};

/// Split an exposition sample's value field from an optional exemplar
/// suffix. Returns `(value_text, exemplar)`.
pub(crate) fn split_exemplar(rest: &str) -> (&str, Option<Exemplar>) {
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

/// A float as the exposition format writes it: integers below 1e15 without
/// a trailing `.0`, everything else via `Display`.
fn write_value(out: &mut String, v: f64) {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// What [`DeltaState::render_into`] writes: the `# EPOCH` header, then
/// every series changed since a servable `since` (all of them otherwise).
pub(crate) fn render_into(ds: &DeltaState, instance: &str, since: Option<u64>, out: &mut String) {
    out.clear();
    let since = since.filter(|&s| ds.can_delta(s));
    match since {
        Some(s) => {
            let _ = writeln!(out, "# EPOCH {} base={s}", ds.epoch);
        }
        None => {
            let _ = writeln!(out, "# EPOCH {} full", ds.epoch);
        }
    }
    render_series(ds, instance, since.unwrap_or(0), out);
}

/// Append every series of `ds` whose last-changed epoch is beyond `since`,
/// in exposition order, formatting each line with `write!`.
fn render_series(ds: &DeltaState, instance: &str, since: u64, out: &mut String) {
    let inst = escape_label(instance);
    let family = |id: SeriesId| ds.interner.families[id.0 as usize].as_str();
    let escaped = |id: SeriesId| ds.interner.escaped[id.0 as usize].as_str();
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
            let fam = family(ids[i]);
            if fam != last_fam {
                let _ = writeln!(out, "# TYPE {fam} {kind}");
                last_fam = fam;
            }
            let _ = write!(out, "{fam}{{instance=\"{inst}\",key=\"{}\"}} ", escaped(ids[i]));
            write_value(out, section[i].1);
            out.push('\n');
        }
    };
    let prev = &ds.prev;
    scalars(out, &prev.counters, &ds.counter_ids, &ds.counter_epochs, &ds.counter_order, "counter");
    scalars(out, &prev.gauges, &ds.gauge_ids, &ds.gauge_epochs, &ds.gauge_order, "gauge");

    if !ds.stage_epochs.iter().any(|&e| e > since) {
        return;
    }
    let _ = writeln!(out, "# TYPE {STAGE_FAMILY} histogram");
    for (i, (name, h)) in prev.stages.iter().enumerate() {
        if ds.stage_epochs[i] <= since {
            continue;
        }
        let stage = escaped(ds.stage_ids[i]);
        let rows: &[(u8, Exemplar)] =
            match prev.exemplars.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                Ok(x) => &prev.exemplars[x].1,
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
                let e = &rows[r].1;
                let _ = write!(out, " # {{trace_id=\"{:012}\"}} {} {}", e.trace, e.value_us, e.ts_us);
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
    for (i, (_, h)) in prev.stages.iter().enumerate() {
        if ds.stage_epochs[i] <= since {
            continue;
        }
        let _ = writeln!(
            out,
            "{STAGE_FAMILY}_max{{instance=\"{inst}\",stage=\"{}\"}} {}",
            escaped(ds.stage_ids[i]),
            h.max()
        );
    }
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
pub(crate) fn parse_sample(line: &str) -> Option<(&str, Labels, f64)> {
    parse_sample_full(line).map(|(n, l, v, _)| (n, l, v))
}

pub(crate) fn label<'a>(labels: &'a [(String, String)], key: &str) -> Option<&'a str> {
    labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

/// Parse text exposition into a [`TelemetrySnapshot`]. Counter/gauge keys
/// come from the `key` label (so sanitization is lossless); stage
/// histograms are rebuilt from the cumulative `_bucket` series plus `_sum`
/// and `_max`. Unknown lines are ignored, and a series repeated in one body
/// takes its last line's value.
pub(crate) fn parse_prom(text: &str) -> TelemetrySnapshot {
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
            let Ok(upper) = le.parse::<u64>() else { continue };
            let Some(idx) = bucket_index(upper) else { continue };
            cums.entry(stage.to_owned()).or_default().insert(upper, value as u64);
            if let Some(e) = exemplar {
                exes.entry(stage.to_owned()).or_default().insert(idx as u8, e);
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
    sort_last_wins(&mut snap.counters);
    sort_last_wins(&mut snap.gauges);
    for (stage, by_upper) in cums {
        let sum = sums.get(&stage).copied().unwrap_or(0);
        let max = maxes.get(&stage).copied().unwrap_or(0);
        let h = histogram_from_cumulative(by_upper, sum, max);
        snap.stages.push((stage, h));
    }
    for (stage, by_bucket) in exes {
        snap.exemplars.push((stage, by_bucket.into_iter().collect()));
    }
    snap
}

/// The reference ingest: parse the whole body, then replace the held copy
/// (`full`) or apply the parsed delta over it.
pub(crate) fn apply(held: &mut TelemetrySnapshot, body: &str, full: bool) {
    let parsed = parse_prom(body);
    if full {
        *held = parsed;
    } else {
        held.apply_delta(&parsed);
    }
}

impl TelemetrySnapshot {
    /// Apply a delta body (the changed series of a `# EPOCH .. base=..`
    /// exposition, parsed by [`parse_prom`]): every series in `delta`
    /// *replaces* its slot here, new series are inserted in key order, and a
    /// stage's exemplar rows are replaced, not merged.
    pub(crate) fn apply_delta(&mut self, delta: &TelemetrySnapshot) {
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
        for (name, rows) in &delta.exemplars {
            match self.exemplars.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                Ok(i) => self.exemplars[i].1.clone_from(rows),
                Err(i) => self.exemplars.insert(i, (name.clone(), rows.clone())),
            }
        }
    }
}
