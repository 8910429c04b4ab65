//! The owning exposition parser and delta apply that
//! [`HeldSnapshot`](super::HeldSnapshot) replaced, kept as the reference its
//! differential tests compare against.
//!
//! [`parse_prom`](super::parse_prom) is the streaming ingest itself, so a
//! test that compared the ingest with it would compare the ingest with
//! itself. This parser builds a whole [`TelemetrySnapshot`] per body, with a
//! `String` per label and a map entry per bucket, exactly as the scrapers
//! did before they streamed.

use std::collections::BTreeMap;

use super::{
    bucket_index, histogram_from_cumulative, sort_last_wins, split_exemplar, unescape_label,
    TelemetrySnapshot, STAGE_FAMILY,
};
use crate::obs::Exemplar;

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
