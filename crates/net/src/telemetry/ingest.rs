//! Streaming scrape ingest: exposition bodies applied straight into the
//! snapshot a scraper holds for one target.
//!
//! [`HeldSnapshot`] scans a body once, borrowing family and label text from
//! it, and updates counters, gauges, stage histograms and exemplar rows in
//! place: no intermediate [`TelemetrySnapshot`], no `String` per label and
//! no map entry per bucket. It is the only exposition parser outside tests;
//! [`parse_prom`] is a fresh holder's full ingest.
//!
//! It also remembers, per target, where each label set (`{…}` exactly as it
//! appeared on the wire) resolved to. Scrapes of one target repeat the same
//! label sets, so a series seen before costs a hash lookup and one number
//! parse: no label is split out or unescaped and no key is searched for.
//! This is the scraper-side twin of the serve side's interned series ids
//! ([`DeltaState`](super::DeltaState)).
//!
//! The holder also owns the scrape protocol's epoch rule: it keeps the epoch
//! its snapshot corresponds to, applies a delta only over the `base=` it
//! names, and reports a gap otherwise ([`HeldSnapshot::apply`]).
//!
//! The result is exactly that of the owning parser it replaced, kept as a
//! `#[cfg(test)]` reference (`telemetry/oracle.rs`): a full body leaves the
//! reference's parse of it, and a delta leaves the reference's owning apply
//! of that parse over the held copy (`# TYPE`-declared kinds, last-wins
//! repeats, stages rebuilt from cumulative buckets, exemplar rows replaced
//! per stage). The tests below hold it to that on random delta streams,
//! reordered lines and damaged bodies.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};

use super::{
    bucket_index, histogram_from_cumulative, parse_epoch_header, sort_last_wins, split_exemplar,
    unescape_label, TelemetrySnapshot, STAGE_FAMILY,
};
use crate::obs::Exemplar;

/// Most label sets one target's cache remembers. A target whose label sets
/// never repeat (a label that changes every scrape) would otherwise grow it
/// without bound; past the cap it starts over.
const SLOT_CAP: usize = 4096;

/// One scrape target's telemetry as the scraper holds it, kept current by
/// [`HeldSnapshot::apply`].
#[derive(Debug, Clone, Default)]
pub struct HeldSnapshot {
    snap: TelemetrySnapshot,
    /// The target's epoch `snap` corresponds to: `None` until a full body
    /// with an `# EPOCH` header lands, and after a header-less one.
    epoch: Option<u64>,
    /// Label set → what it resolved to. Positions index `snap`'s sections,
    /// so any insert or removal there clears the map. The family name is
    /// not part of the key: a family only picks which of a label set's
    /// resolutions a line uses, and it is classified on every line. A
    /// stage's bucket lines share one key, their label set up to the `le`
    /// label, so the map holds a few entries per stage rather than one per
    /// bound.
    slots: HashMap<Box<str>, Series>,
}

/// What [`HeldSnapshot::apply`] did with a body. `regressed` says the
/// body's epoch is below the one held before it: serving nodes only move
/// their epoch forward, so state went backwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingested {
    /// A full snapshot (`# EPOCH <e> full`, or no header) replaced what
    /// was held.
    Full { regressed: bool },
    /// A delta applied over the held epoch it names as its `base=`.
    Delta { regressed: bool },
    /// A delta over an epoch not held: refused, and nothing changed. The
    /// scraper must fetch a full snapshot.
    Gap,
}

thread_local! {
    /// Per-body working state. It only lives for one `ingest` call, so one
    /// set of buffers per thread serves every held snapshot.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Where a label set's series sit in the held snapshot: the position of its
/// `key` label in `counters` and in `gauges`, and of its `stage` label in
/// `stages` (`None` when the label is absent or the series is not held).
#[derive(Debug, Clone, Copy, Default)]
struct Series {
    counter: Option<u32>,
    gauge: Option<u32>,
    stage: Option<u32>,
}

/// How the reference reads a sample, by its family name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    /// A cumulative bucket of the stage named by the `stage` label.
    Bucket,
    /// A stage's `_sum`.
    Sum,
    /// A stage's `_max`.
    Max,
    /// A stage's `_count`: redundant with the buckets, so ignored.
    Count,
    /// A counter or gauge named by the `key` label; the family's `# TYPE`
    /// declaration says which.
    Scalar,
}

impl Family {
    /// The index of a sample line's first `{`, which ends its family name,
    /// and the family.
    fn split(line: &str) -> Option<(usize, Family)> {
        let brace = line.find('{')?;
        let family = match line[..brace].strip_prefix(STAGE_FAMILY) {
            Some("_bucket") => Family::Bucket,
            Some("_sum") => Family::Sum,
            Some("_max") => Family::Max,
            Some("_count") => Family::Count,
            _ => Family::Scalar,
        };
        Some((brace, family))
    }
}

/// Which stage sample a line carries.
#[derive(Debug, Clone, Copy)]
enum StagePart {
    Bucket { upper: u64, index: u8 },
    Sum,
    Max,
}

/// One body's samples of one stage, gathered until the body ends.
#[derive(Debug, Clone, Default)]
struct StageLines {
    /// `(upper, cumulative count)` in line order.
    cums: Vec<(u64, u64)>,
    sum: Option<u64>,
    max: Option<u64>,
    /// `(bucket, exemplar)` in line order.
    exemplars: Vec<(u8, Exemplar)>,
    touched: bool,
}

impl StageLines {
    fn add(&mut self, part: StagePart, value: f64, exemplar: Option<Exemplar>) {
        match part {
            StagePart::Bucket { upper, index } => {
                self.cums.push((upper, value as u64));
                if let Some(e) = exemplar {
                    self.exemplars.push((index, e));
                }
            }
            StagePart::Sum => self.sum = Some(value as u64),
            StagePart::Max => self.max = Some(value as u64),
        }
    }

    /// Empty again, keeping the allocations.
    fn reset(&mut self) {
        self.cums.clear();
        self.exemplars.clear();
        self.sum = None;
        self.max = None;
        self.touched = false;
    }
}

/// Per-body working state, kept between bodies for its allocations.
#[derive(Debug, Default)]
struct Scratch {
    /// `# TYPE` declarations of the current body: `(start, end)` of the
    /// family name in the body text, and whether it declares a counter.
    types: Vec<(usize, usize, bool)>,
    /// The body's samples per held stage, by position (it only grows, so
    /// targets with different stage counts do not churn its buffers).
    stages: Vec<StageLines>,
    /// Positions in `stages` the body touched.
    touched: Vec<u32>,
    /// The body's samples of stages the held snapshot lacks.
    new_stages: BTreeMap<String, StageLines>,
    new_counters: Vec<(String, f64)>,
    new_gauges: Vec<(String, f64)>,
    /// Held series the body carried (a full body drops the others).
    seen_counters: Vec<bool>,
    seen_gauges: Vec<bool>,
}

impl Scratch {
    /// A sample of a stage the held snapshot lacks.
    fn new_stage_sample(&mut self, stage: Cow<'_, str>, part: StagePart, tail: &str) {
        if let Some((value, exemplar)) = sample_value(tail) {
            self.new_stages
                .entry(stage.into_owned())
                .or_default()
                .add(part, value, exemplar);
        }
    }

    fn stage(&mut self, pos: u32) -> &mut StageLines {
        let lines = &mut self.stages[pos as usize];
        if !lines.touched {
            lines.touched = true;
            self.touched.push(pos);
        }
        lines
    }

    /// Is `family` a counter family at this point of the body? The latest
    /// `# TYPE` line for it decides; an undeclared family is a counter when
    /// its name ends in `_total`. Scalar samples follow their family's
    /// declaration, so the search usually stops at the last one.
    fn declared_counter(&self, text: &str, family: &str) -> bool {
        match self
            .types
            .iter()
            .rev()
            .find(|&&(s, e, _)| &text[s..e] == family)
        {
            Some(&(_, _, counter)) => counter,
            None => family.ends_with("_total"),
        }
    }
}

/// Parse text exposition (what [`render_prom`](super::render_prom) or a
/// [`DeltaState`](super::DeltaState) writes) into a [`TelemetrySnapshot`]:
/// a fresh [`HeldSnapshot`]'s full ingest. Counter and gauge keys come from
/// the `key` label, so sanitization is lossless, and their kind from the
/// family's `# TYPE` line (an undeclared family is a counter when its name
/// ends in `_total`). Stage histograms are rebuilt from the cumulative
/// `_bucket` series plus `_sum` and `_max`. Unknown lines, an `# EPOCH`
/// header among them, are ignored, and a series repeated in one body takes
/// its last line's value.
pub fn parse_prom(text: &str) -> TelemetrySnapshot {
    let mut held = HeldSnapshot::new();
    held.ingest(text, true);
    held.snap
}

impl HeldSnapshot {
    /// Nothing held yet.
    pub fn new() -> HeldSnapshot {
        HeldSnapshot::default()
    }

    /// The held telemetry.
    pub fn snapshot(&self) -> &TelemetrySnapshot {
        &self.snap
    }

    /// The target's epoch the held telemetry corresponds to: the `since=`
    /// base of the next delta scrape.
    pub fn epoch(&self) -> Option<u64> {
        self.epoch
    }

    /// Apply one scraped body under the epoch rule. A full body replaces
    /// what is held; a delta applies only over the epoch it names as its
    /// base, and is otherwise refused as a [`Ingested::Gap`].
    pub fn apply(&mut self, text: &str) -> Ingested {
        let header = parse_epoch_header(text);
        let base = header.and_then(|h| h.base);
        if base.is_some() && base != self.epoch {
            return Ingested::Gap;
        }
        let epoch = header.map(|h| h.epoch);
        let regressed = matches!((self.epoch, epoch), (Some(held), Some(new)) if new < held);
        self.ingest(text, base.is_none());
        self.epoch = epoch;
        match base {
            Some(_) => Ingested::Delta { regressed },
            None => Ingested::Full { regressed },
        }
    }

    /// Apply one exposition body's series. A `full` body replaces what is
    /// held; otherwise the body is a delta whose series replace their slots
    /// and whose new series are inserted in key order.
    fn ingest(&mut self, text: &str, full: bool) {
        let mut sc = SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut()));
        sc.types.clear();
        if sc.stages.len() < self.snap.stages.len() {
            sc.stages
                .resize_with(self.snap.stages.len(), StageLines::default);
        }
        sc.seen_counters.clear();
        sc.seen_counters.resize(self.snap.counters.len(), false);
        sc.seen_gauges.clear();
        sc.seen_gauges.resize(self.snap.gauges.len(), false);
        if full {
            self.snap.exemplars.clear();
        }
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if line.starts_with('#') {
                if let Some(decl) = line.strip_prefix("# TYPE ") {
                    let mut words = decl.split_whitespace();
                    if let (Some(family), Some(kind)) = (words.next(), words.next()) {
                        let start = family.as_ptr() as usize - text.as_ptr() as usize;
                        sc.types
                            .push((start, start + family.len(), kind == "counter"));
                    }
                }
                continue;
            }
            let Some((brace, family)) = Family::split(line) else {
                continue;
            };
            let name = &line[..brace];
            if family == Family::Count {
                continue;
            }
            // A cached label set ends where it closed, and a line whose
            // label set starts with it closes there too, so any guess at the
            // end is safe to look up. The first `}` is right unless a label
            // value holds one.
            let Some(guess) = line[brace..].find('}').map(|i| brace + i) else {
                continue;
            };
            let tail = &line[guess + 1..];
            let hit = if family == Family::Bucket {
                bucket_key(line, brace, guess).and_then(|(base, bound)| {
                    let stage = self.slots.get(base)?.stage?;
                    apply_bucket(&mut sc, stage, bound, tail);
                    Some(())
                })
            } else {
                self.slots
                    .get(&line[brace..=guess])
                    .copied()
                    .and_then(|series| self.apply_sample(&mut sc, text, name, family, series, tail))
            };
            if hit.is_some() {
                continue;
            }

            let Some(labels) = LabelSet::scan(line, brace) else {
                continue;
            };
            let tail = &line[labels.close + 1..];
            let key = labels.key.map(unescaped);
            let stage = labels.stage.map(unescaped);
            let position = |section: &[(String, f64)], key: &str| {
                section
                    .binary_search_by(|(k, _)| k.as_str().cmp(key))
                    .ok()
                    .map(|i| i as u32)
            };
            let series = Series {
                counter: key
                    .as_deref()
                    .and_then(|k| position(&self.snap.counters, k)),
                gauge: key.as_deref().and_then(|k| position(&self.snap.gauges, k)),
                stage: stage.as_deref().and_then(|s| {
                    let found = self
                        .snap
                        .stages
                        .binary_search_by(|(n, _)| n.as_str().cmp(s));
                    found.ok().map(|i| i as u32)
                }),
            };
            let cache_key = match family {
                Family::Bucket => bucket_key(line, brace, labels.close)
                    .map(|(base, _)| base)
                    .filter(|base| brace + base.len() == labels.le_start),
                _ => Some(&line[brace..=labels.close]),
            };
            if let Some(cache_key) = cache_key {
                if series.counter.or(series.gauge).or(series.stage).is_some() {
                    if self.slots.len() >= SLOT_CAP {
                        self.slots.clear();
                    }
                    self.slots.insert(cache_key.into(), series);
                }
            }
            if family == Family::Bucket {
                let (Some(stage), Some(le)) = (stage, labels.le) else {
                    continue;
                };
                let le = unescaped(le);
                match series.stage {
                    Some(pos) => apply_bucket(&mut sc, pos, &le, tail),
                    None => {
                        if let Some((upper, index)) = bucket_bound(&le) {
                            sc.new_stage_sample(stage, StagePart::Bucket { upper, index }, tail);
                        }
                    }
                }
            } else if self
                .apply_sample(&mut sc, text, name, family, series, tail)
                .is_none()
            {
                // Not held: a new series, or a line without the label its
                // family needs.
                match family {
                    Family::Sum | Family::Max => {
                        let Some(stage) = stage else { continue };
                        let part = if family == Family::Sum {
                            StagePart::Sum
                        } else {
                            StagePart::Max
                        };
                        sc.new_stage_sample(stage, part, tail);
                    }
                    _ => {
                        let Some(key) = key else { continue };
                        if let Some((value, _)) = sample_value(tail) {
                            let fresh = if sc.declared_counter(text, name) {
                                &mut sc.new_counters
                            } else {
                                &mut sc.new_gauges
                            };
                            fresh.push((key.into_owned(), value));
                        }
                    }
                }
            }
        }
        if self.settle(&mut sc, full) {
            self.slots.clear();
        }
        SCRATCH.with(|s| *s.borrow_mut() = sc);
    }

    /// Apply one `_sum`, `_max` or counter/gauge sample whose label set
    /// resolved to `series`. `None` (and nothing applied) when the series
    /// it names is not held; a value that is not a number is ignored.
    fn apply_sample(
        &mut self,
        sc: &mut Scratch,
        text: &str,
        name: &str,
        family: Family,
        series: Series,
        tail: &str,
    ) -> Option<()> {
        let part = match family {
            Family::Sum => StagePart::Sum,
            Family::Max => StagePart::Max,
            Family::Scalar => {
                let counter = sc.declared_counter(text, name);
                let (section, seen, pos) = if counter {
                    (
                        &mut self.snap.counters,
                        &mut sc.seen_counters,
                        series.counter?,
                    )
                } else {
                    (&mut self.snap.gauges, &mut sc.seen_gauges, series.gauge?)
                };
                if let Some((value, _)) = sample_value(tail) {
                    section[pos as usize].1 = value;
                    seen[pos as usize] = true;
                }
                return Some(());
            }
            Family::Bucket | Family::Count => return None,
        };
        let pos = series.stage?;
        if let Some((value, exemplar)) = sample_value(tail) {
            sc.stage(pos).add(part, value, exemplar);
        }
        Some(())
    }

    /// End of body: rebuild the stages it carried, insert its new series,
    /// and for a full body drop what it did not carry. Returns whether a
    /// section changed shape (which invalidates the slot cache).
    fn settle(&mut self, sc: &mut Scratch, full: bool) -> bool {
        let TelemetrySnapshot {
            counters,
            gauges,
            stages,
            exemplars,
        } = &mut self.snap;
        let mut reshaped = settle_scalars(counters, &sc.seen_counters, &mut sc.new_counters, full);
        reshaped |= settle_scalars(gauges, &sc.seen_gauges, &mut sc.new_gauges, full);

        // A stage is rebuilt only when the body carried cumulative buckets
        // for it; `_sum`/`_max` alone leave it as it was.
        let mut kept = vec![false; if full { stages.len() } else { 0 }];
        for &pos in &sc.touched {
            let lines = &mut sc.stages[pos as usize];
            if !lines.cums.is_empty() {
                let (name, h) = &mut stages[pos as usize];
                *h = rebuild(lines);
                put_rows(exemplars, name, &mut lines.exemplars);
                if let Some(k) = kept.get_mut(pos as usize) {
                    *k = true;
                }
            }
            lines.reset();
        }
        sc.touched.clear();
        if kept.contains(&false) {
            let mut pos = 0;
            stages.retain(|_| {
                pos += 1;
                kept[pos - 1]
            });
            reshaped = true;
        }
        for (name, mut lines) in std::mem::take(&mut sc.new_stages) {
            if lines.cums.is_empty() {
                continue;
            }
            let h = rebuild(&mut lines);
            put_rows(exemplars, &name, &mut lines.exemplars);
            if let Err(i) = stages.binary_search_by(|(n, _)| n.as_str().cmp(&name)) {
                stages.insert(i, (name, h));
            }
            reshaped = true;
        }
        reshaped
    }
}

/// Apply one cumulative bucket sample of held stage `stage`, whose `le`
/// label reads `bound` (unescaped).
fn apply_bucket(sc: &mut Scratch, stage: u32, bound: &str, tail: &str) {
    let Some((upper, index)) = bucket_bound(bound) else {
        return;
    };
    if let Some((value, exemplar)) = sample_value(tail) {
        sc.stage(stage)
            .add(StagePart::Bucket { upper, index }, value, exemplar);
    }
}

/// A bucket's `le` bound and bucket index; `None` for `+Inf` (the same as
/// the `_count` series) and for bounds the reference ignores.
fn bucket_bound(le: &str) -> Option<(u64, u8)> {
    let upper = le.parse::<u64>().ok()?;
    Some((upper, bucket_index(upper)? as u8))
}

/// Split a bucket line whose label set (opening at `brace`) is shaped like
/// `{…,le="<bound>"}` and taken to close at `close` into the key its stage's
/// buckets are cached under, the label set up to the `le` label, and the
/// bound. The bound must hold no quote or escape, so that the label set
/// really does close at `close`.
fn bucket_key(line: &str, brace: usize, close: usize) -> Option<(&str, &str)> {
    let b = line.as_bytes();
    if close < brace + 2 || b[close - 1] != b'"' {
        return None;
    }
    let mut open = close - 1;
    loop {
        open -= 1;
        match b[open] {
            b'"' => break,
            b'\\' => return None,
            _ if open == brace => return None,
            _ => {}
        }
    }
    let base_end = open.checked_sub(3)?;
    (base_end > brace + 1 && &b[base_end - 1..open] == b",le=")
        .then(|| (&line[brace..base_end], &line[open + 1..close - 1]))
}

/// A stage histogram from one body's samples of it.
fn rebuild(lines: &mut StageLines) -> crate::obs::Histogram {
    sort_last_wins(&mut lines.cums);
    histogram_from_cumulative(
        lines.cums.iter().copied(),
        lines.sum.unwrap_or(0),
        lines.max.unwrap_or(0),
    )
}

/// Replace `stage`'s exemplar rows with the body's (`rows`, in line order;
/// a later line for the same bucket wins). A body without exemplars for the
/// stage leaves its rows alone.
fn put_rows(
    exemplars: &mut Vec<(String, Vec<(u8, Exemplar)>)>,
    stage: &str,
    rows: &mut Vec<(u8, Exemplar)>,
) {
    if rows.is_empty() {
        return;
    }
    sort_last_wins(rows);
    match exemplars.binary_search_by(|(n, _)| n.as_str().cmp(stage)) {
        Ok(i) => {
            exemplars[i].1.clear();
            exemplars[i].1.extend_from_slice(rows);
        }
        Err(i) => exemplars.insert(i, (stage.to_owned(), rows.clone())),
    }
    rows.clear();
}

/// End of body for one scalar section: a full body drops the series it did
/// not carry, and new series go in at their key order. Returns whether the
/// section changed shape.
fn settle_scalars(
    section: &mut Vec<(String, f64)>,
    seen: &[bool],
    fresh: &mut Vec<(String, f64)>,
    full: bool,
) -> bool {
    let mut reshaped = false;
    if full && seen.contains(&false) {
        let mut pos = 0;
        section.retain(|_| {
            pos += 1;
            seen[pos - 1]
        });
        reshaped = true;
    }
    if !fresh.is_empty() {
        // `fresh` holds only keys the section lacked, so one sort of the
        // two sorted runs interleaves them.
        sort_last_wins(fresh);
        section.append(fresh);
        section.sort_by(|a, b| a.0.cmp(&b.0));
        reshaped = true;
    }
    reshaped
}

/// A sample's value and optional exemplar from the text after its label
/// set, exactly as the reference reads them (`None` when the value is not a
/// number).
fn sample_value(tail: &str) -> Option<(f64, Option<Exemplar>)> {
    let (value, exemplar) = split_exemplar(tail);
    Some((value.trim().parse().ok()?, exemplar))
}

/// A label value with its escapes resolved, borrowed when it has none.
fn unescaped(raw: &str) -> Cow<'_, str> {
    if raw.contains('\\') {
        Cow::Owned(unescape_label(raw))
    } else {
        Cow::Borrowed(raw)
    }
}

/// One sample line's label set, scanned with exactly the grammar of the
/// reference parser: where it closes, and the raw (still escaped) values of
/// the first `key`, `stage` and `le` labels, the only ones ingest reads.
/// `None` where the reference rejects the line.
struct LabelSet<'a> {
    /// Index of the `}` that closes the label set.
    close: usize,
    key: Option<&'a str>,
    stage: Option<&'a str>,
    le: Option<&'a str>,
    /// Where the name of the label `le` came from starts.
    le_start: usize,
}

impl<'a> LabelSet<'a> {
    /// Scan the label set opening at `brace`, the line's first `{`.
    fn scan(line: &'a str, brace: usize) -> Option<LabelSet<'a>> {
        let bytes = line.as_bytes();
        let mut set = LabelSet {
            close: 0,
            key: None,
            stage: None,
            le: None,
            le_start: 0,
        };
        let mut i = brace + 1;
        loop {
            // Label name up to '=', or the end of an empty or comma-ended set.
            let name_start = i;
            loop {
                match *bytes.get(i)? {
                    b'=' => break,
                    b'}' => {
                        set.close = i;
                        return Some(set);
                    }
                    _ => i += 1,
                }
            }
            let name = line[name_start..i].trim_start_matches(',');
            i += 1;
            if *bytes.get(i)? != b'"' {
                return None;
            }
            // Value up to the unescaped closing quote. The bytes that matter
            // are ASCII, so stepping over UTF-8 bytes one at a time splits
            // lines exactly where stepping over chars does.
            i += 1;
            let value_start = i;
            loop {
                match *bytes.get(i)? {
                    b'\\' => i += 2,
                    b'"' => break,
                    _ => i += 1,
                }
            }
            let value = Some(&line[value_start..i]);
            match name {
                "key" if set.key.is_none() => set.key = value,
                "stage" if set.stage.is_none() => set.stage = value,
                "le" if set.le.is_none() => {
                    set.le = value;
                    set.le_start = name_start;
                }
                _ => {}
            }
            i += 1;
            match *bytes.get(i)? {
                b',' => i += 1,
                b'}' => {
                    set.close = i;
                    return Some(set);
                }
                _ => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use crate::obs::Histogram;
    use crate::telemetry::oracle;
    use crate::telemetry::{parse_epoch_header, render_prom, DeltaState};
    use proptest::collection::vec;

    /// A snapshot with its floats as bits, so NaN samples compare equal.
    type Bits = (
        Vec<(String, u64)>,
        Vec<(String, u64)>,
        Vec<(String, Histogram)>,
        Vec<(String, Vec<(u8, Exemplar)>)>,
    );

    fn bits(s: &TelemetrySnapshot) -> Bits {
        let scalars =
            |v: &[(String, f64)]| v.iter().map(|(k, x)| (k.clone(), x.to_bits())).collect();
        (
            scalars(&s.counters),
            scalars(&s.gauges),
            s.stages.clone(),
            s.exemplars.clone(),
        )
    }

    /// Ingest `body` into both holders and report any difference.
    fn step(
        held: &mut HeldSnapshot,
        want: &mut TelemetrySnapshot,
        body: &str,
        full: bool,
    ) -> Result<(), String> {
        held.ingest(body, full);
        oracle::apply(want, body, full);
        if bits(held.snapshot()) == bits(want) {
            Ok(())
        } else {
            Err(format!(
                "full={full} body:\n{body}\ningest: {:?}\nreference: {want:?}",
                held.snapshot()
            ))
        }
    }

    const KEYS: [&str; 8] = [
        "a.b",
        "a_b",
        "queue.total",
        "odd\"key\\n",
        "line\nbreak",
        "é.utf8",
        "gw.replays",
        "x",
    ];
    const STAGES: [&str; 3] = ["gateway.stage", "http.upload", "we\"ird\\stage"];

    // Random serve-side histories scraped the way the monitor and the
    // federation scraper do: full and delta bodies, server-forced resyncs
    // after a series vanishes, legacy header-less bodies, escaped labels,
    // keys whose families collide once sanitized (`a.b`, `a_b`), a gauge
    // whose family ends in `_total`, and exemplars.
    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]
        #[test]
        fn ingest_matches_the_reference_on_delta_streams(
            ops in vec((0u8..8, 0usize..8, 1u64..200_000), 1..40),
            asks in vec(0u8..6, 40..41),
        ) {
            let mut m = Metrics::new();
            let mut hists = vec![Histogram::new(); STAGES.len()];
            let mut exes: Vec<BTreeMap<u8, Exemplar>> = vec![BTreeMap::new(); STAGES.len()];
            let mut ds = DeltaState::new();
            let mut held = HeldSnapshot::new();
            let mut want = TelemetrySnapshot::default();
            let mut last: Option<u64> = None;
            for (i, &(op, slot, val)) in ops.iter().enumerate() {
                match op {
                    0 | 1 => m.bump(KEYS[slot], val as f64),
                    2 => m.set_gauge(KEYS[slot], val as f64 / 8.0),
                    3 | 4 => {
                        let s = slot % STAGES.len();
                        hists[s].record(val);
                        let e = Exemplar { trace: val, value_us: val, ts_us: i as u64 };
                        exes[s].insert(Histogram::bucket_of(val) as u8, e);
                    }
                    5 => m = Metrics::new(), // series vanish: the server resyncs
                    _ => {}
                }
                let stages: Vec<(String, Histogram)> = STAGES
                    .iter()
                    .zip(&hists)
                    .filter(|(_, h)| h.count() > 0)
                    .map(|(s, h)| ((*s).to_owned(), h.clone()))
                    .collect();
                let mut snap = TelemetrySnapshot::capture(&m, &stages);
                snap.exemplars = STAGES
                    .iter()
                    .zip(&exes)
                    .filter(|(_, rows)| !rows.is_empty())
                    .map(|(s, rows)| ((*s).to_owned(), rows.iter().map(|(b, e)| (*b, *e)).collect()))
                    .collect();
                ds.observe(&snap);
                let body = if op == 7 {
                    render_prom("gw-\"0\"", &snap)
                } else {
                    let since = if asks[i] == 0 { None } else { last.filter(|&s| ds.can_delta(s)) };
                    let mut body = String::new();
                    ds.render_into("gw-\"0\"", since, &mut body);
                    body
                };
                let header = parse_epoch_header(&body);
                step(&mut held, &mut want, &body, header.is_none_or(|h| h.base.is_none()))?;
                last = header.map(|h| h.epoch);
            }
        }
    }

    const FAMILIES: [&str; 11] = [
        "pdagent_a_total",
        "pdagent_a",
        "pdagent_q_total",
        "pdagent_stage_duration_us_bucket",
        "pdagent_stage_duration_us_bucket",
        "pdagent_stage_duration_us_sum",
        "pdagent_stage_duration_us_max",
        "pdagent_stage_duration_us_count",
        "pdagent_stage_duration_us",
        "x y",
        "",
    ];
    const LABEL_SETS: [&str; 24] = [
        r#"{instance="gw",key="k1"}"#,
        r#"{instance="gw",key="k2"}"#,
        r#"{key="k1"}"#,
        r#"{key="k\"1"}"#,
        r#"{key="a}b"}"#,
        r#"{instance="gw",stage="s1",le="1"}"#,
        r#"{instance="gw",stage="s1",le="3"}"#,
        r#"{instance="gw",stage="s1",le="5"}"#,
        r#"{instance="gw",stage="s1",le="+Inf"}"#,
        r#"{instance="gw",stage="s1",le="18446744073709551615"}"#,
        r#"{instance="gw",stage="s1"}"#,
        r#"{stage="s2",le="0"}"#,
        r#"{le="7",stage="s2"}"#,
        r#"{instance="gw",stage="s1",le="1",le="3"}"#,
        r#"{instance="gw",key="k1",stage="s1",le="15"}"#,
        r#"{instance="gw",stage="s\\1",le="1"}"#,
        r#"{instance="gw",stage="s}1",le="1"}"#,
        r#"{instance="gw",stage="s1",,le="3"}"#,
        r#"{instance="gw",stage="s1",le="1\"}"#,
        r#"{}"#,
        r#"{,}"#,
        r#"{instance="gw",}"#,
        r#"{instance="gw",key="k1""#,
        r#"{instance=gw}"#,
    ];
    const VALUES: [&str; 12] = [
        "1",
        "2",
        "0",
        "12.5",
        "NaN",
        "-3",
        "abc",
        "",
        "1e3",
        "007",
        "18446744073709551616",
        "+Inf",
    ];
    const SUFFIXES: [&str; 6] = [
        "",
        r#" # {trace_id="000000000042"} 900 5000"#,
        r#" # {trace_id="7"} 1 2"#,
        " # junk",
        " #",
        r#" # {trace_id="9"} 3 4 # {trace_id="8"} 5 6"#,
    ];
    const TYPES: [&str; 4] = ["counter", "gauge", "histogram", "summary"];

    /// One line of a hostile body, from indices into the fragment tables.
    fn soup_line(&(kind, a, b, c, d): &(u8, usize, usize, usize, usize)) -> String {
        let pad = ["", " ", "\t"][d % 3];
        match kind {
            0 => format!(
                "# TYPE {} {}",
                FAMILIES[a % FAMILIES.len()],
                TYPES[b % TYPES.len()]
            ),
            1 => [
                "# EPOCH 3 base=2",
                "# HELP x",
                "",
                "   ",
                "#TYPE pdagent_a counter",
            ][b % 5]
                .to_owned(),
            _ => format!(
                "{pad}{}{} {}{}{pad}",
                FAMILIES[a % FAMILIES.len()],
                LABEL_SETS[b % LABEL_SETS.len()],
                VALUES[c % VALUES.len()],
                SUFFIXES[d % SUFFIXES.len()],
            ),
        }
    }

    // Bodies no renderer emits: lines built from fragments that exercise
    // every branch of the grammar (malformed label sets, repeated and
    // reordered labels, `}` inside a value, bounds that are not `2^i - 1`,
    // an `le` whose successor overflows, NaN and non-numeric values, broken
    // exemplars) and every interaction with the slot cache (one label set
    // under several families, `# TYPE` flipping a family's kind mid-body,
    // repeats within a body).
    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]
        #[test]
        fn ingest_matches_the_reference_on_hostile_line_soup(
            bodies in vec(
                (0u8..2, vec((0u8..6, 0usize..64, 0usize..64, 0usize..64, 0usize..64), 0..24)),
                1..8,
            ),
        ) {
            let mut held = HeldSnapshot::new();
            let mut want = TelemetrySnapshot::default();
            for (full, lines) in &bodies {
                let body: Vec<String> = lines.iter().map(soup_line).collect();
                step(&mut held, &mut want, &body.join("\n"), *full == 0)?;
            }
        }
    }

    // Every family against every label set, value and exemplar suffix, each
    // line read twice over a warm cache (the second read takes the cached
    // path), after a body that holds every series the fragments name.
    #[test]
    fn every_fragment_combination_matches_the_reference_on_a_warm_cache() {
        let mut warm_body = String::new();
        for family in FAMILIES {
            for labels in LABEL_SETS {
                warm_body.push_str(&format!("{family}{labels} 1\n"));
            }
        }
        let mut warm = HeldSnapshot::new();
        let mut warm_want = TelemetrySnapshot::default();
        step(&mut warm, &mut warm_want, &warm_body, true).unwrap();
        for family in FAMILIES {
            for labels in LABEL_SETS {
                for value in ["2", "NaN", "abc"] {
                    for suffix in SUFFIXES {
                        let body =
                            format!("# TYPE {family} gauge\n{family}{labels} {value}{suffix}\n");
                        let (mut held, mut want) = (warm.clone(), warm_want.clone());
                        step(&mut held, &mut want, &body, false).unwrap();
                        step(&mut held, &mut want, &body, false).unwrap();
                        step(
                            &mut held,
                            &mut want,
                            &body[body.find('\n').unwrap() + 1..],
                            false,
                        )
                        .unwrap();
                    }
                }
            }
        }
    }

    /// A gateway-shaped full body and a delta over it, as a target serves
    /// them: counters and gauges (one with escapes), two stages with
    /// exemplars, and the queue-depth gauge.
    fn captured_bodies() -> (String, String) {
        let mut m = Metrics::new();
        m.bump("gateway.dispatches", 10.0);
        m.bump("weird\"key\\x", 2.0);
        m.set_gauge("gateway.replay_entries", 4.0);
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [3u64, 70, 900] {
            a.record(v);
            b.record(v / 2);
        }
        let stages = vec![
            ("gateway.stage".to_owned(), a.clone()),
            ("http.upload".to_owned(), b),
        ];
        let mut snap = TelemetrySnapshot::capture(&m, &stages);
        let e = |trace| Exemplar {
            trace,
            value_us: 900,
            ts_us: 5_000,
        };
        snap.exemplars = vec![("gateway.stage".to_owned(), vec![(2, e(42)), (10, e(7))])];
        let mut ds = DeltaState::new();
        let base = ds.observe(&snap);
        let mut full = String::new();
        ds.render_into("gw-1", None, &mut full);
        m.bump("gateway.dispatches", 1.0);
        a.record(65_000);
        let stages = [("gateway.stage".to_owned(), a), stages[1].clone()];
        snap = TelemetrySnapshot {
            exemplars: snap.exemplars,
            ..TelemetrySnapshot::capture(&m, &stages)
        };
        ds.observe(&snap);
        let mut delta = String::new();
        ds.render_into("gw-1", Some(base), &mut delta);
        full.push_str(
            "pdagent_sim_queue_depth{instance=\"gw-1\",key=\"sim.queue_depth\"} 000000000188\n",
        );
        (full, delta)
    }

    // A damaged body (cut at any byte, or with any one byte replaced) never
    // panics and lands exactly where the reference lands, whether it is
    // read as a full snapshot or as a delta over a warm cache.
    #[test]
    fn cut_and_corrupted_bodies_match_the_reference() {
        let (full, delta) = captured_bodies();
        let mut warm = HeldSnapshot::new();
        let mut warm_want = TelemetrySnapshot::default();
        step(&mut warm, &mut warm_want, &full, true).unwrap();
        let subs = [
            b'"', b'\\', b'}', b'{', b',', b'=', b' ', b'#', b'\n', b'x', b'9', b'+',
        ];
        for body in [&full, &delta] {
            let mut damaged: Vec<String> = (0..=body.len())
                .filter(|&cut| body.is_char_boundary(cut))
                .map(|cut| body[..cut].to_owned())
                .collect();
            for (i, &orig) in body.as_bytes().iter().enumerate() {
                if orig.is_ascii() {
                    let mut bytes = body.as_bytes().to_vec();
                    bytes[i] = subs[i % subs.len()];
                    damaged.push(String::from_utf8(bytes).expect("ASCII swap keeps UTF-8"));
                }
            }
            for text in &damaged {
                for is_full in [false, true] {
                    let (mut held, mut want) = (warm.clone(), warm_want.clone());
                    step(&mut held, &mut want, text, is_full).unwrap();
                }
            }
        }
    }

    // Bucket, `_sum` and `_max` lines may come in any order within a stage:
    // stages are rebuilt from the body's samples once it ends.
    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]
        #[test]
        fn reordered_stage_lines_match_the_reference(
            keys in vec(0u64..1_000_000, 64..65),
            warm in 0u8..2,
        ) {
            let (full, _) = captured_bodies();
            // Shuffle each stage's block (every line naming one stage) in
            // place, by the random sort keys.
            let mut lines: Vec<&str> = full.lines().collect();
            for stage in ["stage=\"gateway.stage\"", "stage=\"http.upload\""] {
                let at: Vec<usize> = (0..lines.len()).filter(|&i| lines[i].contains(stage)).collect();
                let mut block: Vec<&str> = at.iter().map(|&i| lines[i]).collect();
                let mut order: Vec<usize> = (0..block.len()).collect();
                order.sort_by_key(|&j| keys[j % keys.len()] ^ j as u64);
                block = order.iter().map(|&j| block[j]).collect();
                for (&i, line) in at.iter().zip(block) {
                    lines[i] = line;
                }
            }
            let shuffled = lines.join("\n");
            let mut held = HeldSnapshot::new();
            let mut want = TelemetrySnapshot::default();
            if warm == 1 {
                step(&mut held, &mut want, &full, true)?;
            }
            step(&mut held, &mut want, &shuffled, true)?;
            step(&mut held, &mut want, &shuffled, false)?;
            proptest::prop_assert_eq!(bits(held.snapshot()), bits(&oracle::parse_prom(&full)));
        }
    }

    #[test]
    fn overflowing_bucket_bound_is_ignored_with_or_without_an_exemplar() {
        let max = u64::MAX;
        let body = format!(
            "pdagent_stage_duration_us_bucket{{stage=\"s\",le=\"1\"}} 2\n\
             pdagent_stage_duration_us_bucket{{stage=\"s\",le=\"{max}\"}} 5\n\
             pdagent_stage_duration_us_bucket{{stage=\"s\",le=\"{max}\"}} 6 # {{trace_id=\"000000000009\"}} 1 2\n\
             pdagent_stage_duration_us_bucket{{stage=\"t\",le=\"{max}\"}} 7 # {{trace_id=\"000000000009\"}} 1 2\n"
        );
        let parsed = parse_prom(&body);
        assert_eq!(
            parsed.stages.len(),
            1,
            "the overflowing bound alone makes no stage"
        );
        assert_eq!(parsed.stage("s").map(Histogram::count), Some(2));
        assert!(
            parsed.exemplars.is_empty(),
            "its exemplar is ignored with it"
        );
        for full in [true, false] {
            let (mut held, mut want) = (HeldSnapshot::new(), TelemetrySnapshot::default());
            step(&mut held, &mut want, &body, full).unwrap();
            step(&mut held, &mut want, &body, full).unwrap();
        }
    }

    const FULL_AT_5: &str = "# EPOCH 5 full\n\
        pdagent_x_total{instance=\"gw\",key=\"x\"} 1\n\
        pdagent_y_total{instance=\"gw\",key=\"y\"} 4\n";
    const DELTA_5_TO_6: &str = "# EPOCH 6 base=5\npdagent_x_total{instance=\"gw\",key=\"x\"} 2\n";

    #[test]
    fn delta_over_a_wrong_base_is_refused_and_leaves_the_snapshot_untouched() {
        let mut fresh = HeldSnapshot::new();
        assert_eq!(
            fresh.apply(DELTA_5_TO_6),
            Ingested::Gap,
            "nothing held: no base"
        );
        assert_eq!(fresh.snapshot(), &TelemetrySnapshot::default());
        assert_eq!(fresh.epoch(), None);

        let mut held = HeldSnapshot::new();
        assert_eq!(held.apply(FULL_AT_5), Ingested::Full { regressed: false });
        let before = held.snapshot().clone();
        let wrong = "# EPOCH 9 base=7\npdagent_x_total{instance=\"gw\",key=\"x\"} 3\n";
        assert_eq!(held.apply(wrong), Ingested::Gap);
        assert_eq!(held.snapshot(), &before, "a refused delta changes nothing");
        assert_eq!(held.epoch(), Some(5));
        assert_eq!(
            held.apply(DELTA_5_TO_6),
            Ingested::Delta { regressed: false }
        );
        assert_eq!(held.epoch(), Some(6));
        assert_eq!(held.snapshot().counter("x"), 2.0);
        assert_eq!(held.snapshot().counter("y"), 4.0);
    }

    #[test]
    fn header_less_body_is_applied_as_a_full_snapshot() {
        let mut held = HeldSnapshot::new();
        held.apply(FULL_AT_5);
        let legacy = "pdagent_x_total{instance=\"gw\",key=\"x\"} 7\n";
        assert_eq!(held.apply(legacy), Ingested::Full { regressed: false });
        assert_eq!(
            held.snapshot(),
            &oracle::parse_prom(legacy),
            "series it lacks are dropped"
        );
        assert_eq!(held.epoch(), None, "no header, no epoch to delta over");
        assert_eq!(held.apply(DELTA_5_TO_6), Ingested::Gap);
    }

    #[test]
    fn an_epoch_going_backwards_is_reported() {
        let mut held = HeldSnapshot::new();
        held.apply(FULL_AT_5);
        let back = "# EPOCH 3 full\npdagent_x_total{instance=\"gw\",key=\"x\"} 1\n";
        assert_eq!(held.apply(back), Ingested::Full { regressed: true });
        assert_eq!(held.epoch(), Some(3));
        let delta_back = "# EPOCH 2 base=3\npdagent_x_total{instance=\"gw\",key=\"x\"} 0\n";
        assert_eq!(held.apply(delta_back), Ingested::Delta { regressed: true });
        assert_eq!(held.apply(FULL_AT_5), Ingested::Full { regressed: false });
        assert_eq!(
            held.apply(DELTA_5_TO_6),
            Ingested::Delta { regressed: false }
        );
    }

    #[test]
    fn slot_cache_stays_bounded_when_label_sets_never_repeat() {
        let mut held = HeldSnapshot::new();
        let mut want = TelemetrySnapshot::default();
        for i in 0..(SLOT_CAP + 10) {
            let body = format!("pdagent_x_total{{instance=\"gw-{i}\",key=\"x\"}} {i}\n");
            step(&mut held, &mut want, &body, false).unwrap();
            assert!(held.slots.len() <= SLOT_CAP);
        }
    }
}
