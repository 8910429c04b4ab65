//! Machine-readable benchmark reports: each figure binary writes a
//! `BENCH_<figure>.json` next to its table output so CI and plotting
//! scripts can consume wall time, event throughput and the per-point
//! results without screen-scraping. Hand-rolled writer — the container has
//! no serde, and the value space here is tiny.

use pdagent_net::federation::FederationReport;
use pdagent_net::obs::{write_json_escaped, ObsEvent, ObsSummary};
use pdagent_net::paging::PagingReport;
use pdagent_net::slo::SloReport;
use std::fmt::Write as _;

/// A JSON value. Construct with the `From` impls and [`Json::obj`]/[`Json::arr`].
#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Bool(bool),
    /// Finite floats only; NaN/inf render as `null` (JSON has no spelling for them).
    Num(f64),
    Int(i64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from key/value pairs (preserves insertion order).
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// An array from anything convertible.
    pub fn arr<T: Into<Json>>(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Render as compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    // Shortest representation that round-trips; keep a `.0`
                    // on whole numbers so readers see a float.
                    let s = format!("{x}");
                    let whole = !s.contains(['.', 'e', 'E']);
                    out.push_str(&s);
                    if whole {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Append `s` as a quoted JSON string.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    write_json_escaped(out, s);
    out.push('"');
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<u32> for Json {
    fn from(x: u32) -> Json {
        Json::Int(x as i64)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Int(x as i64)
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Int(x as i64)
    }
}
impl From<i64> for Json {
    fn from(x: i64) -> Json {
        Json::Int(x)
    }
}
impl From<bool> for Json {
    fn from(x: bool) -> Json {
        Json::Bool(x)
    }
}
impl From<&str> for Json {
    fn from(x: &str) -> Json {
        Json::Str(x.to_owned())
    }
}
impl From<String> for Json {
    fn from(x: String) -> Json {
        Json::Str(x)
    }
}

/// The standard envelope every figure binary writes: identification, wall
/// time, simulator-event throughput, thread count, and the figure-specific
/// `results` payload.
pub fn bench_report(figure: &str, wall_secs: f64, events: u64, results: Json) -> Json {
    let events_per_sec = if wall_secs > 0.0 { events as f64 / wall_secs } else { 0.0 };
    Json::obj(vec![
        ("figure", figure.into()),
        ("wall_secs", wall_secs.into()),
        ("sim_events", events.into()),
        ("events_per_sec", events_per_sec.into()),
        ("threads", crate::parallel::thread_count().into()),
        ("results", results),
    ])
}

/// Render an [`ObsSummary`] as a bench report's `obs` section: per-stage
/// latency percentiles in microseconds plus reliability counters.
pub fn obs_json(obs: &ObsSummary) -> Json {
    let stages = obs
        .stages
        .iter()
        .map(|(name, h)| {
            (
                name.clone(),
                Json::obj(vec![
                    ("count", h.count().into()),
                    ("p50_us", h.p50().into()),
                    ("p90_us", h.p90().into()),
                    ("p99_us", h.p99().into()),
                    ("max_us", h.max().into()),
                    ("mean_us", h.mean().into()),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("stages", Json::Obj(stages)),
        ("retries", obs.retries.into()),
        ("drops", obs.drops.into()),
        ("traces", obs.traces.into()),
    ])
}

/// Render aggregated [`SloReport`]s as a bench report's `slo` section:
/// per-rule evaluation counts, fire/resolve totals and the worst last
/// value, in rule order.
pub fn slo_json(reports: &[SloReport]) -> Json {
    let rules = reports
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("rule", r.name.as_str().into()),
                ("limit", r.limit.into()),
                ("evaluations", r.evaluations.into()),
                ("fired", r.fired.into()),
                ("resolved", r.resolved.into()),
                ("breached", r.breached.into()),
                ("last_value", r.last_value.into()),
            ])
        })
        .collect();
    Json::obj(vec![("rules_evaluated", reports.len().into()), ("rules", Json::Arr(rules))])
}

/// Render the federation scraper's digest as a bench report's `federation`
/// section. Keys are prefixed/unique across the whole report because
/// `bench_diff.sh` extracts fields by first occurrence anywhere in the file.
pub fn federation_json(fed: &FederationReport, cadence_ms: u64) -> Json {
    Json::obj(vec![
        ("fed_cells", fed.cells.into()),
        ("fed_rounds", fed.rounds.into()),
        ("fed_scrapes_ok", fed.scrapes_ok.into()),
        ("fed_scrape_failures", fed.scrape_failures.into()),
        ("fed_dropped_series", fed.dropped_series.into()),
        ("fed_peak_inflight", fed.peak_inflight.into()),
        ("fed_cadence_ms", cadence_ms.into()),
        ("fed_resyncs", fed.resyncs.into()),
        ("fed_delta_scrapes", fed.delta_scrapes.into()),
        ("fed_full_scrapes", fed.full_scrapes.into()),
        ("fed_scraped_bytes", fed.scraped_bytes.into()),
        ("fed_ingest_ms", (fed.ingest_nanos as f64 / 1e6).into()),
        ("staleness_p50_us", fed.staleness.p50().into()),
        ("staleness_p99_us", fed.staleness.p99().into()),
        ("staleness_max_us", fed.staleness.max().into()),
        ("fed_rtt_p50_us", fed.rtt.p50().into()),
        ("fed_rtt_p99_us", fed.rtt.p99().into()),
        ("fed_unresolved", fed.breached.into()),
        ("fleet_rules", slo_json(&fed.slo)),
    ])
}

/// Render the paging gateway's delivery ledger as a bench report's `paging`
/// section. Same unique-key rule as [`federation_json`].
pub fn paging_json(paging: &PagingReport) -> Json {
    Json::obj(vec![
        ("fired_pages", paging.fired.into()),
        ("delivered_pages", paging.delivered.into()),
        ("escalated_pages", paging.escalated.into()),
        ("deduped_pages", paging.deduped.into()),
        ("resolved_pages", paging.resolved.into()),
        ("dropped_pages", paging.dropped.into()),
        ("page_delivery_p50_us", paging.delivery.p50().into()),
        ("page_delivery_p99_us", paging.delivery.p99().into()),
        ("page_delivery_max_us", paging.delivery.max().into()),
    ])
}

/// Render a merged alert timeline as a bench report's `alerts` section.
pub fn alerts_json(events: &[ObsEvent]) -> Json {
    Json::Arr(
        events
            .iter()
            .map(|e| {
                Json::obj(vec![
                    ("event", if e.fired { "AlertFired" } else { "AlertResolved" }.into()),
                    ("at_us", e.at.0.into()),
                    ("rule", e.rule.as_str().into()),
                    ("instance", e.instance.as_str().into()),
                    ("value", e.value.into()),
                    ("limit", e.limit.into()),
                    ("trace", e.trace.into()),
                    ("exemplar", e.exemplar.into()),
                ])
            })
            .collect(),
    )
}

/// [`bench_report`] with an `obs` section appended after `results`. The
/// pre-existing envelope keys are untouched, so readers keyed on them see
/// identical values with or without observability.
pub fn bench_report_with_obs(
    figure: &str,
    wall_secs: f64,
    events: u64,
    results: Json,
    obs: &ObsSummary,
) -> Json {
    let mut report = bench_report(figure, wall_secs, events, results);
    if let Json::Obj(pairs) = &mut report {
        pairs.push(("obs".to_owned(), obs_json(obs)));
    }
    report
}

/// Write `BENCH_<figure>.json` in the current directory. Returns the path.
pub fn write_bench_report(
    figure: &str,
    wall_secs: f64,
    events: u64,
    results: Json,
) -> std::io::Result<String> {
    let path = format!("BENCH_{figure}.json");
    let body = bench_report(figure, wall_secs, events, results).render();
    std::fs::write(&path, body + "\n")?;
    Ok(path)
}

/// [`write_bench_report`], with the `obs` section included.
pub fn write_bench_report_with_obs(
    figure: &str,
    wall_secs: f64,
    events: u64,
    results: Json,
    obs: &ObsSummary,
) -> std::io::Result<String> {
    let path = format!("BENCH_{figure}.json");
    let body = bench_report_with_obs(figure, wall_secs, events, results, obs).render();
    std::fs::write(&path, body + "\n")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars_and_nesting() {
        let j = Json::obj(vec![
            ("a", 1.5.into()),
            ("b", Json::arr(vec![1u32, 2, 3])),
            ("c", Json::obj(vec![("s", "x\"y\n".into()), ("t", true.into())])),
            ("n", Json::Null),
        ]);
        assert_eq!(
            j.render(),
            r#"{"a":1.5,"b":[1,2,3],"c":{"s":"x\"y\n","t":true},"n":null}"#
        );
    }

    #[test]
    fn whole_floats_keep_a_decimal_point() {
        assert_eq!(Json::Num(2.0).render(), "2.0");
        assert_eq!(Json::Num(0.25).render(), "0.25");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn report_envelope_has_throughput() {
        let r = bench_report("fig_test", 2.0, 1000, Json::Null).render();
        assert!(r.contains("\"figure\":\"fig_test\""));
        assert!(r.contains("\"events_per_sec\":500"));
    }

    #[test]
    fn slo_and_alert_sections_render() {
        let reports = vec![SloReport {
            name: "scrape-latency-p99".into(),
            limit: 1_000_000.0,
            evaluations: 18,
            fired: 1,
            resolved: 1,
            breached: false,
            last_value: 1234.0,
        }];
        let s = slo_json(&reports).render();
        assert!(s.contains("\"rules_evaluated\":1"));
        assert!(s.contains("\"rule\":\"scrape-latency-p99\""));
        assert!(s.contains("\"fired\":1") && s.contains("\"breached\":false"));

        let events = vec![ObsEvent {
            at: pdagent_net::time::SimTime(12_000_000),
            node_label: 7,
            rule: "scrape-latency-p99".into(),
            instance: "gw-0".into(),
            fired: true,
            value: 2_000_000.0,
            limit: 1_000_000.0,
            trace: 42,
            exemplar: 42,
        }];
        let a = alerts_json(&events).render();
        assert!(a.contains("\"event\":\"AlertFired\""));
        assert!(a.contains("\"at_us\":12000000"));
        assert!(a.contains("\"instance\":\"gw-0\""));
    }

    #[test]
    fn obs_section_appends_without_touching_results() {
        let mut obs = ObsSummary::default();
        let mut h = pdagent_net::obs::Histogram::new();
        h.record(100);
        h.record(200);
        obs.stages.push(("http.upload".into(), h));
        obs.retries = 3;
        obs.traces = 1;
        let plain = bench_report("fig_test", 2.0, 10, Json::obj(vec![("k", 1u32.into())]));
        let with = bench_report_with_obs(
            "fig_test",
            2.0,
            10,
            Json::obj(vec![("k", 1u32.into())]),
            &obs,
        );
        // Identical prefix: obs is strictly appended after `results`.
        let (p, w) = (plain.render(), with.render());
        assert!(w.starts_with(&p[..p.len() - 1]), "plain={p} with={w}");
        assert!(w.contains("\"obs\":{\"stages\":{\"http.upload\":{\"count\":2"));
        assert!(w.contains("\"retries\":3"));
        assert!(w.contains("\"max_us\":200"));
    }
}
