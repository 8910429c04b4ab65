//! One run's bookkeeping: instance samples, the first pass's deterministic
//! results, traced totals, and the rendering of every metric.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::layers::{self, Layer, Replay, Side};
use crate::stats::{beyond, median, percentile, quartiles, tail_percentile, Fnv};
use crate::timed::Role;
use crate::workload::{self, Counters, Shape};

/// End-to-end metrics: name, unit. The JSON line of an untraced run holds
/// exactly these. The tail is p95, not p99: on `bulk_pi` about 1% of
/// deploys lose their 48 KB upload or its response and retransmit, finishing
/// about 35 s later, so p99 flips between the two populations from seed to
/// seed. p99 is printed beside it.
pub const END_TO_END: [(&str, &str); 6] = [
    ("deploys_per_s", "deploys/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("deploy_p50_s", "sim_s"),
    ("deploy_p95_s", "sim_s"),
    ("wireless_kb_per_deploy", "KB"),
];

/// Per-layer metrics the JSON line of a traced run holds: the ones every
/// workload exercises. Layers only some workloads have (the ops planes,
/// chaos, sharding balance, cache evictions) are printed as text only.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("core.device_us", "us"),
    ("gateway.self_us", "us"),
    ("mas.self_us", "us"),
    ("mas.us_per_hop", "us"),
    ("net.sim_us", "us"),
    ("shard.epochs", "count"),
    ("shard.epoch_us", "us"),
    ("shard.barrier_us", "us"),
    ("xml.write_us", "us"),
    ("xml.parse_us", "us"),
    ("codec.compress_us", "us"),
    ("codec.decompress_us", "us"),
    ("codec.ratio", "ratio"),
    ("crypto.seal_us", "us"),
    ("crypto.open_us", "us"),
    ("crypto.keygen_ms", "ms"),
    ("vm.run_us", "us"),
    ("vm.instructions", "count"),
    ("mas.agent_codec_us", "us"),
    ("mas.agent_bytes", "bytes"),
    ("telemetry.render_us", "us"),
    ("telemetry.parse_us", "us"),
    ("core.covered", "ratio"),
    ("gateway.covered", "ratio"),
    ("mas.covered", "ratio"),
    ("net.events", "count"),
    ("net.peak_queue", "count"),
    ("net.http_retransmits", "count"),
    ("net.http_useful", "ratio"),
    ("gateway.replays", "count"),
    ("trace.overhead", "ratio"),
    ("host.calib_ms", "ms"),
];

/// The first pass over every instance: the deterministic metrics.
#[derive(Default)]
struct Pass {
    instances: usize,
    attempted: u64,
    completed: u64,
    completion_us: Vec<u64>,
    wireless_bytes: u64,
    failures: BTreeMap<String, u64>,
    digest: Fnv,
}

/// Sums over every traced instance.
#[derive(Default)]
struct TraceTotals {
    instances: u64,
    deploys: u64,
    role_ns: [u64; Role::COUNT],
    wall_ns: u64,
    critical_ns: u64,
    epochs: u64,
    shard_busy_ns: Vec<u64>,
    counters: Counters,
    replay: Replay,
}

/// One run of one workload.
pub struct RunReport {
    shape: Shape,
    seed: u64,
    trace: bool,
    calib_ms: f64,
    /// `VmHWM` after the run, MB.
    pub rss_mb: f64,
    setup_s: Vec<f64>,
    rate: Vec<f64>,
    traced_rate: Vec<f64>,
    attempted: u64,
    failed: u64,
    digests: Vec<Option<u64>>,
    pass: Pass,
    problems: Vec<String>,
    totals: TraceTotals,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

impl RunReport {
    /// An empty report.
    pub fn new(shape: Shape, seed: u64, trace: bool, calib_ms: f64) -> RunReport {
        RunReport {
            shape,
            seed,
            trace,
            calib_ms,
            rss_mb: 0.0,
            setup_s: Vec::new(),
            rate: Vec::new(),
            traced_rate: Vec::new(),
            attempted: 0,
            failed: 0,
            digests: vec![None; shape.instances],
            pass: Pass::default(),
            problems: Vec::new(),
            totals: TraceTotals::default(),
        }
    }

    /// Every check held and something ran.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.attempted > 0
    }

    /// Run instance `index` untraced (and, for a traced run, once more
    /// traced). `repeat` marks an index the run has already seen: its digest
    /// must come out the same.
    pub fn run_instance(&mut self, index: usize, repeat: bool) {
        let shape = self.shape;
        let mut inputs = workload::generate(&shape, self.seed, index);
        let mut built = workload::build(&shape, &mut inputs, false);
        let clock = workload::run(&mut built);
        let out = workload::harvest(&shape, &inputs, &built);
        self.setup_s.push(built.setup.as_secs_f64());
        drop(built);
        self.account(index, &out);
        self.rate
            .push(out.completed as f64 / clock.wall.as_secs_f64());
        match self.digests[index] {
            Some(d) if d != out.digest => self.problems.push(format!(
                "instance {index}: digest {:016x} differs from {d:016x} on repeat",
                out.digest
            )),
            Some(_) => {}
            None => self.digests[index] = Some(out.digest),
        }
        if !repeat {
            let p = &mut self.pass;
            p.instances += 1;
            p.attempted += out.attempted;
            p.completed += out.completed;
            p.completion_us.extend(&out.completion_us);
            p.wireless_bytes += out.wireless_bytes;
            for (why, n) in &out.failures {
                *p.failures.entry(why.clone()).or_default() += n;
            }
            p.digest.write(out.digest);
        }
        if self.trace {
            self.run_traced(index, out.digest);
        }
    }

    fn run_traced(&mut self, index: usize, untraced_digest: u64) {
        let shape = self.shape;
        let mut inputs = workload::generate(&shape, self.seed, index);
        let deploys = inputs.deploys();
        let mut built = workload::build(&shape, &mut inputs, true);
        let clock = workload::run(&mut built);
        let out = workload::harvest(&shape, &inputs, &built);
        self.account(index, &out);
        self.traced_rate
            .push(out.completed as f64 / clock.wall.as_secs_f64());
        if out.digest != untraced_digest {
            self.problems.push(format!(
                "instance {index}: traced digest {:016x} differs from untraced {untraced_digest:016x}",
                out.digest
            ));
        }
        let mut replay = layers::replay(&inputs, &deploys, &built);
        if replay.instructions != out.counters.instructions {
            self.problems.push(format!(
                "instance {index}: replayed hops ran {} VM instructions, the MASes {}",
                replay.instructions, out.counters.instructions
            ));
        }
        let t = &mut self.totals;
        t.instances += 1;
        t.deploys += out.attempted;
        for shard_clock in built.clocks.iter().flatten() {
            for (slot, role) in t.role_ns.iter_mut().zip(Role::ALL) {
                *slot += shard_clock.role_ns(role);
            }
        }
        t.wall_ns += clock.wall.as_nanos() as u64;
        t.critical_ns += clock.critical_ns;
        t.epochs += clock.epochs;
        t.shard_busy_ns.resize(clock.shard_busy_ns.len(), 0);
        for (a, b) in t.shard_busy_ns.iter_mut().zip(&clock.shard_busy_ns) {
            *a += b;
        }
        add_counters(&mut t.counters, &out.counters);
        t.replay.merge(&replay);
        for p in std::mem::take(&mut replay.problems) {
            self.problems.push(format!("instance {index}: {p}"));
        }
    }

    fn account(&mut self, index: usize, out: &workload::Outcome) {
        self.attempted += out.attempted;
        self.failed += out.attempted - out.completed;
        for p in &out.problems {
            self.problems.push(format!("instance {index}: {p}"));
        }
    }

    fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let mut sorted = self.pass.completion_us.clone();
        sorted.sort_unstable();
        BTreeMap::from([
            ("deploys_per_s", quartiles(&self.rate)[2]),
            ("setup_s", median(&self.setup_s)),
            ("peak_rss_mb", self.rss_mb),
            ("deploy_p50_s", percentile(&sorted, 50.0) as f64 / 1e6),
            ("deploy_p95_s", percentile(&sorted, 95.0) as f64 / 1e6),
            (
                "wireless_kb_per_deploy",
                ratio(self.pass.wireless_bytes as f64, self.pass.attempted as f64) / 1024.0,
            ),
        ])
    }

    fn per_layer(&self) -> BTreeMap<&'static str, f64> {
        let t = &self.totals;
        let r = &t.replay;
        let d = t.deploys as f64;
        let c = &t.counters;
        let us = |ns: u64, per: f64| ratio(ns as f64, per) / 1e3;
        let role = |role: Role| t.role_ns[role as usize];
        let off_critical = t.wall_ns.saturating_sub(t.critical_ns);
        let per_replayed = |side: Side| ratio(r.side_ns(side) as f64, r.deploys as f64);
        BTreeMap::from([
            ("core.device_us", us(role(Role::Device), d)),
            ("gateway.self_us", us(role(Role::Gateway), d)),
            ("mas.self_us", us(role(Role::Mas), d)),
            ("mas.us_per_hop", us(role(Role::Mas), c.hops as f64)),
            ("net.sim_us", us(off_critical, d)),
            ("shard.epochs", ratio(t.epochs as f64, t.instances as f64)),
            ("shard.epoch_us", us(t.wall_ns, t.epochs as f64)),
            ("shard.barrier_us", us(off_critical, t.epochs as f64)),
            (
                "xml.write_us",
                us(r.layer_ns(Layer::XmlWrite), r.deploys as f64),
            ),
            (
                "xml.parse_us",
                us(r.layer_ns(Layer::XmlParse), r.deploys as f64),
            ),
            (
                "codec.compress_us",
                us(r.layer_ns(Layer::Compress), r.deploys as f64),
            ),
            (
                "codec.decompress_us",
                us(r.layer_ns(Layer::Decompress), r.deploys as f64),
            ),
            (
                "codec.ratio",
                ratio(r.pi_compressed as f64, r.pi_raw as f64),
            ),
            (
                "crypto.seal_us",
                us(r.layer_ns(Layer::Seal), r.deploys as f64),
            ),
            (
                "crypto.open_us",
                us(r.layer_ns(Layer::Open), r.deploys as f64),
            ),
            ("crypto.keygen_ms", us(r.keygen_ns, r.keygens as f64) / 1e3),
            ("vm.run_us", us(r.ns(Side::Mas, Layer::Vm), r.hops as f64)),
            (
                "vm.instructions",
                ratio(r.instructions as f64, r.hops as f64),
            ),
            (
                "mas.agent_codec_us",
                us(r.ns(Side::Mas, Layer::AgentCodec), r.hops as f64),
            ),
            (
                "mas.agent_bytes",
                ratio(r.agent_bytes as f64, r.hops as f64),
            ),
            (
                "telemetry.render_us",
                us(r.render_ns, r.scrape_bodies as f64),
            ),
            ("telemetry.parse_us", us(r.parse_ns, r.scrape_bodies as f64)),
            (
                "core.covered",
                ratio(
                    per_replayed(Side::Device),
                    ratio(role(Role::Device) as f64, d),
                ),
            ),
            (
                "gateway.covered",
                ratio(
                    per_replayed(Side::Gateway),
                    ratio(role(Role::Gateway) as f64, d),
                ),
            ),
            (
                "mas.covered",
                ratio(
                    ratio(r.side_ns(Side::Mas) as f64, r.hops as f64),
                    ratio(role(Role::Mas) as f64, c.hops as f64),
                ),
            ),
            ("net.events", ratio(c.events as f64, d)),
            ("net.peak_queue", c.peak_queue as f64),
            ("net.http_retransmits", ratio(c.http_retransmits as f64, d)),
            (
                "net.http_useful",
                1.0 - ratio(c.http_retransmits as f64, c.http_sends as f64),
            ),
            ("gateway.replays", ratio(c.replays as f64, d)),
            (
                "trace.overhead",
                ratio(quartiles(&self.traced_rate)[2], quartiles(&self.rate)[2]) - 1.0,
            ),
            ("host.calib_ms", self.calib_ms),
        ])
    }

    /// The human-readable report and the final JSON line.
    pub fn render(&self) -> (String, String) {
        let mut text = String::new();
        let s = &self.shape;
        let _ = writeln!(
            text,
            "pdbench {}: seed {}, {} cells x {} devices per instance, {} instances per pass, {} shard(s), {} worker thread(s), {}",
            s.name,
            self.seed,
            s.cells,
            s.devices_per_cell,
            s.instances,
            s.shards,
            s.shards.min(pdagent_bench::parallel::thread_count()),
            if self.trace { "traced" } else { "untraced" },
        );
        let _ = writeln!(text, "why: {}", s.why);
        let _ = writeln!(text, "host.calib_ms {:.3} ms", self.calib_ms);
        let _ = writeln!(
            text,
            "instances run: {} untraced, {} traced; {} deploys attempted, {} failed",
            self.rate.len(),
            self.traced_rate.len(),
            self.attempted,
            self.failed
        );
        let metrics: Vec<(&str, &str, f64)> = if self.trace {
            let values = self.per_layer();
            self.layer_text(&mut text);
            PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, unit, values[name]))
                .collect()
        } else {
            let values = self.end_to_end();
            self.pass_text(&mut text);
            END_TO_END
                .iter()
                .map(|&(name, unit)| (name, unit, values[name]))
                .collect()
        };
        for (name, unit, value) in &metrics {
            let _ = writeln!(text, "metric {name} {value} {unit}");
        }
        for p in self.problems.iter().take(20) {
            let _ = writeln!(text, "CHECK FAILED: {p}");
        }
        let _ = writeln!(
            text,
            "{}",
            if self.correct() {
                "checks: OK"
            } else {
                "checks: FAILED"
            }
        );
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, unit, value)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        );
        (text, json)
    }

    fn pass_text(&self, text: &mut String) {
        let p = &self.pass;
        let mut sorted = p.completion_us.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let tail = tail_percentile(n);
        let _ = writeln!(
            text,
            "first pass: {} instances, {}/{} deploys completed, digest {:016x}",
            p.instances,
            p.completed,
            p.attempted,
            p.digest.finish()
        );
        let _ = writeln!(
            text,
            "deploy_p99_s {} sim_s: nearest-rank p{tail} of {n} completion samples, {} beyond it",
            percentile(&sorted, tail) as f64 / 1e6,
            beyond(n, tail)
        );
        let _ = writeln!(
            text,
            "failed_ratio {} ({} of {})",
            ratio((p.attempted - p.completed) as f64, p.attempted as f64),
            p.attempted - p.completed,
            p.attempted
        );
        for (why, count) in &p.failures {
            let _ = writeln!(text, "  failed: {count} x {why}");
        }
        let _ = writeln!(
            text,
            "host samples: deploys/s {:?}",
            self.rate
                .iter()
                .map(|r| (r * 10.0).round() / 10.0)
                .collect::<Vec<_>>()
        );
    }

    /// The replay summary and the layers not every workload has, which stay
    /// out of the JSON line so that no gated value is zero by construction.
    fn layer_text(&self, text: &mut String) {
        let t = &self.totals;
        let r = &t.replay;
        let c = &t.counters;
        let per = |ns: u64| ratio(ns as f64, r.deploys as f64) / 1e3;
        let mut ranking = [
            (
                "codec",
                per(r.layer_ns(Layer::Compress) + r.layer_ns(Layer::Decompress)),
            ),
            (
                "xml",
                per(r.layer_ns(Layer::XmlWrite) + r.layer_ns(Layer::XmlParse)),
            ),
            (
                "crypto",
                per(r.layer_ns(Layer::Seal) + r.layer_ns(Layer::Open)),
            ),
            ("vm", per(r.layer_ns(Layer::Vm))),
            ("mas.agent_codec", per(r.layer_ns(Layer::AgentCodec))),
        ];
        ranking.sort_by(|a, b| b.1.total_cmp(&a.1));
        let ranked: Vec<String> = ranking.iter().map(|(n, v)| format!("{n} {v:.1}")).collect();
        let _ = writeln!(
            text,
            "replayed layers, us per deploy: {}",
            ranked.join(", ")
        );
        let _ = writeln!(text, "top layer: {}", ranking[0].0);
        let _ = writeln!(
            text,
            "PI codec picks (Algorithm::Auto): {:?}",
            r.pi_algorithms
        );
        let _ = writeln!(
            text,
            "replayed {} deploys and {} hops of {} traced instances; PI sizes and VM instruction counts match the run",
            r.deploys, r.hops, t.instances
        );
        let instances = t.instances.max(1) as f64;
        let d = t.deploys as f64;
        let us = |role: Role| ratio(t.role_ns[role as usize] as f64, d) / 1e3;
        let busy = &t.shard_busy_ns;
        let mean_busy = ratio(busy.iter().sum::<u64>() as f64, busy.len() as f64);
        let max_busy = busy.iter().copied().max().unwrap_or(0) as f64;
        let layers = [
            ("slo.monitor_us", us(Role::Monitor), "us"),
            ("federation.self_us", us(Role::Federation), "us"),
            ("paging.self_us", us(Role::Paging), "us"),
            ("chaos.injector_us", us(Role::Chaos), "us"),
            ("shard.imbalance", ratio(max_busy, mean_busy), "ratio"),
            (
                "gateway.evictions",
                ratio(c.evictions as f64, t.deploys as f64),
                "count",
            ),
            ("slo.scrapes", c.scrapes as f64 / instances, "count"),
            (
                "federation.scraped_kb",
                c.fed_bytes as f64 / 1024.0 / instances,
                "KB",
            ),
            (
                "federation.delta_share",
                ratio(c.fed_delta as f64, c.fed_scrapes as f64),
                "ratio",
            ),
            (
                "federation.staleness_p99_ms",
                c.fed_staleness_p99_us as f64 / 1e3,
                "ms",
            ),
            ("chaos.loss_drops", c.chaos[0] as f64 / instances, "count"),
            ("chaos.dups", c.chaos[1] as f64 / instances, "count"),
            ("chaos.crash_drops", c.chaos[2] as f64 / instances, "count"),
        ];
        for (name, value, unit) in layers {
            let _ = writeln!(text, "layer {name} {value} {unit}");
        }
    }

    /// The `--record` line: the result plus what `--compare` needs beside it.
    pub fn record_line(&self, json: &str) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"calib_ms\": {}, \"digest\": \"{:016x}\", \"result\": {json}}}\n",
            self.shape.name,
            self.seed,
            u8::from(self.trace),
            self.calib_ms,
            self.pass.digest.finish()
        )
    }
}

fn add_counters(a: &mut Counters, b: &Counters) {
    a.events += b.events;
    a.peak_queue = a.peak_queue.max(b.peak_queue);
    a.http_retransmits += b.http_retransmits;
    a.http_sends += b.http_sends;
    a.replays += b.replays;
    a.evictions += b.evictions;
    a.hops += b.hops;
    a.instructions += b.instructions;
    a.scrapes += b.scrapes;
    a.fed_bytes += b.fed_bytes;
    a.fed_delta += b.fed_delta;
    a.fed_scrapes += b.fed_scrapes;
    a.fed_staleness_p99_us = a.fed_staleness_p99_us.max(b.fed_staleness_p99_us);
    for (x, y) in a.chaos.iter_mut().zip(b.chaos) {
        *x += y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdagent_net::chaos::json::{self, Jv};

    /// `BENCHMARK.json` declares exactly the metrics and workloads this
    /// binary prints, with the same units and reasons.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let text = std::fs::read_to_string(crate::compare::BENCHMARK_JSON).expect("BENCHMARK.json");
        let doc = json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Jv::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Jv::as_str).unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Jv::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let field = |f: &str| w.get(f).and_then(Jv::as_str).unwrap().to_owned();
                (field("name"), field("why"))
            })
            .collect();
        let shapes: Vec<(String, String)> = workload::SHAPES
            .iter()
            .map(|s| (s.name.to_owned(), s.why.to_owned()))
            .collect();
        assert_eq!(workloads, shapes);
    }
}
