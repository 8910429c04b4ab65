//! The chaos matrix: system invariants over soak outcomes, a fault-class ×
//! intensity plan grid, and shrink-to-minimal-reproducer plumbing.
//!
//! The [`crate::soak`] workload is the system under test; a
//! [`ChaosPlan`] is the fault input. This module supplies the three layers
//! the `chaos` binary and the CI smoke drive:
//!
//! * **Invariants** — [`quiesce_violations`] checks a finished
//!   [`SoakOutcome`] (no lost agents, no duplicate execution of
//!   non-idempotent steps, `dropped_pages == 0`, monotone metric epochs,
//!   alert fire⇒resolve pairing);
//!   [`LiveChecks`] checks live shard counters at sharded-engine epoch
//!   barriers, catching violations *while the run is still going*.
//! * **The matrix** — [`plan_for`] builds a canonical plan per
//!   [`FaultKind`] at a given intensity, [`run_case`] runs one
//!   `(spec, plan)` cell through both invariant layers, and [`run_matrix`]
//!   sweeps the grid.
//! * **Shrinking** — [`shrink_case`] re-runs the soak under
//!   [`shrink_plan`]'s candidate reductions until the plan is minimal while
//!   still violating the same invariant, and [`Repro`] serializes the result
//!   to `target/chaos/repro-<seed>.json`, replayable by `cargo run --bin
//!   chaos -- --replay <file>`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use pdagent_net::chaos::{json, shrink_plan, ChaosPlan, Fault, FaultKind};
use pdagent_net::obs::ObsEvent;
use pdagent_net::sim::Simulator;
use pdagent_net::time::SimDuration;

use crate::soak::{
    device_label, gateway_label, monitor_label, run_soak_with, SoakOutcome, SoakSpec,
};

// ---------------------------------------------------------------------------
// Invariants
// ---------------------------------------------------------------------------

/// A failed invariant check.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Name of the invariant that failed.
    pub invariant: String,
    /// When it failed ("epoch N" at a barrier, "quiesce" after the drain).
    pub phase: String,
    /// What exactly went wrong.
    pub detail: String,
}

impl Violation {
    fn new(invariant: &str, phase: &str, detail: String) -> Violation {
        Violation { invariant: invariant.to_owned(), phase: phase.to_owned(), detail }
    }
}

/// Check a finished soak outcome: no lost agents, no duplicate execution of
/// non-idempotent steps, no dropped pages, monotone metric epochs and alert
/// fire⇒resolve pairing, in that order.
pub fn quiesce_violations(outcome: &SoakOutcome) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut fail = |invariant: &str, detail: String| {
        out.push(Violation::new(invariant, "quiesce", detail));
    };
    if let n @ 1.. = outcome.lost_agents {
        fail("no-lost-agents", format!("{n} dispatched itineraries neither completed nor errored"));
    }
    if let n @ 1.. = outcome.duplicate_executions {
        fail(
            "no-duplicate-execution",
            format!("dispatch handler re-ran {n} time(s) for an already-served request"),
        );
    }
    if let n @ 1.. = outcome.paging.as_ref().map_or(0, |p| p.dropped) {
        fail("no-dropped-pages", format!("{n} page(s) exhausted every receiver"));
    }
    if let n @ 1.. = outcome.epoch_regressions {
        fail("monotone-epochs", format!("{n} scrape epoch(s) went backwards"));
    }
    if let Err(detail) = alert_pairing(&outcome.alerts) {
        fail("alert-pairing", detail);
    }
    out
}

/// Alert edges must pair: per `(rule, instance)` the resolve count never
/// exceeds the fire count at any point of the (time-sorted) timeline, and
/// edge-triggering means at most one episode is open at a time. A run may
/// legitimately *end* breached (that is gated by `unresolved_alerts`
/// elsewhere); a resolve without a fire, or a double fire, is an engine bug.
fn alert_pairing(alerts: &[ObsEvent]) -> Result<(), String> {
    let mut open: HashMap<(&str, &str), i64> = HashMap::new();
    for e in alerts {
        let slot = open.entry((e.rule.as_str(), e.instance.as_str())).or_insert(0);
        *slot += if e.fired { 1 } else { -1 };
        if *slot < 0 {
            return Err(format!("{}/{} resolved before it fired", e.rule, e.instance));
        }
        if *slot > 1 {
            return Err(format!("{}/{} fired twice without a resolve", e.rule, e.instance));
        }
    }
    Ok(())
}

/// Live counters that must stay zero at every epoch barrier: `(invariant,
/// counter, what a nonzero total means)`, in check order.
const LIVE_ZERO: [(&str, &str, &str); 3] = [
    ("no-duplicate-execution", "gateway.duplicate_executions", "duplicate execution(s)"),
    ("no-dropped-pages", "page.dropped", "dropped page(s)"),
    ("monotone-epochs", "slo.epoch_regressions", "epoch regression(s)"),
];

/// Epoch-barrier checks over live shard counters, catching violations
/// *while the run is still going*: the [`LIVE_ZERO`] counters summed across
/// shards, then `monotone-counters` — counters are cumulative, so the
/// sent-message total falling between barriers would mean metric state was
/// lost or rewound.
#[derive(Debug, Default)]
pub struct LiveChecks {
    /// The summed `msgs_sent` seen at the previous barrier.
    last_sent: f64,
}

impl LiveChecks {
    /// Check the shards at epoch barrier `epoch`.
    pub fn check(&mut self, shards: &[Simulator], epoch: u64) -> Vec<Violation> {
        // Folded from +0.0: an empty `f64` sum is -0.0.
        let total = |key: &str| shards.iter().fold(0.0, |sum, s| sum + s.counter_total(key));
        let phase = format!("epoch {epoch}");
        let mut out = Vec::new();
        for (invariant, key, what) in LIVE_ZERO {
            if let n @ 1.. = total(key) as u64 {
                out.push(Violation::new(invariant, &phase, format!("{n} {what} observed live")));
            }
        }
        let sent = total("msgs_sent");
        if sent < self.last_sent {
            let detail = format!("msgs_sent total fell from {} to {sent}", self.last_sent);
            out.push(Violation::new("monotone-counters", &phase, detail));
        }
        self.last_sent = sent;
        out
    }
}

// ---------------------------------------------------------------------------
// The matrix
// ---------------------------------------------------------------------------

/// The soak configuration the matrix sweeps: two cells × two devices with
/// the full operational plane (monitors, federation, paging) so every
/// invariant has evidence to read, on one shard for speed. Chaos plans go in
/// via [`run_case`].
pub fn matrix_spec(seed: u64) -> SoakSpec {
    let mut spec = SoakSpec::new(seed, 2, 2);
    spec.slo = true;
    spec.observe = true;
    spec.federation = true;
    spec.monitor_rounds = 4;
    spec.fed.rounds = 2;
    spec
}

/// The canonical plan the matrix runs for one fault class at `intensity ∈
/// [0,1]`. Probabilistic bursts use the intensity as their probability;
/// window faults scale their width with it; clock skew maps it to a
/// `1+intensity` factor. Faults target cell 0's device0↔gateway link (the
/// workload path), its monitor↔gateway link (the scrape path), or the
/// gateway/monitor nodes themselves.
pub fn plan_for(class: FaultKind, intensity: f64, devices_per_cell: usize) -> ChaosPlan {
    let dev = device_label(0, 0);
    let gw = gateway_label(0);
    let mon = monitor_label(0, devices_per_cell);
    let sec = SimDuration::from_secs;
    let f = match class {
        FaultKind::Partition => Fault::partition(
            dev,
            gw,
            sec(3),
            sec(3) + SimDuration::from_secs_f64(6.0 * intensity),
        ),
        FaultKind::Blackout => Fault::blackout(
            mon,
            gw,
            sec(4),
            sec(4) + SimDuration::from_secs_f64(8.0 * intensity),
        ),
        FaultKind::Loss => Fault::loss(dev, gw, sec(1), sec(21), intensity),
        FaultKind::Corrupt => Fault::corrupt(dev, gw, sec(1), sec(21), intensity),
        FaultKind::Duplicate => {
            Fault::duplicate(dev, gw, SimDuration::ZERO, sec(21), intensity, SimDuration::from_millis(50))
        }
        FaultKind::Reorder => {
            Fault::reorder(gw, dev, SimDuration::ZERO, sec(21), intensity, SimDuration::from_millis(20))
        }
        FaultKind::Crash => Fault::crash(
            gw,
            sec(3),
            sec(3) + SimDuration::from_secs_f64(3.0 * intensity.max(0.1)),
        ),
        FaultKind::ClockSkew => Fault::clock_skew(mon, sec(2), sec(12), 1.0 + intensity),
    };
    ChaosPlan::new().with(f)
}

/// One matrix cell's verdict.
#[derive(Debug, Clone)]
pub struct MatrixRow {
    /// Fault class swept.
    pub class: FaultKind,
    /// Intensity the plan ran at.
    pub intensity: f64,
    /// Trial seed.
    pub seed: u64,
    /// Names of violated invariants (deduped; empty = pass).
    pub violated: Vec<String>,
}

impl MatrixRow {
    /// Did every invariant hold?
    pub fn pass(&self) -> bool {
        self.violated.is_empty()
    }
}

/// A finished `(spec, plan)` case: the deduped violations from both
/// invariant layers plus the outcome they were judged on.
pub struct CaseResult {
    /// All violations, first occurrence per invariant name.
    pub violations: Vec<Violation>,
    /// The finished run.
    pub outcome: SoakOutcome,
}

/// Run one `(spec, plan)` case through the live (every epoch barrier) and
/// quiesce invariant layers.
pub fn run_case(spec: &SoakSpec, plan: &ChaosPlan) -> CaseResult {
    let mut spec = spec.clone();
    spec.chaos_plan = Some(plan.clone());
    let mut live = LiveChecks::default();
    let mut violations: Vec<Violation> = Vec::new();
    let mut keep_first = |found: Vec<Violation>| {
        for v in found {
            if !violations.iter().any(|w| w.invariant == v.invariant) {
                violations.push(v);
            }
        }
    };
    // Live checks sum a handful of counters per shard — cheap next to the
    // event stepping between barriers, so every barrier is checked.
    let outcome = run_soak_with(&spec, &mut |epoch, shards| keep_first(live.check(shards, epoch)));
    keep_first(quiesce_violations(&outcome));
    CaseResult { violations, outcome }
}

/// Sweep the full `classes × intensities × seeds` grid.
pub fn run_matrix(
    spec: &SoakSpec,
    classes: &[FaultKind],
    intensities: &[f64],
    seeds: &[u64],
) -> Vec<MatrixRow> {
    let mut rows = Vec::new();
    for &class in classes {
        for &intensity in intensities {
            for &seed in seeds {
                let mut case_spec = spec.clone();
                case_spec.seed = seed;
                let plan = plan_for(class, intensity, case_spec.devices_per_cell);
                let result = run_case(&case_spec, &plan);
                rows.push(MatrixRow {
                    class,
                    intensity,
                    seed,
                    violated: result.violations.iter().map(|v| v.invariant.clone()).collect(),
                });
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Shrinking + repro files
// ---------------------------------------------------------------------------

/// Shrink a failing plan until it is minimal while still violating
/// `invariant` under `spec`. Each shrink candidate is a full soak run;
/// `max_runs` bounds them.
pub fn shrink_case(
    spec: &SoakSpec,
    plan: &ChaosPlan,
    invariant: &str,
    max_runs: usize,
) -> ChaosPlan {
    let mut oracle =
        |cand: &ChaosPlan| run_case(spec, cand).violations.iter().any(|v| v.invariant == invariant);
    shrink_plan(plan, &mut oracle, max_runs)
}

/// A self-contained reproducer: everything needed to re-run a failing case
/// — the scenario shape, the (shrunk) plan, and what it violated. Written to
/// `target/chaos/repro-<seed>.json`; `cargo run --bin chaos -- --replay
/// <file>` loads and re-runs it directly.
#[derive(Debug, Clone, PartialEq)]
pub struct Repro {
    /// Trial seed.
    pub seed: u64,
    /// Cells in the scenario.
    pub cells: usize,
    /// Handhelds per cell.
    pub devices_per_cell: usize,
    /// Shard count the violation was observed at.
    pub shards: usize,
    /// Invariants the plan violated.
    pub violated: Vec<String>,
    /// The (shrunk) fault schedule.
    pub plan: ChaosPlan,
}

impl Repro {
    /// Build a repro from the case a violation was observed in.
    pub fn from_case(spec: &SoakSpec, plan: &ChaosPlan, violated: Vec<String>) -> Repro {
        Repro {
            seed: spec.seed,
            cells: spec.cells,
            devices_per_cell: spec.devices_per_cell,
            shards: spec.shards,
            violated,
            plan: plan.clone(),
        }
    }

    /// The soak spec this repro re-runs (matrix shape + recorded knobs).
    pub fn spec(&self) -> SoakSpec {
        let mut spec = matrix_spec(self.seed);
        spec.cells = self.cells;
        spec.devices_per_cell = self.devices_per_cell;
        spec.shards = self.shards;
        spec
    }

    /// Render as JSON (stable field order; parse with [`Repro::parse`]).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"seed\":{},\"cells\":{},\"devices_per_cell\":{},\"shards\":{},\"violated\":[",
            self.seed, self.cells, self.devices_per_cell, self.shards,
        );
        for (i, v) in self.violated.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{v}\"");
        }
        let _ = write!(out, "],\"plan\":{}}}", self.plan.render());
        out
    }

    /// Parse a file written by [`Repro::render`].
    pub fn parse(text: &str) -> Result<Repro, String> {
        let v = json::parse(text)?;
        let num = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(json::Jv::as_u64)
                .ok_or_else(|| format!("repro: missing \"{key}\""))
        };
        let violated = v
            .get("violated")
            .and_then(json::Jv::as_arr)
            .ok_or_else(|| "repro: missing \"violated\"".to_owned())?
            .iter()
            .filter_map(|s| s.as_str().map(str::to_owned))
            .collect();
        let plan = ChaosPlan::from_json(
            v.get("plan").ok_or_else(|| "repro: missing \"plan\"".to_owned())?,
        )?;
        Ok(Repro {
            seed: num("seed")?,
            cells: num("cells")? as usize,
            devices_per_cell: num("devices_per_cell")? as usize,
            shards: num("shards")? as usize,
            violated,
            plan,
        })
    }

    /// Write to `<dir>/repro-<seed>.json`, creating the directory.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("repro-{}.json", self.seed));
        fs::write(&path, self.render())?;
        Ok(path)
    }

    /// Re-run the recorded case through both invariant layers.
    pub fn replay(&self) -> CaseResult {
        run_case(&self.spec(), &self.plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdagent_net::paging::PagingReport;
    use pdagent_net::prelude::{Ctx, Message, Node, NodeId};
    use pdagent_net::time::SimTime;

    /// A synthetic violation: a mutation of a healthy outcome, the
    /// invariant it must trip and the detail it must report.
    type SyntheticCase = (Box<dyn Fn(&mut SoakOutcome)>, &'static str, &'static str);

    /// One tiny chaos-free soak, reused (via clone) as the base evidence for
    /// every synthetic-violation unit test below.
    fn tiny_outcome() -> SoakOutcome {
        let spec = SoakSpec::new(5, 1, 1);
        crate::soak::run_soak(&spec)
    }

    fn edge(rule: &str, instance: &str, at: u64, fired: bool) -> ObsEvent {
        ObsEvent {
            at: SimTime(at),
            node_label: 1,
            rule: rule.to_owned(),
            instance: instance.to_owned(),
            fired,
            value: 2.0,
            limit: 1.0,
            trace: 9,
            exemplar: 0,
        }
    }

    #[test]
    fn every_invariant_detects_its_synthetic_violation() {
        let base = tiny_outcome();
        assert_eq!(
            quiesce_violations(&base),
            Vec::new(),
            "healthy tiny soak must pass every invariant",
        );

        // (mutator, expected violated invariant, expected detail) — one
        // synthetic violation per check, in check order.
        let cases: Vec<SyntheticCase> = vec![
            (
                Box::new(|o| o.lost_agents = 1),
                "no-lost-agents",
                "1 dispatched itineraries neither completed nor errored",
            ),
            (
                Box::new(|o| o.duplicate_executions = 2),
                "no-duplicate-execution",
                "dispatch handler re-ran 2 time(s) for an already-served request",
            ),
            (
                Box::new(|o| {
                    o.paging = Some(PagingReport {
                        fired: 1,
                        delivered: 0,
                        escalated: 0,
                        dropped: 1,
                        deduped: 0,
                        resolved: 0,
                        delivery: Default::default(),
                    })
                }),
                "no-dropped-pages",
                "1 page(s) exhausted every receiver",
            ),
            (
                Box::new(|o| o.epoch_regressions = 1),
                "monotone-epochs",
                "1 scrape epoch(s) went backwards",
            ),
            (
                Box::new(|o| o.alerts = vec![edge("p99", "gw-0", 10, false)]),
                "alert-pairing",
                "p99/gw-0 resolved before it fired",
            ),
        ];
        for (mutate, expect, detail) in cases {
            let mut outcome = base.clone();
            mutate(&mut outcome);
            let vs = quiesce_violations(&outcome);
            assert_eq!(vs, vec![Violation::new(expect, "quiesce", detail.to_owned())]);
        }
    }

    /// Every shard compiles the full plan, and a shard that does not host a
    /// fault's target must skip it: the injectors' summed activity is the
    /// same at 1 and 2 shards, and the only extra event is the second
    /// shard's injector start.
    #[test]
    fn plan_faults_apply_only_where_their_nodes_live() {
        const KEYS: [&str; 9] = [
            "chaos.link_down",
            "chaos.link_up",
            "chaos.blackout_down",
            "chaos.blackout_up",
            "chaos.crashes",
            "chaos.resumes",
            "chaos.skew_steps",
            "chaos.burst_on",
            "chaos.burst_off",
        ];
        for kind in FaultKind::all() {
            let run = |shards: usize| {
                let mut spec = matrix_spec(42);
                spec.shards = shards;
                spec.chaos_plan = Some(plan_for(kind, 0.5, spec.devices_per_cell));
                // Counters only grow, so the last barrier's sums are the
                // largest seen; every fault window closes long before the
                // run drains.
                let mut sums = [0u64; KEYS.len()];
                let out = run_soak_with(&spec, &mut |_, shards| {
                    for (sum, key) in sums.iter_mut().zip(KEYS) {
                        *sum = shards.iter().map(|s| s.counter_total(key) as u64).sum();
                    }
                });
                (sums, out.events)
            };
            let (one, one_events) = run(1);
            let (two, two_events) = run(2);
            assert!(one.iter().any(|&n| n > 0), "{kind:?}: plan injected nothing");
            assert_eq!(one, two, "{kind:?}: chaos activity {KEYS:?} moved with the shard count");
            assert_eq!(two_events, one_events + 1, "{kind:?}: phantom fault timers fired");
        }
    }

    #[test]
    fn alert_pairing_accepts_paired_and_trailing_open_episodes() {
        let mut outcome = tiny_outcome();
        outcome.alerts = vec![
            edge("p99", "gw-0", 10, true),
            edge("p99", "gw-0", 20, false),
            edge("p99", "gw-0", 30, true), // still open at quiesce: allowed
            edge("occ", "mas-a", 12, true),
            edge("occ", "mas-a", 14, false),
        ];
        assert_eq!(quiesce_violations(&outcome), Vec::new());
    }

    #[test]
    fn alert_pairing_rejects_double_fire() {
        let mut outcome = tiny_outcome();
        outcome.alerts =
            vec![edge("p99", "gw-0", 10, true), edge("p99", "gw-0", 11, true)];
        assert_eq!(
            quiesce_violations(&outcome),
            vec![Violation::new(
                "alert-pairing",
                "quiesce",
                "p99/gw-0 fired twice without a resolve".to_owned(),
            )],
        );
    }

    /// Pins the repro file format; the fixture is parsed, never replayed.
    #[test]
    fn golden_repro_fixture_round_trips() {
        let golden = include_str!("../fixtures/repro-golden.json");
        let repro = Repro::parse(golden.trim_end()).expect("fixture parses");
        assert_eq!(repro.render(), golden.trim_end(), "render must reproduce the fixture bytes");
        assert_eq!(repro.violated, vec!["no-duplicate-execution".to_owned()]);
        assert_eq!(repro.plan.faults.len(), 1);
        assert_eq!(repro.plan.faults[0].kind, FaultKind::Duplicate);
        // And the recorded spec reconstructs.
        let spec = repro.spec();
        assert_eq!(spec.seed, repro.seed);
        assert_eq!(spec.cells, repro.cells);
        assert_eq!(spec.devices_per_cell, repro.devices_per_cell);
    }

    /// A node that bumps one counter when the run starts.
    struct Bump(&'static str, f64);
    impl Node for Bump {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.metrics().bump(self.0, self.1);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _msg: Message) {}
    }

    /// A drained one-node shard whose only activity is `key += by`.
    fn shard_with(key: &'static str, by: f64) -> Simulator {
        let mut sim = Simulator::new(1);
        sim.add_node(Box::new(Bump(key, by)));
        sim.run_until_idle();
        sim
    }

    #[test]
    fn every_live_invariant_detects_its_synthetic_violation() {
        let mut live = LiveChecks::default();
        // A healthy shard with traffic passes and sets the counter baseline.
        assert_eq!(live.check(&[shard_with("msgs_sent", 5.0)], 1), Vec::new());

        let cases = [
            (
                "gateway.duplicate_executions",
                "no-duplicate-execution",
                "1 duplicate execution(s) observed live",
            ),
            ("page.dropped", "no-dropped-pages", "1 dropped page(s) observed live"),
            ("slo.epoch_regressions", "monotone-epochs", "1 epoch regression(s) observed live"),
        ];
        assert_eq!(cases.len(), LIVE_ZERO.len(), "every live counter needs a synthetic case");
        for (epoch, (key, expect, detail)) in (2..).zip(cases) {
            // Traffic holds at 5, so only the bumped counter's invariant trips.
            let shards = [shard_with("msgs_sent", 5.0), shard_with(key, 1.0)];
            let phase = format!("epoch {epoch}");
            assert_eq!(
                live.check(&shards, epoch),
                vec![Violation::new(expect, &phase, detail.to_owned())],
            );
        }
        // Sent-message totals falling from 5 to 2 between barriers.
        assert_eq!(
            live.check(&[shard_with("msgs_sent", 2.0)], 9),
            vec![Violation::new(
                "monotone-counters",
                "epoch 9",
                "msgs_sent total fell from 5 to 2".to_owned(),
            )],
        );
        // A shard with no nodes totals +0, which prints as "0", not "-0".
        let empty = Simulator::new(1);
        assert!(empty.counter_total("msgs_sent").is_sign_positive());
        assert_eq!(
            live.check(&[empty], 10),
            vec![Violation::new(
                "monotone-counters",
                "epoch 10",
                "msgs_sent total fell from 2 to 0".to_owned(),
            )],
        );
    }

    fn gateway_replays(result: &CaseResult) -> u64 {
        result.outcome.results.cells.iter().map(|c| c.gateway_replays).sum()
    }

    /// The acceptance demo: a duplication burst on a handheld's link
    /// delivers every request twice, and the gateway's reply slots answer
    /// each second copy without re-running a dispatch. The shrinker, driven
    /// by a count only the burst causes, reduces the 3-fault plan to it, and
    /// the written repro replays the case from disk.
    #[test]
    fn duplication_burst_is_absorbed_shrunk_and_replayable() {
        let spec = SoakSpec::new(77, 1, 2);
        let sec = SimDuration::from_secs;
        let trigger = Fault::duplicate(
            device_label(0, 0),
            gateway_label(0),
            SimDuration::ZERO,
            sec(40),
            1.0,
            SimDuration::from_millis(50),
        );
        let plan = ChaosPlan::new()
            .with(Fault::partition(device_label(0, 1), gateway_label(0), sec(1), sec(2)))
            .with(trigger.clone())
            .with(Fault::clock_skew(device_label(0, 1), sec(5), sec(6), 1.5));

        let result = run_case(&spec, &plan);
        assert_eq!(result.violations, Vec::new());
        assert!(gateway_replays(&result) > 0, "the burst must reach the reply slots");
        assert_eq!(result.outcome.duplicate_executions, 0);

        let mut oracle = |cand: &ChaosPlan| gateway_replays(&run_case(&spec, cand)) > 0;
        let shrunk = shrink_plan(&plan, &mut oracle, 24);
        assert_eq!(shrunk.faults.len(), 1, "decoys must be dropped: {shrunk:?}");
        assert_eq!(shrunk.faults[0].kind, FaultKind::Duplicate);

        // Serialize → reload → replay: the repro file alone re-runs the case.
        let repro = Repro::from_case(&spec, &shrunk, Vec::new());
        let dir = std::env::temp_dir().join("pdagent-chaos-test");
        let path = repro.write_to(&dir).expect("write repro");
        let reloaded = Repro::parse(&fs::read_to_string(&path).expect("read repro"))
            .expect("parse repro");
        assert_eq!(reloaded, repro);
        let replayed = reloaded.replay();
        assert_eq!(replayed.violations, Vec::new());
        assert!(gateway_replays(&replayed) > 0, "the reloaded plan must still duplicate");
    }

    #[test]
    fn zero_intensity_plan_is_byte_identical_to_chaos_free() {
        let mut spec = SoakSpec::new(11, 1, 2);
        spec.slo = true;
        spec.observe = true;
        spec.monitor_rounds = 3;
        let calm = crate::soak::run_soak(&spec);

        let mut chaotic_spec = spec.clone();
        let sec = SimDuration::from_secs;
        let plan = ChaosPlan::new()
            .with(Fault::loss(device_label(0, 0), gateway_label(0), sec(0), sec(30), 0.0))
            .with(Fault::duplicate(
                device_label(0, 1),
                gateway_label(0),
                sec(0),
                sec(30),
                0.0,
                SimDuration::from_millis(50),
            ))
            .with(Fault::reorder(
                gateway_label(0),
                device_label(0, 0),
                sec(0),
                sec(30),
                0.0,
                SimDuration::from_millis(20),
            ))
            .with(Fault::clock_skew(monitor_label(0, 2), sec(2), sec(12), 1.0));
        assert!(plan.is_inert());
        chaotic_spec.chaos_plan = Some(plan);
        let chaotic = crate::soak::run_soak(&chaotic_spec);

        assert_eq!(calm.results, chaotic.results);
        assert_eq!(calm.slo, chaotic.slo);
        assert_eq!(calm.alerts, chaotic.alerts);
        assert_eq!(calm.obs, chaotic.obs);
        assert_eq!(calm.scrapes_ok, chaotic.scrapes_ok);
        assert_eq!(calm.events, chaotic.events);
        assert_eq!(calm.chaos_activity, [0u64; 5]);
        assert_eq!(chaotic.chaos_activity, [0u64; 5]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4))]

        /// Any `(seed, plan)` replays byte-identically at 1 vs 2 shards:
        /// faults address labels, the chaos streams are per-direction, and
        /// crash/skew state is local to the owning shard.
        #[test]
        fn chaos_plans_are_shard_count_invariant(spec in proptest::collection::vec(
            ((0u8..8, 0u64..2, 0u64..2),
             (0u64..20_000u64, 1u64..20_000u64, 10u32..101u32)),
            1..4,
        )) {
            let mut plan = ChaosPlan::new();
            let ms = SimDuration::from_millis;
            for ((k, cell, dev), (t0, span, p)) in spec {
                let cell = cell as usize;
                let from = ms(t0);
                let to = ms(t0 + span);
                let p = f64::from(p) / 100.0;
                let dev_l = device_label(cell, dev as usize % 2);
                let gw_l = gateway_label(cell);
                let mon_l = monitor_label(cell, 2);
                plan.faults.push(match FaultKind::all()[k as usize] {
                    FaultKind::Partition => Fault::partition(dev_l, gw_l, from, to),
                    FaultKind::Blackout => Fault::blackout(mon_l, gw_l, from, to),
                    FaultKind::Loss => Fault::loss(dev_l, gw_l, from, to, p),
                    FaultKind::Corrupt => Fault::corrupt(dev_l, gw_l, from, to, p),
                    FaultKind::Duplicate =>
                        Fault::duplicate(dev_l, gw_l, from, to, p, ms(40)),
                    FaultKind::Reorder =>
                        Fault::reorder(gw_l, dev_l, from, to, p, ms(20)),
                    FaultKind::Crash => Fault::crash(gw_l, from, to),
                    FaultKind::ClockSkew => Fault::clock_skew(mon_l, from, to, 1.0 + p),
                });
            }
            let mut spec1 = SoakSpec::new(23, 2, 2);
            spec1.slo = true;
            spec1.monitor_rounds = 3;
            spec1.chaos_plan = Some(plan);
            let mut spec2 = spec1.clone();
            spec2.shards = 2;
            let one = crate::soak::run_soak(&spec1);
            let two = crate::soak::run_soak(&spec2);
            proptest::prop_assert_eq!(&one.results, &two.results);
            proptest::prop_assert_eq!(one.chaos_activity, two.chaos_activity);
            proptest::prop_assert_eq!(&one.slo, &two.slo);
            proptest::prop_assert_eq!(one.lost_agents, two.lost_agents);
            proptest::prop_assert_eq!(one.duplicate_executions, two.duplicate_executions);
        }
    }
}
