//! The chaos matrix: system invariants over soak outcomes, a fault-class ×
//! intensity plan grid, and shrink-to-minimal-reproducer plumbing.
//!
//! The [`crate::soak`] workload is the system under test; a
//! [`ChaosPlan`] is the fault input. This module supplies the three layers
//! the `chaos` binary and the CI smoke drive:
//!
//! * **Invariants** — [`quiesce_invariants`] checks a finished
//!   [`SoakOutcome`] (no lost agents, no duplicate execution of
//!   non-idempotent steps, replay-cache bounds, `dropped_pages == 0`,
//!   monotone metric epochs, alert fire⇒resolve pairing);
//!   [`live_invariants`] checks live shard counters at sharded-engine epoch
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

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use pdagent_net::chaos::{
    json, shrink_plan, ChaosPlan, CheckPhase, Fault, FaultKind, Invariant, InvariantRegistry,
    Violation,
};
use pdagent_net::sim::Simulator;
use pdagent_net::time::SimDuration;

use crate::soak::{
    device_label, gateway_label, monitor_label, run_soak_with, SoakOutcome, SoakSpec,
};

// ---------------------------------------------------------------------------
// Quiesce invariants (over the finished outcome)
// ---------------------------------------------------------------------------

/// The evidence quiesce invariants read: the finished soak outcome. (The
/// replay-cache cap is already folded into
/// [`SoakOutcome::replay_overflow`] by the harvest.)
pub struct SoakEvidence {
    /// The finished run.
    pub outcome: SoakOutcome,
}

struct NoLostAgents;
impl Invariant<SoakEvidence> for NoLostAgents {
    fn name(&self) -> &'static str {
        "no-lost-agents"
    }
    fn check(&mut self, cx: &SoakEvidence, _phase: CheckPhase) -> Result<(), String> {
        match cx.outcome.lost_agents {
            0 => Ok(()),
            n => Err(format!("{n} dispatched itineraries neither completed nor errored")),
        }
    }
}

struct NoDuplicateExecution;
impl Invariant<SoakEvidence> for NoDuplicateExecution {
    fn name(&self) -> &'static str {
        "no-duplicate-execution"
    }
    fn check(&mut self, cx: &SoakEvidence, _phase: CheckPhase) -> Result<(), String> {
        match cx.outcome.duplicate_executions {
            0 => Ok(()),
            n => Err(format!("dispatch handler re-ran {n} time(s) for an already-served request")),
        }
    }
}

struct ReplayCacheSafety;
impl Invariant<SoakEvidence> for ReplayCacheSafety {
    fn name(&self) -> &'static str {
        "replay-cache-safety"
    }
    fn check(&mut self, cx: &SoakEvidence, _phase: CheckPhase) -> Result<(), String> {
        match cx.outcome.replay_overflow {
            0 => Ok(()),
            n => Err(format!("replay caches held {n} entry(ies) beyond cap+1")),
        }
    }
}

struct NoDroppedPages;
impl Invariant<SoakEvidence> for NoDroppedPages {
    fn name(&self) -> &'static str {
        "no-dropped-pages"
    }
    fn check(&mut self, cx: &SoakEvidence, _phase: CheckPhase) -> Result<(), String> {
        match cx.outcome.paging.as_ref().map_or(0, |p| p.dropped) {
            0 => Ok(()),
            n => Err(format!("{n} page(s) exhausted every receiver")),
        }
    }
}

struct MonotoneEpochs;
impl Invariant<SoakEvidence> for MonotoneEpochs {
    fn name(&self) -> &'static str {
        "monotone-epochs"
    }
    fn check(&mut self, cx: &SoakEvidence, _phase: CheckPhase) -> Result<(), String> {
        match cx.outcome.epoch_regressions {
            0 => Ok(()),
            n => Err(format!("{n} scrape epoch(s) went backwards")),
        }
    }
}

/// Alert edges must pair: per `(rule, instance)` the resolve count never
/// exceeds the fire count at any point of the (time-sorted) timeline, and
/// edge-triggering means at most one episode is open at a time. A run may
/// legitimately *end* breached (that is gated by `unresolved_alerts`
/// elsewhere); a resolve without a fire, or a double fire, is an engine bug.
struct AlertPairing;
impl Invariant<SoakEvidence> for AlertPairing {
    fn name(&self) -> &'static str {
        "alert-pairing"
    }
    fn check(&mut self, cx: &SoakEvidence, _phase: CheckPhase) -> Result<(), String> {
        use std::collections::HashMap;
        let mut open: HashMap<(&str, &str), i64> = HashMap::new();
        for e in &cx.outcome.alerts {
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
}

/// The standard quiesce registry, in check order.
pub fn quiesce_invariants() -> InvariantRegistry<SoakEvidence> {
    let mut reg = InvariantRegistry::new();
    reg.register(Box::new(NoLostAgents))
        .register(Box::new(NoDuplicateExecution))
        .register(Box::new(ReplayCacheSafety))
        .register(Box::new(NoDroppedPages))
        .register(Box::new(MonotoneEpochs))
        .register(Box::new(AlertPairing));
    reg
}

// ---------------------------------------------------------------------------
// Epoch-barrier invariants (over live shard counters)
// ---------------------------------------------------------------------------

fn live_total(shards: &[Mutex<Simulator>], key: &str) -> f64 {
    shards.iter().map(|s| s.lock().unwrap().counter_total(key)).sum()
}

struct LiveNoDuplicateExecution;
impl Invariant<[Mutex<Simulator>]> for LiveNoDuplicateExecution {
    fn name(&self) -> &'static str {
        "no-duplicate-execution"
    }
    fn check(&mut self, cx: &[Mutex<Simulator>], _phase: CheckPhase) -> Result<(), String> {
        match live_total(cx, "gateway.duplicate_executions") as u64 {
            0 => Ok(()),
            n => Err(format!("{n} duplicate execution(s) observed live")),
        }
    }
}

struct LiveNoDroppedPages;
impl Invariant<[Mutex<Simulator>]> for LiveNoDroppedPages {
    fn name(&self) -> &'static str {
        "no-dropped-pages"
    }
    fn check(&mut self, cx: &[Mutex<Simulator>], _phase: CheckPhase) -> Result<(), String> {
        match live_total(cx, "page.dropped") as u64 {
            0 => Ok(()),
            n => Err(format!("{n} dropped page(s) observed live")),
        }
    }
}

struct LiveMonotoneEpochs;
impl Invariant<[Mutex<Simulator>]> for LiveMonotoneEpochs {
    fn name(&self) -> &'static str {
        "monotone-epochs"
    }
    fn check(&mut self, cx: &[Mutex<Simulator>], _phase: CheckPhase) -> Result<(), String> {
        match live_total(cx, "slo.epoch_regressions") as u64 {
            0 => Ok(()),
            n => Err(format!("{n} epoch regression(s) observed live")),
        }
    }
}

/// Counters are cumulative: a shard's sent-message total going down between
/// epoch barriers would mean metric state was lost or rewound.
struct MonotoneCounters {
    last: f64,
}
impl Invariant<[Mutex<Simulator>]> for MonotoneCounters {
    fn name(&self) -> &'static str {
        "monotone-counters"
    }
    fn check(&mut self, cx: &[Mutex<Simulator>], _phase: CheckPhase) -> Result<(), String> {
        let sent = live_total(cx, "msgs_sent");
        if sent < self.last {
            return Err(format!("msgs_sent total fell from {} to {sent}", self.last));
        }
        self.last = sent;
        Ok(())
    }
}

/// The standard epoch-barrier registry, in check order.
pub fn live_invariants() -> InvariantRegistry<[Mutex<Simulator>]> {
    let mut reg = InvariantRegistry::new();
    reg.register(Box::new(LiveNoDuplicateExecution))
        .register(Box::new(LiveNoDroppedPages))
        .register(Box::new(LiveMonotoneEpochs))
        .register(Box::new(MonotoneCounters { last: 0.0 }));
    reg
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
    let mut live = live_invariants();
    let mut violations: Vec<Violation> = Vec::new();
    let outcome = run_soak_with(&spec, &mut |epoch, shards| {
        // Live checks sum a handful of counters per shard — cheap next to
        // the event stepping between barriers, so every barrier is checked.
        for v in live.check(shards, CheckPhase::Epoch(epoch)) {
            if !violations.iter().any(|w| w.invariant == v.invariant) {
                violations.push(v);
            }
        }
    });
    let ev = SoakEvidence { outcome };
    for v in quiesce_invariants().check(&ev, CheckPhase::Quiesce) {
        if !violations.iter().any(|w| w.invariant == v.invariant) {
            violations.push(v);
        }
    }
    CaseResult { violations, outcome: ev.outcome }
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
    /// Gateway replay-cache cap the case ran with.
    pub replay_cap: usize,
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
            replay_cap: spec.gateway_replay_cap,
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
        spec.gateway_replay_cap = self.replay_cap;
        spec
    }

    /// Render as JSON (stable field order; parse with [`Repro::parse`]).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"seed\":{},\"cells\":{},\"devices_per_cell\":{},\"shards\":{},\"replay_cap\":{},\"violated\":[",
            self.seed, self.cells, self.devices_per_cell, self.shards, self.replay_cap,
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
            replay_cap: num("replay_cap")? as usize,
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
    use pdagent_net::obs::ObsEvent;
    use pdagent_net::paging::PagingReport;
    use pdagent_net::time::SimTime;

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
        let mut reg = quiesce_invariants();
        assert_eq!(
            reg.check(&SoakEvidence { outcome: base.clone() }, CheckPhase::Quiesce),
            Vec::new(),
            "healthy tiny soak must pass every invariant",
        );

        // (mutator, expected violated invariant) — one synthetic violation
        // per registered invariant.
        let cases: Vec<(Box<dyn Fn(&mut SoakOutcome)>, &str)> = vec![
            (Box::new(|o| o.lost_agents = 1), "no-lost-agents"),
            (Box::new(|o| o.duplicate_executions = 2), "no-duplicate-execution"),
            (Box::new(|o| o.replay_overflow = 3), "replay-cache-safety"),
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
            ),
            (Box::new(|o| o.epoch_regressions = 1), "monotone-epochs"),
            (
                Box::new(|o| o.alerts = vec![edge("p99", "gw-0", 10, false)]),
                "alert-pairing",
            ),
        ];
        assert_eq!(cases.len(), reg.len(), "every registered invariant needs a synthetic case");
        for (mutate, expect) in cases {
            let mut outcome = base.clone();
            mutate(&mut outcome);
            let vs = reg.check(&SoakEvidence { outcome }, CheckPhase::Quiesce);
            assert_eq!(vs.len(), 1, "{expect}: expected exactly one violation, got {vs:?}");
            assert_eq!(vs[0].invariant, expect);
            assert_eq!(vs[0].phase, "quiesce");
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
        let vs = quiesce_invariants().check(&SoakEvidence { outcome }, CheckPhase::Quiesce);
        assert_eq!(vs, Vec::new());
    }

    #[test]
    fn alert_pairing_rejects_double_fire() {
        let mut outcome = tiny_outcome();
        outcome.alerts =
            vec![edge("p99", "gw-0", 10, true), edge("p99", "gw-0", 11, true)];
        let vs = quiesce_invariants().check(&SoakEvidence { outcome }, CheckPhase::Quiesce);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].invariant, "alert-pairing");
    }

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
        assert_eq!(spec.gateway_replay_cap, repro.replay_cap);
    }

    /// The acceptance demo: disabling the gateway replay cache under a
    /// duplication burst re-executes a non-idempotent dispatch. The matrix
    /// catches it (live *and* at quiesce), the shrinker reduces the 3-fault
    /// plan to its single trigger, and the written repro replays the failure
    /// from disk.
    #[test]
    fn seeded_replay_cache_violation_is_caught_shrunk_and_replayable() {
        let mut spec = SoakSpec::new(77, 1, 2);
        spec.gateway_replay_cap = 0; // the deliberately broken configuration
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
        assert!(
            result.violations.iter().any(|v| v.invariant == "no-duplicate-execution"),
            "expected a duplicate-execution violation, got {:?}",
            result.violations,
        );
        // The live layer sees it mid-run, before quiesce.
        assert!(
            result.violations.iter().any(|v| v.invariant == "no-duplicate-execution"
                && v.phase.starts_with("epoch")),
            "expected the violation at an epoch barrier, got {:?}",
            result.violations,
        );

        let shrunk = shrink_case(&spec, &plan, "no-duplicate-execution", 24);
        assert!(shrunk.faults.len() <= 3, "shrunk plan too large: {shrunk:?}");
        assert_eq!(shrunk.faults.len(), 1, "decoys must be dropped: {shrunk:?}");
        assert_eq!(shrunk.faults[0].kind, FaultKind::Duplicate);

        // Serialize → reload → replay: the repro file alone reproduces it.
        let repro = Repro::from_case(&spec, &shrunk, vec!["no-duplicate-execution".to_owned()]);
        let dir = std::env::temp_dir().join("pdagent-chaos-test");
        let path = repro.write_to(&dir).expect("write repro");
        let reloaded = Repro::parse(&fs::read_to_string(&path).expect("read repro"))
            .expect("parse repro");
        assert_eq!(reloaded, repro);
        // The repro's own spec() is the matrix shape; pin it back to the
        // original scenario shape for the replay equivalence we assert here.
        let mut replay_spec = spec.clone();
        replay_spec.chaos_plan = None;
        let replayed = run_case(&replay_spec, &reloaded.plan);
        assert!(
            replayed.violations.iter().any(|v| v.invariant == "no-duplicate-execution"),
            "reloaded repro must still fail: {:?}",
            replayed.violations,
        );
        // With the cache restored to its healthy cap, the same plan passes —
        // the violation is the configuration's fault, not the plan's.
        let mut healthy = spec.clone();
        healthy.gateway_replay_cap = 16;
        let ok = run_case(&healthy, &reloaded.plan);
        assert!(
            !ok.violations.iter().any(|v| v.invariant == "no-duplicate-execution"),
            "healthy replay cache must absorb the duplicates: {:?}",
            ok.violations,
        );
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
