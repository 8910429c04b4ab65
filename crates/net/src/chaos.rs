//! Deterministic chaos: declarative fault schedules, an injector node that
//! compiles them into simulator events, and the invariant layer the chaos
//! matrix checks against.
//!
//! A [`ChaosPlan`] is a list of [`Fault`]s — link partitions, loss /
//! corruption / duplication / reorder bursts, node crash (pause-and-resume)
//! windows, clock-skew ramps and scrape blackouts — each scoped to a time
//! window and addressed by *stable node labels*, never raw [`NodeId`]s. A
//! [`ChaosInjector`] placed in each shard resolves the labels it can see
//! (local nodes and remote placeholders both carry labels) and applies every
//! fault it owns at the scheduled times. Because
//!
//! * fault times come from the plan (no draws),
//! * burst randomness comes from the per-direction *chaos* streams
//!   ([`crate::link::Topology::chaos_roll`]), salted and keyed by label pair
//!   exactly like the base loss/jitter streams, and
//! * crash windows judge deliveries at their (partition-invariant) arrival
//!   times while timers are always local to the owning shard,
//!
//! any run is byte-replayable from `(seed, plan)` and invariant under the
//! shard count — the same discipline the base link model already obeys.
//! Plans serialize to a small JSON dialect (hand-rolled; the workspace has
//! no serde) so a failing case can be written to disk and replayed directly.
//!
//! The module ends with [`shrink_plan`] — the greedy fault-dropper /
//! window-bisector / intensity-halver that reduces a failing plan to a
//! minimal reproducer. The invariants a plan is judged by live with the
//! harness that holds their evidence (`pdagent_bench::chaos_matrix`).

use std::fmt::Write as _;

use crate::link::ChaosOverlay;
use crate::message::Message;
use crate::sim::{Ctx, Node, NodeId};
use crate::time::SimDuration;

// ---------------------------------------------------------------------------
// Fault model
// ---------------------------------------------------------------------------

/// What a [`Fault`] does to the system while its window is open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Cut the `a`↔`b` link (refcounted: overlapping windows heal at the
    /// max end time).
    Partition,
    /// Cut a monitor↔target link — operationally a partition, but counted
    /// as its own fault class because it starves the scrape plane rather
    /// than the workload.
    Blackout,
    /// Extra message loss on `a`↔`b` with probability `intensity`.
    Loss,
    /// Link-layer corruption (checksum discard) with probability
    /// `intensity`.
    Corrupt,
    /// Deliver a second copy of each message with probability `intensity`,
    /// offset by up to `window`.
    Duplicate,
    /// Hold messages back by up to `window` with probability `intensity`,
    /// letting later traffic overtake them.
    Reorder,
    /// Pause node `a` (drop its deliveries, park its timers), resuming at
    /// the window end — a crash-and-restart with state intact.
    Crash,
    /// Ramp node `a`'s timer clock to `intensity`× across the window, then
    /// snap back.
    ClockSkew,
}

impl FaultKind {
    /// Stable wire name (JSON `kind` field).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Partition => "partition",
            FaultKind::Blackout => "blackout",
            FaultKind::Loss => "loss",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Reorder => "reorder",
            FaultKind::Crash => "crash",
            FaultKind::ClockSkew => "clock_skew",
        }
    }

    /// Parse a wire name back.
    pub fn from_name(s: &str) -> Option<FaultKind> {
        Some(match s {
            "partition" => FaultKind::Partition,
            "blackout" => FaultKind::Blackout,
            "loss" => FaultKind::Loss,
            "corrupt" => FaultKind::Corrupt,
            "duplicate" => FaultKind::Duplicate,
            "reorder" => FaultKind::Reorder,
            "crash" => FaultKind::Crash,
            "clock_skew" => FaultKind::ClockSkew,
            _ => return None,
        })
    }

    /// Does this kind address a link (two labels) rather than a node?
    pub fn is_link_fault(self) -> bool {
        !matches!(self, FaultKind::Crash | FaultKind::ClockSkew)
    }

    /// Every fault class, in the order the chaos matrix sweeps them.
    pub fn all() -> [FaultKind; 8] {
        [
            FaultKind::Partition,
            FaultKind::Blackout,
            FaultKind::Loss,
            FaultKind::Corrupt,
            FaultKind::Duplicate,
            FaultKind::Reorder,
            FaultKind::Crash,
            FaultKind::ClockSkew,
        ]
    }
}

/// One scheduled fault. Link faults use both labels; node faults use only
/// `a`. `intensity` is the burst probability (or the skew factor for
/// [`FaultKind::ClockSkew`]); `window` bounds reorder/duplicate hold-back.
#[derive(Debug, Clone, PartialEq)]
pub struct Fault {
    /// What the fault does.
    pub kind: FaultKind,
    /// Stable label of the first (or only) node.
    pub a: u64,
    /// Stable label of the peer for link faults (ignored for node faults).
    pub b: u64,
    /// Window start (sim time from t=0).
    pub from: SimDuration,
    /// Window end; must be ≥ `from`.
    pub to: SimDuration,
    /// Burst probability in `[0,1]`, or the clock factor for `ClockSkew`.
    pub intensity: f64,
    /// Hold-back window for `Reorder`/`Duplicate`.
    pub window: SimDuration,
}

impl Fault {
    fn link(kind: FaultKind, a: u64, b: u64, from: SimDuration, to: SimDuration) -> Fault {
        Fault { kind, a, b, from, to, intensity: 0.0, window: SimDuration::ZERO }
    }

    /// Cut `a`↔`b` across `[from, to)`.
    pub fn partition(a: u64, b: u64, from: SimDuration, to: SimDuration) -> Fault {
        Fault::link(FaultKind::Partition, a, b, from, to)
    }

    /// Black out the `a` (monitor) ↔ `b` (target) scrape path.
    pub fn blackout(a: u64, b: u64, from: SimDuration, to: SimDuration) -> Fault {
        Fault::link(FaultKind::Blackout, a, b, from, to)
    }

    /// Extra loss burst at probability `p`.
    pub fn loss(a: u64, b: u64, from: SimDuration, to: SimDuration, p: f64) -> Fault {
        Fault { intensity: p, ..Fault::link(FaultKind::Loss, a, b, from, to) }
    }

    /// Corruption burst at probability `p`.
    pub fn corrupt(a: u64, b: u64, from: SimDuration, to: SimDuration, p: f64) -> Fault {
        Fault { intensity: p, ..Fault::link(FaultKind::Corrupt, a, b, from, to) }
    }

    /// Duplication burst at probability `p`, copies offset by up to `window`.
    pub fn duplicate(
        a: u64,
        b: u64,
        from: SimDuration,
        to: SimDuration,
        p: f64,
        window: SimDuration,
    ) -> Fault {
        Fault { intensity: p, window, ..Fault::link(FaultKind::Duplicate, a, b, from, to) }
    }

    /// Reorder burst at probability `p` with hold-back up to `window`.
    pub fn reorder(
        a: u64,
        b: u64,
        from: SimDuration,
        to: SimDuration,
        p: f64,
        window: SimDuration,
    ) -> Fault {
        Fault { intensity: p, window, ..Fault::link(FaultKind::Reorder, a, b, from, to) }
    }

    /// Crash node `a` across `[from, to)`.
    pub fn crash(a: u64, from: SimDuration, to: SimDuration) -> Fault {
        Fault::link(FaultKind::Crash, a, 0, from, to)
    }

    /// Skew node `a`'s clock to `factor`× across `[from, to)`.
    pub fn clock_skew(a: u64, from: SimDuration, to: SimDuration, factor: f64) -> Fault {
        Fault { intensity: factor, ..Fault::link(FaultKind::ClockSkew, a, 0, from, to) }
    }

    /// Could this fault, at its current intensity, ever perturb the run?
    /// Zero-probability bursts install overlays that never draw; partitions,
    /// crashes and non-unit skews always perturb.
    pub fn is_active(&self) -> bool {
        match self.kind {
            FaultKind::Partition | FaultKind::Blackout | FaultKind::Crash => true,
            FaultKind::ClockSkew => self.intensity != 1.0,
            FaultKind::Loss
            | FaultKind::Corrupt
            | FaultKind::Duplicate
            | FaultKind::Reorder => self.intensity > 0.0,
        }
    }
}

/// A declarative fault schedule: the single chaos input of a run, alongside
/// the seed. Byte-replayable: the same `(seed, plan)` pair always produces
/// the same simulation, at any shard count.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosPlan {
    /// The scheduled faults, in plan order (order only breaks ties between
    /// actions landing on the same microsecond).
    pub faults: Vec<Fault>,
}

impl ChaosPlan {
    /// Empty plan.
    pub fn new() -> ChaosPlan {
        ChaosPlan::default()
    }

    /// Builder-style append.
    pub fn with(mut self, fault: Fault) -> ChaosPlan {
        self.faults.push(fault);
        self
    }

    /// A plan that cannot perturb the run (all faults inert). Such a plan
    /// must leave every digest byte-identical to a chaos-free run.
    pub fn is_inert(&self) -> bool {
        !self.faults.iter().any(Fault::is_active)
    }

    /// Render as JSON (stable field order; parse with
    /// [`ChaosPlan::parse`]).
    pub fn render(&self) -> String {
        let mut out = String::from("{\"faults\":[");
        for (i, f) in self.faults.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"kind\":\"{}\",\"a\":{},\"b\":{},\"from_us\":{},\"to_us\":{},\
                 \"intensity\":{},\"window_us\":{}}}",
                f.kind.name(),
                f.a,
                f.b,
                f.from.as_micros(),
                f.to.as_micros(),
                fmt_f64(f.intensity),
                f.window.as_micros(),
            );
        }
        out.push_str("]}");
        out
    }

    /// Parse a plan rendered by [`ChaosPlan::render`] (or written by hand).
    pub fn parse(text: &str) -> Result<ChaosPlan, String> {
        let v = json::parse(text)?;
        Self::from_json(&v)
    }

    /// Build a plan from an already-parsed JSON value (the repro file
    /// format embeds plans inside a larger object).
    pub fn from_json(v: &json::Jv) -> Result<ChaosPlan, String> {
        let faults = v
            .get("faults")
            .and_then(json::Jv::as_arr)
            .ok_or_else(|| "plan: missing \"faults\" array".to_owned())?;
        let mut plan = ChaosPlan::new();
        for (i, f) in faults.iter().enumerate() {
            let kind = f
                .get("kind")
                .and_then(json::Jv::as_str)
                .and_then(FaultKind::from_name)
                .ok_or_else(|| format!("fault {i}: bad \"kind\""))?;
            let num = |key: &str| -> Result<f64, String> {
                f.get(key)
                    .and_then(json::Jv::as_f64)
                    .ok_or_else(|| format!("fault {i}: missing \"{key}\""))
            };
            plan.faults.push(Fault {
                kind,
                a: num("a")? as u64,
                b: num("b")? as u64,
                from: SimDuration::from_micros(num("from_us")? as u64),
                to: SimDuration::from_micros(num("to_us")? as u64),
                intensity: num("intensity")?,
                window: SimDuration::from_micros(num("window_us")? as u64),
            });
        }
        Ok(plan)
    }
}

/// Shortest float rendering that survives a round trip (whole numbers keep
/// a `.0` so readers see a float).
fn fmt_f64(x: f64) -> String {
    let s = format!("{x}");
    if s.contains(['.', 'e', 'E', 'n', 'i']) {
        s
    } else {
        format!("{s}.0")
    }
}

// ---------------------------------------------------------------------------
// The injector node
// ---------------------------------------------------------------------------

/// What the injector does when one of its timers fires.
#[derive(Debug, Clone, Copy)]
enum Action {
    Cut { a: NodeId, b: NodeId, blackout: bool },
    Heal { a: NodeId, b: NodeId, blackout: bool },
    Overlay { a: NodeId, b: NodeId, fault: u64, loss: f64, corrupt: f64, dup: f64, reorder: f64, window: SimDuration },
    ClearOverlay { a: NodeId, b: NodeId, fault: u64 },
    Pause { node: NodeId },
    Resume { node: NodeId },
    Skew { node: NodeId, factor: f64 },
}

/// Compiles a [`ChaosPlan`] into simulator events. Place one injector in
/// every shard with the *full* plan: each instance applies the faults whose
/// labels resolve in its shard (link faults apply wherever both endpoints
/// are visible — including remote placeholders, so both sides of a
/// cross-shard link agree; node faults apply only where the node is local).
///
/// The injector is purely timer-driven and never draws randomness, so its
/// presence shifts event sequence numbers but no link-stream draws — and a
/// plan whose faults are all inert leaves every digest byte-identical to a
/// chaos-free run (asserted by the soak's zero-intensity test).
#[derive(Debug)]
pub struct ChaosInjector {
    plan: ChaosPlan,
    actions: Vec<(SimDuration, Action)>,
    /// Number of fault *windows* this instance applied (both boundary
    /// actions scheduled). Tests read it back to assert plan coverage.
    pub applied: u32,
}

impl ChaosInjector {
    /// Injector for `plan` (share the same plan across every shard).
    pub fn new(plan: ChaosPlan) -> ChaosInjector {
        ChaosInjector { plan, actions: Vec::new(), applied: 0 }
    }

    fn compile(&mut self, ctx: &Ctx<'_>) {
        let mut actions: Vec<(SimDuration, usize, Action)> = Vec::new();
        let mut seq = 0usize;
        for (i, f) in self.plan.faults.iter().enumerate() {
            // Inert faults (zero-probability bursts, 1.0 clock skew) compile
            // to nothing: a plan with every intensity at zero schedules no
            // timers and perturbs no RNG stream, so the run stays
            // byte-identical to a chaos-free one.
            if !f.is_active() {
                continue;
            }
            let to = f.to.max(f.from);
            let Some(a) = ctx.node_by_label(f.a) else { continue };
            if f.kind.is_link_fault() {
                let Some(b) = ctx.node_by_label(f.b) else { continue };
                let blackout = f.kind == FaultKind::Blackout;
                let (start, end) = match f.kind {
                    FaultKind::Partition | FaultKind::Blackout => (
                        Action::Cut { a, b, blackout },
                        Action::Heal { a, b, blackout },
                    ),
                    _ => {
                        let p = f.intensity.clamp(0.0, 1.0);
                        let overlay = Action::Overlay {
                            a,
                            b,
                            fault: i as u64,
                            loss: if f.kind == FaultKind::Loss { p } else { 0.0 },
                            corrupt: if f.kind == FaultKind::Corrupt { p } else { 0.0 },
                            dup: if f.kind == FaultKind::Duplicate { p } else { 0.0 },
                            reorder: if f.kind == FaultKind::Reorder { p } else { 0.0 },
                            window: f.window,
                        };
                        (overlay, Action::ClearOverlay { a, b, fault: i as u64 })
                    }
                };
                actions.push((f.from, seq, start));
                actions.push((to, seq + 1, end));
                seq += 2;
                self.applied += 1;
                continue;
            }
            // Node faults: only the shard hosting the node applies them.
            if ctx.is_remote(a) {
                continue;
            }
            match f.kind {
                FaultKind::Crash => {
                    actions.push((f.from, seq, Action::Pause { node: a }));
                    actions.push((to, seq + 1, Action::Resume { node: a }));
                    seq += 2;
                }
                FaultKind::ClockSkew => {
                    // Step-ramp: four evenly spaced steps from 1.0 toward
                    // the target factor, snapping back at the window end.
                    let len = to.saturating_sub(f.from);
                    let steps = if len >= SimDuration::from_micros(4) { 4u64 } else { 1 };
                    for k in 0..steps {
                        let frac = (k + 1) as f64 / steps as f64;
                        let factor = 1.0 + (f.intensity - 1.0) * frac;
                        let at = f.from + SimDuration::from_micros(len.as_micros() * k / steps);
                        actions.push((at, seq, Action::Skew { node: a, factor }));
                        seq += 1;
                    }
                    actions.push((to, seq, Action::Skew { node: a, factor: 1.0 }));
                    seq += 1;
                }
                _ => unreachable!("link faults handled above"),
            }
            self.applied += 1;
        }
        actions.sort_by_key(|x| (x.0, x.1));
        self.actions = actions.into_iter().map(|(at, _, act)| (at, act)).collect();
    }
}

impl ChaosInjector {
    fn apply(&mut self, ctx: &mut Ctx<'_>, action: Action) {
        match action {
            Action::Cut { a, b, blackout } => {
                ctx.cut_link(a, b);
                ctx.metrics()
                    .bump(if blackout { "chaos.blackout_down" } else { "chaos.link_down" }, 1.0);
            }
            Action::Heal { a, b, blackout } => {
                ctx.heal_link(a, b);
                ctx.metrics()
                    .bump(if blackout { "chaos.blackout_up" } else { "chaos.link_up" }, 1.0);
            }
            Action::Overlay { a, b, fault, loss, corrupt, dup, reorder, window } => {
                ctx.add_link_chaos(
                    a,
                    b,
                    fault,
                    ChaosOverlay { loss, corrupt, duplicate: dup, reorder, window },
                );
                ctx.metrics().bump("chaos.burst_on", 1.0);
            }
            Action::ClearOverlay { a, b, fault } => {
                ctx.remove_link_chaos(a, b, fault);
                ctx.metrics().bump("chaos.burst_off", 1.0);
            }
            Action::Pause { node } => {
                ctx.pause_node(node);
                ctx.metrics().bump("chaos.crashes", 1.0);
            }
            Action::Resume { node } => {
                ctx.resume_node(node);
                ctx.metrics().bump("chaos.resumes", 1.0);
            }
            Action::Skew { node, factor } => {
                ctx.set_clock_skew(node, factor);
                ctx.metrics().bump("chaos.skew_steps", 1.0);
            }
        }
    }
}

impl Node for ChaosInjector {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.compile(ctx);
        // Zero-time actions apply right now, during start-up, so a burst
        // whose window opens at t=0 covers even messages sent by timers
        // armed before the injector started. Later actions go on timers.
        for i in 0..self.actions.len() {
            let (at, action) = self.actions[i];
            if at == SimDuration::ZERO {
                self.apply(ctx, action);
            } else {
                ctx.set_timer(at, i as u64);
            }
        }
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _msg: Message) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        let Some(&(_, action)) = self.actions.get(tag as usize) else { return };
        self.apply(ctx, action);
    }
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

/// Reduce a failing plan to a (locally) minimal reproducer. `still_fails`
/// re-runs the scenario under a candidate plan and reports whether the
/// invariant still breaks; every accepted reduction preserves failure, so
/// the result is failing by construction. Strategies, in order:
///
/// 1. **Greedy drop** — remove whole faults while the failure survives
///    (restarting after each success, so later faults get re-tried against
///    the smaller plan).
/// 2. **Window bisection** — for each surviving fault, try keeping only the
///    first or second half of its window, repeatedly.
/// 3. **Intensity halving** — shrink burst probabilities toward a 0.05
///    floor.
///
/// `max_runs` bounds the number of `still_fails` invocations (each is a
/// full simulation); shrinking stops early when the budget is exhausted.
pub fn shrink_plan(
    plan: &ChaosPlan,
    still_fails: &mut dyn FnMut(&ChaosPlan) -> bool,
    max_runs: usize,
) -> ChaosPlan {
    let mut best = plan.clone();
    let mut runs = 0usize;
    let mut try_candidate = |cand: &ChaosPlan, runs: &mut usize| -> bool {
        if *runs >= max_runs {
            return false;
        }
        *runs += 1;
        still_fails(cand)
    };

    // 1. Greedy fault drop, restarting on every success.
    'drop: loop {
        for i in 0..best.faults.len() {
            if best.faults.len() == 1 {
                break 'drop;
            }
            let mut cand = best.clone();
            cand.faults.remove(i);
            if try_candidate(&cand, &mut runs) {
                best = cand;
                continue 'drop;
            }
            if runs >= max_runs {
                break 'drop;
            }
        }
        break;
    }

    // 2. Window bisection per fault.
    for i in 0..best.faults.len() {
        loop {
            let f = &best.faults[i];
            let len = f.to.saturating_sub(f.from);
            if len <= SimDuration::from_micros(2) || runs >= max_runs {
                break;
            }
            let mid = f.from + SimDuration::from_micros(len.as_micros() / 2);
            let mut first = best.clone();
            first.faults[i].to = mid;
            if try_candidate(&first, &mut runs) {
                best = first;
                continue;
            }
            let mut second = best.clone();
            second.faults[i].from = mid;
            if try_candidate(&second, &mut runs) {
                best = second;
                continue;
            }
            break;
        }
    }

    // 3. Intensity halving for probabilistic bursts.
    for i in 0..best.faults.len() {
        loop {
            let f = &best.faults[i];
            let halvable = matches!(
                f.kind,
                FaultKind::Loss | FaultKind::Corrupt | FaultKind::Duplicate | FaultKind::Reorder
            ) && f.intensity > 0.1;
            if !halvable || runs >= max_runs {
                break;
            }
            let mut cand = best.clone();
            cand.faults[i].intensity = (f.intensity / 2.0).max(0.05);
            if try_candidate(&cand, &mut runs) {
                best = cand;
            } else {
                break;
            }
        }
    }

    best
}

// ---------------------------------------------------------------------------
// Minimal JSON (reader side; the writers above are hand-formatted)
// ---------------------------------------------------------------------------

/// A small hand-rolled JSON reader — the workspace is offline and has no
/// serde. Covers exactly what chaos plans and repro files need: objects,
/// arrays, strings (with the escapes our writers emit), numbers, booleans
/// and null. Nesting is capped at [`json::MAX_DEPTH`].
pub mod json {
    /// Deepest array/object nesting [`parse`] accepts. The reader recurses
    /// once per level, so an unbounded depth would let a hostile file
    /// overflow the stack; plans, repro files and pdbench records nest a few
    /// levels.
    pub const MAX_DEPTH: usize = 128;

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Jv {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any number (integers included).
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Jv>),
        /// An object, in source order.
        Obj(Vec<(String, Jv)>),
    }

    impl Jv {
        /// Object field lookup.
        pub fn get(&self, key: &str) -> Option<&Jv> {
            match self {
                Jv::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// Numeric value, if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Jv::Num(x) => Some(*x),
                _ => None,
            }
        }

        /// Integer value (truncating), if this is a number.
        pub fn as_u64(&self) -> Option<u64> {
            self.as_f64().map(|x| x as u64)
        }

        /// String value, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Jv::Str(s) => Some(s),
                _ => None,
            }
        }

        /// Array items, if this is an array.
        pub fn as_arr(&self) -> Option<&[Jv]> {
            match self {
                Jv::Arr(items) => Some(items),
                _ => None,
            }
        }
    }

    /// Parse a JSON document. Errors carry a byte offset.
    pub fn parse(text: &str) -> Result<Jv, String> {
        let b = text.as_bytes();
        let mut pos = 0usize;
        let v = value(b, &mut pos, 0)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", c as char, pos))
        }
    }

    /// One value inside `depth` enclosing arrays/objects.
    fn value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Jv, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                Err(format!("nested deeper than {MAX_DEPTH} at offset {pos}"))
            }
            Some(b'{') => obj(b, pos, depth + 1),
            Some(b'[') => arr(b, pos, depth + 1),
            Some(b'"') => Ok(Jv::Str(string(b, pos)?)),
            Some(b't') => lit(b, pos, "true", Jv::Bool(true)),
            Some(b'f') => lit(b, pos, "false", Jv::Bool(false)),
            Some(b'n') => lit(b, pos, "null", Jv::Null),
            Some(_) => number(b, pos),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn lit(b: &[u8], pos: &mut usize, word: &str, v: Jv) -> Result<Jv, String> {
        if b[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {pos}"))
        }
    }

    fn number(b: &[u8], pos: &mut usize) -> Result<Jv, String> {
        let start = *pos;
        while *pos < b.len()
            && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Jv::Num)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        while *pos < b.len() {
            match b[*pos] {
                b'"' => {
                    *pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    *pos += 1;
                    let esc = *b.get(*pos).ok_or("unterminated escape")?;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            *pos += 4;
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                    *pos += 1;
                }
                _ => {
                    // Multi-byte UTF-8 passes through unchanged.
                    let s = &b[*pos..];
                    let ch_len = utf8_len(s[0]);
                    let chunk = s.get(..ch_len).ok_or("truncated UTF-8")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    *pos += ch_len;
                }
            }
        }
        Err("unterminated string".to_owned())
    }

    fn utf8_len(first: u8) -> usize {
        match first {
            0x00..=0x7F => 1,
            0xC0..=0xDF => 2,
            0xE0..=0xEF => 3,
            _ => 4,
        }
    }

    fn arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Jv, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Jv::Arr(items));
        }
        loop {
            items.push(value(b, pos, depth)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Jv::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {pos}")),
            }
        }
    }

    fn obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Jv, String> {
        expect(b, pos, b'{')?;
        let mut pairs = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Jv::Obj(pairs));
        }
        loop {
            skip_ws(b, pos);
            let key = string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, b':')?;
            pairs.push((key, value(b, pos, depth)?));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Jv::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::sim::Simulator;
    use crate::time::SimTime;

    const MS: u64 = 1_000;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_micros(x * MS)
    }

    /// Fires `n` pings at `every` intervals; records pong arrival times.
    struct Pinger {
        peer: NodeId,
        every: SimDuration,
        left: u32,
        pongs: Vec<SimTime>,
    }
    impl Node for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::ZERO, 0);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Message) {
            if msg.kind == "pong" {
                self.pongs.push(ctx.now());
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
            if self.left == 0 {
                return;
            }
            self.left -= 1;
            ctx.send(self.peer, Message::new("ping", b"x".to_vec()));
            if self.left > 0 {
                ctx.set_timer(self.every, 0);
            }
        }
    }

    /// Echoes pings; counts deliveries.
    struct Echo {
        seen: u32,
    }
    impl Node for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
            if msg.kind == "ping" {
                self.seen += 1;
                ctx.send(from, Message::new("pong", msg.body));
            }
        }
    }

    fn ping_sim(plan: ChaosPlan) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(7);
        let echo = sim.add_node(Box::new(Echo { seen: 0 }));
        let ping = sim.add_node(Box::new(Pinger {
            peer: echo,
            every: ms(100),
            left: 20,
            pongs: Vec::new(),
        }));
        sim.set_label(echo, 100);
        sim.set_label(ping, 101);
        let inj = sim.add_node(Box::new(ChaosInjector::new(plan)));
        sim.set_label(inj, 999);
        sim.connect(ping, echo, LinkSpec::ideal());
        sim.run_until_idle();
        (sim, ping, echo)
    }

    #[test]
    fn partition_fault_cuts_and_heals() {
        // Pings at 0,100,...,1900ms; cut 450–850ms swallows pings 5..=8.
        let plan =
            ChaosPlan::new().with(Fault::partition(100, 101, ms(450), ms(850)));
        let (sim, _ping, echo) = ping_sim(plan);
        assert_eq!(sim.node_ref::<Echo>(echo).unwrap().seen, 16);
    }

    #[test]
    fn overlapping_partitions_heal_at_max_end() {
        // Two overlapping cuts: 300–600 and 500–1050. A last-write-wins
        // implementation would heal at 600; the refcount keeps the link down
        // through 1050, so pings 3..=10 all drop.
        let plan = ChaosPlan::new()
            .with(Fault::partition(100, 101, ms(300), ms(600)))
            .with(Fault::partition(100, 101, ms(500), ms(1050)));
        let (sim, _ping, echo) = ping_sim(plan);
        assert_eq!(sim.node_ref::<Echo>(echo).unwrap().seen, 12);
    }

    #[test]
    fn duplicate_burst_delivers_copies() {
        let plan = ChaosPlan::new().with(Fault::duplicate(
            101,
            100,
            SimDuration::ZERO,
            ms(10_000),
            1.0,
            ms(5),
        ));
        let (sim, _ping, echo) = ping_sim(plan);
        // Every ping duplicated: echo sees 40. (Pongs duplicate too — the
        // pinger just records extras.)
        assert_eq!(sim.node_ref::<Echo>(echo).unwrap().seen, 40);
    }

    #[test]
    fn loss_burst_drops_everything_at_p1() {
        let plan = ChaosPlan::new().with(Fault::loss(
            101,
            100,
            SimDuration::ZERO,
            ms(10_000),
            1.0,
        ));
        let (sim, _ping, echo) = ping_sim(plan);
        assert_eq!(sim.node_ref::<Echo>(echo).unwrap().seen, 0);
        assert!(sim.counter_total("chaos.loss_drops") >= 20.0);
    }

    #[test]
    fn corrupt_burst_counts_separately_from_loss() {
        let plan = ChaosPlan::new().with(Fault::corrupt(
            101,
            100,
            SimDuration::ZERO,
            ms(10_000),
            1.0,
        ));
        let (sim, _ping, echo) = ping_sim(plan);
        assert_eq!(sim.node_ref::<Echo>(echo).unwrap().seen, 0);
        assert!(sim.counter_total("chaos.corrupt_drops") >= 20.0);
        assert_eq!(sim.counter_total("chaos.loss_drops"), 0.0);
    }

    #[test]
    fn inert_plan_changes_nothing_but_seq_numbers() {
        // All-zero burst probabilities: the overlay installs but never
        // draws, so pong arrival times are identical to a chaos-free run.
        let calm = {
            let mut sim = Simulator::new(7);
            let echo = sim.add_node(Box::new(Echo { seen: 0 }));
            let ping = sim.add_node(Box::new(Pinger {
                peer: echo,
                every: ms(100),
                left: 20,
                pongs: Vec::new(),
            }));
            sim.set_label(echo, 100);
            sim.set_label(ping, 101);
            sim.connect(ping, echo, LinkSpec::wireless_gprs());
            sim.run_until_idle();
            sim.node_ref::<Pinger>(ping).unwrap().pongs.clone()
        };
        let chaotic = {
            let mut sim = Simulator::new(7);
            let echo = sim.add_node(Box::new(Echo { seen: 0 }));
            let ping = sim.add_node(Box::new(Pinger {
                peer: echo,
                every: ms(100),
                left: 20,
                pongs: Vec::new(),
            }));
            sim.set_label(echo, 100);
            sim.set_label(ping, 101);
            let plan = ChaosPlan::new()
                .with(Fault::loss(101, 100, SimDuration::ZERO, ms(10_000), 0.0))
                .with(Fault::duplicate(101, 100, SimDuration::ZERO, ms(10_000), 0.0, ms(5)))
                .with(Fault::reorder(100, 101, SimDuration::ZERO, ms(10_000), 0.0, ms(5)))
                .with(Fault::clock_skew(101, ms(100), ms(200), 1.0));
            assert!(plan.is_inert());
            let inj = sim.add_node(Box::new(ChaosInjector::new(plan)));
            sim.set_label(inj, 999);
            sim.connect(ping, echo, LinkSpec::wireless_gprs());
            sim.run_until_idle();
            sim.node_ref::<Pinger>(ping).unwrap().pongs.clone()
        };
        assert_eq!(calm, chaotic);
    }

    #[test]
    fn crash_window_drops_deliveries_and_parks_timers() {
        // Crash the echo node across 450–850ms: pings 5..=8 are lost (the
        // node is down), but the pinger's own timers keep running.
        let plan = ChaosPlan::new().with(Fault::crash(100, ms(450), ms(850)));
        let (sim, _ping, echo) = ping_sim(plan);
        assert_eq!(sim.node_ref::<Echo>(echo).unwrap().seen, 16);
        assert_eq!(sim.counter_total("chaos.crash_drops"), 4.0);
    }

    #[test]
    fn crashed_node_timers_fire_after_resume() {
        // A node with a 100ms periodic timer crashed 250–900ms: its parked
        // ticks fire at resume, and ticking continues after.
        struct Ticker {
            ticks: Vec<SimTime>,
        }
        impl Node for Ticker {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(ms(100), 0);
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _msg: Message) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
                self.ticks.push(ctx.now());
                if self.ticks.len() < 10 {
                    ctx.set_timer(ms(100), 0);
                }
            }
        }
        let mut sim = Simulator::new(1);
        let t = sim.add_node(Box::new(Ticker { ticks: Vec::new() }));
        sim.set_label(t, 50);
        let inj = sim
            .add_node(Box::new(ChaosInjector::new(
                ChaosPlan::new().with(Fault::crash(50, ms(250), ms(900))),
            )));
        sim.set_label(inj, 999);
        sim.run_until_idle();
        let ticks = &sim.node_ref::<Ticker>(t).unwrap().ticks;
        assert_eq!(ticks.len(), 10);
        // Ticks 1,2 fire on time; tick 3 (due 300ms) parks until 900ms.
        assert_eq!(ticks[1], SimTime(200 * MS));
        assert_eq!(ticks[2], SimTime(900 * MS));
        assert_eq!(ticks[3], SimTime(1_000 * MS));
    }

    #[test]
    fn clock_skew_stretches_timers_inside_the_window() {
        struct Beeper {
            at: Vec<SimTime>,
        }
        impl Node for Beeper {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(ms(100), 0);
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _msg: Message) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
                self.at.push(ctx.now());
                if self.at.len() < 20 {
                    ctx.set_timer(ms(100), 0);
                }
            }
        }
        let mut sim = Simulator::new(1);
        let b = sim.add_node(Box::new(Beeper { at: Vec::new() }));
        sim.set_label(b, 60);
        let inj = sim.add_node(Box::new(ChaosInjector::new(
            ChaosPlan::new().with(Fault::clock_skew(60, ms(150), ms(1_000), 2.0)),
        )));
        sim.set_label(inj, 999);
        sim.run_until_idle();
        let at = &sim.node_ref::<Beeper>(b).unwrap().at;
        // Ticks armed before the ramp starts (at 150ms) run unskewed; the
        // tick armed at 200ms stretches past 100ms. After the window closes
        // the factor snaps back and intervals return to exactly 100ms.
        assert_eq!(at[0], SimTime(100 * MS));
        assert_eq!(at[1], SimTime(200 * MS));
        assert!(at[2].since(at[1]) > ms(100), "skewed interval: {:?}", at[2].since(at[1]));
        let last = at[at.len() - 1].since(at[at.len() - 2]);
        assert_eq!(last, ms(100));
    }

    #[test]
    fn golden_plan_round_trips() {
        let plan = ChaosPlan::new()
            .with(Fault::partition(12, 16, ms(9_500), ms(11_900)))
            .with(Fault::duplicate(20, 13, ms(0), ms(60_000), 0.75, ms(40)))
            .with(Fault::clock_skew(18, ms(1_000), ms(2_000), 1.5));
        let text = plan.render();
        // Golden: the exact serialized form is part of the repro-file
        // contract (a future parser change must keep reading this).
        let golden = "{\"faults\":[\
            {\"kind\":\"partition\",\"a\":12,\"b\":16,\"from_us\":9500000,\"to_us\":11900000,\"intensity\":0.0,\"window_us\":0},\
            {\"kind\":\"duplicate\",\"a\":20,\"b\":13,\"from_us\":0,\"to_us\":60000000,\"intensity\":0.75,\"window_us\":40000},\
            {\"kind\":\"clock_skew\",\"a\":18,\"b\":0,\"from_us\":1000000,\"to_us\":2000000,\"intensity\":1.5,\"window_us\":0}]}";
        assert_eq!(text, golden);
        assert_eq!(ChaosPlan::parse(&text).unwrap(), plan);
    }

    #[test]
    fn shrink_drops_decoys_and_bisects_windows() {
        // Oracle: fails iff some duplicate fault with p ≥ 0.5 covers t=30s.
        let mut oracle = |p: &ChaosPlan| {
            p.faults.iter().any(|f| {
                f.kind == FaultKind::Duplicate
                    && f.intensity >= 0.5
                    && f.from <= ms(30_000)
                    && f.to >= ms(30_000)
            })
        };
        let plan = ChaosPlan::new()
            .with(Fault::partition(1, 2, ms(5_000), ms(6_000)))
            .with(Fault::loss(3, 4, ms(0), ms(50_000), 0.3))
            .with(Fault::duplicate(5, 6, ms(0), ms(60_000), 1.0, ms(40)))
            .with(Fault::crash(7, ms(10_000), ms(11_000)))
            .with(Fault::clock_skew(8, ms(0), ms(1_000), 2.0));
        assert!(oracle(&plan));
        let small = shrink_plan(&plan, &mut oracle, 200);
        assert!(oracle(&small), "shrunk plan must still fail");
        assert_eq!(small.faults.len(), 1);
        let f = &small.faults[0];
        assert_eq!(f.kind, FaultKind::Duplicate);
        // The window bisected down around the 30s point.
        assert!(f.to.saturating_sub(f.from) < ms(15_000));
    }

    #[test]
    fn json_nesting_past_max_depth_is_an_error_not_a_stack_overflow() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects =
            |depth: usize| format!("{}0{}", r#"{"k":"#.repeat(depth), "}".repeat(depth));
        assert!(json::parse(&arrays(json::MAX_DEPTH)).is_ok());
        assert!(json::parse(&objects(json::MAX_DEPTH)).is_ok());
        let err = json::parse(&arrays(json::MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, format!("nested deeper than {0} at offset {0}", json::MAX_DEPTH));
        assert_eq!(json::parse(&arrays(100_000)).unwrap_err(), err);
        assert!(json::parse(&objects(100_000)).is_err());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Any plan survives a render→parse round trip.
        #[test]
        fn plan_json_round_trips(spec in proptest::collection::vec(
            ((0u8..8, 0u64..64, 0u64..64),
             (0u64..100_000u64, 0u64..100_000u64, 0u32..101u32, 0u64..5_000u64)),
            0..12,
        )) {
            let mut plan = ChaosPlan::new();
            for ((k, a, b), (t0, t1, p, w)) in spec {
                let kind = FaultKind::all()[k as usize];
                let (from, to) = if t0 <= t1 { (t0, t1) } else { (t1, t0) };
                plan.faults.push(Fault {
                    kind,
                    a,
                    b,
                    from: SimDuration::from_micros(from),
                    to: SimDuration::from_micros(to),
                    intensity: f64::from(p) / 100.0,
                    window: SimDuration::from_micros(w),
                });
            }
            let parsed = ChaosPlan::parse(&plan.render()).unwrap();
            proptest::prop_assert_eq!(parsed, plan);
        }

        /// Shrinking always yields a plan that still fails its oracle, and
        /// never a larger one.
        #[test]
        fn shrinking_preserves_failure(
            n_decoys in 0usize..6,
            p in 50u32..101u32,
            t0 in 0u64..20_000u64,
            span in 15_000u64..50_000u64,
        ) {
            // The "invariant" fails iff total duplicate probability mass
            // covering t=25s reaches 0.5.
            let probe = ms(25_000);
            let mut oracle = move |plan: &ChaosPlan| {
                let mass: f64 = plan
                    .faults
                    .iter()
                    .filter(|f| {
                        f.kind == FaultKind::Duplicate && f.from <= probe && f.to >= probe
                    })
                    .map(|f| f.intensity)
                    .sum();
                mass >= 0.5
            };
            let mut plan = ChaosPlan::new().with(Fault::duplicate(
                1, 2, ms(t0), ms(t0 + span.max(25_500 - t0.min(25_500))), // covers 25s
                f64::from(p) / 100.0, ms(40),
            ));
            // Make sure the trigger fault really covers the probe point.
            plan.faults[0].from = ms(t0.min(24_000));
            plan.faults[0].to = ms(26_000 + span);
            for i in 0..n_decoys {
                plan.faults.push(Fault::partition(
                    10 + i as u64, 20 + i as u64, ms(1_000), ms(2_000),
                ));
            }
            proptest::prop_assert!(oracle(&plan));
            let small = shrink_plan(&plan, &mut oracle, 300);
            proptest::prop_assert!(oracle(&small));
            proptest::prop_assert!(small.faults.len() <= plan.faults.len());
            proptest::prop_assert_eq!(small.faults.len(), 1);
        }
    }
}
