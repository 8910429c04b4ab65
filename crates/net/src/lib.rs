//! # pdagent-net
//!
//! A deterministic discrete-event network simulator — the substrate on which
//! the whole PDAgent reproduction runs.
//!
//! The paper's evaluation (Figures 12 and 13) measures *Internet connection
//! time* and *completion-time variance over a wireless link*; both are
//! properties of protocol structure (how many online round trips each
//! approach needs) interacting with link latency, jitter, bandwidth and loss.
//! This crate models exactly those quantities:
//!
//! * [`time`] — virtual time with microsecond resolution.
//! * [`rng`] — seeded randomness and the jitter distributions.
//! * [`message`] — the byte-oriented message envelope. Everything that
//!   crosses a link must be serialized to bytes, mirroring the paper's
//!   insistence on XML wire encoding for interoperability.
//! * [`link`] — link specifications (latency, jitter, bandwidth, loss,
//!   up/down) and the topology.
//! * [`queue`] — the event queue: the hierarchical timer wheel + slab event
//!   arena the simulator runs on, and the reference binary heap its tests
//!   and benchmark compare it against.
//! * [`sim`] — the event loop: [`sim::Simulator`], the [`sim::Node`] trait
//!   protocol state machines implement, and the per-event [`sim::Ctx`].
//! * [`http`] — an HTTP-like request/response layer with timeouts and
//!   retries, plus client-side helpers.
//! * [`metrics`] — connection-time accounting (the paper's headline metric),
//!   byte counters, a free-form scoreboard and gauges.
//! * [`obs`] — causal observability: trace ids minted per agent journey,
//!   parent/child spans with sim-time bounds, log-bucket latency histograms
//!   and deterministic timeline/JSONL exporters. Zero-cost unless a
//!   collector is attached via [`sim::Simulator::enable_obs`].
//! * [`telemetry`] — the operational plane: Prometheus-style text exposition
//!   (`GET /metrics`), health probes (`GET /healthz`) and the bounded flight
//!   recorder dumped when alerts fire.
//! * [`slo`] — declarative service-level rules (windowed p99, error ratio,
//!   gauge bounds, two-window burn rate), the alert engine, and the in-sim
//!   scraping monitor node.
//! * [`federation`] — the fleet scrape plane: a central scraper federating
//!   per-cell monitors over the WAN with fan-in batching, bounded in-flight
//!   windows and staleness accounting, feeding fleet-level SLO rules.
//! * [`paging`] — alert routing: a paging gateway with declarative route
//!   policies, retry/backoff, dedup and escalation, so the notification
//!   path has its own simulable delivery SLO.
//! * [`chaos`] — the fault-schedule engine: declarative [`chaos::ChaosPlan`]s
//!   (partitions, loss/corruption/duplication/reorder bursts, crash windows,
//!   clock skew, scrape blackouts) compiled into simulator events on salted
//!   RNG streams so any run is byte-replayable from `(seed, plan)`, plus the
//!   plan shrinker.
//!
//! Determinism: a simulation is a pure function of its seed and setup. All
//! randomness flows from the seed; the event queue breaks time ties by
//! insertion sequence. Running the same scenario twice yields byte-identical
//! traces, which the tests assert.
//!
//! ```
//! use pdagent_net::prelude::*;
//!
//! struct Echo;
//! impl Node for Echo {
//!     fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Message) {
//!         ctx.send(from, Message::new("echo", msg.body));
//!     }
//! }
//!
//! struct Caller { peer: NodeId, reply_at: Option<SimTime> }
//! impl Node for Caller {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         ctx.send(self.peer, Message::new("ping", b"hello".to_vec()));
//!     }
//!     fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, _msg: Message) {
//!         self.reply_at = Some(ctx.now());
//!     }
//! }
//!
//! let mut sim = Simulator::new(42);
//! let echo = sim.add_node(Box::new(Echo));
//! let caller = sim.add_node(Box::new(Caller { peer: echo, reply_at: None }));
//! sim.connect(caller, echo, LinkSpec::lan());
//! sim.run_until_idle();
//! assert!(sim.node_ref::<Caller>(caller).unwrap().reply_at.is_some());
//! ```

pub mod chaos;
pub mod federation;
pub mod http;
pub mod link;
pub mod message;
pub mod metrics;
pub mod obs;
pub mod paging;
pub mod queue;
pub mod rng;
pub mod sim;
pub mod slo;
pub mod telemetry;
pub mod time;
pub mod trace;

/// Convenient glob import for protocol crates.
pub mod prelude {
    pub use crate::chaos::{shrink_plan, ChaosInjector, ChaosPlan, Fault, FaultKind};
    pub use crate::federation::{
        FederationReport, FederationRollup, FederationScraper, FederationSpec,
    };
    pub use crate::http::{HttpRequest, HttpResponse, HttpStatus};
    pub use crate::paging::{
        PageReceiver, PagingGateway, PagingReport, Route, RoutePolicy, Severity,
    };
    pub use crate::link::{ChaosOverlay, LinkSpec};
    pub use crate::message::{Kind, Message};
    pub use crate::metrics::Metrics;
    pub use crate::obs::{Histogram, ObsContext, ObsEvent, ObsSummary};
    pub use crate::rng::SimRng;
    pub use crate::sim::{Ctx, Node, NodeId, Simulator};
    pub use crate::slo::{MonitorSpec, SloEngine, SloMonitor, SloReport, SloRule, SloSignal};
    pub use crate::telemetry::{
        parse_prom, render_prom, FlightRecorder, TelemetrySnapshot, PATH_HEALTHZ, PATH_METRICS,
    };
    pub use crate::time::{SimDuration, SimTime};
}

pub use prelude::*;
