//! # pdagent-bench
//!
//! The experiment harness: one module per paper artifact (see DESIGN.md's
//! experiment index). Each module builds the relevant scenario(s) on the
//! network simulator, runs them, and returns the series the paper plots;
//! the `src/bin/*` binaries print them as tables, and EXPERIMENTS.md records
//! paper-vs-measured.
//!
//! * [`fig12`] — Internet connection time vs. number of transactions, for
//!   PDAgent / Client-Server / Web-based (paper Figure 12).
//! * [`fig13`] — transaction completion time across four trials, for the
//!   Client-Server platform and PDAgent (paper Figure 13).
//! * [`footprint`] — the §2/§4 size claims: agent code 1–8 KB, compressed
//!   storage, ≤120 KB platform footprint (TAB-FOOT).
//! * [`gateway_selection`] — nearest-gateway RTT selection vs. first-in-list
//!   (the §3.5 model, Figure 8).
//! * [`ablations`] — compression on/off and code-mobility vs. pre-installed
//!   (client-agent-server) comparisons called out in DESIGN.md §5.
//!
//! Infrastructure:
//!
//! * [`parallel`] — fans independent `(seed, params)` simulations across
//!   worker threads with deterministic, order-merged results. Every figure
//!   module has a parallel `run` and a `run_sequential` reference;
//!   `PDAGENT_BENCH_THREADS` pins the worker count. The sharded engine
//!   ([`shard`]) does not use it: it steps every shard on the caller's
//!   thread.
//! * [`report`] — the `BENCH_<figure>.json` machine-readable reports the
//!   `src/bin/*` binaries emit (wall time, events/sec, per-point results).
//! * [`event_queue`] — timer-wheel vs. binary-heap scheduler head-to-head
//!   on the soak's event mix (`BENCH_event_queue.json`).
//! * [`scrape`] — `fleet_ops`-shaped scrape bodies for the telemetry micro
//!   benches and the ingest allocation bound.
//! * [`chaos_matrix`] — system invariants over soak outcomes, the
//!   fault-class × intensity chaos grid, and shrink-to-minimal-reproducer
//!   plumbing behind `cargo run --bin chaos`.

pub mod ablations;
pub mod chaos_matrix;
pub mod event_queue;
pub mod fig12;
pub mod fig13;
pub mod footprint;
pub mod gateway_selection;
pub mod parallel;
pub mod report;
pub mod scrape;
pub mod shard;
pub mod soak;
pub mod workload;
