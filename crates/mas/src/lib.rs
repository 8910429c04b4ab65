//! # pdagent-mas
//!
//! The Mobile Agent Server — the reproduction's stand-in for IBM Aglets.
//!
//! The paper runs "a well known Java-based mobile agent system" at each
//! network site and stresses that "any mobile agent system can be used". This
//! crate provides that substrate for the simulation: a [`server::MasNode`]
//! hosts arriving agents, executes their bytecode against the site's
//! registered [`service::Service`]s, models execution time on the site CPU,
//! and forwards each agent along its itinerary — returning it to its origin
//! gateway when the itinerary is exhausted (§3.3: "the mobile agent will
//! return to the Gateway where it is dispatched").
//!
//! Lifecycle management (paper §3.6) is supported through control messages:
//! *retract* (pull the agent back to the gateway immediately), *dispose*
//! (destroy it), *clone* (fork a copy that continues independently) and
//! *status* — the same verb set Aglets exposes.
//!
//! Reliability: agent transfers are acknowledged, all through one sender
//! ([`transfer::TransferSender`]: the gateway's first hop and every
//! [`server::MasNode`] hop). If the next site is down, it skips it after a
//! timeout, records the miss in the agent's results, and continues — so one
//! dead bank does not strand the user's e-banking agent.

pub mod agent;
pub mod batch;
#[cfg(test)]
mod oracle;
pub mod server;
pub mod service;
pub mod transfer;

pub use agent::{AgentId, AgentRecord, Itinerary, MobileAgent, ResultEntry};
pub use batch::BatchMasNode;
pub use server::{run_visit, CpuModel, MasNode, SiteDirectory, Visit, VISIT_RESULT_BUDGET};
pub use service::{EchoService, KvService, MailboxService, Service};

/// Message kind: an agent in transit between sites (or site → gateway).
pub const KIND_TRANSFER: &str = "mas.transfer";
/// Message kind: acknowledgment of a transfer.
pub const KIND_ACK: &str = "mas.ack";
/// Message kind: a finished agent returning to its origin gateway.
pub const KIND_COMPLETE: &str = "mas.complete";
/// Message kind: a management request (retract/dispose/clone/status).
pub const KIND_CONTROL: &str = "mas.control";
/// Message kind: management response.
pub const KIND_CONTROL_RESP: &str = "mas.control.resp";
