//! # pdagent-baselines
//!
//! The comparison systems from the paper's Section 2 and evaluation
//! (Figures 1, 12, 13):
//!
//! * [`client_server`] — the **Client-Server** approach: the wireless
//!   handheld "has to keep the connection with the wired network until the
//!   service is completed", executing every transaction interactively over
//!   the lossy, slow wireless hop.
//! * [`web`] — the **web-based** approach: "accessing Internet services
//!   through a web browser on a high-end desktop"; the link is good but the
//!   session (browsing, form filling) holds the connection throughout.
//! * [`client_agent`] — the **Client-Agent-Server** approach: a combined
//!   web + mobile-agent server launches *pre-installed* agents on the
//!   user's behalf; the user submits only parameters and disconnects. Its
//!   limitation (per the paper) is that only applications already
//!   installed on the agent server are available — no code mobility.
//! * [`bank`] — the HTTP content/transaction server these baselines talk to.
//!
//! All baselines run on the same `pdagent-net` simulator and the same
//! [`bank::BankServer`] workload, so Figure 12/13 comparisons are
//! apples-to-apples: only the protocol structure differs.

pub mod bank;
pub mod client_agent;
pub mod client_server;
pub mod web;

#[cfg(test)]
#[path = "../../../tests/support/hostile.rs"]
mod hostile;

pub use bank::BankServer;
pub use client_agent::{AgentServerNode, ClientAgentDevice};
pub use client_server::{ClientServerConfig, ClientServerDevice};
pub use web::{WebClientConfig, WebClient};
